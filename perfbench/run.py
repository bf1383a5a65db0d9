#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Builds the release `toreador` binary (the
`cohort-serve` daemon) and the benchmark package with cargo, offline, into
$CARGO_TARGET_DIR (default `target/`), then runs the benchmark. Build
output goes to standard error; the last line of standard output is the
benchmark's JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def revision():
    """The git commit, or "unknown" outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: run from the repository root")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ)
    # Both builds, the workspace's and the benchmark's own, write where
    # the paths below look.
    env["CARGO_TARGET_DIR"] = target
    # Temp files of the build, the benchmark and its children stay in the
    # checkout.
    tmp = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    build(["-p", "toreador-cli", "--bin", "toreador"], env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--toreador", os.path.join(target, "release", "toreador"),
        "--rev", revision(),
    ] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
