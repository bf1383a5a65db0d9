//! The repository benchmark: runs one workload through the public APIs of
//! `core`, `dataflow`, `labs`, `serve` and `store`, checks its output, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Run it through `perfbench/run.py`, which builds this package and the
//! `toreador` binary first:
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the JSON carries the end-to-end metrics, with
//! `--trace 1` the per-layer ones, as `BENCHMARK.json` names them (see
//! `README.md` for their definitions).

mod campaign;
mod cohort;
mod host;
mod journal;
mod metrics;

use std::path::{Path, PathBuf};

use metrics::{Catalogue, Measured};

const WORKLOADS: &[&str] = &["campaign-scan", "wide-spill", "cohort-serve"];

/// Command-line options shared by every workload.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub smoke: bool,
    /// The release `toreador` binary (`cohort-serve` runs it as a daemon).
    pub toreador: PathBuf,
    /// Source revision, recorded with the result.
    pub rev: String,
    /// Engine threads and client threads: one per core.
    pub threads: usize,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut toreador = None;
    let mut rev = "unknown".to_owned();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--toreador" => toreador = Some(PathBuf::from(&value)),
            "--rev" => rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke,
        toreador: toreador.ok_or("missing --toreador")?,
        rev,
        threads: host::nproc(),
    })
}

/// The run's scratch directory (store, spill and temp files), removed
/// when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run(opts: &Opts, scratch: &Path) -> Result<Measured, String> {
    match opts.workload.as_str() {
        "campaign-scan" => campaign::run(campaign::Kind::Scan, opts, scratch),
        "wide-spill" => campaign::run(campaign::Kind::Spill, opts, scratch),
        "cohort-serve" => cohort::run(opts, scratch),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let catalogue = match Catalogue::load(Path::new("BENCHMARK.json")) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // Scratch space lives inside the working directory, under a name the
    // repository ignores.
    let dir = PathBuf::from(".bench_tmp").join(format!("{}-{}", opts.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let scratch = Scratch(dir);
    let measured = run(&opts, &scratch.0);
    drop(scratch);
    match measured {
        Ok(m) => report(&opts, &catalogue, m),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            std::process::exit(1);
        }
    }
}

fn report(opts: &Opts, catalogue: &Catalogue, mut m: Measured) {
    if let Some(name) = m.values.keys().find(|n| !catalogue.contains(n)) {
        eprintln!("perfbench: metric {name} is not named in BENCHMARK.json");
        std::process::exit(1);
    }
    let reported = if opts.trace {
        &catalogue.per_layer
    } else {
        &catalogue.end_to_end
    };
    for metric in reported {
        if m.values
            .get(metric.name.as_str())
            .is_some_and(|v| !v.is_finite())
        {
            m.fail(format!("{} is not a finite number", metric.name));
            m.values.remove(metric.name.as_str());
        }
    }
    m.set("failed_ratio", m.failed as f64 / m.attempted.max(1) as f64);
    // A layer the workload does not run reads 0.
    let value = |name: &str| m.values.get(name).copied().unwrap_or(0.0);
    println!(
        "perfbench {} seed={} seconds={} trace={} rev={} nproc={} engine_threads={} client_threads={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.rev,
        host::nproc(),
        opts.threads,
        if opts.workload == "cohort-serve" { opts.threads } else { 1 },
    );
    for line in &m.inputs {
        println!("  input: {line}");
    }
    // Untraced runs also print the per-layer metrics they measured (the
    // wall-clock view), unbounded.
    let shown = reported.iter().chain(
        catalogue
            .per_layer
            .iter()
            .filter(|c| !opts.trace && m.values.contains_key(c.name.as_str())),
    );
    for metric in shown.filter(|c| c.name != "failed_ratio") {
        println!(
            "  {:<28} {:>16.4} {}",
            metric.name,
            value(&metric.name),
            metric.unit
        );
    }
    println!(
        "  {:<28} {:>16.4} ratio ({} of {} operations failed)",
        "failed_ratio", m.values["failed_ratio"], m.failed, m.attempted
    );
    for note in &m.notes {
        println!("  {note}");
    }
    // Names and units are plain ASCII, and `f64`'s `Display` writes every
    // digit in plain decimal notation, so the line is valid JSON as built.
    let metrics: Vec<String> = reported
        .iter()
        .map(|c| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                c.name,
                value(&c.name),
                c.unit
            )
        })
        .collect();
    let result = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        m.failed == 0,
        m.attempted,
        m.failed,
        metrics.join(", ")
    );
    println!("{result}");
}
