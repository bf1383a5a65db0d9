//! `cohort-serve`: the release `toreador serve` daemon as a child process,
//! driven closed-loop by one client thread per core through
//! `toreador_serve::client::Client`.
//!
//! A run is a sequence of identical rounds. Each round starts a daemon on
//! an empty store, drives a fixed cohort through it, drains it, and
//! reopens the store. The store snapshots every 1024 records, so a fixed
//! cohort per round keeps the number of compactions per round fixed: a
//! longer run adds rounds, not compactions to a growing store.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use toreador_core::prelude::{Bdaas, Indicator};
use toreador_labs::prelude::{assess, challenge, execute_attempt, RunRecord, SessionStore};
use toreador_serve::prelude::*;

use crate::host;
use crate::journal::EngineSplit;
use crate::metrics::{median, quantile, Measured};
use crate::Opts;

/// Set-ups per run; `setup_s` is their median. A set-up is short, so
/// more of them keep a burst of host contention from moving the median.
const SETUPS: usize = 7;
/// Trainees in a set-up's warm-up.
const WARM_UP_TRAINEES: usize = 8;
const CHALLENGE: &str = "ecomm-revenue";
/// Rows per attempt: small, so the engine is cheap and the service
/// layers (HTTP, admission, coalescing, WAL commits) dominate.
const ROWS: usize = 200;
/// The fleet driver's designs; every trainee submits each once.
const DESIGNS: [[&str; 2]; 3] = [["full", "batch"], ["sample", "batch"], ["full", "stream"]];
/// Trainees per round. About ten store records each (one session, then a
/// run, a score and a meta per attempt), so a round crosses the
/// 1024-record snapshot threshold once before the final drain snapshot.
const TRAINEES: usize = 110;
const SMOKE_TRAINEES: usize = 4;
/// Longest wait for the daemon to report its address or to exit.
const DAEMON_WAIT: Duration = Duration::from_secs(60);

/// A `toreador serve` child. Dropping it kills and reaps the process if
/// it is still running, so no exit path leaves a daemon behind.
struct Daemon {
    child: Child,
    stdout: Option<BufReader<ChildStdout>>,
    addr: String,
}

impl Daemon {
    fn start(opts: &Opts, store: &Path, tmp: &Path) -> Result<Daemon, String> {
        let child = Command::new(&opts.toreador)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--threads-per-attempt", &opts.threads.to_string()])
            .args(["--seed", &opts.seed.to_string()])
            // Anything the daemon puts in the temp dir stays in the run's
            // scratch directory.
            .env("TMPDIR", tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", opts.toreador.display()))?;
        let mut daemon = Daemon {
            child,
            stdout: None,
            addr: String::new(),
        };
        let stdout = daemon.child.stdout.take().expect("stdout is piped");
        // Read the `listening on ADDR` line on a helper thread so a daemon
        // that never prints it cannot hang the benchmark.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let read = reader.read_line(&mut line);
            tx.send((read.map(|_| line), reader)).ok();
        });
        let received = rx.recv_timeout(DAEMON_WAIT);
        if received.is_err() {
            // Killing the daemon closes its stdout, which ends the reader.
            daemon.kill();
        }
        reader.join().map_err(|_| "daemon stdout reader panicked")?;
        let (line, reader) = received.map_err(|_| "daemon did not report its address")?;
        let line = line.map_err(|e| format!("read daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon output {line:?}"))?
            .to_owned();
        daemon.stdout = Some(reader);
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the daemon to drain through `/v1/shutdown` and wait for it to
    /// exit cleanly. Returns the drain time.
    fn stop(mut self) -> Result<Duration, String> {
        let started = Instant::now();
        Client::new(&self.addr)
            .shutdown()
            .map_err(|e| format!("shutdown request: {e}"))?;
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if started.elapsed() > DAEMON_WAIT {
                return Err("daemon did not exit after shutdown".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let drain = started.elapsed();
        let mut rest = String::new();
        if let Some(mut out) = self.stdout.take() {
            out.read_to_string(&mut rest).ok();
        }
        if !status.success() {
            return Err(format!("daemon exited with {status}: {}", rest.trim()));
        }
        Ok(drain)
    }

    fn kill(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// What a correct reply to one attempt carries: the same attempt run in
/// process through `labs::execute_attempt` and scored by `labs::assess`.
#[derive(Debug, Clone, Copy)]
struct Expected {
    rows_in: usize,
    rows_out: usize,
    score: f64,
    cost: f64,
}

impl Expected {
    fn mismatch(&self, reply: &AttemptReply) -> Option<String> {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        let matches = reply.rows_in == self.rows_in
            && reply.rows_out == self.rows_out
            && close(reply.score, self.score)
            && close(reply.cost, self.cost);
        (!matches).then(|| {
            format!(
                "{} run {}: served rows {}->{}, score {}, cost {}; in process {}->{}, {}, {}",
                reply.trainee,
                reply.run_id,
                reply.rows_in,
                reply.rows_out,
                reply.score,
                reply.cost,
                self.rows_in,
                self.rows_out,
                self.score,
                self.cost
            )
        })
    }
}

/// The expected reply to every design of every trainee in the cohort.
fn expected(opts: &Opts, cohort: usize) -> Result<Vec<Vec<Expected>>, String> {
    let bdaas = Bdaas::new();
    let challenge = challenge(CHALLENGE).map_err(|e| e.to_string())?;
    (0..cohort)
        .map(|i| {
            DESIGNS
                .iter()
                .map(|design| {
                    let choices = design.iter().map(|s| s.to_string()).collect();
                    let record = execute_attempt(
                        &bdaas,
                        &challenge,
                        &choices,
                        0,
                        Some(ROWS),
                        trainee_seed(opts, i),
                    )
                    .map_err(|e| format!("in-process attempt: {e}"))?;
                    Ok(Expected {
                        rows_in: record.rows_in,
                        rows_out: record.rows_out,
                        score: assess(&challenge, &record).total,
                        cost: record.indicator(Indicator::Cost).unwrap_or(0.0),
                    })
                })
                .collect()
        })
        .collect()
}

/// One trainee's closed loop.
#[derive(Default)]
struct Trainee {
    name: String,
    open_ms: Vec<f64>,
    /// `(latency, reply)` per acknowledged attempt.
    attempts: Vec<(f64, AttemptReply)>,
    reads_ms: Vec<f64>,
    /// Acknowledged run ids.
    acked: Vec<u64>,
    /// Wall time of the loop minus its timed requests.
    unattributed_ms: f64,
    /// Requests and record checks made, and those that failed.
    attempted: u64,
    problems: Vec<String>,
    /// Engine split of the acknowledged runs' persisted journals.
    splits: Vec<EngineSplit>,
}

impl Trainee {
    fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        self.problems.extend(problem);
    }

    /// Time one request; a failed request counts as a failure.
    fn timed<T>(&mut self, what: &str, call: impl FnOnce() -> ClientResult<T>) -> Option<(f64, T)> {
        let started = Instant::now();
        let result = call();
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(v) => {
                self.check(None);
                Some((elapsed, v))
            }
            Err(e) => {
                self.check(Some(format!("{what}: {e}")));
                None
            }
        }
    }
}

fn drive(client: &Client, name: &str, seed: u64, expected: &[Expected]) -> Trainee {
    let mut t = Trainee {
        name: name.to_owned(),
        ..Trainee::default()
    };
    let started = Instant::now();
    let open = OpenSessionRequest {
        trainee: name.to_owned(),
        quota: None,
        seed: Some(seed),
    };
    if let Some((ms, _)) = t.timed("open session", || client.open_session(&open)) {
        t.open_ms.push(ms);
    }
    for (design, expected) in DESIGNS.iter().zip(expected) {
        let req = AttemptRequest {
            trainee: name.to_owned(),
            challenge: CHALLENGE.to_owned(),
            choices: design.iter().map(|s| s.to_string()).collect(),
            rows: Some(ROWS),
        };
        if let Some((ms, reply)) = t.timed("attempt", || client.attempt(&req)) {
            t.check(expected.mismatch(&reply));
            t.acked.push(reply.run_id);
            t.attempts.push((ms, reply));
        }
    }
    if let Some((ms, history)) = t.timed("history", || client.history(name)) {
        t.reads_ms.push(ms);
        for run in t.acked.clone() {
            let found = history.runs.iter().any(|r| r.run_id == run);
            t.check((!found).then(|| format!("{name}: acknowledged run {run} not in history")));
        }
    }
    if let [a, b, ..] = t.acked[..] {
        if let Some((ms, reply)) = t.timed("compare", || client.compare(name, a, b)) {
            t.reads_ms.push(ms);
            let matches = reply.run_a == a && reply.run_b == b;
            t.check((!matches).then(|| format!("{name}: compare answered for other runs")));
        }
    }
    let timed: f64 = t.open_ms.iter().chain(&t.reads_ms).sum::<f64>()
        + t.attempts.iter().map(|(ms, _)| ms).sum::<f64>();
    t.unattributed_ms = started.elapsed().as_secs_f64() * 1e3 - timed;
    t
}

/// Read the persisted journals of a trainee's acknowledged runs. Traced
/// rounds call this after the cohort has finished, so the reads do not
/// overlap any timed request.
fn read_journals(client: &Client, t: &mut Trainee) {
    for run in t.acked.clone() {
        match client
            .run_record(&t.name, run)
            .map(serde_json::from_value::<RunRecord>)
        {
            Ok(Ok(record)) => t.splits.push(EngineSplit::of(&record.traces)),
            Ok(Err(e)) => t.check(Some(format!("run {run} journal: {e}"))),
            Err(e) => t.check(Some(format!("run record {run}: {e}"))),
        }
    }
}

/// One round: daemon on an empty store, the cohort, drain, reopen.
struct Round {
    trainees: Vec<Trainee>,
    wall_ms: f64,
    /// Daemon CPU time while the cohort ran.
    cpu_ms: f64,
    status: Option<StatusReply>,
    peak_rss_mib: f64,
    drain_ms: f64,
    store_bytes: u64,
    reopen_ms: f64,
    /// Problems found by the round-level checks, and how many were made.
    attempted: u64,
    problems: Vec<String>,
}

impl Round {
    fn acked(&self) -> usize {
        self.trainees.iter().map(|t| t.acked.len()).sum()
    }
}

/// `expected` holds one entry per trainee of the cohort.
fn round(
    opts: &Opts,
    dir: &Path,
    expected: &[Vec<Expected>],
    traced: bool,
) -> Result<Round, String> {
    let store = dir.join("store");
    let tmp = dir.join("tmp");
    for d in [&store, &tmp] {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let daemon = Daemon::start(opts, &store, &tmp)?;
    let client = Client::new(&daemon.addr);
    let next = AtomicUsize::new(0);
    let cpu_started = host::cpu_seconds(daemon.pid())?;
    let started = Instant::now();
    let mut trainees: Vec<Trainee> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..opts.threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(expected) = expected.get(i) else {
                            return mine;
                        };
                        let seed = trainee_seed(opts, i);
                        mine.push(drive(&client, &trainee_name(i), seed, expected));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = (host::cpu_seconds(daemon.pid())? - cpu_started) * 1e3;
    if traced {
        for t in &mut trainees {
            read_journals(&client, t);
        }
    }

    let mut r = Round {
        trainees,
        wall_ms,
        cpu_ms,
        status: None,
        peak_rss_mib: 0.0,
        drain_ms: 0.0,
        store_bytes: 0,
        reopen_ms: 0.0,
        attempted: 1,
        problems: Vec::new(),
    };
    match client.status() {
        Ok(status) => r.status = Some(status),
        Err(e) => r.problems.push(format!("status: {e}")),
    }
    r.peak_rss_mib = host::peak_rss_mib(daemon.pid())?;
    r.drain_ms = daemon.stop()?.as_secs_f64() * 1e3;
    r.store_bytes = host::dir_bytes(&store).map_err(|e| format!("size store: {e}"))?;

    // The drained store must hold exactly the acknowledged runs.
    let started = Instant::now();
    let reopened = SessionStore::open(&store).map_err(|e| format!("reopen store: {e}"))?;
    r.reopen_ms = started.elapsed().as_secs_f64() * 1e3;
    let trainees: Vec<(String, Vec<u64>)> = reopened
        .trainees()
        .map(|(name, state)| (name.clone(), state.runs.keys().copied().collect()))
        .collect();
    drop(reopened);
    for t in &r.trainees {
        let stored = trainees
            .iter()
            .find(|(n, _)| *n == t.name)
            .map(|(_, runs)| runs.as_slice())
            .unwrap_or(&[]);
        for run in &t.acked {
            r.attempted += 1;
            if !stored.contains(run) {
                r.problems
                    .push(format!("{}: acknowledged run {run} lost on reopen", t.name));
            }
        }
    }
    let acked = r.acked();
    let stored: usize = trainees.iter().map(|(_, runs)| runs.len()).sum();
    if stored != acked {
        r.problems.push(format!(
            "reopened store holds {stored} runs for {acked} acknowledged attempts"
        ));
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(r)
}

fn trainee_name(i: usize) -> String {
    format!("trainee-{i:03}")
}

/// The data seed of trainee `i`.
fn trainee_seed(opts: &Opts, i: usize) -> u64 {
    opts.seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

pub fn run(opts: &Opts, scratch: &Path) -> Result<Measured, String> {
    let cohort = if opts.smoke { SMOKE_TRAINEES } else { TRAINEES };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = Vec::new();
    for k in 0..SETUPS {
        // Compute every expected reply in process, then start a daemon on
        // an empty store and warm it up with a few trainees.
        let started = Instant::now();
        prepared = expected(opts, cohort)?;
        let warm = round(
            opts,
            &scratch.join(format!("setup-{k}")),
            &prepared[..WARM_UP_TRAINEES.min(cohort)],
            false,
        )?;
        if let Some(p) = warm
            .problems
            .iter()
            .chain(warm.trainees.iter().flat_map(|t| &t.problems))
            .next()
        {
            return Err(format!("warm-up: {p}"));
        }
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut m = Measured::default();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut k = 0;
    while Instant::now() < deadline || untraced.is_empty() || (opts.trace && traced.is_empty()) {
        // Traced runs alternate traced and untraced rounds.
        let with_trace = opts.trace && untraced.len() > traced.len();
        let r = round(
            opts,
            &scratch.join(format!("round-{k}")),
            &prepared,
            with_trace,
        )?;
        k += 1;
        m.attempted += r.attempted;
        for p in &r.problems {
            m.fail(p.clone());
        }
        for t in &r.trainees {
            m.attempted += t.attempted;
            for p in &t.problems {
                m.fail(p.clone());
            }
        }
        if with_trace {
            traced.push(r);
        } else {
            untraced.push(r);
        }
    }

    let untraced_latency = latencies(&untraced);
    let p50 = median(&untraced_latency);
    let acked = untraced_latency.len() as f64;
    let rows: usize = untraced
        .iter()
        .flat_map(|r| &r.trainees)
        .flat_map(|t| t.attempts.iter().map(|(_, reply)| reply.rows_in))
        .sum();
    let wall_s: f64 = untraced.iter().map(|r| r.wall_ms / 1e3).sum();
    m.set("setup_s", median(&setups));
    // Per round, so a burst of host contention moves one sample only.
    m.set(
        "cpu_ms_per_op",
        median(
            &untraced
                .iter()
                .map(|r| r.cpu_ms / r.acked() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "peak_rss_mib",
        median(&untraced.iter().map(|r| r.peak_rss_mib).collect::<Vec<_>>()),
    );
    m.set("latency_p50_ms", p50);
    m.set("latency_p95_ms", quantile(&untraced_latency, 0.95));
    m.set("rows_per_s", rows as f64 / wall_s);
    m.set("serve.attempts_per_s", acked / wall_s);
    m.set("serve.read_p50_ms", median(&reads(&untraced)));
    m.inputs.push(format!(
        "{} rounds of {cohort} trainees x {} `{CHALLENGE}` attempts at {ROWS} rows, \
         seed {}, {acked} attempts timed",
        untraced.len(),
        DESIGNS.len(),
        opts.seed,
    ));
    m.notes.push(
        "attempt_p50_ms = latency_p50_ms, attempt_p95_ms = latency_p95_ms, \
         attempts_per_s = serve.attempts_per_s"
            .to_owned(),
    );
    if opts.trace {
        layers(&mut m, &traced, p50);
    }
    Ok(m)
}

fn latencies(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.trainees)
        .flat_map(|t| t.attempts.iter().map(|(ms, _)| *ms))
        .collect()
}

fn reads(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.trainees)
        .flat_map(|t| t.reads_ms.iter().copied())
        .collect()
}

fn layers(m: &mut Measured, rounds: &[Round], untraced_p50: f64) {
    let latency = latencies(rounds);
    let trainees = || rounds.iter().flat_map(|r| &r.trainees);
    let replies = || trainees().flat_map(|t| &t.attempts);
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let splits: Vec<&EngineSplit> = trainees().flat_map(|t| &t.splits).collect();
    let per_run =
        |f: &dyn Fn(&EngineSplit) -> f64| median(&splits.iter().map(|s| f(s)).collect::<Vec<_>>());
    let acked = latency.len() as f64;
    let status_sum = |f: &dyn Fn(&StatusReply) -> u64| {
        rounds
            .iter()
            .filter_map(|r| r.status.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };

    m.set("dataflow.engine_runs", per_run(&|s| s.runs as f64));
    m.set("dataflow.engine_ms", per_run(&|s| s.engine_us as f64 / 1e3));
    m.set("dataflow.scan_ms", per_run(&|s| s.scan_us as f64 / 1e3));
    m.set(
        "dataflow.operators_ms",
        per_run(&|s| s.operators_us as f64 / 1e3),
    );
    m.set("dataflow.tail_ms", per_run(&|s| s.tail_us as f64 / 1e3));
    m.set("dataflow.tasks", per_run(&|s| s.tasks as f64));
    m.set("dataflow.morsels", per_run(&|s| s.pipelines.morsels as f64));
    m.set("dataflow.stolen", per_run(&|s| s.pipelines.stolen as f64));
    m.set(
        "dataflow.worker_skew",
        per_run(&|s| s.pipelines.worker_skew),
    );
    m.set(
        "dataflow.shuffle_bytes",
        per_run(&|s| s.shuffle_bytes as f64),
    );
    m.set("dataflow.trace_events", per_run(&|s| s.events as f64));
    m.set("pager.spills", per_run(&|s| s.spill.spills as f64));
    m.set(
        "pager.spilled_bytes",
        per_run(&|s| s.spill.spilled_bytes as f64),
    );
    m.set(
        "pager.page_faults",
        per_run(&|s| s.spill.page_faults as f64),
    );
    m.set(
        "pager.page_evictions",
        per_run(&|s| s.spill.page_evictions as f64),
    );
    m.set(
        "pager.peak_pool_bytes",
        per_run(&|s| s.spill.peak_pool_bytes as f64),
    );
    m.set(
        "labs.runtime_ms",
        median(&replies().map(|(_, r)| r.runtime_ms).collect::<Vec<_>>()),
    );
    m.set(
        "serve.outside_run_ms",
        median(
            &replies()
                .map(|(ms, r)| ms - r.runtime_ms)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "serve.open_p50_ms",
        median(
            &trainees()
                .flat_map(|t| t.open_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "coalesce.hit_ratio",
        replies().filter(|(_, r)| r.plan_cached).count() as f64 / acked,
    );
    m.set("serve.rejected_quota", status_sum(&|s| s.rejected_quota));
    m.set(
        "serve.rejected_overloaded",
        status_sum(&|s| s.rejected_overloaded),
    );
    m.set("serve.rejected_busy", status_sum(&|s| s.rejected_busy));
    m.set("serve.drain_ms", per_round(&|r| r.drain_ms));
    m.set(
        "store.bytes_per_attempt",
        per_round(&|r| r.store_bytes as f64 / r.acked() as f64),
    );
    m.set("store.reopen_ms", per_round(&|r| r.reopen_ms));
    // Client time per trainee outside any timed request.
    m.set(
        "unattributed_ms",
        median(&trainees().map(|t| t.unattributed_ms).collect::<Vec<_>>()),
    );
    // The daemon journals every run, and traced rounds read the journals
    // after their cohort, so this is the benchmark's own cost: noise near 0.
    m.set("trace_overhead_ms", median(&latency) - untraced_p50);
}
