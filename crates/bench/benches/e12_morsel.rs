//! E12 — what morsel-driven pipelining and work-stealing buy on skewed
//! partitions (DESIGN.md §11). One deliberately skewed dataset — the first
//! partition holds ~65% of the rows, the shape a hot key or a bad split
//! produces in practice — runs the E10 narrow chain through three engine
//! modes: the row oracle, the vectorized+fused stage-barrier path (E10's
//! winner, which stalls the whole wave on the fat partition), and the
//! morsel-pipelined path, where idle workers steal row-range morsels off
//! the fat partition's deque. The series prints elapsed, speedup over the
//! row oracle, the journalled steal count, and the skew ratio each mode
//! observed (per-task straggler factor for barrier modes, per-worker busy
//! skew for the pipelined mode).
//!
//! Set `E12_QUICK=1` to shrink the series for CI smoke runs.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use toreador_bench::table_header;
use toreador_data::generate::clickstream;
use toreador_data::partition::{PartitionedTable, Partitioning};
use toreador_dataflow::expr::{col, lit, Expr, Func};
use toreador_dataflow::logical::Dataflow;
use toreador_dataflow::session::{Engine, EngineConfig};
use toreador_dataflow::trace::{RunTrace, TraceEventKind};

const THREADS: usize = 8;
const PARTITIONS: usize = 8;

fn quick() -> bool {
    std::env::var("E12_QUICK").is_ok_and(|v| v == "1")
}

fn series_rows() -> usize {
    if quick() {
        120_000
    } else {
        1_200_000
    }
}

/// A skewed split: partition 0 gets ~65% of the rows, the remainder is
/// spread evenly over the other seven. Same total data in every mode.
fn skewed_dataset(rows: usize) -> PartitionedTable {
    let t = clickstream(rows, 42);
    let fat = (rows * 65) / 100;
    let rest = (rows - fat) / (PARTITIONS - 1);
    let mut parts = Vec::with_capacity(PARTITIONS);
    let mut lo = 0usize;
    for p in 0..PARTITIONS {
        let hi = if p == 0 { fat } else { (lo + rest).min(rows) };
        let hi = if p == PARTITIONS - 1 { rows } else { hi };
        parts.push(t.slice(lo, hi).expect("slice"));
        lo = hi;
    }
    PartitionedTable::new(parts, Partitioning::Arbitrary).expect("skewed parts")
}

/// The E10 narrow chain, so the speedups are directly comparable.
fn narrow_flow(engine: &Engine) -> Dataflow {
    engine
        .flow("clicks")
        .expect("dataset registered")
        .filter(
            col("price")
                .gt(lit(50.0))
                .and(col("action").not_eq(lit("view"))),
        )
        .expect("filter binds")
        .project(vec![
            ("revenue", col("price").mul(lit(0.85))),
            ("account", col("user_id").add(col("product_id"))),
            ("tag_len", Expr::call(Func::Length, vec![col("category")])),
        ])
        .expect("projection binds")
}

fn engine_with(vectorized: bool, pipelined: bool, data: &PartitionedTable) -> Engine {
    let mut engine = Engine::new(
        EngineConfig::default()
            .with_threads(THREADS)
            .with_partitions(PARTITIONS)
            .with_vectorized(vectorized)
            .with_fuse_narrow(true)
            .with_pipelined(pipelined)
            .with_morsel_rows(16_384),
    );
    engine.register_partitioned("clicks", data.clone());
    engine
}

/// The scan span and the tail (output collection and teardown, from the
/// last operator to the end of the run) of one run, in microseconds, read
/// off the journal: operator spans are consecutive, so each
/// `OperatorFinished` covers the time since the previous one finished.
fn scan_and_tail_us(trace: &RunTrace) -> (u64, u64) {
    let (mut scan, mut tail, mut last_at) = (0, 0, 0);
    for e in &trace.events {
        match &e.kind {
            TraceEventKind::OperatorFinished {
                operator,
                elapsed_us,
                ..
            } => {
                if operator.starts_with("Scan") {
                    scan += elapsed_us;
                }
                last_at = e.at_us;
            }
            TraceEventKind::RunFinished { .. } => tail = e.at_us.saturating_sub(last_at),
            _ => {}
        }
    }
    (scan, tail)
}

fn print_series() {
    let rows = series_rows();
    let reps = if quick() { 2 } else { 3 };
    table_header(
        "E12",
        "morsel pipelining + work-stealing vs the stage barrier on a skewed split",
    );
    let data = skewed_dataset(rows);
    eprintln!(
        "  {} rows, {} partitions (partition 0 holds {} rows), {} threads",
        rows,
        PARTITIONS,
        data.parts()[0].num_rows(),
        THREADS
    );
    eprintln!(
        "{:>24} {:>12} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "mode", "elapsed ms", "stolen", "skew", "speedup", "scan ms", "tail ms"
    );
    let mut baseline = None;
    for (label, vectorized, pipelined) in [
        ("row-at-a-time", false, false),
        ("fused, stage barrier", true, false),
        ("fused, morsel pipeline", true, true),
    ] {
        let engine = engine_with(vectorized, pipelined, &data);
        let flow = narrow_flow(&engine);
        let mut best = Duration::MAX;
        let mut stolen = 0u64;
        let mut skew = 0.0f64;
        let mut scan_tail = (0, 0);
        for _ in 0..reps {
            let started = Instant::now();
            let result = engine.run(&flow).expect("run succeeds");
            let elapsed = started.elapsed();
            if elapsed < best {
                best = elapsed;
                scan_tail = scan_and_tail_us(&result.trace);
            }
            let totals = result.trace.pipeline_totals();
            stolen = totals.stolen;
            skew = if totals.pipelines > 0 {
                // Pipelined waves balance by stealing: skew is per-worker
                // busy-time imbalance.
                totals.worker_skew
            } else {
                // Barrier waves stall on the fat partition: skew is the
                // per-task straggler factor.
                result.trace.max_skew_ratio().unwrap_or(1.0)
            };
        }
        if std::env::var("E12_PROBE").is_ok() {
            let engine2 = engine_with(vectorized, pipelined, &data);
            let flow2 = narrow_flow(&engine2);
            let r = engine2.run(&flow2).expect("probe");
            let mut first_dispatch = None;
            for e in &r.trace.events {
                use toreador_dataflow::trace::TraceEventKind as K;
                match &e.kind {
                    K::MorselDispatched { .. } if first_dispatch.is_none() => {
                        first_dispatch = Some(e.at_us)
                    }
                    K::PipelineCompleted {
                        slowest_worker_us,
                        mean_worker_us,
                        workers,
                        morsels,
                        ..
                    } => {
                        eprintln!("    probe: wave span {}us (dispatch {} -> done {}), slowest {}us mean {:.0}us workers {} morsels {}",
                            e.at_us - first_dispatch.unwrap_or(0), first_dispatch.unwrap_or(0), e.at_us, slowest_worker_us, mean_worker_us, workers, morsels);
                    }
                    K::TaskStarted { .. } if first_dispatch.is_none() => {}
                    _ => {}
                }
            }
            for n in &r.metrics.nodes {
                eprintln!(
                    "    probe: node {:50} rows {:>9} elapsed {:>8}us",
                    n.operator, n.rows_out, n.elapsed_us
                );
            }
            eprintln!(
                "    probe: total run {}us, result rows {}",
                r.metrics.total_elapsed_us,
                r.table.num_rows()
            );
        }
        let base = *baseline.get_or_insert(best);
        eprintln!(
            "{:>24} {:>12.2} {:>8} {:>8.2} {:>8.1}x {:>8.2} {:>8.2}",
            label,
            best.as_secs_f64() * 1e3,
            stolen,
            skew,
            base.as_secs_f64() / best.as_secs_f64(),
            scan_tail.0 as f64 / 1e3,
            scan_tail.1 as f64 / 1e3
        );
    }
    eprintln!("  (stolen: journalled MorselStolen count; skew: straggler factor, 1.0 = balanced)");
    eprintln!("  (scan, tail: the best run's journalled Scan span and its output-collect + teardown tail)");
}

fn bench_morsel(c: &mut Criterion) {
    print_series();

    // Stable statistics on a smaller skewed table so criterion's iteration
    // calibration stays cheap.
    let data = skewed_dataset(if quick() { 20_000 } else { 100_000 });
    let mut group = c.benchmark_group("e12_skewed_chain");
    group.sample_size(10);
    for (name, pipelined) in [("stage_barrier", false), ("morsel_pipeline", true)] {
        let engine = engine_with(true, pipelined, &data);
        let flow = narrow_flow(&engine);
        group.bench_function(name, |b| {
            b.iter(|| engine.run(&flow).expect("run succeeds").table.num_rows())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_morsel);
criterion_main!(benches);
