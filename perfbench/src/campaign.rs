//! `campaign-scan` and `wide-spill`: one campaign is `Bdaas::parse` →
//! `compile` → `run` on a generated clickstream, timed from spec text to
//! dropping the returned `CampaignOutcome`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use toreador_core::prelude::*;
use toreador_data::generate::clickstream;
use toreador_data::table::Table;
use toreador_data::value::Value;

use crate::host;
use crate::journal::EngineSplit;
use crate::metrics::{median, quantile, Measured};
use crate::Opts;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Selective filter then a low-cardinality aggregate: the input copy
    /// and scan dominate.
    Scan,
    /// One group per row under a small memory budget: shuffle, morsel map
    /// wave and pager dominate.
    Spill,
}

impl Kind {
    fn rows(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 20_000,
            (Kind::Scan, false) => 1_200_000,
            (Kind::Spill, false) => 400_000,
        }
    }

    /// Memory budget of the compiled deployment's engine, in bytes.
    fn budget(self, smoke: bool) -> Option<u64> {
        match (self, smoke) {
            (Kind::Scan, _) => None,
            (Kind::Spill, false) => Some(256 << 10),
            // Small enough that the tiny smoke input still spills.
            (Kind::Spill, true) => Some(64 << 10),
        }
    }

    fn spec_text(self, threads: usize) -> String {
        let goals = match self {
            Kind::Scan => {
                "goal filtering predicate=\"price > 50 and action != 'view'\"\n\
                 goal aggregation group_by=country agg=sum:price:revenue,count:event_id:n\n"
            }
            Kind::Spill => "goal aggregation group_by=event_id agg=sum:price:revenue\n",
        };
        format!("campaign bench on clicks\nprefer cost\nparallelism {threads}\n{goals}")
    }
}

/// What a correct output must equal.
enum Reference {
    /// Per-country `(n, revenue)`, computed by scanning the input.
    Groups(BTreeMap<String, (i64, f64)>),
    /// The unbudgeted run's output, value for value.
    Table(Table),
}

/// One timed campaign.
struct Sample {
    total_ms: f64,
    /// CPU time of this process over the same interval.
    cpu_ms: f64,
    parse_us: f64,
    compile_us: f64,
    run_ms: f64,
    drop_ms: f64,
    /// The journal split; taken on traced campaigns only.
    split: Option<EngineSplit>,
}

struct Campaign<'a> {
    kind: Kind,
    bdaas: Bdaas,
    text: String,
    budget: Option<u64>,
    spill_dir: &'a Path,
    aux: HashMap<String, Table>,
}

impl Campaign<'_> {
    /// Run one campaign on a copy of `table` (copied outside the timed
    /// interval, since `Bdaas::run` consumes its input) and check it.
    fn once(
        &self,
        table: &Table,
        traced: bool,
        check: impl FnOnce(&Table) -> Result<(), String>,
    ) -> Result<(Sample, Result<(), String>), String> {
        let input = table.clone();
        let pid = std::process::id();
        let cpu_started = host::cpu_seconds(pid)?;
        let started = Instant::now();
        let spec = self.bdaas.parse(&self.text).map_err(|e| e.to_string())?;
        let parsed = Instant::now();
        let mut compiled = self
            .bdaas
            .compile(&spec, table.schema(), table.num_rows())
            .map_err(|e| e.to_string())?;
        if let Some(bytes) = self.budget {
            compiled.deployment.engine_config = compiled
                .deployment
                .engine_config
                .clone()
                .with_memory_budget(bytes)
                .with_spill_dir(self.spill_dir);
        }
        let compiled_at = Instant::now();
        let outcome = self
            .bdaas
            .run(&compiled, input, &self.aux)
            .map_err(|e| e.to_string())?;
        let ran = Instant::now();
        let cpu_ran = host::cpu_seconds(pid)?;
        let verdict = check(&outcome.output);
        let split = traced.then(|| EngineSplit::of(&outcome.engine_traces));
        let cpu_dropping = host::cpu_seconds(pid)?;
        let dropping = Instant::now();
        drop(outcome);
        let drop_ms = ms(dropping.elapsed());
        let cpu_dropped = host::cpu_seconds(pid)?;
        let sample = Sample {
            total_ms: ms(ran - started) + drop_ms,
            cpu_ms: 1e3 * ((cpu_ran - cpu_started) + (cpu_dropped - cpu_dropping)),
            parse_us: us(parsed - started),
            compile_us: us(compiled_at - parsed),
            run_ms: ms(ran - compiled_at),
            drop_ms,
            split,
        };
        Ok((sample, verdict))
    }

    /// An unbudgeted run whose outcome is kept (the wide-spill reference).
    fn reference_run(&self, table: &Table) -> Result<Table, String> {
        let spec = self.bdaas.parse(&self.text).map_err(|e| e.to_string())?;
        let compiled = self
            .bdaas
            .compile(&spec, table.schema(), table.num_rows())
            .map_err(|e| e.to_string())?;
        let outcome = self
            .bdaas
            .run(&compiled, table.clone(), &self.aux)
            .map_err(|e| e.to_string())?;
        Ok(outcome.output)
    }

    /// Generate the input, derive its reference, and warm up with one
    /// checked campaign.
    fn set_up(&self, rows: usize, seed: u64) -> Result<(Table, Reference), String> {
        let table = clickstream(rows, seed);
        let reference = match self.kind {
            Kind::Scan => Reference::Groups(scan_reference(&table)?),
            Kind::Spill => {
                let out = self.reference_run(&table)?;
                if out.num_rows() != table.num_rows() {
                    return Err(format!(
                        "reference run has {} groups for {} distinct event ids",
                        out.num_rows(),
                        table.num_rows()
                    ));
                }
                Reference::Table(out)
            }
        };
        let (_, verdict) = self.once(&table, false, |out| check(out, &reference))?;
        verdict.map_err(|e| format!("warm-up campaign: {e}"))?;
        Ok((table, reference))
    }
}

pub fn run(kind: Kind, opts: &Opts, scratch: &Path) -> Result<Measured, String> {
    let rows = kind.rows(opts.smoke);
    let campaign = Campaign {
        kind,
        bdaas: Bdaas::new(),
        text: kind.spec_text(opts.threads),
        budget: kind.budget(opts.smoke),
        spill_dir: &scratch.join("spill"),
        aux: HashMap::new(),
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Free the previous input first so set-ups do not stack memory.
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(campaign.set_up(rows, opts.seed)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let (table, reference) = prepared.expect("at least one set-up");
    host::reset_peak_rss()?;

    let mut m = Measured::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    // Traced runs alternate traced and untraced campaigns, so the two
    // kinds ran under the same conditions.
    while Instant::now() < deadline || untraced.is_empty() || (opts.trace && traced.is_empty()) {
        let with_trace = opts.trace && untraced.len() > traced.len();
        match campaign.once(&table, with_trace, |out| check(out, &reference)) {
            Ok((sample, verdict)) => {
                m.tally(verdict.err());
                if with_trace {
                    traced.push(sample);
                } else {
                    untraced.push(sample);
                }
            }
            Err(e) => m.tally(Some(format!("campaign: {e}"))),
        }
        if m.failed > 0 && untraced.is_empty() && traced.is_empty() {
            return Err("every campaign failed".to_owned());
        }
    }

    let totals: Vec<f64> = untraced.iter().map(|s| s.total_ms).collect();
    let p50 = median(&totals);
    let n = totals.len() as f64;
    m.set("setup_s", median(&setups));
    m.set(
        "cpu_ms_per_op",
        median(&untraced.iter().map(|s| s.cpu_ms).collect::<Vec<_>>()),
    );
    m.set("peak_rss_mib", host::peak_rss_mib(std::process::id())?);
    m.set("latency_p50_ms", p50);
    m.set("latency_p95_ms", quantile(&totals, 0.95));
    m.set(
        "rows_per_s",
        rows as f64 * n / (totals.iter().sum::<f64>() / 1e3),
    );
    m.inputs.push(format!(
        "clickstream: {rows} rows, seed {}, {} campaigns timed",
        opts.seed,
        totals.len()
    ));
    if let Some(b) = campaign.budget {
        m.inputs.push(format!("engine memory budget: {b} B"));
    }
    m.notes.push(format!(
        "campaign_p50_ms = latency_p50_ms = {p50:.3} ms over {n} campaigns"
    ));
    if opts.trace {
        layers(&mut m, &traced, p50);
    }
    Ok(m)
}

/// Per-layer medians over the traced campaigns.
fn layers(m: &mut Measured, traced: &[Sample], untraced_p50: f64) {
    let med = |f: &dyn Fn(&Sample, &EngineSplit) -> f64| {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|s| s.split.as_ref().map(|e| f(s, e)))
            .collect();
        median(&v)
    };
    let engine_ms = |e: &EngineSplit| e.engine_us as f64 / 1e3;
    let glue = |s: &Sample, e: &EngineSplit| s.run_ms - engine_ms(e);
    let scan = |_: &Sample, e: &EngineSplit| e.scan_us as f64 / 1e3;
    let tail = |_: &Sample, e: &EngineSplit| e.tail_us as f64 / 1e3;
    let operators = |_: &Sample, e: &EngineSplit| e.operators_us as f64 / 1e3;

    m.set("core.parse_us", med(&|s, _| s.parse_us));
    m.set("core.compile_us", med(&|s, _| s.compile_us));
    m.set("core.glue_ms", med(&glue));
    m.set("core.outcome_drop_ms", med(&|s, _| s.drop_ms));
    m.set("dataflow.engine_runs", med(&|_, e| e.runs as f64));
    m.set("dataflow.engine_ms", med(&|_, e| engine_ms(e)));
    m.set("dataflow.scan_ms", med(&scan));
    m.set("dataflow.operators_ms", med(&operators));
    m.set("dataflow.tail_ms", med(&tail));
    m.set("dataflow.tasks", med(&|_, e| e.tasks as f64));
    m.set("dataflow.morsels", med(&|_, e| e.pipelines.morsels as f64));
    m.set("dataflow.stolen", med(&|_, e| e.pipelines.stolen as f64));
    m.set("dataflow.worker_skew", med(&|_, e| e.pipelines.worker_skew));
    m.set(
        "dataflow.shuffle_bytes",
        med(&|_, e| e.shuffle_bytes as f64),
    );
    m.set("dataflow.trace_events", med(&|_, e| e.events as f64));
    m.set("pager.spills", med(&|_, e| e.spill.spills as f64));
    m.set(
        "pager.spilled_bytes",
        med(&|_, e| e.spill.spilled_bytes as f64),
    );
    m.set("pager.page_faults", med(&|_, e| e.spill.page_faults as f64));
    m.set(
        "pager.page_evictions",
        med(&|_, e| e.spill.page_evictions as f64),
    );
    m.set(
        "pager.peak_pool_bytes",
        med(&|_, e| e.spill.peak_pool_bytes as f64),
    );
    // What no named layer covers: gaps between the benchmark's own calls
    // and engine time outside the scan, operator and tail spans.
    m.set(
        "unattributed_ms",
        med(&|s, e| {
            s.total_ms
                - s.parse_us / 1e3
                - s.compile_us / 1e3
                - glue(s, e)
                - scan(s, e)
                - operators(s, e)
                - tail(s, e)
                - s.drop_ms
        }),
    );
    let floor = med(&glue) + med(&scan) + med(&tail);
    m.set("copy_floor_share", floor / untraced_p50);
    // The engine journals every run, and the journal is read outside the
    // timed interval, so this is the benchmark's own cost: noise near 0.
    let traced_p50 = median(&traced.iter().map(|s| s.total_ms).collect::<Vec<_>>());
    m.set("trace_overhead_ms", traced_p50 - untraced_p50);
    m.notes.push(format!(
        "copy floor: core.glue_ms + dataflow.scan_ms + dataflow.tail_ms = {floor:.3} ms \
         = {:.1}% of campaign_p50_ms",
        100.0 * floor / untraced_p50
    ));
}

/// Per-country `(n, revenue)` of rows with `price > 50 and action != 'view'`.
fn scan_reference(table: &Table) -> Result<BTreeMap<String, (i64, f64)>, String> {
    let col = |name: &str| table.column(name).map_err(|e| e.to_string());
    let mut groups: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    for ((price, action), country) in col("price")?
        .iter_values()
        .zip(col("action")?.iter_values())
        .zip(col("country")?.iter_values())
    {
        let (Value::Float(price), Value::Str(action), Value::Str(country)) =
            (price, action, country)
        else {
            continue;
        };
        if price > 50.0 && action != "view" {
            let g = groups.entry(country).or_default();
            g.0 += 1;
            g.1 += price;
        }
    }
    Ok(groups)
}

fn check(out: &Table, reference: &Reference) -> Result<(), String> {
    match reference {
        Reference::Groups(expected) => check_groups(out, expected),
        Reference::Table(expected) if out == expected => Ok(()),
        Reference::Table(expected) => Err(first_difference(out, expected)),
    }
}

fn check_groups(out: &Table, expected: &BTreeMap<String, (i64, f64)>) -> Result<(), String> {
    let col = |name: &str| out.column(name).map_err(|e| format!("output: {e}"));
    let mut got: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    for ((country, n), revenue) in col("country")?
        .iter_values()
        .zip(col("n")?.iter_values())
        .zip(col("revenue")?.iter_values())
    {
        match (country, n, revenue) {
            (Value::Str(c), Value::Int(n), Value::Float(r)) => {
                if got.insert(c.clone(), (n, r)).is_some() {
                    return Err(format!("country {c:?} appears twice"));
                }
            }
            row => return Err(format!("unexpected output row {row:?}")),
        }
    }
    if got.len() != expected.len() {
        return Err(format!(
            "{} countries in output, {} in the input",
            got.len(),
            expected.len()
        ));
    }
    for (country, &(n, revenue)) in expected {
        let Some(&(got_n, got_revenue)) = got.get(country) else {
            return Err(format!("country {country:?} missing from output"));
        };
        if got_n != n {
            return Err(format!("{country}: n = {got_n}, reference {n}"));
        }
        // Partition and morsel order may reassociate the float sum.
        if (got_revenue - revenue).abs() > 1e-9 * revenue.abs().max(1.0) {
            return Err(format!(
                "{country}: revenue = {got_revenue}, reference {revenue}"
            ));
        }
    }
    Ok(())
}

fn first_difference(out: &Table, expected: &Table) -> String {
    if out.schema() != expected.schema() || out.num_rows() != expected.num_rows() {
        return format!(
            "budgeted output has {} rows and schema {:?}; unbudgeted has {} rows and {:?}",
            out.num_rows(),
            out.schema(),
            expected.num_rows(),
            expected.schema()
        );
    }
    let row = (0..out.num_rows())
        .find(|&i| out.row(i).ok() != expected.row(i).ok())
        .unwrap_or(0);
    format!(
        "budgeted output differs from the unbudgeted run at row {row}: {:?} vs {:?}",
        out.row(row).ok(),
        expected.row(row).ok()
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
