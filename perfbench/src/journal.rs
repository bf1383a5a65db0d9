//! Split engine runs into layers using only the journal the engine already
//! returns (`RunTrace`) and its roll-ups (`PipelineTotals`, `SpillTotals`).
//!
//! Operator spans in the journal are consecutive: each `OperatorFinished`
//! covers the time since the previous one finished (the first since the
//! run started). So an engine run splits into the `Scan` span, the other
//! operator spans, and the tail from the last operator to `RunFinished`
//! (output collection and teardown).

use toreador_dataflow::trace::{PipelineTotals, RunTrace, SpillTotals, TraceEventKind};

/// Layer totals over one or more engine runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineSplit {
    pub runs: u64,
    pub engine_us: u64,
    pub scan_us: u64,
    pub operators_us: u64,
    pub tail_us: u64,
    pub tasks: u64,
    pub shuffle_bytes: u64,
    pub events: u64,
    pub pipelines: PipelineTotals,
    pub spill: SpillTotals,
}

impl EngineSplit {
    /// The split of every engine run in `traces`.
    pub fn of<'a>(traces: impl IntoIterator<Item = &'a RunTrace>) -> EngineSplit {
        traces
            .into_iter()
            .map(EngineSplit::of_run)
            .fold(EngineSplit::default(), |acc, s| acc.merge(&s))
    }

    fn of_run(trace: &RunTrace) -> EngineSplit {
        let mut split = EngineSplit {
            runs: 1,
            events: trace.events.len() as u64,
            pipelines: trace.pipeline_totals(),
            spill: trace.spill_totals(),
            ..EngineSplit::default()
        };
        let mut last_operator_at = 0;
        for event in &trace.events {
            match &event.kind {
                TraceEventKind::OperatorFinished {
                    operator,
                    elapsed_us,
                    shuffle_bytes,
                    ..
                } => {
                    if operator.starts_with("Scan") {
                        split.scan_us += elapsed_us;
                    } else {
                        split.operators_us += elapsed_us;
                    }
                    split.shuffle_bytes += shuffle_bytes;
                    last_operator_at = event.at_us;
                }
                TraceEventKind::TaskStarted { .. } => split.tasks += 1,
                TraceEventKind::RunFinished {
                    total_elapsed_us, ..
                } => {
                    split.engine_us += total_elapsed_us;
                    split.tail_us += event.at_us.saturating_sub(last_operator_at);
                }
                _ => {}
            }
        }
        split
    }

    fn merge(&self, other: &EngineSplit) -> EngineSplit {
        EngineSplit {
            runs: self.runs + other.runs,
            engine_us: self.engine_us + other.engine_us,
            scan_us: self.scan_us + other.scan_us,
            operators_us: self.operators_us + other.operators_us,
            tail_us: self.tail_us + other.tail_us,
            tasks: self.tasks + other.tasks,
            shuffle_bytes: self.shuffle_bytes + other.shuffle_bytes,
            events: self.events + other.events,
            pipelines: self.pipelines.merge(&other.pipelines),
            spill: self.spill.merge(&other.spill),
        }
    }
}
