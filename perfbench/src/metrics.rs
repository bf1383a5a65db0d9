//! The metric catalogue and the small statistics the benchmark reports.
//!
//! `BENCHMARK.json` is the catalogue: every workload prints every metric
//! it names, and a per-layer metric of a layer the workload does not run
//! reads 0.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

/// A metric named in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

/// The end-to-end metrics (reported by `--trace 0`) and the per-layer
/// ones (reported by `--trace 1`), read from `BENCHMARK.json`.
pub struct Catalogue {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Catalogue {
    pub fn load(path: &Path) -> Result<Catalogue, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json: Value =
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<Metric>, String> {
            field(&json, key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{}: no {key} list", path.display()))?
                .iter()
                .map(|m| {
                    let text = |k| field(m, k).and_then(Value::as_str).map(str::to_owned);
                    match (text("name"), text("unit")) {
                        (Some(name), Some(unit)) => Ok(Metric { name, unit }),
                        _ => Err(format!(
                            "{}: {key} entry without name and unit",
                            path.display()
                        )),
                    }
                })
                .collect()
        };
        Ok(Catalogue {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    pub fn contains(&self, name: &str) -> bool {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .any(|m| m.name == name)
    }
}

/// Member `key` of a JSON object.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object()?.get(key)
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (campaigns, requests, store checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Catalogued metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// One-line descriptions of the generated inputs.
    pub inputs: Vec<String>,
    /// Human-readable notes: failed checks and the other names of
    /// the wall-clock metrics.
    pub notes: Vec<String>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one attempted operation; `problem` is `Some` when it failed.
    pub fn tally(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        // Keep the report short when a defect repeats on every operation.
        if self.notes.len() < 20 {
            self.notes.push(format!("FAILED: {problem}"));
        }
    }
}

/// Median of the samples (0 when there are none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 when there are no
/// samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
    }
}
