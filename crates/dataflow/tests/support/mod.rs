//! The row-at-a-time aggregator the columnar kernel replaced, kept as the
//! reference the differential tests compare it against.
//!
//! Every row is materialised as `Value`s, grouped under a `GroupKey` in a
//! hash map and folded into one `Acc` per aggregate. Raw and merge outputs
//! are sorted by key with `Value::total_cmp`; a partial output lists its
//! groups in first-occurrence order, as the kernel does (the engine this
//! code came from emitted them in hash-map order, which the merge does not
//! observe).

use std::collections::{HashMap, HashSet};

use toreador_data::prelude::*;
use toreador_dataflow::aggregate::AggMode;
use toreador_dataflow::prelude::*;

/// Hashable wrapper for group keys (Value has no Eq/Hash of its own).
#[derive(Debug, Clone)]
struct GroupKey(Row);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.group_eq(b))
    }
}
impl Eq for GroupKey {}
impl std::hash::Hash for GroupKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            state.write_u64(v.hash_code());
        }
    }
}

/// Per-group accumulator for one aggregate expression. `merge` folds
/// partial states: counts add, and a mean takes a (sum, n) pair.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Min(Value),
    Max(Value),
    Mean { sum: f64, n: i64 },
    Distinct(HashSet<u64>),
}

impl Acc {
    fn new(func: AggFunc, input_ty: DataType) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum if input_ty == DataType::Int => Acc::SumInt(0, false),
            AggFunc::Sum => Acc::SumFloat(0.0, false),
            AggFunc::Min => Acc::Min(Value::Null),
            AggFunc::Max => Acc::Max(Value::Null),
            AggFunc::Mean => Acc::Mean { sum: 0.0, n: 0 },
            AggFunc::CountDistinct => Acc::Distinct(HashSet::new()),
        }
    }

    /// Fold one input value, or (`merge`) one partial state, where a
    /// mean's count is `mean_n`.
    fn update(&mut self, v: &Value, merge: bool, mean_n: Option<&Value>) -> FlowResult<()> {
        if v.is_null() {
            return Ok(()); // SQL semantics: aggregates skip nulls
        }
        match self {
            Acc::Count(n) if merge => *n += v.as_int().map_err(FlowError::Data)?,
            Acc::Count(n) => *n += 1,
            Acc::SumInt(s, seen) => {
                *s = s.wrapping_add(v.as_int().map_err(FlowError::Data)?);
                *seen = true;
            }
            Acc::SumFloat(s, seen) => {
                *s += v.as_float().map_err(FlowError::Data)?;
                *seen = true;
            }
            Acc::Min(m) => {
                if m.is_null() || v.total_cmp(m) == std::cmp::Ordering::Less {
                    *m = v.clone();
                }
            }
            Acc::Max(m) => {
                if m.is_null() || v.total_cmp(m) == std::cmp::Ordering::Greater {
                    *m = v.clone();
                }
            }
            Acc::Mean { sum, n } => {
                *sum += v.as_float().map_err(FlowError::Data)?;
                *n += match mean_n {
                    Some(count) => count.as_int().map_err(FlowError::Data)?,
                    None => 1,
                };
            }
            Acc::Distinct(set) => {
                set.insert(v.hash_code());
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::SumInt(s, true) => Value::Int(*s),
            Acc::SumFloat(s, true) => Value::Float(*s),
            Acc::SumInt(_, false) | Acc::SumFloat(_, false) => Value::Null,
            Acc::Min(m) | Acc::Max(m) => m.clone(),
            Acc::Mean { n: 0, .. } => Value::Null,
            Acc::Mean { sum, n } => Value::Float(sum / *n as f64),
            Acc::Distinct(set) => Value::Int(set.len() as i64),
        }
    }

    /// The partial-state cells: a mean keeps its (sum, n) pair.
    fn state(&self) -> Vec<Value> {
        match self {
            Acc::Mean { sum, n } => vec![Value::Float(*sum), Value::Int(*n)],
            other => vec![other.finish()],
        }
    }
}

/// Aggregate `t` row at a time. The input of [`AggMode::Merge`] is a
/// partial table (keys, then state columns by position).
pub fn aggregate_rows(
    mode: AggMode,
    t: &Table,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: &Schema,
) -> FlowResult<Table> {
    let schema = t.schema();
    let merge = mode == AggMode::Merge;
    let key_idx: Vec<usize> = if merge {
        (0..group_by.len()).collect()
    } else {
        group_by
            .iter()
            .map(|g| schema.index_of(g))
            .collect::<Result<_, _>>()?
    };
    // (input column, mean count column) per aggregate.
    let mut inputs = Vec::new();
    let mut pos = group_by.len();
    for a in aggs {
        if merge {
            let count = (a.func == AggFunc::Mean).then_some(pos + 1);
            inputs.push((pos, count));
            pos += if count.is_some() { 2 } else { 1 };
        } else {
            inputs.push((schema.index_of(&a.column)?, None));
        }
    }
    let fresh = || -> Vec<Acc> {
        aggs.iter()
            .zip(&inputs)
            .map(|(a, &(i, _))| Acc::new(a.func, schema.fields()[i].data_type))
            .collect()
    };
    let mut index: HashMap<GroupKey, usize> = HashMap::new();
    let mut groups: Vec<(GroupKey, Vec<Acc>)> = Vec::new();
    for row in t.iter_rows() {
        let key = GroupKey(key_idx.iter().map(|&i| row[i].clone()).collect());
        let g = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, fresh()));
            groups.len() - 1
        });
        for (acc, &(i, count)) in groups[g].1.iter_mut().zip(&inputs) {
            acc.update(&row[i], merge, count.map(|c| &row[c]))?;
        }
    }
    if mode == AggMode::Partial {
        let rows = groups.into_iter().map(|(key, accs)| {
            let mut row = key.0;
            row.extend(accs.iter().flat_map(Acc::state));
            row
        });
        return Ok(Table::from_rows(out_schema.clone(), rows)?);
    }
    // Global aggregation over an empty input still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.push((GroupKey(Vec::new()), fresh()));
    }
    groups.sort_by(|(a, _), (b, _)| {
        a.0.iter()
            .zip(&b.0)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let rows = groups.into_iter().map(|(key, accs)| {
        let mut row = key.0;
        row.extend(accs.iter().map(Acc::finish));
        row
    });
    Ok(Table::from_rows(out_schema.clone(), rows)?)
}
