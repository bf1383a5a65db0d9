//! Columnar hash aggregation: one group-by kernel for the raw path, the
//! map-side combine and the reduce-side merge.
//!
//! An [`Aggregation`] folds row ranges of one table. It hashes only the key
//! columns (the shuffle's [`key_hashes`]) and gives each distinct key a
//! dense group id from an open-addressing table ([`Groups`]). Keys compare
//! lane to lane against the group's first row, with
//! [`toreador_data::value::Value::group_eq`] semantics: all nulls form one
//! group, floats compare by `f64::total_cmp` (so `0.0` and `-0.0` stay
//! apart and identical NaNs meet), strings by bytes. Only the aggregate
//! input columns are read, into typed accumulator vectors indexed by group
//! id ([`Acc`]); output key columns are gathered at each group's first row.
//!
//! Folds run in row order and a table's ranges arrive in order, so every
//! group's float sum adds its values in exactly the order a row-at-a-time
//! fold would. A partial output lists its groups in first-occurrence order;
//! final outputs are sorted by key in `Value::total_cmp` order.

use std::cmp::Ordering;
use std::collections::HashSet;

use toreador_data::column::{Column, Validity};
use toreador_data::error::DataError;
use toreador_data::schema::{Field, Schema};
use toreador_data::table::Table;
use toreador_data::value::DataType;

use crate::error::{FlowError, Result};
use crate::logical::{AggExpr, AggFunc};
use crate::shuffle::{column_hash_codes, key_hashes};

/// What an [`Aggregation`] folds and what it outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Input rows to final rows, sorted by key (aggregation without a
    /// map-side combine).
    Raw,
    /// Input rows to partial-state rows (see [`partial_schema`]), in the
    /// order each group first occurs.
    Partial,
    /// Partial-state rows to final rows, sorted by key.
    Merge,
}

/// The intermediate schema of map-side partial aggregation: the group
/// keys, then per aggregate its state (`count`: Int; `sum`: Int over Int
/// input, else Float; `min`/`max`: the input type; `mean`: a Float sum
/// and an Int count). `count_distinct` has no partial state.
pub fn partial_schema(in_schema: &Schema, group_by: &[String], aggs: &[AggExpr]) -> Result<Schema> {
    let mut fields = group_by
        .iter()
        .map(|g| in_schema.field(g).cloned())
        .collect::<std::result::Result<Vec<Field>, _>>()?;
    for (i, a) in aggs.iter().enumerate() {
        let in_ty = in_schema.field(&a.column)?.data_type;
        match a.func {
            AggFunc::Count => fields.push(Field::new(format!("__p{i}_count"), DataType::Int)),
            AggFunc::Sum => {
                let ty = if in_ty == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                };
                fields.push(Field::new(format!("__p{i}_sum"), ty));
            }
            AggFunc::Min => fields.push(Field::new(format!("__p{i}_min"), in_ty)),
            AggFunc::Max => fields.push(Field::new(format!("__p{i}_max"), in_ty)),
            AggFunc::Mean => {
                fields.push(Field::new(format!("__p{i}_sum"), DataType::Float));
                fields.push(Field::new(format!("__p{i}_n"), DataType::Int));
            }
            AggFunc::CountDistinct => {
                return Err(FlowError::Plan(
                    "partial aggregation does not support count_distinct".to_owned(),
                ))
            }
        }
    }
    Ok(Schema::new(fields)?)
}

/// Marks a min/max group that has seen no non-null value yet.
const NO_ROW: u32 = u32::MAX;

/// Dense group ids for the rows of one table: an open-addressing table of
/// ids probed by key hash, where a probe compares the key lanes of the row
/// against those of the group's first row.
#[derive(Debug, Default)]
pub(crate) struct Groups {
    /// Group id + 1 per slot, 0 for an empty slot; a power of two long
    /// and at most half full.
    slots: Vec<u32>,
    /// Per group, its key hash and the first row holding its key.
    hashes: Vec<u64>,
    first: Vec<u32>,
}

impl Groups {
    /// The first row of each group, in group-id order (ascending rows).
    pub(crate) fn first_rows(&self) -> &[u32] {
        &self.first
    }

    /// The group id of each row `lo..hi` of `keys` (the key columns of one
    /// table), creating a group for each key not seen before.
    pub(crate) fn assign(&mut self, keys: &[&Column], lo: usize, hi: usize) -> Vec<u32> {
        assert!(
            u32::try_from(hi).is_ok_and(|h| h < NO_ROW),
            "aggregation input of {hi} rows exceeds u32 row ids"
        );
        let window: Vec<Column> = keys
            .iter()
            .map(|c| c.slice(lo, hi).expect("row range in bounds"))
            .collect();
        let hashes = key_hashes(&window.iter().collect::<Vec<_>>(), hi - lo);
        (lo..hi)
            .zip(hashes)
            .map(|(row, h)| self.find_or_insert(keys, row, h))
            .collect()
    }

    fn find_or_insert(&mut self, keys: &[&Column], row: usize, hash: u64) -> u32 {
        if (self.first.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = slot_of(hash, mask);
        loop {
            match self.slots[slot] {
                0 => {
                    let id = self.first.len() as u32;
                    self.slots[slot] = id + 1;
                    self.hashes.push(hash);
                    self.first.push(row as u32);
                    return id;
                }
                taken => {
                    let g = (taken - 1) as usize;
                    let first = self.first[g] as usize;
                    if self.hashes[g] == hash && keys.iter().all(|c| c.cmp_rows(first, row).is_eq())
                    {
                        return g as u32;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots = vec![0; cap];
        let mask = cap - 1;
        for (g, &hash) in self.hashes.iter().enumerate() {
            let mut slot = slot_of(hash, mask);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = g as u32 + 1;
        }
    }
}

/// Home slot of a hash: the high bits of a multiplicative mix, so every
/// input bit moves the slot (the FNV key hash alone is weak in its low bits).
fn slot_of(hash: u64, mask: usize) -> usize {
    (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
}

/// One aggregate's per-group state, indexed by group id. Raw, partial and
/// merge folds all use it; only what is added differs (see
/// [`Aggregation::fold`]).
#[derive(Debug)]
enum Acc {
    Count(Vec<i64>),
    /// Wrapping sum and whether any non-null value arrived.
    SumInt(Vec<i64>, Vec<bool>),
    SumFloat(Vec<f64>, Vec<bool>),
    /// The row holding each group's least (`Less`) or greatest
    /// (`Greater`) non-null value so far in `Value::total_cmp` order, or
    /// [`NO_ROW`]. The first of equal values is kept.
    Best(Vec<u32>, Ordering),
    Mean(Vec<f64>, Vec<i64>),
    /// Distinct `Value::hash_code`s of the non-null values.
    Distinct(Vec<HashSet<u64>>),
}

impl Acc {
    /// Extend to `groups` groups with identity values.
    fn resize(&mut self, groups: usize) {
        match self {
            Acc::Count(n) => n.resize(groups, 0),
            Acc::SumInt(s, seen) => {
                s.resize(groups, 0);
                seen.resize(groups, false);
            }
            Acc::SumFloat(s, seen) => {
                s.resize(groups, 0.0);
                seen.resize(groups, false);
            }
            Acc::Best(rows, _) => rows.resize(groups, NO_ROW),
            Acc::Mean(s, n) => {
                s.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            Acc::Distinct(sets) => sets.resize_with(groups, HashSet::new),
        }
    }
}

/// One aggregate of an [`Aggregation`]: where its input lives and its state.
#[derive(Debug)]
struct Slot {
    /// The input column; in merge mode, the first state column.
    input: usize,
    acc: Acc,
    /// Set when the input column's type cannot be folded (a sum or mean
    /// over a non-numeric column): the fold fails at its first non-null
    /// value with this error. An all-null column folds without error.
    type_error: Option<DataError>,
}

/// A grouped aggregation over one table, fed row ranges in order.
#[derive(Debug)]
pub struct Aggregation {
    mode: AggMode,
    key_idx: Vec<usize>,
    slots: Vec<Slot>,
    groups: Groups,
    out_schema: Schema,
}

impl Aggregation {
    /// Bind `group_by` and `aggs` against `schema`, the schema of the table
    /// to be folded: the input schema for [`AggMode::Raw`] and
    /// [`AggMode::Partial`], the [`partial_schema`] for [`AggMode::Merge`]
    /// (whose keys and states are found by position). `out_schema` is the
    /// schema of the output table.
    pub fn new(
        mode: AggMode,
        schema: &Schema,
        group_by: &[String],
        aggs: &[AggExpr],
        out_schema: &Schema,
    ) -> Result<Self> {
        let key_idx = match mode {
            AggMode::Merge => (0..group_by.len()).collect(),
            _ => group_by
                .iter()
                .map(|g| schema.index_of(g))
                .collect::<std::result::Result<Vec<_>, _>>()?,
        };
        let mut state_col = group_by.len();
        let mut slots = Vec::with_capacity(aggs.len());
        for a in aggs {
            let input = match mode {
                AggMode::Merge => state_col,
                _ => schema.index_of(&a.column)?,
            };
            state_col += if a.func == AggFunc::Mean { 2 } else { 1 };
            let ty = schema
                .fields()
                .get(input)
                .ok_or(DataError::ColumnIndexOutOfBounds {
                    index: input,
                    width: schema.len(),
                })?
                .data_type;
            let numeric = matches!(ty, DataType::Int | DataType::Float);
            let mismatch = |expected: DataType| DataError::TypeMismatch {
                expected: expected.name().to_owned(),
                found: ty.name().to_owned(),
            };
            let (acc, type_error) = match (a.func, mode) {
                (AggFunc::Count, AggMode::Merge) if ty != DataType::Int => {
                    (Acc::Count(Vec::new()), Some(mismatch(DataType::Int)))
                }
                (AggFunc::Count, _) => (Acc::Count(Vec::new()), None),
                (AggFunc::Sum, _) if ty == DataType::Int => {
                    (Acc::SumInt(Vec::new(), Vec::new()), None)
                }
                (AggFunc::Sum, _) => (
                    Acc::SumFloat(Vec::new(), Vec::new()),
                    (ty != DataType::Float).then(|| mismatch(DataType::Float)),
                ),
                (AggFunc::Min, _) => (Acc::Best(Vec::new(), Ordering::Less), None),
                (AggFunc::Max, _) => (Acc::Best(Vec::new(), Ordering::Greater), None),
                (AggFunc::Mean, _) => (
                    Acc::Mean(Vec::new(), Vec::new()),
                    (!numeric).then(|| mismatch(DataType::Float)),
                ),
                (AggFunc::CountDistinct, AggMode::Raw) => (Acc::Distinct(Vec::new()), None),
                (AggFunc::CountDistinct, _) => {
                    return Err(FlowError::Plan(
                        "partial aggregation does not support count_distinct".to_owned(),
                    ))
                }
            };
            slots.push(Slot {
                input,
                acc,
                type_error,
            });
        }
        Ok(Aggregation {
            mode,
            key_idx,
            slots,
            groups: Groups::default(),
            out_schema: out_schema.clone(),
        })
    }

    /// Aggregate the whole of `t` in one pass.
    pub fn run(
        mode: AggMode,
        t: &Table,
        group_by: &[String],
        aggs: &[AggExpr],
        out_schema: &Schema,
    ) -> Result<Table> {
        let mut agg = Aggregation::new(mode, t.schema(), group_by, aggs, out_schema)?;
        agg.fold(t, 0, t.num_rows())?;
        agg.finish(t)
    }

    /// Fold rows `lo..hi` of `t`. Every call on one aggregation must pass
    /// the same table, since groups remember rows of it, and ranges must
    /// come in ascending order for the fold order to be the row order.
    ///
    /// Raw and partial folds skip null inputs: `count` adds 1, `sum`,
    /// `min`, `max` and `mean` take the value, `count_distinct` its hash
    /// code. A merge adds partial counts and sums, compares partial minima
    /// and maxima, and adds a mean's sum and count pair.
    pub fn fold(&mut self, t: &Table, lo: usize, hi: usize) -> Result<()> {
        let cols = t.columns();
        self.check_types(cols, lo, hi)?;
        let keys: Vec<&Column> = self.key_idx.iter().map(|&k| &cols[k]).collect();
        let ids = self.groups.assign(&keys, lo, hi);
        let groups = self.groups.first.len();
        let merge = self.mode == AggMode::Merge;
        for slot in &mut self.slots {
            slot.acc.resize(groups);
            if slot.type_error.is_some() {
                continue;
            }
            let col = &cols[slot.input];
            let valid = col.validity();
            let rows = (lo..hi).zip(ids.iter().map(|&g| g as usize));
            let rows = rows.filter(|&(i, _)| valid.null_count() == 0 || valid.get(i));
            match &mut slot.acc {
                Acc::Count(n) if merge => {
                    let (data, _) = col.as_ints()?;
                    rows.for_each(|(i, g)| n[g] += data[i]);
                }
                Acc::Count(n) => rows.for_each(|(_, g)| n[g] += 1),
                Acc::SumInt(s, seen) => {
                    let (data, _) = col.as_ints()?;
                    rows.for_each(|(i, g)| {
                        s[g] = s[g].wrapping_add(data[i]);
                        seen[g] = true;
                    });
                }
                Acc::SumFloat(s, seen) => {
                    let (data, _) = col.as_floats()?;
                    rows.for_each(|(i, g)| {
                        s[g] += data[i];
                        seen[g] = true;
                    });
                }
                Acc::Best(best, keep) => rows.for_each(|(i, g)| {
                    if best[g] == NO_ROW || col.cmp_rows(i, best[g] as usize) == *keep {
                        best[g] = i as u32;
                    }
                }),
                Acc::Mean(s, n) => {
                    let counts = if merge {
                        Some(cols[slot.input + 1].as_ints()?.0)
                    } else {
                        None
                    };
                    let mut add = |i: usize, g: usize, x: f64| {
                        s[g] += x;
                        n[g] += counts.map_or(1, |c| c[i]);
                    };
                    match col {
                        Column::Float { data, .. } => rows.for_each(|(i, g)| add(i, g, data[i])),
                        Column::Int { data, .. } => {
                            rows.for_each(|(i, g)| add(i, g, data[i] as f64))
                        }
                        _ => unreachable!("a non-numeric mean input has a type error"),
                    }
                }
                Acc::Distinct(sets) => {
                    let codes = column_hash_codes(&col.slice(lo, hi)?);
                    rows.for_each(|(i, g)| {
                        sets[g].insert(codes[i - lo]);
                    });
                }
            }
        }
        Ok(())
    }

    /// The first row of `lo..hi` where an aggregate over an unfoldable
    /// column meets a non-null value fails the fold, naming the first such
    /// aggregate in that row.
    fn check_types(&self, cols: &[Column], lo: usize, hi: usize) -> Result<()> {
        let first_bad = self
            .slots
            .iter()
            .filter_map(|s| {
                let err = s.type_error.as_ref()?;
                let valid = cols[s.input].validity();
                (lo..hi).find(|&i| valid.get(i)).map(|row| (row, err))
            })
            .min_by_key(|&(row, _)| row);
        match first_bad {
            Some((_, err)) => Err(FlowError::Data(err.clone())),
            None => Ok(()),
        }
    }

    /// The aggregated table. Final modes sort groups by key and, for a
    /// global aggregate over no rows, emit one identity row (count 0,
    /// every other aggregate null); a partial output keeps first-occurrence
    /// order and is empty for empty input.
    pub fn finish(mut self, t: &Table) -> Result<Table> {
        let cols = t.columns();
        let first = &self.groups.first;
        let identity = self.mode != AggMode::Partial && first.is_empty() && self.key_idx.is_empty();
        // The group id of each output row.
        let mut ids: Vec<usize> = (0..first.len().max(identity as usize)).collect();
        if self.mode != AggMode::Partial {
            ids.sort_unstable_by(|&a, &b| {
                self.key_idx
                    .iter()
                    .map(|&k| cols[k].cmp_rows(first[a] as usize, first[b] as usize))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
        }
        let key_rows: Vec<u32> = if identity {
            Vec::new()
        } else {
            ids.iter().map(|&g| first[g]).collect()
        };
        let mut columns: Vec<Column> = self
            .key_idx
            .iter()
            .map(|&k| cols[k].take_sel(&key_rows))
            .collect();
        let partial = self.mode == AggMode::Partial;
        for slot in &mut self.slots {
            slot.acc.resize(ids.len());
            let pick = |v: &[i64]| -> Vec<i64> { ids.iter().map(|&g| v[g]).collect() };
            match &slot.acc {
                Acc::Count(n) => columns.push(Column::from_ints(pick(n))),
                Acc::SumInt(s, seen) => columns.push(Column::Int {
                    data: pick(s).into(),
                    validity: validity(ids.iter().map(|&g| seen[g])),
                }),
                Acc::SumFloat(s, seen) => columns.push(Column::Float {
                    data: ids.iter().map(|&g| s[g]).collect(),
                    validity: validity(ids.iter().map(|&g| seen[g])),
                }),
                Acc::Best(best, _) => columns.push(gather_or_null(
                    &cols[slot.input],
                    ids.iter().map(|&g| best[g]),
                )?),
                Acc::Mean(s, n) if partial => {
                    columns.push(Column::from_floats(ids.iter().map(|&g| s[g]).collect()));
                    columns.push(Column::from_ints(pick(n)));
                }
                Acc::Mean(s, n) => columns.push(Column::Float {
                    data: ids
                        .iter()
                        .map(|&g| if n[g] == 0 { 0.0 } else { s[g] / n[g] as f64 })
                        .collect(),
                    validity: validity(ids.iter().map(|&g| n[g] != 0)),
                }),
                Acc::Distinct(sets) => columns.push(Column::from_ints(
                    ids.iter().map(|&g| sets[g].len() as i64).collect(),
                )),
            }
        }
        Ok(Table::new(self.out_schema, columns)?)
    }
}

fn validity(valid: impl Iterator<Item = bool>) -> Validity {
    let mut v = Validity::new();
    valid.for_each(|b| v.push(b));
    v
}

/// The values of `col` at `rows`, null where the row is [`NO_ROW`].
fn gather_or_null(col: &Column, rows: impl Iterator<Item = u32>) -> Result<Column> {
    let rows: Vec<u32> = rows.collect();
    if rows.iter().all(|&r| r != NO_ROW) {
        return Ok(col.take_sel(&rows));
    }
    let mut out = Column::with_capacity(col.data_type(), rows.len());
    for &r in &rows {
        if r == NO_ROW {
            out.push_null();
        } else {
            out.push(&col.value(r as usize)?)?;
        }
    }
    Ok(out)
}
