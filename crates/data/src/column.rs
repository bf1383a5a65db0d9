//! Typed columnar storage over shared, immutable buffers.
//!
//! A [`Column`] stores one attribute of a table as a window onto a shared
//! [`Buffer`] of the native type (strings: one [`StrBuffer`] of offsets plus
//! UTF-8 bytes), with a validity bitmap of its own. Scans stay cache
//! friendly (the Rust Performance Book's "use contiguous collections"
//! advice), and because the buffers are reference counted, cloning a
//! column, slicing it, or splitting a table into partitions bumps a count
//! instead of copying values. Dropping a table frees a handful of buffers,
//! not one allocation per string.
//!
//! Mutation is copy-on-write: [`Column::push`] and [`Column::extend_from`]
//! extend a buffer in place only when no one else holds it and the column's
//! window starts at its front; otherwise they copy the visible rows first.
//! Every other operation that produces new rows (`take`, `filter`,
//! `copy_range`) writes fresh buffers sized to its result. The row-oriented
//! [`crate::value::Value`] path is reserved for expression evaluation and
//! shuffles.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::buffer::{Buffer, StrBuffer};
use crate::error::{DataError, Result};
use crate::value::{DataType, Value};

/// Validity bitmap: `true` means the slot holds a value, `false` means null.
///
/// Stored as packed 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
    null_count: usize,
}

impl Validity {
    pub fn new() -> Self {
        Validity {
            words: Vec::new(),
            len: 0,
            null_count: 0,
        }
    }

    /// A bitmap of `len` slots, all valid.
    pub fn all_valid(len: usize) -> Self {
        let mut v = Validity {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
            null_count: 0,
        };
        v.mask_tail();
        v
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn null_count(&self) -> usize {
        self.null_count
    }

    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        let bit = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << bit;
        } else {
            self.null_count += 1;
        }
        self.len += 1;
    }

    pub fn get(&self, index: usize) -> bool {
        debug_assert!(index < self.len);
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Borrow the packed 64-bit words (bit `i % 64` of word `i / 64` is set
    /// when slot `i` is valid; tail bits past `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Append the bits of `other`, a word at a time. Word-aligned
    /// destinations splice whole words; unaligned ones shift each source
    /// word across the destination's open word and the next.
    pub fn extend_from(&mut self, other: &Validity) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                *self.words.last_mut().expect("unaligned means non-empty") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
            // The last pushed word may hold only the source's zero tail.
            self.words.truncate((self.len + other.len).div_ceil(64));
        }
        self.len += other.len;
        self.null_count += other.null_count;
    }

    /// The bits of `start..end` as a new bitmap. All-valid sources take a
    /// constant-time path; otherwise bits shift over word-by-word.
    pub fn slice_range(&self, start: usize, end: usize) -> Validity {
        debug_assert!(start <= end && end <= self.len);
        let m = end - start;
        if self.null_count == 0 {
            return Validity::all_valid(m);
        }
        let shift = start % 64;
        let first = start / 64;
        let words: Vec<u64> = (0..m.div_ceil(64))
            .map(|w| {
                let lo = self.words.get(first + w).copied().unwrap_or(0) >> shift;
                let hi = if shift == 0 {
                    0
                } else {
                    self.words.get(first + w + 1).copied().unwrap_or(0) << (64 - shift)
                };
                lo | hi
            })
            .collect();
        Validity::from_words(words, m)
    }

    /// Build a bitmap from packed words. Tail bits past `len` are masked
    /// off and the null count is recomputed from the bits.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        let mut v = Validity {
            words,
            len,
            null_count: 0,
        };
        v.words.resize(len.div_ceil(64), 0);
        v.words.truncate(len.div_ceil(64));
        v.mask_tail();
        let ones: usize = v.words.iter().map(|w| w.count_ones() as usize).sum();
        v.null_count = len - ones;
        v
    }

    /// Word-wise intersection: valid where both inputs are valid. The null
    /// propagation step of every binary batch kernel.
    pub fn and(&self, other: &Validity) -> Validity {
        debug_assert_eq!(self.len, other.len);
        if self.null_count == 0 {
            return other.clone();
        }
        if other.null_count == 0 {
            return self.clone();
        }
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Validity::from_words(words, self.len)
    }
}

impl Default for Validity {
    fn default() -> Self {
        Self::new()
    }
}

/// A typed column of values with a validity bitmap.
///
/// The values live in shared [`Buffer`]s (strings in one [`StrBuffer`]), so
/// cloning or slicing a column never copies values. The null slots of the
/// data buffers hold an arbitrary default; consumers must consult the
/// bitmap (or use [`Column::value`], which does).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    Bool {
        data: Buffer<bool>,
        validity: Validity,
    },
    Int {
        data: Buffer<i64>,
        validity: Validity,
    },
    Float {
        data: Buffer<f64>,
        validity: Validity,
    },
    Str {
        data: StrBuffer,
        validity: Validity,
    },
    Timestamp {
        data: Buffer<i64>,
        validity: Validity,
    },
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(ty: DataType) -> Self {
        Column::with_capacity(ty, 0)
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        let validity = Validity::new();
        match ty {
            DataType::Bool => Column::Bool {
                data: Buffer::with_capacity(cap),
                validity,
            },
            DataType::Int => Column::Int {
                data: Buffer::with_capacity(cap),
                validity,
            },
            DataType::Float => Column::Float {
                data: Buffer::with_capacity(cap),
                validity,
            },
            DataType::Str => Column::Str {
                data: StrBuffer::with_capacity(cap),
                validity,
            },
            DataType::Timestamp => Column::Timestamp {
                data: Buffer::with_capacity(cap),
                validity,
            },
        }
    }

    /// Build a column of type `ty` from values, coercing each one.
    pub fn from_values(ty: DataType, values: &[Value]) -> Result<Self> {
        let mut col = Column::with_capacity(ty, values.len());
        for v in values {
            col.push(v)?;
        }
        Ok(col)
    }

    /// Convenience constructors from native vectors (all-valid).
    pub fn from_ints(data: Vec<i64>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Int {
            data: data.into(),
            validity,
        }
    }

    pub fn from_floats(data: Vec<f64>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Float {
            data: data.into(),
            validity,
        }
    }

    pub fn from_bools(data: Vec<bool>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Bool {
            data: data.into(),
            validity,
        }
    }

    pub fn from_strs<S: AsRef<str>>(data: Vec<S>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Str {
            data: data.iter().collect(),
            validity,
        }
    }

    pub fn from_timestamps(data: Vec<i64>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Timestamp {
            data: data.into(),
            validity,
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool { .. } => DataType::Bool,
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Str { .. } => DataType::Str,
            Column::Timestamp { .. } => DataType::Timestamp,
        }
    }

    pub fn len(&self) -> usize {
        self.validity().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn null_count(&self) -> usize {
        self.validity().null_count()
    }

    pub fn validity(&self) -> &Validity {
        match self {
            Column::Bool { validity, .. }
            | Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Str { validity, .. }
            | Column::Timestamp { validity, .. } => validity,
        }
    }

    /// Append a value, coercing to the column type; `Null` appends a null.
    /// Copies the column's buffers first when they are shared.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        match self {
            Column::Bool { data, validity } => {
                data.push(value.as_bool()?);
                validity.push(true);
            }
            Column::Int { data, validity } => {
                data.push(value.as_int()?);
                validity.push(true);
            }
            Column::Float { data, validity } => {
                data.push(value.as_float()?);
                validity.push(true);
            }
            Column::Str { data, validity } => {
                data.push(value.as_str()?);
                validity.push(true);
            }
            Column::Timestamp { data, validity } => {
                data.push(value.as_timestamp()?);
                validity.push(true);
            }
        }
        Ok(())
    }

    /// Append a null slot.
    pub fn push_null(&mut self) {
        match self {
            Column::Bool { data, validity } => {
                data.push(false);
                validity.push(false);
            }
            Column::Int { data, validity } | Column::Timestamp { data, validity } => {
                data.push(0);
                validity.push(false);
            }
            Column::Float { data, validity } => {
                data.push(0.0);
                validity.push(false);
            }
            Column::Str { data, validity } => {
                data.push("");
                validity.push(false);
            }
        }
    }

    /// The value at `index` (checked).
    pub fn value(&self, index: usize) -> Result<Value> {
        if index >= self.len() {
            return Err(DataError::RowIndexOutOfBounds {
                index,
                len: self.len(),
            });
        }
        if !self.validity().get(index) {
            return Ok(Value::Null);
        }
        Ok(match self {
            Column::Bool { data, .. } => Value::Bool(data[index]),
            Column::Int { data, .. } => Value::Int(data[index]),
            Column::Float { data, .. } => Value::Float(data[index]),
            Column::Str { data, .. } => Value::Str(data[index].to_owned()),
            Column::Timestamp { data, .. } => Value::Timestamp(data[index]),
        })
    }

    /// Iterate the column as `Value`s (nulls included).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i).expect("index in range"))
    }

    /// Compare rows `a` and `b` in [`Value::total_cmp`] order, reading the
    /// native lanes: null first, Float by `f64::total_cmp` (`-0.0 < 0.0`,
    /// NaN after every other float), strings by bytes. Panics when either
    /// row is out of range.
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        let validity = self.validity();
        match (validity.get(a), validity.get(b)) {
            (false, false) => return Ordering::Equal,
            (false, true) => return Ordering::Less,
            (true, false) => return Ordering::Greater,
            (true, true) => {}
        }
        match self {
            Column::Bool { data, .. } => data[a].cmp(&data[b]),
            Column::Int { data, .. } | Column::Timestamp { data, .. } => data[a].cmp(&data[b]),
            Column::Float { data, .. } => data[a].total_cmp(&data[b]),
            Column::Str { data, .. } => data.get(a).cmp(data.get(b)),
        }
    }

    /// Gather the rows at `indices` into a new column (typed fast path, no
    /// per-row `Value` materialization).
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.len()) {
            return Err(DataError::RowIndexOutOfBounds {
                index: bad,
                len: self.len(),
            });
        }
        Ok(self.gather(indices.iter().copied()))
    }

    /// Gather by a selection vector (bounds checked in debug builds only —
    /// callers produce selections from this column's own row range).
    pub fn take_sel(&self, sel: &[u32]) -> Column {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.len()));
        self.gather(sel.iter().map(|&i| i as usize))
    }

    /// The rows at `indices`, copied into fresh buffers sized to them.
    fn gather(&self, indices: impl Iterator<Item = usize> + Clone) -> Column {
        let pick_validity = |validity: &Validity| {
            if validity.null_count() == 0 {
                Validity::all_valid(indices.clone().count())
            } else {
                let mut v = Validity::new();
                for i in indices.clone() {
                    v.push(validity.get(i));
                }
                v
            }
        };
        fn pick<T: Copy>(data: &[T], indices: impl Iterator<Item = usize>) -> Buffer<T> {
            indices.map(|i| data[i]).collect()
        }
        match self {
            Column::Bool { data, validity } => Column::Bool {
                validity: pick_validity(validity),
                data: pick(data, indices),
            },
            Column::Int { data, validity } => Column::Int {
                validity: pick_validity(validity),
                data: pick(data, indices),
            },
            Column::Float { data, validity } => Column::Float {
                validity: pick_validity(validity),
                data: pick(data, indices),
            },
            Column::Str { data, validity } => Column::Str {
                validity: pick_validity(validity),
                data: data.gather(indices),
            },
            Column::Timestamp { data, validity } => Column::Timestamp {
                validity: pick_validity(validity),
                data: pick(data, indices),
            },
        }
    }

    /// Keep rows where `mask[i]` is true. `mask.len()` must equal `len()`.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(DataError::LengthMismatch {
                expected: self.len(),
                found: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect();
        Ok(self.gather(indices.iter().copied()))
    }

    /// A view of rows `start..end`: it shares this column's value buffers
    /// (no value is copied) and keeps them alive as long as it lives. Only
    /// the validity bits are copied, word by word.
    pub fn slice(&self, start: usize, end: usize) -> Result<Column> {
        if end > self.len() || start > end {
            return Err(DataError::RowIndexOutOfBounds {
                index: end,
                len: self.len(),
            });
        }
        let validity = self.validity().slice_range(start, end);
        Ok(match self {
            Column::Bool { data, .. } => Column::Bool {
                data: data.slice(start, end),
                validity,
            },
            Column::Int { data, .. } => Column::Int {
                data: data.slice(start, end),
                validity,
            },
            Column::Float { data, .. } => Column::Float {
                data: data.slice(start, end),
                validity,
            },
            Column::Str { data, .. } => Column::Str {
                data: data.slice(start, end),
                validity,
            },
            Column::Timestamp { data, .. } => Column::Timestamp {
                data: data.slice(start, end),
                validity,
            },
        })
    }

    /// Rows `start..end` copied into fresh buffers sized to them, so the
    /// result keeps none of this column's buffers alive.
    pub fn copy_range(&self, start: usize, end: usize) -> Result<Column> {
        let mut out = Column::with_capacity(self.data_type(), end.saturating_sub(start));
        out.extend_from(&self.slice(start, end)?)?;
        Ok(out)
    }

    /// Append all rows of `other` (same type required). Bulk lane copies —
    /// no per-row `Value` round trip, so concatenating many chunks (the
    /// morsel pipeline's reassembly step) costs a memcpy per lane. When
    /// `other` is the window right after this one in the same buffer (a
    /// split being collected back), the window widens and nothing is
    /// copied.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        use Column::*;
        match (&mut *self, other) {
            (
                Bool { data, validity },
                Bool {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.append(od);
                validity.extend_from(ov);
            }
            (
                Int { data, validity },
                Int {
                    data: od,
                    validity: ov,
                },
            )
            | (
                Timestamp { data, validity },
                Timestamp {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.append(od);
                validity.extend_from(ov);
            }
            (
                Float { data, validity },
                Float {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.append(od);
                validity.extend_from(ov);
            }
            (
                Str { data, validity },
                Str {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.append(od);
                validity.extend_from(ov);
            }
            _ => {
                return Err(DataError::TypeMismatch {
                    expected: self.data_type().name().to_owned(),
                    found: other.data_type().name().to_owned(),
                })
            }
        }
        Ok(())
    }

    /// Rough footprint of this column's own rows in bytes: 1 per bool, 8
    /// per number, and `len + 24` per string (the size of the owned
    /// `String` each one used to be). A view counts only its rows, never
    /// the rest of the buffer it shares.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Column::Bool { data, .. } => data.len(),
            Column::Int { data, .. } | Column::Timestamp { data, .. } => data.len() * 8,
            Column::Float { data, .. } => data.len() * 8,
            Column::Str { data, .. } => data.value_bytes() + data.len() * 24,
        }
    }

    /// Bytes of the whole value buffers this column keeps alive. A view
    /// retains its parent's full buffers, so this can exceed what its own
    /// rows need; the validity bitmap is not counted.
    pub fn retained_bytes(&self) -> usize {
        match self {
            Column::Bool { data, .. } => data.retained_bytes(),
            Column::Int { data, .. } | Column::Timestamp { data, .. } => data.retained_bytes(),
            Column::Float { data, .. } => data.retained_bytes(),
            Column::Str { data, .. } => data.retained_bytes(),
        }
    }
    /// Sum of a numeric column, skipping nulls. Errors on non-numeric.
    pub fn sum_f64(&self) -> Result<f64> {
        match self {
            Column::Int { data, validity } => Ok(data
                .iter()
                .enumerate()
                .filter(|(i, _)| validity.get(*i))
                .map(|(_, &v)| v as f64)
                .sum()),
            Column::Float { data, validity } => Ok(data
                .iter()
                .enumerate()
                .filter(|(i, _)| validity.get(*i))
                .map(|(_, &v)| v)
                .sum()),
            other => Err(DataError::TypeMismatch {
                expected: "numeric".to_owned(),
                found: other.data_type().name().to_owned(),
            }),
        }
    }

    /// Minimum non-null value, or `Value::Null` on an all-null/empty column.
    pub fn min(&self) -> Value {
        self.iter_values()
            .filter(|v| !v.is_null())
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)
    }

    /// Maximum non-null value, or `Value::Null` on an all-null/empty column.
    pub fn max(&self) -> Value {
        self.iter_values()
            .filter(|v| !v.is_null())
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)
    }

    /// Borrow the raw float data (and validity) when this is a Float column.
    pub fn as_floats(&self) -> Result<(&[f64], &Validity)> {
        match self {
            Column::Float { data, validity } => Ok((data.as_slice(), validity)),
            other => Err(DataError::TypeMismatch {
                expected: "Float".to_owned(),
                found: other.data_type().name().to_owned(),
            }),
        }
    }

    /// Borrow the raw int data (and validity) when this is an Int column.
    pub fn as_ints(&self) -> Result<(&[i64], &Validity)> {
        match self {
            Column::Int { data, validity } => Ok((data.as_slice(), validity)),
            other => Err(DataError::TypeMismatch {
                expected: "Int".to_owned(),
                found: other.data_type().name().to_owned(),
            }),
        }
    }

    /// Borrow the raw string data (and validity) when this is a Str column.
    pub fn as_strs(&self) -> Result<(&StrBuffer, &Validity)> {
        match self {
            Column::Str { data, validity } => Ok((data, validity)),
            other => Err(DataError::TypeMismatch {
                expected: "Str".to_owned(),
                found: other.data_type().name().to_owned(),
            }),
        }
    }

    /// Borrow the raw bool data (and validity) when this is a Bool column.
    pub fn as_bools(&self) -> Result<(&[bool], &Validity)> {
        match self {
            Column::Bool { data, validity } => Ok((data.as_slice(), validity)),
            other => Err(DataError::TypeMismatch {
                expected: "Bool".to_owned(),
                found: other.data_type().name().to_owned(),
            }),
        }
    }

    /// Borrow the raw timestamp data (and validity) when this is a
    /// Timestamp column.
    pub fn as_timestamps(&self) -> Result<(&[i64], &Validity)> {
        match self {
            Column::Timestamp { data, validity } => Ok((data.as_slice(), validity)),
            other => Err(DataError::TypeMismatch {
                expected: "Timestamp".to_owned(),
                found: other.data_type().name().to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_packs_bits() {
        let mut v = Validity::new();
        for i in 0..130 {
            v.push(i % 3 != 0);
        }
        assert_eq!(v.len(), 130);
        assert!(!v.get(0));
        assert!(v.get(1));
        assert_eq!(!v.get(129), 129 % 3 == 0);
        assert_eq!(v.null_count(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn all_valid_masks_tail() {
        let v = Validity::all_valid(70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.null_count(), 0);
        assert!(v.get(69));
    }

    #[test]
    fn push_and_read_with_nulls() {
        let mut c = Column::empty(DataType::Int);
        c.push(&Value::Int(1)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0).unwrap(), Value::Int(1));
        assert_eq!(c.value(1).unwrap(), Value::Null);
        assert!(c.value(3).is_err());
    }

    #[test]
    fn push_rejects_wrong_type() {
        let mut c = Column::empty(DataType::Int);
        assert!(c.push(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn float_column_accepts_ints() {
        let mut c = Column::empty(DataType::Float);
        c.push(&Value::Int(2)).unwrap();
        assert_eq!(c.value(0).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn take_filter_slice() {
        let c = Column::from_ints(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0]).unwrap();
        assert_eq!(t.value(0).unwrap(), Value::Int(40));
        assert_eq!(t.value(1).unwrap(), Value::Int(10));
        let f = c.filter(&[true, false, true, false]).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(1).unwrap(), Value::Int(30));
        let s = c.slice(1, 3).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.value(0).unwrap(), Value::Int(20));
        assert!(c.filter(&[true]).is_err());
        assert!(c.slice(2, 9).is_err());
    }

    #[test]
    fn aggregates_skip_nulls() {
        let c = Column::from_values(
            DataType::Float,
            &[Value::Float(1.0), Value::Null, Value::Float(3.0)],
        )
        .unwrap();
        assert_eq!(c.sum_f64().unwrap(), 4.0);
        assert_eq!(c.min(), Value::Float(1.0));
        assert_eq!(c.max(), Value::Float(3.0));
    }

    #[test]
    fn aggregates_on_empty_and_all_null() {
        let c = Column::empty(DataType::Int);
        assert_eq!(c.min(), Value::Null);
        let c = Column::from_values(DataType::Int, &[Value::Null, Value::Null]).unwrap();
        assert_eq!(c.max(), Value::Null);
        assert_eq!(c.sum_f64().unwrap(), 0.0);
    }

    #[test]
    fn sum_rejects_strings() {
        let c = Column::from_strs(vec!["a", "b"]);
        assert!(c.sum_f64().is_err());
    }

    #[test]
    fn extend_from_same_type_only() {
        let mut a = Column::from_ints(vec![1]);
        a.extend_from(&Column::from_ints(vec![2, 3])).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.extend_from(&Column::from_strs(vec!["x"])).is_err());
    }

    #[test]
    fn validity_word_views_round_trip() {
        let mut v = Validity::new();
        for i in 0..100 {
            v.push(i % 7 != 0);
        }
        let rebuilt = Validity::from_words(v.words().to_vec(), v.len());
        assert_eq!(rebuilt, v);
        // from_words masks garbage tail bits and recounts nulls.
        let noisy = Validity::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(noisy.len(), 70);
        assert_eq!(noisy.null_count(), 0);
        assert_eq!(noisy.words()[1], (1u64 << 6) - 1);
    }

    #[test]
    fn validity_and_intersects() {
        let mut a = Validity::new();
        let mut b = Validity::new();
        for i in 0..130 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        let c = a.and(&b);
        for i in 0..130 {
            assert_eq!(c.get(i), i % 6 == 0, "slot {i}");
        }
        let all = Validity::all_valid(130);
        assert_eq!(a.and(&all), a);
        assert_eq!(all.and(&b), b);
    }

    #[test]
    fn extend_from_preserves_values_and_nulls() {
        let vals = |range: std::ops::Range<i64>| -> Vec<Value> {
            range
                .map(|i| {
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    }
                })
                .collect()
        };
        // Word-aligned (64 rows) and unaligned (67 rows) destinations both
        // splice correctly.
        for first in [64usize, 67] {
            let mut c = Column::from_values(DataType::Int, &vals(0..first as i64)).unwrap();
            let tail = vals(1000..1100);
            c.extend_from(&Column::from_values(DataType::Int, &tail).unwrap())
                .unwrap();
            assert_eq!(c.len(), first + 100);
            for (i, v) in vals(0..first as i64).iter().chain(tail.iter()).enumerate() {
                assert_eq!(&c.value(i).unwrap(), v, "row {i} (first {first})");
            }
            assert_eq!(
                c.validity().null_count(),
                vals(0..first as i64)
                    .iter()
                    .chain(tail.iter())
                    .filter(|v| v.is_null())
                    .count()
            );
        }
    }

    #[test]
    fn slice_matches_gather_at_every_offset() {
        // Contiguous slices cross word boundaries at every shift; each one
        // must agree bit-for-bit with the per-row gather it replaced.
        let values: Vec<Value> = (0..200)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                }
            })
            .collect();
        let c = Column::from_values(DataType::Int, &values).unwrap();
        for (start, end) in [
            (0, 200),
            (0, 0),
            (63, 64),
            (1, 199),
            (64, 128),
            (70, 135),
            (199, 200),
        ] {
            let fast = c.slice(start, end).unwrap();
            let indices: Vec<usize> = (start..end).collect();
            let slow = c.take(&indices).unwrap();
            assert_eq!(fast, slow, "range {start}..{end}");
            assert_eq!(fast.validity().null_count(), slow.validity().null_count());
        }
        assert!(c.slice(100, 201).is_err());
        assert!(c.slice(5, 4).is_err());
    }

    #[test]
    fn take_sel_gathers_with_nulls() {
        let c = Column::from_values(
            DataType::Int,
            &[Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)],
        )
        .unwrap();
        let g = c.take_sel(&[3, 1, 0]);
        assert_eq!(g.value(0).unwrap(), Value::Int(40));
        assert_eq!(g.value(1).unwrap(), Value::Null);
        assert_eq!(g.value(2).unwrap(), Value::Int(10));
        // All-valid fast lane.
        let c = Column::from_strs(vec!["a", "b", "c"]);
        let g = c.take_sel(&[2, 2]);
        assert_eq!(g.value(0).unwrap(), Value::Str("c".into()));
        assert_eq!(g.null_count(), 0);
    }

    #[test]
    fn json_shape_is_the_owned_vec_shape_for_views_too() {
        let c = Column::from_values(
            DataType::Str,
            &[
                Value::Str("a".into()),
                Value::Null,
                Value::Str(String::new()),
            ],
        )
        .unwrap();
        let json =
            r#"{"Str":{"data":["a","",""],"validity":{"words":[5],"len":3,"null_count":1}}}"#;
        assert_eq!(serde_json::to_string(&c).unwrap(), json);
        let back: Column = serde_json::from_str(json).unwrap();
        assert_eq!(back, c);
        // A view serializes only its own rows.
        let wide = Column::from_values(DataType::Int, &[Value::Int(9), Value::Int(4), Value::Null])
            .unwrap();
        assert_eq!(
            serde_json::to_string(&wide.slice(1, 3).unwrap()).unwrap(),
            r#"{"Int":{"data":[4,0],"validity":{"words":[1],"len":2,"null_count":1}}}"#
        );
    }

    #[test]
    fn raw_accessors() {
        let c = Column::from_floats(vec![1.5, 2.5]);
        let (d, v) = c.as_floats().unwrap();
        assert_eq!(d, &[1.5, 2.5]);
        assert_eq!(v.null_count(), 0);
        assert!(c.as_ints().is_err());
        let c = Column::from_strs(vec!["a"]);
        assert_eq!(&c.as_strs().unwrap().0[0], "a");
    }
}
