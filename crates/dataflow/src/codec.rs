//! The shared partition codec: tagged values, lane-based rows, CRC framing.
//!
//! Three subsystems persist or move partitioned rows as bytes — the shuffle
//! ([`crate::shuffle`]), stage-boundary checkpointing ([`crate::checkpoint`])
//! and the out-of-core pager ([`crate::pager`]). They must stay
//! byte-identical: a checkpointed wave and a spilled run are the same rows
//! through the same encoder, and the regression tests below pin that down.
//! This module is the single definition of
//!
//! - the **tagged value codec** (`[tag u8][payload]`, one tag per
//!   [`Value`] variant, null as a bare tag),
//! - the **row codec** (`[width u16 LE][cell]*`), with a lane-based fast
//!   path ([`encode_row_at`]/[`encode_cell`]) that writes straight out of
//!   the native columns without materialising `Value`s,
//! - the **table codec** ([`encode_table`]/[`decode_table`]) — the
//!   checkpoint wire format for one partition,
//! - **CRC32 (IEEE)** and the `[len u32 LE][crc32 u32 LE][payload]` frame
//!   used by wave files and page files alike, and
//! - the **atomic publish discipline** ([`write_atomic`]/[`sync_dir`]):
//!   temp-write + fsync + rename + directory fsync, as in `toreador-store`.
//!
//! Framing and I/O helpers return plain error payloads (`FrameError`,
//! message strings) so each caller can keep its own error vocabulary —
//! checkpointing maps them to [`FlowError::Checkpoint`], the pager to its
//! spill errors — without this module depending on either.

use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use toreador_data::buffer::StrBuffer;
use toreador_data::column::{Column, Validity};
use toreador_data::error::DataError;
use toreador_data::schema::{Field, Schema};
use toreador_data::table::Table;
use toreador_data::value::{DataType, Row, Value};

use crate::error::{FlowError, Result};

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_BOOL: u8 = 1;
pub(crate) const TAG_INT: u8 = 2;
pub(crate) const TAG_FLOAT: u8 = 3;
pub(crate) const TAG_STR: u8 = 4;
pub(crate) const TAG_TS: u8 = 5;

/// Append one value to the buffer.
pub fn encode_value(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Float(x) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Timestamp(t) => {
            buf.put_u8(TAG_TS);
            buf.put_i64_le(*t);
        }
    }
}

/// One tagged cell, its string borrowed from the encoded bytes.
enum Cell<'b> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'b str),
    Ts(i64),
}

impl Cell<'_> {
    fn data_type(&self) -> Option<DataType> {
        match self {
            Cell::Null => None,
            Cell::Bool(_) => Some(DataType::Bool),
            Cell::Int(_) => Some(DataType::Int),
            Cell::Float(_) => Some(DataType::Float),
            Cell::Str(_) => Some(DataType::Str),
            Cell::Ts(_) => Some(DataType::Timestamp),
        }
    }

    fn into_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Float(x) => Value::Float(x),
            Cell::Str(s) => Value::Str(s.to_owned()),
            Cell::Ts(t) => Value::Timestamp(t),
        }
    }
}

fn truncated() -> FlowError {
    FlowError::Codec("truncated shuffle payload".to_owned())
}

/// The next `n` bytes at `*pos`, advancing past them.
fn take<'b>(bytes: &'b [u8], pos: &mut usize, n: usize) -> Result<&'b [u8]> {
    let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
    let end = end.ok_or_else(truncated)?;
    let out = &bytes[*pos..end];
    *pos = end;
    Ok(out)
}

fn take_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    Ok(take(bytes, pos, N)?.try_into().expect("took N bytes"))
}

/// Decode the tagged cell at `*pos` and advance past it. The one reader
/// of the value format: row, table and lane decoding all go through it.
fn read_cell<'b>(bytes: &'b [u8], pos: &mut usize) -> Result<Cell<'b>> {
    let [tag] = take_array(bytes, pos)?;
    Ok(match tag {
        TAG_NULL => Cell::Null,
        TAG_BOOL => Cell::Bool(take_array::<1>(bytes, pos)?[0] != 0),
        TAG_INT => Cell::Int(i64::from_le_bytes(take_array(bytes, pos)?)),
        TAG_FLOAT => Cell::Float(f64::from_le_bytes(take_array(bytes, pos)?)),
        TAG_STR => {
            let len = u32::from_le_bytes(take_array(bytes, pos)?) as usize;
            let raw = take(bytes, pos, len)?;
            Cell::Str(
                std::str::from_utf8(raw)
                    .map_err(|_| FlowError::Codec("invalid utf8 in shuffle payload".to_owned()))?,
            )
        }
        TAG_TS => Cell::Ts(i64::from_le_bytes(take_array(bytes, pos)?)),
        other => return Err(FlowError::Codec(format!("unknown value tag {other}"))),
    })
}

/// Decode one tagged value off the front of `buf`.
pub fn decode_value(buf: &mut Bytes) -> Result<Value> {
    let mut pos = 0;
    let value = read_cell(buf, &mut pos)?.into_value();
    buf.advance(pos);
    Ok(value)
}

/// Encode a row (width-prefixed).
pub fn encode_row(row: &Row, buf: &mut BytesMut) {
    buf.put_u16_le(row.len() as u16);
    for v in row {
        encode_value(v, buf);
    }
}

/// Decode one row.
pub fn decode_row(buf: &mut Bytes) -> Result<Row> {
    let mut pos = 0;
    let width = u16::from_le_bytes(take_array(buf, &mut pos)?) as usize;
    let mut row = Vec::with_capacity(width);
    for _ in 0..width {
        row.push(read_cell(buf, &mut pos)?.into_value());
    }
    buf.advance(pos);
    Ok(row)
}

/// A borrowed typed view of one column, for encoding rows (or whole lanes)
/// straight out of the native columns without building `Value`s.
pub enum Lane<'a> {
    Bool(&'a [bool], &'a Validity),
    Int(&'a [i64], &'a Validity),
    Float(&'a [f64], &'a Validity),
    Str(&'a StrBuffer, &'a Validity),
    Ts(&'a [i64], &'a Validity),
}

/// Borrow every column of `t` as a [`Lane`].
pub fn lanes(t: &Table) -> Vec<Lane<'_>> {
    t.columns()
        .iter()
        .map(|c| match c {
            Column::Bool { data, validity } => Lane::Bool(data, validity),
            Column::Int { data, validity } => Lane::Int(data, validity),
            Column::Float { data, validity } => Lane::Float(data, validity),
            Column::Str { data, validity } => Lane::Str(data, validity),
            Column::Timestamp { data, validity } => Lane::Ts(data, validity),
        })
        .collect()
}

/// Encode cell `i` of one lane — exactly the bytes [`encode_value`] writes
/// for the materialised value (null validity encodes as the null tag). This
/// is the unit both the row codec and the pager's per-lane extents are
/// built from, which is what keeps the two byte-identical by construction.
pub fn encode_cell(lane: &Lane<'_>, i: usize, buf: &mut BytesMut) {
    match lane {
        Lane::Bool(data, validity) => {
            if validity.get(i) {
                buf.put_u8(TAG_BOOL);
                buf.put_u8(data[i] as u8);
            } else {
                buf.put_u8(TAG_NULL);
            }
        }
        Lane::Int(data, validity) => {
            if validity.get(i) {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(data[i]);
            } else {
                buf.put_u8(TAG_NULL);
            }
        }
        Lane::Float(data, validity) => {
            if validity.get(i) {
                buf.put_u8(TAG_FLOAT);
                buf.put_f64_le(data[i]);
            } else {
                buf.put_u8(TAG_NULL);
            }
        }
        Lane::Str(data, validity) => {
            if validity.get(i) {
                let s = data.get(i);
                buf.put_u8(TAG_STR);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            } else {
                buf.put_u8(TAG_NULL);
            }
        }
        Lane::Ts(data, validity) => {
            if validity.get(i) {
                buf.put_u8(TAG_TS);
                buf.put_i64_le(data[i]);
            } else {
                buf.put_u8(TAG_NULL);
            }
        }
    }
}

/// Encode row `i` of a table (width-prefixed), producing exactly the same
/// bytes as [`encode_row`] on the materialised row.
pub fn encode_row_at(lanes: &[Lane<'_>], i: usize, buf: &mut BytesMut) {
    buf.put_u16_le(lanes.len() as u16);
    for lane in lanes {
        encode_cell(lane, i, buf);
    }
}

/// Encode every row of a table through the lane codec, producing exactly
/// the bytes [`encode_row`] would for the materialised rows. This is the
/// checkpoint wire format: a wave partition persists as its row count plus
/// this byte stream.
pub fn encode_table(t: &Table, buf: &mut BytesMut) {
    let lanes = lanes(t);
    for i in 0..t.num_rows() {
        encode_row_at(&lanes, i, buf);
    }
}

/// Decode `count` rows of `schema` back into a table, rejecting trailing
/// bytes — the inverse of [`encode_table`].
pub fn decode_table(schema: &Schema, count: usize, bytes: Bytes) -> Result<Table> {
    decode_rows(schema, count, &bytes, "table")
}

/// Why a decoded cell cannot go into its column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reject {
    /// A null in a non-nullable field.
    Null,
    /// A value of this type, which the field's type does not take.
    Type(DataType),
}

impl Reject {
    /// The error [`TableBuilder::push_row`] gives for this cell, so a
    /// columnar decode fails exactly as a row-at-a-time one does.
    ///
    /// [`TableBuilder::push_row`]: toreador_data::table::TableBuilder::push_row
    pub(crate) fn error(self, field: &Field) -> FlowError {
        FlowError::Data(match self {
            Reject::Null => {
                DataError::Invalid(format!("null in non-nullable column {:?}", field.name))
            }
            Reject::Type(found) => DataError::TypeMismatch {
                expected: field.data_type.name().to_owned(),
                found: found.name().to_owned(),
            },
        })
    }
}

/// The native values of one column under construction.
enum Values<'b> {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<&'b str>),
    Ts(Vec<i64>),
}

/// Builds one field's column from decoded cells, applying the coercion
/// [`Value::coerce`] allows (an Int cell widens into a Float column).
struct ColumnDecoder<'b> {
    nullable: bool,
    values: Values<'b>,
    validity: Validity,
}

impl<'b> ColumnDecoder<'b> {
    fn new(field: &Field, rows: usize) -> Self {
        let values = match field.data_type {
            DataType::Bool => Values::Bool(Vec::with_capacity(rows)),
            DataType::Int => Values::Int(Vec::with_capacity(rows)),
            DataType::Float => Values::Float(Vec::with_capacity(rows)),
            DataType::Str => Values::Str(Vec::with_capacity(rows)),
            DataType::Timestamp => Values::Ts(Vec::with_capacity(rows)),
        };
        ColumnDecoder {
            nullable: field.nullable,
            values,
            validity: Validity::new(),
        }
    }

    /// Append `cell`, or a null slot and the reason it does not fit.
    fn push(&mut self, cell: Cell<'b>) -> Option<Reject> {
        match (&mut self.values, cell) {
            (Values::Bool(v), Cell::Bool(b)) => v.push(b),
            (Values::Int(v), Cell::Int(i)) | (Values::Ts(v), Cell::Ts(i)) => v.push(i),
            (Values::Float(v), Cell::Float(x)) => v.push(x),
            (Values::Float(v), Cell::Int(i)) => v.push(i as f64),
            (Values::Str(v), Cell::Str(s)) => v.push(s),
            (values, other) => {
                match values {
                    Values::Bool(v) => v.push(false),
                    Values::Int(v) | Values::Ts(v) => v.push(0),
                    Values::Float(v) => v.push(0.0),
                    Values::Str(v) => v.push(""),
                }
                self.validity.push(false);
                return match other.data_type() {
                    None => (!self.nullable).then_some(Reject::Null),
                    Some(found) => Some(Reject::Type(found)),
                };
            }
        }
        self.validity.push(true);
        None
    }

    fn finish(self) -> Column {
        let validity = self.validity;
        match self.values {
            Values::Bool(v) => Column::Bool {
                data: v.into(),
                validity,
            },
            Values::Int(v) => Column::Int {
                data: v.into(),
                validity,
            },
            Values::Float(v) => Column::Float {
                data: v.into(),
                validity,
            },
            Values::Str(v) => Column::Str {
                data: v.into_iter().collect(),
                validity,
            },
            Values::Ts(v) => Column::Timestamp {
                data: v.into(),
                validity,
            },
        }
    }
}

/// Decode `count` width-prefixed rows of `schema` straight into typed
/// columns and reject trailing bytes (`what` names the stream in that
/// error). It fails exactly where decoding each row and pushing it through
/// a [`toreador_data::table::TableBuilder`] fails: a row's codec errors
/// first, then a width mismatch, then its first null in a non-nullable
/// field, then its first cell that does not coerce.
pub(crate) fn decode_rows(
    schema: &Schema,
    count: usize,
    bytes: &[u8],
    what: &str,
) -> Result<Table> {
    let fields = schema.fields();
    let mut columns: Vec<ColumnDecoder<'_>> = fields
        .iter()
        .map(|f| ColumnDecoder::new(f, count))
        .collect();
    let mut pos = 0;
    for _ in 0..count {
        let width = u16::from_le_bytes(take_array(bytes, &mut pos)?) as usize;
        if width != fields.len() {
            for _ in 0..width {
                read_cell(bytes, &mut pos)?;
            }
            return Err(FlowError::Data(DataError::LengthMismatch {
                expected: fields.len(),
                found: width,
            }));
        }
        let mut null_at = None;
        let mut type_at = None;
        for (c, column) in columns.iter_mut().enumerate() {
            match column.push(read_cell(bytes, &mut pos)?) {
                Some(Reject::Null) => null_at = null_at.or(Some((c, Reject::Null))),
                Some(reject) => type_at = type_at.or(Some((c, reject))),
                None => {}
            }
        }
        if let Some((c, reject)) = null_at.or(type_at) {
            return Err(reject.error(&fields[c]));
        }
    }
    if pos != bytes.len() {
        return Err(FlowError::Codec(format!(
            "trailing bytes after decoding {what}"
        )));
    }
    let columns = columns.into_iter().map(ColumnDecoder::finish).collect();
    Ok(Table::new(schema.clone(), columns)?)
}

/// Encode one whole lane (`rows` cells, in row order) — the pager's
/// per-lane extent payload. Cell `i` is byte-identical to what
/// [`encode_row_at`] writes for that column in row `i`.
pub fn encode_lane(lane: &Lane<'_>, rows: usize, buf: &mut BytesMut) {
    for i in 0..rows {
        encode_cell(lane, i, buf);
    }
}

/// Decode `rows` tagged cells of one lane extent — the inverse of
/// [`encode_lane`] — straight into a column of `field`, rejecting trailing
/// bytes for the same reason [`decode_table`] does: an extent is either
/// exactly its lane or corrupt. Codec errors return at once; a cell that
/// does not fit the field comes back as the first rejected row, because
/// the pager reports it only after every lane of the run has decoded.
pub(crate) fn decode_lane_column(
    field: &Field,
    rows: usize,
    bytes: &[u8],
) -> Result<(Column, Option<(usize, Reject)>)> {
    let mut column = ColumnDecoder::new(field, rows);
    let mut first = None;
    let mut pos = 0;
    for row in 0..rows {
        if let Some(reject) = column.push(read_cell(bytes, &mut pos)?) {
            first = first.or(Some((row, reject)));
        }
    }
    lane_end(bytes, pos)?;
    Ok((column.finish(), first))
}

/// Check the cells of a lane extent that has no field to decode into.
pub(crate) fn skip_lane(rows: usize, bytes: &[u8]) -> Result<()> {
    let mut pos = 0;
    for _ in 0..rows {
        read_cell(bytes, &mut pos)?;
    }
    lane_end(bytes, pos)
}

fn lane_end(bytes: &[u8], pos: usize) -> Result<()> {
    if pos != bytes.len() {
        return Err(FlowError::Codec(
            "trailing bytes after decoding lane".to_owned(),
        ));
    }
    Ok(())
}

/// Decode `rows` tagged cells of one lane extent as values: the reference
/// the columnar lane decoder is checked against.
#[cfg(test)]
pub(crate) fn decode_lane(rows: usize, bytes: Bytes) -> Result<Vec<Value>> {
    let mut pos = 0;
    let values = (0..rows)
        .map(|_| read_cell(&bytes, &mut pos).map(Cell::into_value))
        .collect::<Result<Vec<_>>>()?;
    lane_end(&bytes, pos)?;
    Ok(values)
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven. The store crate has its own copy: this codec
// predates the dataflow→store dependency (added for the streaming ack log)
// and keeps its own framing rather than round-tripping payloads through the
// store WAL.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// CRC framing: `[len u32 LE][crc32 u32 LE][payload]`.
// ---------------------------------------------------------------------------

/// Why a frame failed to parse. Callers map this into their own error
/// vocabulary; [`FrameError::describe`] is the wording both the wave-file
/// and page-file diagnostics embed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    TruncatedHeader,
    TruncatedPayload,
    CrcMismatch,
}

impl FrameError {
    pub fn describe(&self) -> &'static str {
        match self {
            FrameError::TruncatedHeader => "truncated frame header",
            FrameError::TruncatedPayload => "truncated frame payload",
            FrameError::CrcMismatch => "frame crc mismatch",
        }
    }
}

/// Append one CRC-framed record to `out`.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Pop one CRC-checked frame off the front of `bytes`.
pub fn take_frame<'a>(bytes: &mut &'a [u8]) -> std::result::Result<&'a [u8], FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::TruncatedHeader);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if bytes.len() < 8 + len {
        return Err(FrameError::TruncatedPayload);
    }
    let payload = &bytes[8..8 + len];
    if crc32(payload) != crc {
        return Err(FrameError::CrcMismatch);
    }
    *bytes = &bytes[8 + len..];
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Atomic publish (the store WAL conventions). Errors come back as the
// message string the checkpoint layer has always produced, so each caller
// wraps them in its own error variant without changing any diagnostics.
// ---------------------------------------------------------------------------

/// Best-effort POSIX directory fsync, as in `toreador-store`. Routed
/// through the [`toreador_store::io`] seam so disk chaos can intercept.
pub fn sync_dir(dir: &Path) {
    let _ = toreador_store::io::io_for(dir).sync_dir(dir);
}

/// Atomically publish `bytes` at `path`: temp-write + fsync + rename + dir
/// fsync. A reader never observes a torn file under its final name, and a
/// failure at any step removes the temp file — ENOSPC mid-publish leaves
/// no `.tmp` orphan behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::result::Result<(), String> {
    let io_err = |what: &str, p: &Path, e: std::io::Error| format!("{what} {}: {e}", p.display());
    let dir = path
        .parent()
        .ok_or_else(|| format!("no parent dir for {}", path.display()))?;
    let io = toreador_store::io::io_for(path);
    let tmp = path.with_extension("tmp");
    let f = io.create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    if let Err(e) = f.write_all_at(0, bytes) {
        let _ = io.remove_file(&tmp);
        return Err(io_err("write", &tmp, e));
    }
    if let Err(e) = f.sync_all() {
        let _ = io.remove_file(&tmp);
        return Err(io_err("fsync", &tmp, e));
    }
    if let Err(e) = io.rename(&tmp, path) {
        let _ = io.remove_file(&tmp);
        return Err(io_err("rename", path, e));
    }
    let _ = io.sync_dir(dir);
    Ok(())
}

/// Encoded rows and lanes every decoder must reject, each with the error
/// a row-at-a-time decode through `TableBuilder::push_row` gives for it.
/// The table, shuffle and spill read-back tests all run these.
#[cfg(test)]
pub(crate) mod rejects {
    use super::*;

    /// A nullable Str field before a required Int field, so a type error
    /// can sit in a column left of a null error.
    pub(crate) fn schema() -> Schema {
        Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::required("k", DataType::Int),
        ])
        .unwrap()
    }

    pub(crate) fn cells(values: &[Value]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for v in values {
            encode_value(v, &mut buf);
        }
        buf.as_slice().to_vec()
    }

    fn row(values: &[Value]) -> Vec<u8> {
        let mut out = (values.len() as u16).to_le_bytes().to_vec();
        out.extend(cells(values));
        out
    }

    fn s(v: &str) -> Value {
        Value::Str(v.to_owned())
    }

    fn codec(msg: &str) -> FlowError {
        FlowError::Codec(msg.to_owned())
    }

    fn truncated() -> FlowError {
        codec("truncated shuffle payload")
    }

    fn bad_utf8() -> FlowError {
        codec("invalid utf8 in shuffle payload")
    }

    fn null_k() -> FlowError {
        FlowError::Data(DataError::Invalid(
            "null in non-nullable column \"k\"".to_owned(),
        ))
    }

    fn mismatch(expected: &str, found: &str) -> FlowError {
        FlowError::Data(DataError::TypeMismatch {
            expected: expected.to_owned(),
            found: found.to_owned(),
        })
    }

    /// A Str cell whose bytes are not UTF-8.
    fn bad_str() -> Vec<u8> {
        let mut out = vec![TAG_STR];
        out.extend(2u32.to_le_bytes());
        out.extend([0xff, 0xfe]);
        out
    }

    /// `(case, rows, row stream, error)` for [`schema`]. A trailing-bytes
    /// error names its stream, so it is left to each decoder's own test.
    pub(crate) fn rows() -> Vec<(&'static str, usize, Vec<u8>, FlowError)> {
        let good = row(&[s("abc"), Value::Int(1)]);
        let with_tail = |tail: Vec<u8>| [good.clone(), tail].concat();
        let raw_row = |parts: &[Vec<u8>]| [2u16.to_le_bytes().to_vec(), parts.concat()].concat();
        vec![
            (
                "truncated payload",
                1,
                good[..good.len() - 1].to_vec(),
                truncated(),
            ),
            ("truncated width", 2, with_tail(vec![2]), truncated()),
            (
                "unknown tag",
                1,
                raw_row(&[cells(&[s("a")]), vec![99]]),
                codec("unknown value tag 99"),
            ),
            (
                "bad utf-8",
                1,
                raw_row(&[bad_str(), cells(&[Value::Int(1)])]),
                bad_utf8(),
            ),
            (
                "wrong row width",
                1,
                row(&[s("a"), Value::Int(1), Value::Int(2)]),
                FlowError::Data(DataError::LengthMismatch {
                    expected: 2,
                    found: 3,
                }),
            ),
            (
                "codec error inside a too-wide row",
                1,
                [
                    3u16.to_le_bytes().to_vec(),
                    cells(&[s("a"), Value::Int(1)]),
                    vec![99],
                ]
                .concat(),
                codec("unknown value tag 99"),
            ),
            (
                "null in a required column",
                1,
                row(&[s("a"), Value::Null]),
                null_k(),
            ),
            (
                "str cell in an int column",
                1,
                row(&[s("a"), s("b")]),
                mismatch("Int", "Str"),
            ),
            (
                "int cell in a str column",
                1,
                row(&[Value::Int(5), Value::Int(1)]),
                mismatch("Str", "Int"),
            ),
            (
                "null beats an earlier type error",
                1,
                row(&[Value::Int(5), Value::Null]),
                null_k(),
            ),
            (
                "codec error beats an earlier type error",
                1,
                raw_row(&[cells(&[Value::Int(5)]), vec![99]]),
                codec("unknown value tag 99"),
            ),
            (
                "error in the second row",
                2,
                with_tail(row(&[s("a"), s("b")])),
                mismatch("Int", "Str"),
            ),
        ]
    }

    /// A spilled run's case name, row count, lane extents and the rows
    /// (or error) its read-back gives.
    pub(crate) type LaneCase = (
        &'static str,
        usize,
        Vec<Vec<u8>>,
        std::result::Result<usize, FlowError>,
    );

    /// The [`LaneCase`]s for [`schema`].
    pub(crate) fn lanes() -> Vec<LaneCase> {
        let strs = cells(&[s("a"), s("")]);
        let ints = cells(&[Value::Int(1), Value::Int(2)]);
        vec![
            ("well formed", 2, vec![strs.clone(), ints.clone()], Ok(2)),
            (
                "truncated payload",
                2,
                vec![strs[..strs.len() - 1].to_vec(), ints.clone()],
                Err(truncated()),
            ),
            (
                "unknown tag",
                2,
                vec![strs.clone(), [cells(&[Value::Int(1)]), vec![99]].concat()],
                Err(codec("unknown value tag 99")),
            ),
            (
                "bad utf-8",
                2,
                vec![[bad_str(), cells(&[s("b")])].concat(), ints.clone()],
                Err(bad_utf8()),
            ),
            (
                "trailing bytes in a lane",
                2,
                vec![strs.clone(), [ints.clone(), vec![0]].concat()],
                Err(codec("trailing bytes after decoding lane")),
            ),
            (
                "wrong row width",
                2,
                vec![strs.clone(), ints.clone(), ints.clone()],
                Err(FlowError::Data(DataError::LengthMismatch {
                    expected: 2,
                    found: 3,
                })),
            ),
            (
                "codec error in a lane past the schema",
                2,
                vec![strs.clone(), ints.clone(), vec![99]],
                Err(codec("unknown value tag 99")),
            ),
            (
                "wrong width of no rows",
                0,
                vec![vec![], vec![], vec![]],
                Ok(0),
            ),
            (
                "null in a required column",
                2,
                vec![strs.clone(), cells(&[Value::Int(1), Value::Null])],
                Err(null_k()),
            ),
            (
                "str cell in an int column",
                2,
                vec![strs.clone(), cells(&[s("x"), Value::Int(2)])],
                Err(mismatch("Int", "Str")),
            ),
            (
                "null beats a type error in the same row",
                2,
                vec![
                    cells(&[Value::Int(5), s("b")]),
                    cells(&[Value::Null, Value::Int(2)]),
                ],
                Err(null_k()),
            ),
            (
                "an earlier row wins over a later null",
                2,
                vec![
                    cells(&[Value::Int(5), s("b")]),
                    cells(&[Value::Int(1), Value::Null]),
                ],
                Err(mismatch("Str", "Int")),
            ),
            (
                "a codec error in a later lane beats a type error",
                2,
                vec![
                    cells(&[Value::Int(5), s("b")]),
                    [cells(&[Value::Int(1)]), vec![99]].concat(),
                ],
                Err(codec("unknown value tag 99")),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use toreador_data::generate::random_table;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_detect_damage() {
        let mut out = Vec::new();
        push_frame(&mut out, b"alpha");
        push_frame(&mut out, b"");
        push_frame(&mut out, b"omega");
        let mut rest = out.as_slice();
        assert_eq!(take_frame(&mut rest).unwrap(), b"alpha");
        assert_eq!(take_frame(&mut rest).unwrap(), b"");
        assert_eq!(take_frame(&mut rest).unwrap(), b"omega");
        assert_eq!(take_frame(&mut rest), Err(FrameError::TruncatedHeader));
        // Flip one payload byte: CRC mismatch.
        let mut bad = out.clone();
        bad[8] ^= 0xFF;
        assert_eq!(
            take_frame(&mut bad.as_slice()),
            Err(FrameError::CrcMismatch)
        );
        // Truncate mid-payload.
        let short = &out[..10];
        assert_eq!(
            take_frame(&mut { short }),
            Err(FrameError::TruncatedPayload)
        );
    }

    /// The regression the factoring exists for: the cell codec used by the
    /// pager's per-lane extents produces exactly the bytes the row codec —
    /// and therefore the checkpoint wire format — produces for the same
    /// cells. Row `i` of `encode_table` is the 2-byte width prefix followed
    /// by the lanes' cell encodings in column order.
    #[test]
    fn lane_cells_are_byte_identical_to_the_row_codec() {
        let t = random_table(120, 5, 31);
        let lanes = lanes(&t);
        for (i, row) in t.iter_rows().enumerate() {
            let mut by_row = BytesMut::new();
            encode_row(&row, &mut by_row);
            let mut by_cells = BytesMut::new();
            by_cells.put_u16_le(lanes.len() as u16);
            for lane in &lanes {
                encode_cell(lane, i, &mut by_cells);
            }
            assert_eq!(by_row.freeze(), by_cells.freeze(), "row {i}");
        }
        // And the whole-table form: lane extents re-interleaved by row are
        // the checkpoint stream.
        let mut by_table = BytesMut::new();
        encode_table(&t, &mut by_table);
        let extents: Vec<Bytes> = lanes
            .iter()
            .map(|l| {
                let mut b = BytesMut::new();
                encode_lane(l, t.num_rows(), &mut b);
                b.freeze()
            })
            .collect();
        let mut interleaved = BytesMut::new();
        let mut cursors: Vec<Bytes> = extents.clone();
        for _ in 0..t.num_rows() {
            interleaved.put_u16_le(lanes.len() as u16);
            for c in cursors.iter_mut() {
                let v = decode_value(c).unwrap();
                encode_value(&v, &mut interleaved);
            }
        }
        assert_eq!(by_table.freeze(), interleaved.freeze());
    }

    #[test]
    fn lane_extents_round_trip_and_reject_trailing_bytes() {
        let t = random_table(90, 4, 13);
        for (lane, col) in lanes(&t).iter().zip(t.columns()) {
            let mut buf = BytesMut::new();
            encode_lane(lane, t.num_rows(), &mut buf);
            let bytes = buf.freeze();
            let vals = decode_lane(t.num_rows(), bytes.clone()).unwrap();
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(format!("{v:?}"), format!("{:?}", col.value(i).unwrap()));
            }
            assert!(decode_lane(t.num_rows() - 1, bytes.clone()).is_err());
            assert!(decode_lane(t.num_rows() + 1, bytes).is_err());
        }
    }

    #[test]
    fn decode_table_rejects_what_a_row_decode_rejects() {
        let schema = rejects::schema();
        for (case, rows, bytes, err) in rejects::rows() {
            assert_eq!(
                decode_table(&schema, rows, Bytes::from(bytes)),
                Err(err),
                "{case}"
            );
        }
        let mut good = BytesMut::new();
        encode_row(&vec![Value::Str("abc".into()), Value::Int(1)], &mut good);
        let good = good.freeze();
        assert_eq!(
            decode_table(&schema, 1, good.clone()).unwrap().num_rows(),
            1
        );
        let tail = Bytes::from([&good[..], &[0]].concat());
        assert_eq!(
            decode_table(&schema, 1, tail),
            Err(FlowError::Codec(
                "trailing bytes after decoding table".to_owned()
            ))
        );
    }

    #[test]
    fn columnar_lane_decode_matches_the_value_decode() {
        let t = random_table(90, 4, 13);
        for ((lane, col), field) in lanes(&t).iter().zip(t.columns()).zip(t.schema().fields()) {
            let mut buf = BytesMut::new();
            encode_lane(lane, t.num_rows(), &mut buf);
            let (decoded, reject) =
                decode_lane_column(field, t.num_rows(), buf.as_slice()).unwrap();
            assert_eq!(reject, None);
            assert_eq!(&decoded, col);
            let values = decode_lane(t.num_rows(), buf.freeze()).unwrap();
            assert_eq!(decoded.iter_values().collect::<Vec<_>>(), values);
        }
    }

    #[test]
    fn write_atomic_publishes_and_never_leaves_a_tmp() {
        let dir = std::env::temp_dir().join(format!("toreador-codec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        write_atomic(&path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        assert!(!path.with_extension("tmp").exists());
        // Re-publish overwrites atomically.
        write_atomic(&path, b"payload2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload2");
        let _ = fs::remove_dir_all(&dir);
    }
}
