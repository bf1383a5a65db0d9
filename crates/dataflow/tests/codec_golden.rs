//! Golden bytes for the lane codec and the shuffle hash.
//!
//! Checkpoint wave files and pager page files hold rows in the lane codec,
//! and shuffle routing depends on `column_hash_codes`. Files written by an
//! earlier build must stay readable, and a resumed run must route rows
//! where the first attempt did, so the bytes are pinned against
//! `fixtures/codec_golden.bin`, which was encoded before the in-memory
//! column layout moved to shared buffers. The fixture is:
//!
//! - `encode_table` of [`golden_table`] (the checkpoint stream),
//! - then `encode_lane` of each column in order (the pager extents),
//! - then `column_hash_codes` of each column, every code as a `u64` LE.

use bytes::{BufMut, BytesMut};

use toreador_data::prelude::*;
use toreador_dataflow::codec::{decode_table, encode_lane, encode_table, lanes};
use toreador_dataflow::shuffle::column_hash_codes;

const FIXTURE: &[u8] = include_bytes!("fixtures/codec_golden.bin");

/// A fixed table of every column type, with nulls in every column, empty
/// and multi-byte strings, and rows that cross a 64-bit validity word.
fn golden_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("b", DataType::Bool),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("t", DataType::Timestamp),
    ])
    .unwrap();
    let words = ["", "a", "view", "purchase", "ünïcødé", "  ", "x\0y"];
    let floats = [0.0, -0.0, 1.5, 3.0, -2.25, 1e300, f64::MIN_POSITIVE];
    let rows = (0..70i64).map(|r| {
        let null = |k: i64| (r + k) % 9 == 0;
        let pick = |v: Value, k: i64| if null(k) { Value::Null } else { v };
        vec![
            pick(Value::Bool(r % 3 == 1), 0),
            pick(Value::Int(r * 7919 - 200_000), 1),
            pick(
                Value::Float(floats[r as usize % floats.len()] * r as f64),
                2,
            ),
            pick(
                Value::Str(words[r as usize % words.len()].repeat(1 + r as usize % 3)),
                3,
            ),
            pick(Value::Timestamp(1_500_000_000_000 + r * 60_000), 4),
        ]
    });
    Table::from_rows(schema, rows).unwrap()
}

fn golden_bytes(t: &Table) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_table(t, &mut buf);
    for lane in lanes(t) {
        encode_lane(&lane, t.num_rows(), &mut buf);
    }
    for col in t.columns() {
        for code in column_hash_codes(col) {
            buf.put_u64_le(code);
        }
    }
    buf.as_slice().to_vec()
}

#[test]
fn encoding_matches_the_fixture_byte_for_byte() {
    assert_eq!(golden_bytes(&golden_table()), FIXTURE);
}

#[test]
fn a_table_assembled_from_slices_encodes_identically() {
    let t = golden_table();
    let n = t.num_rows();
    for cut in [0, 1, 33, 64, 65, n] {
        let parts = [t.slice(0, cut).unwrap(), t.slice(cut, n).unwrap()];
        let joined = Table::concat(&parts).unwrap();
        assert_eq!(golden_bytes(&joined), FIXTURE, "cut at {cut}");
    }
}

#[test]
fn the_checkpoint_stream_decodes_back_to_the_table() {
    let t = golden_table();
    let mut buf = BytesMut::new();
    encode_table(&t, &mut buf);
    let stream = buf.freeze();
    assert!(FIXTURE.starts_with(&stream));
    let back = decode_table(t.schema(), t.num_rows(), stream).unwrap();
    assert_eq!(back, t);
}
