//! Views ≡ owned copies.
//!
//! A slice of a table shares its parent's buffers at some offset, while a
//! table rebuilt from the same values owns buffers that start at 0. Every
//! column and table operation must give the same answer on both, including
//! the shuffle hash and the lane codec that checkpoints and page files are
//! written with. Inputs carry nulls and empty strings, and the windows
//! start at offsets that are not 64-bit-word aligned and may be empty.

use bytes::BytesMut;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use toreador_data::prelude::*;
use toreador_dataflow::codec::{encode_lane, encode_table, lanes};
use toreador_dataflow::shuffle::column_hash_codes;

/// How many property cases to run. The vendored proptest does not read
/// `PROPTEST_CASES`, so this suite honours it by hand; CI pins it.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
}

/// A table of every column type. `null_pct` of the cells are null and
/// strings are often empty.
fn table(rows: usize, null_pct: u32, seed: u64) -> Table {
    let schema = Schema::new(vec![
        Field::new("b", DataType::Bool),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("t", DataType::Timestamp),
    ])
    .unwrap();
    let words = ["", "", "a", "bc", "view", "ünï", "purchase"];
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Row> = (0..rows)
        .map(|_| {
            (0..5)
                .map(|c| {
                    if rng.gen_range(0..100) < null_pct {
                        return Value::Null;
                    }
                    match c {
                        0 => Value::Bool(rng.gen()),
                        1 => Value::Int(rng.gen_range(-50..50)),
                        2 => Value::Float(rng.gen_range(-8..8) as f64 * 0.5),
                        3 => Value::Str(words[rng.gen_range(0..words.len())].to_owned()),
                        _ => Value::Timestamp(rng.gen_range(0..1_000)),
                    }
                })
                .collect()
        })
        .collect();
    Table::from_rows(schema, rows).unwrap()
}

/// A table that owns fresh buffers holding `t`'s values, built one value
/// at a time (no slice, concat or extend on the way).
fn owned(t: &Table) -> Table {
    Table::from_rows(t.schema().clone(), t.iter_rows()).unwrap()
}

fn owned_column(c: &Column) -> Column {
    Column::from_values(c.data_type(), &c.iter_values().collect::<Vec<_>>()).unwrap()
}

/// A window `start..end` of `rows` rows drawn from two raw numbers; about
/// one window in eight is empty.
fn window(rows: usize, a: usize, b: usize) -> (usize, usize) {
    let start = a % (rows + 1);
    let end = if b % 8 == 0 {
        start
    } else {
        start + b % (rows - start + 1)
    };
    (start, end)
}

/// `Table::approx_bytes` as it was defined over owned `Vec<String>` lanes:
/// 1 byte per bool, 8 per number, `len + 24` per string slot (a null slot
/// holds the empty string).
fn owned_layout_bytes(t: &Table) -> usize {
    t.columns()
        .iter()
        .map(|c| match c.data_type() {
            DataType::Bool => c.len(),
            DataType::Str => c
                .iter_values()
                .map(|v| v.as_str().map_or(0, str::len) + 24)
                .sum(),
            _ => c.len() * 8,
        })
        .sum()
}

fn encoded(t: &Table) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_table(t, &mut buf);
    for lane in lanes(t) {
        encode_lane(&lane, t.num_rows(), &mut buf);
    }
    buf.as_slice().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    #[test]
    fn every_op_agrees_on_a_view_and_its_owned_copy(
        rows in 0usize..200,
        null_pct in 0u32..60,
        seed in any::<u64>(),
        (a, b) in (any::<usize>(), any::<usize>()),
        (c, d) in (any::<usize>(), any::<usize>()),
    ) {
        let parent = table(rows, null_pct, seed);
        let (start, end) = window(rows, a, b);
        let view = parent.slice(start, end).unwrap();
        let copy = owned(&view);
        prop_assert_eq!(&view, &copy);
        let n = view.num_rows();
        prop_assert_eq!(n, end - start);
        prop_assert_eq!(view.approx_bytes(), copy.approx_bytes());
        prop_assert_eq!(copy.approx_bytes(), owned_layout_bytes(&copy));
        prop_assert_eq!(parent.approx_bytes(), owned_layout_bytes(&parent));

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let indices: Vec<usize> = if n == 0 {
            Vec::new()
        } else {
            (0..rng.gen_range(0..2 * n)).map(|_| rng.gen_range(0..n)).collect()
        };
        let sel: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        let mask: Vec<bool> = (0..n).map(|_| rng.gen()).collect();

        for (vc, oc) in view.columns().iter().zip(copy.columns()) {
            for i in 0..n {
                prop_assert_eq!(vc.value(i).unwrap(), oc.value(i).unwrap());
            }
            prop_assert!(vc.value(n).is_err());
            prop_assert_eq!(vc.iter_values().collect::<Vec<_>>(), oc.iter_values().collect::<Vec<_>>());
            prop_assert_eq!(vc.null_count(), oc.null_count());
            prop_assert_eq!(vc.take(&indices).unwrap(), oc.take(&indices).unwrap());
            prop_assert_eq!(vc.take_sel(&sel), oc.take_sel(&sel));
            prop_assert_eq!(vc.filter(&mask).unwrap(), oc.filter(&mask).unwrap());
            prop_assert_eq!(vc.sum_f64().ok(), oc.sum_f64().ok());
            prop_assert_eq!(vc.min(), oc.min());
            prop_assert_eq!(vc.max(), oc.max());
            prop_assert_eq!(column_hash_codes(vc), column_hash_codes(oc));
            // Views of views.
            let (s2, e2) = window(n, c, d);
            prop_assert_eq!(vc.slice(s2, e2).unwrap(), oc.slice(s2, e2).unwrap());
            prop_assert_eq!(vc.copy_range(s2, e2).unwrap(), oc.slice(s2, e2).unwrap());
        }
        prop_assert_eq!(encoded(&view), encoded(&copy));
        for key in ["b", "i", "f", "s", "t"] {
            for desc in [false, true] {
                prop_assert_eq!(view.sort_by(&[key], desc).unwrap(), copy.sort_by(&[key], desc).unwrap());
            }
        }

        // Appending: a view onto itself, onto the window right after it in
        // the same buffers, and onto an unrelated window.
        let (s2, e2) = window(rows, c, d);
        let other = parent.slice(s2, e2).unwrap();
        let next = parent.slice(end, rows).unwrap();
        for tail in [&view, &next, &other] {
            let tail_copy = owned(tail);
            let joined = Table::concat(&[view.clone(), tail.clone()]).unwrap();
            let expect = Table::concat(&[copy.clone(), tail_copy.clone()]).unwrap();
            prop_assert_eq!(&joined, &expect);
            prop_assert_eq!(&joined, &owned(&joined));
            prop_assert_eq!(encoded(&joined), encoded(&expect));
            for ((vc, oc), tc) in view.columns().iter().zip(copy.columns()).zip(tail.columns()) {
                let mut grown = vc.clone();
                grown.extend_from(tc).unwrap();
                let mut grown_copy = oc.clone();
                grown_copy.extend_from(tc).unwrap();
                prop_assert_eq!(&grown, &grown_copy);
                prop_assert_eq!(&grown, &owned_column(&grown));
                prop_assert_eq!(column_hash_codes(&grown), column_hash_codes(&grown_copy));
            }
        }
        prop_assert_eq!(&parent, &owned(&parent));
        prop_assert_eq!(&view, &copy);
    }

    #[test]
    fn sorted_indices_on_a_view_match_a_value_reference_order(
        rows in 0usize..200,
        null_pct in 0u32..60,
        seed in any::<u64>(),
        (a, b) in (any::<usize>(), any::<usize>()),
        keys in proptest::collection::vec(0usize..5, 1..4),
        desc in any::<bool>(),
    ) {
        // Floats here include -0.0, 0.0 and NaN, so the lane compare must
        // keep `Value::total_cmp`'s float order, not `==`.
        let parent = with_special_floats(&table(rows, null_pct, seed), seed);
        let (start, end) = window(rows, a, b);
        let view = parent.slice(start, end).unwrap();
        let names = ["b", "i", "f", "s", "t"];
        let key_names: Vec<&str> = keys.iter().map(|&k| names[k]).collect();
        let mut expect: Vec<usize> = (0..view.num_rows()).collect();
        expect.sort_by(|&x, &y| {
            let ord = key_names
                .iter()
                .map(|k| {
                    let c = view.column(k).unwrap();
                    c.value(x).unwrap().total_cmp(&c.value(y).unwrap())
                })
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal);
            if desc { ord.reverse() } else { ord }
        });
        prop_assert_eq!(view.sorted_indices(&key_names, desc).unwrap(), expect);
    }

    #[test]
    fn a_push_onto_a_shared_column_leaves_other_holders_unchanged(
        rows in 0usize..150,
        null_pct in 0u32..60,
        seed in any::<u64>(),
        (a, b) in (any::<usize>(), any::<usize>()),
        push_null in any::<bool>(),
    ) {
        let parent = table(rows, null_pct, seed);
        let before = owned(&parent);
        let (start, end) = window(rows, a, b);
        let view = parent.slice(start, end).unwrap();
        let view_before = owned(&view);
        let values = [
            Value::Bool(true),
            Value::Int(7),
            Value::Float(2.5),
            Value::Str("pushed".into()),
            Value::Timestamp(9),
        ];
        for (k, v) in values.iter().enumerate() {
            // A second holder of the parent's buffers, and of the view's.
            for holder in [parent.column_at(k).unwrap(), view.column_at(k).unwrap()] {
                let mut grown = holder.clone();
                let pushed = if push_null { Value::Null } else { v.clone() };
                grown.push(&pushed).unwrap();
                prop_assert_eq!(grown.len(), holder.len() + 1);
                prop_assert_eq!(grown.value(holder.len()).unwrap(), pushed);
                for i in 0..holder.len() {
                    prop_assert_eq!(grown.value(i).unwrap(), holder.value(i).unwrap());
                }
            }
        }
        prop_assert_eq!(&parent, &before);
        prop_assert_eq!(&view, &view_before);
        prop_assert_eq!(encoded(&parent), encoded(&before));

        // A view that outlives every other holder is extended in place
        // (its buffers are unshared) and must still lose the rows past its
        // window.
        let prefix_before = owned(&parent.slice(0, end).unwrap());
        let mut prefix: Vec<Column> = parent
            .slice(0, end)
            .unwrap()
            .columns()
            .to_vec();
        drop((parent, view));
        for (col, v) in prefix.iter_mut().zip(&values) {
            col.push(v).unwrap();
        }
        for ((col, v), expect) in prefix.iter().zip(&values).zip(prefix_before.columns()) {
            let mut expect = expect.clone();
            expect.push(v).unwrap();
            prop_assert_eq!(col, &expect);
            prop_assert_eq!(col, &owned_column(col));
        }
    }
}

/// `t` with its Float column redrawn from values whose order `==` gets
/// wrong: both zeros, NaN, infinities, and the odd null.
fn with_special_floats(t: &Table, seed: u64) -> Table {
    let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf10a7);
    let floats: Vec<Value> = (0..t.num_rows())
        .map(|_| match rng.gen_range(0..8) {
            0 => Value::Null,
            k if k <= specials.len() => Value::Float(specials[k - 1]),
            _ => Value::Float(rng.gen_range(-4..4) as f64),
        })
        .collect();
    let mut columns = t.columns().to_vec();
    columns[2] = Column::from_values(DataType::Float, &floats).unwrap();
    Table::new(t.schema().clone(), columns).unwrap()
}
