//! The columnar group-by kernel ≡ the row-at-a-time aggregator.
//!
//! Random tables carry nulls, NaN, both float zeros and empty strings, and
//! group by zero to three key columns of every type. Every aggregate
//! function runs through the kernel directly (raw, partial in chunks of
//! any size, merge) and through the engine (partial aggregation on and
//! off, morsels of 1, 7 and 4096 rows, no memory budget and a tiny one).
//! Outputs are compared by their encoded bytes, so float sums must match
//! bit for bit and `0.0` must stay apart from `-0.0`.

mod support;

use bytes::BytesMut;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use toreador_data::prelude::*;
use toreador_dataflow::aggregate::{partial_schema, AggMode, Aggregation};
use toreador_dataflow::codec::encode_table;
use toreador_dataflow::prelude::*;

use support::aggregate_rows;

/// How many property cases to run. The vendored proptest does not read
/// `PROPTEST_CASES`, so this suite honours it by hand; CI pins it.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

const NAMES: [&str; 5] = ["b", "i", "f", "s", "t"];

/// One column of every type over small domains, so keys repeat. Floats
/// include both zeros, NaN and infinity; strings include the empty one.
fn table(rows: usize, null_pct: u32, rng: &mut StdRng) -> Table {
    let schema = Schema::new(vec![
        Field::new("b", DataType::Bool),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("t", DataType::Timestamp),
    ])
    .unwrap();
    let floats = [0.0, -0.0, f64::NAN, 1.5, -2.25, f64::INFINITY, 0.1, 3.0];
    let words = ["", "a", "bc", "ünï"];
    let rows: Vec<Row> = (0..rows)
        .map(|_| {
            (0..5)
                .map(|c| {
                    if rng.gen_range(0..100) < null_pct {
                        return Value::Null;
                    }
                    match c {
                        0 => Value::Bool(rng.gen()),
                        1 => Value::Int(rng.gen_range(-3..4)),
                        2 => Value::Float(floats[rng.gen_range(0..floats.len())]),
                        3 => Value::Str(words[rng.gen_range(0..words.len())].to_owned()),
                        _ => Value::Timestamp(rng.gen_range(0..4)),
                    }
                })
                .collect()
        })
        .collect();
    Table::from_rows(schema, rows).unwrap()
}

/// Zero to three distinct key columns, in random order.
fn keys(rng: &mut StdRng) -> Vec<String> {
    let mut keys: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..4) {
        let k = NAMES[rng.gen_range(0..5)].to_owned();
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// One to four aggregates over columns their function accepts: sum and
/// mean take the Int or Float column, the rest take any column.
fn aggs(rng: &mut StdRng, with_distinct: bool) -> Vec<AggExpr> {
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Mean,
        AggFunc::CountDistinct,
    ];
    let usable = if with_distinct { 6 } else { 5 };
    (0..rng.gen_range(1..5))
        .map(|n| {
            let func = funcs[rng.gen_range(0..usable)];
            let column = match func {
                AggFunc::Sum | AggFunc::Mean => ["i", "f"][rng.gen_range(0..2)],
                _ => NAMES[rng.gen_range(0..5)],
            };
            AggExpr::new(func, column, format!("a{n}"))
        })
        .collect()
}

fn out_schema(input: &Schema, group_by: &[String], aggs: &[AggExpr]) -> Schema {
    let refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
    let flow = Dataflow::scan("t", input.clone())
        .aggregate(&refs, aggs.to_vec())
        .unwrap();
    flow.schema().clone()
}

/// The schema and the exact bytes of every cell.
fn bytes_of(t: &Table) -> (Schema, Vec<u8>) {
    let mut buf = BytesMut::new();
    encode_table(t, &mut buf);
    (t.schema().clone(), buf.as_slice().to_vec())
}

/// The kernel's partial map output for `t`, fed in `chunk`-row ranges as
/// the morsel executor feeds it.
fn partial_in_chunks(
    t: &Table,
    group_by: &[String],
    aggs: &[AggExpr],
    p_schema: &Schema,
    chunk: usize,
) -> FlowResult<Table> {
    let mut agg = Aggregation::new(AggMode::Partial, t.schema(), group_by, aggs, p_schema)?;
    let mut lo = 0;
    while lo < t.num_rows() {
        let hi = (lo + chunk).min(t.num_rows());
        agg.fold(t, lo, hi)?;
        lo = hi;
    }
    agg.finish(t)
}

/// What the engine must output: the oracle's raw aggregate, or with a
/// map-side combine, the oracle's merge of its per-partition partials.
fn expected(
    t: &Table,
    partitions: usize,
    group_by: &[String],
    aggs: &[AggExpr],
    out: &Schema,
    partial: bool,
) -> Table {
    if !partial || aggs.iter().any(|a| a.func == AggFunc::CountDistinct) {
        return aggregate_rows(AggMode::Raw, t, group_by, aggs, out).unwrap();
    }
    let p_schema = partial_schema(t.schema(), group_by, aggs).unwrap();
    let parts = PartitionedTable::split(t.clone(), partitions).unwrap();
    let partials: Vec<Table> = parts
        .parts()
        .iter()
        .map(|p| aggregate_rows(AggMode::Partial, p, group_by, aggs, &p_schema).unwrap())
        .collect();
    let all = Table::concat(&partials).unwrap();
    aggregate_rows(AggMode::Merge, &all, group_by, aggs, out).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    #[test]
    fn kernel_matches_the_row_aggregator_in_every_mode(
        rows in 0usize..160,
        null_pct in 0u32..50,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table(rows, null_pct, &mut rng);
        let group_by = keys(&mut rng);
        let with_distinct = aggs(&mut rng, true);
        let out = out_schema(t.schema(), &group_by, &with_distinct);
        prop_assert_eq!(
            bytes_of(&Aggregation::run(AggMode::Raw, &t, &group_by, &with_distinct, &out).unwrap()),
            bytes_of(&aggregate_rows(AggMode::Raw, &t, &group_by, &with_distinct, &out).unwrap())
        );

        let aggs = aggs(&mut rng, false);
        let out = out_schema(t.schema(), &group_by, &aggs);
        let p_schema = partial_schema(t.schema(), &group_by, &aggs).unwrap();
        let oracle_partial = aggregate_rows(AggMode::Partial, &t, &group_by, &aggs, &p_schema).unwrap();
        let whole = Aggregation::run(AggMode::Partial, &t, &group_by, &aggs, &p_schema).unwrap();
        prop_assert_eq!(bytes_of(&whole), bytes_of(&oracle_partial));
        for chunk in [1, 7, 4096] {
            // The map wave is deterministic: any morsel size, any run.
            let chunked = partial_in_chunks(&t, &group_by, &aggs, &p_schema, chunk).unwrap();
            prop_assert_eq!(bytes_of(&chunked), bytes_of(&whole));
        }

        // Merge the partials of a three-way split, as the reduce side does.
        let parts = PartitionedTable::split(t.clone(), 3).unwrap();
        let partials: Vec<Table> = parts
            .parts()
            .iter()
            .map(|p| Aggregation::run(AggMode::Partial, p, &group_by, &aggs, &p_schema).unwrap())
            .collect();
        let all = Table::concat(&partials).unwrap();
        prop_assert_eq!(
            bytes_of(&Aggregation::run(AggMode::Merge, &all, &group_by, &aggs, &out).unwrap()),
            bytes_of(&aggregate_rows(AggMode::Merge, &all, &group_by, &aggs, &out).unwrap())
        );
    }

    #[test]
    fn engine_aggregation_matches_the_row_aggregator(
        rows in 0usize..120,
        null_pct in 0u32..50,
        seed in any::<u64>(),
        partial in any::<bool>(),
        morsel in 0usize..3,
        budget in prop_oneof![Just(None), Just(Some(0u64)), Just(Some(200u64))],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table(rows, null_pct, &mut rng);
        let group_by = keys(&mut rng);
        let with_distinct = rng.gen_bool(0.3);
        let aggs = aggs(&mut rng, with_distinct);
        let out = out_schema(t.schema(), &group_by, &aggs);
        let mut config = EngineConfig::default()
            .with_threads(2)
            .with_partitions(3)
            .with_partial_aggregation(partial)
            .with_morsel_rows([1, 7, 4096][morsel]);
        if let Some(b) = budget {
            config = config.with_memory_budget(b);
        }
        let mut engine = Engine::new(config);
        engine.register("t", t.clone()).unwrap();
        let refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let flow = engine.flow("t").unwrap().aggregate(&refs, aggs.clone()).unwrap();
        let got = engine.run(&flow).unwrap().table.sort_by(&refs, false).unwrap();
        let want = expected(&t, 3, &group_by, &aggs, &out, partial);
        prop_assert_eq!(bytes_of(&got), bytes_of(&want));
    }

    #[test]
    fn distinct_keeps_the_first_row_of_each_group(
        rows in 0usize..120,
        null_pct in 0u32..50,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table(rows, null_pct, &mut rng);
        let cols = keys(&mut rng);
        let refs: Vec<&str> = if cols.is_empty() { vec!["f"] } else { cols.iter().map(String::as_str).collect() };
        let narrow = t.project(&refs).unwrap();
        let mut engine = Engine::new(EngineConfig::default().with_threads(2).with_partitions(3));
        engine.register("t", narrow.clone()).unwrap();
        let flow = engine.flow("t").unwrap().distinct().sort(&refs, false).unwrap();
        let got = engine.run(&flow).unwrap().table;
        // Distinct rows are the groups of every column with no aggregate:
        // the oracle's keys with a dummy count dropped.
        let group_by: Vec<String> = refs.iter().map(|s| s.to_string()).collect();
        let count = vec![AggExpr::new(AggFunc::Count, refs[0], "n")];
        let out = out_schema(narrow.schema(), &group_by, &count);
        let want = aggregate_rows(AggMode::Raw, &narrow, &group_by, &count, &out)
            .unwrap()
            .without_column("n")
            .unwrap();
        prop_assert_eq!(bytes_of(&got), bytes_of(&want));
    }
}

#[test]
fn an_empty_global_aggregate_is_one_identity_row() {
    let mut rng = StdRng::seed_from_u64(1);
    let t = table(0, 0, &mut rng);
    let aggs = vec![
        AggExpr::new(AggFunc::Count, "s", "n"),
        AggExpr::new(AggFunc::Sum, "i", "si"),
        AggExpr::new(AggFunc::Sum, "f", "sf"),
        AggExpr::new(AggFunc::Min, "s", "lo"),
        AggExpr::new(AggFunc::Max, "b", "hi"),
        AggExpr::new(AggFunc::Mean, "f", "m"),
        AggExpr::new(AggFunc::CountDistinct, "t", "d"),
    ];
    let out = out_schema(t.schema(), &[], &aggs);
    let identity = Table::from_rows(
        out.clone(),
        vec![vec![
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Int(0),
        ]],
    )
    .unwrap();
    for mode in [AggMode::Raw, AggMode::Merge] {
        let input = match mode {
            AggMode::Merge => Table::empty(partial_schema(t.schema(), &[], &aggs[..6]).unwrap()),
            _ => t.clone(),
        };
        let aggs = if mode == AggMode::Merge {
            &aggs[..6]
        } else {
            &aggs[..]
        };
        let out = out_schema(t.schema(), &[], aggs);
        let got = Aggregation::run(mode, &input, &[], aggs, &out).unwrap();
        let want = identity.project(&out.names()).unwrap();
        assert_eq!(bytes_of(&got), bytes_of(&want), "{mode:?}");
    }
    for partial in [false, true] {
        let mut engine = Engine::new(EngineConfig::default().with_partial_aggregation(partial));
        engine.register("t", t.clone()).unwrap();
        let flow = engine
            .flow("t")
            .unwrap()
            .aggregate(&[], aggs[..6].to_vec())
            .unwrap();
        let got = engine.run(&flow).unwrap().table;
        assert_eq!(
            bytes_of(&got),
            bytes_of(&identity.project(&out.names()[..6]).unwrap())
        );
    }
}

#[test]
fn sum_over_a_string_column_fails_as_before() {
    let mut rng = StdRng::seed_from_u64(2);
    let t = table(20, 10, &mut rng);
    // The plan rejects it up front.
    let err = Dataflow::scan("t", t.schema().clone())
        .aggregate(&["i"], vec![AggExpr::new(AggFunc::Sum, "s", "x")])
        .unwrap_err();
    assert_eq!(
        err,
        FlowError::TypeCheck("SUM requires numeric, got Str".to_owned())
    );
    // A plan built by hand reaches the fold, which fails at the first
    // non-null string exactly as the row-at-a-time fold did.
    let group_by = vec!["i".to_owned()];
    let aggs = vec![
        AggExpr::new(AggFunc::Count, "s", "n"),
        AggExpr::new(AggFunc::Sum, "s", "x"),
    ];
    let out = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("n", DataType::Int),
        Field::new("x", DataType::Float),
    ])
    .unwrap();
    let mismatch = FlowError::Data(DataError::TypeMismatch {
        expected: "Float".to_owned(),
        found: "Str".to_owned(),
    });
    for mode in [AggMode::Raw, AggMode::Partial] {
        let schema = match mode {
            AggMode::Partial => partial_schema(t.schema(), &group_by, &aggs).unwrap(),
            _ => out.clone(),
        };
        let kernel = Aggregation::run(mode, &t, &group_by, &aggs, &schema).unwrap_err();
        let oracle = aggregate_rows(mode, &t, &group_by, &aggs, &schema).unwrap_err();
        assert_eq!(kernel, oracle, "{mode:?}");
        assert_eq!(kernel, mismatch, "{mode:?}");
    }
    // An all-null string column has nothing to add, so nothing fails.
    let nulls = Table::new(
        t.schema().clone(),
        t.columns()
            .iter()
            .enumerate()
            .map(|(c, col)| match c {
                3 => Column::from_values(DataType::Str, &vec![Value::Null; t.num_rows()]).unwrap(),
                _ => col.clone(),
            })
            .collect(),
    )
    .unwrap();
    assert_eq!(
        bytes_of(&Aggregation::run(AggMode::Raw, &nulls, &group_by, &aggs, &out).unwrap()),
        bytes_of(&aggregate_rows(AggMode::Raw, &nulls, &group_by, &aggs, &out).unwrap())
    );
    // Through the engine, both with and without a map-side combine.
    let plan = LogicalPlan::Aggregate {
        input: Dataflow::scan("t", t.schema().clone()).plan().clone(),
        group_by,
        aggs,
        schema: out,
    };
    for partial in [false, true] {
        let mut engine = Engine::new(EngineConfig::default().with_partial_aggregation(partial));
        engine.register("t", t.clone()).unwrap();
        let err = engine
            .run(&Dataflow::from_plan(std::sync::Arc::new(plan.clone())))
            .unwrap_err();
        assert!(
            err.to_string().contains("expected Float, found Str"),
            "{err}"
        );
    }
}
