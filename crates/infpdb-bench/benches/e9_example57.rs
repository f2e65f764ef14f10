//! E9 — Example 5.7 reproduced: the 4-row table completed with a
//! `2^{-i}`-style tail; "all finite Boolean combinations of distinct facts
//! have probability > 0" in the completion.

use criterion::{criterion_group, criterion_main, Criterion};
use infpdb_core::fact::Fact;
use infpdb_core::schema::{Relation, Schema};
use infpdb_core::value::Value;
use infpdb_finite::TiTable;
use infpdb_logic::parse;
use infpdb_math::series::GeometricSeries;
use infpdb_openworld::independent_facts::complete_ti_table;
use infpdb_query::approx::approx_prob_boolean;
use infpdb_query::Engine;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;

fn example_5_7() -> (Schema, CountableTiPdb) {
    let schema = Schema::from_relations([Relation::new("R", 2)]).expect("schema");
    let r = schema.rel_id("R").expect("R");
    let row = |x: &str, i: i64| Fact::new(r, [Value::str(x), Value::int(i)]);
    let table = TiTable::from_facts(
        schema.clone(),
        [
            (row("A", 1), 0.8),
            (row("B", 1), 0.4),
            (row("B", 2), 0.5),
            (row("C", 3), 0.9),
        ],
    )
    .expect("table");
    let names = ["A", "B", "C", "D"];
    let skips = [0usize, 1, 5, 10];
    let tail = FactSupply::from_fn(
        schema.clone(),
        move |i| {
            let mut raw = i;
            for &s in &skips {
                if s <= raw {
                    raw += 1;
                }
            }
            Fact::new(
                r,
                [Value::str(names[raw % 4]), Value::int(raw as i64 / 4 + 1)],
            )
        },
        GeometricSeries::new(0.125, 0.5f64.powf(0.25)).expect("series"),
    );
    let open = complete_ti_table(&table, tail).expect("completion");
    (schema, open)
}

fn print_rows() {
    println!("\nE9: Example 5.7 — Boolean combinations of distinct facts are possible");
    let (schema, open) = example_5_7();
    let queries = [
        "R('A', 1) /\\ R('A', 2)",                // impossible closed-world
        "R('D', 7)",                              // entity D never listed
        "R('A', 1) /\\ !R('B', 1)",               // mixed polarity
        "R('D', 1) /\\ R('D', 2) /\\ !R('C', 3)", // all-new combination
    ];
    println!("{:<42} {:>12}", "query", "P ± 0.001");
    for qs in queries {
        let q = parse(qs, &schema).expect("query");
        let a = approx_prob_boolean(&open, &q, 0.001, Engine::Auto).expect("approx");
        println!("{qs:<42} {:>12.6}", a.estimate);
        assert!(a.estimate > 0.0, "{qs} must be possible in the completion");
    }
}

fn bench(c: &mut Criterion) {
    print_rows();
    let mut group = c.benchmark_group("e9_example57");
    group.sample_size(20);
    let (schema, open) = example_5_7();
    let q = parse("exists x, y. R(x, y)", &schema).expect("query");
    group.bench_function("exists_query_eps_0.01", |b| {
        b.iter(|| approx_prob_boolean(&open, &q, 0.01, Engine::Auto).expect("approx"))
    });
    let q2 = parse("R('A', 1) /\\ R('A', 2)", &schema).expect("query");
    group.bench_function("ground_conjunction_eps_0.001", |b| {
        b.iter(|| approx_prob_boolean(&open, &q2, 0.001, Engine::Auto).expect("approx"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
