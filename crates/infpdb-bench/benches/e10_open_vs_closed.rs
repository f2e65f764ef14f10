//! E10 — The introduction's motivating comparison and Remark 5.2: where
//! closed- and open-world semantics disagree, and by how much.
//!
//! Paper-predicted shape: unlisted facts move from exactly 0 to small
//! positive probabilities ranked by plausibility; listed facts and
//! original-only queries are unchanged; the λ-OpenPDB interval contains
//! the infinite completion's point value for monotone queries over the
//! finite universe.

use criterion::{criterion_group, criterion_main, Criterion};
use infpdb_bench::{rfact, unary_schema};
use infpdb_core::universe::FiniteUniverse;
use infpdb_core::value::Value;
use infpdb_finite::engine;
use infpdb_finite::TiTable;
use infpdb_logic::parse;
use infpdb_math::series::GeometricSeries;
use infpdb_openworld::closed_world::open_vs_closed_gap;
use infpdb_openworld::independent_facts::complete_ti_table;
use infpdb_openworld::LambdaCompletion;
use infpdb_query::approx::approx_prob_boolean;
use infpdb_query::Engine;
use infpdb_ti::enumerator::FactSupply;

fn print_rows() {
    println!("\nE10: closed vs open vs λ-OpenPDB");
    let table =
        TiTable::from_facts(unary_schema(), [(rfact(1), 0.8), (rfact(2), 0.4)]).expect("table");
    let tail = FactSupply::from_fn(
        unary_schema(),
        |i| rfact(3 + i as i64),
        GeometricSeries::new(0.1, 0.5).expect("series"),
    );
    let open = complete_ti_table(&table, tail).expect("completion");

    println!("{:<10} {:>8} {:>10}", "fact", "closed", "open");
    for n in [1i64, 2, 3, 4, 8] {
        let (c, o) = open_vs_closed_gap(&table, &open, &rfact(n), 10_000);
        println!("R({n})       {c:>8.3} {o:>10.5}");
    }
    // ranking: nearer unlisted facts beat farther ones, all beat 0
    let (_, p3) = open_vs_closed_gap(&table, &open, &rfact(3), 10_000);
    let (_, p8) = open_vs_closed_gap(&table, &open, &rfact(8), 10_000);
    assert!(p3 > p8 && p8 > 0.0);

    // λ-OpenPDB over a finite universe {1..6} vs the infinite completion
    let uni = FiniteUniverse::new((1..=6).map(Value::int));
    let lam = LambdaCompletion::new(table.clone(), &uni, 0.1).expect("λ-completion");
    let q = parse("exists x. R(x)", &unary_schema()).expect("query");
    let iv = lam.prob_interval(&q).expect("interval");
    let a = approx_prob_boolean(&open, &q, 0.001, Engine::Auto).expect("approx");
    let closed = engine::prob_boolean(&q, &table).expect("prob");
    println!(
        "P(exists x. R(x)): closed = {closed:.5}, open = {:.5}, λ-interval = {iv}",
        a.estimate
    );
    assert!(a.estimate >= closed - 0.001);
}

fn bench(c: &mut Criterion) {
    print_rows();
    let mut group = c.benchmark_group("e10_open_vs_closed");
    group.sample_size(20);
    let table =
        TiTable::from_facts(unary_schema(), [(rfact(1), 0.8), (rfact(2), 0.4)]).expect("table");
    let q = parse("exists x. R(x)", &unary_schema()).expect("query");
    group.bench_function("closed_world_query", |b| {
        b.iter(|| engine::prob_boolean(&q, &table).expect("prob"))
    });
    let tail = FactSupply::from_fn(
        unary_schema(),
        |i| rfact(3 + i as i64),
        GeometricSeries::new(0.1, 0.5).expect("series"),
    );
    let open = complete_ti_table(&table, tail).expect("completion");
    group.bench_function("open_world_query_eps_0.01", |b| {
        b.iter(|| approx_prob_boolean(&open, &q, 0.01, Engine::Auto).expect("approx"))
    });
    let uni = FiniteUniverse::new((1..=6).map(Value::int));
    let lam = LambdaCompletion::new(table.clone(), &uni, 0.1).expect("λ");
    group.bench_function("lambda_interval_query", |b| {
        b.iter(|| lam.prob_interval(&q).expect("interval"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
