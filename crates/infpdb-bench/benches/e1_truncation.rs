//! E1 — Figure 1 / Proposition 6.1: the additive-ε guarantee of truncated
//! query evaluation.
//!
//! Prints the experiment rows (per series family and tolerance: estimate,
//! high-precision ground truth, observed error, certified ε, truncation
//! length n(ε)) and times the end-to-end evaluation.
//!
//! Paper-predicted shape: observed error ≤ ε everywhere; n(ε) grows
//! logarithmically for the geometric family and polynomially for ζ(2).

use criterion::{criterion_group, criterion_main, Criterion};
use infpdb_bench::{geometric_pdb, truth_exists_r, zeta_pdb};
use infpdb_logic::parse;
use infpdb_query::approx::approx_prob_boolean;
use infpdb_query::Engine;

fn print_rows() {
    println!("\nE1: additive guarantee of Prop 6.1 (query: exists x. R(x))");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "series", "eps", "estimate", "truth", "|error|", "n(eps)"
    );
    for (name, pdb, truth_terms) in [
        ("geometric", geometric_pdb(), 2_000usize),
        ("zeta", zeta_pdb(), 3_000_000),
    ] {
        let truth = truth_exists_r(&pdb, truth_terms);
        let q = parse("exists x. R(x)", pdb.schema()).expect("query");
        for eps in [0.1, 0.03, 0.01, 0.003] {
            let a = approx_prob_boolean(&pdb, &q, eps, Engine::Auto).expect("approx");
            let err = (a.estimate - truth).abs();
            assert!(err <= eps, "guarantee violated: {err} > {eps}");
            println!(
                "{name:<10} {eps:>8} {:>10.6} {truth:>10.6} {err:>10.2e} {:>8}",
                a.estimate, a.n
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    print_rows();
    let mut group = c.benchmark_group("e1_truncation");
    group.sample_size(20);
    let gq = geometric_pdb();
    let q = parse("exists x. R(x)", gq.schema()).expect("query");
    group.bench_function("geometric_eps_0.01", |b| {
        b.iter(|| approx_prob_boolean(&gq, &q, 0.01, Engine::Auto).expect("approx"))
    });
    let zq = zeta_pdb();
    let q2 = parse("exists x. R(x)", zq.schema()).expect("query");
    group.bench_function("zeta_eps_0.1", |b| {
        b.iter(|| approx_prob_boolean(&zq, &q2, 0.1, Engine::Auto).expect("approx"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
