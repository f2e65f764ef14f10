//! E13 — substrate ablation: intensional (lineage+Shannon) vs extensional
//! (safe plan) vs Monte-Carlo vs brute-force on finite t.i. tables.
//!
//! Expected shape (classical finite-PDB theory): on hierarchical queries
//! the lifted engine scales polynomially and beats lineage as tables grow;
//! brute force explodes exponentially and is only usable on tiny tables;
//! Monte Carlo pays a large constant for tight tolerances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use infpdb_bench::random_finite_table;
use infpdb_finite::arena::LineageArena;
use infpdb_finite::karp_luby::{self, Dnf};
use infpdb_finite::lineage::lineage_of_arena;
use infpdb_finite::shannon::ScopedExecutor;
use infpdb_finite::{engine, lifted, monte_carlo, worlds, TiTable};
use infpdb_logic::ast::Formula;
use infpdb_logic::parse;

/// Sequential estimators run inline and never touch the executor.
const INLINE: ScopedExecutor = ScopedExecutor { threads: 1 };

/// The query's monotone DNF within `max_clauses` clauses.
fn dnf(q: &Formula, t: &TiTable, max_clauses: usize) -> Dnf {
    let mut arena = LineageArena::new();
    let root = lineage_of_arena(q, t, &mut arena).expect("lineage");
    karp_luby::to_dnf_arena(&arena, root, max_clauses).expect("monotone query")
}

const SAFE: &str = "exists x, y. R(x) /\\ S(x, y)";
const UNSAFE: &str = "exists x, y. R(x) /\\ S(x, y) /\\ T(y)";

fn print_rows() {
    println!("\nE13: engine agreement on a 14-fact table");
    let t = random_finite_table(14, 1);
    for qs in [SAFE, UNSAFE] {
        let q = parse(qs, t.schema()).expect("query");
        let lineage = engine::prob_lineage(&q, &t).expect("lineage");
        let brute = worlds::prob_boolean_brute(&q, &t).expect("brute");
        let lifted = lifted::prob_hierarchical(&q, &t);
        let mc = monte_carlo::estimate_parallel(&q, &t, 20_000, 1, 1, &INLINE)
            .expect("mc")
            .expect("inline");
        let kl = karp_luby::estimate_dnf_parallel(&dnf(&q, &t, 10_000), &t, 40_000, 2, 1, &INLINE)
            .expect("inline");
        println!(
            "{qs:<44} lineage={lineage:.6} brute={brute:.6} lifted={} mc={:.4} kl={:.4}",
            lifted
                .map(|p| format!("{p:.6}"))
                .unwrap_or_else(|_| "unsafe".into()),
            mc.estimate,
            kl.estimate
        );
        assert!((lineage - brute).abs() < 1e-9);
        assert!((mc.estimate - brute).abs() < 0.02);
        assert!((kl.estimate - brute).abs() < 0.02 + 0.05 * brute);
    }
}

fn bench(c: &mut Criterion) {
    print_rows();
    let mut group = c.benchmark_group("e13_finite_engines");
    group.sample_size(10);
    for &n in &[10usize, 50, 200, 1000] {
        let t = random_finite_table(n, 777);
        let q_safe = parse(SAFE, t.schema()).expect("query");
        group.bench_with_input(BenchmarkId::new("lifted_safe", n), &n, |b, _| {
            b.iter(|| lifted::prob_hierarchical(&q_safe, &t).expect("prob"))
        });
        if n <= 200 {
            group.bench_with_input(BenchmarkId::new("lineage_safe", n), &n, |b, _| {
                b.iter(|| engine::prob_lineage(&q_safe, &t).expect("prob"))
            });
        }
        if n <= 10 {
            // exact inference on the unsafe query is #P-hard; past ~10
            // facts on a dense domain the Shannon expansion blows up
            let q_unsafe = parse(UNSAFE, t.schema()).expect("query");
            group.bench_with_input(BenchmarkId::new("lineage_unsafe", n), &n, |b, _| {
                b.iter(|| engine::prob_lineage(&q_unsafe, &t).expect("prob"))
            });
        }
        if n <= 10 {
            group.bench_with_input(BenchmarkId::new("brute", n), &n, |b, _| {
                b.iter(|| worlds::prob_boolean_brute(&q_safe, &t).expect("prob"))
            });
        }
    }
    let t = random_finite_table(200, 778);
    let q = parse(UNSAFE, t.schema()).expect("query");
    // Monte Carlo and Karp–Luby scale where exact intensional inference
    // cannot; KL additionally gives *relative* error (monotone queries)
    group.bench_function("monte_carlo_2000_samples", |b| {
        b.iter(|| monte_carlo::estimate_parallel(&q, &t, 2000, 2, 1, &INLINE).expect("mc"))
    });
    group.bench_function("karp_luby_2000_samples", |b| {
        b.iter(|| {
            karp_luby::estimate_dnf_parallel(&dnf(&q, &t, 100_000), &t, 2000, 3, 1, &INLINE)
                .expect("kl")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
