//! Seeded coverage of the two samplers the planner runs: over many master
//! seeds, the share of estimates that miss their guarantee must be
//! consistent with the promised failure probability δ.
//!
//! Each estimator runs `RUNS` times on a table whose truth is known in
//! closed form. A run misses when its estimate falls outside the bound
//! its sample count was sized for. Independent runs miss independently
//! with probability at most δ, so the miss count is dominated by
//! Binomial(`RUNS`, δ), and more than `MAX_MISSES` (its 99.9 % quantile)
//! means the sampler does not deliver its guarantee. Runs under the CI
//! `chaos` job with three fixed seeds via `INFPDB_CHAOS_SEED`; the default
//! seed keeps local runs deterministic too.

use infpdb_core::fact::{Fact, FactId};
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use infpdb_core::value::Value;
use infpdb_finite::shannon::ScopedExecutor;
use infpdb_finite::{karp_luby, monte_carlo, TiTable};
use infpdb_logic::parse;

const RUNS: usize = 200;
const DELTA: f64 = 0.05;
/// The 99.9 % quantile of Binomial(200, 0.05).
const MAX_MISSES: usize = 21;
/// Sequential estimators run inline and never touch the executor.
const INLINE: ScopedExecutor = ScopedExecutor { threads: 1 };

fn seed() -> u64 {
    std::env::var("INFPDB_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5A3D_1E55)
}

/// `R(0), R(1), …` with the given marginals.
fn table(probs: &[f64]) -> TiTable {
    let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
    TiTable::from_facts(
        schema,
        probs
            .iter()
            .enumerate()
            .map(|(i, &p)| (Fact::new(RelId(0), [Value::int(i as i64)]), p)),
    )
    .unwrap()
}

/// How many of `RUNS` master seeds give an estimate outside `bound` of
/// the truth.
fn misses(truth: f64, bound: f64, mut estimate: impl FnMut(u64) -> f64) -> usize {
    let mut seeds = SplitMix64::new(seed());
    (0..RUNS)
        .filter(|_| (estimate(seeds.next_u64()) - truth).abs() > bound)
        .count()
}

#[test]
fn monte_carlo_misses_its_hoeffding_bound_at_most_at_rate_delta() {
    let eps = 0.02;
    let t = table(&[0.5]);
    let q = parse("R(0)", t.schema()).unwrap();
    let samples = monte_carlo::samples_for(eps, DELTA);
    assert_eq!(samples, 4612);
    let missed = misses(0.5, eps, |seed| {
        monte_carlo::estimate_parallel(&q, &t, samples, seed, 1, &INLINE)
            .unwrap()
            .unwrap()
            .estimate
    });
    assert!(
        missed <= MAX_MISSES,
        "{missed} of {RUNS} Monte-Carlo estimates missed ±{eps}"
    );
}

#[test]
fn karp_luby_misses_its_multiplicative_bound_at_most_at_rate_delta() {
    let eps = 0.05;
    let t = table(&[0.5, 0.5]);
    // R(0) ∨ R(1), with P = 1 − (1 − 0.5)²
    let dnf = vec![vec![FactId(0)], vec![FactId(1)]];
    let truth = 0.75;
    let samples = karp_luby::samples_for(dnf.len(), eps, DELTA);
    let missed = misses(truth, eps * truth, |seed| {
        karp_luby::estimate_dnf_parallel(&dnf, &t, samples, seed, 1, &INLINE)
            .unwrap()
            .estimate
    });
    assert!(
        missed <= MAX_MISSES,
        "{missed} of {RUNS} Karp–Luby estimates missed ±{eps}·P"
    );
}
