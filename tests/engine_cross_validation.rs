//! Cross-validation of the four finite inference engines on randomized
//! tuple-independent tables: brute-force world enumeration is the ground
//! truth; lifted (where applicable), lineage+Shannon, and Monte Carlo must
//! agree.

use infpdb::finite::TiTable;
use infpdb::finite::{engine, lifted, monte_carlo, worlds};
use infpdb::logic::parse;
use infpdb_core::fact::Fact;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use infpdb_core::value::Value;

fn schema() -> Schema {
    Schema::from_relations([
        Relation::new("R", 1),
        Relation::new("S", 2),
        Relation::new("T", 1),
    ])
    .unwrap()
}

/// A random table over a small domain: every potential fact is included
/// with probability 1/2, with a random marginal.
fn random_table(rng: &mut SplitMix64, domain: i64) -> TiTable {
    let mut t = TiTable::new(schema());
    let mut maybe_add = |fact: Fact, rng: &mut SplitMix64| {
        if rng.next_u64().is_multiple_of(2) {
            let p = (rng.next_u64() % 1000) as f64 / 1000.0;
            t.add_fact(fact, p).unwrap();
        }
    };
    for a in 1..=domain {
        maybe_add(Fact::new(RelId(0), [Value::int(a)]), rng);
        maybe_add(Fact::new(RelId(2), [Value::int(a)]), rng);
        for b in 1..=domain {
            maybe_add(Fact::new(RelId(1), [Value::int(a), Value::int(b)]), rng);
        }
    }
    t
}

const SAFE_QUERIES: &[&str] = &[
    "exists x. R(x)",
    "exists x, y. R(x) /\\ S(x, y)",
    "exists x, y. S(x, y)",
    "(exists x. R(x)) /\\ (exists y. T(y))",
];

const UNSAFE_OR_NON_CQ_QUERIES: &[&str] = &[
    "exists x, y. R(x) /\\ S(x, y) /\\ T(y)", // H₀
    "forall x. (R(x) -> T(x))",
    "exists x. R(x) /\\ !T(x)",
    "exists x. (R(x) /\\ forall y. (S(x, y) -> T(y)))",
];

#[test]
fn lineage_engine_matches_brute_force_on_random_tables() {
    let mut rng = SplitMix64::new(42);
    for trial in 0..15 {
        let t = random_table(&mut rng, 3);
        if t.len() > 16 {
            continue;
        }
        for qs in SAFE_QUERIES.iter().chain(UNSAFE_OR_NON_CQ_QUERIES) {
            let q = parse(qs, t.schema()).unwrap();
            let fast = engine::prob_lineage(&q, &t).unwrap();
            let slow = worlds::prob_boolean_brute(&q, &t).unwrap();
            assert!(
                (fast - slow).abs() < 1e-9,
                "trial {trial} {qs}: lineage {fast} vs brute {slow}"
            );
        }
    }
}

#[test]
fn lifted_engine_matches_brute_force_on_safe_queries() {
    let mut rng = SplitMix64::new(43);
    for trial in 0..15 {
        let t = random_table(&mut rng, 3);
        if t.len() > 16 {
            continue;
        }
        for qs in SAFE_QUERIES {
            let q = parse(qs, t.schema()).unwrap();
            let fast = lifted::prob_hierarchical(&q, &t).unwrap();
            let slow = worlds::prob_boolean_brute(&q, &t).unwrap();
            assert!(
                (fast - slow).abs() < 1e-9,
                "trial {trial} {qs}: lifted {fast} vs brute {slow}"
            );
        }
    }
}

#[test]
fn auto_engine_always_matches_brute_force() {
    let mut rng = SplitMix64::new(44);
    for trial in 0..10 {
        let t = random_table(&mut rng, 3);
        if t.len() > 16 {
            continue;
        }
        for qs in SAFE_QUERIES.iter().chain(UNSAFE_OR_NON_CQ_QUERIES) {
            let q = parse(qs, t.schema()).unwrap();
            let fast = engine::prob_boolean(&q, &t).unwrap();
            let slow = worlds::prob_boolean_brute(&q, &t).unwrap();
            assert!(
                (fast - slow).abs() < 1e-9,
                "trial {trial} {qs}: auto {fast} vs brute {slow}"
            );
        }
    }
}

#[test]
fn monte_carlo_lands_within_hoeffding_bounds() {
    let mut rng = SplitMix64::new(45);
    let t = random_table(&mut rng, 3);
    let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
    let truth = engine::prob_lineage(&q, &t).unwrap();
    // the Hoeffding count for (ε, δ) = (0.03, 0.001), master seed 45
    let samples = monte_carlo::samples_for(0.03, 0.001);
    let exec = infpdb::finite::shannon::ScopedExecutor { threads: 1 };
    let est = monte_carlo::estimate_parallel(&q, &t, samples, 45, 1, &exec)
        .unwrap()
        .unwrap();
    assert!(
        (est.estimate - truth).abs() <= 0.03,
        "MC {} vs truth {truth}",
        est.estimate
    );
}

#[test]
fn answer_marginals_cross_validate() {
    let mut rng = SplitMix64::new(46);
    for _ in 0..5 {
        let t = random_table(&mut rng, 3);
        if t.len() > 14 {
            continue;
        }
        let q = parse("exists y. S(x, y)", t.schema()).unwrap();
        let fast = engine::answer_marginals(&q, &t).unwrap();
        let worlds = t.worlds().unwrap();
        let slow = worlds.answer_marginals(&q).unwrap();
        assert_eq!(fast.len(), slow.len());
        for ((ta, pa), (tb, pb)) in fast.iter().zip(slow.iter()) {
            assert_eq!(ta, tb);
            assert!((pa - pb).abs() < 1e-9);
        }
    }
}

#[test]
fn bid_worlds_cross_validate_with_direct_formula() {
    use infpdb::finite::BidTable;
    let mut rng = SplitMix64::new(47);
    for _ in 0..10 {
        // random keyed table: 3 keys, up to 3 alternatives each
        let mut facts = Vec::new();
        for k in 1..=3i64 {
            let alts = 1 + (rng.next_u64() % 3) as i64;
            let mut remaining = 1.0f64;
            for v in 0..alts {
                let p = (remaining * (rng.next_u64() % 900) as f64 / 1000.0).max(0.0);
                remaining -= p;
                facts.push((Fact::new(RelId(1), [Value::int(k), Value::int(v)]), p));
            }
        }
        let t = BidTable::keyed(schema(), facts, 0).unwrap();
        let worlds = t.worlds().unwrap();
        for (d, p) in worlds.space().outcomes() {
            assert!(
                (t.instance_prob(d) - p).abs() < 1e-9,
                "world probability mismatch"
            );
        }
        assert!((worlds.space().total_mass() - 1.0).abs() < 1e-9);
    }
}
