//! End-to-end integration: finite table → open-world completion →
//! approximate query evaluation, validated against independently computed
//! ground truth.

use infpdb::finite::TiTable;
use infpdb::logic::parse;
use infpdb::math::series::GeometricSeries;
use infpdb::openworld::closed_world::closed_world_completion;
use infpdb::openworld::independent_facts::complete_ti_table;
use infpdb::query::approx::approx_prob_boolean;
use infpdb::query::marginal::approx_answers;
use infpdb::query::Engine;
use infpdb::ti::enumerator::FactSupply;
use infpdb_core::fact::Fact;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::value::Value;

fn schema() -> Schema {
    Schema::from_relations([Relation::new("Likes", 2), Relation::new("Person", 1)]).unwrap()
}

fn person(n: i64) -> Fact {
    Fact::new(RelId(1), [Value::int(n)])
}

fn likes(a: i64, b: i64) -> Fact {
    Fact::new(RelId(0), [Value::int(a), Value::int(b)])
}

fn base_table() -> TiTable {
    TiTable::from_facts(
        schema(),
        [
            (person(1), 0.9),
            (person(2), 0.8),
            (likes(1, 2), 0.5),
            (likes(2, 1), 0.4),
        ],
    )
    .unwrap()
}

/// Open-world tail: new people 10, 11, 12, … with geometric probabilities.
fn people_tail() -> FactSupply {
    FactSupply::from_fn(
        schema(),
        |i| person(10 + i as i64),
        GeometricSeries::new(0.2, 0.5).unwrap(),
    )
}

#[test]
fn completion_preserves_closed_world_queries() {
    let table = base_table();
    let open = complete_ti_table(&table, people_tail()).unwrap();
    // Queries that only touch original facts keep their probabilities
    // (within ε): the completion condition in query form.
    for qs in [
        "Person(1)",
        "Person(1) /\\ Person(2)",
        "Likes(1, 2) \\/ Likes(2, 1)",
        "exists x, y. Likes(x, y)",
    ] {
        let q = parse(qs, &schema()).unwrap();
        let closed_truth = infpdb::finite::worlds::prob_boolean_brute(&q, &table).unwrap();
        let a = approx_prob_boolean(&open, &q, 0.005, Engine::Auto).unwrap();
        assert!(
            (a.estimate - closed_truth).abs() <= 0.005,
            "{qs}: open {} vs closed {closed_truth}",
            a.estimate
        );
    }
}

#[test]
fn open_world_changes_the_right_queries() {
    let table = base_table();
    let open = complete_ti_table(&table, people_tail()).unwrap();
    // "some person exists" is boosted by the tail
    let q = parse("exists x. Person(x)", &schema()).unwrap();
    let closed_truth = infpdb::finite::worlds::prob_boolean_brute(&q, &table).unwrap();
    let a = approx_prob_boolean(&open, &q, 0.001, Engine::Auto).unwrap();
    assert!(
        a.estimate > closed_truth + 0.001,
        "open {} should exceed closed {closed_truth}",
        a.estimate
    );
    // a specific unknown person went from impossible to merely unlikely
    let q10 = parse("Person(10)", &schema()).unwrap();
    let a10 = approx_prob_boolean(&open, &q10, 0.001, Engine::Auto).unwrap();
    assert!((a10.estimate - 0.2).abs() <= 0.001);
    assert_eq!(
        infpdb::finite::worlds::prob_boolean_brute(&q10, &table).unwrap(),
        0.0
    );
}

#[test]
fn closed_world_completion_is_the_degenerate_case() {
    let table = base_table();
    let cw = closed_world_completion(&table).unwrap();
    let q = parse("exists x. Person(x)", &schema()).unwrap();
    let closed_truth = infpdb::finite::worlds::prob_boolean_brute(&q, &table).unwrap();
    let a = approx_prob_boolean(&cw, &q, 0.001, Engine::Auto).unwrap();
    assert!((a.estimate - closed_truth).abs() < 1e-12);
}

#[test]
fn approximate_answers_over_the_completion() {
    let table = base_table();
    let open = complete_ti_table(&table, people_tail()).unwrap();
    let q = parse("Person(x)", &schema()).unwrap();
    let ans = approx_answers(&open, &q, 0.01).unwrap();
    // original people plus enough tail people to cover the mass
    assert!(ans.len() >= 4);
    let find = |n: i64| {
        ans.iter()
            .find(|a| a.tuple == vec![Value::int(n)])
            .map(|a| a.prob)
    };
    assert!((find(1).unwrap() - 0.9).abs() <= 0.01);
    assert!((find(10).unwrap() - 0.2).abs() <= 0.01);
    assert!((find(11).unwrap() - 0.1).abs() <= 0.01);
    assert_eq!(find(999), None);
}

#[test]
fn guarantee_vs_high_precision_ground_truth() {
    // ∃x Person(x) on the completed PDB has an analytically computable
    // probability: 1 − (1−.9)(1−.8)·∏_{i≥0}(1 − .2·.5^i).
    let table = base_table();
    let open = complete_ti_table(&table, people_tail()).unwrap();
    let mut none = 0.1 * 0.2;
    for i in 0..500 {
        none *= 1.0 - 0.2 * 0.5f64.powi(i);
    }
    let truth = 1.0 - none;
    let q = parse("exists x. Person(x)", &schema()).unwrap();
    for eps in [0.1, 0.01, 0.001, 0.0001] {
        let a = approx_prob_boolean(&open, &q, eps, Engine::Auto).unwrap();
        assert!(
            (a.estimate - truth).abs() <= eps,
            "eps {eps}: {} vs {truth}",
            a.estimate
        );
    }
}

#[test]
fn mixed_query_over_original_and_tail_facts() {
    let table = base_table();
    let open = complete_ti_table(&table, people_tail()).unwrap();
    // Person(1) ∧ Person(10): independent, .9 × .2
    let q = parse("Person(1) /\\ Person(10)", &schema()).unwrap();
    let a = approx_prob_boolean(&open, &q, 0.001, Engine::Auto).unwrap();
    assert!((a.estimate - 0.18).abs() <= 0.001);
    // negation across the boundary: Person(1) ∧ ¬Person(10)
    let q2 = parse("Person(1) /\\ !Person(10)", &schema()).unwrap();
    let a2 = approx_prob_boolean(&open, &q2, 0.001, Engine::Auto).unwrap();
    assert!((a2.estimate - 0.72).abs() <= 0.001);
}

#[test]
fn sampling_the_completion_matches_query_probabilities() {
    use infpdb::ti::sampler::TruncatedSampler;
    use infpdb_core::space::rand_core::SplitMix64;
    use infpdb_core::storage::InstanceStore;
    use infpdb_logic::Evaluator;

    let table = base_table();
    let open = complete_ti_table(&table, people_tail()).unwrap();
    let sampler = TruncatedSampler::new(&open, 1e-4).unwrap();
    let q = parse("exists x, y. Person(x) /\\ Person(y) /\\ x != y", &schema()).unwrap();
    let mut rng = SplitMix64::new(117);
    let n = 20_000;
    let mut hits = 0usize;
    for _ in 0..n {
        let world = sampler.sample(&mut rng);
        let store = InstanceStore::build(&world, sampler.table().interner(), &schema());
        if Evaluator::new(&store, &q).eval_sentence(&q).unwrap() {
            hits += 1;
        }
    }
    let freq = hits as f64 / n as f64;
    let a = approx_prob_boolean(&open, &q, 0.001, Engine::Auto).unwrap();
    assert!(
        (freq - a.estimate).abs() < 0.02,
        "sampled {freq} vs evaluated {}",
        a.estimate
    );
}
