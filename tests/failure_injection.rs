//! Failure-injection integration tests: every user-facing error path
//! produces a typed error, never a panic or silent nonsense.

use infpdb::finite::{BidTable, TiTable};
use infpdb::logic::parse;
use infpdb::math::series::{GeometricSeries, HarmonicSeries};
use infpdb::ti::construction::CountableTiPdb;
use infpdb::ti::enumerator::FactSupply;
use infpdb_core::fact::Fact;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::value::Value;

fn schema() -> Schema {
    Schema::from_relations([Relation::new("R", 1)]).unwrap()
}

fn rfact(n: i64) -> Fact {
    Fact::new(RelId(0), [Value::int(n)])
}

#[test]
fn divergent_series_rejected_everywhere() {
    let divergent =
        || FactSupply::unary_over_naturals(schema(), RelId(0), HarmonicSeries::new(1.0).unwrap());
    // construction
    assert!(CountableTiPdb::new(divergent()).is_err());
    // completion of a valid table with a divergent tail
    let t = TiTable::from_facts(schema(), [(rfact(1), 0.5)]).unwrap();
    let tail = FactSupply::from_fn(
        schema(),
        |i| rfact(100 + i as i64),
        HarmonicSeries::new(0.5).unwrap(),
    );
    assert!(infpdb::openworld::independent_facts::complete_ti_table(&t, tail).is_err());
}

#[test]
fn probabilities_outside_unit_interval_rejected() {
    let mut t = TiTable::new(schema());
    assert!(t.add_fact(rfact(1), -0.1).is_err());
    assert!(t.add_fact(rfact(1), 1.1).is_err());
    assert!(t.add_fact(rfact(1), f64::NAN).is_err());
    assert!(t.add_fact(rfact(1), f64::INFINITY).is_err());
    // still usable after rejected inserts
    assert!(t.add_fact(rfact(1), 0.5).is_ok());
    assert_eq!(t.len(), 1);
}

#[test]
fn malformed_queries_rejected() {
    let s = schema();
    for bad in ["R(", "R(x", "exists . R(x)", "R(x) /\\", "Q(x)", "R(x, y)"] {
        assert!(parse(bad, &s).is_err(), "{bad:?} should fail to parse");
    }
}

#[test]
fn free_variable_queries_rejected_by_boolean_apis() {
    let s = schema();
    let t = TiTable::from_facts(s.clone(), [(rfact(1), 0.5)]).unwrap();
    let free = parse("R(x)", &s).unwrap();
    assert!(infpdb::finite::engine::prob_boolean(&free, &t).is_err());
    let pdb = CountableTiPdb::new(FactSupply::unary_over_naturals(
        s,
        RelId(0),
        GeometricSeries::new(0.5, 0.5).unwrap(),
    ))
    .unwrap();
    assert!(infpdb::query::approx::approx_prob_boolean(
        &pdb,
        &free,
        0.1,
        infpdb::query::Engine::Auto
    )
    .is_err());
}

#[test]
fn tolerances_outside_proposition_6_1_range_rejected() {
    let pdb = CountableTiPdb::new(FactSupply::unary_over_naturals(
        schema(),
        RelId(0),
        GeometricSeries::new(0.5, 0.5).unwrap(),
    ))
    .unwrap();
    let q = parse("exists x. R(x)", pdb.schema()).unwrap();
    for eps in [0.0, -0.1, 0.5, 0.9, 1.5, f64::NAN] {
        assert!(
            infpdb::query::approx::approx_prob_boolean(&pdb, &q, eps, infpdb::query::Engine::Auto)
                .is_err(),
            "eps = {eps} must be rejected"
        );
    }
}

#[test]
fn overfull_blocks_rejected() {
    let s = Schema::from_relations([Relation::new("KV", 2)]).unwrap();
    let kv = |k: i64, v: i64| Fact::new(RelId(0), [Value::int(k), Value::int(v)]);
    assert!(BidTable::from_blocks(s.clone(), [vec![(kv(1, 0), 0.7), (kv(1, 1), 0.6)]],).is_err());
    // duplicate fact across blocks
    assert!(BidTable::from_blocks(s, [vec![(kv(1, 0), 0.2)], vec![(kv(1, 0), 0.2)]],).is_err());
}

#[test]
fn world_enumeration_guards_explode_gracefully() {
    let t = TiTable::from_facts(schema(), (0..30).map(|i| (rfact(i), 0.5))).unwrap();
    let err = t.worlds().unwrap_err();
    assert!(err.to_string().contains("2^30"));
}

#[test]
fn schema_violations_rejected() {
    let mut s = schema();
    assert!(s.add_relation("R", 2).is_err()); // duplicate name
    assert!(s.add_relation("", 1).is_err()); // empty name
                                             // arity mismatch at fact construction
    assert!(Fact::checked(
        &s,
        &infpdb_core::universe::Naturals,
        RelId(0),
        [Value::int(1), Value::int(2)],
    )
    .is_err());
}

#[test]
fn fact_lookup_misses_are_errors_not_zeros() {
    // Distinguishing "probability 0" from "not in the enumeration" matters:
    // locate failures surface as FactNotFound.
    let pdb = CountableTiPdb::new(FactSupply::unary_over_naturals(
        schema(),
        RelId(0),
        GeometricSeries::new(0.5, 0.5).unwrap(),
    ))
    .unwrap();
    let err = pdb.marginal(&rfact(-5), 100).unwrap_err();
    assert!(matches!(err, infpdb::ti::TiError::FactNotFound { .. }));
}

#[test]
fn non_injective_enumerations_detected() {
    let dup = FactSupply::from_fn(
        schema(),
        |_| rfact(7),
        GeometricSeries::new(0.5, 0.5).unwrap(),
    );
    assert!(dup.check_injective(5).is_err());
    // and truncation through the table layer catches it too
    let pdb = CountableTiPdb::new(dup).unwrap(); // construction can't see it…
    assert!(pdb.truncate(5).is_err()); // …but materialization does
}
