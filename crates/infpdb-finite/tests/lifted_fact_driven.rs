//! Differential tests: lifted evaluation as `prob_hierarchical` runs it —
//! domain built on demand, single-atom projects answered from the atom's
//! facts — against the generic safe-plan evaluator over the full
//! `adom(table) ∪ adom(Q)` domain.
//!
//! The two must agree to the last bit: a value without a matching fact
//! adds `ln_1p(−0) = −0.0` to the compensated sum, which changes nothing,
//! and the facts are visited in the domain's order. Small tables are
//! also checked against brute-force world enumeration.

use infpdb_core::fact::Fact;
use infpdb_core::schema::{Relation, Schema};
use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use infpdb_core::value::Value;
use infpdb_finite::lifted::{eval_plan, prob_hierarchical};
use infpdb_finite::TiTable;
use infpdb_logic::ast::Formula;
use infpdb_logic::normal::as_cq;
use infpdb_logic::parse;
use infpdb_logic::safety::safe_plan;
use proptest::prelude::*;

/// Values the random facts range over; constants up to `CONSTS` also
/// reach outside the active domain.
const VALUES: u64 = 6;
const CONSTS: u64 = 8;

/// A random t.i. table over `{R/1, S/2, T/1}` with up to `facts` facts
/// (duplicates are skipped); probabilities are 0, 1 or drawn from (0, 1).
fn random_table(rng: &mut SplitMix64, facts: usize) -> TiTable {
    let schema = Schema::from_relations([
        Relation::new("R", 1),
        Relation::new("S", 2),
        Relation::new("T", 1),
    ])
    .expect("static");
    let rels = [
        schema.rel_id("R").expect("declared"),
        schema.rel_id("S").expect("declared"),
        schema.rel_id("T").expect("declared"),
    ];
    let mut t = TiTable::new(schema);
    for _ in 0..facts {
        let value = |rng: &mut SplitMix64| Value::int((rng.next_u64() % VALUES) as i64);
        let fact = match rng.next_u64() % 5 {
            0 | 1 => Fact::new(rels[0], [value(rng)]),
            2 | 3 => Fact::new(rels[1], [value(rng), value(rng)]),
            _ => Fact::new(rels[2], [value(rng)]),
        };
        let p = match rng.next_u64() % 6 {
            0 => 0.0,
            1 => 1.0,
            _ => (rng.next_u64() % 999 + 1) as f64 / 1000.0,
        };
        let _ = t.add_fact(fact, p);
    }
    t
}

/// A random hierarchical query built from the atoms `R(x)`, `S(x, c)`,
/// `S(c, x)` and `S(x, x)`, alone, nested under an outer project, or
/// joined with an independent component.
fn random_query(rng: &mut SplitMix64) -> String {
    let c = rng.next_u64() % CONSTS;
    let d = rng.next_u64() % CONSTS;
    let shapes = [
        "exists x. R(x)".to_string(),
        format!("exists x. S(x, {c})"),
        format!("exists x. S({c}, x)"),
        "exists x. S(x, x)".to_string(),
        "exists x, y. S(x, y)".to_string(),
        "exists x. R(x) /\\ (exists y. S(x, y))".to_string(),
        format!("exists x. R(x) /\\ S(x, {c})"),
        format!("(exists x. S({c}, x)) /\\ (exists y. T(y))"),
        format!("(exists x. S(x, x)) /\\ R({d})"),
        format!("R({c}) /\\ S({c}, {d})"),
    ];
    shapes[(rng.next_u64() % shapes.len() as u64) as usize].clone()
}

/// The generic evaluator over the eagerly built full domain: the active
/// domain ascending, then the query's constants outside it.
fn generic(query: &Formula, table: &TiTable) -> f64 {
    let plan = safe_plan(&as_cq(query).expect("a CQ")).expect("hierarchical");
    let mut domain: Vec<Value> = table.active_domain().into_iter().collect();
    for c in infpdb_logic::vars::constants(query) {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    eval_plan(&plan, table, &domain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `prob_hierarchical` is bit-for-bit the generic evaluator, and on
    /// tables small enough to enumerate it matches the world semantics.
    #[test]
    fn fact_driven_lifted_matches_generic_plan_bit_for_bit(
        seed in 0u64..u64::MAX,
        facts in 0usize..24,
    ) {
        let mut rng = SplitMix64::new(seed);
        let table = random_table(&mut rng, facts);
        let qs = random_query(&mut rng);
        let query = parse(&qs, table.schema()).expect("generated query parses");

        let lifted = prob_hierarchical(&query, &table).expect("hierarchical");
        let reference = generic(&query, &table);
        prop_assert!(lifted.to_bits() == reference.to_bits(),
            "{}: lifted {} vs generic {} on {} facts", qs, lifted, reference, table.len());

        if table.len() <= 12 {
            let brute = table.worlds().expect("small").prob_boolean(&query).expect("sentence");
            prop_assert!((lifted - brute).abs() < 1e-12,
                "{}: lifted {} vs brute force {}", qs, lifted, brute);
        }
    }
}

#[test]
fn constants_outside_the_active_domain_project_to_zero() {
    let mut rng = SplitMix64::new(7);
    let table = random_table(&mut rng, 16);
    for qs in ["exists x. S(x, 99)", "exists x. S(99, x)"] {
        let query = parse(qs, table.schema()).expect("static query");
        let p = prob_hierarchical(&query, &table).expect("hierarchical");
        assert_eq!(p, 0.0, "{qs}");
        assert_eq!(p.to_bits(), generic(&query, &table).to_bits(), "{qs}");
    }
}
