//! Tests for per-answer lineage (provenance-aware answer marginals).

use infpdb_core::fact::Fact;
use infpdb_core::schema::{Relation, Schema};
use infpdb_core::value::Value;
use infpdb_finite::lineage::{answer_lineages, Lineage};
use infpdb_finite::{shannon, TiTable};
use infpdb_logic::parse;

fn table() -> TiTable {
    let s = Schema::from_relations([Relation::new("R", 1), Relation::new("S", 2)]).unwrap();
    let r = s.rel_id("R").unwrap();
    let s2 = s.rel_id("S").unwrap();
    TiTable::from_facts(
        s,
        [
            (Fact::new(r, [Value::int(1)]), 0.5),
            (Fact::new(r, [Value::int(2)]), 0.4),
            (Fact::new(s2, [Value::int(1), Value::int(2)]), 0.3),
            (Fact::new(s2, [Value::int(2), Value::int(2)]), 0.9),
        ],
    )
    .unwrap()
}

#[test]
fn per_answer_lineage_is_the_ground_sentence_lineage() {
    let t = table();
    let q = parse("R(x)", t.schema()).unwrap();
    let ls = answer_lineages(&q, &t).unwrap();
    assert_eq!(ls.len(), 2);
    for (tuple, l) in &ls {
        match l {
            Lineage::Var(id) => {
                let fact = t.interner().resolve(*id);
                assert_eq!(&fact.args()[0], &tuple[0]);
            }
            other => panic!("expected a bare variable, got {other:?}"),
        }
    }
}

#[test]
fn answer_probabilities_match_engine_marginals() {
    let t = table();
    let q = parse("exists y. S(x, y) /\\ R(x)", t.schema()).unwrap();
    let ls = answer_lineages(&q, &t).unwrap();
    let marginals = infpdb_finite::engine::answer_marginals(&q, &t).unwrap();
    assert_eq!(ls.len(), marginals.len());
    for ((tl, l), (tm, pm)) in ls.iter().zip(marginals.iter()) {
        assert_eq!(tl, tm);
        let p = shannon::probability(l, &|id| t.prob(id));
        assert!((p - pm).abs() < 1e-12);
    }
}

#[test]
fn boolean_query_degenerates() {
    let t = table();
    let q = parse("exists x. R(x)", t.schema()).unwrap();
    let ls = answer_lineages(&q, &t).unwrap();
    assert_eq!(ls.len(), 1);
    assert!(ls[0].0.is_empty());
    let never = parse("false", t.schema()).unwrap();
    assert!(answer_lineages(&never, &t).unwrap().is_empty());
}

#[test]
fn shared_lineage_structure_across_answers() {
    // answers of S(x, 2) share nothing; answers of
    // "R(x) /\ exists y. S(y, 2)" share the ∃-disjunct — visible in the
    // lineage as a common subformula
    let t = table();
    let q = parse("R(x) /\\ exists y. S(y, 2)", t.schema()).unwrap();
    let ls = answer_lineages(&q, &t).unwrap();
    assert_eq!(ls.len(), 2);
    let shared: Vec<Lineage> = ls
        .iter()
        .map(|(_, l)| match l {
            Lineage::And(parts) => parts
                .iter()
                .find(|p| matches!(p, Lineage::Or(_)))
                .expect("∃-disjunct present")
                .clone(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(shared[0], shared[1]);
}
