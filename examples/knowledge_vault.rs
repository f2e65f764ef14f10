//! Open-world knowledge bases: λ-completions (OpenPDB) vs convergent-series
//! completions.
//!
//! The paper's Section 1 motivates tuple-independent PDBs with web-scale
//! knowledge bases (Knowledge Vault, NELL, DeepDive); Section 5 positions
//! the infinite completion as the generalization of Ceylan et al.'s
//! OpenPDBs, whose fixed finite universe caps the open world. This example
//! builds a toy KB, applies **both** semantics, and shows where they agree
//! (finite-universe queries: interval vs point inside it) and where only
//! the infinite completion has anything to say (entities outside the
//! OpenPDB universe).
//!
//! Run with `cargo run --example knowledge_vault`.

use infpdb::finite::TiTable;
use infpdb::openworld::independent_facts::complete_ti_table;
use infpdb::openworld::LambdaCompletion;
use infpdb::query::approx::approx_prob_boolean;
use infpdb::query::Engine;
use infpdb::ti::enumerator::FactSupply;
use infpdb_core::fact::Fact;
use infpdb_core::schema::{Relation, Schema};
use infpdb_core::universe::FiniteUniverse;
use infpdb_core::value::Value;
use infpdb_logic::parse;
use infpdb_math::series::{ScaledSeries, WordLengthSeries};

fn main() {
    // A binary "extracted triple" relation: BornIn(person, city), with
    // extraction confidences as marginal probabilities.
    let schema = Schema::from_relations([Relation::new("BornIn", 2)]).expect("fresh schema");
    let born = schema.rel_id("BornIn").expect("BornIn");
    let triple = |p: &str, c: &str| Fact::new(born, [Value::str(p), Value::str(c)]);
    let kb = TiTable::from_facts(
        schema.clone(),
        [
            (triple("turing", "london"), 0.96),
            (triple("goedel", "bruenn"), 0.91),
            (triple("noether", "erlangen"), 0.88),
            (triple("turing", "cambridge"), 0.07), // a noisy extraction
        ],
    )
    .expect("valid KB");

    // ── OpenPDB: finite universe of known entities, threshold λ ──────────
    let entities = FiniteUniverse::new(
        [
            "turing",
            "goedel",
            "noether",
            "london",
            "bruenn",
            "erlangen",
            "cambridge",
        ]
        .map(Value::str),
    );
    let lambda = LambdaCompletion::new(kb.clone(), &entities, 0.02).expect("λ-completion");
    println!(
        "OpenPDB: {} candidate facts at λ = {}",
        lambda.candidates().len(),
        lambda.lambda()
    );

    let q = parse("exists x. BornIn('goedel', x)", &schema).expect("query");
    let iv = lambda.prob_interval(&q).expect("UCQ interval");
    println!("OpenPDB:  P(Gödel has a birthplace) ∈ {iv}");

    // ── Infinite completion: every string is a possible entity ───────────
    // Tail: BornIn(w, w') over pairs of strings, enumerated through one
    // string code split by the pairing function, word-length-decaying mass.
    let tail_schema = schema.clone();
    let tail = FactSupply::from_fn(
        schema.clone(),
        move |i| {
            let (a, b) = infpdb::math::pairing::unpair(i as u64 + 1);
            Fact::new(
                tail_schema.rel_id("BornIn").expect("BornIn"),
                [
                    Value::str(format!("e{}", infpdb::math::pairing::nat_to_string(a))),
                    Value::str(format!("e{}", infpdb::math::pairing::nat_to_string(b))),
                ],
            )
        },
        ScaledSeries::new(WordLengthSeries::new(2).expect("series"), 0.05).expect("scaled"),
    );
    let open = complete_ti_table(&kb, tail).expect("completion exists");

    let a = approx_prob_boolean(&open, &q, 0.01, Engine::Auto).expect("Prop 6.1");
    println!(
        "infinite: P(Gödel has a birthplace) = {:.4} ± {} — inside the OpenPDB interval: {}",
        a.estimate,
        a.eps,
        iv.widen(a.eps).contains(a.estimate)
    );

    // A query about an entity outside the OpenPDB universe: the λ-model
    // cannot even phrase it (its universe is closed); the infinite
    // completion assigns it positive probability.
    let unknown = parse("exists x. BornIn('e0', x)", &schema).expect("query");
    let a2 = approx_prob_boolean(&open, &unknown, 0.005, Engine::Auto).expect("Prop 6.1");
    println!(
        "infinite: P(unknown entity e0 has a birthplace) = {:.4} ± {} (> 0: truly open world)",
        a2.estimate, a2.eps
    );
    assert!(a2.estimate > 0.0);

    // Noisy-extraction cleanup: probability Turing has two birthplaces —
    // the kind of implausibility a downstream consumer would threshold on.
    let dup = parse(
        "exists x, y. BornIn('turing', x) /\\ BornIn('turing', y) /\\ x != y",
        &schema,
    )
    .expect("query");
    let a3 = approx_prob_boolean(&open, &dup, 0.01, Engine::Auto).expect("Prop 6.1");
    println!(
        "infinite: P(Turing has ≥ 2 birthplaces) = {:.4} ± {}",
        a3.estimate, a3.eps
    );
}
