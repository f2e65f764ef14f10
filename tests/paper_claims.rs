//! One integration test per formal claim of the paper, numbered as in the
//! text. EXPERIMENTS.md indexes these against the benchmark suite.

use infpdb::finite::TiTable;
use infpdb::logic::parse;
use infpdb::math::series::{GeometricSeries, HarmonicSeries, ProbSeries, ZetaSeries};
use infpdb::query::Engine;
use infpdb::ti::construction::CountableTiPdb;
use infpdb::ti::enumerator::FactSupply;
use infpdb_core::fact::{Fact, FactId};
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::value::Value;

fn unary_schema() -> Schema {
    Schema::from_relations([Relation::new("R", 1)]).unwrap()
}

fn geometric_pdb() -> CountableTiPdb {
    CountableTiPdb::new(FactSupply::unary_over_naturals(
        unary_schema(),
        RelId(0),
        GeometricSeries::new(0.5, 0.5).unwrap(),
    ))
    .unwrap()
}

#[test]
fn fact_2_1_answers_live_in_the_active_domain() {
    // φ(D) ⊆ (adom(D) ∪ adom(φ))^k for finite answers.
    use infpdb_core::storage::InstanceStore;
    use infpdb_logic::Evaluator;
    let schema = Schema::from_relations([Relation::new("E", 2)]).unwrap();
    let e = schema.rel_id("E").unwrap();
    let facts = [
        Fact::new(e, [Value::int(1), Value::int(2)]),
        Fact::new(e, [Value::int(2), Value::int(3)]),
    ];
    let store = InstanceStore::from_facts(facts.iter(), &schema);
    let q = parse("exists y. E(x, y) \\/ x = 7", &schema).unwrap();
    let ev = Evaluator::new(&store, &q);
    let answers = ev.answers(&q);
    let adom_plus_consts: Vec<Value> = ev.domain().to_vec();
    for t in &answers {
        assert!(adom_plus_consts.contains(&t[0]));
    }
    // and the formula constant 7 is indeed answerable
    assert!(answers.contains(&vec![Value::int(7)]));
}

#[test]
fn lemma_2_3_distributive_law() {
    // ∏(1 + a_i) = Σ_{J finite} ∏_{j∈J} a_j on finite slices.
    for terms in [
        vec![0.3, -0.2, 0.5],
        vec![0.9; 6],
        vec![-0.5, 0.25, -0.125, 0.0625],
    ] {
        let (lhs, rhs) = infpdb::math::products::distributive_law_sides(&terms);
        assert!((lhs - rhs).abs() < 1e-9, "{terms:?}: {lhs} vs {rhs}");
    }
}

#[test]
fn equation_6_size_tail_probabilities_vanish() {
    // lim P(S_D ≥ n) = 0 — on the truncated materialization.
    let pdb = geometric_pdb();
    let table = pdb.truncate(16).unwrap();
    let dist = table.size_distribution();
    let tail = |n: usize| -> f64 { dist.iter().skip(n).sum() };
    assert!(tail(0) > 0.999);
    let mut prev = tail(0);
    for n in 1..10 {
        let t = tail(n);
        assert!(t <= prev + 1e-12);
        prev = t;
    }
    assert!(tail(10) < 1e-3);
}

#[test]
fn proposition_3_4_positive_marginals_are_countable() {
    // In any materialized PDB the set F_ω is finite; the witness machinery
    // is fact_marginals.
    let pdb = geometric_pdb().truncate(12).unwrap().worlds().unwrap();
    let marginals = infpdb_core::size::fact_marginals(pdb.space());
    assert!(marginals.len() <= 12);
    assert!(marginals.values().all(|&p| p > 0.0));
}

#[test]
fn lemma_4_2_and_4_4_tuple_independence_realized() {
    // P(⋂ E_f) = ∏ P(E_f) for finite fact sets of the construction.
    let pdb = geometric_pdb();
    use infpdb_core::event::Event;
    let e0 = Event::fact(FactId(0));
    let e1 = Event::fact(FactId(1));
    let e2 = Event::fact(FactId(2));
    let joint = pdb
        .prob_event_exact(&e0.clone().and(e1.clone()).and(e2.clone()), 8)
        .unwrap();
    let product = pdb.prob_event_exact(&e0, 8).unwrap()
        * pdb.prob_event_exact(&e1, 8).unwrap()
        * pdb.prob_event_exact(&e2, 8).unwrap();
    assert!((joint - product).abs() < 1e-12);
    // and E_F events on disjoint fact sets are independent (Def 4.1)
    let f1 = Event::any_of([FactId(0), FactId(2)]);
    let f2 = Event::any_of([FactId(1), FactId(3)]);
    let joint2 = pdb
        .prob_event_exact(&f1.clone().and(f2.clone()), 8)
        .unwrap();
    let prod2 = pdb.prob_event_exact(&f1, 8).unwrap() * pdb.prob_event_exact(&f2, 8).unwrap();
    assert!((joint2 - prod2).abs() < 1e-12);
}

#[test]
fn theorem_4_8_existence_iff_convergence() {
    // convergent: exists
    assert!(CountableTiPdb::new(FactSupply::unary_over_naturals(
        unary_schema(),
        RelId(0),
        ZetaSeries::basel(),
    ))
    .is_ok());
    // divergent: rejected with a witness
    let err = CountableTiPdb::new(FactSupply::unary_over_naturals(
        unary_schema(),
        RelId(0),
        HarmonicSeries::new(1.0).unwrap(),
    ))
    .unwrap_err();
    assert!(err.to_string().contains("Theorem 4.8"));
}

#[test]
fn corollary_4_7_finite_expected_size() {
    let pdb = geometric_pdb();
    let (lo, hi) = pdb.expected_size_bounds(100).unwrap();
    assert!(lo <= 1.0 && 1.0 <= hi && hi.is_finite());
}

#[test]
fn example_3_3_infinite_expected_size() {
    let ex = infpdb::ti::counterexample::LazySizedPdb::example_3_3();
    // mass normalizes…
    assert!(ex.partial_mass(50_000) > 0.9999);
    // …but the expectation explodes
    assert!(ex.partial_moment(1, 40) > 1e6);
}

#[test]
fn proposition_4_9_size_envelope_contradiction() {
    // any FO view of a t.i. PDB has E(S) ≤ k·E(S_C) + c < ∞, while
    // Example 3.3 exceeds every finite bound
    let ex = infpdb::ti::counterexample::LazySizedPdb::example_3_3();
    for (k, c, e_sc) in [(2usize, 0usize, 1.0), (5, 10, 100.0), (10, 100, 1e6)] {
        let bound = infpdb::ti::counterexample::fo_view_expected_size_bound(k, c, e_sc);
        let mut n = 1;
        while ex.partial_moment(1, n) <= bound {
            n += 1;
            assert!(n < 100, "partial expectations must cross any bound");
        }
    }
}

#[test]
fn theorem_4_15_bid_existence_iff_convergence() {
    use infpdb::ti::bid::{BlockSupply, CountableBidPdb};
    let schema = Schema::from_relations([Relation::new("R", 2)]).unwrap();
    let convergent = BlockSupply::from_fn(
        schema.clone(),
        |i| {
            vec![(
                Fact::new(RelId(0), [Value::int(i as i64), Value::int(0)]),
                0.5f64.powi(i as i32 + 1),
            )]
        },
        GeometricSeries::new(0.5, 0.5).unwrap(),
    );
    assert!(CountableBidPdb::new(convergent, 8).is_ok());
    let divergent = BlockSupply::from_fn(
        schema,
        |i| {
            vec![(
                Fact::new(RelId(0), [Value::int(i as i64), Value::int(0)]),
                1.0 / (i + 1) as f64,
            )]
        },
        HarmonicSeries::new(1.0).unwrap(),
    );
    assert!(CountableBidPdb::new(divergent, 8).is_err());
}

#[test]
fn lemma_4_12_bid_independence_equivalence() {
    // For countable b.i.d. PDBs, condition (2) (independence of E_{B'}
    // for measurable subsets of distinct blocks) is equivalent to (2')
    // (independence of (E_f) for fact sets with ≤ 1 fact per block). We
    // check both formulations on a materialized finite b.i.d. space.
    use infpdb::finite::BidTable;
    use infpdb_core::event::Event;
    let schema = Schema::from_relations([Relation::new("KV", 2)]).unwrap();
    let kv = |k: i64, v: i64| Fact::new(RelId(0), [Value::int(k), Value::int(v)]);
    let t = BidTable::from_blocks(
        schema,
        [
            vec![(kv(1, 0), 0.3), (kv(1, 1), 0.4)],
            vec![(kv(2, 0), 0.6), (kv(2, 1), 0.2)],
        ],
    )
    .unwrap();
    let worlds = t.worlds().unwrap();
    let id = |k: i64, v: i64| t.interner().get(&kv(k, v)).unwrap();
    // (2'): single facts from distinct blocks are independent
    let f_a = Event::fact(id(1, 0));
    let f_b = Event::fact(id(2, 1));
    let joint = worlds.prob_event(&f_a.clone().and(f_b.clone()));
    assert!((joint - worlds.prob_event(&f_a) * worlds.prob_event(&f_b)).abs() < 1e-12);
    // (2): measurable *subsets* of distinct blocks (E_{B'} events, here
    // two-fact subsets) are independent too
    let b1 = Event::any_of([id(1, 0), id(1, 1)]);
    let b2 = Event::any_of([id(2, 0), id(2, 1)]);
    let joint2 = worlds.prob_event(&b1.clone().and(b2.clone()));
    assert!((joint2 - worlds.prob_event(&b1) * worlds.prob_event(&b2)).abs() < 1e-12);
    // while two facts *within* one block are exclusive, not independent
    let same = Event::fact(id(1, 0)).and(Event::fact(id(1, 1)));
    assert_eq!(worlds.prob_event(&same), 0.0);
}

#[test]
fn theorem_5_5_completion_condition() {
    use infpdb::finite::FinitePdb;
    use infpdb::openworld::independent_facts::complete_pdb;
    let schema = unary_schema();
    let rfact = |n: i64| Fact::new(RelId(0), [Value::int(n)]);
    // correlated original, closed under subsets/unions after closure repair
    let original = FinitePdb::from_worlds(
        schema.clone(),
        [
            (vec![rfact(1), rfact(2)], 0.5),
            (vec![rfact(1)], 0.2),
            (vec![rfact(2)], 0.2),
            (vec![], 0.1),
        ],
    )
    .unwrap();
    assert!(infpdb::openworld::closure::is_closed(&original));
    let tail = FactSupply::from_fn(
        schema,
        |i| Fact::new(RelId(0), [Value::int(100 + i as i64)]),
        GeometricSeries::new(0.3, 0.5).unwrap(),
    );
    let completed = complete_pdb(original, tail).unwrap();
    let worst = completed.verify_cc(64, 1e-9).unwrap();
    assert!(worst < 1e-9);
}

#[test]
fn proposition_6_1_additive_guarantee() {
    use infpdb::query::approx::approx_prob_boolean;
    let pdb = geometric_pdb();
    // ground truth via exact product
    let mut none = 1.0;
    for i in 0..2000 {
        none *= 1.0 - pdb.supply().prob(i);
    }
    let truth = 1.0 - none;
    let q = parse("exists x. R(x)", pdb.schema()).unwrap();
    for eps in [0.25, 0.05, 0.005] {
        let a = approx_prob_boolean(&pdb, &q, eps, Engine::Auto).unwrap();
        assert!(truth - eps <= a.estimate && a.estimate <= truth + eps);
    }
}

#[test]
fn proposition_6_1_claim_star() {
    // ∏(1−p_i) ≥ exp(−(3/2)Σp_i) for p_i < 1/2
    for series in [
        GeometricSeries::new(0.45, 0.5).unwrap(),
        GeometricSeries::new(0.01, 0.9).unwrap(),
    ] {
        let (prod, bound) = infpdb::math::products::claim_star_sides(&series, 1000);
        assert!(prod >= bound - 1e-12);
    }
}

#[test]
fn proposition_6_2_emptiness_dichotomy() {
    use infpdb::tm::reduction::{has_r_witness, prob_exists_r};
    use infpdb::tm::{RepresentedPdb, TuringMachine};
    // L(N) = ∅ ⟺ P(∃x R(x)) = 0
    let empty = RepresentedPdb::new(TuringMachine::rejects_all());
    assert!(has_r_witness(&empty, 300).is_none());
    assert_eq!(prob_exists_r(&empty, 40).unwrap().lo(), 0.0);
    let nonempty = RepresentedPdb::new(TuringMachine::accepts_strings_with_a_one());
    assert!(has_r_witness(&nonempty, 300).is_some());
    assert!(prob_exists_r(&nonempty, 40).unwrap().lo() > 0.0);
    // the representation has weight 1 as required
    let s = nonempty.supply();
    let (lo, hi) = s.total_bounds(50).unwrap();
    assert!(lo <= 1.0 && 1.0 <= hi);
}

#[test]
fn section_6_complexity_remark_n_of_eps() {
    use infpdb::query::budget::n_of_eps_profile;
    let geometric = geometric_pdb();
    let zeta = CountableTiPdb::new(FactSupply::unary_over_naturals(
        unary_schema(),
        RelId(0),
        ZetaSeries::basel(),
    ))
    .unwrap();
    let eps = [0.2, 0.02, 0.002];
    let pg = n_of_eps_profile(&geometric, &eps).unwrap();
    let pz = n_of_eps_profile(&zeta, &eps).unwrap();
    // log growth vs polynomial growth
    assert!(pg[2].1 < 40, "geometric n(0.002) = {}", pg[2].1);
    assert!(pz[2].1 > 400, "zeta n(0.002) = {}", pz[2].1);
}

#[test]
fn finite_pdbs_are_fo_definable_over_ti_finite_case() {
    // the classical finite fact the paper contrasts with Prop 4.9: here we
    // check a weaker executable instance — a correlated 2-world PDB is the
    // FO-view image of a t.i. PDB (standard construction with one switch
    // fact)
    use infpdb::logic::view::{FoView, ViewDef};
    let source = Schema::from_relations([Relation::new("W", 1)]).unwrap();
    let target = Schema::from_relations([Relation::new("R", 1)]).unwrap();
    let w = source.rel_id("W").unwrap();
    // t.i. source: a single switch fact W(0) with p = 0.3
    let ti = TiTable::from_facts(source.clone(), [(Fact::new(w, [Value::int(0)]), 0.3)]).unwrap();
    // view: R(x) ≡ (x = 1 ∧ W(0)) ∨ (x = 2 ∧ ¬W(0)) — worlds {R(1)} or {R(2)}
    let formula = parse("(x = 1 /\\ W(0)) \\/ (x = 2 /\\ !W(0))", &source).unwrap();
    let view = FoView::new(
        source,
        target.clone(),
        [ViewDef {
            target: target.rel_id("R").unwrap(),
            formula,
        }],
    )
    .unwrap();
    let worlds = ti.worlds().unwrap();
    let (image, interner) = view.pushforward(worlds.space(), ti.interner());
    // image: {R(1)} with 0.3, {R(2)} with 0.7 — a correlated (non-t.i.) PDB
    assert_eq!(image.support_size(), 2);
    let r = target.rel_id("R").unwrap();
    let r1 = interner.get(&Fact::new(r, [Value::int(1)])).unwrap();
    let p1 = image.prob_where(|d| d.contains(r1));
    assert!((p1 - 0.3).abs() < 1e-12);
}
