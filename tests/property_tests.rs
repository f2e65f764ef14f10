//! Property-based tests (proptest) on the library's core invariants.

use infpdb::finite::TiTable;
use infpdb::finite::{engine, worlds};
use infpdb::logic::parse;
use infpdb::math::series::{FiniteSeries, GeometricSeries, ProbSeries};
use infpdb::math::{LogProb, ProbInterval};
use infpdb::query::Engine;
use infpdb_core::fact::{Fact, FactId};
use infpdb_core::instance::Instance;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::value::Value;
use proptest::prelude::*;

fn prob() -> impl Strategy<Value = f64> {
    (0u32..=1000).prop_map(|i| i as f64 / 1000.0)
}

fn strict_prob() -> impl Strategy<Value = f64> {
    (1u32..1000).prop_map(|i| i as f64 / 1000.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ── Series ───────────────────────────────────────────────────────────

    #[test]
    fn finite_series_tails_are_exact_suffix_sums(terms in prop::collection::vec(prob(), 0..20)) {
        let s = FiniteSeries::new(terms.clone()).unwrap();
        for i in 0..=terms.len() {
            let suffix: f64 = terms[i.min(terms.len())..].iter().sum();
            let bound = s.tail_upper(i).finite().unwrap();
            prop_assert!((bound - suffix).abs() < 1e-9);
        }
        // partial + tail brackets the (equal) total
        let (lo, hi) = s.total_bounds(terms.len() / 2).unwrap();
        let total: f64 = terms.iter().sum();
        prop_assert!(lo <= total + 1e-9 && total <= hi + 1e-9);
    }

    #[test]
    fn geometric_tail_bound_dominates_partial_sums(
        first in strict_prob(),
        ratio in (1u32..99).prop_map(|i| i as f64 / 100.0),
        at in 0usize..30,
    ) {
        let g = GeometricSeries::new(first, ratio).unwrap();
        let bound = g.tail_upper(at).finite().unwrap();
        let sampled: f64 = (at..at + 500).map(|i| g.term(i)).sum();
        prop_assert!(sampled <= bound * (1.0 + 1e-12));
    }

    // ── LogProb / ProbInterval ───────────────────────────────────────────

    #[test]
    fn logprob_mul_add_match_linear_arithmetic(a in prob(), b in prob()) {
        let la = LogProb::from_prob(a).unwrap();
        let lb = LogProb::from_prob(b).unwrap();
        prop_assert!((la.mul(lb).prob() - a * b).abs() < 1e-12);
        let sum = (a + b).min(1.0);
        prop_assert!((la.add(lb).prob() - sum).abs() < 1e-9);
        prop_assert!((la.complement().prob() - (1.0 - a)).abs() < 1e-12);
    }

    #[test]
    fn interval_operations_enclose_pointwise_results(
        alo in prob(), awidth in prob(), blo in prob(), bwidth in prob(),
        apoint in prob(), bpoint in prob(),
    ) {
        let a = ProbInterval::new(alo, (alo + awidth).min(1.0)).unwrap();
        let b = ProbInterval::new(blo, (blo + bwidth).min(1.0)).unwrap();
        // pick points inside each
        let x = a.lo() + apoint * a.width();
        let y = b.lo() + bpoint * b.width();
        prop_assert!(a.mul(&b).contains(x * y));
        prop_assert!(a.complement().contains(1.0 - x));
        prop_assert!(a.add_disjoint(&b).contains((x + y).min(1.0)));
    }

    // ── Instances ────────────────────────────────────────────────────────

    #[test]
    fn instance_algebra_matches_btreeset_reference(
        xs in prop::collection::vec(0u32..40, 0..25),
        ys in prop::collection::vec(0u32..40, 0..25),
    ) {
        use std::collections::BTreeSet;
        let a = Instance::from_ids(xs.iter().map(|&i| FactId(i)));
        let b = Instance::from_ids(ys.iter().map(|&i| FactId(i)));
        let sa: BTreeSet<u32> = xs.iter().copied().collect();
        let sb: BTreeSet<u32> = ys.iter().copied().collect();
        let to_set = |d: &Instance| -> BTreeSet<u32> { d.iter().map(|f| f.0).collect() };
        prop_assert_eq!(to_set(&a.union(&b)), &sa | &sb);
        prop_assert_eq!(to_set(&a.intersection(&b)), &sa & &sb);
        prop_assert_eq!(to_set(&a.difference(&b)), &sa - &sb);
        prop_assert_eq!(a.is_subset_of(&b), sa.is_subset(&sb));
        prop_assert_eq!(a.is_disjoint_from(&b), sa.is_disjoint(&sb));
        prop_assert_eq!(a.size(), sa.len());
    }

    // ── Finite t.i. tables ───────────────────────────────────────────────

    #[test]
    fn world_probabilities_sum_to_one(ps in prop::collection::vec(prob(), 0..10)) {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        let t = TiTable::from_facts(
            schema,
            ps.iter().enumerate().map(|(i, &p)| {
                (Fact::new(RelId(0), [Value::int(i as i64)]), p)
            }),
        ).unwrap();
        let worlds = t.worlds().unwrap();
        prop_assert!((worlds.space().total_mass() - 1.0).abs() < 1e-9);
        // marginals recovered
        for (id, _, p) in t.iter() {
            let m = worlds.space().prob_where(|d| d.contains(id));
            prop_assert!((m - p).abs() < 1e-9);
        }
        // size distribution consistency
        let dist = t.size_distribution();
        let mean: f64 = dist.iter().enumerate().map(|(k, q)| k as f64 * q).sum();
        prop_assert!((mean - t.expected_size()).abs() < 1e-9);
    }

    #[test]
    fn lineage_inference_matches_brute_force_on_random_marginals(
        ps in prop::collection::vec(prob(), 1..6),
        qs in prop::collection::vec(prob(), 1..6),
    ) {
        let schema = Schema::from_relations(
            [Relation::new("R", 1), Relation::new("S", 1)],
        ).unwrap();
        let mut t = TiTable::new(schema);
        for (i, &p) in ps.iter().enumerate() {
            t.add_fact(Fact::new(RelId(0), [Value::int(i as i64)]), p).unwrap();
        }
        for (i, &p) in qs.iter().enumerate() {
            t.add_fact(Fact::new(RelId(1), [Value::int(i as i64)]), p).unwrap();
        }
        for query in [
            "exists x. R(x) /\\ S(x)",
            "forall x. (R(x) -> S(x))",
            "exists x. R(x) /\\ !S(x)",
        ] {
            let q = parse(query, t.schema()).unwrap();
            let fast = engine::prob_lineage(&q, &t).unwrap();
            let slow = worlds::prob_boolean_brute(&q, &t).unwrap();
            prop_assert!((fast - slow).abs() < 1e-9, "{}: {} vs {}", query, fast, slow);
        }
    }

    // ── Truncation / Proposition 6.1 ─────────────────────────────────────

    #[test]
    fn truncation_certificates_hold_for_random_geometric_series(
        first in strict_prob(),
        ratio in (10u32..95).prop_map(|i| i as f64 / 100.0),
        eps_m in (1u32..490).prop_map(|i| i as f64 / 1000.0),
    ) {
        let g = GeometricSeries::new(first, ratio).unwrap();
        let t = infpdb::math::truncation::for_tolerance(&g, eps_m).unwrap();
        prop_assert!(t.tail_mass <= 0.5 + 1e-12);
        prop_assert!(t.alpha.exp() <= 1.0 + eps_m + 1e-9);
        prop_assert!((-t.alpha).exp() >= 1.0 - eps_m - 1e-9);
        // the certified tail really bounds the series tail
        let sampled: f64 = (t.n..t.n + 500).map(|i| g.term(i)).sum();
        prop_assert!(sampled <= t.tail_mass * (1.0 + 1e-9));
    }

    // ── Completions (Theorem 5.5) ────────────────────────────────────────

    #[test]
    fn completion_condition_on_random_ti_seeds(
        ps in prop::collection::vec(strict_prob(), 1..5),
        tail_first in (1u32..500).prop_map(|i| i as f64 / 1000.0),
    ) {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        let table = TiTable::from_facts(
            schema.clone(),
            ps.iter().enumerate().map(|(i, &p)| {
                (Fact::new(RelId(0), [Value::int(i as i64)]), p)
            }),
        ).unwrap();
        let tail = infpdb::ti::enumerator::FactSupply::from_fn(
            schema,
            |i| Fact::new(RelId(0), [Value::int(1000 + i as i64)]),
            GeometricSeries::new(tail_first, 0.5).unwrap(),
        );
        let open = infpdb::openworld::independent_facts::complete_ti_table(&table, tail)
            .unwrap();
        // original marginals preserved exactly
        for (i, &p) in ps.iter().enumerate() {
            prop_assert!((open.marginal_at(i) - p).abs() < 1e-12);
        }
        // queries over original facts agree with the closed world within ε
        let q = parse("exists x. R(x)", open.schema()).unwrap();
        let closed = worlds::prob_boolean_brute(&q, &table).unwrap();
        let a = infpdb::query::approx::approx_prob_boolean(
            &open, &q, 0.01, Engine::Auto,
        ).unwrap();
        // the tail only *adds* R-facts, so open-world P is ≥ closed-world P
        prop_assert!(a.estimate + 0.01 >= closed);
    }

    // ── Parser robustness ────────────────────────────────────────────────

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "[ -~]{0,60}") {
        let schema = Schema::from_relations(
            [Relation::new("R", 1), Relation::new("S", 2)],
        ).unwrap();
        // must return Ok or Err, never panic or hang
        let _ = parse(&s, &schema);
    }

    #[test]
    fn parser_never_panics_on_query_like_soup(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "R(", ")", "x", ",", "1", "'a'", "/\\", "\\/", "!", "=", "!=",
                "exists", "forall", ".", "S(", "true", "false", "->", " ",
            ]),
            0..25,
        ),
    ) {
        let schema = Schema::from_relations(
            [Relation::new("R", 1), Relation::new("S", 2)],
        ).unwrap();
        let s: String = parts.concat();
        let _ = parse(&s, &schema);
    }

    // ── Parser/printer round trip ────────────────────────────────────────

    #[test]
    fn display_parse_round_trip(seed in 0u64..500) {
        // generate a random formula, print it, re-parse, compare answers on
        // a fixed instance
        use infpdb_core::space::rand_core::SplitMix64;
        let schema = Schema::from_relations(
            [Relation::new("R", 1), Relation::new("S", 2)],
        ).unwrap();
        let mut rng = SplitMix64::new(seed);
        let f = random_formula(&mut rng, 3, &mut vec![]);
        let text = f.display(&schema).to_string();
        let reparsed = parse(&text, &schema);
        prop_assert!(reparsed.is_ok(), "failed to reparse {:?}", text);
        // the parser flattens nested And/Or chains; compare modulo that
        prop_assert_eq!(flatten(&reparsed.unwrap()), flatten(&f));
    }
}

/// Flattens nested `And`/`Or` chains into canonical n-ary form.
fn flatten(f: &infpdb::logic::Formula) -> infpdb::logic::Formula {
    use infpdb::logic::Formula;
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(..) => f.clone(),
        Formula::Not(g) => flatten(g).not(),
        Formula::And(gs) => {
            let mut out = Vec::new();
            for g in gs {
                match flatten(g) {
                    Formula::And(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            Formula::And(out)
        }
        Formula::Or(gs) => {
            let mut out = Vec::new();
            for g in gs {
                match flatten(g) {
                    Formula::Or(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            Formula::Or(out)
        }
        Formula::Exists(v, g) => Formula::Exists(v.clone(), Box::new(flatten(g))),
        Formula::Forall(v, g) => Formula::Forall(v.clone(), Box::new(flatten(g))),
    }
}

/// Random closed-ish formula generator for the round-trip test.
fn random_formula(
    rng: &mut infpdb_core::space::rand_core::SplitMix64,
    depth: usize,
    scope: &mut Vec<String>,
) -> infpdb::logic::Formula {
    use infpdb::logic::{Formula, Term};
    use infpdb_core::space::rand_core::RngCore;
    let term = |rng: &mut infpdb_core::space::rand_core::SplitMix64, scope: &[String]| -> Term {
        if !scope.is_empty() && rng.next_u64().is_multiple_of(2) {
            Term::Var(scope[(rng.next_u64() as usize) % scope.len()].clone())
        } else {
            Term::Const(Value::int((rng.next_u64() % 5) as i64))
        }
    };
    let choice = rng.next_u64() % if depth == 0 { 3 } else { 7 };
    match choice {
        0 => Formula::atom(RelId(0), [term(rng, scope)]),
        1 => Formula::atom(RelId(1), [term(rng, scope), term(rng, scope)]),
        2 => Formula::Eq(term(rng, scope), term(rng, scope)),
        3 => random_formula(rng, depth - 1, scope).not(),
        4 => {
            let a = random_formula(rng, depth - 1, scope);
            let b = random_formula(rng, depth - 1, scope);
            // avoid And/Or flattening ambiguity in equality comparison by
            // wrapping sides distinctly
            Formula::And(vec![a, b])
        }
        5 => {
            let a = random_formula(rng, depth - 1, scope);
            let b = random_formula(rng, depth - 1, scope);
            Formula::Or(vec![a, b])
        }
        _ => {
            let v = format!("v{}", scope.len());
            scope.push(v.clone());
            let body = random_formula(rng, depth - 1, scope);
            scope.pop();
            if rng.next_u64().is_multiple_of(2) {
                Formula::Exists(v, Box::new(body))
            } else {
                Formula::Forall(v, Box::new(body))
            }
        }
    }
}
