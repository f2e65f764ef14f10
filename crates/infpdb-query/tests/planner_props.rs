//! Property tests for the cost-based plan optimizer.
//!
//! Three contracts:
//!
//! * **Certified accuracy** — whatever strategy mix the optimizer picks
//!   for `Engine::Auto`, the answer stays within the certified additive
//!   tolerance of the exact forced-Shannon evaluation (both are
//!   ε-approximations of the same true probability, so they may differ
//!   by at most the sum of their certificates).
//! * **Determinism** — the plan choice and the answer bits are a pure
//!   function of (PDB, query, ε, knobs): identical across repeated
//!   derivations and across intra-query thread counts {1, 2, 4}. (The
//!   fixed-vs-stealing scheduler half of this contract lives at the
//!   serve layer, where schedulers exist: the saturation stage and
//!   `infpdb-serve`'s scheduler tests pin bit-equal answers there.)
//! * **α-invariance** — a bound-variable renaming of the query produces
//!   the *identical* plan: same strategies, costs, sample counts, and
//!   seeds (plans key on the normalized query fingerprint, so the plan
//!   cache may serve either spelling from one entry).

use infpdb_core::fact::Fact;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use infpdb_core::value::Value;
use infpdb_logic::parse;
use infpdb_math::series::GeometricSeries;
use infpdb_query::approx::approx_prob_boolean_par;
use infpdb_query::planner::{self, Engine, PlanKnobs, StrategyKind};
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::from_relations([Relation::new("R", 1), Relation::new("S", 2)]).expect("static schema")
}

/// A random PDB over `{R/1, S/2}`: a geometric unary supply or a finite
/// mixed supply, so safe, unsafe, and multi-relation plans all occur.
fn random_pdb(rng: &mut SplitMix64) -> CountableTiPdb {
    if rng.next_u64().is_multiple_of(2) {
        let first = 0.1 + (rng.next_u64() % 700) as f64 / 1000.0;
        let ratio = 0.2 + (rng.next_u64() % 500) as f64 / 1000.0;
        CountableTiPdb::new(FactSupply::unary_over_naturals(
            schema(),
            RelId(0),
            GeometricSeries::new(first, ratio).expect("parameters in range"),
        ))
        .expect("geometric series converges")
    } else {
        let n = 4 + (rng.next_u64() % 16) as i64;
        let mut pairs: Vec<(Fact, f64)> = Vec::new();
        for i in 1..=n {
            pairs.push((
                Fact::new(RelId(0), [Value::int(i)]),
                (rng.next_u64() % 999 + 1) as f64 / 1000.0,
            ));
            if rng.next_u64().is_multiple_of(3) {
                pairs.push((
                    Fact::new(RelId(1), [Value::int(i), Value::int((i % 4) + 1)]),
                    (rng.next_u64() % 999 + 1) as f64 / 1000.0,
                ));
            }
        }
        CountableTiPdb::new(FactSupply::from_vec(schema(), pairs).expect("distinct facts"))
            .expect("finite supplies converge")
    }
}

/// Queries spanning every planner verdict: safe, unsafe self-join,
/// negated (Karp–Luby-ineligible), and multi-relation joins.
const QUERIES: [&str; 6] = [
    "exists x. R(x)",
    "R(1)",
    "exists x, y. R(x) /\\ R(y) /\\ x != y",
    "exists x, y. R(x) /\\ S(x,y)",
    "exists x, y. R(x) /\\ S(x,y) /\\ !R(y)",
    "R(1) /\\ !R(2)",
];

const EPS: [f64; 3] = [0.3, 0.05, 0.005];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `Engine::Auto` (the optimizer) answers within the certified
    /// additive tolerance of the exact forced-Shannon plan. Both runs carry
    /// an ε certificate against the true probability, so their gap is
    /// bounded by the certificate sum.
    #[test]
    fn auto_stays_within_certified_eps_of_exact(
        seed in 0u64..u64::MAX,
        qi in 0usize..QUERIES.len(),
        ei in 0usize..EPS.len(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pdb = random_pdb(&mut rng);
        let query = parse(QUERIES[qi], pdb.schema()).expect("static query");
        let eps = EPS[ei];

        let auto = approx_prob_boolean_par(&pdb, &query, eps, Engine::Auto, 1)
            .expect("auto evaluation succeeds");
        let exact = approx_prob_boolean_par(
            &pdb, &query, eps, Engine::Force(StrategyKind::Shannon), 1,
        )
        .expect("forced Shannon evaluation succeeds");
        let gap = (auto.estimate - exact.estimate).abs();
        prop_assert!(
            gap <= 2.0 * eps + 1e-12,
            "auto {} vs exact {} differ by {} > 2ε = {} for {:?}",
            auto.estimate, exact.estimate, gap, 2.0 * eps, QUERIES[qi]
        );
    }

    /// Plan choice and answer bits are reproducible: repeated
    /// derivations yield the identical choice fingerprint, and the
    /// executed answer is bit-for-bit identical across runs and across
    /// intra-query thread counts {1, 2, 4}.
    #[test]
    fn plan_choice_and_answer_bits_are_deterministic(
        seed in 0u64..u64::MAX,
        qi in 0usize..QUERIES.len(),
        ei in 0usize..EPS.len(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pdb = random_pdb(&mut rng);
        let query = parse(QUERIES[qi], pdb.schema()).expect("static query");
        let eps = EPS[ei];
        let knobs = PlanKnobs::default();

        let (_, plan1, n1) = planner::explain(&pdb, &query, eps, &knobs)
            .expect("planning succeeds");
        let (_, plan2, n2) = planner::explain(&pdb, &query, eps, &knobs)
            .expect("planning succeeds");
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(plan1.choice_fingerprint(), plan2.choice_fingerprint());
        prop_assert_eq!(&plan1, &plan2);

        let base = approx_prob_boolean_par(&pdb, &query, eps, Engine::Auto, 1)
            .expect("auto evaluation succeeds");
        for threads in [1usize, 2, 4] {
            let run = approx_prob_boolean_par(&pdb, &query, eps, Engine::Auto, threads)
                .expect("auto evaluation succeeds");
            prop_assert!(
                base.estimate.to_bits() == run.estimate.to_bits(),
                "threads {}: {} vs {}", threads, base.estimate, run.estimate
            );
            prop_assert_eq!(&base, &run);
        }
    }

    /// α-renaming the query's bound variables produces the identical
    /// `ChosenPlan` — strategies, costs, sample counts, seeds, and the
    /// choice fingerprint all match, because planning keys on the
    /// normalized query fingerprint.
    #[test]
    fn alpha_renamed_queries_plan_identically(
        seed in 0u64..u64::MAX,
        ei in 0usize..EPS.len(),
    ) {
        // original / renamed spellings of the same formulas
        const PAIRS: [(&str, &str); 3] = [
            ("exists x. R(x)", "exists q. R(q)"),
            (
                "exists x, y. R(x) /\\ R(y) /\\ x != y",
                "exists u, v. R(u) /\\ R(v) /\\ u != v",
            ),
            (
                "exists x, y. R(x) /\\ S(x,y) /\\ !R(y)",
                "exists a, b. R(a) /\\ S(a,b) /\\ !R(b)",
            ),
        ];
        let mut rng = SplitMix64::new(seed);
        let pdb = random_pdb(&mut rng);
        let eps = EPS[ei];
        let knobs = PlanKnobs::default();
        for (original, renamed) in PAIRS {
            let q1 = parse(original, pdb.schema()).expect("static query");
            let q2 = parse(renamed, pdb.schema()).expect("static query");
            let (_, plan1, _) = planner::explain(&pdb, &q1, eps, &knobs)
                .expect("planning succeeds");
            let (_, plan2, _) = planner::explain(&pdb, &q2, eps, &knobs)
                .expect("planning succeeds");
            prop_assert!(
                plan1.choice_fingerprint() == plan2.choice_fingerprint(),
                "plans diverge between {:?} and {:?}", original, renamed
            );
            prop_assert_eq!(&plan1, &plan2);
        }
    }
}
