//! Differential tests: the prepared-query pipeline against an independent
//! reference.
//!
//! `PreparedQuery::execute` promises *bit-for-bit* equality with
//! Proposition 6.1 assembled from its public parts ([`reference`]:
//! fresh truncations, no fact catalog) — identical `f64` estimates (by bit
//! pattern, not approximate agreement), identical Proposition 6.1
//! certificates, and identical engine work counters (Shannon expansions,
//! memo hits, arena interning statistics) — or, for a forced strategy
//! some component cannot run, the identical rejection. These properties
//! pin that contract across random PDBs, queries, tolerances, and
//! engines (the planner and every forced strategy), and across the reuse
//! patterns the pipeline exists for: repeat execution, ε-refinement on a
//! shared catalog, and many queries over one prepared PDB.

use infpdb_core::fact::Fact;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use infpdb_core::value::Value;
use infpdb_finite::engine::EvalTrace;
use infpdb_finite::plan::evaluate_plan;
use infpdb_logic::ast::Formula;
use infpdb_logic::compile::CompiledQuery;
use infpdb_logic::parse;
use infpdb_math::series::GeometricSeries;
use infpdb_query::approx::Approximation;
use infpdb_query::cancel::CancelToken;
use infpdb_query::planner::{eval_prefix_len, PlanProfile};
use infpdb_query::prepared::{PreparedPdb, PreparedQuery};
use infpdb_query::truncate::TruncationPlan;
use infpdb_query::{Engine, PlanKnobs, Planner, QueryError, StrategyKind};
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;
use infpdb_ti::fingerprint::countable_pdb_fingerprint;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::from_relations([Relation::new("R", 1)]).expect("static schema")
}

fn rfact(n: i64) -> Fact {
    Fact::new(RelId(0), [Value::int(n)])
}

/// A random PDB: either an infinite geometric supply (closure-backed) or
/// a finite explicit supply (vec-backed), so both `FactSupply` storage
/// modes are exercised.
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
        let n = 4 + (rng.next_u64() % 20) as i64;
        let pairs: Vec<(Fact, f64)> = (1..=n)
            .map(|i| (rfact(i), (rng.next_u64() % 999 + 1) as f64 / 1000.0))
            .collect();
        CountableTiPdb::new(FactSupply::from_vec(schema(), pairs).expect("distinct facts"))
            .expect("finite supplies converge")
    }
}

type Outcome = Result<(Approximation, EvalTrace), QueryError>;

/// The reference: Proposition 6.1 from its public parts at the default
/// knobs. Profile on a fresh truncation at `profile_eps`, plan at `eps`,
/// then evaluate the plan on a second fresh truncation at its
/// `ε_trunc`. Shares no catalog code with `PreparedPdb`.
fn reference(pdb: &CountableTiPdb, query: &Formula, eps: f64, engine: Engine) -> Outcome {
    let knobs = PlanKnobs::default();
    let n_eval = eval_prefix_len(pdb, eps)?;
    let compiled = CompiledQuery::compile(pdb.schema(), query);
    let profile_prefix = TruncationPlan::new(pdb, knobs.profile_eps)?;
    let fp = countable_pdb_fingerprint(pdb);
    let profile = PlanProfile::build(&compiled, &profile_prefix.table, fp, &knobs)?;
    let (plan, _) = Planner::new(profile).plan(engine, eps, n_eval, &knobs)?;
    let prefix = TruncationPlan::new(pdb, plan.eps_trunc)?;
    let (estimate, trace) = evaluate_plan(&compiled, &plan, &prefix.table, 1, None)?
        .expect("the fork-join executor runs every task");
    let approx = Approximation {
        estimate,
        eps,
        n: prefix.n(),
        tail_mass: prefix.truncation.tail_mass,
    };
    Ok((approx, trace))
}

/// One prepared execution's answer and trace, evaluating a partial
/// answer on cancellation.
fn execute(pq: &PreparedQuery, eps: f64, cancel: &CancelToken) -> Outcome {
    pq.execute(eps, cancel, None).map(|e| (e.approx, e.trace))
}

/// Boolean queries over `{R/1}`, including unsafe (self-join) shapes so
/// the lineage/Shannon path does real work, and a double negation so the
/// original-vs-normalized distinction matters.
const QUERIES: [&str; 6] = [
    "exists x. R(x)",
    "R(1)",
    "R(1) /\\ !R(2)",
    "exists x, y. R(x) /\\ R(y) /\\ x != y",
    "!(!(exists x. R(x)))",
    "forall x. R(x) -> R(1)",
];

const EPS: [f64; 3] = [0.2, 0.05, 0.005];

/// The planner and every forced strategy, each with how many of the
/// loosest [`EPS`] it is checked at: forced sampling draws ~1/ε² worlds
/// (Karp–Luby also scales with the clause count), so it stops early.
const ENGINES: [(Engine, usize); 5] = [
    (Engine::Auto, 3),
    (Engine::Force(StrategyKind::Lifted), 3),
    (Engine::Force(StrategyKind::Shannon), 3),
    (Engine::Force(StrategyKind::MonteCarlo), 2),
    (Engine::Force(StrategyKind::KarpLuby), 1),
];

/// The reference and prepared answers agree bit for bit — estimate,
/// certificates and trace — or both reject a forced strategy with the
/// same [`QueryError::Ineligible`]. Returns the shared answer.
fn agree(
    expected: Outcome,
    prepared: Outcome,
    query: &str,
) -> Result<Option<(Approximation, EvalTrace)>, TestCaseError> {
    match (expected, prepared) {
        (Ok(a), Ok(b)) => {
            let same = a.0.estimate.to_bits() == b.0.estimate.to_bits() && a == b;
            prop_assert!(same, "{:?}: reference {:?} vs prepared {:?}", query, a, b);
            Ok(Some(b))
        }
        (Err(e0), Err(e1)) => {
            let same = matches!(e0, QueryError::Ineligible { .. }) && e0 == e1;
            prop_assert!(same, "{:?}: {:?} vs {:?}", query, e0, e1);
            Ok(None)
        }
        other => Err(TestCaseError::fail(format!("{query:?}: {other:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A fresh prepared pipeline returns exactly what the reference
    /// returns — estimate bits, certificates, and work counters, or the
    /// same rejection — and a repeat execution (served from the memoized
    /// snapshot, zero grounding) returns it again.
    #[test]
    fn prepared_execute_is_bit_for_bit_the_reference(
        seed in 0u64..u64::MAX,
        qi in 0usize..QUERIES.len(),
        ei in 0usize..EPS.len(),
        gi in 0usize..ENGINES.len(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pdb = random_pdb(&mut rng);
        let query = parse(QUERIES[qi], pdb.schema()).expect("static query");
        let (engine, tolerances) = ENGINES[gi];
        let eps = EPS[ei % tolerances];

        let expected = reference(&pdb, &query, eps, engine);

        let prepared = PreparedPdb::new(pdb);
        let pq = PreparedQuery::prepare(prepared.clone(), &query, engine, PlanKnobs::default());
        let first = execute(&pq, eps, &CancelToken::new());
        let Some((a1, t1)) = agree(expected, first, QUERIES[qi])? else {
            return Ok(());
        };

        // repeat: the memoized snapshot answers, nothing re-grounds
        let grounded = prepared.materialized_len();
        let (a2, t2) = execute(&pq, eps, &CancelToken::new()).expect("repeat succeeds");
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(prepared.materialized_len(), grounded);
    }

    /// ε-refinement on a shared catalog: executing loose-then-tight (and
    /// loose again) matches the reference at every step, even though
    /// the catalog is extended in place and the loose prefix is
    /// re-sliced from the longer catalog.
    #[test]
    fn refinement_reuses_catalog_bit_for_bit(
        seed in 0u64..u64::MAX,
        qi in 0usize..QUERIES.len(),
        gi in 0usize..ENGINES.len(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pdb = random_pdb(&mut rng);
        let query = parse(QUERIES[qi], pdb.schema()).expect("static query");
        let (engine, tolerances) = ENGINES[gi];

        let prepared = PreparedPdb::new(pdb.clone());
        let pq = PreparedQuery::prepare(prepared.clone(), &query, engine, PlanKnobs::default());
        for eps in [EPS[0], EPS[tolerances - 1], EPS[0]] {
            let got = execute(&pq, eps, &CancelToken::new());
            agree(reference(&pdb, &query, eps, engine), got, QUERIES[qi])?;
        }
    }

    /// The parallel executor is bit-for-bit the sequential one through
    /// the prepared pipeline: same estimates, same certificates, same
    /// work counters (the trace's `parallel` report is the only field
    /// allowed to differ). Also under cancellation mid-evaluation: a
    /// pre-cancelled token must yield the identical `CancelInfo` —
    /// including the partial answer's estimate bits — at every thread
    /// count.
    #[test]
    fn parallel_execution_is_bit_for_bit_sequential(
        seed in 0u64..u64::MAX,
        qi in 0usize..QUERIES.len(),
        ei in 0usize..EPS.len(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pdb = random_pdb(&mut rng);
        let query = parse(QUERIES[qi], pdb.schema()).expect("static query");
        let eps = EPS[ei];

        let prepared = PreparedPdb::new(pdb);
        let shannon = Engine::Force(StrategyKind::Shannon);
        let seq = PreparedQuery::prepare(prepared.clone(), &query, shannon, PlanKnobs::default());
        let (a1, t1) = execute(&seq, eps, &CancelToken::new()).expect("sequential succeeds");
        for threads in [2usize, 4] {
            let par = PreparedQuery::prepare(prepared.clone(), &query, shannon, PlanKnobs::default())
                .with_parallelism(threads);
            let (ap, tp) = execute(&par, eps, &CancelToken::new()).expect("parallel succeeds");
            prop_assert!(a1.estimate.to_bits() == ap.estimate.to_bits(),
                "threads {}: {} vs {}", threads, a1.estimate, ap.estimate);
            prop_assert_eq!(a1, ap);
            prop_assert_eq!(t1.shannon, tp.shannon);
            prop_assert_eq!(t1.arena, tp.arena);

            // cancellation mid-evaluation: the partial-answer path must
            // agree at every thread count too
            let cancelled = CancelToken::new();
            cancelled.cancel();
            let e1 = execute(&seq, eps, &cancelled).expect_err("cancelled");
            let ep = execute(&par, eps, &cancelled).expect_err("cancelled");
            match (e1, ep) {
                (
                    infpdb_query::QueryError::Cancelled(i1),
                    infpdb_query::QueryError::Cancelled(ip),
                ) => {
                    prop_assert_eq!(i1.kind, ip.kind);
                    prop_assert_eq!(i1.facts_processed, ip.facts_processed);
                    match (i1.partial, ip.partial) {
                        (Some(p1), Some(pp)) => {
                            prop_assert!(p1.estimate.to_bits() == pp.estimate.to_bits());
                            prop_assert_eq!(p1, pp);
                        }
                        (None, None) => {}
                        other => prop_assert!(false, "partial mismatch: {:?}", other),
                    }
                }
                other => prop_assert!(false, "expected Cancelled, got {:?}", other),
            }
        }
    }

    /// One prepared PDB serves every query in the pool: the catalog is
    /// grounded once per prefix length, and each query's answer matches
    /// the reference bit for bit.
    #[test]
    fn one_prepared_pdb_serves_many_queries(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let pdb = random_pdb(&mut rng);
        let prepared = PreparedPdb::new(pdb.clone());
        let eps = 0.05;
        let mut grounded_after_first = None;
        for qs in QUERIES {
            let query = parse(qs, pdb.schema()).expect("static query");
            let pq = PreparedQuery::prepare(prepared.clone(), &query, Engine::Auto, PlanKnobs::default());
            let (a1, t1) = execute(&pq, eps, &CancelToken::new()).expect("prepared path succeeds");
            let (a0, t0) = reference(&pdb, &query, eps, Engine::Auto)
                .expect("the reference succeeds");
            prop_assert_eq!(a0, a1);
            prop_assert_eq!(t0, t1);
            match grounded_after_first {
                None => grounded_after_first = Some(prepared.materialized_len()),
                Some(g) => prop_assert_eq!(prepared.materialized_len(), g),
            }
        }
    }
}
