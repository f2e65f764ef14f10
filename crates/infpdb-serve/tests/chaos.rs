//! Deterministic chaos tests (ISSUE tentpole acceptance): a seeded
//! [`FaultInjector`] fires panics, transient errors, and latency at the
//! three named request-path sites (`admission`, `engine`, `cache_insert`)
//! while a workload runs, and the suite asserts the full resilience
//! contract:
//!
//! * **every ticket resolves** — no fault may hang a client;
//! * **no wrong answers** — every success is bit-for-bit identical to a
//!   sequential evaluation through plain `infpdb-query`, and any partial
//!   result's certificate encloses the truth;
//! * **exact accounting** — shed / panic / cancel / error metrics match
//!   the injected counts exactly (budgeted triggers make this possible);
//! * **the pool stays healthy** — after the chaos, a fresh request
//!   succeeds and the queue is empty.
//!
//! Seeds come from `INFPDB_CHAOS_SEED` when set (the CI `chaos` job runs
//! three fixed seeds); otherwise each test loops over a built-in trio.

use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_logic::parse;
use infpdb_math::series::GeometricSeries;
use infpdb_query::approx::approx_prob_boolean;
use infpdb_query::Engine;
use infpdb_serve::{
    BreakerConfig, FaultInjector, FaultKind, OverflowPolicy, QueryRequest, QueryService,
    RetryPolicy, ServeError, ServiceConfig, Trigger,
};
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn seeds() -> Vec<u64> {
    match std::env::var("INFPDB_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("INFPDB_CHAOS_SEED must be a u64")],
        Err(_) => vec![0xC0FFEE, 42, 7],
    }
}

fn geometric_pdb() -> CountableTiPdb {
    let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
    CountableTiPdb::new(FactSupply::unary_over_naturals(
        schema,
        RelId(0),
        GeometricSeries::new(0.5, 0.5).unwrap(),
    ))
    .unwrap()
}

/// A small mixed workload: distinct (query, ε) keys so the cache cannot
/// absorb everything, with enough volume to exhaust every fault budget.
fn workload(pdb: &CountableTiPdb) -> Vec<(infpdb_logic::ast::Formula, f64)> {
    let queries = [
        "R(1)",
        "!R(1)",
        "R(1) /\\ R(2)",
        "exists x. R(x)",
        "R(1) \\/ R(3)",
    ];
    let tolerances = [0.05, 0.01];
    let mut combos = Vec::new();
    for q in queries {
        for eps in tolerances {
            combos.push((parse(q, pdb.schema()).unwrap(), eps));
        }
    }
    combos
}

/// Each combination's estimate bits from a sequential evaluation
/// through plain `infpdb-query`.
fn sequential_bits(pdb: &CountableTiPdb, combos: &[(infpdb_logic::ast::Formula, f64)]) -> Vec<u64> {
    combos
        .iter()
        .map(|(q, eps)| {
            approx_prob_boolean(pdb, q, *eps, Engine::Auto)
                .unwrap()
                .estimate
                .to_bits()
        })
        .collect()
}

const ADMISSION_ERRORS: u64 = 2;
const ENGINE_PANICS: u64 = 3;
const INSERT_LATENCIES: u64 = 2;

/// Budgeted faults at all three sites: transient errors at `admission`,
/// panics at `engine`, latency at `cache_insert`.
fn three_site_faults(seed: u64) -> Arc<FaultInjector> {
    let faults = Arc::new(FaultInjector::new(seed));
    faults.inject(
        "admission",
        FaultKind::Error,
        Trigger::Times(ADMISSION_ERRORS),
    );
    faults.inject("engine", FaultKind::Panic, Trigger::Times(ENGINE_PANICS));
    faults.inject(
        "cache_insert",
        FaultKind::Latency(Duration::from_millis(1)),
        Trigger::Times(INSERT_LATENCIES),
    );
    faults
}

/// Outcome tally for a batch of resolved tickets.
#[derive(Default, Debug)]
struct Tally {
    ok: u64,
    transient: u64,
    panic: u64,
    overloaded: u64,
}

/// After the chaos: clear every fault and prove the service still works.
fn assert_pool_healthy(svc: &QueryService, faults: &FaultInjector, pdb: &CountableTiPdb) {
    for site in ["admission", "engine", "cache_insert"] {
        faults.clear(site);
    }
    // a previously unseen ε forces a genuine evaluation, not a cache hit
    let q = parse("exists x. R(x)", pdb.schema()).unwrap();
    let resp = svc
        .submit(QueryRequest::new(q.clone(), 0.0037))
        .wait()
        .expect("service must accept fresh work after the chaos");
    let expected = approx_prob_boolean(pdb, &q, 0.0037, Engine::Auto).unwrap();
    assert_eq!(resp.approx.estimate.to_bits(), expected.estimate.to_bits());
    assert_eq!(svc.metrics().queue_depth.load(Ordering::Relaxed), 0);
}

#[test]
fn faults_at_three_sites_every_ticket_resolves_and_successes_match_sequential() {
    for seed in seeds() {
        let pdb = geometric_pdb();
        let combos = workload(&pdb);
        let expected = sequential_bits(&pdb, &combos);
        let faults = three_site_faults(seed);

        let svc = QueryService::with_faults(
            pdb.clone(),
            ServiceConfig {
                threads: 2,
                // no retries and no breaker: every injected failure
                // surfaces on exactly one ticket, so counts are exact
                retry: RetryPolicy::none(),
                breaker: BreakerConfig::disabled(),
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );

        const ROUNDS: usize = 4;
        let mut tally = Tally::default();
        for round in 0..ROUNDS {
            // seed-dependent submission order: different seeds hit the
            // fault budgets from different interleavings
            for i in 0..combos.len() {
                let c = (i + (seed as usize) * 7 + round) % combos.len();
                let (q, eps) = &combos[c];
                match svc.submit(QueryRequest::new(q.clone(), *eps)).wait() {
                    Ok(resp) => {
                        tally.ok += 1;
                        assert_eq!(
                            resp.approx.estimate.to_bits(),
                            expected[c],
                            "seed {seed}: chaotic answer diverged from sequential"
                        );
                    }
                    Err(ServeError::Transient { site }) => {
                        tally.transient += 1;
                        assert_eq!(site, "admission");
                    }
                    Err(ServeError::EnginePanic { payload }) => {
                        tally.panic += 1;
                        assert!(payload.contains("injected fault"), "{payload}");
                    }
                    Err(e) => panic!("seed {seed}: unexpected outcome {e}"),
                }
            }
        }
        let total = (ROUNDS * combos.len()) as u64;
        assert_eq!(tally.ok + tally.transient + tally.panic, total);

        // exact accounting: every budget fully spent, every fire visible
        // on exactly one ticket and one metric
        assert_eq!(faults.fired("admission"), ADMISSION_ERRORS);
        assert_eq!(faults.fired("engine"), ENGINE_PANICS);
        assert_eq!(faults.fired("cache_insert"), INSERT_LATENCIES);
        assert_eq!(tally.transient, ADMISSION_ERRORS);
        assert_eq!(tally.panic, ENGINE_PANICS);
        let m = svc.metrics();
        assert_eq!(m.panics.load(Ordering::Relaxed), ENGINE_PANICS);
        assert_eq!(
            m.errors.load(Ordering::Relaxed),
            ADMISSION_ERRORS + ENGINE_PANICS
        );
        assert_eq!(m.completed.load(Ordering::Relaxed), tally.ok);
        assert_eq!(m.shed.load(Ordering::Relaxed), 0);
        assert_eq!(m.cancelled.load(Ordering::Relaxed), 0);

        assert_pool_healthy(&svc, &faults, &pdb);
    }
}

/// The same fault matrix through `evaluate`, which probes on the
/// caller's thread, under the default retry policy: each attempt passes
/// `admission` once, every fired fault is either one retry or one failed
/// answer, and exactly the requests whose first probe failed reach the
/// pool's queue. A miss runs on the caller's thread: one caller never
/// fills both slots, so every miss finds one free.
#[test]
fn faults_through_evaluate_are_counted_once_per_attempt() {
    for seed in seeds() {
        let pdb = geometric_pdb();
        let combos = workload(&pdb);
        let expected = sequential_bits(&pdb, &combos);
        let faults = three_site_faults(seed);

        let svc = QueryService::with_faults(
            pdb.clone(),
            ServiceConfig {
                threads: 2,
                retry: RetryPolicy::default(),
                // no breaker: a fast-fail would hide a fault behind it
                breaker: BreakerConfig::disabled(),
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );

        const ROUNDS: usize = 4;
        let mut tally = Tally::default();
        let mut pooled = 0u64;
        for round in 0..ROUNDS {
            for i in 0..combos.len() {
                let c = (i + (seed as usize) * 7 + round) % combos.len();
                let (q, eps) = &combos[c];
                let fired_before = faults.fired("admission");
                let result = svc.evaluate(QueryRequest::new(q.clone(), *eps));
                // only a request whose first probe failed is queued; a
                // miss computes inline, a hit returns inline
                if faults.fired("admission") > fired_before {
                    pooled += 1;
                }
                match result {
                    Ok(resp) => {
                        tally.ok += 1;
                        assert_eq!(
                            resp.approx.estimate.to_bits(),
                            expected[c],
                            "seed {seed}: answer through evaluate diverged from sequential"
                        );
                    }
                    Err(ServeError::Transient { site }) => {
                        tally.transient += 1;
                        assert_eq!(site, "admission");
                    }
                    Err(ServeError::EnginePanic { payload }) => {
                        tally.panic += 1;
                        assert!(payload.contains("injected fault"), "{payload}");
                    }
                    Err(e) => panic!("seed {seed}: unexpected outcome {e}"),
                }
            }
        }
        let total = (ROUNDS * combos.len()) as u64;
        assert_eq!(tally.ok + tally.transient + tally.panic, total);

        assert_eq!(faults.fired("admission"), ADMISSION_ERRORS);
        assert_eq!(faults.fired("engine"), ENGINE_PANICS);
        assert_eq!(faults.fired("cache_insert"), INSERT_LATENCIES);
        let failed = tally.transient + tally.panic;
        let retries = ADMISSION_ERRORS + ENGINE_PANICS - failed;
        let m = svc.metrics();
        assert_eq!(faults.calls("admission"), total + retries, "seed {seed}");
        assert_eq!(m.retries.load(Ordering::Relaxed), retries, "seed {seed}");
        assert_eq!(m.errors.load(Ordering::Relaxed), failed);
        assert_eq!(m.panics.load(Ordering::Relaxed), ENGINE_PANICS);
        assert_eq!(m.completed.load(Ordering::Relaxed), tally.ok);
        assert_eq!(m.wait.count(), pooled, "seed {seed}");
        // each key computed once, on whichever thread, then hit
        assert_eq!(m.run.count(), combos.len() as u64, "seed {seed}");
        assert_eq!(m.shed.load(Ordering::Relaxed), 0);

        assert_pool_healthy(&svc, &faults, &pdb);
    }
}

#[test]
fn overload_sheds_are_counted_exactly_and_resolve_as_overloaded() {
    for seed in seeds() {
        let pdb = geometric_pdb();
        let q = parse("exists x. R(x)", pdb.schema()).unwrap();
        let truth = approx_prob_boolean(&pdb, &q, 0.01, Engine::Auto).unwrap();

        let faults = Arc::new(FaultInjector::new(seed));
        // slow every evaluation so the burst below overflows the queue
        faults.inject(
            "engine",
            FaultKind::Latency(Duration::from_millis(20)),
            Trigger::Always,
        );
        let svc = QueryService::with_faults(
            pdb.clone(),
            ServiceConfig {
                threads: 1,
                queue_cap: Some(2),
                overflow: OverflowPolicy::RejectNewest,
                retry: RetryPolicy::none(),
                breaker: BreakerConfig::disabled(),
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );

        // distinct tolerances defeat the cache: every accepted job
        // occupies the single worker for the injected 20 ms
        let tickets: Vec<_> = (0..20)
            .map(|i| {
                let eps = 0.01 + (i as f64) * 1e-5;
                svc.submit(QueryRequest::new(q.clone(), eps))
            })
            .collect();

        let mut tally = Tally::default();
        for t in tickets {
            match t.wait() {
                Ok(resp) => {
                    tally.ok += 1;
                    // same query, near-identical ε: the estimate must
                    // still carry a valid certificate around the truth
                    assert!((resp.approx.estimate - truth.estimate).abs() <= 2.0 * 0.011);
                }
                Err(ServeError::Overloaded { queue_cap }) => {
                    tally.overloaded += 1;
                    assert_eq!(queue_cap, 2);
                }
                Err(e) => panic!("seed {seed}: unexpected outcome {e}"),
            }
        }
        assert_eq!(tally.ok + tally.overloaded, 20);
        assert!(tally.overloaded > 0, "burst must overflow a 2-slot queue");
        let m = svc.metrics();
        assert_eq!(m.shed.load(Ordering::Relaxed), tally.overloaded);
        assert_eq!(m.completed.load(Ordering::Relaxed), tally.ok);

        assert_pool_healthy(&svc, &faults, &pdb);
    }
}

#[test]
fn cancellations_resolve_exactly_and_partials_are_sound() {
    for seed in seeds() {
        let pdb = geometric_pdb();
        let q = parse("exists x. R(x)", pdb.schema()).unwrap();
        // a near-exact truth for the certificate check below
        let truth = approx_prob_boolean(&pdb, &q, 1e-6, Engine::Auto)
            .unwrap()
            .estimate;

        let faults = Arc::new(FaultInjector::new(seed));
        // pin the single worker inside the first job long enough for the
        // cancellations below to land while the victims are still queued
        faults.inject(
            "engine",
            FaultKind::Latency(Duration::from_millis(150)),
            Trigger::Times(1),
        );
        let svc = QueryService::with_faults(
            pdb.clone(),
            ServiceConfig {
                threads: 1,
                queue_cap: Some(16),
                retry: RetryPolicy::none(),
                breaker: BreakerConfig::disabled(),
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );

        let blocker = svc.submit(QueryRequest::new(q.clone(), 0.02));
        let victims: Vec<_> = (0..3)
            .map(|i| {
                let eps = 0.02 + (i as f64 + 1.0) * 1e-4;
                svc.submit(QueryRequest::new(q.clone(), eps))
            })
            .collect();
        for v in &victims {
            v.cancel();
        }

        blocker
            .wait()
            .expect("the latency-injected job still succeeds");
        let mut cancelled = 0u64;
        for v in victims {
            match v.wait() {
                Err(ServeError::Cancelled {
                    facts_processed,
                    partial,
                }) => {
                    cancelled += 1;
                    if let Some(p) = partial {
                        // a partial is a bona fide Proposition 6.1
                        // certificate: it must enclose the truth
                        assert!(p.eps < 0.5);
                        assert!(
                            (p.estimate - truth).abs() <= p.eps + 1e-6,
                            "seed {seed}: partial at {facts_processed} facts violated its certificate"
                        );
                    }
                }
                other => panic!("seed {seed}: expected Cancelled, got {other:?}"),
            }
        }
        assert_eq!(cancelled, 3);
        let m = svc.metrics();
        assert_eq!(m.cancelled.load(Ordering::Relaxed), 3);
        assert!(m.prometheus(false).contains("serve_cancelled_total 3"));

        assert_pool_healthy(&svc, &faults, &pdb);
    }
}

#[test]
fn probabilistic_engine_faults_with_retries_never_corrupt_answers() {
    for seed in seeds() {
        let pdb = geometric_pdb();
        let combos = workload(&pdb);
        let expected = sequential_bits(&pdb, &combos);

        let faults = Arc::new(FaultInjector::new(seed));
        faults.inject("engine", FaultKind::Error, Trigger::Probability(0.3));
        let svc = QueryService::with_faults(
            pdb.clone(),
            ServiceConfig {
                threads: 2,
                retry: RetryPolicy {
                    max_attempts: 3,
                    base: Duration::from_micros(100),
                    cap: Duration::from_millis(2),
                },
                breaker: BreakerConfig::disabled(),
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );

        let mut tally = Tally::default();
        for round in 0..3 {
            for (c, (q, eps)) in combos.iter().enumerate() {
                match svc.submit(QueryRequest::new(q.clone(), *eps)).wait() {
                    Ok(resp) => {
                        tally.ok += 1;
                        assert_eq!(
                            resp.approx.estimate.to_bits(),
                            expected[c],
                            "seed {seed} round {round}: retried answer diverged"
                        );
                    }
                    Err(ServeError::Transient { .. }) => tally.transient += 1,
                    Err(e) => panic!("seed {seed}: unexpected outcome {e}"),
                }
            }
        }
        assert_eq!(tally.ok + tally.transient, 3 * combos.len() as u64);

        // every injected fire is visible as exactly one retry or one
        // final transient ticket — nothing is silently swallowed
        let m = svc.metrics();
        assert_eq!(
            faults.fired("engine"),
            m.retries.load(Ordering::Relaxed) + tally.transient,
            "seed {seed}: injected fault count must equal retries + surfaced errors"
        );

        assert_pool_healthy(&svc, &faults, &pdb);
    }
}
