//! Concurrency stress tests for the serving layer (ISSUE tentpole
//! acceptance): many client threads hammer one [`QueryService`] and every
//! concurrent answer is cross-checked bit-for-bit against a sequential
//! evaluation through plain `infpdb-query`.

use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_logic::parse;
use infpdb_math::series::{GeometricSeries, ZetaSeries};
use infpdb_query::approx::approx_prob_boolean;
use infpdb_query::Engine;
use infpdb_serve::{QueryRequest, QueryService, ServeError, ServiceConfig};
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const CLIENT_THREADS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 100;

fn geometric_pdb() -> CountableTiPdb {
    let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
    CountableTiPdb::new(FactSupply::unary_over_naturals(
        schema,
        RelId(0),
        GeometricSeries::new(0.5, 0.5).unwrap(),
    ))
    .unwrap()
}

/// A workload of distinct (query, ε) combinations. Mixing a small set of
/// repeated combinations with per-client tolerances gives both guaranteed
/// cache hits and guaranteed cache misses.
fn workload(schema: &Schema) -> Vec<(infpdb_logic::ast::Formula, f64)> {
    let queries = [
        "R(1)",
        "R(2)",
        "!R(1)",
        "R(1) /\\ R(2)",
        "R(1) \\/ R(3)",
        "exists x. R(x)",
        "!(exists x. R(x))",
        "R(1) /\\ !R(2)",
        "exists x. exists y. R(x) /\\ R(y)",
        "forall x. R(x)",
    ];
    let tolerances = [0.05, 0.01, 0.002];
    let mut combos = Vec::new();
    for q in queries {
        for eps in tolerances {
            combos.push((parse(q, schema).unwrap(), eps));
        }
    }
    combos
}

#[test]
fn concurrent_answers_are_byte_identical_to_sequential() {
    let pdb = geometric_pdb();
    let combos = workload(pdb.schema());

    // ground truth, sequentially, through plain infpdb-query
    let expected: Vec<u64> = combos
        .iter()
        .map(|(q, eps)| {
            approx_prob_boolean(&pdb, q, *eps, Engine::Auto)
                .unwrap()
                .estimate
                .to_bits()
        })
        .collect();

    let svc = Arc::new(QueryService::new(
        pdb,
        ServiceConfig {
            threads: 4,
            cache_capacity: 256,
            ..ServiceConfig::default()
        },
    ));

    let clients: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let combos = combos.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                // half the clients submit one by one, half in batches
                let picks: Vec<usize> = (0..REQUESTS_PER_CLIENT)
                    .map(|i| (t * 31 + i * 7) % combos.len())
                    .collect();
                let responses: Vec<_> = if t % 2 == 0 {
                    picks
                        .iter()
                        .map(|&c| {
                            let (q, eps) = &combos[c];
                            svc.submit(QueryRequest::new(q.clone(), *eps)).wait()
                        })
                        .collect()
                } else {
                    let reqs = picks
                        .iter()
                        .map(|&c| {
                            let (q, eps) = &combos[c];
                            QueryRequest::new(q.clone(), *eps)
                        })
                        .collect();
                    svc.submit_batch(reqs)
                        .into_iter()
                        .map(|ticket| ticket.wait())
                        .collect()
                };
                for (&c, resp) in picks.iter().zip(responses) {
                    let resp = resp.expect("no rejections in an unbudgeted workload");
                    assert_eq!(
                        resp.approx.estimate.to_bits(),
                        expected[c],
                        "client {t} combo {c}: concurrent answer diverged from sequential"
                    );
                    assert_eq!(resp.approx.eps, combos[c].1);
                    assert!(!resp.degraded);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }

    let total = (CLIENT_THREADS * REQUESTS_PER_CLIENT) as u64;
    let m = svc.metrics();
    assert_eq!(m.submitted.load(Ordering::Relaxed), total);
    assert_eq!(m.completed.load(Ordering::Relaxed), total);
    let hits = m.cache_hits.load(Ordering::Relaxed);
    let misses = m.cache_misses.load(Ordering::Relaxed);
    assert_eq!(hits + misses, total);
    // 800 requests over 30 distinct keys: hits are guaranteed, and at
    // most one miss per key can escape even a racy first round
    assert!(hits > 0, "expected cache hits, got none");
    assert!(
        misses >= combos.len() as u64,
        "every distinct key must miss at least once"
    );
    assert_eq!(m.errors.load(Ordering::Relaxed), 0);
    assert_eq!(m.panics.load(Ordering::Relaxed), 0);
    assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
    assert_eq!(m.wait.count(), total);

    let text = m.prometheus(false);
    assert!(text.contains("serve_requests_completed_total 800"));
}

#[test]
fn shutdown_mid_flight_never_deadlocks_or_hangs_tickets() {
    // slow convergence (ζ(2) tail) + tight ε makes each evaluation carry
    // a large truncation, so shutdown lands while work is genuinely
    // in flight
    let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
    let pdb = CountableTiPdb::new(FactSupply::unary_over_naturals(
        schema,
        RelId(0),
        ZetaSeries::basel(),
    ))
    .unwrap();
    let q = parse("exists x. R(x)", pdb.schema()).unwrap();

    let mut svc = QueryService::new(
        pdb,
        ServiceConfig {
            threads: 2,
            // room for the whole burst: with the default bounded queue
            // (8 × threads, Block policy) the submission loop below would
            // block until workers drain, and shutdown would find an
            // almost-empty queue — defeating the "drop queued jobs" check
            queue_cap: Some(64),
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<_> = (0..64)
        .map(|i| {
            // distinct tolerances defeat the cache: every job evaluates
            let eps = 0.001 + (i as f64) * 1e-6;
            svc.submit(QueryRequest::new(q.clone(), eps))
        })
        .collect();
    svc.shutdown_now();

    // every ticket must resolve — a deadlock hangs the suite right here
    let mut finished = 0;
    let mut dropped = 0;
    for t in tickets {
        match t.wait() {
            Ok(_) => finished += 1,
            Err(ServeError::Shutdown) => dropped += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(finished + dropped, 64);
    assert!(dropped > 0, "shutdown_now should have dropped queued jobs");
    assert_eq!(svc.queue_depth(), 0);
}

#[test]
fn graceful_join_drains_every_request() {
    let pdb = geometric_pdb();
    let q = parse("exists x. R(x)", pdb.schema()).unwrap();
    let svc = QueryService::new(
        pdb,
        ServiceConfig {
            threads: 3,
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<_> = (0..50)
        .map(|i| {
            let eps = 0.01 + (i % 5) as f64 * 0.01;
            svc.submit(QueryRequest::new(q.clone(), eps))
        })
        .collect();
    svc.join(); // graceful: must run everything already queued
    for t in tickets {
        t.wait().expect("graceful join must not drop queued work");
    }
}
