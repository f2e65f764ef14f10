//! Cross-request determinism under the batch-throughput engine.
//!
//! The scheduler contract (DESIGN.md §13): stealing may reorder
//! *execution*, never *reduction*. The same mixed batch — heavy
//! two-component queries interleaved with light point queries — must
//! produce bit-for-bit identical estimates and identical `EvalTrace`
//! counters at every pool size and under both schedulers, whether the
//! requests run on pool workers (`submit_batch`) or on their callers'
//! threads (`evaluate` with a free slot). A second run sprays seeded
//! random cancellations into the batch mid-flight and asserts the
//! liveness half of the contract: every ticket resolves.

use infpdb_core::fact::Fact;
use infpdb_core::schema::{Relation, Schema};
use infpdb_core::value::Value;
use infpdb_logic::parse;
use infpdb_query::{Engine, StrategyKind};
use infpdb_serve::pool::SchedulerKind;
use infpdb_serve::service::{QueryRequest, QueryService, ServiceConfig};
use infpdb_serve::ServeError;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;

/// Two relations with interleaved decaying probabilities: conjunctions
/// of per-relation pair queries split into two var-disjoint components
/// heavy enough for the parallel evaluator to fork.
fn blocks_pdb() -> CountableTiPdb {
    let schema = Schema::from_relations([Relation::new("A", 1), Relation::new("B", 1)]).unwrap();
    let a = schema.rel_id("A").unwrap();
    let b = schema.rel_id("B").unwrap();
    let mut facts = Vec::new();
    let mut p = 0.45f64;
    for i in 0..16i64 {
        facts.push((Fact::new(a, [Value::int(i)]), p));
        facts.push((Fact::new(b, [Value::int(i)]), p));
        p *= 0.75;
    }
    CountableTiPdb::new(FactSupply::from_vec(schema, facts).unwrap()).unwrap()
}

/// The mixed batch: heavy splittable conjunctions and light point
/// queries, each at a distinct ε so no request is a result-cache hit of
/// another and every ticket reflects a real evaluation.
fn mixed_batch(pdb: &CountableTiPdb) -> Vec<QueryRequest> {
    let heavy = "(exists x, y. A(x) /\\ A(y) /\\ x != y) \
                 /\\ (exists x, y. B(x) /\\ B(y) /\\ x != y)";
    let light = ["A(0)", "B(1)", "A(2) /\\ B(2)", "exists x. A(x)"];
    let mut reqs = Vec::new();
    for i in 0..12usize {
        let (text, eps) = if i % 3 == 0 {
            (heavy, 0.01 + i as f64 * 1e-5)
        } else {
            (light[i % light.len()], 0.05 + i as f64 * 1e-5)
        };
        reqs.push(QueryRequest::new(parse(text, pdb.schema()).unwrap(), eps));
    }
    reqs
}

fn service(threads: usize, scheduler: SchedulerKind) -> QueryService {
    service_at(threads, scheduler, 4)
}

fn service_at(threads: usize, scheduler: SchedulerKind, parallelism: usize) -> QueryService {
    QueryService::new(
        blocks_pdb(),
        ServiceConfig {
            threads,
            engine: Engine::Force(StrategyKind::Shannon),
            parallelism,
            scheduler,
            ..ServiceConfig::default()
        },
    )
}

/// Deterministic LCG for the cancellation spray (no RNG dependency).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn mixed_batch_is_bit_identical_across_threads_and_schedulers() {
    let pdb = blocks_pdb();
    let reference: Vec<_> = {
        let svc = service(1, SchedulerKind::Fixed);
        svc.submit_batch(mixed_batch(&pdb))
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect()
    };
    for threads in [1usize, 2, 4] {
        for scheduler in [SchedulerKind::Fixed, SchedulerKind::Stealing] {
            let svc = service(threads, scheduler);
            let got: Vec<_> = svc
                .submit_batch(mixed_batch(&pdb))
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect();
            assert_eq!(got.len(), reference.len());
            for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(
                    r.approx.estimate.to_bits(),
                    g.approx.estimate.to_bits(),
                    "request {i}: estimate differs at threads={threads} scheduler={}",
                    scheduler.name()
                );
                assert_eq!(r.approx, g.approx, "request {i}");
                assert_eq!(
                    r.trace,
                    g.trace,
                    "request {i}: EvalTrace differs at threads={threads} scheduler={}",
                    scheduler.name()
                );
            }
        }
    }
}

#[test]
fn evaluate_is_bit_identical_to_submit_batch() {
    const CALLERS: usize = 3;
    let pdb = blocks_pdb();
    for parallelism in [1usize, 2] {
        for threads in [1usize, 2, 4] {
            for scheduler in [SchedulerKind::Fixed, SchedulerKind::Stealing] {
                let at = format!(
                    "threads={threads} scheduler={} parallelism={parallelism}",
                    scheduler.name()
                );
                let batch: Vec<_> = service_at(threads, scheduler, parallelism)
                    .submit_batch(mixed_batch(&pdb))
                    .into_iter()
                    .map(|t| t.wait().unwrap())
                    .collect();
                // one caller at a time: every miss finds a free slot and
                // runs on the calling thread
                let svc = service_at(threads, scheduler, parallelism);
                let inline: Vec<_> = mixed_batch(&pdb)
                    .into_iter()
                    .map(|r| svc.evaluate(r).unwrap())
                    .collect();
                assert_eq!(svc.metrics().wait.count(), 0, "{at}");
                // several callers at once: misses run inline while a slot
                // is free and queue otherwise
                let svc = service_at(threads, scheduler, parallelism);
                let requests = mixed_batch(&pdb);
                let mut mixed: Vec<_> = std::thread::scope(|scope| {
                    let callers: Vec<_> = (0..CALLERS)
                        .map(|c| {
                            let (svc, requests) = (&svc, &requests);
                            scope.spawn(move || {
                                (c..requests.len())
                                    .step_by(CALLERS)
                                    .map(|i| (i, svc.evaluate(requests[i].clone()).unwrap()))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    callers
                        .into_iter()
                        .flat_map(|c| c.join().unwrap())
                        .collect()
                });
                mixed.sort_by_key(|(i, _)| *i);
                assert_eq!(mixed.len(), batch.len());
                for (i, r) in batch.iter().enumerate() {
                    for (how, g) in [("inline", &inline[i]), ("concurrent", &mixed[i].1)] {
                        assert_eq!(
                            r.approx.estimate.to_bits(),
                            g.approx.estimate.to_bits(),
                            "request {i}: {how} evaluate differs at {at}"
                        );
                        assert_eq!(r.approx, g.approx, "request {i}: {how} at {at}");
                        assert_eq!(
                            r.trace, g.trace,
                            "request {i}: {how} EvalTrace differs at {at}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_ticket_resolves_under_random_cancellation_mid_steal() {
    let pdb = blocks_pdb();
    for (round, threads) in [(0u64, 2usize), (1, 4), (2, 2)] {
        let mut rng = Lcg(0xC0FF_EE00 + round);
        let svc = service(threads, SchedulerKind::Stealing);
        let tickets = svc.submit_batch(mixed_batch(&pdb));
        // cancel roughly half the batch while it is in flight: some
        // land before evaluation, some mid-steal, some after completion
        let cancelled: Vec<bool> = tickets
            .iter()
            .map(|t| {
                let hit = rng.next().is_multiple_of(2);
                if hit {
                    t.cancel();
                }
                hit
            })
            .collect();
        for (i, (t, was_cancelled)) in tickets.into_iter().zip(cancelled).enumerate() {
            match t.wait() {
                Ok(resp) => {
                    // a cancellation can lose the race — the answer must
                    // then be the same fully certified one as ever
                    assert!(resp.approx.eps < 0.5, "request {i}");
                }
                Err(ServeError::Cancelled { .. }) => {
                    assert!(was_cancelled, "request {i} cancelled itself");
                }
                Err(other) => panic!("request {i}: unexpected error {other:?}"),
            }
        }
        // liveness: nothing is stuck in the scheduler
        assert_eq!(svc.queue_depth(), 0);
        assert_eq!(
            svc.metrics()
                .injector_depth
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
        svc.join();
    }
}
