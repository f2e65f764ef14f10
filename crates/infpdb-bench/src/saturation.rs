//! Aggregate-throughput (saturation) stage of `infpdb bench`.
//!
//! Where `harness` times single evaluations, this stage measures
//! *queries per second at saturation*: a mixed batch of heavy
//! splittable conjunctions and light point queries is thrown at a
//! [`QueryService`] all at once, and the wall clock runs from first
//! submission to last ticket resolution. One row per
//! `(scheduler, pool threads)` cell, so the checked-in artifact
//! records the work-stealing scheduler's aggregate win over the fixed
//! scoped-thread pool — and pins the answers: every row carries a
//! fingerprint over the estimates' bit patterns in submission order,
//! and rows of the same workload must agree on it bit for bit no
//! matter the scheduler or pool size (DESIGN.md §13).
//!
//! Every request uses a distinct ε (1e-7 nudges, far below the 1e-2
//! base tolerance) so no request is a result-cache hit of another:
//! the stage measures evaluation throughput, not cache lookups.

use std::time::Instant;

use infpdb_logic::parse;
use infpdb_query::{Engine, StrategyKind};
use infpdb_serve::pool::SchedulerKind;
use infpdb_serve::service::{QueryRequest, QueryService, ServiceConfig};

use infpdb_core::fact::Fact;
use infpdb_core::schema::{Relation, Schema};
use infpdb_core::value::Value;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;

/// Saturation-stage configuration.
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// Schedulers to measure; `None` means both (the comparison the
    /// artifact exists for), `Some` restricts to one (`--scheduler`).
    pub scheduler: Option<SchedulerKind>,
    /// Pool sizes to measure each scheduler at.
    pub threads: Vec<usize>,
    /// Intra-query thread budget per request (heavy queries fork this
    /// many component subtasks).
    pub parallelism: usize,
    /// Heavy (two-component conjunction) requests per run. Fixed by
    /// the caller, *never* derived from `--repeats` — the smoke run
    /// must stay inside the CI budget regardless of repeat tuning.
    pub heavy: usize,
    /// Light (point / single-quantifier) requests per run.
    pub light: usize,
    /// Measurement rounds per cell; the reported row is the round with
    /// the smallest wall clock (best-of-N damps scheduler noise on a
    /// shared machine). All rounds must agree on the fingerprint.
    pub rounds: usize,
}

impl SaturationConfig {
    /// The standard configuration: both schedulers, pools of 1, 2 and
    /// 4 workers, 16 heavy + 32 light requests.
    pub fn full() -> Self {
        Self {
            scheduler: None,
            threads: vec![1, 2, 4],
            parallelism: 4,
            heavy: 16,
            light: 32,
            rounds: 3,
        }
    }

    /// The CI smoke configuration: 2-worker pools, 4 heavy + 8 light.
    pub fn smoke() -> Self {
        Self {
            scheduler: None,
            threads: vec![2],
            parallelism: 4,
            heavy: 4,
            light: 8,
            rounds: 1,
        }
    }
}

/// One `(scheduler, pool threads)` saturation cell.
#[derive(Debug, Clone)]
pub struct SaturationRow {
    /// `"fixed"` or `"stealing"`.
    pub scheduler: &'static str,
    /// Pool workers.
    pub threads: usize,
    /// Intra-query thread budget per request.
    pub parallelism: usize,
    /// Total requests in the batch.
    pub requests: usize,
    /// Heavy requests among them.
    pub heavy: usize,
    /// Light requests among them.
    pub light: usize,
    /// Wall-clock nanoseconds from first submission to last ticket.
    pub wall_ns: u64,
    /// `requests / wall` — the headline aggregate throughput.
    pub qps: f64,
    /// Subtasks stolen across workers during the run (0 under the
    /// fixed scheduler).
    pub steals: u64,
    /// FNV-1a over every estimate's bit pattern in submission order;
    /// equal across all rows of the same workload or the determinism
    /// contract is broken.
    pub fingerprint: u64,
}

/// Four unary relations with interleaved decaying probabilities — a
/// wider cousin of the `blocks` fixture. The heavy query's conjunction
/// of per-relation pair queries splits into *four* var-disjoint
/// lineage components, so every heavy request forks four subtasks:
/// under the fixed scheduler that is four scoped thread spawn/joins
/// per evaluation, under stealing four deque pushes onto the pool's
/// existing workers.
fn saturation_pdb() -> CountableTiPdb {
    let rels = ["A", "B", "C", "D"];
    let schema = Schema::from_relations(rels.map(|r| Relation::new(r, 1))).expect("static schema");
    let ids: Vec<_> = rels.iter().map(|r| schema.rel_id(r).unwrap()).collect();
    let mut facts = Vec::new();
    let mut p = 0.45f64;
    for i in 0..16i64 {
        for &rel in &ids {
            facts.push((Fact::new(rel, [Value::int(i)]), p));
        }
        p *= 0.5;
    }
    CountableTiPdb::new(FactSupply::from_vec(schema, facts).expect("distinct facts"))
        .expect("finite supply converges")
}

/// The mixed batch: every `(heavy + light) / heavy`-th request is the
/// heavy four-component conjunction, the rest cycle through light
/// shapes, each at a distinct ε.
fn mixed_batch(
    pdb: &CountableTiPdb,
    heavy: usize,
    light: usize,
) -> Result<Vec<QueryRequest>, String> {
    let heavy_text = "(exists x, y. A(x) /\\ A(y) /\\ x != y) \
                      /\\ (exists x, y. B(x) /\\ B(y) /\\ x != y) \
                      /\\ (exists x, y. C(x) /\\ C(y) /\\ x != y) \
                      /\\ (exists x, y. D(x) /\\ D(y) /\\ x != y)";
    let light_texts = ["A(0)", "B(1)", "C(2) /\\ D(2)", "exists x. A(x)"];
    let total = heavy + light;
    let stride = total.checked_div(heavy).unwrap_or(usize::MAX);
    let mut reqs = Vec::with_capacity(total);
    let (mut h, mut l) = (0usize, 0usize);
    for i in 0..total {
        let is_heavy = h < heavy && (i % stride == 0 || light - l == 0);
        let (text, eps) = if is_heavy {
            h += 1;
            (heavy_text, 0.001 + i as f64 * 1e-7)
        } else {
            l += 1;
            (light_texts[i % light_texts.len()], 0.05 + i as f64 * 1e-7)
        };
        let q = parse(text, pdb.schema()).map_err(|e| e.to_string())?;
        reqs.push(QueryRequest::new(q, eps));
    }
    Ok(reqs)
}

fn fnv1a(acc: u64, bits: u64) -> u64 {
    let mut h = acc;
    for b in bits.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs the saturation matrix. Rows come back in
/// scheduler-major (fixed before stealing), threads-minor order.
pub fn run(config: &SaturationConfig) -> Result<Vec<SaturationRow>, String> {
    let schedulers: Vec<SchedulerKind> = match config.scheduler {
        Some(k) => vec![k],
        None => vec![SchedulerKind::Fixed, SchedulerKind::Stealing],
    };
    let pdb = saturation_pdb();
    let mut rows = Vec::new();
    for &scheduler in &schedulers {
        for &threads in &config.threads {
            let mut best: Option<SaturationRow> = None;
            for _ in 0..config.rounds.max(1) {
                let svc = QueryService::new(
                    pdb.clone(),
                    ServiceConfig {
                        threads,
                        engine: Engine::Force(StrategyKind::Shannon),
                        parallelism: config.parallelism,
                        scheduler,
                        ..ServiceConfig::default()
                    },
                );
                let batch = mixed_batch(&pdb, config.heavy, config.light)?;
                let requests = batch.len();
                let started = Instant::now();
                let tickets = svc.submit_batch(batch);
                let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
                for t in tickets {
                    let resp = t.wait().map_err(|e| e.to_string())?;
                    fingerprint = fnv1a(fingerprint, resp.approx.estimate.to_bits());
                }
                let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                let steals = svc
                    .metrics()
                    .steals
                    .load(std::sync::atomic::Ordering::Relaxed);
                svc.join();
                if let Some(prev) = &best {
                    if prev.fingerprint != fingerprint {
                        return Err(format!(
                            "saturation fingerprint changed across rounds:                              {:016x} vs {fingerprint:016x}",
                            prev.fingerprint
                        ));
                    }
                }
                let row = SaturationRow {
                    scheduler: scheduler.name(),
                    threads,
                    parallelism: config.parallelism,
                    requests,
                    heavy: config.heavy,
                    light: config.light,
                    wall_ns,
                    qps: requests as f64 / (wall_ns.max(1) as f64 / 1e9),
                    steals,
                    fingerprint,
                };
                if best.as_ref().is_none_or(|b| row.wall_ns < b.wall_ns) {
                    best = Some(row);
                }
            }
            rows.push(best.expect("rounds >= 1"));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_batch_has_the_requested_composition() {
        let pdb = saturation_pdb();
        let reqs = mixed_batch(&pdb, 4, 8).unwrap();
        assert_eq!(reqs.len(), 12);
        // distinct ε everywhere: no request can be a cache hit of another
        let mut eps: Vec<u64> = reqs.iter().map(|r| r.eps.to_bits()).collect();
        eps.sort_unstable();
        eps.dedup();
        assert_eq!(eps.len(), 12);
    }

    #[test]
    fn smoke_matrix_is_bit_identical_across_schedulers() {
        let rows = run(&SaturationConfig::smoke()).unwrap();
        // both schedulers at threads = 2
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].scheduler, "fixed");
        assert_eq!(rows[1].scheduler, "stealing");
        assert_eq!(
            rows[0].fingerprint, rows[1].fingerprint,
            "stealing changed an answer"
        );
        assert_eq!(rows[0].steals, 0, "fixed scheduler cannot steal");
        for r in &rows {
            assert_eq!(r.requests, 12);
            assert!(r.qps > 0.0 && r.wall_ns > 0);
        }
    }

    #[test]
    fn scheduler_restriction_filters_the_matrix() {
        let rows = run(&SaturationConfig {
            scheduler: Some(SchedulerKind::Stealing),
            threads: vec![1],
            parallelism: 2,
            heavy: 1,
            light: 2,
            rounds: 2,
        })
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].scheduler, "stealing");
        assert_eq!(rows[0].heavy + rows[0].light, rows[0].requests);
    }
}
