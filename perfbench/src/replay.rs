//! The request path of `QueryService`, replayed one public layer call
//! at a time in the service's own order: admission and truncation,
//! fingerprint, result cache, plan cache and compile, profile, plan,
//! prefix, evaluate. With the service's caches and a live [`SpanLog`]
//! it is the traced run's third pass. Without the result cache, and
//! with plans keyed by the formula as written, it is the correctness
//! oracle: a direct library evaluation of every (query, ε) from its own
//! text, which must match every served answer bit for bit.

use crate::gen::Digest;
use crate::spans::SpanLog;
use infpdb_core::fingerprint::Fingerprinter;
use infpdb_finite::arena::LineageArena;
use infpdb_finite::lineage::lineage_of_arena;
use infpdb_finite::plan::{evaluate_plan, Strategy};
use infpdb_logic::ast::Formula;
use infpdb_logic::compile::{query_fingerprint, CompiledQuery};
use infpdb_query::approx::Approximation;
use infpdb_query::budget;
use infpdb_query::cancel::CancelToken;
use infpdb_query::planner::{eval_prefix_len, PlanKnobs, PlanProfile, Planner, ProfileOutcome};
use infpdb_query::prepared::{PreparedPdb, PreparedPrefix};
use infpdb_serve::cache::ShardedLruCache;
use infpdb_serve::fingerprint::{countable_pdb_fingerprint, CacheKey};
use infpdb_serve::ServiceConfig;
use infpdb_store::{SnapshotInfo, Store};
use std::sync::Arc;
use std::time::Instant;

/// One answer's bits.
#[derive(Debug, Clone)]
pub struct Answer {
    pub estimate: u64,
    pub lo: u64,
    pub hi: u64,
    pub approx: Approximation,
}

impl Answer {
    fn new(approx: Approximation) -> Self {
        let iv = approx.interval();
        Answer {
            estimate: approx.estimate.to_bits(),
            lo: iv.lo().to_bits(),
            hi: iv.hi().to_bits(),
            approx,
        }
    }
}

struct PlanEntry {
    compiled: CompiledQuery,
    planner: std::sync::OnceLock<Arc<Planner>>,
}

/// Work the replay observed, beyond its spans.
#[derive(Debug, Default, Clone)]
pub struct ReplayStats {
    /// Facts appended by prefix slices that extended the catalog, and
    /// the time those slices took.
    pub facts_grown: u64,
    pub grow_ns: u64,
    pub samples: u64,
    /// `(plan label, ns)` of every traced `evaluate_plan` call.
    pub evals: Vec<(&'static str, u64)>,
    pub snapshots: Vec<SnapshotInfo>,
    /// Facts appended between consecutive snapshots.
    pub new_facts: Vec<u64>,
}

pub struct Replay {
    pub prepared: PreparedPdb,
    pdb_fp: u64,
    knobs: PlanKnobs,
    engine_tag: u8,
    /// The result cache; the oracle has none.
    results: Option<ShardedLruCache<Answer>>,
    plans: ShardedLruCache<Arc<PlanEntry>>,
    /// Whether plans are keyed by a digest of the formula as written
    /// (the oracle) instead of the service's normalized-query
    /// fingerprint. A service key that merges two distinct queries must
    /// not be reproduced by the reference it is checked against.
    exact_plans: bool,
    store: Option<Store>,
    last_snapshot_len: u64,
    pub stats: ReplayStats,
}

impl Replay {
    /// A replay over `prepared` with the service's default caches.
    pub fn new(prepared: PreparedPdb, store: Option<Store>) -> Self {
        let config = ServiceConfig::default();
        let mut replay = Replay::oracle(prepared);
        replay.results = Some(ShardedLruCache::new(
            config.cache_capacity,
            config.cache_shards,
        ));
        replay.exact_plans = false;
        replay.store = store;
        replay
    }

    /// The oracle: no result cache and no store, and a plan is reused
    /// only for the same formula as written, so every call evaluates
    /// its own query.
    pub fn oracle(prepared: PreparedPdb) -> Self {
        let config = ServiceConfig::default();
        let pdb_fp = countable_pdb_fingerprint(prepared.pdb());
        let last_snapshot_len = prepared.materialized_len() as u64;
        Replay {
            prepared,
            pdb_fp,
            knobs: config.plan_knobs,
            engine_tag: config.engine.tag(),
            results: None,
            plans: ShardedLruCache::new(config.plan_cache_capacity, config.cache_shards),
            exact_plans: true,
            store: None,
            last_snapshot_len,
            stats: ReplayStats::default(),
        }
    }

    pub fn pdb_fingerprint(&self) -> u64 {
        self.pdb_fp
    }

    /// Answers one (query, ε) the way `QueryService` does.
    pub fn answer(
        &mut self,
        query: &Formula,
        eps: f64,
        log: &mut SpanLog,
    ) -> Result<Answer, String> {
        const P: &str = "serve.evaluate";
        let pdb = self.prepared.pdb();
        log.time(P, "query.admit", || budget::plan(pdb, eps))
            .map_err(|e| e.to_string())?;
        let qfp = log.time(P, "logic.fingerprint", || {
            query_fingerprint(pdb.schema(), query)
        });
        let key = CacheKey {
            pdb: self.pdb_fp,
            query: qfp,
            eps_bits: eps.to_bits(),
            engine: self.engine_tag,
            knobs: self.knobs.fingerprint(),
        }
        .digest();
        if let Some(hit) = self.results.as_ref().and_then(|c| c.get(key)) {
            return Ok(hit);
        }
        let plan_key = if self.exact_plans {
            Digest::default()
                .bytes(format!("{query:?}").as_bytes())
                .finish()
        } else {
            let mut fp = Fingerprinter::new();
            fp.write_u64(self.pdb_fp).write_u64(qfp);
            fp.finish()
        };
        let entry = match self.plans.get(plan_key) {
            Some(entry) => entry,
            None => {
                let compiled = log.time(P, "logic.compile", || {
                    CompiledQuery::compile(pdb.schema(), query)
                });
                let entry = Arc::new(PlanEntry {
                    compiled,
                    planner: std::sync::OnceLock::new(),
                });
                self.plans.insert(plan_key, Arc::clone(&entry));
                entry
            }
        };
        let cancel = CancelToken::new();
        let planner = match entry.planner.get() {
            Some(p) => Arc::clone(p),
            None => {
                let outcome = log.time(P, "query.profile", || {
                    PlanProfile::build_prepared(
                        &self.prepared,
                        &entry.compiled,
                        &self.knobs,
                        &cancel,
                    )
                });
                let ProfileOutcome::Ready(profile) = outcome.map_err(|e| e.to_string())? else {
                    return Err("profile cancelled without a deadline".into());
                };
                Arc::clone(
                    entry
                        .planner
                        .get_or_init(|| Arc::new(Planner::new(profile))),
                )
            }
        };
        let n_eval = log
            .time(P, "query.truncate", || eval_prefix_len(pdb, eps))
            .map_err(|e| e.to_string())?;
        let (plan, _) = log.time(P, "query.plan", || {
            planner.plan_at(eps, n_eval, &self.knobs)
        });
        let before = self.prepared.materialized_len();
        let t = Instant::now();
        let prefix = log
            .time(P, "query.prefix", || {
                self.prepared.prefix_for(plan.eps_trunc, &cancel)
            })
            .map_err(|e| e.to_string())?;
        let grown = self.prepared.materialized_len() - before;
        if grown > 0 {
            self.stats.facts_grown += grown as u64;
            self.stats.grow_ns += t.elapsed().as_nanos() as u64;
        }
        let PreparedPrefix::Complete { truncation, table } = prefix else {
            return Err("prefix cancelled without a deadline".into());
        };
        let evaluated = log
            .time(P, "finite.eval", || {
                evaluate_plan(&entry.compiled, &plan, &table, 1, None)
            })
            .map_err(|e| e.to_string())?;
        let (estimate, trace) = evaluated.ok_or("evaluation skipped without an executor")?;
        let label = trace.plan.as_ref().map_or("none", |p| p.label());
        if log.enabled() {
            let ns = log.spans.last().map_or(0, |s| s.ns());
            self.stats.evals.push((label, ns));
        }
        let mut samples = 0u64;
        for (comp, cplan) in entry.compiled.components().iter().zip(&plan.components) {
            match cplan.strategy {
                Strategy::MonteCarlo { samples: s } => samples += s as u64,
                Strategy::KarpLuby { samples: s, .. } => samples += s as u64,
                _ => {}
            }
            // lineage build per component, timed beside the request
            // path (the engines build it internally)
            if matches!(
                cplan.strategy,
                Strategy::Shannon | Strategy::KarpLuby { .. }
            ) && log.enabled()
            {
                log.time(P, "probe.lineage", || {
                    let mut arena = LineageArena::new();
                    lineage_of_arena(comp.formula(), &table, &mut arena).map(|_| arena.len())
                })
                .ok();
            }
        }
        self.stats.samples += samples;
        let answer = Answer::new(Approximation {
            estimate,
            eps,
            n: truncation.n,
            tail_mass: truncation.tail_mass,
        });
        if let Some(results) = &self.results {
            results.insert(key, answer.clone());
        }
        Ok(answer)
    }

    /// `QueryService::snapshot`, layer by layer.
    pub fn snapshot(
        &mut self,
        parent: &'static str,
        log: &mut SpanLog,
    ) -> Result<SnapshotInfo, String> {
        let store = self.store.as_ref().ok_or("replay runs without a store")?;
        let catalog = log.time(parent, "ti.catalog_clone", || {
            self.prepared.catalog_snapshot()
        });
        let info = log
            .time(parent, "store.snapshot", || {
                store.snapshot(&catalog, Some(self.pdb_fp), None)
            })
            .map_err(|e| e.to_string())?;
        self.stats
            .new_facts
            .push(info.facts.saturating_sub(self.last_snapshot_len));
        self.last_snapshot_len = info.facts;
        self.stats.snapshots.push(info);
        Ok(info)
    }
}
