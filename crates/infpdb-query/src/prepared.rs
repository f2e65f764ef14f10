//! The execute phase of the prepared-query pipeline.
//!
//! Proposition 6.1 splits naturally: the truncation length `n(ε)` and the
//! prefix `Ω_n` depend only on the PDB's probability series, never on the
//! query. A [`PreparedPdb`] exploits that by materializing the
//! enumeration prefix once into a shared [`FactCatalog`], whose
//! `TiTable` view at any prefix length is O(1). Repeat executions — the
//! same query again, a different query, or the same query at a tightened
//! ε — reuse the catalog:
//!
//! * a **repeat at the same ε** slices the catalog and pays zero
//!   grounding cost;
//! * an **ε-refinement** extends the catalog by the missing facts only
//!   (ids never move: the catalog is append-only), then slices; no view
//!   is kept between requests, so the append reuses the catalog's
//!   backing instead of deep-cloning it;
//! * a **different query** shares everything, because the prefix is
//!   query-independent.
//!
//! [`PreparedQuery::execute`] is the one Proposition 6.1 executor:
//! [`approx_prob_boolean`](crate::approx::approx_prob_boolean) runs it
//! once on a fresh catalog. Reuse moves no bit: a slice holds exactly the
//! facts, dense ids and probability bits a fresh
//! [`TruncationPlan`](crate::truncate::TruncationPlan) at the same ε
//! holds, and the profile is measured on the same prefix, so a warm and
//! a fresh execution plan and evaluate the same [`ChosenPlan`]. The
//! lineage arena is still built per evaluation — sharing it would change
//! the reported work counters; the shared artifact is the fact catalog.
//!
//! Catalog extension ([`PreparedPdb::prefix_for`], the crate's one
//! cancellable fact loop) checkpoints the [`CancelToken`] every
//! [`CHECK_EVERY`] facts, and a cancelled execution can still certify a
//! sound partial answer via [`partial_certificate`]: the plan the request
//! chose, run by [`evaluate_plan`] on the facts materialized so far.

use crate::approx::Approximation;
use crate::cancel::{CancelInfo, CancelKind, CancelToken, CHECK_EVERY};
use crate::planner::{self, Engine, PlanEvent, PlanKnobs, PlanProfile, Planner, ProfileOutcome};
use crate::truncate::partial_certificate;
use crate::QueryError;
use infpdb_finite::engine::EvalTrace;
use infpdb_finite::plan::{evaluate_plan, ChosenPlan};
use infpdb_finite::shannon::TaskExecutor;
use infpdb_finite::TiTable;
use infpdb_logic::ast::Formula;
use infpdb_logic::compile::CompiledQuery;
use infpdb_math::truncation::{self, Truncation};
use infpdb_ti::catalog::FactCatalog;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::fingerprint::countable_pdb_fingerprint;
use std::borrow::Cow;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Debug)]
struct Inner {
    pdb: CountableTiPdb,
    /// [`countable_pdb_fingerprint`] of `pdb`, computed on first use.
    fingerprint: OnceLock<u64>,
    catalog: Mutex<FactCatalog>,
}

/// A countable t.i. PDB prepared for repeat evaluation: a shared,
/// lazily-extended fact catalog whose prefix tables are O(1) views.
/// Cloning is cheap and clones share the catalog.
#[derive(Debug, Clone)]
pub struct PreparedPdb {
    inner: Arc<Inner>,
}

/// The outcome of slicing a prepared prefix at some ε: the snapshot plus
/// its Proposition 6.1 certificates, or the state at the moment a
/// cancellation checkpoint fired.
#[derive(Debug)]
pub enum PreparedPrefix {
    /// The prefix is materialized and snapshotted.
    Complete {
        /// The certificates (`n`, tail mass, `α_n`).
        truncation: Truncation,
        /// The shared `Ω_n` table (ids = enumeration indexes).
        table: Arc<TiTable>,
    },
    /// A checkpoint stopped catalog extension mid-loop.
    Cancelled {
        /// What fired the checkpoint.
        kind: CancelKind,
        /// Facts materialized and available to a partial answer.
        facts_processed: usize,
        /// The partial prefix table over those facts.
        partial_table: TiTable,
    },
}

impl PreparedPdb {
    /// Wraps a PDB for prepared evaluation. Nothing is materialized until
    /// the first slice request (or an explicit [`warm`](Self::warm)).
    pub fn new(pdb: CountableTiPdb) -> Self {
        let catalog = FactCatalog::new(pdb.schema().clone());
        PreparedPdb {
            inner: Arc::new(Inner {
                pdb,
                fingerprint: OnceLock::new(),
                catalog: Mutex::new(catalog),
            }),
        }
    }

    /// The underlying PDB.
    pub fn pdb(&self) -> &CountableTiPdb {
        &self.inner.pdb
    }

    /// The PDB's [`countable_pdb_fingerprint`], computed once and shared
    /// by every clone: the planner's seeds and the serving layer's cache
    /// keys read this one value instead of re-hashing the supply.
    pub fn fingerprint(&self) -> u64 {
        *self
            .inner
            .fingerprint
            .get_or_init(|| countable_pdb_fingerprint(&self.inner.pdb))
    }

    /// Facts materialized into the shared catalog so far.
    pub fn materialized_len(&self) -> usize {
        self.lock_catalog().len()
    }

    /// Eagerly materializes the `n(ε_max)` prefix, so the first request
    /// at any `ε ≥ ε_max` pays no grounding cost. Returns `n(ε_max)`.
    pub fn warm(&self, eps_max: f64) -> Result<usize, QueryError> {
        match self.prefix_for(eps_max, &CancelToken::new())? {
            PreparedPrefix::Complete { truncation, .. } => Ok(truncation.n),
            PreparedPrefix::Cancelled { .. } => {
                unreachable!("a fresh token never fires")
            }
        }
    }

    /// A point-in-time copy of the shared catalog — the artifact the
    /// durable store serializes (see [`crate::persist`]).
    pub fn catalog_snapshot(&self) -> FactCatalog {
        self.lock_catalog().clone()
    }

    /// Installs a restored catalog. Only an empty, untouched prepared
    /// PDB may adopt (the restore path runs before any grounding);
    /// returns `false` without touching anything otherwise.
    pub(crate) fn adopt_catalog(&self, catalog: FactCatalog) -> bool {
        let mut current = self.lock_catalog();
        if !current.is_empty() {
            return false;
        }
        *current = catalog;
        true
    }

    fn lock_catalog(&self) -> std::sync::MutexGuard<'_, FactCatalog> {
        // a panic while extending leaves the catalog consistent (push is
        // all-or-nothing), so recover instead of propagating the poison
        self.inner
            .catalog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Slices the prepared prefix at the ε-appropriate `n`, extending the
    /// shared catalog if this ε needs more facts than any before it.
    ///
    /// The returned table is byte-identical to the table of a
    /// [`TruncationPlan`](crate::truncate::TruncationPlan) at the same ε.
    /// The token is checkpointed only when there is work: before the
    /// first missing fact and every [`CHECK_EVERY`] facts after it, so a
    /// catalog that already holds the prefix slices it whatever the token
    /// says.
    pub fn prefix_for(&self, eps: f64, cancel: &CancelToken) -> Result<PreparedPrefix, QueryError> {
        let supply = self.pdb().supply();
        let truncation = truncation::for_tolerance(supply, eps)?;
        let cap = supply.support_len().unwrap_or(usize::MAX).min(truncation.n);
        let mut catalog = self.lock_catalog();
        let start = catalog.len();
        for i in start..cap {
            if (i - start).is_multiple_of(CHECK_EVERY) {
                if let Err(kind) = cancel.check() {
                    return Ok(PreparedPrefix::Cancelled {
                        kind,
                        facts_processed: i,
                        partial_table: catalog.table_prefix(i),
                    });
                }
            }
            catalog.push(supply.fact(i), supply.prob(i))?;
        }
        Ok(PreparedPrefix::Complete {
            truncation,
            table: Arc::new(catalog.table_prefix(cap)),
        })
    }
}

/// One execution's answer, with the plan behind it.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The certified approximation.
    pub approx: Approximation,
    /// The finite evaluation's work counters.
    pub trace: EvalTrace,
    /// The plan that was evaluated.
    pub plan: Arc<ChosenPlan>,
    /// What the planner's memo did.
    pub event: PlanEvent,
}

/// A compiled query bound to a prepared PDB, an engine choice and the
/// planner's knobs: the complete prepare-phase artifact, and the one
/// code path from a prepared PDB, a compiled query and ε to a certified
/// answer. [`execute`](Self::execute) replays only the ε-dependent work.
/// Clones share the catalog, the compiled query and the planner.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pdb: PreparedPdb,
    compiled: Arc<CompiledQuery>,
    engine: Engine,
    knobs: PlanKnobs,
    parallelism: usize,
    // profiled on the first execution and shared across clones; plans
    // are memoized per ε inside the Planner
    planner: Arc<OnceLock<Planner>>,
}

impl PreparedQuery {
    /// Compiles `query` against the PDB's schema and binds it. `engine`
    /// and `knobs` decide the plan every execution runs.
    pub fn prepare(pdb: PreparedPdb, query: &Formula, engine: Engine, knobs: PlanKnobs) -> Self {
        let compiled = Arc::new(CompiledQuery::compile(pdb.pdb().schema(), query));
        PreparedQuery {
            pdb,
            compiled,
            engine,
            knobs,
            parallelism: 1,
            planner: Arc::new(OnceLock::new()),
        }
    }

    /// Sets the intra-query thread budget used by
    /// [`execute`](Self::execute). Results are bit-for-bit identical at
    /// every value; `1` (the default) keeps evaluation fully sequential.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Proposition 6.1 at tolerance `eps`: profile once, plan at `eps`
    /// under the query's engine and evaluate the plan on the prefix at
    /// its `ε_trunc`. An `eps` outside `(0, 1/2)` is refused before
    /// anything is grounded. The answer — estimate, certificates and work
    /// counters, or [`QueryError::Ineligible`] for a forced strategy — is
    /// the same bits whether the catalog is fresh or warm, at every
    /// thread count and under every executor.
    ///
    /// `cancel` is checkpointed while the catalog grows and once more
    /// before the finite evaluation starts. `exec` runs the evaluation's
    /// parallel tasks (a fork-join executor when `None`); one that skips
    /// tasks because `cancel` fired surfaces as
    /// [`QueryError::Cancelled`] too. A cancelled execution carries a
    /// sound partial answer unless a component of the chosen plan
    /// samples.
    pub fn execute(
        &self,
        eps: f64,
        cancel: &CancelToken,
        exec: Option<&dyn TaskExecutor>,
    ) -> Result<Execution, QueryError> {
        // validates ε (Proposition 6.1 needs ε ∈ (0, 1/2)) before the
        // profile grounds anything, and pins the prefix length for costing
        let n_eval = planner::eval_prefix_len(self.pdb.pdb(), eps)?;
        let mut chosen = None;
        let stop = 'cancelled: {
            let planner = match self.planner.get() {
                Some(planner) => planner,
                None => match PlanProfile::build_prepared(
                    &self.pdb,
                    &self.compiled,
                    &self.knobs,
                    cancel,
                )? {
                    // under a race the first initializer wins, so the
                    // shared per-ε memo (and its re-plan history)
                    // survives; the loser's profile is identical
                    ProfileOutcome::Ready(profile) => {
                        self.planner.get_or_init(|| Planner::new(profile))
                    }
                    ProfileOutcome::Cancelled {
                        kind,
                        facts_processed,
                        partial_table,
                    } => break 'cancelled (kind, facts_processed, partial_table),
                },
            };
            let (plan, event) = planner.plan(self.engine, eps, n_eval, &self.knobs)?;
            let plan = chosen.insert(plan);
            let (truncation, table) = match self.pdb.prefix_for(plan.eps_trunc, cancel)? {
                PreparedPrefix::Complete { truncation, table } => (truncation, table),
                PreparedPrefix::Cancelled {
                    kind,
                    facts_processed,
                    partial_table,
                } => break 'cancelled (kind, facts_processed, partial_table),
            };
            // last checkpoint before the evaluation: don't start a run
            // whose budget is already spent
            if let Err(kind) = cancel.check() {
                break 'cancelled (kind, truncation.n, (*table).clone());
            }
            match evaluate_plan(&self.compiled, plan, &table, self.parallelism, exec)? {
                Some((estimate, trace)) => {
                    return Ok(Execution {
                        approx: Approximation {
                            estimate,
                            eps,
                            n: truncation.n,
                            tail_mass: truncation.tail_mass,
                        },
                        trace,
                        plan: Arc::clone(plan),
                        event,
                    });
                }
                // the executor skipped tasks: the request was cancelled
                // while they were queued
                None => {
                    let kind = cancel.cancelled_kind().unwrap_or(CancelKind::Explicit);
                    (kind, truncation.n, (*table).clone())
                }
            }
        };
        Err(cancelled(
            self.pdb.pdb(),
            &self.compiled,
            chosen.as_deref(),
            stop,
        ))
    }
}

/// The cancellation tail of [`PreparedQuery::execute`]: certify the
/// facts materialized before the checkpoint fired, at the `ε_m` their
/// prefix supports, and evaluate a sound partial answer on them with the
/// plan the request chose — [`ChosenPlan::exact`] when the profile was
/// cut short before any plan existed. It runs on the calling thread:
/// the bits are those of any parallelism (the determinism contract of
/// [`evaluate_plan`]), no thread is forked after the deadline, and the
/// request's executor, which skips every task once its token fired,
/// cannot drop the partial. A plan that samples gets no partial: its
/// estimate would carry a sampling error the certified `ε_m` does not
/// cover.
fn cancelled(
    pdb: &CountableTiPdb,
    compiled: &CompiledQuery,
    plan: Option<&ChosenPlan>,
    (kind, facts_processed, partial_table): (CancelKind, usize, TiTable),
) -> QueryError {
    let plan = plan.map_or_else(|| Cow::Owned(ChosenPlan::exact(compiled)), Cow::Borrowed);
    let partial = (!plan.has_sampling())
        .then(|| partial_certificate(pdb, facts_processed))
        .flatten()
        .and_then(|(trunc, eps_m)| {
            let (estimate, _) = evaluate_plan(compiled, &plan, &partial_table, 1, None).ok()??;
            Some(Approximation {
                estimate,
                eps: eps_m,
                n: trunc.n,
                tail_mass: trunc.tail_mass,
            })
        });
    QueryError::Cancelled(CancelInfo {
        kind,
        facts_processed,
        partial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::StrategyKind;
    use crate::truncate::TruncationPlan;
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_core::value::Value;
    use infpdb_logic::parse;
    use infpdb_math::series::{GeometricSeries, ZetaSeries};
    use infpdb_ti::enumerator::FactSupply;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1)]).unwrap()
    }

    fn knobs() -> PlanKnobs {
        Default::default()
    }

    fn run(pq: &PreparedQuery, eps: f64) -> Execution {
        pq.execute(eps, &CancelToken::new(), None).unwrap()
    }

    fn geometric() -> CountableTiPdb {
        CountableTiPdb::new(FactSupply::unary_over_naturals(
            schema(),
            RelId(0),
            GeometricSeries::new(0.5, 0.5).unwrap(),
        ))
        .unwrap()
    }

    fn zeta() -> CountableTiPdb {
        CountableTiPdb::new(FactSupply::unary_over_naturals(
            schema(),
            RelId(0),
            ZetaSeries::basel(),
        ))
        .unwrap()
    }

    /// `P(∃x R(x))` under ζ(2), `p_i = 6/(π² i²)`: by Euler's product
    /// `∏(1 − x²/i²) = sin(πx)/(πx)` at `x = √6/π`, it is `1 − sin√6/√6`.
    fn zeta_exists_truth() -> f64 {
        1.0 - 6f64.sqrt().sin() / 6f64.sqrt()
    }

    /// The [`CancelInfo`] of a cancelled result.
    fn cancel_info(err: QueryError) -> CancelInfo {
        match err {
            QueryError::Cancelled(info) => info,
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn refinement_extends_without_regrounding() {
        let prepared = PreparedPdb::new(geometric());
        let q = parse("exists x. R(x)", prepared.pdb().schema()).unwrap();
        let pq = PreparedQuery::prepare(prepared.clone(), &q, Engine::Auto, knobs());
        run(&pq, 0.1);
        let after_loose = prepared.materialized_len();
        // tightening ε extends the same catalog monotonically
        run(&pq, 0.001);
        let after_tight = prepared.materialized_len();
        assert!(after_tight > after_loose);
        // repeating at either ε leaves the catalog untouched
        run(&pq, 0.1);
        run(&pq, 0.001);
        assert_eq!(prepared.materialized_len(), after_tight);
    }

    #[test]
    fn repeated_slices_share_one_backing() {
        let prepared = PreparedPdb::new(geometric());
        let slice = || match prepared.prefix_for(0.05, &CancelToken::new()).unwrap() {
            PreparedPrefix::Complete { table, .. } => table,
            other => panic!("expected completion, got {other:?}"),
        };
        let (t1, t2) = (slice(), slice());
        assert!(
            std::ptr::eq(t1.interner(), t2.interner()),
            "repeat ε must view the same catalog backing"
        );
        assert_eq!(t1.len(), t2.len());
        assert_eq!(t1.fingerprint(), t2.fingerprint());
    }

    #[test]
    fn warm_makes_first_execution_ground_free() {
        let prepared = PreparedPdb::new(geometric());
        let n = prepared.warm(0.01).unwrap();
        assert_eq!(prepared.materialized_len(), n);
        let q = parse("exists x. R(x)", prepared.pdb().schema()).unwrap();
        let pq = PreparedQuery::prepare(prepared.clone(), &q, Engine::Auto, knobs());
        let a = run(&pq, 0.01).approx;
        assert_eq!(a.n, n);
        assert_eq!(prepared.materialized_len(), n, "no further grounding");
    }

    #[test]
    fn invalid_eps_is_refused_before_grounding() {
        let prepared = PreparedPdb::new(zeta());
        let q = parse("exists x. R(x)", prepared.pdb().schema()).unwrap();
        let pq = PreparedQuery::prepare(prepared.clone(), &q, Engine::Auto, knobs());
        for eps in [0.5, 0.0, -0.1, f64::NAN] {
            let err = pq.execute(eps, &CancelToken::new(), None);
            assert!(
                matches!(err, Err(QueryError::Math(_))),
                "eps {eps}: {err:?}"
            );
        }
        assert_eq!(prepared.materialized_len(), 0, "nothing grounded");
    }

    #[test]
    fn deadline_cancel_yields_sound_partial() {
        // ζ(2) at ε = 0.01 needs 92 facts; a pre-expired deadline stops
        // early, and the partial answer must still enclose the truth at
        // its own (wider) certified tolerance — except when the prefix
        // was too short to certify anything.
        let pdb = zeta();
        let q = parse("exists x. R(x)", pdb.schema()).unwrap();
        let truth = zeta_exists_truth();
        let pq = PreparedQuery::prepare(PreparedPdb::new(pdb.clone()), &q, Engine::Auto, knobs());
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let result = pq.execute(0.01, &token, None);
        let info = cancel_info(result.unwrap_err());
        assert_eq!(info.kind, CancelKind::Deadline);
        if let Some(partial) = info.partial {
            assert_eq!(partial.n, info.facts_processed);
            assert!(partial.eps < 0.5);
            assert!(partial.interval().contains(truth));
        }
        // the same tail after 4096 facts, which certify a partial
        let m = 4096;
        let stop = (CancelKind::Deadline, m, pdb.truncate(m).unwrap());
        let compiled = CompiledQuery::compile(pdb.schema(), &q);
        let tail = cancelled(&pdb, &compiled, None, stop);
        let partial = cancel_info(tail).partial.expect("4096 facts certify");
        assert_eq!(partial.n, m);
        assert!(partial.eps < 0.01);
        assert!(partial.interval().contains(truth));
    }

    #[test]
    fn a_pre_cancelled_token_certifies_no_partial() {
        let prepared = PreparedPdb::new(geometric());
        let q = parse("exists x. R(x)", prepared.pdb().schema()).unwrap();
        let pq = PreparedQuery::prepare(prepared, &q, Engine::Auto, knobs());
        let token = CancelToken::new();
        token.cancel();
        let result = pq.execute(0.01, &token, None);
        let info = cancel_info(result.unwrap_err());
        assert_eq!(info.kind, CancelKind::Explicit);
        assert_eq!(info.facts_processed, 0);
        assert!(info.partial.is_none());
    }

    #[test]
    fn cancelled_tail_skips_the_partial_a_sampling_plan_priced_out() {
        use infpdb_finite::plan::{ComponentPlan, Strategy};
        let p = geometric();
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        // ∃x R(x) = 1 − ∏(1 − 2^{-i})
        let truth = 1.0 - (0..2000).map(|i| 1.0 - p.supply().prob(i)).product::<f64>();
        let compiled = CompiledQuery::compile(p.schema(), &q);
        let prefix = TruncationPlan::new(&p, 0.01).unwrap();
        let n = prefix.n();
        assert!(n > 0);
        let tail = |strategy| {
            let plan = ChosenPlan {
                connective: compiled.connective(),
                components: vec![ComponentPlan {
                    strategy,
                    cost: 1.0,
                    seed: 1,
                }],
                eps: 0.01,
                eps_trunc: 0.01,
            };
            let stop = (CancelKind::Deadline, n, prefix.table.clone());
            cancel_info(cancelled(&p, &compiled, Some(&plan), stop))
        };
        let sampled = tail(Strategy::MonteCarlo { samples: 1000 });
        assert_eq!(sampled.facts_processed, n);
        assert!(sampled.partial.is_none());
        let exact = tail(Strategy::Lifted);
        let partial = exact.partial.expect("an all-exact plan keeps its partial");
        assert_eq!(partial.n, n);
        assert!(partial.eps < 0.5);
        assert!(partial.interval().contains(truth));
    }

    #[test]
    fn cancellable_plan_completes_when_token_never_fires() {
        let prepared = PreparedPdb::new(geometric());
        match prepared.prefix_for(0.1, &CancelToken::new()).unwrap() {
            PreparedPrefix::Complete { truncation, table } => {
                let direct = TruncationPlan::new(prepared.pdb(), 0.1).unwrap();
                assert_eq!(truncation.n, direct.n());
                assert_eq!(table.len(), direct.table.len());
                assert_eq!(table.fingerprint(), direct.table.fingerprint());
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_fact() {
        let prepared = PreparedPdb::new(zeta());
        let token = CancelToken::new();
        token.cancel();
        match prepared.prefix_for(0.01, &token).unwrap() {
            PreparedPrefix::Cancelled {
                kind,
                facts_processed,
                partial_table,
            } => {
                assert_eq!(kind, CancelKind::Explicit);
                assert_eq!(facts_processed, 0);
                assert_eq!(partial_table.len(), 0);
                assert_eq!(prepared.materialized_len(), 0);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_mid_loop_with_partial_table() {
        // ζ(2) at ε = 0.01 needs 92 facts; an already-expired deadline
        // must stop at a checkpoint, short of the full prefix
        let prepared = PreparedPdb::new(zeta());
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        match prepared.prefix_for(0.01, &token).unwrap() {
            PreparedPrefix::Cancelled {
                kind,
                facts_processed,
                partial_table,
            } => {
                assert_eq!(kind, CancelKind::Deadline);
                assert_eq!(partial_table.len(), facts_processed);
                let full = TruncationPlan::new(prepared.pdb(), 0.01).unwrap();
                assert!(facts_processed < full.n());
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_on_a_warm_catalog_returns_a_certified_partial() {
        // ζ(2) at ε = 0.01 needs 92 facts; once they are materialized, an
        // expired deadline still slices them, and the last checkpoint
        // before evaluation certifies the answer on all 92
        let prepared = PreparedPdb::new(zeta());
        assert_eq!(prepared.warm(0.01).unwrap(), 92);
        let q = parse("exists x. R(x)", prepared.pdb().schema()).unwrap();
        let pq = PreparedQuery::prepare(prepared.clone(), &q, Engine::Auto, knobs());
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let result = pq.execute(0.01, &token, None);
        let info = cancel_info(result.unwrap_err());
        assert_eq!(info.kind, CancelKind::Deadline);
        assert_eq!(info.facts_processed, 92);
        let partial = info.partial.expect("92 facts certify a partial");
        assert_eq!(partial.n, 92);
        assert!(partial.eps < 0.01);
        assert!(partial.interval().contains(zeta_exists_truth()));
        assert_eq!(prepared.materialized_len(), 92, "nothing grounded");
    }

    /// `R/1`, `S/2` and `T/1` interleaved, `R(k)`, `S(k, k+1)`, `T(k+1)`
    /// for `k = 1, 2, …`, with geometrically decaying probabilities.
    fn three_relations() -> CountableTiPdb {
        let rels = [("R", 1), ("S", 2), ("T", 1)].map(|(r, k)| Relation::new(r, k));
        let schema = Schema::from_relations(rels).unwrap();
        let fact = |i: usize| {
            let k = |d: usize| Value::int((i / 3 + d) as i64);
            match i % 3 {
                0 => Fact::new(RelId(0), [k(1)]),
                1 => Fact::new(RelId(1), [k(1), k(2)]),
                _ => Fact::new(RelId(2), [k(2)]),
            }
        };
        let series = GeometricSeries::new(0.5, 0.8).unwrap();
        CountableTiPdb::new(FactSupply::from_fn(schema, fact, series)).unwrap()
    }

    #[test]
    fn a_cancelled_warm_execution_returns_the_full_answer_as_its_partial() {
        // once a request has run to completion, the same request under an
        // expired deadline stops at the last checkpoint with the whole
        // prefix in hand; its partial must be the full answer, bit for
        // bit, whatever plan the engine chose and at every parallelism
        let pdb = three_relations();
        let queries = [
            "exists x. R(x)",
            "exists x, y. R(x) /\\ S(x, y)",
            "exists x, y. R(x) /\\ S(x, y) /\\ T(y)",
            "(exists x. R(x)) /\\ (exists y. T(y))",
            "(exists x, y. S(x, y) /\\ T(y)) \\/ (exists x. R(x))",
            "forall x. (R(x) -> exists y. S(x, y))",
            "!(exists x. T(x)) /\\ R(1)",
            "exists x. R(x) /\\ T(x)",
        ];
        let engines = [
            Engine::Auto,
            Engine::Force(StrategyKind::Lifted),
            Engine::Force(StrategyKind::Shannon),
        ];
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        let mut pinned = 0;
        for parallelism in [1, 2] {
            let prepared = PreparedPdb::new(pdb.clone());
            for qs in queries {
                let q = parse(qs, pdb.schema()).unwrap();
                for engine in engines {
                    let pq = PreparedQuery::prepare(prepared.clone(), &q, engine, knobs())
                        .with_parallelism(parallelism);
                    let full = match pq.execute(0.01, &CancelToken::new(), None) {
                        Ok(full) => full,
                        Err(QueryError::Ineligible { .. }) => continue,
                        Err(e) => panic!("{qs} {engine:?}: {e}"),
                    };
                    assert!(!full.plan.has_sampling(), "{qs} {engine:?}");
                    let info = cancel_info(pq.execute(0.01, &expired, None).unwrap_err());
                    let partial = info.partial.expect("an exact plan keeps its partial");
                    assert_eq!(
                        partial.estimate.to_bits(),
                        full.approx.estimate.to_bits(),
                        "{qs} {engine:?} at parallelism {parallelism}"
                    );
                    assert_eq!(partial.n, full.approx.n, "{qs} {engine:?}");
                    pinned += 1;
                }
            }
        }
        // Auto and forced Shannon everywhere, forced lifted on the five
        // queries whose every component is safe
        assert_eq!(pinned, 2 * (2 * queries.len() + 5));
    }

    #[test]
    fn finite_support_caps_the_prefix() {
        let rfact = |n: i64| Fact::new(RelId(0), [Value::int(n)]);
        let supply = FactSupply::from_vec(
            schema(),
            vec![(rfact(1), 0.5), (rfact(2), 0.25), (rfact(3), 0.125)],
        )
        .unwrap();
        let pdb = CountableTiPdb::new(supply).unwrap();
        let prepared = PreparedPdb::new(pdb.clone());
        let q = parse("exists x. R(x)", pdb.schema()).unwrap();
        let pq = PreparedQuery::prepare(prepared.clone(), &q, Engine::Auto, knobs());
        let a = run(&pq, 0.01).approx;
        assert_eq!(a.n, 3);
        assert_eq!(a.tail_mass, 0.0);
        assert!((a.estimate - (1.0 - 0.5 * 0.75 * 0.875)).abs() < 1e-12);
        assert_eq!(prepared.materialized_len(), 3);
    }
}
