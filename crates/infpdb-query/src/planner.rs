//! The cost-based plan optimizer: volcano-style strategy selection per
//! relation-disjoint query component.
//!
//! Proposition 6.1 reduces infinite-PDB evaluation to a finite engine on
//! the truncation `Ω_n`; this module chooses that evaluation. Under
//! [`Engine::Auto`], per component of the compiled query (see
//! [`infpdb_logic::compile::CompiledQuery::components`]) it prices the
//! four strategies the finite layer offers and picks the cheapest; under
//! [`Engine::Force`] every component runs the one strategy named, priced
//! and seeded the same way:
//!
//! * **Lifted** — `C = atoms · (n+1)`, available when the component has a
//!   hierarchical safe plan;
//! * **Shannon** — the measured cost of a *budgeted trial run* on the
//!   small profile prefix, extrapolated by `scale^γ` with
//!   `scale = (n_eval+1)/(n_profile+1)`; a trial that exhausts its budget
//!   gets a large (but finite — Shannon is the always-available exact
//!   fallback) pessimistic cost;
//! * **Monte-Carlo** — Hoeffding sample count for the component's share
//!   of the sampling error budget, times the per-sample cost of drawing
//!   a whole world and evaluating the lineage DAG;
//! * **Karp–Luby** — for syntactically monotone components whose profile
//!   lineage converts to a bounded DNF: the Karp–Luby–Madras sample
//!   count (multiplicative ε implies additive ε for probabilities),
//!   times a per-sample cost that touches only the DNF's own variables.
//!
//! **Determinism contract.** A plan is a pure function of (PDB
//! fingerprint, query fingerprint, ε, [`PlanKnobs`]) — never runtime
//! load, thread count, or scheduler. Profiling always runs on the prefix
//! at the *canonical* `knobs.profile_eps` (not the request ε), so the
//! same query planned at different tolerances, in any order, from any
//! process, produces the same profile; sampling seeds are derived by
//! fingerprinting `(seed, pdb_fp, query_fp, ε, component index)`.
//!
//! **Error budget.** An all-exact plan evaluates on the truncation at the
//! requested ε, exactly like the static path. When any component
//! samples, the budget splits: the truncation runs at
//! `ε·(1−σ)` (σ = `knobs.sampling_fraction`) and each of the `k`
//! components may spend `ε·σ/k` of sampling error, so the total additive
//! error stays ≤ ε (component errors sum across an independent
//! `And`/`Or` combination of probabilities in `[0,1]`). Sampling
//! guarantees hold with probability `1 − δ` per sampled component.
//!
//! **Re-planning.** ε-refinement re-derives the plan (sample counts
//! change with ε), but only a change of the *strategy vector* — the cost
//! crossover actually moving — counts as a re-plan in [`PlanEvent`] and
//! the serve layer's `serve_replans_total`.

use crate::prepared::{PreparedPdb, PreparedPrefix};
use crate::truncate::TruncationPlan;
use crate::QueryError;
use infpdb_core::fingerprint::Fingerprinter;
use infpdb_finite::arena::LineageArena;
use infpdb_finite::lineage::lineage_of_component;
use infpdb_finite::plan::{ChosenPlan, ComponentPlan, Strategy};
use infpdb_finite::{karp_luby, monte_carlo, shannon, TiTable};
use infpdb_logic::compile::{CompiledQuery, Connective};
use infpdb_math::truncation;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::fingerprint::countable_pdb_fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The planner's tuning parameters. All fields participate in the plan's
/// identity (see [`PlanKnobs::fingerprint`]) — the serve layer folds the
/// fingerprint into its answer-cache key so a knob change can never alias
/// a stale cached answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanKnobs {
    /// The canonical tolerance the profile prefix is built at. Planning
    /// stays a pure function of (pdb, query, ε, knobs) because this — not
    /// the request ε — decides what the cost model measures.
    pub profile_eps: f64,
    /// Fraction σ of the error budget granted to sampling when any
    /// component samples; the truncation keeps `ε·(1−σ)`.
    pub sampling_fraction: f64,
    /// Per-component confidence parameter δ for sampling strategies.
    pub delta: f64,
    /// Expansion budget of the Shannon trial run on the profile prefix.
    pub shannon_trial_budget: usize,
    /// Clause cap for DNF conversion (profiling and evaluation).
    pub max_dnf_clauses: usize,
    /// Hard ceiling on any sampling strategy's sample count; costlier
    /// sampling plans are disqualified rather than scheduled.
    pub max_samples: usize,
    /// Master seed folded into every component's sampling seed.
    pub seed: u64,
    /// Growth exponent γ for extrapolating the Shannon trial cost from
    /// the profile prefix to the evaluation prefix.
    pub shannon_growth: f64,
}

impl Default for PlanKnobs {
    fn default() -> Self {
        PlanKnobs {
            profile_eps: 0.05,
            sampling_fraction: 0.5,
            delta: 0.01,
            shannon_trial_budget: 20_000,
            max_dnf_clauses: 4096,
            max_samples: 50_000_000,
            seed: 0x109f_dbb5,
            shannon_growth: 1.5,
        }
    }
}

impl PlanKnobs {
    /// Stable digest of every knob — part of every cache key that stores
    /// planner-derived answers.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_f64(self.profile_eps)
            .write_f64(self.sampling_fraction)
            .write_f64(self.delta)
            .write_u64(self.shannon_trial_budget as u64)
            .write_u64(self.max_dnf_clauses as u64)
            .write_u64(self.max_samples as u64)
            .write_u64(self.seed)
            .write_f64(self.shannon_growth);
        fp.finish()
    }
}

/// What profiling measured for one query component on the profile prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ProfileRow {
    /// Component has a hierarchical safe plan.
    safe: bool,
    /// Relational atoms in the component formula.
    atoms: usize,
    /// Interned lineage nodes after grounding on the profile prefix.
    nodes: usize,
    /// Distinct fact variables in the profile lineage.
    vars: usize,
    /// Work units of the completed Shannon trial (`None`: budget blown).
    shannon_ops: Option<u64>,
    /// `(clauses, total literal count, distinct DNF variables)` when the
    /// profile lineage converts to a monotone DNF within the clause cap.
    dnf: Option<(usize, usize, usize)>,
}

/// The reusable profiling artifact: per-component measurements on the
/// canonical profile prefix, plus the identities that make plans pure.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProfile {
    rows: Vec<ProfileRow>,
    connective: Connective,
    profile_n: usize,
    pdb_fp: u64,
    query_fp: u64,
    knobs_fp: u64,
}

/// Profiling against a cancellable prefix either completes or reports
/// the cancellation state for the caller's partial-answer path.
#[derive(Debug)]
pub enum ProfileOutcome {
    /// Profiling completed.
    Ready(PlanProfile),
    /// A cancellation checkpoint fired while materializing the profile
    /// prefix.
    Cancelled {
        /// What fired.
        kind: crate::cancel::CancelKind,
        /// Facts materialized before the checkpoint.
        facts_processed: usize,
        /// The partial prefix over those facts.
        partial_table: TiTable,
    },
}

impl PlanProfile {
    /// Profiles every component of `compiled` on `profile_table` (the
    /// prefix at [`PlanKnobs::profile_eps`]).
    pub fn build(
        compiled: &CompiledQuery,
        profile_table: &TiTable,
        pdb_fp: u64,
        knobs: &PlanKnobs,
    ) -> Result<PlanProfile, QueryError> {
        let mut rows = Vec::with_capacity(compiled.components().len());
        for (i, comp) in compiled.components().iter().enumerate() {
            let mut arena = LineageArena::new();
            let root = lineage_of_component(compiled, i, profile_table, &mut arena)
                .map_err(QueryError::from)?;
            let nodes = arena.stats().nodes;
            let vars = arena.vars(root).len();
            let dnf = if comp.is_monotone() {
                karp_luby::to_dnf_arena(&arena, root, knobs.max_dnf_clauses).map(|d| {
                    let clauses = d.len();
                    let literals: usize = d.iter().map(|c| c.len()).sum();
                    let mut dv: Vec<_> = d.into_iter().flatten().collect();
                    dv.sort_unstable();
                    dv.dedup();
                    (clauses, literals, dv.len())
                })
            } else {
                None
            };
            let shannon_ops = shannon::probability_dag_with_budget(
                &mut arena,
                root,
                &|id| profile_table.prob(id),
                knobs.shannon_trial_budget,
            )
            .map(|(_, stats)| {
                (stats.expansions * 8 + stats.decompositions * 2 + stats.cache_hits + nodes) as u64
            });
            rows.push(ProfileRow {
                safe: comp.is_safe(),
                atoms: comp.profile().atoms.max(1),
                nodes,
                vars,
                shannon_ops,
                dnf,
            });
        }
        Ok(PlanProfile {
            rows,
            connective: compiled.connective(),
            profile_n: profile_table.len(),
            pdb_fp,
            query_fp: compiled.fingerprint(),
            knobs_fp: knobs.fingerprint(),
        })
    }

    /// Profiles on a [`PreparedPdb`]'s shared prefix at
    /// `knobs.profile_eps`, checkpointing `cancel` while the catalog
    /// grows. The prefix is byte-identical to a fresh
    /// [`TruncationPlan`] at that ε, so [`PlanProfile::build`] on either
    /// gives the same profile.
    pub fn build_prepared(
        prepared: &PreparedPdb,
        compiled: &CompiledQuery,
        knobs: &PlanKnobs,
        cancel: &crate::cancel::CancelToken,
    ) -> Result<ProfileOutcome, QueryError> {
        match prepared.prefix_for(knobs.profile_eps, cancel)? {
            PreparedPrefix::Complete { table, .. } => Ok(ProfileOutcome::Ready(Self::build(
                compiled,
                &table,
                prepared.fingerprint(),
                knobs,
            )?)),
            PreparedPrefix::Cancelled {
                kind,
                facts_processed,
                partial_table,
            } => Ok(ProfileOutcome::Cancelled {
                kind,
                facts_processed,
                partial_table,
            }),
        }
    }

    /// The plan at tolerance `eps`, with `n_eval` the evaluation-prefix
    /// length (see [`eval_prefix_len`]). Under [`Engine::Auto`] each
    /// component takes its cheapest strategy; under
    /// [`Engine::Force`]`(kind)` every component takes `kind`, with the
    /// cost and seed Auto would compare and assign. `None` when a forced
    /// strategy cannot evaluate some component (no safe plan for lifted,
    /// no bounded monotone DNF for Karp–Luby, sampling disqualified at
    /// this ε); Auto always finds a plan. Pure: no measurement happens
    /// here.
    pub fn plan(
        &self,
        engine: Engine,
        eps: f64,
        n_eval: usize,
        knobs: &PlanKnobs,
    ) -> Option<ChosenPlan> {
        let components = self
            .component_plans(engine, eps, n_eval, knobs)
            .collect::<Option<Vec<_>>>()?;
        Some(self.assemble(components, eps, knobs))
    }

    /// Each component's plan under `engine`, `None` where a forced
    /// strategy is ineligible.
    fn component_plans<'a>(
        &'a self,
        engine: Engine,
        eps: f64,
        n_eval: usize,
        knobs: &'a PlanKnobs,
    ) -> impl Iterator<Item = Option<ComponentPlan>> + 'a {
        debug_assert_eq!(
            self.knobs_fp,
            knobs.fingerprint(),
            "knobs changed under profile"
        );
        let k = self.rows.len().max(1) as f64;
        let scale = (n_eval as f64 + 1.0) / (self.profile_n as f64 + 1.0);
        let eps_i = eps * knobs.sampling_fraction / k;
        self.rows.iter().enumerate().map(move |(i, row)| {
            let price = |kind| candidate(row, kind, eps_i, scale, n_eval, knobs);
            let (strategy, cost) = match engine {
                Engine::Force(kind) => price(kind)?,
                Engine::Auto => {
                    // Shannon first (the always-available exact
                    // fallback), then lifted, Karp–Luby, Monte-Carlo,
                    // each replacing the incumbent only when strictly
                    // cheaper — the order is part of the determinism
                    // contract (ties keep the earlier strategy).
                    let mut best = price(StrategyKind::Shannon)?;
                    for kind in [
                        StrategyKind::Lifted,
                        StrategyKind::KarpLuby,
                        StrategyKind::MonteCarlo,
                    ] {
                        if let Some(c) = price(kind) {
                            if c.1 < best.1 {
                                best = c;
                            }
                        }
                    }
                    best
                }
            };
            Some(ComponentPlan {
                strategy,
                cost,
                seed: component_seed(knobs.seed, self.pdb_fp, self.query_fp, eps, i),
            })
        })
    }

    fn assemble(&self, components: Vec<ComponentPlan>, eps: f64, knobs: &PlanKnobs) -> ChosenPlan {
        let sampling = components.iter().any(|c| c.strategy.is_sampling());
        let eps_trunc = if sampling {
            eps * (1.0 - knobs.sampling_fraction)
        } else {
            eps
        };
        ChosenPlan {
            connective: self.connective,
            components,
            eps,
            eps_trunc,
        }
    }
}

/// A strategy choice without its per-plan parameters — what
/// [`Engine::Force`] forces (sample counts and clause caps are derived
/// per plan by [`PlanProfile::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Hierarchical safe-plan evaluation.
    Lifted,
    /// Exact Shannon expansion on the lineage DAG.
    Shannon,
    /// World-sampling Monte-Carlo.
    MonteCarlo,
    /// Karp–Luby–Madras DNF coverage sampling.
    KarpLuby,
}

impl StrategyKind {
    /// The name shared with [`Strategy::name`].
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Lifted => "lifted",
            StrategyKind::Shannon => "shannon",
            StrategyKind::MonteCarlo => "mc",
            StrategyKind::KarpLuby => "kl",
        }
    }
}

/// How a Proposition 6.1 answer picks its finite evaluation: the
/// cost-based planner, or one strategy forced on every component. Both
/// run a [`ChosenPlan`] through [`infpdb_finite::plan::evaluate_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The cheapest strategy per component.
    Auto,
    /// The named strategy on every component; planning fails with
    /// [`QueryError::Ineligible`] when a component cannot run it.
    Force(StrategyKind),
}

impl Engine {
    /// Stable `u8` discriminant — the single source of truth for cache
    /// keys and wire encodings: `Auto` is 0; forced lifted, Shannon,
    /// Monte-Carlo and Karp–Luby are 1–4.
    pub fn tag(self) -> u8 {
        match self {
            Engine::Auto => 0,
            Engine::Force(StrategyKind::Lifted) => 1,
            Engine::Force(StrategyKind::Shannon) => 2,
            Engine::Force(StrategyKind::MonteCarlo) => 3,
            Engine::Force(StrategyKind::KarpLuby) => 4,
        }
    }
}

/// Prices one strategy for one profiled component: `Some((strategy,
/// cost))` when eligible, `None` otherwise. Automatic and forced plans
/// share it, so forced plans carry exactly the costs the optimizer
/// compared.
fn candidate(
    row: &ProfileRow,
    kind: StrategyKind,
    eps_i: f64,
    scale: f64,
    n_eval: usize,
    knobs: &PlanKnobs,
) -> Option<(Strategy, f64)> {
    match kind {
        StrategyKind::Shannon => Some((
            Strategy::Shannon,
            match row.shannon_ops {
                Some(ops) => ops as f64 * scale.powf(knobs.shannon_growth),
                // budget blown: pessimistic but finite — Shannon stays
                // the exact strategy of last resort
                None => knobs.shannon_trial_budget as f64 * 64.0 * scale.powf(knobs.shannon_growth),
            },
        )),
        StrategyKind::Lifted => row
            .safe
            .then_some((Strategy::Lifted, row.atoms as f64 * (n_eval as f64 + 1.0))),
        StrategyKind::KarpLuby => {
            if !(eps_i > 0.0 && eps_i < 1.0) {
                return None;
            }
            let (clauses, literals, dnf_vars) = row.dnf?;
            let m_eval = ((clauses as f64 * scale).ceil() as usize).max(1);
            if m_eval > knobs.max_dnf_clauses || clauses == 0 {
                return None;
            }
            let samples = karp_luby::samples_for(m_eval, eps_i, knobs.delta);
            if samples > knobs.max_samples {
                return None;
            }
            let avg_width = literals as f64 / clauses as f64;
            let per_sample = dnf_vars as f64 * scale + avg_width + 8.0;
            Some((
                Strategy::KarpLuby {
                    samples,
                    max_clauses: knobs.max_dnf_clauses,
                },
                samples as f64 * per_sample,
            ))
        }
        StrategyKind::MonteCarlo => {
            if !(eps_i > 0.0 && eps_i < 1.0) {
                return None;
            }
            let samples = monte_carlo::samples_for(eps_i, knobs.delta);
            if samples > knobs.max_samples {
                return None;
            }
            let per_sample = n_eval as f64 + row.nodes as f64 * scale;
            Some((
                Strategy::MonteCarlo { samples },
                samples as f64 * per_sample,
            ))
        }
    }
}

fn component_seed(seed: u64, pdb_fp: u64, query_fp: u64, eps: f64, index: usize) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_u64(seed)
        .write_u64(pdb_fp)
        .write_u64(query_fp)
        .write_u64(eps.to_bits())
        .write_u64(index as u64);
    fp.finish()
}

/// The evaluation-prefix length at tolerance `eps`: the Proposition 6.1
/// `n(ε)` capped by a finite support. Mirrors exactly what the
/// truncation/prepared paths materialize.
pub fn eval_prefix_len(pdb: &CountableTiPdb, eps: f64) -> Result<usize, QueryError> {
    let supply = pdb.supply();
    let t = truncation::for_tolerance(supply, eps)?;
    Ok(supply.support_len().unwrap_or(usize::MAX).min(t.n))
}

/// Derives the plan the optimizer would run for `query` at tolerance
/// `eps` without executing it — the `--explain` entry point. Returns the
/// compiled query (components carry the safety/monotonicity verdicts),
/// the chosen plan, and the evaluation-prefix length it was costed for.
pub fn explain(
    pdb: &CountableTiPdb,
    query: &infpdb_logic::ast::Formula,
    eps: f64,
    knobs: &PlanKnobs,
) -> Result<(CompiledQuery, ChosenPlan, usize), QueryError> {
    let n_eval = eval_prefix_len(pdb, eps)?;
    let compiled = CompiledQuery::compile(pdb.schema(), query);
    let prefix = TruncationPlan::new(pdb, knobs.profile_eps)?;
    let fp = countable_pdb_fingerprint(pdb);
    let profile = PlanProfile::build(&compiled, &prefix.table, fp, knobs)?;
    let plan = profile
        .plan(Engine::Auto, eps, n_eval, knobs)
        .expect("Auto always finds a plan");
    Ok((compiled, plan, n_eval))
}

/// What [`Planner::plan_at`] did: served from the per-ε memo, or freshly
/// derived — and whether the fresh derivation changed the strategy
/// vector (a true re-plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEvent {
    /// The plan came from the per-ε memo.
    pub cached: bool,
    /// A fresh derivation picked different strategies than the previous
    /// one for this query (the cost crossover moved).
    pub replanned: bool,
}

/// The plan memo keyed by (engine tag, ε bits), plus the strategy vector
/// of the last derivation (for re-plan detection on ε refinement).
type PlanMemo = (HashMap<(u8, u64), Arc<ChosenPlan>>, Option<Vec<u8>>);

/// A cached profile plus the per-ε plan memo — the artifact the serve
/// layer stores in its plan cache and [`crate::PreparedQuery`] keeps
/// alongside its compiled query.
#[derive(Debug)]
pub struct Planner {
    profile: PlanProfile,
    memo: Mutex<PlanMemo>,
}

impl Planner {
    /// Wraps a completed profile.
    pub fn new(profile: PlanProfile) -> Self {
        Planner {
            profile,
            memo: Mutex::new((HashMap::new(), None)),
        }
    }

    /// The [`Engine::Auto`] plan for tolerance `eps`, memoized per
    /// ε-bit-pattern.
    pub fn plan_at(
        &self,
        eps: f64,
        n_eval: usize,
        knobs: &PlanKnobs,
    ) -> (Arc<ChosenPlan>, PlanEvent) {
        self.plan(Engine::Auto, eps, n_eval, knobs)
            .expect("Auto always finds a plan")
    }

    /// The plan for `engine` at tolerance `eps`, memoized per engine and
    /// ε-bit-pattern. A forced strategy some component cannot run is a
    /// [`QueryError::Ineligible`] naming the first such component.
    pub fn plan(
        &self,
        engine: Engine,
        eps: f64,
        n_eval: usize,
        knobs: &PlanKnobs,
    ) -> Result<(Arc<ChosenPlan>, PlanEvent), QueryError> {
        let key = (engine.tag(), eps.to_bits());
        let mut memo = self
            .memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(plan) = memo.0.get(&key) {
            let event = PlanEvent {
                cached: true,
                replanned: false,
            };
            return Ok((Arc::clone(plan), event));
        }
        let plan = match (self.profile.plan(engine, eps, n_eval, knobs), engine) {
            (Some(plan), _) => Arc::new(plan),
            (None, Engine::Force(strategy)) => {
                let mut plans = self.profile.component_plans(engine, eps, n_eval, knobs);
                let component = plans.position(|c| c.is_none()).unwrap_or_default();
                return Err(QueryError::Ineligible {
                    strategy,
                    component,
                });
            }
            (None, Engine::Auto) => unreachable!("Auto always finds a plan"),
        };
        let vector = plan.strategy_vector();
        let replanned = memo.1.as_ref().is_some_and(|last| *last != vector);
        memo.1 = Some(vector);
        memo.0.insert(key, Arc::clone(&plan));
        let event = PlanEvent {
            cached: false,
            replanned,
        };
        Ok((plan, event))
    }
}
