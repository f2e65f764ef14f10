//! The additive-ε approximation algorithm (Proposition 6.1).
//!
//! `p := P(Q | Ω_n)` computed by a closed-world finite engine on the prefix
//! table satisfies `P(Q) − ε ≤ p ≤ P(Q) + ε`:
//!
//! * `(a)` `P(Q) = P(Ω_n)·p + P(¬Ω_n)·P(Q | ¬Ω_n) ≤ p + ε` since
//!   `P(¬Ω_n) ≤ 1 − e^{−α_n} ≤ ε`;
//! * `(b)` `P(Q) ≥ P(Ω_n)·p ≥ e^{−α_n}·p`, so
//!   `p ≤ e^{α_n}·P(Q) ≤ (1+ε)P(Q) ≤ P(Q) + ε`.
//!
//! Conditioning note: for a *tuple-independent* PDB, conditioning on
//! "no fact beyond `n` occurs" leaves the joint distribution of
//! `f₁ … f_n` untouched (independence), so `P(Q | Ω_n)` **is** the query
//! probability on the prefix table — with the technical caveat the paper
//! handles via `r`-equivalence: the conditioned instances are exactly the
//! sub-instances of `{f₁ … f_n}`, which is how the finite engine evaluates.

use crate::cancel::{CancelInfo, CancelKind, CancelToken};
use crate::planner::{self, Engine, PlanKnobs, PlanProfile, Planner, ProfileOutcome};
use crate::truncate::{partial_certificate, PlannedTruncation, TruncationPlan};
use crate::QueryError;
use infpdb_finite::engine::{self, EvalTrace};
use infpdb_finite::plan::{evaluate_plan, ChosenPlan};
use infpdb_finite::TiTable;
use infpdb_logic::ast::Formula;
use infpdb_logic::compile::CompiledQuery;
use infpdb_ti::construction::CountableTiPdb;

/// The result of an approximate evaluation, carrying its certificates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Approximation {
    /// The estimate `p = P(Q | Ω_n)`.
    pub estimate: f64,
    /// The additive tolerance ε: `P(Q) ∈ [estimate − ε, estimate + ε]`.
    pub eps: f64,
    /// The truncation length `n(ε)`.
    pub n: usize,
    /// Certified bound on the discarded tail mass.
    pub tail_mass: f64,
}

impl Approximation {
    /// The guaranteed enclosure `[p − ε, p + ε] ∩ [0, 1]`.
    pub fn interval(&self) -> infpdb_math::ProbInterval {
        infpdb_math::ProbInterval::exact(self.estimate.clamp(0.0, 1.0))
            .expect("estimate is a probability")
            .widen(self.eps)
    }
}

/// Proposition 6.1: additive-ε approximation of `P(Q)` for a Boolean FO
/// query `Q` on a countable t.i. PDB. `engine` picks the plan for the
/// `P(Q | Ω_n)` evaluation: [`Engine::Auto`] for the cost-based planner,
/// [`Engine::Force`] for one strategy on every component.
///
/// ```
/// use infpdb_core::schema::{RelId, Relation, Schema};
/// use infpdb_logic::parse;
/// use infpdb_math::series::GeometricSeries;
/// use infpdb_query::approx::approx_prob_boolean;
/// use infpdb_query::Engine;
/// use infpdb_ti::{construction::CountableTiPdb, enumerator::FactSupply};
///
/// // R(1), R(2), … with probabilities 1/2, 1/4, …
/// let schema = Schema::from_relations([Relation::new("R", 1)])?;
/// let pdb = CountableTiPdb::new(FactSupply::unary_over_naturals(
///     schema.clone(), RelId(0), GeometricSeries::new(0.5, 0.5)?))?;
///
/// let q = parse("exists x. R(x)", &schema)?;
/// let answer = approx_prob_boolean(&pdb, &q, 0.01, Engine::Auto)?;
/// // the true probability is 1 − ∏(1 − 2^{-i}) ≈ 0.7112
/// assert!((answer.estimate - 0.7112).abs() <= 0.011);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn approx_prob_boolean(
    pdb: &CountableTiPdb,
    query: &Formula,
    eps: f64,
    engine: Engine,
) -> Result<Approximation, QueryError> {
    approx_prob_boolean_par(pdb, query, eps, engine, 1)
}

/// [`approx_prob_boolean`] with up to `parallelism` worker threads inside
/// the finite evaluation (bit-for-bit identical estimates at every thread
/// count — see [`infpdb_finite::plan::evaluate_plan`]).
pub fn approx_prob_boolean_par(
    pdb: &CountableTiPdb,
    query: &Formula,
    eps: f64,
    engine: Engine,
    parallelism: usize,
) -> Result<Approximation, QueryError> {
    // a fresh token never cancels
    approx_prob_boolean_cancellable(
        pdb,
        query,
        eps,
        engine,
        parallelism,
        &CancelToken::new(),
        PartialOnCancel::Skip,
    )
    .map(|(a, _)| a)
}

/// Whether a cancelled evaluation should still produce a sound partial
/// answer from the facts processed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartialOnCancel {
    /// Run the exact evaluator on the partial prefix (at the tolerance
    /// [`partial_certificate`] certifies) and attach the result to the
    /// [`CancelInfo`]. This spends one evaluation *after* the
    /// cancellation fired, bounded by the work already admitted.
    #[default]
    Evaluate,
    /// Return immediately; [`CancelInfo::partial`] is `None`.
    Skip,
}

/// [`approx_prob_boolean_par`] with cooperative cancellation, plus the
/// finite evaluation's [`EvalTrace`] — Shannon memo/expansion counters,
/// arena interning statistics and the executed plan's summary. This is
/// the one-shot Proposition 6.1 path: profile at the canonical knobs
/// tolerance, plan at `eps` under `engine`, truncate at the plan's
/// `ε_trunc` and evaluate the plan. Deterministic — the plan depends only
/// on the PDB/query fingerprints, ε, the engine and the default
/// [`PlanKnobs`] — and bit-for-bit the prepared path
/// ([`crate::PreparedQuery::execute`]), which profiles on byte-identical
/// prefix tables, at every thread count.
///
/// The truncation loops check `cancel` every
/// [`crate::cancel::CHECK_EVERY`] facts and, once more, right before the
/// (non-interruptible) finite evaluation. On cancellation the error
/// carries a [`CancelInfo`]: which trigger fired, how many facts were
/// materialized, and — under [`PartialOnCancel::Evaluate`] — a sound
/// anytime [`Approximation`] at the wider tolerance the partial prefix
/// certifies. The partial answer is a *bona fide* Proposition 6.1
/// result: the `m`-fact prefix is the truncation `Ω_m`, and its
/// certificate comes from the series' own tail bound at `m` (see
/// [`partial_certificate`]).
pub fn approx_prob_boolean_cancellable(
    pdb: &CountableTiPdb,
    query: &Formula,
    eps: f64,
    engine: Engine,
    parallelism: usize,
    cancel: &CancelToken,
    partial_policy: PartialOnCancel,
) -> Result<(Approximation, EvalTrace), QueryError> {
    // validates the requested ε up front (Proposition 6.1 needs
    // ε ∈ (0, 1/2)) and pins the evaluation-prefix length for costing
    let n_eval = planner::eval_prefix_len(pdb, eps)?;
    let knobs = PlanKnobs::default();
    let compiled = CompiledQuery::compile(pdb.schema(), query);
    let mut chosen = None;
    let stop = 'cancelled: {
        let profile = match PlanProfile::build_oneshot(pdb, &compiled, &knobs, cancel)? {
            ProfileOutcome::Ready(profile) => profile,
            ProfileOutcome::Cancelled {
                kind,
                facts_processed,
                partial_table,
            } => break 'cancelled (kind, facts_processed, partial_table),
        };
        let (plan, _) = Planner::new(profile).plan(engine, eps, n_eval, &knobs)?;
        let plan = chosen.insert(plan);
        match TruncationPlan::new_cancellable(pdb, plan.eps_trunc, cancel)? {
            PlannedTruncation::Complete(tplan) => match cancel.check() {
                Ok(()) => {
                    let (estimate, trace) =
                        evaluate_plan(&compiled, plan, &tplan.table, parallelism, None)?
                            .expect("the fork-join executor runs every task");
                    let n = tplan.truncation.n;
                    let tail_mass = tplan.truncation.tail_mass;
                    let approx = Approximation {
                        estimate,
                        eps,
                        n,
                        tail_mass,
                    };
                    return Ok((approx, trace));
                }
                Err(kind) => break 'cancelled (kind, tplan.n(), tplan.table),
            },
            PlannedTruncation::Cancelled {
                kind,
                facts_processed,
                partial_table,
            } => break 'cancelled (kind, facts_processed, partial_table),
        }
    };
    Err(cancelled(
        pdb,
        query,
        parallelism,
        partial_policy,
        chosen.as_deref(),
        stop,
    ))
}

/// The cancellation tail of every Proposition 6.1 path: certify the
/// facts materialized before the checkpoint fired, at the `ε_m` their
/// prefix supports, and (policy permitting) evaluate a sound partial
/// answer on them with the exact evaluator. When the chosen plan samples
/// a component there is no partial: the exact evaluator would run the
/// Shannon expansion the plan priced out, after the budget is spent.
pub(crate) fn cancelled(
    pdb: &CountableTiPdb,
    query: &Formula,
    parallelism: usize,
    partial_policy: PartialOnCancel,
    plan: Option<&ChosenPlan>,
    (kind, facts_processed, partial_table): (CancelKind, usize, TiTable),
) -> QueryError {
    let evaluate =
        partial_policy == PartialOnCancel::Evaluate && !plan.is_some_and(ChosenPlan::has_sampling);
    let partial = evaluate
        .then(|| partial_certificate(pdb, facts_processed))
        .flatten()
        .and_then(|(trunc, eps_m)| {
            engine::prob_boolean_traced(query, &partial_table, parallelism)
                .ok()
                .map(|(estimate, _)| Approximation {
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
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_logic::parse;
    use infpdb_math::series::{GeometricSeries, ZetaSeries};
    use infpdb_ti::enumerator::FactSupply;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1)]).unwrap()
    }

    fn pdb(series: impl infpdb_math::series::ProbSeries + Send + Sync + 'static) -> CountableTiPdb {
        CountableTiPdb::new(FactSupply::unary_over_naturals(schema(), RelId(0), series)).unwrap()
    }

    /// Ground truth for ∃x R(x): 1 − ∏(1 − p_i), by very long product.
    fn truth_exists(p: &CountableTiPdb, terms: usize) -> f64 {
        let mut acc = 1.0;
        for i in 0..terms {
            acc *= 1.0 - p.supply().prob(i);
        }
        1.0 - acc
    }

    #[test]
    fn additive_guarantee_holds_geometric() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let truth = truth_exists(&p, 2000);
        for eps in [0.3, 0.1, 0.01, 0.001] {
            let a = approx_prob_boolean(&p, &q, eps, Engine::Auto).unwrap();
            assert!(
                (a.estimate - truth).abs() <= eps,
                "eps {eps}: estimate {} vs truth {truth}",
                a.estimate
            );
            assert!(a.interval().contains(truth));
        }
    }

    #[test]
    fn additive_guarantee_holds_zeta() {
        let p = pdb(ZetaSeries::basel());
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let truth = truth_exists(&p, 3_000_000);
        for eps in [0.1, 0.01] {
            let a = approx_prob_boolean(&p, &q, eps, Engine::Auto).unwrap();
            assert!(
                (a.estimate - truth).abs() <= eps,
                "eps {eps}: estimate {} vs truth {truth}",
                a.estimate
            );
        }
    }

    #[test]
    fn error_shrinks_with_eps() {
        // observed error should be far below ε for the geometric family
        // (the bound is conservative) and must not grow as ε shrinks
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let truth = truth_exists(&p, 2000);
        let e1 = (approx_prob_boolean(&p, &q, 0.1, Engine::Auto)
            .unwrap()
            .estimate
            - truth)
            .abs();
        let e2 = (approx_prob_boolean(&p, &q, 0.001, Engine::Auto)
            .unwrap()
            .estimate
            - truth)
            .abs();
        assert!(e2 <= e1 + 1e-12);
        assert!(e2 <= 0.001);
    }

    #[test]
    fn negative_and_universal_queries() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        // "no fact at all": P = ∏(1−p_i) ≈ 0.28879
        let q = parse("!(exists x. R(x))", p.schema()).unwrap();
        let truth = 1.0 - truth_exists(&p, 2000);
        let a = approx_prob_boolean(&p, &q, 0.01, Engine::Auto).unwrap();
        assert!((a.estimate - truth).abs() <= 0.01);
        // a ground atom
        let q2 = parse("R(1)", p.schema()).unwrap();
        let a2 = approx_prob_boolean(&p, &q2, 0.01, Engine::Auto).unwrap();
        assert!((a2.estimate - 0.5).abs() <= 0.01);
        // R(1) ∧ ¬R(2): 0.5 · 0.75
        let q3 = parse("R(1) /\\ !R(2)", p.schema()).unwrap();
        let a3 = approx_prob_boolean(&p, &q3, 0.01, Engine::Auto).unwrap();
        assert!((a3.estimate - 0.375).abs() <= 0.01);
    }

    #[test]
    fn engines_agree_through_the_truncation() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let lifted =
            approx_prob_boolean(&p, &q, 0.05, Engine::Force(StrategyKind::Lifted)).unwrap();
        let lineage =
            approx_prob_boolean(&p, &q, 0.05, Engine::Force(StrategyKind::Shannon)).unwrap();
        assert!((lifted.estimate - lineage.estimate).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_tolerance_and_free_variables() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        assert!(approx_prob_boolean(&p, &q, 0.5, Engine::Auto).is_err());
        let free = parse("R(x)", p.schema()).unwrap();
        assert!(approx_prob_boolean(&p, &free, 0.1, Engine::Auto).is_err());
    }

    #[test]
    fn cancellable_matches_plain_path_bit_for_bit() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let shannon = Engine::Force(StrategyKind::Shannon);
        for (qs, eps, engine) in [
            ("exists x. R(x)", 0.01, Engine::Auto),
            ("exists x, y. R(x) /\\ R(y) /\\ x != y", 0.05, shannon),
        ] {
            let q = parse(qs, p.schema()).unwrap();
            let plain = approx_prob_boolean(&p, &q, eps, engine).unwrap();
            let token = CancelToken::new();
            let policy = PartialOnCancel::Evaluate;
            let (a, trace) =
                approx_prob_boolean_cancellable(&p, &q, eps, engine, 1, &token, policy).unwrap();
            assert_eq!(plain, a, "{qs}");
            if engine == shannon {
                let arena = trace.arena.expect("lineage engine fills arena stats");
                assert!(arena.nodes > 2);
                assert!(trace.shannon.is_some());
                assert_eq!(trace.plan.map(|s| s.shannon), Some(1));
            }
        }
    }

    #[test]
    fn deadline_cancel_yields_sound_partial() {
        // ζ(2) at ε = 0.01 needs thousands of facts; a pre-expired
        // deadline stops early, and the partial answer must still
        // enclose the truth at its own (wider) certified tolerance —
        // except when the prefix was too short to certify anything.
        let p = pdb(ZetaSeries::basel());
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let truth = truth_exists(&p, 3_000_000);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = approx_prob_boolean_cancellable(
            &p,
            &q,
            0.01,
            Engine::Auto,
            1,
            &token,
            PartialOnCancel::Evaluate,
        )
        .unwrap_err();
        match err {
            QueryError::Cancelled(info) => {
                assert_eq!(info.kind, crate::cancel::CancelKind::Deadline);
                if let Some(partial) = info.partial {
                    assert_eq!(partial.n, info.facts_processed);
                    assert!(partial.eps < 0.5);
                    assert!(partial.interval().contains(truth));
                }
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn skip_policy_returns_no_partial() {
        let p = pdb(ZetaSeries::basel());
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = approx_prob_boolean_cancellable(
            &p,
            &q,
            0.01,
            Engine::Auto,
            1,
            &token,
            PartialOnCancel::Skip,
        )
        .unwrap_err();
        match err {
            QueryError::Cancelled(info) => {
                assert_eq!(info.kind, crate::cancel::CancelKind::Explicit);
                assert_eq!(info.facts_processed, 0);
                assert!(info.partial.is_none());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_tail_skips_the_partial_a_sampling_plan_priced_out() {
        use infpdb_finite::plan::{ComponentPlan, Strategy};
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let truth = truth_exists(&p, 2000);
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
            match cancelled(&p, &q, 1, PartialOnCancel::Evaluate, Some(&plan), stop) {
                QueryError::Cancelled(info) => info,
                other => panic!("expected Cancelled, got {other:?}"),
            }
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
    fn interval_accessor_clamps() {
        let a = Approximation {
            estimate: 0.97,
            eps: 0.1,
            n: 5,
            tail_mass: 0.01,
        };
        let iv = a.interval();
        assert_eq!(iv.hi(), 1.0);
        assert!((iv.lo() - 0.87).abs() < 1e-12);
    }
}
