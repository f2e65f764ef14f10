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
//!
//! The algorithm has one executor, [`PreparedQuery::execute`]: profile,
//! plan at ε, truncate at the plan's `ε_trunc`, evaluate.
//! [`approx_prob_boolean`] and [`approx_prob_boolean_par`] run it once on
//! a fresh [`PreparedPdb`]; callers that answer many queries, refine ε or
//! need cancellation keep the [`PreparedQuery`].

use crate::cancel::CancelToken;
use crate::planner::{Engine, PlanKnobs};
use crate::prepared::{PreparedPdb, PreparedQuery};
use crate::QueryError;
use infpdb_logic::ast::Formula;
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
/// count — see [`infpdb_finite::plan::evaluate_plan`]). A fresh
/// [`PreparedQuery`] at the default [`PlanKnobs`], executed once.
pub fn approx_prob_boolean_par(
    pdb: &CountableTiPdb,
    query: &Formula,
    eps: f64,
    engine: Engine,
    parallelism: usize,
) -> Result<Approximation, QueryError> {
    let prepared = PreparedPdb::new(pdb.clone());
    PreparedQuery::prepare(prepared, query, engine, PlanKnobs::default())
        .with_parallelism(parallelism)
        // a fresh token never cancels
        .execute(eps, &CancelToken::new(), None)
        .map(|e| e.approx)
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
    fn forced_monte_carlo_lands_within_eps() {
        // Monte-Carlo on an infinite PDB is the forced MC plan: the prefix
        // is truncated at ε·(1−σ), and worlds sampled from it carry the
        // remaining ε·σ at confidence 1 − δ
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let mc = Engine::Force(StrategyKind::MonteCarlo);
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let truth = truth_exists(&p, 2000);
        let a = approx_prob_boolean(&p, &q, 0.02, mc).unwrap();
        assert!(
            (a.estimate - truth).abs() <= a.eps,
            "sampled {} vs truth {truth}",
            a.estimate
        );
        // deeply quantified with negation: per-world evaluation needs no
        // exact fast path, and agrees with the exact road within both ε
        let deep = parse(
            "forall x. (R(x) -> exists y. (R(y) /\\ !(x = y))) \\/ !(exists z. R(z))",
            p.schema(),
        )
        .unwrap();
        let sampled = approx_prob_boolean(&p, &deep, 0.05, mc).unwrap();
        let exact =
            approx_prob_boolean(&p, &deep, 0.05, Engine::Force(StrategyKind::Shannon)).unwrap();
        assert!(
            (sampled.estimate - exact.estimate).abs() <= sampled.eps + exact.eps,
            "sampled {} vs exact {}",
            sampled.estimate,
            exact.estimate
        );
        let free = parse("R(x)", p.schema()).unwrap();
        assert!(approx_prob_boolean(&p, &free, 0.05, mc).is_err());
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
