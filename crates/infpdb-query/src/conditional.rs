//! Conditional and aggregate approximate queries.
//!
//! Extensions beyond the paper's Section 6, built from the same primitive:
//!
//! * [`approx_conditional`] — `P(Q | C)` for Boolean FO queries `Q`, `C`:
//!   both `P(Q ∧ C)` and `P(C)` are approximated within a sub-tolerance
//!   and the quotient's error is propagated soundly. Conditioning is the
//!   natural next operation once completions exist ("given that the
//!   database is consistent with X, how likely is Y?").
//! * [`approx_expected_answers`] — `E[|Q(D)|]` for a free-variable query:
//!   by linearity of expectation this is the sum of the per-tuple marginal
//!   probabilities, each approximated within ε, over `adom(Ω_n)`.

use crate::truncate::{approx_with_plan, TruncationPlan};
use crate::QueryError;
use infpdb_logic::ast::Formula;
use infpdb_math::ProbInterval;
use infpdb_ti::construction::CountableTiPdb;

/// A conditional-probability estimate with a certified enclosure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConditionalEstimate {
    /// Point estimate of `P(Q | C)` (midpoint of the enclosure).
    pub estimate: f64,
    /// Certified enclosure of the true conditional probability.
    pub interval: ProbInterval,
    /// The sub-tolerance used for the two unconditional evaluations.
    pub eps_inner: f64,
}

/// Approximates `P(Q | C) = P(Q ∧ C) / P(C)` with certified error
/// propagation: the numerator and denominator each get an additive
/// `eps_inner` guarantee (Proposition 6.1), and interval division yields a
/// sound enclosure. Errors if the denominator's certified interval
/// contains 0 (the condition may be null — tighten `eps_inner`).
pub fn approx_conditional(
    pdb: &CountableTiPdb,
    query: &Formula,
    condition: &Formula,
    eps_inner: f64,
) -> Result<ConditionalEstimate, QueryError> {
    let plan = TruncationPlan::new(pdb, eps_inner)?;
    let joint_formula = query.clone().and(condition.clone());
    let joint = approx_with_plan(&plan, &joint_formula)?;
    let cond = approx_with_plan(&plan, condition)?;
    let joint_iv = joint.interval();
    let cond_iv = cond.interval();
    if cond_iv.lo() <= 0.0 {
        return Err(QueryError::Math(infpdb_math::MathError::BadTolerance(
            eps_inner,
        )));
    }
    let interval = joint_iv.divide_conditional(&cond_iv);
    Ok(ConditionalEstimate {
        estimate: interval.midpoint(),
        interval,
        eps_inner,
    })
}

/// Approximates the expected number of answers `E[|Q(D)|]` of a
/// free-variable query: `∑_{~a} Pr(~a ∈ Q(D))`, each marginal within ε.
/// Returns `(lower, upper)` where the true expectation restricted to
/// tuples over `adom(Ω_n)` lies inside; tuples outside contribute at most
/// `k · tail_mass · |answers|`-style mass, which for unary queries is
/// bounded by the reported `tail_allowance`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedAnswers {
    /// Sum of estimated per-tuple marginals.
    pub estimate: f64,
    /// Number of tuples with positive estimated marginal.
    pub support: usize,
    /// Additive slack per tuple (the ε used).
    pub per_tuple_eps: f64,
    /// Upper bound on mass contributed by answers entirely outside the
    /// truncation (the discarded tail mass).
    pub tail_allowance: f64,
}

/// See [`ExpectedAnswers`].
pub fn approx_expected_answers(
    pdb: &CountableTiPdb,
    query: &Formula,
    eps: f64,
) -> Result<ExpectedAnswers, QueryError> {
    let plan = TruncationPlan::new(pdb, eps)?;
    let answers = crate::marginal::approx_answers_with_plan(&plan, query)?;
    let estimate = infpdb_math::KahanSum::sum_iter(answers.iter().map(|a| a.prob));
    Ok(ExpectedAnswers {
        estimate,
        support: answers.len(),
        per_tuple_eps: eps,
        tail_allowance: plan.truncation.tail_mass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_logic::parse;
    use infpdb_math::series::GeometricSeries;
    use infpdb_ti::enumerator::FactSupply;

    fn pdb() -> CountableTiPdb {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        CountableTiPdb::new(FactSupply::unary_over_naturals(
            schema,
            RelId(0),
            GeometricSeries::new(0.5, 0.5).unwrap(),
        ))
        .unwrap()
    }

    #[test]
    fn conditional_on_independent_facts_is_unconditional() {
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let c = parse("R(2)", p.schema()).unwrap();
        let e = approx_conditional(&p, &q, &c, 0.01).unwrap();
        // independence: P(R(1) | R(2)) = P(R(1)) = 0.5
        assert!(e.interval.contains(0.5), "0.5 ∉ {}", e.interval);
        assert!((e.estimate - 0.5).abs() < 0.1);
    }

    #[test]
    fn conditional_on_itself_is_one() {
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let e = approx_conditional(&p, &q, &q, 0.01).unwrap();
        assert!(e.interval.contains(1.0));
        assert!(e.estimate > 0.9);
    }

    #[test]
    fn conditional_on_disjoint_event_is_zero() {
        let p = pdb();
        let q = parse("!R(1)", p.schema()).unwrap();
        let c = parse("R(1)", p.schema()).unwrap();
        let e = approx_conditional(&p, &q, &c, 0.01).unwrap();
        assert!(e.interval.contains(0.0));
        assert!(e.estimate < 0.1);
    }

    #[test]
    fn conditional_with_nontrivial_structure() {
        let p = pdb();
        // P(R(1) | ∃x R(x)) = P(R(1)) / P(∃x R(x)) since R(1) ⊆ ∃x R(x)
        let q = parse("R(1)", p.schema()).unwrap();
        let c = parse("exists x. R(x)", p.schema()).unwrap();
        let e = approx_conditional(&p, &q, &c, 0.005).unwrap();
        let mut none = 1.0;
        for i in 0..1000 {
            none *= 1.0 - p.supply().prob(i);
        }
        let truth = 0.5 / (1.0 - none);
        assert!(e.interval.contains(truth), "{truth} ∉ {}", e.interval);
    }

    #[test]
    fn near_null_condition_rejected() {
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        // R(40) has probability 2^-40 ≈ 0: the certified denominator
        // interval straddles 0 at any reasonable ε
        let c = parse("R(40)", p.schema()).unwrap();
        assert!(approx_conditional(&p, &q, &c, 0.01).is_err());
    }

    #[test]
    fn expected_answers_matches_expected_size_for_r_x() {
        let p = pdb();
        // E[|{x : R(x)}|] = E(S_D) = 1 for this PDB
        let q = parse("R(x)", p.schema()).unwrap();
        let e = approx_expected_answers(&p, &q, 0.001).unwrap();
        assert!(
            (e.estimate - 1.0).abs() < 0.01,
            "estimate {} should be ≈ 1",
            e.estimate
        );
        assert!(e.support >= 10);
        assert!(e.tail_allowance <= 0.001);
    }

    #[test]
    fn expected_answers_of_empty_query() {
        let p = pdb();
        let q = parse("R(x) /\\ false", p.schema()).unwrap();
        let e = approx_expected_answers(&p, &q, 0.01).unwrap();
        assert_eq!(e.estimate, 0.0);
        assert_eq!(e.support, 0);
    }
}
