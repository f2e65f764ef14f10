//! Monte-Carlo query evaluation on countably infinite t.i. PDBs.
//!
//! An alternative to the exact-on-the-truncation route of Proposition 6.1,
//! pointing at the paper's outlook ("combine classical database techniques
//! with probabilistic inference techniques from AI"): sample instances
//! from an ε-truncated sampler and evaluate the query per world. The total
//! additive error splits into
//!
//! * the truncation's total-variation distance (certified ≤ `tv_bound`),
//!   and
//! * the Hoeffding half-width of the sample mean.
//!
//! Useful when the query is expensive for exact inference even on the
//! truncated table (deeply quantified FO), since per-world evaluation is
//! just model checking.

use crate::QueryError;
use infpdb_core::space::rand_core::RngCore;
use infpdb_core::storage::InstanceStore;
use infpdb_logic::ast::Formula;
use infpdb_logic::eval::Evaluator;
use infpdb_logic::vars::free_vars;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::sampler::TruncatedSampler;

/// A sampled estimate with its two-part error budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledEstimate {
    /// The sample mean.
    pub estimate: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Certified total-variation contribution from truncation.
    pub tv_bound: f64,
    /// 95%-confidence Hoeffding half-width of the sample mean.
    pub hoeffding_half_width: f64,
}

impl SampledEstimate {
    /// The combined additive error budget (TV + Hoeffding at 95%).
    pub fn total_error(&self) -> f64 {
        self.tv_bound + self.hoeffding_half_width
    }
}

/// Estimates `P(Q)` by sampling `samples` instances from an ε-truncated
/// sampler with `tv_bound` total-variation slack.
pub fn sample_prob_boolean<R: RngCore>(
    pdb: &CountableTiPdb,
    query: &Formula,
    tv_bound: f64,
    samples: usize,
    rng: &mut R,
) -> Result<SampledEstimate, QueryError> {
    let fv = free_vars(query);
    if !fv.is_empty() {
        return Err(QueryError::Logic(infpdb_logic::LogicError::NotASentence(
            fv.into_iter().collect(),
        )));
    }
    assert!(samples > 0, "need at least one sample");
    let sampler = TruncatedSampler::new(pdb, tv_bound)?;
    let schema = pdb.schema();
    let mut hits = 0usize;
    for _ in 0..samples {
        let world = sampler.sample(rng);
        let store = InstanceStore::build(&world, sampler.table().interner(), schema);
        if Evaluator::new(&store, query)
            .eval_sentence(query)
            .expect("sentence checked")
        {
            hits += 1;
        }
    }
    let hoeffding_half_width = ((2.0f64 / 0.05).ln() / (2.0 * samples as f64)).sqrt();
    Ok(SampledEstimate {
        estimate: hits as f64 / samples as f64,
        samples,
        tv_bound,
        hoeffding_half_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_prob_boolean;
    use crate::planner::Engine;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_core::space::rand_core::SplitMix64;
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
    fn sampled_estimate_agrees_with_exact_truncation_route() {
        let p = pdb();
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let exact = approx_prob_boolean(&p, &q, 0.001, Engine::Auto).unwrap();
        let mut rng = SplitMix64::new(13);
        let s = sample_prob_boolean(&p, &q, 0.001, 30_000, &mut rng).unwrap();
        assert!(
            (s.estimate - exact.estimate).abs() <= s.total_error() + exact.eps,
            "sampled {} vs exact {}",
            s.estimate,
            exact.estimate
        );
        assert!(s.total_error() < 0.02);
    }

    #[test]
    fn works_on_queries_outside_every_exact_fast_path() {
        // deeply quantified with negation: fine for per-world evaluation
        let p = pdb();
        let q = parse(
            "forall x. (R(x) -> exists y. (R(y) /\\ !(x = y))) \\/ !(exists z. R(z))",
            p.schema(),
        )
        .unwrap();
        let mut rng = SplitMix64::new(14);
        let s = sample_prob_boolean(&p, &q, 0.005, 10_000, &mut rng).unwrap();
        // cross-check against the exact route
        let exact = approx_prob_boolean(&p, &q, 0.005, Engine::Auto).unwrap();
        assert!(
            (s.estimate - exact.estimate).abs() <= s.total_error() + exact.eps + 0.01,
            "sampled {} vs exact {}",
            s.estimate,
            exact.estimate
        );
    }

    #[test]
    fn error_budget_components() {
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let mut rng = SplitMix64::new(15);
        let s = sample_prob_boolean(&p, &q, 0.01, 1000, &mut rng).unwrap();
        assert_eq!(s.tv_bound, 0.01);
        assert!(s.hoeffding_half_width > 0.0);
        assert!((s.total_error() - (0.01 + s.hoeffding_half_width)).abs() < 1e-15);
        assert!((s.estimate - 0.5).abs() < 0.06);
    }

    #[test]
    fn rejects_free_variables() {
        let p = pdb();
        let q = parse("R(x)", p.schema()).unwrap();
        let mut rng = SplitMix64::new(16);
        assert!(sample_prob_boolean(&p, &q, 0.01, 10, &mut rng).is_err());
    }
}
