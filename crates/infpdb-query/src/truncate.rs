//! Truncation planning for Proposition 6.1.
//!
//! "Choose `n` large enough such that for all `i > n` we have `p_i ≤ 1/2`
//! and `e^{α_n} ≤ 1 + ε` and `e^{−α_n} ≥ 1 − ε` … an appropriate `n` can be
//! found algorithmically by systematically listing facts until the
//! remaining probability mass is small enough."
//!
//! The search itself lives in `infpdb_math::truncation`; this module binds
//! it to a PDB and materializes the `Ω_n` prefix table.

use crate::approx::Approximation;
use crate::QueryError;
use infpdb_finite::TiTable;
use infpdb_logic::ast::Formula;
use infpdb_math::truncation::{self, Truncation};
use infpdb_ti::construction::CountableTiPdb;

/// A planned truncation: the Proposition 6.1 certificates plus the
/// materialized prefix table.
#[derive(Debug)]
pub struct TruncationPlan {
    /// The certificates (`n`, tail mass, `α_n`).
    pub truncation: Truncation,
    /// The finite table over `f₁ … f_n`.
    pub table: TiTable,
    /// The tolerance the plan was built for.
    pub eps: f64,
}

impl TruncationPlan {
    /// Builds the Proposition 6.1 truncation for tolerance
    /// `ε ∈ (0, 1/2)`.
    pub fn new(pdb: &CountableTiPdb, eps: f64) -> Result<Self, QueryError> {
        let truncation = truncation::for_tolerance(pdb.supply(), eps)?;
        let table = pdb.truncate(truncation.n)?;
        Ok(Self {
            truncation,
            table,
            eps,
        })
    }

    /// `n(ε)`: the prefix length.
    pub fn n(&self) -> usize {
        self.truncation.n
    }

    /// Certified bound on `P(¬Ω_n)` — the mass escaping the truncation.
    pub fn escape_probability(&self) -> f64 {
        self.truncation.escape_probability()
    }
}

/// Proposition 6.1 against an explicit [`TruncationPlan`], evaluated
/// exactly by [`infpdb_finite::engine::prob_boolean`] — reuse across a
/// query workload: the truncation depends only on ε and the PDB.
pub fn approx_with_plan(
    plan: &TruncationPlan,
    query: &Formula,
) -> Result<Approximation, QueryError> {
    let estimate = infpdb_finite::engine::prob_boolean(query, &plan.table)?;
    Ok(Approximation {
        estimate,
        eps: plan.eps,
        n: plan.n(),
        tail_mass: plan.truncation.tail_mass,
    })
}

/// The soundness certificate of a *partial* prefix: if a cancelled loop
/// stopped after `m` facts, the `m`-fact table is itself a valid
/// Proposition 6.1 truncation at the tolerance `ε_m = e^{α_m} − 1` with
/// `α_m = (3/2)·T_m` (`T_m` the certified tail bound at `m`), because the
/// proof of Prop 6.1 only uses `e^{α} ≤ 1 + ε` and `e^{−α} ≥ 1 − ε`, and
/// `e^α − 1 ≥ 1 − e^{−α}` makes `ε_m` cover both directions.
///
/// Returns `(truncation-at-m, ε_m)`, or `None` when the prefix is too
/// short to certify anything: the tail bound is infinite/unknown, exceeds
/// `1/2` (claim (∗) needs every remaining term `≤ 1/2`), or yields
/// `ε_m ≥ 1/2` (outside Prop 6.1's tolerance range, vacuous anyway).
pub fn partial_certificate(pdb: &CountableTiPdb, m: usize) -> Option<(Truncation, f64)> {
    let tail_mass = match pdb.supply().tail_upper(m) {
        infpdb_math::series::TailBound::Finite(t) => t,
        _ => return None,
    };
    // range check written to also reject NaN tail bounds
    if !(0.0..=0.5).contains(&tail_mass) {
        return None;
    }
    let alpha = 1.5 * tail_mass;
    let eps_m = alpha.exp_m1();
    if eps_m >= 0.5 {
        return None;
    }
    Some((
        Truncation {
            n: m,
            tail_mass,
            alpha,
        },
        eps_m,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_math::series::{GeometricSeries, ZetaSeries};
    use infpdb_ti::enumerator::FactSupply;

    fn pdb(series: impl infpdb_math::series::ProbSeries + Send + Sync + 'static) -> CountableTiPdb {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        CountableTiPdb::new(FactSupply::unary_over_naturals(schema, RelId(0), series)).unwrap()
    }

    #[test]
    fn plan_materializes_prefix() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let plan = TruncationPlan::new(&p, 0.1).unwrap();
        assert_eq!(plan.table.len(), plan.n());
        assert!(plan.n() >= 4);
        assert!(plan.escape_probability() <= 0.1);
        assert_eq!(plan.eps, 0.1);
    }

    #[test]
    fn plan_rejects_bad_tolerances() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        for eps in [0.0, 0.5, 0.7, -0.1] {
            assert!(TruncationPlan::new(&p, eps).is_err(), "eps = {eps}");
        }
    }

    #[test]
    fn slow_series_get_long_plans() {
        let g = TruncationPlan::new(&pdb(GeometricSeries::new(0.5, 0.5).unwrap()), 0.01).unwrap();
        let z = TruncationPlan::new(&pdb(ZetaSeries::basel()), 0.01).unwrap();
        assert!(z.n() > 10 * g.n());
    }

    #[test]
    fn plan_reuse_across_workload() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let plan = TruncationPlan::new(&p, 0.05).unwrap();
        // ∃x R(x) = 1 − ∏(1 − 2^{-i})
        let truth = 1.0 - (0..2000).map(|i| 1.0 - p.supply().prob(i)).product::<f64>();
        for qs in ["exists x. R(x)", "R(1)", "R(1) \\/ R(2)"] {
            let q = infpdb_logic::parse(qs, p.schema()).unwrap();
            let a = approx_with_plan(&plan, &q).unwrap();
            assert_eq!(a.n, plan.n());
            if qs == "exists x. R(x)" {
                assert!((a.estimate - truth).abs() <= 0.05);
            }
        }
    }

    #[test]
    fn partial_certificate_is_sound_and_monotone() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        // m = 0: tail mass 1.0 > 1/2 ⇒ nothing certifiable
        assert!(partial_certificate(&p, 0).is_none());
        // larger prefixes certify tighter tolerances
        let (t4, e4) = partial_certificate(&p, 4).unwrap();
        let (t8, e8) = partial_certificate(&p, 8).unwrap();
        assert_eq!(t4.n, 4);
        assert_eq!(t8.n, 8);
        assert!(e8 < e4);
        assert!(e4 < 0.5 && e4 > 0.0);
        // the certificate satisfies both Prop 6.1 proof conditions
        for (t, e) in [(t4, e4), (t8, e8)] {
            assert!(t.alpha.exp() <= 1.0 + e + 1e-12);
            assert!((-t.alpha).exp() >= 1.0 - e - 1e-12);
            assert!(t.tail_mass <= 0.5);
        }
    }

    #[test]
    fn proof_conditions_hold() {
        let p = pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        for eps in [0.3, 0.1, 0.01] {
            let plan = TruncationPlan::new(&p, eps).unwrap();
            let alpha = plan.truncation.alpha;
            assert!(alpha.exp() <= 1.0 + eps + 1e-12);
            assert!((-alpha).exp() >= 1.0 - eps - 1e-12);
            assert!(plan.truncation.tail_mass <= 0.5);
        }
    }
}
