//! Truncation budgeting and approximate evaluation on completed PDBs.
//!
//! The complexity remark at the end of Section 6: the cost of the
//! Proposition 6.1 algorithm "is basically determined by the rate of
//! convergence of the series of fact probabilities" — geometric series need
//! `n(ε) = Θ(log(1/ε))` facts, while series may in general "converge
//! arbitrarily slowly". [`BudgetReport`] makes the plan inspectable before
//! committing to an evaluation.
//!
//! [`approx_prob_completed`] extends the algorithm to completions of
//! arbitrary finite PDBs (Theorem 5.5 objects): conditioning on the
//! original world `D = w` leaves the independent tail untouched, so
//! `P′(Q) = ∑_w P(w) · P_tail(Q ∣ w)`, and each conditional evaluation is a
//! finite t.i. problem with `w`'s facts pinned at probability 1 plus the
//! ε-truncated tail. The mixture inherits the additive guarantee.

use crate::truncate::TruncationPlan;
use crate::QueryError;
use infpdb_core::value::Value;
use infpdb_finite::plan::{evaluate_plan, ChosenPlan};
use infpdb_finite::TiTable;
use infpdb_logic::ast::Formula;
use infpdb_logic::compile::CompiledQuery;
use infpdb_logic::vars::for_each_grounding;
use infpdb_math::KahanSum;
use infpdb_openworld::CompletedPdb;
use infpdb_ti::construction::CountableTiPdb;
use std::collections::BTreeSet;

/// An inspectable plan for an ε-evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetReport {
    /// Requested tolerance.
    pub eps: f64,
    /// Prefix length `n(ε)`.
    pub n: usize,
    /// Certified discarded tail mass.
    pub tail_mass: f64,
    /// Certified bound on `P(¬Ω_n)`.
    pub escape_probability: f64,
    /// Upper bound on the expected instance size (Corollary 4.7).
    pub expected_size_bound: f64,
}

/// Plans (without evaluating) the Proposition 6.1 truncation.
pub fn plan(pdb: &CountableTiPdb, eps: f64) -> Result<BudgetReport, QueryError> {
    let t = infpdb_math::truncation::for_tolerance(pdb.supply(), eps)?;
    Ok(BudgetReport {
        eps,
        n: t.n,
        tail_mass: t.tail_mass,
        escape_probability: t.escape_probability(),
        expected_size_bound: pdb.expected_size_bound(),
    })
}

/// The `n(ε)` profile over a tolerance sweep — the data behind the
/// Section 6 complexity remark (bench E11).
pub fn n_of_eps_profile(
    pdb: &CountableTiPdb,
    tolerances: &[f64],
) -> Result<Vec<(f64, usize)>, QueryError> {
    tolerances
        .iter()
        .map(|&eps| plan(pdb, eps).map(|r| (eps, r.n)))
        .collect()
}

/// Additive-ε approximation of `P′(Q)` on a completed PDB (mixture of a
/// finite original with an independent t.i. tail), each world's
/// conditional table evaluated exactly by [`ChosenPlan::exact`] through
/// [`evaluate_plan`].
pub fn approx_prob_completed(
    completed: &CompletedPdb,
    query: &Formula,
    eps: f64,
) -> Result<crate::approx::Approximation, QueryError> {
    let tail_plan = TruncationPlan::new(completed.tail(), eps)?;
    prob_completed(completed, &tail_plan, query, eps)
}

/// [`approx_prob_completed`] on an already truncated tail.
fn prob_completed(
    completed: &CompletedPdb,
    tail_plan: &TruncationPlan,
    query: &Formula,
    eps: f64,
) -> Result<crate::approx::Approximation, QueryError> {
    let original = completed.original();
    // one compilation for every world's conditional table
    let compiled = CompiledQuery::compile(original.schema(), query);
    let exact = ChosenPlan::exact(&compiled);
    let mut acc = KahanSum::new();
    for (world, pw) in original.space().outcomes() {
        if *pw == 0.0 {
            continue;
        }
        // conditional table: the world's facts are certain, the tail keeps
        // its truncated probabilities
        let mut table = TiTable::new(original.schema().clone());
        for id in world.iter() {
            table
                .add_fact(original.interner().resolve(id).clone(), 1.0)
                .map_err(|e| QueryError::Finite(e.to_string()))?;
        }
        for (_, fact, p) in tail_plan.table.iter() {
            table
                .add_fact(fact.clone(), p)
                .map_err(|e| QueryError::Finite(e.to_string()))?;
        }
        let (cond, _) = evaluate_plan(&compiled, &exact, &table, 1, None)?
            .expect("the fork-join executor runs every task");
        acc.add(pw * cond);
    }
    Ok(crate::approx::Approximation {
        estimate: acc.value().min(1.0),
        eps,
        n: tail_plan.n(),
        tail_mass: tail_plan.truncation.tail_mass,
    })
}

/// Approximate marginal answers on a completed PDB: for each valuation of
/// the free variables over the combined active domain (original worlds ∪
/// truncated tail ∪ query constants), evaluate the ground sentence through
/// [`approx_prob_completed`]'s mixture decomposition, on one truncation
/// of the tail. Each marginal is within additive ε.
pub fn approx_answers_completed(
    completed: &CompletedPdb,
    query: &Formula,
    eps: f64,
) -> Result<Vec<(Vec<Value>, f64)>, QueryError> {
    let tail_plan = TruncationPlan::new(completed.tail(), eps)?;
    // each value at its first place in original, tail, constants
    let domain = || {
        let mut seen = BTreeSet::new();
        let original = completed.original().active_domain();
        let values = original.into_iter().chain(tail_plan.table.active_domain());
        let values = values.chain(infpdb_logic::vars::constants(query));
        values
            .filter(|v| seen.insert(v.clone()))
            .collect::<Vec<_>>()
    };
    let mut out = Vec::new();
    for_each_grounding(query, domain, |tuple, sentence| {
        let a = prob_completed(completed, &tail_plan, sentence, eps)?;
        if a.estimate > 0.0 {
            out.push((tuple.to_vec(), a.estimate));
        }
        Ok::<_, QueryError>(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_finite::FinitePdb;
    use infpdb_logic::parse;
    use infpdb_math::series::{GeometricSeries, ZetaSeries};
    use infpdb_openworld::independent_facts::complete_pdb;
    use infpdb_ti::enumerator::FactSupply;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1)]).unwrap()
    }

    fn rfact(n: i64) -> Fact {
        Fact::new(RelId(0), [Value::int(n)])
    }

    fn ti_pdb(
        series: impl infpdb_math::series::ProbSeries + Send + Sync + 'static,
    ) -> CountableTiPdb {
        CountableTiPdb::new(FactSupply::unary_over_naturals(schema(), RelId(0), series)).unwrap()
    }

    #[test]
    fn budget_report_fields() {
        let p = ti_pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let r = plan(&p, 0.01).unwrap();
        assert_eq!(r.eps, 0.01);
        assert!(r.n >= 7);
        assert!(r.tail_mass <= (2.0 / 3.0) * 0.01f64.ln_1p());
        assert!(r.escape_probability <= 0.01);
        assert!(r.expected_size_bound >= 1.0);
    }

    #[test]
    fn n_of_eps_growth_rates() {
        // the §6 complexity remark, quantified: geometric grows ~log(1/ε),
        // zeta grows ~1/ε
        let g = ti_pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        let z = ti_pdb(ZetaSeries::basel());
        let eps = [0.1, 0.01, 0.001];
        let gp = n_of_eps_profile(&g, &eps).unwrap();
        let zp = n_of_eps_profile(&z, &eps).unwrap();
        // geometric: roughly constant increments
        let gd1 = gp[1].1 - gp[0].1;
        let gd2 = gp[2].1 - gp[1].1;
        assert!((2..=5).contains(&gd1) && (2..=5).contains(&gd2));
        // zeta: roughly constant *ratios* near 10
        let zr1 = zp[1].1 as f64 / zp[0].1 as f64;
        let zr2 = zp[2].1 as f64 / zp[1].1 as f64;
        assert!(zr1 > 5.0 && zr1 < 20.0, "{zr1}");
        assert!(zr2 > 5.0 && zr2 < 20.0, "{zr2}");
    }

    #[test]
    fn completed_pdb_evaluation_matches_decomposition() {
        // original: exactly one of R(1), R(2); tail: geometric on R(100+)
        let original =
            FinitePdb::from_worlds(schema(), [(vec![rfact(1)], 0.6), (vec![rfact(2)], 0.4)])
                .unwrap();
        let tail = FactSupply::from_fn(
            schema(),
            |i| rfact(100 + i as i64),
            GeometricSeries::new(0.25, 0.5).unwrap(),
        );
        let completed = complete_pdb(original, tail).unwrap();
        // Q = ∃x R(x): true in every world (original part is nonempty)
        let q = parse("exists x. R(x)", &schema()).unwrap();
        let a = approx_prob_completed(&completed, &q, 0.01).unwrap();
        assert!((a.estimate - 1.0).abs() <= 0.01);
        // Q = R(1): probability 0.6 — original correlation intact
        let q1 = parse("R(1)", &schema()).unwrap();
        let a1 = approx_prob_completed(&completed, &q1, 0.01).unwrap();
        assert!((a1.estimate - 0.6).abs() <= 0.01);
        // Q = R(100): the open-world tail fact
        let q2 = parse("R(100)", &schema()).unwrap();
        let a2 = approx_prob_completed(&completed, &q2, 0.01).unwrap();
        assert!((a2.estimate - 0.25).abs() <= 0.01);
        // Q = R(1) ∧ R(2): impossible in the original, still impossible
        let q3 = parse("R(1) /\\ R(2)", &schema()).unwrap();
        let a3 = approx_prob_completed(&completed, &q3, 0.01).unwrap();
        assert!(a3.estimate <= 0.01);
    }

    #[test]
    fn completed_evaluation_open_world_join() {
        // Open-world effect on a join query: R(1) certain-ish original plus
        // a tail that can supply R(2); Q = R(1) ∧ R(2) mixes the two parts.
        let original =
            FinitePdb::from_worlds(schema(), [(vec![rfact(1)], 0.9), (vec![], 0.1)]).unwrap();
        let tail = FactSupply::from_fn(
            schema(),
            |i| rfact(2 + i as i64),
            GeometricSeries::new(0.2, 0.5).unwrap(),
        );
        let completed = complete_pdb(original, tail).unwrap();
        let q = parse("R(1) /\\ R(2)", &schema()).unwrap();
        let a = approx_prob_completed(&completed, &q, 0.005).unwrap();
        // truth: 0.9 × 0.2
        assert!((a.estimate - 0.18).abs() <= 0.005);
    }

    #[test]
    fn completed_answer_marginals() {
        let original =
            FinitePdb::from_worlds(schema(), [(vec![rfact(1)], 0.6), (vec![rfact(2)], 0.4)])
                .unwrap();
        let tail = FactSupply::from_fn(
            schema(),
            |i| rfact(100 + i as i64),
            GeometricSeries::new(0.25, 0.5).unwrap(),
        );
        let completed = complete_pdb(original, tail).unwrap();
        let q = parse("R(x)", &schema()).unwrap();
        let ans = approx_answers_completed(&completed, &q, 0.01).unwrap();
        let find = |n: i64| {
            ans.iter()
                .find(|(t, _)| t[0] == Value::int(n))
                .map(|(_, p)| *p)
        };
        assert!((find(1).unwrap() - 0.6).abs() <= 0.01);
        assert!((find(2).unwrap() - 0.4).abs() <= 0.01);
        assert!((find(100).unwrap() - 0.25).abs() <= 0.01);
        assert_eq!(find(50), None);
        // boolean degenerate
        let b = parse("exists x. R(x)", &schema()).unwrap();
        let bans = approx_answers_completed(&completed, &b, 0.01).unwrap();
        assert_eq!(bans.len(), 1);
        assert!(bans[0].1 > 0.99);
    }

    #[test]
    fn bad_tolerance_rejected() {
        let p = ti_pdb(GeometricSeries::new(0.5, 0.5).unwrap());
        assert!(plan(&p, 0.5).is_err());
        assert!(plan(&p, 0.0).is_err());
    }
}
