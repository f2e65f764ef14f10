//! Approximate evaluation of queries with free variables.
//!
//! Section 6, closing remark: "from `Q(~x)` we obtain `|adom(Ω_n)|^k` many
//! sentences `Q(~a)` by plugging in all the possible valuations … The
//! probability of `~a` to belong to the output of the query is equal to
//! the probability of the sentence `Q(~a)` being satisfied"; each is then
//! approximated additively by Proposition 6.1. Note (per the paper) the
//! answer tuples considered are those over `adom(Ω_n)` — tuples mentioning
//! only discarded facts contribute at most the tail mass anyway.

use crate::truncate::TruncationPlan;
use crate::QueryError;
use infpdb_core::value::Value;
use infpdb_finite::engine;
use infpdb_logic::ast::Formula;
use infpdb_ti::construction::CountableTiPdb;

/// One approximate answer tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxAnswer {
    /// The valuation of the free variables (sorted variable order).
    pub tuple: Vec<Value>,
    /// Additive-ε estimate of `Pr(~a ∈ Q(D))`.
    pub prob: f64,
}

/// Approximates the marginal probability of every answer tuple over
/// `adom(Ω_n) ∪ adom(Q)`, each within additive ε. Tuples whose estimate is
/// 0 are omitted (their true probability is at most ε).
pub fn approx_answers(
    pdb: &CountableTiPdb,
    query: &Formula,
    eps: f64,
) -> Result<Vec<ApproxAnswer>, QueryError> {
    let plan = TruncationPlan::new(pdb, eps)?;
    approx_answers_with_plan(&plan, query)
}

/// [`approx_answers`] with a reusable plan, each sentence evaluated
/// exactly by [`engine::answer_marginals`].
pub fn approx_answers_with_plan(
    plan: &TruncationPlan,
    query: &Formula,
) -> Result<Vec<ApproxAnswer>, QueryError> {
    let marginals = engine::answer_marginals(query, &plan.table)?;
    Ok(marginals
        .into_iter()
        .map(|(tuple, prob)| ApproxAnswer { tuple, prob })
        .collect())
}

/// The `k` most probable answer tuples, sorted descending by estimated
/// marginal (ties by tuple order). The ranking is correct up to the
/// additive ε of the underlying estimates: answers whose true marginals
/// differ by more than `2ε` cannot swap places.
pub fn top_k_answers(
    pdb: &CountableTiPdb,
    query: &Formula,
    eps: f64,
    k: usize,
) -> Result<Vec<ApproxAnswer>, QueryError> {
    let mut answers = approx_answers(pdb, query, eps)?;
    answers.sort_by(|a, b| {
        b.prob
            .partial_cmp(&a.prob)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.tuple.cmp(&b.tuple))
    });
    answers.truncate(k);
    Ok(answers)
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
    fn answers_recover_fact_marginals() {
        let p = pdb();
        let q = parse("R(x)", p.schema()).unwrap();
        let ans = approx_answers(&p, &q, 0.01).unwrap();
        // answers are R(1) … R(n) with marginal = fact probability, exact
        // here (each sentence R(a) has exact probability on the prefix)
        assert!(ans.len() >= 7);
        let first = ans
            .iter()
            .find(|a| a.tuple == vec![Value::int(1)])
            .expect("R(1) answered");
        assert!((first.prob - 0.5).abs() <= 0.01);
        let third = ans
            .iter()
            .find(|a| a.tuple == vec![Value::int(3)])
            .expect("R(3) answered");
        assert!((third.prob - 0.125).abs() <= 0.01);
    }

    #[test]
    fn answers_only_range_over_prefix_adom() {
        let p = pdb();
        let q = parse("R(x)", p.schema()).unwrap();
        let eps = 0.1;
        let ans = approx_answers(&p, &q, eps).unwrap();
        // every answered tuple is within the truncated active domain, and
        // omitted facts have probability ≤ tail mass ≤ ε
        let plan = TruncationPlan::new(&p, eps).unwrap();
        for a in &ans {
            let v = a.tuple[0].as_int().unwrap();
            assert!(v as usize <= plan.n());
        }
        assert!(p.marginal_at(plan.n()) <= eps);
    }

    #[test]
    fn boolean_queries_degenerate_to_unit_answers() {
        let p = pdb();
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let ans = approx_answers(&p, &q, 0.05).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans[0].tuple.is_empty());
        assert!(ans[0].prob > 0.6);
    }

    #[test]
    fn two_variable_query() {
        let p = pdb();
        // pairs (x, y) with both facts present: independent product
        let q = parse("R(x) /\\ R(y)", p.schema()).unwrap();
        let ans = approx_answers(&p, &q, 0.05).unwrap();
        let find = |a: i64, b: i64| {
            ans.iter()
                .find(|t| t.tuple == vec![Value::int(a), Value::int(b)])
                .map(|t| t.prob)
                .expect("pair answered")
        };
        assert!((find(1, 2) - 0.125).abs() <= 0.05);
        assert!((find(1, 1) - 0.5).abs() <= 0.05);
    }

    #[test]
    fn top_k_ranks_by_marginal() {
        let p = pdb();
        let q = parse("R(x)", p.schema()).unwrap();
        let top = top_k_answers(&p, &q, 0.001, 3).unwrap();
        assert_eq!(top.len(), 3);
        // geometric marginals rank R(1) > R(2) > R(3)
        assert_eq!(top[0].tuple, vec![Value::int(1)]);
        assert_eq!(top[1].tuple, vec![Value::int(2)]);
        assert_eq!(top[2].tuple, vec![Value::int(3)]);
        assert!(top[0].prob > top[1].prob && top[1].prob > top[2].prob);
        // k beyond the support is fine
        let all = top_k_answers(&p, &q, 0.01, 10_000).unwrap();
        assert!(all.len() < 10_000);
    }

    #[test]
    fn plan_reuse() {
        let p = pdb();
        let plan = TruncationPlan::new(&p, 0.05).unwrap();
        let q = parse("R(x)", p.schema()).unwrap();
        let a = approx_answers_with_plan(&plan, &q).unwrap();
        let b = approx_answers(&p, &q, 0.05).unwrap();
        assert_eq!(a, b);
    }
}
