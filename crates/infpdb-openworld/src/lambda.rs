//! The OpenPDB baseline of Ceylan, Darwiche & Van den Broeck (KR'16).
//!
//! The paper positions its infinite completions as the generalization of
//! OpenPDBs: there, the universe is a *fixed finite* set, and every fact
//! not listed in the t.i. table may have any probability in `[0, λ]`. A
//! query then gets an interval of probabilities over all λ-completions.
//! For *monotone* queries (UCQs) the extremes are attained at the endpoint
//! completions: all-new-facts-at-0 (the original closed world) and
//! all-new-facts-at-λ.
//!
//! The paper's Section 5 recovers this model exactly when the universe is
//! finite, and generalizes it by replacing the constant bound λ with "the
//! summands of a fixed convergent series".

use crate::OpenWorldError;
use infpdb_core::fact::Fact;
use infpdb_core::schema::Schema;
use infpdb_core::universe::Universe;
use infpdb_core::value::Value;
use infpdb_finite::plan::{evaluate_plan, ChosenPlan};
use infpdb_finite::TiTable;
use infpdb_logic::ast::Formula;
use infpdb_logic::compile::CompiledQuery;
use infpdb_logic::normal::as_ucq;
use infpdb_math::ProbInterval;

/// Cap on the number of candidate facts a finite universe may induce.
pub const MAX_CANDIDATES: usize = 100_000;

/// An OpenPDB: a t.i. table plus the λ-bounded candidate facts of a finite
/// universe.
#[derive(Debug, Clone)]
pub struct LambdaCompletion {
    base: TiTable,
    candidates: Vec<Fact>,
    lambda: f64,
}

impl LambdaCompletion {
    /// Builds the λ-completion of `base` over the finite universe:
    /// candidates are **all** facts of the schema over the universe's
    /// values that are not already in the table.
    pub fn new<U: Universe>(
        base: TiTable,
        universe: &U,
        lambda: f64,
    ) -> Result<Self, OpenWorldError> {
        infpdb_math::check_probability(lambda).map_err(OpenWorldError::Math)?;
        let n = universe.cardinality().ok_or_else(|| {
            OpenWorldError::Finite(
                "OpenPDB λ-completions need a finite universe; use the convergent-series \
                 completions of Section 5 for infinite ones"
                    .to_string(),
            )
        })?;
        let values: Vec<Value> = (0..n)
            .map(|i| universe.enumerate(i).expect("within cardinality"))
            .collect();
        let mut candidates = Vec::new();
        let schema = base.schema().clone();
        for (rel, r) in schema.iter() {
            let k = r.arity();
            let mut count = 1usize;
            for _ in 0..k {
                count = count.saturating_mul(values.len());
            }
            if candidates.len().saturating_add(count) > MAX_CANDIDATES {
                return Err(OpenWorldError::TooManyCombinations(count));
            }
            let mut idx = vec![0usize; k];
            loop {
                let fact = Fact::new(rel, idx.iter().map(|&i| values[i].clone()));
                if base.fact_id(&fact).is_none() {
                    candidates.push(fact);
                }
                // odometer
                let mut pos = k;
                loop {
                    if pos == 0 {
                        break;
                    }
                    pos -= 1;
                    idx[pos] += 1;
                    if idx[pos] < values.len() {
                        break;
                    }
                    idx[pos] = 0;
                    if pos == 0 {
                        pos = usize::MAX;
                        break;
                    }
                }
                if k == 0 || pos == usize::MAX {
                    break;
                }
            }
        }
        Ok(Self {
            base,
            candidates,
            lambda,
        })
    }

    /// The base table (the lower-endpoint completion).
    pub fn base(&self) -> &TiTable {
        &self.base
    }

    /// The candidate facts (unlisted facts of the finite universe).
    pub fn candidates(&self) -> &[Fact] {
        &self.candidates
    }

    /// The threshold λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The upper-endpoint completion: every candidate at probability λ.
    pub fn upper_table(&self) -> Result<TiTable, OpenWorldError> {
        let mut t = self.base.clone();
        for f in &self.candidates {
            t.add_fact(f.clone(), self.lambda)?;
        }
        Ok(t)
    }

    /// The probability interval of a **monotone** Boolean query (a UCQ)
    /// over all λ-completions: `[P_{p=0}(Q), P_{p=λ}(Q)]`. Non-UCQ queries
    /// are rejected — for them the endpoint completions need not be
    /// extremal.
    pub fn prob_interval(&self, query: &Formula) -> Result<ProbInterval, OpenWorldError> {
        if let Err(e) = as_ucq(query) {
            return Err(OpenWorldError::NotMonotone(e.to_string()));
        }
        // one compilation for both endpoints
        let compiled = CompiledQuery::compile(self.schema(), query);
        let exact = ChosenPlan::exact(&compiled);
        let prob = |table: &TiTable| {
            evaluate_plan(&compiled, &exact, table, 1, None)
                .map(|r| r.expect("the fork-join executor runs every task").0)
        };
        let lo = prob(&self.base)?;
        let hi = prob(&self.upper_table()?)?;
        ProbInterval::new(lo, hi).map_err(OpenWorldError::Math)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.base.schema()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::{RelId, Relation};
    use infpdb_core::universe::FiniteUniverse;
    use infpdb_logic::parse;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1), Relation::new("S", 1)]).unwrap()
    }

    fn rfact(rel: u32, n: i64) -> Fact {
        Fact::new(RelId(rel), [Value::int(n)])
    }

    fn universe() -> FiniteUniverse {
        FiniteUniverse::new((1..=3).map(Value::int))
    }

    fn base() -> TiTable {
        TiTable::from_facts(schema(), [(rfact(0, 1), 0.8), (rfact(1, 2), 0.5)]).unwrap()
    }

    #[test]
    fn candidates_are_all_unlisted_facts() {
        let l = LambdaCompletion::new(base(), &universe(), 0.1).unwrap();
        // 3 values × 2 unary relations = 6 facts, 2 listed → 4 candidates
        assert_eq!(l.candidates().len(), 4);
        assert!(l.candidates().contains(&rfact(0, 2)));
        assert!(!l.candidates().contains(&rfact(0, 1)));
        assert_eq!(l.lambda(), 0.1);
    }

    #[test]
    fn upper_table_adds_lambda_facts() {
        let l = LambdaCompletion::new(base(), &universe(), 0.1).unwrap();
        let up = l.upper_table().unwrap();
        assert_eq!(up.len(), 6);
        assert!((up.marginal(&rfact(0, 3)) - 0.1).abs() < 1e-12);
        assert!((up.marginal(&rfact(0, 1)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn interval_semantics_for_monotone_queries() {
        let l = LambdaCompletion::new(base(), &universe(), 0.1).unwrap();
        let q = parse("exists x. R(x) /\\ S(x)", l.schema()).unwrap();
        let iv = l.prob_interval(&q).unwrap();
        // closed world: R and S share no element → P = 0… wait: R(1) at .8,
        // S(2) at .5 — no common x, so lower bound is 0.
        assert_eq!(iv.lo(), 0.0);
        assert!(iv.hi() > 0.0);
        assert!(iv.hi() < 0.5);
        // wider λ ⇒ wider interval
        let l2 = LambdaCompletion::new(base(), &universe(), 0.3).unwrap();
        let iv2 = l2.prob_interval(&q).unwrap();
        assert!(iv2.hi() > iv.hi());
    }

    #[test]
    fn monotone_query_with_nonzero_lower_bound() {
        let l = LambdaCompletion::new(base(), &universe(), 0.1).unwrap();
        let q = parse("exists x. R(x)", l.schema()).unwrap();
        let iv = l.prob_interval(&q).unwrap();
        assert!((iv.lo() - 0.8).abs() < 1e-12);
        assert!(iv.hi() > 0.8);
    }

    #[test]
    fn non_monotone_queries_rejected() {
        let l = LambdaCompletion::new(base(), &universe(), 0.1).unwrap();
        let q = parse("exists x. !R(x)", l.schema()).unwrap();
        assert!(matches!(
            l.prob_interval(&q),
            Err(OpenWorldError::NotMonotone(_))
        ));
        let q2 = parse("forall x. R(x)", l.schema()).unwrap();
        assert!(l.prob_interval(&q2).is_err());
    }

    #[test]
    fn infinite_universes_rejected() {
        let l = LambdaCompletion::new(base(), &infpdb_core::universe::Naturals, 0.1);
        assert!(matches!(l, Err(OpenWorldError::Finite(_))));
    }

    #[test]
    fn bad_lambda_rejected() {
        assert!(LambdaCompletion::new(base(), &universe(), 1.5).is_err());
    }

    #[test]
    fn candidate_explosion_guarded() {
        let schema = Schema::from_relations([Relation::new("W", 3)]).unwrap();
        let t = TiTable::new(schema);
        let u = FiniteUniverse::new((0..100).map(Value::int));
        // 100³ = 10⁶ > cap
        assert!(matches!(
            LambdaCompletion::new(t, &u, 0.1),
            Err(OpenWorldError::TooManyCombinations(_))
        ));
    }

    #[test]
    fn zero_ary_relation_candidates() {
        let schema = Schema::from_relations([Relation::new("Flag", 0)]).unwrap();
        let t = TiTable::new(schema);
        let l = LambdaCompletion::new(t, &universe(), 0.2).unwrap();
        assert_eq!(l.candidates().len(), 1); // the single 0-ary fact
    }
}
