//! The exact evaluator for finite t.i. tables.
//!
//! [`prob_boolean`] compiles its query and runs [`ChosenPlan::exact`]
//! through [`evaluate_plan`], the one code path from a finite table and a
//! query to a probability: the safe plan on every component that is a
//! hierarchical self-join-free CQ (polynomial time), lineage + Shannon on
//! the rest (exact but worst-case exponential). Choosing a strategy per
//! component — sampling included — is the query layer's cost-based
//! planner's job; its plans run through the same [`evaluate_plan`].
//! Shannon on the whole formula's lineage ([`prob_lineage`]) and
//! brute-force world enumeration ([`crate::worlds::prob_boolean_brute`])
//! are the tests' references, not engines.
//!
//! [`answer_marginals`] lifts Boolean evaluation to free-variable queries
//! exactly the way Section 6 of the paper does: ground the free variables
//! with every tuple over the relevant domain and evaluate each resulting
//! sentence (the marginal-probability query semantics of Section 3.1).

use crate::arena::{ArenaStats, LineageArena, LineageId};
use crate::lineage::{lineage_of_arena, GroundingDomain};
use crate::plan::{evaluate_plan, ChosenPlan};
use crate::{shannon, FiniteError, TiTable};
use infpdb_core::value::Value;
use infpdb_logic::ast::Formula;
use infpdb_logic::compile::CompiledQuery;
use infpdb_logic::vars::for_each_grounding;

/// What an evaluation did, for observability: Shannon compilation
/// statistics and arena interning statistics when the intensional
/// (lineage) path ran, `None` when no component needed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalTrace {
    /// Shannon expansion/memo/decomposition counters.
    pub shannon: Option<shannon::Stats>,
    /// Hash-consing statistics of the evaluation's arena.
    pub arena: Option<ArenaStats>,
    /// What the intra-query parallel evaluator did; `None` when
    /// evaluation ran with `parallelism ≤ 1` or no lineage was evaluated.
    pub parallel: Option<shannon::ParReport>,
    /// Per-strategy component counts and cost estimate of the plan that
    /// ran; every evaluation runs a plan, so `None` only in a default
    /// trace.
    pub plan: Option<crate::plan::PlanSummary>,
}

impl EvalTrace {
    /// Adds one Shannon run's work counters.
    pub(crate) fn add_shannon(&mut self, stats: shannon::Stats, arena: ArenaStats) {
        let s = self.shannon.get_or_insert_with(shannon::Stats::default);
        s.expansions += stats.expansions;
        s.cache_hits += stats.cache_hits;
        s.decompositions += stats.decompositions;
        let a = self.arena.get_or_insert_with(ArenaStats::default);
        a.nodes += arena.nodes;
        a.intern_hits += arena.intern_hits;
    }

    /// Adds what one parallel run did.
    pub(crate) fn add_parallel(&mut self, report: shannon::ParReport) {
        let par = self
            .parallel
            .get_or_insert_with(shannon::ParReport::default);
        par.tasks += report.tasks;
        par.fallback_seq |= report.fallback_seq;
    }
}

/// `P(Q)` for a Boolean query, exactly: [`ChosenPlan::exact`] run by
/// [`evaluate_plan`] on one thread.
pub fn prob_boolean(query: &Formula, table: &TiTable) -> Result<f64, FiniteError> {
    let compiled = CompiledQuery::compile(table.schema(), query);
    let plan = ChosenPlan::exact(&compiled);
    let (p, _) = evaluate_plan(&compiled, &plan, table, 1, None)?
        .expect("the fork-join executor runs every task");
    Ok(p)
}

/// `P(Q)` by lineage + Shannon over the whole formula, whether or not a
/// safe plan exists: the tests' reference for the intensional path.
pub fn prob_lineage(query: &Formula, table: &TiTable) -> Result<f64, FiniteError> {
    let mut arena = LineageArena::new();
    let root = lineage_of_arena(query, table, &mut arena)?;
    Ok(shannon::probability_dag(&mut arena, root, &|id| {
        table.prob(id)
    }))
}

/// The intensional path: run the DAG Shannon engine over grounded
/// lineages, each in its own hash-consed arena — at `parallelism ≥ 2`
/// forking their heavy parts onto `exec` as one batch
/// ([`shannon::probability_dags_exec`]) — adding the work counters to
/// `trace`. `None` means `exec` skipped a task.
pub(crate) fn shannon_traced(
    mut grounded: Vec<(LineageArena, LineageId)>,
    table: &TiTable,
    parallelism: usize,
    exec: &dyn shannon::TaskExecutor,
    trace: &mut EvalTrace,
) -> Option<Vec<f64>> {
    let roots = grounded.iter_mut().map(|(arena, root)| (arena, *root));
    let policy = shannon::ParallelPolicy::with_threads(parallelism);
    let probs = |id| table.prob(id);
    let (results, report) = shannon::probability_dags_exec(roots.collect(), &probs, policy, exec)?;
    if parallelism >= 2 {
        trace.add_parallel(report);
    }
    let ps = results.into_iter().map(|(p, stats, arena_stats)| {
        trace.add_shannon(stats, arena_stats);
        p
    });
    Some(ps.collect())
}

/// Marginal probabilities `Pr(~a ∈ Q(D))` for every answer tuple of a query
/// with free variables: free variables are grounded with every tuple over
/// `adom(table) ∪ adom(Q)` (complete by Fact 2.1), and each ground sentence
/// is evaluated exactly by [`prob_boolean`]. Tuples with probability 0
/// are omitted.
pub fn answer_marginals(
    query: &Formula,
    table: &TiTable,
) -> Result<Vec<(Vec<Value>, f64)>, FiniteError> {
    let domain = GroundingDomain::new(table, query);
    let values = || domain.values();
    let mut out = Vec::new();
    for_each_grounding(query, values, |tuple, sentence| {
        let p = prob_boolean(sentence, table)?;
        if p > 0.0 {
            out.push((tuple.to_vec(), p));
        }
        Ok::<_, FiniteError>(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lifted, worlds};
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{Relation, Schema};
    use infpdb_logic::parse;

    fn table() -> TiTable {
        let s = Schema::from_relations([
            Relation::new("R", 1),
            Relation::new("S", 2),
            Relation::new("T", 1),
        ])
        .unwrap();
        let r = s.rel_id("R").unwrap();
        let s2 = s.rel_id("S").unwrap();
        let t2 = s.rel_id("T").unwrap();
        TiTable::from_facts(
            s,
            [
                (Fact::new(r, [Value::int(1)]), 0.5),
                (Fact::new(r, [Value::int(2)]), 0.4),
                (Fact::new(s2, [Value::int(1), Value::int(2)]), 0.3),
                (Fact::new(s2, [Value::int(2), Value::int(2)]), 0.9),
                (Fact::new(t2, [Value::int(2)]), 0.7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_engines_agree_on_safe_queries() {
        let t = table();
        for qs in [
            "exists x, y. R(x) /\\ S(x, y)",
            "exists x. R(x)",
            "R(1) /\\ T(2)",
        ] {
            let q = parse(qs, t.schema()).unwrap();
            let exact = prob_boolean(&q, &t).unwrap();
            let lifted = lifted::prob_hierarchical(&q, &t).unwrap();
            let lineage = prob_lineage(&q, &t).unwrap();
            let brute = worlds::prob_boolean_brute(&q, &t).unwrap();
            for (name, p) in [("lifted", lifted), ("lineage", lineage), ("brute", brute)] {
                assert!(
                    (exact - p).abs() < 1e-9,
                    "{qs}: exact {exact} vs {name} {p}"
                );
            }
        }
    }

    #[test]
    fn auto_falls_back_to_lineage_on_unsafe_queries() {
        let t = table();
        // H₀ — unsafe for lifted, fine for lineage
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        assert!(lifted::prob_hierarchical(&q, &t).is_err());
        let exact = prob_boolean(&q, &t).unwrap();
        let brute = worlds::prob_boolean_brute(&q, &t).unwrap();
        assert!((exact - brute).abs() < 1e-9);
        // also a non-CQ query
        let q2 = parse("forall x. (R(x) -> exists y. S(x, y))", t.schema()).unwrap();
        let exact2 = prob_boolean(&q2, &t).unwrap();
        let brute2 = worlds::prob_boolean_brute(&q2, &t).unwrap();
        assert!((exact2 - brute2).abs() < 1e-9);
    }

    #[test]
    fn domain_dependent_components_match_world_semantics() {
        let t = table();
        // `7` occurs only in the second component; the first still
        // ranges over it, as the undecomposed query does
        for qs in [
            "(exists x. !R(x)) /\\ !T(7)",
            "(forall x. R(x)) \\/ T(7)",
            "(forall x. exists y. S(x, y)) \\/ T(7)",
        ] {
            let q = parse(qs, t.schema()).unwrap();
            let brute = worlds::prob_boolean_brute(&q, &t).unwrap();
            assert_eq!(prob_boolean(&q, &t).unwrap(), brute, "{qs}");
            assert_eq!(prob_lineage(&q, &t).unwrap(), brute, "{qs}");
        }
    }

    #[test]
    fn traced_lineage_evaluation_reports_stats() {
        let t = table();
        let run = |qs: &str| {
            let q = parse(qs, t.schema()).unwrap();
            let compiled = CompiledQuery::compile(t.schema(), &q);
            let plan = ChosenPlan::exact(&compiled);
            let (p, trace) = evaluate_plan(&compiled, &plan, &t, 1, None)
                .unwrap()
                .unwrap();
            let brute = worlds::prob_boolean_brute(&q, &t).unwrap();
            assert!((p - brute).abs() < 1e-9, "{qs}: {p} vs {brute}");
            trace
        };
        // H₀ has no safe plan: the lineage path fills both counters
        let trace = run("exists x, y. R(x) /\\ S(x, y) /\\ T(y)");
        let arena = trace.arena.expect("lineage path fills arena stats");
        assert!(arena.nodes > 2, "grounding interned real nodes");
        assert!(trace.shannon.is_some());
        assert_eq!(trace.plan.expect("a plan ran").shannon, 1);
        // the lifted path reports no intensional trace
        let trace2 = run("exists x. R(x)");
        assert_eq!((trace2.shannon, trace2.arena), (None, None));
        assert_eq!(trace2.plan.expect("a plan ran").lifted, 1);
    }

    #[test]
    fn answer_marginals_match_world_semantics() {
        let t = table();
        let q = parse("exists y. S(x, y)", t.schema()).unwrap();
        let fast = answer_marginals(&q, &t).unwrap();
        let slow = t.worlds().unwrap().answer_marginals(&q).unwrap();
        assert_eq!(fast.len(), slow.len());
        for ((ta, pa), (tb, pb)) in fast.iter().zip(slow.iter()) {
            assert_eq!(ta, tb);
            assert!((pa - pb).abs() < 1e-9);
        }
    }

    #[test]
    fn answer_marginals_boolean_degenerate() {
        let t = table();
        let q = parse("exists x. R(x)", t.schema()).unwrap();
        let m = answer_marginals(&q, &t).unwrap();
        assert_eq!(m.len(), 1);
        assert!(m[0].0.is_empty());
        let never = parse("false", t.schema()).unwrap();
        assert!(answer_marginals(&never, &t).unwrap().is_empty());
    }

    #[test]
    fn answer_marginals_two_free_variables() {
        let t = table();
        let q = parse("S(x, y)", t.schema()).unwrap();
        let m = answer_marginals(&q, &t).unwrap();
        assert_eq!(m.len(), 2);
        // sorted free vars (x, y); tuples (1,2) p=.3 and (2,2) p=.9
        assert!(m
            .iter()
            .any(|(t2, p)| t2 == &vec![Value::int(1), Value::int(2)] && (p - 0.3).abs() < 1e-12));
        assert!(m
            .iter()
            .any(|(t2, p)| t2 == &vec![Value::int(2), Value::int(2)] && (p - 0.9).abs() < 1e-12));
    }
}
