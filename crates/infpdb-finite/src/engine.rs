//! The exact evaluator for finite t.i. tables.
//!
//! [`prob_boolean`] is the safe plan when the query is a hierarchical
//! self-join-free CQ (polynomial time), otherwise lineage + Shannon
//! ([`prob_lineage`]: exact but worst-case exponential). Choosing a
//! strategy per query component — sampling included — is the query
//! layer's cost-based planner's job; its plans run through
//! [`crate::plan::evaluate_plan`]. Brute-force world enumeration
//! ([`crate::worlds::prob_boolean_brute`]) is the tests' oracle, not an
//! engine.
//!
//! [`answer_marginals`] lifts Boolean evaluation to free-variable queries
//! exactly the way Section 6 of the paper does: ground the free variables
//! with every tuple over the relevant domain and evaluate each resulting
//! sentence (the marginal-probability query semantics of Section 3.1).

use crate::arena::{ArenaStats, LineageArena};
use crate::lineage::{lineage_of_arena, GroundingDomain};
use crate::{lifted, shannon, FiniteError, TiTable};
use infpdb_core::value::Value;
use infpdb_logic::ast::Formula;
use infpdb_logic::vars::{free_vars, ground};

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
    /// ran; `None` from the exact evaluator, which runs no plan.
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

/// `P(Q)` for a Boolean query, exactly: the safe plan when there is one,
/// else lineage + Shannon.
pub fn prob_boolean(query: &Formula, table: &TiTable) -> Result<f64, FiniteError> {
    prob_boolean_traced(query, table, 1).map(|(p, _)| p)
}

/// Like [`prob_boolean`], but also reports an [`EvalTrace`], and the
/// lineage path forks independent components over up to `parallelism`
/// threads ([`shannon::probability_dag_parallel`]). The f64 result and
/// the work counters are bit-for-bit those at `parallelism = 1`; only
/// `EvalTrace::parallel` tells the runs apart.
pub fn prob_boolean_traced(
    query: &Formula,
    table: &TiTable,
    parallelism: usize,
) -> Result<(f64, EvalTrace), FiniteError> {
    match lifted::prob_hierarchical(query, table) {
        Ok(p) => Ok((p, EvalTrace::default())),
        Err(FiniteError::Logic(_)) => lineage_traced(query, table, parallelism),
        Err(e) => Err(e),
    }
}

/// `P(Q)` by lineage + Shannon over the whole formula, whether or not a
/// safe plan exists — the intensional half of [`prob_boolean`].
pub fn prob_lineage(query: &Formula, table: &TiTable) -> Result<f64, FiniteError> {
    lineage_traced(query, table, 1).map(|(p, _)| p)
}

fn lineage_traced(
    query: &Formula,
    table: &TiTable,
    parallelism: usize,
) -> Result<(f64, EvalTrace), FiniteError> {
    let mut trace = EvalTrace::default();
    let ps = shannon::ScopedExecutor::or_default(None, parallelism, |exec| {
        shannon_traced(&[query], table, parallelism, exec, &mut trace)
    })?
    .expect("the fork-join executor runs every task");
    Ok((ps[0], trace))
}

/// The intensional path: ground each formula into its own hash-consed
/// arena, then run the DAG Shannon engine over all of them — at
/// `parallelism ≥ 2` forking their heavy parts onto `exec` as one batch
/// ([`shannon::probability_dags_exec`]) — adding the work counters to
/// `trace`. `Ok(None)` means `exec` skipped a task.
pub(crate) fn shannon_traced(
    formulas: &[&Formula],
    table: &TiTable,
    parallelism: usize,
    exec: &dyn shannon::TaskExecutor,
    trace: &mut EvalTrace,
) -> Result<Option<Vec<f64>>, FiniteError> {
    let mut grounded = Vec::with_capacity(formulas.len());
    for formula in formulas {
        let mut arena = LineageArena::new();
        let root = lineage_of_arena(formula, table, &mut arena)?;
        grounded.push((arena, root));
    }
    let roots = grounded.iter_mut().map(|(arena, root)| (arena, *root));
    let policy = shannon::ParallelPolicy::with_threads(parallelism);
    let probs = |id| table.prob(id);
    let Some((results, report)) =
        shannon::probability_dags_exec(roots.collect(), &probs, policy, exec)
    else {
        return Ok(None);
    };
    if parallelism >= 2 {
        trace.add_parallel(report);
    }
    let ps = results.into_iter().map(|(p, stats, arena_stats)| {
        trace.add_shannon(stats, arena_stats);
        p
    });
    Ok(Some(ps.collect()))
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
    let fv: Vec<String> = free_vars(query).into_iter().collect();
    if fv.is_empty() {
        let p = prob_boolean(query, table)?;
        return Ok(if p > 0.0 { vec![(vec![], p)] } else { vec![] });
    }
    let domain = GroundingDomain::new(table, query);
    let mut out = Vec::new();
    let mut assignment: Vec<(String, Value)> = Vec::with_capacity(fv.len());
    enumerate_tuples(
        query,
        table,
        &fv,
        domain.values(),
        0,
        &mut assignment,
        &mut out,
    )?;
    Ok(out)
}

fn enumerate_tuples(
    query: &Formula,
    table: &TiTable,
    fv: &[String],
    domain: &[Value],
    i: usize,
    assignment: &mut Vec<(String, Value)>,
    out: &mut Vec<(Vec<Value>, f64)>,
) -> Result<(), FiniteError> {
    if i == fv.len() {
        let sentence = ground(query, assignment);
        let p = prob_boolean(&sentence, table)?;
        if p > 0.0 {
            out.push((assignment.iter().map(|(_, v)| v.clone()).collect(), p));
        }
        return Ok(());
    }
    for v in domain {
        assignment.push((fv[i].clone(), v.clone()));
        enumerate_tuples(query, table, fv, domain, i + 1, assignment, out)?;
        assignment.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds;
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
    fn traced_lineage_evaluation_reports_stats() {
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let (p, trace) = prob_boolean_traced(&q, &t, 1).unwrap();
        let brute = worlds::prob_boolean_brute(&q, &t).unwrap();
        assert!((p - brute).abs() < 1e-9);
        let arena = trace.arena.expect("lineage path fills arena stats");
        assert!(arena.nodes > 2, "grounding interned real nodes");
        assert!(trace.shannon.is_some());
        // the lifted path reports no intensional trace
        let q2 = parse("exists x. R(x)", t.schema()).unwrap();
        let (_, trace2) = prob_boolean_traced(&q2, &t, 1).unwrap();
        assert_eq!(trace2, EvalTrace::default());
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
