//! Unified query-evaluation entry point for finite t.i. tables.
//!
//! [`prob_boolean`] dispatches between the engines of this crate:
//!
//! * [`Engine::Auto`] — safe plan if the query is a hierarchical
//!   self-join-free CQ (polynomial time), otherwise lineage + Shannon
//!   (exact but worst-case exponential).
//! * explicit engine selection for benchmarking and cross-validation.
//!
//! [`answer_marginals`] lifts Boolean evaluation to free-variable queries
//! exactly the way Section 6 of the paper does: ground the free variables
//! with every tuple over the relevant domain and evaluate each resulting
//! sentence (the marginal-probability query semantics of Section 3.1).

use crate::arena::{ArenaStats, LineageArena};
use crate::lineage::{lineage_of_arena, GroundingDomain};
use crate::{lifted, monte_carlo, shannon, worlds, FiniteError, TiTable};
use infpdb_core::space::rand_core::RngCore;
use infpdb_core::value::Value;
use infpdb_logic::ast::Formula;
use infpdb_logic::vars::{free_vars, ground};

/// Engine selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Safe plan when possible, else lineage + Shannon. At the
    /// infinite-query layer (`infpdb-query` and above), `Auto` instead
    /// routes through the cost-based planner (`infpdb_query::planner`),
    /// which may additionally choose sampling strategies per component.
    Auto,
    /// Extensional safe-plan evaluation (errors on unsafe queries).
    Lifted,
    /// Intensional lineage + Shannon expansion.
    Lineage,
    /// Brute-force world enumeration (reference; exponential).
    Brute,
}

impl Engine {
    /// Stable `u8` discriminant — the single source of truth for cache
    /// keys, circuit-breaker indexing, and wire encodings.
    pub fn tag(self) -> u8 {
        match self {
            Engine::Auto => 0,
            Engine::Lifted => 1,
            Engine::Lineage => 2,
            Engine::Brute => 3,
        }
    }

    /// Number of distinct engine variants (for per-engine arrays).
    pub const COUNT: usize = 4;
}

/// What an evaluation did, for observability: Shannon compilation
/// statistics and arena interning statistics when the intensional
/// (lineage) path ran, `None` when a non-lineage engine answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalTrace {
    /// Shannon expansion/memo/decomposition counters.
    pub shannon: Option<shannon::Stats>,
    /// Hash-consing statistics of the evaluation's arena.
    pub arena: Option<ArenaStats>,
    /// What the intra-query parallel evaluator did; `None` when
    /// evaluation ran with `parallelism ≤ 1` (or a non-lineage engine).
    pub parallel: Option<shannon::ParReport>,
    /// Per-strategy component counts and cost estimate of the plan the
    /// cost-based planner executed; `None` on the direct engine paths.
    pub plan: Option<crate::plan::PlanSummary>,
}

/// `P(Q)` for a Boolean query under the chosen engine.
pub fn prob_boolean(query: &Formula, table: &TiTable, engine: Engine) -> Result<f64, FiniteError> {
    prob_boolean_traced(query, table, engine).map(|(p, _)| p)
}

/// Like [`prob_boolean`], but also reports an [`EvalTrace`] so callers
/// (the serve layer's metrics, the bench harness) can observe memo hit
/// rates and arena sizes without re-running the query.
pub fn prob_boolean_traced(
    query: &Formula,
    table: &TiTable,
    engine: Engine,
) -> Result<(f64, EvalTrace), FiniteError> {
    prob_boolean_traced_par(query, table, engine, 1)
}

/// Like [`prob_boolean_traced`], with up to `parallelism` worker threads
/// for the intensional path's independent components
/// ([`shannon::probability_dag_parallel`]). The f64 result and the trace
/// counters are bit-for-bit identical to `parallelism = 1`; the only
/// observable difference is `EvalTrace::parallel`, filled whenever
/// `parallelism ≥ 2` reaches the lineage engine.
pub fn prob_boolean_traced_par(
    query: &Formula,
    table: &TiTable,
    engine: Engine,
    parallelism: usize,
) -> Result<(f64, EvalTrace), FiniteError> {
    prob_boolean_traced_exec(query, table, engine, parallelism, None)
        .map(|r| r.expect("default executor runs every task"))
}

/// Like [`prob_boolean_traced_par`], with a caller-supplied
/// [`shannon::TaskExecutor`] for the intensional path's component tasks.
///
/// `Ok(None)` means the executor *skipped* at least one task — the serve
/// layer's work-stealing scheduler does this when the owning request is
/// cancelled mid-flight; the query was not fully evaluated and no answer
/// exists. With `exec = None` the default fork-join executor runs and
/// the result is always `Some`, bit-for-bit [`prob_boolean_traced_par`].
pub fn prob_boolean_traced_exec(
    query: &Formula,
    table: &TiTable,
    engine: Engine,
    parallelism: usize,
    exec: Option<&dyn shannon::TaskExecutor>,
) -> Result<Option<(f64, EvalTrace)>, FiniteError> {
    match engine {
        Engine::Auto => match lifted::prob_hierarchical(query, table) {
            Ok(p) => Ok(Some((p, EvalTrace::default()))),
            Err(FiniteError::Logic(_)) => prob_by_lineage(query, table, parallelism, exec),
            Err(e) => Err(e),
        },
        Engine::Lifted => Ok(Some((
            lifted::prob_hierarchical(query, table)?,
            EvalTrace::default(),
        ))),
        Engine::Lineage => prob_by_lineage(query, table, parallelism, exec),
        Engine::Brute => Ok(Some((
            worlds::prob_boolean_brute(query, table)?,
            EvalTrace::default(),
        ))),
    }
}

fn prob_by_lineage(
    query: &Formula,
    table: &TiTable,
    parallelism: usize,
    exec: Option<&dyn shannon::TaskExecutor>,
) -> Result<Option<(f64, EvalTrace)>, FiniteError> {
    let mut trace = EvalTrace::default();
    let p = shannon::ScopedExecutor::or_default(exec, parallelism, |exec| {
        shannon_traced(query, table, parallelism, exec, &mut trace)
    })?;
    Ok(p.map(|p| (p, trace)))
}

/// The intensional path: ground straight into a hash-consed arena and run
/// the DAG Shannon engine over it, adding its work counters to `trace`.
/// One arena serves the whole evaluation, so the grounding's shared
/// substructure is discovered before inference starts and memo probes
/// are id-indexed. `Ok(None)` means `exec` skipped a component task.
pub(crate) fn shannon_traced(
    query: &Formula,
    table: &TiTable,
    parallelism: usize,
    exec: &dyn shannon::TaskExecutor,
    trace: &mut EvalTrace,
) -> Result<Option<f64>, FiniteError> {
    let mut arena = LineageArena::new();
    let root = lineage_of_arena(query, table, &mut arena)?;
    let probs = |id| table.prob(id);
    let (p, stats, arena_stats) = if parallelism >= 2 {
        let policy = shannon::ParallelPolicy::with_threads(parallelism);
        let Some((p, stats, arena_stats, report)) =
            shannon::probability_dag_parallel_exec(&mut arena, root, &probs, policy, exec)
        else {
            return Ok(None);
        };
        let par = trace
            .parallel
            .get_or_insert_with(shannon::ParReport::default);
        par.tasks += report.tasks;
        par.fallback_seq |= report.fallback_seq;
        (p, stats, arena_stats)
    } else {
        let (p, stats) = shannon::probability_dag_with_stats(&mut arena, root, &probs);
        (p, stats, arena.stats())
    };
    let s = trace.shannon.get_or_insert_with(shannon::Stats::default);
    s.expansions += stats.expansions;
    s.cache_hits += stats.cache_hits;
    s.decompositions += stats.decompositions;
    let a = trace.arena.get_or_insert_with(ArenaStats::default);
    a.nodes += arena_stats.nodes;
    a.intern_hits += arena_stats.intern_hits;
    Ok(Some(p))
}

/// Monte-Carlo estimate (separate from [`prob_boolean`] because it needs an
/// RNG and returns an error bound).
pub fn prob_boolean_mc<R: RngCore>(
    query: &Formula,
    table: &TiTable,
    samples: usize,
    rng: &mut R,
) -> Result<monte_carlo::McEstimate, FiniteError> {
    monte_carlo::estimate(query, table, samples, rng)
}

/// Marginal probabilities `Pr(~a ∈ Q(D))` for every answer tuple of a query
/// with free variables: free variables are grounded with every tuple over
/// `adom(table) ∪ adom(Q)` (complete by Fact 2.1), and each ground sentence
/// is evaluated with the chosen engine. Tuples with probability 0 are
/// omitted.
pub fn answer_marginals(
    query: &Formula,
    table: &TiTable,
    engine: Engine,
) -> Result<Vec<(Vec<Value>, f64)>, FiniteError> {
    let fv: Vec<String> = free_vars(query).into_iter().collect();
    if fv.is_empty() {
        let p = prob_boolean(query, table, engine)?;
        return Ok(if p > 0.0 { vec![(vec![], p)] } else { vec![] });
    }
    let domain = GroundingDomain::new(table, query);
    let mut out = Vec::new();
    let mut assignment: Vec<(String, Value)> = Vec::with_capacity(fv.len());
    enumerate_tuples(
        query,
        table,
        engine,
        &fv,
        domain.values(),
        0,
        &mut assignment,
        &mut out,
    )?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_tuples(
    query: &Formula,
    table: &TiTable,
    engine: Engine,
    fv: &[String],
    domain: &[Value],
    i: usize,
    assignment: &mut Vec<(String, Value)>,
    out: &mut Vec<(Vec<Value>, f64)>,
) -> Result<(), FiniteError> {
    if i == fv.len() {
        let sentence = ground(query, assignment);
        let p = prob_boolean(&sentence, table, engine)?;
        if p > 0.0 {
            out.push((assignment.iter().map(|(_, v)| v.clone()).collect(), p));
        }
        return Ok(());
    }
    for v in domain {
        assignment.push((fv[i].clone(), v.clone()));
        enumerate_tuples(query, table, engine, fv, domain, i + 1, assignment, out)?;
        assignment.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let auto = prob_boolean(&q, &t, Engine::Auto).unwrap();
            let lifted = prob_boolean(&q, &t, Engine::Lifted).unwrap();
            let lineage = prob_boolean(&q, &t, Engine::Lineage).unwrap();
            let brute = prob_boolean(&q, &t, Engine::Brute).unwrap();
            for (name, p) in [("lifted", lifted), ("lineage", lineage), ("brute", brute)] {
                assert!((auto - p).abs() < 1e-9, "{qs}: auto {auto} vs {name} {p}");
            }
        }
    }

    #[test]
    fn auto_falls_back_to_lineage_on_unsafe_queries() {
        let t = table();
        // H₀ — unsafe for lifted, fine for lineage
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        assert!(prob_boolean(&q, &t, Engine::Lifted).is_err());
        let auto = prob_boolean(&q, &t, Engine::Auto).unwrap();
        let brute = prob_boolean(&q, &t, Engine::Brute).unwrap();
        assert!((auto - brute).abs() < 1e-9);
        // also a non-CQ query
        let q2 = parse("forall x. (R(x) -> exists y. S(x, y))", t.schema()).unwrap();
        let auto2 = prob_boolean(&q2, &t, Engine::Auto).unwrap();
        let brute2 = prob_boolean(&q2, &t, Engine::Brute).unwrap();
        assert!((auto2 - brute2).abs() < 1e-9);
    }

    #[test]
    fn traced_lineage_evaluation_reports_stats() {
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let (p, trace) = prob_boolean_traced(&q, &t, Engine::Lineage).unwrap();
        let brute = prob_boolean(&q, &t, Engine::Brute).unwrap();
        assert!((p - brute).abs() < 1e-9);
        let arena = trace.arena.expect("lineage path fills arena stats");
        assert!(arena.nodes > 2, "grounding interned real nodes");
        assert!(trace.shannon.is_some());
        // the lifted path reports no intensional trace
        let q2 = parse("exists x. R(x)", t.schema()).unwrap();
        let (_, trace2) = prob_boolean_traced(&q2, &t, Engine::Auto).unwrap();
        assert_eq!(trace2, EvalTrace::default());
    }

    #[test]
    fn monte_carlo_wrapper() {
        use infpdb_core::space::rand_core::SplitMix64;
        let t = table();
        let q = parse("exists x. R(x)", t.schema()).unwrap();
        let truth = prob_boolean(&q, &t, Engine::Brute).unwrap();
        let mut rng = SplitMix64::new(3);
        let e = prob_boolean_mc(&q, &t, 20_000, &mut rng).unwrap();
        assert!((e.estimate - truth).abs() < 0.02);
    }

    #[test]
    fn answer_marginals_match_world_semantics() {
        let t = table();
        let q = parse("exists y. S(x, y)", t.schema()).unwrap();
        let fast = answer_marginals(&q, &t, Engine::Auto).unwrap();
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
        let m = answer_marginals(&q, &t, Engine::Auto).unwrap();
        assert_eq!(m.len(), 1);
        assert!(m[0].0.is_empty());
        let never = parse("false", t.schema()).unwrap();
        assert!(answer_marginals(&never, &t, Engine::Auto)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn answer_marginals_two_free_variables() {
        let t = table();
        let q = parse("S(x, y)", t.schema()).unwrap();
        let m = answer_marginals(&q, &t, Engine::Auto).unwrap();
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
