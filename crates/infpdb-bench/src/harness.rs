//! The reproducible perf harness behind `infpdb bench`.
//!
//! Times the Proposition 6.1 hot path — grounding, Shannon expansion,
//! end-to-end `approx_prob_boolean`, and repeat execution of a
//! [`PreparedQuery`] — on the geometric, zeta, and blocks PDBs at
//! ε ∈ {1e-2, 1e-3, 1e-4}, with the hash-consed production engine
//! ([`infpdb_finite::lineage::lineage_of_arena`] +
//! [`infpdb_finite::shannon::probability_dag`]). The boxed-tree engine
//! is the tests' bit-for-bit reference, not a measured implementation.
//!
//! The output is a stable JSON artifact (`BENCH_<iso-date>.json`, see
//! [`to_json`]) recording per-cell median ns/op, the Shannon memo hit
//! rate, and the arena node count, so the perf trajectory stays
//! trackable (and optimisation claims falsifiable) across PRs.
//! EXPERIMENTS.md §Perf records the checked-in before/after pair.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use infpdb_core::json::Json;
use infpdb_finite::arena::LineageArena;
use infpdb_finite::lineage::lineage_of_arena;
use infpdb_finite::shannon;
use infpdb_logic::ast::Formula;
use infpdb_logic::parse;
use infpdb_query::approx::approx_prob_boolean_par;
use infpdb_query::cancel::CancelToken;
use infpdb_query::prepared::{PreparedPdb, PreparedQuery};
use infpdb_query::truncate::TruncationPlan;
use infpdb_query::{Engine, PlanKnobs, StrategyKind};
use infpdb_ti::construction::CountableTiPdb;

use crate::planner::PlannerRow;
use crate::saturation::SaturationRow;
use crate::{blocks_pdb, geometric_pdb, zeta_pdb};

/// The e2e and prepared stages force Shannon on every component, the
/// strategy the `shannon` stage times on the whole lineage.
const SHANNON: Engine = Engine::Force(StrategyKind::Shannon);

/// The tolerances every workload is measured at.
pub const DEFAULT_EPS: [f64; 3] = [1e-2, 1e-3, 1e-4];

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Smoke mode: one iteration per cell, no warmup — just enough to
    /// keep the harness green in CI.
    pub smoke: bool,
    /// The ε grid (defaults to [`DEFAULT_EPS`]).
    pub eps: Vec<f64>,
    /// Minimum executions timed in the repeat-query (`prepared`) stage —
    /// the prefix is grounded once outside the timer, then the query is
    /// re-executed at least this many times (`infpdb bench --repeats`).
    pub repeats: usize,
    /// Intra-query thread budget for the Shannon, e2e, and prepared
    /// stages (`infpdb bench --threads`). Estimates are bit-for-bit
    /// identical at every value; `1` stays sequential.
    pub threads: usize,
}

/// Default repeat count for the `prepared` stage.
pub const DEFAULT_REPEATS: usize = 8;

impl BenchConfig {
    /// The standard configuration for `infpdb bench`.
    pub fn new(smoke: bool) -> Self {
        Self {
            smoke,
            eps: DEFAULT_EPS.to_vec(),
            repeats: DEFAULT_REPEATS,
            threads: 1,
        }
    }
}

/// One measured cell: `(workload, query, stage, ε)` → timing + engine
/// statistics.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// PDB fixture: `"geometric"`, `"zeta"`, or `"blocks"`.
    pub workload: &'static str,
    /// Query shape: `"exists"`, `"pair"`, or `"pairs2"`.
    pub query: &'static str,
    /// `"ground"`, `"shannon"`, `"e2e"`, or `"prepared"` (repeat-query
    /// execution against a pre-grounded prefix).
    pub stage: &'static str,
    /// Tolerance the truncation was planned for.
    pub eps: f64,
    /// Intra-query thread budget the row was measured at.
    pub threads: usize,
    /// `n(ε)`: the truncated prefix length.
    pub n: usize,
    /// Timed iterations behind the median.
    pub iters: usize,
    /// Median wall-clock nanoseconds per operation.
    pub median_ns: u64,
    /// The probability the stage computes (sanity anchor; identical
    /// to the tree reference engine by the equivalence tests). The
    /// `e2e` and `prepared` rows report their own answers; `ground` and
    /// `shannon` report the untimed Shannon probe's.
    pub estimate: f64,
    /// Shannon memo hits / (hits + expansions + decompositions), from
    /// an untimed probe. `None` for ground-only rows.
    pub memo_hit_rate: Option<f64>,
    /// Interned arena nodes after the stage.
    pub arena_nodes: Option<usize>,
}

/// A full harness run: the rows plus the provenance needed to compare
/// artifacts across PRs.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether smoke mode was on.
    pub smoke: bool,
    /// UTC date of the run (`YYYY-MM-DD`).
    pub date: String,
    /// One row per `(workload, query, stage, ε)` cell.
    pub rows: Vec<BenchRow>,
    /// Aggregate-throughput rows from the saturation stage (one per
    /// `(scheduler, pool threads)` cell); empty when the stage was
    /// skipped. Kept in a separate array so the `rows` matrix is
    /// byte-comparable with schema `/2` artifacts.
    pub saturation: Vec<SaturationRow>,
    /// Cost-based planner crossover rows (one per planner-stage cell);
    /// empty when the stage was skipped. Like `saturation`, a separate
    /// array so older artifacts stay comparable row for row.
    pub planner: Vec<PlannerRow>,
}

/// Iteration policy for one measurement (shared with the planner
/// stage).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IterPolicy {
    warmup: bool,
    min_iters: usize,
    max_iters: usize,
    budget: Duration,
}

impl IterPolicy {
    fn for_config(cfg: &BenchConfig) -> Self {
        Self::for_smoke(cfg.smoke)
    }

    pub(crate) fn for_smoke(smoke: bool) -> Self {
        if smoke {
            Self {
                warmup: false,
                min_iters: 1,
                max_iters: 1,
                budget: Duration::ZERO,
            }
        } else {
            Self {
                warmup: true,
                min_iters: 5,
                max_iters: 400,
                budget: Duration::from_millis(300),
            }
        }
    }
}

/// Runs `op` under the iteration policy; `setup` produces per-iteration
/// state *outside* the timed window (the arena Shannon stage needs a
/// freshly grounded arena per iteration, because DAG evaluation interns
/// cofactors and a reused arena would answer later iterations from the
/// interning table). Returns `(median_ns, iters)`.
pub(crate) fn run_timed<S>(
    policy: IterPolicy,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(S),
) -> (u64, usize) {
    if policy.warmup {
        op(setup());
    }
    let mut samples: Vec<u64> = Vec::new();
    let started = Instant::now();
    loop {
        let state = setup();
        let t = Instant::now();
        op(state);
        let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        samples.push(ns);
        let done_min = samples.len() >= policy.min_iters;
        if samples.len() >= policy.max_iters || (done_min && started.elapsed() >= policy.budget) {
            break;
        }
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], samples.len())
}

/// One workload: a PDB fixture and a query over it.
struct Workload {
    pdb_name: &'static str,
    query_name: &'static str,
    query_text: &'static str,
    pdb: CountableTiPdb,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            pdb_name: "geometric",
            query_name: "exists",
            query_text: "exists x. R(x)",
            pdb: geometric_pdb(),
        },
        // the memo-heavy regime: C(n,2) clauses sharing all their
        // conjuncts pairwise, where hash-consing pays off
        Workload {
            pdb_name: "geometric",
            query_name: "pair",
            query_text: "exists x, y. R(x) /\\ R(y) /\\ x != y",
            pdb: geometric_pdb(),
        },
        // slow decay: n(1e-4) ≈ 9000, stressing grounding + component
        // decomposition width (the pair query over ~9000 facts would
        // ground ~40M clauses, so zeta only runs the unary query)
        Workload {
            pdb_name: "zeta",
            query_name: "exists",
            query_text: "exists x. R(x)",
            pdb: zeta_pdb(),
        },
        // two var-disjoint pair queries: the root And splits into two
        // independent components wide enough for the parallel evaluator
        // to fork (the other workloads are single-component or all-Var
        // and stay on the sequential path at any thread count)
        Workload {
            pdb_name: "blocks",
            query_name: "pairs2",
            query_text: "(exists x, y. A(x) /\\ A(y) /\\ x != y) \
                         /\\ (exists x, y. B(x) /\\ B(y) /\\ x != y)",
            pdb: blocks_pdb(),
        },
    ]
}

/// Untimed probe of one cell: probability, Shannon statistics, and node
/// counts, recorded once and attached to the cell's rows.
struct Probe {
    estimate: f64,
    memo_hit_rate: f64,
    ground_nodes: usize,
    eval_nodes: usize,
}

fn probe_cell(query: &Formula, table: &infpdb_finite::TiTable) -> Result<Probe, String> {
    let mut arena = LineageArena::new();
    let root = lineage_of_arena(query, table, &mut arena).map_err(|e| e.to_string())?;
    let ground_nodes = arena.len();
    let (p, stats) = shannon::probability_dag_with_stats(&mut arena, root, &|id| table.prob(id));
    Ok(Probe {
        estimate: p,
        memo_hit_rate: hit_rate(&stats),
        ground_nodes,
        eval_nodes: arena.len(),
    })
}

fn hit_rate(stats: &shannon::Stats) -> f64 {
    let probes = stats.cache_hits + stats.expansions + stats.decompositions;
    if probes == 0 {
        0.0
    } else {
        stats.cache_hits as f64 / probes as f64
    }
}

/// Runs the full workload × ε × stage matrix.
pub fn run(config: &BenchConfig) -> Result<BenchReport, String> {
    let policy = IterPolicy::for_config(config);
    let threads = config.threads.max(1);
    let par_policy = shannon::ParallelPolicy::with_threads(threads);
    let mut rows = Vec::new();
    for w in workloads() {
        let query = parse(w.query_text, w.pdb.schema()).map_err(|e| e.to_string())?;
        for &eps in &config.eps {
            let plan = TruncationPlan::new(&w.pdb, eps).map_err(|e| e.to_string())?;
            let table = &plan.table;
            let n = plan.n();
            let probe = probe_cell(&query, table)?;
            let probs = |id| table.prob(id);

            // stage 1: grounding (query → lineage over Ω_n)
            let (median_ns, iters) = run_timed(
                policy,
                || (),
                |()| {
                    let mut arena = LineageArena::new();
                    black_box(lineage_of_arena(&query, table, &mut arena).expect("probed"));
                },
            );
            rows.push(BenchRow {
                workload: w.pdb_name,
                query: w.query_name,
                stage: "ground",
                eps,
                threads,
                n,
                iters,
                median_ns,
                estimate: probe.estimate,
                memo_hit_rate: None,
                arena_nodes: Some(probe.ground_nodes),
            });

            // stage 2: Shannon expansion (grounding outside the timer)
            let (median_ns, iters) = run_timed(
                policy,
                || {
                    let mut arena = LineageArena::new();
                    let root = lineage_of_arena(&query, table, &mut arena).expect("probed");
                    (arena, root)
                },
                |(mut arena, root)| {
                    if threads >= 2 {
                        black_box(shannon::probability_dag_parallel(
                            &mut arena, root, &probs, par_policy,
                        ));
                    } else {
                        black_box(shannon::probability_dag_with_stats(
                            &mut arena, root, &probs,
                        ));
                    }
                },
            );
            rows.push(BenchRow {
                workload: w.pdb_name,
                query: w.query_name,
                stage: "shannon",
                eps,
                threads,
                n,
                iters,
                median_ns,
                estimate: probe.estimate,
                memo_hit_rate: Some(probe.memo_hit_rate),
                arena_nodes: Some(probe.eval_nodes),
            });

            // stage 3: end-to-end approx_prob_boolean under a forced
            // Shannon plan (profile + truncation + grounding + Shannon,
            // all inside the timer); the row reports its own answer
            let fresh = approx_prob_boolean_par(&w.pdb, &query, eps, SHANNON, threads)
                .map_err(|e| e.to_string())?;
            let (median_ns, iters) = run_timed(
                policy,
                || (),
                |()| {
                    black_box(
                        approx_prob_boolean_par(&w.pdb, &query, eps, SHANNON, threads)
                            .expect("probed"),
                    );
                },
            );
            rows.push(BenchRow {
                workload: w.pdb_name,
                query: w.query_name,
                stage: "e2e",
                eps,
                threads,
                n: fresh.n,
                iters,
                median_ns,
                estimate: fresh.estimate,
                memo_hit_rate: Some(probe.memo_hit_rate),
                arena_nodes: Some(probe.eval_nodes),
            });

            // stage 4: repeat-query execution. The prefix is grounded
            // ONCE outside the timer (the prepare phase); each timed
            // iteration re-executes the same query against the memoized
            // snapshot, so the stage isolates what a plan-cache-hit
            // execution costs once grounding is amortized. Compare
            // against the `e2e` row of the same cell.
            let mut repeat_policy = policy;
            repeat_policy.min_iters = repeat_policy.min_iters.max(config.repeats);
            let pq = PreparedQuery::prepare(
                PreparedPdb::new(w.pdb.clone()),
                &query,
                SHANNON,
                PlanKnobs::default(),
            )
            .with_parallelism(threads);
            let token = CancelToken::new();
            let execute = || pq.execute(eps, &token, None).expect("probed");
            execute(); // prepare: grounds once
            let (median_ns, iters) = run_timed(
                repeat_policy,
                || (),
                |()| {
                    black_box(execute());
                },
            );
            let warm = execute().approx;
            rows.push(BenchRow {
                workload: w.pdb_name,
                query: w.query_name,
                stage: "prepared",
                eps,
                threads,
                n: warm.n,
                iters,
                median_ns,
                estimate: warm.estimate,
                memo_hit_rate: Some(probe.memo_hit_rate),
                arena_nodes: Some(probe.eval_nodes),
            });
        }
    }
    Ok(BenchReport {
        smoke: config.smoke,
        date: iso_date_utc(),
        rows,
        saturation: Vec::new(),
        planner: Vec::new(),
    })
}

/// Renders the report as the `BENCH_<iso-date>.json` artifact.
///
/// Built on the shared [`infpdb_core::json`] encoder (the workspace is
/// offline; no serde): the schema is
/// `{"schema":"infpdb-bench/4","date":…,"impl":…,"smoke":…,"rows":[…],
/// "saturation":[…],"planner":[…]}` with one object per [`BenchRow`] /
/// [`SaturationRow`] / [`PlannerRow`]; absent statistics are `null`.
/// Schema `/2` added the per-row `threads` field (intra-query thread
/// budget); `/1` rows are `/2` rows with an implicit `threads = 1`.
/// Schema `/3` added the top-level `saturation` array (aggregate
/// queries/sec per scheduler × pool size); `/4` adds the top-level
/// `planner` array (the cost-based optimizer's crossover cells, each
/// with the Auto plan's choice and every forced-strategy baseline).
/// The `rows` matrix is unchanged since `/2`.
pub fn to_json(report: &BenchReport) -> String {
    let rows = report
        .rows
        .iter()
        .map(|r| {
            Json::obj([
                ("workload", Json::str(r.workload)),
                ("query", Json::str(r.query)),
                ("stage", Json::str(r.stage)),
                ("eps", Json::Float(r.eps)),
                ("threads", Json::Int(r.threads as i64)),
                ("n", Json::Int(r.n as i64)),
                ("iters", Json::Int(r.iters as i64)),
                ("median_ns", Json::Int(r.median_ns as i64)),
                ("estimate", Json::Float(r.estimate)),
                (
                    "memo_hit_rate",
                    r.memo_hit_rate.map(Json::Float).unwrap_or(Json::Null),
                ),
                (
                    "arena_nodes",
                    r.arena_nodes
                        .map(|v| Json::Int(v as i64))
                        .unwrap_or(Json::Null),
                ),
            ])
        })
        .collect();
    let planner = report
        .planner
        .iter()
        .map(|r| {
            let forced = r
                .forced
                .iter()
                .map(|f| {
                    Json::obj([
                        ("strategy", Json::str(f.strategy)),
                        ("cost", f.cost.map(Json::Float).unwrap_or(Json::Null)),
                        (
                            "median_ns",
                            f.median_ns
                                .map(|v| Json::Int(v as i64))
                                .unwrap_or(Json::Null),
                        ),
                        ("iters", Json::Int(f.iters as i64)),
                        (
                            "estimate",
                            f.estimate.map(Json::Float).unwrap_or(Json::Null),
                        ),
                        ("skipped", Json::Bool(f.skipped)),
                    ])
                })
                .collect();
            Json::obj([
                ("cell", Json::str(r.cell)),
                ("query", Json::str(r.query)),
                ("eps", Json::Float(r.eps)),
                ("n_eval", Json::Int(r.n_eval as i64)),
                ("chosen", Json::str(r.chosen)),
                ("auto_cost", Json::Float(r.auto_cost)),
                ("auto_median_ns", Json::Int(r.auto_median_ns as i64)),
                ("auto_iters", Json::Int(r.auto_iters as i64)),
                ("auto_estimate", Json::Float(r.auto_estimate)),
                (
                    "choice_fingerprint",
                    Json::str(format!("{:016x}", r.choice_fingerprint)),
                ),
                ("forced", Json::Array(forced)),
            ])
        })
        .collect();
    let saturation = report
        .saturation
        .iter()
        .map(|r| {
            Json::obj([
                ("scheduler", Json::str(r.scheduler)),
                ("threads", Json::Int(r.threads as i64)),
                ("parallelism", Json::Int(r.parallelism as i64)),
                ("requests", Json::Int(r.requests as i64)),
                ("heavy", Json::Int(r.heavy as i64)),
                ("light", Json::Int(r.light as i64)),
                ("wall_ns", Json::Int(r.wall_ns as i64)),
                ("qps", Json::Float(r.qps)),
                ("steals", Json::Int(r.steals as i64)),
                ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::str("infpdb-bench/4")),
        ("date", Json::str(report.date.clone())),
        // the lineage implementation the rows measure
        ("impl", Json::str("arena")),
        ("smoke", Json::Bool(report.smoke)),
        ("rows", Json::Array(rows)),
        ("saturation", Json::Array(saturation)),
        ("planner", Json::Array(planner)),
    ])
    .encode_pretty()
}

/// A human-readable summary table (what `infpdb bench` prints).
pub fn summary_table(report: &BenchReport) -> String {
    let mut out = String::new();
    writeln!(out, "smoke={} date={}", report.smoke, report.date).ok();
    writeln!(
        out,
        "{:<10} {:<7} {:<8} {:>7} {:>3} {:>6} {:>6} {:>14} {:>9} {:>7}",
        "workload", "query", "stage", "eps", "thr", "n", "iters", "median_ns", "hit_rate", "nodes"
    )
    .ok();
    for r in &report.rows {
        let rate = r
            .memo_hit_rate
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".into());
        let nodes = r
            .arena_nodes
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{:<10} {:<7} {:<8} {:>7} {:>3} {:>6} {:>6} {:>14} {:>9} {:>7}",
            r.workload, r.query, r.stage, r.eps, r.threads, r.n, r.iters, r.median_ns, rate, nodes
        )
        .ok();
    }
    if !report.saturation.is_empty() {
        writeln!(
            out,
            "\n{:<10} {:>3} {:>4} {:>5} {:>12} {:>10} {:>7}  fingerprint",
            "scheduler", "thr", "par", "reqs", "wall_ns", "qps", "steals"
        )
        .ok();
        for r in &report.saturation {
            writeln!(
                out,
                "{:<10} {:>3} {:>4} {:>5} {:>12} {:>10.1} {:>7}  {:016x}",
                r.scheduler,
                r.threads,
                r.parallelism,
                r.requests,
                r.wall_ns,
                r.qps,
                r.steals,
                r.fingerprint
            )
            .ok();
        }
    }
    if !report.planner.is_empty() {
        writeln!(
            out,
            "\n{:<13} {:>5} {:>6} {:<7} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "cell",
            "eps",
            "n_eval",
            "chosen",
            "auto_ns",
            "lifted_ns",
            "shannon_ns",
            "mc_ns",
            "kl_ns"
        )
        .ok();
        for r in &report.planner {
            let forced_ns = |name: &str| -> String {
                match r.forced.iter().find(|f| f.strategy == name) {
                    Some(f) if f.skipped => "skip".into(),
                    Some(f) => f
                        .median_ns
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".into()),
                    None => "-".into(),
                }
            };
            writeln!(
                out,
                "{:<13} {:>5} {:>6} {:<7} {:>12} {:>12} {:>12} {:>12} {:>12}",
                r.cell,
                r.eps,
                r.n_eval,
                r.chosen,
                r.auto_median_ns,
                forced_ns("lifted"),
                forced_ns("shannon"),
                forced_ns("mc"),
                forced_ns("kl"),
            )
            .ok();
        }
    }
    out
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no chrono
/// in the offline workspace).
pub fn iso_date_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch → proleptic Gregorian calendar date (the standard
/// `civil_from_days` construction).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(19_723 + 59), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    /// A tiny run covers the full matrix shape, and every cell's
    /// estimate is bit-for-bit the tree reference engine's on the same
    /// prefix (the deep equivalence guarantees live in
    /// `infpdb-finite`'s property tests).
    #[test]
    fn smoke_run_produces_full_matrix_and_engines_agree() {
        let config = BenchConfig {
            eps: vec![1e-2],
            repeats: 1,
            ..BenchConfig::new(true)
        };
        let arena = run(&config).unwrap();
        // 4 workloads × 1 ε × 4 stages
        assert_eq!(arena.rows.len(), 16);
        assert!(arena.rows.iter().any(|r| r.stage == "prepared"));
        assert!(arena.rows.iter().any(|r| r.workload == "blocks"));
        assert!(arena.rows.iter().all(|r| r.median_ns > 0));
        for (w, row) in workloads().iter().zip(arena.rows.chunks(4)) {
            let query = parse(w.query_text, w.pdb.schema()).unwrap();
            let plan = TruncationPlan::new(&w.pdb, 1e-2).unwrap();
            let tree = infpdb_finite::lineage::lineage_of(&query, &plan.table).unwrap();
            let reference = shannon::probability(&tree, &|id| plan.table.prob(id));
            for r in row {
                assert_eq!(
                    (r.workload, r.query, r.n),
                    (w.pdb_name, w.query_name, plan.n())
                );
                assert_eq!(r.estimate.to_bits(), reference.to_bits(), "{r:?}");
            }
        }
        // a parallel run reproduces every estimate bit-for-bit
        let par = run(&BenchConfig {
            threads: 4,
            ..config
        })
        .unwrap();
        for (s, p) in arena.rows.iter().zip(&par.rows) {
            assert_eq!(
                s.estimate.to_bits(),
                p.estimate.to_bits(),
                "{:?}",
                (s.workload, s.query, s.stage)
            );
            assert_eq!(p.threads, 4);
        }
        // every row reports its node count
        assert!(arena.rows.iter().all(|r| r.arena_nodes.is_some()));
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let report = BenchReport {
            smoke: true,
            date: "2026-08-06".into(),
            saturation: vec![SaturationRow {
                scheduler: "stealing",
                threads: 2,
                parallelism: 4,
                requests: 12,
                heavy: 4,
                light: 8,
                wall_ns: 1_000_000,
                qps: 12_000.0,
                steals: 3,
                fingerprint: 0xDEAD_BEEF_0000_0001,
            }],
            rows: vec![BenchRow {
                workload: "geometric",
                query: "pair",
                stage: "shannon",
                eps: 1e-4,
                threads: 2,
                n: 14,
                iters: 7,
                median_ns: 12_345,
                estimate: 0.25,
                memo_hit_rate: Some(0.5),
                arena_nodes: Some(321),
            }],
            planner: vec![crate::planner::PlannerRow {
                cell: "padded-dnf",
                query: "exists x, y. R(x) /\\ S(x,y) /\\ T(y)",
                eps: 0.45,
                n_eval: 20_857,
                chosen: "kl",
                auto_cost: 325_888.0,
                auto_median_ns: 1_234_567,
                auto_iters: 1,
                auto_estimate: 0.875,
                choice_fingerprint: 0x0123_4567_89AB_CDEF,
                forced: vec![
                    crate::planner::ForcedRun {
                        strategy: "lifted",
                        cost: None,
                        median_ns: None,
                        iters: 0,
                        estimate: None,
                        skipped: false,
                    },
                    crate::planner::ForcedRun {
                        strategy: "mc",
                        cost: Some(5.0e9),
                        median_ns: None,
                        iters: 0,
                        estimate: None,
                        skipped: true,
                    },
                ],
            }],
        };
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"infpdb-bench/4\""));
        assert!(json.contains("\"impl\": \"arena\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"median_ns\": 12345"));
        assert!(json.contains("\"memo_hit_rate\": 0.5"));
        // the artifact is real JSON: it parses with the shared decoder
        // and round-trips every field
        let doc = Json::parse(&json).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("infpdb-bench/4"));
        let planner = doc.get("planner").unwrap().as_array().unwrap();
        assert_eq!(planner.len(), 1);
        assert_eq!(planner[0].get("chosen").unwrap().as_str(), Some("kl"));
        assert_eq!(
            planner[0].get("choice_fingerprint").unwrap().as_str(),
            Some("0123456789abcdef")
        );
        let forced = planner[0].get("forced").unwrap().as_array().unwrap();
        assert_eq!(forced[0].get("cost"), Some(&Json::Null));
        assert_eq!(forced[1].get("skipped").unwrap().as_bool(), Some(true));
        assert_eq!(forced[1].get("median_ns"), Some(&Json::Null));
        let sat = doc.get("saturation").unwrap().as_array().unwrap();
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].get("scheduler").unwrap().as_str(), Some("stealing"));
        assert_eq!(sat[0].get("qps").unwrap().as_f64(), Some(12_000.0));
        assert_eq!(
            sat[0].get("fingerprint").unwrap().as_str(),
            Some("deadbeef00000001")
        );
        assert_eq!(doc.get("smoke").unwrap().as_bool(), Some(true));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("eps").unwrap().as_f64(), Some(1e-4));
        assert_eq!(rows[0].get("estimate").unwrap().as_f64(), Some(0.25));
        assert_eq!(rows[0].get("arena_nodes").unwrap().as_i64(), Some(321));
        // absent statistics are null
        let bare = BenchReport {
            rows: vec![BenchRow {
                memo_hit_rate: None,
                arena_nodes: None,
                ..report.rows[0].clone()
            }],
            ..report
        };
        let doc = Json::parse(&to_json(&bare)).unwrap();
        let row = &doc.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("memo_hit_rate"), Some(&Json::Null));
        assert_eq!(row.get("arena_nodes"), Some(&Json::Null));
    }
}
