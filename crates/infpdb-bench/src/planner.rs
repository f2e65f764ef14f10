//! Cost-based planner (crossover) stage of `infpdb bench`.
//!
//! Where `harness` times the raw evaluation pipeline, this stage checks
//! the *optimizer*: four workload cells, each sitting on a different
//! side of the cost crossover, so `Engine::Auto` must route them to
//! four different strategies —
//!
//! * `safe-exists` — a safe unary query at tight ε: lifted inference
//!   beats everything;
//! * `dense-pair` — the memo-heavy pair query whose C(n,2)-clause
//!   lineage the Shannon DAG collapses, while sampling would need
//!   millions of draws at ε = 1e-3;
//! * `padded-dnf` — an irregular bipartite H1 instance over a PDB
//!   padded tens of thousands of facts deep, asked at loose ε: the
//!   Shannon trial blows its budget, world-sampling Monte-Carlo pays
//!   for every padding fact per draw, and Karp–Luby touches only the
//!   84-clause DNF;
//! * `negated-grid` — the same shape with a negated atom, which takes
//!   Karp–Luby off the table (no monotone DNF) and leaves Monte-Carlo
//!   as the only cheap estimator.
//!
//! For every cell the stage times the Auto plan *and* each strategy
//! forced across the whole query (same sample counts and seeds the
//! optimizer would assign, via [`PlanProfile::plan`]), so the
//! checked-in artifact shows Auto matching the fastest forced strategy
//! in every cell. A forced plan whose estimated cost exceeds
//! [`SKIP_FACTOR`] × the Auto plan's is recorded with its estimate but
//! not executed (`median_ns: null`, `skipped: true`) — the artifact
//! says so rather than silently dropping the cell.

use std::hint::black_box;

use infpdb_finite::plan::{evaluate_plan, ChosenPlan};
use infpdb_logic::compile::CompiledQuery;
use infpdb_logic::parse;
use infpdb_query::planner::{self, Engine, PlanKnobs, PlanProfile, StrategyKind};
use infpdb_query::truncate::TruncationPlan;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::fingerprint::countable_pdb_fingerprint;

use crate::harness::{run_timed, IterPolicy};
use crate::{geometric_pdb, grid_pdb, padded_sparse_grid_pdb};

/// A forced plan costing more than this many times the Auto plan is
/// recorded but not executed.
pub const SKIP_FACTOR: f64 = 1024.0;

/// The stage's planner knobs: defaults except `sampling_fraction`,
/// raised so the loose-ε cells grant their samplers a budget worth
/// sampling under (the knobs fingerprint rides along in the artifact's
/// provenance via the plan choice fingerprints).
pub fn stage_knobs() -> PlanKnobs {
    PlanKnobs {
        sampling_fraction: 0.8,
        ..PlanKnobs::default()
    }
}

/// Planner-stage configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Smoke mode: one iteration per measurement, no warmup.
    pub smoke: bool,
}

/// One strategy forced across every component of a cell's query.
#[derive(Debug, Clone)]
pub struct ForcedRun {
    /// `"lifted"`, `"shannon"`, `"mc"`, or `"kl"`.
    pub strategy: &'static str,
    /// Total estimated cost of the forced plan; `None` when some
    /// component is ineligible for the strategy.
    pub cost: Option<f64>,
    /// Median wall-clock ns; `None` when ineligible or skipped.
    pub median_ns: Option<u64>,
    /// Timed iterations behind the median (0 when not executed).
    pub iters: usize,
    /// The probability the forced plan computes.
    pub estimate: Option<f64>,
    /// The plan was eligible but cost-capped out of execution.
    pub skipped: bool,
}

/// One crossover cell: the Auto plan's choice and timing, plus every
/// forced-strategy baseline.
#[derive(Debug, Clone)]
pub struct PlannerRow {
    /// Cell name (`"safe-exists"`, `"dense-pair"`, `"padded-dnf"`,
    /// `"negated-grid"`).
    pub cell: &'static str,
    /// The query text.
    pub query: &'static str,
    /// Tolerance the cell is asked at.
    pub eps: f64,
    /// Evaluation-prefix length `n(ε)`.
    pub n_eval: usize,
    /// The Auto plan's strategy label (`PlanSummary::label`).
    pub chosen: &'static str,
    /// The Auto plan's total estimated cost.
    pub auto_cost: f64,
    /// Median wall-clock ns of the Auto plan.
    pub auto_median_ns: u64,
    /// Timed iterations behind the Auto median.
    pub auto_iters: usize,
    /// The probability the Auto plan computes.
    pub auto_estimate: f64,
    /// [`ChosenPlan::choice_fingerprint`] of the Auto plan — what the
    /// CI cross-process determinism check compares.
    pub choice_fingerprint: u64,
    /// Forced baselines, always in lifted/shannon/mc/kl order.
    pub forced: Vec<ForcedRun>,
}

struct Cell {
    name: &'static str,
    query: &'static str,
    eps: f64,
    pdb: CountableTiPdb,
}

fn cells() -> Vec<Cell> {
    vec![
        Cell {
            name: "safe-exists",
            query: "exists x. R(x)",
            eps: 1e-3,
            pdb: geometric_pdb(),
        },
        Cell {
            name: "dense-pair",
            query: "exists x, y. R(x) /\\ R(y) /\\ x != y",
            eps: 1e-3,
            pdb: geometric_pdb(),
        },
        Cell {
            name: "padded-dnf",
            query: "exists x, y. R(x) /\\ S(x,y) /\\ T(y)",
            eps: 0.45,
            pdb: padded_sparse_grid_pdb(14, 6, 0xb5, 40),
        },
        Cell {
            name: "negated-grid",
            query: "exists x, y. R(x) /\\ S(x,y) /\\ !T(y)",
            eps: 0.45,
            pdb: grid_pdb(8),
        },
    ]
}

fn total_cost(plan: &ChosenPlan) -> f64 {
    plan.components.iter().map(|c| c.cost).sum()
}

/// Times `plan` end to end (grounding + evaluation inside the timer; the
/// truncation prefix at the plan's own `eps_trunc` is materialized once
/// outside it). Returns `(median_ns, iters, estimate)`.
fn measure_plan(
    pdb: &CountableTiPdb,
    compiled: &CompiledQuery,
    plan: &ChosenPlan,
    policy: IterPolicy,
) -> Result<(u64, usize, f64), String> {
    let trunc = TruncationPlan::new(pdb, plan.eps_trunc).map_err(|e| e.to_string())?;
    let table = &trunc.table;
    let eval = || -> Result<f64, String> {
        evaluate_plan(compiled, plan, table, 1, None)
            .map_err(|e| e.to_string())?
            .map(|(p, _)| p)
            .ok_or_else(|| "uncancellable run cancelled".into())
    };
    let estimate = eval()?;
    let (median_ns, iters) = run_timed(
        policy,
        || (),
        |()| {
            black_box(eval().expect("probed"));
        },
    );
    Ok((median_ns, iters, estimate))
}

/// Runs the four crossover cells: profiles once per cell, times the
/// Auto plan, then every eligible forced-strategy plan under the cost
/// cap.
pub fn run(config: &PlannerConfig) -> Result<Vec<PlannerRow>, String> {
    let knobs = stage_knobs();
    let policy = IterPolicy::for_smoke(config.smoke);
    let mut rows = Vec::new();
    for cell in cells() {
        let query = parse(cell.query, cell.pdb.schema()).map_err(|e| e.to_string())?;
        let compiled = CompiledQuery::compile(cell.pdb.schema(), &query);
        let prefix =
            TruncationPlan::new(&cell.pdb, knobs.profile_eps).map_err(|e| e.to_string())?;
        let fp = countable_pdb_fingerprint(&cell.pdb);
        let profile =
            PlanProfile::build(&compiled, &prefix.table, fp, &knobs).map_err(|e| e.to_string())?;
        let n_eval = planner::eval_prefix_len(&cell.pdb, cell.eps).map_err(|e| e.to_string())?;
        let auto = profile
            .plan(Engine::Auto, cell.eps, n_eval, &knobs)
            .expect("Auto always finds a plan");
        let auto_cost = total_cost(&auto);

        let mut forced = Vec::with_capacity(4);
        for kind in [
            StrategyKind::Lifted,
            StrategyKind::Shannon,
            StrategyKind::MonteCarlo,
            StrategyKind::KarpLuby,
        ] {
            let run = match profile.plan(Engine::Force(kind), cell.eps, n_eval, &knobs) {
                None => ForcedRun {
                    strategy: kind.name(),
                    cost: None,
                    median_ns: None,
                    iters: 0,
                    estimate: None,
                    skipped: false,
                },
                Some(plan) => {
                    let cost = total_cost(&plan);
                    if cost > SKIP_FACTOR * auto_cost {
                        ForcedRun {
                            strategy: kind.name(),
                            cost: Some(cost),
                            median_ns: None,
                            iters: 0,
                            estimate: None,
                            skipped: true,
                        }
                    } else {
                        let (ns, iters, estimate) =
                            measure_plan(&cell.pdb, &compiled, &plan, policy)?;
                        ForcedRun {
                            strategy: kind.name(),
                            cost: Some(cost),
                            median_ns: Some(ns),
                            iters,
                            estimate: Some(estimate),
                            skipped: false,
                        }
                    }
                }
            };
            forced.push(run);
        }
        // the Auto plan is timed last, adjacent to its forced twin, so
        // the two medians see the same cache/allocator state and their
        // comparison is apples to apples
        let (auto_median_ns, auto_iters, auto_estimate) =
            measure_plan(&cell.pdb, &compiled, &auto, policy)?;
        rows.push(PlannerRow {
            cell: cell.name,
            query: cell.query,
            eps: cell.eps,
            n_eval,
            chosen: auto.summary().label(),
            auto_cost,
            auto_median_ns,
            auto_iters,
            auto_estimate,
            choice_fingerprint: auto.choice_fingerprint(),
            forced,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crossover is the stage's reason to exist: each cell must
    /// route to its own strategy, deterministically — a re-run
    /// reproduces every choice fingerprint and every answer bit.
    #[test]
    fn smoke_stage_covers_the_crossover_and_is_deterministic() {
        let rows = run(&PlannerConfig { smoke: true }).unwrap();
        assert_eq!(rows.len(), 4);
        let by_cell: Vec<(&str, &str)> = rows.iter().map(|r| (r.cell, r.chosen)).collect();
        assert_eq!(
            by_cell,
            vec![
                ("safe-exists", "lifted"),
                ("dense-pair", "shannon"),
                ("padded-dnf", "kl"),
                ("negated-grid", "mc"),
            ]
        );
        for r in &rows {
            assert!(r.auto_median_ns > 0, "{}: unmeasured auto plan", r.cell);
            assert_eq!(r.forced.len(), 4);
            // the auto plan IS the forced twin of its chosen strategy:
            // same cost, same answer bits (same seeds)
            let twin = r
                .forced
                .iter()
                .find(|f| f.strategy == r.chosen)
                .expect("chosen strategy appears among the forced runs");
            assert_eq!(twin.cost, Some(r.auto_cost), "{}", r.cell);
            assert!(
                !twin.skipped,
                "{}: chosen strategy can never be capped",
                r.cell
            );
            assert_eq!(
                twin.estimate.map(f64::to_bits),
                Some(r.auto_estimate.to_bits()),
                "{}",
                r.cell
            );
            // eligibility is recorded, not silently dropped: every
            // forced entry either has a cost or is marked ineligible
            for f in &r.forced {
                assert_eq!(f.median_ns.is_some(), f.cost.is_some() && !f.skipped);
            }
        }
        // Karp–Luby must be ineligible (no monotone DNF) on the negated
        // cell, and lifted on both unsafe grid cells
        let negated = &rows[3];
        assert!(negated
            .forced
            .iter()
            .any(|f| f.strategy == "kl" && f.cost.is_none()));
        assert!(rows[2]
            .forced
            .iter()
            .any(|f| f.strategy == "lifted" && f.cost.is_none()));

        let again = run(&PlannerConfig { smoke: true }).unwrap();
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.choice_fingerprint, b.choice_fingerprint, "{}", a.cell);
            assert_eq!(a.chosen, b.chosen, "{}", a.cell);
            assert_eq!(
                a.auto_estimate.to_bits(),
                b.auto_estimate.to_bits(),
                "{}",
                a.cell
            );
        }
    }
}
