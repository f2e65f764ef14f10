//! Chosen evaluation plans: per-component strategy assignments and their
//! execution.
//!
//! The cost-based optimizer (`infpdb_query::planner`) decides, for every
//! relation-disjoint component of a compiled query, which of the crate's
//! engines evaluates it: extensional lifted inference, the exact
//! hash-consed Shannon DAG, deterministic Monte-Carlo sampling, or the
//! Karp–Luby DNF estimator. This module holds the *decision artifact*
//! ([`ChosenPlan`]) and the executor ([`evaluate_plan`]) — the cost model
//! itself lives upstream, so the finite layer stays policy-free.
//!
//! Determinism contract: given the same plan and table, [`evaluate_plan`]
//! is bit-for-bit reproducible at every `parallelism` value and under
//! every [`shannon::TaskExecutor`] — the exact engines already guarantee
//! this, and both samplers derive their RNG streams from the plan's
//! per-component seeds in fixed-size chunks.

use crate::arena::{LineageArena, LineageId};
use crate::engine::{shannon_traced, EvalTrace};
use crate::lineage::{lineage_in, GroundingDomain};
use crate::{karp_luby, lifted, monte_carlo, shannon, FiniteError, TiTable};
use infpdb_logic::compile::{CompiledQuery, Connective};
use infpdb_logic::LogicError;

/// The evaluation strategy assigned to one query component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Extensional safe-plan evaluation (requires the component to be a
    /// hierarchical self-join-free CQ).
    Lifted,
    /// Exact intensional evaluation: lineage + Shannon DAG.
    Shannon,
    /// Deterministic chunk-seeded Monte-Carlo with a Hoeffding sample
    /// count for the component's additive error budget.
    MonteCarlo {
        /// Samples to draw.
        samples: usize,
    },
    /// Karp–Luby DNF coverage estimation (requires monotone lineage).
    KarpLuby {
        /// Samples to draw.
        samples: usize,
        /// Clause cap for the DNF conversion; exceeding it at evaluation
        /// time falls back deterministically to Shannon.
        max_clauses: usize,
    },
}

impl Strategy {
    /// Short stable name, used in metrics labels and `--explain` output.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Lifted => "lifted",
            Strategy::Shannon => "shannon",
            Strategy::MonteCarlo { .. } => "mc",
            Strategy::KarpLuby { .. } => "kl",
        }
    }

    /// Stable discriminant for fingerprinting.
    pub fn tag(&self) -> u8 {
        match self {
            Strategy::Lifted => 0,
            Strategy::Shannon => 1,
            Strategy::MonteCarlo { .. } => 2,
            Strategy::KarpLuby { .. } => 3,
        }
    }

    /// Whether the strategy is a sampling estimator.
    pub fn is_sampling(&self) -> bool {
        matches!(
            self,
            Strategy::MonteCarlo { .. } | Strategy::KarpLuby { .. }
        )
    }
}

/// One component's strategy assignment with its cost estimate and
/// deterministic sampling seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentPlan {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// The planner's cost estimate (abstract work units) for the choice.
    pub cost: f64,
    /// Seed for the component's sampler (unused by exact strategies);
    /// derived from (knobs seed, PDB fingerprint, query fingerprint, ε,
    /// component index) so it never depends on runtime state.
    pub seed: u64,
}

/// A complete plan for a compiled query: one [`ComponentPlan`] per
/// relation-disjoint component, plus the tolerances the plan certifies.
#[derive(Debug, Clone, PartialEq)]
pub struct ChosenPlan {
    /// How component probabilities combine (mirrors the compiled query).
    pub connective: Connective,
    /// Per-component strategy assignments, in component order.
    pub components: Vec<ComponentPlan>,
    /// The requested tolerance this plan was chosen for.
    pub eps: f64,
    /// The truncation tolerance: equal to `eps` for fully exact plans,
    /// tightened to `eps · (1 − sampling_fraction)` when any component
    /// samples (the remainder of the budget pays for sampling error).
    pub eps_trunc: f64,
}

impl ChosenPlan {
    /// The plan that needs no profile: lifted inference on every
    /// component with a safe plan, Shannon on the rest. It is chosen for
    /// no tolerance and samples nothing, so its costs, seeds and ε are 0.
    pub fn exact(compiled: &CompiledQuery) -> Self {
        let components = compiled.components().iter().map(|c| ComponentPlan {
            strategy: if c.is_safe() {
                Strategy::Lifted
            } else {
                Strategy::Shannon
            },
            cost: 0.0,
            seed: 0,
        });
        ChosenPlan {
            connective: compiled.connective(),
            components: components.collect(),
            eps: 0.0,
            eps_trunc: 0.0,
        }
    }

    /// Compact counters for the trace: how many components ran each
    /// strategy, and the total cost estimate.
    pub fn summary(&self) -> PlanSummary {
        let mut s = PlanSummary::default();
        let mut cost = 0.0;
        for c in &self.components {
            match c.strategy {
                Strategy::Lifted => s.lifted += 1,
                Strategy::Shannon => s.shannon += 1,
                Strategy::MonteCarlo { .. } => s.monte_carlo += 1,
                Strategy::KarpLuby { .. } => s.karp_luby += 1,
            }
            cost += c.cost;
        }
        s.cost_bits = cost.to_bits();
        s
    }

    /// Whether any component uses a sampling estimator.
    pub fn has_sampling(&self) -> bool {
        self.components.iter().any(|c| c.strategy.is_sampling())
    }

    /// A stable digest of the *choices* (strategy tags, sample counts,
    /// seeds, truncation ε) — what the CI cross-process determinism check
    /// compares, and what re-plan detection keys on.
    pub fn choice_fingerprint(&self) -> u64 {
        let mut fp = infpdb_core::fingerprint::Fingerprinter::new();
        fp.write_u64(self.components.len() as u64);
        for c in &self.components {
            fp.write_u64(u64::from(c.strategy.tag()));
            match c.strategy {
                Strategy::MonteCarlo { samples } => {
                    fp.write_u64(samples as u64);
                }
                Strategy::KarpLuby {
                    samples,
                    max_clauses,
                } => {
                    fp.write_u64(samples as u64).write_u64(max_clauses as u64);
                }
                _ => {}
            }
            fp.write_u64(c.seed);
        }
        fp.write_u64(self.eps_trunc.to_bits());
        fp.finish()
    }

    /// The strategy-tag vector alone (no seeds, no sample counts): two
    /// plans with the same vector are "the same choice" for re-plan
    /// accounting — an ε change that only rescales sample counts is not a
    /// re-plan.
    pub fn strategy_vector(&self) -> Vec<u8> {
        self.components.iter().map(|c| c.strategy.tag()).collect()
    }
}

/// Per-strategy component counts plus the plan's total cost estimate —
/// the [`EvalTrace`]-embeddable summary of a [`ChosenPlan`] (integers
/// only, so the trace stays `Copy + Eq`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Components evaluated by lifted inference.
    pub lifted: u32,
    /// Components evaluated by the Shannon DAG.
    pub shannon: u32,
    /// Components estimated by Monte-Carlo.
    pub monte_carlo: u32,
    /// Components estimated by Karp–Luby.
    pub karp_luby: u32,
    /// Bit pattern of the plan's total estimated cost (f64 work units).
    pub cost_bits: u64,
}

impl PlanSummary {
    /// The dominant strategy label for single-label consumers (the
    /// `/query` envelope): the unique strategy when all components agree,
    /// `"mixed"` otherwise.
    pub fn label(&self) -> &'static str {
        let kinds = [
            (self.lifted, "lifted"),
            (self.shannon, "shannon"),
            (self.monte_carlo, "mc"),
            (self.karp_luby, "kl"),
        ];
        let mut used = kinds.iter().filter(|(n, _)| *n > 0);
        match (used.next(), used.next()) {
            (Some((_, name)), None) => name,
            (Some(_), Some(_)) => "mixed",
            _ => "none",
        }
    }
}

/// Evaluates a compiled query under a [`ChosenPlan`]: each component by
/// its assigned strategy, combined in canonical component order by the
/// compiled connective. With `parallelism ≥ 2`, work forks onto `exec`
/// (a fork-join [`shannon::ScopedExecutor`] when `None`): the heavy
/// independent parts of all Shannon components fork as one batch of
/// tasks (a component that does not split is one part), and samplers
/// fork their chunk stripes. Returns `Ok(None)` when the executor
/// skipped tasks (cancellation). Every component grounds over
/// `adom(table) ∪ adom(Q)` of the whole compiled query (Fact 2.1, as
/// [`crate::lineage::lineage_of_component`]), so splitting a query into
/// components moves no domain-dependent answer.
///
/// The returned trace reports what actually ran: merged Shannon/arena
/// counters over the exact components, and `plan` set to the summary of
/// the *executed* strategies (a Karp–Luby component whose lineage
/// overflowed the clause cap executes as Shannon and is counted as such).
pub fn evaluate_plan(
    compiled: &CompiledQuery,
    plan: &ChosenPlan,
    table: &TiTable,
    parallelism: usize,
    exec: Option<&dyn shannon::TaskExecutor>,
) -> Result<Option<(f64, EvalTrace)>, FiniteError> {
    let components = compiled.components();
    assert_eq!(
        components.len(),
        plan.components.len(),
        "plan must match the compiled query's component list"
    );
    // every component grounds over the whole query's domain, built at
    // most once
    let domain = GroundingDomain::new(table, compiled.normalized());
    let ground = |i: usize| -> Result<(LineageArena, LineageId), FiniteError> {
        let mut arena = LineageArena::new();
        let root = lineage_in(components[i].formula(), table, &domain, &mut arena)?;
        Ok((arena, root))
    };
    shannon::ScopedExecutor::or_default(exec, parallelism, |exec| {
        let mut executed = plan.clone();
        let mut trace = EvalTrace::default();
        // at parallelism ≥ 2 the Shannon components are evaluated
        // together up front, so their heavy parts fork as one batch
        let shannon: Vec<usize> = (0..components.len())
            .filter(|&i| parallelism >= 2 && plan.components[i].strategy == Strategy::Shannon)
            .collect();
        let mut forked = vec![None; components.len()];
        if !shannon.is_empty() {
            let grounded = shannon
                .iter()
                .map(|&i| ground(i))
                .collect::<Result<_, _>>()?;
            let Some(ps) = shannon_traced(grounded, table, parallelism, exec, &mut trace) else {
                return Ok(None);
            };
            for (&i, p) in shannon.iter().zip(ps) {
                forked[i] = Some(p);
            }
        }
        let mut acc = 1.0f64;
        let mut single = 0.0f64;
        for (i, (comp, cplan)) in components.iter().zip(&plan.components).enumerate() {
            let p = match cplan.strategy {
                _ if forked[i].is_some() => forked[i],
                // the safe plan compilation derived for the component
                Strategy::Lifted => match comp.safe_plan() {
                    Some(safe) => Some(lifted::eval_reached(safe, table, &domain)),
                    None => {
                        return Err(FiniteError::Logic(LogicError::UnsupportedFragment(
                            "lifted inference needs a component with a safe plan".into(),
                        )))
                    }
                },
                Strategy::Shannon => {
                    shannon_traced(vec![ground(i)?], table, parallelism, exec, &mut trace)
                        .map(|ps| ps[0])
                }
                Strategy::MonteCarlo { samples } => {
                    let (arena, root) = ground(i)?;
                    monte_carlo::estimate_lineage(
                        &arena,
                        root,
                        table,
                        samples,
                        cplan.seed,
                        parallelism,
                        exec,
                    )
                    .map(|e| e.estimate)
                }
                Strategy::KarpLuby {
                    samples,
                    max_clauses,
                } => {
                    let (arena, root) = ground(i)?;
                    match karp_luby::to_dnf_arena(&arena, root, max_clauses) {
                        Some(dnf) => karp_luby::estimate_dnf_parallel(
                            &dnf,
                            table,
                            samples,
                            cplan.seed,
                            parallelism,
                            exec,
                        )
                        .map(|e| e.estimate),
                        // deterministic fallback: the eval-table lineage
                        // outgrew the clause cap the profile predicted under
                        None => {
                            executed.components[i].strategy = Strategy::Shannon;
                            shannon_traced(vec![ground(i)?], table, parallelism, exec, &mut trace)
                                .map(|ps| ps[0])
                        }
                    }
                }
            };
            let Some(p) = p else {
                return Ok(None);
            };
            match plan.connective {
                Connective::Single => single = p,
                Connective::And => acc *= p,
                Connective::Or => acc *= 1.0 - p,
            }
        }
        let estimate = match plan.connective {
            Connective::Single => single,
            Connective::And => acc,
            Connective::Or => 1.0 - acc,
        };
        trace.plan = Some(executed.summary());
        Ok(Some((estimate, trace)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::prob_boolean_brute;
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{Relation, Schema};
    use infpdb_logic::parse;
    use std::sync::Mutex;

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
                (Fact::new(r, [infpdb_core::value::Value::int(1)]), 0.5),
                (Fact::new(r, [infpdb_core::value::Value::int(2)]), 0.4),
                (
                    Fact::new(
                        s2,
                        [
                            infpdb_core::value::Value::int(1),
                            infpdb_core::value::Value::int(2),
                        ],
                    ),
                    0.3,
                ),
                (Fact::new(t2, [infpdb_core::value::Value::int(2)]), 0.7),
            ],
        )
        .unwrap()
    }

    fn all_shannon(compiled: &CompiledQuery) -> ChosenPlan {
        let mut plan = ChosenPlan::exact(compiled);
        for c in &mut plan.components {
            c.strategy = Strategy::Shannon;
        }
        plan
    }

    #[test]
    fn mixed_exact_plan_matches_monolithic_evaluation() {
        let t = table();
        let q = parse("(exists x. R(x)) /\\ (exists y. T(y))", t.schema()).unwrap();
        let compiled = CompiledQuery::compile(t.schema(), &q);
        assert_eq!(compiled.components().len(), 2);
        let brute = prob_boolean_brute(&q, &t).unwrap();
        // lifted on safe components
        let plan = ChosenPlan::exact(&compiled);
        let (p, trace) = evaluate_plan(&compiled, &plan, &t, 1, None)
            .unwrap()
            .unwrap();
        assert!((p - brute).abs() < 1e-12, "{p} vs {brute}");
        let summary = trace.plan.expect("plan summary filled");
        assert_eq!(summary.lifted, 2);
        // all-Shannon agrees too
        let plan2 = all_shannon(&compiled);
        let (p2, trace2) = evaluate_plan(&compiled, &plan2, &t, 1, None)
            .unwrap()
            .unwrap();
        assert!((p2 - brute).abs() < 1e-12);
        assert_eq!(trace2.plan.unwrap().shannon, 2);
        assert!(trace2.shannon.is_some() && trace2.arena.is_some());
    }

    #[test]
    fn components_ground_over_the_whole_querys_domain() {
        let t = table();
        // `7` is outside adom(table) and appears only in the second
        // component: it witnesses `∃x ¬R(x)` and refutes `∀x R(x)`, as in
        // the world semantics, only if the first component grounds over
        // the whole query's constants
        for (qs, expected) in [
            ("(exists x. !R(x)) /\\ !T(7)", 1.0),
            ("(forall x. R(x)) \\/ T(7)", 0.0),
        ] {
            let q = parse(qs, t.schema()).unwrap();
            let compiled = CompiledQuery::compile(t.schema(), &q);
            assert_eq!(compiled.components().len(), 2, "{qs}");
            assert_eq!(prob_boolean_brute(&q, &t).unwrap(), expected, "{qs}");
            let mut sampled = all_shannon(&compiled);
            for c in &mut sampled.components {
                c.strategy = Strategy::MonteCarlo { samples: 1000 };
            }
            for plan in [all_shannon(&compiled), sampled] {
                for threads in [1, 2] {
                    let (p, _) = evaluate_plan(&compiled, &plan, &t, threads, None)
                        .unwrap()
                        .unwrap();
                    assert_eq!(p, expected, "{qs} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn sampling_strategies_land_within_tolerance_and_are_thread_invariant() {
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let compiled = CompiledQuery::compile(t.schema(), &q);
        let brute = prob_boolean_brute(&q, &t).unwrap();
        for strategy in [
            Strategy::MonteCarlo { samples: 200_000 },
            Strategy::KarpLuby {
                samples: 100_000,
                max_clauses: 1024,
            },
        ] {
            let plan = ChosenPlan {
                connective: compiled.connective(),
                components: vec![ComponentPlan {
                    strategy,
                    cost: 1.0,
                    seed: 7,
                }],
                eps: 0.05,
                eps_trunc: 0.025,
            };
            let (p1, tr1) = evaluate_plan(&compiled, &plan, &t, 1, None)
                .unwrap()
                .unwrap();
            assert!(
                (p1 - brute).abs() < 0.01,
                "{} off: {p1} vs {brute}",
                strategy.name()
            );
            for threads in [2, 4] {
                let (pn, trn) = evaluate_plan(&compiled, &plan, &t, threads, None)
                    .unwrap()
                    .unwrap();
                assert_eq!(p1.to_bits(), pn.to_bits(), "thread-invariance");
                assert_eq!(tr1, trn);
            }
        }
    }

    /// Runs every task inline, recording each batch's size.
    #[derive(Default)]
    struct BatchExecutor(Mutex<Vec<usize>>);

    impl shannon::TaskExecutor for BatchExecutor {
        fn run_tasks(&self, tasks: Vec<shannon::ParTask>) {
            self.0.lock().unwrap().push(tasks.len());
            for t in tasks {
                t();
            }
        }
    }

    #[test]
    fn sampler_stripes_run_on_the_callers_executor() {
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let compiled = CompiledQuery::compile(t.schema(), &q);
        for strategy in [
            Strategy::MonteCarlo { samples: 5_000 },
            Strategy::KarpLuby {
                samples: 5_000,
                max_clauses: 1024,
            },
        ] {
            let plan = ChosenPlan {
                connective: compiled.connective(),
                components: vec![ComponentPlan {
                    strategy,
                    cost: 1.0,
                    seed: 11,
                }],
                eps: 0.05,
                eps_trunc: 0.025,
            };
            let (p1, tr1) = evaluate_plan(&compiled, &plan, &t, 1, None)
                .unwrap()
                .unwrap();
            let exec = BatchExecutor::default();
            let (p2, tr2) = evaluate_plan(&compiled, &plan, &t, 2, Some(&exec))
                .unwrap()
                .unwrap();
            let batches = exec.0.into_inner().unwrap();
            assert_eq!(batches, [2], "{}: one task per stripe", strategy.name());
            assert_eq!(p1.to_bits(), p2.to_bits(), "{}", strategy.name());
            assert_eq!(tr1, tr2);
        }
    }

    /// Drops every task unrun, like a stealing executor whose request
    /// was cancelled.
    struct SkippingExecutor;

    impl shannon::TaskExecutor for SkippingExecutor {
        fn run_tasks(&self, _tasks: Vec<shannon::ParTask>) {}
    }

    #[test]
    fn skipped_sampler_stripes_yield_no_estimate() {
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let compiled = CompiledQuery::compile(t.schema(), &q);
        let plan = ChosenPlan {
            connective: compiled.connective(),
            components: vec![ComponentPlan {
                strategy: Strategy::MonteCarlo { samples: 5_000 },
                cost: 1.0,
                seed: 11,
            }],
            eps: 0.05,
            eps_trunc: 0.025,
        };
        let got = evaluate_plan(&compiled, &plan, &t, 2, Some(&SkippingExecutor)).unwrap();
        assert!(got.is_none());
    }

    /// `A` and `B` with slowly decaying, interleaved probabilities:
    /// per-relation queries ground to var-disjoint lineage with 16
    /// variables each. Binary `C` and `D` hold two groups `x ∈ {0, 1}`
    /// of 8 facts each, so their pair queries split by `x` into two
    /// var-disjoint parts of 8 variables.
    fn blocks_table() -> TiTable {
        use infpdb_core::value::Value;
        let rels = [("A", 1), ("B", 1), ("C", 2), ("D", 2)].map(|(r, k)| Relation::new(r, k));
        let s = Schema::from_relations(rels).unwrap();
        let id = |r| s.rel_id(r).unwrap();
        let mut facts = Vec::new();
        let mut p = 0.45f64;
        for i in 0..16i64 {
            facts.push((Fact::new(id("A"), [Value::int(i)]), p));
            facts.push((Fact::new(id("B"), [Value::int(i)]), p));
            p *= 0.75;
        }
        for rel in ["C", "D"] {
            for i in 0..16i64 {
                let fact = Fact::new(id(rel), [Value::int(i / 8), Value::int(i % 8)]);
                facts.push((fact, 0.05 + 0.025 * i as f64));
            }
        }
        TiTable::from_facts(s, facts).unwrap()
    }

    #[test]
    fn heavy_shannon_components_fork_as_tasks() {
        let t = blocks_table();
        // the pair conjunction's planned (all-Shannon) and forced plans
        // coincide in strategies; so do the two single-fact components'.
        // Components that split fork all their parts in one batch.
        for (qs, batches) in [
            (
                "(exists x, y. A(x) /\\ A(y) /\\ x != y) /\\ (exists x, y. B(x) /\\ B(y) /\\ x != y)",
                &[2][..],
            ),
            ("(exists x. A(x)) /\\ (exists y. B(y))", &[2]),
            ("A(2) /\\ B(2)", &[]),
            (
                "(exists x, y, z. C(x, y) /\\ C(x, z) /\\ y != z) \
                 /\\ (exists x, y, z. D(x, y) /\\ D(x, z) /\\ y != z)",
                &[4],
            ),
        ] {
            let q = parse(qs, t.schema()).unwrap();
            let compiled = CompiledQuery::compile(t.schema(), &q);
            assert_eq!(compiled.components().len(), 2, "{qs}");
            let plan = all_shannon(&compiled);
            let (p1, tr1) = evaluate_plan(&compiled, &plan, &t, 1, None)
                .unwrap()
                .unwrap();
            let exec = BatchExecutor::default();
            let (p4, tr4) = evaluate_plan(&compiled, &plan, &t, 4, Some(&exec))
                .unwrap()
                .unwrap();
            assert_eq!(exec.0.into_inner().unwrap(), batches, "{qs}");
            assert_eq!(p1.to_bits(), p4.to_bits(), "{qs}");
            assert_eq!((tr1.shannon, tr1.arena), (tr4.shannon, tr4.arena), "{qs}");
            assert_eq!(tr1.parallel, None);
            let report = tr4.parallel.expect("parallelism 4 reports");
            assert_eq!(report.tasks, batches.iter().sum::<usize>(), "{qs}");
            if !batches.is_empty() {
                assert!(!report.fallback_seq, "{qs}");
                let skipped = evaluate_plan(&compiled, &plan, &t, 4, Some(&SkippingExecutor));
                assert!(skipped.unwrap().is_none(), "{qs}");
            }
        }
    }

    #[test]
    fn karp_luby_clause_overflow_falls_back_to_shannon() {
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let compiled = CompiledQuery::compile(t.schema(), &q);
        let plan = ChosenPlan {
            connective: compiled.connective(),
            components: vec![ComponentPlan {
                strategy: Strategy::KarpLuby {
                    samples: 1000,
                    max_clauses: 0, // force overflow
                },
                cost: 1.0,
                seed: 7,
            }],
            eps: 0.05,
            eps_trunc: 0.025,
        };
        let (p, trace) = evaluate_plan(&compiled, &plan, &t, 1, None)
            .unwrap()
            .unwrap();
        let brute = prob_boolean_brute(&q, &t).unwrap();
        assert!((p - brute).abs() < 1e-12, "fallback is exact");
        let summary = trace.plan.unwrap();
        assert_eq!(summary.karp_luby, 0);
        assert_eq!(summary.shannon, 1);
    }

    #[test]
    fn summary_label_and_fingerprint() {
        let s = PlanSummary {
            lifted: 2,
            ..PlanSummary::default()
        };
        assert_eq!(s.label(), "lifted");
        let m = PlanSummary {
            lifted: 1,
            monte_carlo: 1,
            ..PlanSummary::default()
        };
        assert_eq!(m.label(), "mixed");
        assert_eq!(PlanSummary::default().label(), "none");
        let plan = ChosenPlan {
            connective: Connective::Single,
            components: vec![ComponentPlan {
                strategy: Strategy::MonteCarlo { samples: 10 },
                cost: 3.0,
                seed: 9,
            }],
            eps: 0.1,
            eps_trunc: 0.05,
        };
        let other = ChosenPlan {
            eps_trunc: 0.04,
            ..plan.clone()
        };
        assert_ne!(plan.choice_fingerprint(), other.choice_fingerprint());
        assert_eq!(plan.strategy_vector(), other.strategy_vector());
        assert!(plan.has_sampling());
    }
}
