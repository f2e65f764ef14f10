//! Exact inference on lineage by Shannon expansion.
//!
//! Computes `P(lineage = true)` under independent fact variables — the
//! intensional query evaluation of the finite-PDB literature the paper
//! builds on. The algorithm is a lightweight knowledge compiler:
//!
//! 1. **Independence decomposition** — children of an `And`/`Or` are
//!    grouped into connected components of shared variables by a
//!    single-pass variable→owner union–find (near-linear in the total
//!    number of variable occurrences); independent components multiply
//!    (`And`) or combine by inclusion–exclusion of complements (`Or`).
//!    When every child is a single fact variable the node short-circuits
//!    to one direct log-space product (`var_product`) with no grouping
//!    or per-component recursion at all — the common shape of the wide
//!    independent unions Prop 6.1 truncation produces.
//! 2. **Shannon expansion** — within a connected component, condition on
//!    the most frequent variable: `P(φ) = p·P(φ|v) + (1−p)·P(φ|¬v)`.
//! 3. **Memoization** — canonical sub-lineages cache their probability, so
//!    shared substructure is solved once.
//!
//! Worst case remains exponential (#P-hardness of general query
//! probability is inherited from the finite theory); hierarchical queries
//! should use [`crate::lifted`] instead.
//!
//! Two engines share this algorithm, each with one recursion:
//!
//! * the **tree reference engine** ([`probability`] and friends) walks the
//!   boxed [`Lineage`] tree and keys its memo by cloned subtrees — simple,
//!   slow, kept as the oracle the DAG engine is differentially tested
//!   against;
//! * the **DAG production engine** ([`probability_dag`] and friends) runs
//!   on a hash-consed [`LineageArena`], keys its memo by dense
//!   [`LineageId`]s (`O(1)` probes instead of `O(subtree)` rehashes) and
//!   reads per-node *cached* variable sets, so the independence
//!   decomposition stops recomputing free-variable scans. Every Shannon
//!   expansion draws from an [`ExpansionBudget`]: the planner's trial
//!   caps it ([`probability_dag_with_budget`]), every other entry point
//!   runs the same recursion with an unlimited pool.
//!
//! Both perform bit-for-bit the same floating-point operations: the arena's
//! canonical child order is the tree's structural order, the union–find
//! grouping and variable selection are ported verbatim, and the arithmetic
//! expression shapes are identical. The `arena_equivalence` integration
//! suite asserts exact `f64` equality on hundreds of random formulas.

use crate::arena::{ArenaStats, LineageArena, LineageId, LineageNode};
use crate::lineage::Lineage;
use infpdb_core::fact::FactId;
use std::collections::HashMap;

/// Exact probability of `lineage` being true when variable `v` is true
/// independently with probability `probs(v)`.
pub fn probability<F: Fn(FactId) -> f64>(lineage: &Lineage, probs: &F) -> f64 {
    let mut memo: HashMap<Lineage, f64> = HashMap::new();
    let mut stats = Stats::default();
    prob_rec(lineage, probs, &mut memo, &mut stats)
}

/// Instrumented variant returning the compilation statistics.
pub fn probability_with_stats<F: Fn(FactId) -> f64>(lineage: &Lineage, probs: &F) -> (f64, Stats) {
    let mut memo: HashMap<Lineage, f64> = HashMap::new();
    let mut stats = Stats::default();
    let p = prob_rec(lineage, probs, &mut memo, &mut stats);
    (p, stats)
}

/// Direct log-space evaluation of an `And`/`Or` whose children are all
/// (distinct, by canonicalization) fact variables: `P(∧) = exp(∑ ln pᵢ)`,
/// `P(∨) = 1 − exp(∑ ln(1 − pᵢ))`, with compensated summation so wide
/// independent unions (the Prop 6.1 truncation prefixes) lose no mass to
/// rounding. Used identically by both engines, so the fast path keeps
/// bit-for-bit tree/DAG equivalence.
///
/// Flattened (see `infpdb_math::flat`): probabilities are gathered into a
/// per-thread contiguous scratch buffer, the transcendental map runs over
/// the slice with no loop-carried state, and the compensated fold runs
/// separately in the identical element order — so the result is
/// bit-for-bit the fused loop's, while the gather and map passes are free
/// of the serial compensation chain.
fn var_product(ps: impl Iterator<Item = f64>, is_and: bool) -> f64 {
    SCRATCH.with(|s| {
        let (gather, logs) = &mut *s.borrow_mut();
        gather.clear();
        gather.extend(ps);
        let p = if is_and {
            infpdb_math::flat::log_product(gather, logs)
        } else {
            infpdb_math::flat::log_product_one_minus(gather, logs)
        };
        // every thread that evaluates keeps this scratch, connection
        // threads of a server included, so only a bounded part outlives
        // a wide product
        if gather.capacity() > SCRATCH_KEEP {
            gather.clear();
            logs.clear();
            gather.shrink_to(SCRATCH_KEEP);
            logs.shrink_to(SCRATCH_KEEP);
        }
        p
    })
}

thread_local! {
    /// `var_product`'s gather and log buffers, reused across calls.
    static SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Entries of each `SCRATCH` buffer kept between calls: 32 KiB apiece.
/// A wider product allocates for its own call; reallocating is small
/// next to one transcendental per entry.
const SCRATCH_KEEP: usize = 4096;

/// Compilation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Shannon expansions performed.
    pub expansions: usize,
    /// Memo hits.
    pub cache_hits: usize,
    /// Independent-component decompositions applied.
    pub decompositions: usize,
}

fn prob_rec<F: Fn(FactId) -> f64>(
    l: &Lineage,
    probs: &F,
    memo: &mut HashMap<Lineage, f64>,
    stats: &mut Stats,
) -> f64 {
    match l {
        Lineage::Top => return 1.0,
        Lineage::Bot => return 0.0,
        Lineage::Var(id) => return probs(*id),
        Lineage::Not(g) => return 1.0 - prob_rec(g, probs, memo, stats),
        _ => {}
    }
    if let Some(&p) = memo.get(l) {
        stats.cache_hits += 1;
        return p;
    }
    let p = match l {
        Lineage::And(children) | Lineage::Or(children) => {
            let is_and = matches!(l, Lineage::And(_));
            // Every child a (distinct) fact variable ⇒ all components are
            // single facts: one direct log-space product, no grouping, no
            // per-component recursion.
            if children.iter().all(|c| matches!(c, Lineage::Var(_))) {
                stats.decompositions += 1;
                let p = var_product(
                    children.iter().map(|c| match c {
                        Lineage::Var(id) => probs(*id),
                        _ => unreachable!("checked all-Var"),
                    }),
                    is_and,
                );
                memo.insert(l.clone(), p);
                return p;
            }
            let comps = components(children);
            if comps.len() > 1 {
                stats.decompositions += 1;
                // Independent components: P(∧) = ∏ P, P(∨) = 1 − ∏ (1 − P).
                let mut acc = 1.0;
                for comp in comps {
                    let sub = if comp.len() == 1 {
                        comp.into_iter().next().expect("len 1")
                    } else if is_and {
                        Lineage::and(comp)
                    } else {
                        Lineage::or(comp)
                    };
                    let ps = prob_rec(&sub, probs, memo, stats);
                    acc *= if is_and { ps } else { 1.0 - ps };
                }
                if is_and {
                    acc
                } else {
                    1.0 - acc
                }
            } else {
                // Connected: Shannon expansion on the most frequent var.
                stats.expansions += 1;
                let v = most_frequent_var(children).expect("connected component has vars");
                let pv = probs(v);
                let pos = l.assign(v, true);
                let neg = l.assign(v, false);
                pv * prob_rec(&pos, probs, memo, stats)
                    + (1.0 - pv) * prob_rec(&neg, probs, memo, stats)
            }
        }
        _ => unreachable!("leaf cases handled above"),
    };
    memo.insert(l.clone(), p);
    p
}

/// Union–find over child indices with path halving; unions always point
/// the larger root at the smaller one, so a component's representative is
/// its smallest member index and first-appearance output order coincides
/// with ascending-smallest-member order (the *canonical component order*
/// both engines and the parallel combiner rely on).
fn uf_find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

fn uf_union(parent: &mut [usize], i: usize, j: usize) {
    let (ri, rj) = (uf_find(parent, i), uf_find(parent, j));
    if ri != rj {
        parent[ri.max(rj)] = ri.min(rj);
    }
}

/// Unions children sharing a variable in **one pass over each child's
/// variable set**: the first child owning a variable is recorded in
/// `owner`, and every later child mentioning it is unioned with that
/// owner. Near-linear (inverse-Ackermann union–find) in the total number
/// of variable occurrences — replacing the old pairwise-intersection scan
/// that was quadratic in the child count.
fn group_indices<I>(n: usize, vars_of: impl Fn(usize) -> I) -> Vec<Vec<usize>>
where
    I: IntoIterator<Item = FactId>,
{
    let mut parent: Vec<usize> = (0..n).collect();
    let mut owner: HashMap<FactId, usize> = HashMap::new();
    for i in 0..n {
        for v in vars_of(i) {
            match owner.entry(v) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    uf_union(&mut parent, i, *e.get());
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
    }
    // canonical component order: first appearance = smallest member
    let mut slot: Vec<Option<usize>> = vec![None; n];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let r = uf_find(&mut parent, i);
        let s = match slot[r] {
            Some(s) => s,
            None => {
                out.push(Vec::new());
                slot[r] = Some(out.len() - 1);
                out.len() - 1
            }
        };
        out[s].push(i);
    }
    out
}

/// Groups sibling lineages into connected components of shared variables.
fn components(children: &[Lineage]) -> Vec<Vec<Lineage>> {
    let var_sets: Vec<_> = children.iter().map(Lineage::vars).collect();
    group_indices(children.len(), |i| var_sets[i].iter().copied())
        .into_iter()
        .map(|comp| comp.into_iter().map(|i| children[i].clone()).collect())
        .collect()
}

/// The variable occurring in the most children (ties broken by id).
fn most_frequent_var(children: &[Lineage]) -> Option<FactId> {
    let mut counts: std::collections::BTreeMap<FactId, usize> = Default::default();
    for c in children {
        for v in c.vars() {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(id, c)| (c, std::cmp::Reverse(id)))
        .map(|(id, _)| id)
}

// ---------------------------------------------------------------------------
// DAG engine: the same algorithm on a hash-consed arena.
// ---------------------------------------------------------------------------

/// Memo of the DAG engine: probabilities indexed by dense [`LineageId`].
///
/// Probes are an array index instead of a whole-subtree rehash. The table
/// grows as `assign` interns cofactor nodes mid-evaluation.
#[derive(Debug, Default)]
struct DagMemo {
    table: Vec<Option<f64>>,
}

impl DagMemo {
    fn get(&self, id: LineageId) -> Option<f64> {
        self.table.get(id.0 as usize).copied().flatten()
    }

    fn insert(&mut self, id: LineageId, p: f64) {
        let i = id.0 as usize;
        if self.table.len() <= i {
            self.table.resize(i + 1, None);
        }
        self.table[i] = Some(p);
    }
}

/// A shared countdown of Shannon expansions.
///
/// One budget instance is threaded by `&mut` through an *entire* DAG
/// evaluation, so every sibling subproblem draws from the same pool and
/// `max_expansions` bounds **total** work, not per-branch work. The
/// planner's Shannon trial ([`probability_dag_with_budget`] on the
/// profile prefix) relies on this being a global bound: a trial that
/// runs dry is priced as a blown budget instead of running on.
/// [`probability_dag`] and [`probability_dag_with_stats`] draw from an
/// unlimited pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpansionBudget {
    remaining: usize,
}

impl ExpansionBudget {
    /// A budget allowing exactly `max_expansions` Shannon expansions.
    pub fn new(max_expansions: usize) -> Self {
        Self {
            remaining: max_expansions,
        }
    }

    /// Draws one expansion from the pool; `false` when exhausted.
    #[must_use]
    pub fn try_spend(&mut self) -> bool {
        match self.remaining.checked_sub(1) {
            Some(r) => {
                self.remaining = r;
                true
            }
            None => false,
        }
    }

    /// Expansions left in the pool.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

/// Exact probability of arena node `root` being true when variable `v` is
/// true independently with probability `probs(v)`.
///
/// The arena is `&mut` because Shannon cofactors intern new nodes; reusing
/// one arena across many roots (the grounding arena of an evaluation)
/// shares both structure and, via [`probability_dag_with_stats`], memo
/// effort.
pub fn probability_dag<F: Fn(FactId) -> f64>(
    arena: &mut LineageArena,
    root: LineageId,
    probs: &F,
) -> f64 {
    probability_dag_with_stats(arena, root, probs).0
}

/// Instrumented variant returning the compilation statistics.
pub fn probability_dag_with_stats<F: Fn(FactId) -> f64>(
    arena: &mut LineageArena,
    root: LineageId,
    probs: &F,
) -> (f64, Stats) {
    probability_dag_with_budget(arena, root, probs, usize::MAX)
        .expect("an unlimited budget is never exhausted")
}

/// [`probability_dag_with_stats`] under a shared [`ExpansionBudget`] of
/// `max_expansions`: `None` once the pool is exhausted.
pub fn probability_dag_with_budget<F: Fn(FactId) -> f64>(
    arena: &mut LineageArena,
    root: LineageId,
    probs: &F,
    max_expansions: usize,
) -> Option<(f64, Stats)> {
    let mut memo = DagMemo::default();
    let mut stats = Stats::default();
    let mut budget = ExpansionBudget::new(max_expansions);
    let p = prob_rec_dag(arena, root, probs, &mut memo, &mut stats, &mut budget)?;
    Some((p, stats))
}

/// The DAG engine's one recursion; `None` once `budget` runs out.
fn prob_rec_dag<F: Fn(FactId) -> f64>(
    arena: &mut LineageArena,
    id: LineageId,
    probs: &F,
    memo: &mut DagMemo,
    stats: &mut Stats,
    budget: &mut ExpansionBudget,
) -> Option<f64> {
    let (is_and, children) = match arena.node(id) {
        LineageNode::Top => return Some(1.0),
        LineageNode::Bot => return Some(0.0),
        LineageNode::Var(v) => return Some(probs(*v)),
        LineageNode::Not(g) => {
            let g = *g;
            return Some(1.0 - prob_rec_dag(arena, g, probs, memo, stats, budget)?);
        }
        LineageNode::And(gs) => (true, gs.to_vec()),
        LineageNode::Or(gs) => (false, gs.to_vec()),
    };
    if let Some(p) = memo.get(id) {
        stats.cache_hits += 1;
        return Some(p);
    }
    // Every child a (distinct) fact variable ⇒ all components are single
    // facts: one direct log-space product, no grouping, no budget spent.
    if all_vars_dag(arena, &children) {
        stats.decompositions += 1;
        let p = var_product(children.iter().map(|&c| var_prob(arena, c, probs)), is_and);
        memo.insert(id, p);
        return Some(p);
    }
    let comps = components_dag(arena, &children);
    let p = if comps.len() > 1 {
        stats.decompositions += 1;
        // Independent components: P(∧) = ∏ P, P(∨) = 1 − ∏ (1 − P).
        let mut acc = 1.0;
        for comp in comps {
            let sub = if comp.len() == 1 {
                comp[0]
            } else if is_and {
                arena.and(comp)
            } else {
                arena.or(comp)
            };
            let ps = prob_rec_dag(arena, sub, probs, memo, stats, budget)?;
            acc *= if is_and { ps } else { 1.0 - ps };
        }
        if is_and {
            acc
        } else {
            1.0 - acc
        }
    } else {
        // Connected: Shannon expansion on the most frequent var, paid
        // for from the shared pool.
        if !budget.try_spend() {
            return None;
        }
        stats.expansions += 1;
        let v = most_frequent_var_dag(arena, &children).expect("connected component has vars");
        let pv = probs(v);
        let pos = arena.assign(id, v, true);
        let neg = arena.assign(id, v, false);
        pv * prob_rec_dag(arena, pos, probs, memo, stats, budget)?
            + (1.0 - pv) * prob_rec_dag(arena, neg, probs, memo, stats, budget)?
    };
    memo.insert(id, p);
    Some(p)
}

/// Groups sibling nodes into connected components of shared variables —
/// the same single-pass union–find (including grouping order) as the tree
/// engine's [`components`], reading cached variable sets instead of
/// scanning subtrees.
fn components_dag(arena: &LineageArena, children: &[LineageId]) -> Vec<Vec<LineageId>> {
    group_indices(children.len(), |i| arena.vars(children[i]).iter().copied())
        .into_iter()
        .map(|comp| comp.into_iter().map(|i| children[i]).collect())
        .collect()
}

/// Whether every child node is a plain fact variable.
fn all_vars_dag(arena: &LineageArena, children: &[LineageId]) -> bool {
    children
        .iter()
        .all(|&c| matches!(arena.node(c), LineageNode::Var(_)))
}

/// The probability of a node known to be a `Var`.
fn var_prob<F: Fn(FactId) -> f64>(arena: &LineageArena, id: LineageId, probs: &F) -> f64 {
    match arena.node(id) {
        LineageNode::Var(v) => probs(*v),
        _ => unreachable!("checked all-Var"),
    }
}

/// The variable occurring in the most children (ties broken by id) —
/// mirrors the tree engine's [`most_frequent_var`] over cached sets.
fn most_frequent_var_dag(arena: &LineageArena, children: &[LineageId]) -> Option<FactId> {
    let mut counts: std::collections::BTreeMap<FactId, usize> = Default::default();
    for &c in children {
        for &v in arena.vars(c) {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(id, c)| (c, std::cmp::Reverse(id)))
        .map(|(id, _)| id)
}

// ---------------------------------------------------------------------------
// Intra-query parallel evaluation: fork-join over independent components.
// ---------------------------------------------------------------------------

/// Default minimum variable count for a component to be worth shipping to
/// a worker thread; smaller subproblems stay sequential.
pub const DEFAULT_MIN_TASK_VARS: usize = 8;

/// How much intra-query parallelism [`probability_dag_parallel`] may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelPolicy {
    /// Worker threads. `0`/`1` mean fully sequential evaluation.
    pub threads: usize,
    /// Minimum total variable occurrences a component must have to be
    /// dispatched as a parallel task (the fork threshold).
    pub min_task_vars: usize,
}

impl ParallelPolicy {
    /// `threads` workers with the default task-size threshold.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            min_task_vars: DEFAULT_MIN_TASK_VARS,
        }
    }
}

impl Default for ParallelPolicy {
    fn default() -> Self {
        Self::with_threads(1)
    }
}

/// What the parallel evaluator actually did, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParReport {
    /// Independent components dispatched to worker threads.
    pub tasks: usize,
    /// `true` when ≥ 2 threads were allowed but the root decomposed into
    /// fewer than two above-threshold components, so evaluation fell back
    /// to the plain sequential engine.
    pub fallback_seq: bool,
}

/// A self-contained unit of parallel work: owns its arena clone, its
/// gathered fact probabilities, and the channel it reports through.
pub type ParTask = Box<dyn FnOnce() + Send + 'static>;

/// Runs a batch of independent, self-contained component tasks.
///
/// The evaluator hands every heavy component of a decomposed query to an
/// executor as a [`ParTask`] and collects results afterwards, so *where*
/// and *in what order* tasks run is entirely the executor's business —
/// a fixed fork-join pool ([`ScopedExecutor`]), a work-stealing server
/// scheduler, or plain inline execution all produce bit-identical
/// answers, because results are combined in canonical component order on
/// the calling thread regardless of execution order.
pub trait TaskExecutor: Sync {
    /// Executes tasks and returns once none of them will run anymore.
    ///
    /// `run_tasks` is a completion barrier: when it returns, every task
    /// has either finished or been *skipped* (dropped unrun — e.g. the
    /// owning request was cancelled mid-flight). Skipping is observable
    /// to the caller as a missing per-component result. A panicking task
    /// must propagate its payload to this call, not abandon the barrier.
    fn run_tasks(&self, tasks: Vec<ParTask>);
}

/// The default executor: fork-join over scoped threads, at most
/// `threads` at a time, tasks striped round-robin by slot index. Never
/// skips a task; panics propagate on join.
#[derive(Debug, Clone, Copy)]
pub struct ScopedExecutor {
    /// Maximum simultaneous worker threads (`0` is treated as 1).
    pub threads: usize,
}

impl ScopedExecutor {
    /// Calls `f` with the caller's executor, or with a fork-join
    /// executor of `threads` when there is none: the one place the
    /// default is built.
    pub(crate) fn or_default<R>(
        exec: Option<&dyn TaskExecutor>,
        threads: usize,
        f: impl FnOnce(&dyn TaskExecutor) -> R,
    ) -> R {
        match exec {
            Some(exec) => f(exec),
            None => f(&ScopedExecutor { threads }),
        }
    }
}

impl TaskExecutor for ScopedExecutor {
    fn run_tasks(&self, tasks: Vec<ParTask>) {
        if tasks.is_empty() {
            return;
        }
        let workers = self.threads.max(1).min(tasks.len());
        let mut lanes: Vec<Vec<ParTask>> = (0..workers).map(|_| Vec::new()).collect();
        for (slot, t) in tasks.into_iter().enumerate() {
            lanes[slot % workers].push(t);
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| {
                    s.spawn(move || {
                        for t in lane {
                            t();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("parallel evaluator worker panicked");
            }
        });
    }
}

/// [`probability_dag_with_stats`] with root-level fork-join parallelism
/// over independent components, plus the post-evaluation [`ArenaStats`]
/// (merged across worker arenas) and a [`ParReport`].
///
/// **Determinism contract:** the `f64` *bit pattern*, the [`Stats`]
/// counters, and the merged [`ArenaStats`] are identical to the
/// sequential engine for every thread count. Forking happens only at the
/// root decomposition; each component is evaluated by the unchanged
/// sequential recursion on a private clone of the arena (the memoized
/// structural comparator makes `&LineageArena` non-`Sync`), and
/// per-component probabilities are combined on the calling thread in
/// canonical component order — exactly the sequential multiplication
/// order. Work counters are sums, so merging is order-free; components
/// are variable-disjoint, so a worker's cofactor nodes can neither equal
/// nor intern-hit another component's, and node/intern-hit deltas add
/// exactly. Per-component memo tables are likewise exact: a memo entry
/// only ever mentions one component's variables, so the sequential
/// engine's shared table never produces a cross-component hit.
/// Plan evaluation ([`crate::plan::evaluate_plan`]) forks through the
/// same code on any [`TaskExecutor`], so the contract holds there too.
pub fn probability_dag_parallel<F>(
    arena: &mut LineageArena,
    root: LineageId,
    probs: &F,
    policy: ParallelPolicy,
) -> (f64, Stats, ArenaStats, ParReport)
where
    F: Fn(FactId) -> f64 + Sync,
{
    let (mut results, report) = ScopedExecutor::or_default(None, policy.threads, |exec| {
        probability_dags_exec(vec![(arena, root)], probs, policy, exec)
    })
    .expect("ScopedExecutor runs every task");
    let (p, stats, arena_stats) = results.pop().expect("one root, one result");
    (p, stats, arena_stats, report)
}

/// A [`ParTask`] with a result, collected by [`run_jobs`].
pub(crate) type Job<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// Runs `jobs` as tasks on `exec` and returns their results in job
/// order, or `None` when the executor skipped one (a cancelled request).
pub(crate) fn run_jobs<T: Send + 'static>(
    exec: &dyn TaskExecutor,
    jobs: Vec<Job<T>>,
) -> Option<Vec<T>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let n = jobs.len();
    let tasks: Vec<ParTask> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            let tx = tx.clone();
            Box::new(move || {
                let _ = tx.send((i, job()));
            }) as ParTask
        })
        .collect();
    drop(tx);
    exec.run_tasks(tasks);
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in rx.try_iter() {
        out[i] = Some(r);
    }
    out.into_iter().collect()
}

/// Where the sequential engine first splits a root: into its
/// independent components when the root (under any `Not`s) is an
/// `And`/`Or` over two or more of them, else not at all (one part).
struct RootSplit {
    /// For a split root, `Some((is_and, Nots peeled above it))`.
    split: Option<(bool, usize)>,
    /// The parts' child lists; `[[root]]` when the root does not split.
    parts: Vec<Vec<LineageId>>,
    /// Which parts reach `min_task_vars` variable occurrences.
    heavy: Vec<bool>,
}

impl RootSplit {
    fn of(arena: &LineageArena, root: LineageId, min_task_vars: usize) -> Self {
        let (mut top, mut flips) = (root, 0usize);
        while let LineageNode::Not(g) = arena.node(top) {
            (top, flips) = (*g, flips + 1);
        }
        // an all-Var root is the sequential fast path already
        let parts = match arena.node(top) {
            LineageNode::And(gs) | LineageNode::Or(gs) if !all_vars_dag(arena, gs) => {
                components_dag(arena, gs)
            }
            _ => Vec::new(),
        };
        let (split, parts) = match parts.len() {
            0 | 1 => (None, vec![vec![root]]),
            _ => (
                Some((matches!(arena.node(top), LineageNode::And(_)), flips)),
                parts,
            ),
        };
        let occurrences =
            |part: &Vec<LineageId>| part.iter().map(|&c| arena.vars(c).len()).sum::<usize>();
        let heavy = parts
            .iter()
            .map(|part| occurrences(part) >= min_task_vars)
            .collect();
        RootSplit {
            split,
            parts,
            heavy,
        }
    }

    /// Replays the sequential root decomposition: interns each part's
    /// sub-node (var-disjointness makes the interning deltas
    /// order-independent) and returns the sub-roots.
    fn sub_roots(&self, arena: &mut LineageArena) -> Vec<LineageId> {
        let node = |part: &Vec<LineageId>, arena: &mut LineageArena| match self.split {
            _ if part.len() == 1 => part[0],
            Some((true, _)) => arena.and(part.iter().copied()),
            _ => arena.or(part.iter().copied()),
        };
        self.parts.iter().map(|part| node(part, arena)).collect()
    }

    /// Combines the parts' probabilities in canonical part order — the
    /// sequential multiplication order.
    fn combine(&self, ps: &[f64]) -> f64 {
        let Some((is_and, flips)) = self.split else {
            return ps[0];
        };
        let acc: f64 = ps
            .iter()
            .fold(1.0, |acc, &p| acc * if is_and { p } else { 1.0 - p });
        let p = if is_and { acc } else { 1.0 - acc };
        (0..flips).fold(p, |p, _| 1.0 - p)
    }
}

/// A root's probability with its sequential run's counters.
type Evaluated = (f64, Stats, ArenaStats);

/// The fork of the parallel evaluator, over several grounded roots at
/// once, each in its own arena (the Shannon components of a plan, or
/// [`probability_dag_parallel`]'s one root). Every root splits where the
/// sequential engine first would ([`RootSplit`]). With
/// `policy.threads ≥ 2` and at least two heavy parts across all roots,
/// each heavy part becomes one [`Job`] on an arena clone and the light
/// ones run on the calling thread; otherwise every root runs
/// sequentially (`fallback_seq`). Returns each root's
/// `(p, Stats, ArenaStats)`, bit-for-bit those of
/// [`probability_dag_with_stats`] on that root alone, or `None` when
/// `exec` skipped a task.
pub(crate) fn probability_dags_exec<F>(
    mut roots: Vec<(&mut LineageArena, LineageId)>,
    probs: &F,
    policy: ParallelPolicy,
    exec: &dyn TaskExecutor,
) -> Option<(Vec<Evaluated>, ParReport)>
where
    F: Fn(FactId) -> f64,
{
    // below two threads nothing splits: every root runs sequentially
    let splits: Vec<RootSplit> = roots
        .iter()
        .filter(|_| policy.threads >= 2)
        .map(|(arena, root)| RootSplit::of(arena, *root, policy.min_task_vars))
        .collect();
    let tasks = splits.iter().flat_map(|s| &s.heavy).filter(|&&h| h).count();
    if tasks < 2 {
        let report = ParReport {
            tasks: 0,
            fallback_seq: policy.threads >= 2,
        };
        let sequential = roots.into_iter().map(|(arena, root)| {
            let (p, stats) = probability_dag_with_stats(arena, root, probs);
            (p, stats, arena.stats())
        });
        return Some((sequential.collect(), report));
    }
    // Dense gather of every fact probability under the roots, shared by
    // all jobs: the same f64 values `probs` returns, indexed by fact id,
    // so jobs need no reference to the caller's closure to be `'static`.
    let mut dense = Vec::new();
    for &f in roots.iter().flat_map(|(arena, root)| arena.vars(*root)) {
        dense.resize(dense.len().max(f.0 as usize + 1), 0.0);
        dense[f.0 as usize] = probs(f);
    }
    let dense = std::sync::Arc::new(dense);
    // Intern each root's sub-nodes, snapshot its arena for its heavy
    // parts, then evaluate its light parts on the owner arena — clones
    // were taken first, so per-job deltas stay relative to `base`.
    let mut jobs: Vec<Job<Evaluated>> = Vec::with_capacity(tasks);
    let mut light = Vec::with_capacity(roots.len());
    for ((arena, _), split) in roots.iter_mut().zip(&splits) {
        let subs = split.sub_roots(arena);
        let base = arena.stats();
        for (&sub, _) in subs.iter().zip(&split.heavy).filter(|(_, &h)| h) {
            let (mut cl, pv) = (arena.clone(), std::sync::Arc::clone(&dense));
            jobs.push(Box::new(move || {
                let probs = |id: FactId| pv[id.0 as usize];
                let (p, st) = probability_dag_with_stats(&mut cl, sub, &probs);
                (p, st, cl.stats())
            }));
        }
        let inline = subs.iter().zip(&split.heavy).filter(|(_, &h)| !h);
        let inline: Vec<_> = inline
            .map(|(&sub, _)| probability_dag_with_stats(arena, sub, probs))
            .collect();
        light.push((base, inline.into_iter()));
    }
    let mut forked = run_jobs(exec, jobs)?.into_iter();
    let roots = roots.iter().zip(&splits).zip(light);
    let results = roots.map(|(((arena, _), split), (base, mut inline))| {
        let mut stats = Stats {
            decompositions: usize::from(split.split.is_some()),
            ..Stats::default()
        };
        let mut arena_stats = arena.stats();
        let mut ps = Vec::with_capacity(split.parts.len());
        for &heavy in &split.heavy {
            let (p, st) = if heavy {
                let (p, st, cl) = forked.next().expect("one result per job");
                arena_stats.nodes += cl.nodes - base.nodes;
                arena_stats.intern_hits += cl.intern_hits - base.intern_hits;
                (p, st)
            } else {
                inline.next().expect("one result per light part")
            };
            stats.expansions += st.expansions;
            stats.cache_hits += st.cache_hits;
            stats.decompositions += st.decompositions;
            ps.push(p);
        }
        (split.combine(&ps), stats, arena_stats)
    });
    let report = ParReport {
        tasks,
        fallback_seq: false,
    };
    Some((results.collect(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::lineage_of;
    use crate::TiTable;
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{Relation, Schema};
    use infpdb_core::value::Value;
    use infpdb_logic::parse;

    fn v(i: u32) -> Lineage {
        Lineage::Var(FactId(i))
    }

    #[test]
    fn leaves() {
        let p = |_: FactId| 0.3;
        assert_eq!(probability(&Lineage::Top, &p), 1.0);
        assert_eq!(probability(&Lineage::Bot, &p), 0.0);
        assert_eq!(probability(&v(0), &p), 0.3);
        assert!((probability(&v(0).negate(), &p) - 0.7).abs() < 1e-15);
    }

    #[test]
    fn var_product_keeps_a_bounded_scratch() {
        std::thread::spawn(|| {
            let capacity = || {
                SCRATCH.with(|s| {
                    let (gather, logs) = &*s.borrow();
                    (gather.capacity(), logs.capacity())
                })
            };
            let ps: Vec<f64> = (0..4 * SCRATCH_KEEP)
                .map(|i| 1.0 / (2.0 + i as f64))
                .collect();
            let p = var_product(ps.iter().copied(), false);
            let fresh = infpdb_math::flat::log_product_one_minus(&ps, &mut Vec::new());
            assert_eq!(p.to_bits(), fresh.to_bits());
            let (gather, logs) = capacity();
            assert!(gather <= SCRATCH_KEEP && logs <= SCRATCH_KEEP);
            // a narrow product keeps its buffers for the next call
            var_product((0..100).map(|_| 0.5), true);
            let (gather, logs) = capacity();
            assert!(gather >= 100 && logs >= 100);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn independent_and_or() {
        let probs = |id: FactId| [0.5, 0.4, 0.0][id.0 as usize];
        let f = Lineage::and([v(0), v(1)]);
        assert!((probability(&f, &probs) - 0.2).abs() < 1e-15);
        let g = Lineage::or([v(0), v(1)]);
        assert!((probability(&g, &probs) - 0.7).abs() < 1e-15);
    }

    /// Regression guard for the union-find grouping + all-Var fast path:
    /// an n-fact independent union must cost O(n) recorded operations,
    /// not the Θ(n²) of pairwise component intersection. The constant is
    /// generous (4·n) so legitimate bookkeeping changes don't trip it,
    /// while a quadratic regression at n = 4096 overshoots by ~10³×.
    #[test]
    fn independent_union_op_counts_grow_linearly() {
        let probs = |id: FactId| 0.2 + 0.5 / (2.0 + f64::from(id.0));
        for n in [512u32, 4096] {
            // Or of n/2 var-disjoint And-pairs, both engines
            let f = Lineage::or((0..n / 2).map(|i| Lineage::and([v(2 * i), v(2 * i + 1)])));
            let (p_tree, stats) = probability_with_stats(&f, &probs);
            let ops = stats.expansions + stats.decompositions;
            assert!(
                ops <= 4 * n as usize,
                "tree: {ops} ops for n = {n} is not O(n)"
            );
            assert_eq!(stats.expansions, 0, "independent union needs no Shannon");

            let mut arena = LineageArena::new();
            let comps: Vec<LineageId> = (0..n / 2)
                .map(|i| {
                    let a = arena.var(FactId(2 * i));
                    let b = arena.var(FactId(2 * i + 1));
                    arena.and([a, b])
                })
                .collect();
            let root = arena.or(comps);
            let (p_dag, dstats) = probability_dag_with_stats(&mut arena, root, &probs);
            let dops = dstats.expansions + dstats.decompositions;
            assert!(dops <= 4 * n as usize, "dag: {dops} ops for n = {n}");
            assert_eq!(dstats.expansions, 0);
            assert_eq!(p_tree.to_bits(), p_dag.to_bits());
        }
    }

    /// An Or (or And) whose children are all plain facts is a single
    /// decomposition — the log-space product fast path, no per-component
    /// recursion.
    #[test]
    fn all_var_union_is_one_decomposition() {
        let probs = |id: FactId| 1.0 / (3.0 + f64::from(id.0));
        let f = Lineage::or((0..64).map(v));
        let (p, stats) = probability_with_stats(&f, &probs);
        assert_eq!(stats.expansions, 0);
        assert_eq!(stats.decompositions, 1);
        let mut direct = 1.0;
        for i in 0..64u32 {
            direct *= 1.0 - probs(FactId(i));
        }
        assert!((p - (1.0 - direct)).abs() < 1e-12);

        let mut arena = LineageArena::new();
        let vars: Vec<LineageId> = (0..64).map(|i| arena.var(FactId(i))).collect();
        let root = arena.and(vars);
        let (q, dstats) = probability_dag_with_stats(&mut arena, root, &probs);
        assert_eq!(dstats.expansions, 0);
        assert_eq!(dstats.decompositions, 1);
        assert!(q > 0.0 && q < 1.0e-10); // product of 64 small probabilities
    }

    #[test]
    fn shared_variable_forces_shannon() {
        // (x ∧ y) ∨ (x ∧ z): P = p_x · P(y ∨ z)
        let probs = |id: FactId| [0.5, 0.4, 0.2][id.0 as usize];
        let f = Lineage::or([Lineage::and([v(0), v(1)]), Lineage::and([v(0), v(2)])]);
        let expected = 0.5 * (1.0 - 0.6 * 0.8);
        let (p, stats) = probability_with_stats(&f, &probs);
        assert!((p - expected).abs() < 1e-12);
        assert!(stats.expansions >= 1);
    }

    #[test]
    fn xor_style_formula() {
        // (x ∧ ¬y) ∨ (¬x ∧ y)
        let probs = |id: FactId| [0.3, 0.6][id.0 as usize];
        let f = Lineage::or([
            Lineage::and([v(0), v(1).negate()]),
            Lineage::and([v(0).negate(), v(1)]),
        ]);
        let expected = 0.3 * 0.4 + 0.7 * 0.6;
        assert!((probability(&f, &probs) - expected).abs() < 1e-12);
    }

    #[test]
    fn decomposition_statistics() {
        let probs = |_: FactId| 0.5;
        // independent pairs: ((x0∧x1) ∨ (x2∧x3)) — components {x0,x1},{x2,x3}
        let f = Lineage::or([Lineage::and([v(0), v(1)]), Lineage::and([v(2), v(3)])]);
        let (p, stats) = probability_with_stats(&f, &probs);
        assert!((p - (1.0 - 0.75 * 0.75)).abs() < 1e-12);
        assert!(stats.decompositions >= 1);
        assert_eq!(stats.expansions, 0);
    }

    #[test]
    fn memoization_hits_on_shared_substructure() {
        let probs = |_: FactId| 0.5;
        // (x0 ∨ x1) appears twice via conditioning paths of x2
        let shared = Lineage::or([v(0), v(1)]);
        let f = Lineage::or([
            Lineage::and([v(2), shared.clone()]),
            Lineage::and([v(2).negate(), shared]),
        ]);
        let (p, _stats) = probability_with_stats(&f, &probs);
        assert!((p - 0.75).abs() < 1e-12);
    }

    /// Brute-force reference: sum over all assignments.
    fn brute(l: &Lineage, probs: &dyn Fn(FactId) -> f64) -> f64 {
        let vars: Vec<FactId> = l.vars().into_iter().collect();
        let mut total = 0.0;
        for mask in 0u64..(1 << vars.len()) {
            let mut world = Vec::new();
            let mut p = 1.0;
            for (i, &v) in vars.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    world.push(v);
                    p *= probs(v);
                } else {
                    p *= 1.0 - probs(v);
                }
            }
            let inst = infpdb_core::instance::Instance::from_ids(world);
            if l.eval(&inst) {
                total += p;
            }
        }
        total
    }

    #[test]
    fn matches_brute_force_on_random_formulas() {
        use infpdb_core::space::rand_core::{RngCore, SplitMix64};
        let mut rng = SplitMix64::new(2024);
        for trial in 0..60 {
            // random formula over 6 vars, depth 3
            fn random_lineage(rng: &mut SplitMix64, depth: usize) -> Lineage {
                let choice = rng.next_u64() % if depth == 0 { 2 } else { 5 };
                match choice {
                    0 => Lineage::Var(FactId((rng.next_u64() % 6) as u32)),
                    1 => Lineage::Var(FactId((rng.next_u64() % 6) as u32)).negate(),
                    2 => Lineage::and([
                        random_lineage(rng, depth - 1),
                        random_lineage(rng, depth - 1),
                    ]),
                    3 => Lineage::or([
                        random_lineage(rng, depth - 1),
                        random_lineage(rng, depth - 1),
                    ]),
                    _ => random_lineage(rng, depth - 1).negate(),
                }
            }
            let l = random_lineage(&mut rng, 3);
            let ps: Vec<f64> = (0..6)
                .map(|_| (rng.next_u64() % 1000) as f64 / 1000.0)
                .collect();
            let probs = |id: FactId| ps[id.0 as usize];
            let fast = probability(&l, &probs);
            let slow = brute(&l, &probs);
            assert!(
                (fast - slow).abs() < 1e-9,
                "trial {trial}: shannon {fast} != brute {slow} on {l:?}"
            );
        }
    }

    /// The budgeted DAG entry on a fresh arena built from `f`.
    fn dag_budget(f: &Lineage, probs: &dyn Fn(FactId) -> f64, max: usize) -> Option<(f64, Stats)> {
        let mut arena = LineageArena::new();
        let root = arena.from_lineage(f);
        probability_dag_with_budget(&mut arena, root, &probs, max)
    }

    #[test]
    fn budget_variant_matches_unbudgeted_when_affordable() {
        let probs = |id: FactId| [0.5, 0.4, 0.2][id.0 as usize];
        let f = Lineage::or([Lineage::and([v(0), v(1)]), Lineage::and([v(0), v(2)])]);
        let (p, stats) = dag_budget(&f, &probs, 1_000_000).unwrap();
        let (tree_p, tree_stats) = probability_with_stats(&f, &probs);
        assert_eq!(p.to_bits(), tree_p.to_bits());
        assert_eq!(stats, tree_stats);
    }

    #[test]
    fn budget_variant_gives_up_gracefully() {
        // a chain x0x1 ∨ x1x2 ∨ … forces one expansion per level; budget 0
        // must trip immediately on a connected component
        let probs = |_: FactId| 0.5;
        let f = Lineage::or((0..8).map(|i| Lineage::and([v(i), v(i + 1)])));
        assert!(dag_budget(&f, &probs, 0).is_none());
        assert!(dag_budget(&f, &probs, 1_000).is_some());
    }

    #[test]
    fn budget_is_a_shared_pool_across_siblings() {
        // Two independent connected components, each needing ≥ 1
        // expansion. A per-branch budget of 1 would let BOTH expand; the
        // shared pool must trip on the second.
        let probs = |_: FactId| 0.5;
        let comp = |base: u32| {
            Lineage::or([
                Lineage::and([v(base), v(base + 1)]),
                Lineage::and([v(base), v(base + 2)]),
            ])
        };
        let f = Lineage::and([comp(0), comp(10)]);
        let (_, stats) = probability_with_stats(&f, &probs);
        assert!(stats.expansions >= 2, "needs ≥ 2 expansions in total");
        assert!(dag_budget(&f, &probs, 1).is_none());
        assert!(dag_budget(&f, &probs, stats.expansions).is_some());
    }

    #[test]
    fn expansion_budget_countdown() {
        let mut b = ExpansionBudget::new(2);
        assert_eq!(b.remaining(), 2);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert_eq!(b.remaining(), 0);
        assert!(!b.try_spend());
        assert!(!b.try_spend());
    }

    #[test]
    fn dag_engine_matches_tree_engine_exactly() {
        use infpdb_core::space::rand_core::{RngCore, SplitMix64};
        let mut rng = SplitMix64::new(7_2026);
        for trial in 0..80 {
            fn random_lineage(rng: &mut SplitMix64, depth: usize) -> Lineage {
                let choice = rng.next_u64() % if depth == 0 { 2 } else { 5 };
                match choice {
                    0 => Lineage::Var(FactId((rng.next_u64() % 6) as u32)),
                    1 => Lineage::Var(FactId((rng.next_u64() % 6) as u32)).negate(),
                    2 => Lineage::and([
                        random_lineage(rng, depth - 1),
                        random_lineage(rng, depth - 1),
                    ]),
                    3 => Lineage::or([
                        random_lineage(rng, depth - 1),
                        random_lineage(rng, depth - 1),
                    ]),
                    _ => random_lineage(rng, depth - 1).negate(),
                }
            }
            let l = random_lineage(&mut rng, 4);
            let ps: Vec<f64> = (0..6)
                .map(|_| (rng.next_u64() % 1000) as f64 / 1000.0)
                .collect();
            let probs = |id: FactId| ps[id.0 as usize];
            let (tree_p, tree_stats) = probability_with_stats(&l, &probs);
            let mut arena = LineageArena::new();
            let root = arena.from_lineage(&l);
            let (dag_p, dag_stats) = probability_dag_with_stats(&mut arena, root, &probs);
            // bit-for-bit, not approximately
            assert_eq!(
                tree_p.to_bits(),
                dag_p.to_bits(),
                "trial {trial}: tree {tree_p} != dag {dag_p} on {l:?}"
            );
            assert_eq!(tree_stats.expansions, dag_stats.expansions, "trial {trial}");
            assert_eq!(
                tree_stats.decompositions, dag_stats.decompositions,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn dag_memo_hits_on_shared_substructure() {
        // (x0∧x1∧x2) ∨ (¬x0∧x1∧x2): expanding on x0 gives the SAME
        // cofactor (x1∧x2) on both branches — the second probe must be an
        // O(1) id-keyed memo hit.
        let probs = |_: FactId| 0.5;
        let f = Lineage::or([
            Lineage::and([v(0), v(1), v(2)]),
            Lineage::and([v(0).negate(), v(1), v(2)]),
        ]);
        let mut arena = LineageArena::new();
        let root = arena.from_lineage(&f);
        let (p, stats) = probability_dag_with_stats(&mut arena, root, &probs);
        assert!((p - 0.25).abs() < 1e-12, "f ≡ x1 ∧ x2");
        assert!(stats.cache_hits >= 1, "shared cofactor must hit the memo");
        // and the tree engine behaves the same way
        let (tp, tstats) = probability_with_stats(&f, &probs);
        assert_eq!(tp.to_bits(), p.to_bits());
        assert_eq!(tstats.cache_hits, stats.cache_hits);
    }

    #[test]
    fn end_to_end_query_probability_matches_world_enumeration() {
        let schema =
            Schema::from_relations([Relation::new("R", 1), Relation::new("S", 1)]).unwrap();
        let r = schema.rel_id("R").unwrap();
        let s = schema.rel_id("S").unwrap();
        let t = TiTable::from_facts(
            schema,
            [
                (Fact::new(r, [Value::int(1)]), 0.5),
                (Fact::new(r, [Value::int(2)]), 0.3),
                (Fact::new(s, [Value::int(1)]), 0.8),
                (Fact::new(s, [Value::int(2)]), 0.1),
            ],
        )
        .unwrap();
        let pdb = t.worlds().unwrap();
        for qs in [
            "exists x. R(x) /\\ S(x)",
            "forall x. (R(x) -> S(x))",
            "exists x, y. R(x) /\\ S(y) /\\ x != y",
            "exists x. R(x) \\/ S(x)",
        ] {
            let q = parse(qs, t.schema()).unwrap();
            let l = lineage_of(&q, &t).unwrap();
            let fast = probability(&l, &|id| t.prob(id));
            let slow = pdb.prob_boolean(&q).unwrap();
            assert!((fast - slow).abs() < 1e-9, "{qs}: {fast} vs {slow}");
        }
    }
}
