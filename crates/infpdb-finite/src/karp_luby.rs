//! The Karp–Luby FPRAS for monotone (DNF) lineage.
//!
//! Unions of conjunctive queries have *monotone* lineage — an Or of Ands
//! of positive fact variables, i.e. a DNF. For DNF, the classical
//! Karp–Luby coverage estimator gives a fully polynomial randomized
//! approximation scheme even where exact inference is #P-hard (e.g. the
//! non-hierarchical `H₀`): relative (multiplicative!) error `ε` with
//! confidence `1 − δ` from `O(m·ln(1/δ)/ε²)` samples, `m` the number of
//! clauses. (No contradiction with Proposition 6.2: the inapproximability
//! there is about *infinite* PDBs where even deciding `P > 0` embeds the
//! halting problem; on a *finite* table the DNF is explicit.)
//!
//! The estimator: with `w_i = P(clause_i)` and `W = ∑ w_i`, repeatedly
//! pick a clause `i` with probability `w_i/W`, sample a world conditioned
//! on `clause_i` being true, and score 1 iff `i` is the *first* satisfied
//! clause in that world. The score's mean is `P(⋁ clauses)/W`.
//!
//! [`estimate_dnf_parallel`] is the one estimator: the planner's
//! Karp–Luby strategy converts a component's lineage with
//! [`to_dnf_arena`] and runs it with a master seed derived from the plan.
//! Its samples are drawn in the same seeded chunks as
//! [`crate::monte_carlo::estimate_parallel`]'s.

use crate::arena::{LineageArena, LineageId, LineageNode};
use crate::lineage::Lineage;
use crate::shannon::TaskExecutor;
use crate::TiTable;
use infpdb_core::fact::FactId;
use infpdb_core::space::rand_core::RngCore;
use std::collections::HashMap;
use std::sync::Arc;

/// A monotone DNF: each clause is a set of fact variables, all positive.
pub type Dnf = Vec<Vec<FactId>>;

/// Converts monotone lineage to DNF, refusing (with `None`) if the clause
/// count would exceed `max_clauses` or the lineage contains negation.
pub fn to_dnf(lineage: &Lineage, max_clauses: usize) -> Option<Dnf> {
    match lineage {
        Lineage::Top => Some(vec![vec![]]),
        Lineage::Bot => Some(vec![]),
        Lineage::Var(id) => Some(vec![vec![*id]]),
        Lineage::Not(_) => None, // not monotone
        Lineage::Or(children) => {
            let mut out: Dnf = Vec::new();
            for c in children {
                let mut d = to_dnf(c, max_clauses)?;
                out.append(&mut d);
                if out.len() > max_clauses {
                    return None;
                }
            }
            Some(out)
        }
        Lineage::And(children) => {
            let mut acc: Dnf = vec![vec![]];
            for c in children {
                let d = to_dnf(c, max_clauses)?;
                let mut next: Dnf = Vec::with_capacity(acc.len() * d.len().max(1));
                for clause_a in &acc {
                    for clause_b in &d {
                        let mut merged = clause_a.clone();
                        merged.extend_from_slice(clause_b);
                        merged.sort_unstable();
                        merged.dedup();
                        next.push(merged);
                        if next.len() > max_clauses {
                            return None;
                        }
                    }
                }
                acc = next;
            }
            Some(acc)
        }
    }
}

/// Converts a monotone arena node to DNF by a memoized postorder pass —
/// the DAG analogue of [`to_dnf`]. Shared subgraphs convert **once**
/// (their clause lists are reused by id), and clause order is exactly the
/// order the tree conversion would produce on the corresponding canonical
/// tree, so downstream seeded estimation is unchanged.
pub fn to_dnf_arena(arena: &LineageArena, root: LineageId, max_clauses: usize) -> Option<Dnf> {
    let mut memo: HashMap<LineageId, Dnf> = HashMap::new();
    to_dnf_rec(arena, root, max_clauses, &mut memo)
}

fn to_dnf_rec(
    arena: &LineageArena,
    id: LineageId,
    max_clauses: usize,
    memo: &mut HashMap<LineageId, Dnf>,
) -> Option<Dnf> {
    if let Some(d) = memo.get(&id) {
        return Some(d.clone());
    }
    let out = match arena.node(id) {
        LineageNode::Top => vec![vec![]],
        LineageNode::Bot => vec![],
        LineageNode::Var(v) => vec![vec![*v]],
        LineageNode::Not(_) => return None, // not monotone
        LineageNode::Or(children) => {
            let children = children.clone();
            let mut out: Dnf = Vec::new();
            for &c in children.iter() {
                let mut d = to_dnf_rec(arena, c, max_clauses, memo)?;
                out.append(&mut d);
                if out.len() > max_clauses {
                    return None;
                }
            }
            out
        }
        LineageNode::And(children) => {
            let children = children.clone();
            let mut acc: Dnf = vec![vec![]];
            for &c in children.iter() {
                let d = to_dnf_rec(arena, c, max_clauses, memo)?;
                let mut next: Dnf = Vec::with_capacity(acc.len() * d.len().max(1));
                for clause_a in &acc {
                    for clause_b in &d {
                        let mut merged = clause_a.clone();
                        merged.extend_from_slice(clause_b);
                        merged.sort_unstable();
                        merged.dedup();
                        next.push(merged);
                        if next.len() > max_clauses {
                            return None;
                        }
                    }
                }
                acc = next;
            }
            acc
        }
    };
    memo.insert(id, out.clone());
    Some(out)
}

/// A Karp–Luby estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KlEstimate {
    /// The estimated probability of the DNF.
    pub estimate: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Number of clauses.
    pub clauses: usize,
}

/// Trivalent assignment cells for the flat Karp–Luby scratch.
const KL_UNSET: u8 = 0;
const KL_FALSE: u8 = 1;
const KL_TRUE: u8 = 2;

/// One batch of coverage draws: returns how many of `n` samples scored.
///
/// Flat kernel: the per-sample assignment lives in a dense `u8` scratch
/// indexed by fact id (fact ids are table positions) instead of a hash
/// map, so the conditional-sampling loop and the first-satisfied-clause
/// scan are plain slice indexing. The RNG consumption is exactly the
/// hash-map version's: one draw to select the clause, then one draw per
/// *unset* variable in sorted `vars` order — so hit counts (and hence
/// seeded estimates) are bit-for-bit unchanged. Only the variables in
/// `vars` are reset between samples, so chunk cost stays proportional to
/// the DNF's footprint, not the table size.
fn kl_chunk<R: RngCore>(
    dnf: &Dnf,
    table: &TiTable,
    weights: &[f64],
    total_w: f64,
    vars: &[FactId],
    n: usize,
    rng: &mut R,
) -> usize {
    let m = dnf.len();
    let mut hits = 0usize;
    let width = vars.iter().map(|v| v.0 as usize + 1).max().unwrap_or(0);
    let mut assignment: Vec<u8> = vec![KL_UNSET; width];
    for _ in 0..n {
        // pick clause i ∝ w_i
        let mut u = (rng.next_u64() as f64 / u64::MAX as f64) * total_w;
        let mut chosen = m - 1;
        for (i, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                chosen = i;
                break;
            }
        }
        // sample a world conditioned on clause `chosen` true
        for &v in vars {
            assignment[v.0 as usize] = KL_UNSET;
        }
        for &v in &dnf[chosen] {
            assignment[v.0 as usize] = KL_TRUE;
        }
        for &v in vars {
            let cell = &mut assignment[v.0 as usize];
            if *cell == KL_UNSET {
                *cell = if (rng.next_u64() as f64 / u64::MAX as f64) < table.prob(v) {
                    KL_TRUE
                } else {
                    KL_FALSE
                };
            }
        }
        // score iff `chosen` is the first satisfied clause
        let first_satisfied = dnf
            .iter()
            .position(|c| c.iter().all(|v| assignment[v.0 as usize] == KL_TRUE))
            .expect("the chosen clause is satisfied");
        if first_satisfied == chosen {
            hits += 1;
        }
    }
    hits
}

/// Deterministic, optionally parallel Karp–Luby estimate.
///
/// Samples are drawn in [`crate::monte_carlo::SAMPLE_CHUNK`]-sized chunks
/// seeded per chunk from `seed` (the same chunk seeds as
/// [`crate::monte_carlo::estimate_parallel`]) and hit counts are summed,
/// so the estimate is **bit-for-bit identical** at every thread count.
/// With `threads ≥ 2` the chunks are striped over tasks on `exec`, each
/// owning a clone of the table and sharing the DNF; `None` means the
/// executor skipped a stripe.
pub fn estimate_dnf_parallel(
    dnf: &Dnf,
    table: &TiTable,
    samples: usize,
    seed: u64,
    threads: usize,
    exec: &dyn TaskExecutor,
) -> Option<KlEstimate> {
    use crate::monte_carlo::{run_stripes, sample_chunks};
    use infpdb_core::space::rand_core::SplitMix64;
    assert!(samples > 0, "need at least one sample");
    let m = dnf.len();
    let constant = |estimate| {
        Some(KlEstimate {
            estimate,
            samples,
            clauses: m,
        })
    };
    if m == 0 {
        return constant(0.0);
    }
    let weights: Vec<f64> = dnf
        .iter()
        .map(|c| c.iter().map(|&v| table.prob(v)).product())
        .collect();
    let total_w: f64 = weights.iter().sum();
    if total_w == 0.0 {
        return constant(0.0);
    }
    if dnf.iter().any(|c| c.is_empty()) {
        return constant(1.0);
    }
    let mut vars: Vec<FactId> = dnf.iter().flatten().copied().collect();
    vars.sort_unstable();
    vars.dedup();
    let chunks = sample_chunks(samples, seed);
    let hits: usize = if threads < 2 || chunks.len() < 2 {
        chunks
            .iter()
            .map(|&(s, n)| {
                kl_chunk(
                    dnf,
                    table,
                    &weights,
                    total_w,
                    &vars,
                    n,
                    &mut SplitMix64::new(s),
                )
            })
            .sum()
    } else {
        let shared = Arc::new((dnf.clone(), weights, vars));
        run_stripes(&chunks, threads.min(chunks.len()), exec, || {
            let (shared, table) = (Arc::clone(&shared), table.clone());
            move |s, n| {
                let (dnf, weights, vars) = &*shared;
                kl_chunk(
                    dnf,
                    &table,
                    weights,
                    total_w,
                    vars,
                    n,
                    &mut SplitMix64::new(s),
                )
            }
        })?
    };
    constant((total_w * hits as f64 / samples as f64).min(1.0))
}

/// Samples needed for a multiplicative `(ε, δ)` guarantee: the coverage
/// estimator's score is a Bernoulli with mean `≥ 1/m`, so
/// `n ≥ 3·m·ln(2/δ)/ε²` suffices (standard Karp–Luby–Madras analysis).
pub fn samples_for(clauses: usize, eps: f64, delta: f64) -> usize {
    assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
    (3.0 * clauses.max(1) as f64 * (2.0 / delta).ln() / (eps * eps)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::lineage::lineage_of_arena;
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_core::space::rand_core::SplitMix64;
    use infpdb_core::value::Value;
    use infpdb_logic::ast::Formula;
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
                (Fact::new(s2, [Value::int(2), Value::int(1)]), 0.6),
                (Fact::new(t2, [Value::int(1)]), 0.7),
                (Fact::new(t2, [Value::int(2)]), 0.2),
            ],
        )
        .unwrap()
    }

    fn v(i: u32) -> FactId {
        FactId(i)
    }

    /// The query's DNF within `max_clauses`, or `None` when the lineage
    /// is not a bounded monotone DNF.
    fn dnf_of(q: &Formula, t: &TiTable, max_clauses: usize) -> Option<Dnf> {
        let mut arena = LineageArena::new();
        let root = lineage_of_arena(q, t, &mut arena).unwrap();
        to_dnf_arena(&arena, root, max_clauses)
    }

    /// The sequential seeded estimate: `seed` is the master seed.
    fn seeded(dnf: &Dnf, t: &TiTable, samples: usize, seed: u64) -> KlEstimate {
        let exec = crate::shannon::ScopedExecutor { threads: 1 };
        estimate_dnf_parallel(dnf, t, samples, seed, 1, &exec).expect("nothing skips")
    }

    #[test]
    fn to_dnf_basic_shapes() {
        assert_eq!(to_dnf(&Lineage::Bot, 10), Some(vec![]));
        assert_eq!(to_dnf(&Lineage::Top, 10), Some(vec![vec![]]));
        assert_eq!(to_dnf(&Lineage::Var(v(3)), 10), Some(vec![vec![v(3)]]));
        let and = Lineage::and([Lineage::Var(v(0)), Lineage::Var(v(1))]);
        assert_eq!(to_dnf(&and, 10), Some(vec![vec![v(0), v(1)]]));
        let or = Lineage::or([Lineage::Var(v(0)), Lineage::Var(v(1))]);
        assert_eq!(to_dnf(&or, 10).unwrap().len(), 2);
        // distribution: (a ∨ b) ∧ (c ∨ d) → 4 clauses
        let f = Lineage::and([
            Lineage::or([Lineage::Var(v(0)), Lineage::Var(v(1))]),
            Lineage::or([Lineage::Var(v(2)), Lineage::Var(v(3))]),
        ]);
        assert_eq!(to_dnf(&f, 10).unwrap().len(), 4);
        // clause cap
        assert_eq!(to_dnf(&f, 3), None);
        // negation refused
        assert_eq!(to_dnf(&Lineage::Var(v(0)).negate(), 10), None);
    }

    #[test]
    fn arena_dnf_matches_tree_dnf_clause_for_clause() {
        let t = table();
        for qs in [
            "exists x, y. R(x) /\\ S(x, y) /\\ T(y)",
            "(exists x. R(x)) \\/ (exists y. T(y))",
            "R(1) /\\ T(1)",
            "exists x. R(x) /\\ T(x)",
        ] {
            let q = parse(qs, t.schema()).unwrap();
            let tree = crate::lineage::lineage_of(&q, &t).unwrap();
            let mut arena = LineageArena::new();
            let root = lineage_of_arena(&q, &t, &mut arena).unwrap();
            assert_eq!(
                to_dnf_arena(&arena, root, 1000),
                to_dnf(&tree, 1000),
                "{qs}: clause lists (including order) must coincide"
            );
        }
    }

    #[test]
    fn karp_luby_matches_exact_on_h0() {
        // H₀ is non-hierarchical (no safe plan) but its lineage is monotone
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let exact = engine::prob_lineage(&q, &t).unwrap();
        let est = seeded(&dnf_of(&q, &t, 1000).unwrap(), &t, 60_000, 99);
        assert!(
            (est.estimate - exact).abs() < 0.02 * exact.max(0.05),
            "KL {} vs exact {exact}",
            est.estimate
        );
        assert!(est.clauses >= 2);
    }

    #[test]
    fn karp_luby_matches_exact_on_simple_union() {
        let t = table();
        let q = parse("(exists x. R(x)) \\/ (exists y. T(y))", t.schema()).unwrap();
        let exact = engine::prob_lineage(&q, &t).unwrap();
        let est = seeded(&dnf_of(&q, &t, 100).unwrap(), &t, 40_000, 7);
        assert!((est.estimate - exact).abs() < 0.02);
    }

    #[test]
    fn degenerate_dnfs() {
        let t = table();
        let zero = seeded(&vec![], &t, 10, 1);
        assert_eq!(zero.estimate, 0.0);
        let one = seeded(&vec![vec![]], &t, 10, 1);
        assert_eq!(one.estimate, 1.0);
        // all-zero weights
        let mut t2 = table();
        t2.add_fact(Fact::new(RelId(0), [Value::int(9)]), 0.0)
            .unwrap();
        let id = t2.len() as u32 - 1;
        let z = seeded(&vec![vec![FactId(id)]], &t2, 10, 1);
        assert_eq!(z.estimate, 0.0);
    }

    #[test]
    fn parallel_estimate_is_thread_count_invariant() {
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let exact = engine::prob_lineage(&q, &t).unwrap();
        let dnf = dnf_of(&q, &t, 1000).unwrap();
        let run = |dnf: &Dnf, samples, seed, threads| {
            let exec = crate::shannon::ScopedExecutor { threads };
            estimate_dnf_parallel(dnf, &t, samples, seed, threads, &exec).unwrap()
        };
        let base = run(&dnf, 30_000, 17, 1);
        assert!((base.estimate - exact).abs() < 0.03 * exact.max(0.05));
        for threads in [2, 4, 5] {
            let e = run(&dnf, 30_000, 17, threads);
            assert_eq!(
                e.estimate.to_bits(),
                base.estimate.to_bits(),
                "threads={threads}"
            );
            assert_eq!(e.clauses, base.clauses);
        }
        // degenerate shapes short-circuit identically at any thread count
        assert_eq!(run(&vec![], 10, 3, 4).estimate, 0.0);
        assert_eq!(run(&vec![vec![]], 10, 3, 4).estimate, 1.0);
    }

    #[test]
    fn flat_chunk_matches_hashmap_reference_exactly() {
        // the pre-flattening chunk kernel: HashMap assignment, same draws
        fn reference_chunk<R: RngCore>(
            dnf: &Dnf,
            table: &TiTable,
            weights: &[f64],
            total_w: f64,
            vars: &[FactId],
            n: usize,
            rng: &mut R,
        ) -> usize {
            let m = dnf.len();
            let mut hits = 0usize;
            let mut assignment: HashMap<FactId, bool> = HashMap::with_capacity(vars.len());
            for _ in 0..n {
                let mut u = (rng.next_u64() as f64 / u64::MAX as f64) * total_w;
                let mut chosen = m - 1;
                for (i, w) in weights.iter().enumerate() {
                    u -= w;
                    if u <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                assignment.clear();
                for &v in &dnf[chosen] {
                    assignment.insert(v, true);
                }
                for &v in vars {
                    assignment.entry(v).or_insert_with(|| {
                        (rng.next_u64() as f64 / u64::MAX as f64) < table.prob(v)
                    });
                }
                let first_satisfied = dnf
                    .iter()
                    .position(|c| c.iter().all(|v| assignment[v]))
                    .expect("the chosen clause is satisfied");
                if first_satisfied == chosen {
                    hits += 1;
                }
            }
            hits
        }
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        let dnf = dnf_of(&q, &t, 1000).unwrap();
        let weights: Vec<f64> = dnf
            .iter()
            .map(|c| c.iter().map(|&v| t.prob(v)).product())
            .collect();
        let total_w: f64 = weights.iter().sum();
        let mut vars: Vec<FactId> = dnf.iter().flatten().copied().collect();
        vars.sort_unstable();
        vars.dedup();
        for seed in [0u64, 3, 99, 0xFEED_FACE] {
            let mut a = SplitMix64::new(seed);
            let mut b = SplitMix64::new(seed);
            assert_eq!(
                kl_chunk(&dnf, &t, &weights, total_w, &vars, 2000, &mut a),
                reference_chunk(&dnf, &t, &weights, total_w, &vars, 2000, &mut b),
                "seed={seed}"
            );
            // identical RNG consumption, too
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rejects_non_monotone_queries() {
        let t = table();
        let q = parse("exists x. R(x) /\\ !T(x)", t.schema()).unwrap();
        assert_eq!(dnf_of(&q, &t, 100), None);
    }

    #[test]
    fn single_clause_estimates_are_exact_in_expectation() {
        // one clause: the estimator always scores 1, result = W exactly
        let t = table();
        let q = parse("R(1) /\\ T(1)", t.schema()).unwrap();
        let est = seeded(&dnf_of(&q, &t, 10).unwrap(), &t, 100, 5);
        assert!((est.estimate - 0.35).abs() < 1e-12);
    }

    #[test]
    fn samples_for_scales_with_clauses() {
        let a = samples_for(10, 0.1, 0.05);
        let b = samples_for(100, 0.1, 0.05);
        assert!(b > 9 * a && b < 11 * a);
        assert!(samples_for(0, 0.1, 0.05) > 0);
    }

    #[test]
    fn relative_error_even_for_small_probabilities() {
        // the whole point of KL vs additive MC: tiny probabilities keep
        // relative accuracy
        let s = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        let t = TiTable::from_facts(
            s,
            [
                (Fact::new(RelId(0), [Value::int(1)]), 1e-4),
                (Fact::new(RelId(0), [Value::int(2)]), 2e-4),
            ],
        )
        .unwrap();
        let q = parse("exists x. R(x)", t.schema()).unwrap();
        let exact = engine::prob_lineage(&q, &t).unwrap();
        let est = seeded(&dnf_of(&q, &t, 10).unwrap(), &t, 50_000, 11);
        let rel = (est.estimate - exact).abs() / exact;
        assert!(rel < 0.05, "relative error {rel} on P = {exact}");
    }
}
