//! Monte-Carlo estimation of query probabilities.
//!
//! For queries outside the tractable fragments, sample worlds from the
//! tuple-independent table and count satisfying ones. Hoeffding's
//! inequality gives the usual `(ε, δ)` additive guarantee:
//! `n ≥ ln(2/δ) / (2ε²)` samples suffice for
//! `P(|p̂ − p| > ε) ≤ δ` ([`samples_for`]).
//!
//! [`estimate_parallel`] is the one estimator: the planner's Monte-Carlo
//! strategy runs it, with a master seed derived from the plan. The query
//! is grounded **once** into a hash-consed [`LineageArena`]; samples are
//! drawn in [`SAMPLE_CHUNK`]-sized chunks, each from its own generator
//! seeded off the master seed, and each sampled world is judged by a
//! single linear pass over the arena's dense node ids
//! ([`LineageArena::eval_flat`](crate::arena::LineageArena::eval_flat))
//! with reused scratch buffers — no per-sample formula walk, no
//! per-sample allocation.

use crate::arena::{LineageArena, LineageId};
use crate::lineage::lineage_of_arena;
use crate::shannon::{run_jobs, Job, TaskExecutor};
use crate::{FiniteError, TiTable};
use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use infpdb_logic::ast::Formula;

/// A Monte-Carlo estimate with its Hoeffding error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// The point estimate `p̂`.
    pub estimate: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Half-width `ε` such that `P(|p̂ − p| > ε) ≤ δ` for the `δ` the
    /// sample count was derived from (or 0.05 by default reporting).
    pub half_width: f64,
}

/// Number of samples for an additive `(ε, δ)` guarantee by Hoeffding.
pub fn samples_for(eps: f64, delta: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize
}

/// Fixed chunk size of the deterministic sampler: seeds are derived per
/// chunk, not per thread, so the estimate is a pure function of
/// `(query, table, samples, seed)` — identical at every thread count.
pub const SAMPLE_CHUNK: usize = 1024;

/// The seed of chunk `c`: the `c`-th output of `SplitMix64::new(seed)`,
/// computed directly from the generator's state after `c` steps. Seeding
/// with the states themselves would make chunk `c + 1`'s generator chunk
/// `c`'s advanced by one draw, so every chunk would replay one stream.
fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    SplitMix64::new(seed.wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// The `(seed, samples)` chunks of a deterministic sampler: chunk `c`
/// covers samples `[c·CHUNK, min((c+1)·CHUNK, samples))`.
pub(crate) fn sample_chunks(samples: usize, seed: u64) -> Vec<(u64, usize)> {
    (0..samples.div_ceil(SAMPLE_CHUNK))
        .map(|c| {
            let n = SAMPLE_CHUNK.min(samples - c * SAMPLE_CHUNK);
            (chunk_seed(seed, c as u64), n)
        })
        .collect()
}

/// Sums the hit counts of `chunks` as one task per worker stripe on
/// `exec`: stripe `k` of `workers` runs chunks `k, k + workers, …` with
/// the kernel `stripe()` built for it, which owns everything it reads.
/// Integer sums are order-free, so the total is the sequential one;
/// `None` when the executor skipped a stripe.
pub(crate) fn run_stripes<K>(
    chunks: &[(u64, usize)],
    workers: usize,
    exec: &dyn TaskExecutor,
    mut stripe: impl FnMut() -> K,
) -> Option<usize>
where
    K: FnMut(u64, usize) -> usize + Send + 'static,
{
    let jobs: Vec<Job<usize>> = (0..workers)
        .map(|k| {
            let mine: Vec<(u64, usize)> = chunks.iter().skip(k).step_by(workers).copied().collect();
            let mut kernel = stripe();
            Box::new(move || mine.into_iter().map(|(s, n)| kernel(s, n)).sum()) as Job<usize>
        })
        .collect();
    Some(run_jobs(exec, jobs)?.into_iter().sum())
}

/// The flat per-chunk kernel: worlds are drawn into a reused dense
/// `present` vector ([`TiTable::sample_into`]) and judged by slice
/// indexing ([`LineageArena::eval_flat`]) — no per-sample `Instance`
/// allocation or hash-set probe. Both scratch buffers are owned by the
/// worker and reused across its chunks. Bit-for-bit the same hit count
/// as the `sample`/`eval_into` pair: the RNG consumption and the world
/// contents are identical.
fn run_chunk(
    arena: &LineageArena,
    root: LineageId,
    table: &TiTable,
    n: usize,
    seed: u64,
    present: &mut Vec<bool>,
    buf: &mut Vec<bool>,
) -> usize {
    let mut rng = SplitMix64::new(seed);
    let mut hits = 0usize;
    for _ in 0..n {
        table.sample_into(&mut rng, present);
        if arena.eval_flat(root, present, buf) {
            hits += 1;
        }
    }
    hits
}

/// Deterministic, optionally parallel Monte-Carlo estimate.
///
/// Samples are drawn in [`SAMPLE_CHUNK`]-sized chunks, each from its own
/// `chunk_seed`-derived RNG; chunk hit counts are summed (an
/// order-free integer sum), so the result is **bit-for-bit identical**
/// for every `threads` value, including `1`. With `threads ≥ 2` the
/// chunks are striped over tasks on `exec`, each evaluating worlds
/// against its own clone of the grounded arena (the memoized structural
/// comparator makes `&LineageArena` non-`Sync`) and of the table (whose
/// interner and probabilities are shared). `Ok(None)` means the executor
/// skipped a stripe.
pub fn estimate_parallel(
    query: &Formula,
    table: &TiTable,
    samples: usize,
    seed: u64,
    threads: usize,
    exec: &dyn TaskExecutor,
) -> Result<Option<McEstimate>, FiniteError> {
    let mut arena = LineageArena::new();
    let root = lineage_of_arena(query, table, &mut arena)?;
    Ok(estimate_lineage(
        &arena, root, table, samples, seed, threads, exec,
    ))
}

/// [`estimate_parallel`] on an already grounded lineage.
pub(crate) fn estimate_lineage(
    arena: &LineageArena,
    root: LineageId,
    table: &TiTable,
    samples: usize,
    seed: u64,
    threads: usize,
    exec: &dyn TaskExecutor,
) -> Option<McEstimate> {
    assert!(samples > 0, "need at least one sample");
    let chunks = sample_chunks(samples, seed);
    let hits = if threads < 2 || chunks.len() < 2 {
        let (mut present, mut buf) = (Vec::new(), Vec::new());
        chunks
            .iter()
            .map(|&(s, n)| run_chunk(arena, root, table, n, s, &mut present, &mut buf))
            .sum()
    } else {
        let stripes = run_stripes(&chunks, threads.min(chunks.len()), exec, || {
            let (arena, table) = (arena.clone(), table.clone());
            let (mut present, mut buf) = (Vec::new(), Vec::new());
            move |s, n| run_chunk(&arena, root, &table, n, s, &mut present, &mut buf)
        });
        stripes?
    };
    let half_width = ((2.0f64 / 0.05).ln() / (2.0 * samples as f64)).sqrt();
    Some(McEstimate {
        estimate: hits as f64 / samples as f64,
        samples,
        half_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{Relation, Schema};
    use infpdb_core::value::Value;
    use infpdb_logic::parse;

    /// The sequential seeded estimate: `seed` is the master seed.
    fn seeded(
        q: &Formula,
        t: &TiTable,
        samples: usize,
        seed: u64,
    ) -> Result<McEstimate, FiniteError> {
        let exec = crate::shannon::ScopedExecutor { threads: 1 };
        estimate_parallel(q, t, samples, seed, 1, &exec).map(|e| e.expect("nothing skips"))
    }

    fn table() -> TiTable {
        let s = Schema::from_relations([Relation::new("R", 1), Relation::new("S", 1)]).unwrap();
        let r = s.rel_id("R").unwrap();
        let t = s.rel_id("S").unwrap();
        TiTable::from_facts(
            s,
            [
                (Fact::new(r, [Value::int(1)]), 0.5),
                (Fact::new(r, [Value::int(2)]), 0.3),
                (Fact::new(t, [Value::int(1)]), 0.8),
            ],
        )
        .unwrap()
    }

    #[test]
    fn samples_for_hoeffding() {
        // ln(2/0.05)/(2·0.1²) ≈ 184.4 → 185
        assert_eq!(samples_for(0.1, 0.05), 185);
        assert!(samples_for(0.01, 0.05) > 10_000);
    }

    #[test]
    #[should_panic(expected = "eps")]
    fn samples_for_rejects_bad_eps() {
        samples_for(0.0, 0.05);
    }

    #[test]
    fn chunk_seeds_are_the_master_streams_outputs() {
        let mut master = SplitMix64::new(42);
        let seeds: Vec<u64> = sample_chunks(5 * SAMPLE_CHUNK, 42)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(seeds, (0..5).map(|_| master.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn estimate_converges_to_truth() {
        let t = table();
        let q = parse("exists x. R(x) /\\ S(x)", t.schema()).unwrap();
        let truth = t.worlds().unwrap().prob_boolean(&q).unwrap();
        let e = seeded(&q, &t, 20_000, 5).unwrap();
        assert!(
            (e.estimate - truth).abs() < 0.02,
            "estimate {} vs truth {truth}",
            e.estimate
        );
        assert_eq!(e.samples, 20_000);
        assert!(e.half_width < 0.02);
    }

    #[test]
    fn parallel_estimate_is_thread_count_invariant() {
        let t = table();
        let q = parse("exists x. R(x) \\/ S(x)", t.schema()).unwrap();
        let truth = t.worlds().unwrap().prob_boolean(&q).unwrap();
        let run = |seed, threads| {
            let exec = crate::shannon::ScopedExecutor { threads };
            estimate_parallel(&q, &t, 10_000, seed, threads, &exec)
                .unwrap()
                .unwrap()
        };
        let base = run(42, 1);
        assert!((base.estimate - truth).abs() < 0.03);
        for threads in [2, 4, 7] {
            let e = run(42, threads);
            assert_eq!(
                e.estimate.to_bits(),
                base.estimate.to_bits(),
                "threads={threads}"
            );
            assert_eq!(e.samples, base.samples);
        }
        // a different master seed gives a different (still valid) estimate
        let other = run(43, 2);
        assert_ne!(other.estimate.to_bits(), base.estimate.to_bits());
    }

    #[test]
    fn flat_chunk_matches_instance_based_reference_exactly() {
        // the pre-flattening chunk kernel: sample an Instance, probe it
        fn reference_chunk(
            arena: &LineageArena,
            root: crate::arena::LineageId,
            table: &TiTable,
            n: usize,
            seed: u64,
        ) -> usize {
            let mut rng = SplitMix64::new(seed);
            let mut buf = Vec::new();
            let mut hits = 0usize;
            for _ in 0..n {
                let world = table.sample(&mut rng);
                if arena.eval_into(root, &world, &mut buf) {
                    hits += 1;
                }
            }
            hits
        }
        let t = table();
        let q = parse("exists x. R(x) /\\ S(x)", t.schema()).unwrap();
        let mut arena = LineageArena::new();
        let root = lineage_of_arena(&q, &t, &mut arena).unwrap();
        let (mut present, mut buf) = (Vec::new(), Vec::new());
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(
                run_chunk(&arena, root, &t, 1000, seed, &mut present, &mut buf),
                reference_chunk(&arena, root, &t, 1000, seed),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn rejects_free_variables() {
        let t = table();
        let q = parse("R(x)", t.schema()).unwrap();
        assert!(seeded(&q, &t, 10, 1).is_err());
    }

    #[test]
    fn degenerate_probabilities() {
        let t = table();
        let yes = parse("true", t.schema()).unwrap();
        assert_eq!(seeded(&yes, &t, 50, 2).unwrap().estimate, 1.0);
        let no = parse("false", t.schema()).unwrap();
        assert_eq!(seeded(&no, &t, 50, 2).unwrap().estimate, 0.0);
    }
}
