//! `bench store`: the durable store at scale (ISSUE 10 acceptance).
//!
//! Grounds a multi-million-fact prefix of the zeta PDB straight into a
//! [`FactCatalog`], then walks the whole durable-store lifecycle and
//! times every stage:
//!
//! 1. **full snapshot** — every shard written;
//! 2. **append + incremental snapshot** — at most `⌈append/capacity⌉ + 1`
//!    tail shards may be rewritten (one per relation tail, plus the
//!    shards the appended range spills into); the run *fails* if the
//!    incremental write exceeds that bound, so the artifact is a proof,
//!    not a log;
//! 3. **idle snapshot** — must be a no-op that touches no file;
//! 4. **reopen** — one [`PreparedPdb::open`]: it loads the store once
//!    (mmap-backed views counted), must verify the manifest fingerprint,
//!    keep every fact, and take the fingerprint fast path (no
//!    fact-by-fact supply comparison);
//! 5. **answers** — a query matrix evaluated on the reopened catalog at
//!    thread counts 1 and 2 must be bit-for-bit identical to fresh
//!    grounding.
//!
//! The output is a standalone JSON artifact
//! (`BENCH_<iso-date>_store.json`, schema `infpdb-store-bench/v1`);
//! EXPERIMENTS.md §Perf-store records the checked-in numbers.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use infpdb_core::json::Json;
use infpdb_logic::parse;
use infpdb_query::approx::approx_prob_boolean_par;
use infpdb_query::cancel::CancelToken;
use infpdb_query::prepared::{PreparedPdb, PreparedQuery};
use infpdb_query::{Engine, PlanKnobs, StoreStatus};
use infpdb_store::{SnapshotInfo, Store};
use infpdb_ti::catalog::FactCatalog;
use infpdb_ti::fingerprint::countable_pdb_fingerprint;

use crate::zeta_pdb;

/// The query matrix the reopened catalog must answer bit-for-bit.
pub const QUERIES: [&str; 3] = [
    "exists x. R(x)",
    "R(1)",
    "exists x, y. R(x) /\\ R(y) /\\ x != y",
];

/// Tolerance the answer matrix runs at. Deliberately loose: what the
/// matrix certifies is *bit-identity* between the reopened catalog and
/// fresh grounding, not tightness, and a loose ε keeps the matrix cheap
/// next to the grounding (n(ε) on zeta is ~0.912/ε facts, and the
/// planner may route a cell through sampling).
pub const ANSWER_EPS: f64 = 1e-2;

/// Configuration for one `bench store` run.
#[derive(Debug, Clone)]
pub struct StoreBenchConfig {
    /// Total facts in the final snapshot (base + append).
    pub facts: usize,
    /// Facts appended between the full and the incremental snapshot.
    pub append: usize,
    /// Facts per shard file.
    pub shard_capacity: u64,
    /// Store directory; `None` uses (and removes) a fresh temp dir.
    pub dir: Option<PathBuf>,
    /// Whether this is the small CI sweep.
    pub smoke: bool,
}

impl StoreBenchConfig {
    /// The full 10⁷-fact run (shards of 2²⁰, one-shard append).
    pub fn full() -> Self {
        StoreBenchConfig {
            facts: 10_000_000,
            append: 1 << 20,
            shard_capacity: 1 << 20,
            dir: None,
            smoke: false,
        }
    }

    /// The CI smoke run: 10⁵ facts over 2¹⁴-fact shards, so the layout
    /// is still genuinely multi-shard.
    pub fn smoke() -> Self {
        StoreBenchConfig {
            facts: 100_000,
            append: 10_000,
            shard_capacity: 1 << 14,
            dir: None,
            smoke: true,
        }
    }
}

/// Timing and accounting for one snapshot call.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRow {
    /// Wall-clock seconds.
    pub secs: f64,
    /// What the store reported.
    pub info: SnapshotInfo,
}

/// One thread count's bit-identity verdict over the query matrix.
#[derive(Debug, Clone)]
pub struct AnswerRow {
    /// Intra-query parallelism used.
    pub threads: usize,
    /// Per-query `f64::to_bits` of the reopened-catalog estimate.
    pub estimate_bits: Vec<u64>,
    /// Whether every estimate matched fresh grounding bit-for-bit.
    pub identical: bool,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct StoreBenchReport {
    /// ISO date the artifact is stamped with.
    pub date: String,
    /// The configuration that produced it.
    pub config: StoreBenchConfig,
    /// Facts in the first (full) snapshot.
    pub base_facts: usize,
    /// Seconds to ground the base prefix into the catalog.
    pub ground_secs: f64,
    /// The full snapshot.
    pub full: SnapshotRow,
    /// Seconds to push the appended facts.
    pub append_secs: f64,
    /// The incremental snapshot after the append.
    pub incremental: SnapshotRow,
    /// The idle snapshot (must be unchanged).
    pub noop: SnapshotRow,
    /// Zero-copy mmap views during the reopen.
    pub mmap_maps: u64,
    /// Owned-buffer fallbacks during the reopen.
    pub mmap_fallbacks: u64,
    /// Whether the reopen verified the manifest fingerprint.
    pub fingerprint_verified: bool,
    /// Seconds for the reopen: one [`PreparedPdb::open`], store load
    /// included.
    pub open_secs: f64,
    /// Whether the open took the O(1) fingerprint fast path.
    pub supply_check_skipped: bool,
    /// Bit-identity verdicts at each thread count.
    pub answers: Vec<AnswerRow>,
}

impl StoreBenchReport {
    /// The shard-write bound the incremental snapshot must respect:
    /// the appended range spans at most `⌈append/capacity⌉` full new
    /// shards plus the previously partial tail shard it extends.
    pub fn incremental_write_bound(&self) -> usize {
        let cap = self.config.shard_capacity as usize;
        self.config.append.div_ceil(cap) + 1
    }

    /// Renders the standalone JSON artifact (`infpdb-store-bench/v1`).
    pub fn to_json(&self) -> String {
        let snap = |r: &SnapshotRow| {
            Json::obj([
                ("secs", Json::Float(r.secs)),
                ("epoch", Json::Int(r.info.epoch as i64)),
                ("facts", Json::Int(r.info.facts as i64)),
                ("bytes", Json::Int(r.info.bytes as i64)),
                ("shards_written", Json::Int(r.info.shards_written as i64)),
                ("shards_skipped", Json::Int(r.info.shards_skipped as i64)),
                ("unchanged", Json::Bool(r.info.unchanged)),
            ])
        };
        Json::obj([
            ("schema", Json::str("infpdb-store-bench/v1")),
            ("date", Json::str(self.date.clone())),
            ("smoke", Json::Bool(self.config.smoke)),
            ("facts", Json::Int(self.config.facts as i64)),
            ("base_facts", Json::Int(self.base_facts as i64)),
            ("append", Json::Int(self.config.append as i64)),
            (
                "shard_capacity",
                Json::Int(self.config.shard_capacity as i64),
            ),
            ("ground_secs", Json::Float(self.ground_secs)),
            ("full_snapshot", snap(&self.full)),
            ("append_secs", Json::Float(self.append_secs)),
            ("incremental_snapshot", snap(&self.incremental)),
            (
                "incremental_write_bound",
                Json::Int(self.incremental_write_bound() as i64),
            ),
            ("noop_snapshot", snap(&self.noop)),
            (
                "reopen",
                Json::obj([
                    ("mmap_maps", Json::Int(self.mmap_maps as i64)),
                    ("mmap_fallbacks", Json::Int(self.mmap_fallbacks as i64)),
                    (
                        "fingerprint_verified",
                        Json::Bool(self.fingerprint_verified),
                    ),
                ]),
            ),
            (
                "open",
                Json::obj([
                    ("secs", Json::Float(self.open_secs)),
                    (
                        "supply_check_skipped",
                        Json::Bool(self.supply_check_skipped),
                    ),
                ]),
            ),
            (
                "queries",
                Json::Array(QUERIES.iter().map(|q| Json::str(*q)).collect()),
            ),
            ("answer_eps", Json::Float(ANSWER_EPS)),
            (
                "answers",
                Json::Array(
                    self.answers
                        .iter()
                        .map(|a| {
                            Json::obj([
                                ("threads", Json::Int(a.threads as i64)),
                                ("identical", Json::Bool(a.identical)),
                                (
                                    "estimate_bits",
                                    Json::Array(
                                        a.estimate_bits
                                            .iter()
                                            .map(|b| Json::str(format!("{b:016x}")))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .encode_pretty()
    }

    /// Human-oriented summary.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        writeln!(
            out,
            "store bench: {} facts, shard capacity {}, append {}",
            self.config.facts, self.config.shard_capacity, self.config.append
        )
        .ok();
        writeln!(
            out,
            "  ground    {:>8.2}s  ({:.0} facts/s)",
            self.ground_secs,
            self.base_facts as f64 / self.ground_secs.max(1e-9)
        )
        .ok();
        writeln!(
            out,
            "  full      {:>8.2}s  {} shards, {:.1} MiB",
            self.full.secs,
            self.full.info.shards_written,
            mb(self.full.info.bytes)
        )
        .ok();
        writeln!(
            out,
            "  incr      {:>8.2}s  {} written / {} reused, {:.1} MiB (bound {})",
            self.incremental.secs,
            self.incremental.info.shards_written,
            self.incremental.info.shards_skipped,
            mb(self.incremental.info.bytes),
            self.incremental_write_bound()
        )
        .ok();
        writeln!(out, "  noop      {:>8.4}s  unchanged", self.noop.secs).ok();
        writeln!(
            out,
            "  open      {:>8.2}s  {} mapped / {} owned, fingerprint {}, supply check {}",
            self.open_secs,
            self.mmap_maps,
            self.mmap_fallbacks,
            if self.fingerprint_verified {
                "verified"
            } else {
                "UNVERIFIED"
            },
            if self.supply_check_skipped {
                "skipped (fast path)"
            } else {
                "RAN (slow path)"
            }
        )
        .ok();
        for a in &self.answers {
            writeln!(
                out,
                "  answers   threads {}: {}",
                a.threads,
                if a.identical {
                    "bit-for-bit identical"
                } else {
                    "MISMATCH"
                }
            )
            .ok();
        }
        out
    }
}

/// Grounds `n` facts of the supply into a fresh catalog (or extends
/// `catalog` up to length `n`).
fn ground_to(catalog: &mut FactCatalog, pdb: &infpdb_ti::construction::CountableTiPdb, n: usize) {
    let supply = pdb.supply();
    for i in catalog.len()..n {
        catalog
            .push(supply.fact(i), supply.prob(i))
            .expect("zeta supply yields distinct facts with valid probabilities");
    }
}

/// Runs the bench. Returns an error string (the CLI's failure channel)
/// if any invariant breaks: the incremental write bound, the no-op
/// contract, fingerprint verification, the fast-path open, or answer
/// bit-identity.
pub fn run(config: &StoreBenchConfig) -> Result<StoreBenchReport, String> {
    if config.facts == 0 || config.append == 0 || config.append >= config.facts {
        return Err(format!(
            "store bench needs 0 < append < facts, got append {} / facts {}",
            config.append, config.facts
        ));
    }
    let (dir, ephemeral) = match &config.dir {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!("infpdb-storebench-{}", std::process::id())),
            true,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(config, &dir);
    if ephemeral {
        std::fs::remove_dir_all(&dir).ok();
    }
    result
}

fn run_in(config: &StoreBenchConfig, dir: &std::path::Path) -> Result<StoreBenchReport, String> {
    let pdb = zeta_pdb();
    let fp = countable_pdb_fingerprint(&pdb);
    let base_facts = config.facts - config.append;
    let store = Store::open_dir(dir).with_shard_capacity(config.shard_capacity);

    let t = Instant::now();
    let mut catalog = FactCatalog::new(pdb.schema().clone());
    ground_to(&mut catalog, &pdb, base_facts);
    let ground_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let full_info = store
        .snapshot(&catalog, Some(fp), None)
        .map_err(|e| format!("full snapshot failed: {e}"))?;
    let full = SnapshotRow {
        secs: t.elapsed().as_secs_f64(),
        info: full_info,
    };
    if full.info.unchanged || full.info.facts != base_facts as u64 {
        return Err(format!("full snapshot accounting is off: {:?}", full.info));
    }

    let t = Instant::now();
    ground_to(&mut catalog, &pdb, config.facts);
    let append_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let incr_info = store
        .snapshot(&catalog, Some(fp), None)
        .map_err(|e| format!("incremental snapshot failed: {e}"))?;
    let incremental = SnapshotRow {
        secs: t.elapsed().as_secs_f64(),
        info: incr_info,
    };

    let t = Instant::now();
    let noop_info = store
        .snapshot(&catalog, Some(fp), None)
        .map_err(|e| format!("idle snapshot failed: {e}"))?;
    let noop = SnapshotRow {
        secs: t.elapsed().as_secs_f64(),
        info: noop_info,
    };

    let t = Instant::now();
    let (prepared, open_report) = PreparedPdb::open(zeta_pdb(), &store, Some(fp));
    let open_secs = t.elapsed().as_secs_f64();
    if open_report.status
        != (StoreStatus::Ok {
            facts: config.facts,
        })
    {
        return Err(format!(
            "reopen of {} facts reported {:?}",
            config.facts, open_report.status
        ));
    }
    let rec = open_report
        .recovery
        .ok_or("reopen found no snapshot to recover")?;

    let mut report = StoreBenchReport {
        date: crate::harness::iso_date_utc(),
        config: config.clone(),
        base_facts,
        ground_secs,
        full,
        append_secs,
        incremental,
        noop,
        mmap_maps: rec.mmap_maps,
        mmap_fallbacks: rec.mmap_fallbacks,
        fingerprint_verified: rec.fingerprint_verified,
        open_secs,
        supply_check_skipped: open_report.supply_check_skipped,
        answers: Vec::new(),
    };

    // invariants the artifact certifies
    if report.incremental.info.shards_written > report.incremental_write_bound() {
        return Err(format!(
            "incremental snapshot rewrote {} shards, bound is {}\n{}",
            report.incremental.info.shards_written,
            report.incremental_write_bound(),
            report.summary_table()
        ));
    }
    if !report.noop.info.unchanged {
        return Err(format!(
            "idle snapshot was not a no-op: {:?}",
            report.noop.info
        ));
    }
    if !report.fingerprint_verified {
        return Err("reopen could not verify the manifest fingerprint".into());
    }
    if !report.supply_check_skipped {
        return Err("PreparedPdb::open took the slow path on a clean store".into());
    }

    // answer matrix: reopened catalog vs fresh grounding, threads 1 and 2
    let fresh = zeta_pdb();
    let cancel = CancelToken::new();
    for threads in [1usize, 2] {
        let mut bits = Vec::new();
        let mut identical = true;
        for q in QUERIES {
            let query = parse(q, fresh.schema()).map_err(|e| format!("parse {q:?}: {e}"))?;
            let expected =
                approx_prob_boolean_par(&fresh, &query, ANSWER_EPS, Engine::Auto, threads)
                    .map_err(|e| format!("fresh eval {q:?}: {e}"))?;
            let got = PreparedQuery::prepare(
                prepared.clone(),
                &query,
                Engine::Auto,
                PlanKnobs::default(),
            )
            .with_parallelism(threads)
            .execute(ANSWER_EPS, &cancel, None)
            .map_err(|e| format!("reopened eval {q:?}: {e}"))?
            .approx;
            bits.push(got.estimate.to_bits());
            identical &= got.estimate.to_bits() == expected.estimate.to_bits();
        }
        report.answers.push(AnswerRow {
            threads,
            estimate_bits: bits,
            identical,
        });
    }
    if report.answers.iter().any(|a| !a.identical) {
        return Err(format!(
            "reopened answers drifted from fresh grounding\n{}",
            report.summary_table()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run: multi-shard layout, incremental
    /// write bound, no-op, fast-path reopen, bit-identical answers.
    #[test]
    fn tiny_run_satisfies_every_invariant() {
        let config = StoreBenchConfig {
            facts: 600,
            append: 100,
            shard_capacity: 128,
            dir: None,
            smoke: true,
        };
        let report = run(&config).unwrap();
        assert_eq!(report.base_facts, 500);
        // 500 facts / 128 = 4 shards in the full snapshot
        assert_eq!(report.full.info.shards_written, 4);
        assert_eq!(report.full.info.shards_skipped, 0);
        // 600 facts / 128 = 5 shards; shards 0-2 (full) are reused
        assert_eq!(report.incremental.info.shards_skipped, 3);
        assert_eq!(report.incremental.info.shards_written, 2);
        assert!(report.incremental.info.shards_written <= report.incremental_write_bound());
        assert!(report.noop.info.unchanged);
        assert!(report.fingerprint_verified);
        assert!(report.supply_check_skipped);
        assert_eq!(report.mmap_maps + report.mmap_fallbacks, 5);
        assert!(report.answers.iter().all(|a| a.identical));
        // the artifact parses and carries the schema tag
        let doc = Json::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("infpdb-store-bench/v1")
        );
        assert_eq!(doc.get("facts").and_then(Json::as_i64), Some(600));
        assert_eq!(
            doc.get("incremental_snapshot")
                .and_then(|s| s.get("shards_written"))
                .and_then(Json::as_i64),
            Some(2)
        );
        let summary = report.summary_table();
        assert!(summary.contains("bit-for-bit identical"), "{summary}");
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        for (facts, append) in [(0usize, 0usize), (10, 10), (10, 20), (10, 0)] {
            let config = StoreBenchConfig {
                facts,
                append,
                shard_capacity: 8,
                dir: None,
                smoke: true,
            };
            assert!(run(&config).is_err(), "facts {facts} append {append}");
        }
    }
}
