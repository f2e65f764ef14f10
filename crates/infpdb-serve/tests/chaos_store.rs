//! Durable-store chaos (ISSUE 7 acceptance): snapshot → damage →
//! reopen, asserting the recovery contract end to end through
//! [`QueryService`]:
//!
//! * **no panics, ever** — any byte-level damage to the store degrades
//!   to a smaller verified prefix, never an abort;
//! * **bit-for-bit answers on the recovered prefix** — a service
//!   reopened from a damaged store answers exactly like a fresh one;
//! * **exact accounting** — `store_recoveries_total`,
//!   `store_checksum_failures_total`, and
//!   `store_recovered_facts_dropped_total` match the recovery report
//!   the open produced, so every injected fault is visible in
//!   `/metrics`.
//!
//! Seeds come from `INFPDB_CHAOS_SEED` when set (the CI `chaos-store`
//! job runs three fixed seeds); otherwise each test loops over a
//! built-in trio.

use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use infpdb_logic::parse;
use infpdb_math::series::GeometricSeries;
use infpdb_query::approx::approx_prob_boolean;
use infpdb_query::Engine;
use infpdb_query::StoreStatus;
use infpdb_serve::{QueryRequest, QueryService, ServiceConfig};
use infpdb_store::segment::{FOOTER_LEN, HEADER_LEN};
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

fn seeds() -> Vec<u64> {
    match std::env::var("INFPDB_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("INFPDB_CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 20190625, 271828],
    }
}

fn geometric_pdb() -> CountableTiPdb {
    let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
    CountableTiPdb::new(FactSupply::unary_over_naturals(
        schema,
        RelId(0),
        GeometricSeries::new(0.5, 0.5).unwrap(),
    ))
    .unwrap()
}

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("infpdb-chaos-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable_service(dir: &Path) -> QueryService {
    QueryService::new(
        geometric_pdb(),
        ServiceConfig {
            threads: 1,
            store_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        },
    )
}

fn seg_path(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("snapshot leaves a segment file")
}

#[test]
fn snapshot_and_reopen_serve_bit_for_bit_answers() {
    let dir = tempdir("roundtrip");
    let q_text = "exists x. R(x)";

    let svc = durable_service(&dir);
    assert_eq!(svc.store_status(), Some(StoreStatus::Fresh));
    svc.warm(0.001).unwrap();
    let q = parse(q_text, svc.pdb().schema()).unwrap();
    let baseline = svc.evaluate(QueryRequest::new(q.clone(), 0.001)).unwrap();
    let info = svc.snapshot().unwrap().expect("store is configured");
    assert!(info.facts > 0);
    assert_eq!(
        svc.metrics().store_snapshot_writes.load(Ordering::Relaxed),
        1
    );
    let facts = svc.materialized_len();
    svc.join();

    let svc2 = durable_service(&dir);
    assert_eq!(svc2.store_status(), Some(StoreStatus::Ok { facts }));
    assert_eq!(svc2.materialized_len(), facts, "no re-grounding needed");
    let m = svc2.metrics();
    assert_eq!(m.store_recoveries.load(Ordering::Relaxed), 0);
    assert_eq!(m.store_checksum_failures.load(Ordering::Relaxed), 0);
    assert_eq!(m.store_recovered_facts_dropped.load(Ordering::Relaxed), 0);
    let replay = svc2.evaluate(QueryRequest::new(q, 0.001)).unwrap();
    assert_eq!(
        replay.approx.estimate.to_bits(),
        baseline.approx.estimate.to_bits(),
        "restored catalog must answer bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One seeded bit flip in the record region of a committed segment:
/// the reopen must recover a prefix, never panic, answer bit-for-bit,
/// and account for the damage in the `store_*` counters exactly.
#[test]
fn seeded_bit_flip_recovers_a_prefix_with_exact_metric_accounting() {
    for seed in seeds() {
        let dir = tempdir(&format!("bitflip-{seed}"));
        let svc = durable_service(&dir);
        svc.warm(0.001).unwrap();
        svc.snapshot().unwrap().unwrap();
        let expected_facts = svc.materialized_len();
        svc.join();

        // flip one seeded bit inside the record region (past the header,
        // before the footer) so at least one record frame is damaged
        let seg = seg_path(&dir);
        let mut bytes = std::fs::read(&seg).unwrap();
        let record_region = bytes.len() - HEADER_LEN - FOOTER_LEN;
        assert!(record_region > 0, "warm(0.001) writes real records");
        let mut rng = SplitMix64::new(seed);
        let r = rng.next_u64();
        let byte = HEADER_LEN + (r as usize % record_region);
        let bit = (r >> 32) % 8;
        bytes[byte] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();

        let svc2 = durable_service(&dir);
        let status = svc2.store_status().expect("store is configured");
        let m = svc2.metrics();
        match &status {
            StoreStatus::Recovered {
                facts_kept,
                facts_dropped,
                checksum_failures,
                eps_floor,
            } => {
                assert!(
                    *facts_dropped > 0,
                    "seed {seed}: a record-region flip loses the damaged tail"
                );
                assert_eq!(*facts_kept, svc2.materialized_len());
                assert_eq!(
                    *facts_kept as u64 + facts_dropped,
                    expected_facts as u64,
                    "seed {seed}: every fact is either kept or accounted as dropped"
                );
                // exact fault ↔ metric accounting
                assert_eq!(m.store_recoveries.load(Ordering::Relaxed), 1);
                assert_eq!(
                    m.store_checksum_failures.load(Ordering::Relaxed),
                    *checksum_failures
                );
                assert_eq!(
                    m.store_recovered_facts_dropped.load(Ordering::Relaxed),
                    *facts_dropped
                );
                // the kept geometric prefix still certifies a tolerance
                if let Some(floor) = eps_floor {
                    assert!(*floor > 0.0 && *floor < 0.5, "seed {seed}: {floor}");
                }
            }
            other => panic!("seed {seed}: expected Recovered, got {other:?}"),
        }

        // answers on the recovered prefix are bit-for-bit what a fresh
        // evaluation produces
        let pdb = geometric_pdb();
        let q = parse("exists x. R(x)", pdb.schema()).unwrap();
        let fresh = approx_prob_boolean(&pdb, &q, 0.01, Engine::Auto).unwrap();
        let resp = svc2.evaluate(QueryRequest::new(q, 0.01)).unwrap();
        assert_eq!(
            resp.approx.estimate.to_bits(),
            fresh.estimate.to_bits(),
            "seed {seed}: recovered prefix diverged"
        );
        svc2.join();
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn sharded_service(dir: &Path, capacity: u64) -> QueryService {
    QueryService::new(
        geometric_pdb(),
        ServiceConfig {
            threads: 1,
            store_dir: Some(dir.to_path_buf()),
            store_shard_capacity: Some(capacity),
            ..ServiceConfig::default()
        },
    )
}

/// The shard file holding the relation's `shard`-th dense-id range,
/// whatever epoch wrote it.
fn shard_path(dir: &Path, shard: u32) -> PathBuf {
    let tag = format!("-s{shard}-");
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.extension().is_some_and(|x| x == "seg")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().contains(&tag))
        })
        .unwrap_or_else(|| panic!("no shard {shard} file in {}", dir.display()))
}

/// A seeded bit flip inside a MIDDLE shard of a multi-shard store:
/// recovery keeps every shard before the damage (the contiguous-prefix
/// rule crosses shard boundaries), drops the rest, and the accounting
/// is exact.
#[test]
fn middle_shard_bit_flip_keeps_earlier_shards() {
    const CAP: u64 = 2;
    for seed in seeds() {
        let dir = tempdir(&format!("midshard-{seed}"));
        let svc = sharded_service(&dir, CAP);
        svc.warm(0.001).unwrap();
        svc.snapshot().unwrap().unwrap();
        let expected_facts = svc.materialized_len();
        svc.join();
        assert!(
            expected_facts as u64 > 3 * CAP,
            "warm(0.001) must span several capacity-{CAP} shards, got {expected_facts}"
        );

        // damage shard 2 (facts [4, 6)) somewhere in its record region
        let seg = shard_path(&dir, 2);
        let mut bytes = std::fs::read(&seg).unwrap();
        let record_region = bytes.len() - HEADER_LEN - FOOTER_LEN;
        let mut rng = SplitMix64::new(seed);
        let r = rng.next_u64();
        let byte = HEADER_LEN + (r as usize % record_region);
        bytes[byte] ^= 1 << ((r >> 32) % 8);
        std::fs::write(&seg, &bytes).unwrap();

        let svc2 = sharded_service(&dir, CAP);
        match svc2.store_status().expect("store is configured") {
            StoreStatus::Recovered {
                facts_kept,
                facts_dropped,
                checksum_failures,
                ..
            } => {
                assert!(
                    (2 * CAP..3 * CAP).contains(&(facts_kept as u64)),
                    "seed {seed}: damage in shard 2 keeps shards 0-1 plus a \
                     prefix of shard 2, got {facts_kept}"
                );
                assert_eq!(facts_kept as u64 + facts_dropped, expected_facts as u64);
                let m = svc2.metrics();
                assert_eq!(m.store_recoveries.load(Ordering::Relaxed), 1);
                assert_eq!(
                    m.store_checksum_failures.load(Ordering::Relaxed),
                    checksum_failures
                );
                assert_eq!(
                    m.store_recovered_facts_dropped.load(Ordering::Relaxed),
                    facts_dropped
                );
            }
            other => panic!("seed {seed}: expected Recovered, got {other:?}"),
        }
        // the service re-grounds the lost tail on demand, bit-for-bit
        let pdb = geometric_pdb();
        let q = parse("exists x. R(x)", pdb.schema()).unwrap();
        let fresh = approx_prob_boolean(&pdb, &q, 0.01, Engine::Auto).unwrap();
        let resp = svc2.evaluate(QueryRequest::new(q, 0.01)).unwrap();
        assert_eq!(resp.approx.estimate.to_bits(), fresh.estimate.to_bits());
        svc2.join();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Deleting a middle shard file outright: recovery truncates exactly at
/// the missing shard's boundary and counts every later fact as dropped.
#[test]
fn missing_middle_shard_truncates_at_its_boundary() {
    const CAP: u64 = 2;
    let dir = tempdir("missing-shard");
    let svc = sharded_service(&dir, CAP);
    svc.warm(0.001).unwrap();
    svc.snapshot().unwrap().unwrap();
    let expected_facts = svc.materialized_len();
    svc.join();

    std::fs::remove_file(shard_path(&dir, 2)).unwrap();

    let svc2 = sharded_service(&dir, CAP);
    match svc2.store_status().expect("store is configured") {
        StoreStatus::Recovered {
            facts_kept,
            facts_dropped,
            ..
        } => {
            assert_eq!(
                facts_kept as u64,
                2 * CAP,
                "the prefix ends exactly where the missing shard began"
            );
            assert_eq!(facts_kept as u64 + facts_dropped, expected_facts as u64);
            assert_eq!(
                svc2.metrics()
                    .store_recovered_facts_dropped
                    .load(Ordering::Relaxed),
                facts_dropped
            );
        }
        other => panic!("expected Recovered, got {other:?}"),
    }
    svc2.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Incremental-snapshot accounting end to end: a second snapshot after
/// growing the catalog reuses every untouched full shard, an idle third
/// snapshot is a counted no-op that touches nothing, and a reopen maps
/// (or falls back on) exactly one view per shard.
#[test]
fn incremental_snapshots_reuse_shards_and_idle_ones_noop() {
    const CAP: u64 = 2;
    let dir = tempdir("incremental");
    let svc = sharded_service(&dir, CAP);
    svc.warm(0.01).unwrap();
    let info1 = svc.snapshot().unwrap().unwrap();
    assert!(!info1.unchanged);
    assert_eq!(info1.shards_skipped, 0, "first snapshot writes everything");
    assert!(info1.shards_written >= 2, "warm(0.01) spans several shards");

    // grow the catalog, snapshot again: full leading shards are reused
    svc.warm(0.0005).unwrap();
    let facts2 = svc.materialized_len();
    assert!(facts2 as u64 > info1.facts);
    let info2 = svc.snapshot().unwrap().unwrap();
    assert!(!info2.unchanged);
    assert!(
        info2.shards_skipped >= 1,
        "full leading shards must be reused, got {info2:?}"
    );
    assert!(info2.shards_written >= 1, "the grown tail must be written");
    assert_eq!(info2.facts, facts2 as u64);

    // nothing changed: the third snapshot is a no-op at the same epoch
    let info3 = svc.snapshot().unwrap().unwrap();
    assert!(info3.unchanged);
    assert_eq!(info3.epoch, info2.epoch);
    assert_eq!(info3.shards_written, 0);

    let m = svc.metrics();
    assert_eq!(m.store_snapshot_writes.load(Ordering::Relaxed), 2);
    assert_eq!(m.store_snapshot_noops.load(Ordering::Relaxed), 1);
    assert_eq!(
        m.store_snapshot_bytes_written.load(Ordering::Relaxed),
        info1.bytes + info2.bytes
    );
    assert_eq!(
        m.store_snapshot_shards_written.load(Ordering::Relaxed),
        (info1.shards_written + info2.shards_written) as u64
    );
    assert_eq!(
        m.store_snapshot_shards_skipped.load(Ordering::Relaxed),
        info2.shards_skipped as u64
    );
    let dump = svc.metrics_dump();
    assert!(dump.contains("store_snapshot_noops_total 1"));
    assert!(dump.contains("store_snapshot_shards_written_total"));
    svc.join();

    // a reopen touches exactly one view per committed shard
    let total_shards = (info2.shards_written + info2.shards_skipped) as u64;
    let svc2 = sharded_service(&dir, CAP);
    assert_eq!(svc2.store_status(), Some(StoreStatus::Ok { facts: facts2 }));
    let m2 = svc2.metrics();
    assert_eq!(
        m2.store_mmap_maps.load(Ordering::Relaxed)
            + m2.store_mmap_fallbacks.load(Ordering::Relaxed),
        total_shards
    );
    #[cfg(unix)]
    assert!(
        m2.store_mmap_maps.load(Ordering::Relaxed) > 0,
        "unix reopens map shard files zero-copy"
    );
    svc2.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt manifest (the commit point itself) must degrade loudly —
/// empty catalog, `Degraded` status, recovery counted — and the next
/// snapshot must repair the store in place.
#[test]
fn corrupt_manifest_degrades_and_resnapshot_repairs() {
    let dir = tempdir("manifest");
    let svc = durable_service(&dir);
    svc.warm(0.01).unwrap();
    svc.snapshot().unwrap().unwrap();
    svc.join();

    std::fs::write(dir.join("MANIFEST"), b"{ not json").unwrap();

    let svc2 = durable_service(&dir);
    assert!(
        matches!(svc2.store_status(), Some(StoreStatus::Degraded { .. })),
        "{:?}",
        svc2.store_status()
    );
    assert_eq!(svc2.materialized_len(), 0, "nothing unverified is adopted");
    assert_eq!(
        svc2.metrics().store_recoveries.load(Ordering::Relaxed),
        1,
        "a degraded open counts as a recovery"
    );
    // the service still works: it re-grounds and re-snapshots over the wreck
    svc2.warm(0.01).unwrap();
    svc2.snapshot().unwrap().unwrap();
    let facts = svc2.materialized_len();
    svc2.join();

    let svc3 = durable_service(&dir);
    assert_eq!(svc3.store_status(), Some(StoreStatus::Ok { facts }));
    svc3.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncation at an arbitrary tear point (simulating a crash mid-write
/// of a segment that was never committed cleanly): recovery keeps the
/// longest valid prefix and the service serves from it.
#[test]
fn torn_segment_tail_recovers_longest_prefix() {
    for seed in seeds() {
        let dir = tempdir(&format!("torn-{seed}"));
        let svc = durable_service(&dir);
        svc.warm(0.001).unwrap();
        svc.snapshot().unwrap().unwrap();
        let expected_facts = svc.materialized_len();
        svc.join();

        let seg = seg_path(&dir);
        let bytes = std::fs::read(&seg).unwrap();
        // seeded tear point strictly inside the record region
        let record_region = bytes.len() - HEADER_LEN - FOOTER_LEN;
        let cut = HEADER_LEN + (SplitMix64::new(seed).next_u64() as usize % record_region);
        std::fs::write(&seg, &bytes[..cut]).unwrap();

        let svc2 = durable_service(&dir);
        match svc2.store_status().expect("store is configured") {
            StoreStatus::Recovered {
                facts_kept,
                facts_dropped,
                ..
            } => {
                assert_eq!(facts_kept as u64 + facts_dropped, expected_facts as u64);
                assert_eq!(
                    svc2.metrics()
                        .store_recovered_facts_dropped
                        .load(Ordering::Relaxed),
                    facts_dropped
                );
            }
            other => panic!("seed {seed}: expected Recovered, got {other:?}"),
        }
        // the tail the service re-grounds on demand is identical to fresh
        let pdb = geometric_pdb();
        let q = parse("R(1) \\/ R(3)", pdb.schema()).unwrap();
        let fresh = approx_prob_boolean(&pdb, &q, 0.005, Engine::Auto).unwrap();
        let resp = svc2.evaluate(QueryRequest::new(q, 0.005)).unwrap();
        assert_eq!(resp.approx.estimate.to_bits(), fresh.estimate.to_bits());
        svc2.join();
        std::fs::remove_dir_all(&dir).ok();
    }
}
