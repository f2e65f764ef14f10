//! The store proper: sharded snapshots, load-with-recovery, and fsck.
//!
//! Facts are sharded per relation: shard `k` of a relation holds that
//! relation's facts `[k·capacity, (k+1)·capacity)` in dense id order,
//! each shard its own segment file `rel{r}-s{k}-{epoch}.seg`. Because
//! the catalog is append-only, every shard except a relation's tail
//! shard is immutable once full — so a snapshot after appending `m`
//! facts rewrites only the tail shards (O(capacity + m) bytes), not the
//! whole store.
//!
//! Commit protocol (the crash matrix lives in DESIGN.md §12):
//!
//! 1. Shards whose `(count, fingerprint)` differ from the committed
//!    manifest are written under fresh names (`rel{r}-s{k}-{epoch}.seg`)
//!    and fsynced; unchanged shards are *reused* — the new manifest
//!    simply names their old files. New files are invisible until
//!    committed — a crash here leaves garbage the next snapshot GCs.
//! 2. The manifest is written to `MANIFEST.tmp`, fsynced, and renamed
//!    onto `MANIFEST`; the directory is fsynced. The rename is the
//!    commit point: before it the old snapshot is intact, after it the
//!    new one is.
//! 3. Segment files the just-committed manifest does not reference are
//!    unlinked (best effort; failures are ignored and retried by the
//!    next snapshot's GC).
//!
//! Shard fingerprints come from the catalog's cached per-fact digests
//! ([`FactCatalog::fact_digests`]) combined order-insensitively, and
//! the same value is the footer [`encode_segment`] writes — so deciding
//! which shards to skip, and writing the rest, costs O(#facts) u64
//! combines, never a re-hash of fact content, and an unchanged snapshot
//! is detected in O(1) from the running catalog fingerprint without
//! touching any shard.
//!
//! Loading never panics on damage. Each committed shard is opened as a
//! read-only [`FileView`](crate::io::FileView) (mmap when the platform
//! grants it, a read fallback otherwise — the report counts which),
//! scanned front-to-back ([`scan_segment`]), the surviving records
//! merged by dense fact id, and the longest contiguous id prefix from
//! zero rebuilt into a catalog. Everything else — dropped facts,
//! checksum failures, missing files, fingerprint mismatches — is
//! surfaced in the [`RecoveryReport`]. Truncating to a prefix is sound
//! (Proposition 6.1); the query layer turns the kept length into a
//! widened ε floor via its partial certificates.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use infpdb_core::fact::{Fact, FactId};
use infpdb_core::fingerprint::UnorderedCombiner;
use infpdb_core::json::Json;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_ti::catalog::FactCatalog;

use crate::io::{io_err, StdIo, StoreIo};
use crate::manifest::{Manifest, RelationEntry, SegmentEntry, FORMAT_VERSION};
use crate::segment::{encode_segment, records_fingerprint, scan_segment, SegmentRecord};
use crate::StoreError;

/// Name of the commit-point file.
pub const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// Default facts per shard: 2²⁰. At ~40 B/record that is ~40 MiB of
/// segment per shard, and a 10⁷-fact store is ~10 shards — small enough
/// that an incremental snapshot rewrites ≤ 1 tail shard per relation,
/// large enough that the manifest stays tiny.
pub const DEFAULT_SHARD_CAPACITY: u64 = 1 << 20;

/// A durable fact store rooted at a directory.
///
/// Clones share one snapshot lock, so snapshots through a store and its
/// clones never overlap. Two `Store` values opened separately on one
/// directory do not coordinate.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
    shard_capacity: u64,
    /// Held across a whole [`snapshot`](Self::snapshot): each one reads
    /// the committed manifest, picks the next epoch, writes
    /// `MANIFEST.tmp` and collects garbage, so two at once would pick
    /// one epoch, race on the temporary manifest and unlink each other's
    /// fresh shards.
    snapshot_lock: Arc<Mutex<()>>,
}

/// What a snapshot did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The committed epoch (the *previous* epoch when `unchanged`).
    pub epoch: u64,
    /// Facts persisted.
    pub facts: u64,
    /// Shard files actually written this snapshot.
    pub shards_written: usize,
    /// Committed shards reused unmodified from the previous epoch.
    pub shards_skipped: usize,
    /// Total shard bytes written (manifest excluded).
    pub bytes: u64,
    /// Whether the snapshot was a no-op: nothing changed since the
    /// committed manifest, so no file — not even the manifest — was
    /// touched.
    pub unchanged: bool,
}

/// Honest accounting of a load: what survived, what did not, and why.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Facts the manifest committed to.
    pub facts_expected: u64,
    /// Facts actually restored (the contiguous id prefix).
    pub facts_kept: u64,
    /// Facts lost to damage: `expected − kept`.
    pub facts_dropped: u64,
    /// Record frames, headers, or footers whose checksum failed.
    pub checksum_failures: u64,
    /// Shard files the manifest names that could not be read.
    pub missing_segments: u64,
    /// Shards opened as real memory mappings (zero-copy).
    pub mmap_maps: u64,
    /// Shards that fell back to an ordinary read.
    pub mmap_fallbacks: u64,
    /// Whether the rebuilt table's fingerprint matched the manifest
    /// (only checkable when every fact survived).
    pub fingerprint_verified: bool,
}

impl RecoveryReport {
    /// Whether the load read back exactly what was written. Which I/O
    /// path served the bytes (mmap vs fallback) is irrelevant here.
    pub fn clean(&self) -> bool {
        self.facts_dropped == 0
            && self.checksum_failures == 0
            && self.missing_segments == 0
            && self.fingerprint_verified
    }
}

/// The result of [`Store::load`]: a rebuilt catalog plus the manifest
/// and the recovery accounting.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The restored catalog — the longest valid prefix on disk.
    pub catalog: FactCatalog,
    /// The committed manifest the load worked from.
    pub manifest: Manifest,
    /// What happened on the way.
    pub report: RecoveryReport,
}

/// Per-shard detail of an fsck pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckRelation {
    /// Relation name.
    pub name: String,
    /// Shard index within the relation.
    pub shard: u32,
    /// Shard file name (relative to the store directory).
    pub file: String,
    /// Records the manifest committed to.
    pub records_expected: u64,
    /// Records that scanned back intact.
    pub records_found: u64,
    /// Checksum failures in this shard.
    pub checksum_failures: u64,
    /// Undecodable tail bytes.
    pub torn_bytes: u64,
    /// Whether the file was readable at all.
    pub readable: bool,
    /// Whether the recomputed record fingerprint matched both the
    /// shard footer and the manifest entry.
    pub fingerprint_ok: bool,
}

/// The result of [`Store::verify`] (`infpdb store verify`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// The committed epoch.
    pub epoch: u64,
    /// Facts the manifest committed to.
    pub facts_expected: u64,
    /// Per-shard findings.
    pub relations: Vec<FsckRelation>,
}

impl FsckReport {
    /// Whether every shard verified end to end.
    pub fn clean(&self) -> bool {
        self.relations.iter().all(|r| {
            r.readable
                && r.checksum_failures == 0
                && r.torn_bytes == 0
                && r.records_found == r.records_expected
                && r.fingerprint_ok
        })
    }

    /// Total checksum failures across shards.
    pub fn checksum_failures(&self) -> u64 {
        self.relations.iter().map(|r| r.checksum_failures).sum()
    }
}

/// Per-shard line of [`Store::stat`] — taken from the manifest plus one
/// `stat(2)` per file, no shard contents read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// Schema-local relation id.
    pub rel: u32,
    /// Relation name from the manifest.
    pub name: String,
    /// Shard index within the relation.
    pub shard: u32,
    /// Shard file name (relative to the store directory).
    pub file: String,
    /// Records the manifest committed to.
    pub count: u64,
    /// File size in bytes; 0 when the file is missing.
    pub bytes: u64,
    /// Whether the file exists at all (contents are *not* verified —
    /// that is [`Store::verify`]'s job).
    pub present: bool,
}

/// The result of [`Store::stat`] (`infpdb store info`): everything the
/// manifest plus per-file `stat(2)` calls can answer, without reading a
/// single shard byte — O(#shards), not O(#facts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStat {
    /// The committed epoch.
    pub epoch: u64,
    /// Facts the manifest committed to.
    pub facts: u64,
    /// Facts per shard.
    pub shard_capacity: u64,
    /// Identity of the generating supply, if recorded.
    pub pdb_fingerprint: Option<u64>,
    /// Per-shard stats, manifest order.
    pub shards: Vec<ShardStat>,
    /// Sum of present shard file sizes.
    pub total_bytes: u64,
}

impl Store {
    /// A store over the real filesystem with the default shard capacity.
    pub fn open_dir(dir: impl Into<PathBuf>) -> Self {
        Self::with_io(dir, Arc::new(StdIo))
    }

    /// A store over an explicit I/O implementation (fault injection).
    pub fn with_io(dir: impl Into<PathBuf>, io: Arc<dyn StoreIo>) -> Self {
        Store {
            dir: dir.into(),
            io,
            shard_capacity: DEFAULT_SHARD_CAPACITY,
            snapshot_lock: Arc::new(Mutex::new(())),
        }
    }

    /// Overrides the facts-per-shard capacity for snapshots this store
    /// writes. Reading adapts to whatever the manifest says, so mixed
    /// capacities across a store's history are fine — the next snapshot
    /// at a different capacity simply rewrites every shard once.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn with_shard_capacity(mut self, capacity: u64) -> Self {
        assert!(capacity > 0, "shard capacity must be positive");
        self.shard_capacity = capacity;
        self
    }

    /// The facts-per-shard capacity snapshots will use.
    pub fn shard_capacity(&self) -> u64 {
        self.shard_capacity
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    /// Reads and parses the committed manifest; `None` when the store
    /// directory holds no snapshot yet.
    pub fn read_manifest(&self) -> Result<Option<Manifest>, StoreError> {
        let path = self.manifest_path();
        if !self.io.exists(&path) {
            return Ok(None);
        }
        let bytes = io_err(self.io.read(&path), "read", &path)?;
        let text = String::from_utf8(bytes)
            .map_err(|_| StoreError::Corrupt("manifest: not UTF-8".into()))?;
        Manifest::parse(&text).map(Some)
    }

    fn next_epoch_after(&self, prev: Option<&Manifest>) -> u64 {
        // prefer the committed epoch; fall back to scanning file names so
        // a corrupt manifest cannot make us reuse (and clobber) an epoch
        if let Some(m) = prev {
            return m.epoch + 1;
        }
        let mut max = 0u64;
        if let Ok(files) = self.io.list(&self.dir) {
            for f in files {
                if let Some(e) = parse_epoch(&f) {
                    max = max.max(e);
                }
            }
        }
        max + 1
    }

    /// Writes a snapshot of `catalog` and commits it, reusing every
    /// committed shard whose contents are unchanged and skipping the
    /// commit entirely when *nothing* changed. On any error the
    /// previously committed snapshot (if any) is untouched.
    ///
    /// `pdb_fingerprint` identifies the generating supply (so an open
    /// against a different database is detected); `descriptor` is an
    /// opaque blob the caller wants restored alongside the facts.
    ///
    /// Concurrent calls on one store (or its clones) run one at a time,
    /// each committing its own epoch.
    pub fn snapshot(
        &self,
        catalog: &FactCatalog,
        pdb_fingerprint: Option<u64>,
        descriptor: Option<Json>,
    ) -> Result<SnapshotInfo, StoreError> {
        // a panicked snapshot leaves at worst uncommitted garbage, which
        // the next snapshot's GC removes, so the poison carries nothing
        let _serial = self
            .snapshot_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        io_err(self.io.create_dir_all(&self.dir), "create_dir", &self.dir)?;
        // a corrupt manifest is not fatal to writing: treat it as absent
        // (next_epoch_after then scans file names) and rewrite everything
        let prev = self.read_manifest().ok().flatten();
        let table_fingerprint = catalog.fingerprint();

        // no-op fast path: the committed snapshot already is this catalog
        if let Some(m) = &prev {
            if m.facts == catalog.len() as u64
                && m.shard_capacity == self.shard_capacity
                && m.table_fingerprint == table_fingerprint
                && m.pdb_fingerprint == pdb_fingerprint
                && m.descriptor == descriptor
            {
                return Ok(SnapshotInfo {
                    epoch: m.epoch,
                    facts: m.facts,
                    shards_written: 0,
                    shards_skipped: m.segments.len(),
                    bytes: 0,
                    unchanged: true,
                });
            }
        }

        let epoch = self.next_epoch_after(prev.as_ref());
        let schema = catalog.schema();

        // shards from the previous epoch we may reuse, keyed (rel, shard)
        let reusable: HashMap<(u32, u32), &SegmentEntry> = match &prev {
            Some(m) if m.shard_capacity == self.shard_capacity => {
                m.segments.iter().map(|s| ((s.rel, s.shard), s)).collect()
            }
            _ => HashMap::new(),
        };

        // group the dense prefix by relation, preserving id order, and
        // carry each fact's cached digest for shard fingerprints
        type Row<'a> = (FactId, &'a Fact, f64);
        let mut by_rel: Vec<(Vec<Row<'_>>, Vec<u64>)> =
            vec![(Vec::new(), Vec::new()); schema.len()];
        let digests = catalog.fact_digests();
        for (id, fact, prob) in catalog.iter() {
            let slot = &mut by_rel[fact.rel().0 as usize];
            slot.0.push((id, fact, prob));
            slot.1.push(digests[id.0 as usize]);
        }

        let cap = self.shard_capacity as usize;
        let mut segments = Vec::new();
        let mut bytes_written = 0u64;
        let mut shards_written = 0usize;
        let mut shards_skipped = 0usize;
        for (rel_idx, (records, rel_digests)) in by_rel.iter().enumerate() {
            let rel = RelId(rel_idx as u32);
            for (k, chunk) in records.chunks(cap).enumerate() {
                let shard = k as u32;
                // shard fingerprint from cached digests: O(chunk) u64
                // combines instead of re-hashing fact content, and the
                // footer encode_segment writes
                let mut comb = UnorderedCombiner::new();
                for &d in &rel_digests[k * cap..k * cap + chunk.len()] {
                    comb.add(d);
                }
                let fingerprint = comb.finish();
                if let Some(old) = reusable.get(&(rel.0, shard)) {
                    if old.count == chunk.len() as u64
                        && old.fingerprint == fingerprint
                        && self.io.exists(&self.dir.join(&old.file))
                    {
                        shards_skipped += 1;
                        segments.push((*old).clone());
                        continue;
                    }
                }
                let image = encode_segment(schema, rel, chunk, fingerprint);
                let file = format!("rel{rel_idx}-s{shard}-{epoch}.seg");
                let path = self.dir.join(&file);
                io_err(self.io.write(&path, &image), "write", &path)?;
                io_err(self.io.fsync(&path), "fsync", &path)?;
                bytes_written += image.len() as u64;
                shards_written += 1;
                segments.push(SegmentEntry {
                    rel: rel.0,
                    shard,
                    file,
                    count: chunk.len() as u64,
                    fingerprint,
                });
            }
        }

        let manifest = Manifest {
            format: FORMAT_VERSION,
            epoch,
            facts: catalog.len() as u64,
            shard_capacity: self.shard_capacity,
            table_fingerprint,
            pdb_fingerprint,
            descriptor,
            relations: schema
                .iter()
                .map(|(_, r)| RelationEntry {
                    name: r.name().to_string(),
                    arity: r.arity(),
                })
                .collect(),
            segments,
        };

        // commit: write-temp → fsync → atomic rename → sync dir
        let tmp = self.dir.join(MANIFEST_TMP);
        let dst = self.manifest_path();
        io_err(
            self.io.write(&tmp, manifest.encode().as_bytes()),
            "write",
            &tmp,
        )?;
        io_err(self.io.fsync(&tmp), "fsync", &tmp)?;
        io_err(self.io.rename(&tmp, &dst), "rename", &dst)?;
        io_err(self.io.sync_dir(&self.dir), "sync_dir", &self.dir)?;

        self.gc(&manifest);

        Ok(SnapshotInfo {
            epoch,
            facts: catalog.len() as u64,
            shards_written,
            shards_skipped,
            bytes: bytes_written,
            unchanged: false,
        })
    }

    /// Unlinks `.seg` files the just-committed manifest does not
    /// reference (best effort — a failure here is retried by the next
    /// snapshot). Reference-set based, not epoch based: reused shards
    /// keep their old-epoch names and must survive.
    fn gc(&self, committed: &Manifest) {
        let referenced: std::collections::HashSet<&str> =
            committed.segments.iter().map(|s| s.file.as_str()).collect();
        let Ok(files) = self.io.list(&self.dir) else {
            return;
        };
        for f in files {
            let Some(name) = f.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".seg") && !referenced.contains(name) {
                let _ = self.io.remove(&f);
            }
        }
    }

    /// Loads the committed snapshot, recovering the longest valid
    /// prefix. Shards are opened as read-only views — a real mmap when
    /// the platform grants one (counted in
    /// [`RecoveryReport::mmap_maps`]), an ordinary read otherwise.
    /// `Ok(None)` when the directory holds no snapshot;
    /// [`StoreError::Corrupt`] only when the manifest itself — the
    /// commit point — is unusable.
    pub fn load(&self) -> Result<Option<Recovered>, StoreError> {
        let Some(manifest) = self.read_manifest()? else {
            return Ok(None);
        };
        let schema = Schema::from_relations(
            manifest
                .relations
                .iter()
                .map(|r| Relation::new(r.name.clone(), r.arity)),
        )
        .map_err(|e| StoreError::Corrupt(format!("manifest schema: {e}")))?;

        let mut report = RecoveryReport {
            facts_expected: manifest.facts,
            ..RecoveryReport::default()
        };

        // every record that scanned intact, with its relation
        let mut scanned: Vec<(SegmentRecord, RelId)> = Vec::new();
        for entry in &manifest.segments {
            let path = self.dir.join(&entry.file);
            let Ok(view) = self.io.view(&path) else {
                report.missing_segments += 1;
                continue;
            };
            if view.is_mapped() {
                report.mmap_maps += 1;
            } else {
                report.mmap_fallbacks += 1;
            }
            let scan = scan_segment(&view);
            report.checksum_failures += scan.checksum_failures;
            match scan.header {
                Some(h) if h.rel == entry.rel => {}
                _ => {
                    // header damage already counted via checksum; a rel
                    // mismatch means the file is not the manifest's — an
                    // inconsistency we refuse to read facts out of
                    if scan.header.is_some() {
                        report.checksum_failures += 1;
                    }
                    continue;
                }
            }
            let rel = RelId(entry.rel);
            scanned.extend(scan.records.into_iter().map(|rec| (rec, rel)));
        }

        // rebuild the longest contiguous id prefix from the records
        // scanned, never sized by the count the manifest declares. The
        // sort is stable, so of two records claiming one id the first
        // scanned wins. An id out of the committed range, or a
        // duplicate, is inconsistent with the manifest, so distrust it.
        // The prefix stops at a gap, or at a record that passed its
        // checksum but still fails catalog validation. Decoded arguments
        // move into their facts.
        scanned.sort_by_key(|(rec, _)| rec.id);
        let mut catalog = FactCatalog::new(schema);
        let mut last_id = None;
        let mut growing = true;
        for (rec, rel) in scanned {
            if u64::from(rec.id) >= manifest.facts || last_id == Some(rec.id) {
                report.checksum_failures += 1;
                continue;
            }
            last_id = Some(rec.id);
            if growing && rec.id as usize == catalog.len() {
                if catalog.push(Fact::new(rel, rec.args), rec.prob).is_err() {
                    report.checksum_failures += 1;
                    growing = false;
                }
            } else {
                growing = false;
            }
        }
        report.facts_kept = catalog.len() as u64;
        report.facts_dropped = manifest.facts - report.facts_kept;

        // O(1): the catalog keeps a running combine of push digests
        report.fingerprint_verified = report.facts_kept == manifest.facts
            && catalog.fingerprint() == manifest.table_fingerprint;

        Ok(Some(Recovered {
            catalog,
            manifest,
            report,
        }))
    }

    /// Manifest-only stats: epoch, fact count, and per-shard file sizes
    /// from `stat(2)` — never reads shard contents, so `store info` on a
    /// 10⁷-fact store is O(#shards). `Ok(None)` when the directory
    /// holds no snapshot.
    pub fn stat(&self) -> Result<Option<StoreStat>, StoreError> {
        let Some(manifest) = self.read_manifest()? else {
            return Ok(None);
        };
        let mut shards = Vec::with_capacity(manifest.segments.len());
        let mut total_bytes = 0u64;
        for entry in &manifest.segments {
            let name = manifest
                .relations
                .get(entry.rel as usize)
                .map(|r| r.name.clone())
                .unwrap_or_else(|| format!("rel{}", entry.rel));
            let (bytes, present) = match self.io.file_len(&self.dir.join(&entry.file)) {
                Ok(n) => (n, true),
                Err(_) => (0, false),
            };
            total_bytes += bytes;
            shards.push(ShardStat {
                rel: entry.rel,
                name,
                shard: entry.shard,
                file: entry.file.clone(),
                count: entry.count,
                bytes,
                present,
            });
        }
        Ok(Some(StoreStat {
            epoch: manifest.epoch,
            facts: manifest.facts,
            shard_capacity: manifest.shard_capacity,
            pdb_fingerprint: manifest.pdb_fingerprint,
            shards,
            total_bytes,
        }))
    }

    /// Fsck: walk every committed shard and report per-shard health
    /// without rebuilding the catalog. `Ok(None)` when the directory
    /// holds no snapshot.
    pub fn verify(&self) -> Result<Option<FsckReport>, StoreError> {
        let Some(manifest) = self.read_manifest()? else {
            return Ok(None);
        };
        let schema = Schema::from_relations(
            manifest
                .relations
                .iter()
                .map(|r| Relation::new(r.name.clone(), r.arity)),
        )
        .map_err(|e| StoreError::Corrupt(format!("manifest schema: {e}")))?;
        let mut relations = Vec::new();
        for entry in &manifest.segments {
            let name = schema
                .get(RelId(entry.rel))
                .map(|r| r.name().to_string())
                .unwrap_or_else(|| format!("rel{}", entry.rel));
            let path = self.dir.join(&entry.file);
            let Ok(view) = self.io.view(&path) else {
                relations.push(FsckRelation {
                    name,
                    shard: entry.shard,
                    file: entry.file.clone(),
                    records_expected: entry.count,
                    records_found: 0,
                    checksum_failures: 0,
                    torn_bytes: 0,
                    readable: false,
                    fingerprint_ok: false,
                });
                continue;
            };
            let scan = scan_segment(&view);
            let recomputed = records_fingerprint(&schema, RelId(entry.rel), &scan.records);
            let fingerprint_ok = scan
                .footer
                .is_some_and(|f| f.fingerprint == recomputed && f.fingerprint == entry.fingerprint);
            relations.push(FsckRelation {
                name,
                shard: entry.shard,
                file: entry.file.clone(),
                records_expected: entry.count,
                records_found: scan.records.len() as u64,
                checksum_failures: scan.checksum_failures,
                torn_bytes: scan.torn_bytes as u64,
                readable: true,
                fingerprint_ok,
            });
        }
        Ok(Some(FsckReport {
            epoch: manifest.epoch,
            facts_expected: manifest.facts,
            relations,
        }))
    }
}

/// Extracts the epoch from a `rel{r}-s{k}-{epoch}.seg` file name (the
/// epoch is the last `-`-separated component, so this also reads the
/// retired `rel{r}-{epoch}.seg` names when scanning for a safe next
/// epoch over a corrupt manifest).
fn parse_epoch(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".seg")?;
    if !stem.starts_with("rel") {
        return None;
    }
    stem.rsplit_once('-')?.1.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultyIo, IoFault, Trigger, SITE_FSYNC, SITE_RENAME, SITE_WRITE};
    use infpdb_core::value::Value;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1), Relation::new("S", 2)]).unwrap()
    }

    fn sample_catalog(n: usize) -> FactCatalog {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let t = s.rel_id("S").unwrap();
        let mut c = FactCatalog::new(s);
        for i in 0..n {
            let p = 0.5 / (i as f64 + 1.0);
            if i % 3 == 0 {
                c.push(
                    Fact::new(t, [Value::int(i as i64), Value::str(format!("v{i}"))]),
                    p,
                )
                .unwrap();
            } else {
                c.push(Fact::new(r, [Value::int(i as i64)]), p).unwrap();
            }
        }
        c
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("infpdb-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn assert_catalogs_identical(a: &FactCatalog, b: &FactCatalog) {
        assert_eq!(a.len(), b.len());
        for ((ia, fa, pa), (ib, fb, pb)) in a.iter().zip(b.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(fa, fb);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    fn seg_files(dir: &Path) -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".seg"))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn snapshot_load_round_trip_is_bit_for_bit() {
        let dir = tempdir("roundtrip");
        let store = Store::open_dir(&dir);
        assert!(store.load().unwrap().is_none());
        let catalog = sample_catalog(20);
        let info = store
            .snapshot(
                &catalog,
                Some(0xFEED),
                Some(Json::obj([("k", Json::Int(1))])),
            )
            .unwrap();
        assert_eq!(info.epoch, 1);
        assert_eq!(info.facts, 20);
        assert_eq!(info.shards_written, 2);
        assert_eq!(info.shards_skipped, 0);
        assert!(!info.unchanged);
        let rec = store.load().unwrap().unwrap();
        assert!(rec.report.clean(), "{:?}", rec.report);
        assert_eq!(
            rec.report.mmap_maps + rec.report.mmap_fallbacks,
            2,
            "every shard must be accounted to one view path"
        );
        assert_eq!(rec.manifest.pdb_fingerprint, Some(0xFEED));
        assert_eq!(
            rec.manifest.descriptor.as_ref().unwrap().get("k").unwrap(),
            &Json::Int(1)
        );
        assert_catalogs_identical(&rec.catalog, &catalog);
        let fsck = store.verify().unwrap().unwrap();
        assert!(fsck.clean(), "{fsck:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resnapshot_bumps_epoch_and_gcs_unreferenced_segments() {
        let dir = tempdir("epochs");
        let store = Store::open_dir(&dir);
        store.snapshot(&sample_catalog(5), None, None).unwrap();
        let info = store.snapshot(&sample_catalog(9), None, None).unwrap();
        assert_eq!(info.epoch, 2);
        // the on-disk file set is exactly the committed reference set
        let manifest = store.read_manifest().unwrap().unwrap();
        let mut referenced: Vec<String> =
            manifest.segments.iter().map(|s| s.file.clone()).collect();
        referenced.sort();
        assert_eq!(seg_files(&dir), referenced);
        let rec = store.load().unwrap().unwrap();
        assert!(rec.report.clean());
        assert_eq!(rec.catalog.len(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unchanged_snapshot_is_a_noop() {
        let dir = tempdir("noop");
        let store = Store::open_dir(&dir);
        let catalog = sample_catalog(12);
        let desc = Some(Json::obj([("tail", Json::Float(0.25))]));
        let first = store.snapshot(&catalog, Some(7), desc.clone()).unwrap();
        assert!(!first.unchanged);
        let manifest_bytes = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let again = store.snapshot(&catalog, Some(7), desc.clone()).unwrap();
        assert!(again.unchanged);
        assert_eq!(again.epoch, first.epoch, "no-op must keep the epoch");
        assert_eq!(again.facts, 12);
        assert_eq!(again.shards_written, 0);
        assert_eq!(again.shards_skipped, 2);
        assert_eq!(again.bytes, 0);
        assert_eq!(
            std::fs::read(dir.join(MANIFEST_FILE)).unwrap(),
            manifest_bytes,
            "no-op must not rewrite the manifest"
        );
        // any input change defeats the no-op: different supply identity
        let third = store.snapshot(&catalog, Some(8), desc).unwrap();
        assert!(!third.unchanged);
        assert_eq!(third.epoch, first.epoch + 1);
        // the facts themselves were untouched, so every shard is reused
        assert_eq!(third.shards_written, 0);
        assert_eq!(third.shards_skipped, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_snapshot_rewrites_only_tail_shards() {
        let dir = tempdir("incremental");
        let store = Store::open_dir(&dir).with_shard_capacity(4);
        // 20 facts: R gets 13 (shards 4|4|4|1), S gets 7 (shards 4|3)
        let info = store.snapshot(&sample_catalog(20), None, None).unwrap();
        assert_eq!(info.shards_written, 6);
        assert_eq!(info.shards_skipped, 0);
        // +4 facts: R grows to 16 (tail shard 3: 1→4), S to 8 (tail
        // shard 1: 3→4); the four full shards are byte-identical
        let inc = store.snapshot(&sample_catalog(24), None, None).unwrap();
        assert!(!inc.unchanged);
        assert_eq!(inc.shards_written, 2, "only the two tail shards");
        assert_eq!(inc.shards_skipped, 4);
        assert!(inc.bytes < info.bytes);
        // reused shards keep their epoch-1 names in the new manifest
        let manifest = store.read_manifest().unwrap().unwrap();
        assert_eq!(manifest.epoch, 2);
        let old_named = manifest
            .segments
            .iter()
            .filter(|s| s.file.ends_with("-1.seg"))
            .count();
        assert_eq!(old_named, 4);
        let rec = store.load().unwrap().unwrap();
        assert!(rec.report.clean(), "{:?}", rec.report);
        assert_catalogs_identical(&rec.catalog, &sample_catalog(24));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_shard_capacity_rewrites_every_shard() {
        let dir = tempdir("recap");
        let store = Store::open_dir(&dir).with_shard_capacity(4);
        store.snapshot(&sample_catalog(20), None, None).unwrap();
        let rewritten = Store::open_dir(&dir)
            .with_shard_capacity(8)
            .snapshot(&sample_catalog(20), None, None)
            .unwrap();
        assert!(!rewritten.unchanged);
        assert_eq!(rewritten.shards_skipped, 0, "capacity change ⇒ no reuse");
        // R 13 facts → 2 shards, S 7 facts → 1 shard
        assert_eq!(rewritten.shards_written, 3);
        let rec = store.load().unwrap().unwrap();
        assert!(rec.report.clean());
        assert_eq!(rec.manifest.shard_capacity, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_last_shard_keeps_earlier_shards_bit_exact() {
        let dir = tempdir("truncate-tail");
        let store = Store::open_dir(&dir).with_shard_capacity(4);
        let catalog = sample_catalog(20);
        store.snapshot(&catalog, None, None).unwrap();
        // R's last shard (rel0-s3-1.seg) holds R's 13th fact, global id
        // 19 — so every truncation of it keeps global ids 0..=18 intact
        let seg_path = dir.join("rel0-s3-1.seg");
        let full = std::fs::read(&seg_path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&seg_path, &full[..cut]).unwrap();
            let rec = store.load().unwrap().unwrap();
            assert!(
                rec.catalog.len() >= 19,
                "cut {cut} lost facts outside the torn shard"
            );
            assert!(rec.catalog.len() <= catalog.len());
            for (id, fact, prob) in rec.catalog.iter() {
                assert_eq!(fact, catalog.fact(id), "cut {cut}");
                assert_eq!(prob.to_bits(), catalog.prob(id).to_bits(), "cut {cut}");
            }
            assert_eq!(
                rec.report.facts_dropped,
                catalog.len() as u64 - rec.catalog.len() as u64
            );
            // a cut inside the footer can leave every record intact (a
            // clean recovery content-wise); any lost fact must be loud
            if rec.catalog.len() < catalog.len() {
                assert!(!rec.report.clean(), "cut {cut} claimed clean");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_segment_recovers_longest_prefix() {
        let dir = tempdir("truncate");
        let store = Store::open_dir(&dir);
        let catalog = sample_catalog(12);
        store.snapshot(&catalog, None, None).unwrap();
        // truncate the single R shard at every byte offset
        let seg_path = dir.join("rel0-s0-1.seg");
        let full = std::fs::read(&seg_path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&seg_path, &full[..cut]).unwrap();
            let rec = store.load().unwrap().unwrap();
            // never a fact past the truncation point, never a panic
            assert!(rec.catalog.len() <= catalog.len());
            for (id, fact, prob) in rec.catalog.iter() {
                assert_eq!(fact, catalog.fact(id), "cut {cut}");
                assert_eq!(prob.to_bits(), catalog.prob(id).to_bits(), "cut {cut}");
            }
            assert_eq!(
                rec.report.facts_dropped,
                catalog.len() as u64 - rec.catalog.len() as u64
            );
            if rec.catalog.len() < catalog.len() {
                assert!(!rec.report.clean(), "cut {cut} claimed clean");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_segment_is_reported_not_fatal() {
        let dir = tempdir("missing");
        let store = Store::open_dir(&dir);
        store.snapshot(&sample_catalog(6), None, None).unwrap();
        // remove the shard holding fact id 0 (relation S: i % 3 == 0)
        std::fs::remove_file(dir.join("rel1-s0-1.seg")).unwrap();
        let rec = store.load().unwrap().unwrap();
        assert_eq!(rec.report.missing_segments, 1);
        // id 0 lives in the missing shard, so the kept prefix is empty
        assert_eq!(rec.catalog.len(), 0);
        assert_eq!(rec.report.facts_dropped, 6);
        let fsck = store.verify().unwrap().unwrap();
        assert!(!fsck.clean());
        assert!(fsck.relations.iter().any(|r| !r.readable));
        // stat flags the hole without reading any shard
        let stat = store.stat().unwrap().unwrap();
        assert!(stat.shards.iter().any(|s| !s.present));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stat_is_manifest_only_and_matches_disk() {
        let dir = tempdir("stat");
        let store = Store::open_dir(&dir).with_shard_capacity(4);
        assert!(store.stat().unwrap().is_none());
        let info = store.snapshot(&sample_catalog(20), Some(11), None).unwrap();
        let stat = store.stat().unwrap().unwrap();
        assert_eq!(stat.epoch, info.epoch);
        assert_eq!(stat.facts, 20);
        assert_eq!(stat.shard_capacity, 4);
        assert_eq!(stat.pdb_fingerprint, Some(11));
        assert_eq!(stat.shards.len(), 6);
        assert!(stat.shards.iter().all(|s| s.present));
        assert_eq!(stat.total_bytes, info.bytes);
        assert_eq!(
            stat.total_bytes,
            stat.shards.iter().map(|s| s.bytes).sum::<u64>()
        );
        // per-shard counts add up to the committed fact total
        assert_eq!(stat.shards.iter().map(|s| s.count).sum::<u64>(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_a_loud_error() {
        let dir = tempdir("badmanifest");
        let store = Store::open_dir(&dir);
        store.snapshot(&sample_catalog(3), None, None).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), b"{ not json").unwrap();
        assert!(matches!(store.load(), Err(StoreError::Corrupt(_))));
        assert!(matches!(store.verify(), Err(StoreError::Corrupt(_))));
        assert!(matches!(store.stat(), Err(StoreError::Corrupt(_))));
        // but a fresh snapshot over it still works (epoch from file scan)
        let info = store.snapshot(&sample_catalog(3), None, None).unwrap();
        assert_eq!(info.epoch, 2);
        assert!(!info.unchanged, "a corrupt manifest never no-ops");
        assert!(store.load().unwrap().unwrap().report.clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites the committed manifest with `facts` replaced by `text`.
    fn declare_facts(store: &Store, text: &str) {
        const SENTINEL: u64 = 987_654_321;
        let manifest = Manifest {
            facts: SENTINEL,
            ..store.read_manifest().unwrap().unwrap()
        };
        let encoded = manifest.encode().replace(&SENTINEL.to_string(), text);
        std::fs::write(store.dir().join(MANIFEST_FILE), encoded).unwrap();
    }

    #[test]
    fn negative_declared_fact_count_is_corrupt_not_a_panic() {
        let dir = tempdir("negative-facts");
        let store = Store::open_dir(&dir);
        store.snapshot(&sample_catalog(6), None, None).unwrap();
        declare_facts(&store, "-1");
        assert!(matches!(store.load(), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_declared_fact_count_loads_only_what_was_scanned() {
        let dir = tempdir("huge-facts");
        let store = Store::open_dir(&dir);
        let catalog = sample_catalog(6);
        store.snapshot(&catalog, None, None).unwrap();
        declare_facts(&store, "4000000000000");
        let rec = store.load().unwrap().unwrap();
        assert_catalogs_identical(&rec.catalog, &catalog);
        assert_eq!(rec.report.facts_expected, 4_000_000_000_000);
        assert_eq!(rec.report.facts_dropped, 4_000_000_000_000 - 6);
        assert!(!rec.report.clean(), "{:?}", rec.report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_error_aborts_and_preserves_old_snapshot() {
        let dir = tempdir("faults-err");
        let io = Arc::new(FaultyIo::new(42));
        let store = Store::with_io(&dir, io.clone());
        let old = sample_catalog(4);
        store.snapshot(&old, None, None).unwrap();
        for site in [SITE_WRITE, SITE_FSYNC, SITE_RENAME] {
            io.injector()
                .inject(site, IoFault::Error, Trigger::Times(1));
            let err = store.snapshot(&sample_catalog(15), None, None).unwrap_err();
            assert!(matches!(err, StoreError::Io { .. }), "{site}: {err}");
            assert_eq!(io.injector().fired(site), 1, "{site}");
            let rec = store.load().unwrap().unwrap();
            assert!(rec.report.clean(), "{site}: old snapshot damaged");
            assert_catalogs_identical(&rec.catalog, &old);
            io.injector().clear(site);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_on_segment_recovers_a_prefix() {
        let dir = tempdir("faults-short");
        let io = Arc::new(FaultyIo::new(7));
        let store = Store::with_io(&dir, io.clone());
        let catalog = sample_catalog(30);
        // first write of a snapshot is a shard file
        io.injector()
            .inject(SITE_WRITE, IoFault::ShortWrite, Trigger::Times(1));
        store.snapshot(&catalog, None, None).unwrap();
        assert_eq!(io.injector().fired(SITE_WRITE), 1);
        let rec = store.load().unwrap().unwrap();
        assert!(!rec.report.clean());
        assert!(rec.report.facts_dropped > 0);
        // FaultyIo inherits the default (read-backed) views
        assert_eq!(rec.report.mmap_maps, 0);
        assert_eq!(rec.report.mmap_fallbacks, 2);
        for (id, fact, prob) in rec.catalog.iter() {
            assert_eq!(fact, catalog.fact(id));
            assert_eq!(prob.to_bits(), catalog.prob(id).to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_on_segment_is_caught_by_checksum() {
        let dir = tempdir("faults-flip");
        let io = Arc::new(FaultyIo::new(99));
        let store = Store::with_io(&dir, io.clone());
        let catalog = sample_catalog(30);
        io.injector()
            .inject(SITE_WRITE, IoFault::BitFlip, Trigger::Times(1));
        store.snapshot(&catalog, None, None).unwrap();
        let rec = store.load().unwrap().unwrap();
        // the flip may land in header, a record, or the footer; in every
        // case the damage is detected and the restored prefix is honest
        assert!(!rec.report.clean(), "{:?}", rec.report);
        for (id, fact, prob) in rec.catalog.iter() {
            assert_eq!(fact, catalog.fact(id));
            assert_eq!(prob.to_bits(), catalog.prob(id).to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_catalog_snapshots_and_loads() {
        let dir = tempdir("empty");
        let store = Store::open_dir(&dir);
        let catalog = FactCatalog::new(schema());
        let info = store.snapshot(&catalog, None, None).unwrap();
        assert_eq!(info.shards_written, 0);
        assert!(!info.unchanged);
        let rec = store.load().unwrap().unwrap();
        assert!(rec.report.clean());
        assert_eq!(rec.catalog.len(), 0);
        // and snapshotting the same emptiness again is a no-op
        assert!(store.snapshot(&catalog, None, None).unwrap().unchanged);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_snapshots_commit_one_at_a_time() {
        // two threads snapshot their own growing catalogs through clones
        // of one store, 50 times each, released together by a barrier;
        // small shards make every commit reuse, rewrite and collect
        // shards the other thread touches
        let dir = tempdir("concurrent");
        let store = Store::open_dir(&dir).with_shard_capacity(8);
        let source = sample_catalog(160);
        let barrier = std::sync::Barrier::new(2);
        let calls: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..=2)
                .map(|step| {
                    let (store, source, barrier) = (store.clone(), &source, &barrier);
                    scope.spawn(move || {
                        let mut catalog = FactCatalog::new(schema());
                        let mut ids = (0..source.len()).map(|i| FactId(i as u32));
                        (0..50)
                            .map(|_| {
                                for id in ids.by_ref().take(step) {
                                    catalog
                                        .push(source.fact(id).clone(), source.prob(id))
                                        .unwrap();
                                }
                                // errors are collected, not raised, so a
                                // failing thread never strands the other
                                // at the barrier
                                barrier.wait();
                                let info = store.snapshot(&catalog, None, None);
                                (info, catalog.len(), catalog.fingerprint())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let commits: Vec<(SnapshotInfo, usize, u64)> = calls
            .into_iter()
            .map(|(info, len, fp)| {
                let info = info.unwrap_or_else(|e| panic!("snapshot at {len} facts failed: {e}"));
                (info, len, fp)
            })
            .collect();
        let mut epochs: Vec<u64> = commits
            .iter()
            .filter(|(info, ..)| !info.unchanged)
            .map(|(info, ..)| info.epoch)
            .collect();
        epochs.sort_unstable();
        let written = epochs.len();
        epochs.dedup();
        assert_eq!(epochs.len(), written, "two commits shared an epoch");
        // a no-op snapshot reports the epoch of an identical catalog
        let (_, len, fp) = commits.iter().max_by_key(|(info, ..)| info.epoch).unwrap();
        let rec = Store::open_dir(&dir).load().unwrap().unwrap();
        assert!(rec.report.clean(), "{:?}", rec.report);
        assert_eq!(rec.catalog.len(), *len);
        assert_eq!(rec.catalog.fingerprint(), *fp);
        std::fs::remove_dir_all(&dir).ok();
    }
}
