//! The manifest: the store's single commit point.
//!
//! Segment files are epoch-named and immutable once written; `MANIFEST`
//! is the only file ever replaced in place, and only via write-temp →
//! fsync → atomic rename. Whatever instant a crash happens, the
//! manifest on disk names a complete file set from *some* successful
//! snapshot — the worst case is losing the snapshot in flight, never
//! the previous one.
//!
//! The format is the workspace's own JSON
//! ([`infpdb_core::json::Json`]). One encoding wrinkle: JSON numbers
//! are `f64`, which cannot carry a full `u64`, so the 64-bit
//! fingerprints are stored as fixed-width hex strings.

use infpdb_core::json::Json;

use crate::StoreError;

/// On-disk format version this crate writes and understands.
///
/// Version 2 is the sharded layout: each relation's facts are split
/// into fixed-capacity shards (dense `FactId` ranges), every shard is
/// its own segment file with its own fingerprint, and the manifest
/// records the shard capacity plus a `(rel, shard)`-indexed file list.
/// Version-1 manifests (one monolithic segment per relation) are
/// rejected as unknown — the store predates any deployment, so there is
/// no migration path to carry.
pub const FORMAT_VERSION: i64 = 2;

/// A relation declaration, enough to rebuild the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationEntry {
    /// Relation name.
    pub name: String,
    /// Relation arity.
    pub arity: usize,
}

/// One shard file the manifest commits to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Schema-local relation id the shard holds facts of.
    pub rel: u32,
    /// Shard index within the relation: shard `k` holds the relation's
    /// facts `[k·capacity, (k+1)·capacity)` in dense id order.
    pub shard: u32,
    /// File name, relative to the store directory. Shards keep the
    /// epoch they were *written* at in their name, so an unchanged
    /// shard is reused across snapshots without a rewrite.
    pub file: String,
    /// Records the writer put in the shard.
    pub count: u64,
    /// Order-insensitive fingerprint of the shard's records.
    pub fingerprint: u64,
}

/// The committed description of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Format version ([`FORMAT_VERSION`]).
    pub format: i64,
    /// Monotonic snapshot epoch; names the segment files.
    pub epoch: u64,
    /// Total facts in the snapshot (the materialized prefix length).
    pub facts: u64,
    /// Facts per shard; every shard except a relation's last holds
    /// exactly this many records.
    pub shard_capacity: u64,
    /// `TiTable::fingerprint()` of the full materialized prefix.
    pub table_fingerprint: u64,
    /// Identity of the generating supply
    /// (`countable_pdb_fingerprint`), if the writer knew it. Guards
    /// against opening a store against the wrong database.
    pub pdb_fingerprint: Option<u64>,
    /// Opaque open-world distribution descriptor the serving layer
    /// wants restored alongside the facts (tail mass, tail start, …).
    pub descriptor: Option<Json>,
    /// Schema relations in id order.
    pub relations: Vec<RelationEntry>,
    /// Shard files, `(rel, shard)`-indexed.
    pub segments: Vec<SegmentEntry>,
}

fn hex_u64(v: u64) -> Json {
    Json::str(format!("{v:016x}"))
}

fn parse_hex_u64(j: &Json, field: &str) -> Result<u64, StoreError> {
    let s = j
        .as_str()
        .ok_or_else(|| StoreError::Corrupt(format!("manifest: {field} is not a string")))?;
    u64::from_str_radix(s, 16)
        .map_err(|_| StoreError::Corrupt(format!("manifest: {field} is not a hex u64")))
}

fn require<'a>(j: &'a Json, field: &str) -> Result<&'a Json, StoreError> {
    j.get(field)
        .ok_or_else(|| StoreError::Corrupt(format!("manifest: missing field {field}")))
}

fn require_i64(j: &Json, field: &str) -> Result<i64, StoreError> {
    require(j, field)?
        .as_i64()
        .ok_or_else(|| StoreError::Corrupt(format!("manifest: {field} is not an integer")))
}

/// A count, id or size: an integer that is not negative and fits `T`.
fn require_count<T: TryFrom<i64>>(j: &Json, field: &str) -> Result<T, StoreError> {
    T::try_from(require_i64(j, field)?)
        .map_err(|_| StoreError::Corrupt(format!("manifest: {field} is negative or too large")))
}

impl Manifest {
    /// Encodes the manifest to its on-disk JSON text.
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("format".to_string(), Json::Int(self.format)),
            ("epoch".to_string(), Json::Int(self.epoch as i64)),
            ("facts".to_string(), Json::Int(self.facts as i64)),
            (
                "shard_capacity".to_string(),
                Json::Int(self.shard_capacity as i64),
            ),
            ("table_fp".to_string(), hex_u64(self.table_fingerprint)),
        ];
        if let Some(fp) = self.pdb_fingerprint {
            fields.push(("pdb_fp".to_string(), hex_u64(fp)));
        }
        if let Some(d) = &self.descriptor {
            fields.push(("descriptor".to_string(), d.clone()));
        }
        fields.push((
            "relations".to_string(),
            Json::Array(
                self.relations
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(r.name.clone())),
                            ("arity", Json::Int(r.arity as i64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "segments".to_string(),
            Json::Array(
                self.segments
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("rel", Json::Int(i64::from(s.rel))),
                            ("shard", Json::Int(i64::from(s.shard))),
                            ("file", Json::str(s.file.clone())),
                            ("count", Json::Int(s.count as i64)),
                            ("fp", hex_u64(s.fingerprint)),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::Object(fields).encode_pretty()
    }

    /// Parses on-disk manifest text. Any malformation is
    /// [`StoreError::Corrupt`] — the manifest is the commit point, so
    /// it is either wholly trustworthy or not at all.
    pub fn parse(text: &str) -> Result<Self, StoreError> {
        let j = Json::parse(text).map_err(|e| StoreError::Corrupt(format!("manifest: {e}")))?;
        let format = require_i64(&j, "format")?;
        if format != FORMAT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "manifest: unknown format version {format} (this build reads {FORMAT_VERSION})"
            )));
        }
        let epoch = require_count(&j, "epoch")?;
        let facts = require_count(&j, "facts")?;
        let shard_capacity = require_count(&j, "shard_capacity")?;
        if shard_capacity == 0 {
            return Err(StoreError::Corrupt(
                "manifest: shard_capacity must be positive".into(),
            ));
        }
        let table_fingerprint = parse_hex_u64(require(&j, "table_fp")?, "table_fp")?;
        let pdb_fingerprint = match j.get("pdb_fp") {
            Some(v) => Some(parse_hex_u64(v, "pdb_fp")?),
            None => None,
        };
        let descriptor = j.get("descriptor").cloned();
        let mut relations = Vec::new();
        for r in require(&j, "relations")?
            .as_array()
            .ok_or_else(|| StoreError::Corrupt("manifest: relations is not an array".into()))?
        {
            relations.push(RelationEntry {
                name: require(r, "name")?
                    .as_str()
                    .ok_or_else(|| {
                        StoreError::Corrupt("manifest: relation name is not a string".into())
                    })?
                    .to_string(),
                arity: require_count(r, "arity")?,
            });
        }
        let mut segments = Vec::new();
        for s in require(&j, "segments")?
            .as_array()
            .ok_or_else(|| StoreError::Corrupt("manifest: segments is not an array".into()))?
        {
            segments.push(SegmentEntry {
                rel: require_count(s, "rel")?,
                shard: require_count(s, "shard")?,
                file: require(s, "file")?
                    .as_str()
                    .ok_or_else(|| {
                        StoreError::Corrupt("manifest: segment file is not a string".into())
                    })?
                    .to_string(),
                count: require_count(s, "count")?,
                fingerprint: parse_hex_u64(require(s, "fp")?, "fp")?,
            });
        }
        Ok(Manifest {
            format,
            epoch,
            facts,
            shard_capacity,
            table_fingerprint,
            pdb_fingerprint,
            descriptor,
            relations,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            format: FORMAT_VERSION,
            epoch: 7,
            facts: 123,
            shard_capacity: 100,
            table_fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            pdb_fingerprint: Some(u64::MAX),
            descriptor: Some(Json::obj([
                ("tail_mass", Json::Float(0.5)),
                ("tail_start", Json::Int(1_000_000)),
            ])),
            relations: vec![
                RelationEntry {
                    name: "R".into(),
                    arity: 2,
                },
                RelationEntry {
                    name: "S".into(),
                    arity: 1,
                },
            ],
            segments: vec![
                SegmentEntry {
                    rel: 0,
                    shard: 0,
                    file: "rel0-s0-7.seg".into(),
                    count: 100,
                    fingerprint: 42,
                },
                SegmentEntry {
                    rel: 0,
                    shard: 1,
                    file: "rel0-s1-3.seg".into(),
                    count: 23,
                    fingerprint: 43,
                },
            ],
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        let m = sample();
        let parsed = Manifest::parse(&m.encode()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn round_trip_without_optionals() {
        let m = Manifest {
            pdb_fingerprint: None,
            descriptor: None,
            ..sample()
        };
        assert_eq!(Manifest::parse(&m.encode()).unwrap(), m);
    }

    #[test]
    fn u64_extremes_survive_the_hex_detour() {
        for fp in [0u64, 1, u64::MAX, 1 << 63, 0x8000_0000_0000_0001] {
            let m = Manifest {
                table_fingerprint: fp,
                pdb_fingerprint: Some(fp),
                ..sample()
            };
            let parsed = Manifest::parse(&m.encode()).unwrap();
            assert_eq!(parsed.table_fingerprint, fp);
            assert_eq!(parsed.pdb_fingerprint, Some(fp));
        }
    }

    #[test]
    fn malformed_manifests_are_corrupt_not_panics() {
        for text in [
            "",
            "not json",
            "{}",
            r#"{"format": 99, "epoch": 0, "facts": 0, "shard_capacity": 1, "table_fp": "0", "relations": [], "segments": []}"#,
            // the retired monolithic-segment v1 layout is unknown, loudly
            r#"{"format": 1, "epoch": 0, "facts": 0, "table_fp": "0", "relations": [], "segments": []}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "shard_capacity": 0, "table_fp": "0", "relations": [], "segments": []}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "table_fp": "0", "relations": [], "segments": []}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "shard_capacity": 1, "table_fp": 12, "relations": [], "segments": []}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "shard_capacity": 1, "table_fp": "zz", "relations": [], "segments": []}"#,
            // negative counts must not wrap into huge ones
            r#"{"format": 2, "epoch": 0, "facts": -1, "shard_capacity": 1, "table_fp": "0", "relations": [], "segments": []}"#,
            r#"{"format": 2, "epoch": -3, "facts": 0, "shard_capacity": 1, "table_fp": "0", "relations": [], "segments": []}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "shard_capacity": -1, "table_fp": "0", "relations": [], "segments": []}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "shard_capacity": 1, "table_fp": "0", "relations": [{"name": "R", "arity": -1}], "segments": []}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "shard_capacity": 1, "table_fp": "0", "relations": [], "segments": [{"rel": -1, "shard": 0, "file": "f", "count": 0, "fp": "0"}]}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "shard_capacity": 1, "table_fp": "0", "relations": [], "segments": [{"rel": 0, "shard": 4294967296, "file": "f", "count": 0, "fp": "0"}]}"#,
            r#"{"format": 2, "epoch": 0, "facts": 0, "shard_capacity": 1, "table_fp": "0", "relations": [], "segments": [{"rel": 0, "shard": 0, "file": "f", "count": -5, "fp": "0"}]}"#,
        ] {
            assert!(
                matches!(Manifest::parse(text), Err(StoreError::Corrupt(_))),
                "{text:?}"
            );
        }
    }
}
