#![warn(missing_docs)]
//! Durable fact store for `infpdb`: crash-safe snapshots of grounded
//! enumeration prefixes, with torn-write recovery.
//!
//! Everything the prepared-query pipeline grounds lives in one
//! append-only [`FactCatalog`](infpdb_ti::catalog::FactCatalog): dense
//! fact ids equal to enumeration indexes, probabilities aligned. This
//! crate persists that artifact so a restart skips the enumeration cost
//! and a crash loses at most the unsnapshotted suffix:
//!
//! * **Segments** ([`segment`]) — one file per *shard*: each relation's
//!   facts are chunked into fixed-capacity dense-id ranges, records in
//!   dense `FactId` order, fixed-width frame headers (length + CRC32C)
//!   around each record, a footer carrying the record count and an
//!   order-insensitive content fingerprint. Full shards are immutable,
//!   so incremental snapshots rewrite only the tail shards that changed
//!   and reuse the rest byte-for-byte.
//! * **Manifest** ([`manifest`]) — the single commit point. Shard
//!   files are immutable once written (named for the epoch that wrote
//!   them); `MANIFEST` is replaced only via write-temp → fsync → atomic
//!   rename, so at every instant the manifest on disk points at a
//!   complete set of files from *some* successful snapshot.
//! * **Recovery** ([`store`]) — total and honest. A torn or corrupt
//!   segment tail is detected by checksum, truncated to the last valid
//!   record, and reported as a recovered prefix (facts kept, facts
//!   dropped) rather than a panic or silent acceptance. Truncating to a
//!   prefix is *sound* by the paper's Proposition 6.1: any `m`-fact
//!   prefix re-certifies at the widened tolerance
//!   `ε_m = e^{1.5·T_m} − 1` (the query layer computes the floor via
//!   its partial certificates).
//! * **Failure model** ([`io`]) — all file I/O goes through the
//!   [`StoreIo`] trait. [`FaultyIo`] extends the serving layer's seeded
//!   fault machinery ([`infpdb_core::faultsim`]) with storage faults:
//!   short writes, seeded bit flips, and injected I/O errors at the
//!   write/fsync/rename sites, deterministically per seed.

pub mod io;
pub mod manifest;
pub mod segment;
pub mod store;

pub use io::{FaultyIo, FileView, IoFault, StdIo, StoreIo};
pub use manifest::Manifest;
pub use store::{
    FsckReport, Recovered, RecoveryReport, ShardStat, SnapshotInfo, Store, StoreStat,
    DEFAULT_SHARD_CAPACITY,
};

/// Errors of the durable-store layer.
#[derive(Debug)]
pub enum StoreError {
    /// A file operation failed (including injected faults).
    Io {
        /// Which operation (`"write"`, `"fsync"`, `"rename"`, …).
        op: &'static str,
        /// The path involved.
        path: std::path::PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// On-disk state failed validation beyond what recovery can absorb
    /// (unparseable manifest, unknown format version).
    Corrupt(String),
    /// Rebuilding the catalog from recovered records failed.
    Ti(infpdb_ti::TiError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store {op} failed on {}: {source}", path.display())
            }
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::Ti(e) => write!(f, "store restore failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<infpdb_ti::TiError> for StoreError {
    fn from(e: infpdb_ti::TiError) -> Self {
        StoreError::Ti(e)
    }
}

/// CRC32C (Castagnoli), the per-record and footer checksum.
///
/// Software slicing-by-8: eight bytes per step through eight
/// 256-entry tables, then the remaining bytes one at a time. The
/// polynomial's error-detection properties (and hardware support
/// elsewhere) are why storage systems standardized on it over CRC32.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `CRC32C_TABLES[k][i]`: the CRC register after byte `i` followed by
/// `k` zero bytes. Table 0 is the classic bytewise table.
static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise CRC, one table lookup per byte: the reference the
    /// sliced loop must equal.
    fn crc32c_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32C_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32c_sliced_equals_bytewise_at_every_length_and_offset() {
        let mut state = 0x5EED_u64;
        let bytes: Vec<u8> = (0..72)
            .map(|_| {
                // SplitMix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32c(s), crc32c_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 appendix test vectors
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn crc32c_detects_single_bit_flips() {
        let base = b"the quick brown fox".to_vec();
        let c0 = crc32c(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), c0, "flip at {byte}:{bit}");
            }
        }
    }
}
