//! Segment files: one relation's slice of the catalog, checksummed.
//!
//! A segment holds the facts of a single relation in dense [`FactId`]
//! order. The layout is designed so that *any* prefix of the file, cut
//! at any byte, decodes to a valid (possibly empty) prefix of records —
//! the property torn-write recovery rests on:
//!
//! ```text
//! header   "IPDBSEG1" | rel u32 | arity u32 | crc32c(rel,arity) u32      20 B
//! record*  len u32 | crc32c(payload) u32 | payload                     8+len
//! footer   "IPDBFTR1" | count u64 | fingerprint u64 | crc32c u32        28 B
//! ```
//!
//! The record payload is `fact_id u32 | prob_bits u64 | argc u16 | args`,
//! each argument tagged (`0` Int `i64`, `1` Fixed `mantissa i64, exp u8`,
//! `2` Str `len u32, utf8`). Probabilities cross the boundary as exact
//! `f64` bit patterns — restored answers must be bit-for-bit equal to
//! fresh-ground ones, so no decimal round trip is allowed anywhere.
//!
//! The footer's fingerprint is the order-insensitive
//! [`combine_unordered`] of [`fact_fingerprint`]s, the same digest
//! [`TiTable::fingerprint`](infpdb_finite::TiTable::fingerprint) builds
//! on, so a loaded segment can be verified against the live table.
//!
//! [`scan_segment`] never fails: it walks frames until the first
//! checksum mismatch or truncated frame and reports what it kept and
//! what it lost. Interpreting the loss is the caller's job.

use infpdb_core::fact::{Fact, FactId};
use infpdb_core::fingerprint::{combine_unordered, fact_fingerprint};
use infpdb_core::schema::{RelId, Schema};
use infpdb_core::value::{Fixed, Value};

use crate::crc32c;

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"IPDBSEG1";
/// Magic bytes opening the footer.
pub const FTR_MAGIC: &[u8; 8] = b"IPDBFTR1";
/// Header length in bytes.
pub const HEADER_LEN: usize = 20;
/// Footer length in bytes.
pub const FOOTER_LEN: usize = 28;
/// Sanity cap on a single record frame's payload length. A frame
/// claiming more than this is treated as torn rather than allocated.
pub const MAX_RECORD_LEN: u32 = 1 << 24;
/// Minimum payload length: `fact_id u32 + prob u64 + argc u16`.
const MIN_RECORD_LEN: u32 = 14;

const TAG_INT: u8 = 0;
const TAG_FIXED: u8 = 1;
const TAG_STR: u8 = 2;

/// Parsed segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// The relation this segment belongs to (schema-local id).
    pub rel: u32,
    /// The relation's arity, recorded for fsck without a schema.
    pub arity: u32,
}

/// Parsed segment footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFooter {
    /// Number of records the writer put in this segment.
    pub count: u64,
    /// Order-insensitive fingerprint of the records.
    pub fingerprint: u64,
}

/// One decoded record. The relation comes from the segment header.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRecord {
    /// Dense fact id (equals the enumeration index).
    pub id: u32,
    /// Marginal probability, exact bits preserved.
    pub prob: f64,
    /// Argument tuple.
    pub args: Vec<Value>,
}

impl SegmentRecord {
    /// Rebuilds the [`Fact`] this record encodes.
    pub fn to_fact(&self, rel: RelId) -> Fact {
        Fact::new(rel, self.args.iter().cloned())
    }
}

/// What a [`scan_segment`] pass found. Never an error: corruption is
/// data, reported in the counters.
#[derive(Debug, Clone, Default)]
pub struct ScanOutcome {
    /// The header, if its magic and checksum were intact.
    pub header: Option<SegmentHeader>,
    /// Records up to the first damage, in file order.
    pub records: Vec<SegmentRecord>,
    /// The footer, if reached and intact.
    pub footer: Option<SegmentFooter>,
    /// Frames (or the header/footer) whose checksum did not match.
    pub checksum_failures: u64,
    /// Bytes after the last valid record that could not be decoded —
    /// the torn tail a crashed write leaves.
    pub torn_bytes: usize,
}

impl ScanOutcome {
    /// Whether the segment read back exactly as written: intact header,
    /// intact footer, record count matching the footer, no damage.
    pub fn clean(&self) -> bool {
        self.header.is_some()
            && self.checksum_failures == 0
            && self.torn_bytes == 0
            && self
                .footer
                .is_some_and(|f| f.count == self.records.len() as u64)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_payload(out: &mut Vec<u8>, id: FactId, fact: &Fact, prob: f64) {
    put_u32(out, id.0);
    put_u64(out, prob.to_bits());
    put_u16(out, fact.args().len() as u16);
    for arg in fact.args() {
        match arg {
            Value::Int(n) => {
                out.push(TAG_INT);
                put_u64(out, *n as u64);
            }
            Value::Fixed(x) => {
                out.push(TAG_FIXED);
                put_u64(out, x.mantissa() as u64);
                out.push(x.exponent());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                put_u32(out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// Serializes one relation's records into a complete segment file image.
/// `records` must be in ascending [`FactId`] order (the catalog's
/// iteration order, filtered to `rel`). `fingerprint` goes into the
/// footer and must be the [`combine_unordered`] of the records'
/// [`fact_fingerprint`]s; the store combines it from the catalog's
/// cached digests, so no fact is hashed here.
pub fn encode_segment(
    schema: &Schema,
    rel: RelId,
    records: &[(FactId, &Fact, f64)],
    fingerprint: u64,
) -> Vec<u8> {
    let arity = schema.get(rel).map(|r| r.arity()).unwrap_or(0) as u32;
    let mut out = Vec::with_capacity(HEADER_LEN + FOOTER_LEN + records.len() * 40);
    out.extend_from_slice(SEG_MAGIC);
    put_u32(&mut out, rel.0);
    put_u32(&mut out, arity);
    let hdr_crc = crc32c(&out[8..16]);
    put_u32(&mut out, hdr_crc);
    for &(id, fact, prob) in records {
        // the payload goes straight into the image; its length and CRC
        // are filled in ahead of it once it is written
        let frame = out.len();
        out.extend_from_slice(&[0; 8]);
        put_payload(&mut out, id, fact, prob);
        let payload = &out[frame + 8..];
        let len = (payload.len() as u32).to_le_bytes();
        let crc = crc32c(payload).to_le_bytes();
        out[frame..frame + 4].copy_from_slice(&len);
        out[frame + 4..frame + 8].copy_from_slice(&crc);
    }
    out.extend_from_slice(FTR_MAGIC);
    put_u64(&mut out, records.len() as u64);
    put_u64(&mut out, fingerprint);
    let ftr_start = out.len() - 16;
    let ftr_crc = crc32c(&out[ftr_start..]);
    put_u32(&mut out, ftr_crc);
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
}

fn decode_payload(payload: &[u8]) -> Option<SegmentRecord> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let id = c.u32()?;
    let prob = f64::from_bits(c.u64()?);
    let argc = c.u16()?;
    let mut args = Vec::with_capacity(argc as usize);
    for _ in 0..argc {
        let arg = match c.u8()? {
            TAG_INT => Value::Int(c.u64()? as i64),
            TAG_FIXED => {
                let mantissa = c.u64()? as i64;
                let exp = c.u8()?;
                if exp > Fixed::MAX_EXPONENT {
                    return None;
                }
                let fixed = Fixed::new(mantissa, exp);
                // reject non-canonical encodings: they cannot have been
                // produced by put_payload, so this is corruption
                if fixed.mantissa() != mantissa || fixed.exponent() != exp {
                    return None;
                }
                Value::Fixed(fixed)
            }
            TAG_STR => {
                let len = c.u32()? as usize;
                let bytes = c.take(len)?;
                Value::Str(std::str::from_utf8(bytes).ok()?.into())
            }
            _ => return None,
        };
        args.push(arg);
    }
    if c.pos != payload.len() {
        return None;
    }
    Some(SegmentRecord { id, prob, args })
}

/// Walks a segment image front to back, keeping every record up to the
/// first damage. Total: any byte string yields an outcome, and the
/// records returned are always exactly what an undamaged prefix of the
/// file contained.
pub fn scan_segment(bytes: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    if bytes.len() < HEADER_LEN || &bytes[..8] != SEG_MAGIC {
        out.torn_bytes = bytes.len();
        return out;
    }
    let hdr_crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    if crc32c(&bytes[8..16]) != hdr_crc {
        out.checksum_failures += 1;
        out.torn_bytes = bytes.len();
        return out;
    }
    out.header = Some(SegmentHeader {
        rel: u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        arity: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
    });
    let mut pos = HEADER_LEN;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            // no footer: the writer was killed between records
            break;
        }
        if rest.len() >= 8 && &rest[..8] == FTR_MAGIC {
            if rest.len() < FOOTER_LEN {
                out.torn_bytes = rest.len();
                break;
            }
            let crc = u32::from_le_bytes(rest[24..28].try_into().unwrap());
            if crc32c(&rest[8..24]) != crc {
                out.checksum_failures += 1;
                out.torn_bytes = rest.len();
                break;
            }
            out.footer = Some(SegmentFooter {
                count: u64::from_le_bytes(rest[8..16].try_into().unwrap()),
                fingerprint: u64::from_le_bytes(rest[16..24].try_into().unwrap()),
            });
            // anything after an intact footer is foreign junk
            out.torn_bytes = rest.len() - FOOTER_LEN;
            break;
        }
        if rest.len() < 8 {
            out.torn_bytes = rest.len();
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if !(MIN_RECORD_LEN..=MAX_RECORD_LEN).contains(&len) || rest.len() < 8 + len as usize {
            out.torn_bytes = rest.len();
            break;
        }
        let payload = &rest[8..8 + len as usize];
        if crc32c(payload) != crc {
            out.checksum_failures += 1;
            out.torn_bytes = rest.len();
            break;
        }
        match decode_payload(payload) {
            Some(rec) => out.records.push(rec),
            None => {
                // CRC passed but the payload grammar didn't: corruption
                // that collided the checksum, or a writer bug — either
                // way the tail is untrustworthy
                out.checksum_failures += 1;
                out.torn_bytes = rest.len();
                break;
            }
        }
        pos += 8 + len as usize;
    }
    out
}

/// Recomputes the order-insensitive fingerprint of decoded records — the
/// value the footer stores — for verification against the live table.
pub fn records_fingerprint(schema: &Schema, rel: RelId, records: &[SegmentRecord]) -> u64 {
    combine_unordered(
        records
            .iter()
            .map(|r| fact_fingerprint(schema, &r.to_fact(rel), r.prob)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::Relation;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 2)]).unwrap()
    }

    fn sample_records() -> Vec<(FactId, Fact, f64)> {
        (0..5)
            .map(|i| {
                (
                    FactId(i),
                    Fact::new(
                        RelId(0),
                        [
                            Value::int(i as i64),
                            if i % 2 == 0 {
                                Value::str(format!("s{i}"))
                            } else {
                                Value::fixed(i as i64 * 10 + 1, 1)
                            },
                        ],
                    ),
                    0.5_f64.powi(i as i32 + 1),
                )
            })
            .collect()
    }

    /// Encodes with the footer fingerprint computed from the facts.
    fn encode(schema: &Schema, rel: RelId, records: &[(FactId, Fact, f64)]) -> Vec<u8> {
        let borrowed: Vec<(FactId, &Fact, f64)> =
            records.iter().map(|(i, f, p)| (*i, f, *p)).collect();
        let fp = combine_unordered(
            records
                .iter()
                .map(|(_, f, p)| fact_fingerprint(schema, f, *p)),
        );
        encode_segment(schema, rel, &borrowed, fp)
    }

    fn encode_sample() -> (Vec<u8>, Vec<(FactId, Fact, f64)>) {
        let owned = sample_records();
        (encode(&schema(), RelId(0), &owned), owned)
    }

    /// A three-record segment of a ternary relation with `Int`, `Fixed`
    /// and `Str` arguments (ids 1, 4, 6), byte for byte. Stores on disk
    /// hold segments in this format, so the encoder must keep writing
    /// exactly these bytes.
    const GOLDEN_SEGMENT: &str = "\
        49504442534547310100000003000000944636a727000000a28a872301000000\
        000000000000e03f030000010000000000000001190000000000000001020100\
        0000612c0000000391302104000000000000000000c03f030000f9ffffffffff\
        ffff012efbffffffffffff03020600000068c3a96c6c6f26000000aea87eee06\
        000000555555555555d53f030000ffffffffffffff7f01000000000000000000\
        020000000049504442465452310300000000000000ec1f89b2861d26e0015df5\
        d7";

    fn golden_records() -> (Schema, Vec<(FactId, Fact, f64)>) {
        let schema =
            Schema::from_relations([Relation::new("R", 1), Relation::new("S", 3)]).unwrap();
        let s = RelId(1);
        let records = vec![
            (
                FactId(1),
                Fact::new(s, [Value::int(1), Value::fixed(25, 1), Value::str("a")]),
                0.5,
            ),
            (
                FactId(4),
                Fact::new(
                    s,
                    [Value::int(-7), Value::fixed(-1234, 3), Value::str("héllo")],
                ),
                0.125,
            ),
            (
                FactId(6),
                Fact::new(
                    s,
                    [Value::int(i64::MAX), Value::fixed(0, 0), Value::str("")],
                ),
                1.0 / 3.0,
            ),
        ];
        (schema, records)
    }

    #[test]
    fn encoder_reproduces_the_golden_segment() {
        let (schema, records) = golden_records();
        let image = encode(&schema, RelId(1), &records);
        let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_SEGMENT);
        let scan = scan_segment(&image);
        assert!(scan.clean(), "{scan:?}");
        assert_eq!(scan.header.unwrap().arity, 3);
        assert_eq!(scan.records.len(), records.len());
        for (rec, (id, fact, prob)) in scan.records.iter().zip(&records) {
            assert_eq!(rec.id, id.0);
            assert_eq!(rec.prob.to_bits(), prob.to_bits());
            assert_eq!(&rec.to_fact(RelId(1)), fact);
        }
        assert_eq!(
            records_fingerprint(&schema, RelId(1), &scan.records),
            scan.footer.unwrap().fingerprint
        );
    }

    #[test]
    fn round_trip_is_exact() {
        let (bytes, owned) = encode_sample();
        let scan = scan_segment(&bytes);
        assert!(scan.clean(), "{scan:?}");
        assert_eq!(scan.header.unwrap().rel, 0);
        assert_eq!(scan.header.unwrap().arity, 2);
        assert_eq!(scan.records.len(), owned.len());
        for (rec, (id, fact, prob)) in scan.records.iter().zip(&owned) {
            assert_eq!(rec.id, id.0);
            assert_eq!(rec.prob.to_bits(), prob.to_bits());
            assert_eq!(&rec.to_fact(RelId(0)), fact);
        }
        let fp = records_fingerprint(&schema(), RelId(0), &scan.records);
        assert_eq!(fp, scan.footer.unwrap().fingerprint);
    }

    #[test]
    fn truncation_at_every_byte_yields_a_valid_prefix() {
        let (bytes, owned) = encode_sample();
        for cut in 0..bytes.len() {
            let scan = scan_segment(&bytes[..cut]);
            assert!(
                scan.records.len() <= owned.len(),
                "cut {cut} invented records"
            );
            assert!(!scan.clean() || cut == bytes.len());
            for (rec, (id, fact, prob)) in scan.records.iter().zip(&owned) {
                assert_eq!(rec.id, id.0, "cut {cut}");
                assert_eq!(rec.prob.to_bits(), prob.to_bits(), "cut {cut}");
                assert_eq!(&rec.to_fact(RelId(0)), fact, "cut {cut}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let (bytes, owned) = encode_sample();
        let baseline = scan_segment(&bytes);
        assert!(baseline.clean());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                let scan = scan_segment(&flipped);
                // a flip may land in a record we then drop, but it must
                // never produce a clean full read with altered content
                if scan.clean() && scan.records.len() == owned.len() {
                    for (rec, (id, fact, prob)) in scan.records.iter().zip(&owned) {
                        assert_eq!(rec.id, id.0, "flip {byte}:{bit}");
                        assert_eq!(rec.prob.to_bits(), prob.to_bits(), "flip {byte}:{bit}");
                        assert_eq!(&rec.to_fact(RelId(0)), fact, "flip {byte}:{bit}");
                    }
                    assert_eq!(
                        records_fingerprint(&schema(), RelId(0), &scan.records),
                        baseline.footer.unwrap().fingerprint,
                        "flip {byte}:{bit}"
                    );
                } else {
                    assert!(
                        scan.checksum_failures > 0 || scan.torn_bytes > 0 || !scan.clean(),
                        "flip {byte}:{bit} went unnoticed"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let bytes = encode(&schema(), RelId(0), &[]);
        let scan = scan_segment(&bytes);
        assert!(scan.clean());
        assert!(scan.records.is_empty());
        assert_eq!(scan.footer.unwrap().count, 0);
    }

    #[test]
    fn garbage_input_is_all_torn() {
        let scan = scan_segment(b"not a segment at all, sorry");
        assert!(scan.header.is_none());
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn_bytes, 27);
    }
}
