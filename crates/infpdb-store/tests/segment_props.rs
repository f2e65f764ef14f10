//! Property tests for the segment codec (ISSUE 7 satellite):
//! seeded random fact tables round-trip through
//! `encode_segment`/`scan_segment` bit-for-bit, and a segment cut at
//! **every** byte offset recovers a valid prefix — never panics, never
//! invents records, never accepts a damaged frame. The store's shard
//! footers, which it writes from the catalog's cached digests, match
//! the fingerprint recomputed from each shard's decoded records.

use infpdb_core::fact::{Fact, FactId};
use infpdb_core::fingerprint::{combine_unordered, fact_fingerprint};
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::value::Value;
use infpdb_store::segment::{encode_segment, records_fingerprint, scan_segment, HEADER_LEN};
use infpdb_store::Store;
use infpdb_ti::catalog::FactCatalog;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One random argument: integer, fixed-point, or string.
fn value() -> impl Strategy<Value = Value> {
    (0u8..3, -1_000_000i64..1_000_000, 0u8..6).prop_map(|(tag, n, e)| match tag {
        0 => Value::int(n),
        1 => Value::fixed(n, e),
        _ => Value::str(format!("s{n}")),
    })
}

/// A random unary-to-ternary fact table: (arity, rows of (args, prob)).
/// Rows are generated at the maximum arity and trimmed in [`build`].
fn table() -> impl Strategy<Value = (usize, Vec<(Vec<Value>, f64)>)> {
    let row = (
        prop::collection::vec(value(), 3..4),
        (0u64..=1_000_000).prop_map(|i| i as f64 / 1_000_000.0),
    );
    (1usize..4, prop::collection::vec(row, 0..12))
}

fn build(arity: usize, rows: &[(Vec<Value>, f64)]) -> (Schema, Vec<(Fact, f64)>) {
    let schema = Schema::from_relations([Relation::new("R", arity)]).unwrap();
    let facts = rows
        .iter()
        .map(|(args, p)| (Fact::new(RelId(0), args[..arity].iter().cloned()), *p))
        .collect();
    (schema, facts)
}

/// The segment image of `facts` as ids `0..`, its footer fingerprint
/// combined from the facts' content digests.
fn encode(schema: &Schema, facts: &[(Fact, f64)]) -> Vec<u8> {
    let records: Vec<(FactId, &Fact, f64)> = facts
        .iter()
        .enumerate()
        .map(|(i, (f, p))| (FactId(i as u32), f, *p))
        .collect();
    let fp = combine_unordered(facts.iter().map(|(f, p)| fact_fingerprint(schema, f, *p)));
    encode_segment(schema, RelId(0), &records, fp)
}

/// A random two-relation catalog (`R/1`, `S/3`; the first argument is
/// the enumeration index, so facts are distinct) and a small shard
/// capacity.
fn catalog_rows() -> impl Strategy<Value = (Vec<(u8, Vec<Value>, f64)>, u64)> {
    let row = (
        0u8..2,
        prop::collection::vec(value(), 2..3),
        (0u64..=1_000_000).prop_map(|i| i as f64 / 1_000_000.0),
    );
    (prop::collection::vec(row, 0..30), 1u64..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the table, the full image scans back clean and equal:
    /// same ids, bit-identical probabilities, same args, and a footer
    /// fingerprint that matches the recomputed one.
    #[test]
    fn encode_scan_round_trip_is_bit_exact((arity, rows) in table()) {
        let (schema, facts) = build(arity, &rows);
        let image = encode(&schema, &facts);
        let scan = scan_segment(&image);
        prop_assert!(scan.clean(), "not clean: {scan:?}");
        prop_assert_eq!(scan.records.len(), facts.len());
        for (i, rec) in scan.records.iter().enumerate() {
            prop_assert_eq!(rec.id, i as u32);
            prop_assert_eq!(rec.prob.to_bits(), facts[i].1.to_bits());
            prop_assert_eq!(&rec.args, facts[i].0.args());
        }
        let fp = records_fingerprint(&schema, RelId(0), &scan.records);
        prop_assert_eq!(scan.footer.unwrap().fingerprint, fp);
        prop_assert_eq!(scan.footer.unwrap().count, facts.len() as u64);
    }

    /// Torn-write totality: cutting the image at EVERY byte offset
    /// yields a scan that (a) never panics, (b) keeps only a prefix of
    /// the original records, each bit-identical, and (c) reports any
    /// missing suffix as damage (torn bytes, checksum failure, or a
    /// missing footer) rather than pretending the file is clean.
    #[test]
    fn truncation_at_every_byte_recovers_a_bit_exact_prefix((arity, rows) in table()) {
        let (schema, facts) = build(arity, &rows);
        let image = encode(&schema, &facts);
        let full = scan_segment(&image);
        for cut in 0..image.len() {
            let scan = scan_segment(&image[..cut]);
            prop_assert!(
                scan.records.len() <= full.records.len(),
                "cut {cut}: more records than written"
            );
            for (rec, orig) in scan.records.iter().zip(&full.records) {
                prop_assert_eq!(rec, orig);
            }
            if cut < HEADER_LEN {
                prop_assert!(scan.header.is_none(), "cut {cut}: partial header accepted");
            }
            // honesty: a cut image must never read as clean, since the
            // footer cannot be intact at any cut < len
            prop_assert!(!scan.clean(), "cut {cut} of {} read as clean", image.len());
        }
    }

    /// Whatever the catalog and shard capacity, every shard a snapshot
    /// writes (a first one, then an incremental one after more
    /// appends) carries the footer fingerprint of its decoded records,
    /// and the manifest commits to the same value.
    #[test]
    fn written_footers_match_their_decoded_records((rows, cap) in catalog_rows()) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "infpdb-segment-props-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::from_relations([Relation::new("R", 1), Relation::new("S", 3)]).unwrap();
        let store = Store::open_dir(&dir).with_shard_capacity(cap);
        let mut catalog = FactCatalog::new(schema.clone());
        let half = rows.len() / 2;
        for (i, (rel, args, p)) in rows.iter().enumerate() {
            let first = Value::int(i as i64);
            let fact = if *rel == 0 {
                Fact::new(RelId(0), [first])
            } else {
                Fact::new(RelId(1), std::iter::once(first).chain(args.iter().cloned()))
            };
            catalog.push(fact, *p).unwrap();
            if i + 1 != half && i + 1 != rows.len() {
                continue;
            }
            store.snapshot(&catalog, None, None).unwrap();
            let manifest = store.read_manifest().unwrap().unwrap();
            for entry in &manifest.segments {
                let scan = scan_segment(&std::fs::read(dir.join(&entry.file)).unwrap());
                prop_assert!(scan.clean(), "{}: {scan:?}", entry.file);
                let footer = scan.footer.unwrap().fingerprint;
                let rel = RelId(entry.rel);
                prop_assert_eq!(footer, records_fingerprint(&schema, rel, &scan.records));
                prop_assert_eq!(footer, entry.fingerprint);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
