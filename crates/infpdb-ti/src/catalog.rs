//! Shared fact catalogs: the grounded artifact of the prepared-query
//! pipeline.
//!
//! Proposition 6.1's truncation length `n(ε)` depends only on the PDB's
//! probability series, so the materialized prefix `f₁ … f_n` is a stable,
//! query-independent artifact. A [`FactCatalog`] holds that prefix once,
//! as one growing [`TiTable`] — dense fact ids equal to enumeration
//! indexes, aligned probabilities — and hands out the `Ω_n` snapshot at
//! any `n` as an O(1) [`TiTable::prefix`] view of it: no fact is
//! re-hashed, cloned or re-validated, because [`push`](FactCatalog::push)
//! validated every probability on the way in.
//!
//! The catalog is append-only: extending to a larger `n` never perturbs
//! existing ids, which is what keeps prepared evaluations bit-for-bit
//! identical to a fresh truncation — a prefix snapshot at `n`
//! contains exactly the facts, ids, and probability bits
//! [`CountableTiPdb::truncate`](crate::construction::CountableTiPdb::truncate)
//! produces at `n`.
//!
//! Alongside the facts, the catalog keeps each fact's content digest
//! ([`fact_fingerprint`]) and a running [`UnorderedCombiner`], so
//! [`fingerprint`](FactCatalog::fingerprint) is O(1) per call and the
//! durable store's per-shard skip-checks combine cached digests instead
//! of rehashing 10⁷ facts at every snapshot.

use crate::TiError;
use infpdb_core::fact::{Fact, FactId};
use infpdb_core::fingerprint::{
    combine_unordered, fact_fingerprint, Fingerprinter, UnorderedCombiner,
};
use infpdb_core::schema::Schema;
use infpdb_core::CoreError;
use infpdb_finite::{FiniteError, TiTable};

/// A materialized enumeration prefix: dense fact ids, probabilities, and
/// the schema they live in. Append-only; snapshot tables via
/// [`table_prefix`](Self::table_prefix).
#[derive(Debug, Clone)]
pub struct FactCatalog {
    /// Every fact pushed so far, in enumeration order. `push` is its only
    /// writer, so every probability in it has been checked.
    table: TiTable,
    /// `digests[i]` = `fact_fingerprint(schema, fact_i, prob_i)`, cached
    /// at push time so set-level fingerprints never rehash content.
    digests: Vec<u64>,
    /// Running order-insensitive combine of `digests` — kept in
    /// lockstep with every push, bit-identical to batch
    /// `combine_unordered(digests)`.
    combiner: UnorderedCombiner,
}

impl FactCatalog {
    /// An empty catalog over a schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            table: TiTable::new(schema),
            digests: Vec::new(),
            combiner: UnorderedCombiner::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Facts materialized so far (also the next enumeration index).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether nothing has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Appends the next enumerated fact. The id returned equals the
    /// fact's enumeration index; duplicates are rejected (enumerations
    /// are injective) and probabilities validated. The fact is moved
    /// into the interner with one hash and one probe, never cloned.
    pub fn push(&mut self, fact: Fact, p: f64) -> Result<FactId, TiError> {
        let second = self.len();
        let id = self.table.add_fact(fact, p).map_err(|e| match e {
            FiniteError::DuplicateFact { first, .. } => TiError::DuplicateEnumeration {
                first: first.0 as usize,
                second,
            },
            FiniteError::Core(CoreError::Math(e)) => TiError::Math(e),
            e => TiError::Finite(e.to_string()),
        })?;
        let digest = fact_fingerprint(self.schema(), self.fact(id), p);
        self.digests.push(digest);
        self.combiner.add(digest);
        Ok(id)
    }

    /// The probability of a materialized fact id.
    pub fn prob(&self, id: FactId) -> f64 {
        self.table.prob(id)
    }

    /// The materialized fact for an id, borrowed from the catalog.
    pub fn fact(&self, id: FactId) -> &Fact {
        self.table.interner().resolve(id)
    }

    /// The cached per-fact content digests, aligned with fact ids.
    /// `digests()[i]` is `fact_fingerprint(schema, fact_i, prob_i)` —
    /// exactly what segment footers store, so the durable store computes
    /// a shard's fingerprint by combining a subrange of this slice
    /// without touching fact bytes.
    pub fn fact_digests(&self) -> &[u64] {
        &self.digests
    }

    /// The content fingerprint of the whole catalog, O(1) per call
    /// (amortized: one [`UnorderedCombiner::add`] per push, plus an
    /// O(#relations) schema digest here). Bit-identical to
    /// `self.table_prefix(self.len()).fingerprint()` — asserted by the
    /// property tests — without materializing a table or rehashing any
    /// fact.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_u64(combine_unordered(self.schema().iter().map(|(_, r)| {
            let mut rf = Fingerprinter::new();
            rf.write_bytes(r.name().as_bytes())
                .write_u64(r.arity() as u64);
            rf.finish()
        })));
        fp.write_u64(self.combiner.finish());
        fp.finish()
    }

    /// Walks the materialized prefix in id order: `(id, fact, prob)`.
    /// This is the snapshot hook the durable store uses to serialize the
    /// catalog — the iteration order *is* the dense on-disk order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact, f64)> {
        self.table.iter()
    }

    /// Rebuilds a catalog from `(fact, probability)` pairs in enumeration
    /// order — the restore hook matching [`iter`](Self::iter). Ids are
    /// reassigned densely in input order, so a round trip through
    /// `iter`/`from_parts` is the identity (same ids, same probability
    /// bits). Fails like [`push`](Self::push) on duplicates or invalid
    /// probabilities.
    pub fn from_parts(
        schema: Schema,
        parts: impl IntoIterator<Item = (Fact, f64)>,
    ) -> Result<Self, TiError> {
        let mut c = FactCatalog::new(schema);
        for (fact, p) in parts {
            c.push(fact, p)?;
        }
        Ok(c)
    }

    /// A [`TiTable`] over the first `n` materialized facts — the `Ω_n`
    /// prefix of Proposition 6.1 with ids equal to enumeration indexes.
    ///
    /// O(1) at every `n`: the table is a [`TiTable::prefix`] view sharing
    /// the catalog's interner and probability vector, so no fact is
    /// re-hashed or cloned and no probability re-checked. Panics if `n`
    /// exceeds the materialized length.
    pub fn table_prefix(&self, n: usize) -> TiTable {
        assert!(
            n <= self.len(),
            "prefix {n} exceeds materialized length {}",
            self.len()
        );
        self.table.prefix(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::{RelId, Relation};
    use infpdb_core::value::Value;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1)]).unwrap()
    }

    fn rfact(n: i64) -> Fact {
        Fact::new(RelId(0), [Value::int(n)])
    }

    #[test]
    fn push_assigns_enumeration_indexes() {
        let mut c = FactCatalog::new(schema());
        assert!(c.is_empty());
        assert_eq!(c.push(rfact(1), 0.5).unwrap(), FactId(0));
        assert_eq!(c.push(rfact(2), 0.25).unwrap(), FactId(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.prob(FactId(1)), 0.25);
        assert_eq!(c.fact(FactId(0)), &rfact(1));
    }

    #[test]
    fn push_rejects_duplicates_and_bad_probabilities() {
        let mut c = FactCatalog::new(schema());
        c.push(rfact(1), 0.5).unwrap();
        assert!(matches!(
            c.push(rfact(1), 0.3),
            Err(TiError::DuplicateEnumeration {
                first: 0,
                second: 1
            })
        ));
        assert!(c.push(rfact(2), 1.5).is_err());
        assert_eq!(c.len(), 1, "failed pushes must not grow the catalog");
        assert_eq!(
            c.fact_digests().len(),
            1,
            "failed pushes must not perturb the digest cache"
        );
        assert_eq!(c.fingerprint(), c.table_prefix(1).fingerprint());
    }

    #[test]
    fn table_prefix_matches_incremental_construction() {
        let mut c = FactCatalog::new(schema());
        let probs = [0.5, 0.25, 0.125, 0.0625];
        for (i, &p) in probs.iter().enumerate() {
            c.push(rfact(i as i64 + 1), p).unwrap();
        }
        let full = c.table_prefix(4);
        // reference built directly from the facts
        let reference = TiTable::from_facts(
            schema(),
            probs
                .iter()
                .enumerate()
                .map(|(i, &p)| (rfact(i as i64 + 1), p)),
        )
        .unwrap();
        assert_eq!(full.fingerprint(), reference.fingerprint());
        assert_eq!(full.prob(FactId(3)), 0.0625);
        // shorter prefix: same ids, fewer facts
        let short = c.table_prefix(2);
        assert_eq!(short.len(), 2);
        assert_eq!(short.interner().resolve(FactId(1)), &rfact(2));
        assert_eq!(short.prob(FactId(1)), 0.25);
        assert_eq!(short.marginal(&rfact(3)), 0.0, "closed world at n");
    }

    #[test]
    #[should_panic(expected = "exceeds materialized length")]
    fn table_prefix_beyond_catalog_panics() {
        FactCatalog::new(schema()).table_prefix(1);
    }

    #[test]
    fn iter_from_parts_round_trip_is_identity() {
        let mut c = FactCatalog::new(schema());
        for (i, p) in [0.5, 0.25, 0.125].into_iter().enumerate() {
            c.push(rfact(i as i64 + 1), p).unwrap();
        }
        let rebuilt =
            FactCatalog::from_parts(schema(), c.iter().map(|(_, f, p)| (f.clone(), p))).unwrap();
        assert_eq!(rebuilt.len(), c.len());
        for (id, f, p) in c.iter() {
            assert_eq!(rebuilt.fact(id), f);
            assert_eq!(rebuilt.prob(id).to_bits(), p.to_bits());
        }
        assert_eq!(
            rebuilt.table_prefix(3).fingerprint(),
            c.table_prefix(3).fingerprint()
        );
        assert_eq!(rebuilt.fingerprint(), c.fingerprint());
    }

    #[test]
    fn incremental_fingerprint_equals_batch_table_fingerprint() {
        let mut c = FactCatalog::new(schema());
        assert_eq!(c.fingerprint(), c.table_prefix(0).fingerprint());
        for (i, p) in [0.5, 0.25, 0.125, 0.0625, 0.5].into_iter().enumerate() {
            c.push(rfact(i as i64 + 1), p).unwrap();
            assert_eq!(
                c.fingerprint(),
                c.table_prefix(c.len()).fingerprint(),
                "after push {i}: the running combine must stay bit-identical \
                 to the batch TiTable::fingerprint"
            );
        }
        // cached digests are exactly the per-fact content digests
        for (i, (_, f, p)) in c.iter().enumerate() {
            assert_eq!(c.fact_digests()[i], fact_fingerprint(c.schema(), f, p));
        }
    }
}
