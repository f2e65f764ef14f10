//! Fact interning.
//!
//! A PDB's support touches the same facts over and over (every instance
//! probability multiplies over all of `F_ω`, Section 4.1). Interning maps
//! each distinct [`Fact`] to a dense [`FactId`] once, so instances and
//! lineage formulas manipulate `u32`s instead of hashing tuples.
//!
//! The id order is *enumeration order*: the `i`-th interned fact gets id
//! `i`. Infinite-PDB constructions rely on this — interning facts in the
//! order of a fact enumeration makes `FactId(i)` line up with the series
//! index `i` of the fact-probability series.
//!
//! Each fact is stored once, in id order. Lookups go through an index
//! from a 64-bit hash of the fact to its id, and every hit is confirmed
//! by comparing whole facts, so the map stays exact when two facts share
//! a hash: the later one is kept in a small overflow map.

use crate::fact::{Fact, FactId};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Bidirectional `Fact ↔ FactId` map.
#[derive(Debug, Clone)]
pub struct FactInterner {
    facts: Vec<Fact>,
    /// [`fact_hash`] → the first id interned with that hash.
    index: HashIndex<FactId>,
    /// [`fact_hash`] → later ids whose hash collided with a different,
    /// earlier fact. Empty unless two facts share all 64 bits.
    overflow: HashIndex<Vec<FactId>>,
    /// All ones, except in [`with_colliding_hashes`](Self::with_colliding_hashes).
    hash_mask: u64,
}

impl Default for FactInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl FactInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self {
            facts: Vec::new(),
            index: HashIndex::default(),
            overflow: HashIndex::default(),
            hash_mask: !0,
        }
    }

    /// An empty interner in which every fact hashes alike, so every
    /// lookup past the first fact takes the collision path. A test hook
    /// for exactness: lookups are linear in the number of facts.
    #[doc(hidden)]
    pub fn with_colliding_hashes() -> Self {
        Self {
            hash_mask: 0,
            ..Self::new()
        }
    }

    fn hash(&self, fact: &Fact) -> u64 {
        fact_hash(fact) & self.hash_mask
    }

    /// Interns a fact that is not present yet: `Ok` with its new id, or
    /// `Err` with the id the fact already has (the argument is dropped).
    /// One hash and one probe either way.
    pub fn try_intern(&mut self, fact: Fact) -> Result<FactId, FactId> {
        let hash = self.hash(&fact);
        let id = id_at(self.facts.len());
        match self.index.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(slot) => {
                let first = *slot.get();
                if self.facts[first.0 as usize] == fact {
                    return Err(first);
                }
                let later = self.overflow.entry(hash).or_default();
                if let Some(&seen) = later.iter().find(|l| self.facts[l.0 as usize] == fact) {
                    return Err(seen);
                }
                later.push(id);
            }
        }
        self.facts.push(fact);
        Ok(id)
    }

    /// Interns a fact, returning its id (existing id if already present).
    pub fn intern(&mut self, fact: Fact) -> FactId {
        match self.try_intern(fact) {
            Ok(id) | Err(id) => id,
        }
    }

    /// The id of a fact, if interned.
    pub fn get(&self, fact: &Fact) -> Option<FactId> {
        let hash = self.hash(fact);
        let &first = self.index.get(&hash)?;
        if self.facts[first.0 as usize] == *fact {
            return Some(first);
        }
        self.overflow
            .get(&hash)?
            .iter()
            .copied()
            .find(|id| self.facts[id.0 as usize] == *fact)
    }

    /// The fact for an id.
    ///
    /// # Panics
    /// On ids not produced by this interner.
    pub fn resolve(&self, id: FactId) -> &Fact {
        &self.facts[id.0 as usize]
    }

    /// Checked lookup.
    pub fn try_resolve(&self, id: FactId) -> Option<&Fact> {
        self.facts.get(id.0 as usize)
    }

    /// Number of interned facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// All `(id, fact)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts.iter().enumerate().map(|(i, f)| (id_at(i), f))
    }
}

/// The id of the fact at position `pos` of the id order.
///
/// # Panics
/// Past 2³² facts, which `FactId` cannot number.
fn id_at(pos: usize) -> FactId {
    FactId(u32::try_from(pos).expect("more than 2^32 facts interned"))
}

/// A map keyed by [`fact_hash`] values, which are already mixed, so the
/// map uses them as they are instead of hashing them again.
type HashIndex<V> = HashMap<u64, V, BuildHasherDefault<PassThrough>>;

#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index hashes u64 keys only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One word into a running hash: a folded 64 × 64 → 128-bit multiply,
/// which spreads every input bit over the high and the low half.
fn absorb(state: u64, word: u64) -> u64 {
    let p = u128::from(state ^ word) * 0x9E37_79B9_7F4A_7C15;
    (p as u64) ^ ((p >> 64) as u64)
}

/// A 64-bit hash of a fact, a word at a time: the relation and arity,
/// then per argument one word for its kind (plus a `Fixed` exponent or
/// a string length) and its payload words. It lives in memory only;
/// content fingerprints that persist are
/// [`fact_fingerprint`](crate::fingerprint::fact_fingerprint).
fn fact_hash(fact: &Fact) -> u64 {
    let args = fact.args();
    let mut h = absorb(0, u64::from(fact.rel().0) << 32 | args.len() as u64);
    for arg in args {
        h = match arg {
            Value::Int(n) => absorb(absorb(h, 1), *n as u64),
            Value::Fixed(x) => absorb(
                absorb(h, 2 | u64::from(x.exponent()) << 8),
                x.mantissa() as u64,
            ),
            Value::Str(s) => {
                let mut h = absorb(h, 3 | (s.len() as u64) << 8);
                for chunk in s.as_bytes().chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    h = absorb(h, u64::from_le_bytes(word));
                }
                h
            }
        };
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelId;
    use crate::value::Value;
    use std::sync::Arc;

    fn f(n: i64) -> Fact {
        Fact::new(RelId(0), [Value::int(n)])
    }

    #[test]
    fn intern_assigns_dense_sequential_ids() {
        let mut it = FactInterner::new();
        assert_eq!(it.intern(f(10)), FactId(0));
        assert_eq!(it.intern(f(20)), FactId(1));
        assert_eq!(it.intern(f(30)), FactId(2));
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut it = FactInterner::new();
        let a = it.intern(f(1));
        let b = it.intern(f(1));
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
        assert_eq!(it.try_intern(f(1)), Err(a));
        assert_eq!(it.try_intern(f(2)), Ok(FactId(1)));
    }

    #[test]
    fn get_and_resolve_round_trip() {
        let mut it = FactInterner::new();
        let id = it.intern(f(7));
        assert_eq!(it.get(&f(7)), Some(id));
        assert_eq!(it.get(&f(8)), None);
        assert_eq!(it.resolve(id), &f(7));
        assert_eq!(it.try_resolve(FactId(9)), None);
        assert_eq!(it.try_resolve(id), Some(&f(7)));
    }

    #[test]
    fn iter_in_id_order() {
        let mut it = FactInterner::new();
        it.intern(f(3));
        it.intern(f(1));
        it.intern(f(2));
        let order: Vec<i64> = it
            .iter()
            .map(|(_, fact)| fact.args()[0].as_int().unwrap())
            .collect();
        assert_eq!(order, vec![3, 1, 2]); // insertion order, not value order
    }

    #[test]
    fn empty_interner() {
        let it = FactInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn facts_are_stored_once() {
        let names: Vec<Value> = (0..4).map(|i| Value::str(format!("name{i}"))).collect();
        let mut it = FactInterner::new();
        for (i, name) in names.iter().enumerate() {
            it.intern(Fact::new(RelId(1), [Value::int(i as i64), name.clone()]));
        }
        for name in &names {
            let Value::Str(s) = name else { unreachable!() };
            // one reference here, one in the interner
            assert_eq!(Arc::strong_count(s), 2, "{name}");
        }
    }

    #[test]
    fn colliding_hashes_stay_exact() {
        // every fourth fact repeats an earlier one, and the nullary fact
        // repeats throughout
        let facts: Vec<Fact> = (0..40)
            .map(|i| match i % 4 {
                0 => f(i),
                1 => Fact::new(RelId(1), [Value::fixed(i, 2), Value::str(format!("{i}"))]),
                2 => Fact::new(RelId(2), []),
                _ => f(i - 3),
            })
            .collect();
        let mut it = FactInterner::with_colliding_hashes();
        let mut distinct = Vec::new();
        for fact in &facts {
            if !distinct.contains(fact) {
                assert_eq!(it.try_intern(fact.clone()), Ok(id_at(distinct.len())));
                distinct.push(fact.clone());
            }
        }
        assert_eq!(it.len(), distinct.len());
        for (i, fact) in distinct.iter().enumerate() {
            assert_eq!(it.get(fact), Some(id_at(i)), "{fact:?}");
            assert_eq!(it.resolve(id_at(i)), fact);
            assert_eq!(it.try_intern(fact.clone()), Err(id_at(i)));
            assert_eq!(it.intern(fact.clone()), id_at(i));
        }
        assert_eq!(it.len(), distinct.len(), "duplicates must not grow it");
        assert_eq!(it.get(&f(1000)), None);
    }

    #[test]
    #[should_panic(expected = "more than 2^32 facts")]
    fn ids_do_not_wrap_past_u32() {
        id_at(u32::MAX as usize + 1);
    }
}
