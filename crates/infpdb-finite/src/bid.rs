//! Finite block-independent-disjoint (b.i.d.) tables.
//!
//! Section 4.4 of the paper: facts are partitioned into blocks; facts
//! within a block are mutually exclusive, facts across blocks independent.
//! "The systems Trio, MayBMS and MystiQ realize (finite) PDBs of this
//! category"; the usual application is key constraints — one block per key
//! value, at most one alternative true.
//!
//! A [`BidTable`] stores per-block alternatives with probabilities summing
//! to at most 1; the remainder `p_⊥ = 1 − ∑ p` is the probability that the
//! block contributes no fact (the `⊥` of Proposition 4.13's proof).

use crate::{FiniteError, FinitePdb};
use infpdb_core::fact::{Fact, FactId};
use infpdb_core::instance::Instance;
use infpdb_core::interner::FactInterner;
use infpdb_core::schema::Schema;
use infpdb_core::space::rand_core::RngCore;
use infpdb_core::space::DiscreteSpace;
use infpdb_core::value::Value;
use infpdb_math::KahanSum;

/// Cap on explicit world enumeration (product of block sizes).
pub const MAX_ENUM_WORLDS: u64 = 1 << 24;

/// One block: mutually exclusive alternatives.
#[derive(Debug, Clone)]
pub struct Block {
    /// `(fact id, probability)` of each alternative.
    alternatives: Vec<(FactId, f64)>,
    /// `1 − ∑ p`: probability of the empty alternative.
    bottom: f64,
}

impl Block {
    /// The alternatives.
    pub fn alternatives(&self) -> &[(FactId, f64)] {
        &self.alternatives
    }

    /// `p_⊥`.
    pub fn bottom(&self) -> f64 {
        self.bottom
    }
}

/// A finite b.i.d. PDB.
#[derive(Debug, Clone)]
pub struct BidTable {
    schema: Schema,
    interner: FactInterner,
    blocks: Vec<Block>,
    /// block index of each fact id
    block_of: Vec<usize>,
}

impl BidTable {
    /// Builds a table from blocks of `(fact, probability)` alternatives.
    ///
    /// Rejects duplicate facts (within or across blocks), probabilities
    /// outside `[0,1]`, and blocks with total mass `> 1`.
    pub fn from_blocks(
        schema: Schema,
        blocks: impl IntoIterator<Item = Vec<(Fact, f64)>>,
    ) -> Result<Self, FiniteError> {
        let mut interner = FactInterner::new();
        let mut out_blocks = Vec::new();
        let mut block_of = Vec::new();
        for (bi, alts) in blocks.into_iter().enumerate() {
            let mut mass = KahanSum::new();
            let mut alternatives = Vec::with_capacity(alts.len());
            for (fact, p) in alts {
                infpdb_math::check_probability(p)
                    .map_err(infpdb_core::CoreError::Math)
                    .map_err(FiniteError::Core)?;
                if let Some(first) = interner.get(&fact) {
                    return Err(FiniteError::DuplicateFact {
                        fact: fact.display(&schema).to_string(),
                        first,
                    });
                }
                let id = interner.intern(fact);
                debug_assert_eq!(id.0 as usize, block_of.len());
                block_of.push(bi);
                alternatives.push((id, p));
                mass.add(p);
            }
            let mass = mass.value();
            if mass > 1.0 + 1e-9 {
                return Err(FiniteError::BlockMassExceedsOne { block: bi, mass });
            }
            out_blocks.push(Block {
                alternatives,
                bottom: (1.0 - mass).max(0.0),
            });
        }
        Ok(Self {
            schema,
            interner,
            blocks: out_blocks,
            block_of,
        })
    }

    /// Builds a keyed table: facts sharing the same value in `key_col` of
    /// their argument tuple land in the same block (the key-constraint
    /// use-case).
    pub fn keyed(
        schema: Schema,
        facts: impl IntoIterator<Item = (Fact, f64)>,
        key_col: usize,
    ) -> Result<Self, FiniteError> {
        let mut by_key: std::collections::BTreeMap<(u32, Value), Vec<(Fact, f64)>> =
            Default::default();
        for (f, p) in facts {
            let key = f.args()[key_col].clone();
            by_key.entry((f.rel().0, key)).or_default().push((f, p));
        }
        Self::from_blocks(schema, by_key.into_values())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The fact interner.
    pub fn interner(&self) -> &FactInterner {
        &self.interner
    }

    /// The blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total number of possible facts.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// Whether the table has no facts.
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }

    /// The block index of a fact.
    pub fn block_of(&self, id: FactId) -> usize {
        self.block_of[id.0 as usize]
    }

    /// The marginal `P(E_f)`.
    pub fn marginal(&self, fact: &Fact) -> f64 {
        match self.interner.get(fact) {
            Some(id) => self.prob(id),
            None => 0.0,
        }
    }

    /// The marginal of a fact id.
    pub fn prob(&self, id: FactId) -> f64 {
        let b = &self.blocks[self.block_of[id.0 as usize]];
        b.alternatives
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, p)| *p)
            .expect("id belongs to its block")
    }

    /// `E(S_D) = ∑ p_f`.
    pub fn expected_size(&self) -> f64 {
        KahanSum::sum_iter(
            self.blocks
                .iter()
                .flat_map(|b| b.alternatives.iter().map(|(_, p)| *p)),
        )
    }

    /// The probability of one instance: product over blocks of the chosen
    /// alternative's probability (or `p_⊥`); 0 for *bad* instances
    /// containing two facts of one block (Definition 4.11 condition (1)).
    pub fn instance_prob(&self, instance: &Instance) -> f64 {
        // facts outside the table are impossible
        for id in instance.iter() {
            if id.0 as usize >= self.block_of.len() {
                return 0.0;
            }
        }
        let mut chosen: Vec<Option<FactId>> = vec![None; self.blocks.len()];
        for id in instance.iter() {
            let b = self.block_of[id.0 as usize];
            if chosen[b].is_some() {
                return 0.0; // bad instance: two facts in one block
            }
            chosen[b] = Some(id);
        }
        let mut acc = 1.0;
        for (b, c) in self.blocks.iter().zip(chosen) {
            acc *= match c {
                Some(id) => b
                    .alternatives
                    .iter()
                    .find(|(i, _)| *i == id)
                    .map(|(_, p)| *p)
                    .expect("chosen id is in its block"),
                None => b.bottom,
            };
        }
        acc
    }

    /// Draws one world: each block independently picks an alternative (or
    /// none).
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> Instance {
        let mut ids = Vec::new();
        for b in &self.blocks {
            let u = rng.next_u64() as f64 / u64::MAX as f64;
            let mut acc = 0.0;
            for (id, p) in &b.alternatives {
                acc += p;
                if u < acc {
                    ids.push(*id);
                    break;
                }
            }
        }
        Instance::from_ids(ids)
    }

    /// Materializes the full world space (product over blocks of
    /// `alternatives + 1` choices). Errors past [`MAX_ENUM_WORLDS`].
    pub fn worlds(&self) -> Result<FinitePdb, FiniteError> {
        let mut count: u64 = 1;
        for b in &self.blocks {
            count = count.saturating_mul(b.alternatives.len() as u64 + 1);
            if count > MAX_ENUM_WORLDS {
                return Err(FiniteError::TooManyWorlds {
                    facts: self.len(),
                    limit: 24,
                });
            }
        }
        let mut outcomes: Vec<(Instance, f64)> = vec![(Instance::empty(), 1.0)];
        for b in &self.blocks {
            let mut next = Vec::with_capacity(outcomes.len() * (b.alternatives.len() + 1));
            for (inst, p) in &outcomes {
                if b.bottom > 0.0 {
                    next.push((inst.clone(), p * b.bottom));
                }
                for (id, pa) in &b.alternatives {
                    if *pa > 0.0 {
                        let mut with = inst.clone();
                        with.insert(*id);
                        next.push((with, p * pa));
                    }
                }
            }
            outcomes = next;
        }
        let space = DiscreteSpace::new(outcomes)?;
        Ok(FinitePdb::from_parts(
            self.schema.clone(),
            self.interner.clone(),
            space,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::{RelId, Relation, Schema};

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 2)]).unwrap()
    }

    fn fact(k: i64, v: i64) -> Fact {
        Fact::new(RelId(0), [Value::int(k), Value::int(v)])
    }

    fn two_blocks() -> BidTable {
        BidTable::from_blocks(
            schema(),
            [
                vec![(fact(1, 10), 0.5), (fact(1, 11), 0.3)],
                vec![(fact(2, 20), 0.9)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = two_blocks();
        assert_eq!(t.len(), 3);
        assert_eq!(t.blocks().len(), 2);
        assert!((t.blocks()[0].bottom() - 0.2).abs() < 1e-12);
        assert!((t.blocks()[1].bottom() - 0.1).abs() < 1e-12);
        assert_eq!(t.block_of(FactId(0)), 0);
        assert_eq!(t.block_of(FactId(2)), 1);
        assert!((t.marginal(&fact(1, 11)) - 0.3).abs() < 1e-12);
        assert_eq!(t.marginal(&fact(9, 9)), 0.0);
        assert!((t.expected_size() - 1.7).abs() < 1e-12);
        assert!(!t.is_empty());
    }

    #[test]
    fn rejects_overfull_blocks_and_duplicates() {
        assert!(matches!(
            BidTable::from_blocks(schema(), [vec![(fact(1, 1), 0.7), (fact(1, 2), 0.5)]]),
            Err(FiniteError::BlockMassExceedsOne { .. })
        ));
        assert!(matches!(
            BidTable::from_blocks(schema(), [vec![(fact(1, 1), 0.2)], vec![(fact(1, 1), 0.2)]]),
            Err(FiniteError::DuplicateFact { .. })
        ));
        assert!(BidTable::from_blocks(schema(), [vec![(fact(1, 1), 1.5)]]).is_err());
    }

    #[test]
    fn keyed_builder_groups_by_key_column() {
        let t = BidTable::keyed(
            schema(),
            [(fact(1, 10), 0.5), (fact(2, 20), 0.4), (fact(1, 11), 0.3)],
            0,
        )
        .unwrap();
        assert_eq!(t.blocks().len(), 2);
        // facts with key 1 share a block
        let id10 = t.interner().get(&fact(1, 10)).unwrap();
        let id11 = t.interner().get(&fact(1, 11)).unwrap();
        let id20 = t.interner().get(&fact(2, 20)).unwrap();
        assert_eq!(t.block_of(id10), t.block_of(id11));
        assert_ne!(t.block_of(id10), t.block_of(id20));
    }

    #[test]
    fn instance_probability_exclusive_within_block() {
        let t = two_blocks();
        // both alternatives of block 0: bad instance
        let bad = Instance::from_ids([FactId(0), FactId(1)]);
        assert_eq!(t.instance_prob(&bad), 0.0);
        // {f(1,10), f(2,20)}: 0.5 · 0.9
        let good = Instance::from_ids([FactId(0), FactId(2)]);
        assert!((t.instance_prob(&good) - 0.45).abs() < 1e-12);
        // empty: 0.2 · 0.1
        assert!((t.instance_prob(&Instance::empty()) - 0.02).abs() < 1e-12);
        // unknown fact: impossible
        assert_eq!(t.instance_prob(&Instance::from_ids([FactId(9)])), 0.0);
    }

    #[test]
    fn worlds_sum_to_one_and_match_instance_prob() {
        let t = two_blocks();
        let pdb = t.worlds().unwrap();
        assert!((pdb.space().total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(pdb.space().support_size(), 6); // 3 × 2 choices
        for (d, p) in pdb.space().outcomes() {
            assert!((t.instance_prob(d) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn marginals_recovered_from_worlds() {
        let t = two_blocks();
        let pdb = t.worlds().unwrap();
        assert!((pdb.marginal(&fact(1, 10)) - 0.5).abs() < 1e-12);
        assert!((pdb.marginal(&fact(1, 11)) - 0.3).abs() < 1e-12);
        assert!((pdb.marginal(&fact(2, 20)) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn block_exclusivity_and_cross_block_independence() {
        // Definition 4.11 conditions on the materialized space.
        let t = two_blocks();
        let pdb = t.worlds().unwrap();
        use infpdb_core::event::Event;
        // (1) mutual exclusivity within block 0
        let e0 = Event::fact(FactId(0));
        let e1 = Event::fact(FactId(1));
        assert_eq!(pdb.prob_event(&e0.clone().and(e1.clone())), 0.0);
        // (2) independence across blocks
        let e2 = Event::fact(FactId(2));
        let joint = pdb.prob_event(&e0.clone().and(e2.clone()));
        assert!((joint - pdb.prob_event(&e0) * pdb.prob_event(&e2)).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_blocks() {
        use infpdb_core::space::rand_core::SplitMix64;
        let t = two_blocks();
        let mut rng = SplitMix64::new(11);
        let mut m10 = 0usize;
        let mut m11 = 0usize;
        let n = 30_000;
        for _ in 0..n {
            let d = t.sample(&mut rng);
            let has10 = d.contains(FactId(0));
            let has11 = d.contains(FactId(1));
            assert!(!(has10 && has11), "block exclusivity violated in sample");
            m10 += has10 as usize;
            m11 += has11 as usize;
        }
        assert!((m10 as f64 / n as f64 - 0.5).abs() < 0.02);
        assert!((m11 as f64 / n as f64 - 0.3).abs() < 0.02);
    }

    #[test]
    fn singleton_blocks_reduce_to_tuple_independence() {
        // b.i.d. with singleton blocks = t.i. (remark after Def 4.11)
        let bid =
            BidTable::from_blocks(schema(), [vec![(fact(1, 1), 0.5)], vec![(fact(2, 2), 0.3)]])
                .unwrap();
        let ti =
            crate::TiTable::from_facts(schema(), [(fact(1, 1), 0.5), (fact(2, 2), 0.3)]).unwrap();
        let bw = bid.worlds().unwrap();
        let tw = ti.worlds().unwrap();
        for (d, p) in tw.space().outcomes() {
            assert!((bw.space().prob_outcome(d) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn worlds_enumeration_guard() {
        // 26 blocks of 3 alternatives = 4^26 worlds > cap
        let blocks: Vec<Vec<(Fact, f64)>> = (0..26)
            .map(|k| (0..3).map(|v| (fact(k, v), 0.25)).collect())
            .collect();
        let t = BidTable::from_blocks(schema(), blocks).unwrap();
        assert!(matches!(t.worlds(), Err(FiniteError::TooManyWorlds { .. })));
    }
}
