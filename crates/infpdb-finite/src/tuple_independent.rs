//! Finite tuple-independent tables.
//!
//! "A tuple-independent PDB can be represented as a table of all possible
//! facts annotated with their respective marginal probabilities"
//! (Section 1). [`TiTable`] is that table: the distribution over instances
//! is the product measure in which each fact `f` appears independently with
//! its probability `p_f`.

use crate::{FiniteError, FinitePdb};
use infpdb_core::fact::{Fact, FactId};
use infpdb_core::instance::Instance;
use infpdb_core::interner::FactInterner;
use infpdb_core::schema::Schema;
use infpdb_core::space::rand_core::RngCore;
use infpdb_core::space::DiscreteSpace;
use infpdb_core::value::Value;
use infpdb_math::{KahanSum, LogProb};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Hard cap on explicit world enumeration: `2^24` worlds ≈ 16M.
pub const MAX_ENUM_FACTS: usize = 24;

/// A finite tuple-independent PDB as a table of `(fact, probability)`.
///
/// The backing fact set and probability vector are shared (`Arc`) and
/// the table itself is a *length-bounded view* over them: `probs[i]`
/// belongs to fact id `i` for `i < len`, and everything the table
/// exposes — iteration, marginals, sampling, fingerprints — sees only
/// the first `len` facts. [`prefix`](Self::prefix) is therefore O(1):
/// it clones two `Arc`s and shortens `len`, which is what makes the
/// Proposition 6.1 truncation loop's repeated prefix restrictions
/// zero-copy instead of re-interning the whole table each time.
#[derive(Debug, Clone)]
pub struct TiTable {
    schema: Schema,
    interner: Arc<FactInterner>,
    probs: Arc<Vec<f64>>,
    len: usize,
}

impl TiTable {
    /// An empty table over a schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            interner: Arc::new(FactInterner::new()),
            probs: Arc::new(Vec::new()),
            len: 0,
        }
    }

    /// Builds a table from `(fact, probability)` pairs; rejects duplicate
    /// facts and probabilities outside `[0, 1]`.
    ///
    /// ```
    /// use infpdb_core::{fact::Fact, schema::{Relation, Schema}, value::Value};
    /// use infpdb_finite::TiTable;
    ///
    /// let schema = Schema::from_relations([Relation::new("R", 1)])?;
    /// let r = schema.rel_id("R").unwrap();
    /// let table = TiTable::from_facts(schema, [
    ///     (Fact::new(r, [Value::int(1)]), 0.8),
    ///     (Fact::new(r, [Value::int(2)]), 0.4),
    /// ])?;
    /// assert_eq!(table.len(), 2);
    /// assert!((table.expected_size() - 1.2).abs() < 1e-12);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_facts(
        schema: Schema,
        facts: impl IntoIterator<Item = (Fact, f64)>,
    ) -> Result<Self, FiniteError> {
        let mut t = Self::new(schema);
        for (f, p) in facts {
            t.add_fact(f, p)?;
        }
        Ok(t)
    }

    /// Adds one possible fact with its marginal probability.
    pub fn add_fact(&mut self, fact: Fact, p: f64) -> Result<FactId, FiniteError> {
        infpdb_math::check_probability(p)
            .map_err(infpdb_core::CoreError::Math)
            .map_err(FiniteError::Core)?;
        if self.len < self.interner.len() {
            // the view is shorter than its shared backing: growing it
            // must not leak the backing's tail, so materialize an owned
            // truncation first (rare — the hot paths only shrink views)
            self.interner = Arc::new(self.owned_interner());
            self.probs = Arc::new(self.probs[..self.len].to_vec());
        }
        let id = Arc::make_mut(&mut self.interner)
            .try_intern(fact)
            .map_err(|first| FiniteError::DuplicateFact {
                fact: self
                    .interner
                    .resolve(first)
                    .display(&self.schema)
                    .to_string(),
                first,
            })?;
        debug_assert_eq!(id.0 as usize, self.len);
        Arc::make_mut(&mut self.probs).push(p);
        self.len += 1;
        Ok(id)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The fact interner (ids are positions in insertion order).
    ///
    /// On a prefix view the shared interner may extend *past*
    /// [`len`](Self::len): use it to resolve ids the table handed out,
    /// never for membership — [`fact_id`](Self::fact_id) and
    /// [`marginal`](Self::marginal) are the length-aware lookups.
    pub fn interner(&self) -> &FactInterner {
        &self.interner
    }

    /// An owned interner holding exactly this view's facts — what
    /// consumers that take a `FactInterner` by value (e.g.
    /// [`FinitePdb::from_parts`]) need from a prefix view.
    pub(crate) fn owned_interner(&self) -> FactInterner {
        if self.len == self.interner.len() {
            (*self.interner).clone()
        } else {
            let mut it = FactInterner::new();
            for (_, f) in self.interner.iter().take(self.len) {
                it.intern(f.clone());
            }
            it
        }
    }

    /// The probabilities of this view, aligned with fact ids.
    fn probs(&self) -> &[f64] {
        &self.probs[..self.len]
    }

    /// Number of possible facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The marginal probability of a fact id.
    pub fn prob(&self, id: FactId) -> f64 {
        self.probs()[id.0 as usize]
    }

    /// The id of a fact *in this view*, if present. Length-aware: a
    /// fact interned in the shared backing but beyond the view's prefix
    /// is not a member and returns `None`.
    pub fn fact_id(&self, fact: &Fact) -> Option<FactId> {
        self.interner
            .get(fact)
            .filter(|id| (id.0 as usize) < self.len)
    }

    /// The marginal probability of a fact (0 if not in the table —
    /// the closed-world assumption, Section 1).
    pub fn marginal(&self, fact: &Fact) -> f64 {
        self.fact_id(fact).map(|id| self.prob(id)).unwrap_or(0.0)
    }

    /// Iterator over `(id, fact, probability)`.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact, f64)> {
        self.interner
            .iter()
            .take(self.len)
            .map(|(id, f)| (id, f, self.probs[id.0 as usize]))
    }

    /// `E(S_D) = ∑_f p_f` (equation (5)).
    pub fn expected_size(&self) -> f64 {
        KahanSum::sum_iter(self.probs().iter().copied())
    }

    /// A stable 64-bit content fingerprint of the table.
    ///
    /// Two tables over the same relations get equal fingerprints exactly
    /// when they describe the same weighted fact *set*: the digest is
    /// insensitive to fact insertion order and relation declaration order
    /// (facts hash by relation name), and sensitive to any change in a
    /// fact, its probability bits, or the schema's declared relations.
    /// Used by `infpdb-serve` as the PDB component of result-cache keys.
    pub fn fingerprint(&self) -> u64 {
        let facts = infpdb_core::fingerprint::combine_unordered(
            self.iter()
                .map(|(_, f, p)| infpdb_core::fingerprint::fact_fingerprint(&self.schema, f, p)),
        );
        let mut fp = infpdb_core::fingerprint::Fingerprinter::new();
        // schema relations, order-insensitively (empty relations matter:
        // they change the space of possible facts)
        fp.write_u64(infpdb_core::fingerprint::combine_unordered(
            self.schema.iter().map(|(_, r)| {
                let mut rf = infpdb_core::fingerprint::Fingerprinter::new();
                rf.write_bytes(r.name().as_bytes())
                    .write_u64(r.arity() as u64);
                rf.finish()
            }),
        ));
        fp.write_u64(facts);
        fp.finish()
    }

    /// The probability of one instance:
    /// `P({D}) = ∏_{f∈D} p_f · ∏_{f∉D} (1 − p_f)` (Section 4.1 in the
    /// finite special case). Instances containing facts outside the table
    /// have probability 0.
    pub fn instance_prob(&self, instance: &Instance) -> f64 {
        self.instance_logprob(instance).prob()
    }

    /// [`Self::instance_prob`] in log-space (immune to underflow for large
    /// tables).
    pub fn instance_logprob(&self, instance: &Instance) -> LogProb {
        for id in instance.iter() {
            if id.0 as usize >= self.len {
                return LogProb::ZERO;
            }
        }
        let mut acc = KahanSum::new();
        for (i, &p) in self.probs().iter().enumerate() {
            let inside = instance.contains(FactId(i as u32));
            let factor = if inside { p } else { 1.0 - p };
            if factor == 0.0 {
                return LogProb::ZERO;
            }
            acc.add(factor.ln());
        }
        LogProb::from_ln(acc.value().min(0.0)).expect("probability product")
    }

    /// Draws one world: each fact flips its own coin.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> Instance {
        let ids = self.probs().iter().enumerate().filter_map(|(i, &p)| {
            let u = rng.next_u64() as f64 / u64::MAX as f64;
            (u < p).then_some(FactId(i as u32))
        });
        Instance::from_ids(ids)
    }

    /// [`sample`](Self::sample) into a dense world vector: after the call
    /// `present[i]` says whether fact id `i` was drawn.
    ///
    /// Draws exactly one `u64` per fact in id order — the identical RNG
    /// consumption as `sample`, so for the same generator state the two
    /// produce the same world. The buffer is reused across calls; paired
    /// with [`LineageArena::eval_flat`](crate::LineageArena::eval_flat)
    /// the Monte-Carlo inner loop becomes a flat slice pass with no
    /// per-sample allocation.
    pub fn sample_into<R: RngCore>(&self, rng: &mut R, present: &mut Vec<bool>) {
        present.clear();
        present.extend(self.probs().iter().map(|&p| {
            let u = rng.next_u64() as f64 / u64::MAX as f64;
            u < p
        }));
    }

    /// Materializes the full world space (the finite PDB this table
    /// represents). Errors beyond [`MAX_ENUM_FACTS`] facts.
    pub fn worlds(&self) -> Result<FinitePdb, FiniteError> {
        let n = self.len;
        if n > MAX_ENUM_FACTS {
            return Err(FiniteError::TooManyWorlds {
                facts: n,
                limit: MAX_ENUM_FACTS,
            });
        }
        let mut outcomes = Vec::with_capacity(1usize << n);
        for mask in 0u64..(1u64 << n) {
            let mut p = 1.0;
            let mut ids = Vec::new();
            for (i, &pf) in self.probs().iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p *= pf;
                    ids.push(FactId(i as u32));
                } else {
                    p *= 1.0 - pf;
                }
            }
            if p > 0.0 {
                outcomes.push((Instance::from_ids(ids), p));
            }
        }
        let space = DiscreteSpace::new(outcomes)?;
        Ok(FinitePdb::from_parts(
            self.schema.clone(),
            self.owned_interner(),
            space,
        ))
    }

    /// The exact distribution of the instance size `S_D` — a
    /// Poisson-binomial distribution, computed by the standard `O(n²)`
    /// convolution DP. Entry `k` is `P(S_D = k)`.
    pub fn size_distribution(&self) -> Vec<f64> {
        let mut dist = vec![1.0];
        for &p in self.probs() {
            let mut next = vec![0.0; dist.len() + 1];
            for (k, &dk) in dist.iter().enumerate() {
                next[k] += dk * (1.0 - p);
                next[k + 1] += dk * p;
            }
            dist = next;
        }
        dist
    }

    /// The active domain over all possible facts.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for (_, f) in self.interner.iter().take(self.len) {
            dom.extend(f.args().iter().cloned());
        }
        dom
    }

    /// A sub-table containing only the first `n` facts in insertion order —
    /// the restriction to `{f₁, …, f_n}` used by the truncation algorithm
    /// (Proposition 6.1). O(1): the result is a view sharing this
    /// table's backing, not a copy.
    pub fn prefix(&self, n: usize) -> TiTable {
        TiTable {
            schema: self.schema.clone(),
            interner: Arc::clone(&self.interner),
            probs: Arc::clone(&self.probs),
            len: n.min(self.len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::Relation;
    use infpdb_core::space::rand_core::SplitMix64;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1)]).unwrap()
    }

    fn fact(n: i64) -> Fact {
        Fact::new(infpdb_core::schema::RelId(0), [Value::int(n)])
    }

    fn table(ps: &[f64]) -> TiTable {
        TiTable::from_facts(
            schema(),
            ps.iter().enumerate().map(|(i, &p)| (fact(i as i64), p)),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = table(&[0.5, 0.25]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.prob(FactId(0)), 0.5);
        assert_eq!(t.marginal(&fact(1)), 0.25);
        assert_eq!(t.marginal(&fact(9)), 0.0); // closed world
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.schema().len(), 1);
    }

    #[test]
    fn duplicate_and_invalid_probability_rejected() {
        let mut t = table(&[0.5]);
        assert!(matches!(
            t.add_fact(fact(0), 0.3),
            Err(FiniteError::DuplicateFact {
                first: FactId(0),
                ..
            })
        ));
        assert!(t.add_fact(fact(7), 1.7).is_err());
    }

    #[test]
    fn add_fact_stays_exact_when_every_fact_hashes_alike() {
        let mut colliding = TiTable {
            interner: Arc::new(FactInterner::with_colliding_hashes()),
            ..TiTable::new(schema())
        };
        let mut plain = TiTable::new(schema());
        for i in 0..30 {
            let p = 1.0 / (i as f64 + 2.0);
            assert_eq!(colliding.add_fact(fact(i), p).unwrap(), FactId(i as u32));
            plain.add_fact(fact(i), p).unwrap();
        }
        for i in 0..30 {
            assert!(matches!(
                colliding.add_fact(fact(i), 0.5),
                Err(FiniteError::DuplicateFact { first, .. }) if first == FactId(i as u32)
            ));
            assert_eq!(colliding.interner().resolve(FactId(i as u32)), &fact(i));
        }
        assert_eq!(colliding.len(), 30);
        assert_eq!(colliding.fingerprint(), plain.fingerprint());
    }

    #[test]
    fn expected_size_is_sum_of_marginals() {
        let t = table(&[0.5, 0.25, 0.125]);
        assert!((t.expected_size() - 0.875).abs() < 1e-15);
    }

    #[test]
    fn instance_probability_product_formula() {
        let t = table(&[0.5, 0.25]);
        let both = Instance::from_ids([FactId(0), FactId(1)]);
        assert!((t.instance_prob(&both) - 0.125).abs() < 1e-15);
        let neither = Instance::empty();
        assert!((t.instance_prob(&neither) - 0.375).abs() < 1e-15);
        let first = Instance::from_ids([FactId(0)]);
        assert!((t.instance_prob(&first) - 0.375).abs() < 1e-15);
    }

    #[test]
    fn instance_probability_outside_support_is_zero() {
        let t = table(&[0.5]);
        let d = Instance::from_ids([FactId(3)]);
        assert_eq!(t.instance_prob(&d), 0.0);
    }

    #[test]
    fn deterministic_and_impossible_facts() {
        let t = table(&[1.0, 0.0, 0.5]);
        // a world missing the p=1 fact has probability 0
        let without = Instance::from_ids([FactId(2)]);
        assert_eq!(t.instance_prob(&without), 0.0);
        // a world containing the p=0 fact has probability 0
        let with_impossible = Instance::from_ids([FactId(0), FactId(1)]);
        assert_eq!(t.instance_prob(&with_impossible), 0.0);
        let good = Instance::from_ids([FactId(0)]);
        assert!((t.instance_prob(&good) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let t = table(&[0.5, 0.25, 0.8]);
        let pdb = t.worlds().unwrap();
        assert!((pdb.space().total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(pdb.space().support_size(), 8);
        // marginals recovered
        assert!((pdb.marginal(&fact(0)) - 0.5).abs() < 1e-12);
        assert!((pdb.marginal(&fact(2)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn worlds_enumeration_guard() {
        let t = table(&[0.5; MAX_ENUM_FACTS + 1]);
        assert!(matches!(t.worlds(), Err(FiniteError::TooManyWorlds { .. })));
    }

    #[test]
    fn worlds_match_instance_prob() {
        let t = table(&[0.3, 0.6]);
        let pdb = t.worlds().unwrap();
        for (d, p) in pdb.space().outcomes() {
            assert!((t.instance_prob(d) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_frequency_approximates_marginals() {
        let t = table(&[0.2, 0.7]);
        let mut rng = SplitMix64::new(99);
        let n = 20_000;
        let mut counts = [0usize; 2];
        for _ in 0..n {
            let d = t.sample(&mut rng);
            for (i, c) in counts.iter_mut().enumerate() {
                if d.contains(FactId(i as u32)) {
                    *c += 1;
                }
            }
        }
        assert!((counts[0] as f64 / n as f64 - 0.2).abs() < 0.02);
        assert!((counts[1] as f64 / n as f64 - 0.7).abs() < 0.02);
    }

    #[test]
    fn sample_into_consumes_rng_identically_to_sample() {
        let t = table(&[0.2, 0.9, 0.5, 0.0, 1.0]);
        let mut a = SplitMix64::new(31337);
        let mut b = SplitMix64::new(31337);
        let mut present = Vec::new();
        for round in 0..200 {
            let world = t.sample(&mut a);
            t.sample_into(&mut b, &mut present);
            assert_eq!(present.len(), t.len());
            for i in 0..t.len() as u32 {
                assert_eq!(
                    present[i as usize],
                    world.contains(FactId(i)),
                    "round {round}, fact {i}"
                );
            }
        }
        // the generators stayed in lockstep the whole way
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn size_distribution_is_poisson_binomial() {
        let t = table(&[0.5, 0.5]);
        let d = t.size_distribution();
        assert_eq!(d.len(), 3);
        assert!((d[0] - 0.25).abs() < 1e-15);
        assert!((d[1] - 0.5).abs() < 1e-15);
        assert!((d[2] - 0.25).abs() < 1e-15);
        // expectation from the distribution equals Σp
        let t2 = table(&[0.1, 0.9, 0.4]);
        let d2 = t2.size_distribution();
        let mean: f64 = d2.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        assert!((mean - t2.expected_size()).abs() < 1e-12);
        let total: f64 = d2.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_size_distribution() {
        let t = TiTable::new(schema());
        assert_eq!(t.size_distribution(), vec![1.0]);
        assert_eq!(t.expected_size(), 0.0);
        assert!((t.instance_prob(&Instance::empty()) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn prefix_restriction() {
        let t = table(&[0.5, 0.25, 0.125]);
        let p = t.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.prob(FactId(1)), 0.25);
        let whole = t.prefix(10);
        assert_eq!(whole.len(), 3);
    }

    #[test]
    fn prefix_views_are_closed_world_at_their_own_length() {
        let t = table(&[0.5, 0.25, 0.125]);
        let p = t.prefix(2);
        // fact 2 exists in the shared backing but not in the view:
        // membership, marginals, fingerprints, and enumeration must all
        // honor the view length
        assert_eq!(p.fact_id(&fact(2)), None);
        assert_eq!(p.marginal(&fact(2)), 0.0, "closed world at the prefix");
        assert_eq!(p.fact_id(&fact(1)), Some(FactId(1)));
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.active_domain().len(), 2);
        assert_eq!(
            p.fingerprint(),
            table(&[0.5, 0.25]).fingerprint(),
            "a view fingerprints identically to an owned table of the same facts"
        );
        // growing a short view materializes a truncation: the backing's
        // tail fact is re-addable, and the original is untouched
        let mut grown = t.prefix(2);
        let id = grown.add_fact(fact(2), 0.9).unwrap();
        assert_eq!(id, FactId(2));
        assert_eq!(grown.prob(FactId(2)), 0.9);
        assert_eq!(t.prob(FactId(2)), 0.125);
        // worlds() of a view enumerates only the view's facts
        let w = p.worlds().unwrap();
        assert_eq!(w.space().support_size(), 4);
    }

    #[test]
    fn active_domain_of_possible_facts() {
        let t = table(&[0.5, 0.25]);
        let dom: Vec<i64> = t
            .active_domain()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(dom, vec![0, 1]);
    }

    #[test]
    fn fingerprint_is_order_insensitive_for_fact_sets() {
        let a = TiTable::from_facts(schema(), [(fact(0), 0.5), (fact(1), 0.25), (fact(2), 0.8)])
            .unwrap();
        let b = TiTable::from_facts(schema(), [(fact(2), 0.8), (fact(0), 0.5), (fact(1), 0.25)])
            .unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same fact set in a different insertion order must agree"
        );
    }

    #[test]
    fn fingerprint_is_sensitive_to_content_changes() {
        let base = table(&[0.5, 0.25]);
        // probability nudge on one fact
        let nudged = table(&[0.5, 0.250_000_1]);
        assert_ne!(base.fingerprint(), nudged.fingerprint());
        // different fact, same probabilities
        let other = TiTable::from_facts(schema(), [(fact(0), 0.5), (fact(7), 0.25)]).unwrap();
        assert_ne!(base.fingerprint(), other.fingerprint());
        // subset
        assert_ne!(base.fingerprint(), table(&[0.5]).fingerprint());
        // stable across identical rebuilds
        assert_eq!(base.fingerprint(), table(&[0.5, 0.25]).fingerprint());
    }

    #[test]
    fn log_space_instance_probability_survives_large_tables() {
        let t = table(&vec![0.5; 5000]);
        let lp = t.instance_logprob(&Instance::empty());
        assert!((lp.ln() - 5000.0 * 0.5f64.ln()).abs() < 1e-6);
        assert_eq!(lp.prob(), 0.0); // linear space honestly underflows
    }
}
