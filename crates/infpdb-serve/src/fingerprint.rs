//! Cache-key construction: stable fingerprints of requests.
//!
//! A cached answer may be returned for a request exactly when the five
//! components of its [`CacheKey`] agree:
//!
//! 1. **PDB content** — for finite tables, `TiTable::fingerprint`; for
//!    countable PDBs, [`countable_pdb_fingerprint`] hashes an enumeration
//!    prefix plus the certified tail bound (two supplies agreeing on both
//!    are indistinguishable to every evaluation this service performs at
//!    the tolerances it accepts).
//! 2. **Normalized query** — [`query_fingerprint`] (re-exported from
//!    [`infpdb_logic::compile`], where it also keys compiled-query
//!    artifacts): the formula is rectified and put in negation normal
//!    form, then hashed structurally with bound variables replaced by de
//!    Bruijn indices, so α-equivalent queries (`∃x. R(x)` vs `∃y. R(y)`)
//!    and double negations share an entry while genuinely different
//!    queries do not.
//! 3. **Effective ε bits** — the tolerance actually evaluated (after any
//!    degradation), by exact bit pattern.
//! 4. **Engine** — different engines must not share entries: the service
//!    promises byte-identical agreement with the corresponding
//!    sequential evaluation, and e.g. a forced lifted and a forced
//!    Shannon plan may differ in the last ulp.
//! 5. **Planner knobs** — [`PlanKnobs::fingerprint`]: the answer bits
//!    depend on the plan (sampling strategies, seeds, the ε budget
//!    split), and the plan on the knobs, so a knob change must never
//!    alias a stale entry.
//!
//! [`PlanKnobs::fingerprint`]: infpdb_query::PlanKnobs::fingerprint

use infpdb_core::fingerprint::Fingerprinter;
use infpdb_core::schema::Schema;
use infpdb_logic::ast::Formula;
use infpdb_query::{Engine, PlanKnobs};

pub use infpdb_logic::compile::query_fingerprint;
// the countable-PDB content fingerprint lives with the PDB construction
// itself (the planner seeds plans with it too); re-exported here for the
// service and its callers
pub use infpdb_ti::fingerprint::{countable_pdb_fingerprint, PDB_FINGERPRINT_PREFIX};

/// The components identifying a cacheable evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    /// PDB content fingerprint.
    pub pdb: u64,
    /// Normalized-query fingerprint.
    pub query: u64,
    /// Bit pattern of the ε the evaluation actually ran at.
    pub eps_bits: u64,
    /// Engine discriminant ([`Engine::tag`]).
    pub engine: u8,
    /// Planner-knob fingerprint (the plan, and with it the answer bits,
    /// are a function of it).
    pub knobs: u64,
}

impl CacheKey {
    /// Assembles a key.
    pub fn new(
        pdb: u64,
        schema: &Schema,
        query: &Formula,
        eps: f64,
        engine: Engine,
        knobs: &PlanKnobs,
    ) -> Self {
        CacheKey {
            pdb,
            query: query_fingerprint(schema, query),
            eps_bits: eps.to_bits(),
            engine: engine.tag(),
            knobs: knobs.fingerprint(),
        }
    }

    /// The 64-bit digest used as the cache index.
    pub fn digest(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_u64(self.pdb)
            .write_u64(self.query)
            .write_u64(self.eps_bits)
            .write_u64(u64::from(self.engine))
            .write_u64(self.knobs);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_logic::parse;
    use infpdb_math::series::GeometricSeries;
    use infpdb_query::StrategyKind::Shannon;
    use infpdb_ti::construction::CountableTiPdb;
    use infpdb_ti::enumerator::FactSupply;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1), Relation::new("S", 2)]).unwrap()
    }

    fn qfp(q: &str) -> u64 {
        let s = schema();
        query_fingerprint(&s, &parse(q, &s).unwrap())
    }

    #[test]
    fn alpha_equivalent_queries_share_a_fingerprint() {
        assert_eq!(qfp("exists x. R(x)"), qfp("exists y. R(y)"));
        assert_eq!(
            qfp("exists x. exists y. S(x, y)"),
            qfp("exists a. exists b. S(a, b)")
        );
        // swapped roles are NOT α-equivalent
        assert_ne!(
            qfp("exists x. exists y. S(x, y)"),
            qfp("exists x. exists y. S(y, x)")
        );
    }

    #[test]
    fn normalization_collapses_double_negation() {
        assert_eq!(qfp("!(!R(1))"), qfp("R(1)"));
        assert_eq!(qfp("!(exists x. R(x))"), qfp("forall x. !R(x)"));
    }

    #[test]
    fn distinct_queries_get_distinct_fingerprints() {
        assert_ne!(qfp("R(1)"), qfp("R(2)"));
        assert_ne!(qfp("R(1)"), qfp("!R(1)"));
        assert_ne!(qfp("exists x. R(x)"), qfp("forall x. R(x)"));
        assert_ne!(qfp("R(1) /\\ R(2)"), qfp("R(1) \\/ R(2)"));
    }

    #[test]
    fn cache_key_separates_eps_engine_and_knobs() {
        let s = schema();
        let q = parse("R(1)", &s).unwrap();
        let knobs = PlanKnobs::default();
        let base = CacheKey::new(7, &s, &q, 0.01, Engine::Auto, &knobs);
        assert_eq!(base, CacheKey::new(7, &s, &q, 0.01, Engine::Auto, &knobs));
        assert_ne!(
            base.digest(),
            CacheKey::new(7, &s, &q, 0.02, Engine::Auto, &knobs).digest()
        );
        assert_ne!(
            base.digest(),
            CacheKey::new(7, &s, &q, 0.01, Engine::Force(Shannon), &knobs).digest()
        );
        assert_ne!(
            base.digest(),
            CacheKey::new(8, &s, &q, 0.01, Engine::Auto, &knobs).digest()
        );
        // changing a planner knob changes the key: re-tuned services
        // can never serve answers planned under the old knobs
        let retuned = PlanKnobs {
            sampling_fraction: 0.25,
            ..PlanKnobs::default()
        };
        assert_ne!(
            base.digest(),
            CacheKey::new(7, &s, &q, 0.01, Engine::Auto, &retuned).digest()
        );
    }

    #[test]
    fn countable_fingerprint_sees_probability_changes() {
        let s = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        let make = |first: f64| {
            CountableTiPdb::new(FactSupply::unary_over_naturals(
                s.clone(),
                RelId(0),
                GeometricSeries::new(first, 0.5).unwrap(),
            ))
            .unwrap()
        };
        let a = countable_pdb_fingerprint(&make(0.5));
        let b = countable_pdb_fingerprint(&make(0.5));
        let c = countable_pdb_fingerprint(&make(0.25));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
