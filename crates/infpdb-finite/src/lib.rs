#![warn(missing_docs)]
//! Finite (closed-world) probabilistic databases — the substrate the paper
//! builds on and lifts from.
//!
//! The paper's standard model (Section 1, following Suciu et al. \[37\]): a
//! finite PDB is a probability distribution over finitely many database
//! instances; the central special case is the *tuple-independent* PDB, "a
//! table of all possible facts annotated with their marginal probabilities".
//! Proposition 6.1 lifts "a traditional closed-world query evaluation
//! algorithm for finite tuple-independent PDBs" to infinite ones — this
//! crate provides those algorithms:
//!
//! * [`pdb`] — general finite PDBs as materialized instance spaces.
//! * [`tuple_independent`] — t.i. tables: sampling, instance probabilities,
//!   expected size, the Poisson-binomial size distribution.
//! * [`bid`] — finite block-independent-disjoint tables (Section 4.4's
//!   finite special case): one fact per block, blocks independent.
//! * [`lineage`] — Boolean provenance of an FO query over a t.i. table.
//! * [`arena`] — hash-consed lineage DAGs: canonical node shapes interned
//!   to dense ids, O(1) equality, physically shared substructure.
//! * [`shannon`] — exact inference on lineage by Shannon expansion with
//!   independence decomposition and memoization (a small d-DNNF compiler);
//!   both a boxed-tree reference engine and the production DAG engine.
//! * [`lifted`] — extensional evaluation of hierarchical self-join-free
//!   CQs along `infpdb_logic::safety::SafePlan`s (polynomial time).
//! * [`karp_luby`] — the Karp–Luby FPRAS for monotone (UCQ) lineage:
//!   *multiplicative* guarantees on finite tables.
//! * [`monte_carlo`] — Monte-Carlo estimation with Hoeffding guarantees.
//! * [`worlds`] — brute-force possible-worlds enumeration, the reference
//!   implementation every other engine is validated against.

pub mod arena;
pub mod bid;
pub mod engine;
pub mod karp_luby;
pub mod lifted;
pub mod lineage;
pub mod monte_carlo;
pub mod pdb;
pub mod plan;
pub mod shannon;
pub mod tuple_independent;
pub mod worlds;

pub use arena::{LineageArena, LineageId};
pub use bid::BidTable;
pub use lineage::Lineage;
pub use pdb::FinitePdb;
pub use tuple_independent::TiTable;

/// Errors of the finite engine.
#[derive(Debug, Clone, PartialEq)]
pub enum FiniteError {
    /// Propagated relational-substrate error.
    Core(infpdb_core::CoreError),
    /// Propagated logic error.
    Logic(infpdb_logic::LogicError),
    /// An operation would enumerate `2^n` worlds for too large `n`.
    TooManyWorlds {
        /// Number of probabilistic facts.
        facts: usize,
        /// The enumeration limit.
        limit: usize,
    },
    /// A block's fact probabilities sum to more than 1.
    BlockMassExceedsOne {
        /// Index of the offending block.
        block: usize,
        /// Its total mass.
        mass: f64,
    },
    /// A fact appears twice in a table.
    DuplicateFact {
        /// The fact, displayed.
        fact: String,
        /// The id the fact already has.
        first: infpdb_core::fact::FactId,
    },
}

impl std::fmt::Display for FiniteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FiniteError::Core(e) => write!(f, "{e}"),
            FiniteError::Logic(e) => write!(f, "{e}"),
            FiniteError::TooManyWorlds { facts, limit } => write!(
                f,
                "enumerating 2^{facts} worlds exceeds the limit 2^{limit}; \
                 use lifted, lineage, or Monte-Carlo inference instead"
            ),
            FiniteError::BlockMassExceedsOne { block, mass } => {
                write!(f, "block {block} has total probability mass {mass} > 1")
            }
            FiniteError::DuplicateFact { fact, .. } => write!(f, "duplicate fact {fact}"),
        }
    }
}

impl std::error::Error for FiniteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FiniteError::Core(e) => Some(e),
            FiniteError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<infpdb_core::CoreError> for FiniteError {
    fn from(e: infpdb_core::CoreError) -> Self {
        FiniteError::Core(e)
    }
}

impl From<infpdb_logic::LogicError> for FiniteError {
    fn from(e: infpdb_logic::LogicError) -> Self {
        FiniteError::Logic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = FiniteError::TooManyWorlds {
            facts: 40,
            limit: 25,
        };
        assert!(e.to_string().contains("2^40"));
        assert!(e.source().is_none());
        let c: FiniteError = infpdb_core::CoreError::EmptySpace.into();
        assert!(c.source().is_some());
        let l: FiniteError = infpdb_logic::LogicError::UnknownRelation("R".into()).into();
        assert!(l.to_string().contains("R"));
        assert!(FiniteError::BlockMassExceedsOne {
            block: 2,
            mass: 1.5
        }
        .to_string()
        .contains("1.5"));
        assert!(FiniteError::DuplicateFact {
            fact: "R(1)".into(),
            first: infpdb_core::fact::FactId(0)
        }
        .to_string()
        .contains("R(1)"));
    }
}
