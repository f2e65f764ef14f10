#![warn(missing_docs)]
//! First-order logic substrate for `infpdb`.
//!
//! Implements the query language of the paper (Section 2.1): first-order
//! formulas `FO[τ, U]` over a relational vocabulary expanded by constants
//! from the universe, together with
//!
//! * a text [`parser`] (`exists x. R(x, y) /\ !S(x)`),
//! * free-variable and substitution machinery ([`vars`]),
//! * quantifier rank and constant counts ([`rank`]) — the parameters `r`
//!   and `s` of the truncation argument in Proposition 6.1,
//! * an active-domain [`eval`]uator justified by Fact 2.1 (answers of
//!   domain-independent queries live in `(adom(D) ∪ adom(φ))^k`), the one
//!   evaluator of a formula on a single world,
//! * FO [`view`]s `V : D[τ,U] → D[τ′,U]` with pushforward semantics
//!   (Section 3.1), and
//! * the hierarchical-query [`safety`] analysis that decides whether a
//!   self-join-free conjunctive query admits an extensional "safe plan"
//!   (used by the finite engine's lifted inference), and
//! * the prepare-phase [`compile`] step bundling normalization, an
//!   α-invariant fingerprint, ranking, and safety into one reusable
//!   [`compile::CompiledQuery`] artifact.

pub mod ast;
pub mod compile;
pub mod eval;
pub mod normal;
pub mod parser;
pub mod rank;
pub mod safety;
pub mod vars;
pub mod view;

pub use ast::{Formula, Term, Var};
pub use compile::{CompiledQuery, Connective, QueryComponent};
pub use eval::Evaluator;
pub use parser::parse;
pub use view::FoView;

/// Errors of the logic layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicError {
    /// Syntax error at a byte offset.
    Parse {
        /// Byte offset of the error in the input.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// A relation name used in a formula is not in the schema.
    UnknownRelation(String),
    /// An atom's argument count does not match the relation's arity.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Arguments in the atom.
        got: usize,
    },
    /// A formula was expected to be a sentence (no free variables).
    NotASentence(Vec<Var>),
    /// A formula is outside the fragment an operation supports.
    UnsupportedFragment(String),
}

impl std::fmt::Display for LogicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogicError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            LogicError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            LogicError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation} has arity {expected} but atom has {got} arguments"
            ),
            LogicError::NotASentence(vs) => {
                write!(
                    f,
                    "formula has free variables {vs:?}; a sentence was required"
                )
            }
            LogicError::UnsupportedFragment(m) => write!(f, "unsupported fragment: {m}"),
        }
    }
}

impl std::error::Error for LogicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = LogicError::Parse {
            offset: 3,
            message: "expected ')'".into(),
        };
        assert!(e.to_string().contains("byte 3"));
        assert!(LogicError::UnknownRelation("Q".into())
            .to_string()
            .contains("Q"));
        assert!(LogicError::NotASentence(vec!["x".into()])
            .to_string()
            .contains("free"));
        assert!(LogicError::UnsupportedFragment("neg".into())
            .to_string()
            .contains("neg"));
        assert!(LogicError::ArityMismatch {
            relation: "R".into(),
            expected: 1,
            got: 2
        }
        .to_string()
        .contains("arity 1"));
    }
}
