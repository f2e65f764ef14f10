#![warn(missing_docs)]
//! Approximate query evaluation on countably infinite tuple-independent
//! PDBs — Section 6 of Grohe & Lindner (PODS 2019).
//!
//! Proposition 6.1: for every `0 < ε < 1/2` there is an algorithm that,
//! given a Boolean FO query and oracle access to the PDB (the expected size
//! and the fact probabilities — our
//! [`infpdb_ti::enumerator::FactSupply`]), computes `p` with
//! `P(Q) − ε ≤ p ≤ P(Q) + ε`:
//!
//! 1. choose `n` so that the discarded tail satisfies both
//!    `e^{α_n} ≤ 1 + ε` and `e^{−α_n} ≥ 1 − ε` with
//!    `α_n = (3/2)·∑_{i>n} p_i` ([`truncate`]);
//! 2. evaluate `p := P(Q | Ω_n)` with a traditional closed-world finite
//!    engine — by tuple-independence this is exactly the query probability
//!    on the prefix table ([`approx`]);
//! 3. the claim (∗) bound `∏_{i>n}(1−p_i) ≥ e^{−α_n}` turns the
//!    conditioning error into the additive guarantee.
//!
//! Free-variable queries are handled per Section 6's closing remark: every
//! valuation over `adom(Ω_n)` is evaluated as a Boolean query
//! ([`marginal`]). [`budget`] plans truncation sizes and extends the
//! algorithm to completed PDBs (mixtures of an arbitrary finite original
//! with an independent tail); [`conditional`] adds conditional
//! probabilities and expected answer counts on top.
//!
//! The paper also proves (Proposition 6.2) that the *additive* guarantee
//! cannot be improved to a multiplicative one — see `infpdb-tm` for the
//! executable reduction.

pub mod approx;
pub mod budget;
pub mod cancel;
pub mod conditional;
pub mod marginal;
pub mod persist;
pub mod planner;
pub mod prepared;
pub mod truncate;

pub use approx::{approx_prob_boolean, Approximation};
pub use cancel::{CancelInfo, CancelKind, CancelToken};
pub use persist::{OpenReport, StoreStatus};
pub use planner::{Engine, PlanKnobs, Planner, StrategyKind};
pub use prepared::{PreparedPdb, PreparedQuery};

/// Errors of the approximate-evaluation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Propagated infinite-PDB error (divergence, lookup failures, …).
    Ti(infpdb_ti::TiError),
    /// Propagated finite-engine error.
    Finite(String),
    /// Propagated logic error.
    Logic(infpdb_logic::LogicError),
    /// Propagated numerics error (includes tolerance validation:
    /// Proposition 6.1 requires `ε ∈ (0, 1/2)`).
    Math(infpdb_math::MathError),
    /// A forced strategy cannot evaluate one of the query's components:
    /// no safe plan for lifted, no bounded monotone DNF for Karp–Luby, or
    /// sampling disqualified at this ε.
    Ineligible {
        /// The forced strategy.
        strategy: planner::StrategyKind,
        /// The first component it cannot evaluate, in the compiled
        /// query's component order.
        component: usize,
    },
    /// The evaluation was stopped by a [`cancel::CancelToken`] checkpoint
    /// (explicit cancellation or an expired deadline), possibly carrying
    /// a sound partial answer from the facts processed so far.
    Cancelled(cancel::CancelInfo),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Ti(e) => write!(f, "{e}"),
            QueryError::Finite(e) => write!(f, "{e}"),
            QueryError::Logic(e) => write!(f, "{e}"),
            QueryError::Math(e) => write!(f, "{e}"),
            QueryError::Ineligible {
                strategy,
                component,
            } => write!(
                f,
                "component {component} is ineligible for the forced strategy {}",
                strategy.name()
            ),
            QueryError::Cancelled(info) => {
                let what = match info.kind {
                    cancel::CancelKind::Explicit => "cancelled",
                    cancel::CancelKind::Deadline => "deadline exceeded",
                };
                write!(f, "{what} after {} facts", info.facts_processed)?;
                if let Some(p) = &info.partial {
                    write!(f, " (partial: {} ± {})", p.estimate, p.eps)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<infpdb_ti::TiError> for QueryError {
    fn from(e: infpdb_ti::TiError) -> Self {
        QueryError::Ti(e)
    }
}

impl From<infpdb_logic::LogicError> for QueryError {
    fn from(e: infpdb_logic::LogicError) -> Self {
        QueryError::Logic(e)
    }
}

impl From<infpdb_math::MathError> for QueryError {
    fn from(e: infpdb_math::MathError) -> Self {
        QueryError::Math(e)
    }
}

impl From<infpdb_finite::FiniteError> for QueryError {
    fn from(e: infpdb_finite::FiniteError) -> Self {
        QueryError::Finite(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        let e: QueryError = infpdb_ti::TiError::UnboundedEvent.into();
        assert!(e.to_string().contains("finite"));
        let l: QueryError = infpdb_logic::LogicError::UnknownRelation("R".into()).into();
        assert!(l.to_string().contains("R"));
        let m: QueryError = infpdb_math::MathError::BadTolerance(0.9).into();
        assert!(m.to_string().contains("0.9"));
        assert!(QueryError::Finite("x".into()).to_string().contains("x"));
    }
}
