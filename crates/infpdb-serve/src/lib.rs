#![warn(missing_docs)]
//! Concurrent query-evaluation service for countable t.i. PDBs.
//!
//! Proposition 6.1 (Grohe & Lindner, PODS 2019) gives a *cost-predictable*
//! evaluation algorithm: the whole expense of an ε-approximation is fixed
//! by the truncation length `n(ε)` before the finite engine runs. This
//! crate turns that property into a serving layer:
//!
//! ```text
//!   requests ──▶ [admission]          plan n(ε); widen ε or reject if
//!                    │                the budget cannot afford n(ε)
//!                    ▼
//!              [result cache]         sharded LRU keyed by
//!                    │                (PDB, query, effective ε, engine)
//!                    ▼ miss
//!              [evaluation slot]──▶ [finite engine on Ω_n]   (Prop. 6.1)
//!                                   on the caller's thread if a slot is
//!                                   free (`evaluate`, no deadline), else
//!                                   queued for a pool worker
//! ```
//!
//! * [`pool`] — fixed-size `std`-only worker pool (mutex + condvar queue)
//!   with a *bounded* submission queue, configurable overflow policy,
//!   batch submission, two shutdown modes, and evaluation slots shared
//!   by workers and inline callers;
//! * [`cache`] — sharded LRU over 64-bit request fingerprints;
//! * [`fingerprint`] — stable content hashes: PDBs by enumeration prefix
//!   and tail bound, queries modulo rectification/NNF/α-renaming;
//! * [`admission`] — budgets (max `n`, deadlines) and ε-degradation,
//!   sound because the widened evaluation carries its own Prop. 6.1
//!   certificate;
//! * [`breaker`] — the service's circuit breaker, which fails fast after a
//!   run of consecutive evaluation failures;
//! * [`faults`] — a deterministic, seeded fault-injection harness for
//!   chaos testing (panics, latency, spurious errors at named sites);
//! * [`metrics`] — lock-free counters and latency histograms, rendered
//!   in the Prometheus text format;
//! * [`service`] — the [`QueryService`] wiring it all together.
//!
//! Everything is `std`-only: no external dependencies.
//!
//! # Failure model
//!
//! Every request resolves its [`Ticket`] with exactly one
//! `Result` — no fault may leave a client blocked forever — and no fault
//! may return an answer whose ε-certificate is violated. The
//! [`ServeError`] variants, and the stage that raises each:
//!
//! | variant | raised by | meaning |
//! |---|---|---|
//! | [`Rejected`](ServeError::Rejected) | admission | the plan needs a longer truncation than the budget affords and the policy left no feasible ε |
//! | [`Query`](ServeError::Query) | engine | the evaluation itself failed (bad tolerance, free variables, divergence, …) — deterministic, not retried |
//! | [`Overloaded`](ServeError::Overloaded) | submission | the bounded queue was full and the overflow policy shed this request (or, under `ShedOldest`, an older queued one); only queued requests can be shed, and [`QueryService::evaluate`] queues only transient probe failures and misses that carry a deadline or find no free evaluation slot, never a cache hit |
//! | [`Cancelled`](ServeError::Cancelled) | truncation loop | [`Ticket::cancel`](service::Ticket::cancel) fired a checkpoint mid-evaluation |
//! | [`DeadlineExceeded`](ServeError::DeadlineExceeded) | truncation loop / ticket wait | the request's deadline passed — at a checkpoint mid-loop, or while the ticket was still waiting ([`QueryService::evaluate`] queues every request with a deadline, so its ticket can give up) |
//! | [`EnginePanic`](ServeError::EnginePanic) | worker, or the calling thread of [`QueryService::evaluate`] (its probe, or a miss it computes there) | the evaluation panicked; the panic was caught and counted, the thread survives, and the payload is preserved; a probe's panic is retried on the pool like any transient failure, an inline miss's on the calling thread |
//! | [`Transient`](ServeError::Transient) | anywhere (injected) | a spurious, retryable failure — retried with bounded exponential backoff before surfacing |
//! | [`CircuitOpen`](ServeError::CircuitOpen) | cache-miss gate | the circuit breaker is open after too many consecutive failures; the request fails fast without evaluating (cache hits still serve) |
//! | [`Shutdown`](ServeError::Shutdown) | pool | the service shut down before this request ran |
//!
//! **Soundness of cancelled partial results.** A cancelled evaluation may
//! carry a partial [`Approximation`]:
//! if the truncation loop stopped after `m` facts, the `m`-fact prefix is
//! itself a valid Proposition 6.1 truncation `Ω_m` at the wider tolerance
//! `ε_m = e^{α_m} − 1`, `α_m = (3/2)·T_m`, where `T_m` is the series' own
//! certified tail bound at `m`. The proof of Prop. 6.1 only uses
//! `e^{α} ≤ 1 + ε` and `e^{−α} ≥ 1 − ε`; since `e^α − 1 ≥ 1 − e^{−α}`,
//! the single value `ε_m` covers both directions. The partial is omitted
//! (`None`) whenever the prefix cannot certify anything non-vacuous
//! (`T_m > 1/2`, which claim (∗) needs, or `ε_m ≥ 1/2`). Partial results
//! are **never cached** — the cache only holds answers at their admitted
//! effective ε.
//!
//! Worker panics never wedge the pool: panics are caught per job, and
//! every lock acquisition recovers from poisoning (`into_inner`) instead
//! of propagating it, so one contained panic cannot cascade into a
//! denial of service.

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod faults;
pub mod fingerprint;
pub mod metrics;
pub mod pool;
mod recover;
pub mod service;

pub use admission::{CostBudget, DegradePolicy};
pub use breaker::{BreakerConfig, CircuitBreaker};
pub use faults::{FaultInjector, FaultKind, Trigger};
pub use metrics::Metrics;
pub use pool::{OverflowPolicy, PoolConfig, SchedulerKind, StealingExecutor};
pub use service::{QueryRequest, QueryResponse, QueryService, RetryPolicy, ServiceConfig, Ticket};

use infpdb_query::approx::Approximation;
use infpdb_query::QueryError;

/// Errors of the serving layer. See the crate-level *Failure model* for
/// which stage raises each variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control refused the request: its plan needs a longer
    /// truncation than the budget affords, and the policy (or the PDB's
    /// convergence rate) left no feasible ε to widen to.
    Rejected {
        /// The tolerance the client asked for.
        requested_eps: f64,
        /// The truncation length the (possibly widened) plan required.
        needed_n: usize,
        /// The budget's cap on the truncation length.
        max_n: usize,
    },
    /// The evaluation itself failed (bad tolerance, free variables,
    /// divergence, …).
    Query(QueryError),
    /// The bounded submission queue was full and the overflow policy
    /// shed this request (reject-newest) or an older queued one
    /// (shed-oldest).
    Overloaded {
        /// The queue capacity that was exceeded.
        queue_cap: usize,
    },
    /// The request was cancelled via its ticket mid-evaluation.
    Cancelled {
        /// Facts materialized before the cancellation checkpoint fired.
        facts_processed: usize,
        /// A sound partial answer at the wider tolerance the processed
        /// prefix certifies, when one exists (see *Failure model*).
        partial: Option<Approximation>,
    },
    /// The request's deadline passed — at a truncation-loop checkpoint,
    /// or while its ticket was still waiting for a worker.
    DeadlineExceeded {
        /// Facts materialized before the deadline checkpoint fired
        /// (0 when the deadline expired before evaluation started).
        facts_processed: usize,
        /// A sound partial answer, when one exists (see *Failure model*).
        partial: Option<Approximation>,
    },
    /// The evaluation panicked, on a worker or on the calling thread of
    /// [`QueryService::evaluate`]. The panic was caught, the thread
    /// survives, and the payload is preserved here.
    EnginePanic {
        /// The panic payload, stringified (`&str`/`String` payloads are
        /// preserved verbatim; anything else becomes a placeholder).
        payload: String,
    },
    /// A transient, retryable failure (in production: a resource blip;
    /// in chaos tests: injected by [`faults::FaultInjector`]). Retried
    /// with bounded exponential backoff before surfacing.
    Transient {
        /// The site that failed.
        site: String,
    },
    /// The circuit breaker is open: too many consecutive
    /// failures, so the request fails fast without evaluating.
    CircuitOpen {
        /// Consecutive failures observed when the breaker opened.
        consecutive_failures: u32,
    },
    /// The service shut down before this request ran.
    Shutdown,
}

impl ServeError {
    /// Whether retrying could plausibly succeed: transient blips and
    /// panics (often environmental) are retryable; deterministic
    /// failures (rejection, query errors), terminal states (shutdown,
    /// cancellation, deadline), and open breakers are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServeError::Transient { .. } | ServeError::EnginePanic { .. }
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected {
                requested_eps,
                needed_n,
                max_n,
            } => write!(
                f,
                "rejected: eps {requested_eps} needs n = {needed_n} facts, budget allows {max_n}"
            ),
            ServeError::Query(e) => write!(f, "{e}"),
            ServeError::Overloaded { queue_cap } => {
                write!(f, "overloaded: submission queue full ({queue_cap} jobs)")
            }
            ServeError::Cancelled {
                facts_processed,
                partial,
            } => {
                write!(f, "cancelled after {facts_processed} facts")?;
                if let Some(p) = partial {
                    write!(f, " (partial: {} ± {})", p.estimate, p.eps)?;
                }
                Ok(())
            }
            ServeError::DeadlineExceeded {
                facts_processed,
                partial,
            } => {
                write!(f, "deadline exceeded after {facts_processed} facts")?;
                if let Some(p) = partial {
                    write!(f, " (partial: {} ± {})", p.estimate, p.eps)?;
                }
                Ok(())
            }
            ServeError::EnginePanic { payload } => {
                write!(f, "evaluation panicked: {payload}")
            }
            ServeError::Transient { site } => {
                write!(f, "transient failure at {site} (retries exhausted)")
            }
            ServeError::CircuitOpen {
                consecutive_failures,
            } => write!(
                f,
                "circuit breaker open after {consecutive_failures} consecutive failures"
            ),
            ServeError::Shutdown => write!(f, "service shut down before the request ran"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_actionable() {
        let e = ServeError::Rejected {
            requested_eps: 0.01,
            needed_n: 40,
            max_n: 5,
        };
        let s = e.to_string();
        assert!(s.contains("40") && s.contains('5') && s.contains("0.01"));
        assert!(ServeError::Shutdown.to_string().contains("shut down"));
        let q: ServeError = QueryError::Math(infpdb_math::MathError::BadTolerance(0.7)).into();
        assert!(q.to_string().contains("0.7"));
        assert!(ServeError::Overloaded { queue_cap: 32 }
            .to_string()
            .contains("32"));
        let c = ServeError::Cancelled {
            facts_processed: 48,
            partial: Some(Approximation {
                estimate: 0.5,
                eps: 0.2,
                n: 48,
                tail_mass: 0.1,
            }),
        };
        assert!(c.to_string().contains("48") && c.to_string().contains("0.5"));
        assert!(ServeError::DeadlineExceeded {
            facts_processed: 3,
            partial: None
        }
        .to_string()
        .contains("deadline"));
        assert!(ServeError::EnginePanic {
            payload: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert!(ServeError::Transient {
            site: "engine".into()
        }
        .to_string()
        .contains("engine"));
        assert!(ServeError::CircuitOpen {
            consecutive_failures: 5
        }
        .to_string()
        .contains('5'));
    }

    #[test]
    fn transient_classification() {
        assert!(ServeError::Transient { site: "x".into() }.is_transient());
        assert!(ServeError::EnginePanic {
            payload: "p".into()
        }
        .is_transient());
        for e in [
            ServeError::Shutdown,
            ServeError::Overloaded { queue_cap: 1 },
            ServeError::CircuitOpen {
                consecutive_failures: 3,
            },
            ServeError::Cancelled {
                facts_processed: 0,
                partial: None,
            },
            ServeError::DeadlineExceeded {
                facts_processed: 0,
                partial: None,
            },
        ] {
            assert!(!e.is_transient(), "{e:?}");
        }
    }
}
