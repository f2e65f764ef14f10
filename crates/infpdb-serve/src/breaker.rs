//! The service's circuit breaker: fail fast after consecutive failures.
//!
//! Retrying a persistently failing engine wastes the pool on work that
//! cannot succeed and amplifies an outage under load. The breaker trips
//! **open** after [`BreakerConfig::threshold`] consecutive failures:
//! requests then fail fast with
//! [`ServeError::CircuitOpen`](crate::ServeError::CircuitOpen) instead of
//! evaluating. After [`BreakerConfig::cooldown`] the breaker goes
//! **half-open** and admits exactly one probe request; the probe's
//! outcome closes the breaker (success) or re-opens it for another
//! cooldown (failure).
//!
//! The breaker guards the *evaluation* stage only — it is consulted at
//! the cache-miss point, so cached answers keep serving while open.
//! Lock-free: two atomics, CAS for the single-probe election.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open. `0` disables
    /// the breaker entirely.
    pub threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 5,
            cooldown: Duration::from_millis(100),
        }
    }
}

impl BreakerConfig {
    /// A breaker that never trips.
    pub fn disabled() -> Self {
        BreakerConfig {
            threshold: 0,
            cooldown: Duration::ZERO,
        }
    }
}

/// The breaker's answer to "may this request evaluate?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed (or half-open probe slot won): evaluate normally.
    Proceed,
    /// Open: fail fast; the payload is the consecutive-failure count
    /// that tripped the breaker.
    FastFail(u32),
}

/// A lock-free consecutive-failure circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    consecutive_failures: AtomicU32,
    /// Nanoseconds (relative to `epoch`) at which the cooldown ends;
    /// 0 = closed.
    open_until_nanos: AtomicU64,
    /// Half-open: set while one probe is in flight.
    probing: AtomicBool,
    epoch: Instant,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            consecutive_failures: AtomicU32::new(0),
            open_until_nanos: AtomicU64::new(0),
            probing: AtomicBool::new(false),
            epoch: Instant::now(),
        }
    }

    fn now_nanos(&self) -> u64 {
        // saturating: good for > 500 years of uptime
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Consult the breaker before evaluating.
    pub fn admit(&self) -> Admission {
        if self.config.threshold == 0 {
            return Admission::Proceed;
        }
        let open_until = self.open_until_nanos.load(Ordering::Acquire);
        if open_until == 0 {
            return Admission::Proceed;
        }
        if self.now_nanos() < open_until {
            return Admission::FastFail(self.consecutive_failures.load(Ordering::Relaxed));
        }
        // cooldown over: half-open; elect exactly one probe
        if self
            .probing
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            Admission::Proceed
        } else {
            Admission::FastFail(self.consecutive_failures.load(Ordering::Relaxed))
        }
    }

    /// Record a successful evaluation: closes the breaker.
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.open_until_nanos.store(0, Ordering::Release);
        self.probing.store(false, Ordering::Release);
    }

    /// Record a failed evaluation: trips the breaker at the threshold,
    /// re-opens it when a half-open probe fails.
    pub fn record_failure(&self) {
        if self.config.threshold == 0 {
            return;
        }
        let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= self.config.threshold {
            let until =
                self.now_nanos() + self.config.cooldown.as_nanos().min(u128::from(u64::MAX)) as u64;
            self.open_until_nanos.store(until.max(1), Ordering::Release);
        }
        self.probing.store(false, Ordering::Release);
    }

    /// Whether the breaker is currently open (fast-failing).
    pub fn is_open(&self) -> bool {
        matches!(self.admit_peek(), Admission::FastFail(_))
    }

    /// Like [`CircuitBreaker::admit`] but without claiming the probe slot.
    fn admit_peek(&self) -> Admission {
        let open_until = self.open_until_nanos.load(Ordering::Acquire);
        if open_until != 0 && self.now_nanos() < open_until {
            Admission::FastFail(self.consecutive_failures.load(Ordering::Relaxed))
        } else {
            Admission::Proceed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            threshold,
            cooldown,
        })
    }

    #[test]
    fn stays_closed_below_threshold() {
        let b = breaker(3, Duration::from_secs(60));
        b.record_failure();
        b.record_failure();
        assert_eq!(b.admit(), Admission::Proceed);
        // a success resets the streak
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.admit(), Admission::Proceed);
    }

    #[test]
    fn trips_open_at_threshold_and_fast_fails() {
        let b = breaker(3, Duration::from_secs(60));
        for _ in 0..3 {
            b.record_failure();
        }
        assert!(b.is_open());
        match b.admit() {
            Admission::FastFail(n) => assert_eq!(n, 3),
            other => panic!("expected fast-fail, got {other:?}"),
        }
    }

    #[test]
    fn half_open_admits_one_probe_then_closes_on_success() {
        let b = breaker(2, Duration::ZERO);
        b.record_failure();
        b.record_failure();
        // cooldown of zero: immediately half-open
        assert_eq!(b.admit(), Admission::Proceed); // the probe
        assert!(matches!(b.admit(), Admission::FastFail(_))); // concurrent request
        b.record_success();
        assert_eq!(b.admit(), Admission::Proceed);
        assert!(!b.is_open());
    }

    #[test]
    fn failed_probe_reopens() {
        let b = breaker(2, Duration::ZERO);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.admit(), Admission::Proceed); // probe
        b.record_failure(); // probe failed
                            // half-open again (zero cooldown): the next admit is a new probe
        assert_eq!(b.admit(), Admission::Proceed);
        assert!(matches!(b.admit(), Admission::FastFail(_)));
    }

    #[test]
    fn zero_threshold_disables() {
        let b = CircuitBreaker::new(BreakerConfig::disabled());
        for _ in 0..100 {
            b.record_failure();
        }
        assert_eq!(b.admit(), Admission::Proceed);
        assert!(!b.is_open());
    }
}
