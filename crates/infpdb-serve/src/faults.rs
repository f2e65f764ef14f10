//! Deterministic, seeded fault injection for chaos testing.
//!
//! A [`FaultInjector`] is compiled into the service (via
//! [`QueryService::with_faults`](crate::service::QueryService::with_faults))
//! and consulted at *named sites* on the request path — `"admission"`,
//! `"engine"`, `"cache_insert"` — where it can inject a panic, a spurious
//! [`ServeError::Transient`], or artificial
//! latency. Everything is deterministic given the seed: probabilistic
//! triggers draw from a per-site `SplitMix64` stream, and budgeted
//! triggers ([`Trigger::Times`]) fire an exact number of times, so a
//! chaos test can assert that the service's failure metrics match the
//! injected counts *exactly*.
//!
//! The seeded site machinery itself lives in
//! [`infpdb_core::faultsim`] — shared with the durable store's
//! fault-injecting I/O layer — and this module binds it to the serving
//! layer's fault kinds. The injector is `std`-only and free when idle:
//! an unarmed injector's [`fire`](FaultInjector::fire) is a single
//! relaxed atomic load.

use crate::ServeError;
use infpdb_core::faultsim::SiteInjector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub use infpdb_core::faultsim::Trigger;

/// What to inject when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the site (caught by the worker's panic containment).
    Panic,
    /// Return [`ServeError::Transient`] from the site (retryable).
    Error,
    /// Sleep for the given duration, then proceed normally.
    Latency(Duration),
}

/// A registry of injectable faults, keyed by site name.
#[derive(Debug)]
pub struct FaultInjector {
    sites: SiteInjector<FaultKind>,
    /// Injected latencies sleeping right now.
    sleeping: AtomicU64,
    /// The most injected latencies that slept at once.
    peak_sleeping: AtomicU64,
}

impl FaultInjector {
    /// An injector with no faults configured; `seed` feeds the per-site
    /// probability streams.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            sites: SiteInjector::new(seed),
            sleeping: AtomicU64::new(0),
            peak_sleeping: AtomicU64::new(0),
        }
    }

    /// Configures (or replaces) the fault at `site`. The site's RNG is
    /// seeded from the injector seed and a hash of the site name, so
    /// adding sites never perturbs the streams of existing ones.
    pub fn inject(&self, site: &str, kind: FaultKind, trigger: Trigger) {
        self.sites.inject(site, kind, trigger);
    }

    /// Removes the fault at `site` (its fired count is forgotten).
    pub fn clear(&self, site: &str) {
        self.sites.clear(site);
    }

    /// How many faults have fired at `site` so far.
    pub fn fired(&self, site: &str) -> u64 {
        self.sites.fired(site)
    }

    /// How many times `site` has been reached (fired or not).
    pub fn calls(&self, site: &str) -> u64 {
        self.sites.calls(site)
    }

    /// The most injected latencies that have slept at the same time.
    /// With latency injected at `"engine"` alone, which every evaluation
    /// passes, this is the most evaluations that were in flight at once.
    pub fn peak_concurrent_latency(&self) -> u64 {
        self.peak_sleeping.load(Ordering::SeqCst)
    }

    /// The checkpoint placed at each named site. Returns `Ok(())` when
    /// nothing fires (or after an injected latency elapses); returns the
    /// injected error for [`FaultKind::Error`]; **panics** for
    /// [`FaultKind::Panic`] — by design, to exercise the worker's panic
    /// containment.
    pub fn fire(&self, site: &str) -> Result<(), ServeError> {
        match self.sites.check(site) {
            None => Ok(()),
            Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
            Some(FaultKind::Error) => Err(ServeError::Transient { site: site.into() }),
            Some(FaultKind::Latency(d)) => {
                let now = self.sleeping.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak_sleeping.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(d);
                self.sleeping.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_injector_is_a_no_op() {
        let f = FaultInjector::new(1);
        assert!(f.fire("engine").is_ok());
        assert_eq!(f.fired("engine"), 0);
        assert_eq!(f.calls("engine"), 0);
    }

    #[test]
    fn times_budget_fires_exactly_k() {
        let f = FaultInjector::new(1);
        f.inject("engine", FaultKind::Error, Trigger::Times(3));
        let mut errors = 0;
        for _ in 0..10 {
            if f.fire("engine").is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 3);
        assert_eq!(f.fired("engine"), 3);
        assert_eq!(f.calls("engine"), 10);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let f = FaultInjector::new(1);
        f.inject("admission", FaultKind::Error, Trigger::EveryNth(3));
        let pattern: Vec<bool> = (0..7).map(|_| f.fire("admission").is_err()).collect();
        assert_eq!(pattern, [true, false, false, true, false, false, true]);
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let f = FaultInjector::new(seed);
            f.inject("engine", FaultKind::Error, Trigger::Probability(0.5));
            (0..32).map(|_| f.fire("engine").is_err()).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let fired = run(42).iter().filter(|&&b| b).count();
        assert!(fired > 4 && fired < 28, "p=0.5 should fire roughly half");
    }

    #[test]
    fn panic_kind_panics_and_is_countable() {
        let f = std::sync::Arc::new(FaultInjector::new(7));
        f.inject("engine", FaultKind::Panic, Trigger::Times(1));
        let f2 = std::sync::Arc::clone(&f);
        let err = std::panic::catch_unwind(move || {
            let _ = f2.fire("engine");
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
        assert_eq!(f.fired("engine"), 1);
        assert!(f.fire("engine").is_ok()); // budget spent
    }

    #[test]
    fn latency_kind_delays_then_proceeds() {
        let f = FaultInjector::new(1);
        f.inject(
            "cache_insert",
            FaultKind::Latency(Duration::from_millis(5)),
            Trigger::Times(1),
        );
        let t0 = std::time::Instant::now();
        assert!(f.fire("cache_insert").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(f.fired("cache_insert"), 1);
    }

    #[test]
    fn overlapping_latencies_are_counted_at_their_peak() {
        let f = std::sync::Arc::new(FaultInjector::new(1));
        f.inject(
            "engine",
            FaultKind::Latency(Duration::from_millis(200)),
            Trigger::Always,
        );
        assert!(f.fire("engine").is_ok());
        assert_eq!(f.peak_concurrent_latency(), 1, "one sleep at a time");
        let start = std::sync::Arc::new(std::sync::Barrier::new(3));
        let sleepers: Vec<_> = (0..3)
            .map(|_| {
                let (f, start) = (std::sync::Arc::clone(&f), std::sync::Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    f.fire("engine").unwrap();
                })
            })
            .collect();
        for s in sleepers {
            s.join().unwrap();
        }
        // three 200 ms sleeps released together overlap
        assert!((2..=3).contains(&f.peak_concurrent_latency()));
    }

    #[test]
    fn clear_disarms_when_last_site_removed() {
        let f = FaultInjector::new(1);
        f.inject("a", FaultKind::Error, Trigger::Always);
        f.inject("b", FaultKind::Error, Trigger::Always);
        f.clear("a");
        assert!(f.fire("a").is_ok());
        assert!(f.fire("b").is_err());
        f.clear("b");
        assert!(f.fire("b").is_ok());
    }
}
