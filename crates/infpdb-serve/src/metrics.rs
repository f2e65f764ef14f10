//! Atomic metrics registry: counters, gauges, and latency histograms.
//!
//! Everything is lock-free (`AtomicU64` with relaxed ordering — metrics
//! tolerate torn reads across counters) so recording never contends with
//! the evaluation hot path. [`Metrics::prometheus`] renders the one text
//! form of a snapshot, the Prometheus exposition format that `/metrics`
//! serves and `infpdb batch` and the shell print; the metric names are
//! part of the crate's public interface and documented in DESIGN.md
//! §Serving layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets (`< 1µs` … `≥ 2²⁰µs ≈ 1s`).
pub const HISTOGRAM_BUCKETS: usize = 21;

/// Strategy labels for the `serve_plan_choice_total` family, indexed by
/// [`Strategy::tag`](infpdb_finite::plan::Strategy::tag).
const STRATEGY_LABELS: [&str; 4] = ["lifted", "shannon", "mc", "kl"];

/// A latency histogram with power-of-two microsecond buckets.
///
/// Bucket `i < HISTOGRAM_BUCKETS - 1` counts observations with
/// `duration < 2^i µs`; the last bucket is a catch-all overflow.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Renders the histogram in Prometheus text exposition format: bucket
    /// `i` (observations `< 2^i µs`) is exposed as `le="2^i"`
    /// microseconds, cumulative as the format requires, terminated by
    /// `le="+Inf"`.
    fn prometheus_into(&self, name: &str, help: &str, out: &mut String) {
        use std::fmt::Write as _;
        writeln!(out, "# HELP {name} {help}").ok();
        writeln!(out, "# TYPE {name} histogram").ok();
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if i + 1 == HISTOGRAM_BUCKETS {
                writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}").ok();
            } else {
                writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", 1u64 << i).ok();
            }
        }
        writeln!(
            out,
            "{name}_sum {}",
            self.sum_micros.load(Ordering::Relaxed)
        )
        .ok();
        writeln!(out, "{name}_count {}", self.count()).ok();
    }
}

/// The serving layer's metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted into the queue.
    pub submitted: AtomicU64,
    /// Requests answered (cached, fresh, or degraded).
    pub completed: AtomicU64,
    /// Requests answered straight from the result cache.
    pub cache_hits: AtomicU64,
    /// Requests that had to evaluate.
    pub cache_misses: AtomicU64,
    /// Evaluations that reused a cached compiled-query plan.
    pub plan_cache_hits: AtomicU64,
    /// Evaluations that had to compile their query.
    pub plan_cache_misses: AtomicU64,
    /// Compiled plans displaced from the plan cache by LRU eviction.
    pub plan_cache_evictions: AtomicU64,
    /// Requests answered at a widened ε to fit their budget.
    pub degraded: AtomicU64,
    /// Requests refused by admission control.
    pub rejected: AtomicU64,
    /// Requests that failed with an evaluation error.
    pub errors: AtomicU64,
    /// Worker jobs that panicked (caught; the worker survives).
    pub panics: AtomicU64,
    /// Requests shed by the bounded queue's overflow policy.
    pub shed: AtomicU64,
    /// Requests stopped by explicit ticket cancellation.
    pub cancelled: AtomicU64,
    /// Requests stopped by an expired deadline (mid-loop or while
    /// waiting).
    pub deadline_exceeded: AtomicU64,
    /// Evaluation attempts retried after a transient failure.
    pub retries: AtomicU64,
    /// Requests failed fast by an open circuit breaker.
    pub breaker_fastfail: AtomicU64,
    /// Shannon-engine memo hits accumulated across evaluations (id-keyed
    /// probes of the DAG engine's probability cache).
    pub shannon_memo_hits: AtomicU64,
    /// Shannon expansions accumulated across evaluations.
    pub shannon_expansions: AtomicU64,
    /// Lineage-arena nodes interned, accumulated across evaluations.
    pub arena_nodes: AtomicU64,
    /// Lineage-arena interning-table hits (structural duplicates answered
    /// without allocating), accumulated across evaluations.
    pub arena_intern_hits: AtomicU64,
    /// Independent lineage components evaluated on forked worker threads,
    /// accumulated across parallel evaluations.
    pub parallel_tasks: AtomicU64,
    /// Parallel-eligible evaluations that stayed sequential because every
    /// subproblem fell below the fork threshold (or fewer than two were
    /// heavy enough to split).
    pub parallel_fallback_seq: AtomicU64,
    /// Query components routed to each strategy by the plan each
    /// evaluation ran, indexed by
    /// [`Strategy::tag`](infpdb_finite::plan::Strategy::tag)
    /// (lifted, shannon, mc, kl). Planned (`Engine::Auto`) and forced
    /// (`Engine::Force`) plans both count.
    pub plan_choice: [AtomicU64; 4],
    /// ε-refinements whose fresh plan derivation picked a different
    /// strategy vector than the previous plan for the same query — the
    /// cost crossover actually moved.
    pub replans: AtomicU64,
    /// Durable-store snapshots committed (manifest renamed into place).
    /// No-op snapshots (nothing changed since the last commit) count
    /// under [`store_snapshot_noops`](Self::store_snapshot_noops)
    /// instead.
    pub store_snapshot_writes: AtomicU64,
    /// Periodic snapshots skipped because the catalog was unchanged
    /// since the previous commit: no file was touched.
    pub store_snapshot_noops: AtomicU64,
    /// Segment bytes written by committed snapshots, accumulated. An
    /// incremental snapshot that reuses full shards adds only its
    /// rewritten tail shards here.
    pub store_snapshot_bytes_written: AtomicU64,
    /// Shard files (re)written by committed snapshots, accumulated.
    pub store_snapshot_shards_written: AtomicU64,
    /// Shard files reused byte-for-byte from the previous snapshot
    /// (unchanged count and fingerprint), accumulated.
    pub store_snapshot_shards_skipped: AtomicU64,
    /// Shard files opened as zero-copy memory maps during store opens.
    pub store_mmap_maps: AtomicU64,
    /// Shard files read into owned buffers because mapping was
    /// unavailable (non-unix, empty file, or an injected-fault I/O
    /// layer), during store opens.
    pub store_mmap_fallbacks: AtomicU64,
    /// Store opens that had to recover (anything short of a clean,
    /// fingerprint-verified load: torn tails, checksum failures, missing
    /// segments, or a degraded fallback to an empty catalog).
    pub store_recoveries: AtomicU64,
    /// Records rejected by a CRC32C or structural check during store
    /// opens, accumulated across recoveries.
    pub store_checksum_failures: AtomicU64,
    /// Facts dropped past the last recoverable prefix during store
    /// opens, accumulated across recoveries.
    pub store_recovered_facts_dropped: AtomicU64,
    /// Jobs currently queued, waiting for a worker.
    pub queue_depth: AtomicU64,
    /// Component subtasks taken from another worker's deque by the
    /// work-stealing scheduler.
    pub steals: AtomicU64,
    /// Subtasks currently parked in the stealing scheduler's shared
    /// injector (pushed by non-worker threads), waiting for any worker.
    pub injector_depth: AtomicU64,
    /// Subtasks executed per pool worker, initialized by a
    /// work-stealing pool at spawn time (absent under the fixed
    /// scheduler, so fixed-pool snapshots carry no per-worker lines).
    pub worker_tasks: std::sync::OnceLock<Vec<AtomicU64>>,
    /// Subtasks executed by threads outside the pool: a caller that
    /// computes its own miss on a claimed slot helps run its request's
    /// subtasks. With `worker_tasks` this accounts for every subtask a
    /// work-stealing pool ran; rendered only next to `worker_tasks`.
    pub caller_tasks: AtomicU64,
    /// Time from entering the pool's queue to the start of evaluation,
    /// for queued requests only. A cache hit, a refusal, or a miss that
    /// [`QueryService::evaluate`](crate::QueryService::evaluate) answers
    /// on the calling thread never queues and records nothing here.
    pub wait: LatencyHistogram,
    /// Evaluation time (admission + engine), excluding queue wait, on a
    /// worker or on the calling thread alike.
    pub run: LatencyHistogram,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prometheus text exposition format snapshot (`# HELP`/`# TYPE`
    /// comments, numeric histogram `le` labels), suitable for a
    /// `GET /metrics` scrape endpoint: `serve_queue_depth` and
    /// `serve_injector_depth` are gauges, every `*_total` a counter, and
    /// the wait/run latencies native histograms in microseconds.
    ///
    /// The per-worker `serve_worker_tasks_total` family and
    /// `serve_caller_tasks_total` appear once a work-stealing pool has
    /// sized them; the arena statistics (Shannon expansions, interned
    /// node and interning-hit totals) only when `arena_stats` asks for
    /// them, because they are only meaningful when the intensional
    /// engine runs.
    pub fn prometheus(&self, arena_stats: bool) -> String {
        use std::fmt::Write as _;
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, v: u64| {
            writeln!(out, "# HELP {name} {help}").ok();
            writeln!(out, "# TYPE {name} counter").ok();
            writeln!(out, "{name} {v}").ok();
        };
        counter(
            "serve_requests_submitted_total",
            "Requests accepted into the queue.",
            c(&self.submitted),
        );
        counter(
            "serve_requests_completed_total",
            "Requests answered (cached, fresh, or degraded).",
            c(&self.completed),
        );
        counter(
            "serve_cache_hits_total",
            "Requests answered straight from the result cache.",
            c(&self.cache_hits),
        );
        counter(
            "serve_cache_misses_total",
            "Requests that had to evaluate.",
            c(&self.cache_misses),
        );
        counter(
            "serve_plan_cache_hits_total",
            "Evaluations that reused a cached compiled-query plan.",
            c(&self.plan_cache_hits),
        );
        counter(
            "serve_plan_cache_misses_total",
            "Evaluations that had to compile their query.",
            c(&self.plan_cache_misses),
        );
        counter(
            "serve_plan_cache_evictions_total",
            "Compiled plans displaced from the plan cache by LRU eviction.",
            c(&self.plan_cache_evictions),
        );
        counter(
            "serve_degraded_answers_total",
            "Requests answered at a widened epsilon to fit their budget.",
            c(&self.degraded),
        );
        counter(
            "serve_rejected_total",
            "Requests refused by admission control.",
            c(&self.rejected),
        );
        counter(
            "serve_errors_total",
            "Requests that failed with an evaluation error.",
            c(&self.errors),
        );
        counter(
            "serve_worker_panics_total",
            "Worker jobs that panicked (caught; the worker survives).",
            c(&self.panics),
        );
        counter(
            "serve_shed_total",
            "Requests shed by the bounded queue's overflow policy.",
            c(&self.shed),
        );
        counter(
            "serve_cancelled_total",
            "Requests stopped by explicit ticket cancellation.",
            c(&self.cancelled),
        );
        counter(
            "serve_deadline_exceeded_total",
            "Requests stopped by an expired deadline.",
            c(&self.deadline_exceeded),
        );
        counter(
            "serve_retries_total",
            "Evaluation attempts retried after a transient failure.",
            c(&self.retries),
        );
        counter(
            "serve_breaker_fastfail_total",
            "Requests failed fast by an open circuit breaker.",
            c(&self.breaker_fastfail),
        );
        counter(
            "serve_shannon_memo_hits_total",
            "Shannon-engine memo hits accumulated across evaluations.",
            c(&self.shannon_memo_hits),
        );
        counter(
            "serve_parallel_tasks_total",
            "Independent lineage components evaluated on forked worker threads.",
            c(&self.parallel_tasks),
        );
        counter(
            "serve_parallel_fallback_seq_total",
            "Parallel-eligible evaluations that stayed sequential.",
            c(&self.parallel_fallback_seq),
        );
        counter(
            "serve_replans_total",
            "Epsilon-refinements whose fresh plan picked a different strategy vector.",
            c(&self.replans),
        );
        if arena_stats {
            counter(
                "serve_shannon_expansions_total",
                "Shannon expansions accumulated across evaluations.",
                c(&self.shannon_expansions),
            );
            counter(
                "serve_arena_nodes_total",
                "Lineage-arena nodes interned across evaluations.",
                c(&self.arena_nodes),
            );
            counter(
                "serve_arena_intern_hits_total",
                "Lineage-arena interning-table hits across evaluations.",
                c(&self.arena_intern_hits),
            );
        }
        counter(
            "store_snapshot_writes_total",
            "Durable-store snapshots committed (manifest renamed into place).",
            c(&self.store_snapshot_writes),
        );
        counter(
            "store_snapshot_noops_total",
            "Periodic snapshots skipped because nothing changed; no file touched.",
            c(&self.store_snapshot_noops),
        );
        counter(
            "store_snapshot_bytes_written_total",
            "Segment bytes written by committed snapshots.",
            c(&self.store_snapshot_bytes_written),
        );
        counter(
            "store_snapshot_shards_written_total",
            "Shard files (re)written by committed snapshots.",
            c(&self.store_snapshot_shards_written),
        );
        counter(
            "store_snapshot_shards_skipped_total",
            "Shard files reused byte-for-byte from the previous snapshot.",
            c(&self.store_snapshot_shards_skipped),
        );
        counter(
            "store_mmap_maps_total",
            "Shard files opened as zero-copy memory maps during store opens.",
            c(&self.store_mmap_maps),
        );
        counter(
            "store_mmap_fallbacks_total",
            "Shard files read into owned buffers because mapping was unavailable.",
            c(&self.store_mmap_fallbacks),
        );
        counter(
            "store_recoveries_total",
            "Store opens that had to recover rather than load cleanly.",
            c(&self.store_recoveries),
        );
        counter(
            "store_checksum_failures_total",
            "Records rejected by a CRC32C or structural check during store opens.",
            c(&self.store_checksum_failures),
        );
        counter(
            "store_recovered_facts_dropped_total",
            "Facts dropped past the last recoverable prefix during store opens.",
            c(&self.store_recovered_facts_dropped),
        );
        counter(
            "serve_steals_total",
            "Component subtasks taken from another worker's deque by the work-stealing scheduler.",
            c(&self.steals),
        );
        writeln!(
            out,
            "# HELP serve_plan_choice_total Query components routed to each strategy by the plans that ran, planned or forced."
        )
        .ok();
        writeln!(out, "# TYPE serve_plan_choice_total counter").ok();
        for (i, name) in STRATEGY_LABELS.iter().enumerate() {
            writeln!(
                out,
                "serve_plan_choice_total{{strategy=\"{name}\"}} {}",
                c(&self.plan_choice[i])
            )
            .ok();
        }
        writeln!(
            out,
            "# HELP serve_queue_depth Jobs currently queued, waiting for a worker."
        )
        .ok();
        writeln!(out, "# TYPE serve_queue_depth gauge").ok();
        writeln!(out, "serve_queue_depth {}", c(&self.queue_depth)).ok();
        writeln!(
            out,
            "# HELP serve_injector_depth Subtasks parked in the work-stealing injector."
        )
        .ok();
        writeln!(out, "# TYPE serve_injector_depth gauge").ok();
        writeln!(out, "serve_injector_depth {}", c(&self.injector_depth)).ok();
        if let Some(per_worker) = self.worker_tasks.get() {
            writeln!(
                out,
                "# HELP serve_worker_tasks_total Subtasks executed per pool worker; serve_caller_tasks_total counts the rest."
            )
            .ok();
            writeln!(out, "# TYPE serve_worker_tasks_total counter").ok();
            for (i, tasks) in per_worker.iter().enumerate() {
                writeln!(
                    out,
                    "serve_worker_tasks_total{{worker=\"{i}\"}} {}",
                    c(tasks)
                )
                .ok();
            }
            writeln!(
                out,
                "# HELP serve_caller_tasks_total Subtasks executed by callers computing their own miss outside the pool."
            )
            .ok();
            writeln!(out, "# TYPE serve_caller_tasks_total counter").ok();
            writeln!(out, "serve_caller_tasks_total {}", c(&self.caller_tasks)).ok();
        }
        self.wait.prometheus_into(
            "serve_wait_micros",
            "Time from entering the queue to the start of evaluation, for queued requests only (hits, and misses run on a free slot, never queue), in microseconds.",
            &mut out,
        );
        self.run.prometheus_into(
            "serve_run_micros",
            "Evaluation time (admission + engine) excluding queue wait, in microseconds.",
            &mut out,
        );
        out
    }

    /// Folds one evaluation's [`EvalTrace`](infpdb_finite::engine::EvalTrace)
    /// into the registry.
    pub fn record_trace(&self, trace: &infpdb_finite::engine::EvalTrace) {
        if let Some(s) = trace.shannon {
            self.shannon_memo_hits
                .fetch_add(s.cache_hits as u64, Ordering::Relaxed);
            self.shannon_expansions
                .fetch_add(s.expansions as u64, Ordering::Relaxed);
        }
        if let Some(a) = trace.arena {
            self.arena_nodes
                .fetch_add(a.nodes as u64, Ordering::Relaxed);
            self.arena_intern_hits
                .fetch_add(a.intern_hits as u64, Ordering::Relaxed);
        }
        if let Some(p) = trace.parallel {
            self.parallel_tasks
                .fetch_add(p.tasks as u64, Ordering::Relaxed);
            self.parallel_fallback_seq
                .fetch_add(u64::from(p.fallback_seq), Ordering::Relaxed);
        }
    }

    /// Folds one freshly chosen plan into the registry: per-strategy
    /// component counts, plus a re-plan when the derivation's strategy
    /// vector differs from the previous one at this query.
    pub fn record_plan(&self, summary: &infpdb_finite::plan::PlanSummary, replanned: bool) {
        for (i, n) in [
            summary.lifted,
            summary.shannon,
            summary.monte_carlo,
            summary.karp_luby,
        ]
        .into_iter()
        .enumerate()
        {
            self.plan_choice[i].fetch_add(u64::from(n), Ordering::Relaxed);
        }
        if replanned {
            self.replans.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1_000_000)); // 1s, near overflow bucket
        assert_eq!(h.count(), 3);
        assert!(h.mean_micros() >= 333_000);
        let mut out = String::new();
        h.prometheus_into("h", "test", &mut out);
        assert!(out.contains("h_count 3"));
        // the cumulative +Inf bucket sees every observation
        assert!(out.contains("h_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn dump_contains_all_documented_names() {
        let m = Metrics::new();
        m.submitted.fetch_add(2, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        let text = m.prometheus(false);
        for name in [
            "serve_requests_submitted_total 2",
            "serve_requests_completed_total 0",
            "serve_cache_hits_total 1",
            "serve_cache_misses_total 0",
            "serve_plan_cache_hits_total 0",
            "serve_plan_cache_misses_total 0",
            "serve_plan_cache_evictions_total 0",
            "serve_degraded_answers_total 0",
            "serve_rejected_total 0",
            "serve_errors_total 0",
            "serve_worker_panics_total 0",
            "serve_shed_total 0",
            "serve_cancelled_total 0",
            "serve_deadline_exceeded_total 0",
            "serve_retries_total 0",
            "serve_breaker_fastfail_total 0",
            "serve_shannon_memo_hits_total 0",
            "serve_parallel_tasks_total 0",
            "serve_parallel_fallback_seq_total 0",
            "serve_plan_choice_total{strategy=\"lifted\"} 0",
            "serve_plan_choice_total{strategy=\"shannon\"} 0",
            "serve_plan_choice_total{strategy=\"mc\"} 0",
            "serve_plan_choice_total{strategy=\"kl\"} 0",
            "serve_replans_total 0",
            "store_snapshot_writes_total 0",
            "store_snapshot_noops_total 0",
            "store_snapshot_bytes_written_total 0",
            "store_snapshot_shards_written_total 0",
            "store_snapshot_shards_skipped_total 0",
            "store_mmap_maps_total 0",
            "store_mmap_fallbacks_total 0",
            "store_recoveries_total 0",
            "store_checksum_failures_total 0",
            "store_recovered_facts_dropped_total 0",
            "serve_queue_depth 0",
            "serve_steals_total 0",
            "serve_injector_depth 0",
            "serve_wait_micros_count 0",
            "serve_run_micros_count 0",
        ] {
            assert!(
                text.lines().any(|line| line == name),
                "missing {name:?} in:\n{text}"
            );
        }
        // per-worker counters only exist once a stealing pool sized them
        assert!(!text.contains("serve_worker_tasks_total"));
        assert!(!text.contains("serve_caller_tasks_total"));
        m.worker_tasks.get_or_init(|| {
            (0..2)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<AtomicU64>>()
        });
        m.worker_tasks.get().unwrap()[1].fetch_add(5, Ordering::Relaxed);
        let labelled = m.prometheus(false);
        assert!(labelled.contains("serve_worker_tasks_total{worker=\"0\"} 0"));
        assert!(labelled.contains("serve_worker_tasks_total{worker=\"1\"} 5"));
        assert!(labelled.contains("serve_caller_tasks_total 0"));
        // arena statistics only appear when asked for
        assert!(!text.contains("serve_arena_nodes_total"));
        let full = m.prometheus(true);
        for name in [
            "serve_shannon_expansions_total 0",
            "serve_arena_nodes_total 0",
            "serve_arena_intern_hits_total 0",
        ] {
            assert!(full.contains(name), "missing {name:?} in:\n{full}");
        }
    }

    /// Every sample belongs to a family declared by exactly one `# TYPE`
    /// line of the right kind, histograms carry numeric `le` labels and
    /// a plain `_sum`.
    #[test]
    fn prometheus_covers_every_registry_name() {
        let m = Metrics::new();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.wait.record(Duration::from_micros(5));
        m.steals.fetch_add(2, Ordering::Relaxed);
        m.worker_tasks.get_or_init(|| {
            (0..3)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<AtomicU64>>()
        });
        let prom = m.prometheus(true);
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split_whitespace().next().unwrap();
            let name = name.split('{').next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s).filter(|b| b.ends_with("_micros")))
                .unwrap_or(name);
            let kind = if family == "serve_queue_depth" || family == "serve_injector_depth" {
                "gauge"
            } else if family.ends_with("_micros") {
                "histogram"
            } else {
                "counter"
            };
            let type_line = format!("# TYPE {family} {kind}");
            assert_eq!(
                prom.lines().filter(|l| *l == type_line).count(),
                1,
                "want exactly one {type_line:?} in:\n{prom}"
            );
        }
        // numeric le labels, cumulative, +Inf-terminated
        assert!(prom.contains("serve_wait_micros_bucket{le=\"1\"}"));
        assert!(prom.contains("serve_wait_micros_bucket{le=\"524288\"}"));
        assert!(prom.contains("serve_wait_micros_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("serve_wait_micros_sum 5"));
        assert!(prom.contains("serve_wait_micros_count 1"));
        assert!(prom.contains("serve_requests_submitted_total 3"));
        assert!(prom.contains("serve_steals_total 2"));
        assert!(prom.contains("# TYPE serve_injector_depth gauge"));
        // the labelled per-worker family is TYPE-declared once, then
        // one sample per worker
        assert_eq!(prom.matches("# TYPE serve_worker_tasks_total").count(), 1);
        assert!(prom.contains("serve_worker_tasks_total{worker=\"2\"} 0"));
        assert!(prom.contains("serve_caller_tasks_total 0"));
        // no unit suffix in labels or sample names
        assert!(!prom.contains("us\"}"));
        assert!(!prom.contains("_sum_micros"));
    }

    /// Structural validity: lines are either comments or `name{labels} value`
    /// samples, every sample's family is TYPE-declared first, histogram
    /// buckets are monotone.
    #[test]
    fn prometheus_text_format_is_well_formed() {
        let m = Metrics::new();
        m.completed.fetch_add(7, Ordering::Relaxed);
        m.run.record(Duration::from_micros(123));
        m.run.record(Duration::from_millis(50));
        let prom = m.prometheus(false);
        let mut typed = std::collections::HashSet::new();
        let mut last_bucket: Option<(String, u64)> = None;
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                typed.insert(it.next().unwrap().to_string());
                assert!(matches!(it.next(), Some("counter" | "gauge" | "histogram")));
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample has value");
            value.parse::<f64>().expect("sample value is numeric");
            let family = name_part
                .split('{')
                .next()
                .unwrap()
                .trim_end_matches("_sum")
                .trim_end_matches("_count")
                .trim_end_matches("_bucket");
            assert!(
                typed.contains(family),
                "sample {name_part} before its TYPE line"
            );
            if name_part.contains("_bucket{") {
                let fam = family.to_string();
                let v: u64 = value.parse().unwrap();
                if let Some((prev_fam, prev_v)) = &last_bucket {
                    if *prev_fam == fam {
                        assert!(v >= *prev_v, "non-monotone buckets in {fam}");
                    }
                }
                last_bucket = Some((fam, v));
            }
        }
        assert!(typed.contains("serve_run_micros"));
    }

    #[test]
    fn record_trace_accumulates_engine_counters() {
        use infpdb_finite::arena::ArenaStats;
        use infpdb_finite::engine::EvalTrace;
        use infpdb_finite::shannon::{ParReport, Stats};
        let m = Metrics::new();
        let trace = EvalTrace {
            shannon: Some(Stats {
                expansions: 4,
                cache_hits: 7,
                decompositions: 2,
            }),
            arena: Some(ArenaStats {
                nodes: 31,
                intern_hits: 12,
            }),
            parallel: Some(ParReport {
                tasks: 3,
                fallback_seq: false,
            }),
            plan: None,
        };
        m.record_trace(&trace);
        m.record_trace(&trace);
        m.record_trace(&EvalTrace {
            parallel: Some(ParReport {
                tasks: 0,
                fallback_seq: true,
            }),
            ..EvalTrace::default()
        });
        let full = m.prometheus(true);
        assert!(full.contains("serve_shannon_memo_hits_total 14"));
        assert!(full.contains("serve_shannon_expansions_total 8"));
        assert!(full.contains("serve_arena_nodes_total 62"));
        assert!(full.contains("serve_arena_intern_hits_total 24"));
        assert!(full.contains("serve_parallel_tasks_total 6"));
        assert!(full.contains("serve_parallel_fallback_seq_total 1"));
        // a lifted-path trace (no intensional work) adds nothing
        m.record_trace(&EvalTrace::default());
        assert!(m.prometheus(true).contains("serve_arena_nodes_total 62"));
    }

    #[test]
    fn record_plan_accumulates_strategy_choices_and_replans() {
        use infpdb_finite::plan::PlanSummary;
        let m = Metrics::new();
        m.record_plan(
            &PlanSummary {
                lifted: 2,
                shannon: 1,
                monte_carlo: 0,
                karp_luby: 0,
                cost_bits: 0,
            },
            false,
        );
        m.record_plan(
            &PlanSummary {
                lifted: 0,
                shannon: 1,
                monte_carlo: 1,
                karp_luby: 2,
                cost_bits: 0,
            },
            true,
        );
        let prom = m.prometheus(false);
        assert!(prom.contains("serve_plan_choice_total{strategy=\"lifted\"} 2"));
        assert!(prom.contains("serve_plan_choice_total{strategy=\"shannon\"} 2"));
        assert!(prom.contains("serve_plan_choice_total{strategy=\"mc\"} 1"));
        assert!(prom.contains("serve_plan_choice_total{strategy=\"kl\"} 2"));
        assert!(prom.contains("serve_replans_total 1"));
        // the labelled family is scrapeable: declared once, all samples
        assert_eq!(prom.matches("# TYPE serve_plan_choice_total").count(), 1);
    }
}
