//! The query service: admission → cache → pool → engine.
//!
//! [`QueryService`] owns a [`ThreadPool`], a [`ShardedLruCache`] of
//! finished answers, and a [`Metrics`] registry, and evaluates
//! [`QueryRequest`]s against one countable t.i. PDB. Every request flows
//! through the same stages, split in two halves. The *probe* needs no
//! engine:
//!
//! 1. **Admission** ([`crate::admission`]) — plan `n(ε)` and apply the
//!    request's budget, possibly widening ε or rejecting;
//! 2. **Cache** — look up the (PDB, normalized query, *effective* ε,
//!    engine) fingerprint. Keying by the effective ε means a degraded
//!    answer is cached under the tolerance it actually satisfies and can
//!    never be returned for a stricter request.
//!
//! A miss goes on to the *compute* half:
//!
//! 3. **Breaker** ([`crate::breaker`]) — consult the service's circuit
//!    breaker; open means fail fast (cache hits keep serving while open);
//! 4. **Plan cache** — probe the [`PreparedQuery`] cache, keyed by the
//!    (PDB, normalized query) fingerprints and shared across tolerances;
//!    a miss compiles the query against the service's shared
//!    [`PreparedPdb`] and inserts it;
//! 5. **Engine** — [`PreparedQuery::execute`] runs the Proposition 6.1
//!    evaluation: repeat requests slice the already-materialized fact
//!    catalog instead of re-grounding, with a [`CancelToken`] threaded
//!    into any remaining truncation work; record throughput, insert the
//!    answer.
//!
//! [`QueryService::evaluate`] probes on the calling thread, so a cache
//! hit never waits for a worker. A miss without a deadline computes on
//! the calling thread too, whenever the pool has a free evaluation slot
//! (see [`ThreadPool::try_claim`]); the pool's `threads` bounds inline
//! and pooled evaluations together. Everything else — a miss with a
//! deadline, a miss while every slot is busy or a job is queued, a
//! transient probe failure — is queued. [`QueryService::submit`] and
//! [`QueryService::submit_batch`] run both halves on a worker: their
//! callers pipeline requests, and a probe at submission time would miss
//! on a duplicate whose first copy is still queued.
//!
//! Both halves run under panic containment, and one bounded-backoff
//! retry loop owns every retry, on whichever thread the request runs;
//! see the crate-level *Failure model*. Queued results come back through
//! a [`Ticket`]: deadline-aware, never blocking past the request's
//! deadline plus [`TICKET_GRACE`], and resolving to
//! [`ServeError::Shutdown`] if the service shuts down before the request
//! runs.

use crate::admission::{self, Admitted, CostBudget, DegradePolicy, ThroughputEstimate};
use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::cache::ShardedLruCache;
use crate::faults::FaultInjector;
use crate::fingerprint::{query_fingerprint, CacheKey};
use crate::metrics::Metrics;
use crate::pool::{OverflowPolicy, PoolConfig, SchedulerKind, StealingExecutor, ThreadPool};
use crate::ServeError;
use infpdb_core::fingerprint::Fingerprinter;
use infpdb_finite::engine::EvalTrace;
use infpdb_finite::shannon::TaskExecutor;
use infpdb_logic::ast::Formula;
use infpdb_query::approx::Approximation;
use infpdb_query::budget::BudgetReport;
use infpdb_query::cancel::{CancelKind, CancelToken};
use infpdb_query::planner::{Engine, PlanKnobs};
use infpdb_query::prepared::{Execution, PreparedPdb, PreparedQuery};
use infpdb_query::{QueryError, StoreStatus};
use infpdb_store::{SnapshotInfo, Store, StoreError};
use infpdb_ti::construction::CountableTiPdb;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Grace period added on top of a request's deadline before its
/// [`Ticket`] gives up waiting: covers scheduling jitter plus the
/// non-interruptible finite-engine stage. This is why a request with a
/// deadline always queues, even through [`QueryService::evaluate`]: only
/// a ticket can give up on its behalf. Also the bound the pool tests use
/// for "this must already have happened".
pub const TICKET_GRACE: Duration = Duration::from_secs(5);

/// Bounded-exponential-backoff retry for transient failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry). Only
    /// [transient](ServeError::is_transient) failures are retried.
    pub max_attempts: u32,
    /// Backoff before retry `k` (0-based) is `base · 2^k`, capped.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// The sleep before 0-based retry `attempt`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// Configuration for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool (at least 1), and the most
    /// evaluations that run at once: a miss that
    /// [`QueryService::evaluate`] computes on its caller's thread holds
    /// one of these slots, exactly as a pooled job does. Under
    /// [`SchedulerKind::Stealing`] idle workers help such callers with
    /// their subtasks, so up to twice this many threads run engine code.
    pub threads: usize,
    /// Total result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Total plan-cache capacity in compiled queries. The plan cache is
    /// distinct from the result cache: keyed only by the (PDB, normalized
    /// query) fingerprints, so every tolerance and repeat request of an
    /// α-equivalent query shares one compiled artifact.
    pub plan_cache_capacity: usize,
    /// How every evaluation picks its plan: the cost-based planner, or
    /// one forced strategy.
    pub engine: Engine,
    /// What to do with requests whose plan exceeds their budget.
    pub policy: DegradePolicy,
    /// Prior throughput estimate (facts/second) used to convert
    /// deadlines to `n` caps before any evaluation has been observed.
    pub prior_facts_per_sec: f64,
    /// Submission-queue capacity; `None` means
    /// [`crate::pool::DEFAULT_QUEUE_CAP_PER_THREAD`]` × threads`.
    pub queue_cap: Option<usize>,
    /// What happens when the submission queue is full.
    pub overflow: OverflowPolicy,
    /// Retry policy for transient evaluation failures.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Include per-engine arena statistics (interned nodes, interning
    /// hits, expansion totals) in [`QueryService::metrics_dump`].
    pub arena_stats: bool,
    /// Intra-query thread budget for a single lineage evaluation (at
    /// least 1). Independent of [`threads`](Self::threads), which sizes
    /// the pool of concurrent *requests*: parallelism splits one
    /// request's independent lineage components (and sampler chunk
    /// stripes) into tasks for the [`scheduler`](Self::scheduler).
    /// Estimates stay bit-for-bit identical at every value.
    pub parallelism: usize,
    /// How intra-request component subtasks are scheduled.
    /// [`SchedulerKind::Fixed`] forks scoped threads per request;
    /// [`SchedulerKind::Stealing`] runs them on the existing pool
    /// workers via per-worker deques and a shared injector. Answers are
    /// bit-for-bit identical either way.
    pub scheduler: SchedulerKind,
    /// Directory of the durable fact store. When set, the service
    /// recovers the persisted catalog prefix on startup (verified
    /// fact-by-fact against the live supply; see
    /// [`PreparedPdb::open`]) and [`QueryService::snapshot`] persists
    /// into it. `None` disables durability entirely.
    pub store_dir: Option<PathBuf>,
    /// Facts per shard file in the durable store; `None` uses
    /// [`infpdb_store::DEFAULT_SHARD_CAPACITY`]. Smaller shards make
    /// incremental snapshots cheaper (only tail shards rewrite) at the
    /// cost of more files; chaos tests shrink this to exercise
    /// multi-shard layouts with small catalogs. Ignored without
    /// [`store_dir`](Self::store_dir).
    pub store_shard_capacity: Option<u64>,
    /// Cost-model tuning for the planner. Part of the result-cache key:
    /// answers planned under different knobs never alias, and a plan is
    /// a deterministic function of (PDB, query, ε, engine, knobs) — never
    /// of runtime load.
    pub plan_knobs: PlanKnobs,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 4,
            cache_capacity: 1024,
            cache_shards: 8,
            plan_cache_capacity: 256,
            engine: Engine::Auto,
            policy: DegradePolicy::WidenEps,
            prior_facts_per_sec: 100_000.0,
            queue_cap: None,
            overflow: OverflowPolicy::Block,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            arena_stats: false,
            parallelism: 1,
            scheduler: SchedulerKind::Fixed,
            store_dir: None,
            store_shard_capacity: None,
            plan_knobs: PlanKnobs::default(),
        }
    }
}

/// One query to evaluate.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Boolean FO query over the service's schema.
    pub query: Formula,
    /// Requested additive tolerance, `0 < ε < 1/2`.
    pub eps: f64,
    /// Cost constraints (unlimited by default). A deadline budget is
    /// enforced twice: at admission (converted to an `n` cap) and at
    /// runtime (the truncation loop stops at the first checkpoint past
    /// the deadline).
    pub budget: CostBudget,
}

impl QueryRequest {
    /// An unconstrained request.
    pub fn new(query: Formula, eps: f64) -> Self {
        QueryRequest {
            query,
            eps,
            budget: CostBudget::unlimited(),
        }
    }

    /// Attaches a budget.
    pub fn with_budget(mut self, budget: CostBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// A finished evaluation with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResponse {
    /// The certified approximation (at the *effective* ε).
    pub approx: Approximation,
    /// The plan the evaluation ran under.
    pub report: BudgetReport,
    /// The tolerance the client asked for.
    pub requested_eps: f64,
    /// Whether ε was widened to fit the request's budget.
    pub degraded: bool,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Engine-side evaluation trace (Shannon memo/expansion counts,
    /// arena statistics, intra-query parallelism report). For cached
    /// answers this is the trace of the evaluation that populated the
    /// cache entry, not a fresh engine run.
    pub trace: EvalTrace,
}

impl QueryResponse {
    /// The guaranteed enclosure of the true probability.
    pub fn interval(&self) -> infpdb_math::ProbInterval {
        self.approx.interval()
    }

    /// The strategy of the plan the evaluation ran (`"lifted"`,
    /// `"shannon"`, `"mc"`, `"kl"`, or `"mixed"` for multi-component
    /// plans that disagree); `None` only when the trace carries no plan.
    /// For cached answers this is the strategy of the evaluation that
    /// populated the entry.
    pub fn strategy(&self) -> Option<&'static str> {
        self.trace.plan.map(|p| p.label())
    }
}

/// A handle to one in-flight request.
pub struct Ticket {
    rx: mpsc::Receiver<Result<QueryResponse, ServeError>>,
    cancel: CancelToken,
}

impl Ticket {
    /// Requests cooperative cancellation: the evaluation stops at its
    /// next checkpoint and the ticket resolves to
    /// [`ServeError::Cancelled`] (possibly carrying a partial answer).
    /// Idempotent; a no-op once the evaluation has finished.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The request's runtime deadline, if its budget had one.
    pub fn deadline(&self) -> Option<Instant> {
        self.cancel.deadline()
    }

    /// Blocks until the request finishes. Deadline-aware: a ticket with
    /// a deadline never waits past it by more than [`TICKET_GRACE`] —
    /// even if the job was lost — resolving to
    /// [`ServeError::DeadlineExceeded`] instead of blocking forever. If
    /// the service shut down before the request ran, returns
    /// [`ServeError::Shutdown`].
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        match self.cancel.deadline() {
            None => self.rx.recv().unwrap_or(Err(ServeError::Shutdown)),
            Some(at) => {
                let timeout = at.saturating_duration_since(Instant::now()) + TICKET_GRACE;
                match self.rx.recv_timeout(timeout) {
                    Ok(r) => r,
                    Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Shutdown),
                    Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded {
                        facts_processed: 0,
                        partial: None,
                    }),
                }
            }
        }
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<QueryResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Shutdown)),
        }
    }
}

struct Inner {
    prepared: PreparedPdb,
    engine: Engine,
    parallelism: usize,
    knobs: PlanKnobs,
    policy: DegradePolicy,
    draining: AtomicBool,
    cache: ShardedLruCache<(Approximation, BudgetReport, EvalTrace)>,
    /// The plan cache: one [`PreparedQuery`] per (PDB, normalized query)
    /// fingerprint, shared by every tolerance and α-equivalent alias.
    plans: ShardedLruCache<PreparedQuery>,
    metrics: Arc<Metrics>,
    throughput: ThroughputEstimate,
    /// The service runs one engine, so one breaker guards it.
    breaker: CircuitBreaker,
    retry: RetryPolicy,
    faults: Option<Arc<FaultInjector>>,
    arena_stats: bool,
    store: Option<Store>,
    store_status: Option<StoreStatus>,
}

impl Inner {
    /// A fault-injection checkpoint; a no-op without an injector.
    fn fault(&self, site: &str) -> Result<(), ServeError> {
        match &self.faults {
            Some(f) => f.fire(site),
            None => Ok(()),
        }
    }

    /// Counts a request's final outcome, then passes it through.
    fn tally(
        &self,
        result: Result<QueryResponse, ServeError>,
    ) -> Result<QueryResponse, ServeError> {
        let m = &self.metrics;
        match &result {
            Ok(_) => m.completed.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Rejected { .. }) => m.rejected.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Cancelled { .. }) => m.cancelled.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::DeadlineExceeded { .. }) => {
                m.deadline_exceeded.fetch_add(1, Ordering::Relaxed)
            }
            Err(_) => m.errors.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// The plan-cache entry for the normalized query `qfp`, prepared
    /// from `query` on a miss. Keyed by the (PDB, normalized query)
    /// fingerprints, so every tolerance and α-equivalent alias runs the
    /// first alias's compiled query and shares its planner and per-ε
    /// plan memo — the sharing the result cache already makes at equal
    /// ε. Aliases have equal probabilities; only rounding could tell
    /// their evaluations apart.
    fn prepared_query(&self, qfp: u64, query: &Formula) -> PreparedQuery {
        let key = {
            let mut fp = Fingerprinter::new();
            fp.write_u64(self.prepared.fingerprint()).write_u64(qfp);
            fp.finish()
        };
        let m = &self.metrics;
        if let Some(hit) = self.plans.get(key) {
            m.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        m.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        let prepared =
            PreparedQuery::prepare(self.prepared.clone(), query, self.engine, self.knobs)
                .with_parallelism(self.parallelism);
        self.plans.insert(key, prepared.clone());
        m.plan_cache_evictions
            .store(self.plans.evictions(), Ordering::Relaxed);
        prepared
    }
}

/// A concurrent query-evaluation service over one countable t.i. PDB.
pub struct QueryService {
    inner: Arc<Inner>,
    pool: ThreadPool,
}

impl QueryService {
    /// Builds the service: spawns the pool, fingerprints the PDB once.
    pub fn new(pdb: CountableTiPdb, config: ServiceConfig) -> Self {
        Self::build(pdb, config, None)
    }

    /// [`QueryService::new`] with a fault injector compiled into the
    /// request path (chaos testing). The injector fires at the sites
    /// `"admission"`, `"engine"`, and `"cache_insert"`.
    pub fn with_faults(
        pdb: CountableTiPdb,
        config: ServiceConfig,
        faults: Arc<FaultInjector>,
    ) -> Self {
        Self::build(pdb, config, Some(faults))
    }

    fn build(
        pdb: CountableTiPdb,
        config: ServiceConfig,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        let metrics = Arc::new(Metrics::new());
        let (prepared, store, store_status) = match &config.store_dir {
            None => (PreparedPdb::new(pdb), None, None),
            Some(dir) => {
                let mut store = Store::open_dir(dir);
                if let Some(cap) = config.store_shard_capacity {
                    store = store.with_shard_capacity(cap);
                }
                let (prepared, report) = PreparedPdb::open_identified(pdb, &store);
                if matches!(
                    report.status,
                    StoreStatus::Recovered { .. } | StoreStatus::Degraded { .. }
                ) {
                    metrics.store_recoveries.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(rec) = &report.recovery {
                    metrics
                        .store_checksum_failures
                        .fetch_add(rec.checksum_failures, Ordering::Relaxed);
                    metrics
                        .store_recovered_facts_dropped
                        .fetch_add(rec.facts_dropped, Ordering::Relaxed);
                    metrics
                        .store_mmap_maps
                        .fetch_add(rec.mmap_maps, Ordering::Relaxed);
                    metrics
                        .store_mmap_fallbacks
                        .fetch_add(rec.mmap_fallbacks, Ordering::Relaxed);
                }
                (prepared, Some(store), Some(report.status))
            }
        };
        let inner = Arc::new(Inner {
            prepared,
            engine: config.engine,
            parallelism: config.parallelism.max(1),
            knobs: config.plan_knobs,
            policy: config.policy,
            draining: AtomicBool::new(false),
            cache: ShardedLruCache::new(config.cache_capacity, config.cache_shards),
            plans: ShardedLruCache::new(config.plan_cache_capacity, config.cache_shards),
            metrics: Arc::clone(&metrics),
            throughput: ThroughputEstimate::new(config.prior_facts_per_sec),
            breaker: CircuitBreaker::new(config.breaker),
            retry: config.retry,
            faults,
            arena_stats: config.arena_stats,
            store,
            store_status,
        });
        let pool = ThreadPool::with_config(
            PoolConfig {
                threads: config.threads,
                queue_cap: config.queue_cap,
                overflow: config.overflow,
                scheduler: config.scheduler,
            },
            metrics,
        );
        QueryService { inner, pool }
    }

    /// Enqueues one request. If the bounded queue sheds it, the ticket
    /// resolves to [`ServeError::Overloaded`]; if the service is
    /// [draining](Self::begin_drain), it resolves immediately to
    /// [`ServeError::Shutdown`] without touching the queue.
    pub fn submit(&self, request: QueryRequest) -> Ticket {
        if self.inner.draining.load(Ordering::Acquire) {
            return Self::drained_ticket();
        }
        self.inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let (job, on_shed, ticket) = self.make_job(request, Instant::now(), None);
        self.pool.submit_with_shed(job, Some(on_shed));
        ticket
    }

    /// Enqueues a whole batch; tickets come back in input order. Each
    /// job is subject to the overflow policy independently. While
    /// [draining](Self::begin_drain), every ticket resolves immediately
    /// to [`ServeError::Shutdown`].
    pub fn submit_batch(&self, requests: Vec<QueryRequest>) -> Vec<Ticket> {
        if self.inner.draining.load(Ordering::Acquire) {
            return requests.iter().map(|_| Self::drained_ticket()).collect();
        }
        self.inner
            .metrics
            .submitted
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let mut jobs = Vec::with_capacity(requests.len());
        let mut tickets = Vec::with_capacity(requests.len());
        for request in requests {
            let (job, on_shed, ticket) = self.make_job(request, Instant::now(), None);
            jobs.push((job, Some(on_shed)));
            tickets.push(ticket);
        }
        self.pool.submit_batch_with_shed(jobs);
        tickets
    }

    /// Evaluates one request and waits for its answer. The probe
    /// (admission, query fingerprint, result-cache lookup) runs on the
    /// calling thread, so a cache hit or a deterministic refusal returns
    /// without touching the pool: a hit is never blocked or shed by a
    /// full queue. A miss without a deadline computes on the calling
    /// thread as well when the pool lends it a free evaluation slot, with
    /// the same retry loop, cancel token and executor a pooled job would
    /// use. Any other miss, and a transient probe failure, is queued,
    /// carrying what the probe found, and the pool's retry loop takes it
    /// from there. The deadline clock starts here, before the probe.
    /// While [draining](Self::begin_drain), returns
    /// [`ServeError::Shutdown`].
    pub fn evaluate(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let submitted = Instant::now();
        let first = match contained(inner, || probe(inner, &request)) {
            Ok(Probe::Hit(resp)) => return inner.tally(Ok(resp)),
            Ok(Probe::Miss(miss)) => Ok(miss),
            Err(e) if e.is_transient() => Err(e),
            Err(e) => return inner.tally(Err(e)),
        };
        // a deadline needs the ticket's timed wait, so only a request
        // without one may run here, and only on a slot the pool lends
        if first.is_ok() && request.budget.deadline.is_none() {
            if let Some(_slot) = self.pool.try_claim() {
                let cancel = CancelToken::new();
                let executor = self
                    .pool
                    .steal_handle()
                    .map(|h| StealingExecutor::new(h, cancel.clone()));
                let result =
                    run_resilient(inner, &request, &cancel, executor.as_ref(), Some(first));
                return inner.tally(result);
            }
        }
        let (job, on_shed, ticket) = self.make_job(request, submitted, Some(first));
        self.pool.submit_with_shed(job, Some(on_shed));
        ticket.wait()
    }

    /// A pre-resolved ticket for requests refused during a drain.
    fn drained_ticket() -> Ticket {
        let (tx, rx) = mpsc::channel();
        tx.send(Err(ServeError::Shutdown)).ok();
        Ticket {
            rx,
            cancel: CancelToken::new(),
        }
    }

    /// One request's job, shed handler and ticket. The deadline counts
    /// from `submitted`, the queue wait from now; `first` is the outcome
    /// of a probe the caller already made on its own thread.
    #[allow(clippy::type_complexity)]
    fn make_job(
        &self,
        request: QueryRequest,
        submitted: Instant,
        first: Option<Result<Miss, ServeError>>,
    ) -> (
        Box<dyn FnOnce() + Send + 'static>,
        Box<dyn FnOnce() + Send + 'static>,
        Ticket,
    ) {
        let inner = Arc::clone(&self.inner);
        let cancel = match request.budget.deadline {
            Some(d) => CancelToken::with_deadline_at(submitted + d),
            None => CancelToken::new(),
        };
        let token = cancel.clone();
        let (tx, rx) = mpsc::channel();
        let shed_tx = tx.clone();
        let queue_cap = self.pool.queue_cap();
        let steal = self.pool.steal_handle();
        let queued = Instant::now();
        let job = Box::new(move || {
            inner.metrics.wait.record(queued.elapsed());
            // under the stealing scheduler, component subtasks run on the
            // pool's own workers (carrying this ticket's cancel token)
            // instead of freshly forked scoped threads
            let executor = steal.map(|h| StealingExecutor::new(h, token.clone()));
            let result = run_resilient(&inner, &request, &token, executor.as_ref(), first);
            // a dropped ticket is fine — fire-and-forget submission
            tx.send(inner.tally(result)).ok();
        });
        let on_shed = Box::new(move || {
            shed_tx.send(Err(ServeError::Overloaded { queue_cap })).ok();
        });
        (job, on_shed, Ticket { rx, cancel })
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The metrics snapshot in Prometheus text format
    /// ([`Metrics::prometheus`]), honoring the
    /// [`arena_stats`](ServiceConfig::arena_stats) configuration.
    pub fn metrics_dump(&self) -> String {
        self.inner.metrics.prometheus(self.inner.arena_stats)
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Compiled queries currently in the plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.inner.plans.len()
    }

    /// Facts materialized into the shared prepared catalog so far.
    pub fn materialized_len(&self) -> usize {
        self.inner.prepared.materialized_len()
    }

    /// The PDB this service evaluates against — network front ends and
    /// REPLs parse incoming query text against its schema.
    pub fn pdb(&self) -> &CountableTiPdb {
        self.inner.prepared.pdb()
    }

    /// Eagerly grounds the `n(eps_max)` prefix of the PDB so that the
    /// first request at any `ε ≥ eps_max` pays no grounding cost; see
    /// [`PreparedPdb::warm`]. Returns the materialized length.
    pub fn warm(&self, eps_max: f64) -> Result<usize, ServeError> {
        self.inner.prepared.warm(eps_max).map_err(ServeError::Query)
    }

    /// The verdict of startup recovery against the configured store;
    /// `None` when the service runs without one
    /// ([`ServiceConfig::store_dir`] unset).
    pub fn store_status(&self) -> Option<StoreStatus> {
        self.inner.store_status.clone()
    }

    /// Writes the current grounded prefix to the configured store via
    /// the crash-safe snapshot protocol (epoch-named shards, then an
    /// atomic manifest rename). Returns `Ok(None)` when no store is
    /// configured. A snapshot that finds nothing changed since the last
    /// commit touches no file and bumps `store_snapshot_noops_total`;
    /// a committed one bumps `store_snapshot_writes_total` plus the
    /// bytes/shards-written/shards-skipped accumulators.
    pub fn snapshot(&self) -> Result<Option<SnapshotInfo>, StoreError> {
        let Some(store) = &self.inner.store else {
            return Ok(None);
        };
        let prepared = &self.inner.prepared;
        let info = prepared.persist(store, Some(prepared.fingerprint()), None)?;
        let m = &self.inner.metrics;
        if info.unchanged {
            m.store_snapshot_noops.fetch_add(1, Ordering::Relaxed);
        } else {
            m.store_snapshot_writes.fetch_add(1, Ordering::Relaxed);
            m.store_snapshot_bytes_written
                .fetch_add(info.bytes, Ordering::Relaxed);
            m.store_snapshot_shards_written
                .fetch_add(info.shards_written as u64, Ordering::Relaxed);
            m.store_snapshot_shards_skipped
                .fetch_add(info.shards_skipped as u64, Ordering::Relaxed);
        }
        Ok(Some(info))
    }

    /// Jobs queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Submission-queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.pool.queue_cap()
    }

    /// Immediate shutdown: new requests are refused as in a
    /// [drain](Self::begin_drain), queued requests are dropped (their
    /// tickets resolve to [`ServeError::Shutdown`]); in-flight
    /// evaluations finish.
    pub fn shutdown_now(&mut self) {
        self.begin_drain();
        self.pool.shutdown_now();
    }

    /// Graceful shutdown: drains the queue, then joins the workers.
    pub fn join(self) {
        self.pool.join();
    }

    /// Enters drain mode: new submissions resolve immediately to
    /// [`ServeError::Shutdown`], while already-accepted requests —
    /// queued or running — finish normally, including surfacing their
    /// partial certificates on cancellation or deadline expiry. This is
    /// the first half of a graceful shutdown; follow with
    /// [`drain`](Self::drain) (or [`join`](Self::join)) once no more
    /// tickets will be created. Idempotent.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Whether [`begin_drain`](Self::begin_drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Graceful drain-and-stop: stops admissions, lets every queued and
    /// in-flight request finish, then joins the workers. This is what
    /// `infpdb serve` runs on SIGTERM.
    pub fn drain(self) {
        self.begin_drain();
        self.pool.join();
    }
}

/// Runs `f` under panic containment: a panic becomes
/// [`ServeError::EnginePanic`] and is counted in `panics`, on a worker or
/// on a caller's thread alike.
fn contained<T>(inner: &Inner, f: impl FnOnce() -> Result<T, ServeError>) -> Result<T, ServeError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        inner.metrics.panics.fetch_add(1, Ordering::Relaxed);
        Err(ServeError::EnginePanic {
            payload: panic_payload(payload),
        })
    })
}

/// The retry loop around [`probe`] and [`compute`]: contains panics,
/// retries transient failures with bounded exponential backoff, and
/// keeps the service's breaker informed. `first` is the first attempt's
/// probe when the caller already made it: a miss goes straight to
/// [`compute`], a transient failure counts as the failed first attempt.
fn run_resilient(
    inner: &Inner,
    request: &QueryRequest,
    cancel: &CancelToken,
    exec: Option<&StealingExecutor>,
    mut first: Option<Result<Miss, ServeError>>,
) -> Result<QueryResponse, ServeError> {
    let max_attempts = inner.retry.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        let result = match first.take() {
            Some(Ok(miss)) => contained(inner, || compute(inner, request, miss, cancel, exec)),
            Some(Err(e)) => Err(e),
            None => contained(inner, || match probe(inner, request)? {
                Probe::Hit(resp) => Ok(resp),
                Probe::Miss(miss) => compute(inner, request, miss, cancel, exec),
            }),
        };
        match &result {
            Ok(resp) => {
                // cache hits say nothing about the engine's health
                if !resp.cached {
                    inner.breaker.record_success();
                }
                return result;
            }
            Err(e) if e.is_transient() => {
                inner.breaker.record_failure();
                attempt += 1;
                if attempt >= max_attempts {
                    return result;
                }
                inner.metrics.retries.fetch_add(1, Ordering::Relaxed);
                let backoff = inner.retry.backoff(attempt - 1);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            // deterministic failures teach the breaker nothing about the
            // engine (a rejected budget or a bad ε would fail anywhere)
            Err(_) => return result,
        }
    }
}

/// Maps engine-side failures onto the service's error vocabulary,
/// preserving partial certificates on cancellation and deadline expiry.
fn serve_error(e: QueryError) -> ServeError {
    match e {
        QueryError::Cancelled(info) => match info.kind {
            CancelKind::Explicit => ServeError::Cancelled {
                facts_processed: info.facts_processed,
                partial: info.partial,
            },
            CancelKind::Deadline => ServeError::DeadlineExceeded {
                facts_processed: info.facts_processed,
                partial: info.partial,
            },
        },
        other => ServeError::Query(other),
    }
}

fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// An admitted request that missed the result cache: what [`compute`]
/// needs to evaluate it without admitting or hashing it again.
struct Miss {
    admitted: Admitted,
    /// The normalized-query fingerprint, also the plan-cache key's.
    qfp: u64,
    /// The result-cache key at the admitted ε.
    key: u64,
}

/// What [`probe`] found for one request.
enum Probe {
    Hit(QueryResponse),
    Miss(Miss),
}

/// The half of a request that needs no engine: the `admission` fault
/// site, admission, the query fingerprint and the result-cache lookup.
fn probe(inner: &Inner, request: &QueryRequest) -> Result<Probe, ServeError> {
    inner.fault("admission")?;
    let pdb = inner.prepared.pdb();
    let cap = request.budget.effective_max_n(inner.throughput.get());
    let admitted = admission::admit(pdb, request.eps, cap, inner.policy)?;
    if admitted.degraded {
        inner.metrics.degraded.fetch_add(1, Ordering::Relaxed);
    }
    // the normalized-query fingerprint is computed once and reused by
    // both the result-cache key and the ε-independent plan-cache key
    let qfp = query_fingerprint(pdb.schema(), &request.query);
    // keyed by the EFFECTIVE ε: a degraded answer is cached under the
    // tolerance it actually certifies
    let key = CacheKey {
        pdb: inner.prepared.fingerprint(),
        query: qfp,
        eps_bits: admitted.eps.to_bits(),
        engine: inner.engine.tag(),
        knobs: inner.knobs.fingerprint(),
    }
    .digest();
    if let Some((approx, report, trace)) = inner.cache.get(key) {
        inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Probe::Hit(QueryResponse {
            approx,
            report,
            requested_eps: request.eps,
            degraded: admitted.degraded,
            cached: true,
            trace,
        }));
    }
    inner.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    Ok(Probe::Miss(Miss { admitted, qfp, key }))
}

/// The half of a request that runs the engine on a cache miss: the
/// breaker gate, the `engine` fault site, the plan cache, the
/// evaluation and the cache insert.
fn compute(
    inner: &Inner,
    request: &QueryRequest,
    miss: Miss,
    cancel: &CancelToken,
    exec: Option<&StealingExecutor>,
) -> Result<QueryResponse, ServeError> {
    let Miss { admitted, qfp, key } = miss;
    // breaker gate at the cache-miss point: open ⇒ fail fast, but cache
    // hits keep serving
    match inner.breaker.admit() {
        Admission::Proceed => {}
        Admission::FastFail(consecutive_failures) => {
            inner
                .metrics
                .breaker_fastfail
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::CircuitOpen {
                consecutive_failures,
            });
        }
    }
    inner.fault("engine")?;
    let query = inner.prepared_query(qfp, &request.query);
    let start = Instant::now();
    let Execution {
        approx,
        trace,
        plan,
        event,
    } = query
        .execute(admitted.eps, cancel, exec.map(|e| e as &dyn TaskExecutor))
        .map_err(serve_error)?;
    inner.metrics.record_plan(&plan.summary(), event.replanned);
    let elapsed = start.elapsed();
    inner.metrics.run.record(elapsed);
    inner.metrics.record_trace(&trace);
    inner.throughput.observe(approx.n, elapsed);
    inner.fault("cache_insert")?;
    // partial results never reach this point (they surface as errors
    // above), so the cache only ever holds fully certified answers
    inner.cache.insert(key, (approx, admitted.report, trace));
    Ok(QueryResponse {
        approx,
        report: admitted.report,
        requested_eps: request.eps,
        degraded: admitted.degraded,
        cached: false,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, Trigger};
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_logic::parse;
    use infpdb_math::series::{GeometricSeries, ZetaSeries};
    use infpdb_query::approx::approx_prob_boolean;
    use infpdb_query::StrategyKind;
    use infpdb_ti::enumerator::FactSupply;
    use std::time::Duration;

    fn pdb() -> CountableTiPdb {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        CountableTiPdb::new(FactSupply::unary_over_naturals(
            schema,
            RelId(0),
            GeometricSeries::new(0.5, 0.5).unwrap(),
        ))
        .unwrap()
    }

    fn zeta_pdb() -> CountableTiPdb {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        CountableTiPdb::new(FactSupply::unary_over_naturals(
            schema,
            RelId(0),
            ZetaSeries::basel(),
        ))
        .unwrap()
    }

    fn service(threads: usize) -> QueryService {
        QueryService::new(
            pdb(),
            ServiceConfig {
                threads,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn agrees_with_sequential_evaluation_bit_for_bit() {
        let svc = service(2);
        let p = pdb();
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let expected = approx_prob_boolean(&p, &q, 0.01, Engine::Auto).unwrap();
        let got = svc.evaluate(QueryRequest::new(q, 0.01)).unwrap();
        assert_eq!(got.approx.estimate.to_bits(), expected.estimate.to_bits());
        assert_eq!(got.approx.n, expected.n);
        assert!(!got.cached);
        assert!(!got.degraded);
        assert_eq!(got.requested_eps, 0.01);
    }

    #[test]
    fn second_identical_request_is_a_cache_hit() {
        let svc = service(1);
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let first = svc.evaluate(QueryRequest::new(q.clone(), 0.05)).unwrap();
        // α-equivalent spelling through a double negation still hits
        let q2 = parse("!(!R(1))", p.schema()).unwrap();
        let second = svc.evaluate(QueryRequest::new(q2, 0.05)).unwrap();
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.approx, second.approx);
        assert_eq!(svc.metrics().cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(svc.metrics().cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(svc.cache_len(), 1);
    }

    #[test]
    fn lineage_evaluations_export_shannon_and_arena_metrics() {
        let svc = QueryService::new(
            pdb(),
            ServiceConfig {
                threads: 1,
                engine: Engine::Force(StrategyKind::Shannon),
                arena_stats: true,
                ..ServiceConfig::default()
            },
        );
        let p = pdb();
        // a pair query: symmetric lineage with real interning and memo use
        let q = parse("exists x, y. R(x) /\\ R(y) /\\ x != y", p.schema()).unwrap();
        svc.evaluate(QueryRequest::new(q, 0.05)).unwrap();
        assert!(svc.metrics().arena_nodes.load(Ordering::Relaxed) > 2);
        assert!(svc.metrics().arena_intern_hits.load(Ordering::Relaxed) > 0);
        let dump = svc.metrics_dump();
        assert!(dump.contains("serve_shannon_memo_hits_total"));
        assert!(dump.contains("serve_arena_nodes_total"));
        // a cache hit does not re-run the engine: counters unchanged
        let before = svc.metrics().arena_nodes.load(Ordering::Relaxed);
        let q2 = parse("exists x, y. R(x) /\\ R(y) /\\ x != y", p.schema()).unwrap();
        let resp = svc.evaluate(QueryRequest::new(q2, 0.05)).unwrap();
        assert!(resp.cached);
        assert_eq!(svc.metrics().arena_nodes.load(Ordering::Relaxed), before);
        // default config keeps the dump arena-free
        let plain = service(1);
        assert!(!plain.metrics_dump().contains("serve_arena_nodes_total"));
    }

    /// Two relations with slowly decaying, interleaved probabilities:
    /// a conjunction of per-relation pair queries splits into two
    /// var-disjoint lineage components big enough to fork.
    fn blocks_pdb() -> CountableTiPdb {
        use infpdb_core::fact::Fact;
        use infpdb_core::value::Value;
        let schema =
            Schema::from_relations([Relation::new("A", 1), Relation::new("B", 1)]).unwrap();
        let a = schema.rel_id("A").unwrap();
        let b = schema.rel_id("B").unwrap();
        let mut facts = Vec::new();
        let mut p = 0.45f64;
        for i in 0..16i64 {
            facts.push((Fact::new(a, [Value::int(i)]), p));
            facts.push((Fact::new(b, [Value::int(i)]), p));
            p *= 0.75;
        }
        CountableTiPdb::new(FactSupply::from_vec(schema, facts).unwrap()).unwrap()
    }

    #[test]
    fn parallel_evaluation_is_bit_for_bit_sequential_and_counted() {
        let p = blocks_pdb();
        let qs = "(exists x, y. A(x) /\\ A(y) /\\ x != y) \
                  /\\ (exists x, y. B(x) /\\ B(y) /\\ x != y)";
        let q = parse(qs, p.schema()).unwrap();
        let seq = QueryService::new(
            p.clone(),
            ServiceConfig {
                threads: 1,
                engine: Engine::Force(StrategyKind::Shannon),
                ..ServiceConfig::default()
            },
        );
        let par = QueryService::new(
            p.clone(),
            ServiceConfig {
                threads: 1,
                engine: Engine::Force(StrategyKind::Shannon),
                parallelism: 4,
                ..ServiceConfig::default()
            },
        );
        let a = seq.evaluate(QueryRequest::new(q.clone(), 0.01)).unwrap();
        let b = par.evaluate(QueryRequest::new(q.clone(), 0.01)).unwrap();
        assert_eq!(a.approx.estimate.to_bits(), b.approx.estimate.to_bits());
        assert_eq!(a.approx, b.approx);
        // the parallel service actually forked: two independent components
        assert_eq!(par.metrics().parallel_tasks.load(Ordering::Relaxed), 2);
        assert_eq!(
            par.metrics().parallel_fallback_seq.load(Ordering::Relaxed),
            0
        );
        // the sequential service never reports parallel work
        assert_eq!(seq.metrics().parallel_tasks.load(Ordering::Relaxed), 0);
        let dump = par.metrics_dump();
        assert!(dump.contains("serve_parallel_tasks_total 2"));
        assert!(dump.contains("serve_parallel_fallback_seq_total 0"));
        // a connected query (single component) falls back to sequential
        let pair = parse("exists x, y. A(x) /\\ A(y) /\\ x != y", p.schema()).unwrap();
        par.evaluate(QueryRequest::new(pair, 0.01)).unwrap();
        assert_eq!(
            par.metrics().parallel_fallback_seq.load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn stealing_scheduler_matches_fixed_bit_for_bit_and_exports_counters() {
        let p = blocks_pdb();
        let qs = "(exists x, y. A(x) /\\ A(y) /\\ x != y) \
                  /\\ (exists x, y. B(x) /\\ B(y) /\\ x != y)";
        let q = parse(qs, p.schema()).unwrap();
        let fixed = QueryService::new(
            p.clone(),
            ServiceConfig {
                threads: 1,
                engine: Engine::Force(StrategyKind::Shannon),
                parallelism: 4,
                ..ServiceConfig::default()
            },
        );
        let stealing = QueryService::new(
            p.clone(),
            ServiceConfig {
                threads: 2,
                engine: Engine::Force(StrategyKind::Shannon),
                parallelism: 4,
                scheduler: SchedulerKind::Stealing,
                ..ServiceConfig::default()
            },
        );
        let m = stealing.metrics();
        let worker_tasks = || -> u64 {
            m.worker_tasks
                .get()
                .expect("stealing pool sizes per-worker counters")
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum()
        };
        // pooled: the owner is a pool worker
        let a = fixed.evaluate(QueryRequest::new(q.clone(), 0.01)).unwrap();
        let b = stealing
            .submit(QueryRequest::new(q.clone(), 0.01))
            .wait()
            .unwrap();
        assert_eq!(a.approx.estimate.to_bits(), b.approx.estimate.to_bits());
        assert_eq!(a.approx, b.approx);
        assert_eq!(a.trace, b.trace);
        // the component split still happened — as pool subtasks, not
        // freshly forked scoped threads
        assert_eq!(m.parallel_tasks.load(Ordering::Relaxed), 2);
        assert_eq!(
            worker_tasks(),
            2,
            "both component subtasks ran on pool workers"
        );
        assert_eq!(m.caller_tasks.load(Ordering::Relaxed), 0);
        // inline: the owner is this thread, on a slot it claimed; it and
        // the workers share the subtasks, and every one is counted once
        let a = fixed.evaluate(QueryRequest::new(q.clone(), 0.02)).unwrap();
        let b = stealing.evaluate(QueryRequest::new(q, 0.02)).unwrap();
        assert_eq!(a.approx.estimate.to_bits(), b.approx.estimate.to_bits());
        assert_eq!(a.trace, b.trace);
        assert_eq!(m.wait.count(), 1, "only the submitted request queued");
        assert_eq!(m.parallel_tasks.load(Ordering::Relaxed), 4);
        assert_eq!(worker_tasks() + m.caller_tasks.load(Ordering::Relaxed), 4);
        let dump = stealing.metrics_dump();
        assert!(dump.contains("serve_steals_total"));
        assert!(dump.contains("serve_injector_depth 0"));
        assert!(dump.contains("serve_worker_tasks_total{worker=\"0\"}"));
        assert!(dump.contains("serve_caller_tasks_total"));
        // a fixed-scheduler service never initializes the stealing tier
        assert!(fixed.metrics().worker_tasks.get().is_none());
    }

    #[test]
    fn alpha_equivalent_queries_share_a_plan_cache_entry() {
        let svc = service(1);
        let p = pdb();
        let q1 = parse("exists x. R(x)", p.schema()).unwrap();
        svc.evaluate(QueryRequest::new(q1, 0.05)).unwrap();
        assert_eq!(svc.plan_cache_len(), 1);
        // an α-equivalent spelling at a DIFFERENT ε misses the result
        // cache (keys include ε) but hits the shared plan entry
        let q2 = parse("exists y. R(y)", p.schema()).unwrap();
        let resp = svc.evaluate(QueryRequest::new(q2, 0.01)).unwrap();
        assert!(!resp.cached);
        assert_eq!(svc.plan_cache_len(), 1);
        assert_eq!(svc.metrics().plan_cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(svc.metrics().plan_cache_hits.load(Ordering::Relaxed), 1);
        // a genuinely different query compiles its own plan
        let q3 = parse("forall x. R(x)", p.schema()).unwrap();
        svc.evaluate(QueryRequest::new(q3, 0.05)).unwrap();
        assert_eq!(svc.plan_cache_len(), 2);
        assert_eq!(svc.metrics().plan_cache_misses.load(Ordering::Relaxed), 2);
        let dump = svc.metrics_dump();
        assert!(dump.contains("serve_plan_cache_hits_total 1"));
        assert!(dump.contains("serve_plan_cache_misses_total 2"));
        assert!(dump.contains("serve_plan_cache_evictions_total 0"));
    }

    #[test]
    fn repeat_requests_reuse_the_prepared_catalog() {
        let svc = service(1);
        let p = pdb();
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        svc.evaluate(QueryRequest::new(q.clone(), 0.05)).unwrap();
        let grounded = svc.materialized_len();
        assert!(grounded > 0);
        // a tighter ε only EXTENDS the shared catalog; a repeat at the
        // loose ε re-slices it without touching the enumeration again
        svc.evaluate(QueryRequest::new(q.clone(), 0.01)).unwrap();
        let extended = svc.materialized_len();
        assert!(extended > grounded);
        let q2 = parse("exists y. R(y)", p.schema()).unwrap();
        svc.evaluate(QueryRequest::new(q2, 0.02)).unwrap();
        assert_eq!(svc.materialized_len(), extended);
    }

    #[test]
    fn warm_grounds_before_the_first_request() {
        let svc = service(1);
        let n = svc.warm(0.01).unwrap();
        assert!(n > 0);
        assert_eq!(svc.materialized_len(), n);
        let p = pdb();
        // answers still agree bit-for-bit with the cold sequential path
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let expected = approx_prob_boolean(&p, &q, 0.05, Engine::Auto).unwrap();
        let got = svc.evaluate(QueryRequest::new(q, 0.05)).unwrap();
        assert_eq!(got.approx.estimate.to_bits(), expected.estimate.to_bits());
        assert_eq!(svc.materialized_len(), n, "warm prefix already covers ε");
    }

    #[test]
    fn different_eps_do_not_share_cache_entries() {
        let svc = service(1);
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        svc.evaluate(QueryRequest::new(q.clone(), 0.05)).unwrap();
        let other = svc.evaluate(QueryRequest::new(q, 0.01)).unwrap();
        assert!(!other.cached);
        assert_eq!(svc.cache_len(), 2);
    }

    #[test]
    fn degraded_request_reports_widened_eps_and_still_certifies() {
        let svc = service(1);
        let p = pdb();
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let resp = svc
            .evaluate(QueryRequest::new(q, 0.001).with_budget(CostBudget::max_n(5)))
            .unwrap();
        assert!(resp.degraded);
        assert_eq!(resp.requested_eps, 0.001);
        assert!(resp.approx.eps > 0.001);
        assert!(resp.approx.n <= 5);
        // the widened interval still encloses the truth (~0.7112)
        assert!(resp.interval().contains(0.7112));
        assert_eq!(svc.metrics().degraded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reject_policy_surfaces_structured_error() {
        let svc = QueryService::new(
            pdb(),
            ServiceConfig {
                threads: 1,
                policy: DegradePolicy::Reject,
                ..ServiceConfig::default()
            },
        );
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        match svc.evaluate(QueryRequest::new(q, 0.001).with_budget(CostBudget::max_n(1))) {
            Err(ServeError::Rejected {
                requested_eps,
                max_n,
                needed_n,
            }) => {
                assert_eq!(requested_eps, 0.001);
                assert_eq!(max_n, 1);
                assert!(needed_n > 1);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(svc.metrics().rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn invalid_eps_is_a_query_error_not_a_panic() {
        let svc = service(1);
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        match svc.evaluate(QueryRequest::new(q, 0.5)) {
            Err(ServeError::Query(_)) => {}
            other => panic!("expected query error, got {other:?}"),
        }
        assert_eq!(svc.metrics().errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_preserves_input_order() {
        let svc = service(2);
        let p = pdb();
        let queries = ["R(1)", "R(2)", "R(1) /\\ R(2)", "exists x. R(x)"];
        let reqs = queries
            .iter()
            .map(|s| QueryRequest::new(parse(s, p.schema()).unwrap(), 0.05))
            .collect();
        let tickets = svc.submit_batch(reqs);
        let answers: Vec<f64> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().approx.estimate)
            .collect();
        for (s, got) in queries.iter().zip(&answers) {
            let expected =
                approx_prob_boolean(&p, &parse(s, p.schema()).unwrap(), 0.05, Engine::Auto)
                    .unwrap();
            assert_eq!(got.to_bits(), expected.estimate.to_bits(), "query {s}");
        }
        assert_eq!(svc.metrics().submitted.load(Ordering::Relaxed), 4);
        assert_eq!(svc.metrics().completed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn deadline_budget_flows_through_the_throughput_estimate() {
        let svc = QueryService::new(
            pdb(),
            ServiceConfig {
                threads: 1,
                // absurdly slow prior: 1 fact/sec ⇒ a 3 s deadline caps n at 3
                prior_facts_per_sec: 1.0,
                ..ServiceConfig::default()
            },
        );
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let resp = svc
            .evaluate(
                QueryRequest::new(q, 0.001)
                    .with_budget(CostBudget::deadline(Duration::from_secs(3))),
            )
            .unwrap();
        assert!(resp.degraded);
        assert!(resp.approx.n <= 3);
    }

    #[test]
    fn shutdown_resolves_pending_tickets_with_shutdown_error() {
        let mut svc = service(1);
        let p = pdb();
        // occupy the single worker so the rest of the batch stays queued
        let mut tickets = Vec::new();
        for _ in 0..30 {
            let q = parse("exists x. R(x)", p.schema()).unwrap();
            tickets.push(svc.submit(QueryRequest::new(q, 0.000_001)));
        }
        svc.shutdown_now();
        let mut done = 0;
        let mut shut = 0;
        for t in tickets {
            match t.wait() {
                Ok(_) => done += 1,
                Err(ServeError::Shutdown) => shut += 1,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert_eq!(done + shut, 30);
        // submission after shutdown resolves immediately as Shutdown
        let q = parse("R(1)", p.schema()).unwrap();
        match svc.submit(QueryRequest::new(q, 0.1)).wait() {
            Err(ServeError::Shutdown) => {}
            other => panic!("expected shutdown, got {other:?}"),
        }
        // so does an evaluation, even of a key that may be cached
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        assert!(matches!(
            svc.evaluate(QueryRequest::new(q, 0.000_001)),
            Err(ServeError::Shutdown)
        ));
    }

    #[test]
    fn drain_finishes_in_flight_work_but_refuses_new_submissions() {
        let svc = service(1);
        let p = pdb();
        // fill the single worker plus the queue with real work
        let mut accepted = Vec::new();
        for i in 0..12 {
            let q = parse("exists x. R(x)", p.schema()).unwrap();
            accepted.push(svc.submit(QueryRequest::new(q, 0.01 / (i + 1) as f64)));
        }
        assert!(!svc.is_draining());
        svc.begin_drain();
        assert!(svc.is_draining());
        // a post-drain submission resolves Shutdown without queueing
        let q = parse("R(1)", p.schema()).unwrap();
        match svc.submit(QueryRequest::new(q.clone(), 0.05)).wait() {
            Err(ServeError::Shutdown) => {}
            other => panic!("expected Shutdown, got {other:?}"),
        }
        // batch submissions are refused too, one ticket per request
        let batch = svc.submit_batch(vec![
            QueryRequest::new(q.clone(), 0.05),
            QueryRequest::new(q, 0.04),
        ]);
        assert_eq!(batch.len(), 2);
        for t in batch {
            assert!(matches!(t.wait(), Err(ServeError::Shutdown)));
        }
        // nothing after begin_drain was counted as submitted
        assert_eq!(svc.metrics().submitted.load(Ordering::Relaxed), 12);
        // every request accepted before the drain still completes
        for t in accepted {
            t.wait().unwrap();
        }
        assert_eq!(svc.metrics().completed.load(Ordering::Relaxed), 12);
        svc.drain(); // begin_drain is idempotent; join drains the queue
    }

    #[test]
    fn drain_preserves_partial_certificates_of_in_flight_work() {
        // a deadline-bounded slow request accepted before the drain must
        // still resolve with its partial certificate, not Shutdown
        let svc = QueryService::new(
            zeta_pdb(),
            ServiceConfig {
                threads: 1,
                prior_facts_per_sec: 1e12,
                ..ServiceConfig::default()
            },
        );
        let p = zeta_pdb();
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let ticket = svc.submit(
            QueryRequest::new(q, 0.004).with_budget(CostBudget::deadline(Duration::from_millis(5))),
        );
        svc.begin_drain();
        match ticket.wait() {
            Err(ServeError::DeadlineExceeded { partial, .. }) => {
                if let Some(partial) = partial {
                    assert!(partial.eps < 0.5);
                }
            }
            Ok(_) => {} // beat the deadline — also a full, sound answer
            other => panic!("expected DeadlineExceeded or success, got {other:?}"),
        }
        svc.drain();
    }

    #[test]
    fn responses_carry_the_evaluation_trace_even_when_cached() {
        let svc = QueryService::new(
            pdb(),
            ServiceConfig {
                threads: 1,
                engine: Engine::Force(StrategyKind::Shannon),
                ..ServiceConfig::default()
            },
        );
        let p = pdb();
        let q = parse("exists x, y. R(x) /\\ R(y) /\\ x != y", p.schema()).unwrap();
        let fresh = svc.evaluate(QueryRequest::new(q.clone(), 0.05)).unwrap();
        assert!(!fresh.cached);
        let arena = fresh.trace.arena.expect("lineage engine reports arena");
        assert!(arena.nodes > 0);
        // the cached answer replays the original evaluation's trace
        let hit = svc.evaluate(QueryRequest::new(q, 0.05)).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.trace, fresh.trace);
    }

    #[test]
    fn explicit_cancel_resolves_with_cancelled_error() {
        // one worker, blocked by a slow zeta evaluation; the next ticket
        // is cancelled while still queued, so its evaluation stops at
        // the very first checkpoint
        let svc = QueryService::new(
            zeta_pdb(),
            ServiceConfig {
                threads: 1,
                queue_cap: Some(8),
                ..ServiceConfig::default()
            },
        );
        let p = zeta_pdb();
        let slow = parse("exists x. R(x)", p.schema()).unwrap();
        let blocker = svc.submit(QueryRequest::new(slow.clone(), 0.004));
        let victim = svc.submit(QueryRequest::new(slow, 0.0041));
        victim.cancel();
        match victim.wait() {
            Err(ServeError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        blocker.wait().unwrap();
        assert_eq!(svc.metrics().cancelled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn runtime_deadline_stops_mid_loop_with_sound_partial() {
        let svc = QueryService::new(
            zeta_pdb(),
            ServiceConfig {
                threads: 1,
                // fast prior so admission does NOT clamp n — the runtime
                // deadline must do the stopping
                prior_facts_per_sec: 1e12,
                ..ServiceConfig::default()
            },
        );
        let p = zeta_pdb();
        // ground truth for ∃x R(x): 1 − ∏(1 − p_i), by very long product
        let mut acc = 1.0;
        for i in 0..3_000_000 {
            acc *= 1.0 - p.supply().prob(i);
        }
        let truth = 1.0 - acc;
        let q = parse("exists x. R(x)", p.schema()).unwrap();
        let req =
            QueryRequest::new(q, 0.004).with_budget(CostBudget::deadline(Duration::from_millis(1)));
        match svc.submit(req).wait() {
            Err(ServeError::DeadlineExceeded { partial, .. }) => {
                if let Some(partial) = partial {
                    // the partial interval must still enclose the truth
                    assert!(partial.eps < 0.5);
                    assert!(partial.interval().contains(truth));
                }
            }
            Ok(resp) => {
                // a 1 ms deadline *can* be beaten on a fast machine; the
                // answer must then be a fully certified one
                assert!(resp.interval().contains(truth));
            }
            other => panic!("expected DeadlineExceeded or success, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_is_contained_and_reported() {
        let faults = Arc::new(FaultInjector::new(11));
        faults.inject("engine", FaultKind::Panic, Trigger::Times(1));
        let svc = QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads: 1,
                retry: RetryPolicy::none(),
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        match svc.evaluate(QueryRequest::new(q.clone(), 0.05)) {
            Err(ServeError::EnginePanic { payload }) => {
                assert!(payload.contains("injected fault"), "{payload}");
            }
            other => panic!("expected EnginePanic, got {other:?}"),
        }
        assert_eq!(svc.metrics().panics.load(Ordering::Relaxed), 1);
        // the thread that ran it survives and the next request succeeds
        let resp = svc.evaluate(QueryRequest::new(q, 0.05)).unwrap();
        assert!(!resp.cached);
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let faults = Arc::new(FaultInjector::new(12));
        faults.inject("engine", FaultKind::Error, Trigger::Times(2));
        let svc = QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads: 1,
                retry: RetryPolicy {
                    max_attempts: 3,
                    base: Duration::ZERO,
                    cap: Duration::ZERO,
                },
                ..ServiceConfig::default()
            },
            faults,
        );
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let resp = svc.evaluate(QueryRequest::new(q, 0.05)).unwrap();
        assert!(!resp.cached);
        assert_eq!(svc.metrics().retries.load(Ordering::Relaxed), 2);
        assert_eq!(svc.metrics().completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn breaker_opens_after_persistent_failures_and_recovers() {
        let faults = Arc::new(FaultInjector::new(13));
        // every evaluation fails until the injector is cleared
        faults.inject("engine", FaultKind::Error, Trigger::Always);
        let svc = QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads: 1,
                retry: RetryPolicy::none(),
                breaker: BreakerConfig {
                    threshold: 3,
                    cooldown: Duration::ZERO,
                },
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        for _ in 0..3 {
            match svc.evaluate(QueryRequest::new(q.clone(), 0.05)) {
                Err(ServeError::Transient { .. }) => {}
                other => panic!("expected Transient, got {other:?}"),
            }
        }
        // breaker open with zero cooldown ⇒ every request is a probe;
        // heal the engine and the next request closes the breaker
        faults.clear("engine");
        let resp = svc.evaluate(QueryRequest::new(q, 0.05)).unwrap();
        assert!(!resp.cached);
    }

    #[test]
    fn open_breaker_fails_fast_but_serves_cache_hits() {
        let faults = Arc::new(FaultInjector::new(14));
        let svc = QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads: 1,
                retry: RetryPolicy::none(),
                breaker: BreakerConfig {
                    threshold: 2,
                    cooldown: Duration::from_secs(3600),
                },
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );
        let p = pdb();
        let cached_q = parse("R(1)", p.schema()).unwrap();
        // warm the cache while healthy
        svc.evaluate(QueryRequest::new(cached_q.clone(), 0.05))
            .unwrap();
        // now break the engine and trip the breaker
        faults.inject("engine", FaultKind::Error, Trigger::Always);
        let fresh_q = parse("R(2)", p.schema()).unwrap();
        for _ in 0..2 {
            svc.evaluate(QueryRequest::new(fresh_q.clone(), 0.05))
                .unwrap_err();
        }
        match svc.evaluate(QueryRequest::new(fresh_q, 0.05)) {
            Err(ServeError::CircuitOpen {
                consecutive_failures,
            }) => assert!(consecutive_failures >= 2),
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert_eq!(svc.metrics().breaker_fastfail.load(Ordering::Relaxed), 1);
        // cache hits keep serving while the breaker is open
        let hit = svc.evaluate(QueryRequest::new(cached_q, 0.05)).unwrap();
        assert!(hit.cached);
    }

    #[test]
    fn reject_newest_overflow_resolves_tickets_as_overloaded() {
        let svc = QueryService::new(
            zeta_pdb(),
            ServiceConfig {
                threads: 1,
                queue_cap: Some(1),
                overflow: OverflowPolicy::RejectNewest,
                ..ServiceConfig::default()
            },
        );
        let p = zeta_pdb();
        let slow = parse("exists x. R(x)", p.schema()).unwrap();
        // the blocker occupies the worker; give it a moment to start
        let blocker = svc.submit(QueryRequest::new(slow.clone(), 0.004));
        let deadline = Instant::now() + TICKET_GRACE;
        while svc.queue_depth() > 0 {
            assert!(Instant::now() < deadline, "blocker never started");
            std::thread::yield_now();
        }
        // fills the single queue slot
        let queued = svc.submit(QueryRequest::new(slow.clone(), 0.0041));
        // overflow: must resolve as Overloaded, not hang
        let shed = svc.submit(QueryRequest::new(slow, 0.0042));
        match shed.wait() {
            Err(ServeError::Overloaded { queue_cap }) => assert_eq!(queue_cap, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.metrics().shed.load(Ordering::Relaxed), 1);
        blocker.wait().unwrap();
        queued.wait().unwrap();
    }

    #[test]
    fn a_cache_hit_never_waits_for_the_pool() {
        // every evaluation takes at least 300 ms, so the queued miss
        // below cannot finish until 600 ms after it is queued
        let faults = Arc::new(FaultInjector::new(15));
        faults.inject(
            "engine",
            FaultKind::Latency(Duration::from_millis(300)),
            Trigger::Always,
        );
        let svc = QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads: 1,
                queue_cap: Some(1),
                overflow: OverflowPolicy::RejectNewest,
                ..ServiceConfig::default()
            },
            faults,
        );
        let p = pdb();
        let k = parse("R(1)", p.schema()).unwrap();
        let first = svc.evaluate(QueryRequest::new(k.clone(), 0.05)).unwrap();
        // two slow misses: one on the single worker, one in the single
        // queue slot
        let slow = parse("exists x. R(x)", p.schema()).unwrap();
        let running = svc.submit(QueryRequest::new(slow.clone(), 0.01));
        let deadline = Instant::now() + TICKET_GRACE;
        while svc.queue_depth() > 0 {
            assert!(Instant::now() < deadline, "the first miss never started");
            std::thread::yield_now();
        }
        let queued = svc.submit(QueryRequest::new(slow, 0.02));
        let hit = svc.evaluate(QueryRequest::new(k, 0.05)).unwrap();
        assert!(hit.cached);
        assert_eq!(
            hit.approx.estimate.to_bits(),
            first.approx.estimate.to_bits()
        );
        assert!(
            queued.try_wait().is_none(),
            "the hit must not wait behind the queued miss"
        );
        assert_eq!(svc.metrics().shed.load(Ordering::Relaxed), 0);
        running.wait().unwrap();
        queued.wait().unwrap();
    }

    #[test]
    fn evaluate_answers_hits_and_refusals_without_the_pool() {
        let svc = service(1);
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let m = svc.metrics();
        assert!(
            !svc.evaluate(QueryRequest::new(q.clone(), 0.05))
                .unwrap()
                .cached
        );
        assert_eq!(m.wait.count(), 0, "the miss ran on the calling thread");
        assert_eq!(m.run.count(), 1);
        assert!(
            svc.evaluate(QueryRequest::new(q.clone(), 0.05))
                .unwrap()
                .cached
        );
        // an invalid ε fails admission the same way on any thread
        svc.evaluate(QueryRequest::new(q, 0.5)).unwrap_err();
        assert_eq!(m.wait.count(), 0, "the hit and the refusal stayed inline");
        assert_eq!(m.run.count(), 1, "neither ran the engine");
        assert_eq!(m.submitted.load(Ordering::Relaxed), 3);
        assert_eq!(m.completed.load(Ordering::Relaxed), 2);
        assert_eq!(m.errors.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panic_in_the_inline_probe_is_contained_and_retried_on_the_pool() {
        let faults = Arc::new(FaultInjector::new(16));
        faults.inject("admission", FaultKind::Panic, Trigger::Times(1));
        let svc = QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads: 1,
                retry: RetryPolicy {
                    max_attempts: 2,
                    base: Duration::ZERO,
                    cap: Duration::ZERO,
                },
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let resp = svc.evaluate(QueryRequest::new(q, 0.05)).unwrap();
        assert!(!resp.cached);
        let m = svc.metrics();
        assert_eq!(m.panics.load(Ordering::Relaxed), 1);
        assert_eq!(m.retries.load(Ordering::Relaxed), 1);
        assert_eq!(m.completed.load(Ordering::Relaxed), 1);
        assert_eq!(m.wait.count(), 1);
        // one admission pass per attempt: the inline one, then the retry
        assert_eq!(faults.calls("admission"), 2);
    }

    #[test]
    fn a_miss_with_a_free_slot_runs_inline_with_the_answer_submit_gives() {
        let p = blocks_pdb();
        let q = parse(
            "(exists x, y. A(x) /\\ A(y) /\\ x != y) \
             /\\ (exists x, y. B(x) /\\ B(y) /\\ x != y)",
            p.schema(),
        )
        .unwrap();
        for scheduler in [SchedulerKind::Fixed, SchedulerKind::Stealing] {
            let config = ServiceConfig {
                threads: 2,
                engine: Engine::Force(StrategyKind::Shannon),
                parallelism: 2,
                scheduler,
                ..ServiceConfig::default()
            };
            let inline = QueryService::new(p.clone(), config.clone());
            let pooled = QueryService::new(p.clone(), config);
            let a = inline.evaluate(QueryRequest::new(q.clone(), 0.01)).unwrap();
            let b = pooled
                .submit(QueryRequest::new(q.clone(), 0.01))
                .wait()
                .unwrap();
            assert!(!a.cached && !b.cached);
            assert_eq!(a.approx.estimate.to_bits(), b.approx.estimate.to_bits());
            assert_eq!(a.approx, b.approx);
            assert_eq!(a.trace, b.trace, "{}", scheduler.name());
            assert_eq!(inline.metrics().wait.count(), 0, "the miss never queued");
            assert_eq!(inline.metrics().run.count(), 1);
            assert_eq!(pooled.metrics().wait.count(), 1);
            // the components still split into two tasks
            assert_eq!(inline.metrics().parallel_tasks.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn a_miss_queues_while_every_slot_is_busy() {
        // the first evaluation sleeps 300 ms at the engine site, holding
        // the only slot while the miss below arrives
        let faults = Arc::new(FaultInjector::new(17));
        faults.inject(
            "engine",
            FaultKind::Latency(Duration::from_millis(300)),
            Trigger::Times(1),
        );
        let svc = QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads: 1,
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );
        let p = pdb();
        let parked = svc.submit(QueryRequest::new(parse("R(1)", p.schema()).unwrap(), 0.05));
        let deadline = Instant::now() + TICKET_GRACE;
        while svc.queue_depth() > 0 {
            assert!(Instant::now() < deadline, "the parked job never started");
            std::thread::yield_now();
        }
        let q = parse("R(2)", p.schema()).unwrap();
        let resp = svc.evaluate(QueryRequest::new(q.clone(), 0.05)).unwrap();
        let expected = approx_prob_boolean(&p, &q, 0.05, Engine::Auto).unwrap();
        assert!(!resp.cached);
        assert_eq!(resp.approx.estimate.to_bits(), expected.estimate.to_bits());
        parked.wait().unwrap();
        let m = svc.metrics();
        assert_eq!(faults.fired("engine"), 1);
        assert_eq!(m.wait.count(), 2, "the miss queued behind the parked job");
        assert_eq!(m.run.count(), 2);
        assert_eq!(m.completed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_request_with_a_deadline_always_queues() {
        // two slots: the one a finished pooled job may still be releasing
        // leaves the other free for the miss without a deadline
        let svc = service(2);
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let budget = CostBudget::deadline(Duration::from_secs(60));
        let resp = svc
            .evaluate(QueryRequest::new(q.clone(), 0.05).with_budget(budget))
            .unwrap();
        assert!(!resp.cached);
        let m = svc.metrics();
        assert_eq!(m.wait.count(), 1, "queued though both slots were free");
        svc.evaluate(QueryRequest::new(q, 0.04)).unwrap();
        assert_eq!(m.wait.count(), 1, "the miss without a deadline ran inline");
        assert_eq!(m.run.count(), 2);
    }

    #[test]
    fn inline_and_pooled_evaluations_never_exceed_threads() {
        // every evaluation sleeps at the engine site, so evaluations in
        // flight at once show up as overlapping sleeps there
        let faults = Arc::new(FaultInjector::new(18));
        faults.inject(
            "engine",
            FaultKind::Latency(Duration::from_millis(20)),
            Trigger::Always,
        );
        let threads = 2;
        let svc = Arc::new(QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads,
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        ));
        // six callers evaluate, two submit. Round one: the six evaluate
        // at once against an idle pool, so two run inline and four queue.
        // Then the submitters join and every caller finishes its share.
        const CALLERS: usize = 8;
        const SUBMITTERS: usize = 2;
        const EACH: usize = 4;
        let round_one = Arc::new(std::sync::Barrier::new(CALLERS - SUBMITTERS));
        let round_two = Arc::new(std::sync::Barrier::new(CALLERS));
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let svc = Arc::clone(&svc);
                let (round_one, round_two) = (Arc::clone(&round_one), Arc::clone(&round_two));
                std::thread::spawn(move || {
                    let schema = svc.pdb().schema().clone();
                    let ask = |i: usize| {
                        // a distinct key per request: every one misses
                        let q = parse(&format!("R({})", c * EACH + i + 1), &schema).unwrap();
                        let request = QueryRequest::new(q, 0.05);
                        let resp = if c < SUBMITTERS {
                            svc.submit(request).wait()
                        } else {
                            svc.evaluate(request)
                        };
                        assert!(!resp.unwrap().cached);
                    };
                    let mut i = 0;
                    if c >= SUBMITTERS {
                        round_one.wait();
                        ask(0);
                        i = 1;
                    }
                    round_two.wait();
                    for i in i..EACH {
                        ask(i);
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        let total = (CALLERS * EACH) as u64;
        let m = svc.metrics();
        assert_eq!(faults.calls("engine"), total);
        assert_eq!(m.run.count(), total);
        assert!(
            m.wait.count() >= (SUBMITTERS * EACH) as u64,
            "every submit queued"
        );
        let peak = faults.peak_concurrent_latency();
        assert!(
            (1..=threads as u64).contains(&peak),
            "{peak} evaluations at once on {threads} slots"
        );
    }

    #[test]
    fn an_inline_compute_panic_is_contained_and_retried_on_the_caller() {
        let faults = Arc::new(FaultInjector::new(19));
        faults.inject("engine", FaultKind::Panic, Trigger::Times(1));
        let svc = QueryService::with_faults(
            pdb(),
            ServiceConfig {
                threads: 1,
                retry: RetryPolicy {
                    max_attempts: 2,
                    base: Duration::ZERO,
                    cap: Duration::ZERO,
                },
                ..ServiceConfig::default()
            },
            Arc::clone(&faults),
        );
        let p = pdb();
        let q = parse("R(1)", p.schema()).unwrap();
        let resp = svc.evaluate(QueryRequest::new(q.clone(), 0.05)).unwrap();
        let expected = approx_prob_boolean(&p, &q, 0.05, Engine::Auto).unwrap();
        assert!(!resp.cached);
        assert_eq!(resp.approx.estimate.to_bits(), expected.estimate.to_bits());
        let m = svc.metrics();
        assert_eq!(m.panics.load(Ordering::Relaxed), 1);
        assert_eq!(m.retries.load(Ordering::Relaxed), 1);
        assert_eq!(m.completed.load(Ordering::Relaxed), 1);
        assert_eq!(m.errors.load(Ordering::Relaxed), 0);
        // one engine pass per attempt, both on the calling thread
        assert_eq!(faults.calls("engine"), 2);
        assert_eq!(m.wait.count(), 0);
        // the slot came back: the next miss runs inline too
        svc.evaluate(QueryRequest::new(q, 0.04)).unwrap();
        assert_eq!(m.wait.count(), 0);
        assert_eq!(m.run.count(), 2);
    }

    #[test]
    fn a_batch_reuses_its_own_earlier_answers() {
        let svc = service(1);
        let p = pdb();
        let a = parse("exists x. R(x)", p.schema()).unwrap();
        let tickets = svc.submit_batch(vec![
            QueryRequest::new(a.clone(), 0.01),
            QueryRequest::new(a, 0.01),
        ]);
        let answers: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert!(!answers[0].cached);
        assert!(
            answers[1].cached,
            "the duplicate probed after the first ran"
        );
        assert_eq!(answers[0].approx, answers[1].approx);
    }

    /// An 8 × 8 bipartite grid over `{R/1, S/2, T/1}`: the negated join
    /// below has no monotone DNF and a Shannon trial too costly for
    /// loose ε, so the planner samples it with Monte-Carlo.
    fn grid_pdb() -> CountableTiPdb {
        let schema = Schema::from_relations([
            Relation::new("R", 1),
            Relation::new("S", 2),
            Relation::new("T", 1),
        ])
        .unwrap();
        let int = infpdb_core::value::Value::int;
        let mut facts = Vec::new();
        for i in 0..8 {
            facts.push((Fact::new(RelId(0), [int(i)]), 0.2));
            facts.push((Fact::new(RelId(2), [int(i)]), 0.8));
            for j in 0..8 {
                facts.push((Fact::new(RelId(1), [int(i), int(j)]), 0.3));
            }
        }
        CountableTiPdb::new(FactSupply::from_vec(schema, facts).unwrap()).unwrap()
    }

    #[test]
    fn plan_knobs_reach_the_planner() {
        let eps = 0.45;
        let knobs = PlanKnobs {
            seed: 7,
            ..PlanKnobs::default()
        };
        let p = grid_pdb();
        let q = parse("exists x, y. R(x) /\\ S(x,y) /\\ !T(y)", p.schema()).unwrap();
        // each knob set's plan, and its answer evaluated off the service
        let planned = |knobs: &PlanKnobs| {
            let (compiled, plan, _) = infpdb_query::planner::explain(&p, &q, eps, knobs).unwrap();
            let prefix = infpdb_query::truncate::TruncationPlan::new(&p, plan.eps_trunc).unwrap();
            let (expected, _) =
                infpdb_finite::plan::evaluate_plan(&compiled, &plan, &prefix.table, 1, None)
                    .unwrap()
                    .unwrap();
            (plan.choice_fingerprint(), expected)
        };
        let (seeded_fp, expected) = planned(&knobs);
        let (default_fp, default_expected) = planned(&PlanKnobs::default());
        // the seed reaches the plan: same strategies, different seeds
        assert_ne!(seeded_fp, default_fp);
        let answer = |plan_knobs| {
            let svc = QueryService::new(
                grid_pdb(),
                ServiceConfig {
                    threads: 1,
                    plan_knobs,
                    ..ServiceConfig::default()
                },
            );
            svc.evaluate(QueryRequest::new(q.clone(), eps)).unwrap()
        };
        let seeded = answer(knobs);
        assert!(
            matches!(seeded.strategy(), Some("mc" | "kl")),
            "{:?}",
            seeded.strategy()
        );
        assert_eq!(seeded.approx.estimate.to_bits(), expected.to_bits());
        let default = answer(PlanKnobs::default());
        assert_eq!(default.strategy(), seeded.strategy());
        assert_eq!(
            default.approx.estimate.to_bits(),
            default_expected.to_bits()
        );
    }

    #[test]
    fn queries_nested_to_the_parser_cap_are_answered_from_a_default_stack() {
        use infpdb_core::value::Value;
        use infpdb_logic::parser::MAX_NESTING;
        // the thread that parses, fingerprints, probes and computes the
        // miss has the default 2 MiB stack, as a connection thread of
        // `serve` does
        std::thread::spawn(|| {
            // one fact, so a chain of quantifiers ranges over one
            // constant: over more, evaluation time grows exponentially
            // with the chain, and eight did not finish in 20 s on `kb.pdb`
            let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
            let fact = Fact::new(RelId(0), [Value::int(1)]);
            let supply = FactSupply::from_vec(schema.clone(), vec![(fact, 0.5)]).unwrap();
            let svc = QueryService::new(
                CountableTiPdb::new(supply).unwrap(),
                ServiceConfig {
                    threads: 1,
                    ..ServiceConfig::default()
                },
            );
            let levels = MAX_NESTING;
            let answer = |text: &str| {
                let q = parse(text, &schema).unwrap();
                query_fingerprint(&schema, &q);
                svc.evaluate(QueryRequest::new(q, 0.1))
                    .unwrap()
                    .approx
                    .estimate
            };
            for (deep, shallow) in [
                (
                    format!(
                        "{}exists x. R(x){}",
                        "(".repeat(levels - 1),
                        ")".repeat(levels - 1)
                    ),
                    "exists x. R(x)",
                ),
                (format!("{}R(1)", "!".repeat(levels)), "R(1)"),
                (format!("{}R(1)", "not ".repeat(levels)), "R(1)"),
                (
                    format!("{}R(x)", "exists x. ".repeat(levels)),
                    "exists x. R(x)",
                ),
                (format!("{}R(1)", "R(2) -> ".repeat(levels)), "R(2) -> R(1)"),
            ] {
                assert_eq!(
                    answer(&deep).to_bits(),
                    answer(shallow).to_bits(),
                    "{shallow}"
                );
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn retry_policy_backoff_is_bounded() {
        let r = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
        };
        assert_eq!(r.backoff(0), Duration::from_millis(1));
        assert_eq!(r.backoff(1), Duration::from_millis(2));
        assert_eq!(r.backoff(3), Duration::from_millis(8));
        assert_eq!(r.backoff(31), Duration::from_millis(8)); // saturates
        assert_eq!(r.backoff(200), Duration::from_millis(8)); // shl overflow
    }
}
