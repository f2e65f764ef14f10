//! A fixed-size worker thread pool over a bounded `Mutex`+`Condvar` job
//! queue.
//!
//! `std`-only: jobs are boxed closures in a `VecDeque` guarded by one
//! mutex, workers park on a condition variable. One mutex is enough
//! here — queue operations are push/pop of a pointer while job bodies
//! (query evaluations) run three to six orders of magnitude longer, so
//! the critical section is never the bottleneck.
//!
//! **Backpressure.** The queue is bounded (default
//! [`DEFAULT_QUEUE_CAP_PER_THREAD`]` × threads`) so a fast producer can
//! never exhaust memory. When the queue is full, the configured
//! [`OverflowPolicy`] decides: block the submitter until space frees up
//! (default), reject the incoming job, or shed the oldest queued job to
//! make room. Shed jobs get their `on_shed` handler invoked (outside the
//! queue lock) so any response channel they hold can resolve with a
//! structured error instead of a silent disconnect; sheds are counted in
//! [`Metrics::shed`](crate::metrics::Metrics).
//!
//! Shutdown comes in two flavors:
//!
//! * **Graceful** ([`ThreadPool::drop`] / [`ThreadPool::join`]) — workers
//!   drain every queued job, then exit.
//! * **Immediate** ([`ThreadPool::shutdown_now`]) — the queue is cleared
//!   first; dropped jobs never run, which any response channel they held
//!   reports as a disconnect. Jobs already mid-flight still finish (the
//!   pool never kills a thread), so joining stays deadlock-free.
//!
//! **Evaluation slots.** The pool bounds *evaluations*, not only
//! workers: one count under the queue mutex holds the evaluations
//! running now, pooled jobs and callers that run one on their own thread
//! alike, and it never exceeds `threads`. A worker pops a job only while
//! a slot is free; [`ThreadPool::try_claim`] hands a caller a [`Slot`]
//! only when a slot is free *and* no job is queued, so queued jobs keep
//! their FIFO priority under load. Dropping the slot frees it and wakes a
//! worker if jobs wait.
//!
//! Slots bound evaluations, not the threads that run engine code. Under
//! [`SchedulerKind::Stealing`] a worker runs subtasks without a slot, so
//! the workers left idle while callers hold slots help with those
//! callers' subtasks: up to `2 × threads` threads (every worker plus
//! every slot-holding caller) can be busy at once, where a pool whose
//! evaluations all run on workers keeps that at `threads`.
//!
//! Worker panics are caught per job and counted in
//! [`Metrics::panics`](crate::metrics::Metrics); the worker thread
//! survives and moves on to the next job. Every lock acquisition
//! recovers from poisoning (the internal `recover` module), so a panic
//! that unwinds
//! while the queue mutex is held cannot wedge the pool.
//!
//! **Work stealing.** With [`SchedulerKind::Stealing`] the pool grows a
//! second, finer-grained scheduling tier: per-worker subtask deques plus
//! a shared injector. A request evaluating on worker *k* splits its
//! independent lineage components into subtasks (via
//! [`StealingExecutor`], the pool's implementation of the engine's
//! [`TaskExecutor`]) and pushes
//! them onto its own deque; idle workers drain the injector and then
//! steal from the *front* of busy workers' deques while the owner pops
//! its own *back*. The owner helps until its group completes, so a
//! request's components run with **zero thread spawns** — unlike the
//! fixed scheduler's [`ScopedExecutor`](infpdb_finite::shannon::ScopedExecutor),
//! which forks fresh scoped threads per request. Stealing reorders
//! *execution* only: results are combined in canonical component order
//! on the owning worker, so answers stay bit-for-bit identical (see
//! DESIGN.md §13). Subtasks carry their request's
//! [`CancelToken`]; a stolen subtask from a cancelled request
//! short-circuits without running, and a panicking subtask is caught
//! where it ran and re-thrown on the owner so the request-level
//! containment in `run_resilient` sees it exactly as before.

use crate::metrics::Metrics;
use crate::recover;
use infpdb_finite::shannon::{ParTask, TaskExecutor};
use infpdb_query::cancel::CancelToken;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// Index of the pool worker running on this thread, if any. Lets the
    /// stealing tier route an owner's subtasks to its own deque and
    /// attribute executed subtasks to per-worker counters.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Default queue capacity per worker thread: enough lookahead to keep
/// workers busy, small enough that latency (and memory) stay bounded.
pub const DEFAULT_QUEUE_CAP_PER_THREAD: usize = 8;

/// What to do with a submission when the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the submitting thread until a worker frees a slot (or the
    /// pool shuts down). Classic backpressure: no request is lost, the
    /// producer slows to the service's pace.
    #[default]
    Block,
    /// Drop the incoming job; its `on_shed` handler runs so the caller
    /// learns immediately. Favors requests already accepted.
    RejectNewest,
    /// Evict the oldest *queued* job to make room for the incoming one;
    /// the victim's `on_shed` handler runs. Favors fresh requests —
    /// the oldest queued job is the most likely to be past its deadline
    /// anyway.
    ShedOldest,
}

/// How the pool schedules intra-request subtasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// One request per worker; intra-query parallelism forks fresh
    /// scoped threads per request (the historical behavior).
    #[default]
    Fixed,
    /// Per-worker deques plus a shared injector: a request's component
    /// subtasks are schedulable units that idle workers steal, so no
    /// per-request threads are ever spawned.
    Stealing,
}

impl SchedulerKind {
    /// Parses the CLI spelling (`fixed` | `stealing`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed" => Some(SchedulerKind::Fixed),
            "stealing" => Some(SchedulerKind::Stealing),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fixed => "fixed",
            SchedulerKind::Stealing => "stealing",
        }
    }
}

/// Pool construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads (at least 1).
    pub threads: usize,
    /// Queue capacity; `None` means
    /// [`DEFAULT_QUEUE_CAP_PER_THREAD`]` × threads`.
    pub queue_cap: Option<usize>,
    /// Behavior when the queue is full.
    pub overflow: OverflowPolicy,
    /// Intra-request subtask scheduling.
    pub scheduler: SchedulerKind,
}

impl PoolConfig {
    /// `threads` workers with the default bounded queue and block policy.
    pub fn new(threads: usize) -> Self {
        PoolConfig {
            threads,
            queue_cap: None,
            overflow: OverflowPolicy::default(),
            scheduler: SchedulerKind::default(),
        }
    }

    fn effective_cap(&self) -> usize {
        self.queue_cap
            .unwrap_or(DEFAULT_QUEUE_CAP_PER_THREAD * self.threads.max(1))
            .max(1)
    }
}

/// A queued unit of work: the job itself plus an optional handler to run
/// if the overflow policy sheds it before a worker picks it up.
struct QueuedJob {
    run: Job,
    on_shed: Option<Job>,
}

struct QueueState {
    jobs: VecDeque<QueuedJob>,
    /// Evaluations running now: pooled jobs plus held [`Slot`]s. Never
    /// above [`Shared::threads`].
    running: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// The most evaluations that may run at once: the worker count.
    threads: usize,
    /// Signals workers: a job is available (or shutdown began).
    available: Condvar,
    /// Signals blocked submitters: a slot freed up (or shutdown began).
    space: Condvar,
    cap: usize,
    overflow: OverflowPolicy,
    metrics: Arc<Metrics>,
    /// The stealing tier; `None` under [`SchedulerKind::Fixed`].
    steal: Option<StealState>,
}

/// One schedulable slice of a request: already wrapped with cancel
/// short-circuit, panic capture, and completion accounting, so whoever
/// pops it just runs it.
struct SubTask {
    run: Job,
}

/// The stealing tier: per-worker deques plus a shared injector.
///
/// Lock ordering: a subtask deque is never held while taking the queue
/// mutex, and the queue mutex may take a deque (the availability check
/// in `worker_loop`), so `state → deque` is the only nesting.
struct StealState {
    /// Overflow / external-owner queue, drained by every worker.
    injector: Mutex<VecDeque<SubTask>>,
    /// One deque per worker; the owner pops its back, thieves its front.
    locals: Vec<Mutex<VecDeque<SubTask>>>,
}

impl StealState {
    fn new(workers: usize) -> Self {
        StealState {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Any subtask waiting anywhere? Called under the queue mutex before
    /// a worker parks, so a push (deque, then empty queue-mutex section,
    /// then notify) can never be missed.
    fn has_work(&self) -> bool {
        if !recover::lock(&self.injector).is_empty() {
            return true;
        }
        self.locals.iter().any(|l| !recover::lock(l).is_empty())
    }
}

/// Tracks one `run_tasks` barrier: outstanding subtasks plus the first
/// panic payload, re-thrown on the owner once the group drains.
struct TaskGroup {
    state: Mutex<GroupState>,
    done: Condvar,
}

struct GroupState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

fn pop_own(shared: &Shared, me: Option<usize>) -> Option<SubTask> {
    let st = shared.steal.as_ref()?;
    let i = me?;
    recover::lock(&st.locals[i]).pop_back()
}

/// Injector, then other workers' deque fronts; both count as observable
/// scheduler events (`serve_injector_depth` / `serve_steals_total`).
fn pop_elsewhere(shared: &Shared, me: Option<usize>) -> Option<SubTask> {
    let st = shared.steal.as_ref()?;
    if let Some(sub) = recover::lock(&st.injector).pop_front() {
        shared
            .metrics
            .injector_depth
            .fetch_sub(1, Ordering::Relaxed);
        return Some(sub);
    }
    for (j, local) in st.locals.iter().enumerate() {
        if Some(j) == me {
            continue;
        }
        if let Some(sub) = recover::lock(local).pop_front() {
            shared.metrics.steals.fetch_add(1, Ordering::Relaxed);
            return Some(sub);
        }
    }
    None
}

fn pop_subtask(shared: &Shared, me: Option<usize>) -> Option<SubTask> {
    pop_own(shared, me).or_else(|| pop_elsewhere(shared, me))
}

fn run_subtask(shared: &Shared, sub: SubTask) {
    let m = &shared.metrics;
    let counter = match WORKER_INDEX.with(|w| w.get()) {
        Some(i) => m
            .worker_tasks
            .get()
            .and_then(|per_worker| per_worker.get(i)),
        // a caller outside the pool helping its own request
        None => Some(&m.caller_tasks),
    };
    if let Some(c) = counter {
        c.fetch_add(1, Ordering::Relaxed);
    }
    // the wrapper installed by `StealingExecutor::run_tasks` contains its
    // own catch_unwind; a subtask can never unwind into the worker loop
    (sub.run)();
}

/// The fate of one submission under the pool's overflow policy.
enum Enqueued {
    /// The job is in the queue.
    Accepted,
    /// The queue was full; this handler (the incoming job's, or under
    /// shed-oldest the evicted victim's) must run outside the lock.
    Shed(Option<Job>),
    /// The pool had shut down; the job was dropped.
    Dropped,
}

/// A fixed-size pool of worker threads consuming a shared bounded queue.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads` workers (at least 1) sharing `metrics`, with the
    /// default bounded queue (`8 × threads`, block-on-full).
    pub fn new(threads: usize, metrics: Arc<Metrics>) -> Self {
        Self::with_config(PoolConfig::new(threads), metrics)
    }

    /// Spawns a pool with explicit queue bounds and overflow policy.
    pub fn with_config(config: PoolConfig, metrics: Arc<Metrics>) -> Self {
        let threads = config.threads.max(1);
        let steal = match config.scheduler {
            SchedulerKind::Fixed => None,
            SchedulerKind::Stealing => {
                metrics
                    .worker_tasks
                    .get_or_init(|| (0..threads).map(|_| Default::default()).collect());
                Some(StealState::new(threads))
            }
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                running: 0,
                shutdown: false,
            }),
            threads,
            available: Condvar::new(),
            space: Condvar::new(),
            cap: config.effective_cap(),
            overflow: config.overflow,
            metrics,
            steal,
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("infpdb-serve-{i}"))
                    .spawn(move || {
                        WORKER_INDEX.with(|w| w.set(Some(i)));
                        worker_loop(&shared)
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// A handle to the stealing tier, for building per-request
    /// [`StealingExecutor`]s; `None` under [`SchedulerKind::Fixed`].
    pub fn steal_handle(&self) -> Option<StealHandle> {
        self.shared.steal.as_ref()?;
        Some(StealHandle {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.shared.cap
    }

    /// Enqueues one job. Jobs submitted after shutdown are dropped
    /// immediately (their effects never happen). When the queue is full
    /// the [`OverflowPolicy`] applies; a job shed without an `on_shed`
    /// handler disappears silently (its channels disconnect).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.submit_with_shed(Box::new(job), None);
    }

    /// Enqueues one job with a shed handler: if the overflow policy
    /// drops this job (reject-newest) — or this job is later evicted by
    /// shed-oldest — `on_shed` runs exactly once, outside the queue
    /// lock, so it may resolve response channels or take locks itself.
    pub fn submit_with_shed(&self, job: Job, on_shed: Option<Job>) {
        let outcome = self.enqueue(QueuedJob { run: job, on_shed });
        self.settle(outcome);
    }

    /// Enqueues a whole batch, waking every worker once per slot made.
    /// Each job is subject to the overflow policy independently; under
    /// the block policy the submitting thread waits for space as needed.
    pub fn submit_batch(&self, jobs: Vec<Job>) {
        self.submit_batch_with_shed(jobs.into_iter().map(|j| (j, None)).collect());
    }

    /// [`ThreadPool::submit_batch`] with a shed handler per job.
    pub fn submit_batch_with_shed(&self, jobs: Vec<(Job, Option<Job>)>) {
        for (job, on_shed) in jobs {
            self.submit_with_shed(job, on_shed);
        }
    }

    fn enqueue(&self, job: QueuedJob) -> Enqueued {
        let mut state = recover::lock(&self.shared.state);
        loop {
            if state.shutdown {
                return Enqueued::Dropped;
            }
            if state.jobs.len() < self.shared.cap {
                state.jobs.push_back(job);
                self.shared
                    .metrics
                    .queue_depth
                    .fetch_add(1, Ordering::Relaxed);
                return Enqueued::Accepted;
            }
            match self.shared.overflow {
                OverflowPolicy::Block => {
                    state = recover::wait(&self.shared.space, state);
                }
                OverflowPolicy::RejectNewest => {
                    return Enqueued::Shed(job.on_shed);
                }
                OverflowPolicy::ShedOldest => {
                    let victim = state.jobs.pop_front().expect("cap >= 1, queue full");
                    state.jobs.push_back(job);
                    // victim's Job must drop outside the lock; hand both
                    // pieces out through the Shed arm
                    drop(state);
                    let QueuedJob { run, on_shed } = victim;
                    drop(run);
                    return Enqueued::Shed(on_shed);
                }
            }
        }
    }

    fn settle(&self, outcome: Enqueued) {
        match outcome {
            Enqueued::Accepted => self.shared.available.notify_one(),
            Enqueued::Shed(handler) => {
                self.shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                if let Some(h) = handler {
                    h();
                }
            }
            Enqueued::Dropped => {}
        }
    }

    /// Claims an evaluation slot for the calling thread, so it can run
    /// one evaluation itself instead of queueing it. `None` when every
    /// slot is taken, when a job is already queued (it keeps its place
    /// ahead of the caller), or after shutdown began. The slot is held
    /// until the returned [`Slot`] drops.
    pub fn try_claim(&self) -> Option<Slot<'_>> {
        let mut state = recover::lock(&self.shared.state);
        if state.shutdown || !state.jobs.is_empty() || state.running >= self.shared.threads {
            return None;
        }
        state.running += 1;
        Some(Slot {
            shared: &self.shared,
        })
    }

    /// Jobs currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        recover::lock(&self.shared.state).jobs.len()
    }

    /// Immediate shutdown: discards queued jobs and waits only for the
    /// jobs already running. Queued-but-never-run jobs are dropped, which
    /// disconnects any response channel they captured.
    pub fn shutdown_now(&mut self) {
        let dropped_jobs: Vec<QueuedJob> = {
            let mut state = recover::lock(&self.shared.state);
            state.shutdown = true;
            state.jobs.drain(..).collect()
        };
        self.shared
            .metrics
            .queue_depth
            .fetch_sub(dropped_jobs.len() as u64, Ordering::Relaxed);
        // dropping outside the lock: job destructors (channel senders,
        // arbitrary captures) must not run under the queue mutex
        drop(dropped_jobs);
        self.shared.available.notify_all();
        self.shared.space.notify_all();
        self.join_workers();
    }

    /// Graceful shutdown: lets workers drain the queue, then joins them.
    /// Equivalent to dropping the pool, but explicit at call sites.
    pub fn join(mut self) {
        self.begin_graceful_shutdown();
        self.join_workers();
    }

    fn begin_graceful_shutdown(&self) {
        let mut state = recover::lock(&self.shared.state);
        state.shutdown = true;
        drop(state);
        self.shared.available.notify_all();
        self.shared.space.notify_all();
    }

    fn join_workers(&mut self) {
        for handle in self.workers.drain(..) {
            // a worker can only die by a panic that escaped its own
            // catch_unwind (e.g. a panicking Job destructor); swallowing
            // the Err here keeps shutdown from cascading the panic
            let _ = handle.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.begin_graceful_shutdown();
            self.join_workers();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let me = WORKER_INDEX.with(|w| w.get());
    loop {
        // subtasks first: own deque, then injector, then steal. Finishing
        // in-flight requests beats starting new ones, and under the fixed
        // scheduler (`steal: None`) this is a no-op.
        while let Some(sub) = pop_subtask(shared, me) {
            run_subtask(shared, sub);
        }
        let job = {
            let mut state = recover::lock(&shared.state);
            loop {
                if state.running < shared.threads {
                    if let Some(job) = state.jobs.pop_front() {
                        state.running += 1;
                        break Some(job);
                    }
                }
                if state.shutdown && state.jobs.is_empty() {
                    // any still-queued subtasks belong to requests whose
                    // owning worker is mid-`run_tasks`; the owner's help
                    // loop drains them, so exiting here cannot strand work
                    return;
                }
                // re-check the stealing tier under the queue mutex: a
                // push takes this mutex (empty section) before notifying,
                // so the wakeup cannot slip between this check and wait
                if shared.steal.as_ref().is_some_and(StealState::has_work) {
                    break None;
                }
                state = recover::wait(&shared.available, state);
            }
        };
        let Some(job) = job else {
            continue; // back to the subtask fast path
        };
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared.space.notify_one();
        if catch_unwind(AssertUnwindSafe(job.run)).is_err() {
            shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
        }
        release_slot(shared);
    }
}

/// Ends one evaluation: frees its slot and, if jobs wait for one, wakes
/// a worker to take it.
fn release_slot(shared: &Shared) {
    let mut state = recover::lock(&shared.state);
    state.running -= 1;
    let waiting = !state.jobs.is_empty();
    drop(state);
    if waiting {
        shared.available.notify_one();
    }
}

/// An evaluation slot held by a caller that runs the evaluation on its
/// own thread; see [`ThreadPool::try_claim`]. Dropping it frees the slot.
pub struct Slot<'a> {
    shared: &'a Shared,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        release_slot(self.shared);
    }
}

/// A cloneable handle to a stealing pool's subtask tier.
#[derive(Clone)]
pub struct StealHandle {
    shared: Arc<Shared>,
}

impl StealHandle {
    /// Pushes a group's subtasks: onto the calling worker's own deque
    /// when the caller is a pool worker, else onto the shared injector.
    /// Wakes every parked worker either way.
    fn push(&self, subs: Vec<SubTask>) {
        let st = self.shared.steal.as_ref().expect("handle implies stealing");
        match WORKER_INDEX.with(|w| w.get()) {
            Some(i) if i < st.locals.len() => {
                recover::lock(&st.locals[i]).extend(subs);
            }
            _ => {
                let n = subs.len() as u64;
                recover::lock(&st.injector).extend(subs);
                self.shared
                    .metrics
                    .injector_depth
                    .fetch_add(n, Ordering::Relaxed);
            }
        }
        // empty critical section pairs with the has_work re-check in
        // worker_loop so a parked worker cannot miss this wakeup
        drop(recover::lock(&self.shared.state));
        self.shared.available.notify_all();
    }
}

/// The stealing pool's per-request implementation of the engine's
/// [`TaskExecutor`]: component subtasks run on existing pool workers
/// (owner included) instead of freshly spawned scoped threads.
///
/// Semantics preserved from the fixed path:
///
/// * **Cancellation** — the group is dropped wholesale if the request is
///   already cancelled, and every subtask re-checks the token where it
///   runs (a stolen subtask from a cancelled request short-circuits).
///   Skipped subtasks leave their component's result missing, which the
///   engine reports as a cancelled evaluation — exactly the skip
///   contract of [`TaskExecutor::run_tasks`].
/// * **Panic containment** — a panicking subtask is caught where it ran;
///   the first payload is re-thrown on the owner after the barrier, so
///   request-level containment sees the same panic the fixed path's
///   scope join would deliver.
/// * **Determinism** — stealing reorders execution only; the engine
///   combines component results in canonical order on the owner.
pub struct StealingExecutor {
    handle: StealHandle,
    cancel: CancelToken,
}

impl StealingExecutor {
    /// An executor for one request, carrying its ticket's cancel token.
    pub fn new(handle: StealHandle, cancel: CancelToken) -> Self {
        StealingExecutor { handle, cancel }
    }
}

impl TaskExecutor for StealingExecutor {
    fn run_tasks(&self, tasks: Vec<ParTask>) {
        if tasks.is_empty() {
            return;
        }
        if self.cancel.is_cancelled() {
            return; // skip the whole group: the engine sees missing results
        }
        let group = Arc::new(TaskGroup {
            state: Mutex::new(GroupState {
                remaining: tasks.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        let subs: Vec<SubTask> = tasks
            .into_iter()
            .map(|task| {
                let group = Arc::clone(&group);
                let cancel = self.cancel.clone();
                SubTask {
                    run: Box::new(move || {
                        let outcome = if cancel.is_cancelled() {
                            Ok(())
                        } else {
                            catch_unwind(AssertUnwindSafe(task))
                        };
                        let mut st = recover::lock(&group.state);
                        st.remaining -= 1;
                        if let Err(payload) = outcome {
                            st.panic.get_or_insert(payload);
                        }
                        drop(st);
                        group.done.notify_all();
                    }),
                }
            })
            .collect();
        self.handle.push(subs);
        // help until the barrier clears: run whatever is schedulable
        // (this group's subtasks first — they sit in our own deque — but
        // also other requests' work while ours is stolen and in flight)
        let shared = &self.handle.shared;
        let me = WORKER_INDEX.with(|w| w.get());
        loop {
            if recover::lock(&group.state).remaining == 0 {
                break;
            }
            match pop_subtask(shared, me) {
                Some(sub) => run_subtask(shared, sub),
                None => {
                    // nothing schedulable: our stragglers are running on
                    // other workers; park on the group barrier
                    let mut st = recover::lock(&group.state);
                    while st.remaining > 0 {
                        st = recover::wait(&group.done, st);
                    }
                    break;
                }
            }
        }
        let payload = recover::lock(&group.state).panic.take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TICKET_GRACE;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_all_jobs_across_workers() {
        let metrics = Arc::new(Metrics::new());
        let pool = ThreadPool::new(4, Arc::clone(&metrics));
        assert_eq!(pool.threads(), 4);
        assert_eq!(pool.queue_cap(), 4 * DEFAULT_QUEUE_CAP_PER_THREAD);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn batch_submission_runs_everything() {
        let pool = ThreadPool::new(2, Arc::new(Metrics::new()));
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..50)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.submit_batch(jobs);
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn graceful_drop_drains_the_queue() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(1, Arc::new(Metrics::new()));
            for _ in 0..20 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // drop here: must finish all 20, not abandon them
        }
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn shutdown_now_drops_queued_jobs_and_disconnects_receivers() {
        let metrics = Arc::new(Metrics::new());
        // explicit capacity: all 10 jobs must *queue* behind the blocker
        // without the Block policy stalling the submitting thread
        let mut pool = ThreadPool::with_config(
            PoolConfig {
                queue_cap: Some(16),
                ..PoolConfig::new(1)
            },
            Arc::clone(&metrics),
        );
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // first job occupies the single worker until we release it
        pool.submit(move || {
            block_rx.recv().ok();
        });
        let mut waiters = Vec::new();
        for i in 0..10 {
            let (tx, rx) = mpsc::channel::<u32>();
            pool.submit(move || {
                tx.send(i).ok();
            });
            waiters.push(rx);
        }
        block_tx.send(()).ok(); // release the in-flight job
        pool.shutdown_now();
        // every queued job either ran (sent) or was dropped (disconnect);
        // none may leave its receiver hanging
        for rx in waiters {
            match rx.recv_timeout(TICKET_GRACE) {
                Ok(_) | Err(mpsc::RecvTimeoutError::Disconnected) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("receiver left hanging after shutdown_now")
                }
            }
        }
    }

    #[test]
    fn worker_survives_job_panics() {
        let metrics = Arc::new(Metrics::new());
        let pool = ThreadPool::new(1, Arc::clone(&metrics));
        pool.submit(|| panic!("job goes boom"));
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.panics.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_stays_usable_after_a_panic_poisons_nothing() {
        // a worker panic must not wedge the pool: submit and shutdown
        // still work afterwards, and the panic is on the record
        let metrics = Arc::new(Metrics::new());
        let mut pool = ThreadPool::new(2, Arc::clone(&metrics));
        pool.submit(|| panic!("worker holds no job state"));
        // wait until the panic has been recorded
        let deadline = std::time::Instant::now() + TICKET_GRACE;
        while metrics.panics.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "panic never recorded");
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel::<u32>();
        pool.submit(move || {
            tx.send(42).ok();
        });
        assert_eq!(rx.recv_timeout(TICKET_GRACE).unwrap(), 42);
        assert_eq!(pool.queue_depth(), 0);
        pool.shutdown_now();
        assert_eq!(metrics.panics.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn block_policy_applies_backpressure_without_losing_jobs() {
        let metrics = Arc::new(Metrics::new());
        let pool = ThreadPool::with_config(
            PoolConfig {
                queue_cap: Some(2),
                ..PoolConfig::new(1)
            },
            Arc::clone(&metrics),
        );
        let counter = Arc::new(AtomicU64::new(0));
        // 30 jobs through a 2-slot queue: the submitter must block, and
        // every job must still run
        for _ in 0..30 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                std::thread::sleep(Duration::from_micros(100));
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 30);
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reject_newest_sheds_incoming_and_runs_its_handler() {
        let metrics = Arc::new(Metrics::new());
        let mut pool = ThreadPool::with_config(
            PoolConfig {
                queue_cap: Some(1),
                overflow: OverflowPolicy::RejectNewest,
                ..PoolConfig::new(1)
            },
            Arc::clone(&metrics),
        );
        let (block_tx, block_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            block_rx.recv().ok();
        });
        // wait until the blocker is actually running (queue empty again)
        let deadline = std::time::Instant::now() + TICKET_GRACE;
        while pool.queue_depth() > 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
        let ran = Arc::new(AtomicU64::new(0));
        let shed = Arc::new(AtomicU64::new(0));
        // fills the single slot
        let r = Arc::clone(&ran);
        pool.submit_with_shed(
            Box::new(move || {
                r.fetch_add(1, Ordering::Relaxed);
            }),
            None,
        );
        // queue full: this one must be rejected and its handler run
        let r = Arc::clone(&ran);
        let s = Arc::clone(&shed);
        pool.submit_with_shed(
            Box::new(move || {
                r.fetch_add(1, Ordering::Relaxed);
            }),
            Some(Box::new(move || {
                s.fetch_add(1, Ordering::Relaxed);
            })),
        );
        assert_eq!(shed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 1);
        block_tx.send(()).ok();
        // the accepted job must run before shutdown_now drains the
        // queue, or this races the worker's dequeue on a busy box
        let deadline = std::time::Instant::now() + TICKET_GRACE;
        while ran.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
        pool.shutdown_now();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_claimed_slot_counts_against_the_worker_bound() {
        let pool = ThreadPool::new(1, Arc::new(Metrics::new()));
        let slot = pool.try_claim().expect("an idle pool has a free slot");
        assert!(pool.try_claim().is_none(), "one worker, one slot");
        let (tx, rx) = mpsc::channel::<u32>();
        pool.submit(move || {
            tx.send(1).ok();
        });
        // the worker is idle, but the only slot is held: the job waits
        assert_eq!(pool.queue_depth(), 1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(100)),
            Err(mpsc::RecvTimeoutError::Timeout)
        );
        drop(slot);
        assert_eq!(rx.recv_timeout(TICKET_GRACE).unwrap(), 1);
        pool.join();
    }

    #[test]
    fn no_slot_is_claimed_past_a_queued_job_or_after_shutdown() {
        let mut pool = ThreadPool::new(2, Arc::new(Metrics::new()));
        let first = pool.try_claim().unwrap();
        let second = pool.try_claim().unwrap();
        assert!(pool.try_claim().is_none());
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            block_rx.recv().ok();
            done_tx.send(()).ok();
        });
        drop(second);
        // the freed slot belongs to the queued job: it is either still
        // queued (and keeps its place) or running (and holds the slot)
        assert!(pool.try_claim().is_none());
        block_tx.send(()).ok();
        done_rx.recv_timeout(TICKET_GRACE).unwrap();
        drop(first);
        pool.shutdown_now();
        assert!(pool.try_claim().is_none(), "no slot after shutdown");
    }

    fn stealing_pool(threads: usize, metrics: &Arc<Metrics>) -> ThreadPool {
        ThreadPool::with_config(
            PoolConfig {
                scheduler: SchedulerKind::Stealing,
                ..PoolConfig::new(threads)
            },
            Arc::clone(metrics),
        )
    }

    #[test]
    fn fixed_pool_has_no_steal_handle() {
        let pool = ThreadPool::new(2, Arc::new(Metrics::new()));
        assert!(pool.steal_handle().is_none());
    }

    #[test]
    fn external_owner_drains_its_group_through_the_injector() {
        let metrics = Arc::new(Metrics::new());
        let pool = stealing_pool(2, &metrics);
        let exec = StealingExecutor::new(pool.steal_handle().unwrap(), CancelToken::new());
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ParTask> = (0..8)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as ParTask
            })
            .collect();
        // the test thread is not a pool worker: the group goes through
        // the shared injector, and run_tasks is a completion barrier
        exec.run_tasks(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert_eq!(metrics.injector_depth.load(Ordering::Relaxed), 0);
        pool.join();
    }

    #[test]
    fn idle_worker_steals_from_a_busy_owner() {
        let metrics = Arc::new(Metrics::new());
        let pool = stealing_pool(2, &metrics);
        let handle = pool.steal_handle().unwrap();
        let (done_tx, done_rx) = mpsc::channel::<u64>();
        pool.submit(move || {
            let exec = StealingExecutor::new(handle, CancelToken::new());
            let (sig_tx, sig_rx) = mpsc::channel::<()>();
            // push order [signal, block]: the owner pops its own BACK
            // (the blocking task), so the signal task can only run if the
            // idle worker steals it from the deque's front
            let tasks: Vec<ParTask> = vec![
                Box::new(move || {
                    sig_tx.send(()).ok();
                }),
                Box::new(move || {
                    sig_rx.recv_timeout(TICKET_GRACE).expect("steal happened");
                }),
            ];
            exec.run_tasks(tasks);
            done_tx.send(42).ok();
        });
        assert_eq!(done_rx.recv_timeout(TICKET_GRACE).unwrap(), 42);
        assert!(metrics.steals.load(Ordering::Relaxed) >= 1);
        let per_worker = metrics
            .worker_tasks
            .get()
            .expect("stealing pool sizes counters");
        let total: u64 = per_worker.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 2, "both subtasks ran on pool workers");
        pool.join();
    }

    #[test]
    fn cancelled_request_subtasks_short_circuit() {
        let metrics = Arc::new(Metrics::new());
        let pool = stealing_pool(1, &metrics);
        let handle = pool.steal_handle().unwrap();
        let ran = Arc::new(AtomicU64::new(0));

        // already-cancelled request: the whole group is skipped
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let exec = StealingExecutor::new(handle.clone(), cancelled);
        let r = Arc::clone(&ran);
        exec.run_tasks(vec![Box::new(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }) as ParTask]);
        assert_eq!(ran.load(Ordering::Relaxed), 0);

        // cancellation mid-group: occupy the single worker so the test
        // thread runs its own subtasks in push order — the first cancels
        // the token, so the second (a "stolen task from a cancelled
        // request" in scheduler terms) must short-circuit
        let (block_tx, block_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            block_rx.recv().ok();
        });
        let deadline = std::time::Instant::now() + TICKET_GRACE;
        while pool.queue_depth() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "blocker never started"
            );
            std::thread::yield_now();
        }
        let token = CancelToken::new();
        let exec = StealingExecutor::new(handle, token.clone());
        let r = Arc::clone(&ran);
        let tasks: Vec<ParTask> = vec![
            Box::new(move || {
                token.cancel();
            }),
            Box::new(move || {
                r.fetch_add(1, Ordering::Relaxed);
            }),
        ];
        exec.run_tasks(tasks); // must return (skips still drain the barrier)
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        block_tx.send(()).ok();
        pool.join();
    }

    #[test]
    fn subtask_panic_resurfaces_on_the_owner_and_spares_the_workers() {
        let metrics = Arc::new(Metrics::new());
        let pool = stealing_pool(2, &metrics);
        let exec = StealingExecutor::new(pool.steal_handle().unwrap(), CancelToken::new());
        let survivor = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&survivor);
        let tasks: Vec<ParTask> = vec![
            Box::new(|| panic!("component goes boom")),
            Box::new(move || {
                s.fetch_add(1, Ordering::Relaxed);
            }),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| exec.run_tasks(tasks)))
            .expect_err("owner re-throws the subtask panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "component goes boom");
        // the barrier drained: the sibling subtask still ran
        assert_eq!(survivor.load(Ordering::Relaxed), 1);
        // containment happened at the executor, not the worker loop
        assert_eq!(metrics.panics.load(Ordering::Relaxed), 0);
        // workers survive: the pool still runs ordinary jobs
        let (tx, rx) = mpsc::channel::<u32>();
        pool.submit(move || {
            tx.send(7).ok();
        });
        assert_eq!(rx.recv_timeout(TICKET_GRACE).unwrap(), 7);
        pool.join();
    }

    #[test]
    fn shed_oldest_evicts_the_queued_victim() {
        let metrics = Arc::new(Metrics::new());
        let mut pool = ThreadPool::with_config(
            PoolConfig {
                queue_cap: Some(1),
                overflow: OverflowPolicy::ShedOldest,
                ..PoolConfig::new(1)
            },
            Arc::clone(&metrics),
        );
        let (block_tx, block_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            block_rx.recv().ok();
        });
        let deadline = std::time::Instant::now() + TICKET_GRACE;
        while pool.queue_depth() > 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
        let (first_tx, first_rx) = mpsc::channel::<&str>();
        let (second_tx, second_rx) = mpsc::channel::<&str>();
        let ftx = first_tx.clone();
        pool.submit_with_shed(
            Box::new(move || {
                ftx.send("ran").ok();
            }),
            Some(Box::new(move || {
                first_tx.send("shed").ok();
            })),
        );
        // queue full: the *first* job is evicted, the second takes its slot
        let stx = second_tx.clone();
        pool.submit_with_shed(
            Box::new(move || {
                stx.send("ran").ok();
            }),
            Some(Box::new(move || {
                second_tx.send("shed").ok();
            })),
        );
        assert_eq!(first_rx.recv_timeout(TICKET_GRACE).unwrap(), "shed");
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 1);
        block_tx.send(()).ok();
        assert_eq!(second_rx.recv_timeout(TICKET_GRACE).unwrap(), "ran");
        pool.shutdown_now();
    }
}
