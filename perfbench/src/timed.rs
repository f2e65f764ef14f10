//! The timed runs: closed loops through the HTTP front door, no spans.

use crate::client::{batch_body, query_body, Conn};
use crate::fixture::{self, Deployment, WorkDir};
use crate::gen::{Inputs, Item, Query, Rng, Workload};
use crate::oracle::{self, Observed};
use crate::stats::Samples;
use infpdb_net::server::HttpServer;
use infpdb_store::SnapshotInfo;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

pub struct Options {
    pub seconds: f64,
    pub threads: usize,
    /// Set-ups before the timed phase. One more follows every window
    /// (every episode in refine-store), while the clients wait, and
    /// `setup_s` is the median of them all.
    pub setup_reps: usize,
    /// Flip one bit of the estimate of this answer (0-based, in arrival
    /// order) before checking it: the self-test that the oracle bites.
    pub corrupt: Option<usize>,
}

/// The timed phase of hot-http and cold-mix is cut into windows of this
/// length; refine-store's windows are its episodes. The end-to-end
/// throughput and latency metrics are medians over the windows, so a
/// burst of interference from outside the process moves one window,
/// not the result. The set-ups between windows spread `setup_s` over
/// the run in the same way.
const WINDOW_S: f64 = 1.0;

#[derive(Debug, Default, Clone)]
pub struct Window {
    pub seconds: f64,
    pub latency_ms: Samples,
}

pub struct TimedReport {
    pub setup_s: Samples,
    pub windows: Vec<Window>,
    pub snapshot_ms: Samples,
    pub attempted: usize,
    pub failed: usize,
    pub answered: usize,
    pub peak_rss_mb: f64,
    pub failures: Vec<String>,
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    observed: Vec<Observed>,
    /// Per answered query: when its answer arrived, and its latency.
    answers: Vec<(Instant, Duration)>,
}

/// Every start of the stack in a run: each one is timed on a fresh
/// store directory and followed by the snapshot `infpdb serve --store`
/// takes right after its warm.
struct Setups<'a> {
    inputs: &'a Inputs,
    work: &'a WorkDir,
    image: PathBuf,
    threads: usize,
    started: usize,
    setup_s: Samples,
    snapshot_ms: Samples,
}

impl Setups<'_> {
    /// Starts the stack once more and times it.
    fn start(&mut self) -> Result<(HttpServer, Deployment), String> {
        let dep = Deployment {
            threads: self.threads,
            store_dir: self.work.sub(&format!("store{}", self.started)),
        };
        self.started += 1;
        fixture::fresh_store(self.inputs, &self.image, &dep.store_dir)?;
        let r = fixture::start(self.inputs, &dep)?;
        self.setup_s.push(r.setup_s);
        self.snapshot(&r.server)?;
        Ok((r.server, dep))
    }

    /// A start that serves nothing: timed, then stopped and removed.
    fn probe(&mut self) -> Result<(), String> {
        let (server, dep) = self.start()?;
        server.shutdown();
        std::fs::remove_dir_all(&dep.store_dir).ok();
        Ok(())
    }

    fn snapshot(&mut self, server: &HttpServer) -> Result<SnapshotInfo, String> {
        let (secs, info) = fixture::snapshot(server)?;
        if !info.unchanged {
            self.snapshot_ms.push(secs * 1e3);
        }
        Ok(info)
    }
}

pub fn run(inputs: &Inputs, opts: &Options) -> Result<TimedReport, String> {
    let work = WorkDir::create(inputs.workload.name())?;
    let image = work.sub("image");
    if inputs.workload == Workload::RefineStore {
        fixture::build_image(inputs, &image)?;
    }
    let mut setups = Setups {
        inputs,
        work: &work,
        image: image.clone(),
        threads: opts.threads,
        started: 0,
        setup_s: Samples::default(),
        snapshot_ms: Samples::default(),
    };
    for _ in 1..opts.setup_reps.max(1) {
        setups.probe()?;
    }
    let (mut server, mut dep) = setups.start()?;
    let addr = server.addr();
    let mut logs: Vec<ConnLog> = Vec::new();

    if inputs.workload == Workload::HotHttp {
        // untimed pass that fills the result cache with the whole pool
        let mut conn = Conn::open(addr)?;
        let mut log = ConnLog::default();
        for q in &inputs.pool {
            send_query(&mut conn, q, &mut log);
        }
        // checked below, but not part of the timed phase
        log.answers.clear();
        logs.push(log);
    }

    let mut windows = Vec::new();
    let mut bad_requests = 0;
    match inputs.workload {
        Workload::HotHttp | Workload::ColdMix => {
            let count = ((opts.seconds / WINDOW_S).round() as usize).max(1);
            let bounds = closed_loop(inputs, addr, opts.threads, count, &mut setups, &mut logs)?;
            windows = bounds
                .iter()
                .map(|(from, to)| Window {
                    seconds: to.duration_since(*from).as_secs_f64(),
                    ..Window::default()
                })
                .collect();
            for log in &logs {
                for (at, latency) in &log.answers {
                    // clients send only inside windows, so every answer
                    // arrives inside one
                    let k = bounds.partition_point(|(from, _)| from <= at);
                    windows[k.max(1) - 1]
                        .latency_ms
                        .push(latency.as_secs_f64() * 1e3);
                }
            }
        }
        Workload::RefineStore => {
            // episodes back to back, each on a fresh copy of the image
            // and each one window; the start of the next episode is one
            // more set-up. The first episode is an untimed warm-up: it
            // runs on a heap that has not grown yet.
            let mut deadline = None;
            let episode = inputs.refine_episode();
            let mut log = ConnLog::default();
            loop {
                let mut conn = Conn::open(server.addr())?;
                let (first, t0) = (log.answers.len(), Instant::now());
                let mut complete = true;
                for item in &episode {
                    complete = deadline.is_none_or(|d| Instant::now() < d)
                        && match item {
                            Item::Query(q) => send_query(&mut conn, q, &mut log),
                            _ => setups.snapshot(&server).map(|_| true)?,
                        };
                    if !complete {
                        break;
                    }
                }
                if deadline.is_none() {
                    deadline = Some(Instant::now() + Duration::from_secs_f64(opts.seconds));
                } else if complete || windows.is_empty() {
                    // a cut episode is a window only when it is the sole one
                    let mut w = Window {
                        seconds: t0.elapsed().as_secs_f64(),
                        ..Window::default()
                    };
                    w.latency_ms.extend(
                        log.answers[first..]
                            .iter()
                            .map(|(_, l)| l.as_secs_f64() * 1e3),
                    );
                    windows.push(w);
                }
                if !complete {
                    break;
                }
                drop(conn);
                bad_requests += server.net_metrics().bad_requests.load(Ordering::Relaxed);
                let (next, next_dep) = setups.start()?;
                std::mem::replace(&mut server, next).shutdown();
                std::fs::remove_dir_all(std::mem::replace(&mut dep, next_dep).store_dir).ok();
            }
            logs.push(log);
        }
    }
    let peak_rss_mb = fixture::peak_rss_mb();
    bad_requests += server.net_metrics().bad_requests.load(Ordering::Relaxed);

    // the final snapshot `infpdb serve` takes on a graceful stop: the
    // last acknowledged one, which the durability check reloads
    let last = setups.snapshot(&server)?;
    let served_pdb_fp =
        infpdb_serve::fingerprint::countable_pdb_fingerprint(server.service().pdb());
    server.shutdown();

    let mut failures = Vec::new();
    if bad_requests > 0 {
        failures.push(format!(
            "{bad_requests} requests counted as bad by the server"
        ));
    }
    let pdb = fixture::build_pdb(inputs, &mut crate::spans::SpanLog::off())?;
    if let Err(e) = fixture::durability_check(&pdb, &dep.store_dir, last.facts) {
        failures.push(format!("durability: {e}"));
    }

    let answered = windows.iter().map(|w| w.latency_ms.len()).sum();
    let mut observed: Vec<Observed> = logs.into_iter().flat_map(|l| l.observed).collect();
    if let Some(i) = opts.corrupt {
        if let Some(o) = observed.get_mut(i) {
            o.corrupt();
        }
    }
    let check = oracle::check(inputs, &observed, opts.threads, served_pdb_fp)?;
    failures.extend(check.failures);
    // hot-http's fill pass is untimed, but checked and counted like the rest
    let attempted = observed.len();
    Ok(TimedReport {
        setup_s: setups.setup_s,
        windows,
        snapshot_ms: setups.snapshot_ms,
        attempted,
        failed: check.failed,
        answered,
        peak_rss_mb,
        failures,
    })
}

/// The closed loop of hot-http and cold-mix: `threads` keep-alive
/// connections send for `count` windows of [`WINDOW_S`]. After each
/// window they wait while the stack is set up once more, so the set-up
/// samples spread over the whole run as the windows do. Returns each
/// window's start and end; the end is when the last in-flight answer
/// of the window arrived.
fn closed_loop(
    inputs: &Inputs,
    addr: SocketAddr,
    threads: usize,
    count: usize,
    setups: &mut Setups,
    logs: &mut Vec<ConnLog>,
) -> Result<Vec<(Instant, Instant)>, String> {
    let go = Arc::new(Barrier::new(threads + 1));
    let done = Arc::new(Barrier::new(threads + 1));
    // the current window's end; `None` once the last window is over
    let until = Arc::new(Mutex::new(None::<Instant>));
    let next = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|c| {
            let inputs = inputs.clone();
            let (go, done) = (Arc::clone(&go), Arc::clone(&done));
            let (until, next) = (Arc::clone(&until), Arc::clone(&next));
            std::thread::spawn(move || {
                let mut log = ConnLog::default();
                let mut rng = Rng::lane(inputs.seed, 100 + c as u64);
                let mut conn = Conn::open(addr).ok();
                loop {
                    go.wait();
                    let Some(end) = *until.lock().unwrap_or_else(|e| e.into_inner()) else {
                        break;
                    };
                    while let Some(open) = conn.as_mut().filter(|_| Instant::now() < end) {
                        let alive = match inputs.workload {
                            Workload::HotHttp => {
                                let q = &inputs.pool[inputs.hot_draw(&mut rng)];
                                send_query(open, q, &mut log)
                            }
                            _ => {
                                let batch = inputs.cold_batch(next.fetch_add(1, Ordering::Relaxed));
                                send_batch(open, &batch, &mut log)
                            }
                        };
                        if !alive {
                            conn = None;
                        }
                    }
                    done.wait();
                }
                log
            })
        })
        .collect();
    let mut bounds = Vec::with_capacity(count);
    let mut outcome = Ok(());
    for _ in 0..count {
        let from = Instant::now();
        *until.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(from + Duration::from_secs_f64(WINDOW_S));
        go.wait();
        done.wait();
        bounds.push((from, Instant::now()));
        outcome = setups.probe();
        if outcome.is_err() {
            break;
        }
    }
    *until.lock().unwrap_or_else(|e| e.into_inner()) = None;
    go.wait();
    for h in handles {
        logs.push(h.join().map_err(|_| "client thread panicked")?);
    }
    outcome.map(|()| bounds)
}

/// `POST /query`; false when the connection is gone.
fn send_query(conn: &mut Conn, q: &Query, log: &mut ConnLog) -> bool {
    let t = Instant::now();
    let result = conn.post("/query", &query_body(&q.text, q.eps));
    match result {
        Ok((status, lines)) => {
            log.answers.push((Instant::now(), t.elapsed()));
            let line = lines.into_iter().next().map(|l| l.text);
            log.observed.push(Observed::new(q, status, line));
            true
        }
        Err(e) => {
            log.observed.push(Observed::transport(q, e));
            false
        }
    }
}

/// `POST /batch`; each element's latency ends when its line arrives.
fn send_batch(conn: &mut Conn, batch: &[Query], log: &mut ConnLog) -> bool {
    let t = Instant::now();
    let body = batch_body(batch.iter().map(|q| (q.text.as_str(), q.eps)));
    match conn.post("/batch", &body) {
        Ok((status, lines)) => {
            let mut lines = lines.into_iter();
            for q in batch {
                match lines.next() {
                    Some(line) => {
                        log.answers.push((line.at, line.at.duration_since(t)));
                        log.observed.push(Observed::new(q, status, Some(line.text)));
                    }
                    None => log.observed.push(Observed::new(q, status, None)),
                }
            }
            true
        }
        Err(e) => {
            for q in batch {
                log.observed.push(Observed::transport(q, e.clone()));
            }
            false
        }
    }
}
