//! The traced run: one client replays the workload's request stream
//! three times, each from the same fresh state —
//!
//! * **H**: over HTTP (span `net.http` per request);
//! * **E**: through `QueryService` (spans `logic.parse`,
//!   `serve.evaluate`, `serve.snapshot`);
//! * **L**: through the layer functions the service calls, in its
//!   order (see [`crate::replay`]).
//!
//! The three passes keep separate state and advance together, block by
//! block, so the three spans of one request are taken close in time.
//! The whole replay runs [`ROUNDS`] times, and a request's span sums
//! are the median over the rounds. Net self time is the H span minus
//! the E spans; serve self time is the E span minus the L spans; every
//! other crate's self time is its L spans. The service runs one worker
//! here, so a request's spans nest on one thread and line up across
//! the passes.

use crate::client::{batch_body, query_body, Conn};
use crate::fixture::{self, Deployment, WorkDir};
use crate::gen::{Digest, Inputs, Item, Workload};
use crate::oracle::{self, Observed};
use crate::replay::{Replay, ReplayStats};
use crate::spans::{Span, SpanLog};
use crate::stats::{Report, Samples};
use infpdb_logic::parse;
use infpdb_net::server::HttpServer;
use infpdb_query::prepared::PreparedPdb;
use infpdb_serve::fingerprint::countable_pdb_fingerprint;
use infpdb_serve::{Metrics, QueryRequest, QueryResponse};
use infpdb_store::Store;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Requests each pass replays before the next pass takes its turn.
const BLOCK: usize = 25;

/// Rounds of the three passes. The passes of one request are timed
/// apart, so a burst of host noise can stretch one of them; the median
/// over the rounds discards it.
const ROUNDS: usize = 5;

pub const LAYERS: [&str; 7] = ["net", "serve", "logic", "query", "finite", "ti", "store"];

pub struct TracedReport {
    pub report: Report,
    /// Exact-repeat work counters, in print order.
    pub counters: Vec<(&'static str, u64)>,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Total self time per layer over the timed part of the stream (ns).
    pub self_ns: Vec<(&'static str, u64)>,
    /// Layer-replay time per query shape over the timed part (ns).
    pub shape_ns: Vec<(&'static str, u64)>,
    /// The spans of all three passes plus set-up, as JSON lines.
    pub spans_json: String,
}

/// Serve-layer counters read from pass H's registry.
struct ServeCounters {
    wait_us_mean: u64,
    run_us_mean: u64,
    cache_hits: u64,
    cache_misses: u64,
    plan_hits: u64,
    plan_misses: u64,
    steals: u64,
    plan_choice: [u64; 4],
    expansions: u64,
    memo_hits: u64,
    arena_nodes: u64,
}

impl ServeCounters {
    fn read(m: &Metrics) -> Self {
        let c = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        ServeCounters {
            wait_us_mean: m.wait.mean_micros(),
            run_us_mean: m.run.mean_micros(),
            cache_hits: c(&m.cache_hits),
            cache_misses: c(&m.cache_misses),
            plan_hits: c(&m.plan_cache_hits),
            plan_misses: c(&m.plan_cache_misses),
            steals: c(&m.steals),
            plan_choice: std::array::from_fn(|i| c(&m.plan_choice[i])),
            expansions: c(&m.shannon_expansions),
            memo_hits: c(&m.shannon_memo_hits),
            arena_nodes: c(&m.arena_nodes),
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Pass H: the request over HTTP.
struct HttpLane {
    server: HttpServer,
    conn: Conn,
    log: SpanLog,
    observed: Vec<Observed>,
}

impl HttpLane {
    fn step(&mut self, i: usize, item: &Item) -> Result<(), String> {
        self.log.req = Some(i);
        let (conn, observed) = (&mut self.conn, &mut self.observed);
        match item {
            Item::Snapshot => {
                let server = &self.server;
                self.log
                    .time("request", "serve.snapshot", || fixture::snapshot(server))?;
            }
            _ => {
                let (path, body) = match item {
                    Item::Query(q) => ("/query", query_body(&q.text, q.eps)),
                    _ => (
                        "/batch",
                        batch_body(item.queries().iter().map(|q| (q.text.as_str(), q.eps))),
                    ),
                };
                let (status, lines) = self
                    .log
                    .time("request", "net.http", || conn.post(path, &body))?;
                let mut lines = lines.into_iter();
                for q in item.queries() {
                    observed.push(Observed::new(q, status, lines.next().map(|l| l.text)));
                }
            }
        }
        Ok(())
    }
}

/// Pass E: the request through `QueryService`, as the front door hands
/// it over (parse, then evaluate or submit the batch).
struct ServiceLane {
    server: HttpServer,
    log: SpanLog,
    strategies: Digest,
    snapshot_bytes: u64,
    snapshot_shards: u64,
}

impl ServiceLane {
    fn step(&mut self, i: usize, item: &Item) -> Result<(), String> {
        self.log.req = Some(i);
        let service = self.server.service();
        if let Item::Snapshot = item {
            let info = self
                .log
                .time("net.http", "serve.snapshot", || service.snapshot())
                .map_err(|e| e.to_string())?
                .ok_or("no store")?;
            self.snapshot_bytes += info.bytes;
            self.snapshot_shards += info.shards_written as u64;
            return Ok(());
        }
        let schema = service.pdb().schema();
        let mut requests = Vec::new();
        for q in item.queries() {
            let f = self
                .log
                .time("net.http", "logic.parse", || parse(&q.text, schema))
                .map_err(|e| format!("{}: {e}", q.text))?;
            requests.push(QueryRequest::new(f, q.eps));
        }
        let responses: Vec<QueryResponse> = self
            .log
            .time("net.http", "serve.evaluate", || match item {
                Item::Batch(_) => service
                    .submit_batch(requests)
                    .into_iter()
                    .map(|t| t.wait())
                    .collect::<Result<Vec<_>, _>>(),
                _ => requests.into_iter().map(|r| service.evaluate(r)).collect(),
            })
            .map_err(|e| format!("request {i}: {e}"))?;
        for r in &responses {
            self.strategies.u64(u64::from(r.cached));
            if let Some(p) = r.trace.plan {
                self.strategies
                    .bytes(&[p.lifted, p.shannon, p.monte_carlo, p.karp_luby].map(|n| n as u8));
            }
        }
        Ok(())
    }
}

/// Pass L: the layer functions, through [`Replay`].
struct LayerLane {
    replay: Replay,
    log: SpanLog,
    /// Replay time by query shape (timed part of the stream only).
    shape_ns: BTreeMap<&'static str, u64>,
    prelude: usize,
}

impl LayerLane {
    fn step(&mut self, i: usize, item: &Item) -> Result<(), String> {
        self.log.req = Some(i);
        if let Item::Snapshot = item {
            return self
                .replay
                .snapshot("serve.snapshot", &mut self.log)
                .map(|_| ());
        }
        for q in item.queries() {
            let f =
                parse(&q.text, self.replay.prepared.pdb().schema()).map_err(|e| e.to_string())?;
            let t = Instant::now();
            self.replay.answer(&f, q.eps, &mut self.log)?;
            if i >= self.prelude {
                *self.shape_ns.entry(q.shape).or_default() += t.elapsed().as_nanos() as u64;
            }
        }
        Ok(())
    }
}

/// What one round of the three passes leaves behind.
struct Round {
    h: SpanLog,
    e: SpanLog,
    l: SpanLog,
    observed: Vec<Observed>,
    bytes_in: u64,
    bad_requests: u64,
    serve: ServeCounters,
    served_fp: u64,
    facts_grown: u64,
    e_expansions: u64,
    e_cache_hits: u64,
    strategies: u64,
    snapshot_bytes: u64,
    snapshot_shards: u64,
    stats: ReplayStats,
    mmap_fallbacks: u64,
    shape_ns: BTreeMap<&'static str, u64>,
}

impl Round {
    fn e(&self) -> &SpanLog {
        &self.e
    }

    fn l(&self) -> &SpanLog {
        &self.l
    }
}

/// Round `r`: three fresh copies of the same state, each set up like
/// `infpdb serve --store` (start, warm, snapshot), then the stream
/// through all three passes.
fn round(
    inputs: &Inputs,
    items: &[Item],
    prelude: usize,
    work: &WorkDir,
    image: &Path,
    r: usize,
) -> Result<Round, String> {
    let dep = |pass: &str| -> Result<Deployment, String> {
        let d = Deployment {
            threads: 1,
            store_dir: work.sub(&format!("{pass}{r}")),
        };
        fixture::fresh_store(inputs, image, &d.store_dir)?;
        Ok(d)
    };

    let server = fixture::start(inputs, &dep("h")?)?.server;
    fixture::snapshot(&server)?;
    let mut lane_h = HttpLane {
        conn: Conn::open(server.addr())?,
        server,
        log: SpanLog::on(),
        observed: Vec::new(),
    };

    let mut e = SpanLog::on();
    let server = fixture::start_traced(inputs, &dep("e")?, &mut e)?;
    e.time("setup", "serve.snapshot", || server.service().snapshot())
        .map_err(|err| err.to_string())?;
    let materialized = server.service().materialized_len();
    let mut lane_e = ServiceLane {
        server,
        log: e,
        strategies: Digest::default(),
        snapshot_bytes: 0,
        snapshot_shards: 0,
    };

    let mut l = SpanLog::on();
    let d = dep("l")?;
    let pdb = fixture::build_pdb(inputs, &mut l)?;
    let pdb_fp = countable_pdb_fingerprint(&pdb);
    let store = Store::open_dir(&d.store_dir);
    let recovered = l
        .time("setup", "store.load", || store.load())
        .map_err(|err| err.to_string())?;
    let mmap_fallbacks = recovered.map_or(0, |r| r.report.mmap_fallbacks);
    let (prepared, _) = l.time("setup", "query.open", || {
        PreparedPdb::open(pdb, &store, Some(pdb_fp))
    });
    let mut replay = Replay::new(prepared, Some(store));
    l.time("setup", "query.warm", || {
        replay.prepared.warm(inputs.warm_eps)
    })
    .map_err(|err| err.to_string())?;
    replay.snapshot("setup", &mut l)?;
    let mut lane_l = LayerLane {
        replay,
        log: l,
        shape_ns: BTreeMap::new(),
        prelude,
    };

    // block by block, the three passes back to back: blocks keep each
    // pass's threads as busy as in a closed loop, and the order rotates
    // so no pass always runs on the others' warm caches
    for (b, block) in items.chunks(BLOCK).enumerate() {
        for k in 0..3 {
            for (j, item) in block.iter().enumerate() {
                let i = b * BLOCK + j;
                match (b + k) % 3 {
                    0 => lane_h
                        .step(i, item)
                        .map_err(|err| format!("HTTP pass, request {i}: {err}"))?,
                    1 => lane_e.step(i, item)?,
                    _ => lane_l.step(i, item)?,
                }
            }
        }
    }

    let HttpLane {
        server,
        conn,
        log: h,
        observed,
    } = lane_h;
    let bytes_in = conn.bytes_in;
    drop(conn);
    let bad_requests = server.net_metrics().bad_requests.load(Ordering::Relaxed);
    let serve = ServeCounters::read(server.service().metrics());
    let served_fp = countable_pdb_fingerprint(server.service().pdb());
    server.shutdown();
    let service = lane_e.server.service();
    let facts_grown = (service.materialized_len() - materialized) as u64;
    let e_expansions = service.metrics().shannon_expansions.load(Ordering::Relaxed);
    let e_cache_hits = service.metrics().cache_hits.load(Ordering::Relaxed);
    lane_e.server.shutdown();
    Ok(Round {
        h,
        e: lane_e.log,
        l: lane_l.log,
        observed,
        bytes_in,
        bad_requests,
        serve,
        served_fp,
        facts_grown,
        e_expansions,
        e_cache_hits,
        strategies: lane_e.strategies.finish(),
        snapshot_bytes: lane_e.snapshot_bytes,
        snapshot_shards: lane_e.snapshot_shards,
        stats: lane_l.replay.stats,
        mmap_fallbacks,
        shape_ns: lane_l.shape_ns,
    })
}

/// Per request, the span sums self times are made of: the H span, the
/// E pass's parse and evaluate, and the L spans of the five layers
/// below the service (`LAYERS[2..]`).
const SUMS: usize = 8;

fn span_sums(rd: &Round, requests: usize) -> Vec<[f64; SUMS]> {
    let mut sums = vec![[0f64; SUMS]; requests];
    let mut add = |s: &Span, k: usize| {
        if let Some(i) = s.req {
            sums[i][k] += s.ns() as f64;
        }
    };
    for s in &rd.h.spans {
        add(s, 0);
    }
    for s in &rd.e.spans {
        match s.name {
            "logic.parse" => add(s, 1),
            "serve.evaluate" => add(s, 2),
            _ => {}
        }
    }
    for s in &rd.l.spans {
        let layer = s.name.split('.').next();
        if let Some(k) = LAYERS[2..].iter().position(|l| Some(*l) == layer) {
            add(s, 3 + k);
        }
    }
    sums
}

pub fn run(inputs: &Inputs, oracle_threads: usize) -> Result<TracedReport, String> {
    let (items, prelude) = inputs.stream();
    let work = WorkDir::create(&format!("{}-trace", inputs.workload.name()))?;
    let image = work.sub("image");
    if inputs.workload == Workload::RefineStore {
        fixture::build_image(inputs, &image)?;
    }
    let origin = Instant::now();
    let rounds = (0..ROUNDS)
        .map(|r| round(inputs, &items, prelude, &work, &image, r))
        .collect::<Result<Vec<_>, _>>()?;
    // every round does the same work: counters come from the first
    let first = &rounds[0];

    // ---- attribution ---------------------------------------------------
    let per_round: Vec<Vec<[f64; SUMS]>> =
        rounds.iter().map(|rd| span_sums(rd, items.len())).collect();
    let median = |i: usize, k: usize| {
        let mut v: Vec<f64> = per_round.iter().map(|sums| sums[i][k]).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    // Raw self times difference the spans of separate passes. Summed
    // over requests, the noise in them cancels, and the shares use those
    // sums. Per request, a negative self time means an inner pass
    // outlasted its parent: time counted twice. So the checks clamp
    // each self time at 0 and compare the sum with the request's H
    // span: per request, and summed over the requests, where the
    // excess is the share of traced time counted twice.
    let mut self_ns = [0f64; 7];
    let mut net_self = Samples::default();
    let mut serve_self = Samples::default();
    let (mut within, mut timed_requests, mut timed_queries) = (0usize, 0usize, 0usize);
    let (mut http_total, mut twice_total) = (0f64, 0f64);
    for (i, item) in items.iter().enumerate().skip(prelude) {
        let m: [f64; SUMS] = std::array::from_fn(|k| median(i, k));
        let http = m[0];
        let (parse, eval) = match item {
            // the client's inline snapshot: H holds `serve.snapshot`
            Item::Snapshot => (0.0, http),
            _ => (m[1], m[2]),
        };
        let mut raw = [0f64; 7];
        raw[0] = http - parse - eval;
        raw[1] = eval - m[3..].iter().sum::<f64>();
        raw[2] = parse;
        for (k, v) in m[3..].iter().enumerate() {
            raw[2 + k] += v;
        }
        let clamped: f64 = raw.iter().map(|v| v.max(0.0)).sum();
        if (clamped - http).abs() <= 0.1 * http {
            within += 1;
        }
        if !matches!(item, Item::Snapshot) {
            net_self.push(raw[0] / 1e3);
            serve_self.push(raw[1] / 1e3);
        }
        timed_requests += 1;
        timed_queries += item.queries().len();
        http_total += http;
        twice_total -= raw.iter().filter(|v| **v < 0.0).sum::<f64>();
        for (acc, v) in self_ns.iter_mut().zip(raw) {
            *acc += v;
        }
    }
    let self_ns = self_ns.map(|v| v.max(0.0));

    // ---- the per-layer metrics -----------------------------------------
    let mut r = Report::default();
    // a span's durations over every round, in µs
    let us = |pass: fn(&Round) -> &SpanLog, name: &str| {
        let mut s = Samples::default();
        for rd in &rounds {
            s.extend(
                pass(rd)
                    .durations(name)
                    .into_iter()
                    .map(|ns| ns as f64 / 1e3),
            );
        }
        s
    };
    let p50 = |r: &mut Report, metric: &str, s: Samples, unit: &'static str, scale: f64| {
        r.add(metric, s.median() * scale, unit, s.len());
    };
    let serve = &first.serve;
    let answered: usize = items.iter().map(|i| i.queries().len()).sum();
    r.add(
        "net.self_us_p50",
        net_self.median().max(0.0),
        "us",
        net_self.len(),
    );
    r.add(
        "net.response_bytes",
        first.bytes_in as f64 / answered.max(1) as f64,
        "B/answer",
        answered,
    );
    let bad_requests: u64 = rounds.iter().map(|rd| rd.bad_requests).sum();
    r.add("net.bad_requests", bad_requests as f64, "count", ROUNDS);
    p50(
        &mut r,
        "serve.build_s",
        us(Round::e, "serve.build"),
        "s",
        1e-6,
    );
    r.add(
        "serve.self_us_p50",
        serve_self.median().max(0.0),
        "us",
        serve_self.len(),
    );
    r.add(
        "serve.queue_wait_us_mean",
        serve.wait_us_mean as f64,
        "us",
        answered,
    );
    r.add(
        "serve.run_us_mean",
        serve.run_us_mean as f64,
        "us",
        serve.cache_misses as usize,
    );
    let lookups = serve.cache_hits + serve.cache_misses;
    r.add(
        "serve.cache_hit_ratio",
        ratio(serve.cache_hits, lookups),
        "fraction",
        lookups as usize,
    );
    let plan_lookups = serve.plan_hits + serve.plan_misses;
    r.add(
        "serve.plan_cache_hit_ratio",
        ratio(serve.plan_hits, plan_lookups),
        "fraction",
        plan_lookups as usize,
    );
    r.add("serve.steals", serve.steals as f64, "count", 1);
    p50(
        &mut r,
        "logic.parse_us_p50",
        us(Round::e, "logic.parse"),
        "us",
        1.0,
    );
    p50(
        &mut r,
        "logic.fingerprint_us_p50",
        us(Round::l, "logic.fingerprint"),
        "us",
        1.0,
    );
    p50(
        &mut r,
        "logic.compile_us_p50",
        us(Round::l, "logic.compile"),
        "us",
        1.0,
    );
    p50(
        &mut r,
        "query.truncate_us_p50",
        us(Round::l, "query.truncate"),
        "us",
        1.0,
    );
    p50(
        &mut r,
        "query.warm_s",
        us(Round::e, "query.warm"),
        "s",
        1e-6,
    );
    let stats = &first.stats;
    let mut grow_ns = Samples::default();
    grow_ns.extend(rounds.iter().map(|rd| rd.stats.grow_ns as f64));
    let grow_ns = grow_ns.median();
    r.add("query.grow_ms", grow_ns / 1e6, "ms", ROUNDS);
    r.add(
        "query.grow_ns_per_fact",
        grow_ns / stats.facts_grown.max(1) as f64,
        "ns/fact",
        stats.facts_grown as usize,
    );
    r.add("query.facts_grown", stats.facts_grown as f64, "count", 1);
    p50(
        &mut r,
        "query.profile_ms_p50",
        us(Round::l, "query.profile"),
        "ms",
        1e-3,
    );
    p50(
        &mut r,
        "query.plan_us_p50",
        us(Round::l, "query.plan"),
        "us",
        1.0,
    );
    p50(
        &mut r,
        "query.open_s",
        us(Round::l, "query.open"),
        "s",
        1e-6,
    );
    p50(
        &mut r,
        "finite.eval_ms_p50",
        us(Round::l, "finite.eval"),
        "ms",
        1e-3,
    );
    for label in ["lifted", "shannon", "mc", "kl", "mixed"] {
        let mut s = Samples::default();
        for rd in &rounds {
            s.extend(
                rd.stats
                    .evals
                    .iter()
                    .filter(|(l, _)| *l == label)
                    .map(|(_, ns)| *ns as f64 / 1e6),
            );
        }
        r.add(
            format!("finite.eval_ms_p50.{label}"),
            s.median(),
            "ms",
            s.len(),
        );
    }
    p50(
        &mut r,
        "finite.lineage_ms_p50",
        us(Round::l, "probe.lineage"),
        "ms",
        1e-3,
    );
    let chosen: u64 = serve.plan_choice.iter().sum();
    for (i, name) in ["lifted", "shannon", "mc", "kl"].into_iter().enumerate() {
        r.add(
            format!("finite.strategy_share.{name}"),
            ratio(serve.plan_choice[i], chosen),
            "fraction",
            chosen as usize,
        );
    }
    r.add(
        "finite.shannon_expansions",
        serve.expansions as f64,
        "count",
        1,
    );
    r.add(
        "finite.memo_hit_ratio",
        ratio(serve.memo_hits, serve.memo_hits + serve.expansions),
        "fraction",
        1,
    );
    r.add("finite.arena_nodes", serve.arena_nodes as f64, "count", 1);
    r.add("finite.samples", stats.samples as f64, "count", 1);
    p50(
        &mut r,
        "ti.catalog_clone_ms_p50",
        us(Round::l, "ti.catalog_clone"),
        "ms",
        1e-3,
    );
    let mut snap = Samples::default();
    for rd in &rounds {
        for (ns, info) in
            rd.l.durations("store.snapshot")
                .into_iter()
                .zip(&rd.stats.snapshots)
        {
            if !info.unchanged {
                snap.push(ns as f64 / 1e6);
            }
        }
    }
    p50(&mut r, "store.snapshot_ms_p50", snap, "ms", 1.0);
    let bytes: u64 = stats.snapshots.iter().map(|s| s.bytes).sum();
    let new_facts: u64 = stats.new_facts.iter().sum();
    r.add(
        "store.bytes_per_new_fact",
        ratio(bytes, new_facts),
        "B/fact",
        new_facts as usize,
    );
    r.add(
        "store.shards_written",
        stats
            .snapshots
            .iter()
            .map(|s| s.shards_written as f64)
            .sum(),
        "count",
        stats.snapshots.len(),
    );
    r.add(
        "store.shards_skipped",
        stats
            .snapshots
            .iter()
            .map(|s| s.shards_skipped as f64)
            .sum(),
        "count",
        stats.snapshots.len(),
    );
    p50(
        &mut r,
        "store.load_s",
        us(Round::l, "store.load"),
        "s",
        1e-6,
    );
    r.add(
        "store.mmap_fallbacks",
        first.mmap_fallbacks as f64,
        "count",
        1,
    );
    for (layer, ns) in LAYERS.iter().zip(&self_ns) {
        r.add(
            format!("{layer}.self_share"),
            ns / http_total.max(1.0),
            "fraction",
            timed_requests,
        );
    }
    r.add(
        "trace.qps",
        timed_queries as f64 / (http_total / 1e9),
        "1/s",
        timed_queries,
    );
    r.add(
        "trace.self_sum_within_10pct",
        ratio(within as u64, timed_requests as u64),
        "fraction",
        timed_requests,
    );
    r.add(
        "trace.double_counted_share",
        twice_total / http_total.max(1.0),
        "fraction",
        timed_requests,
    );

    // ---- correctness, counters, spans -----------------------------------
    let observed: Vec<Observed> = rounds.iter().flat_map(|rd| rd.observed.clone()).collect();
    let check = oracle::check(inputs, &observed, oracle_threads, first.served_fp)?;
    let mut failures = check.failures;
    if bad_requests > 0 {
        failures.push(format!(
            "{bad_requests} requests counted as bad by the server"
        ));
    }
    let counters = vec![
        ("facts_grown", first.facts_grown),
        ("shannon_expansions", first.e_expansions),
        ("samples_planned", stats.samples),
        ("snapshot_bytes", first.snapshot_bytes),
        ("snapshot_shards_written", first.snapshot_shards),
        ("cache_hits", first.e_cache_hits),
        ("strategy_fingerprint", first.strategies),
    ];
    let mut spans_json = String::new();
    let mut shape_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (k, rd) in rounds.iter().enumerate() {
        rd.h.write_json("http", k, origin, &mut spans_json);
        rd.e.write_json("service", k, origin, &mut spans_json);
        rd.l.write_json("layers", k, origin, &mut spans_json);
        for (shape, ns) in &rd.shape_ns {
            *shape_ns.entry(shape).or_default() += ns;
        }
    }
    Ok(TracedReport {
        report: r,
        counters,
        attempted: observed.len(),
        failed: check.failed,
        failures,
        self_ns: LAYERS
            .iter()
            .copied()
            .zip(self_ns.into_iter().map(|v| v as u64))
            .collect(),
        shape_ns: shape_ns.into_iter().collect(),
        spans_json,
    })
}
