//! The HTTP front door: a thread-per-connection server over
//! [`QueryService`].
//!
//! Routes:
//!
//! * `POST /query` — one query; body `{"query", "eps"?, "deadline_ms"?,
//!   "max_n"?}`; responds with the certified interval, budget report,
//!   and [`EvalTrace`](infpdb_finite::engine::EvalTrace) summary.
//! * `POST /batch` — many queries; the response streams one JSON line
//!   per query (`application/x-ndjson`, chunked transfer encoding) in
//!   input order, each line either a result or an error envelope, so
//!   long batches deliver answers as they finish.
//! * `POST /warm` — eagerly grounds the `n(ε)` prefix.
//! * `GET /healthz` — liveness + drain state.
//! * `GET /metrics` — the serving registry plus the net-layer counters
//!   in Prometheus text exposition format.
//!
//! Per-client token-bucket quotas (keyed by `Authorization: Bearer`
//! token, else peer IP) run before any body parsing; an exhausted
//! bucket yields `429` + `Retry-After` without costing the service
//! anything. Graceful shutdown: [`HttpServer::shutdown`] stops the
//! accept loop, puts the service into drain mode (new submissions are
//! refused with `503 shutting_down`, in-flight tickets finish with
//! their partial certificates), and waits for open connections to
//! complete their current request.

use crate::http::{self, ChunkedWriter, ParseError, Request, Response};
use crate::proto::{self, WireError, WireQuery};
use crate::quota::{client_identity, QuotaConfig, QuotaDecision, QuotaRegistry};
use infpdb_core::json::Json;
use infpdb_logic::parse;
use infpdb_query::StoreStatus;
use infpdb_serve::service::{QueryRequest, QueryService};
use infpdb_serve::CostBudget;
use std::io::{BufReader, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-door configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Tolerance used when a request body omits `eps`.
    pub default_eps: f64,
    /// Cap on request-body size in bytes.
    pub max_body: usize,
    /// Per-client admission quota; `None` disables quotas.
    pub quota: Option<QuotaConfig>,
    /// Include arena statistics in `/metrics`.
    pub arena_stats: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            default_eps: proto::DEFAULT_EPS,
            max_body: http::DEFAULT_MAX_BODY_BYTES,
            quota: None,
            arena_stats: false,
        }
    }
}

/// Net-layer counters, exposed alongside the serving registry on
/// `/metrics`.
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// TCP connections accepted.
    pub connections: AtomicU64,
    /// HTTP requests parsed (any route).
    pub requests: AtomicU64,
    /// Requests refused by a per-client quota.
    pub quota_rejections: AtomicU64,
    /// Requests refused for malformed bodies or framing.
    pub bad_requests: AtomicU64,
    /// Individual results streamed over `/batch` responses.
    pub streamed_results: AtomicU64,
}

impl NetMetrics {
    /// Prometheus text exposition of the net-layer counters.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        for (name, help, v) in [
            (
                "net_connections_total",
                "TCP connections accepted.",
                c(&self.connections),
            ),
            (
                "net_requests_total",
                "HTTP requests parsed.",
                c(&self.requests),
            ),
            (
                "net_quota_rejections_total",
                "Requests refused by a per-client quota.",
                c(&self.quota_rejections),
            ),
            (
                "net_bad_requests_total",
                "Requests refused for malformed bodies or framing.",
                c(&self.bad_requests),
            ),
            (
                "net_streamed_results_total",
                "Individual results streamed over /batch responses.",
                c(&self.streamed_results),
            ),
        ] {
            writeln!(out, "# HELP {name} {help}").ok();
            writeln!(out, "# TYPE {name} counter").ok();
            writeln!(out, "{name} {v}").ok();
        }
        out
    }
}

struct ServerState {
    service: QueryService,
    config: ServerConfig,
    quota: Option<QuotaRegistry>,
    net_metrics: NetMetrics,
    shutdown: AtomicBool,
    active_connections: AtomicU64,
}

/// A running HTTP front door. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) aborts the accept loop without
/// draining.
pub struct HttpServer {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

/// How long [`HttpServer::shutdown`] waits for open connections to
/// finish their current request before giving up on them.
pub const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Socket read timeout; also bounds how long an idle keep-alive
/// connection takes to notice a server shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    pub fn start(
        service: QueryService,
        config: ServerConfig,
        addr: &str,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(ServerState {
            service,
            quota: config.quota.map(QuotaRegistry::new),
            config,
            net_metrics: NetMetrics::default(),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicU64::new(0),
        });
        let accept_state = Arc::clone(&state);
        let accept_handle = std::thread::spawn(move || accept_loop(listener, accept_state));
        Ok(HttpServer {
            state,
            addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The query service behind the front door.
    pub fn service(&self) -> &QueryService {
        &self.state.service
    }

    /// The net-layer counters.
    pub fn net_metrics(&self) -> &NetMetrics {
        &self.state.net_metrics
    }

    /// Open connections right now.
    pub fn active_connections(&self) -> u64 {
        self.state.active_connections.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, drain the service (in-flight
    /// tickets finish, new submissions refuse with `503
    /// shutting_down`), and wait up to [`SHUTDOWN_GRACE`] for open
    /// connections to finish their current request.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.service.begin_drain();
        if let Some(handle) = self.accept_handle.take() {
            handle.join().ok();
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while self.state.active_connections.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // dropping the state drops the QueryService; its pool drains
        // gracefully on Drop
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            handle.join().ok();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                state
                    .net_metrics
                    .connections
                    .fetch_add(1, Ordering::Relaxed);
                state.active_connections.fetch_add(1, Ordering::Relaxed);
                let conn_state = Arc::clone(&state);
                std::thread::spawn(move || {
                    handle_connection(stream, peer, &conn_state);
                    conn_state
                        .active_connections
                        .fetch_sub(1, Ordering::Release);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The connection's read half as the request parser sees it: a read
/// timeout is retried until the server shuts down, so a client that
/// pauses mid-request does not lose the part the parser already read.
/// Shutdown still ends an idle or paused connection within one
/// [`READ_TIMEOUT`].
struct PatientReader<'a> {
    stream: TcpStream,
    shutdown: &'a AtomicBool,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && !self.shutdown.load(Ordering::Acquire) => {}
                other => return other,
            }
        }
    }
}

fn handle_connection(stream: TcpStream, peer: SocketAddr, state: &ServerState) {
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    stream.set_nodelay(true).ok();
    let mut reader = match stream.try_clone() {
        Ok(stream) => BufReader::new(PatientReader {
            stream,
            shutdown: &state.shutdown,
        }),
        Err(_) => return,
    };
    let mut stream = stream;
    loop {
        let request = match http::read_request(&mut reader, state.config.max_body) {
            Ok(r) => r,
            // a closed peer, a broken socket, or a timeout after shutdown
            Err(ParseError::ConnectionClosed | ParseError::Io(_)) => return,
            Err(ParseError::TooLarge(m)) => {
                state
                    .net_metrics
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                let w = WireError::routing(413, &m);
                respond_error(&mut stream, &w, false);
                return;
            }
            Err(ParseError::Malformed(m)) => {
                state
                    .net_metrics
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                let w = WireError::routing(400, &m);
                respond_error(&mut stream, &w, false);
                return;
            }
        };
        state.net_metrics.requests.fetch_add(1, Ordering::Relaxed);
        // shutting down: answer this request, then close
        let keep_alive = request.keep_alive && !state.shutdown.load(Ordering::Acquire);
        match route(&request, &peer, state, &mut stream, keep_alive) {
            Ok(()) => {}
            Err(_) => return, // broken pipe mid-response
        }
        if !keep_alive {
            return;
        }
    }
}

/// Renders a [`StoreStatus`] as the `/healthz` `store` field:
/// `{"status": "fresh"|"ok"|"recovered"|"degraded", ...detail}`.
fn store_status_json(status: &StoreStatus) -> Json {
    match status {
        StoreStatus::Recovered {
            facts_kept,
            facts_dropped,
            checksum_failures,
            eps_floor,
        } => {
            let mut o = vec![
                ("status".to_string(), Json::str(status.label())),
                ("facts_kept".to_string(), Json::Int(*facts_kept as i64)),
                (
                    "facts_dropped".to_string(),
                    Json::Int(*facts_dropped as i64),
                ),
                (
                    "checksum_failures".to_string(),
                    Json::Int(*checksum_failures as i64),
                ),
            ];
            if let Some(f) = eps_floor {
                o.push(("eps_floor".to_string(), Json::Float(*f)));
            }
            Json::Object(o)
        }
        StoreStatus::Degraded { reason } => Json::obj([
            ("status", Json::str(status.label())),
            ("reason", Json::str(reason.clone())),
        ]),
        StoreStatus::Ok { facts } => Json::obj([
            ("status", Json::str(status.label())),
            ("facts", Json::Int(*facts as i64)),
        ]),
        StoreStatus::Fresh => Json::obj([("status", Json::str(status.label()))]),
    }
}

fn respond_error(stream: &mut TcpStream, w: &WireError, keep_alive: bool) {
    let mut resp = Response::json(w.status, w.body.encode());
    if let Some(secs) = w.retry_after {
        resp = resp.with_header("Retry-After", secs.to_string());
    }
    http::write_response(stream, &resp, keep_alive).ok();
}

/// Builds the service request for one wire query, parsing the text
/// against the service's schema.
fn build_request(state: &ServerState, wq: &WireQuery) -> Result<QueryRequest, WireError> {
    let formula = parse(&wq.query, state.service.pdb().schema())
        .map_err(|e| WireError::bad_query(&format!("query does not parse: {e}")))?;
    let budget = CostBudget {
        max_n: wq.max_n,
        deadline: wq.deadline_ms.map(Duration::from_millis),
    };
    Ok(QueryRequest::new(formula, wq.eps).with_budget(budget))
}

fn check_quota(state: &ServerState, request: &Request, peer: &SocketAddr) -> Option<WireError> {
    let quota = state.quota.as_ref()?;
    let client = client_identity(request.header("authorization"), peer);
    match quota.check(&client, Instant::now()) {
        QuotaDecision::Admit => None,
        QuotaDecision::Reject { retry_after_secs } => {
            state
                .net_metrics
                .quota_rejections
                .fetch_add(1, Ordering::Relaxed);
            Some(WireError::quota_exhausted(retry_after_secs))
        }
    }
}

fn route(
    request: &Request,
    peer: &SocketAddr,
    state: &ServerState,
    stream: &mut TcpStream,
    keep_alive: bool,
) -> std::io::Result<()> {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let mut fields = vec![
                (
                    "status".to_string(),
                    Json::str(if state.service.is_draining() {
                        "draining"
                    } else {
                        "ok"
                    }),
                ),
                (
                    "materialized".to_string(),
                    Json::Int(state.service.materialized_len() as i64),
                ),
                (
                    "queue_depth".to_string(),
                    Json::Int(state.service.queue_depth() as i64),
                ),
                (
                    "threads".to_string(),
                    Json::Int(state.service.threads() as i64),
                ),
            ];
            // the store field is absent when the service runs without
            // a durable store
            if let Some(status) = state.service.store_status() {
                fields.push(("store".to_string(), store_status_json(&status)));
            }
            let body = Json::Object(fields);
            http::write_response(stream, &Response::json(200, body.encode()), keep_alive)
        }
        ("GET", "/metrics") => {
            let mut text = state.service.metrics().prometheus(state.config.arena_stats);
            text.push_str(&state.net_metrics.prometheus());
            http::write_response(stream, &Response::text(200, text), keep_alive)
        }
        ("POST", "/warm") => {
            if let Some(w) = check_quota(state, request, peer) {
                respond_error(stream, &w, keep_alive);
                return Ok(());
            }
            let eps = match proto::parse_warm_body(request.body_utf8().unwrap_or("")) {
                Ok(eps) => eps,
                Err(e) => {
                    state
                        .net_metrics
                        .bad_requests
                        .fetch_add(1, Ordering::Relaxed);
                    respond_error(stream, &WireError::bad_body(&e), keep_alive);
                    return Ok(());
                }
            };
            match state.service.warm(eps) {
                Ok(n) => http::write_response(
                    stream,
                    &Response::json(
                        200,
                        Json::obj([("materialized", Json::Int(n as i64))]).encode(),
                    ),
                    keep_alive,
                ),
                Err(e) => {
                    respond_error(stream, &proto::map_serve_error(&e), keep_alive);
                    Ok(())
                }
            }
        }
        ("POST", "/query") => {
            if let Some(w) = check_quota(state, request, peer) {
                respond_error(stream, &w, keep_alive);
                return Ok(());
            }
            let wq = match proto::parse_query_body(
                request.body_utf8().unwrap_or(""),
                state.config.default_eps,
            ) {
                Ok(wq) => wq,
                Err(e) => {
                    state
                        .net_metrics
                        .bad_requests
                        .fetch_add(1, Ordering::Relaxed);
                    respond_error(stream, &WireError::bad_body(&e), keep_alive);
                    return Ok(());
                }
            };
            let req = match build_request(state, &wq) {
                Ok(r) => r,
                Err(w) => {
                    state
                        .net_metrics
                        .bad_requests
                        .fetch_add(1, Ordering::Relaxed);
                    respond_error(stream, &w, keep_alive);
                    return Ok(());
                }
            };
            match state.service.evaluate(req) {
                Ok(resp) => http::write_response(
                    stream,
                    &Response::json(200, proto::response_json(&wq.query, &resp).encode()),
                    keep_alive,
                ),
                Err(e) => {
                    respond_error(stream, &proto::map_serve_error(&e), keep_alive);
                    Ok(())
                }
            }
        }
        ("POST", "/batch") => {
            if let Some(w) = check_quota(state, request, peer) {
                respond_error(stream, &w, keep_alive);
                return Ok(());
            }
            let wqs = match proto::parse_batch_body(
                request.body_utf8().unwrap_or(""),
                state.config.default_eps,
            ) {
                Ok(wqs) => wqs,
                Err(e) => {
                    state
                        .net_metrics
                        .bad_requests
                        .fetch_add(1, Ordering::Relaxed);
                    respond_error(stream, &WireError::bad_body(&e), keep_alive);
                    return Ok(());
                }
            };
            // parse every query up front; a parse error turns into an
            // error line at its position rather than failing the batch
            let mut requests = Vec::new();
            let mut parse_errors: Vec<Option<WireError>> = Vec::new();
            for wq in &wqs {
                match build_request(state, wq) {
                    Ok(r) => {
                        requests.push(Some(r));
                        parse_errors.push(None);
                    }
                    Err(w) => {
                        requests.push(None);
                        parse_errors.push(Some(w));
                    }
                }
            }
            let tickets = state
                .service
                .submit_batch(requests.iter().flatten().cloned().collect());
            let mut tickets = tickets.into_iter();
            // stream one ndjson line per query, in input order, as
            // each ticket resolves
            let mut writer = ChunkedWriter::start(stream, 200, "application/x-ndjson", keep_alive)?;
            for (i, wq) in wqs.iter().enumerate() {
                let line = match &parse_errors[i] {
                    Some(w) => {
                        let mut obj = vec![("query".to_string(), Json::str(wq.query.clone()))];
                        if let Json::Object(pairs) = w.body.clone() {
                            obj.extend(pairs);
                        }
                        Json::Object(obj)
                    }
                    None => {
                        let ticket = tickets.next().expect("one ticket per parsed query");
                        match ticket.wait() {
                            Ok(resp) => proto::response_json(&wq.query, &resp),
                            Err(e) => {
                                let w = proto::map_serve_error(&e);
                                let mut obj =
                                    vec![("query".to_string(), Json::str(wq.query.clone()))];
                                if let Json::Object(pairs) = w.body {
                                    obj.extend(pairs);
                                }
                                Json::Object(obj)
                            }
                        }
                    }
                };
                let mut encoded = line.encode();
                encoded.push('\n');
                writer.chunk(encoded.as_bytes())?;
                state
                    .net_metrics
                    .streamed_results
                    .fetch_add(1, Ordering::Relaxed);
            }
            writer.finish()
        }
        (_, "/healthz" | "/metrics" | "/query" | "/batch" | "/warm") => {
            respond_error(
                stream,
                &WireError::routing(405, "method not allowed on this route"),
                keep_alive,
            );
            Ok(())
        }
        _ => {
            respond_error(
                stream,
                &WireError::routing(404, &format!("no route for {path}")),
                keep_alive,
            );
            Ok(())
        }
    }
}
