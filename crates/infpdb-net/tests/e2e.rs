//! End-to-end tests: a real `HttpServer` on an ephemeral port, real
//! TCP clients, and bit-for-bit comparison against direct library
//! calls.

use infpdb_core::json::Json;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_logic::parse;
use infpdb_math::series::GeometricSeries;
use infpdb_net::client::{self, BaseUrl};
use infpdb_net::promtext;
use infpdb_net::server::{HttpServer, ServerConfig};
use infpdb_net::QuotaConfig;
use infpdb_serve::service::{QueryRequest, QueryService};
use infpdb_serve::{SchedulerKind, ServiceConfig};
use infpdb_ti::construction::CountableTiPdb;
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

fn service(parallelism: usize) -> QueryService {
    QueryService::new(
        pdb(),
        ServiceConfig {
            threads: 2,
            parallelism,
            ..ServiceConfig::default()
        },
    )
}

fn start(config: ServerConfig, parallelism: usize) -> (HttpServer, BaseUrl) {
    let server = HttpServer::start(service(parallelism), config, "127.0.0.1:0").unwrap();
    let base = BaseUrl::parse(&format!("http://{}", server.addr())).unwrap();
    (server, base)
}

fn post(base: &BaseUrl, path: &str, body: &str) -> client::ClientResponse {
    client::request(
        base,
        "POST",
        path,
        &[("content-type", "application/json")],
        body.as_bytes(),
        Duration::from_secs(30),
    )
    .unwrap()
}

fn get(base: &BaseUrl, path: &str) -> client::ClientResponse {
    client::request(base, "GET", path, &[], b"", Duration::from_secs(30)).unwrap()
}

/// Extracts `error.code` from an error envelope.
fn error_code(doc: &Json) -> Option<&str> {
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

const QUERIES: &[&str] = &[
    "exists x. R(x)",
    "R(1)",
    "exists x, y. R(x) /\\ R(y) /\\ x != y",
];

fn query_body(q: &str, eps: f64) -> String {
    Json::obj([("query", Json::str(q)), ("eps", Json::Float(eps))]).encode()
}

/// The core guarantee: transport adds zero numeric drift. For every
/// query, at parallelism 1 and 2, the HTTP estimate and certified
/// interval are bit-identical to a direct `evaluate` call.
#[test]
fn http_responses_are_bit_identical_to_direct_calls() {
    for parallelism in [1usize, 2] {
        let (server, base) = start(ServerConfig::default(), parallelism);
        for q in QUERIES {
            let direct = server
                .service()
                .evaluate(QueryRequest::new(
                    parse(q, server.service().pdb().schema()).unwrap(),
                    1e-4,
                ))
                .unwrap();
            let resp = post(&base, "/query", &query_body(q, 1e-4));
            assert_eq!(resp.status, 200, "query {q:?}: {:?}", resp.body_utf8());
            let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
            let wire_estimate = doc.get("estimate").and_then(Json::as_f64).unwrap();
            assert_eq!(
                wire_estimate.to_bits(),
                direct.approx.estimate.to_bits(),
                "estimate drift for {q:?} at parallelism {parallelism}"
            );
            let interval = doc.get("interval").unwrap();
            let direct_iv = direct.approx.interval();
            assert_eq!(
                interval.get("lo").and_then(Json::as_f64).unwrap().to_bits(),
                direct_iv.lo().to_bits()
            );
            assert_eq!(
                interval.get("hi").and_then(Json::as_f64).unwrap().to_bits(),
                direct_iv.hi().to_bits()
            );
            // the response carries an evaluation trace and a budget report
            assert!(doc.get("trace").is_some());
            assert!(doc
                .get("report")
                .and_then(|r| r.get("escape_probability"))
                .is_some());
            assert_eq!(doc.get("query").and_then(Json::as_str), Some(*q));
        }
        server.shutdown();
    }
}

/// `/batch` streams one ndjson line per query, in input order, over
/// chunked transfer encoding, and each line is bit-identical to the
/// single-query route.
#[test]
fn batch_streams_ndjson_in_input_order() {
    let (server, base) = start(ServerConfig::default(), 1);
    let batch = Json::obj([
        (
            "queries",
            Json::Array(QUERIES.iter().map(|q| Json::str(*q)).collect()),
        ),
        ("eps", Json::Float(1e-4)),
    ])
    .encode();
    let resp = post(&base, "/batch", &batch);
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("transfer-encoding")
            .map(str::to_ascii_lowercase),
        Some("chunked".to_string())
    );
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));
    let body = resp.body_utf8().unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), QUERIES.len());
    for (line, q) in lines.iter().zip(QUERIES) {
        let doc = Json::parse(line).unwrap();
        assert_eq!(doc.get("query").and_then(Json::as_str), Some(*q));
        let single = post(&base, "/query", &query_body(q, 1e-4));
        let single_doc = Json::parse(single.body_utf8().unwrap()).unwrap();
        assert_eq!(
            doc.get("estimate")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            single_doc
                .get("estimate")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            "batch line differs from single-query result for {q:?}"
        );
    }
    // a bad query inside a batch becomes an error line at its position,
    // not a failed batch
    let mixed = Json::obj([
        (
            "queries",
            Json::Array(vec![
                Json::str("R(1)"),
                Json::str("Nonexistent(1)"),
                Json::str("exists x. R(x)"),
            ]),
        ),
        ("eps", Json::Float(1e-3)),
    ])
    .encode();
    let resp = post(&base, "/batch", &mixed);
    assert_eq!(resp.status, 200);
    let lines: Vec<Json> = resp
        .body_utf8()
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].get("estimate").is_some());
    assert_eq!(error_code(&lines[1]), Some("bad_query"));
    assert!(lines[2].get("estimate").is_some());
    server.shutdown();
}

/// Per-client quotas: exhausting the bucket yields 429 + Retry-After,
/// and a different bearer token is unaffected.
#[test]
fn quota_exhaustion_yields_429_with_retry_after() {
    let config = ServerConfig {
        quota: Some(QuotaConfig::new(1.0, 2.0).unwrap()),
        ..ServerConfig::default()
    };
    let (server, base) = start(config, 1);
    let send = |token: &str| {
        client::request(
            &base,
            "POST",
            "/query",
            &[
                ("content-type", "application/json"),
                ("authorization", &format!("Bearer {token}")),
            ],
            query_body("R(1)", 1e-3).as_bytes(),
            Duration::from_secs(30),
        )
        .unwrap()
    };
    assert_eq!(send("alice").status, 200);
    assert_eq!(send("alice").status, 200);
    let rejected = send("alice");
    assert_eq!(rejected.status, 429);
    let retry_after: u64 = rejected.header("retry-after").unwrap().parse().unwrap();
    assert!(retry_after >= 1);
    let doc = Json::parse(rejected.body_utf8().unwrap()).unwrap();
    assert_eq!(error_code(&doc), Some("quota_exhausted"));
    // bob has his own bucket
    assert_eq!(send("bob").status, 200);
    assert!(
        server
            .net_metrics()
            .quota_rejections
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
}

/// Drain mode: `/healthz` reports it, new queries get `503
/// shutting_down`, and `shutdown()` completes.
#[test]
fn drain_refuses_new_queries_and_reports_in_healthz() {
    let (server, base) = start(ServerConfig::default(), 1);
    let healthy = get(&base, "/healthz");
    assert_eq!(healthy.status, 200);
    let doc = Json::parse(healthy.body_utf8().unwrap()).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    server.service().begin_drain();
    let draining = get(&base, "/healthz");
    let doc = Json::parse(draining.body_utf8().unwrap()).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("draining"));
    let refused = post(&base, "/query", &query_body("R(1)", 1e-3));
    assert_eq!(refused.status, 503);
    let doc = Json::parse(refused.body_utf8().unwrap()).unwrap();
    assert_eq!(error_code(&doc), Some("shutting_down"));
    server.shutdown();
}

/// Chaos-seeded `/metrics`: after a mix of good queries, malformed
/// bodies, unknown routes, wrong methods, and quota rejections, the
/// scrape still parses as clean Prometheus text format.
#[test]
fn metrics_scrape_parses_cleanly_after_chaos() {
    let config = ServerConfig {
        quota: Some(QuotaConfig::new(1.0, 3.0).unwrap()),
        ..ServerConfig::default()
    };
    let (server, base) = start(config, 1);
    // every request gets its own bearer token so the chaos itself is
    // not quota-throttled; the flood at the end shares one token to
    // trip the quota deliberately
    let mut serial = 0;
    let post_as = |token: &str, path: &str, body: &str| {
        client::request(
            &base,
            "POST",
            path,
            &[
                ("content-type", "application/json"),
                ("authorization", &format!("Bearer {token}")),
            ],
            body.as_bytes(),
            Duration::from_secs(30),
        )
        .unwrap()
    };
    let mut post_fresh = |path: &str, body: &str| {
        serial += 1;
        post_as(&format!("chaos-{serial}"), path, body)
    };
    // good traffic
    post_fresh("/query", &query_body("exists x. R(x)", 1e-3));
    post_fresh("/warm", r#"{"eps": 0.001}"#);
    // chaos traffic
    post_fresh("/query", "this is not json");
    post_fresh("/query", r#"{"eps": 0.5}"#); // missing query
    post_fresh("/query", &query_body("Nope(1)", 1e-3)); // unknown relation
    post_fresh("/nowhere", "{}"); // 404
    get(&base, "/query"); // 405
    for _ in 0..5 {
        post_as("flood", "/query", &query_body("R(1)", 1e-3)); // trips the quota
    }
    let scrape = get(&base, "/metrics");
    assert_eq!(scrape.status, 200);
    assert!(scrape
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    let text = scrape.body_utf8().unwrap();
    let parsed = promtext::parse_scrape(text).expect("scrape must parse");
    let problems = promtext::lint(&parsed);
    assert!(problems.is_empty(), "lint problems: {problems:?}");
    // the serving registry and the net layer both show up
    assert!(parsed.value("serve_requests_submitted_total").is_some());
    assert!(parsed.value("net_requests_total").unwrap() >= 10.0);
    assert!(parsed.value("net_bad_requests_total").unwrap() >= 2.0);
    assert!(parsed.value("net_quota_rejections_total").unwrap() >= 1.0);
    assert!(!parsed.family("serve_wait_micros").is_empty());
    server.shutdown();
}

/// A stealing-scheduler service behind the front door: the scheduler
/// counters show up on `/metrics`, the labelled per-worker family
/// passes the exposition linter, and the answers match the fixed
/// scheduler's bit for bit over HTTP.
#[test]
fn stealing_scheduler_metrics_pass_the_linter() {
    let svc = QueryService::new(
        pdb(),
        ServiceConfig {
            threads: 2,
            parallelism: 2,
            scheduler: SchedulerKind::Stealing,
            ..ServiceConfig::default()
        },
    );
    let server = HttpServer::start(svc, ServerConfig::default(), "127.0.0.1:0").unwrap();
    let base = BaseUrl::parse(&format!("http://{}", server.addr())).unwrap();
    let mut estimates = Vec::new();
    for q in QUERIES {
        let resp = post(&base, "/query", &query_body(q, 1e-3));
        assert_eq!(resp.status, 200, "{q}");
        let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
        estimates.push(doc.get("estimate").and_then(Json::as_f64).unwrap());
    }
    let scrape = get(&base, "/metrics");
    let text = scrape.body_utf8().unwrap();
    let parsed = promtext::parse_scrape(text).expect("scrape must parse");
    let problems = promtext::lint(&parsed);
    assert!(problems.is_empty(), "lint problems: {problems:?}");
    assert!(parsed.value("serve_steals_total").is_some());
    assert_eq!(parsed.value("serve_injector_depth"), Some(0.0));
    let workers = parsed.family("serve_worker_tasks_total");
    assert_eq!(workers.len(), 2, "one labelled sample per pool worker");
    // subtasks that connection threads run while computing their own
    // misses have their own family
    assert!(parsed.value("serve_caller_tasks_total").is_some());
    server.shutdown();
    // same queries through a fixed-scheduler server: bit-equal answers
    let (fixed_server, fixed_base) = start(ServerConfig::default(), 2);
    for (q, want) in QUERIES.iter().zip(estimates) {
        let resp = post(&fixed_base, "/query", &query_body(q, 1e-3));
        let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
        let got = doc.get("estimate").and_then(Json::as_f64).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{q}");
    }
    fixed_server.shutdown();
}

/// Cost-based planning over the wire: with the default Auto engine the
/// `/query` envelope names the chosen strategy, the trace carries the
/// per-strategy plan summary, and `/metrics` exposes the
/// `serve_plan_choice_total{strategy=...}` family plus
/// `serve_replans_total` in clean Prometheus text format.
#[test]
fn query_envelope_and_metrics_report_the_chosen_plan() {
    let (server, base) = start(ServerConfig::default(), 1);
    let mut strategies = Vec::new();
    for q in QUERIES {
        let resp = post(&base, "/query", &query_body(q, 1e-3));
        assert_eq!(resp.status, 200, "{q}");
        let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
        let strategy = doc
            .get("strategy")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("Auto response for {q:?} must name a strategy"))
            .to_string();
        assert!(
            ["lifted", "shannon", "mc", "kl", "mixed"].contains(&strategy.as_str()),
            "unknown strategy {strategy:?} for {q:?}"
        );
        // the trace carries the full per-strategy component counts
        let plan = doc
            .get("trace")
            .and_then(|t| t.get("plan"))
            .unwrap_or_else(|| panic!("Auto trace for {q:?} must carry a plan summary"));
        let total: i64 = ["lifted", "shannon", "mc", "kl"]
            .iter()
            .filter_map(|k| plan.get(k).and_then(Json::as_i64))
            .sum();
        assert!(total >= 1, "plan for {q:?} chose no components: {plan:?}");
        strategies.push(strategy);
    }
    // re-asking an answered query is served from the result cache and
    // reports the same strategy
    let resp = post(&base, "/query", &query_body(QUERIES[0], 1e-3));
    let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.get("strategy").and_then(Json::as_str),
        Some(strategies[0].as_str())
    );
    let scrape = get(&base, "/metrics");
    assert_eq!(scrape.status, 200);
    let text = scrape.body_utf8().unwrap();
    let parsed = promtext::parse_scrape(text).expect("scrape must parse");
    let problems = promtext::lint(&parsed);
    assert!(problems.is_empty(), "lint problems: {problems:?}");
    // all four strategy labels are pre-registered, and the choices made
    // above are counted
    let family = parsed.family("serve_plan_choice_total");
    assert_eq!(family.len(), 4, "one sample per strategy label");
    let counted: f64 = family.iter().map(|s| s.value).sum();
    assert!(
        counted >= QUERIES.len() as f64,
        "plan choices missing from /metrics: {counted}"
    );
    // same ε throughout → no re-plans
    assert_eq!(parsed.value("serve_replans_total"), Some(0.0));
    server.shutdown();
}

/// `/warm` grounds the prefix and reports how many facts were
/// materialized; the count then shows in `/healthz`.
#[test]
fn warm_materializes_the_prefix() {
    let (server, base) = start(ServerConfig::default(), 1);
    let resp = post(&base, "/warm", r#"{"eps": 0.01}"#);
    assert_eq!(resp.status, 200);
    let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
    let n = doc.get("materialized").and_then(Json::as_i64).unwrap();
    assert!(n > 0);
    let health = Json::parse(get(&base, "/healthz").body_utf8().unwrap()).unwrap();
    assert_eq!(health.get("materialized").and_then(Json::as_i64), Some(n));
    server.shutdown();
}

/// Keep-alive: several requests over one connection work; a request
/// with `Connection: close` ends it.
#[test]
fn keep_alive_reuses_one_connection() {
    let (server, base) = start(ServerConfig::default(), 1);
    let stream = std::net::TcpStream::connect(&base.authority).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    for _ in 0..3 {
        let resp = client::request_on(
            &stream,
            &base.authority,
            "POST",
            "/query",
            &[("content-type", "application/json")],
            query_body("R(1)", 1e-3).as_bytes(),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
    }
    server.shutdown();
}

/// Two bodies that overflowed a connection thread's stack and so aborted
/// the whole server: 20 000 nested JSON arrays, and a query inside
/// 20 000 parentheses. Each gets a 400, and the server answers the next
/// request on a new connection.
#[test]
fn deeply_nested_bodies_get_400_and_the_server_keeps_serving() {
    let (server, base) = start(ServerConfig::default(), 1);
    let deep_query = format!("{}exists x. R(x){}", "(".repeat(20_000), ")".repeat(20_000));
    for (body, code) in [
        (
            format!("{{\"query\": {}", "[".repeat(20_000)),
            "bad_request",
        ),
        (query_body(&deep_query, 1e-3), "bad_query"),
    ] {
        let resp = post(&base, "/query", &body);
        assert_eq!(resp.status, 400, "{:?}", resp.body_utf8());
        let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
        assert_eq!(error_code(&doc), Some(code));
        let next = post(&base, "/query", &query_body("R(1)", 1e-3));
        assert_eq!(next.status, 200, "{:?}", next.body_utf8());
    }
    // in a batch the deep query is an error line at its position
    let batch = Json::obj([(
        "queries",
        Json::Array(vec![Json::str(deep_query), Json::str("R(1)")]),
    )])
    .encode();
    let resp = post(&base, "/batch", &batch);
    assert_eq!(resp.status, 200);
    let lines: Vec<Json> = resp
        .body_utf8()
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(error_code(&lines[0]), Some("bad_query"));
    assert!(lines[1].get("estimate").is_some());
    server.shutdown();
}

/// Sends one `/query` in two writes, split `split` bytes into the raw
/// request, with an 800 ms pause between them (longer than the server's
/// 500 ms read timeout), and checks the answer against a direct
/// `evaluate`.
fn query_with_a_pause(split: impl Fn(&str) -> usize) {
    use std::io::{BufReader, Write};
    let (server, base) = start(ServerConfig::default(), 1);
    let q = "exists x. R(x)";
    let body = query_body(q, 1e-3);
    let raw = format!(
        "POST /query HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        base.authority,
        body.len()
    );
    let at = split(&raw);
    let mut stream = std::net::TcpStream::connect(&base.authority).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    stream.write_all(&raw.as_bytes()[..at]).unwrap();
    std::thread::sleep(Duration::from_millis(800));
    stream.write_all(&raw.as_bytes()[at..]).unwrap();
    let resp = client::read_response(&mut BufReader::new(&stream)).unwrap();
    assert_eq!(resp.status, 200, "{:?}", resp.body_utf8());
    let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
    let direct = server
        .service()
        .evaluate(QueryRequest::new(
            parse(q, server.service().pdb().schema()).unwrap(),
            1e-3,
        ))
        .unwrap();
    let wire_estimate = doc.get("estimate").and_then(Json::as_f64).unwrap();
    assert_eq!(wire_estimate.to_bits(), direct.approx.estimate.to_bits());
    server.shutdown();
}

/// A client that pauses past the server's read timeout inside the
/// request head (after its `Host` header) still gets its answer.
#[test]
fn a_pause_inside_the_request_head_keeps_the_request() {
    query_with_a_pause(|raw| raw.find("Content-Type").unwrap());
}

/// A client that pauses past the server's read timeout ten bytes
/// before the end of its body still gets its answer.
#[test]
fn a_pause_inside_the_request_body_keeps_the_request() {
    query_with_a_pause(|raw| raw.len() - 10);
}

/// `/healthz` gains a `store` field exactly when durability is
/// configured: absent without `store_dir`, `fresh` on an empty
/// directory, `ok` with the fact count after snapshot and reopen.
#[test]
fn healthz_reports_store_status_when_durable() {
    // no store configured → no store field at all
    let (server, base) = start(ServerConfig::default(), 1);
    let doc = Json::parse(get(&base, "/healthz").body_utf8().unwrap()).unwrap();
    assert!(doc.get("store").is_none());
    server.shutdown();

    let dir = std::env::temp_dir().join(format!("infpdb-e2e-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = |dir: &std::path::Path| {
        QueryService::new(
            pdb(),
            ServiceConfig {
                threads: 1,
                store_dir: Some(dir.to_path_buf()),
                ..ServiceConfig::default()
            },
        )
    };

    // empty store directory → fresh
    let server = HttpServer::start(durable(&dir), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let base = BaseUrl::parse(&format!("http://{}", server.addr())).unwrap();
    let doc = Json::parse(get(&base, "/healthz").body_utf8().unwrap()).unwrap();
    assert_eq!(
        doc.get("store")
            .and_then(|s| s.get("status"))
            .and_then(Json::as_str),
        Some("fresh")
    );
    server.service().warm(0.01).unwrap();
    server.service().snapshot().unwrap().unwrap();
    let facts = server.service().materialized_len() as i64;
    server.shutdown();

    // reopen → ok with the persisted fact count
    let server = HttpServer::start(durable(&dir), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let base = BaseUrl::parse(&format!("http://{}", server.addr())).unwrap();
    let doc = Json::parse(get(&base, "/healthz").body_utf8().unwrap()).unwrap();
    let store = doc.get("store").expect("store field present");
    assert_eq!(store.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(store.get("facts").and_then(Json::as_i64), Some(facts));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The sharded-store counters reach `/metrics` as a well-formed scrape:
/// after a full snapshot, an incremental one, and an idle no-op, the
/// `store_snapshot_*` and `store_mmap_*` families carry the exact
/// accounting the `SnapshotInfo`s reported.
#[test]
fn metrics_expose_sharded_store_accounting() {
    let dir = std::env::temp_dir().join(format!("infpdb-e2e-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = |dir: &std::path::Path| {
        QueryService::new(
            pdb(),
            ServiceConfig {
                threads: 1,
                store_dir: Some(dir.to_path_buf()),
                store_shard_capacity: Some(2),
                ..ServiceConfig::default()
            },
        )
    };

    let server = HttpServer::start(durable(&dir), ServerConfig::default(), "127.0.0.1:0").unwrap();
    server.service().warm(0.01).unwrap();
    let full = server.service().snapshot().unwrap().unwrap();
    server.service().warm(0.0005).unwrap();
    let incr = server.service().snapshot().unwrap().unwrap();
    assert!(incr.shards_skipped >= 1, "{incr:?}");
    let noop = server.service().snapshot().unwrap().unwrap();
    assert!(noop.unchanged);
    let facts = server.service().materialized_len();
    server.shutdown();

    // reopen so the mmap counters fire, then scrape
    let server = HttpServer::start(durable(&dir), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let base = BaseUrl::parse(&format!("http://{}", server.addr())).unwrap();
    let health = Json::parse(get(&base, "/healthz").body_utf8().unwrap()).unwrap();
    assert_eq!(
        health
            .get("store")
            .and_then(|s| s.get("facts"))
            .and_then(Json::as_i64),
        Some(facts as i64)
    );
    let scrape = get(&base, "/metrics");
    assert_eq!(scrape.status, 200);
    let text = scrape.body_utf8().unwrap();
    let parsed = promtext::parse_scrape(text).expect("scrape must parse");
    let problems = promtext::lint(&parsed);
    assert!(problems.is_empty(), "lint problems: {problems:?}");
    let sample = |name: &str| -> f64 {
        parsed
            .value(name)
            .unwrap_or_else(|| panic!("missing {name} in scrape:\n{text}"))
    };
    // this fresh service saw no snapshots yet, only the mapped reopen
    assert_eq!(sample("store_snapshot_writes_total"), 0.0);
    assert_eq!(sample("store_snapshot_noops_total"), 0.0);
    assert_eq!(sample("store_snapshot_bytes_written_total"), 0.0);
    let shard_count = (incr.shards_written + incr.shards_skipped) as f64;
    assert_eq!(
        sample("store_mmap_maps_total") + sample("store_mmap_fallbacks_total"),
        shard_count,
        "one view per committed shard"
    );
    server.shutdown();

    // the writer's own registry carried the snapshot-side accounting
    // (scraped here via a third durable service doing the same dance)
    let service = durable(&dir);
    service.warm(0.0005).unwrap();
    let again = service.snapshot().unwrap().unwrap();
    assert!(again.unchanged, "reopened store is already current");
    let server = HttpServer::start(service, ServerConfig::default(), "127.0.0.1:0").unwrap();
    let base = BaseUrl::parse(&format!("http://{}", server.addr())).unwrap();
    let text = get(&base, "/metrics").body_utf8().unwrap().to_string();
    let parsed = promtext::parse_scrape(&text).expect("scrape must parse");
    assert_eq!(parsed.value("store_snapshot_noops_total"), Some(1.0));
    assert_eq!(parsed.value("store_snapshot_writes_total"), Some(0.0));
    let _ = full;
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
