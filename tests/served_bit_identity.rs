//! Answers over HTTP are the library's answers, bit for bit, under
//! concurrent load.
//!
//! `start_server` over the example knowledge base, a four-query matrix
//! (a ground atom, an existential, a self-join with a disequality, and
//! the open-world atom `Person(1000000)` beyond the closed table), and
//! 1, 2, 4 and 8 concurrent keep-alive connections, under both
//! schedulers at parallelism 1 and 2. Every request must get a 200 whose
//! estimate and certified interval carry exactly the bits
//! `QueryService::evaluate` returns. Each level starts a fresh server, so
//! its first requests race on cold cache misses.

use infpdb::core::json::Json;
use infpdb::logic::parse;
use infpdb::net::client;
use infpdb::netcmd::{start_server, ServeOptions};
use infpdb::serve::{QueryRequest, SchedulerKind};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const KB: &str = include_str!("../examples/kb.pdb");
const QUERIES: [&str; 4] = [
    "Person(42)",
    "exists x. Person(x)",
    "exists x, y. Person(x) /\\ Person(y) /\\ x != y",
    "Person(1000000)",
];
const EPS: f64 = 1e-3;
/// Requests each connection sends, cycling through the queries.
const REQUESTS: usize = 8;

/// The estimate and the interval's two ends, as bits.
type Bits = [u64; 3];

fn options(scheduler: SchedulerKind, parallelism: usize) -> ServeOptions {
    ServeOptions {
        bind: "127.0.0.1:0".to_string(),
        scheduler,
        parallelism,
        ..ServeOptions::default()
    }
}

/// `QueryService::evaluate` on a server that no client talks to.
fn expected() -> Vec<Bits> {
    let server = start_server(KB, &options(SchedulerKind::Fixed, 1)).expect("server starts");
    let service = server.service();
    let bits = QUERIES
        .iter()
        .map(|q| {
            let query = parse(q, service.pdb().schema()).expect("query parses");
            let approx = service
                .evaluate(QueryRequest::new(query, EPS))
                .expect("query evaluates")
                .approx;
            let iv = approx.interval();
            [
                approx.estimate.to_bits(),
                iv.lo().to_bits(),
                iv.hi().to_bits(),
            ]
        })
        .collect();
    server.shutdown();
    bits
}

/// One keep-alive connection's requests, each checked against
/// `expected`; a failed request or a differing bit panics with `at`.
fn run_connection(addr: SocketAddr, connection: usize, expected: &[Bits], at: &str) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let authority = addr.to_string();
    for i in 0..REQUESTS {
        // staggered, so the connections do not ask in lockstep
        let qi = (i + connection) % QUERIES.len();
        let q = QUERIES[qi];
        let body = Json::obj([("query", Json::str(q)), ("eps", Json::Float(EPS))]).encode();
        let resp = client::request_on(
            &stream,
            &authority,
            "POST",
            "/query",
            &[("content-type", "application/json")],
            body.as_bytes(),
        )
        .unwrap_or_else(|e| panic!("{at}: {q} failed: {e}"));
        let text = resp.body_utf8().expect("UTF-8 body");
        assert_eq!(resp.status, 200, "{at}: {q}: {text}");
        let doc = Json::parse(text).expect("JSON body");
        let bits = |j: Option<&Json>| j.and_then(Json::as_f64).map(f64::to_bits);
        let iv = doc.get("interval");
        let got = [
            bits(doc.get("estimate")),
            bits(iv.and_then(|i| i.get("lo"))),
            bits(iv.and_then(|i| i.get("hi"))),
        ];
        assert_eq!(
            got,
            expected[qi].map(Some),
            "{at}: {q} differs from evaluate"
        );
    }
}

#[test]
fn served_answers_are_bit_identical_to_evaluate_at_every_connection_level() {
    let expected = expected();
    for scheduler in [SchedulerKind::Fixed, SchedulerKind::Stealing] {
        for parallelism in [1, 2] {
            for connections in [1, 2, 4, 8] {
                let server =
                    start_server(KB, &options(scheduler, parallelism)).expect("server starts");
                let (addr, expected) = (server.addr(), &expected);
                let at =
                    format!("{scheduler:?}, parallelism {parallelism}, {connections} connections");
                let at = &at;
                // the scope joins every client and re-raises a client's panic
                std::thread::scope(|s| {
                    for c in 0..connections {
                        s.spawn(move || run_connection(addr, c, expected, at));
                    }
                });
                server.shutdown();
            }
        }
    }
}
