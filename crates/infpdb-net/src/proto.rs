//! The HTTP body protocol: JSON request/response shapes and the mapping
//! from the PR-2 failure taxonomy ([`ServeError`]) onto HTTP status
//! codes.
//!
//! # Error-code mapping
//!
//! | `ServeError` | HTTP | `code` | `Retry-After` |
//! |---|---|---|---|
//! | `Rejected` | 422 | `rejected` | — |
//! | `Query` | 400 | `bad_query` | — |
//! | `Overloaded` | 503 | `overloaded` | 1 s |
//! | `Cancelled` | 499 | `cancelled` | — |
//! | `DeadlineExceeded` | 504 | `deadline_exceeded` | 1 s |
//! | `EnginePanic` | 500 | `engine_panic` | 1 s |
//! | `Transient` | 503 | `transient` | 1 s |
//! | `CircuitOpen` | 503 | `circuit_open` | 2 s |
//! | `Shutdown` (drain) | 503 | `shutting_down` | 5 s |
//! | quota exhausted | 429 | `quota_exhausted` | computed |
//!
//! `Cancelled` and `DeadlineExceeded` bodies carry the sound partial
//! certificate (`partial`) when the serving layer produced one — the
//! ε-widening degradation story extends over the wire.

use infpdb_core::json::Json;
use infpdb_finite::engine::EvalTrace;
use infpdb_query::approx::Approximation;
use infpdb_serve::service::QueryResponse;
use infpdb_serve::ServeError;

/// Default tolerance when a request body omits `eps`.
pub const DEFAULT_EPS: f64 = 0.01;

/// One parsed `/query` (or `/batch` element) request.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuery {
    /// The query text (parsed against the service's schema server-side).
    pub query: String,
    /// Additive tolerance ε.
    pub eps: f64,
    /// Optional deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Optional cap on the truncation length `n`.
    pub max_n: Option<usize>,
}

/// A malformed request body: the message goes into a 400 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadBody(pub String);

impl std::fmt::Display for BadBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn wire_query_from_value(doc: &Json, default_eps: f64) -> Result<WireQuery, BadBody> {
    let query = doc
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| BadBody("missing string field \"query\"".into()))?
        .to_string();
    let eps = match doc.get("eps") {
        Some(v) => v
            .as_f64()
            .ok_or_else(|| BadBody("\"eps\" must be a number".into()))?,
        None => default_eps,
    };
    let deadline_ms = match doc.get("deadline_ms") {
        Some(v) => Some(
            u64::try_from(
                v.as_i64()
                    .ok_or_else(|| BadBody("\"deadline_ms\" must be an integer".into()))?,
            )
            .map_err(|_| BadBody("\"deadline_ms\" must be non-negative".into()))?,
        ),
        None => None,
    };
    let max_n = match doc.get("max_n") {
        Some(v) => Some(
            usize::try_from(
                v.as_i64()
                    .ok_or_else(|| BadBody("\"max_n\" must be an integer".into()))?,
            )
            .map_err(|_| BadBody("\"max_n\" must be non-negative".into()))?,
        ),
        None => None,
    };
    Ok(WireQuery {
        query,
        eps,
        deadline_ms,
        max_n,
    })
}

/// Parses a `POST /query` body: `{"query": "...", "eps": 0.01,
/// "deadline_ms": 500, "max_n": 100000}` (all but `query` optional).
pub fn parse_query_body(body: &str, default_eps: f64) -> Result<WireQuery, BadBody> {
    let doc = Json::parse(body).map_err(|e| BadBody(e.to_string()))?;
    wire_query_from_value(&doc, default_eps)
}

/// Parses a `POST /batch` body: `{"queries": ["q1", …], "eps": …}` with
/// shared options, or `{"queries": [{"query": "q1", "eps": …}, …]}` with
/// per-element options overriding the shared ones.
pub fn parse_batch_body(body: &str, default_eps: f64) -> Result<Vec<WireQuery>, BadBody> {
    let doc = Json::parse(body).map_err(|e| BadBody(e.to_string()))?;
    let shared_eps = match doc.get("eps") {
        Some(v) => v
            .as_f64()
            .ok_or_else(|| BadBody("\"eps\" must be a number".into()))?,
        None => default_eps,
    };
    let items = doc
        .get("queries")
        .and_then(Json::as_array)
        .ok_or_else(|| BadBody("missing array field \"queries\"".into()))?;
    if items.is_empty() {
        return Err(BadBody("\"queries\" must not be empty".into()));
    }
    items
        .iter()
        .map(|item| match item {
            Json::Str(q) => Ok(WireQuery {
                query: q.clone(),
                eps: shared_eps,
                deadline_ms: None,
                max_n: None,
            }),
            Json::Object(_) => wire_query_from_value(item, shared_eps),
            _ => Err(BadBody(
                "\"queries\" elements must be strings or objects".into(),
            )),
        })
        .collect()
}

/// Parses a `POST /warm` body: `{"eps": 0.001}`.
pub fn parse_warm_body(body: &str) -> Result<f64, BadBody> {
    let doc = Json::parse(body).map_err(|e| BadBody(e.to_string()))?;
    doc.get("eps")
        .and_then(Json::as_f64)
        .ok_or_else(|| BadBody("missing numeric field \"eps\"".into()))
}

/// Serializes an [`Approximation`] (full answers and partial
/// certificates share the shape).
pub fn approximation_json(a: &Approximation) -> Json {
    let interval = a.interval();
    Json::obj([
        ("estimate", Json::Float(a.estimate)),
        ("eps", Json::Float(a.eps)),
        (
            "interval",
            Json::obj([
                ("lo", Json::Float(interval.lo())),
                ("hi", Json::Float(interval.hi())),
            ]),
        ),
        ("n", Json::Int(a.n as i64)),
        ("tail_mass", Json::Float(a.tail_mass)),
    ])
}

/// Serializes an [`EvalTrace`] summary (absent stages are `null`).
pub fn trace_json(t: &EvalTrace) -> Json {
    Json::obj([
        (
            "shannon",
            t.shannon
                .map(|s| {
                    Json::obj([
                        ("expansions", Json::Int(s.expansions as i64)),
                        ("cache_hits", Json::Int(s.cache_hits as i64)),
                        ("decompositions", Json::Int(s.decompositions as i64)),
                    ])
                })
                .unwrap_or(Json::Null),
        ),
        (
            "arena",
            t.arena
                .map(|a| {
                    Json::obj([
                        ("nodes", Json::Int(a.nodes as i64)),
                        ("intern_hits", Json::Int(a.intern_hits as i64)),
                    ])
                })
                .unwrap_or(Json::Null),
        ),
        (
            "parallel",
            t.parallel
                .map(|p| {
                    Json::obj([
                        ("tasks", Json::Int(p.tasks as i64)),
                        ("fallback_seq", Json::Bool(p.fallback_seq)),
                    ])
                })
                .unwrap_or(Json::Null),
        ),
        (
            "plan",
            t.plan
                .map(|p| {
                    Json::obj([
                        ("lifted", Json::Int(i64::from(p.lifted))),
                        ("shannon", Json::Int(i64::from(p.shannon))),
                        ("mc", Json::Int(i64::from(p.monte_carlo))),
                        ("kl", Json::Int(i64::from(p.karp_luby))),
                        // positive-finite f64 bit patterns have a clear
                        // sign bit, so the cost survives the i64 round-trip
                        ("cost_bits", Json::Int(p.cost_bits as i64)),
                    ])
                })
                .unwrap_or(Json::Null),
        ),
    ])
}

/// Serializes a successful [`QueryResponse`], echoing the query text so
/// streamed batch lines are self-describing.
pub fn response_json(query: &str, r: &QueryResponse) -> Json {
    let mut pairs = vec![("query".to_string(), Json::str(query))];
    if let Json::Object(approx) = approximation_json(&r.approx) {
        pairs.extend(approx);
    }
    pairs.push(("requested_eps".into(), Json::Float(r.requested_eps)));
    pairs.push(("degraded".into(), Json::Bool(r.degraded)));
    pairs.push(("cached".into(), Json::Bool(r.cached)));
    // the strategy of the plan that ran (null when the trace has none)
    pairs.push((
        "strategy".into(),
        r.strategy().map(Json::str).unwrap_or(Json::Null),
    ));
    pairs.push((
        "report".into(),
        Json::obj([
            (
                "escape_probability",
                Json::Float(r.report.escape_probability),
            ),
            (
                "expected_size_bound",
                Json::Float(r.report.expected_size_bound),
            ),
        ]),
    ));
    pairs.push(("trace".into(), trace_json(&r.trace)));
    Json::Object(pairs)
}

/// How one error renders on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` header value in seconds, when retrying makes sense.
    pub retry_after: Option<u64>,
    /// The JSON body (an `{"error": {…}}` envelope).
    pub body: Json,
}

impl WireError {
    fn new(status: u16, retry_after: Option<u64>, code: &str, message: String) -> Self {
        WireError::with_fields(status, retry_after, code, message, Vec::new())
    }

    fn with_fields(
        status: u16,
        retry_after: Option<u64>,
        code: &str,
        message: String,
        extra: Vec<(String, Json)>,
    ) -> Self {
        let mut fields = vec![
            ("code".to_string(), Json::str(code)),
            ("message".to_string(), Json::str(message)),
            ("retryable".to_string(), Json::Bool(retry_after.is_some())),
        ];
        fields.extend(extra);
        WireError {
            status,
            retry_after,
            body: Json::obj([("error", Json::Object(fields))]),
        }
    }

    /// A 400 for an unparseable body.
    pub fn bad_body(e: &BadBody) -> Self {
        WireError::new(400, None, "bad_request", e.to_string())
    }

    /// A 429 for an exhausted per-client quota.
    pub fn quota_exhausted(retry_after_secs: u64) -> Self {
        WireError::new(
            429,
            Some(retry_after_secs.max(1)),
            "quota_exhausted",
            "per-client admission quota exhausted".into(),
        )
    }

    /// A 400 for a query that does not parse against the schema.
    pub fn bad_query(message: &str) -> Self {
        WireError::new(400, None, "bad_query", message.to_string())
    }

    /// A routing/framing error; the code follows the status.
    pub fn routing(status: u16, message: &str) -> Self {
        let code = match status {
            404 => "not_found",
            405 => "method_not_allowed",
            408 => "request_timeout",
            413 => "payload_too_large",
            _ => "bad_request",
        };
        WireError::new(status, None, code, message.to_string())
    }

    /// The query string inside `error.code`, for tests and clients.
    pub fn code(&self) -> &str {
        self.body
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("")
    }
}

fn partial_fields(facts: usize, partial: &Option<Approximation>) -> Vec<(String, Json)> {
    vec![
        ("facts_processed".to_string(), Json::Int(facts as i64)),
        (
            "partial".to_string(),
            partial
                .as_ref()
                .map(approximation_json)
                .unwrap_or(Json::Null),
        ),
    ]
}

/// Maps a [`ServeError`] onto its wire rendering (see the module table).
pub fn map_serve_error(e: &ServeError) -> WireError {
    match e {
        ServeError::Rejected {
            requested_eps,
            needed_n,
            max_n,
        } => WireError::with_fields(
            422,
            None,
            "rejected",
            e.to_string(),
            vec![
                ("requested_eps".to_string(), Json::Float(*requested_eps)),
                ("needed_n".to_string(), Json::Int(*needed_n as i64)),
                ("max_n".to_string(), Json::Int(*max_n as i64)),
            ],
        ),
        ServeError::Query(_) => WireError::new(400, None, "bad_query", e.to_string()),
        ServeError::Overloaded { queue_cap } => WireError::with_fields(
            503,
            Some(1),
            "overloaded",
            e.to_string(),
            vec![("queue_cap".to_string(), Json::Int(*queue_cap as i64))],
        ),
        ServeError::Cancelled {
            facts_processed,
            partial,
        } => WireError::with_fields(
            499,
            None,
            "cancelled",
            e.to_string(),
            partial_fields(*facts_processed, partial),
        ),
        ServeError::DeadlineExceeded {
            facts_processed,
            partial,
        } => WireError::with_fields(
            504,
            Some(1),
            "deadline_exceeded",
            e.to_string(),
            partial_fields(*facts_processed, partial),
        ),
        ServeError::EnginePanic { .. } => {
            WireError::new(500, Some(1), "engine_panic", e.to_string())
        }
        ServeError::Transient { .. } => WireError::new(503, Some(1), "transient", e.to_string()),
        ServeError::CircuitOpen { .. } => {
            WireError::new(503, Some(2), "circuit_open", e.to_string())
        }
        ServeError::Shutdown => WireError::new(503, Some(5), "shutting_down", e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_query::QueryError;

    #[test]
    fn query_body_parses_with_defaults_and_options() {
        let q = parse_query_body(r#"{"query": "exists x. R(x)"}"#, 0.05).unwrap();
        assert_eq!(q.query, "exists x. R(x)");
        assert_eq!(q.eps, 0.05);
        assert_eq!(q.deadline_ms, None);
        let q = parse_query_body(
            r#"{"query": "R(1)", "eps": 0.001, "deadline_ms": 250, "max_n": 42}"#,
            0.05,
        )
        .unwrap();
        assert_eq!(q.eps, 0.001);
        assert_eq!(q.deadline_ms, Some(250));
        assert_eq!(q.max_n, Some(42));
        for bad in [
            "",
            "{}",
            r#"{"query": 3}"#,
            r#"{"query": "x", "eps": "big"}"#,
            r#"{"query": "x", "deadline_ms": -1}"#,
        ] {
            assert!(parse_query_body(bad, 0.05).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn batch_body_accepts_strings_and_objects() {
        let qs = parse_batch_body(r#"{"queries": ["a", "b"], "eps": 0.02}"#, 0.05).unwrap();
        assert_eq!(qs.len(), 2);
        assert!(qs.iter().all(|q| q.eps == 0.02));
        let qs = parse_batch_body(
            r#"{"queries": [{"query": "a", "eps": 0.001}, "b"], "eps": 0.02}"#,
            0.05,
        )
        .unwrap();
        assert_eq!(qs[0].eps, 0.001);
        assert_eq!(qs[1].eps, 0.02);
        assert!(parse_batch_body(r#"{"queries": []}"#, 0.05).is_err());
        assert!(parse_batch_body(r#"{"queries": [7]}"#, 0.05).is_err());
        assert!(parse_batch_body(r#"{}"#, 0.05).is_err());
    }

    #[test]
    fn error_mapping_matches_the_documented_table() {
        let cases: Vec<(ServeError, u16, &str, Option<u64>)> = vec![
            (
                ServeError::Rejected {
                    requested_eps: 0.01,
                    needed_n: 100,
                    max_n: 5,
                },
                422,
                "rejected",
                None,
            ),
            (
                ServeError::Query(QueryError::Math(infpdb_math::MathError::BadTolerance(0.9))),
                400,
                "bad_query",
                None,
            ),
            (
                ServeError::Overloaded { queue_cap: 8 },
                503,
                "overloaded",
                Some(1),
            ),
            (
                ServeError::Cancelled {
                    facts_processed: 3,
                    partial: None,
                },
                499,
                "cancelled",
                None,
            ),
            (
                ServeError::DeadlineExceeded {
                    facts_processed: 9,
                    partial: Some(Approximation {
                        estimate: 0.5,
                        eps: 0.2,
                        n: 9,
                        tail_mass: 0.1,
                    }),
                },
                504,
                "deadline_exceeded",
                Some(1),
            ),
            (
                ServeError::EnginePanic {
                    payload: "boom".into(),
                },
                500,
                "engine_panic",
                Some(1),
            ),
            (
                ServeError::Transient { site: "x".into() },
                503,
                "transient",
                Some(1),
            ),
            (
                ServeError::CircuitOpen {
                    consecutive_failures: 4,
                },
                503,
                "circuit_open",
                Some(2),
            ),
            (ServeError::Shutdown, 503, "shutting_down", Some(5)),
        ];
        for (err, status, code, retry) in cases {
            let w = map_serve_error(&err);
            assert_eq!(w.status, status, "{err:?}");
            assert_eq!(w.code(), code, "{err:?}");
            assert_eq!(w.retry_after, retry, "{err:?}");
            // the body is an error envelope that parses back
            let encoded = w.body.encode();
            let doc = Json::parse(&encoded).unwrap();
            assert!(doc.get("error").is_some());
        }
        // the deadline body carries the sound partial certificate
        let w = map_serve_error(&ServeError::DeadlineExceeded {
            facts_processed: 9,
            partial: Some(Approximation {
                estimate: 0.5,
                eps: 0.2,
                n: 9,
                tail_mass: 0.1,
            }),
        });
        let partial = w.body.get("error").unwrap().get("partial").unwrap();
        assert_eq!(partial.get("estimate").unwrap().as_f64(), Some(0.5));
        assert_eq!(partial.get("n").unwrap().as_i64(), Some(9));
    }

    #[test]
    fn quota_error_always_advises_a_retry() {
        let w = WireError::quota_exhausted(0);
        assert_eq!(w.status, 429);
        assert_eq!(w.retry_after, Some(1));
        assert_eq!(w.code(), "quota_exhausted");
    }
}
