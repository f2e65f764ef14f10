//! # infpdb-net — the network front door
//!
//! A std-only HTTP/1.1 server (and matching minimal client) exposing
//! the prepared-query serving layer ([`infpdb_serve::QueryService`])
//! over the wire, so an infinite-PDB instance can be queried by
//! anything that speaks HTTP. No TLS, no HTTP/2, no external crates —
//! hand-rolled request parsing, chunked transfer encoding, and
//! Prometheus text exposition on top of `std::net`.
//!
//! ## Routes
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/query` | POST | one query → certified interval + trace |
//! | `/batch` | POST | many queries → streamed ndjson, input order |
//! | `/warm` | POST | eagerly ground the `n(ε)` prefix |
//! | `/healthz` | GET | liveness + drain state |
//! | `/metrics` | GET | Prometheus text format scrape |
//!
//! The error-code mapping from the serving layer's failure taxonomy
//! lives in [`proto`]; per-client token-bucket quotas in [`quota`];
//! graceful SIGTERM drain in [`signal`] + [`server::HttpServer::shutdown`].
//! Transport adds **zero** numeric drift: estimates and certified
//! intervals over the wire are bit-for-bit identical to direct library
//! calls, which the end-to-end tests check response by response.

pub mod client;
pub mod http;
pub mod promtext;
pub mod proto;
pub mod quota;
pub mod server;
pub mod signal;

pub use client::{BaseUrl, ClientResponse};
pub use quota::{QuotaConfig, QuotaDecision, QuotaRegistry};
pub use server::{HttpServer, NetMetrics, ServerConfig};
