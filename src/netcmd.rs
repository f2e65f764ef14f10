//! The network subcommand: `infpdb serve`, the long-running HTTP front
//! door.
//!
//! It builds the same open-world completion as `infpdb open`/`batch`
//! (geometric tail over the first declared unary relation), so answers
//! over the wire are bit-identical to the offline subcommands.

use crate::cli::{self, CliError};
use infpdb_net::server::{HttpServer, ServerConfig};
use infpdb_net::{signal, QuotaConfig};
use infpdb_serve::{QueryService, SchedulerKind, ServiceConfig};
use std::time::Duration;

/// Tuning for `serve`, mirroring its command-line flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`--bind`), e.g. `127.0.0.1:7117`; port 0 picks an
    /// ephemeral port (printed at startup).
    pub bind: String,
    /// Service worker threads (`--threads`).
    pub threads: usize,
    /// Intra-query thread budget (`--parallelism`).
    pub parallelism: usize,
    /// Intra-request subtask scheduling (`--scheduler fixed|stealing`).
    pub scheduler: SchedulerKind,
    /// Default tolerance for requests that omit `eps` (`--eps`).
    pub default_eps: f64,
    /// Per-client quota: sustained requests/second (`--quota-rps`);
    /// unset disables quotas.
    pub quota_rps: Option<f64>,
    /// Per-client quota burst capacity (`--quota-burst`).
    pub quota_burst: f64,
    /// Include arena statistics in `/metrics` (`--arena-stats`).
    pub arena_stats: bool,
    /// Fresh-fact tail mass (`--tail-mass`).
    pub tail_mass: f64,
    /// First integer the tail invents facts for (`--tail-start`).
    pub tail_start: i64,
    /// Durable store directory (`--store`); unset disables durability.
    /// When set, the service recovers the persisted prefix on startup,
    /// warms to the default ε, and snapshots after the warm, then
    /// periodically and once more on graceful shutdown.
    pub store_dir: Option<String>,
    /// Facts per durable-store shard file (`--shard-capacity`); unset
    /// uses the store's default (2²⁰). Only meaningful with `store_dir`.
    pub store_shard_capacity: Option<u64>,
    /// Interval between periodic snapshots (`--snapshot-every`, in
    /// seconds); only meaningful with `store_dir`.
    pub snapshot_every: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            bind: "127.0.0.1:7117".to_string(),
            threads: 4,
            parallelism: 1,
            scheduler: SchedulerKind::Fixed,
            default_eps: 0.01,
            quota_rps: None,
            quota_burst: 32.0,
            arena_stats: false,
            tail_mass: cli::TAIL_MASS,
            tail_start: cli::TAIL_START,
            store_dir: None,
            store_shard_capacity: None,
            snapshot_every: Duration::from_secs(30),
        }
    }
}

fn build_service(table_text: &str, opts: &ServeOptions) -> Result<QueryService, CliError> {
    let table = cli::parse_table(table_text)?;
    let open = cli::open_world_pdb(&table, opts.tail_mass, opts.tail_start)?;
    Ok(QueryService::new(
        open,
        ServiceConfig {
            threads: opts.threads,
            parallelism: opts.parallelism,
            scheduler: opts.scheduler,
            arena_stats: opts.arena_stats,
            store_dir: opts.store_dir.as_ref().map(std::path::PathBuf::from),
            store_shard_capacity: opts.store_shard_capacity,
            ..ServiceConfig::default()
        },
    ))
}

fn server_config(opts: &ServeOptions) -> Result<ServerConfig, CliError> {
    let quota = match opts.quota_rps {
        None => None,
        Some(rps) => Some(QuotaConfig::new(rps, opts.quota_burst).map_err(CliError::Usage)?),
    };
    Ok(ServerConfig {
        default_eps: opts.default_eps,
        quota,
        arena_stats: opts.arena_stats,
        ..ServerConfig::default()
    })
}

/// Starts the front door over a table file. Returns the running server
/// so the caller (binary or test) owns the serve loop.
pub fn start_server(table_text: &str, opts: &ServeOptions) -> Result<HttpServer, CliError> {
    let service = build_service(table_text, opts)?;
    let config = server_config(opts)?;
    HttpServer::start(service, config, &opts.bind)
        .map_err(|e| CliError::Library(format!("cannot bind {}: {e}", opts.bind)))
}

/// The `serve` subcommand: binds, prints `listening on <addr>`, and
/// blocks until SIGTERM/SIGINT, then drains gracefully (in-flight
/// queries finish with their partial certificates; new submissions are
/// refused with `503 shutting_down`).
pub fn cmd_serve(
    table_text: &str,
    opts: &ServeOptions,
    mut status: impl std::io::Write,
) -> Result<(), CliError> {
    signal::install_termination_handler();
    let server = start_server(table_text, opts)?;
    writeln!(status, "listening on {}", server.addr())
        .map_err(|e| CliError::Library(e.to_string()))?;
    let durable = server.service().store_status().is_some();
    if durable {
        if let Some(s) = server.service().store_status() {
            writeln!(status, "store: {}", s.label()).ok();
        }
        // ground the default-ε prefix up front, then snapshot it so a
        // crash right after startup already has something to recover
        match server.service().warm(opts.default_eps) {
            Ok(n) => {
                writeln!(status, "warmed n = {n} facts at eps = {}", opts.default_eps).ok();
            }
            Err(e) => {
                writeln!(status, "warm failed: {e}").ok();
            }
        }
        match server.service().snapshot() {
            Ok(Some(info)) => {
                writeln!(
                    status,
                    "snapshot epoch {} ({} facts)",
                    info.epoch, info.facts
                )
                .ok();
            }
            Ok(None) => {}
            Err(e) => {
                writeln!(status, "snapshot failed: {e}").ok();
            }
        }
    }
    status.flush().ok();
    let mut last_snapshot = std::time::Instant::now();
    while !signal::termination_requested() {
        std::thread::sleep(Duration::from_millis(50));
        if durable && last_snapshot.elapsed() >= opts.snapshot_every {
            if let Err(e) = server.service().snapshot() {
                writeln!(status, "snapshot failed: {e}").ok();
                status.flush().ok();
            }
            last_snapshot = std::time::Instant::now();
        }
    }
    writeln!(
        status,
        "draining: in-flight queries finishing, new submissions refused"
    )
    .ok();
    status.flush().ok();
    if durable {
        // one final snapshot so a graceful stop never loses the prefix
        if let Err(e) = server.service().snapshot() {
            writeln!(status, "final snapshot failed: {e}").ok();
        }
    }
    server.shutdown();
    writeln!(status, "drained; bye").ok();
    Ok(())
}

/// Parses `serve` flags from `args` (everything after the table path).
/// A flag `serve` does not declare, a valued flag without its value, a
/// repeated flag and a second positional argument are usage errors.
pub fn parse_serve_options(args: &[String]) -> Result<ServeOptions, CliError> {
    let flags = cli::Flags::parse(
        args,
        &[
            "--bind",
            "--threads",
            "--parallelism",
            "--scheduler",
            "--eps",
            "--quota-rps",
            "--quota-burst",
            "--tail-mass",
            "--tail-start",
            "--store",
            "--shard-capacity",
            "--snapshot-every",
        ],
        &["--arena-stats"],
    )?;
    flags.positionals([])?;
    let d = ServeOptions::default();
    let scheduler = match flags.get("--scheduler") {
        None => d.scheduler,
        Some(other) => SchedulerKind::parse(other).ok_or_else(|| {
            CliError::Usage(format!(
                "--scheduler must be fixed or stealing, got {other:?}"
            ))
        })?,
    };
    let snapshot_every = match flags.parsed::<f64>("--snapshot-every")? {
        None => d.snapshot_every,
        // at least 0.05 s; NaN passes the clamp and is refused together
        // with infinite and overflowing values
        Some(secs) => Duration::try_from_secs_f64(secs.clamp(0.05, f64::INFINITY))
            .map_err(|_| CliError::Usage("--snapshot-every must be finite".into()))?,
    };
    let opts = ServeOptions {
        bind: flags.get("--bind").map_or(d.bind, str::to_string),
        threads: flags.parsed("--threads")?.unwrap_or(d.threads),
        parallelism: flags.parsed("--parallelism")?.unwrap_or(d.parallelism),
        scheduler,
        default_eps: flags.parsed("--eps")?.unwrap_or(d.default_eps),
        quota_rps: flags.parsed("--quota-rps")?,
        quota_burst: flags.parsed("--quota-burst")?.unwrap_or(d.quota_burst),
        arena_stats: flags.has("--arena-stats"),
        tail_mass: flags.parsed("--tail-mass")?.unwrap_or(d.tail_mass),
        tail_start: flags.parsed("--tail-start")?.unwrap_or(d.tail_start),
        store_dir: flags.get("--store").map(str::to_string),
        store_shard_capacity: flags.parsed("--shard-capacity")?,
        snapshot_every,
    };
    if opts.threads < 1 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    if opts.store_shard_capacity == Some(0) {
        return Err(CliError::Usage(
            "--shard-capacity must be a positive integer".into(),
        ));
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::json::Json;
    use infpdb_net::client::{self, BaseUrl};

    const TABLE: &str = "\
relation Person 1
Person turing @ 0.99
Person 42 @ 0.5
";

    #[test]
    fn start_server_answers_over_http_like_cmd_open() {
        let opts = ServeOptions {
            bind: "127.0.0.1:0".to_string(),
            threads: 1,
            ..ServeOptions::default()
        };
        let server = start_server(TABLE, &opts).unwrap();
        let base = BaseUrl::parse(&format!("http://{}", server.addr())).unwrap();
        let body = Json::obj([
            ("query", Json::str("Person(1000000)")),
            ("eps", Json::Float(0.01)),
        ])
        .encode();
        let resp = client::request(
            &base,
            "POST",
            "/query",
            &[("content-type", "application/json")],
            body.as_bytes(),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        let doc = Json::parse(resp.body_utf8().unwrap()).unwrap();
        let wire = doc.get("estimate").and_then(Json::as_f64).unwrap();
        // same number the offline `open` subcommand prints
        let offline = cli::cmd_open(TABLE, "Person(1000000)", 0.01, 0.5, 1_000_000).unwrap();
        assert!(
            offline.contains(&format!("= {wire} ±")),
            "wire {wire} vs offline {offline}"
        );
        server.shutdown();
    }

    #[test]
    fn flag_parsing_for_serve() {
        let a = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let opts = parse_serve_options(&a(&[
            "--bind",
            "0.0.0.0:9000",
            "--threads",
            "8",
            "--parallelism",
            "2",
            "--quota-rps",
            "50",
            "--arena-stats",
        ]))
        .unwrap();
        assert_eq!(opts.bind, "0.0.0.0:9000");
        assert_eq!(opts.threads, 8);
        assert_eq!(opts.parallelism, 2);
        assert_eq!(opts.quota_rps, Some(50.0));
        assert!(opts.arena_stats);
        assert!(parse_serve_options(&a(&["--threads", "zero"])).is_err());
        assert!(parse_serve_options(&a(&["--threads", "0"])).is_err());
        // counts are whole numbers: a fraction is not rounded down, and
        // a float past usize::MAX does not saturate into a pool that
        // tries to spawn usize::MAX workers
        for bad in ["2.9", "inf", "1e30", "-1", "NaN"] {
            for name in ["--threads", "--parallelism"] {
                assert!(
                    parse_serve_options(&a(&[name, bad])).is_err(),
                    "{name} {bad} must be refused"
                );
            }
        }
        assert!(parse_serve_options(&a(&["--quota-rps", "lots"])).is_err());
        assert_eq!(
            parse_serve_options(&a(&["--shard-capacity", "4096"]))
                .unwrap()
                .store_shard_capacity,
            Some(4096)
        );
        assert_eq!(
            parse_serve_options(&a(&[])).unwrap().store_shard_capacity,
            None
        );
        assert!(parse_serve_options(&a(&["--shard-capacity", "0"])).is_err());
        assert_eq!(
            parse_serve_options(&a(&["--scheduler", "stealing"]))
                .unwrap()
                .scheduler,
            SchedulerKind::Stealing
        );
        assert!(parse_serve_options(&a(&["--scheduler", "magic"])).is_err());
        // the tail start is an integer, as for `open` and `batch`
        assert_eq!(
            parse_serve_options(&a(&["--tail-start", "-7"]))
                .unwrap()
                .tail_start,
            -7
        );
        for bad in ["100.7", "2.5", "1e30"] {
            assert!(
                matches!(
                    parse_serve_options(&a(&["--tail-start", bad])),
                    Err(CliError::Usage(_))
                ),
                "--tail-start {bad} must be refused"
            );
        }
        // the snapshot interval is floored at 0.05 s and must be finite
        let every = |v: &str| parse_serve_options(&a(&["--snapshot-every", v]));
        assert_eq!(
            every("2.5").unwrap().snapshot_every,
            Duration::from_millis(2500)
        );
        assert_eq!(
            every("0.001").unwrap().snapshot_every,
            Duration::from_millis(50)
        );
        for bad in ["inf", "1e30", "NaN"] {
            assert!(
                matches!(every(bad), Err(CliError::Usage(_))),
                "--snapshot-every {bad} must be refused"
            );
        }
    }

    #[test]
    fn undeclared_missing_and_repeated_serve_flags_are_usage_errors() {
        let a = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        for bad in [
            &["--esp", "0.001"][..],
            &["--explain"],
            &["--eps"],
            &["--bind", "--arena-stats"],
            &["--eps", "0.001", "--eps", "0.2"],
            &["--arena-stats", "--arena-stats"],
        ] {
            assert!(
                matches!(parse_serve_options(&a(bad)), Err(CliError::Usage(_))),
                "{bad:?} must be a usage error"
            );
        }
    }

    #[test]
    fn a_positional_after_the_table_is_a_usage_error() {
        let a = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        for bad in [&["stray"][..], &["--threads", "2", "stray", "extra"]] {
            assert!(
                matches!(
                    parse_serve_options(&a(bad)),
                    Err(CliError::Usage(m)) if m == "unexpected argument \"stray\""
                ),
                "{bad:?} must be a usage error naming the first extra"
            );
        }
    }
}
