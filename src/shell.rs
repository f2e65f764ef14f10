//! `infpdb shell` — an interactive REPL over the prepared-query
//! service.
//!
//! The shell drives either a **local** [`QueryService`] (built from a
//! table file with `load`, completed to an open world exactly like
//! `infpdb open`) or a **remote** front door (`connect
//! http://host:port`, or `infpdb shell --connect URL`), with the same
//! commands against both. The core is [`Shell::handle_line`], a pure
//! line → output function, so regression tests can drive the REPL over
//! a pipe.
//!
//! ```text
//! infpdb> load examples/kb.pdb
//! loaded examples/kb.pdb: 2 relations, 4 facts (open world; threads 4)
//! infpdb> eps 1e-3
//! eps = 0.001
//! infpdb> query Person(1000000)
//! P(Person(1000000)) = 0.2499999999999999 ± 0.0009765625 in [0.24902…, 0.25097…] (n = 9)
//! infpdb> prepare alive exists x. Person(x)
//! prepared alive
//! infpdb> run alive
//! ...
//! infpdb> trace
//! shannon: 4 expansions, 0 memo hits, 1 decompositions
//! ...
//! ```

use crate::cli::{self, CliError};
use infpdb_core::json::Json;
use infpdb_finite::engine::EvalTrace;
use infpdb_logic::parse;
use infpdb_net::client::{self, BaseUrl};
use infpdb_serve::{CostBudget, QueryRequest, QueryService, ServiceConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// What `handle_line` asks the driving loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading lines.
    Continue,
    /// Exit the REPL.
    Quit,
}

enum Backend {
    /// Nothing loaded yet.
    Empty,
    /// An in-process service over a loaded table.
    Local {
        service: QueryService,
        table_text: String,
        path: String,
    },
    /// A remote front door.
    Remote { base: BaseUrl, url: String },
}

/// Injected file reader so tests can run hermetically.
pub type FileReader = Box<dyn Fn(&str) -> std::io::Result<String>>;

/// REPL state: backend, settings, prepared queries, last trace.
pub struct Shell {
    backend: Backend,
    eps: f64,
    threads: usize,
    parallelism: usize,
    deadline: Option<Duration>,
    prepared: BTreeMap<String, String>,
    last_trace: Option<EvalTrace>,
    read_file: FileReader,
}

impl Shell {
    /// A fresh shell with no backend; `read_file` injects file I/O so
    /// tests can run hermetically.
    pub fn new(read_file: impl Fn(&str) -> std::io::Result<String> + 'static) -> Self {
        Shell {
            backend: Backend::Empty,
            eps: 0.01,
            threads: 4,
            parallelism: 1,
            deadline: None,
            prepared: BTreeMap::new(),
            last_trace: None,
            read_file: Box::new(read_file),
        }
    }

    /// Connects to a remote front door (the `--connect` flag).
    pub fn connect(&mut self, url: &str) -> Result<String, String> {
        let base = BaseUrl::parse(url)?;
        // probe /healthz so a bad URL fails at connect time, not on the
        // first query
        let health = client::request(&base, "GET", "/healthz", &[], b"", Duration::from_secs(10))?;
        if health.status != 200 {
            return Err(format!("{url}/healthz answered {}", health.status));
        }
        let doc = Json::parse(health.body_utf8().map_err(|e| e.to_string())?)
            .map_err(|e| format!("healthz body: {e}"))?;
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        self.backend = Backend::Remote {
            base,
            url: url.to_string(),
        };
        Ok(format!("connected to {url} (status: {status})"))
    }

    fn rebuild_local(&mut self) -> Result<(), String> {
        if let Backend::Local {
            table_text, path, ..
        } = &self.backend
        {
            let (text, path) = (table_text.clone(), path.clone());
            self.backend = Backend::Empty;
            self.load(&path, Some(text))?;
        }
        Ok(())
    }

    fn load(&mut self, path: &str, preread: Option<String>) -> Result<String, String> {
        let text = match preread {
            Some(t) => t,
            None => (self.read_file)(path).map_err(|e| format!("cannot read {path}: {e}"))?,
        };
        let table = cli::parse_table(&text).map_err(|e| e.to_string())?;
        let relations = table.schema().len();
        let facts = table.len();
        let open = cli::open_world_pdb(&table, cli::TAIL_MASS, cli::TAIL_START)
            .map_err(|e| e.to_string())?;
        let service = QueryService::new(
            open,
            ServiceConfig {
                threads: self.threads,
                parallelism: self.parallelism,
                ..ServiceConfig::default()
            },
        );
        self.backend = Backend::Local {
            service,
            table_text: text,
            path: path.to_string(),
        };
        Ok(format!(
            "loaded {path}: {relations} relations, {facts} facts (open world; threads {}, parallelism {})",
            self.threads, self.parallelism
        ))
    }

    fn evaluate(&mut self, query: &str) -> Result<String, String> {
        match &self.backend {
            Backend::Empty => {
                Err("no backend: `load <table-file>` or `connect <url>` first".to_string())
            }
            Backend::Local { service, .. } => {
                let q = parse(query, service.pdb().schema()).map_err(|e| e.to_string())?;
                let budget = CostBudget {
                    max_n: None,
                    deadline: self.deadline,
                };
                let resp = service
                    .evaluate(QueryRequest::new(q, self.eps).with_budget(budget))
                    .map_err(|e| e.to_string())?;
                self.last_trace = Some(resp.trace);
                let iv = resp.approx.interval();
                let mut out = format!(
                    "P({query}) = {} ± {} in [{}, {}] (n = {}",
                    resp.approx.estimate,
                    resp.approx.eps,
                    iv.lo(),
                    iv.hi(),
                    resp.approx.n
                );
                if resp.degraded {
                    write!(out, ", degraded from eps = {}", resp.requested_eps).ok();
                }
                if resp.cached {
                    out.push_str(", cached");
                }
                out.push(')');
                Ok(out)
            }
            Backend::Remote { base, .. } => {
                let mut body = vec![
                    ("query".to_string(), Json::str(query)),
                    ("eps".to_string(), Json::Float(self.eps)),
                ];
                if let Some(d) = self.deadline {
                    body.push(("deadline_ms".to_string(), Json::Int(d.as_millis() as i64)));
                }
                let resp = client::request(
                    base,
                    "POST",
                    "/query",
                    &[("content-type", "application/json")],
                    Json::Object(body).encode().as_bytes(),
                    Duration::from_secs(300),
                )?;
                let doc = Json::parse(resp.body_utf8().map_err(|e| e.to_string())?)
                    .map_err(|e| format!("response body: {e}"))?;
                if resp.status != 200 {
                    let code = doc
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str)
                        .unwrap_or("error");
                    let message = doc
                        .get("error")
                        .and_then(|e| e.get("message"))
                        .and_then(Json::as_str)
                        .unwrap_or("");
                    return Err(format!("{} {code}: {message}", resp.status));
                }
                self.last_trace = None; // remote traces are read from the JSON
                let estimate = doc
                    .get("estimate")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let eps = doc.get("eps").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let n = doc.get("n").and_then(Json::as_i64).unwrap_or(0);
                let lo = doc
                    .get("interval")
                    .and_then(|iv| iv.get("lo"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let hi = doc
                    .get("interval")
                    .and_then(|iv| iv.get("hi"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let mut out = format!("P({query}) = {estimate} ± {eps} in [{lo}, {hi}] (n = {n}");
                if doc.get("degraded").and_then(Json::as_bool) == Some(true) {
                    let req = doc
                        .get("requested_eps")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN);
                    write!(out, ", degraded from eps = {req}").ok();
                }
                if doc.get("cached").and_then(Json::as_bool) == Some(true) {
                    out.push_str(", cached");
                }
                out.push(')');
                if let Some(trace) = doc.get("trace") {
                    if !matches!(trace, Json::Null) {
                        self.last_trace = trace_from_json(trace);
                    }
                }
                Ok(out)
            }
        }
    }

    /// `explain <q>`: prints the plan the cost-based optimizer would
    /// run at the current ε without evaluating anything. Local-only —
    /// the plan is derived from the loaded table; a remote server keeps
    /// its planner private.
    fn explain(&self, query: &str) -> Result<String, String> {
        match &self.backend {
            Backend::Empty => {
                Err("no backend: `load <table-file>` or `connect <url>` first".to_string())
            }
            Backend::Remote { .. } => Err(
                "explain requires a local table (`load <table-file>`); the per-request strategy \
                 of a remote server is reported in `trace` after a query"
                    .to_string(),
            ),
            Backend::Local { service, .. } => {
                let q = parse(query, service.pdb().schema()).map_err(|e| e.to_string())?;
                let knobs = infpdb_query::planner::PlanKnobs::default();
                let (compiled, plan, n_eval) =
                    infpdb_query::planner::explain(service.pdb(), &q, self.eps, &knobs)
                        .map_err(|e| e.to_string())?;
                Ok(cli::render_plan(&compiled, &plan, n_eval)
                    .trim_end()
                    .to_string())
            }
        }
    }

    fn show_trace(&self) -> String {
        let Some(t) = self.last_trace else {
            return "no trace yet: run a query first".to_string();
        };
        let mut out = String::new();
        match t.shannon {
            Some(s) => writeln!(
                out,
                "shannon: {} expansions, {} memo hits, {} decompositions",
                s.expansions, s.cache_hits, s.decompositions
            )
            .ok(),
            None => writeln!(out, "shannon: (not traced)").ok(),
        };
        match t.arena {
            Some(a) => writeln!(
                out,
                "arena: {} interned nodes, {} intern hits",
                a.nodes, a.intern_hits
            )
            .ok(),
            None => writeln!(out, "arena: (not traced)").ok(),
        };
        match t.parallel {
            Some(p) => writeln!(
                out,
                "parallel: {} tasks{}",
                p.tasks,
                if p.fallback_seq {
                    " (fell back to sequential)"
                } else {
                    ""
                }
            )
            .ok(),
            None => writeln!(out, "parallel: (sequential evaluation)").ok(),
        };
        match t.plan {
            Some(p) => writeln!(
                out,
                "plan: {} ({} lifted, {} shannon, {} mc, {} kl; cost ~ {:.0})",
                p.label(),
                p.lifted,
                p.shannon,
                p.monte_carlo,
                p.karp_luby,
                f64::from_bits(p.cost_bits)
            )
            .ok(),
            None => writeln!(out, "plan: (none)").ok(),
        };
        out.trim_end().to_string()
    }

    fn show_metrics(&self) -> Result<String, String> {
        match &self.backend {
            Backend::Empty => Err("no backend loaded".to_string()),
            Backend::Local { service, .. } => Ok(service.metrics_dump()),
            Backend::Remote { base, .. } => {
                let resp =
                    client::request(base, "GET", "/metrics", &[], b"", Duration::from_secs(30))?;
                resp.body_utf8()
                    .map(str::to_string)
                    .map_err(|e| e.to_string())
            }
        }
    }

    fn settings(&self) -> String {
        let deadline = match self.deadline {
            None => "off".to_string(),
            Some(d) => format!("{} ms", d.as_millis()),
        };
        let backend = match &self.backend {
            Backend::Empty => "(none)".to_string(),
            Backend::Local { path, .. } => format!("local: {path}"),
            Backend::Remote { url, .. } => format!("remote: {url}"),
        };
        format!(
            "backend = {backend}\neps = {}\nthreads = {}\nparallelism = {}\ndeadline = {deadline}",
            self.eps, self.threads, self.parallelism
        )
    }

    /// Handles one input line, returning the output to print and
    /// whether to keep going. Never panics on malformed input.
    pub fn handle_line(&mut self, line: &str) -> (String, Control) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return (String::new(), Control::Continue);
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let result: Result<String, String> = match cmd {
            "help" | "?" => Ok(HELP.trim_end().to_string()),
            "quit" | "exit" => return ("bye".to_string(), Control::Quit),
            "load" => {
                if rest.is_empty() {
                    Err("usage: load <table-file>".to_string())
                } else {
                    self.load(rest, None)
                }
            }
            "connect" => {
                if rest.is_empty() {
                    Err("usage: connect http://host:port".to_string())
                } else {
                    self.connect(rest)
                }
            }
            "eps" => match rest.parse::<f64>() {
                Ok(e) if e > 0.0 && e.is_finite() => {
                    self.eps = e;
                    Ok(format!("eps = {e}"))
                }
                _ => Err("usage: eps <positive number>".to_string()),
            },
            "threads" => match rest.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    self.threads = n;
                    self.rebuild_local()
                        .map(|_| format!("threads = {n} (service rebuilt)"))
                }
                _ => Err("usage: threads <n >= 1>".to_string()),
            },
            "parallelism" => match rest.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    self.parallelism = n;
                    self.rebuild_local()
                        .map(|_| format!("parallelism = {n} (service rebuilt)"))
                }
                _ => Err("usage: parallelism <n >= 1>".to_string()),
            },
            "deadline" => match rest {
                "off" | "none" => {
                    self.deadline = None;
                    Ok("deadline = off".to_string())
                }
                ms => match ms.parse::<u64>() {
                    Ok(v) if v > 0 => {
                        self.deadline = Some(Duration::from_millis(v));
                        Ok(format!("deadline = {v} ms"))
                    }
                    _ => Err("usage: deadline <ms|off>".to_string()),
                },
            },
            "prepare" => match rest.split_once(char::is_whitespace) {
                Some((name, query)) if !query.trim().is_empty() => {
                    self.prepared
                        .insert(name.to_string(), query.trim().to_string());
                    Ok(format!("prepared {name}"))
                }
                _ => Err("usage: prepare <name> <query>".to_string()),
            },
            "list" => {
                if self.prepared.is_empty() {
                    Ok("(no prepared queries)".to_string())
                } else {
                    Ok(self
                        .prepared
                        .iter()
                        .map(|(name, q)| format!("{name}: {q}"))
                        .collect::<Vec<_>>()
                        .join("\n"))
                }
            }
            "run" => match self.prepared.get(rest).cloned() {
                Some(q) => self.evaluate(&q),
                None => Err(format!(
                    "no prepared query {rest:?} (see `list`, add with `prepare`)"
                )),
            },
            "query" => {
                if rest.is_empty() {
                    Err("usage: query <first-order query>".to_string())
                } else {
                    self.evaluate(rest)
                }
            }
            "explain" => {
                if rest.is_empty() {
                    Err("usage: explain <first-order query>".to_string())
                } else {
                    self.explain(rest)
                }
            }
            "trace" => Ok(self.show_trace()),
            "metrics" | "counters" => self.show_metrics(),
            "settings" | "show" => Ok(self.settings()),
            "warm" => match rest.parse::<f64>() {
                Ok(e) if e > 0.0 => match &self.backend {
                    Backend::Empty => Err("no backend loaded".to_string()),
                    Backend::Local { service, .. } => service
                        .warm(e)
                        .map(|n| format!("materialized {n} facts"))
                        .map_err(|e| e.to_string()),
                    Backend::Remote { base, .. } => {
                        let body = Json::obj([("eps", Json::Float(e))]).encode();
                        client::request(
                            base,
                            "POST",
                            "/warm",
                            &[("content-type", "application/json")],
                            body.as_bytes(),
                            Duration::from_secs(300),
                        )
                        .and_then(|r| {
                            if r.status == 200 {
                                Ok(r.body_utf8().unwrap_or("").trim().to_string())
                            } else {
                                Err(format!("warm answered {}", r.status))
                            }
                        })
                    }
                },
                _ => Err("usage: warm <eps>".to_string()),
            },
            other => Err(format!("unknown command {other:?} (try `help`)")),
        };
        match result {
            Ok(out) => (out, Control::Continue),
            Err(e) => (format!("error: {e}"), Control::Continue),
        }
    }
}

/// Reconstructs an [`EvalTrace`] from the wire JSON (remote backend).
fn trace_from_json(trace: &Json) -> Option<EvalTrace> {
    let shannon = trace.get("shannon").and_then(|s| {
        Some(infpdb_finite::shannon::Stats {
            expansions: s.get("expansions")?.as_i64()? as usize,
            cache_hits: s.get("cache_hits")?.as_i64()? as usize,
            decompositions: s.get("decompositions")?.as_i64()? as usize,
        })
    });
    let arena = trace.get("arena").and_then(|a| {
        Some(infpdb_finite::arena::ArenaStats {
            nodes: a.get("nodes")?.as_i64()? as usize,
            intern_hits: a.get("intern_hits")?.as_i64()? as usize,
        })
    });
    let parallel = trace.get("parallel").and_then(|p| {
        Some(infpdb_finite::shannon::ParReport {
            tasks: p.get("tasks")?.as_i64()? as usize,
            fallback_seq: p.get("fallback_seq")?.as_bool()?,
        })
    });
    let plan = trace.get("plan").and_then(|p| {
        Some(infpdb_finite::plan::PlanSummary {
            lifted: p.get("lifted")?.as_i64()? as u32,
            shannon: p.get("shannon")?.as_i64()? as u32,
            monte_carlo: p.get("mc")?.as_i64()? as u32,
            karp_luby: p.get("kl")?.as_i64()? as u32,
            cost_bits: p.get("cost_bits")?.as_i64()? as u64,
        })
    });
    Some(EvalTrace {
        shannon,
        arena,
        parallel,
        plan,
    })
}

const HELP: &str = "\
commands:
  load <table-file>        load a PDB table, open-world completed
  connect <url>            talk to a remote `infpdb serve` instead
  query <q>                evaluate a first-order query
  explain <q>              show the cost-based plan at the current eps
  prepare <name> <q>       name a query for reuse
  run <name>               evaluate a prepared query
  list                     list prepared queries
  eps <e>                  set the additive tolerance
  threads <n>              set service worker threads (rebuilds)
  parallelism <n>          set intra-query threads (rebuilds)
  deadline <ms|off>        per-query deadline
  warm <eps>               eagerly ground the n(eps) prefix
  trace                    show the last evaluation's trace
  metrics                  show service counters
  settings                 show current settings
  quit                     leave
";

/// Runs the interactive loop over arbitrary reader/writer (stdin and
/// stdout in the binary; pipes in tests). `args` are the `shell`
/// subcommand's arguments: `--connect URL` drives a remote `serve`, and
/// any other flag or a positional argument is a usage error. Returns an
/// error only on bad arguments or I/O failure — command errors are
/// printed and the loop continues.
pub fn repl(
    input: impl std::io::BufRead,
    mut output: impl std::io::Write,
    args: &[String],
    interactive: bool,
) -> Result<(), CliError> {
    let flags = crate::cli::Flags::parse(args, &["--connect"], &[])?;
    flags.positionals([])?;
    let mut shell = Shell::new(|path| std::fs::read_to_string(path));
    if let Some(url) = flags.get("--connect") {
        match shell.connect(url) {
            Ok(msg) => writeln!(output, "{msg}").map_err(|e| CliError::Library(e.to_string()))?,
            Err(e) => return Err(CliError::Usage(format!("--connect {url}: {e}"))),
        }
    }
    if interactive {
        write!(output, "infpdb> ").ok();
        output.flush().ok();
    }
    for line in input.lines() {
        let line = line.map_err(|e| CliError::Library(e.to_string()))?;
        let (out, control) = shell.handle_line(&line);
        if !out.is_empty() {
            writeln!(output, "{out}").map_err(|e| CliError::Library(e.to_string()))?;
        }
        if control == Control::Quit {
            return Ok(());
        }
        if interactive {
            write!(output, "infpdb> ").ok();
            output.flush().ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "\
relation BornIn 2
relation Person 1
BornIn turing london @ 0.96
Person turing @ 0.99
Person 42 @ 0.5
";

    fn shell() -> Shell {
        Shell::new(|path| {
            if path == "kb.pdb" {
                Ok(TABLE.to_string())
            } else {
                Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope"))
            }
        })
    }

    #[test]
    fn load_then_query_reports_certified_interval() {
        let mut sh = shell();
        let (out, c) = sh.handle_line("load kb.pdb");
        assert_eq!(c, Control::Continue);
        assert!(out.contains("2 relations, 3 facts"), "{out}");
        let (out, _) = sh.handle_line("query Person(42)");
        assert!(out.starts_with("P(Person(42)) = "), "{out}");
        assert!(out.contains(" in ["), "{out}");
        // and the trace from that evaluation is inspectable
        let (trace, _) = sh.handle_line("trace");
        assert!(
            trace.contains("shannon") || trace.contains("arena"),
            "{trace}"
        );
    }

    #[test]
    fn shell_matches_the_open_subcommand() {
        // the regression contract: identical estimates to `infpdb open`
        let mut sh = shell();
        sh.handle_line("load kb.pdb");
        for eps in ["0.01", "0.001"] {
            sh.handle_line(&format!("eps {eps}"));
            let (out, _) = sh.handle_line("query Person(1000000)");
            let expected = cli::cmd_open(
                TABLE,
                "Person(1000000)",
                eps.parse().unwrap(),
                0.5,
                1_000_000,
            )
            .unwrap();
            let shell_est = out
                .split('=')
                .nth(1)
                .unwrap()
                .trim()
                .split(' ')
                .next()
                .unwrap();
            let open_est = expected
                .split('=')
                .nth(1)
                .unwrap()
                .trim()
                .split(' ')
                .next()
                .unwrap();
            assert_eq!(shell_est, open_est, "eps {eps}: {out} vs {expected}");
        }
    }

    #[test]
    fn explain_prints_the_plan_and_matches_the_cli() {
        let mut sh = shell();
        // before a backend is loaded, explain is a clean error
        let (out, _) = sh.handle_line("explain Person(42)");
        assert!(out.starts_with("error: no backend"), "{out}");
        sh.handle_line("load kb.pdb");
        let (out, _) = sh.handle_line("explain Person(1000000)");
        assert!(out.starts_with("plan: "), "{out}");
        assert!(out.contains("component 0"), "{out}");
        assert!(out.contains("cost ~"), "{out}");
        // same plan as `infpdb open --explain` at the same ε and tail
        let via_cli =
            cli::cmd_open_explain(TABLE, "Person(1000000)", 0.01, 0.5, 1_000_000).unwrap();
        assert_eq!(out, via_cli.trim_end());
        // after a query, the trace reports the executed plan summary
        sh.handle_line("query Person(1000000)");
        let (trace, _) = sh.handle_line("trace");
        assert!(trace.contains("plan: "), "{trace}");
    }

    #[test]
    fn prepare_list_run_cycle() {
        let mut sh = shell();
        sh.handle_line("load kb.pdb");
        let (out, _) = sh.handle_line("prepare anyone exists x. Person(x)");
        assert_eq!(out, "prepared anyone");
        let (out, _) = sh.handle_line("list");
        assert_eq!(out, "anyone: exists x. Person(x)");
        let (out, _) = sh.handle_line("run anyone");
        assert!(out.starts_with("P(exists x. Person(x)) = "), "{out}");
        let (out, _) = sh.handle_line("run missing");
        assert!(out.contains("no prepared query"), "{out}");
    }

    #[test]
    fn settings_and_rebuild() {
        let mut sh = shell();
        sh.handle_line("load kb.pdb");
        let (out, _) = sh.handle_line("threads 2");
        assert!(out.contains("threads = 2"), "{out}");
        let (out, _) = sh.handle_line("parallelism 2");
        assert!(out.contains("parallelism = 2"), "{out}");
        let (out, _) = sh.handle_line("deadline 5000");
        assert!(out.contains("deadline = 5000 ms"), "{out}");
        let (out, _) = sh.handle_line("settings");
        assert!(out.contains("threads = 2"), "{out}");
        assert!(out.contains("local: kb.pdb"), "{out}");
        // rebuilt service still answers, bit-identically at any
        // parallelism
        let (a, _) = sh.handle_line("query Person(42)");
        sh.handle_line("parallelism 1");
        let (b, _) = sh.handle_line("query Person(42)");
        let est = |s: &str| {
            s.split('=')
                .nth(1)
                .unwrap()
                .trim()
                .split(' ')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(est(&a), est(&b));
    }

    #[test]
    fn errors_do_not_kill_the_shell() {
        let mut sh = shell();
        let (out, c) = sh.handle_line("query Person(42)");
        assert_eq!(c, Control::Continue);
        assert!(out.starts_with("error: no backend"), "{out}");
        let (out, _) = sh.handle_line("load missing.pdb");
        assert!(out.starts_with("error: cannot read"), "{out}");
        sh.handle_line("load kb.pdb");
        let (out, _) = sh.handle_line("query Nope(1)");
        assert!(out.starts_with("error:"), "{out}");
        let (out, _) = sh.handle_line("eps minus-one");
        assert!(out.starts_with("error: usage"), "{out}");
        let (out, _) = sh.handle_line("frobnicate");
        assert!(out.contains("unknown command"), "{out}");
        // still alive
        let (out, _) = sh.handle_line("query Person(42)");
        assert!(out.starts_with("P("), "{out}");
        let (out, c) = sh.handle_line("quit");
        assert_eq!(out, "bye");
        assert_eq!(c, Control::Quit);
    }

    #[test]
    fn metrics_and_warm_work_locally() {
        let mut sh = shell();
        sh.handle_line("load kb.pdb");
        let (out, _) = sh.handle_line("warm 0.01");
        assert!(out.starts_with("materialized "), "{out}");
        sh.handle_line("query Person(42)");
        let (out, _) = sh.handle_line("metrics");
        assert!(out.contains("serve_requests_completed_total"), "{out}");
        // the same Prometheus text a remote shell reads from `/metrics`
        let scrape = infpdb_net::promtext::parse_scrape(&out).expect("metrics parse");
        let problems = infpdb_net::promtext::lint(&scrape);
        assert!(problems.is_empty(), "lint problems: {problems:?}");
    }

    #[test]
    fn a_positional_argument_is_a_usage_error() {
        // a URL without `--connect` is refused, not ignored for a local
        // shell
        let args = ["http://127.0.0.1:9".to_string()];
        let result = repl(&b"quit\n"[..], Vec::new(), &args, false);
        assert!(
            matches!(&result, Err(CliError::Usage(m)) if m.contains("http://127.0.0.1:9")),
            "{result:?}"
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut sh = shell();
        assert_eq!(sh.handle_line(""), (String::new(), Control::Continue));
        assert_eq!(
            sh.handle_line("# a comment"),
            (String::new(), Control::Continue)
        );
    }
}
