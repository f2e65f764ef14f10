//! The `infpdb` command-line interface.
//!
//! A thin, testable layer over the library: tables are described in a
//! simple text format, queries in the `infpdb_logic` syntax, and each
//! subcommand is a pure function from parsed arguments to a rendered
//! report (the binary in `src/bin/infpdb.rs` only does I/O).
//!
//! # Table format
//!
//! ```text
//! # comments and blank lines are ignored
//! relation BornIn 2        # declare relations first
//! relation Person 1
//!
//! BornIn turing london @ 0.96       # fact: rel args… @ probability
//! Person turing        @ 0.99
//! Person 42            @ 0.5        # integer-looking args are integers
//! Person 20.3          @ 0.1        # decimal-looking args are fixed-point
//! ```
//!
//! # Subcommands
//!
//! Each subcommand declares its flags; an undeclared flag, a valued flag
//! without its value and a repeated flag are usage errors.
//!
//! * `info <table>` — schema, expected size, size distribution head.
//! * `query <table> <query> [--engine E] [--threads N] [--explain]` —
//!   exact Boolean query probability: runs the plan `--explain` prints
//!   (`--engine auto`), forces one strategy on every component
//!   (`lifted`, or `lineage` for Shannon), or enumerates worlds
//!   (`brute`, the reference). `--threads` forks independent lineage
//!   components across scoped threads (the answer is bit-for-bit
//!   identical at any thread count).
//! * `marginals <table> <query>` — per-answer marginal probabilities.
//! * `sample <table> [--count N] [--seed S]` — draw worlds.
//! * `open <table> <query> --eps E [--tail-mass M] [--tail-start K]` —
//!   open-world evaluation: completes the table with a geometric tail of
//!   fresh facts (over the first declared unary relation) and runs the
//!   Proposition 6.1 approximation.
//! * `batch <table> <queries-file> [--threads N] [--parallelism P]
//!   [--eps E] [--max-n N] [--deadline-ms D] [--policy widen|reject]
//!   [--queue-cap C] [--overflow block|reject|shed] [--tail-mass M]
//!   [--tail-start K]` —
//!   evaluates one query per line through the concurrent [`infpdb_serve`]
//!   service (thread pool + result cache + admission control +
//!   backpressure) and appends a metrics dump. `--deadline-ms` bounds
//!   each query's evaluation (cooperatively cancelled mid-truncation,
//!   reporting a sound partial interval when one is certifiable);
//!   `--queue-cap`/`--overflow` bound the submission queue;
//!   `--parallelism` sets the per-request intra-query thread budget
//!   (distinct from `--threads`, the request-pool size).
//! * `store snapshot <table> --dir DIR [--eps E] [--tail-mass M]
//!   [--tail-start K]` — grounds the `n(ε)` prefix of the open-world
//!   completion and writes it to the durable store (crash-safe:
//!   epoch-named segments, then an atomic manifest rename).
//! * `store verify --dir DIR` — offline fsck of a store directory:
//!   per-relation record counts, checksum failures, fingerprint
//!   verification; exits nonzero when any corruption is found.
//! * `store info --dir DIR` — prints the manifest summary.
//! * `bench [--smoke] [--out PATH] [--repeats N] [--threads T]
//!   [--scheduler fixed|stealing]` —
//!   runs the reproducible perf harness over the geometric, zeta, and
//!   blocks fixtures at ε ∈ {1e-2, 1e-3, 1e-4}, prints a summary table,
//!   and writes the `BENCH_<iso-date>.json` artifact (see
//!   `infpdb_bench::harness`). `--repeats` sets the minimum number of
//!   timed executions in the repeat-query (`prepared`) stage, which
//!   grounds the prefix once and re-executes the query against it;
//!   `--threads` sets the intra-query thread budget (estimates are
//!   identical at every value); `--scheduler` restricts the saturation
//!   stage to one scheduler.
//! * `bench store [--smoke] [--facts N] [--append N] [--shard-capacity C]
//!   [--dir DIR] [--out PATH]` — the durable-store scale bench: grounds
//!   an `N`-fact zeta prefix into a sharded store, times the full,
//!   incremental (after appending `--append` facts), and no-op
//!   snapshots, reopens via mmap, checks bit-for-bit answer equality
//!   across thread counts, and writes `BENCH_<iso-date>_store.json`
//!   (see `infpdb_bench::storebench`).

use infpdb_bench::harness;
use infpdb_bench::planner as bench_planner;
use infpdb_bench::saturation::{self, SaturationConfig};
use infpdb_bench::storebench;
use infpdb_core::fact::Fact;
use infpdb_core::schema::{Relation, Schema};
use infpdb_core::space::rand_core::SplitMix64;
use infpdb_core::value::Value;
use infpdb_finite::plan::{evaluate_plan, ChosenPlan};
use infpdb_finite::{worlds, TiTable};
use infpdb_logic::ast::Formula;
use infpdb_logic::compile::CompiledQuery;
use infpdb_logic::parse;
use infpdb_math::series::GeometricSeries;
use infpdb_openworld::independent_facts::complete_ti_table;
use infpdb_query::approx::{approx_prob_boolean, Approximation};
use infpdb_query::planner::{self, Engine, PlanKnobs, PlanProfile, Planner, StrategyKind};
use infpdb_query::prepared::PreparedPdb;
use infpdb_serve::fingerprint::countable_pdb_fingerprint;
use infpdb_serve::{
    CostBudget, DegradePolicy, OverflowPolicy, QueryRequest, QueryService, SchedulerKind,
    ServeError, ServiceConfig,
};
use infpdb_store::Store;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// CLI errors, rendered to stderr by the binary.
#[derive(Debug)]
pub enum CliError {
    /// Table-file syntax error.
    Table {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
    /// Anything from the library layers.
    Library(String),
    /// Bad command-line usage.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Table { line, message } => {
                write!(f, "table error on line {line}: {message}")
            }
            CliError::Library(m) => write!(f, "{m}"),
            CliError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The default open-world tail of `open`, `batch`, `store snapshot`,
/// `serve` and the shell: its total fresh-fact mass, and the first
/// integer it invents facts for. One pair, so the defaults of every
/// subcommand build the same PDB and answer bit-identically.
pub(crate) const TAIL_MASS: f64 = 0.5;
/// See [`TAIL_MASS`].
pub(crate) const TAIL_START: i64 = 1_000_000;

fn lib_err(e: impl std::fmt::Display) -> CliError {
    CliError::Library(e.to_string())
}

/// Parses the table format described in the module docs.
pub fn parse_table(input: &str) -> Result<TiTable, CliError> {
    let mut schema = Schema::new();
    let mut facts: Vec<(Fact, f64)> = Vec::new();
    let mut pending: Vec<(usize, Vec<String>, f64)> = Vec::new();
    for (no, raw) in input.lines().enumerate() {
        let line_no = no + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts: Vec<&str> = line.split_whitespace().collect();
        if parts[0] == "relation" {
            if parts.len() != 3 {
                return Err(CliError::Table {
                    line: line_no,
                    message: "expected `relation <Name> <arity>`".into(),
                });
            }
            let arity: usize = parts[2].parse().map_err(|_| CliError::Table {
                line: line_no,
                message: format!("bad arity {:?}", parts[2]),
            })?;
            schema
                .add(Relation::new(parts[1], arity))
                .map_err(|e| CliError::Table {
                    line: line_no,
                    message: e.to_string(),
                })?;
            continue;
        }
        // fact line: rel args… @ prob
        let at = parts
            .iter()
            .position(|p| *p == "@")
            .ok_or(CliError::Table {
                line: line_no,
                message: "fact lines need `@ <probability>`".into(),
            })?;
        if at + 2 != parts.len() {
            return Err(CliError::Table {
                line: line_no,
                message: "expected exactly one probability after `@`".into(),
            });
        }
        let prob: f64 = parts[at + 1].parse().map_err(|_| CliError::Table {
            line: line_no,
            message: format!("bad probability {:?}", parts[at + 1]),
        })?;
        parts.truncate(at);
        pending.push((line_no, parts.iter().map(|s| s.to_string()).collect(), prob));
    }
    for (line_no, parts, prob) in pending {
        let rel = schema.rel_id(&parts[0]).ok_or_else(|| CliError::Table {
            line: line_no,
            message: format!(
                "unknown relation {:?} (declare it with `relation`)",
                parts[0]
            ),
        })?;
        let expected = schema.relation(rel).arity();
        if parts.len() - 1 != expected {
            return Err(CliError::Table {
                line: line_no,
                message: format!(
                    "relation {} has arity {expected} but got {} arguments",
                    parts[0],
                    parts.len() - 1
                ),
            });
        }
        let args: Vec<Value> = parts[1..].iter().map(|s| parse_value(s)).collect();
        facts.push((Fact::new(rel, args), prob));
    }
    TiTable::from_facts(schema, facts).map_err(lib_err)
}

/// Renders a table back into the text format accepted by
/// [`parse_table`]; `parse_table(&render_table(&t))` reproduces `t`.
///
/// Limitation: the text format is whitespace-separated, so string values
/// containing whitespace (constructible through the library API) cannot
/// round-trip; they are emitted as-is and will re-parse as multiple
/// arguments.
pub fn render_table(table: &TiTable) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (_, r) in table.schema().iter() {
        writeln!(out, "relation {} {}", r.name(), r.arity()).ok();
    }
    for (_, fact, p) in table.iter() {
        let name = table
            .schema()
            .get(fact.rel())
            .map(|r| r.name())
            .unwrap_or("?");
        let args: Vec<String> = fact.args().iter().map(render_value).collect();
        writeln!(out, "{name} {} @ {p}", args.join(" ")).ok();
    }
    out
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Int(n) => n.to_string(),
        Value::Fixed(x) => x.to_string(),
        Value::Str(s) => s.to_string(),
    }
}

/// Integers parse as `Int`, decimals as `Fixed`, everything else as `Str`.
pub fn parse_value(s: &str) -> Value {
    if let Ok(n) = s.parse::<i64>() {
        return Value::int(n);
    }
    if let Some((whole, frac)) = s.split_once('.') {
        if !frac.is_empty()
            && frac.len() <= 9
            && frac.bytes().all(|b| b.is_ascii_digit())
            && (whole.parse::<i64>().is_ok() || whole.is_empty() || whole == "-")
        {
            let mantissa: Result<i64, _> = format!("{whole}{frac}").parse();
            if let Ok(m) = mantissa {
                return Value::fixed(m, frac.len() as u8);
            }
        }
    }
    Value::str(s)
}

/// `--engine`: the planner's choice or one forced strategy, or `None`
/// for brute-force world enumeration (the reference, not a plan).
fn parse_engine(s: &str) -> Result<Option<Engine>, CliError> {
    match s {
        "auto" => Ok(Some(Engine::Auto)),
        "lifted" => Ok(Some(Engine::Force(StrategyKind::Lifted))),
        "lineage" => Ok(Some(Engine::Force(StrategyKind::Shannon))),
        "brute" => Ok(None),
        other => Err(CliError::Usage(format!(
            "unknown engine {other:?} (auto|lifted|lineage|brute)"
        ))),
    }
}

/// `info` subcommand.
pub fn cmd_info(table_text: &str) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let mut out = String::new();
    writeln!(out, "relations:").ok();
    for (_, r) in table.schema().iter() {
        writeln!(out, "  {} / {}", r.name(), r.arity()).ok();
    }
    writeln!(out, "facts: {}", table.len()).ok();
    writeln!(out, "expected instance size: {:.6}", table.expected_size()).ok();
    let dist = table.size_distribution();
    writeln!(out, "size distribution (first entries):").ok();
    for (k, p) in dist.iter().take(8).enumerate() {
        writeln!(out, "  P(S = {k}) = {p:.6}").ok();
    }
    Ok(out)
}

/// The closed-world plan of `query` on `table` under `engine`: profiled
/// on the table itself, at ε = 0, where the sampling strategies are
/// disqualified, so every plan is exact.
fn closed_world_plan(
    table: &TiTable,
    query: &Formula,
    engine: Engine,
) -> Result<(CompiledQuery, Arc<ChosenPlan>), CliError> {
    let knobs = PlanKnobs::default();
    let compiled = CompiledQuery::compile(table.schema(), query);
    let profile =
        PlanProfile::build(&compiled, table, table.fingerprint(), &knobs).map_err(lib_err)?;
    let (plan, _) = Planner::new(profile)
        .plan(engine, 0.0, table.len(), &knobs)
        .map_err(lib_err)?;
    Ok((compiled, plan))
}

/// `query` subcommand.
///
/// Runs the plan `--explain` prints (or the plan of a forced strategy;
/// `brute` enumerates worlds instead). Closed-world evaluation is exact,
/// so the certified interval is the degenerate `[p, p]` — reported
/// anyway so every evaluation path of the CLI answers in the same
/// certified-enclosure vocabulary. `threads` (`--threads`) sets the
/// intra-query thread budget; the answer is bit-for-bit identical at
/// every value.
pub fn cmd_query(
    table_text: &str,
    query: &str,
    engine: &str,
    threads: usize,
) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let q = parse(query, table.schema()).map_err(lib_err)?;
    let p = match parse_engine(engine)? {
        None => worlds::prob_boolean_brute(&q, &table).map_err(lib_err)?,
        Some(engine) => {
            let (compiled, plan) = closed_world_plan(&table, &q, engine)?;
            evaluate_plan(&compiled, &plan, &table, threads, None)
                .map_err(lib_err)?
                .expect("the fork-join executor runs every task")
                .0
        }
    };
    let a = Approximation {
        estimate: p,
        eps: 0.0,
        n: table.len(),
        tail_mass: 0.0,
    };
    let iv = a.interval();
    Ok(format!(
        "P({query}) = {p}\ncertified interval = [{}, {}] (exact, closed world over n = {} facts)\n",
        iv.lo(),
        iv.hi(),
        a.n
    ))
}

/// Renders a [`infpdb_finite::plan::ChosenPlan`] as the `--explain`
/// plan tree: the
/// connective, one line per relation-disjoint component with its safety
/// verdict, chosen strategy, and cost estimate, and the ε budget split.
pub fn render_plan(
    compiled: &infpdb_logic::compile::CompiledQuery,
    plan: &infpdb_finite::plan::ChosenPlan,
    n_eval: usize,
) -> String {
    use infpdb_finite::plan::Strategy;
    use infpdb_logic::compile::Connective;
    let mut out = String::new();
    let conn = match plan.connective {
        Connective::Single => "single component",
        Connective::And => "independent-and",
        Connective::Or => "independent-or",
    };
    writeln!(
        out,
        "plan: {conn}, eps = {}, truncation eps = {}, evaluation prefix n = {n_eval}",
        plan.eps, plan.eps_trunc
    )
    .ok();
    for (i, (cp, comp)) in plan
        .components
        .iter()
        .zip(compiled.components())
        .enumerate()
    {
        let verdict = match (comp.is_safe(), comp.is_monotone()) {
            (true, true) => "safe, monotone",
            (true, false) => "safe",
            (false, true) => "unsafe, monotone",
            (false, false) => "unsafe",
        };
        let branch = if i + 1 == plan.components.len() {
            "└─"
        } else {
            "├─"
        };
        write!(
            out,
            "  {branch} component {i} [{verdict}] -> {}",
            cp.strategy.name()
        )
        .ok();
        match cp.strategy {
            Strategy::MonteCarlo { samples } => {
                write!(out, " ({samples} samples, seed {:#018x})", cp.seed).ok();
            }
            Strategy::KarpLuby {
                samples,
                max_clauses,
            } => {
                write!(
                    out,
                    " ({samples} samples, <= {max_clauses} clauses, seed {:#018x})",
                    cp.seed
                )
                .ok();
            }
            Strategy::Lifted | Strategy::Shannon => {}
        }
        writeln!(out, ", cost ~ {:.0}", cp.cost).ok();
    }
    let total: f64 = plan.components.iter().map(|c| c.cost).sum();
    writeln!(out, "total estimated cost ~ {total:.0} work units").ok();
    out
}

/// `query --explain`: derives and prints the cost-based plan for a
/// closed-world table without evaluating. The profile runs on the table
/// itself; with ε = 0 the sampling strategies are disqualified, so the
/// verdict is the exact-engine choice (lifted vs. Shannon).
pub fn cmd_query_explain(table_text: &str, query: &str) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let q = parse(query, table.schema()).map_err(lib_err)?;
    let (compiled, plan) = closed_world_plan(&table, &q, Engine::Auto)?;
    Ok(render_plan(&compiled, &plan, table.len()))
}

/// `open --explain`: derives and prints the cost-based plan the
/// open-world evaluation would run at tolerance `eps`, without
/// evaluating it — the planner's verdict is a deterministic function of
/// (PDB, query, ε, knobs), so this is exactly the plan `open` executes.
pub fn cmd_open_explain(
    table_text: &str,
    query: &str,
    eps: f64,
    tail_mass: f64,
    tail_start: i64,
) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let q = parse(query, table.schema()).map_err(lib_err)?;
    let open = open_world_pdb(&table, tail_mass, tail_start)?;
    let (compiled, plan, n_eval) =
        planner::explain(&open, &q, eps, &PlanKnobs::default()).map_err(lib_err)?;
    Ok(render_plan(&compiled, &plan, n_eval))
}

/// `marginals` subcommand.
pub fn cmd_marginals(table_text: &str, query: &str) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let q = parse(query, table.schema()).map_err(lib_err)?;
    let answers = infpdb_finite::engine::answer_marginals(&q, &table).map_err(lib_err)?;
    let mut out = String::new();
    if answers.is_empty() {
        writeln!(out, "(no answers with positive probability)").ok();
    }
    for (tuple, p) in answers {
        let rendered: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
        writeln!(out, "({}) @ {p:.6}", rendered.join(", ")).ok();
    }
    Ok(out)
}

/// `sample` subcommand.
pub fn cmd_sample(table_text: &str, count: usize, seed: u64) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let mut rng = SplitMix64::new(seed);
    let mut out = String::new();
    for _ in 0..count {
        let world = table.sample(&mut rng);
        writeln!(out, "{}", world.display(table.schema(), table.interner())).ok();
    }
    Ok(out)
}

/// Completes a closed-world table with a geometric tail of fresh facts
/// over the first declared unary relation, integers from `tail_start`
/// upward — the open-world PDB behind `open`, `batch`, `serve`, and the
/// shell.
pub(crate) fn open_world_pdb(
    table: &TiTable,
    tail_mass: f64,
    tail_start: i64,
) -> Result<CountableTiPdb, CliError> {
    let (rel, _) = table
        .schema()
        .iter()
        .find(|(_, r)| r.arity() == 1)
        .ok_or_else(|| {
            CliError::Usage(
                "open-world evaluation needs a unary relation to attach the fresh-fact tail to"
                    .into(),
            )
        })?;
    let series = GeometricSeries::new(tail_mass / 2.0, 0.5).map_err(lib_err)?;
    let tail = FactSupply::from_fn(
        table.schema().clone(),
        move |i| Fact::new(rel, [Value::int(tail_start + i as i64)]),
        series,
    );
    complete_ti_table(table, tail).map_err(lib_err)
}

/// `open` subcommand: open-world evaluation with a geometric tail of fresh
/// facts over the first declared unary relation, integers from
/// `tail_start` upward.
pub fn cmd_open(
    table_text: &str,
    query: &str,
    eps: f64,
    tail_mass: f64,
    tail_start: i64,
) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let q = parse(query, table.schema()).map_err(lib_err)?;
    let open = open_world_pdb(&table, tail_mass, tail_start)?;
    let a = approx_prob_boolean(&open, &q, eps, Engine::Auto).map_err(lib_err)?;
    let iv = a.interval();
    Ok(format!(
        "P({query}) = {} ± {} (open world; truncated at n = {})\ncertified interval = [{}, {}]\n",
        a.estimate,
        a.eps,
        a.n,
        iv.lo(),
        iv.hi()
    ))
}

/// Tuning for the `batch` subcommand beyond its two required inputs;
/// mirrors the command-line flags one for one.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Requested additive tolerance per query (`--eps`).
    pub eps: f64,
    /// Worker threads in the service pool (`--threads`).
    pub threads: usize,
    /// Truncation-size budget per query (`--max-n`).
    pub max_n: Option<usize>,
    /// Per-query evaluation deadline (`--deadline-ms`); enforced at
    /// admission and cooperatively mid-truncation.
    pub deadline: Option<Duration>,
    /// Over-budget handling (`--policy widen|reject`).
    pub policy: DegradePolicy,
    /// Submission-queue capacity (`--queue-cap`); `None` is the service
    /// default of 8 × threads.
    pub queue_cap: Option<usize>,
    /// Queue-overflow handling (`--overflow block|reject|shed`).
    pub overflow: OverflowPolicy,
    /// Total probability mass of the fresh-fact tail (`--tail-mass`).
    pub tail_mass: f64,
    /// First integer the tail invents facts for (`--tail-start`).
    pub tail_start: i64,
    /// Intra-query thread budget per evaluation (`--parallelism`);
    /// independent of `threads`, which sizes the request pool.
    pub parallelism: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            eps: 0.01,
            threads: 4,
            max_n: None,
            deadline: None,
            policy: DegradePolicy::WidenEps,
            queue_cap: None,
            overflow: OverflowPolicy::Block,
            tail_mass: TAIL_MASS,
            tail_start: TAIL_START,
            parallelism: 1,
        }
    }
}

/// `batch` subcommand: evaluates one query per line of `queries_text`
/// through the concurrent [`infpdb_serve::QueryService`] over the
/// open-world completion of the table, printing one result line per query
/// (in input order) followed by the service's metrics dump. Every query
/// gets a line no matter how it resolved — success, rejection, deadline,
/// shed, or error.
pub fn cmd_batch(
    table_text: &str,
    queries_text: &str,
    opts: BatchOptions,
) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let open = open_world_pdb(&table, opts.tail_mass, opts.tail_start)?;
    let queries: Vec<&str> = queries_text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .collect();
    if queries.is_empty() {
        return Err(CliError::Usage(
            "batch: the queries file has no queries".into(),
        ));
    }
    let budget = CostBudget {
        max_n: opts.max_n,
        deadline: opts.deadline,
    };
    let requests = queries
        .iter()
        .map(|text| {
            let q = parse(text, open.schema()).map_err(lib_err)?;
            Ok(QueryRequest::new(q, opts.eps).with_budget(budget))
        })
        .collect::<Result<Vec<_>, CliError>>()?;

    let svc = QueryService::new(
        open,
        ServiceConfig {
            threads: opts.threads,
            policy: opts.policy,
            queue_cap: opts.queue_cap,
            overflow: opts.overflow,
            parallelism: opts.parallelism,
            ..ServiceConfig::default()
        },
    );
    let tickets = svc.submit_batch(requests);
    let mut out = String::new();
    for (text, ticket) in queries.iter().zip(tickets) {
        match ticket.wait() {
            Ok(r) => {
                let iv = r.interval();
                write!(
                    out,
                    "P({text}) = {} ± {} in [{}, {}] (n = {}",
                    r.approx.estimate,
                    r.approx.eps,
                    iv.lo(),
                    iv.hi(),
                    r.approx.n
                )
                .ok();
                if r.degraded {
                    write!(out, ", degraded from eps = {}", r.requested_eps).ok();
                }
                if r.cached {
                    write!(out, ", cached").ok();
                }
                writeln!(out, ")").ok();
            }
            Err(ServeError::Rejected {
                needed_n, max_n, ..
            }) => {
                writeln!(
                    out,
                    "P({text}): rejected (needs n = {needed_n}, budget allows n = {max_n})"
                )
                .ok();
            }
            Err(ServeError::DeadlineExceeded {
                facts_processed,
                partial,
            }) => {
                write!(
                    out,
                    "P({text}): deadline exceeded after {facts_processed} facts"
                )
                .ok();
                if let Some(p) = partial {
                    let iv = p.interval();
                    write!(
                        out,
                        "; partial = {} ± {} in [{}, {}]",
                        p.estimate,
                        p.eps,
                        iv.lo(),
                        iv.hi()
                    )
                    .ok();
                }
                writeln!(out).ok();
            }
            Err(ServeError::Overloaded { queue_cap }) => {
                writeln!(out, "P({text}): shed (queue full at {queue_cap})").ok();
            }
            Err(e) => {
                writeln!(out, "P({text}): error: {e}").ok();
            }
        }
    }
    writeln!(out, "-- metrics --").ok();
    out.push_str(&svc.metrics_dump());
    svc.join();
    Ok(out)
}

/// `store snapshot` subcommand: grounds the `n(ε)` prefix of the
/// open-world completion and persists it through the crash-safe
/// snapshot protocol. The manifest records the PDB fingerprint so a
/// later `serve --store` (or `store snapshot` over a different table)
/// cannot silently mix databases.
pub fn cmd_store_snapshot(
    table_text: &str,
    dir: &str,
    eps: f64,
    tail_mass: f64,
    tail_start: i64,
) -> Result<String, CliError> {
    let table = parse_table(table_text)?;
    let open = open_world_pdb(&table, tail_mass, tail_start)?;
    let fp = countable_pdb_fingerprint(&open);
    let prepared = PreparedPdb::new(open);
    let n = prepared.warm(eps).map_err(lib_err)?;
    let store = Store::open_dir(dir);
    let info = prepared.persist(&store, Some(fp), None).map_err(lib_err)?;
    if info.unchanged {
        return Ok(format!(
            "snapshot unchanged at epoch {} in {dir}: {} facts (warmed at eps = {eps}, n = {n}), \
             nothing written\n",
            info.epoch, info.facts
        ));
    }
    Ok(format!(
        "snapshot epoch {} written to {dir}: {} facts (warmed at eps = {eps}, n = {n}) \
         in {} shard(s) ({} reused), {} bytes\n",
        info.epoch, info.facts, info.shards_written, info.shards_skipped, info.bytes
    ))
}

/// `store verify` subcommand: offline fsck. Walks every segment the
/// manifest names, re-scans records against their CRC32C frames, and
/// recomputes fingerprints. Clean stores return `Ok`; any corruption
/// (torn tails, checksum failures, missing files, fingerprint
/// mismatches) returns the same report as an `Err`, so the binary
/// exits nonzero.
pub fn cmd_store_verify(dir: &str) -> Result<String, CliError> {
    let store = Store::open_dir(dir);
    let Some(report) = store.verify().map_err(lib_err)? else {
        return Ok(format!("{dir}: no snapshot (empty store)\n"));
    };
    let mut out = String::new();
    writeln!(
        out,
        "epoch {}: {} facts expected",
        report.epoch, report.facts_expected
    )
    .ok();
    for r in &report.relations {
        let verdict = if !r.readable {
            "MISSING"
        } else if r.checksum_failures > 0 || r.records_found < r.records_expected {
            "CORRUPT"
        } else if !r.fingerprint_ok {
            "FINGERPRINT MISMATCH"
        } else {
            "ok"
        };
        writeln!(
            out,
            "  {} shard {} ({}): {}/{} records, {} checksum failure(s), {} torn byte(s) — \
             {verdict}",
            r.name,
            r.shard,
            r.file,
            r.records_found,
            r.records_expected,
            r.checksum_failures,
            r.torn_bytes
        )
        .ok();
    }
    if report.clean() {
        writeln!(out, "clean").ok();
        Ok(out)
    } else {
        write!(out, "corruption detected").ok();
        Err(CliError::Library(out))
    }
}

/// `store info` subcommand: the manifest-only fast path. Prints the
/// manifest summary plus per-shard sizes from `stat(2)` — never reads a
/// shard's contents, so it is O(#shards) even on a 10⁷-fact store.
pub fn cmd_store_info(dir: &str) -> Result<String, CliError> {
    let store = Store::open_dir(dir);
    let Some(m) = store.read_manifest().map_err(lib_err)? else {
        return Ok(format!("{dir}: no snapshot (empty store)\n"));
    };
    let stat = store.stat().map_err(lib_err)?.expect("manifest just read");
    let mut out = String::new();
    writeln!(out, "epoch: {}", m.epoch).ok();
    writeln!(out, "facts: {}", m.facts).ok();
    writeln!(out, "shard capacity: {}", m.shard_capacity).ok();
    writeln!(out, "table fingerprint: {:016x}", m.table_fingerprint).ok();
    if let Some(fp) = m.pdb_fingerprint {
        writeln!(out, "pdb fingerprint: {fp:016x}").ok();
    }
    writeln!(out, "relations:").ok();
    for r in &m.relations {
        writeln!(out, "  {} / {}", r.name, r.arity).ok();
    }
    writeln!(
        out,
        "shards ({}, {} bytes total):",
        stat.shards.len(),
        stat.total_bytes
    )
    .ok();
    for s in &stat.shards {
        writeln!(
            out,
            "  {} shard {} ({}): {} record(s), {} bytes{}",
            s.name,
            s.shard,
            s.file,
            s.count,
            s.bytes,
            if s.present { "" } else { " — MISSING" }
        )
        .ok();
    }
    Ok(out)
}

/// `bench` subcommand: runs the reproducible perf harness
/// ([`infpdb_bench::harness`]) over the geometric and zeta fixtures and
/// writes the `BENCH_<iso-date>.json` artifact. The one subcommand that
/// performs file output itself (the artifact path is part of its
/// contract); everything printed goes through the usual return value.
pub fn cmd_bench(
    smoke: bool,
    out_path: Option<&str>,
    repeats: usize,
    threads: usize,
    scheduler: Option<SchedulerKind>,
) -> Result<String, CliError> {
    let mut config = harness::BenchConfig::new(smoke);
    config.repeats = repeats;
    config.threads = threads.max(1);
    let mut report = harness::run(&config).map_err(CliError::Library)?;
    let mut sat_config = if smoke {
        SaturationConfig::smoke()
    } else {
        SaturationConfig::full()
    };
    sat_config.scheduler = scheduler;
    report.saturation = saturation::run(&sat_config).map_err(CliError::Library)?;
    report.planner =
        bench_planner::run(&bench_planner::PlannerConfig { smoke }).map_err(CliError::Library)?;
    let json = harness::to_json(&report);
    let path = out_path
        .map(str::to_string)
        .unwrap_or_else(|| format!("BENCH_{}.json", report.date));
    std::fs::write(&path, &json)
        .map_err(|e| CliError::Library(format!("cannot write {path}: {e}")))?;
    let mut out = harness::summary_table(&report);
    writeln!(out, "wrote {path}").ok();
    Ok(out)
}

/// `bench store` subcommand: the durable-store scale bench
/// ([`infpdb_bench::storebench`]). Grounds a multi-million-fact zeta
/// prefix, times full/incremental/no-op snapshots and the mmap reopen,
/// verifies bit-for-bit answers, and writes
/// `BENCH_<iso-date>_store.json`.
pub fn cmd_bench_store(
    smoke: bool,
    facts: Option<usize>,
    append: Option<usize>,
    shard_capacity: Option<u64>,
    dir: Option<&str>,
    out_path: Option<&str>,
) -> Result<String, CliError> {
    let mut config = if smoke {
        storebench::StoreBenchConfig::smoke()
    } else {
        storebench::StoreBenchConfig::full()
    };
    if let Some(f) = facts {
        config.facts = f;
    }
    if let Some(a) = append {
        config.append = a;
    }
    if let Some(c) = shard_capacity {
        if c == 0 {
            return Err(CliError::Usage("--shard-capacity must be positive".into()));
        }
        config.shard_capacity = c;
    }
    config.dir = dir.map(std::path::PathBuf::from);
    let report = storebench::run(&config).map_err(CliError::Library)?;
    let json = report.to_json();
    let path = out_path
        .map(str::to_string)
        .unwrap_or_else(|| format!("BENCH_{}_store.json", report.date));
    std::fs::write(&path, &json)
        .map_err(|e| CliError::Library(format!("cannot write {path}: {e}")))?;
    let mut out = report.summary_table();
    writeln!(out, "wrote {path}").ok();
    Ok(out)
}

/// A subcommand's arguments, split by the flags it declares.
pub(crate) struct Flags<'a> {
    /// The arguments that are neither flags nor flag values, in order.
    pub(crate) positional: Vec<&'a str>,
    given: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Splits `args`: each flag in `valued` takes the next argument as its
    /// value, each in `switches` takes none, and anything else starting
    /// with `--` is refused, as are a valued flag without a value and a
    /// flag given twice.
    pub(crate) fn parse(
        args: &'a [String],
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Self, CliError> {
        let mut flags = Flags {
            positional: Vec::new(),
            given: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                flags.positional.push(arg);
                continue;
            }
            let value = if valued.contains(&arg) {
                match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(CliError::Usage(format!("{arg} needs a value"))),
                }
            } else if switches.contains(&arg) {
                None
            } else {
                let mut accepted: Vec<&str> = valued.iter().chain(switches).copied().collect();
                accepted.sort_unstable();
                return Err(CliError::Usage(format!(
                    "unknown flag {arg} (accepted: {})",
                    accepted.join(" ")
                )));
            };
            if flags.has(arg) {
                return Err(CliError::Usage(format!("{arg} given more than once")));
            }
            flags.given.push((arg, value));
        }
        Ok(flags)
    }

    /// Whether the flag was given.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.given.iter().any(|&(f, _)| f == name)
    }

    /// The value of a valued flag, if it was given.
    pub(crate) fn get(&self, name: &str) -> Option<&'a str> {
        self.given.iter().find(|&&(f, _)| f == name)?.1
    }

    /// The `N` positionals a subcommand reads. A missing one is the
    /// usage error `missing[i]`; one more is a usage error naming it.
    pub(crate) fn positionals<const N: usize>(
        &self,
        missing: [&str; N],
    ) -> Result<[&'a str; N], CliError> {
        if let Some(extra) = self.positional.get(N) {
            return Err(CliError::Usage(format!("unexpected argument {extra:?}")));
        }
        <[&str; N]>::try_from(self.positional.as_slice())
            .map_err(|_| CliError::Usage(missing[self.positional.len()].to_string()))
    }

    /// The value of a valued flag parsed as `T`, if it was given; a value
    /// that does not parse is a usage error.
    pub(crate) fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("invalid value {v:?} for {name}")))
            })
            .transpose()
    }
}

/// Argument dispatch for the binary. `args` excludes the program name.
pub fn run(
    args: &[String],
    read_file: impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let usage =
        "usage: infpdb <info|query|marginals|sample|open|batch|store|bench|serve|shell> <table-file> [...]";
    if args.is_empty() {
        return Err(CliError::Usage(usage.into()));
    }
    let read = |path: &str| -> Result<String, CliError> {
        read_file(path).map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))
    };
    // the flags each subcommand declares: (valued, switches)
    let declared: (&[&str], &[&str]) = match (args[0].as_str(), args.get(1).map(String::as_str)) {
        ("query", _) => (&["--engine", "--threads"], &["--explain"]),
        ("sample", _) => (&["--count", "--seed"], &[]),
        ("open", _) => (&["--eps", "--tail-mass", "--tail-start"], &["--explain"]),
        ("batch", _) => (
            &[
                "--eps",
                "--threads",
                "--max-n",
                "--deadline-ms",
                "--policy",
                "--queue-cap",
                "--overflow",
                "--tail-mass",
                "--tail-start",
                "--parallelism",
            ],
            &[],
        ),
        ("store", _) => (&["--dir", "--eps", "--tail-mass", "--tail-start"], &[]),
        ("bench", Some("store")) => (
            &["--facts", "--append", "--shard-capacity", "--dir", "--out"],
            &["--smoke"],
        ),
        ("bench", _) => (
            &["--out", "--repeats", "--threads", "--scheduler"],
            &["--smoke"],
        ),
        _ => (&[], &[]),
    };
    let flags = Flags::parse(&args[1..], declared.0, declared.1)?;
    match args[0].as_str() {
        "info" => cmd_info(&read(flags.positionals([usage])?[0])?),
        "query" => {
            let [table, q] = flags.positionals([usage, "query: missing query string"])?;
            let table = read(table)?;
            if flags.has("--explain") {
                return cmd_query_explain(&table, q);
            }
            let threads = flags.parsed("--threads")?.unwrap_or(1);
            cmd_query(&table, q, flags.get("--engine").unwrap_or("auto"), threads)
        }
        "marginals" => {
            let [table, q] = flags.positionals([usage, "marginals: missing query string"])?;
            cmd_marginals(&read(table)?, q)
        }
        "sample" => {
            let table = read(flags.positionals([usage])?[0])?;
            let count = flags.parsed("--count")?.unwrap_or(5);
            cmd_sample(&table, count, flags.parsed("--seed")?.unwrap_or(42))
        }
        "open" => {
            let [table, q] = flags.positionals([usage, "open: missing query string"])?;
            let table = read(table)?;
            let eps = flags.parsed("--eps")?.unwrap_or(0.01);
            let tail_mass = flags.parsed("--tail-mass")?.unwrap_or(TAIL_MASS);
            let tail_start = flags.parsed("--tail-start")?.unwrap_or(TAIL_START);
            if flags.has("--explain") {
                return cmd_open_explain(&table, q, eps, tail_mass, tail_start);
            }
            cmd_open(&table, q, eps, tail_mass, tail_start)
        }
        "batch" => {
            let [table, queries] = flags.positionals([usage, "batch: missing queries file"])?;
            let (table, queries) = (read(table)?, read(queries)?);
            let d = BatchOptions::default();
            let policy = match flags.get("--policy") {
                None => d.policy,
                Some("widen") => DegradePolicy::WidenEps,
                Some("reject") => DegradePolicy::Reject,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown policy {other:?} (widen|reject)"
                    )))
                }
            };
            let overflow = match flags.get("--overflow") {
                None => d.overflow,
                Some("block") => OverflowPolicy::Block,
                Some("reject") => OverflowPolicy::RejectNewest,
                Some("shed") => OverflowPolicy::ShedOldest,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown overflow policy {other:?} (block|reject|shed)"
                    )))
                }
            };
            let options = BatchOptions {
                eps: flags.parsed("--eps")?.unwrap_or(d.eps),
                threads: flags.parsed("--threads")?.unwrap_or(d.threads),
                max_n: flags.parsed("--max-n")?,
                deadline: flags.parsed("--deadline-ms")?.map(Duration::from_millis),
                policy,
                queue_cap: flags.parsed("--queue-cap")?,
                overflow,
                tail_mass: flags.parsed("--tail-mass")?.unwrap_or(d.tail_mass),
                tail_start: flags.parsed("--tail-start")?.unwrap_or(d.tail_start),
                parallelism: flags.parsed("--parallelism")?.unwrap_or(d.parallelism),
            };
            cmd_batch(&table, &queries, options)
        }
        "store" => {
            let store_usage = "usage: infpdb store <snapshot|verify|info> \
                 [<table-file>] --dir DIR [--eps E] [--tail-mass M] [--tail-start K]";
            let Some(dir) = flags.get("--dir").filter(|d| !d.is_empty()) else {
                return Err(CliError::Usage(store_usage.into()));
            };
            match flags.positional.first().copied() {
                Some("snapshot") => cmd_store_snapshot(
                    &read(flags.positionals([store_usage, store_usage])?[1])?,
                    dir,
                    flags.parsed("--eps")?.unwrap_or(0.01),
                    flags.parsed("--tail-mass")?.unwrap_or(TAIL_MASS),
                    flags.parsed("--tail-start")?.unwrap_or(TAIL_START),
                ),
                Some("verify") => flags
                    .positionals([store_usage])
                    .and_then(|_| cmd_store_verify(dir)),
                Some("info") => flags
                    .positionals([store_usage])
                    .and_then(|_| cmd_store_info(dir)),
                _ => Err(CliError::Usage(store_usage.into())),
            }
        }
        "bench" => {
            let smoke = flags.has("--smoke");
            // `store` selects the store bench only as the first argument
            if args.get(1).is_some_and(|a| a == "store") {
                flags.positionals([usage])?;
                return cmd_bench_store(
                    smoke,
                    flags.parsed("--facts")?,
                    flags.parsed("--append")?,
                    flags.parsed("--shard-capacity")?,
                    flags.get("--dir"),
                    flags.get("--out"),
                );
            }
            flags.positionals([])?;
            let scheduler = match flags.get("--scheduler") {
                None => None,
                Some(other) => Some(SchedulerKind::parse(other).ok_or_else(|| {
                    CliError::Usage(format!(
                        "--scheduler must be fixed or stealing, got {other:?}"
                    ))
                })?),
            };
            cmd_bench(
                smoke,
                flags.get("--out"),
                flags
                    .parsed("--repeats")?
                    .unwrap_or(harness::DEFAULT_REPEATS),
                flags.parsed("--threads")?.unwrap_or(1),
                scheduler,
            )
        }
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}; {usage}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "\
# toy knowledge base
relation BornIn 2
relation Person 1

BornIn turing london @ 0.96
BornIn turing cambridge @ 0.07
Person turing @ 0.99
Person 42 @ 0.5
";

    #[test]
    fn parse_table_round_trip() {
        let t = parse_table(TABLE).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.schema().len(), 2);
        let born = t.schema().rel_id("BornIn").unwrap();
        let f = Fact::new(born, [Value::str("turing"), Value::str("london")]);
        assert!((t.marginal(&f) - 0.96).abs() < 1e-12);
        let person = t.schema().rel_id("Person").unwrap();
        assert!((t.marginal(&Fact::new(person, [Value::int(42)])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn render_parse_round_trip() {
        let t = parse_table(TABLE).unwrap();
        let rendered = render_table(&t);
        let t2 = parse_table(&rendered).unwrap();
        assert_eq!(t.len(), t2.len());
        for (_, fact, p) in t.iter() {
            assert!(
                (t2.marginal(fact) - p).abs() < 1e-12,
                "{} lost in round trip",
                fact.display(t.schema())
            );
        }
        // fixed-point values survive too
        let with_fixed = "relation Temp 1
Temp 20.3 @ 0.25
";
        let a = parse_table(with_fixed).unwrap();
        let b = parse_table(&render_table(&a)).unwrap();
        assert_eq!(a.len(), b.len());
        let f = Fact::new(a.schema().rel_id("Temp").unwrap(), [Value::fixed(203, 1)]);
        assert!((b.marginal(&f) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn parse_value_types() {
        assert_eq!(parse_value("42"), Value::int(42));
        assert_eq!(parse_value("-7"), Value::int(-7));
        assert_eq!(parse_value("20.3"), Value::fixed(203, 1));
        assert_eq!(parse_value("-0.25"), Value::fixed(-25, 2));
        assert_eq!(parse_value("london"), Value::str("london"));
        assert_eq!(parse_value("1.2.3"), Value::str("1.2.3"));
        assert_eq!(parse_value("3."), Value::str("3."));
    }

    #[test]
    fn table_errors_carry_line_numbers() {
        let bad = "relation R 1\nR 1 1 @ 0.5\n";
        match parse_table(bad) {
            Err(CliError::Table { line: 2, .. }) => {}
            other => panic!("{other:?}"),
        }
        let bad2 = "relation R one\n";
        assert!(matches!(
            parse_table(bad2),
            Err(CliError::Table { line: 1, .. })
        ));
        let bad3 = "relation R 1\nR 1 0.5\n"; // missing @
        assert!(matches!(
            parse_table(bad3),
            Err(CliError::Table { line: 2, .. })
        ));
        let bad4 = "Q 1 @ 0.5\n"; // undeclared relation
        assert!(matches!(
            parse_table(bad4),
            Err(CliError::Table { line: 1, .. })
        ));
    }

    #[test]
    fn facts_may_precede_declarations_on_later_lines() {
        // two-pass parsing: declaration order within the file is free
        let t = parse_table("R 1 @ 0.5\nrelation R 1\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn info_command() {
        let out = cmd_info(TABLE).unwrap();
        assert!(out.contains("BornIn / 2"));
        assert!(out.contains("facts: 4"));
        assert!(out.contains("expected instance size: 2.52"));
    }

    #[test]
    fn query_command_all_engines() {
        for engine in ["auto", "lifted", "lineage", "brute"] {
            let out = cmd_query(TABLE, "exists x. BornIn('turing', x)", engine, 1).unwrap();
            let p: f64 = out
                .lines()
                .next()
                .unwrap()
                .rsplit('=')
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            let truth = 1.0 - 0.04 * 0.93;
            assert!((p - truth).abs() < 1e-9, "{engine}: {p}");
        }
        assert!(cmd_query(TABLE, "exists x. BornIn('turing', x)", "warp", 1).is_err());
    }

    /// `query` runs exactly the plan `--explain` prints. On the example
    /// KB this query's components take different strategies, so running
    /// Shannon over the whole formula would round differently.
    #[test]
    fn query_runs_the_explained_plan() {
        let kb = include_str!("../examples/kb.pdb");
        let qs = "(exists x. Person(x)) /\\ \
                  (exists x, y, z. BornIn(x, y) /\\ BornIn(x, z) /\\ y != z)";
        let explained = cmd_query_explain(kb, qs).unwrap();
        assert!(
            explained.contains("component 0 [safe, monotone] -> lifted"),
            "{explained}"
        );
        assert!(
            explained.contains("component 1 [unsafe] -> shannon"),
            "{explained}"
        );
        let table = parse_table(kb).unwrap();
        let q = parse(qs, table.schema()).unwrap();
        let (compiled, plan) = closed_world_plan(&table, &q, Engine::Auto).unwrap();
        let (expected, _) = evaluate_plan(&compiled, &plan, &table, 1, None)
            .unwrap()
            .unwrap();
        for threads in [1, 2] {
            let out = cmd_query(kb, qs, "auto", threads).unwrap();
            let first = out.lines().next().unwrap();
            let p: f64 = first.rsplit("= ").next().unwrap().parse().unwrap();
            assert_eq!(p.to_bits(), expected.to_bits(), "{out}");
        }
        let err = cmd_query(kb, qs, "lifted", 1).unwrap_err().to_string();
        assert!(
            err.contains("component 1 is ineligible for the forced strategy lifted"),
            "{err}"
        );
    }

    #[test]
    fn query_command_reports_certified_interval_and_n() {
        let out = cmd_query(TABLE, "Person(42)", "auto", 1).unwrap();
        // exact closed-world answer: degenerate interval at p = 0.5,
        // over all n = 4 declared facts
        assert!(out.contains("P(Person(42)) = 0.5"), "{out}");
        assert!(out.contains("certified interval = [0.5, 0.5]"), "{out}");
        assert!(out.contains("n = 4 facts"), "{out}");
    }

    #[test]
    fn marginals_command() {
        let out = cmd_marginals(TABLE, "BornIn('turing', x)").unwrap();
        assert!(out.contains("\"london\"") && out.contains("0.96"));
        assert!(out.contains("\"cambridge\""));
        let none = cmd_marginals(TABLE, "BornIn('goedel', x)").unwrap();
        assert!(none.contains("no answers"));
    }

    #[test]
    fn sample_command_is_deterministic_per_seed() {
        let a = cmd_sample(TABLE, 3, 7).unwrap();
        let b = cmd_sample(TABLE, 3, 7).unwrap();
        assert_eq!(a, b);
        let c = cmd_sample(TABLE, 3, 8).unwrap();
        assert_eq!(a.lines().count(), 3);
        // overwhelmingly likely to differ
        assert_ne!(a, c);
    }

    #[test]
    fn open_command_answers_beyond_the_closed_world() {
        // Person(1000000) is impossible closed-world, possible open-world
        let closed = cmd_query(TABLE, "Person(1000000)", "auto", 1).unwrap();
        assert!(closed.contains("= 0"));
        let open = cmd_open(TABLE, "Person(1000000)", 0.01, 0.5, 1_000_000).unwrap();
        let p: f64 = open
            .split('=')
            .nth(1)
            .unwrap()
            .trim()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(p > 0.2, "open-world probability {p}");
        // the certified enclosure [p − ε, p + ε] is printed alongside
        let interval_line = open
            .lines()
            .find(|l| l.starts_with("certified interval"))
            .expect("open output carries the interval line");
        let nums: Vec<f64> = interval_line
            .trim_start_matches("certified interval = [")
            .trim_end_matches(']')
            .split(", ")
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(nums.len(), 2);
        assert!(nums[0] <= p && p <= nums[1]);
        assert!(
            (nums[1] - nums[0] - 0.02).abs() < 1e-12,
            "width 2ε: {nums:?}"
        );
        assert!(open.contains("truncated at n = "));
    }

    #[test]
    fn query_explain_prints_the_plan_tree_without_evaluating() {
        let out = cmd_query_explain(TABLE, "exists x. BornIn('turing', x)").unwrap();
        assert!(out.starts_with("plan: "), "{out}");
        assert!(out.contains("component 0"), "{out}");
        assert!(out.contains("cost ~"), "{out}");
        // a safe single-atom query at ε = 0 must pick an exact strategy
        assert!(
            out.contains("-> lifted") || out.contains("-> shannon"),
            "{out}"
        );
        assert!(!out.contains("-> mc") && !out.contains("-> kl"), "{out}");
        // dispatched through `run` with the flag in any position
        let files = |_: &str| Ok(TABLE.to_string());
        let args: Vec<String> = ["query", "kb.pdb", "Person(42)", "--explain"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let via_run = run(&args, files).unwrap();
        assert!(via_run.starts_with("plan: "), "{via_run}");
    }

    #[test]
    fn open_explain_matches_the_executed_plan_and_is_deterministic() {
        let out = cmd_open_explain(TABLE, "Person(1000000)", 0.01, 0.5, 1_000_000).unwrap();
        assert!(out.contains("evaluation prefix n = "), "{out}");
        assert!(out.contains("truncation eps = "), "{out}");
        // planning is a pure function of (PDB, query, ε, knobs)
        let again = cmd_open_explain(TABLE, "Person(1000000)", 0.01, 0.5, 1_000_000).unwrap();
        assert_eq!(out, again);
        // and the rendered tree names exactly one strategy per component
        let strategies = out
            .lines()
            .filter(|l| l.contains("component"))
            .filter(|l| l.contains(" -> "))
            .count();
        assert!(strategies >= 1, "{out}");
    }

    const QUERIES: &str = "\
# one query per line; duplicates exercise the result cache
Person(42)
Person(1000000)
Person(42)
exists x. BornIn('turing', x)
Person(42) /\\ Person('turing')
Person(1000000)
";

    #[test]
    fn batch_command_matches_sequential_open_world_evaluation() {
        // single worker: execution order (and therefore which requests hit
        // the cache) is deterministic
        let out = cmd_batch(
            TABLE,
            QUERIES,
            BatchOptions {
                threads: 1,
                ..BatchOptions::default()
            },
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // one result line per query, in input order
        assert_eq!(lines.iter().filter(|l| l.starts_with("P(")).count(), 6);
        assert!(lines[0].starts_with("P(Person(42)) = "));
        assert!(lines[1].starts_with("P(Person(1000000)) = "));
        // the repeated queries are served from the cache
        assert!(lines[2].contains(", cached)"), "{}", lines[2]);
        assert!(lines[5].contains(", cached)"), "{}", lines[5]);
        // batch answers agree exactly with the sequential evaluation path
        let table = parse_table(TABLE).unwrap();
        let open = open_world_pdb(&table, 0.5, 1_000_000).unwrap();
        let q = parse("Person(1000000)", open.schema()).unwrap();
        let expected = approx_prob_boolean(&open, &q, 0.01, Engine::Auto).unwrap();
        assert!(
            lines[1].contains(&format!("= {} ±", expected.estimate)),
            "batch {} vs sequential {}",
            lines[1],
            expected.estimate
        );
        // the metrics dump follows the results, in the Prometheus text
        // format `/metrics` serves
        let (_, metrics) = out.split_once("-- metrics --\n").expect("metrics section");
        let scrape = infpdb_net::promtext::parse_scrape(metrics).expect("metrics parse");
        let problems = infpdb_net::promtext::lint(&scrape);
        assert!(problems.is_empty(), "lint problems: {problems:?}");
        assert!(out.contains("serve_requests_completed_total 6"));
        assert!(out.contains("serve_cache_misses_total 4"));
        assert!(out.contains("serve_cache_hits_total 2"));
    }

    #[test]
    fn batch_command_degrades_or_rejects_under_budget() {
        let widened = cmd_batch(
            TABLE,
            "Person(42)\n",
            BatchOptions {
                eps: 0.000001,
                threads: 1,
                max_n: Some(6),
                ..BatchOptions::default()
            },
        )
        .unwrap();
        assert!(
            widened.contains("degraded from eps = 0.000001"),
            "{widened}"
        );
        assert!(widened.contains("serve_degraded_answers_total 1"));
        let rejected = cmd_batch(
            TABLE,
            "Person(42)\n",
            BatchOptions {
                eps: 0.000001,
                threads: 1,
                max_n: Some(6),
                policy: DegradePolicy::Reject,
                ..BatchOptions::default()
            },
        )
        .unwrap();
        assert!(rejected.contains("rejected (needs n = "), "{rejected}");
        assert!(rejected.contains("budget allows n = 6"));
        assert!(rejected.contains("serve_rejected_total 1"));
    }

    #[test]
    fn batch_command_rejects_empty_query_files() {
        let out = cmd_batch(TABLE, "# nothing here\n\n", BatchOptions::default());
        assert!(matches!(out, Err(CliError::Usage(_))));
    }

    #[test]
    fn batch_command_with_generous_deadline_still_answers_everything() {
        let out = cmd_batch(
            TABLE,
            QUERIES,
            BatchOptions {
                threads: 1,
                deadline: Some(Duration::from_secs(30)),
                ..BatchOptions::default()
            },
        )
        .unwrap();
        // every query resolves to a full answer well within the deadline
        assert_eq!(
            out.lines().filter(|l| l.starts_with("P(")).count(),
            6,
            "{out}"
        );
        assert!(out.contains("serve_requests_completed_total 6"), "{out}");
        assert!(out.contains("serve_deadline_exceeded_total 0"), "{out}");
    }

    #[test]
    fn batch_command_bounded_queue_resolves_every_ticket() {
        // a 1-slot queue with shed-oldest under a 1-thread pool: whatever
        // mix of answers and sheds happens, every query gets a line
        let out = cmd_batch(
            TABLE,
            QUERIES,
            BatchOptions {
                threads: 1,
                queue_cap: Some(1),
                overflow: OverflowPolicy::ShedOldest,
                ..BatchOptions::default()
            },
        )
        .unwrap();
        let result_lines = out.lines().filter(|l| l.starts_with("P(")).count();
        assert_eq!(result_lines, 6, "{out}");
        // the dump accounts for every submission: completed + shed = 6
        assert!(out.contains("serve_requests_submitted_total 6"), "{out}");
    }

    #[test]
    fn run_dispatch() {
        let files = |path: &str| -> std::io::Result<String> {
            if path == "kb.pdb" {
                Ok(TABLE.to_string())
            } else {
                Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope"))
            }
        };
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(run(&args(&["info", "kb.pdb"]), files)
            .unwrap()
            .contains("facts: 4"));
        assert!(run(&args(&["query", "kb.pdb", "Person('turing')"]), files)
            .unwrap()
            .contains("0.99"));
        assert!(
            run(
                &args(&["sample", "kb.pdb", "--count", "2", "--seed", "1"]),
                files
            )
            .unwrap()
            .lines()
            .count()
                == 2
        );
        assert!(matches!(run(&args(&[]), files), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["info", "missing.pdb"]), files),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["frobnicate", "kb.pdb"]), files),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn batch_resilience_flags_parse_and_validate() {
        let files = |path: &str| -> std::io::Result<String> {
            match path {
                "kb.pdb" => Ok(TABLE.to_string()),
                "q.txt" => Ok("Person(42)\nPerson(1000000)\n".to_string()),
                _ => Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope")),
            }
        };
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let out = run(
            &args(&[
                "batch",
                "kb.pdb",
                "q.txt",
                "--threads",
                "1",
                "--deadline-ms",
                "30000",
                "--queue-cap",
                "4",
                "--overflow",
                "reject",
            ]),
            files,
        )
        .unwrap();
        assert!(out.contains("-- metrics --"), "{out}");
        assert_eq!(out.lines().filter(|l| l.starts_with("P(")).count(), 2);
        for bad in [
            ["--deadline-ms", "soon"],
            ["--queue-cap", "many"],
            ["--overflow", "warp"],
        ] {
            let mut a = args(&["batch", "kb.pdb", "q.txt"]);
            a.extend(bad.iter().map(|s| s.to_string()));
            assert!(
                matches!(run(&a, files), Err(CliError::Usage(_))),
                "{bad:?} must be a usage error"
            );
        }
    }

    #[test]
    fn undeclared_missing_and_repeated_flags_are_usage_errors() {
        let files = |path: &str| -> std::io::Result<String> {
            match path {
                "kb.pdb" => Ok(TABLE.to_string()),
                "q.txt" => Ok("Person(42)\n".to_string()),
                _ => Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope")),
            }
        };
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let open = ["open", "kb.pdb", "Person(1000000)"];
        let batch = ["batch", "kb.pdb", "q.txt"];
        for (base, bad) in [
            // a misspelt flag, a flag the subcommand does not declare
            (&open[..], &["--esp", "0.001"][..]),
            (&batch, &["--scheduler", "stealing"]),
            // a valued flag without its value, last or before a flag
            (&open, &["--eps"]),
            (&open, &["--eps", "--explain"]),
            (&batch, &["--eps"]),
            // a repeated flag
            (&open, &["--eps", "0.001", "--eps", "0.2"]),
            (&batch, &["--threads", "1", "--threads", "2"]),
        ] {
            let mut a = args(base);
            a.extend(args(bad));
            // the message names the offending flag
            assert!(
                matches!(run(&a, files), Err(CliError::Usage(m)) if m.contains(bad[0])),
                "{a:?} must be a usage error"
            );
        }
        // the shell reads its one flag the same way
        let shell = |v: &[&str]| crate::shell::repl(&b""[..], Vec::new(), &args(v), false);
        assert!(matches!(shell(&["--conect", "x"]), Err(CliError::Usage(_))));
        assert!(matches!(shell(&["--connect"]), Err(CliError::Usage(_))));
        assert!(shell(&[]).is_ok());
    }

    #[test]
    fn extra_positional_arguments_are_usage_errors() {
        let files = |path: &str| -> std::io::Result<String> {
            match path {
                "kb.pdb" => Ok(TABLE.to_string()),
                "q.txt" => Ok("Person(42)\n".to_string()),
                _ => Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope")),
            }
        };
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        // one positional more than each subcommand reads: refused before
        // anything is evaluated, measured or written, naming the first
        // extra
        for (bad, extra) in [
            (&["info", "kb.pdb", "stray", "extra"][..], "stray"),
            (&["query", "kb.pdb", "Person(42)", "stray"], "stray"),
            (&["marginals", "kb.pdb", "Person(x)", "stray"], "stray"),
            (&["sample", "kb.pdb", "stray"], "stray"),
            (
                &["open", "kb.pdb", "Person(42)", "stray", "--eps", "0.1"],
                "stray",
            ),
            (&["batch", "kb.pdb", "q.txt", "stray"], "stray"),
            (
                &["store", "snapshot", "kb.pdb", "stray", "--dir", "d"],
                "stray",
            ),
            (&["store", "verify", "stray", "--dir", "d"], "stray"),
            (&["store", "info", "stray", "--dir", "d"], "stray"),
            (&["bench", "store", "stray", "--smoke"], "stray"),
            // `store` selects the store bench only right after `bench`
            (&["bench", "--smoke", "store"], "store"),
        ] {
            let expected = format!("unexpected argument {extra:?}");
            assert!(
                matches!(run(&args(bad), files), Err(CliError::Usage(m)) if m == expected),
                "{bad:?} must be a usage error naming {extra:?}"
            );
        }
    }

    #[test]
    fn bench_rejects_malformed_flags() {
        let files = |_: &str| -> std::io::Result<String> {
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope"))
        };
        // each fails before measuring anything or touching the filesystem
        let b: Vec<String> = ["bench", "--repeats", "several"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&b, files), Err(CliError::Usage(_))));
        let c: Vec<String> = ["bench", "--scheduler", "magic"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&c, files), Err(CliError::Usage(_))));
    }

    #[test]
    fn bench_store_rejects_malformed_flags() {
        let files = |_: &str| -> std::io::Result<String> {
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope"))
        };
        let argv =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        for bad in [
            &["bench", "store", "--facts", "many"][..],
            &["bench", "store", "--append", "-3"],
            &["bench", "store", "--shard-capacity", "big"],
            &["bench", "store", "--shard-capacity", "0"],
        ] {
            assert!(
                matches!(run(&argv(bad), files), Err(CliError::Usage(_))),
                "{bad:?} must be a usage error"
            );
        }
        // degenerate geometry is refused by the bench itself, before any
        // grounding work starts
        let a = argv(&["bench", "store", "--facts", "10", "--append", "10"]);
        assert!(matches!(run(&a, files), Err(CliError::Library(_))));
    }

    #[test]
    fn bench_store_smoke_writes_artifact_and_reports_identity() {
        let tmp =
            std::env::temp_dir().join(format!("infpdb-cli-storebench-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let out = tmp.join("store.json");
        let dir = tmp.join("store-dir");
        let files = |_: &str| -> std::io::Result<String> {
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope"))
        };
        let a: Vec<String> = [
            "bench",
            "store",
            "--smoke",
            "--facts",
            "600",
            "--append",
            "100",
            "--shard-capacity",
            "128",
            "--dir",
            dir.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let table = run(&a, files).expect("bench store --smoke succeeds");
        assert!(table.contains("bit-for-bit identical"), "{table}");
        assert!(table.contains("wrote "), "{table}");
        let artifact = std::fs::read_to_string(&out).unwrap();
        assert!(artifact.contains("infpdb-store-bench/v1"), "{artifact}");
        std::fs::remove_dir_all(&tmp).ok();
    }
}
