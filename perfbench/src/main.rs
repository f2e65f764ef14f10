//! The repository benchmark. Starts `infpdb`'s real stack in process —
//! `HttpServer` over `QueryService`, configured as `infpdb serve`
//! configures it — and drives one seeded workload through the HTTP
//! front door, checking every answer.
//!
//! ```text
//! perfbench --workload <hot-http|cold-mix|refine-store> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--corrupt <i>]
//! ```
//!
//! `--trace 0` runs the timed closed loop and prints the end-to-end
//! metrics; `--trace 1` runs the traced replay and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod client;
mod fixture;
mod gen;
mod oracle;
mod replay;
mod spans;
mod stats;
mod timed;
mod traced;

use gen::{Inputs, Scale, Workload};
use stats::Report;

/// The end-to-end metrics of the result line, in order.
/// `latency_p99_ms`, `failed_share`, `peak_rss_mb` and `snapshot_p50_ms`
/// are printed in the report but not gated; README.md says why.
const END_TO_END: &[&str] = &["setup_s", "throughput_qps", "latency_p50_ms"];

/// The per-layer metrics of the result line, in order: those every
/// workload samples. The traced report prints the rest beside them.
const PER_LAYER: &[&str] = &[
    "net.self_us_p50",
    "net.response_bytes",
    "net.bad_requests",
    "serve.build_s",
    "serve.self_us_p50",
    "serve.queue_wait_us_mean",
    "serve.run_us_mean",
    "serve.cache_hit_ratio",
    "serve.plan_cache_hit_ratio",
    "serve.steals",
    "logic.parse_us_p50",
    "logic.fingerprint_us_p50",
    "logic.compile_us_p50",
    "query.truncate_us_p50",
    "query.warm_s",
    "query.grow_ms",
    "query.grow_ns_per_fact",
    "query.facts_grown",
    "query.profile_ms_p50",
    "query.plan_us_p50",
    "query.open_s",
    "finite.eval_ms_p50",
    "finite.lineage_ms_p50",
    "finite.strategy_share.lifted",
    "finite.strategy_share.shannon",
    "finite.strategy_share.mc",
    "finite.strategy_share.kl",
    "finite.shannon_expansions",
    "finite.memo_hit_ratio",
    "finite.arena_nodes",
    "finite.samples",
    "ti.catalog_clone_ms_p50",
    "store.snapshot_ms_p50",
    "store.bytes_per_new_fact",
    "store.shards_written",
    "store.shards_skipped",
    "store.load_s",
    "store.mmap_fallbacks",
    "net.self_share",
    "serve.self_share",
    "logic.self_share",
    "query.self_share",
    "finite.self_share",
    "ti.self_share",
    "store.self_share",
    "trace.qps",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut corrupt = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => trace = value()? == "1",
            "--corrupt" => {
                corrupt = Some(value()?.parse().map_err(|_| "--corrupt takes an index")?)
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        corrupt,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let inputs = Inputs::generate(args.workload, args.seed, scale);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} mode={} threads={threads}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    println!("counter input_digest {:016x}", inputs.digest());
    let (report, attempted, failed, failures, keep) = if args.trace {
        let t = traced::run(&inputs, threads)?;
        for (name, value) in &t.counters {
            println!("counter {name} {value}");
        }
        let total: u64 = t.self_ns.iter().map(|(_, ns)| ns).sum();
        let mut layers = t.self_ns.clone();
        layers.sort_by_key(|l| std::cmp::Reverse(l.1));
        let ranked: Vec<String> = layers
            .iter()
            .map(|(l, ns)| format!("{l} {:.1}%", 100.0 * *ns as f64 / total.max(1) as f64))
            .collect();
        println!("self time by layer: {}", ranked.join(", "));
        let busy: u64 = t.shape_ns.iter().map(|(_, ns)| ns).sum();
        for (shape, ns) in &t.shape_ns {
            println!(
                "busy share {:>6.1}%  {shape}",
                100.0 * *ns as f64 / busy.max(1) as f64
            );
        }
        write_spans(&inputs, &t.spans_json);
        (t.report, t.attempted, t.failed, t.failures, PER_LAYER)
    } else {
        let opts = timed::Options {
            seconds: args.seconds,
            threads,
            setup_reps: if args.smoke { 2 } else { 5 },
            corrupt: args.corrupt,
        };
        let t = timed::run(&inputs, &opts)?;
        let mut r = Report::default();
        r.add("setup_s", t.setup_s.median(), "s", t.setup_s.len());
        let per_window = |f: &dyn Fn(&timed::Window) -> f64| {
            let mut s = stats::Samples::default();
            s.extend(t.windows.iter().map(f));
            s.median()
        };
        r.add(
            "throughput_qps",
            per_window(&|w| w.latency_ms.len() as f64 / w.seconds),
            "queries/s",
            t.answered,
        );
        r.add(
            "latency_p50_ms",
            per_window(&|w| w.latency_ms.percentile(50.0)),
            "ms",
            t.answered,
        );
        // over the whole run: a refine-store episode holds too few
        // answers to put ten beyond its own p99
        let mut all = stats::Samples::default();
        for w in &t.windows {
            all.extend(w.latency_ms.iter().copied());
        }
        r.add("latency_p99_ms", all.percentile(99.0), "ms", all.len());
        r.add(
            "failed_share",
            t.failed as f64 / t.attempted.max(1) as f64,
            "fraction",
            t.attempted,
        );
        r.add("peak_rss_mb", t.peak_rss_mb, "MiB", 1);
        r.add(
            "snapshot_p50_ms",
            t.snapshot_ms.median(),
            "ms",
            t.snapshot_ms.len(),
        );
        let by_window = |f: &dyn Fn(&timed::Window) -> f64| -> String {
            let v: Vec<String> = t.windows.iter().map(|w| format!("{:.4}", f(w))).collect();
            v.join(" ")
        };
        let setups: Vec<String> = t
            .setup_s
            .iter()
            .map(|s| format!("{:.4}", s * 1e3))
            .collect();
        println!("setup ms: {}", setups.join(" "));
        println!(
            "window queries/s: {}",
            by_window(&|w| w.latency_ms.len() as f64 / w.seconds)
        );
        println!(
            "window p50 ms: {}",
            by_window(&|w| w.latency_ms.percentile(50.0))
        );
        (r, t.attempted, t.failed, t.failures, END_TO_END)
    };
    print!("{}", report.table());
    for f in &failures {
        println!("failure: {f}");
    }
    let correct = failed == 0 && failures.is_empty() && attempted > 0;
    println!("{}", report.result_line(correct, attempted, failed, keep));
    Ok(())
}

/// Writes the traced run's spans under `perfbench/out/`.
fn write_spans(inputs: &Inputs, body: &str) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        inputs.workload.name(),
        inputs.seed
    ));
    if std::fs::create_dir_all(&dir).is_ok() && std::fs::write(&path, body).is_ok() {
        println!("spans: {}", path.display());
    }
}
