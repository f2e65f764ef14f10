//! Self-tests in smoke mode (tiny inputs): the benchmark emits every
//! metric `BENCHMARK.json` declares, with its unit; the traced run's
//! layer self times add up to the requests' traced durations; a
//! corrupted answer is counted as failed; and the work counters repeat
//! exactly for a seed and change with it.

use infpdb_core::json::Json;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

/// Runs serialize: each one starts a server and loads every core.
static SERIAL: Mutex<()> = Mutex::new(());

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn declared() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn metrics(doc: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Array(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Workloads the binary runs but `BENCHMARK.json` does not declare
/// (README.md says why); the self-tests cover them all the same.
const UNDECLARED: &[&str] = &["cold-mix"];

/// The declared workloads, then the undeclared ones.
fn workloads(doc: &Json) -> Vec<String> {
    let Some(Json::Array(items)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let mut names: Vec<String> = items
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    for w in UNDECLARED {
        if !names.iter().any(|n| n == w) {
            names.push(w.to_string());
        }
    }
    names
}

struct Run {
    stdout: String,
    result: Json,
}

impl Run {
    /// The report table's `(value, unit, samples)` for `name`.
    fn table(&self, name: &str) -> Option<(f64, String, usize)> {
        self.stdout.lines().find_map(|l| {
            let parts: Vec<&str> = l.split_whitespace().collect();
            match parts[..] {
                [n, value, unit, "(samples:", samples] if n == name => Some((
                    value.parse().ok()?,
                    unit.to_string(),
                    samples.trim_end_matches(')').parse().ok()?,
                )),
                _ => None,
            }
        })
    }

    fn counters(&self) -> Vec<&str> {
        self.stdout
            .lines()
            .filter(|l| l.starts_with("counter "))
            .collect()
    }

    fn int(&self, key: &str) -> i64 {
        match self.result.get(key) {
            Some(Json::Int(v)) => *v,
            other => panic!("result {key} is {other:?}"),
        }
    }
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_infpdb-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    Run { stdout, result }
}

/// The result line's metrics are exactly `want`, each with its unit.
fn assert_metrics(run: &Run, want: &[(String, String)]) {
    let Some(Json::Object(got)) = run.result.get("metrics") else {
        panic!("no metrics object");
    };
    let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want_names);
    for (name, unit) in want {
        let m = run.result.get("metrics").and_then(|m| m.get(name)).unwrap();
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

#[test]
fn timed_runs_emit_every_end_to_end_metric_and_pass_the_oracle() {
    let doc = declared();
    let want = metrics(&doc, "end_to_end");
    for w in workloads(&doc) {
        let r = run(&w, 1, false, &[]);
        assert_metrics(&r, &want);
        assert_eq!(
            r.result.get("correct"),
            Some(&Json::Bool(true)),
            "{w}:\n{}",
            r.stdout
        );
        assert_eq!(r.int("failed"), 0);
        assert!(r.int("attempted") > 0);
        // all seven end-to-end metrics of the report, with unit and samples
        for (name, unit) in [
            ("setup_s", "s"),
            ("throughput_qps", "queries/s"),
            ("latency_p50_ms", "ms"),
            ("latency_p99_ms", "ms"),
            ("failed_share", "fraction"),
            ("peak_rss_mb", "MiB"),
            ("snapshot_p50_ms", "ms"),
        ] {
            let (_, u, samples) = r.table(name).unwrap_or_else(|| panic!("{w}: no {name}"));
            assert_eq!(u, unit, "{w}: {name}");
            assert!(samples > 0, "{w}: {name} has no samples");
        }
        assert_eq!(r.table("failed_share").unwrap().0, 0.0);
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_add_up() {
    let doc = declared();
    let want = metrics(&doc, "per_layer");
    for w in workloads(&doc) {
        let r = run(&w, 1, true, &[]);
        assert_metrics(&r, &want);
        assert_eq!(
            r.result.get("correct"),
            Some(&Json::Bool(true)),
            "{w}:\n{}",
            r.stdout
        );
        // summed over the requests, the layer self times, each clamped
        // at 0, exceed the traced durations by at most a half: time
        // counted twice. The passes are timed apart, and on a shared
        // host they drift apart by up to a third of a smoke run's time,
        // so a tighter bound, or one on every request, fails by chance.
        let (twice, _, requests) = r.table("trace.double_counted_share").unwrap();
        assert!(requests > 0);
        assert!(
            (0.0..=0.5).contains(&twice),
            "{w}: {twice} of the traced time is counted twice"
        );
        assert!(r.table("trace.self_sum_within_10pct").is_some());
        assert!(r.stdout.contains("self time by layer: "));
    }
}

#[test]
fn a_corrupted_answer_raises_failed_share() {
    let r = run("hot-http", 1, false, &["--corrupt", "3"]);
    assert_eq!(r.result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(r.int("failed"), 1);
    let (share, _, attempted) = r.table("failed_share").unwrap();
    assert!(share > 0.0 && (share - 1.0 / attempted as f64).abs() < 1e-6);
}

#[test]
fn work_counters_repeat_exactly_and_follow_the_seed() {
    for w in workloads(&declared()) {
        let a = run(&w, 5, true, &[]);
        let b = run(&w, 5, true, &[]);
        let c = run(&w, 6, true, &[]);
        assert!(a.counters().len() >= 8, "{w}: {:?}", a.counters());
        assert_eq!(a.counters(), b.counters(), "{w}: same seed, different work");
        let digest = |r: &Run| {
            r.counters()
                .into_iter()
                .find(|l| l.starts_with("counter input_digest "))
                .unwrap()
                .to_string()
        };
        assert_ne!(
            digest(&a),
            digest(&c),
            "{w}: the seed does not reach the inputs"
        );
    }
}
