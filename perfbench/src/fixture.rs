//! Set-up: the PDB, the service and the front door, built the way
//! `infpdb serve` builds them, plus the store-directory bookkeeping and
//! the durability check.

use crate::gen::{Inputs, Workload};
use crate::spans::SpanLog;
use infpdb::netcmd::{start_server, ServeOptions};
use infpdb_core::fact::Fact;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::value::Value;
use infpdb_math::series::{GeometricSeries, ZetaSeries};
use infpdb_net::server::{HttpServer, ServerConfig};
use infpdb_openworld::independent_facts::complete_ti_table;
use infpdb_serve::{QueryService, ServiceConfig};
use infpdb_store::{SnapshotInfo, Store};
use infpdb_ti::catalog::FactCatalog;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The deployment values the benchmark sets; everything else is the
/// `infpdb serve` default.
#[derive(Debug, Clone)]
pub struct Deployment {
    pub threads: usize,
    pub store_dir: PathBuf,
}

impl Deployment {
    pub fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            bind: "127.0.0.1:0".to_string(),
            threads: self.threads,
            store_dir: Some(self.store_dir.to_string_lossy().into_owned()),
            ..ServeOptions::default()
        }
    }

    /// The service configuration `infpdb serve` derives from its options.
    pub fn service_config(&self) -> ServiceConfig {
        let o = self.serve_options();
        ServiceConfig {
            threads: o.threads,
            parallelism: o.parallelism,
            scheduler: o.scheduler,
            arena_stats: o.arena_stats,
            store_dir: o.store_dir.as_ref().map(PathBuf::from),
            store_shard_capacity: o.store_shard_capacity,
            ..ServiceConfig::default()
        }
    }

    pub fn server_config(&self) -> ServerConfig {
        let o = self.serve_options();
        ServerConfig {
            default_eps: o.default_eps,
            arena_stats: o.arena_stats,
            ..ServerConfig::default()
        }
    }
}

/// The ζ(2) PDB of Example 3.3: `R(k)` with `p_k = 6/(π²k²)`, k ≥ 1.
pub fn zeta_pdb() -> CountableTiPdb {
    let schema = Schema::from_relations([Relation::new("R", 1)]).expect("static schema");
    CountableTiPdb::new(FactSupply::unary_over_naturals(
        schema,
        RelId(0),
        ZetaSeries::basel(),
    ))
    .expect("ζ(2) converges")
}

/// The open-world completion `infpdb serve` attaches to a table: a
/// geometric tail of fresh facts over the first unary relation.
pub fn complete(table: &infpdb_finite::TiTable) -> Result<CountableTiPdb, String> {
    let o = ServeOptions::default();
    let (rel, _) = table
        .schema()
        .iter()
        .find(|(_, r)| r.arity() == 1)
        .ok_or("the KB declares no unary relation")?;
    let series = GeometricSeries::new(o.tail_mass / 2.0, 0.5).map_err(|e| e.to_string())?;
    let start = o.tail_start;
    let tail = FactSupply::from_fn(
        table.schema().clone(),
        move |i| Fact::new(rel, [Value::int(start + i as i64)]),
        series,
    );
    complete_ti_table(table, tail).map_err(|e| e.to_string())
}

/// The workload's PDB, built step by step (each step a set-up span when
/// a log is given).
pub fn build_pdb(inputs: &Inputs, log: &mut SpanLog) -> Result<CountableTiPdb, String> {
    match &inputs.kb {
        None => Ok(zeta_pdb()),
        Some(kb) => {
            let table = log.time("setup", "ti.parse_table", || infpdb::cli::parse_table(kb));
            let table = table.map_err(|e| e.to_string())?;
            log.time("setup", "ti.complete", || complete(&table))
        }
    }
}

/// A running front door plus its set-up time.
pub struct Running {
    pub server: HttpServer,
    pub setup_s: f64,
}

/// Starts the stack over `dep` and warms the workload's loosest-ε
/// prefix: the span `setup_s` measures. hot-http and cold-mix go
/// through `infpdb serve`'s own start-up path over the KB text;
/// refine-store starts from the ζ(2) PDB over a copy of its store image.
pub fn start(inputs: &Inputs, dep: &Deployment) -> Result<Running, String> {
    let t0 = Instant::now();
    let server = match &inputs.kb {
        Some(kb) => start_server(kb, &dep.serve_options()).map_err(|e| e.to_string())?,
        None => {
            let service = QueryService::new(zeta_pdb(), dep.service_config());
            HttpServer::start(service, dep.server_config(), "127.0.0.1:0")
                .map_err(|e| format!("bind: {e}"))?
        }
    };
    server
        .service()
        .warm(inputs.warm_eps)
        .map_err(|e| format!("warm: {e}"))?;
    Ok(Running {
        server,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// [`start`], one layer call at a time, each recorded as a set-up span.
pub fn start_traced(
    inputs: &Inputs,
    dep: &Deployment,
    log: &mut SpanLog,
) -> Result<HttpServer, String> {
    let pdb = build_pdb(inputs, log)?;
    let service = log.time("setup", "serve.build", || {
        QueryService::new(pdb, dep.service_config())
    });
    let server = HttpServer::start(service, dep.server_config(), "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    log.time("setup", "query.warm", || {
        server.service().warm(inputs.warm_eps)
    })
    .map_err(|e| format!("warm: {e}"))?;
    Ok(server)
}

/// One timed `QueryService::snapshot()`.
pub fn snapshot(server: &HttpServer) -> Result<(f64, SnapshotInfo), String> {
    let t = Instant::now();
    let info = server
        .service()
        .snapshot()
        .map_err(|e| format!("snapshot: {e}"))?
        .ok_or("service runs without a store")?;
    Ok((t.elapsed().as_secs_f64(), info))
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from("perfbench")
            .join(".work")
            .join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Builds refine-store's store image in `dir`: the ζ(2) prefix at the
/// workload's first ε, snapshotted by a service that is then dropped.
pub fn build_image(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let dep = Deployment {
        threads: 1,
        store_dir: dir.to_path_buf(),
    };
    let service = QueryService::new(zeta_pdb(), dep.service_config());
    service
        .warm(inputs.warm_eps)
        .map_err(|e| format!("warm: {e}"))?;
    service
        .snapshot()
        .map_err(|e| format!("snapshot: {e}"))?
        .ok_or("no store")?;
    Ok(())
}

/// Prepares a fresh store directory for one start: empty for the KB
/// workloads, a copy of the image for refine-store.
pub fn fresh_store(inputs: &Inputs, image: &Path, dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    match inputs.workload {
        Workload::RefineStore => copy_dir(image, dir),
        _ => std::fs::create_dir_all(dir).map_err(|e| e.to_string()),
    }
}

/// The durability check: a fresh `Store::load` of `dir` must return
/// exactly the catalog of the last acknowledged snapshot — the PDB's
/// first `facts` facts. Returns a description of any difference.
pub fn durability_check(pdb: &CountableTiPdb, dir: &Path, facts: u64) -> Result<(), String> {
    let recovered = Store::open_dir(dir)
        .load()
        .map_err(|e| format!("reload: {e}"))?
        .ok_or("reload found no snapshot")?;
    let supply = pdb.supply();
    let mut expected = FactCatalog::new(pdb.schema().clone());
    for i in 0..facts as usize {
        expected
            .push(supply.fact(i), supply.prob(i))
            .map_err(|e| e.to_string())?;
    }
    let got = &recovered.catalog;
    if got.len() as u64 != facts || got.fingerprint() != expected.fingerprint() {
        return Err(format!(
            "reloaded {} facts (fingerprint {:016x}), last acknowledged snapshot had {} ({:016x})",
            got.len(),
            got.fingerprint(),
            facts,
            expected.fingerprint()
        ));
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
