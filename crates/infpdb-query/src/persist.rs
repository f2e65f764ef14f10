//! Durable snapshots of the prepared-query pipeline's grounded prefix.
//!
//! [`PreparedPdb::persist`] serializes the shared catalog into an
//! [`infpdb_store::Store`]; [`PreparedPdb::open`] restores it on the
//! next start so the enumeration cost is skipped. Opening is **total**:
//! every failure mode — no snapshot, torn segments, checksum damage, a
//! store written by a different database — degrades to a smaller (or
//! empty) verified prefix plus an honest [`StoreStatus`], never an
//! error and never silently wrong answers.
//!
//! Two layers of verification keep restored answers bit-for-bit equal
//! to freshly grounded ones:
//!
//! 1. the store's own checksums and fingerprints (detect damage), and
//! 2. a fact-by-fact comparison of the restored prefix against the live
//!    [`FactSupply`](infpdb_ti::enumerator::FactSupply) — id, fact, and
//!    exact probability bits. Only facts the supply would enumerate
//!    identically are adopted, so the catalog after `open` is
//!    indistinguishable from one built by [`PreparedPdb::warm`].
//!
//! Layer 2 is skipped — the reopen **fast path**,
//! [`OpenReport::supply_check_skipped`] — when layer 1 already proves
//! identity: a clean recovery whose manifest carries the PDB fingerprint
//! the caller expects over the same schema. That makes reopening a
//! 10⁷-fact store O(shards) of checksum scanning instead of O(n) supply
//! re-enumeration on top.
//!
//! Dropping a damaged tail is sound by Proposition 6.1: the kept
//! `m`-fact prefix still answers queries at the widened tolerance
//! `ε_m = e^{1.5·T_m} − 1` ([`partial_certificate`] computes it), which
//! [`StoreStatus::Recovered`] reports as the ε floor.

use crate::prepared::PreparedPdb;
use crate::truncate::partial_certificate;
use infpdb_core::fact::Fact;
use infpdb_core::json::Json;
use infpdb_store::{Recovered, RecoveryReport, SnapshotInfo, Store, StoreError};
use infpdb_ti::catalog::FactCatalog;
use infpdb_ti::construction::CountableTiPdb;

/// The health of the durable store behind a prepared PDB, as
/// established by [`PreparedPdb::open`]. Mirrors the `/healthz`
/// `store` field of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreStatus {
    /// The store directory holds no snapshot yet.
    Fresh,
    /// The snapshot restored completely and verified bit-for-bit.
    Ok {
        /// Facts restored into the catalog.
        facts: usize,
    },
    /// Damage was detected; a verified prefix was recovered.
    Recovered {
        /// Facts restored (the verified prefix).
        facts_kept: usize,
        /// Facts lost to damage.
        facts_dropped: u64,
        /// Checksum failures encountered while scanning.
        checksum_failures: u64,
        /// The widened tolerance the kept prefix re-certifies at
        /// (Proposition 6.1), when one exists below 1/2. Queries at
        /// looser ε are still served warm; tighter ones re-ground.
        eps_floor: Option<f64>,
    },
    /// The snapshot was unusable (corrupt manifest, wrong database);
    /// the catalog starts empty. The reason says why.
    Degraded {
        /// Human-readable cause.
        reason: String,
    },
}

impl StoreStatus {
    /// The wire label used by `/healthz` and the CLI:
    /// `fresh | ok | recovered | degraded`.
    pub fn label(&self) -> &'static str {
        match self {
            StoreStatus::Fresh => "fresh",
            StoreStatus::Ok { .. } => "ok",
            StoreStatus::Recovered { .. } => "recovered",
            StoreStatus::Degraded { .. } => "degraded",
        }
    }
}

/// Everything [`PreparedPdb::open`] established about the store.
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// The verdict.
    pub status: StoreStatus,
    /// The raw recovery accounting, when a snapshot was loaded.
    pub recovery: Option<RecoveryReport>,
    /// Whether the fact-by-fact supply comparison was skipped because
    /// the snapshot already proved its identity: a clean recovery whose
    /// manifest carries the same PDB fingerprint the caller expects and
    /// the same schema the live supply declares. This is the reopen
    /// fast path — O(1) instead of O(n) supply enumerations.
    pub supply_check_skipped: bool,
}

impl PreparedPdb {
    /// Opens a prepared PDB against a durable store: restores the
    /// persisted prefix (verified fact-by-fact against the live
    /// supply) and reports what happened. Total — never fails; the
    /// worst outcome is an empty catalog with a
    /// [`StoreStatus::Degraded`] explanation.
    ///
    /// `expected_fingerprint` is the caller's identity for the supply
    /// (e.g. the serving layer's PDB fingerprint); when both it and the
    /// manifest carry one and they disagree, the snapshot is rejected
    /// as belonging to a different database.
    pub fn open(
        pdb: CountableTiPdb,
        store: &Store,
        expected_fingerprint: Option<u64>,
    ) -> (PreparedPdb, OpenReport) {
        Self::restore(PreparedPdb::new(pdb), store, expected_fingerprint)
    }

    /// [`PreparedPdb::open`] with the PDB's own
    /// [`fingerprint`](PreparedPdb::fingerprint) as the expected
    /// identity: the supply is hashed once, for the identity check and
    /// every later read.
    pub fn open_identified(pdb: CountableTiPdb, store: &Store) -> (PreparedPdb, OpenReport) {
        let prepared = PreparedPdb::new(pdb);
        let fingerprint = prepared.fingerprint();
        Self::restore(prepared, store, Some(fingerprint))
    }

    /// The body of both opens, on a just-created `prepared`.
    fn restore(
        prepared: PreparedPdb,
        store: &Store,
        expected_fingerprint: Option<u64>,
    ) -> (PreparedPdb, OpenReport) {
        let recovered = match store.load() {
            Ok(None) => {
                return (
                    prepared,
                    OpenReport {
                        status: StoreStatus::Fresh,
                        recovery: None,
                        supply_check_skipped: false,
                    },
                )
            }
            Ok(Some(r)) => r,
            Err(e) => {
                return (
                    prepared,
                    OpenReport {
                        status: StoreStatus::Degraded {
                            reason: e.to_string(),
                        },
                        recovery: None,
                        supply_check_skipped: false,
                    },
                )
            }
        };
        let report = recovered.report;
        let fingerprints_match = match (expected_fingerprint, recovered.manifest.pdb_fingerprint) {
            (Some(expect), Some(got)) => {
                if expect != got {
                    return (
                        prepared,
                        OpenReport {
                            status: StoreStatus::Degraded {
                                reason: format!(
                                    "snapshot belongs to a different database \
                                     (fingerprint {got:016x}, expected {expect:016x})"
                                ),
                            },
                            recovery: Some(report),
                            supply_check_skipped: false,
                        },
                    );
                }
                true
            }
            _ => false,
        };

        // reopen fast path: a clean recovery whose manifest proved the
        // supply's identity (matching PDB fingerprint) over the same
        // schema needs no fact-by-fact re-enumeration — the store's
        // fingerprints already guarantee bit-equality with what
        // `persist` was handed, and the PDB fingerprint guarantees
        // `persist` was handed *this* supply's prefix
        let fast = fingerprints_match
            && report.clean()
            && schemas_identical(recovered.catalog.schema(), prepared.pdb().schema());
        let (catalog, diverged, supply_check_skipped) = if fast {
            (recovered.catalog, false, true)
        } else {
            let (catalog, diverged) = verify_against_supply(&prepared, &recovered);
            (catalog, diverged, false)
        };
        let facts_kept = catalog.len();
        if !prepared.adopt_catalog(catalog) {
            unreachable!("a just-created prepared PDB is empty");
        }

        let status = if diverged {
            StoreStatus::Degraded {
                reason: format!(
                    "restored facts diverge from the live supply after {facts_kept} facts \
                     (database changed since the snapshot?)"
                ),
            }
        } else if report.clean() {
            StoreStatus::Ok { facts: facts_kept }
        } else {
            StoreStatus::Recovered {
                facts_kept,
                facts_dropped: report.facts_dropped,
                checksum_failures: report.checksum_failures,
                eps_floor: partial_certificate(prepared.pdb(), facts_kept).map(|(_, eps_m)| eps_m),
            }
        };
        (
            prepared,
            OpenReport {
                status,
                recovery: Some(report),
                supply_check_skipped,
            },
        )
    }

    /// Writes the current grounded prefix to the store. The snapshot is
    /// a point-in-time copy; concurrent executions keep running against
    /// the shared catalog while it is written.
    pub fn persist(
        &self,
        store: &Store,
        pdb_fingerprint: Option<u64>,
        descriptor: Option<Json>,
    ) -> Result<SnapshotInfo, StoreError> {
        store.snapshot(&self.catalog_snapshot(), pdb_fingerprint, descriptor)
    }
}

/// Whether two schemas declare the same relations (name and arity) in
/// the same id order — the precondition for adopting a stored catalog
/// without remapping relation ids.
fn schemas_identical(a: &infpdb_core::schema::Schema, b: &infpdb_core::schema::Schema) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((ia, ra), (ib, rb))| {
            ia == ib && ra.name() == rb.name() && ra.arity() == rb.arity()
        })
}

/// Re-checks every restored fact against the live supply, remapping
/// relation ids by name (the snapshot's schema may order relations
/// differently). Returns the verified catalog and whether verification
/// stopped early on a divergence.
fn verify_against_supply(prepared: &PreparedPdb, recovered: &Recovered) -> (FactCatalog, bool) {
    let supply = prepared.pdb().supply();
    let live_schema = prepared.pdb().schema();
    let stored_schema = recovered.catalog.schema();
    let limit = supply
        .support_len()
        .unwrap_or(usize::MAX)
        .min(recovered.catalog.len());
    let mut catalog = FactCatalog::new(live_schema.clone());
    let mut diverged = recovered.catalog.len() > limit;
    for (id, fact, prob) in recovered.catalog.iter().take(limit) {
        let i = id.0 as usize;
        // remap the stored relation id into the live schema by name
        let Some(mapped) = stored_schema
            .get(fact.rel())
            .and_then(|r| live_schema.rel_id(r.name()))
            .map(|rel| Fact::new(rel, fact.args().iter().cloned()))
        else {
            diverged = true;
            break;
        };
        if mapped != *supply.fact_at(i) || prob.to_bits() != supply.prob(i).to_bits() {
            diverged = true;
            break;
        }
        catalog
            .push(mapped, prob)
            .expect("verified facts mirror the injective supply prefix");
    }
    (catalog, diverged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::planner::{Engine, PlanKnobs, StrategyKind};
    use crate::prepared::PreparedQuery;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_logic::parse;
    use infpdb_math::series::GeometricSeries;
    use infpdb_ti::enumerator::FactSupply;
    use std::path::PathBuf;

    const SHANNON: Engine = Engine::Force(StrategyKind::Shannon);

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1)]).unwrap()
    }

    fn geometric() -> CountableTiPdb {
        CountableTiPdb::new(FactSupply::unary_over_naturals(
            schema(),
            RelId(0),
            GeometricSeries::new(0.5, 0.5).unwrap(),
        ))
        .unwrap()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("infpdb-persist-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn open_on_empty_dir_is_fresh() {
        let dir = tempdir("fresh");
        let store = Store::open_dir(&dir);
        let (prepared, report) = PreparedPdb::open(geometric(), &store, None);
        assert_eq!(report.status, StoreStatus::Fresh);
        assert_eq!(prepared.materialized_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_open_round_trip_serves_identical_answers() {
        let dir = tempdir("roundtrip");
        let store = Store::open_dir(&dir);
        let pdb = geometric();
        let q = parse("exists x. R(x)", pdb.schema()).unwrap();

        let prepared = PreparedPdb::new(pdb.clone());
        prepared.warm(0.001).unwrap();
        let baseline = PreparedQuery::prepare(prepared.clone(), &q, SHANNON, PlanKnobs::default())
            .execute(0.001, &CancelToken::new(), None)
            .unwrap();
        prepared
            .persist(&store, Some(7), Some(Json::obj([("tail", Json::Int(1))])))
            .unwrap();

        let (reopened, report) = PreparedPdb::open(pdb, &store, Some(7));
        assert_eq!(
            report.status,
            StoreStatus::Ok {
                facts: prepared.materialized_len()
            }
        );
        assert!(
            report.supply_check_skipped,
            "clean + matching fingerprints + same schema must take the fast path"
        );
        assert_eq!(reopened.materialized_len(), prepared.materialized_len());
        let replay = PreparedQuery::prepare(reopened, &q, SHANNON, PlanKnobs::default())
            .execute(0.001, &CancelToken::new(), None)
            .unwrap();
        assert_eq!(
            replay.approx, baseline.approx,
            "answers must be bit-for-bit equal"
        );
        assert_eq!(replay.trace, baseline.trace, "work counters must agree");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_identified_checks_and_keeps_the_pdb_fingerprint() {
        let dir = tempdir("identified");
        let store = Store::open_dir(&dir);
        let pdb = geometric();
        let own = infpdb_ti::fingerprint::countable_pdb_fingerprint(&pdb);
        let prepared = PreparedPdb::new(pdb.clone());
        prepared.warm(0.01).unwrap();
        prepared.persist(&store, Some(own), None).unwrap();
        let (reopened, report) = PreparedPdb::open_identified(pdb.clone(), &store);
        assert!(report.supply_check_skipped, "its own fingerprint matched");
        assert_eq!(reopened.fingerprint(), own);
        assert_eq!(reopened.materialized_len(), prepared.materialized_len());
        // a snapshot stamped with another identity is refused
        prepared.persist(&store, Some(own ^ 1), None).unwrap();
        let (refused, report) = PreparedPdb::open_identified(pdb, &store);
        assert!(matches!(report.status, StoreStatus::Degraded { .. }));
        assert_eq!(refused.materialized_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_without_fingerprints_takes_the_verified_slow_path() {
        // no pdb fingerprint on either side ⇒ identity unproven ⇒ the
        // fact-by-fact supply comparison must run (and still verify)
        let dir = tempdir("slowpath");
        let store = Store::open_dir(&dir);
        let pdb = geometric();
        let prepared = PreparedPdb::new(pdb.clone());
        prepared.warm(0.01).unwrap();
        prepared.persist(&store, None, None).unwrap();
        let (reopened, report) = PreparedPdb::open(pdb, &store, None);
        assert!(!report.supply_check_skipped);
        assert_eq!(
            report.status,
            StoreStatus::Ok {
                facts: prepared.materialized_len()
            }
        );
        assert_eq!(reopened.materialized_len(), prepared.materialized_len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_store_recovers_with_eps_floor() {
        let dir = tempdir("recover");
        let store = Store::open_dir(&dir);
        let pdb = geometric();
        let prepared = PreparedPdb::new(pdb.clone());
        prepared.warm(0.001).unwrap();
        prepared.persist(&store, None, None).unwrap();
        // tear the tail off the single segment file
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() * 2 / 3]).unwrap();

        let (reopened, report) = PreparedPdb::open(pdb.clone(), &store, None);
        match report.status {
            StoreStatus::Recovered {
                facts_kept,
                facts_dropped,
                eps_floor,
                ..
            } => {
                assert_eq!(facts_kept, reopened.materialized_len());
                assert!(facts_dropped > 0);
                // geometric tails vanish fast: the kept prefix certifies
                let floor = eps_floor.expect("geometric prefix certifies");
                assert!(floor > 0.0 && floor < 0.5);
                // a query at a tolerance looser than the floor is warm
                let q = parse("exists x. R(x)", pdb.schema()).unwrap();
                let fresh = PreparedPdb::new(pdb.clone());
                let a = PreparedQuery::prepare(reopened, &q, SHANNON, PlanKnobs::default())
                    .execute(0.01, &CancelToken::new(), None)
                    .unwrap();
                let b = PreparedQuery::prepare(fresh, &q, SHANNON, PlanKnobs::default())
                    .execute(0.01, &CancelToken::new(), None)
                    .unwrap();
                assert_eq!(a.approx, b.approx, "recovered prefix answers match fresh");
            }
            other => panic!("expected Recovered, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_degrades_instead_of_lying() {
        let dir = tempdir("wrongdb");
        let store = Store::open_dir(&dir);
        let prepared = PreparedPdb::new(geometric());
        prepared.warm(0.01).unwrap();
        prepared.persist(&store, Some(111), None).unwrap();
        let (reopened, report) = PreparedPdb::open(geometric(), &store, Some(222));
        assert!(matches!(report.status, StoreStatus::Degraded { .. }));
        assert_eq!(reopened.materialized_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_declared_fact_count_is_reported_not_a_crash() {
        let dir = tempdir("declared-count");
        let store = Store::open_dir(&dir);
        let prepared = PreparedPdb::new(geometric());
        prepared.warm(0.01).unwrap();
        prepared.persist(&store, Some(5), None).unwrap();
        let manifest = store.read_manifest().unwrap().unwrap();
        let committed = format!("\"facts\": {}", manifest.facts);
        let text = manifest.encode();
        assert!(text.contains(&committed), "{text}");
        for declared in ["-1", "4000000000000"] {
            let damaged = text.replace(&committed, &format!("\"facts\": {declared}"));
            std::fs::write(dir.join(infpdb_store::store::MANIFEST_FILE), damaged).unwrap();
            let (_, report) = PreparedPdb::open(geometric(), &store, Some(5));
            assert!(
                matches!(
                    report.status,
                    StoreStatus::Degraded { .. } | StoreStatus::Recovered { .. }
                ),
                "facts {declared}: {:?}",
                report.status
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supply_divergence_is_detected_fact_by_fact() {
        let dir = tempdir("diverge");
        let store = Store::open_dir(&dir);
        let prepared = PreparedPdb::new(geometric());
        prepared.warm(0.01).unwrap();
        prepared.persist(&store, None, None).unwrap();
        // reopen against a *different* distribution: same facts, other probs
        let other = CountableTiPdb::new(FactSupply::unary_over_naturals(
            schema(),
            RelId(0),
            GeometricSeries::new(0.25, 0.5).unwrap(),
        ))
        .unwrap();
        let (reopened, report) = PreparedPdb::open(other, &store, None);
        assert!(
            matches!(report.status, StoreStatus::Degraded { .. }),
            "{:?}",
            report.status
        );
        assert_eq!(reopened.materialized_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_prefix_still_cancels_soundly() {
        // sanity: an adopted catalog behaves exactly like a warmed one
        // under the cancellation path
        let dir = tempdir("cancel");
        let store = Store::open_dir(&dir);
        let pdb = geometric();
        let prepared = PreparedPdb::new(pdb.clone());
        prepared.warm(0.01).unwrap();
        prepared.persist(&store, None, None).unwrap();
        let (reopened, _) = PreparedPdb::open(pdb.clone(), &store, None);
        let q = parse("exists x. R(x)", pdb.schema()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = PreparedQuery::prepare(reopened, &q, Engine::Auto, PlanKnobs::default())
            .execute(0.01, &token, None)
            .unwrap_err();
        assert!(matches!(err, crate::QueryError::Cancelled(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
