//! Pins the growth cliff of the prepared catalog.
//!
//! Prefix tables are views over the catalog's `Arc`-shared interner and
//! probability vector. An append while another owner holds those `Arc`s
//! makes `Arc::make_mut` deep-clone both: O(n) per growth step.
//! `PreparedPdb::prefix_for` keeps no view of its own between calls, so
//! only a caller that still holds one pays that clone. These tests pin
//! that growth appends in place once the caller's views are dropped, and
//! that a view held across a growth keeps reading its own prefix.

use infpdb_core::fact::Fact;
use infpdb_core::interner::FactInterner;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::value::Value;
use infpdb_finite::TiTable;
use infpdb_math::series::ZetaSeries;
use infpdb_query::cancel::CancelToken;
use infpdb_query::prepared::{PreparedPdb, PreparedPrefix};
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;
use std::sync::Arc;

/// The ζ(2) PDB of Example 3.3: `R(k)` with `p_k = 6/(π²k²)`.
fn zeta() -> PreparedPdb {
    let schema = Schema::from_relations([Relation::new("R", 1)]).expect("static schema");
    let supply = FactSupply::unary_over_naturals(schema, RelId(0), ZetaSeries::basel());
    PreparedPdb::new(CountableTiPdb::new(supply).expect("ζ(2) converges"))
}

fn table_at(prepared: &PreparedPdb, eps: f64) -> Arc<TiTable> {
    match prepared
        .prefix_for(eps, &CancelToken::new())
        .expect("valid ε")
    {
        PreparedPrefix::Complete { table, .. } => table,
        PreparedPrefix::Cancelled { .. } => unreachable!("a fresh token never fires"),
    }
}

/// Where a view's interner lives: the allocation of the catalog's
/// `Arc<FactInterner>`, which a deep clone would replace.
fn interner_addr(table: &TiTable) -> *const FactInterner {
    table.interner()
}

#[test]
fn interleaved_growth_never_clones_the_catalog_backing() {
    let prepared = zeta();
    let backing = interner_addr(&table_at(&prepared, 0.05));
    let mut growths = 0;
    for k in 0..1_000 {
        // a schedule that tightens overall but loosens every other call
        let tight = 0.05 * 0.995f64.powi(k / 2);
        let eps = if k % 2 == 0 { tight } else { tight * 3.0 };
        let before = prepared.materialized_len();
        let table = table_at(&prepared, eps);
        growths += usize::from(prepared.materialized_len() > before);
        // the probability vector sits beside the interner in every view
        // and in the catalog, so the two are only ever cloned together
        assert_eq!(
            interner_addr(&table),
            backing,
            "call {k} (ε = {eps}) deep-cloned the catalog backing"
        );
        drop(table);
    }
    assert!(growths > 100, "the schedule must grow the catalog often");
}

#[test]
fn a_view_held_across_growth_keeps_its_prefix() {
    let prepared = zeta();
    let held = table_at(&prepared, 0.05);
    let (len, fingerprint) = (held.len(), held.fingerprint());
    let later = Fact::new(RelId(0), [Value::int(len as i64 + 1)]);
    assert_eq!(held.marginal(&later), 0.0, "closed world at n");

    let grown = table_at(&prepared, 0.005);
    assert!(grown.len() > len);
    assert!(
        grown.marginal(&later) > 0.0,
        "the grown view sees the new fact"
    );

    assert_eq!(held.len(), len);
    assert_eq!(
        held.marginal(&later),
        0.0,
        "growth leaked into the held view"
    );
    assert_eq!(held.fingerprint(), fingerprint);
}
