//! Extensional (lifted) inference for hierarchical queries.
//!
//! Evaluates the [`SafePlan`]s of `infpdb_logic::safety` directly against a
//! tuple-independent table, in polynomial time:
//!
//! * ground atom — the fact's marginal probability (0 if absent: closed
//!   world);
//! * independent join — product of sub-probabilities;
//! * independent project over root variable `x` —
//!   `1 − ∏_{a ∈ adom} (1 − P(plan[x ↦ a]))`.
//!
//! Values outside the active domain contribute factors of `1 − 0`, so
//! restricting the projection to `adom(table) ∪ adom(Q)` is complete
//! (Fact 2.1 again). By the same argument a project whose body is a
//! single atom needs only that atom's facts: [`prob_hierarchical`] scans
//! them instead of the domain, and builds the domain only for a project
//! that still needs it.

use crate::lineage::GroundingDomain;
use crate::{FiniteError, TiTable};
use infpdb_core::fact::Fact;
use infpdb_core::value::Value;
use infpdb_logic::ast::{Formula, Term};
use infpdb_logic::normal::{as_cq, CqAtom};
use infpdb_logic::safety::{safe_plan, substitute_in_plan, SafePlan};
use infpdb_math::KahanSum;

/// Probability of a hierarchical Boolean self-join-free CQ, evaluated
/// extensionally. Errors if the query is outside that fragment (use the
/// lineage engine instead).
///
/// Bit-for-bit [`eval_plan`] over the full `adom(table) ∪ adom(Q)`
/// domain, at the cost of only the facts the plan reaches.
pub fn prob_hierarchical(query: &Formula, table: &TiTable) -> Result<f64, FiniteError> {
    let cq = as_cq(query)?;
    let plan = safe_plan(&cq)?;
    Ok(eval_reached(
        &plan,
        table,
        &GroundingDomain::new(table, query),
    ))
}

/// Evaluates a safe plan whose remaining variables are all bound by its own
/// projects, every project ranging over `domain`. The general case, and
/// the reference [`prob_hierarchical`] is tested against.
pub fn eval_plan(plan: &SafePlan, table: &TiTable, domain: &[Value]) -> f64 {
    match plan {
        SafePlan::Atom(atom) => atom_prob(atom, table),
        SafePlan::IndependentJoin(parts) => {
            parts.iter().map(|p| eval_plan(p, table, domain)).product()
        }
        SafePlan::IndependentProject { var, plan } => project(
            domain
                .iter()
                .map(|a| eval_plan(&substitute_in_plan(plan, var, a), table, domain)),
        ),
    }
}

/// [`eval_plan`] with a lazily built domain and fact-driven single-atom
/// projects.
///
/// A project over a single atom gets a nonzero term only from the atom's
/// own facts; every other domain value adds `ln_1p(−0) = −0.0`, which
/// leaves the compensated sum's bits unchanged (DESIGN.md §9). Scanning
/// the table's facts costs no more than building the domain, so the
/// scan runs unless an enclosing project has already built a domain
/// smaller than the table.
pub(crate) fn eval_reached(plan: &SafePlan, table: &TiTable, domain: &GroundingDomain) -> f64 {
    match plan {
        SafePlan::Atom(atom) => atom_prob(atom, table),
        SafePlan::IndependentJoin(parts) => parts
            .iter()
            .map(|p| eval_reached(p, table, domain))
            .product(),
        SafePlan::IndependentProject { var, plan } => {
            if let SafePlan::Atom(atom) = &**plan {
                if !domain.is_built() || table.len() <= domain.values().len() {
                    if let Some(p) = project_facts(atom, var, table) {
                        return p;
                    }
                }
            }
            project(
                domain
                    .values()
                    .iter()
                    .map(|a| eval_reached(&substitute_in_plan(plan, var, a), table, domain)),
            )
        }
    }
}

/// `1 − ∏ (1 − p)` over the terms, accumulated in log space for
/// stability; a certain term short-circuits to 1.
fn project(terms: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_none = KahanSum::new();
    for p in terms {
        if p >= 1.0 {
            return 1.0;
        }
        log_none.add((-p).ln_1p());
    }
    (-log_none.value().exp_m1()).max(0.0)
}

/// The project of `atom` over `var` from the atom's matching facts,
/// visited in the order of the value `var` binds — the order those
/// values have in the grounding domain. `None` when the atom mentions a
/// variable other than `var`, or not `var` at all.
fn project_facts(atom: &CqAtom, var: &str, table: &TiTable) -> Option<f64> {
    let pattern: Vec<Option<&Value>> = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(Some(c)),
            Term::Var(v) if v == var => Some(None),
            Term::Var(_) => None,
        })
        .collect::<Option<_>>()?;
    let bound = pattern.iter().position(Option::is_none)?;
    let mut hits: Vec<(&Value, f64)> = table
        .iter()
        .filter(|(_, f, _)| f.rel() == atom.rel)
        .filter_map(|(_, f, p)| {
            let args = f.args();
            let value = &args[bound];
            let matches = pattern
                .iter()
                .zip(args)
                .all(|(want, arg)| want.unwrap_or(value) == arg);
            matches.then_some((value, p))
        })
        .collect();
    hits.sort_by(|a, b| a.0.cmp(b.0));
    Some(project(hits.into_iter().map(|(_, p)| p)))
}

fn atom_prob(atom: &CqAtom, table: &TiTable) -> f64 {
    let args: Vec<Value> = atom
        .args
        .iter()
        .map(|t| {
            t.as_const()
                .expect("plan evaluation grounds all variables before reaching atoms")
                .clone()
        })
        .collect();
    table.marginal(&Fact::new(atom.rel, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::lineage_of;
    use crate::shannon;
    use infpdb_core::schema::{Relation, Schema};
    use infpdb_logic::parse;

    fn schema() -> Schema {
        Schema::from_relations([
            Relation::new("R", 1),
            Relation::new("S", 2),
            Relation::new("T", 1),
        ])
        .unwrap()
    }

    fn table() -> TiTable {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let s2 = s.rel_id("S").unwrap();
        let t2 = s.rel_id("T").unwrap();
        TiTable::from_facts(
            s,
            [
                (Fact::new(r, [Value::int(1)]), 0.5),
                (Fact::new(r, [Value::int(2)]), 0.4),
                (Fact::new(s2, [Value::int(1), Value::int(1)]), 0.3),
                (Fact::new(s2, [Value::int(1), Value::int(2)]), 0.2),
                (Fact::new(s2, [Value::int(2), Value::int(2)]), 0.9),
                (Fact::new(t2, [Value::int(2)]), 0.7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_existential_atom() {
        let t = table();
        let q = parse("exists x. R(x)", t.schema()).unwrap();
        let p = prob_hierarchical(&q, &t).unwrap();
        assert!((p - (1.0 - 0.5 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn ground_query() {
        let t = table();
        let q = parse("R(1) /\\ T(2)", t.schema()).unwrap();
        let p = prob_hierarchical(&q, &t).unwrap();
        assert!((p - 0.35).abs() < 1e-12);
        let q0 = parse("R(9)", t.schema()).unwrap();
        assert_eq!(prob_hierarchical(&q0, &t).unwrap(), 0.0);
    }

    #[test]
    fn hierarchical_join_matches_lineage_engine() {
        let t = table();
        for qs in [
            "exists x, y. R(x) /\\ S(x, y)",
            "exists x. R(x) /\\ S(x, 2)",
            "exists x, y. S(x, y)",
            "exists x. R(x) /\\ exists y. S(x, y)",
            "(exists x. R(x)) /\\ (exists z. T(z))",
        ] {
            let q = parse(qs, t.schema()).unwrap();
            let ext = prob_hierarchical(&q, &t).unwrap();
            let l = lineage_of(&q, &t).unwrap();
            let int = shannon::probability(&l, &|id| t.prob(id));
            assert!(
                (ext - int).abs() < 1e-9,
                "{qs}: lifted {ext} vs lineage {int}"
            );
        }
    }

    #[test]
    fn matches_brute_force_world_enumeration() {
        let t = table();
        let pdb = t.worlds().unwrap();
        let q = parse("exists x, y. R(x) /\\ S(x, y)", t.schema()).unwrap();
        let ext = prob_hierarchical(&q, &t).unwrap();
        let brute = pdb.prob_boolean(&q).unwrap();
        assert!((ext - brute).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_hierarchical() {
        let t = table();
        let q = parse("exists x, y. R(x) /\\ S(x, y) /\\ T(y)", t.schema()).unwrap();
        assert!(matches!(
            prob_hierarchical(&q, &t),
            Err(FiniteError::Logic(_))
        ));
    }

    #[test]
    fn rejects_non_cq() {
        let t = table();
        let q = parse("exists x. !R(x)", t.schema()).unwrap();
        assert!(prob_hierarchical(&q, &t).is_err());
    }

    #[test]
    fn deterministic_facts_saturate() {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let t = TiTable::from_facts(
            s,
            [
                (Fact::new(r, [Value::int(1)]), 1.0),
                (Fact::new(r, [Value::int(2)]), 0.4),
            ],
        )
        .unwrap();
        let q = parse("exists x. R(x)", t.schema()).unwrap();
        assert_eq!(prob_hierarchical(&q, &t).unwrap(), 1.0);
    }

    #[test]
    fn empty_table_gives_zero() {
        let t = TiTable::new(schema());
        let q = parse("exists x. R(x)", t.schema()).unwrap();
        assert_eq!(prob_hierarchical(&q, &t).unwrap(), 0.0);
    }
}
