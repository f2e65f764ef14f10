//! Brute-force possible-worlds reference engine and event probabilities.
//!
//! Every other inference engine in this crate is cross-validated against
//! [`prob_boolean_brute`], which materializes all `2^n` worlds of a t.i.
//! table and sums the satisfying mass — the defining semantics.
//!
//! [`prob_event`] computes the probability of an [`Event`] on a t.i. table
//! without enumeration where possible: Boolean-combination events translate
//! to lineage and go through the Shannon engine; size events use the exact
//! Poisson-binomial distribution.

use crate::arena::{self, LineageArena, LineageId};
use crate::lineage::Lineage;
use crate::{shannon, FiniteError, TiTable};
use infpdb_core::event::Event;
use infpdb_core::fact::FactId;
use infpdb_logic::ast::Formula;

/// `P(Q)` by full world enumeration (exponential; guarded by
/// [`crate::tuple_independent::MAX_ENUM_FACTS`]).
pub fn prob_boolean_brute(query: &Formula, table: &TiTable) -> Result<f64, FiniteError> {
    table.worlds()?.prob_boolean(query)
}

/// Translates an event into lineage over the table's fact variables, if the
/// event is a Boolean combination of fact containments. `Exactly` needs the
/// full variable list; `SizeAtLeast` is not a finite Boolean combination
/// and returns `None` (handled separately in [`prob_event`]).
pub fn event_lineage(event: &Event, table: &TiTable) -> Option<Lineage> {
    match event {
        Event::Always => Some(Lineage::Top),
        Event::ContainsFact(id) => Some(var_or_const(*id, table)),
        Event::ContainsAny(ids) => Some(Lineage::or(ids.iter().map(|id| var_or_const(*id, table)))),
        Event::Superset(d) => Some(Lineage::and(d.iter().map(|id| var_or_const(id, table)))),
        Event::Exactly(d) => {
            // ⋀_{f∈D} v_f ∧ ⋀_{f∈table−D} ¬v_f; instances outside the
            // table's support are impossible
            for id in d.iter() {
                if id.0 as usize >= table.len() {
                    return Some(Lineage::Bot);
                }
            }
            Some(Lineage::and((0..table.len()).map(|i| {
                let id = FactId(i as u32);
                let v = var_or_const(id, table);
                if d.contains(id) {
                    v
                } else {
                    v.negate()
                }
            })))
        }
        Event::SizeAtLeast(_) => None,
        Event::Not(e) => Some(event_lineage(e, table)?.negate()),
        Event::And(es) => {
            let ls: Option<Vec<Lineage>> = es.iter().map(|e| event_lineage(e, table)).collect();
            Some(Lineage::and(ls?))
        }
        Event::Or(es) => {
            let ls: Option<Vec<Lineage>> = es.iter().map(|e| event_lineage(e, table)).collect();
            Some(Lineage::or(ls?))
        }
    }
}

/// Arena counterpart of [`event_lineage`]: interns the event's lineage
/// into `arena` so [`prob_event`] runs on the DAG Shannon engine.
pub fn event_lineage_arena(
    event: &Event,
    table: &TiTable,
    arena: &mut LineageArena,
) -> Option<LineageId> {
    match event {
        Event::Always => Some(arena::TOP),
        Event::ContainsFact(id) => Some(var_or_const_arena(*id, table, arena)),
        Event::ContainsAny(ids) => {
            let vs: Vec<LineageId> = ids
                .iter()
                .map(|id| var_or_const_arena(*id, table, arena))
                .collect();
            Some(arena.or(vs))
        }
        Event::Superset(d) => {
            let vs: Vec<LineageId> = d
                .iter()
                .map(|id| var_or_const_arena(id, table, arena))
                .collect();
            Some(arena.and(vs))
        }
        Event::Exactly(d) => {
            for id in d.iter() {
                if id.0 as usize >= table.len() {
                    return Some(arena::BOT);
                }
            }
            let vs: Vec<LineageId> = (0..table.len())
                .map(|i| {
                    let id = FactId(i as u32);
                    let v = var_or_const_arena(id, table, arena);
                    if d.contains(id) {
                        v
                    } else {
                        arena.negate(v)
                    }
                })
                .collect();
            Some(arena.and(vs))
        }
        Event::SizeAtLeast(_) => None,
        Event::Not(e) => {
            let l = event_lineage_arena(e, table, arena)?;
            Some(arena.negate(l))
        }
        Event::And(es) => {
            let ls: Option<Vec<LineageId>> = es
                .iter()
                .map(|e| event_lineage_arena(e, table, arena))
                .collect();
            Some(arena.and(ls?))
        }
        Event::Or(es) => {
            let ls: Option<Vec<LineageId>> = es
                .iter()
                .map(|e| event_lineage_arena(e, table, arena))
                .collect();
            Some(arena.or(ls?))
        }
    }
}

fn var_or_const_arena(id: FactId, table: &TiTable, arena: &mut LineageArena) -> LineageId {
    if id.0 as usize >= table.len() {
        return arena::BOT; // facts outside the table never occur
    }
    let p = table.prob(id);
    if p == 0.0 {
        arena::BOT
    } else if p == 1.0 {
        arena::TOP
    } else {
        arena.var(id)
    }
}

fn var_or_const(id: FactId, table: &TiTable) -> Lineage {
    if id.0 as usize >= table.len() {
        return Lineage::Bot; // facts outside the table never occur
    }
    let p = table.prob(id);
    if p == 0.0 {
        Lineage::Bot
    } else if p == 1.0 {
        Lineage::Top
    } else {
        Lineage::Var(id)
    }
}

/// Exact `P(E)` on a t.i. table. Boolean-combination events go through
/// lineage + Shannon; a bare `SizeAtLeast` uses the Poisson-binomial tail;
/// mixed events fall back to world enumeration.
pub fn prob_event(event: &Event, table: &TiTable) -> Result<f64, FiniteError> {
    let mut arena = LineageArena::new();
    if let Some(root) = event_lineage_arena(event, table, &mut arena) {
        return Ok(shannon::probability_dag(&mut arena, root, &|id| {
            table.prob(id)
        }));
    }
    if let Event::SizeAtLeast(n) = event {
        let dist = table.size_distribution();
        return Ok(dist.iter().skip(*n).sum());
    }
    // mixed event (size predicate under Boolean structure): enumerate
    Ok(table.worlds()?.space().prob_where(|d| event.contains(d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::fact::Fact;
    use infpdb_core::instance::Instance;
    use infpdb_core::schema::{RelId, Relation, Schema};
    use infpdb_core::value::Value;
    use infpdb_logic::parse;

    fn table(ps: &[f64]) -> TiTable {
        let s = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        TiTable::from_facts(
            s,
            ps.iter()
                .enumerate()
                .map(|(i, &p)| (Fact::new(RelId(0), [Value::int(i as i64)]), p)),
        )
        .unwrap()
    }

    #[test]
    fn brute_force_engine() {
        let t = table(&[0.5, 0.3]);
        let q = parse("exists x. R(x)", t.schema()).unwrap();
        let p = prob_boolean_brute(&q, &t).unwrap();
        assert!((p - (1.0 - 0.5 * 0.7)).abs() < 1e-12);
    }

    #[test]
    fn brute_force_evaluates_a_shadowed_quantifier_body_once() {
        use infpdb_logic::parser::MAX_NESTING;
        // four facts, 16 worlds: evaluating every one of 256 shadowed
        // levels per domain value would take 4^256 steps a world
        let t = table(&[0.5, 0.3, 0.9, 0.2]);
        for (level, shallow) in [
            ("exists x. ", "exists x. R(x)"),
            ("forall x. ", "forall x. R(x)"),
        ] {
            let deep = format!("{}{shallow}", level.repeat(MAX_NESTING - 1));
            let p = |text: &str| {
                prob_boolean_brute(&parse(text, t.schema()).unwrap(), &t)
                    .unwrap()
                    .to_bits()
            };
            assert_eq!(p(&deep), p(shallow), "{shallow}");
        }
    }

    #[test]
    fn single_fact_events() {
        let t = table(&[0.5, 0.3]);
        assert!((prob_event(&Event::fact(FactId(1)), &t).unwrap() - 0.3).abs() < 1e-12);
        assert!((prob_event(&Event::fact(FactId(1)).not(), &t).unwrap() - 0.7).abs() < 1e-12);
        // outside the table: impossible
        assert_eq!(prob_event(&Event::fact(FactId(9)), &t).unwrap(), 0.0);
    }

    #[test]
    fn e_f_event_is_inclusion_exclusion() {
        let t = table(&[0.5, 0.3, 0.2]);
        let e = Event::any_of([FactId(0), FactId(2)]);
        let expect = 1.0 - 0.5 * 0.8;
        assert!((prob_event(&e, &t).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn superset_event_is_product() {
        let t = table(&[0.5, 0.3, 0.2]);
        let e = Event::Superset(Instance::from_ids([FactId(0), FactId(1)]));
        assert!((prob_event(&e, &t).unwrap() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn exactly_event_is_instance_probability() {
        let t = table(&[0.5, 0.3, 0.2]);
        let d = Instance::from_ids([FactId(0), FactId(2)]);
        let e = Event::Exactly(d.clone());
        assert!((prob_event(&e, &t).unwrap() - t.instance_prob(&d)).abs() < 1e-12);
        // instance outside the support is impossible
        let out = Event::Exactly(Instance::from_ids([FactId(7)]));
        assert_eq!(prob_event(&out, &t).unwrap(), 0.0);
    }

    #[test]
    fn size_event_uses_poisson_binomial() {
        let t = table(&[0.5, 0.5]);
        assert!((prob_event(&Event::SizeAtLeast(1), &t).unwrap() - 0.75).abs() < 1e-12);
        assert!((prob_event(&Event::SizeAtLeast(2), &t).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(prob_event(&Event::SizeAtLeast(0), &t).unwrap(), 1.0);
        assert_eq!(prob_event(&Event::SizeAtLeast(3), &t).unwrap(), 0.0);
    }

    #[test]
    fn mixed_size_and_fact_event_falls_back_to_enumeration() {
        let t = table(&[0.5, 0.5]);
        let e = Event::fact(FactId(0)).and(Event::SizeAtLeast(2));
        // both facts present: 0.25
        assert!((prob_event(&e, &t).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arena_event_lineage_matches_tree_event_lineage() {
        let t = table(&[0.4, 0.6, 0.1, 1.0, 0.0]);
        let events = [
            Event::Always,
            Event::fact(FactId(0)),
            Event::fact(FactId(9)),
            Event::any_of([FactId(0), FactId(2)]),
            Event::Superset(Instance::from_ids([FactId(0), FactId(1)])),
            Event::Exactly(Instance::from_ids([FactId(0), FactId(2)])),
            Event::fact(FactId(0)).and(Event::fact(FactId(1)).not()),
            Event::fact(FactId(2)).or(Event::fact(FactId(3))),
        ];
        for e in events {
            let tree = event_lineage(&e, &t).unwrap();
            let mut arena = LineageArena::new();
            let id = event_lineage_arena(&e, &t, &mut arena).unwrap();
            assert_eq!(arena.to_lineage(id), tree, "{e:?}");
        }
        // SizeAtLeast has no Boolean-combination lineage in either form
        let mut arena = LineageArena::new();
        assert!(event_lineage_arena(&Event::SizeAtLeast(1), &t, &mut arena).is_none());
        assert!(event_lineage(&Event::SizeAtLeast(1), &t).is_none());
    }

    #[test]
    fn event_probabilities_match_brute_force() {
        let t = table(&[0.4, 0.6, 0.1]);
        let pdb = t.worlds().unwrap();
        let events = [
            Event::fact(FactId(0)),
            Event::any_of([FactId(0), FactId(1)]),
            Event::fact(FactId(0)).and(Event::fact(FactId(1)).not()),
            Event::Superset(Instance::from_ids([FactId(1), FactId(2)])),
            Event::fact(FactId(2)).or(Event::fact(FactId(0))),
        ];
        for e in events {
            let fast = prob_event(&e, &t).unwrap();
            let slow = pdb.prob_event(&e);
            assert!((fast - slow).abs() < 1e-12, "{e:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn deterministic_facts_fold_in_events() {
        let t = table(&[1.0, 0.0, 0.5]);
        assert_eq!(prob_event(&Event::fact(FactId(0)), &t).unwrap(), 1.0);
        assert_eq!(prob_event(&Event::fact(FactId(1)), &t).unwrap(), 0.0);
        let e = Event::any_of([FactId(1), FactId(2)]);
        assert!((prob_event(&e, &t).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tuple_independence_of_e_f_events() {
        // Definition 4.1 in the finite case: disjoint fact sets give
        // independent E_F events.
        let t = table(&[0.4, 0.6, 0.1, 0.9]);
        let e1 = Event::any_of([FactId(0), FactId(1)]);
        let e2 = Event::any_of([FactId(2), FactId(3)]);
        let p_joint = prob_event(&e1.clone().and(e2.clone()), &t).unwrap();
        let p1 = prob_event(&e1, &t).unwrap();
        let p2 = prob_event(&e2, &t).unwrap();
        assert!((p_joint - p1 * p2).abs() < 1e-12);
    }
}
