//! Materialization of a single instance for per-world query evaluation.
//!
//! The world evaluator (in `infpdb-logic`) asks "does relation `R`
//! contain the tuple `t`?" for every ground atom it meets.
//! [`InstanceStore`] answers that by materializing each relation's tuples
//! once and hashing them by their first argument, so a probe compares
//! only the rows that share it.

use crate::fact::FactId;
use crate::instance::Instance;
use crate::interner::FactInterner;
use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};

/// Tuples of one relation plus their first-argument index.
#[derive(Debug, Clone, Default)]
struct RelationStore {
    /// Row-major tuples.
    rows: Vec<Vec<Value>>,
    /// `by_first[v]` = row numbers whose first argument is `v` (empty
    /// for a zero-arity relation).
    by_first: HashMap<Value, Vec<usize>>,
}

/// An instance materialized for query evaluation.
#[derive(Debug, Clone)]
pub struct InstanceStore {
    relations: Vec<RelationStore>,
    active_domain: BTreeSet<Value>,
    size: usize,
}

impl InstanceStore {
    /// Materializes `instance` (resolving ids through `interner`) against
    /// `schema`.
    pub fn build(instance: &Instance, interner: &FactInterner, schema: &Schema) -> Self {
        let mut relations = vec![RelationStore::default(); schema.len()];
        let mut active_domain = BTreeSet::new();
        for id in instance.iter() {
            let fact = interner.resolve(id);
            let rel = &mut relations[fact.rel().0 as usize];
            if let Some(first) = fact.args().first() {
                let row_no = rel.rows.len();
                rel.by_first.entry(first.clone()).or_default().push(row_no);
            }
            active_domain.extend(fact.args().iter().cloned());
            rel.rows.push(fact.args().to_vec());
        }
        Self {
            relations,
            active_domain,
            size: instance.size(),
        }
    }

    /// Builds directly from ground facts (no interner needed).
    pub fn from_facts<'a>(
        facts: impl IntoIterator<Item = &'a crate::fact::Fact>,
        schema: &Schema,
    ) -> Self {
        let mut interner = FactInterner::new();
        let ids: Vec<FactId> = facts
            .into_iter()
            .map(|f| interner.intern(f.clone()))
            .collect();
        let instance = Instance::from_ids(ids);
        Self::build(&instance, &interner, schema)
    }

    /// All tuples of a relation.
    pub fn rows(&self, rel: RelId) -> &[Vec<Value>] {
        &self.relations[rel.0 as usize].rows
    }

    /// Whether `rel` contains exactly the tuple `args`.
    pub fn contains_tuple(&self, rel: RelId, args: &[Value]) -> bool {
        let store = &self.relations[rel.0 as usize];
        let Some(first) = args.first() else {
            return !store.rows.is_empty();
        };
        store
            .by_first
            .get(first)
            .is_some_and(|rows| rows.iter().any(|&r| store.rows[r] == args))
    }

    /// The active domain of the instance.
    pub fn active_domain(&self) -> &BTreeSet<Value> {
        &self.active_domain
    }

    /// Number of facts in the instance.
    pub fn size(&self) -> usize {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;
    use crate::schema::Relation;

    fn setup() -> (Schema, FactInterner, Instance) {
        let schema =
            Schema::from_relations([Relation::new("R", 2), Relation::new("S", 1)]).unwrap();
        let r = schema.rel_id("R").unwrap();
        let s = schema.rel_id("S").unwrap();
        let mut interner = FactInterner::new();
        let ids = vec![
            interner.intern(Fact::new(r, [Value::int(1), Value::int(2)])),
            interner.intern(Fact::new(r, [Value::int(1), Value::int(3)])),
            interner.intern(Fact::new(r, [Value::int(2), Value::int(3)])),
            interner.intern(Fact::new(s, [Value::int(3)])),
        ];
        (schema, interner, Instance::from_ids(ids))
    }

    #[test]
    fn rows_materialized_per_relation() {
        let (schema, interner, inst) = setup();
        let store = InstanceStore::build(&inst, &interner, &schema);
        assert_eq!(store.rows(schema.rel_id("R").unwrap()).len(), 3);
        assert_eq!(store.rows(schema.rel_id("S").unwrap()).len(), 1);
        assert_eq!(store.size(), 4);
    }

    #[test]
    fn contains_tuple_checks_exact_match() {
        let (schema, interner, inst) = setup();
        let store = InstanceStore::build(&inst, &interner, &schema);
        let r = schema.rel_id("R").unwrap();
        assert!(store.contains_tuple(r, &[Value::int(1), Value::int(2)]));
        assert!(!store.contains_tuple(r, &[Value::int(2), Value::int(1)]));
        let s = schema.rel_id("S").unwrap();
        assert!(store.contains_tuple(s, &[Value::int(3)]));
        assert!(!store.contains_tuple(s, &[Value::int(1)]));
    }

    #[test]
    fn active_domain_is_all_arguments() {
        let (schema, interner, inst) = setup();
        let store = InstanceStore::build(&inst, &interner, &schema);
        let dom: Vec<i64> = store
            .active_domain()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(dom, vec![1, 2, 3]);
    }

    #[test]
    fn from_facts_shortcut() {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        let r = schema.rel_id("R").unwrap();
        let facts = [Fact::new(r, [Value::int(1)]), Fact::new(r, [Value::int(2)])];
        let store = InstanceStore::from_facts(facts.iter(), &schema);
        assert_eq!(store.rows(r).len(), 2);
    }

    #[test]
    fn empty_instance_store() {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        let interner = FactInterner::new();
        let store = InstanceStore::build(&Instance::empty(), &interner, &schema);
        assert_eq!(store.rows(schema.rel_id("R").unwrap()).len(), 0);
        assert!(store.active_domain().is_empty());
        assert!(!store.contains_tuple(schema.rel_id("R").unwrap(), &[Value::int(1)]));
    }

    #[test]
    fn zero_arity_relation() {
        let schema = Schema::from_relations([Relation::new("P", 0)]).unwrap();
        let p = schema.rel_id("P").unwrap();
        let facts = [Fact::new(p, [])];
        let store = InstanceStore::from_facts(facts.iter(), &schema);
        assert!(store.contains_tuple(p, &[]));
        let empty = InstanceStore::from_facts(std::iter::empty(), &schema);
        assert!(!empty.contains_tuple(p, &[]));
    }
}
