//! Materialization of a single instance for per-world query evaluation.
//!
//! The world evaluator (in `infpdb-logic`) asks "does relation `R`
//! contain the tuple `t`?" for every ground atom it meets.
//! [`InstanceStore`] answers that with one probe of the relation's set
//! of tuples.

use crate::fact::FactId;
use crate::instance::Instance;
use crate::interner::FactInterner;
use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::collections::{BTreeSet, HashSet};

/// An instance materialized for query evaluation.
#[derive(Debug, Clone)]
pub struct InstanceStore {
    /// The tuples of each relation, indexed by [`RelId`].
    relations: Vec<HashSet<Vec<Value>>>,
    active_domain: BTreeSet<Value>,
}

impl InstanceStore {
    /// Materializes `instance` (resolving ids through `interner`) against
    /// `schema`.
    pub fn build(instance: &Instance, interner: &FactInterner, schema: &Schema) -> Self {
        let mut relations = vec![HashSet::new(); schema.len()];
        let mut active_domain = BTreeSet::new();
        for id in instance.iter() {
            let fact = interner.resolve(id);
            active_domain.extend(fact.args().iter().cloned());
            relations[fact.rel().0 as usize].insert(fact.args().to_vec());
        }
        Self {
            relations,
            active_domain,
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

    /// Whether `rel` contains exactly the tuple `args`.
    pub fn contains_tuple(&self, rel: RelId, args: &[Value]) -> bool {
        self.relations[rel.0 as usize].contains(args)
    }

    /// The active domain of the instance.
    pub fn active_domain(&self) -> &BTreeSet<Value> {
        &self.active_domain
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
        let (r, s) = (schema.rel_id("R").unwrap(), schema.rel_id("S").unwrap());
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            assert!(store.contains_tuple(r, &[Value::int(a), Value::int(b)]));
        }
        assert!(store.contains_tuple(s, &[Value::int(3)]));
        // each relation holds only its own tuples
        assert!(!store.contains_tuple(s, &[Value::int(1)]));
        assert!(!store.contains_tuple(r, &[Value::int(3)]));
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
        assert!(store.contains_tuple(r, &[Value::int(1)]));
        assert!(store.contains_tuple(r, &[Value::int(2)]));
        assert!(!store.contains_tuple(r, &[Value::int(3)]));
    }

    #[test]
    fn empty_instance_store() {
        let schema = Schema::from_relations([Relation::new("R", 1)]).unwrap();
        let interner = FactInterner::new();
        let store = InstanceStore::build(&Instance::empty(), &interner, &schema);
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
