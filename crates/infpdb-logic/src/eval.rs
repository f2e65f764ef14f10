//! Active-domain evaluation of first-order formulas on finite instances.
//!
//! Quantifiers range over `adom(D) ∪ adom(φ)` — by Fact 2.1 of the paper
//! this is complete for queries with finite answers, and it is the standard
//! active-domain semantics of relational calculus. The evaluator optionally
//! takes *extra* domain elements: Proposition 6.1 evaluates queries
//! relativized to `Ω_n`, whose active domain `adom(Ω_n)` can exceed the
//! single instance's.

use crate::ast::{Formula, Term, Var};
use crate::vars::{constants, free_vars, occurs_free};
use crate::LogicError;
use infpdb_core::storage::InstanceStore;
use infpdb_core::value::Value;
use std::collections::BTreeSet;

/// An FO evaluator bound to one materialized instance.
#[derive(Debug)]
pub struct Evaluator<'a> {
    store: &'a InstanceStore,
    domain: Vec<Value>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator whose quantifier domain is
    /// `adom(D) ∪ adom(φ)` for the given formula.
    pub fn new(store: &'a InstanceStore, formula: &Formula) -> Self {
        Self::with_extra_domain(store, formula, std::iter::empty())
    }

    /// Creates an evaluator whose domain additionally includes `extra`
    /// (e.g. `adom(Ω_n)` in the truncation algorithm).
    pub fn with_extra_domain(
        store: &'a InstanceStore,
        formula: &Formula,
        extra: impl IntoIterator<Item = Value>,
    ) -> Self {
        let mut dom: BTreeSet<Value> = store.active_domain().clone();
        dom.extend(constants(formula));
        dom.extend(extra);
        Self {
            store,
            domain: dom.into_iter().collect(),
        }
    }

    /// The quantifier domain in use.
    pub fn domain(&self) -> &[Value] {
        &self.domain
    }

    /// Evaluates a sentence. Errors if the formula has free variables.
    pub fn eval_sentence(&self, f: &Formula) -> Result<bool, LogicError> {
        let fv = free_vars(f);
        if !fv.is_empty() {
            return Err(LogicError::NotASentence(fv.into_iter().collect()));
        }
        let mut env = Vec::new();
        Ok(self.eval(f, &mut env))
    }

    /// The answer relation `φ(D)`: all assignments of the free variables
    /// (in sorted variable order) making the formula true, drawn from the
    /// evaluator's domain (complete by Fact 2.1).
    pub fn answers(&self, f: &Formula) -> BTreeSet<Vec<Value>> {
        let fv: Vec<Var> = free_vars(f).into_iter().collect();
        let mut out = BTreeSet::new();
        let mut env: Vec<(Var, Value)> = Vec::with_capacity(fv.len());
        self.answers_rec(f, &fv, 0, &mut env, &mut out);
        out
    }

    fn answers_rec(
        &self,
        f: &Formula,
        fv: &[Var],
        i: usize,
        env: &mut Vec<(Var, Value)>,
        out: &mut BTreeSet<Vec<Value>>,
    ) {
        if i == fv.len() {
            if self.eval(f, env) {
                out.insert(env.iter().map(|(_, v)| v.clone()).collect());
            }
            return;
        }
        for v in &self.domain {
            env.push((fv[i].clone(), v.clone()));
            self.answers_rec(f, fv, i + 1, env, out);
            env.pop();
        }
    }

    fn resolve(&self, t: &Term, env: &[(Var, Value)]) -> Value {
        match t {
            Term::Const(c) => c.clone(),
            Term::Var(v) => env
                .iter()
                .rev()
                .find(|(name, _)| name == v)
                .map(|(_, val)| val.clone())
                .unwrap_or_else(|| panic!("unbound variable {v} during evaluation")),
        }
    }

    fn eval(&self, f: &Formula, env: &mut Vec<(Var, Value)>) -> bool {
        match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom { rel, args } => {
                let tuple: Vec<Value> = args.iter().map(|t| self.resolve(t, env)).collect();
                self.store.contains_tuple(*rel, &tuple)
            }
            Formula::Eq(a, b) => self.resolve(a, env) == self.resolve(b, env),
            Formula::Not(g) => !self.eval(g, env),
            Formula::And(gs) => gs.iter().all(|g| self.eval(g, env)),
            Formula::Or(gs) => gs.iter().any(|g| self.eval(g, env)),
            // a quantifier whose variable is not free in its body (say,
            // shadowed by an inner binder) evaluates the body once, not
            // once per domain value: nested vacuous quantifiers would
            // otherwise cost |domain|^depth
            Formula::Exists(v, g) if !occurs_free(v, g) => {
                !self.domain.is_empty() && self.eval(g, env)
            }
            Formula::Forall(v, g) if !occurs_free(v, g) => {
                self.domain.is_empty() || self.eval(g, env)
            }
            Formula::Exists(v, g) => self.domain.iter().any(|val| {
                env.push((v.clone(), val.clone()));
                let r = self.eval(g, env);
                env.pop();
                r
            }),
            Formula::Forall(v, g) => self.domain.iter().all(|val| {
                env.push((v.clone(), val.clone()));
                let r = self.eval(g, env);
                env.pop();
                r
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use infpdb_core::fact::Fact;
    use infpdb_core::schema::{Relation, Schema};

    fn setup() -> (Schema, InstanceStore) {
        let schema =
            Schema::from_relations([Relation::new("Edge", 2), Relation::new("Node", 1)]).unwrap();
        let e = schema.rel_id("Edge").unwrap();
        let n = schema.rel_id("Node").unwrap();
        let facts = [
            Fact::new(e, [Value::int(1), Value::int(2)]),
            Fact::new(e, [Value::int(2), Value::int(3)]),
            Fact::new(n, [Value::int(1)]),
            Fact::new(n, [Value::int(2)]),
            Fact::new(n, [Value::int(3)]),
        ];
        let store = InstanceStore::from_facts(facts.iter(), &schema);
        (schema, store)
    }

    fn holds(q: &str, schema: &Schema, store: &InstanceStore) -> bool {
        let f = parse(q, schema).unwrap();
        Evaluator::new(store, &f).eval_sentence(&f).unwrap()
    }

    #[test]
    fn ground_atoms() {
        let (s, st) = setup();
        assert!(holds("Edge(1, 2)", &s, &st));
        assert!(!holds("Edge(2, 1)", &s, &st));
    }

    #[test]
    fn existentials_and_conjunction() {
        let (s, st) = setup();
        assert!(holds("exists x. Edge(1, x)", &s, &st));
        assert!(holds("exists x, y, z. Edge(x, y) /\\ Edge(y, z)", &s, &st));
        assert!(!holds("exists x. Edge(x, x)", &s, &st));
    }

    #[test]
    fn universals() {
        let (s, st) = setup();
        // every node with an outgoing edge points at a node
        assert!(holds("forall x, y. (Edge(x, y) -> Node(y))", &s, &st));
        // not every node has an outgoing edge (3 doesn't)
        assert!(!holds(
            "forall x. (Node(x) -> exists y. Edge(x, y))",
            &s,
            &st
        ));
    }

    #[test]
    fn shadowed_quantifiers_evaluate_their_body_once() {
        use crate::parser::MAX_NESTING;
        let (s, st) = setup();
        // three nodes: evaluating every one of 256 shadowed levels per
        // domain value would take 3^256 steps
        for shallow in [
            "exists x. Node(x)",
            "exists x. Edge(x, x)",
            "forall x. Node(x)",
            "forall x. exists y. Edge(x, y)",
        ] {
            let (binder, body) = shallow.split_at(shallow.find(". ").unwrap() + 2);
            // as many shadowing binders as the parser accepts
            let levels = MAX_NESTING - shallow.matches(". ").count();
            let deep = format!("{}{binder}{body}", binder.repeat(levels));
            assert_eq!(holds(&deep, &s, &st), holds(shallow, &s, &st), "{deep}");
        }
        // over an empty domain a vacuous ∃ is false and a vacuous ∀ true
        let empty = InstanceStore::from_facts([].iter(), &s);
        let q = |text: &str| parse(text, &s).unwrap();
        let ev = |f: &Formula| Evaluator::new(&empty, f).eval_sentence(f).unwrap();
        assert!(!ev(&q("exists x. exists x. Node(x)")));
        assert!(ev(&q("forall x. forall x. Node(x)")));
        assert!(!ev(&q("exists y. forall x. Node(x)")));
        assert!(ev(&q("forall y. exists x. Node(x)")));
    }

    #[test]
    fn negation_and_equality() {
        let (s, st) = setup();
        assert!(holds(
            "exists x. Node(x) /\\ !(exists y. Edge(x, y))",
            &s,
            &st
        ));
        assert!(holds("exists x, y. Edge(x, y) /\\ x != y", &s, &st));
        assert!(!holds("exists x, y. Edge(x, y) /\\ x = y", &s, &st));
    }

    #[test]
    fn constants_extend_the_domain() {
        let (s, st) = setup();
        // 9 is not in adom(D) but appears in the formula; Fact 2.1 domain
        // includes it, and the query is (vacuously) satisfied on it.
        assert!(holds("exists x. x = 9", &s, &st));
        assert!(!holds("Node(9)", &s, &st));
    }

    #[test]
    fn extra_domain_elements_participate() {
        let (s, st) = setup();
        let f = parse("exists x. !Node(x)", &s).unwrap();
        // with only adom(D): all of 1,2,3 are nodes, so false
        assert!(!Evaluator::new(&st, &f).eval_sentence(&f).unwrap());
        // with an extra element 4: true
        let ev = Evaluator::with_extra_domain(&st, &f, [Value::int(4)]);
        assert!(ev.eval_sentence(&f).unwrap());
        assert_eq!(ev.domain().len(), 4);
    }

    #[test]
    fn eval_sentence_rejects_free_variables() {
        let (s, st) = setup();
        let f = parse("Edge(x, 2)", &s).unwrap();
        assert!(matches!(
            Evaluator::new(&st, &f).eval_sentence(&f),
            Err(LogicError::NotASentence(_))
        ));
    }

    #[test]
    fn answers_of_unary_query() {
        let (s, st) = setup();
        // nodes with an outgoing edge
        let f = parse("Node(x) /\\ exists y. Edge(x, y)", &s).unwrap();
        let ans = Evaluator::new(&st, &f).answers(&f);
        let vals: Vec<i64> = ans.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn answers_of_binary_query_in_sorted_var_order() {
        let (s, st) = setup();
        // free vars sorted: (x, y)
        let f = parse("Edge(x, y)", &s).unwrap();
        let ans = Evaluator::new(&st, &f).answers(&f);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&vec![Value::int(1), Value::int(2)]));
        assert!(ans.contains(&vec![Value::int(2), Value::int(3)]));
    }

    #[test]
    fn answers_of_sentence_is_nullary() {
        let (s, st) = setup();
        let t = parse("exists x. Node(x)", &s).unwrap();
        let ans = Evaluator::new(&st, &t).answers(&t);
        // Boolean true = {()}
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![]));
        let f = parse("exists x. Edge(x, x)", &s).unwrap();
        let ans = Evaluator::new(&st, &f).answers(&f);
        // Boolean false = ∅
        assert!(ans.is_empty());
    }

    #[test]
    fn empty_instance_semantics() {
        let (s, _) = setup();
        let store = InstanceStore::from_facts(std::iter::empty(), &s);
        let f = parse("exists x. Node(x)", &s).unwrap();
        assert!(!Evaluator::new(&store, &f).eval_sentence(&f).unwrap());
        // vacuous universal over empty domain
        let g = parse("forall x. Node(x)", &s).unwrap();
        assert!(Evaluator::new(&store, &g).eval_sentence(&g).unwrap());
    }

    #[test]
    fn variable_shadowing_resolves_innermost() {
        let (s, st) = setup();
        // inner x shadows outer x: exists x.(Node(x) /\ exists x. Edge(x, 3))
        assert!(holds(
            "exists x. (Node(x) /\\ exists x. Edge(x, 3))",
            &s,
            &st
        ));
    }
}
