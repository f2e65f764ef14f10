//! Boolean provenance (lineage) of first-order queries.
//!
//! Over a tuple-independent table, a Boolean query `Q` defines a Boolean
//! function of the independent fact variables: `Q` holds in a world iff the
//! lineage evaluates to true under that world's fact assignment. Query
//! probability is then the probability that this Boolean function is true —
//! the *intensional* approach of the standard finite-PDB toolkit the paper
//! builds on (\[37\]), solved exactly in [`crate::shannon`].
//!
//! Construction grounds the query over the active domain of the table's
//! possible facts plus the query's constants, the correct domain by
//! Fact 2.1: atoms over facts outside the table become `Bot` — the
//! closed-world assumption in action (and precisely what Section 5's
//! completions repair).

use crate::arena::{self, LineageArena, LineageId};
use crate::{FiniteError, TiTable};
use infpdb_core::fact::{Fact, FactId};
use infpdb_core::instance::Instance;
use infpdb_core::value::Value;
use infpdb_logic::ast::{Formula, Term, Var};
use infpdb_logic::compile::CompiledQuery;
use infpdb_logic::vars::{for_each_grounding, free_vars, occurs_free};
use std::cell::OnceCell;
use std::collections::BTreeSet;

/// The grounding domain `adom(table) ∪ adom(Q)` of Fact 2.1, built on
/// first use.
///
/// Only quantifiers, safe-plan projects and free-variable grounding
/// enumerate the domain, so a ground query never pays the O(n log n)
/// pass over the table's facts. The order is fixed: the table's active
/// domain ascending, then the query's constants outside it, ascending.
/// Every engine that grounds over the domain visits it in this order, so
/// laziness changes no result bit.
pub(crate) struct GroundingDomain<'a> {
    table: &'a TiTable,
    query: &'a Formula,
    values: OnceCell<Vec<Value>>,
}

impl<'a> GroundingDomain<'a> {
    /// The (not yet built) domain of `query` over `table`.
    pub(crate) fn new(table: &'a TiTable, query: &'a Formula) -> Self {
        Self {
            table,
            query,
            values: OnceCell::new(),
        }
    }

    /// The domain values, built on the first call.
    pub(crate) fn values(&self) -> &[Value] {
        self.values.get_or_init(|| {
            let mut values: Vec<Value> = self
                .table
                .iter()
                .flat_map(|(_, f, _)| f.args().iter().cloned())
                .collect();
            values.sort_unstable();
            values.dedup();
            let adom = values.len();
            for c in infpdb_logic::vars::constants(self.query) {
                if values[..adom].binary_search(&c).is_err() {
                    values.push(c);
                }
            }
            values
        })
    }

    /// Whether [`values`](Self::values) has been built.
    pub(crate) fn is_built(&self) -> bool {
        self.values.get().is_some()
    }
}

/// A Boolean function over fact variables, kept in a canonical form:
/// `And`/`Or` children are flattened, sorted, and deduplicated; constants
/// are folded away on construction via the smart constructors.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lineage {
    /// Constant true.
    Top,
    /// Constant false.
    Bot,
    /// The fact variable "f ∈ D".
    Var(FactId),
    /// Negation.
    Not(Box<Lineage>),
    /// Conjunction (children canonical, ≥ 2).
    And(Vec<Lineage>),
    /// Disjunction (children canonical, ≥ 2).
    Or(Vec<Lineage>),
}

impl Lineage {
    /// Canonical conjunction.
    pub fn and(children: impl IntoIterator<Item = Lineage>) -> Lineage {
        let mut out: Vec<Lineage> = Vec::new();
        for c in children {
            match c {
                Lineage::Bot => return Lineage::Bot,
                Lineage::Top => {}
                Lineage::And(gs) => out.extend(gs),
                g => out.push(g),
            }
        }
        out.sort();
        out.dedup();
        // x ∧ ¬x = ⊥
        if has_complementary_pair(&out) {
            return Lineage::Bot;
        }
        match out.len() {
            0 => Lineage::Top,
            1 => out.into_iter().next().expect("len 1"),
            _ => Lineage::And(out),
        }
    }

    /// Canonical disjunction.
    pub fn or(children: impl IntoIterator<Item = Lineage>) -> Lineage {
        let mut out: Vec<Lineage> = Vec::new();
        for c in children {
            match c {
                Lineage::Top => return Lineage::Top,
                Lineage::Bot => {}
                Lineage::Or(gs) => out.extend(gs),
                g => out.push(g),
            }
        }
        out.sort();
        out.dedup();
        if has_complementary_pair(&out) {
            return Lineage::Top;
        }
        match out.len() {
            0 => Lineage::Bot,
            1 => out.into_iter().next().expect("len 1"),
            _ => Lineage::Or(out),
        }
    }

    /// Canonical negation (double negations and constants folded).
    pub fn negate(self) -> Lineage {
        match self {
            Lineage::Top => Lineage::Bot,
            Lineage::Bot => Lineage::Top,
            Lineage::Not(inner) => *inner,
            other => Lineage::Not(Box::new(other)),
        }
    }

    /// The fact variables occurring in the lineage.
    pub fn vars(&self) -> BTreeSet<FactId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<FactId>) {
        match self {
            Lineage::Top | Lineage::Bot => {}
            Lineage::Var(id) => {
                out.insert(*id);
            }
            Lineage::Not(g) => g.collect_vars(out),
            Lineage::And(gs) | Lineage::Or(gs) => {
                for g in gs {
                    g.collect_vars(out);
                }
            }
        }
    }

    /// Evaluates the lineage in a world.
    pub fn eval(&self, world: &Instance) -> bool {
        match self {
            Lineage::Top => true,
            Lineage::Bot => false,
            Lineage::Var(id) => world.contains(*id),
            Lineage::Not(g) => !g.eval(world),
            Lineage::And(gs) => gs.iter().all(|g| g.eval(world)),
            Lineage::Or(gs) => gs.iter().any(|g| g.eval(world)),
        }
    }

    /// Conditions the lineage on `var = value` (Shannon cofactor),
    /// re-canonicalizing.
    pub fn assign(&self, var: FactId, value: bool) -> Lineage {
        match self {
            Lineage::Top => Lineage::Top,
            Lineage::Bot => Lineage::Bot,
            Lineage::Var(id) if *id == var => {
                if value {
                    Lineage::Top
                } else {
                    Lineage::Bot
                }
            }
            Lineage::Var(id) => Lineage::Var(*id),
            Lineage::Not(g) => g.assign(var, value).negate(),
            Lineage::And(gs) => Lineage::and(gs.iter().map(|g| g.assign(var, value))),
            Lineage::Or(gs) => Lineage::or(gs.iter().map(|g| g.assign(var, value))),
        }
    }

    /// Number of nodes (cost indicator).
    pub fn size(&self) -> usize {
        match self {
            Lineage::Top | Lineage::Bot | Lineage::Var(_) => 1,
            Lineage::Not(g) => 1 + g.size(),
            Lineage::And(gs) | Lineage::Or(gs) => 1 + gs.iter().map(Lineage::size).sum::<usize>(),
        }
    }
}

/// Detects `x` and `¬x` (or any `g` and `¬g`) among canonical siblings.
fn has_complementary_pair(children: &[Lineage]) -> bool {
    use std::collections::HashSet;
    let mut positives: HashSet<&Lineage> = HashSet::new();
    let mut negatives: HashSet<&Lineage> = HashSet::new();
    for c in children {
        match c {
            Lineage::Not(inner) => {
                negatives.insert(inner);
            }
            other => {
                positives.insert(other);
            }
        }
    }
    positives.iter().any(|p| negatives.contains(*p))
}

/// Computes the lineage of a Boolean FO query over a t.i. table.
///
/// Quantifiers range over the active domain of the table's possible facts
/// united with the query's constants (Fact 2.1); atoms naming facts outside
/// the table fold to `Bot` (closed world).
pub fn lineage_of(query: &Formula, table: &TiTable) -> Result<Lineage, FiniteError> {
    let fv = free_vars(query);
    if !fv.is_empty() {
        return Err(FiniteError::Logic(infpdb_logic::LogicError::NotASentence(
            fv.into_iter().collect(),
        )));
    }
    let domain = GroundingDomain::new(table, query);
    let mut env: Vec<(Var, Value)> = Vec::new();
    Ok(build(query, table, &domain, &mut env))
}

fn resolve(t: &Term, env: &[(Var, Value)]) -> Value {
    match t {
        Term::Const(c) => c.clone(),
        Term::Var(v) => env
            .iter()
            .rev()
            .find(|(name, _)| name == v)
            .map(|(_, val)| val.clone())
            .expect("sentence: every variable bound during grounding"),
    }
}

fn build(
    f: &Formula,
    table: &TiTable,
    domain: &GroundingDomain,
    env: &mut Vec<(Var, Value)>,
) -> Lineage {
    match f {
        Formula::True => Lineage::Top,
        Formula::False => Lineage::Bot,
        Formula::Atom { rel, args } => {
            let tuple: Vec<Value> = args.iter().map(|t| resolve(t, env)).collect();
            let fact = Fact::new(*rel, tuple);
            match table.fact_id(&fact) {
                Some(id) => {
                    // fold deterministic facts
                    let p = table.prob(id);
                    if p == 1.0 {
                        Lineage::Top
                    } else if p == 0.0 {
                        Lineage::Bot
                    } else {
                        Lineage::Var(id)
                    }
                }
                None => Lineage::Bot,
            }
        }
        Formula::Eq(a, b) => {
            if resolve(a, env) == resolve(b, env) {
                Lineage::Top
            } else {
                Lineage::Bot
            }
        }
        Formula::Not(g) => build(g, table, domain, env).negate(),
        Formula::And(gs) => Lineage::and(gs.iter().map(|g| build(g, table, domain, env))),
        Formula::Or(gs) => Lineage::or(gs.iter().map(|g| build(g, table, domain, env))),
        // a quantifier whose variable is not free in its body: every copy
        // of the body is the same lineage, so ground it once
        Formula::Exists(v, g) | Formula::Forall(v, g) if !occurs_free(v, g) => {
            match (domain.values().is_empty(), f) {
                (false, _) => build(g, table, domain, env),
                (true, Formula::Exists(..)) => Lineage::Bot,
                (true, _) => Lineage::Top,
            }
        }
        Formula::Exists(v, g) => {
            let values = domain.values();
            let mut children = Vec::with_capacity(values.len());
            for val in values {
                env.push((v.clone(), val.clone()));
                children.push(build(g, table, domain, env));
                env.pop();
            }
            Lineage::or(children)
        }
        Formula::Forall(v, g) => {
            let values = domain.values();
            let mut children = Vec::with_capacity(values.len());
            for val in values {
                env.push((v.clone(), val.clone()));
                children.push(build(g, table, domain, env));
                env.pop();
            }
            Lineage::and(children)
        }
    }
}

/// Computes the lineage of a Boolean FO query directly into a hash-consed
/// [`LineageArena`] — no intermediate boxed trees.
///
/// The semantics are exactly [`lineage_of`]'s (active-domain grounding per
/// Fact 2.1, closed-world `⊥` for unknown atoms, deterministic-fact
/// folding); the arena constructors apply the same canonicalization as the
/// tree smart constructors, so `arena.to_lineage(id)` of the result equals
/// the tree `lineage_of` would return. Grounding into the arena interns
/// each distinct sub-lineage once — on symmetric queries (pair clauses,
/// quantifier products) this shrinks materialized provenance from
/// tree-size to DAG-size.
pub fn lineage_of_arena(
    query: &Formula,
    table: &TiTable,
    arena: &mut LineageArena,
) -> Result<LineageId, FiniteError> {
    lineage_in(query, table, &GroundingDomain::new(table, query), arena)
}

/// [`lineage_of_arena`] for one component of a compiled query `Q`: the
/// component's quantifiers range over `adom(table) ∪ adom(Q)`, the
/// domain of the whole query (Fact 2.1), not only the component's own
/// constants. A domain-dependent component — `∃x ¬R(x)` beside `¬T(7)`
/// — thus sees `7` exactly as the undecomposed query does.
pub fn lineage_of_component(
    compiled: &CompiledQuery,
    index: usize,
    table: &TiTable,
    arena: &mut LineageArena,
) -> Result<LineageId, FiniteError> {
    let component = compiled.components()[index].formula();
    let domain = GroundingDomain::new(table, compiled.normalized());
    lineage_in(component, table, &domain, arena)
}

/// Grounds the sentence `query` into `arena`, every quantifier ranging
/// over `domain`.
pub(crate) fn lineage_in(
    query: &Formula,
    table: &TiTable,
    domain: &GroundingDomain,
    arena: &mut LineageArena,
) -> Result<LineageId, FiniteError> {
    let fv = free_vars(query);
    if !fv.is_empty() {
        return Err(FiniteError::Logic(infpdb_logic::LogicError::NotASentence(
            fv.into_iter().collect(),
        )));
    }
    let mut env: Vec<(Var, Value)> = Vec::new();
    Ok(build_arena(query, table, domain, &mut env, arena))
}

fn build_arena(
    f: &Formula,
    table: &TiTable,
    domain: &GroundingDomain,
    env: &mut Vec<(Var, Value)>,
    arena: &mut LineageArena,
) -> LineageId {
    match f {
        Formula::True => arena::TOP,
        Formula::False => arena::BOT,
        Formula::Atom { rel, args } => {
            let tuple: Vec<Value> = args.iter().map(|t| resolve(t, env)).collect();
            let fact = Fact::new(*rel, tuple);
            match table.fact_id(&fact) {
                Some(id) => {
                    // fold deterministic facts
                    let p = table.prob(id);
                    if p == 1.0 {
                        arena::TOP
                    } else if p == 0.0 {
                        arena::BOT
                    } else {
                        arena.var(id)
                    }
                }
                None => arena::BOT,
            }
        }
        Formula::Eq(a, b) => {
            if resolve(a, env) == resolve(b, env) {
                arena::TOP
            } else {
                arena::BOT
            }
        }
        Formula::Not(g) => {
            let id = build_arena(g, table, domain, env, arena);
            arena.negate(id)
        }
        Formula::And(gs) => {
            let ids: Vec<LineageId> = gs
                .iter()
                .map(|g| build_arena(g, table, domain, env, arena))
                .collect();
            arena.and(ids)
        }
        Formula::Or(gs) => {
            let ids: Vec<LineageId> = gs
                .iter()
                .map(|g| build_arena(g, table, domain, env, arena))
                .collect();
            arena.or(ids)
        }
        // as in `build`: the canonical `∧`/`∨` would fold the copies of
        // a body that does not mention the variable into one node
        Formula::Exists(v, g) | Formula::Forall(v, g) if !occurs_free(v, g) => {
            match (domain.values().is_empty(), f) {
                (false, _) => build_arena(g, table, domain, env, arena),
                (true, Formula::Exists(..)) => arena::BOT,
                (true, _) => arena::TOP,
            }
        }
        Formula::Exists(v, g) => {
            let values = domain.values();
            let mut children = Vec::with_capacity(values.len());
            for val in values {
                env.push((v.clone(), val.clone()));
                children.push(build_arena(g, table, domain, env, arena));
                env.pop();
            }
            arena.or(children)
        }
        Formula::Forall(v, g) => {
            let values = domain.values();
            let mut children = Vec::with_capacity(values.len());
            for val in values {
                env.push((v.clone(), val.clone()));
                children.push(build_arena(g, table, domain, env, arena));
                env.pop();
            }
            arena.and(children)
        }
    }
}

/// Per-answer lineage of a query with free variables: grounds the free
/// variables over `adom(table) ∪ adom(Q)` (Fact 2.1) and returns the
/// lineage of each ground sentence whose lineage is not `Bot`, keyed by
/// the tuple (sorted variable order). The probability of each answer is
/// then [`crate::shannon::probability`] of its lineage — this is the
/// provenance-aware form of `answer_marginals`.
pub fn answer_lineages(
    query: &Formula,
    table: &TiTable,
) -> Result<Vec<(Vec<Value>, Lineage)>, FiniteError> {
    let domain = GroundingDomain::new(table, query);
    let values = || domain.values();
    let mut out = Vec::new();
    for_each_grounding(query, values, |tuple, sentence| {
        let l = lineage_of(sentence, table)?;
        if l != Lineage::Bot {
            out.push((tuple.to_vec(), l));
        }
        Ok::<_, FiniteError>(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::{Relation, Schema};
    use infpdb_logic::parse;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1), Relation::new("S", 1)]).unwrap()
    }

    fn table(ps: &[(i64, f64)], qs: &[(i64, f64)]) -> TiTable {
        let s = schema();
        let r = s.rel_id("R").unwrap();
        let q = s.rel_id("S").unwrap();
        let mut t = TiTable::new(s);
        for &(n, p) in ps {
            t.add_fact(Fact::new(r, [Value::int(n)]), p).unwrap();
        }
        for &(n, p) in qs {
            t.add_fact(Fact::new(q, [Value::int(n)]), p).unwrap();
        }
        t
    }

    #[test]
    fn canonical_constructors_fold_constants() {
        assert_eq!(Lineage::and([Lineage::Top, Lineage::Top]), Lineage::Top);
        assert_eq!(
            Lineage::and([Lineage::Var(FactId(0)), Lineage::Bot]),
            Lineage::Bot
        );
        assert_eq!(Lineage::or([]), Lineage::Bot);
        assert_eq!(Lineage::and([]), Lineage::Top);
        assert_eq!(
            Lineage::or([Lineage::Var(FactId(1)), Lineage::Top]),
            Lineage::Top
        );
        // single child unwraps
        assert_eq!(
            Lineage::or([Lineage::Var(FactId(1))]),
            Lineage::Var(FactId(1))
        );
    }

    #[test]
    fn canonical_constructors_sort_flatten_dedup() {
        let a = Lineage::Var(FactId(2));
        let b = Lineage::Var(FactId(1));
        let f = Lineage::and([a.clone(), Lineage::and([b.clone(), a.clone()])]);
        assert_eq!(f, Lineage::And(vec![b, a]));
    }

    #[test]
    fn complementary_pairs_fold() {
        let x = Lineage::Var(FactId(0));
        assert_eq!(Lineage::and([x.clone(), x.clone().negate()]), Lineage::Bot);
        assert_eq!(Lineage::or([x.clone(), x.negate()]), Lineage::Top);
    }

    #[test]
    fn negate_folds() {
        assert_eq!(Lineage::Top.negate(), Lineage::Bot);
        let x = Lineage::Var(FactId(3));
        assert_eq!(x.clone().negate().negate(), x);
    }

    #[test]
    fn lineage_of_existential_is_disjunction_of_vars() {
        let t = table(&[(1, 0.5), (2, 0.5)], &[]);
        let q = parse("exists x. R(x)", t.schema()).unwrap();
        let l = lineage_of(&q, &t).unwrap();
        assert_eq!(
            l,
            Lineage::Or(vec![Lineage::Var(FactId(0)), Lineage::Var(FactId(1))])
        );
        assert_eq!(l.vars().len(), 2);
    }

    #[test]
    fn closed_world_atoms_fold_to_bot() {
        let t = table(&[(1, 0.5)], &[]);
        let q = parse("R(7)", t.schema()).unwrap();
        assert_eq!(lineage_of(&q, &t).unwrap(), Lineage::Bot);
        // constants extend the grounding domain but stay Bot
        let q2 = parse("exists x. R(x) /\\ S(x)", t.schema()).unwrap();
        assert_eq!(lineage_of(&q2, &t).unwrap(), Lineage::Bot);
    }

    #[test]
    fn deterministic_facts_fold() {
        let t = table(&[(1, 1.0), (2, 0.0), (3, 0.5)], &[]);
        let q = parse("R(1)", t.schema()).unwrap();
        assert_eq!(lineage_of(&q, &t).unwrap(), Lineage::Top);
        let q2 = parse("R(2)", t.schema()).unwrap();
        assert_eq!(lineage_of(&q2, &t).unwrap(), Lineage::Bot);
        let q3 = parse("forall x. R(x)", t.schema()).unwrap();
        // = R(1) ∧ R(2) ∧ R(3) = ⊤ ∧ ⊥ ∧ v = ⊥
        assert_eq!(lineage_of(&q3, &t).unwrap(), Lineage::Bot);
    }

    #[test]
    fn join_query_lineage() {
        let t = table(&[(1, 0.5), (2, 0.5)], &[(1, 0.5)]);
        let q = parse("exists x. R(x) /\\ S(x)", t.schema()).unwrap();
        let l = lineage_of(&q, &t).unwrap();
        // only x=1 yields a satisfiable conjunct: R(1) ∧ S(1)
        match &l {
            Lineage::And(cs) => assert_eq!(cs.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_atoms_fold() {
        let t = table(&[(1, 0.5)], &[]);
        let q = parse("exists x. x = 1 /\\ R(x)", t.schema()).unwrap();
        assert_eq!(lineage_of(&q, &t).unwrap(), Lineage::Var(FactId(0)));
    }

    #[test]
    fn shadowed_quantifiers_ground_their_body_once() {
        use infpdb_logic::parser::MAX_NESTING;
        // eight constants: grounding every one of 256 shadowed levels per
        // domain value would take 8^256 steps
        let facts: Vec<(i64, f64)> = (1..=8).map(|i| (i, 1.0 / (i as f64 + 1.0))).collect();
        let t = table(&facts, &[(3, 0.5)]);
        let probs = |id: FactId| t.prob(id);
        for (level, shallow) in [
            ("exists x. ", "exists x. R(x)"),
            ("forall x. ", "forall x. R(x) \\/ S(x)"),
            ("exists x. forall y. ", "exists x. R(x) /\\ S(x)"),
        ] {
            // the innermost binder and the body, behind as many shadowing
            // binders as the parser accepts
            let (binder, body) = shallow.split_at(shallow.find(". ").unwrap() + 2);
            let levels = MAX_NESTING / level.matches('.').count();
            let deep = format!("{}{binder}{body}", level.repeat(levels - 1));
            let (shallow, deep) = (
                parse(shallow, t.schema()).unwrap(),
                parse(&deep, t.schema()).unwrap(),
            );
            assert_eq!(
                lineage_of(&deep, &t).unwrap(),
                lineage_of(&shallow, &t).unwrap()
            );
            let (mut a, mut b) = (LineageArena::new(), LineageArena::new());
            let deep_root = lineage_of_arena(&deep, &t, &mut a).unwrap();
            let shallow_root = lineage_of_arena(&shallow, &t, &mut b).unwrap();
            assert_eq!(a.len(), b.len(), "{body}: arena node count");
            assert_eq!(
                crate::shannon::probability_dag(&mut a, deep_root, &probs).to_bits(),
                crate::shannon::probability_dag(&mut b, shallow_root, &probs).to_bits(),
                "{body}: estimate bits"
            );
        }
        // over an empty domain a vacuous ∃ is ⊥ and a vacuous ∀ is ⊤
        let empty = table(&[], &[]);
        let q = |text: &str| parse(text, empty.schema()).unwrap();
        assert_eq!(
            lineage_of(&q("exists x. exists x. R(x)"), &empty).unwrap(),
            Lineage::Bot
        );
        assert_eq!(
            lineage_of(&q("forall x. forall x. R(x)"), &empty).unwrap(),
            Lineage::Top
        );
        let mut a = LineageArena::new();
        assert_eq!(
            lineage_of_arena(&q("exists y. forall x. R(x)"), &empty, &mut a).unwrap(),
            arena::BOT
        );
        assert_eq!(
            lineage_of_arena(&q("forall y. exists x. R(x)"), &empty, &mut a).unwrap(),
            arena::TOP
        );
    }

    #[test]
    fn lineage_rejects_free_variables() {
        let t = table(&[(1, 0.5)], &[]);
        let q = parse("R(x)", t.schema()).unwrap();
        assert!(lineage_of(&q, &t).is_err());
    }

    #[test]
    fn lineage_eval_agrees_with_world_semantics() {
        let t = table(&[(1, 0.5), (2, 0.5)], &[(1, 0.5), (2, 0.5)]);
        let queries = [
            "exists x. R(x) /\\ S(x)",
            "forall x. (R(x) -> S(x))",
            "exists x. R(x) /\\ !S(x)",
            "(exists x. R(x)) /\\ (exists y. S(y))",
        ];
        let pdb = t.worlds().unwrap();
        for qs in queries {
            let q = parse(qs, t.schema()).unwrap();
            let l = lineage_of(&q, &t).unwrap();
            for (world, _) in pdb.space().outcomes() {
                let store =
                    infpdb_core::storage::InstanceStore::build(world, t.interner(), t.schema());
                let direct = infpdb_logic::Evaluator::new(&store, &q)
                    .eval_sentence(&q)
                    .unwrap();
                assert_eq!(
                    l.eval(world),
                    direct,
                    "lineage/world mismatch for {qs} on {world:?}"
                );
            }
        }
    }

    #[test]
    fn assign_cofactors() {
        let x = Lineage::Var(FactId(0));
        let y = Lineage::Var(FactId(1));
        let f = Lineage::or([Lineage::and([x.clone(), y.clone()]), x.clone().negate()]);
        assert_eq!(f.assign(FactId(0), true), y);
        assert_eq!(f.assign(FactId(0), false), Lineage::Top);
        assert_eq!(f.assign(FactId(7), true), f);
    }

    #[test]
    fn size_counts_nodes() {
        let x = Lineage::Var(FactId(0));
        let y = Lineage::Var(FactId(1));
        let f = Lineage::and([x.clone(), y.clone().negate()]);
        assert_eq!(f.size(), 4); // And + Var + Not + Var
        assert_eq!(Lineage::Top.size(), 1);
    }

    #[test]
    fn grounding_domain_includes_query_constants() {
        // Fact 2.1: constant 5 not in adom(table) still participates
        let t = table(&[(1, 0.5)], &[]);
        let q = parse("exists x. x = 5 /\\ !R(x)", t.schema()).unwrap();
        // R(5) is Bot, so !R(5) is Top, and x=5 picks that branch: Top
        assert_eq!(lineage_of(&q, &t).unwrap(), Lineage::Top);
    }

    #[test]
    fn arena_grounding_matches_tree_grounding() {
        let t = table(
            &[(1, 0.5), (2, 0.3), (3, 1.0), (4, 0.0)],
            &[(1, 0.8), (2, 0.1)],
        );
        for qs in [
            "exists x. R(x) /\\ S(x)",
            "forall x. (R(x) -> S(x))",
            "exists x, y. R(x) /\\ S(y) /\\ x != y",
            "exists x. R(x) \\/ S(x)",
            "exists x. x = 5 /\\ !R(x)",
            "exists x. !(R(x) /\\ !R(x))",
        ] {
            let q = parse(qs, t.schema()).unwrap();
            let tree = lineage_of(&q, &t).unwrap();
            let mut arena = LineageArena::new();
            let id = lineage_of_arena(&q, &t, &mut arena).unwrap();
            assert_eq!(arena.to_lineage(id), tree, "{qs}");
        }
    }

    #[test]
    fn arena_grounding_shares_symmetric_substructure() {
        // exists x,y. R(x) ∧ R(y) ∧ x≠y grounds to an Or over n·(n−1)
        // ordered pairs, but only C(n,2) distinct canonical pair-clauses —
        // the arena interns each once.
        let t = table(&[(1, 0.5), (2, 0.3), (3, 0.7), (4, 0.2)], &[]);
        let q = parse("exists x, y. R(x) /\\ R(y) /\\ x != y", t.schema()).unwrap();
        let mut arena = LineageArena::new();
        let id = lineage_of_arena(&q, &t, &mut arena).unwrap();
        // root Or + 6 pair-clauses + 4 vars + the 2 constants
        assert_eq!(arena.reachable(id), 11);
        assert!(arena.stats().intern_hits > 0, "symmetric pairs must dedup");
        // tree size is strictly larger: 12 ordered pairs materialized
        assert!(arena.to_lineage(id).size() > arena.reachable(id));
    }
}
