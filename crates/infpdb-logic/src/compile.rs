//! Query compilation: the prepare-once artifact of the prepared-query
//! pipeline.
//!
//! Proposition 6.1 splits evaluation into work that depends only on the
//! query (parsing, normalization, safety analysis, ranking) and work that
//! depends on the PDB and the tolerance (truncation, grounding,
//! inference). [`CompiledQuery`] captures the query-only half so a serving
//! layer can do it once per distinct query and replay it across requests:
//!
//! * the **normal form** `nnf(rectify(Q))` used by downstream analyses,
//! * a stable **fingerprint** of that normal form with bound variables
//!   hashed as de Bruijn indices, so α-equivalent queries
//!   (`∃x. R(x)` vs `∃y. R(y)`) and double negations share an identity —
//!   this is the plan-cache key `infpdb-serve` uses,
//! * the **rank profile** (`r` and `s` of Proposition 6.1's `O(n + r + s)`
//!   bound, plus node/atom counts for cost estimates), and
//! * the relation-disjoint **components**, each with its extensional
//!   safe plan when it is a hierarchical self-join-free CQ on its own
//!   (`None` otherwise — the lineage engine handles it).
//!
//! Compilation is total: every well-formed formula compiles; safety is
//! recorded, not required.

use crate::ast::{Formula, Term};
use crate::normal::{as_cq, rectify, to_nnf};
use crate::safety::{safe_plan, SafePlan};
use crate::LogicError;
use infpdb_core::fingerprint::Fingerprinter;
use infpdb_core::schema::{RelId, Schema};

/// The query-shape statistics of a compiled query: the parameters of
/// Proposition 6.1's relativization bound plus size counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryProfile {
    /// Quantifier rank `r` (maximum quantifier nesting depth).
    pub quantifier_rank: usize,
    /// Number of distinct constants `s`.
    pub constants: usize,
    /// Number of relational atoms.
    pub atoms: usize,
    /// Number of AST nodes.
    pub nodes: usize,
}

/// How the [`QueryComponent`]s of a compiled query combine back into the
/// whole query's probability on a tuple-independent table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connective {
    /// One component that *is* the whole (normalized) query.
    Single,
    /// `P(Q) = ∏ P(φᵢ)` — the components are a top-level conjunction.
    And,
    /// `P(Q) = 1 − ∏ (1 − P(φᵢ))` — a top-level disjunction.
    Or,
}

/// One relation-disjoint subformula of the normalized query, carrying its
/// own safety/shape analysis so a planner can pick a strategy per
/// component.
///
/// Components partition the top-level `And`/`Or` children of the
/// normalized sentence by shared relation symbols. Two components never
/// mention a common relation, so on a tuple-independent table their
/// lineages are over disjoint fact variables and their probabilities are
/// independent — the [`Connective`] combination rules are exact.
#[derive(Debug, Clone)]
pub struct QueryComponent {
    formula: Formula,
    profile: QueryProfile,
    safe_plan: Option<SafePlan>,
    monotone: bool,
}

impl QueryComponent {
    fn analyze(formula: Formula) -> Self {
        let profile = QueryProfile {
            quantifier_rank: crate::rank::quantifier_rank(&formula),
            constants: crate::rank::constant_count(&formula),
            atoms: crate::rank::atom_count(&formula),
            nodes: crate::rank::node_count(&formula),
        };
        let safe_plan = as_cq(&formula).ok().and_then(|cq| safe_plan(&cq).ok());
        let monotone = is_monotone_nnf(&formula);
        QueryComponent {
            formula,
            profile,
            safe_plan,
            monotone,
        }
    }

    /// The component's (normalized, NNF) subformula — a sentence whenever
    /// the compiled query is one.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The component's own rank profile.
    pub fn profile(&self) -> QueryProfile {
        self.profile
    }

    /// The component's extensional safe plan, when it is a hierarchical
    /// self-join-free CQ on its own.
    pub fn safe_plan(&self) -> Option<&SafePlan> {
        self.safe_plan.as_ref()
    }

    /// Whether this component has an extensional safe plan.
    pub fn is_safe(&self) -> bool {
        self.safe_plan.is_some()
    }

    /// Whether the component is syntactically monotone (no negation, no
    /// universal quantifier in its NNF) — a sufficient condition for its
    /// lineage to be a monotone DNF, the fragment Karp–Luby handles.
    pub fn is_monotone(&self) -> bool {
        self.monotone
    }
}

/// A query compiled once: normal form, fingerprint, rank profile, and
/// the relation-disjoint components every evaluation plans and runs.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    normalized: Formula,
    fingerprint: u64,
    profile: QueryProfile,
    connective: Connective,
    components: Vec<QueryComponent>,
}

impl CompiledQuery {
    /// Compiles a formula: rectify → NNF → fingerprint → rank profile →
    /// decomposition, with the safety analysis per component. Never
    /// fails; unsafe or non-CQ components simply get no [`SafePlan`].
    pub fn compile(schema: &Schema, query: &Formula) -> Self {
        let normalized = to_nnf(&rectify(query));
        let fingerprint = fingerprint_normalized(schema, &normalized);
        let profile = QueryProfile {
            quantifier_rank: crate::rank::quantifier_rank(query),
            constants: crate::rank::constant_count(query),
            atoms: crate::rank::atom_count(query),
            nodes: crate::rank::node_count(query),
        };
        let (connective, components) = decompose(&normalized);
        CompiledQuery {
            normalized,
            fingerprint,
            profile,
            connective,
            components,
        }
    }

    /// Parses and compiles query text in one step.
    pub fn compile_text(schema: &Schema, text: &str) -> Result<Self, LogicError> {
        Ok(Self::compile(schema, &crate::parse(text, schema)?))
    }

    /// The rectified negation normal form.
    pub fn normalized(&self) -> &Formula {
        &self.normalized
    }

    /// The α-invariant structural fingerprint (the plan-cache key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The rank profile.
    pub fn profile(&self) -> QueryProfile {
        self.profile
    }

    /// How [`components`](Self::components) combine back into `P(Q)`.
    pub fn connective(&self) -> Connective {
        self.connective
    }

    /// The relation-disjoint components of the normalized query, in
    /// first-appearance order of their relations. Always non-empty; a
    /// query that does not decompose is its own single component.
    pub fn components(&self) -> &[QueryComponent] {
        &self.components
    }
}

/// Splits the normalized sentence into relation-disjoint components.
///
/// Only a top-level `And`/`Or` decomposes: its children are grouped by
/// shared relation symbols (transitively), each group becoming one
/// component under the same connective. Groups are emitted in the order
/// their first child appears, children keep their original order, so the
/// decomposition is deterministic and α-invariant.
fn decompose(normalized: &Formula) -> (Connective, Vec<QueryComponent>) {
    let (connective, children): (Connective, &[Formula]) = match normalized {
        Formula::And(gs) if gs.len() >= 2 => (Connective::And, gs),
        Formula::Or(gs) if gs.len() >= 2 => (Connective::Or, gs),
        _ => {
            return (
                Connective::Single,
                vec![QueryComponent::analyze(normalized.clone())],
            )
        }
    };
    // union-find over child indexes, keyed by shared relation symbols
    let rels: Vec<Vec<RelId>> = children.iter().map(relations).collect();
    let mut parent: Vec<usize> = (0..children.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut r = i;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = i;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    let mut owner: std::collections::HashMap<RelId, usize> = std::collections::HashMap::new();
    for (i, rs) in rels.iter().enumerate() {
        for &r in rs {
            match owner.get(&r) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        // union toward the smaller root: groups keep the
                        // index of their earliest member
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        parent[hi] = lo;
                    }
                }
                None => {
                    owner.insert(r, i);
                }
            }
        }
    }
    let mut groups: Vec<(usize, Vec<Formula>)> = Vec::new();
    for (i, child) in children.iter().enumerate() {
        let root = find(&mut parent, i);
        match groups.iter_mut().find(|(r, _)| *r == root) {
            Some((_, members)) => members.push(child.clone()),
            None => groups.push((root, vec![child.clone()])),
        }
    }
    if groups.len() < 2 {
        return (
            Connective::Single,
            vec![QueryComponent::analyze(normalized.clone())],
        );
    }
    let components = groups
        .into_iter()
        .map(|(_, mut members)| {
            let f = if members.len() == 1 {
                members.pop().expect("non-empty group")
            } else if connective == Connective::And {
                Formula::And(members)
            } else {
                Formula::Or(members)
            };
            QueryComponent::analyze(f)
        })
        .collect();
    (connective, components)
}

/// Relation symbols of a formula, in first-appearance order.
fn relations(f: &Formula) -> Vec<RelId> {
    fn walk(f: &Formula, out: &mut Vec<RelId>) {
        match f {
            Formula::Atom { rel, .. } => {
                if !out.contains(rel) {
                    out.push(*rel);
                }
            }
            Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => walk(g, out),
            Formula::And(gs) | Formula::Or(gs) => gs.iter().for_each(|g| walk(g, out)),
            Formula::True | Formula::False | Formula::Eq(..) => {}
        }
    }
    let mut out = Vec::new();
    walk(f, &mut out);
    out
}

/// Syntactic monotonicity of an NNF formula: no `Not`, no `Forall`.
fn is_monotone_nnf(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(..) => true,
        Formula::Not(_) | Formula::Forall(..) => false,
        Formula::Exists(_, g) => is_monotone_nnf(g),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().all(is_monotone_nnf),
    }
}

/// Fingerprint of a query modulo normalization.
///
/// Rectification plus NNF is the normal form [`crate::normal`] provides;
/// hashing bound variables as de Bruijn indices on top makes the digest
/// independent of the names rectification happened to pick, so
/// α-equivalent queries share a fingerprint while genuinely different
/// queries do not. Atoms hash by relation *name* (schema-declaration
/// order does not matter).
pub fn query_fingerprint(schema: &Schema, query: &Formula) -> u64 {
    fingerprint_normalized(schema, &to_nnf(&rectify(query)))
}

fn fingerprint_normalized(schema: &Schema, normalized: &Formula) -> u64 {
    let mut fp = Fingerprinter::new();
    let mut binders: Vec<String> = Vec::new();
    hash_formula(&mut fp, schema, normalized, &mut binders);
    fp.finish()
}

fn hash_term(fp: &mut Fingerprinter, t: &Term, binders: &[String]) {
    match t {
        Term::Var(v) => {
            // innermost binder first: de Bruijn index
            match binders.iter().rev().position(|b| b == v) {
                Some(i) => fp.write_u64(1).write_u64(i as u64),
                // free variable: identity is its name
                None => fp.write_u64(2).write_bytes(v.as_bytes()),
            };
        }
        Term::Const(v) => {
            fp.write_u64(3).write_value(v);
        }
    }
}

fn hash_formula(fp: &mut Fingerprinter, schema: &Schema, f: &Formula, binders: &mut Vec<String>) {
    match f {
        Formula::True => {
            fp.write_u64(10);
        }
        Formula::False => {
            fp.write_u64(11);
        }
        Formula::Atom { rel, args } => {
            fp.write_u64(12);
            let name = schema.get(*rel).map(|r| r.name()).unwrap_or("?");
            fp.write_bytes(name.as_bytes());
            fp.write_u64(args.len() as u64);
            for a in args {
                hash_term(fp, a, binders);
            }
        }
        Formula::Eq(a, b) => {
            fp.write_u64(13);
            hash_term(fp, a, binders);
            hash_term(fp, b, binders);
        }
        Formula::Not(g) => {
            fp.write_u64(14);
            hash_formula(fp, schema, g, binders);
        }
        Formula::And(gs) => {
            fp.write_u64(15).write_u64(gs.len() as u64);
            for g in gs {
                hash_formula(fp, schema, g, binders);
            }
        }
        Formula::Or(gs) => {
            fp.write_u64(16).write_u64(gs.len() as u64);
            for g in gs {
                hash_formula(fp, schema, g, binders);
            }
        }
        Formula::Exists(v, g) => {
            fp.write_u64(17);
            binders.push(v.clone());
            hash_formula(fp, schema, g, binders);
            binders.pop();
        }
        Formula::Forall(v, g) => {
            fp.write_u64(18);
            binders.push(v.clone());
            hash_formula(fp, schema, g, binders);
            binders.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use infpdb_core::schema::Relation;

    fn schema() -> Schema {
        Schema::from_relations([Relation::new("R", 1), Relation::new("S", 2)]).unwrap()
    }

    fn compile(q: &str) -> CompiledQuery {
        let s = schema();
        CompiledQuery::compile(&s, &parse(q, &s).unwrap())
    }

    #[test]
    fn compile_preserves_the_original_formula() {
        let s = schema();
        let q = parse("!(!R(1))", &s).unwrap();
        let cq = CompiledQuery::compile(&s, &q);
        // the normal form collapses the double negation
        assert_eq!(cq.normalized(), &parse("R(1)", &s).unwrap());
    }

    #[test]
    fn alpha_equivalent_queries_compile_to_equal_fingerprints() {
        assert_eq!(
            compile("exists x. R(x)").fingerprint(),
            compile("exists y. R(y)").fingerprint()
        );
        assert_eq!(
            compile("exists x. exists y. S(x, y)").fingerprint(),
            compile("exists a. exists b. S(a, b)").fingerprint()
        );
        // swapped roles are NOT α-equivalent
        assert_ne!(
            compile("exists x. exists y. S(x, y)").fingerprint(),
            compile("exists x. exists y. S(y, x)").fingerprint()
        );
        // distinct queries stay distinct
        assert_ne!(compile("R(1)").fingerprint(), compile("R(2)").fingerprint());
    }

    #[test]
    fn profile_reports_prop_6_1_parameters() {
        let cq = compile("exists x. exists y. S(x, y) /\\ R(1)");
        let p = cq.profile();
        assert_eq!(p.quantifier_rank, 2);
        assert_eq!(p.constants, 1);
        assert_eq!(p.atoms, 2);
        assert!(p.nodes >= 4);
    }

    #[test]
    fn safe_plan_recorded_for_hierarchical_cqs_only() {
        let first = |q: &str| compile(q).components()[0].clone();
        assert!(first("exists x. R(x)").is_safe());
        assert!(first("exists x. exists y. S(x, y)").is_safe());
        // a self-join is not safe-plannable
        let unsafe_q = first("exists x. exists y. R(x) /\\ R(y)");
        assert!(unsafe_q.safe_plan().is_none());
        // non-CQ shapes compile fine without a plan
        assert!(!first("forall x. R(x)").is_safe());
    }

    #[test]
    fn relation_disjoint_conjuncts_decompose() {
        let s = Schema::from_relations([
            Relation::new("R", 1),
            Relation::new("S", 2),
            Relation::new("T", 1),
        ])
        .unwrap();
        let c = |q: &str| CompiledQuery::compile(&s, &parse(q, &s).unwrap());
        // R-part and T-part share no relation: two components
        let cq = c("(exists x. R(x)) /\\ (exists y. T(y))");
        assert_eq!(cq.connective(), Connective::And);
        assert_eq!(cq.components().len(), 2);
        assert!(cq.components().iter().all(|k| k.is_safe()));
        assert!(cq.components().iter().all(|k| k.is_monotone()));
        // shared relation R joins the first and third conjunct
        let cq2 = c("(exists x. R(x) /\\ S(x, x)) /\\ (exists y. T(y)) /\\ R(1)");
        assert_eq!(cq2.components().len(), 2);
        // disjunction decomposes the same way
        let cq3 = c("(exists x. R(x)) \\/ (exists y. T(y))");
        assert_eq!(cq3.connective(), Connective::Or);
        assert_eq!(cq3.components().len(), 2);
        // no top-level And/Or: single component equal to the normal form
        let cq4 = c("exists x. R(x) /\\ T(x)");
        assert_eq!(cq4.connective(), Connective::Single);
        assert_eq!(cq4.components().len(), 1);
        assert_eq!(cq4.components()[0].formula(), cq4.normalized());
        // negation kills monotonicity but not decomposition
        let cq5 = c("(!R(1)) /\\ (exists y. T(y))");
        assert_eq!(cq5.components().len(), 2);
        assert!(!cq5.components()[0].is_monotone());
        assert!(cq5.components()[1].is_monotone());
    }

    #[test]
    fn decomposition_is_alpha_invariant() {
        let s = Schema::from_relations([Relation::new("R", 1), Relation::new("T", 1)]).unwrap();
        let c = |q: &str| CompiledQuery::compile(&s, &parse(q, &s).unwrap());
        let a = c("(exists x. R(x)) /\\ (exists y. T(y))");
        let b = c("(exists u. R(u)) /\\ (exists v. T(v))");
        assert_eq!(a.components().len(), b.components().len());
        for (ka, kb) in a.components().iter().zip(b.components()) {
            assert_eq!(ka.profile(), kb.profile());
            assert_eq!(ka.is_safe(), kb.is_safe());
            assert_eq!(ka.is_monotone(), kb.is_monotone());
        }
    }

    #[test]
    fn compile_text_round_trip_and_errors() {
        let s = schema();
        let cq = CompiledQuery::compile_text(&s, "exists x. R(x)").unwrap();
        assert_eq!(cq.fingerprint(), compile("exists x. R(x)").fingerprint());
        assert!(CompiledQuery::compile_text(&s, "exists x. R(x").is_err());
    }
}
