//! Free variables, constants, and substitution.
//!
//! `adom(φ)` — the constants occurring in a formula — appears in Fact 2.1:
//! answers of an FO query on instance `D` are contained in
//! `(adom(D) ∪ adom(φ))^k`. Grounding free variables by constants
//! ([`substitute`]) is how Proposition 6.1 lifts Boolean evaluation to
//! queries with free variables: `Q(~a)` for all `~a ∈ adom(Ω_n)^k`, the
//! tuples [`for_each_grounding`] enumerates.

use crate::ast::{Formula, Term, Var};
use infpdb_core::value::Value;
use std::collections::BTreeSet;

/// The free variables of a formula, sorted.
pub fn free_vars(f: &Formula) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    collect_free(f, &mut BTreeSet::new(), &mut out);
    out
}

fn collect_free(f: &Formula, bound: &mut BTreeSet<Var>, out: &mut BTreeSet<Var>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Atom { args, .. } => {
            for t in args {
                if let Term::Var(v) = t {
                    if !bound.contains(v) {
                        out.insert(v.clone());
                    }
                }
            }
        }
        Formula::Eq(a, b) => {
            for t in [a, b] {
                if let Term::Var(v) = t {
                    if !bound.contains(v) {
                        out.insert(v.clone());
                    }
                }
            }
        }
        Formula::Not(g) => collect_free(g, bound, out),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                collect_free(g, bound, out);
            }
        }
        Formula::Exists(v, g) | Formula::Forall(v, g) => {
            let newly = bound.insert(v.clone());
            collect_free(g, bound, out);
            if newly {
                bound.remove(v);
            }
        }
    }
}

/// Whether `var` occurs free in `f`. Unlike [`free_vars`] this allocates
/// nothing and stops where a quantifier rebinds `var`.
pub fn occurs_free(var: &str, f: &Formula) -> bool {
    let is_var = |t: &Term| matches!(t, Term::Var(v) if v == var);
    match f {
        Formula::True | Formula::False => false,
        Formula::Atom { args, .. } => args.iter().any(is_var),
        Formula::Eq(a, b) => is_var(a) || is_var(b),
        Formula::Not(g) => occurs_free(var, g),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().any(|g| occurs_free(var, g)),
        Formula::Exists(v, g) | Formula::Forall(v, g) => v != var && occurs_free(var, g),
    }
}

/// Whether the formula is a sentence (no free variables) — the Boolean
/// queries of Section 6.
pub fn is_sentence(f: &Formula) -> bool {
    free_vars(f).is_empty()
}

/// The constants `adom(φ)` occurring in the formula, sorted.
pub fn constants(f: &Formula) -> BTreeSet<Value> {
    let mut out = BTreeSet::new();
    collect_constants(f, &mut out);
    out
}

fn collect_constants(f: &Formula, out: &mut BTreeSet<Value>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Atom { args, .. } => {
            for t in args {
                if let Term::Const(c) = t {
                    out.insert(c.clone());
                }
            }
        }
        Formula::Eq(a, b) => {
            for t in [a, b] {
                if let Term::Const(c) = t {
                    out.insert(c.clone());
                }
            }
        }
        Formula::Not(g) => collect_constants(g, out),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                collect_constants(g, out);
            }
        }
        Formula::Exists(_, g) | Formula::Forall(_, g) => collect_constants(g, out),
    }
}

/// Substitutes the constant `value` for every *free* occurrence of `var`.
pub fn substitute(f: &Formula, var: &str, value: &Value) -> Formula {
    let subst_term = |t: &Term| -> Term {
        match t {
            Term::Var(v) if v == var => Term::Const(value.clone()),
            other => other.clone(),
        }
    };
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom { rel, args } => Formula::Atom {
            rel: *rel,
            args: args.iter().map(subst_term).collect(),
        },
        Formula::Eq(a, b) => Formula::Eq(subst_term(a), subst_term(b)),
        Formula::Not(g) => substitute(g, var, value).not(),
        Formula::And(gs) => Formula::And(gs.iter().map(|g| substitute(g, var, value)).collect()),
        Formula::Or(gs) => Formula::Or(gs.iter().map(|g| substitute(g, var, value)).collect()),
        Formula::Exists(v, g) if v == var => Formula::Exists(v.clone(), g.clone()),
        Formula::Forall(v, g) if v == var => Formula::Forall(v.clone(), g.clone()),
        Formula::Exists(v, g) => Formula::Exists(v.clone(), Box::new(substitute(g, var, value))),
        Formula::Forall(v, g) => Formula::Forall(v.clone(), Box::new(substitute(g, var, value))),
    }
}

/// Calls `visit(tuple, sentence)` for every grounding of the free
/// variables of `query` by values of `domain()`: variables in sorted
/// order, values in domain order, so the tuples come in lexicographic
/// order. A sentence gets exactly one visit, with the empty tuple, and
/// never builds the domain. The first error `visit` returns stops the
/// enumeration.
pub fn for_each_grounding<D: AsRef<[Value]>, E>(
    query: &Formula,
    domain: impl FnOnce() -> D,
    mut visit: impl FnMut(&[Value], &Formula) -> Result<(), E>,
) -> Result<(), E> {
    fn rec<E, F: FnMut(&[Value], &Formula) -> Result<(), E>>(
        f: &Formula,
        vars: &[Var],
        domain: &[Value],
        tuple: &mut Vec<Value>,
        visit: &mut F,
    ) -> Result<(), E> {
        let Some((var, rest)) = vars.split_first() else {
            return visit(tuple, f);
        };
        for value in domain {
            tuple.push(value.clone());
            rec(&substitute(f, var, value), rest, domain, tuple, visit)?;
            tuple.pop();
        }
        Ok(())
    }
    let vars: Vec<Var> = free_vars(query).into_iter().collect();
    if vars.is_empty() {
        return visit(&[], query);
    }
    let mut tuple = Vec::with_capacity(vars.len());
    rec(query, &vars, domain().as_ref(), &mut tuple, &mut visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infpdb_core::schema::RelId;

    fn atom(args: Vec<Term>) -> Formula {
        Formula::Atom {
            rel: RelId(0),
            args,
        }
    }

    #[test]
    fn free_vars_basic() {
        let f = atom(vec![Term::var("x"), Term::var("y")]);
        let fv = free_vars(&f);
        assert_eq!(fv.len(), 2);
        assert!(fv.contains("x") && fv.contains("y"));
    }

    #[test]
    fn quantifier_binds() {
        let f = Formula::exists("x", atom(vec![Term::var("x"), Term::var("y")]));
        let fv = free_vars(&f);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec!["y".to_string()]);
        assert!(!is_sentence(&f));
        let g = Formula::forall("y", f);
        assert!(is_sentence(&g));
    }

    #[test]
    fn shadowing_inner_binder_does_not_unbind_outer_occurrences() {
        // exists x. (R(x) /\ exists x. R(x)) — no free x
        let f = Formula::exists(
            "x",
            atom(vec![Term::var("x")]).and(Formula::exists("x", atom(vec![Term::var("x")]))),
        );
        assert!(is_sentence(&f));
        // R(x) /\ exists x. R(x) — x free in the left conjunct
        let g = atom(vec![Term::var("x")]).and(Formula::exists("x", atom(vec![Term::var("x")])));
        assert!(free_vars(&g).contains("x"));
        // occurs_free agrees: free in g, in neither f nor the shadowed
        // conjunct alone, and never for an absent variable
        assert!(occurs_free("x", &g));
        assert!(!occurs_free("x", &f));
        assert!(!occurs_free(
            "x",
            &Formula::exists("x", atom(vec![Term::var("x")]))
        ));
        assert!(!occurs_free("y", &g));
        let eq = Formula::Eq(Term::cnst(1i64), Term::var("y"));
        assert!(occurs_free("y", &eq.not()));
    }

    #[test]
    fn eq_atom_variables() {
        let f = Formula::Eq(Term::var("a"), Term::cnst(1i64));
        assert!(free_vars(&f).contains("a"));
        assert_eq!(constants(&f).len(), 1);
    }

    #[test]
    fn constants_collected_across_structure() {
        let f = Formula::exists(
            "x",
            atom(vec![Term::var("x"), Term::cnst(7i64)]).or(Formula::Eq(
                Term::cnst("s"),
                Term::var("x"),
            )
            .not()),
        );
        let cs = constants(&f);
        assert_eq!(cs.len(), 2);
        assert!(cs.contains(&Value::int(7)));
        assert!(cs.contains(&Value::str("s")));
    }

    #[test]
    fn substitute_replaces_free_occurrences_only() {
        // x free in left conjunct, bound in right
        let f = atom(vec![Term::var("x")]).and(Formula::exists("x", atom(vec![Term::var("x")])));
        let g = substitute(&f, "x", &Value::int(5));
        match &g {
            Formula::And(parts) => {
                assert_eq!(parts[0], atom(vec![Term::cnst(5i64)]));
                // bound occurrence untouched
                assert_eq!(parts[1], Formula::exists("x", atom(vec![Term::var("x")])));
            }
            other => panic!("{other:?}"),
        }
        assert!(is_sentence(&g));
    }

    #[test]
    fn substitute_covers_all_node_kinds() {
        let f = Formula::forall(
            "y",
            Formula::Eq(Term::var("x"), Term::var("y"))
                .or(Formula::True)
                .or(Formula::False)
                .and(atom(vec![Term::var("x")]).not()),
        );
        let g = substitute(&f, "x", &Value::int(1));
        assert!(is_sentence(&g));
    }

    #[test]
    fn groundings_enumerate_tuples_lexicographically() {
        let visits = |f: &Formula, domain: &[Value]| {
            let mut out = Vec::new();
            for_each_grounding(
                f,
                || domain,
                |tuple, sentence| {
                    out.push((tuple.to_vec(), sentence.clone()));
                    Ok::<_, ()>(())
                },
            )
            .unwrap();
            out
        };
        // free variables in sorted order (x before y), whatever order the
        // atom mentions them in; values in domain order
        let f = atom(vec![Term::var("y"), Term::var("x")]);
        let domain = [3, 1, 2].map(Value::int);
        let mut expected = Vec::new();
        for x in &domain {
            for y in &domain {
                let sentence = atom(vec![Term::Const(y.clone()), Term::Const(x.clone())]);
                expected.push((vec![x.clone(), y.clone()], sentence));
            }
        }
        assert_eq!(visits(&f, &domain), expected);
        // a sentence: one visit, with the empty tuple, and no domain
        let g = Formula::exists("x", atom(vec![Term::var("x")]));
        assert_eq!(visits(&g, &domain), [(vec![], g.clone())]);
        let unbuilt = || -> &[Value] { panic!("a sentence builds no domain") };
        let mut calls = 0;
        for_each_grounding(&g, unbuilt, |_, _| {
            calls += 1;
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(calls, 1);
    }
}
