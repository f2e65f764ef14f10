//! Text syntax for first-order queries.
//!
//! Grammar (precedence low → high: `->`, `\/`, `/\`, `!`):
//!
//! ```text
//! formula   := 'exists' vars '.' formula
//!            | 'forall' vars '.' formula
//!            | implication
//! implication := disjunction [ '->' formula ]
//! disjunction := conjunction { ('\/' | '|' | 'or') conjunction }
//! conjunction := negation  { ('/\' | '&' | 'and') negation }
//! negation  := ('!' | 'not') negation | primary
//! primary   := '(' formula ')' | 'true' | 'false'
//!            | Rel '(' terms ')' | term ('=' | '!=') term
//! term      := identifier | integer | decimal | 'single' or "double" string
//! vars      := identifier { ',' identifier }
//! ```
//!
//! Relation names are resolved against a [`Schema`] at parse time, with
//! arity checking; identifiers in term position are variables; quoted
//! strings, integers and decimals are constants (elements of the universe,
//! per the paper's convention of not distinguishing elements from constant
//! symbols).
//!
//! Query text arrives over the network, and the parser and every pass
//! over the formula it builds recurse once per nesting level, so the
//! nesting is capped at [`MAX_NESTING`]: deeper input is a
//! [`LogicError::Parse`], not a stack overflow.

use crate::ast::{Formula, Term};
use crate::LogicError;
use infpdb_core::schema::Schema;
use infpdb_core::value::Value;

/// The deepest syntactic nesting [`parse`] accepts. Each open
/// parenthesis, each `!`/`not`, each variable a quantifier binds and
/// each `->` adds one level for what it encloses.
pub const MAX_NESTING: usize = 256;

/// Parses `input` into a [`Formula`], resolving relation names against
/// `schema`.
///
/// ```
/// use infpdb_core::schema::{Relation, Schema};
/// use infpdb_logic::{parse, vars};
///
/// let schema = Schema::from_relations([Relation::new("Edge", 2)])?;
/// let q = parse("exists x, y. Edge(x, y) /\\ x != y", &schema)?;
/// assert!(vars::is_sentence(&q));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse(input: &str, schema: &Schema) -> Result<Formula, LogicError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        schema,
        depth: 0,
    };
    p.skip_ws();
    let f = p.formula()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(f)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    schema: &'a Schema,
    /// Nesting levels open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> LogicError {
        LogicError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Parses with `levels` more nesting levels open, refusing to go
    /// past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        levels: usize,
        inner: impl FnOnce(&mut Self) -> Result<T, LogicError>,
    ) -> Result<T, LogicError> {
        if levels > MAX_NESTING - self.depth {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += levels;
        let result = inner(self);
        self.depth -= levels;
        result
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            self.skip_ws();
            true
        } else {
            false
        }
    }

    /// Eats a keyword: like `eat` but the next char must not continue an
    /// identifier.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.input[self.pos..].starts_with(kw) {
            let after = self.pos + kw.len();
            let cont = self
                .bytes
                .get(after)
                .map(|b| b.is_ascii_alphanumeric() || *b == b'_')
                .unwrap_or(false);
            if !cont {
                self.pos = after;
                self.skip_ws();
                return true;
            }
        }
        false
    }

    fn identifier(&mut self) -> Option<String> {
        let start = self.pos;
        if !matches!(self.peek(), Some(b) if b.is_ascii_alphabetic() || b == b'_') {
            return None;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            self.pos += 1;
        }
        let id = self.input[start..self.pos].to_string();
        self.skip_ws();
        Some(id)
    }

    fn formula(&mut self) -> Result<Formula, LogicError> {
        for (kw, is_exists) in [("exists", true), ("forall", false)] {
            let save = self.pos;
            if self.eat_kw(kw) {
                let mut vars = Vec::new();
                loop {
                    let v = self
                        .identifier()
                        .ok_or_else(|| self.err("expected variable name"))?;
                    vars.push(v);
                    if !self.eat(",") {
                        break;
                    }
                }
                if !self.eat(".") {
                    self.pos = save;
                    return Err(self.err("expected '.' after quantified variables"));
                }
                let body = self.nested(vars.len(), Self::formula)?;
                return Ok(vars.into_iter().rev().fold(body, |acc, v| {
                    if is_exists {
                        Formula::Exists(v, Box::new(acc))
                    } else {
                        Formula::Forall(v, Box::new(acc))
                    }
                }));
            }
        }
        self.implication()
    }

    fn implication(&mut self) -> Result<Formula, LogicError> {
        let lhs = self.disjunction()?;
        if self.eat("->") {
            let rhs = self.nested(1, Self::formula)?;
            return Ok(lhs.not().or(rhs));
        }
        Ok(lhs)
    }

    fn disjunction(&mut self) -> Result<Formula, LogicError> {
        let mut f = self.conjunction()?;
        loop {
            if self.eat("\\/") || self.eat("|") || self.eat_kw("or") {
                let g = self.conjunction()?;
                f = f.or(g);
            } else {
                return Ok(f);
            }
        }
    }

    fn conjunction(&mut self) -> Result<Formula, LogicError> {
        let mut f = self.negation()?;
        loop {
            if self.eat("/\\") || self.eat("&") || self.eat_kw("and") {
                let g = self.negation()?;
                f = f.and(g);
            } else {
                return Ok(f);
            }
        }
    }

    fn negation(&mut self) -> Result<Formula, LogicError> {
        // careful not to eat the '!' of a '!=' inequality atom
        if (!self.input[self.pos..].starts_with("!=") && self.eat("!")) || self.eat_kw("not") {
            return Ok(self.nested(1, Self::negation)?.not());
        }
        // A quantifier may appear as an operand (`A /\ exists x. B`); its
        // body extends maximally to the right within the current parens.
        if self.looking_at_quantifier() {
            return self.formula();
        }
        self.primary()
    }

    fn looking_at_quantifier(&self) -> bool {
        for kw in ["exists", "forall"] {
            if self.input[self.pos..].starts_with(kw) {
                let after = self.pos + kw.len();
                let cont = self
                    .bytes
                    .get(after)
                    .map(|b| b.is_ascii_alphanumeric() || *b == b'_')
                    .unwrap_or(false);
                if !cont {
                    return true;
                }
            }
        }
        false
    }

    fn primary(&mut self) -> Result<Formula, LogicError> {
        if self.eat("(") {
            let f = self.nested(1, Self::formula)?;
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok(f);
        }
        if self.eat_kw("true") {
            return Ok(Formula::True);
        }
        if self.eat_kw("false") {
            return Ok(Formula::False);
        }
        // Try relation atom: identifier followed by '('
        let save = self.pos;
        if let Some(id) = self.identifier() {
            if self.eat("(") {
                let rel = self
                    .schema
                    .rel_id(&id)
                    .ok_or(LogicError::UnknownRelation(id.clone()))?;
                let mut args = Vec::new();
                if !self.eat(")") {
                    loop {
                        args.push(self.term()?);
                        if self.eat(")") {
                            break;
                        }
                        if !self.eat(",") {
                            return Err(self.err("expected ',' or ')' in atom"));
                        }
                    }
                }
                let expected = self.schema.relation(rel).arity();
                if expected != args.len() {
                    return Err(LogicError::ArityMismatch {
                        relation: id,
                        expected,
                        got: args.len(),
                    });
                }
                return Ok(Formula::Atom { rel, args });
            }
            // not an atom: identifier was a variable term in an equality
            self.pos = save;
            self.skip_ws();
        }
        // Equality / inequality between terms
        let lhs = self.term()?;
        if self.eat("!=") {
            let rhs = self.term()?;
            return Ok(Formula::Eq(lhs, rhs).not());
        }
        if self.eat("=") {
            let rhs = self.term()?;
            return Ok(Formula::Eq(lhs, rhs));
        }
        Err(self.err("expected '=' or '!=' after term"))
    }

    fn term(&mut self) -> Result<Term, LogicError> {
        match self.peek() {
            Some(b'\'') | Some(b'"') => {
                let quote = self.bytes[self.pos];
                self.pos += 1;
                let start = self.pos;
                while self.peek().map(|b| b != quote).unwrap_or(false) {
                    self.pos += 1;
                }
                if self.peek() != Some(quote) {
                    return Err(self.err("unterminated string literal"));
                }
                let s = self.input[start..self.pos].to_string();
                self.pos += 1;
                self.skip_ws();
                Ok(Term::Const(Value::str(s)))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                let start = self.pos;
                if b == b'-' {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
                if self.peek() == Some(b'.')
                    && matches!(
                        self.bytes.get(self.pos + 1),
                        Some(c) if c.is_ascii_digit()
                    )
                {
                    self.pos += 1;
                    let frac_start = self.pos;
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                    let text = &self.input[start..self.pos];
                    let frac_len = (self.pos - frac_start) as u8;
                    let mantissa: i64 = text
                        .replace('.', "")
                        .parse()
                        .map_err(|_| self.err("decimal literal out of range"))?;
                    self.skip_ws();
                    return Ok(Term::Const(Value::fixed(mantissa, frac_len)));
                }
                let text = &self.input[start..self.pos];
                let n: i64 = text
                    .parse()
                    .map_err(|_| self.err("integer literal out of range"))?;
                self.skip_ws();
                Ok(Term::Const(Value::int(n)))
            }
            _ => {
                let id = self.identifier().ok_or_else(|| self.err("expected term"))?;
                Ok(Term::Var(id))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::{free_vars, is_sentence};
    use infpdb_core::schema::Relation;

    fn schema() -> Schema {
        Schema::from_relations([
            Relation::new("R", 2),
            Relation::new("S", 1),
            Relation::new("T", 0),
        ])
        .unwrap()
    }

    #[test]
    fn parses_atoms_and_constants() {
        let s = schema();
        let f = parse("R(x, 3)", &s).unwrap();
        assert_eq!(
            f,
            Formula::atom(s.rel_id("R").unwrap(), [Term::var("x"), Term::cnst(3i64)])
        );
        let g = parse("S('abc')", &s).unwrap();
        assert_eq!(
            g,
            Formula::atom(s.rel_id("S").unwrap(), [Term::cnst("abc")])
        );
        let h = parse("R(\"a b\", -7)", &s).unwrap();
        match h {
            Formula::Atom { args, .. } => {
                assert_eq!(args[0], Term::cnst("a b"));
                assert_eq!(args[1], Term::cnst(-7i64));
            }
            other => panic!("{other:?}"),
        }
        let t = parse("T()", &s).unwrap();
        assert!(matches!(t, Formula::Atom { ref args, .. } if args.is_empty()));
    }

    #[test]
    fn parses_decimal_constants_as_fixed() {
        let s = schema();
        let f = parse("S(20.25)", &s).unwrap();
        match f {
            Formula::Atom { args, .. } => assert_eq!(args[0], Term::cnst(Value::fixed(2025, 2))),
            other => panic!("{other:?}"),
        }
        let g = parse("S(-0.5)", &s).unwrap();
        match g {
            Formula::Atom { args, .. } => assert_eq!(args[0], Term::cnst(Value::fixed(-5, 1))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_boolean_structure_with_precedence() {
        let s = schema();
        // a \/ b /\ c parses as a \/ (b /\ c)
        let f = parse("S(1) \\/ S(2) /\\ S(3)", &s).unwrap();
        match f {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Formula::And(_)));
            }
            other => panic!("{other:?}"),
        }
        // keyword forms
        let g = parse("S(1) or S(2) and not S(3)", &s).unwrap();
        assert!(matches!(g, Formula::Or(_)));
        // ASCII operators
        let h = parse("S(1) | S(2) & !S(3)", &s).unwrap();
        assert!(matches!(h, Formula::Or(_)));
    }

    #[test]
    fn parses_quantifiers() {
        let s = schema();
        let f = parse("exists x, y. R(x, y)", &s).unwrap();
        assert!(is_sentence(&f));
        match &f {
            Formula::Exists(x, inner) => {
                assert_eq!(x, "x");
                assert!(matches!(**inner, Formula::Exists(ref y, _) if y == "y"));
            }
            other => panic!("{other:?}"),
        }
        let g = parse("forall x. exists y. R(x, y)", &s).unwrap();
        assert_eq!(crate::rank::quantifier_rank(&g), 2);
    }

    #[test]
    fn parses_equality_and_inequality() {
        let s = schema();
        let f = parse("x = 3", &s).unwrap();
        assert_eq!(f, Formula::Eq(Term::var("x"), Term::cnst(3i64)));
        let g = parse("x != y", &s).unwrap();
        assert_eq!(g, Formula::Eq(Term::var("x"), Term::var("y")).not());
    }

    #[test]
    fn parses_implication_as_sugar() {
        let s = schema();
        let f = parse("S(1) -> S(2)", &s).unwrap();
        // !S(1) \/ S(2)
        match f {
            Formula::Or(parts) => {
                assert!(matches!(parts[0], Formula::Not(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_parens_and_true_false() {
        let s = schema();
        assert_eq!(parse("true", &s).unwrap(), Formula::True);
        assert_eq!(parse("(false)", &s).unwrap(), Formula::False);
        let f = parse("(S(1) \\/ S(2)) /\\ S(3)", &s).unwrap();
        assert!(matches!(f, Formula::And(_)));
    }

    #[test]
    fn rejects_unknown_relation_and_arity() {
        let s = schema();
        assert!(matches!(
            parse("Q(x)", &s),
            Err(LogicError::UnknownRelation(_))
        ));
        assert!(matches!(
            parse("R(x)", &s),
            Err(LogicError::ArityMismatch { .. })
        ));
        assert!(matches!(
            parse("S(x, y)", &s),
            Err(LogicError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn rejects_syntax_errors() {
        let s = schema();
        for bad in [
            "R(x,",
            "exists . S(1)",
            "exists x S(1)",
            "S(1) /\\",
            "(S(1)",
            "S('abc)",
            "",
            "S(1)) ",
            "x",
            "= 3",
        ] {
            assert!(parse(bad, &s).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn free_variables_of_parsed_query() {
        let s = schema();
        let f = parse("exists x. R(x, y) /\\ S(z)", &s).unwrap();
        let fv = free_vars(&f);
        assert_eq!(
            fv.into_iter().collect::<Vec<_>>(),
            vec!["y".to_string(), "z".to_string()]
        );
    }

    #[test]
    fn keyword_prefix_identifiers_are_variables() {
        // "orbit" starts with "or" but must lex as an identifier
        let s = schema();
        let f = parse("exists orbit. S(orbit)", &s).unwrap();
        assert!(is_sentence(&f));
        let g = parse("S(android) and S(notx)", &s).unwrap();
        assert_eq!(free_vars(&g).len(), 2);
    }

    /// `open` repeated `levels` times around `inner`, then `close` as
    /// often.
    fn nest(open: &str, inner: &str, close: &str, levels: usize) -> String {
        format!("{}{inner}{}", open.repeat(levels), close.repeat(levels))
    }

    /// One query per construct that nests, `levels` deep.
    fn nestings(levels: usize) -> [String; 5] {
        [
            nest("(", "S(1)", ")", levels),
            nest("!", "S(1)", "", levels),
            nest("not ", "S(1)", "", levels),
            nest("exists x. ", "S(x)", "", levels),
            nest("S(1) -> ", "S(1)", "", levels),
        ]
    }

    #[test]
    fn nesting_past_the_cap_is_a_parse_error_not_a_stack_overflow() {
        // a spawned thread has the default 2 MiB stack, as a connection
        // thread of `serve` does
        std::thread::spawn(|| {
            let s = schema();
            for q in nestings(100_000)
                .into_iter()
                .chain([format!("exists {}. S(x0)", {
                    let vars: Vec<String> = (0..100_000).map(|i| format!("x{i}")).collect();
                    vars.join(", ")
                })])
            {
                match parse(&q, &s) {
                    Err(LogicError::Parse { message, .. }) => {
                        assert!(message.contains("nesting"), "{message}")
                    }
                    other => panic!("{}…: {other:?}", &q[..24]),
                }
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nesting_at_the_cap_parses_and_one_more_level_does_not() {
        let s = schema();
        for (at_cap, past_cap) in nestings(MAX_NESTING)
            .into_iter()
            .zip(nestings(MAX_NESTING + 1))
        {
            parse(&at_cap, &s).unwrap_or_else(|e| panic!("{}…: {e}", &at_cap[..24]));
            assert!(parse(&past_cap, &s).is_err(), "{}…", &past_cap[..24]);
        }
        // levels close again: many siblings at depth 1 are fine
        let wide = vec!["!(S(1))"; 4 * MAX_NESTING].join(" /\\ ");
        assert!(parse(&wide, &s).is_ok());
    }

    #[test]
    fn paper_example_queries_parse() {
        // The query of Proposition 6.2: ∃x R(x); schema there is {R, S}
        // unary.
        let s = Schema::from_relations([Relation::new("Ru", 1), Relation::new("Su", 1)]).unwrap();
        let f = parse("exists x. Ru(x)", &s).unwrap();
        assert!(is_sentence(&f));
        assert_eq!(crate::rank::quantifier_rank(&f), 1);
    }
}
