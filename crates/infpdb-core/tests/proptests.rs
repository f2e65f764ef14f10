//! Property-based tests for the relational substrate.

use infpdb_core::event::Event;
use infpdb_core::fact::{Fact, FactId};
use infpdb_core::instance::Instance;
use infpdb_core::interner::FactInterner;
use infpdb_core::json::Json;
use infpdb_core::schema::RelId;
use infpdb_core::space::DiscreteSpace;
use infpdb_core::universe::{BinaryStrings, Integers, Naturals, Universe};
use infpdb_core::value::{Fixed, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn prob() -> impl Strategy<Value = f64> {
    (0u32..=1000).prop_map(|i| i as f64 / 1000.0)
}

/// An `Int`, `Fixed` or `Str` argument from a small pool, so that
/// random facts repeat often.
fn small_value() -> impl Strategy<Value = Value> {
    (0u8..3, -3i64..4, 0u8..3).prop_map(|(tag, n, e)| match tag {
        0 => Value::int(n),
        1 => Value::fixed(n, e),
        _ => Value::str(format!("s{n}")),
    })
}

/// One interner step: intern (tag 0) or look up (tag 1) a fact over
/// relation 0–1 with arity 0–3.
fn interner_op() -> impl Strategy<Value = (u8, Fact)> {
    (
        0u8..2,
        0u32..2,
        0usize..4,
        prop::collection::vec(small_value(), 3..4),
    )
        .prop_map(|(tag, rel, arity, args)| {
            (tag, Fact::new(RelId(rel), args[..arity].iter().cloned()))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fixed_ordering_agrees_with_f64_on_safe_range(
        m1 in -1_000_000i64..1_000_000, e1 in 0u8..4,
        m2 in -1_000_000i64..1_000_000, e2 in 0u8..4,
    ) {
        let a = Fixed::new(m1, e1);
        let b = Fixed::new(m2, e2);
        // within this range to_f64 is exact enough to compare
        let fa = a.to_f64();
        let fb = b.to_f64();
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(a < b, fa < fb);
        } else {
            prop_assert_eq!(a == b, true_eq(m1, e1, m2, e2));
        }
    }

    #[test]
    fn universe_enumerations_are_injective_and_members(
        which in 0usize..3,
        n in 1usize..300,
    ) {
        let check = |u: &dyn UniverseDyn, n: usize| {
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                let v = u.enumerate_dyn(i).expect("infinite universe");
                assert!(u.contains_dyn(&v), "{v} not a member");
                assert!(seen.insert(v), "duplicate at {i}");
            }
        };
        match which {
            0 => check(&Naturals, n),
            1 => check(&Integers, n),
            _ => check(&BinaryStrings, n),
        }
    }

    #[test]
    fn conditioning_renormalizes_any_space(
        ps in prop::collection::vec(prob(), 1..12),
        threshold in 0usize..12,
    ) {
        let total: f64 = ps.iter().sum();
        prop_assume!(total > 1e-6);
        let outcomes: Vec<(usize, f64)> = ps.iter().enumerate()
            .map(|(i, &p)| (i, p / total)).collect();
        let space = DiscreteSpace::new(outcomes).unwrap();
        let kept: f64 = space.prob_where(|&i| i >= threshold);
        if kept > 0.0 {
            let cond = space.condition(|&i| i >= threshold).unwrap();
            prop_assert!((cond.total_mass() - 1.0).abs() < 1e-9);
            for (i, _) in space.outcomes() {
                let expected = if *i >= threshold {
                    space.prob_outcome(i) / kept
                } else {
                    0.0
                };
                prop_assert!((cond.prob_outcome(i) - expected).abs() < 1e-9);
            }
        } else {
            prop_assert!(space.condition(|&i| i >= threshold).is_err());
        }
    }

    #[test]
    fn pushforward_and_product_preserve_mass(
        ps in prop::collection::vec(prob(), 1..10),
        qs in prop::collection::vec(prob(), 1..10),
    ) {
        let (tp, tq): (f64, f64) = (ps.iter().sum(), qs.iter().sum());
        prop_assume!(tp > 1e-6 && tq > 1e-6);
        let a = DiscreteSpace::new(
            ps.iter().enumerate().map(|(i, &p)| (i, p / tp)),
        ).unwrap();
        let b = DiscreteSpace::new(
            qs.iter().enumerate().map(|(i, &p)| (i, p / tq)),
        ).unwrap();
        let push = a.pushforward(|&i| i % 3);
        prop_assert!((push.total_mass() - 1.0).abs() < 1e-9);
        let prod = a.product(&b);
        prop_assert!((prod.total_mass() - 1.0).abs() < 1e-9);
        // product marginals recover the factors
        for (i, p) in a.outcomes() {
            let marginal = prod.prob_where(|(x, _)| x == i);
            prop_assert!((marginal - p).abs() < 1e-9);
        }
    }

    #[test]
    fn event_boolean_algebra_is_pointwise(
        xs in prop::collection::vec(0u32..30, 0..15),
        a in prop::collection::vec(0u32..30, 1..5),
        b in prop::collection::vec(0u32..30, 1..5),
    ) {
        let d = Instance::from_ids(xs.iter().map(|&i| FactId(i)));
        let ea = Event::any_of(a.iter().map(|&i| FactId(i)));
        let eb = Event::any_of(b.iter().map(|&i| FactId(i)));
        let va = ea.contains(&d);
        let vb = eb.contains(&d);
        prop_assert_eq!(ea.clone().and(eb.clone()).contains(&d), va && vb);
        prop_assert_eq!(ea.clone().or(eb.clone()).contains(&d), va || vb);
        prop_assert_eq!(ea.clone().not().contains(&d), !va);
        // support is exactly the mentioned ids
        let mut expected: Vec<FactId> = a.iter().chain(b.iter()).map(|&i| FactId(i)).collect();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(ea.and(eb).support().unwrap(), expected);
    }

    #[test]
    fn instance_canonical_form_is_stable(xs in prop::collection::vec(0u32..100, 0..40)) {
        let a = Instance::from_ids(xs.iter().map(|&i| FactId(i)));
        // rebuilding from its own ids is the identity
        let b = Instance::from_ids(a.iter());
        prop_assert_eq!(&a, &b);
        // union with itself is the identity
        prop_assert_eq!(a.union(&a), b);
        // difference with itself is empty
        prop_assert!(a.difference(&a).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of interns and lookups agrees with a `BTreeMap`
    /// model: new facts get the next dense id, repeats get their first
    /// id back, lookups find exactly the interned facts, and every id
    /// resolves to its fact.
    #[test]
    fn interner_agrees_with_a_btreemap_model(ops in prop::collection::vec(interner_op(), 0..120)) {
        let mut interner = FactInterner::new();
        let mut model: BTreeMap<Fact, FactId> = BTreeMap::new();
        for (tag, fact) in ops {
            if tag == 0 {
                let got = interner.try_intern(fact.clone());
                match model.get(&fact) {
                    Some(&id) => prop_assert_eq!(got, Err(id)),
                    None => {
                        let id = FactId(model.len() as u32);
                        prop_assert_eq!(got, Ok(id));
                        model.insert(fact, id);
                    }
                }
            } else {
                prop_assert_eq!(interner.get(&fact), model.get(&fact).copied());
            }
            prop_assert_eq!(interner.len(), model.len());
        }
        for (fact, &id) in &model {
            prop_assert_eq!(interner.resolve(id), fact);
        }
    }
}

/// One character from each class the JSON string codec treats apart:
/// printable ASCII, the seven characters with a short escape, the
/// control characters (`\u00XX` unless short-escaped), and 2-, 3- and
/// 4-byte UTF-8 scalars.
fn json_char() -> impl Strategy<Value = char> {
    (0u8..6, 0u32..0x11_0000).prop_map(|(class, n)| {
        let within = |lo: u32, hi: u32| char::from_u32(lo + n % (hi - lo + 1));
        let c = match class {
            0 => within(0x20, 0x7e),
            1 => Some(['"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0c}'][n as usize % 7]),
            2 => within(0x00, 0x1f),
            3 => within(0x80, 0x7ff),
            // surrogates are no chars: `from_u32` refuses them
            4 => within(0x800, 0xffff),
            _ => within(0x1_0000, 0x10_ffff),
        };
        c.unwrap_or('\u{fffd}')
    })
}

/// The escaper the encoder must agree with, one char at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any string encodes exactly as the char-by-char reference escaper
    /// writes it and decodes back to itself, as a value and as a key.
    #[test]
    fn json_strings_round_trip_and_escape_like_the_reference(
        chars in prop::collection::vec(json_char(), 0..48),
    ) {
        let s: String = chars.into_iter().collect();
        let encoded = Json::str(s.clone()).encode();
        prop_assert_eq!(&encoded, &reference_escape(&s));
        let decoded = Json::parse(&encoded).unwrap();
        prop_assert_eq!(decoded.as_str(), Some(s.as_str()));
        let doc = Json::obj([(s.clone(), Json::Array(vec![Json::str(s.clone()), Json::Null]))]);
        prop_assert_eq!(Json::parse(&doc.encode()).unwrap(), doc);
    }
}

fn true_eq(m1: i64, e1: u8, m2: i64, e2: u8) -> bool {
    // exact rational comparison m1/10^e1 == m2/10^e2
    let lhs = m1 as i128 * 10i128.pow(e2 as u32);
    let rhs = m2 as i128 * 10i128.pow(e1 as u32);
    lhs == rhs
}

/// Object-safe shim over `Universe` for the enumeration test.
trait UniverseDyn {
    fn enumerate_dyn(&self, i: usize) -> Option<Value>;
    fn contains_dyn(&self, v: &Value) -> bool;
}

impl<U: Universe> UniverseDyn for U {
    fn enumerate_dyn(&self, i: usize) -> Option<Value> {
        self.enumerate(i)
    }
    fn contains_dyn(&self, v: &Value) -> bool {
        self.contains(v)
    }
}
