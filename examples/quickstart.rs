//! Quickstart: Example 5.7 of the paper, end to end.
//!
//! Build the finite tuple-independent PDB of Example 5.7, apply the
//! infinite open-world assumption with a `2^{-i}` tail, and ask questions
//! the closed world cannot answer.
//!
//! Run with `cargo run --example quickstart`.

use infpdb::finite::TiTable;
use infpdb::logic::parse;
use infpdb::math::series::GeometricSeries;
use infpdb::openworld::independent_facts::complete_ti_table;
use infpdb::query::approx::approx_prob_boolean;
use infpdb::query::Engine;
use infpdb::ti::enumerator::FactSupply;
use infpdb_core::fact::Fact;
use infpdb_core::schema::{Relation, Schema};
use infpdb_core::value::Value;

fn main() {
    // ── The Example 5.7 table ────────────────────────────────────────────
    //   R     | P(E_f)
    //   A 1   | 0.8
    //   B 1   | 0.4
    //   B 2   | 0.5
    //   C 3   | 0.9
    let schema = Schema::from_relations([Relation::new("R", 2)]).expect("fresh schema");
    let r = schema.rel_id("R").expect("R exists");
    let row = |name: &str, i: i64| Fact::new(r, [Value::str(name), Value::int(i)]);
    let table = TiTable::from_facts(
        schema.clone(),
        [
            (row("A", 1), 0.8),
            (row("B", 1), 0.4),
            (row("B", 2), 0.5),
            (row("C", 3), 0.9),
        ],
    )
    .expect("valid table");

    println!(
        "Example 5.7 table: {} facts, E(S) = {}",
        table.len(),
        table.expected_size()
    );

    // ── Closed world: unlisted facts are impossible ─────────────────────
    println!(
        "closed world: P(R(D, 1)) = {}",
        table.marginal(&row("D", 1))
    );

    // ── Open world: give every unspecified tuple (x, i) a probability ───
    // Example 5.7 assigns probability 2^{-i} to unspecified tuples of
    // shape R(x, i). We enumerate {A,B,C,D} × ℕ row-block by row-block
    // (all four x for i = 1, then i = 2, …), skipping the four listed
    // rows, with a per-fact geometric decay (ratio 2^{-1/4}, so each block
    // of four roughly halves — the sum of all fact probabilities
    // converges, which is all Theorem 5.5 needs).
    let names = ["A", "B", "C", "D"];
    // enumeration positions of the listed rows in that block order:
    // (A,1)→0, (B,1)→1, (B,2)→5, (C,3)→10
    let skips = [0usize, 1, 5, 10];
    let tail = FactSupply::from_fn(
        schema.clone(),
        move |i| {
            let mut raw = i;
            for &s in &skips {
                if s <= raw {
                    raw += 1;
                }
            }
            Fact::new(
                r,
                [Value::str(names[raw % 4]), Value::int(raw as i64 / 4 + 1)],
            )
        },
        GeometricSeries::new(0.125, 0.5f64.powf(0.25)).expect("valid series"),
    );
    let open = complete_ti_table(&table, tail).expect("completion exists (Theorem 5.5)");

    // Every imaginable tuple now has positive probability.
    println!(
        "open world:  P(R(D, 1)) = {}",
        open.marginal(&row("D", 1), 10_000).expect("in enumeration")
    );
    // …while the original marginals are untouched (completion condition):
    println!(
        "open world:  P(R(A, 1)) = {} (was 0.8)",
        open.marginal(&row("A", 1), 10_000).expect("listed")
    );

    // ── Queries with the Proposition 6.1 guarantee ───────────────────────
    for (q, eps) in [
        ("exists x, y. R(x, y)", 0.01),
        ("exists y. R('D', y)", 0.01),
        ("R('B', 1) /\\ R('B', 2)", 0.001),
    ] {
        let query = parse(q, &schema).expect("well-formed query");
        let a =
            approx_prob_boolean(&open, &query, eps, Engine::Auto).expect("approximation succeeds");
        println!(
            "P({q}) = {:.4} ± {} (truncated at n = {})",
            a.estimate, a.eps, a.n
        );
    }

    // In the original example, "two facts of shape R(A, i)" had
    // probability 0 under the closed world; now it is positive:
    let q = parse("R('A', 1) /\\ R('A', 2)", &schema).expect("well-formed");
    let a = approx_prob_boolean(&open, &q, 0.001, Engine::Auto).expect("approximation");
    println!(
        "P(R(A,1) ∧ R(A,2)) = {:.5} ± {} — positive, as Example 5.7 promises",
        a.estimate, a.eps
    );
    assert!(a.estimate > 0.0);
}
