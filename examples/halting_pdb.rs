//! Proposition 6.2, hands on: probabilistic databases that encode the
//! halting problem.
//!
//! Every Turing machine `N` *represents* a weight-1 tuple-independent PDB
//! `D_{M(N)}` over facts `R(k)`/`S(k)`: pair `k = ⟨n, t⟩` carries an
//! `R`-fact iff `N` accepts input `n` within `t` steps. Then
//! `P(∃x R(x)) = 0` iff `L(N) = ∅` — so an algorithm achieving any
//! *multiplicative* approximation guarantee would decide emptiness of
//! Turing machines. Additive approximation (Proposition 6.1) survives
//! because it may answer "somewhere below 10⁻¹²" without certifying zero.
//!
//! Run with `cargo run --example halting_pdb`.

use infpdb::tm::reduction::{has_r_witness, prefixes_agree, prob_exists_r};
use infpdb::tm::{RepresentedPdb, TuringMachine};

fn main() {
    let machines: Vec<(&str, TuringMachine)> = vec![
        ("rejects_all      (L = ∅)", TuringMachine::rejects_all()),
        ("loops_forever    (L = ∅)", TuringMachine::loops_forever()),
        ("accepts_all", TuringMachine::accepts_all()),
        ("even_parity", TuringMachine::accepts_even_parity()),
        ("needs_a_one", TuringMachine::accepts_strings_with_a_one()),
    ];

    println!(
        "{:<28} {:>9} {:>44}",
        "machine", "witness?", "certified P(∃x R(x))"
    );
    for (name, m) in &machines {
        let rep = RepresentedPdb::new(m.clone());
        let witness = has_r_witness(&rep, 300);
        let interval = prob_exists_r(&rep, 45).expect("interval");
        println!(
            "{name:<28} {:>9} {:>44}",
            witness.map(|k| format!("k = {k}")).unwrap_or("none".into()),
            interval.to_string()
        );
    }

    // The obstruction, concretely: two machines with empty languages are
    // observationally identical on every finite prefix of the fact
    // enumeration — no algorithm reading finitely many facts can separate
    // "P = 0" from "P > 0 but the first R-fact is beyond what I read".
    let empty = RepresentedPdb::new(TuringMachine::rejects_all());
    let looper = RepresentedPdb::new(TuringMachine::loops_forever());
    println!(
        "\nrejects_all and loops_forever produce identical facts (500-prefix): {}",
        prefixes_agree(&empty, &looper, 500)
    );
    assert!(prefixes_agree(&empty, &looper, 500));

    // Additive approximation still works: the interval for the empty
    // machine has width 2^{-n}, honestly reported, zero never claimed.
    for n in [10u32, 20, 40] {
        let iv = prob_exists_r(&empty, n).expect("interval");
        println!(
            "empty machine, {n} pairs examined: P ∈ {iv} (width {:.1e})",
            iv.width()
        );
    }

    // The full Proposition 6.1 machinery runs on represented PDBs too —
    // they satisfy the oracle assumptions (i)/(ii) by construction.
    let rep = RepresentedPdb::new(TuringMachine::accepts_even_parity());
    let pdb = rep.pdb().expect("weight 1 always converges");
    let q = infpdb::logic::parse("exists x. R(x)", pdb.schema()).expect("query");
    let a = infpdb::query::approx::approx_prob_boolean(&pdb, &q, 0.01, infpdb::query::Engine::Auto)
        .expect("Prop 6.1");
    println!(
        "\nProp 6.1 on the parity machine's PDB: P(∃x R(x)) = {:.4} ± {} (n = {})",
        a.estimate, a.eps, a.n
    );
}
