//! The correctness oracle. Every served answer must carry exactly the
//! estimate and interval bits of a direct library evaluation of the
//! same (query, ε), computed after the timed window; shapes with a
//! closed form must also have the truth inside `estimate ± ε`.

use crate::fixture;
use crate::gen::{Inputs, Query};
use crate::replay::{Answer, Replay};
use crate::spans::SpanLog;
use infpdb_core::json::Json;
use infpdb_logic::parse;
use infpdb_query::prepared::PreparedPdb;
use std::collections::HashMap;

/// What the client saw for one query.
#[derive(Debug, Clone)]
pub struct Observed {
    pub text: String,
    pub eps: f64,
    /// `(estimate, lo, hi)` bits, or why there are none.
    pub outcome: Result<(u64, u64, u64), String>,
}

impl Observed {
    pub fn new(q: &Query, status: u16, line: Option<String>) -> Self {
        let outcome = match line {
            None => Err(format!("status {status} without an answer line")),
            Some(_) if status != 200 => Err(format!("status {status}")),
            Some(text) => answer_bits(&text),
        };
        Observed {
            text: q.text.clone(),
            eps: q.eps,
            outcome,
        }
    }

    pub fn transport(q: &Query, e: String) -> Self {
        Observed {
            text: q.text.clone(),
            eps: q.eps,
            outcome: Err(format!("transport: {e}")),
        }
    }

    /// Flips the lowest bit of the estimate.
    pub fn corrupt(&mut self) {
        if let Ok(bits) = &mut self.outcome {
            bits.0 ^= 1;
        }
    }
}

fn answer_bits(line: &str) -> Result<(u64, u64, u64), String> {
    let doc = Json::parse(line).map_err(|e| format!("unparseable answer: {e}"))?;
    if let Some(err) = doc.get("error") {
        return Err(format!("error answer: {}", err.encode()));
    }
    let bits = |j: Option<&Json>| j.and_then(Json::as_f64).map(f64::to_bits);
    let iv = doc.get("interval");
    match (
        bits(doc.get("estimate")),
        bits(iv.and_then(|i| i.get("lo"))),
        bits(iv.and_then(|i| i.get("hi"))),
    ) {
        (Some(e), Some(lo), Some(hi)) => Ok((e, lo, hi)),
        _ => Err(format!("answer without estimate/interval: {line}")),
    }
}

/// The library's answer to one query, or why it has none.
pub type Reference = Result<Answer, String>;

pub struct Check {
    pub failed: usize,
    pub failures: Vec<String>,
}

/// Direct library answers for `queries`, spread over `threads` workers
/// that each own a fresh prepared PDB (answers do not depend on the
/// catalog's growth history). Each worker replays as the oracle
/// ([`Replay::oracle`]), so every distinct (query, ε) is evaluated from
/// its own text. Also returns that PDB's fingerprint.
pub fn reference(
    inputs: &Inputs,
    queries: &[Query],
    threads: usize,
) -> Result<(Vec<Reference>, u64), String> {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    // loosest first, so each worker's catalog grows monotonically
    order.sort_by(|&a, &b| queries[b].eps.total_cmp(&queries[a].eps));
    let threads = threads.max(1);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let mine: Vec<usize> = order.iter().copied().skip(w).step_by(threads).collect();
                scope.spawn(move || -> Result<(Vec<(usize, Reference)>, u64), String> {
                    let pdb = fixture::build_pdb(inputs, &mut SpanLog::off())?;
                    let mut replay = Replay::oracle(PreparedPdb::new(pdb));
                    let mut off = SpanLog::off();
                    let mut out = Vec::with_capacity(mine.len());
                    for i in mine {
                        let q = &queries[i];
                        let answer = parse(&q.text, replay.prepared.pdb().schema())
                            .map_err(|e| format!("{}: {e}", q.text))
                            .and_then(|f| replay.answer(&f, q.eps, &mut off));
                        out.push((i, answer));
                    }
                    Ok((out, replay.pdb_fingerprint()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "oracle worker panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut answers: Vec<Option<Reference>> = vec![None; queries.len()];
    let mut fp = 0;
    for (part, part_fp) in results {
        fp = part_fp;
        for (i, a) in part {
            answers[i] = Some(a);
        }
    }
    Ok((
        answers
            .into_iter()
            .map(|a| a.expect("every query answered"))
            .collect(),
        fp,
    ))
}

/// Checks every observed answer; `served_pdb_fp` is the fingerprint of
/// the PDB the server ran on, which must be the oracle's.
pub fn check(
    inputs: &Inputs,
    observed: &[Observed],
    threads: usize,
    served_pdb_fp: u64,
) -> Result<Check, String> {
    let mut index: HashMap<(&str, u64), usize> = HashMap::new();
    let mut distinct = Vec::new();
    for o in observed {
        index.entry((&o.text, o.eps.to_bits())).or_insert_with(|| {
            distinct.push(Query {
                text: o.text.clone(),
                eps: o.eps,
                shape: "",
            });
            distinct.len() - 1
        });
    }
    let (answers, oracle_fp) = reference(inputs, &distinct, threads)?;
    let mut check = Check {
        failed: 0,
        failures: Vec::new(),
    };
    if oracle_fp != served_pdb_fp {
        check.failures.push(format!(
            "served PDB fingerprint {served_pdb_fp:016x} is not the oracle's {oracle_fp:016x}"
        ));
    }
    let truths = Truths::new(inputs);
    for o in observed {
        let expected = &answers[index[&(o.text.as_str(), o.eps.to_bits())]];
        let verdict = match (&o.outcome, expected) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), Err(e)) => Err(format!("oracle failed: {e}")),
            (Ok(got), Ok(want)) if *got != (want.estimate, want.lo, want.hi) => Err(format!(
                "bits differ from the library: served {:?}, direct {:?}",
                f64::from_bits(got.0),
                want.approx.estimate
            )),
            (Ok(got), Ok(_)) => match truths.truth(&o.text) {
                Some(t) if (t - f64::from_bits(got.0)).abs() > o.eps + 1e-12 => Err(format!(
                    "truth {t} outside estimate {} ± {}",
                    f64::from_bits(got.0),
                    o.eps
                )),
                _ => Ok(()),
            },
        };
        if let Err(e) = verdict {
            check.failed += 1;
            if check.failures.len() < 5 {
                check.failures.push(format!("{} @ {}: {e}", o.text, o.eps));
            }
        }
    }
    Ok(check)
}

/// Closed-form probabilities of the shapes that have one.
struct Truths {
    zeta: bool,
    /// KB point probabilities of `R`.
    r: HashMap<i64, f64>,
}

impl Truths {
    fn new(inputs: &Inputs) -> Self {
        let mut r = HashMap::new();
        if let Some(kb) = &inputs.kb {
            for line in kb.lines() {
                let parts: Vec<&str> = line.split_whitespace().collect();
                if let ["R", c, "@", p] = parts[..] {
                    if let (Ok(c), Ok(p)) = (c.parse(), p.parse()) {
                        r.insert(c, p);
                    }
                }
            }
        }
        Truths {
            zeta: inputs.kb.is_none(),
            r,
        }
    }

    fn point(&self, k: i64) -> f64 {
        if self.zeta {
            let pi2 = std::f64::consts::PI * std::f64::consts::PI;
            return 6.0 / (pi2 * (k * k) as f64);
        }
        let o = infpdb::netcmd::ServeOptions::default();
        match self.r.get(&k) {
            Some(&p) => p,
            // the serve tail: P(R(tail_start + i)) = (tail_mass/2)·2^-i
            None if k >= o.tail_start => o.tail_mass / 2.0 * 0.5f64.powi((k - o.tail_start) as i32),
            None => 0.0,
        }
    }

    fn truth(&self, text: &str) -> Option<f64> {
        let atom = |s: &str| -> Option<i64> {
            s.trim()
                .strip_prefix("R(")?
                .strip_suffix(')')?
                .trim()
                .parse()
                .ok()
        };
        if self.zeta && text == "exists x. R(x)" {
            // Euler: ∏(1 − x²/k²) = sin(πx)/(πx) with πx = √6
            let s = 6f64.sqrt();
            return Some(1.0 - s.sin() / s);
        }
        if let Some(k) = atom(text) {
            return Some(self.point(k));
        }
        if let Some((a, b)) = text.split_once(" /\\ !") {
            let (pa, pb) = (self.point(atom(a)?), self.point(atom(b)?));
            return Some(pa * (1.0 - pb));
        }
        if let Some((a, b)) = text.split_once(" \\/ ") {
            let (pa, pb) = (self.point(atom(a)?), self.point(atom(b)?));
            return Some(1.0 - (1.0 - pa) * (1.0 - pb));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Scale, Workload};

    #[test]
    fn zeta_closed_forms() {
        let t = Truths::new(&Inputs::generate(Workload::RefineStore, 1, Scale::smoke()));
        assert!((t.truth("exists x. R(x)").unwrap() - 0.739_473_236_4).abs() < 1e-9);
        assert!((t.truth("R(17)").unwrap() - 0.002_103_553_985_654).abs() < 1e-12);
        let (p3, p5) = (t.point(3), t.point(5));
        assert_eq!(t.truth("R(3) /\\ !R(5)"), Some(p3 * (1.0 - p5)));
        assert_eq!(
            t.truth("R(3) \\/ R(5)"),
            Some(1.0 - (1.0 - p3) * (1.0 - p5))
        );
    }
}
