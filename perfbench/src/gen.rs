//! Seeded workload inputs: the knowledge bases, query pools, batch
//! streams and ε schedules of the three workloads. Everything here is a
//! pure function of `(workload, seed, scale)`, so the same seed always
//! yields the same inputs, and [`Inputs::digest`] fingerprints them.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `lane` of `seed` (connections, batches).
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over bytes; the digest behind every exact-repeat counter.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One query as the client sends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub text: String,
    pub eps: f64,
    /// The template the query was drawn from.
    pub shape: &'static str,
}

/// One step of a single-client request stream.
#[derive(Debug, Clone)]
pub enum Item {
    /// `POST /query`.
    Query(Query),
    /// `POST /batch` of per-element objects.
    Batch(Vec<Query>),
    /// An inline `QueryService::snapshot()` by the client.
    Snapshot,
}

impl Item {
    pub fn queries(&self) -> &[Query] {
        match self {
            Item::Query(q) => std::slice::from_ref(q),
            Item::Batch(b) => b,
            Item::Snapshot => &[],
        }
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotHttp,
    ColdMix,
    RefineStore,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "hot-http" => Some(Workload::HotHttp),
            "cold-mix" => Some(Workload::ColdMix),
            "refine-store" => Some(Workload::RefineStore),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHttp => "hot-http",
            Workload::ColdMix => "cold-mix",
            Workload::RefineStore => "refine-store",
        }
    }
}

/// Input sizes. `smoke` shrinks every one of them for the self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// hot-http KB: constants in the domain and `S` out-degree.
    pub hot_domain: usize,
    pub hot_degree: usize,
    /// hot-http (query, ε) pool size; must fit the 1 024-entry cache.
    pub hot_pool: usize,
    /// cold-mix KB: constants in the domain and `S` out-degree.
    pub cold_domain: usize,
    pub cold_degree: usize,
    /// cold-mix queries per `/batch` request.
    pub batch: usize,
    /// refine-store: first ε, per-step ε ratio, steps per episode,
    /// reads per step, and the request count between inline snapshots.
    pub refine_eps0: f64,
    pub refine_ratio: f64,
    pub refine_steps: usize,
    pub refine_reads: usize,
    pub snapshot_every: usize,
    /// Requests (hot-http) or batches (cold-mix) in the single-client
    /// stream the traced run replays; refine-store replays one episode.
    pub trace_hot: usize,
    pub trace_cold: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            hot_domain: 3000,
            hot_degree: 6,
            hot_pool: 192,
            cold_domain: 28,
            cold_degree: 5,
            batch: 8,
            refine_eps0: 1.5e-4,
            refine_ratio: 0.82,
            refine_steps: 10,
            refine_reads: 30,
            snapshot_every: 100,
            trace_hot: 3000,
            trace_cold: 150,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            hot_domain: 200,
            hot_degree: 3,
            hot_pool: 24,
            cold_domain: 12,
            cold_degree: 3,
            batch: 4,
            refine_eps0: 4e-3,
            refine_ratio: 0.9,
            refine_steps: 8,
            refine_reads: 5,
            snapshot_every: 10,
            trace_hot: 60,
            trace_cold: 24,
        }
    }
}

/// The seeded inputs of one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    /// The knowledge base in `infpdb` table syntax (hot-http, cold-mix);
    /// refine-store runs on the ζ(2) PDB and has none.
    pub kb: Option<String>,
    /// hot-http: the (query, ε) pool, hottest first.
    pub pool: Vec<Query>,
    /// The loosest ε the workload asks at — what set-up warms to.
    pub warm_eps: f64,
    /// refine-store: ε at step 0 (seeded jitter around `refine_eps0`).
    pub eps0: f64,
}

/// The `infpdb` serve tail: the fresh-fact tail attaches to the first
/// declared unary relation, integers from this value upward.
const TAIL_START: i64 = 1_000_000;

/// cold-mix shapes: (template, weight, ε levels). `{a}`, `{b}`, `{c}`
/// are drawn from the KB's domain; shapes without placeholders reuse
/// one compiled query across tolerances (plan-cache hits), shapes with
/// them mostly miss.
const COLD_SHAPES: &[(&str, u32, &[f64])] = &[
    // safe, lifted
    ("exists x, y. R(x) /\\ S(x, y)", 2, &[0.1, 0.02, 0.005]),
    // ground atom, and a fresh constant answered by the open-world tail
    ("R({a})", 3, &[0.05, 0.01, 0.002]),
    ("R({tail})", 1, &[0.05, 0.01]),
    // safe joins with a constant
    ("exists x. S({a}, x) /\\ T(x)", 3, &[0.05, 0.01, 0.002]),
    ("exists x. R(x) /\\ S(x, {a})", 3, &[0.05, 0.01, 0.002]),
    // self-joins: unsafe for lifted inference, but decomposable
    ("exists x. S({a}, x) /\\ S(x, {b})", 3, &[0.05, 0.01, 0.002]),
    (
        "exists x, y. S({a}, x) /\\ S(x, y) /\\ T(y)",
        2,
        &[0.1, 0.02],
    ),
    (
        "(exists x. S({a}, x) /\\ S(x, {b})) /\\ (exists y. R(y) /\\ S(y, {c}))",
        2,
        &[0.05, 0.01],
    ),
    // H0 and its negated twin: the hard shapes
    (
        "exists x, y. R(x) /\\ S(x, y) /\\ T(y)",
        1,
        &[0.1, 0.05, 0.02],
    ),
    ("exists x, y. R(x) /\\ S(x, y) /\\ !T(y)", 1, &[0.1, 0.05]),
];

/// hot-http shapes: cheap shapes only (H0 is intractable on a KB this
/// size, and the lifted two-atom join costs seconds), each at a few
/// tolerances.
const HOT_SHAPES: &[(&str, &[f64])] = &[
    ("R({a})", &[0.05, 0.02, 0.01]),
    ("exists x. S({a}, x) /\\ T(x)", &[0.05, 0.02, 0.01]),
    ("exists x. R(x) /\\ S(x, {a})", &[0.05, 0.02, 0.01]),
    ("exists x. S({a}, x) /\\ S(x, {b})", &[0.05, 0.02, 0.01]),
    ("exists x. R(x)", &[0.05, 0.02, 0.01]),
    ("exists x. T(x)", &[0.05, 0.02, 0.01]),
    ("R({tail})", &[0.05, 0.01]),
];

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let mut rng = Rng::lane(seed, 0);
        let mut inputs = Inputs {
            workload,
            seed,
            scale,
            kb: None,
            pool: Vec::new(),
            warm_eps: 0.1,
            eps0: 0.0,
        };
        match workload {
            Workload::HotHttp => {
                inputs.kb = Some(kb_text(&mut rng, scale.hot_domain, scale.hot_degree));
                let mut seen = std::collections::HashSet::new();
                while inputs.pool.len() < scale.hot_pool {
                    let (template, levels) = HOT_SHAPES[rng.below(HOT_SHAPES.len())];
                    let text = instantiate(template, &mut rng, scale.hot_domain);
                    let eps = levels[rng.below(levels.len())];
                    if seen.insert((text.clone(), eps.to_bits())) {
                        inputs.pool.push(Query {
                            text,
                            eps,
                            shape: template,
                        });
                    }
                }
                inputs.warm_eps = 0.05;
            }
            Workload::ColdMix => {
                inputs.kb = Some(kb_text(&mut rng, scale.cold_domain, scale.cold_degree));
                inputs.warm_eps = 0.1;
            }
            Workload::RefineStore => {
                inputs.eps0 = scale.refine_eps0 * (0.98 + 0.04 * rng.unit());
                inputs.warm_eps = inputs.eps0;
            }
        }
        inputs
    }

    /// cold-mix batch `index`: a pure function of (seed, index). Shapes
    /// are dealt from shuffled decks that hold each shape as often as
    /// its weight, so every window of one deck has exactly the weighted
    /// mix. Every element's ε carries a per-element perturbation, so no
    /// (query, ε) pair ever repeats within a run.
    pub fn cold_batch(&self, index: usize) -> Vec<Query> {
        let deck: Vec<usize> = COLD_SHAPES
            .iter()
            .enumerate()
            .flat_map(|(i, s)| std::iter::repeat_n(i, s.1 as usize))
            .collect();
        let mut rng = Rng::lane(self.seed, 1 + index as u64);
        (0..self.scale.batch)
            .map(|j| {
                let serial = index * self.scale.batch + j;
                let mut order = deck.clone();
                let mut shuffle = Rng::lane(self.seed, 1 << 40 | (serial / deck.len()) as u64);
                for i in (1..order.len()).rev() {
                    order.swap(i, shuffle.below(i + 1));
                }
                let (template, _, levels) = COLD_SHAPES[order[serial % deck.len()]];
                let text = instantiate(template, &mut rng, self.scale.cold_domain);
                let base = levels[rng.below(levels.len())];
                Query {
                    text,
                    eps: base * (1.0 - (serial + 1) as f64 * 1e-9),
                    shape: template,
                }
            })
            .collect()
    }

    /// hot-http: the pool index of the next Zipf(1)-skewed draw.
    pub fn hot_draw(&self, rng: &mut Rng) -> usize {
        let n = self.pool.len();
        // inverse CDF over the harmonic weights 1/(k+1)
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut x = rng.unit() * h;
        for k in 0..n {
            x -= 1.0 / (k + 1) as f64;
            if x <= 0.0 {
                return k;
            }
        }
        n - 1
    }

    /// refine-store step `s`: the ε of the step and its reads at the
    /// current frontier — point reads, the existential, and compound
    /// point reads that the planner routes to Shannon.
    pub fn refine_step(&self, step: usize) -> Vec<Query> {
        let eps = self.eps0 * self.scale.refine_ratio.powi(step as i32);
        let mut rng = Rng::lane(self.seed, 1_000_000 + step as u64);
        let k = |rng: &mut Rng| 1 + (1000f64.powf(rng.unit())) as u64;
        (0..self.scale.refine_reads)
            .map(|j| {
                let (text, shape) = if j == 0 {
                    ("exists x. R(x)".to_string(), "exists x. R(x)")
                } else {
                    match rng.below(4) {
                        0 | 1 => (format!("R({})", k(&mut rng)), "R({k})"),
                        2 => {
                            let (a, b) = distinct_pair(&mut rng, k);
                            (format!("R({a}) /\\ !R({b})"), "R({a}) /\\ !R({b})")
                        }
                        _ => {
                            let (a, b) = distinct_pair(&mut rng, k);
                            (format!("R({a}) \\/ R({b})"), "R({a}) \\/ R({b})")
                        }
                    }
                };
                Query { text, eps, shape }
            })
            .collect()
    }

    /// One refine-store episode: the service opens a copy of the store
    /// image, the client descends the ε schedule step by step with a
    /// snapshot after every `snapshot_every`-th read, and the service
    /// snapshots once more as it stops. Every episode is the same work,
    /// however fast the program runs, so the catalog grows the same
    /// several-fold in each.
    pub fn refine_episode(&self) -> Vec<Item> {
        let mut items = Vec::new();
        let mut sent = 0;
        for step in 0..self.scale.refine_steps {
            for q in self.refine_step(step) {
                items.push(Item::Query(q));
                sent += 1;
                if sent % self.scale.snapshot_every == 0 {
                    items.push(Item::Snapshot);
                }
            }
        }
        items.push(Item::Snapshot);
        items
    }

    /// The workload's single-client stream for the traced run, plus how
    /// many leading items are the untimed prelude (hot-http's
    /// cache-filling pass).
    pub fn stream(&self) -> (Vec<Item>, usize) {
        let s = &self.scale;
        match self.workload {
            Workload::HotHttp => {
                let mut items: Vec<Item> = self.pool.iter().cloned().map(Item::Query).collect();
                let prelude = items.len();
                let mut rng = Rng::lane(self.seed, 77);
                for _ in 0..s.trace_hot {
                    items.push(Item::Query(self.pool[self.hot_draw(&mut rng)].clone()));
                }
                items.push(Item::Snapshot);
                (items, prelude)
            }
            Workload::ColdMix => {
                let mut items: Vec<Item> = (0..s.trace_cold)
                    .map(|i| Item::Batch(self.cold_batch(i)))
                    .collect();
                items.push(Item::Snapshot);
                (items, 0)
            }
            Workload::RefineStore => (self.refine_episode(), 0),
        }
    }

    /// Digest of every generated input the program receives.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.bytes(self.workload.name().as_bytes());
        if let Some(kb) = &self.kb {
            d.bytes(kb.as_bytes());
        }
        d.u64(self.eps0.to_bits()).u64(self.warm_eps.to_bits());
        let (items, prelude) = self.stream();
        d.u64(prelude as u64);
        for item in &items {
            match item {
                Item::Snapshot => {
                    d.bytes(b"snapshot");
                }
                _ => {
                    for q in item.queries() {
                        d.bytes(q.text.as_bytes()).u64(q.eps.to_bits());
                    }
                }
            }
        }
        d.finish()
    }
}

fn distinct_pair(rng: &mut Rng, draw: impl Fn(&mut Rng) -> u64) -> (u64, u64) {
    let a = draw(rng);
    let mut b = draw(rng);
    while b == a {
        b = draw(rng);
    }
    (a, b)
}

fn instantiate(template: &str, rng: &mut Rng, domain: usize) -> String {
    let mut out = template.to_string();
    for slot in ["{a}", "{b}", "{c}"] {
        if out.contains(slot) {
            out = out.replace(slot, &rng.below(domain).to_string());
        }
    }
    out.replace("{tail}", &(TAIL_START + rng.below(64) as i64).to_string())
}

/// A seeded KB over `R/1, S/2, T/1` with one fixed shape: constant
/// position `p` holds `R` when `p` is even and `T` when odd, and has
/// `S` edges to the next `degree` positions (mod `domain`). The seed
/// draws every probability and the permutation that names positions,
/// so KBs of different seeds are isomorphic and cost the engines the
/// same work, while their facts, probabilities and constants differ.
fn kb_text(rng: &mut Rng, domain: usize, degree: usize) -> String {
    let mut name: Vec<usize> = (0..domain).collect();
    for i in (1..name.len()).rev() {
        name.swap(i, rng.below(i + 1));
    }
    let mut t = String::from("relation R 1\nrelation S 2\nrelation T 1\n");
    let mut prob = || 0.05 + 0.9 * rng.unit();
    for (rel, parity) in [("R", 0), ("T", 1)] {
        for p in (parity..domain).step_by(2) {
            writeln!(t, "{rel} {} @ {:.4}", name[p], prob()).ok();
        }
    }
    for p in 0..domain {
        for k in 1..=degree.min(domain - 1) {
            writeln!(
                t,
                "S {} {} @ {:.4}",
                name[p],
                name[(p + k) % domain],
                prob()
            )
            .ok();
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_digest() {
        for w in [Workload::HotHttp, Workload::ColdMix, Workload::RefineStore] {
            let a = Inputs::generate(w, 7, Scale::smoke());
            let b = Inputs::generate(w, 7, Scale::smoke());
            let c = Inputs::generate(w, 8, Scale::smoke());
            assert_eq!(a.digest(), b.digest());
            assert_ne!(a.digest(), c.digest());
        }
    }

    #[test]
    fn cold_mix_never_repeats_a_query_eps_pair() {
        let inputs = Inputs::generate(Workload::ColdMix, 3, Scale::full());
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            for q in inputs.cold_batch(i) {
                assert!(seen.insert((q.text, q.eps.to_bits())));
            }
        }
    }

    #[test]
    fn hot_pool_fits_the_default_result_cache() {
        let inputs = Inputs::generate(Workload::HotHttp, 1, Scale::full());
        assert!(inputs.pool.len() <= 1024);
        let mut rng = Rng::lane(1, 0);
        let draws: Vec<usize> = (0..1000).map(|_| inputs.hot_draw(&mut rng)).collect();
        let top = draws.iter().filter(|&&k| k == 0).count();
        let tail = draws
            .iter()
            .filter(|&&k| k == inputs.pool.len() - 1)
            .count();
        assert!(top > 5 * tail.max(1), "draws must be skewed to the head");
    }
}
