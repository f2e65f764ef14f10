//! Seeded, std-only fuzzing of [`Json::parse`], the decoder every HTTP
//! body goes through: mutated wire bodies, nesting far past the cap, and
//! long strings full of escapes. Every input must come back as `Ok` or a
//! structured `Err` on a thread with the default 2 MiB stack, holding
//! memory linear in its length; a decoded document must re-encode to a
//! fixed point. Runs under the CI `chaos` job with three fixed seeds via
//! `INFPDB_CHAOS_SEED`; the default seed keeps local runs deterministic.

use infpdb_core::json::{Json, MAX_NESTING};
use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const CASES: usize = 1_000;

/// Bodies and documents the workspace really exchanges: realistic shapes
/// reach deep parser paths that pure noise never does.
const CORPUS: &[&str] = &[
    r#"{"query": "exists x. R(x)", "eps": 0.01}"#,
    r#"{"queries": ["R(1)", {"query": "R(2)", "eps": 1e-3, "deadline_ms": 500}], "eps": 0.05}"#,
    r#"{"eps": 0.5}"#,
    r#"{"query":"R(1)","estimate":0.25,"interval":{"lo":0.15,"hi":0.35},"n":12,"cached":true}"#,
    r#"["é😀", "tab\tnew\nline", "quote\"back\\slash\/", -0.0, 1e308, 12345678901234567890]"#,
    r#"{"a":{"b":[{"c":[null,true,false,[],{}]}]}}"#,
    r#"{"version":1,"shards":[{"file":"shard-000.seg","facts":1024,"crc":305419896}]}"#,
];

/// Characters the mutator splices in: every token class of the grammar,
/// plus control and multi-byte characters it must reject or copy.
const ALPHABET: &[char] = &[
    '[', ']', '{', '}', '"', '\\', ':', ',', ' ', '\n', 'u', 'n', 't', 'f', 'e', 'E', '.', '-',
    '+', '0', '1', '9', 'd', '8', 'a', '\0', '\u{1f}', 'é', '€', '😀',
];

fn seed() -> u64 {
    std::env::var("INFPDB_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF00D_5EED)
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn mutate(base: &str, rng: &mut SplitMix64) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    for _ in 0..1 + below(rng, 8) {
        let pick = ALPHABET[below(rng, ALPHABET.len())];
        let len = chars.len();
        match rng.next_u64() % 5 {
            0 if len > 0 => chars[below(rng, len)] = pick,
            1 => chars.insert(below(rng, len + 1), pick),
            2 if len > 0 => {
                chars.remove(below(rng, len));
            }
            3 if len > 0 => {
                // repeat a slice in place: grows nesting and long runs
                let start = below(rng, len);
                let slice: Vec<char> = chars[start..=start + below(rng, len - start)].to_vec();
                for _ in 0..1 + below(rng, 64) {
                    chars.splice(start..start, slice.iter().copied());
                }
            }
            _ if len > 0 => chars.truncate(below(rng, len)),
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// A corpus body wrapped in up to 2·10⁵ levels of arrays or objects,
/// closed or left open.
fn deeply_nested(rng: &mut SplitMix64) -> String {
    let levels = 1 + below(rng, 200_000);
    let (open, close) = [("[", "]"), ("{\"a\":", "}"), ("[{\"a\":", "}]")][below(rng, 3)];
    let inner = CORPUS[below(rng, CORPUS.len())];
    let closed = if rng.next_u64().is_multiple_of(2) {
        levels
    } else {
        0
    };
    format!("{}{inner}{}", open.repeat(levels), close.repeat(closed))
}

/// A document holding one string of up to 256 KiB of plain runs, escapes,
/// `\u` escapes and multi-byte characters, sometimes cut short.
fn long_string(rng: &mut SplitMix64) -> String {
    const PIECES: &[&str] = &[
        "plain words ",
        "\\\"",
        "\\\\",
        "\\n\\t",
        "\\u00e9",
        "\\ud83d\\ude00",
        "é€😀",
        "\\u12",
    ];
    let target = below(rng, 256 * 1024);
    let mut doc = String::from("{\"s\": \"");
    while doc.len() < target {
        doc.push_str(PIECES[below(rng, PIECES.len())]);
    }
    if !rng.next_u64().is_multiple_of(4) {
        doc.push_str("\"}");
    }
    doc
}

struct Counting;

thread_local! {
    /// Bytes this thread holds: allocated minus freed.
    static HELD: Cell<isize> = const { Cell::new(0) };
    /// The most `HELD` reached since [`peak_bytes`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: allocations during thread teardown are not counted
    let _ = HELD.try_with(|held| {
        held.set(held.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(held.get())));
    });
}

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees are the
// allocator's. The bookkeeping only touches const-initialised
// thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the most bytes it held at once
/// on this thread.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = HELD.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

#[test]
fn fuzzed_bodies_never_panic_overflow_or_outgrow_their_input() {
    // the default 2 MiB stack of a `serve` connection thread, whatever
    // RUST_MIN_STACK says
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let mut rng = SplitMix64::new(seed());
            let (mut parsed_ok, mut too_deep) = (0usize, 0usize);
            for case in 0..CASES {
                let input = match case % 8 {
                    6 => deeply_nested(&mut rng),
                    7 => long_string(&mut rng),
                    _ => mutate(CORPUS[below(&mut rng, CORPUS.len())], &mut rng),
                };
                let context = || {
                    let head: String = input.chars().take(80).collect();
                    format!("case {case} (seed {}): {head:?}…", seed())
                };
                let (result, peak) = peak_bytes(|| {
                    std::panic::catch_unwind(|| Json::parse(&input))
                        .unwrap_or_else(|_| panic!("parse panicked on {}", context()))
                });
                // a parsed tree costs at most a few `Json` slots of
                // 32 bytes per input byte
                assert!(
                    peak <= 64 * input.len() + 64 * 1024,
                    "{peak} bytes held for {} input bytes in {}",
                    input.len(),
                    context()
                );
                match result {
                    Ok(doc) => {
                        parsed_ok += 1;
                        // encoding is a fixed point after one decode
                        let encoded = doc.encode();
                        let again = Json::parse(&encoded)
                            .unwrap_or_else(|e| panic!("{e} re-parsing {}", context()));
                        assert_eq!(again.encode(), encoded, "{}", context());
                    }
                    Err(e) => {
                        assert!(e.offset <= input.len(), "{e} in {}", context());
                        too_deep += usize::from(e.message.contains("nested deeper"));
                    }
                }
            }
            // the run reached both the success path and the nesting cap
            assert!(parsed_ok > 0, "every fuzzed input failed to parse");
            assert!(too_deep > 0, "no input reached the {MAX_NESTING}-level cap");
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn corpus_itself_parses_clean() {
    for body in CORPUS {
        Json::parse(body).unwrap_or_else(|e| panic!("corpus entry {body:?} must parse: {e}"));
    }
}
