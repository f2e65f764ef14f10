//! Seeded, std-only fuzzing of [`http::read_request`], the decoder every
//! connection runs first: mutated request heads, declared
//! `Content-Length`s up to `u64::MAX` and beyond, and requests split at
//! random read boundaries. Every input must come back as a `Request` or a
//! `ParseError` without a panic; the outcome must not depend on where the
//! reads split the bytes; and the memory a request holds must grow with
//! the bytes that arrived, never with the length it declared. Runs under
//! the CI `chaos` job with three fixed seeds via `INFPDB_CHAOS_SEED`; the
//! default seed keeps local runs deterministic.

use infpdb_core::space::rand_core::{RngCore, SplitMix64};
use infpdb_net::http::{self, ParseError, Request, DEFAULT_MAX_BODY_BYTES, MAX_HEAD_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Cursor, Read};

const CASES: usize = 2_000;

fn post(path: &str, headers: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Requests the front door really serves: realistic heads reach deep
/// parser paths that pure noise never does.
fn corpus() -> Vec<Vec<u8>> {
    vec![
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        b"GET /metrics HTTP/1.0\r\n\r\n".to_vec(),
        b"GET /healthz HTTP/1.1\nConnection: close\n\n".to_vec(),
        post(
            "/query",
            "Content-Type: application/json\r\n",
            r#"{"query": "exists x. R(x)", "eps": 0.01}"#,
        ),
        post(
            "/batch",
            "Authorization: Bearer tok\r\nConnection: keep-alive\r\n",
            r#"{"queries": ["R(1)", "R(2)"], "eps": 0.05}"#,
        ),
        post(
            "/warm",
            "Transfer-Encoding: identity\r\n",
            r#"{"eps": 0.5}"#,
        ),
    ]
}

/// Bytes the mutator splices in: the framing's delimiters, digits, and
/// bytes a head must reject (NUL, a lone UTF-8 lead, 0xFF).
const ALPHABET: &[u8] = b"\r\n: \t/09aZ\x00\xc3\xff";

/// `Content-Length` values around every boundary the parser checks.
const DECLARED: &[&str] = &[
    "0",
    "1",
    "4194304",
    "4194305",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "+5",
    " 7 ",
    "0x10",
    "",
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

fn mutate(base: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..1 + below(rng, 6) {
        let pick = ALPHABET[below(rng, ALPHABET.len())];
        let len = bytes.len();
        match rng.next_u64() % 7 {
            0 if len > 0 => bytes[below(rng, len)] = pick,
            1 => bytes.insert(below(rng, len + 1), pick),
            2 if len > 0 => {
                bytes.remove(below(rng, len));
            }
            3 if len > 0 => {
                // repeat a slice in place: long lines, repeated headers
                let start = below(rng, len);
                let slice = bytes[start..=start + below(rng, len - start)].to_vec();
                for _ in 0..1 + below(rng, 16) {
                    bytes.splice(start..start, slice.iter().copied());
                }
            }
            4 => {
                // declare another length than the body has
                let text = String::from_utf8_lossy(&bytes).into_owned();
                let declared = DECLARED[below(rng, DECLARED.len())];
                bytes = match text.find("Content-Length: ") {
                    Some(at) => {
                        let value = at + "Content-Length: ".len();
                        let end = text[value..].find('\r').map_or(text.len(), |i| value + i);
                        format!("{}{declared}{}", &text[..value], &text[end..]).into_bytes()
                    }
                    None => text
                        .replacen("\r\n", &format!("\r\nContent-Length: {declared}\r\n"), 1)
                        .into_bytes(),
                };
            }
            5 => {
                // pad one header to around the head cap
                let pad = MAX_HEAD_BYTES - 64 + below(rng, 128);
                let at = below(rng, len + 1);
                let header = format!("\r\nX-Pad: {}", "p".repeat(pad));
                bytes.splice(at..at, header.into_bytes());
            }
            _ if len > 0 => bytes.truncate(below(rng, len)),
            _ => {}
        }
    }
    // a few head caps is past every limit the parser checks
    bytes.truncate(4 * MAX_HEAD_BYTES);
    bytes
}

/// A reader that hands out `bytes` in the pieces `sizes` dictates, so a
/// request arrives split at those boundaries.
struct Split<'a> {
    bytes: &'a [u8],
    sizes: Vec<usize>,
}

impl Read for Split<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes.pop().unwrap_or(usize::MAX);
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
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
fn fuzzed_requests_never_panic_and_hold_memory_for_what_arrived() {
    let corpus = corpus();
    let mut rng = SplitMix64::new(seed());
    let (mut parsed_ok, mut too_large) = (0usize, 0usize);
    for case in 0..CASES {
        let raw = mutate(&corpus[below(&mut rng, corpus.len())], &mut rng);
        let context = || {
            let head = String::from_utf8_lossy(&raw[..raw.len().min(120)]);
            format!("case {case} (seed {}): {head:?}…", seed())
        };
        let parse = |mut reader: &mut dyn std::io::BufRead| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                http::read_request(&mut reader, DEFAULT_MAX_BODY_BYTES)
            }))
            .unwrap_or_else(|_| panic!("read_request panicked on {}", context()))
        };
        let whole: Result<Request, ParseError> = parse(&mut Cursor::new(&raw));

        let sizes = (0..1 + below(&mut rng, 16))
            .map(|_| 1 + below(&mut rng, 64))
            .collect();
        let capacity = [1, 7, 64, 8 * 1024][below(&mut rng, 4)];
        let mut split = BufReader::with_capacity(capacity, Split { bytes: &raw, sizes });
        let (result, peak) = peak_bytes(|| parse(&mut split));
        assert_eq!(result, whole, "read boundaries changed {}", context());
        // the head, the body read so far, their doubling growth and the
        // reserve before the body arrives: nothing scales with the
        // declared length
        assert!(
            peak <= 4 * raw.len() + 128 * 1024,
            "{peak} bytes held for {} input bytes in {}",
            raw.len(),
            context()
        );
        match result {
            Ok(_) => parsed_ok += 1,
            Err(ParseError::TooLarge(_)) => too_large += 1,
            Err(_) => {}
        }
    }
    // the run reached both the success path and the size caps
    assert!(parsed_ok > 0, "every fuzzed request failed to parse");
    assert!(too_large > 0, "no fuzzed request reached a size cap");
}

#[test]
fn corpus_itself_parses_clean() {
    for raw in corpus() {
        let req = http::read_request(&mut Cursor::new(&raw), DEFAULT_MAX_BODY_BYTES)
            .unwrap_or_else(|e| panic!("{e}: {:?}", String::from_utf8_lossy(&raw)));
        assert!(raw.ends_with(&req.body));
    }
}
