//! Deterministic fuzz tests of the daemon's two input surfaces, seeded by
//! `dscweaver-prng` so every run replays the same inputs:
//!
//! * token-level mutations of `.proc` bodies through `service::handle`
//!   (weave, validate, simulate and re-weave against a woven base);
//! * byte-level mutations of raw requests through `http::parse_buffered`,
//!   followed by the typed `service::parse` of every request it yields.
//!
//! Neither surface may panic, and every answer must be well formed: a
//! status the daemon documents and a JSON body. A failure prints the seed
//! and iteration so the input can be replayed.

use dscweaver::obs::json;
use dscweaver::serve::http::{parse_buffered, reason};
use dscweaver::serve::registry::Registry;
use dscweaver::serve::service::{handle, parse, Request};
use dscweaver::workloads::purchasing::PURCHASING_DSL;
use dscweaver_prng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated `.proc` bodies per seed text (three texts, four endpoints).
const PROC_MUTANTS: usize = 3_000;
/// Mutated raw requests per seed request.
const HTTP_MUTANTS: usize = 34_000;

const SMOKE: &str = r#"
process Smoke {
  var au, oi;
  sequence {
    assign check writes au;
    switch gate reads au {
      case T { assign fulfil writes oi; }
      case F { assign refuse writes oi; }
    }
    assign done reads oi;
  }
}
"#;

const NESTED: &str = r#"
process Nested {
  var a, b, c;
  service Store { ports 2 async }
  sequence {
    receive start from Client writes a;
    flow {
      sequence { invoke put on Store port 1 reads a; receive got from Store writes b; }
      sequence { assign side writes c; }
      link l from side to put;
    }
    switch pick reads b {
      case T { assign yes reads c; }
      case F { assign no reads c; }
    }
    reply done to Client reads b;
  }
}
"#;

/// Splits `.proc` text into identifier/number runs, single punctuation
/// characters and whitespace runs, so joining the tokens restores it.
fn tokens(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let class = |c: char| {
        if c.is_alphanumeric() || c == '_' {
            0
        } else if c.is_whitespace() {
            1
        } else {
            2
        }
    };
    for c in text.chars() {
        match out.last_mut() {
            Some(last) if class(c) != 2 && last.chars().next().map(class) == Some(class(c)) => {
                last.push(c)
            }
            _ => out.push(c.to_string()),
        }
    }
    out
}

/// Replacement tokens: the grammar's keywords and punctuation plus a few
/// hostile ones (empty names, digits, non-ASCII, quotes).
const VOCAB: &[&str] = &[
    "process", "var", "service", "ports", "async", "sequence", "flow", "switch", "case", "assign",
    "invoke", "receive", "reply", "link", "from", "to", "on", "port", "reads", "writes", "T", "F",
    "{", "}", ";", ",", " ", "\n", "0", "1", "99999999999999999999", "x", "é", "\"", "\\", "//",
];

fn mutate_tokens(rng: &mut Rng, base: &[String]) -> String {
    let mut toks = base.to_vec();
    for _ in 0..1 + rng.random_range(4) {
        if toks.is_empty() {
            toks.push(VOCAB[rng.random_range(VOCAB.len())].to_string());
            continue;
        }
        let i = rng.random_range(toks.len());
        match rng.random_range(5) {
            0 => {
                toks.remove(i);
            }
            1 => {
                let t = toks[i].clone();
                toks.insert(i, t);
            }
            2 => {
                let j = rng.random_range(toks.len());
                toks.swap(i, j);
            }
            3 => toks[i] = VOCAB[rng.random_range(VOCAB.len())].to_string(),
            _ => {
                // Re-insert a token from elsewhere in the text: names that
                // exist, in places they do not belong.
                let t = toks[rng.random_range(toks.len())].clone();
                toks.insert(i, t);
            }
        }
    }
    toks.concat()
}

/// A response is well formed when its status is one the daemon documents
/// for process requests and its body parses as JSON (an `error` object
/// for every non-200 answer).
fn assert_well_formed(status: u16, body: &str, ctx: &str) {
    assert!(matches!(status, 200 | 400 | 404), "{ctx}: status {status}");
    let doc =
        json::parse(body).unwrap_or_else(|e| panic!("{ctx}: body is not JSON ({e:?}): {body}"));
    if status != 200 {
        assert!(doc.get("error").and_then(|m| m.as_str()).is_some(), "{ctx}: {body}");
    }
}

#[test]
fn token_mutated_proc_bodies_never_panic_the_service() {
    const SEED: u64 = 0xF022_0001;
    let mut rng = Rng::seed_from_u64(SEED);
    // A small cache, so the run also evicts and recompiles.
    let reg = Registry::new(16, 1);
    let mut answered = [0usize; 2];
    for (name, text) in [("smoke", SMOKE), ("nested", NESTED), ("purchasing", PURCHASING_DSL)] {
        let base = handle(&reg, &Request::Weave { text: text.to_string() });
        assert_eq!(base.status, 200, "{name}: {}", base.body);
        let hash = json::parse(&base.body).unwrap();
        let hash = hash.get("hash").and_then(|h| h.as_str()).unwrap();
        let hash = u64::from_str_radix(hash, 16).unwrap();
        let toks = tokens(text);
        assert_eq!(toks.concat(), text, "tokenizer must round-trip");
        for iter in 0..PROC_MUTANTS {
            let mutant = mutate_tokens(&mut rng, &toks);
            let req = match iter % 4 {
                0 => Request::Weave { text: mutant },
                1 => Request::Validate { text: mutant },
                2 => Request::Simulate {
                    text: mutant,
                    branches: vec![("gate".into(), "T".into()), ("pick".into(), "F".into())],
                },
                _ => Request::Reweave { text: mutant, base: hash },
            };
            let ctx = format!("seed {SEED:#x}, {name} iteration {iter}");
            let resp = catch_unwind(AssertUnwindSafe(|| handle(&reg, &req)))
                .unwrap_or_else(|_| panic!("{ctx}: handle panicked on {req:?}"));
            assert_well_formed(resp.status, &resp.body, &ctx);
            answered[usize::from(resp.status == 200)] += 1;
        }
    }
    // Both outcomes must occur, or the mutations only ever hit one side
    // of the parser.
    assert!(answered[0] > 0 && answered[1] > 0, "rejected/served: {answered:?}");
}

/// Seed requests: every endpoint shape, a pipelined pair, a body that
/// runs into the next request, stray CRLFs and a header-heavy head.
fn http_seeds() -> Vec<Vec<u8>> {
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    vec![
        post("/v1/weave", SMOKE),
        post("/v1/simulate?branch=gate:T&branch=x:F", SMOKE),
        post("/v1/reweave?base=00ff00ff00ff00ff", "process p { sequence { } }"),
        "GET /v1/stats?since=3 HTTP/1.1\r\nConnection: close\r\n\r\n".to_string(),
        format!("\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n{}", post("/v1/validate", "x")),
        concat!(
            "GET /metrics HTTP/1.1\r\nA: 1\r\nB:  2 \r\nC:3\r\nContent-Length: 0\r\n\r\n",
            "GET /v1/traces HTTP/1.1\r\n\r\n",
        )
        .to_string(),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

const INTERESTING: &[u8] = b"\r\n: \t0123456789/?&=%\x00\xff";

fn mutate_bytes(rng: &mut Rng, base: &[u8]) -> Vec<u8> {
    let mut b = base.to_vec();
    for _ in 0..1 + rng.random_range(6) {
        if b.is_empty() {
            b.push(INTERESTING[rng.random_range(INTERESTING.len())]);
            continue;
        }
        let i = rng.random_range(b.len());
        match rng.random_range(6) {
            0 => b[i] ^= 1 << rng.random_range(8),
            1 => b[i] = INTERESTING[rng.random_range(INTERESTING.len())],
            2 => b.insert(i, INTERESTING[rng.random_range(INTERESTING.len())]),
            3 => {
                b.remove(i);
            }
            4 => b.truncate(i),
            _ => {
                let j = (i + 1 + rng.random_range(16)).min(b.len());
                let slice = b[i..j].to_vec();
                b.splice(i..i, slice);
            }
        }
    }
    b
}

#[test]
fn byte_mutated_requests_never_panic_the_parser() {
    const SEED: u64 = 0xF022_0002;
    const MAX_BODY: usize = 256;
    let mut rng = Rng::seed_from_u64(SEED);
    let mut outcomes = [0usize; 3]; // complete requests, incomplete tails, errors
    for (s, seed_req) in http_seeds().iter().enumerate() {
        for iter in 0..HTTP_MUTANTS {
            let buf = mutate_bytes(&mut rng, seed_req);
            let ctx = format!("seed {SEED:#x}, request {s} iteration {iter}");
            let mut rest: &[u8] = &buf;
            // Drain pipelined requests the way a connection does.
            loop {
                let step = catch_unwind(AssertUnwindSafe(|| parse_buffered(rest, MAX_BODY)))
                    .unwrap_or_else(|_| panic!("{ctx}: parse_buffered panicked on {rest:?}"));
                match step {
                    Ok(Some((req, used))) => {
                        assert!(used > 0 && used <= rest.len(), "{ctx}: consumed {used}");
                        outcomes[0] += 1;
                        let typed = catch_unwind(AssertUnwindSafe(|| parse(&req)));
                        let typed = typed
                            .unwrap_or_else(|_| panic!("{ctx}: typed parse panicked on {req:?}"));
                        if let Err(e) = typed {
                            assert!(matches!(e.status, 400 | 404 | 405), "{ctx}: {e}");
                            assert!(!e.message.is_empty(), "{ctx}");
                        }
                        rest = &rest[used..];
                    }
                    Ok(None) => {
                        outcomes[1] += 1;
                        break;
                    }
                    Err(e) => {
                        assert!(matches!(e.status, 400 | 413 | 431), "{ctx}: {e}");
                        assert_ne!(reason(e.status), "Internal Server Error", "{ctx}");
                        assert!(!e.message.is_empty(), "{ctx}");
                        outcomes[2] += 1;
                        break;
                    }
                }
            }
        }
    }
    assert!(outcomes.iter().all(|&n| n > 0), "complete/incomplete/error: {outcomes:?}");
}
