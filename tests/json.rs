//! Properties of the workspace's JSON writer and parser
//! (`hipe_trace::json`), which every committed `BENCH_*.json` document
//! goes through: what the writer emits parses back to the same value,
//! and no input — a truncated document, a corrupted byte — makes the
//! parser panic.

use hipe_db::SplitMix64;
use hipe_trace::json::{self, Value};

/// Edge-case scalars every round trip must preserve exactly.
fn edge_scalars() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::from(u64::MAX),
        Value::from(i64::MIN),
        Value::from(0u64),
        Value::Float(0.1),
        Value::Float(-2.5e-300),
        Value::Float(1e300),
        Value::Float(5.0),
        Value::from(""),
        Value::from("quote \" backslash \\ slash / tab \t newline \n"),
        Value::from("controls \u{0}\u{1}\u{8}\u{c}\r\u{1f}\u{7f}"),
        Value::from("non-ASCII: µs, Grüße, 漢字, 🦀"),
        Value::Array(Vec::new()),
        Value::object(),
    ]
}

/// A random value tree: `depth` bounds nesting, leaves mix the edge
/// cases with random integers, floats and strings.
fn random_value(rng: &mut SplitMix64, depth: u32) -> Value {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => {
            let edges = edge_scalars();
            edges[rng.below(edges.len() as u64) as usize].clone()
        }
        1 if rng.below(2) == 0 => Value::from(rng.next_u64()),
        1 => Value::from(rng.next_u64() as i64),
        // Random bit patterns include NaN and the infinities, which the
        // writer maps to `null` by design; the round trip covers finite
        // floats.
        2 => match f64::from_bits(rng.next_u64()) {
            f if f.is_finite() => Value::Float(f),
            _ => Value::Float(0.0),
        },
        3 => {
            let len = rng.below(12);
            let text: String = (0..len)
                .filter_map(|_| char::from_u32(rng.below(0x1_0000) as u32))
                .collect();
            Value::from(text)
        }
        4 => Value::Array(
            (0..rng.below(5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|i| (format!("k{i}"), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn written_values_parse_back_equal() {
    let mut fixed = Value::object().with("edges", edge_scalars());
    for (i, v) in edge_scalars().into_iter().enumerate() {
        fixed = fixed.with(&format!("e{i}"), v);
    }
    let text = fixed.to_json();
    assert_eq!(json::parse(&text), Ok(fixed), "{text}");

    let mut rng = SplitMix64::new(2018);
    for _ in 0..2000 {
        let value = random_value(&mut rng, 4);
        let text = value.to_json();
        assert_eq!(json::parse(&text), Ok(value), "{text}");
    }
}

#[test]
fn every_proper_prefix_of_a_document_is_rejected_without_panic() {
    let doc = Value::object()
        .with("n", u64::MAX)
        .with("s", "a\"b\\c µ 🦀 \u{1}")
        .with("f", -1.5e-7)
        .with("a", vec![Value::Null, Value::Bool(true), Value::object()])
        .with("o", Value::object().with("deep", vec![Value::from(-3i64)]));
    let text = doc.to_json();
    assert_eq!(json::parse(&text), Ok(doc));
    for (end, _) in text.char_indices().skip(1) {
        let prefix = &text[..end];
        assert!(json::parse(prefix).is_err(), "prefix parsed: {prefix:?}");
    }
}

#[test]
fn byte_flips_in_the_committed_documents_never_panic() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut rng = SplitMix64::new(12);
    for name in ["BENCH_figures.json", "BENCH_trace.json"] {
        let path = format!("{root}/{name}");
        let bytes = std::fs::read(&path).expect("committed BENCH document");
        let text = String::from_utf8(bytes.clone()).expect("UTF-8");
        assert!(json::parse(&text).is_ok(), "{name} must parse");
        for _ in 0..300 {
            let mut flipped = bytes.clone();
            let at = rng.below(flipped.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            // Flips that break UTF-8 are decoded lossily: the parser
            // takes `&str`.
            let flipped = String::from_utf8_lossy(&flipped);
            if let Err(e) = json::parse(&flipped) {
                assert!(e.offset <= flipped.len(), "{name}: {e}");
            }
        }
    }
}
