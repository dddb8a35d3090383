//! The JSON encoder and the JSON parser, held to each other.
//!
//! Seeded trees of every JSON shape are written through
//! `lake_table::JsonWriter` (the workspace's one encoder) and must parse
//! back through `serde_json::from_str` (its one parser) to the same tree.
//! Then the text is mutated — truncated, spliced, bit-flipped, a byte
//! doubled, nested past the parser's depth cap — and every mutant that is
//! still UTF-8 goes to the parser, which must not panic; a mutant that
//! parses must survive a second write and parse unchanged.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lake_table::{JsonWriter, Value as Cell};
use serde_json::{from_str, Value};

/// The parser's nesting cap: a value may sit at most this deep, the root
/// being at depth 0.
const MAX_DEPTH: usize = 128;

/// What the escaper and the number rules have to get right (the same
/// string `lake-serve`'s wire tests put in table names, headers and cells).
const HOSTILE: &str = "a\"b\\c\nd\te\u{1}f\u{2028}g\u{1F600}";

/// splitmix64: a seeded case generator with no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A string over `HOSTILE`, U+0000–U+007F, U+2028 and astral characters.
fn string(rng: &mut SplitMix) -> String {
    let hostile: Vec<char> = HOSTILE.chars().collect();
    (0..rng.below(10))
        .map(|_| match rng.below(4) {
            0 => hostile[rng.below(hostile.len())],
            1 => char::from(rng.below(0x80) as u8),
            2 => '\u{2028}',
            _ => char::from_u32(0x1_0000 + rng.below(0x10_0000) as u32).expect("astral scalar"),
        })
        .collect()
}

/// A number, built by parsing its canonical literal: the parser's
/// `Number` has no public constructor.
fn number(rng: &mut SplitMix) -> Value {
    let literal = match rng.below(8) {
        0 => i64::MIN.to_string(),
        1 => u64::MAX.to_string(),
        2 => format!("{:?}", -0.0f64),
        3 => format!("{:?}", 1e21f64),
        4 => format!("{:?}", 5e-324f64),
        5 => (rng.next() as i64).to_string(),
        6 => (rng.next() >> rng.below(64)).to_string(),
        _ => loop {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                break format!("{f:?}");
            }
        },
    };
    from_str(&literal).unwrap_or_else(|err| panic!("{literal}: {err}"))
}

fn scalar(rng: &mut SplitMix) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 | 3 => number(rng),
        _ => Value::String(string(rng)),
    }
}

/// A value at `depth` in its document.  Off a spine, containers stop at
/// depth 4; a spine is a chain of containers down to [`MAX_DEPTH`].
fn tree(rng: &mut SplitMix, depth: usize, spine: bool) -> Value {
    if depth == MAX_DEPTH || (!spine && depth > 0 && (depth > 4 || rng.below(3) == 0)) {
        return scalar(rng);
    }
    let len = if spine { 1 + rng.below(2) } else { rng.below(5) };
    let array = rng.below(2) == 0;
    let mut items = Vec::new();
    let mut entries = Vec::new();
    for i in 0..len {
        let child = tree(rng, depth + 1, spine && i == 0);
        if array {
            items.push(child);
        } else {
            entries.push((string(rng), child));
        }
    }
    if array {
        Value::Array(items)
    } else {
        Value::Object(entries)
    }
}

/// Writes `value` as the next element or object value.
fn write_value(w: &mut JsonWriter, value: &Value) {
    match value {
        Value::Null => w.literal("null"),
        Value::Bool(b) => w.cell(&Cell::Bool(*b)),
        Value::Number(n) if n.is_f64() => w.cell(&Cell::Float(n.as_f64())),
        Value::Number(n) => match n.as_u64() {
            Some(u) => w.integer(u),
            None => w.cell(&Cell::Int(n.as_i64().expect("an integer literal is i64 or u64"))),
        },
        Value::String(s) => w.string(s),
        Value::Array(_) => {
            w.open('[');
            write_members(w, value);
            w.close(']');
        }
        Value::Object(_) => {
            w.open('{');
            write_members(w, value);
            w.close('}');
        }
    }
}

/// Writes the elements or entries of a container, without its brackets.
fn write_members(w: &mut JsonWriter, value: &Value) {
    match value {
        Value::Array(items) => items.iter().for_each(|item| write_value(w, item)),
        Value::Object(entries) => entries.iter().for_each(|(key, item)| {
            w.key(key);
            write_value(w, item);
        }),
        _ => unreachable!("only containers have members"),
    }
}

/// `value` through the writer: a container as the body itself, a scalar as
/// the one element of an array body (a body is an object or an array).
fn encode(value: &Value) -> String {
    let mut w = match value {
        Value::Array(_) => JsonWriter::array(64),
        Value::Object(_) => JsonWriter::object(64),
        scalar => {
            let mut w = JsonWriter::array(16);
            write_value(&mut w, scalar);
            return w.finish();
        }
    };
    write_members(&mut w, value);
    w.finish()
}

/// What parsing [`encode`]`(value)` must give back.
fn encoded_shape(value: &Value) -> Value {
    match value {
        Value::Array(_) | Value::Object(_) => value.clone(),
        scalar => Value::Array(vec![scalar.clone()]),
    }
}

/// Parses `text`, naming it if the parser panics.
fn parse(text: &str) -> Result<Value, serde_json::Error> {
    catch_unwind(AssertUnwindSafe(|| from_str(text)))
        .unwrap_or_else(|_| panic!("from_str panicked on {text:?}"))
}

/// Where a mutation lands: any byte, or half the time a digit, so that the
/// number grammar is hit as often as the string and container grammar.
fn site(rng: &mut SplitMix, bytes: &[u8]) -> usize {
    let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
    if digits.is_empty() || rng.below(2) == 0 {
        rng.below(bytes.len())
    } else {
        digits[rng.below(digits.len())]
    }
}

/// Mutants of `text` that are still UTF-8 (`from_str` takes `&str`).
fn mutants(rng: &mut SplitMix, text: &str) -> Vec<String> {
    const NOISE: &[u8] = b"{}[]:,\"\\/-+.0123456789eEtrufalsnbu \x00\x1f\x7f\xc3\xa9\xe2\x80\xa8";
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    out.push(bytes[..rng.below(bytes.len())].to_vec());
    let mut spliced = bytes.to_vec();
    let at = site(rng, bytes);
    let cut = (at + rng.below(8)).min(spliced.len());
    let noise: Vec<u8> = (0..rng.below(6)).map(|_| NOISE[rng.below(NOISE.len())]).collect();
    spliced.splice(at..cut, noise);
    out.push(spliced);
    let mut flipped = bytes.to_vec();
    flipped[site(rng, bytes)] ^= 1 << rng.below(8);
    out.push(flipped);
    let mut doubled = bytes.to_vec();
    let at = site(rng, bytes);
    doubled.insert(at, doubled[at]);
    out.push(doubled);
    out.into_iter().filter_map(|mutant| String::from_utf8(mutant).ok()).collect()
}

/// Equal trees, floats compared by their bits: `Debug` writes every
/// finite float in its shortest round-trip form, so `-0.0` is not `0.0`.
fn same(a: &Value, b: &Value) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// A parsed value survives a second write and parse unchanged, and the
/// second write is byte for byte the first.
fn assert_stable(value: &Value, from: &str) {
    let text = encode(value);
    let again = parse(&text).unwrap_or_else(|err| panic!("{err}: {text:?} (from {from:?})"));
    assert!(same(&again, &encoded_shape(value)), "{again:?} from {text:?} (from {from:?})");
    assert_eq!(encode(&again), text, "from {from:?}");
}

/// Whether a number token matches RFC 8259 §6:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn rfc_number(token: &str) -> bool {
    fn digits(s: &str) -> (&str, &str) {
        s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()))
    }
    let (int, mut rest) = digits(token.strip_prefix('-').unwrap_or(token));
    if int.is_empty() || (int.len() > 1 && int.starts_with('0')) {
        return false;
    }
    if let Some(after) = rest.strip_prefix('.') {
        let (fraction, after) = digits(after);
        if fraction.is_empty() {
            return false;
        }
        rest = after;
    }
    if let Some(after) = rest.strip_prefix(['e', 'E']) {
        let (exponent, after) = digits(after.strip_prefix(['+', '-']).unwrap_or(after));
        if exponent.is_empty() {
            return false;
        }
        rest = after;
    }
    rest.is_empty()
}

/// The number tokens of a document, outside its strings: an oracle for
/// the number grammar that shares no code with the parser.
fn number_tokens(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let (mut tokens, mut i) = (Vec::new(), 0);
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                tokens.push(&text[start..i]);
            }
            _ => i += 1,
        }
    }
    tokens
}

#[test]
fn generated_trees_round_trip_and_their_mutants_never_panic_the_parser() {
    let mut rng = SplitMix(0x15_0E4C);
    let (mut parsed, mut refused) = (0, 0);
    for case in 0..400 {
        let value = tree(&mut rng, 0, case % 8 == 0);
        let text = encode(&value);
        assert_stable(&value, "a generated tree");

        for mutant in mutants(&mut rng, &text) {
            match parse(&mutant) {
                Ok(value) => {
                    parsed += 1;
                    for token in number_tokens(&mutant) {
                        assert!(rfc_number(token), "accepted the number {token:?} in {mutant:?}");
                    }
                    assert_stable(&value, &mutant);
                }
                Err(_) => refused += 1,
            }
        }
        let nested = "[".repeat(MAX_DEPTH + 1) + &text + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&nested).is_err(), "accepted a value {} deep", MAX_DEPTH + 1);
    }
    // Both outcomes are exercised, or the mutations test nothing.
    assert!(parsed > 50 && refused > 50, "{parsed} mutants parsed, {refused} refused");
}

#[test]
fn the_deepest_allowed_document_round_trips() {
    let mut value = Value::Null;
    for depth in (0..MAX_DEPTH).rev() {
        value = if depth % 2 == 0 {
            Value::Array(vec![value])
        } else {
            Value::Object(vec![(HOSTILE.to_string(), value)])
        };
    }
    assert_stable(&value, "the deepest tree");
    assert!(parse(&format!("[{}]", encode(&value))).is_err());
}

#[test]
fn the_number_oracle_knows_the_grammar() {
    for good in ["0", "-0", "10", "-1.25e-3", "1E+2", "0e0", "5e-324", "1.0"] {
        assert!(rfc_number(good), "{good}");
    }
    for bad in ["01", "-01", "00", "1.", ".5", "-", "1e", "1e+", "1.e5", "+1", "1-2", "--1"] {
        assert!(!rfc_number(bad), "{bad}");
    }
    let text = r#"{"1.":-0.5,"a\\":[01,"x\"2",3e4]}"#;
    assert_eq!(number_tokens(text), ["-0.5", "01", "3e4"]);
}

#[test]
fn compact_output_reparses_byte_stable() {
    let source = r#"{"a":[1,-2,3.5,"x\ny",null,true],"b":{"c":[]},"d":"é"}"#;
    let parsed = from_str(source).unwrap();
    let rendered = encode(&parsed);
    assert_eq!(rendered, source);
    assert_eq!(from_str(&rendered).unwrap(), parsed);
}

/// Literals the writer would not produce itself, which the mutants above
/// can: `-0` is the float `-0.0` (as in real serde_json), not the integer
/// `0`, which would come back as `0`.
#[test]
fn edge_literals_survive_a_second_write() {
    for text in
        ["[-0]", "[-0.0,0,0.0]", "[-9223372036854775809]", "[18446744073709551616]", "[1e-400]"]
    {
        assert_stable(&parse(text).unwrap(), text);
    }
}
