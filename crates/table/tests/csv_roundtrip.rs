//! Property-based tests for the table substrate: CSV round-trips, projection
//! invariants and substitution behaviour on arbitrary generated tables.

use lake_table::{csv, Schema, Table, Value};
use proptest::prelude::*;

/// Text cells that survive CSV round-trips without being re-typed: non-empty
/// alphabetic-ish strings possibly containing the characters that exercise
/// quoting (commas, quotes, spaces).
fn text_cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z ,\"']{0,14}[A-Za-z]")
        .expect("valid regex")
        .prop_filter("must re-parse as text (not a null/bool marker)", |s| {
            matches!(Value::parse(s), Value::Text(_))
        })
}

fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => text_cell().prop_map(Value::Text),
        2 => any::<i32>().prop_map(|i| Value::Int(i as i64)),
        1 => Just(Value::Null),
        1 => any::<bool>().prop_map(Value::Bool),
    ]
}

fn table_strategy() -> impl Strategy<Value = Table> {
    (1usize..=4, 0usize..=6).prop_flat_map(|(cols, rows)| {
        let names: Vec<String> = (0..cols).map(|c| format!("col{c}")).collect();
        prop::collection::vec(prop::collection::vec(cell(), cols), rows).prop_map(move |data| {
            let schema = Schema::from_names(names.clone()).expect("unique names");
            let mut table = Table::new("generated", schema);
            for row in data {
                table.push_row(row).expect("arity matches");
            }
            table.infer_column_types();
            table
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Writing a table to CSV and parsing it back preserves shape and cells.
    #[test]
    fn csv_round_trip_preserves_cells(table in table_strategy()) {
        let text = csv::to_csv(&table);
        let parsed = csv::parse_csv("generated", &text).expect("re-parse generated CSV");
        prop_assert_eq!(parsed.num_rows(), table.num_rows());
        prop_assert_eq!(parsed.num_columns(), table.num_columns());
        for (r, row) in table.rows().iter().enumerate() {
            for (c, original) in row.iter().enumerate() {
                let reparsed = parsed.cell(r, c).expect("cell exists");
                match original {
                    // Booleans re-parse as booleans, text as identical text.
                    Value::Text(s) => prop_assert_eq!(reparsed.as_text(), Some(s.as_str())),
                    Value::Int(i) => prop_assert_eq!(reparsed.as_int(), Some(*i)),
                    Value::Bool(b) => prop_assert_eq!(reparsed.as_bool(), Some(*b)),
                    Value::Null => prop_assert!(reparsed.is_null()),
                    Value::Float(_) => unreachable!("strategy does not generate floats"),
                }
            }
        }
    }

    /// Projection keeps row count and column order.
    #[test]
    fn projection_preserves_rows_and_order(table in table_strategy()) {
        prop_assume!(table.num_columns() >= 2);
        let last = table.num_columns() - 1;
        let projected = table.project(&[last, 0]).expect("valid projection");
        prop_assert_eq!(projected.num_rows(), table.num_rows());
        prop_assert_eq!(projected.num_columns(), 2);
        for (r, row) in table.rows().iter().enumerate() {
            prop_assert_eq!(projected.cell(r, 0), Some(&row[last]));
            prop_assert_eq!(projected.cell(r, 1), Some(&row[0]));
        }
    }

    /// Substituting with an empty mapping never changes anything; substituting
    /// a value for itself reports zero replacements.
    #[test]
    fn substitution_identities(table in table_strategy()) {
        let mut copy = table.clone();
        let empty = std::collections::HashMap::new();
        let replaced = copy.substitute_column(0, &empty).expect("column 0 exists");
        prop_assert_eq!(replaced, 0);
        prop_assert_eq!(&copy, &table);

        let identity: std::collections::HashMap<Value, Value> = table
            .distinct_values(0)
            .expect("column 0 exists")
            .into_iter()
            .map(|v| (v.clone(), v))
            .collect();
        let replaced = copy.substitute_column(0, &identity).expect("column 0 exists");
        prop_assert_eq!(replaced, 0);
        prop_assert_eq!(&copy, &table);
    }
}

// ---------------------------------------------------------------------------
// Mutation harness: the writer and the reader, held to each other.
//
// Seeded tables of every cell type, with headers and text that need quoting,
// are written through `to_csv` and must parse back through `parse_csv` to an
// equal table.  Then the text is mutated — truncated, spliced, bit-flipped,
// a quote or a line break injected — and every mutant that is still UTF-8
// goes to the parser, which must not panic: it returns an error or a table,
// and a table must survive a second write and parse unchanged.

use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// What the quoting rules have to get right, plus plain letters and digits.
const ALPHABET: &[char] =
    &['a', 'B', 'z', '7', ',', '"', '\n', '\r', ' ', '\t', 'é', '\u{2028}', '⊥', '\u{1F600}'];

fn string(rng: &mut SplitMix) -> String {
    (0..rng.below(8)).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect()
}

/// A cell of any type.  Text is drawn until it is text a CSV field can
/// carry: a field is typed by `Value::parse`, so `"12"` is an integer and
/// `" "` a null, whatever cell was written.
fn random_cell(rng: &mut SplitMix) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(rng.next() as i64 >> rng.below(64)),
        3 => loop {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                break Value::Float(f);
            }
        },
        _ => loop {
            let text = string(rng);
            if Value::parse(&text) == Value::Text(text.clone()) {
                break Value::Text(text);
            }
        },
    }
}

/// A table of 1–4 distinctly named columns and 0–6 rows, column types
/// inferred as `parse_csv` infers them.
fn random_table(rng: &mut SplitMix) -> Table {
    let mut names: Vec<String> = Vec::new();
    while names.len() < 1 + rng.below(4) {
        let name = string(rng);
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut table = Table::new("mutated", Schema::from_names(names).expect("distinct names"));
    for _ in 0..rng.below(7) {
        let row = (0..table.num_columns()).map(|_| random_cell(rng)).collect();
        table.push_row(row).expect("arity matches");
    }
    table.infer_column_types();
    table
}

/// Parses `text`, naming it if the parser panics.
fn parse(text: &str) -> lake_table::TableResult<Table> {
    catch_unwind(AssertUnwindSafe(|| csv::parse_csv("mutated", text)))
        .unwrap_or_else(|_| panic!("parse_csv panicked on {text:?}"))
}

/// `table` through the writer and back, which must give it back unchanged.
fn assert_round_trip(table: &Table, from: &str) {
    let text = csv::to_csv(table);
    let back = parse(&text).unwrap_or_else(|err| panic!("{err}: {text:?} (from {from:?})"));
    assert_eq!(&back, table, "{text:?} (from {from:?})");
}

/// Mutants of `text` that are still UTF-8 (`parse_csv` takes `&str`).
fn mutants(rng: &mut SplitMix, text: &str) -> Vec<String> {
    const NOISE: &[u8] = b",\"\"\r\n\n a7\t\xc3\xa9";
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    out.push(bytes[..rng.below(bytes.len())].to_vec());
    let mut spliced = bytes.to_vec();
    let at = rng.below(bytes.len());
    let cut = (at + rng.below(8)).min(spliced.len());
    let noise: Vec<u8> = (0..rng.below(6)).map(|_| NOISE[rng.below(NOISE.len())]).collect();
    spliced.splice(at..cut, noise);
    out.push(spliced);
    let mut flipped = bytes.to_vec();
    flipped[rng.below(bytes.len())] ^= 1 << rng.below(8);
    out.push(flipped);
    for injected in [&b"\""[..], b"\r", b"\n", b"\r\n"] {
        let mut with = bytes.to_vec();
        let at = rng.below(bytes.len() + 1);
        with.splice(at..at, injected.iter().copied());
        out.push(with);
    }
    out.into_iter().filter_map(|mutant| String::from_utf8(mutant).ok()).collect()
}

#[test]
fn generated_tables_round_trip_and_their_mutants_never_panic_the_parser() {
    let mut rng = SplitMix(0xC5F_2026);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..600 {
        let table = random_table(&mut rng);
        assert_round_trip(&table, "a generated table");
        for mutant in mutants(&mut rng, &csv::to_csv(&table)) {
            match parse(&mutant) {
                Ok(table) => {
                    parsed += 1;
                    assert_round_trip(&table, &mutant);
                }
                Err(_) => refused += 1,
            }
        }
    }
    // Both outcomes are exercised, or the mutations test nothing.
    assert!(parsed > 500 && refused > 500, "{parsed} mutants parsed, {refused} refused");
}

/// A one-column table, types inferred.
fn column_table(name: &str, cells: Vec<Value>) -> Table {
    let mut table = Table::new("mutated", Schema::from_names([name]).expect("one name"));
    for cell in cells {
        table.push_row(vec![cell]).expect("one cell");
    }
    table.infer_column_types();
    table
}

/// Found by the harness: a lone empty header was written as a blank line,
/// which the reader skips, so the first row became the header.
#[test]
fn a_lone_empty_header_round_trips() {
    assert_round_trip(&column_table("", vec![Value::Bool(true), Value::Null]), "empty header");
    assert_round_trip(&column_table("", Vec::new()), "empty header, no rows");
}

/// Found by the harness: `Value::render` writes an integral float from 1e15
/// up without a fraction, which read back as an integer.
#[test]
fn integral_floats_from_1e15_up_read_back_as_floats() {
    let floats = [7_996_420_023_888_329.0, -1e15, 1e15 - 1.0, 9.3e18, 1.706_449_278_085_386_8e68];
    let cells = floats.into_iter().map(Value::Float).collect();
    assert_round_trip(&column_table("f", cells), "integral floats");
}
