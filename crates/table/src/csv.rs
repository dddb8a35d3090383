//! Minimal CSV reader/writer.
//!
//! Implemented from scratch (no external dependency) and limited to what the
//! benchmark pipeline needs: RFC-4180-style quoting, embedded commas, quotes
//! and newlines inside quoted fields, CRLF tolerance.  The first record is
//! always treated as the header row.

use crate::error::{TableError, TableResult};
use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::value::Value;

/// Parses CSV text into a [`Table`].  The first record provides the column
/// headers; remaining records become rows whose cells are parsed with
/// [`Value::parse`].
pub fn parse_csv(name: impl Into<String>, text: &str) -> TableResult<Table> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header = iter.next().ok_or(TableError::Csv {
        line: 1,
        message: "input contains no header record".to_string(),
    })?;
    let schema = Schema::from_names(header.fields)?;
    let mut table = Table::new(name, schema);
    for record in iter {
        let row: Row = record.fields.iter().map(|f| Value::parse(f)).collect();
        if row.len() != table.num_columns() {
            return Err(TableError::Csv {
                line: record.line,
                message: format!(
                    "record has {} fields, header has {}",
                    row.len(),
                    table.num_columns()
                ),
            });
        }
        table.push_row(row)?;
    }
    table.infer_column_types();
    Ok(table)
}

/// Serialises a table to CSV text (header row first, `⊥`/null as empty field).
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    push_record(&mut out, table.schema().columns().iter().map(|c| c.name.as_str()));
    for row in table.rows() {
        push_record(&mut out, row.iter().map(Value::render));
    }
    out
}

/// Appends one record and its line break.  A record of one empty field
/// would otherwise be a blank line, which readers (including ours) treat as
/// "no record"; an empty quoted field keeps it — a lone null cell or a lone
/// empty header — observable.
fn push_record<S: AsRef<str>>(out: &mut String, fields: impl Iterator<Item = S>) {
    let start = out.len();
    for (i, field) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape_field(field.as_ref()));
    }
    if out.len() == start {
        out.push_str("\"\"");
    }
    out.push('\n');
}

fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

struct RawRecord {
    line: usize,
    fields: Vec<String>,
}

/// Splits CSV text into records of raw string fields, honouring quoting.
fn parse_records(text: &str) -> TableResult<Vec<RawRecord>> {
    let mut records = Vec::new();
    let mut fields: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut record_line = 1usize;
    let mut chars = text.chars().peekable();
    // Whether the current record contains any character at all (quotes
    // included); completely blank lines are skipped, but a record written as
    // `""` is a real one-field record.
    let mut record_started = false;

    while let Some(c) = chars.next() {
        if c != '\n' && c != '\r' {
            record_started = true;
        }
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                other => field.push(other),
            }
            continue;
        }
        match c {
            '"' => {
                if field.is_empty() {
                    in_quotes = true;
                } else {
                    // A quote in the middle of an unquoted field is kept
                    // verbatim; real data lake CSVs contain such artefacts.
                    field.push('"');
                }
            }
            ',' => {
                fields.push(std::mem::take(&mut field));
            }
            '\r' => {
                // swallow; handled by the following '\n' if present
            }
            '\n' => {
                fields.push(std::mem::take(&mut field));
                // Skip completely blank lines between records.
                if record_started {
                    records
                        .push(RawRecord { line: record_line, fields: std::mem::take(&mut fields) });
                } else {
                    fields.clear();
                }
                record_started = false;
                line += 1;
                record_line = line;
            }
            other => field.push(other),
        }
    }

    if in_quotes {
        return Err(TableError::Csv { line, message: "unterminated quoted field".to_string() });
    }
    if record_started {
        fields.push(field);
        records.push(RawRecord { line: record_line, fields });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;

    #[test]
    fn parses_simple_csv() {
        let text = "City,Country\nBerlin,Germany\nToronto,Canada\n";
        let t = parse_csv("covid", text).unwrap();
        assert_eq!(t.name(), "covid");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(1, 1), Some(&Value::text("Canada")));
    }

    #[test]
    fn parses_quoted_fields_with_commas_and_quotes() {
        let text = "name,quote\n\"Doe, Jane\",\"she said \"\"hi\"\"\"\n";
        let t = parse_csv("q", text).unwrap();
        assert_eq!(t.cell(0, 0), Some(&Value::text("Doe, Jane")));
        assert_eq!(t.cell(0, 1), Some(&Value::text("she said \"hi\"")));
    }

    #[test]
    fn parses_newline_inside_quotes() {
        let text = "a,b\n\"multi\nline\",2\n";
        let t = parse_csv("m", text).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.cell(0, 0), Some(&Value::text("multi\nline")));
        assert_eq!(t.cell(0, 1), Some(&Value::Int(2)));
    }

    #[test]
    fn tolerates_crlf_and_missing_trailing_newline() {
        let text = "a,b\r\n1,2\r\n3,4";
        let t = parse_csv("crlf", text).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(1, 1), Some(&Value::Int(4)));
    }

    #[test]
    fn empty_fields_become_null() {
        let text = "a,b\n,x\n";
        let t = parse_csv("n", text).unwrap();
        assert_eq!(t.cell(0, 0), Some(&Value::Null));
    }

    #[test]
    fn skips_blank_lines() {
        let text = "a,b\n1,2\n\n3,4\n\n";
        let t = parse_csv("blank", text).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn rejects_ragged_rows_and_unterminated_quotes() {
        assert!(parse_csv("r", "a,b\n1\n").is_err());
        assert!(parse_csv("u", "a,b\n\"oops,2\n").is_err());
        assert!(parse_csv("e", "").is_err());
    }

    #[test]
    fn round_trips_through_to_csv() {
        let t = TableBuilder::new("rt", ["name", "note"])
            .row(["Doe, Jane", "said \"hi\""])
            .row(["Plain", ""])
            .build()
            .unwrap();
        let text = to_csv(&t);
        let back = parse_csv("rt", &text).unwrap();
        assert_eq!(back.num_rows(), 2);
        assert_eq!(back.cell(0, 0), Some(&Value::text("Doe, Jane")));
        assert_eq!(back.cell(0, 1), Some(&Value::text("said \"hi\"")));
        assert_eq!(back.cell(1, 1), Some(&Value::Null));
    }
}
