//! Plain-text report tables for the experiment harness binaries.

/// One row of an experiment report: a label and a list of already-formatted
/// cell values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportRow {
    /// Row label (e.g. the embedding model name).
    pub label: String,
    /// Cell values (e.g. formatted precision / recall / F1).
    pub cells: Vec<String>,
}

impl ReportRow {
    /// Creates a row.
    pub fn new(label: impl Into<String>, cells: Vec<String>) -> Self {
        ReportRow { label: label.into(), cells }
    }
}

/// Renders a report as an aligned plain-text table, in the style of the
/// paper's tables: a header row, a separator and one row per entry.
pub fn format_table(title: &str, headers: &[&str], rows: &[ReportRow]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        if widths.is_empty() {
            widths.push(0);
        }
        widths[0] = widths[0].max(row.label.chars().count());
        for (i, cell) in row.cells.iter().enumerate() {
            let col = i + 1;
            if col >= widths.len() {
                widths.push(cell.chars().count());
            } else {
                widths[col] = widths[col].max(cell.chars().count());
            }
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    // Header
    let mut header_line = String::new();
    for (i, h) in headers.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(h.len());
        header_line.push_str(&format!("{:<w$}  ", h, w = w));
    }
    out.push_str(header_line.trim_end());
    out.push('\n');
    let total: usize = widths.iter().map(|w| w + 2).sum();
    out.push_str(&"-".repeat(total.max(header_line.trim_end().len())));
    out.push('\n');
    // Rows
    for row in rows {
        let mut line = String::new();
        line.push_str(&format!("{:<w$}  ", row.label, w = widths[0]));
        for (i, cell) in row.cells.iter().enumerate() {
            let w = widths.get(i + 1).copied().unwrap_or(cell.len());
            line.push_str(&format!("{:<w$}  ", cell, w = w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_aligned_table() {
        let rows = vec![
            ReportRow::new("FastText", vec!["0.70".into(), "0.67".into(), "0.66".into()]),
            ReportRow::new("Mistral", vec!["0.81".into(), "0.86".into(), "0.82".into()]),
        ];
        let text = format_table(
            "Table 1: Value Matching effectiveness",
            &["Model", "Precision", "Recall", "F1-Score"],
            &rows,
        );
        assert!(text.contains("Table 1"));
        assert!(text.contains("FastText"));
        assert!(text.contains("Precision"));
        // All data rows present.
        assert_eq!(text.lines().count(), 1 + 1 + 1 + 2);
    }

    #[test]
    fn handles_rows_wider_than_headers() {
        let rows = vec![ReportRow::new("x", vec!["1".into(), "2".into(), "3".into()])];
        let text = format_table("t", &["Model"], &rows);
        assert!(text.contains("1"));
        assert!(text.contains("3"));
    }

    #[test]
    fn empty_rows_table_is_still_valid() {
        let text = format_table("empty", &["A", "B"], &[]);
        assert!(text.starts_with("empty"));
        assert!(text.contains("A"));
    }
}
