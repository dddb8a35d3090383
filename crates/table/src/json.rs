//! JSON text output: the workspace's one encoder.
//!
//! Every JSON document the workspace writes — each body `lake-serve`
//! serves and each `results/*.json` file of the experiment harness — is
//! streamed through a [`JsonWriter`] into one `String`.  Output is compact
//! (no whitespace), object keys come out in the order they are written,
//! and the two leaf rules are defined once here: [`write_escaped`] for
//! strings and [`write_f64`] for floats.  Parsing lives elsewhere (the
//! vendored `serde_json::from_str`); the workspace's round-trip tests hold
//! the two to each other.

// Every served body is written here, and a panic would kill the server's
// reader thread: the writer holds `lake-serve`'s request-path lints
// (docs/LINTS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt::{Display, Write as _};

use crate::value::Value;

/// Compact JSON streamed into one `String`.
///
/// A body is one object ([`object`](Self::object)) or one array
/// ([`array`](Self::array)), closed by [`finish`](Self::finish).  The only
/// other state is whether the next key or element needs a comma: a value
/// or a closed container is followed by one, a key or an opened container
/// is not.  Nothing checks that containers balance or that keys alternate
/// with values — callers write fixed shapes, and their tests parse every
/// body they produce.
pub struct JsonWriter {
    out: String,
    comma: bool,
    /// The bracket [`finish`](Self::finish) closes the body with.
    root: char,
    /// Reused by [`display`](Self::display), so formatting an id allocates
    /// nothing once the buffer has grown to the longest one.
    scratch: String,
}

impl JsonWriter {
    /// Opens a body that is one JSON object, sized for `bytes`.
    pub fn object(bytes: usize) -> Self {
        Self::open_root(bytes, '{', '}')
    }

    /// Opens a body that is one JSON array, sized for `bytes`.
    pub fn array(bytes: usize) -> Self {
        Self::open_root(bytes, '[', ']')
    }

    fn open_root(bytes: usize, open: char, root: char) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push(open);
        JsonWriter { out, comma: false, root, scratch: String::new() }
    }

    /// Closes the body and hands over its bytes.
    pub fn finish(mut self) -> String {
        self.close(self.root);
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object (`'{'`) or an array (`'['`).
    pub fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
    }

    /// Closes the innermost container with its `'}'` or `']'`.
    pub fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, name: &str) {
        self.separate();
        write_escaped(name, &mut self.out);
        self.out.push(':');
        self.comma = false;
    }

    /// A string value.
    pub fn string(&mut self, value: &str) {
        self.separate();
        write_escaped(value, &mut self.out);
    }

    /// A string value from its `Display` form, through the same escaper —
    /// a [`TupleId`](crate::TupleId) renders as `table#row`, and table
    /// names are user input.
    pub fn display(&mut self, value: &impl Display) {
        self.separate();
        self.scratch.clear();
        // Writing into a `String` cannot fail.
        let _ = write!(self.scratch, "{value}");
        write_escaped(&self.scratch, &mut self.out);
    }

    /// An integer value (`u64` or `i64`), in decimal.
    pub fn integer(&mut self, value: impl Display) {
        self.separate();
        let _ = write!(self.out, "{value}");
    }

    /// A float value in [`write_f64`]'s format (`null` if not finite).
    pub fn float(&mut self, value: f64) {
        self.separate();
        write_f64(value, &mut self.out);
    }

    /// `null`, `true` or `false`.
    pub fn literal(&mut self, text: &str) {
        self.separate();
        self.out.push_str(text);
    }

    /// `"name":value` for an unsigned counter.
    pub fn field(&mut self, name: &str, value: u64) {
        self.key(name);
        self.integer(value);
    }

    /// `"name":"value"` for a string.
    pub fn text(&mut self, name: &str, value: &str) {
        self.key(name);
        self.string(value);
    }

    /// `"name":value` for a float.
    pub fn number(&mut self, name: &str, value: f64) {
        self.key(name);
        self.float(value);
    }

    /// A workspace [`Value`] as a JSON cell.
    pub fn cell(&mut self, value: &Value) {
        match value {
            Value::Null => self.literal("null"),
            Value::Text(s) => self.string(s),
            Value::Int(i) => self.integer(*i),
            Value::Float(f) => self.float(*f),
            Value::Bool(b) => self.literal(if *b { "true" } else { "false" }),
        }
    }
}

/// Appends `f` in the encoder's float format: `{:?}`, which keeps a
/// trailing `.0` on integral floats and round-trips every finite value.
/// A non-finite float, which JSON cannot represent, becomes `null` rather
/// than poisoning a whole document.
pub fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// `\n` / `\r` / `\t` for those three, `\u00XX` for the other control
/// characters, everything else (non-ASCII included) verbatim.
///
/// Every byte that needs an escape is ASCII, so the scan is over bytes and
/// the runs between escapes are copied whole.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut copied = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_the_controls_the_quote_and_the_backslash_and_nothing_else() {
        let mut out = String::new();
        write_escaped("a\"b\\c\n\r\t\u{1}\u{1f}\u{7f}\u{2028}é😀", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\u{7f}\u{2028}é😀\"");
        for code in 0..0x80 {
            let text = char::from_u32(code).unwrap().to_string();
            out.clear();
            write_escaped(&text, &mut out);
            assert_eq!(serde_json::from_str(&out).unwrap().as_str(), Some(text.as_str()));
        }
    }

    #[test]
    fn floats_keep_fractional_marker() {
        let mut w = JsonWriter::array(16);
        for f in [1.0, 1.5, -0.0, 1e21, 5e-324] {
            w.float(f);
        }
        assert_eq!(w.finish(), "[1.0,1.5,-0.0,1e21,5e-324]");
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        let mut w = JsonWriter::object(32);
        w.number("nan", f64::NAN);
        w.key("cells");
        w.open('[');
        w.cell(&Value::Float(f64::INFINITY));
        w.cell(&Value::Float(f64::NEG_INFINITY));
        w.close(']');
        assert_eq!(w.finish(), r#"{"nan":null,"cells":[null,null]}"#);
    }

    #[test]
    fn commas_separate_values_and_never_follow_keys_or_openers() {
        let mut w = JsonWriter::object(64);
        w.field("n", 7);
        w.text("s", "x");
        w.key("a");
        w.open('[');
        w.open('{');
        w.close('}');
        w.open('[');
        w.close(']');
        w.integer(-1i64);
        w.literal("true");
        w.display(&crate::TupleId::new("t\"1", 2));
        w.close(']');
        for cell in [Value::Null, Value::text("é"), Value::Int(i64::MIN), Value::Bool(false)] {
            w.key("c");
            w.cell(&cell);
        }
        assert_eq!(
            w.finish(),
            r#"{"n":7,"s":"x","a":[{},[],-1,true,"t\"1#2"],"c":null,"c":"é","c":-9223372036854775808,"c":false}"#
        );
        assert_eq!(JsonWriter::array(0).finish(), "[]");
        assert_eq!(JsonWriter::object(0).finish(), "{}");
    }
}
