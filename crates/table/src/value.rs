//! Typed cell values.
//!
//! Every cell of a table holds a [`Value`].  Values are hashable and totally
//! ordered so they can key hash maps (join indexes, distinct-value counts)
//! and be sorted deterministically for reproducible output.  Floats are
//! compared and hashed through their canonicalised bit pattern so `NaN`
//! cannot break map invariants.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single typed cell value.
///
/// `Null` represents a missing value, either because the source table had an
/// empty cell or because the tuple was padded during outer union / Full
/// Disjunction.  The integration operators in `lake-fd` treat `Null` as
/// "unknown": it never joins with anything and is subsumed by any non-null
/// value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing / unknown value (the `⊥` of the paper's Figure 1).
    Null,
    /// Free text.  The most common cell type in data lake tables.
    Text(String),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Returns `true` when the value is missing.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` when the value is present (not null).
    pub fn is_present(&self) -> bool {
        !self.is_null()
    }

    /// Builds a text value from anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Returns the textual content if the value is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the integer content if the value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean content if the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value the way it is matched and embedded: nulls become the
    /// empty string, everything else its display form.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Text(s) => Cow::Borrowed(s.as_str()),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => Cow::Owned(format_float(*f)),
            Value::Bool(b) => Cow::Owned(b.to_string()),
        }
    }

    /// Parses a raw CSV field into the most specific value type.
    ///
    /// Empty strings and a handful of conventional null markers become
    /// [`Value::Null`]; integers and floats are recognised when the whole
    /// field parses; everything else stays text (leading/trailing whitespace
    /// preserved, since some benchmarks treat it as signal).
    pub fn parse(raw: &str) -> Self {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        let lowered = trimmed.to_ascii_lowercase();
        if matches!(lowered.as_str(), "null" | "nan" | "\\n" | "n/a" | "na" | "none" | "⊥") {
            return Value::Null;
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            if f.is_finite() {
                return Value::Float(f);
            }
        }
        if lowered == "true" {
            return Value::Bool(true);
        }
        if lowered == "false" {
            return Value::Bool(false);
        }
        Value::Text(raw.to_string())
    }

    /// Canonical ordering rank per variant, used by [`Ord`].
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
        }
    }

    /// Canonicalised bit pattern used to hash/compare floats: collapses all
    /// NaNs to one pattern and `-0.0` to `0.0`.
    fn float_bits(f: f64) -> u64 {
        if f.is_nan() {
            u64::MAX
        } else if f == 0.0 {
            0u64
        } else {
            f.to_bits()
        }
    }
}

/// Formats a float so that [`Value::parse`] reads it back as the same float:
/// `Display` (shortest round-trip digits, never scientific notation), plus a
/// `.0` on an integral value (`3.0` rather than `3`, which would read back as
/// an integer).
fn format_float(f: f64) -> String {
    if f.fract() == 0.0 {
        format!("{f}.0")
    } else {
        format!("{f}")
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Value::float_bits(*a) == Value::float_bits(*b),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Text(s) => s.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => Value::float_bits(*f).hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => Value::float_bits(*a).cmp(&Value::float_bits(*b)),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "⊥"),
            other => write!(f, "{}", other.render()),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(opt: Option<T>) -> Self {
        match opt {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn null_detection() {
        assert!(Value::Null.is_null());
        assert!(!Value::text("x").is_null());
        assert!(Value::text("x").is_present());
    }

    #[test]
    fn parse_recognises_types() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-7"), Value::Int(-7));
        assert_eq!(Value::parse("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse("true"), Value::Bool(true));
        assert_eq!(Value::parse("False"), Value::Bool(false));
        assert_eq!(Value::parse("Berlin"), Value::text("Berlin"));
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("  "), Value::Null);
        assert_eq!(Value::parse("N/A"), Value::Null);
        assert_eq!(Value::parse("null"), Value::Null);
    }

    #[test]
    fn parse_keeps_mixed_text() {
        assert_eq!(Value::parse("83%"), Value::text("83%"));
        assert_eq!(Value::parse("1.4M"), Value::text("1.4M"));
    }

    #[test]
    fn render_round_trip_for_text() {
        let v = Value::text("New Delhi");
        assert_eq!(v.render(), "New Delhi");
        assert_eq!(Value::Null.render(), "");
    }

    #[test]
    fn float_equality_is_bitwise_canonical() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_ne!(Value::Float(1.0), Value::Float(2.0));
    }

    #[test]
    fn values_usable_as_hash_keys() {
        let mut counts: HashMap<Value, usize> = HashMap::new();
        for v in [
            Value::text("Berlin"),
            Value::text("Berlin"),
            Value::Int(3),
            Value::Float(3.0),
            Value::Null,
        ] {
            *counts.entry(v).or_default() += 1;
        }
        assert_eq!(counts[&Value::text("Berlin")], 2);
        assert_eq!(counts[&Value::Int(3)], 1);
        assert_eq!(counts[&Value::Float(3.0)], 1);
        assert_eq!(counts[&Value::Null], 1);
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut vals = [
            Value::text("b"),
            Value::Null,
            Value::Int(10),
            Value::text("a"),
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[vals.len() - 1], Value::text("b"));
    }

    #[test]
    fn display_uses_bottom_for_null() {
        assert_eq!(Value::Null.to_string(), "⊥");
        assert_eq!(Value::text("Boston").to_string(), "Boston");
        assert_eq!(Value::Int(263).to_string(), "263");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(2.0f64), Value::Float(2.0));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert_eq!(Value::from(Some("y")), Value::text("y"));
    }

    #[test]
    fn int_and_float_are_distinct_values() {
        // Equi-joins must not silently unify 3 and 3.0; fuzzy matching may.
        assert_ne!(Value::Int(3), Value::Float(3.0));
    }
}
