//! Acronyms.
//!
//! Abbreviations (country codes, `Dept.` for `Department`, `NYC` for
//! `New York City`) are one of the inconsistency classes that defeat
//! equi-join Full Disjunction.  [`acronym`] gives the blocking keys an
//! initials key (so `NYC` and `New York City` share a block) and lets the
//! benchmark generator plant acronym pairs with gold labels.

use crate::tokenize::words;

/// The acronym of a multi-word string: first letter of every word, upper-cased.
pub fn acronym(s: &str) -> String {
    words(s).iter().filter_map(|w| w.chars().next()).collect::<String>().to_uppercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acronym_of_multiword() {
        assert_eq!(acronym("New York City"), "NYC");
        assert_eq!(acronym("united states"), "US");
        assert_eq!(acronym("Berlin"), "B");
        assert_eq!(acronym(""), "");
    }
}
