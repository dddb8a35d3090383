//! Tokenisation: words and character n-grams.

use crate::scan::TextScanner;

fn scan(s: &str) -> TextScanner {
    let mut scanner = TextScanner::new();
    scanner.load(s);
    scanner
}

fn strings<'a>(slices: impl Iterator<Item = &'a [char]>) -> Vec<String> {
    slices.map(|slice| slice.iter().collect()).collect()
}

/// Splits a string into lower-cased word tokens (alphanumeric runs).
pub fn words(s: &str) -> Vec<String> {
    strings(scan(s).words())
}

/// Character n-grams of the normalised string (no padding).  Strings shorter
/// than `n` produce a single n-gram equal to the whole string.
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    strings(scan(s).ngrams(n))
}

/// Character n-grams with boundary padding (`^`/`$`), the representation used
/// by the FastText-style hashing embedder.  Padding makes prefixes and
/// suffixes distinctive, which helps abbreviation matching.
pub fn padded_char_ngrams(s: &str, n: usize) -> Vec<String> {
    strings(scan(s).padded_ngrams(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_split_on_non_alphanumeric() {
        assert_eq!(words("New Delhi"), vec!["new", "delhi"]);
        assert_eq!(words("rock-n-roll"), vec!["rock", "n", "roll"]);
        assert_eq!(words("  "), Vec::<String>::new());
        assert_eq!(words("U.S."), vec!["u", "s"]);
    }

    #[test]
    fn char_ngrams_basic() {
        assert_eq!(char_ngrams("abc", 2), vec!["ab", "bc"]);
        assert_eq!(char_ngrams("a", 2), vec!["a"]);
        assert_eq!(char_ngrams("", 2), Vec::<String>::new());
        assert_eq!(char_ngrams("AbC", 3), vec!["abc"]);
    }

    #[test]
    fn padded_ngrams_mark_boundaries() {
        let grams = padded_char_ngrams("ab", 3);
        assert_eq!(grams, vec!["^ab", "ab$"]);
        assert_eq!(padded_char_ngrams("", 3), Vec::<String>::new());
        // Very short strings still produce a gram.
        assert_eq!(padded_char_ngrams("a", 4), vec!["^a$"]);
    }

    #[test]
    fn ngram_count_matches_length() {
        let s = "berlin";
        let grams = char_ngrams(s, 3);
        assert_eq!(grams.len(), s.len() - 3 + 1);
        let padded = padded_char_ngrams(s, 3);
        assert_eq!(padded.len(), s.len() + 2 - 3 + 1);
    }
}
