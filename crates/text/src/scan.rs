//! Allocation-free tokenisation over a reusable buffer.
//!
//! [`TextScanner`] normalises a value once into a `char` buffer it keeps
//! between values and hands out padded n-gram windows and word runs as
//! `&[char]` slices of that buffer.  It is the one implementation behind
//! [`words`](crate::words), [`char_ngrams`](crate::char_ngrams) and
//! [`padded_char_ngrams`](crate::padded_char_ngrams) (which collect its slices
//! into `String`s) and the form the embedding kernel in `lake-embed` consumes
//! directly: once the buffer has grown to the longest value seen, scanning a
//! value allocates nothing.

use std::ops::Range;
use std::slice::Windows;

use crate::normalize::normalize_chars;

/// A reusable normalise-and-tokenise buffer; see the module docs.
///
/// ```
/// use lake_text::TextScanner;
///
/// let mut scanner = TextScanner::new();
/// scanner.load("  New   DELHI ");
/// assert_eq!(scanner.normalized().iter().collect::<String>(), "new delhi");
/// let words: Vec<String> = scanner.words().map(|w| w.iter().collect()).collect();
/// assert_eq!(words, ["new", "delhi"]);
/// let first: String = scanner.padded_ngrams(3).next().unwrap().iter().collect();
/// assert_eq!(first, "^ne");
/// ```
#[derive(Debug, Clone)]
pub struct TextScanner {
    /// `^`, the normalised text, `$`.
    padded: Vec<char>,
    /// The alphanumeric runs of the normalised text, as ranges of `padded`.
    words: Vec<Range<usize>>,
}

impl TextScanner {
    /// A scanner holding the empty value.
    pub fn new() -> Self {
        TextScanner { padded: vec!['^', '$'], words: Vec::new() }
    }

    /// Replaces the held value with `value`, normalised
    /// ([`normalize`](crate::normalize())) and tokenised.
    pub fn load(&mut self, value: &str) {
        let TextScanner { padded, words } = self;
        padded.clear();
        words.clear();
        padded.push('^');
        let mut word_start = None;
        normalize_chars(value.chars(), |c| {
            if c.is_alphanumeric() {
                word_start.get_or_insert(padded.len());
            } else if let Some(start) = word_start.take() {
                words.push(start..padded.len());
            }
            padded.push(c);
        });
        if let Some(start) = word_start {
            words.push(start..padded.len());
        }
        padded.push('$');
    }

    /// The normalised text.
    pub fn normalized(&self) -> &[char] {
        &self.padded[1..self.padded.len() - 1]
    }

    /// The word tokens (alphanumeric runs) of the normalised text, in order.
    pub fn words(&self) -> impl ExactSizeIterator<Item = &[char]> + Clone {
        self.words.iter().map(|range| &self.padded[range.clone()])
    }

    /// Character `n`-grams of the normalised text without padding.  A text
    /// shorter than `n` yields itself as its one gram; an empty text or
    /// `n == 0` yields nothing.
    pub fn ngrams(&self, n: usize) -> Windows<'_, char> {
        windows_or_whole(self.normalized(), n)
    }

    /// Character `n`-grams of the normalised text between its `^` / `$`
    /// boundary markers, with the same short / empty rules as
    /// [`ngrams`](Self::ngrams) (an empty text has no grams, padded or not).
    pub fn padded_ngrams(&self, n: usize) -> Windows<'_, char> {
        let padded = if self.normalized().is_empty() { &[] } else { self.padded.as_slice() };
        windows_or_whole(padded, n)
    }
}

impl Default for TextScanner {
    fn default() -> Self {
        TextScanner::new()
    }
}

fn windows_or_whole(chars: &[char], n: usize) -> Windows<'_, char> {
    let chars = if n == 0 { &chars[..0] } else { chars };
    // `windows(len)` over a non-empty slice is the slice itself, once.
    chars.windows(n.min(chars.len()).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings<'a>(slices: impl Iterator<Item = &'a [char]>) -> Vec<String> {
        slices.map(|s| s.iter().collect()).collect()
    }

    #[test]
    fn reloading_replaces_the_previous_value() {
        let mut scanner = TextScanner::new();
        assert!(scanner.normalized().is_empty());
        assert_eq!(scanner.padded_ngrams(2).count(), 0);
        scanner.load("rock-n-roll, baby");
        assert_eq!(strings(scanner.words()), ["rock", "n", "roll", "baby"]);
        scanner.load("U.S.");
        assert_eq!(strings(scanner.words()), ["u", "s"]);
        assert_eq!(strings(scanner.padded_ngrams(4)), ["^u.s", "u.s.", ".s.$"]);
        scanner.load(" \t ");
        assert_eq!(scanner.words().len(), 0);
        assert_eq!(scanner.ngrams(2).count() + scanner.padded_ngrams(2).count(), 0);
    }

    #[test]
    fn case_expanding_characters_are_tokenised_after_lowercasing() {
        // 'İ' lower-cases to 'i' plus a combining dot, which is not
        // alphanumeric and therefore ends the word.
        let mut scanner = TextScanner::new();
        scanner.load("İstanbul");
        assert_eq!(strings(scanner.words()), ["i", "stanbul"]);
        assert_eq!(scanner.normalized().len(), "İstanbul".chars().count() + 1);
    }

    #[test]
    fn short_values_yield_one_whole_gram() {
        let mut scanner = TextScanner::new();
        scanner.load("a");
        assert_eq!(strings(scanner.ngrams(3)), ["a"]);
        assert_eq!(strings(scanner.padded_ngrams(4)), ["^a$"]);
        assert_eq!(scanner.ngrams(0).count() + scanner.padded_ngrams(0).count(), 0);
    }
}
