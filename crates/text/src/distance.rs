//! Classical string similarity / distance measures.
//!
//! All similarity functions return values in `[0, 1]` where `1` means
//! identical.  [`levenshtein`] returns the raw edit distance; use
//! [`levenshtein_similarity`] for the normalised form.

use crate::tokenize::words;

/// Levenshtein edit distance (insertions, deletions, substitutions), computed
/// over Unicode scalar values with the classic two-row dynamic program.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Levenshtein similarity: `1 - dist / max_len` (1.0 for two empty strings).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut a_matched = vec![false; a.len()];
    let mut b_matched = vec![false; b.len()];
    let mut matches = 0usize;

    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == *ca {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // transpositions
    let mut transpositions = 0usize;
    let mut k = 0usize;
    for (i, &matched) in a_matched.iter().enumerate() {
        if matched {
            while !b_matched[k] {
                k += 1;
            }
            if a[i] != b[k] {
                transpositions += 1;
            }
            k += 1;
        }
    }
    let m = matches as f64;
    let t = transpositions as f64 / 2.0;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro–Winkler similarity with the standard scaling factor 0.1 and a common
/// prefix bounded at 4 characters.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let base = jaro(a, b);
    let prefix = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count();
    base + prefix as f64 * 0.1 * (1.0 - base)
}

/// Monge–Elkan similarity: average, over the words of `a`, of the best
/// Jaro–Winkler similarity to any word of `b`.  Tolerant of word reordering
/// and missing tokens, which makes it a good attribute scorer for entity
/// matching.  Note that the measure is *directional* (`a` against `b`);
/// callers that need symmetry should average both directions, as the entity
/// matcher in `lake-em` does.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    let wa = words(a);
    let wb = words(b);
    if wa.is_empty() && wb.is_empty() {
        return 1.0;
    }
    if wa.is_empty() || wb.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for ta in &wa {
        let best = wb.iter().map(|tb| jaro_winkler(ta, tb)).fold(0.0, f64::max);
        total += best;
    }
    total / wa.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("Berlinn", "Berlin"), 1);
    }

    #[test]
    fn levenshtein_similarity_normalised() {
        assert!((levenshtein_similarity("", "") - 1.0).abs() < 1e-12);
        assert!(levenshtein_similarity("Berlinn", "Berlin") > 0.85);
        assert!(levenshtein_similarity("Berlin", "Toronto") < 0.3);
    }

    #[test]
    fn jaro_and_winkler() {
        assert!((jaro("martha", "marhta") - 0.944).abs() < 0.01);
        assert!((jaro_winkler("martha", "marhta") - 0.961).abs() < 0.01);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert!(jaro_winkler("dixon", "dicksonx") > 0.75);
        // Winkler boosts shared prefixes.
        assert!(jaro_winkler("prefix", "prefixx") >= jaro("prefix", "prefixx"));
    }

    #[test]
    fn monge_elkan_handles_reordering() {
        let s = monge_elkan("Jane Doe", "Doe, Jane");
        assert!(s > 0.95, "got {s}");
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(monge_elkan("x", ""), 0.0);
    }

    #[test]
    fn similarities_are_symmetric_and_bounded() {
        let pairs = [
            ("Berlin", "Berlinn"),
            ("CA", "Canada"),
            ("New Delhi", "Delhi"),
            ("", "x"),
            ("same", "same"),
        ];
        for (a, b) in pairs {
            for f in [levenshtein_similarity, jaro, jaro_winkler] {
                let ab = f(a, b);
                let ba = f(b, a);
                assert!((0.0..=1.0 + 1e-12).contains(&ab), "{a} {b} out of range: {ab}");
                assert!((ab - ba).abs() < 1e-9, "asymmetric for {a},{b}");
            }
            // Monge–Elkan is directional by definition; check only the range.
            let me = monge_elkan(a, b);
            assert!((0.0..=1.0 + 1e-12).contains(&me));
        }
    }

    #[test]
    fn identical_strings_have_similarity_one() {
        for s in ["Berlin", "a", "New Delhi", "83%"] {
            assert!((levenshtein_similarity(s, s) - 1.0).abs() < 1e-12);
            assert!((jaro_winkler(s, s) - 1.0).abs() < 1e-12);
            assert!((monge_elkan(s, s) - 1.0).abs() < 1e-12);
        }
    }
}
