//! String normalisation.
//!
//! Data lake cell values disagree on case, spacing, punctuation and
//! diacritics long before they disagree on meaning.  Normalisation is applied
//! before tokenisation/embedding so that those surface differences do not
//! dominate the distance signal.

/// Standard normalisation: lower-case, trim, collapse internal whitespace.
/// Punctuation is preserved (it can carry signal, e.g. `"U.S."`).
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_chars(s.chars(), |c| out.push(c));
    out
}

/// The streaming form of [`normalize`]: feeds the normalised text to `push`
/// one `char` at a time, so callers can fill a reusable buffer instead of
/// allocating a `String` per value ([`TextScanner`](crate::TextScanner) does).
pub fn normalize_chars(chars: impl IntoIterator<Item = char>, mut push: impl FnMut(char)) {
    let mut started = false;
    // A whitespace run becomes one space, emitted only once a later
    // non-space character proves the run is internal rather than trailing.
    let mut pending_space = false;
    for c in chars {
        if c.is_whitespace() {
            pending_space = started;
        } else {
            if pending_space {
                push(' ');
                pending_space = false;
            }
            c.to_lowercase().for_each(&mut push);
            started = true;
        }
    }
}

/// Aggressive normalisation: [`normalize`] plus punctuation removal and ASCII
/// folding of common accented Latin characters.  Used for blocking keys.
pub fn normalize_aggressive(s: &str) -> String {
    let folded = fold_ascii(s);
    let mut out = String::with_capacity(folded.len());
    let mut last_was_space = true;
    for c in folded.chars() {
        if c.is_alphanumeric() {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            last_was_space = false;
        } else if !last_was_space {
            out.push(' ');
            last_was_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Folds common accented Latin characters to their ASCII base letter.
/// This is a pragmatic table-driven fold, not full Unicode normalisation.
pub fn fold_ascii(s: &str) -> String {
    s.chars().map(fold_char).collect()
}

fn fold_char(c: char) -> char {
    match c {
        'á' | 'à' | 'â' | 'ä' | 'ã' | 'å' | 'ā' => 'a',
        'Á' | 'À' | 'Â' | 'Ä' | 'Ã' | 'Å' | 'Ā' => 'A',
        'é' | 'è' | 'ê' | 'ë' | 'ē' | 'ė' => 'e',
        'É' | 'È' | 'Ê' | 'Ë' | 'Ē' => 'E',
        'í' | 'ì' | 'î' | 'ï' | 'ī' => 'i',
        'Í' | 'Ì' | 'Î' | 'Ï' => 'I',
        'ó' | 'ò' | 'ô' | 'ö' | 'õ' | 'ø' | 'ō' => 'o',
        'Ó' | 'Ò' | 'Ô' | 'Ö' | 'Õ' | 'Ø' => 'O',
        'ú' | 'ù' | 'û' | 'ü' | 'ū' => 'u',
        'Ú' | 'Ù' | 'Û' | 'Ü' => 'U',
        'ç' => 'c',
        'Ç' => 'C',
        'ñ' => 'n',
        'Ñ' => 'N',
        'ß' => 's',
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases_and_collapses_space() {
        assert_eq!(normalize("  New   Delhi "), "new delhi");
        assert_eq!(normalize("BERLIN"), "berlin");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   "), "");
    }

    #[test]
    fn normalize_keeps_punctuation() {
        assert_eq!(normalize("U.S."), "u.s.");
        assert_eq!(normalize("rock-n-roll"), "rock-n-roll");
    }

    #[test]
    fn aggressive_strips_punctuation() {
        assert_eq!(normalize_aggressive("U.S."), "u s");
        assert_eq!(normalize_aggressive("Jean-Luc  Picard!"), "jean luc picard");
        assert_eq!(normalize_aggressive("--"), "");
    }

    #[test]
    fn ascii_folding() {
        assert_eq!(fold_ascii("Zürich"), "Zurich");
        assert_eq!(fold_ascii("São Paulo"), "Sao Paulo");
        assert_eq!(fold_ascii("Москва"), "Москва"); // non-Latin untouched
        assert_eq!(normalize_aggressive("Zürich"), "zurich");
    }

    #[test]
    fn normalization_is_idempotent() {
        for s in ["  Foo  BAR  ", "U.S.", "Zürich", "hello world"] {
            let once = normalize(s);
            assert_eq!(normalize(&once), once);
            let agg = normalize_aggressive(s);
            assert_eq!(normalize_aggressive(&agg), agg);
        }
    }
}
