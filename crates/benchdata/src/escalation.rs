//! Lake-scale escalation fold: the workload behind `lakebench`'s
//! `escalation_fold` and the escalated-tier equivalence tests.
//!
//! The escalated ANN tier of `fuzzy-fd-core::blocking` exists for folds far
//! past the Auto-Join scale — key-like columns with a thousand or more
//! distinct, mostly well-separated values (names, identifiers, titles),
//! where the exact O(n²) distance sweep dominates the matching cost.  This
//! generator synthesises exactly that shape: one canonical column of
//! distinctive pseudo-word entities and one noisy column holding a surface
//! variant (typo, case change, doubled letter) of most of them, plus a tail
//! of unrelated values that must stay unmatched.
//!
//! Entities are composed from consonant-vowel syllables drawn from a seeded
//! generator, so distinct entities share almost no character n-grams and
//! their embeddings are far apart — the regime where sub-quadratic candidate
//! generation pays.  Everything is deterministic given the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the escalation fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationFoldConfig {
    /// Number of entities in the canonical column.
    pub entities: usize,
    /// Per-entity probability of appearing (as a variant) in the noisy
    /// column, in percent (0–100).
    pub presence_percent: u32,
    /// Random seed; the fold is deterministic given the seed.
    pub seed: u64,
}

impl Default for EscalationFoldConfig {
    fn default() -> Self {
        // 1200 entities ≈ a 1.2k × 1.1k fold (~1.3M pairs): comfortably
        // above the default escalation threshold of 1M pairs.
        EscalationFoldConfig { entities: 1_200, presence_percent: 85, seed: 0xE5CA_1A7E }
    }
}

/// One generated fold: two aligned columns (canonical + noisy variants).
#[derive(Debug, Clone)]
pub struct EscalationFold {
    /// `columns[0]` is the canonical column, `columns[1]` the noisy one.
    pub columns: Vec<Vec<String>>,
    /// `(canonical, variant)` gold pairs — the matches a perfect matcher
    /// would recover.
    pub gold: Vec<(String, String)>,
}

const ONSETS: [&str; 24] = [
    "b", "br", "c", "d", "dr", "f", "g", "gl", "h", "j", "k", "kr", "l", "m", "n", "p", "pl", "q",
    "r", "s", "st", "t", "tr", "v",
];
const VOWELS: [&str; 12] = ["a", "e", "i", "o", "u", "ae", "ea", "io", "oa", "ou", "ua", "y"];
const CODAS: [&str; 12] = ["b", "d", "g", "l", "m", "n", "nd", "p", "rk", "s", "t", "x"];

/// A distinctive pseudo-word, deterministic in `rng`.
fn pseudo_word(rng: &mut StdRng, syllables: usize) -> String {
    let mut word = String::new();
    for s in 0..syllables {
        word.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        word.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
        if s + 1 == syllables || rng.gen_bool(0.3) {
            word.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
        }
    }
    word
}

/// A surface variant of `base`: doubled letter, dropped letter, swapped
/// neighbours, or upper-cased first token.
fn surface_variant(base: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = base.chars().collect();
    match rng.gen_range(0..4u32) {
        0 => {
            // Double one letter.
            let at = rng.gen_range(0..chars.len());
            let mut out: String = chars[..=at].iter().collect();
            out.push(chars[at]);
            out.extend(&chars[at + 1..]);
            out
        }
        1 if chars.len() > 4 => {
            // Drop one letter (keep the first so the value stays recognisable).
            let at = 1 + rng.gen_range(0..chars.len() - 1);
            let mut out: String = chars[..at].iter().collect();
            out.extend(&chars[at + 1..]);
            out
        }
        2 if chars.len() > 3 => {
            // Swap two neighbours.
            let at = rng.gen_range(0..chars.len() - 1);
            let mut out = chars.clone();
            out.swap(at, at + 1);
            out.into_iter().collect()
        }
        _ => {
            // Case change on the first character.
            let mut out = String::new();
            out.extend(chars[0].to_uppercase());
            out.extend(&chars[1..]);
            out
        }
    }
}

/// Generates the fold.
pub fn generate_escalation_fold(config: EscalationFoldConfig) -> EscalationFold {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut canonical: Vec<String> = Vec::with_capacity(config.entities);
    let mut seen = std::collections::HashSet::new();
    while canonical.len() < config.entities {
        let syllables = 2 + (canonical.len() % 2);
        // Key-like shape: a distinctive name plus an alphanumeric id, the
        // way lake join columns (SKUs, usernames, accession numbers) look.
        let candidate = format!(
            "{} {}-{:04}",
            pseudo_word(&mut rng, syllables),
            pseudo_word(&mut rng, 1 + (canonical.len() % 2)),
            rng.gen_range(0..10_000u32)
        );
        if seen.insert(candidate.clone()) {
            canonical.push(candidate);
        }
    }

    let mut noisy: Vec<String> = Vec::new();
    let mut noisy_seen = std::collections::HashSet::new();
    let mut gold = Vec::new();
    for base in &canonical {
        if rng.gen_range(0..100u32) < config.presence_percent {
            let variant = surface_variant(base, &mut rng);
            if noisy_seen.insert(variant.clone()) {
                gold.push((base.clone(), variant.clone()));
                noisy.push(variant);
            }
        }
    }
    // A tail of unrelated values that must stay unmatched.
    let unrelated = config.entities / 10;
    while noisy.len() < gold.len() + unrelated {
        let candidate = pseudo_word(&mut rng, 3);
        if !seen.contains(&candidate) && noisy_seen.insert(candidate.clone()) {
            noisy.push(candidate);
        }
    }

    EscalationFold { columns: vec![canonical, noisy], gold }
}

/// A square `side × side` fold for the scoring kernel: `side` canonical
/// entities against `side` noisy values (surface variants padded with
/// unrelated pseudo-words), so the pair count is exactly `side²`.
///
/// Shaped like [`generate_escalation_fold`]'s output but with both sides
/// pinned to one length; `tests/kernel_equivalence.rs` sweeps side 316
/// (~100k pairs) through the quantized and the dense kernel.  Deterministic
/// given the seed.
pub fn generate_kernel_fold_columns(side: usize, seed: u64) -> (Vec<String>, Vec<String>) {
    let mut fold = generate_escalation_fold(EscalationFoldConfig {
        entities: side,
        presence_percent: 100,
        seed,
    });
    let canonical = std::mem::take(&mut fold.columns[0]);
    let mut noisy = std::mem::take(&mut fold.columns[1]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_FACE);
    let mut pad = 0usize;
    while noisy.len() < side {
        noisy.push(format!("{} pad-{pad:04}", pseudo_word(&mut rng, 3)));
        pad += 1;
    }
    noisy.truncate(side);
    (canonical, noisy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_deterministic_and_clean() {
        let config = EscalationFoldConfig { entities: 200, ..EscalationFoldConfig::default() };
        let a = generate_escalation_fold(config);
        let b = generate_escalation_fold(config);
        assert_eq!(a.columns, b.columns);
        assert_eq!(a.gold, b.gold);
        for column in &a.columns {
            let unique: std::collections::HashSet<&String> = column.iter().collect();
            assert_eq!(unique.len(), column.len(), "duplicate values in a column");
        }
        assert_eq!(a.columns[0].len(), 200);
        assert!(a.columns[1].len() > 150, "noisy column too small: {}", a.columns[1].len());
    }

    #[test]
    fn gold_pairs_reference_existing_values() {
        let fold = generate_escalation_fold(EscalationFoldConfig {
            entities: 100,
            ..EscalationFoldConfig::default()
        });
        assert!(!fold.gold.is_empty());
        for (base, variant) in &fold.gold {
            assert!(fold.columns[0].contains(base));
            assert!(fold.columns[1].contains(variant));
        }
    }

    #[test]
    fn kernel_fold_is_square_and_deterministic() {
        for side in [0usize, 1, 32, 316] {
            let (canonical, noisy) = generate_kernel_fold_columns(side, 7);
            assert_eq!(canonical.len(), side);
            assert_eq!(noisy.len(), side);
            let again = generate_kernel_fold_columns(side, 7);
            assert_eq!((canonical, noisy), again);
        }
    }

    #[test]
    fn default_fold_exceeds_the_escalation_threshold() {
        let fold = generate_escalation_fold(EscalationFoldConfig::default());
        let pairs = fold.columns[0].len() * fold.columns[1].len();
        assert!(pairs >= 1_000_000, "default fold too small to escalate: {pairs} pairs");
    }
}
