//! # lake-text
//!
//! Text-processing substrate: normalisation, tokenisation, character n-grams
//! and classical string similarity measures.
//!
//! These primitives back three parts of the system:
//!
//! * the hashing n-gram embedder in `lake-embed` (FastText analogue),
//! * blocking and attribute scoring in the downstream entity matcher
//!   (`lake-em`),
//! * the fuzzy transformation generators of `lake-benchdata`, which need the
//!   same notions of abbreviation/typo the matcher is later asked to undo.

pub mod abbrev;
pub mod blockkeys;
pub mod distance;
pub mod normalize;
pub mod scan;
pub mod tokenize;

pub use abbrev::{acronym, expands_acronym, is_prefix_abbreviation};
pub use blockkeys::{string_block_keys, BlockKeyOptions, MAX_ACRONYM_LEN};
pub use distance::{
    cosine_token_similarity, dice_coefficient, jaccard, jaro, jaro_winkler, levenshtein,
    levenshtein_similarity, monge_elkan,
};
pub use normalize::{fold_ascii, normalize, normalize_aggressive, normalize_chars};
pub use scan::TextScanner;
pub use tokenize::{char_ngrams, padded_char_ngrams, word_shingles, words};
