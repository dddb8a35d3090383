//! # lake-text
//!
//! Text-processing substrate: normalisation, tokenisation into words and
//! character n-grams, acronyms, blocking keys, and the classical string
//! measures (Levenshtein, Jaro, Jaro–Winkler, Monge–Elkan).
//!
//! These primitives back four parts of the system:
//!
//! * the embedders in `lake-embed`, which read values through one reusable
//!   [`TextScanner`] (FastText-style n-grams, the simulated LMs' words),
//! * the value-matching blocking planner of `fuzzy-fd-core`, which keys
//!   values by [`string_block_keys`],
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

pub use abbrev::acronym;
pub use blockkeys::{string_block_keys, BlockKeyOptions, MAX_ACRONYM_LEN};
pub use distance::{jaro, jaro_winkler, levenshtein, levenshtein_similarity, monge_elkan};
pub use normalize::{fold_ascii, normalize, normalize_aggressive, normalize_chars};
pub use scan::TextScanner;
pub use tokenize::{char_ngrams, padded_char_ngrams, words};
