//! Equivalence harness for the embedding kernel.
//!
//! The value → vector path (`lake_text::TextScanner` windows, streamed
//! FNV-1a seeds, the bounded direction table of `lake_embed::directions`) is
//! an optimisation of a straight-line algorithm and must produce that
//! algorithm's vectors **bit for bit**: every digest, match decision and
//! benchmark checksum downstream hangs off these bits.  Three angles:
//!
//! * golden FNV digests over `f32::to_bits`, recorded from the commit before
//!   the kernel existed, for all five model tiers;
//! * a property test against [`reference`], a copy of that commit's algorithm
//!   built on the allocating public tokenisers, over strings that stress the
//!   normaliser (multi-byte and case-expanding characters, whitespace runs,
//!   empty and shorter-than-`n` values, 6+-word values);
//! * table-state independence: the same corpus embedded in three orders
//!   through a direction table shrunk to two slots (so nearly every lookup
//!   evicts) yields identical bits.

use datalake_fuzzy_fd::embed::directions::with_thread_table_slots;
use datalake_fuzzy_fd::embed::{EmbeddingModel, KnowledgeBase, Vector, ALL_MODELS};
use proptest::prelude::*;

/// The straight-line algorithm the kernel replaced, kept as the oracle.
mod reference {
    use datalake_fuzzy_fd::embed::{EmbeddingModel, KnowledgeBase};
    use datalake_fuzzy_fd::text::{acronym, padded_char_ngrams, words};

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    fn splitmix64(x: u64) -> u64 {
        let x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn normalized(v: &[f32]) -> Vec<f32> {
        let norm = v.iter().map(|c| c * c).sum::<f32>().sqrt();
        if norm == 0.0 {
            return v.to_vec();
        }
        v.iter().map(|c| c / norm).collect()
    }

    fn direction(seed: u64) -> Vec<f32> {
        let mut state = seed;
        let raw: Vec<f32> = (0..DIM as u64)
            .map(|i| {
                state = splitmix64(state ^ i.wrapping_mul(0x9e37_79b9));
                (state >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0
            })
            .collect();
        normalized(&raw)
    }

    fn add_scaled(acc: &mut [f32], seed: u64, scale: f32) {
        for (a, b) in acc.iter_mut().zip(direction(seed)) {
            *a += b * scale;
        }
    }

    const DIM: usize = 64;

    fn surface(value: &str) -> Vec<f32> {
        let mut acc = vec![0.0; DIM];
        for n in 2..=4usize {
            for gram in padded_char_ngrams(value, n) {
                add_scaled(
                    &mut acc,
                    fnv1a(gram.as_bytes()) ^ (n as u64).wrapping_mul(0x517c_c1b7),
                    1.0,
                );
            }
        }
        for word in words(value) {
            add_scaled(&mut acc, fnv1a(word.as_bytes()) ^ 0xDEAD_BEEF_1234_5678, 2.5);
        }
        normalized(&acc)
    }

    fn acronym_key(value: &str) -> Option<String> {
        let tokens = words(value);
        if (2..=6).contains(&tokens.len()) {
            let acr = acronym(value);
            return (acr.len() >= 2).then(|| acr.to_lowercase());
        }
        let token = tokens.first().filter(|_| tokens.len() == 1)?;
        ((2..=5).contains(&token.len()) && token.chars().all(char::is_alphabetic))
            .then(|| token.to_lowercase())
    }

    /// The embedding of `value` under `model`, as plain components.
    pub fn embed(model: EmbeddingModel, knowledge: &KnowledgeBase, value: &str) -> Vec<f32> {
        let mut out = surface(value);
        let Some(params) = model.params() else { return out };
        if out.iter().all(|c| *c == 0.0) {
            return out;
        }
        let knows = |concept: &str| {
            let difficulty =
                (splitmix64(fnv1a(concept.as_bytes())) >> 11) as f64 / (1u64 << 53) as f64;
            params.semantic_coverage >= 1.0
                || (params.semantic_coverage > 0.0 && difficulty < params.semantic_coverage)
        };
        let concept_seed = |text: &str| {
            knowledge
                .concept_of(text)
                .filter(|concept| knows(concept))
                .map(|concept| fnv1a(format!("concept:{concept}").as_bytes()))
        };
        if let Some(seed) = concept_seed(value) {
            add_scaled(&mut out, seed, params.semantic_weight);
        }
        let tokens = words(value);
        if tokens.len() >= 2 {
            let weight = params.semantic_weight * 0.7 / (tokens.len() as f32).sqrt();
            for seed in tokens.iter().filter_map(|token| concept_seed(token)) {
                add_scaled(&mut out, seed, weight);
            }
        }
        if let Some(key) =
            acronym_key(value).map(|acr| format!("acronym:{acr}")).filter(|k| knows(k))
        {
            add_scaled(&mut out, fnv1a(key.as_bytes()), params.acronym_weight);
        }
        if params.noise > 0.0 {
            let seed = fnv1a(format!("noise:{}:{}", model.name(), value).as_bytes());
            add_scaled(&mut out, seed, params.noise);
        }
        normalized(&out)
    }
}

/// Hand-picked values covering every branch of the kernel: lexicon aliases,
/// acronym expansions and short forms, typos, multi-byte and case-expanding
/// characters, whitespace runs, empty / shorter-than-`n` values, one-token
/// and 6+-word values, digits and punctuation.
const CORPUS: &[&str] = &[
    "",
    " ",
    "a",
    "İ",
    "ß",
    "ab",
    "Σ",
    "ΑΣ",
    "Canada",
    "CA",
    "can",
    "Germany",
    "DEU",
    "Deutschland",
    "United States of America",
    "U.S.",
    "New York City",
    "NYC",
    "nyc marathon",
    "New York City Marathon 2024",
    "Bob Smith",
    "Robert Smith",
    "Dept. of Engineering",
    "Department of Engineering",
    "Intl Conf on Very Large Data Bases",
    "the quick brown fox jumps over the lazy dog",
    "  New \t  Delhi \n",
    "São Paulo",
    "Zürich",
    "İstanbul",
    "STRASSE",
    "Straße 12",
    "ÉCOLE   Polytechnique",
    "Москва",
    "東京都",
    "83%",
    "1.4M",
    "rock-n-roll",
    "Berlin",
    "Berlinn",
    "berlin",
    "Ciudad de México",
    "Côte d'Ivoire",
    "Korea, Republic of",
    "x y",
    "a b c d e f g",
    "Σίσυφος ΟΔΟΣ",
    "ǅ ǈ",
    "N/K",
    "#",
];

/// [`CORPUS`] plus derived variants (upper-cased, reversed word order, and
/// neighbour concatenations), so the goldens cover a few hundred values.
fn golden_corpus() -> Vec<String> {
    let mut values: Vec<String> = CORPUS.iter().map(|s| s.to_string()).collect();
    for (i, value) in CORPUS.iter().enumerate() {
        values.push(value.to_uppercase());
        values.push(value.split(' ').rev().collect::<Vec<_>>().join(" "));
        values.push(format!("{value} {}", CORPUS[(i + 7) % CORPUS.len()]));
    }
    values
}

fn bits(vector: &Vector) -> Vec<u32> {
    vector.components().iter().map(|c| c.to_bits()).collect()
}

/// FNV-1a over the little-endian bytes of every component's bit pattern.
fn digest<'a>(vectors: impl IntoIterator<Item = &'a Vector>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for vector in vectors {
        for byte in bits(vector).into_iter().flat_map(u32::to_le_bytes) {
            hash = (hash ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

#[test]
fn golden_digests_hold_for_every_tier() {
    // Recorded at the parent of the kernel change (commit bfeef04) by running
    // this very function there; a change to any of them is a change to every
    // embedding-derived number in the repository.
    const GOLDEN: [(EmbeddingModel, u64); 5] = [
        (EmbeddingModel::FastText, 0x425e_869d_71d7_4411),
        (EmbeddingModel::Bert, 0xe215_cabb_c958_ebb6),
        (EmbeddingModel::Roberta, 0xb070_3824_4ff9_7751),
        (EmbeddingModel::Llama3, 0xfef6_547c_0133_82ab),
        (EmbeddingModel::Mistral, 0xbcb7_2fe5_9f3a_5ad7),
    ];
    let corpus = golden_corpus();
    for (model, expected) in GOLDEN {
        let embedder = model.build();
        let vectors: Vec<Vector> = corpus.iter().map(|value| embedder.embed(value)).collect();
        assert_eq!(digest(&vectors), expected, "{model} digest moved: {:#018x}", digest(&vectors));
    }
}

#[test]
fn corpus_matches_the_reference_bit_for_bit() {
    let knowledge = KnowledgeBase::builtin();
    for model in ALL_MODELS {
        let embedder = model.build();
        for value in golden_corpus() {
            let expected: Vec<u32> =
                reference::embed(model, &knowledge, &value).iter().map(|c| c.to_bits()).collect();
            assert_eq!(bits(&embedder.embed(&value)), expected, "{model} diverged on {value:?}");
        }
    }
}

/// Strings assembled from fragments that each stress one normaliser or
/// tokeniser rule; up to nine fragments, so 6+-word values are common.
fn value_strategy() -> impl Strategy<Value = String> {
    let fragments: Vec<&'static str> = vec![
        " ", "  ", "\t", "\u{a0}", "-", ".", ",", "'", "%", "İ", "ß", "ẞ", "Σ", "σ", "ǅ", "é", "É",
        "ü", "東", "я", "Я", "0", "7", "a", "b", "Z", "q", "New", "York", "City", "NYC", "CA",
        "Canada", "Dept", "Robert", "Bob", "of", "St.", "U.S.", "Intl", "Marathon", "berlin",
    ];
    proptest::collection::vec(proptest::sample::select(fragments), 0..10)
        .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    #[test]
    fn kernel_matches_the_reference_bit_for_bit(value in value_strategy()) {
        let knowledge = KnowledgeBase::builtin();
        for model in ALL_MODELS {
            let expected: Vec<u32> =
                reference::embed(model, &knowledge, &value).iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(bits(&model.build().embed(&value)), expected, "{} on {:?}", model, value);
        }
    }
}

#[test]
fn bits_do_not_depend_on_table_state_or_embedding_order() {
    let corpus = golden_corpus();
    let forward: Vec<usize> = (0..corpus.len()).collect();
    let reverse: Vec<usize> = forward.iter().rev().copied().collect();
    // Front and back halves interleaved: 0, n-1, 1, n-2, …
    let interleaved: Vec<usize> = (0..corpus.len())
        .map(|i| if i % 2 == 0 { i / 2 } else { corpus.len() - 1 - i / 2 })
        .collect();
    for model in [EmbeddingModel::FastText, EmbeddingModel::Mistral] {
        let embedder = model.build();
        let full_table: Vec<Vec<u32>> = corpus.iter().map(|v| bits(&embedder.embed(v))).collect();
        for order in [&forward, &reverse, &interleaved] {
            let mut seen = vec![Vec::new(); corpus.len()];
            with_thread_table_slots(2, || {
                for &i in order {
                    seen[i] = bits(&embedder.embed(&corpus[i]));
                }
            });
            assert_eq!(seen, full_table, "{model}: bits moved with table state");
        }
    }
}
