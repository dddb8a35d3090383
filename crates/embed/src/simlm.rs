//! Simulated pre-trained language model embedders.
//!
//! The paper embeds cell values with BERT/RoBERTa/Llama3/Mistral (the
//! crate docs give the substitution argument).  This reproduction replaces
//! them with a deterministic simulation whose embedding of a value combines
//! three channels:
//!
//! 1. **surface** — the hashing n-gram vector (typos, case, shared tokens);
//! 2. **semantic** — a direction shared by all aliases of a concept the model
//!    "knows" (drawn from [`KnowledgeBase`]), plus an acronym channel that
//!    ties `"New York City"` to `"NYC"`-like short forms;
//! 3. **noise** — a per-value deterministic perturbation modelling the
//!    imperfection of real embeddings.
//!
//! Two parameters distinguish model tiers: `semantic_coverage` (the fraction
//! of concepts the model knows, decided deterministically per concept) and
//! `noise`.  Better models know more concepts and are less noisy, which is
//! what produces the Table 1 ordering FastText < BERT < RoBERTa < Llama3 <
//! Mistral.

use std::sync::Arc;

use lake_text::{normalize_chars, TextScanner};

use crate::directions::{embed_batch_of, Batch};
use crate::embedder::{Embedder, Fnv1a};
use crate::hashing::HashingNgramEmbedder;
use crate::knowledge::{difficulty, KnowledgeBase};
use crate::vector::Vector;

/// Tunable parameters of a simulated LM tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimLmParams {
    /// Fraction of knowledge-base concepts the model knows (0.0–1.0).
    pub semantic_coverage: f64,
    /// Magnitude of the deterministic per-value noise component.
    pub noise: f32,
    /// Weight of the semantic (concept) channel relative to the surface
    /// channel (which has weight 1.0).
    pub semantic_weight: f32,
    /// Weight of the acronym channel.
    pub acronym_weight: f32,
}

impl Default for SimLmParams {
    fn default() -> Self {
        SimLmParams {
            semantic_coverage: 0.9,
            noise: 0.1,
            semantic_weight: 1.6,
            acronym_weight: 1.3,
        }
    }
}

/// A deterministic, lexicon-backed stand-in for a pre-trained LM embedder.
#[derive(Debug, Clone)]
pub struct SimulatedLmEmbedder {
    name: String,
    surface: HashingNgramEmbedder,
    knowledge: Arc<KnowledgeBase>,
    params: SimLmParams,
    /// FNV state after `noise:<name>:`, the model-specific head of every
    /// per-value noise key.
    noise_prefix: Fnv1a,
}

impl SimulatedLmEmbedder {
    /// Creates a simulated LM with the built-in knowledge base.
    pub fn new(name: impl Into<String>, params: SimLmParams) -> Self {
        let name = name.into();
        SimulatedLmEmbedder {
            noise_prefix: Fnv1a::new().bytes(b"noise:").bytes(name.as_bytes()).bytes(b":"),
            name,
            surface: HashingNgramEmbedder::new(),
            knowledge: KnowledgeBase::shared_builtin(),
            params,
        }
    }

    /// Replaces the knowledge base (e.g. with [`KnowledgeBase::empty`] to
    /// ablate semantic knowledge).
    pub fn with_knowledge(mut self, knowledge: KnowledgeBase) -> Self {
        self.knowledge = Arc::new(knowledge);
        self
    }

    /// The model's parameters.
    pub fn params(&self) -> SimLmParams {
        self.params
    }

    /// Whether this model "knows" a concept (or acronym) of the given
    /// [`difficulty`]: it does iff its `semantic_coverage` exceeds it.  A
    /// concept's difficulty is fixed, so a weaker model knows a subset of
    /// what a stronger one knows, like real pre-training coverage.
    fn knows(&self, difficulty: f64) -> bool {
        let coverage = self.params.semantic_coverage;
        coverage >= 1.0 || (coverage > 0.0 && difficulty < coverage)
    }

    /// Writes the acronym key of the value loaded in `text` into `key`:
    /// multi-word values (2–6 tokens) map to their acronym, short
    /// single-token values (2–5 letters) map to themselves.  Values sharing
    /// an acronym key receive a shared embedding component.  Returns `false`
    /// when the value has no key.
    fn acronym_key(text: &TextScanner, key: &mut String) -> bool {
        key.clear();
        let mut tokens = text.words();
        match tokens.len() {
            1 => {
                let token = tokens.next().expect("length checked");
                key.extend(token);
                if !(2..=5).contains(&key.len()) || !token.iter().all(|c| c.is_alphabetic()) {
                    return false;
                }
            }
            2..=6 => tokens.for_each(|token| key.extend(token[0].to_uppercase())),
            _ => return false,
        }
        // `str::to_lowercase` (which is context-sensitive for `Σ`), minus
        // its allocation on the ASCII keys nearly every value has.
        if key.is_ascii() {
            key.make_ascii_lowercase();
        } else {
            *key = key.to_lowercase();
        }
        true
    }

    /// Feeds the terms of `value` (loaded in `text`) into `batch`: the
    /// surface form, then — unless the surface sums to zero, which keeps
    /// empty and null-like values at zero so they never match — the
    /// semantic channels and the noise.
    fn terms(&self, value: &str, text: &TextScanner, key: &mut String, batch: &mut Batch<'_>) {
        self.surface.surface_terms(text, batch);
        batch.gate();
        let knowledge = &self.knowledge;
        let known_concept =
            |key: &str| knowledge.concept_of_normalized(key).filter(|c| self.knows(c.difficulty));

        // Semantic channel: shared direction per known concept.
        key.clear();
        key.extend(text.normalized());
        if let Some(concept) = known_concept(key) {
            batch.add(concept.seed, self.params.semantic_weight);
        }

        // Token-level semantic channel: individual words of a multi-word
        // value that denote a known concept contribute a (weaker) shared
        // direction — this is what lets "Bob Smith" land near "Robert Smith"
        // or "NYC Marathon" near "New York City Marathon".
        let tokens = text.words();
        if tokens.len() >= 2 {
            let token_weight = self.params.semantic_weight * 0.7 / (tokens.len() as f32).sqrt();
            for token in tokens {
                key.clear();
                normalize_chars(token.iter().copied(), |c| key.push(c));
                if let Some(concept) = known_concept(key) {
                    batch.add(concept.seed, token_weight);
                }
            }
        }

        // Acronym channel: ties expansions to their short forms.  Gated by the
        // same coverage mechanism (keyed by the acronym string).
        if Self::acronym_key(text, key) {
            let hash = Fnv1a::new().bytes(b"acronym:").bytes(key.as_bytes()).finish();
            if self.knows(difficulty(hash)) {
                batch.add(hash, self.params.acronym_weight);
            }
        }

        // Deterministic per-value noise, keyed by model and value.
        if self.params.noise > 0.0 {
            batch.add(self.noise_prefix.bytes(value.as_bytes()).finish(), self.params.noise);
        }
    }
}

impl Embedder for SimulatedLmEmbedder {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        self.surface.dim()
    }

    fn embed_many(&self, values: &[&str]) -> Vec<Vector> {
        embed_batch_of(values, self.dim(), |value, text, key, batch| {
            self.terms(value, text, key, batch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedder::fnv1a;
    use crate::vector::DISTANCE_EPSILON;

    fn mistral_like() -> SimulatedLmEmbedder {
        SimulatedLmEmbedder::new(
            "TestLM",
            SimLmParams { semantic_coverage: 1.0, noise: 0.05, ..SimLmParams::default() },
        )
    }

    #[test]
    fn deterministic_and_unit_norm() {
        let e = mistral_like();
        assert_eq!(e.embed("Canada"), e.embed("Canada"));
        assert!((e.embed("Canada").norm() - 1.0).abs() < DISTANCE_EPSILON);
        assert!(e.embed("").is_zero());
    }

    #[test]
    fn known_aliases_become_close() {
        let e = mistral_like();
        let d_alias = e.distance("Canada", "CA");
        let d_unrelated = e.distance("Canada", "Germany");
        assert!(d_alias < 0.6, "alias distance too large: {d_alias}");
        assert!(d_unrelated > 0.7, "unrelated distance too small: {d_unrelated}");
    }

    #[test]
    fn typos_remain_close_via_surface_channel() {
        let e = mistral_like();
        assert!(e.distance("Berlinn", "Berlin") < 0.6);
        assert!(e.distance("barcelona", "Barcelona") < 0.35);
    }

    #[test]
    fn acronym_channel_ties_expansions() {
        let e = mistral_like();
        let d = e.distance("New York City", "NYC");
        assert!(d < 0.65, "acronym distance too large: {d}");
    }

    #[test]
    fn zero_coverage_disables_semantics() {
        let no_sem = SimulatedLmEmbedder::new(
            "NoSem",
            SimLmParams {
                semantic_coverage: 0.0,
                noise: 0.0,
                acronym_weight: 0.0,
                ..SimLmParams::default()
            },
        );
        let with_sem = mistral_like();
        assert!(no_sem.distance("Canada", "CA") > with_sem.distance("Canada", "CA"));
    }

    #[test]
    fn higher_coverage_knows_more_concepts() {
        let weak = SimulatedLmEmbedder::new(
            "Weak",
            SimLmParams { semantic_coverage: 0.3, ..SimLmParams::default() },
        );
        let strong = SimulatedLmEmbedder::new(
            "Strong",
            SimLmParams { semantic_coverage: 0.95, ..SimLmParams::default() },
        );
        let concepts: Vec<f64> =
            (0..200).map(|i| difficulty(fnv1a(format!("country:c{i}").as_bytes()))).collect();
        let weak_known = concepts.iter().filter(|c| weak.knows(**c)).count();
        let strong_known = concepts.iter().filter(|c| strong.knows(**c)).count();
        assert!(strong_known > weak_known, "strong {strong_known} <= weak {weak_known}");
        // Monotone subset property: everything the weak model knows, the
        // strong model knows too (difficulty is a property of the concept).
        for &c in &concepts {
            if weak.knows(c) {
                assert!(strong.knows(c));
            }
        }
    }

    #[test]
    fn noise_perturbs_but_preserves_identity() {
        let noisy =
            SimulatedLmEmbedder::new("Noisy", SimLmParams { noise: 0.4, ..SimLmParams::default() });
        // Identical strings still embed identically (noise is value-keyed).
        assert!(noisy.distance("Toronto", "Toronto") < DISTANCE_EPSILON);
        // Noise is model-specific: two tiers disagree on the same value.
        let other =
            SimulatedLmEmbedder::new("Other", SimLmParams { noise: 0.4, ..SimLmParams::default() });
        let a = noisy.embed("Toronto");
        let b = other.embed("Toronto");
        assert!(a.cosine_distance(&b) > 1e-4);
    }

    #[test]
    fn custom_knowledge_base_is_honoured() {
        let mut kb = KnowledgeBase::empty();
        kb.add_group("genre:scifi", ["Science Fiction", "Sci-Fi"]);
        let e = SimulatedLmEmbedder::new(
            "Custom",
            SimLmParams { semantic_coverage: 1.0, noise: 0.0, ..SimLmParams::default() },
        )
        .with_knowledge(kb);
        assert!(e.distance("Science Fiction", "Sci-Fi") < 0.7);
    }
}
