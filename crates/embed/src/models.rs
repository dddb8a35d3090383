//! The embedding model tiers evaluated in the paper's Table 1.

use crate::hashing::HashingNgramEmbedder;
use crate::simlm::{SimLmParams, SimulatedLmEmbedder};
use crate::Embedder;

/// The five embedding baselines of Table 1.
///
/// `FastText` is the real hashing n-gram algorithm; the other four are
/// simulated LM tiers whose coverage/noise parameters reproduce the paper's
/// quality ordering (see the crate docs for the substitution argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmbeddingModel {
    /// Word/character n-gram embedding (Joulin et al. 2016).
    FastText,
    /// BERT-base simulated tier.
    Bert,
    /// RoBERTa-base simulated tier.
    Roberta,
    /// Meta-Llama-3-8B-Instruct simulated tier.
    Llama3,
    /// Mistral-7B-Instruct-v0.3 simulated tier (the paper's default).
    Mistral,
}

/// All models in the order the paper's Table 1 lists them.
pub const ALL_MODELS: [EmbeddingModel; 5] = [
    EmbeddingModel::FastText,
    EmbeddingModel::Bert,
    EmbeddingModel::Roberta,
    EmbeddingModel::Llama3,
    EmbeddingModel::Mistral,
];

impl EmbeddingModel {
    /// The display name used in reports (matches the paper's Table 1 rows).
    pub fn name(&self) -> &'static str {
        match self {
            EmbeddingModel::FastText => "FastText",
            EmbeddingModel::Bert => "BERT",
            EmbeddingModel::Roberta => "RoBERTa",
            EmbeddingModel::Llama3 => "Llama3",
            EmbeddingModel::Mistral => "Mistral",
        }
    }

    /// The simulation parameters of this tier (`None` for FastText, which is
    /// not simulated).  Coverage/noise are calibrated against the paper's
    /// Table 1 ordering; higher tier → more concepts known, less noise.
    pub fn params(&self) -> Option<SimLmParams> {
        match self {
            EmbeddingModel::FastText => None,
            EmbeddingModel::Bert => {
                Some(SimLmParams { semantic_coverage: 0.50, noise: 0.22, ..SimLmParams::default() })
            }
            EmbeddingModel::Roberta => {
                Some(SimLmParams { semantic_coverage: 0.57, noise: 0.20, ..SimLmParams::default() })
            }
            EmbeddingModel::Llama3 => {
                Some(SimLmParams { semantic_coverage: 0.88, noise: 0.12, ..SimLmParams::default() })
            }
            EmbeddingModel::Mistral => {
                Some(SimLmParams { semantic_coverage: 0.95, noise: 0.08, ..SimLmParams::default() })
            }
        }
    }

    /// Builds the embedder for this tier.
    pub fn build(&self) -> Box<dyn Embedder> {
        match self.params() {
            None => Box::new(HashingNgramEmbedder::new()),
            Some(params) => Box::new(SimulatedLmEmbedder::new(self.name(), params)),
        }
    }

    /// Parses a model from its display name (case-insensitive).
    pub fn parse(name: &str) -> Option<EmbeddingModel> {
        let lowered = name.trim().to_ascii_lowercase();
        ALL_MODELS.into_iter().find(|m| m.name().to_ascii_lowercase() == lowered)
    }
}

impl std::fmt::Display for EmbeddingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build_and_name_consistently() {
        for model in ALL_MODELS {
            let embedder = model.build();
            assert_eq!(embedder.name(), model.name());
            assert!(embedder.dim() > 0);
            let v = embedder.embed("Toronto");
            assert_eq!(v.dim(), embedder.dim());
        }
    }

    #[test]
    fn tiers_are_ordered_by_coverage() {
        let coverage = |m: EmbeddingModel| m.params().map(|p| p.semantic_coverage).unwrap_or(0.0);
        assert!(coverage(EmbeddingModel::Bert) < coverage(EmbeddingModel::Roberta));
        assert!(coverage(EmbeddingModel::Roberta) < coverage(EmbeddingModel::Llama3));
        assert!(coverage(EmbeddingModel::Llama3) < coverage(EmbeddingModel::Mistral));
    }

    #[test]
    fn noise_decreases_with_tier() {
        let noise = |m: EmbeddingModel| m.params().map(|p| p.noise).unwrap_or(0.0);
        assert!(noise(EmbeddingModel::Bert) > noise(EmbeddingModel::Mistral));
        assert!(noise(EmbeddingModel::Roberta) > noise(EmbeddingModel::Llama3));
    }

    #[test]
    fn parse_round_trips() {
        for model in ALL_MODELS {
            assert_eq!(EmbeddingModel::parse(model.name()), Some(model));
            assert_eq!(EmbeddingModel::parse(&model.name().to_uppercase()), Some(model));
        }
        assert_eq!(EmbeddingModel::parse("gpt-5"), None);
    }

    #[test]
    fn mistral_resolves_aliases_fasttext_does_not() {
        let mistral = EmbeddingModel::Mistral.build();
        let fasttext = EmbeddingModel::FastText.build();
        let theta = 0.7f32;
        assert!(mistral.distance("Canada", "CA") < theta);
        assert!(fasttext.distance("Canada", "CA") >= 0.3);
        // The semantic gap is what Table 1 measures.
        assert!(mistral.distance("Canada", "CA") < fasttext.distance("Canada", "CA"));
    }
}
