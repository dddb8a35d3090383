//! # lake-embed
//!
//! Cell-value embedding substrate for fuzzy value matching.
//!
//! The paper embeds every column cell with a pre-trained language model
//! (FastText, BERT, RoBERTa, Llama3 or Mistral-7B-Instruct) and computes
//! cosine distances between the embeddings.  Running those models requires a
//! GPU and their weights, neither of which this reproduction assumes.
//! Instead the crate provides these substitutions:
//!
//! * [`HashingNgramEmbedder`] — a from-scratch hashing character-n-gram
//!   embedder in the spirit of FastText: good at surface similarity (typos,
//!   case, small edits), blind to semantics (abbreviations, synonyms);
//! * [`SimulatedLmEmbedder`] — a deterministic stand-in for a pre-trained
//!   language model: the surface vector above *plus* a semantic component
//!   driven by a built-in world-knowledge lexicon, with per-model-tier
//!   *coverage* and *noise* parameters calibrated so the relative quality
//!   ordering of the paper's Table 1 (FastText < BERT < RoBERTa < Llama3 <
//!   Mistral) is preserved;
//! * [`directions`] — the allocation-free kernel under both embedders: a
//!   batch of values scanned once with streamed n-gram hashing, each
//!   distinct pseudo-random direction the hashes select generated once into
//!   a capped per-thread arena, producing the straight-line algorithm's
//!   vectors bit for bit;
//! * [`EmbeddingCache`] — memoises embeddings per distinct cell value, the
//!   same optimisation the paper's implementation relies on (columns have
//!   ~150 distinct values, each embedded once);
//! * [`Vector`] and cosine similarity/distance helpers.
//!
//! All embedders are deterministic: the same input string always produces the
//! same vector, so every experiment in this repository is reproducible.

pub mod ann;
pub mod cache;
pub mod directions;
pub mod embedder;
pub mod hashing;
pub mod kernel;
pub mod knowledge;
pub mod models;
pub mod simlm;
pub mod vector;

pub use ann::{AnnIndex, AnnParams, AnnScratch};
pub use cache::EmbeddingCache;
pub use embedder::{cosine_distance_between, Embedder};
pub use hashing::{packed_band_key, HashingNgramEmbedder, ProbeScratch, SimHasher};
pub use kernel::KernelStats;
pub use knowledge::KnowledgeBase;
pub use models::{EmbeddingModel, ALL_MODELS};
pub use simlm::SimulatedLmEmbedder;
pub use vector::{
    approx_eq, approx_eq_within, total_order_bits, QuantizedSlab, Vector, DISTANCE_EPSILON,
    SLAB_LANE,
};
