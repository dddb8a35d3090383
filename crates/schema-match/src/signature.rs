//! Column signatures: fixed-dimension representations of whole columns.

use lake_embed::{Embedder, Vector};
use lake_table::{Table, Value};
use lake_text::normalize;

/// A column's signature: the mean embedding of (a sample of) its distinct
/// values plus light metadata used as tie-breakers.
#[derive(Debug, Clone)]
pub struct ColumnSignature {
    /// Mean embedding of the sampled distinct values (zero vector for empty
    /// columns).
    pub centroid: Vector,
    /// Normalised header (may be empty).
    pub header: String,
    /// Number of distinct non-null values observed.
    pub distinct_values: usize,
    /// Fraction of cells that are null.
    pub null_fraction: f64,
    /// Fraction of sampled values that parse as numbers.
    pub numeric_fraction: f64,
}

impl ColumnSignature {
    /// Builds the signature of column `column` of `table`, embedding at most
    /// `sample_limit` distinct values.
    pub fn build(
        table: &Table,
        column: usize,
        embedder: &dyn Embedder,
        sample_limit: usize,
    ) -> ColumnSignature {
        let distinct = table.distinct_values(column).unwrap_or_default();
        let null_fraction = table.null_fraction(column).unwrap_or(0.0);
        let header = normalize(&table.schema().columns()[column].name);

        let sample: Vec<&Value> = distinct.iter().take(sample_limit.max(1)).collect();
        let numeric =
            sample.iter().filter(|v| matches!(v, Value::Int(_) | Value::Float(_))).count();
        let numeric_fraction =
            if sample.is_empty() { 0.0 } else { numeric as f64 / sample.len() as f64 };

        let rendered: Vec<_> = sample.iter().map(|v| v.render()).collect();
        let rendered: Vec<&str> = rendered.iter().map(AsRef::as_ref).collect();
        let vectors = embedder.embed_many(&rendered);
        let centroid =
            Vector::mean(vectors.iter()).unwrap_or_else(|| Vector::zeros(embedder.dim()));

        ColumnSignature {
            centroid,
            header,
            distinct_values: distinct.len(),
            null_fraction,
            numeric_fraction,
        }
    }

    /// Similarity between two column signatures in `[0, 1]`: cosine
    /// similarity of the centroids, boosted slightly by an exact header match
    /// and penalised when one column is numeric and the other is not.
    pub fn similarity(&self, other: &ColumnSignature) -> f64 {
        let mut sim = ((self.centroid.cosine_similarity(&other.centroid) + 1.0) / 2.0) as f64;
        if !self.header.is_empty() && self.header == other.header {
            sim = (sim + 0.15).min(1.0);
        }
        let numeric_gap = (self.numeric_fraction - other.numeric_fraction).abs();
        if numeric_gap > 0.5 {
            sim *= 0.6;
        }
        sim.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_embed::HashingNgramEmbedder;
    use lake_table::TableBuilder;

    fn table() -> Table {
        TableBuilder::new("T", ["City", "Population"])
            .row(["Berlin", "3600000"])
            .row(["Toronto", "2900000"])
            .row(["", "100"])
            .build()
            .unwrap()
    }

    #[test]
    fn signature_captures_basic_statistics() {
        let t = table();
        let e = HashingNgramEmbedder::new();
        let city = ColumnSignature::build(&t, 0, &e, 100);
        assert_eq!(city.distinct_values, 2);
        assert!((city.null_fraction - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(city.header, "city");
        assert!(city.numeric_fraction < 0.5);

        let pop = ColumnSignature::build(&t, 1, &e, 100);
        assert!(pop.numeric_fraction > 0.9);
    }

    #[test]
    fn the_centroid_is_the_mean_of_the_values_embedded_one_at_a_time() {
        let t = table();
        let e = lake_embed::EmbeddingModel::Mistral.build();
        let sample = t.distinct_values(0).unwrap();
        let one_at_a_time: Vec<Vector> = sample.iter().map(|v| e.embed(&v.render())).collect();
        let centroid = ColumnSignature::build(&t, 0, e.as_ref(), 100).centroid;
        let bits = |v: &Vector| v.components().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&centroid), bits(&Vector::mean(one_at_a_time.iter()).unwrap()));
    }

    #[test]
    fn similar_columns_score_higher_than_dissimilar() {
        let e = HashingNgramEmbedder::new();
        let t1 = TableBuilder::new("A", ["place"])
            .row(["Berlin"])
            .row(["Toronto"])
            .row(["Barcelona"])
            .build()
            .unwrap();
        let t2 = TableBuilder::new("B", ["location"])
            .row(["Berlin"])
            .row(["Boston"])
            .row(["Barcelona"])
            .build()
            .unwrap();
        let t3 = TableBuilder::new("C", ["amount"])
            .row(["100"])
            .row(["250"])
            .row(["317"])
            .build()
            .unwrap();

        let s1 = ColumnSignature::build(&t1, 0, &e, 100);
        let s2 = ColumnSignature::build(&t2, 0, &e, 100);
        let s3 = ColumnSignature::build(&t3, 0, &e, 100);

        assert!(s1.similarity(&s2) > s1.similarity(&s3));
        assert!(s1.similarity(&s2) > 0.5);
    }

    #[test]
    fn header_match_boosts_similarity() {
        let e = HashingNgramEmbedder::new();
        let t1 = TableBuilder::new("A", ["City"]).row(["Berlin"]).build().unwrap();
        let t2 = TableBuilder::new("B", ["City"]).row(["Lagos"]).build().unwrap();
        let t3 = TableBuilder::new("C", ["Thing"]).row(["Lagos"]).build().unwrap();
        let s1 = ColumnSignature::build(&t1, 0, &e, 10);
        let s2 = ColumnSignature::build(&t2, 0, &e, 10);
        let s3 = ColumnSignature::build(&t3, 0, &e, 10);
        assert!(s1.similarity(&s2) > s1.similarity(&s3));
    }

    #[test]
    fn empty_column_has_zero_centroid() {
        let e = HashingNgramEmbedder::new();
        let t = TableBuilder::new("A", ["x"]).row([""]).build().unwrap();
        let s = ColumnSignature::build(&t, 0, &e, 10);
        assert!(s.centroid.is_zero());
        assert_eq!(s.distinct_values, 0);
    }
}
