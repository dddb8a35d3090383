//! The [`Embedder`] trait and small helpers shared by all embedders.

use crate::vector::Vector;

/// Anything that can map a cell value (a string) to a fixed-dimension vector.
///
/// Implementations must be deterministic: the same input string always yields
/// the same vector.  Matching quality depends entirely on the geometry the
/// embedder induces — values that refer to the same real-world entity should
/// end up close in cosine distance.
pub trait Embedder: Send + Sync {
    /// Short human-readable name (used in experiment reports, e.g. "Mistral").
    fn name(&self) -> &str;

    /// Output dimensionality.
    fn dim(&self) -> usize;

    /// Embeds a batch of cell values: one vector per value, in input order.
    ///
    /// A batch is the unit of embedding work — a direction that several of
    /// its values share is generated once for all of them — but never of
    /// meaning: each vector is the one the value embeds to alone, whatever
    /// else the batch holds.
    fn embed_many(&self, values: &[&str]) -> Vec<Vector>;

    /// Embeds one cell value: a batch of one.
    fn embed(&self, value: &str) -> Vector {
        self.embed_many(&[value]).pop().expect("one vector per value")
    }

    /// Cosine distance between the embeddings of two values.  Convenience
    /// wrapper; performance-sensitive callers should embed once and reuse the
    /// vectors (see [`EmbeddingCache`](crate::EmbeddingCache)).
    fn distance(&self, a: &str, b: &str) -> f32 {
        self.embed(a).cosine_distance(&self.embed(b))
    }
}

impl Embedder for Box<dyn Embedder> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn dim(&self) -> usize {
        self.as_ref().dim()
    }

    fn embed_many(&self, values: &[&str]) -> Vec<Vector> {
        self.as_ref().embed_many(values)
    }
}

/// Cosine distance between two already-computed embeddings.
pub fn cosine_distance_between(a: &Vector, b: &Vector) -> f32 {
    a.cosine_distance(b)
}

/// A stable 64-bit FNV-1a hash, used by all embedders so that vectors are
/// identical across runs, platforms and processes.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

/// [`fnv1a`] fed in pieces: hashing the parts of a key one after the other
/// gives the hash of their concatenation, so a seed such as
/// `fnv1a(format!("concept:{id}"))` needs no formatted `String`, and a
/// `&[char]` window hashes as the UTF-8 text it spells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds the UTF-8 encoding of `chars`.
    pub(crate) fn chars(mut self, chars: &[char]) -> Self {
        let mut utf8 = [0u8; 4];
        for c in chars {
            self = self.bytes(c.encode_utf8(&mut utf8).as_bytes());
        }
        self
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Splitmix64: turns a hash into a well-mixed pseudo-random stream seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directions::seeded_direction;
    use crate::vector::DISTANCE_EPSILON;

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b"berlin"), fnv1a(b"berlin"));
        assert_ne!(fnv1a(b"berlin"), fnv1a(b"boston"));
        assert_ne!(fnv1a(b""), fnv1a(b"a"));
    }

    #[test]
    fn streamed_fnv_equals_the_hash_of_the_concatenation() {
        let whole = fnv1a("concept:città".as_bytes());
        let chars: Vec<char> = "città".chars().collect();
        assert_eq!(Fnv1a::new().bytes(b"concept:").chars(&chars).finish(), whole);
        assert_eq!(
            Fnv1a::new().bytes(b"con").bytes(b"cept:").bytes("città".as_bytes()).finish(),
            whole
        );
    }

    #[test]
    fn seeded_direction_is_deterministic_unit() {
        let a = seeded_direction(42, 32);
        let b = seeded_direction(42, 32);
        assert_eq!(a, b);
        assert!((a.norm() - 1.0).abs() < DISTANCE_EPSILON);
        let c = seeded_direction(43, 32);
        assert!(a.cosine_similarity(&c).abs() < 0.6, "different seeds should diverge");
    }

    #[test]
    fn distance_between_helper() {
        let a = Vector::new(vec![1.0, 0.0]);
        let b = Vector::new(vec![0.0, 1.0]);
        assert!((cosine_distance_between(&a, &b) - 1.0).abs() < DISTANCE_EPSILON);
    }
}
