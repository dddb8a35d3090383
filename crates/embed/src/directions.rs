//! Seeded pseudo-random directions, the bounded per-thread table that
//! memoises them, and the per-thread scratch the embedding kernel runs in.
//!
//! Every n-gram, word token, concept and acronym owns a *direction*: a unit
//! vector that is a pure function of a 64-bit seed
//! (`seeded_direction_into`).  Generating one is 64 serial hash steps and a
//! norm, and an embedding sums ~50 of them drawn from a vocabulary of a few
//! thousand, so the kernel keeps recent directions in a `DirectionTable`:
//! direct-mapped, seed-tagged, [`DIRECTION_TABLE_SLOTS`] rows, one table per
//! embedding thread, allocated on the thread's first embedding.  The hash
//! steps of one direction form a dependency chain the CPU cannot overlap, so
//! the directions a value is missing are regenerated `LANES` at a time,
//! their chains interleaved.
//!
//! **Vector bits cannot depend on table state.**  A row is only ever the
//! output of `seeded_direction_into` for the seed in its tag; a lookup
//! either finds the tag it asked for or regenerates the row in place, so it
//! returns the same bits whether it hit, missed, evicted, or ran on another
//! thread — and the caller adds rows into its sum in the order the
//! straight-line algorithm would.  `tests/embed_equivalence.rs` shrinks the
//! table to two slots and permutes the embedding order to hold this.
//!
//! **Memory bound.**  A table never grows: `DIRECTION_TABLE_SLOTS × (4·dim +
//! 16)` bytes plus `1 + LANES` staging rows, 511 KiB at the default 64
//! dimensions, per thread that embeds.  The operating system backs rows
//! lazily, so a thread that touches few distinct seeds pays for few pages.

use std::cell::RefCell;

use lake_text::TextScanner;

use crate::embedder::splitmix64;
use crate::vector::Vector;

/// Rows in a thread's direction table.  With 16 bytes of tag per row this
/// keeps the table of a 64-dimensional embedder just under 512 KiB.
pub const DIRECTION_TABLE_SLOTS: usize = 1920;

/// Directions regenerated together on a miss.  Four independent hash chains
/// overlap where one waits on its own multiplies: generating four costs 1.4×
/// generating one.
const LANES: usize = 4;

/// Writes the direction of `seed` into `out` (whose length is the
/// dimension): a deterministic pseudo-random vector scaled to unit norm.
/// Every distinct seed produces an (almost surely) distinct direction.
pub(crate) fn seeded_direction_into(seed: u64, out: &mut [f32]) {
    raw_directions_into([seed], out);
    normalize_in_place(out);
}

/// The un-normalised components of `N` directions, interleaved: component
/// `i` of the direction of `seeds[k]` lands in `out[i * N + k]`.  Each
/// direction's chain of states is its own, so the values do not depend on
/// which seeds share a call.
fn raw_directions_into<const N: usize>(seeds: [u64; N], out: &mut [f32]) {
    let mut states = seeds;
    for (i, components) in out.chunks_exact_mut(N).enumerate() {
        let salt = (i as u64).wrapping_mul(0x9e37_79b9);
        for (state, component) in states.iter_mut().zip(components) {
            *state = splitmix64(*state ^ salt);
            // Map to [-1, 1).
            let unit = (*state >> 11) as f32 / (1u64 << 53) as f32;
            *component = unit * 2.0 - 1.0;
        }
    }
}

/// [`seeded_direction_into`] as an owned [`Vector`].
pub(crate) fn seeded_direction(seed: u64, dim: usize) -> Vector {
    let mut components = vec![0.0; dim];
    seeded_direction_into(seed, &mut components);
    Vector::new(components)
}

/// Scales `v` to unit norm in place (zero vectors stay zero), with the
/// arithmetic of [`Vector::normalized`].
pub(crate) fn normalize_in_place(v: &mut [f32]) {
    let norm = v.iter().map(|c| c * c).sum::<f32>().sqrt();
    if norm != 0.0 {
        for c in v {
            *c /= norm;
        }
    }
}

/// `acc += row * scale`, with the arithmetic of [`Vector::add_scaled`].
///
/// Out of line on purpose: as a function of two `noalias` slices the loop
/// vectorises, while inlined into a caller that reaches `row` through
/// `&mut self` it was compiled one component at a time.
#[inline(never)]
pub(crate) fn add_scaled(acc: &mut [f32], row: &[f32], scale: f32) {
    assert_eq!(acc.len(), row.len(), "vector dimension mismatch");
    for (a, b) in acc.iter_mut().zip(row) {
        *a += b * scale;
    }
}

/// A direct-mapped memo of seed → direction with a fixed number of slots;
/// see the module docs for why its state can never show in a vector.
#[derive(Debug)]
pub(crate) struct DirectionTable {
    /// Row width; the table re-allocates (and forgets every row) when an
    /// embedder of another dimension uses the thread.
    dim: usize,
    /// The seed whose direction each row holds.
    tags: Vec<Option<u64>>,
    /// `tags.len() × dim` components, row-major.
    rows: Vec<f32>,
    /// The row handed out for one-shot seeds, which bypass the slots.
    spare: Vec<f32>,
    /// `dim × LANES` interleaved components of the directions being
    /// regenerated together.
    staging: Vec<f32>,
}

impl DirectionTable {
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots > 0, "a direction table needs at least one slot");
        DirectionTable {
            dim: 0,
            tags: vec![None; slots],
            rows: Vec::new(),
            spare: Vec::new(),
            staging: Vec::new(),
        }
    }

    /// Adds `direction(seed) * scale` into `acc` for every `(seed, scale)`
    /// of `terms`, in order.
    pub(crate) fn accumulate(&mut self, terms: &[(u64, f32)], dim: usize, acc: &mut [f32]) {
        self.ensure_dim(dim);
        // First make the missing directions resident, `LANES` at a time.
        // This only ever moves work forward: the sum below looks every seed
        // up again, and regenerates the odd row a later seed of the same
        // value evicted in between.
        let mut missing = [(0, 0); LANES];
        let mut queued = 0;
        for &(seed, _) in terms {
            let slot = self.slot_of(seed);
            if self.tags[slot] != Some(seed) {
                self.tags[slot] = Some(seed);
                missing[queued] = (slot, seed);
                queued += 1;
                if queued == LANES {
                    self.regenerate(&missing);
                    queued = 0;
                }
            }
        }
        self.regenerate(&missing[..queued]);
        for &(seed, scale) in terms {
            add_scaled(acc, self.direction(seed, dim), scale);
        }
    }

    /// The direction of `seed`: its slot's row when the tag matches,
    /// regenerated in place (evicting the slot's previous seed) otherwise.
    #[inline]
    pub(crate) fn direction(&mut self, seed: u64, dim: usize) -> &[f32] {
        self.ensure_dim(dim);
        let slot = self.slot_of(seed);
        let row = &mut self.rows[slot * dim..(slot + 1) * dim];
        if self.tags[slot] != Some(seed) {
            seeded_direction_into(seed, row);
            self.tags[slot] = Some(seed);
        }
        row
    }

    #[inline]
    fn slot_of(&self, seed: u64) -> usize {
        // Multiply-shift range reduction over the mixed seed's high bits:
        // uniform over any slot count, no division.
        let mixed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((mixed as u128 * self.tags.len() as u128) >> 64) as usize
    }

    /// Writes the directions of up to [`LANES`] `(slot, seed)` pairs into
    /// their slots' rows, in order (so the last of two pairs that share a
    /// slot is the one left in it, matching the tag [`accumulate`] set).
    ///
    /// [`accumulate`]: Self::accumulate
    fn regenerate(&mut self, missing: &[(usize, u64)]) {
        if missing.is_empty() {
            return;
        }
        let mut seeds = [0; LANES];
        for (lane, &(_, seed)) in seeds.iter_mut().zip(missing) {
            *lane = seed;
        }
        raw_directions_into(seeds, &mut self.staging);
        for (lane, &(slot, _)) in missing.iter().enumerate() {
            let row = &mut self.rows[slot * self.dim..(slot + 1) * self.dim];
            for (component, lanes) in row.iter_mut().zip(self.staging.chunks_exact(LANES)) {
                *component = lanes[lane];
            }
            normalize_in_place(row);
        }
    }

    /// The direction of a seed that will not recur (per-value noise): written
    /// to the spare row so it cannot evict a direction that will.
    pub(crate) fn one_shot(&mut self, seed: u64, dim: usize) -> &[f32] {
        self.ensure_dim(dim);
        seeded_direction_into(seed, &mut self.spare);
        &self.spare
    }

    #[inline]
    fn ensure_dim(&mut self, dim: usize) {
        if self.dim != dim {
            self.resize_rows(dim);
        }
    }

    #[cold]
    fn resize_rows(&mut self, dim: usize) {
        {
            self.dim = dim;
            self.tags.fill(None);
            // `vec!` of zeros is a zeroed allocation: pages stay unbacked
            // until a row is first generated into them.
            self.rows = vec![0.0; self.tags.len() * dim];
            self.spare = vec![0.0; dim];
            self.staging = vec![0.0; dim * LANES];
        }
    }

    fn heap_bytes(&self) -> usize {
        self.tags.capacity() * std::mem::size_of::<Option<u64>>()
            + (self.rows.capacity() + self.spare.capacity() + self.staging.capacity())
                * std::mem::size_of::<f32>()
    }
}

/// Everything an embedding needs besides its output vector, kept per thread
/// so that a warm embedding allocates nothing else.
#[derive(Debug)]
pub(crate) struct EmbedScratch {
    /// The value being embedded, normalised and tokenised once.
    pub(crate) text: TextScanner,
    /// Lexicon lookup key under construction.
    pub(crate) key: String,
    /// The `(seed, scale)` terms of the surface sum under construction.
    pub(crate) terms: Vec<(u64, f32)>,
    pub(crate) table: DirectionTable,
}

thread_local! {
    static SCRATCH: RefCell<EmbedScratch> = RefCell::new(EmbedScratch {
        text: TextScanner::new(),
        key: String::new(),
        terms: Vec::new(),
        table: DirectionTable::new(DIRECTION_TABLE_SLOTS),
    });
}

/// Runs `f` over the calling thread's scratch.  Embedders never call one
/// another from inside `f`, so the borrow cannot be re-entered.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut EmbedScratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// `(slots, heap bytes)` of the calling thread's direction table — the
/// stated bound a soak test holds it to.  Bytes are `0` until the thread's
/// first embedding allocates the rows.
pub fn thread_table_footprint() -> (usize, usize) {
    with_scratch(|scratch| (scratch.table.tags.len(), scratch.table.heap_bytes()))
}

/// Runs `f` with the calling thread's direction table replaced by an empty
/// one of `slots` slots, then puts the original back.  Embeddings computed
/// inside `f` are bit-identical to those computed outside it; a tiny table
/// makes nearly every lookup an eviction, which is how the equivalence tests
/// exercise that guarantee.
///
/// # Panics
/// Panics if `slots == 0`.
pub fn with_thread_table_slots<R>(slots: usize, f: impl FnOnce() -> R) -> R {
    let small = DirectionTable::new(slots);
    let full = with_scratch(|scratch| std::mem::replace(&mut scratch.table, small));
    let result = f();
    with_scratch(|scratch| scratch.table = full);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|c| c.to_bits()).collect()
    }

    fn fresh_bits(seed: u64) -> Vec<u32> {
        bits(seeded_direction(seed, 16).components())
    }

    #[test]
    fn hits_misses_and_evictions_return_the_same_bits() {
        // One slot: every change of seed evicts.
        let mut table = DirectionTable::new(1);
        for seed in [7u64, 7, 9, 7, u64::MAX, 0, 0, 9] {
            assert_eq!(bits(table.direction(seed, 16)), fresh_bits(seed), "seed {seed}");
        }
        assert_eq!(bits(table.one_shot(11, 16)), fresh_bits(11));
        // The spare row left the slot alone.
        assert_eq!(table.tags, [Some(9)]);
    }

    #[test]
    fn batched_sums_equal_one_lookup_at_a_time_whatever_collides() {
        // Ten terms with repeats through two slots: every group of missing
        // directions has seeds that share a slot, and seeds evicted between
        // being made resident and being summed.
        let terms: Vec<(u64, f32)> =
            [5u64, 6, 7, 5, 8, 9, 6, 10, 11, 5].iter().map(|&s| (s, 0.5 + s as f32)).collect();
        let mut expected = vec![0.0; 16];
        for &(seed, scale) in &terms {
            add_scaled(&mut expected, seeded_direction(seed, 16).components(), scale);
        }
        for slots in [1, 2, 3, 64] {
            let mut table = DirectionTable::new(slots);
            let mut acc = vec![0.0; 16];
            table.accumulate(&terms, 16, &mut acc);
            assert_eq!(bits(&acc), bits(&expected), "{slots} slots");
            for (slot, tag) in table.tags.iter().enumerate() {
                let row = &table.rows[slot * 16..(slot + 1) * 16];
                if let Some(seed) = tag {
                    assert_eq!(bits(row), fresh_bits(*seed), "slot {slot} disagrees with its tag");
                }
            }
        }
    }

    #[test]
    fn a_change_of_dimension_forgets_every_row() {
        let mut table = DirectionTable::new(4);
        let wide = bits(table.direction(3, 8));
        assert_eq!(wide.len(), 8);
        let narrow = bits(table.direction(3, 4));
        assert_eq!(narrow, bits(seeded_direction(3, 4).components()));
        assert_eq!(bits(table.direction(3, 8)), wide);
        assert_eq!(table.tags.iter().flatten().count(), 1);
    }

    #[test]
    fn the_thread_table_stays_within_its_stated_bound() {
        with_scratch(|scratch| {
            for seed in 0..10_000u64 {
                scratch.table.direction(splitmix64(seed), 64);
            }
        });
        let (slots, bytes) = thread_table_footprint();
        assert_eq!(slots, DIRECTION_TABLE_SLOTS);
        assert!(bytes <= 512 << 10, "{bytes} bytes");
    }

    #[test]
    fn shrinking_the_thread_table_is_scoped() {
        let inside = with_thread_table_slots(2, || thread_table_footprint().0);
        assert_eq!(inside, 2);
        assert_eq!(thread_table_footprint().0, DIRECTION_TABLE_SLOTS);
    }
}
