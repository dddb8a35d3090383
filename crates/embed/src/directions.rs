//! Seeded pseudo-random directions and the batch kernel that sums them.
//!
//! Every n-gram, word token, concept and acronym owns a *direction*: a unit
//! vector that is a pure function of a 64-bit seed
//! (`seeded_direction_into`).  Generating one is 64 serial hash steps and a
//! norm, and an embedding sums ~50 of them drawn from a vocabulary of a few
//! thousand, so values embedded together share most of their directions.
//! The kernel therefore embeds a *batch* of values at a time
//! (`embed_batch_of`):
//!
//! 1. scan each value, in input order, into its `(seed, scale)` terms in
//!    the straight-line order, interning each seed into the thread's arena
//!    (`seed → row`) and recording the sum as `Step`s;
//! 2. once the values scanned so far wait on `PENDING_ROWS` rows the batch
//!    had not met before (and at the end of the batch), generate those
//!    rows, eight at a time with their hash chains interleaved;
//! 3. run the waiting steps: each value's rows summed in term order,
//!    normalised, gated on a non-zero sum, extended and normalised again.
//!
//! So every distinct seed of a batch is generated exactly once, and only a
//! few values' steps are ever held.  A batch with more distinct seeds than
//! the arena's cap ([`ARENA_ROWS`]) runs as consecutive chunks: when the
//! arena is full, the steps recorded so far are summed and the arena starts
//! over, so a value may straddle two chunks, its partial sum carried over.
//!
//! **Vector bits cannot depend on batch composition.**  A row is only ever
//! the output of `seeded_direction_into` for the seed interned at it, and
//! each value's rows are added into its sum in the order the straight-line
//! algorithm would, with the same arithmetic — so a value embeds to the same
//! bits alone, in any batch, at any position, across any chunk boundary and
//! on any thread.  `tests/embed_equivalence.rs` embeds one corpus one value
//! at a time, as one batch, reversed, interleaved, and under a 2-row cap to
//! hold this.
//!
//! **Memory bound.**  The arena keeps its capacity between batches, so a
//! warm embedding allocates only its output, and never holds more than
//! [`ARENA_ROWS`] rows: per row `4·dim` bytes of components, an 8-byte
//! seed and two 8-byte index slots — 280 bytes, so 2.2 MiB at the default
//! 64 dimensions — plus `MAX_STEPS` 12-byte steps (48 KiB), per thread
//! that embeds.  Every buffer grows only as far as the largest chunk yet:
//! Auto-Join's largest batch (2 320 distinct seeds) leaves under 1 MiB.

use std::cell::RefCell;

use lake_text::TextScanner;

use crate::embedder::splitmix64;
use crate::vector::Vector;

/// Most rows a thread's arena holds; a batch with more distinct seeds runs
/// in chunks of at most this many.  A power of two, so the doubling growth
/// of the seed list lands on it exactly.
pub const ARENA_ROWS: usize = 8_192;

/// Most steps held before they are summed: a value with more terms (a cell
/// of well over a thousand characters) is summed in parts.
const MAX_STEPS: usize = 4_096;

/// New rows that wait for generation before the values needing them are
/// summed, so that generation runs mostly in full groups of [`LANES`].
const PENDING_ROWS: usize = 4 * LANES;

/// Most directions generated together.  Independent hash chains overlap
/// where one waits on its own multiplies: generating four or eight costs
/// about half as much per direction as generating one.
const LANES: usize = 8;

/// Slots of the `seed → row` index before its first growth.
const MIN_INDEX_SLOTS: usize = 256;

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

/// [`seeded_direction_into`] as an owned [`Vector`]: the tests' reference.
#[cfg(test)]
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

/// One step of a value's sum, in the straight-line order.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Add the arena row times the scale into the current value's sum.
    Add(u32, f32),
    /// Normalise the current value's sum; if it is zero, skip the value's
    /// remaining `Add`s (empty values embed to zero).
    Gate,
    /// Normalise the current value's sum and move on to the next value.
    Finish,
}

/// The per-thread arena: the distinct seeds of the chunk being built, their
/// rows, and the steps that sum them.  See the module docs.
#[derive(Debug)]
struct Arena {
    /// Most rows a chunk may intern: [`ARENA_ROWS`], lowered only by
    /// [`with_arena_cap`].
    cap: usize,
    /// The seed interned at each row, in first-occurrence order.
    seeds: Vec<u64>,
    /// How many of `seeds` have their row written.
    generated: usize,
    /// `generated × dim` components, row-major.
    rows: Vec<f32>,
    /// Open-addressed `seed → row` index, each slot `stamp << 32 | row`; a
    /// slot holding another stamp is empty, so starting a chunk clears it
    /// in O(1).  A power of two at least twice the chunk's rows, grown with
    /// them up to `2 · ARENA_ROWS` slots.
    index: Vec<u64>,
    stamp: u32,
    /// The steps not yet summed: a few values', at most [`MAX_STEPS`].
    steps: Vec<Step>,
    /// `dim × LANES` interleaved components of the directions being
    /// generated together.
    staging: Vec<f32>,
}

impl Arena {
    fn new() -> Self {
        Arena {
            cap: ARENA_ROWS,
            seeds: Vec::new(),
            generated: 0,
            rows: Vec::new(),
            index: vec![0; MIN_INDEX_SLOTS],
            // Stamp 0 is never current, so a zeroed slot is empty.
            stamp: 1,
            steps: Vec::new(),
            staging: Vec::new(),
        }
    }

    /// The row of `seed`, or the empty slot where it would go.
    #[inline]
    fn probe(&self, seed: u64) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        // Multiply-shift over the mixed seed's high bits.
        let mut slot = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        loop {
            let entry = self.index[slot];
            if (entry >> 32) as u32 != self.stamp {
                return Err(slot);
            }
            let row = entry as u32;
            if self.seeds[row as usize] == seed {
                return Ok(row);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The row of `seed`, interning it if it is new; `None` when it is new
    /// and the chunk already holds `cap` rows.
    #[inline]
    fn intern(&mut self, seed: u64) -> Option<u32> {
        let mut slot = match self.probe(seed) {
            Ok(row) => return Some(row),
            Err(_) if self.seeds.len() == self.cap => return None,
            Err(slot) => slot,
        };
        if 2 * (self.seeds.len() + 1) > self.index.len() {
            self.grow_index();
            slot = self.probe(seed).expect_err("the seed is new");
        }
        let row = self.seeds.len() as u32;
        self.seeds.push(seed);
        self.index[slot] = (self.stamp as u64) << 32 | row as u64;
        Some(row)
    }

    /// Doubles the index and re-inserts the chunk's seeds.
    #[cold]
    fn grow_index(&mut self) {
        self.index = vec![0; 2 * self.index.len()];
        self.stamp = 1;
        for (row, &seed) in self.seeds.iter().enumerate() {
            let slot = self.probe(seed).expect_err("interned seeds are distinct");
            self.index[slot] = (self.stamp as u64) << 32 | row as u64;
        }
    }

    /// Writes the rows of the seeds interned since the last call.
    fn generate(&mut self, dim: usize) {
        let (mut next, end) = (self.generated, self.seeds.len());
        let len = end * dim;
        if self.rows.capacity() < len {
            // Amortised growth, never past the most rows a chunk can hold.
            let target = len.max(2 * self.rows.capacity()).min(ARENA_ROWS * dim);
            self.rows.reserve_exact(target - self.rows.len());
        }
        self.rows.resize(len, 0.0);
        self.staging.resize(dim * LANES, 0.0);
        while next < end {
            next += match end - next {
                LANES.. => self.generate_lanes::<LANES>(next, dim),
                4.. => self.generate_lanes::<4>(next, dim),
                2.. => self.generate_lanes::<2>(next, dim),
                _ => self.generate_lanes::<1>(next, dim),
            };
        }
        self.generated = end;
    }

    /// Writes the rows of the `N` seeds from row `first` on, their hash
    /// chains interleaved; returns `N`.
    fn generate_lanes<const N: usize>(&mut self, first: usize, dim: usize) -> usize {
        let seeds: [u64; N] = self.seeds[first..first + N].try_into().expect("N seeds");
        let staging = &mut self.staging[..N * dim];
        raw_directions_into(seeds, staging);
        for (lane, row) in self.rows[first * dim..][..N * dim].chunks_exact_mut(dim).enumerate() {
            for (component, lanes) in row.iter_mut().zip(staging.chunks_exact(N)) {
                *component = lanes[lane];
            }
            normalize_in_place(row);
        }
        N
    }

    /// Forgets the chunk's seeds and steps, keeping every buffer.
    fn reset(&mut self) {
        self.seeds.clear();
        self.generated = 0;
        self.steps.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.index.fill(0);
            self.stamp = 1;
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.seeds.capacity() * size_of::<u64>()
            + (self.rows.capacity() + self.staging.capacity()) * size_of::<f32>()
            + self.index.capacity() * size_of::<u64>()
            + self.steps.capacity() * size_of::<Step>()
    }
}

/// A batch being embedded: the terms of its values go in through
/// [`add`](Self::add) and [`gate`](Self::gate), and the values are summed
/// into their outputs whenever [`PENDING_ROWS`] new rows wait, the arena or
/// the step list is full, or the batch ends.
pub(crate) struct Batch<'a> {
    arena: &'a mut Arena,
    dim: usize,
    out: &'a mut [Vec<f32>],
    /// The value the next summed step belongs to.
    value: usize,
    /// Whether that value's sum was zero at its gate.
    skipping: bool,
}

impl Batch<'_> {
    /// Adds `direction(seed) × scale` to the sum of the value being scanned.
    pub(crate) fn add(&mut self, seed: u64, scale: f32) {
        self.make_room_for_a_step();
        let row = match self.arena.intern(seed) {
            Some(row) => row,
            None => {
                // The chunk is full: sum every step that refers to it, then
                // start the next one.
                self.sum_pending();
                self.arena.reset();
                self.arena.intern(seed).expect("an empty chunk has a free row")
            }
        };
        self.arena.steps.push(Step::Add(row, scale));
    }

    /// Normalises the scanned value's sum so far; when it is zero, the
    /// value's later terms are skipped and it embeds to zero.
    pub(crate) fn gate(&mut self) {
        self.mark(Step::Gate);
    }

    /// Closes the scanned value, and sums the values closed so far once
    /// their new rows fill [`PENDING_ROWS`].
    fn finish(&mut self) {
        self.mark(Step::Finish);
        if self.arena.seeds.len() - self.arena.generated >= PENDING_ROWS {
            self.sum_pending();
        }
    }

    fn mark(&mut self, step: Step) {
        self.make_room_for_a_step();
        self.arena.steps.push(step);
    }

    fn make_room_for_a_step(&mut self) {
        if self.arena.steps.len() == MAX_STEPS {
            self.sum_pending();
        }
    }

    /// Generates the rows the pending steps need and runs the steps.
    fn sum_pending(&mut self) {
        let dim = self.dim;
        self.arena.generate(dim);
        let arena = &mut *self.arena;
        for &step in &arena.steps {
            let acc = &mut self.out[self.value];
            match step {
                Step::Add(row, scale) => {
                    if !self.skipping {
                        let row = row as usize;
                        add_scaled(acc, &arena.rows[row * dim..(row + 1) * dim], scale);
                    }
                }
                Step::Gate => {
                    normalize_in_place(acc);
                    self.skipping = acc.iter().all(|c| *c == 0.0);
                }
                Step::Finish => {
                    normalize_in_place(acc);
                    self.value += 1;
                    self.skipping = false;
                }
            }
        }
        arena.steps.clear();
    }
}

/// Embeds `values` into `dim`-dimensional vectors, in input order: the
/// kernel under every embedder.  `terms` receives each value with the
/// thread's scanner already loaded with it and a scratch key `String`, and
/// feeds the value's terms into the batch in the straight-line order; the
/// kernel normalises each value's sum after its last term.
pub(crate) fn embed_batch_of(
    values: &[&str],
    dim: usize,
    mut terms: impl FnMut(&str, &TextScanner, &mut String, &mut Batch<'_>),
) -> Vec<Vector> {
    let mut out: Vec<Vec<f32>> = values.iter().map(|_| vec![0.0; dim]).collect();
    with_scratch(|scratch| {
        let EmbedScratch { text, key, arena } = scratch;
        arena.reset();
        let mut batch = Batch { arena, dim, out: &mut out, value: 0, skipping: false };
        for value in values {
            text.load(value);
            terms(value, text, key, &mut batch);
            batch.finish();
        }
        batch.sum_pending();
    });
    out.into_iter().map(Vector::new).collect()
}

/// Everything an embedding needs besides its output vectors, kept per thread
/// so that a warm embedding allocates nothing else.
#[derive(Debug)]
struct EmbedScratch {
    /// The value being scanned, normalised and tokenised once.
    text: TextScanner,
    /// Lexicon lookup key under construction.
    key: String,
    arena: Arena,
}

thread_local! {
    static SCRATCH: RefCell<EmbedScratch> = RefCell::new(EmbedScratch {
        text: TextScanner::new(),
        key: String::new(),
        arena: Arena::new(),
    });
}

/// Runs `f` over the calling thread's scratch.  The kernel never calls an
/// embedder from inside `f`, so the borrow cannot be re-entered.
fn with_scratch<R>(f: impl FnOnce(&mut EmbedScratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// `(rows, heap bytes)` the calling thread's arena keeps between batches —
/// the stated bound a soak test holds it to.
pub fn thread_arena_footprint() -> (usize, usize) {
    with_scratch(|scratch| (scratch.arena.seeds.capacity(), scratch.arena.heap_bytes()))
}

/// Runs `f` with the calling thread's arena capped at `rows` rows, then
/// restores [`ARENA_ROWS`].  Embeddings computed inside `f` are
/// bit-identical to those computed outside it; a tiny cap cuts every batch
/// into many chunks and nearly every value across two of them, which is how
/// the equivalence tests exercise that guarantee.
///
/// # Panics
/// Panics unless `1 <= rows <= ARENA_ROWS`.
pub fn with_arena_cap<R>(rows: usize, f: impl FnOnce() -> R) -> R {
    assert!((1..=ARENA_ROWS).contains(&rows), "an arena cap must be in 1..=ARENA_ROWS");
    with_scratch(|scratch| scratch.arena.cap = rows);
    let result = f();
    with_scratch(|scratch| scratch.arena.cap = ARENA_ROWS);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|c| c.to_bits()).collect()
    }

    /// The straight-line sum: `normalise(Σ direction(seed) × scale)`.
    fn expected(terms: &[(u64, f32)], dim: usize) -> Vec<u32> {
        let mut acc = vec![0.0; dim];
        for &(seed, scale) in terms {
            add_scaled(&mut acc, seeded_direction(seed, dim).components(), scale);
        }
        normalize_in_place(&mut acc);
        bits(&acc)
    }

    /// Embeds each term list as one value of one batch.
    fn embed_terms(values: &[&[(u64, f32)]], dim: usize) -> Vec<Vec<u32>> {
        let keys: Vec<String> = (0..values.len()).map(|i| i.to_string()).collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        embed_batch_of(&keys, dim, |key, _, _, batch| {
            for &(seed, scale) in values[key.parse::<usize>().expect("an index")] {
                batch.add(seed, scale);
            }
        })
        .iter()
        .map(|v| bits(v.components()))
        .collect()
    }

    #[test]
    fn batched_sums_equal_one_lookup_at_a_time_whatever_collides() {
        // Repeats within and across values, a value with no terms, and
        // seeds at both ends of the range.
        let a: Vec<(u64, f32)> =
            [5u64, 6, 7, 5, 8, 9, 6, 10, 11, 5].iter().map(|&s| (s, 0.5 + s as f32)).collect();
        let b = [(u64::MAX, 1.0), (0, 2.5), (7, 1.0), (u64::MAX, 1.0)];
        // More terms than the steps held at once: summed in parts.
        let c = [(5, 1.0); MAX_STEPS + 7];
        let values: [&[(u64, f32)]; 5] = [&a, &b, &[], &c, &a];
        for cap in [1, 2, 3, 64] {
            let seen = with_arena_cap(cap, || embed_terms(&values, 16));
            for (value, seen) in values.iter().zip(&seen) {
                assert_eq!(seen, &expected(value, 16), "cap {cap}");
            }
        }
    }

    #[test]
    fn a_change_of_dimension_forgets_every_row() {
        let terms: &[(u64, f32)] = &[(3, 1.0), (9, 2.0)];
        let wide = embed_terms(&[terms], 8);
        assert_eq!(wide[0], expected(terms, 8));
        assert_eq!(embed_terms(&[terms], 4)[0], expected(terms, 4));
        assert_eq!(embed_terms(&[terms], 8), wide);
    }

    #[test]
    fn the_thread_arena_stays_within_its_stated_bound() {
        // 40 000 distinct seeds in one batch: more than two chunks.
        let values: Vec<Vec<(u64, f32)>> = (0..1_000u64)
            .map(|v| (0..40).map(|t| (splitmix64(v * 40 + t), 1.0)).collect())
            .collect();
        let values: Vec<&[(u64, f32)]> = values.iter().map(Vec::as_slice).collect();
        embed_terms(&values, 64);
        let (rows, bytes) = thread_arena_footprint();
        assert!(rows <= ARENA_ROWS, "{rows} rows");
        assert!(bytes <= ARENA_ROWS * (4 * 64 + 8 + 2 * 8) + MAX_STEPS * 12 + LANES * 64 * 4);
    }

    #[test]
    fn capping_the_thread_arena_is_scoped() {
        let inside = with_arena_cap(2, || with_scratch(|scratch| scratch.arena.cap));
        assert_eq!(inside, 2);
        assert_eq!(with_scratch(|scratch| scratch.arena.cap), ARENA_ROWS);
    }
}
