//! Allocation and memory bounds of the embedding kernel.
//!
//! The kernel's scratch (normalised `char` buffer, lexicon key, direction
//! arena) lives per thread and keeps its capacity, so a warm embedding should
//! allocate its output vector and nothing else, and no batch, however many
//! distinct seeds it holds, may grow the arena past its row cap.  A counting
//! global allocator holds both; counts are per thread, so the harness's own
//! threads and the sibling test cannot leak into a measurement.

#![allow(
    unsafe_code,
    reason = "a `#[global_allocator]` can only be written against the unsafe `GlobalAlloc` trait; \
              this one forwards every call to `System` untouched"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datalake_fuzzy_fd::embed::directions::{thread_arena_footprint, ARENA_ROWS};
use datalake_fuzzy_fd::embed::EmbeddingModel;

thread_local! {
    // Const-initialised and destructor-free: touching it from inside the
    // allocator can neither allocate nor run after thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations
/// (`realloc` and `alloc_zeroed` reach `alloc` through the trait defaults).
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: `layout` is the caller's, under the same contract.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_warm_embedding_allocates_little_more_than_its_output() {
    let embedder = EmbeddingModel::Mistral.build();
    // Warm the thread's scratch with a longer value of the same shape; the
    // directions of the measured value are still cold, which must not matter.
    embedder.embed("International Business Machines");
    let (vector, allocations) = allocations_during(|| embedder.embed("New York City"));
    assert_eq!(vector.dim(), embedder.dim());
    assert!(allocations <= 4, "a warm 3-word embedding made {allocations} allocations");
}

#[test]
fn the_arena_stays_within_its_row_cap() {
    let embedder = EmbeddingModel::Mistral.build();

    // 50 000 distinct pseudo-random values of one to four words, embedded as
    // one batch: several times more distinct seeds than the arena has rows.
    const VALUES: u64 = 50_000;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let values: Vec<String> = (0..VALUES)
        .map(|i| {
            let mut value = String::new();
            for word in 0..1 + next() % 4 {
                if word > 0 {
                    value.push(' ');
                }
                for _ in 0..2 + next() % 9 {
                    value.push((b'a' + (next() % 26) as u8) as char);
                }
            }
            value.push_str(&i.to_string());
            value
        })
        .collect();
    let values: Vec<&str> = values.iter().map(String::as_str).collect();
    let (vectors, allocations) = allocations_during(|| embedder.embed_many(&values));
    assert_eq!(vectors.len(), values.len());

    let (rows, bytes) = thread_arena_footprint();
    assert!(rows <= ARENA_ROWS, "the arena kept {rows} rows");
    // Per row at 64 dimensions: 256 bytes of components, an 8-byte seed and
    // two 8-byte index slots; plus 4 096 twelve-byte steps and eight staging
    // rows.
    let bound = ARENA_ROWS * (4 * 64 + 8 + 2 * 8) + 4_096 * 12 + 8 * 64 * 4;
    assert!(bytes <= bound, "the arena kept {bytes} bytes, over its {bound}-byte bound");
    // One output vector per value and the output list; the arena grows
    // a few dozen times on the way to its cap.
    assert!(allocations <= VALUES + 64, "{allocations} allocations for {VALUES} values");
}
