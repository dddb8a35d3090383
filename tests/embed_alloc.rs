//! Allocation and memory bounds of the embedding kernel.
//!
//! The kernel's scratch (normalised `char` buffer, lexicon key, direction
//! table) lives per thread, so a warm embedding should allocate its output
//! vector and nothing else, and no amount of distinct input may grow the
//! direction table past its fixed capacity.  A counting global allocator
//! holds both; counts are per thread, so the harness's own threads and the
//! sibling test cannot leak into a measurement.

#![allow(
    unsafe_code,
    reason = "a `#[global_allocator]` can only be written against the unsafe `GlobalAlloc` trait; \
              this one forwards every call to `System` untouched"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datalake_fuzzy_fd::embed::directions::{thread_table_footprint, DIRECTION_TABLE_SLOTS};
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
fn the_direction_table_stays_at_its_fixed_capacity() {
    let embedder = EmbeddingModel::Mistral.build();
    embedder.embed("first use allocates the table");
    let footprint = thread_table_footprint();
    assert_eq!(footprint.0, DIRECTION_TABLE_SLOTS);
    assert!(footprint.1 <= 512 << 10, "table of {} bytes exceeds its 512 KiB bound", footprint.1);

    // 50 000 distinct pseudo-random values of one to four words: far more
    // distinct n-grams than the table has slots.
    const VALUES: u64 = 50_000;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut value = String::new();
    let ((), allocations) = allocations_during(|| {
        for i in 0..VALUES {
            value.clear();
            for word in 0..1 + next() % 4 {
                if word > 0 {
                    value.push(' ');
                }
                for _ in 0..2 + next() % 9 {
                    value.push((b'a' + (next() % 26) as u8) as char);
                }
            }
            value.push_str(&i.to_string());
            std::hint::black_box(embedder.embed(&value));
        }
    });
    assert_eq!(thread_table_footprint(), footprint, "the direction table grew under soak");
    // One output vector and one counter string per value; scratch buffers
    // may double a handful of times on the way to the longest value.
    assert!(allocations <= 2 * VALUES + 64, "{allocations} allocations for {VALUES} values");
}
