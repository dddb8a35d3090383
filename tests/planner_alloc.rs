//! Memory bound of the blocking planner.
//!
//! `plan_blocks` documents what it holds beyond its inputs: the fold's
//! quantized slabs (and, escalated, the ANN index), a fixed number of bytes
//! per candidate edge, the surface-key channel's entries, pairs and dedup
//! bitmap, and O(rows + cols) of union-find and block bookkeeping.  A counting
//! global allocator measures the peak live heap of one `plan_blocks` call on
//! a lake-scale escalation fold, once per planned tier, and holds it to that
//! sum.  Counts are per thread (the planner runs on the calling thread), so
//! the harness's own threads cannot leak into a measurement.

#![allow(
    unsafe_code,
    reason = "a `#[global_allocator]` can only be written against the unsafe `GlobalAlloc` trait; \
              this one forwards every call to `System` untouched"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datalake_fuzzy_fd::benchdata::{generate_escalation_fold, EscalationFoldConfig};
use datalake_fuzzy_fd::core::{
    hashed_value_block_keys, plan_blocks, BlockPlan, BlockingPolicy, FoldInputs, FuzzyFdConfig,
};
use datalake_fuzzy_fd::embed::{AnnIndex, AnnParams, QuantizedSlab, Vector};

thread_local! {
    // Const-initialised and destructor-free: touching them from inside the
    // allocator can neither allocate nor run after thread teardown.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.with(|live| {
        live.set(live.get() + bytes);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

fn shrink(bytes: usize) {
    // A block freed on another thread than the one that allocated it would
    // underflow; saturate instead of wrapping.
    LIVE.with(|live| live.set(live.get().saturating_sub(bytes)));
}

/// The system allocator, counting the calling thread's live and peak bytes.
/// A `realloc` counts as the size change it makes, the way the program sees
/// it: the old block is returned by the same call.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: `layout` is the caller's, under the same contract.
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: `ptr` was returned by this allocator with `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the peak live bytes it added on
/// top of what the thread held when it started.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let result = f();
    (result, PEAK.with(Cell::get) - base)
}

/// The lake-scale fold of the escalated-tier tests: 1 050 canonical
/// entities against their noisy variants (about a million pairs).
struct Fold {
    row_keys: Vec<Vec<u64>>,
    col_keys: Vec<Vec<u64>>,
    row_vectors: Vec<Vector>,
    col_vectors: Vec<Vector>,
}

impl Fold {
    fn generate() -> Self {
        let fold = generate_escalation_fold(EscalationFoldConfig {
            entities: 1_050,
            ..EscalationFoldConfig::default()
        });
        let embedder = FuzzyFdConfig::default().model.build();
        let side = |values: &[String]| {
            let strs: Vec<&str> = values.iter().map(String::as_str).collect();
            let keys = strs.iter().map(|value| hashed_value_block_keys(value)).collect();
            (keys, embedder.embed_many(&strs))
        };
        let (row_keys, row_vectors) = side(&fold.columns[0]);
        let (col_keys, col_vectors) = side(&fold.columns[1]);
        Fold { row_keys, col_keys, row_vectors, col_vectors }
    }
}

/// Plans `fold` under `policy` and returns the plan with its peak bytes and
/// the documented bound.
fn measure(fold: &Fold, policy: BlockingPolicy, escalated: bool) -> (BlockPlan, usize, usize) {
    let rows: Vec<&Vector> = fold.row_vectors.iter().collect();
    let cols: Vec<&Vector> = fold.col_vectors.iter().collect();
    let input = FoldInputs {
        row_keys: &fold.row_keys,
        col_keys: &fold.col_keys,
        row_embeddings: &rows,
        col_embeddings: &cols,
        theta: FuzzyFdConfig::default().theta,
    };
    // The packed copies of the inputs the tier builds: their peak while built.
    let ((), packed) = peak_during(|| {
        let row_slab = QuantizedSlab::from_vectors(&rows);
        let col_slab = QuantizedSlab::from_vectors(&cols);
        let index = escalated.then(|| AnnIndex::build_from_slab(AnnParams::default(), &col_slab));
        drop((row_slab, col_slab, index));
    });
    let (plan, peak) = peak_during(|| plan_blocks(&input, &policy));

    // The bound stated on `plan_blocks`.
    let nodes = rows.len() + cols.len();
    let edges = plan.stats.candidate_pairs + plan.stats.severed_pairs;
    let mut bound = packed + 52 * edges + 128 * nodes;
    if escalated {
        let keys: usize = fold.row_keys.iter().chain(&fold.col_keys).map(Vec::len).sum();
        let bitmap = (rows.len() * cols.len()).div_ceil(8);
        bound += 16 * keys + bitmap + 8 * plan.stats.scored_pairs;
    }
    (plan, peak, bound)
}

#[test]
fn the_planner_stays_within_its_documented_memory_bound() {
    let fold = Fold::generate();
    let exact = BlockingPolicy {
        min_blocked_pairs: 0,
        min_fold_pairs: usize::MAX,
        ..BlockingPolicy::default()
    };
    let escalated =
        BlockingPolicy { min_blocked_pairs: 0, min_fold_pairs: 0, ..BlockingPolicy::default() };
    for (name, policy, is_escalated) in [("exact", exact, false), ("escalated", escalated, true)] {
        let (plan, peak, bound) = measure(&fold, policy, is_escalated);
        assert_eq!(plan.stats.escalated_folds, usize::from(is_escalated));
        assert!(plan.stats.split_components > 0, "{name}: the fold must exercise the splitter");
        assert!(
            peak <= bound,
            "{name}: the planner peaked at {peak} bytes, over its {bound}-byte bound"
        );
    }
}
