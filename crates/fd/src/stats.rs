//! Execution statistics reported by the FD operators.

use lake_runtime::RuntimeStats;

/// Counters describing one Full Disjunction execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FdStats {
    /// Number of base tuples across all input tables that reach the outer
    /// union: rows with no present value are skipped and not counted.
    pub input_tuples: usize,
    /// Number of tuples in the FD result.
    pub output_tuples: usize,
    /// Number of join-connected components.
    pub components: usize,
    /// Size of the largest component (in base tuples).
    pub largest_component: usize,
    /// Components a [`ComponentCache`](crate::ComponentCache) kept as they
    /// were — no changed or new row reached them — instead of closing them
    /// again (always `0` when the operator was given no cache).
    pub reused_components: usize,
    /// How the component closures were scheduled: one task per component
    /// closed, at any thread count (cache-reused components never reach the
    /// executor).
    pub runtime: RuntimeStats,
}

impl FdStats {
    /// Compression ratio: output tuples per input tuple (1.0 = nothing
    /// merged, lower = more integration).
    pub fn compression(&self) -> f64 {
        if self.input_tuples == 0 {
            return 1.0;
        }
        self.output_tuples as f64 / self.input_tuples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_ratio() {
        let stats = FdStats {
            input_tuples: 10,
            output_tuples: 6,
            components: 4,
            largest_component: 3,
            ..FdStats::default()
        };
        assert!((stats.compression() - 0.6).abs() < 1e-12);
        let empty = FdStats::default();
        assert_eq!(empty.compression(), 1.0);
    }
}
