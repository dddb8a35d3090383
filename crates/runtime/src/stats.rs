//! Scheduling diagnostics reported by the executor.

/// Counters describing how one (or several, after [`merge`](Self::merge))
/// [`run_scope`](crate::run_scope) batches were scheduled.
///
/// ```
/// use lake_runtime::RuntimeStats;
///
/// let mut total = RuntimeStats::default();
/// total.merge(&RuntimeStats {
///     tasks: 8,
///     per_worker_busy_nanos: vec![300, 100],
///     ..RuntimeStats::default()
/// });
/// assert_eq!(total.workers(), 2);
/// assert_eq!(total.busy_nanos(), 400);
/// assert!((total.imbalance() - 1.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Tasks executed (sequential batches count too).
    pub tasks: u64,
    /// Always `0`: workers claim tasks from one shared cursor, so nothing is
    /// ever stolen.  Kept only because the benchmark still reports it as
    /// `runtime.steals`; [`merge`](Self::merge) does not touch it.
    pub steals: u64,
    /// Nanoseconds each worker spent inside task closures (scheduling
    /// overhead excluded).  One entry per worker.  The merge rule is
    /// **element-wise, extended to the wider worker count**: entry `i` of the
    /// accumulator adds entry `i` of the merged batch, and a narrower
    /// accumulator is zero-padded first, so no worker's time is dropped or
    /// double-counted whatever the two batches' worker counts were.
    pub per_worker_busy_nanos: Vec<u64>,
    /// Batches folded into this accumulator that executed on a single worker
    /// while carrying at least one task.  A sequential batch's entire busy
    /// time lands on position 0, so once one is merged into a multi-worker
    /// accumulator the positional busy vector no longer describes any real
    /// schedule — [`imbalance`](Self::imbalance) then reports `1.0` instead
    /// of a division artifact.
    pub sequential_batches: u64,
}

impl RuntimeStats {
    /// Worker threads that participated (1 for sequential batches, 0 when
    /// nothing ran).
    pub fn workers(&self) -> usize {
        self.per_worker_busy_nanos.len()
    }

    /// Total busy nanoseconds across all workers.
    pub fn busy_nanos(&self) -> u64 {
        self.per_worker_busy_nanos.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Imbalance ratio: busiest worker over mean busy time, in
    /// `[1, workers]`.  `1.0` is a perfectly balanced schedule (also
    /// returned for empty/sequential batches, which cannot be imbalanced).
    ///
    /// An accumulator that merged at least one sequential batch
    /// ([`sequential_batches`](Self::sequential_batches) `> 0`) also reports
    /// `1.0`: the sequential batch's busy time all sits on position 0, so
    /// the max-over-mean ratio would measure that accounting artifact, not
    /// any schedule a worker actually ran.
    pub fn imbalance(&self) -> f64 {
        let workers = self.workers();
        let busy = self.busy_nanos();
        if workers <= 1 || busy == 0 || self.sequential_batches > 0 {
            return 1.0;
        }
        let max = self.per_worker_busy_nanos.iter().copied().max().unwrap_or(0);
        max as f64 * workers as f64 / busy as f64
    }

    /// Folds another batch's counters into this accumulator (saturating).
    /// Per-worker busy times add element-wise, extending to the wider of the
    /// two worker counts (the narrower vector is zero-padded, never
    /// truncated or concatenated), and sequential batches are counted so
    /// [`imbalance`](Self::imbalance) knows when the positional vector
    /// stopped describing a real schedule.
    pub fn merge(&mut self, other: &RuntimeStats) {
        self.tasks = self.tasks.saturating_add(other.tasks);
        self.sequential_batches = self.sequential_batches.saturating_add(other.sequential_batches);
        if self.per_worker_busy_nanos.len() < other.per_worker_busy_nanos.len() {
            self.per_worker_busy_nanos.resize(other.per_worker_busy_nanos.len(), 0);
        }
        for (mine, theirs) in
            self.per_worker_busy_nanos.iter_mut().zip(&other.per_worker_busy_nanos)
        {
            *mine = mine.saturating_add(*theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_degenerate_batches_is_one() {
        assert_eq!(RuntimeStats::default().imbalance(), 1.0);
        let sequential =
            RuntimeStats { tasks: 5, per_worker_busy_nanos: vec![1_000], ..Default::default() };
        assert_eq!(sequential.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let stats = RuntimeStats {
            tasks: 4,
            per_worker_busy_nanos: vec![400, 100, 100, 200],
            ..Default::default()
        };
        // mean = 200, max = 400.
        assert!((stats.imbalance() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_extends_and_adds_element_wise() {
        let mut total = RuntimeStats {
            tasks: 2,
            per_worker_busy_nanos: vec![10, 20],
            ..RuntimeStats::default()
        };
        total.merge(&RuntimeStats {
            tasks: 3,
            per_worker_busy_nanos: vec![5, 5, 5],
            ..RuntimeStats::default()
        });
        assert_eq!(total.tasks, 5);
        assert_eq!(total.per_worker_busy_nanos, vec![15, 25, 5]);
        assert_eq!(total.workers(), 3);
    }

    #[test]
    fn merge_is_element_wise_at_the_max_worker_count_in_both_directions() {
        // Wider into narrower: the narrower accumulator is zero-padded.
        let mut narrow = RuntimeStats {
            tasks: 1,
            per_worker_busy_nanos: vec![7],
            sequential_batches: 1,
            ..RuntimeStats::default()
        };
        narrow.merge(&RuntimeStats {
            tasks: 4,
            per_worker_busy_nanos: vec![1, 2, 3, 4],
            ..RuntimeStats::default()
        });
        assert_eq!(narrow.per_worker_busy_nanos, vec![8, 2, 3, 4]);

        // Narrower into wider: positions beyond the merged batch keep their
        // accumulated time untouched.
        let mut wide = RuntimeStats {
            tasks: 4,
            per_worker_busy_nanos: vec![1, 2, 3, 4],
            ..RuntimeStats::default()
        };
        wide.merge(&RuntimeStats {
            tasks: 2,
            per_worker_busy_nanos: vec![10, 10],
            ..RuntimeStats::default()
        });
        assert_eq!(wide.per_worker_busy_nanos, vec![11, 12, 3, 4]);
        // Both accumulators saw the same total busy time either way.
        assert_eq!(narrow.busy_nanos() - 7, wide.busy_nanos() - 20);
    }

    #[test]
    fn merging_a_sequential_batch_pins_imbalance_to_one() {
        // A parallel accumulator on its own reports a real ratio …
        let mut total = RuntimeStats {
            tasks: 4,
            per_worker_busy_nanos: vec![400, 100, 100, 200],
            ..RuntimeStats::default()
        };
        assert!((total.imbalance() - 2.0).abs() < 1e-9);
        // … but once a sequential batch is folded in, position 0 carries the
        // whole sequential run and the ratio is an artifact: report 1.0.
        total.merge(&RuntimeStats {
            tasks: 9,
            per_worker_busy_nanos: vec![100_000],
            sequential_batches: 1,
            ..RuntimeStats::default()
        });
        assert_eq!(total.sequential_batches, 1);
        assert_eq!(total.imbalance(), 1.0, "mixed merges have no meaningful imbalance");
        // The counter itself accumulates across further merges.
        total.merge(&RuntimeStats {
            tasks: 1,
            per_worker_busy_nanos: vec![5],
            sequential_batches: 1,
            ..RuntimeStats::default()
        });
        assert_eq!(total.sequential_batches, 2);
        assert_eq!(total.imbalance(), 1.0);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut total = RuntimeStats {
            tasks: u64::MAX,
            per_worker_busy_nanos: vec![u64::MAX],
            ..Default::default()
        };
        total.merge(&RuntimeStats {
            tasks: 1,
            per_worker_busy_nanos: vec![1],
            ..Default::default()
        });
        assert_eq!(total.tasks, u64::MAX);
        assert_eq!(total.per_worker_busy_nanos, vec![u64::MAX]);
    }
}
