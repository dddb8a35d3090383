//! When a batch of tasks is worth parallelising, and with how many workers.
//!
//! Before this crate existed, every parallel site hand-rolled the same
//! decision slightly differently.  [`ParallelPolicy`] defines the semantics once: **an explicit thread count
//! ≥ 2 is a command, `1` is sequential, and `0` is auto** — use the
//! machine's available parallelism, but only when the batch carries enough
//! total cost for the scoped-thread overhead to pay off.

/// Worker-count policy for one [`run_scope`](crate::run_scope) batch.
///
/// ```
/// use lake_runtime::ParallelPolicy;
///
/// // Explicit counts are commands, regardless of how little work there is.
/// assert_eq!(ParallelPolicy::explicit(4).resolve(16, 1), 4);
/// // ... but never more workers than tasks.
/// assert_eq!(ParallelPolicy::explicit(4).resolve(3, 1), 3);
/// // Auto mode gates on the total cost hint.
/// assert_eq!(ParallelPolicy::auto().resolve(16, 0), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelPolicy {
    /// Requested worker threads: `0` = auto (available parallelism, gated on
    /// `min_auto_cost`), `1` = sequential, `n ≥ 2` = exactly `n` workers
    /// (capped at the task count).
    pub threads: usize,
    /// In auto mode, batches whose summed cost hints fall below this floor
    /// run sequentially: spinning up scoped threads costs tens of
    /// microseconds, which tiny batches never win back.  Ignored when
    /// `threads != 0`.
    pub min_auto_cost: u64,
}

impl ParallelPolicy {
    /// Default auto-gate floor, calibrated on the value matcher's original
    /// gate: ~2k cost-matrix cells is where scoped-thread overhead breaks
    /// even against the dense assignment solve.  Callers whose cost unit is
    /// not "solver cells" should pick their own floor.
    pub const DEFAULT_MIN_AUTO_COST: u64 = 2_048;

    /// An explicit worker count: `n ≥ 2` always parallelises (capped at the
    /// task count), `1` (or `0`) never does — `0` here means "no
    /// parallelism", not the auto mode a raw `threads: 0` field requests.
    pub const fn explicit(threads: usize) -> Self {
        let threads = if threads == 0 { 1 } else { threads };
        ParallelPolicy { threads, min_auto_cost: Self::DEFAULT_MIN_AUTO_COST }
    }

    /// Auto mode with the default cost floor.
    pub const fn auto() -> Self {
        ParallelPolicy { threads: 0, min_auto_cost: Self::DEFAULT_MIN_AUTO_COST }
    }

    /// Auto mode with a caller-chosen cost floor (the cost unit is whatever
    /// the caller's `cost` hint measures — solver cells, tuples, bytes).
    pub const fn auto_above(min_auto_cost: u64) -> Self {
        ParallelPolicy { threads: 0, min_auto_cost }
    }

    /// How many workers a batch of `tasks` tasks with `total_cost` summed
    /// cost hints should use.  Fewer than two tasks can never parallelise;
    /// beyond that an explicit thread count is a command, while auto mode
    /// (`0`) additionally requires the batch to clear the cost floor.
    pub fn resolve(&self, tasks: usize, total_cost: u64) -> usize {
        if tasks < 2 {
            return 1;
        }
        let configured = match self.threads {
            0 => {
                if total_cost < self.min_auto_cost {
                    return 1;
                }
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            }
            n => n,
        };
        configured.clamp(1, tasks)
    }
}

impl Default for ParallelPolicy {
    fn default() -> Self {
        ParallelPolicy::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_than_two_tasks_never_parallelise() {
        assert_eq!(ParallelPolicy::explicit(8).resolve(0, u64::MAX), 1);
        assert_eq!(ParallelPolicy::explicit(8).resolve(1, u64::MAX), 1);
        assert_eq!(ParallelPolicy::auto().resolve(1, u64::MAX), 1);
    }

    #[test]
    fn explicit_counts_are_commands_capped_at_tasks() {
        assert_eq!(ParallelPolicy::explicit(1).resolve(100, u64::MAX), 1);
        assert_eq!(ParallelPolicy::explicit(3).resolve(100, 0), 3);
        assert_eq!(ParallelPolicy::explicit(64).resolve(5, 0), 5);
        // explicit(0) means "no parallelism", never auto mode.
        assert_eq!(ParallelPolicy::explicit(0).resolve(100, u64::MAX), 1);
    }

    #[test]
    fn auto_gates_on_total_cost() {
        let policy = ParallelPolicy::auto_above(1_000);
        assert_eq!(policy.resolve(10, 999), 1);
        let resolved = policy.resolve(10, 1_000);
        assert!(resolved >= 1, "auto must resolve to at least one worker");
        // On any multi-core machine the gate opens to > 1 worker.
        if std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) > 1 {
            assert!(resolved > 1, "cost above the floor must parallelise");
        }
    }

    #[test]
    fn default_is_auto_with_the_documented_floor() {
        let policy = ParallelPolicy::default();
        assert_eq!(policy.threads, 0);
        assert_eq!(policy.min_auto_cost, ParallelPolicy::DEFAULT_MIN_AUTO_COST);
    }
}
