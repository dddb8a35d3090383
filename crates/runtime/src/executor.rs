//! The scoped executor.
//!
//! One [`run_scope`] call executes a batch of independent tasks and returns
//! their outputs **in input order** — determinism by construction, whatever
//! the interleaving.  Scheduling is one rule: the task indices are sorted by
//! descending cost hint (ties in input order), and every worker claims the
//! next index from one shared atomic cursor until the order runs out.  The
//! largest tasks start first, and a task whose hint was wrong holds up only
//! the worker running it: the others keep claiming the rest.
//!
//! Tasks are fixed up front and never spawn new tasks, so a worker that
//! finds the cursor past the end can exit: no spinning, and a panicking task
//! cannot deadlock the scope — the survivors drain the order and the panic
//! is re-raised on join.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::policy::ParallelPolicy;
use crate::stats::RuntimeStats;

/// Runs `work` over every item on scoped worker threads and returns the
/// outputs **in input order**, together with scheduling statistics.
///
/// `cost` is a per-item workload hint (any monotone proxy: solver cells,
/// tuple counts, string lengths).  It sets the order in which tasks are
/// claimed (largest first) and feeds the [`ParallelPolicy`] auto-gate; a
/// wrong hint costs balance, never correctness.  With a resolved worker
/// count of 1 the batch runs inline on the calling thread.
///
/// # Panics
///
/// A panicking task aborts the batch: the remaining workers drain and exit,
/// and the panic is re-raised from this call (the scope never deadlocks).
///
/// ```
/// use lake_runtime::{run_scope, ParallelPolicy};
///
/// let (doubled, stats) = run_scope(
///     &ParallelPolicy::explicit(2),
///     (0u64..16).collect::<Vec<_>>(),
///     |x| *x + 1,
///     |x| x * 2,
/// );
/// assert_eq!(doubled, (0u64..16).map(|x| x * 2).collect::<Vec<_>>());
/// assert_eq!(stats.tasks, 16);
/// assert_eq!(stats.workers(), 2);
/// ```
pub fn run_scope<T, R, C, F>(
    policy: &ParallelPolicy,
    items: Vec<T>,
    cost: C,
    work: F,
) -> (Vec<R>, RuntimeStats)
where
    T: Send,
    R: Send,
    C: Fn(&T) -> u64,
    F: Fn(T) -> R + Sync,
{
    run_scope_batched(policy, items, cost, &work, |items| items.into_iter().map(&work).collect())
}

/// As [`run_scope`], except that a batch resolved to one worker is handed to
/// `inline` whole, in one call on the calling thread — for work whose
/// batched form is cheaper than its items one at a time (embedding values
/// that share directions).  `inline` must return what `work` would, one
/// output per item in input order; the statistics count every item as a
/// task either way.
///
/// # Panics
///
/// As [`run_scope`]; also when `inline` returns a different number of
/// outputs than it was given items.
pub fn run_scope_batched<T, R, C, F, I>(
    policy: &ParallelPolicy,
    items: Vec<T>,
    cost: C,
    work: F,
    inline: I,
) -> (Vec<R>, RuntimeStats)
where
    T: Send,
    R: Send,
    C: Fn(&T) -> u64,
    F: Fn(T) -> R + Sync,
    I: FnOnce(Vec<T>) -> Vec<R>,
{
    let n = items.len();
    // A zero hint counts as 1, so every task adds to the auto-gate's sum.
    let costs: Vec<u64> = items.iter().map(|item| cost(item).max(1)).collect();
    let total_cost = costs.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
    let workers = policy.resolve(n, total_cost);

    if workers <= 1 {
        let started = Instant::now();
        let outputs = inline(items);
        assert_eq!(outputs.len(), n, "an inline batch returns one output per item");
        let stats = RuntimeStats {
            tasks: n as u64,
            steals: 0,
            per_worker_busy_nanos: if n == 0 {
                Vec::new()
            } else {
                vec![started.elapsed().as_nanos() as u64]
            },
            // Mark the batch as sequential so an accumulator that later
            // absorbs it stops reporting a positional imbalance.
            sequential_batches: (n > 0) as u64,
        };
        return (outputs, stats);
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    // `Relaxed` is enough: the cursor publishes no data.  Items reach their
    // worker through their mutex and outputs come back through `join`.
    let cursor = AtomicUsize::new(0);
    // The cursor hands each index out once, so every lock is uncontended; it
    // only moves the item to whichever worker claimed it.
    let tasks: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|item| Mutex::new(Some(item))).collect();

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut stats = RuntimeStats {
        tasks: n as u64,
        steals: 0,
        per_worker_busy_nanos: vec![0; workers],
        sequential_batches: 0,
    };

    std::thread::scope(|scope| {
        let (order, cursor, tasks, work) = (&order, &cursor, &tasks, &work);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut outputs = Vec::new();
                    let mut busy_nanos = 0u64;
                    while let Some(&task) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let item = tasks[task]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .expect("task executed twice");
                        let started = Instant::now();
                        let output = work(item);
                        busy_nanos = busy_nanos.saturating_add(started.elapsed().as_nanos() as u64);
                        outputs.push((task, output));
                    }
                    (outputs, busy_nanos)
                })
            })
            .collect();
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok((outputs, busy_nanos)) => {
                    for (task, output) in outputs {
                        slots[task] = Some(output);
                    }
                    stats.per_worker_busy_nanos[worker] = busy_nanos;
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    let outputs = slots.into_iter().map(|slot| slot.expect("worker dropped a task")).collect();
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: u64) -> Vec<u64> {
        (0..n).map(|x| x * x).collect()
    }

    /// A task heavy enough that thread interleavings are exercised for real.
    fn heavy(x: u64) -> u64 {
        let mut acc = x;
        for i in 0..200_000u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        // Keep the spin loop alive without letting it change the result.
        std::hint::black_box(acc);
        x * x
    }

    #[test]
    fn sequential_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let expected = squares(100);
        for threads in [1, 2, 3, 8] {
            let (outputs, stats) =
                run_scope(&ParallelPolicy::explicit(threads), items.clone(), |x| *x + 1, |x| x * x);
            assert_eq!(outputs, expected, "threads = {threads}");
            assert_eq!(stats.tasks, 100);
            assert_eq!(stats.workers(), threads);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let (outputs, stats) =
            run_scope(&ParallelPolicy::explicit(4), Vec::<u64>::new(), |_| 1, |x| x);
        assert!(outputs.is_empty());
        assert_eq!(stats.tasks, 0);
        assert_eq!(stats.workers(), 0);
        let (outputs, stats) =
            run_scope(&ParallelPolicy::explicit(4), vec![7u64], |_| 1, |x| x + 1);
        assert_eq!(outputs, vec![8]);
        assert_eq!(stats.workers(), 1, "a single task runs inline");
    }

    #[test]
    fn auto_mode_gates_small_batches_inline() {
        let (outputs, stats) =
            run_scope(&ParallelPolicy::auto_above(1_000_000), (0u64..64).collect(), |_| 1, |x| x);
        assert_eq!(outputs, (0u64..64).collect::<Vec<_>>());
        assert_eq!(stats.workers(), 1);
    }

    /// Task 0 is claimed first (largest hint) and cannot finish until the
    /// other fifteen have run, so one worker is held up for the whole batch.
    /// A static LPT split would queue task 9 behind task 0 on that worker and
    /// never reach it; with one shared cursor the free worker claims it.
    #[test]
    fn a_held_up_worker_does_not_hold_up_the_batch() {
        let done = AtomicUsize::new(0);
        let items: Vec<u64> = (0..16).collect();
        let (outputs, stats) = run_scope(
            &ParallelPolicy::explicit(2),
            items,
            |&x| if x == 0 { 8 } else { 1 },
            |x| {
                if x == 0 {
                    let started = Instant::now();
                    while done.load(Ordering::SeqCst) < 15 {
                        assert!(
                            started.elapsed().as_secs() < 30,
                            "task 0 waited 30 s: the other tasks are queued behind it"
                        );
                        std::thread::yield_now();
                    }
                } else {
                    done.fetch_add(1, Ordering::SeqCst);
                }
                x * x
            },
        );
        assert_eq!(outputs, squares(16));
        assert_eq!(stats.workers(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduler test panic")]
    fn panicking_task_propagates_instead_of_deadlocking() {
        let items: Vec<u64> = (0..64).collect();
        let (_, _) = run_scope(
            &ParallelPolicy::explicit(4),
            items,
            |_| 1,
            |x| {
                if x == 17 {
                    panic!("scheduler test panic");
                }
                heavy(x)
            },
        );
    }
}
