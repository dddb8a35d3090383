//! The work-stealing scoped executor.
//!
//! One [`run_scope`] call executes a batch of independent tasks and returns
//! their outputs **in input order** — determinism by construction, whatever
//! the interleaving.  Scheduling is two-layered:
//!
//! 1. **Cost-aware seeding** — tasks are sorted by descending cost hint and
//!    the largest `workers × SEED_DEPTH` of them are placed
//!    longest-processing-time-first (LPT) onto per-worker deques, each rock
//!    going to the least-loaded worker so far.  The long tail of cheap tasks
//!    is parked on a shared FIFO injector in input order.
//! 2. **Work stealing** — each worker drains its own deque front-to-back
//!    (largest first, i.e. in LPT order), then the injector, and only then
//!    steals from the *back* (cheap end) of other workers' deques, Chase–Lev
//!    style: the owner and thieves work opposite ends, so a steal never takes
//!    the rock the owner is about to start.  Stealing is the correction for
//!    cost hints that turned out wrong, not the plan.
//!
//! All structures are `std::sync` primitives (mutex-guarded deques — the
//! vendored-stub policy rules out lock-free crates, and tasks here are
//! chunky: block solves, component closures, embedding calls).  Tasks are
//! fixed up front and never spawn new tasks, so a worker that finds every
//! queue empty can exit: no task left behind, no spinning, and a panicking
//! task cannot deadlock the scope — the survivors drain the queues and the
//! panic is re-raised on join.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::policy::ParallelPolicy;
use crate::stats::RuntimeStats;

/// How many rocks each worker is seeded with before the tail goes to the
/// shared injector.  Deep enough that the plan usually suffices, shallow
/// enough that a mis-costed deque is cheap to steal from.
const SEED_DEPTH: usize = 4;

/// Locks a mutex, recovering the guard if a panicking task poisoned it (the
/// protected queues hold plain indices, which cannot be left half-updated).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one worker accomplished, reported back through its join handle.
struct WorkerLog<R> {
    outputs: Vec<(usize, R)>,
    busy_nanos: u64,
    injected: u64,
    steals: u64,
}

/// Runs `work` over every item on a scoped work-stealing worker pool and
/// returns the outputs **in input order**, together with scheduling
/// statistics.
///
/// `cost` is a per-item workload hint (any monotone proxy: solver cells,
/// tuple counts, string lengths).  It steers LPT seeding and the
/// [`ParallelPolicy`] auto-gate; a wrong hint costs steals, never
/// correctness.  With a resolved worker count of 1 the batch runs inline on
/// the calling thread.
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
    let n = items.len();
    // Zero-cost hints still need a total order for LPT; clamp to 1 so ties
    // break on input position and the imbalance maths never divides by zero.
    let costs: Vec<u64> = items.iter().map(|item| cost(item).max(1)).collect();
    let total_cost = costs.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
    let workers = policy.resolve(n, total_cost);

    if workers <= 1 {
        let started = Instant::now();
        let outputs: Vec<R> = items.into_iter().map(work).collect();
        let stats = RuntimeStats {
            tasks: n as u64,
            // Inline batches have no deques and no injector: nothing was
            // seeded, injected or stolen.
            seeded: 0,
            injected: 0,
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

    // LPT seeding: the `workers × SEED_DEPTH` largest items go to per-worker
    // deques (each to the least-loaded worker, ties to the lowest id — fully
    // deterministic), ordered largest-first within a deque; the tail goes to
    // the shared injector in input order.
    let rocks = (workers * SEED_DEPTH).min(n);
    let mut by_cost: Vec<usize> = (0..n).collect();
    by_cost.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut seeded: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
    let mut load = vec![0u64; workers];
    for &task in &by_cost[..rocks] {
        let lightest = (0..workers).min_by_key(|&w| (load[w], w)).expect("at least one worker");
        seeded[lightest].push_back(task);
        load[lightest] = load[lightest].saturating_add(costs[task]);
    }
    let mut tail: Vec<usize> = by_cost[rocks..].to_vec();
    tail.sort_unstable();

    let tasks: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let deques: Vec<Mutex<VecDeque<usize>>> = seeded.into_iter().map(Mutex::new).collect();
    let injector: Mutex<VecDeque<usize>> = Mutex::new(tail.into_iter().collect());

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut stats = RuntimeStats {
        tasks: n as u64,
        seeded: rocks as u64,
        injected: 0,
        steals: 0,
        per_worker_busy_nanos: vec![0; workers],
        sequential_batches: 0,
    };

    std::thread::scope(|scope| {
        let tasks = &tasks;
        let deques = &deques;
        let injector = &injector;
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                scope.spawn(move || {
                    let mut log = WorkerLog::<R> {
                        outputs: Vec::new(),
                        busy_nanos: 0,
                        injected: 0,
                        steals: 0,
                    };
                    loop {
                        let next = next_task(me, workers, deques, injector, &mut log);
                        let Some(task) = next else { break };
                        let item = lock(&tasks[task]).take().expect("task executed twice");
                        let started = Instant::now();
                        let output = work(item);
                        log.busy_nanos =
                            log.busy_nanos.saturating_add(started.elapsed().as_nanos() as u64);
                        log.outputs.push((task, output));
                    }
                    log
                })
            })
            .collect();
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(log) => {
                    for (task, output) in log.outputs {
                        slots[task] = Some(output);
                    }
                    stats.per_worker_busy_nanos[worker] = log.busy_nanos;
                    stats.injected = stats.injected.saturating_add(log.injected);
                    stats.steals = stats.steals.saturating_add(log.steals);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    let outputs = slots.into_iter().map(|slot| slot.expect("worker dropped a task")).collect();
    (outputs, stats)
}

/// Picks the next task for worker `me`: own deque (front — LPT order), then
/// the shared injector, then the cheap end of the other deques.  `None`
/// means the batch is drained: tasks never respawn, so an empty sweep is a
/// stable exit condition.
fn next_task(
    me: usize,
    workers: usize,
    deques: &[Mutex<VecDeque<usize>>],
    injector: &Mutex<VecDeque<usize>>,
    log: &mut WorkerLog<impl Sized>,
) -> Option<usize> {
    if let Some(task) = lock(&deques[me]).pop_front() {
        return Some(task);
    }
    if let Some(task) = lock(injector).pop_front() {
        log.injected += 1;
        return Some(task);
    }
    for offset in 1..workers {
        let victim = (me + offset) % workers;
        if let Some(task) = lock(&deques[victim]).pop_back() {
            log.steals += 1;
            return Some(task);
        }
    }
    None
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
        assert_eq!(stats.steals, 0);
    }

    /// Lying cost hints force every heavy task onto one seeded deque; the
    /// three workers whose "rocks" are instant must then steal to finish.
    /// This is the scheduler's reason to exist, so the steal counter has to
    /// prove it engaged.
    #[test]
    fn mis_costed_batches_are_corrected_by_stealing() {
        // Items 0..3 claim to be enormous but are instant; items 3..16 claim
        // to be negligible but do real work.  LPT seeds the three "rocks" on
        // workers 0..3 and piles all thirteen heavy tasks onto the fourth.
        let items: Vec<u64> = (0..16).collect();
        let (outputs, stats) = run_scope(
            &ParallelPolicy::explicit(4),
            items,
            |&x| if x < 3 { 1_000_000 } else { 1 },
            |x| if x < 3 { x * x } else { heavy(x) },
        );
        assert_eq!(outputs, squares(16));
        assert_eq!(stats.seeded, 16, "16 tasks fit entirely in the seeded rocks");
        assert!(stats.steals > 0, "idle workers must steal the mis-costed backlog: {stats:?}");
        assert!(stats.imbalance() >= 1.0);
    }

    #[test]
    fn long_tails_flow_through_the_injector() {
        let items: Vec<u64> = (0..200).collect();
        let (outputs, stats) =
            run_scope(&ParallelPolicy::explicit(4), items, |&x| x + 1, |x| x * x);
        assert_eq!(outputs, squares(200));
        assert_eq!(stats.seeded, 16, "4 workers × seed depth 4");
        assert_eq!(
            stats.injected,
            200 - 16,
            "everything unseeded must drain through the injector: {stats:?}"
        );
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
