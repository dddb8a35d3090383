//! # lake-runtime
//!
//! The workspace's shared parallel executor.  The pipeline parallelises along
//! independent units — join-connected FD components, disjoint matching
//! blocks, embedding batches — whose costs are wildly skewed (cost-matrix
//! cells vary ~10,000× across blocks on lake-scale folds), so static
//! round-robin bucketing lets one unlucky bucket serialise a whole solve.
//! This crate replaces the per-site ad-hoc pools with one deterministic
//! work-stealing scoped executor:
//!
//! * [`run_scope`] — runs a batch of independent tasks over scoped worker
//!   threads.  Tasks are seeded **largest-cost-first** (LPT) onto per-worker
//!   deques using a caller-supplied cost hint, with the long tail parked on a
//!   shared injector; idle workers drain the injector and then steal from the
//!   busiest end of other workers' deques — stealing is the correction, not
//!   the plan.  Outputs are returned in **input order**, so every determinism
//!   guarantee downstream holds by construction, independent of scheduling.
//! * [`ParallelPolicy`] — the one place the workspace's thread-count
//!   semantics are defined: an explicit count ≥ 2 is a command, `1` is
//!   sequential, and `0` auto-gates on the batch's total cost.
//! * [`RuntimeStats`] — scheduling diagnostics (tasks, steals, per-worker
//!   busy nanos, imbalance ratio) threaded through `FdStats`,
//!   `BlockingStats` and `FuzzyFdReport` so benchmarks can see scheduling
//!   quality.
//! * [`spawn_service`] / [`ServiceHandle`] — named long-lived threads for
//!   server-style components (request readers, shard writers) that outlive the
//!   call that started them; the only sanctioned way to obtain such a
//!   thread outside this crate.  [`spawn_periodic`] layers an
//!   interruptible ticking loop on top for maintenance services (the
//!   `lake-store` log flusher).
//!
//! The crate is dependency-free (std only, `std::sync` primitives — the
//! build environment has no registry access) and sits below every other
//! workspace crate.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "this crate is the executor: the one place allowed to touch std::thread, so that \
              every other crate routes through run_scope / spawn_service (docs/LINTS.md)"
)]

pub mod executor;
pub mod policy;
pub mod service;
pub mod stats;

pub use executor::run_scope;
pub use policy::ParallelPolicy;
pub use service::{pause, spawn_periodic, spawn_service, PeriodicHandle, ServiceHandle};
pub use stats::RuntimeStats;
