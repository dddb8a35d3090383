//! Long-lived named service threads.
//!
//! [`run_scope`](crate::run_scope) covers the *scoped* parallelism in the
//! workspace: a batch of tasks fanned out and joined before the call
//! returns.  Server-style components (queue drainers, reader pools that
//! block in `accept()`) need the opposite shape — a thread that outlives
//! the call that started it and runs until told to stop.  The workspace
//! bans raw std thread primitives outside this crate (see
//! `docs/LINTS.md`), so those components obtain their threads here.
//!
//! [`spawn_service`] starts a named OS thread and returns a
//! [`ServiceHandle`].  Unlike the executor's workers, service threads are
//! *not* pooled or work-stolen: each one runs a single long-lived loop.
//! Joining a handle propagates a panic from the service body, so a crashed
//! writer loop surfaces at shutdown instead of being silently swallowed.
//! Dropping a handle without joining detaches the thread (same contract as
//! `std`), which is deliberate: a reader blocked in `accept()` would
//! otherwise deadlock the dropping thread.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Handle to a long-lived service thread started by [`spawn_service`].
#[derive(Debug)]
pub struct ServiceHandle {
    name: String,
    handle: thread::JoinHandle<()>,
}

impl ServiceHandle {
    /// The name the service was spawned with (also the OS thread name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the service body has returned (or panicked).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Blocks until the service body returns.
    ///
    /// If the body panicked, the panic is resumed on the joining thread so
    /// service failures cannot pass unnoticed at shutdown.
    pub fn join(self) {
        if let Err(payload) = self.handle.join() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Spawns a named long-lived service thread running `body`.
///
/// The name shows up in OS thread listings and panic messages, which is the
/// main debugging aid for a process running a dozen identical-looking
/// loops.  Panics if the OS refuses to create the thread.
pub fn spawn_service<F>(name: impl Into<String>, body: F) -> ServiceHandle
where
    F: FnOnce() + Send + 'static,
{
    let name = name.into();
    let handle = thread::Builder::new()
        .name(name.clone())
        .spawn(body)
        .unwrap_or_else(|err| panic!("failed to spawn service thread `{name}`: {err}"));
    ServiceHandle { name, handle }
}

/// Handle to a ticking service started by [`spawn_periodic`].
///
/// Dropping the handle without calling [`stop`](Self::stop) detaches the
/// thread, which then ticks forever — same contract as [`ServiceHandle`].
#[derive(Debug)]
pub struct PeriodicHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: ServiceHandle,
}

impl PeriodicHandle {
    /// The name the service was spawned with.
    pub fn name(&self) -> &str {
        self.handle.name()
    }

    /// Stops the loop (waking it immediately if it is mid-wait) and joins
    /// the thread, propagating a panic from the tick body.
    pub fn stop(self) {
        let (lock, signal) = &*self.stop;
        *lock.lock().expect("periodic stop flag poisoned") = true;
        signal.notify_all();
        self.handle.join();
    }
}

/// Spawns a named service thread invoking `tick` every `interval` until
/// [`PeriodicHandle::stop`] is called.
///
/// This is the sanctioned shape for background maintenance loops (e.g. the
/// `lake-store` log flusher): the wait is interruptible, so stopping never
/// has to ride out a full interval, and the final tick's effects are
/// visible to the stopper because `stop` joins.
pub fn spawn_periodic<F>(name: impl Into<String>, interval: Duration, mut tick: F) -> PeriodicHandle
where
    F: FnMut() + Send + 'static,
{
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let shared = Arc::clone(&stop);
    let handle = spawn_service(name, move || {
        let (lock, signal) = &*shared;
        let mut stopped = lock.lock().expect("periodic stop flag poisoned");
        // Checked before every wait: a `stop` that ran before this thread
        // first took the lock has already sent its only notification.
        while !*stopped {
            let (guard, wait) =
                signal.wait_timeout(stopped, interval).expect("periodic stop flag poisoned");
            stopped = guard;
            if !*stopped && wait.timed_out() {
                drop(stopped);
                tick();
                stopped = lock.lock().expect("periodic stop flag poisoned");
            }
        }
    });
    PeriodicHandle { stop, handle }
}

/// Puts the calling thread to sleep for `duration`.
///
/// Exists so polling loops outside `crates/runtime` (which may not name the
/// std thread module — see `tests/no_raw_threads.rs`) can still back off
/// between retries.
pub fn pause(duration: Duration) {
    thread::sleep(duration);
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;

    #[test]
    fn service_runs_and_joins() {
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let handle = spawn_service("test-service", move || {
            flag.store(true, Ordering::SeqCst);
        });
        assert_eq!(handle.name(), "test-service");
        handle.join();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn join_propagates_service_panics() {
        let handle = spawn_service("test-panic", || panic!("writer died"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
        assert!(err.is_err());
    }

    #[test]
    fn periodic_service_ticks_until_stopped() {
        let ticks = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&ticks);
        let handle = spawn_periodic("test-ticker", Duration::from_millis(1), move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        while ticks.load(Ordering::SeqCst) < 3 {
            pause(Duration::from_millis(1));
        }
        handle.stop();
        let after_stop = ticks.load(Ordering::SeqCst);
        pause(Duration::from_millis(10));
        assert_eq!(ticks.load(Ordering::SeqCst), after_stop, "ticker kept running after stop");
    }

    #[test]
    fn periodic_stop_does_not_wait_out_the_interval() {
        let handle = spawn_periodic("test-slow-ticker", Duration::from_secs(3600), || {});
        let start = std::time::Instant::now();
        handle.stop();
        assert!(start.elapsed() < Duration::from_secs(60), "stop rode out the interval");
    }

    #[test]
    fn pause_sleeps_at_least_the_requested_time() {
        let start = std::time::Instant::now();
        pause(Duration::from_millis(5));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
