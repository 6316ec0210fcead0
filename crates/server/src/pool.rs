//! A std-only worker thread pool, hardened against worker failure.
//!
//! `std::thread` workers pull boxed jobs off one shared `mpsc` channel
//! (receiver behind a mutex — the standard single-consumer workaround).
//! The pool is deliberately generic over `FnOnce` jobs rather than
//! hard-wired to checking: the service submits unit checks, the
//! incremental engine submits per-function prefetch helpers, and the
//! throughput bench submits its own workload. The multiplexer's
//! executors are not a `ThreadPool`: the mux thread routes each request
//! to one executor's own channel (see [`crate::mux`]). A caller that
//! would only sleep until its jobs finish can run its last job itself
//! with [`ThreadPool::run_here`] when a worker would otherwise sit idle,
//! so no more jobs run inline than there are workers; it refuses exactly
//! when `submit` does.
//!
//! Fault containment (ISSUE 2): a panicking job must never cost a
//! worker. Each job runs under `catch_unwind`, so the worker survives
//! and keeps pulling; should the loop itself ever unwind (e.g. a panic
//! in shared infrastructure), a drop guard respawns a replacement
//! thread, so capacity self-heals instead of silently decaying. The
//! queue mutex recovers from poisoning — a receiver guard holds no
//! invariant worth dying for. [`ThreadPool::submit`] returns a
//! `Result` instead of panicking when the pool is shutting down.
//!
//! Determinism note: jobs complete in whatever order the scheduler
//! picks, so anything order-sensitive must carry its index and let the
//! caller reassemble.

use crate::metrics::Metrics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a job could not be queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool is shutting down (its queue is closed); the job was
    /// dropped without running.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => f.write_str("pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Extract the human-readable payload of a caught panic.
pub fn panic_payload(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lock `m`, recovering the guard if a previous holder panicked.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A fixed-size pool of worker threads executing boxed jobs.
pub struct ThreadPool {
    /// `None` once shutdown has begun. Behind a mutex so `shutdown` can
    /// take it through `&self`; submitters clone the sender under a
    /// short lock.
    tx: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Worker count: queued, running and inline jobs share this many
    /// seats (see [`Self::run_here`]).
    seats: u64,
    /// Jobs running on their callers' threads right now.
    inline: AtomicU64,
    metrics: Arc<Metrics>,
}

impl ThreadPool {
    /// Spawn `jobs` workers (min 1) reporting queue depth into `metrics`.
    pub fn new(jobs: usize, metrics: Arc<Metrics>) -> Self {
        let jobs = jobs.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..jobs)
            .map(|i| spawn_worker(i, Arc::clone(&rx), Arc::clone(&metrics)))
            .collect();
        ThreadPool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            seats: jobs as u64,
            inline: AtomicU64::new(0),
            metrics,
        }
    }

    /// Number of worker threads the pool was built with.
    pub fn workers(&self) -> usize {
        lock_unpoisoned(&self.workers).len()
    }

    /// Queue one job; `Err(ShuttingDown)` if the pool is draining.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let tx = match lock_unpoisoned(&self.tx).as_ref() {
            Some(tx) => tx.clone(),
            None => return Err(SubmitError::ShuttingDown),
        };
        self.metrics.job_enqueued();
        match tx.send(Box::new(job)) {
            Ok(()) => Ok(()),
            Err(_) => {
                // Every worker is gone (all receivers dropped) — treat it
                // as shutdown rather than dying with the workers.
                self.metrics.job_done();
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Run `job` on the calling thread instead of queueing it (the
    /// caller-runs policy), but only while the pool's jobs (queued or
    /// running) and the other inline jobs leave a worker idle: the job
    /// then takes that worker's seat. Otherwise the job is queued as by
    /// [`Self::submit`]. Jobs queued later may still fill the workers
    /// while it runs, so at most twice the worker count run at once.
    /// While the pool is shutting down the job is
    /// dropped unrun and `Err(ShuttingDown)` returned, exactly as
    /// `submit` refuses it. An inline job runs without the workers'
    /// `catch_unwind`: its caller contains its own panics.
    pub fn run_here(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        if lock_unpoisoned(&self.tx).is_none() {
            return Err(SubmitError::ShuttingDown);
        }
        let queued = self.metrics.queue_depth.load(Ordering::Relaxed);
        let seat = self
            .inline
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |inline| {
                (inline + queued < self.seats).then_some(inline + 1)
            });
        if seat.is_err() {
            return self.submit(job);
        }
        /// Gives the seat back even if the job unwinds.
        struct Seat<'a>(&'a AtomicU64);
        impl Drop for Seat<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _seat = Seat(&self.inline);
        job();
        Ok(())
    }

    /// Stop accepting jobs and wait up to `grace` for queued work to
    /// drain. Returns `true` if the queue drained; `false` means jobs
    /// were still in flight when the grace period expired — their
    /// threads are detached rather than joined, so shutdown stays
    /// bounded even against a wedged job.
    pub fn shutdown(&self, grace: Duration) -> bool {
        drop(lock_unpoisoned(&self.tx).take()); // close the channel
        let deadline = Instant::now() + grace;
        while self.metrics.snapshot().queue_depth > 0 {
            if Instant::now() >= deadline {
                // Leave the handles: joining could block forever on a
                // wedged job. Workers exit on their own once it finishes.
                lock_unpoisoned(&self.workers).clear();
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for w in lock_unpoisoned(&self.workers).drain(..) {
            let _ = w.join();
        }
        true
    }
}

/// Spawn one worker thread whose loop self-heals: if the loop unwinds,
/// a drop guard spawns a replacement (detached — the original handle
/// already belongs to the pool) so pool capacity is not silently lost.
fn spawn_worker(
    index: usize,
    rx: Arc<Mutex<Receiver<Job>>>,
    metrics: Arc<Metrics>,
) -> JoinHandle<()> {
    struct Respawn {
        index: usize,
        rx: Arc<Mutex<Receiver<Job>>>,
        metrics: Arc<Metrics>,
    }
    impl Drop for Respawn {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.metrics.worker_respawned();
                let _ = spawn_worker(self.index, Arc::clone(&self.rx), Arc::clone(&self.metrics));
            }
        }
    }
    let name = format!("vaultd-worker-{index}");
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let guard = Respawn {
                index,
                rx: Arc::clone(&rx),
                metrics: Arc::clone(&metrics),
            };
            worker_loop(rx, metrics);
            std::mem::forget(guard); // clean exit: channel closed
        })
        .expect("spawn worker thread")
}

fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>, metrics: Arc<Metrics>) {
    loop {
        // Hold the lock only while pulling the next job; recover from
        // poisoning — a panic mid-`recv` leaves no broken invariant.
        let job = match lock_unpoisoned(&rx).recv() {
            Ok(job) => job,
            Err(_) => return, // channel closed: pool shutting down
        };
        // First line of containment: a panicking job costs its own
        // result, never the worker. (The service additionally wraps
        // check jobs to turn panics into `internal-error` verdicts.)
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            metrics.panic_caught();
        }
        metrics.job_done();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Unbounded drain: jobs already queued run to completion, same
        // as the original pool. Bounded shutdown is available via
        // `shutdown`.
        drop(lock_unpoisoned(&self.tx).take());
        for w in lock_unpoisoned(&self.workers).drain(..) {
            let _ = w.join();
        }
    }
}

/// One compilation unit submitted for checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitIn {
    /// Name diagnostics are rendered under (usually a path).
    pub name: String,
    /// Vault source text.
    pub source: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs() {
        let metrics = Arc::new(Metrics::default());
        let pool = ThreadPool::new(4, Arc::clone(&metrics));
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            })
            .unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 100);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        drop(pool);
        assert_eq!(metrics.snapshot().queue_depth, 0);
        assert!(metrics.snapshot().queue_peak >= 1);
    }

    #[test]
    fn zero_jobs_clamps_to_one_worker() {
        let pool = ThreadPool::new(0, Arc::new(Metrics::default()));
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let metrics = Arc::new(Metrics::default());
        let pool = ThreadPool::new(1, Arc::clone(&metrics));
        // One worker: if the panic killed it, the follow-up job would
        // never run and recv would hang (the test harness would time out
        // at the channel read below only after the pool drops the tx).
        pool.submit(|| panic!("boom")).unwrap();
        let (tx, rx) = channel();
        pool.submit(move || tx.send(42).unwrap()).unwrap();
        assert_eq!(rx.recv().unwrap(), 42);
        assert_eq!(metrics.snapshot().panics_caught, 1);
        drop(pool);
        assert_eq!(metrics.snapshot().queue_depth, 0);
    }

    #[test]
    fn submit_after_shutdown_returns_err_not_panic() {
        let pool = ThreadPool::new(2, Arc::new(Metrics::default()));
        assert!(pool.shutdown(Duration::from_secs(5)));
        assert_eq!(pool.submit(|| {}), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn run_here_queues_when_no_worker_is_idle() {
        let metrics = Arc::new(Metrics::default());
        let pool = ThreadPool::new(1, Arc::clone(&metrics));
        // Hold the only worker until the test lets it go.
        let (release, hold) = channel::<()>();
        pool.submit(move || {
            let _ = hold.recv();
        })
        .unwrap();
        let caller = std::thread::current().id();
        let (tx, ran_on) = channel();
        pool.run_here(move || tx.send(std::thread::current().id()).unwrap())
            .unwrap();
        // The job was queued behind the held one, not run here.
        assert!(ran_on.try_recv().is_err());
        release.send(()).unwrap();
        let worker = ran_on.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_ne!(worker, caller);
        assert_eq!(metrics.snapshot().queue_peak, 2);
    }

    #[test]
    fn run_here_runs_inline_until_shutdown() {
        let metrics = Arc::new(Metrics::default());
        let pool = ThreadPool::new(1, Arc::clone(&metrics));
        let caller = std::thread::current().id();
        let (tx, ran_on) = channel();
        pool.run_here(move || tx.send(std::thread::current().id()).unwrap())
            .unwrap();
        assert_eq!(ran_on.try_recv(), Ok(caller));
        assert_eq!(metrics.snapshot().queue_peak, 0, "nothing was queued");
        assert!(pool.shutdown(Duration::from_secs(5)));
        let ran = Arc::new(AtomicUsize::new(0));
        let job_ran = Arc::clone(&ran);
        assert_eq!(
            pool.run_here(move || {
                job_ran.fetch_add(1, Ordering::SeqCst);
            }),
            Err(SubmitError::ShuttingDown)
        );
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn shutdown_drains_in_flight_jobs() {
        let metrics = Arc::new(Metrics::default());
        let pool = ThreadPool::new(2, Arc::clone(&metrics));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(5));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        assert!(pool.shutdown(Duration::from_secs(10)), "drain timed out");
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert_eq!(metrics.snapshot().queue_depth, 0);
    }

    #[test]
    fn shutdown_grace_bounds_a_wedged_job() {
        let metrics = Arc::new(Metrics::default());
        let pool = ThreadPool::new(1, Arc::clone(&metrics));
        let (hold_tx, hold_rx) = channel::<()>();
        pool.submit(move || {
            // Wedge until the test releases us.
            let _ = hold_rx.recv();
        })
        .unwrap();
        let start = Instant::now();
        assert!(!pool.shutdown(Duration::from_millis(50)));
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(hold_tx); // release the wedged worker so the process exits
    }
}
