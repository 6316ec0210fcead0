//! The daemon's one thread set: `jobs` threads that serve requests and
//! run check jobs, hardened against failure.
//!
//! **Check jobs** (unit checks, a bench's own workload) go into one
//! shared queue, oldest first, and any thread takes them. **Requests** are handed to one
//! chosen thread (`ThreadPool::hand`), never through the queue: the
//! multiplexer picks the most recently freed, still warm thread, which
//! starts the request as soon as it finishes what it is running.
//!
//! A thread waiting for a check (its request's queued misses, another
//! request's in-flight unit) runs queued jobs until its result is ready
//! (`ThreadPool::help_until`) and blocks only while the queue is
//! empty. It never runs a handed request, which would hold back its own
//! reply. Each thread runs one check at a time, so at most `jobs` checks
//! run on the pool's threads at once; a caller outside the pool
//! (`vaultc check`, the stdio front end) checks on its own thread too.
//!
//! Fault containment: each job runs under `catch_unwind`, so a panicking
//! job costs its own result, never a thread; should a thread's loop ever
//! unwind, a drop guard respawns it. Locks recover from poisoning, and
//! [`ThreadPool::submit`] returns a `Result` instead of panicking when
//! the pool is shutting down. Jobs complete in whatever order the
//! scheduler picks, so anything order-sensitive carries its index.

use crate::metrics::Metrics;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a job could not be queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool is shutting down; the job was dropped without running.
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
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the pool's threads, and the threads waiting on them, share.
struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued, a request handed over, a queued
    /// job finished, the pool closed, or on [`ThreadPool::notify`].
    wake: Condvar,
    metrics: Arc<Metrics>,
}

struct State {
    /// Check jobs, oldest first.
    queue: VecDeque<Job>,
    /// The requests handed to each thread and not yet started, oldest
    /// first (the multiplexer hands a thread one at a time).
    handed: Vec<VecDeque<Job>>,
    /// `false` once shutdown has begun.
    open: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        lock_unpoisoned(&self.state)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Run one queued check job: a panic costs its own result, never
    /// the thread. Then wake the waiting threads, since one may be
    /// waiting on exactly this job.
    fn run(&self, job: Job) {
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.metrics.panic_caught();
        }
        self.metrics.job_done();
        self.notify();
    }

    fn notify(&self) {
        // Under the lock, so a waiter between its check and its wait
        // cannot miss the signal.
        let _state = self.lock();
        self.wake.notify_all();
    }
}

/// A fixed set of threads serving handed requests and queued jobs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    size: usize,
}

impl ThreadPool {
    /// Spawn `jobs` threads (min 1) reporting queue depth into `metrics`.
    pub fn new(jobs: usize, metrics: Arc<Metrics>) -> Self {
        let size = jobs.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                handed: (0..size).map(|_| VecDeque::new()).collect(),
                open: true,
            }),
            wake: Condvar::new(),
            metrics,
        });
        let threads = (0..size)
            .map(|i| spawn_thread(i, Arc::clone(&shared)))
            .collect();
        ThreadPool {
            shared,
            threads: Mutex::new(threads),
            size,
        }
    }

    /// Number of threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.size
    }

    /// `Err(ShuttingDown)` once shutdown has begun: what [`Self::submit`]
    /// would answer now. A caller about to run a check job itself asks
    /// first, so a drained pool refuses inline work alike.
    pub(crate) fn check_open(&self) -> Result<(), SubmitError> {
        if self.shared.lock().open {
            Ok(())
        } else {
            Err(SubmitError::ShuttingDown)
        }
    }

    /// Queue one check job; `Err(ShuttingDown)` if the pool is draining.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.put(Box::new(job), None)
    }

    /// Hand `request` to thread `thread` (below [`Self::workers`]), which
    /// starts it as soon as it finishes what it is running. The caller
    /// learns from the request itself when it is done; the check queue
    /// never sees it.
    pub(crate) fn hand(
        &self,
        thread: usize,
        request: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        self.put(Box::new(request), Some(thread))
    }

    /// Queue `job`, or hand it to `thread`, and wake the threads. A
    /// refused job is dropped after the lock is released, so the leader
    /// guard it may hold can wake its joiners.
    fn put(&self, job: Job, thread: Option<usize>) -> Result<(), SubmitError> {
        let mut state = self.shared.lock();
        if !state.open {
            return Err(SubmitError::ShuttingDown);
        }
        match thread {
            Some(t) => state.handed[t].push_back(job),
            None => {
                state.queue.push_back(job);
                self.shared.metrics.job_enqueued();
            }
        }
        drop(state);
        self.shared.wake.notify_all();
        Ok(())
    }

    /// Run queued jobs on the calling thread until `ready` yields a
    /// value. Blocks only while the queue is empty; a queued or finished
    /// job, or [`Self::notify`], wakes it to ask `ready` again. `ready`
    /// runs under the pool's lock, so it must not touch the pool.
    pub(crate) fn help_until<T>(&self, mut ready: impl FnMut() -> Option<T>) -> T {
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = ready() {
                return value;
            }
            match state.queue.pop_front() {
                Some(job) => {
                    drop(state);
                    self.shared.run(job);
                    state = self.shared.lock();
                }
                None => state = self.shared.wait(state),
            }
        }
    }

    /// Wake every thread waiting in [`Self::help_until`]: whoever makes
    /// a waiter's `ready` true outside a queued job calls this after.
    pub(crate) fn notify(&self) {
        self.shared.notify();
    }

    /// Stop accepting work and wait up to `grace` for the threads to
    /// finish what is queued and handed, then exit. Returns `true` if
    /// they did; `false` means some were still busy when the grace
    /// period expired — they are detached rather than joined, so
    /// shutdown stays bounded even against a wedged job.
    pub fn shutdown(&self, grace: Duration) -> bool {
        self.close();
        let deadline = Instant::now() + grace;
        let mut threads = lock_unpoisoned(&self.threads);
        while threads.iter().any(|t| !t.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Finished threads need no join; busy ones are left detached.
        let drained = threads.iter().all(JoinHandle::is_finished);
        threads.clear();
        drained
    }

    fn close(&self) {
        self.shared.lock().open = false;
        self.shared.wake.notify_all();
    }
}

/// Spawn thread `index`, whose loop self-heals: if the loop unwinds, a
/// drop guard spawns a replacement (detached — the original handle
/// already belongs to the pool) so pool capacity is not silently lost.
fn spawn_thread(index: usize, shared: Arc<Shared>) -> JoinHandle<()> {
    struct Respawn {
        index: usize,
        shared: Arc<Shared>,
    }
    impl Drop for Respawn {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.shared.metrics.worker_respawned();
                let _ = spawn_thread(self.index, Arc::clone(&self.shared));
            }
        }
    }
    std::thread::Builder::new()
        .name(format!("vaultd-worker-{index}"))
        .spawn(move || {
            let guard = Respawn {
                index,
                shared: Arc::clone(&shared),
            };
            thread_loop(index, &shared);
            std::mem::forget(guard); // clean exit: pool closed and idle
        })
        .expect("spawn pool thread")
}

/// A handed request first, then the oldest queued job; exit once the
/// pool is closed and neither is left.
fn thread_loop(index: usize, shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if let Some(request) = state.handed[index].pop_front() {
            drop(state);
            request(); // contains its own panics; the respawn guard backs it up
        } else if let Some(job) = state.queue.pop_front() {
            drop(state);
            shared.run(job);
        } else if state.open {
            state = shared.wait(state);
            continue;
        } else {
            return;
        }
        state = shared.lock();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Unbounded drain: jobs already queued run to completion.
        // Bounded shutdown is available via `shutdown`. The last owner
        // may be one of the pool's own threads, which cannot join
        // itself; it exits once its current job returns.
        self.close();
        let me = std::thread::current().id();
        for t in lock_unpoisoned(&self.threads).drain(..) {
            if t.thread().id() != me {
                let _ = t.join();
            }
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
    use std::sync::mpsc::channel;

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
        assert_eq!(pool.hand(0, || {}), Err(SubmitError::ShuttingDown));
        assert_eq!(pool.check_open(), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn a_waiting_thread_runs_a_job_queued_after_it_started_waiting() {
        let pool = Arc::new(ThreadPool::new(1, Arc::new(Metrics::default())));
        // Hold the only worker until the test lets it go.
        let (release, hold) = channel::<()>();
        let (started_tx, started) = channel();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            let _ = hold.recv();
        })
        .unwrap();
        started.recv_timeout(Duration::from_secs(30)).unwrap();
        let waiter = std::thread::current().id();
        let (tx, ran_on) = channel();
        let (waiting_tx, waiting) = channel();
        let late = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                // The waiter's first look holds the pool's lock until it
                // blocks, so this job is queued while it waits.
                waiting.recv().unwrap();
                pool.submit(move || tx.send(std::thread::current().id()).unwrap())
                    .unwrap();
            })
        };
        let ran = pool.help_until(|| {
            let _ = waiting_tx.send(());
            ran_on.try_recv().ok()
        });
        assert_eq!(ran, waiter, "the waiting thread ran the late job");
        release.send(()).unwrap();
        late.join().unwrap();
    }

    #[test]
    fn a_request_handed_to_a_busy_thread_starts_when_its_job_ends() {
        let pool = ThreadPool::new(1, Arc::new(Metrics::default()));
        let (release, hold) = channel::<()>();
        let (started_tx, started) = channel();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            let _ = hold.recv();
        })
        .unwrap();
        started.recv_timeout(Duration::from_secs(30)).unwrap();
        let (tx, answered) = channel();
        pool.hand(0, move || tx.send(()).unwrap()).unwrap();
        assert!(
            answered.try_recv().is_err(),
            "the job still holds the thread"
        );
        // Ending the job is the only event: nothing else wakes the pool.
        release.send(()).unwrap();
        answered
            .recv_timeout(Duration::from_secs(30))
            .expect("the handed request starts when the job ends");
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
