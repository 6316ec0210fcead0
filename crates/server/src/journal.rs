//! The verdict journal: group commit off the reply path.
//!
//! A request hands its fresh verdicts to the [`Journal`] and replies
//! without waiting for the disk. One writer thread per service takes
//! everything queued, adds the function verdicts the incremental engine
//! produced meanwhile ([`IncrementalEngine::take_dirty`]), and commits
//! the lot with one `VerdictStore::append_borrowed`: one write, one
//! `sync_data`, shared by every request whose verdicts arrived while the
//! previous commit was on the disk. The records are handed over by
//! reference: each queued `Arc<CheckSummary>` (the one the unit cache
//! holds) and each drained function verdict is written into the frame
//! buffer where it sits, never cloned, and the frames on disk are byte
//! for byte what [`VerdictStore::append`] writes for owned records.
//! After a commit the writer runs store maintenance (compaction and the
//! size bound) inline, so it is the store's only writer apart from
//! `clear-cache`'s wipe.
//!
//! The store changes speed, never an answer, so this moves only *when*
//! a verdict becomes durable: a crash loses at most the verdicts of
//! replies sent since the last commit, which costs warmth at the next
//! boot and nothing else.
//!
//! Ordering guarantees:
//!
//! * **Bounded.** The queue holds at most [`QUEUE_MAX`] whole-unit
//!   verdicts. A request that finds it full waits for the writer to take
//!   it, so a disk stall costs latency, never unbounded memory or a
//!   dropped verdict.
//! * **Wipe.** [`Journal::wipe`] holds the commit lock and the queue lock
//!   while it discards the queue, clears the engine (its dirty list with
//!   it) and wipes the store. A verdict queued before the wipe was either
//!   committed before it, and is wiped, or is discarded; none can be
//!   committed after it. Compaction keeps the same promise: the store's
//!   wipe waits for an in-flight maintenance pass, so no copy it makes
//!   lands after the wipe.
//! * **Flush.** [`Journal::flush`] returns once every batch submitted
//!   before the call is committed (or discarded by a wipe) and the
//!   maintenance after it has run. Dropping the journal flushes and
//!   joins the writer.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use vault_core::CheckSummary;

use crate::incremental::IncrementalEngine;
use crate::metrics::Metrics;
use crate::persist::{RecordRef, VerdictStore};
use crate::pool::lock_unpoisoned as lock;

/// Most whole-unit verdicts the queue holds before a submitting request
/// waits. A batch larger than this is still accepted, alone, into an
/// empty queue.
pub const QUEUE_MAX: usize = 4096;

/// A whole-unit verdict waiting for its commit.
pub type Pending = (u64, Arc<CheckSummary>);

struct Queue {
    units: Vec<Pending>,
    /// Batches submitted so far.
    submitted: u64,
    /// Batches the writer has taken or a wipe discarded.
    taken: u64,
    /// Batches committed or discarded, maintenance included.
    done: u64,
    /// Set on drop: the writer commits what is left and exits.
    closed: bool,
}

struct Shared {
    store: VerdictStore,
    engine: Arc<IncrementalEngine>,
    metrics: Arc<Metrics>,
    queue: Mutex<Queue>,
    /// Signalled when a batch arrives or the journal closes.
    work: Condvar,
    /// Signalled when the writer takes the queue or finishes a commit.
    progress: Condvar,
    /// Held by the writer from taking a batch until its append returns,
    /// and by [`Journal::wipe`].
    commit: Mutex<()>,
}

/// A verdict store plus the writer thread that is its only appender.
pub struct Journal {
    shared: Arc<Shared>,
    writer: Option<JoinHandle<()>>,
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Journal {
    /// Start the writer thread for `store`. Function verdicts are drained
    /// from `engine`; append and maintenance failures tick
    /// `cache_append_errors` in `metrics`.
    pub fn start(
        store: VerdictStore,
        engine: Arc<IncrementalEngine>,
        metrics: Arc<Metrics>,
    ) -> io::Result<Journal> {
        let mut journal = Journal::without_writer(store, engine, metrics);
        let shared = Arc::clone(&journal.shared);
        journal.writer = Some(
            std::thread::Builder::new()
                .name("vault-journal".into())
                .spawn(move || shared.run())?,
        );
        Ok(journal)
    }

    /// A journal with no writer thread yet (tests play the writer by
    /// calling [`Shared::commit`] themselves).
    fn without_writer(
        store: VerdictStore,
        engine: Arc<IncrementalEngine>,
        metrics: Arc<Metrics>,
    ) -> Journal {
        Journal {
            shared: Arc::new(Shared {
                store,
                engine,
                metrics,
                queue: Mutex::new(Queue {
                    units: Vec::new(),
                    submitted: 0,
                    taken: 0,
                    done: 0,
                    closed: false,
                }),
                work: Condvar::new(),
                progress: Condvar::new(),
                commit: Mutex::new(()),
            }),
            writer: None,
        }
    }

    /// The store the writer appends to.
    pub fn store(&self) -> &VerdictStore {
        &self.shared.store
    }

    /// Queue one request's fresh whole-unit verdicts and return. The
    /// writer also drains the engine's fresh function verdicts, so a
    /// batch with no units still schedules a commit.
    pub fn submit(&self, units: Vec<Pending>) {
        let shared = &self.shared;
        let mut q = lock(&shared.queue);
        while !q.units.is_empty() && q.units.len() + units.len() > QUEUE_MAX {
            q = wait(&shared.progress, q);
        }
        q.units.extend(units);
        q.submitted += 1;
        drop(q);
        shared.work.notify_one();
    }

    /// Wait until every batch submitted so far is committed or discarded.
    pub fn flush(&self) {
        let shared = &self.shared;
        let mut q = lock(&shared.queue);
        let target = q.submitted;
        while q.done < target {
            q = wait(&shared.progress, q);
        }
    }

    /// Discard the queue, clear `engine`'s caches and wipe the store, with
    /// no commit in flight (see the module docs).
    pub fn wipe(&self) {
        let shared = &self.shared;
        let _commit = lock(&shared.commit);
        let mut q = lock(&shared.queue);
        q.units.clear();
        q.taken = q.submitted;
        q.done = q.submitted;
        shared.engine.clear();
        let _ = shared.store.wipe();
        drop(q);
        shared.progress.notify_all();
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.work.notify_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl Shared {
    /// The writer loop: wait for batches, commit each group, exit once
    /// closed with nothing left.
    fn run(&self) {
        loop {
            {
                let mut q = lock(&self.queue);
                while q.taken == q.submitted && !q.closed {
                    q = wait(&self.work, q);
                }
                if q.taken == q.submitted {
                    return;
                }
            }
            let upto = match catch_unwind(AssertUnwindSafe(|| self.commit())) {
                Ok(upto) => upto,
                Err(_) => {
                    // A panicking commit costs its batch's warmth; the
                    // writer must survive, or full-queue waiters hang.
                    self.metrics.cache_append_error();
                    lock(&self.queue).taken
                }
            };
            let mut q = lock(&self.queue);
            q.done = q.done.max(upto);
            drop(q);
            self.progress.notify_all();
        }
    }

    /// Take everything queued, append it with one fsync, then maintain
    /// the store. Returns how many batches have been taken so far, this
    /// commit's included.
    fn commit(&self) -> u64 {
        let commit = lock(&self.commit);
        let (units, upto) = {
            let mut q = lock(&self.queue);
            q.taken = q.submitted;
            (std::mem::take(&mut q.units), q.taken)
        };
        self.progress.notify_all();
        let fns = self.engine.take_dirty();
        let records = units
            .iter()
            .map(|(fp, summary)| RecordRef::Unit { fp: *fp, summary })
            .chain(fns.iter().map(|(fp, views, stats)| RecordRef::Fn {
                fp: *fp,
                views,
                stats,
            }));
        match self.store.append_borrowed(records) {
            Ok(Some(took)) => self.metrics.journal_committed(took),
            Ok(None) => {}
            Err(_) => self.metrics.cache_append_error(),
        }
        drop(commit);
        if self.store.needs_maintenance() && self.store.maintain().is_err() {
            self.metrics.cache_append_error();
        }
        upto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::StoreConfig;
    use std::time::Duration;
    use vault_core::Limits;

    const TWO_FNS: &str = "void one() { int x = 1; }\nvoid two() { int y = 2; }";

    /// A journal whose writer the test plays by hand, so every queue
    /// state is deterministic.
    fn manual(tag: &str) -> (Journal, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("vault-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = VerdictStore::open(&dir, StoreConfig::default()).unwrap();
        let engine = Arc::new(IncrementalEngine::new(4, 64));
        engine.enable_dirty_tracking();
        let journal = Journal::without_writer(store, engine, Arc::new(Metrics::default()));
        (journal, dir)
    }

    fn pending(fp: u64) -> Pending {
        (
            fp,
            Arc::new(vault_core::check_summary("u.vlt", "void f() { }")),
        )
    }

    fn live(journal: &Journal) -> u64 {
        journal.store().health().live_frames
    }

    #[test]
    fn journal_commit_groups_every_queued_batch_into_one_append() {
        let (journal, dir) = manual("group");
        journal.shared.engine.check_unit_with_prelude(
            "t.vlt",
            "",
            TWO_FNS,
            &Limits::default(),
            &Metrics::default(),
        );
        journal.submit(vec![pending(1), pending(2)]);
        journal.submit(vec![pending(3)]);
        journal.submit(Vec::new());
        assert_eq!(
            live(&journal),
            0,
            "nothing reaches the disk before a commit"
        );
        assert_eq!(journal.shared.commit(), 3);
        // Three unit verdicts and both function verdicts, one fsync.
        let commits = journal.shared.metrics.snapshot().journal_commits;
        assert_eq!((live(&journal), commits), (5, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_wipe_discards_queued_and_dirty_verdicts() {
        let (journal, dir) = manual("wipe");
        journal.shared.engine.check_unit_with_prelude(
            "t.vlt",
            "",
            TWO_FNS,
            &Limits::default(),
            &Metrics::default(),
        );
        journal.submit(vec![pending(1)]);
        journal.wipe();
        // The writer's next commit finds nothing from before the wipe.
        journal.shared.commit();
        assert_eq!(
            live(&journal),
            0,
            "a verdict queued before the wipe was committed"
        );
        // A flush right after a wipe has nothing left to wait for.
        journal.flush();
        journal.submit(vec![pending(2)]);
        journal.shared.commit();
        assert_eq!(live(&journal), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_full_queue_makes_the_submitter_wait_for_the_writer() {
        let (journal, dir) = manual("full");
        let journal = Arc::new(journal);
        journal.submit((0..QUEUE_MAX as u64).map(pending).collect());
        let late = {
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || journal.submit(vec![pending(u64::MAX)]))
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!late.is_finished(), "a full queue accepted another verdict");
        journal.shared.commit();
        late.join().unwrap();
        journal.shared.commit();
        assert_eq!(
            live(&journal),
            QUEUE_MAX as u64 + 1,
            "no verdict was dropped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
