//! The daemon's observability surface.
//!
//! Plain atomic counters, shared by `Arc` between the service, the pool,
//! and every connection thread. A [`StatusSnapshot`] is the consistent
//! read the `status` request serializes. (Counters are monotonically
//! increasing except `queue_depth`, which tracks outstanding jobs.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Declares every `status` counter once, in wire order. Each entry
/// becomes a [`Metrics`] atomic, a [`StatusSnapshot`] field with the
/// same name and doc, a load in [`Metrics::snapshot`], and a pair in
/// [`StatusSnapshot::counters`], which `status` replies serialize.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Shared counters describing the life of the service.
        #[derive(Debug)]
        pub struct Metrics {
            $($(#[doc = $doc])+ pub $name: AtomicU64,)+
            started: Instant,
        }

        impl Default for Metrics {
            fn default() -> Self {
                Metrics {
                    $($name: AtomicU64::new(0),)+
                    started: Instant::now(),
                }
            }
        }

        /// Point-in-time counter values, as served by the `status` request.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatusSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
            /// Microseconds since the service started.
            pub uptime_micros: u64,
        }

        impl Metrics {
            /// A consistent-enough point-in-time read of every counter.
            pub fn snapshot(&self) -> StatusSnapshot {
                StatusSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                    uptime_micros: self.started.elapsed().as_micros() as u64,
                }
            }
        }

        impl StatusSnapshot {
            /// Every counter as `(status key, value)`, in wire order
            /// (`uptime_micros` excluded).
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

counters! {
    /// Requests handled, by kind.
    requests,
    /// Compilation units received for checking (hits + misses).
    units_checked,
    /// Units answered from the verdict cache.
    cache_hits,
    /// Units that had to run the checker.
    cache_misses,
    /// Units answered by joining another request's in-flight check of
    /// the same fingerprint instead of running the pipeline again.
    singleflight_joins,
    /// Function bodies answered from the per-function verdict cache
    /// during an incremental (unit-cache-miss) re-check.
    fn_cache_hits,
    /// Function bodies that had to be re-checked.
    fn_cache_misses,
    /// Project-mode units fanned out to the worker pool (cache misses
    /// plus cyclic rejections are excluded; this counts real checks).
    units_scheduled,
    /// Project-mode units answered from the verdict cache without
    /// re-checking.
    units_reused,
    /// Project-mode cache reuses that happened *while at least one
    /// transitive dependency was re-checked in the same request* — the
    /// early-cutoff wins: a body edit upstream left this unit's
    /// interface-derived key unchanged.
    cutoff_hits,
    /// Jobs currently queued or running in the pool.
    queue_depth,
    /// High-water mark of `queue_depth`.
    queue_peak,
    /// Total wall time spent inside the checker, in microseconds.
    check_micros,
    /// Total wall time spent serving requests, in microseconds.
    request_micros,
    /// Requests answered with `"ok":false` (bad JSON, malformed or
    /// oversized requests, internal failures).
    requests_failed,
    /// Listener `accept` calls that failed (the connection was never
    /// established; the listener backs off briefly on repeated failure).
    accept_errors,
    /// Panics caught and contained (worker jobs or per-unit checks).
    panics_caught,
    /// Units whose check hit a resource limit (deadline or fuel).
    deadline_exceeded,
    /// Worker threads respawned after an unwind escaped a job.
    workers_respawned,
    /// Cumulative microseconds spent lexing (cache misses only).
    lex_micros,
    /// Cumulative microseconds spent parsing.
    parse_micros,
    /// Cumulative microseconds spent elaborating declarations.
    elaborate_micros,
    /// Cumulative microseconds spent lowering signatures and types.
    lower_micros,
    /// Frames of the persistent cache that failed to load (truncated,
    /// corrupt, or version-mismatched — each such frame fell back cold).
    cache_load_errors,
    /// Verdict-store appends or maintenance passes that failed (the
    /// in-memory caches keep answering; only warmth is at risk).
    cache_append_errors,
    /// Journal appends that wrote and fsynced at least one frame. The
    /// journal writer makes one per group commit, so fewer commits than
    /// journaled requests means grouping happened. Zero without a
    /// `--cache-dir`.
    journal_commits,
    /// Cumulative microseconds those appends spent writing their
    /// frames and waiting for the fsync (encoding excluded).
    journal_sync_micros,
}

impl Metrics {
    /// Record a job entering the pool queue, updating the high-water mark.
    pub fn job_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record a job leaving the pool (completed).
    pub fn job_done(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one journal append that reached the disk in `took`.
    pub fn journal_committed(&self, took: std::time::Duration) {
        self.journal_commits.fetch_add(1, Ordering::Relaxed);
        self.journal_sync_micros
            .fetch_add(took.as_micros() as u64, Ordering::Relaxed);
    }

    /// Record a panic caught and contained.
    pub fn panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a unit that hit a resource limit (deadline or fuel).
    pub fn deadline_hit(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request answered with an error reply.
    pub fn request_failed(&self) {
        self.requests_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a failed listener `accept`.
    pub fn accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a unit that joined an in-flight check of its fingerprint.
    pub fn singleflight_join(&self) {
        self.singleflight_joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a worker thread respawned after an unwind.
    pub fn worker_respawned(&self) {
        self.workers_respawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a verdict-store append or maintenance failure.
    pub fn cache_append_error(&self) {
        self.cache_append_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulate one unit's per-phase front-end timings.
    pub fn absorb_phases(&self, stats: &vault_core::check::CheckStats) {
        self.lex_micros
            .fetch_add(stats.lex_micros, Ordering::Relaxed);
        self.parse_micros
            .fetch_add(stats.parse_micros, Ordering::Relaxed);
        self.elaborate_micros
            .fetch_add(stats.elaborate_micros, Ordering::Relaxed);
        self.lower_micros
            .fetch_add(stats.lower_micros, Ordering::Relaxed);
    }
}
