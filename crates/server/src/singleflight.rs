//! The cell a unit check publishes to, and the rule for sharing it.
//!
//! The service's unit table (see `service.rs`) keeps, per fingerprint,
//! either the finished verdict or the [`InFlight`] cell of the check
//! computing it. The first request to miss both becomes the **leader**:
//! it adds a cell and runs the check. Every later request, or later slot
//! of the same request, that misses the verdict while the cell is in
//! the table becomes a **joiner**: it waits for the cell (running the
//! pool's queued checks meanwhile, see `ThreadPool::help_until`) and
//! receives the identical `Arc<CheckSummary>` (counted in
//! `singleflight_joins`).
//!
//! Only a [`shareable`] verdict is handed on: a transient fault on the
//! leader — a chaos panic, an expired deadline — must not fan out to
//! innocent concurrent requests, so each joiner then checks the unit
//! itself, exactly as it would have without dedup.

use crate::pool::ThreadPool;
use std::sync::{Arc, OnceLock};
use vault_core::{CheckSummary, Verdict};

/// What a check publishes: its summary and its wall time in
/// microseconds.
pub type Published = (Arc<CheckSummary>, u64);

/// Whether a verdict is deterministic enough to cache and to hand to
/// joiners: a deadline overrun depends on the wall clock and a panic may
/// be chaos-injected, so either would pin a transient failure onto
/// healthy re-checks.
pub fn shareable(summary: &CheckSummary) -> bool {
    matches!(summary.verdict, Verdict::Accepted | Verdict::Rejected)
}

/// One check's result slot, filled exactly once.
#[derive(Default)]
pub struct InFlight {
    slot: OnceLock<Published>,
}

impl InFlight {
    /// Fill the slot and wake the threads waiting on `pool`. Only the
    /// first publish sticks, so a racy double-publish cannot change
    /// answers.
    pub fn publish(&self, published: Published, pool: &ThreadPool) {
        let _ = self.slot.set(published);
        pool.notify();
    }

    /// The published result, once there is one.
    pub fn published(&self) -> Option<&Published> {
        self.slot.get()
    }
}

/// A check's obligation to publish, enforced by `Drop`: if the job is
/// torn down without ever publishing — refused or dropped unrun by a
/// pool shutting down, say — the guard fills the cell with a
/// non-shareable internal error so waiters wake and re-check instead of
/// hanging forever.
pub struct LeaderGuard {
    cell: Arc<InFlight>,
    name: String,
    /// Where the joiners wait.
    pool: Arc<ThreadPool>,
}

impl LeaderGuard {
    /// Bind `cell` to the unit `name` (used in the fallback verdict) and
    /// to the `pool` its joiners wait on.
    pub fn new(cell: Arc<InFlight>, name: &str, pool: Arc<ThreadPool>) -> Self {
        LeaderGuard {
            cell,
            name: name.to_string(),
            pool,
        }
    }

    /// Publish the real result (see [`InFlight::publish`]).
    pub fn publish(&self, published: Published) {
        self.cell.publish(published, &self.pool);
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        if self.cell.published().is_none() {
            let summary = CheckSummary::internal_error(
                &self.name,
                "in-flight check abandoned before completion",
            );
            self.publish((Arc::new(summary), 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(1, Arc::new(Metrics::default())))
    }

    fn summary(name: &str) -> Arc<CheckSummary> {
        Arc::new(vault_core::check_summary(name, "void f() { }"))
    }

    #[test]
    fn double_publish_keeps_the_first_result() {
        let (pool, cell, first) = (pool(), InFlight::default(), summary("first"));
        cell.publish((Arc::clone(&first), 7), &pool);
        cell.publish((summary("second"), 9), &pool);
        let (got, micros) = cell.published().expect("published");
        assert!(Arc::ptr_eq(got, &first));
        assert_eq!(*micros, 7);
    }

    #[test]
    fn a_dropped_guard_publishes_only_if_the_check_did_not() {
        let pool = pool();
        let abandoned = Arc::new(InFlight::default());
        drop(LeaderGuard::new(
            Arc::clone(&abandoned),
            "a.vlt",
            Arc::clone(&pool),
        ));
        let (got, _) = abandoned.published().expect("the guard published");
        assert_eq!(got.verdict, Verdict::InternalError);
        assert!(!shareable(got));

        let done = Arc::new(InFlight::default());
        let checked = summary("b.vlt");
        LeaderGuard::new(Arc::clone(&done), "b.vlt", pool).publish((Arc::clone(&checked), 3));
        let (got, _) = done.published().expect("published");
        assert!(Arc::ptr_eq(got, &checked) && shareable(got));
    }
}
