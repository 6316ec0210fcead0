//! Singleflight dedup: one in-flight check per fingerprint.
//!
//! Concurrent requests for the same unit/project fingerprint used to
//! race each other through the full pipeline — the cache only dedupes
//! *finished* work. A [`SingleFlight`] table closes that window: the
//! first request to miss the cache becomes the **leader** and runs the
//! check; every other request that arrives while it is in flight
//! becomes a **joiner**, waits on the leader's [`InFlight`] cell
//! (running the pool's queued checks meanwhile, see
//! `ThreadPool::help_until`), and receives the identical
//! `Arc<CheckSummary>` (counted in `singleflight_joins`).
//!
//! Non-cacheable outcomes (resource-limit, internal-error) are
//! published but flagged non-shareable: a transient fault on the
//! leader — a chaos panic, an expired deadline — must not fan out to
//! innocent concurrent requests, so each joiner falls back to checking
//! the unit itself, exactly as it would have without dedup.

use crate::pool::{lock_unpoisoned, ThreadPool};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use vault_core::CheckSummary;

/// The result a leader publishes for its waiters: the shared summary
/// plus whether it is deterministic enough to share (`Accepted` /
/// `Rejected` — the same rule the verdict cache applies).
type Published = (Arc<CheckSummary>, bool);

/// One in-flight check: a slot the leader fills exactly once.
pub struct InFlight {
    slot: OnceLock<Published>,
}

impl InFlight {
    /// Fill the slot and wake the threads waiting on `pool`. Idempotent:
    /// only the first publish sticks, so a racy double-publish cannot
    /// change answers.
    pub fn publish(&self, summary: Arc<CheckSummary>, shareable: bool, pool: &ThreadPool) {
        let _ = self.slot.set((summary, shareable));
        pool.notify();
    }

    /// Run `pool`'s queued jobs until the leader publishes; returns the
    /// shared summary and whether it may be shared.
    pub fn wait(&self, pool: &ThreadPool) -> Published {
        pool.help_until(|| self.slot.get().cloned())
    }
}

/// A leader's obligation to publish, enforced by `Drop`: if the
/// leader's job is torn down without ever publishing — dropped unrun by
/// a pool shutting down, say — the guard fills the slot with a
/// non-shareable internal error so waiters wake and re-check instead of
/// hanging forever. Publishing is first-wins, so the fallback never
/// overwrites a real result.
pub struct LeaderGuard {
    cell: Arc<InFlight>,
    name: String,
    /// Where the joiners wait.
    pool: Arc<ThreadPool>,
}

impl LeaderGuard {
    /// Bind the leader's cell to `name` (used in the fallback verdict)
    /// and to the `pool` its joiners wait on.
    pub fn new(cell: Arc<InFlight>, name: &str, pool: Arc<ThreadPool>) -> Self {
        LeaderGuard {
            cell,
            name: name.to_string(),
            pool,
        }
    }

    /// Publish the real result (see [`InFlight::publish`]).
    pub fn publish(&self, summary: Arc<CheckSummary>, shareable: bool) {
        self.cell.publish(summary, shareable, &self.pool);
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        self.cell.publish(
            Arc::new(CheckSummary::internal_error(
                &self.name,
                "in-flight check abandoned before completion",
            )),
            false,
            &self.pool,
        );
    }
}

/// Outcome of claiming a fingerprint.
pub enum Claim {
    /// This request runs the check and must `publish` + `complete`.
    Leader(Arc<InFlight>),
    /// Another request is already checking this fingerprint; `wait` on
    /// the cell.
    Joiner(Arc<InFlight>),
}

/// The table of in-flight checks, keyed by fingerprint. Its lock
/// recovers from poisoning: the table holds no invariant a panicking
/// thread could break halfway (worst case an entry lingers until its
/// leader's `complete`, or a joiner re-checks).
#[derive(Default)]
pub struct SingleFlight {
    inflight: Mutex<HashMap<u64, Arc<InFlight>>>,
}

impl SingleFlight {
    /// Claim `fp`: the first claimant per fingerprint leads, later ones
    /// join. The leader must eventually call [`SingleFlight::complete`]
    /// (after publishing *and* inserting the verdict into the cache, so
    /// late arrivals either join or hit — never re-run).
    pub fn claim(&self, fp: u64) -> Claim {
        let mut map = lock_unpoisoned(&self.inflight);
        match map.get(&fp) {
            Some(cell) => Claim::Joiner(Arc::clone(cell)),
            None => {
                let cell = Arc::new(InFlight {
                    slot: OnceLock::new(),
                });
                map.insert(fp, Arc::clone(&cell));
                Claim::Leader(cell)
            }
        }
    }

    /// Retire `fp`'s entry. Joiners already holding the cell still read
    /// the published result; new requests consult the cache afresh.
    pub fn complete(&self, fp: u64) {
        lock_unpoisoned(&self.inflight).remove(&fp);
    }

    /// Whether no fingerprint is in flight (tests).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.inflight).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(1, Arc::new(Metrics::default())))
    }

    fn summary(name: &str) -> Arc<CheckSummary> {
        Arc::new(vault_core::check_summary(name, "void f() { }"))
    }

    #[test]
    fn first_claim_leads_later_claims_join() {
        let sf = SingleFlight::default();
        let Claim::Leader(cell) = sf.claim(7) else {
            panic!("first claim must lead");
        };
        assert!(matches!(sf.claim(7), Claim::Joiner(_)));
        assert!(matches!(sf.claim(8), Claim::Leader(_)));
        cell.publish(summary("a"), true, &pool());
        sf.complete(7);
        sf.complete(8);
        assert!(sf.is_empty());
        // After completion the fingerprint claims fresh again.
        assert!(matches!(sf.claim(7), Claim::Leader(_)));
    }

    #[test]
    fn joiners_all_receive_the_leaders_summary() {
        let sf = Arc::new(SingleFlight::default());
        let pool = pool();
        let Claim::Leader(cell) = sf.claim(42) else {
            panic!("first claim must lead");
        };
        let joins = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(9));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let joins = Arc::clone(&joins);
                let barrier = Arc::clone(&barrier);
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let Claim::Joiner(cell) = sf.claim(42) else {
                        panic!("claims while in flight must join");
                    };
                    barrier.wait();
                    let (got, shareable) = cell.wait(&pool);
                    assert!(shareable);
                    joins.fetch_add(1, Ordering::SeqCst);
                    got
                })
            })
            .collect();
        barrier.wait();
        let published = summary("shared");
        cell.publish(Arc::clone(&published), true, &pool);
        sf.complete(42);
        for h in handles {
            let got = h.join().unwrap();
            assert!(Arc::ptr_eq(&got, &published), "byte-equal by identity");
        }
        assert_eq!(joins.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn double_publish_keeps_the_first_result() {
        let sf = SingleFlight::default();
        let Claim::Leader(cell) = sf.claim(1) else {
            panic!();
        };
        let (pool, first) = (pool(), summary("first"));
        cell.publish(Arc::clone(&first), true, &pool);
        cell.publish(summary("second"), false, &pool);
        let (got, shareable) = cell.wait(&pool);
        assert!(Arc::ptr_eq(&got, &first));
        assert!(shareable);
    }
}
