//! Singleflight dedup: one in-flight check per fingerprint.
//!
//! Concurrent requests for the same unit/project fingerprint used to
//! race each other through the full pipeline — the cache only dedupes
//! *finished* work. A [`SingleFlight`] table closes that window: the
//! first request to miss the cache becomes the **leader** and runs the
//! check; every other request that arrives while it is in flight
//! becomes a **joiner**, blocks on the leader's [`InFlight`] cell, and
//! receives the identical `Arc<CheckSummary>` (counted in
//! `singleflight_joins`).
//!
//! Non-cacheable outcomes (resource-limit, internal-error) are
//! published but flagged non-shareable: a transient fault on the
//! leader — a chaos panic, an expired deadline — must not fan out to
//! innocent concurrent requests, so each joiner falls back to checking
//! the unit itself, exactly as it would have without dedup.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use vault_core::CheckSummary;

/// The result a leader publishes for its waiters: the shared summary
/// plus whether it is deterministic enough to share (`Accepted` /
/// `Rejected` — the same rule the verdict cache applies).
type Published = (Arc<CheckSummary>, bool);

/// One in-flight check: a slot the leader fills exactly once and a
/// condvar the joiners sleep on.
pub struct InFlight {
    slot: Mutex<Option<Published>>,
    ready: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Fill the slot and wake every waiter. Idempotent: only the first
    /// publish sticks, so a racy double-publish cannot change answers.
    pub fn publish(&self, summary: Arc<CheckSummary>, shareable: bool) {
        let mut slot = lock_unpoisoned(&self.slot);
        if slot.is_none() {
            *slot = Some((summary, shareable));
        }
        drop(slot);
        self.ready.notify_all();
    }

    /// Block until the leader publishes; returns the shared summary and
    /// whether it may be shared.
    pub fn wait(&self) -> Published {
        let mut slot = lock_unpoisoned(&self.slot);
        loop {
            if let Some(published) = slot.as_ref() {
                return published.clone();
            }
            slot = match self.ready.wait(slot) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
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
}

impl LeaderGuard {
    /// Bind the leader's cell to `name` (used in the fallback verdict).
    pub fn new(cell: Arc<InFlight>, name: &str) -> Self {
        LeaderGuard {
            cell,
            name: name.to_string(),
        }
    }

    /// Publish the real result (see [`InFlight::publish`]).
    pub fn publish(&self, summary: Arc<CheckSummary>, shareable: bool) {
        self.cell.publish(summary, shareable);
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

/// The table of in-flight checks, keyed by fingerprint.
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
                let cell = Arc::new(InFlight::new());
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

/// Lock, recovering from poisoning: the table holds no invariant a
/// panicking thread could break halfway (worst case an entry lingers
/// until its leader's `complete`, or a joiner re-checks).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

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
        cell.publish(summary("a"), true);
        sf.complete(7);
        sf.complete(8);
        assert!(sf.is_empty());
        // After completion the fingerprint claims fresh again.
        assert!(matches!(sf.claim(7), Claim::Leader(_)));
    }

    #[test]
    fn joiners_all_receive_the_leaders_summary() {
        let sf = Arc::new(SingleFlight::default());
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
                std::thread::spawn(move || {
                    let Claim::Joiner(cell) = sf.claim(42) else {
                        panic!("claims while in flight must join");
                    };
                    barrier.wait();
                    let (got, shareable) = cell.wait();
                    assert!(shareable);
                    joins.fetch_add(1, Ordering::SeqCst);
                    got
                })
            })
            .collect();
        barrier.wait();
        let published = summary("shared");
        cell.publish(Arc::clone(&published), true);
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
        let first = summary("first");
        cell.publish(Arc::clone(&first), true);
        cell.publish(summary("second"), false);
        let (got, shareable) = cell.wait();
        assert!(Arc::ptr_eq(&got, &first));
        assert!(shareable);
    }
}
