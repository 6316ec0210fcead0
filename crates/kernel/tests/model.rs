//! Model-based property tests for the kernel's synchronization objects:
//! random operation sequences against simple reference models.
//!
//! Every property runs over a fixed set of seeds of the workspace `rand`
//! generator, so a failure names the seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vault_kernel::{Irql, Kernel, Violation};

#[derive(Clone, Copy, Debug)]
enum LockOp {
    Acquire,
    Release,
}

/// Spin locks against a boolean model: the kernel flags exactly the
/// off-model operations and tracks IRQL like a stack of one.
#[test]
fn spinlock_matches_reference_model() {
    for seed in 0..128 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ops: Vec<LockOp> = (0..rng.gen_range(1..40usize))
            .map(|_| {
                if rng.gen_bool(0.5) {
                    LockOp::Acquire
                } else {
                    LockOp::Release
                }
            })
            .collect();
        let mut k = Kernel::new(1);
        let lock = k.create_spinlock();
        let mut model_held = false;
        let mut expected_violations = 0usize;
        let mut saved = Irql::Passive;
        for op in ops {
            match op {
                LockOp::Acquire => {
                    if model_held {
                        expected_violations += 1;
                    }
                    saved = k.irql();
                    let prev = k.acquire_spinlock(lock);
                    if !model_held {
                        assert_eq!(prev, saved);
                    }
                    model_held = true;
                    assert_eq!(k.irql(), Irql::Dispatch);
                }
                LockOp::Release => {
                    if !model_held {
                        expected_violations += 1;
                        k.release_spinlock(lock, saved);
                    } else {
                        k.release_spinlock(lock, saved);
                        model_held = false;
                        assert_eq!(k.irql(), saved);
                    }
                }
            }
        }
        k.audit_locks();
        if model_held {
            expected_violations += 1; // leak at audit
        }
        assert_eq!(
            k.violations().len(),
            expected_violations,
            "seed {seed}: {:?}",
            k.violations()
        );
    }
}

/// Events: waiting with no pending work that can signal is always a
/// deadlock; signal-then-wait never is.
#[test]
fn event_wait_discipline() {
    for signal_first in [false, true] {
        let mut k = Kernel::new(2);
        let e = k.create_event();
        if signal_first {
            k.signal_event(e);
            k.wait_event(e);
            assert!(k.violations().is_empty());
        } else {
            k.wait_event(e);
            assert!(k
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::Deadlock(_))));
        }
    }
}

/// Paged memory: below DISPATCH_LEVEL the page fault is always
/// serviced and the value survives; at DISPATCH_LEVEL a paged-out
/// access always deadlocks, a resident one never does.
#[test]
fn paged_memory_model() {
    for seed in 0..128 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let value = rng.gen_range(i64::MIN..=i64::MAX);
        let paged_out = rng.gen_bool(0.5);
        let mut k = Kernel::new(3);
        let cell = k.alloc_paged(value);
        if paged_out {
            k.page_out(cell);
        }
        // Passive access always fine.
        assert_eq!(k.read_paged(cell), value);
        assert!(k.violations().is_empty());
        // Raise to dispatch via a lock.
        let lock = k.create_spinlock();
        let prev = k.acquire_spinlock(lock);
        if paged_out {
            k.page_out(cell);
            let _ = k.read_paged(cell);
            let deadlocked = k
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::PagedAccessAtHighIrql { .. }));
            assert!(deadlocked);
        } else {
            let _ = k.read_paged(cell);
            assert!(k.violations().is_empty());
        }
        k.release_spinlock(lock, prev);
    }
}
