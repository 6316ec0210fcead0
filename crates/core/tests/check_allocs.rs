//! Allocation ceiling for the flow checker.
//!
//! The check phase should allocate for what it keeps (fresh keys,
//! written frames, diagnostics), not for what it only reads: callee
//! signatures, variable types and the text of diagnostics that are never
//! reported. This binary installs a counting global allocator, checks
//! every body of every corpus program, and asserts that the check phase
//! allocates at most [`CEILING_PER_STATEMENT`] times per statement. It
//! holds a single test so no other test thread allocates inside the
//! counting window; the counter is thread-local anyway.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vault_core::check::check_function_with_limits;
use vault_core::{elaborate_owned, Limits};
use vault_syntax::DiagSink;

/// Check-phase heap allocations per statement over the corpus: 6.35
/// when this ceiling was set, plus 10% (6.76 while each instantiation
/// built its own parameter map and each call recorded its callee again;
/// 21.57 while the checker still cloned every callee signature and
/// variable type it read). Lower it when the checker allocates less;
/// raising it needs a reason.
const CEILING_PER_STATEMENT: f64 = 6.99;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator runs during thread teardown too.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get))
}

#[test]
fn check_phase_allocations_per_statement_stay_under_the_ceiling() {
    let limits = Limits::default();
    let (mut allocs, mut statements) = (0u64, 0u64);
    for program in vault_corpus::all_programs() {
        let mut diags = DiagSink::new();
        let parsed = vault_syntax::parse_program(&program.source, &mut diags);
        let elaborated = elaborate_owned(parsed, &mut diags);
        for f in &elaborated.bodies {
            let (stats, n) = allocations(|| {
                check_function_with_limits(
                    &elaborated.world,
                    &elaborated.syms,
                    &elaborated.aliases,
                    &elaborated.qualifiers,
                    &elaborated.base_keys,
                    f,
                    &mut diags,
                    &limits,
                )
            });
            allocs += n;
            statements += stats.statements as u64;
        }
    }
    assert!(
        statements > 1000,
        "the corpus checks {statements} statements"
    );
    let per_statement = allocs as f64 / statements as f64;
    assert!(
        per_statement <= CEILING_PER_STATEMENT,
        "the check phase made {per_statement:.2} allocations per statement \
         ({allocs} over {statements}); the ceiling is {CEILING_PER_STATEMENT}"
    );
}
