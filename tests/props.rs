//! Whole-pipeline property tests: for randomly generated programs with
//! known ground truth, the checker's verdict is exactly right.
//!
//! Every property runs over a fixed set of seeds of the workspace `rand`
//! generator, so a failure names the seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vault::core::{check_source, Verdict};
use vault::corpus::synth::{generate, SeededBug, Shape, SynthConfig};
use vault::syntax::Code;

/// Clean generated programs are always accepted; buggy ones are always
/// rejected with a diagnostic matching the seeded class.
#[test]
fn checker_matches_ground_truth() {
    for case in 0..24 {
        let rng = &mut StdRng::seed_from_u64(case);
        let functions = rng.gen_range(1..6usize);
        let stmts = rng.gen_range(4..16usize);
        let seed = rng.gen_range(0..=u64::MAX);
        let bug_rate = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
        let p = generate(&SynthConfig {
            functions,
            stmts_per_fn: stmts,
            seed,
            bug_rate,
            shape: Shape::Mixed,
        });
        let r = check_source("synth", &p.source);
        if p.expect_accept() {
            assert_eq!(
                r.verdict(),
                Verdict::Accepted,
                "false positive on clean program:\n{}\n{}",
                p.source,
                r.render_diagnostics()
            );
        } else {
            assert_eq!(
                r.verdict(),
                Verdict::Rejected,
                "seed {seed}: missed seeded bug {:?}",
                p.seeded
            );
            if p.seeded.iter().any(|(_, b)| *b == SeededBug::Leak) {
                assert!(r.has_code(Code::KeyLeak));
            }
            if p.seeded.iter().any(|(_, b)| *b == SeededBug::Dangling) {
                assert!(r.has_code(Code::KeyNotHeld));
            }
        }
    }
}

/// Checking is deterministic: same source, same diagnostics.
#[test]
fn checking_is_deterministic() {
    for case in 0..24 {
        let seed = StdRng::seed_from_u64(case).gen_range(0..=u64::MAX);
        let p = generate(&SynthConfig {
            functions: 3,
            stmts_per_fn: 10,
            seed,
            bug_rate: 0.3,
            shape: Shape::Mixed,
        });
        let a = check_source("a", &p.source);
        let b = check_source("b", &p.source);
        assert_eq!(a.error_codes(), b.error_codes());
        assert_eq!(a.stats, b.stats);
    }
}

/// The kernel workload is clean for every seed when the driver is clean
/// (no flaky false positives in the oracle).
#[test]
fn clean_workloads_never_report() {
    for case in 0..24 {
        let seed = StdRng::seed_from_u64(case).gen_range(0..=u64::MAX);
        let r = vault::kernel::run_floppy_workload(&vault::kernel::WorkloadConfig {
            ops: 40,
            seed,
            bugs: vault::kernel::FloppyBugs::none(),
        });
        assert!(r.clean(), "seed {seed}: {:?}", r.violations);
    }
}
