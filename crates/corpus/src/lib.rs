//! # vault-corpus
//!
//! The program corpus for the Vault reproduction: every example from the
//! paper (Figs. 1–5, 7, §2.1, §2.3, §4.1–§4.4), the Vault description of
//! the Windows 2000 kernel/driver interface, the floppy-driver case study
//! with seeded-bug mutants, and a synthetic program generator for the
//! checker-scaling benchmarks.
//!
//! Each [`CorpusProgram`] records the experiment it belongs to and the
//! expected checker outcome, so the test suite, the benches, and the
//! `report` binary all assert against a single source of truth.

#![warn(missing_docs)]

pub mod edits;
pub mod exec;
pub mod extensions;
pub mod figures;
pub mod floppy;
pub mod kernel;
pub mod sockets;
pub mod synth;

use vault_syntax::Code;

/// What the checker must say about a corpus program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The program respects every protocol.
    Accept,
    /// The program must be rejected, with at least these diagnostic codes.
    Reject(Vec<Code>),
}

impl Expectation {
    /// Shorthand for a single-code rejection.
    pub fn reject(code: Code) -> Self {
        Expectation::Reject(vec![code])
    }
}

/// One seeded bug applied to a project split: `(id, units, expected
/// code)`, each unit a `(name, source)` pair.
pub type ProjectMutant = (&'static str, Vec<(&'static str, String)>, Code);

/// One corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusProgram {
    /// Stable identifier, e.g. `fig2_dangling`.
    pub id: &'static str,
    /// Which experiment (DESIGN.md index) this belongs to, e.g. `E1`.
    pub experiment: &'static str,
    /// What the program demonstrates.
    pub description: &'static str,
    /// Vault source text.
    pub source: String,
    /// Expected checker outcome.
    pub expect: Expectation,
}

impl CorpusProgram {
    /// Non-blank, non-comment line count of the source.
    pub fn loc(&self) -> usize {
        count_loc(&self.source)
    }
}

/// Count non-blank, non-comment lines.
pub fn count_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// A frozen multi-function unit whose declaration fingerprints and
/// function keys are pinned to literal values by
/// `vault_core::interface` and `vault_server::incremental` tests: every
/// kind of declaration the fingerprints hash (statesets, a global key,
/// parameterized types, keyed variants, a function-type alias, a guarded
/// alias, an interface block, effects with states, fresh keys, `uses`
/// items and type parameters) appears once. A change to how types or
/// signatures hash fails those tests instead of silently booting every
/// persisted verdict store cold. Do not edit this text.
pub const FINGERPRINT_UNIT: &str = r#"stateset IRQ_LEVEL = [ PASSIVE_LEVEL < APC_LEVEL < DISPATCH_LEVEL ];
key IRQL @ IRQ_LEVEL;
stateset SOCK_STATE = [ raw < named < ready ];
type KIRQL<state S>;
type sock;
type DEVICE_OBJECT;
type IRP;
type KSPIN_LOCK<key K>;
struct sockaddr { int addr; int port; }
variant status<key K> [ 'Ok {K@named} | 'Error(int) {K@raw} ];
variant opt_irp [ 'NoIrp | 'GotIrp(tracked IRP) ];
variant COMPLETION_RESULT<key I> [ 'MoreProcessingRequired | 'Finished(int) {I} ];
type COMPLETION_ROUTINE<key K> =
  tracked COMPLETION_RESULT<K> Routine(DEVICE_OBJECT, tracked(K) IRP)
    [-K, IRQL@(crl <= DISPATCH_LEVEL)];
type paged<type T> = (IRQL@(pl <= APC_LEVEL)):T;
interface REGION {
  type region;
  tracked(R) region create() [new R];
  void delete(tracked(R) region) [-R];
}
struct point { int x; int y; }
tracked(S) sock socket(int proto) [new S@raw, uses net];
void bind(tracked(S) sock s, sockaddr a) [S@raw->named, uses net];
tracked status<S> bind2(tracked(S) sock s, sockaddr a) [-S@raw, uses net];
void close(tracked(S) sock s) [-S, uses net];
KSPIN_LOCK<K> KeInitializeSpinLock<type T>(tracked(K) T data) [-K, IRQL@PASSIVE_LEVEL];
KIRQL<level> KeAcquireSpinLock(KSPIN_LOCK<K> lock)
  [+K, IRQL@(level <= DISPATCH_LEVEL) -> DISPATCH_LEVEL];
void KeReleaseSpinLock(KSPIN_LOCK<K> lock, KIRQL<old> prev)
  [-K, IRQL@DISPATCH_LEVEL -> old];
void IoSetCompletionRoutine(tracked(I) IRP irp, COMPLETION_ROUTINE<I> routine) [I];
int read_paged(paged<int> v) [IRQL@PASSIVE_LEVEL];
void serve(sockaddr a) [uses net] {
  tracked(S) sock s = socket(0);
  bind(s, a);
  close(s);
}
void regions(bool flag) {
  tracked(R) region rgn = Region.create();
  R:point pt = new(rgn) point {x=1; y=2;};
  if (flag) { pt.x++; } else { pt.y = pt.y - 1; }
  Region.delete(rgn);
}
"#;

/// Every corpus program, across all experiments.
pub fn all_programs() -> Vec<CorpusProgram> {
    let mut v = Vec::new();
    v.extend(figures::programs());
    v.extend(kernel::programs());
    v.extend(floppy::programs());
    v.extend(sockets::programs());
    v.extend(extensions::programs());
    v.extend(exec::programs());
    v
}

/// The corpus programs belonging to one experiment id (e.g. `"E2"`).
pub fn programs_for(experiment: &str) -> Vec<CorpusProgram> {
    all_programs()
        .into_iter()
        .filter(|p| p.experiment == experiment)
        .collect()
}

/// All experiment ids present in the corpus, in order.
pub fn experiment_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = Vec::new();
    for p in all_programs() {
        if !ids.contains(&p.experiment) {
            ids.push(p.experiment);
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_ids_are_unique() {
        let programs = all_programs();
        let mut ids: Vec<_> = programs.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate corpus ids");
    }

    #[test]
    fn corpus_is_nonempty_per_experiment() {
        for exp in experiment_ids() {
            assert!(
                !programs_for(exp).is_empty(),
                "experiment {exp} has no programs"
            );
        }
    }

    #[test]
    fn loc_counter_skips_blanks_and_comments() {
        assert_eq!(count_loc("a\n\n// c\n  b  \n"), 2);
    }
}
