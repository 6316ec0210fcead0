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
