//! Differential test for the optimized checker (ISSUE 3).
//!
//! The symbol-interning + copy-on-write flow-state overhaul must be
//! invisible in the output: every diagnostic the checker renders has to
//! be **byte-identical** to what the pre-optimization checker produced.
//! The golden file under `tests/golden/` was generated at the
//! pre-optimization commit (`UPDATE_GOLDEN=1 cargo test -p vault-server
//! --test differential`) and is the frozen reference; this test replays
//! the whole built-in corpus plus a spread of deterministic synthetic
//! programs and diffs the rendered output against it.
//!
//! The incremental (function-granular) service path is covered too:
//! reassembled summaries must match the monolithic checker byte for
//! byte on the same workload.

use std::fmt::Write as _;
use vault_core::check_summary;
use vault_corpus::synth::{generate, Shape, SynthConfig};
use vault_server::{CheckService, ServiceConfig, UnitIn};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/corpus_diagnostics.txt"
);

/// Every corpus program plus deterministic synthetic units of each
/// shape, some with seeded bugs so rejection diagnostics are covered.
fn workload() -> Vec<UnitIn> {
    let mut units: Vec<UnitIn> = vault_corpus::all_programs()
        .into_iter()
        .map(|p| UnitIn {
            name: p.id.to_string(),
            source: p.source,
        })
        .collect();
    let shapes = [
        Shape::Mixed,
        Shape::Straight,
        Shape::Branchy,
        Shape::Loopy,
        Shape::VariantHeavy,
    ];
    for (i, shape) in shapes.iter().cycle().take(10).enumerate() {
        let program = generate(&SynthConfig {
            functions: 6,
            stmts_per_fn: 10,
            seed: 0xD1FF + i as u64,
            bug_rate: if i % 2 == 0 { 0.4 } else { 0.0 },
            shape: *shape,
        });
        units.push(UnitIn {
            name: format!("synth_{i}_{shape:?}.vlt"),
            source: program.source,
        });
    }
    units
}

/// One canonical text rendering of checking the whole workload: unit
/// name, verdict, then every rendered diagnostic verbatim.
fn render_workload() -> String {
    let mut out = String::new();
    for u in workload() {
        let s = check_summary(&u.name, &u.source);
        let _ = writeln!(out, "=== {} ({}) ===", u.name, s.verdict.as_str());
        let rendered = s.render_diagnostics();
        if !rendered.is_empty() {
            out.push_str(&rendered);
            if !rendered.ends_with('\n') {
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn diagnostics_byte_identical_to_pre_optimization_golden() {
    let got = render_workload();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1 at a known-good commit");
    if got != want {
        // Point at the first diverging line rather than dumping both
        // multi-thousand-line strings.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "first divergence at golden line {} (run with UPDATE_GOLDEN=1 only if the change is intended)",
                i + 1
            );
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "rendered output length diverged from golden"
        );
        panic!("outputs differ in whitespace only — still a byte-level divergence");
    }
}

/// The `(code, severity, message)` projection of a summary's
/// diagnostics — everything except attribution (file/line/col and the
/// rendered source quote), which legitimately differs between a
/// flattened single-unit check and a project-mode check of the same
/// program text.
fn triples(s: &vault_core::CheckSummary) -> Vec<(String, String, String)> {
    s.diagnostics
        .iter()
        .map(|d| (d.code.clone(), d.severity.clone(), d.message.clone()))
        .collect()
}

#[test]
fn project_split_floppy_matches_flattened_modulo_attribution() {
    use vault_project::{check_project, ProjectUnit};
    let limits = vault_core::Limits::default();

    // The clean driver: flattened and split must agree — accepted, no
    // diagnostics anywhere.
    let flat = check_summary("floppy_driver", &vault_corpus::floppy::driver_source());
    let units: Vec<ProjectUnit> = vault_corpus::floppy::project_units()
        .into_iter()
        .map(|(name, source)| ProjectUnit::new(name, source))
        .collect();
    let split = check_project(&units, &limits);
    assert_eq!(split.len(), 3);
    for s in &split {
        assert_eq!(s.verdict, flat.verdict, "unit {}", s.name);
    }
    let split_triples: Vec<_> = split.iter().flat_map(triples).collect();
    assert_eq!(split_triples, triples(&flat));

    // Every seeded-bug mutant: the flattened corpus entry and the
    // project split of the same mutation must produce identical
    // diagnostic sequences (interface units stay silent, so the
    // concatenation in manifest order lines up with the single unit).
    let flattened_mutants: Vec<_> = vault_corpus::floppy::programs().split_off(1);
    let project_mutants = vault_corpus::floppy::project_mutants();
    assert_eq!(flattened_mutants.len(), project_mutants.len());
    for (flat_prog, (id, units, code)) in flattened_mutants.iter().zip(project_mutants) {
        assert_eq!(flat_prog.id, id, "corpus orders diverged");
        let flat = check_summary(id, &flat_prog.source);
        let units: Vec<ProjectUnit> = units
            .into_iter()
            .map(|(name, source)| ProjectUnit::new(name, source))
            .collect();
        let split = check_project(&units, &limits);
        assert_eq!(split[0].diagnostics.len(), 0, "{id}: kernel unit not clean");
        assert_eq!(split[1].diagnostics.len(), 0, "{id}: hw unit not clean");
        let split_triples: Vec<_> = split.iter().flat_map(triples).collect();
        assert_eq!(split_triples, triples(&flat), "{id} diverged");
        assert!(
            split[2].diagnostics.iter().any(|d| d.code == code.as_str()),
            "{id}: expected {code} in the driver unit"
        );
    }
}

#[test]
fn project_service_matches_sequential_reference() {
    // The parallel project scheduler must be byte-identical to the
    // sequential reference implementation, cold and warm.
    use vault_project::{check_project, ProjectUnit};
    let units: Vec<ProjectUnit> = vault_corpus::floppy::project_units()
        .into_iter()
        .map(|(name, source)| ProjectUnit::new(name, source))
        .collect();
    let want = check_project(&units, &vault_core::Limits::default());
    let svc = CheckService::new(ServiceConfig {
        jobs: 4,
        ..Default::default()
    });
    let wire: Vec<UnitIn> = units
        .iter()
        .map(|u| UnitIn {
            name: u.name.clone(),
            source: u.source.clone(),
        })
        .collect();
    for round in 0..2 {
        let (reports, _) = svc.check_project(wire.clone());
        for (r, w) in reports.iter().zip(&want) {
            assert_eq!(*r.summary, *w, "round {round}, unit {}", w.name);
        }
        // Second round answers entirely from the project cache.
        if round == 1 {
            assert!(reports.iter().all(|r| r.cached));
        }
    }
}

#[test]
fn incremental_service_matches_monolithic_checker() {
    // The function-granular service path must reassemble summaries that
    // are structurally identical (diagnostics, verdicts, rendered text)
    // to the plain sequential checker.
    let units = workload();
    let svc = CheckService::new(ServiceConfig {
        jobs: 2,
        cache_capacity: units.len() * 2,
        ..Default::default()
    });
    let (reports, _) = svc.check_units(units.clone());
    for (r, u) in reports.iter().zip(&units) {
        let want = check_summary(&u.name, &u.source);
        assert_eq!(*r.summary, want, "unit {} diverged", u.name);
        assert_eq!(
            r.summary.render_diagnostics(),
            want.render_diagnostics(),
            "unit {} rendered output diverged",
            u.name
        );
    }
}
