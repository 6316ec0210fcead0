//! Determinism of the parallel, incremental service: checking the full
//! built-in corpus through the worker pool (jobs = 1 and 4) must yield
//! byte-identical verdicts and diagnostic sets to sequential
//! `check_source`, and cache-hit re-checks must return identical
//! diagnostics.

use vault_core::{check_summary, CheckSummary};
use vault_server::{CheckService, Json, ServiceConfig, UnitIn};

fn corpus_units() -> Vec<UnitIn> {
    vault_corpus::all_programs()
        .into_iter()
        .map(|p| UnitIn {
            name: p.id.to_string(),
            source: p.source,
        })
        .collect()
}

fn sequential_baseline(units: &[UnitIn]) -> Vec<CheckSummary> {
    units
        .iter()
        .map(|u| check_summary(&u.name, &u.source))
        .collect()
}

#[test]
fn pool_matches_sequential_at_one_and_four_jobs() {
    let units = corpus_units();
    assert!(units.len() > 20, "corpus unexpectedly small");
    let baseline = sequential_baseline(&units);
    for jobs in [1usize, 4] {
        let svc = CheckService::new(ServiceConfig {
            jobs,
            cache_capacity: units.len() * 2,
            ..Default::default()
        });
        let (reports, _) = svc.check_units(units.clone());
        assert_eq!(reports.len(), baseline.len());
        for (report, expect) in reports.iter().zip(&baseline) {
            // Full structural equality: verdict, every diagnostic field,
            // stats — not just the verdict.
            assert_eq!(
                *report.summary, *expect,
                "jobs={jobs} unit={} diverged from sequential check_source",
                expect.name
            );
            assert!(!report.cached);
        }
        // Byte-identical rendered diagnostics, the strongest form.
        let rendered_pool: Vec<String> = reports
            .iter()
            .map(|r| r.summary.render_diagnostics())
            .collect();
        let rendered_seq: Vec<String> = baseline.iter().map(|s| s.render_diagnostics()).collect();
        assert_eq!(rendered_pool, rendered_seq, "jobs={jobs}");
    }
}

#[test]
fn cache_hits_return_identical_diagnostics() {
    let units = corpus_units();
    let svc = CheckService::new(ServiceConfig {
        jobs: 4,
        cache_capacity: units.len() * 2,
        ..Default::default()
    });
    let (cold, _) = svc.check_units(units.clone());
    let (warm, _) = svc.check_units(units.clone());
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert!(!c.cached, "{}", c.summary.name);
        assert!(w.cached, "{}", w.summary.name);
        assert_eq!(
            *c.summary, *w.summary,
            "{} diverged on re-check",
            c.summary.name
        );
    }
    let snap = svc.status();
    assert_eq!(snap.cache_misses, units.len() as u64);
    assert_eq!(snap.cache_hits, units.len() as u64);
}

#[test]
fn wire_responses_are_byte_identical_across_job_counts() {
    // Protocol-level determinism: the encoded JSON line for a check of
    // the whole corpus is identical at jobs=1 and jobs=4 (modulo the
    // timing fields, which we strip).
    let units = corpus_units();
    let mut lines = Vec::new();
    for jobs in [1usize, 4] {
        let svc = CheckService::new(ServiceConfig {
            jobs,
            cache_capacity: units.len() * 2,
            ..Default::default()
        });
        let (reports, _) = svc.check_units(units.clone());
        let encoded = vault_server::proto::encode_check(Some(1), &reports, 0);
        lines.push(strip_timings(encoded).to_line());
    }
    assert_eq!(lines[0], lines[1]);
}

/// Replace wall-time fields (nondeterministic by nature) with zero.
fn strip_timings(v: Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if k == "wall_micros" || k == "check_micros" {
                        (k, Json::num(0))
                    } else {
                        (k, strip_timings(v))
                    }
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_timings).collect()),
        other => other,
    }
}
