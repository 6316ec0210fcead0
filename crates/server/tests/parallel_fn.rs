//! Counter aggregation under unit-level parallel checking.
//!
//! A service fans a batch's units across its pool threads, and each
//! unit's functions are checked in order on the thread that runs the
//! unit. Spreading units over threads must not change any semantic
//! counter: `CheckStats` (`snapshots`, `frames_copied`, `joins`,
//! `loop_iterations`) is summed from per-function deltas at assembly,
//! and the fn-cache hit/miss metrics are counted in function order, so
//! a service at `--jobs 4` must report exactly what `--jobs 1` does on
//! identical traffic.

use vault_server::{CheckService, ServiceConfig, UnitIn};

fn floppy_units() -> Vec<UnitIn> {
    vault_corpus::floppy::programs()
        .into_iter()
        .map(|p| UnitIn {
            name: p.id.to_string(),
            source: p.source,
        })
        .collect()
}

fn floppy_project() -> Vec<UnitIn> {
    vault_corpus::floppy::project_units()
        .into_iter()
        .map(|(name, source)| UnitIn {
            name: name.to_string(),
            source,
        })
        .collect()
}

/// Per-unit semantic counters plus the service-wide fn-cache metrics.
#[derive(Debug, PartialEq)]
struct CounterSheet {
    per_unit: Vec<(String, usize, usize, usize, usize)>,
    fn_cache_hits: u64,
    fn_cache_misses: u64,
}

fn run(jobs: usize, units: Vec<UnitIn>, project: bool) -> CounterSheet {
    let svc = CheckService::new(ServiceConfig {
        jobs,
        cache_capacity: units.len() * 2 + 8,
        ..Default::default()
    });
    let (reports, _) = if project {
        svc.check_project(units)
    } else {
        svc.check_units(units)
    };
    let snap = svc.status();
    CounterSheet {
        per_unit: reports
            .iter()
            .map(|r| {
                let s = &r.summary.stats;
                (
                    r.summary.name.clone(),
                    s.snapshots,
                    s.frames_copied,
                    s.joins,
                    s.loop_iterations,
                )
            })
            .collect(),
        fn_cache_hits: snap.fn_cache_hits,
        fn_cache_misses: snap.fn_cache_misses,
    }
}

#[test]
fn stats_counters_aggregate_identically_across_job_counts() {
    let units = floppy_units();
    assert!(units.len() >= 2, "floppy corpus unexpectedly small");
    let one = run(1, units.clone(), false);
    let four = run(4, units, false);
    assert!(four.fn_cache_misses > 0, "jobs 4 never checked a body");
    assert_eq!(one, four);
}

#[test]
fn project_stats_counters_aggregate_identically_across_job_counts() {
    let units = floppy_project();
    let one = run(1, units.clone(), true);
    let four = run(4, units, true);
    assert!(four.fn_cache_misses > 0, "jobs 4 never checked a body");
    assert_eq!(one, four);
}

#[test]
fn warm_fn_cache_hits_aggregate_identically_across_job_counts() {
    // A same-length body edit leaves every other function a fn-cache
    // hit; units checked on four threads must count those hits exactly
    // as on one.
    let units = floppy_units();
    let edited: Vec<UnitIn> = units
        .iter()
        .map(|u| UnitIn {
            name: u.name.clone(),
            source: u.source.replacen("status", "statsu", 1),
        })
        .collect();
    let mut sheets = Vec::new();
    for jobs in [1usize, 4] {
        let svc = CheckService::new(ServiceConfig {
            jobs,
            cache_capacity: units.len() * 2 + 8,
            ..Default::default()
        });
        svc.check_units(units.clone());
        let (reports, _) = svc.check_units(edited.clone());
        let snap = svc.status();
        sheets.push((
            reports
                .iter()
                .map(|r| ((*r.summary).clone(), r.cached))
                .collect::<Vec<_>>(),
            snap.fn_cache_hits,
            snap.fn_cache_misses,
        ));
    }
    assert_eq!(sheets[0], sheets[1]);
}
