//! Incremental build bench for project mode (ISSUE 5 + ISSUE 10).
//!
//! Two project families. The **floppy** family builds a wide DAG — the
//! split floppy interfaces plus `N` driver units importing them — and
//! measures three rebuild scenarios:
//!
//! * **cold**: first check, every unit scheduled;
//! * **body edit**: a root-unit edit that leaves its export surface
//!   unchanged — only the edited unit re-checks, every dependent is
//!   answered from the project cache (the interface cutoff);
//! * **interface edit**: a root-unit edit that changes its export
//!   surface — every transitive dependent re-checks.
//!
//! The **sockets** family (default 300 units: the socket interface, the
//! handler library, and `N` accept-loop server units importing both)
//! adds the capability-effect dimension:
//!
//! * **sockets cold**: first check of the whole family;
//! * **handler body edit**: a comment in the handlers unit — exactly one
//!   unit re-checks, every server is a cutoff hit;
//! * **capability edit**: a `uses` clause added to a handler signature —
//!   the export surface changes, so the handlers unit *and* every server
//!   re-check, while the interface unit upstream is untouched (the
//!   invalidation cone is exactly the dependents).
//!
//! Writes `BENCH_project.json` (pass a path argument to override) so
//! future PRs have a trajectory to beat. The body-edit scenarios are the
//! headline: their wall time should stay flat as the project grows,
//! while the edit-cone scenarios scale with the cone, not the project.
//!
//! ```text
//! cargo run --release -p vault-bench --bin project_bench \
//!     [--drivers N] [--servers N] [out.json]
//! ```

use std::time::Instant;
use vault_server::{CheckService, Json, ServiceConfig, UnitIn};

/// The benched project: kernel + floppy_hw interfaces and `drivers`
/// copies of the floppy driver, each importing both.
fn project(drivers: usize) -> Vec<UnitIn> {
    let base = vault_corpus::floppy::project_units();
    let mut units: Vec<UnitIn> = base[..2]
        .iter()
        .map(|(name, source)| UnitIn {
            name: name.to_string(),
            source: source.clone(),
        })
        .collect();
    let (_, driver_source) = &base[2];
    for i in 0..drivers {
        units.push(UnitIn {
            name: format!("driver_{i}"),
            source: driver_source.clone(),
        });
    }
    units
}

/// The socket-server project: the `net` interface and `handlers` units
/// from the sockets corpus plus `servers` copies of the accept-loop
/// server unit, each importing both (a 2-level star: `net` ← `handlers`
/// ← every server).
fn socket_project(servers: usize) -> Vec<UnitIn> {
    let base = vault_corpus::sockets::project_units();
    let mut units: Vec<UnitIn> = base[..2]
        .iter()
        .map(|(name, source)| UnitIn {
            name: name.to_string(),
            source: source.clone(),
        })
        .collect();
    let (_, server_source) = &base[2];
    for i in 0..servers {
        units.push(UnitIn {
            name: format!("server_{i}"),
            source: server_source.clone(),
        });
    }
    units
}

struct Scenario {
    wall_secs: f64,
    units_scheduled: u64,
    units_reused: u64,
    cutoff_hits: u64,
}

/// Run one rebuild scenario best-of-`runs`: cold-check `base` on a
/// fresh service, then time a re-check of `edited` and report the
/// metrics delta of the timed request.
fn rebuild(base: &[UnitIn], edited: &[UnitIn], jobs: usize, runs: usize) -> Scenario {
    let mut best: Option<Scenario> = None;
    for _ in 0..runs {
        let svc = CheckService::new(ServiceConfig {
            jobs,
            cache_capacity: base.len() * 4,
            ..Default::default()
        });
        let (cold, _) = svc.check_project(base.to_vec());
        let before = svc.status();
        let start = Instant::now();
        let (warm, _) = svc.check_project(edited.to_vec());
        let wall_secs = start.elapsed().as_secs_f64();
        let after = svc.status();
        assert_eq!(warm.len(), edited.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(
                w.summary.verdict, c.summary.verdict,
                "verdicts must survive the rebuild"
            );
        }
        let s = Scenario {
            wall_secs,
            units_scheduled: after.units_scheduled - before.units_scheduled,
            units_reused: after.units_reused - before.units_reused,
            cutoff_hits: after.cutoff_hits - before.cutoff_hits,
        };
        best = Some(match best {
            Some(b) if b.wall_secs <= s.wall_secs => b,
            _ => s,
        });
    }
    best.unwrap()
}

fn scenario_json(name: &str, s: &Scenario) -> (String, Json) {
    (
        name.to_string(),
        Json::Obj(vec![
            ("wall_secs".to_string(), Json::Num(s.wall_secs)),
            ("units_scheduled".to_string(), Json::num(s.units_scheduled)),
            ("units_reused".to_string(), Json::num(s.units_reused)),
            ("cutoff_hits".to_string(), Json::num(s.cutoff_hits)),
        ]),
    )
}

/// Time the first check itself, best-of-`runs`, on a fresh service.
fn cold_check(base: &[UnitIn], jobs: usize, runs: usize) -> Scenario {
    let mut best: Option<Scenario> = None;
    for _ in 0..runs {
        let svc = CheckService::new(ServiceConfig {
            jobs,
            cache_capacity: base.len() * 4,
            ..Default::default()
        });
        let start = Instant::now();
        let (reports, _) = svc.check_project(base.to_vec());
        let wall_secs = start.elapsed().as_secs_f64();
        assert_eq!(reports.len(), base.len());
        let snap = svc.status();
        let s = Scenario {
            wall_secs,
            units_scheduled: snap.units_scheduled,
            units_reused: snap.units_reused,
            cutoff_hits: snap.cutoff_hits,
        };
        best = Some(match best {
            Some(b) if b.wall_secs <= s.wall_secs => b,
            _ => s,
        });
    }
    best.unwrap()
}

fn main() {
    let mut out_path = "BENCH_project.json".to_string();
    let mut drivers = 24usize;
    let mut servers = 298usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--drivers" => {
                drivers = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--drivers N (N >= 1)");
            }
            "--servers" => {
                servers = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--servers N (N >= 1)");
            }
            path => out_path = path.to_string(),
        }
    }
    let base = project(drivers);
    let n = base.len();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs = cpus.clamp(1, 4);
    println!("floppy project: {n} units ({drivers} drivers); jobs={jobs}");

    // Kernel edit that cannot change the export surface: a comment.
    let mut body_edited = base.clone();
    body_edited[0].source.push_str("\n// perf probe\n");
    // Kernel edit that must change it: a new exported declaration.
    let mut iface_edited = base.clone();
    iface_edited[0]
        .source
        .push_str("\nvoid bench_probe_export();\n");

    let runs = 3;
    let cold = cold_check(&base, jobs, runs);
    let body = rebuild(&base, &body_edited, jobs, runs);
    let iface = rebuild(&base, &iface_edited, jobs, runs);

    println!(
        "cold:           {:.4} s  ({} scheduled)",
        cold.wall_secs, cold.units_scheduled
    );
    println!(
        "body edit:      {:.4} s  ({} scheduled, {} reused, {} cutoff hits)",
        body.wall_secs, body.units_scheduled, body.units_reused, body.cutoff_hits
    );
    println!(
        "interface edit: {:.4} s  ({} scheduled, {} reused)",
        iface.wall_secs, iface.units_scheduled, iface.units_reused
    );
    println!(
        "cutoff speedup vs cold: {:.1}x; vs interface edit: {:.1}x",
        cold.wall_secs / body.wall_secs,
        iface.wall_secs / body.wall_secs
    );

    // The whole point of the subsystem: a body edit re-checks exactly
    // one unit and every dependent is a cutoff hit.
    assert_eq!(cold.units_scheduled, n as u64);
    assert_eq!(body.units_scheduled, 1);
    assert_eq!(body.cutoff_hits, (n - 1) as u64);
    assert_eq!(iface.units_scheduled, n as u64);
    assert_eq!(iface.cutoff_hits, 0);

    // ----- The socket family: net ← handlers ← servers -------------------
    let sbase = socket_project(servers);
    let sn = sbase.len();
    println!("\nsocket project: {sn} units ({servers} servers); jobs={jobs}");

    // Handlers edit that cannot change the export surface: a comment.
    let mut s_body_edited = sbase.clone();
    s_body_edited[1].source.push_str("\n// perf probe\n");
    // Handlers edit that must change it: a `uses` clause on a handler no
    // server calls (capability edits are interface edits — the checker
    // reads callee capability sets across unit boundaries).
    let mut s_cap_edited = sbase.clone();
    s_cap_edited[1].source = s_cap_edited[1].source.replacen(
        "[-C@ready, uses net] {",
        "[-C@ready, uses net, uses time] {",
        1,
    );
    assert_ne!(
        s_cap_edited[1].source, sbase[1].source,
        "cap marker drifted"
    );

    let s_cold = cold_check(&sbase, jobs, runs);
    let s_body = rebuild(&sbase, &s_body_edited, jobs, runs);
    let s_cap = rebuild(&sbase, &s_cap_edited, jobs, runs);

    println!(
        "sockets cold:      {:.4} s  ({} scheduled)",
        s_cold.wall_secs, s_cold.units_scheduled
    );
    println!(
        "handler body edit: {:.4} s  ({} scheduled, {} reused, {} cutoff hits)",
        s_body.wall_secs, s_body.units_scheduled, s_body.units_reused, s_body.cutoff_hits
    );
    println!(
        "capability edit:   {:.4} s  ({} scheduled, {} reused)",
        s_cap.wall_secs, s_cap.units_scheduled, s_cap.units_reused
    );
    println!(
        "handler-edit cutoff speedup vs cold: {:.1}x; vs capability edit: {:.1}x",
        s_cold.wall_secs / s_body.wall_secs,
        s_cap.wall_secs / s_body.wall_secs
    );

    // Cone precision: the body edit re-checks exactly the handlers unit
    // (every server a cutoff hit, the interface a plain reuse); the
    // capability edit re-checks exactly the dependent cone — handlers
    // plus every server — while the interface unit is never re-scheduled.
    assert_eq!(s_cold.units_scheduled, sn as u64);
    assert_eq!(s_body.units_scheduled, 1);
    assert_eq!(s_body.cutoff_hits, servers as u64);
    assert_eq!(s_body.units_reused, (sn - 1) as u64);
    assert_eq!(s_cap.units_scheduled, (servers + 1) as u64);
    assert_eq!(s_cap.units_reused, 1, "the net interface must be spared");

    let json = Json::Obj(vec![
        (
            "bench".to_string(),
            Json::str("project-mode incremental rebuilds (ISSUE 5 + ISSUE 10)"),
        ),
        ("host".to_string(), vault_bench::host_meta()),
        (
            "command".to_string(),
            Json::str("cargo run --release -p vault-bench --bin project_bench"),
        ),
        ("available_parallelism".to_string(), Json::num(cpus as u64)),
        ("jobs".to_string(), Json::num(jobs as u64)),
        ("project_units".to_string(), Json::num(n as u64)),
        ("driver_units".to_string(), Json::num(drivers as u64)),
        ("runs_per_point".to_string(), Json::num(runs as u64)),
        scenario_json("cold", &cold),
        scenario_json("body_edit", &body),
        scenario_json("interface_edit", &iface),
        (
            "body_edit_speedup_vs_cold".to_string(),
            Json::Num((cold.wall_secs / body.wall_secs * 10.0).round() / 10.0),
        ),
        (
            "body_edit_speedup_vs_interface_edit".to_string(),
            Json::Num((iface.wall_secs / body.wall_secs * 10.0).round() / 10.0),
        ),
        ("socket_units".to_string(), Json::num(sn as u64)),
        ("socket_server_units".to_string(), Json::num(servers as u64)),
        scenario_json("sockets_cold", &s_cold),
        scenario_json("sockets_handler_body_edit", &s_body),
        scenario_json("sockets_capability_edit", &s_cap),
        (
            "handler_edit_speedup_vs_cold".to_string(),
            Json::Num((s_cold.wall_secs / s_body.wall_secs * 10.0).round() / 10.0),
        ),
        (
            "handler_edit_speedup_vs_capability_edit".to_string(),
            Json::Num((s_cap.wall_secs / s_body.wall_secs * 10.0).round() / 10.0),
        ),
    ]);
    let mut text = String::from("{\n");
    if let Json::Obj(pairs) = &json {
        for (i, (k, v)) in pairs.iter().enumerate() {
            text.push_str(&format!(
                "  {}: {}{}\n",
                Json::str(k).to_line(),
                v.to_line(),
                if i + 1 < pairs.len() { "," } else { "" }
            ));
        }
    }
    text.push_str("}\n");
    std::fs::write(&out_path, &text).expect("write bench json");
    println!("wrote {out_path}");
}
