//! Tests of the benchmark itself: stream determinism, the percentile
//! rule, scoring each request by its median replay, the two span sum
//! rules, and a short smoke of every workload against an in-process
//! `MuxServer`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vault_core::Limits;
use vault_e2e_bench::daemon::{copy_store, request_shutdown, DaemonConfig};
use vault_e2e_bench::drive::{Outcome, Run};
use vault_e2e_bench::e2e::{self, assess, measure, prime_store, Measurement};
use vault_e2e_bench::stats::percentile;
use vault_e2e_bench::stream::{self, Load, Workload};
use vault_e2e_bench::trace::{check_tree, rebuild_unit, self_time, serve, Recorder, Span};
use vault_server::{CheckService, Json, MuxConfig, MuxServer, ServiceConfig};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vault-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every request line of every stream, plus the open-loop schedule.
fn fingerprint(w: &Workload) -> Vec<String> {
    let mut out: Vec<String> = w
        .streams
        .iter()
        .flat_map(|s| s.iter().take(12).enumerate().map(|(i, r)| r.line(i as u64)))
        .collect();
    out.extend(w.schedule.iter().map(|s| format!("{s:?}")));
    out
}

#[test]
fn same_seed_same_streams_and_another_seed_differs() {
    for name in stream::NAMES {
        let a = stream::build(name, 7, 0.2).unwrap();
        let b = stream::build(name, 7, 0.2).unwrap();
        let c = stream::build(name, 8, 0.2).unwrap();
        assert!(!a.is_empty(), "{name}");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: same seed must give the same stream"
        );
        assert_ne!(
            fingerprint(&a),
            fingerprint(&c),
            "{name}: another seed must give another stream"
        );
    }
    assert!(stream::build("no_such_workload", 7, 0.2).is_none());
}

#[test]
fn percentile_is_reported_only_with_ten_samples_beyond_it() {
    let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(percentile(&v(100), 0.9), Some(89.0));
    assert_eq!(percentile(&v(99), 0.9), None);
    assert_eq!(percentile(&v(1000), 0.99), Some(989.0));
    assert_eq!(percentile(&v(999), 0.99), None);
    assert_eq!(percentile(&v(20), 0.5), Some(9.0));
    assert_eq!(percentile(&v(19), 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
}

/// A replay of `w`'s one closed-loop stream in which request `i` took
/// `ms(i)` milliseconds of latency and of server CPU, and request
/// `failed` (if any) was answered `"ok":false`.
fn replay(w: &Workload, ms: impl Fn(usize) -> f64, failed: Option<usize>) -> Measurement {
    let mut at = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let outcomes = (0..w.streams[0].len())
        .map(|index| {
            let took = Duration::from_secs_f64(ms(index) / 1e3);
            let sent = at;
            at += took;
            cpu += took;
            Outcome {
                conn: 0,
                index,
                sent,
                latency: took,
                server_cpu: cpu,
                ok: failed != Some(index),
                reply: None,
            }
        })
        .collect::<Vec<_>>();
    Measurement {
        run: Run {
            attempted: outcomes.len(),
            outcomes,
            elapsed: at,
            gen_lag: Vec::new(),
        },
        span: (0.0, 0.0),
        peak_rss_mb: 1.0,
        counters: Vec::new(),
        host_steal_frac: None,
    }
}

#[test]
fn each_request_scores_its_median_replay() {
    let mut w = stream::build("edit_stream", 1, 1.0).unwrap();
    w.truncate(41);
    let base = |i: usize| 1.0 + i as f64;
    // One replay is three times slower throughout, another fails one
    // request: neither moves a request's median over three replays.
    let replays = [
        replay(&w, base, None),
        replay(&w, |i| 3.0 * base(i), None),
        replay(&w, base, Some(7)),
    ];
    let a = assess(&w, &replays, 0.001).unwrap();
    let metric = |name: &str| a.metrics.iter().find(|m| m.name == name).unwrap().value;
    // Requests 1..=40 are measured; the first checks everything cold.
    let medians: Vec<f64> = (1..=40).map(base).collect();
    let mean = medians.iter().sum::<f64>() / 40.0;
    assert_eq!(metric("latency_p50_ms"), percentile(&medians, 0.5).unwrap());
    assert!((metric("throughput_rps") - 1e3 / mean).abs() < 1e-6);
    assert!((metric("server_cpu_ms_per_req") - mean).abs() < 1e-6);
    // A request that failed in any replay misses the objective.
    assert_eq!(metric("slo_ok_frac"), 39.0 / 40.0);
    assert_eq!((a.attempted, a.failed), (3 * 41, 1));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_is_what_the_children_leave_uncovered() {
    let parent = span("request", 0, 100, None);
    let kids = [
        span("a", 10, 20, Some(0)),
        span("b", 20, 50, Some(0)),
        span("c", 60, 90, Some(0)),
    ];
    assert_eq!(self_time(&parent, &kids.iter().collect::<Vec<_>>()), Ok(30));
    let overlapping = [span("a", 10, 30, Some(0)), span("b", 20, 40, Some(0))];
    assert!(self_time(&parent, &overlapping.iter().collect::<Vec<_>>()).is_err());
    let outside = [span("a", 90, 110, Some(0))];
    assert!(self_time(&parent, &outside.iter().collect::<Vec<_>>()).is_err());

    let mut spans = vec![parent];
    spans.extend(kids);
    assert_eq!(
        check_tree(&spans, "request", &["a", "b", "c"]),
        Ok(vec![30])
    );
    assert!(check_tree(&spans, "request", &["a", "b"]).is_err());
}

#[test]
fn traced_request_and_rebuilt_units_obey_the_sum_rules() {
    let svc = CheckService::new(ServiceConfig {
        jobs: 2,
        ..Default::default()
    });
    let w = stream::build("cold_batch", 5, 0.01).unwrap();
    let req = &w.streams[0][0];
    let mut rec = Recorder::new(Instant::now());
    let (reply, _) = serve(&svc, &req.line(0), Some(&mut rec), 0);
    assert!(reply.starts_with(&req.ok_prefix(0)), "{reply}");
    let other = check_tree(
        &rec.spans,
        "request",
        &["wire.decode", "service.check", "wire.encode"],
    )
    .unwrap();
    let root = &rec.spans[0];
    let children: u64 = rec.spans[1..].iter().map(Span::dur).sum();
    assert_eq!(root.dur(), children + other[0]);

    // A plain unit rebuilt from public calls equals the library's summary.
    let limits = Limits::default();
    let mut rec = Recorder::new(Instant::now());
    for u in req.units_in() {
        let (summary, _) = rebuild_unit(&mut rec, 0, &u.name, "", &u.source, &limits);
        assert_eq!(
            summary,
            vault_core::check_summary(&u.name, &u.source),
            "{}",
            u.name
        );
    }
    // So does a project unit checked against its dependency prelude.
    let floppy = vault_corpus::floppy::project_units();
    let units: Vec<_> = floppy
        .iter()
        .map(|(n, s)| vault_project::ProjectUnit::new(*n, s.as_str()))
        .collect();
    let plan = vault_project::ProjectPlan::build(&units, limits.parser_depth);
    for (u, up) in units.iter().zip(&plan.units) {
        let (summary, _) = rebuild_unit(&mut rec, 1, &u.name, &up.prelude, &u.source, &limits);
        let library =
            vault_core::check_summary_with_prelude(&u.name, &up.prelude, &u.source, &limits);
        assert_eq!(summary, library, "{}", u.name);
    }
    let others = check_tree(
        &rec.spans,
        "unit",
        &["syntax.front", "core.elaborate", "core.check"],
    )
    .unwrap();
    assert_eq!(others.len(), req.units.len() + units.len());
}

fn end_to_end_names() -> Vec<String> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let spec = vault_server::parse_json(&text).unwrap();
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_smokes_correctly_against_an_in_process_server() {
    let names = end_to_end_names();
    for name in stream::NAMES {
        let mut w = stream::build(name, 3, 10.0).unwrap();
        // Enough replies for a p90 with ten samples beyond it.
        w.truncate(if name == "project_rebuild" {
            80
        } else {
            200 / w.streams.len()
        });
        w.prime.truncate(64);
        let dir = scratch(name);
        let mut base = DaemonConfig {
            cache_capacity: w.cache_capacity,
            cache_dir: dir.join("primed"),
            cache_max_bytes: None,
        };
        if !w.prime.is_empty() {
            base.cache_max_bytes = Some(prime_store(&base, &w.prime) / 2);
        }
        // Two replays, each against a fresh server on a fresh copy of
        // the store, as a timed run makes them.
        let replays: Vec<_> = (0..2)
            .map(|r| {
                let config = DaemonConfig {
                    cache_dir: dir.join(format!("store{r}")),
                    ..base.clone()
                };
                copy_store(&base.cache_dir, &config.cache_dir).unwrap();
                let socket = dir.join(format!("s{r}.sock"));
                let mut mux = MuxServer::new(
                    Arc::new(CheckService::new(config.service_config())),
                    MuxConfig::default(),
                );
                mux.bind_unix(&socket).unwrap();
                let server = std::thread::spawn(move || mux.run());
                let m = measure(&socket, std::process::id(), &w, 3, Duration::MAX).unwrap();
                request_shutdown(&socket).unwrap();
                server.join().unwrap().unwrap();
                m
            })
            .collect();
        let a = assess(&w, &replays, 0.001).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(a.attempted, 2 * w.len(), "{name}");
        assert_eq!(a.failed, 0, "{name}: {:?}", a.mismatches);
        assert!(a.mismatches.is_empty(), "{name}");
        assert_eq!(
            a.metrics
                .iter()
                .map(|m| m.name.to_string())
                .collect::<Vec<_>>(),
            names,
            "{name}"
        );
        if let Load::Open { .. } = w.load {
            assert!(replays.iter().all(|m| m.run.gen_lag.len() == w.len()));
        }
        let line =
            vault_server::parse_json(&e2e::result_line(true, a.attempted, a.failed, &a.metrics))
                .unwrap();
        let keys: Vec<&str> = match &line {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
