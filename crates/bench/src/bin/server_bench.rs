//! Throughput bench for the `vaultd` checking service (ISSUE 1).
//!
//! Replays the whole built-in corpus plus `vault-corpus` synthetic
//! programs against the service's worker pool at several job counts,
//! and measures cache-hit vs cache-miss latency. Writes the results to
//! `BENCH_server.json` (pass a path argument to override) so future PRs
//! have a perf trajectory to beat.
//!
//! ```text
//! cargo run --release -p vault-bench --bin server_bench [--scale N] [out.json]
//! ```
//!
//! `--scale N` multiplies the synthetic portion of the workload (N
//! times as many generated units) to stress larger batches without
//! changing the corpus portion.
//!
//! The calling thread checks while it waits for the pool, so `jobs` N
//! checks on up to N + 1 threads; each throughput point records that
//! count, and its speedup is against the same workload checked on one
//! thread (the incremental engine, no pool). Parallel speedup is
//! bounded by the host: the JSON records `available_parallelism` so a
//! single-core CI box reporting ~1x is interpretable. Cache-hit speedup
//! is hardware-independent.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use vault_core::Limits;
use vault_corpus::synth::{generate, Shape, SynthConfig};
use vault_server::{
    serve_connection, CheckService, IncrementalEngine, Json, Metrics, MuxConfig, MuxServer,
    ServiceConfig, UnitIn,
};

/// The replayed workload: every corpus program plus `20 * scale`
/// synthetic programs of each shape (the E13 generator), large enough
/// that pool dispatch overhead is noise.
fn workload(scale: usize) -> Vec<UnitIn> {
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
    for (i, shape) in shapes.iter().cycle().take(20 * scale.max(1)).enumerate() {
        let program = generate(&SynthConfig {
            functions: 24,
            stmts_per_fn: 16,
            seed: 0xBE9C + i as u64,
            bug_rate: if i % 3 == 0 { 0.2 } else { 0.0 },
            shape: *shape,
        });
        units.push(UnitIn {
            name: format!("synth_{i}_{shape:?}.vlt"),
            source: program.source,
        });
    }
    units
}

/// Units for the multi-client scenarios: big enough that a check takes
/// milliseconds, so concurrent duplicate requests genuinely overlap in
/// flight instead of racing a microsecond cache window.
fn multi_client_units(rounds: usize, functions: usize) -> Vec<UnitIn> {
    (0..rounds)
        .map(|i| {
            let program = generate(&SynthConfig {
                functions,
                stmts_per_fn: 32,
                seed: 0x9C_17E5 + i as u64,
                bug_rate: if i % 3 == 0 { 0.1 } else { 0.0 },
                shape: Shape::Mixed,
            });
            UnitIn {
                name: format!("mc_{i}.vlt"),
                source: program.source,
            }
        })
        .collect()
}

fn check_line(id: usize, unit: &UnitIn) -> String {
    Json::Obj(vec![
        ("op".to_string(), Json::str("check")),
        ("id".to_string(), Json::num(id as u64)),
        (
            "units".to_string(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".to_string(), Json::str(&unit.name)),
                ("source".to_string(), Json::str(&unit.source)),
            ])]),
        ),
    ])
    .to_line()
}

/// Zero the per-run-variable fields so transcripts compare across
/// servers: wall times, and `cached` (which reports where an answer came
/// from — concurrency may change that; it may not change the answer).
fn strip_speed_fields(v: Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if k == "wall_micros" || k == "check_micros" {
                        (k, Json::num(0))
                    } else if k == "cached" {
                        (k, Json::Bool(false))
                    } else {
                        (k, strip_speed_fields(v))
                    }
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_speed_fields).collect()),
        other => other,
    }
}

struct MultiClientRun {
    wall_secs: f64,
    /// Pipeline runs the service actually performed (cache misses).
    pipeline_runs: u64,
    /// Requests answered by joining an in-flight identical check.
    singleflight_joins: u64,
    /// Stripped response transcript per client.
    transcripts: Vec<Vec<String>>,
}

/// Drive `clients` concurrent connections to a fresh multiplexed
/// server, one request per round with a barrier before each round so
/// duplicate fingerprints really are in flight together. `lines[c]` is
/// client `c`'s request sequence.
fn multi_client_run(lines: &[Vec<String>]) -> MultiClientRun {
    let clients = lines.len();
    let rounds = lines[0].len();
    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 4,
        cache_capacity: (clients * rounds).max(64),
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!("vault_bench_mux_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    mux.bind_unix(&path).expect("bind");
    let server_thread = std::thread::spawn(move || mux.run().expect("serve"));

    let barrier = Arc::new(Barrier::new(clients));
    let start = Instant::now();
    let handles: Vec<_> = lines
        .iter()
        .map(|client_lines| {
            let (lines, barrier, path) = (client_lines.clone(), Arc::clone(&barrier), path.clone());
            std::thread::spawn(move || {
                let stream = UnixStream::connect(&path).expect("connect");
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut transcript = Vec::with_capacity(lines.len());
                for line in &lines {
                    barrier.wait();
                    writer.write_all(line.as_bytes()).unwrap();
                    writer.write_all(b"\n").unwrap();
                    let mut response = String::new();
                    assert!(
                        reader.read_line(&mut response).unwrap() > 0,
                        "server hung up"
                    );
                    transcript.push(response);
                }
                transcript
            })
        })
        .collect();
    let raw: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall_secs = start.elapsed().as_secs_f64();
    // Normalize outside the timed window: the measurement is the
    // server's aggregate throughput, not the client's JSON cosmetics.
    let transcripts: Vec<Vec<String>> = raw
        .into_iter()
        .map(|lines| {
            lines
                .into_iter()
                .map(|l| {
                    strip_speed_fields(vault_server::parse_json(l.trim_end()).unwrap()).to_line()
                })
                .collect()
        })
        .collect();

    let snap = svc.status();
    let mut shutdown = UnixStream::connect(&path).expect("connect for shutdown");
    shutdown.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    let _ = BufReader::new(shutdown).read_line(&mut ack);
    server_thread.join().expect("server thread");

    MultiClientRun {
        wall_secs,
        pipeline_runs: snap.cache_misses,
        singleflight_joins: snap.singleflight_joins,
        transcripts,
    }
}

/// Best-of-`runs` cold wall time for checking `units` at `jobs` workers.
fn cold_batch_secs(units: &[UnitIn], jobs: usize, runs: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let svc = CheckService::new(ServiceConfig {
            jobs,
            cache_capacity: units.len() * 2,
            ..Default::default()
        });
        let start = Instant::now();
        let (reports, _) = svc.check_units(units.to_vec());
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(reports.len(), units.len());
        best = best.min(secs);
    }
    best
}

/// Best-of-`runs` cold wall time for checking `units` one after another
/// on the calling thread through a fresh engine: the work one checking
/// thread does, without the service around it.
fn one_thread_secs(units: &[UnitIn], runs: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let engine = IncrementalEngine::new(units.len() * 2, units.len() * 32);
        let (limits, metrics) = (Limits::default(), Metrics::default());
        let start = Instant::now();
        for u in units {
            engine.check_unit(&u.name, &u.source, &limits, &metrics);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut out_path = "BENCH_server.json".to_string();
    let mut scale = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--scale N (N >= 1)");
            }
            path => out_path = path.to_string(),
        }
    }
    let units = workload(scale);
    let total_loc: usize = units
        .iter()
        .map(|u| vault_corpus::count_loc(&u.source))
        .sum();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "workload: {} units, {total_loc} LOC; host parallelism: {cpus}",
        units.len()
    );

    // --- throughput at several job counts (cold cache each run) -------
    // The calling thread checks too while it waits for the pool, so
    // `jobs` N keeps up to N + 1 threads checking; the reference is one
    // thread checking alone.
    let runs = 3;
    let t1 = one_thread_secs(&units, runs);
    println!(
        "one thread: {t1:.4} s  ({:.0} units/s)",
        units.len() as f64 / t1
    );
    let mut job_results: Vec<(usize, f64, f64)> = Vec::new(); // (jobs, secs, units/sec)
    for jobs in [1usize, 2, 4] {
        let secs = cold_batch_secs(&units, jobs, runs);
        let ups = units.len() as f64 / secs;
        println!(
            "jobs={jobs} ({} checking threads): {secs:.4} s  ({ups:.0} units/s, {:.2}x one thread)",
            jobs + 1,
            t1 / secs
        );
        job_results.push((jobs, secs, ups));
    }

    // --- cache hit vs miss latency ------------------------------------
    // Median per-unit latency: cold (checker runs) vs warm (pure cache).
    let svc = CheckService::new(ServiceConfig {
        jobs: 1,
        cache_capacity: units.len() * 2,
        ..Default::default()
    });
    let mut cold_us: Vec<f64> = Vec::new();
    let mut warm_us: Vec<f64> = Vec::new();
    for unit in &units {
        let t = Instant::now();
        let r = svc.check_unit(unit.clone());
        cold_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(!r.cached);
    }
    for unit in &units {
        let t = Instant::now();
        let r = svc.check_unit(unit.clone());
        warm_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(r.cached, "{} should hit", unit.name);
    }
    cold_us.sort_by(|a, b| a.total_cmp(b));
    warm_us.sort_by(|a, b| a.total_cmp(b));
    let cold_median = cold_us[cold_us.len() / 2];
    let warm_median = warm_us[warm_us.len() / 2];
    println!(
        "cache: cold median {cold_median:.1} us, hit median {warm_median:.1} us ({:.0}x faster)",
        cold_median / warm_median
    );
    let snap = svc.status();
    assert_eq!(snap.cache_hits, units.len() as u64);
    assert_eq!(snap.cache_misses, units.len() as u64);

    // --- multi-client multiplexed serving ------------------------------
    // 32 concurrent clients over a shared corpus, one request per
    // barrier-synchronized round. Two shapes:
    //   dup-heavy: every client requests the SAME unit each round, so
    //     every round is 32 identical fingerprints in flight at once —
    //     the singleflight case;
    //   distinct: every client requests its own renamed copy, so every
    //     fingerprint is unique — pure multiplexing, no dedup to win.
    const CLIENTS: usize = 32;
    const ROUNDS: usize = 12;
    const DISTINCT_ROUNDS: usize = 6;
    // Dup-heavy wants units whose front end dwarfs per-request wire
    // overhead (that front end is what singleflight saves per
    // duplicate); distinct re-checks every unit fresh per client, so it
    // uses smaller units and fewer rounds to stay affordable.
    let dup_units = multi_client_units(ROUNDS, 192);
    let distinct_units = multi_client_units(DISTINCT_ROUNDS, 96);
    let dup_lines: Vec<Vec<String>> = (0..CLIENTS)
        .map(|_| {
            dup_units
                .iter()
                .enumerate()
                .map(|(r, u)| check_line(r, u))
                .collect()
        })
        .collect();
    let distinct_lines: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            distinct_units
                .iter()
                .enumerate()
                .map(|(r, u)| {
                    let own = UnitIn {
                        name: format!("c{c}_{}", u.name),
                        source: u.source.clone(),
                    };
                    check_line(r, &own)
                })
                .collect()
        })
        .collect();

    // The reference transcript: one sequential client on a fresh
    // service. The multiplexed server must reproduce it byte-for-byte
    // for every one of the 32 concurrent clients.
    let sequential: Vec<String> = {
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 64,
            ..Default::default()
        });
        let input = dup_lines[0].join("\n") + "\n";
        let mut out = Vec::new();
        serve_connection(&svc, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| strip_speed_fields(vault_server::parse_json(l).unwrap()).to_line())
            .collect()
    };

    // Best-of-2: one core juggling 32 client threads makes single
    // measurements noisy. Every run must reproduce the sequential
    // transcript and collapse duplicates to one pipeline run each.
    let dup_runs = [multi_client_run(&dup_lines), multi_client_run(&dup_lines)];
    for run in &dup_runs {
        for (c, transcript) in run.transcripts.iter().enumerate() {
            assert_eq!(
                *transcript, sequential,
                "mux client {c} diverged from the sequential transcript"
            );
        }
        assert_eq!(
            run.pipeline_runs, ROUNDS as u64,
            "singleflight must collapse duplicate fingerprints to one run each"
        );
    }
    let dup_mux = dup_runs
        .into_iter()
        .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
        .unwrap();
    let requests = (CLIENTS * ROUNDS) as f64;
    println!(
        "multi-client dup-heavy: mux+singleflight {:.3} s ({:.0} req/s, {} pipeline runs, {} joins)",
        dup_mux.wall_secs,
        requests / dup_mux.wall_secs,
        dup_mux.pipeline_runs,
        dup_mux.singleflight_joins,
    );

    let distinct_mux = multi_client_run(&distinct_lines);
    assert_eq!(
        distinct_mux.pipeline_runs,
        (CLIENTS * DISTINCT_ROUNDS) as u64,
        "distinct fingerprints must each run the pipeline once"
    );
    let distinct_requests = (CLIENTS * DISTINCT_ROUNDS) as f64;
    println!(
        "multi-client distinct: mux {:.3} s ({:.0} req/s)",
        distinct_mux.wall_secs,
        distinct_requests / distinct_mux.wall_secs,
    );

    // --- write BENCH_server.json --------------------------------------
    let json = Json::Obj(vec![
        (
            "bench".to_string(),
            Json::str("vaultd throughput + multiplexed serving (ISSUE 1, ISSUE 9)"),
        ),
        ("host".to_string(), vault_bench::host_meta()),
        (
            "command".to_string(),
            Json::str("cargo run --release -p vault-bench --bin server_bench"),
        ),
        ("available_parallelism".to_string(), Json::num(cpus as u64)),
        ("scale".to_string(), Json::num(scale as u64)),
        ("workload_units".to_string(), Json::num(units.len() as u64)),
        ("workload_loc".to_string(), Json::num(total_loc as u64)),
        ("runs_per_point".to_string(), Json::num(runs as u64)),
        (
            "one_thread".to_string(),
            Json::Obj(vec![
                ("wall_secs".to_string(), Json::Num(t1)),
                (
                    "units_per_sec".to_string(),
                    Json::Num((units.len() as f64 / t1).round()),
                ),
            ]),
        ),
        (
            "throughput".to_string(),
            Json::Arr(
                job_results
                    .iter()
                    .map(|&(jobs, secs, ups)| {
                        Json::Obj(vec![
                            ("jobs".to_string(), Json::num(jobs as u64)),
                            ("checking_threads".to_string(), Json::num(jobs as u64 + 1)),
                            ("wall_secs".to_string(), Json::Num(secs)),
                            ("units_per_sec".to_string(), Json::Num(ups.round())),
                            (
                                "speedup_vs_1_thread".to_string(),
                                Json::Num((t1 / secs * 100.0).round() / 100.0),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cache".to_string(),
            Json::Obj(vec![
                (
                    "cold_median_micros".to_string(),
                    Json::Num(cold_median.round()),
                ),
                (
                    "hit_median_micros".to_string(),
                    Json::Num(warm_median.round()),
                ),
                (
                    "hit_speedup".to_string(),
                    Json::Num((cold_median / warm_median).round()),
                ),
            ]),
        ),
        (
            "multi_client".to_string(),
            Json::Obj(vec![
                ("clients".to_string(), Json::num(CLIENTS as u64)),
                (
                    "dup_heavy".to_string(),
                    Json::Obj(vec![
                        ("rounds".to_string(), Json::num(ROUNDS as u64)),
                        ("requests".to_string(), Json::num((CLIENTS * ROUNDS) as u64)),
                        (
                            "mux_singleflight_secs".to_string(),
                            Json::Num((dup_mux.wall_secs * 1e4).round() / 1e4),
                        ),
                        (
                            "mux_pipeline_runs".to_string(),
                            Json::num(dup_mux.pipeline_runs),
                        ),
                        (
                            "singleflight_joins".to_string(),
                            Json::num(dup_mux.singleflight_joins),
                        ),
                    ]),
                ),
                (
                    "distinct".to_string(),
                    Json::Obj(vec![
                        ("rounds".to_string(), Json::num(DISTINCT_ROUNDS as u64)),
                        (
                            "requests".to_string(),
                            Json::num((CLIENTS * DISTINCT_ROUNDS) as u64),
                        ),
                        (
                            "mux_secs".to_string(),
                            Json::Num((distinct_mux.wall_secs * 1e4).round() / 1e4),
                        ),
                    ]),
                ),
            ]),
        ),
    ]);
    // Pretty-ish: one top-level key per line keeps the file diffable.
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
