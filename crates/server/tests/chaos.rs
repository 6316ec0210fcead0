//! Torture test: the daemon must answer correctly under sustained fault
//! injection — panicking check jobs, delayed jobs, and short writes on
//! the response stream.
//!
//! Compiled only with `--features chaos`. The invariants proven here:
//!
//! 1. The daemon survives ≥1000 chaos-exposed requests on one socket
//!    without hanging, dropping a connection, or exiting.
//! 2. Every response is well-formed JSON with one line per request.
//! 3. A chaos-hit unit reports a structured `internal-error` verdict
//!    whose diagnostic carries the injected panic payload.
//! 4. Every unit chaos did **not** hit reports a verdict and rendered
//!    diagnostics byte-identical to a chaos-free sequential check.
//! 5. The fault counters in `status` account for what was injected.
//! 6. Verdict-store append faults, which fire on the journal writer
//!    thread, tick `cache_append_errors` and never change an answer.
//! 7. A panic that escapes a request handler answers `"ok":false`,
//!    ticks `panics_caught` and `requests_failed`, and frees its pool
//!    thread, so the connection's next request is answered.
//! 8. A pool thread held by a slow request does not hold up another
//!    connection whose previous request it ran: an idle one serves it.
//! 9. However many clients send cold units, at most `jobs` unit checks
//!    run at once in the daemon.
//! 10. A one-thread daemon answers batches, import cycles and
//!     concurrent duplicates without waiting on itself.

#![cfg(feature = "chaos")]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vault_server::chaos::{self, ChaosConfig};
use vault_server::{
    CheckService, Client, Json, MuxConfig, MuxServer, RetryPolicy, ServiceConfig, ServiceLimits,
    UnitIn,
};

const REQUESTS: usize = 1000;

/// Chaos faults are armed process-wide, so every test in this binary
/// serializes on this lock; an armed schedule must never bleed into a
/// neighbouring test's server.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    match EXCLUSIVE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A small mixed workload: verdicts and diagnostics differ per unit.
fn workload() -> Vec<(UnitIn, String, String)> {
    let sources: &[(&str, &str)] = &[
        (
            "ok.vlt",
            "type FILE;\ntracked(F) FILE fopen(string p) [new F];\nvoid fclose(tracked(F) FILE f) [-F];\nvoid f() { tracked(F) FILE x = fopen(\"a\"); fclose(x); }",
        ),
        (
            "leak.vlt",
            "type FILE;\ntracked(F) FILE fopen(string p) [new F];\nvoid f() { tracked(F) FILE x = fopen(\"a\"); }",
        ),
        ("tiny.vlt", "void f() { }"),
        ("parse_err.vlt", "void f( {"),
        (
            "states.vlt",
            "stateset S = [ a < b ];\nkey G @ S;\nvoid h() [G@a] { }",
        ),
    ];
    sources
        .iter()
        .map(|(name, source)| {
            let summary = vault_core::check_summary(name, source);
            let rendered: String = summary
                .diagnostics
                .iter()
                .map(|d| d.rendered.as_str())
                .collect();
            (
                UnitIn {
                    name: name.to_string(),
                    source: source.to_string(),
                },
                summary.verdict.as_str().to_string(),
                rendered,
            )
        })
        .collect()
}

#[test]
fn daemon_survives_a_thousand_chaos_requests_and_stays_correct() {
    let _guard = exclusive();
    // Arm everything at once: job panics, job delays, short writes.
    chaos::arm(ChaosConfig {
        seed: 0xDEAD_BEEF,
        panic_prob: 0.05,
        delay_prob: 0.05,
        delay: Duration::from_millis(1),
        short_write_chunk: Some(5),
        ..Default::default()
    });

    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 4,
        // Tiny cache so plenty of checks actually run under chaos
        // instead of everything being a warm hit after round one.
        cache_capacity: 2,
        limits: ServiceLimits::default(),
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!("vaultd_chaos_{}.sock", std::process::id()));
    let mut server = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    server.bind_unix(&path).expect("bind socket");
    let server_thread = std::thread::spawn(move || server.run().expect("serve"));

    let mut client = Client::with_policy(
        &path,
        RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        },
    );
    let expected = workload();
    let start = Instant::now();
    let mut chaos_hits = 0u64;
    for i in 0..REQUESTS {
        // Rotate through 1..=3-unit batches so batch fan-out, ordering,
        // and the cache all stay exercised.
        let take = 1 + (i % 3);
        let batch: Vec<UnitIn> = (0..take)
            .map(|j| expected[(i + j) % expected.len()].0.clone())
            .collect();
        let response = client.check(&batch).expect("daemon must keep answering");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {i} failed"
        );
        let units = response.get("units").and_then(Json::as_arr).unwrap();
        assert_eq!(units.len(), batch.len(), "request {i} lost units");
        for (j, u) in units.iter().enumerate() {
            let (_, want_verdict, want_rendered) = &expected[(i + j) % expected.len()];
            let got = u.get("verdict").and_then(Json::as_str).unwrap();
            if got == "internal-error" {
                // Chaos hit this unit: the panic payload must be in the
                // diagnostic so operators can tell it from a real bug.
                chaos_hits += 1;
                let diags = u.get("diagnostics").and_then(Json::as_arr).unwrap();
                assert!(
                    diags.iter().any(|d| d
                        .get("message")
                        .and_then(Json::as_str)
                        .is_some_and(|m| m.contains(chaos::PANIC_PAYLOAD))),
                    "request {i} unit {j}: internal-error without the chaos payload"
                );
                continue;
            }
            // Untouched units must be byte-identical to sequential.
            assert_eq!(got, want_verdict, "request {i} unit {j}");
            let rendered: String = u
                .get("diagnostics")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|d| d.get("rendered").and_then(Json::as_str).unwrap())
                .collect();
            assert_eq!(&rendered, want_rendered, "request {i} unit {j}");
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "chaos run took {:?}; the daemon is likely wedging",
        start.elapsed()
    );
    assert!(chaos_hits > 0, "chaos never fired; the harness is inert");

    // The daemon itself accounts for the injected faults.
    let status = client.status().expect("status");
    assert!(status.get("panics_caught").and_then(Json::as_u64).unwrap() > 0);

    // Graceful exit: shutdown drains and the server thread returns.
    chaos::disarm();
    let _ = client.shutdown();
    server_thread.join().expect("server thread exits cleanly");
}

#[test]
fn multiplexer_survives_connection_level_chaos_and_stays_correct() {
    let _guard = exclusive();
    // Everything at once, now including the connection-level faults the
    // multiplexer owns: dropped accepts, mid-response disconnects, and
    // stalled request handlers, on top of job panics, delays, and short writes.
    chaos::arm(ChaosConfig {
        seed: 0x0C0F_FEE5,
        panic_prob: 0.05,
        delay_prob: 0.05,
        delay: Duration::from_millis(1),
        short_write_chunk: Some(5),
        accept_fail_prob: 0.05,
        disconnect_prob: 0.02,
        stall_prob: 0.05,
        stall: Duration::from_millis(2),
        ..Default::default()
    });

    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 4,
        cache_capacity: 2,
        limits: ServiceLimits::default(),
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!("vaultd_chaos_mux_{}.sock", std::process::id()));
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    mux.bind_unix(&path).expect("bind socket");
    let server_thread = std::thread::spawn(move || mux.run().expect("serve"));

    let mut client = Client::with_policy(
        &path,
        RetryPolicy {
            attempts: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        },
    );
    let expected = workload();
    let start = Instant::now();
    let mut chaos_hits = 0u64;
    for i in 0..400 {
        let take = 1 + (i % 3);
        let batch: Vec<UnitIn> = (0..take)
            .map(|j| expected[(i + j) % expected.len()].0.clone())
            .collect();
        let response = client.check(&batch).expect("daemon must keep answering");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {i} failed"
        );
        let units = response.get("units").and_then(Json::as_arr).unwrap();
        assert_eq!(units.len(), batch.len(), "request {i} lost units");
        for (j, u) in units.iter().enumerate() {
            let (_, want_verdict, want_rendered) = &expected[(i + j) % expected.len()];
            let got = u.get("verdict").and_then(Json::as_str).unwrap();
            if got == "internal-error" {
                chaos_hits += 1;
                continue;
            }
            assert_eq!(got, want_verdict, "request {i} unit {j}");
            let rendered: String = u
                .get("diagnostics")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|d| d.get("rendered").and_then(Json::as_str).unwrap())
                .collect();
            assert_eq!(&rendered, want_rendered, "request {i} unit {j}");
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "chaos run took {:?}; the multiplexer is likely wedging",
        start.elapsed()
    );
    assert!(
        chaos_hits > 0,
        "chaos never hit a job; the harness is inert"
    );

    chaos::disarm();
    let _ = client.shutdown();
    server_thread.join().expect("server thread exits cleanly");
}

#[test]
fn multiplexer_survives_a_panicking_request() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let _guard = exclusive();
    // Every request handler panics, outside any check job's own
    // containment, until the test disarms chaos.
    chaos::arm(ChaosConfig {
        seed: 0x9A_41C5,
        panic_prob: 0.0,
        delay_prob: 0.0,
        short_write_chunk: None,
        request_panic_prob: 1.0,
        ..Default::default()
    });

    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 1,
        cache_capacity: 16,
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!("vaultd_chaos_panic_{}.sock", std::process::id()));
    // One pool thread: unless the panicking request frees it, nothing
    // after it can be answered.
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    mux.bind_unix(&path).expect("bind socket");
    let server_thread = std::thread::spawn(move || mux.run().expect("serve"));

    let check = r#"{"op":"check","id":7,"units":[{"name":"t.vlt","source":"void f() { }"}]}"#;
    let stream = UnixStream::connect(&path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = &stream;
    let mut ask = |line: &str| {
        writeln!(writer, "{line}").unwrap();
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .expect("the connection must be answered, not wedged");
        vault_server::parse_json(reply.trim_end()).expect("well-formed reply")
    };

    let reply = ask(check);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("internal error"), "{error}");
    assert!(error.contains(chaos::PANIC_PAYLOAD), "{error}");

    // The thread freed itself: the same connection is served next.
    chaos::disarm();
    let reply = ask(check);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let unit = &reply.get("units").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(unit.get("verdict").and_then(Json::as_str), Some("accepted"));

    let status = ask(r#"{"op":"status"}"#);
    assert_eq!(status.get("panics_caught").and_then(Json::as_u64), Some(1));
    assert_eq!(
        status.get("requests_failed").and_then(Json::as_u64),
        Some(1)
    );

    let _ = Client::new(&path).shutdown();
    server_thread.join().expect("server thread exits cleanly");
}

#[test]
fn a_connection_is_served_by_an_idle_executor_while_its_last_one_is_busy() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let _guard = exclusive();
    chaos::disarm();
    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 2,
        cache_capacity: 16,
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!("vaultd_chaos_busy_{}.sock", std::process::id()));
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    mux.bind_unix(&path).expect("bind socket");
    let server_thread = std::thread::spawn(move || mux.run().expect("serve"));
    let ask = |stream: &UnixStream, line: &str| {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut writer = stream;
        writeln!(writer, "{line}").unwrap();
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .expect("the request must be answered");
        let reply = vault_server::parse_json(reply.trim_end()).expect("well-formed reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        reply
    };

    // A's first request runs on a pool thread, which is then the most
    // recently freed one.
    let a = UnixStream::connect(&path).expect("connect a");
    ask(&a, r#"{"op":"status","id":1}"#);

    // From here every check job sleeps before it starts, so B's check
    // holds that thread for seconds.
    chaos::arm(ChaosConfig {
        seed: 0xB5_5E,
        panic_prob: 0.0,
        delay_prob: 1.0,
        delay: Duration::from_secs(5),
        short_write_chunk: None,
        ..Default::default()
    });
    let b_path = path.clone();
    let b = std::thread::spawn(move || {
        let b = UnixStream::connect(&b_path).expect("connect b");
        ask(
            &b,
            r#"{"op":"check","id":2,"units":[{"name":"b.vlt","source":"void f() { }"}]}"#,
        )
    });
    // The service counts B's unit before its check job starts.
    let deadline = Instant::now() + Duration::from_secs(60);
    while svc.status().units_checked < 1 {
        assert!(Instant::now() < deadline, "B's check never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    // A's next request (no check job, so no delay) must be answered by
    // the other, idle thread while B's check still runs: the service
    // counts B's miss only once its check returns.
    let status = ask(&a, r#"{"op":"status","id":3}"#);
    assert_eq!(
        status.get("cache_misses").and_then(Json::as_u64),
        Some(0),
        "A's request waited for B's executor instead of the idle one"
    );
    chaos::disarm();
    let b_reply = b.join().expect("B is answered");
    let unit = &b_reply.get("units").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(unit.get("name").and_then(Json::as_str), Some("b.vlt"));

    let _ = Client::new(&path).shutdown();
    server_thread.join().expect("server thread exits cleanly");
}

#[test]
fn accept_faults_are_counted_and_outlasted_by_a_retrying_client() {
    let _guard = exclusive();
    // Every accept is dropped on the floor until a helper disarms chaos
    // ~100ms in: the retrying client must outlast the outage, and the
    // daemon must have accounted for every dropped connection.
    chaos::arm(ChaosConfig {
        seed: 0xACC_E97,
        panic_prob: 0.0,
        delay_prob: 0.0,
        short_write_chunk: None,
        accept_fail_prob: 1.0,
        ..Default::default()
    });

    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 2,
        cache_capacity: 16,
        ..Default::default()
    }));
    let path =
        std::env::temp_dir().join(format!("vaultd_chaos_accept_{}.sock", std::process::id()));
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    mux.bind_unix(&path).expect("bind socket");
    let server_thread = std::thread::spawn(move || mux.run().expect("serve"));

    let healer = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(100));
        chaos::disarm();
    });

    let mut client = Client::with_policy(
        &path,
        RetryPolicy {
            attempts: 20,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
        },
    );
    let response = client
        .check(&[UnitIn {
            name: "t.vlt".to_string(),
            source: "void f() { }".to_string(),
        }])
        .expect("client must outlast the accept outage");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    healer.join().unwrap();

    let status = client.status().expect("status");
    let dropped = status.get("accept_errors").and_then(Json::as_u64).unwrap();
    assert!(dropped > 0, "no accept fault was counted");

    let _ = client.shutdown();
    server_thread.join().expect("server thread exits cleanly");
}

#[test]
fn journal_append_faults_tick_errors_and_never_change_an_answer() {
    let _guard = exclusive();
    let units: Vec<UnitIn> = workload().into_iter().map(|(u, _, _)| u).collect();
    for point in ["append.write", "append.sync"] {
        let dir = std::env::temp_dir().join(format!(
            "vault_chaos_journal_{}_{}",
            point.replace('.', "_"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            jobs: 2,
            cache_capacity: 16,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };
        chaos::arm(ChaosConfig {
            seed: 0x10_0A1,
            panic_prob: 0.0,
            delay_prob: 0.0,
            short_write_chunk: None,
            persist_fault_prob: 1.0,
            persist_fault_only: Some(point),
            ..Default::default()
        });
        let svc = CheckService::new(config.clone());
        for u in &units {
            let report = svc.check_unit(u.clone());
            assert_eq!(
                *report.summary,
                vault_core::check_summary(&u.name, &u.source),
                "{point}: `{}`",
                u.name
            );
        }
        assert!(svc.drain(Duration::from_secs(5)));
        let errors = svc.status().cache_append_errors;
        assert!(errors >= 1, "{point}: no append error was counted");
        chaos::disarm();
        drop(svc);

        // The next boot may find torn or missing frames: warmth only.
        let svc = CheckService::new(config);
        for u in &units {
            let report = svc.check_unit(u.clone());
            assert_eq!(
                *report.summary,
                vault_core::check_summary(&u.name, &u.source),
                "{point} after restart: `{}`",
                u.name
            );
        }
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Send `line` on `stream` and read its reply within 60 s.
fn ask_within(stream: &std::os::unix::net::UnixStream, line: &str) -> Json {
    use std::io::{BufRead, BufReader, Write};
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream;
    writeln!(writer, "{line}").unwrap();
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("the request must be answered in time");
    vault_server::parse_json(reply.trim_end()).expect("well-formed reply")
}

/// A `check` (or `check-project`) request line for `units`.
fn units_line(op: &str, id: usize, units: &[UnitIn]) -> String {
    let units = units
        .iter()
        .map(|u| {
            Json::Obj(vec![
                ("name".to_string(), Json::str(&u.name)),
                ("source".to_string(), Json::str(&u.source)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("op".to_string(), Json::str(op)),
        ("id".to_string(), Json::num(id as u64)),
        ("units".to_string(), Json::Arr(units)),
    ])
    .to_line()
}

/// Each reply unit's verdict equals the sequential checker's.
fn assert_verdicts(reply: &Json, units: &[UnitIn]) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply:?}"
    );
    let got = reply.get("units").and_then(Json::as_arr).unwrap();
    assert_eq!(got.len(), units.len());
    for (g, u) in got.iter().zip(units) {
        let want = vault_core::check_summary(&u.name, &u.source);
        assert_eq!(
            g.get("verdict").and_then(Json::as_str),
            Some(want.verdict.as_str()),
            "`{}`",
            u.name
        );
    }
}

#[test]
fn at_most_jobs_unit_checks_run_at_once_however_many_clients_send() {
    use std::os::unix::net::UnixStream;
    let _guard = exclusive();
    const JOBS: usize = 2;
    const ROUNDS: usize = 3;
    // Every check job sleeps first, so checks overlap whenever the
    // daemon lets them.
    chaos::arm(ChaosConfig {
        seed: 0x10B5,
        panic_prob: 0.0,
        delay_prob: 1.0,
        delay: Duration::from_millis(20),
        short_write_chunk: None,
        ..Default::default()
    });
    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: JOBS,
        cache_capacity: 1024,
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!("vaultd_chaos_bound_{}.sock", std::process::id()));
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    mux.bind_unix(&path).expect("bind socket");
    let server_thread = std::thread::spawn(move || mux.run().expect("serve"));
    chaos::take_checks_peak();

    let start = Arc::new(std::sync::Barrier::new(4 * JOBS));
    let clients: Vec<_> = (0..4 * JOBS)
        .map(|c| {
            let (path, start) = (path.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                let stream = UnixStream::connect(&path).expect("connect");
                start.wait();
                for r in 0..ROUNDS {
                    // Distinct cold units: nothing hits or joins.
                    let units = [UnitIn {
                        name: format!("c{c}_r{r}.vlt"),
                        source: "type T;\nvoid f(int n) { n = n + 1; }\n".to_string(),
                    }];
                    let reply = ask_within(&stream, &units_line("check", r, &units));
                    assert_verdicts(&reply, &units);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("a client was not answered");
    }
    let peak = chaos::take_checks_peak();
    chaos::disarm();
    assert_eq!(svc.status().cache_misses, (4 * JOBS * ROUNDS) as u64);
    assert!(
        (1..=JOBS).contains(&peak),
        "{peak} unit checks ran at once with --jobs {JOBS}"
    );

    let _ = Client::new(&path).shutdown();
    server_thread.join().expect("server thread exits cleanly");
}

#[test]
fn a_one_thread_daemon_answers_batches_cycles_and_duplicates() {
    use std::os::unix::net::UnixStream;
    let _guard = exclusive();
    chaos::disarm();
    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 1,
        cache_capacity: 64,
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!("vaultd_chaos_one_{}.sock", std::process::id()));
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    mux.bind_unix(&path).expect("bind socket");
    let server_thread = std::thread::spawn(move || mux.run().expect("serve"));
    let unit = |name: &str, source: &str| UnitIn {
        name: name.to_string(),
        source: source.to_string(),
    };
    let stream = UnixStream::connect(&path).expect("connect");

    // A batch: the thread checks the last unit itself and must run the
    // two it queued, since no other thread exists.
    let batch = workload()
        .into_iter()
        .take(3)
        .map(|(u, _, _)| u)
        .collect::<Vec<_>>();
    assert_verdicts(
        &ask_within(&stream, &units_line("check", 1, &batch)),
        &batch,
    );

    // A project with an import cycle beside an acyclic pair.
    let project = vec![
        unit("lib", "type T;\nvoid helper(int n) {\n  n = n + 1;\n}\n"),
        unit("app", "import \"lib\";\nvoid run() {\n  helper(3);\n}\n"),
        unit("c", "import \"d\";\ntype C;\n"),
        unit("d", "import \"c\";\ntype D;\n"),
    ];
    let reply = ask_within(&stream, &units_line("check-project", 2, &project));
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply:?}"
    );
    let verdicts: Vec<&str> = reply
        .get("units")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|u| u.get("verdict").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(verdicts, ["accepted", "accepted", "rejected", "rejected"]);

    // The same unit from two connections at once, and a batch in which
    // the unit's second copy joins its queued first copy's flight.
    let dup = unit("dup.vlt", "type T;\nvoid g(int n) { n = n * 2; }\n");
    let start = Arc::new(std::sync::Barrier::new(2));
    let twins: Vec<_> = (0..2)
        .map(|i| {
            let (path, start, dup) = (path.clone(), Arc::clone(&start), dup.clone());
            std::thread::spawn(move || {
                let stream = UnixStream::connect(&path).expect("connect");
                start.wait();
                let units = [dup];
                let reply = ask_within(&stream, &units_line("check", 10 + i, &units));
                assert_verdicts(&reply, &units);
            })
        })
        .collect();
    for twin in twins {
        twin.join().expect("a twin was not answered");
    }
    let other = unit("other.vlt", "void h() { }");
    let joined = vec![
        unit("again.vlt", &dup.source),
        other,
        unit("again.vlt", &dup.source),
    ];
    let before = svc.status().singleflight_joins;
    assert_verdicts(
        &ask_within(&stream, &units_line("check", 3, &joined)),
        &joined,
    );
    assert_eq!(svc.status().singleflight_joins, before + 1);

    let _ = Client::new(&path).shutdown();
    server_thread.join().expect("server thread exits cleanly");
}
