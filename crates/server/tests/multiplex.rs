//! The multiplexed front end under load: many concurrent clients over
//! Unix and TCP must receive verdicts byte-identical to a single
//! sequential client, concurrent identical requests must collapse into
//! one pipeline run (singleflight), and a stalled reader must wedge
//! only itself (backpressure). Concurrency changes speed, never
//! answers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vault_server::{
    serve_connection, CheckService, Json, MuxConfig, MuxServer, ServiceConfig, UnitIn,
};

fn corpus_units() -> Vec<UnitIn> {
    vault_corpus::all_programs()
        .into_iter()
        .map(|p| UnitIn {
            name: p.id.to_string(),
            source: p.source,
        })
        .collect()
}

/// One `check` request line per unit, with a stable id per unit so
/// responses are comparable across clients and transports.
fn request_lines(units: &[UnitIn]) -> Vec<String> {
    units
        .iter()
        .enumerate()
        .map(|(i, u)| {
            Json::Obj(vec![
                ("op".to_string(), Json::str("check")),
                ("id".to_string(), Json::num(i as u64)),
                (
                    "units".to_string(),
                    Json::Arr(vec![Json::Obj(vec![
                        ("name".to_string(), Json::str(&u.name)),
                        ("source".to_string(), Json::str(&u.source)),
                    ])]),
                ),
            ])
            .to_line()
        })
        .collect()
}

/// Zero out the fields that legitimately vary run to run: wall times,
/// and the `cached` flag — it reports where an answer came from (cache,
/// singleflight join, fresh check), which concurrency may change; the
/// answer itself may not.
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

/// The reference transcript: a fresh service, one sequential client.
fn sequential_baseline(lines: &[String]) -> Vec<String> {
    let svc = CheckService::new(ServiceConfig {
        jobs: 2,
        cache_capacity: 1024,
        ..Default::default()
    });
    let input = lines.join("\n") + "\n";
    let mut out = Vec::new();
    serve_connection(&svc, input.as_bytes(), &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| strip_speed_fields(vault_server::parse_json(l).unwrap()).to_line())
        .collect()
}

/// Drive one client over an arbitrary stream: send every request, read
/// every response (in order), return the stripped response lines.
fn drive<S: Read + Write>(stream: S, lines: &[String], reader: BufReader<S>) -> Vec<String> {
    let mut writer = stream;
    let mut reader = reader;
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        assert!(
            reader.read_line(&mut response).unwrap() > 0,
            "server closed the connection mid-run"
        );
        responses.push(
            strip_speed_fields(vault_server::parse_json(response.trim_end()).unwrap()).to_line(),
        );
    }
    responses
}

fn start_mux(config: MuxConfig) -> (Arc<CheckService>, std::path::PathBuf, std::net::SocketAddr) {
    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 2,
        cache_capacity: 1024,
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!(
        "vault_mux_{}_{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut mux = MuxServer::new(Arc::clone(&svc), config);
    mux.bind_unix(&path).expect("bind unix");
    let addr = mux.bind_tcp("127.0.0.1:0").expect("bind tcp");
    std::thread::spawn(move || mux.run().expect("serve"));
    (svc, path, addr)
}

fn shutdown(path: &std::path::Path) {
    let mut stream = UnixStream::connect(path).expect("connect for shutdown");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).unwrap();
}

#[test]
fn many_clients_over_unix_and_tcp_match_one_sequential_client() {
    let units = corpus_units();
    assert!(units.len() > 20, "corpus unexpectedly small");
    let lines = Arc::new(request_lines(&units));
    let baseline = sequential_baseline(&lines);
    assert_eq!(baseline.len(), lines.len());

    let (_svc, path, addr) = start_mux(MuxConfig::default());
    const CLIENTS_PER_TRANSPORT: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS_PER_TRANSPORT * 2));
    let mut handles = Vec::new();
    for _ in 0..CLIENTS_PER_TRANSPORT {
        let (l, b, p) = (Arc::clone(&lines), Arc::clone(&barrier), path.clone());
        handles.push(std::thread::spawn(move || {
            let stream = UnixStream::connect(&p).expect("connect unix");
            let reader = BufReader::new(stream.try_clone().unwrap());
            b.wait();
            drive(stream, &l, reader)
        }));
        let (l, b) = (Arc::clone(&lines), Arc::clone(&barrier));
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect tcp");
            let reader = BufReader::new(stream.try_clone().unwrap());
            b.wait();
            drive(stream, &l, reader)
        }));
    }
    for (i, handle) in handles.into_iter().enumerate() {
        let responses = handle.join().expect("client thread");
        assert_eq!(
            responses, baseline,
            "client {i} diverged from the sequential transcript"
        );
    }
    shutdown(&path);
}

#[test]
fn concurrent_identical_requests_collapse_to_one_pipeline_run() {
    // Service-level singleflight: k threads race the same unit; exactly
    // one check runs, everyone gets the same summary.
    const THREADS: usize = 8;
    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 2,
        cache_capacity: 64,
        ..Default::default()
    }));
    let unit = UnitIn {
        name: "hot.vlt".to_string(),
        source: "type FILE;\ntracked(F) FILE fopen(string p) [new F];\nvoid fclose(tracked(F) FILE f) [-F];\nvoid f() { tracked(F) FILE x = fopen(\"a\"); fclose(x); }\nvoid g() { tracked(F) FILE y = fopen(\"b\"); fclose(y); }".to_string(),
    };
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (svc, unit, barrier) = (Arc::clone(&svc), unit.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                let (mut reports, _) = svc.check_units(vec![unit]);
                reports.remove(0)
            })
        })
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first = &reports[0];
    for r in &reports {
        assert_eq!(
            *r.summary, *first.summary,
            "a joined/cached verdict diverged from the leader's"
        );
    }
    let snap = svc.status();
    assert_eq!(snap.cache_misses, 1, "exactly one pipeline run");
    assert_eq!(
        snap.singleflight_joins + snap.cache_hits,
        (THREADS - 1) as u64,
        "everyone else joined in flight or hit the cache"
    );
    assert_eq!(snap.units_checked, THREADS as u64);
}

#[test]
fn a_stalled_reader_cannot_wedge_other_clients() {
    // Tiny write buffer so the stall bites quickly.
    let (_svc, path, _addr) = start_mux(MuxConfig {
        max_write_buffer: 4096,
        max_pending_per_conn: 4,
    });

    // Client A: fire a burst of requests and read NOTHING.
    const BURST: usize = 256;
    let stalled = UnixStream::connect(&path).expect("connect stalled client");
    let mut w = stalled.try_clone().unwrap();
    for i in 0..BURST {
        writeln!(w, "{{\"op\":\"status\",\"id\":{i}}}").unwrap();
    }
    w.flush().unwrap();

    // Client B must stay fully served while A's responses back up.
    let units = corpus_units();
    let lines = request_lines(&units[..8.min(units.len())]);
    let baseline_len = lines.len();
    let start = Instant::now();
    let live = UnixStream::connect(&path).expect("connect live client");
    let reader = BufReader::new(live.try_clone().unwrap());
    let responses = drive(live, &lines, reader);
    assert_eq!(responses.len(), baseline_len);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "live client took {:?}; the stalled reader is wedging the loop",
        start.elapsed()
    );

    // A finally reads: every response arrives, in order, well-formed.
    let mut reader = BufReader::new(stalled);
    for i in 0..BURST {
        let mut response = String::new();
        assert!(
            reader.read_line(&mut response).unwrap() > 0,
            "stalled client's response {i} lost"
        );
        let v = vault_server::parse_json(response.trim_end()).unwrap();
        assert_eq!(
            v.get("id").and_then(Json::as_u64),
            Some(i as u64),
            "responses out of order for the stalled client"
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }
    shutdown(&path);
}

#[test]
fn retrying_client_works_over_tcp() {
    let (_svc, path, addr) = start_mux(MuxConfig::default());
    let mut client = vault_server::Client::tcp(addr.to_string());
    let response = client
        .check(&[UnitIn {
            name: "t.vlt".to_string(),
            source: "void f() { }".to_string(),
        }])
        .expect("tcp check");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let unit = &response.get("units").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(unit.get("verdict").and_then(Json::as_str), Some("accepted"));
    let status = client.status().expect("tcp status");
    assert_eq!(status.get("requests").and_then(Json::as_u64), Some(2));
    shutdown(&path);
}
