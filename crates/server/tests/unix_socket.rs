//! End-to-end: `vaultd`'s Unix-domain-socket front end, exercised by
//! real clients over real sockets — including the whole built-in corpus
//! in one batch, concurrent clients sharing one cache, and shutdown.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use vault_server::{CheckService, Json, MuxConfig, MuxServer, ServiceConfig};

fn start_server(jobs: usize) -> (Arc<CheckService>, std::path::PathBuf) {
    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs,
        cache_capacity: 1024,
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!(
        "vaultd_test_{}_{jobs}_{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut server = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    server.bind_unix(&path).expect("bind socket");
    std::thread::spawn(move || server.run().expect("serve"));
    (svc, path)
}

fn request(stream: &mut UnixStream, line: &str) -> Json {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    vault_server::parse_json(response.trim_end()).expect("valid response JSON")
}

fn json_escape(s: &str) -> String {
    Json::str(s).to_line()
}

#[test]
fn full_corpus_over_the_socket_matches_sequential() {
    let (_svc, path) = start_server(4);
    let mut stream = UnixStream::connect(&path).expect("connect");

    let programs = vault_corpus::all_programs();
    let units: String = programs
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":{},\"source\":{}}}",
                json_escape(p.id),
                json_escape(&p.source)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let response = request(
        &mut stream,
        &format!("{{\"op\":\"check\",\"id\":1,\"units\":[{units}]}}"),
    );
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let reported = response.get("units").and_then(Json::as_arr).unwrap();
    assert_eq!(reported.len(), programs.len());

    // Every verdict over the wire equals the sequential checker's.
    for (u, p) in reported.iter().zip(&programs) {
        let sequential = vault_core::check_source(p.id, &p.source);
        let want = sequential.verdict().as_str();
        assert_eq!(u.get("name").and_then(Json::as_str), Some(p.id));
        assert_eq!(
            u.get("verdict").and_then(Json::as_str),
            Some(want),
            "{}",
            p.id
        );
        // Diagnostic codes match too.
        let wire_codes: Vec<&str> = u
            .get("error_codes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let seq_codes: Vec<String> = sequential
            .error_codes()
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(wire_codes, seq_codes, "{}", p.id);
    }

    // Re-check: all answered from cache, visible in status counters.
    let response = request(
        &mut stream,
        &format!("{{\"op\":\"check\",\"id\":2,\"units\":[{units}]}}"),
    );
    let reported = response.get("units").and_then(Json::as_arr).unwrap();
    assert!(reported
        .iter()
        .all(|u| u.get("cached").and_then(Json::as_bool) == Some(true)));

    let status = request(&mut stream, "{\"op\":\"status\",\"id\":3}");
    assert_eq!(
        status.get("cache_hits").and_then(Json::as_u64),
        Some(programs.len() as u64)
    );
    assert_eq!(
        status.get("cache_misses").and_then(Json::as_u64),
        Some(programs.len() as u64)
    );
    assert_eq!(status.get("workers").and_then(Json::as_u64), Some(4));
    assert!(status.get("uptime_micros").and_then(Json::as_u64).unwrap() > 0);

    request(&mut stream, "{\"op\":\"shutdown\"}");
}

#[test]
fn concurrent_clients_share_one_cache() {
    let (svc, path) = start_server(2);
    let good = r#"{"op":"check","units":[{"name":"shared.vlt","source":"void f() { }"}]}"#;

    // First client warms the cache.
    let mut a = UnixStream::connect(&path).unwrap();
    let ra = request(&mut a, good);
    let ua = &ra.get("units").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(ua.get("cached").and_then(Json::as_bool), Some(false));

    // Second client hits it.
    let mut b = UnixStream::connect(&path).unwrap();
    let rb = request(&mut b, good);
    let ub = &rb.get("units").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(ub.get("cached").and_then(Json::as_bool), Some(true));

    assert_eq!(svc.status().cache_hits, 1);
    request(&mut a, "{\"op\":\"shutdown\"}");
}

#[test]
fn shutdown_stops_the_accept_loop_and_unlinks_the_socket() {
    let (_svc, path) = start_server(1);
    let mut stream = UnixStream::connect(&path).unwrap();
    let ack = request(&mut stream, "{\"op\":\"shutdown\",\"id\":1}");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    // The socket file disappears once the accept loop exits.
    for _ in 0..100 {
        if !path.exists() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("socket file {path:?} still exists after shutdown");
}
