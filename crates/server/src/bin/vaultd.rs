//! `vaultd` — the Vault protocol-checking daemon.
//!
//! ```text
//! vaultd [--socket PATH] [--listen ADDR:PORT] [--jobs N] [--cache N]
//!        [--cache-dir PATH] [--cache-max-bytes N]
//!        [--max-request-bytes N] [--timeout-ms N] [--fuel N]
//! ```
//!
//! With `--socket` and/or `--listen`, serves the JSON-lines protocol on
//! a Unix domain socket and/or a TCP listener until a client sends
//! `{"op":"shutdown"}`. Serving is event-driven: one readiness loop
//! multiplexes every connection onto the `--jobs` pool threads, with
//! per-connection backpressure so a stalled reader wedges only itself.
//! Each request runs start to finish on one pool thread, the most
//! recently freed one, which checks the request's last unit itself and
//! queues the rest; a thread waiting for queued checks runs them, so
//! `--jobs` bounds both the requests and the checks running at once.
//! Without either flag, serves a single session over stdin/stdout
//! (exiting at EOF) — handy behind an inetd-style supervisor or for
//! piping; that session's thread also checks units itself.
//!
//! `--cache-dir` names a directory for the persistent warm-start cache:
//! verdicts journaled there by a previous run are replayed at boot, so
//! a restarted daemon answers its first requests at warm-cache speed
//! (a corrupt or version-mismatched segment falls back to a cold start
//! for the affected frames and shows up as `cache_load_errors` /
//! `segments_quarantined` in `status`). `--cache-max-bytes` bounds that
//! directory's size: the store compacts superseded frames first and then
//! evicts whole oldest segments until it fits — evictions only cost
//! warmth, never answers.
//!
//! `--max-request-bytes` caps how large one request line may grow,
//! `--timeout-ms` gives every compilation unit a checking deadline, and
//! `--fuel` caps loop-invariant fixpoint iterations; exceeding a
//! per-unit bound yields a `resource-limit` verdict, exceeding a
//! per-request bound a structured error reply. Shutdown drains
//! in-flight work within a bounded grace period.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use vault_server::{CheckService, MuxConfig, MuxServer, ServiceConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vaultd [--socket PATH] [--listen ADDR:PORT] [--jobs N] [--cache N]\n              \
         [--cache-dir PATH] [--cache-max-bytes N]\n              \
         [--max-request-bytes N] [--timeout-ms N] [--fuel N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut config = ServiceConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(path) => socket = Some(path.clone()),
                None => return usage(),
            },
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.jobs = n,
                _ => return usage(),
            },
            "--cache" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.cache_capacity = n,
                _ => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(dir) => config.cache_dir = Some(dir.into()),
                None => return usage(),
            },
            "--cache-max-bytes" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => config.cache_max_bytes = Some(n),
                _ => return usage(),
            },
            "--max-request-bytes" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.limits.max_request_bytes = n,
                _ => return usage(),
            },
            "--timeout-ms" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => config.limits.timeout = Some(Duration::from_millis(n)),
                _ => return usage(),
            },
            "--fuel" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.limits.fixpoint_iters = n,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    let svc = Arc::new(CheckService::new(config));
    if socket.is_none() && listen.is_none() {
        return match vault_server::serve_stdio(&svc) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("vaultd: stdio error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    if let Some(path) = &socket {
        if let Err(e) = mux.bind_unix(path) {
            eprintln!("vaultd: cannot bind `{path}`: {e}");
            return ExitCode::from(2);
        }
        eprintln!(
            "vaultd: listening on {path} ({} worker(s), cache {})",
            svc.workers(),
            svc.cache_capacity()
        );
    }
    if let Some(addr) = &listen {
        match mux.bind_tcp(addr) {
            Ok(local) => eprintln!(
                "vaultd: listening on tcp {local} ({} worker(s), cache {})",
                svc.workers(),
                svc.cache_capacity()
            ),
            Err(e) => {
                eprintln!("vaultd: cannot listen on `{addr}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = mux.run() {
        eprintln!("vaultd: serve error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
