//! Serving the wire protocol: request dispatch, the stdio front end,
//! and the start-up `vaultd` and `vaultc serve` share.
//!
//! Every transport speaks the same JSON-lines protocol (see
//! [`crate::proto`]) against one shared [`CheckService`]: the blocking
//! [`serve_connection`] loop here drives stdio, and the socket server
//! ([`crate::mux::MuxServer`]) runs [`respond_to_line`] on the pool
//! threads, so every transport answers byte-identically.

use crate::json::{parse, Json};
use crate::mux::{Framed, LineAssembler, MuxConfig, MuxServer};
use crate::pool::UnitIn;
use crate::proto::{self, Request};
use crate::service::{CheckService, ServiceConfig};
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a shutting-down daemon waits for in-flight checks before
/// abandoning them. Bounded so one wedged unit can't hold the exit.
pub const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Dispatch one decoded request. Returns the response and whether the
/// client asked the daemon to shut down.
pub fn handle_request(svc: &CheckService, id: Option<u64>, req: Request) -> (Json, bool) {
    let start = Instant::now();
    svc.metrics()
        .requests
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let (response, shutdown) = match req {
        Request::Check { units } => match refuse_over_cap(svc, id, "check", &units) {
            Some(refusal) => (refusal, false),
            None => {
                let (reports, wall) = svc.check_units(units);
                (proto::encode_check(id, &reports, wall), false)
            }
        },
        Request::CheckProject { units } => {
            match refuse_over_cap(svc, id, "check-project", &units) {
                Some(refusal) => (refusal, false),
                None => {
                    let (reports, wall) = svc.check_project(units);
                    (proto::encode_check_project(id, &reports, wall), false)
                }
            }
        }
        Request::EmitC { unit } => {
            let (summary, c) = svc.emit_c(&unit);
            (proto::encode_emit_c(id, &summary, c.as_deref()), false)
        }
        Request::Stats { unit } => {
            let report = svc.check_unit(unit);
            (proto::encode_stats_response(id, &report), false)
        }
        Request::Status => {
            let snap = svc.status();
            (
                proto::encode_status(
                    id,
                    &snap,
                    svc.workers(),
                    svc.cache_entries(),
                    svc.cache_capacity(),
                    svc.store_health(),
                ),
                false,
            )
        }
        Request::ClearCache => {
            svc.clear_cache();
            (proto::encode_ack(id, "clear-cache"), false)
        }
        Request::Shutdown => (proto::encode_ack(id, "shutdown"), true),
    };
    svc.metrics().request_micros.fetch_add(
        start.elapsed().as_micros() as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    (response, shutdown)
}

/// The error reply for an `op` request carrying more units than
/// `max_units_per_batch` allows (counted in `requests_failed`), or
/// `None` when the request is within the bound.
fn refuse_over_cap(
    svc: &CheckService,
    id: Option<u64>,
    op: &str,
    units: &[UnitIn],
) -> Option<Json> {
    let cap = svc.limits().max_units_per_batch;
    if units.len() <= cap {
        return None;
    }
    svc.metrics().request_failed();
    Some(proto::encode_error(
        id,
        &format!(
            "`{op}` carries {} unit(s); this daemon accepts at most {cap} per request",
            units.len()
        ),
    ))
}

/// Answer one raw request line: parse failures and protocol errors get
/// structured `"ok":false` replies (counted in `requests_failed`), and
/// well-formed requests go through [`handle_request`]. Shared by the
/// blocking front end here and the multiplexer's request turns
/// ([`crate::mux`]) so every transport answers byte-identically.
pub fn respond_to_line(svc: &CheckService, line: &str) -> (Json, bool) {
    match parse(line) {
        Err(e) => {
            svc.metrics().request_failed();
            (proto::encode_error(None, &format!("bad JSON: {e}")), false)
        }
        Ok(v) => {
            let (id, req) = proto::parse_request(&v);
            match req {
                Err(e) => {
                    svc.metrics().request_failed();
                    (proto::encode_error(id, &e), false)
                }
                Ok(req) => handle_request(svc, id, req),
            }
        }
    }
}

/// The error reply for a request line of `n`+ bytes that overran
/// `max_request_bytes` and was skipped (counted in `requests_failed`).
pub(crate) fn too_long_reply(svc: &CheckService, n: usize) -> Json {
    svc.metrics().request_failed();
    let max = svc.limits().max_request_bytes;
    proto::encode_error(
        None,
        &format!("request line of {n}+ bytes exceeds the {max}-byte limit; line skipped"),
    )
}

/// Serve one JSON-lines connection until EOF or a `shutdown` request.
/// Returns whether shutdown was requested.
///
/// Every malformed, oversized, or otherwise unservable request gets a
/// structured `"ok":false` reply (and bumps `requests_failed`) instead
/// of killing the stream; only a transport error ends the connection.
pub fn serve_connection<R: BufRead, W: Write>(
    svc: &CheckService,
    mut reader: R,
    mut writer: W,
) -> io::Result<bool> {
    let mut lines = LineAssembler::new(svc.limits().max_request_bytes);
    let mut frames = VecDeque::new();
    loop {
        let Some(frame) = frames.pop_front() else {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                match lines.finish() {
                    Some(last) => frames.push_back(last),
                    None => return Ok(false),
                }
            } else {
                let n = chunk.len();
                lines.feed(chunk, &mut frames);
                reader.consume(n);
            }
            continue;
        };
        let (response, shutdown) = match frame {
            Framed::TooLong(n) => (too_long_reply(svc, n), false),
            Framed::Request(line) if line.trim().is_empty() => continue,
            Framed::Request(line) => respond_to_line(svc, &line),
        };
        writer.write_all(response.to_line().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Serve the protocol over stdin/stdout until EOF or `shutdown`, then
/// drain in-flight work (bounded by [`SHUTDOWN_GRACE`]).
pub fn serve_stdio(svc: &CheckService) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    #[cfg(feature = "chaos")]
    let result = serve_connection(
        svc,
        stdin.lock(),
        crate::chaos::ChaosWriter::new(stdout.lock()),
    );
    #[cfg(not(feature = "chaos"))]
    let result = serve_connection(svc, stdin.lock(), stdout.lock());
    result.map(|_| svc.drain(SHUTDOWN_GRACE)).map(|_| ())
}

/// The `vaultd` and `vaultc serve` command: parse the serve flags, then
/// serve one session over stdio, or serve `--socket` and/or `--listen`
/// until a client sends `shutdown`. `jobs_flags` are the spellings of
/// `--jobs` the command accepts. A usage error returns `usage()`, and
/// every message starts with `program`. Exit codes: 0 after a clean
/// shutdown or EOF, 1 on a serve error, 2 when an address cannot be
/// bound.
pub fn serve_command(
    program: &str,
    args: &[String],
    jobs_flags: &[&str],
    usage: fn() -> ExitCode,
) -> ExitCode {
    let Some(flags) = ServeFlags::parse(args, jobs_flags) else {
        return usage();
    };
    let svc = Arc::new(CheckService::new(flags.config));
    if flags.socket.is_none() && flags.listen.is_none() {
        return match serve_stdio(&svc) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{program}: stdio error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let pool = format!(
        "{} worker(s), cache {}",
        svc.workers(),
        svc.cache_capacity()
    );
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    if let Some(path) = &flags.socket {
        if let Err(e) = mux.bind_unix(path) {
            eprintln!("{program}: cannot bind `{path}`: {e}");
            return ExitCode::from(2);
        }
        eprintln!("{program}: listening on {path} ({pool})");
    }
    if let Some(addr) = &flags.listen {
        match mux.bind_tcp(addr) {
            Ok(local) => eprintln!("{program}: listening on tcp {local} ({pool})"),
            Err(e) => {
                eprintln!("{program}: cannot listen on `{addr}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    match mux.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{program}: serve error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The serve flags: where to listen, and the service's tunables.
struct ServeFlags {
    socket: Option<String>,
    listen: Option<String>,
    config: ServiceConfig,
}

impl ServeFlags {
    /// Parse `args`, every flag followed by its value; `None` on an
    /// unknown flag, a missing value, or a count below 1.
    fn parse(args: &[String], jobs_flags: &[&str]) -> Option<ServeFlags> {
        let mut flags = ServeFlags {
            socket: None,
            listen: None,
            config: ServiceConfig::default(),
        };
        let config = &mut flags.config;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next()?;
            match flag.as_str() {
                "--socket" => flags.socket = Some(value.clone()),
                "--listen" => flags.listen = Some(value.clone()),
                f if jobs_flags.contains(&f) => config.jobs = positive(value)?,
                "--cache" => config.cache_capacity = positive(value)?,
                "--cache-dir" => config.cache_dir = Some(value.into()),
                "--cache-max-bytes" => config.cache_max_bytes = Some(positive(value)?),
                "--max-request-bytes" => config.limits.max_request_bytes = positive(value)?,
                "--timeout-ms" => {
                    config.limits.timeout = Some(Duration::from_millis(positive(value)?))
                }
                "--fuel" => config.limits.fixpoint_iters = positive(value)?,
                _ => return None,
            }
        }
        Some(flags)
    }
}

/// `value` as a number of at least 1.
fn positive<T: FromStr + PartialOrd + From<u8>>(value: &str) -> Option<T> {
    value.parse().ok().filter(|n| *n >= T::from(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> CheckService {
        CheckService::new(ServiceConfig {
            jobs: 2,
            cache_capacity: 64,
            ..Default::default()
        })
    }

    fn roundtrip(svc: &CheckService, input: &str) -> Vec<Json> {
        let mut out = Vec::new();
        serve_connection(svc, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .collect()
    }

    #[test]
    fn check_request_round_trips_with_structured_diagnostics() {
        let svc = svc();
        let req = r#"{"op":"check","id":1,"units":[{"name":"leak.vlt","source":"type FILE;\ntracked(F) FILE fopen(string p) [new F];\nvoid leak() {\n  tracked(F) FILE f = fopen(\"x\");\n}"}]}"#;
        let responses = roundtrip(&svc, &format!("{req}\n"));
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("id").and_then(Json::as_u64), Some(1));
        let units = r.get("units").and_then(Json::as_arr).unwrap();
        assert_eq!(units.len(), 1);
        let u = &units[0];
        assert_eq!(u.get("verdict").and_then(Json::as_str), Some("rejected"));
        assert_eq!(u.get("cached").and_then(Json::as_bool), Some(false));
        let diags = u.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert!(!diags.is_empty());
        let d = &diags[0];
        assert_eq!(d.get("code").and_then(Json::as_str), Some("V304"));
        assert_eq!(d.get("severity").and_then(Json::as_str), Some("error"));
        assert!(d.get("line").and_then(Json::as_u64).unwrap() >= 1);
        assert!(d
            .get("rendered")
            .and_then(Json::as_str)
            .unwrap()
            .contains("leak.vlt"));
    }

    #[test]
    fn malformed_lines_get_error_responses_and_do_not_kill_the_stream() {
        let svc = svc();
        let input = "this is not json\n{\"op\":\"nope\"}\n{\"op\":\"status\"}\n";
        let responses = roundtrip(&svc, input);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[2].get("ok").and_then(Json::as_bool), Some(true));
        // The status response reflects only well-formed requests.
        assert_eq!(responses[2].get("requests").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn status_reports_cache_counters() {
        let svc = svc();
        let unit = r#"{"name":"a.vlt","source":"void f() { }"}"#;
        let input = format!(
            "{{\"op\":\"check\",\"units\":[{unit}]}}\n{{\"op\":\"check\",\"units\":[{unit}]}}\n{{\"op\":\"status\"}}\n"
        );
        let responses = roundtrip(&svc, &input);
        let status = &responses[2];
        assert_eq!(status.get("cache_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(status.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(status.get("units_checked").and_then(Json::as_u64), Some(2));
        assert_eq!(status.get("workers").and_then(Json::as_u64), Some(2));
        assert_eq!(status.get("cache_entries").and_then(Json::as_u64), Some(1));
        // Second check of identical content is flagged as cached.
        let u = &responses[1].get("units").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(u.get("cached").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn shutdown_acks_then_closes() {
        let svc = svc();
        let responses = roundtrip(
            &svc,
            "{\"op\":\"shutdown\",\"id\":9}\n{\"op\":\"status\"}\n",
        );
        // The stream stops after the shutdown ack; the status line is
        // never answered.
        assert_eq!(responses.len(), 1);
        assert_eq!(
            responses[0].get("op").and_then(Json::as_str),
            Some("shutdown")
        );
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn oversized_request_line_is_skipped_with_a_structured_error() {
        use crate::service::{ServiceConfig, ServiceLimits};
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 4,
            limits: ServiceLimits {
                max_request_bytes: 64,
                ..ServiceLimits::default()
            },
            ..Default::default()
        });
        let huge = format!(
            "{{\"op\":\"check\",\"units\":[{{\"name\":\"big\",\"source\":\"{}\"}}]}}\n",
            "x".repeat(4096)
        );
        let input = format!("{huge}{{\"op\":\"status\"}}\n");
        let responses = roundtrip(&svc, &input);
        assert_eq!(responses.len(), 2, "oversized line answered, then status");
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert!(responses[0]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("64-byte limit"));
        // The stream stays framed: the next request is served normally
        // and the failure is counted.
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            responses[1].get("requests_failed").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn over_cap_batches_are_refused_without_checking() {
        use crate::service::{ServiceConfig, ServiceLimits};
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 4,
            limits: ServiceLimits {
                max_units_per_batch: 2,
                ..ServiceLimits::default()
            },
            ..Default::default()
        });
        let unit = r#"{"name":"a.vlt","source":"void f() { }"}"#;
        let req = format!("{{\"op\":\"check\",\"id\":7,\"units\":[{unit},{unit},{unit}]}}\n");
        let responses = roundtrip(&svc, &req);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[0].get("id").and_then(Json::as_u64), Some(7));
        assert!(responses[0]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("at most 2"));
        assert_eq!(svc.status().units_checked, 0, "nothing was checked");
    }

    #[test]
    fn emit_c_over_the_wire() {
        let svc = svc();
        let req = r#"{"op":"emit-c","unit":{"name":"ok.vlt","source":"int f() { return 7; }"}}"#;
        let responses = roundtrip(&svc, &format!("{req}\n"));
        let r = &responses[0];
        assert_eq!(r.get("verdict").and_then(Json::as_str), Some("accepted"));
        assert!(r.get("c").and_then(Json::as_str).unwrap().contains("int f"));
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn usage() -> ExitCode {
        ExitCode::from(2)
    }

    #[test]
    fn serve_usage_errors_exit_2_before_serving() {
        for bad in [
            &["--bogus", "1"][..],
            &["--executors", "2"],
            &["--jobs", "0"],
            &["--cache", "many"],
            &["--socket"],
            &["--fuel", "10", "--timeout-ms"],
            &["-j", "2"],
        ] {
            assert!(
                ServeFlags::parse(&args(bad), &["--jobs"]).is_none(),
                "{bad:?}"
            );
            let code = serve_command("vaultd", &args(bad), &["--jobs"], usage);
            assert_eq!(code, ExitCode::from(2), "{bad:?}");
        }
    }

    #[test]
    fn all_nine_serve_flags_reach_the_service_config() {
        let given = args(&[
            "--socket",
            "/tmp/v.sock",
            "--listen",
            "127.0.0.1:0",
            "--jobs",
            "3",
            "--cache",
            "17",
            "--cache-dir",
            "store",
            "--cache-max-bytes",
            "4096",
            "--max-request-bytes",
            "512",
            "--timeout-ms",
            "250",
            "--fuel",
            "9",
        ]);
        let flags = ServeFlags::parse(&given, &["--jobs"]).expect("valid flags");
        assert_eq!(flags.socket.as_deref(), Some("/tmp/v.sock"));
        assert_eq!(flags.listen.as_deref(), Some("127.0.0.1:0"));
        let c = flags.config;
        assert_eq!((c.jobs, c.cache_capacity), (3, 17));
        assert_eq!(c.cache_dir, Some("store".into()));
        assert_eq!(c.cache_max_bytes, Some(4096));
        assert_eq!(c.limits.max_request_bytes, 512);
        assert_eq!(c.limits.timeout, Some(Duration::from_millis(250)));
        assert_eq!(c.limits.fixpoint_iters, 9);
        // `vaultc serve` also spells `--jobs` as `-j`.
        let short = ServeFlags::parse(&args(&["-j", "5"]), &["--jobs", "-j"]).expect("-j");
        assert_eq!(short.config.jobs, 5);
        let none = ServeFlags::parse(&[], &["--jobs"]).expect("no flags");
        assert!(none.socket.is_none() && none.listen.is_none());
    }
}
