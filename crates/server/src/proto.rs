//! The `vaultd` JSON-lines wire protocol.
//!
//! One request per line, one response line per request, over stdio or a
//! Unix domain socket. Every request is a JSON object with an `"op"`
//! field and an optional numeric `"id"` echoed back in the response so
//! clients may pipeline.
//!
//! Requests:
//!
//! ```json
//! {"op":"check","id":1,"units":[{"name":"a.vlt","source":"..."}]}
//! {"op":"check-project","id":2,"units":[{"name":"kernel","source":"..."},{"name":"driver","source":"import \"kernel\";..."}]}
//! {"op":"emit-c","id":3,"unit":{"name":"a.vlt","source":"..."}}
//! {"op":"stats","id":4,"unit":{"name":"a.vlt","source":"..."}}
//! {"op":"status","id":5}
//! {"op":"clear-cache","id":6}
//! {"op":"shutdown","id":7}
//! ```
//!
//! `check-project` treats the units as an ordered project manifest:
//! units may `import` one another's export surfaces, the import DAG is
//! scheduled topologically, and replies come back in manifest order.
//!
//! Responses carry `"ok":true` plus op-specific payload, or
//! `"ok":false` with an `"error"` string. Diagnostics are structured
//! (code, severity, span, line/col, message, rendered) so clients never
//! parse human-readable output.
//!
//! The daemon writes `check` and `check-project` replies, the large ones,
//! straight to text with [`check_reply`] and [`check_project_reply`],
//! through the diagnostic writer the verdict store's unit records use.
//! [`encode_check`] and [`encode_check_project`] build the same replies as
//! [`Json`] trees: they are the reference encoders that tests and the
//! end-to-end benchmark compare the written lines against, byte for byte,
//! and the daemon never calls them. The other replies are small and go
//! through [`Json::to_line`].

use crate::json::{write_arr, write_escaped, Json, Obj, Out};
use crate::metrics::StatusSnapshot;
use crate::pool::UnitIn;
use vault_core::{CheckStats, CheckSummary, Verdict};
use vault_syntax::DiagView;

/// A decoded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Check a batch of compilation units.
    Check {
        /// The units, checked concurrently, answered in order.
        units: Vec<UnitIn>,
    },
    /// Check an ordered project manifest of units that may `import`
    /// one another.
    CheckProject {
        /// The units, in manifest order; answered in manifest order.
        units: Vec<UnitIn>,
    },
    /// Check one unit and, if accepted, translate it to C.
    EmitC {
        /// The unit.
        unit: UnitIn,
    },
    /// Check one unit and report checker-effort statistics.
    Stats {
        /// The unit.
        unit: UnitIn,
    },
    /// Report service counters.
    Status,
    /// Drop every memoized verdict.
    ClearCache,
    /// Close this connection; when the daemon serves a socket, also stop
    /// accepting new connections and exit.
    Shutdown,
}

fn parse_unit(v: &Json) -> Result<UnitIn, String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("unit missing string field `name`")?;
    let source = v
        .get("source")
        .and_then(Json::as_str)
        .ok_or("unit missing string field `source`")?;
    Ok(UnitIn {
        name: name.to_string(),
        source: source.to_string(),
    })
}

/// Decode one request line. Returns the echoed id (if any) and the
/// request; the id is returned even when decoding fails past it, so
/// error responses can still correlate.
pub fn parse_request(v: &Json) -> (Option<u64>, Result<Request, String>) {
    let id = v.get("id").and_then(Json::as_u64);
    let req = (|| {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request missing string field `op`")?;
        // The non-empty `units` array of a `check` or `check-project`.
        let units = |op: &str| -> Result<Vec<UnitIn>, String> {
            let units = v
                .get("units")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("`{op}` missing array field `units`"))?
                .iter()
                .map(parse_unit)
                .collect::<Result<Vec<_>, _>>()?;
            if units.is_empty() {
                return Err(format!("`{op}` requires at least one unit"));
            }
            Ok(units)
        };
        match op {
            "check" => Ok(Request::Check { units: units(op)? }),
            "check-project" => Ok(Request::CheckProject { units: units(op)? }),
            "emit-c" => Ok(Request::EmitC {
                unit: parse_unit(
                    v.get("unit")
                        .ok_or("`emit-c` missing object field `unit`")?,
                )?,
            }),
            "stats" => Ok(Request::Stats {
                unit: parse_unit(v.get("unit").ok_or("`stats` missing object field `unit`")?)?,
            }),
            "status" => Ok(Request::Status),
            "clear-cache" => Ok(Request::ClearCache),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    })();
    (id, req.map_err(|e: String| e))
}

fn base(id: Option<u64>, op: &str, ok: bool) -> Vec<(String, Json)> {
    let mut pairs = Vec::new();
    if let Some(id) = id {
        pairs.push(("id".to_string(), Json::num(id)));
    }
    pairs.push(("op".to_string(), Json::str(op)));
    pairs.push(("ok".to_string(), Json::Bool(ok)));
    pairs
}

/// Encode a protocol-level failure.
pub fn encode_error(id: Option<u64>, message: &str) -> Json {
    let mut pairs = base(id, "error", false);
    pairs.push(("error".to_string(), Json::str(message)));
    Json::Obj(pairs)
}

fn verdict_str(v: Verdict) -> &'static str {
    v.as_str()
}

/// One rendered diagnostic as a [`Json`] value, for the reference
/// encoders and `emit-c` replies. [`write_diag`] writes the same bytes
/// directly.
fn encode_diag(d: &DiagView) -> Json {
    Json::Obj(vec![
        ("code".to_string(), Json::str(&d.code)),
        ("severity".to_string(), Json::str(&d.severity)),
        ("message".to_string(), Json::str(&d.message)),
        ("start".to_string(), Json::num(d.start as u64)),
        ("end".to_string(), Json::num(d.end as u64)),
        ("line".to_string(), Json::num(d.line as u64)),
        ("col".to_string(), Json::num(d.col as u64)),
        (
            "labels".to_string(),
            Json::Arr(
                d.labels
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("message".to_string(), Json::str(&l.message)),
                            ("line".to_string(), Json::num(l.line as u64)),
                            ("col".to_string(), Json::num(l.col as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rendered".to_string(), Json::str(&d.rendered)),
    ])
}

/// Write one rendered diagnostic: the routine `check` and
/// `check-project` replies and the verdict store's unit records share.
pub(crate) fn write_diag<O: Out>(out: &mut O, d: &DiagView) {
    let mut o = Obj::open(out);
    o.str("code", &d.code);
    o.str("severity", &d.severity);
    o.str("message", &d.message);
    o.num("start", d.start as u64);
    o.num("end", d.end as u64);
    o.num("line", d.line as u64);
    o.num("col", d.col as u64);
    write_arr(o.key("labels"), &d.labels, |out, l| {
        let mut o = Obj::open(out);
        o.str("message", &l.message);
        o.num("line", l.line as u64);
        o.num("col", l.col as u64);
        o.close();
    });
    o.str("rendered", &d.rendered);
    o.close();
}

/// The verdict store's counter fields plus the five phase timings.
fn encode_stats(s: &CheckStats) -> Json {
    let counters = crate::persist::counters(s);
    let timings = [
        ("lex_micros", s.lex_micros),
        ("parse_micros", s.parse_micros),
        ("elaborate_micros", s.elaborate_micros),
        ("lower_micros", s.lower_micros),
        ("check_micros", s.check_micros),
    ];
    Json::Obj(
        counters
            .into_iter()
            .chain(timings)
            .map(|(key, value)| (key.to_string(), Json::num(value)))
            .collect(),
    )
}

/// The outcome of one unit within a `check` response.
#[derive(Clone, Debug)]
pub struct UnitReport {
    /// The check summary (possibly from cache).
    pub summary: std::sync::Arc<CheckSummary>,
    /// Whether the verdict came from the cache.
    pub cached: bool,
    /// Checker wall time for this unit (0 for cache hits).
    pub check_micros: u64,
}

/// The reply line to a `check` request, written straight to text; what
/// the daemon sends. Byte-identical to [`encode_check`]'s line.
pub fn check_reply(id: Option<u64>, reports: &[UnitReport], wall_micros: u64) -> String {
    write_check_reply(id, "check", reports, wall_micros)
}

/// The reply line to a `check-project` request, written straight to
/// text; what the daemon sends. Byte-identical to
/// [`encode_check_project`]'s line.
pub fn check_project_reply(id: Option<u64>, reports: &[UnitReport], wall_micros: u64) -> String {
    write_check_reply(id, "check-project", reports, wall_micros)
}

fn write_check_reply(
    id: Option<u64>,
    op: &str,
    reports: &[UnitReport],
    wall_micros: u64,
) -> String {
    let mut line = String::new();
    let mut o = Obj::open(&mut line);
    if let Some(id) = id {
        o.num("id", id);
    }
    o.str("op", op);
    o.bool("ok", true);
    o.num("wall_micros", wall_micros);
    write_arr(o.key("units"), reports, |out, r| {
        let mut o = Obj::open(out);
        o.str("name", &r.summary.name);
        o.str("verdict", verdict_str(r.summary.verdict));
        o.bool("cached", r.cached);
        o.num("check_micros", r.check_micros);
        write_arr(
            o.key("error_codes"),
            r.summary.error_codes(),
            |out, code| write_escaped(out, &code),
        );
        write_arr(o.key("diagnostics"), &r.summary.diagnostics, write_diag);
        o.close();
    });
    o.close();
    line
}

/// The reference encoder of the reply to a `check` request: builds the
/// [`Json`] tree whose `to_line` [`check_reply`] must equal byte for
/// byte. Tests and the end-to-end benchmark's reference call it; the
/// daemon does not.
pub fn encode_check(id: Option<u64>, reports: &[UnitReport], wall_micros: u64) -> Json {
    encode_check_as(id, "check", reports, wall_micros)
}

/// The reference encoder of the reply to a `check-project` request: the
/// same per-unit report shape as `check`, in manifest order, under the
/// `check-project` op. [`check_project_reply`] must equal its line.
pub fn encode_check_project(id: Option<u64>, reports: &[UnitReport], wall_micros: u64) -> Json {
    encode_check_as(id, "check-project", reports, wall_micros)
}

fn encode_check_as(id: Option<u64>, op: &str, reports: &[UnitReport], wall_micros: u64) -> Json {
    let mut pairs = base(id, op, true);
    pairs.push(("wall_micros".to_string(), Json::num(wall_micros)));
    pairs.push((
        "units".to_string(),
        Json::Arr(
            reports
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("name".to_string(), Json::str(&r.summary.name)),
                        (
                            "verdict".to_string(),
                            Json::str(verdict_str(r.summary.verdict)),
                        ),
                        ("cached".to_string(), Json::Bool(r.cached)),
                        ("check_micros".to_string(), Json::num(r.check_micros)),
                        (
                            "error_codes".to_string(),
                            Json::Arr(r.summary.error_codes().into_iter().map(Json::Str).collect()),
                        ),
                        (
                            "diagnostics".to_string(),
                            Json::Arr(r.summary.diagnostics.iter().map(encode_diag).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

/// Encode the response to an `emit-c` request. `c` is `Some` only when
/// the unit was accepted.
pub fn encode_emit_c(id: Option<u64>, summary: &CheckSummary, c: Option<&str>) -> Json {
    let mut pairs = base(id, "emit-c", true);
    pairs.push(("name".to_string(), Json::str(&summary.name)));
    pairs.push((
        "verdict".to_string(),
        Json::str(verdict_str(summary.verdict)),
    ));
    pairs.push((
        "diagnostics".to_string(),
        Json::Arr(summary.diagnostics.iter().map(encode_diag).collect()),
    ));
    if let Some(c) = c {
        pairs.push(("c".to_string(), Json::str(c)));
    }
    Json::Obj(pairs)
}

/// Encode the response to a `stats` request. The report carries the
/// unit's check wall time (zero when answered from the cache) so
/// clients can relate effort counters to elapsed time.
pub fn encode_stats_response(id: Option<u64>, report: &UnitReport) -> Json {
    let summary = &report.summary;
    let mut pairs = base(id, "stats", true);
    pairs.push(("name".to_string(), Json::str(&summary.name)));
    pairs.push((
        "verdict".to_string(),
        Json::str(verdict_str(summary.verdict)),
    ));
    pairs.push(("cached".to_string(), Json::Bool(report.cached)));
    pairs.push(("check_micros".to_string(), Json::num(report.check_micros)));
    pairs.push(("stats".to_string(), encode_stats(&summary.stats)));
    Json::Obj(pairs)
}

/// Encode the response to a `status` request. `store` carries the
/// verdict store's health counters (on-disk size, sealed/compacted/
/// quarantined segments, live frames, journal commits); those keys are
/// present only when the daemon runs with `--cache-dir`.
pub fn encode_status(
    id: Option<u64>,
    snap: &StatusSnapshot,
    workers: usize,
    cache_entries: usize,
    cache_capacity: usize,
    store: Option<crate::persist::StoreHealth>,
) -> Json {
    let mut pairs = base(id, "status", true);
    for (key, value) in snap.counters().into_iter().chain([
        ("uptime_micros", snap.uptime_micros),
        ("uptime_seconds", snap.uptime_micros / 1_000_000),
        ("workers", workers as u64),
        ("cache_entries", cache_entries as u64),
        ("cache_capacity", cache_capacity as u64),
    ]) {
        pairs.push((key.to_string(), Json::num(value)));
    }
    if let Some(h) = store {
        for (key, value) in [
            ("cache_disk_bytes", h.disk_bytes),
            ("segments_sealed", h.segments_sealed),
            ("compactions_run", h.compactions_run),
            ("bytes_reclaimed", h.bytes_reclaimed),
            ("segments_quarantined", h.segments_quarantined),
            ("live_frames", h.live_frames),
        ] {
            pairs.push((key.to_string(), Json::num(value)));
        }
    }
    Json::Obj(pairs)
}

/// Encode the acknowledgement of `clear-cache` or `shutdown`.
pub fn encode_ack(id: Option<u64>, op: &str) -> Json {
    Json::Obj(base(id, op, true))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::incremental::{FnVerdict, IncrementalEngine};
    use crate::json::parse;
    use crate::persist::Record;
    use std::sync::Arc;
    use vault_core::Limits;
    use vault_syntax::{Code, Diagnostic, LabelView, Span};

    /// Strings a writer must escape exactly as [`Json::to_line`] does:
    /// quotes, backslashes, every control byte, `\u{7f}` and non-ASCII.
    fn hostile_strings() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        vec![
            String::new(),
            "\"".to_string(),
            "\\".to_string(),
            "\\\"\"\\".to_string(),
            controls.clone(),
            "\u{7f}".to_string(),
            "ünïcodé ✓ 😀".to_string(),
            format!("a\"b\\c{controls}\u{7f}é😀\"\\"),
        ]
    }

    /// What the writer oracles walk: every corpus program and 504 small
    /// synth units (84 seeds of each of the six shapes), checked by the
    /// incremental engine so each unit also yields its function
    /// verdicts, plus a unit and a function verdict per hostile string.
    /// Returns the unit summaries and the function records.
    pub(crate) fn writer_inputs() -> (Vec<CheckSummary>, Vec<Record>) {
        use vault_corpus::synth::{self, Shape, SynthConfig};
        let mut sources: Vec<(String, String)> = vault_corpus::all_programs()
            .into_iter()
            .map(|p| (format!("{}.vlt", p.id), p.source))
            .collect();
        for shape in [
            Shape::Mixed,
            Shape::Straight,
            Shape::Branchy,
            Shape::Loopy,
            Shape::VariantHeavy,
            Shape::Sockets,
        ] {
            for seed in 1..=84 {
                let config = SynthConfig {
                    functions: 3,
                    stmts_per_fn: 6,
                    seed,
                    bug_rate: 0.5,
                    shape,
                };
                let name = format!("{shape:?}-{seed}.vlt");
                sources.push((name, synth::generate(&config).source));
            }
        }
        let engine = IncrementalEngine::new(8, 1 << 16);
        engine.enable_dirty_tracking();
        let (limits, metrics) = (Limits::default(), crate::metrics::Metrics::default());
        let mut summaries: Vec<CheckSummary> = sources
            .iter()
            .map(|(name, source)| {
                engine.check_unit_with_prelude(name, "", source, &limits, &metrics)
            })
            .collect();
        let mut fns: Vec<Record> = engine
            .take_dirty()
            .into_iter()
            .map(|(fp, views, stats)| Record::Fn { fp, views, stats })
            .collect();
        for (k, s) in hostile_strings().into_iter().enumerate() {
            let diag = DiagView {
                code: "V304".to_string(),
                severity: "error".to_string(),
                message: s.clone(),
                start: k as u32,
                end: 2 * k as u32,
                line: 1,
                col: k as u32 + 1,
                labels: vec![LabelView {
                    message: s.clone(),
                    line: 2,
                    col: 3,
                }],
                rendered: s.clone(),
            };
            let summary = CheckSummary {
                name: s.clone(),
                verdict: Verdict::Rejected,
                diagnostics: vec![diag],
                stats: CheckStats {
                    calls: k,
                    ..Default::default()
                },
            };
            let views = FnVerdict {
                diags: vec![Diagnostic::error(Code::KeyLeak, Span::new(0, 3), s.clone())
                    .with_label(Span::new(1, 2), s)],
                reads: Default::default(),
            };
            summaries.push(summary);
            fns.push(Record::Fn {
                fp: k as u64,
                views: Arc::new(views),
                stats: CheckStats {
                    joins: k,
                    ..Default::default()
                },
            });
        }
        (summaries, fns)
    }

    #[test]
    fn check_replies_match_the_reference_encoder() {
        let reports: Vec<UnitReport> = writer_inputs()
            .0
            .into_iter()
            .enumerate()
            .map(|(i, summary)| UnitReport {
                summary: Arc::new(summary),
                cached: i % 3 == 0,
                check_micros: i as u64 * 37,
            })
            .collect();
        let mut rejected = 0;
        for (i, report) in reports.iter().enumerate() {
            let one = std::slice::from_ref(report);
            let id = (i % 2 == 0).then_some(i as u64);
            let line = check_reply(id, one, 1000 + i as u64);
            assert_eq!(line, encode_check(id, one, 1000 + i as u64).to_line());
            let line = check_project_reply(id, one, i as u64);
            assert_eq!(line, encode_check_project(id, one, i as u64).to_line());
            rejected += usize::from(report.summary.verdict == Verdict::Rejected);
        }
        assert!(rejected > 100, "the walk covers diagnostics: {rejected}");
        // Whole batches, as `check` and `check-project` answer them, and
        // ids an `f64` holds exactly, rounds, or saturates.
        for id in [u64::MAX >> 11, 1 << 60, u64::MAX] {
            assert_eq!(
                check_reply(Some(id), &reports, 0),
                encode_check(Some(id), &reports, 0).to_line()
            );
        }
        assert_eq!(
            check_project_reply(None, &reports, 7),
            encode_check_project(None, &reports, 7).to_line()
        );
    }

    #[test]
    fn parses_every_op() {
        let line = r#"{"op":"check","id":9,"units":[{"name":"a","source":"s"}]}"#;
        let (id, req) = parse_request(&parse(line).unwrap());
        assert_eq!(id, Some(9));
        assert_eq!(
            req.unwrap(),
            Request::Check {
                units: vec![UnitIn {
                    name: "a".into(),
                    source: "s".into()
                }]
            }
        );
        for (line, want) in [
            (r#"{"op":"status"}"#, Request::Status),
            (r#"{"op":"clear-cache"}"#, Request::ClearCache),
            (r#"{"op":"shutdown"}"#, Request::Shutdown),
        ] {
            let (id, req) = parse_request(&parse(line).unwrap());
            assert_eq!(id, None);
            assert_eq!(req.unwrap(), want);
        }
        let (_, req) =
            parse_request(&parse(r#"{"op":"emit-c","unit":{"name":"a","source":"s"}}"#).unwrap());
        assert!(matches!(req.unwrap(), Request::EmitC { .. }));
        let (_, req) =
            parse_request(&parse(r#"{"op":"stats","unit":{"name":"a","source":"s"}}"#).unwrap());
        assert!(matches!(req.unwrap(), Request::Stats { .. }));
        let (id, req) = parse_request(
            &parse(r#"{"op":"check-project","id":11,"units":[{"name":"a","source":"s"}]}"#)
                .unwrap(),
        );
        assert_eq!(id, Some(11));
        assert_eq!(
            req.unwrap(),
            Request::CheckProject {
                units: vec![UnitIn {
                    name: "a".into(),
                    source: "s".into()
                }]
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            r#"{}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"check"}"#,
            r#"{"op":"check","units":[]}"#,
            r#"{"op":"check","units":[{"name":"a"}]}"#,
            r#"{"op":"check-project"}"#,
            r#"{"op":"check-project","units":[]}"#,
            r#"{"op":"emit-c"}"#,
        ] {
            let (_, req) = parse_request(&parse(line).unwrap());
            assert!(req.is_err(), "{line} should be rejected");
        }
        // The id survives even when the body is malformed.
        let (id, req) = parse_request(&parse(r#"{"id":3,"op":"check"}"#).unwrap());
        assert_eq!(id, Some(3));
        assert!(req.is_err());
    }

    #[test]
    fn status_reports_uptime_seconds_and_optional_store_health() {
        // Distinct values, so the exact line below pins every key, its
        // value and the wire order.
        let snap = StatusSnapshot {
            requests: 1,
            units_checked: 2,
            cache_hits: 3,
            cache_misses: 4,
            fn_cache_hits: 5,
            fn_cache_misses: 6,
            queue_depth: 7,
            queue_peak: 8,
            check_micros: 9,
            request_micros: 10,
            requests_failed: 11,
            accept_errors: 12,
            singleflight_joins: 13,
            panics_caught: 14,
            deadline_exceeded: 15,
            workers_respawned: 16,
            lex_micros: 17,
            parse_micros: 18,
            elaborate_micros: 19,
            lower_micros: 20,
            cache_load_errors: 21,
            cache_append_errors: 22,
            units_scheduled: 23,
            units_reused: 24,
            cutoff_hits: 25,
            journal_commits: 37,
            journal_sync_micros: 38,
            uptime_micros: 26_500_000, // 26.5s → 26 whole seconds
        };
        // Memory-only daemon: no store-health keys at all.
        let without = encode_status(Some(1), &snap, 2, 0, 16, None);
        assert_eq!(
            without.get("uptime_seconds").and_then(Json::as_u64),
            Some(26)
        );
        for key in [
            "cache_disk_bytes",
            "segments_sealed",
            "compactions_run",
            "bytes_reclaimed",
            "segments_quarantined",
            "live_frames",
        ] {
            assert!(without.get(key).is_none(), "{key} must be absent");
        }
        // With --cache-dir: every store-health key is carried.
        let health = crate::persist::StoreHealth {
            segments_sealed: 31,
            compactions_run: 33,
            bytes_reclaimed: 34,
            segments_quarantined: 35,
            live_frames: 36,
            disk_bytes: 30,
        };
        assert_eq!(
            encode_status(Some(9), &snap, 27, 28, 29, Some(health)).to_line(),
            "{\"id\":9,\"op\":\"status\",\"ok\":true,\"requests\":1,\"units_checked\":2,\
             \"cache_hits\":3,\"cache_misses\":4,\"singleflight_joins\":13,\
             \"fn_cache_hits\":5,\"fn_cache_misses\":6,\"units_scheduled\":23,\
             \"units_reused\":24,\"cutoff_hits\":25,\"queue_depth\":7,\"queue_peak\":8,\
             \"check_micros\":9,\"request_micros\":10,\"requests_failed\":11,\
             \"accept_errors\":12,\"panics_caught\":14,\"deadline_exceeded\":15,\
             \"workers_respawned\":16,\"lex_micros\":17,\"parse_micros\":18,\
             \"elaborate_micros\":19,\"lower_micros\":20,\"cache_load_errors\":21,\
             \"cache_append_errors\":22,\"journal_commits\":37,\"journal_sync_micros\":38,\
             \"uptime_micros\":26500000,\"uptime_seconds\":26,\
             \"workers\":27,\"cache_entries\":28,\"cache_capacity\":29,\
             \"cache_disk_bytes\":30,\"segments_sealed\":31,\
             \"compactions_run\":33,\"bytes_reclaimed\":34,\"segments_quarantined\":35,\
             \"live_frames\":36}"
        );
    }

    #[test]
    fn error_encoding_is_flagged_not_ok() {
        let e = encode_error(Some(5), "boom");
        assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(e.get("id").and_then(Json::as_u64), Some(5));
        assert_eq!(e.get("error").and_then(Json::as_str), Some("boom"));
    }
}
