//! The traced run: per-layer numbers from outside the program.
//!
//! A prefix of each stream is replayed in-process against a
//! [`CheckService`] configured exactly like the daemon, on the same
//! number of client threads, and every call into a layer's public
//! functions is wrapped in a span recorded by this package. Spans live
//! in memory and are written to `target/e2e_bench/<workload>.trace.json`
//! when the run ends. Two span trees must sum exactly:
//!
//! * `request = wire.decode + service.check + wire.encode + request.other`
//! * `unit = syntax.front + core.elaborate + core.check + core.other`,
//!   for every unit the service did not answer from cache, rebuilt in a
//!   sequential second pass from the public calls that make up
//!   `vault_core::check_source_with_limits`. The rebuilt summary must
//!   equal the library's own.
//!
//! `request.other` and `core.other` are self times: a span's duration
//! minus what its children cover. Phase micros inside a reply's
//! `CheckStats` are never used: the incremental engine folds a reused
//! function's original timings into the unit, so they over-attribute.
//!
//! The run has four phases over one prefix:
//! A. traced replay, for a tenth of the run time;
//! B. the same prefix with span recording off (tracing overhead);
//! M. the same prefix through `vaultd`'s socket (front-end cost);
//! C. the sequential unit rebuild, plus benchmark-owned calls into the
//!    incremental engine, the project planner and the verdict store on
//!    the same records, and a reference check of every replayed reply.

use crate::daemon::{copy_store, CpuClock, Daemon, DaemonConfig};
use crate::drive;
use crate::e2e::{prime_store, Assessment, Metric};
use crate::reference::{expected_reply, normalize};
use crate::stats::{median, ratio};
use crate::stream::{Op, Request, Workload};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use vault_core::check::{check_function_with_limits, CheckStats};
use vault_core::{elaborate, CheckResult, CheckSummary, Limits};
use vault_project::{ProjectPlan, ProjectUnit};
use vault_server::persist::{Record, StoreConfig, VerdictStore};
use vault_server::proto::{self, parse_request};
use vault_server::{unit_fingerprint, CheckService, IncrementalEngine, Json, Metrics, UnitIn};
use vault_syntax::{parse_program_with_depth_timed, Attribution, Code, DiagSink, SourceMap};

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to (`conn << 32 | index`).
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The self time of `parent`: its duration minus what `children`
/// cover. Errors unless every child lies inside the parent and no two
/// children overlap, which makes `parent = Σ children + self` exact.
pub fn self_time(parent: &Span, children: &[&Span]) -> Result<u64, String> {
    let mut kids: Vec<&Span> = children.to_vec();
    kids.sort_by_key(|s| s.start_ns);
    let mut cursor = parent.start_ns;
    for k in &kids {
        if k.start_ns < cursor || k.end_ns > parent.end_ns || k.end_ns < k.start_ns {
            return Err(format!(
                "span {} [{}, {}] does not fit inside {} [{}, {}] after its earlier siblings",
                k.name, k.start_ns, k.end_ns, parent.name, parent.start_ns, parent.end_ns
            ));
        }
        cursor = k.end_ns;
    }
    Ok(parent.dur() - kids.iter().map(|k| k.dur()).sum::<u64>())
}

/// Check that every root span named `root` has exactly the children
/// `expected`, and return the roots' self times.
pub fn check_tree(spans: &[Span], root: &str, expected: &[&str]) -> Result<Vec<u64>, String> {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s);
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root && s.parent.is_none())
        .map(|(i, s)| {
            let mut names: Vec<&str> = children[i].iter().map(|c| c.name).collect();
            names.sort_unstable();
            let mut want = expected.to_vec();
            want.sort_unstable();
            if names != want {
                return Err(format!("{root} span has children {names:?}, want {want:?}"));
            }
            self_time(s, &children[i])
        })
        .collect()
}

/// Spans of one thread, kept in memory.
pub struct Recorder {
    origin: Instant,
    /// Recorded spans; `parent` indexes into this vector.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing from `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Now, in ns since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span and return its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Serve one request line in-process through the same public calls the
/// daemon's request path makes, recording the `request` tree when
/// `rec` is given. Returns the reply line and the request's duration.
pub fn serve(
    svc: &CheckService,
    line: &str,
    rec: Option<&mut Recorder>,
    request: u64,
) -> (String, u64) {
    let start = Instant::now();
    let d0 = Instant::now();
    let v = vault_server::parse_json(line).expect("generated request lines are JSON");
    let (id, parsed) = parse_request(&v);
    let d1 = Instant::now();
    let parsed = parsed.expect("generated requests are well-formed");
    let c0 = Instant::now();
    let (reports, wall, project) = match parsed {
        vault_server::Request::Check { units } => {
            let (r, w) = svc.check_units(units);
            (r, w, false)
        }
        vault_server::Request::CheckProject { units } => {
            let (r, w) = svc.check_project(units);
            (r, w, true)
        }
        _ => unreachable!("streams carry only check requests"),
    };
    let c1 = Instant::now();
    let e0 = Instant::now();
    let reply = if project {
        proto::encode_check_project(id, &reports, wall)
    } else {
        proto::encode_check(id, &reports, wall)
    }
    .to_line();
    let e1 = Instant::now();
    let end = Instant::now();
    if let Some(rec) = rec {
        let origin = rec.origin;
        let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
        let root = rec.push("request", ns(start), ns(end), None, request);
        rec.push("wire.decode", ns(d0), ns(d1), Some(root), request);
        rec.push("service.check", ns(c0), ns(c1), Some(root), request);
        rec.push("wire.encode", ns(e0), ns(e1), Some(root), request);
    }
    (reply, (end - start).as_nanos() as u64)
}

/// `check_source_with_limits` plus the summary step, rebuilt from the
/// public calls they consist of, recording the `unit` tree. `prelude`
/// is the project-mode dependency prelude (empty for a plain unit).
/// Returns the summary and the front end's lex/parse split.
pub fn rebuild_unit(
    rec: &mut Recorder,
    request: u64,
    name: &str,
    prelude: &str,
    src: &str,
    limits: &Limits,
) -> (CheckSummary, vault_syntax::FrontEndTiming) {
    let t0 = rec.now();
    let attr = Attribution::with_prelude(name, prelude, src);
    let text = attr.full_text();
    let source = SourceMap::new(name, text);
    let mut diags = DiagSink::new();
    let f0 = rec.now();
    let (program, front) = parse_program_with_depth_timed(text, &mut diags, limits.parser_depth);
    let f1 = rec.now();
    let elaborated = elaborate(&program, &mut diags);
    let e1 = rec.now();
    let mut stats = CheckStats {
        lex_micros: front.lex_micros,
        parse_micros: front.parse_micros,
        elaborate_micros: elaborated.elaborate_micros,
        lower_micros: elaborated.lower_micros,
        ..CheckStats::default()
    };
    for f in &elaborated.bodies {
        stats.absorb(check_function_with_limits(
            &elaborated.world,
            &elaborated.syms,
            &elaborated.aliases,
            &elaborated.qualifiers,
            &elaborated.base_keys,
            f,
            &mut diags,
            limits,
        ));
        if diags.has_code(Code::LimitExceeded) {
            break;
        }
    }
    let k1 = rec.now();
    let result = CheckResult {
        source,
        program,
        elaborated,
        diagnostics: diags.into_vec(),
        stats,
    };
    let summary = if prelude.is_empty() {
        CheckSummary::of(name, &result)
    } else {
        CheckSummary {
            name: name.to_string(),
            verdict: result.verdict(),
            diagnostics: result.diagnostics.iter().map(|d| attr.view(d)).collect(),
            stats: result.stats,
        }
    };
    let t1 = rec.now();
    let root = rec.push("unit", t0, t1, None, request);
    rec.push("syntax.front", f0, f1, Some(root), request);
    rec.push("core.elaborate", f1, e1, Some(root), request);
    rec.push("core.check", e1, k1, Some(root), request);
    (summary, front)
}

/// One replayed request.
struct Replayed {
    conn: usize,
    index: usize,
    /// Position in the global completion order.
    seq: usize,
    reply: String,
    ns: u64,
    line_bytes: usize,
}

/// Replay the streams in-process on one thread per connection, either
/// until `deadline` or over exactly `prefix[conn]` requests, recording
/// the request trees against `origin` when it is given.
fn replay(
    svc: &CheckService,
    streams: &[Vec<Request>],
    deadline: Option<Duration>,
    prefix: Option<&[usize]>,
    origin: Option<Instant>,
) -> (Vec<Replayed>, Recorder) {
    let seq = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread: Vec<(Vec<Replayed>, Option<Recorder>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(conn, stream)| {
                let seq = &seq;
                s.spawn(move || {
                    let mut rec = origin.map(Recorder::new);
                    let n = prefix.map_or(stream.len(), |p| p[conn]);
                    let mut out = Vec::new();
                    for (index, req) in stream.iter().enumerate().take(n) {
                        if deadline.is_some_and(|d| start.elapsed() >= d) {
                            break;
                        }
                        let line = req.line(index as u64);
                        let request = ((conn as u64) << 32) | index as u64;
                        let (reply, ns) = serve(svc, &line, rec.as_mut(), request);
                        out.push(Replayed {
                            conn,
                            index,
                            seq: seq.fetch_add(1, Ordering::Relaxed),
                            reply,
                            ns,
                            line_bytes: line.len(),
                        });
                    }
                    (out, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut all = Recorder::new(origin.unwrap_or_else(Instant::now));
    let mut replies = Vec::new();
    for (out, rec) in per_thread {
        replies.extend(out);
        if let Some(rec) = rec {
            all.absorb(rec);
        }
    }
    replies.sort_by_key(|r| r.seq);
    (replies, all)
}

/// An independent cache key for reference answers (SipHash, not the
/// daemon's FNV fingerprints).
fn reference_key(name: &str, prelude: &str, src: &str) -> u64 {
    let mut h = DefaultHasher::new();
    (name, prelude, src).hash(&mut h);
    h.finish()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run the traced replay of `w` for about `seconds` in `scratch`.
pub fn run(
    vaultd: &Path,
    w: &Workload,
    seconds: f64,
    scratch: &Path,
) -> Result<Assessment, String> {
    let err = |e: std::io::Error| format!("{}: {e}", w.name);
    let limits = Limits::default();
    let primed = scratch.join("primed");
    let mut base = DaemonConfig {
        cache_capacity: w.cache_capacity,
        cache_dir: primed.clone(),
        cache_max_bytes: None,
    };
    if !w.prime.is_empty() {
        base.cache_max_bytes = Some((prime_store(&base, &w.prime) / 2).max(1));
    }
    let config = |tag: &str| -> Result<DaemonConfig, String> {
        let dir = scratch.join(tag);
        copy_store(&primed, &dir).map_err(err)?;
        Ok(DaemonConfig {
            cache_dir: dir,
            ..base.clone()
        })
    };

    // A: traced replay.
    let cfg_a = config("traced")?;
    let svc = CheckService::new(cfg_a.service_config());
    let before = svc.status();
    let origin = Instant::now();
    let (traced, mut rec) = replay(
        &svc,
        &w.streams,
        Some(Duration::from_secs_f64(seconds / 10.0)),
        None,
        Some(origin),
    );
    let after = svc.status();
    svc.drain(Duration::from_secs(30));
    drop(svc);
    let mut prefix = vec![0usize; w.streams.len()];
    for r in &traced {
        prefix[r.conn] = prefix[r.conn].max(r.index + 1);
    }

    // B: the same prefix, untraced.
    let svc = CheckService::new(config("untraced")?.service_config());
    let (plain, _) = replay(&svc, &w.streams, None, Some(&prefix), None);
    svc.drain(Duration::from_secs(30));
    drop(svc);

    // M: the same prefix through the daemon's socket.
    let daemon =
        Daemon::spawn(vaultd, &scratch.join("vaultd.sock"), &config("socket")?).map_err(err)?;
    let slices: Vec<&[Request]> = w
        .streams
        .iter()
        .zip(&prefix)
        .map(|(s, &n)| &s[..n])
        .collect();
    let over_socket = drive::closed_loop(
        daemon.socket(),
        CpuClock::of(daemon.pid()).map_err(err)?,
        &slices,
        &|_, _| false,
        Instant::now(),
        Duration::MAX,
    )
    .map_err(err)?;
    daemon.shutdown().map_err(err)?;

    // C: sequential unit rebuild, layer calls and reference checks.
    let cap = cfg_a.service_config().cache_capacity;
    let engine = IncrementalEngine::new(cap, cap * 16);
    engine.enable_dirty_tracking();
    let engine_metrics = Metrics::default();
    let (store, _) =
        VerdictStore::open(&scratch.join("append"), StoreConfig::default()).map_err(err)?;
    let mut memo: HashMap<String, (u64, CheckSummary)> = HashMap::new();
    let mut mismatches = Vec::new();
    let (mut plan_ns, mut fp_ns, mut engine_ns, mut append_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut append_errors = 0u64;
    let (mut units_rebuilt, mut text_bytes, mut lex_us, mut parse_us) = (0u64, 0u64, 0u64, 0u64);
    let (mut joins, mut loops, mut frames) = (0u64, 0u64, 0u64);
    let (mut reply_bytes, mut line_bytes) = (0usize, 0usize);
    for r in &traced {
        let req = &w.streams[r.conn][r.index];
        let request = ((r.conn as u64) << 32) | r.index as u64;
        let units: Vec<UnitIn> = req.units_in();
        let reply = vault_server::parse_json(&r.reply)
            .map_err(|e| format!("{}: bad reply: {e}", w.name))?;
        let cached: Vec<bool> = reply
            .get("units")
            .and_then(Json::as_arr)
            .map(|us| {
                us.iter()
                    .map(|u| u.get("cached").and_then(Json::as_bool) == Some(true))
                    .collect()
            })
            .unwrap_or_default();
        let project_units: Vec<ProjectUnit> = units
            .iter()
            .map(|u| ProjectUnit::new(&u.name, &u.source))
            .collect();
        let t = Instant::now();
        let plan = ProjectPlan::build(&project_units, limits.parser_depth);
        plan_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for u in &units {
            std::hint::black_box(unit_fingerprint(&u.name, &u.source));
        }
        fp_ns += t.elapsed().as_nanos() as u64;

        let project = req.op == Op::CheckProject;
        let mut summaries = Vec::with_capacity(units.len());
        let mut records = Vec::new();
        for (i, u) in units.iter().enumerate() {
            let up = &plan.units[i];
            let prelude = if project { up.prelude.as_str() } else { "" };
            let key = reference_key(&u.name, prelude, &u.source);
            let summary = if cached.get(i) == Some(&false) && !(project && up.cyclic) {
                let (rebuilt, front) =
                    rebuild_unit(&mut rec, request, &u.name, prelude, &u.source, &limits);
                let library = if project {
                    vault_core::check_summary_with_prelude(&u.name, prelude, &u.source, &limits)
                } else {
                    vault_core::check_summary(&u.name, &u.source)
                };
                if rebuilt != library {
                    mismatches.push(format!(
                        "{}: rebuilt summary of {} differs from the library's",
                        w.name, u.name
                    ));
                }
                units_rebuilt += 1;
                text_bytes += (prelude.len() + u.source.len()) as u64;
                lex_us += front.lex_micros;
                parse_us += front.parse_micros;
                joins += rebuilt.stats.joins as u64;
                loops += rebuilt.stats.loop_iterations as u64;
                frames += rebuilt.stats.frames_copied as u64;
                let t = Instant::now();
                engine.check_unit_with_prelude(
                    &u.name,
                    prelude,
                    &u.source,
                    &limits,
                    &engine_metrics,
                );
                engine_ns += t.elapsed().as_nanos() as u64;
                let summary = if project {
                    vault_project::fold_graph_diags(up, rebuilt)
                } else {
                    rebuilt
                };
                let fp = if project {
                    up.project_fingerprint
                } else {
                    unit_fingerprint(&u.name, &u.source)
                };
                records.push(Record::Unit {
                    fp,
                    summary: summary.clone(),
                });
                memo.insert(u.name.clone(), (key, summary.clone()));
                summary
            } else {
                match memo.get(&u.name) {
                    Some((k, s)) if *k == key => s.clone(),
                    _ => {
                        let s = if project && up.cyclic {
                            vault_project::cyclic_summary(up)
                        } else if project {
                            let s = vault_core::check_summary_with_prelude(
                                &u.name, prelude, &u.source, &limits,
                            );
                            vault_project::fold_graph_diags(up, s)
                        } else {
                            vault_core::check_summary(&u.name, &u.source)
                        };
                        memo.insert(u.name.clone(), (key, s.clone()));
                        s
                    }
                }
            };
            summaries.push(summary);
        }
        records.extend(
            engine
                .take_dirty()
                .into_iter()
                .map(|(fp, views, stats)| Record::Fn { fp, views, stats }),
        );
        let t = Instant::now();
        if store.append(&records).is_err() {
            append_errors += 1;
        }
        append_ns += t.elapsed().as_nanos() as u64;
        let want = expected_reply(req.op, r.index as u64, &summaries);
        if normalize(&r.reply)? != want {
            mismatches.push(format!(
                "{}: reply to conn {} request {} differs from the reference",
                w.name, r.conn, r.index
            ));
        }
        reply_bytes += r.reply.len();
        line_bytes += r.line_bytes;
    }
    drop(store);

    let request_other = check_tree(
        &rec.spans,
        "request",
        &["wire.decode", "service.check", "wire.encode"],
    )?;
    let unit_other = check_tree(
        &rec.spans,
        "unit",
        &["syntax.front", "core.elaborate", "core.check"],
    )?;
    let mean_span = |name: &str| {
        let d: Vec<u64> = rec
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect();
        ratio(ms(d.iter().sum()), d.len() as f64)
    };

    // Replay of the traced service's store, as a boot would.
    let mut replays = Vec::new();
    let mut store_bytes = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let (store, _) =
            VerdictStore::open(&cfg_a.cache_dir, StoreConfig::default()).map_err(err)?;
        replays.push(ms(t.elapsed().as_nanos() as u64));
        store_bytes = store.health().disk_bytes;
    }

    let n = traced.len() as f64;
    let delta =
        |pick: fn(&vault_server::StatusSnapshot) -> u64| (pick(&after) - pick(&before)) as f64;
    let traced_p50 = median(&traced.iter().map(|r| ms(r.ns)).collect::<Vec<_>>());
    let plain_p50 = median(&plain.iter().map(|r| ms(r.ns)).collect::<Vec<_>>());
    let socket_p50 = median(
        &over_socket
            .outcomes
            .iter()
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let fn_hits = engine_metrics.fn_cache_hits.load(Ordering::Relaxed) as f64;
    let fn_misses = engine_metrics.fn_cache_misses.load(Ordering::Relaxed) as f64;
    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    let metrics = vec![
        m("wire.decode_ms", "ms", mean_span("wire.decode")),
        m("wire.encode_ms", "ms", mean_span("wire.encode")),
        m(
            "wire.request_kb",
            "KB",
            ratio(line_bytes as f64 / 1024.0, n),
        ),
        m("wire.reply_kb", "KB", ratio(reply_bytes as f64 / 1024.0, n)),
        m("mux.frontend_ms", "ms", socket_p50 - plain_p50),
        m("service.check_ms", "ms", mean_span("service.check")),
        m("service.fingerprint_ms", "ms", ratio(ms(fp_ns), n)),
        m(
            "service.unit_hit_ratio",
            "fraction",
            ratio(delta(|s| s.cache_hits), delta(|s| s.units_checked)),
        ),
        m(
            "service.singleflight_joins_per_kreq",
            "count",
            ratio(delta(|s| s.singleflight_joins) * 1e3, n),
        ),
        m(
            "service.pipeline_runs_per_req",
            "count",
            ratio(delta(|s| s.cache_misses), n),
        ),
        m("service.queue_peak", "count", after.queue_peak as f64),
        m(
            "request.other_ms",
            "ms",
            ratio(ms(request_other.iter().sum()), request_other.len() as f64),
        ),
        m(
            "incremental.fn_hit_ratio",
            "fraction",
            ratio(fn_hits, fn_hits + fn_misses),
        ),
        m(
            "incremental.fns_rechecked_per_req",
            "count",
            ratio(fn_misses, n),
        ),
        m("incremental.check_ms", "ms", ratio(ms(engine_ns), n)),
        m("syntax.front_ms", "ms", mean_span("syntax.front")),
        m(
            "syntax.lex_ms",
            "ms",
            ratio(lex_us as f64 / 1e3, units_rebuilt as f64),
        ),
        m(
            "syntax.parse_ms",
            "ms",
            ratio(parse_us as f64 / 1e3, units_rebuilt as f64),
        ),
        m(
            "syntax.mb_per_s",
            "MB/s",
            ratio(
                text_bytes as f64 / 1e6,
                mean_span("syntax.front") / 1e3 * units_rebuilt as f64,
            ),
        ),
        m("core.elaborate_ms", "ms", mean_span("core.elaborate")),
        m("core.check_ms", "ms", mean_span("core.check")),
        m(
            "core.other_ms",
            "ms",
            ratio(ms(unit_other.iter().sum()), unit_other.len() as f64),
        ),
        m(
            "core.joins_per_unit",
            "count",
            ratio(joins as f64, units_rebuilt as f64),
        ),
        m(
            "core.loop_iterations_per_unit",
            "count",
            ratio(loops as f64, units_rebuilt as f64),
        ),
        m(
            "core.frames_copied_per_unit",
            "count",
            ratio(frames as f64, units_rebuilt as f64),
        ),
        m("project.plan_ms", "ms", ratio(ms(plan_ns), n)),
        m(
            "project.units_scheduled_per_req",
            "count",
            ratio(delta(|s| s.units_scheduled), n),
        ),
        m(
            "project.cutoff_hits_per_req",
            "count",
            ratio(delta(|s| s.cutoff_hits), n),
        ),
        m("persist.append_ms", "ms", ratio(ms(append_ns), n)),
        m("persist.replay_ms", "ms", median(&replays)),
        m(
            "persist.store_mb",
            "MB",
            store_bytes as f64 / (1024.0 * 1024.0),
        ),
        m("persist.append_errors", "count", append_errors as f64),
        m(
            "trace.overhead_frac",
            "fraction",
            ratio(traced_p50, plain_p50) - 1.0,
        ),
    ];

    let trace_path = scratch
        .parent()
        .unwrap_or(scratch)
        .join(format!("{}.trace.json", w.name));
    write_spans(&trace_path, w.name, &rec.spans).map_err(err)?;
    let notes = vec![
        format!(
            "{} requests replayed (prefix {:?}), {} units rebuilt; request p50 traced {traced_p50:.4} ms, \
             untraced {plain_p50:.4} ms, over the socket {socket_p50:.4} ms",
            traced.len(),
            prefix,
            units_rebuilt
        ),
        format!(
            "sum rules held on {} request trees and {} unit trees; spans written to {}",
            request_other.len(),
            unit_other.len(),
            trace_path.display()
        ),
    ];
    Ok(Assessment {
        attempted: traced.len(),
        failed: mismatches.len(),
        mismatches,
        metrics,
        notes,
    })
}

fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let items = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".to_string(), Json::str(s.name)),
                ("start_ns".to_string(), Json::num(s.start_ns)),
                ("end_ns".to_string(), Json::num(s.end_ns)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                ),
                ("request".to_string(), Json::num(s.request)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("workload".to_string(), Json::str(workload)),
        ("spans".to_string(), Json::Arr(items)),
    ]);
    std::fs::write(path, doc.to_line() + "\n")
}
