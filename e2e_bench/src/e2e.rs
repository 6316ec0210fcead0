//! The end-to-end run: drive `vaultd` over its socket, then score the
//! replies and the daemon's resource use.
//!
//! A run is [`REPLAYS`] replays of one stream. Each replay boots a fresh
//! daemon on a fresh copy of the workload's store and drives the whole
//! stream, so every request meets the same daemon state each time. A
//! request's latency, and in a closed loop the server CPU it took, is
//! the median of its replays: a stolen time slice, a late wake-up or a
//! slow disk flush lands on one replay of a request, seldom on most of
//! them, while a change to the program moves every replay alike. (The
//! best of the replays would shed more of that, but on a shared host
//! each virtual CPU flips between a fast and a slow state several times
//! a second, with a share of fast time that drifts over minutes; a best
//! then reads the fast state in one run and the slow one in the next.)

use crate::daemon::{self, copy_store, CpuClock, DaemonConfig};
use crate::drive::{self, Outcome, Run};
use crate::reference::{expected_reply, normalize, reference_summaries};
use crate::stats::{median, percentile};
use crate::stream::{Load, Unit, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use vault_server::{CheckService, Json};

/// Replays per run.
pub const REPLAYS: usize = 5;

/// Boots per replay; `setup_s` is the median of every boot of a run.
pub const BOOTS_PER_REPLAY: usize = 5;

/// A closed-loop replay sends nothing more once this multiple of its
/// share of the run time has passed, so a run on a slowed host still
/// ends in time. Its replies then cover a prefix of the stream.
const DEADLINE_FACTOR: f64 = 1.6;

/// One reply in this many is checked against the reference.
const SAMPLE_ONE_IN: u64 = 10;

/// `status` counters whose change over a replay is reported.
const STATUS_KEYS: [&str; 11] = [
    "units_checked",
    "cache_hits",
    "cache_misses",
    "singleflight_joins",
    "fn_cache_hits",
    "fn_cache_misses",
    "units_scheduled",
    "cutoff_hits",
    "compactions_run",
    "cache_append_errors",
    "requests_failed",
];

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Whether the reply to request `index` of connection `conn` is in the
/// seeded sample checked against the reference. The sample is the same
/// in every replay.
pub fn sampled(seed: u64, conn: usize, index: usize) -> bool {
    let mut rng = StdRng::seed_from_u64(seed ^ ((conn as u64) << 48) ^ index as u64);
    rng.gen_range(0..SAMPLE_ONE_IN) == 0
}

/// Journal `units` into the verdict store of `config` through an
/// in-process service configured like the daemon, and return the
/// store's size in bytes.
pub fn prime_store(config: &DaemonConfig, units: &[Unit]) -> u64 {
    let svc = CheckService::new(config.service_config());
    for batch in units.chunks(64) {
        svc.check_units(batch.iter().map(Unit::to_unit_in).collect());
    }
    let bytes = svc.cache_disk_bytes().unwrap_or(0);
    svc.drain(Duration::from_secs(30));
    bytes
}

/// What one driven replay measured, before scoring.
pub struct Measurement {
    /// The client-side record.
    pub run: Run,
    /// Open loop: the measured span, in seconds since the replay's
    /// origin, from the moment every connection has its first reply (a
    /// stream's first request checks everything cold) to the last
    /// scheduled send.
    pub span: (f64, f64),
    /// Peak resident set of the server, in MiB.
    pub peak_rss_mb: f64,
    /// Change of each [`STATUS_KEYS`] counter over the replay.
    pub counters: Vec<(&'static str, u64)>,
    /// Share of this machine's CPU time its virtual CPUs spent waiting
    /// for the hypervisor during the replay (`steal` in `/proc/stat`),
    /// when the kernel reports it.
    pub host_steal_frac: Option<f64>,
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Drive `w` against the server on `socket` (process `pid`), keeping
/// the seeded sample of replies. A closed loop sends nothing after
/// `deadline`.
pub fn measure(
    socket: &Path,
    pid: u32,
    w: &Workload,
    seed: u64,
    deadline: Duration,
) -> io::Result<Measurement> {
    let server = CpuClock::of(pid)?;
    let before = daemon::status(socket)?;
    let host_before = host_ticks();
    let run = drive::drive(
        socket,
        server,
        w,
        &|c, i| sampled(seed, c, i),
        Instant::now(),
        deadline,
    )?;
    let host_steal_frac = match (host_before, host_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    let peak_rss_mb = daemon::peak_rss_mb(pid)?;
    let after = daemon::status(socket)?;
    let count = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    let warm = run
        .outcomes
        .iter()
        .filter(|o| o.index == 0)
        .map(|o| (o.sent + o.latency).as_secs_f64())
        .fold(0.0, f64::max);
    let end = w
        .schedule
        .iter()
        .flatten()
        .max()
        .map_or(0.0, |d| d.as_secs_f64());
    Ok(Measurement {
        run,
        span: (warm, end),
        peak_rss_mb,
        counters: STATUS_KEYS
            .iter()
            .map(|&k| (k, count(&after, k).saturating_sub(count(&before, k))))
            .collect(),
        host_steal_frac,
    })
}

/// A scored run.
pub struct Assessment {
    /// Requests sent or scheduled, over all replays.
    pub attempted: usize,
    /// Requests not answered, answered `"ok":false`, or answered
    /// differently from the reference, over all replays.
    pub failed: usize,
    /// The reference mismatches found, described.
    pub mismatches: Vec<String>,
    /// Every end-to-end metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Further human-readable lines: tails, generator lag, counters.
    pub notes: Vec<String>,
}

/// Check the sampled replies against the reference, on two threads:
/// each sampled request's reference answer is computed once and every
/// replay's reply to it is compared with it. Returns the `(replay,
/// outcome)` positions of wrong replies, with a description.
fn check_sample(w: &Workload, replays: &[Measurement]) -> Vec<((usize, usize), String)> {
    let mut by_request: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
    for (r, m) in replays.iter().enumerate() {
        for (k, o) in m.run.outcomes.iter().enumerate() {
            if o.reply.is_some() {
                by_request
                    .entry((o.conn, o.index))
                    .or_default()
                    .push((r, k));
            }
        }
    }
    let requests: Vec<_> = by_request.into_iter().collect();
    std::thread::scope(|s| {
        requests
            .chunks(requests.len().div_ceil(2).max(1))
            .map(|part| {
                s.spawn(move || {
                    let mut wrong = Vec::new();
                    for &((conn, index), ref replies) in part {
                        let req = &w.streams[conn][index];
                        let want = expected_reply(req.op, index as u64, &reference_summaries(req));
                        for &(r, k) in replies {
                            let reply = replays[r].run.outcomes[k].reply.as_deref();
                            match normalize(reply.unwrap_or_default()) {
                                Ok(got) if got == want => {}
                                Ok(got) => wrong.push((
                                    (r, k),
                                    format!(
                                        "{} replay {r} conn {conn}: reply to request {index} \
                                         differs from the reference: got {} bytes, want {} bytes",
                                        w.name,
                                        got.len(),
                                        want.len()
                                    ),
                                )),
                                Err(e) => wrong.push((
                                    (r, k),
                                    format!(
                                        "{} replay {r} conn {conn} request {index}: {e}",
                                        w.name
                                    ),
                                )),
                            }
                        }
                    }
                    wrong
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// One reply, as the scoring sees it.
#[derive(Clone, Copy)]
struct Answer {
    latency: Duration,
    /// Closed loop: the server's CPU time since the previous reply on
    /// the connection, i.e. spent on this request.
    cpu: Option<Duration>,
    /// Answered `"ok":true` and, where sampled, like the reference.
    good: bool,
}

/// The server CPU per reply of one replay, from its first reply (after
/// the cold first request) to its last.
fn cpu_per_reply_ms(m: &Measurement) -> f64 {
    let after_warm: Vec<&Outcome> = m.run.outcomes.iter().filter(|o| o.index > 0).collect();
    match (after_warm.first(), after_warm.last()) {
        (Some(first), Some(last)) if after_warm.len() > 1 => {
            (last.server_cpu.saturating_sub(first.server_cpu)).as_secs_f64() * 1e3
                / (after_warm.len() - 1) as f64
        }
        _ => 0.0,
    }
}

/// Check the sampled replies of every replay against the reference
/// (after the timed runs) and compute the end-to-end metrics.
pub fn assess(w: &Workload, replays: &[Measurement], setup_s: f64) -> Result<Assessment, String> {
    let wrong_list = check_sample(w, replays);
    let mut wrong: Vec<Vec<bool>> = replays
        .iter()
        .map(|m| vec![false; m.run.outcomes.len()])
        .collect();
    let mut mismatches = Vec::new();
    for ((r, k), e) in wrong_list {
        wrong[r][k] = true;
        mismatches.push(e);
    }
    let good = |r: usize, k: usize| replays[r].run.outcomes[k].ok && !wrong[r][k];
    let attempted: usize = replays.iter().map(|m| m.run.attempted).sum();
    let failed = attempted
        - (0..replays.len())
            .map(|r| {
                (0..replays[r].run.outcomes.len())
                    .filter(|&k| good(r, k))
                    .count()
            })
            .sum::<usize>();

    // `answers[r][conn][index]`, from the replies in arrival order.
    let closed = w.load == Load::Closed;
    let answers: Vec<Vec<Vec<Option<Answer>>>> = replays
        .iter()
        .enumerate()
        .map(|(r, m)| {
            let mut a: Vec<Vec<Option<Answer>>> =
                w.streams.iter().map(|s| vec![None; s.len()]).collect();
            let mut last_cpu: Vec<Option<Duration>> = vec![None; w.streams.len()];
            for (k, o) in m.run.outcomes.iter().enumerate() {
                let cpu = last_cpu[o.conn]
                    .filter(|_| closed)
                    .map(|c| o.server_cpu.saturating_sub(c));
                last_cpu[o.conn] = Some(o.server_cpu);
                a[o.conn][o.index] = Some(Answer {
                    latency: o.latency,
                    cpu,
                    good: good(r, k),
                });
            }
            a
        })
        .collect();

    // The measured requests: every request but a stream's first (which
    // checks everything cold) that every replay sent. A closed loop
    // sends in order and stops at its deadline; an open loop sends its
    // whole schedule, measured from the latest warm-up on.
    let warm = replays.iter().map(|m| m.span.0).fold(0.0, f64::max);
    let measured: Vec<(usize, usize)> = (0..w.streams.len())
        .flat_map(|c| {
            let sent = if closed {
                replays
                    .iter()
                    .map(|m| m.run.outcomes.iter().filter(|o| o.conn == c).count())
                    .min()
                    .unwrap_or(0)
            } else {
                w.streams[c].len()
            };
            (1..sent)
                .filter(move |&i| closed || w.schedule[c][i].as_secs_f64() >= warm)
                .map(move |i| (c, i))
        })
        .collect();
    if measured.is_empty() {
        return Err(format!("{}: no request measured in every replay", w.name));
    }
    let limit = Duration::from_secs_f64(w.latency_limit_ms / 1e3);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    // Per request answered in every replay: the median over replays.
    let mut lat = Vec::with_capacity(measured.len());
    let mut cpu = Vec::with_capacity(measured.len());
    let mut within_limit = 0;
    for &(c, i) in &measured {
        let got: Option<Vec<Answer>> = answers.iter().map(|a| a[c][i]).collect();
        let Some(got) = got else { continue };
        let typical = median(&got.iter().map(|a| ms(a.latency)).collect::<Vec<_>>());
        lat.push(typical);
        let spent: Vec<f64> = got.iter().filter_map(|a| a.cpu).map(ms).collect();
        if !spent.is_empty() {
            cpu.push(median(&spent));
        }
        if got.iter().all(|a| a.good) && typical <= ms(limit) {
            within_limit += 1;
        }
    }
    lat.sort_by(f64::total_cmp);
    let p50 = percentile(&lat, 0.5).ok_or(format!(
        "{}: {} requests answered in every replay are too few for a median",
        w.name,
        lat.len()
    ))?;

    // A closed loop's client sends one request after another, so its
    // throughput is the reciprocal of its mean latency, and its server
    // CPU per request the mean over requests; both are taken over the
    // per-request medians, like the p50. An open loop's rate is set by
    // its schedule, and its requests overlap: both come from each
    // replay's measured span, as the median over replays.
    let (throughput, cpu_per_req) = if closed {
        (
            lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
            cpu.iter().sum::<f64>() / cpu.len().max(1) as f64,
        )
    } else {
        let per_replay: Vec<(f64, f64)> = replays
            .iter()
            .map(|m| {
                let (a, b) = m.span;
                let served: Vec<&Outcome> = m
                    .run
                    .outcomes
                    .iter()
                    .filter(|o| (a..b).contains(&(o.sent + o.latency).as_secs_f64()))
                    .collect();
                let cpu = match (served.first(), served.last()) {
                    (Some(x), Some(y)) if served.len() > 1 => {
                        ms(y.server_cpu.saturating_sub(x.server_cpu)) / (served.len() - 1) as f64
                    }
                    _ => 0.0,
                };
                (served.len() as f64 / (b - a), cpu)
            })
            .collect();
        (
            median(&per_replay.iter().map(|x| x.0).collect::<Vec<_>>()),
            median(&per_replay.iter().map(|x| x.1).collect::<Vec<_>>()),
        )
    };
    if !(throughput > 0.0 && cpu_per_req > 0.0) {
        return Err(format!("{}: no reply inside the measured span", w.name));
    }
    let rss: Vec<f64> = replays.iter().map(|m| m.peak_rss_mb).collect();
    let metrics = vec![
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: p50,
        },
        Metric {
            name: "throughput_rps",
            unit: "req/s",
            value: throughput,
        },
        Metric {
            name: "slo_ok_frac",
            unit: "fraction",
            value: within_limit as f64 / measured.len() as f64,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: median(&rss),
        },
        Metric {
            name: "server_cpu_ms_per_req",
            unit: "ms",
            value: cpu_per_req,
        },
    ];

    let mut notes = vec![format!(
        "{} replays; {} requests measured, {} answered in every replay; latency limit {} ms",
        replays.len(),
        measured.len(),
        lat.len(),
        w.latency_limit_ms,
    )];
    for (r, m) in replays.iter().enumerate() {
        let own: Vec<f64> = m.run.outcomes.iter().map(|o| ms(o.latency)).collect();
        notes.push(format!(
            "replay {r}: {} replies of {} attempted in {:.3} s; its own p50 {:.4} ms, \
             server CPU {:.4} ms/reply, peak RSS {:.1} MB{}",
            m.run.outcomes.len(),
            m.run.attempted,
            m.run.elapsed.as_secs_f64(),
            median(&own),
            cpu_per_reply_ms(m),
            m.peak_rss_mb,
            m.host_steal_frac.map_or(String::new(), |s| format!(
                "; host steal {:.1}% of CPU time",
                s * 100.0
            )),
        ));
    }
    for p in [0.9, 0.99, 0.999] {
        if let Some(v) = percentile(&lat, p) {
            notes.push(format!(
                "latency_p{} = {v:.4} ms (n = {}, {} beyond)",
                p * 100.0,
                lat.len(),
                lat.len() - (p * lat.len() as f64).ceil() as usize
            ));
        }
    }
    if let Load::Open { rate_rps } = w.load {
        let mut lag: Vec<f64> = replays
            .iter()
            .flat_map(|m| m.run.gen_lag.iter().map(|d| d.as_secs_f64() * 1e3))
            .collect();
        lag.sort_by(f64::total_cmp);
        notes.push(format!(
            "open loop at {rate_rps} req/s: generator lag p50 {:.4} ms, p99 {} ms",
            median(&lag),
            percentile(&lag, 0.99).map_or("n/a".to_string(), |v| format!("{v:.4}"))
        ));
    }
    notes.push(format!(
        "replay 0 counters: {}",
        replays[0]
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(Assessment {
        attempted,
        failed,
        mismatches,
        metrics,
        notes,
    })
}

/// Run workload `w` end to end against a `vaultd` binary for about
/// `seconds`: prime the store if the workload has one, then
/// [`REPLAYS`] times copy it, boot [`BOOTS_PER_REPLAY`] times, and drive
/// the last daemon; score all replays together. `scratch` is an empty
/// directory.
pub fn run(
    vaultd: &Path,
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Result<Assessment, String> {
    let err = |e: io::Error| format!("{}: {e}", w.name);
    let primed = scratch.join("primed");
    let mut base = DaemonConfig {
        cache_capacity: w.cache_capacity,
        cache_dir: primed.clone(),
        cache_max_bytes: None,
    };
    if !w.prime.is_empty() {
        base.cache_max_bytes = Some((prime_store(&base, &w.prime) / 2).max(1));
    }
    let deadline = Duration::from_secs_f64(seconds / REPLAYS as f64 * DEADLINE_FACTOR);
    let socket = scratch.join("vaultd.sock");
    let mut boots = Vec::new();
    let mut replays = Vec::new();
    for r in 0..REPLAYS {
        let config = DaemonConfig {
            cache_dir: scratch.join(format!("store{r}")),
            ..base.clone()
        };
        copy_store(&primed, &config.cache_dir).map_err(err)?;
        let mut daemon = None;
        for _ in 0..BOOTS_PER_REPLAY {
            if let Some(d) = daemon.take() {
                daemon::Daemon::shutdown(d).map_err(err)?;
            }
            let d = daemon::Daemon::spawn(vaultd, &socket, &config).map_err(err)?;
            boots.push(d.boot.as_secs_f64());
            daemon = Some(d);
        }
        let d = daemon.expect("at least one boot");
        replays.push(measure(d.socket(), d.pid(), w, seed, deadline).map_err(err)?);
        d.shutdown().map_err(err)?;
        std::fs::remove_dir_all(&config.cache_dir).map_err(err)?;
    }
    assess(w, &replays, median(&boots))
}

/// The last line of a run's output: the machine-readable result.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::num(attempted as u64)),
        ("failed".to_string(), Json::num(failed as u64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_line()
}
