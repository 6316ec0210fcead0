//! Checker hot-path benchmark.
//!
//! Measures seven things on a fixed, deterministic, check-heavy
//! synthetic workload:
//!
//! 1. **cold** — whole-unit `check_summary` wall time (parse +
//!    elaborate + check, no caches anywhere): the best run with its
//!    per-phase breakdown (lex/parse/elaborate/lower/check micros), and
//!    the median and interquartile spread of all runs; `cold_allocs`
//!    counts the allocation calls of each cold phase over a
//!    `cold_batch`-shaped pool of units, which needs no timing;
//! 2. **warm** — re-checking the identical batch through the service's
//!    whole-unit verdict cache (pure cache hit);
//! 3. **incremental** — re-checking after a one-function, same-length
//!    edit, where the function-granular cache lets the service re-check
//!    only the edited function;
//! 4. **restart-warm** — killing the service (dropping it) and booting
//!    a fresh one on the same `--cache-dir`, then re-checking the
//!    identical batch: the persisted verdict log must answer at close
//!    to warm-cache speed instead of paying the cold path again;
//! 5. **jobs scaling** — a cold service check of a ~100 kLOC
//!    workload of four units at `jobs` ∈ {1, 2, 4, 8}. A unit is the
//!    only grain of parallel work, so the curve can fall no further past
//!    jobs=4. On a 1-core host the curve is honestly flat (the `host`
//!    block records the core count);
//! 6. **realistic edits** — a 48-function Mixed `synth` unit edited the
//!    ways a person edits it ([`vault_corpus::edits`]: body line
//!    inserts and deletes, literals, local renames, added functions,
//!    signature and brace edits, two-body and syntax-breaking edits,
//!    effect-clause changes, deleted callees, inserted types, undos),
//!    each edit checked by the incremental engine on the calling thread
//!    right after the version it was made from was checked twice (the
//!    second check caches the declaration environment). It records the
//!    function-cache hit rate, the mean number of functions re-checked,
//!    the share of edited texts that do not parse (the reference
//!    checker answers those, counting nothing), the share of edits
//!    checked down the fast path and the median latency per kind; the median cost of one length-changing body edit down
//!    the fast path, down the full path with every unchanged verdict
//!    cached (the environment evicted), and down the full path cold,
//!    each sample asserted to have taken the path it is counted for;
//!    and, for syntax-breaking and brace edits whose text does not
//!    parse, the median cost of the broken check and of the check that
//!    fixes it by restoring the version it was made from;
//! 7. **memory** — the heap bytes the incremental engine's caches
//!    retain per unit, on the realistic-edits unit and on a cold
//!    workload unit: what a one-shot unit (checked once) leaves, one
//!    cached environment and the mean cached function verdict, read off
//!    a counting global allocator that is switched on only for this
//!    section (every timed section runs with it off, paying one relaxed
//!    load per allocation).
//!
//! The cold run also audits its own phase accounting: lex + parse +
//! elaborate + lower + check + other must equal the measured wall
//! total (the `other` bucket is the remainder — summary assembly,
//! interner teardown, the measurement loop itself), asserted at run
//! time so the breakdown can never silently misattribute time again.
//! The `sparse_fixpoint` block compares this run's check phase against
//! the pre-sparse baseline recorded below (the worklist fixpoint plus
//! the `Arc` pointer-equality merge fast path).
//!
//! Results go to `BENCH_checker.json` (first argument overrides the
//! path). `--iters N` shrinks the measurement loops for CI smoke runs.
//! The pre-optimization baseline (measured on the same workload at the
//! commit before this overhaul) is recorded in the output so the
//! speedup claims stay auditable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vault_core::check::CheckStats;
use vault_core::Limits;
use vault_corpus::edits::{EditKind, EditSession};
use vault_corpus::synth::{self, Shape, SynthConfig};
use vault_server::{CheckService, IncrementalEngine, Json, Metrics, ServiceConfig, UnitIn};

/// Pre-optimization numbers, measured with this binary's `cold` loop on
/// this exact workload at the commit preceding the zero-copy front end
/// and persistent warm-start cache (post-parse interning pass, a
/// `String` allocation per identifier token, and no on-disk cache — a
/// daemon restart re-checked everything cold, so the baseline
/// `restart_warm` equals the baseline `cold`).
const BASELINE_COLD_SECS: f64 = 0.175328;
const BASELINE_COMMIT: &str = "33ddf53 (pre-overhaul)";

/// Check-phase micros of the cold run on this exact workload at the
/// commit before the sparse fixpoint (re-check-until-`states_agree`
/// loops, no pointer-equality merge fast path), measured on the same
/// 1-core host that recorded the current numbers.
const SPARSE_BASELINE_CHECK_MICROS: u64 = 95757;
const SPARSE_BASELINE_COMMIT: &str = "b28fa92 (pre-sparse)";

/// `cold_allocs` per unit on the same pool at the commit before the
/// checker stopped cloning signatures and types per call.
struct AllocBaseline {
    commit: &'static str,
    lex: f64,
    parse: f64,
    elaborate_lower: f64,
    check: f64,
    check_per_statement: f64,
}

const BASELINE_ALLOCS: AllocBaseline = AllocBaseline {
    commit: "ea8a187 (signatures and types cloned per call)",
    lex: 82.88,
    parse: 624.62,
    elaborate_lower: 328.71,
    check: 1803.19,
    check_per_statement: 10.11,
};

/// The system allocator, counting live heap bytes and allocation calls
/// (reallocations included) while [`COUNTING`] is set.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(delta: isize) {
    if COUNTING.load(Relaxed) {
        LIVE_BYTES.fetch_add(delta, Relaxed);
    }
}

fn count_alloc(delta: isize) {
    if COUNTING.load(Relaxed) {
        LIVE_BYTES.fetch_add(delta, Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count_alloc(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count_alloc(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes allocated by `f` and still live when it returns (what its
/// result holds), and those still live once the result is dropped
/// (what `f` left behind elsewhere).
fn heap_bytes<T>(f: impl FnOnce() -> T) -> (i64, i64) {
    LIVE_BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let result = f();
    let held = LIVE_BYTES.load(Relaxed);
    drop(result);
    COUNTING.store(false, Relaxed);
    (held as i64, LIVE_BYTES.load(Relaxed) as i64)
}

/// Heap allocations (reallocations included) `f` makes. Only the
/// calling thread may be busy while it runs: the counter is global.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let result = f();
    COUNTING.store(false, Relaxed);
    (result, ALLOCS.load(Relaxed))
}

const PRELUDE: &str = r#"
interface REGION {
  type region;
  tracked(R) region create() [new R];
  void delete(tracked(R) region) [-R];
}
struct point { int x; int y; }
"#;

/// One join-heavy function: `keys` live tracked regions, then `joins`
/// branches (each a join over the full frame + held set), a ladder of
/// nested and triple-nested loops (fixpoint iterations over the same
/// state), then teardown. The shape is frozen: the recorded baseline
/// was measured on exactly this text.
fn gen_fn(src: &mut String, f: usize, keys: usize, joins: usize, salt: usize) {
    use std::fmt::Write as _;
    let _ = writeln!(src, "void hot_{salt}_{f}(bool flag, int n) {{");
    for k in 0..keys {
        let _ = writeln!(src, "  tracked(K{f}_{k}) region r{k} = Region.create();");
        let _ = writeln!(
            src,
            "  K{f}_{k}:point p{k} = new(r{k}) point {{x={k}; y=0;}};"
        );
    }
    for j in 0..joins {
        let k = j % keys;
        let _ = writeln!(
            src,
            "  if (flag) {{ p{k}.x++; }} else {{ p{k}.y = p{k}.y - 1; }}"
        );
    }
    let _ = writeln!(src, "  while (n > 0) {{ p0.x = p0.x + 1; n = n - 1; }}");
    let _ = writeln!(src, "  while (n > 0) {{ p1.y = p1.y + 1; n = n - 1; }}");
    let _ = writeln!(
        src,
        "  while (n > 0) {{ p2.x = p2.x + 1; while (p2.y > 0) {{ p2.y = p2.y - 1; if (flag) {{ p3.x++; }} else {{ p3.y++; }} }} n = n - 1; }}"
    );
    for t in 0..3usize {
        let a = 4 + 2 * t;
        let b = 5 + 2 * t;
        let _ = writeln!(
            src,
            "  while (n > {t}) {{ p{a}.x = p{a}.x + 1; while (p{a}.y > 0) {{ p{a}.y = p{a}.y - 1; if (flag) {{ p{b}.x++; }} else {{ p{b}.y++; }} }} n = n - 1; }}"
        );
    }
    for t in 0..4usize {
        let a = 10 + 3 * (t % 2);
        let b = 11 + 3 * (t % 2) + t / 2;
        let c = 12 + 3 * (t % 2) + t / 2;
        let _ = writeln!(
            src,
            "  while (n > {t}) {{ p{a}.x++; while (p{b}.x > 0) {{ p{b}.x = p{b}.x - 1; while (p{c}.y > 0) {{ p{c}.y = p{c}.y - 1; if (flag) {{ p{a}.y++; }} else {{ p{b}.y++; }} }} }} n = n - 1; }}"
        );
    }
    for k in 0..keys {
        let _ = writeln!(src, "  Region.delete(r{k});");
    }
    let _ = writeln!(src, "}}");
}

/// The measured workload: six units of 24 join/loop-heavy functions
/// each, so checking dominates parsing (the front end is ~5% of cold).
fn workload() -> Vec<UnitIn> {
    (0..6)
        .map(|i| {
            let mut src = String::from(PRELUDE);
            for f in 0..24 {
                gen_fn(&mut src, f, 28, 22, i);
            }
            UnitIn {
                name: format!("bench_{i}.vlt"),
                source: src,
            }
        })
        .collect()
}

/// The scaling workload: four units of 212 functions each (~100 kLOC
/// total), frozen like [`workload`]. Four units at `--jobs 8` leave
/// workers idle: a unit's functions are checked on one thread.
fn scaling_workload() -> Vec<UnitIn> {
    (0..4)
        .map(|i| {
            let mut src = String::from(PRELUDE);
            for f in 0..212 {
                gen_fn(&mut src, f, 28, 22, 100 + i);
            }
            UnitIn {
                name: format!("scale_{i}.vlt"),
                source: src,
            }
        })
        .collect()
}

/// A one-function, same-length edit: rewrite the **last** occurrence of
/// a known statement fragment so exactly one function body changes and
/// no other function's span moves. `digit` varies the replacement so
/// successive edits produce distinct sources (each a genuine whole-unit
/// cache miss).
fn edit_one_function(source: &str, digit: char) -> String {
    const PAT: &str = "{ p2.x = p2.x + 1;";
    let at = source.rfind(PAT).expect("edit site present in workload");
    let repl = format!("{{ p2.x = p2.x + {digit};");
    debug_assert_eq!(repl.len(), PAT.len());
    let mut edited = String::with_capacity(source.len());
    edited.push_str(&source[..at]);
    edited.push_str(&repl);
    edited.push_str(&source[at + PAT.len()..]);
    edited
}

/// Best-of-`iters` wall time for sequentially checking all `units`,
/// plus the per-phase breakdown (summed over units) from the best run
/// and every run's time.
fn cold_secs(units: &[UnitIn], iters: usize) -> (f64, vault_core::check::CheckStats, Vec<f64>) {
    let mut best = f64::INFINITY;
    let mut phases = vault_core::check::CheckStats::default();
    let mut runs = Vec::with_capacity(iters);
    for _ in 0..iters {
        let mut run_phases = vault_core::check::CheckStats::default();
        let start = Instant::now();
        for u in units {
            let s = vault_core::check_summary(&u.name, &u.source);
            assert!(!s.name.is_empty());
            run_phases.absorb(s.stats);
        }
        let secs = start.elapsed().as_secs_f64();
        runs.push(secs);
        if secs < best {
            best = secs;
            phases = run_phases;
        }
    }
    (best, phases, runs)
}

/// The first quartile, median and third quartile of `samples`, each
/// interpolated linearly between the two nearest ranks.
fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn main() {
    let mut out_path = "BENCH_checker.json".to_string();
    let mut iters = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args.next().and_then(|n| n.parse().ok()).expect("--iters N");
            }
            path => out_path = path.to_string(),
        }
    }

    let units = workload();
    let total_loc: usize = units
        .iter()
        .map(|u| vault_corpus::count_loc(&u.source))
        .sum();
    println!("workload: {} units, {total_loc} LOC", units.len());

    // --- cold: the raw checker, no caches ------------------------------
    let (cold, phases, cold_runs) = cold_secs(&units, iters);
    let (cold_q1, cold_median, cold_q3) = quartiles(&cold_runs);
    println!(
        "cold:        {:.4} s best ({:.1} us/unit), median {:.4} s, interquartile {:.4} s",
        cold,
        cold * 1e6 / units.len() as f64,
        cold_median,
        cold_q3 - cold_q1
    );
    // Phase-accounting audit: the breakdown plus an explicit
    // `other` remainder must account for every wall microsecond of the
    // best cold run — a sum that exceeds the total means double
    // counting, a silent shortfall means misattribution.
    let cold_total_micros = (cold * 1e6) as u64;
    let phase_sum = phases.lex_micros
        + phases.parse_micros
        + phases.elaborate_micros
        + phases.lower_micros
        + phases.check_micros;
    assert!(
        phase_sum <= cold_total_micros,
        "phase breakdown ({phase_sum}us) exceeds the cold wall total ({cold_total_micros}us)"
    );
    let other_micros = cold_total_micros - phase_sum;
    assert_eq!(
        phase_sum + other_micros,
        cold_total_micros,
        "phases + other must equal the cold total"
    );
    println!(
        "  phases:    lex {}us, parse {}us, elaborate {}us, lower {}us, check {}us, other {}us (= {}us total)",
        phases.lex_micros,
        phases.parse_micros,
        phases.elaborate_micros,
        phases.lower_micros,
        phases.check_micros,
        other_micros,
        cold_total_micros
    );

    // --- cold_allocs: allocation calls per cold phase -------------------
    let allocs = cold_allocs();
    let per_unit = |n: u64| round2(n as f64 / allocs.units as f64);
    let check_per_statement = round2(allocs.check as f64 / allocs.statements as f64);
    println!(
        "cold allocs: {} units, {} statements; per unit lex {}, parse {}, elaborate+lower {}, check {} ({} per statement; {} at {})",
        allocs.units,
        allocs.statements,
        per_unit(allocs.lex),
        per_unit(allocs.parse),
        per_unit(allocs.elaborate_lower),
        per_unit(allocs.check),
        check_per_statement,
        BASELINE_ALLOCS.check_per_statement,
        BASELINE_ALLOCS.commit,
    );

    // --- warm: whole-unit verdict cache hit ----------------------------
    let svc = CheckService::new(ServiceConfig {
        jobs: 1,
        cache_capacity: units.len() * 4,
        ..Default::default()
    });
    let (prime, _) = svc.check_units(units.clone());
    assert!(prime.iter().all(|r| !r.cached));
    let mut warm = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let (reports, _) = svc.check_units(units.clone());
        warm = warm.min(start.elapsed().as_secs_f64());
        assert!(reports.iter().all(|r| r.cached));
    }
    println!("warm (unit): {:.4} s", warm);

    // --- incremental: one-function edit --------------------------------
    // Each iteration applies a *distinct* same-length edit to one
    // function per unit, so every run is a genuine whole-unit cache miss
    // that exercises the function-granular engine: the edited function
    // re-checks, the other 23 hit the per-function verdict cache.
    // A unit's declaration environment is cached on its second full
    // check, so one more edit (a digit the loop never uses) stores it
    // before the timed edits.
    let primed: Vec<UnitIn> = units
        .iter()
        .map(|u| UnitIn {
            name: u.name.clone(),
            source: edit_one_function(&u.source, '0'),
        })
        .collect();
    svc.check_units(primed);
    let mut incremental = f64::INFINITY;
    let mut edited: Vec<UnitIn> = Vec::new();
    for i in 0..iters {
        let digit = char::from(b'2' + (i % 8) as u8);
        edited = units
            .iter()
            .map(|u| UnitIn {
                name: u.name.clone(),
                source: edit_one_function(&u.source, digit),
            })
            .collect();
        let start = Instant::now();
        let (reports, _) = svc.check_units(edited.clone());
        let secs = start.elapsed().as_secs_f64();
        assert!(
            reports.iter().all(|r| !r.cached),
            "edited units must miss the whole-unit cache"
        );
        incremental = incremental.min(secs);
    }
    println!("incremental: {:.4} s (one-fn edit per unit)", incremental);

    let snap = svc.status();
    println!(
        "fn cache: {} hits / {} misses",
        snap.fn_cache_hits, snap.fn_cache_misses
    );

    // --- verdicts must be unaffected by caching ------------------------
    for u in &edited {
        let direct = vault_core::check_summary(&u.name, &u.source);
        let via_cache = svc.check_unit(u.clone());
        assert_eq!(
            *via_cache.summary, direct,
            "incremental result diverged for {}",
            u.name
        );
    }

    // --- restart-warm: kill the service, boot on the same cache-dir ----
    // A persistent-cache-backed service is primed cold, then dropped (a
    // daemon kill) and rebuilt on the same directory. The re-check of
    // the identical batch must be answered from the replayed log at
    // close to warm-cache speed.
    let cache_dir = std::env::temp_dir().join(format!("vault-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let persistent = |dir: &std::path::Path| ServiceConfig {
        jobs: 1,
        cache_capacity: units.len() * 4,
        cache_dir: Some(dir.to_path_buf()),
        ..Default::default()
    };
    {
        let svc = CheckService::new(persistent(&cache_dir));
        let (prime, _) = svc.check_units(units.clone());
        assert!(prime.iter().all(|r| !r.cached));
    } // killed
    let mut restart_warm = f64::INFINITY;
    let mut restart_boot = f64::INFINITY;
    for _ in 0..iters {
        let boot = Instant::now();
        let svc = CheckService::new(persistent(&cache_dir));
        restart_boot = restart_boot.min(boot.elapsed().as_secs_f64());
        assert_eq!(svc.status().cache_load_errors, 0, "clean log must load");
        let start = Instant::now();
        let (reports, _) = svc.check_units(units.clone());
        restart_warm = restart_warm.min(start.elapsed().as_secs_f64());
        assert!(
            reports.iter().all(|r| r.cached),
            "restart must answer from the persisted cache"
        );
    }
    println!(
        "restart-warm: {:.4} s (persisted cache, {:.1}x cold; boot replay {:.4} s)",
        restart_warm,
        cold / restart_warm,
        restart_boot
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    // --- jobs scaling: unit-level parallelism over ~100 kLOC ------------
    // A fresh-cold service check per iteration (`clear_cache` between
    // runs), best-of-`iters` per job count. Output determinism across
    // job counts is asserted inline: every summary must equal the
    // jobs=1 reference byte for byte.
    let scale_units = scaling_workload();
    let scale_loc: usize = scale_units
        .iter()
        .map(|u| vault_corpus::count_loc(&u.source))
        .sum();
    println!(
        "scaling workload: {} units, {scale_loc} LOC",
        scale_units.len()
    );
    let mut curve: Vec<(usize, f64)> = Vec::new();
    let mut scale_reference: Option<Vec<vault_core::CheckSummary>> = None;
    for jobs in [1usize, 2, 4, 8] {
        let svc = CheckService::new(ServiceConfig {
            jobs,
            cache_capacity: scale_units.len() * 4,
            ..Default::default()
        });
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            svc.clear_cache();
            let start = Instant::now();
            let (reports, _) = svc.check_units(scale_units.clone());
            best = best.min(start.elapsed().as_secs_f64());
            assert!(reports.iter().all(|r| !r.cached));
            let summaries: Vec<vault_core::CheckSummary> =
                reports.into_iter().map(|r| (*r.summary).clone()).collect();
            match &scale_reference {
                None => scale_reference = Some(summaries),
                Some(want) => assert_eq!(
                    summaries, *want,
                    "jobs={jobs} diverged from the jobs=1 reference"
                ),
            }
        }
        println!("  jobs={jobs}: {best:.4} s");
        curve.push((jobs, best));
    }
    let jobs1_secs = curve[0].1;

    println!("realistic edits (48-function unit):");
    let realistic = realistic_edits(iters);

    println!("memory retained by the incremental caches:");
    let memory = Json::Obj(vec![
        (
            "realistic_edits_unit".to_string(),
            cache_memory("ide.vlt", &realistic_edits_unit().source),
        ),
        (
            "cold_workload_unit".to_string(),
            cache_memory(&units[0].name, &units[0].source),
        ),
    ]);

    let sparse_speedup = SPARSE_BASELINE_CHECK_MICROS as f64 / phases.check_micros.max(1) as f64;
    println!(
        "sparse fixpoint: check {}us vs {}us baseline ({:.2}x)",
        phases.check_micros, SPARSE_BASELINE_CHECK_MICROS, sparse_speedup
    );

    let json = Json::Obj(vec![
        (
            "bench".to_string(),
            Json::str("checker hot + cold path, sparse fixpoint + jobs scaling"),
        ),
        (
            "command".to_string(),
            Json::str("cargo run --release -p vault-bench --bin checker_bench"),
        ),
        ("host".to_string(), vault_bench::host_meta()),
        ("workload_units".to_string(), Json::num(units.len() as u64)),
        ("workload_loc".to_string(), Json::num(total_loc as u64)),
        ("iters".to_string(), Json::num(iters as u64)),
        ("cold_secs".to_string(), Json::Num(round6(cold))),
        (
            "cold_median_secs".to_string(),
            Json::Num(round6(cold_median)),
        ),
        (
            "cold_iqr_secs".to_string(),
            Json::Num(round6(cold_q3 - cold_q1)),
        ),
        (
            "cold_total_micros".to_string(),
            Json::num(cold_total_micros),
        ),
        (
            "cold_phase_micros".to_string(),
            Json::Obj(vec![
                ("lex".to_string(), Json::num(phases.lex_micros)),
                ("parse".to_string(), Json::num(phases.parse_micros)),
                ("elaborate".to_string(), Json::num(phases.elaborate_micros)),
                ("lower".to_string(), Json::num(phases.lower_micros)),
                ("check".to_string(), Json::num(phases.check_micros)),
                ("other".to_string(), Json::num(other_micros)),
            ]),
        ),
        (
            "cold_allocs".to_string(),
            Json::Obj(vec![
                (
                    "pool".to_string(),
                    Json::str(
                        "cold_batch-shaped: every corpus program plus 96 synth units \
                         over all six shapes",
                    ),
                ),
                ("units".to_string(), Json::num(allocs.units)),
                ("statements".to_string(), Json::num(allocs.statements)),
                (
                    "per_unit".to_string(),
                    Json::Obj(vec![
                        ("lex".to_string(), Json::Num(per_unit(allocs.lex))),
                        ("parse".to_string(), Json::Num(per_unit(allocs.parse))),
                        (
                            "elaborate_lower".to_string(),
                            Json::Num(per_unit(allocs.elaborate_lower)),
                        ),
                        ("check".to_string(), Json::Num(per_unit(allocs.check))),
                    ]),
                ),
                (
                    "check_per_statement".to_string(),
                    Json::Num(check_per_statement),
                ),
                (
                    "baseline".to_string(),
                    Json::Obj(vec![
                        ("commit".to_string(), Json::str(BASELINE_ALLOCS.commit)),
                        (
                            "per_unit".to_string(),
                            Json::Obj(vec![
                                ("lex".to_string(), Json::Num(BASELINE_ALLOCS.lex)),
                                ("parse".to_string(), Json::Num(BASELINE_ALLOCS.parse)),
                                (
                                    "elaborate_lower".to_string(),
                                    Json::Num(BASELINE_ALLOCS.elaborate_lower),
                                ),
                                ("check".to_string(), Json::Num(BASELINE_ALLOCS.check)),
                            ]),
                        ),
                        (
                            "check_per_statement".to_string(),
                            Json::Num(BASELINE_ALLOCS.check_per_statement),
                        ),
                    ]),
                ),
                (
                    "check_reduction_vs_baseline".to_string(),
                    Json::Num(round2(
                        BASELINE_ALLOCS.check_per_statement / check_per_statement.max(0.01),
                    )),
                ),
            ]),
        ),
        ("warm_unit_cache_secs".to_string(), Json::Num(round6(warm))),
        (
            "restart_warm_secs".to_string(),
            Json::Num(round6(restart_warm)),
        ),
        (
            "restart_warm_speedup_vs_cold".to_string(),
            Json::Num(round2(cold / restart_warm)),
        ),
        (
            "restart_boot_secs".to_string(),
            Json::Num(round6(restart_boot)),
        ),
        (
            "one_fn_edit_incremental_secs".to_string(),
            Json::Num(round6(incremental)),
        ),
        (
            "incremental_speedup_vs_cold".to_string(),
            Json::Num(round2(cold / incremental)),
        ),
        ("fn_cache_hits".to_string(), Json::num(snap.fn_cache_hits)),
        (
            "fn_cache_misses".to_string(),
            Json::num(snap.fn_cache_misses),
        ),
        (
            "baseline".to_string(),
            Json::Obj(vec![
                ("commit".to_string(), Json::str(BASELINE_COMMIT)),
                (
                    "cold_secs".to_string(),
                    Json::Num(round6(BASELINE_COLD_SECS)),
                ),
                (
                    "restart_warm_secs".to_string(),
                    Json::Num(round6(BASELINE_COLD_SECS)),
                ),
                (
                    "note".to_string(),
                    Json::str(
                        "pre-overhaul front end: post-parse interning pass, a String \
                         allocation per identifier token, and no persistent cache \
                         (a daemon restart re-checked everything cold)",
                    ),
                ),
            ]),
        ),
        ("realistic_edits".to_string(), realistic),
        ("memory".to_string(), memory),
        (
            "cold_speedup_vs_baseline".to_string(),
            Json::Num(round2(BASELINE_COLD_SECS / cold)),
        ),
        (
            "sparse_fixpoint".to_string(),
            Json::Obj(vec![
                (
                    "baseline_commit".to_string(),
                    Json::str(SPARSE_BASELINE_COMMIT),
                ),
                (
                    "baseline_check_micros".to_string(),
                    Json::num(SPARSE_BASELINE_CHECK_MICROS),
                ),
                ("check_micros".to_string(), Json::num(phases.check_micros)),
                ("speedup".to_string(), Json::Num(round2(sparse_speedup))),
            ]),
        ),
        (
            "jobs_scaling".to_string(),
            Json::Obj(vec![
                (
                    "workload_units".to_string(),
                    Json::num(scale_units.len() as u64),
                ),
                ("workload_loc".to_string(), Json::num(scale_loc as u64)),
                (
                    "curve".to_string(),
                    Json::Arr(
                        curve
                            .iter()
                            .map(|&(jobs, secs)| {
                                Json::Obj(vec![
                                    ("jobs".to_string(), Json::num(jobs as u64)),
                                    ("secs".to_string(), Json::Num(round6(secs))),
                                    (
                                        "speedup_vs_jobs1".to_string(),
                                        Json::Num(round2(jobs1_secs / secs)),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "note".to_string(),
                    Json::str(
                        "fresh-cold service check per iteration; outputs asserted \
                         byte-identical across job counts; interpret the slope \
                         against host.cores",
                    ),
                ),
            ]),
        ),
    ]);
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

/// Median of `times`, in milliseconds.
fn median_ms(times: &mut [Duration]) -> f64 {
    times.sort();
    (times[times.len() / 2].as_secs_f64() * 1e6).round() / 1e3
}

/// The unit the realistic edits are made to.
fn realistic_edits_unit() -> synth::SynthProgram {
    synth::generate(&SynthConfig {
        functions: 48,
        stmts_per_fn: 12,
        seed: 0x1de,
        bug_rate: 0.1,
        shape: Shape::Mixed,
    })
}

/// The `memory` section (see the module docs) for one unit: what
/// checks leave in a fresh engine's caches. A first check of a name
/// leaves its function verdicts and a ghost: that is what a one-shot
/// unit costs. One engine keeps every function verdict, a second keeps
/// one; their difference over the other verdicts is the mean verdict.
/// The second engine's second check admits the environment, and what
/// it adds is the environment. Sequential checks, so no pool thread
/// allocates inside the window.
fn cache_memory(name: &str, source: &str) -> Json {
    let limits = Limits::default();
    let check = |engine: &IncrementalEngine| {
        let m = Metrics::default();
        heap_bytes(|| engine.check_unit_with_prelude(name, "", source, &limits, &m)).1
    };
    // Warm every lazily initialized global first.
    check(&IncrementalEngine::new(1, 1));
    let all = IncrementalEngine::new(1, 4096);
    let one_shot = check(&all);
    assert_eq!(all.entries().0, 0, "a first check caches no environment");
    let verdicts = all.entries().1 as i64;
    let one = IncrementalEngine::new(1, 1);
    let one_bytes = check(&one);
    let per_fn = (one_shot - one_bytes) / (verdicts - 1).max(1);
    let env = check(&one);
    assert_eq!(one.entries().0, 1, "a second check caches the environment");
    let (ast, _) =
        heap_bytes(|| vault_syntax::parse_program(source, &mut vault_syntax::DiagSink::new()));
    println!(
        "  {name}: {} source bytes, {ast} B parsed, one-shot {one_shot} B, env {env} B, \
         {verdicts} fn verdicts at {per_fn} B each",
        source.len()
    );
    Json::Obj(vec![
        ("source_bytes".to_string(), Json::num(source.len() as u64)),
        (
            "one_shot_bytes".to_string(),
            Json::num(one_shot.max(0) as u64),
        ),
        ("env_bytes".to_string(), Json::num(env.max(0) as u64)),
        ("fn_verdicts".to_string(), Json::num(verdicts as u64)),
        (
            "fn_verdict_bytes_mean".to_string(),
            Json::num(per_fn.max(0) as u64),
        ),
        ("ast_bytes".to_string(), Json::num(ast.max(0) as u64)),
    ])
}

/// The `realistic_edits` scenario (see the module docs). Every edited
/// check is asserted equal to the monolithic checker.
fn realistic_edits(iters: usize) -> Json {
    const NAME: &str = "ide.vlt";
    let program = realistic_edits_unit();
    let base = EditSession::new(program.source.clone());
    let limits = Limits::default();
    let mut rng = StdRng::seed_from_u64(0xed17);
    let check = |engine: &IncrementalEngine, m: &Metrics, source: &str| {
        let t = Instant::now();
        let got = engine.check_unit_with_prelude(NAME, "", source, &limits, m);
        let took = t.elapsed();
        assert_eq!(
            got,
            vault_core::check_summary(NAME, source),
            "incremental result diverged after an edit"
        );
        (took, got.stats)
    };
    // A fresh engine with one environment slot checks the version an
    // edit is made from twice: the second check caches its declaration
    // environment.
    let primed = |source: &str| {
        let engine = IncrementalEngine::new(1, 4096);
        let m = Metrics::default();
        check(&engine, &m, source);
        check(&engine, &m, source);
        (engine, m)
    };

    // Per kind: a fresh engine has checked the version the edit is made
    // from (for an undo, a body edit away from the base), so the only
    // cached verdicts are that version's.
    let samples = 12 * iters;
    let mut per_kind = Vec::new();
    for kind in EditKind::ALL {
        let mut times = Vec::new();
        let (mut hits, mut misses, mut unparsed, mut fast) = (0u64, 0u64, 0usize, 0usize);
        while times.len() < samples {
            let mut s = base.clone();
            if kind == EditKind::Undo {
                s.apply(EditKind::BodyLine, &mut rng);
            }
            let from = s.source().to_owned();
            if !s.apply(kind, &mut rng) {
                continue;
            }
            unparsed += usize::from(!parses(s.source()));
            let (engine, m) = primed(&from);
            let before = m.snapshot();
            let (took, stats) = check(&engine, &m, s.source());
            times.push(took);
            fast += usize::from(took_fast_path(&stats));
            let after = m.snapshot();
            hits += after.fn_cache_hits - before.fn_cache_hits;
            misses += after.fn_cache_misses - before.fn_cache_misses;
        }
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        let rechecked = misses as f64 / samples as f64;
        let unparsed = unparsed as f64 / samples as f64;
        let fast = fast as f64 / samples as f64;
        let median = median_ms(&mut times);
        println!(
            "  {:<22} median {median:.3} ms, fn-cache hit rate {hit_rate:.3}, \
             {rechecked:.2} fns re-checked, {unparsed:.2} unparsed, {fast:.2} fast path",
            kind.name()
        );
        per_kind.push(Json::Obj(vec![
            ("kind".to_string(), Json::str(kind.name())),
            ("median_ms".to_string(), Json::Num(median)),
            (
                "fn_hit_rate".to_string(),
                Json::Num((hit_rate * 1e3).round() / 1e3),
            ),
            (
                "fns_rechecked_mean".to_string(),
                Json::Num(round2(rechecked)),
            ),
            ("unparsed_frac".to_string(), Json::Num(round2(unparsed))),
            ("fast_path_frac".to_string(), Json::Num(round2(fast))),
        ]));
    }

    // One length-changing body edit, three ways.
    let other = synth::generate(&SynthConfig {
        seed: 0x07e,
        ..SynthConfig::default()
    });
    let path_samples = 60 * iters;
    let (mut fast, mut full_hits, mut full_cold) = (Vec::new(), Vec::new(), Vec::new());
    while fast.len() < path_samples {
        let mut s = base.clone();
        if !s.apply(EditKind::BodyLine, &mut rng) {
            continue;
        }
        // Fast path: the base version is the cached environment.
        let (engine, m) = primed(base.source());
        let (took, stats) = check(&engine, &m, s.source());
        assert!(
            took_fast_path(&stats),
            "a fast-path sample took the full path"
        );
        fast.push(took);
        // Full path, every unchanged verdict cached: another unit's
        // ghost evicts the one-slot environment cache first.
        let (engine, m) = primed(base.source());
        engine.check_unit_with_prelude("other.vlt", "", &other.source, &limits, &m);
        let (took, stats) = check(&engine, &m, s.source());
        assert!(
            !took_fast_path(&stats),
            "a full-path sample took the fast path"
        );
        full_hits.push(took);
        // Full path, nothing cached.
        let engine = IncrementalEngine::new(1, 4096);
        full_cold.push(check(&engine, &Metrics::default(), s.source()).0);
    }
    let (fast, full_hits, full_cold) = (
        median_ms(&mut fast),
        median_ms(&mut full_hits),
        median_ms(&mut full_cold),
    );
    println!(
        "  body edit: fast path {fast:.3} ms, full path with all hits {full_hits:.3} ms, \
         full path cold {full_cold:.3} ms ({:.1}x)",
        full_hits / fast
    );

    // Break, then fix: an edit whose text does not parse, checked right
    // after the version it was made from was checked twice, then that
    // version again.
    let mut break_then_fix = Vec::new();
    for kind in [EditKind::SyntaxBreaking, EditKind::Brace] {
        let (mut broken, mut fixing, mut both) = (Vec::new(), Vec::new(), Vec::new());
        let mut fast = 0;
        while broken.len() < path_samples {
            let mut s = base.clone();
            if !s.apply(kind, &mut rng) || parses(s.source()) {
                continue;
            }
            let (engine, m) = primed(base.source());
            let (b, _) = check(&engine, &m, s.source());
            let (f, stats) = check(&engine, &m, base.source());
            fast += usize::from(took_fast_path(&stats));
            broken.push(b);
            fixing.push(f);
            both.push(b + f);
        }
        let fast = fast as f64 / path_samples as f64;
        let (broken, fixing, both) = (
            median_ms(&mut broken),
            median_ms(&mut fixing),
            median_ms(&mut both),
        );
        println!(
            "  break then fix ({}): broken {broken:.3} ms, fixing {fixing:.3} ms, \
             both {both:.3} ms, {fast:.2} of fixes down the fast path",
            kind.name()
        );
        break_then_fix.push(Json::Obj(vec![
            ("kind".to_string(), Json::str(kind.name())),
            ("samples".to_string(), Json::num(path_samples as u64)),
            ("broken_ms".to_string(), Json::Num(broken)),
            ("fixing_ms".to_string(), Json::Num(fixing)),
            ("break_plus_fix_ms".to_string(), Json::Num(both)),
            ("fix_fast_path_frac".to_string(), Json::Num(round2(fast))),
        ]));
    }
    Json::Obj(vec![
        (
            "unit".to_string(),
            Json::str(format!(
                "synth Mixed, 48 functions x 12 statements, {} bytes, bug rate 0.1",
                program.source.len()
            )),
        ),
        ("samples_per_kind".to_string(), Json::num(samples as u64)),
        ("kinds".to_string(), Json::Arr(per_kind)),
        (
            "body_edit_paths".to_string(),
            Json::Obj(vec![
                ("samples".to_string(), Json::num(path_samples as u64)),
                ("fast_ms".to_string(), Json::Num(fast)),
                ("full_all_hits_ms".to_string(), Json::Num(full_hits)),
                ("full_cold_ms".to_string(), Json::Num(full_cold)),
                (
                    "fast_speedup_vs_full_all_hits".to_string(),
                    Json::Num(round2(full_hits / fast)),
                ),
            ]),
        ),
        ("break_then_fix".to_string(), Json::Arr(break_then_fix)),
    ])
}

/// Whether `source` lexes and parses with nothing reported.
fn parses(source: &str) -> bool {
    let mut sink = vault_syntax::DiagSink::new();
    vault_syntax::parse_program(source, &mut sink);
    sink.diagnostics().is_empty()
}

/// Whether a check with these counters took the fast path: only it
/// reuses the cached elaboration, so only it neither lexes the whole
/// unit nor elaborates it.
fn took_fast_path(stats: &CheckStats) -> bool {
    stats.lex_micros == 0 && stats.elaborate_micros == 0
}

/// Allocation calls of each cold phase, summed over [`cold_batch_pool`].
#[derive(Default)]
struct ColdAllocs {
    units: u64,
    statements: u64,
    lex: u64,
    parse: u64,
    elaborate_lower: u64,
    check: u64,
}

/// Sources shaped like the `cold_batch` end-to-end workload's pool:
/// every corpus program plus 96 `synth` units cycling through all six
/// shapes (4 to 24 functions of 12 statements, bug rate 0.2). Frozen,
/// like [`workload`].
fn cold_batch_pool() -> Vec<String> {
    const SHAPES: [Shape; 6] = [
        Shape::Mixed,
        Shape::Straight,
        Shape::Branchy,
        Shape::Loopy,
        Shape::VariantHeavy,
        Shape::Sockets,
    ];
    let mut rng = StdRng::seed_from_u64(20);
    let mut pool: Vec<String> = vault_corpus::all_programs()
        .into_iter()
        .map(|p| p.source)
        .collect();
    for (i, shape) in SHAPES.iter().cycle().take(96).enumerate() {
        let program = synth::generate(&SynthConfig {
            functions: 4 + (i * 7) % 21,
            stmts_per_fn: 12,
            seed: rand::Rng::gen_range(&mut rng, 0..u64::MAX),
            bug_rate: 0.2,
            shape: *shape,
        });
        pool.push(program.source);
    }
    pool
}

/// Count the allocations of each cold phase of every pool unit, one
/// phase at a time on this thread: lex (the lexer alone), parse (the
/// whole front end minus the lexer's share), elaborate + lower, and the
/// check of every body. Deterministic for a given toolchain, so a change
/// in the check phase's allocations shows without timing noise.
fn cold_allocs() -> ColdAllocs {
    let limits = Limits::default();
    let mut c = ColdAllocs::default();
    for source in cold_batch_pool() {
        let mut diags = vault_syntax::DiagSink::new();
        let (_, lex) =
            allocations(|| vault_syntax::lexer::lex(&source, &mut vault_syntax::DiagSink::new()));
        let (program, front) = allocations(|| vault_syntax::parse_program(&source, &mut diags));
        let (elaborated, elaborate) =
            allocations(|| vault_core::elaborate_owned(program, &mut diags));
        let (stats, check) = allocations(|| {
            let mut stats = CheckStats::default();
            for f in &elaborated.bodies {
                stats.absorb(vault_core::check::check_function_with_limits(
                    &elaborated.world,
                    &elaborated.syms,
                    &elaborated.aliases,
                    &elaborated.qualifiers,
                    &elaborated.base_keys,
                    f,
                    &mut diags,
                    &limits,
                ));
            }
            stats
        });
        c.units += 1;
        c.statements += stats.statements as u64;
        c.lex += lex;
        c.parse += front.saturating_sub(lex);
        c.elaborate_lower += elaborate;
        c.check += check;
    }
    c
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}
