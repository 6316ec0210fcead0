//! Model test for the segmented verdict store: randomized writes,
//! compactions, restarts, and injected crashes over seeded schedules.
//!
//! The store's contract is *speed, not answers*: every record's content
//! is a pure function of its fingerprint (exactly as the real cache's
//! content is a pure function of the source it fingerprints), so after
//! ANY sequence of crashes, torn writes, bit flips, truncations,
//! smashed segment headers, leftover files of older builds, and
//! evictions, a recovered store may know fewer keys — but every key it
//! does know must carry exactly the right value.
//!
//! Three layers prove it:
//!
//! 1. `store_bound_torture_*` (always compiled, tier-1): hammer a
//!    store with a tight `--cache-max-bytes` bound and assert the bound
//!    holds after every maintenance pass and across restarts.
//! 2. `mutilated_cache_never_changes_a_service_answer` (always
//!    compiled): a full `CheckService` restarted over a cache directory
//!    that gets mutilated between runs must keep answering exactly what
//!    `vault_core::check_summary` computes from source.
//! 3. `seeded_crash_schedules_recover_faithfully` (`--features chaos`):
//!    ≥200 seeded schedules interleaving appends, supersedes, wipes,
//!    maintenance, chaos persistence faults (short writes and fsync
//!    failures, compaction's copies included, and a crash between a
//!    copy's fsync and its segment's delete), direct file mutilation,
//!    and reopens — after every recovery, `open` must
//!    succeed and replay only faithful records.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use vault_core::check::CheckStats;
use vault_core::interface::ReadSet;
use vault_core::{CheckSummary, Verdict};
use vault_server::persist::{Loaded, Record, StoreConfig, VerdictStore};
use vault_server::FnVerdict;
use vault_syntax::{Code, DiagView, Diagnostic, LabelView, Span};

/// Chaos faults are armed process-wide, so every test in this binary
/// serializes on this lock; an armed schedule must never bleed into a
/// neighbouring test's store.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    match EXCLUSIVE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vault-store-model-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny deterministic generator (xorshift64) so schedules need no
/// external crate and replay exactly from their seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The one true unit verdict for fingerprint `fp`. Every append for
/// `fp` writes exactly this, mirroring how the real cache's value is
/// determined by the fingerprinted source.
fn summary_for(fp: u64) -> CheckSummary {
    CheckSummary {
        name: format!("unit-{fp:04}.vlt"),
        verdict: if fp.is_multiple_of(2) {
            Verdict::Accepted
        } else {
            Verdict::Rejected
        },
        diagnostics: if fp.is_multiple_of(2) {
            Vec::new()
        } else {
            vec![diag_for(fp)]
        },
        stats: CheckStats {
            statements: (fp % 97) as usize,
            calls: (fp % 13) as usize,
            ..Default::default()
        },
    }
}

fn diag_for(fp: u64) -> DiagView {
    DiagView {
        code: "V301".to_string(),
        severity: "error".to_string(),
        message: format!("value of key F leaks (unit {fp})"),
        start: 10,
        end: 20,
        line: 2,
        col: 5,
        labels: vec![LabelView {
            message: format!("opened here (unit {fp})"),
            line: 1,
            col: 1,
        }],
        rendered: format!("error[V301]: value of key F leaks (unit {fp})"),
    }
}

/// The one true per-function record for fingerprint `fp`: diagnostics
/// relative to the declaration start and a read set.
fn fn_views_for(fp: u64) -> Arc<FnVerdict> {
    let diags = if fp.is_multiple_of(3) {
        Vec::new()
    } else {
        vec![Diagnostic::error(
            Code::KeyLeak,
            Span::new(10, 20),
            format!("value of key F leaks (fn {fp})"),
        )
        .with_label(Span::new(0, 4), format!("opened here (fn {fp})"))]
    };
    let reads = ReadSet {
        rest: fp.rotate_left(17),
        fns: (0..fp % 4)
            .map(|k| (fp ^ k, fp.wrapping_mul(k + 1)))
            .collect(),
    };
    Arc::new(FnVerdict { diags, reads })
}

fn fn_stats_for(fp: u64) -> CheckStats {
    CheckStats {
        statements: (fp % 31) as usize,
        joins: (fp % 5) as usize,
        ..Default::default()
    }
}

fn unit_record(fp: u64) -> Record {
    Record::Unit {
        fp,
        summary: summary_for(fp),
    }
}

fn fn_record(fp: u64) -> Record {
    Record::Fn {
        fp,
        views: fn_views_for(fp),
        stats: fn_stats_for(fp),
    }
}

/// The model invariant: recovery may have *dropped* records (that only
/// costs warmth), but every record it replays must be byte-faithful.
fn assert_faithful(loaded: &Loaded, context: &str) {
    for (fp, summary) in &loaded.units {
        assert_eq!(
            summary,
            &summary_for(*fp),
            "{context}: unit {fp:#x} replayed a corrupted verdict"
        );
    }
    for (fp, views, stats) in &loaded.fns {
        assert_eq!(
            views,
            &fn_views_for(*fp),
            "{context}: fn {fp:#x} replayed corrupted diagnostics"
        );
        assert_eq!(
            stats,
            &fn_stats_for(*fp),
            "{context}: fn {fp:#x} replayed corrupted stats"
        );
    }
}

/// Damage the cache directory the way disks, crashes and downgrades do:
/// truncate, flip bits, smash a segment header, leave a garbage
/// `index.vidx` (an older build kept one), drop whole segments, leave
/// a stray temp file (older builds' compaction could).
fn mutilate(dir: &Path, rng: &mut Rng) {
    let segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "vseg"))
                .collect()
        })
        .unwrap_or_default();
    match rng.below(6) {
        0 => {
            // Truncate a segment mid-frame.
            if let Some(path) = pick(&segs, rng) {
                if let Ok(meta) = std::fs::metadata(path) {
                    let len = meta.len();
                    if len > 0 {
                        let keep = rng.below(len + 1);
                        let _ = std::fs::OpenOptions::new()
                            .write(true)
                            .open(path)
                            .and_then(|f| f.set_len(keep));
                    }
                }
            }
        }
        1 => {
            // Flip one bit somewhere in a segment.
            if let Some(path) = pick(&segs, rng) {
                if let Ok(mut bytes) = std::fs::read(path) {
                    if !bytes.is_empty() {
                        let at = rng.below(bytes.len() as u64) as usize;
                        bytes[at] ^= 1 << rng.below(8);
                        let _ = std::fs::write(path, bytes);
                    }
                }
            }
        }
        2 => {
            // An older build's live-frame index, garbled: it is an
            // unknown file now, and boot must not trust a byte of it.
            let mut garbage = b"VAULTIDX".to_vec();
            garbage.extend((0..rng.below(64)).map(|_| rng.next() as u8));
            let _ = std::fs::write(dir.join("index.vidx"), garbage);
        }
        3 => {
            // Corrupt one segment's 12-byte header (magic or format
            // version): boot must quarantine that segment, not fail.
            if let Some(path) = pick(&segs, rng) {
                if let Ok(mut bytes) = std::fs::read(path) {
                    if bytes.len() >= 12 {
                        let at = rng.below(12) as usize;
                        bytes[at] = bytes[at].wrapping_add(1 + rng.below(255) as u8);
                        let _ = std::fs::write(path, bytes);
                    }
                }
            }
        }
        4 => {
            // Delete a whole segment.
            if let Some(path) = pick(&segs, rng) {
                let _ = std::fs::remove_file(path);
            }
        }
        _ => {
            // Older builds' compaction could leave stray temp files;
            // boot must ignore them, never adopt them.
            let _ = std::fs::write(dir.join("seg-999999.vseg.tmp"), b"half-written garbage");
        }
    }
}

fn pick<'a>(paths: &'a [PathBuf], rng: &mut Rng) -> Option<&'a PathBuf> {
    if paths.is_empty() {
        None
    } else {
        Some(&paths[rng.below(paths.len() as u64) as usize])
    }
}

/// Tier-1 torture: a tight disk bound must hold after every maintenance
/// pass, across seals, compactions, evictions, and a restart — and the
/// surviving records must stay faithful throughout.
#[test]
fn store_bound_torture_holds_the_disk_bound() {
    let _guard = exclusive();
    let dir = tmp_dir("bound");
    let bound: u64 = 32 * 1024;
    let cfg = StoreConfig {
        segment_max_bytes: 4 * 1024,
        max_bytes: Some(bound),
    };
    let (store, loaded) = VerdictStore::open(&dir, cfg).unwrap();
    assert_faithful(&loaded, "bound torture boot");
    let mut rng = Rng::new(0xB0B);
    for round in 0..64u32 {
        let records: Vec<Record> = (0..32)
            .map(|_| {
                // Half the stream supersedes earlier fingerprints so
                // compaction has dead bytes to reclaim; half is fresh
                // so eviction has to fire too.
                let fp = rng.below(512);
                if rng.below(4) == 0 {
                    fn_record(fp)
                } else {
                    unit_record(fp)
                }
            })
            .collect();
        store.append(&records).unwrap();
        store.maintain().unwrap();
        let health = store.health();
        assert!(
            health.disk_bytes <= bound,
            "round {round}: store holds {} bytes, bound is {bound}",
            health.disk_bytes
        );
    }
    let health = store.health();
    assert!(health.segments_sealed > 0, "the bound never forced a seal");
    assert!(
        health.bytes_reclaimed > 0,
        "64 supersede-heavy rounds reclaimed nothing"
    );
    drop(store);

    let (store, loaded) = VerdictStore::open(&dir, cfg).unwrap();
    assert_faithful(&loaded, "bound torture restart");
    assert!(
        !loaded.units.is_empty(),
        "an evicted-down store should still replay its newest segments"
    );
    assert!(store.health().disk_bytes <= bound);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A real service over a repeatedly mutilated cache directory: restart
/// after restart, every answer must equal the from-source check. The
/// damaged store may only cost warmth.
#[test]
fn mutilated_cache_never_changes_a_service_answer() {
    use vault_server::{CheckService, ServiceConfig, UnitIn};

    let _guard = exclusive();
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
    ];
    let dir = tmp_dir("svc");
    let mut rng = Rng::new(0x5EED_CAFE);
    for generation in 0..6u32 {
        let svc = CheckService::new(ServiceConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            cache_max_bytes: Some(64 * 1024),
            ..Default::default()
        });
        for (name, source) in sources {
            let report = svc.check_unit(UnitIn {
                name: name.to_string(),
                source: source.to_string(),
            });
            let want = vault_core::check_summary(name, source);
            assert_eq!(
                *report.summary, want,
                "generation {generation}: `{name}` diverged from the from-source check"
            );
        }
        assert!(svc.maintain_store(), "the service should have a store");
        drop(svc);
        mutilate(&dir, &mut rng);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The seeded crash/compaction model: ≥200 schedules (override with
/// `STORE_MODEL_SCHEDULES`) of appends, supersedes, wipes, maintenance,
/// injected persistence faults, direct mutilation, and reopens.
#[cfg(feature = "chaos")]
mod chaos_schedules {
    use super::*;
    use vault_server::chaos::{self, ChaosConfig};

    const SEGMENT_MAX: u64 = 1024;
    const BOUND: u64 = 8 * 1024;

    fn arm(seed: u64, prob: f64) {
        chaos::arm(ChaosConfig {
            seed,
            panic_prob: 0.0,
            delay_prob: 0.0,
            short_write_chunk: None,
            persist_fault_prob: prob,
            ..Default::default()
        });
    }

    fn reopen(dir: &Path, cfg: StoreConfig, context: &str) -> VerdictStore {
        let (store, loaded) =
            VerdictStore::open(dir, cfg).unwrap_or_else(|e| panic!("{context}: open failed: {e}"));
        assert_faithful(&loaded, context);
        store
    }

    fn run_schedule(seed: u64) {
        let dir = tmp_dir(&format!("chaos-{seed}"));
        let mut rng = Rng::new(seed);
        let cfg = StoreConfig {
            segment_max_bytes: SEGMENT_MAX,
            max_bytes: Some(BOUND),
        };
        // Low-probability schedules exercise long fault-free stretches
        // with occasional crashes; high-probability ones crash nearly
        // every operation.
        let fault_prob = [0.05, 0.15, 0.35][(seed % 3) as usize];
        arm(seed ^ 0xFA_u64, fault_prob);
        let mut store = reopen(&dir, cfg, &format!("seed {seed}: first boot"));

        let ops = 30 + rng.below(30);
        for op in 0..ops {
            let context = format!("seed {seed}, op {op}");
            match rng.below(100) {
                // Append a small batch; fingerprints collide on purpose
                // so supersedes accumulate dead bytes. Failures are the
                // point — the store may refuse, never lie.
                0..=54 => {
                    let records: Vec<Record> = (0..1 + rng.below(4))
                        .map(|_| {
                            let fp = rng.below(24);
                            if rng.below(4) == 0 {
                                fn_record(fp)
                            } else {
                                unit_record(fp)
                            }
                        })
                        .collect();
                    let _ = store.append(&records);
                }
                // Maintenance under fire: compaction's copies go through
                // the frame writer (`append.write`, `append.sync`, and
                // `seal` when the tail fills), then `compact.unlink`
                // may crash the pass before a copied segment's delete.
                55..=69 => {
                    let _ = store.maintain();
                }
                // clear-cache mid-schedule.
                70..=74 => {
                    let _ = store.wipe();
                }
                // Crash, damage the disk, recover.
                75..=84 => {
                    chaos::disarm();
                    drop(store);
                    mutilate(&dir, &mut rng);
                    store = reopen(&dir, cfg, &format!("{context}: after mutilation"));
                    arm(rng.next(), fault_prob);
                }
                // Plain crash + recover, faults still armed through
                // boot (boot writes nothing but a tail header, which
                // has no fault point, so it must always succeed).
                _ => {
                    drop(store);
                    store = reopen(&dir, cfg, &format!("{context}: after crash"));
                }
            }
        }

        // Quiesce: no faults, one full maintenance pass, and the
        // survivors must fit the bound and still be faithful.
        chaos::disarm();
        drop(store);
        let store = reopen(&dir, cfg, &format!("seed {seed}: quiesce boot"));
        store
            .maintain()
            .unwrap_or_else(|e| panic!("seed {seed}: fault-free maintenance failed: {e}"));
        let health = store.health();
        assert!(
            health.disk_bytes <= BOUND,
            "seed {seed}: {} bytes on disk after maintenance, bound is {BOUND}",
            health.disk_bytes
        );
        drop(store);
        let _ = reopen(&dir, cfg, &format!("seed {seed}: final boot"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `compact.unlink` fires after a compaction's copies are durable
    /// and before its segment's delete: the pass fails, every verdict
    /// survives in the copies and the segment both, boot folds them
    /// cleanly, and the next pass deletes the segment.
    #[test]
    fn crash_before_a_compacted_segments_delete_keeps_every_verdict() {
        let _guard = exclusive();
        let dir = tmp_dir("chaos-unlink");
        let cfg = StoreConfig {
            segment_max_bytes: SEGMENT_MAX,
            max_bytes: None,
        };
        let store = reopen(&dir, cfg, "first boot");
        for fp in 0..24 {
            store.append(&[unit_record(fp)]).unwrap();
        }
        // Supersede every other verdict: each sealed segment keeps
        // live frames beside dead ones.
        for fp in (0..24).step_by(2) {
            store.append(&[unit_record(fp)]).unwrap();
        }
        let segments = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let before = segments();
        chaos::arm(ChaosConfig {
            seed: 7,
            persist_fault_prob: 1.0,
            persist_fault_only: Some("compact.unlink"),
            ..Default::default()
        });
        let crashed = store.maintain();
        chaos::disarm();
        assert!(crashed.is_err(), "the fault point fired");
        assert!(
            segments().starts_with(&before[..1]),
            "the first victim outlived its copies"
        );
        drop(store);

        let (store, loaded) = VerdictStore::open(&dir, cfg).unwrap();
        assert_faithful(&loaded, "after the crash");
        assert_eq!(loaded.errors, 0, "victim and copies scan cleanly");
        let live: std::collections::BTreeSet<u64> =
            loaded.units.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(live, (0..24).collect(), "every verdict survives");
        store.maintain().unwrap();
        assert!(
            !segments().contains(&before[0]),
            "the next pass deleted the victim"
        );
        drop(store);
        let (_store, loaded) = VerdictStore::open(&dir, cfg).unwrap();
        assert_faithful(&loaded, "after the next pass");
        let live: std::collections::BTreeSet<u64> =
            loaded.units.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(live, (0..24).collect());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_crash_schedules_recover_faithfully() {
        let _guard = exclusive();
        let schedules: u64 = std::env::var("STORE_MODEL_SCHEDULES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(200);
        for seed in 0..schedules {
            run_schedule(seed);
        }
        chaos::disarm();
    }
}
