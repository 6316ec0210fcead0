//! Cache transparency under seeded edit sequences.
//!
//! Each seed opens an [`EditSession`] on one unit — a `synth` Mixed
//! unit, a `synth` Sockets unit, or a worker unit of a `synth` project
//! checked against its import prelude — and makes 30 seeded edits:
//! body line inserts and deletes, literal changes, local renames to a
//! fresh name and to an existing one, added and removed functions,
//! signature renames, brace edits, edits spanning two bodies,
//! syntax-breaking edits, effect-clause changes to a called function,
//! deletions of a called function, a `struct` or type alias inserted
//! ahead of every declaration, and undos. After every edit, two engines
//! check the new text — one with a roomy function cache and one with a
//! tiny cache that forces eviction on every check — and every answer
//! must equal the monolithic `check_summary_with_limits` /
//! `check_summary_with_prelude`.
//!
//! With the roomy cache, an edit confined to one body of a parseable
//! unit must reuse the verdict of every other function, wherever the
//! edit moved it: 47 of 48 on the 48-function units. An interface edit
//! between two parseable versions must re-check only what read the
//! change, counted from the text: a renamed parameter re-checks its
//! function and that function's callers, an added function only itself,
//! a removed uncalled function nothing, and an inserted type everything.
//!
//! The restart leg drives the same sessions through a `CheckService`
//! with a `cache_dir` at jobs 1 and 2, dropping and reopening the
//! service at seeded points. Every answer must still equal the
//! monolithic checker, and the first body-confined edit after a reopen
//! must hit n−1 of n function verdicts from the replayed store, which
//! holds only if dropping the service committed its journal.
//!
//! The project leg edits the worker units of `synth` projects, one
//! seeded edit per step, and re-checks the whole project through
//! `CheckService::check_project` at jobs 1 and 2, with a roomy and a
//! tiny (evicting) verdict cache. Some steps add or remove an `import`
//! of another worker unit instead, closing and opening import cycles
//! (`V601`), or of a unit the project lacks (`V602`). Every answer must
//! equal the sequential `vault_project::check_project`.
//!
//! The concurrent leg runs four seeded sessions at once, each a client
//! of one `MuxServer` socket over two pool threads. Two of the sessions
//! edit the same unit name from the same starting text, so their first
//! requests collapse into one check and their edits contend for one
//! cached environment. Every reply must equal `check_summary`'s answer,
//! encoded as the daemon encodes it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vault_core::{check_summary_with_limits, check_summary_with_prelude, CheckSummary, Limits};
use vault_corpus::edits::{EditKind, EditSession};
use vault_corpus::synth::{self, ProjectConfig, Shape, SynthConfig};
use vault_project::{ProjectPlan, ProjectUnit};
use vault_server::{
    proto, CheckService, IncrementalEngine, Json, Metrics, MuxConfig, MuxServer, ServiceConfig,
    UnitIn, UnitReport,
};
use vault_syntax::{ast, DiagSink};

/// Edits per seed.
const EDITS: usize = 30;

/// The edit mix, by weight: mostly body edits, as in real typing.
const MIX: [(EditKind, u32); 13] = [
    (EditKind::BodyLine, 4),
    (EditKind::Literal, 3),
    (EditKind::RenameLocalFresh, 2),
    (EditKind::RenameLocalExisting, 2),
    (EditKind::AddRemoveFn, 1),
    (EditKind::Signature, 1),
    (EditKind::Brace, 1),
    (EditKind::TwoBodies, 1),
    (EditKind::SyntaxBreaking, 1),
    (EditKind::EffectClause, 1),
    (EditKind::DeleteCalled, 1),
    (EditKind::InsertType, 1),
    (EditKind::Undo, 2),
];

#[derive(Clone, Copy, Debug)]
enum Family {
    Mixed,
    Sockets,
    Project,
}

/// The size of a session's unit: `(functions, statements per function)`.
type Size = (usize, usize);

/// `(unit name, prelude, source)` for one seed.
fn subject(family: Family, seed: u64, (functions, stmts): Size) -> (String, String, String) {
    let unit = |shape| {
        synth::generate(&SynthConfig {
            functions,
            stmts_per_fn: stmts,
            seed,
            bug_rate: 0.15,
            shape,
        })
        .source
    };
    match family {
        Family::Mixed => (
            format!("mixed_{seed}.vlt"),
            String::new(),
            unit(Shape::Mixed),
        ),
        Family::Sockets => (
            format!("sockets_{seed}.vlt"),
            String::new(),
            unit(Shape::Sockets),
        ),
        Family::Project => {
            let project = synth::generate_project(&ProjectConfig {
                units: 1,
                fns_per_unit: functions,
                stmts_per_fn: stmts,
                seed,
                bug_rate: 0.5,
            });
            let units: Vec<ProjectUnit> = project
                .units
                .iter()
                .map(|(n, s)| ProjectUnit::new(n.as_str(), s.as_str()))
                .collect();
            let plan = ProjectPlan::build(&units, Limits::default().parser_depth);
            let (name, source) = project.units[1].clone();
            (name, plan.units[1].prelude.clone(), source)
        }
    }
}

fn reference(name: &str, prelude: &str, source: &str, limits: &Limits) -> CheckSummary {
    if prelude.is_empty() {
        check_summary_with_limits(name, source, limits)
    } else {
        check_summary_with_prelude(name, prelude, source, limits)
    }
}

/// Function bodies the engine sees in `source`.
fn bodies(source: &str) -> u64 {
    vault_syntax::parse_program(source, &mut DiagSink::new())
        .decls
        .iter()
        .filter(|d| matches!(d, ast::Decl::Fun(f) if f.body.is_some()))
        .count() as u64
}

fn parses_cleanly(s: &CheckSummary) -> bool {
    !s.diagnostics.iter().any(|d| d.code.starts_with("V1"))
}

/// Function name → declaration text, for every function with a body.
fn declarations(source: &str) -> Vec<(String, String)> {
    vault_syntax::parse_program(source, &mut DiagSink::new())
        .functions()
        .into_iter()
        .filter(|f| f.body.is_some())
        .map(|f| {
            let span = f.span.start as usize..f.span.end as usize;
            (f.name.name.to_string(), source[span].to_string())
        })
        .collect()
}

/// Whether `text` calls `name`: `name(` not preceded by an identifier
/// character.
fn calls(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            && text[i + name.len()..].starts_with('(')
    })
}

/// How many function verdicts an edit from `old` to `new` (both
/// parseable) must miss with a roomy cache: `(fewest, most)`. Only the
/// functions whose text changed, and those that read a changed
/// signature, may miss; an earlier version's verdict may still hit
/// where the edit can return to a signature seen before.
fn expected_misses(kind: EditKind, old: &str, new: &str) -> Option<(u64, u64)> {
    let (before, after) = (declarations(old), declarations(new));
    let gone = |decls: &[(String, String)], of: &[(String, String)]| -> Vec<String> {
        decls
            .iter()
            .filter(|(n, _)| !of.iter().any(|(m, _)| m == n))
            .map(|(n, _)| n.clone())
            .collect()
    };
    let changed: Vec<String> = after
        .iter()
        .filter(|(n, text)| before.iter().any(|(m, t)| m == n && t != text))
        .map(|(n, _)| n.clone())
        .collect();
    // Functions other than `name` whose text calls it.
    let callers = |decls: &[(String, String)], name: &str| {
        decls
            .iter()
            .filter(|(n, text)| n != name && calls(text, name))
            .count() as u64
    };
    match kind {
        EditKind::Signature => {
            let [name] = &changed[..] else { return None };
            let n = 1 + callers(&after, name);
            Some((n, n))
        }
        EditKind::AddRemoveFn => match (&gone(&after, &before)[..], &gone(&before, &after)[..]) {
            ([_added], []) => Some((1, 1)),
            ([], [removed]) => Some((0, callers(&before, removed))),
            _ => None,
        },
        EditKind::EffectClause => {
            let [name] = &changed[..] else { return None };
            Some((0, 1 + callers(&after, name)))
        }
        EditKind::DeleteCalled => {
            let [removed] = &gone(&before, &after)[..] else {
                return None;
            };
            Some((0, callers(&before, removed)))
        }
        EditKind::InsertType => Some((after.len() as u64, after.len() as u64)),
        _ => None,
    }
}

/// One engine configuration.
struct Engine {
    label: &'static str,
    engine: IncrementalEngine,
    metrics: Metrics,
    /// Whether the function cache holds the whole unit (hit ratios are
    /// asserted only then).
    roomy: bool,
}

impl Engine {
    fn new(label: &'static str, fn_capacity: usize) -> Self {
        Engine {
            label,
            engine: IncrementalEngine::new(2, fn_capacity),
            metrics: Metrics::default(),
            roomy: fn_capacity >= 1024,
        }
    }

    fn check(&self, name: &str, prelude: &str, source: &str, limits: &Limits) -> CheckSummary {
        self.engine
            .check_unit_with_prelude(name, prelude, source, limits, &self.metrics)
    }

    fn counts(&self) -> (u64, u64) {
        let s = self.metrics.snapshot();
        (s.fn_cache_hits, s.fn_cache_misses)
    }
}

/// The next edit of a session: mostly the weighted mix, but a broken
/// unit is usually repaired soon after.
fn next_kind(was_clean: bool, rng: &mut StdRng) -> EditKind {
    if !was_clean && rng.gen_bool(0.5) {
        EditKind::Undo
    } else {
        draw(rng)
    }
}

fn draw(rng: &mut StdRng) -> EditKind {
    let total: u32 = MIX.iter().map(|&(_, w)| w).sum();
    let mut at = rng.gen_range(0..total);
    for &(kind, w) in &MIX {
        if at < w {
            return kind;
        }
        at -= w;
    }
    unreachable!("weights cover the range")
}

/// Run one seeded session through `engines`, asserting every answer.
/// Returns how many body-confined edits had their hit count asserted,
/// and how many interface edits their miss count.
fn run_session(family: Family, seed: u64, size: Size, engines: &[Engine]) -> (usize, usize) {
    let limits = Limits::default();
    let (name, prelude, source) = subject(family, seed, size);
    let mut session = EditSession::new(source);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xed17);
    let mut want = reference(&name, &prelude, session.source(), &limits);
    for e in engines {
        assert_eq!(e.check(&name, &prelude, session.source(), &limits), want);
    }
    let mut asserted = (0, 0);
    for step in 0..EDITS {
        let was_clean = parses_cleanly(&want);
        let kind = next_kind(was_clean, &mut rng);
        let old = session.source().to_string();
        let applied = session.apply(kind, &mut rng);
        let src = session.source();
        want = reference(&name, &prelude, src, &limits);
        let both_clean = applied && was_clean && parses_cleanly(&want);
        let assert_hits = both_clean && kind.body_confined();
        let n = if assert_hits { bodies(src) } else { 0 };
        let misses_bound = if both_clean {
            expected_misses(kind, &old, src)
        } else {
            None
        };
        for e in engines {
            let (hits, misses) = e.counts();
            let got = e.check(&name, &prelude, src, &limits);
            assert!(
                got == want,
                "{family:?} seed {seed} step {step} ({}) [{}]: engine diverged\n\
                 got:  {got:?}\nwant: {want:?}\nsource:\n{src}",
                kind.name(),
                e.label,
            );
            if assert_hits && e.roomy {
                let (h, m) = e.counts();
                let (h, m) = (h - hits, m - misses);
                assert!(
                    h + m == n && h + 1 >= n,
                    "{family:?} seed {seed} step {step} ({}) [{}]: {h} hits, {m} misses \
                     over {n} functions",
                    kind.name(),
                    e.label,
                );
            }
            if let (Some((fewest, most)), true) = (misses_bound, e.roomy) {
                let m = e.counts().1 - misses;
                assert!(
                    (fewest..=most).contains(&m),
                    "{family:?} seed {seed} step {step} ({}) [{}]: {m} misses, expected \
                     {fewest}..={most}\nsource:\n{src}",
                    kind.name(),
                    e.label,
                );
            }
        }
        asserted.0 += usize::from(assert_hits);
        asserted.1 += usize::from(misses_bound.is_some());
    }
    asserted
}

/// Seeds per family: 3 × 67 ≥ 200 sessions of [`EDITS`] edits.
const SEEDS: u64 = 67;

fn run_family(family: Family) {
    let (mut asserted, mut interface) = (0, 0);
    for seed in 0..SEEDS {
        let engines = [Engine::new("roomy", 1024), Engine::new("tiny", 4)];
        let (body, iface) = run_session(family, seed, (8, 6), &engines);
        asserted += body;
        interface += iface;
    }
    // The mix makes body-confined edits of clean units common; make sure
    // the hit assertion really ran, and the interface miss counts too.
    assert!(asserted as u64 > SEEDS * EDITS as u64 / 4, "{asserted}");
    assert!(interface as u64 > SEEDS * EDITS as u64 / 20, "{interface}");
}

#[test]
fn mixed_unit_edit_sequences_match_the_monolithic_checker() {
    run_family(Family::Mixed);
}

#[test]
fn socket_unit_edit_sequences_match_the_monolithic_checker() {
    run_family(Family::Sockets);
}

#[test]
fn project_unit_edit_sequences_match_the_prelude_checker() {
    run_family(Family::Project);
}

#[test]
fn forty_eight_function_units_reuse_47_of_48_verdicts() {
    let mut asserted = 0;
    for family in [Family::Mixed, Family::Sockets] {
        for seed in 0..3 {
            let engines = [Engine::new("roomy", 1024)];
            asserted += run_session(family, 1000 + seed, (48, 12), &engines).0;
        }
    }
    assert!(asserted > 6 * EDITS / 4, "{asserted}");
}

/// A service journaling to `dir`, as a daemon with `--cache-dir` runs.
fn service(dir: &std::path::Path, jobs: usize) -> CheckService {
    CheckService::new(ServiceConfig {
        jobs,
        cache_capacity: 64,
        cache_dir: Some(dir.to_path_buf()),
        ..Default::default()
    })
}

/// One seeded session through a persistent service that is dropped and
/// reopened before about one edit in five. Returns how many reopens had
/// their function-verdict hits asserted.
fn run_restart_session(family: Family, seed: u64, jobs: usize) -> usize {
    let limits = Limits::default();
    let (name, prelude, source) = subject(family, seed, (8, 6));
    assert!(prelude.is_empty(), "the restart leg checks plain units");
    let dir = std::env::temp_dir().join(format!(
        "vault-edit-restart-{family:?}-{seed}-{jobs}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let check = |svc: &CheckService, source: &str| {
        svc.check_unit(UnitIn {
            name: name.clone(),
            source: source.to_string(),
        })
    };
    let mut session = EditSession::new(source);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e57);
    let mut svc = service(&dir, jobs);
    let mut want = reference(&name, &prelude, session.source(), &limits);
    assert_eq!(*check(&svc, session.source()).summary, want);
    let mut reopened = false;
    let mut asserted = 0;
    for step in 0..EDITS {
        if rng.gen_bool(0.2) {
            drop(svc);
            svc = service(&dir, jobs);
            assert_eq!(svc.status().cache_load_errors, 0);
            reopened = true;
        }
        let was_clean = parses_cleanly(&want);
        let kind = next_kind(was_clean, &mut rng);
        let applied = session.apply(kind, &mut rng);
        let src = session.source();
        want = reference(&name, &prelude, src, &limits);
        let before = svc.status();
        let report = check(&svc, src);
        assert!(
            *report.summary == want,
            "{family:?} seed {seed} step {step} ({}) [jobs {jobs}]: service diverged\n\
             got:  {:?}\nwant: {want:?}\nsource:\n{src}",
            kind.name(),
            report.summary,
        );
        if report.cached {
            continue; // nothing was checked: the reopen is still untested
        }
        if reopened && applied && kind.body_confined() && was_clean && parses_cleanly(&want) {
            let after = svc.status();
            let h = after.fn_cache_hits - before.fn_cache_hits;
            let m = after.fn_cache_misses - before.fn_cache_misses;
            let n = bodies(src);
            assert!(
                h + m == n && h + 1 >= n,
                "{family:?} seed {seed} step {step} ({}) [jobs {jobs}]: {h} hits, {m} misses \
                 over {n} functions after a reopen",
                kind.name(),
            );
            asserted += 1;
        }
        // A fresh check refills the in-memory caches; a later edit's
        // hits would no longer prove anything about the store.
        reopened = false;
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    asserted
}

/// Worker units per project in the project leg (the interface unit
/// comes on top).
const PROJECT_WORKERS: usize = 4;

/// A name no unit of a `synth` project has: importing it is a `V602`.
const MISSING_UNIT: &str = "unit_9999";

/// What the project sessions' answers held, summed over their steps.
#[derive(Default)]
struct ProjectCoverage {
    /// Units answered with a `V601` import cycle.
    cycles: usize,
    /// Units answered with a `V602` unresolved import.
    unresolved: usize,
    /// Imports removed again.
    removed: usize,
}

/// One seeded session over a whole `synth` project: each step edits one
/// worker unit, then every service re-checks the project and must
/// answer exactly what the sequential project checker does. One step in
/// four adds or removes an `import` at the top of the unit instead: of
/// another worker unit, which may close a cycle, or now and then of a
/// name no unit has.
fn run_project_session(
    seed: u64,
    services: &[(&str, CheckService)],
    coverage: &mut ProjectCoverage,
) {
    let limits = Limits::default();
    let project = synth::generate_project(&ProjectConfig {
        units: PROJECT_WORKERS,
        fns_per_unit: 6,
        stmts_per_fn: 6,
        seed,
        bug_rate: 0.5,
    });
    let names: Vec<String> = project.units.iter().map(|(n, _)| n.clone()).collect();
    let mut sessions: Vec<EditSession> = project
        .units
        .iter()
        .map(|(_, s)| EditSession::new(s.as_str()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e0f);
    let mut imports: Vec<Vec<&str>> = vec![Vec::new(); sessions.len()];
    let mut clean = vec![true; sessions.len()];
    for step in 0..=EDITS {
        // Step 0 checks the project as generated.
        if step > 0 {
            let worker = rng.gen_range(1..sessions.len());
            if rng.gen_bool(0.25) {
                let target = if rng.gen_bool(0.125) {
                    MISSING_UNIT
                } else {
                    let other = rng.gen_range(1..sessions.len() - 1);
                    names[other + usize::from(other >= worker)].as_str()
                };
                let imported = &mut imports[worker];
                if let Some(at) = imported.iter().position(|&n| n == target) {
                    imported.remove(at);
                    coverage.removed += 1;
                } else {
                    imported.push(target);
                }
            } else {
                let kind = next_kind(clean[worker], &mut rng);
                sessions[worker].apply(kind, &mut rng);
            }
        }
        let sources: Vec<String> = imports
            .iter()
            .zip(&sessions)
            .map(|(imported, s)| {
                let mut source: String = imported
                    .iter()
                    .map(|n| format!("import \"{n}\";\n"))
                    .collect();
                source.push_str(s.source());
                source
            })
            .collect();
        let units: Vec<ProjectUnit> = names
            .iter()
            .zip(&sources)
            .map(|(n, s)| ProjectUnit::new(n.as_str(), s.as_str()))
            .collect();
        let want = vault_project::check_project(&units, &limits);
        for (i, s) in want.iter().enumerate() {
            clean[i] = parses_cleanly(s);
            let has = |code| s.diagnostics.iter().any(|d| d.code == code);
            coverage.cycles += usize::from(has("V601"));
            coverage.unresolved += usize::from(has("V602"));
        }
        for (label, svc) in services {
            let request: Vec<UnitIn> = units
                .iter()
                .map(|u| UnitIn {
                    name: u.name.clone(),
                    source: u.source.clone(),
                })
                .collect();
            let (reports, _) = svc.check_project(request);
            let got: Vec<&CheckSummary> = reports.iter().map(|r| &*r.summary).collect();
            let want: Vec<&CheckSummary> = want.iter().collect();
            assert!(
                got == want,
                "project seed {seed} step {step} [{label}]: service diverged\n\
                 got:  {got:?}\nwant: {want:?}",
            );
        }
    }
}

#[test]
fn project_edit_sequences_match_the_sequential_project_checker() {
    let config = |jobs, cache_capacity| {
        CheckService::new(ServiceConfig {
            jobs,
            cache_capacity,
            ..Default::default()
        })
    };
    // One set of services for every seed, so the caches carry over
    // between sessions too; the tiny one evicts on every request.
    let services = [
        ("jobs 1, roomy", config(1, 1024)),
        ("jobs 2, roomy", config(2, 1024)),
        ("jobs 1, tiny", config(1, 2)),
        ("jobs 2, tiny", config(2, 2)),
    ];
    let mut coverage = ProjectCoverage::default();
    for seed in 0..24 {
        run_project_session(3000 + seed, &services, &mut coverage);
    }
    // The import edits closed cycles, named a missing unit, and were
    // taken back again.
    assert!(coverage.cycles > 0, "no import cycle");
    assert!(coverage.unresolved > 0, "no unresolved import");
    assert!(coverage.removed > 0, "no import removed");
    // The roomy services answered most unedited units from the cache.
    let status = services[0].1.status();
    assert!(status.units_reused > status.units_scheduled, "{status:?}");
}

/// Seeds per family and job count in the restart leg.
const RESTART_SEEDS: u64 = 12;

#[test]
fn service_edit_sequences_survive_restarts_part_way_through() {
    let mut asserted = 0;
    for family in [Family::Mixed, Family::Sockets] {
        for jobs in [1, 2] {
            for seed in 0..RESTART_SEEDS {
                asserted += run_restart_session(family, 2000 + seed, jobs);
            }
        }
    }
    // Reopens land before about six edits of each of the 48 sessions;
    // make sure the hit assertion after a reopen really ran.
    assert!(asserted as u64 > 8 * RESTART_SEEDS, "{asserted}");
}

/// The concurrent leg's sessions: `(family, subject seed, edit seed)`.
/// The last two share a subject, and so a unit name and a first text.
const CONCURRENT_SESSIONS: [(Family, u64, u64); 4] = [
    (Family::Mixed, 4000, 1),
    (Family::Sockets, 4001, 2),
    (Family::Mixed, 4002, 3),
    (Family::Mixed, 4002, 4),
];

/// A reply's unit object with the fields that say where the answer came
/// from (`cached`, `check_micros`) zeroed: concurrency may change those,
/// never the answer.
fn answer_only(unit: &Json) -> Json {
    match unit {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| match k.as_str() {
                    "cached" => (k.clone(), Json::Bool(false)),
                    "check_micros" => (k.clone(), Json::num(0)),
                    _ => (k.clone(), v.clone()),
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// One seeded session as a socket client: the unit as generated, then
/// [`EDITS`] edits, each sent as a one-unit `check` whose reply must
/// equal the encoded `check_summary` answer.
fn run_client_session(path: &std::path::Path, client: usize, start: &Barrier) {
    let (family, subject_seed, edit_seed) = CONCURRENT_SESSIONS[client];
    let limits = Limits::default();
    let (name, prelude, source) = subject(family, subject_seed, (8, 6));
    assert!(prelude.is_empty(), "the concurrent leg checks plain units");
    let mut session = EditSession::new(source);
    let mut rng = StdRng::seed_from_u64(edit_seed);
    let stream = UnixStream::connect(path).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = &stream;
    let mut clean = true;
    start.wait();
    for step in 0..=EDITS {
        let kind = (step > 0).then(|| next_kind(clean, &mut rng));
        if let Some(kind) = kind {
            session.apply(kind, &mut rng);
        }
        let src = session.source();
        let request = Json::Obj(vec![
            ("op".to_string(), Json::str("check")),
            ("id".to_string(), Json::num(step as u64)),
            (
                "units".to_string(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".to_string(), Json::str(&name)),
                    ("source".to_string(), Json::str(src)),
                ])]),
            ),
        ]);
        writeln!(writer, "{}", request.to_line()).unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        let reply = vault_server::parse_json(line.trim_end()).unwrap();
        let want = check_summary_with_limits(&name, src, &limits);
        clean = parses_cleanly(&want);
        let report = UnitReport {
            summary: Arc::new(want),
            cached: false,
            check_micros: 0,
        };
        let want = proto::encode_check(None, &[report], 0);
        let unit =
            |v: &Json| answer_only(&v.get("units").and_then(Json::as_arr).expect("units")[0]);
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(step as u64));
        assert!(
            unit(&reply) == unit(&want),
            "client {client} ({name}) step {step} ({}): reply diverged\n\
             got:  {line}\nwant: {}\nsource:\n{src}",
            kind.map_or("initial", |k| k.name()),
            want.to_line(),
        );
    }
}

#[test]
fn concurrent_clients_through_one_multiplexer_match_the_monolithic_checker() {
    let svc = Arc::new(CheckService::new(ServiceConfig {
        jobs: 2,
        cache_capacity: 64,
        ..Default::default()
    }));
    let path = std::env::temp_dir().join(format!("vault-edit-mux-{}.sock", std::process::id()));
    let mut mux = MuxServer::new(Arc::clone(&svc), MuxConfig::default());
    mux.bind_unix(&path).expect("bind");
    let server = std::thread::spawn(move || mux.run().expect("serve"));
    let start = Arc::new(Barrier::new(CONCURRENT_SESSIONS.len()));
    let clients: Vec<_> = (0..CONCURRENT_SESSIONS.len())
        .map(|client| {
            let (path, start) = (path.clone(), Arc::clone(&start));
            std::thread::spawn(move || run_client_session(&path, client, &start))
        })
        .collect();
    for client in clients {
        client.join().expect("a session diverged");
    }
    // The shared first request ran once: its twin joined the flight or
    // hit the cache.
    let status = svc.status();
    assert!(
        status.singleflight_joins + status.cache_hits >= 1,
        "{status:?}"
    );
    assert_eq!(
        status.units_checked,
        (CONCURRENT_SESSIONS.len() * (EDITS + 1)) as u64
    );
    let mut stream = UnixStream::connect(&path).expect("connect for shutdown");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).unwrap();
    server.join().unwrap();
}
