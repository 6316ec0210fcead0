//! Function-granular incremental re-checking.
//!
//! The whole-unit verdict cache (see [`crate::cache`]) answers only
//! *exact* re-submissions. This module recovers most of the work for the
//! far more common case — a unit resubmitted after a small edit — by
//! splitting the pipeline's memoization in two:
//!
//! 1. **Declaration environment.** Parsing + elaboration produce an
//!    [`Elaborated`] (declaration tables, frozen interner, base keys)
//!    that depends only on the unit's *signatures*, never on function
//!    body content. It is cached per unit name together with its
//!    [`Interface`] fingerprints.
//! 2. **Per-function verdicts.** As in the paper, a function is checked
//!    on its own, against the declared effect clauses of the names it
//!    uses, so its verdict is a pure function of the declaration's own
//!    text and of what the check read of the environment — not of where
//!    the declaration sits, nor of any declaration it never looked at. A
//!    verdict is keyed by `base_hash` (unit name, limits, prelude length)
//!    plus the declaration's bytes, with no offsets and no line/column.
//!    It stores the raw [`Diagnostic`]s with every span relative to the
//!    declaration start, the function's [`CheckStats`], and its
//!    [`ReadSet`]: one fingerprint of every non-function declaration
//!    table, plus each callee name the check looked up with that
//!    signature's fingerprint (or absent). A probe reuses the verdict
//!    only while the read set holds in the current environment, so
//!    adding a function, or re-signing one, re-checks only the functions
//!    that named it. At assembly each verdict is re-based to the
//!    declaration's current start and rendered through the unit's
//!    [`Attribution`] (the re-basing path project mode uses), so line
//!    numbers and quoted source lines always come from the text being
//!    checked. A verdict with a span or label outside its own declaration
//!    would depend on more than that text; it is used once and never
//!    cached.
//!
//! # What the environment cache holds
//!
//! A function body is needed only while its unit is being checked, so
//! the environment cache keeps only the declarations. A `CachedEnv`
//! holds the checked text, the declaration slots and keys, the
//! [`Interface`], and an [`Elaborated`] whose `bodies` is empty —
//! declaration tables, frozen interner and base keys. On a 24 KB,
//! 48-function unit that is about 69 KB (23 KB of it the text), against
//! the 0.5 MB a cached copy of the body ASTs cost.
//!
//! Only a later check of the same unit name can reuse an environment,
//! and most names a build farm sends are never checked again, so an
//! environment is admitted on a name's *second* full check. The first
//! leaves a ghost: an entry with no environment under the same key, in
//! the same LRU, taking one slot of the same capacity. The fast path
//! treats a ghost as a miss; a full check stores its environment when
//! the name has an entry (ghost or environment) and a ghost otherwise.
//! A ghost evicted before its name returns admits nothing, so a name
//! must come back within one capacity's worth of other names. An
//! edited file in an editor pays one more full check, with its
//! function verdicts already cached, before edits take the fast path.
//! The function-verdict cache admits on first sight as before.
//!
//! # One body loop
//!
//! Every check runs one loop: take each function's outcome in order (a
//! cached verdict or a fresh check), splice it into the summary, and
//! stop where the monolithic checker stops, after the first
//! [`Code::LimitExceeded`]. Hits and misses are counted in that order,
//! only up to the stop. The paths differ only in where an outcome comes
//! from:
//!
//! * **Fast path** — the environment cache holds a clean parse of an
//!   earlier text under this unit name, and a common-prefix/suffix scan
//!   against that text finds the edit confined strictly inside one
//!   function body (both braces untouched). The cached [`Elaborated`] is
//!   reused outright (no parse, no elaboration); later declarations'
//!   spans shift by the length delta; a function whose verdict misses is
//!   checked from a *mini-parse* of just its own declaration. A
//!   mini-parse lexes only the declaration's byte range of the checked
//!   text, with spans in whole-text coordinates, numbers each token by
//!   looking its name up in the cached environment's frozen interner,
//!   and parses in that symbol space. It yields exactly what a parse of
//!   the text blanked outside that range would, with the symbols of the
//!   whole text ([`vault_syntax::parse_range_in`]). A name the frozen
//!   interner lacks rejects it before parsing. The edited declaration
//!   is mini-parsed even when its verdict hits: a verdict cached from a
//!   recovered parse of the same text cannot tell that the text does not
//!   parse. A mini-parse must be pristine: no diagnostic, exactly the
//!   expected span, and a body. Otherwise, or when a fresh verdict
//!   reaches outside its declaration, the fast path abandons the check
//!   with nothing counted. The environment entry is then refreshed with
//!   the new text and slots, sharing the same [`Elaborated`].
//! * **Full path, declarations first** — anything else (an edit outside
//!   bodies or spanning two, a brace edit, a new identifier, an evicted
//!   environment or a ghost). The whole text is lexed once, so the
//!   frozen interner is exactly the eager parse's, and only the
//!   declarations are parsed: each function body is skipped by brace
//!   matching over the tokens ([`vault_syntax::parse_outline`]). After
//!   elaboration, a body is parsed from its tokens only when its verdict
//!   misses. A body left unparsed could hide a syntax error, so only a
//!   *pristine* verdict — one checked from a body whose parse reported
//!   nothing — may stand in for it. The monolithic checker parses every body before checking
//!   any, so when a verdict stops the loop ([`Code::LimitExceeded`]) the
//!   bodies past it are parsed too. An environment is stored only once
//!   every body was parsed or stood in for.
//! * **Full path, eager** — the fallback. If the declaration pass or any
//!   body parse reports anything, the declarations-first attempt is
//!   abandoned with nothing counted, and the unit is parsed whole as the
//!   monolithic checker parses it. The fallback takes over what the
//!   attempt spent: its front-end timings join the request's, and a
//!   function it checked counts as the miss it was, with that check's
//!   time, not as a hit on its own verdict. Verdicts checked there are
//!   pristine only when that parse reported nothing. A full check starts here
//!   outright when the fast path's mini-parse of the edited declaration
//!   reported a syntax error: declarations first would only fall back.
//!
//! Either way the assembled [`CheckSummary`] is **byte-identical** to
//! what a monolithic [`vault_core::check_summary_with_limits`] run would
//! produce — same diagnostics in the same order with the same rendering,
//! same counters, same verdict. The differential and edit-sequence test
//! suites hold the engine to that.
//!
//! Deadline-bounded checks bypass the engine entirely: a wall-clock
//! verdict is not a pure function of the input, so caching any part of
//! it could pin a transient timeout onto healthy re-checks.
//!
//! # Prefetch
//!
//! Bodies are independent given the environment, so helper jobs on the
//! worker pool may fill the full path's outcome slots ahead of the loop
//! ([`IncrementalEngine::check_unit_with_prelude_parallel`]). Helpers
//! and loop claim function indices from one atomic counter, and the loop
//! claims only while the slot it needs is empty, so each body is parsed
//! and checked once and a helper still queued behind other work never
//! holds the loop up. The sequential check is the zero-helper case: the
//! loop claims exactly the index it needs, and nothing past an early
//! exit is checked. Per-function `frames_copied` counters stay exact
//! because each body runs start to finish on one thread (see
//! [`vault_core::flow::FrameCopyScope`]). A panicking check is caught
//! where it runs and re-raised by the loop in function order, before the
//! metrics are added or the environment cache is written, so the
//! service's containment produces the same `internal-error` summary
//! whichever thread ran it. The one divergence is warmth, not output:
//! helpers may check and cache functions past an early exit or a panic.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use vault_core::check::{check_function_reading, CheckStats};
use vault_core::interface::{Decls, Interface, ReadSet};
use vault_core::{
    check_summary_with_prelude, elaborate_owned, CheckSummary, Elaborated, Limits, Verdict,
};
use vault_syntax::intern::fnv1a;
use vault_syntax::{
    ast, parse_outline, parse_program_with_depth_timed, parse_range_in, Attribution, Code,
    DiagSink, DiagView, Diagnostic, FrontEndTiming, Outline, Severity, Span,
};

use crate::cache::{fnv1a_64, LruCache};
use crate::metrics::Metrics;
use crate::pool::{lock_unpoisoned as lock, panic_payload, ThreadPool};

/// Headroom subtracted from the parser depth for a mini-parse. A
/// declaration nested inside `interface { ... }` sits a few grammar
/// levels deeper in the full parse than it does standing alone; parsing
/// the standalone form with *less* fuel guarantees the mini-parse never
/// succeeds where the full parse would have reported
/// [`Code::LimitExceeded`] (the failure direction is harmless — it just
/// falls back to the full path).
const MINI_PARSE_DEPTH_MARGIN: usize = 8;

/// The memoized front half of the pipeline for one unit name.
struct CachedEnv {
    /// Hash of the unit name, limits and prelude length: the part of
    /// every function key the text does not hold (see [`base_hash`]).
    base_hash: u64,
    /// The checked text (prelude + unit source) this entry describes.
    source: Arc<str>,
    /// `(whole-declaration span, body span including braces)` for each
    /// checked function, in check order, in `source` coordinates.
    slots: Vec<(Span, Span)>,
    /// Per-function verdict keys, parallel to `slots`.
    keys: Vec<u64>,
    /// The reusable elaboration output: declaration tables and frozen
    /// interner only. Its `bodies` is always empty; a body AST lives
    /// only while its unit is being checked.
    elaborated: Arc<Elaborated>,
    /// `elaborated`'s fingerprints, which read sets are checked against.
    iface: Arc<Interface>,
    /// Whether parse + elaboration reported nothing, every body included:
    /// a declarations-first check stores an entry only once each body was
    /// parsed or stood in for by a pristine verdict (bodies past a
    /// [`Code::LimitExceeded`] stop are parsed for this). The fast path
    /// requires it: partial parses have unstable declaration tables, and
    /// the monolithic checker's early-exit rules key off these
    /// diagnostics.
    clean: bool,
}

impl CachedEnv {
    /// This entry refreshed for `source` when `source` differs from its
    /// text only strictly inside one function body (or not at all), plus
    /// that body's index; `None` otherwise. The refreshed entry shares
    /// this one's [`Elaborated`] and [`Interface`].
    ///
    /// A common-prefix/suffix scan bounds the replaced region. The
    /// declarations outside it are unchanged, so the environment still
    /// holds; every offset past the region moves by the length delta,
    /// and only the edited declaration needs a new key.
    fn edited_to(&self, source: &str) -> Option<(CachedEnv, Option<usize>)> {
        let refreshed = |slots: Vec<(Span, Span)>, keys: Vec<u64>| CachedEnv {
            source: Arc::from(source),
            slots,
            keys,
            elaborated: Arc::clone(&self.elaborated),
            iface: Arc::clone(&self.iface),
            ..*self
        };
        let (old, new) = (self.source.as_bytes(), source.as_bytes());
        let prefix = common_prefix(old, new);
        if prefix == old.len() && prefix == new.len() {
            return Some((refreshed(self.slots.clone(), self.keys.clone()), None));
        }
        let suffix = common_suffix(&old[prefix..], &new[prefix..]);
        // `old[prefix..old_end]` was replaced; the opening brace must sit
        // in the common prefix and the closing one in the common suffix.
        let old_end = old.len() - suffix;
        let k = self
            .slots
            .iter()
            .position(|&(_, body)| (body.start as usize) < prefix && old_end < body.end as usize)?;
        let delta = new.len() as i64 - old.len() as i64;
        // Every slot endpoint lies before the region or after it, never
        // inside: declarations do not nest.
        let moved = |o: u32| {
            if o as usize > prefix {
                (o as i64 + delta) as u32
            } else {
                o
            }
        };
        let slots: Vec<(Span, Span)> = self
            .slots
            .iter()
            .map(|&(d, b)| {
                (
                    Span::new(moved(d.start), moved(d.end)),
                    Span::new(moved(b.start), moved(b.end)),
                )
            })
            .collect();
        let mut keys = self.keys.clone();
        keys[k] = fn_key(self.base_hash, source, slots[k].0);
        Some((refreshed(slots, keys), Some(k)))
    }
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const W: usize = 16;
    let n = a.len().min(b.len());
    let mut i = 0;
    // Whole chunks first: slice equality compiles to a wide compare.
    while i + W <= n && a[i..i + W] == b[i..i + W] {
        i += W;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    const W: usize = 16;
    let n = a.len().min(b.len());
    let (la, lb) = (a.len(), b.len());
    let mut i = 0;
    while i + W <= n && a[la - i - W..la - i] == b[lb - i - W..lb - i] {
        i += W;
    }
    while i < n && a[la - i - 1] == b[lb - i - 1] {
        i += 1;
    }
    i
}

/// The memoized verdict for one function body, independent of where
/// its declaration sits, plus what says when it still holds. Shared
/// (`Arc`) by the per-function cache, the assembly loop and the
/// journal; its counters travel beside it.
#[derive(Debug, PartialEq, Eq)]
pub struct FnVerdict {
    /// The function's diagnostics in discovery order, every span taken
    /// relative to the declaration start (modulo 2^32, so a span before
    /// the start survives the round trip).
    pub diags: Vec<Diagnostic>,
    /// What the check read of the unit's declarations.
    pub reads: ReadSet,
    /// Whether the body was checked from a parse that reported nothing:
    /// only such a verdict may stand in for a body left unparsed.
    pub pristine: bool,
}

/// `stats` with every phase timing zeroed: a request that reuses a
/// verdict did none of that work, so only the request that checked the
/// body counts its time.
fn untimed(stats: CheckStats) -> CheckStats {
    CheckStats {
        lex_micros: 0,
        parse_micros: 0,
        elaborate_micros: 0,
        lower_micros: 0,
        check_micros: 0,
        ..stats
    }
}

/// Apply `f` to every offset of `d`'s primary span and labels. Spans are
/// rebuilt field by field: a relative span that wrapped below zero is
/// transiently "inverted", which `Span::new` would reject.
fn map_offsets(d: &mut Diagnostic, f: impl Fn(u32) -> u32) {
    d.span = Span {
        start: f(d.span.start),
        end: f(d.span.end),
    };
    for l in &mut d.labels {
        l.span = Span {
            start: f(l.span.start),
            end: f(l.span.end),
        };
    }
}

impl FnVerdict {
    /// A verdict from diagnostics reported for a declaration starting at
    /// `start`.
    fn at(start: u32, mut diags: Vec<Diagnostic>, reads: ReadSet, pristine: bool) -> Self {
        for d in &mut diags {
            map_offsets(d, |o| o.wrapping_sub(start));
        }
        FnVerdict {
            diags,
            reads,
            pristine,
        }
    }

    /// Whether every span and label lies inside a declaration of
    /// `decl_len` bytes. Only such a verdict depends on nothing but the
    /// declaration's text and its read set, and may be cached or
    /// persisted.
    fn self_contained(&self, decl_len: u32) -> bool {
        let inside = |s: Span| s.start <= s.end && s.end <= decl_len;
        self.diags
            .iter()
            .all(|d| inside(d.span) && d.labels.iter().all(|l| inside(l.span)))
    }
}

/// A cached verdict and its untimed counters.
type FnEntry = (Arc<FnVerdict>, CheckStats);

/// How many verdicts with different read sets the cache keeps for one
/// declaration text. An edit that flips a callee's signature back and
/// forth, or an undo, finds the verdict of the environment it returns
/// to instead of re-checking every caller. Every verdict counts against
/// the cache's capacity, so this bounds only how much of it one
/// declaration may take.
///
/// Measured by where in its key's list each hit was found: on a traced
/// `edit_stream` run (seed 1) no hit lay past the third verdict (96% on
/// the first); after a restart, the store replays verdicts in the order
/// they were written, not last used, and the `edit_sequences` restart
/// leg found hits as deep as the sixth. 6 is the smallest value that
/// leg passes with.
const MAX_VARIANTS: usize = 6;

/// Render `verdict`'s diagnostics re-based at `start`, the declaration's
/// current offset, and fold them plus its stats into the running
/// summary state. Returns `true` when checking must stop after this
/// function (the monolithic checker breaks its loop on the first
/// [`Code::LimitExceeded`] anywhere in the sink).
fn splice(
    views: &mut Vec<DiagView>,
    stats: &mut CheckStats,
    attr: &Attribution,
    start: u32,
    (verdict, fn_stats): &FnEntry,
) -> bool {
    for d in &verdict.diags {
        let mut d = d.clone();
        map_offsets(&mut d, |o| o.wrapping_add(start));
        views.push(attr.view(&d));
    }
    stats.absorb(*fn_stats);
    verdict.diags.iter().any(|d| d.code == Code::LimitExceeded)
}

/// What one function contributes to a check.
#[derive(Clone)]
enum FnOutcome {
    /// The per-function cache already had a verdict that still holds.
    Hit(FnEntry),
    /// Freshly checked (and cached when self-contained), with the
    /// microseconds its body parse (zero when parsed before the loop)
    /// and its check took.
    Fresh(FnEntry, u64, u64),
    /// The check panicked; [`assemble`] re-raises the payload in
    /// function order.
    Panicked(String),
}

/// The one body loop every check runs. Takes each function's outcome
/// in order, counts hits and misses, splices the verdict at its
/// declaration's current start, and stops where the monolithic checker
/// stops. `outcome` returning `None` abandons the check with nothing
/// counted. A panicked outcome re-raises its payload before anything is
/// counted; callers write the environment cache only after this
/// returns.
fn assemble(
    name: &str,
    attr: &Attribution,
    slots: &[(Span, Span)],
    mut views: Vec<DiagView>,
    mut stats: CheckStats,
    metrics: &Metrics,
    mut outcome: impl FnMut(usize) -> Option<FnOutcome>,
) -> Option<CheckSummary> {
    let (mut hits, mut misses) = (0u64, 0u64);
    for (i, &(decl, _)) in slots.iter().enumerate() {
        let entry = match outcome(i)? {
            FnOutcome::Hit(entry) => {
                hits += 1;
                entry
            }
            FnOutcome::Fresh(entry, parse_micros, check_micros) => {
                misses += 1;
                stats.parse_micros += parse_micros;
                stats.check_micros += check_micros;
                entry
            }
            FnOutcome::Panicked(msg) => resume_unwind(Box::new(msg)),
        };
        if splice(&mut views, &mut stats, attr, decl.start, &entry) {
            break;
        }
    }
    metrics.fn_cache_hits.fetch_add(hits, Ordering::Relaxed);
    metrics.fn_cache_misses.fetch_add(misses, Ordering::Relaxed);
    Some(CheckSummary {
        name: name.to_string(),
        verdict: verdict_of(&views),
        diagnostics: views,
        stats,
    })
}

/// The per-function verdict cache. Shared (`Arc`) with the prefetch
/// helpers of a full check.
struct FnCache {
    /// Per key, up to [`MAX_VARIANTS`] verdicts, most recent first. Each
    /// verdict counts against the capacity.
    lru: Mutex<LruCache<Arc<[FnEntry]>>>,
    /// When set (persistence enabled), every fresh function verdict is
    /// also pushed onto `dirty` for the service's journal writer to
    /// drain into the on-disk store. Off by default so a daemon without
    /// `--cache-dir` never accumulates an unbounded list.
    track_dirty: AtomicBool,
    /// Fresh `(key, verdict)` pairs not yet persisted.
    dirty: Mutex<Vec<(u64, FnEntry)>>,
}

impl FnCache {
    /// The verdict cached under `key` whose read set holds in `iface`.
    fn get(&self, key: u64, iface: &Interface) -> Option<FnEntry> {
        let variants = lock(&self.lru).get(key)?;
        variants.iter().find(|(v, _)| v.reads.holds(iface)).cloned()
    }

    /// Make `entry` the most recent verdict under `key`, in place of
    /// any with the same read set.
    fn install(&self, key: u64, entry: FnEntry) {
        let mut lru = lock(&self.lru);
        let older = lru.get(key).unwrap_or_else(|| Arc::new([]));
        let reads = &entry.0.reads;
        let variants: Arc<[FnEntry]> = std::iter::once(entry.clone())
            .chain(older.iter().filter(|(v, _)| v.reads != *reads).cloned())
            .take(MAX_VARIANTS)
            .collect();
        let weight = variants.len();
        lru.put_weighted(key, variants, weight);
    }

    /// Cache a freshly checked verdict under `key` (and queue it for the
    /// persistence layer, when enabled) if it is self-contained within
    /// `decl`. Returns it shared either way.
    fn remember(&self, key: u64, decl: Span, verdict: FnVerdict, stats: CheckStats) -> FnEntry {
        let entry = (Arc::new(verdict), stats);
        if entry.0.self_contained(decl.len()) {
            self.install(key, entry.clone());
            if self.track_dirty.load(Ordering::Relaxed) {
                lock(&self.dirty).push((key, entry.clone()));
            }
        }
        entry
    }

    /// Check `f` against `elab` and remember the verdict under `key`:
    /// the miss step of every path. `pristine` says whether `f` came
    /// from a parse that reported nothing. A panicking check is caught
    /// here, on whichever thread ran it.
    fn check(
        &self,
        key: u64,
        elab: &Elaborated,
        iface: &Interface,
        f: &ast::FunDecl,
        limits: &Limits,
        pristine: bool,
    ) -> FnOutcome {
        let checked = catch_unwind(AssertUnwindSafe(|| {
            let decls = Decls::of(elab);
            let mut sink = DiagSink::new();
            let stats = check_function_reading(&decls, f, &mut sink, limits);
            let reads = iface.read_set(&decls.callees());
            let verdict = FnVerdict::at(f.span.start, sink.into_vec(), reads, pristine);
            (verdict, stats)
        }));
        match checked {
            Ok((verdict, stats)) => {
                let entry = self.remember(key, f.span, verdict, untimed(stats));
                FnOutcome::Fresh(entry, 0, stats.check_micros)
            }
            Err(e) => FnOutcome::Panicked(panic_payload(&*e)),
        }
    }
}

/// Shared function-granular incremental checking state.
///
/// `Send + Sync`; one instance is shared by every worker thread. Both
/// caches recover from mutex poisoning the same way the whole-unit
/// verdict cache does: no entry holds an invariant a panicking inserter
/// could break halfway, so the worst case is a missing entry.
pub struct IncrementalEngine {
    /// Declaration environments by unit-name hash. `None` is a ghost: a
    /// name fully checked once, whose next full check admits its
    /// environment (see the module docs).
    envs: Mutex<LruCache<Option<Arc<CachedEnv>>>>,
    fns: Arc<FnCache>,
}

/// Hash of what shapes a check besides the text: the unit name, the
/// limits that shape parsing/checking, and the prelude length (project
/// mode prepends dependency signatures; two prelude/unit splits of one
/// concatenation attribute diagnostics differently).
fn base_hash(name: &str, limits: &Limits, prelude_len: u32) -> u64 {
    let h = fnv1a_64(name.as_bytes());
    let h = fnv1a(h, &[0x00]);
    let h = fnv1a(h, &(limits.parser_depth as u64).to_le_bytes());
    let h = fnv1a(h, &(limits.fixpoint_iters as u64).to_le_bytes());
    fnv1a(h, &(prelude_len as u64).to_le_bytes())
}

/// The key of one function's verdict: `base` plus the declaration's own
/// bytes. Nothing about where it sits, and nothing about the rest of
/// the unit: the verdict's read set says which declarations it needs.
fn fn_key(base: u64, source: &str, decl: Span) -> u64 {
    fnv1a(
        base,
        &source.as_bytes()[decl.start as usize..decl.end as usize],
    )
}

/// Parse exactly one declaration of the checked text `text` — only its
/// byte range is lexed, spans stay in whole-text coordinates — in the
/// symbol space of a cached environment's frozen interner. `Err` when
/// the mini-parse is not [`pristine`], holding whether it reported a
/// diagnostic. A name the interner lacks rejects it before parsing, as
/// `Err(false)`: a frozen interner cannot number a brand-new name
/// (symbols are in string order), so the full path re-lexes the text.
fn mini_parse(
    text: &str,
    decl: Span,
    elab: &Elaborated,
    limits: &Limits,
) -> Result<ast::FunDecl, bool> {
    let mut diags = DiagSink::new();
    let depth = limits.parser_depth.saturating_sub(MINI_PARSE_DEPTH_MARGIN);
    let program = parse_range_in(text, decl, &elab.syms, &mut diags, depth).ok_or(false)?;
    let reported = !diags.diagnostics().is_empty();
    pristine(program, &diags, decl).ok_or(reported)
}

/// The one function a mini-parse of `decl` must yield; `None` on any
/// diagnostic, anything but one function declaration, a span that
/// moved, or a vanished body.
fn pristine(program: ast::Program, diags: &DiagSink, decl: Span) -> Option<ast::FunDecl> {
    if !diags.diagnostics().is_empty() {
        return None;
    }
    let mut decls = program.decls;
    if decls.len() != 1 {
        return None;
    }
    let Some(ast::Decl::Fun(f)) = decls.pop() else {
        return None;
    };
    (f.span == decl && f.body.is_some()).then_some(f)
}

/// Recompute the verdict from assembled diagnostics, mirroring
/// `CheckResult::verdict` over the same set.
fn verdict_of(views: &[DiagView]) -> Verdict {
    if views.iter().any(|d| d.code == Code::LimitExceeded.as_str()) {
        Verdict::ResourceLimit
    } else if views.iter().any(|d| d.severity == Severity::Error.as_str()) {
        Verdict::Rejected
    } else {
        Verdict::Accepted
    }
}

/// Where a full check starts.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Front {
    /// Parse declarations first, and a body only when its verdict misses.
    DeclarationsFirst,
    /// Parse the whole unit up front: the edit broke a body's syntax, so
    /// declarations first would only fall back.
    Eager,
}

/// The front half of a full check: parse + elaborate, plus everything
/// derived from them that body checking needs.
struct FrontEnd {
    /// What the environment cache keeps once the check ends.
    env: CachedEnv,
    /// The unit's function declarations, in check order, moved out of
    /// the parse. Freed when the unit's check ends.
    bodies: Vec<ast::FunDecl>,
    /// The lexed unit, when `bodies` were skipped by the declaration
    /// pass and are parsed only on a miss; `None` when they are parsed.
    outline: Option<Outline>,
    /// Whether the parse behind `bodies` reported nothing.
    pristine: bool,
    pre_views: Vec<DiagView>,
    /// How many functions the body loop may reach: only the first after
    /// a front-end [`Code::LimitExceeded`], as in the monolithic checker.
    reach: usize,
    /// Stats seeded with the front-end phase timings.
    stats: CheckStats,
}

/// What an abandoned declarations-first attempt already did. The eager
/// fallback takes it over, so the request's timings include both front
/// ends and a function checked before the abandonment counts as the miss
/// it was, not as a hit on its own verdict.
#[derive(Debug, Default)]
struct Spent {
    /// The abandoned attempt's front-end timings.
    stats: CheckStats,
    /// Verdicts it checked, with the microseconds their body parse and
    /// check took.
    fresh: Vec<(Arc<FnVerdict>, u64, u64)>,
}

/// A full check's function bodies, with one outcome slot each. The
/// body loop fills the slot it needs next; prefetch helpers on the pool
/// fill slots ahead of it. Every slot is claimed from `next`, in order,
/// so each function is parsed and checked at most once.
struct Bodies {
    fns: Arc<FnCache>,
    elaborated: Arc<Elaborated>,
    iface: Arc<Interface>,
    /// The unit's declarations, moved from its [`FrontEnd`].
    bodies: Vec<ast::FunDecl>,
    /// Where unparsed bodies are parsed from (see [`FrontEnd::outline`]).
    outline: Option<Outline>,
    /// Whether a body parsed before the loop came from a clean parse.
    pristine: bool,
    keys: Vec<u64>,
    limits: Limits,
    /// The lowest index nobody has claimed yet.
    next: AtomicUsize,
    /// One slot per function the loop may reach; `None` once a body
    /// parse reported something, which abandons the check.
    ready: Vec<OnceLock<Option<FnOutcome>>>,
    /// [`Spent::fresh`] of the attempt this check falls back from, each
    /// taken by the first function that reuses its verdict.
    spent: Mutex<Vec<(Arc<FnVerdict>, u64, u64)>>,
}

impl Bodies {
    /// Claim the next unclaimed function and fill its slot; `false` once
    /// every function is claimed.
    fn claim(&self) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.ready.get(i) else {
            return false;
        };
        slot.get_or_init(|| self.outcome(i));
        true
    }

    /// Function `i`'s outcome (see [`Self::reuse_or_check`]). When its
    /// verdict stops the loop and the declaration pass skipped bodies,
    /// every later body is parsed too: the monolithic checker parses them
    /// all before checking any, so their syntax errors are part of its
    /// answer. `None` when any body parse reports anything: the check is
    /// abandoned, so nobody claims further functions.
    fn outcome(&self, i: usize) -> Option<FnOutcome> {
        let outcome = self.reuse_or_check(i);
        let stops = match &outcome {
            Some(FnOutcome::Hit((v, _)) | FnOutcome::Fresh((v, _), ..)) => {
                v.diags.iter().any(|d| d.code == Code::LimitExceeded)
            }
            _ => false,
        };
        if let (true, Some(outline)) = (stops, &self.outline) {
            let rest = &self.bodies[i + 1..];
            let body = |f: &ast::FunDecl| f.body.as_ref().expect("collected with body").span;
            if !rest.iter().all(|f| outline.parse_body(body(f)).is_some()) {
                self.next.fetch_max(self.ready.len(), Ordering::Relaxed);
                return None;
            }
        }
        outcome
    }

    /// Probe the per-function cache; on a miss, parse the body if the
    /// declaration pass skipped it, then check it. `None` when that
    /// parse reports anything.
    fn reuse_or_check(&self, i: usize) -> Option<FnOutcome> {
        let key = self.keys[i];
        let cached = self.fns.get(key, &self.iface);
        let decl = &self.bodies[i];
        let Some(outline) = &self.outline else {
            if let Some(entry) = cached {
                return Some(self.reused(entry));
            }
            return Some(self.fns.check(
                key,
                &self.elaborated,
                &self.iface,
                decl,
                &self.limits,
                self.pristine,
            ));
        };
        // Only a pristine verdict may stand in for an unparsed body.
        if let Some(entry) = cached.filter(|(v, _)| v.pristine) {
            return Some(self.reused(entry));
        }
        let started = std::time::Instant::now();
        let body = decl.body.as_ref().expect("collected with body").span;
        let Some(body) = outline.parse_body(body) else {
            self.next.fetch_max(self.ready.len(), Ordering::Relaxed);
            return None;
        };
        let parsed = ast::FunDecl {
            body: Some(body),
            ..decl.clone()
        };
        let parse_micros = started.elapsed().as_micros() as u64;
        let outcome = self.fns.check(
            key,
            &self.elaborated,
            &self.iface,
            &parsed,
            &self.limits,
            true,
        );
        Some(match outcome {
            FnOutcome::Fresh(entry, _, check_micros) => {
                FnOutcome::Fresh(entry, parse_micros, check_micros)
            }
            outcome => outcome,
        })
    }

    /// A cache hit on `entry`, or the miss it was when the abandoned
    /// attempt this check falls back from checked that very verdict.
    fn reused(&self, entry: FnEntry) -> FnOutcome {
        let mut spent = lock(&self.spent);
        match spent.iter().position(|(v, ..)| Arc::ptr_eq(v, &entry.0)) {
            Some(i) => {
                let (_, parse_micros, check_micros) = spent.swap_remove(i);
                FnOutcome::Fresh(entry, parse_micros, check_micros)
            }
            None => FnOutcome::Hit(entry),
        }
    }

    /// What the check did before it was abandoned, for the fallback.
    fn spent(&self, stats: CheckStats) -> Spent {
        let fresh = self
            .ready
            .iter()
            .filter_map(|slot| match slot.get() {
                Some(Some(FnOutcome::Fresh((v, _), parse, check))) => {
                    Some((Arc::clone(v), *parse, *check))
                }
                _ => None,
            })
            .collect();
        Spent { stats, fresh }
    }

    /// What a helper job runs: claim until nothing is left.
    fn prefetch(&self) {
        while self.claim() {}
    }

    /// Function `i`'s outcome. Claims in order while slot `i` is empty;
    /// once every function is claimed, waits for whoever holds `i`, or
    /// fills it here if its claimant has not started on it.
    fn probe(&self, i: usize) -> Option<FnOutcome> {
        while self.ready[i].get().is_none() && self.claim() {}
        self.ready[i].get_or_init(|| self.outcome(i)).clone()
    }
}

impl IncrementalEngine {
    /// An engine whose environment cache holds `env_capacity` units and
    /// whose per-function cache holds `fn_capacity` verdicts.
    pub fn new(env_capacity: usize, fn_capacity: usize) -> Self {
        IncrementalEngine {
            envs: Mutex::new(LruCache::new(env_capacity)),
            fns: Arc::new(FnCache {
                lru: Mutex::new(LruCache::new(fn_capacity)),
                track_dirty: AtomicBool::new(false),
                dirty: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Start recording fresh function verdicts for [`Self::take_dirty`].
    /// Called once by the service when a persistent cache is attached.
    pub fn enable_dirty_tracking(&self) {
        self.fns.track_dirty.store(true, Ordering::Relaxed);
    }

    /// Drain every function verdict computed since the last drain, as
    /// `(key, verdict, counters)` rows ready to journal. The verdicts
    /// are shared with the cache, not copied.
    pub fn take_dirty(&self) -> Vec<(u64, Arc<FnVerdict>, CheckStats)> {
        std::mem::take(&mut *lock(&self.fns.dirty))
            .into_iter()
            .map(|(key, (verdict, stats))| (key, verdict, stats))
            .collect()
    }

    /// Install a function verdict replayed from the persistent cache.
    /// The key recipe is stable across restarts (base hash plus
    /// declaration text), and the verdict's read set is checked against
    /// the environment of whichever check probes it, so a later check of
    /// the same function hits this entry wherever the function has moved
    /// while what it read is unchanged. Any phase timings in `stats` are
    /// dropped.
    pub fn seed_fn(&self, key: u64, verdict: Arc<FnVerdict>, stats: CheckStats) {
        self.fns.install(key, (verdict, untimed(stats)));
    }

    /// Check one unit, reusing whatever the caches already know.
    ///
    /// The result is byte-identical to
    /// [`vault_core::check_summary_with_limits`] on the same inputs.
    pub fn check_unit(
        &self,
        name: &str,
        source: &str,
        limits: &Limits,
        metrics: &Metrics,
    ) -> CheckSummary {
        self.check(name, "", source, limits, metrics, None)
    }

    /// [`Self::check_unit`] against a dependency-signature prelude
    /// (project mode). The checker runs over `prelude + source`, every
    /// diagnostic is re-attributed to unit coordinates through
    /// [`Attribution`], and the base hash absorbs the prelude length, so
    /// a unit keeps its per-function cache across body edits even inside
    /// a project. The result is byte-identical to
    /// [`vault_core::check_summary_with_prelude`].
    pub fn check_unit_with_prelude(
        &self,
        name: &str,
        prelude: &str,
        source: &str,
        limits: &Limits,
        metrics: &Metrics,
    ) -> CheckSummary {
        self.check(name, prelude, source, limits, metrics, None)
    }

    /// [`Self::check_unit_with_prelude`], with a full check's function
    /// bodies prefetched by helper jobs on `pool` (see the module docs).
    /// Byte-identical to the sequential entry on every input.
    pub fn check_unit_with_prelude_parallel(
        &self,
        name: &str,
        prelude: &str,
        source: &str,
        limits: &Limits,
        metrics: &Metrics,
        pool: &ThreadPool,
    ) -> CheckSummary {
        self.check(name, prelude, source, limits, metrics, Some(pool))
    }

    /// Live entry counts `(environments, function verdicts)`. Ghosts
    /// are not environments and are not counted.
    pub fn entries(&self) -> (usize, usize) {
        let envs = lock(&self.envs).values().flatten().count();
        (envs, lock(&self.fns.lru).weight())
    }

    /// Drop every cached environment and function verdict, plus any
    /// verdicts queued for persistence (the caller is about to wipe the
    /// disk log too — journaling them afterwards would resurrect them).
    pub fn clear(&self) {
        lock(&self.envs).clear();
        lock(&self.fns.lru).clear();
        lock(&self.fns.dirty).clear();
    }

    /// Every entry point: the fast path when it applies, else the full
    /// path, prefetching on `pool` when given one.
    fn check(
        &self,
        name: &str,
        prelude: &str,
        source: &str,
        limits: &Limits,
        metrics: &Metrics,
        pool: Option<&ThreadPool>,
    ) -> CheckSummary {
        if limits.deadline.is_some() {
            // Wall-clock verdicts are not pure functions of the input.
            return check_summary_with_prelude(name, prelude, source, limits);
        }
        let attr = Attribution::with_prelude(name, prelude, source);
        match self.try_fast_path(name, &attr, limits, metrics) {
            Ok(summary) => summary,
            Err(front) => self.full_check(name, &attr, limits, metrics, pool, front),
        }
    }

    /// Edit-region path: reuse the cached elaboration; a function whose
    /// verdict misses is checked from a mini-parse of its own
    /// declaration. `Err` means the preconditions failed and the full
    /// path must run, starting with the front end it names; nothing is
    /// counted then, so the full path's counts are the unit's only ones.
    fn try_fast_path(
        &self,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
        metrics: &Metrics,
    ) -> Result<CheckSummary, Front> {
        let full = Front::DeclarationsFirst;
        let source = attr.full_text();
        let cached = lock(&self.envs)
            .get(fnv1a_64(name.as_bytes()))
            .flatten()
            .ok_or(full)?;
        if !cached.clean || cached.base_hash != base_hash(name, limits, attr.prelude_len()) {
            return Err(full);
        }
        let (env, edited) = cached.edited_to(source).ok_or(full)?;
        let parse = |decl| mini_parse(source, decl, &env.elaborated, limits);
        // The edited declaration must parse pristine even when its
        // verdict is cached: a verdict cached from a recovered parse of
        // the same text says nothing about the syntax error. A failed
        // mini-parse (syntax error, span drift, or a brand-new
        // identifier) means only the full pipeline can say what the
        // unit means now; after a syntax error, its body would not parse
        // on its own either, so the full path starts eager.
        let mut edited_fn = match edited {
            Some(k) => match parse(env.slots[k].0) {
                Ok(f) => Some(f),
                Err(true) => return Err(Front::Eager),
                Err(false) => return Err(full),
            },
            None => None,
        };
        let outcome = |i: usize| {
            if let Some(entry) = self.fns.get(env.keys[i], &env.iface) {
                return Some(FnOutcome::Hit(entry));
            }
            let decl = env.slots[i].0;
            let f = match edited_fn.take_if(|_| edited == Some(i)) {
                Some(f) => f,
                None => parse(decl).ok()?,
            };
            let elab = &env.elaborated;
            match self
                .fns
                .check(env.keys[i], elab, &env.iface, &f, limits, true)
            {
                // A verdict reaching outside its declaration may point
                // at text this entry has shifted.
                FnOutcome::Fresh((v, _), ..) if !v.self_contained(decl.len()) => None,
                outcome => Some(outcome),
            }
        };
        let stats = CheckStats::default();
        let summary =
            assemble(name, attr, &env.slots, Vec::new(), stats, metrics, outcome).ok_or(full)?;
        lock(&self.envs).put(fnv1a_64(name.as_bytes()), Some(Arc::new(env)));
        Ok(summary)
    }

    /// The declarations-first front end: lex the whole text once and
    /// parse only the declarations, skipping every function body. `Err`
    /// when that pass reports anything, with what it spent.
    fn outline_front(
        &self,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
    ) -> Result<FrontEnd, Spent> {
        let mut pre = DiagSink::new();
        let (program, outline, timing) =
            parse_outline(attr.full_text(), &mut pre, limits.parser_depth);
        if !pre.diagnostics().is_empty() {
            let stats = CheckStats {
                lex_micros: timing.lex_micros,
                parse_micros: timing.parse_micros,
                ..CheckStats::default()
            };
            return Err(Spent {
                stats,
                fresh: Vec::new(),
            });
        }
        let front = self.elaborate(name, attr, limits, program, pre, timing);
        Ok(FrontEnd {
            outline: Some(outline),
            ..front
        })
    }

    /// The eager front end: parse the whole unit, bodies included, as
    /// the monolithic checker does.
    fn eager_front(&self, name: &str, attr: &Attribution, limits: &Limits) -> FrontEnd {
        let mut pre = DiagSink::new();
        let (program, timing) =
            parse_program_with_depth_timed(attr.full_text(), &mut pre, limits.parser_depth);
        let pristine = pre.diagnostics().is_empty();
        let front = self.elaborate(name, attr, limits, program, pre, timing);
        FrontEnd { pristine, ..front }
    }

    /// Elaborate a parsed program and key every function: everything a
    /// full check does before touching a body. The program is consumed:
    /// its function declarations move into the front end, the rest is
    /// dropped once elaborated.
    fn elaborate(
        &self,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
        program: ast::Program,
        mut pre: DiagSink,
        timing: FrontEndTiming,
    ) -> FrontEnd {
        let source = attr.full_text();
        let mut elaborated = elaborate_owned(program, &mut pre);
        let bodies = std::mem::take(&mut elaborated.bodies);
        let reach = if pre.has_code(Code::LimitExceeded) {
            bodies.len().min(1)
        } else {
            bodies.len()
        };
        let pre_views: Vec<DiagView> = pre.into_vec().iter().map(|d| attr.view(d)).collect();

        let slots: Vec<(Span, Span)> = bodies
            .iter()
            .map(|f| (f.span, f.body.as_ref().expect("collected with body").span))
            .collect();
        let base = base_hash(name, limits, attr.prelude_len());
        let keys = slots
            .iter()
            .map(|&(decl, _)| fn_key(base, source, decl))
            .collect();
        let stats = CheckStats {
            lex_micros: timing.lex_micros,
            parse_micros: timing.parse_micros,
            elaborate_micros: elaborated.elaborate_micros,
            lower_micros: elaborated.lower_micros,
            ..CheckStats::default()
        };
        FrontEnd {
            env: CachedEnv {
                base_hash: base,
                source: Arc::from(source),
                slots,
                keys,
                iface: Arc::new(Interface::of(&elaborated)),
                elaborated: Arc::new(elaborated),
                clean: pre_views.is_empty(),
            },
            bodies,
            outline: None,
            pristine: true,
            pre_views,
            reach,
            stats,
        }
    }

    /// The full path from `front`: declarations first, falling back to
    /// the eager front end when the declaration pass or a body parse
    /// reports anything.
    fn full_check(
        &self,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
        metrics: &Metrics,
        pool: Option<&ThreadPool>,
        front: Front,
    ) -> CheckSummary {
        let mut spent = Spent::default();
        if front == Front::DeclarationsFirst {
            let outline = self.outline_front(name, attr, limits);
            match outline
                .and_then(|front| self.run(front, name, attr, limits, metrics, pool, spent))
            {
                Ok(summary) => return summary,
                Err(abandoned) => spent = abandoned,
            }
        }
        let front = self.eager_front(name, attr, limits);
        self.run(front, name, attr, limits, metrics, pool, spent)
            .expect("a parsed unit never abandons")
    }

    /// Run the body loop over the per-function cache (prefetching on
    /// `pool` when given one), taking over what an abandoned attempt
    /// `spent`, and store the environment, or a ghost on a name's first
    /// full check. `Err` with what this attempt spent when a skipped
    /// body's parse reported something.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        front: FrontEnd,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
        metrics: &Metrics,
        pool: Option<&ThreadPool>,
        spent: Spent,
    ) -> Result<CheckSummary, Spent> {
        let FrontEnd {
            env,
            bodies,
            outline,
            pristine,
            pre_views,
            reach,
            mut stats,
        } = front;
        let front_stats = stats;
        stats.absorb(spent.stats);
        let bodies = Arc::new(Bodies {
            fns: Arc::clone(&self.fns),
            elaborated: Arc::clone(&env.elaborated),
            iface: Arc::clone(&env.iface),
            bodies,
            outline,
            pristine,
            keys: env.keys.clone(),
            limits: *limits,
            next: AtomicUsize::new(0),
            ready: (0..reach).map(|_| OnceLock::new()).collect(),
            spent: Mutex::new(spent.fresh),
        });
        if let Some(pool) = pool {
            // Helpers are an accelerant, never a dependency: a refused
            // submission (pool draining) or a helper stuck behind queued
            // work just means the loop claims more itself.
            let helpers = pool
                .workers()
                .saturating_sub(1)
                .min(reach.saturating_sub(1));
            for _ in 0..helpers {
                let bodies = Arc::clone(&bodies);
                let _ = pool.submit(move || bodies.prefetch());
            }
        }
        let slots = &env.slots[..reach];
        let summary = assemble(name, attr, slots, pre_views, stats, metrics, |i| {
            bodies.probe(i)
        })
        .ok_or_else(|| bodies.spent(front_stats))?;
        // Admission on second sight: only a name the cache already
        // holds (as a ghost or an environment) keeps its environment.
        let key = fnv1a_64(name.as_bytes());
        let mut envs = lock(&self.envs);
        let seen = envs.get(key).is_some();
        envs.put(key, seen.then(|| Arc::new(env)));
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vault_core::check_summary_with_limits;
    use vault_syntax::parse_range_with_depth;

    const UNIT: &str = "\
interface REGION {
  type region;
  tracked(R) region create() [new R];
  void delete(tracked(R) region) [-R];
}
struct point { int x; int y; }
void alpha(bool flag) {
  tracked(A) region r = Region.create();
  A:point p = new(r) point {x=1; y=2;};
  if (flag) { p.x++; } else { p.y++; }
  Region.delete(r);
}
void beta() {
  tracked(B) region r = Region.create();
  B:point p = new(r) point {x=3; y=4;};
  Region.delete(r);
  p.x++;
}
";

    fn reference(name: &str, source: &str, limits: &Limits) -> CheckSummary {
        check_summary_with_limits(name, source, limits)
    }

    fn engine() -> (IncrementalEngine, Metrics) {
        (IncrementalEngine::new(64, 1024), Metrics::default())
    }

    /// Check `prelude + text` as `name` twice, counting nothing: the
    /// first check leaves a ghost, the second admits the environment.
    /// Returns the elaboration it holds, which a fast-path edit keeps.
    fn primed(eng: &IncrementalEngine, name: &str, prelude: &str, text: &str) -> Arc<Elaborated> {
        let m = Metrics::default();
        for _ in 0..2 {
            eng.check_unit_with_prelude(name, prelude, text, &Limits::default(), &m);
        }
        cached_elaboration(eng, name)
    }

    #[test]
    fn matches_monolithic_cold() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let got = eng.check_unit("u.vlt", UNIT, &limits, &m);
        assert_eq!(got, reference("u.vlt", UNIT, &limits));
        assert_eq!(got.verdict, Verdict::Rejected); // beta dangles
    }

    #[test]
    fn same_length_body_edit_takes_the_fast_path() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let elab = primed(&eng, "u.vlt", "", UNIT);
        let baseline_misses = m.snapshot().fn_cache_misses;
        // Same-length edit inside `alpha`'s body only.
        let edited = UNIT.replace("{x=1; y=2;}", "{x=7; y=2;}");
        assert_eq!(edited.len(), UNIT.len());
        let got = eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
        let snap = m.snapshot();
        assert_eq!(snap.fn_cache_hits, 1, "beta was untouched");
        assert_eq!(
            snap.fn_cache_misses - baseline_misses,
            1,
            "alpha re-checked"
        );
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    #[test]
    fn signature_edit_falls_back_to_the_full_path_and_still_matches() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let elab = primed(&eng, "u.vlt", "", UNIT);
        // Same length, but the edit is outside every body (a struct
        // rename), so elaboration must rerun — and the non-function
        // fingerprint every read set holds changes with it.
        let edited = UNIT.replace("struct point { int x;", "struct paint { int x;");
        assert_eq!(edited.len(), UNIT.len());
        let got = eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
        assert!(!Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    /// `(hits, misses)` counted while checking `text` as `u.vlt`, which
    /// must match the monolithic checker.
    fn counted(eng: &IncrementalEngine, m: &Metrics, text: &str) -> (u64, u64) {
        let before = m.snapshot();
        let got = eng.check_unit("u.vlt", text, &Limits::default(), m);
        assert_eq!(got, reference("u.vlt", text, &Limits::default()));
        let snap = m.snapshot();
        (
            snap.fn_cache_hits - before.fn_cache_hits,
            snap.fn_cache_misses - before.fn_cache_misses,
        )
    }

    #[test]
    fn adding_a_function_rechecks_only_it_and_what_named_it() {
        let (eng, m) = engine();
        eng.check_unit("u.vlt", UNIT, &Limits::default(), &m);
        // A new function no one calls: the others read nothing it
        // changed, so only it is checked.
        let added = format!("{UNIT}void gamma() {{ }}\n");
        assert_eq!(counted(&eng, &m, &added), (2, 1));
        // `delta` calls a function that does not exist yet: its read set
        // records the name as absent, so declaring it re-checks `delta`.
        let caller = format!("{added}void delta() {{ helper(); }}\n");
        assert_eq!(counted(&eng, &m, &caller), (3, 1));
        let declared = format!("void helper() {{ }}\n{caller}");
        assert_eq!(counted(&eng, &m, &declared), (3, 2));
        // Re-signing `helper` re-checks it and its one caller.
        let resigned = declared.replace("void helper() {", "int helper() { return 1;");
        assert_eq!(counted(&eng, &m, &resigned), (3, 2));
    }

    #[test]
    fn evicted_unit_recovers_function_verdicts_from_the_fn_cache() {
        // The fn cache outlives whole-unit eviction: re-checking the
        // exact same source through the full path hits every function.
        let (eng, m) = engine();
        let limits = Limits::default();
        eng.check_unit("u.vlt", UNIT, &limits, &m);
        lock(&eng.envs).clear(); // simulate env eviction, keep fn cache
        let before = m.snapshot();
        let got = eng.check_unit("u.vlt", UNIT, &limits, &m);
        assert_eq!(got, reference("u.vlt", UNIT, &limits));
        let snap = m.snapshot();
        assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 2);
        assert_eq!(snap.fn_cache_misses - before.fn_cache_misses, 0);
    }

    #[test]
    fn new_identifier_in_same_length_edit_is_checked_correctly() {
        let (eng, m) = engine();
        let limits = Limits::default();
        primed(&eng, "u.vlt", "", UNIT);
        // `qv` never appeared in the original unit, so the frozen
        // interner cannot intern it: the engine must fall back rather
        // than check with an unknown symbol.
        let edited = UNIT.replace("{ p.x++; } else", "{ qv.x++;} else");
        assert_eq!(edited.len(), UNIT.len());
        let got = eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
    }

    #[test]
    fn syntax_breaking_same_length_edit_matches_monolithic() {
        let (eng, m) = engine();
        let limits = Limits::default();
        primed(&eng, "u.vlt", "", UNIT);
        let edited = UNIT.replace("if (flag) { p.x++; }", "if (flag) { p.x+(; }");
        assert_eq!(edited.len(), UNIT.len());
        let got = eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
    }

    #[test]
    fn deadline_checks_bypass_the_caches() {
        let (eng, m) = engine();
        let limits = Limits {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(60)),
            ..Limits::default()
        };
        let got = eng.check_unit("u.vlt", UNIT, &limits, &m);
        assert_eq!(got, reference("u.vlt", UNIT, &limits));
        assert_eq!(eng.entries(), (0, 0));
        assert_eq!(m.snapshot().fn_cache_hits, 0);
        assert_eq!(m.snapshot().fn_cache_misses, 0);
    }

    #[test]
    fn prelude_check_matches_core_reference() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let prelude = "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n  void fclose(tracked(F) FILE f) [-F];\n}\n";
        let unit = "import \"fs\";\nvoid use_file() {\n  tracked(F) FILE f = FS.fopen();\n}\n";
        let got = eng.check_unit_with_prelude("app", prelude, unit, &limits, &m);
        let want = check_summary_with_prelude("app", prelude, unit, &limits);
        assert_eq!(got, want);
        assert_eq!(got.verdict, Verdict::Rejected); // leaked F
        let d = &got.diagnostics[0];
        assert!(
            d.line <= 4,
            "attributed to unit coordinates, got line {}",
            d.line
        );
    }

    #[test]
    fn prelude_body_edit_reuses_untouched_function_verdicts() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let prelude = "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n  void fclose(tracked(F) FILE f) [-F];\n}\n";
        let unit = "void touched(int k) {\n  int x = 1;\n}\nvoid untouched() {\n  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n}\n";
        let elab = primed(&eng, "app", prelude, unit);
        let before = m.snapshot();
        // Same-length edit inside `touched`'s body only.
        let edited = unit.replace("int x = 1;", "int x = 7;");
        assert_eq!(edited.len(), unit.len());
        let got = eng.check_unit_with_prelude("app", prelude, &edited, &limits, &m);
        assert_eq!(
            got,
            check_summary_with_prelude("app", prelude, &edited, &limits)
        );
        let snap = m.snapshot();
        assert_eq!(
            snap.fn_cache_hits - before.fn_cache_hits,
            1,
            "untouched reused"
        );
        assert_eq!(snap.fn_cache_misses - before.fn_cache_misses, 1);
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "app")));
    }

    #[test]
    fn same_full_text_different_split_does_not_share_attributed_views() {
        // `prelude + unit` concatenations that are byte-identical but
        // split at different offsets must not reuse each other's cached
        // views: attribution (line numbers in `rendered`) depends on the
        // split, which the base hash absorbs.
        let (eng, m) = engine();
        let limits = Limits::default();
        let iface = "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n  void fclose(tracked(F) FILE f) [-F];\n}\n";
        let leaky = "void leak() {\n  tracked(F) FILE f = FS.fopen();\n}\n";
        let s1 = eng.check_unit_with_prelude("u", iface, leaky, &limits, &m);
        assert_eq!(s1, check_summary_with_prelude("u", iface, leaky, &limits));
        // Same full text, prelude extended by the first line of `leak`.
        let prelude2 = format!("{iface}void leak() {{\n");
        let unit2 = "  tracked(F) FILE f = FS.fopen();\n}\n";
        let s2 = eng.check_unit_with_prelude("u", &prelude2, unit2, &limits, &m);
        assert_eq!(
            s2,
            check_summary_with_prelude("u", &prelude2, unit2, &limits)
        );
        assert_ne!(
            s1.diagnostics[0].rendered, s2.diagnostics[0].rendered,
            "splits attribute differently"
        );
    }

    #[test]
    fn clear_drops_both_caches() {
        let eng = IncrementalEngine::new(64, 1024);
        primed(&eng, "u.vlt", "", UNIT);
        let (envs, fns) = eng.entries();
        assert_eq!(envs, 1);
        assert_eq!(fns, 2);
        eng.clear();
        assert_eq!(eng.entries(), (0, 0));
    }

    fn timings(s: &CheckStats) -> [u64; 5] {
        [
            s.lex_micros,
            s.parse_micros,
            s.elaborate_micros,
            s.lower_micros,
            s.check_micros,
        ]
    }

    #[test]
    fn cached_function_verdicts_carry_no_phase_timings() {
        // One environment slot: checking a second unit evicts the first
        // one's environment, so its re-check takes the full path.
        let eng = IncrementalEngine::new(1, 1024);
        let m = Metrics::default();
        let pool = ThreadPool::new(2, Arc::new(Metrics::default()));
        eng.enable_dirty_tracking();
        let limits = Limits::default();
        let cold = eng.check_unit("u.vlt", UNIT, &limits, &m);
        eng.check_unit_with_prelude_parallel("v.vlt", "", UNIT, &limits, &m, &pool);
        let timed = CheckStats {
            lex_micros: 3,
            check_micros: 99,
            ..CheckStats::default()
        };
        let verdict = FnVerdict {
            diags: Vec::new(),
            reads: ReadSet::default(),
            pristine: true,
        };
        eng.seed_fn(42, Arc::new(verdict), timed);

        // Every verdict the cache holds: the four remembered by the two
        // checks (sequential and fanned out), plus the seeded one.
        let dirty = eng.take_dirty();
        assert_eq!(dirty.len(), 4);
        for (_, _, stats) in &dirty {
            assert_eq!(timings(stats), [0; 5]);
        }
        let seeded = lock(&eng.fns.lru).get(42).expect("seeded");
        assert_eq!(timings(&seeded[0].1), [0; 5]);

        let before = m.snapshot();
        let warm = eng.check_unit("u.vlt", UNIT, &limits, &m);
        let after = m.snapshot();
        assert_eq!(after.fn_cache_hits - before.fn_cache_hits, 2);
        assert_eq!(after.fn_cache_misses, before.fn_cache_misses);
        assert_eq!(warm, cold);
        assert_eq!(warm.stats.check_micros, 0, "every function hit");
    }

    /// The elaboration the unit's cached environment holds: the fast
    /// path keeps it, the full path replaces it. It never holds a body.
    fn cached_elaboration(eng: &IncrementalEngine, name: &str) -> Arc<Elaborated> {
        let env = lock(&eng.envs)
            .get(fnv1a_64(name.as_bytes()))
            .flatten()
            .expect("environment cached");
        assert!(env.elaborated.bodies.is_empty(), "a cached body AST");
        Arc::clone(&env.elaborated)
    }

    #[test]
    fn cached_environments_hold_no_bodies() {
        let eng = IncrementalEngine::new(8, 1024);
        let m = Metrics::default();
        let pool = ThreadPool::new(2, Arc::new(Metrics::default()));
        let limits = Limits::default();
        // Full path, sequential and fanned out, each name twice so that
        // the second check stores its environment.
        for _ in 0..2 {
            eng.check_unit("u.vlt", UNIT, &limits, &m);
            eng.check_unit_with_prelude_parallel("v.vlt", "", UNIT, &limits, &m, &pool);
        }
        let elab = cached_elaboration(&eng, "u.vlt");
        cached_elaboration(&eng, "v.vlt");
        // Fast-path refresh: the same body-free environment is reused.
        let edited = UNIT.replace("{x=1; y=2;};", "{x=1; y=2;};\n  p.x = 4;");
        let before = m.snapshot();
        eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(m.snapshot().fn_cache_hits - before.fn_cache_hits, 1);
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
        // Project mode: a unit checked against a prelude.
        let prelude = "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n  void fclose(tracked(F) FILE f) [-F];\n}\n";
        let unit = "void use_file() {\n  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n}\n";
        for _ in 0..2 {
            eng.check_unit_with_prelude("app", prelude, unit, &limits, &m);
            eng.check_unit_with_prelude_parallel("app2", prelude, unit, &limits, &m, &pool);
        }
        cached_elaboration(&eng, "app");
        cached_elaboration(&eng, "app2");
    }

    /// The source with everything *outside* `keep` blanked to spaces
    /// (newlines preserved): the text whose full parse a range
    /// mini-parse of `keep` must reproduce.
    fn blank_outside(source: &str, keep: Span) -> String {
        let keep = keep.start as usize..keep.end as usize;
        let mut bytes = source.as_bytes().to_vec();
        for (i, b) in bytes.iter_mut().enumerate() {
            if !keep.contains(&i) && *b != b'\n' {
                *b = b' ';
            }
        }
        // Every replacement is ASCII and the kept range is untouched, so
        // the result is still valid UTF-8.
        String::from_utf8(bytes).expect("blanking preserves UTF-8")
    }

    /// What the oracle saw of one range: whether its parse in its own
    /// symbol space was [`pristine`], and whether [`mini_parse`] took it.
    struct RangeOutcome {
        pristine: bool,
        mini_parsed: bool,
    }

    /// Parse `range` of `text` both ways — the range parse and the full
    /// parse of the blanked text — and assert they agree: the same
    /// declarations (symbols included), the same diagnostics, and the
    /// same [`pristine`] outcome. Then hold [`mini_parse`], which numbers
    /// the range's names through `elab`'s frozen interner instead of
    /// freezing its own, to the two routes agreeing: it succeeds exactly
    /// when the range parse is pristine and `elab` knows every name the
    /// range lexed, and then yields `eager`, the whole-text parse's
    /// declaration at `range`, symbols included.
    fn assert_range_parse_matches_oracle(
        text: &str,
        range: Span,
        elab: &Elaborated,
        eager: Option<&ast::FunDecl>,
    ) -> RangeOutcome {
        let depth = Limits::default()
            .parser_depth
            .saturating_sub(MINI_PARSE_DEPTH_MARGIN);
        let mut ranged_diags = DiagSink::new();
        let ranged = parse_range_with_depth(text, range, &mut ranged_diags, depth);
        let mut oracle_diags = DiagSink::new();
        let oracle = vault_syntax::parse_program_with_depth(
            &blank_outside(text, range),
            &mut oracle_diags,
            depth,
        );
        let context = || format!("range {range:?} of:\n{text}");
        assert_eq!(
            format!("{:?}", ranged.decls),
            format!("{:?}", oracle.decls),
            "{}",
            context()
        );
        assert_eq!(
            ranged_diags.diagnostics(),
            oracle_diags.diagnostics(),
            "{}",
            context()
        );
        let names_known = ranged
            .syms
            .names()
            .all(|name| elab.syms.sym(name) != vault_syntax::Symbol::UNKNOWN);
        let ranged = pristine(ranged, &ranged_diags, range);
        let oracle = pristine(oracle, &oracle_diags, range);
        assert_eq!(
            format!("{ranged:?}"),
            format!("{oracle:?}"),
            "{}",
            context()
        );
        let mini = mini_parse(text, range, elab, &Limits::default());
        assert_eq!(
            mini.is_ok(),
            ranged.is_some() && names_known,
            "{}",
            context()
        );
        if let Ok(mini) = &mini {
            let eager = eager.unwrap_or_else(|| panic!("no declaration at {}", context()));
            assert_eq!(format!("{mini:?}"), format!("{eager:?}"), "{}", context());
        }
        RangeOutcome {
            pristine: ranged.is_some(),
            mini_parsed: mini.is_ok(),
        }
    }

    /// Every declaration of `text`, mini-parsed at its own range and at
    /// ranges that cut it (a missing closing brace, a split first token,
    /// the bare body, an end inside its first string literal or
    /// comment), against the blanked-text oracle. Returns `(mini-parsed
    /// declarations, declarations, cuts pristine on their own names but
    /// rejected for a name the unit lacks)`.
    fn oracle_check_unit(text: &str) -> (usize, usize, usize) {
        let mut diags = DiagSink::new();
        let program = vault_syntax::parse_program(text, &mut diags);
        let elab = vault_core::elaborate(&program, &mut diags);
        let (mut clean, mut unknown_names) = (0, 0);
        for f in &elab.bodies {
            let body = f.body.as_ref().expect("collected with body").span;
            let (s, e) = (f.span.start, f.span.end);
            let whole = assert_range_parse_matches_oracle(text, f.span, &elab, Some(f));
            clean += usize::from(whole.mini_parsed);
            let decl_text = &text[s as usize..e as usize];
            let inside = ["\"", "//", "/*"]
                .iter()
                .filter_map(|open| decl_text.find(open))
                .map(|at| Span::new(s, s + at as u32 + 2));
            for cut in [Span::new(s, e - 1), Span::new(s + 1, e), body]
                .into_iter()
                .chain(inside)
            {
                let on_chars = text.is_char_boundary(cut.start as usize)
                    && text.is_char_boundary(cut.end as usize);
                if on_chars {
                    let cut = assert_range_parse_matches_oracle(text, cut, &elab, None);
                    assert!(!cut.mini_parsed);
                    unknown_names += usize::from(cut.pristine);
                }
            }
        }
        (clean, elab.bodies.len(), unknown_names)
    }

    /// The synth shapes every front-end oracle covers.
    const SHAPES: [vault_corpus::synth::Shape; 6] = {
        use vault_corpus::synth::Shape;
        [
            Shape::Mixed,
            Shape::Straight,
            Shape::Branchy,
            Shape::Loopy,
            Shape::VariantHeavy,
            Shape::Sockets,
        ]
    };

    /// The checked texts every front-end oracle covers: each corpus
    /// program, three units of each synth shape, and each unit of a synth
    /// project prefixed by its import prelude.
    fn oracle_units() -> Vec<String> {
        use vault_corpus::synth::{self, ProjectConfig, SynthConfig};
        let mut units: Vec<String> = vault_corpus::all_programs()
            .into_iter()
            .map(|p| p.source)
            .collect();
        for shape in SHAPES {
            for seed in 1..=3 {
                units.push(
                    synth::generate(&SynthConfig {
                        functions: 12,
                        stmts_per_fn: 8,
                        seed,
                        bug_rate: 0.3,
                        shape,
                    })
                    .source,
                );
            }
        }
        // Project units, each prefixed by its import prelude.
        let project = synth::generate_project(&ProjectConfig {
            units: 3,
            fns_per_unit: 4,
            stmts_per_fn: 8,
            seed: 7,
            bug_rate: 0.5,
        });
        let project_units: Vec<vault_project::ProjectUnit> = project
            .units
            .iter()
            .map(|(n, s)| vault_project::ProjectUnit::new(n.as_str(), s.as_str()))
            .collect();
        let plan =
            vault_project::ProjectPlan::build(&project_units, Limits::default().parser_depth);
        for (planned, (name, source)) in plan.units.iter().zip(&project.units) {
            let attr = Attribution::with_prelude(name, &planned.prelude, source);
            units.push(attr.full_text().to_string());
        }
        units
    }

    #[test]
    fn range_mini_parse_matches_the_blanked_text_oracle() {
        let mut units = oracle_units();
        // Strings and comments inside bodies, which the cut ranges end in.
        units.push(
            "type FILE;\n\
             tracked(F) FILE fopen(string p) [new F];\n\
             void fclose(tracked(F) FILE f) [-F];\n\
             void a() {\n  // open it\n  tracked(F) FILE f = fopen(\"a \\\"b\\\" é\");\n  fclose(f);\n}\n\
             void b() {\n  /* then */ tracked(F) FILE f = fopen(\"x\");\n  fclose(f); }\n"
                .to_string(),
        );

        let (mut clean, mut total, mut unknown_names) = (0, 0, 0);
        for text in &units {
            let (c, t, u) = oracle_check_unit(text);
            clean += c;
            total += t;
            unknown_names += u;
        }
        assert!(total > 400, "only {total} declarations");
        // Nearly every declaration of a parseable unit mini-parses
        // pristine on its own; the oracle must see both outcomes.
        assert!(clean * 10 > total * 9, "{clean} of {total} pristine");
        // A split first token (`oid okay() {…}`) parses cleanly on its
        // own names, but names a type the unit never declared.
        assert!(unknown_names > 0, "no cut rejected for its names alone");
    }

    /// Parse `text` declarations first, then every skipped body, and
    /// hold the result to the eager parse: when neither pass reported
    /// anything, the same declarations and bodies (symbols included),
    /// the same frozen interner and no diagnostics; otherwise the eager
    /// parse reports something too, and the engine falls back to it.
    /// Returns whether the declarations-first parse stood.
    fn assert_outline_matches_eager(text: &str) -> bool {
        let depth = Limits::default().parser_depth;
        let mut eager_diags = DiagSink::new();
        let eager = vault_syntax::parse_program_with_depth(text, &mut eager_diags, depth);
        let mut diags = DiagSink::new();
        let (mut program, outline, _) = parse_outline(text, &mut diags, depth);
        fn fill(decls: &mut [ast::Decl], outline: &Outline) -> bool {
            decls.iter_mut().all(|d| match d {
                ast::Decl::Interface(i) => fill(&mut i.decls, outline),
                ast::Decl::Fun(f) => match &mut f.body {
                    Some(body) => match outline.parse_body(body.span) {
                        Some(parsed) => {
                            *body = parsed;
                            true
                        }
                        None => false,
                    },
                    None => true,
                },
                _ => true,
            })
        }
        let stood = diags.diagnostics().is_empty() && fill(&mut program.decls, &outline);
        let clean = eager_diags.diagnostics().is_empty();
        assert_eq!(
            stood, clean,
            "fell back on a clean parse, or stood on a broken one:\n{text}"
        );
        if stood {
            assert_eq!(
                format!("{:?}", program.decls),
                format!("{:?}", eager.decls),
                "{text}"
            );
            assert!(program.syms.names().eq(eager.syms.names()), "{text}");
        }
        stood
    }

    #[test]
    fn declarations_first_parse_matches_the_eager_parse() {
        use vault_corpus::edits::{EditKind, EditSession};
        use vault_corpus::synth::{self, SynthConfig};
        let units = oracle_units();
        for text in &units {
            assert!(assert_outline_matches_eager(text), "{text}");
        }
        // Brace and syntax-breaking edits: the parse either stands and
        // equals the eager one, or falls back.
        let (mut stood, mut fell_back) = (0, 0);
        for shape in SHAPES {
            let source = synth::generate(&SynthConfig {
                functions: 8,
                stmts_per_fn: 6,
                seed: 3,
                bug_rate: 0.2,
                shape,
            })
            .source;
            for kind in [EditKind::Brace, EditKind::SyntaxBreaking] {
                for seed in 0..12 {
                    let mut rng = rand::SeedableRng::seed_from_u64(seed);
                    let mut session = EditSession::new(source.clone());
                    assert!(session.apply(kind, &mut rng), "{kind:?} found no site");
                    if assert_outline_matches_eager(session.source()) {
                        stood += 1;
                    } else {
                        fell_back += 1;
                    }
                }
            }
        }
        // Some brace edits keep the unit parseable; syntax breaks never do.
        assert!(
            stood > 0 && fell_back > 6 * 12,
            "{stood} stood, {fell_back} fell back"
        );
    }

    #[test]
    fn length_changing_body_edit_takes_the_fast_path() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let elab = primed(&eng, "u.vlt", "", UNIT);
        let before = m.snapshot();
        // A line inserted into `alpha` moves `beta` down by one line.
        let edited = UNIT.replace(
            "  if (flag) { p.x++; }",
            "  p.y = p.y + 1;\n  if (flag) { p.x++; }",
        );
        let got = eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
        let snap = m.snapshot();
        assert_eq!(
            snap.fn_cache_hits - before.fn_cache_hits,
            1,
            "beta moved, still hit"
        );
        assert_eq!(
            snap.fn_cache_misses - before.fn_cache_misses,
            1,
            "alpha re-checked"
        );
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    #[test]
    fn successive_fast_path_edits_track_shifted_declarations() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let elab = primed(&eng, "u.vlt", "", UNIT);
        // Shrink `alpha`, then edit `beta` at its shifted offsets, then
        // grow `alpha` again: each step diffs against the refreshed
        // environment, never the stale body ASTs.
        let v1 = UNIT.replace("  if (flag) { p.x++; } else { p.y++; }\n", "");
        let v2 = v1.replace("  p.x++;\n}", "  p.x = p.x + 2;\n}");
        let v3 = v2.replace("{x=1; y=2;};", "{x=1; y=2;};\n  p.x = 5;");
        for v in [&v1, &v2, &v3] {
            let before = m.snapshot();
            let got = eng.check_unit("u.vlt", v, &limits, &m);
            assert_eq!(got, reference("u.vlt", v, &limits));
            let snap = m.snapshot();
            assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 1);
            assert_eq!(snap.fn_cache_misses - before.fn_cache_misses, 1);
        }
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    #[test]
    fn fast_path_fallback_counts_each_function_once() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let elab = primed(&eng, "u.vlt", "", UNIT);
        let before = m.snapshot();
        // Confined to `beta`'s body, but `q` is a new identifier: the
        // fast path gives up on `beta` after `alpha` hit, and the full
        // path answers. Only the full path's counts may land.
        let edited = UNIT.replace("  p.x++;\n}\n", "  q.x++;\n}\n");
        assert_eq!(edited.len(), UNIT.len());
        let got = eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
        let snap = m.snapshot();
        let counted = (snap.fn_cache_hits + snap.fn_cache_misses)
            - (before.fn_cache_hits + before.fn_cache_misses);
        assert_eq!(counted, 2, "one count per function");
        assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 1, "alpha hit");
        assert!(!Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    #[test]
    fn returning_to_a_broken_body_reports_its_syntax_error() {
        let (eng, m) = engine();
        let limits = Limits::default();
        // The broken text goes through the full path first, which caches
        // `alpha`'s verdict from the recovered parse. Returning to that
        // text from a clean one is confined to `alpha`'s body, and the
        // cached verdict hits: the fast path must still see the error.
        let broken = UNIT.replace(
            "  Region.delete(r);\n}\nvoid beta",
            "  @@;\n  Region.delete(r);\n}\nvoid beta",
        );
        for v in [&broken, UNIT, &broken] {
            let got = eng.check_unit("u.vlt", v, &limits, &m);
            assert_eq!(got, reference("u.vlt", v, &limits));
        }
    }

    #[test]
    fn the_eager_fallback_counts_what_the_abandoned_attempt_checked() {
        let (eng, m) = engine();
        eng.check_unit("u.vlt", UNIT, &Limits::default(), &m);
        // `alpha`'s declaration changed, so declarations first checks it;
        // then `beta`'s body fails to parse and the eager parse takes
        // over. `alpha` is a miss there, not a hit on its own verdict.
        let edited = UNIT
            .replace("void alpha(bool flag) {", "void alpha(bool flag)  {")
            .replace("  p.x++;\n}\n", "  p.x++\n}\n");
        assert_eq!(counted(&eng, &m, &edited), (0, 2));
    }

    #[test]
    fn full_path_reuses_functions_whose_text_is_unchanged() {
        let (eng, m) = engine();
        let limits = Limits::default();
        eng.check_unit("u.vlt", UNIT, &limits, &m);
        // A comment ahead of every declaration moves all of them but
        // changes no declaration: everything is reused.
        let moved = format!("// header\n{UNIT}");
        let before = m.snapshot();
        let got = eng.check_unit("u.vlt", &moved, &limits, &m);
        assert_eq!(got, reference("u.vlt", &moved, &limits));
        let snap = m.snapshot();
        assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 2);
        assert_eq!(snap.fn_cache_misses, before.fn_cache_misses);
        // Touching `beta`'s opening brace takes the full path, which
        // still reuses `alpha`.
        let brace = moved.replace("void beta() {", "void beta() {  ");
        let before = m.snapshot();
        let got = eng.check_unit("u.vlt", &brace, &limits, &m);
        assert_eq!(got, reference("u.vlt", &brace, &limits));
        let snap = m.snapshot();
        assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 1);
        assert_eq!(snap.fn_cache_misses - before.fn_cache_misses, 1);
    }

    #[test]
    fn verdicts_reaching_outside_their_declaration_are_not_cached() {
        let decl = Span::new(100, 140);
        let inside = Diagnostic::error(Code::KeyLeak, Span::new(120, 125), "leak")
            .with_label(Span::new(100, 101), "here");
        let at = |d: Diagnostic| FnVerdict::at(decl.start, vec![d], ReadSet::default(), true);
        let v = at(inside.clone());
        assert!(v.self_contained(decl.len()));
        assert_eq!(v.diags[0].span, Span::new(20, 25));
        let before = Diagnostic::error(Code::KeyLeak, Span::new(120, 125), "leak")
            .with_label(Span::new(40, 45), "declared earlier");
        let after = Diagnostic::error(Code::KeyLeak, Span::new(130, 150), "leak");
        for d in [before, after] {
            let v = at(d.clone());
            assert!(!v.self_contained(decl.len()));
            // Re-basing at the same start restores the exact spans.
            let mut back = v.diags[0].clone();
            map_offsets(&mut back, |o| o.wrapping_add(decl.start));
            assert_eq!(back, d);
        }
        let eng = IncrementalEngine::new(4, 4);
        let outside = at(Diagnostic::error(Code::KeyLeak, Span::new(0, 1), "x"));
        eng.fns.remember(7, decl, outside, CheckStats::default());
        assert_eq!(eng.entries(), (0, 0));
    }

    #[test]
    fn limit_exceeded_mid_unit_stops_every_path_at_the_same_function() {
        // Without fuel, `two`'s loop exceeds the limit: the monolithic
        // checker stops there, so `three` and `four` are never checked.
        const LOOPY: &str = "\
void one(int a) { int x = a; }
void two() {
  int i = 0;
  while (i < 10) { i = i + 1; }
}
void three(int b) { int y = b; }
void four() { int z = 4; }
";
        let limits = Limits {
            fixpoint_iters: 0,
            ..Limits::default()
        };
        let edited = LOOPY.replace("int y = b;", "int y = b + b;");
        let pool = ThreadPool::new(2, Arc::new(Metrics::default()));
        for pool in [None, Some(&pool)] {
            let (eng, m) = engine();
            let check = |text: &str| match pool {
                Some(pool) => {
                    eng.check_unit_with_prelude_parallel("l.vlt", "", text, &limits, &m, pool)
                }
                None => eng.check_unit("l.vlt", text, &limits, &m),
            };
            // The first check leaves a ghost, so the environment is
            // stored by the second.
            check(LOOPY);
            let mut elab: Option<Arc<Elaborated>> = None;
            // Cold (full path), then a body edit in `three` (fast path).
            for text in [LOOPY, &edited] {
                let before = m.snapshot();
                let got = check(text);
                assert_eq!(got, reference("l.vlt", text, &limits));
                assert_eq!(got.verdict, Verdict::ResourceLimit);
                let after = m.snapshot();
                let counted = (after.fn_cache_hits + after.fn_cache_misses)
                    - (before.fn_cache_hits + before.fn_cache_misses);
                assert_eq!(
                    counted,
                    2,
                    "counted up to the stop, parallel: {}",
                    pool.is_some()
                );
                let now = cached_elaboration(&eng, "l.vlt");
                if let Some(prev) = elab.replace(Arc::clone(&now)) {
                    assert!(Arc::ptr_eq(&prev, &now), "the edit took the fast path");
                }
            }
        }
    }

    #[test]
    fn a_syntax_error_past_a_limit_stop_is_still_reported() {
        // `two` exceeds the limit, so no path checks `three`; but the
        // monolithic checker parses every body first and reports its
        // missing semicolon (braces balanced, so the declaration pass
        // does not see it).
        const BROKEN: &str = "\
void one(int a) { int x = a; }
void two() {
  int i = 0;
  while (i < 10) { i = i + 1; }
}
void three(int b) { int y = b }
";
        let limits = Limits {
            fixpoint_iters: 0,
            ..Limits::default()
        };
        let fixed = BROKEN.replace("int y = b }", "int y = b; }");
        // Edits inside `one`'s body; the last text breaks `three` again.
        let texts = [
            BROKEN.to_string(),
            BROKEN.replace("int x = a;", "int x = a + a;"),
            fixed.clone(),
            fixed.replace("int x = a;", "int x = a + 1;"),
            BROKEN.replace("int x = a;", "int x = a + 1;"),
        ];
        let pool = ThreadPool::new(2, Arc::new(Metrics::default()));
        for pool in [None, Some(&pool)] {
            let (eng, m) = engine();
            let check = |text: &str| match pool {
                Some(pool) => {
                    eng.check_unit_with_prelude_parallel("l.vlt", "", text, &limits, &m, pool)
                }
                None => eng.check_unit("l.vlt", text, &limits, &m),
            };
            // The first check leaves a ghost, so the environment is
            // stored by the second.
            check(&texts[0]);
            let mut elab: Option<Arc<Elaborated>> = None;
            for (i, text) in texts.iter().enumerate() {
                let got = check(text);
                assert_eq!(got, reference("l.vlt", text, &limits), "{text}");
                assert_eq!(got.verdict, Verdict::ResourceLimit);
                let now = cached_elaboration(&eng, "l.vlt");
                let kept = elab
                    .replace(Arc::clone(&now))
                    .map(|prev| Arc::ptr_eq(&prev, &now));
                // Only the fixed text is stored clean, so only the edit
                // after it takes the fast path.
                assert_eq!(kept, (i > 0).then_some(i == 3), "text {i}");
            }
        }
    }

    #[test]
    fn one_shot_names_leave_only_ghosts() {
        let (eng, m) = engine();
        let limits = Limits::default();
        for i in 0..100 {
            let name = format!("once-{i}.vlt");
            let got = eng.check_unit(&name, UNIT, &limits, &m);
            assert_eq!(got, reference(&name, UNIT, &limits));
        }
        assert_eq!(eng.entries().0, 0);
        assert_eq!(lock(&eng.envs).len(), 64, "ghosts fill the capacity");
    }

    #[test]
    fn a_name_is_admitted_on_its_second_full_check() {
        let (eng, m) = engine();
        // Check 1: full path, a ghost.
        assert_eq!(counted(&eng, &m, UNIT), (0, 2));
        assert_eq!(eng.entries().0, 0);
        // Check 2: full path (every function hits), stores the
        // environment.
        assert_eq!(counted(&eng, &m, UNIT), (2, 0));
        assert_eq!(eng.entries().0, 1);
        let elab = cached_elaboration(&eng, "u.vlt");
        // Check 3: an in-body edit takes the fast path.
        let edited = UNIT.replace("{x=3; y=4;}", "{x=3; y=5;}");
        assert_eq!(counted(&eng, &m, &edited), (1, 1));
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    #[test]
    fn an_evicted_ghost_admits_nothing() {
        let eng = IncrementalEngine::new(2, 1024);
        let m = Metrics::default();
        let limits = Limits::default();
        // `c` evicts `a`'s ghost, so the second `a` is a first sight.
        for name in ["a", "b", "c", "a"] {
            eng.check_unit(name, UNIT, &limits, &m);
        }
        assert_eq!(eng.entries().0, 0);
        assert!(lock(&eng.envs).get(fnv1a_64(b"a")).is_some(), "a ghost");
        eng.check_unit("a", UNIT, &limits, &m);
        assert_eq!(eng.entries().0, 1);
        cached_elaboration(&eng, "a");
    }

    #[test]
    fn a_panicked_outcome_re_raises_its_payload_before_anything_is_counted() {
        let m = Metrics::default();
        let attr = Attribution::plain("u.vlt", UNIT);
        let slots = [(Span::new(0, 1), Span::new(0, 1)); 2];
        let hit = Arc::new(FnVerdict {
            diags: Vec::new(),
            reads: ReadSet::default(),
            pristine: true,
        });
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let outcome = |i: usize| {
                Some(match i {
                    0 => FnOutcome::Hit((Arc::clone(&hit), CheckStats::default())),
                    _ => FnOutcome::Panicked("boom".to_string()),
                })
            };
            assemble(
                "u.vlt",
                &attr,
                &slots,
                Vec::new(),
                CheckStats::default(),
                &m,
                outcome,
            )
        }))
        .expect_err("the panic is re-raised");
        assert_eq!(panic_payload(&*caught), "boom");
        let snap = m.snapshot();
        assert_eq!((snap.fn_cache_hits, snap.fn_cache_misses), (0, 0));
    }
}
