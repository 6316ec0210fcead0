//! Function-granular incremental re-checking.
//!
//! The whole-unit verdict cache (see [`crate::cache`]) answers only
//! *exact* re-submissions. This module recovers most of the work for the
//! far more common case — a unit resubmitted after a small edit — by
//! splitting the pipeline's memoization in two:
//!
//! 1. **Declaration environment.** Parsing + elaboration produce an
//!    [`Elaborated`] (declaration tables, interner, base keys)
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
//! declaration tables, interner and base keys. On a 24 KB,
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
//! # One body loop, two paths
//!
//! Every check of a text that parses runs one loop: take each
//! function's outcome in order (a cached verdict or a fresh check),
//! splice it into the summary, and stop where the monolithic checker
//! stops, after the first [`Code::LimitExceeded`]. Hits and misses are
//! counted in that order, only up to the stop, and fresh verdicts are
//! cached only once the loop has finished: an abandoned loop leaves
//! nothing behind. The two paths differ only in where an outcome comes
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
//!   text, with spans in whole-text coordinates, into the cached
//!   environment's interner ([`vault_syntax::parse_range_in`]), and
//!   yields the declarations a parse of the text blanked outside that
//!   range would. A name the unit lacked, such as a freshly typed
//!   local, is numbered past the end of a copy made for this check; no
//!   output depends on symbol numbering ([`vault_syntax::intern`]). A mini-parse must be clean: no
//!   diagnostic, exactly the expected span, and a body. The edited
//!   declaration is mini-parsed before anything else runs; when that
//!   reports a diagnostic the text does not parse (see below). Any
//!   other failed mini-parse, or a fresh verdict reaching outside its
//!   declaration, abandons the fast path for the full path. The
//!   environment entry is then refreshed with the new text and slots,
//!   sharing the same [`Elaborated`].
//! * **Full path, declarations first** — anything else (an edit outside
//!   bodies or spanning two, a brace edit, an evicted environment or a
//!   ghost). The whole text is lexed once, so the interner is exactly
//!   the eager parse's, and only the declarations are parsed: each
//!   function body is skipped by brace matching over the tokens
//!   ([`vault_syntax::parse_outline`]). After elaboration, a body is
//!   parsed from its tokens only when its verdict misses. Every verdict
//!   is checked from a body whose parse reported nothing, and a
//!   declaration's text decides whether its body parses, so a verdict
//!   that hits stands in for a body left unparsed. The monolithic
//!   checker parses every body before checking any, so when a verdict
//!   stops the loop ([`Code::LimitExceeded`]) the bodies past it are
//!   parsed too. An environment is stored only once every body was
//!   parsed or stood in for.
//!
//! # Text that does not parse
//!
//! A function's verdict is cacheable only when its unit parses. When the
//! declaration pass, a body parse, or the fast path's mini-parse of the
//! edited declaration reports a diagnostic, the engine answers with
//! [`check_summary_with_prelude`], the reference checker, and caches
//! nothing, counts nothing and leaves the environment entry as it was.
//! The next text is then diffed against the last one that parsed, so
//! fixing a syntax error inside one body takes the fast path.
//!
//! Either way the assembled [`CheckSummary`] is **byte-identical** to
//! what a monolithic [`vault_core::check_summary_with_limits`] run would
//! produce — same diagnostics in the same order with the same rendering,
//! same counters, same verdict. The differential and edit-sequence test
//! suites hold the engine to that.
//!
//! Deadline-bounded checks go to the reference checker too: a
//! wall-clock verdict is not a pure function of the input, so caching
//! any part of it could pin a transient timeout onto healthy re-checks.
//!
//! # One thread per unit
//!
//! A unit's functions are checked in order on the thread that runs the
//! unit; the engine schedules nothing. Units are the only grain of
//! parallel work, and `CheckService` and its `ThreadPool` decide where
//! each one runs. Nothing past an early exit is checked. Per-function
//! `frames_copied` counters stay exact because each body runs start to
//! finish on one thread (see [`vault_core::flow::FrameCopyScope`]). A
//! panicking check unwinds out of the body loop before the metrics are
//! added or either cache is written, and the service's containment
//! turns it into an `internal-error` summary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use vault_core::check::{check_function_reading, CheckStats};
use vault_core::interface::{Decls, Interface, ReadSet};
use vault_core::{
    check_summary_with_prelude, elaborate_owned, CheckSummary, Elaborated, Limits, Verdict,
};
use vault_syntax::intern::fnv1a;
use vault_syntax::{
    ast, parse_outline, parse_range_in, Attribution, Code, DiagSink, DiagView, Diagnostic,
    Interner, Outline, Severity, Span,
};

use crate::cache::{fnv1a_64, LruCache};
use crate::metrics::Metrics;
use crate::pool::lock_unpoisoned as lock;

/// Headroom subtracted from the parser depth for a mini-parse. A
/// declaration nested inside `interface { ... }` sits a few grammar
/// levels deeper in the full parse than it does standing alone; parsing
/// the standalone form with *less* fuel guarantees the mini-parse never
/// succeeds where the full parse would have reported
/// [`Code::LimitExceeded`] (the failure direction is harmless — the
/// reference checker answers instead).
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
    /// The reusable elaboration output: declaration tables and interner
    /// only. Its `bodies` is always empty; a body AST lives only while
    /// its unit is being checked.
    elaborated: Arc<Elaborated>,
    /// `elaborated`'s fingerprints, which read sets are checked against.
    iface: Arc<Interface>,
    /// Whether elaboration reported nothing. Only a text that parses is
    /// stored, but elaboration errors (an unknown type, a duplicate
    /// name) leave unstable declaration tables, and the fast path
    /// carries no front-end diagnostics, so it requires this.
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
/// journal; its counters travel beside it. Always checked from a body
/// whose parse reported nothing.
#[derive(Debug, PartialEq, Eq)]
pub struct FnVerdict {
    /// The function's diagnostics in discovery order, every span taken
    /// relative to the declaration start (modulo 2^32, so a span before
    /// the start survives the round trip).
    pub diags: Vec<Diagnostic>,
    /// What the check read of the unit's declarations.
    pub reads: ReadSet,
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
    fn at(start: u32, mut diags: Vec<Diagnostic>, reads: ReadSet) -> Self {
        for d in &mut diags {
            map_offsets(d, |o| o.wrapping_sub(start));
        }
        FnVerdict { diags, reads }
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

    /// Whether this verdict stops the body loop: the monolithic checker
    /// breaks its loop on the first [`Code::LimitExceeded`].
    fn stops(&self) -> bool {
        self.diags.iter().any(|d| d.code == Code::LimitExceeded)
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
/// function.
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
    verdict.stops()
}

/// What one function contributes to a check.
enum FnOutcome {
    /// The per-function cache already had a verdict that still holds.
    Hit(FnEntry),
    /// Freshly checked, with the microseconds its body parse (zero for
    /// a mini-parse) and its check took.
    Fresh(FnEntry, u64, u64),
}

/// The verdicts a finished body loop checked, as `(key, declaration
/// span, verdict)`, for [`FnCache::remember`].
type FreshVerdicts = Vec<(u64, Span, FnEntry)>;

/// The one body loop every check runs over `env`'s functions. Takes
/// each function's outcome in order, counts hits and misses, splices
/// the verdict at its declaration's current start, and stops where the
/// monolithic checker stops. Returns the summary and the fresh
/// verdicts, which the caller caches. `outcome` returning `None`
/// abandons the check with nothing counted or cached, and so does a
/// panicking `outcome`, which unwinds out of here.
fn assemble(
    name: &str,
    attr: &Attribution,
    env: &CachedEnv,
    mut views: Vec<DiagView>,
    mut stats: CheckStats,
    metrics: &Metrics,
    mut outcome: impl FnMut(usize) -> Option<FnOutcome>,
) -> Option<(CheckSummary, FreshVerdicts)> {
    let (mut hits, mut fresh) = (0u64, FreshVerdicts::new());
    for (i, &(decl, _)) in env.slots.iter().enumerate() {
        let entry = match outcome(i)? {
            FnOutcome::Hit(entry) => {
                hits += 1;
                entry
            }
            FnOutcome::Fresh(entry, parse_micros, check_micros) => {
                stats.parse_micros += parse_micros;
                stats.check_micros += check_micros;
                fresh.push((env.keys[i], decl, entry.clone()));
                entry
            }
        };
        if splice(&mut views, &mut stats, attr, decl.start, &entry) {
            break;
        }
    }
    metrics.fn_cache_hits.fetch_add(hits, Ordering::Relaxed);
    metrics
        .fn_cache_misses
        .fetch_add(fresh.len() as u64, Ordering::Relaxed);
    let summary = CheckSummary {
        name: name.to_string(),
        verdict: verdict_of(&views),
        diagnostics: views,
        stats,
    };
    Some((summary, fresh))
}

/// Check `f` against `elab`'s tables, with `f`'s names numbered in
/// `syms` (`elab`'s interner, or a fast-path copy of it): the miss step
/// of both paths. Returns the verdict, not yet cached, and the
/// microseconds the check took.
fn check_fn(
    elab: &Elaborated,
    syms: &Interner,
    iface: &Interface,
    f: &ast::FunDecl,
    limits: &Limits,
) -> (FnEntry, u64) {
    let decls = Decls::new(
        &elab.world,
        syms,
        &elab.aliases,
        &elab.qualifiers,
        &elab.base_keys,
    );
    let mut sink = DiagSink::new();
    let stats = check_function_reading(&decls, f, &mut sink, limits);
    let reads = iface.read_set(&decls.callees());
    let verdict = FnVerdict::at(f.span.start, sink.into_vec(), reads);
    ((Arc::new(verdict), untimed(stats)), stats.check_micros)
}

/// The per-function verdict cache.
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

    /// Cache each fresh verdict that is self-contained within its
    /// declaration (and queue it for the persistence layer, when
    /// enabled).
    fn remember(&self, fresh: FreshVerdicts) {
        for (key, decl, entry) in fresh {
            if entry.0.self_contained(decl.len()) {
                self.install(key, entry.clone());
                if self.track_dirty.load(Ordering::Relaxed) {
                    lock(&self.dirty).push((key, entry));
                }
            }
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
    fns: FnCache,
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
/// byte range is lexed, spans stay in whole-text coordinates — into
/// `syms`, a cached environment's interner, copied for the check on the
/// first name the unit lacked, which is numbered past its end. `Err`
/// when the mini-parse is not [`clean_fun`], holding whether it
/// reported a diagnostic.
fn mini_parse(
    text: &str,
    decl: Span,
    syms: &mut Arc<Interner>,
    limits: &Limits,
) -> Result<ast::FunDecl, bool> {
    let mut diags = DiagSink::new();
    let depth = limits.parser_depth.saturating_sub(MINI_PARSE_DEPTH_MARGIN);
    let program = parse_range_in(text, decl, syms, &mut diags, depth);
    let reported = !diags.diagnostics().is_empty();
    clean_fun(program, &diags, decl).ok_or(reported)
}

/// The one function a mini-parse of `decl` must yield; `None` on any
/// diagnostic, anything but one function declaration, a span that
/// moved, or a vanished body.
fn clean_fun(program: ast::Program, diags: &DiagSink, decl: Span) -> Option<ast::FunDecl> {
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

/// The text being checked does not parse: the reference checker must
/// answer (see the module docs).
struct Unparsed;

/// The front half of a full check: the declaration pass and
/// elaboration, plus everything derived from them that body checking
/// needs.
struct FrontEnd {
    /// What the environment cache keeps once the check ends.
    env: CachedEnv,
    /// The unit's function declarations, in check order, moved out of
    /// the parse, each with a statement-less body. Freed when the
    /// unit's check ends.
    bodies: Vec<ast::FunDecl>,
    /// The lexed unit, which a body is parsed from on a miss.
    outline: Outline,
    /// Elaboration's diagnostics, rendered.
    pre_views: Vec<DiagView>,
    /// Stats seeded with the front-end phase timings.
    stats: CheckStats,
}

/// The declarations-first front end: lex the whole text once, parse
/// only the declarations, skipping every function body, then elaborate
/// and key every function. The program is consumed: its function
/// declarations move into the front end, the rest is dropped once
/// elaborated.
fn front_end(name: &str, attr: &Attribution, limits: &Limits) -> Result<FrontEnd, Unparsed> {
    let source = attr.full_text();
    let mut pre = DiagSink::new();
    let (program, outline, timing) = parse_outline(source, &mut pre, limits.parser_depth);
    if !pre.diagnostics().is_empty() {
        return Err(Unparsed);
    }
    let mut elaborated = elaborate_owned(program, &mut pre);
    // Only a parse reports `LimitExceeded` before any body is
    // checked, so every body is within the loop's reach.
    debug_assert!(!pre.has_code(Code::LimitExceeded));
    let bodies = std::mem::take(&mut elaborated.bodies);
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
    Ok(FrontEnd {
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
        outline,
        pre_views,
        stats,
    })
}

impl IncrementalEngine {
    /// An engine whose environment cache holds `env_capacity` units and
    /// whose per-function cache holds `fn_capacity` verdicts.
    pub fn new(env_capacity: usize, fn_capacity: usize) -> Self {
        IncrementalEngine {
            envs: Mutex::new(LruCache::new(env_capacity)),
            fns: FnCache {
                lru: Mutex::new(LruCache::new(fn_capacity)),
                track_dirty: AtomicBool::new(false),
                dirty: Mutex::new(Vec::new()),
            },
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

    /// Check one unit, reusing whatever the caches already know,
    /// against a dependency-signature prelude (project mode; empty
    /// otherwise). The checker runs over `prelude + source`, every
    /// diagnostic is re-attributed to unit coordinates through
    /// [`Attribution`], and the base hash absorbs the prelude length, so
    /// a unit keeps its per-function cache across body edits even inside
    /// a project. The result is byte-identical to
    /// [`vault_core::check_summary_with_prelude`] on the same inputs.
    ///
    /// The fast path runs when it applies, else the full path; the
    /// reference checker answers a text that does not parse, and any
    /// check under a deadline.
    pub fn check_unit_with_prelude(
        &self,
        name: &str,
        prelude: &str,
        source: &str,
        limits: &Limits,
        metrics: &Metrics,
    ) -> CheckSummary {
        if limits.deadline.is_some() {
            // Wall-clock verdicts are not pure functions of the input.
            return check_summary_with_prelude(name, prelude, source, limits);
        }
        let attr = Attribution::with_prelude(name, prelude, source);
        let answer = match self.try_fast_path(name, &attr, limits, metrics) {
            Some(answer) => answer,
            None => self.full_check(name, &attr, limits, metrics),
        };
        answer.unwrap_or_else(|Unparsed| check_summary_with_prelude(name, prelude, source, limits))
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

    /// Edit-region path: reuse the cached elaboration; a function whose
    /// verdict misses is checked from a mini-parse of its own
    /// declaration. `None` means the preconditions failed and the full
    /// path must run; nothing is counted or cached then, so the full
    /// path's counts are the unit's only ones.
    fn try_fast_path(
        &self,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
        metrics: &Metrics,
    ) -> Option<Result<CheckSummary, Unparsed>> {
        let source = attr.full_text();
        let cached = lock(&self.envs).get(fnv1a_64(name.as_bytes())).flatten()?;
        if !cached.clean || cached.base_hash != base_hash(name, limits, attr.prelude_len()) {
            return None;
        }
        let (env, edited) = cached.edited_to(source)?;
        let mut syms = Arc::clone(&env.elaborated.syms);
        // The edited declaration is parsed first, whether or not its
        // verdict is cached: a syntax error means the text does not
        // parse. Any other failed mini-parse (span drift) means only the
        // full path can say what the unit means now.
        let mut edited_fn =
            match edited.map(|k| mini_parse(source, env.slots[k].0, &mut syms, limits)) {
                Some(Ok(f)) => Some(f),
                Some(Err(true)) => return Some(Err(Unparsed)),
                Some(Err(false)) => return None,
                None => None,
            };
        let outcome = |i: usize| {
            if let Some(entry) = self.fns.get(env.keys[i], &env.iface) {
                return Some(FnOutcome::Hit(entry));
            }
            let decl = env.slots[i].0;
            let f = match edited_fn.take_if(|_| edited == Some(i)) {
                Some(f) => f,
                None => mini_parse(source, decl, &mut syms, limits).ok()?,
            };
            let (entry, check_micros) = check_fn(&env.elaborated, &syms, &env.iface, &f, limits);
            // A verdict reaching outside its declaration may point at
            // text this entry has shifted.
            entry
                .0
                .self_contained(decl.len())
                .then_some(FnOutcome::Fresh(entry, 0, check_micros))
        };
        let stats = CheckStats::default();
        let (summary, fresh) = assemble(name, attr, &env, Vec::new(), stats, metrics, outcome)?;
        self.fns.remember(fresh);
        lock(&self.envs).put(fnv1a_64(name.as_bytes()), Some(Arc::new(env)));
        Some(Ok(summary))
    }

    /// The full path: the declarations-first front end, then the body
    /// loop, where a miss parses its body, and then the environment is
    /// stored, or a ghost on a name's first full check.
    fn full_check(
        &self,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
        metrics: &Metrics,
    ) -> Result<CheckSummary, Unparsed> {
        let FrontEnd {
            env,
            bodies,
            outline,
            pre_views,
            stats,
        } = front_end(name, attr, limits)?;
        let body = |f: &ast::FunDecl| f.body.as_ref().expect("collected with body").span;
        let outcome = |i: usize| {
            let outcome = match self.fns.get(env.keys[i], &env.iface) {
                Some(entry) => FnOutcome::Hit(entry),
                None => {
                    let started = std::time::Instant::now();
                    let f = ast::FunDecl {
                        body: Some(outline.parse_body(body(&bodies[i]))?),
                        ..bodies[i].clone()
                    };
                    let parse_micros = started.elapsed().as_micros() as u64;
                    let elab = &env.elaborated;
                    let (entry, check_micros) = check_fn(elab, &elab.syms, &env.iface, &f, limits);
                    FnOutcome::Fresh(entry, parse_micros, check_micros)
                }
            };
            // The monolithic checker parses every body before checking
            // any, so when this verdict stops the loop, the syntax errors
            // of the bodies past it are part of its answer.
            let (FnOutcome::Hit((v, _)) | FnOutcome::Fresh((v, _), ..)) = &outcome;
            let rest = &bodies[i + 1..];
            if v.stops() && !rest.iter().all(|f| outline.parse_body(body(f)).is_some()) {
                return None;
            }
            Some(outcome)
        };
        let (summary, fresh) =
            assemble(name, attr, &env, pre_views, stats, metrics, outcome).ok_or(Unparsed)?;
        self.fns.remember(fresh);
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
    use crate::pool::panic_payload;
    use std::panic::{catch_unwind, AssertUnwindSafe};
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

    /// Function keys of a fixed unit, pinned like the declaration
    /// fingerprints in `vault_core::interface`: a persisted verdict is
    /// found by this key, so moving it boots every store cold.
    #[test]
    fn function_keys_of_a_fixed_unit_are_pinned() {
        let text = vault_corpus::FINGERPRINT_UNIT;
        let attr = Attribution::plain("pinned.vlt", text);
        let Ok(fe) = front_end("pinned.vlt", &attr, &Limits::default()) else {
            panic!("the pinned unit parses");
        };
        assert_eq!(fe.env.keys, vec![15102361740920519066, 5469842570659541855]);
    }

    #[test]
    fn matches_monolithic_cold() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let got = eng.check_unit_with_prelude("u.vlt", "", UNIT, &limits, &m);
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
        let got = eng.check_unit_with_prelude("u.vlt", "", &edited, &limits, &m);
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
        let got = eng.check_unit_with_prelude("u.vlt", "", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
        assert!(!Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    /// `(hits, misses)` counted while checking `text` as `u.vlt`, which
    /// must match the monolithic checker.
    fn counted(eng: &IncrementalEngine, m: &Metrics, text: &str) -> (u64, u64) {
        let before = m.snapshot();
        let got = eng.check_unit_with_prelude("u.vlt", "", text, &Limits::default(), m);
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
        eng.check_unit_with_prelude("u.vlt", "", UNIT, &Limits::default(), &m);
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
        eng.check_unit_with_prelude("u.vlt", "", UNIT, &limits, &m);
        lock(&eng.envs).clear(); // simulate env eviction, keep fn cache
        let before = m.snapshot();
        let got = eng.check_unit_with_prelude("u.vlt", "", UNIT, &limits, &m);
        assert_eq!(got, reference("u.vlt", UNIT, &limits));
        let snap = m.snapshot();
        assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 2);
        assert_eq!(snap.fn_cache_misses - before.fn_cache_misses, 0);
    }

    #[test]
    fn new_identifier_in_same_length_edit_is_checked_correctly() {
        let (eng, m) = engine();
        let limits = Limits::default();
        let elab = primed(&eng, "u.vlt", "", UNIT);
        // `qv` never appeared in the original unit: the fast path
        // numbers it past the cached interner's end, never as an
        // unknown symbol.
        let edited = UNIT.replace("{ p.x++; } else", "{ qv.x++;} else");
        assert_eq!(edited.len(), UNIT.len());
        let got = eng.check_unit_with_prelude("u.vlt", "", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    #[test]
    fn a_fresh_local_name_takes_the_fast_path_and_numbering_moves_no_verdict() {
        // Two aliases, two qualifiers and a constructor with two
        // existential keys, each first seen in string order.
        const NAMED: &str = "\
interface ALPHA {
  type region;
  tracked(R) region create() [new R];
  void delete(tracked(R) region) [-R];
}
interface ZETA {
  void ping();
}
struct point { int x; int y; }
type apt = point;
type zpt = point;
variant twopt [ 'Two(tracked(P) region, P:point, tracked(Q) region, Q:point) ];
void one(bool flag) {
  tracked(A) region rgn = ALPHA.create();
  A:point p = new(rgn) point {x=1; y=2;};
  if (flag) { p.x++; } else { p.y++; }
  ALPHA.delete(rgn);
}
void two(apt a, zpt z) {
  ZETA.ping();
  a.x = z.y;
}
void three() {
  tracked(B) region r = ALPHA.create();
  ALPHA.delete(r);
}
";
        let (eng, m) = engine();
        let elab = primed(&eng, "u.vlt", "", NAMED);
        assert!(!elab.syms.names().any(|n| n == "fresh"));
        // Renaming a local to a name the unit never had is a fast-path
        // edit that re-checks only its function.
        let renamed = NAMED.replace("rgn", "fresh");
        assert_eq!(counted(&eng, &m, &renamed), (2, 1));
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
        // A function added above everything names the aliases, the
        // qualifiers and the existential keys in reverse string order,
        // so the full path numbers them the other way round. No
        // fingerprint may notice: every untouched verdict hits.
        let first = "\
void first(zpt z, apt a) {
  ZETA.ping();
  tracked(Q) region q = ALPHA.create();
  tracked(P) region p = ALPHA.create();
  ALPHA.delete(q);
  ALPHA.delete(p);
}
";
        let reordered = format!("{first}{renamed}");
        assert_eq!(counted(&eng, &m, &reordered), (3, 1));
        assert!(!Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
        let syms = &cached_elaboration(&eng, "u.vlt").syms;
        for (later, earlier) in [("apt", "zpt"), ("ALPHA", "ZETA"), ("P", "Q")] {
            assert!(syms.sym(earlier) < syms.sym(later), "{earlier} first");
        }
    }

    #[test]
    fn syntax_breaking_same_length_edit_matches_monolithic() {
        let (eng, m) = engine();
        let limits = Limits::default();
        primed(&eng, "u.vlt", "", UNIT);
        let edited = UNIT.replace("if (flag) { p.x++; }", "if (flag) { p.x+(; }");
        assert_eq!(edited.len(), UNIT.len());
        let got = eng.check_unit_with_prelude("u.vlt", "", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
    }

    #[test]
    fn deadline_checks_bypass_the_caches() {
        let (eng, m) = engine();
        let limits = Limits {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(60)),
            ..Limits::default()
        };
        let got = eng.check_unit_with_prelude("u.vlt", "", UNIT, &limits, &m);
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
    fn preludes_of_two_lengths_declaring_the_same_things_match_the_reference() {
        // Two preludes that declare the same interface, one longer by a
        // comment. Every function key hashes the prelude length, so a
        // verdict cached under one prelude is never probed under the
        // other: the first check under each prelude misses every
        // function, and a repeat under it hits every one.
        let limits = Limits::default();
        let short = "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n  void fclose(tracked(F) FILE f) [-F];\n}\n";
        let long = format!("// The file-system interface.\n\n{short}");
        let unit = "void leak() {\n  tracked(F) FILE f = FS.fopen();\n}\nvoid tidy() {\n  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n}\n";
        for (first, second) in [(short, long.as_str()), (long.as_str(), short)] {
            let (eng, m) = engine();
            for (prelude, counts) in [
                (first, (0, 2)),
                (second, (0, 2)),
                (first, (2, 0)),
                (second, (2, 0)),
            ] {
                let before = m.snapshot();
                let got = eng.check_unit_with_prelude("app", prelude, unit, &limits, &m);
                let want = check_summary_with_prelude("app", prelude, unit, &limits);
                assert_eq!(got, want, "prelude of {} bytes", prelude.len());
                assert_eq!(got.verdict, Verdict::Rejected, "leak drops F");
                let snap = m.snapshot();
                assert_eq!(
                    (
                        snap.fn_cache_hits - before.fn_cache_hits,
                        snap.fn_cache_misses - before.fn_cache_misses
                    ),
                    counts,
                    "prelude of {} bytes",
                    prelude.len()
                );
            }
        }
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
        eng.enable_dirty_tracking();
        let limits = Limits::default();
        let cold = eng.check_unit_with_prelude("u.vlt", "", UNIT, &limits, &m);
        eng.check_unit_with_prelude("v.vlt", "", UNIT, &limits, &m);
        let timed = CheckStats {
            lex_micros: 3,
            check_micros: 99,
            ..CheckStats::default()
        };
        let verdict = FnVerdict {
            diags: Vec::new(),
            reads: ReadSet::default(),
        };
        eng.seed_fn(42, Arc::new(verdict), timed);

        // Every verdict the cache holds: the four remembered by the two
        // checks, plus the seeded one.
        let dirty = eng.take_dirty();
        assert_eq!(dirty.len(), 4);
        for (_, _, stats) in &dirty {
            assert_eq!(timings(stats), [0; 5]);
        }
        let seeded = lock(&eng.fns.lru).get(42).expect("seeded");
        assert_eq!(timings(&seeded[0].1), [0; 5]);

        let before = m.snapshot();
        let warm = eng.check_unit_with_prelude("u.vlt", "", UNIT, &limits, &m);
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
        let limits = Limits::default();
        // Full path, two names, each twice so that the second check
        // stores its environment.
        for _ in 0..2 {
            eng.check_unit_with_prelude("u.vlt", "", UNIT, &limits, &m);
            eng.check_unit_with_prelude("v.vlt", "", UNIT, &limits, &m);
        }
        let elab = cached_elaboration(&eng, "u.vlt");
        cached_elaboration(&eng, "v.vlt");
        // Fast-path refresh: the same body-free environment is reused.
        let edited = UNIT.replace("{x=1; y=2;};", "{x=1; y=2;};\n  p.x = 4;");
        let before = m.snapshot();
        eng.check_unit_with_prelude("u.vlt", "", &edited, &limits, &m);
        assert_eq!(m.snapshot().fn_cache_hits - before.fn_cache_hits, 1);
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
        // Project mode: a unit checked against a prelude.
        let prelude = "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n  void fclose(tracked(F) FILE f) [-F];\n}\n";
        let unit = "void use_file() {\n  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n}\n";
        for _ in 0..2 {
            eng.check_unit_with_prelude("app", prelude, unit, &limits, &m);
            eng.check_unit_with_prelude("app2", prelude, unit, &limits, &m);
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

    /// What the oracle saw of one range: whether [`mini_parse`] took
    /// it, and whether it numbered a name the unit lacked.
    struct RangeOutcome {
        mini_parsed: bool,
        new_names: bool,
    }

    /// Parse `range` of `text` both ways — the range parse and the full
    /// parse of the blanked text — and assert they agree: the same
    /// declarations (symbols included), the same diagnostics, and the
    /// same [`clean_fun`] outcome. Then hold [`mini_parse`], which lexes
    /// the range into `elab`'s interner instead of a fresh one, copying
    /// it only for a new name, to the two routes agreeing: it succeeds
    /// exactly when the range parse is clean, and then yields the
    /// blanked text's declaration, equal in everything but symbol
    /// numbers (the same spans and printed form). When the range names
    /// nothing new, it equals `eager`, the whole-text parse's
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
        let ranged = clean_fun(ranged, &ranged_diags, range);
        let oracle = clean_fun(oracle, &oracle_diags, range);
        assert_eq!(
            format!("{ranged:?}"),
            format!("{oracle:?}"),
            "{}",
            context()
        );
        let mut syms = Arc::clone(&elab.syms);
        let mini = mini_parse(text, range, &mut syms, &Limits::default());
        assert_eq!(mini.is_ok(), ranged.is_some(), "{}", context());
        let new_names = syms.len() > elab.syms.len();
        assert_eq!(new_names, !Arc::ptr_eq(&syms, &elab.syms), "{}", context());
        if let Ok(mini) = &mini {
            // `Ident` equality ignores symbols: same spans, same printed form.
            assert_eq!(Some(mini), oracle.as_ref(), "{}", context());
            if let (false, Some(eager)) = (new_names, eager) {
                assert_eq!(format!("{mini:?}"), format!("{eager:?}"), "{}", context());
            }
        }
        RangeOutcome {
            mini_parsed: mini.is_ok(),
            new_names,
        }
    }

    /// Every declaration of `text`, mini-parsed at its own range and at
    /// ranges that cut it (a missing closing brace, a split first token,
    /// the bare body, an end inside its first string literal or
    /// comment), against the blanked-text oracle. Returns `(mini-parsed
    /// declarations, declarations, mini-parsed cuts that name something
    /// the unit lacks)`.
    fn oracle_check_unit(text: &str) -> (usize, usize, usize) {
        let mut diags = DiagSink::new();
        let program = vault_syntax::parse_program(text, &mut diags);
        let elab = vault_core::elaborate(&program, &mut diags);
        let (mut clean, mut new_name_cuts) = (0, 0);
        for f in &elab.bodies {
            let body = f.body.as_ref().expect("collected with body").span;
            let (s, e) = (f.span.start, f.span.end);
            let whole = assert_range_parse_matches_oracle(text, f.span, &elab, Some(f));
            assert!(!whole.new_names, "{text}");
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
                    new_name_cuts += usize::from(cut.mini_parsed && cut.new_names);
                }
            }
        }
        (clean, elab.bodies.len(), new_name_cuts)
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

        let (mut clean, mut total, mut new_name_cuts) = (0, 0, 0);
        for text in &units {
            let (c, t, n) = oracle_check_unit(text);
            clean += c;
            total += t;
            new_name_cuts += n;
        }
        assert!(total > 400, "only {total} declarations");
        // Nearly every declaration of a parseable unit mini-parses
        // clean on its own; the oracle must see both outcomes.
        assert!(clean * 10 > total * 9, "{clean} of {total} clean");
        // A split first token (`oid okay() {…}`) parses cleanly, naming
        // a type the unit never declared: a name numbered past the end.
        assert!(new_name_cuts > 0, "no clean cut named something new");
    }

    /// The summary of checking `text` with its symbols numbered in
    /// `order` instead of first-seen order: the whole text is parsed
    /// into an interner seeded with `order` ([`parse_range_in`]), then
    /// elaborated and checked function by function, stopping where the
    /// monolithic checker stops.
    fn summary_numbered(name: &str, text: &str, order: &[&str]) -> CheckSummary {
        let limits = Limits::default();
        let mut seeded = Interner::new();
        for name in order {
            seeded.intern(name);
        }
        let mut syms = Arc::new(seeded);
        let mut diags = DiagSink::new();
        let whole = Span::new(0, text.len() as u32);
        let program = parse_range_in(text, whole, &mut syms, &mut diags, limits.parser_depth);
        assert_eq!(syms.len(), order.len(), "a name outside the seeded order");
        let elab = elaborate_owned(program, &mut diags);
        let mut stats = CheckStats::default();
        for f in &elab.bodies {
            let decls = Decls::new(
                &elab.world,
                &elab.syms,
                &elab.aliases,
                &elab.qualifiers,
                &elab.base_keys,
            );
            stats.absorb(check_function_reading(&decls, f, &mut diags, &limits));
            if diags.has_code(Code::LimitExceeded) {
                break;
            }
        }
        let source = vault_syntax::SourceMap::new(name, text);
        let views: Vec<DiagView> = diags
            .diagnostics()
            .iter()
            .map(|d| DiagView::new(d, &source))
            .collect();
        CheckSummary {
            name: name.to_string(),
            verdict: verdict_of(&views),
            diagnostics: views,
            stats,
        }
    }

    /// Check `text` with its symbols numbered in reverse string order,
    /// in FNV-1a hash order and in a shuffle seeded by `seed`, and hold
    /// each summary to the reference checker's, byte for byte.
    fn assert_numbering_moves_nothing(text: &str, seed: u64) {
        use rand::{Rng, SeedableRng};
        let reference = check_summary_with_limits("u.vlt", text, &Limits::default());
        let mut diags = DiagSink::new();
        let program = vault_syntax::parse_program(text, &mut diags);
        let mut reverse: Vec<&str> = program.syms.names().collect();
        reverse.sort_unstable_by(|a, b| b.cmp(a));
        let mut hashed = reverse.clone();
        hashed.sort_unstable_by_key(|n| fnv1a(vault_syntax::intern::FNV_OFFSET, n.as_bytes()));
        let mut shuffled = reverse.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        for order in [reverse, hashed, shuffled] {
            let got = summary_numbered("u.vlt", text, &order);
            assert_eq!(got, reference, "numbered {order:?}:\n{text}");
        }
    }

    #[test]
    fn symbol_numbering_changes_no_summary() {
        use vault_corpus::synth::{self, Shape, SynthConfig};
        // A join whose key correlation conflicts: which variables are
        // blamed, and in what order, depends on the order the frames
        // are walked in. First-seen, string and reverse string order of
        // `mid`, `zed` and `alp` all differ.
        const JOIN: &str = "\
interface REGION {
  type region;
  tracked(R) region create() [new R];
  void delete(tracked(R) region) [-R];
}
void join(bool c) {
  tracked region mid = Region.create();
  tracked region zed = Region.create();
  tracked region alp = Region.create();
  if (c) { zed = mid; alp = mid; } else { }
  Region.delete(mid);
}
";
        let join = check_summary_with_limits("u.vlt", JOIN, &Limits::default());
        let mismatches: Vec<&str> = (join.diagnostics.iter())
            .filter(|d| d.code == Code::JoinMismatch.as_str() && d.message.starts_with("variable"))
            .map(|d| &*d.message)
            .collect();
        // `alp` pairs the then-path's k0 (it aliases `mid`) with k2, so
        // `mid`'s k0 on both paths cannot pair: each message names the
        // key that differs and the partner it already has.
        assert_eq!(
            mismatches,
            [
                "variable `mid` has type `tracked(k0) region` on one path but \
                 `tracked(k0) region` on the other: key k0 cannot pair with the other \
                 path's k0, because it already pairs with the other path's k2",
                "variable `zed` has type `tracked(k0) region` on one path but \
                 `tracked(k1) region` on the other: key k0 cannot pair with the other \
                 path's k1, because it already pairs with the other path's k2",
            ],
            "{}",
            join.render_diagnostics()
        );
        let mut units = vec![JOIN.to_string()];
        units.extend(oracle_units());
        // The golden differential suite's synthetic units
        // (`tests/differential.rs`); its corpus programs are in
        // `oracle_units`.
        let golden_shapes = [
            Shape::Mixed,
            Shape::Straight,
            Shape::Branchy,
            Shape::Loopy,
            Shape::VariantHeavy,
        ];
        for (i, shape) in golden_shapes.iter().cycle().take(10).enumerate() {
            let config = SynthConfig {
                functions: 6,
                stmts_per_fn: 10,
                seed: 0xD1FF + i as u64,
                bug_rate: if i % 2 == 0 { 0.4 } else { 0.0 },
                shape: *shape,
            };
            units.push(synth::generate(&config).source);
        }
        for shape in SHAPES {
            for seed in 100..134 {
                let config = SynthConfig {
                    functions: 6,
                    stmts_per_fn: 8,
                    seed,
                    bug_rate: 0.3,
                    shape,
                };
                units.push(synth::generate(&config).source);
            }
        }
        for (seed, text) in units.iter().enumerate() {
            assert_numbering_moves_nothing(text, seed as u64);
        }
    }

    /// Parse `text` declarations first, then every skipped body, and
    /// hold the result to the eager parse: when neither pass reported
    /// anything, the same declarations and bodies (symbols included),
    /// the same frozen interner and no diagnostics; otherwise the eager
    /// parse reports something too, and the engine falls back to the
    /// reference checker, which parses eagerly. Returns whether the
    /// declarations-first parse stood.
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
        // equals the eager one, or falls back to the reference checker.
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
        let got = eng.check_unit_with_prelude("u.vlt", "", &edited, &limits, &m);
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
            let got = eng.check_unit_with_prelude("u.vlt", "", v, &limits, &m);
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
        // Confined to `beta`'s body, braces untouched, but it splits
        // `beta` in two: the mini-parse of `beta` is clean yet yields
        // two functions, and the full path answers. Only the full
        // path's counts may land.
        let edited = UNIT.replace("  p.x++;\n}\n", "}\nvoid q() {\n  int n = 1;\n}\n");
        let got = eng.check_unit_with_prelude("u.vlt", "", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
        let snap = m.snapshot();
        let counted = (snap.fn_cache_hits + snap.fn_cache_misses)
            - (before.fn_cache_hits + before.fn_cache_misses);
        assert_eq!(counted, 3, "one count per function");
        assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 1, "alpha hit");
        assert!(!Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    #[test]
    fn returning_to_a_broken_body_reports_its_syntax_error() {
        let (eng, m) = engine();
        let limits = Limits::default();
        // The broken text goes to the reference checker, and so does
        // returning to it from a clean one: that edit is confined to
        // `alpha`'s body, and the fast path's mini-parse of `alpha` must
        // see the error.
        let broken = UNIT.replace(
            "  Region.delete(r);\n}\nvoid beta",
            "  @@;\n  Region.delete(r);\n}\nvoid beta",
        );
        for v in [&broken, UNIT, &broken] {
            let got = eng.check_unit_with_prelude("u.vlt", "", v, &limits, &m);
            assert_eq!(got, reference("u.vlt", v, &limits));
        }
    }

    #[test]
    fn a_text_that_does_not_parse_counts_and_caches_nothing() {
        // `two` exceeds the limit, so the body loop stops there after
        // checking `one` and `two`; the bodies past the stop are parsed
        // then, and `three` misses a semicolon (braces balanced, so the
        // declaration pass does not see it). The reference checker
        // answers; neither verdict is counted or cached, and no ghost is
        // left.
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
        let (eng, m) = engine();
        let got = eng.check_unit_with_prelude("l.vlt", "", BROKEN, &limits, &m);
        assert_eq!(got, check_summary_with_limits("l.vlt", BROKEN, &limits));
        let snap = m.snapshot();
        assert_eq!((snap.fn_cache_hits, snap.fn_cache_misses), (0, 0));
        assert_eq!(eng.entries(), (0, 0));
        assert_eq!(lock(&eng.envs).len(), 0, "no ghost");

        // `alpha`'s declaration changed, so declarations first checks it;
        // then `beta`'s body fails to parse. The ghost of the first check
        // stays as it was, so the next clean check stores the environment.
        eng.check_unit_with_prelude("u.vlt", "", UNIT, &Limits::default(), &m);
        let edited = UNIT
            .replace("void alpha(bool flag) {", "void alpha(bool flag)  {")
            .replace("  p.x++;\n}\n", "  p.x++\n}\n");
        assert_eq!(counted(&eng, &m, &edited), (0, 0));
        assert_eq!(eng.entries(), (0, 2), "only the first check's verdicts");
        assert!(lock(&eng.envs).get(fnv1a_64(b"u.vlt")).is_some(), "a ghost");
        assert_eq!(counted(&eng, &m, UNIT), (2, 0));
        assert_eq!(eng.entries().0, 1);
    }

    #[test]
    fn fixing_a_syntax_error_takes_the_fast_path_from_the_last_clean_text() {
        let (eng, m) = engine();
        let elab = primed(&eng, "u.vlt", "", UNIT);
        // Breaking `beta`'s body leaves the environment of the last text
        // that parsed, so restoring it is no edit at all against that.
        let broken = UNIT.replace("  p.x++;\n}\n", "  p.x++\n}\n");
        assert_eq!(counted(&eng, &m, &broken), (0, 0));
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
        assert_eq!(counted(&eng, &m, UNIT), (2, 0));
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
        // The same from a fast-path edit: fixing the error returns to a
        // text one body away from the cached one.
        let edited = UNIT.replace("{x=1; y=2;}", "{x=7; y=2;}");
        assert_eq!(counted(&eng, &m, &edited), (1, 1));
        let broken = edited.replace("  p.x++;\n}\n", "  p.x++\n}\n");
        assert_eq!(counted(&eng, &m, &broken), (0, 0));
        assert_eq!(counted(&eng, &m, &edited), (2, 0));
        assert!(Arc::ptr_eq(&elab, &cached_elaboration(&eng, "u.vlt")));
    }

    #[test]
    fn full_path_reuses_functions_whose_text_is_unchanged() {
        let (eng, m) = engine();
        let limits = Limits::default();
        eng.check_unit_with_prelude("u.vlt", "", UNIT, &limits, &m);
        // A comment ahead of every declaration moves all of them but
        // changes no declaration: everything is reused.
        let moved = format!("// header\n{UNIT}");
        let before = m.snapshot();
        let got = eng.check_unit_with_prelude("u.vlt", "", &moved, &limits, &m);
        assert_eq!(got, reference("u.vlt", &moved, &limits));
        let snap = m.snapshot();
        assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 2);
        assert_eq!(snap.fn_cache_misses, before.fn_cache_misses);
        // Touching `beta`'s opening brace takes the full path, which
        // still reuses `alpha`.
        let brace = moved.replace("void beta() {", "void beta() {  ");
        let before = m.snapshot();
        let got = eng.check_unit_with_prelude("u.vlt", "", &brace, &limits, &m);
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
        let at = |d: Diagnostic| FnVerdict::at(decl.start, vec![d], ReadSet::default());
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
        let outside = (Arc::new(outside), CheckStats::default());
        eng.fns.remember(vec![(7, decl, outside)]);
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
        let (eng, m) = engine();
        let check = |text: &str| eng.check_unit_with_prelude("l.vlt", "", text, &limits, &m);
        // The first check leaves a ghost, so the environment is stored
        // by the second.
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
            assert_eq!(counted, 2, "counted up to the stop");
            let now = cached_elaboration(&eng, "l.vlt");
            if let Some(prev) = elab.replace(Arc::clone(&now)) {
                assert!(Arc::ptr_eq(&prev, &now), "the edit took the fast path");
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
        let (eng, m) = engine();
        // The entry under the name: `None` without one, `Some(None)` for
        // a ghost.
        let entry = || lock(&eng.envs).get(fnv1a_64(b"l.vlt"));
        for (i, text) in texts.iter().enumerate() {
            let before = entry();
            let got = eng.check_unit_with_prelude("l.vlt", "", text, &limits, &m);
            assert_eq!(got, reference("l.vlt", text, &limits), "{text}");
            assert_eq!(got.verdict, Verdict::ResourceLimit);
            let after = entry();
            match i {
                // The fixed text's first full check leaves a ghost, its
                // second (after an edit) stores the environment.
                2 => assert!(matches!(after, Some(None)), "text {i}"),
                3 => {
                    let env = after.flatten().expect("environment cached");
                    assert_eq!(&*env.source, text.as_str());
                }
                // A broken text leaves the entry as it was.
                _ => match (before, after) {
                    (Some(Some(before)), Some(Some(after))) => {
                        assert!(Arc::ptr_eq(&before, &after), "text {i}")
                    }
                    (before, after) => assert!(before.is_none() && after.is_none(), "text {i}"),
                },
            }
        }
    }

    #[test]
    fn one_shot_names_leave_only_ghosts() {
        let (eng, m) = engine();
        let limits = Limits::default();
        for i in 0..100 {
            let name = format!("once-{i}.vlt");
            let got = eng.check_unit_with_prelude(&name, "", UNIT, &limits, &m);
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
            eng.check_unit_with_prelude(name, "", UNIT, &limits, &m);
        }
        assert_eq!(eng.entries().0, 0);
        assert!(lock(&eng.envs).get(fnv1a_64(b"a")).is_some(), "a ghost");
        eng.check_unit_with_prelude("a", "", UNIT, &limits, &m);
        assert_eq!(eng.entries().0, 1);
        cached_elaboration(&eng, "a");
    }

    #[test]
    fn a_panicking_outcome_unwinds_before_anything_is_counted() {
        let m = Metrics::default();
        let attr = Attribution::plain("u.vlt", UNIT);
        let eng = IncrementalEngine::new(64, 1024);
        primed(&eng, "u.vlt", "", UNIT);
        let env = lock(&eng.envs)
            .get(fnv1a_64(b"u.vlt"))
            .flatten()
            .expect("environment cached");
        let hit = Arc::new(FnVerdict {
            diags: Vec::new(),
            reads: ReadSet::default(),
        });
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let outcome = |i: usize| match i {
                0 => Some(FnOutcome::Hit((Arc::clone(&hit), CheckStats::default()))),
                _ => panic!("boom"),
            };
            assemble(
                "u.vlt",
                &attr,
                &env,
                Vec::new(),
                CheckStats::default(),
                &m,
                outcome,
            )
        }))
        .expect_err("the panic unwinds");
        assert_eq!(panic_payload(&*caught), "boom");
        let snap = m.snapshot();
        assert_eq!((snap.fn_cache_hits, snap.fn_cache_misses), (0, 0));
    }
}
