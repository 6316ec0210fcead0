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
//!    body content. Its fingerprint (`env_hash`) covers the unit name,
//!    the limits, the prelude length, and the signature text: the
//!    segments of the checked text between function bodies, each
//!    prefixed by its length, so every body counts as one separator
//!    whatever its length.
//! 2. **Per-function verdicts.** As in the paper, a function is checked
//!    on its own, against the declared effect clauses of its callees, so
//!    its verdict is a pure function of the environment and the
//!    declaration's own text — not of where the declaration sits. Each
//!    body's fingerprint (`fn_fp`) is `env_hash` plus the declaration's
//!    bytes, with no offsets and no line/column. The verdict — the raw
//!    [`Diagnostic`]s with every span relative to the declaration start,
//!    plus the function's [`CheckStats`] — is memoized under that key in
//!    an LRU. At assembly each verdict is re-based to the declaration's
//!    current start and rendered through the unit's [`Attribution`] (the
//!    re-basing path project mode uses), so line numbers and quoted
//!    source lines always come from the text being checked. A verdict
//!    with a span or label outside its own declaration would depend on
//!    more than that text; it is used once and never cached.
//!
//! # What the environment cache holds
//!
//! A function body is needed only while its unit is being checked, so
//! the environment cache keeps only the declarations. A full check
//! parses the unit once and elaborates the program *by value*
//! ([`vault_core::elaborate_owned`]): the function bodies move out of
//! the parse into the check's front end, never copied, and are freed
//! when the check ends. A `CachedEnv` holds the checked text, the
//! declaration slots and fingerprints, and an [`Elaborated`] whose
//! `bodies` is empty — declaration tables, frozen interner and base
//! keys. On a 24 KB, 48-function unit that is about 69 KB (23 KB of it
//! the text), against the 0.5 MB a cached copy of the body ASTs cost.
//!
//! # One body loop
//!
//! Every check runs one loop: take each function's outcome in order (a
//! cached verdict or a fresh check), splice it into the summary, and
//! stop where the monolithic checker stops, after the first
//! [`Code::LimitExceeded`]. Hits and misses are counted in that order,
//! only up to the stop. The two paths differ only in where an outcome
//! comes from:
//!
//! * **Fast path** — the environment cache holds a clean parse of an
//!   earlier text under this unit name, and a common-prefix/suffix scan
//!   against that text finds the edit confined strictly inside one
//!   function body (both braces untouched). The cached [`Elaborated`] is
//!   reused outright (no parse, no elaboration); later declarations'
//!   spans shift by the length delta; a function whose fingerprint
//!   misses is checked from a *mini-parse* of just its own declaration.
//!   A mini-parse lexes only the declaration's byte range of the checked
//!   text, with spans in whole-text coordinates, and yields exactly what
//!   a parse of the text blanked outside that range would
//!   ([`vault_syntax::parse_range_with_depth`]). The edited declaration
//!   is mini-parsed even when its verdict hits: a verdict cached from a
//!   recovered parse of the same text cannot tell that the text does not
//!   parse. A mini-parse must be pristine: no diagnostic, exactly the
//!   expected span, a body, and no identifier the frozen interner lacks.
//!   Otherwise, or when a fresh verdict reaches outside its declaration,
//!   the fast path abandons the check with nothing counted. The
//!   environment entry is then refreshed with the new text and slots,
//!   sharing the same [`Elaborated`].
//! * **Full path** — anything else (an edit outside bodies or spanning
//!   two, a brace edit, a new identifier, a syntax error, an evicted
//!   environment): parse + elaborate fresh, then probe the per-function
//!   cache before checking each body, so every function whose text and
//!   environment are unchanged hits wherever it moved.
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
//! claims only while the slot it needs is empty, so each body is checked
//! once and a helper still queued behind other work never holds the loop
//! up. The sequential check is the zero-helper case: the loop claims
//! exactly the index it needs, and nothing past an early exit is
//! checked. Per-function `frames_copied` counters stay exact because
//! each body runs start to finish on one thread (see
//! [`vault_core::flow::FrameCopyScope`]). A panicking check is caught
//! where it runs and re-raised by the loop in function order, before the
//! metrics are added or the environment cache is written, so the
//! service's containment produces the same `internal-error` summary
//! whichever thread ran it. The one divergence is warmth, not output:
//! helpers may check and cache functions past an early exit or a panic.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use vault_core::check::{check_function_with_limits, CheckStats};
use vault_core::{
    check_summary_with_prelude, elaborate_owned, CheckSummary, Elaborated, Limits, Verdict,
};
use vault_syntax::intern::fnv1a;
use vault_syntax::{
    ast, parse_program_with_depth_timed, parse_range_with_depth, Attribution, Code, DiagSink,
    DiagView, Diagnostic, Severity, Span,
};

use crate::cache::{fnv1a_64, LruCache};
use crate::metrics::Metrics;
use crate::pool::{panic_payload, ThreadPool};

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
    /// `env_hash` the fast path cannot read off the text.
    base_hash: u64,
    /// Fingerprint of the declaration environment (see [`env_hash`]).
    env_hash: u64,
    /// The checked text (prelude + unit source) this entry describes.
    source: Arc<str>,
    /// `(whole-declaration span, body span including braces)` for each
    /// checked function, in check order, in `source` coordinates.
    slots: Vec<(Span, Span)>,
    /// Per-function fingerprints, parallel to `slots`.
    fps: Vec<u64>,
    /// The reusable elaboration output: declaration tables and frozen
    /// interner only. Its `bodies` is always empty; a body AST lives
    /// only while its unit is being checked.
    elaborated: Arc<Elaborated>,
    /// Whether parse + elaboration reported nothing. The fast path
    /// requires it: partial parses have unstable declaration tables, and
    /// the monolithic checker's early-exit rules key off these
    /// diagnostics.
    clean: bool,
}

impl CachedEnv {
    /// This entry refreshed for `source` when `source` differs from its
    /// text only strictly inside one function body (or not at all), plus
    /// that body's index; `None` otherwise. The refreshed entry shares
    /// this one's [`Elaborated`].
    ///
    /// A common-prefix/suffix scan bounds the replaced region. The
    /// signature text is then unchanged, so `env_hash` still holds;
    /// every offset past the region moves by the length delta, and only
    /// the edited declaration needs a new fingerprint.
    fn edited_to(&self, source: &str) -> Option<(CachedEnv, Option<usize>)> {
        let refreshed = |slots: Vec<(Span, Span)>, fps: Vec<u64>| CachedEnv {
            source: Arc::from(source),
            slots,
            fps,
            elaborated: Arc::clone(&self.elaborated),
            ..*self
        };
        let (old, new) = (self.source.as_bytes(), source.as_bytes());
        let prefix = common_prefix(old, new);
        if prefix == old.len() && prefix == new.len() {
            return Some((refreshed(self.slots.clone(), self.fps.clone()), None));
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
        let mut fps = self.fps.clone();
        fps[k] = fn_fingerprint(self.env_hash, source, slots[k].0);
        Some((refreshed(slots, fps), Some(k)))
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
/// its declaration sits.
struct FnVerdict {
    /// The function's diagnostics in discovery order, every span taken
    /// relative to the declaration start (modulo 2^32, so a span before
    /// the start survives the round trip; see [`Self::self_contained`]).
    diags: Vec<Diagnostic>,
    /// The function's checker counters, every phase timing zero: a
    /// request that reuses the verdict did none of that work, so only
    /// the request that checked the body counts its time.
    stats: CheckStats,
}

/// `stats` with every phase timing zeroed.
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
    fn at(start: u32, mut diags: Vec<Diagnostic>, stats: CheckStats) -> Self {
        for d in &mut diags {
            map_offsets(d, |o| o.wrapping_sub(start));
        }
        FnVerdict { diags, stats }
    }

    /// Whether every span and label lies inside a declaration of
    /// `decl_len` bytes. Only such a verdict depends on nothing but the
    /// declaration's text and may be cached or persisted.
    fn self_contained(&self, decl_len: u32) -> bool {
        let inside = |s: Span| s.start <= s.end && s.end <= decl_len;
        self.diags
            .iter()
            .all(|d| inside(d.span) && d.labels.iter().all(|l| inside(l.span)))
    }
}

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
    verdict: &FnVerdict,
) -> bool {
    for d in &verdict.diags {
        let mut d = d.clone();
        map_offsets(&mut d, |o| o.wrapping_add(start));
        views.push(attr.view(&d));
    }
    stats.absorb(verdict.stats);
    verdict.diags.iter().any(|d| d.code == Code::LimitExceeded)
}

/// What one function contributes to a check.
#[derive(Clone)]
enum FnOutcome {
    /// The per-function cache already had the verdict.
    Hit(Arc<FnVerdict>),
    /// Freshly checked (and cached when self-contained), with the
    /// microseconds the check took.
    Fresh(Arc<FnVerdict>, u64),
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
        let verdict = match outcome(i)? {
            FnOutcome::Hit(v) => {
                hits += 1;
                v
            }
            FnOutcome::Fresh(v, micros) => {
                misses += 1;
                stats.check_micros += micros;
                v
            }
            FnOutcome::Panicked(msg) => resume_unwind(Box::new(msg)),
        };
        if splice(&mut views, &mut stats, attr, decl.start, &verdict) {
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
    lru: Mutex<LruCache<Arc<FnVerdict>>>,
    /// When set (persistence enabled), every fresh function verdict is
    /// also pushed onto `dirty` for the service's journal writer to
    /// drain into the on-disk store. Off by default so a daemon without
    /// `--cache-dir` never accumulates an unbounded list.
    track_dirty: AtomicBool,
    /// Fresh `(fingerprint, verdict)` pairs not yet persisted.
    dirty: Mutex<Vec<(u64, Arc<FnVerdict>)>>,
}

impl FnCache {
    fn get(&self, fp: u64) -> Option<Arc<FnVerdict>> {
        lock(&self.lru).get(fp)
    }

    /// Cache a freshly checked verdict under `fp` (and queue it for the
    /// persistence layer, when enabled) if it is self-contained within
    /// `decl`. Returns it shared either way.
    fn remember(&self, fp: u64, decl: Span, verdict: FnVerdict) -> Arc<FnVerdict> {
        let verdict = Arc::new(verdict);
        if verdict.self_contained(decl.len()) {
            lock(&self.lru).put(fp, Arc::clone(&verdict));
            if self.track_dirty.load(Ordering::Relaxed) {
                lock(&self.dirty).push((fp, Arc::clone(&verdict)));
            }
        }
        verdict
    }

    /// Check `f` against `elab` and remember the verdict under `fp`: the
    /// miss step of every path. A panicking check is caught here, on
    /// whichever thread ran it.
    fn check(&self, fp: u64, elab: &Elaborated, f: &ast::FunDecl, limits: &Limits) -> FnOutcome {
        match catch_unwind(AssertUnwindSafe(|| check_body(elab, f, limits))) {
            Ok((v, micros)) => FnOutcome::Fresh(self.remember(fp, f.span, v), micros),
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
    envs: Mutex<LruCache<Arc<CachedEnv>>>,
    fns: Arc<FnCache>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Hash of what shapes the environment besides the text: the unit name,
/// the limits that shape parsing/checking, and the prelude length
/// (project mode prepends dependency signatures; two prelude/unit
/// splits of one concatenation attribute diagnostics differently).
fn base_hash(name: &str, limits: &Limits, prelude_len: u32) -> u64 {
    let h = fnv1a_64(name.as_bytes());
    let h = fnv1a(h, &[0x00]);
    let h = fnv1a(h, &(limits.parser_depth as u64).to_le_bytes());
    let h = fnv1a(h, &(limits.fixpoint_iters as u64).to_le_bytes());
    fnv1a(h, &(prelude_len as u64).to_le_bytes())
}

/// Fingerprint of the declaration environment: `base` plus the
/// signature text — the segments of `source` around the function bodies
/// in `slots`, each prefixed by its length. A body contributes only the
/// boundary between two segments, never its length, so an edit inside
/// a body leaves the hash unchanged.
fn env_hash(base: u64, source: &str, slots: &[(Span, Span)]) -> u64 {
    fn absorb_segment(h: u64, seg: &[u8]) -> u64 {
        fnv1a(fnv1a(h, &(seg.len() as u64).to_le_bytes()), seg)
    }
    let bytes = source.as_bytes();
    let mut h = base;
    let mut cursor = 0usize;
    for &(_, body) in slots {
        let start = (body.start as usize).max(cursor);
        h = absorb_segment(h, &bytes[cursor..start]);
        cursor = cursor.max(body.end as usize);
    }
    absorb_segment(h, &bytes[cursor..])
}

/// Fingerprint of one function: the environment plus the declaration's
/// own bytes. Everything its relative verdict can depend on, and
/// nothing about where it sits.
fn fn_fingerprint(env_hash: u64, source: &str, decl: Span) -> u64 {
    fnv1a(
        env_hash,
        &source.as_bytes()[decl.start as usize..decl.end as usize],
    )
}

/// Parse exactly one declaration of the checked text `text` — only its
/// byte range is lexed, spans stay in whole-text coordinates — and
/// intern it against a cached environment. `None` when the mini-parse
/// is not [`pristine`].
fn mini_parse(text: &str, decl: Span, elab: &Elaborated, limits: &Limits) -> Option<ast::FunDecl> {
    let mut diags = DiagSink::new();
    let depth = limits.parser_depth.saturating_sub(MINI_PARSE_DEPTH_MARGIN);
    let program = parse_range_with_depth(text, decl, &mut diags, depth);
    pristine(program, &diags, decl, elab)
}

/// The one function a mini-parse of `decl` must yield, re-interned
/// against `elab`'s frozen interner; `None` on any diagnostic, anything
/// but one function declaration, a span that moved, a vanished body, or
/// an identifier the frozen interner has never seen.
fn pristine(
    program: ast::Program,
    diags: &DiagSink,
    decl: Span,
    elab: &Elaborated,
) -> Option<ast::FunDecl> {
    if !diags.diagnostics().is_empty() {
        return None;
    }
    let mut decls = program.decls;
    if decls.len() != 1 {
        return None;
    }
    let Some(ast::Decl::Fun(mut f)) = decls.pop() else {
        return None;
    };
    if f.span != decl || f.body.is_none() {
        return None;
    }
    // The mini-parse interned into its own throwaway interner, so the
    // declaration's symbols live in the wrong symbol space. Re-intern
    // every identifier against the cached unit's frozen interner. An
    // edit that introduces a brand-new identifier cannot be interned
    // into a frozen table (symbols are numbered in string order); it
    // would check as `Symbol::UNKNOWN` and could alias another new name,
    // so fall back to the full path.
    let mut unknown = false;
    vault_syntax::remap_idents_fun(&mut f, &mut |id| {
        id.sym = elab.syms.sym(&id.name);
        unknown |= id.sym == vault_syntax::Symbol::UNKNOWN;
    });
    (!unknown).then_some(f)
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

/// Check one function body against an elaborated environment. Pure
/// given its inputs; safe to run on any thread. Returns the untimed
/// verdict and the microseconds the check took.
fn check_body(elab: &Elaborated, f: &ast::FunDecl, limits: &Limits) -> (FnVerdict, u64) {
    let mut sink = DiagSink::new();
    let stats = check_function_with_limits(
        &elab.world,
        &elab.syms,
        &elab.aliases,
        &elab.qualifiers,
        &elab.base_keys,
        f,
        &mut sink,
        limits,
    );
    (
        FnVerdict::at(f.span.start, sink.into_vec(), untimed(stats)),
        stats.check_micros,
    )
}

/// The front half of a full check: parse + elaborate, plus everything
/// derived from them that body checking needs.
struct FrontEnd {
    /// What the environment cache keeps once the check ends.
    env: CachedEnv,
    /// The unit's function bodies, in check order, moved out of the
    /// parse. Freed when the unit's check ends.
    bodies: Vec<ast::FunDecl>,
    pre_views: Vec<DiagView>,
    /// How many functions the body loop may reach: only the first after
    /// a front-end [`Code::LimitExceeded`], as in the monolithic checker.
    reach: usize,
    /// Stats seeded with the front-end phase timings.
    stats: CheckStats,
}

/// A full check's function bodies, with one outcome slot each. The
/// body loop fills the slot it needs next; prefetch helpers on the pool
/// fill slots ahead of it. Every slot is claimed from `next`, in order,
/// so each function is checked at most once.
struct Bodies {
    fns: Arc<FnCache>,
    elaborated: Arc<Elaborated>,
    /// The unit's bodies, moved from its [`FrontEnd`].
    bodies: Vec<ast::FunDecl>,
    fps: Vec<u64>,
    limits: Limits,
    /// The lowest index nobody has claimed yet.
    next: AtomicUsize,
    /// One slot per function the loop may reach.
    ready: Vec<OnceLock<FnOutcome>>,
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

    /// Probe the per-function cache, checking on a miss.
    fn outcome(&self, i: usize) -> FnOutcome {
        let fp = self.fps[i];
        match self.fns.get(fp) {
            Some(v) => FnOutcome::Hit(v),
            None => self
                .fns
                .check(fp, &self.elaborated, &self.bodies[i], &self.limits),
        }
    }

    /// What a helper job runs: claim until nothing is left.
    fn prefetch(&self) {
        while self.claim() {}
    }

    /// Function `i`'s outcome. Claims in order while slot `i` is empty;
    /// once every function is claimed, waits for whoever holds `i`, or
    /// fills it here if its claimant has not started on it.
    fn probe(&self, i: usize) -> FnOutcome {
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
    /// `(fingerprint, declaration-relative diagnostics, stats)` rows
    /// ready to journal.
    pub fn take_dirty(&self) -> Vec<(u64, Vec<Diagnostic>, CheckStats)> {
        std::mem::take(&mut *lock(&self.fns.dirty))
            .into_iter()
            .map(|(fp, v)| (fp, v.diags.clone(), v.stats))
            .collect()
    }

    /// Install a function verdict replayed from the persistent cache;
    /// `diags` carry spans relative to the declaration start. The
    /// fingerprint recipe is stable across restarts (environment hash
    /// plus declaration text), so a later check of the same function
    /// under the same declarations hits this entry wherever the function
    /// has moved. Any phase timings in `stats` are dropped.
    pub fn seed_fn(&self, fp: u64, diags: Vec<Diagnostic>, stats: CheckStats) {
        lock(&self.fns.lru).put(
            fp,
            Arc::new(FnVerdict {
                diags,
                stats: untimed(stats),
            }),
        );
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
    /// [`Attribution`], and the environment hash absorbs the prelude, so
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

    /// Live entry counts `(environments, function verdicts)`.
    pub fn entries(&self) -> (usize, usize) {
        (lock(&self.envs).len(), lock(&self.fns.lru).len())
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
        if let Some(summary) = self.try_fast_path(name, &attr, limits, metrics) {
            return summary;
        }
        self.full_check(name, &attr, limits, metrics, pool)
    }

    /// Edit-region path: reuse the cached elaboration; a function whose
    /// fingerprint misses is checked from a mini-parse of its own
    /// declaration. `None` means the preconditions failed and the full
    /// path must run; nothing is counted then, so the full path's counts
    /// are the unit's only ones.
    fn try_fast_path(
        &self,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
        metrics: &Metrics,
    ) -> Option<CheckSummary> {
        let source = attr.full_text();
        let cached = lock(&self.envs).get(fnv1a_64(name.as_bytes()))?;
        if !cached.clean || cached.base_hash != base_hash(name, limits, attr.prelude_len()) {
            return None;
        }
        let (env, edited) = cached.edited_to(source)?;
        let parse = |decl| mini_parse(source, decl, &env.elaborated, limits);
        // The edited declaration must parse pristine even when its
        // verdict is cached: a verdict cached from a recovered parse of
        // the same text says nothing about the syntax error. `None`
        // from a mini-parse (syntax error, span drift, or a brand-new
        // identifier) means only the full pipeline can say what the
        // unit means now.
        let mut edited_fn = match edited {
            Some(k) => Some(parse(env.slots[k].0)?),
            None => None,
        };
        let outcome = |i: usize| {
            if let Some(v) = self.fns.get(env.fps[i]) {
                return Some(FnOutcome::Hit(v));
            }
            let decl = env.slots[i].0;
            let f = match edited_fn.take_if(|_| edited == Some(i)) {
                Some(f) => f,
                None => parse(decl)?,
            };
            match self.fns.check(env.fps[i], &env.elaborated, &f, limits) {
                // A verdict reaching outside its declaration may point
                // at text this entry has shifted.
                FnOutcome::Fresh(v, _) if !v.self_contained(decl.len()) => None,
                outcome => Some(outcome),
            }
        };
        let stats = CheckStats::default();
        let summary = assemble(name, attr, &env.slots, Vec::new(), stats, metrics, outcome)?;
        lock(&self.envs).put(fnv1a_64(name.as_bytes()), Arc::new(env));
        Some(summary)
    }

    /// Parse + elaborate the unit and fingerprint every function body:
    /// everything a full check does before touching a body. The parsed
    /// program is consumed: its bodies move into the front end, the rest
    /// is dropped once elaborated.
    fn front(&self, name: &str, attr: &Attribution, limits: &Limits) -> FrontEnd {
        let source = attr.full_text();
        let mut pre = DiagSink::new();
        let (program, front) =
            parse_program_with_depth_timed(source, &mut pre, limits.parser_depth);
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
        let eh = env_hash(base, source, &slots);
        let fps = slots
            .iter()
            .map(|&(decl, _)| fn_fingerprint(eh, source, decl))
            .collect();
        let stats = CheckStats {
            lex_micros: front.lex_micros,
            parse_micros: front.parse_micros,
            elaborate_micros: elaborated.elaborate_micros,
            lower_micros: elaborated.lower_micros,
            ..CheckStats::default()
        };
        FrontEnd {
            env: CachedEnv {
                base_hash: base,
                env_hash: eh,
                source: Arc::from(source),
                slots,
                fps,
                elaborated: Arc::new(elaborated),
                clean: pre_views.is_empty(),
            },
            bodies,
            pre_views,
            reach,
            stats,
        }
    }

    /// Parse + elaborate fresh, run the body loop over the per-function
    /// cache (prefetching on `pool` when given one), and refresh the
    /// environment cache.
    fn full_check(
        &self,
        name: &str,
        attr: &Attribution,
        limits: &Limits,
        metrics: &Metrics,
        pool: Option<&ThreadPool>,
    ) -> CheckSummary {
        let FrontEnd {
            env,
            bodies,
            pre_views,
            reach,
            stats,
        } = self.front(name, attr, limits);
        let bodies = Arc::new(Bodies {
            fns: Arc::clone(&self.fns),
            elaborated: Arc::clone(&env.elaborated),
            bodies,
            fps: env.fps.clone(),
            limits: *limits,
            next: AtomicUsize::new(0),
            ready: (0..reach).map(|_| OnceLock::new()).collect(),
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
            Some(bodies.probe(i))
        })
        .expect("the full path never abandons");
        lock(&self.envs).put(fnv1a_64(name.as_bytes()), Arc::new(env));
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vault_core::check_summary_with_limits;

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
        eng.check_unit("u.vlt", UNIT, &limits, &m);
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
    }

    #[test]
    fn signature_edit_falls_back_to_the_full_path_and_still_matches() {
        let (eng, m) = engine();
        let limits = Limits::default();
        eng.check_unit("u.vlt", UNIT, &limits, &m);
        // Same length, but the edit is outside every body (a struct
        // field rename), so elaboration must rerun — and every function
        // fingerprint changes with the environment.
        let edited = UNIT.replace("struct point { int x;", "struct paint { int x;");
        assert_eq!(edited.len(), UNIT.len());
        let got = eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
    }

    #[test]
    fn adding_a_declaration_invalidates_every_function() {
        let (eng, m) = engine();
        let limits = Limits::default();
        eng.check_unit("u.vlt", UNIT, &limits, &m);
        // A new top-level function is a new *signature*: it changes the
        // declaration environment every body is checked against, so no
        // cached function verdict may survive — a new declaration can
        // change name resolution anywhere in the unit.
        let edited = format!("{UNIT}void gamma() {{ }}\n");
        let before = m.snapshot();
        let got = eng.check_unit("u.vlt", &edited, &limits, &m);
        assert_eq!(got, reference("u.vlt", &edited, &limits));
        let snap = m.snapshot();
        assert_eq!(snap.fn_cache_hits - before.fn_cache_hits, 0);
        assert_eq!(snap.fn_cache_misses - before.fn_cache_misses, 3);
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
        eng.check_unit("u.vlt", UNIT, &limits, &m);
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
        eng.check_unit("u.vlt", UNIT, &limits, &m);
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
        eng.check_unit_with_prelude("app", prelude, unit, &limits, &m);
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
    }

    #[test]
    fn same_full_text_different_split_does_not_share_attributed_views() {
        // `prelude + unit` concatenations that are byte-identical but
        // split at different offsets must not reuse each other's cached
        // views: attribution (line numbers in `rendered`) depends on the
        // split, which the environment hash absorbs.
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
        let (eng, m) = engine();
        let limits = Limits::default();
        eng.check_unit("u.vlt", UNIT, &limits, &m);
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
        eng.seed_fn(42, Vec::new(), timed);

        // Every verdict the cache holds: the four remembered by the two
        // checks (sequential and fanned out), plus the seeded one.
        let dirty = eng.take_dirty();
        assert_eq!(dirty.len(), 4);
        for (_, _, stats) in &dirty {
            assert_eq!(timings(stats), [0; 5]);
        }
        let seeded = eng.fns.get(42).expect("seeded");
        assert_eq!(timings(&seeded.stats), [0; 5]);

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
        // Full path, sequential and fanned out.
        eng.check_unit("u.vlt", UNIT, &limits, &m);
        eng.check_unit_with_prelude_parallel("v.vlt", "", UNIT, &limits, &m, &pool);
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
        eng.check_unit_with_prelude("app", prelude, unit, &limits, &m);
        eng.check_unit_with_prelude_parallel("app2", prelude, unit, &limits, &m, &pool);
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

    /// Parse `range` of `text` both ways — the range parse and the full
    /// parse of the blanked text — and assert they agree: the same
    /// declarations (symbols included), the same diagnostics, and the
    /// same [`pristine`] outcome. Returns whether the range was pristine.
    fn assert_range_parse_matches_oracle(text: &str, range: Span, elab: &Elaborated) -> bool {
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
        let ranged = pristine(ranged, &ranged_diags, range, elab);
        let oracle = pristine(oracle, &oracle_diags, range, elab);
        assert_eq!(
            format!("{ranged:?}"),
            format!("{oracle:?}"),
            "{}",
            context()
        );
        assert_eq!(
            mini_parse(text, range, elab, &Limits::default()).is_some(),
            ranged.is_some()
        );
        ranged.is_some()
    }

    /// Every declaration of `text`, mini-parsed at its own range and at
    /// ranges that cut it (a missing closing brace, a split first token,
    /// the bare body, an end inside its first string literal or
    /// comment), against the blanked-text oracle. Returns `(pristine
    /// declarations, declarations)`.
    fn oracle_check_unit(text: &str) -> (usize, usize) {
        let mut diags = DiagSink::new();
        let program = vault_syntax::parse_program(text, &mut diags);
        let elab = vault_core::elaborate(&program, &mut diags);
        let mut clean = 0;
        for f in &elab.bodies {
            let body = f.body.as_ref().expect("collected with body").span;
            let (s, e) = (f.span.start, f.span.end);
            clean += usize::from(assert_range_parse_matches_oracle(text, f.span, &elab));
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
                    assert!(!assert_range_parse_matches_oracle(text, cut, &elab));
                }
            }
        }
        (clean, elab.bodies.len())
    }

    #[test]
    fn range_mini_parse_matches_the_blanked_text_oracle() {
        use vault_corpus::synth::{self, ProjectConfig, Shape, SynthConfig};
        let mut units: Vec<String> = vault_corpus::all_programs()
            .into_iter()
            .map(|p| p.source)
            .collect();
        for shape in [
            Shape::Mixed,
            Shape::Straight,
            Shape::Branchy,
            Shape::Loopy,
            Shape::VariantHeavy,
            Shape::Sockets,
        ] {
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

        // Strings and comments inside bodies, which the cut ranges end in.
        units.push(
            "type FILE;\n\
             tracked(F) FILE fopen(string p) [new F];\n\
             void fclose(tracked(F) FILE f) [-F];\n\
             void a() {\n  // open it\n  tracked(F) FILE f = fopen(\"a \\\"b\\\" é\");\n  fclose(f);\n}\n\
             void b() {\n  /* then */ tracked(F) FILE f = fopen(\"x\");\n  fclose(f); }\n"
                .to_string(),
        );

        let (mut clean, mut total) = (0, 0);
        for text in &units {
            let (c, t) = oracle_check_unit(text);
            clean += c;
            total += t;
        }
        assert!(total > 400, "only {total} declarations");
        // Nearly every declaration of a parseable unit mini-parses
        // pristine on its own; the oracle must see both outcomes.
        assert!(clean * 10 > total * 9, "{clean} of {total} pristine");
    }

    #[test]
    fn length_changing_body_edit_takes_the_fast_path() {
        let (eng, m) = engine();
        let limits = Limits::default();
        eng.check_unit("u.vlt", UNIT, &limits, &m);
        let elab = cached_elaboration(&eng, "u.vlt");
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
        eng.check_unit("u.vlt", UNIT, &limits, &m);
        let elab = cached_elaboration(&eng, "u.vlt");
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
        eng.check_unit("u.vlt", UNIT, &limits, &m);
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
    fn full_path_reuses_functions_whose_text_is_unchanged() {
        let (eng, m) = engine();
        let limits = Limits::default();
        eng.check_unit("u.vlt", UNIT, &limits, &m);
        // A comment ahead of every declaration moves all of them and
        // changes the signature text, so nothing may be reused.
        let moved = format!("// header\n{UNIT}");
        let before = m.snapshot();
        let got = eng.check_unit("u.vlt", &moved, &limits, &m);
        assert_eq!(got, reference("u.vlt", &moved, &limits));
        assert_eq!(m.snapshot().fn_cache_hits, before.fn_cache_hits);
        // Touching `beta`'s opening brace takes the full path, which
        // still reuses `alpha` under the unchanged signature text.
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
        let v = FnVerdict::at(decl.start, vec![inside.clone()], CheckStats::default());
        assert!(v.self_contained(decl.len()));
        assert_eq!(v.diags[0].span, Span::new(20, 25));
        let before = Diagnostic::error(Code::KeyLeak, Span::new(120, 125), "leak")
            .with_label(Span::new(40, 45), "declared earlier");
        let after = Diagnostic::error(Code::KeyLeak, Span::new(130, 150), "leak");
        for d in [before, after] {
            let v = FnVerdict::at(decl.start, vec![d.clone()], CheckStats::default());
            assert!(!v.self_contained(decl.len()));
            // Re-basing at the same start restores the exact spans.
            let mut back = v.diags[0].clone();
            map_offsets(&mut back, |o| o.wrapping_add(decl.start));
            assert_eq!(back, d);
        }
        let eng = IncrementalEngine::new(4, 4);
        let outside = FnVerdict::at(
            decl.start,
            vec![Diagnostic::error(Code::KeyLeak, Span::new(0, 1), "x")],
            CheckStats::default(),
        );
        eng.fns.remember(7, decl, outside);
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
            let mut elab: Option<Arc<Elaborated>> = None;
            // Cold (full path), then a body edit in `three` (fast path).
            for text in [LOOPY, &edited] {
                let before = m.snapshot();
                let got = match pool {
                    Some(pool) => {
                        eng.check_unit_with_prelude_parallel("l.vlt", "", text, &limits, &m, pool)
                    }
                    None => eng.check_unit("l.vlt", text, &limits, &m),
                };
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
    fn a_panicked_outcome_re_raises_its_payload_before_anything_is_counted() {
        let m = Metrics::default();
        let attr = Attribution::plain("u.vlt", UNIT);
        let slots = [(Span::new(0, 1), Span::new(0, 1)); 2];
        let hit = Arc::new(FnVerdict {
            diags: Vec::new(),
            stats: CheckStats::default(),
        });
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let outcome = |i: usize| {
                Some(match i {
                    0 => FnOutcome::Hit(Arc::clone(&hit)),
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
