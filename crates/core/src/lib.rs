//! # vault-core
//!
//! The Vault protocol checker — the primary contribution of *Enforcing
//! High-Level Protocols in Low-Level Software* (DeLine & Fähndrich,
//! PLDI 2001) — plus the C back end that erases keys and guards.
//!
//! The checker statically enforces resource management protocols written
//! as type guards and effect clauses: it tracks a held-key set through
//! every function body, rejecting dangling accesses ([`Code::KeyNotHeld`]),
//! leaks ([`Code::KeyLeak`]), protocol-order violations
//! ([`Code::WrongKeyState`]), double acquisition ([`Code::DuplicateKey`]),
//! join-point inconsistencies ([`Code::JoinMismatch`]), and interrupt-level
//! misuse ([`Code::StateBound`]).
//!
//! ## Example
//!
//! ```
//! use vault_core::{check_source, Verdict};
//! use vault_syntax::Code;
//!
//! // Fig. 2 `dangling`: access after the region is deleted.
//! let result = check_source(
//!     "dangling.vlt",
//!     r#"
//!     interface REGION {
//!       type region;
//!       tracked(R) region create() [new R];
//!       void delete(tracked(R) region) [-R];
//!     }
//!     struct point { int x; int y; }
//!     void dangling() {
//!       tracked(R) region rgn = Region.create();
//!       R:point pt = new(rgn) point {x=1; y=2;};
//!       Region.delete(rgn);
//!       pt.x++;
//!     }
//!     "#,
//! );
//! assert_eq!(result.verdict(), Verdict::Rejected);
//! assert!(result.has_code(Code::KeyNotHeld));
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod check;
pub mod codegen;
pub mod elaborate;
pub mod flow;
pub mod interface;
pub mod lower;

use vault_syntax::diag::{Code, DiagSink, Diagnostic, Severity};
use vault_syntax::{ast, SourceMap};

pub use check::CheckStats;
pub use elaborate::{elaborate, elaborate_owned, Elaborated};

/// The closed capability universe for the capability-effect discipline
/// (`uses c` items, `V7xx` diagnostics). A closed set keeps corpus
/// expectations stable and makes `V702` (unknown capability) a typo
/// catcher rather than a namespace policy. Sorted.
pub const KNOWN_CAPS: &[&str] = &["alloc", "io", "net", "sys", "time"];

/// Did the program pass the protocol checker?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No errors: every protocol is respected.
    Accepted,
    /// At least one error diagnostic.
    Rejected,
    /// Checking gave up against a resource limit (parser depth, fixpoint
    /// fuel, or deadline); the program is neither accepted nor rejected.
    ResourceLimit,
    /// The checker itself failed (a contained panic); the verdict says
    /// nothing about the program.
    InternalError,
}

impl Verdict {
    /// The stable lowercase string form used on wire protocols.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Accepted => "accepted",
            Verdict::Rejected => "rejected",
            Verdict::ResourceLimit => "resource-limit",
            Verdict::InternalError => "internal-error",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Resource bounds for checking one compilation unit.
///
/// Hostile or pathological input must yield a diagnostic, never a hang
/// or a stack overflow: the parser bounds its recursion, the
/// loop-invariant fixpoint bounds its iterations, and the whole
/// pipeline polls an optional wall-clock deadline. Exceeding any bound
/// reports [`vault_syntax::Code::LimitExceeded`] and turns the verdict
/// into [`Verdict::ResourceLimit`].
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum grammar recursion depth in the parser.
    pub parser_depth: usize,
    /// Maximum loop-invariant fixpoint iterations ("fuel") per loop.
    pub fixpoint_iters: usize,
    /// Absolute wall-clock deadline for the whole unit, if any.
    pub deadline: Option<std::time::Instant>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            parser_depth: vault_syntax::DEFAULT_PARSER_DEPTH,
            fixpoint_iters: check::DEFAULT_FIXPOINT_ITERS,
            deadline: None,
        }
    }
}

impl Limits {
    /// Whether the deadline (if any) has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }
}

/// Everything produced by checking one compilation unit.
pub struct CheckResult {
    /// The source map for rendering diagnostics.
    pub source: SourceMap,
    /// The parsed program (possibly partial after parse errors).
    pub program: ast::Program,
    /// Elaboration output (declaration tables), for downstream passes.
    pub elaborated: Elaborated,
    /// All diagnostics, in order of discovery.
    pub diagnostics: Vec<Diagnostic>,
    /// Aggregate checker counters.
    pub stats: CheckStats,
}

impl CheckResult {
    /// Accepted or rejected?
    pub fn verdict(&self) -> Verdict {
        verdict_of(&self.diagnostics)
    }

    /// Whether some diagnostic carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// All distinct error codes, in first-occurrence order.
    pub fn error_codes(&self) -> Vec<Code> {
        let mut seen = Vec::new();
        for d in &self.diagnostics {
            if d.severity == Severity::Error && !seen.contains(&d.code) {
                seen.push(d.code);
            }
        }
        seen
    }

    /// Render every diagnostic against the source.
    pub fn render_diagnostics(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(&self.source))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Parse, elaborate, and check a Vault compilation unit.
pub fn check_source(name: &str, src: &str) -> CheckResult {
    check_source_with_limits(name, src, &Limits::default())
}

/// [`check_source`] under explicit resource bounds.
///
/// Exceeding any bound stops checking with a
/// [`vault_syntax::Code::LimitExceeded`] diagnostic; the verdict becomes
/// [`Verdict::ResourceLimit`]. The deadline is polled cooperatively —
/// between functions, every few statements, and on every fixpoint
/// iteration — so overruns are bounded by the cost of one statement.
pub fn check_source_with_limits(name: &str, src: &str, limits: &Limits) -> CheckResult {
    let source = SourceMap::new(name, src);
    let mut diags = DiagSink::new();
    let (program, front) =
        vault_syntax::parse_program_with_depth_timed(src, &mut diags, limits.parser_depth);
    let elaborated = elaborate(&program, &mut diags);
    let stats = check_bodies(&elaborated, front, &mut diags, limits);
    CheckResult {
        source,
        program,
        elaborated,
        diagnostics: diags.into_vec(),
        stats,
    }
}

/// The whole pipeline over `src` for callers that keep no AST: the
/// program's bodies move into elaboration and are freed with it.
/// Diagnostics and counters equal [`check_source_with_limits`]'s.
fn check_text(src: &str, limits: &Limits) -> (Vec<Diagnostic>, CheckStats) {
    let mut diags = DiagSink::new();
    let (program, front) =
        vault_syntax::parse_program_with_depth_timed(src, &mut diags, limits.parser_depth);
    let elaborated = elaborate_owned(program, &mut diags);
    let stats = check_bodies(&elaborated, front, &mut diags, limits);
    (diags.into_vec(), stats)
}

/// Check every body of `elaborated` in order, stopping at the first
/// [`Code::LimitExceeded`] (or a passed deadline). Returns the unit's
/// counters, seeded with the front-end phase timings.
fn check_bodies(
    elaborated: &Elaborated,
    front: vault_syntax::FrontEndTiming,
    diags: &mut DiagSink,
    limits: &Limits,
) -> CheckStats {
    let mut stats = CheckStats {
        lex_micros: front.lex_micros,
        parse_micros: front.parse_micros,
        elaborate_micros: elaborated.elaborate_micros,
        lower_micros: elaborated.lower_micros,
        ..CheckStats::default()
    };
    for f in &elaborated.bodies {
        if limits.deadline_exceeded() {
            diags.error(
                Code::LimitExceeded,
                f.name.span,
                "deadline exceeded; this function and the rest of the unit were not checked",
            );
            break;
        }
        stats.absorb(check::check_function_with_limits(
            &elaborated.world,
            &elaborated.syms,
            &elaborated.aliases,
            &elaborated.qualifiers,
            &elaborated.base_keys,
            f,
            diags,
            limits,
        ));
        if diags.has_code(Code::LimitExceeded) {
            break;
        }
    }
    stats
}

/// The verdict a set of diagnostics amounts to.
fn verdict_of(diagnostics: &[Diagnostic]) -> Verdict {
    if diagnostics.iter().any(|d| d.code == Code::LimitExceeded) {
        Verdict::ResourceLimit
    } else if diagnostics.iter().any(|d| d.severity == Severity::Error) {
        Verdict::Rejected
    } else {
        Verdict::Accepted
    }
}

/// A self-contained, thread-friendly summary of checking one unit.
///
/// Unlike [`CheckResult`], this holds no AST or source map — only plain
/// data (`Clone + Send + Sync + Eq`), so it can cross worker-thread
/// channels, be memoized by content hash, and be serialized onto wire
/// protocols. `vaultd` and `vaultc check --jobs` traffic exclusively in
/// these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckSummary {
    /// The unit name the sources were checked under (diagnostics embed it).
    pub name: String,
    /// Accepted or rejected.
    pub verdict: Verdict,
    /// Every diagnostic, resolved to plain data, in discovery order.
    pub diagnostics: Vec<vault_syntax::DiagView>,
    /// Aggregate checker counters.
    pub stats: CheckStats,
}

impl CheckSummary {
    /// Flatten a full [`CheckResult`].
    pub fn of(name: &str, r: &CheckResult) -> Self {
        CheckSummary {
            name: name.to_string(),
            verdict: r.verdict(),
            diagnostics: r
                .diagnostics
                .iter()
                .map(|d| vault_syntax::DiagView::new(d, &r.source))
                .collect(),
            stats: r.stats,
        }
    }

    /// Synthesize the summary for a unit whose check **panicked**: the
    /// panic was caught and contained, and this is the structured verdict
    /// the caller reports instead of dying. `payload` is the panic
    /// message (as much of it as was a string).
    pub fn internal_error(name: &str, payload: &str) -> Self {
        let message = format!("internal error while checking `{name}`: {payload}");
        CheckSummary {
            name: name.to_string(),
            verdict: Verdict::InternalError,
            diagnostics: vec![vault_syntax::DiagView {
                code: Code::InternalError.as_str().to_string(),
                severity: Severity::Error.as_str().to_string(),
                message: message.clone(),
                start: 0,
                end: 0,
                line: 1,
                col: 1,
                labels: Vec::new(),
                rendered: format!("error[{}]: {message}\n", Code::InternalError),
            }],
            stats: CheckStats::default(),
        }
    }

    /// All distinct error codes (stable string forms), first-occurrence order.
    pub fn error_codes(&self) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        for d in &self.diagnostics {
            if d.severity == "error" && !seen.iter().any(|c| c == &d.code) {
                seen.push(d.code.clone());
            }
        }
        seen
    }

    /// Concatenation of every rendered diagnostic (the `check_source`
    /// render format), for clients that want human output.
    pub fn render_diagnostics(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.rendered.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Parse, elaborate, and check one unit, returning only plain data.
///
/// This is the thread-safe entry point the checking service fans out
/// across its worker pool: it takes `&str`s, touches no shared state,
/// and returns a [`CheckSummary`] that is `Send + Sync`.
pub fn check_summary(name: &str, src: &str) -> CheckSummary {
    check_summary_with_limits(name, src, &Limits::default())
}

/// [`check_summary`] under explicit resource bounds.
pub fn check_summary_with_limits(name: &str, src: &str, limits: &Limits) -> CheckSummary {
    let (diagnostics, stats) = check_text(src, limits);
    let source = SourceMap::new(name, src);
    CheckSummary {
        name: name.to_string(),
        verdict: verdict_of(&diagnostics),
        diagnostics: diagnostics
            .iter()
            .map(|d| vault_syntax::DiagView::new(d, &source))
            .collect(),
        stats,
    }
}

/// Check a unit *against a prelude* of its dependencies' export surfaces.
///
/// Project mode elaborates each unit with the signatures its imports
/// export in scope. The prelude (dependency export surfaces, in
/// dependency topological order) is prepended textually, the combined
/// text is checked as one unit, and every diagnostic that falls inside
/// the unit proper is re-attributed to the unit's own coordinates via
/// [`vault_syntax::Attribution`], so callers see the same spans and
/// line numbers they would for the unit file on its own. Diagnostics
/// that point into the prelude (e.g. a redeclaration clash with an
/// imported interface) stay in combined coordinates.
///
/// With an empty prelude this is byte-identical to
/// [`check_summary_with_limits`].
pub fn check_summary_with_prelude(
    name: &str,
    prelude: &str,
    src: &str,
    limits: &Limits,
) -> CheckSummary {
    let attr = vault_syntax::Attribution::with_prelude(name, prelude, src);
    let (diagnostics, stats) = check_text(attr.full_text(), limits);
    CheckSummary {
        name: name.to_string(),
        verdict: verdict_of(&diagnostics),
        diagnostics: diagnostics.iter().map(|d| attr.view(d)).collect(),
        stats,
    }
}
