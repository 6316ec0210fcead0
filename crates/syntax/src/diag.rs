//! Structured diagnostics.
//!
//! Every error the front end or protocol checker reports is a [`Diagnostic`]
//! with a stable [`Code`], a primary span, and optional notes. Codes are what
//! the test suite and the experiment harness assert on: each protocol
//! violation class from the paper maps to one code.

use crate::span::{SourceMap, Span};
use std::fmt;

/// Stable machine-readable diagnostic codes.
///
/// The `V1xx` range is lexical/syntactic, `V2xx` is declaration/type
/// elaboration, and `V3xx` is the protocol (key) checker — the heart of the
/// paper. `V4xx` is code generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    // --- lexical / syntactic -------------------------------------------
    /// Unexpected or invalid character in the input.
    LexInvalidChar,
    /// Unterminated string literal or block comment.
    LexUnterminated,
    /// Integer literal out of range.
    LexIntOverflow,
    /// The parser found a token it did not expect.
    ParseUnexpected,
    /// A construct is syntactically malformed (message has details).
    ParseMalformed,

    // --- declarations / elaboration ------------------------------------
    /// Reference to an undeclared type, function, variant, or stateset.
    UnknownName,
    /// The same name was declared twice in one scope.
    DuplicateDecl,
    /// A type was applied to the wrong number or kinds of arguments.
    BadTypeArgs,
    /// An expression's type does not match what the context requires.
    TypeMismatch,
    /// A `stateset` declaration does not describe a partial order.
    BadStateset,
    /// A state token is not a member of the relevant stateset.
    UnknownState,
    /// Malformed effect clause (e.g. conflicting items for one key).
    BadEffect,

    // --- protocol checking (the paper's contribution) -------------------
    /// A guarded or tracked value was accessed while its key is not held.
    /// Paper: the `dangling` function of Fig. 2.
    KeyNotHeld,
    /// A key is held but in the wrong local state for this operation.
    /// Paper: calling `listen` on a socket whose key is still `@raw`.
    WrongKeyState,
    /// A key would be introduced that is already in the held-key set
    /// (keys are linear). Paper: acquiring a spin lock twice (§4.2).
    DuplicateKey,
    /// The held-key set at a function exit has keys the effect clause does
    /// not promise — a resource leak. Paper: the `leaky` function of Fig. 2.
    KeyLeak,
    /// The effect clause promises a key at exit that is not held.
    MissingKeyAtExit,
    /// The held-key sets of two control-flow paths disagree at a join
    /// point. Paper: Fig. 5.
    JoinMismatch,
    /// A loop's key-set invariant could not be inferred.
    LoopInvariant,
    /// A bounded state variable's constraint is violated
    /// (e.g. `IRQL @ (level <= DISPATCH_LEVEL)` at DIRQL). Paper §4.4.
    StateBound,
    /// A variable was used before being assigned a value.
    Uninitialized,
    /// A function value does not conform to the required function type
    /// (used for completion routines, §4.3).
    FnTypeMismatch,
    /// `free` applied to a non-tracked value.
    FreeUntracked,
    /// A global key (like `IRQL`) cannot be consumed or created.
    GlobalKeyMisuse,
    /// A tracked value was copied in a way that would duplicate its key.
    TrackedCopy,
    /// A `switch` over a keyed variant does not cover every constructor
    /// (uncovered paths would lose the captured keys).
    NonExhaustiveSwitch,

    // --- code generation -------------------------------------------------
    /// The C emitter cannot translate a construct.
    CodegenUnsupported,

    // --- capability-effect discipline -------------------------------------
    /// A function with a declared capability set performs an operation
    /// (intrinsic or call) requiring a capability it does not declare.
    CapMissing,
    /// A `uses` clause names a capability outside the known universe.
    CapUnknown,
    /// The same capability is declared twice on one function.
    CapDuplicate,
    /// A declared capability is never exercised by the body (warning).
    CapUnused,

    // --- project / build graph --------------------------------------------
    /// A unit participates in (or depends on) an `import` cycle, so no
    /// signature environment can be built for it.
    ImportCycle,
    /// An `import "path";` names no unit in the project manifest.
    UnresolvedImport,

    // --- resource limits / infrastructure --------------------------------
    /// Checking gave up because a configured resource limit (parser
    /// recursion depth, fixpoint fuel, or deadline) was exceeded.
    LimitExceeded,
    /// The checker itself failed (a caught panic); the verdict says
    /// nothing about the program.
    InternalError,
}

impl Code {
    /// Every code, in declaration order. `as_str`/`from_str_code`/
    /// `explain` are exhaustive matches, so adding a variant without
    /// extending them is a compile error; adding one without extending
    /// **this list** is caught by the round-trip test, which scans the
    /// whole `V000`–`V999` string space against it.
    pub const ALL: &'static [Code] = &[
        Code::LexInvalidChar,
        Code::LexUnterminated,
        Code::LexIntOverflow,
        Code::ParseUnexpected,
        Code::ParseMalformed,
        Code::UnknownName,
        Code::DuplicateDecl,
        Code::BadTypeArgs,
        Code::TypeMismatch,
        Code::BadStateset,
        Code::UnknownState,
        Code::BadEffect,
        Code::KeyNotHeld,
        Code::WrongKeyState,
        Code::DuplicateKey,
        Code::KeyLeak,
        Code::MissingKeyAtExit,
        Code::JoinMismatch,
        Code::LoopInvariant,
        Code::StateBound,
        Code::Uninitialized,
        Code::FnTypeMismatch,
        Code::FreeUntracked,
        Code::GlobalKeyMisuse,
        Code::TrackedCopy,
        Code::NonExhaustiveSwitch,
        Code::CodegenUnsupported,
        Code::CapMissing,
        Code::CapUnknown,
        Code::CapDuplicate,
        Code::CapUnused,
        Code::LimitExceeded,
        Code::InternalError,
        Code::ImportCycle,
        Code::UnresolvedImport,
    ];

    /// The stable string form, e.g. `V301`.
    pub fn as_str(self) -> &'static str {
        use Code::*;
        match self {
            LexInvalidChar => "V101",
            LexUnterminated => "V102",
            LexIntOverflow => "V103",
            ParseUnexpected => "V110",
            ParseMalformed => "V111",
            UnknownName => "V201",
            DuplicateDecl => "V202",
            BadTypeArgs => "V203",
            TypeMismatch => "V204",
            BadStateset => "V205",
            UnknownState => "V206",
            BadEffect => "V207",
            KeyNotHeld => "V301",
            WrongKeyState => "V302",
            DuplicateKey => "V303",
            KeyLeak => "V304",
            MissingKeyAtExit => "V305",
            JoinMismatch => "V306",
            LoopInvariant => "V307",
            StateBound => "V308",
            Uninitialized => "V309",
            FnTypeMismatch => "V310",
            FreeUntracked => "V311",
            GlobalKeyMisuse => "V312",
            TrackedCopy => "V313",
            NonExhaustiveSwitch => "V314",
            CodegenUnsupported => "V401",
            CapMissing => "V701",
            CapUnknown => "V702",
            CapDuplicate => "V703",
            CapUnused => "V704",
            LimitExceeded => "V501",
            InternalError => "V502",
            ImportCycle => "V601",
            UnresolvedImport => "V602",
        }
    }
}

impl Code {
    /// Parse a stable string form (`V301`) back to a code.
    pub fn from_str_code(s: &str) -> Option<Code> {
        use Code::*;
        Some(match s {
            "V101" => LexInvalidChar,
            "V102" => LexUnterminated,
            "V103" => LexIntOverflow,
            "V110" => ParseUnexpected,
            "V111" => ParseMalformed,
            "V201" => UnknownName,
            "V202" => DuplicateDecl,
            "V203" => BadTypeArgs,
            "V204" => TypeMismatch,
            "V205" => BadStateset,
            "V206" => UnknownState,
            "V207" => BadEffect,
            "V301" => KeyNotHeld,
            "V302" => WrongKeyState,
            "V303" => DuplicateKey,
            "V304" => KeyLeak,
            "V305" => MissingKeyAtExit,
            "V306" => JoinMismatch,
            "V307" => LoopInvariant,
            "V308" => StateBound,
            "V309" => Uninitialized,
            "V310" => FnTypeMismatch,
            "V311" => FreeUntracked,
            "V312" => GlobalKeyMisuse,
            "V313" => TrackedCopy,
            "V314" => NonExhaustiveSwitch,
            "V401" => CodegenUnsupported,
            "V701" => CapMissing,
            "V702" => CapUnknown,
            "V703" => CapDuplicate,
            "V704" => CapUnused,
            "V501" => LimitExceeded,
            "V502" => InternalError,
            "V601" => ImportCycle,
            "V602" => UnresolvedImport,
            _ => return None,
        })
    }

    /// A paragraph explaining the diagnostic, in terms of the paper's key
    /// model (for `vaultc explain`).
    pub fn explain(self) -> &'static str {
        use Code::*;
        match self {
            LexInvalidChar => "a character that is not part of the Vault lexical grammar",
            LexUnterminated => "a string literal or block comment is never closed",
            LexIntOverflow => "an integer literal does not fit in 64 bits",
            ParseUnexpected => "the parser met a token that no rule allows here",
            ParseMalformed => "a construct is syntactically malformed",
            UnknownName => {
                "reference to a type, function, constructor, field, or \
                            variable that is not declared"
            }
            DuplicateDecl => "the same name is declared twice in one scope",
            BadTypeArgs => {
                "a parameterized type or constructor is instantiated with the \
                            wrong number or kinds of arguments, or a key parameter \
                            cannot be inferred"
            }
            TypeMismatch => {
                "an expression's type does not match what its context \
                             requires"
            }
            BadStateset => {
                "a stateset declaration does not describe a partial order \
                            (cycles, or states reused across statesets)"
            }
            UnknownState => "a state token that belongs to no declared stateset",
            BadEffect => {
                "a malformed effect clause: a key no parameter binds, a key \
                          mentioned twice, or an undetermined state variable"
            }
            KeyNotHeld => {
                "a guarded or tracked value was accessed while its key is not \
                           in the held-key set — a dangling reference (paper Fig. 2 \
                           `dangling`); keys leave the set when resources are freed, \
                           consumed by an effect, or packed into a value"
            }
            WrongKeyState => {
                "the key is held but in the wrong local state for this \
                              operation — a protocol-order violation (e.g. `listen` on \
                              a socket that is still `raw`, paper Fig. 3)"
            }
            DuplicateKey => {
                "an operation would add a key that is already in the \
                             held-key set; keys are linear, so this is e.g. acquiring a \
                             spin lock twice (paper §4.2)"
            }
            KeyLeak => {
                "a key is still held at function exit but the effect clause does \
                        not return it — a leaked resource (paper Fig. 2 `leaky`, or a \
                        missing lock release)"
            }
            MissingKeyAtExit => {
                "the effect clause promises a key at exit that is not \
                                 held there"
            }
            JoinMismatch => {
                "two control-flow paths reach this point with different \
                             held-key sets; make the correlation explicit with a keyed \
                             variant (paper Fig. 5)"
            }
            LoopInvariant => {
                "the held-key set changes from one loop iteration to the \
                              next, so no loop invariant exists"
            }
            StateBound => {
                "a bounded state constraint is violated, e.g. calling a \
                           function that requires IRQL <= DISPATCH_LEVEL at DIRQL, or \
                           touching paged memory at DISPATCH_LEVEL (paper §4.4)"
            }
            Uninitialized => "a variable may be used before it is assigned",
            FnTypeMismatch => {
                "a function value does not conform to the required \
                               function type (completion routines, paper §4.3)"
            }
            FreeUntracked => "`free` applied to a value that is not tracked by a key",
            GlobalKeyMisuse => {
                "a global key such as IRQL cannot be consumed, created, \
                                or captured into values — only its state changes"
            }
            TrackedCopy => "copying this value would duplicate its key",
            NonExhaustiveSwitch => {
                "a switch over a keyed variant must cover every \
                                    constructor; uncovered paths would lose the \
                                    captured keys"
            }
            CodegenUnsupported => "the C back end cannot translate this construct",
            CapMissing => {
                "a function that declares a capability set (`uses` items in \
                             its effect clause) performs an operation requiring a \
                             capability it does not declare — an intrinsic (`new`/`free` \
                             require `alloc`) or a call to a function whose own declared \
                             set it does not cover; either declare the capability or \
                             drop the operation. Functions with no `uses` items opt out \
                             of the discipline entirely"
            }
            CapUnknown => {
                "a `uses` clause names a capability outside the known \
                            universe (alloc, io, net, sys, time); capability names are \
                            a closed set so corpus expectations stay stable"
            }
            CapDuplicate => "the same capability is declared twice on one function",
            CapUnused => {
                "a declared capability is never exercised by the function \
                           body, directly or through any call — dead authority that \
                           widens the function's audit surface for nothing; this is a \
                           warning, not an error"
            }
            LimitExceeded => {
                "checking stopped early because a configured resource limit \
                               was exceeded (parser recursion depth, loop-invariant \
                               fuel, or a request deadline); the program was neither \
                               accepted nor rejected — raise the limit or simplify \
                               the input"
            }
            InternalError => {
                "the checker itself failed on this input (an internal \
                                panic was caught and contained); the verdict says \
                                nothing about the program — please report the payload"
            }
            ImportCycle => {
                "this unit imports itself, directly or through a chain of \
                             imports (or depends on units that do); a project's \
                             import graph must be acyclic so each unit can be \
                             checked against its dependencies' exported signatures"
            }
            UnresolvedImport => {
                "an `import \"path\";` declaration names no unit in the \
                                  project manifest; check the spelling against the \
                                  manifest's unit names"
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Severity of a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note attached to the analysis.
    Note,
    /// Suspicious but not protocol-violating.
    Warning,
    /// A definite violation; checking fails.
    Error,
}

impl Severity {
    /// The stable lowercase string form used on wire protocols.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parse the stable string form back to a severity.
    pub fn from_str_severity(s: &str) -> Option<Severity> {
        Some(match s {
            "note" => Severity::Note,
            "warning" => Severity::Warning,
            "error" => Severity::Error,
            _ => return None,
        })
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A secondary label pointing at related source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Label {
    /// Where the related code is.
    pub span: Span,
    /// What it has to do with the primary message.
    pub message: String,
}

/// One reported problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code.
    pub code: Code,
    /// Error/warning/note.
    pub severity: Severity,
    /// Primary location.
    pub span: Span,
    /// Human-readable message (lowercase, no trailing period).
    pub message: String,
    /// Secondary locations.
    pub labels: Vec<Label>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            message: message.into(),
            labels: Vec::new(),
        }
    }

    /// A new warning diagnostic.
    pub fn warning(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, span, message)
        }
    }

    /// Attach a secondary label.
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Self {
        self.labels.push(Label {
            span,
            message: message.into(),
        });
        self
    }

    /// Render against a source map, in a rustc-like single-diagnostic format.
    pub fn render(&self, sm: &SourceMap) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let lc = sm.line_col(self.span.start);
        let _ = writeln!(out, "{}[{}]: {}", self.severity, self.code, self.message);
        let _ = writeln!(out, "  --> {}:{}", sm.name(), lc);
        let line = sm.line_text(self.span.start);
        let _ = writeln!(out, "   | {line}");
        let caret_start = (lc.col as usize).saturating_sub(1);
        let caret_len = (self.span.len() as usize)
            .max(1)
            .min(line.len().saturating_sub(caret_start).max(1));
        let _ = writeln!(
            out,
            "   | {}{}",
            " ".repeat(caret_start),
            "^".repeat(caret_len)
        );
        for label in &self.labels {
            let llc = sm.line_col(label.span.start);
            let _ = writeln!(
                out,
                "   = note: {} (at {}:{})",
                label.message,
                sm.name(),
                llc
            );
        }
        out
    }
}

/// A secondary label resolved to plain data (see [`DiagView`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelView {
    /// What the related source has to do with the primary message.
    pub message: String,
    /// 1-based line of the related source.
    pub line: u32,
    /// 1-based column of the related source.
    pub col: u32,
}

/// A flattened, serialization-ready view of one [`Diagnostic`].
///
/// Every field is plain data (strings and integers) resolved against the
/// unit's [`SourceMap`], so wire protocols and machine-readable output
/// formats can emit diagnostics without re-implementing span resolution
/// or rendering. This is what `vaultd` ships to clients as structured
/// JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagView {
    /// Stable code string, e.g. `"V301"`.
    pub code: String,
    /// Stable severity string: `"error"`, `"warning"`, or `"note"`.
    pub severity: String,
    /// The primary human-readable message.
    pub message: String,
    /// Primary span start, as a byte offset.
    pub start: u32,
    /// Primary span end (exclusive), as a byte offset.
    pub end: u32,
    /// 1-based line of the primary span.
    pub line: u32,
    /// 1-based column of the primary span.
    pub col: u32,
    /// Secondary labels, resolved to line/column.
    pub labels: Vec<LabelView>,
    /// The full rustc-style rendering against the source.
    pub rendered: String,
}

impl DiagView {
    /// Resolve `d` against `sm` into plain data.
    pub fn new(d: &Diagnostic, sm: &SourceMap) -> Self {
        let lc = sm.line_col(d.span.start);
        DiagView {
            code: d.code.as_str().to_string(),
            severity: d.severity.as_str().to_string(),
            message: d.message.clone(),
            start: d.span.start,
            end: d.span.end,
            line: lc.line,
            col: lc.col,
            labels: d
                .labels
                .iter()
                .map(|l| {
                    let llc = sm.line_col(l.span.start);
                    LabelView {
                        message: l.message.clone(),
                        line: llc.line,
                        col: llc.col,
                    }
                })
                .collect(),
            rendered: d.render(sm),
        }
    }
}

/// Re-attributes diagnostics for a unit that was checked as the
/// concatenation `prelude + unit source` (project mode: the prelude is
/// the exported signatures of the unit's dependencies).
///
/// Diagnostics that land wholly inside the unit's own text — the vast
/// majority — are shifted back into the unit's coordinates and rendered
/// against the unit's own source, so project-mode output matches a
/// standalone check of the unit. Diagnostics touching the prelude (e.g.
/// a duplicate declaration whose first site is imported) keep the
/// concatenated coordinates so their rendering can quote the imported
/// line. With an empty prelude this is exactly [`DiagView::new`].
#[derive(Debug)]
pub struct Attribution {
    /// Byte length of the prelude; 0 means plain (no re-attribution).
    prelude_len: u32,
    /// The unit's own source, for shifted rendering (`None` when plain).
    unit_map: Option<SourceMap>,
    /// The text the checker actually saw (prelude + unit source).
    full_map: SourceMap,
}

impl Attribution {
    /// Attribution for a standalone unit: views resolve unshifted.
    pub fn plain(name: &str, source: &str) -> Self {
        Attribution {
            prelude_len: 0,
            unit_map: None,
            full_map: SourceMap::new(name, source),
        }
    }

    /// Attribution for a unit checked against a signature prelude. The
    /// text to check is `prelude + unit_source` (see [`Self::full_text`]).
    pub fn with_prelude(name: &str, prelude: &str, unit_source: &str) -> Self {
        if prelude.is_empty() {
            return Attribution::plain(name, unit_source);
        }
        let full = format!("{prelude}{unit_source}");
        Attribution {
            prelude_len: prelude.len() as u32,
            unit_map: Some(SourceMap::new(name, unit_source)),
            full_map: SourceMap::new(name, &full),
        }
    }

    /// The concatenated text the checker must run on.
    pub fn full_text(&self) -> &str {
        self.full_map.text()
    }

    /// Byte length of the prelude (0 for a plain attribution).
    pub fn prelude_len(&self) -> u32 {
        self.prelude_len
    }

    /// Resolve one diagnostic, re-attributed into unit coordinates when
    /// its primary span and every label land inside the unit's text.
    pub fn view(&self, d: &Diagnostic) -> DiagView {
        if let Some(unit_map) = &self.unit_map {
            let p = self.prelude_len;
            let inside_unit = d.span.start >= p && d.labels.iter().all(|l| l.span.start >= p);
            if inside_unit {
                let mut shifted = d.clone();
                shifted.span = Span::new(d.span.start - p, d.span.end - p);
                for l in &mut shifted.labels {
                    l.span = Span::new(l.span.start - p, l.span.end - p);
                }
                return DiagView::new(&shifted, unit_map);
            }
        }
        DiagView::new(d, &self.full_map)
    }
}

/// Accumulates diagnostics during a pass.
#[derive(Clone, Debug, Default)]
pub struct DiagSink {
    diags: Vec<Diagnostic>,
}

impl DiagSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Convenience: record an error.
    pub fn error(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::error(code, span, message));
    }

    /// All diagnostics recorded so far, in order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Whether any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Whether some diagnostic carries `code`.
    pub fn has_code(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Drop every diagnostic after the first `len` (a parser rollback).
    pub fn truncate(&mut self, len: usize) {
        self.diags.truncate(len);
    }

    /// Consume the sink, yielding its diagnostics.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.diags
    }

    /// Absorb all diagnostics from another sink.
    pub fn extend(&mut self, other: DiagSink) {
        self.diags.extend(other.diags);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let all = Code::ALL;
        let mut strs: Vec<_> = all.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), all.len(), "duplicate diagnostic code strings");
        // Round trip through the string form, and every code explains
        // itself.
        for &c in all {
            assert_eq!(Code::from_str_code(c.as_str()), Some(c));
            assert!(c.explain().len() > 20, "{c} lacks an explanation");
        }
        assert_eq!(Code::from_str_code("V999"), None);
    }

    /// Exhaustive round trip over the whole `V000`–`V999` string space:
    /// every parseable string must print back to itself AND appear in
    /// [`Code::ALL`], and every member of `ALL` must parse. A code added
    /// to `from_str_code` but not `as_str` (or vice versa) is impossible
    /// (both match exhaustively on the enum); a code added to both but
    /// missed in `ALL` — the one-sided-table failure — is caught here.
    #[test]
    fn code_tables_round_trip_over_the_whole_string_space() {
        let mut parseable = 0usize;
        for n in 0..1000u32 {
            let s = format!("V{n:03}");
            if let Some(c) = Code::from_str_code(&s) {
                parseable += 1;
                assert_eq!(c.as_str(), s, "{s} does not print back to itself");
                assert!(
                    Code::ALL.contains(&c),
                    "{s} parses but is missing from Code::ALL"
                );
            }
        }
        assert_eq!(
            parseable,
            Code::ALL.len(),
            "Code::ALL and from_str_code cover different code sets"
        );
        for &c in Code::ALL {
            assert_eq!(Code::from_str_code(c.as_str()), Some(c));
        }
        // The new capability family is present and stable.
        for (s, c) in [
            ("V701", Code::CapMissing),
            ("V702", Code::CapUnknown),
            ("V703", Code::CapDuplicate),
            ("V704", Code::CapUnused),
        ] {
            assert_eq!(Code::from_str_code(s), Some(c));
        }
    }

    #[test]
    fn sink_tracks_errors() {
        let mut sink = DiagSink::new();
        assert!(!sink.has_errors());
        sink.push(Diagnostic::warning(Code::KeyLeak, Span::DUMMY, "w"));
        assert!(!sink.has_errors());
        sink.error(Code::KeyNotHeld, Span::DUMMY, "e");
        assert!(sink.has_errors());
        assert_eq!(sink.error_count(), 1);
        assert!(sink.has_code(Code::KeyNotHeld));
        assert!(sink.has_code(Code::KeyLeak));
        assert!(!sink.has_code(Code::JoinMismatch));
    }

    #[test]
    fn render_points_at_line() {
        let sm = SourceMap::new("f.vlt", "int x;\npt.x++;\n");
        let d = Diagnostic::error(Code::KeyNotHeld, Span::new(7, 11), "key R not held")
            .with_label(Span::new(0, 3), "key was consumed here");
        let text = d.render(&sm);
        assert!(text.contains("error[V301]: key R not held"), "{text}");
        assert!(text.contains("f.vlt:2:1"), "{text}");
        assert!(text.contains("pt.x++;"), "{text}");
        assert!(text.contains("^^^^"), "{text}");
        assert!(text.contains("key was consumed here"), "{text}");
    }
}
