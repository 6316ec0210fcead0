//! Seeded source edits of the kinds a person makes while working on a
//! unit: the driver of the incremental engine's edit-sequence tests and
//! of `checker_bench`'s `realistic_edits` scenario.
//!
//! Edits work on text laid out the way [`crate::synth`] writes it: a
//! function declaration starts on a line beginning `void ` and ending
//! `{`, and its body closes on a line holding only `}`. A unit in
//! another layout simply offers fewer edit sites; [`EditSession::apply`]
//! reports when a kind found none.

use rand::rngs::StdRng;
use rand::Rng;

/// The kinds of edit an [`EditSession`] makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Insert a statement line into one body, or delete one (changes
    /// the unit's length).
    BodyLine,
    /// Change one digit of an integer literal in one body (same
    /// length).
    Literal,
    /// Rename one function's local to a name the unit has never used.
    RenameLocalFresh,
    /// Rename one function's local to a name another function already
    /// declares.
    RenameLocalExisting,
    /// Add a function (a renamed copy of another), or remove one.
    AddRemoveFn,
    /// Rename a parameter in one function's signature and body.
    Signature,
    /// Touch a body's braces: whitespace before the opening brace, an
    /// extra block around the body, a deleted or a doubled closing
    /// brace.
    Brace,
    /// One edit spanning two bodies: a literal changed in each of two
    /// functions, or a cut from inside one body to inside a later one.
    TwoBodies,
    /// Break the syntax inside one body: a dangling operator, an
    /// unterminated comment or string, a stray character, a deleted
    /// semicolon.
    SyntaxBreaking,
    /// Change the effect clause of a function another one calls: drop
    /// its clause, add a `uses` item to it, or give it one.
    EffectClause,
    /// Delete a function another one calls.
    DeleteCalled,
    /// Insert a `struct` or a type alias ahead of every existing
    /// declaration (after the imports), so every type id and most
    /// symbol numbers shift.
    InsertType,
    /// Go back to one of the session's recent versions.
    Undo,
}

impl EditKind {
    /// Every kind, in declaration order.
    pub const ALL: [EditKind; 13] = [
        EditKind::BodyLine,
        EditKind::Literal,
        EditKind::RenameLocalFresh,
        EditKind::RenameLocalExisting,
        EditKind::AddRemoveFn,
        EditKind::Signature,
        EditKind::Brace,
        EditKind::TwoBodies,
        EditKind::SyntaxBreaking,
        EditKind::EffectClause,
        EditKind::DeleteCalled,
        EditKind::InsertType,
        EditKind::Undo,
    ];

    /// Whether the edit changes text strictly inside one function body
    /// and leaves the unit parseable: every other function's text and
    /// every signature stay as they were.
    pub fn body_confined(self) -> bool {
        matches!(
            self,
            EditKind::BodyLine
                | EditKind::Literal
                | EditKind::RenameLocalFresh
                | EditKind::RenameLocalExisting
        )
    }

    /// A short stable name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::BodyLine => "body_line",
            EditKind::Literal => "literal",
            EditKind::RenameLocalFresh => "rename_local_fresh",
            EditKind::RenameLocalExisting => "rename_local_existing",
            EditKind::AddRemoveFn => "add_remove_fn",
            EditKind::Signature => "signature",
            EditKind::Brace => "brace",
            EditKind::TwoBodies => "two_bodies",
            EditKind::SyntaxBreaking => "syntax_breaking",
            EditKind::Undo => "undo",
            EditKind::EffectClause => "effect_clause",
            EditKind::DeleteCalled => "delete_called",
            EditKind::InsertType => "insert_type",
        }
    }
}

/// Versions of a unit an [`EditKind::Undo`] can go back to.
const UNDO_DEPTH: usize = 15;

/// One unit under edit: its current text and recent history.
#[derive(Clone, Debug)]
pub struct EditSession {
    source: String,
    history: Vec<String>,
    /// Suffix source for names that must be new to the unit.
    fresh: usize,
}

/// Byte offsets of one function declaration in the layout described in
/// the module docs.
#[derive(Clone, Copy, Debug)]
struct FnSite {
    /// Start of the `void ...{` line.
    start: usize,
    /// Start of the first body line (just past the header's newline).
    body: usize,
    /// Start of the closing `}` line.
    close: usize,
    /// Just past the closing line's newline (or the end of the text).
    end: usize,
}

impl FnSite {
    /// The interior body lines, as `(start, end)` byte ranges including
    /// each line's newline.
    fn body_lines(self, source: &str) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut at = self.body;
        while at < self.close {
            let end = source[at..self.close]
                .find('\n')
                .map_or(self.close, |i| at + i + 1);
            out.push((at, end));
            at = end;
        }
        out
    }
}

/// Every function declaration of `source` in the expected layout.
fn functions(source: &str) -> Vec<FnSite> {
    let mut lines = Vec::new();
    let mut at = 0;
    for line in source.split_inclusive('\n') {
        lines.push((at, line));
        at += line.len();
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let (start, line) = lines[i];
        if line.starts_with("void ") && line.trim_end().ends_with('{') {
            let close = (i + 1..lines.len())
                .take_while(|&j| !lines[j].1.starts_with("void "))
                .find(|&j| lines[j].1.trim_end() == "}");
            if let Some(j) = close {
                out.push(FnSite {
                    start,
                    body: start + line.len(),
                    close: lines[j].0,
                    end: lines[j].0 + lines[j].1.len(),
                });
                i = j;
            }
        }
        i += 1;
    }
    out
}

/// The name of the function declared at `f`.
fn fn_name(source: &str, f: FnSite) -> &str {
    let header = &source[f.start + "void ".len()..f.body];
    &header[..header.find('(').unwrap_or(0)]
}

/// Whether the body of `f` calls `name`.
fn calls(source: &str, f: FnSite, name: &str) -> bool {
    let body = &source[f.body..f.close];
    body.match_indices(name).any(|(i, _)| {
        let before = i.checked_sub(1).map(|j| body.as_bytes()[j]);
        !before.is_some_and(is_ident) && body[i + name.len()..].starts_with('(')
    })
}

/// The functions of `source` some other function calls.
fn called(source: &str, fns: &[FnSite]) -> Vec<FnSite> {
    fns.iter()
        .copied()
        .filter(|&g| {
            let name = fn_name(source, g);
            fns.iter()
                .any(|&f| f.start != g.start && calls(source, f, name))
        })
        .collect()
}

/// The number of functions in `source` an edit can target.
pub fn function_count(source: &str) -> usize {
    functions(source).len()
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replace every whole-identifier occurrence of `from` in `text`.
fn replace_word(text: &str, from: &str, to: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + 16);
    let mut last = 0;
    for (i, _) in text.match_indices(from) {
        let before = i.checked_sub(1).map(|j| bytes[j]);
        let after = bytes.get(i + from.len()).copied();
        if i < last || before.is_some_and(is_ident) || after.is_some_and(is_ident) {
            continue;
        }
        out.push_str(&text[last..i]);
        out.push_str(to);
        last = i + from.len();
    }
    out.push_str(&text[last..]);
    out
}

/// Whether `word` occurs in `text` as a whole identifier.
fn has_word(text: &str, word: &str) -> bool {
    replace_word(text, word, "") != text
}

/// Locals a function body declares: the identifier right before ` = `
/// on a line that starts with a type (`tracked(R) region rgn = ...`).
fn locals(body: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in body.lines() {
        let line = line.trim_start();
        if line.starts_with("if ") || line.starts_with("while ") {
            continue;
        }
        let Some((lhs, _)) = line.split_once(" = ") else {
            continue;
        };
        let words: Vec<&str> = lhs.split_whitespace().collect();
        if let [.., name] = words[..] {
            if words.len() >= 2 && name.bytes().all(is_ident) && !out.iter().any(|l| l == name) {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// The parameter names of a `void name(type a, type b) ... {` header,
/// with their types.
fn params(header: &str) -> Vec<(String, String)> {
    let Some(open) = header.find('(') else {
        return Vec::new();
    };
    let Some(close) = header[open..].find(')') else {
        return Vec::new();
    };
    header[open + 1..open + close]
        .split(',')
        .filter_map(|p| {
            let words: Vec<&str> = p.split_whitespace().collect();
            match words[..] {
                [.., ty, name] if name.bytes().all(is_ident) => {
                    Some((ty.to_string(), name.to_string()))
                }
                _ => None,
            }
        })
        .collect()
}

/// Byte offsets of integer-literal digits in `text[range]`: digits that
/// start a token (not inside an identifier such as `tmp12`).
fn literal_digits(text: &str, range: (usize, usize)) -> Vec<usize> {
    let bytes = text.as_bytes();
    (range.0..range.1)
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !is_ident(bytes[i - 1])))
        .collect()
}

fn pick<T: Clone>(items: &[T], rng: &mut StdRng) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())].clone())
}

/// `text` with `range` replaced by `with`.
fn splice(text: &str, range: (usize, usize), with: &str) -> String {
    format!("{}{with}{}", &text[..range.0], &text[range.1..])
}

/// Bump the digit at `at` to a different digit.
fn bump_digit(text: &str, at: usize, rng: &mut StdRng) -> String {
    let digit = text.as_bytes()[at] - b'0';
    let bumped = (digit + rng.gen_range(1..10u8)) % 10;
    splice(text, (at, at + 1), &((b'0' + bumped) as char).to_string())
}

impl EditSession {
    /// A session editing `source`.
    pub fn new(source: impl Into<String>) -> Self {
        EditSession {
            source: source.into(),
            history: Vec::new(),
            fresh: 0,
        }
    }

    /// The current text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// A name the unit has never contained.
    fn fresh_name(&mut self, stem: &str) -> String {
        loop {
            self.fresh += 1;
            let name = format!("{stem}_e{}", self.fresh);
            if !self.source.contains(&name) {
                return name;
            }
        }
    }

    /// Apply one seeded edit of `kind`. Returns `false`, leaving the
    /// text unchanged, when the unit offers no site for it.
    pub fn apply(&mut self, kind: EditKind, rng: &mut StdRng) -> bool {
        let edited = if kind == EditKind::Undo {
            pick(&(0..self.history.len()).collect::<Vec<_>>(), rng).map(|i| self.history[i].clone())
        } else {
            self.edit(kind, rng)
        };
        match edited {
            Some(text) if text != self.source => {
                let old = std::mem::replace(&mut self.source, text);
                self.history.push(old);
                if self.history.len() > UNDO_DEPTH {
                    self.history.remove(0);
                }
                true
            }
            _ => false,
        }
    }

    fn edit(&mut self, kind: EditKind, rng: &mut StdRng) -> Option<String> {
        let src = self.source.clone();
        let fns = functions(&src);
        let f = pick(&fns, rng)?;
        let lines = f.body_lines(&src);
        let text = &src[f.start..f.end];
        match kind {
            EditKind::BodyLine => {
                if lines.len() > 1 && rng.gen_bool(0.5) {
                    // Delete an interior line (never the last one, so
                    // the body keeps a statement).
                    let line = pick(&lines[..lines.len() - 1], rng)?;
                    Some(splice(&src, line, ""))
                } else {
                    // Insert arithmetic on an `int` parameter: no new
                    // identifier, and the protocol verdict is unchanged.
                    let (_, p) = params(&src[f.start..f.body])
                        .into_iter()
                        .find(|(ty, _)| ty == "int")?;
                    let at = pick(&lines, rng).map_or(f.body, |l| l.0);
                    let stmt = format!("  {p} = {p} + {};\n", rng.gen_range(1..100));
                    Some(splice(&src, (at, at), &stmt))
                }
            }
            EditKind::Literal => {
                let at = pick(&literal_digits(&src, (f.body, f.close)), rng)?;
                Some(bump_digit(&src, at, rng))
            }
            EditKind::RenameLocalFresh => {
                let local = pick(&locals(&src[f.body..f.close]), rng)?;
                let to = self.fresh_name(&local);
                let body = replace_word(&src[f.body..f.close], &local, &to);
                Some(splice(&src, (f.body, f.close), &body))
            }
            EditKind::RenameLocalExisting => {
                let local = pick(&locals(&src[f.body..f.close]), rng)?;
                let taken: Vec<String> = fns
                    .iter()
                    .flat_map(|g| locals(&src[g.body..g.close]))
                    .filter(|name| !has_word(text, name))
                    .collect();
                let to = pick(&taken, rng)?;
                let body = replace_word(&src[f.body..f.close], &local, &to);
                Some(splice(&src, (f.body, f.close), &body))
            }
            EditKind::AddRemoveFn => {
                if fns.len() > 1 && rng.gen_bool(0.5) {
                    return Some(splice(&src, (f.start, f.end), ""));
                }
                let name_end = f.start + src[f.start..].find('(')?;
                let copy = format!("void {}{}", self.fresh_name("extra"), &src[name_end..f.end]);
                let at = pick(&fns, rng)?.start;
                Some(splice(&src, (at, at), &copy))
            }
            EditKind::Signature => {
                let (_, p) = pick(&params(&src[f.start..f.body]), rng)?;
                let to = self.fresh_name(&p);
                Some(splice(&src, (f.start, f.end), &replace_word(text, &p, &to)))
            }
            EditKind::Brace => {
                let open = f.start + src[f.start..f.body].rfind('{')?;
                Some(match rng.gen_range(0..4u8) {
                    0 => splice(&src, (open, open), " "),
                    1 => {
                        let wrapped = splice(&src, (f.close, f.close), "} ");
                        splice(&wrapped, (open + 1, open + 1), " {")
                    }
                    2 => splice(&src, (f.close, f.end), ""),
                    _ => splice(&src, (f.close, f.close), "}\n"),
                })
            }
            EditKind::TwoBodies => {
                let later: Vec<FnSite> =
                    fns.iter().copied().filter(|g| g.start > f.start).collect();
                let g = pick(&later, rng)?;
                if rng.gen_bool(0.5) {
                    // Cut from inside `f`'s body to inside `g`'s.
                    let from = pick(&lines, rng)?.0;
                    let to = pick(&g.body_lines(&src), rng)?.0;
                    Some(splice(&src, (from, to), ""))
                } else {
                    let a = pick(&literal_digits(&src, (f.body, f.close)), rng)?;
                    let b = pick(&literal_digits(&src, (g.body, g.close)), rng)?;
                    let once = bump_digit(&src, b, rng);
                    Some(bump_digit(&once, a, rng))
                }
            }
            EditKind::SyntaxBreaking => {
                let line = pick(&lines, rng)?;
                let at = line.0;
                Some(match rng.gen_range(0..5u8) {
                    0 => splice(&src, (at, at), "  n = n + ;\n"),
                    1 => splice(&src, (at, at), "  /* unterminated\n"),
                    2 => splice(&src, (at, at), "  \"unterminated\n"),
                    3 => splice(&src, (at, at), "  @@;\n"),
                    _ => {
                        let semi = at + src[at..line.1].rfind(';')?;
                        splice(&src, (semi, semi + 1), "")
                    }
                })
            }
            EditKind::EffectClause => {
                let g = pick(&called(&src, &fns), rng)?;
                let header = &src[g.start..g.body];
                let open = header.rfind('{')?;
                let clause = header[..open].rfind(" [");
                let edited = match clause {
                    Some(at) if rng.gen_bool(0.5) => format!("{} {{\n", &header[..at]),
                    Some(_) => {
                        let close = header.rfind(']')?;
                        format!("{}, uses time{}", &header[..close], &header[close..])
                    }
                    None => format!("{}[uses time] {{\n", &header[..open]),
                };
                Some(splice(&src, (g.start, g.body), &edited))
            }
            EditKind::DeleteCalled => {
                let g = pick(&called(&src, &fns), rng)?;
                Some(splice(&src, (g.start, g.end), ""))
            }
            EditKind::InsertType => {
                let decl = if rng.gen_bool(0.5) {
                    format!("struct {} {{ int a; int b; }}\n", self.fresh_name("edit_s"))
                } else {
                    format!("type {} = int;\n", self.fresh_name("edit_t"))
                };
                let mut at = 0;
                for line in src.split_inclusive('\n') {
                    if !line.starts_with("import ") {
                        break;
                    }
                    at += line.len();
                }
                Some(splice(&src, (at, at), &decl))
            }
            EditKind::Undo => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, Shape, SynthConfig};
    use rand::SeedableRng;

    fn unit(shape: Shape) -> String {
        generate(&SynthConfig {
            functions: 6,
            stmts_per_fn: 8,
            seed: 5,
            bug_rate: 0.0,
            shape,
        })
        .source
    }

    #[test]
    fn finds_every_generated_function() {
        for shape in [Shape::Mixed, Shape::Sockets] {
            let src = unit(shape);
            assert_eq!(function_count(&src), 6, "{shape:?}");
            for f in functions(&src) {
                assert!(src[f.start..].starts_with("void synth_fn_"));
                assert_eq!(&src[f.close..f.end], "}\n");
            }
        }
    }

    #[test]
    fn body_confined_edits_touch_one_body_only() {
        for shape in [Shape::Mixed, Shape::Sockets] {
            let src = unit(shape);
            let before = functions(&src);
            for kind in EditKind::ALL.into_iter().filter(|k| k.body_confined()) {
                for seed in 0..20 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut s = EditSession::new(src.clone());
                    assert!(s.apply(kind, &mut rng), "{kind:?} found no site");
                    let after = functions(s.source());
                    assert_eq!(after.len(), before.len());
                    let changed = before
                        .iter()
                        .zip(&after)
                        .filter(|(a, b)| src[a.start..a.end] != s.source()[b.start..b.end])
                        .count();
                    assert_eq!(changed, 1, "{kind:?} seed {seed}");
                    for (a, b) in before.iter().zip(&after) {
                        assert_eq!(src[a.start..a.body], s.source()[b.start..b.body]);
                    }
                }
            }
        }
    }

    #[test]
    fn sessions_are_deterministic_and_undo_restores_history() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(9);
            let mut s = EditSession::new(unit(Shape::Mixed));
            let mut seen = vec![s.source().to_string()];
            for i in 0..40 {
                s.apply(EditKind::ALL[i % EditKind::ALL.len()], &mut rng);
                seen.push(s.source().to_string());
            }
            seen
        };
        let a = run();
        assert_eq!(a, run());
        // Every undo landed on an earlier version.
        for (i, text) in a.iter().enumerate().skip(1) {
            if (i - 1) % EditKind::ALL.len() == EditKind::ALL.len() - 1 {
                assert!(a[..i].contains(text));
            }
        }
    }

    #[test]
    fn renames_respect_identifier_boundaries() {
        assert_eq!(
            replace_word("pt pt_r tpt pt.x", "pt", "q"),
            "q pt_r tpt q.x"
        );
        assert_eq!(
            locals("  tracked(R3) region rgn = Region.create();\n  R3:point pt = new(rgn) point {x=3; y=0;};\n  pt.x = pt.x + 1;\n"),
            vec!["rgn".to_string(), "pt".to_string()]
        );
    }
}
