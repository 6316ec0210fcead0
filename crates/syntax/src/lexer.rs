//! Hand-written lexer for the Vault surface language.
//!
//! Produces a `Vec<Token>` terminated by [`TokenKind::Eof`]. Comments (`//`
//! line and `/* ... */` block) and whitespace are skipped. Lexical errors are
//! reported through a [`DiagSink`] and the offending characters skipped, so a
//! single pass can report multiple errors.
//!
//! Identifiers are interned *at lex time* into the caller's
//! [`Interner`]: tokenizing a 10 kLOC unit allocates one `Arc<str>` per
//! distinct name instead of one `String` per identifier occurrence
//! (see [`lex_into`]).

use crate::diag::{Code, DiagSink};
use crate::intern::{Interner, Symbol};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::sync::Arc;

/// Lex `src` into tokens with a throwaway interner. Convenience for
/// tests and token-shape probes; anything that later resolves the
/// interned names must use [`lex_into`] and keep the interner.
pub fn lex(src: &str, diags: &mut DiagSink) -> Vec<Token> {
    lex_into(src, diags, &mut Arc::default())
}

/// Lex `src` into tokens, reporting lexical errors into `diags` and
/// interning every identifier into `interner`: a name it already holds
/// keeps its symbol, and a new one is numbered past its end. That
/// first-seen numbering is final; the parser reads the tokens as they
/// are. A shared `interner` is copied on its first new name
/// ([`Arc::make_mut`]), so text that names nothing new copies nothing.
pub fn lex_into(src: &str, diags: &mut DiagSink, interner: &mut Arc<Interner>) -> Vec<Token> {
    lex_range_into(src, Span::new(0, src.len() as u32), diags, interner)
}

/// [`lex_into`] over only the bytes of `src` inside `range`, as if every
/// byte outside it were a space (newlines kept): the tokens and
/// diagnostics equal those of lexing that blanked copy, with spans in
/// `src` coordinates and the end-of-input token at `src.len()`. Costs
/// time in the range's length, plus at most the rest of its last line
/// when a string or line comment runs past the range. `range` must lie
/// on character boundaries.
pub fn lex_range_into(
    src: &str,
    range: Span,
    diags: &mut DiagSink,
    interner: &mut Arc<Interner>,
) -> Vec<Token> {
    Lexer {
        src,
        bytes: &src.as_bytes()[..range.end as usize],
        pos: range.start as usize,
        diags,
        interner,
    }
    .run()
}

struct Lexer<'a, 'd> {
    /// The whole text; positions index into it.
    src: &'a str,
    /// The text up to the end of the lexed range. Past it, every byte
    /// reads as a space except a newline.
    bytes: &'a [u8],
    pos: usize,
    diags: &'d mut DiagSink,
    interner: &'d mut Arc<Interner>,
}

impl<'a, 'd> Lexer<'a, 'd> {
    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let start = self.pos;
            let Some(b) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start as u32, start as u32),
                });
                return out;
            };
            let kind = self.next_kind(b, start);
            if let Some(kind) = kind {
                out.push(Token {
                    kind,
                    span: Span::new(start as u32, self.pos as u32),
                });
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.byte_at(self.pos)
    }

    fn peek2(&self) -> Option<u8> {
        self.byte_at(self.pos + 1)
    }

    fn byte_at(&self, i: usize) -> Option<u8> {
        match self.bytes.get(i) {
            Some(&b) => Some(b),
            None => self.blanked_at(i),
        }
    }

    /// A byte past the lexed range, as its blanked copy reads.
    #[cold]
    fn blanked_at(&self, i: usize) -> Option<u8> {
        let b = *self.src.as_bytes().get(i)?;
        Some(if b == b'\n' { b'\n' } else { b' ' })
    }

    /// Whether `pos` is past the lexed range, where only blanks remain.
    fn past_range(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                // Past the range every byte is whitespace: skip to the end.
                Some(_) if self.past_range() => self.pos = self.src.len(),
                Some(b) if b.is_ascii_whitespace() => self.bump(),
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while let Some(b) = self.peek() {
                        if self.past_range() {
                            // No `*/` among the blanks.
                            self.pos = self.src.len();
                            break;
                        }
                        if b == b'*' && self.peek2() == Some(b'/') {
                            self.bump();
                            self.bump();
                            closed = true;
                            break;
                        }
                        self.bump();
                    }
                    if !closed {
                        self.diags.error(
                            Code::LexUnterminated,
                            Span::new(start as u32, self.pos as u32),
                            "unterminated block comment",
                        );
                    }
                }
                _ => return,
            }
        }
    }

    fn next_kind(&mut self, b: u8, start: usize) -> Option<TokenKind> {
        use TokenKind::*;
        match b {
            b'a'..=b'z' | b'A'..=b'Z' => Some(self.ident(start)),
            b'_' => {
                // `_` alone is a wildcard; `_foo` is an identifier.
                if self
                    .peek2()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                {
                    Some(self.ident(start))
                } else {
                    self.bump();
                    Some(Underscore)
                }
            }
            b'0'..=b'9' => Some(self.number(start)),
            b'\'' => {
                self.bump();
                if self
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
                {
                    let istart = self.pos;
                    self.eat_ident_tail();
                    Some(CtorIdent(self.intern(istart)))
                } else {
                    self.diags.error(
                        Code::LexInvalidChar,
                        Span::new(start as u32, self.pos as u32),
                        "expected constructor name after `'`",
                    );
                    None
                }
            }
            b'"' => Some(self.string(start)),
            b'(' => self.one(LParen),
            b')' => self.one(RParen),
            b'{' => self.one(LBrace),
            b'}' => self.one(RBrace),
            b'[' => self.one(LBracket),
            b']' => self.one(RBracket),
            b',' => self.one(Comma),
            b';' => self.one(Semi),
            b':' => self.one(Colon),
            b'@' => self.one(At),
            b'.' => self.one(Dot),
            b'%' => self.one(Percent),
            b'*' => self.one(Star),
            b'/' => self.one(Slash),
            b'<' => self.one_or_two(b'=', Lt, Le),
            b'>' => self.one_or_two(b'=', Gt, Ge),
            b'=' => self.one_or_two(b'=', Eq, EqEq),
            b'!' => self.one_or_two(b'=', Bang, NotEq),
            b'+' => self.one_or_two(b'+', Plus, PlusPlus),
            b'-' => {
                self.bump();
                match self.peek() {
                    Some(b'>') => {
                        self.bump();
                        Some(Arrow)
                    }
                    Some(b'-') => {
                        self.bump();
                        Some(MinusMinus)
                    }
                    _ => Some(Minus),
                }
            }
            b'&' => {
                self.bump();
                if self.peek() == Some(b'&') {
                    self.bump();
                    Some(AndAnd)
                } else {
                    self.diags.error(
                        Code::LexInvalidChar,
                        Span::new(start as u32, self.pos as u32),
                        "single `&` is not a Vault operator",
                    );
                    None
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    Some(OrOr)
                } else {
                    Some(Pipe)
                }
            }
            other => {
                // Skip the whole (possibly multi-byte) character so the
                // next token starts on a character boundary.
                self.pos += utf8_len(other);
                let ch = self.src[start..self.pos].chars().next().unwrap_or('?');
                self.diags.error(
                    Code::LexInvalidChar,
                    Span::new(start as u32, self.pos as u32),
                    format!("invalid character `{ch}`"),
                );
                None
            }
        }
    }

    fn one(&mut self, kind: TokenKind) -> Option<TokenKind> {
        self.bump();
        Some(kind)
    }

    fn one_or_two(&mut self, second: u8, one: TokenKind, two: TokenKind) -> Option<TokenKind> {
        self.bump();
        if self.peek() == Some(second) {
            self.bump();
            Some(two)
        } else {
            Some(one)
        }
    }

    fn eat_ident_tail(&mut self) {
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.bump();
        }
    }

    fn ident(&mut self, start: usize) -> TokenKind {
        self.bump();
        self.eat_ident_tail();
        let text = &self.src[start..self.pos];
        TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(self.intern(start)))
    }

    /// The symbol of the identifier from `start` to here.
    fn intern(&mut self, start: usize) -> Symbol {
        let text = &self.src[start..self.pos];
        match self.interner.sym(text) {
            Symbol::UNKNOWN => Arc::make_mut(self.interner).intern(text),
            sym => sym,
        }
    }

    fn number(&mut self, start: usize) -> TokenKind {
        // Hex literals appear in driver code (0x...); support them.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.bump();
            }
            let text = &self.src[digits_start..self.pos];
            return match i64::from_str_radix(text, 16) {
                Ok(n) if !text.is_empty() => TokenKind::Int(n),
                _ => {
                    self.diags.error(
                        Code::LexIntOverflow,
                        Span::new(start as u32, self.pos as u32),
                        "invalid hexadecimal literal",
                    );
                    TokenKind::Int(0)
                }
            };
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        match text.parse::<i64>() {
            Ok(n) => TokenKind::Int(n),
            Err(_) => {
                self.diags.error(
                    Code::LexIntOverflow,
                    Span::new(start as u32, self.pos as u32),
                    "integer literal out of range",
                );
                TokenKind::Int(0)
            }
        }
    }

    fn string(&mut self, start: usize) -> TokenKind {
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    self.diags.error(
                        Code::LexUnterminated,
                        Span::new(start as u32, self.pos as u32),
                        "unterminated string literal",
                    );
                    return TokenKind::Str(value);
                }
                Some(b'"') => {
                    self.bump();
                    return TokenKind::Str(value);
                }
                Some(b'\\') => {
                    self.bump();
                    match self.peek() {
                        Some(b'n') => value.push('\n'),
                        Some(b't') => value.push('\t'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'0') => value.push('\0'),
                        other => {
                            self.diags.error(
                                Code::LexInvalidChar,
                                Span::new(self.pos as u32 - 1, self.pos as u32 + 1),
                                format!(
                                    "unknown escape `\\{}`",
                                    other.map(|c| c as char).unwrap_or(' ')
                                ),
                            );
                        }
                    }
                    // Skip the escaped character, which may be multi-byte.
                    if let Some(b) = self.peek() {
                        self.pos += utf8_len(b);
                    }
                }
                Some(b) if self.past_range() => {
                    value.push(b as char);
                    self.bump();
                }
                Some(b) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let ch_len = utf8_len(b);
                    value.push_str(&self.src[self.pos..self.pos + ch_len]);
                    self.pos += ch_len;
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lex error-free source, returning the kinds plus the interner so
    /// tests can look up expected identifier symbols by name.
    fn kinds(src: &str) -> (Vec<TokenKind>, Arc<Interner>) {
        let mut diags = DiagSink::new();
        let mut interner = Arc::default();
        let toks = lex_into(src, &mut diags, &mut interner);
        assert!(!diags.has_errors(), "unexpected lex errors: {:?}", diags);
        (toks.into_iter().map(|t| t.kind).collect(), interner)
    }

    #[test]
    fn lexes_declaration() {
        use TokenKind::*;
        let (toks, i) = kinds("tracked(R) region rgn = Region.create();");
        let id = |n: &str| Ident(i.sym(n));
        assert_eq!(
            toks,
            vec![
                KwTracked,
                LParen,
                id("R"),
                RParen,
                id("region"),
                id("rgn"),
                Eq,
                id("Region"),
                Dot,
                id("create"),
                LParen,
                RParen,
                Semi,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_effect_clause() {
        use TokenKind::*;
        let (toks, i) = kinds("[S@raw->named, -K, +N@ready, new R@b]");
        let id = |n: &str| Ident(i.sym(n));
        assert_eq!(
            toks,
            vec![
                LBracket,
                id("S"),
                At,
                id("raw"),
                Arrow,
                id("named"),
                Comma,
                Minus,
                id("K"),
                Comma,
                Plus,
                id("N"),
                At,
                id("ready"),
                Comma,
                KwNew,
                id("R"),
                At,
                id("b"),
                RBracket,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_ctor_and_bounds() {
        use TokenKind::*;
        let (toks, i) = kinds("'SomeKey{F} (level <= DISPATCH_LEVEL)");
        let id = |n: &str| Ident(i.sym(n));
        assert_eq!(
            toks,
            vec![
                CtorIdent(i.sym("SomeKey")),
                LBrace,
                id("F"),
                RBrace,
                LParen,
                id("level"),
                Le,
                id("DISPATCH_LEVEL"),
                RParen,
                Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        use TokenKind::*;
        let (toks, i) = kinds("x // line\n /* block\n over lines */ y");
        assert_eq!(toks, vec![Ident(i.sym("x")), Ident(i.sym("y")), Eof]);
    }

    #[test]
    fn operators() {
        use TokenKind::*;
        let (toks, _) = kinds("== != <= >= && || ++ -- -> + - * / % ! = < >");
        assert_eq!(
            toks,
            vec![
                EqEq, NotEq, Le, Ge, AndAnd, OrOr, PlusPlus, MinusMinus, Arrow, Plus, Minus, Star,
                Slash, Percent, Bang, Eq, Lt, Gt, Eof
            ]
        );
    }

    #[test]
    fn numbers_including_hex() {
        use TokenKind::*;
        let (toks, _) = kinds("0 42 0x1F");
        assert_eq!(toks, vec![Int(0), Int(42), Int(31), Eof]);
    }

    #[test]
    fn strings_with_escapes() {
        use TokenKind::*;
        let (toks, _) = kinds(r#""hi\n\"there\"""#);
        assert_eq!(toks, vec![Str("hi\n\"there\"".into()), Eof]);
    }

    #[test]
    fn underscore_wildcard_vs_ident() {
        use TokenKind::*;
        let (toks, i) = kinds("_ _tmp");
        assert_eq!(toks, vec![Underscore, Ident(i.sym("_tmp")), Eof]);
    }

    #[test]
    fn identifiers_are_interned_once() {
        let (_, i) = kinds("a b a b a c");
        assert_eq!(i.len(), 3, "one interner entry per distinct name");
    }

    #[test]
    fn unterminated_string_reports() {
        let mut diags = DiagSink::new();
        lex("\"abc", &mut diags);
        assert!(diags.has_code(Code::LexUnterminated));
    }

    #[test]
    fn unterminated_comment_reports() {
        let mut diags = DiagSink::new();
        lex("/* abc", &mut diags);
        assert!(diags.has_code(Code::LexUnterminated));
    }

    #[test]
    fn invalid_char_reports_and_continues() {
        let mut diags = DiagSink::new();
        let toks = lex("a # b", &mut diags);
        assert!(diags.has_code(Code::LexInvalidChar));
        // Both identifiers survive.
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn spans_are_correct() {
        let mut diags = DiagSink::new();
        let toks = lex("free(p)", &mut diags);
        assert_eq!(toks[0].span, Span::new(0, 4));
        assert_eq!(toks[1].span, Span::new(4, 5));
        assert_eq!(toks[2].span, Span::new(5, 6));
        assert_eq!(toks[3].span, Span::new(6, 7));
    }

    #[test]
    fn range_lex_reads_blanks_past_the_range() {
        // A string the range cuts runs on through the blanks to the end
        // of its line, exactly as in the text blanked outside the range.
        let src = "x \"abc def\" y\nz";
        let blanked: String = src
            .bytes()
            .enumerate()
            .map(|(i, b)| if i < 5 || b == b'\n' { b as char } else { ' ' })
            .collect();
        let (mut d1, mut d2) = (DiagSink::new(), DiagSink::new());
        let ranged = lex_range_into(src, Span::new(0, 5), &mut d1, &mut Arc::default());
        let whole = lex(&blanked, &mut d2);
        assert_eq!(ranged, whole);
        assert_eq!(d1.diagnostics(), d2.diagnostics());
        assert!(d1.has_code(Code::LexUnterminated));
        assert_eq!(ranged.last().unwrap().span, Span::new(15, 15));
    }
}
