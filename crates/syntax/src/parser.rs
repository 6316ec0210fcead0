//! Recursive-descent parser for the Vault surface language.
//!
//! Backtracking is used in the few places where C-family syntax is ambiguous
//! (a statement beginning with a type vs. an expression, and guard prefixes
//! on types). Errors are reported into a [`DiagSink`]; the parser recovers at
//! statement/declaration boundaries so that multiple errors are reported per
//! run.

use crate::ast::*;
use crate::diag::{Code, DiagSink};
use crate::intern::{Interner, Symbol};
use crate::lexer::{lex_into, lex_range_into};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::sync::Arc;

/// Default bound on grammar recursion depth (see
/// [`parse_program_with_depth`]). Generous for human-written code — the
/// paper corpus peaks well under 40 — while keeping hostile inputs like
/// ten thousand opening parentheses from overflowing the stack.
pub const DEFAULT_PARSER_DEPTH: usize = 256;

/// Parse a whole compilation unit. Returns the (possibly partial) program;
/// callers should consult `diags` for errors.
pub fn parse_program(src: &str, diags: &mut DiagSink) -> Program {
    parse_program_with_depth(src, diags, DEFAULT_PARSER_DEPTH)
}

/// Wall-clock breakdown of the front end, reported by
/// [`parse_program_with_depth_timed`]. Lexing and parsing are measured
/// separately so the per-phase stats can show where cold time goes.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontEndTiming {
    /// Microseconds spent lexing (including identifier interning).
    pub lex_micros: u64,
    /// Microseconds spent parsing, including interning the resolver's
    /// sentinel names.
    pub parse_micros: u64,
}

/// [`parse_program`] with an explicit recursion-depth bound. When nesting
/// exceeds `max_depth` the parser reports one [`Code::LimitExceeded`]
/// diagnostic and recovers instead of overflowing the stack.
pub fn parse_program_with_depth(src: &str, diags: &mut DiagSink, max_depth: usize) -> Program {
    parse_program_with_depth_timed(src, diags, max_depth).0
}

/// [`parse_program_with_depth`] plus a per-phase timing breakdown.
pub fn parse_program_with_depth_timed(
    src: &str,
    diags: &mut DiagSink,
    max_depth: usize,
) -> (Program, FrontEndTiming) {
    parse_range_timed(src, Span::new(0, src.len() as u32), diags, max_depth)
}

/// [`parse_program_with_depth`] over only the bytes of `src` inside
/// `range`, as if every byte outside it were blanked to a space
/// (newlines kept). The program and diagnostics equal those of parsing
/// that blanked copy, spans in `src` coordinates, but the lexer reads
/// only the range (see [`crate::lexer::lex_range_into`]). `range` must
/// lie on character boundaries.
pub fn parse_range_with_depth(
    src: &str,
    range: Span,
    diags: &mut DiagSink,
    max_depth: usize,
) -> Program {
    parse_range_timed(src, range, diags, max_depth).0
}

fn parse_range_timed(
    src: &str,
    range: Span,
    diags: &mut DiagSink,
    max_depth: usize,
) -> (Program, FrontEndTiming) {
    let mut timing = FrontEndTiming::default();
    let started = std::time::Instant::now();
    let mut lexed = Arc::default();
    let tokens = lex_range_into(src, range, diags, &mut lexed);
    timing.lex_micros = started.elapsed().as_micros() as u64;
    let started = std::time::Instant::now();
    let program = parse_tokens(&tokens, with_sentinels(lexed), diags, max_depth);
    timing.parse_micros = started.elapsed().as_micros() as u64;
    (program, timing)
}

/// [`parse_range_with_depth`] in the symbol space of an existing
/// interner `syms`, such as the one of an earlier parse of a text that
/// holds `range`: the range is lexed into `syms`, so a name it already
/// holds keeps its symbol and a new name is numbered past its end, and
/// the program shares it. A shared `syms` is copied on the range's
/// first new name ([`Arc::make_mut`]), so an interner other parses hold
/// never changes.
pub fn parse_range_in(
    src: &str,
    range: Span,
    syms: &mut Arc<Interner>,
    diags: &mut DiagSink,
    max_depth: usize,
) -> Program {
    let tokens = lex_range_into(src, range, diags, syms);
    parse_tokens(&tokens, Arc::clone(syms), diags, max_depth)
}

/// Parse a whole unit from tokens numbered in `syms`.
fn parse_tokens(
    tokens: &[Token],
    syms: Arc<Interner>,
    diags: &mut DiagSink,
    max_depth: usize,
) -> Program {
    let mut p = Parser::new(tokens, diags, max_depth.max(1), &syms);
    let mut program = p.program();
    p.report_depth_exceeded(max_depth);
    program.syms = syms;
    program
}

/// Parse a single expression (used by tests).
pub fn parse_expr(src: &str, diags: &mut DiagSink) -> Option<Expr> {
    let mut lexed = Arc::default();
    let tokens = lex_into(src, diags, &mut lexed);
    let syms = with_sentinels(lexed);
    let mut p = Parser::new(&tokens, diags, DEFAULT_PARSER_DEPTH, &syms);
    let e = p.expr()?;
    if !p.at(&TokenKind::Eof) {
        p.error_here(|_| "expected end of input after expression".into());
    }
    Some(e)
}

/// A lexed unit's interner plus the resolver's sentinel names, ready to
/// share: the lexer's first-seen numbering is final.
fn with_sentinels(mut lexed: Arc<Interner>) -> Arc<Interner> {
    let syms = Arc::make_mut(&mut lexed);
    syms.intern("<error>");
    syms.intern("<fn>");
    lexed
}

/// A unit lexed once and parsed declarations first: every function
/// body was skipped by brace matching over the tokens, and
/// [`Self::parse_body`] parses one on demand from the same tokens.
///
/// With every body parsed, the declarations, bodies, interner
/// and diagnostics equal [`parse_program_with_depth`]'s whenever neither
/// the declaration pass nor any body parse reported anything: the
/// parser reads the same tokens in the same state either way, since a
/// function body always starts at nesting depth zero.
pub struct Outline {
    tokens: Vec<Token>,
    syms: Arc<Interner>,
    max_depth: usize,
}

/// Lex `src` once and parse its declarations with every function body
/// skipped. Each skipped body is a statement-less [`Block`] spanning its
/// braces, to be replaced by [`Outline::parse_body`] before anything
/// reads it. The program's interner equals the eager parse's: the
/// lexer interns every identifier of the text, in the same order.
pub fn parse_outline(
    src: &str,
    diags: &mut DiagSink,
    max_depth: usize,
) -> (Program, Outline, FrontEndTiming) {
    let mut timing = FrontEndTiming::default();
    let started = std::time::Instant::now();
    let mut lexed = Arc::default();
    let tokens = lex_into(src, diags, &mut lexed);
    timing.lex_micros = started.elapsed().as_micros() as u64;
    let started = std::time::Instant::now();
    let syms = with_sentinels(lexed);
    let max_depth = max_depth.max(1);
    let mut p = Parser::new(&tokens, diags, max_depth, &syms);
    p.skip_bodies = true;
    let mut program = p.program();
    p.report_depth_exceeded(max_depth);
    program.syms = Arc::clone(&syms);
    timing.parse_micros = started.elapsed().as_micros() as u64;
    let outline = Outline {
        tokens,
        syms,
        max_depth,
    };
    (program, outline, timing)
}

impl Outline {
    /// Parse the function body whose braces span `body`, exactly as the
    /// eager parse would at that point. `None` unless the parse reports
    /// nothing and ends at the brace that closed the skipped body.
    pub fn parse_body(&self, body: Span) -> Option<Block> {
        let open = self.tokens.partition_point(|t| t.span.start < body.start);
        let t = self.tokens.get(open)?;
        if t.kind != TokenKind::LBrace || t.span.start != body.start {
            return None;
        }
        let mut diags = DiagSink::new();
        let mut p = Parser::new(&self.tokens, &mut diags, self.max_depth, &self.syms);
        p.pos = open;
        let block = p.block()?;
        let clean = !p.depth_exceeded && diags.diagnostics().is_empty();
        (clean && block.span == body).then_some(block)
    }
}

struct Parser<'t, 'd> {
    tokens: &'t [Token],
    pos: usize,
    diags: &'d mut DiagSink,
    /// Current nesting depth across the recursive entry points
    /// (`ty`/`stmt`/`unary_expr`).
    depth: usize,
    /// Bound on `depth`; exceeding it fails the enclosing construct.
    max_depth: usize,
    /// Whether the bound was ever hit (reported once, post-parse).
    depth_exceeded: bool,
    /// The interner the lexer numbered the tokens in, consulted here to
    /// turn token symbols back into shared text.
    interner: &'t Interner,
    /// Nesting depth of [`Self::ty_quiet`]. While positive, errors are
    /// counted in `suppressed` instead of being formatted and reported:
    /// a quiet parse discards every diagnostic it would produce.
    quiet: u32,
    /// Errors swallowed in quiet mode. A rollback restores it, exactly
    /// as it truncates the reported diagnostics.
    suppressed: usize,
    /// Skip function bodies by brace matching instead of parsing them
    /// (see [`parse_outline`]).
    skip_bodies: bool,
}

impl<'t, 'd> Parser<'t, 'd> {
    fn new(
        tokens: &'t [Token],
        diags: &'d mut DiagSink,
        max_depth: usize,
        interner: &'t Interner,
    ) -> Self {
        Parser {
            tokens,
            pos: 0,
            diags,
            depth: 0,
            max_depth,
            depth_exceeded: false,
            interner,
            quiet: 0,
            suppressed: 0,
            skip_bodies: false,
        }
    }

    /// Depth overruns inside `speculate` have their diagnostics rolled
    /// back with the speculation; make sure the limit is reported
    /// exactly once regardless of where it tripped.
    fn report_depth_exceeded(&mut self, max_depth: usize) {
        if self.depth_exceeded && !self.diags.has_code(Code::LimitExceeded) {
            let span = self.span_here();
            self.diags.error(
                Code::LimitExceeded,
                span,
                format!("nesting exceeds the parser recursion limit of {max_depth}"),
            );
        }
    }

    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn nth(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span_here(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Option<Span> {
        if self.at(kind) {
            Some(self.bump().span)
        } else {
            self.error_here(|p| {
                format!(
                    "expected {}, found {}",
                    kind.describe(p.interner),
                    p.peek().describe(p.interner)
                )
            });
            None
        }
    }

    /// Build an AST identifier from an interned token symbol: the text
    /// is a refcount bump on the interner's shared string.
    fn mk_ident(&self, sym: Symbol, span: Span) -> Ident {
        Ident::with_sym(self.interner.resolve_istr(sym), sym, span)
    }

    fn ident(&mut self) -> Option<Ident> {
        if let TokenKind::Ident(sym) = *self.peek() {
            let t = self.bump();
            Some(self.mk_ident(sym, t.span))
        } else {
            self.error_here(|p| {
                format!(
                    "expected identifier, found {}",
                    p.peek().describe(p.interner)
                )
            });
            None
        }
    }

    /// Report a parse error at the current token; `msg` is formatted
    /// only outside quiet mode.
    fn error_here(&mut self, msg: impl FnOnce(&Self) -> String) {
        if self.quiet > 0 {
            self.suppressed += 1;
            return;
        }
        let msg = msg(self);
        self.diags
            .error(Code::ParseUnexpected, self.span_here(), msg);
    }

    /// Enter one level of grammar recursion; `false` means the depth
    /// bound is hit and the caller must fail instead of recursing.
    fn enter(&mut self) -> bool {
        if self.depth >= self.max_depth {
            self.depth_exceeded = true;
            return false;
        }
        self.depth += 1;
        true
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Run `f` speculatively: on `None`, restore the token position and drop
    /// any diagnostics it produced.
    fn speculate<T>(&mut self, f: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let (pos, ndiags, suppressed) = (self.pos, self.diags.diagnostics().len(), self.suppressed);
        let v = f(self);
        if v.is_none() {
            self.pos = pos;
            self.diags.truncate(ndiags);
            self.suppressed = suppressed;
        }
        v
    }

    /// Skip tokens until a likely declaration/statement boundary.
    fn recover_to(&mut self, stops: &[TokenKind]) {
        loop {
            let k = self.peek().clone();
            if k == TokenKind::Eof || stops.contains(&k) {
                return;
            }
            if k == TokenKind::Semi || k == TokenKind::RBrace {
                self.bump();
                return;
            }
            self.bump();
        }
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn program(&mut self) -> Program {
        let mut decls = Vec::new();
        while !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.decl() {
                Some(d) => decls.push(d),
                None => {
                    if self.pos == before {
                        self.bump();
                    }
                    self.recover_to(&[
                        TokenKind::KwStruct,
                        TokenKind::KwVariant,
                        TokenKind::KwType,
                        TokenKind::KwStateset,
                        TokenKind::KwKey,
                        TokenKind::KwInterface,
                    ]);
                }
            }
        }
        Program {
            decls,
            syms: Arc::default(),
        }
    }

    fn decl(&mut self) -> Option<Decl> {
        match self.peek() {
            TokenKind::KwInterface | TokenKind::KwModule => {
                self.interface_decl().map(Decl::Interface)
            }
            TokenKind::KwStruct => self.struct_decl().map(Decl::Struct),
            TokenKind::KwVariant => self.variant_decl().map(Decl::Variant),
            TokenKind::KwType => self.type_alias_decl().map(Decl::TypeAlias),
            TokenKind::KwStateset => self.stateset_decl().map(Decl::Stateset),
            TokenKind::KwKey => self.global_key_decl().map(Decl::GlobalKey),
            _ => {
                // `import` is contextual, not a keyword: an identifier
                // spelling "import" directly followed by a string
                // literal can never start any other declaration, and
                // keeping it out of the keyword table leaves every
                // existing program's tokens (and interner) untouched.
                if let TokenKind::Ident(sym) = *self.peek() {
                    if self.interner.resolve(sym) == "import"
                        && matches!(self.nth(1), TokenKind::Str(_))
                    {
                        return self.import_decl().map(Decl::Import);
                    }
                }
                self.fun_decl().map(Decl::Fun)
            }
        }
    }

    fn import_decl(&mut self) -> Option<ImportDecl> {
        let start = self.bump().span; // the `import` identifier
        let path_tok = self.bump();
        let TokenKind::Str(path) = path_tok.kind else {
            unreachable!("import_decl is only entered when a string follows");
        };
        let end = self.expect(&TokenKind::Semi)?;
        Some(ImportDecl {
            path,
            path_span: path_tok.span,
            span: start.to(end),
        })
    }

    fn interface_decl(&mut self) -> Option<InterfaceDecl> {
        let start = self.bump().span; // interface / module
        let name = self.ident()?;
        // `module Name : IFACE { ... }` — record the module name, skip the
        // ascription; contents are flattened either way.
        if self.eat(&TokenKind::Colon) {
            self.ident()?;
        }
        // `extern module Region : REGION;` style (no body): accept `;`.
        if self.eat(&TokenKind::Semi) {
            return Some(InterfaceDecl {
                name,
                decls: Vec::new(),
                span: start.to(self.prev_span()),
            });
        }
        self.expect(&TokenKind::LBrace)?;
        let mut decls = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.decl() {
                Some(d) => decls.push(d),
                None => {
                    if self.pos == before {
                        self.bump();
                    }
                    self.recover_to(&[TokenKind::RBrace]);
                }
            }
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Some(InterfaceDecl {
            name,
            decls,
            span: start.to(end),
        })
    }

    fn struct_decl(&mut self) -> Option<StructDecl> {
        let start = self.bump().span; // struct
        let name = self.ident()?;
        let params = self.opt_tparams()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let ty = self.ty()?;
            let fname = self.ident()?;
            self.expect(&TokenKind::Semi)?;
            fields.push(Field { ty, name: fname });
        }
        let end = self.expect(&TokenKind::RBrace)?;
        self.eat(&TokenKind::Semi);
        Some(StructDecl {
            name,
            params,
            fields,
            span: start.to(end),
        })
    }

    fn variant_decl(&mut self) -> Option<VariantDecl> {
        let start = self.bump().span; // variant
        let name = self.ident()?;
        let params = self.opt_tparams()?;
        self.expect(&TokenKind::LBracket)?;
        let mut ctors = Vec::new();
        loop {
            ctors.push(self.ctor_decl()?);
            if !self.eat(&TokenKind::Pipe) {
                break;
            }
        }
        let end = self.expect(&TokenKind::RBracket)?;
        self.eat(&TokenKind::Semi);
        Some(VariantDecl {
            name,
            params,
            ctors,
            span: start.to(end),
        })
    }

    fn ctor_decl(&mut self) -> Option<CtorDecl> {
        let (name, start) = match self.peek().clone() {
            TokenKind::CtorIdent(n) => {
                let t = self.bump();
                (self.mk_ident(n, t.span), t.span)
            }
            other => {
                self.error_here(|p| {
                    format!("expected constructor, found {}", other.describe(p.interner))
                });
                return None;
            }
        };
        let mut args = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if !self.at(&TokenKind::RParen) {
                loop {
                    args.push(self.ty()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let captures = if self.at(&TokenKind::LBrace) {
            self.key_capture_list()?
        } else {
            Vec::new()
        };
        Some(CtorDecl {
            name,
            args,
            captures,
            span: start.to(self.prev_span()),
        })
    }

    /// `{ K@s, L }` — key captures on constructors and ctor expressions.
    fn key_capture_list(&mut self) -> Option<Vec<KeyStateRef>> {
        self.expect(&TokenKind::LBrace)?;
        let mut keys = Vec::new();
        if !self.at(&TokenKind::RBrace) {
            loop {
                keys.push(self.key_state_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Some(keys)
    }

    fn key_state_ref(&mut self) -> Option<KeyStateRef> {
        let key = self.ident()?;
        let state = if self.eat(&TokenKind::At) {
            Some(self.state_ref()?)
        } else {
            None
        };
        Some(KeyStateRef { key, state })
    }

    /// `name` or `(var <= BOUND)`.
    fn state_ref(&mut self) -> Option<StateRef> {
        if self.eat(&TokenKind::LParen) {
            let var = self.ident()?;
            self.expect(&TokenKind::Le)?;
            let bound = self.ident()?;
            self.expect(&TokenKind::RParen)?;
            Some(StateRef::Bounded { var, bound })
        } else {
            Some(StateRef::Name(self.ident()?))
        }
    }

    fn type_alias_decl(&mut self) -> Option<TypeAliasDecl> {
        let start = self.bump().span; // type
        let name = self.ident()?;
        let params = self.opt_tparams()?;
        let body = if self.eat(&TokenKind::Eq) {
            let ty = self.ty()?;
            // A function-type alias body: `ret Name(params) [effect]`.
            if matches!(self.peek(), TokenKind::Ident(_))
                && matches!(self.nth(1), TokenKind::LParen)
            {
                self.ident()?; // dummy routine name
                self.expect(&TokenKind::LParen)?;
                let mut ptys = Vec::new();
                if !self.at(&TokenKind::RParen) {
                    loop {
                        let pty = self.ty()?;
                        // optional parameter name
                        if matches!(self.peek(), TokenKind::Ident(_))
                            && (matches!(self.nth(1), TokenKind::Comma)
                                || matches!(self.nth(1), TokenKind::RParen))
                        {
                            self.ident()?;
                        }
                        ptys.push(pty);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                let effect = self.opt_effect()?;
                let span = ty.span.to(self.prev_span());
                Some(Type {
                    kind: TypeKind::Fn(Box::new(FnType {
                        ret: ty,
                        params: ptys,
                        effect,
                    })),
                    span,
                })
            } else {
                Some(ty)
            }
        } else {
            None
        };
        let end = self.expect(&TokenKind::Semi)?;
        Some(TypeAliasDecl {
            name,
            params,
            body,
            span: start.to(end),
        })
    }

    fn stateset_decl(&mut self) -> Option<StatesetDecl> {
        let start = self.bump().span; // stateset
        let name = self.ident()?;
        self.expect(&TokenKind::Eq)?;
        self.expect(&TokenKind::LBracket)?;
        let mut chains = Vec::new();
        loop {
            let mut chain = vec![self.ident()?];
            while self.eat(&TokenKind::Lt) {
                chain.push(self.ident()?);
            }
            chains.push(chain);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RBracket)?;
        let end = self.expect(&TokenKind::Semi)?;
        Some(StatesetDecl {
            name,
            chains,
            span: start.to(end),
        })
    }

    fn global_key_decl(&mut self) -> Option<GlobalKeyDecl> {
        let start = self.bump().span; // key
        let name = self.ident()?;
        let stateset = if self.eat(&TokenKind::At) {
            Some(self.ident()?)
        } else {
            None
        };
        let end = self.expect(&TokenKind::Semi)?;
        Some(GlobalKeyDecl {
            name,
            stateset,
            span: start.to(end),
        })
    }

    fn opt_tparams(&mut self) -> Option<Vec<TParam>> {
        if !self.at(&TokenKind::Lt) {
            return Some(Vec::new());
        }
        // Only a real parameter list starts with `type`/`key`/`state`.
        if !matches!(
            self.nth(1),
            TokenKind::KwType | TokenKind::KwKey | TokenKind::KwState
        ) {
            return Some(Vec::new());
        }
        self.bump(); // <
        let mut params = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::KwType => {
                    self.bump();
                    params.push(TParam::Type(self.ident()?));
                }
                TokenKind::KwKey => {
                    self.bump();
                    params.push(TParam::Key(self.ident()?));
                }
                TokenKind::KwState => {
                    self.bump();
                    let name = self.ident()?;
                    let bound = if self.eat(&TokenKind::Le) {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    params.push(TParam::State { name, bound });
                }
                other => {
                    self.error_here(|p| {
                        format!(
                            "expected `type`, `key`, or `state` parameter, found {}",
                            other.describe(p.interner)
                        )
                    });
                    return None;
                }
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Gt)?;
        Some(params)
    }

    fn fun_decl(&mut self) -> Option<FunDecl> {
        let start = self.span_here();
        let ret = self.ty()?;
        let name = self.ident()?;
        let tparams = self.opt_tparams()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let ty = self.ty()?;
                let pname = if let TokenKind::Ident(_) = self.peek() {
                    Some(self.ident()?)
                } else {
                    None
                };
                params.push(FunParam { ty, name: pname });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let effect = self.opt_effect()?;
        let body = if self.at(&TokenKind::LBrace) {
            Some(if self.skip_bodies {
                self.skipped_block()?
            } else {
                self.block()?
            })
        } else {
            self.expect(&TokenKind::Semi)?;
            None
        };
        Some(FunDecl {
            ret,
            name,
            tparams,
            params,
            effect,
            body,
            span: start.to(self.prev_span()),
        })
    }

    fn opt_effect(&mut self) -> Option<Option<Effect>> {
        if !self.at(&TokenKind::LBracket) {
            return Some(None);
        }
        let start = self.bump().span; // [
        let mut items = Vec::new();
        if !self.at(&TokenKind::RBracket) {
            loop {
                items.push(self.effect_item()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(&TokenKind::RBracket)?;
        Some(Some(Effect {
            items,
            span: start.to(end),
        }))
    }

    fn effect_item(&mut self) -> Option<EffectItem> {
        match self.peek().clone() {
            TokenKind::Minus => {
                self.bump();
                let key = self.ident()?;
                let state = if self.eat(&TokenKind::At) {
                    Some(self.state_ref()?)
                } else {
                    None
                };
                Some(EffectItem::Consume { key, state })
            }
            TokenKind::Plus => {
                self.bump();
                let key = self.ident()?;
                let state = if self.eat(&TokenKind::At) {
                    Some(self.ident()?)
                } else {
                    None
                };
                Some(EffectItem::Produce { key, state })
            }
            TokenKind::KwNew => {
                self.bump();
                let key = self.ident()?;
                let state = if self.eat(&TokenKind::At) {
                    Some(self.ident()?)
                } else {
                    None
                };
                Some(EffectItem::Fresh { key, state })
            }
            TokenKind::Ident(_) => {
                let key = self.ident()?;
                // `uses` is a contextual keyword: `uses net` declares a
                // capability. A key literally named `uses` (followed by
                // `,`, `]`, or `@`) still parses as a Keep item.
                if key.name == "uses" {
                    if let TokenKind::Ident(_) = self.peek() {
                        let cap = self.ident()?;
                        return Some(EffectItem::Uses { cap });
                    }
                }
                let (from, to) = if self.eat(&TokenKind::At) {
                    let from = self.state_ref()?;
                    let to = if self.eat(&TokenKind::Arrow) {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    (Some(from), to)
                } else {
                    (None, None)
                };
                Some(EffectItem::Keep { key, from, to })
            }
            other => {
                self.error_here(|p| {
                    format!("expected effect item, found {}", other.describe(p.interner))
                });
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn ty(&mut self) -> Option<Type> {
        if !self.enter() {
            return None;
        }
        let t = self.ty_inner();
        self.leave();
        t
    }

    fn ty_inner(&mut self) -> Option<Type> {
        let start = self.span_here();
        // Guard prefix: `K : T`, `K@s : T`, `(g1, g2) : T`.
        if let Some(t) = self.speculate(|p| p.guarded_ty(start)) {
            return Some(t);
        }
        self.base_ty()
    }

    fn guarded_ty(&mut self, start: Span) -> Option<Type> {
        let guards = if self.at(&TokenKind::LParen) {
            self.bump();
            let mut gs = Vec::new();
            loop {
                gs.push(self.key_state_ref_quiet()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            if !self.eat(&TokenKind::RParen) {
                return None;
            }
            gs
        } else {
            vec![self.key_state_ref_quiet()?]
        };
        if !self.eat(&TokenKind::Colon) {
            return None;
        }
        let inner = self.ty()?;
        let span = start.to(inner.span);
        Some(Type {
            kind: TypeKind::Guarded {
                guards,
                inner: Box::new(inner),
            },
            span,
        })
    }

    /// Like `key_state_ref` but fails silently (for use under `speculate`).
    fn key_state_ref_quiet(&mut self) -> Option<KeyStateRef> {
        let key = if let TokenKind::Ident(n) = self.peek().clone() {
            let t = self.bump();
            self.mk_ident(n, t.span)
        } else {
            return None;
        };
        let state = if self.eat(&TokenKind::At) {
            Some(self.state_ref()?)
        } else {
            None
        };
        Some(KeyStateRef { key, state })
    }

    fn base_ty(&mut self) -> Option<Type> {
        let start = self.span_here();
        let mut ty = match self.peek().clone() {
            TokenKind::KwVoid => {
                self.bump();
                Type {
                    kind: TypeKind::Void,
                    span: start,
                }
            }
            TokenKind::KwInt => {
                self.bump();
                Type {
                    kind: TypeKind::Int,
                    span: start,
                }
            }
            TokenKind::KwBool => {
                self.bump();
                Type {
                    kind: TypeKind::Bool,
                    span: start,
                }
            }
            TokenKind::KwByte => {
                self.bump();
                Type {
                    kind: TypeKind::Byte,
                    span: start,
                }
            }
            TokenKind::KwString => {
                self.bump();
                Type {
                    kind: TypeKind::Str,
                    span: start,
                }
            }
            TokenKind::KwTracked => {
                self.bump();
                let key = if self.at(&TokenKind::LParen) {
                    self.bump();
                    let k = self.ident()?;
                    self.expect(&TokenKind::RParen)?;
                    Some(k)
                } else {
                    None
                };
                let inner = self.base_ty()?;
                let span = start.to(inner.span);
                Type {
                    kind: TypeKind::Tracked {
                        key,
                        inner: Box::new(inner),
                    },
                    span,
                }
            }
            TokenKind::LParen => {
                // Tuple type `(T1, T2)`.
                self.bump();
                let mut tys = vec![self.ty()?];
                while self.eat(&TokenKind::Comma) {
                    tys.push(self.ty()?);
                }
                let end = self.expect(&TokenKind::RParen)?;
                if tys.len() == 1 {
                    let mut only = tys.pop().expect("len checked");
                    only.span = start.to(end);
                    only
                } else {
                    Type {
                        kind: TypeKind::Tuple(tys),
                        span: start.to(end),
                    }
                }
            }
            TokenKind::Ident(_) => {
                let name = self.ident()?;
                let args = self.opt_type_args()?;
                Type {
                    span: start.to(self.prev_span()),
                    kind: TypeKind::Named { name, args },
                }
            }
            other => {
                self.error_here(|p| {
                    format!("expected a type, found {}", other.describe(p.interner))
                });
                return None;
            }
        };
        // Array suffixes.
        while self.at(&TokenKind::LBracket) && matches!(self.nth(1), TokenKind::RBracket) {
            self.bump();
            let end = self.bump().span;
            let span = ty.span.to(end);
            ty = Type {
                kind: TypeKind::Array(Box::new(ty)),
                span,
            };
        }
        Some(ty)
    }

    fn opt_type_args(&mut self) -> Option<Vec<TypeArg>> {
        if !self.at(&TokenKind::Lt) {
            return Some(Vec::new());
        }
        // Speculative: `<` could be a comparison in expression context.
        let parsed = self.speculate(|p| {
            p.bump(); // <
            let mut args = Vec::new();
            loop {
                let ty = p.ty_quiet()?;
                args.push(TypeArg::Type(ty));
                if !p.eat(&TokenKind::Comma) {
                    break;
                }
            }
            if !p.eat(&TokenKind::Gt) {
                return None;
            }
            Some(args)
        });
        Some(parsed.unwrap_or_default())
    }

    /// Type parse that fails without emitting diagnostics (for
    /// speculation): any error it would report, and not roll back, makes
    /// it fail. Runs in quiet mode, so no message is ever formatted.
    fn ty_quiet(&mut self) -> Option<Type> {
        let (pos, suppressed) = (self.pos, self.suppressed);
        self.quiet += 1;
        let t = self.ty();
        self.quiet -= 1;
        match t {
            Some(t) if self.suppressed == suppressed => Some(t),
            _ => {
                self.pos = pos;
                self.suppressed = suppressed;
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> Option<Block> {
        let start = self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.stmt() {
                Some(s) => stmts.push(s),
                None => {
                    if self.pos == before {
                        self.bump();
                    }
                    self.recover_to(&[TokenKind::RBrace]);
                }
            }
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Some(Block {
            stmts,
            span: start.to(end),
        })
    }

    /// Skip a block by brace matching: a statement-less block spanning
    /// it, or a missing-`}` error at the end of input.
    fn skipped_block(&mut self) -> Option<Block> {
        let (tokens, open) = (self.tokens, self.pos);
        let mut depth = 0usize;
        for (i, t) in tokens[open..].iter().enumerate() {
            match t.kind {
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos = open + i + 1;
                        return Some(Block {
                            stmts: Vec::new(),
                            span: tokens[open].span.to(t.span),
                        });
                    }
                }
                _ => {}
            }
        }
        self.pos = tokens.len() - 1;
        self.expect(&TokenKind::RBrace);
        None
    }

    fn stmt(&mut self) -> Option<Stmt> {
        if !self.enter() {
            return None;
        }
        let s = self.stmt_inner();
        self.leave();
        s
    }

    fn stmt_inner(&mut self) -> Option<Stmt> {
        let start = self.span_here();
        match self.peek().clone() {
            TokenKind::LBrace => {
                let b = self.block()?;
                let span = b.span;
                Some(Stmt {
                    kind: StmtKind::Block(b),
                    span,
                })
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let then_branch = Box::new(self.stmt()?);
                let else_branch = if self.eat(&TokenKind::KwElse) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Some(Stmt {
                    span: start.to(self.prev_span()),
                    kind: StmtKind::If {
                        cond,
                        then_branch,
                        else_branch,
                    },
                })
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Some(Stmt {
                    span: start.to(self.prev_span()),
                    kind: StmtKind::While { cond, body },
                })
            }
            TokenKind::KwSwitch => self.switch_stmt(start),
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.expect(&TokenKind::Semi)?;
                Some(Stmt {
                    kind: StmtKind::Return(value),
                    span: start.to(end),
                })
            }
            TokenKind::KwFree => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let end = self.expect(&TokenKind::Semi)?;
                Some(Stmt {
                    kind: StmtKind::Free(e),
                    span: start.to(end),
                })
            }
            _ => {
                // Try a local declaration / nested function first.
                if let Some(s) = self.speculate(|p| p.local_or_nested_fun(start)) {
                    return Some(s);
                }
                // Otherwise: expression statement, assignment, or incr/decr.
                let e = self.expr()?;
                if self.eat(&TokenKind::Eq) {
                    let rhs = self.expr()?;
                    let end = self.expect(&TokenKind::Semi)?;
                    Some(Stmt {
                        kind: StmtKind::Assign { lhs: e, rhs },
                        span: start.to(end),
                    })
                } else if self.eat(&TokenKind::PlusPlus) {
                    let end = self.expect(&TokenKind::Semi)?;
                    Some(Stmt {
                        kind: StmtKind::Incr(e),
                        span: start.to(end),
                    })
                } else if self.eat(&TokenKind::MinusMinus) {
                    let end = self.expect(&TokenKind::Semi)?;
                    Some(Stmt {
                        kind: StmtKind::Decr(e),
                        span: start.to(end),
                    })
                } else {
                    let end = self.expect(&TokenKind::Semi)?;
                    Some(Stmt {
                        kind: StmtKind::Expr(e),
                        span: start.to(end),
                    })
                }
            }
        }
    }

    /// Speculative parse of `Type Name ...` forms: local declarations and
    /// nested function definitions.
    fn local_or_nested_fun(&mut self, start: Span) -> Option<Stmt> {
        let ty = self.ty_quiet()?;
        let name = if let TokenKind::Ident(n) = self.peek().clone() {
            let t = self.bump();
            self.mk_ident(n, t.span)
        } else {
            return None;
        };
        match self.peek() {
            TokenKind::Semi => {
                let end = self.bump().span;
                Some(Stmt {
                    kind: StmtKind::Local {
                        ty,
                        name,
                        init: None,
                    },
                    span: start.to(end),
                })
            }
            TokenKind::Eq => {
                self.bump();
                let init = self.expr()?;
                let end = if self.at(&TokenKind::Semi) {
                    self.bump().span
                } else {
                    return None;
                };
                Some(Stmt {
                    kind: StmtKind::Local {
                        ty,
                        name,
                        init: Some(init),
                    },
                    span: start.to(end),
                })
            }
            TokenKind::LParen => {
                // Nested function definition.
                self.bump();
                let mut params = Vec::new();
                if !self.at(&TokenKind::RParen) {
                    loop {
                        let pty = self.ty_quiet()?;
                        let pname = if let TokenKind::Ident(n) = self.peek().clone() {
                            let t = self.bump();
                            Some(self.mk_ident(n, t.span))
                        } else {
                            None
                        };
                        params.push(FunParam {
                            ty: pty,
                            name: pname,
                        });
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                if !self.eat(&TokenKind::RParen) {
                    return None;
                }
                let effect = self.opt_effect()?;
                if !self.at(&TokenKind::LBrace) {
                    return None;
                }
                let body = self.block()?;
                let span = start.to(self.prev_span());
                Some(Stmt {
                    kind: StmtKind::NestedFun(Box::new(FunDecl {
                        ret: ty,
                        name,
                        tparams: Vec::new(),
                        params,
                        effect,
                        body: Some(body),
                        span,
                    })),
                    span,
                })
            }
            _ => None,
        }
    }

    fn switch_stmt(&mut self, start: Span) -> Option<Stmt> {
        self.bump(); // switch
        self.expect(&TokenKind::LParen)?;
        let scrutinee = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::LBrace)?;
        let mut arms = Vec::new();
        while self.at(&TokenKind::KwCase) {
            let case_start = self.bump().span;
            let ctor = match self.peek().clone() {
                TokenKind::CtorIdent(n) => {
                    let t = self.bump();
                    self.mk_ident(n, t.span)
                }
                other => {
                    self.error_here(|p| {
                        format!(
                            "expected constructor pattern after `case`, found {}",
                            other.describe(p.interner)
                        )
                    });
                    return None;
                }
            };
            let mut binders = Vec::new();
            if self.eat(&TokenKind::LParen) {
                if !self.at(&TokenKind::RParen) {
                    loop {
                        match self.peek().clone() {
                            TokenKind::Underscore => {
                                let t = self.bump();
                                binders.push(PatBinder::Wild(t.span));
                            }
                            TokenKind::Ident(n) => {
                                let t = self.bump();
                                binders.push(PatBinder::Name(self.mk_ident(n, t.span)));
                            }
                            other => {
                                self.error_here(|p| {
                                    format!(
                                        "expected pattern binder, found {}",
                                        other.describe(p.interner)
                                    )
                                });
                                return None;
                            }
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
            }
            self.expect(&TokenKind::Colon)?;
            let mut body = Vec::new();
            while !self.at(&TokenKind::KwCase)
                && !self.at(&TokenKind::RBrace)
                && !self.at(&TokenKind::Eof)
            {
                body.push(self.stmt()?);
            }
            arms.push(SwitchArm {
                ctor,
                binders,
                body,
                span: case_start.to(self.prev_span()),
            });
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Some(Stmt {
            kind: StmtKind::Switch { scrutinee, arms },
            span: start.to(end),
        })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Option<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.and_expr()?;
        while self.at(&TokenKind::OrOr) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = bin(BinOp::Or, lhs, rhs);
        }
        Some(lhs)
    }

    fn and_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.equality_expr()?;
        while self.at(&TokenKind::AndAnd) {
            self.bump();
            let rhs = self.equality_expr()?;
            lhs = bin(BinOp::And, lhs, rhs);
        }
        Some(lhs)
    }

    fn equality_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.rel_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::Ne,
                _ => break,
            };
            self.bump();
            let rhs = self.rel_expr()?;
            lhs = bin(op, lhs, rhs);
        }
        Some(lhs)
    }

    fn rel_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            self.bump();
            let rhs = self.add_expr()?;
            lhs = bin(op, lhs, rhs);
        }
        Some(lhs)
    }

    fn add_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = bin(op, lhs, rhs);
        }
        Some(lhs)
    }

    fn mul_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = bin(op, lhs, rhs);
        }
        Some(lhs)
    }

    fn unary_expr(&mut self) -> Option<Expr> {
        if !self.enter() {
            return None;
        }
        let e = self.unary_expr_inner();
        self.leave();
        e
    }

    fn unary_expr_inner(&mut self) -> Option<Expr> {
        let start = self.span_here();
        match self.peek() {
            TokenKind::Bang => {
                self.bump();
                let e = self.unary_expr()?;
                let span = start.to(e.span);
                Some(Expr {
                    kind: ExprKind::Unary(UnOp::Not, Box::new(e)),
                    span,
                })
            }
            TokenKind::Minus => {
                self.bump();
                let e = self.unary_expr()?;
                let span = start.to(e.span);
                Some(Expr {
                    kind: ExprKind::Unary(UnOp::Neg, Box::new(e)),
                    span,
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Option<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    let field = self.ident()?;
                    let span = e.span.to(field.span);
                    e = Expr {
                        kind: ExprKind::Field(Box::new(e), field),
                        span,
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    let end = self.expect(&TokenKind::RBracket)?;
                    let span = e.span.to(end);
                    e = Expr {
                        kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                        span,
                    };
                }
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(&TokenKind::RParen)?;
                    let span = e.span.to(end);
                    e = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(e),
                            targs: Vec::new(),
                            args,
                        },
                        span,
                    };
                }
                TokenKind::Lt => {
                    // Possible explicit type arguments on a call:
                    // `f<int>(x)`. Only commit if `<targs>(` parses.
                    let committed = self.speculate(|p| {
                        let targs = p.opt_type_args()?;
                        if targs.is_empty() || !p.at(&TokenKind::LParen) {
                            return None;
                        }
                        p.bump(); // (
                        let mut args = Vec::new();
                        if !p.at(&TokenKind::RParen) {
                            loop {
                                args.push(p.expr()?);
                                if !p.eat(&TokenKind::Comma) {
                                    break;
                                }
                            }
                        }
                        let end = if p.at(&TokenKind::RParen) {
                            p.bump().span
                        } else {
                            return None;
                        };
                        Some((targs, args, end))
                    });
                    match committed {
                        Some((targs, args, end)) => {
                            let span = e.span.to(end);
                            e = Expr {
                                kind: ExprKind::Call {
                                    callee: Box::new(e),
                                    targs,
                                    args,
                                },
                                span,
                            };
                        }
                        None => break,
                    }
                }
                _ => break,
            }
        }
        Some(e)
    }

    fn primary_expr(&mut self) -> Option<Expr> {
        let start = self.span_here();
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::IntLit(n),
                    span: start,
                })
            }
            TokenKind::KwTrue => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::BoolLit(true),
                    span: start,
                })
            }
            TokenKind::KwFalse => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::BoolLit(false),
                    span: start,
                })
            }
            TokenKind::Str(s) => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::StrLit(s),
                    span: start,
                })
            }
            TokenKind::Ident(n) => {
                self.bump();
                Some(Expr {
                    kind: ExprKind::Var(self.mk_ident(n, start)),
                    span: start,
                })
            }
            TokenKind::CtorIdent(n) => {
                self.bump();
                let name = self.mk_ident(n, start);
                let mut args = Vec::new();
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                }
                let keys = if self.at(&TokenKind::LBrace) {
                    self.key_capture_list()?
                } else {
                    Vec::new()
                };
                Some(Expr {
                    span: start.to(self.prev_span()),
                    kind: ExprKind::Ctor { name, args, keys },
                })
            }
            TokenKind::KwNew => {
                self.bump();
                let region = if self.at(&TokenKind::LParen) {
                    self.bump();
                    let r = self.expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Some(Box::new(r))
                } else {
                    self.eat(&TokenKind::KwTracked);
                    None
                };
                let ty = self.ident()?;
                let targs = self.opt_type_args()?;
                self.expect(&TokenKind::LBrace)?;
                let mut inits = Vec::new();
                while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
                    let fname = self.ident()?;
                    self.expect(&TokenKind::Eq)?;
                    let value = self.expr()?;
                    inits.push(FieldInit { name: fname, value });
                    if !self.eat(&TokenKind::Semi) {
                        self.eat(&TokenKind::Comma);
                    }
                }
                let end = self.expect(&TokenKind::RBrace)?;
                Some(Expr {
                    kind: ExprKind::New {
                        region,
                        ty,
                        targs,
                        inits,
                    },
                    span: start.to(end),
                })
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Some(e)
            }
            other => {
                self.error_here(|p| {
                    format!(
                        "expected an expression, found {}",
                        other.describe(p.interner)
                    )
                });
                None
            }
        }
    }
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    let span = lhs.span.to(rhs.span);
    Expr {
        kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        let mut diags = DiagSink::new();
        let p = parse_program(src, &mut diags);
        assert!(
            !diags.has_errors(),
            "unexpected parse errors for {src:?}: {:#?}",
            diags.diagnostics()
        );
        p
    }

    #[test]
    fn parses_region_interface() {
        let p = parse_ok(
            "interface REGION {\n\
               type region;\n\
               tracked(R) region create() [new R];\n\
               void delete(tracked(R) region) [-R];\n\
             }",
        );
        assert_eq!(p.decls.len(), 1);
        let Decl::Interface(i) = &p.decls[0] else {
            panic!("expected interface");
        };
        assert_eq!(i.name.name, "REGION");
        assert_eq!(i.decls.len(), 3);
        let Decl::Fun(create) = &i.decls[1] else {
            panic!("expected fun");
        };
        assert_eq!(create.name.name, "create");
        let eff = create.effect.as_ref().expect("effect");
        assert!(matches!(&eff.items[0], EffectItem::Fresh { key, .. } if key.name == "R"));
    }

    #[test]
    fn parses_fig2_okay() {
        let p = parse_ok(
            "void okay() {\n\
               tracked(R) region rgn = Region.create();\n\
               R:point pt = new(rgn) point {x=1; y=2;};\n\
               pt.x++;\n\
               Region.delete(rgn);\n\
             }",
        );
        let f = &p.functions()[0];
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 4);
        assert!(matches!(&body.stmts[0].kind, StmtKind::Local { ty, .. }
            if matches!(&ty.kind, TypeKind::Tracked { key: Some(k), .. } if k.name == "R")));
        assert!(
            matches!(&body.stmts[1].kind, StmtKind::Local { ty, init: Some(init), .. }
            if matches!(&ty.kind, TypeKind::Guarded { .. })
            && matches!(&init.kind, ExprKind::New { region: Some(_), .. }))
        );
        assert!(matches!(&body.stmts[2].kind, StmtKind::Incr(_)));
    }

    #[test]
    fn parses_variant_with_captures() {
        let p = parse_ok("variant opt_key<key K> [ 'NoKey | 'SomeKey {K} ];");
        let Decl::Variant(v) = &p.decls[0] else {
            panic!("expected variant");
        };
        assert_eq!(v.ctors.len(), 2);
        assert!(v.ctors[0].captures.is_empty());
        assert_eq!(v.ctors[1].captures.len(), 1);
        assert_eq!(v.ctors[1].captures[0].key.name, "K");
    }

    #[test]
    fn parses_status_variant_with_states() {
        let p = parse_ok("variant status<key K> [ 'Ok {K@named} | 'Error(error_code){K@raw} ];");
        let Decl::Variant(v) = &p.decls[0] else {
            panic!("expected variant");
        };
        let ok = &v.ctors[0];
        assert!(matches!(&ok.captures[0].state, Some(StateRef::Name(s)) if s.name == "named"));
        let err = &v.ctors[1];
        assert_eq!(err.args.len(), 1);
        assert!(matches!(&err.captures[0].state, Some(StateRef::Name(s)) if s.name == "raw"));
    }

    #[test]
    fn parses_socket_interface_effects() {
        let p = parse_ok(
            "void bind(tracked(S) sock, sockaddr) [S@raw->named];\n\
             tracked(N) sock accept(tracked(S) sock, sockaddr) [S@listening, new N@ready];",
        );
        let funs = p.functions();
        let bind_eff = funs[0].effect.as_ref().expect("effect");
        assert!(matches!(
            &bind_eff.items[0],
            EffectItem::Keep { key, from: Some(StateRef::Name(f)), to: Some(t) }
                if key.name == "S" && f.name == "raw" && t.name == "named"
        ));
        let accept_eff = funs[1].effect.as_ref().expect("effect");
        assert_eq!(accept_eff.items.len(), 2);
        assert!(matches!(
            &accept_eff.items[1],
            EffectItem::Fresh { key, state: Some(s) } if key.name == "N" && s.name == "ready"
        ));
    }

    #[test]
    fn parses_uses_capability_items() {
        let p = parse_ok(
            "void dial() [new C, uses net, uses alloc];\n\
             void keyed() [uses, uses @raw];",
        );
        let funs = p.functions();
        let dial = funs[0].effect.as_ref().expect("effect");
        assert_eq!(dial.items.len(), 3);
        assert!(matches!(&dial.items[1], EffectItem::Uses { cap } if cap.name == "net"));
        assert!(matches!(&dial.items[2], EffectItem::Uses { cap } if cap.name == "alloc"));
        // A key literally named `uses` still parses as a Keep item when
        // not followed by an identifier.
        let keyed = funs[1].effect.as_ref().expect("effect");
        assert!(matches!(&keyed.items[0], EffectItem::Keep { key, .. } if key.name == "uses"));
        assert!(
            matches!(&keyed.items[1], EffectItem::Keep { key, from: Some(_), .. } if key.name == "uses")
        );
    }

    #[test]
    fn parses_stateset_and_global_key() {
        let p = parse_ok(
            "stateset IRQ_LEVEL = [ PASSIVE_LEVEL < APC_LEVEL < DISPATCH_LEVEL < DIRQL ];\n\
             key IRQL @ IRQ_LEVEL;",
        );
        let Decl::Stateset(s) = &p.decls[0] else {
            panic!("expected stateset");
        };
        assert_eq!(s.chains.len(), 1);
        assert_eq!(s.chains[0].len(), 4);
        let Decl::GlobalKey(k) = &p.decls[1] else {
            panic!("expected key decl");
        };
        assert_eq!(k.name.name, "IRQL");
        assert_eq!(
            k.stateset.as_ref().map(|i| i.name.as_str()),
            Some("IRQ_LEVEL")
        );
    }

    #[test]
    fn parses_bounded_state_effects() {
        let p = parse_ok(
            "long KeReleaseSemaphore(KSEMAPHORE k, KPRIORITY p, int n)\n\
               [ IRQL @ (level <= DISPATCH_LEVEL) ];\n\
             KIRQL<level> KeAcquireSpinLock(KSPIN_LOCK l)\n\
               [ IRQL @ (level <= DISPATCH_LEVEL) -> DISPATCH_LEVEL ];",
        );
        let funs = p.functions();
        let eff = funs[1].effect.as_ref().expect("effect");
        assert!(matches!(
            &eff.items[0],
            EffectItem::Keep {
                key,
                from: Some(StateRef::Bounded { var, bound }),
                to: Some(t),
            } if key.name == "IRQL" && var.name == "level"
                && bound.name == "DISPATCH_LEVEL" && t.name == "DISPATCH_LEVEL"
        ));
    }

    #[test]
    fn parses_switch_with_patterns() {
        let p = parse_ok(
            "void f(tracked reglist list) {\n\
               switch (list) {\n\
                 case 'Nil:\n\
                   return;\n\
                 case 'Cons(rgn2, _):\n\
                   rgn2.x++;\n\
               }\n\
             }",
        );
        let f = &p.functions()[0];
        let StmtKind::Switch { arms, .. } = &f.body.as_ref().unwrap().stmts[0].kind else {
            panic!("expected switch");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].ctor.name, "Cons");
        assert!(matches!(&arms[1].binders[0], PatBinder::Name(n) if n.name == "rgn2"));
        assert!(matches!(&arms[1].binders[1], PatBinder::Wild(_)));
    }

    #[test]
    fn parses_nested_function() {
        let p = parse_ok(
            "NTSTATUS PnpRequest(DEVICE_OBJECT Dev, tracked(I) IRP Irp) [-I] {\n\
               KEVENT<I> IrpIsBack = KeInitializeEvent(Irp);\n\
               COMPLETION_RESULT<I> RegainIrp(DEVICE_OBJECT D, tracked(I) IRP J) [-I] {\n\
                 KeSignalEvent(IrpIsBack);\n\
                 return 'MoreProcessingRequired;\n\
               }\n\
               IoSetCompletionRoutine(Irp, RegainIrp);\n\
             }",
        );
        let f = &p.functions()[0];
        let body = f.body.as_ref().unwrap();
        assert!(
            matches!(&body.stmts[1].kind, StmtKind::NestedFun(nf) if nf.name.name == "RegainIrp")
        );
    }

    #[test]
    fn parses_ctor_expression_with_keys() {
        let mut diags = DiagSink::new();
        let e = parse_expr("'SomeKey{F}", &mut diags).expect("expr");
        assert!(!diags.has_errors());
        let ExprKind::Ctor { name, keys, .. } = &e.kind else {
            panic!("expected ctor");
        };
        assert_eq!(name.name, "SomeKey");
        assert_eq!(keys[0].key.name, "F");
    }

    #[test]
    fn parses_fn_type_alias() {
        let p = parse_ok(
            "type COMPLETION_ROUTINE<key K> = tracked COMPLETION_RESULT<K> Routine(\n\
               DEVICE_OBJECT, tracked(K) IRP) [-K];",
        );
        let Decl::TypeAlias(a) = &p.decls[0] else {
            panic!("expected alias");
        };
        let Some(Type {
            kind: TypeKind::Fn(ft),
            ..
        }) = &a.body
        else {
            panic!("expected fn type, got {:?}", a.body);
        };
        assert_eq!(ft.params.len(), 2);
        assert!(ft.effect.is_some());
    }

    #[test]
    fn expression_statements_not_confused_with_types() {
        let p = parse_ok("void f(int a, int b) { a = a < b; Region.delete(a); a++; }");
        let body = p.functions()[0].body.as_ref().unwrap();
        assert!(matches!(&body.stmts[0].kind, StmtKind::Assign { .. }));
        assert!(matches!(&body.stmts[1].kind, StmtKind::Expr(e)
            if matches!(&e.kind, ExprKind::Call { .. })));
        assert!(matches!(&body.stmts[2].kind, StmtKind::Incr(_)));
    }

    #[test]
    fn parses_tuple_types() {
        let p = parse_ok("type regptpair = (tracked(R) region, R:point);");
        let Decl::TypeAlias(a) = &p.decls[0] else {
            panic!()
        };
        assert!(matches!(
            a.body.as_ref().map(|t| &t.kind),
            Some(TypeKind::Tuple(ts)) if ts.len() == 2
        ));
    }

    #[test]
    fn reports_unexpected_token() {
        let mut diags = DiagSink::new();
        parse_program("void f() { return }; }", &mut diags);
        assert!(diags.has_errors());
        assert!(diags.has_code(Code::ParseUnexpected));
    }

    #[test]
    fn free_statement() {
        let p = parse_ok("void f(tracked(K) point p) [-K] { free(p); }");
        let body = p.functions()[0].body.as_ref().unwrap();
        assert!(matches!(&body.stmts[0].kind, StmtKind::Free(_)));
    }

    #[test]
    fn recovery_continues_after_bad_decl() {
        let mut diags = DiagSink::new();
        let p = parse_program("int bad(; void g() { }", &mut diags);
        assert!(diags.has_errors());
        // g still parsed.
        assert!(p.functions().iter().any(|f| f.name.name == "g"));
    }

    /// Run `f` on a parser over `src` with a throwaway interner.
    fn with_parser<R>(src: &str, diags: &mut DiagSink, f: impl FnOnce(&mut Parser) -> R) -> R {
        let mut interner = Arc::default();
        let tokens = lex_into(src, diags, &mut interner);
        f(&mut Parser::new(
            &tokens,
            diags,
            DEFAULT_PARSER_DEPTH,
            &interner,
        ))
    }

    #[test]
    fn quiet_type_parse_rolls_back_what_a_failed_speculation_suppressed() {
        // `K@(x)` opens a guard whose bounded state lacks `<=`: the guard
        // speculation suppresses an error and fails, then the base type
        // `K` parses. The rollback must forget the suppressed error, or
        // the quiet parse would fail on a type that parses.
        let mut diags = DiagSink::new();
        with_parser("K@(x) v", &mut diags, |p| {
            let ty = p.ty_quiet().expect("the base type parses");
            assert!(matches!(&ty.kind, TypeKind::Named { name, .. } if name.name == "K"));
            assert_eq!((p.pos, p.suppressed, p.quiet), (1, 0, 0));
        });
        assert!(diags.diagnostics().is_empty());

        // A local whose type goes through a failed guard speculation
        // (here inside type arguments) still parses as a local.
        let prog = parse_ok("void f() { box<K> v; K@open : int w = 1; }");
        let body = prog.functions()[0].body.as_ref().unwrap();
        assert!(body
            .stmts
            .iter()
            .all(|s| matches!(s.kind, StmtKind::Local { .. })));
    }

    #[test]
    fn failed_quiet_type_parse_reports_nothing() {
        let mut diags = DiagSink::new();
        with_parser("tracked( ) v", &mut diags, |p| {
            assert!(p.ty_quiet().is_none());
            assert_eq!((p.pos, p.suppressed, p.quiet), (0, 0, 0));
        });
        assert!(diags.diagnostics().is_empty());
    }

    #[test]
    fn range_parse_keeps_whole_text_coordinates() {
        let src = "type T;\nvoid f() { int x = 1; }\nvoid g() { }\n";
        let start = src.find("void f").unwrap() as u32;
        let end = src.find("\nvoid g").unwrap() as u32;
        let mut diags = DiagSink::new();
        let p = parse_range_with_depth(src, Span::new(start, end), &mut diags, 64);
        assert!(diags.diagnostics().is_empty());
        assert_eq!(p.decls.len(), 1);
        assert_eq!(p.functions()[0].span, Span::new(start, end));

        // A range cut before the closing brace reports it missing at the
        // end of the whole text, as a parse of the blanked text would.
        let mut diags = DiagSink::new();
        parse_range_with_depth(src, Span::new(start, end - 1), &mut diags, 64);
        let d = &diags.diagnostics()[0];
        assert_eq!(d.span, Span::new(src.len() as u32, src.len() as u32));
        assert!(d.message.contains("end of input"), "{}", d.message);
    }
}
