//! Robustness: the front end must never panic, whatever bytes arrive. It
//! either parses or reports diagnostics.
//!
//! Every property runs over a fixed set of seeds of the workspace `rand`
//! generator, so a failure names the seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vault_syntax::{lexer, parse_program, DiagSink};

/// Inputs that once broke the front end, kept as fixed cases: an
/// unterminated string whose escape is followed by a multi-byte char.
const REGRESSIONS: &[&str] = &["\"\\¡"];

/// Any string of up to 200 chars: mostly printable ASCII, with control
/// chars, quotes and escapes, and chars of every UTF-8 length.
fn any_src(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..=200usize))
        .map(|_| match rng.gen_range(0u8..10) {
            0 => ['"', '\\', '\'', '\n', '\t', '\0'][rng.gen_range(0..6usize)],
            1 => char::from_u32(rng.gen_range(0x80u32..0x800)).unwrap(),
            2 => char::from_u32(rng.gen_range(0x800u32..0xD800)).unwrap(),
            3 => char::from_u32(rng.gen_range(0x10000u32..0x110000)).unwrap(),
            _ => char::from(rng.gen_range(0x20u8..0x7F)),
        })
        .collect()
}

/// Every fixed regression, then `cases` random strings.
fn sources(cases: u64) -> impl Iterator<Item = String> {
    REGRESSIONS
        .iter()
        .map(|s| s.to_string())
        .chain((0..cases).map(|seed| any_src(&mut StdRng::seed_from_u64(seed))))
}

/// The lexer is total over arbitrary strings.
#[test]
fn lexer_never_panics() {
    for src in sources(256) {
        let mut diags = DiagSink::new();
        let toks = lexer::lex(&src, &mut diags);
        // Always terminated by EOF.
        assert!(
            matches!(
                toks.last().map(|t| &t.kind),
                Some(vault_syntax::token::TokenKind::Eof)
            ),
            "{src:?}"
        );
    }
}

/// The parser is total over arbitrary strings.
#[test]
fn parser_never_panics() {
    for src in sources(256) {
        let mut diags = DiagSink::new();
        let _ = parse_program(&src, &mut diags);
    }
}

/// The parser is total over token-shaped soup (valid lexemes, random
/// order) — the harder case for recovery logic.
#[test]
fn parser_survives_token_soup() {
    const LEXEMES: &[&str] = &[
        "struct", "variant", "type", "stateset", "key", "tracked", "new", "free", "switch", "case",
        "if", "else", "while", "return", "int", "void", "(", ")", "{", "}", "[", "]", "<", ">",
        ",", ";", ":", "@", "=", "->", "|", "'Ctor", "x", "K", "42", "+", "-",
    ];
    for seed in 0..256 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let tokens: Vec<&str> = (0..rng.gen_range(0..60usize))
            .map(|_| LEXEMES[rng.gen_range(0..LEXEMES.len())])
            .collect();
        let mut diags = DiagSink::new();
        let _ = parse_program(&tokens.join(" "), &mut diags);
    }
}

/// The front end is total over near-miss programs: a valid program with
/// random text spliced in at a random point.
#[test]
fn parser_total_over_mutated_sources() {
    const BASES: &[&str] = &[
        "type FILE;\ntracked(F) FILE fopen(string p) [new F];\nvoid fclose(tracked(F) FILE f) [-F];\nvoid f() { tracked(F) FILE x = fopen(\"a\"); fclose(x); }",
        "variant v<key K> [ 'A | 'B {K} ];\nvoid g(tracked(X) int p) [-X];",
        "stateset S = [ a < b ];\nkey G @ S;\nvoid h() [G@a] { }",
    ];
    const INSERT: &[u8] = b"abcdefghijklmnopqrstuvwxyz{}();@ ";
    for seed in 0..256 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let base = BASES[rng.gen_range(0..BASES.len())];
        let mut cut = rng.gen_range(0..400usize).min(base.len());
        while !base.is_char_boundary(cut) {
            cut -= 1;
        }
        let insert: String = (0..rng.gen_range(0..=12usize))
            .map(|_| INSERT[rng.gen_range(0..INSERT.len())] as char)
            .collect();
        let mutated = format!("{}{insert}{}", &base[..cut], &base[cut..]);
        let mut diags = DiagSink::new();
        let _ = parse_program(&mutated, &mut diags);
    }
}
