//! Property tests of round-tripping: pretty-printing a parsed program and
//! re-parsing it reaches a fixpoint, for randomly generated expressions,
//! types, and effect clauses.
//!
//! Every property runs over a fixed set of seeds of the workspace `rand`
//! generator, so a failure names the seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vault_syntax::{parse_expr, parse_program, pretty, DiagSink};

// ---------------------------------------------------------------------
// Random source generators (strings in the surface grammar)
// ---------------------------------------------------------------------

fn pick<'s>(rng: &mut StdRng, items: &[&'s str]) -> &'s str {
    items[rng.gen_range(0..items.len())]
}

/// `[a-z][a-z0-9_]{0,6}`, never a keyword.
fn ident(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    loop {
        let mut s = String::new();
        s.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
        for _ in 0..rng.gen_range(0..=6usize) {
            s.push(REST[rng.gen_range(0..REST.len())] as char);
        }
        if vault_syntax::token::TokenKind::keyword(&s).is_none() {
            return s;
        }
    }
}

fn expr_src(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0u8..4) {
            0 => rng.gen_range(0i64..1000).to_string(),
            1 => ident(rng),
            2 => "true".to_string(),
            _ => "false".to_string(),
        };
    }
    match rng.gen_range(0u8..4) {
        0 => {
            let ops = ["+", "-", "*", "/", "==", "!=", "<", "<=", "&&", "||"];
            let (a, op, b) = (
                expr_src(rng, depth - 1),
                pick(rng, &ops),
                expr_src(rng, depth - 1),
            );
            format!("({a} {op} {b})")
        }
        1 => format!("!({})", expr_src(rng, depth - 1)),
        2 => {
            let f = ident(rng);
            let args: Vec<String> = (0..rng.gen_range(0..3usize))
                .map(|_| expr_src(rng, depth - 1))
                .collect();
            format!("{f}({})", args.join(", "))
        }
        _ => {
            let a = expr_src(rng, depth - 1);
            format!("({a}).{}", ident(rng))
        }
    }
}

fn type_src(rng: &mut StdRng) -> String {
    match rng.gen_range(0u8..7) {
        0 => "int".to_string(),
        1 => "bool".to_string(),
        2 => "void".to_string(),
        3 => "byte[]".to_string(),
        4 => ident(rng),
        5 => format!("tracked({}) sometype", ident(rng).to_uppercase()),
        _ => "tracked sometype".to_string(),
    }
}

fn effect_src(rng: &mut StdRng) -> String {
    let items: Vec<String> = (0..rng.gen_range(1..4usize))
        .map(|_| {
            let k = ident(rng).to_uppercase();
            match rng.gen_range(0u8..6) {
                0 => k,
                1 => format!("-{k}"),
                2 => format!("+{k}"),
                3 => format!("new {k}"),
                4 => format!("{k}@{}", ident(rng)),
                _ => format!("{k}@{} -> {}", ident(rng), ident(rng)),
            }
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Print → parse → print is a fixpoint for `src`, unless `src` itself
/// does not parse (the generators may produce junk identifiers only).
/// Returns whether `src` parsed.
fn parse_print_fixpoint(seed: u64, src: &str) -> bool {
    let mut d1 = DiagSink::new();
    let p1 = parse_program(src, &mut d1);
    if d1.has_errors() {
        return false;
    }
    let printed1 = pretty::program_to_string(&p1);
    let mut d2 = DiagSink::new();
    let p2 = parse_program(&printed1, &mut d2);
    assert!(
        !d2.has_errors(),
        "seed {seed}: printed output failed to reparse:\n{printed1}\n{:?}",
        d2.diagnostics()
    );
    assert_eq!(printed1, pretty::program_to_string(&p2), "seed {seed}");
    true
}

/// Run `property` once per seed in `0..128`.
fn for_seeds(mut property: impl FnMut(u64, &mut StdRng)) {
    for seed in 0..128 {
        property(seed, &mut StdRng::seed_from_u64(seed));
    }
}

/// Expressions round-trip through print → parse → print.
#[test]
fn expr_round_trip() {
    for_seeds(|seed, rng| {
        let src = expr_src(rng, 3);
        let mut d1 = DiagSink::new();
        let Some(e1) = parse_expr(&src, &mut d1) else {
            panic!("seed {seed}: generator produced unparseable `{src}`");
        };
        assert!(
            !d1.has_errors(),
            "seed {seed}: {src}: {:?}",
            d1.diagnostics()
        );
        let printed1 = pretty::expr_to_string(&e1);
        let mut d2 = DiagSink::new();
        let e2 = parse_expr(&printed1, &mut d2).expect("reparse");
        assert!(!d2.has_errors(), "seed {seed}: {printed1}");
        assert_eq!(printed1, pretty::expr_to_string(&e2), "seed {seed}");
    });
}

/// Function signatures with random types and effects round-trip.
#[test]
fn signature_round_trip() {
    let mut parsed = 0;
    for_seeds(|seed, rng| {
        let ret = type_src(rng);
        if ret == "byte[]" {
            return; // return arrays aside, keep it simple
        }
        let name = ident(rng);
        let params: Vec<String> = (0..rng.gen_range(0..3usize))
            .map(|i| format!("{} p{i}", type_src(rng)))
            .collect();
        let eff = effect_src(rng);
        let src = format!("type sometype;\n{ret} {name}({}) {eff};", params.join(", "));
        parsed += usize::from(parse_print_fixpoint(seed, &src));
    });
    assert!(parsed > 64, "only {parsed} generated signatures parsed");
}

/// Statement-heavy bodies round-trip.
#[test]
fn body_round_trip() {
    let mut parsed = 0;
    for_seeds(|seed, rng| {
        let stmts: Vec<String> = (0..rng.gen_range(1..6usize))
            .map(|_| format!("  x = {};", expr_src(rng, 2)))
            .collect();
        let cond = expr_src(rng, 1);
        let src = format!(
            "void f(int x, bool b) {{\n{}\n  if ({cond}) {{ x = 1; }} else {{ x = 2; }}\n  \
             while (b) {{ x = x + 1; }}\n  return;\n}}",
            stmts.join("\n")
        );
        parsed += usize::from(parse_print_fixpoint(seed, &src));
    });
    assert!(parsed > 64, "only {parsed} generated bodies parsed");
}
