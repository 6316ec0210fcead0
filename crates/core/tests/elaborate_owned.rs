//! By-value elaboration (`elaborate_owned`, the path of every caller
//! that keeps no AST) against by-reference elaboration (`elaborate`,
//! which clones the bodies): the same bodies in the same flattened
//! order, the same diagnostics, the same declaration tables — and so
//! the same summaries from `check_summary*` as from `check_source*`.

use vault_core::{
    check_source, check_source_with_limits, check_summary, check_summary_with_limits,
    check_summary_with_prelude, elaborate, elaborate_owned, CheckSummary, Limits,
};
use vault_corpus::synth::{self, Shape, SynthConfig};
use vault_syntax::{parse_program, Attribution, DiagSink};

/// Interfaces with bodies, a module, and duplicated declarations at top
/// level and across an interface.
const NESTED_AND_DUPLICATED: &str = "\
interface A {
  type T;
  void f() { int x = 1; }
  void g();
}
module B {
  void f() { int y = 2; }
  void k() { }
}
void f() { }
void h() { int z = 3; }
void h() { }
";

fn units() -> Vec<(String, String)> {
    let mut units: Vec<(String, String)> = vault_corpus::all_programs()
        .into_iter()
        .map(|p| (p.id.to_string(), p.source))
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
            let source = synth::generate(&SynthConfig {
                functions: 12,
                stmts_per_fn: 8,
                seed,
                bug_rate: 0.3,
                shape,
            })
            .source;
            units.push((format!("{shape:?}_{seed}"), source));
        }
    }
    units.push(("nested".into(), NESTED_AND_DUPLICATED.into()));
    units
}

fn assert_elaborations_agree(name: &str, src: &str) {
    let (mut by_ref_diags, mut by_value_diags) = (DiagSink::new(), DiagSink::new());
    let program = parse_program(src, &mut by_ref_diags);
    let by_ref = elaborate(&program, &mut by_ref_diags);
    let by_value = elaborate_owned(parse_program(src, &mut by_value_diags), &mut by_value_diags);
    assert_eq!(
        format!("{:?}", by_ref.bodies),
        format!("{:?}", by_value.bodies),
        "{name}: bodies"
    );
    assert_eq!(
        by_ref_diags.diagnostics(),
        by_value_diags.diagnostics(),
        "{name}: diagnostics"
    );
    assert_eq!(
        format!("{:?}", by_ref.world),
        format!("{:?}", by_value.world),
        "{name}: world"
    );
    assert_eq!(by_ref.qualifiers, by_value.qualifiers, "{name}: qualifiers");
}

#[test]
fn by_value_and_by_reference_elaboration_agree() {
    for (name, src) in units() {
        assert_elaborations_agree(&name, &src);
    }
}

#[test]
fn bodies_come_out_flattened_with_duplicates() {
    let mut diags = DiagSink::new();
    let e = elaborate_owned(parse_program(NESTED_AND_DUPLICATED, &mut diags), &mut diags);
    let names: Vec<&str> = e.bodies.iter().map(|f| &*f.name.name).collect();
    assert_eq!(names, ["f", "f", "k", "f", "h", "h"]);
    assert!(diags.has_code(vault_syntax::Code::DuplicateDecl));
}

#[test]
fn summaries_without_an_ast_match_the_full_result() {
    for (name, src) in units() {
        assert_eq!(
            check_summary(&name, &src),
            CheckSummary::of(&name, &check_source(&name, &src)),
            "{name}"
        );
    }
    let prelude = "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n}\n";
    let unit = "void leak() {\n  tracked(F) FILE f = FS.fopen();\n}\n";
    let limits = Limits::default();
    let attr = Attribution::with_prelude("app", prelude, unit);
    let full = check_source_with_limits("app", attr.full_text(), &limits);
    let want = CheckSummary {
        name: "app".into(),
        verdict: full.verdict(),
        diagnostics: full.diagnostics.iter().map(|d| attr.view(d)).collect(),
        stats: full.stats,
    };
    let got = check_summary_with_prelude("app", prelude, unit, &limits);
    assert!(!got.diagnostics.is_empty(), "the leak is reported");
    assert_eq!(got, want);
}

#[test]
fn an_empty_prelude_checks_the_plain_unit() {
    let limits = Limits::default();
    for (name, src) in units() {
        assert_eq!(
            check_summary_with_prelude(&name, "", &src, &limits),
            check_summary_with_limits(&name, &src, &limits),
            "{name}"
        );
    }
}
