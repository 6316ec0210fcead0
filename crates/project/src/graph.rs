//! The import dependency DAG: export surfaces, fingerprints, cycle
//! detection, topological planning, and the sequential reference
//! checker.

use std::collections::BTreeSet;

use vault_core::{check_summary_with_prelude, CheckStats, CheckSummary, Limits, Verdict};
use vault_syntax::ast::Decl;
use vault_syntax::diag::Diagnostic;
use vault_syntax::intern::{fnv1a, FNV_OFFSET};
use vault_syntax::{Attribution, Code, DiagSink, ImportDecl, Program, Span};

/// Domain separator folded into every project fingerprint so project
/// cache entries can never collide with single-unit fingerprints (the
/// service shares one verdict cache between both modes).
const PROJECT_FP_TAG: &[u8] = b"vault-project-unit-v1";

/// One named compilation unit of a project, in manifest order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProjectUnit {
    /// The manifest name other units use in `import "name";`.
    pub name: String,
    /// Vault source text.
    pub source: String,
}

impl ProjectUnit {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        ProjectUnit {
            name: name.into(),
            source: source.into(),
        }
    }
}

/// Everything the scheduler needs to know about one unit, precomputed
/// from parsing alone (no checking): resolved dependencies, the
/// signature prelude, and both fingerprints.
#[derive(Clone, Debug)]
pub struct UnitPlan {
    /// Position in the manifest (and in [`ProjectPlan::units`]).
    pub index: usize,
    /// The unit's manifest name.
    pub name: String,
    /// Direct dependencies (manifest indices), in import order, deduped.
    pub deps: Vec<usize>,
    /// Transitive dependencies (manifest indices), in topological order.
    /// Empty for cyclic units.
    pub transitive: Vec<usize>,
    /// FNV-1a hash of the unit's export surface (bodies stripped,
    /// imports dropped). Changes only when the unit's *interface*
    /// changes — the cutoff signal for downstream invalidation.
    pub export_fingerprint: u64,
    /// Hash of the unit's name, full source, and the export
    /// fingerprints of its transitive dependencies: the cache key for
    /// this unit's verdict within the project.
    pub project_fingerprint: u64,
    /// Concatenated export surfaces of the transitive dependencies, in
    /// topological order — prepended (as text) when the unit is checked.
    pub prelude: String,
    /// Graph-level diagnostics (`V601` import cycle, `V602` unresolved
    /// import), already rendered in the unit's own coordinates.
    pub graph_diags: Vec<vault_syntax::DiagView>,
    /// Whether the unit is part of, or depends on, an import cycle.
    /// Cyclic units are not checked; their verdict is the `V601` error.
    pub cyclic: bool,
}

/// A deterministic build plan for a whole project.
#[derive(Clone, Debug)]
pub struct ProjectPlan {
    /// Per-unit plans, in manifest order.
    pub units: Vec<UnitPlan>,
    /// Check order: a topological sort of the acyclic portion, with
    /// manifest position breaking ties (so the order is a pure function
    /// of the manifest). Cyclic units are excluded.
    pub order: Vec<usize>,
}

/// The `import` declarations of a parsed program, in source order.
pub fn imports_of(program: &Program) -> Vec<ImportDecl> {
    program
        .decls
        .iter()
        .filter_map(|d| match d {
            Decl::Import(i) => Some(i.clone()),
            _ => None,
        })
        .collect()
}

/// A unit's *export surface*: the pretty-printed program with `import`
/// declarations dropped and every function body stripped to a
/// signature. This is exactly what dependent units elaborate against —
/// bodies are never needed across unit boundaries, so a body edit
/// leaves the surface (and its fingerprint) unchanged.
pub fn export_surface(program: &Program) -> String {
    let mut p = program.clone();
    p.decls.retain(|d| !matches!(d, Decl::Import(_)));
    for d in &mut p.decls {
        if let Decl::Fun(f) = d {
            f.body = None;
        }
    }
    vault_syntax::pretty::program_to_string(&p)
}

impl ProjectPlan {
    /// Parse every unit, resolve imports, detect cycles, and compute
    /// the deterministic check order plus per-unit fingerprints and
    /// preludes. Parsing here is only for the *graph*; parse errors
    /// surface later when the unit itself is checked.
    pub fn build(units: &[ProjectUnit], parser_depth: usize) -> ProjectPlan {
        // Parse each unit once: imports + export surface.
        let mut imports: Vec<Vec<ImportDecl>> = Vec::with_capacity(units.len());
        let mut surfaces: Vec<String> = Vec::with_capacity(units.len());
        for u in units {
            let mut sink = DiagSink::new();
            let program =
                vault_syntax::parse_program_with_depth(&u.source, &mut sink, parser_depth);
            imports.push(imports_of(&program));
            surfaces.push(export_surface(&program));
        }

        // Resolve import names against manifest names (first occurrence
        // wins on duplicates; `Manifest::parse` rejects duplicates at
        // load time).
        let mut by_name: std::collections::BTreeMap<&str, usize> =
            std::collections::BTreeMap::new();
        for (i, u) in units.iter().enumerate() {
            by_name.entry(u.name.as_str()).or_insert(i);
        }

        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
        let mut unresolved: Vec<Vec<Diagnostic>> = vec![Vec::new(); units.len()];
        for (i, unit_imports) in imports.iter().enumerate() {
            for imp in unit_imports {
                match by_name.get(imp.path.as_str()) {
                    Some(&dep) => {
                        if !deps[i].contains(&dep) {
                            deps[i].push(dep);
                        }
                    }
                    None => unresolved[i].push(Diagnostic::error(
                        Code::UnresolvedImport,
                        imp.path_span,
                        format!(
                            "cannot resolve import \"{}\": no unit with that name in the project",
                            imp.path
                        ),
                    )),
                }
            }
        }

        // Kahn's algorithm with minimum-manifest-index selection: the
        // resulting order is a pure function of the manifest, so
        // parallel schedules built from it reassemble identically.
        let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                dependents[d].push(i);
            }
        }
        let mut ready: BTreeSet<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(units.len());
        while let Some(&next) = ready.iter().next() {
            ready.remove(&next);
            order.push(next);
            for &dep in &dependents[next] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    ready.insert(dep);
                }
            }
        }

        // Whatever Kahn could not schedule is in a cycle or downstream
        // of one. Every such unit gets the same stable V601 diagnostic.
        let scheduled: BTreeSet<usize> = order.iter().copied().collect();
        let cyclic_names: Vec<&str> = units
            .iter()
            .enumerate()
            .filter(|(i, _)| !scheduled.contains(i))
            .map(|(_, u)| u.name.as_str())
            .collect();

        let mut rank = vec![usize::MAX; units.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }

        // Transitive closures in topological order; preludes and
        // fingerprints fall out of them.
        let mut transitive: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
        for &i in &order {
            let mut closure: BTreeSet<usize> = BTreeSet::new();
            for &d in &deps[i] {
                if scheduled.contains(&d) {
                    closure.insert(d);
                    closure.extend(transitive[d].iter().copied());
                }
            }
            let mut ordered: Vec<usize> = closure.into_iter().collect();
            ordered.sort_by_key(|&u| rank[u]);
            transitive[i] = ordered;
        }

        let mut plans = Vec::with_capacity(units.len());
        for (i, u) in units.iter().enumerate() {
            let cyclic = !scheduled.contains(&i);
            let attr = Attribution::plain(&u.name, &u.source);
            let mut graph_diags = Vec::new();
            if cyclic {
                let span = imports[i]
                    .first()
                    .map(|imp| imp.span)
                    .unwrap_or_else(|| Span::new(0, 0));
                let names = cyclic_names
                    .iter()
                    .map(|n| format!("`{n}`"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let d = Diagnostic::error(
                    Code::ImportCycle,
                    span,
                    format!(
                        "unit `{}` participates in or depends on an import cycle among {names}; \
                         the import graph must be acyclic",
                        u.name
                    ),
                );
                graph_diags.push(attr.view(&d));
            }
            for d in &unresolved[i] {
                graph_diags.push(attr.view(d));
            }

            let mut prelude = String::new();
            for &d in &transitive[i] {
                prelude.push_str(&surfaces[d]);
                if !prelude.ends_with('\n') {
                    prelude.push('\n');
                }
            }

            let export_fingerprint = fnv1a(FNV_OFFSET, surfaces[i].as_bytes());
            let mut fp = fnv1a(FNV_OFFSET, PROJECT_FP_TAG);
            fp = fnv1a(fp, u.name.as_bytes());
            fp = fnv1a(fp, &[0]);
            fp = fnv1a(fp, u.source.as_bytes());
            for &d in &transitive[i] {
                fp = fnv1a(fp, &[0]);
                fp = fnv1a(fp, units[d].name.as_bytes());
                fp = fnv1a(fp, &fnv1a(FNV_OFFSET, surfaces[d].as_bytes()).to_le_bytes());
            }
            // Graph diagnostics (V601/V602) are part of the unit's
            // output but depend on the *whole manifest*, not just the
            // unit and its resolved dependencies — e.g. whether an
            // import resolves at all, or which peers share a cycle.
            // Absorbing their rendering makes the fingerprint a complete
            // key of the summary, so verdict caches can never leak a
            // summary across manifests that disagree about the graph.
            for d in &graph_diags {
                fp = fnv1a(fp, &[0]);
                fp = fnv1a(fp, d.rendered.as_bytes());
            }

            plans.push(UnitPlan {
                index: i,
                name: u.name.clone(),
                deps: deps[i].clone(),
                transitive: transitive[i].clone(),
                export_fingerprint,
                project_fingerprint: fp,
                prelude,
                graph_diags,
                cyclic,
            });
        }

        ProjectPlan {
            units: plans,
            order,
        }
    }
}

/// Check one planned unit: prepend its dependency prelude, check the
/// combined text, re-attribute diagnostics to unit coordinates, and
/// fold in any graph-level diagnostics. Cyclic units are not checked at
/// all — their summary is just the `V601` rejection.
///
/// This is a pure function of `(plan.units[idx], units[idx].source)`,
/// which is why the parallel scheduler in `vaultd` can run units in any
/// order and still reassemble output byte-identical to [`check_project`].
pub fn check_unit_in_plan(
    plan: &ProjectPlan,
    units: &[ProjectUnit],
    idx: usize,
    limits: &Limits,
) -> CheckSummary {
    let up = &plan.units[idx];
    let u = &units[idx];
    if up.cyclic {
        return cyclic_summary(up);
    }
    let s = check_summary_with_prelude(&u.name, &up.prelude, &u.source, limits);
    fold_graph_diags(up, s)
}

/// The verdict for a unit in (or downstream of) an import cycle: the
/// stable `V601` rejection, with nothing checked.
pub fn cyclic_summary(up: &UnitPlan) -> CheckSummary {
    CheckSummary {
        name: up.name.clone(),
        verdict: Verdict::Rejected,
        diagnostics: up.graph_diags.clone(),
        stats: CheckStats::default(),
    }
}

/// Prepend a unit's graph-level diagnostics (`V602` unresolved imports)
/// to its checked summary. Graph diagnostics are errors, so an
/// otherwise-accepted unit becomes rejected. The parallel scheduler and
/// the sequential reference both fold through here, keeping their
/// output byte-identical.
pub fn fold_graph_diags(up: &UnitPlan, mut s: CheckSummary) -> CheckSummary {
    if !up.graph_diags.is_empty() {
        let mut diagnostics = up.graph_diags.clone();
        diagnostics.extend(s.diagnostics);
        s.diagnostics = diagnostics;
        if s.verdict == Verdict::Accepted {
            s.verdict = Verdict::Rejected;
        }
    }
    s
}

/// Sequential reference implementation: plan, check each unit in
/// topological order, and return summaries in **manifest order**. The
/// parallel service must match this byte for byte.
pub fn check_project(units: &[ProjectUnit], limits: &Limits) -> Vec<CheckSummary> {
    let plan = ProjectPlan::build(units, limits.parser_depth);
    let mut out: Vec<Option<CheckSummary>> = vec![None; units.len()];
    for &i in &plan.order {
        out[i] = Some(check_unit_in_plan(&plan, units, i, limits));
    }
    for (i, slot) in out.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(check_unit_in_plan(&plan, units, i, limits));
        }
    }
    out.into_iter().map(|s| s.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS_IFACE: &str = "interface FS {\n  type FILE;\n  tracked(F) FILE fopen() [new F];\n  void fclose(tracked(F) FILE f) [-F];\n}\n";

    fn fs_unit() -> ProjectUnit {
        ProjectUnit::new("fs", FS_IFACE)
    }

    fn app_unit(body: &str) -> ProjectUnit {
        ProjectUnit::new("app", format!("import \"fs\";\nvoid main() {{\n{body}}}\n"))
    }

    #[test]
    fn plan_orders_dependencies_first() {
        // Manifest lists the dependent first; topo order flips them.
        let units = vec![
            app_unit("  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n"),
            fs_unit(),
        ];
        let plan = ProjectPlan::build(&units, vault_syntax::DEFAULT_PARSER_DEPTH);
        assert_eq!(plan.order, vec![1, 0]);
        assert_eq!(plan.units[0].deps, vec![1]);
        assert!(plan.units[0].prelude.contains("fopen"));
        assert!(!plan.units[0].cyclic && !plan.units[1].cyclic);
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Project verdicts persist under these keys: a change to the
        // hash or its framing must bump the store's format version.
        let units = vec![
            fs_unit(),
            app_unit("  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n"),
        ];
        let plan = ProjectPlan::build(&units, vault_syntax::DEFAULT_PARSER_DEPTH);
        assert_eq!(plan.units[0].export_fingerprint, 0x3d60_a2fb_4cae_041b);
        assert_eq!(plan.units[1].project_fingerprint, 0xeb00_baca_88c0_4ed4);
    }

    #[test]
    fn clean_two_unit_project_is_accepted() {
        let units = vec![
            fs_unit(),
            app_unit("  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n"),
        ];
        let summaries = check_project(&units, &Limits::default());
        assert_eq!(summaries.len(), 2);
        for s in &summaries {
            assert_eq!(
                s.verdict,
                Verdict::Accepted,
                "{}: {:?}",
                s.name,
                s.diagnostics
            );
        }
    }

    #[test]
    fn leak_in_dependent_is_attributed_to_unit_coordinates() {
        let units = vec![
            fs_unit(),
            app_unit("  tracked(F) FILE f = FS.fopen();\n"), // leaked
        ];
        let summaries = check_project(&units, &Limits::default());
        assert_eq!(summaries[1].verdict, Verdict::Rejected);
        let d = &summaries[1].diagnostics[0];
        // The diagnostic must point into app's own two-line source, not
        // into the concatenated prelude text.
        assert!(d.line <= 4, "line {} not in unit coordinates", d.line);
        assert!(d.rendered.contains("app:"), "rendered: {}", d.rendered);
    }

    #[test]
    fn project_check_matches_standalone_concatenation() {
        // Checking app against the fs prelude finds the same codes as
        // checking the textual concatenation directly.
        let app = app_unit("  tracked(F) FILE f = FS.fopen();\n");
        let flat = format!("{FS_IFACE}\n{}", app.source);
        let flat_summary = vault_core::check_summary("flat", &flat);
        let summaries = check_project(&[fs_unit(), app], &Limits::default());
        let project_codes: Vec<&str> = summaries[1]
            .diagnostics
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        let flat_codes: Vec<&str> = flat_summary
            .diagnostics
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        assert_eq!(project_codes, flat_codes);
    }

    #[test]
    fn unresolved_import_is_v602_and_unit_still_checked() {
        let units = vec![ProjectUnit::new(
            "lonely",
            "import \"nowhere\";\nvoid f() { int x = 1; }\n",
        )];
        let summaries = check_project(&units, &Limits::default());
        assert_eq!(summaries[0].verdict, Verdict::Rejected);
        assert_eq!(summaries[0].diagnostics[0].code, "V602");
        // The function body itself was still checked (no further errors).
        assert_eq!(summaries[0].diagnostics.len(), 1);
    }

    #[test]
    fn import_cycle_is_v601_for_every_unit_in_or_reaching_it() {
        let units = vec![
            ProjectUnit::new("a", "import \"b\";\nvoid fa() {}\n"),
            ProjectUnit::new("b", "import \"a\";\nvoid fb() {}\n"),
            ProjectUnit::new("c", "import \"a\";\nvoid fc() {}\n"),
            ProjectUnit::new("free", "void ff() {}\n"),
        ];
        let plan = ProjectPlan::build(&units, vault_syntax::DEFAULT_PARSER_DEPTH);
        assert_eq!(plan.order, vec![3]);
        let summaries = check_project(&units, &Limits::default());
        for s in &summaries[..3] {
            assert_eq!(s.verdict, Verdict::Rejected, "{}", s.name);
            assert_eq!(s.diagnostics[0].code, "V601");
        }
        assert_eq!(summaries[3].verdict, Verdict::Accepted);
    }

    #[test]
    fn self_import_is_a_cycle() {
        let units = vec![ProjectUnit::new("solo", "import \"solo\";\nvoid f() {}\n")];
        let summaries = check_project(&units, &Limits::default());
        assert_eq!(summaries[0].diagnostics[0].code, "V601");
    }

    #[test]
    fn body_edit_changes_project_but_not_export_fingerprint() {
        let base = vec![
            fs_unit(),
            ProjectUnit::new(
                "mid",
                "import \"fs\";\nvoid helper() {\n  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n}\n",
            ),
            ProjectUnit::new("top", "import \"mid\";\nvoid top_fn() {}\n"),
        ];
        let mut body_edit = base.clone();
        body_edit[1].source = body_edit[1]
            .source
            .replace("FS.fclose(f);", "FS.fclose(f);\n  int extra = 1;");
        let p0 = ProjectPlan::build(&base, vault_syntax::DEFAULT_PARSER_DEPTH);
        let p1 = ProjectPlan::build(&body_edit, vault_syntax::DEFAULT_PARSER_DEPTH);
        // mid's own cache key changes...
        assert_ne!(
            p0.units[1].project_fingerprint,
            p1.units[1].project_fingerprint
        );
        // ...but its interface does not, so top's key is stable: cutoff.
        assert_eq!(
            p0.units[1].export_fingerprint,
            p1.units[1].export_fingerprint
        );
        assert_eq!(
            p0.units[2].project_fingerprint,
            p1.units[2].project_fingerprint
        );
    }

    #[test]
    fn interface_edit_invalidates_dependents() {
        let base = vec![
            fs_unit(),
            ProjectUnit::new("mid", "import \"fs\";\nint answer() { return 42; }\n"),
            ProjectUnit::new("top", "import \"mid\";\nvoid top_fn() {}\n"),
        ];
        let mut iface_edit = base.clone();
        iface_edit[1].source = iface_edit[1]
            .source
            .replace("int answer()", "int answer(int x)");
        let p0 = ProjectPlan::build(&base, vault_syntax::DEFAULT_PARSER_DEPTH);
        let p1 = ProjectPlan::build(&iface_edit, vault_syntax::DEFAULT_PARSER_DEPTH);
        assert_ne!(
            p0.units[1].export_fingerprint,
            p1.units[1].export_fingerprint
        );
        assert_ne!(
            p0.units[2].project_fingerprint,
            p1.units[2].project_fingerprint
        );
    }

    #[test]
    fn plan_is_deterministic_across_rebuilds() {
        let units = vec![
            fs_unit(),
            app_unit("  tracked(F) FILE f = FS.fopen();\n  FS.fclose(f);\n"),
        ];
        let a = ProjectPlan::build(&units, vault_syntax::DEFAULT_PARSER_DEPTH);
        let b = ProjectPlan::build(&units, vault_syntax::DEFAULT_PARSER_DEPTH);
        assert_eq!(a.order, b.order);
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_eq!(x.project_fingerprint, y.project_fingerprint);
            assert_eq!(x.export_fingerprint, y.export_fingerprint);
            assert_eq!(x.prelude, y.prelude);
        }
    }
}
