//! Declaration collection: builds the [`World`] (statesets, named types,
//! global keys, function signatures) from a parsed program, leaving function
//! bodies for the flow checker.

use crate::lower::{AliasEntry, LowerCtx, Scope};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vault_syntax::ast;
use vault_syntax::diag::{Code, DiagSink};
use vault_types::{
    subst, AbstractDef, CtorDef, FnSig, GlobalKey, Interner, KeyGen, KeyInfo, KeyOrigin, KeyRef,
    Name, ParamKind, Resource, StateTable, StructDef, Symbol, Tables, Ty, TypeDef, VariantDef,
    World,
};

/// The result of elaboration: the world plus everything the flow checker
/// needs to verify function bodies.
pub struct Elaborated {
    /// The declaration tables.
    pub world: World,
    /// The unit's interner: every identifier in the program, plus the
    /// resolver's sentinels, in first-seen order (no output depends on
    /// that order; see [`vault_syntax::intern`]). Shared with the parse
    /// that produced the program — elaboration no longer re-walks the
    /// AST to build it.
    pub syms: Arc<Interner>,
    /// Type aliases (expanded at use sites).
    pub aliases: BTreeMap<Symbol, AliasEntry>,
    /// Global keys pre-allocated; function checks clone this generator.
    pub base_keys: KeyGen,
    /// Function declarations that have bodies, in source order
    /// (interfaces inlined, duplicates kept).
    pub bodies: Vec<ast::FunDecl>,
    /// Names of interfaces/modules, accepted as call qualifiers.
    pub qualifiers: BTreeSet<Symbol>,
    /// Microseconds spent in declaration collection (passes 1–3).
    pub elaborate_micros: u64,
    /// Microseconds spent lowering fields, constructors, and function
    /// signatures into the checker's representation (passes 4–5).
    pub lower_micros: u64,
}

/// Elaborate a parsed program the caller keeps: `bodies` holds clones of
/// the program's function declarations.
pub fn elaborate(program: &ast::Program, diags: &mut DiagSink) -> Elaborated {
    let mut elaborated = elaborate_decls(program, diags);
    let started = std::time::Instant::now();
    fn clone_bodies(ds: &[ast::Decl], out: &mut Vec<ast::FunDecl>) {
        for d in ds {
            match d {
                ast::Decl::Interface(i) => clone_bodies(&i.decls, out),
                ast::Decl::Fun(f) if f.body.is_some() => out.push(f.clone()),
                _ => {}
            }
        }
    }
    clone_bodies(&program.decls, &mut elaborated.bodies);
    elaborated.lower_micros += started.elapsed().as_micros() as u64;
    elaborated
}

/// Elaborate a parsed program the caller gives up: its function
/// declarations move into `bodies` without a copy, in the same order
/// [`elaborate`] clones them in.
pub fn elaborate_owned(program: ast::Program, diags: &mut DiagSink) -> Elaborated {
    let mut elaborated = elaborate_decls(&program, diags);
    let started = std::time::Instant::now();
    fn take_bodies(ds: Vec<ast::Decl>, out: &mut Vec<ast::FunDecl>) {
        for d in ds {
            match d {
                ast::Decl::Interface(i) => take_bodies(i.decls, out),
                ast::Decl::Fun(f) if f.body.is_some() => out.push(f),
                _ => {}
            }
        }
    }
    take_bodies(program.decls, &mut elaborated.bodies);
    elaborated.lower_micros += started.elapsed().as_micros() as u64;
    elaborated
}

/// Passes 1–5 over the flattened declarations. `bodies` is left empty
/// for the caller to fill: by clone or by move.
fn elaborate_decls(program: &ast::Program, diags: &mut DiagSink) -> Elaborated {
    // The parser interned every identifier at lex time — plus the
    // `<error>`/`<fn>` sentinels lowering error paths can introduce —
    // so elaboration reuses its interner instead of re-walking the
    // whole AST to collect names.
    debug_assert!(
        program.decls.is_empty() || !program.syms.is_empty(),
        "elaborating a program the parser did not intern"
    );
    let syms: Arc<Interner> = Arc::clone(&program.syms);

    let started = std::time::Instant::now();
    let mut world = World::new();
    let mut aliases: BTreeMap<Symbol, AliasEntry> = BTreeMap::new();
    let mut base_keys = KeyGen::new();
    let mut qualifiers = BTreeSet::new();

    // Flatten interfaces.
    let mut decls: Vec<&ast::Decl> = Vec::new();
    fn flatten<'a>(
        ds: &'a [ast::Decl],
        out: &mut Vec<&'a ast::Decl>,
        quals: &mut BTreeSet<Symbol>,
        syms: &Interner,
    ) {
        for d in ds {
            match d {
                ast::Decl::Interface(i) => {
                    quals.insert(syms.sym(&i.name.name));
                    flatten(&i.decls, out, quals, syms);
                }
                other => out.push(other),
            }
        }
    }
    flatten(&program.decls, &mut decls, &mut qualifiers, &syms);

    // Pass 1: statesets (state tokens must exist before anything refers to
    // them).
    for d in &decls {
        if let ast::Decl::Stateset(s) = d {
            if world.states.stateset(&s.name.name).is_some() {
                diags.error(
                    Code::DuplicateDecl,
                    s.name.span,
                    format!("stateset `{}` is declared twice", s.name),
                );
                continue;
            }
            let set = world.states.begin_stateset(&s.name.name);
            for chain in &s.chains {
                let mut prev = None;
                for tok in chain {
                    match world.states.add_state(set, &tok.name) {
                        Ok(id) => {
                            if let Some(p) = prev {
                                world.states.add_lt(p, id);
                            }
                            prev = Some(id);
                        }
                        Err(e) => {
                            diags.error(Code::BadStateset, tok.span, e.to_string());
                            prev = None;
                        }
                    }
                }
            }
            if let Err(e) = world.states.finish_stateset(set) {
                diags.error(Code::BadStateset, s.span, e.to_string());
            }
        }
    }

    // Pass 2: global keys.
    for d in &decls {
        if let ast::Decl::GlobalKey(k) = d {
            let stateset = match &k.stateset {
                Some(name) => match world.states.stateset(&name.name) {
                    Some(s) => s,
                    None => {
                        diags.error(
                            Code::UnknownName,
                            name.span,
                            format!("unknown stateset `{name}`"),
                        );
                        StateTable::DEFAULT_SET
                    }
                },
                None => StateTable::DEFAULT_SET,
            };
            let id = base_keys.fresh(KeyInfo {
                name: Some(k.name.name.as_str().into()),
                resource: Resource::Text(format!("global key {}", k.name).into()),
                origin: KeyOrigin::Global,
                stateset,
                global: true,
            });
            if !world.add_global_key(&k.name.name, GlobalKey { id, stateset }) {
                diags.error(
                    Code::DuplicateDecl,
                    k.name.span,
                    format!("global key `{}` is declared twice", k.name),
                );
            }
        }
    }

    // Pass 3: pre-register named types so forward references resolve.
    for d in &decls {
        let (name, params) = match d {
            ast::Decl::Struct(s) => (&s.name, &s.params),
            ast::Decl::Variant(v) => (&v.name, &v.params),
            ast::Decl::TypeAlias(a) if a.body.is_none() => (&a.name, &a.params),
            _ => continue,
        };
        let params = lower_params(&world, params, diags);
        if world
            .add_type(TypeDef::Abstract(AbstractDef {
                name: name.name.to_string(),
                params,
            }))
            .is_none()
        {
            diags.error(
                Code::DuplicateDecl,
                name.span,
                format!("type `{name}` is declared twice"),
            );
        }
    }
    // Aliases recorded by name (bodies lowered lazily at use sites).
    for d in &decls {
        if let ast::Decl::TypeAlias(a) = d {
            if let Some(body) = &a.body {
                if world.type_id(&a.name.name).is_some()
                    || aliases.contains_key(&syms.sym(&a.name.name))
                {
                    diags.error(
                        Code::DuplicateDecl,
                        a.name.span,
                        format!("type `{}` is declared twice", a.name),
                    );
                    continue;
                }
                aliases.insert(
                    syms.sym(&a.name.name),
                    AliasEntry {
                        params: lower_params(&world, &a.params, diags),
                        body: body.clone(),
                    },
                );
            }
        }
    }

    let elaborate_micros = started.elapsed().as_micros() as u64;
    let started = std::time::Instant::now();

    // Pass 4: lower struct fields and variant constructors.
    for d in &decls {
        match d {
            ast::Decl::Struct(s) => {
                // Pass 3 registers every struct name; if it is missing the
                // declaration tables are inconsistent — reject rather than
                // crash, since this can only follow earlier errors.
                let Some(id) = world.type_id(&s.name.name) else {
                    diags.error(
                        Code::InternalError,
                        s.name.span,
                        format!(
                            "struct `{}` was never registered; its fields are ignored",
                            s.name
                        ),
                    );
                    continue;
                };
                let params = world.typedef(id).params().to_vec();
                let mut scope = param_scope(&params, &syms);
                let ctx = LowerCtx {
                    world: &world,
                    aliases: &aliases,
                    syms: &syms,
                };
                let mut fields = Vec::new();
                for f in &s.fields {
                    let before = scope.keyvars.len();
                    let ty = ctx.lower_type(&mut scope, &f.ty, diags);
                    if scope.keyvars.len() != before {
                        diags.error(
                            Code::UnknownName,
                            f.ty.span,
                            format!(
                                "field `{}` refers to a key that is not a parameter of \
                                 struct `{}`",
                                f.name, s.name
                            ),
                        );
                    }
                    fields.push((f.name.name.to_string(), ty));
                }
                world.replace_type(
                    id,
                    TypeDef::Struct(StructDef {
                        name: s.name.name.to_string(),
                        params,
                        fields,
                    }),
                );
            }
            ast::Decl::Variant(v) => {
                let Some(id) = world.type_id(&v.name.name) else {
                    diags.error(
                        Code::InternalError,
                        v.name.span,
                        format!(
                            "variant `{}` was never registered; its constructors are ignored",
                            v.name
                        ),
                    );
                    continue;
                };
                let params = world.typedef(id).params().to_vec();
                let param_names: BTreeSet<String> =
                    params.iter().map(|p| p.name().to_string()).collect();
                let mut ctors = Vec::new();
                for c in &v.ctors {
                    // Constructor arguments may mention keys that are not
                    // variant parameters: those are the constructor-scoped
                    // existential keys (paper §2.4 "anonymity").
                    let mut scope = param_scope(&params, &syms);
                    let ctx = LowerCtx {
                        world: &world,
                        aliases: &aliases,
                        syms: &syms,
                    };
                    let args: Vec<Ty> = c
                        .args
                        .iter()
                        .map(|t| ctx.lower_type(&mut scope, t, diags))
                        .collect();
                    // By name: the constructor table is fingerprinted.
                    let mut exist_keys: Vec<Name> = scope
                        .keyvars
                        .iter()
                        .map(|k| syms.resolve(*k))
                        .filter(|k| !param_names.contains(*k))
                        .map(Name::from)
                        .collect();
                    exist_keys.sort_unstable();
                    let mut captures = Vec::new();
                    for cap in &c.captures {
                        if !param_names.contains(cap.key.name.as_str()) {
                            diags.error(
                                Code::UnknownName,
                                cap.key.span,
                                format!(
                                    "captured key `{}` is not a parameter of variant `{}`",
                                    cap.key, v.name
                                ),
                            );
                            continue;
                        }
                        let req = ctx.lower_state_req(&mut scope, cap.state.as_ref(), diags);
                        captures.push((cap.key.name.to_string(), req));
                    }
                    ctors.push(CtorDef {
                        name: c.name.name.to_string(),
                        exist_keys,
                        args,
                        captures,
                    });
                }
                world.replace_type(
                    id,
                    TypeDef::Variant(VariantDef {
                        name: v.name.name.to_string(),
                        params,
                        ctors,
                    }),
                );
            }
            _ => {}
        }
    }

    // Pass 5: function signatures.
    for d in &decls {
        if let ast::Decl::Fun(f) = d {
            let ctx = LowerCtx {
                world: &world,
                aliases: &aliases,
                syms: &syms,
            };
            let reported = diags.diagnostics().len();
            let sig = lower_fn_decl(&ctx, f, diags);
            let clean = diags.diagnostics().len() == reported;
            validate_signature(&sig, f, diags);
            let name = sig.name.clone();
            if world.add_fn(sig) {
                world.set_reusable(&name, clean);
            } else {
                // The body of this declaration would borrow the first
                // one's signature.
                world.set_reusable(&name, false);
                diags.error(
                    Code::DuplicateDecl,
                    f.name.span,
                    format!("function `{}` is declared twice", f.name),
                );
            }
        }
    }

    Elaborated {
        world,
        syms,
        aliases,
        base_keys,
        bodies: Vec::new(),
        qualifiers,
        elaborate_micros,
        lower_micros: started.elapsed().as_micros() as u64,
    }
}

/// Lower a function declaration's signature (used for top-level and nested
/// functions alike).
pub fn lower_fn_decl(ctx: &LowerCtx<'_>, f: &ast::FunDecl, diags: &mut DiagSink) -> FnSig {
    lower_fn_decl_in(ctx, f, Scope::signature(), diags)
}

/// Lower a function signature inside a given base scope (nested functions
/// see the enclosing function's keys as already-bound names).
pub fn lower_fn_decl_in(
    ctx: &LowerCtx<'_>,
    f: &ast::FunDecl,
    mut scope: Scope,
    diags: &mut DiagSink,
) -> FnSig {
    scope.sig_mode = true;
    let mut ty_params = Vec::new();
    for tp in &f.tparams {
        match tp {
            ast::TParam::Type(n) => {
                scope.tyvars.insert(ctx.syms.sym(&n.name));
                ty_params.push(n.name.to_string());
            }
            ast::TParam::Key(n) => {
                scope.keyvars.insert(ctx.syms.sym(&n.name));
            }
            ast::TParam::State { name, .. } => {
                scope.statevars.insert(ctx.syms.sym(&name.name));
            }
        }
    }
    let mut params = Vec::with_capacity(f.params.len());
    let mut param_names = Vec::with_capacity(f.params.len());
    for p in &f.params {
        params.push(ctx.lower_type(&mut scope, &p.ty, diags));
        param_names.push(p.name.as_ref().map(|n| n.name.to_string()));
    }
    // Effects lowered before the return type so `new K` keys are in scope
    // when the return type mentions them (they typically are by textual
    // order anyway; lowering is order-insensitive for key variables).
    let effect = match &f.effect {
        Some(e) => ctx.lower_effect(&mut scope, e, diags),
        None => Vec::new(),
    };
    let ret = ctx.lower_type(&mut scope, &f.ret, diags);
    FnSig {
        name: f.name.name.as_str().into(),
        params,
        param_names,
        ret,
        effect,
        caps: crate::lower::collect_caps(f.effect.as_ref()),
        ty_params,
    }
}

/// Validate a lowered signature: no type parameter is declared twice,
/// every effect key and return-type key must be bound by a parameter type
/// (or be a `new` key), and no key may appear in two effect items. This
/// runs for signatures with and without bodies.
pub fn validate_signature(sig: &FnSig, f: &ast::FunDecl, diags: &mut DiagSink) {
    use std::collections::BTreeSet as Set;
    use vault_types::{EffItem, KeyRef};

    report_duplicate_params(&f.tparams, diags);
    let eff_span = f.effect.as_ref().map(|e| e.span).unwrap_or(f.span);
    // Capability declarations (`uses c`): names come from a closed
    // universe and may appear at most once. Checked on the *surface*
    // items (the lowered `sig.caps` is already deduplicated), so this
    // covers bodyless interface declarations too.
    let mut seen_caps: Set<&str> = Set::new();
    if let Some(e) = &f.effect {
        for item in &e.items {
            if let ast::EffectItem::Uses { cap } = item {
                if !crate::KNOWN_CAPS.contains(&cap.name.as_str()) {
                    diags.error(
                        Code::CapUnknown,
                        cap.span,
                        format!(
                            "unknown capability `{}` in the effect clause of `{}` \
                             (known capabilities: {})",
                            cap.name,
                            sig.name,
                            crate::KNOWN_CAPS.join(", ")
                        ),
                    );
                }
                if !seen_caps.insert(&cap.name) {
                    diags.error(
                        Code::CapDuplicate,
                        cap.span,
                        format!(
                            "capability `{}` is declared more than once on `{}`",
                            cap.name, sig.name
                        ),
                    );
                }
            }
        }
    }
    let fresh: Set<&str> = sig
        .effect
        .iter()
        .filter_map(|i| match i {
            EffItem::Fresh { var, .. } => Some(&**var),
            _ => None,
        })
        .collect();
    let param_keys = subst::key_vars(&sig.params);
    let mut seen: Set<String> = Set::new();
    for item in &sig.effect {
        let key = item.key();
        let name = key.to_string();
        if !seen.insert(name.clone()) {
            diags.error(
                Code::BadEffect,
                eff_span,
                format!(
                    "key `{name}` appears in more than one item of the effect clause of \
                     `{}`",
                    sig.name
                ),
            );
        }
        if let KeyRef::Var(v) = &key {
            if !param_keys.contains(v) && !fresh.contains(&**v) {
                diags.error(
                    Code::BadEffect,
                    eff_span,
                    format!(
                        "effect clause of `{}` mentions key `{v}` which no parameter type \
                         binds",
                        sig.name
                    ),
                );
            }
        }
    }
    for v in subst::key_vars([&sig.ret]) {
        if !param_keys.contains(v) && !fresh.contains(&**v) {
            diags.error(
                Code::BadEffect,
                f.ret.span,
                format!(
                    "return type of `{}` names key `{v}`, but neither a parameter nor a \
                     `new {v}` effect binds it",
                    sig.name
                ),
            );
        }
    }
}

fn lower_params(world: &Tables, params: &[ast::TParam], diags: &mut DiagSink) -> Vec<ParamKind> {
    report_duplicate_params(params, diags);
    params
        .iter()
        .map(|p| match p {
            ast::TParam::Type(n) => ParamKind::Type(n.name.to_string()),
            ast::TParam::Key(n) => ParamKind::Key(n.name.to_string()),
            ast::TParam::State { name, bound } => {
                let bound = bound.as_ref().and_then(|b| {
                    let tok = world.states.state(&b.name);
                    if tok.is_none() {
                        diags.error(
                            Code::UnknownState,
                            b.span,
                            format!("unknown state `{b}` used as a bound"),
                        );
                    }
                    tok
                });
                ParamKind::State {
                    name: name.name.to_string(),
                    bound,
                }
            }
        })
        .collect()
}

/// Report each parameter whose name an earlier one in `params` declares.
fn report_duplicate_params(params: &[ast::TParam], diags: &mut DiagSink) {
    let mut seen = BTreeSet::new();
    for p in params {
        let name = p.name();
        if !seen.insert(name.name.as_str()) {
            diags.error(
                Code::DuplicateDecl,
                name.span,
                format!("type parameter `{name}` is declared twice"),
            );
        }
    }
}

/// A signature-mode scope with a type's parameters pre-bound.
fn param_scope(params: &[ParamKind], syms: &Interner) -> Scope {
    let mut scope = Scope::signature();
    for p in params {
        match p {
            ParamKind::Type(n) => {
                scope.tyvars.insert(syms.sym(n));
            }
            ParamKind::Key(n) => {
                Arc::make_mut(&mut scope.bound_keys).insert(syms.sym(n), KeyRef::var(n.as_str()));
            }
            ParamKind::State { name, .. } => {
                scope.statevars.insert(syms.sym(name));
            }
        }
    }
    scope
}

#[cfg(test)]
mod tests {
    use super::*;
    use vault_syntax::parse_program;
    use vault_types::{EffItem, StateReq};

    fn elab(src: &str) -> (Elaborated, DiagSink) {
        let mut diags = DiagSink::new();
        let prog = parse_program(src, &mut diags);
        assert!(
            !diags.has_errors(),
            "parse failed: {:?}",
            diags.diagnostics()
        );
        let e = elaborate(&prog, &mut diags);
        (e, diags)
    }

    /// Every signature the checker borrows instead of lowering again
    /// equals that lowering and stood for a lowering that reported
    /// nothing; duplicated names and signatures with errors are lowered
    /// again.
    #[test]
    fn reusable_signatures_equal_their_relowering() {
        use vault_corpus::synth::{self, Shape, SynthConfig};
        let mut sources: Vec<String> = vault_corpus::all_programs()
            .into_iter()
            .map(|p| p.source)
            .collect();
        for (i, shape) in [Shape::Mixed, Shape::VariantHeavy, Shape::Sockets]
            .into_iter()
            .enumerate()
        {
            let config = SynthConfig {
                functions: 12,
                stmts_per_fn: 8,
                seed: 7 + i as u64,
                bug_rate: 0.3,
                shape,
            };
            sources.push(synth::generate(&config).source);
        }
        sources.push("void f(int x) { }\nvoid f(bool y) { }\n".into());
        sources.push("void g(nosuchtype x) { }\nint h() { return 1; }\n".into());
        let (mut reused, mut relowered) = (0, 0);
        for src in &sources {
            let mut diags = DiagSink::new();
            let program = parse_program(src, &mut diags);
            let e = elaborate_owned(program, &mut diags);
            let ctx = LowerCtx {
                world: &e.world,
                aliases: &e.aliases,
                syms: &e.syms,
            };
            for f in &e.bodies {
                let mut sink = DiagSink::new();
                let again = lower_fn_decl(&ctx, f, &mut sink);
                match e.world.reusable_sig(&f.name.name) {
                    Some(sig) => {
                        assert_eq!(sig, &again, "`{}` in {src}", f.name);
                        assert!(sink.diagnostics().is_empty(), "`{}` in {src}", f.name);
                        reused += 1;
                    }
                    None => relowered += 1,
                }
            }
        }
        assert!(reused > 200, "{reused} signatures reused");
        // Both `f`s, and `g` with its unknown type.
        assert!(relowered >= 3, "{relowered} signatures lowered again");
        let (e, _) = elab("void f(int x) { }\nvoid f(bool y) { }\nint h() { return 1; }\n");
        assert!(e.world.reusable_sig("f").is_none());
        assert!(e.world.reusable_sig("h").is_some());
    }

    #[test]
    fn elaborates_region_interface() {
        let (e, diags) = elab(
            "interface REGION {\n\
               type region;\n\
               tracked(R) region create() [new R];\n\
               void delete(tracked(R) region) [-R];\n\
             }",
        );
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        assert!(e.world.type_id("region").is_some());
        let create = e.world.fn_sig("create").unwrap();
        assert!(matches!(&create.effect[0], EffItem::Fresh { var, .. } if &**var == "R"));
        assert!(matches!(&create.ret, Ty::Tracked { key: KeyRef::Var(v), .. } if &**v == "R"));
        let delete = e.world.fn_sig("delete").unwrap();
        assert!(
            matches!(&delete.effect[0], EffItem::Consume { key: KeyRef::Var(v), .. } if &**v == "R")
        );
        assert!(e.qualifiers.contains(&e.syms.sym("REGION")));
    }

    #[test]
    fn elaborates_stateset_and_socket_effects() {
        let (e, diags) = elab(
            "stateset SOCK = [ raw < named < listening < ready ];\n\
             type sock;\n\
             void bind(tracked(S) sock, int) [S@raw->named];",
        );
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        let raw = e.world.states.state("raw").unwrap();
        let named = e.world.states.state("named").unwrap();
        assert!(e.world.states.le(raw, named));
        let bind = e.world.fn_sig("bind").unwrap();
        assert!(matches!(
            &bind.effect[0],
            EffItem::Keep { from: StateReq::Exact(f), to: Some(_), .. } if *f == raw
        ));
    }

    #[test]
    fn global_key_registered() {
        let (e, diags) = elab(
            "stateset IRQ_LEVEL = [ PASSIVE_LEVEL < DISPATCH_LEVEL ];\n\
             key IRQL @ IRQ_LEVEL;",
        );
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        let g = e.world.global_key("IRQL").unwrap();
        assert_eq!(e.base_keys.info(g.id).name.as_deref(), Some("IRQL"));
        assert!(e.base_keys.info(g.id).global);
    }

    #[test]
    fn variant_exist_keys_detected() {
        let (e, diags) = elab(
            "type region;\n\
             variant regpt [ 'RegPt(tracked(R) region, R:int) ];",
        );
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        let id = e.world.type_id("regpt").unwrap();
        let TypeDef::Variant(v) = e.world.typedef(id) else {
            panic!()
        };
        assert_eq!(v.ctors[0].exist_keys, vec![Name::from("R")]);
        assert!(v.is_keyed());
    }

    #[test]
    fn variant_param_captures() {
        let (e, diags) = elab(
            "stateset SOCK = [ raw < named ];\n\
             variant status<key K> [ 'Ok {K@named} | 'Error(int){K@raw} ];",
        );
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        let id = e.world.type_id("status").unwrap();
        let TypeDef::Variant(v) = e.world.typedef(id) else {
            panic!()
        };
        assert!(v.ctors[0].exist_keys.is_empty());
        assert_eq!(v.ctors[0].captures.len(), 1);
        let named = e.world.states.state("named").unwrap();
        assert_eq!(v.ctors[0].captures[0].1, StateReq::Exact(named));
    }

    #[test]
    fn capture_of_non_param_rejected() {
        let (_e, diags) = elab("variant v [ 'C {K} ];");
        assert!(diags.has_code(Code::UnknownName));
    }

    #[test]
    fn struct_with_unknown_key_in_field_rejected() {
        let (_e, diags) = elab("struct s { K:int x; }");
        assert!(diags.has_code(Code::UnknownName));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let (_e, diags) = elab("type t; type t;");
        assert!(diags.has_code(Code::DuplicateDecl));
        let (_e, diags) = elab("void f(); void f();");
        assert!(diags.has_code(Code::DuplicateDecl));
    }

    #[test]
    fn alias_expansion_in_signature() {
        let (e, diags) = elab(
            "type guarded_int<key K> = K:int;\n\
             type FILE;\n\
             void foo(tracked(F) FILE f, guarded_int<F> gi) [F];",
        );
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        let foo = e.world.fn_sig("foo").unwrap();
        assert!(matches!(
            &foo.params[1],
            Ty::Guarded { guards, .. }
                if matches!(&guards[0].key, KeyRef::Var(v) if &**v == "F")
        ));
    }

    #[test]
    fn fn_type_alias_lowered() {
        let (e, diags) = elab(
            "type IRP;\n\
             type DEVICE_OBJECT;\n\
             variant COMPLETION_RESULT<key I> [ 'More | 'Finished(int){I} ];\n\
             type COMPLETION_ROUTINE<key K> =\n\
               tracked COMPLETION_RESULT<K> Routine(DEVICE_OBJECT, tracked(K) IRP) [-K];\n\
             void IoSetCompletionRoutine(tracked(I) IRP, COMPLETION_ROUTINE<I>) [I];",
        );
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        let f = e.world.fn_sig("IoSetCompletionRoutine").unwrap();
        let Ty::Fn(sig) = &f.params[1] else {
            panic!("expected fn type, got {:?}", f.params[1]);
        };
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.effect.len(), 1);
        // The alias argument `I` flowed into the routine's effect.
        assert!(
            matches!(&sig.effect[0], EffItem::Consume { key: KeyRef::Var(v), .. } if &**v == "I")
        );
    }
}
