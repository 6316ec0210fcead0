//! Lowering of surface types and effect clauses into the internal type
//! language.
//!
//! Lowering is scope-directed: in *signature mode*, unknown key and state
//! names become variables (the paper: "key names are bound when first
//! referenced"); in *body mode*, keys must be in scope except in the binder
//! position of `tracked(K) T x = ...` local declarations, where `K` is
//! freshly bound to the initializer's key.

use std::collections::{BTreeMap, BTreeSet};
use vault_syntax::ast;
use vault_syntax::diag::{Code, DiagSink};
use vault_syntax::span::Span;
use vault_types::{
    Arg, EffItem, FnSig, GuardAtom, Interner, KeyRef, ParamKind, StateArg, StateReq, Symbol,
    Tables, Ty, TypeDef,
};

/// A recorded `type name<params> = body;` alias, expanded at use sites.
#[derive(Clone, Debug)]
pub struct AliasEntry {
    /// Declared parameters.
    pub params: Vec<ParamKind>,
    /// Unlowered body (lowered per use, under the argument bindings).
    pub body: ast::Type,
}

/// Immutable lowering context.
pub struct LowerCtx<'a> {
    /// The world built so far (named types, statesets, globals).
    pub world: &'a Tables,
    /// Type aliases by name.
    pub aliases: &'a BTreeMap<Symbol, AliasEntry>,
    /// The unit's interner (scope maps are symbol-keyed).
    pub syms: &'a Interner,
}

/// A lexical scope for lowering.
#[derive(Clone, Debug, Default)]
pub struct Scope {
    /// `<type T>` variables in scope.
    pub tyvars: BTreeSet<Symbol>,
    /// Alias-argument type bindings.
    pub bound_tys: BTreeMap<Symbol, Ty>,
    /// State variables in scope (from bounded effects or `<state S>`).
    pub statevars: BTreeSet<Symbol>,
    /// Alias-argument state bindings.
    pub bound_states: BTreeMap<Symbol, StateArg>,
    /// Signature key variables in scope (auto-collected in signature mode).
    pub keyvars: BTreeSet<Symbol>,
    /// Bound key names: function-body key environment or alias arguments.
    pub bound_keys: BTreeMap<Symbol, KeyRef>,
    /// Whether unknown key/state names auto-bind as variables.
    pub sig_mode: bool,
    /// Key names freshly introduced by `tracked(K)` binder positions in
    /// body mode, in order of appearance.
    pub binders: Vec<String>,
    /// Whether unknown state names may bind fresh state variables (local
    /// declarations like `KIRQL<old> prev = KeAcquireSpinLock(l);`).
    pub allow_state_binders: bool,
    /// State variables freshly introduced this way.
    pub state_binders: Vec<String>,
    depth: u32,
}

impl Scope {
    /// A fresh signature-mode scope.
    pub fn signature() -> Self {
        Scope {
            sig_mode: true,
            ..Scope::default()
        }
    }

    /// A fresh body-mode scope with the given key environment.
    pub fn body(bound_keys: BTreeMap<Symbol, KeyRef>) -> Self {
        Scope {
            bound_keys,
            ..Scope::default()
        }
    }

    fn child_for_alias(&self) -> Scope {
        Scope {
            sig_mode: self.sig_mode,
            depth: self.depth + 1,
            ..Scope::default()
        }
    }
}

const MAX_ALIAS_DEPTH: u32 = 32;

impl<'a> LowerCtx<'a> {
    /// Lower a surface type.
    pub fn lower_type(&self, scope: &mut Scope, t: &ast::Type, diags: &mut DiagSink) -> Ty {
        match &t.kind {
            ast::TypeKind::Void => Ty::Void,
            ast::TypeKind::Int => Ty::Int,
            ast::TypeKind::Bool => Ty::Bool,
            ast::TypeKind::Byte => Ty::Byte,
            ast::TypeKind::Str => Ty::Str,
            ast::TypeKind::Array(inner) => {
                Ty::Array(Box::new(self.lower_type(scope, inner, diags)))
            }
            ast::TypeKind::Tuple(ts) => Ty::Tuple(
                ts.iter()
                    .map(|t| self.lower_type(scope, t, diags))
                    .collect(),
            ),
            ast::TypeKind::Tracked { key, inner } => {
                let inner_ty = self.lower_type(scope, inner, diags);
                match key {
                    Some(k) => Ty::Tracked {
                        key: self.resolve_key(scope, &k.name, k.span, diags),
                        inner: Box::new(inner_ty),
                    },
                    None => Ty::TrackedAnon(Box::new(inner_ty)),
                }
            }
            ast::TypeKind::Guarded { guards, inner } => {
                let atoms = guards
                    .iter()
                    .map(|g| GuardAtom {
                        key: self.resolve_guard_key(scope, &g.key, diags),
                        req: self.lower_state_req(scope, g.state.as_ref(), diags),
                    })
                    .collect();
                Ty::Guarded {
                    guards: atoms,
                    inner: Box::new(self.lower_type(scope, inner, diags)),
                }
            }
            ast::TypeKind::Named { name, args } => {
                self.lower_named(scope, name, args, t.span, diags)
            }
            ast::TypeKind::Fn(ft) => Ty::Fn(Box::new(self.lower_fn_type(scope, ft, diags))),
        }
    }

    /// Lower a function type appearing in an alias body. Its own key
    /// variables are scoped to the function type; bindings from the alias
    /// arguments remain visible.
    pub fn lower_fn_type(
        &self,
        scope: &mut Scope,
        ft: &ast::FnType,
        diags: &mut DiagSink,
    ) -> FnSig {
        let mut inner = Scope {
            sig_mode: true,
            bound_keys: scope.bound_keys.clone(),
            bound_tys: scope.bound_tys.clone(),
            bound_states: scope.bound_states.clone(),
            tyvars: scope.tyvars.clone(),
            statevars: scope.statevars.clone(),
            keyvars: BTreeSet::new(),
            binders: Vec::new(),
            allow_state_binders: false,
            state_binders: Vec::new(),
            depth: scope.depth,
        };
        let params: Vec<Ty> = ft
            .params
            .iter()
            .map(|p| self.lower_type(&mut inner, p, diags))
            .collect();
        let ret = self.lower_type(&mut inner, &ft.ret, diags);
        let effect = match &ft.effect {
            Some(e) => self.lower_effect(&mut inner, e, diags),
            None => Vec::new(),
        };
        let param_names = vec![None; params.len()];
        FnSig {
            name: "<fn>".into(),
            params,
            param_names,
            ret,
            effect,
            caps: collect_caps(ft.effect.as_ref()),
            ty_params: Vec::new(),
        }
    }

    /// Lower a `name<args>` type reference (public entry for `new` exprs).
    pub fn lower_named_public(
        &self,
        scope: &mut Scope,
        name: &ast::Ident,
        args: &[ast::TypeArg],
        span: Span,
        diags: &mut DiagSink,
    ) -> Ty {
        self.lower_named(scope, name, args, span, diags)
    }

    fn lower_named(
        &self,
        scope: &mut Scope,
        name: &ast::Ident,
        args: &[ast::TypeArg],
        span: Span,
        diags: &mut DiagSink,
    ) -> Ty {
        if let Some(bound) = scope.bound_tys.get(&self.syms.sym(&name.name)) {
            if !args.is_empty() {
                diags.error(
                    Code::BadTypeArgs,
                    span,
                    format!("type variable `{name}` takes no arguments"),
                );
            }
            return bound.clone();
        }
        if scope.tyvars.contains(&self.syms.sym(&name.name)) {
            if !args.is_empty() {
                diags.error(
                    Code::BadTypeArgs,
                    span,
                    format!("type variable `{name}` takes no arguments"),
                );
            }
            return Ty::Var(name.name.to_string());
        }
        if let Some(alias) = self.aliases.get(&self.syms.sym(&name.name)) {
            return self.expand_alias(scope, name, alias, args, span, diags);
        }
        let Some(id) = self.world.type_id(&name.name) else {
            diags.error(
                Code::UnknownName,
                name.span,
                format!("unknown type `{name}`"),
            );
            return Ty::Error;
        };
        let params = self.world.typedef(id).params().to_vec();
        if params.len() != args.len() {
            diags.error(
                Code::BadTypeArgs,
                span,
                format!(
                    "type `{name}` expects {} argument(s), found {}",
                    params.len(),
                    args.len()
                ),
            );
            return Ty::Error;
        }
        let mut lowered = Vec::with_capacity(args.len());
        for (param, arg) in params.iter().zip(args) {
            lowered.push(self.lower_arg(scope, param, arg, diags));
        }
        Ty::Named { id, args: lowered }
    }

    fn lower_arg(
        &self,
        scope: &mut Scope,
        param: &ParamKind,
        arg: &ast::TypeArg,
        diags: &mut DiagSink,
    ) -> Arg {
        let ast::TypeArg::Type(t) = arg;
        match param {
            ParamKind::Type(_) => Arg::Ty(self.lower_type(scope, t, diags)),
            ParamKind::Key(_) => match bare_name(t) {
                Some(n) => Arg::Key(self.resolve_key(scope, &n.name, n.span, diags)),
                None => {
                    diags.error(
                        Code::BadTypeArgs,
                        t.span,
                        "expected a key name in this argument position",
                    );
                    Arg::Key(KeyRef::var("<error>"))
                }
            },
            ParamKind::State { .. } => match bare_name(t) {
                Some(n) => Arg::State(self.resolve_state_arg(scope, &n.name, n.span, diags)),
                None => {
                    diags.error(
                        Code::BadTypeArgs,
                        t.span,
                        "expected a state name in this argument position",
                    );
                    Arg::State(StateArg::Var("<error>".into()))
                }
            },
        }
    }

    fn expand_alias(
        &self,
        scope: &mut Scope,
        name: &ast::Ident,
        alias: &AliasEntry,
        args: &[ast::TypeArg],
        span: Span,
        diags: &mut DiagSink,
    ) -> Ty {
        if scope.depth >= MAX_ALIAS_DEPTH {
            diags.error(
                Code::BadTypeArgs,
                span,
                format!("type alias `{name}` expands recursively"),
            );
            return Ty::Error;
        }
        if alias.params.len() != args.len() {
            diags.error(
                Code::BadTypeArgs,
                span,
                format!(
                    "alias `{name}` expects {} argument(s), found {}",
                    alias.params.len(),
                    args.len()
                ),
            );
            return Ty::Error;
        }
        let mut child = scope.child_for_alias();
        for (param, arg) in alias.params.iter().zip(args) {
            match self.lower_arg(scope, param, arg, diags) {
                Arg::Ty(t) => {
                    child.bound_tys.insert(self.syms.sym(param.name()), t);
                }
                Arg::Key(k) => {
                    child.bound_keys.insert(self.syms.sym(param.name()), k);
                }
                Arg::State(s) => {
                    child.bound_states.insert(self.syms.sym(param.name()), s);
                }
            }
        }
        let ty = self.lower_type(&mut child, &alias.body, diags);
        // Variables auto-bound inside the expansion belong to the outer
        // signature scope.
        scope.keyvars.extend(child.keyvars);
        scope.statevars.extend(child.statevars);
        scope.binders.extend(child.binders);
        ty
    }

    /// Resolve a key name in a `tracked(K)` or key-argument position.
    pub fn resolve_key(
        &self,
        scope: &mut Scope,
        name: &str,
        span: Span,
        diags: &mut DiagSink,
    ) -> KeyRef {
        if let Some(k) = scope.bound_keys.get(&self.syms.sym(name)) {
            return k.clone();
        }
        if let Some(g) = self.world.global_key(name) {
            return KeyRef::Id(g.id);
        }
        if scope.sig_mode {
            scope.keyvars.insert(self.syms.sym(name));
            KeyRef::var(name)
        } else {
            // Body mode: a fresh binder, to be bound by the initializer.
            scope.binders.push(name.to_string());
            let r = KeyRef::var(name);
            scope.bound_keys.insert(self.syms.sym(name), r.clone());
            let _ = span;
            let _ = diags;
            r
        }
    }

    /// Resolve a key name in guard position: binders are not allowed here.
    fn resolve_guard_key(
        &self,
        scope: &mut Scope,
        name: &ast::Ident,
        diags: &mut DiagSink,
    ) -> KeyRef {
        if let Some(k) = scope.bound_keys.get(&self.syms.sym(&name.name)) {
            return k.clone();
        }
        if let Some(g) = self.world.global_key(&name.name) {
            return KeyRef::Id(g.id);
        }
        if scope.sig_mode {
            scope.keyvars.insert(self.syms.sym(&name.name));
            KeyRef::var(name.name.as_str())
        } else {
            diags.error(
                Code::UnknownName,
                name.span,
                format!("unknown key `{name}` in guard"),
            );
            KeyRef::var(name.name.as_str())
        }
    }

    /// Lower a state requirement (guards, effect preconditions, captures).
    pub fn lower_state_req(
        &self,
        scope: &mut Scope,
        state: Option<&ast::StateRef>,
        diags: &mut DiagSink,
    ) -> StateReq {
        match state {
            None => StateReq::Any,
            Some(ast::StateRef::Name(n)) => {
                if let Some(tok) = self.world.states.state(&n.name) {
                    StateReq::Exact(tok)
                } else if scope.statevars.contains(&self.syms.sym(&n.name))
                    || scope.bound_states.contains_key(&self.syms.sym(&n.name))
                {
                    match scope.bound_states.get(&self.syms.sym(&n.name)) {
                        Some(StateArg::Token(t)) => StateReq::Exact(*t),
                        _ => StateReq::Var(n.name.to_string()),
                    }
                } else if scope.sig_mode {
                    scope.statevars.insert(self.syms.sym(&n.name));
                    StateReq::Var(n.name.to_string())
                } else {
                    diags.error(
                        Code::UnknownState,
                        n.span,
                        format!("unknown state `{n}` (declare it in a stateset)"),
                    );
                    StateReq::Any
                }
            }
            Some(ast::StateRef::Bounded { var, bound }) => {
                let Some(tok) = self.world.states.state(&bound.name) else {
                    diags.error(
                        Code::UnknownState,
                        bound.span,
                        format!("unknown state `{bound}` used as a bound"),
                    );
                    return StateReq::Any;
                };
                scope.statevars.insert(self.syms.sym(&var.name));
                StateReq::AtMost {
                    var: Some(var.name.to_string()),
                    bound: tok,
                }
            }
        }
    }

    /// Resolve a state name in argument/postcondition position.
    pub fn resolve_state_arg(
        &self,
        scope: &mut Scope,
        name: &str,
        span: Span,
        diags: &mut DiagSink,
    ) -> StateArg {
        if let Some(tok) = self.world.states.state(name) {
            return StateArg::Token(tok);
        }
        if let Some(bound) = scope.bound_states.get(&self.syms.sym(name)) {
            return bound.clone();
        }
        if scope.statevars.contains(&self.syms.sym(name)) {
            return StateArg::Var(name.to_string());
        }
        if scope.sig_mode {
            scope.statevars.insert(self.syms.sym(name));
            StateArg::Var(name.to_string())
        } else if scope.allow_state_binders {
            scope.statevars.insert(self.syms.sym(name));
            scope.state_binders.push(name.to_string());
            StateArg::Var(name.to_string())
        } else {
            diags.error(
                Code::UnknownState,
                span,
                format!("unknown state `{name}` (declare it in a stateset)"),
            );
            StateArg::Token(vault_types::StateTable::DEFAULT)
        }
    }

    /// Lower an effect clause.
    pub fn lower_effect(
        &self,
        scope: &mut Scope,
        effect: &ast::Effect,
        diags: &mut DiagSink,
    ) -> Vec<EffItem> {
        let mut items = Vec::with_capacity(effect.items.len());
        for item in &effect.items {
            match item {
                ast::EffectItem::Keep { key, from, to } => {
                    let k = self.resolve_key(scope, &key.name, key.span, diags);
                    let from = self.lower_state_req(scope, from.as_ref(), diags);
                    let to = to
                        .as_ref()
                        .map(|t| self.resolve_state_arg(scope, &t.name, t.span, diags));
                    items.push(EffItem::Keep { key: k, from, to });
                }
                ast::EffectItem::Consume { key, state } => {
                    let k = self.resolve_key(scope, &key.name, key.span, diags);
                    let from = self.lower_state_req(scope, state.as_ref(), diags);
                    items.push(EffItem::Consume { key: k, from });
                }
                ast::EffectItem::Produce { key, state } => {
                    let k = self.resolve_key(scope, &key.name, key.span, diags);
                    let state = match state {
                        Some(s) => self.resolve_state_arg(scope, &s.name, s.span, diags),
                        None => StateArg::Token(vault_types::StateTable::DEFAULT),
                    };
                    items.push(EffItem::Produce { key: k, state });
                }
                ast::EffectItem::Fresh { key, state } => {
                    // The fresh key's name becomes a signature key variable
                    // (visible in the return type).
                    scope.keyvars.insert(self.syms.sym(&key.name));
                    scope
                        .bound_keys
                        .entry(self.syms.sym(&key.name))
                        .or_insert_with(|| KeyRef::var(key.name.as_str()));
                    let state = match state {
                        Some(s) => self.resolve_state_arg(scope, &s.name, s.span, diags),
                        None => StateArg::Token(vault_types::StateTable::DEFAULT),
                    };
                    items.push(EffItem::Fresh {
                        var: key.name.to_string(),
                        state,
                    });
                }
                // Capability declarations are not key items: they are
                // extracted into `FnSig.caps` by [`collect_caps`] and
                // never enter the held-key machinery.
                ast::EffectItem::Uses { .. } => {}
            }
        }
        items
    }
}

/// Extract the declared capability set from a surface effect clause:
/// the `uses` item names, sorted and deduplicated (order in source is
/// irrelevant; a stable order keeps signatures and export surfaces
/// comparable). Duplicates are reported by `validate_signature`, not
/// here — this runs for function *types* too, which have no decl site.
pub fn collect_caps(effect: Option<&ast::Effect>) -> Vec<String> {
    let mut caps: Vec<String> = effect
        .map(|e| {
            e.items
                .iter()
                .filter_map(|i| match i {
                    ast::EffectItem::Uses { cap } => Some(cap.name.to_string()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    caps.sort();
    caps.dedup();
    caps
}

/// Extract a bare identifier from a surface type (`Named` with no args).
pub fn bare_name(t: &ast::Type) -> Option<&ast::Ident> {
    match &t.kind {
        ast::TypeKind::Named { name, args } if args.is_empty() => Some(name),
        _ => None,
    }
}

/// Substitute named parameters by arguments inside a member type (struct
/// field or constructor argument). `map` sends parameter names to the
/// instantiation arguments; unknown variables are left in place.
pub fn subst_by_name(t: &Ty, map: &BTreeMap<String, Arg>) -> Ty {
    match t {
        Ty::Void | Ty::Int | Ty::Bool | Ty::Byte | Ty::Str | Ty::Error => t.clone(),
        Ty::Var(v) => match map.get(v) {
            Some(Arg::Ty(ty)) => ty.clone(),
            _ => t.clone(),
        },
        Ty::Array(inner) => Ty::Array(Box::new(subst_by_name(inner, map))),
        Ty::Tuple(ts) => Ty::Tuple(ts.iter().map(|t| subst_by_name(t, map)).collect()),
        Ty::Tracked { key, inner } => Ty::Tracked {
            key: subst_keyref(key, map),
            inner: Box::new(subst_by_name(inner, map)),
        },
        Ty::TrackedAnon(inner) => Ty::TrackedAnon(Box::new(subst_by_name(inner, map))),
        Ty::Guarded { guards, inner } => Ty::Guarded {
            guards: guards
                .iter()
                .map(|g| GuardAtom {
                    key: subst_keyref(&g.key, map),
                    req: subst_statereq(&g.req, map),
                })
                .collect(),
            inner: Box::new(subst_by_name(inner, map)),
        },
        Ty::Named { id, args } => Ty::Named {
            id: *id,
            args: args
                .iter()
                .map(|a| match a {
                    Arg::Ty(t) => Arg::Ty(subst_by_name(t, map)),
                    Arg::Key(k) => Arg::Key(subst_keyref(k, map)),
                    Arg::State(s) => Arg::State(subst_statearg(s, map)),
                })
                .collect(),
        },
        Ty::Fn(sig) => {
            let mut s = (**sig).clone();
            s.params = s.params.iter().map(|p| subst_by_name(p, map)).collect();
            s.ret = subst_by_name(&s.ret, map);
            s.effect = s.effect.iter().map(|e| subst_eff_by_name(e, map)).collect();
            Ty::Fn(Box::new(s))
        }
    }
}

fn subst_keyref(k: &KeyRef, map: &BTreeMap<String, Arg>) -> KeyRef {
    match k {
        KeyRef::Var(v) => match map.get(v) {
            Some(Arg::Key(nk)) => nk.clone(),
            _ => k.clone(),
        },
        KeyRef::Id(_) => k.clone(),
    }
}

fn subst_statereq(r: &StateReq, map: &BTreeMap<String, Arg>) -> StateReq {
    match r {
        StateReq::Var(v) => match map.get(v) {
            Some(Arg::State(StateArg::Token(t))) => StateReq::Exact(*t),
            Some(Arg::State(StateArg::Val(vault_types::StateVal::Token(t)))) => StateReq::Exact(*t),
            _ => r.clone(),
        },
        other => other.clone(),
    }
}

fn subst_statearg(s: &StateArg, map: &BTreeMap<String, Arg>) -> StateArg {
    match s {
        StateArg::Var(v) => match map.get(v) {
            Some(Arg::State(ns)) => ns.clone(),
            _ => s.clone(),
        },
        other => other.clone(),
    }
}

/// Substitute named parameters by arguments inside an effect item.
pub fn subst_eff_by_name(e: &EffItem, map: &BTreeMap<String, Arg>) -> EffItem {
    match e {
        EffItem::Keep { key, from, to } => EffItem::Keep {
            key: subst_keyref(key, map),
            from: subst_statereq(from, map),
            to: to.as_ref().map(|t| subst_statearg(t, map)),
        },
        EffItem::Consume { key, from } => EffItem::Consume {
            key: subst_keyref(key, map),
            from: subst_statereq(from, map),
        },
        EffItem::Produce { key, state } => EffItem::Produce {
            key: subst_keyref(key, map),
            state: subst_statearg(state, map),
        },
        EffItem::Fresh { var, state } => EffItem::Fresh {
            var: var.clone(),
            state: subst_statearg(state, map),
        },
    }
}

/// Collect every key variable mentioned in a type (tracking positions,
/// guards, and key arguments of named types).
pub fn collect_keyvars(t: &Ty, out: &mut std::collections::BTreeSet<String>) {
    match t {
        Ty::Tracked { key, inner } => {
            if let KeyRef::Var(v) = key {
                out.insert(v.clone());
            }
            collect_keyvars(inner, out);
        }
        Ty::TrackedAnon(inner) | Ty::Array(inner) => collect_keyvars(inner, out),
        Ty::Guarded { guards, inner } => {
            for g in guards {
                if let KeyRef::Var(v) = &g.key {
                    out.insert(v.clone());
                }
            }
            collect_keyvars(inner, out);
        }
        Ty::Tuple(ts) => {
            for t in ts {
                collect_keyvars(t, out);
            }
        }
        Ty::Named { args, .. } => {
            for a in args {
                match a {
                    Arg::Ty(t) => collect_keyvars(t, out),
                    Arg::Key(KeyRef::Var(v)) => {
                        out.insert(v.clone());
                    }
                    _ => {}
                }
            }
        }
        _ => {}
    }
}

/// Build the parameter-name → argument map for an instantiated named type.
pub fn param_map(params: &[ParamKind], args: &[Arg]) -> BTreeMap<String, Arg> {
    params
        .iter()
        .zip(args)
        .map(|(p, a)| (p.name().to_string(), a.clone()))
        .collect()
}

/// Shorthand: is this declaration a variant whose values carry keys?
pub fn is_keyed_variant(world: &Tables, id: vault_types::TypeId) -> bool {
    matches!(world.typedef(id), TypeDef::Variant(v) if v.is_keyed())
}
