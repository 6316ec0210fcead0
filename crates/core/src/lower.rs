//! Lowering of surface types and effect clauses into the internal type
//! language.
//!
//! Lowering is scope-directed: in *signature mode*, unknown key and state
//! names become variables (the paper: "key names are bound when first
//! referenced"); in *body mode*, keys must be in scope except in the binder
//! position of `tracked(K) T x = ...` local declarations, where `K` is
//! freshly bound to the initializer's key.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, LazyLock};
use vault_syntax::ast;
use vault_syntax::diag::{Code, DiagSink};
use vault_syntax::span::Span;
use vault_types::{
    Arg, EffItem, FnSig, GuardAtom, Interner, KeyRef, Name, ParamKind, StateArg, StateReq, Symbol,
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
#[derive(Clone, Debug)]
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
    /// Shared with the checker's key environment until a binder is added.
    pub bound_keys: Arc<BTreeMap<Symbol, KeyRef>>,
    /// Whether unknown key/state names auto-bind as variables.
    pub sig_mode: bool,
    /// Key names freshly introduced by `tracked(K)` binder positions in
    /// body mode, in order of appearance.
    pub binders: Vec<Name>,
    /// Whether unknown state names may bind fresh state variables (local
    /// declarations like `KIRQL<old> prev = KeAcquireSpinLock(l);`).
    pub allow_state_binders: bool,
    /// State variables freshly introduced this way.
    pub state_binders: Vec<String>,
    depth: u32,
}

impl Default for Scope {
    /// An empty body-mode scope. Every empty scope shares one empty key
    /// map, so making one allocates nothing.
    fn default() -> Self {
        static NO_KEYS: LazyLock<Arc<BTreeMap<Symbol, KeyRef>>> = LazyLock::new(Arc::default);
        Scope::body(NO_KEYS.clone())
    }
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
    pub fn body(bound_keys: Arc<BTreeMap<Symbol, KeyRef>>) -> Self {
        Scope {
            tyvars: BTreeSet::new(),
            bound_tys: BTreeMap::new(),
            statevars: BTreeSet::new(),
            bound_states: BTreeMap::new(),
            keyvars: BTreeSet::new(),
            bound_keys,
            sig_mode: false,
            binders: Vec::new(),
            allow_state_binders: false,
            state_binders: Vec::new(),
            depth: 0,
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
                Ty::Array(Arc::new(self.lower_type(scope, inner, diags)))
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
                        inner: Arc::new(inner_ty),
                    },
                    None => Ty::TrackedAnon(Arc::new(inner_ty)),
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
                    inner: Arc::new(self.lower_type(scope, inner, diags)),
                }
            }
            ast::TypeKind::Named { name, args } => {
                self.lower_named(scope, name, args, t.span, diags)
            }
            ast::TypeKind::Fn(ft) => Ty::Fn(Arc::new(self.lower_fn_type(scope, ft, diags))),
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

    /// Lower a `name<args>` type reference (also the entry for `new`
    /// expressions).
    pub fn lower_named(
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
            return Ty::Var(name.name.as_str().into());
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
        let params = self.world.typedef(id).params();
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
        if params.is_empty() {
            return Ty::named(id, Vec::new());
        }
        let args = params
            .iter()
            .zip(args)
            .map(|(param, arg)| self.lower_arg(scope, param, arg, diags))
            .collect();
        Ty::Named { id, args }
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
                    Arc::make_mut(&mut child.bound_keys).insert(self.syms.sym(param.name()), k);
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
            let name = Name::from(name);
            scope.binders.push(name.clone());
            let sym = self.syms.sym(&name);
            let r = KeyRef::Var(name);
            Arc::make_mut(&mut scope.bound_keys).insert(sym, r.clone());
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
                        _ => StateReq::Var(n.name.as_str().into()),
                    }
                } else if scope.sig_mode {
                    scope.statevars.insert(self.syms.sym(&n.name));
                    StateReq::Var(n.name.as_str().into())
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
                    var: Some(var.name.as_str().into()),
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
            return StateArg::Var(name.into());
        }
        if scope.sig_mode {
            scope.statevars.insert(self.syms.sym(name));
            StateArg::Var(name.into())
        } else if scope.allow_state_binders {
            scope.statevars.insert(self.syms.sym(name));
            scope.state_binders.push(name.to_string());
            StateArg::Var(name.into())
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
                    let sym = self.syms.sym(&key.name);
                    scope.keyvars.insert(sym);
                    if !scope.bound_keys.contains_key(&sym) {
                        Arc::make_mut(&mut scope.bound_keys)
                            .insert(sym, KeyRef::var(key.name.as_str()));
                    }
                    let state = match state {
                        Some(s) => self.resolve_state_arg(scope, &s.name, s.span, diags),
                        None => StateArg::Token(vault_types::StateTable::DEFAULT),
                    };
                    items.push(EffItem::Fresh {
                        var: key.name.as_str().into(),
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

/// Shorthand: is this declaration a variant whose values carry keys?
pub fn is_keyed_variant(world: &Tables, id: vault_types::TypeId) -> bool {
    matches!(world.typedef(id), TypeDef::Variant(v) if v.is_keyed())
}
