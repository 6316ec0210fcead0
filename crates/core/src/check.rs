//! The flow checker: verifies every function body against its effect
//! clause, tracking the held-key set through the control-flow graph.
//!
//! This is the paper's contribution. For each function the checker:
//!
//! 1. instantiates the signature's key/state variables with fresh concrete
//!    keys and abstract states (three-way polymorphism, §3.2);
//! 2. seeds the held-key set from the effect clause's precondition;
//! 3. walks the body, checking guards at every access and applying effect
//!    clauses at every call;
//! 4. joins states at control-flow merges with the key-renaming
//!    abstraction (§3), inferring loop invariants by iteration;
//! 5. compares the exit state against the effect clause's postcondition —
//!    extra keys are leaks, missing keys are broken promises.

use crate::elaborate::lower_fn_decl_in;
use crate::flow::{merge, states_agree, Binding, FlowState, Frame};
use crate::interface::Decls;
use crate::lower::{is_keyed_variant, AliasEntry, LowerCtx, Scope};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;
use vault_syntax::ast::{self, Expr, ExprKind, Stmt, StmtKind};
use vault_syntax::diag::{Code, DiagSink, Diagnostic};
use vault_syntax::span::Span;
use vault_types::subst::{self, Kind, Lookup, Mention, Params};
use vault_types::{
    unify, Arg, Bindings, CtorDef, EffItem, FnSig, GuardAtom, Interner, KeyGen, KeyId, KeyInfo,
    KeyOrigin, KeyRef, Name, Resource, StateArg, StateReq, StateVal, Symbol, Tables, Ty, TypeDef,
    VariantDef, World,
};

/// Counters reported per function check (used by the scaling benches).
///
/// The `*_micros` fields break the run down by phase (lex, parse,
/// elaborate, lower, check) so perf work can see where cold time goes.
/// They are wall-clock measurements and therefore vary run to run;
/// `PartialEq` deliberately ignores them so that two checks of the same
/// source still compare equal (the incremental engine asserts exactly
/// that).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// Statements visited.
    pub statements: usize,
    /// Calls checked.
    pub calls: usize,
    /// Join points merged.
    pub joins: usize,
    /// Loop-invariant iterations performed.
    pub loop_iterations: usize,
    /// Keys allocated while checking.
    pub keys_allocated: usize,
    /// Flow-state snapshots taken at branches, loops, and switch arms.
    pub snapshots: usize,
    /// Frames actually deep-copied by the copy-on-write machinery (a
    /// fraction of `snapshots * frames`; the rest stayed shared).
    pub frames_copied: usize,
    /// Microseconds spent lexing the unit.
    pub lex_micros: u64,
    /// Microseconds spent parsing (token stream → AST).
    pub parse_micros: u64,
    /// Microseconds spent elaborating declarations (passes 1–3).
    pub elaborate_micros: u64,
    /// Microseconds spent lowering signatures and types (passes 4–5).
    pub lower_micros: u64,
    /// Microseconds spent in the flow checker proper.
    pub check_micros: u64,
}

impl PartialEq for CheckStats {
    fn eq(&self, other: &Self) -> bool {
        // Timing fields are excluded on purpose: they are wall-clock
        // noise, not semantic output.
        self.statements == other.statements
            && self.calls == other.calls
            && self.joins == other.joins
            && self.loop_iterations == other.loop_iterations
            && self.keys_allocated == other.keys_allocated
            && self.snapshots == other.snapshots
            && self.frames_copied == other.frames_copied
    }
}

impl Eq for CheckStats {}

impl CheckStats {
    /// Accumulate another function's counters.
    pub fn absorb(&mut self, other: CheckStats) {
        self.statements += other.statements;
        self.calls += other.calls;
        self.joins += other.joins;
        self.loop_iterations += other.loop_iterations;
        self.keys_allocated += other.keys_allocated;
        self.snapshots += other.snapshots;
        self.frames_copied += other.frames_copied;
        self.lex_micros += other.lex_micros;
        self.parse_micros += other.parse_micros;
        self.elaborate_micros += other.elaborate_micros;
        self.lower_micros += other.lower_micros;
        self.check_micros += other.check_micros;
    }

    /// Total front-end + checker time in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.lex_micros
            + self.parse_micros
            + self.elaborate_micros
            + self.lower_micros
            + self.check_micros
    }
}

/// Default fuel for the loop-invariant fixpoint (see [`crate::Limits`]).
pub const DEFAULT_FIXPOINT_ITERS: usize = 32;

/// What the effect clause promises at function exit.
#[derive(Clone, Debug)]
enum ExitExpect {
    /// A concrete key must be held in the given state.
    Key { key: KeyId, state: StateVal },
    /// A `[new K]` key, identified by unifying the return type.
    FreshVar { var: Name, state: StateVal },
}

/// Check one function body against its signature.
pub fn check_function(
    world: &World,
    syms: &Interner,
    aliases: &BTreeMap<Symbol, AliasEntry>,
    qualifiers: &BTreeSet<Symbol>,
    base_keys: &KeyGen,
    f: &ast::FunDecl,
    diags: &mut DiagSink,
) -> CheckStats {
    check_function_with_limits(
        world,
        syms,
        aliases,
        qualifiers,
        base_keys,
        f,
        diags,
        &crate::Limits::default(),
    )
}

/// [`check_function`] under explicit resource bounds: the loop-invariant
/// fixpoint burns `limits.fixpoint_iters` fuel per loop, and the
/// deadline is polled every few statements — exceeding it abandons the
/// rest of the function with a [`Code::LimitExceeded`] diagnostic.
#[allow(clippy::too_many_arguments)]
pub fn check_function_with_limits(
    world: &World,
    syms: &Interner,
    aliases: &BTreeMap<Symbol, AliasEntry>,
    qualifiers: &BTreeSet<Symbol>,
    base_keys: &KeyGen,
    f: &ast::FunDecl,
    diags: &mut DiagSink,
    limits: &crate::Limits,
) -> CheckStats {
    let decls = Decls::new(world, syms, aliases, qualifiers, base_keys);
    check_function_reading(&decls, f, diags, limits)
}

/// [`check_function_with_limits`] through a [`Decls`] accessor, which
/// records every function signature the body looks up: the read set a
/// cached verdict is validated against (see [`crate::interface`]).
pub fn check_function_reading(
    decls: &Decls<'_>,
    f: &ast::FunDecl,
    diags: &mut DiagSink,
    limits: &crate::Limits,
) -> CheckStats {
    let mut checker = FnChecker {
        decls,
        diags,
        keys: decls.base_keys().clone(),
        abs_counter: 0,
        local_fns: BTreeMap::new(),
        captured: Vec::new(),
        statevars: BTreeMap::new(),
        keyenv: Arc::default(),
        ret_ty: Ty::Void,
        fn_name: f.name.name.to_string(),
        expected_exit: Vec::new(),
        caps_declared: Vec::new(),
        caps_used: BTreeSet::new(),
        stats: CheckStats::default(),
        limits: *limits,
        gave_up: false,
        nested: false,
    };
    // Copy-on-write accounting: one function check is one job, and the
    // scope windows the thread-local counter over exactly this call. The
    // window spans nested functions too, so only the top-level entry
    // point reports the delta (child checkers leave `frames_copied` at
    // zero); the unit's total sums the per-job deltas.
    let copies = crate::flow::FrameCopyScope::begin();
    let started = std::time::Instant::now();
    checker.run(f);
    checker.stats.check_micros = started.elapsed().as_micros() as u64;
    checker.stats.frames_copied = copies.delta() as usize;
    checker.stats
}

/// A resolved callee signature: borrowed from the unit's declarations,
/// or shared with a nested function or a function value.
enum Callee<'a> {
    Decl(&'a FnSig),
    Local(Arc<FnSig>),
}

impl std::ops::Deref for Callee<'_> {
    type Target = FnSig;

    fn deref(&self) -> &FnSig {
        match self {
            Callee::Decl(sig) => sig,
            Callee::Local(sig) => sig,
        }
    }
}

struct FnChecker<'a, 'd> {
    /// The unit's declaration tables and interner, reached only through
    /// this accessor.
    decls: &'a Decls<'a>,
    diags: &'d mut DiagSink,
    keys: KeyGen,
    abs_counter: u32,
    /// Nested functions in scope, by name.
    local_fns: BTreeMap<Symbol, Arc<FnSig>>,
    /// Read-only frames captured from an enclosing function.
    captured: Vec<Arc<Frame>>,
    /// Instantiated state variables of this function's signature.
    statevars: BTreeMap<Symbol, StateVal>,
    /// Key names in scope (parameters, locals, enclosing keys).
    keyenv: Arc<BTreeMap<Symbol, KeyRef>>,
    /// Concrete return type (fresh keys still variables).
    ret_ty: Ty,
    fn_name: String,
    expected_exit: Vec<ExitExpect>,
    /// Declared capability set (sorted; empty = discipline opted out).
    caps_declared: Vec<String>,
    /// Capabilities the body exercised, via intrinsics or callee
    /// declarations (for the `V704` unused-capability warning).
    caps_used: BTreeSet<String>,
    stats: CheckStats,
    /// Resource bounds (fixpoint fuel and the cooperative deadline).
    limits: crate::Limits,
    /// Set once the deadline trips; every further statement is skipped.
    gave_up: bool,
    /// Whether this checks a function nested in another's body.
    nested: bool,
}

impl<'a, 'd> FnChecker<'a, 'd> {
    fn ctx(&self) -> LowerCtx<'a> {
        self.decls.ctx()
    }

    /// Capability-effect discipline (`V7xx`). A function that declares a
    /// capability set (any `uses` item) must cover every capability its
    /// body requires: `alloc` for the `new`/`free` intrinsics, and the
    /// *declared* set of every callee (requirements are compositional —
    /// transitive use is summarized by signatures, never re-derived from
    /// callee bodies, so cross-unit checking works through signature
    /// preludes and the interface cutoff is preserved). Functions with
    /// no `uses` items opt out entirely: they impose no requirement on
    /// callers and incur none themselves.
    ///
    /// `what` is formatted only when the diagnostic is reported.
    fn require_cap(&mut self, cap: &str, what: fmt::Arguments<'_>, span: Span) {
        if self.caps_declared.is_empty() {
            return;
        }
        if !self.caps_used.contains(cap) {
            self.caps_used.insert(cap.to_string());
        }
        if !self.caps_declared.iter().any(|c| c == cap) {
            self.diags.error(
                Code::CapMissing,
                span,
                format!(
                    "{what} requires capability `{cap}`, but `{}` does not declare it \
                     (add `uses {cap}` to its effect clause)",
                    self.fn_name
                ),
            );
        }
    }

    /// Snapshot the flow state for a branch, loop, or switch arm. With
    /// copy-on-write frames this is O(frames) `Arc` bumps; frames are
    /// only deep-copied when a side later writes to them.
    fn describe(&self, k: KeyId) -> String {
        self.keys.describe(k, self.decls.tables())
    }

    fn snapshot(&mut self, st: &FlowState) -> FlowState {
        self.stats.snapshots += 1;
        st.clone()
    }

    fn fresh_abs(&mut self, bound: Option<vault_types::StateId>) -> StateVal {
        self.abs_counter += 1;
        StateVal::Abs {
            id: self.abs_counter,
            bound,
        }
    }

    fn fresh_key(&mut self, name: Option<Name>, resource: Resource, origin: KeyOrigin) -> KeyId {
        self.stats.keys_allocated += 1;
        self.keys.fresh(KeyInfo {
            name,
            resource,
            origin,
            stateset: vault_types::StateTable::DEFAULT_SET,
            global: false,
        })
    }

    // ------------------------------------------------------------------
    // Signature instantiation (entry state)
    // ------------------------------------------------------------------

    fn run(&mut self, f: &ast::FunDecl) {
        let Some(body) = &f.body else { return };
        let mut st = self.instantiate(f);
        self.check_block(&mut st, body);
        // Capability audit: every declared capability must be exercised
        // somewhere in the body (directly by an intrinsic or through a
        // callee's declared set). Dead authority is a warning, not an
        // error — the program is still protocol-correct.
        if !self.caps_declared.is_empty() && !self.gave_up {
            let eff_span = f.effect.as_ref().map(|e| e.span).unwrap_or(f.name.span);
            for cap in &self.caps_declared {
                // Unknown capabilities already got a `V702` error at the
                // declaration site; an unused-warning on top is noise.
                if !crate::KNOWN_CAPS.contains(&cap.as_str()) {
                    continue;
                }
                if !self.caps_used.contains(cap) {
                    self.diags.push(Diagnostic::warning(
                        Code::CapUnused,
                        eff_span,
                        format!(
                            "function `{}` declares capability `{cap}` but never \
                             exercises it",
                            self.fn_name
                        ),
                    ));
                }
            }
        }
        if st.reachable {
            if matches!(self.ret_ty, Ty::Void) {
                self.do_return(&mut st, None, body.span);
            } else {
                self.diags.error(
                    Code::TypeMismatch,
                    f.name.span,
                    format!(
                        "function `{}` can reach the end of its body without returning a \
                         value",
                        self.fn_name
                    ),
                );
            }
        }
    }

    /// Build the entry state from the function's signature.
    fn instantiate(&mut self, f: &ast::FunDecl) -> FlowState {
        // Elaboration already lowered a top-level signature; where that
        // lowering reported nothing and no other declaration shares the
        // name, lowering it again here would give the same signature and
        // report nothing, so it is borrowed instead.
        let reusable = if self.nested {
            None
        } else {
            self.decls.reusable_sig(&f.name.name)
        };
        let sig: Cow<'a, FnSig> = match reusable {
            Some(sig) => Cow::Borrowed(sig),
            None => {
                let mut scope = Scope::signature();
                scope.bound_keys = self.keyenv.clone();
                let ctx = self.ctx();
                Cow::Owned(lower_fn_decl_in(&ctx, f, scope, self.diags))
            }
        };
        self.caps_declared = sig.caps.clone();

        // Instantiate the key variables of the parameters with fresh
        // concrete keys, in name order. Unbound effect/return keys and
        // duplicated effect items are reported by `validate_signature`
        // during elaboration (and for nested functions, by
        // `check_nested_fun`).
        // A key's resource is what the first `tracked(K) T` among the
        // parameters tracks.
        let mut key_vars: BTreeMap<&Name, Option<Resource>> = BTreeMap::new();
        for p in &sig.params {
            subst::visit_ty(p, &mut |m| {
                if let Mention::Key(KeyRef::Var(v), tracks) = m {
                    let resource = key_vars.entry(v).or_insert(None);
                    if resource.is_none() {
                        *resource = tracks.map(|t| match t {
                            Ty::Var(t) => Resource::Text(t.clone()),
                            _ => Resource::Static("tracked object"),
                        });
                    }
                }
            });
        }
        let mut entry = Bindings::new();
        for (v, resource) in key_vars {
            let resource = resource.unwrap_or(Resource::Static("resource"));
            let k = self.fresh_key(Some(v.clone()), resource, KeyOrigin::Param);
            Arc::make_mut(&mut self.keyenv).insert(self.decls.syms().sym(v), KeyRef::Id(k));
            entry.keys.insert(v.clone(), k);
        }

        // Instantiate state variables with abstract states. A bounded
        // requirement in the effect sets its variable's bound; any other
        // mention keeps the first bound seen.
        let mut svars: BTreeMap<Name, Option<vault_types::StateId>> = BTreeMap::new();
        for tp in &f.tparams {
            if let ast::TParam::State { name, bound } = tp {
                let b = bound
                    .as_ref()
                    .and_then(|b| self.decls.tables().states.state(&b.name));
                svars.insert(name.name.as_str().into(), b);
            }
        }
        let mut add = |m: Mention<'_>, bounded_wins: bool| {
            if let Mention::State(v, bound) = m {
                let slot = svars.entry(v.clone()).or_insert(bound);
                if bounded_wins && bound.is_some() {
                    *slot = bound;
                }
            }
        };
        for item in &sig.effect {
            subst::visit_effect(item, &mut |m| add(m, true));
        }
        for p in &sig.params {
            subst::visit_ty(p, &mut |m| add(m, false));
        }
        for (v, bound) in svars {
            let val = self.fresh_abs(bound);
            self.statevars.insert(self.decls.syms().sym(&v), val);
            entry.states.insert(v, val);
        }
        let lookup = Local {
            binds: &entry,
            statevars: None,
        };

        // Concrete parameter types; anonymous tracked parameters are
        // unpacked on entry (paper §3.3).
        let mut st = FlowState::new();
        let mut entry_anon_keys = Vec::new();
        for (ty, name) in sig.params.iter().zip(&sig.param_names) {
            let Ok(mut cty) = subst::ty(ty, &lookup);
            if let Ty::TrackedAnon(inner) = &cty {
                let k = self.fresh_key(
                    name.as_deref().map(Name::from),
                    Resource::Type((**inner).clone()),
                    KeyOrigin::Param,
                );
                entry_anon_keys.push(k);
                cty = Ty::Tracked {
                    key: KeyRef::Id(k),
                    inner: inner.clone(),
                };
            }
            if let Some(n) = name {
                if !st.declare(
                    self.decls.syms().sym(n),
                    Binding {
                        decl_ty: cty.clone(),
                        ty: cty,
                        init: true,
                    },
                ) {
                    self.diags.error(
                        Code::DuplicateDecl,
                        f.span,
                        format!("parameter `{n}` declared twice"),
                    );
                }
            }
        }

        // Entry held-key set and exit expectations from the effect. The
        // lookup bound every state variable the effect mentions, so a
        // state argument is now a value, and a requirement still naming
        // a variable names one of `entry`'s abstract states.
        let eff_span = f.effect.as_ref().map(|e| e.span).unwrap_or(f.span);
        let mut mentioned: BTreeSet<KeyId> = BTreeSet::new();
        for item in &sig.effect {
            let Ok(item) = subst::effect(item, &lookup);
            match &item {
                EffItem::Keep { key, from, to } => {
                    let Some(k) = key.id() else { continue };
                    mentioned.insert(k);
                    let state = self.entry_state(from, &entry);
                    // Duplicate keys were reported by validate_signature.
                    let _ = st.held.insert(k, state);
                    let exit = match to {
                        None => state,
                        Some(arg) => self.resolve_call_state(arg, &entry, eff_span),
                    };
                    self.expected_exit.push(ExitExpect::Key {
                        key: k,
                        state: exit,
                    });
                }
                EffItem::Consume { key, from } => {
                    let Some(k) = key.id() else { continue };
                    mentioned.insert(k);
                    let state = self.entry_state(from, &entry);
                    let _ = st.held.insert(k, state);
                }
                EffItem::Produce { key, state } => {
                    let Some(k) = key.id() else { continue };
                    mentioned.insert(k);
                    let val = self.resolve_call_state(state, &entry, eff_span);
                    self.expected_exit
                        .push(ExitExpect::Key { key: k, state: val });
                }
                EffItem::Fresh { var, state } => {
                    let val = self.resolve_call_state(state, &entry, eff_span);
                    self.expected_exit.push(ExitExpect::FreshVar {
                        var: var.clone(),
                        state: val,
                    });
                }
            }
        }

        // Anonymous tracked parameters transfer ownership: their packaged
        // key is unpacked on entry (paper §3.3) and must be consumed — or
        // repacked into the return value — before exit, like any other
        // linear key the body acquires.
        for k in entry_anon_keys {
            let val = self.fresh_abs(None);
            st.held.insert(k, val).expect("fresh key");
        }

        // Unmentioned global keys are held in a polymorphic state that the
        // function must not disturb.
        for (name, g) in self.decls.tables().global_keys() {
            Arc::make_mut(&mut self.keyenv).insert(self.decls.syms().sym(name), KeyRef::Id(g.id));
            if !mentioned.contains(&g.id) {
                let val = self.fresh_abs(None);
                st.held.insert(g.id, val).expect("globals are distinct");
                self.expected_exit.push(ExitExpect::Key {
                    key: g.id,
                    state: val,
                });
            }
        }

        let Ok(ret) = subst::ty(&sig.ret, &lookup);
        self.ret_ty = ret;
        st
    }

    /// The state a key enters the function in, for an effect
    /// precondition instantiated by `entry` (which holds every state
    /// variable the effect mentions).
    fn entry_state(&mut self, req: &StateReq, entry: &Bindings) -> StateVal {
        match req {
            StateReq::Any => self.fresh_abs(None),
            StateReq::Exact(t) => StateVal::Token(*t),
            StateReq::AtMost { var: None, bound } => self.fresh_abs(Some(*bound)),
            StateReq::AtMost { var: Some(v), .. } | StateReq::Var(v) => entry.states[v],
        }
    }

    // ------------------------------------------------------------------
    // Exit checking
    // ------------------------------------------------------------------

    fn do_return(&mut self, st: &mut FlowState, value: Option<&Expr>, span: Span) {
        let actual = match value {
            Some(e) => {
                let expected = self.ret_ty.clone();
                self.eval(st, e, Some(&expected))
            }
            None => Ty::Void,
        };
        let mut binds = Bindings::new();
        if !actual.is_error() {
            if let Err(e) = unify(
                &self.ret_ty.clone(),
                &actual,
                &mut binds,
                self.decls.tables(),
            ) {
                self.diags.error(
                    Code::TypeMismatch,
                    span,
                    format!("return value does not match declared return type: {e}"),
                );
            }
        }
        // Returning at anonymous tracked type packs the key (the caller
        // unpacks a fresh one).
        if let Ty::TrackedAnon(_) = &self.ret_ty {
            if let Ty::Tracked {
                key: KeyRef::Id(k), ..
            } = &actual
            {
                if st.held.remove(*k).is_err() {
                    self.diags.error(
                        Code::KeyNotHeld,
                        span,
                        format!(
                            "cannot return `{}`: its key {} is not held",
                            actual.display(self.decls.tables()),
                            self.describe(*k)
                        ),
                    );
                }
            }
        }
        self.check_exit(st, &binds, span);
        st.reachable = false;
    }

    fn check_exit(&mut self, st: &FlowState, binds: &Bindings, span: Span) {
        let mut expected: BTreeMap<KeyId, StateVal> = BTreeMap::new();
        for e in &self.expected_exit {
            match e {
                ExitExpect::Key { key, state } => {
                    expected.insert(*key, *state);
                }
                ExitExpect::FreshVar { var, state } => match binds.keys.get(var) {
                    Some(k) => {
                        expected.insert(*k, *state);
                    }
                    None => {
                        self.diags.error(
                            Code::MissingKeyAtExit,
                            span,
                            format!(
                                "effect clause promises a fresh key `{var}`, but the \
                                 returned value does not identify it"
                            ),
                        );
                    }
                },
            }
        }
        for (k, want) in &expected {
            match st.held.get(*k) {
                None => {
                    self.diags.error(
                        Code::MissingKeyAtExit,
                        span,
                        format!(
                            "effect clause promises key {} at exit, but it is not held \
                             here",
                            self.describe(*k)
                        ),
                    );
                }
                Some(cur) if cur != *want => {
                    self.diags.error(
                        Code::WrongKeyState,
                        span,
                        format!(
                            "key {} must be in state `{}` at exit, but is in `{}`",
                            self.describe(*k),
                            want.display(&self.decls.tables().states),
                            cur.display(&self.decls.tables().states)
                        ),
                    );
                }
                Some(_) => {}
            }
        }
        for (k, _) in st.held.iter() {
            if !expected.contains_key(&k) {
                self.diags.error(
                    Code::KeyLeak,
                    span,
                    format!(
                        "key {} ({}) is still held at exit of `{}` but its effect clause \
                         does not return it — leaked resource",
                        self.describe(k),
                        self.keys.resource(k, self.decls.tables()),
                        self.fn_name
                    ),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn check_block(&mut self, st: &mut FlowState, b: &ast::Block) {
        st.push_frame();
        for s in &b.stmts {
            if !st.reachable {
                break;
            }
            self.check_stmt(st, s);
        }
        st.pop_frame();
    }

    fn check_stmt(&mut self, st: &mut FlowState, s: &Stmt) {
        self.stats.statements += 1;
        // Cooperative deadline: poll every 64 statements (an `Instant`
        // read is cheap but not free), then drain the rest of the
        // function as unreachable so we unwind without more work.
        if self.gave_up || (self.stats.statements & 63 == 0 && self.limits.deadline_exceeded()) {
            if !self.gave_up {
                self.gave_up = true;
                self.diags.error(
                    Code::LimitExceeded,
                    s.span,
                    format!(
                        "deadline exceeded while checking `{}`; the rest of the unit was not checked",
                        self.fn_name
                    ),
                );
            }
            st.reachable = false;
            return;
        }
        match &s.kind {
            StmtKind::Local { ty, name, init } => self.check_local(st, ty, name, init.as_ref()),
            StmtKind::NestedFun(f) => self.check_nested_fun(st, f),
            StmtKind::Expr(e) => {
                self.eval(st, e, None);
            }
            StmtKind::Assign { lhs, rhs } => self.check_assign(st, lhs, rhs, s.span),
            StmtKind::Incr(e) | StmtKind::Decr(e) => {
                let t = self.eval(st, e, None);
                self.use_value(st, &t, e.span);
                if !matches!(peel_guards(&t), Ty::Int | Ty::Byte | Ty::Error) {
                    self.diags.error(
                        Code::TypeMismatch,
                        e.span,
                        format!(
                            "`++`/`--` requires an integer, found `{}`",
                            t.display(self.decls.tables())
                        ),
                    );
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expect_bool(st, cond);
                let mut then_st = self.snapshot(st);
                self.check_stmt(&mut then_st, then_branch);
                let mut else_st = self.snapshot(st);
                if let Some(e) = else_branch {
                    self.check_stmt(&mut else_st, e);
                }
                *st = self.join(&then_st, &else_st, s.span);
            }
            StmtKind::While { cond, body } => self.check_while(st, cond, body, s.span),
            StmtKind::Switch { scrutinee, arms } => self.check_switch(st, scrutinee, arms, s.span),
            StmtKind::Return(v) => self.do_return(st, v.as_ref(), s.span),
            StmtKind::Free(e) => {
                self.require_cap("alloc", format_args!("`free`"), s.span);
                let t = self.eval(st, e, None);
                match t {
                    Ty::Tracked {
                        key: KeyRef::Id(k), ..
                    } => {
                        let info_global = self.keys.info(k).global;
                        if info_global {
                            self.diags.error(
                                Code::GlobalKeyMisuse,
                                e.span,
                                "global keys cannot be freed",
                            );
                        } else if st.held.remove(k).is_err() {
                            self.diags.error(
                                Code::KeyNotHeld,
                                e.span,
                                format!(
                                    "cannot free: key {} is not in the held-key set",
                                    self.describe(k)
                                ),
                            );
                        }
                    }
                    Ty::Error => {}
                    other => {
                        self.diags.error(
                            Code::FreeUntracked,
                            e.span,
                            format!(
                                "`free` requires a tracked value, found `{}`",
                                other.display(self.decls.tables())
                            ),
                        );
                    }
                }
            }
            StmtKind::Block(b) => self.check_block(st, b),
        }
    }

    fn join(&mut self, a: &FlowState, b: &FlowState, span: Span) -> FlowState {
        self.stats.joins += 1;
        let m = merge(a, b, &self.keys, self.decls.tables(), self.decls.syms());
        for p in &m.problems {
            self.diags.error(Code::JoinMismatch, span, p.clone());
        }
        m.state
    }

    fn check_local(
        &mut self,
        st: &mut FlowState,
        ty: &ast::Type,
        name: &ast::Ident,
        init: Option<&Expr>,
    ) {
        let mut scope = Scope::body(self.keyenv.clone());
        scope.allow_state_binders = true;
        scope.statevars = self.statevars.keys().copied().collect();
        let lowered = {
            let ctx = self.ctx();
            ctx.lower_type(&mut scope, ty, self.diags)
        };
        let binders = std::mem::take(&mut scope.binders);
        let state_binders = std::mem::take(&mut scope.state_binders);
        let (final_ty, decl_ty, init_ok) = match init {
            Some(e) => {
                let expected = lowered.clone();
                let actual = self.eval(st, e, Some(&expected));
                let mut binds = Bindings::new();
                let ok = actual.is_error()
                    || lowered.is_error()
                    || match unify(&lowered, &actual, &mut binds, self.decls.tables()) {
                        Ok(()) => true,
                        Err(_) if is_guarded_init(&lowered, &actual, self.decls.tables()) => true,
                        Err(err) => {
                            self.diags.error(
                                Code::TypeMismatch,
                                e.span,
                                format!("initializer does not match declared type: {err}"),
                            );
                            false
                        }
                    };
                // Bind the fresh key names introduced by `tracked(K)`.
                for b in &binders {
                    match binds.keys.get(b) {
                        Some(k) => {
                            Arc::make_mut(&mut self.keyenv)
                                .insert(self.decls.syms().sym(b), KeyRef::Id(*k));
                            if self.keys.info(*k).name.is_none() {
                                self.keys.info_mut(*k).name = Some(b.clone());
                            }
                        }
                        None if ok => {
                            self.diags.error(
                                Code::TypeMismatch,
                                name.span,
                                format!(
                                    "could not bind key `{b}`: the initializer is not \
                                     tracked by a fresh key"
                                ),
                            );
                        }
                        None => {}
                    }
                }
                // Bind fresh state variables (`KIRQL<old> prev = ...`).
                for b in &state_binders {
                    match binds.states.get(b.as_str()) {
                        Some(v) => {
                            self.statevars.insert(self.decls.syms().sym(b), *v);
                        }
                        None if ok => {
                            self.diags.error(
                                Code::TypeMismatch,
                                name.span,
                                format!(
                                    "could not bind state variable `{b}` from the \
                                     initializer"
                                ),
                            );
                        }
                        None => {}
                    }
                }
                let stored = if ok && !actual.is_error() && !is_anon_decl(&lowered) {
                    // Prefer the declared shape with keys/states resolved.
                    let local = Local {
                        binds: &binds,
                        statevars: Some((&self.statevars, self.decls.syms())),
                    };
                    let Ok(resolved) = subst::ty(&lowered, &local);
                    if matches!(resolved, Ty::Error) {
                        actual
                    } else {
                        resolved
                    }
                } else if ok {
                    actual
                } else {
                    Ty::Error
                };
                // Writing through a guarded declaration requires guards.
                if let Ty::Guarded { guards, .. } = &stored {
                    self.check_guards(st, guards, name.span);
                }
                (stored, lowered, true)
            }
            None => {
                if !binders.is_empty() {
                    self.diags.error(
                        Code::Uninitialized,
                        name.span,
                        format!(
                            "`tracked({})` declaration must be initialized to bind its key",
                            binders.join(", ")
                        ),
                    );
                }
                (lowered.clone(), lowered, false)
            }
        };
        if !st.declare(
            self.decls.syms().sym(&name.name),
            Binding {
                decl_ty,
                ty: final_ty,
                init: init_ok,
            },
        ) {
            self.diags.error(
                Code::DuplicateDecl,
                name.span,
                format!("variable `{name}` is already declared in this scope"),
            );
        }
    }

    fn check_assign(&mut self, st: &mut FlowState, lhs: &Expr, rhs: &Expr, span: Span) {
        match &lhs.kind {
            ExprKind::Var(name) => {
                let sym = self.decls.syms().sym(&name.name);
                let Some(binding) = st.lookup(sym).cloned() else {
                    if self.captured.iter().any(|f| f.contains_key(&sym)) {
                        self.diags.error(
                            Code::TypeMismatch,
                            lhs.span,
                            format!(
                                "cannot assign to `{name}` captured from an enclosing \
                                 function"
                            ),
                        );
                    } else {
                        self.diags.error(
                            Code::UnknownName,
                            name.span,
                            format!("unknown variable `{name}`"),
                        );
                    }
                    self.eval(st, rhs, None);
                    return;
                };
                let expected = binding.decl_ty.clone();
                let actual = self.eval(st, rhs, Some(&expected));
                if let Ty::Guarded { guards, .. } = &binding.decl_ty {
                    let guards = guards.clone();
                    self.check_guards(st, &guards, span);
                }
                let mut binds = Bindings::new();
                let ok = actual.is_error()
                    || expected.is_error()
                    || unify(&expected, &actual, &mut binds, self.decls.tables()).is_ok()
                    || is_guarded_init(&expected, &actual, self.decls.tables());
                if !ok {
                    self.diags.error(
                        Code::TypeMismatch,
                        span,
                        format!(
                            "cannot assign `{}` to `{name}` of type `{}`",
                            actual.display(self.decls.tables()),
                            expected.display(self.decls.tables())
                        ),
                    );
                }
                if let Some(b) = st.lookup_mut(sym) {
                    b.init = ok || b.init;
                    if ok {
                        b.ty = if is_anon_decl(&expected) && !actual.is_error() {
                            actual
                        } else {
                            expected
                        };
                    }
                }
            }
            ExprKind::Field(..) | ExprKind::Index(..) => {
                let lhs_ty = self.eval(st, lhs, None);
                let actual = self.eval(st, rhs, Some(&lhs_ty));
                let mut binds = Bindings::new();
                if !lhs_ty.is_error()
                    && !actual.is_error()
                    && unify(&lhs_ty, &actual, &mut binds, self.decls.tables()).is_err()
                    && unify(
                        peel_guards(&lhs_ty),
                        peel_guards(&actual),
                        &mut binds,
                        self.decls.tables(),
                    )
                    .is_err()
                {
                    self.diags.error(
                        Code::TypeMismatch,
                        span,
                        format!(
                            "cannot assign `{}` to a location of type `{}`",
                            actual.display(self.decls.tables()),
                            lhs_ty.display(self.decls.tables())
                        ),
                    );
                }
            }
            _ => {
                self.diags.error(
                    Code::TypeMismatch,
                    lhs.span,
                    "this expression cannot be assigned to",
                );
            }
        }
    }

    fn check_nested_fun(&mut self, st: &mut FlowState, f: &ast::FunDecl) {
        // The nested function sees the enclosing keys as bound names and
        // the enclosing variables as read-only captures.
        let mut captured = self.captured.clone();
        for frame in &st.frames {
            captured.push(frame.clone());
        }
        let sig = {
            let ctx = self.ctx();
            let mut scope = Scope::signature();
            scope.bound_keys = self.keyenv.clone();
            lower_fn_decl_in(&ctx, f, scope, self.diags)
        };
        crate::elaborate::validate_signature(&sig, f, self.diags);
        let mut child = FnChecker {
            decls: self.decls,
            diags: self.diags,
            keys: self.keys.clone(),
            abs_counter: self.abs_counter,
            local_fns: self.local_fns.clone(),
            captured,
            statevars: self.statevars.clone(),
            keyenv: self.keyenv.clone(),
            ret_ty: Ty::Void,
            fn_name: f.name.name.to_string(),
            expected_exit: Vec::new(),
            caps_declared: Vec::new(),
            caps_used: BTreeSet::new(),
            stats: CheckStats::default(),
            limits: self.limits,
            gave_up: self.gave_up,
            nested: true,
        };
        child.run(f);
        let child_stats = child.stats;
        self.stats.absorb(child_stats);
        self.local_fns
            .insert(self.decls.syms().sym(&f.name.name), Arc::new(sig));
    }

    /// The loop-invariant fixpoint, iterated sparsely.
    ///
    /// The loop's CFG is `entry → head ⇄ body, head → exit` with one
    /// back edge. A forward worklist over it would visit the head before
    /// the body, which is exactly the order the structural re-check
    /// below performs, so the fixpoint is "re-run the body while the
    /// entry state still changes". What makes the iteration sparse
    /// is convergence detection on the merge itself: a clean merge with
    /// nothing poisoned leaves the joined state literally identical to
    /// `cur` (the join only rewrites poisoned bindings), so the fixpoint
    /// has converged without a second field-by-field comparison — and
    /// when the body never wrote a frame, the merge is a pure `Arc`
    /// pointer-identity check ([`crate::flow::merge`]'s fast path).
    fn check_while(&mut self, st: &mut FlowState, cond: &Expr, body: &Stmt, span: Span) {
        let mut cur = self.snapshot(st);
        for _ in 0..self.limits.fixpoint_iters {
            self.stats.loop_iterations += 1;
            // Abandoning the fixpoint without a diagnostic could accept
            // a program whose invariant never converged, so report here
            // rather than relying on the statement-level poll.
            if self.gave_up || self.limits.deadline_exceeded() {
                if !self.gave_up {
                    self.gave_up = true;
                    self.diags.error(
                        Code::LimitExceeded,
                        span,
                        format!(
                            "deadline exceeded while checking `{}`; the rest of the unit was not checked",
                            self.fn_name
                        ),
                    );
                }
                *st = cur;
                return;
            }
            let mut iter = self.snapshot(&cur);
            self.expect_bool(&mut iter, cond);
            let exit_state = self.snapshot(&iter);
            let mut after_body = iter;
            self.check_stmt(&mut after_body, body);
            self.stats.joins += 1;
            let m = merge(
                &cur,
                &after_body,
                &self.keys,
                self.decls.tables(),
                self.decls.syms(),
            );
            if !m.problems.is_empty() {
                // The back edge changes the held-key set every iteration:
                // no invariant exists.
                for p in &m.problems {
                    self.diags.error(
                        Code::LoopInvariant,
                        span,
                        format!("cannot infer a loop invariant for the held-key set: {p}"),
                    );
                }
                *st = exit_state;
                return;
            }
            if m.poisoned.is_empty() {
                // Clean and unpoisoned: the join rewrote nothing, so
                // `m.state` is `cur` unchanged — converged, no
                // re-comparison needed.
                *st = exit_state;
                return;
            }
            let joined = m.state;
            if states_agree(
                &joined,
                &cur,
                &self.keys,
                self.decls.tables(),
                self.decls.syms(),
            ) {
                *st = exit_state;
                return;
            }
            cur = joined;
        }
        self.diags.error(
            Code::LimitExceeded,
            span,
            format!(
                "loop invariant did not converge within {} iteration(s) of fixpoint fuel",
                self.limits.fixpoint_iters
            ),
        );
        *st = cur;
    }

    fn check_switch(
        &mut self,
        st: &mut FlowState,
        scrutinee: &Expr,
        arms: &[ast::SwitchArm],
        span: Span,
    ) {
        let sty = self.eval(st, scrutinee, None);
        let (vid, vargs, keyed) = match peel_guards(&sty) {
            Ty::Tracked {
                key: KeyRef::Id(k),
                inner,
            } => {
                if st.held.remove(*k).is_err() {
                    self.diags.error(
                        Code::KeyNotHeld,
                        scrutinee.span,
                        format!(
                            "cannot switch on `{}`: its key {} is not held",
                            sty.display(self.decls.tables()),
                            self.describe(*k)
                        ),
                    );
                }
                match peel_guards(inner) {
                    Ty::Named { id, args } => (*id, args.clone(), true),
                    Ty::Error => return,
                    other => {
                        self.diags.error(
                            Code::TypeMismatch,
                            scrutinee.span,
                            format!(
                                "switch requires a variant, found `{}`",
                                other.display(self.decls.tables())
                            ),
                        );
                        return;
                    }
                }
            }
            Ty::Named { id, args } => (*id, args.clone(), false),
            Ty::Error => return,
            other => {
                self.diags.error(
                    Code::TypeMismatch,
                    scrutinee.span,
                    format!(
                        "switch requires a variant, found `{}`",
                        other.display(self.decls.tables())
                    ),
                );
                return;
            }
        };
        let TypeDef::Variant(def) = self.decls.tables().typedef(vid) else {
            self.diags.error(
                Code::TypeMismatch,
                scrutinee.span,
                format!(
                    "switch requires a variant, found `{}`",
                    sty.display(self.decls.tables())
                ),
            );
            return;
        };
        let pre = self.snapshot(st);
        let mut covered: BTreeSet<&str> = BTreeSet::new();
        let mut result: Option<FlowState> = None;
        for arm in arms {
            let Some((_, cdef)) = def.ctor(&arm.ctor.name) else {
                self.diags.error(
                    Code::UnknownName,
                    arm.ctor.span,
                    format!(
                        "`'{}` is not a constructor of variant `{}`",
                        arm.ctor, def.name
                    ),
                );
                continue;
            };
            covered.insert(&cdef.name);
            let mut s = self.snapshot(&pre);
            self.check_arm(&mut s, def, cdef, &vargs, arm);
            result = Some(match result {
                None => s,
                Some(prev) => self.join(&prev, &s, arm.span),
            });
        }
        let all_covered = def.ctors.iter().all(|c| covered.contains(c.name.as_str()));
        if keyed && !all_covered {
            self.diags.error(
                Code::NonExhaustiveSwitch,
                span,
                format!(
                    "switch over keyed variant `{}` must cover every constructor \
                     (missing: {})",
                    def.name,
                    def.ctors
                        .iter()
                        .filter(|c| !covered.contains(c.name.as_str()))
                        .map(|c| format!("'{}", c.name))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
        }
        let mut out = match result {
            Some(r) => r,
            None => pre.clone(),
        };
        if !keyed && !all_covered {
            // Unmatched values fall through.
            out = self.join(&out, &pre, span);
        }
        *st = out;
    }

    fn check_arm(
        &mut self,
        s: &mut FlowState,
        def: &'a VariantDef,
        cdef: &'a CtorDef,
        vargs: &[Arg],
        arm: &ast::SwitchArm,
    ) {
        let vargs = Params(&def.params, vargs);
        // Restore captured parameter keys (paper §2.1: pattern matching
        // "restores the key to the held-key set").
        for (pname, req) in &cdef.captures {
            let Some(Arg::Key(KeyRef::Id(k))) = vargs.arg(pname) else {
                continue;
            };
            let k = *k;
            let state = match req {
                StateReq::Exact(t) => StateVal::Token(*t),
                StateReq::AtMost { bound, .. } => self.fresh_abs(Some(*bound)),
                StateReq::Any | StateReq::Var(_) => self.fresh_abs(None),
            };
            if s.held.insert(k, state).is_err() {
                self.diags.error(
                    Code::DuplicateKey,
                    arm.span,
                    format!(
                        "matching `'{}` would restore key {} which is already held",
                        cdef.name,
                        self.describe(k)
                    ),
                );
            }
        }
        // Fresh keys for the constructor-scoped existentials: this is the
        // "anonymity" of tracked collections (paper §2.4, Fig. 4).
        let mut keys = Vec::with_capacity(cdef.exist_keys.len());
        for v in &cdef.exist_keys {
            let k = self.fresh_key(None, Resource::Unpacked(v.clone()), KeyOrigin::Unpacked);
            let state = self.fresh_abs(None);
            s.held.insert(k, state).expect("fresh key");
            keys.push(k);
        }
        let inst = Arm {
            vargs,
            exist: &cdef.exist_keys,
            keys: &keys,
        };
        // Bind the value components.
        if !arm.binders.is_empty() && arm.binders.len() != cdef.args.len() {
            self.diags.error(
                Code::TypeMismatch,
                arm.span,
                format!(
                    "constructor `'{}` has {} component(s), pattern binds {}",
                    cdef.name,
                    cdef.args.len(),
                    arm.binders.len()
                ),
            );
        }
        s.push_frame();
        for (i, aty) in cdef.args.iter().enumerate() {
            let Ok(mut ty) = subst::ty(aty, &inst);
            let binder = arm.binders.get(i);
            // Anonymous tracked components unpack to fresh keys.
            if let Ty::TrackedAnon(inner) = &ty {
                let k =
                    self.fresh_key(None, Resource::Type((**inner).clone()), KeyOrigin::Unpacked);
                let state = self.fresh_abs(None);
                s.held.insert(k, state).expect("fresh key");
                ty = Ty::Tracked {
                    key: KeyRef::Id(k),
                    inner: inner.clone(),
                };
            }
            match binder {
                Some(ast::PatBinder::Name(n)) => {
                    if !s.declare(
                        self.decls.syms().sym(&n.name),
                        Binding {
                            decl_ty: ty.clone(),
                            ty,
                            init: true,
                        },
                    ) {
                        self.diags.error(
                            Code::DuplicateDecl,
                            n.span,
                            format!("binder `{n}` is already declared"),
                        );
                    }
                }
                Some(ast::PatBinder::Wild(sp)) => {
                    if vault_types::ty::ty_carries_keys(&ty) {
                        self.diags.error(
                            Code::KeyLeak,
                            *sp,
                            format!(
                                "component of type `{}` carries keys and cannot be ignored",
                                ty.display(self.decls.tables())
                            ),
                        );
                    }
                }
                None => {
                    if vault_types::ty::ty_carries_keys(&ty) {
                        self.diags.error(
                            Code::KeyLeak,
                            arm.span,
                            format!(
                                "unbound component of type `{}` carries keys; bind and \
                                 consume it",
                                ty.display(self.decls.tables())
                            ),
                        );
                    }
                }
            }
        }
        for stmt in &arm.body {
            if !s.reachable {
                break;
            }
            self.check_stmt(s, stmt);
        }
        s.pop_frame();
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Using a value (arithmetic, comparison, condition) requires its
    /// guards to hold.
    fn use_value(&mut self, st: &FlowState, ty: &Ty, span: Span) {
        if let Ty::Guarded { guards, .. } = ty {
            self.check_guards(st, guards, span);
        }
    }

    fn expect_bool(&mut self, st: &mut FlowState, e: &Expr) {
        let t = self.eval(st, e, Some(&Ty::Bool));
        self.use_value(st, &t, e.span);
        if !matches!(peel_guards(&t), Ty::Bool | Ty::Error) {
            self.diags.error(
                Code::TypeMismatch,
                e.span,
                format!(
                    "condition must be bool, found `{}`",
                    t.display(self.decls.tables())
                ),
            );
        }
    }

    fn eval(&mut self, st: &mut FlowState, e: &Expr, expected: Option<&Ty>) -> Ty {
        match &e.kind {
            ExprKind::IntLit(_) => Ty::Int,
            ExprKind::BoolLit(_) => Ty::Bool,
            ExprKind::StrLit(_) => Ty::Str,
            ExprKind::Var(name) => self.eval_var(st, name),
            ExprKind::Field(base, fname) => {
                let bty = self.eval(st, base, None);
                self.field_ty(st, &bty, fname, e.span)
            }
            ExprKind::Index(base, idx) => {
                let bty = self.eval(st, base, None);
                let ity = self.eval(st, idx, Some(&Ty::Int));
                if !matches!(peel_guards(&ity), Ty::Int | Ty::Byte | Ty::Error) {
                    self.diags.error(
                        Code::TypeMismatch,
                        idx.span,
                        "array index must be an integer",
                    );
                }
                match self.place_core(st, &bty, e.span) {
                    Ty::Array(t) => (*t).clone(),
                    Ty::Str => Ty::Byte,
                    Ty::Error => Ty::Error,
                    other => {
                        self.diags.error(
                            Code::TypeMismatch,
                            base.span,
                            format!("cannot index `{}`", other.display(self.decls.tables())),
                        );
                        Ty::Error
                    }
                }
            }
            ExprKind::Call { callee, args, .. } => self.eval_call(st, callee, args, e.span),
            ExprKind::Ctor { name, args, keys } => {
                self.eval_ctor(st, name, args, keys, expected, e.span)
            }
            ExprKind::New {
                region,
                ty,
                targs,
                inits,
            } => self.eval_new(st, region.as_deref(), ty, targs, inits, e.span),
            ExprKind::Unary(op, inner) => {
                let t = self.eval(st, inner, None);
                self.use_value(st, &t, inner.span);
                match op {
                    ast::UnOp::Not => {
                        if !matches!(peel_guards(&t), Ty::Bool | Ty::Error) {
                            self.diags.error(
                                Code::TypeMismatch,
                                inner.span,
                                "`!` requires a bool operand",
                            );
                        }
                        Ty::Bool
                    }
                    ast::UnOp::Neg => {
                        if !matches!(peel_guards(&t), Ty::Int | Ty::Byte | Ty::Error) {
                            self.diags.error(
                                Code::TypeMismatch,
                                inner.span,
                                "unary `-` requires an integer operand",
                            );
                        }
                        Ty::Int
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.eval(st, l, None);
                self.use_value(st, &lt, l.span);
                let rt = self.eval(st, r, None);
                self.use_value(st, &rt, r.span);
                self.binary_ty(*op, &lt, &rt, e.span)
            }
        }
    }

    fn eval_var(&mut self, st: &mut FlowState, name: &ast::Ident) -> Ty {
        // Note: merely naming a guarded variable is not an access — the
        // guard is checked where the value is *used* (field access,
        // arithmetic, assignment). Passing a guarded reference to a
        // function that will acquire the guard itself is legal.
        let sym = self.decls.syms().sym(&name.name);
        if let Some(b) = st.lookup(sym) {
            // Clone only what escapes the borrow (skip `decl_ty`).
            let init = b.init;
            let ty = b.ty.clone();
            if !init {
                self.diags.error(
                    Code::Uninitialized,
                    name.span,
                    format!("variable `{name}` may be used before it is assigned"),
                );
            }
            return ty;
        }
        // Captured variables from an enclosing function.
        for frame in self.captured.iter().rev() {
            if let Some(b) = frame.get(&sym) {
                return b.ty.clone();
            }
        }
        // A function used as a value.
        if let Some(sig) = self.local_fns.get(&sym) {
            return Ty::Fn(sig.clone());
        }
        if let Some(sig) = self.decls.fn_sig(&name.name) {
            return Ty::Fn(Arc::new(sig.clone()));
        }
        self.diags.error(
            Code::UnknownName,
            name.span,
            format!("unknown variable `{name}`"),
        );
        Ty::Error
    }

    /// Check the guard conjunction of an access.
    fn check_guards(&mut self, st: &FlowState, guards: &[GuardAtom], span: Span) {
        for g in guards {
            let Some(k) = g.key.id() else {
                continue; // unresolved guard key was already reported
            };
            let Some(cur) = st.held.get(k) else {
                self.diags.error(
                    Code::KeyNotHeld,
                    span,
                    format!(
                        "key {} is not in the held-key set, so this value is not \
                         accessible here",
                        self.describe(k)
                    ),
                );
                continue;
            };
            match &g.req {
                StateReq::Any => {}
                StateReq::Exact(t) => {
                    if cur != StateVal::Token(*t) {
                        self.diags.error(
                            Code::WrongKeyState,
                            span,
                            format!(
                                "key {} must be in state `{}` to access this value, but \
                                 is in `{}`",
                                self.describe(k),
                                self.decls.tables().states.state_name(*t),
                                cur.display(&self.decls.tables().states)
                            ),
                        );
                    }
                }
                StateReq::AtMost { bound, .. } => {
                    if !cur.le_token(*bound, &self.decls.tables().states) {
                        self.diags.error(
                            Code::StateBound,
                            span,
                            format!(
                                "key {} must be at or below `{}` to access this value, \
                                 but is in `{}`",
                                self.describe(k),
                                self.decls.tables().states.state_name(*bound),
                                cur.display(&self.decls.tables().states)
                            ),
                        );
                    }
                }
                StateReq::Var(v) => {
                    let want = self.statevars.get(&self.decls.syms().sym(v)).copied();
                    if want != Some(cur) {
                        self.diags.error(
                            Code::WrongKeyState,
                            span,
                            format!(
                                "key {} is not in the state bound to `{v}`",
                                self.describe(k)
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Unwrap guards (checking them) and tracked keys (requiring them held)
    /// to reach the underlying value type of a place expression.
    fn place_core(&mut self, st: &FlowState, ty: &Ty, span: Span) -> Ty {
        match ty {
            Ty::Guarded { guards, inner } => {
                self.check_guards(st, guards, span);
                self.place_core(st, inner, span)
            }
            Ty::Tracked { key, inner } => {
                if let Some(k) = key.id() {
                    if !st.held.holds(k) {
                        self.diags.error(
                            Code::KeyNotHeld,
                            span,
                            format!(
                                "key {} is not in the held-key set; the object it tracks \
                                 cannot be accessed",
                                self.describe(k)
                            ),
                        );
                    }
                }
                self.place_core(st, inner, span)
            }
            other => other.clone(),
        }
    }

    fn field_ty(&mut self, st: &mut FlowState, base_ty: &Ty, fname: &ast::Ident, span: Span) -> Ty {
        let core = self.place_core(st, base_ty, span);
        match core {
            Ty::Named { id, args } => match self.decls.tables().typedef(id) {
                TypeDef::Struct(sd) => {
                    let Some((_, fty)) = sd.fields.iter().find(|(n, _)| n == &fname.name) else {
                        self.diags.error(
                            Code::UnknownName,
                            fname.span,
                            format!("struct `{}` has no field `{fname}`", sd.name),
                        );
                        return Ty::Error;
                    };
                    let Ok(fty) = subst::ty(fty, &Params(&sd.params, &args));
                    fty
                }
                _ => {
                    self.diags.error(
                        Code::TypeMismatch,
                        fname.span,
                        format!("type `{}` has no fields", self.decls.tables().type_name(id)),
                    );
                    Ty::Error
                }
            },
            Ty::Error => Ty::Error,
            other => {
                self.diags.error(
                    Code::TypeMismatch,
                    span,
                    format!(
                        "type `{}` has no fields",
                        other.display(self.decls.tables())
                    ),
                );
                Ty::Error
            }
        }
    }

    fn binary_ty(&mut self, op: ast::BinOp, lt: &Ty, rt: &Ty, span: Span) -> Ty {
        let l = peel_guards(lt);
        let r = peel_guards(rt);
        if l.is_error() || r.is_error() {
            return if op.is_arith() { Ty::Int } else { Ty::Bool };
        }
        let int_like = |t: &Ty| matches!(t, Ty::Int | Ty::Byte);
        if op.is_arith() {
            if !int_like(l) || !int_like(r) {
                self.diags.error(
                    Code::TypeMismatch,
                    span,
                    format!(
                        "`{}` requires integer operands, found `{}` and `{}`",
                        op.symbol(),
                        lt.display(self.decls.tables()),
                        rt.display(self.decls.tables())
                    ),
                );
            }
            Ty::Int
        } else if op.is_logic() {
            if !matches!(l, Ty::Bool) || !matches!(r, Ty::Bool) {
                self.diags.error(
                    Code::TypeMismatch,
                    span,
                    format!("`{}` requires bool operands", op.symbol()),
                );
            }
            Ty::Bool
        } else {
            let compatible = (int_like(l) && int_like(r))
                || matches!((l, r), (Ty::Bool, Ty::Bool) | (Ty::Str, Ty::Str));
            if !compatible {
                self.diags.error(
                    Code::TypeMismatch,
                    span,
                    format!(
                        "cannot compare `{}` with `{}`",
                        lt.display(self.decls.tables()),
                        rt.display(self.decls.tables())
                    ),
                );
            }
            Ty::Bool
        }
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    fn eval_call(&mut self, st: &mut FlowState, callee: &Expr, args: &[Expr], span: Span) -> Ty {
        self.stats.calls += 1;
        let sig = match self.resolve_callee(st, callee) {
            Some(sig) => sig,
            None => {
                for a in args {
                    self.eval(st, a, None);
                }
                return Ty::Error;
            }
        };
        if !self.caps_declared.is_empty() {
            for cap in &sig.caps {
                self.require_cap(cap, format_args!("calling `{}`", sig.name), span);
            }
        }
        if sig.params.len() != args.len() {
            self.diags.error(
                Code::TypeMismatch,
                span,
                format!(
                    "`{}` expects {} argument(s), found {}",
                    sig.name,
                    sig.params.len(),
                    args.len()
                ),
            );
            for a in args {
                self.eval(st, a, None);
            }
            return Ty::Error;
        }
        let mut binds = Bindings::new();
        // Keys of arguments passed at anonymous tracked type, packed once
        // every argument is checked.
        let mut packed: Vec<(KeyId, Span)> = Vec::new();
        for (decl, arg) in sig.params.iter().zip(args) {
            let aty = self.eval(st, arg, Some(decl));
            if !decl.is_error() && !aty.is_error() {
                let direct = unify(decl, &aty, &mut binds, self.decls.tables());
                let ok = match direct {
                    Ok(()) => true,
                    // Passing a guarded value where the unguarded core is
                    // expected reads the value, which is an access: the
                    // guard must hold here.
                    Err(_) => {
                        let stripped_ok =
                            unify(decl, peel_guards(&aty), &mut binds, self.decls.tables()).is_ok();
                        if stripped_ok {
                            self.use_value(st, &aty, arg.span);
                        }
                        stripped_ok
                    }
                };
                if !ok {
                    // Function-valued arguments (completion routines, §4.3)
                    // get the dedicated code.
                    let code = if matches!(decl, Ty::Fn(_)) {
                        Code::FnTypeMismatch
                    } else {
                        Code::TypeMismatch
                    };
                    self.diags.error(
                        code,
                        arg.span,
                        format!(
                            "argument does not match parameter of `{}`: expected `{}`, \
                             found `{}`",
                            sig.name,
                            decl.display(self.decls.tables()),
                            aty.display(self.decls.tables())
                        ),
                    );
                }
            }
            if let (
                Ty::TrackedAnon(_),
                Ty::Tracked {
                    key: KeyRef::Id(k), ..
                },
            ) = (decl, &aty)
            {
                packed.push((*k, arg.span));
            }
        }
        for (k, arg_span) in packed {
            if st.held.remove(k).is_err() {
                self.diags.error(
                    Code::KeyNotHeld,
                    arg_span,
                    format!(
                        "passing this value consumes key {}, which is not held",
                        self.describe(k)
                    ),
                );
            }
        }
        self.apply_effect(st, &sig, &mut binds, span);
        let ret = match subst::ty(&sig.ret, &binds) {
            Ok(t) => t,
            Err(e) => {
                self.diags.error(
                    Code::BadEffect,
                    span,
                    format!("cannot instantiate return type of `{}`: {e}", sig.name),
                );
                Ty::Error
            }
        };
        // Returned anonymous tracked values unpack immediately.
        if let Ty::TrackedAnon(inner) = &ret {
            let k = self.fresh_key(None, Resource::Type((**inner).clone()), KeyOrigin::Fresh);
            let state = self.fresh_abs(None);
            st.held.insert(k, state).expect("fresh key");
            return Ty::Tracked {
                key: KeyRef::Id(k),
                inner: inner.clone(),
            };
        }
        ret
    }

    /// The signature a call instantiates: borrowed from the unit's
    /// declarations, or shared with a nested function or function value.
    fn resolve_callee(&mut self, st: &FlowState, callee: &Expr) -> Option<Callee<'a>> {
        match &callee.kind {
            ExprKind::Var(name) => {
                // A local variable holding a function value.
                if let Some(b) = st.lookup(self.decls.syms().sym(&name.name)) {
                    if let Ty::Fn(sig) = &b.ty {
                        return Some(Callee::Local(sig.clone()));
                    }
                    self.diags.error(
                        Code::TypeMismatch,
                        name.span,
                        format!("`{name}` is not a function"),
                    );
                    return None;
                }
                if let Some(sig) = self.local_fns.get(&self.decls.syms().sym(&name.name)) {
                    return Some(Callee::Local(sig.clone()));
                }
                if let Some(sig) = self.decls.fn_sig(&name.name) {
                    return Some(Callee::Decl(sig));
                }
                self.diags.error(
                    Code::UnknownName,
                    name.span,
                    format!("unknown function `{name}`"),
                );
                None
            }
            ExprKind::Field(base, fname) => {
                // Module-qualified call `Region.create(...)`.
                if let ExprKind::Var(q) = &base.kind {
                    if st.lookup(self.decls.syms().sym(&q.name)).is_none() {
                        if !self
                            .decls
                            .qualifiers()
                            .contains(&self.decls.syms().sym(&q.name))
                        {
                            // Unknown qualifier: still resolve by final
                            // segment, but note the suspicious module.
                        }
                        if let Some(sig) = self.decls.fn_sig(&fname.name) {
                            return Some(Callee::Decl(sig));
                        }
                        self.diags.error(
                            Code::UnknownName,
                            fname.span,
                            format!("unknown function `{q}.{fname}`"),
                        );
                        return None;
                    }
                }
                self.diags.error(
                    Code::TypeMismatch,
                    callee.span,
                    "Vault has no methods; call a module function instead",
                );
                None
            }
            _ => {
                self.diags.error(
                    Code::TypeMismatch,
                    callee.span,
                    "this expression is not callable",
                );
                None
            }
        }
    }

    /// Apply a callee's effect clause at a call site: verify preconditions
    /// against the held-key set, then apply the postconditions.
    fn apply_effect(&mut self, st: &mut FlowState, sig: &FnSig, binds: &mut Bindings, span: Span) {
        for item in &sig.effect {
            match item {
                EffItem::Keep { key, from, to } => {
                    let Some(k) = self.resolve_eff_key(key, binds, &sig.name, span) else {
                        continue;
                    };
                    let Some(cur) = st.held.get(k) else {
                        self.report_not_held(k, &sig.name, span);
                        continue;
                    };
                    if !self.check_from(k, cur, from, binds, &sig.name, span) {
                        continue;
                    }
                    if let Some(arg) = to {
                        let val = self.resolve_call_state(arg, binds, span);
                        st.held.set_state(k, val).expect("checked held");
                    }
                }
                EffItem::Consume { key, from } => {
                    let Some(k) = self.resolve_eff_key(key, binds, &sig.name, span) else {
                        continue;
                    };
                    if self.keys.info(k).global {
                        self.diags.error(
                            Code::GlobalKeyMisuse,
                            span,
                            format!(
                                "`{}` would consume global key {}, which cannot be removed",
                                sig.name,
                                self.describe(k)
                            ),
                        );
                        continue;
                    }
                    let Some(cur) = st.held.get(k) else {
                        self.report_not_held(k, &sig.name, span);
                        continue;
                    };
                    if !self.check_from(k, cur, from, binds, &sig.name, span) {
                        continue;
                    }
                    st.held.remove(k).expect("checked held");
                }
                EffItem::Produce { key, state } => {
                    let Some(k) = self.resolve_eff_key(key, binds, &sig.name, span) else {
                        continue;
                    };
                    let val = self.resolve_call_state(state, binds, span);
                    if st.held.insert(k, val).is_err() {
                        self.diags.error(
                            Code::DuplicateKey,
                            span,
                            format!(
                                "`{}` would add key {} to the held-key set, but it is \
                                 already held (keys are linear)",
                                sig.name,
                                self.describe(k)
                            ),
                        );
                    }
                }
                EffItem::Fresh { var, state } => {
                    let k = self.fresh_key(
                        Some(var.clone()),
                        Resource::FreshFrom(sig.name.clone()),
                        KeyOrigin::Fresh,
                    );
                    let val = self.resolve_call_state(state, binds, span);
                    st.held.insert(k, val).expect("fresh key");
                    let _ = binds.bind_key(var, k);
                }
            }
        }
    }

    fn resolve_eff_key(
        &mut self,
        key: &KeyRef,
        binds: &Bindings,
        callee: &str,
        span: Span,
    ) -> Option<KeyId> {
        match binds.key(key) {
            Some(k) => Some(k),
            None => {
                self.diags.error(
                    Code::BadEffect,
                    span,
                    format!(
                        "effect of `{callee}` mentions key `{key}`, which the arguments \
                         do not determine"
                    ),
                );
                None
            }
        }
    }

    fn report_not_held(&mut self, k: KeyId, callee: &str, span: Span) {
        self.diags.error(
            Code::KeyNotHeld,
            span,
            format!(
                "`{callee}` requires key {} in the held-key set, but it is not held here",
                self.describe(k)
            ),
        );
    }

    fn check_from(
        &mut self,
        k: KeyId,
        cur: StateVal,
        from: &StateReq,
        binds: &mut Bindings,
        callee: &str,
        span: Span,
    ) -> bool {
        match from {
            StateReq::Any => true,
            StateReq::Exact(t) => {
                if cur == StateVal::Token(*t) {
                    true
                } else {
                    self.diags.error(
                        Code::WrongKeyState,
                        span,
                        format!(
                            "`{callee}` requires key {} in state `{}`, but it is in `{}`",
                            self.describe(k),
                            self.decls.tables().states.state_name(*t),
                            cur.display(&self.decls.tables().states)
                        ),
                    );
                    false
                }
            }
            StateReq::AtMost { var, bound } => {
                if cur.le_token(*bound, &self.decls.tables().states) {
                    if let Some(v) = var {
                        let _ = binds.bind_state(v, cur);
                    }
                    true
                } else {
                    self.diags.error(
                        Code::StateBound,
                        span,
                        format!(
                            "`{callee}` requires key {} at or below `{}`, but it is in \
                             `{}`",
                            self.describe(k),
                            self.decls.tables().states.state_name(*bound),
                            cur.display(&self.decls.tables().states)
                        ),
                    );
                    false
                }
            }
            StateReq::Var(v) => {
                let want = binds
                    .states
                    .get(v)
                    .copied()
                    .or_else(|| self.statevars.get(&self.decls.syms().sym(v)).copied());
                match want {
                    Some(w) if w == cur => true,
                    Some(w) => {
                        self.diags.error(
                            Code::WrongKeyState,
                            span,
                            format!(
                                "`{callee}` requires key {} in state `{}`, but it is in \
                                 `{}`",
                                self.describe(k),
                                w.display(&self.decls.tables().states),
                                cur.display(&self.decls.tables().states)
                            ),
                        );
                        false
                    }
                    None => {
                        let _ = binds.bind_state(v, cur);
                        true
                    }
                }
            }
        }
    }

    fn resolve_call_state(&mut self, arg: &StateArg, binds: &Bindings, span: Span) -> StateVal {
        match arg {
            StateArg::Token(t) => StateVal::Token(*t),
            StateArg::Val(v) => *v,
            StateArg::Var(v) => match binds
                .states
                .get(v)
                .copied()
                .or_else(|| self.statevars.get(&self.decls.syms().sym(v)).copied())
            {
                Some(val) => val,
                None => {
                    self.diags.error(
                        Code::BadEffect,
                        span,
                        format!("state variable `{v}` is not determined at this call"),
                    );
                    self.fresh_abs(None)
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Constructors and allocation
    // ------------------------------------------------------------------

    fn eval_ctor(
        &mut self,
        st: &mut FlowState,
        name: &ast::Ident,
        args: &[Expr],
        keys: &[ast::KeyStateRef],
        expected: Option<&Ty>,
        span: Span,
    ) -> Ty {
        let Some((vid, idx)) = self.decls.tables().ctor(&name.name) else {
            self.diags.error(
                Code::UnknownName,
                name.span,
                format!("unknown constructor `'{name}`"),
            );
            for a in args {
                self.eval(st, a, None);
            }
            return Ty::Error;
        };
        let TypeDef::Variant(def) = self.decls.tables().typedef(vid) else {
            unreachable!("ctor table only points at variants");
        };
        let cdef = &def.ctors[idx];

        // The variant's parameter arguments, by position: seeded from the
        // expected type, then from explicit captures and the arguments.
        let slot = |name: &str| def.params.iter().rposition(|p| p.name() == name);
        let mut known: Vec<Option<Arg>> = match expected.map(peel_expected) {
            Some(Ty::Named { id, args: eargs }) if *id == vid => {
                eargs.iter().cloned().map(Some).collect()
            }
            _ => Vec::new(),
        };
        known.resize(def.params.len(), None);

        // Explicit key captures: `'SomeKey{F}`.
        if !keys.is_empty() {
            if keys.len() != cdef.captures.len() {
                self.diags.error(
                    Code::BadTypeArgs,
                    span,
                    format!(
                        "constructor `'{}` captures {} key(s), {} given",
                        cdef.name,
                        cdef.captures.len(),
                        keys.len()
                    ),
                );
            }
            for ((pname, _), kref) in cdef.captures.iter().zip(keys) {
                let resolved = self
                    .keyenv
                    .get(&self.decls.syms().sym(&kref.key.name))
                    .cloned()
                    .or_else(|| {
                        self.decls
                            .tables()
                            .global_key(&kref.key.name)
                            .map(|g| KeyRef::Id(g.id))
                    });
                match (resolved, slot(pname)) {
                    (Some(r), Some(i)) => {
                        if let Some(Arg::Key(prev)) = &known[i] {
                            if *prev != r {
                                self.diags.error(
                                    Code::TypeMismatch,
                                    kref.key.span,
                                    format!(
                                        "key `{}` conflicts with the expected type's key \
                                         parameter `{pname}`",
                                        kref.key
                                    ),
                                );
                            }
                        }
                        known[i] = Some(Arg::Key(r));
                    }
                    (Some(_), None) => {}
                    (None, _) => {
                        self.diags.error(
                            Code::UnknownName,
                            kref.key.span,
                            format!("unknown key `{}`", kref.key),
                        );
                    }
                }
            }
        }

        // Check value arguments, discovering remaining parameters and the
        // existential keys.
        if args.len() != cdef.args.len() {
            self.diags.error(
                Code::TypeMismatch,
                span,
                format!(
                    "constructor `'{}` takes {} argument(s), found {}",
                    cdef.name,
                    cdef.args.len(),
                    args.len()
                ),
            );
        }
        // A known abstract state joins the bindings: a guard on it stays
        // a variable after substitution, so an argument whose guard
        // names another state must conflict with it there. (Every other
        // known argument is substituted away.)
        let mut binds = Bindings::new();
        let params = Params(&def.params, &known);
        for p in &def.params {
            if let Some(Arg::State(StateArg::Val(v))) = params.arg(p.name()) {
                let _ = binds.bind_state(&p.name().into(), *v);
            }
        }
        for (decl, arg) in cdef.args.iter().zip(args) {
            let Ok(decl_inst) = subst::ty(decl, &params);
            let aty = self.eval(st, arg, Some(&decl_inst));
            if !aty.is_error() {
                if let Err(e) = unify(&decl_inst, &aty, &mut binds, self.decls.tables()) {
                    self.diags.error(
                        Code::TypeMismatch,
                        arg.span,
                        format!("constructor argument mismatch: {e}"),
                    );
                }
            }
            // Purely anonymous components consume the argument's key here;
            // named existentials are consumed below via `exist_keys`.
            if let (
                Ty::TrackedAnon(_),
                Ty::Tracked {
                    key: KeyRef::Id(k), ..
                },
            ) = (&decl_inst, &aty)
            {
                if st.held.remove(*k).is_err() {
                    self.diags.error(
                        Code::KeyNotHeld,
                        arg.span,
                        format!(
                            "storing this value consumes key {}, which is not held",
                            self.describe(*k)
                        ),
                    );
                }
            }
        }
        // Consume the constructor-scoped existential keys (packing).
        for v in &cdef.exist_keys {
            match binds.keys.get(v) {
                Some(k) => {
                    if st.held.remove(*k).is_err() {
                        self.diags.error(
                            Code::KeyNotHeld,
                            span,
                            format!(
                                "constructing `'{}` consumes key {}, which is not held",
                                cdef.name,
                                self.describe(*k)
                            ),
                        );
                    }
                }
                None => {
                    self.diags.error(
                        Code::BadTypeArgs,
                        span,
                        format!(
                            "could not determine the key `{v}` packed by `'{}`",
                            cdef.name
                        ),
                    );
                }
            }
        }
        // Fold argument-derived bindings back into the parameter slots.
        for p in &def.params {
            let i = slot(p.name()).expect("a parameter has a slot");
            if known[i].is_some() {
                continue;
            }
            known[i] = Some(match binds.get(p.kind(), p.name()).ok().flatten() {
                Some(a) => a,
                None => {
                    self.diags.error(
                        Code::BadTypeArgs,
                        span,
                        format!(
                            "cannot infer parameter `{}` of variant `{}`; annotate the \
                             declaration or pass the key explicitly",
                            p.name(),
                            def.name
                        ),
                    );
                    Arg::Ty(Ty::Error)
                }
            });
        }
        let params = Params(&def.params, &known);

        // Consume the captured keys (they move into the value).
        for (pname, req) in &cdef.captures {
            let Some(Arg::Key(KeyRef::Id(k))) = params.arg(pname) else {
                continue;
            };
            let k = *k;
            match st.held.get(k) {
                None => {
                    self.diags.error(
                        Code::KeyNotHeld,
                        span,
                        format!(
                            "constructing `'{}` requires key {} in the held-key set",
                            cdef.name,
                            self.describe(k)
                        ),
                    );
                }
                Some(cur) => {
                    let mut b2 = Bindings::new();
                    if !self.check_from(k, cur, req, &mut b2, &format!("'{}", cdef.name), span) {
                        // state error already reported
                    }
                    if self.keys.info(k).global {
                        self.diags.error(
                            Code::GlobalKeyMisuse,
                            span,
                            "global keys cannot be captured into values",
                        );
                    } else {
                        st.held.remove(k).expect("checked held");
                    }
                }
            }
        }

        let result_args: Vec<Arg> = def
            .params
            .iter()
            .map(|p| params.arg(p.name()).cloned().unwrap_or(Arg::Ty(Ty::Error)))
            .collect();
        let named = Ty::named(vid, result_args);
        if is_keyed_variant(self.decls.tables(), vid) {
            let k = self.fresh_key(None, Resource::TypeName(vid), KeyOrigin::Fresh);
            st.held.insert(k, StateVal::DEFAULT).expect("fresh key");
            Ty::tracked(KeyRef::Id(k), named)
        } else {
            named
        }
    }

    fn eval_new(
        &mut self,
        st: &mut FlowState,
        region: Option<&Expr>,
        tyname: &ast::Ident,
        targs: &[ast::TypeArg],
        inits: &[ast::FieldInit],
        span: Span,
    ) -> Ty {
        self.require_cap("alloc", format_args!("`new`"), span);
        // Lower the allocated type.
        let mut scope = Scope::body(self.keyenv.clone());
        let lowered = {
            let ctx = self.ctx();
            ctx.lower_named(&mut scope, tyname, targs, span, self.diags)
        };
        let Ty::Named { id, args } = &lowered else {
            if !lowered.is_error() {
                self.diags.error(
                    Code::TypeMismatch,
                    tyname.span,
                    "only named struct types can be allocated",
                );
            }
            for i in inits {
                self.eval(st, &i.value, None);
            }
            return Ty::Error;
        };
        // Check the field initializers.
        match self.decls.tables().typedef(*id) {
            TypeDef::Struct(sd) => {
                let params = Params(&sd.params, args);
                let mut seen: BTreeSet<&str> = BTreeSet::new();
                for init in inits {
                    match sd.fields.iter().find(|(n, _)| n == &init.name.name) {
                        Some((_, fty)) => {
                            if !seen.insert(init.name.name.as_str()) {
                                self.diags.error(
                                    Code::DuplicateDecl,
                                    init.name.span,
                                    format!("field `{}` initialized twice", init.name),
                                );
                            }
                            let Ok(want) = subst::ty(fty, &params);
                            let got = self.eval(st, &init.value, Some(&want));
                            let mut b = Bindings::new();
                            if !got.is_error()
                                && unify(&want, &got, &mut b, self.decls.tables()).is_err()
                                && unify(
                                    peel_guards(&want),
                                    peel_guards(&got),
                                    &mut b,
                                    self.decls.tables(),
                                )
                                .is_err()
                            {
                                self.diags.error(
                                    Code::TypeMismatch,
                                    init.value.span,
                                    format!(
                                        "field `{}` expects `{}`, found `{}`",
                                        init.name,
                                        want.display(self.decls.tables()),
                                        got.display(self.decls.tables())
                                    ),
                                );
                            }
                        }
                        None => {
                            self.diags.error(
                                Code::UnknownName,
                                init.name.span,
                                format!("struct `{}` has no field `{}`", sd.name, init.name),
                            );
                            self.eval(st, &init.value, None);
                        }
                    }
                }
                for (fname, _) in &sd.fields {
                    if !seen.contains(fname.as_str()) {
                        self.diags.error(
                            Code::TypeMismatch,
                            span,
                            format!("field `{fname}` is not initialized"),
                        );
                    }
                }
            }
            _ => {
                self.diags.error(
                    Code::TypeMismatch,
                    tyname.span,
                    format!("`{tyname}` is not a struct and cannot be allocated with `new`"),
                );
            }
        }
        match region {
            None => {
                // `new tracked T {...}`: fresh heap object with a fresh key.
                // The surface name, which differs from the type's when
                // `tyname` is an alias.
                let resource = if self.decls.tables().type_name(*id) == tyname.name.as_str() {
                    Resource::TypeName(*id)
                } else {
                    Resource::Text(tyname.name.as_str().into())
                };
                let k = self.fresh_key(None, resource, KeyOrigin::Fresh);
                st.held.insert(k, StateVal::DEFAULT).expect("fresh key");
                Ty::tracked(KeyRef::Id(k), lowered)
            }
            Some(r) => {
                // `new(rgn) T {...}`: guarded by the region's key.
                let rty = self.eval(st, r, None);
                match peel_guards(&rty) {
                    Ty::Tracked {
                        key: KeyRef::Id(rk),
                        ..
                    } => {
                        if !st.held.holds(*rk) {
                            self.diags.error(
                                Code::KeyNotHeld,
                                r.span,
                                format!(
                                    "cannot allocate from this region: key {} is not held",
                                    self.describe(*rk)
                                ),
                            );
                        }
                        Ty::guarded(
                            vec![GuardAtom {
                                key: KeyRef::Id(*rk),
                                req: StateReq::Any,
                            }],
                            lowered,
                        )
                    }
                    Ty::Error => Ty::Error,
                    other => {
                        self.diags.error(
                            Code::TypeMismatch,
                            r.span,
                            format!(
                                "allocation requires a tracked region, found `{}`",
                                other.display(self.decls.tables())
                            ),
                        );
                        Ty::Error
                    }
                }
            }
        }
    }
}

/// Strip guard layers without checking, down to the value type (for
/// type-shape dispatch; an access checks the guards itself).
fn peel_guards(t: &Ty) -> &Ty {
    match t {
        Ty::Guarded { inner, .. } => peel_guards(inner),
        other => other,
    }
}

fn peel_expected(t: &Ty) -> &Ty {
    match t {
        Ty::Tracked { inner, .. } | Ty::TrackedAnon(inner) => peel_expected(inner),
        Ty::Guarded { inner, .. } => peel_expected(inner),
        other => other,
    }
}

/// Whether a declared type is anonymous-tracked at the top (assignments
/// then store the concrete type).
fn is_anon_decl(t: &Ty) -> bool {
    matches!(t, Ty::TrackedAnon(_))
}

/// Initializing a guarded declaration from an unguarded value of the core
/// type is permitted (`K:int x = 4;`).
fn is_guarded_init(decl: &Ty, actual: &Ty, world: &Tables) -> bool {
    if let Ty::Guarded { inner, .. } = decl {
        let mut b = Bindings::new();
        return unify(inner, peel_guards(actual), &mut b, world).is_ok();
    }
    false
}

/// Instantiates a type inside a function body: the keys and states
/// `binds` holds, then the function's own state variables (`statevars`,
/// by symbol). A name bound as a state is a state wherever it appears;
/// unbound variables stay.
struct Local<'b> {
    binds: &'b Bindings,
    statevars: Option<(&'b BTreeMap<Symbol, StateVal>, &'b Interner)>,
}

impl Lookup for Local<'_> {
    type Err = Infallible;

    fn get(&self, _: Kind, var: &str) -> Result<Option<Arg>, Infallible> {
        let own = || {
            self.statevars
                .and_then(|(vars, syms)| vars.get(&syms.sym(var)))
        };
        Ok(match self.binds.states.get(var).or_else(own) {
            Some(v) => Some(Arg::State(StateArg::Val(*v))),
            None => self.binds.keys.get(var).map(|k| Arg::Key(KeyRef::Id(*k))),
        })
    }
}

/// A pattern arm's instantiation: a fresh key for each of the
/// constructor's existential keys, then the variant's arguments.
struct Arm<'b> {
    exist: &'b [Name],
    keys: &'b [KeyId],
    vargs: Params<'b, Arg>,
}

impl Lookup for Arm<'_> {
    type Err = Infallible;

    fn get(&self, kind: Kind, var: &str) -> Result<Option<Arg>, Infallible> {
        match self.exist.iter().position(|v| **v == *var) {
            Some(i) => Ok(Some(Arg::Key(KeyRef::Id(self.keys[i])))),
            None => self.vargs.get(kind, var),
        }
    }
}
