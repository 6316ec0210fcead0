//! Where a type holds its variables.
//!
//! Signatures and type definitions are polymorphic in keys, states and
//! types (paper §2–3); the checker instantiates them at every function
//! entry, call, constructor, pattern arm and field read. This module is
//! the one place that knows where those variables sit in a [`Ty`] or an
//! [`EffItem`], and how two types line up. It has three operations:
//!
//! * [`ty`] / [`effect`] rewrite the variables a [`Lookup`] binds,
//!   sharing every type node they leave unchanged;
//! * [`visit_ty`] / [`visit_effect`] report every variable or concrete
//!   key a type or effect item mentions, as a [`Mention`];
//! * [`zip`] walks a declared and an actual type side by side, handing
//!   each pair of variables, keys and function types to a [`Match`].
//!
//! What differs between instantiations — whether an unbound key is an
//! error, whether function types are entered — belongs to the lookup each
//! caller passes, never to the walker; what differs between matchings —
//! a call's bindings, function-type alpha-equivalence, the join's key
//! renaming — belongs to the matcher.

use crate::key::{KeyRef, Name};
use crate::state::{StateId, StateReq, StateVal};
use crate::ty::{Arg, EffItem, FnSig, GuardAtom, ParamKind, StateArg, Ty};
use crate::unify::{Bindings, UnifyErr};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;

/// The kind of variable a position holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A key variable (`tracked(K)`, a guard, a key argument, an effect).
    Key,
    /// A state variable (a requirement or a state argument).
    State,
    /// A type variable.
    Ty,
}

impl ParamKind {
    /// The kind of variable this parameter declares.
    pub fn kind(&self) -> Kind {
        match self {
            ParamKind::Type(_) => Kind::Ty,
            ParamKind::Key(_) => Kind::Key,
            ParamKind::State { .. } => Kind::State,
        }
    }
}

/// What a substitution puts in place of each variable.
pub trait Lookup {
    /// Why a variable has no value (`Infallible` for a lookup that leaves
    /// unbound variables in place).
    type Err;
    /// What the variable `var`, found at a position of kind `kind`,
    /// stands for. An argument of that kind replaces it (a state
    /// requirement takes a concrete token only); `None`, or an argument
    /// of another kind, leaves it in place.
    fn get(&self, kind: Kind, var: &str) -> Result<Option<Arg>, Self::Err>;
    /// Whether the variables of function types are substituted too;
    /// otherwise function types stay polymorphic.
    fn enters_fns(&self) -> bool {
        true
    }
}

/// A call's bindings instantiate the callee's return type: an unbound key
/// is an error (the caller could not track it) and function types stay
/// polymorphic, matched later by alpha-equivalence.
impl Lookup for Bindings {
    type Err = UnifyErr;

    fn get(&self, kind: Kind, var: &str) -> Result<Option<Arg>, UnifyErr> {
        Ok(match kind {
            Kind::Key => match self.keys.get(var) {
                Some(k) => Some(Arg::Key(KeyRef::Id(*k))),
                None => return Err(UnifyErr::Unresolved(var.to_string())),
            },
            Kind::State => self.states.get(var).map(|v| Arg::State(StateArg::Val(*v))),
            Kind::Ty => self.tys.get(var).cloned().map(Arg::Ty),
        })
    }

    fn enters_fns(&self) -> bool {
        false
    }
}

/// A named type's parameters bound by position to the arguments of one
/// instantiation: [`Arg`]s, or `Option<Arg>`s while a constructor is
/// still inferring some. Elaboration rejects a parameter list that
/// declares one name twice (V202).
pub struct Params<'a, A>(pub &'a [ParamKind], pub &'a [A]);

/// One argument position of [`Params`]: known, or not yet.
pub trait Slot {
    /// The argument, if known.
    fn known(&self) -> Option<&Arg>;
}

impl Slot for Arg {
    fn known(&self) -> Option<&Arg> {
        Some(self)
    }
}

impl Slot for Option<Arg> {
    fn known(&self) -> Option<&Arg> {
        self.as_ref()
    }
}

impl<A: Slot> Params<'_, A> {
    /// The argument of the parameter named `var`.
    pub fn arg(&self, var: &str) -> Option<&Arg> {
        let i = self.0.iter().rposition(|p| p.name() == var)?;
        self.1.get(i)?.known()
    }
}

impl<A: Slot> Lookup for Params<'_, A> {
    type Err = Infallible;

    fn get(&self, _: Kind, var: &str) -> Result<Option<Arg>, Infallible> {
        Ok(self.arg(var).cloned())
    }
}

/// Substitute the variables `l` binds in `t`. Parts `l` leaves unchanged
/// are shared with `t`, not copied.
pub fn ty<L: Lookup + ?Sized>(t: &Ty, l: &L) -> Result<Ty, L::Err> {
    Ok(or_old(ty_changed(t, l)?, t))
}

/// Substitute the variables `l` binds in an effect item. A `[new K]`
/// item's `K` is a binder and stays.
pub fn effect<L: Lookup + ?Sized>(e: &EffItem, l: &L) -> Result<EffItem, L::Err> {
    let key = |k: &KeyRef| -> Result<KeyRef, L::Err> { Ok(or_old(key_changed(k, l)?, k)) };
    let req = |r: &StateReq| -> Result<StateReq, L::Err> { Ok(or_old(req_changed(r, l)?, r)) };
    let state = |s: &StateArg| -> Result<StateArg, L::Err> { Ok(or_old(state_changed(s, l)?, s)) };
    Ok(match e {
        EffItem::Keep { key: k, from, to } => EffItem::Keep {
            key: key(k)?,
            from: req(from)?,
            to: to.as_ref().map(state).transpose()?,
        },
        EffItem::Consume { key: k, from } => EffItem::Consume {
            key: key(k)?,
            from: req(from)?,
        },
        EffItem::Produce { key: k, state: s } => EffItem::Produce {
            key: key(k)?,
            state: state(s)?,
        },
        EffItem::Fresh { var, state: s } => EffItem::Fresh {
            var: var.clone(),
            state: state(s)?,
        },
    })
}

/// [`ty`], or `None` when `l` changes nothing in `t`.
fn ty_changed<L: Lookup + ?Sized>(t: &Ty, l: &L) -> Result<Option<Ty>, L::Err> {
    Ok(match t {
        Ty::Void | Ty::Int | Ty::Bool | Ty::Byte | Ty::Str | Ty::Error => None,
        Ty::Var(v) => match l.get(Kind::Ty, v)? {
            Some(Arg::Ty(t)) => Some(t),
            _ => None,
        },
        Ty::Array(inner) => ty_changed(inner, l)?.map(|i| Ty::Array(Arc::new(i))),
        Ty::TrackedAnon(inner) => ty_changed(inner, l)?.map(|i| Ty::TrackedAnon(Arc::new(i))),
        Ty::Tuple(ts) => slice_changed(ts, |t| ty_changed(t, l))?.map(|ts| Ty::Tuple(ts.into())),
        Ty::Tracked { key, inner } => match (key_changed(key, l)?, ty_changed(inner, l)?) {
            (None, None) => None,
            (k, i) => Some(Ty::Tracked {
                key: or_old(k, key),
                inner: share(inner, i),
            }),
        },
        Ty::Guarded { guards, inner } => {
            let g = slice_changed(guards, |g| {
                Ok(match (key_changed(&g.key, l)?, req_changed(&g.req, l)?) {
                    (None, None) => None,
                    (key, req) => Some(GuardAtom {
                        key: or_old(key, &g.key),
                        req: or_old(req, &g.req),
                    }),
                })
            })?;
            match (g, ty_changed(inner, l)?) {
                (None, None) => None,
                (g, i) => Some(Ty::Guarded {
                    guards: g.map_or_else(|| guards.clone(), Arc::from),
                    inner: share(inner, i),
                }),
            }
        }
        Ty::Named { id, args } => slice_changed(args, |a| {
            Ok(match a {
                Arg::Ty(t) => ty_changed(t, l)?.map(Arg::Ty),
                Arg::Key(k) => key_changed(k, l)?.map(Arg::Key),
                Arg::State(s) => state_changed(s, l)?.map(Arg::State),
            })
        })?
        .map(|args| Ty::named(*id, args)),
        Ty::Fn(sig) if l.enters_fns() => {
            let new = FnSig {
                params: sig
                    .params
                    .iter()
                    .map(|p| ty(p, l))
                    .collect::<Result<_, _>>()?,
                ret: ty(&sig.ret, l)?,
                effect: sig
                    .effect
                    .iter()
                    .map(|e| effect(e, l))
                    .collect::<Result<_, _>>()?,
                ..(**sig).clone()
            };
            (new != **sig).then(|| Ty::Fn(Arc::new(new)))
        }
        Ty::Fn(_) => None,
    })
}

fn key_changed<L: Lookup + ?Sized>(k: &KeyRef, l: &L) -> Result<Option<KeyRef>, L::Err> {
    let KeyRef::Var(v) = k else { return Ok(None) };
    Ok(match l.get(Kind::Key, v)? {
        Some(Arg::Key(k)) => Some(k),
        _ => None,
    })
}

fn state_changed<L: Lookup + ?Sized>(s: &StateArg, l: &L) -> Result<Option<StateArg>, L::Err> {
    let StateArg::Var(v) = s else { return Ok(None) };
    Ok(match l.get(Kind::State, v)? {
        Some(Arg::State(s)) => Some(s),
        _ => None,
    })
}

fn req_changed<L: Lookup + ?Sized>(r: &StateReq, l: &L) -> Result<Option<StateReq>, L::Err> {
    let StateReq::Var(v) = r else { return Ok(None) };
    Ok(match l.get(Kind::State, v)? {
        Some(Arg::State(StateArg::Token(t) | StateArg::Val(StateVal::Token(t)))) => {
            Some(StateReq::Exact(t))
        }
        _ => None,
    })
}

/// `new`, or a copy of `old` when substitution left it unchanged.
fn or_old<T: Clone>(new: Option<T>, old: &T) -> T {
    new.unwrap_or_else(|| old.clone())
}

/// `old`, or a new node holding `new` when substitution changed it.
fn share(old: &Arc<Ty>, new: Option<Ty>) -> Arc<Ty> {
    new.map_or_else(|| old.clone(), Arc::new)
}

/// Substitute every item of `items` with `f` (`Ok(None)` = unchanged), in
/// order, stopping at the first error. `Ok(None)` when no item changed,
/// so the caller can keep sharing `items`.
fn slice_changed<T: Clone, E>(
    items: &[T],
    mut f: impl FnMut(&T) -> Result<Option<T>, E>,
) -> Result<Option<Vec<T>>, E> {
    let mut out: Option<Vec<T>> = None;
    for (i, item) in items.iter().enumerate() {
        match (f(item)?, &mut out) {
            (Some(new), Some(out)) => out.push(new),
            (Some(new), None) => {
                let mut v = Vec::with_capacity(items.len());
                v.extend_from_slice(&items[..i]);
                v.push(new);
                out = Some(v);
            }
            (None, Some(out)) => out.push(item.clone()),
            (None, None) => {}
        }
    }
    Ok(out)
}

/// One variable or concrete key a type or effect item mentions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mention<'t> {
    /// A key, variable or concrete, with the type it tracks when it is the
    /// key of a `tracked(K) T` (guard keys and key arguments track none).
    Key(&'t KeyRef, Option<&'t Ty>),
    /// A state variable, with its bound when it is a bounded requirement
    /// (`K@(S <= bound)`).
    State(&'t Name, Option<StateId>),
    /// A type variable.
    Ty(&'t Name),
}

/// Report, in order, every variable or concrete key `t` mentions. Function
/// types bind their own variables and are not entered.
pub fn visit_ty<'t>(t: &'t Ty, f: &mut impl FnMut(Mention<'t>)) {
    match t {
        Ty::Void | Ty::Int | Ty::Bool | Ty::Byte | Ty::Str | Ty::Error | Ty::Fn(_) => {}
        Ty::Var(v) => f(Mention::Ty(v)),
        Ty::Array(inner) | Ty::TrackedAnon(inner) => visit_ty(inner, f),
        Ty::Tuple(ts) => ts.iter().for_each(|t| visit_ty(t, f)),
        Ty::Tracked { key, inner } => {
            f(Mention::Key(key, Some(inner)));
            visit_ty(inner, f);
        }
        Ty::Guarded { guards, inner } => {
            for g in guards.iter() {
                f(Mention::Key(&g.key, None));
                visit_req(&g.req, f);
            }
            visit_ty(inner, f);
        }
        Ty::Named { args, .. } => args.iter().for_each(|a| match a {
            Arg::Ty(t) => visit_ty(t, f),
            Arg::Key(k) => f(Mention::Key(k, None)),
            Arg::State(s) => visit_state(s, f),
        }),
    }
}

/// Report, in order, every variable or concrete key an effect item
/// mentions. A `[new K]` item's `K` is a binder, not a mention.
pub fn visit_effect<'t>(e: &'t EffItem, f: &mut impl FnMut(Mention<'t>)) {
    match e {
        EffItem::Keep { key, from, to } => {
            f(Mention::Key(key, None));
            visit_req(from, f);
            to.iter().for_each(|to| visit_state(to, f));
        }
        EffItem::Consume { key, from } => {
            f(Mention::Key(key, None));
            visit_req(from, f);
        }
        EffItem::Produce { key, state } => {
            f(Mention::Key(key, None));
            visit_state(state, f);
        }
        EffItem::Fresh { state, .. } => visit_state(state, f),
    }
}

fn visit_req<'t>(r: &'t StateReq, f: &mut impl FnMut(Mention<'t>)) {
    match r {
        StateReq::Var(v) => f(Mention::State(v, None)),
        StateReq::AtMost {
            var: Some(v),
            bound,
        } => f(Mention::State(v, Some(*bound))),
        _ => {}
    }
}

fn visit_state<'t>(s: &'t StateArg, f: &mut impl FnMut(Mention<'t>)) {
    if let StateArg::Var(v) = s {
        f(Mention::State(v, None));
    }
}

/// What differs between ways of matching a declared type against an
/// actual one. [`zip`] finds the pairs; the matcher judges each pair of
/// variables, keys, guard requirements, state arguments and function
/// types, and says why a pair of shapes differs.
pub trait Match {
    /// Why two types do not match.
    type Err;
    /// Whether `byte` and `int` match each other and an anonymous tracked
    /// declaration accepts a tracked value (a call's argument rules).
    const LOOSE: bool = false;
    /// The types `d` and `a` differ in shape.
    fn mismatch(&mut self, d: &Ty, a: &Ty) -> Self::Err;
    /// The declared type variable `v` against the actual type `a`; by
    /// default only the same variable matches.
    fn var(&mut self, v: &Name, a: &Ty) -> Result<(), Self::Err> {
        match a {
            Ty::Var(w) if w == v => Ok(()),
            _ => Err(self.mismatch(&Ty::Var(v.clone()), a)),
        }
    }
    /// Two keys at one position of the types `at`.
    fn key(&mut self, d: &KeyRef, a: &KeyRef, at: (&Ty, &Ty)) -> Result<(), Self::Err>;
    /// The state requirements of two guards whose keys matched.
    fn req(&mut self, d: &GuardAtom, a: &GuardAtom) -> Result<(), Self::Err>;
    /// Two state arguments of the named types `at`.
    fn state(&mut self, d: &StateArg, a: &StateArg, at: (&Ty, &Ty)) -> Result<(), Self::Err>;
    /// Two function types.
    fn sig(&mut self, d: &FnSig, a: &FnSig) -> Result<(), Self::Err>;
}

/// Match the declared type `d` against the actual type `a` under `m`,
/// left to right, stopping at the first pair `m` rejects. `Error` on
/// either side matches anything, so one bad expression does not cascade.
pub fn zip<M: Match + ?Sized>(d: &Ty, a: &Ty, m: &mut M) -> Result<(), M::Err> {
    match (d, a) {
        (Ty::Error, _) | (_, Ty::Error) => Ok(()),
        (Ty::Var(v), _) => m.var(v, a),
        (Ty::Void, Ty::Void)
        | (Ty::Int, Ty::Int)
        | (Ty::Bool, Ty::Bool)
        | (Ty::Byte, Ty::Byte)
        | (Ty::Str, Ty::Str) => Ok(()),
        (Ty::Byte, Ty::Int) | (Ty::Int, Ty::Byte) if M::LOOSE => Ok(()),
        (Ty::Array(x), Ty::Array(y)) | (Ty::TrackedAnon(x), Ty::TrackedAnon(y)) => zip(x, y, m),
        (Ty::TrackedAnon(x), Ty::Tracked { inner: y, .. }) if M::LOOSE => zip(x, y, m),
        (Ty::Tuple(xs), Ty::Tuple(ys)) if xs.len() == ys.len() => {
            xs.iter().zip(ys.iter()).try_for_each(|(x, y)| zip(x, y, m))
        }
        (Ty::Tracked { key: dk, inner: x }, Ty::Tracked { key: ak, inner: y }) => {
            m.key(dk, ak, (d, a))?;
            zip(x, y, m)
        }
        (
            Ty::Guarded {
                guards: dg,
                inner: x,
            },
            Ty::Guarded {
                guards: ag,
                inner: y,
            },
        ) if dg.len() == ag.len() => {
            for (g, h) in dg.iter().zip(ag.iter()) {
                m.key(&g.key, &h.key, (d, a))?;
                m.req(g, h)?;
            }
            zip(x, y, m)
        }
        (Ty::Named { id: i, args: xs }, Ty::Named { id: j, args: ys })
            if i == j && xs.len() == ys.len() =>
        {
            xs.iter().zip(ys.iter()).try_for_each(|pair| match pair {
                (Arg::Ty(x), Arg::Ty(y)) => zip(x, y, m),
                (Arg::Key(x), Arg::Key(y)) => m.key(x, y, (d, a)),
                (Arg::State(x), Arg::State(y)) => m.state(x, y, (d, a)),
                _ => Err(m.mismatch(d, a)),
            })
        }
        (Ty::Fn(x), Ty::Fn(y)) => m.sig(x, y),
        _ => Err(m.mismatch(d, a)),
    }
}

/// The key variables `ts` mention, in name order.
pub fn key_vars<'t>(ts: impl IntoIterator<Item = &'t Ty>) -> BTreeSet<&'t Name> {
    let mut out = BTreeSet::new();
    for t in ts {
        visit_ty(t, &mut |m| {
            if let Mention::Key(KeyRef::Var(v), _) = m {
                out.insert(v);
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyId;
    use crate::ty::TypeId;

    fn region() -> Ty {
        Ty::named(TypeId(0), vec![])
    }

    #[test]
    fn call_bindings_resolve_keys() {
        let mut b = Bindings::new();
        b.bind_key(&"R".into(), KeyId(4)).unwrap();
        let decl = Ty::tracked(KeyRef::var("R"), region());
        assert_eq!(
            ty(&decl, &b).unwrap(),
            Ty::tracked(KeyRef::Id(KeyId(4)), region())
        );
    }

    #[test]
    fn call_bindings_reject_an_unbound_key() {
        let decl = Ty::tracked(KeyRef::var("N"), region());
        assert!(matches!(
            ty(&decl, &Bindings::new()),
            Err(UnifyErr::Unresolved(_))
        ));
    }

    #[test]
    fn params_leave_unknown_variables_and_enter_function_types() {
        let params = [ParamKind::Key("K".into()), ParamKind::Type("T".into())];
        let args = [Some(Arg::Key(KeyRef::Id(KeyId(2)))), None];
        let l = Params(&params, &args);
        let sig = FnSig {
            name: "<fn>".into(),
            params: vec![Ty::tracked(KeyRef::var("K"), Ty::Var("T".into()))],
            param_names: vec![None],
            ret: Ty::Void,
            effect: vec![EffItem::Consume {
                key: KeyRef::var("K"),
                from: StateReq::Any,
            }],
            caps: vec![],
            ty_params: vec![],
        };
        let Ok(got) = ty(&Ty::Fn(Arc::new(sig)), &l);
        let Ty::Fn(got) = got else { panic!() };
        assert_eq!(
            got.params[0],
            Ty::tracked(KeyRef::Id(KeyId(2)), Ty::Var("T".into()))
        );
        assert!(matches!(
            got.effect[0],
            EffItem::Consume {
                key: KeyRef::Id(KeyId(2)),
                ..
            }
        ));
    }

    #[test]
    fn visit_reports_state_variables_with_their_bounds() {
        let t = Ty::guarded(
            vec![GuardAtom {
                key: KeyRef::var("K"),
                req: StateReq::AtMost {
                    var: Some("S".into()),
                    bound: StateId(3),
                },
            }],
            Ty::named(TypeId(0), vec![Arg::State(StateArg::Var("U".into()))]),
        );
        let mut seen = Vec::new();
        visit_ty(&t, &mut |m| seen.push(m));
        let (k, s, u) = (KeyRef::var("K"), Name::from("S"), Name::from("U"));
        assert_eq!(
            seen,
            vec![
                Mention::Key(&k, None),
                Mention::State(&s, Some(StateId(3))),
                Mention::State(&u, None),
            ]
        );
    }
}
