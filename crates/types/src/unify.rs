//! Instantiation and matching of polymorphic signatures.
//!
//! Vault functions are polymorphic in the keys of their arguments, in key
//! states, and in the rest of the held-key set (paper §3.2). At each call
//! the checker *unifies* declared parameter types against actual argument
//! types to discover the key/state/type bindings, then applies the effect
//! clause under those bindings.

use crate::key::{KeyId, KeyRef, Name};
use crate::state::StateVal;
use crate::ty::{Arg, FnSig, GuardAtom, StateArg, Tables, Ty};
use crate::StateReq;
use std::collections::BTreeMap;
use std::fmt;

/// Accumulated variable bindings from unification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bindings {
    /// Key variable → concrete key.
    pub keys: BTreeMap<Name, KeyId>,
    /// State variable → state value.
    pub states: BTreeMap<Name, StateVal>,
    /// Type variable → type.
    pub tys: BTreeMap<Name, Ty>,
}

impl Bindings {
    /// Empty bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a key variable; errors if already bound to a different key.
    pub fn bind_key(&mut self, var: &Name, key: KeyId) -> Result<(), UnifyErr> {
        match self.keys.get(var) {
            Some(&k) if k != key => Err(UnifyErr::KeyConflict {
                var: var.to_string(),
                first: k,
                second: key,
            }),
            Some(_) => Ok(()),
            None => {
                self.keys.insert(var.clone(), key);
                Ok(())
            }
        }
    }

    /// Bind a state variable; errors on conflicting rebinding.
    pub fn bind_state(&mut self, var: &Name, val: StateVal) -> Result<(), UnifyErr> {
        match self.states.get(var) {
            Some(v) if *v != val => Err(UnifyErr::StateConflict(var.to_string())),
            Some(_) => Ok(()),
            None => {
                self.states.insert(var.clone(), val);
                Ok(())
            }
        }
    }

    /// Bind a type variable; errors if already bound to a different type.
    pub fn bind_ty(&mut self, var: &Name, ty: Ty) -> Result<(), UnifyErr> {
        match self.tys.get(var) {
            Some(t) if *t != ty => Err(UnifyErr::TyConflict(var.to_string())),
            _ => {
                self.tys.insert(var.clone(), ty);
                Ok(())
            }
        }
    }

    /// Resolve a key reference under these bindings.
    pub fn key(&self, k: &KeyRef) -> Option<KeyId> {
        match k {
            KeyRef::Id(id) => Some(*id),
            KeyRef::Var(v) => self.keys.get(v).copied(),
        }
    }
}

/// Unification failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnifyErr {
    /// Structural mismatch between declared and actual type.
    Mismatch {
        /// Rendering of the declared type.
        expected: String,
        /// Rendering of the actual type.
        found: String,
    },
    /// One key variable matched two different keys.
    KeyConflict {
        /// The variable.
        var: String,
        /// First key it matched.
        first: KeyId,
        /// Conflicting key.
        second: KeyId,
    },
    /// One state variable matched two different states.
    StateConflict(String),
    /// One type variable matched two different types.
    TyConflict(String),
    /// A variable remained unresolved when instantiating.
    Unresolved(String),
}

impl fmt::Display for UnifyErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifyErr::Mismatch { expected, found } => {
                write!(f, "expected `{expected}`, found `{found}`")
            }
            UnifyErr::KeyConflict { var, first, second } => write!(
                f,
                "key variable `{var}` matched two distinct keys ({first} and {second})"
            ),
            UnifyErr::StateConflict(v) => {
                write!(f, "state variable `{v}` matched two different states")
            }
            UnifyErr::TyConflict(v) => {
                write!(f, "type variable `{v}` matched two different types")
            }
            UnifyErr::Unresolved(v) => write!(f, "variable `{v}` was not determined by the call"),
        }
    }
}

impl std::error::Error for UnifyErr {}

/// Unify a declared (polymorphic) type against an actual (concrete) type,
/// extending `binds`.
pub fn unify(decl: &Ty, actual: &Ty, binds: &mut Bindings, world: &Tables) -> Result<(), UnifyErr> {
    // Errors flow through silently so one bad expression doesn't cascade.
    if decl.is_error() || actual.is_error() {
        return Ok(());
    }
    match (decl, actual) {
        (Ty::Var(v), t) => binds.bind_ty(v, t.clone()),
        (Ty::Void, Ty::Void)
        | (Ty::Int, Ty::Int)
        | (Ty::Bool, Ty::Bool)
        | (Ty::Byte, Ty::Byte)
        | (Ty::Str, Ty::Str) => Ok(()),
        // byte/int interchange keeps driver buffer code simple.
        (Ty::Byte, Ty::Int) | (Ty::Int, Ty::Byte) => Ok(()),
        (Ty::Array(d), Ty::Array(a)) => unify(d, a, binds, world),
        (Ty::Tuple(ds), Ty::Tuple(as_)) if ds.len() == as_.len() => {
            for (d, a) in ds.iter().zip(as_.iter()) {
                unify(d, a, binds, world)?;
            }
            Ok(())
        }
        (Ty::Tracked { key: dk, inner: di }, Ty::Tracked { key: ak, inner: ai }) => {
            unify_key(dk, ak, binds, world, actual)?;
            unify(di, ai, binds, world)
        }
        // An anonymous tracked parameter accepts any tracked value: the
        // key is packed away (the checker consumes it separately).
        (Ty::TrackedAnon(di), Ty::Tracked { inner: ai, .. }) => unify(di, ai, binds, world),
        (Ty::TrackedAnon(di), Ty::TrackedAnon(ai)) => unify(di, ai, binds, world),
        (
            Ty::Guarded {
                guards: dg,
                inner: di,
            },
            Ty::Guarded {
                guards: ag,
                inner: ai,
            },
        ) if dg.len() == ag.len() => {
            for (d, a) in dg.iter().zip(ag.iter()) {
                unify_guard(d, a, binds, world, actual)?;
            }
            unify(di, ai, binds, world)
        }
        (Ty::Named { id: did, args: da }, Ty::Named { id: aid, args: aa })
            if did == aid && da.len() == aa.len() =>
        {
            for (d, a) in da.iter().zip(aa.iter()) {
                unify_arg(d, a, binds, world, decl, actual)?;
            }
            Ok(())
        }
        (Ty::Fn(d), Ty::Fn(a)) => unify_fn(d, a, binds, world),
        _ => Err(mismatch(decl, actual, world)),
    }
}

fn mismatch(decl: &Ty, actual: &Ty, world: &Tables) -> UnifyErr {
    UnifyErr::Mismatch {
        expected: decl.display(world),
        found: actual.display(world),
    }
}

fn unify_key(
    decl: &KeyRef,
    actual: &KeyRef,
    binds: &mut Bindings,
    world: &Tables,
    actual_ty: &Ty,
) -> Result<(), UnifyErr> {
    match (decl, actual) {
        (KeyRef::Var(v), KeyRef::Id(k)) => binds.bind_key(v, *k),
        (KeyRef::Id(a), KeyRef::Id(b)) if a == b => Ok(()),
        (KeyRef::Var(v), KeyRef::Var(w)) if v == w => Ok(()),
        _ => Err(UnifyErr::Mismatch {
            expected: decl.to_string(),
            found: actual_ty.display(world),
        }),
    }
}

fn unify_guard(
    decl: &GuardAtom,
    actual: &GuardAtom,
    binds: &mut Bindings,
    world: &Tables,
    actual_ty: &Ty,
) -> Result<(), UnifyErr> {
    unify_key(&decl.key, &actual.key, binds, world, actual_ty)?;
    // Guard state requirements must be compatible; state variables bind.
    match (&decl.req, &actual.req) {
        (StateReq::Any, _) | (_, StateReq::Any) => Ok(()),
        (StateReq::Exact(a), StateReq::Exact(b)) if a == b => Ok(()),
        (StateReq::Var(v), StateReq::Exact(s)) => binds.bind_state(v, StateVal::Token(*s)),
        (StateReq::AtMost { .. }, _) | (_, StateReq::AtMost { .. }) => Ok(()),
        _ => Err(UnifyErr::Mismatch {
            expected: decl.display(&world.states),
            found: actual.display(&world.states),
        }),
    }
}

fn unify_arg(
    decl: &Arg,
    actual: &Arg,
    binds: &mut Bindings,
    world: &Tables,
    decl_ty: &Ty,
    actual_ty: &Ty,
) -> Result<(), UnifyErr> {
    match (decl, actual) {
        (Arg::Ty(d), Arg::Ty(a)) => unify(d, a, binds, world),
        (Arg::Key(d), Arg::Key(a)) => unify_key(d, a, binds, world, actual_ty),
        (Arg::State(d), Arg::State(a)) => {
            let aval = match a {
                StateArg::Val(v) => *v,
                StateArg::Token(t) => StateVal::Token(*t),
                StateArg::Var(_) => {
                    return Err(mismatch(decl_ty, actual_ty, world));
                }
            };
            match d {
                StateArg::Var(v) => binds.bind_state(v, aval),
                StateArg::Token(t) if StateVal::Token(*t) == aval => Ok(()),
                StateArg::Val(v) if *v == aval => Ok(()),
                _ => Err(mismatch(decl_ty, actual_ty, world)),
            }
        }
        _ => Err(mismatch(decl_ty, actual_ty, world)),
    }
}

/// Function types unify when they are alpha-equivalent over their key
/// variables: same shapes, with a consistent bijection between the key
/// variables of the two signatures. A key variable on the declared side may
/// also bind to a concrete key on the actual side (a nested function over
/// already-instantiated keys matching `COMPLETION_ROUTINE<I>`, §4.3).
fn unify_fn(
    decl: &FnSig,
    actual: &FnSig,
    binds: &mut Bindings,
    world: &Tables,
) -> Result<(), UnifyErr> {
    if decl.params.len() != actual.params.len() || decl.effect.len() != actual.effect.len() {
        return Err(UnifyErr::Mismatch {
            expected: format!("fn with {} params", decl.params.len()),
            found: format!("fn with {} params", actual.params.len()),
        });
    }
    let mut alpha = Alpha {
        fwd: BTreeMap::new(),
        bwd: BTreeMap::new(),
        binds,
    };
    for (d, a) in decl
        .params
        .iter()
        .zip(&actual.params)
        .chain(std::iter::once((&decl.ret, &actual.ret)))
    {
        alpha_eq(d, a, &mut alpha, world)?;
    }
    for (d, a) in decl.effect.iter().zip(&actual.effect) {
        use crate::ty::EffItem::*;
        let ok = match (d, a) {
            (Keep { key: dk, .. }, Keep { key: ak, .. })
            | (Consume { key: dk, .. }, Consume { key: ak, .. })
            | (Produce { key: dk, .. }, Produce { key: ak, .. }) => alpha.key(dk, ak),
            (Fresh { var: dv, .. }, Fresh { var: av, .. }) => alpha.var(dv, av),
            _ => false,
        };
        if !ok {
            return Err(UnifyErr::Mismatch {
                expected: format!("fn effect of `{}`", decl.name),
                found: format!("fn effect of `{}`", actual.name),
            });
        }
    }
    Ok(())
}

/// Tracks the variable correspondence while matching two function types.
struct Alpha<'b> {
    /// decl var → actual var (for var-var pairs).
    fwd: BTreeMap<Name, Name>,
    /// actual var → decl var.
    bwd: BTreeMap<Name, Name>,
    /// Outer bindings, for decl-var-to-concrete-key pairs.
    binds: &'b mut Bindings,
}

impl Alpha<'_> {
    fn key(&mut self, d: &KeyRef, a: &KeyRef) -> bool {
        match (d, a) {
            (KeyRef::Id(x), KeyRef::Id(y)) => x == y,
            (KeyRef::Var(x), KeyRef::Id(y)) => self.binds.bind_key(x, *y).is_ok(),
            (KeyRef::Var(x), KeyRef::Var(y)) => self.var(x, y),
            (KeyRef::Id(_), KeyRef::Var(_)) => false,
        }
    }

    /// Pair two key variables, keeping the correspondence a bijection.
    fn var(&mut self, x: &Name, y: &Name) -> bool {
        let f_ok = match self.fwd.get(x) {
            Some(mapped) => mapped == y,
            None => {
                self.fwd.insert(x.clone(), y.clone());
                true
            }
        };
        let b_ok = match self.bwd.get(y) {
            Some(mapped) => mapped == x,
            None => {
                self.bwd.insert(y.clone(), x.clone());
                true
            }
        };
        f_ok && b_ok
    }
}

fn alpha_eq(d: &Ty, a: &Ty, alpha: &mut Alpha<'_>, world: &Tables) -> Result<(), UnifyErr> {
    let fail = || {
        Err(UnifyErr::Mismatch {
            expected: d.display(world),
            found: a.display(world),
        })
    };
    match (d, a) {
        (Ty::Void, Ty::Void)
        | (Ty::Int, Ty::Int)
        | (Ty::Bool, Ty::Bool)
        | (Ty::Byte, Ty::Byte)
        | (Ty::Str, Ty::Str)
        | (Ty::Error, _)
        | (_, Ty::Error) => Ok(()),
        (Ty::Var(x), Ty::Var(y)) if x == y => Ok(()),
        (Ty::Array(x), Ty::Array(y)) => alpha_eq(x, y, alpha, world),
        (Ty::Tuple(xs), Ty::Tuple(ys)) if xs.len() == ys.len() => {
            for (x, y) in xs.iter().zip(ys.iter()) {
                alpha_eq(x, y, alpha, world)?;
            }
            Ok(())
        }
        (Ty::Tracked { key: dk, inner: di }, Ty::Tracked { key: ak, inner: ai }) => {
            if !alpha.key(dk, ak) {
                return fail();
            }
            alpha_eq(di, ai, alpha, world)
        }
        (Ty::TrackedAnon(x), Ty::TrackedAnon(y)) => alpha_eq(x, y, alpha, world),
        (
            Ty::Guarded {
                guards: dg,
                inner: di,
            },
            Ty::Guarded {
                guards: ag,
                inner: ai,
            },
        ) if dg.len() == ag.len() => {
            for (x, y) in dg.iter().zip(ag.iter()) {
                if !alpha.key(&x.key, &y.key) {
                    return fail();
                }
            }
            alpha_eq(di, ai, alpha, world)
        }
        (Ty::Named { id: di, args: da }, Ty::Named { id: ai, args: aa })
            if di == ai && da.len() == aa.len() =>
        {
            for (x, y) in da.iter().zip(aa.iter()) {
                match (x, y) {
                    (Arg::Ty(x), Arg::Ty(y)) => alpha_eq(x, y, alpha, world)?,
                    (Arg::Key(x), Arg::Key(y)) => {
                        if !alpha.key(x, y) {
                            return fail();
                        }
                    }
                    (Arg::State(x), Arg::State(y)) if x == y => {}
                    (Arg::State(StateArg::Var(_)), Arg::State(_))
                    | (Arg::State(_), Arg::State(StateArg::Var(_))) => {}
                    _ => return fail(),
                }
            }
            Ok(())
        }
        (Ty::Fn(x), Ty::Fn(y)) => unify_fn(x, y, alpha.binds, world),
        _ => fail(),
    }
}

/// Structural equality of two concrete types modulo a *bijective* renaming
/// of concrete keys, extending `map`/`rev`. This is the join-point
/// abstraction (paper §3): two branches agree if their environments are
/// identical once local key names are abstracted.
pub fn ty_eq_mod_keys(
    a: &Ty,
    b: &Ty,
    map: &mut BTreeMap<KeyId, KeyId>,
    rev: &mut BTreeMap<KeyId, KeyId>,
) -> bool {
    fn key_eq(
        a: &KeyRef,
        b: &KeyRef,
        map: &mut BTreeMap<KeyId, KeyId>,
        rev: &mut BTreeMap<KeyId, KeyId>,
    ) -> bool {
        match (a, b) {
            (KeyRef::Id(x), KeyRef::Id(y)) => {
                let f_ok = match map.get(x) {
                    Some(m) => m == y,
                    None => {
                        map.insert(*x, *y);
                        true
                    }
                };
                let b_ok = match rev.get(y) {
                    Some(m) => m == x,
                    None => {
                        rev.insert(*y, *x);
                        true
                    }
                };
                f_ok && b_ok
            }
            (KeyRef::Var(x), KeyRef::Var(y)) => x == y,
            _ => false,
        }
    }
    match (a, b) {
        (Ty::Void, Ty::Void)
        | (Ty::Int, Ty::Int)
        | (Ty::Bool, Ty::Bool)
        | (Ty::Byte, Ty::Byte)
        | (Ty::Str, Ty::Str)
        | (Ty::Error, _)
        | (_, Ty::Error) => true,
        (Ty::Var(x), Ty::Var(y)) => x == y,
        (Ty::Array(x), Ty::Array(y)) => ty_eq_mod_keys(x, y, map, rev),
        (Ty::Tuple(xs), Ty::Tuple(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys.iter())
                    .all(|(x, y)| ty_eq_mod_keys(x, y, map, rev))
        }
        (Ty::Tracked { key: ka, inner: ia }, Ty::Tracked { key: kb, inner: ib }) => {
            key_eq(ka, kb, map, rev) && ty_eq_mod_keys(ia, ib, map, rev)
        }
        (Ty::TrackedAnon(x), Ty::TrackedAnon(y)) => ty_eq_mod_keys(x, y, map, rev),
        (
            Ty::Guarded {
                guards: ga,
                inner: ia,
            },
            Ty::Guarded {
                guards: gb,
                inner: ib,
            },
        ) => {
            ga.len() == gb.len()
                && ga
                    .iter()
                    .zip(gb.iter())
                    .all(|(x, y)| key_eq(&x.key, &y.key, map, rev) && x.req == y.req)
                && ty_eq_mod_keys(ia, ib, map, rev)
        }
        (Ty::Named { id: ia, args: aa }, Ty::Named { id: ib, args: ab }) => {
            ia == ib
                && aa.len() == ab.len()
                && aa.iter().zip(ab.iter()).all(|(x, y)| match (x, y) {
                    (Arg::Ty(x), Arg::Ty(y)) => ty_eq_mod_keys(x, y, map, rev),
                    (Arg::Key(x), Arg::Key(y)) => key_eq(x, y, map, rev),
                    (Arg::State(x), Arg::State(y)) => x == y,
                    _ => false,
                })
        }
        (Ty::Fn(x), Ty::Fn(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::{AbstractDef, TypeDef, World};
    use std::sync::Arc;

    fn world() -> (World, crate::ty::TypeId) {
        let mut w = World::new();
        let region = w
            .add_type(TypeDef::Abstract(AbstractDef {
                name: "region".into(),
                params: vec![],
            }))
            .unwrap();
        (w, region)
    }

    fn named(id: crate::ty::TypeId) -> Ty {
        Ty::Named {
            id,
            args: vec![].into(),
        }
    }

    #[test]
    fn unify_binds_key_vars() {
        let (w, region) = world();
        let decl = Ty::tracked(KeyRef::var("R"), named(region));
        let actual = Ty::tracked(KeyRef::Id(KeyId(7)), named(region));
        let mut b = Bindings::new();
        unify(&decl, &actual, &mut b, &w).unwrap();
        assert_eq!(b.keys.get("R"), Some(&KeyId(7)));
    }

    #[test]
    fn unify_key_var_conflict() {
        let (w, region) = world();
        let decl = Ty::Tuple(
            vec![
                Ty::tracked(KeyRef::var("R"), named(region)),
                Ty::tracked(KeyRef::var("R"), named(region)),
            ]
            .into(),
        );
        let actual = Ty::Tuple(
            vec![
                Ty::tracked(KeyRef::Id(KeyId(1)), named(region)),
                Ty::tracked(KeyRef::Id(KeyId(2)), named(region)),
            ]
            .into(),
        );
        let mut b = Bindings::new();
        assert!(matches!(
            unify(&decl, &actual, &mut b, &w),
            Err(UnifyErr::KeyConflict { .. })
        ));
    }

    #[test]
    fn unify_anon_accepts_tracked() {
        let (w, region) = world();
        let decl = Ty::TrackedAnon(Arc::new(named(region)));
        let actual = Ty::tracked(KeyRef::Id(KeyId(3)), named(region));
        let mut b = Bindings::new();
        unify(&decl, &actual, &mut b, &w).unwrap();
        assert!(b.keys.is_empty());
    }

    #[test]
    fn unify_structural_mismatch() {
        let (w, region) = world();
        let mut b = Bindings::new();
        assert!(matches!(
            unify(&Ty::Int, &named(region), &mut b, &w),
            Err(UnifyErr::Mismatch { .. })
        ));
    }

    #[test]
    fn unify_ty_var_binds_and_conflicts() {
        let (w, region) = world();
        let decl = Ty::Tuple(vec![Ty::Var("T".into()), Ty::Var("T".into())].into());
        let ok = Ty::Tuple(vec![Ty::Int, Ty::Int].into());
        let bad = Ty::Tuple(vec![Ty::Int, named(region)].into());
        let mut b = Bindings::new();
        unify(&decl, &ok, &mut b, &w).unwrap();
        assert_eq!(b.tys.get("T"), Some(&Ty::Int));
        let mut b2 = Bindings::new();
        assert!(matches!(
            unify(&decl, &bad, &mut b2, &w),
            Err(UnifyErr::TyConflict(_))
        ));
    }

    #[test]
    fn ty_eq_mod_keys_bijective() {
        let (_w, region) = world();
        let a = Ty::tracked(KeyRef::Id(KeyId(1)), named(region));
        let b = Ty::tracked(KeyRef::Id(KeyId(9)), named(region));
        let mut map = BTreeMap::new();
        let mut rev = BTreeMap::new();
        assert!(ty_eq_mod_keys(&a, &b, &mut map, &mut rev));
        assert_eq!(map.get(&KeyId(1)), Some(&KeyId(9)));
        // Non-injective renaming rejected: k1→k9 established, now k2→k9.
        let c = Ty::tracked(KeyRef::Id(KeyId(2)), named(region));
        assert!(!ty_eq_mod_keys(&c, &b, &mut map, &mut rev));
    }

    #[test]
    fn ty_eq_mod_keys_consistency_across_positions() {
        let (_w, region) = world();
        let pair_a = Ty::Tuple(
            vec![
                Ty::tracked(KeyRef::Id(KeyId(1)), named(region)),
                Ty::guarded(
                    vec![GuardAtom {
                        key: KeyRef::Id(KeyId(1)),
                        req: StateReq::Any,
                    }],
                    Ty::Int,
                ),
            ]
            .into(),
        );
        let pair_b_consistent = Ty::Tuple(
            vec![
                Ty::tracked(KeyRef::Id(KeyId(5)), named(region)),
                Ty::guarded(
                    vec![GuardAtom {
                        key: KeyRef::Id(KeyId(5)),
                        req: StateReq::Any,
                    }],
                    Ty::Int,
                ),
            ]
            .into(),
        );
        let pair_b_mixed = Ty::Tuple(
            vec![
                Ty::tracked(KeyRef::Id(KeyId(5)), named(region)),
                Ty::guarded(
                    vec![GuardAtom {
                        key: KeyRef::Id(KeyId(6)),
                        req: StateReq::Any,
                    }],
                    Ty::Int,
                ),
            ]
            .into(),
        );
        let mut m = BTreeMap::new();
        let mut r = BTreeMap::new();
        assert!(ty_eq_mod_keys(&pair_a, &pair_b_consistent, &mut m, &mut r));
        let mut m2 = BTreeMap::new();
        let mut r2 = BTreeMap::new();
        assert!(!ty_eq_mod_keys(&pair_a, &pair_b_mixed, &mut m2, &mut r2));
    }

    #[test]
    fn fn_sig_alpha_equivalence() {
        let (w, region) = world();
        let sig = |kv: &str| FnSig {
            name: format!("f_{kv}").into(),
            params: vec![Ty::tracked(KeyRef::var(kv), named(region))],
            param_names: vec![None],
            ret: Ty::Void,
            effect: vec![crate::ty::EffItem::Consume {
                key: KeyRef::var(kv),
                from: StateReq::Any,
            }],
            caps: vec![],
            ty_params: vec![],
        };
        let d = Ty::Fn(Arc::new(sig("K")));
        let a = Ty::Fn(Arc::new(sig("J")));
        let mut b = Bindings::new();
        unify(&d, &a, &mut b, &w).unwrap();
    }

    #[test]
    fn fn_sig_effect_shape_mismatch() {
        let (w, region) = world();
        let keep = FnSig {
            name: "keep".into(),
            params: vec![Ty::tracked(KeyRef::var("K"), named(region))],
            param_names: vec![None],
            ret: Ty::Void,
            effect: vec![crate::ty::EffItem::Keep {
                key: KeyRef::var("K"),
                from: StateReq::Any,
                to: None,
            }],
            caps: vec![],
            ty_params: vec![],
        };
        let consume = FnSig {
            name: "consume".into(),
            params: vec![Ty::tracked(KeyRef::var("K"), named(region))],
            param_names: vec![None],
            ret: Ty::Void,
            effect: vec![crate::ty::EffItem::Consume {
                key: KeyRef::var("K"),
                from: StateReq::Any,
            }],
            caps: vec![],
            ty_params: vec![],
        };
        let mut b = Bindings::new();
        assert!(unify(
            &Ty::Fn(Arc::new(keep)),
            &Ty::Fn(Arc::new(consume)),
            &mut b,
            &w
        )
        .is_err());
    }
}
