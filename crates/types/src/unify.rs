//! Matching of polymorphic signatures and of join-point environments.
//!
//! Vault functions are polymorphic in the keys of their arguments, in key
//! states, and in the rest of the held-key set (paper §3.2). At each call
//! the checker *unifies* declared parameter types against actual argument
//! types to discover the key/state/type bindings, then applies the effect
//! clause under those bindings. At a join (§3) it matches two
//! environments up to a [`Bijection`] of keys. Both walk the pair of types
//! with [`subst::zip`]; the matchers here hold what differs.

use crate::key::{KeyId, KeyRef, Name};
use crate::state::StateVal;
use crate::subst::{self, Match, Mention};
use crate::ty::{FnSig, GuardAtom, StateArg, Tables, Ty};
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
    subst::zip(decl, actual, &mut Call { binds, world })
}

fn mismatch(decl: &Ty, actual: &Ty, world: &Tables) -> UnifyErr {
    UnifyErr::Mismatch {
        expected: decl.display(world),
        found: actual.display(world),
    }
}

/// A call's matcher: the declared side's variables bind into the call's
/// [`Bindings`].
struct Call<'b> {
    binds: &'b mut Bindings,
    world: &'b Tables,
}

impl Match for Call<'_> {
    type Err = UnifyErr;
    // byte/int interchange keeps driver buffer code simple, and an
    // anonymous tracked parameter accepts any tracked value: the key is
    // packed away (the checker consumes it separately).
    const LOOSE: bool = true;

    fn mismatch(&mut self, d: &Ty, a: &Ty) -> UnifyErr {
        mismatch(d, a, self.world)
    }

    fn var(&mut self, v: &Name, a: &Ty) -> Result<(), UnifyErr> {
        self.binds.bind_ty(v, a.clone())
    }

    fn key(&mut self, d: &KeyRef, a: &KeyRef, at: (&Ty, &Ty)) -> Result<(), UnifyErr> {
        match (d, a) {
            (KeyRef::Var(v), KeyRef::Id(k)) => self.binds.bind_key(v, *k),
            (KeyRef::Id(x), KeyRef::Id(y)) if x == y => Ok(()),
            (KeyRef::Var(v), KeyRef::Var(w)) if v == w => Ok(()),
            _ => Err(UnifyErr::Mismatch {
                expected: d.to_string(),
                found: at.1.display(self.world),
            }),
        }
    }

    /// Guard state requirements must be compatible; state variables bind.
    fn req(&mut self, d: &GuardAtom, a: &GuardAtom) -> Result<(), UnifyErr> {
        match (&d.req, &a.req) {
            (StateReq::Any, _) | (_, StateReq::Any) => Ok(()),
            (StateReq::Exact(x), StateReq::Exact(y)) if x == y => Ok(()),
            (StateReq::Var(v), StateReq::Exact(s)) => self.binds.bind_state(v, StateVal::Token(*s)),
            (StateReq::AtMost { .. }, _) | (_, StateReq::AtMost { .. }) => Ok(()),
            _ => Err(UnifyErr::Mismatch {
                expected: d.display(&self.world.states),
                found: a.display(&self.world.states),
            }),
        }
    }

    fn state(&mut self, d: &StateArg, a: &StateArg, at: (&Ty, &Ty)) -> Result<(), UnifyErr> {
        let val = match a {
            StateArg::Val(v) => *v,
            StateArg::Token(t) => StateVal::Token(*t),
            StateArg::Var(_) => return Err(self.mismatch(at.0, at.1)),
        };
        match d {
            StateArg::Var(v) => self.binds.bind_state(v, val),
            StateArg::Token(t) if StateVal::Token(*t) == val => Ok(()),
            StateArg::Val(v) if *v == val => Ok(()),
            _ => Err(self.mismatch(at.0, at.1)),
        }
    }

    fn sig(&mut self, d: &FnSig, a: &FnSig) -> Result<(), UnifyErr> {
        unify_fn(d, a, self.binds, self.world)
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
        vars: Bijection::default(),
        binds,
        world,
    };
    for (d, a) in decl.params.iter().zip(&actual.params) {
        subst::zip(d, a, &mut alpha)?;
    }
    subst::zip(&decl.ret, &actual.ret, &mut alpha)?;
    for (d, a) in decl.effect.iter().zip(&actual.effect) {
        use crate::ty::EffItem::*;
        let ok = match (d, a) {
            (Keep { key: dk, .. }, Keep { key: ak, .. })
            | (Consume { key: dk, .. }, Consume { key: ak, .. })
            | (Produce { key: dk, .. }, Produce { key: ak, .. }) => alpha.pair(dk, ak),
            (Fresh { var: dv, .. }, Fresh { var: av, .. }) => alpha.vars.pair(dv, av),
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

/// The matcher of two function types' parts: key variables pair up one
/// to one, a declared key variable may bind a concrete key in the outer
/// [`Bindings`], and guard requirements are not compared.
struct Alpha<'b> {
    vars: Bijection<Name>,
    binds: &'b mut Bindings,
    world: &'b Tables,
}

impl Alpha<'_> {
    fn pair(&mut self, d: &KeyRef, a: &KeyRef) -> bool {
        match (d, a) {
            (KeyRef::Id(x), KeyRef::Id(y)) => x == y,
            (KeyRef::Var(x), KeyRef::Id(y)) => self.binds.bind_key(x, *y).is_ok(),
            (KeyRef::Var(x), KeyRef::Var(y)) => self.vars.pair(x, y),
            (KeyRef::Id(_), KeyRef::Var(_)) => false,
        }
    }
}

impl Match for Alpha<'_> {
    type Err = UnifyErr;

    fn mismatch(&mut self, d: &Ty, a: &Ty) -> UnifyErr {
        mismatch(d, a, self.world)
    }

    fn key(&mut self, d: &KeyRef, a: &KeyRef, at: (&Ty, &Ty)) -> Result<(), UnifyErr> {
        if self.pair(d, a) {
            Ok(())
        } else {
            Err(self.mismatch(at.0, at.1))
        }
    }

    fn req(&mut self, _: &GuardAtom, _: &GuardAtom) -> Result<(), UnifyErr> {
        Ok(())
    }

    fn state(&mut self, d: &StateArg, a: &StateArg, at: (&Ty, &Ty)) -> Result<(), UnifyErr> {
        match (d, a) {
            (StateArg::Var(_), _) | (_, StateArg::Var(_)) => Ok(()),
            _ if d == a => Ok(()),
            _ => Err(self.mismatch(at.0, at.1)),
        }
    }

    fn sig(&mut self, d: &FnSig, a: &FnSig) -> Result<(), UnifyErr> {
        unify_fn(d, a, self.binds, self.world)
    }
}

/// A one-to-one correspondence between two sides, grown pair by pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bijection<T> {
    /// Left side → right side.
    pub fwd: BTreeMap<T, T>,
    /// Right side → left side.
    pub bwd: BTreeMap<T, T>,
}

impl<T> Default for Bijection<T> {
    fn default() -> Self {
        Bijection {
            fwd: BTreeMap::new(),
            bwd: BTreeMap::new(),
        }
    }
}

impl<T: Ord + Clone> Bijection<T> {
    /// Pair `x` with `y`, recording each of them that has no partner yet;
    /// whether the correspondence is still one to one.
    pub fn pair(&mut self, x: &T, y: &T) -> bool {
        let fwd_ok = self.fwd.entry(x.clone()).or_insert_with(|| y.clone()) == y;
        let bwd_ok = self.bwd.entry(y.clone()).or_insert_with(|| x.clone()) == x;
        fwd_ok && bwd_ok
    }
}

/// The join's matcher (paper §3): two environments agree when their
/// types are equal once concrete keys are renamed by one bijection, from
/// the first path's keys to the second's.
impl Match for Bijection<KeyId> {
    /// The pair of keys that would break the bijection, or `None` when the
    /// types differ otherwise.
    type Err = Option<(KeyId, KeyId)>;

    fn mismatch(&mut self, _: &Ty, _: &Ty) -> Self::Err {
        None
    }

    fn key(&mut self, d: &KeyRef, a: &KeyRef, _: (&Ty, &Ty)) -> Result<(), Self::Err> {
        match (d, a) {
            (KeyRef::Id(x), KeyRef::Id(y)) => self.pair(x, y).then_some(()).ok_or(Some((*x, *y))),
            _ => same(d, a),
        }
    }

    fn req(&mut self, d: &GuardAtom, a: &GuardAtom) -> Result<(), Self::Err> {
        same(&d.req, &a.req)
    }

    fn state(&mut self, d: &StateArg, a: &StateArg, _: (&Ty, &Ty)) -> Result<(), Self::Err> {
        same(d, a)
    }

    fn sig(&mut self, d: &FnSig, a: &FnSig) -> Result<(), Self::Err> {
        same(d, a)
    }
}

fn same<T: PartialEq>(d: &T, a: &T) -> Result<(), Option<(KeyId, KeyId)>> {
    (d == a).then_some(()).ok_or(None)
}

impl Bijection<KeyId> {
    /// Pair every concrete key `t` mentions with itself, as matching `t`
    /// against itself would: up to the first key already paired with
    /// another.
    pub fn pair_itself(&mut self, t: &Ty) {
        let mut ok = true;
        subst::visit_ty(t, &mut |m| {
            if let (true, Mention::Key(KeyRef::Id(k), _)) = (ok, m) {
                ok = self.pair(k, k);
            }
        });
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
    fn join_renaming_is_bijective() {
        let (_w, region) = world();
        let a = Ty::tracked(KeyRef::Id(KeyId(1)), named(region));
        let b = Ty::tracked(KeyRef::Id(KeyId(9)), named(region));
        let mut keys = Bijection::default();
        assert_eq!(subst::zip(&a, &b, &mut keys), Ok(()));
        assert_eq!(keys.fwd.get(&KeyId(1)), Some(&KeyId(9)));
        // Non-injective renaming rejected: k1→k9 established, now k2→k9.
        let c = Ty::tracked(KeyRef::Id(KeyId(2)), named(region));
        assert_eq!(
            subst::zip(&c, &b, &mut keys),
            Err(Some((KeyId(2), KeyId(9))))
        );
    }

    #[test]
    fn join_renaming_is_consistent_across_positions() {
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
        let mut keys = Bijection::default();
        assert!(subst::zip(&pair_a, &pair_b_consistent, &mut keys).is_ok());
        let mut keys = Bijection::default();
        assert!(subst::zip(&pair_a, &pair_b_mixed, &mut keys).is_err());
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
