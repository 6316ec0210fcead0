//! The one pair walk ([`vault_types::subst::zip`]) against a frozen copy
//! of the three walkers it replaced: call-site `unify`, function-type
//! `alpha_eq` and the join's `ty_eq_mod_keys`.
//!
//! The copy in [`oracle`] is the code the checker ran before the walkers
//! shared one walk, kept verbatim (only its `crate::` path is spelled
//! `vault_types::`). A fixed-seed loop over the workspace `rand` generator
//! derives each actual type from a declared one by instantiating its
//! variables and perturbing at most one node, and holds every pair to the
//! same result, the same error text, the same bindings and the same
//! bijection contents as the oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::sync::Arc;
use vault_types::subst::{self, Kind, Lookup};
use vault_types::{
    unify, AbstractDef, Arg, Bijection, Bindings, EffItem, FnSig, GuardAtom, KeyId, KeyRef,
    StateArg, StateId, StateReq, StateVal, Ty, TypeDef, TypeId, World,
};

/// The walkers as they were, verbatim.
mod oracle {
    use std::collections::BTreeMap;
    use vault_types::{
        Arg, Bindings, FnSig, GuardAtom, KeyId, KeyRef, Name, StateArg, StateReq, StateVal, Tables,
        Ty, UnifyErr,
    };

    /// Unify a declared (polymorphic) type against an actual (concrete) type,
    /// extending `binds`.
    pub fn unify(
        decl: &Ty,
        actual: &Ty,
        binds: &mut Bindings,
        world: &Tables,
    ) -> Result<(), UnifyErr> {
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
            use vault_types::EffItem::*;
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
}

/// How many pairs each property generates.
const PAIRS: u64 = 12_000;

/// The variables a declared type may mention.
const KEY_VARS: [&str; 3] = ["K", "L", "M"];
const STATE_VARS: [&str; 2] = ["S", "U"];
const TY_VARS: [&str; 2] = ["T", "X"];

/// A world with two named types and one four-state stateset.
fn world() -> (World, Vec<StateId>) {
    let mut w = World::new();
    for name in ["region", "point"] {
        w.add_type(TypeDef::Abstract(AbstractDef {
            name: name.into(),
            params: vec![],
        }))
        .unwrap();
    }
    let set = w.states.begin_stateset("S");
    let states = ["a", "b", "c", "d"].map(|s| w.states.add_state(set, s).unwrap());
    w.states.finish_stateset(set).unwrap();
    (w, states.to_vec())
}

/// Random declared types, recording which node kinds they reached.
struct Gen<'r> {
    rng: &'r mut StdRng,
    states: Vec<StateId>,
    seen: BTreeSet<&'static str>,
}

impl Gen<'_> {
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.gen_range(0..items.len())]
    }

    fn state(&mut self) -> StateId {
        let states = self.states.clone();
        self.pick(&states)
    }

    fn key(&mut self) -> KeyRef {
        if self.rng.gen_bool(0.75) {
            KeyRef::var(self.pick(&KEY_VARS))
        } else {
            KeyRef::Id(KeyId(self.rng.gen_range(0u32..4)))
        }
    }

    fn req(&mut self) -> StateReq {
        match self.rng.gen_range(0u8..4) {
            0 => StateReq::Any,
            1 => StateReq::Exact(self.state()),
            2 => StateReq::Var(self.pick(&STATE_VARS).into()),
            _ => StateReq::AtMost {
                var: Some(self.pick(&STATE_VARS).into()),
                bound: self.state(),
            },
        }
    }

    fn state_arg(&mut self) -> StateArg {
        match self.rng.gen_range(0u8..4) {
            0 | 1 => StateArg::Var(self.pick(&STATE_VARS).into()),
            2 => StateArg::Token(self.state()),
            _ => {
                self.seen.insert("StateArg::Val");
                StateArg::Val(self.val())
            }
        }
    }

    fn val(&mut self) -> StateVal {
        if self.rng.gen_bool(0.5) {
            StateVal::Token(self.state())
        } else {
            StateVal::Abs {
                id: self.rng.gen_range(0u32..3),
                bound: None,
            }
        }
    }

    fn effect(&mut self) -> EffItem {
        let (name, item) = match self.rng.gen_range(0u8..4) {
            0 => (
                "Keep",
                EffItem::Keep {
                    key: self.key(),
                    from: self.req(),
                    to: self.rng.gen_bool(0.5).then(|| self.state_arg()),
                },
            ),
            1 => (
                "Consume",
                EffItem::Consume {
                    key: self.key(),
                    from: self.req(),
                },
            ),
            2 => (
                "Produce",
                EffItem::Produce {
                    key: self.key(),
                    state: self.state_arg(),
                },
            ),
            _ => (
                "Fresh",
                EffItem::Fresh {
                    var: self.pick(&["N", "P"]).into(),
                    state: self.state_arg(),
                },
            ),
        };
        self.seen.insert(name);
        item
    }

    fn ty(&mut self, depth: u32) -> Ty {
        let leaf = depth == 0 || self.rng.gen_bool(0.3);
        let pick = if leaf {
            self.rng.gen_range(0u8..8)
        } else {
            self.rng.gen_range(8u8..15)
        };
        let (name, t) = match pick {
            0 => ("Void", Ty::Void),
            1 => ("Int", Ty::Int),
            2 => ("Bool", Ty::Bool),
            3 => ("Byte", Ty::Byte),
            4 => ("Str", Ty::Str),
            5 => ("Error", Ty::Error),
            6 | 7 => ("Var", Ty::Var(self.pick(&TY_VARS).into())),
            8 => ("Array", Ty::Array(Arc::new(self.ty(depth - 1)))),
            9 => {
                let n = self.rng.gen_range(0usize..3);
                (
                    "Tuple",
                    Ty::Tuple((0..n).map(|_| self.ty(depth - 1)).collect()),
                )
            }
            10 => {
                let key = self.key();
                ("Tracked", Ty::tracked(key, self.ty(depth - 1)))
            }
            11 => ("TrackedAnon", Ty::TrackedAnon(Arc::new(self.ty(depth - 1)))),
            12 => {
                let n = self.rng.gen_range(1usize..3);
                let guards = (0..n)
                    .map(|_| GuardAtom {
                        key: self.key(),
                        req: self.req(),
                    })
                    .collect();
                ("Guarded", Ty::guarded(guards, self.ty(depth - 1)))
            }
            13 => {
                let id = TypeId(self.rng.gen_range(0u32..2));
                let n = self.rng.gen_range(0usize..4);
                let args = (0..n)
                    .map(|_| match self.rng.gen_range(0u8..3) {
                        0 => Arg::Ty(self.ty(depth - 1)),
                        1 => Arg::Key(self.key()),
                        _ => Arg::State(self.state_arg()),
                    })
                    .collect();
                ("Named", Ty::named(id, args))
            }
            _ => {
                let params = (0..self.rng.gen_range(0usize..3))
                    .map(|_| self.ty(depth - 1))
                    .collect::<Vec<_>>();
                let effect = (0..self.rng.gen_range(0usize..3))
                    .map(|_| self.effect())
                    .collect();
                let sig = FnSig {
                    name: "<fn>".into(),
                    param_names: vec![None; params.len()],
                    params,
                    ret: self.ty(depth - 1),
                    effect,
                    caps: vec![],
                    ty_params: vec![],
                };
                ("Fn", Ty::Fn(Arc::new(sig)))
            }
        };
        self.seen.insert(name);
        t
    }

    /// One instantiation of every variable: keys to concrete keys (or,
    /// in `rename_keys` mode, to other key variables), states to tokens
    /// or values, types to small types.
    fn instantiation(&mut self, rename_keys: bool) -> Inst {
        let keys = KEY_VARS
            .iter()
            .map(|&v| {
                let to = if rename_keys {
                    KeyRef::var(self.pick(&["K'", "L'", "M'"]))
                } else {
                    KeyRef::Id(KeyId(self.rng.gen_range(0u32..4)))
                };
                (v, to)
            })
            .collect();
        let states = STATE_VARS
            .iter()
            .map(|&v| {
                let to = if self.rng.gen_bool(0.5) {
                    StateArg::Token(self.state())
                } else {
                    StateArg::Val(self.val())
                };
                (v, to)
            })
            .collect();
        let tys = TY_VARS.iter().map(|&v| (v, self.ty(1))).collect();
        Inst { keys, states, tys }
    }

    /// `t` with at most one node changed: replaced by a random type, or
    /// given another key, guard requirement or argument.
    fn perturb(&mut self, t: &Ty) -> Ty {
        let mut at = self.rng.gen_range(0..nodes(t));
        self.perturb_at(t, &mut at)
    }

    fn perturb_at(&mut self, t: &Ty, at: &mut usize) -> Ty {
        if *at == 0 {
            *at = usize::MAX;
            return match (t, self.rng.gen_range(0u8..3)) {
                (Ty::Tracked { inner, .. }, 0) => Ty::Tracked {
                    key: KeyRef::Id(KeyId(self.rng.gen_range(0u32..4))),
                    inner: inner.clone(),
                },
                (Ty::Guarded { guards, inner }, 0) => {
                    let mut guards = guards.to_vec();
                    guards[0].req = self.req();
                    Ty::guarded(guards, (**inner).clone())
                }
                (Ty::Named { id, args }, 0) if !args.is_empty() => {
                    let mut args = args.to_vec();
                    args[0] = Arg::State(self.state_arg());
                    Ty::named(*id, args)
                }
                (Ty::Int, _) => Ty::Byte,
                _ => self.ty(2),
            };
        }
        *at = at.wrapping_sub(1);
        let mut inner = |t: &Ty| Arc::new(self.perturb_at(t, at));
        match t {
            Ty::Array(x) => Ty::Array(inner(x)),
            Ty::TrackedAnon(x) => Ty::TrackedAnon(inner(x)),
            Ty::Tracked { key, inner: x } => Ty::Tracked {
                key: key.clone(),
                inner: inner(x),
            },
            Ty::Guarded { guards, inner: x } => Ty::Guarded {
                guards: guards.clone(),
                inner: inner(x),
            },
            Ty::Tuple(xs) => Ty::Tuple(xs.iter().map(|x| self.perturb_at(x, at)).collect()),
            Ty::Named { id, args } => Ty::named(
                *id,
                args.iter()
                    .map(|a| match a {
                        Arg::Ty(x) => Arg::Ty(self.perturb_at(x, at)),
                        other => other.clone(),
                    })
                    .collect(),
            ),
            Ty::Fn(sig) => {
                let params = sig.params.iter().map(|p| self.perturb_at(p, at)).collect();
                let ret = self.perturb_at(&sig.ret, at);
                Ty::Fn(Arc::new(FnSig {
                    params,
                    ret,
                    ..(**sig).clone()
                }))
            }
            other => other.clone(),
        }
    }
}

/// How many type nodes `t` has, function parameters and results included.
fn nodes(t: &Ty) -> usize {
    1 + match t {
        Ty::Array(x) | Ty::TrackedAnon(x) => nodes(x),
        Ty::Tracked { inner, .. } | Ty::Guarded { inner, .. } => nodes(inner),
        Ty::Tuple(xs) => xs.iter().map(nodes).sum(),
        Ty::Named { args, .. } => (args.iter())
            .map(|a| match a {
                Arg::Ty(x) => nodes(x),
                _ => 0,
            })
            .sum(),
        Ty::Fn(sig) => sig.params.iter().map(nodes).sum::<usize>() + nodes(&sig.ret),
        _ => 0,
    }
}

/// Values for the declared variables.
#[derive(Clone)]
struct Inst {
    keys: BTreeMap<&'static str, KeyRef>,
    states: BTreeMap<&'static str, StateArg>,
    tys: BTreeMap<&'static str, Ty>,
}

impl Lookup for Inst {
    type Err = Infallible;

    fn get(&self, kind: Kind, var: &str) -> Result<Option<Arg>, Infallible> {
        Ok(match kind {
            Kind::Key => self.keys.get(var).cloned().map(Arg::Key),
            Kind::State => self.states.get(var).cloned().map(Arg::State),
            Kind::Ty => self.tys.get(var).cloned().map(Arg::Ty),
        })
    }
}

/// `t` under `l`.
fn inst(t: &Ty, l: &Inst) -> Ty {
    let Ok(t) = subst::ty(t, l);
    t
}

/// The same instantiation with every concrete key it introduces renamed
/// by `perm`.
fn permuted(l: &Inst, perm: &[u32]) -> Inst {
    let keys = (l.keys.iter())
        .map(|(&v, k)| match k {
            KeyRef::Id(KeyId(i)) => (v, KeyRef::Id(KeyId(perm[*i as usize]))),
            other => (v, other.clone()),
        })
        .collect();
    Inst {
        keys,
        states: l.states.clone(),
        tys: l.tys.clone(),
    }
}

/// Every node kind, state argument kind and effect item kind the
/// generator must reach.
const REACHED: [&str; 19] = [
    "Void",
    "Int",
    "Bool",
    "Byte",
    "Str",
    "Error",
    "Var",
    "Array",
    "Tuple",
    "Tracked",
    "TrackedAnon",
    "Guarded",
    "Named",
    "Fn",
    "StateArg::Val",
    "Keep",
    "Consume",
    "Produce",
    "Fresh",
];

/// A call's unification: two arguments matched in turn into one set of
/// bindings, as a call matches its parameters, agree with the oracle
/// after each (the second runs on whatever the first left, error or not).
/// The second is sometimes instantiated apart from the first, so that
/// bindings conflict.
#[test]
fn unify_agrees_with_the_frozen_walker() {
    let (w, states) = world();
    let mut rng = StdRng::seed_from_u64(0x21F);
    let mut gen = Gen {
        rng: &mut rng,
        states,
        seen: BTreeSet::new(),
    };
    let (mut pairs, mut matched) = (0u64, 0u64);
    while pairs < PAIRS {
        let rename_keys = gen.rng.gen_bool(0.2);
        let l = gen.instantiation(rename_keys);
        let (mut new, mut old) = (Bindings::new(), Bindings::new());
        for arg in 0..2 {
            // A second argument instantiated apart from the first makes
            // the bindings conflict.
            let apart = arg == 1 && gen.rng.gen_bool(0.3);
            let l = if apart {
                gen.instantiation(false)
            } else {
                l.clone()
            };
            let decl = gen.ty(3);
            let mut actual = inst(&decl, &l);
            if gen.rng.gen_bool(0.5) {
                actual = gen.perturb(&actual);
            }
            let got = unify(&decl, &actual, &mut new, &w);
            let want = oracle::unify(&decl, &actual, &mut old, &w);
            let text =
                |r: &Result<(), vault_types::UnifyErr>| r.as_ref().err().map(|e| e.to_string());
            assert_eq!(text(&got), text(&want), "{decl:?} vs {actual:?}");
            assert_eq!(got, want, "{decl:?} vs {actual:?}");
            assert_eq!(new, old, "{decl:?} vs {actual:?}");
            pairs += 1;
            matched += got.is_ok() as u64;
        }
    }
    assert!(matched * 3 >= pairs, "{matched} of {pairs} pairs matched");
    for kind in REACHED {
        assert!(gen.seen.contains(kind), "the generator never made {kind}");
    }
}

/// The join's key renaming: two variables matched in turn through one
/// bijection, as a join matches the variables of its two paths, agree
/// with the oracle's `map`/`rev` after each; then pairing a type's keys
/// with themselves agrees with matching the type against itself.
#[test]
fn the_join_renaming_agrees_with_the_frozen_walker() {
    let (_, states) = world();
    let mut rng = StdRng::seed_from_u64(0x10E);
    let mut gen = Gen {
        rng: &mut rng,
        states,
        seen: BTreeSet::new(),
    };
    let (mut pairs, mut matched) = (0u64, 0u64);
    while pairs < PAIRS {
        let l = gen.instantiation(false);
        let mut perm = vec![0u32, 1, 2, 3];
        for i in (1..perm.len()).rev() {
            perm.swap(i, gen.rng.gen_range(0..=i));
        }
        let lb = permuted(&l, &perm);
        let mut renaming = Bijection::default();
        let (mut map, mut rev) = (BTreeMap::new(), BTreeMap::new());
        for _ in 0..2 {
            let decl = gen.ty(3);
            let a = inst(&decl, &l);
            let mut b = inst(&decl, &lb);
            if gen.rng.gen_bool(0.5) {
                b = gen.perturb(&b);
            }
            let got = subst::zip(&a, &b, &mut renaming);
            let want = oracle::ty_eq_mod_keys(&a, &b, &mut map, &mut rev);
            assert_eq!(got.is_ok(), want, "{a:?} vs {b:?}");
            assert_eq!(
                (&renaming.fwd, &renaming.bwd),
                (&map, &rev),
                "{a:?} vs {b:?}"
            );
            if let Err(Some((x, y))) = got {
                // The reported pair is one the bijection cannot hold.
                assert!(renaming.fwd[&x] != y || renaming.bwd[&y] != x);
            }
            pairs += 1;
            matched += got.is_ok() as u64;
        }
        let t = inst(&gen.ty(3), &lb);
        renaming.pair_itself(&t);
        oracle::ty_eq_mod_keys(&t, &t, &mut map, &mut rev);
        assert_eq!((&renaming.fwd, &renaming.bwd), (&map, &rev), "{t:?}");
    }
    assert!(matched * 3 >= pairs, "{matched} of {pairs} pairs matched");
}
