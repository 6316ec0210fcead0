//! Property tests of the core algebraic invariants: key linearity in
//! held-key sets, stateset partial-order laws, the bijectivity of the
//! join-point key abstraction, and the laws of the one substitution and
//! variable walk over types ([`vault_types::subst`]).
//!
//! Every property runs over a fixed set of seeds of the workspace `rand`
//! generator, so a failure names the seed that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vault_types::subst::{self, Mention, Params};
use vault_types::{
    AbstractDef, Arg, Bijection, EffItem, FnSig, GuardAtom, HeldErr, HeldSet, KeyId, KeyRef, Name,
    ParamKind, StateArg, StateId, StateReq, StateTable, StateVal, Ty, TypeDef, TypeId, World,
};

/// Run `property` once per seed in `0..cases`.
fn for_seeds(cases: u64, mut property: impl FnMut(u64, &mut StdRng)) {
    for seed in 0..cases {
        property(seed, &mut StdRng::seed_from_u64(seed));
    }
}

fn key(rng: &mut StdRng) -> KeyId {
    KeyId(rng.gen_range(0u32..32))
}

fn state(rng: &mut StdRng) -> StateVal {
    if rng.gen_bool(0.5) {
        StateVal::Token(StateId(rng.gen_range(0u32..4)))
    } else {
        StateVal::Abs {
            id: rng.gen_range(0u32..8),
            bound: None,
        }
    }
}

/// Keys are linear: after a successful insert, a second insert of the
/// same key always fails and leaves the set unchanged.
#[test]
fn held_set_never_duplicates() {
    for_seeds(256, |seed, rng| {
        let mut held = HeldSet::new();
        let mut model: BTreeMap<KeyId, StateVal> = BTreeMap::new();
        for _ in 0..rng.gen_range(1usize..64) {
            let (k, s) = (key(rng), state(rng));
            if rng.gen_bool(0.5) {
                match held.insert(k, s) {
                    Ok(()) => {
                        assert!(!model.contains_key(&k), "seed {seed}");
                        model.insert(k, s);
                    }
                    Err(HeldErr::Duplicate(d)) => {
                        assert_eq!(d, k, "seed {seed}");
                        assert!(model.contains_key(&k), "seed {seed}");
                    }
                    Err(e) => panic!("seed {seed}: unexpected {e:?}"),
                }
            } else {
                match held.remove(k) {
                    Ok(prev) => assert_eq!(model.remove(&k), Some(prev), "seed {seed}"),
                    Err(HeldErr::NotHeld(d)) => {
                        assert_eq!(d, k, "seed {seed}");
                        assert!(!model.contains_key(&k), "seed {seed}");
                    }
                    Err(e) => panic!("seed {seed}: unexpected {e:?}"),
                }
            }
            // The set always mirrors the model exactly.
            assert_eq!(held.len(), model.len(), "seed {seed}");
            for (&mk, &ms) in &model {
                assert_eq!(held.get(mk), Some(ms), "seed {seed}");
            }
        }
    });
}

/// Renaming with an injective map preserves cardinality and states.
#[test]
fn held_set_rename_preserves_states() {
    for_seeds(256, |seed, rng| {
        let keys: BTreeSet<u32> = (0..rng.gen_range(1usize..10))
            .map(|_| rng.gen_range(0u32..16))
            .collect();
        let offset = rng.gen_range(100u32..200);
        let mut held = HeldSet::new();
        for &k in &keys {
            held.insert(KeyId(k), StateVal::Token(StateId(k % 3)))
                .unwrap();
        }
        // Injective rename: shift everything by a constant.
        let map: BTreeMap<KeyId, KeyId> = keys
            .iter()
            .map(|&k| (KeyId(k), KeyId(k + offset)))
            .collect();
        let renamed = held.rename(&map).unwrap();
        assert_eq!(renamed.len(), held.len(), "seed {seed}");
        for &k in &keys {
            assert_eq!(
                renamed.get(KeyId(k + offset)),
                held.get(KeyId(k)),
                "seed {seed}"
            );
        }
    });
}

/// Stateset chains form a partial order: reflexive, transitive, and
/// antisymmetric — and, being chains, total.
#[test]
fn stateset_chain_is_partial_order() {
    for_seeds(256, |seed, rng| {
        let len = rng.gen_range(2usize..8);
        let mut t = StateTable::new();
        let set = t.begin_stateset("S");
        let ids: Vec<StateId> = (0..len)
            .map(|i| t.add_state(set, &format!("s{i}")).unwrap())
            .collect();
        for w in ids.windows(2) {
            t.add_lt(w[0], w[1]);
        }
        t.finish_stateset(set).unwrap();
        let mut pick = || ids[rng.gen_range(0usize..8) % len];
        let (a, b, c) = (pick(), pick(), pick());
        assert!(t.le(a, a), "seed {seed}: reflexivity");
        if t.le(a, b) && t.le(b, a) {
            assert_eq!(a, b, "seed {seed}: antisymmetry");
        }
        if t.le(a, b) && t.le(b, c) {
            assert!(t.le(a, c), "seed {seed}: transitivity");
        }
        assert!(t.le(a, b) || t.le(b, a), "seed {seed}: totality");
    });
}

/// The join abstraction is symmetric: if A's types match B's under a
/// bijection, B's match A's.
#[test]
fn join_renaming_is_symmetric() {
    let mut w = World::new();
    let region = w
        .add_type(TypeDef::Abstract(AbstractDef {
            name: "region".into(),
            params: vec![],
        }))
        .unwrap();
    for_seeds(256, |seed, rng| {
        // Small key ranges make both consistent and clashing pairs likely.
        let mut k = || KeyId(rng.gen_range(0u32..3));
        let pair = |tracks: KeyId, guards: KeyId| {
            Ty::Tuple(Arc::from(vec![
                Ty::tracked(KeyRef::Id(tracks), Ty::named(region, vec![])),
                Ty::guarded(
                    vec![GuardAtom {
                        key: KeyRef::Id(guards),
                        req: StateReq::Any,
                    }],
                    Ty::Int,
                ),
            ]))
        };
        let (a, b) = (pair(k(), k()), pair(k(), k()));
        let (mut ab, mut ba) = (Bijection::default(), Bijection::default());
        let forward = subst::zip(&a, &b, &mut ab).is_ok();
        assert_eq!(forward, subst::zip(&b, &a, &mut ba).is_ok(), "seed {seed}");
        if forward {
            // The two renamings are each other's inverse.
            assert_eq!((&ab.fwd, &ab.bwd), (&ba.bwd, &ba.fwd), "seed {seed}");
        }
    });
}

// ---------------------------------------------------------------------
// The substitution and the variable walk
// ---------------------------------------------------------------------

const KEY_VARS: [&str; 4] = ["K", "L", "M", "N"];

fn key_ref(rng: &mut StdRng) -> KeyRef {
    if rng.gen_bool(0.7) {
        KeyRef::var(KEY_VARS[rng.gen_range(0usize..KEY_VARS.len())])
    } else {
        KeyRef::Id(key(rng))
    }
}

fn state_req(rng: &mut StdRng) -> StateReq {
    match rng.gen_range(0u8..4) {
        0 => StateReq::Any,
        1 => StateReq::Exact(StateId(rng.gen_range(0u32..4))),
        2 => StateReq::Var("S".into()),
        _ => StateReq::AtMost {
            var: Some("B".into()),
            bound: StateId(rng.gen_range(0u32..4)),
        },
    }
}

fn state_arg(rng: &mut StdRng) -> StateArg {
    if rng.gen_bool(0.5) {
        StateArg::Var("S".into())
    } else {
        StateArg::Token(StateId(rng.gen_range(0u32..4)))
    }
}

/// A random type over the key variables `K`..`N`, the state variables `S`
/// and `B`, and the type variable `T`, reaching every node kind.
fn random_ty(rng: &mut StdRng, depth: u32) -> Ty {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    match if leaf {
        rng.gen_range(0u8..3)
    } else {
        rng.gen_range(3u8..10)
    } {
        0 => Ty::Int,
        1 => Ty::Var("T".into()),
        2 => Ty::Str,
        3 => Ty::Array(Arc::new(random_ty(rng, depth - 1))),
        4 => Ty::Tuple(
            (0..rng.gen_range(0usize..3))
                .map(|_| random_ty(rng, depth - 1))
                .collect(),
        ),
        5 => Ty::tracked(key_ref(rng), random_ty(rng, depth - 1)),
        6 => Ty::TrackedAnon(Arc::new(random_ty(rng, depth - 1))),
        7 => Ty::guarded(
            (0..rng.gen_range(1usize..3))
                .map(|_| GuardAtom {
                    key: key_ref(rng),
                    req: state_req(rng),
                })
                .collect(),
            random_ty(rng, depth - 1),
        ),
        8 => Ty::named(
            TypeId(0),
            (0..rng.gen_range(1usize..4))
                .map(|_| match rng.gen_range(0u8..3) {
                    0 => Arg::Ty(random_ty(rng, depth - 1)),
                    1 => Arg::Key(key_ref(rng)),
                    _ => Arg::State(state_arg(rng)),
                })
                .collect(),
        ),
        _ => Ty::Fn(Arc::new(FnSig {
            name: "<fn>".into(),
            params: vec![random_ty(rng, depth - 1)],
            param_names: vec![None],
            ret: random_ty(rng, depth - 1),
            effect: vec![EffItem::Keep {
                key: key_ref(rng),
                from: state_req(rng),
                to: Some(state_arg(rng)),
            }],
            caps: vec![],
            ty_params: vec![],
        })),
    }
}

/// A lookup that binds nothing changes nothing, and shares every node:
/// the rewritten type holds the very node it was given.
#[test]
fn a_lookup_binding_nothing_shares_the_input() {
    let unrelated = [ParamKind::Key("Z".into()), ParamKind::Type("U".into())];
    let args = [Arg::Key(KeyRef::Id(KeyId(99))), Arg::Ty(Ty::Bool)];
    for_seeds(512, |seed, rng| {
        let inner = Arc::new(random_ty(rng, 4));
        let t = Ty::Array(inner.clone());
        for lookup in [Params(&[], &[] as &[Arg]), Params(&unrelated, &args)] {
            let Ok(got) = subst::ty(&t, &lookup);
            let Ty::Array(got) = got else {
                panic!("seed {seed}: the node kind changed")
            };
            assert!(Arc::ptr_eq(&got, &inner), "seed {seed}: {t:?}");
        }
    });
}

fn key_vars(t: &Ty) -> BTreeSet<Name> {
    subst::key_vars([t]).into_iter().cloned().collect()
}

/// Substituting concrete keys for a set S of key variables removes
/// exactly S from the key variables the walk reports.
#[test]
fn substituting_keys_removes_exactly_them_from_the_walk() {
    for_seeds(512, |seed, rng| {
        let t = random_ty(rng, 4);
        let bound: Vec<&str> = KEY_VARS
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let params: Vec<ParamKind> = bound
            .iter()
            .map(|v| ParamKind::Key(v.to_string()))
            .collect();
        let args: Vec<Arg> = (0..bound.len())
            .map(|i| Arg::Key(KeyRef::Id(KeyId(100 + i as u32))))
            .collect();
        let lookup = Params(&params, &args);
        let Ok(after) = subst::ty(&t, &lookup);
        let mut want = key_vars(&t);
        want.retain(|v| !bound.contains(&&**v));
        assert_eq!(key_vars(&after), want, "seed {seed}: {t:?}");
    });
}

/// The walk reports every concrete key: the key of a tracked type, a
/// guard's key and a key argument of a named type.
#[test]
fn the_walk_reports_concrete_keys_at_every_position() {
    let point = TypeId(1);
    let t = Ty::Tuple(Arc::from(vec![
        Ty::tracked(KeyRef::Id(KeyId(1)), Ty::named(point, vec![])),
        Ty::guarded(
            vec![GuardAtom {
                key: KeyRef::Id(KeyId(2)),
                req: StateReq::Any,
            }],
            Ty::Int,
        ),
        Ty::named(point, vec![Arg::Key(KeyRef::Id(KeyId(3)))]),
    ]));
    let mut keys = Vec::new();
    subst::visit_ty(&t, &mut |m| {
        if let Mention::Key(KeyRef::Id(k), _) = m {
            keys.push(*k);
        }
    });
    assert_eq!(keys, vec![KeyId(1), KeyId(2), KeyId(3)]);
}
