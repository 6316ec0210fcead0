//! The internal type language (paper Fig. 6) and the declaration tables.
//!
//! Correspondence with the paper:
//!
//! * `tracked(K) T`  →  [`Ty::Tracked`] — the singleton type `s(ρ)`;
//! * `tracked T`     →  [`Ty::TrackedAnon`] — the existential
//!   `∃[ρ | {ρ@τ}]. s(ρ)`;
//! * `C : T`         →  [`Ty::Guarded`] — the guarded type `C ▷ τ`;
//! * function types  →  [`FnSig`] — `(C, σ) → (C′, σ′)` with the pre/post
//!   key sets expressed as a list of [`EffItem`]s over key variables;
//! * variants        →  [`VariantDef`]; constructor-scoped key variables
//!   ([`CtorDef::exist_keys`]) are the existentially bound names that make
//!   collections "anonymizing" (paper §2.4).

use crate::key::{KeyId, KeyRef, Name};
use crate::state::{StateId, StateReq, StateTable, StateVal, StatesetId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, LazyLock};

/// Identifies a named type (struct/variant/abstract) in a [`World`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// An internal type.
///
/// Every heap part is shared: nested types, argument and guard lists and
/// function signatures sit behind [`Arc`]s and names are [`Name`]s, so
/// cloning a type never allocates — the checker clones a variable's type
/// on every read. `Arc<T>` and `Arc<[T]>` hash as `T` and `[T]` (and so
/// as the `Box<T>` and `Vec<T>` they replaced), which keeps every
/// fingerprint over types unchanged.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `void`
    Void,
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `byte`
    Byte,
    /// `string`
    Str,
    /// Placeholder after an error, to suppress cascading diagnostics.
    Error,
    /// An instantiated named type.
    Named {
        /// Which declaration.
        id: TypeId,
        /// Instantiation arguments, matching the declaration's parameters.
        args: Arc<[Arg]>,
    },
    /// `T[]`
    Array(Arc<Ty>),
    /// `(T1, ..., Tn)`
    Tuple(Arc<[Ty]>),
    /// The singleton type `s(ρ)`: a handle to the unique resource named by
    /// the key, remembering the underlying resource type.
    Tracked {
        /// The key (a variable in signatures, concrete during checking).
        key: KeyRef,
        /// The resource type.
        inner: Arc<Ty>,
    },
    /// Anonymous tracked type: `∃[ρ | {ρ@τ}]. s(ρ)`.
    TrackedAnon(Arc<Ty>),
    /// Guarded type `C ▷ τ`: access requires every guard atom to hold.
    Guarded {
        /// The guard conjunction.
        guards: Arc<[GuardAtom]>,
        /// The guarded type.
        inner: Arc<Ty>,
    },
    /// A function type (completion routines, §4.3).
    Fn(Arc<FnSig>),
    /// A type variable from a `<type T>` parameter.
    Var(Name),
}

impl Ty {
    /// Convenience constructor for [`Ty::Tracked`].
    pub fn tracked(key: KeyRef, inner: Ty) -> Ty {
        Ty::Tracked {
            key,
            inner: Arc::new(inner),
        }
    }

    /// Convenience constructor for [`Ty::Guarded`].
    pub fn guarded(guards: Vec<GuardAtom>, inner: Ty) -> Ty {
        Ty::Guarded {
            guards: guards.into(),
            inner: Arc::new(inner),
        }
    }

    /// Convenience constructor for [`Ty::Named`]. Every type without
    /// arguments shares one empty list, so it allocates nothing.
    pub fn named(id: TypeId, args: Vec<Arg>) -> Ty {
        static NO_ARGS: LazyLock<Arc<[Arg]>> = LazyLock::new(|| Arc::from([]));
        let args = if args.is_empty() {
            NO_ARGS.clone()
        } else {
            args.into()
        };
        Ty::Named { id, args }
    }

    /// Whether this is the error type.
    pub fn is_error(&self) -> bool {
        matches!(self, Ty::Error)
    }

    /// Human-readable rendering against a world's tables.
    pub fn display(&self, world: &Tables) -> String {
        match self {
            Ty::Void => "void".into(),
            Ty::Int => "int".into(),
            Ty::Bool => "bool".into(),
            Ty::Byte => "byte".into(),
            Ty::Str => "string".into(),
            Ty::Error => "<error>".into(),
            Ty::Var(v) => v.to_string(),
            Ty::Named { id, args } => {
                let name = world.type_name(*id);
                if args.is_empty() {
                    name.to_string()
                } else {
                    let args: Vec<String> = args.iter().map(|a| a.display(world)).collect();
                    format!("{name}<{}>", args.join(", "))
                }
            }
            Ty::Array(t) => format!("{}[]", t.display(world)),
            Ty::Tuple(ts) => {
                let items: Vec<String> = ts.iter().map(|t| t.display(world)).collect();
                format!("({})", items.join(", "))
            }
            Ty::Tracked { key, inner } => {
                format!("tracked({key}) {}", inner.display(world))
            }
            Ty::TrackedAnon(inner) => format!("tracked {}", inner.display(world)),
            Ty::Guarded { guards, inner } => {
                let gs: Vec<String> = guards.iter().map(|g| g.display(&world.states)).collect();
                format!("{}:{}", gs.join(","), inner.display(world))
            }
            Ty::Fn(sig) => {
                let params: Vec<String> = sig.params.iter().map(|p| p.display(world)).collect();
                format!("{} fn({})", sig.ret.display(world), params.join(", "))
            }
        }
    }
}

/// One atom of a guard conjunction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GuardAtom {
    /// The guarding key.
    pub key: KeyRef,
    /// The state the key must be in.
    pub req: StateReq,
}

impl GuardAtom {
    /// Render for diagnostics.
    pub fn display(&self, states: &StateTable) -> String {
        match &self.req {
            StateReq::Any => format!("{}", self.key),
            StateReq::Exact(s) => format!("{}@{}", self.key, states.state_name(*s)),
            StateReq::AtMost { var, bound } => {
                let v = var.as_deref().unwrap_or("_");
                format!("{}@({} <= {})", self.key, v, states.state_name(*bound))
            }
            StateReq::Var(v) => format!("{}@{}", self.key, v),
        }
    }
}

/// An argument in a named-type instantiation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Arg {
    /// A type argument.
    Ty(Ty),
    /// A key argument.
    Key(KeyRef),
    /// A state argument.
    State(StateArg),
}

impl Arg {
    /// Render for diagnostics.
    pub fn display(&self, world: &Tables) -> String {
        match self {
            Arg::Ty(t) => t.display(world),
            Arg::Key(k) => k.to_string(),
            Arg::State(s) => s.display(&world.states),
        }
    }
}

/// A state argument in a type or effect postcondition.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StateArg {
    /// A concrete state token.
    Token(StateId),
    /// A state variable, resolved during instantiation.
    Var(Name),
    /// An already-instantiated state value (checker-internal).
    Val(StateVal),
}

impl StateArg {
    /// Render for diagnostics.
    pub fn display(&self, states: &StateTable) -> String {
        match self {
            StateArg::Token(t) => states.state_name(*t).to_string(),
            StateArg::Var(v) => v.to_string(),
            StateArg::Val(v) => v.display(states),
        }
    }
}

/// One item of an internal effect clause.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EffItem {
    /// Key held before and after, possibly changing state.
    Keep {
        /// The key.
        key: KeyRef,
        /// Required entry state.
        from: StateReq,
        /// Exit state; `None` keeps the entry state.
        to: Option<StateArg>,
    },
    /// Key held before, consumed.
    Consume {
        /// The key.
        key: KeyRef,
        /// Required entry state.
        from: StateReq,
    },
    /// Key not held before, held after (`[+K]`, e.g. `KeWaitEvent`).
    Produce {
        /// The key.
        key: KeyRef,
        /// State produced in.
        state: StateArg,
    },
    /// A fresh key held on return (`[new K]`).
    Fresh {
        /// The key variable bound in the signature scope.
        var: Name,
        /// State created in.
        state: StateArg,
    },
}

impl EffItem {
    /// The key variable or id this item concerns (fresh items return their
    /// variable as a `KeyRef::Var`).
    pub fn key(&self) -> KeyRef {
        match self {
            EffItem::Keep { key, .. }
            | EffItem::Consume { key, .. }
            | EffItem::Produce { key, .. } => key.clone(),
            EffItem::Fresh { var, .. } => KeyRef::Var(var.clone()),
        }
    }
}

/// An internal function signature: `(C, σ) → (C′, σ′)` with key/state/type
/// polymorphism implicit in the variables it mentions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FnSig {
    /// Function name (for diagnostics).
    pub name: Name,
    /// Parameter types, over key/state/type variables.
    pub params: Vec<Ty>,
    /// Parameter names (if declared).
    pub param_names: Vec<Option<String>>,
    /// Return type.
    pub ret: Ty,
    /// The effect clause.
    pub effect: Vec<EffItem>,
    /// Declared capability set (`uses` items, sorted, deduplicated).
    /// Empty means the function opts out of the capability discipline:
    /// it imposes no requirement on callers and incurs none itself.
    pub caps: Vec<String>,
    /// Declared `<type T>` parameters.
    pub ty_params: Vec<String>,
}

/// Kinds of parameters a named type declares.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// `type T`
    Type(String),
    /// `key K`
    Key(String),
    /// `state S` with optional bound
    State {
        /// The variable name.
        name: String,
        /// Optional inclusive upper bound.
        bound: Option<StateId>,
    },
}

impl ParamKind {
    /// The parameter name.
    pub fn name(&self) -> &str {
        match self {
            ParamKind::Type(n) | ParamKind::Key(n) => n,
            ParamKind::State { name, .. } => name,
        }
    }
}

/// A struct declaration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StructDef {
    /// The struct name.
    pub name: String,
    /// Declared parameters.
    pub params: Vec<ParamKind>,
    /// Fields: name and type (over the parameters).
    pub fields: Vec<(String, Ty)>,
}

/// One constructor of a variant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CtorDef {
    /// Constructor name, without the tick.
    pub name: String,
    /// Existentially bound, constructor-scoped key variables appearing in
    /// `args` (these make collection elements anonymous — paper §2.4).
    pub exist_keys: Vec<Name>,
    /// Argument types, over the variant's parameters plus `exist_keys`.
    pub args: Vec<Ty>,
    /// Captured keys: each names a *key parameter* of the variant together
    /// with the state it is captured/restored in (`'Ok {K@named}`).
    pub captures: Vec<(String, StateReq)>,
}

/// A variant (algebraic data type) declaration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VariantDef {
    /// The variant type name.
    pub name: String,
    /// Declared parameters.
    pub params: Vec<ParamKind>,
    /// Constructors.
    pub ctors: Vec<CtorDef>,
}

impl VariantDef {
    /// Whether values of this variant carry keys and therefore must be
    /// tracked themselves (paper §2.1: "the opt_key type of the flag
    /// variable is itself tracked").
    pub fn is_keyed(&self) -> bool {
        self.ctors.iter().any(|c| {
            !c.captures.is_empty() || !c.exist_keys.is_empty() || c.args.iter().any(ty_carries_keys)
        })
    }

    /// Find a constructor by name.
    pub fn ctor(&self, name: &str) -> Option<(usize, &CtorDef)> {
        self.ctors.iter().enumerate().find(|(_, c)| c.name == name)
    }
}

/// Whether values of this type carry keys with them (tracked values and
/// tuples/arrays containing them).
pub fn ty_carries_keys(t: &Ty) -> bool {
    match t {
        Ty::Tracked { .. } | Ty::TrackedAnon(_) => true,
        Ty::Tuple(ts) => ts.iter().any(ty_carries_keys),
        Ty::Array(inner) => ty_carries_keys(inner),
        _ => false,
    }
}

/// An abstract type declaration (representation private to its module).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AbstractDef {
    /// The type name.
    pub name: String,
    /// Declared parameters.
    pub params: Vec<ParamKind>,
}

/// Any named type declaration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TypeDef {
    /// A struct.
    Struct(StructDef),
    /// A variant.
    Variant(VariantDef),
    /// An abstract type.
    Abstract(AbstractDef),
}

impl TypeDef {
    /// The declared name.
    pub fn name(&self) -> &str {
        match self {
            TypeDef::Struct(s) => &s.name,
            TypeDef::Variant(v) => &v.name,
            TypeDef::Abstract(a) => &a.name,
        }
    }

    /// The declared parameters.
    pub fn params(&self) -> &[ParamKind] {
        match self {
            TypeDef::Struct(s) => &s.params,
            TypeDef::Variant(v) => &v.params,
            TypeDef::Abstract(a) => &a.params,
        }
    }
}

/// A global key declaration (e.g. `IRQL`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GlobalKey {
    /// The key's fixed id.
    pub id: KeyId,
    /// Its stateset.
    pub stateset: StatesetId,
}

/// Every declaration table except the function signatures: statesets,
/// named types, constructors and global keys. What a type, constructor
/// or key resolves against; code that needs no signature takes
/// `&Tables`, and a `&World` coerces to it.
#[derive(Clone, Debug, Default)]
pub struct Tables {
    /// State tokens and statesets.
    pub states: StateTable,
    types: Vec<TypeDef>,
    types_by_name: BTreeMap<String, TypeId>,
    ctors: BTreeMap<String, (TypeId, usize)>,
    globals: BTreeMap<String, GlobalKey>,
}

/// The elaborated program: the declaration [`Tables`] plus the function
/// signatures. It dereferences to its tables; a signature is reachable
/// only through a `World`, so code handed `&Tables` cannot look one up.
#[derive(Clone, Debug, Default)]
pub struct World {
    tables: Tables,
    /// Each signature, with whether it may stand in for lowering its
    /// declaration again (see [`World::reusable_sig`]).
    fns: BTreeMap<String, (FnSig, bool)>,
}

impl std::ops::Deref for World {
    type Target = Tables;

    fn deref(&self) -> &Tables {
        &self.tables
    }
}

impl std::ops::DerefMut for World {
    fn deref_mut(&mut self) -> &mut Tables {
        &mut self.tables
    }
}

impl World {
    /// An empty world with the trivial stateset.
    pub fn new() -> Self {
        World {
            tables: Tables {
                states: StateTable::new(),
                ..Default::default()
            },
            fns: BTreeMap::new(),
        }
    }

    /// Register a function signature. Returns false if the name is taken.
    pub fn add_fn(&mut self, sig: FnSig) -> bool {
        if self.fns.contains_key(&*sig.name) {
            return false;
        }
        self.fns.insert(sig.name.to_string(), (sig, false));
        true
    }

    /// Look up a function signature by (unqualified) name.
    pub fn fn_sig(&self, name: &str) -> Option<&FnSig> {
        self.fns.get(name).map(|(sig, _)| sig)
    }

    /// Record whether the signature registered under `name` may stand in
    /// for lowering its declaration again: true only when that lowering
    /// reported nothing and no other declaration shares the name.
    pub fn set_reusable(&mut self, name: &str, reusable: bool) {
        if let Some((_, flag)) = self.fns.get_mut(name) {
            *flag = reusable;
        }
    }

    /// The signature of the one declaration named `name`, if lowering
    /// that declaration again would give exactly this signature and
    /// report nothing (see [`World::set_reusable`]).
    pub fn reusable_sig(&self, name: &str) -> Option<&FnSig> {
        match self.fns.get(name) {
            Some((sig, true)) => Some(sig),
            _ => None,
        }
    }

    /// Iterate all function signatures.
    pub fn fns(&self) -> impl Iterator<Item = &FnSig> {
        self.fns.values().map(|(sig, _)| sig)
    }
}

impl Tables {
    /// Register a named type. Returns `None` if the name is taken.
    pub fn add_type(&mut self, def: TypeDef) -> Option<TypeId> {
        let name = def.name().to_string();
        if self.types_by_name.contains_key(&name) {
            return None;
        }
        let id = TypeId(self.types.len() as u32);
        if let TypeDef::Variant(v) = &def {
            for (i, c) in v.ctors.iter().enumerate() {
                self.ctors.insert(c.name.clone(), (id, i));
            }
        }
        self.types.push(def);
        self.types_by_name.insert(name, id);
        Some(id)
    }

    /// Replace a previously added type definition (used to patch forward
    /// references during elaboration).
    pub fn replace_type(&mut self, id: TypeId, def: TypeDef) {
        debug_assert_eq!(self.types[id.0 as usize].name(), def.name());
        if let TypeDef::Variant(v) = &def {
            for (i, c) in v.ctors.iter().enumerate() {
                self.ctors.insert(c.name.clone(), (id, i));
            }
        }
        self.types[id.0 as usize] = def;
    }

    /// Look up a type by name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.types_by_name.get(name).copied()
    }

    /// The definition behind an id.
    pub fn typedef(&self, id: TypeId) -> &TypeDef {
        &self.types[id.0 as usize]
    }

    /// The name behind an id.
    pub fn type_name(&self, id: TypeId) -> &str {
        self.types[id.0 as usize].name()
    }

    /// Number of named types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Find a constructor by name: the owning variant and ctor index.
    pub fn ctor(&self, name: &str) -> Option<(TypeId, usize)> {
        self.ctors.get(name).copied()
    }

    /// Register a global key.
    pub fn add_global_key(&mut self, name: &str, key: GlobalKey) -> bool {
        if self.globals.contains_key(name) {
            return false;
        }
        self.globals.insert(name.to_string(), key);
        true
    }

    /// Look up a global key by name.
    pub fn global_key(&self, name: &str) -> Option<&GlobalKey> {
        self.globals.get(name)
    }

    /// Iterate over global keys.
    pub fn global_keys(&self) -> impl Iterator<Item = (&str, &GlobalKey)> {
        self.globals.iter().map(|(n, g)| (n.as_str(), g))
    }

    /// Reverse lookup: the name of a global key id, if it is one.
    pub fn global_key_name(&self, id: KeyId) -> Option<&str> {
        self.globals
            .iter()
            .find(|(_, g)| g.id == id)
            .map(|(n, _)| n.as_str())
    }

    /// Feed every table into `h`: statesets, types, constructors and
    /// global keys. Nothing here
    /// holds a span or a symbol number, so two worlds that agree on
    /// these tables hash alike however their declarations are laid out.
    pub fn hash_tables<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.states.hash(h);
        self.types.hash(h);
        self.ctors.hash(h);
        self.globals.hash(h);
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_world() -> World {
        let mut w = World::new();
        w.add_type(TypeDef::Abstract(AbstractDef {
            name: "region".into(),
            params: vec![],
        }))
        .unwrap();
        w.add_type(TypeDef::Struct(StructDef {
            name: "point".into(),
            params: vec![],
            fields: vec![("x".into(), Ty::Int), ("y".into(), Ty::Int)],
        }))
        .unwrap();
        w.add_type(TypeDef::Variant(VariantDef {
            name: "opt_key".into(),
            params: vec![ParamKind::Key("K".into())],
            ctors: vec![
                CtorDef {
                    name: "NoKey".into(),
                    exist_keys: vec![],
                    args: vec![],
                    captures: vec![],
                },
                CtorDef {
                    name: "SomeKey".into(),
                    exist_keys: vec![],
                    args: vec![],
                    captures: vec![("K".into(), StateReq::Any)],
                },
            ],
        }))
        .unwrap();
        w
    }

    #[test]
    fn type_registration_and_lookup() {
        let w = sample_world();
        let region = w.type_id("region").unwrap();
        assert_eq!(w.type_name(region), "region");
        assert!(w.type_id("nope").is_none());
        assert_eq!(w.type_count(), 3);
    }

    #[test]
    fn duplicate_type_rejected() {
        let mut w = sample_world();
        assert!(w
            .add_type(TypeDef::Abstract(AbstractDef {
                name: "region".into(),
                params: vec![],
            }))
            .is_none());
    }

    #[test]
    fn ctor_lookup_finds_variant() {
        let w = sample_world();
        let (vid, idx) = w.ctor("SomeKey").unwrap();
        assert_eq!(w.type_name(vid), "opt_key");
        assert_eq!(idx, 1);
        assert!(w.ctor("Bogus").is_none());
    }

    #[test]
    fn keyed_variant_detection() {
        let w = sample_world();
        let TypeDef::Variant(v) = w.typedef(w.type_id("opt_key").unwrap()) else {
            panic!()
        };
        assert!(v.is_keyed());
        let plain = VariantDef {
            name: "domain".into(),
            params: vec![],
            ctors: vec![
                CtorDef {
                    name: "UNIX".into(),
                    exist_keys: vec![],
                    args: vec![],
                    captures: vec![],
                },
                CtorDef {
                    name: "INET".into(),
                    exist_keys: vec![],
                    args: vec![],
                    captures: vec![],
                },
            ],
        };
        assert!(!plain.is_keyed());
        let anon_carrying = VariantDef {
            name: "reglist".into(),
            params: vec![],
            ctors: vec![CtorDef {
                name: "Cons".into(),
                exist_keys: vec![],
                args: vec![Ty::TrackedAnon(Arc::new(Ty::Var("r".into())))],
                captures: vec![],
            }],
        };
        assert!(anon_carrying.is_keyed());
    }

    #[test]
    fn display_formats() {
        let w = sample_world();
        let point = w.type_id("point").unwrap();
        let t = Ty::tracked(KeyRef::var("R"), Ty::named(point, vec![]));
        assert_eq!(t.display(&w), "tracked(R) point");
        let g = Ty::guarded(
            vec![GuardAtom {
                key: KeyRef::var("R"),
                req: StateReq::Any,
            }],
            Ty::Int,
        );
        assert_eq!(g.display(&w), "R:int");
    }

    #[test]
    fn global_keys_roundtrip() {
        let mut w = sample_world();
        assert!(w.add_global_key(
            "IRQL",
            GlobalKey {
                id: KeyId(100),
                stateset: StateTable::DEFAULT_SET,
            }
        ));
        assert!(!w.add_global_key(
            "IRQL",
            GlobalKey {
                id: KeyId(101),
                stateset: StateTable::DEFAULT_SET,
            }
        ));
        assert_eq!(w.global_key("IRQL").unwrap().id, KeyId(100));
        assert_eq!(w.global_key_name(KeyId(100)), Some("IRQL"));
        assert_eq!(w.global_key_name(KeyId(5)), None);
    }

    #[test]
    fn fn_registration() {
        let mut w = sample_world();
        let sig = FnSig {
            name: "create".into(),
            params: vec![],
            param_names: vec![],
            ret: Ty::Void,
            effect: vec![],
            caps: vec![],
            ty_params: vec![],
        };
        assert!(w.add_fn(sig.clone()));
        assert!(!w.add_fn(sig));
        assert!(w.fn_sig("create").is_some());
        assert_eq!(w.fns().count(), 1);
    }
}
