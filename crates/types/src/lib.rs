//! # vault-types
//!
//! The internal type language of the Vault reproduction (paper Fig. 6,
//! *Enforcing High-Level Protocols in Low-Level Software*, DeLine &
//! Fähndrich, PLDI 2001), together with the held-key set that the checker
//! propagates through each function's control-flow graph.
//!
//! Main pieces:
//!
//! * [`StateTable`] / [`StateVal`] / [`StateReq`] — key states and
//!   statesets (declared partial orders, §4.4);
//! * [`KeyId`] / [`KeyRef`] / [`KeyGen`] — linear compile-time keys;
//! * [`HeldSet`] — the held-key set with linearity-enforcing operations;
//! * [`Ty`] / [`FnSig`] / [`World`] — singleton, guarded, existential,
//!   and function types plus the declaration tables;
//! * [`unify()`] / [`Bijection`] — call-site matching and the
//!   join-point key abstraction, two matchers over one pair walk;
//! * [`subst`] — the one substitution, the one variable walk and the one
//!   pair walk ([`subst::zip`]) over types and effects, through which
//!   every instantiation and every matching goes.
//!
//! ## Example
//!
//! ```
//! use vault_types::{HeldSet, HeldErr, KeyId, StateVal};
//!
//! let mut held = HeldSet::new();
//! held.insert(KeyId(0), StateVal::DEFAULT)?;
//! // Keys are linear: a second insert is the double-acquire error.
//! assert_eq!(
//!     held.insert(KeyId(0), StateVal::DEFAULT),
//!     Err(HeldErr::Duplicate(KeyId(0))),
//! );
//! # Ok::<(), vault_types::HeldErr>(())
//! ```

#![warn(missing_docs)]

pub mod heldset;
pub mod key;
pub mod state;
pub mod subst;
pub mod ty;
pub mod unify;

pub use heldset::{HeldErr, HeldSet};
// Interning moved into `vault-syntax` so the lexer can intern at lex
// time (the zero-copy front end); re-exported here so the checker's
// existing `vault_types::{Interner, Symbol}` imports keep working.
pub use key::{KeyGen, KeyId, KeyInfo, KeyOrigin, KeyRef, Name, Resource};
pub use state::{StateId, StateReq, StateTable, StateVal, StatesetError, StatesetId};
pub use ty::{
    AbstractDef, Arg, CtorDef, EffItem, FnSig, GlobalKey, GuardAtom, ParamKind, StateArg,
    StructDef, Tables, Ty, TypeDef, TypeId, VariantDef, World,
};
pub use unify::{unify, Bijection, Bindings, UnifyErr};
pub use vault_syntax::intern::{FnvBuildHasher, Interner, Symbol};
