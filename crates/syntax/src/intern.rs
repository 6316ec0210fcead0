//! Symbol interning for the front end and the checker's hot maps.
//!
//! The checker used to key every environment map (`Frame`, `keyenv`,
//! `statevars`, …) by `String`: every lookup was a byte-wise compare
//! and every snapshot cloned the key text. A [`Symbol`] is a `u32`
//! handle into a per-unit [`Interner`], so comparisons are integer ops
//! and map keys are `Copy`.
//!
//! Since the zero-copy front end the interner also serves the lexer:
//! identifiers are interned *at lex time* (one shared [`IStr`] per
//! distinct name instead of one `String` per occurrence), in first-seen
//! order, and that numbering is final. After the parse the interner is
//! shared (`Arc`) by the parser, elaboration and the checker. A copy of
//! it can still grow: the incremental engine lexes an edited
//! declaration into a cached unit's interner, which is copied on the
//! first name the unit lacked and numbers it past the end.
//!
//! ## No output depends on symbol numbering
//!
//! A unit's symbols are numbered in whatever order its names were first
//! lexed, so the same name gets different numbers in different texts.
//! Nothing a check reports or fingerprints may depend on that order:
//! every iteration over a `Symbol`-keyed map whose order can reach a
//! diagnostic, a fingerprint or generated C goes by name instead.
//! These sites iterate by name:
//!
//! * the join (`vault_core::flow::merge`), which correlates keys and
//!   lists problems and poisoned variables frame by frame;
//! * a variant constructor's existential keys
//!   (`vault_core::elaborate`), stored in the constructor table that
//!   the unit's fingerprint hashes;
//! * the aliases and qualifiers that `vault_core::interface::Interface`
//!   hashes.
//!
//! Every other `Symbol`-keyed map is only looked up, or is copied into a
//! map keyed by name before it is read in order.
//!
//! Names that were never interned (e.g. a reference to an undeclared
//! variable) resolve to [`Symbol::UNKNOWN`]. That is sound for lookups
//! (no map ever contains `UNKNOWN`) but would be a collision hazard for
//! inserts, so insert paths only ever use identifiers that came from
//! the unit's own AST — exactly a subset of what the interner holds.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// An interned identifier: a dense `u32` in first-seen order. Its
/// ordering says nothing about the names (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The sentinel for names absent from the interner. Never stored in
    /// any map; compares greater than every real symbol.
    pub const UNKNOWN: Symbol = Symbol(u32::MAX);

    /// Dense index of this symbol (unusable for `UNKNOWN`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == Symbol::UNKNOWN {
            write!(f, "Symbol(<unknown>)")
        } else {
            write!(f, "Symbol({})", self.0)
        }
    }
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes, and the state
/// every fresh [`fnv1a`] chain starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running 64-bit FNV-1a state `h` (start from
/// [`FNV_OFFSET`]). FNV-1a is the workspace's one content hash: every
/// fingerprint the project planner and the daemon compute is a chain of
/// these folds.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a`] as a `std::hash::Hasher` (no external hasher crates;
/// identifiers are short, where FNV shines).
#[derive(Default)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        if self.0 == 0 {
            FNV_OFFSET
        } else {
            self.0
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.finish(), bytes);
    }
}

/// `BuildHasher` plugging [`FnvHasher`] into `std::collections::HashMap`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// An immutable, cheaply cloneable interned string (a shared
/// `Arc<str>`). The AST keeps one per identifier so diagnostics and the
/// pretty-printer still read `.name` as text, while cloning an [`IStr`]
/// is a refcount bump instead of a heap copy.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IStr(Arc<str>);

impl IStr {
    /// The underlying text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        IStr(Arc::from(s))
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        IStr(Arc::from(s))
    }
}

impl From<Arc<str>> for IStr {
    fn from(s: Arc<str>) -> Self {
        IStr(s)
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<IStr> for String {
    fn eq(&self, other: &IStr) -> bool {
        self.as_str() == &*other.0
    }
}

impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == &*other.0
    }
}

impl PartialEq<IStr> for &str {
    fn eq(&self, other: &IStr) -> bool {
        *self == &*other.0
    }
}

impl std::fmt::Display for IStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::fmt::Debug for IStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", &*self.0)
    }
}

/// A per-unit string interner, numbering names in first-seen order
/// (see module docs).
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<Arc<str>>,
    map: HashMap<Arc<str>, u32, FnvBuildHasher>,
}

impl Interner {
    /// An empty, growable interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `name`, numbering it past the end if it is new.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.map.get(name) {
            return Symbol(id);
        }
        let id = self.names.len() as u32;
        let arc: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&arc));
        self.map.insert(arc, id);
        Symbol(id)
    }

    /// The symbol for `name`, or [`Symbol::UNKNOWN`] if it was never
    /// interned.
    pub fn sym(&self, name: &str) -> Symbol {
        match self.map.get(name) {
            Some(&id) => Symbol(id),
            None => Symbol::UNKNOWN,
        }
    }

    /// The string a symbol stands for (`"<unknown>"` for the sentinel).
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.names.get(sym.0 as usize).map_or("<unknown>", |n| n)
    }

    /// The shared text of a symbol — a refcount bump, not a copy
    /// (`"<unknown>"` is allocated fresh for the sentinel).
    pub fn resolve_istr(&self, sym: Symbol) -> IStr {
        match self.names.get(sym.0 as usize) {
            Some(n) => IStr(Arc::clone(n)),
            None => IStr::from("<unknown>"),
        }
    }

    /// Every interned name, in symbol order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| &**n)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interner(names: &[&str]) -> Interner {
        let mut i = Interner::new();
        for name in names {
            i.intern(name);
        }
        i
    }

    #[test]
    fn symbols_are_numbered_in_first_seen_order() {
        let mut i = Interner::new();
        let zulu = i.intern("zulu");
        let alpha = i.intern("alpha");
        assert_eq!(i.intern("zulu"), zulu, "re-interning is stable");
        assert_eq!((zulu.index(), alpha.index()), (0, 1));
        assert!(i.names().eq(["zulu", "alpha"]));
        assert!(alpha < Symbol::UNKNOWN);
    }

    #[test]
    fn unknown_names_resolve_to_sentinel() {
        let i = interner(&["x"]);
        assert_eq!(i.sym("y"), Symbol::UNKNOWN);
        assert_eq!(i.resolve(Symbol::UNKNOWN), "<unknown>");
        assert_eq!(i.resolve(i.sym("x")), "x");
    }

    #[test]
    fn duplicates_are_collapsed() {
        let i = interner(&["b", "a", "b"]);
        assert_eq!(i.len(), 2);
        assert_eq!(i.sym("b").index(), 0);
        assert_eq!(i.sym("a").index(), 1);
    }

    #[test]
    fn a_copy_numbers_new_names_past_the_end() {
        let base = interner(&["mike", "alpha"]);
        let mut copy = base.clone();
        let zulu = copy.intern("zulu");
        assert_eq!(zulu.index(), 2);
        assert_eq!(copy.sym("alpha"), base.sym("alpha"));
        assert_eq!(
            base.sym("zulu"),
            Symbol::UNKNOWN,
            "the original is untouched"
        );
    }

    #[test]
    fn istr_round_trips_and_compares_with_str() {
        let mut i = Interner::new();
        let s = i.intern("hello");
        let text = i.resolve_istr(s);
        assert_eq!(text, "hello");
        assert_eq!("hello", text);
        assert_eq!(text.as_str(), "hello");
        assert_eq!(text.to_string(), "hello");
        assert_eq!(i.resolve_istr(Symbol::UNKNOWN), "<unknown>");
    }

    #[test]
    fn fnv_hasher_matches_reference_vectors() {
        fn hash(bytes: &[u8]) -> u64 {
            let mut h = FnvHasher::default();
            h.write(bytes);
            h.finish()
        }
        // Standard FNV-1a test vectors.
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x85944171f73967e8);
    }
}
