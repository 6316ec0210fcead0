//! What one function check reads of its unit's declarations.
//!
//! The checker is modular: a body is checked against its own text and
//! the *declared* interface of everything it names. [`Decls`] is the one
//! accessor through which [`crate::check`] reaches the declaration
//! tables — [`Tables`], aliases, qualifiers and base keys — and it
//! records every function name the body looks up. It holds the unit's
//! [`World`] privately and hands out only its [`Tables`], which have no
//! signature lookup, so [`Decls::fn_sig`] is the checker's only way to a
//! signature and no lookup can escape the read set. [`Interface`]
//! fingerprints an elaborated unit, and [`Interface::read_set`] turns the
//! recorded names into a [`ReadSet`] with two parts:
//!
//! * one fingerprint of everything that is not a function signature:
//!   statesets, types, constructors, aliases, global keys, qualifiers and
//!   base keys;
//! * each callee name looked up, with its [`FnSig`] fingerprint or
//!   [`ABSENT`].
//!
//! A function's verdict depends on nothing else, so it stays valid for
//! the same declaration text while [`ReadSet::holds`] in the current
//! unit. Every fingerprint is free of spans and symbol numbers (names are
//! hashed as strings, alias bodies as their printed form), so adding a
//! function above a struct leaves the struct's part unchanged.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use vault_syntax::intern::{fnv1a, FnvHasher};
use vault_types::{FnSig, Interner, KeyGen, Symbol, Tables, World};

use crate::lower::{AliasEntry, LowerCtx};
use crate::Elaborated;

/// The fingerprint recorded for a callee name no declaration defines.
pub const ABSENT: u64 = 0;

/// The key a callee name is recorded under: its FNV-1a hash.
pub fn name_hash(name: &str) -> u64 {
    fnv1a(FnvHasher::default().finish(), name.as_bytes())
}

/// Fingerprint of one signature; never [`ABSENT`].
fn sig_print(sig: &FnSig) -> u64 {
    let mut h = FnvHasher::default();
    sig.hash(&mut h);
    h.finish().max(ABSENT + 1)
}

/// The one accessor a function check reaches its unit's declarations
/// through. Function signatures are looked up only by [`Self::fn_sig`],
/// which records the name; everything else the check reads is covered
/// by the [`Interface`]'s single non-function fingerprint.
pub struct Decls<'a> {
    world: &'a World,
    syms: &'a Interner,
    aliases: &'a BTreeMap<Symbol, AliasEntry>,
    qualifiers: &'a BTreeSet<Symbol>,
    base_keys: &'a KeyGen,
    /// Name hashes of every function looked up, sorted and distinct.
    callees: RefCell<Vec<u64>>,
}

impl<'a> Decls<'a> {
    /// An accessor over explicit tables.
    pub fn new(
        world: &'a World,
        syms: &'a Interner,
        aliases: &'a BTreeMap<Symbol, AliasEntry>,
        qualifiers: &'a BTreeSet<Symbol>,
        base_keys: &'a KeyGen,
    ) -> Self {
        Decls {
            world,
            syms,
            aliases,
            qualifiers,
            base_keys,
            callees: RefCell::new(Vec::new()),
        }
    }

    /// The type, constructor, stateset and global-key tables: everything
    /// but the signatures, which only [`Self::fn_sig`] reaches.
    pub fn tables(&self) -> &'a Tables {
        self.world
    }

    /// The unit's interner.
    pub fn syms(&self) -> &'a Interner {
        self.syms
    }

    /// Names of interfaces and modules, accepted as call qualifiers.
    pub fn qualifiers(&self) -> &'a BTreeSet<Symbol> {
        self.qualifiers
    }

    /// The generator holding the unit's global keys.
    pub fn base_keys(&self) -> &'a KeyGen {
        self.base_keys
    }

    /// A lowering context over these tables.
    pub fn ctx(&self) -> LowerCtx<'a> {
        LowerCtx {
            world: self.world,
            syms: self.syms,
            aliases: self.aliases,
        }
    }

    /// The signature declared under `name`, recording the lookup whether
    /// or not one exists.
    pub fn fn_sig(&self, name: &str) -> Option<&'a FnSig> {
        let h = name_hash(name);
        let mut callees = self.callees.borrow_mut();
        if let Err(i) = callees.binary_search(&h) {
            callees.insert(i, h);
        }
        self.world.fn_sig(name)
    }

    /// The elaborated signature of the function declared once under
    /// `name`, when lowering its declaration again would give the same
    /// signature and report nothing. Not a read: a check that uses it
    /// produces exactly what re-lowering its own declaration would.
    pub fn reusable_sig(&self, name: &str) -> Option<&'a FnSig> {
        self.world.reusable_sig(name)
    }

    /// Every function name looked up so far, as sorted, distinct hashes.
    pub fn callees(&self) -> Vec<u64> {
        self.callees.borrow().clone()
    }
}

/// The fingerprints a [`ReadSet`] is validated against: one for the
/// unit's non-function declarations, one per declared function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interface {
    rest: u64,
    /// `(name hash, signature fingerprint)`, sorted by name hash.
    fns: Vec<(u64, u64)>,
}

impl Interface {
    /// Fingerprint `elaborated`'s declarations.
    pub fn of(elaborated: &Elaborated) -> Self {
        let mut h = FnvHasher::default();
        elaborated.world.hash_tables(&mut h);
        // Aliases and qualifiers by name, not by symbol number.
        let syms = &elaborated.syms;
        let mut aliases: Vec<(&str, &AliasEntry)> = elaborated
            .aliases
            .iter()
            .map(|(name, alias)| (syms.resolve(*name), alias))
            .collect();
        aliases.sort_unstable_by_key(|&(name, _)| name);
        for (name, alias) in aliases {
            name.hash(&mut h);
            alias.params.hash(&mut h);
            vault_syntax::pretty::type_to_string(&alias.body).hash(&mut h);
        }
        let mut qualifiers: Vec<&str> = elaborated
            .qualifiers
            .iter()
            .map(|q| syms.resolve(*q))
            .collect();
        qualifiers.sort_unstable();
        for q in qualifiers {
            q.hash(&mut h);
        }
        elaborated.base_keys.hash(&mut h);
        let mut fns: Vec<(u64, u64)> = elaborated
            .world
            .fns()
            .map(|sig| (name_hash(&sig.name), sig_print(sig)))
            .collect();
        fns.sort_unstable();
        Interface {
            rest: h.finish(),
            fns,
        }
    }

    /// The fingerprint of the signature declared under `name` (a
    /// [`name_hash`]), or [`ABSENT`].
    fn fn_print(&self, name: u64) -> u64 {
        match self.fns.binary_search_by_key(&name, |&(n, _)| n) {
            Ok(i) => self.fns[i].1,
            Err(_) => ABSENT,
        }
    }

    /// The read set of a check that looked up `callees` (see
    /// [`Decls::callees`]) in this unit.
    pub fn read_set(&self, callees: &[u64]) -> ReadSet {
        ReadSet {
            rest: self.rest,
            fns: callees.iter().map(|&n| (n, self.fn_print(n))).collect(),
        }
    }
}

/// What one function check read of its unit's declarations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadSet {
    /// Fingerprint of every declaration table except the signatures.
    pub rest: u64,
    /// `(name hash, signature fingerprint or ABSENT)` per callee looked up.
    pub fns: Box<[(u64, u64)]>,
}

impl ReadSet {
    /// Whether everything this set records still holds in `iface`.
    pub fn holds(&self, iface: &Interface) -> bool {
        self.rest == iface.rest && self.fns.iter().all(|&(n, fp)| iface.fn_print(n) == fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vault_syntax::DiagSink;

    fn interface(src: &str) -> Interface {
        let mut diags = DiagSink::new();
        let program = vault_syntax::parse_program(src, &mut diags);
        let elab = crate::elaborate(&program, &mut diags);
        assert!(diags.diagnostics().is_empty(), "{:?}", diags.diagnostics());
        Interface::of(&elab)
    }

    const BASE: &str = "struct point { int x; int y; }\n\
                        type pt = point;\n\
                        void f(point p) { }\n";

    #[test]
    fn a_function_added_above_a_struct_keeps_every_other_fingerprint() {
        let before = interface(BASE);
        let after = interface(&format!("int g(int zz_new) {{ return zz_new; }}\n{BASE}"));
        assert_eq!(before.rest, after.rest);
        assert_eq!(
            before.fn_print(name_hash("f")),
            after.fn_print(name_hash("f"))
        );
        assert_eq!(before.fn_print(name_hash("g")), ABSENT);
        assert_ne!(after.fn_print(name_hash("g")), ABSENT);
    }

    #[test]
    fn a_signature_edit_changes_only_that_function() {
        let before = interface(BASE);
        let after = interface(&BASE.replace("void f(point p)", "int f(point p)"));
        assert_eq!(before.rest, after.rest);
        assert_ne!(
            before.fn_print(name_hash("f")),
            after.fn_print(name_hash("f"))
        );
        let reads = before.read_set(&[name_hash("f")]);
        assert!(reads.holds(&before));
        assert!(!reads.holds(&after));
    }

    #[test]
    fn a_type_or_alias_edit_changes_the_rest() {
        let base = interface(BASE);
        for edited in [
            BASE.replace("int y;", "int y; int z;"),
            BASE.replace("type pt = point;", "type pt = point[];"),
            format!("struct zz {{ int a; }}\n{BASE}"),
        ] {
            assert_ne!(base.rest, interface(&edited).rest, "{edited}");
        }
    }

    /// The fingerprints of a fixed unit, pinned to the values the
    /// store's format 4 has always computed. Persisted verdicts are
    /// validated against these hashes, so a representation change that
    /// moves one must fail here rather than silently re-check every
    /// stored function.
    #[test]
    fn fingerprints_of_a_fixed_unit_are_pinned() {
        let mut diags = DiagSink::new();
        let program = vault_syntax::parse_program(vault_corpus::FINGERPRINT_UNIT, &mut diags);
        let elab = crate::elaborate(&program, &mut diags);
        assert!(diags.diagnostics().is_empty(), "{:?}", diags.diagnostics());
        let iface = Interface::of(&elab);
        let sigs: Vec<(&str, u64)> = elab
            .world
            .fns()
            .map(|sig| (&*sig.name, sig_print(sig)))
            .collect();
        assert_eq!(
            sigs,
            vec![
                ("IoSetCompletionRoutine", 13597580034610357503),
                ("KeAcquireSpinLock", 3747750003284263765),
                ("KeInitializeSpinLock", 9992393195420007184),
                ("KeReleaseSpinLock", 3007557924305934960),
                ("bind", 1590670903549091385),
                ("bind2", 14833264256381356638),
                ("close", 2306445442658755888),
                ("create", 9200831855721471598),
                ("delete", 2970842772564996817),
                ("read_paged", 12484678015235531847),
                ("regions", 11278621997730334859),
                ("serve", 97757511041863558),
                ("socket", 5857836686657861691),
            ],
            "signature fingerprints"
        );
        let mut fns: Vec<(u64, u64)> = sigs.iter().map(|&(n, fp)| (name_hash(n), fp)).collect();
        fns.sort_unstable();
        assert_eq!(iface.fns, fns);
        assert_eq!(iface.rest, 6493549560536694186, "rest fingerprint");
    }
}
