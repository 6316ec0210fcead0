//! The held-key set — the checker's abstraction of the computation's
//! global state at each program point (paper §2.1).
//!
//! A held-key set maps each held key to its current local state. The
//! operations enforce linearity: inserting a key that is already present
//! fails ([`HeldErr::Duplicate`] — the double-acquire error of §4.2), and
//! removing an absent key fails ([`HeldErr::NotHeld`]).

use crate::key::KeyId;
use crate::state::StateVal;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors from held-key-set operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeldErr {
    /// The key is already in the set; keys are linear and cannot be
    /// duplicated.
    Duplicate(KeyId),
    /// The key is not in the set.
    NotHeld(KeyId),
}

impl fmt::Display for HeldErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeldErr::Duplicate(k) => write!(f, "key {k} is already in the held-key set"),
            HeldErr::NotHeld(k) => write!(f, "key {k} is not in the held-key set"),
        }
    }
}

impl std::error::Error for HeldErr {}

/// The held-key set at one program point.
///
/// A vector sorted by key, shared copy-on-write: the checker snapshots
/// the set at every branch, loop iteration and switch arm, so a clone is
/// a reference-count bump, and the first change to a shared set copies
/// it in one allocation where a B-tree's copy takes one per node. Sets
/// hold tens of keys, so the linear inserts cost less than tree walks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeldSet {
    entries: Arc<Vec<(KeyId, StateVal)>>,
}

impl HeldSet {
    /// The empty held-key set.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, key: KeyId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Add a key in the given state. Errors if the key is already held.
    pub fn insert(&mut self, key: KeyId, state: StateVal) -> Result<(), HeldErr> {
        match self.find(key) {
            Ok(_) => Err(HeldErr::Duplicate(key)),
            Err(at) => {
                Arc::make_mut(&mut self.entries).insert(at, (key, state));
                Ok(())
            }
        }
    }

    /// Remove a key. Errors if it is not held.
    pub fn remove(&mut self, key: KeyId) -> Result<StateVal, HeldErr> {
        match self.find(key) {
            Ok(at) => Ok(Arc::make_mut(&mut self.entries).remove(at).1),
            Err(_) => Err(HeldErr::NotHeld(key)),
        }
    }

    /// Current state of a held key.
    pub fn get(&self, key: KeyId) -> Option<StateVal> {
        self.find(key).ok().map(|at| self.entries[at].1)
    }

    /// Whether the key is held.
    pub fn holds(&self, key: KeyId) -> bool {
        self.find(key).is_ok()
    }

    /// Change the state of a held key. Errors if it is not held.
    pub fn set_state(&mut self, key: KeyId, state: StateVal) -> Result<(), HeldErr> {
        match self.find(key) {
            Ok(at) => {
                if self.entries[at].1 != state {
                    Arc::make_mut(&mut self.entries)[at].1 = state;
                }
                Ok(())
            }
            Err(_) => Err(HeldErr::NotHeld(key)),
        }
    }

    /// Iterate over `(key, state)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyId, StateVal)> + '_ {
        self.entries.iter().copied()
    }

    /// All held keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = KeyId> + '_ {
        self.entries.iter().map(|&(k, _)| k)
    }

    /// Number of held keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Apply a key renaming. Keys not in `rename` keep their ids. Errors
    /// with [`HeldErr::Duplicate`] if the renaming would merge two keys —
    /// renamings must be injective on the held set.
    pub fn rename(&self, rename: &BTreeMap<KeyId, KeyId>) -> Result<HeldSet, HeldErr> {
        let mut out = HeldSet {
            entries: Arc::new(Vec::with_capacity(self.len())),
        };
        for (k, s) in self.iter() {
            let nk = rename.get(&k).copied().unwrap_or(k);
            out.insert(nk, s)?;
        }
        Ok(out)
    }

    /// Render for diagnostics, e.g. `{k0@open, k3}`.
    pub fn display(&self, states: &crate::state::StateTable) -> String {
        let items: Vec<String> = self
            .iter()
            .map(|(k, s)| {
                if s == StateVal::DEFAULT {
                    format!("{k}")
                } else {
                    format!("{k}@{}", s.display(states))
                }
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

impl FromIterator<(KeyId, StateVal)> for HeldSet {
    fn from_iter<T: IntoIterator<Item = (KeyId, StateVal)>>(iter: T) -> Self {
        let mut s = HeldSet::new();
        for (k, v) in iter {
            // FromIterator is used for test fixtures; last write wins.
            let found = s.find(k);
            let entries = Arc::make_mut(&mut s.entries);
            match found {
                Ok(at) => entries[at].1 = v,
                Err(at) => entries.insert(at, (k, v)),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{StateId, StateTable};

    const S1: StateVal = StateVal::Token(StateId(1));

    #[test]
    fn insert_remove_roundtrip() {
        let mut h = HeldSet::new();
        h.insert(KeyId(0), StateVal::DEFAULT).unwrap();
        assert!(h.holds(KeyId(0)));
        assert_eq!(h.remove(KeyId(0)), Ok(StateVal::DEFAULT));
        assert!(!h.holds(KeyId(0)));
        assert!(h.is_empty());
    }

    #[test]
    fn duplicate_insert_fails() {
        let mut h = HeldSet::new();
        h.insert(KeyId(1), StateVal::DEFAULT).unwrap();
        assert_eq!(h.insert(KeyId(1), S1), Err(HeldErr::Duplicate(KeyId(1))));
        // Original state is preserved.
        assert_eq!(h.get(KeyId(1)), Some(StateVal::DEFAULT));
    }

    #[test]
    fn remove_absent_fails() {
        let mut h = HeldSet::new();
        assert_eq!(h.remove(KeyId(7)), Err(HeldErr::NotHeld(KeyId(7))));
    }

    #[test]
    fn set_state_transitions() {
        let mut h = HeldSet::new();
        h.insert(KeyId(2), StateVal::DEFAULT).unwrap();
        h.set_state(KeyId(2), S1).unwrap();
        assert_eq!(h.get(KeyId(2)), Some(S1));
        assert_eq!(h.set_state(KeyId(9), S1), Err(HeldErr::NotHeld(KeyId(9))));
    }

    #[test]
    fn rename_is_checked_injective() {
        let mut h = HeldSet::new();
        h.insert(KeyId(0), StateVal::DEFAULT).unwrap();
        h.insert(KeyId(1), S1).unwrap();
        let ok: BTreeMap<_, _> = [(KeyId(0), KeyId(5))].into_iter().collect();
        let renamed = h.rename(&ok).unwrap();
        assert!(renamed.holds(KeyId(5)));
        assert!(renamed.holds(KeyId(1)));
        let merge: BTreeMap<_, _> = [(KeyId(0), KeyId(1))].into_iter().collect();
        assert_eq!(h.rename(&merge), Err(HeldErr::Duplicate(KeyId(1))));
    }

    #[test]
    fn display_elides_default_state() {
        let t = StateTable::new();
        let mut h = HeldSet::new();
        h.insert(KeyId(0), StateVal::DEFAULT).unwrap();
        assert_eq!(h.display(&t), "{k0}");
    }

    #[test]
    fn iteration_is_ordered() {
        let mut h = HeldSet::new();
        h.insert(KeyId(3), StateVal::DEFAULT).unwrap();
        h.insert(KeyId(1), StateVal::DEFAULT).unwrap();
        h.insert(KeyId(2), StateVal::DEFAULT).unwrap();
        let keys: Vec<_> = h.keys().collect();
        assert_eq!(keys, vec![KeyId(1), KeyId(2), KeyId(3)]);
    }
}
