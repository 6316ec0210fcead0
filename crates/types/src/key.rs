//! Keys — the linear compile-time tokens at the heart of Vault.
//!
//! A [`KeyId`] is a concrete key instance tracked while checking a function
//! body (one per run-time resource the checker can see). Signatures refer to
//! keys through [`KeyRef`]s, which may be variables instantiated per call.

use crate::state::StatesetId;
use std::fmt;

/// A concrete key instance during checking of one function body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u32);

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A reference to a key as it appears in a type or effect.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyRef {
    /// A key variable, scoped to a signature or type declaration.
    Var(String),
    /// A concrete key (a global key, or an instance during checking).
    Id(KeyId),
}

impl KeyRef {
    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        KeyRef::Var(name.into())
    }

    /// The concrete id if this is one.
    pub fn id(&self) -> Option<KeyId> {
        match self {
            KeyRef::Id(k) => Some(*k),
            KeyRef::Var(_) => None,
        }
    }
}

impl fmt::Display for KeyRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyRef::Var(v) => f.write_str(v),
            KeyRef::Id(k) => write!(f, "{k}"),
        }
    }
}

/// Why a key exists — used in diagnostics ("key R (region created at ...)").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum KeyOrigin {
    /// A `new tracked`/`new(rgn)` allocation or a `[new K]` effect.
    Fresh,
    /// Bound from a function parameter.
    Param,
    /// A statically declared global key (e.g. `IRQL`).
    Global,
    /// Restored by unpacking a keyed variant.
    Unpacked,
    /// Produced by a `[+K]` effect (e.g. `KeWaitEvent`).
    Produced,
}

/// Metadata about one key instance.
#[derive(Clone, Debug, Hash)]
pub struct KeyInfo {
    /// The surface name if the programmer gave one (`tracked(R) ...`).
    pub name: Option<String>,
    /// What resource type the key tracks, for diagnostics.
    pub resource: String,
    /// How the key came to exist.
    pub origin: KeyOrigin,
    /// Stateset governing its local states.
    pub stateset: StatesetId,
    /// Whether the key is global (cannot be consumed or created).
    pub global: bool,
}

/// Allocates fresh key ids and records their metadata.
#[derive(Clone, Debug, Default, Hash)]
pub struct KeyGen {
    infos: Vec<KeyInfo>,
}

impl KeyGen {
    /// An empty generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh key.
    pub fn fresh(&mut self, info: KeyInfo) -> KeyId {
        let id = KeyId(self.infos.len() as u32);
        self.infos.push(info);
        id
    }

    /// Metadata for a key allocated by this generator.
    pub fn info(&self, id: KeyId) -> &KeyInfo {
        &self.infos[id.0 as usize]
    }

    /// Mutable metadata access (used to attach surface names after binding).
    pub fn info_mut(&mut self, id: KeyId) -> &mut KeyInfo {
        &mut self.infos[id.0 as usize]
    }

    /// Number of keys allocated so far.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether no key has been allocated.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// A human-readable name for diagnostics: the surface name if known,
    /// otherwise the resource type.
    pub fn describe(&self, id: KeyId) -> String {
        let info = self.info(id);
        match &info.name {
            Some(n) => n.clone(),
            None => format!("<{}>", info.resource),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateTable;

    fn info(name: Option<&str>) -> KeyInfo {
        KeyInfo {
            name: name.map(str::to_string),
            resource: "region".into(),
            origin: KeyOrigin::Fresh,
            stateset: StateTable::DEFAULT_SET,
            global: false,
        }
    }

    #[test]
    fn fresh_keys_are_distinct() {
        let mut g = KeyGen::new();
        let a = g.fresh(info(Some("R")));
        let b = g.fresh(info(None));
        assert_ne!(a, b);
        assert_eq!(g.len(), 2);
        assert_eq!(g.describe(a), "R");
        assert_eq!(g.describe(b), "<region>");
    }

    #[test]
    fn keyref_display_and_id() {
        assert_eq!(KeyRef::var("K").to_string(), "K");
        assert_eq!(KeyRef::Id(KeyId(3)).to_string(), "k3");
        assert_eq!(KeyRef::Id(KeyId(3)).id(), Some(KeyId(3)));
        assert_eq!(KeyRef::var("K").id(), None);
    }

    #[test]
    fn info_mut_updates() {
        let mut g = KeyGen::new();
        let a = g.fresh(info(None));
        g.info_mut(a).name = Some("S".into());
        assert_eq!(g.describe(a), "S");
    }
}
