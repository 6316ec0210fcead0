//! Keys — the linear compile-time tokens at the heart of Vault.
//!
//! A [`KeyId`] is a concrete key instance tracked while checking a function
//! body (one per run-time resource the checker can see). Signatures refer to
//! keys through [`KeyRef`]s, which may be variables instantiated per call.

use crate::state::StatesetId;
use crate::ty::{Tables, Ty, TypeId};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A variable or declaration name inside types and signatures. Cloning
/// one bumps a reference count instead of copying the text, and it
/// hashes, compares and orders exactly as the `String` it replaced, so
/// every fingerprint over types and signatures keeps its value.
pub type Name = Arc<str>;

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
    Var(Name),
    /// A concrete key (a global key, or an instance during checking).
    Id(KeyId),
}

impl KeyRef {
    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<Name>) -> Self {
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

/// What resource a key tracks, kept in parts and rendered only when a
/// diagnostic names it ([`KeyGen::resource`]).
#[derive(Clone, Debug)]
pub enum Resource {
    /// Ready text, such as a type name.
    Text(Name),
    /// Fixed text.
    Static(&'static str),
    /// The name of a declared type.
    TypeName(TypeId),
    /// A key the named function's `[new K]` effect created.
    FreshFrom(Name),
    /// A key unpacked from the named variant binder.
    Unpacked(Name),
    /// The key packed in an anonymous tracked value of this type.
    Type(Ty),
}

impl Resource {
    /// The text diagnostics show.
    pub fn render(&self, tables: &Tables) -> String {
        match self {
            Resource::Text(t) => t.to_string(),
            Resource::Static(t) => t.to_string(),
            Resource::TypeName(id) => tables.type_name(*id).to_string(),
            Resource::FreshFrom(f) => format!("fresh key from `{f}`"),
            Resource::Unpacked(v) => format!("unpacked `{v}`"),
            Resource::Type(t) => t.display(tables),
        }
    }
}

/// [`Resource::Text`] and [`Resource::Static`] hash as the `String`
/// they used to be, so the base keys' part of a unit's fingerprint
/// (global keys carry text) keeps its value. The other forms only
/// describe keys made while checking a body, which no fingerprint
/// covers; they hash their parts under a distinct tag.
impl Hash for Resource {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self {
            Resource::Text(t) => t.hash(h),
            Resource::Static(t) => t.hash(h),
            Resource::FreshFrom(f) => (1u8, f).hash(h),
            Resource::Unpacked(v) => (2u8, v).hash(h),
            Resource::Type(t) => (3u8, t).hash(h),
            Resource::TypeName(id) => (4u8, id).hash(h),
        }
    }
}

/// Metadata about one key instance.
#[derive(Clone, Debug, Hash)]
pub struct KeyInfo {
    /// The surface name if the programmer gave one (`tracked(R) ...`).
    pub name: Option<Name>,
    /// What resource type the key tracks, for diagnostics.
    pub resource: Resource,
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
    pub fn describe(&self, id: KeyId, tables: &Tables) -> String {
        let info = self.info(id);
        match &info.name {
            Some(n) => n.to_string(),
            None => format!("<{}>", info.resource.render(tables)),
        }
    }

    /// The resource a key tracks, rendered for a diagnostic.
    pub fn resource(&self, id: KeyId, tables: &Tables) -> String {
        self.info(id).resource.render(tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateTable;

    fn info(name: Option<&str>) -> KeyInfo {
        KeyInfo {
            name: name.map(Name::from),
            resource: Resource::Static("region"),
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
        let tables = Tables::default();
        assert_eq!(g.describe(a, &tables), "R");
        assert_eq!(g.describe(b, &tables), "<region>");
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
        assert_eq!(g.describe(a, &Tables::default()), "S");
    }
}
