//! Key states and statesets.
//!
//! Every key has a *local state* drawn from a stateset. Statesets are
//! declared partial orders (`stateset IRQ_LEVEL = [PASSIVE < APC < ...]`,
//! paper §4.4); keys without a declared stateset use the trivial stateset
//! containing only the [`StateTable::DEFAULT`] state (the paper's "fixed
//! unique state" for omitted key states).

use std::collections::BTreeMap;
use std::fmt;

/// Identifies a stateset in a [`StateTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatesetId(pub u32);

/// Identifies a state token in a [`StateTable`] (globally, across statesets).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

/// Errors when building a stateset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatesetError {
    /// The declared order relation contains a cycle through this state.
    Cycle(String),
    /// The same state token was declared in two different statesets.
    Reused(String),
}

impl fmt::Display for StatesetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatesetError::Cycle(s) => write!(f, "stateset order has a cycle through `{s}`"),
            StatesetError::Reused(s) => {
                write!(f, "state `{s}` is already a member of another stateset")
            }
        }
    }
}

impl std::error::Error for StatesetError {}

#[derive(Clone, Debug, Hash)]
struct StateInfo {
    name: String,
    set: StatesetId,
}

#[derive(Clone, Debug, Default, Hash)]
struct StatesetInfo {
    name: String,
    members: Vec<StateId>,
    /// Direct `a < b` edges, by local member index.
    edges: Vec<(usize, usize)>,
    /// Reachability closure: `reach[a][b]` iff `a < b` (strictly).
    reach: Vec<Vec<bool>>,
}

/// Interns state tokens and statesets and answers partial-order queries.
#[derive(Clone, Debug, Hash)]
pub struct StateTable {
    states: Vec<StateInfo>,
    sets: Vec<StatesetInfo>,
    by_name: BTreeMap<String, StateId>,
    sets_by_name: BTreeMap<String, StatesetId>,
}

impl StateTable {
    /// The default state of keys without a declared stateset.
    pub const DEFAULT: StateId = StateId(0);
    /// The trivial stateset containing only [`Self::DEFAULT`].
    pub const DEFAULT_SET: StatesetId = StatesetId(0);

    /// A table containing only the trivial stateset.
    pub fn new() -> Self {
        let mut t = StateTable {
            states: Vec::new(),
            sets: Vec::new(),
            by_name: BTreeMap::new(),
            sets_by_name: BTreeMap::new(),
        };
        let set = t.begin_stateset("$default");
        let d = t
            .add_state(set, "$default")
            .expect("fresh table cannot clash");
        t.finish_stateset(set).expect("singleton has no cycle");
        debug_assert_eq!(set, Self::DEFAULT_SET);
        debug_assert_eq!(d, Self::DEFAULT);
        t
    }

    /// Start a new stateset with the given name. States and edges are added
    /// with [`Self::add_state`] and [`Self::add_lt`], then the set is sealed
    /// with [`Self::finish_stateset`].
    pub fn begin_stateset(&mut self, name: &str) -> StatesetId {
        let id = StatesetId(self.sets.len() as u32);
        self.sets.push(StatesetInfo {
            name: name.to_string(),
            ..StatesetInfo::default()
        });
        self.sets_by_name.insert(name.to_string(), id);
        id
    }

    /// Add a state token to a stateset. Re-adding a token already in the
    /// same set returns the existing id; a token from another set errors.
    pub fn add_state(&mut self, set: StatesetId, name: &str) -> Result<StateId, StatesetError> {
        if let Some(&existing) = self.by_name.get(name) {
            if self.states[existing.0 as usize].set == set {
                return Ok(existing);
            }
            return Err(StatesetError::Reused(name.to_string()));
        }
        let id = StateId(self.states.len() as u32);
        self.states.push(StateInfo {
            name: name.to_string(),
            set,
        });
        self.by_name.insert(name.to_string(), id);
        self.sets[set.0 as usize].members.push(id);
        Ok(id)
    }

    /// Record the strict order relation `a < b` in the set both belong to.
    ///
    /// # Panics
    /// Panics if `a` and `b` belong to different statesets (the elaborator
    /// only relates states it added to the same set).
    pub fn add_lt(&mut self, a: StateId, b: StateId) {
        let set = self.states[a.0 as usize].set;
        assert_eq!(
            set, self.states[b.0 as usize].set,
            "order relation across statesets"
        );
        let info = &mut self.sets[set.0 as usize];
        let ia = info.members.iter().position(|&s| s == a).expect("member");
        let ib = info.members.iter().position(|&s| s == b).expect("member");
        info.edges.push((ia, ib));
    }

    /// Seal a stateset: compute the reachability closure and reject cycles.
    pub fn finish_stateset(&mut self, set: StatesetId) -> Result<(), StatesetError> {
        let info = &mut self.sets[set.0 as usize];
        let n = info.members.len();
        let mut reach = vec![vec![false; n]; n];
        for &(a, b) in &info.edges {
            reach[a][b] = true;
        }
        // Floyd–Warshall closure.
        for k in 0..n {
            for i in 0..n {
                if reach[i][k] {
                    let via: Vec<usize> = (0..n).filter(|&j| reach[k][j]).collect();
                    for j in via {
                        reach[i][j] = true;
                    }
                }
            }
        }
        for (i, row) in reach.iter().enumerate() {
            if row[i] {
                let name = self.states[info.members[i].0 as usize].name.clone();
                return Err(StatesetError::Cycle(name));
            }
        }
        info.reach = reach;
        Ok(())
    }

    /// Look up a state token by name.
    pub fn state(&self, name: &str) -> Option<StateId> {
        self.by_name.get(name).copied()
    }

    /// Look up a stateset by name.
    pub fn stateset(&self, name: &str) -> Option<StatesetId> {
        self.sets_by_name.get(name).copied()
    }

    /// The name of a state token.
    pub fn state_name(&self, id: StateId) -> &str {
        &self.states[id.0 as usize].name
    }

    /// The stateset a state belongs to.
    pub fn set_of(&self, id: StateId) -> StatesetId {
        self.states[id.0 as usize].set
    }

    /// The name of a stateset.
    pub fn stateset_name(&self, id: StatesetId) -> &str {
        &self.sets[id.0 as usize].name
    }

    /// All member states of a stateset, in declaration order.
    pub fn members(&self, id: StatesetId) -> &[StateId] {
        &self.sets[id.0 as usize].members
    }

    /// Non-strict partial order: `a <= b` within one stateset. States from
    /// different statesets are incomparable.
    pub fn le(&self, a: StateId, b: StateId) -> bool {
        if a == b {
            return true;
        }
        let set = self.states[a.0 as usize].set;
        if set != self.states[b.0 as usize].set {
            return false;
        }
        let info = &self.sets[set.0 as usize];
        let ia = info.members.iter().position(|&s| s == a).expect("member");
        let ib = info.members.iter().position(|&s| s == b).expect("member");
        info.reach.get(ia).map(|row| row[ib]).unwrap_or(false)
    }
}

impl Default for StateTable {
    fn default() -> Self {
        Self::new()
    }
}

/// A key's local state as known to the checker at a program point.
///
/// `Token` is a concrete state. `Abs` is an abstract state introduced by
/// bounded state polymorphism (paper §4.4): "some state, identity `id`,
/// known only to be `<= bound`". Two `Abs` values are the same state iff
/// their ids are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StateVal {
    /// A concrete state token.
    Token(StateId),
    /// An abstract (polymorphic) state with identity and optional bound.
    Abs {
        /// Identity of the abstract state within the current function check.
        id: u32,
        /// Upper bound, if the state variable was declared bounded.
        bound: Option<StateId>,
    },
}

impl StateVal {
    /// The default concrete state.
    pub const DEFAULT: StateVal = StateVal::Token(StateTable::DEFAULT);

    /// Whether this state is known to be `<= bound` in `table`.
    pub fn le_token(&self, bound: StateId, table: &StateTable) -> bool {
        match self {
            StateVal::Token(t) => table.le(*t, bound),
            StateVal::Abs { bound: Some(b), .. } => table.le(*b, bound),
            StateVal::Abs { bound: None, .. } => false,
        }
    }

    /// Render for diagnostics.
    pub fn display(&self, table: &StateTable) -> String {
        match self {
            StateVal::Token(t) => table.state_name(*t).to_string(),
            StateVal::Abs { id, bound: None } => format!("?s{id}"),
            StateVal::Abs { id, bound: Some(b) } => format!("?s{id}<={}", table.state_name(*b)),
        }
    }
}

/// A state *requirement* appearing in guards, effect preconditions, and
/// constructor captures.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StateReq {
    /// Any state is acceptable (the key merely has to be held).
    Any,
    /// Exactly this state token.
    Exact(StateId),
    /// Any state `<=` the bound (bounded polymorphism); if `var` is set the
    /// matched state is bound to that state variable.
    AtMost {
        /// Optional state-variable name the matched state binds.
        var: Option<crate::key::Name>,
        /// Inclusive upper bound.
        bound: StateId,
    },
    /// Exactly the state bound to a state variable (from an earlier match
    /// or a parameter's type).
    Var(crate::key::Name),
}

impl StateReq {
    /// Whether a concrete state value satisfies this requirement, ignoring
    /// variable binding (the checker resolves `Var` before calling this).
    pub fn admits(&self, val: &StateVal, table: &StateTable) -> bool {
        match self {
            StateReq::Any => true,
            StateReq::Exact(t) => matches!(val, StateVal::Token(v) if v == t),
            StateReq::AtMost { bound, .. } => val.le_token(*bound, table),
            StateReq::Var(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn irq_table() -> (StateTable, [StateId; 4]) {
        let mut t = StateTable::new();
        let set = t.begin_stateset("IRQ_LEVEL");
        let p = t.add_state(set, "PASSIVE_LEVEL").unwrap();
        let a = t.add_state(set, "APC_LEVEL").unwrap();
        let d = t.add_state(set, "DISPATCH_LEVEL").unwrap();
        let q = t.add_state(set, "DIRQL").unwrap();
        t.add_lt(p, a);
        t.add_lt(a, d);
        t.add_lt(d, q);
        t.finish_stateset(set).unwrap();
        (t, [p, a, d, q])
    }

    #[test]
    fn chain_order_is_transitive() {
        let (t, [p, a, d, q]) = irq_table();
        assert!(t.le(p, q));
        assert!(t.le(p, p));
        assert!(t.le(a, d));
        assert!(!t.le(d, a));
        assert!(!t.le(q, p));
    }

    #[test]
    fn incomparable_across_statesets() {
        let (mut t, [p, ..]) = irq_table();
        let other = t.begin_stateset("SOCKET_STATE");
        let raw = t.add_state(other, "raw").unwrap();
        t.finish_stateset(other).unwrap();
        assert!(!t.le(p, raw));
        assert!(!t.le(raw, p));
        assert!(t.le(raw, raw));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut t = StateTable::new();
        let set = t.begin_stateset("BAD");
        let a = t.add_state(set, "a").unwrap();
        let b = t.add_state(set, "b").unwrap();
        t.add_lt(a, b);
        t.add_lt(b, a);
        assert!(matches!(
            t.finish_stateset(set),
            Err(StatesetError::Cycle(_))
        ));
    }

    #[test]
    fn reuse_across_sets_rejected() {
        let mut t = StateTable::new();
        let s1 = t.begin_stateset("A");
        t.add_state(s1, "x").unwrap();
        t.finish_stateset(s1).unwrap();
        let s2 = t.begin_stateset("B");
        assert_eq!(t.add_state(s2, "x"), Err(StatesetError::Reused("x".into())));
    }

    #[test]
    fn readding_same_state_is_idempotent() {
        let mut t = StateTable::new();
        let s = t.begin_stateset("A");
        let x1 = t.add_state(s, "x").unwrap();
        let x2 = t.add_state(s, "x").unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn stateval_bounds() {
        let (t, [p, a, d, _q]) = irq_table();
        assert!(StateVal::Token(p).le_token(d, &t));
        assert!(!StateVal::Token(d).le_token(a, &t));
        let abs = StateVal::Abs {
            id: 1,
            bound: Some(a),
        };
        assert!(abs.le_token(d, &t));
        assert!(abs.le_token(a, &t));
        assert!(!abs.le_token(p, &t));
        let unb = StateVal::Abs { id: 2, bound: None };
        assert!(!unb.le_token(d, &t));
    }

    #[test]
    fn statereq_admits() {
        let (t, [p, _a, d, q]) = irq_table();
        assert!(StateReq::Any.admits(&StateVal::Token(q), &t));
        assert!(StateReq::Exact(p).admits(&StateVal::Token(p), &t));
        assert!(!StateReq::Exact(p).admits(&StateVal::Token(d), &t));
        let atmost = StateReq::AtMost {
            var: Some("level".into()),
            bound: d,
        };
        assert!(atmost.admits(&StateVal::Token(p), &t));
        assert!(!atmost.admits(&StateVal::Token(q), &t));
    }

    #[test]
    fn default_state_exists() {
        let t = StateTable::new();
        assert_eq!(t.state("$default"), Some(StateTable::DEFAULT));
        assert!(t.le(StateTable::DEFAULT, StateTable::DEFAULT));
        assert_eq!(t.state_name(StateTable::DEFAULT), "$default");
    }

    #[test]
    fn lookup_by_name() {
        let (t, [_, a, ..]) = irq_table();
        assert_eq!(t.state("APC_LEVEL"), Some(a));
        assert!(t.stateset("IRQ_LEVEL").is_some());
        assert_eq!(t.state("NOPE"), None);
        assert_eq!(t.members(t.stateset("IRQ_LEVEL").unwrap()).len(), 4);
    }
}
