//! Flow state and the join-point abstraction.
//!
//! The checker propagates a [`FlowState`] — variable environment plus
//! held-key set — through each function body. At control-flow joins the two
//! incoming states must agree *up to a bijective renaming of local keys*
//! (paper §3: "we abstract over the actual names of local keys in incoming
//! key sets"). The renaming is discovered from the environment: variables
//! live on both paths correlate the keys; leftover keys are paired in
//! order. Any disagreement is the paper's Fig. 5 rejection.
//!
//! ## Copy-on-write snapshots
//!
//! Branching constructs snapshot the state once per arm and loops snapshot
//! once per fixpoint iteration, so `FlowState::clone` is on the checker's
//! hottest path. Each scope [`Frame`] therefore lives behind an [`Arc`]:
//! a snapshot is O(frames) pointer bumps, and a frame's map is deep-copied
//! only on the first write after a snapshot ([`frame_mut`]). Most arms
//! touch one or two scopes, so untouched frames stay shared.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use vault_types::subst;
use vault_types::{Bijection, HeldSet, Interner, KeyGen, KeyId, StateVal, Symbol, Tables, Ty};

/// What the checker knows about one variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Binding {
    /// The declared type (anonymous tracked declarations stay anonymous
    /// here; assignments are checked against it).
    pub decl_ty: Ty,
    /// The current, concrete type (keys resolved to ids).
    pub ty: Ty,
    /// Whether the variable definitely has a value.
    pub init: bool,
}

/// One lexical scope of variables.
pub type Frame = BTreeMap<Symbol, Binding>;

thread_local! {
    static FRAMES_COPIED: Cell<u64> = const { Cell::new(0) };
    /// Emptied frames that no snapshot shared when their scope closed,
    /// kept for the next scope to open on this thread.
    static SPARE_FRAMES: RefCell<Vec<Arc<Frame>>> = const { RefCell::new(Vec::new()) };
}

/// How many emptied frames a thread keeps for reuse.
const SPARE_FRAMES_MAX: usize = 64;

/// How many shared frames this thread has deep-copied on first write
/// (monotonic; callers take deltas). Feeds `CheckStats::frames_copied`.
pub fn frames_copied_count() -> u64 {
    FRAMES_COPIED.with(|c| c.get())
}

/// A per-job window over [`frames_copied_count`].
///
/// One function check is one job: the counter is thread-local and a
/// check runs start to finish on a single thread, so the delta between
/// `begin` and `delta` is exactly the copies that job caused. A unit's
/// functions run in order on the one thread that checks the unit, and
/// other units' checks on other threads touch their own counters.
/// Summing the per-job deltas gives the unit's total.
pub struct FrameCopyScope {
    start: u64,
}

impl FrameCopyScope {
    /// Open a window at the current thread's counter.
    pub fn begin() -> Self {
        FrameCopyScope {
            start: frames_copied_count(),
        }
    }

    /// Copies on this thread since [`FrameCopyScope::begin`].
    pub fn delta(&self) -> u64 {
        frames_copied_count() - self.start
    }
}

/// Mutable access to a possibly-shared frame, deep-copying it first if a
/// snapshot still aliases it. The copy is counted in the thread's
/// [`frames_copied_count`].
pub fn frame_mut(frame: &mut Arc<Frame>) -> &mut Frame {
    // Snapshots never cross threads, so the strong count is exact here.
    if Arc::strong_count(frame) != 1 {
        FRAMES_COPIED.with(|c| c.set(c.get() + 1));
    }
    Arc::make_mut(frame)
}

/// An empty, unshared frame: a spare one when this thread has one.
fn empty_frame() -> Arc<Frame> {
    SPARE_FRAMES
        .with(|s| s.borrow_mut().pop())
        .unwrap_or_else(|| Arc::new(Frame::new()))
}

/// The abstract state at a program point.
#[derive(Debug, PartialEq, Eq)]
pub struct FlowState {
    /// Stack of scopes, innermost last. Shared with snapshots until
    /// written (see module docs); mutate only through [`frame_mut`].
    pub frames: Vec<Arc<Frame>>,
    /// The held-key set.
    pub held: HeldSet,
    /// False after `return` (dead code is skipped).
    pub reachable: bool,
}

impl FlowState {
    /// A fresh state with one empty scope.
    pub fn new() -> Self {
        FlowState {
            frames: vec![empty_frame()],
            held: HeldSet::new(),
            reachable: true,
        }
    }

    /// Enter a nested scope. The frame is a spare one when this thread
    /// has one, so a scope that never declares anything allocates
    /// nothing; it is unshared either way.
    pub fn push_frame(&mut self) {
        self.frames.push(empty_frame());
    }

    /// Leave the innermost scope, dropping its variables. A frame no
    /// snapshot shares is emptied and kept for the next
    /// [`FlowState::push_frame`].
    pub fn pop_frame(&mut self) {
        if let Some(mut frame) = self.frames.pop() {
            if let Some(vars) = Arc::get_mut(&mut frame) {
                vars.clear();
                SPARE_FRAMES.with(|s| {
                    let mut spare = s.borrow_mut();
                    if spare.len() < SPARE_FRAMES_MAX {
                        spare.push(frame);
                    }
                });
            }
        }
        debug_assert!(!self.frames.is_empty(), "popped the outermost frame");
    }

    /// Look up a variable, innermost scope first.
    pub fn lookup(&self, name: Symbol) -> Option<&Binding> {
        self.frames.iter().rev().find_map(|f| f.get(&name))
    }

    /// Mutable lookup (copies the owning frame if it is shared).
    pub fn lookup_mut(&mut self, name: Symbol) -> Option<&mut Binding> {
        let fi = self.frames.iter().rposition(|f| f.contains_key(&name))?;
        frame_mut(&mut self.frames[fi]).get_mut(&name)
    }

    /// Declare a variable in the innermost scope. Returns false if the name
    /// already exists in that scope.
    pub fn declare(&mut self, name: Symbol, binding: Binding) -> bool {
        let frame = self.frames.last_mut().expect("at least one frame");
        if frame.contains_key(&name) {
            return false;
        }
        frame_mut(frame).insert(name, binding);
        true
    }

    /// Iterate all visible bindings (outer to inner, shadowed ones too —
    /// join compares positionally per frame so shadowing is consistent).
    pub fn bindings(&self) -> impl Iterator<Item = (&Symbol, &Binding)> {
        self.frames.iter().flat_map(|f| f.iter())
    }
}

/// A snapshot: the frame list is copied with room for two more scopes,
/// so the branch that opens one does not reallocate it.
impl Clone for FlowState {
    fn clone(&self) -> Self {
        let mut frames = Vec::with_capacity(self.frames.len() + 2);
        frames.extend(self.frames.iter().cloned());
        FlowState {
            frames,
            held: self.held.clone(),
            reachable: self.reachable,
        }
    }
}

impl Default for FlowState {
    fn default() -> Self {
        Self::new()
    }
}

/// The result of merging two states.
pub struct Merge {
    /// The joined state (based on the first input's key names).
    pub state: FlowState,
    /// Human-readable join problems; non-empty means [`JoinMismatch`]
    /// diagnostics should be reported.
    ///
    /// [`JoinMismatch`]: vault_syntax::diag::Code::JoinMismatch
    pub problems: Vec<String>,
    /// Variables whose types could not be reconciled (poisoned to `Error`).
    pub poisoned: Vec<String>,
}

impl Merge {
    /// Whether the two states agreed exactly (up to key renaming).
    pub fn clean(&self) -> bool {
        self.problems.is_empty() && self.poisoned.is_empty()
    }
}

/// Whether every frame of `a` is the *same allocation* as the
/// corresponding frame of `b` — the copy-on-write identity that holds
/// whenever neither side wrote since they were snapshots of one state.
fn frames_identical(a: &FlowState, b: &FlowState) -> bool {
    a.frames.len() == b.frames.len()
        && a.frames
            .iter()
            .zip(&b.frames)
            .all(|(fa, fb)| Arc::ptr_eq(fa, fb))
}

/// Merge two flow states at a join point.
pub fn merge(
    a: &FlowState,
    b: &FlowState,
    keys: &KeyGen,
    world: &Tables,
    syms: &Interner,
) -> Merge {
    if !a.reachable {
        return Merge {
            state: b.clone(),
            problems: Vec::new(),
            poisoned: Vec::new(),
        };
    }
    if !b.reachable {
        return Merge {
            state: a.clone(),
            problems: Vec::new(),
            poisoned: Vec::new(),
        };
    }
    // Sparse fast path: if neither side wrote any frame since the two
    // states diverged (every frame is still the shared snapshot
    // allocation) and the held-key sets are equal, the slow path below
    // is a foregone conclusion — identical bindings correlate every key
    // to itself, orphans pair identically in id order, the identity
    // renaming reproduces `b.held` verbatim, and equal states are
    // abs-bijection-compatible with themselves. Skip the whole
    // field-by-field walk and return `a` unchanged.
    if frames_identical(a, b) && a.held == b.held {
        return Merge {
            state: a.clone(),
            problems: Vec::new(),
            poisoned: Vec::new(),
        };
    }
    let mut out = a.clone();
    let mut problems = Vec::new();
    let mut poisoned = Vec::new();

    // Correlate keys through the environments, a's keys to b's.
    let mut renaming = Bijection::default();
    debug_assert_eq!(a.frames.len(), b.frames.len(), "unbalanced scopes at join");
    for (fi, (fa, fb)) in a.frames.iter().zip(&b.frames).enumerate() {
        if Arc::ptr_eq(fa, fb) {
            // Shared snapshot: bindings are identical by construction, and
            // identical bindings correlate each key to itself. Each binding
            // adds the same identity pairs in any order, so symbol order
            // is fine here.
            for ba in fa.values().filter(|b| b.init) {
                renaming.pair_itself(&ba.ty);
            }
            continue;
        }
        // By name: which variable a conflicting correlation is blamed
        // on, and the order of the problems, must not follow the symbol
        // numbering.
        let mut names: Vec<(&str, &Symbol, &Binding)> = fa
            .iter()
            .map(|(name, ba)| (syms.resolve(*name), name, ba))
            .collect();
        names.sort_unstable_by_key(|&(text, ..)| text);
        for (text, name, ba) in names {
            let Some(bb) = fb.get(name) else {
                // Structurally impossible for well-formed traversal; be
                // permissive and poison.
                poisoned.push(text.to_string());
                continue;
            };
            match (ba.init, bb.init) {
                (true, true) => {
                    if let Err(clash) = subst::zip(&ba.ty, &bb.ty, &mut renaming) {
                        problems.push(format!(
                            "variable `{}` has type `{}` on one path but `{}` on the \
                             other{}",
                            text,
                            ba.ty.display(world),
                            bb.ty.display(world),
                            clash.map_or(String::new(), |(x, y)| unpaired(&renaming, x, y))
                        ));
                        poison(&mut out, fi, *name, syms, &mut poisoned);
                    }
                }
                (false, false) => {}
                _ => poison(&mut out, fi, *name, syms, &mut poisoned),
            }
        }
    }

    // Pair up keys not correlated by any variable, in id order.
    let a_orphans: Vec<KeyId> = a
        .held
        .keys()
        .filter(|k| !renaming.fwd.contains_key(k))
        .collect();
    let b_orphans: Vec<KeyId> = b
        .held
        .keys()
        .filter(|k| !renaming.bwd.contains_key(k))
        .collect();
    if a_orphans.len() == b_orphans.len() {
        for (ka, kb) in a_orphans.iter().zip(&b_orphans) {
            renaming.bwd.insert(*kb, *ka);
        }
    }

    // Rename b's held set into a's key names and compare.
    match b.held.rename(&renaming.bwd) {
        Ok(renamed) => {
            let mut abstract_states = Bijection::default();
            let a_keys: Vec<KeyId> = a.held.keys().collect();
            let b_keys: Vec<KeyId> = renamed.keys().collect();
            if a_keys != b_keys {
                problems.push(held_disagreement(a, b, keys, world));
            } else {
                for k in a_keys {
                    let sa = a.held.get(k).expect("listed");
                    let sb = renamed.get(k).expect("listed");
                    if !stateval_compat(sa, sb, &mut abstract_states) {
                        problems.push(format!(
                            "key {} is in state `{}` on one path but `{}` on the other",
                            keys.describe(k, world),
                            sa.display(&world.states),
                            sb.display(&world.states)
                        ));
                    }
                }
            }
        }
        Err(_) => problems.push(held_disagreement(a, b, keys, world)),
    }

    Merge {
        state: out,
        problems,
        poisoned,
    }
}

fn poison(
    out: &mut FlowState,
    frame: usize,
    name: Symbol,
    syms: &Interner,
    poisoned: &mut Vec<String>,
) {
    if let Some(b) = frame_mut(&mut out.frames[frame]).get_mut(&name) {
        b.ty = Ty::Error;
        b.init = false;
    }
    poisoned.push(syms.resolve(name).to_string());
}

/// Why one path's key `x` cannot pair with the other path's `y`: the
/// partner either of them already has.
fn unpaired(renaming: &Bijection<KeyId>, x: KeyId, y: KeyId) -> String {
    let mut why = Vec::new();
    if let Some(p) = renaming.fwd.get(&x).filter(|&&p| p != y) {
        why.push(format!("it already pairs with the other path's {p}"));
    }
    if let Some(p) = renaming.bwd.get(&y).filter(|&&p| p != x) {
        why.push(format!("the other path's {y} already pairs with {p}"));
    }
    format!(
        ": key {x} cannot pair with the other path's {y}, because {}",
        why.join(" and ")
    )
}

fn held_disagreement(a: &FlowState, b: &FlowState, keys: &KeyGen, world: &Tables) -> String {
    let describe = |h: &HeldSet| -> String {
        let items: Vec<String> = h
            .iter()
            .map(|(k, s)| {
                if s == StateVal::DEFAULT {
                    keys.describe(k, world)
                } else {
                    format!("{}@{}", keys.describe(k, world), s.display(&world.states))
                }
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    };
    format!(
        "held-key sets disagree at this join point: {} vs {}",
        describe(&a.held),
        describe(&b.held)
    )
}

/// Compare two state values modulo a bijection of abstract-state ids.
fn stateval_compat(a: StateVal, b: StateVal, abs: &mut Bijection<u32>) -> bool {
    match (a, b) {
        (StateVal::Token(x), StateVal::Token(y)) => x == y,
        (StateVal::Abs { id: ia, bound: ba }, StateVal::Abs { id: ib, bound: bb }) => {
            ba == bb && abs.pair(&ia, &ib)
        }
        _ => false,
    }
}

/// Whether two states agree (used for the loop-invariant fixpoint test).
pub fn states_agree(
    a: &FlowState,
    b: &FlowState,
    keys: &KeyGen,
    world: &Tables,
    syms: &Interner,
) -> bool {
    if a.reachable != b.reachable {
        return false;
    }
    if !a.reachable {
        return true;
    }
    // Same sparse shortcut as `merge`, without paying for the joined
    // state it would clone and discard.
    if frames_identical(a, b) && a.held == b.held {
        return true;
    }
    merge(a, b, keys, world, syms).clean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vault_types::{
        AbstractDef, KeyInfo, KeyOrigin, KeyRef, Resource, StateTable, TypeDef, World,
    };

    fn setup() -> (World, KeyGen, Ty, Interner) {
        let mut w = World::new();
        let region = w
            .add_type(TypeDef::Abstract(AbstractDef {
                name: "region".into(),
                params: vec![],
            }))
            .unwrap();
        let mut syms = Interner::new();
        for name in ["flag", "inner", "outer", "r", "rgn", "s", "x"] {
            syms.intern(name);
        }
        (
            w,
            KeyGen::new(),
            Ty::Named {
                id: region,
                args: vec![].into(),
            },
            syms,
        )
    }

    fn fresh(keys: &mut KeyGen) -> KeyId {
        keys.fresh(KeyInfo {
            name: None,
            resource: Resource::Static("region"),
            origin: KeyOrigin::Fresh,
            stateset: StateTable::DEFAULT_SET,
            global: false,
        })
    }

    fn bind(ty: Ty) -> Binding {
        Binding {
            decl_ty: ty.clone(),
            ty,
            init: true,
        }
    }

    #[test]
    fn merge_identical_states_is_clean() {
        let (w, mut keys, region, syms) = setup();
        let k = fresh(&mut keys);
        let mut a = FlowState::new();
        a.declare(
            syms.sym("r"),
            bind(Ty::tracked(KeyRef::Id(k), region.clone())),
        );
        a.held.insert(k, StateVal::DEFAULT).unwrap();
        let b = a.clone();
        let m = merge(&a, &b, &keys, &w, &syms);
        assert!(m.clean(), "{:?} / {:?}", m.problems, m.poisoned);
    }

    #[test]
    fn merge_renames_local_keys() {
        // Branch A made key k0 for `flag`; branch B made k1. The join
        // abstracts the names (the §2.1 opt_key example).
        let (w, mut keys, region, syms) = setup();
        let k0 = fresh(&mut keys);
        let k1 = fresh(&mut keys);
        let mut a = FlowState::new();
        a.declare(
            syms.sym("flag"),
            bind(Ty::tracked(KeyRef::Id(k0), region.clone())),
        );
        a.held.insert(k0, StateVal::DEFAULT).unwrap();
        let mut b = FlowState::new();
        b.declare(
            syms.sym("flag"),
            bind(Ty::tracked(KeyRef::Id(k1), region.clone())),
        );
        b.held.insert(k1, StateVal::DEFAULT).unwrap();
        let m = merge(&a, &b, &keys, &w, &syms);
        assert!(m.clean(), "{:?}", m.problems);
        assert!(m.state.held.holds(k0));
    }

    #[test]
    fn merge_names_the_keys_a_variable_cannot_pair() {
        // `r` pairs k0 with k2 and `s` pairs k1 with k3, so `x` (k0 on
        // one path, k3 on the other) finds both keys taken.
        let (w, mut keys, region, syms) = setup();
        let k: Vec<KeyId> = (0..4).map(|_| fresh(&mut keys)).collect();
        let (mut a, mut b) = (FlowState::new(), FlowState::new());
        for (var, ka, kb) in [("r", k[0], k[2]), ("s", k[1], k[3]), ("x", k[0], k[3])] {
            a.declare(
                syms.sym(var),
                bind(Ty::tracked(KeyRef::Id(ka), region.clone())),
            );
            b.declare(
                syms.sym(var),
                bind(Ty::tracked(KeyRef::Id(kb), region.clone())),
            );
        }
        let m = merge(&a, &b, &keys, &w, &syms);
        assert_eq!(
            m.problems[0],
            "variable `x` has type `tracked(k0) region` on one path but `tracked(k3) region` \
             on the other: key k0 cannot pair with the other path's k3, because it already \
             pairs with the other path's k2 and the other path's k3 already pairs with k1"
        );
    }

    #[test]
    fn merge_detects_held_disagreement() {
        // Fig. 5: one branch deleted the region, the other did not.
        let (w, mut keys, region, syms) = setup();
        let k = fresh(&mut keys);
        let mut a = FlowState::new();
        a.declare(
            syms.sym("rgn"),
            bind(Ty::tracked(KeyRef::Id(k), region.clone())),
        );
        a.held.insert(k, StateVal::DEFAULT).unwrap();
        let mut b = FlowState::new();
        b.declare(
            syms.sym("rgn"),
            bind(Ty::tracked(KeyRef::Id(k), region.clone())),
        );
        // b deleted the region: key not held.
        let m = merge(&a, &b, &keys, &w, &syms);
        assert!(!m.clean());
        assert!(m.problems[0].contains("disagree"), "{:?}", m.problems);
    }

    #[test]
    fn merge_detects_state_disagreement() {
        let (w, mut keys, region, syms) = setup();
        let mut states = StateTable::new();
        let set = states.begin_stateset("S");
        let s1 = states.add_state(set, "one").unwrap();
        let s2 = states.add_state(set, "two").unwrap();
        states.finish_stateset(set).unwrap();
        let mut world = w;
        world.states = states;
        let k = fresh(&mut keys);
        let mut a = FlowState::new();
        a.declare(
            syms.sym("s"),
            bind(Ty::tracked(KeyRef::Id(k), region.clone())),
        );
        a.held.insert(k, StateVal::Token(s1)).unwrap();
        let mut b = a.clone();
        b.held.set_state(k, StateVal::Token(s2)).unwrap();
        let m = merge(&a, &b, &keys, &world, &syms);
        assert!(!m.clean());
        assert!(m.problems[0].contains("state"), "{:?}", m.problems);
    }

    #[test]
    fn merge_unreachable_picks_other() {
        let (w, keys, _region, syms) = setup();
        let mut a = FlowState::new();
        a.reachable = false;
        let b = FlowState::new();
        let m = merge(&a, &b, &keys, &w, &syms);
        assert!(m.clean());
        assert!(m.state.reachable);
    }

    #[test]
    fn merge_poisons_partially_initialized() {
        let (w, keys, _region, syms) = setup();
        let mut a = FlowState::new();
        a.declare(
            syms.sym("x"),
            Binding {
                decl_ty: Ty::Int,
                ty: Ty::Int,
                init: true,
            },
        );
        let mut b = FlowState::new();
        b.declare(
            syms.sym("x"),
            Binding {
                decl_ty: Ty::Int,
                ty: Ty::Int,
                init: false,
            },
        );
        let m = merge(&a, &b, &keys, &w, &syms);
        assert_eq!(m.poisoned, vec!["x".to_string()]);
        assert!(!m.state.lookup(syms.sym("x")).unwrap().init);
    }

    #[test]
    fn states_agree_modulo_renaming() {
        let (w, mut keys, region, syms) = setup();
        let k0 = fresh(&mut keys);
        let k1 = fresh(&mut keys);
        let mut a = FlowState::new();
        a.declare(
            syms.sym("r"),
            bind(Ty::tracked(KeyRef::Id(k0), region.clone())),
        );
        a.held.insert(k0, StateVal::DEFAULT).unwrap();
        let mut b = FlowState::new();
        b.declare(
            syms.sym("r"),
            bind(Ty::tracked(KeyRef::Id(k1), region.clone())),
        );
        b.held.insert(k1, StateVal::DEFAULT).unwrap();
        assert!(states_agree(&a, &b, &keys, &w, &syms));
        b.held.remove(k1).unwrap();
        assert!(!states_agree(&a, &b, &keys, &w, &syms));
    }

    #[test]
    fn scope_stack_operations() {
        let (_w, _keys, _region, syms) = setup();
        let mut s = FlowState::new();
        s.declare(syms.sym("outer"), bind(Ty::Int));
        s.push_frame();
        assert!(s.declare(syms.sym("inner"), bind(Ty::Bool)));
        assert!(
            !s.declare(syms.sym("inner"), bind(Ty::Bool)),
            "redeclaration"
        );
        assert!(s.lookup(syms.sym("outer")).is_some());
        assert!(s.lookup(syms.sym("inner")).is_some());
        s.pop_frame();
        assert!(s.lookup(syms.sym("inner")).is_none());
    }

    #[test]
    fn shared_snapshot_merge_takes_the_identity_fast_path() {
        // A state merged with its own snapshot must be clean without
        // deep-copying a single frame — this is the convergence check
        // every loop fixpoint iteration performs.
        let (w, mut keys, region, syms) = setup();
        let k = fresh(&mut keys);
        let mut a = FlowState::new();
        a.declare(
            syms.sym("r"),
            bind(Ty::tracked(KeyRef::Id(k), region.clone())),
        );
        a.held.insert(k, StateVal::DEFAULT).unwrap();
        let snap = a.clone();
        assert!(frames_identical(&a, &snap));
        let before = frames_copied_count();
        let m = merge(&a, &snap, &keys, &w, &syms);
        assert!(m.clean());
        assert_eq!(frames_copied_count(), before, "fast path must not copy");
        assert!(states_agree(&a, &snap, &keys, &w, &syms));
    }

    #[test]
    fn fast_path_agrees_with_the_slow_path_on_equal_states() {
        // Break pointer identity by rewriting a binding with its own
        // value: the slow path must reach the same clean verdict and
        // the same joined state the fast path returns.
        let (w, mut keys, region, syms) = setup();
        let k = fresh(&mut keys);
        let mut a = FlowState::new();
        a.declare(
            syms.sym("r"),
            bind(Ty::tracked(KeyRef::Id(k), region.clone())),
        );
        a.held.insert(k, StateVal::DEFAULT).unwrap();
        let mut b = a.clone();
        b.lookup_mut(syms.sym("r")).unwrap().init = true; // same value, new frame
        assert!(!frames_identical(&a, &b));
        let slow = merge(&a, &b, &keys, &w, &syms);
        let fast = merge(&a, &a.clone(), &keys, &w, &syms);
        assert!(slow.clean() && fast.clean());
        assert_eq!(slow.state, fast.state);
        assert!(states_agree(&a, &b, &keys, &w, &syms));
    }

    #[test]
    fn fast_path_does_not_mask_held_disagreement() {
        // Identical frames but diverged held sets must still fall
        // through to the full comparison (and may legitimately agree
        // via renaming, or disagree as here).
        let (w, mut keys, region, syms) = setup();
        let k = fresh(&mut keys);
        let mut a = FlowState::new();
        a.declare(
            syms.sym("r"),
            bind(Ty::tracked(KeyRef::Id(k), region.clone())),
        );
        a.held.insert(k, StateVal::DEFAULT).unwrap();
        let mut b = a.clone();
        b.held.remove(k).unwrap();
        assert!(frames_identical(&a, &b));
        let m = merge(&a, &b, &keys, &w, &syms);
        assert!(!m.clean());
        assert!(!states_agree(&a, &b, &keys, &w, &syms));
    }

    #[test]
    fn frame_copy_scope_windows_the_thread_counter() {
        let (_w, _keys, _region, syms) = setup();
        let mut s = FlowState::new();
        s.declare(syms.sym("x"), bind(Ty::Int));
        let snap = s.clone();
        let scope = FrameCopyScope::begin();
        assert_eq!(scope.delta(), 0);
        s.lookup_mut(syms.sym("x")).unwrap().init = false;
        assert_eq!(scope.delta(), 1);
        drop(snap);
    }

    #[test]
    fn snapshots_share_frames_until_written() {
        let (_w, _keys, _region, syms) = setup();
        let mut s = FlowState::new();
        s.declare(syms.sym("outer"), bind(Ty::Int));
        s.push_frame();
        s.declare(syms.sym("inner"), bind(Ty::Bool));
        let snap = s.clone();
        assert!(Arc::ptr_eq(&s.frames[0], &snap.frames[0]));
        assert!(Arc::ptr_eq(&s.frames[1], &snap.frames[1]));
        let before = frames_copied_count();
        // Writing the inner frame unshares only the inner frame.
        s.lookup_mut(syms.sym("inner")).unwrap().init = false;
        assert!(Arc::ptr_eq(&s.frames[0], &snap.frames[0]));
        assert!(!Arc::ptr_eq(&s.frames[1], &snap.frames[1]));
        assert_eq!(frames_copied_count(), before + 1);
        // A second write to the now-unshared frame copies nothing.
        s.lookup_mut(syms.sym("inner")).unwrap().init = true;
        assert_eq!(frames_copied_count(), before + 1);
        assert!(snap.lookup(syms.sym("inner")).unwrap().init);
    }
}
