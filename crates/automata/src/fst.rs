//! Finite-state transducers over symbolic labels: the machine form of the
//! RIR's regular relations (paper §5.2, §6.1).
//!
//! Arc labels describe one step of the relation:
//!
//! | label        | reads       | writes      | relation on one symbol    |
//! |--------------|-------------|-------------|---------------------------|
//! | `Eps`        | ε           | ε           | {(ε, ε)}                  |
//! | `In(S)`      | `x ∈ S`     | ε           | {(x, ε) : x ∈ S}          |
//! | `Out(S)`     | ε           | `y ∈ S`     | {(ε, y) : y ∈ S}          |
//! | `Pair(S, T)` | `x ∈ S`     | `y ∈ T`     | {(x, y) : x ∈ S, y ∈ T}   |
//! | `Id(S)`      | `x ∈ S`     | same `x`    | {(x, x) : x ∈ S}          |
//!
//! `Id` is first-class (rather than encoded as `Pair(S,S)`) because the
//! identity relation `I(P)` — the encoding of "preserve" — must relate
//! each path to *itself*, not to every same-length path in `P`.

use crate::nfa::{Nfa, StateId};
use crate::symset::SymSet;
use crate::Symbol;

/// A transducer arc label. See the module docs for semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FstLabel {
    /// Read nothing, write nothing.
    Eps,
    /// Read a symbol in the set, write nothing.
    In(SymSet),
    /// Read nothing, write a symbol in the set.
    Out(SymSet),
    /// Read a symbol in the first set, write any symbol in the second.
    Pair(SymSet, SymSet),
    /// Read a symbol in the set and write that same symbol.
    Id(SymSet),
}

impl FstLabel {
    /// The set of symbols this label can read (`None` = reads ε).
    pub fn input(&self) -> Option<&SymSet> {
        match self {
            FstLabel::Eps | FstLabel::Out(_) => None,
            FstLabel::In(s) | FstLabel::Id(s) => Some(s),
            FstLabel::Pair(s, _) => Some(s),
        }
    }

    /// The set of symbols this label can write (`None` = writes ε).
    pub fn output(&self) -> Option<&SymSet> {
        match self {
            FstLabel::Eps | FstLabel::In(_) => None,
            FstLabel::Out(s) | FstLabel::Id(s) => Some(s),
            FstLabel::Pair(_, s) => Some(s),
        }
    }

    /// True if the label denotes no symbol pair at all (empty set inside).
    pub fn is_void(&self) -> bool {
        match self {
            FstLabel::Eps => false,
            FstLabel::In(s) | FstLabel::Out(s) | FstLabel::Id(s) => s.is_empty(),
            FstLabel::Pair(a, b) => a.is_empty() || b.is_empty(),
        }
    }
}

/// A symbolic finite-state transducer.
///
/// # Examples
///
/// ```
/// use rela_automata::{Fst, FstLabel, SymSet, Symbol};
/// let a = Symbol::from_index(0);
/// let b = Symbol::from_index(1);
/// // the relation a × b (paper §6.1 example): read a, write b
/// let mut fst = Fst::new();
/// let q1 = fst.add_state();
/// fst.add_arc(fst.start(), FstLabel::Pair(SymSet::singleton(a), SymSet::singleton(b)), q1);
/// fst.set_accepting(q1, true);
/// assert!(fst.relates(&[a], &[b]));
/// assert!(!fst.relates(&[a], &[a]));
/// assert!(!fst.relates(&[b], &[b]));
/// ```
// `len()` counts states; an `is_empty()` here would read as *language*
// emptiness, which is a separate concept (`language_is_empty`) — so the
// conventional pairing is suppressed deliberately.
#[allow(clippy::len_without_is_empty)]
#[derive(Debug, Clone)]
pub struct Fst {
    arcs: Vec<Vec<(FstLabel, StateId)>>,
    accepting: Vec<bool>,
    start: StateId,
}

impl Default for Fst {
    fn default() -> Self {
        Self::new()
    }
}

impl Fst {
    /// A fresh transducer denoting the empty relation.
    pub fn new() -> Fst {
        Fst {
            arcs: vec![Vec::new()],
            accepting: vec![false],
            start: 0,
        }
    }

    /// The empty relation (RIR relation `0`).
    pub fn empty_relation() -> Fst {
        Fst::new()
    }

    /// The relation `{(ε, ε)}` (RIR relation `1`).
    pub fn eps_relation() -> Fst {
        let mut f = Fst::new();
        f.accepting[0] = true;
        f
    }

    /// The identity relation on the language of `nfa`: `I(P)`.
    pub fn identity(nfa: &Nfa) -> Fst {
        let mut f = Fst::new();
        for _ in 1..nfa.len() {
            f.add_state();
        }
        f.start = nfa.start();
        for s in 0..nfa.len() {
            for (label, t) in nfa.arcs_from(s) {
                f.arcs[s].push((FstLabel::Id(label.clone()), *t));
            }
            for &t in nfa.eps_from(s) {
                f.arcs[s].push((FstLabel::Eps, t));
            }
            f.accepting[s] = nfa.is_accepting(s);
        }
        f
    }

    /// The cross-product relation `P₁ × P₂`: every path of `left` is
    /// related to every path of `right` (paper §6.1: read `P₁` on the
    /// first tape, then write `P₂` on the second).
    pub fn cross(left: &Nfa, right: &Nfa) -> Fst {
        let mut f = Fst::new();
        // input half: left's arcs consume, writing nothing
        let li = f.absorb_as(left, FstLabel::In);
        // output half: right's arcs produce, reading nothing
        let ri = f.absorb_as(right, FstLabel::Out);
        f.add_arc(f.start, FstLabel::Eps, li.0);
        // connect left's accepting states to right's start
        for s in li.1 {
            f.add_arc(s, FstLabel::Eps, ri.0);
        }
        for s in ri.1 {
            f.accepting[s] = true;
        }
        f
    }

    /// Absorb an NFA, converting each symbolic arc through `mk`. Returns
    /// (mapped start, mapped accepting states); accepting flags are *not*
    /// set on the result.
    fn absorb_as(&mut self, nfa: &Nfa, mk: impl Fn(SymSet) -> FstLabel) -> (StateId, Vec<StateId>) {
        let offset = self.arcs.len();
        for _ in 0..nfa.len() {
            self.add_state();
        }
        for s in 0..nfa.len() {
            for (label, t) in nfa.arcs_from(s) {
                self.arcs[offset + s].push((mk(label.clone()), offset + t));
            }
            for &t in nfa.eps_from(s) {
                self.arcs[offset + s].push((FstLabel::Eps, offset + t));
            }
        }
        let accs = nfa.accepting_states().map(|s| offset + s).collect();
        (offset + nfa.start(), accs)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// True if there are no states (cannot happen via public API).
    pub fn is_empty_states(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Add a fresh non-accepting state.
    pub fn add_state(&mut self) -> StateId {
        self.arcs.push(Vec::new());
        self.accepting.push(false);
        self.arcs.len() - 1
    }

    /// Add an arc; void labels (containing an empty set) are dropped.
    pub fn add_arc(&mut self, from: StateId, label: FstLabel, to: StateId) {
        if !label.is_void() {
            self.arcs[from].push((label, to));
        }
    }

    /// Mark or unmark an accepting state.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state] = accepting;
    }

    /// Whether `state` accepts.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// Outgoing arcs of `state`.
    pub fn arcs_from(&self, state: StateId) -> &[(FstLabel, StateId)] {
        &self.arcs[state]
    }

    /// Iterate accepting states.
    pub fn accepting_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.accepting
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
    }

    /// Copy `other`'s states into `self`; returns the id offset.
    pub(crate) fn absorb(&mut self, other: &Fst) -> usize {
        let offset = self.arcs.len();
        for s in 0..other.len() {
            let ns = self.add_state();
            self.accepting[ns] = other.accepting[s];
            debug_assert_eq!(ns, offset + s);
        }
        for s in 0..other.len() {
            for (label, t) in &other.arcs[s] {
                self.arcs[offset + s].push((label.clone(), offset + t));
            }
        }
        offset
    }

    /// Relation union (Thompson-style).
    pub fn union(&self, other: &Fst) -> Fst {
        let mut out = Fst::new();
        let a = out.absorb(self);
        let b = out.absorb(other);
        out.add_arc(out.start, FstLabel::Eps, a + self.start);
        out.add_arc(out.start, FstLabel::Eps, b + other.start);
        out
    }

    /// Relation concatenation: `{(p₁p₂, q₁q₂) : (p₁,q₁) ∈ R₁, (p₂,q₂) ∈ R₂}`.
    pub fn concat(&self, other: &Fst) -> Fst {
        let mut out = Fst::new();
        let a = out.absorb(self);
        let b = out.absorb(other);
        out.add_arc(out.start, FstLabel::Eps, a + self.start);
        for s in 0..self.len() {
            if self.accepting[s] {
                out.accepting[a + s] = false;
                out.add_arc(a + s, FstLabel::Eps, b + other.start);
            }
        }
        out
    }

    /// Relation Kleene star.
    pub fn star(&self) -> Fst {
        let mut out = Fst::new();
        let a = out.absorb(self);
        out.add_arc(out.start, FstLabel::Eps, a + self.start);
        out.accepting[out.start] = true;
        for s in 0..self.len() {
            if self.accepting[s] {
                out.add_arc(a + s, FstLabel::Eps, out.start);
            }
        }
        out
    }

    /// The inverse relation (swap the tapes).
    pub fn invert(&self) -> Fst {
        let mut out = self.clone();
        for row in out.arcs.iter_mut() {
            for (label, _) in row.iter_mut() {
                *label = match label.clone() {
                    FstLabel::Eps => FstLabel::Eps,
                    FstLabel::In(s) => FstLabel::Out(s),
                    FstLabel::Out(s) => FstLabel::In(s),
                    FstLabel::Pair(a, b) => FstLabel::Pair(b, a),
                    FstLabel::Id(s) => FstLabel::Id(s),
                };
            }
        }
        out
    }

    /// Project to the input tape: the domain of the relation, as an NFA.
    pub fn domain(&self) -> Nfa {
        self.project(|label| match label {
            FstLabel::Eps | FstLabel::Out(_) => None,
            FstLabel::In(s) | FstLabel::Id(s) => Some(s.clone()),
            FstLabel::Pair(s, _) => Some(s.clone()),
        })
    }

    /// Project to the output tape: the range of the relation, as an NFA.
    pub fn range(&self) -> Nfa {
        self.project(|label| match label {
            FstLabel::Eps | FstLabel::In(_) => None,
            FstLabel::Out(s) | FstLabel::Id(s) => Some(s.clone()),
            FstLabel::Pair(_, s) => Some(s.clone()),
        })
    }

    fn project(&self, side: impl Fn(&FstLabel) -> Option<SymSet>) -> Nfa {
        let mut nfa = Nfa::new();
        for _ in 1..self.len() {
            nfa.add_state();
        }
        nfa.set_start(self.start);
        for s in 0..self.len() {
            for (label, t) in &self.arcs[s] {
                match side(label) {
                    Some(set) => nfa.add_arc(s, set, *t),
                    None => nfa.add_eps(s, *t),
                }
            }
            if self.accepting[s] {
                nfa.set_accepting(s, true);
            }
        }
        nfa
    }

    /// Direct simulation: does the relation contain the pair `(x, y)`?
    ///
    /// Explores configurations `(state, i, j)` where `i`/`j` are positions
    /// in `x`/`y`. Intended for tests; the decision procedure uses
    /// composition + projection instead.
    pub fn relates(&self, x: &[Symbol], y: &[Symbol]) -> bool {
        use crate::hash::FixedSet;
        let mut seen: FixedSet<(StateId, usize, usize)> = FixedSet::default();
        let mut stack = vec![(self.start, 0usize, 0usize)];
        while let Some((s, i, j)) = stack.pop() {
            if !seen.insert((s, i, j)) {
                continue;
            }
            if i == x.len() && j == y.len() && self.accepting[s] {
                return true;
            }
            for (label, t) in &self.arcs[s] {
                match label {
                    FstLabel::Eps => stack.push((*t, i, j)),
                    FstLabel::In(set) => {
                        if i < x.len() && set.contains(x[i]) {
                            stack.push((*t, i + 1, j));
                        }
                    }
                    FstLabel::Out(set) => {
                        if j < y.len() && set.contains(y[j]) {
                            stack.push((*t, i, j + 1));
                        }
                    }
                    FstLabel::Pair(si, so) => {
                        if i < x.len() && j < y.len() && si.contains(x[i]) && so.contains(y[j]) {
                            stack.push((*t, i + 1, j + 1));
                        }
                    }
                    FstLabel::Id(set) => {
                        if i < x.len() && j < y.len() && x[i] == y[j] && set.contains(x[i]) {
                            stack.push((*t, i + 1, j + 1));
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn sym(ix: usize) -> Symbol {
        Symbol::from_index(ix)
    }

    #[test]
    fn empty_relation_relates_nothing() {
        let f = Fst::empty_relation();
        assert!(!f.relates(&[], &[]));
        assert!(!f.relates(&[sym(0)], &[sym(0)]));
    }

    #[test]
    fn eps_relation_relates_empty_pair_only() {
        let f = Fst::eps_relation();
        assert!(f.relates(&[], &[]));
        assert!(!f.relates(&[sym(0)], &[]));
        assert!(!f.relates(&[], &[sym(0)]));
    }

    #[test]
    fn identity_relates_path_to_itself() {
        let a = sym(0);
        let b = sym(1);
        let p = Regex::union(vec![Regex::word(&[a, b]), Regex::sym(b)]).to_nfa();
        let f = Fst::identity(&p);
        assert!(f.relates(&[a, b], &[a, b]));
        assert!(f.relates(&[b], &[b]));
        assert!(!f.relates(&[a, b], &[b]));
        assert!(!f.relates(&[a], &[a])); // a ∉ P
    }

    #[test]
    fn identity_over_sets_requires_same_symbol() {
        let a = sym(0);
        let b = sym(1);
        // I({a,b}): one-symbol paths
        let p = Nfa::symbol_set(SymSet::from_syms(vec![a, b]));
        let f = Fst::identity(&p);
        assert!(f.relates(&[a], &[a]));
        assert!(f.relates(&[b], &[b]));
        assert!(!f.relates(&[a], &[b]), "Id must not cross symbols");
    }

    #[test]
    fn cross_relates_all_pairs() {
        let a = sym(0);
        let b = sym(1);
        let c = sym(2);
        let left = Regex::union(vec![Regex::sym(a), Regex::word(&[a, a])]).to_nfa();
        let right = Regex::union(vec![Regex::sym(b), Regex::sym(c)]).to_nfa();
        let f = Fst::cross(&left, &right);
        assert!(f.relates(&[a], &[b]));
        assert!(f.relates(&[a], &[c]));
        assert!(f.relates(&[a, a], &[b]));
        assert!(f.relates(&[a, a], &[c]));
        assert!(!f.relates(&[a], &[a]));
        assert!(!f.relates(&[b], &[b]));
    }

    #[test]
    fn cross_with_empty_side_is_empty() {
        let a = sym(0);
        let left = Regex::sym(a).to_nfa();
        let empty = Nfa::empty_language();
        let f = Fst::cross(&left, &empty);
        assert!(!f.relates(&[a], &[]));
        let g = Fst::cross(&empty, &left);
        assert!(!g.relates(&[], &[a]));
    }

    #[test]
    fn union_of_relations() {
        let a = sym(0);
        let b = sym(1);
        let f1 = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let f2 = Fst::identity(&Regex::sym(a).to_nfa());
        let u = f1.union(&f2);
        assert!(u.relates(&[a], &[b]));
        assert!(u.relates(&[a], &[a]));
        assert!(!u.relates(&[b], &[a]));
    }

    #[test]
    fn concat_of_relations() {
        let a = sym(0);
        let b = sym(1);
        let c = sym(2);
        // (a→b) then identity on c: relates ac → bc
        let f1 = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let f2 = Fst::identity(&Regex::sym(c).to_nfa());
        let cat = f1.concat(&f2);
        assert!(cat.relates(&[a, c], &[b, c]));
        assert!(!cat.relates(&[a], &[b]));
        assert!(!cat.relates(&[a, c], &[b, b]));
    }

    #[test]
    fn star_of_relation() {
        let a = sym(0);
        let b = sym(1);
        let f = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa()).star();
        assert!(f.relates(&[], &[]));
        assert!(f.relates(&[a], &[b]));
        assert!(f.relates(&[a, a, a], &[b, b, b]));
        assert!(!f.relates(&[a, a], &[b]));
    }

    #[test]
    fn invert_swaps_tapes() {
        let a = sym(0);
        let b = sym(1);
        let f = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let g = f.invert();
        assert!(g.relates(&[b], &[a]));
        assert!(!g.relates(&[a], &[b]));
    }

    #[test]
    fn domain_and_range_projections() {
        let a = sym(0);
        let b = sym(1);
        let f = Fst::cross(&Regex::sym(a).plus().to_nfa(), &Regex::sym(b).to_nfa());
        let dom = f.domain();
        assert!(dom.accepts(&[a]));
        assert!(dom.accepts(&[a, a]));
        assert!(!dom.accepts(&[b]));
        let rng = f.range();
        assert!(rng.accepts(&[b]));
        assert!(!rng.accepts(&[a]));
        assert!(!rng.accepts(&[b, b]));
    }

    #[test]
    fn identity_projections_equal_base_language() {
        let a = sym(0);
        let b = sym(1);
        let base = Regex::concat(vec![Regex::sym(a), Regex::sym(b).star()]).to_nfa();
        let f = Fst::identity(&base);
        for w in [vec![a], vec![a, b], vec![a, b, b], vec![b], vec![]] {
            assert_eq!(base.accepts(&w), f.domain().accepts(&w));
            assert_eq!(base.accepts(&w), f.range().accepts(&w));
        }
    }
}
