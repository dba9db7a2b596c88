//! Deterministic finite automata with symbolic arcs, plus the boolean
//! product constructions (intersection, union, difference).
//!
//! A [`Dfa`] keeps the outgoing arcs of each state *pairwise disjoint*, so
//! at most one arc applies to any symbol. DFAs may be *partial*: a missing
//! transition means "reject". [`Dfa::complete`] materializes the implicit
//! dead state when a total transition function is needed (complementation).

use crate::nfa::{Nfa, StateId};
use crate::symset::{minterms, SymSet};
use crate::Symbol;

/// A symbolic, possibly partial, deterministic finite automaton.
// `len()` counts states; an `is_empty()` here would read as *language*
// emptiness, which is a separate concept (`language_is_empty`) — so the
// conventional pairing is suppressed deliberately.
#[allow(clippy::len_without_is_empty)]
#[derive(Debug, Clone)]
pub struct Dfa {
    arcs: Vec<Vec<(SymSet, StateId)>>,
    accepting: Vec<bool>,
    start: StateId,
}

impl Dfa {
    /// Construct from raw parts. Callers must guarantee determinism
    /// (disjoint arc labels per state); this is checked in debug builds.
    pub fn from_parts(
        arcs: Vec<Vec<(SymSet, StateId)>>,
        accepting: Vec<bool>,
        start: StateId,
    ) -> Dfa {
        debug_assert_eq!(arcs.len(), accepting.len());
        let dfa = Dfa {
            arcs,
            accepting,
            start,
        };
        debug_assert!(dfa.check_deterministic(), "overlapping arc labels");
        dfa
    }

    fn check_deterministic(&self) -> bool {
        for state_arcs in &self.arcs {
            for i in 0..state_arcs.len() {
                for j in i + 1..state_arcs.len() {
                    if state_arcs[i].0.intersects(&state_arcs[j].0) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The automaton rejecting everything.
    pub fn empty_language() -> Dfa {
        Dfa {
            arcs: vec![Vec::new()],
            accepting: vec![false],
            start: 0,
        }
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

    /// Whether `state` accepts.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// Outgoing arcs of `state` (pairwise disjoint labels).
    pub fn arcs_from(&self, state: StateId) -> &[(SymSet, StateId)] {
        &self.arcs[state]
    }

    /// The successor of `state` on `sym`, if any.
    pub fn step(&self, state: StateId, sym: Symbol) -> Option<StateId> {
        self.arcs[state]
            .iter()
            .find(|(label, _)| label.contains(sym))
            .map(|&(_, t)| t)
    }

    /// Does the automaton accept `word`?
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut state = self.start;
        for &sym in word {
            match self.step(state, sym) {
                Some(t) => state = t,
                None => return false,
            }
        }
        self.accepting[state]
    }

    /// True iff the language is empty.
    pub fn language_is_empty(&self) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![self.start];
        seen[self.start] = true;
        while let Some(s) = stack.pop() {
            if self.accepting[s] {
                return false;
            }
            for (_, t) in &self.arcs[s] {
                if !seen[*t] {
                    seen[*t] = true;
                    stack.push(*t);
                }
            }
        }
        true
    }

    /// Make the transition function total by adding an explicit dead state
    /// (if any state is missing coverage). Returns the completed automaton.
    pub fn complete(&self) -> Dfa {
        let mut out = self.clone();
        let mut sink: Option<StateId> = None;
        for s in 0..out.arcs.len() {
            let covered = out.arcs[s]
                .iter()
                .fold(SymSet::empty(), |acc, (l, _)| acc.union(l));
            let rest = covered.complement();
            if !rest.is_empty() {
                let sink_id = *sink.get_or_insert_with(|| {
                    out.arcs.push(Vec::new());
                    out.accepting.push(false);
                    out.arcs.len() - 1
                });
                out.arcs[s].push((rest, sink_id));
            }
        }
        if let Some(sink_id) = sink {
            out.arcs[sink_id] = vec![(SymSet::universe(), sink_id)];
        }
        out
    }

    /// Language complement (relative to the open alphabet Σ*).
    pub fn complement(&self) -> Dfa {
        let mut out = self.complete();
        for a in out.accepting.iter_mut() {
            *a = !*a;
        }
        out
    }

    /// View as an NFA (for further Thompson-style composition).
    pub fn to_nfa(&self) -> Nfa {
        let mut nfa = Nfa::new();
        for _ in 1..self.len() {
            nfa.add_state();
        }
        nfa.set_start(self.start);
        for s in 0..self.len() {
            for (label, t) in &self.arcs[s] {
                nfa.add_arc(s, label.clone(), *t);
            }
            if self.accepting[s] {
                nfa.set_accepting(s, true);
            }
        }
        nfa
    }

    /// Remove states unreachable from the start. Language preserved.
    pub fn trim_unreachable(&self) -> Dfa {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut stack = vec![self.start];
        seen[self.start] = true;
        while let Some(s) = stack.pop() {
            for (_, t) in &self.arcs[s] {
                if !seen[*t] {
                    seen[*t] = true;
                    stack.push(*t);
                }
            }
        }
        let mut map = vec![usize::MAX; n];
        let mut next = 0usize;
        for s in 0..n {
            if seen[s] {
                map[s] = next;
                next += 1;
            }
        }
        let mut arcs = vec![Vec::new(); next];
        let mut accepting = vec![false; next];
        for s in 0..n {
            if !seen[s] {
                continue;
            }
            accepting[map[s]] = self.accepting[s];
            for (label, t) in &self.arcs[s] {
                arcs[map[s]].push((label.clone(), map[*t]));
            }
        }
        Dfa {
            arcs,
            accepting,
            start: map[self.start],
        }
    }

    /// Drop arcs that lead to states from which no accepting state is
    /// reachable (useful after complementation/product to keep automata
    /// small). Language preserved; the result may be partial.
    pub fn trim_dead(&self) -> Dfa {
        let n = self.len();
        let mut radj: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for s in 0..n {
            for (_, t) in &self.arcs[s] {
                radj[*t].push(s);
            }
        }
        let mut live = vec![false; n];
        let mut stack: Vec<StateId> = (0..n).filter(|&s| self.accepting[s]).collect();
        for &s in &stack {
            live[s] = true;
        }
        while let Some(s) = stack.pop() {
            for &t in &radj[s] {
                if !live[t] {
                    live[t] = true;
                    stack.push(t);
                }
            }
        }
        let mut out = self.clone();
        for s in 0..n {
            out.arcs[s].retain(|(_, t)| live[*t]);
        }
        out.trim_unreachable()
    }
}

/// Which boolean combination a [`product`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductMode {
    /// `L(a) ∩ L(b)`
    Intersection,
    /// `L(a) ∪ L(b)`
    Union,
    /// `L(a) \ L(b)`
    Difference,
    /// `(L(a) \ L(b)) ∪ (L(b) \ L(a))`
    SymmetricDifference,
}

impl ProductMode {
    fn combine(self, a: bool, b: bool) -> bool {
        match self {
            ProductMode::Intersection => a && b,
            ProductMode::Union => a || b,
            ProductMode::Difference => a && !b,
            ProductMode::SymmetricDifference => a != b,
        }
    }
}

/// Synchronous product of two DFAs under the given boolean mode.
///
/// Partial automata are handled by pairing missing transitions with a
/// virtual dead state, so union/difference are computed correctly without
/// pre-completing the inputs.
///
/// # Examples
///
/// ```
/// use rela_automata::{product, Dfa, Nfa, ProductMode, Symbol, determinize};
/// let a = Symbol::from_index(0);
/// let b = Symbol::from_index(1);
/// let ab = determinize(&Nfa::word(&[a, b]));
/// let any = determinize(&rela_automata::Regex::any_star().to_nfa());
/// let diff = product(&any, &ab, ProductMode::Difference);
/// assert!(diff.accepts(&[a]));
/// assert!(!diff.accepts(&[a, b]));
/// ```
pub fn product(a: &Dfa, b: &Dfa, mode: ProductMode) -> Dfa {
    use crate::hash::FixedMap;
    // `None` encodes the virtual (non-accepting, absorbing) dead state.
    type P = (Option<StateId>, Option<StateId>);
    let accept = |p: &P, a_dfa: &Dfa, b_dfa: &Dfa| -> bool {
        let fa = p.0.map(|s| a_dfa.is_accepting(s)).unwrap_or(false);
        let fb = p.1.map(|s| b_dfa.is_accepting(s)).unwrap_or(false);
        mode.combine(fa, fb)
    };

    let mut index: FixedMap<P, StateId> = FixedMap::default();
    let start_p: P = (Some(a.start()), Some(b.start()));
    let mut arcs: Vec<Vec<(SymSet, StateId)>> = vec![Vec::new()];
    let mut accepting = vec![accept(&start_p, a, b)];
    index.insert(start_p, 0);
    let mut work = vec![start_p];

    while let Some(p) = work.pop() {
        let pid = index[&p];
        // collect arc labels present on either side to build local minterms
        let mut labels: Vec<SymSet> = Vec::new();
        if let Some(sa) = p.0 {
            labels.extend(a.arcs_from(sa).iter().map(|(l, _)| l.clone()));
        }
        if let Some(sb) = p.1 {
            labels.extend(b.arcs_from(sb).iter().map(|(l, _)| l.clone()));
        }
        for part in minterms(&labels) {
            let na = p.0.and_then(|sa| {
                a.arcs_from(sa)
                    .iter()
                    .find(|(l, _)| part.is_subset(l))
                    .map(|&(_, t)| t)
            });
            let nb = p.1.and_then(|sb| {
                b.arcs_from(sb)
                    .iter()
                    .find(|(l, _)| part.is_subset(l))
                    .map(|&(_, t)| t)
            });
            if na.is_none() && nb.is_none() {
                // virtual dead pair: skip, result stays partial
                continue;
            }
            let q: P = (na, nb);
            let qid = *index.entry(q).or_insert_with(|| {
                arcs.push(Vec::new());
                accepting.push(accept(&q, a, b));
                work.push(q);
                arcs.len() - 1
            });
            arcs[pid].push((part, qid));
        }
    }
    Dfa {
        arcs,
        accepting,
        start: 0,
    }
    .trim_dead()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinize::determinize;
    use crate::regex::Regex;

    fn sym(ix: usize) -> Symbol {
        Symbol::from_index(ix)
    }

    fn dfa_of(re: &Regex) -> Dfa {
        determinize(&re.to_nfa())
    }

    #[test]
    fn accepts_matches_regex() {
        let a = sym(0);
        let b = sym(1);
        let d = dfa_of(&Regex::concat(vec![Regex::sym(a).star(), Regex::sym(b)]));
        assert!(d.accepts(&[b]));
        assert!(d.accepts(&[a, a, b]));
        assert!(!d.accepts(&[a]));
        assert!(!d.accepts(&[b, b]));
    }

    #[test]
    fn complete_preserves_language_and_is_total() {
        let a = sym(0);
        let d = dfa_of(&Regex::sym(a)).complete();
        for s in 0..d.len() {
            let covered = d
                .arcs_from(s)
                .iter()
                .fold(SymSet::empty(), |acc, (l, _)| acc.union(l));
            assert!(covered.is_universe(), "state {s} incomplete");
        }
        assert!(d.accepts(&[a]));
        assert!(!d.accepts(&[a, a]));
        assert!(!d.accepts(&[sym(9)]));
    }

    #[test]
    fn complement_flips_membership() {
        let a = sym(0);
        let b = sym(1);
        let d = dfa_of(&Regex::word(&[a, b]));
        let c = d.complement();
        for w in [
            vec![],
            vec![a],
            vec![a, b],
            vec![b, a],
            vec![a, b, a],
            vec![sym(7)],
        ] {
            assert_eq!(d.accepts(&w), !c.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn double_complement_is_identity_on_language() {
        let a = sym(0);
        let d = dfa_of(&Regex::sym(a).plus());
        let cc = d.complement().complement();
        for w in [vec![], vec![a], vec![a, a], vec![sym(3)]] {
            assert_eq!(d.accepts(&w), cc.accepts(&w));
        }
    }

    #[test]
    fn product_intersection() {
        let a = sym(0);
        let b = sym(1);
        // a* ∩ (a|b)(a|b) = aa
        let left = dfa_of(&Regex::sym(a).star());
        let ab = Regex::union(vec![Regex::sym(a), Regex::sym(b)]);
        let right = dfa_of(&Regex::concat(vec![ab.clone(), ab]));
        let p = product(&left, &right, ProductMode::Intersection);
        assert!(p.accepts(&[a, a]));
        assert!(!p.accepts(&[a]));
        assert!(!p.accepts(&[a, b]));
        assert!(!p.accepts(&[a, a, a]));
    }

    #[test]
    fn product_union() {
        let a = sym(0);
        let b = sym(1);
        let left = dfa_of(&Regex::sym(a));
        let right = dfa_of(&Regex::sym(b));
        let p = product(&left, &right, ProductMode::Union);
        assert!(p.accepts(&[a]));
        assert!(p.accepts(&[b]));
        assert!(!p.accepts(&[a, b]));
        assert!(!p.accepts(&[]));
    }

    #[test]
    fn product_difference() {
        let a = sym(0);
        // a* \ aa* = ε
        let left = dfa_of(&Regex::sym(a).star());
        let right = dfa_of(&Regex::sym(a).plus());
        let p = product(&left, &right, ProductMode::Difference);
        assert!(p.accepts(&[]));
        assert!(!p.accepts(&[a]));
        assert!(!p.accepts(&[a, a]));
    }

    #[test]
    fn product_symmetric_difference() {
        let a = sym(0);
        let left = dfa_of(&Regex::sym(a).star());
        let right = dfa_of(&Regex::sym(a).plus());
        let p = product(&left, &right, ProductMode::SymmetricDifference);
        assert!(p.accepts(&[]));
        assert!(!p.accepts(&[a]));
    }

    #[test]
    fn difference_with_universe_is_empty() {
        let a = sym(0);
        let left = dfa_of(&Regex::sym(a));
        let right = dfa_of(&Regex::any_star());
        let p = product(&left, &right, ProductMode::Difference);
        assert!(p.language_is_empty());
    }

    #[test]
    fn trim_dead_keeps_language() {
        let a = sym(0);
        let b = sym(1);
        let d = dfa_of(&Regex::word(&[a, b])).complete();
        let t = d.trim_dead();
        assert!(t.len() <= d.len());
        for w in [vec![], vec![a], vec![a, b], vec![b]] {
            assert_eq!(d.accepts(&w), t.accepts(&w));
        }
    }

    #[test]
    fn empty_language_dfa() {
        let d = Dfa::empty_language();
        assert!(d.language_is_empty());
        assert!(!d.accepts(&[]));
        assert!(d.complement().accepts(&[]));
        assert!(d.complement().accepts(&[sym(4)]));
    }
}
