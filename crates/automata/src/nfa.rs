//! Nondeterministic finite automata with ε-transitions and symbolic
//! (set-labelled) arcs.
//!
//! This is the workhorse representation: forwarding DAGs, Thompson
//! constructions from path patterns, and images of transducer application
//! all land here before determinization.

use crate::symset::SymSet;
use crate::Symbol;

/// Index of a state inside one automaton.
pub type StateId = usize;

/// A symbolic ε-NFA.
///
/// # Examples
///
/// ```
/// use rela_automata::{Nfa, SymSet, Symbol};
///
/// let a = Symbol::from_index(0);
/// let b = Symbol::from_index(1);
/// // language { ab }
/// let mut nfa = Nfa::new();
/// let q0 = nfa.start();
/// let q1 = nfa.add_state();
/// let q2 = nfa.add_state();
/// nfa.add_arc(q0, SymSet::singleton(a), q1);
/// nfa.add_arc(q1, SymSet::singleton(b), q2);
/// nfa.set_accepting(q2, true);
/// assert!(nfa.accepts(&[a, b]));
/// assert!(!nfa.accepts(&[a]));
/// assert!(!nfa.accepts(&[b, a]));
/// ```
// `len()` counts states; an `is_empty()` here would read as *language*
// emptiness, which is a separate concept (`language_is_empty`) — so the
// conventional pairing is suppressed deliberately.
#[allow(clippy::len_without_is_empty)]
#[derive(Debug, Clone)]
pub struct Nfa {
    arcs: Vec<Vec<(SymSet, StateId)>>,
    eps: Vec<Vec<StateId>>,
    accepting: Vec<bool>,
    start: StateId,
}

impl Default for Nfa {
    fn default() -> Self {
        Self::new()
    }
}

impl Nfa {
    /// A fresh automaton with a single non-accepting start state
    /// (recognizing the empty language).
    pub fn new() -> Nfa {
        Nfa {
            arcs: vec![Vec::new()],
            eps: vec![Vec::new()],
            accepting: vec![false],
            start: 0,
        }
    }

    /// The automaton recognizing the empty language `∅`.
    pub fn empty_language() -> Nfa {
        Nfa::new()
    }

    /// The automaton recognizing only the empty path `{ε}`.
    pub fn epsilon_language() -> Nfa {
        let mut n = Nfa::new();
        n.accepting[0] = true;
        n
    }

    /// The automaton recognizing the one-symbol paths drawn from `set`.
    pub fn symbol_set(set: SymSet) -> Nfa {
        let mut n = Nfa::new();
        if !set.is_empty() {
            let acc = n.add_state();
            n.add_arc(n.start, set, acc);
            n.set_accepting(acc, true);
        }
        n
    }

    /// The automaton recognizing exactly the single path `word`.
    pub fn word(word: &[Symbol]) -> Nfa {
        let mut n = Nfa::new();
        let mut cur = n.start;
        for &sym in word {
            let next = n.add_state();
            n.add_arc(cur, SymSet::singleton(sym), next);
            cur = next;
        }
        n.set_accepting(cur, true);
        n
    }

    /// Start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Change the start state.
    pub fn set_start(&mut self, s: StateId) {
        debug_assert!(s < self.len());
        self.start = s;
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// True if the automaton has no states (never happens via public API).
    pub fn is_empty_states(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Add a fresh, non-accepting state and return its id.
    pub fn add_state(&mut self) -> StateId {
        self.arcs.push(Vec::new());
        self.eps.push(Vec::new());
        self.accepting.push(false);
        self.arcs.len() - 1
    }

    /// Add a labelled transition. Arcs with empty labels are dropped.
    pub fn add_arc(&mut self, from: StateId, label: SymSet, to: StateId) {
        if !label.is_empty() {
            self.arcs[from].push((label, to));
        }
    }

    /// Add an ε-transition.
    pub fn add_eps(&mut self, from: StateId, to: StateId) {
        if from != to {
            self.eps[from].push(to);
        }
    }

    /// Mark or unmark a state as accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state] = accepting;
    }

    /// Whether `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// Iterate over accepting states.
    pub fn accepting_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.accepting
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
    }

    /// Outgoing labelled arcs of `state`.
    pub fn arcs_from(&self, state: StateId) -> &[(SymSet, StateId)] {
        &self.arcs[state]
    }

    /// Outgoing ε-arcs of `state`.
    pub fn eps_from(&self, state: StateId) -> &[StateId] {
        &self.eps[state]
    }

    /// ε-closure of a set of states, returned sorted and deduplicated.
    pub fn eps_closure(&self, states: &[StateId]) -> Vec<StateId> {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<StateId> = Vec::with_capacity(states.len());
        for &s in states {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
        let mut out = stack.clone();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                    out.push(t);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Direct simulation: does the automaton accept `word`?
    ///
    /// Intended for tests and small inputs; the decision procedure uses
    /// determinized automata instead.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut current = self.eps_closure(&[self.start]);
        for &sym in word {
            let mut next: Vec<StateId> = Vec::new();
            for &s in &current {
                for (label, t) in &self.arcs[s] {
                    if label.contains(sym) {
                        next.push(*t);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            current = self.eps_closure(&next);
        }
        current.iter().any(|&s| self.accepting[s])
    }

    /// True iff the language of the automaton is empty.
    pub fn language_is_empty(&self) -> bool {
        // BFS from start over both arc kinds looking for an accepting state.
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
            for &t in &self.eps[s] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// Copy all of `other`'s states into `self`, returning the offset to
    /// add to `other`'s state ids. Accepting flags are preserved; the start
    /// state of `other` becomes `offset + other.start()`.
    pub(crate) fn absorb(&mut self, other: &Nfa) -> usize {
        let offset = self.len();
        for s in 0..other.len() {
            let ns = self.add_state();
            debug_assert_eq!(ns, offset + s);
            self.accepting[ns] = other.accepting[s];
        }
        for s in 0..other.len() {
            for (label, t) in &other.arcs[s] {
                self.arcs[offset + s].push((label.clone(), offset + t));
            }
            for &t in &other.eps[s] {
                self.eps[offset + s].push(offset + t);
            }
        }
        offset
    }

    /// Language union via Thompson construction.
    pub fn union(&self, other: &Nfa) -> Nfa {
        let mut out = Nfa::new();
        let a = out.absorb(self);
        let b = out.absorb(other);
        out.add_eps(out.start, a + self.start);
        out.add_eps(out.start, b + other.start);
        out
    }

    /// Language concatenation via Thompson construction.
    pub fn concat(&self, other: &Nfa) -> Nfa {
        let mut out = Nfa::new();
        let a = out.absorb(self);
        let b = out.absorb(other);
        out.add_eps(out.start, a + self.start);
        for s in 0..self.len() {
            if self.accepting[s] {
                out.accepting[a + s] = false;
                out.add_eps(a + s, b + other.start);
            }
        }
        out
    }

    /// Kleene star via Thompson construction.
    pub fn star(&self) -> Nfa {
        let mut out = Nfa::new();
        let a = out.absorb(self);
        out.add_eps(out.start, a + self.start);
        out.set_accepting(out.start, true);
        for s in 0..self.len() {
            if self.accepting[s] {
                out.add_eps(a + s, out.start);
            }
        }
        out
    }

    /// Kleene plus (one or more repetitions).
    pub fn plus(&self) -> Nfa {
        self.concat(&self.star())
    }

    /// Zero-or-one repetition.
    pub fn optional(&self) -> Nfa {
        self.union(&Nfa::epsilon_language())
    }

    /// Remove states that are unreachable from the start or cannot reach
    /// an accepting state. The language is preserved; the resulting
    /// automaton always has at least the start state.
    ///
    /// Consumes the automaton: the labels of surviving arcs are moved,
    /// not cloned (the decide path trims every image it builds and drops
    /// the untrimmed one). Surviving states keep their relative order,
    /// with the start first, and arcs keep theirs. An automaton with no
    /// accepting state trims to [`Nfa::empty_language`] without a pass.
    pub fn trim(mut self) -> Nfa {
        if !self.accepting.contains(&true) {
            return Nfa::new();
        }
        let n = self.len();
        // forward reachability
        let mut fwd = vec![false; n];
        let mut stack = vec![self.start];
        fwd[self.start] = true;
        while let Some(s) = stack.pop() {
            for (_, t) in &self.arcs[s] {
                if !fwd[*t] {
                    fwd[*t] = true;
                    stack.push(*t);
                }
            }
            for &t in &self.eps[s] {
                if !fwd[t] {
                    fwd[t] = true;
                    stack.push(t);
                }
            }
        }
        // backward reachability from accepting states
        let mut radj: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for s in 0..n {
            for (_, t) in &self.arcs[s] {
                radj[*t].push(s);
            }
            for &t in &self.eps[s] {
                radj[t].push(s);
            }
        }
        let mut bwd = vec![false; n];
        let mut stack: Vec<StateId> = self.accepting_states().collect();
        for &s in &stack {
            bwd[s] = true;
        }
        while let Some(s) = stack.pop() {
            for &t in &radj[s] {
                if !bwd[t] {
                    bwd[t] = true;
                    stack.push(t);
                }
            }
        }
        let live: Vec<bool> = (0..n).map(|s| fwd[s] && bwd[s]).collect();
        let mut map = vec![usize::MAX; n];
        let mut out = Nfa::new();
        // keep start alive even if dead so the automaton stays well-formed
        map[self.start] = out.start;
        out.accepting[out.start] = self.accepting[self.start] && live[self.start];
        for s in 0..n {
            if live[s] && map[s] == usize::MAX {
                let ns = out.add_state();
                map[s] = ns;
                out.accepting[ns] = self.accepting[s];
            }
        }
        for s in 0..n {
            if map[s] == usize::MAX {
                continue;
            }
            for (label, t) in std::mem::take(&mut self.arcs[s]) {
                if live[t] {
                    out.arcs[map[s]].push((label, map[t]));
                }
            }
            for &t in &self.eps[s] {
                if live[t] {
                    out.eps[map[s]].push(map[t]);
                }
            }
        }
        out
    }

    /// An equivalent automaton without ε-transitions.
    pub fn remove_eps(&self) -> Nfa {
        let mut out = Nfa::new();
        for _ in 1..self.len() {
            out.add_state();
        }
        out.start = self.start;
        for s in 0..self.len() {
            let closure = self.eps_closure(&[s]);
            let mut accepting = false;
            for &c in &closure {
                if self.accepting[c] {
                    accepting = true;
                }
                for (label, t) in &self.arcs[c] {
                    out.arcs[s].push((label.clone(), *t));
                }
            }
            out.accepting[s] = accepting;
        }
        out
    }

    /// The reversed automaton (accepts the mirror image of each path).
    ///
    /// Uses a fresh start state ε-linked to the original accepting states;
    /// the original start becomes the only accepting state.
    pub fn reverse(&self) -> Nfa {
        let mut out = Nfa::new();
        for _ in 1..self.len() {
            out.add_state();
        }
        for s in 0..self.len() {
            for (label, t) in &self.arcs[s] {
                out.arcs[*t].push((label.clone(), s));
            }
            for &t in &self.eps[s] {
                out.eps[t].push(s);
            }
        }
        let new_start = out.add_state();
        out.start = new_start;
        for s in self.accepting_states() {
            out.add_eps(new_start, s);
        }
        out.accepting = vec![false; out.len()];
        out.accepting[self.start] = true;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(ix: usize) -> Symbol {
        Symbol::from_index(ix)
    }

    #[test]
    fn empty_language_accepts_nothing() {
        let n = Nfa::empty_language();
        assert!(!n.accepts(&[]));
        assert!(!n.accepts(&[sym(0)]));
        assert!(n.language_is_empty());
    }

    #[test]
    fn epsilon_language_accepts_only_empty() {
        let n = Nfa::epsilon_language();
        assert!(n.accepts(&[]));
        assert!(!n.accepts(&[sym(0)]));
        assert!(!n.language_is_empty());
    }

    #[test]
    fn symbol_set_accepts_members() {
        let n = Nfa::symbol_set(SymSet::from_syms(vec![sym(1), sym(2)]));
        assert!(n.accepts(&[sym(1)]));
        assert!(n.accepts(&[sym(2)]));
        assert!(!n.accepts(&[sym(3)]));
        assert!(!n.accepts(&[]));
        assert!(!n.accepts(&[sym(1), sym(1)]));
    }

    #[test]
    fn symbol_set_of_empty_set_is_empty_language() {
        let n = Nfa::symbol_set(SymSet::empty());
        assert!(n.language_is_empty());
    }

    #[test]
    fn word_automaton() {
        let w = [sym(0), sym(1), sym(0)];
        let n = Nfa::word(&w);
        assert!(n.accepts(&w));
        assert!(!n.accepts(&[sym(0), sym(1)]));
        assert!(!n.accepts(&[sym(0), sym(1), sym(0), sym(0)]));
    }

    #[test]
    fn union_concat_star() {
        let a = Nfa::word(&[sym(0)]);
        let b = Nfa::word(&[sym(1)]);
        let u = a.union(&b);
        assert!(u.accepts(&[sym(0)]));
        assert!(u.accepts(&[sym(1)]));
        assert!(!u.accepts(&[sym(0), sym(1)]));

        let c = a.concat(&b);
        assert!(c.accepts(&[sym(0), sym(1)]));
        assert!(!c.accepts(&[sym(0)]));
        assert!(!c.accepts(&[sym(1), sym(0)]));

        let s = c.star();
        assert!(s.accepts(&[]));
        assert!(s.accepts(&[sym(0), sym(1)]));
        assert!(s.accepts(&[sym(0), sym(1), sym(0), sym(1)]));
        assert!(!s.accepts(&[sym(0), sym(1), sym(0)]));
    }

    #[test]
    fn plus_and_optional() {
        let a = Nfa::word(&[sym(0)]);
        let p = a.plus();
        assert!(!p.accepts(&[]));
        assert!(p.accepts(&[sym(0)]));
        assert!(p.accepts(&[sym(0), sym(0), sym(0)]));
        let o = a.optional();
        assert!(o.accepts(&[]));
        assert!(o.accepts(&[sym(0)]));
        assert!(!o.accepts(&[sym(0), sym(0)]));
    }

    #[test]
    fn eps_closure_transitivity() {
        let mut n = Nfa::new();
        let q1 = n.add_state();
        let q2 = n.add_state();
        n.add_eps(n.start(), q1);
        n.add_eps(q1, q2);
        let closure = n.eps_closure(&[n.start()]);
        assert_eq!(closure, vec![0, q1, q2]);
    }

    #[test]
    fn remove_eps_preserves_language() {
        let a = Nfa::word(&[sym(0)]);
        let b = Nfa::word(&[sym(1)]);
        let n = a.union(&b).concat(&a.star());
        let m = n.remove_eps();
        for w in [
            vec![],
            vec![sym(0)],
            vec![sym(1)],
            vec![sym(0), sym(0)],
            vec![sym(1), sym(0), sym(0)],
            vec![sym(1), sym(1)],
        ] {
            assert_eq!(n.accepts(&w), m.accepts(&w), "word {w:?}");
        }
        // no eps arcs remain
        for s in 0..m.len() {
            assert!(m.eps_from(s).is_empty());
        }
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut n = Nfa::new();
        let acc = n.add_state();
        let dead = n.add_state();
        n.add_arc(n.start(), SymSet::singleton(sym(0)), acc);
        n.add_arc(n.start(), SymSet::singleton(sym(1)), dead);
        n.set_accepting(acc, true);
        let t = n.trim();
        assert_eq!(t.len(), 2);
        assert!(t.accepts(&[sym(0)]));
        assert!(!t.accepts(&[sym(1)]));
    }

    #[test]
    fn reverse_reverses_words() {
        let n = Nfa::word(&[sym(0), sym(1), sym(2)]);
        let r = n.reverse();
        assert!(r.accepts(&[sym(2), sym(1), sym(0)]));
        assert!(!r.accepts(&[sym(0), sym(1), sym(2)]));
    }

    #[test]
    fn reverse_of_union() {
        let a = Nfa::word(&[sym(0), sym(1)]);
        let b = Nfa::word(&[sym(2)]);
        let r = a.union(&b).reverse();
        assert!(r.accepts(&[sym(1), sym(0)]));
        assert!(r.accepts(&[sym(2)]));
        assert!(!r.accepts(&[sym(0), sym(1)]));
    }
}
