//! Subset-construction determinization for symbolic ε-NFAs.
//!
//! The classical algorithm is adapted to set-labelled arcs by computing
//! *local minterms*: at each subset state, the outgoing arc labels are
//! refined into pairwise-disjoint sets, and one DFA transition is emitted
//! per minterm. This keeps the construction independent of the (open)
//! alphabet size.

use crate::dfa::Dfa;
use crate::hash::FixedMap;
use crate::nfa::{Nfa, StateId};
use crate::symset::{minterms, SymSet};

/// Determinize `nfa` via subset construction.
///
/// The result is a partial DFA (missing transitions reject) whose language
/// equals the NFA's.
///
/// # Examples
///
/// ```
/// use rela_automata::{determinize, Nfa, Regex, Symbol};
/// let a = Symbol::from_index(0);
/// let n = Regex::sym(a).star().to_nfa();
/// let d = determinize(&n);
/// assert!(d.accepts(&[]));
/// assert!(d.accepts(&[a, a]));
/// assert!(!d.accepts(&[Symbol::from_index(1)]));
/// ```
pub fn determinize(nfa: &Nfa) -> Dfa {
    let start_set = nfa.eps_closure(&[nfa.start()]);
    let mut index: FixedMap<Vec<StateId>, StateId> = FixedMap::default();
    let mut arcs: Vec<Vec<(SymSet, StateId)>> = vec![Vec::new()];
    let mut accepting = vec![start_set.iter().any(|&s| nfa.is_accepting(s))];
    index.insert(start_set.clone(), 0);
    let mut work = vec![start_set];

    while let Some(subset) = work.pop() {
        let sid = index[&subset];
        // gather outgoing labels of the whole subset
        let mut labels: Vec<SymSet> = Vec::new();
        for &s in &subset {
            for (label, _) in nfa.arcs_from(s) {
                labels.push(label.clone());
            }
        }
        if labels.is_empty() {
            continue;
        }
        for part in minterms(&labels) {
            // targets reachable by any symbol in `part`; since `part` is a
            // minterm, it is either inside or disjoint from each label
            let mut targets: Vec<StateId> = Vec::new();
            for &s in &subset {
                for (label, t) in nfa.arcs_from(s) {
                    if part.is_subset(label) {
                        targets.push(*t);
                    }
                }
            }
            if targets.is_empty() {
                continue;
            }
            // overlapping arcs (several labels covering the same minterm,
            // or several subset states reaching one target) push the same
            // state repeatedly; dedup before the closure walk so its seed
            // loop and scratch allocations scale with *distinct* targets
            targets.sort_unstable();
            targets.dedup();
            let closure = nfa.eps_closure(&targets);
            let tid = *index.entry(closure.clone()).or_insert_with(|| {
                arcs.push(Vec::new());
                accepting.push(closure.iter().any(|&s| nfa.is_accepting(s)));
                work.push(closure.clone());
                arcs.len() - 1
            });
            arcs[sid].push((part, tid));
        }
        // merge arcs that lead to the same target (cosmetic, keeps DFAs small)
        let row = &mut arcs[sid];
        row.sort_by_key(|&(_, t)| t);
        let mut merged: Vec<(SymSet, StateId)> = Vec::with_capacity(row.len());
        for (label, t) in row.drain(..) {
            match merged.last_mut() {
                Some((ml, mt)) if *mt == t => *ml = ml.union(&label),
                _ => merged.push((label, t)),
            }
        }
        *row = merged;
    }

    Dfa::from_parts(arcs, accepting, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use crate::Symbol;

    fn sym(ix: usize) -> Symbol {
        Symbol::from_index(ix)
    }

    /// Check NFA and DFA agree on a batch of words.
    fn assert_same_language(n: &Nfa, words: &[Vec<Symbol>]) {
        let d = determinize(n);
        for w in words {
            assert_eq!(n.accepts(w), d.accepts(w), "word {w:?}");
        }
    }

    #[test]
    fn simple_word() {
        let n = Nfa::word(&[sym(0), sym(1)]);
        assert_same_language(
            &n,
            &[
                vec![],
                vec![sym(0)],
                vec![sym(0), sym(1)],
                vec![sym(1), sym(0)],
                vec![sym(0), sym(1), sym(1)],
            ],
        );
    }

    #[test]
    fn union_with_shared_prefix() {
        // ab | ac — classic determinization case
        let n = Regex::union(vec![
            Regex::word(&[sym(0), sym(1)]),
            Regex::word(&[sym(0), sym(2)]),
        ])
        .to_nfa();
        assert_same_language(
            &n,
            &[
                vec![sym(0), sym(1)],
                vec![sym(0), sym(2)],
                vec![sym(0)],
                vec![sym(0), sym(0)],
                vec![sym(1)],
            ],
        );
    }

    #[test]
    fn overlapping_symbolic_labels() {
        // arcs with overlapping *sets*: {0,1} to accept, {1,2} to a loop
        let mut n = Nfa::new();
        let acc = n.add_state();
        let other = n.add_state();
        n.add_arc(n.start(), SymSet::from_syms(vec![sym(0), sym(1)]), acc);
        n.add_arc(n.start(), SymSet::from_syms(vec![sym(1), sym(2)]), other);
        n.add_arc(other, SymSet::universe(), other);
        n.set_accepting(acc, true);
        let d = determinize(&n);
        assert!(d.accepts(&[sym(0)]));
        assert!(d.accepts(&[sym(1)]));
        assert!(!d.accepts(&[sym(2)]));
        assert!(!d.accepts(&[sym(1), sym(5)]));
    }

    #[test]
    fn cofinite_labels() {
        // !{0} followed by anything
        let mut n = Nfa::new();
        let q = n.add_state();
        n.add_arc(n.start(), SymSet::all_except(vec![sym(0)]), q);
        n.add_arc(q, SymSet::universe(), q);
        n.set_accepting(q, true);
        let d = determinize(&n);
        assert!(!d.accepts(&[sym(0)]));
        assert!(d.accepts(&[sym(1)]));
        assert!(d.accepts(&[sym(2), sym(0), sym(0)]));
        assert!(!d.accepts(&[]));
    }

    #[test]
    fn epsilon_chains() {
        let n = Regex::concat(vec![
            Regex::sym(sym(0)).optional(),
            Regex::sym(sym(1)).optional(),
            Regex::sym(sym(2)).optional(),
        ])
        .to_nfa();
        assert_same_language(
            &n,
            &[
                vec![],
                vec![sym(0)],
                vec![sym(1)],
                vec![sym(2)],
                vec![sym(0), sym(2)],
                vec![sym(0), sym(1), sym(2)],
                vec![sym(2), sym(1)],
                vec![sym(0), sym(0)],
            ],
        );
    }

    #[test]
    fn determinism_invariant_holds() {
        // (.*a.*) — forces subset splitting on overlapping . and {a}
        let a = sym(0);
        let n = Regex::concat(vec![Regex::any_star(), Regex::sym(a), Regex::any_star()]).to_nfa();
        let d = determinize(&n);
        for s in 0..d.len() {
            let row = d.arcs_from(s);
            for i in 0..row.len() {
                for j in i + 1..row.len() {
                    assert!(
                        !row[i].0.intersects(&row[j].0),
                        "state {s}: arcs {i} and {j} overlap"
                    );
                }
            }
        }
        assert!(d.accepts(&[a]));
        assert!(d.accepts(&[sym(5), a, sym(9)]));
        assert!(!d.accepts(&[sym(5), sym(9)]));
    }
}
