//! Witness extraction: shortest accepted words and bounded enumeration.
//!
//! Counterexample generation (paper §6.3) extracts concrete violating
//! paths from difference automata. A witness is reported as a sequence of
//! [`SymSet`] constraints; [`concretize`] instantiates it into symbols
//! using a [`SymbolTable`].

use crate::dfa::Dfa;
use crate::nfa::{Nfa, StateId};
use crate::symset::SymSet;
use crate::{Symbol, SymbolTable};
use std::collections::VecDeque;

/// Shortest word accepted by `dfa`, as a sequence of arc labels, or
/// `None` if the language is empty.
pub fn shortest_word(dfa: &Dfa) -> Option<Vec<SymSet>> {
    let mut parent: Vec<Option<(StateId, SymSet)>> = vec![None; dfa.len()];
    let mut seen = vec![false; dfa.len()];
    let mut queue = VecDeque::new();
    queue.push_back(dfa.start());
    seen[dfa.start()] = true;
    let mut hit: Option<StateId> = None;
    while let Some(s) = queue.pop_front() {
        if dfa.is_accepting(s) {
            hit = Some(s);
            break;
        }
        for (label, t) in dfa.arcs_from(s) {
            if !seen[*t] {
                seen[*t] = true;
                parent[*t] = Some((s, label.clone()));
                queue.push_back(*t);
            }
        }
    }
    let mut cur = hit?;
    let mut out = Vec::new();
    while let Some((prev, label)) = parent[cur].take() {
        out.push(label);
        cur = prev;
    }
    out.reverse();
    Some(out)
}

/// Shortest word accepted by an NFA (ε-arcs allowed), or `None`.
pub fn shortest_word_nfa(nfa: &Nfa) -> Option<Vec<SymSet>> {
    // BFS over ε-closed state sets would lose the per-arc labels; instead
    // BFS over single states treating ε as zero-cost edges (0-1 BFS).
    let mut dist = vec![usize::MAX; nfa.len()];
    let mut parent: Vec<Option<(StateId, Option<SymSet>)>> = vec![None; nfa.len()];
    let mut deque = VecDeque::new();
    dist[nfa.start()] = 0;
    deque.push_back(nfa.start());
    let mut best: Option<StateId> = None;
    while let Some(s) = deque.pop_front() {
        if nfa.is_accepting(s) && best.is_none() {
            best = Some(s);
            // keep going only if a shorter path could still appear — BFS
            // with 0-weight edges processed front-first makes this minimal
            break;
        }
        for &t in nfa.eps_from(s) {
            if dist[s] < dist[t] {
                dist[t] = dist[s];
                parent[t] = Some((s, None));
                deque.push_front(t);
            }
        }
        for (label, t) in nfa.arcs_from(s) {
            if dist[s] + 1 < dist[*t] {
                dist[*t] = dist[s] + 1;
                parent[*t] = Some((s, Some(label.clone())));
                deque.push_back(*t);
            }
        }
    }
    let mut cur = best?;
    let mut out = Vec::new();
    while let Some((prev, label)) = parent[cur].take() {
        if let Some(l) = label {
            out.push(l);
        }
        cur = prev;
    }
    out.reverse();
    Some(out)
}

/// Enumerate up to `limit` accepted words of length at most `max_len`,
/// shortest first. Used to report several counterexample paths per
/// violating flow instead of just one.
///
/// **Order** (report bytes rest on it): by length, then lexicographically
/// by arc index along the path — the order a breadth-first walk over
/// prefixes pops them, and what the `#[cfg(test)]` reference below
/// literally does.
///
/// **Cost.** The breadth-first walk visits every prefix, and prefixes
/// multiply with each ECMP hop even when all but a few are dead ends.
/// This walk is layered instead: `layers[k]` marks the states that reach
/// acceptance in exactly `k` more steps (one O(arcs) pass per length),
/// and the depth-first walk for length `len` only follows an arc whose
/// target is in the layer for the steps that remain, so every prefix it
/// touches ends in a listed word: O(limit · len · out-degree) per length.
/// It stops at `limit`, at `max_len`, or at the first empty layer (no
/// state has a word that long, hence none has a longer one).
pub fn enumerate_words(dfa: &Dfa, limit: usize, max_len: usize) -> Vec<Vec<SymSet>> {
    let mut out = Vec::new();
    if limit == 0 {
        return out;
    }
    let mut layers: Vec<Vec<bool>> = Vec::new();
    for len in 0..=max_len {
        let layer: Vec<bool> = match layers.last() {
            None => (0..dfa.len()).map(|s| dfa.is_accepting(s)).collect(),
            Some(shorter) => (0..dfa.len())
                .map(|s| dfa.arcs_from(s).iter().any(|(_, t)| shorter[*t]))
                .collect(),
        };
        if !layer.contains(&true) {
            break;
        }
        layers.push(layer);
        if !layers[len][dfa.start()] {
            continue;
        }
        // each frame is (state, next arc to try); `word` holds the labels
        // of the arcs taken, one per frame below the top
        let mut stack: Vec<(StateId, usize)> = vec![(dfa.start(), 0)];
        let mut word: Vec<&SymSet> = Vec::with_capacity(len);
        while let Some(&(state, from)) = stack.last() {
            if word.len() == len {
                out.push(word.iter().map(|&label| label.clone()).collect());
                if out.len() >= limit {
                    return out;
                }
            } else {
                let finishes = &layers[len - word.len() - 1];
                let arcs = dfa.arcs_from(state);
                if let Some(ix) = (from..arcs.len()).find(|&ix| finishes[arcs[ix].1]) {
                    stack.last_mut().expect("frame was just read").1 = ix + 1;
                    word.push(&arcs[ix].0);
                    stack.push((arcs[ix].1, 0));
                    continue;
                }
            }
            stack.pop();
            word.pop();
        }
    }
    out
}

/// Turn a witness (sequence of symbol-set constraints) into a concrete
/// word, consulting `table` to name a member of each co-finite set.
///
/// Returns `None` if some co-finite constraint excludes every symbol the
/// table knows about (cannot happen when the table covers the location
/// database plus reserved symbols).
pub fn concretize(witness: &[SymSet], table: &SymbolTable) -> Option<Vec<Symbol>> {
    witness
        .iter()
        .map(|set| match set {
            SymSet::Finite(_) => set.some_finite_member(),
            SymSet::CoFinite(excl) => table.any_except(excl),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinize::determinize;
    use crate::regex::Regex;
    use proptest::prelude::*;

    fn sym(ix: usize) -> Symbol {
        Symbol::from_index(ix)
    }

    fn dfa_of(re: &Regex) -> Dfa {
        determinize(&re.to_nfa())
    }

    /// The definition of `enumerate_words`' order: a breadth-first walk
    /// over prefixes pops words by length, then by arc index along the
    /// path. It visits every prefix, so only small inputs finish.
    fn enumerate_words_bfs(dfa: &Dfa, limit: usize, max_len: usize) -> Vec<Vec<SymSet>> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let mut queue: VecDeque<(StateId, Vec<SymSet>)> = VecDeque::new();
        queue.push_back((dfa.start(), Vec::new()));
        while let Some((s, path)) = queue.pop_front() {
            if dfa.is_accepting(s) {
                out.push(path.clone());
                if out.len() >= limit {
                    break;
                }
            }
            if path.len() >= max_len {
                continue;
            }
            for (label, t) in dfa.arcs_from(s) {
                let mut next = path.clone();
                next.push(label.clone());
                queue.push_back((*t, next));
            }
        }
        out
    }

    /// Small DFAs over three symbols: any target per (state, symbol) or
    /// none, so cycles, dead-end branches and partial rows all occur.
    fn dfa_strategy() -> impl Strategy<Value = Dfa> {
        (1usize..7).prop_flat_map(|n| {
            let row = (any::<bool>(), proptest::collection::vec(0..2 * n, 3..=3));
            proptest::collection::vec(row, n..=n).prop_map(move |rows| {
                let arcs = rows
                    .iter()
                    .map(|(_, targets)| {
                        let arc = |(ix, &t): (usize, &usize)| {
                            (t < n).then(|| (SymSet::singleton(sym(ix)), t))
                        };
                        targets.iter().enumerate().filter_map(arc).collect()
                    })
                    .collect();
                let accepting = rows.iter().map(|(accepts, _)| *accepts).collect();
                Dfa::from_parts(arcs, accepting, 0)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn enumerate_matches_the_breadth_first_reference_at_every_cut(dfa in dfa_strategy()) {
            for max_len in 0..=5 {
                let all = enumerate_words_bfs(&dfa, usize::MAX, max_len);
                for limit in (0..=all.len() + 1).chain([usize::MAX]) {
                    prop_assert_eq!(
                        enumerate_words(&dfa, limit, max_len),
                        enumerate_words_bfs(&dfa, limit, max_len),
                        "limit {} max_len {} on {:?}", limit, max_len, dfa
                    );
                }
            }
        }
    }

    /// `hops` hops of four disjoint parallel arcs, each hop with a fifth
    /// arc into a non-accepting dead branch: 4^hops accepted words, all
    /// of length `hops`, and 5^k prefixes of length `k`.
    fn ecmp_chain(hops: usize) -> Dfa {
        let dead = hops + 1;
        let mut arcs: Vec<Vec<(SymSet, StateId)>> = (0..hops)
            .map(|hop| {
                let link = |ix: usize| (SymSet::singleton(sym(5 * hop + ix)), hop + 1);
                let mut row: Vec<_> = (0..4).map(link).collect();
                row.push((SymSet::singleton(sym(5 * hop + 4)), dead));
                row
            })
            .collect();
        arcs.push(Vec::new()); // the accepting end
        arcs.push(vec![(SymSet::universe(), dead)]);
        let accepting = (0..arcs.len()).map(|s| s == hops).collect();
        Dfa::from_parts(arcs, accepting, 0)
    }

    #[test]
    fn enumerate_does_not_walk_dead_prefixes() {
        // the breadth-first walk queues 4^24 live prefixes (and as many
        // dead ones again) before it pops the first word
        let dfa = ecmp_chain(24);
        let words = enumerate_words(&dfa, 4, 64);
        assert_eq!(words.len(), 4);
        for (ix, word) in words.iter().enumerate() {
            assert_eq!(word.len(), 24);
            // arc-index order: only the last hop's link varies
            assert!(word[..23]
                .iter()
                .enumerate()
                .all(|(hop, l)| l.contains(sym(5 * hop))));
            assert!(word[23].contains(sym(5 * 23 + ix)));
        }
        // small enough for the reference to finish
        let small = ecmp_chain(5);
        assert_eq!(
            enumerate_words(&small, 7, 64),
            enumerate_words_bfs(&small, 7, 64)
        );
        assert!(enumerate_words(&dfa, 4, 23).is_empty());
    }

    #[test]
    fn shortest_of_empty_language_is_none() {
        assert_eq!(shortest_word(&Dfa::empty_language()), None);
        assert_eq!(shortest_word_nfa(&Nfa::empty_language()), None);
    }

    #[test]
    fn shortest_of_epsilon_language_is_empty_word() {
        let d = dfa_of(&Regex::Eps);
        assert_eq!(shortest_word(&d), Some(vec![]));
    }

    #[test]
    fn shortest_picks_minimal_length() {
        let a = sym(0);
        let b = sym(1);
        // aaa | b
        let re = Regex::union(vec![Regex::word(&[a, a, a]), Regex::sym(b)]);
        let w = shortest_word(&dfa_of(&re)).unwrap();
        assert_eq!(w.len(), 1);
        assert!(w[0].contains(b));
    }

    #[test]
    fn shortest_nfa_handles_eps_chains() {
        let a = sym(0);
        let re = Regex::concat(vec![Regex::Eps, Regex::sym(a).optional(), Regex::sym(a)]);
        let n = re.to_nfa();
        let w = shortest_word_nfa(&n).unwrap();
        assert_eq!(w.len(), 1);
        assert!(w[0].contains(a));
    }

    #[test]
    fn enumerate_returns_shortest_first() {
        let a = sym(0);
        let d = dfa_of(&Regex::sym(a).star());
        let words = enumerate_words(&d, 3, 10);
        assert_eq!(words.len(), 3);
        assert_eq!(words[0].len(), 0);
        assert_eq!(words[1].len(), 1);
        assert_eq!(words[2].len(), 2);
    }

    #[test]
    fn enumerate_respects_max_len() {
        let a = sym(0);
        let d = dfa_of(&Regex::sym(a).star());
        let words = enumerate_words(&d, 100, 2);
        assert_eq!(words.len(), 3); // ε, a, aa
    }

    #[test]
    fn enumerate_finite_language_exhausts() {
        let a = sym(0);
        let b = sym(1);
        let d = dfa_of(&Regex::union(vec![Regex::sym(a), Regex::word(&[b, b])]));
        let words = enumerate_words(&d, 100, 10);
        assert_eq!(words.len(), 2);
    }

    #[test]
    fn concretize_finite_and_cofinite() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let b = table.intern("b");
        let w = vec![SymSet::singleton(a), SymSet::all_except(vec![a])];
        let conc = concretize(&w, &table).unwrap();
        assert_eq!(conc, vec![a, b]);
    }

    #[test]
    fn concretize_fails_when_everything_excluded() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let w = vec![SymSet::all_except(vec![a])];
        assert_eq!(concretize(&w, &table), None);
    }

    #[test]
    fn witness_words_are_accepted() {
        let a = sym(0);
        let b = sym(1);
        let re = Regex::concat(vec![
            Regex::sym(a),
            Regex::union(vec![Regex::sym(b), Regex::word(&[a, b])]),
        ]);
        let d = dfa_of(&re);
        let mut table = SymbolTable::new();
        table.intern("a"); // index 0
        table.intern("b"); // index 1
        for w in enumerate_words(&d, 10, 5) {
            let conc = concretize(&w, &table).unwrap();
            assert!(d.accepts(&conc), "enumerated word not accepted: {conc:?}");
        }
    }
}
