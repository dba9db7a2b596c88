//! DFA minimization via Hopcroft's partition-refinement algorithm.
//!
//! Symbolic arcs are first discretized against the automaton's *global
//! minterms* (the coarsest partition of the alphabet that all arc labels
//! respect), Hopcroft runs over that dense class alphabet, and the result
//! is re-symbolized by unioning the classes of merged arcs.

use crate::dfa::Dfa;
use crate::hash::FixedMap;
use crate::symset::{minterms, SymSet};

/// Minimize a DFA. The result is the canonical minimal partial DFA for
/// the language (dead states removed, then Myhill–Nerode classes merged).
///
/// # Examples
///
/// ```
/// use rela_automata::{determinize, minimize, Regex, Symbol};
/// let a = Symbol::from_index(0);
/// // (a|aa)* ≡ a*
/// let re = Regex::union(vec![Regex::sym(a), Regex::word(&[a, a])]).star();
/// let m = minimize(&determinize(&re.to_nfa()));
/// assert_eq!(m.len(), 1);
/// assert!(m.accepts(&[a, a, a]));
/// ```
pub fn minimize(dfa: &Dfa) -> Dfa {
    // Work on the completed, reachable automaton so the transition
    // function is total; trim dead states at the end.
    let dfa = dfa.trim_unreachable().complete();
    let n = dfa.len();
    if n == 0 {
        return Dfa::empty_language();
    }

    // 1. Global minterms over every arc label in the automaton.
    let mut labels: Vec<SymSet> = Vec::new();
    for s in 0..n {
        for (l, _) in dfa.arcs_from(s) {
            labels.push(l.clone());
        }
    }
    let classes = minterms(&labels);
    let k = classes.len();

    // 2. Dense transition table: state × class → state.
    let mut delta = vec![usize::MAX; n * k];
    for s in 0..n {
        for (c, class) in classes.iter().enumerate() {
            // `class` is a minterm: contained in exactly one arc label of a
            // complete DFA state.
            let t = dfa
                .arcs_from(s)
                .iter()
                .find(|(l, _)| class.is_subset(l))
                .map(|&(_, t)| t)
                .expect("complete DFA must cover every minterm");
            delta[s * k + c] = t;
        }
    }
    // Reverse transitions per class.
    let mut rdelta: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); n]; k];
    for s in 0..n {
        for c in 0..k {
            rdelta[c][delta[s * k + c]].push(s);
        }
    }

    // 3. Hopcroft refinement.
    let mut block_of: Vec<usize> = (0..n)
        .map(|s| if dfa.is_accepting(s) { 0 } else { 1 })
        .collect();
    let accepting_count = block_of.iter().filter(|&&b| b == 0).count();
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); 2];
    for s in 0..n {
        blocks[block_of[s]].push(s);
    }
    // drop an empty class if all states agree on acceptance
    if accepting_count == 0 {
        blocks.remove(0);
        for b in block_of.iter_mut() {
            *b = 0;
        }
    } else if accepting_count == n {
        blocks.pop();
    }

    let mut worklist: Vec<(usize, usize)> = Vec::new(); // (block, class)
    for c in 0..k {
        // push the smaller block for the classic complexity bound
        if blocks.len() == 2 {
            let smaller = if blocks[0].len() <= blocks[1].len() {
                0
            } else {
                1
            };
            worklist.push((smaller, c));
        } else {
            worklist.push((0, c));
        }
    }

    while let Some((bid, c)) = worklist.pop() {
        // states with a c-transition into block `bid`
        let splitter: Vec<usize> = blocks[bid].clone();
        let mut preimage: Vec<usize> = Vec::new();
        for &t in &splitter {
            preimage.extend(rdelta[c][t].iter().copied());
        }
        if preimage.is_empty() {
            continue;
        }
        // group preimage states by their current block
        let mut touched: FixedMap<usize, Vec<usize>> = FixedMap::default();
        for s in preimage {
            touched.entry(block_of[s]).or_default().push(s);
        }
        for (block_id, mut members) in touched {
            members.sort_unstable();
            members.dedup();
            if members.len() == blocks[block_id].len() {
                continue; // no split: the whole block maps into bid
            }
            // split: `members` leave `block_id` into a new block
            let new_id = blocks.len();
            blocks[block_id].retain(|s| !members.contains(s));
            for &s in &members {
                block_of[s] = new_id;
            }
            blocks.push(members);
            let (smaller, larger) = if blocks[new_id].len() <= blocks[block_id].len() {
                (new_id, block_id)
            } else {
                (block_id, new_id)
            };
            for cc in 0..k {
                // Hopcroft: if (block_id, cc) is pending, both halves will be
                // processed via it plus the new entry; otherwise the smaller
                // half suffices.
                if worklist.contains(&(block_id, cc)) {
                    worklist.push((new_id, cc));
                } else {
                    let _ = larger;
                    worklist.push((smaller, cc));
                }
            }
        }
    }

    // 4. Build the quotient automaton, re-symbolizing arcs.
    let num_blocks = blocks.len();
    let mut arcs: Vec<Vec<(SymSet, usize)>> = vec![Vec::new(); num_blocks];
    let mut accepting = vec![false; num_blocks];
    for (bid, members) in blocks.iter().enumerate() {
        let rep = members[0];
        accepting[bid] = dfa.is_accepting(rep);
        // union minterm classes per target block
        let mut per_target: FixedMap<usize, SymSet> = FixedMap::default();
        for (c, class) in classes.iter().enumerate() {
            let target_block = block_of[delta[rep * k + c]];
            per_target
                .entry(target_block)
                .and_modify(|s| *s = s.union(class))
                .or_insert_with(|| class.clone());
        }
        let mut row: Vec<(SymSet, usize)> = per_target.into_iter().map(|(t, l)| (l, t)).collect();
        row.sort_by_key(|&(_, t)| t);
        arcs[bid] = row;
    }
    Dfa::from_parts(arcs, accepting, block_of[dfa.start()]).trim_dead()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinize::determinize;
    use crate::regex::Regex;
    use crate::Symbol;

    fn sym(ix: usize) -> Symbol {
        Symbol::from_index(ix)
    }

    fn min_of(re: &Regex) -> Dfa {
        minimize(&determinize(&re.to_nfa()))
    }

    #[test]
    fn sigma_star_is_one_state() {
        let m = min_of(&Regex::any_star());
        assert_eq!(m.len(), 1);
        assert!(m.accepts(&[]));
        assert!(m.accepts(&[sym(3), sym(1)]));
    }

    #[test]
    fn empty_language_minimizes_small() {
        let m = min_of(&Regex::Empty);
        assert!(m.language_is_empty());
        assert!(m.len() <= 1);
    }

    #[test]
    fn equivalent_regexes_same_size() {
        let a = sym(0);
        let b = sym(1);
        // (a|b)* and (a*b*)* denote the same language
        let r1 = Regex::union(vec![Regex::sym(a), Regex::sym(b)]).star();
        let r2 = Regex::concat(vec![Regex::sym(a).star(), Regex::sym(b).star()]).star();
        let m1 = min_of(&r1);
        let m2 = min_of(&r2);
        assert_eq!(m1.len(), m2.len());
        for w in [vec![], vec![a], vec![b, a, b], vec![a, a, b]] {
            assert!(m1.accepts(&w) && m2.accepts(&w));
        }
    }

    #[test]
    fn preserves_language_on_samples() {
        let a = sym(0);
        let b = sym(1);
        let c = sym(2);
        let re = Regex::concat(vec![
            Regex::union(vec![Regex::word(&[a, b]), Regex::sym(c).plus()]),
            Regex::any_star(),
        ]);
        let d = determinize(&re.to_nfa());
        let m = minimize(&d);
        assert!(m.len() <= d.len());
        for w in [
            vec![],
            vec![a],
            vec![a, b],
            vec![c],
            vec![c, c, a],
            vec![a, b, c, a],
            vec![b, a],
        ] {
            assert_eq!(d.accepts(&w), m.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn distinguishable_states_not_merged() {
        let a = sym(0);
        // language {a, aaa}: needs distinct states for lengths 0..=3
        let re = Regex::union(vec![Regex::word(&[a]), Regex::word(&[a, a, a])]);
        let m = min_of(&re);
        assert!(m.accepts(&[a]));
        assert!(!m.accepts(&[a, a]));
        assert!(m.accepts(&[a, a, a]));
        assert!(!m.accepts(&[a, a, a, a]));
    }

    #[test]
    fn moore_style_counter() {
        // words over {a} whose length ≡ 0 (mod 3)
        let a = sym(0);
        let re = Regex::word(&[a, a, a]).star();
        let m = min_of(&re);
        assert_eq!(m.len(), 3);
        assert!(m.accepts(&[]));
        assert!(!m.accepts(&[a]));
        assert!(!m.accepts(&[a, a]));
        assert!(m.accepts(&[a, a, a]));
        assert!(m.accepts(&[a; 6]));
    }

    #[test]
    fn cofinite_language_minimization() {
        // .* \ {a} expressed as: ε | (!{a}) | ..+ — "anything except the 1-path a"
        let a = sym(0);
        let re = Regex::union(vec![
            Regex::Eps,
            Regex::Set(SymSet::all_except(vec![a])),
            Regex::concat(vec![Regex::any(), Regex::any(), Regex::any_star()]),
        ]);
        let m = min_of(&re);
        assert!(m.accepts(&[]));
        assert!(!m.accepts(&[a]));
        assert!(m.accepts(&[sym(1)]));
        assert!(m.accepts(&[a, a]));
    }
}
