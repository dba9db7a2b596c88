//! Transducer composition `R₁ ∘ R₂` and relational image `P ⊲ R`.
//!
//! Composition synchronizes the *output* tape of the first machine with
//! the *input* tape of the second. Because our transducers are unweighted
//! (boolean) acceptors, the naive ε-handling — letting either side move
//! independently on arcs that produce/consume nothing on the shared tape —
//! is language-correct; Mohri's ε-filter only matters for weighted
//! machines, where duplicated ε-paths would double-count weights (see
//! DESIGN.md §5).

use crate::dfa::Dfa;
use crate::fst::{Fst, FstLabel};
use crate::hash::FixedMap;
use crate::nfa::{Nfa, StateId};

/// Combine one synchronized step: `first` writes a symbol that `second`
/// reads. Returns `None` when the arcs cannot synchronize.
fn combine(first: &FstLabel, second: &FstLabel) -> Option<FstLabel> {
    use FstLabel::*;
    let label = match (first, second) {
        (Out(s), In(t)) => {
            if !s.intersects(t) {
                return None;
            }
            Eps
        }
        (Out(s), Id(t)) => Out(s.intersect(t)),
        (Out(s), Pair(t, u)) => {
            if !s.intersects(t) {
                return None;
            }
            Out(u.clone())
        }
        (Pair(a, b), In(t)) => {
            if !b.intersects(t) {
                return None;
            }
            In(a.clone())
        }
        (Pair(a, b), Id(t)) => Pair(a.clone(), b.intersect(t)),
        (Pair(a, b), Pair(t, u)) => {
            if !b.intersects(t) {
                return None;
            }
            Pair(a.clone(), u.clone())
        }
        (Id(s), In(t)) => In(s.intersect(t)),
        (Id(s), Id(t)) => Id(s.intersect(t)),
        (Id(s), Pair(t, u)) => Pair(s.intersect(t), u.clone()),
        // arcs that do not touch the shared tape are handled by the
        // independent-move rules in `compose`, not here
        _ => return None,
    };
    if label.is_void() {
        None
    } else {
        Some(label)
    }
}

/// Relational composition: `(x, z) ∈ compose(f, g)` iff there is a `y`
/// with `(x, y) ∈ f` and `(y, z) ∈ g`.
///
/// # Examples
///
/// ```
/// use rela_automata::{compose, Fst, Regex, Symbol};
/// let a = Symbol::from_index(0);
/// let b = Symbol::from_index(1);
/// let c = Symbol::from_index(2);
/// let ab = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
/// let bc = Fst::cross(&Regex::sym(b).to_nfa(), &Regex::sym(c).to_nfa());
/// let ac = compose(&ab, &bc);
/// assert!(ac.relates(&[a], &[c]));
/// assert!(!ac.relates(&[a], &[b]));
/// ```
pub fn compose(f: &Fst, g: &Fst) -> Fst {
    let mut out = Fst::new();
    let mut index: FixedMap<(StateId, StateId), StateId> = FixedMap::default();
    let start_pair = (f.start(), g.start());
    index.insert(start_pair, out.start());
    out.set_accepting(
        out.start(),
        f.is_accepting(f.start()) && g.is_accepting(g.start()),
    );
    let mut work = vec![start_pair];
    while let Some((sf, sg)) = work.pop() {
        let sid = index[&(sf, sg)];
        let push = |out: &mut Fst,
                    index: &mut FixedMap<(StateId, StateId), StateId>,
                    work: &mut Vec<(StateId, StateId)>,
                    label: FstLabel,
                    tf: StateId,
                    tg: StateId| {
            let tid = *index.entry((tf, tg)).or_insert_with(|| {
                let id = out.add_state();
                out.set_accepting(id, f.is_accepting(tf) && g.is_accepting(tg));
                work.push((tf, tg));
                id
            });
            out.add_arc(sid, label, tid);
        };
        // first machine moves alone (its arc writes nothing to the shared tape)
        for (l1, t1) in f.arcs_from(sf) {
            if l1.output().is_none() {
                push(&mut out, &mut index, &mut work, l1.clone(), *t1, sg);
            }
        }
        // second machine moves alone (its arc reads nothing from the shared tape)
        for (l2, t2) in g.arcs_from(sg) {
            if l2.input().is_none() {
                push(&mut out, &mut index, &mut work, l2.clone(), sf, *t2);
            }
        }
        // synchronized move
        for (l1, t1) in f.arcs_from(sf) {
            if l1.output().is_none() {
                continue;
            }
            for (l2, t2) in g.arcs_from(sg) {
                if l2.input().is_none() {
                    continue;
                }
                if let Some(label) = combine(l1, l2) {
                    push(&mut out, &mut index, &mut work, label, *t1, *t2);
                }
            }
        }
    }
    out
}

/// The image `P ⊲ R`: the set of paths related by `R` to some path in
/// `P` (paper §5.2, §6.1: `range(I(P) ∘ R)`).
///
/// The result is *structurally* `compose(&Fst::identity(p), r).range()`
/// — same states in the same order, same arcs and ε-arcs in the same
/// order — built in one walk over the `(p state, r state)` product
/// instead of through two intermediate transducers. Report bytes rest on
/// that: determinization numbers its states by the order it meets this
/// automaton's, and witnesses are listed by arc index. So the walk below
/// is [`compose`]'s, step for step (`p` moving alone on its ε-arcs, `r`
/// moving alone on arcs that read nothing, then synchronized moves, a
/// LIFO worklist), with each arc projected to its output tape as it is
/// found: what writes nothing becomes an ε-arc.
///
/// The pair index is a dense `p.len() × r.len()` table — the worst-case
/// size of the result itself — zero-initialized, so the allocator hands
/// out untouched pages lazily.
pub fn image(p: &Nfa, r: &Fst) -> Nfa {
    let mut out = Nfa::new();
    // id + 1 of the output state standing for each pair; 0 = not met yet
    let mut index = vec![0u32; p.len() * r.len()];
    let start_pair = (p.start(), r.start());
    index[start_pair.0 * r.len() + start_pair.1] = 1;
    out.set_accepting(
        out.start(),
        p.is_accepting(p.start()) && r.is_accepting(r.start()),
    );
    let mut work = vec![start_pair];
    while let Some((sp, sr)) = work.pop() {
        let sid = index[sp * r.len() + sr] as StateId - 1;
        let mut target = |out: &mut Nfa, tp: StateId, tr: StateId| -> StateId {
            let slot = &mut index[tp * r.len() + tr];
            if *slot == 0 {
                let id = out.add_state();
                out.set_accepting(id, p.is_accepting(tp) && r.is_accepting(tr));
                work.push((tp, tr));
                *slot = u32::try_from(id + 1).expect("an image has fewer than 2^32 states");
            }
            *slot as StateId - 1
        };
        for &tp in p.eps_from(sp) {
            let tid = target(&mut out, tp, sr);
            out.add_eps(sid, tid);
        }
        for (label, tr) in r.arcs_from(sr) {
            if label.input().is_none() {
                let tid = target(&mut out, sp, *tr);
                match label.output() {
                    Some(written) => out.add_arc(sid, written.clone(), tid),
                    None => out.add_eps(sid, tid),
                }
            }
        }
        for (read, tp) in p.arcs_from(sp) {
            for (label, tr) in r.arcs_from(sr) {
                // `I(p)` writes the symbol it reads; `r` reads that one
                let written = match label {
                    FstLabel::In(t) if read.intersects(t) => None,
                    FstLabel::Id(t) => match read.intersect(t) {
                        both if both.is_empty() => continue,
                        both => Some(both),
                    },
                    FstLabel::Pair(t, u) if !u.is_empty() && read.intersects(t) => Some(u.clone()),
                    // no common symbol, or an arc `r` took alone above
                    _ => continue,
                };
                let tid = target(&mut out, *tp, *tr);
                match written {
                    Some(written) => out.add_arc(sid, written, tid),
                    None => out.add_eps(sid, tid),
                }
            }
        }
    }
    out
}

/// Whether `p` and `d` accept a common word: `L(p) ∩ L(d) ≠ ∅`.
///
/// This is the question to ask before [`image`]: with `d` the
/// determinized domain of `r`, a `false` here means `image(p, r)` has no
/// accepting state, for the cost of a reachability walk over the
/// `(p state, d state)` product instead of the construction of an
/// automaton that [`Nfa::trim`] would throw away. The walk allocates one
/// dense `p.len() × d.len()` seen-table and nothing per state, and
/// returns at the first pair that accepts on both sides.
///
/// The implication runs one way only when `r` holds an arc that writes
/// an empty set: [`Fst::domain`] keeps what such an arc reads, so a
/// `true` can stand before an empty image — never the reverse.
///
/// # Examples
///
/// ```
/// use rela_automata::{determinize, meets, Fst, Nfa, Regex, Symbol};
/// let a = Symbol::from_index(0);
/// let b = Symbol::from_index(1);
/// let r = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
/// let domain = determinize(&r.domain().trim()).trim_dead();
/// assert!(meets(&Nfa::word(&[a]), &domain));
/// assert!(!meets(&Nfa::word(&[b]), &domain));
/// ```
pub fn meets(p: &Nfa, d: &Dfa) -> bool {
    let mut seen = vec![false; p.len() * d.len()];
    seen[p.start() * d.len() + d.start()] = true;
    let mut work = vec![(p.start(), d.start())];
    while let Some((sp, sd)) = work.pop() {
        if p.is_accepting(sp) && d.is_accepting(sd) {
            return true;
        }
        let mut visit = |tp: StateId, td: StateId| {
            let slot = &mut seen[tp * d.len() + td];
            if !*slot {
                *slot = true;
                work.push((tp, td));
            }
        };
        for &tp in p.eps_from(sp) {
            visit(tp, sd);
        }
        for (read, tp) in p.arcs_from(sp) {
            for (label, td) in d.arcs_from(sd) {
                if read.intersects(label) {
                    visit(*tp, *td);
                }
            }
        }
    }
    false
}

/// The preimage of `P` under `R`: paths that `R` maps into `P`.
/// Computed as `domain(R ∘ I(P))`.
pub fn preimage(r: &Fst, p: &Nfa) -> Nfa {
    compose(r, &Fst::identity(p)).domain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use crate::symset::SymSet;
    use crate::Symbol;

    fn sym(ix: usize) -> Symbol {
        Symbol::from_index(ix)
    }

    #[test]
    fn compose_cross_relations() {
        let a = sym(0);
        let b = sym(1);
        let c = sym(2);
        let ab = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let bc = Fst::cross(&Regex::sym(b).to_nfa(), &Regex::sym(c).to_nfa());
        let ac = compose(&ab, &bc);
        assert!(ac.relates(&[a], &[c]));
        assert!(!ac.relates(&[a], &[b]));
        assert!(!ac.relates(&[b], &[c]));
    }

    #[test]
    fn compose_fails_when_middle_disjoint() {
        let a = sym(0);
        let b = sym(1);
        let c = sym(2);
        let ab = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let cc = Fst::cross(&Regex::sym(c).to_nfa(), &Regex::sym(c).to_nfa());
        let r = compose(&ab, &cc);
        assert!(!r.relates(&[a], &[c]));
        assert!(!r.relates(&[a], &[b]));
    }

    #[test]
    fn compose_identity_is_neutral() {
        let a = sym(0);
        let b = sym(1);
        let any = Regex::any_star().to_nfa();
        let f = Fst::cross(
            &Regex::word(&[a, b]).to_nfa(),
            &Regex::word(&[b, a]).to_nfa(),
        );
        let left = compose(&Fst::identity(&any), &f);
        let right = compose(&f, &Fst::identity(&any));
        for (x, y) in [
            (vec![a, b], vec![b, a]),
            (vec![a, b], vec![a, b]),
            (vec![b, a], vec![a, b]),
        ] {
            assert_eq!(f.relates(&x, &y), left.relates(&x, &y));
            assert_eq!(f.relates(&x, &y), right.relates(&x, &y));
        }
    }

    #[test]
    fn compose_id_chains_preserve_symbol_identity() {
        let a = sym(0);
        let b = sym(1);
        // I({a,b}) ∘ I({b}) = I({b})
        let i1 = Fst::identity(&Nfa::symbol_set(SymSet::from_syms(vec![a, b])));
        let i2 = Fst::identity(&Nfa::symbol_set(SymSet::singleton(b)));
        let c = compose(&i1, &i2);
        assert!(c.relates(&[b], &[b]));
        assert!(!c.relates(&[a], &[a]));
        assert!(!c.relates(&[a], &[b]));
    }

    #[test]
    fn compose_pair_with_id_restricts_output() {
        let a = sym(0);
        let b = sym(1);
        let c = sym(2);
        // ({a} × {b,c}) ∘ I({b}) = {a} × {b}
        let p = Fst::cross(
            &Nfa::symbol_set(SymSet::singleton(a)),
            &Nfa::symbol_set(SymSet::from_syms(vec![b, c])),
        );
        let i = Fst::identity(&Nfa::symbol_set(SymSet::singleton(b)));
        let r = compose(&p, &i);
        assert!(r.relates(&[a], &[b]));
        assert!(!r.relates(&[a], &[c]));
    }

    #[test]
    fn compose_length_changing_relations() {
        let a = sym(0);
        let b = sym(1);
        // f: a → bb; g: bb → ε ; f∘g : a → ε
        let f = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::word(&[b, b]).to_nfa());
        let g = Fst::cross(&Regex::word(&[b, b]).to_nfa(), &Regex::Eps.to_nfa());
        let fg = compose(&f, &g);
        assert!(fg.relates(&[a], &[]));
        assert!(!fg.relates(&[a], &[b]));
    }

    #[test]
    fn image_of_cross() {
        let a = sym(0);
        let b = sym(1);
        // P = {a}, R = {a}×{b} ⇒ P ⊲ R = {b}
        let p = Regex::sym(a).to_nfa();
        let r = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let img = image(&p, &r);
        assert!(img.accepts(&[b]));
        assert!(!img.accepts(&[a]));
        assert!(!img.accepts(&[]));
    }

    #[test]
    fn image_respects_domain_restriction() {
        let a = sym(0);
        let b = sym(1);
        let c = sym(2);
        // P = {c}, R = {a}×{b} ⇒ P ⊲ R = ∅
        let p = Regex::sym(c).to_nfa();
        let r = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let img = image(&p, &r);
        assert!(img.language_is_empty());
    }

    #[test]
    fn image_of_identity_is_intersection() {
        let a = sym(0);
        let b = sym(1);
        // P ⊲ I(D) = P ∩ D (the "preserve" encoding, paper §5.3)
        let p = Regex::union(vec![Regex::word(&[a, b]), Regex::sym(a)]).to_nfa();
        let d = Regex::union(vec![Regex::word(&[a, b]), Regex::sym(b)]).to_nfa();
        let img = image(&p, &Fst::identity(&d));
        assert!(img.accepts(&[a, b]));
        assert!(!img.accepts(&[a]));
        assert!(!img.accepts(&[b]));
    }

    #[test]
    fn meets_is_nonempty_intersection() {
        let a = sym(0);
        let b = sym(1);
        // ε-arcs on the NFA side, a partial DFA on the other
        let p = Regex::union(vec![Regex::word(&[a, b]), Regex::sym(b)])
            .star()
            .to_nfa();
        let det = |re: Regex| crate::determinize(&re.to_nfa()).trim_dead();
        assert!(meets(&p, &det(Regex::word(&[a, b, b]))));
        assert!(meets(&p, &det(Regex::Eps)));
        assert!(!meets(&p, &det(Regex::word(&[a, a]))));
        assert!(!meets(&p, &Dfa::empty_language()));
        assert!(!meets(&Nfa::empty_language(), &det(Regex::any_star())));
    }

    #[test]
    fn preimage_inverts_image() {
        let a = sym(0);
        let b = sym(1);
        let r = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let pre = preimage(&r, &Regex::sym(b).to_nfa());
        assert!(pre.accepts(&[a]));
        assert!(!pre.accepts(&[b]));
    }

    #[test]
    fn image_through_star_relation() {
        let a = sym(0);
        let b = sym(1);
        // R = ({a}×{b})*: maps a^n to b^n
        let r = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa()).star();
        let p = Regex::word(&[a, a, a]).to_nfa();
        let img = image(&p, &r);
        assert!(img.accepts(&[b, b, b]));
        assert!(!img.accepts(&[b, b]));
        assert!(!img.accepts(&[]));
    }

    #[test]
    fn union_relation_image_is_union_of_images() {
        let a = sym(0);
        let b = sym(1);
        let c = sym(2);
        let r1 = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(b).to_nfa());
        let r2 = Fst::cross(&Regex::sym(a).to_nfa(), &Regex::sym(c).to_nfa());
        let u = r1.union(&r2);
        let p = Regex::sym(a).to_nfa();
        let img = image(&p, &u);
        assert!(img.accepts(&[b]));
        assert!(img.accepts(&[c]));
        assert!(!img.accepts(&[a]));
    }
}
