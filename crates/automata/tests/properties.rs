//! Property-based tests for the automata algebra.
//!
//! Strategy: generate small random regexes over a 3-symbol alphabet,
//! enumerate all words up to a length bound, and cross-check every
//! construction (determinize, minimize, complement, products,
//! equivalence, transducers) against direct NFA simulation or against
//! set-theoretic definitions evaluated by brute force.

use proptest::prelude::*;
use rela_automata::*;

const ALPHABET: usize = 3;
const MAX_WORD_LEN: usize = 4;

fn sym(ix: usize) -> Symbol {
    Symbol::from_index(ix)
}

/// All words over {s0..s_{ALPHABET-1}} with length ≤ MAX_WORD_LEN.
fn all_words() -> Vec<Vec<Symbol>> {
    let mut out = vec![vec![]];
    let mut frontier = vec![vec![]];
    for _ in 0..MAX_WORD_LEN {
        let mut next = Vec::new();
        for w in &frontier {
            for a in 0..ALPHABET {
                let mut w2 = w.clone();
                w2.push(sym(a));
                out.push(w2.clone());
                next.push(w2);
            }
        }
        frontier = next;
    }
    out
}

/// Random regex over the small alphabet.
fn regex_strategy() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Empty),
        Just(Regex::Eps),
        (0..ALPHABET).prop_map(|i| Regex::sym(sym(i))),
        Just(Regex::any()),
        proptest::collection::vec(0..ALPHABET, 1..3)
            .prop_map(|v| Regex::Set(SymSet::from_syms(v.into_iter().map(sym).collect()))),
        (0..ALPHABET).prop_map(|i| Regex::Set(SymSet::all_except(vec![sym(i)]))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Regex::union),
            inner.prop_map(|r| r.star()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn determinize_preserves_language(re in regex_strategy()) {
        let nfa = re.to_nfa();
        let dfa = determinize(&nfa);
        for w in all_words() {
            prop_assert_eq!(nfa.accepts(&w), dfa.accepts(&w), "word {:?}", w);
        }
    }

    #[test]
    fn minimize_preserves_language(re in regex_strategy()) {
        let dfa = determinize(&re.to_nfa());
        let min = minimize(&dfa);
        prop_assert!(min.len() <= dfa.complete().len() + 1);
        for w in all_words() {
            prop_assert_eq!(dfa.accepts(&w), min.accepts(&w), "word {:?}", w);
        }
    }

    #[test]
    fn minimize_is_idempotent_in_size(re in regex_strategy()) {
        let m1 = minimize(&determinize(&re.to_nfa()));
        let m2 = minimize(&m1);
        prop_assert_eq!(m1.len(), m2.len());
        prop_assert!(equivalent(&m1, &m2).is_ok());
    }

    #[test]
    fn complement_flips_membership(re in regex_strategy()) {
        let dfa = determinize(&re.to_nfa());
        let comp = dfa.complement();
        for w in all_words() {
            prop_assert_eq!(dfa.accepts(&w), !comp.accepts(&w), "word {:?}", w);
        }
    }

    #[test]
    fn product_modes_match_boolean_semantics(
        r1 in regex_strategy(),
        r2 in regex_strategy(),
    ) {
        let d1 = determinize(&r1.to_nfa());
        let d2 = determinize(&r2.to_nfa());
        let inter = product(&d1, &d2, ProductMode::Intersection);
        let union_ = product(&d1, &d2, ProductMode::Union);
        let diff = product(&d1, &d2, ProductMode::Difference);
        let symdiff = product(&d1, &d2, ProductMode::SymmetricDifference);
        for w in all_words() {
            let (a, b) = (d1.accepts(&w), d2.accepts(&w));
            prop_assert_eq!(inter.accepts(&w), a && b);
            prop_assert_eq!(union_.accepts(&w), a || b);
            prop_assert_eq!(diff.accepts(&w), a && !b);
            prop_assert_eq!(symdiff.accepts(&w), a != b);
        }
    }

    #[test]
    fn de_morgan_for_languages(r1 in regex_strategy(), r2 in regex_strategy()) {
        let d1 = determinize(&r1.to_nfa());
        let d2 = determinize(&r2.to_nfa());
        let lhs = product(&d1, &d2, ProductMode::Union);
        let rhs = product(&d1.complement(), &d2.complement(), ProductMode::Intersection)
            .complement();
        prop_assert!(equivalent(&lhs, &rhs).is_ok());
    }

    #[test]
    fn equivalence_agrees_with_brute_force(
        r1 in regex_strategy(),
        r2 in regex_strategy(),
    ) {
        let d1 = determinize(&r1.to_nfa());
        let d2 = determinize(&r2.to_nfa());
        match equivalent(&d1, &d2) {
            Ok(()) => {
                for w in all_words() {
                    prop_assert_eq!(d1.accepts(&w), d2.accepts(&w), "claimed equal, differ on {:?}", w);
                }
            }
            Err(witness) => {
                // the witness, concretized with any member per set, must
                // be accepted by exactly one automaton
                let mut table = SymbolTable::new();
                for i in 0..ALPHABET + 1 {
                    table.intern(&format!("s{i}"));
                }
                let conc = concretize(&witness, &table).expect("concretizable");
                prop_assert_ne!(d1.accepts(&conc), d2.accepts(&conc), "bogus witness {:?}", conc);
            }
        }
    }

    #[test]
    fn inclusion_in_union_always_holds(r1 in regex_strategy(), r2 in regex_strategy()) {
        let d1 = determinize(&r1.to_nfa());
        let d2 = determinize(&r2.to_nfa());
        let u = product(&d1, &d2, ProductMode::Union);
        prop_assert!(included(&d1, &u).is_ok());
        prop_assert!(included(&d2, &u).is_ok());
    }

    #[test]
    fn inclusion_witness_is_in_difference(r1 in regex_strategy(), r2 in regex_strategy()) {
        let d1 = determinize(&r1.to_nfa());
        let d2 = determinize(&r2.to_nfa());
        if let Err(witness) = included(&d1, &d2) {
            let mut table = SymbolTable::new();
            for i in 0..ALPHABET + 1 {
                table.intern(&format!("s{i}"));
            }
            let conc = concretize(&witness, &table).expect("concretizable");
            prop_assert!(d1.accepts(&conc));
            prop_assert!(!d2.accepts(&conc));
        }
    }

    #[test]
    fn reverse_reverses(re in regex_strategy()) {
        let nfa = re.to_nfa();
        let rev = nfa.reverse();
        for w in all_words() {
            let mut wr = w.clone();
            wr.reverse();
            prop_assert_eq!(nfa.accepts(&w), rev.accepts(&wr), "word {:?}", w);
        }
    }

    #[test]
    fn remove_eps_preserves(re in regex_strategy()) {
        let nfa = re.to_nfa();
        let ef = nfa.remove_eps();
        for w in all_words() {
            prop_assert_eq!(nfa.accepts(&w), ef.accepts(&w), "word {:?}", w);
        }
    }

    #[test]
    fn trim_preserves(re in regex_strategy()) {
        let nfa = re.to_nfa();
        let t = nfa.clone().trim();
        for w in all_words() {
            prop_assert_eq!(nfa.accepts(&w), t.accepts(&w), "word {:?}", w);
        }
    }

    #[test]
    fn shortest_word_is_shortest(re in regex_strategy()) {
        let dfa = determinize(&re.to_nfa());
        let shortest = shortest_word(&dfa);
        let brute: Option<usize> = all_words()
            .into_iter()
            .filter(|w| dfa.accepts(w))
            .map(|w| w.len())
            .min();
        match (shortest, brute) {
            (Some(w), Some(len)) => prop_assert_eq!(w.len().min(MAX_WORD_LEN + 1), len.min(w.len())),
            (None, Some(_)) => prop_assert!(false, "missed an accepted word"),
            // shortest word longer than our enumeration bound is fine
            (Some(w), None) => prop_assert!(w.len() > MAX_WORD_LEN),
            (None, None) => {}
        }
    }

    #[test]
    fn enumerate_words_all_accepted(re in regex_strategy()) {
        let dfa = determinize(&re.to_nfa());
        let mut table = SymbolTable::new();
        for i in 0..ALPHABET + 1 {
            table.intern(&format!("s{i}"));
        }
        for w in enumerate_words(&dfa, 8, MAX_WORD_LEN) {
            let conc = concretize(&w, &table).expect("concretizable");
            prop_assert!(dfa.accepts(&conc));
        }
    }
}

// ---- transducer properties --------------------------------------------

/// Words up to length 3 for relation-level brute force (pairs are quadratic).
fn short_words() -> Vec<Vec<Symbol>> {
    all_words().into_iter().filter(|w| w.len() <= 3).collect()
}

/// A finite or co-finite set over the small alphabet (never empty).
fn set_strategy() -> impl Strategy<Value = SymSet> {
    prop_oneof![
        proptest::collection::vec(0..ALPHABET, 1..3)
            .prop_map(|v| SymSet::from_syms(v.into_iter().map(sym).collect())),
        proptest::collection::vec(0..ALPHABET, 0..3)
            .prop_map(|v| SymSet::all_except(v.into_iter().map(sym).collect())),
    ]
}

/// A raw transducer: up to four states, arcs of all five label kinds
/// between arbitrary states (self-loops and dead ends included).
fn fst_strategy() -> impl Strategy<Value = Fst> {
    fst_strategy_over(set_strategy().boxed())
}

/// [`fst_strategy`] with its label sets drawn from `sets`.
fn fst_strategy_over(sets: BoxedStrategy<SymSet>) -> impl Strategy<Value = Fst> {
    let label = prop_oneof![
        Just(FstLabel::Eps),
        sets.clone().prop_map(FstLabel::In),
        sets.clone().prop_map(FstLabel::Out),
        (sets.clone(), sets.clone()).prop_map(|(a, b)| FstLabel::Pair(a, b)),
        sets.prop_map(FstLabel::Id),
    ]
    .boxed();
    (1usize..5).prop_flat_map(move |n| {
        let arcs = proptest::collection::vec((0..n, label.clone(), 0..n), 0..10);
        let accepting = proptest::collection::vec(any::<bool>(), n..=n);
        (arcs, accepting).prop_map(move |(arcs, accepting)| {
            let mut fst = Fst::new();
            for _ in 1..n {
                fst.add_state();
            }
            for (from, label, to) in arcs {
                fst.add_arc(from, label, to);
            }
            for (state, accepts) in accepting.into_iter().enumerate() {
                fst.set_accepting(state, accepts);
            }
            fst
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cross_relates_exactly_the_product(r1 in regex_strategy(), r2 in regex_strategy()) {
        let n1 = r1.to_nfa();
        let n2 = r2.to_nfa();
        let f = Fst::cross(&n1, &n2);
        for x in short_words() {
            for y in short_words() {
                prop_assert_eq!(
                    f.relates(&x, &y),
                    n1.accepts(&x) && n2.accepts(&y),
                    "pair {:?} {:?}", x, y
                );
            }
        }
    }

    #[test]
    fn identity_relates_exactly_the_diagonal(re in regex_strategy()) {
        let n = re.to_nfa();
        let f = Fst::identity(&n);
        for x in short_words() {
            for y in short_words() {
                prop_assert_eq!(
                    f.relates(&x, &y),
                    x == y && n.accepts(&x),
                    "pair {:?} {:?}", x, y
                );
            }
        }
    }

    #[test]
    fn image_matches_brute_force(rp in regex_strategy(), r1 in regex_strategy(), r2 in regex_strategy()) {
        // R = (P1 × P2) | I(P1): a union of a rewrite and a preserve part,
        // the shape Rela compilation produces (paper Fig. 4).
        let p = rp.to_nfa();
        let n1 = r1.to_nfa();
        let n2 = r2.to_nfa();
        let r = Fst::cross(&n1, &n2).union(&Fst::identity(&n1));
        let img = image(&p, &r);
        let mut table = SymbolTable::new();
        for i in 0..ALPHABET + 1 {
            table.intern(&format!("s{i}"));
        }
        for y in short_words() {
            let brute = short_words()
                .into_iter()
                .any(|x| p.accepts(&x) && r.relates(&x, &y));
            if brute {
                prop_assert!(img.accepts(&y), "missing image word {:?}", y);
            } else if img.accepts(&y) {
                // the witness x may be longer than any enumeration bound
                // (e.g. P's shortest word exceeds it): extract a candidate
                // from the automata — x ∈ P ∩ preimage(R, {y}) — and verify
                // it with the independent `relates` simulator
                let pre_y = preimage(&r, &Nfa::word(&y));
                let candidates = product(
                    &determinize(&pre_y.trim()),
                    &determinize(&p.clone().trim()),
                    ProductMode::Intersection,
                );
                let witness = shortest_word(&candidates);
                prop_assert!(witness.is_some(), "spurious image word {:?}", y);
                let x = concretize(&witness.expect("checked"), &table)
                    .expect("concretizable witness");
                prop_assert!(
                    p.accepts(&x) && r.relates(&x, &y),
                    "extracted witness {:?} does not justify image word {:?}",
                    x,
                    y
                );
            }
        }
    }

    #[test]
    fn image_is_structurally_the_range_of_the_composition(
        rp in regex_strategy(),
        raw in fst_strategy(),
        r1 in regex_strategy(),
        r2 in regex_strategy(),
    ) {
        // report bytes depend on the image's state and arc order, not
        // only on its language: `image` must build, state for state and
        // arc for arc, what the two-step definition builds
        let p = rp.to_nfa();
        let (n1, n2) = (r1.to_nfa(), r2.to_nfa());
        let compiled = Fst::cross(&n1, &n2).union(&Fst::identity(&n1)).star();
        let guarded = compose(&Fst::identity(&determinize(&n2).complement().to_nfa()), &compiled);
        for r in [&raw, &compiled, &guarded] {
            let fused = image(&p, r);
            let two_step = compose(&Fst::identity(&p), r).range();
            prop_assert_eq!(fused.len(), two_step.len());
            prop_assert_eq!(fused.start(), two_step.start());
            for s in 0..fused.len() {
                prop_assert_eq!(fused.arcs_from(s), two_step.arcs_from(s), "arcs of {}", s);
                prop_assert_eq!(fused.eps_from(s), two_step.eps_from(s), "ε-arcs of {}", s);
                prop_assert_eq!(fused.is_accepting(s), two_step.is_accepting(s), "state {}", s);
            }
        }
    }

    #[test]
    fn a_domain_the_paths_miss_means_an_image_with_no_accepting_state(
        rp in regex_strategy(),
        // one set in four is empty
        raw in fst_strategy_over(
            prop_oneof![set_strategy(), set_strategy(), set_strategy(), Just(SymSet::empty())].boxed()
        ),
        r1 in regex_strategy(),
        r2 in regex_strategy(),
    ) {
        // the decide path skips `image` on the strength of `meets`: a
        // wrong `false` would turn a violation into a pass
        let p = rp.to_nfa();
        let (n1, n2) = (r1.to_nfa(), r2.to_nfa());
        let compiled = Fst::cross(&n1, &n2).union(&Fst::identity(&n1)).star();
        let guarded = compose(&Fst::identity(&determinize(&n2).complement().to_nfa()), &compiled);
        for r in [&raw, &compiled, &guarded] {
            let domain = determinize(&r.domain().trim()).trim_dead();
            let img = image(&p, r);
            let accepts = img.accepting_states().next().is_some();
            if !meets(&p, &domain) {
                prop_assert!(!accepts, "skipped a live image");
            } else if (0..r.len()).all(|s| r.arcs_from(s).iter().all(|(l, _)| !l.is_void())) {
                // an arc that writes the empty set is read by the domain
                // and by nothing else; without one the answer is exact
                prop_assert!(accepts, "built a dead image");
            }
        }
    }

    #[test]
    fn compose_matches_brute_force(r1 in regex_strategy(), r2 in regex_strategy(), r3 in regex_strategy()) {
        // f = I(P1), g = P2 × P3 — composition must equal brute-force join
        let n1 = r1.to_nfa();
        let n2 = r2.to_nfa();
        let n3 = r3.to_nfa();
        let f = Fst::identity(&n1);
        let g = Fst::cross(&n2, &n3);
        let fg = compose(&f, &g);
        for x in short_words() {
            for z in short_words() {
                let direct = fg.relates(&x, &z);
                let brute = n1.accepts(&x) && n2.accepts(&x) && n3.accepts(&z);
                prop_assert_eq!(direct, brute, "pair {:?} {:?}", x, z);
            }
        }
    }

    #[test]
    fn invert_swaps_pairs(r1 in regex_strategy(), r2 in regex_strategy()) {
        let f = Fst::cross(&r1.to_nfa(), &r2.to_nfa());
        let g = f.invert();
        for x in short_words() {
            for y in short_words() {
                prop_assert_eq!(f.relates(&x, &y), g.relates(&y, &x));
            }
        }
    }

    #[test]
    fn domain_range_match_brute_force(r1 in regex_strategy(), r2 in regex_strategy()) {
        let n1 = r1.to_nfa();
        let n2 = r2.to_nfa();
        let f = Fst::cross(&n1, &n2).union(&Fst::identity(&n2));
        let dom = f.domain();
        let rng = f.range();
        for w in short_words() {
            let in_dom = short_words().into_iter().any(|y| f.relates(&w, &y));
            let in_rng = short_words().into_iter().any(|x| f.relates(&x, &w));
            if in_dom {
                prop_assert!(dom.accepts(&w));
            }
            if in_rng {
                prop_assert!(rng.accepts(&w));
            }
        }
    }
}
