//! Lowering RIR terms to automata and deciding specifications
//! (paper §6.1–§6.2).
//!
//! Path sets become NFAs/DFAs; relations become transducers; the image
//! `P ⊲ R` is transducer application; equalities and inclusions are
//! decided with automaton equivalence. `PreState`/`PostState` are
//! supplied per flow equivalence class as already-built FSAs
//! ([`PairFsas`]), so one compiled spec is reusable across all FECs.

use crate::rir::{PathSet, Rel, RirSpec};
use rela_automata::{
    compose, determinize, equivalent, image, included, product, Dfa, Fst, Nfa, ProductMode,
};

/// The per-FEC snapshot automata bound to `PreState` / `PostState`.
#[derive(Debug, Clone)]
pub struct PairFsas {
    /// FSA of the pre-change forwarding paths.
    pub pre: Nfa,
    /// FSA of the post-change forwarding paths.
    pub post: Nfa,
}

impl PairFsas {
    /// Bind a pair of path FSAs.
    pub fn new(pre: Nfa, post: Nfa) -> PairFsas {
        PairFsas { pre, post }
    }
}

/// Lowers terms against one snapshot pair, keeping every intersection
/// and complement it has lowered — the two shapes that determinize —
/// so a sub-term that occurs again is lowered once. The `else` chain is
/// what makes that matter: the guard of branch *i* (`¬(Z₁ ∪ … ∪ Zᵢ₋₁)`,
/// or `¬Z₁ ∩ … ∩ ¬Zᵢ₋₁` when the chain nests to the right) is the
/// largest term of the branch and occurs in both of its relations, and a
/// right-nested guard contains the previous branch's guard whole.
///
/// Lowering is a function of the term and the pair, so a remembered
/// automaton is the one a fresh lowering would build, state for state.
pub(crate) struct Lowering<'a> {
    env: &'a PairFsas,
    /// Found by structural equality: the compiler clones guards into
    /// each branch, so equal sub-terms do not share an address.
    lowered: Vec<(&'a PathSet, Nfa)>,
}

impl<'a> Lowering<'a> {
    pub(crate) fn new(env: &'a PairFsas) -> Lowering<'a> {
        Lowering {
            env,
            lowered: Vec::new(),
        }
    }

    /// The automaton remembered for `term`, or `build`'s, remembered.
    fn once(&mut self, term: &'a PathSet, build: impl FnOnce(&mut Self) -> Nfa) -> Nfa {
        if let Some((_, nfa)) = self.lowered.iter().find(|(seen, _)| *seen == term) {
            return nfa.clone();
        }
        let nfa = build(self);
        self.lowered.push((term, nfa.clone()));
        nfa
    }

    /// Lower a path set to an NFA.
    pub(crate) fn pathset(&mut self, p: &'a PathSet) -> Nfa {
        match p {
            PathSet::Empty => Nfa::empty_language(),
            PathSet::Eps => Nfa::epsilon_language(),
            PathSet::Atom(set) => Nfa::symbol_set(set.clone()),
            PathSet::PreState => self.env.pre.clone(),
            PathSet::PostState => self.env.post.clone(),
            PathSet::Union(parts) => parts
                .iter()
                .map(|q| self.pathset(q))
                .fold(Nfa::empty_language(), |acc, n| acc.union(&n)),
            PathSet::Concat(parts) => parts
                .iter()
                .map(|q| self.pathset(q))
                .fold(Nfa::epsilon_language(), |acc, n| acc.concat(&n)),
            PathSet::Star(inner) => self.pathset(inner).star(),
            PathSet::Inter(a, b) => self.once(p, |lowering| {
                let da = determinize(&lowering.pathset(a));
                let db = determinize(&lowering.pathset(b));
                product(&da, &db, ProductMode::Intersection).to_nfa()
            }),
            PathSet::Complement(inner) => self.once(p, |lowering| {
                determinize(&lowering.pathset(inner)).complement().to_nfa()
            }),
            PathSet::Image(p, r) => {
                let base = self.pathset(p);
                let rel = self.rel(r);
                image(&base, &rel)
            }
        }
    }

    /// Lower a relation to a transducer.
    pub(crate) fn rel(&mut self, r: &'a Rel) -> Fst {
        match r {
            Rel::Empty => Fst::empty_relation(),
            Rel::Eps => Fst::eps_relation(),
            Rel::Cross(a, b) => {
                let left = self.pathset(a);
                let right = self.pathset(b);
                Fst::cross(&left, &right)
            }
            Rel::Ident(p) => Fst::identity(&self.pathset(p)),
            Rel::Union(parts) => parts
                .iter()
                .map(|q| self.rel(q))
                .fold(Fst::empty_relation(), |acc, f| acc.union(&f)),
            Rel::Concat(parts) => parts
                .iter()
                .map(|q| self.rel(q))
                .fold(Fst::eps_relation(), |acc, f| acc.concat(&f)),
            Rel::Star(inner) => self.rel(inner).star(),
            Rel::Compose(a, b) => {
                let left = self.rel(a);
                let right = self.rel(b);
                compose(&left, &right)
            }
        }
    }
}

/// Lower a path set to an NFA.
pub fn lower_pathset(p: &PathSet, env: &PairFsas) -> Nfa {
    Lowering::new(env).pathset(p)
}

/// Lower a path set straight to a (trimmed) DFA.
pub fn lower_pathset_dfa(p: &PathSet, env: &PairFsas) -> Dfa {
    determinize(&lower_pathset(p, env).trim())
}

/// Lower a relation to a transducer.
pub fn lower_rel(r: &Rel, env: &PairFsas) -> Fst {
    Lowering::new(env).rel(r)
}

/// Decide an RIR specification against a snapshot pair.
pub fn decide_spec(s: &RirSpec, env: &PairFsas) -> bool {
    match s {
        RirSpec::Equal(a, b) => {
            let da = lower_pathset_dfa(a, env);
            let db = lower_pathset_dfa(b, env);
            equivalent(&da, &db).is_ok()
        }
        RirSpec::Subset(a, b) => {
            let da = lower_pathset_dfa(a, env);
            let db = lower_pathset_dfa(b, env);
            included(&da, &db).is_ok()
        }
        RirSpec::And(a, b) => decide_spec(a, env) && decide_spec(b, env),
        RirSpec::Or(a, b) => decide_spec(a, env) || decide_spec(b, env),
        RirSpec::Not(a) => !decide_spec(a, env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rela_automata::{SymSet, Symbol};

    fn s(ix: usize) -> Symbol {
        Symbol::from_index(ix)
    }

    fn atom(ix: usize) -> PathSet {
        PathSet::Atom(SymSet::singleton(s(ix)))
    }

    fn any_star() -> PathSet {
        PathSet::Star(Box::new(PathSet::Atom(SymSet::universe())))
    }

    fn env_from(pre: &[&[usize]], post: &[&[usize]]) -> PairFsas {
        let to_nfa = |paths: &[&[usize]]| -> Nfa {
            paths
                .iter()
                .map(|p| {
                    let w: Vec<Symbol> = p.iter().map(|&i| s(i)).collect();
                    Nfa::word(&w)
                })
                .fold(Nfa::empty_language(), |acc, n| acc.union(&n))
        };
        PairFsas::new(to_nfa(pre), to_nfa(post))
    }

    #[test]
    fn a_shared_lowering_builds_what_separate_lowerings_build() {
        // three branches of a right-nested `else` chain: each guard
        // contains the previous one whole and occurs in two relations
        let not = |p: PathSet| PathSet::Complement(Box::new(p));
        let zone = |ix: usize| PathSet::Concat(vec![atom(ix), any_star()]);
        let g1 = not(zone(0));
        let g2 = PathSet::Inter(Box::new(g1.clone()), Box::new(not(zone(1))));
        let guarded = |g: &PathSet, body: Rel| {
            Rel::Compose(Box::new(Rel::Ident(Box::new(g.clone()))), Box::new(body))
        };
        let keep = || Rel::Ident(Box::new(any_star()));
        let rewrite = || Rel::Cross(Box::new(zone(2)), Box::new(atom(1)));
        let rels = [
            guarded(&g1, keep()),
            guarded(&g1, rewrite()),
            guarded(&g2, keep()),
            guarded(&g2, rewrite()),
        ];
        let env = env_from(&[], &[]);
        let mut shared = Lowering::new(&env);
        for rel in &rels {
            let (once, fresh) = (shared.rel(rel), lower_rel(rel, &env));
            assert_eq!(once.len(), fresh.len());
            assert_eq!(once.start(), fresh.start());
            for s in 0..once.len() {
                assert_eq!(once.arcs_from(s), fresh.arcs_from(s), "arcs of {s}");
                assert_eq!(once.is_accepting(s), fresh.is_accepting(s), "state {s}");
            }
        }
        // g1 once, g2 once, and the complement inside g2 once
        assert_eq!(shared.lowered.len(), 3);
    }

    #[test]
    fn footnote3_unconditional_addition() {
        // PostState = PreState | P: "exactly the paths of P are added"
        let env = env_from(&[&[0]], &[&[0], &[1, 2]]);
        let added = PathSet::Concat(vec![atom(1), atom(2)]);
        let spec = RirSpec::Equal(
            PathSet::PostState,
            PathSet::Union(vec![PathSet::PreState, added]),
        );
        assert!(decide_spec(&spec, &env));
        // wrong addition fails
        let env2 = env_from(&[&[0]], &[&[0], &[1, 1]]);
        let spec2 = RirSpec::Equal(
            PathSet::PostState,
            PathSet::Union(vec![
                PathSet::PreState,
                PathSet::Concat(vec![atom(1), atom(2)]),
            ]),
        );
        assert!(!decide_spec(&spec2, &env2));
    }

    #[test]
    fn side_effects_idiom() {
        // PreState ⊆ PostState ∧ PostState ⊆ PreState | Zone
        let zone = PathSet::Concat(vec![atom(1), any_star()]);
        let spec = RirSpec::Subset(PathSet::PreState, PathSet::PostState).and(RirSpec::Subset(
            PathSet::PostState,
            PathSet::Union(vec![PathSet::PreState, zone]),
        ));
        // additions within the zone are fine
        let env_ok = env_from(&[&[0]], &[&[0], &[1, 2]]);
        assert!(decide_spec(&spec, &env_ok));
        // additions outside the zone violate
        let env_bad = env_from(&[&[0]], &[&[0], &[2, 2]]);
        assert!(!decide_spec(&spec, &env_bad));
        // removals violate
        let env_rm = env_from(&[&[0]], &[]);
        assert!(!decide_spec(&spec, &env_rm));
    }
}
