//! Finite and co-finite symbol sets: the effective Boolean algebra that
//! transition labels are drawn from.
//!
//! Transitions in our automata are labelled with *sets* of symbols rather
//! than single symbols, so a pattern like `.*` is one arc instead of one
//! arc per location. Sets are either finite (`{a, b}`) or co-finite
//! ("everything except `{a, b}`"), which is closed under union,
//! intersection, and complement — exactly what symbolic automata
//! algorithms need (cf. d'Antoni & Veanes, "The power of symbolic
//! automata and transducers").
//!
//! The alphabet is treated as open-ended: a co-finite set is never empty.
//! This matches the intent of `.` in Rela specifications ("any location,
//! including ones this spec does not mention").

use crate::symbol::Symbol;
use std::fmt;

/// A set of symbols: either a finite set or the complement of one.
///
/// Invariant: the symbol vector is sorted and deduplicated.
///
/// # Examples
///
/// ```
/// use rela_automata::{SymSet, Symbol};
///
/// let a = Symbol::from_index(0);
/// let b = Symbol::from_index(1);
/// let s = SymSet::from_syms(vec![a, b]);
/// let t = SymSet::singleton(a);
/// assert_eq!(s.intersect(&t), t);
/// assert!(s.complement().intersect(&t).is_empty());
/// assert!(SymSet::universe().contains(b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SymSet {
    /// Exactly these symbols.
    Finite(Vec<Symbol>),
    /// Every symbol except these.
    CoFinite(Vec<Symbol>),
}

impl SymSet {
    /// The empty set.
    pub fn empty() -> SymSet {
        SymSet::Finite(Vec::new())
    }

    /// The set of all symbols (`.` in a path pattern).
    pub fn universe() -> SymSet {
        SymSet::CoFinite(Vec::new())
    }

    /// A one-symbol set.
    pub fn singleton(sym: Symbol) -> SymSet {
        SymSet::Finite(vec![sym])
    }

    /// A finite set from arbitrary (possibly unsorted, duplicated) symbols.
    pub fn from_syms(mut syms: Vec<Symbol>) -> SymSet {
        syms.sort_unstable();
        syms.dedup();
        SymSet::Finite(syms)
    }

    /// Everything except the given symbols.
    pub fn all_except(mut syms: Vec<Symbol>) -> SymSet {
        syms.sort_unstable();
        syms.dedup();
        SymSet::CoFinite(syms)
    }

    /// True iff the set contains no symbols.
    ///
    /// A co-finite set is never empty because the alphabet is open.
    pub fn is_empty(&self) -> bool {
        matches!(self, SymSet::Finite(v) if v.is_empty())
    }

    /// True iff this is the universal set.
    pub fn is_universe(&self) -> bool {
        matches!(self, SymSet::CoFinite(v) if v.is_empty())
    }

    /// Membership test.
    pub fn contains(&self, sym: Symbol) -> bool {
        match self {
            SymSet::Finite(v) => v.binary_search(&sym).is_ok(),
            SymSet::CoFinite(v) => v.binary_search(&sym).is_err(),
        }
    }

    /// Set complement.
    pub fn complement(&self) -> SymSet {
        match self {
            SymSet::Finite(v) => SymSet::CoFinite(v.clone()),
            SymSet::CoFinite(v) => SymSet::Finite(v.clone()),
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &SymSet) -> SymSet {
        use SymSet::*;
        match (self, other) {
            (Finite(a), Finite(b)) => Finite(sorted_intersect(a, b)),
            (Finite(a), CoFinite(b)) => Finite(sorted_difference(a, b)),
            (CoFinite(a), Finite(b)) => Finite(sorted_difference(b, a)),
            (CoFinite(a), CoFinite(b)) => CoFinite(sorted_union(a, b)),
        }
    }

    /// Set union.
    pub fn union(&self, other: &SymSet) -> SymSet {
        use SymSet::*;
        match (self, other) {
            (Finite(a), Finite(b)) => Finite(sorted_union(a, b)),
            (Finite(a), CoFinite(b)) => CoFinite(sorted_difference(b, a)),
            (CoFinite(a), Finite(b)) => CoFinite(sorted_difference(a, b)),
            (CoFinite(a), CoFinite(b)) => CoFinite(sorted_intersect(a, b)),
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &SymSet) -> SymSet {
        self.intersect(&other.complement())
    }

    /// True iff the two sets share at least one symbol. Equal to
    /// `!self.intersect(other).is_empty()` without building the
    /// intersection: composition asks this of every arc pair.
    pub fn intersects(&self, other: &SymSet) -> bool {
        use SymSet::*;
        match (self, other) {
            (Finite(a), Finite(b)) => sorted_overlap(a, b),
            (Finite(fin), CoFinite(excl)) | (CoFinite(excl), Finite(fin)) => {
                !sorted_is_subset(fin, excl)
            }
            // the alphabet is open: two co-finite sets always meet
            (CoFinite(_), CoFinite(_)) => true,
        }
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &SymSet) -> bool {
        self.difference(other).is_empty()
    }

    /// Some member of the set, if one can be named without knowing the
    /// full alphabet. For co-finite sets this returns `None`; callers that
    /// need a concrete symbol should consult a
    /// [`SymbolTable`](crate::SymbolTable) via
    /// [`SymbolTable::any_except`](crate::SymbolTable::any_except).
    pub fn some_finite_member(&self) -> Option<Symbol> {
        match self {
            SymSet::Finite(v) => v.first().copied(),
            SymSet::CoFinite(_) => None,
        }
    }

    /// The excluded symbols if co-finite, or `None`.
    pub fn excluded(&self) -> Option<&[Symbol]> {
        match self {
            SymSet::CoFinite(v) => Some(v),
            SymSet::Finite(_) => None,
        }
    }

    /// Iterate over members of a finite set (panics on co-finite sets;
    /// check [`SymSet::excluded`] first).
    pub fn iter_finite(&self) -> impl Iterator<Item = Symbol> + '_ {
        match self {
            SymSet::Finite(v) => v.iter().copied(),
            SymSet::CoFinite(_) => panic!("iter_finite on a co-finite set"),
        }
    }
}

impl fmt::Display for SymSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymSet::Finite(v) => {
                write!(f, "{{")?;
                for (i, s) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "}}")
            }
            SymSet::CoFinite(v) if v.is_empty() => write!(f, "."),
            SymSet::CoFinite(v) => {
                write!(f, "!{{")?;
                for (i, s) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn sorted_intersect(a: &[Symbol], b: &[Symbol]) -> Vec<Symbol> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn sorted_union(a: &[Symbol], b: &[Symbol]) -> Vec<Symbol> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Do the sorted slices share an element?
fn sorted_overlap(a: &[Symbol], b: &[Symbol]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Is every element of sorted `a` in sorted `b`?
fn sorted_is_subset(a: &[Symbol], b: &[Symbol]) -> bool {
    let mut j = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j == b.len() || b[j] != *x {
            return false;
        }
        j += 1;
    }
    true
}

/// `a \ b` for sorted slices.
fn sorted_difference(a: &[Symbol], b: &[Symbol]) -> Vec<Symbol> {
    let mut out = Vec::with_capacity(a.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Refine a partition of the alphabet by a collection of sets.
///
/// Returns pairwise-disjoint, non-empty sets ("minterms") such that every
/// input set is a union of minterms and the minterms cover the whole
/// alphabet. Used by determinization, minimization, and equivalence
/// checking to locally discretize the symbolic alphabet.
///
/// # Examples
///
/// ```
/// use rela_automata::{minterms, SymSet, Symbol};
/// let a = Symbol::from_index(0);
/// let b = Symbol::from_index(1);
/// let sets = vec![
///     SymSet::from_syms(vec![a, b]),
///     SymSet::singleton(a),
/// ];
/// let parts = minterms(&sets);
/// // {a}, {b}, and "everything else" are distinguishable.
/// assert_eq!(parts.len(), 3);
/// ```
pub fn minterms(sets: &[SymSet]) -> Vec<SymSet> {
    let mut parts = vec![SymSet::universe()];
    for s in sets {
        if s.is_empty() || s.is_universe() {
            continue;
        }
        let mut next = Vec::with_capacity(parts.len() * 2);
        for p in parts {
            let inside = p.intersect(s);
            let outside = p.difference(s);
            if !inside.is_empty() {
                next.push(inside);
            }
            if !outside.is_empty() {
                next.push(outside);
            }
        }
        parts = next;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ix: u32) -> Symbol {
        Symbol::from_index(ix as usize)
    }

    #[test]
    fn empty_and_universe() {
        assert!(SymSet::empty().is_empty());
        assert!(!SymSet::universe().is_empty());
        assert!(SymSet::universe().is_universe());
        assert!(SymSet::universe().contains(s(42)));
        assert!(!SymSet::empty().contains(s(42)));
    }

    #[test]
    fn from_syms_sorts_and_dedups() {
        let set = SymSet::from_syms(vec![s(3), s(1), s(3), s(2)]);
        assert_eq!(set, SymSet::Finite(vec![s(1), s(2), s(3)]));
    }

    #[test]
    fn complement_involution() {
        let set = SymSet::from_syms(vec![s(1), s(5)]);
        assert_eq!(set.complement().complement(), set);
    }

    #[test]
    fn intersect_finite_cofinite() {
        let fin = SymSet::from_syms(vec![s(1), s(2), s(3)]);
        let cof = SymSet::all_except(vec![s(2)]);
        assert_eq!(fin.intersect(&cof), SymSet::from_syms(vec![s(1), s(3)]));
        assert_eq!(cof.intersect(&fin), SymSet::from_syms(vec![s(1), s(3)]));
    }

    #[test]
    fn union_cofinite_cofinite() {
        let a = SymSet::all_except(vec![s(1), s(2)]);
        let b = SymSet::all_except(vec![s(2), s(3)]);
        // union excludes only what both exclude
        assert_eq!(a.union(&b), SymSet::all_except(vec![s(2)]));
        assert_eq!(a.intersect(&b), SymSet::all_except(vec![s(1), s(2), s(3)]));
    }

    #[test]
    fn intersects_is_a_nonempty_intersection_on_every_pairing() {
        let lists: [&[u32]; 6] = [&[], &[1], &[2], &[1, 2], &[2, 3, 5], &[0, 1, 2, 3, 4, 5]];
        let sets: Vec<SymSet> = lists
            .iter()
            .flat_map(|syms| {
                let syms: Vec<Symbol> = syms.iter().map(|&i| s(i)).collect();
                [SymSet::from_syms(syms.clone()), SymSet::all_except(syms)]
            })
            .collect();
        for a in &sets {
            for b in &sets {
                assert_eq!(a.intersects(b), !a.intersect(b).is_empty(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn difference_and_subset() {
        let big = SymSet::from_syms(vec![s(1), s(2), s(3)]);
        let small = SymSet::from_syms(vec![s(2)]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert_eq!(big.difference(&small), SymSet::from_syms(vec![s(1), s(3)]));
        assert!(small.is_subset(&SymSet::universe()));
        assert!(SymSet::empty().is_subset(&small));
    }

    #[test]
    fn de_morgan_on_samples() {
        let a = SymSet::from_syms(vec![s(1), s(2)]);
        let b = SymSet::all_except(vec![s(2), s(4)]);
        assert_eq!(
            a.union(&b).complement(),
            a.complement().intersect(&b.complement())
        );
        assert_eq!(
            a.intersect(&b).complement(),
            a.complement().union(&b.complement())
        );
    }

    #[test]
    fn minterms_partition() {
        let sets = vec![
            SymSet::from_syms(vec![s(1), s(2)]),
            SymSet::from_syms(vec![s(2), s(3)]),
        ];
        let parts = minterms(&sets);
        // parts: {1}, {2}, {3}, everything-else
        assert_eq!(parts.len(), 4);
        // pairwise disjoint
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                assert!(!parts[i].intersects(&parts[j]), "{i} {j} overlap");
            }
        }
        // each input is a union of minterms: every minterm is inside or outside
        for set in &sets {
            for p in &parts {
                assert!(p.is_subset(set) || !p.intersects(set));
            }
        }
    }

    #[test]
    fn minterms_of_empty_input_is_universe() {
        let parts = minterms(&[]);
        assert_eq!(parts, vec![SymSet::universe()]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SymSet::universe().to_string(), ".");
        assert_eq!(SymSet::from_syms(vec![s(1)]).to_string(), "{s1}");
        assert_eq!(SymSet::all_except(vec![s(1)]).to_string(), "!{s1}");
    }
}
