//! The RIR's denotational semantics (paper Appendix A) as an exact
//! evaluator over explicit path sets: the reference the automata
//! decision procedure ([`rela_core::lower`]) and the whole checker
//! ([`super::truth`]) are tested against. It ships in no product crate.
//!
//! Exact, with no length bound, on one fragment of the RIR:
//! - a term that may be infinite (a star, a complement, a co-finite atom
//!   such as `.`) is only asked whether it contains a given word
//!   ([`contains`]);
//! - a finite term is enumerated ([`members`]). An image is evaluated
//!   pointwise over its finite domain: the relation is applied to each
//!   path of the finite set on its left ([`apply`]), and every
//!   relation's output must be finite;
//! - `=` compares two finite sides; `<=` asks, for each path of a finite
//!   left side, whether the right side contains it ([`eval_spec`]).
//!
//! A term outside that fragment panics. It is never approximated.

use rela_automata::{SymSet, Symbol};
use rela_core::{PathSet, Rel, RirSpec};
use std::collections::BTreeSet;

/// A concrete path.
pub(crate) type Path = Vec<Symbol>;
/// An explicit path set.
pub(crate) type Paths = BTreeSet<Path>;

/// The two snapshots `PreState` and `PostState` stand for.
pub(crate) struct EvalCtx {
    /// Pre-change paths.
    pub(crate) pre: Paths,
    /// Post-change paths.
    pub(crate) post: Paths,
}

/// Every word over `alphabet` at most `max_len` long: the probes a
/// word-by-word comparison asks a possibly infinite term about.
pub(crate) fn words(alphabet: &[Symbol], max_len: usize) -> Vec<Path> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for w in &frontier {
            for &a in alphabet {
                let mut longer: Path = w.clone();
                longer.push(a);
                out.push(longer.clone());
                next.push(longer);
            }
        }
        frontier = next;
    }
    out
}

/// `M, N ⊨ S` (Appendix A).
///
/// # Panics
///
/// On a side of `=`, or the left of `<=`, that may be infinite.
pub(crate) fn eval_spec(s: &RirSpec, ctx: &EvalCtx) -> bool {
    match s {
        RirSpec::Equal(a, b) => finite(a, ctx) == finite(b, ctx),
        RirSpec::Subset(a, b) => finite(a, ctx).iter().all(|w| contains(b, w, ctx)),
        RirSpec::And(a, b) => eval_spec(a, ctx) && eval_spec(b, ctx),
        RirSpec::Or(a, b) => eval_spec(a, ctx) || eval_spec(b, ctx),
        RirSpec::Not(a) => !eval_spec(a, ctx),
    }
}

/// The members of a term that must be finite.
///
/// # Panics
///
/// If the term may be infinite.
fn finite(p: &PathSet, ctx: &EvalCtx) -> Paths {
    members(p, ctx)
        .unwrap_or_else(|| panic!("outside the evaluator's fragment: {p:?} may be infinite"))
}

/// `𝒫⟦p⟧` when `p` is finite; `None` when it may be infinite.
pub(crate) fn members(p: &PathSet, ctx: &EvalCtx) -> Option<Paths> {
    Some(match p {
        PathSet::Empty => Paths::new(),
        PathSet::Eps => [Vec::new()].into(),
        PathSet::Atom(SymSet::Finite(syms)) => syms.iter().map(|&a| vec![a]).collect(),
        PathSet::Atom(SymSet::CoFinite(_)) | PathSet::Complement(_) => return None,
        PathSet::PreState => ctx.pre.clone(),
        PathSet::PostState => ctx.post.clone(),
        PathSet::Union(parts) => {
            let mut out = Paths::new();
            for q in parts {
                out.extend(members(q, ctx)?);
            }
            out
        }
        PathSet::Concat(parts) => {
            let mut acc: Paths = [Vec::new()].into();
            for q in parts {
                acc = concat(&acc, &members(q, ctx)?);
            }
            acc
        }
        // finite only when the starred set adds nothing but ε
        PathSet::Star(inner) => {
            if members(inner, ctx)?.iter().any(|w| !w.is_empty()) {
                return None;
            }
            [Vec::new()].into()
        }
        PathSet::Inter(a, b) => match members(a, ctx) {
            Some(xs) => xs.into_iter().filter(|w| contains(b, w, ctx)).collect(),
            None => members(b, ctx)?
                .into_iter()
                .filter(|w| contains(a, w, ctx))
                .collect(),
        },
        PathSet::Image(domain, r) => {
            let mut out = Paths::new();
            for x in &members(domain, ctx)? {
                out.extend(apply(r, x, ctx)?);
            }
            out
        }
    })
}

/// `w ∈ 𝒫⟦p⟧`.
///
/// # Panics
///
/// On an image whose domain may be infinite, or whose relation maps a
/// path of it to infinitely many.
pub(crate) fn contains(p: &PathSet, w: &[Symbol], ctx: &EvalCtx) -> bool {
    match p {
        PathSet::Empty => false,
        PathSet::Eps => w.is_empty(),
        PathSet::Atom(set) => w.len() == 1 && set.contains(w[0]),
        PathSet::PreState => ctx.pre.contains(w),
        PathSet::PostState => ctx.post.contains(w),
        PathSet::Union(parts) => parts.iter().any(|q| contains(q, w, ctx)),
        PathSet::Concat(parts) => concat_contains(parts, w, ctx),
        // reach[j]: w[..j] splits into non-empty words of `inner`
        PathSet::Star(inner) => {
            let mut reach = vec![false; w.len() + 1];
            reach[0] = true;
            for j in 1..=w.len() {
                reach[j] = (0..j).any(|i| reach[i] && contains(inner, &w[i..j], ctx));
            }
            reach[w.len()]
        }
        PathSet::Inter(a, b) => contains(a, w, ctx) && contains(b, w, ctx),
        PathSet::Complement(inner) => !contains(inner, w, ctx),
        PathSet::Image(..) => finite(p, ctx).contains(w),
    }
}

/// `{ y | (x, y) ∈ ℛ⟦r⟧ }` when finite; `None` when it may be infinite.
pub(crate) fn apply(r: &Rel, x: &[Symbol], ctx: &EvalCtx) -> Option<Paths> {
    Some(match r {
        Rel::Empty => Paths::new(),
        Rel::Eps if x.is_empty() => [Vec::new()].into(),
        Rel::Eps => Paths::new(),
        Rel::Cross(a, b) if contains(a, x, ctx) => members(b, ctx)?,
        Rel::Cross(..) => Paths::new(),
        Rel::Ident(p) if contains(p, x, ctx) => [x.to_vec()].into(),
        Rel::Ident(_) => Paths::new(),
        Rel::Union(parts) => {
            let mut out = Paths::new();
            for q in parts {
                out.extend(apply(q, x, ctx)?);
            }
            out
        }
        Rel::Concat(parts) => concat_apply(parts, x, ctx)?,
        Rel::Star(inner) => {
            // a step that reads nothing but writes something repeats
            // forever
            if apply(inner, &[], ctx)?.iter().any(|y| !y.is_empty()) {
                return None;
            }
            // outs[j]: what the steps that read x[..j] write
            let mut outs: Vec<Paths> = vec![[Vec::new()].into()];
            for j in 1..=x.len() {
                let mut here = Paths::new();
                for (i, before) in outs.iter().enumerate() {
                    if !before.is_empty() {
                        here.extend(concat(before, &apply(inner, &x[i..j], ctx)?));
                    }
                }
                outs.push(here);
            }
            outs.pop().expect("ε is always read")
        }
        Rel::Compose(a, b) => {
            let mut out = Paths::new();
            for y in &apply(a, x, ctx)? {
                out.extend(apply(b, y, ctx)?);
            }
            out
        }
    })
}

/// `w ∈ 𝒫⟦p₁ p₂ …⟧`: some split of `w` puts each piece in its part.
fn concat_contains(parts: &[PathSet], w: &[Symbol], ctx: &EvalCtx) -> bool {
    match parts.split_first() {
        None => w.is_empty(),
        Some((head, rest)) => (0..=w.len())
            .any(|i| contains(head, &w[..i], ctx) && concat_contains(rest, &w[i..], ctx)),
    }
}

/// [`apply`] for `r₁ r₂ …`: every split of `x`, each piece through its
/// part.
fn concat_apply(parts: &[Rel], x: &[Symbol], ctx: &EvalCtx) -> Option<Paths> {
    let Some((head, rest)) = parts.split_first() else {
        return Some(if x.is_empty() {
            [Vec::new()].into()
        } else {
            Paths::new()
        });
    };
    let mut out = Paths::new();
    for i in 0..=x.len() {
        let firsts = apply(head, &x[..i], ctx)?;
        if !firsts.is_empty() {
            out.extend(concat(&firsts, &concat_apply(rest, &x[i..], ctx)?));
        }
    }
    Some(out)
}

fn concat(left: &Paths, right: &Paths) -> Paths {
    left.iter()
        .flat_map(|x| right.iter().map(move |y| [x.as_slice(), y].concat()))
        .collect()
}
