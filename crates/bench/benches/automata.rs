//! Criterion micro-benchmarks for the automata substrate: the primitive
//! costs behind the paper's decision procedure (§6) — determinization,
//! minimization, equivalence, transducer composition, image computation,
//! and witness enumeration — as a function of input size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rela_automata::{
    compose, determinize, enumerate_words, equivalent, image, meets, minimize, Dfa, Fst, Nfa,
    Regex, SymSet, Symbol,
};
use std::hint::black_box;

fn sym(ix: usize) -> Symbol {
    Symbol::from_index(ix)
}

/// A chain-of-choices regex: (a0|b0)(a1|b1)...(an|bn) — DFA-friendly but
/// grows linearly.
fn chain_regex(n: usize) -> Regex {
    Regex::concat(
        (0..n)
            .map(|i| Regex::union(vec![Regex::sym(sym(2 * i)), Regex::sym(sym(2 * i + 1))]))
            .collect(),
    )
}

/// The classic exponential-determinization family: .* a .{n}
fn needle_regex(n: usize) -> Regex {
    let mut parts = vec![Regex::any_star(), Regex::sym(sym(0))];
    parts.extend(std::iter::repeat_n(Regex::any(), n));
    Regex::concat(parts)
}

fn bench_determinize(c: &mut Criterion) {
    let mut group = c.benchmark_group("determinize");
    for n in [4usize, 8, 12] {
        let nfa = needle_regex(n).to_nfa();
        group.bench_with_input(BenchmarkId::new("needle", n), &nfa, |b, nfa| {
            b.iter(|| determinize(black_box(nfa)))
        });
        let chain = chain_regex(n * 4).to_nfa();
        group.bench_with_input(BenchmarkId::new("chain", n * 4), &chain, |b, nfa| {
            b.iter(|| determinize(black_box(nfa)))
        });
    }
    group.finish();
}

fn bench_minimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimize");
    for n in [4usize, 8] {
        let dfa = determinize(&needle_regex(n).to_nfa());
        group.bench_with_input(BenchmarkId::new("needle", n), &dfa, |b, dfa| {
            b.iter(|| minimize(black_box(dfa)))
        });
    }
    group.finish();
}

fn bench_equivalence(c: &mut Criterion) {
    let mut group = c.benchmark_group("equivalence");
    for n in [8usize, 16, 32] {
        let d1 = determinize(&chain_regex(n).to_nfa());
        let d2 = determinize(&chain_regex(n).to_nfa());
        group.bench_with_input(BenchmarkId::new("equal-chains", n), &n, |b, _| {
            b.iter(|| equivalent(black_box(&d1), black_box(&d2)))
        });
    }
    group.finish();
}

fn bench_fst(c: &mut Criterion) {
    let mut group = c.benchmark_group("fst");
    for n in [4usize, 8, 16] {
        // identity over a chain, composed with a rewrite relation
        let base = chain_regex(n).to_nfa();
        let ident = Fst::identity(&base);
        let rewrite = Fst::cross(&base, &chain_regex(n).to_nfa());
        group.bench_with_input(BenchmarkId::new("compose", n), &n, |b, _| {
            b.iter(|| compose(black_box(&ident), black_box(&rewrite)))
        });
        let word: Vec<Symbol> = (0..n).map(|i| sym(2 * i)).collect();
        let p = Nfa::word(&word);
        group.bench_with_input(BenchmarkId::new("image", n), &n, |b, _| {
            b.iter(|| image(black_box(&p), black_box(&rewrite)))
        });
    }
    group.finish();
}

/// An interface-granularity trunk, as a path set and as the relation an
/// `else` branch applies to it: `hops` hops of four parallel links whose
/// labels are wide finite sets (a link's ports), under
/// `I(¬zone) ∘ (I(.*) | zone × marker)` — a complemented guard, so most
/// of the transducer's arcs carry co-finite sets.
fn trunk_and_guarded_relation(hops: usize) -> (Nfa, Fst) {
    const LINKS: usize = 4;
    const PORTS: usize = 8;
    let ports = |hop: usize, link: usize| {
        let first = (hop * LINKS + link) * PORTS;
        SymSet::from_syms((first..first + PORTS).map(sym).collect())
    };
    let mut trunk = Nfa::new();
    let mut at = trunk.start();
    for hop in 0..hops {
        let next = trunk.add_state();
        for link in 0..LINKS {
            trunk.add_arc(at, ports(hop, link), next);
        }
        at = next;
    }
    trunk.set_accepting(at, true);
    // the zone: leaves over link 0 of the first hop, arrives over link 0
    // of the last
    let zone = Regex::concat(vec![
        Regex::Set(ports(0, 0)),
        Regex::any_star(),
        Regex::Set(ports(hops - 1, 0)),
    ])
    .to_nfa();
    let marker = Regex::sym(sym(hops * LINKS * PORTS)).to_nfa();
    let guard = determinize(&zone).complement().to_nfa();
    let body = Fst::identity(&Regex::any_star().to_nfa()).union(&Fst::cross(&zone, &marker));
    (trunk, compose(&Fst::identity(&guard), &body))
}

fn bench_fst_interface(c: &mut Criterion) {
    let mut group = c.benchmark_group("fst");
    for hops in [4usize, 8, 16] {
        let (trunk, relation) = trunk_and_guarded_relation(hops);
        group.bench_with_input(BenchmarkId::new("image-interface", hops), &hops, |b, _| {
            b.iter(|| image(black_box(&trunk), black_box(&relation)))
        });
        // the question the decide path asks before it builds that image
        let domain = determinize(&relation.domain().trim()).trim_dead();
        group.bench_with_input(BenchmarkId::new("meets-interface", hops), &hops, |b, _| {
            b.iter(|| meets(black_box(&trunk), black_box(&domain)))
        });
    }
    group.finish();
}

/// `hops` hops of four disjoint parallel arcs, each hop with a fifth arc
/// into a dead branch: 4^hops words, and 5^k prefixes of length k for a
/// walk that does not know which of them can finish.
fn ecmp_chain(hops: usize) -> Dfa {
    let dead = hops + 1;
    let mut arcs: Vec<Vec<(SymSet, usize)>> = (0..hops)
        .map(|hop| {
            let mut row: Vec<_> = (0..4)
                .map(|ix| (SymSet::singleton(sym(5 * hop + ix)), hop + 1))
                .collect();
            row.push((SymSet::singleton(sym(5 * hop + 4)), dead));
            row
        })
        .collect();
    arcs.push(Vec::new());
    arcs.push(vec![(SymSet::universe(), dead)]);
    let accepting = (0..arcs.len()).map(|s| s == hops).collect();
    Dfa::from_parts(arcs, accepting, 0)
}

fn bench_witness(c: &mut Criterion) {
    let mut group = c.benchmark_group("witness");
    for hops in [8usize, 16, 24] {
        let dfa = ecmp_chain(hops);
        group.bench_with_input(BenchmarkId::new("ecmp-chain", hops), &dfa, |b, dfa| {
            b.iter(|| enumerate_words(black_box(dfa), 4, 64))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_determinize,
    bench_minimize,
    bench_equivalence,
    bench_fst,
    bench_fst_interface,
    bench_witness
);
criterion_main!(benches);
