//! Property-based tests for the Rela core.
//!
//! Two families:
//!
//! 1. **RIR soundness** — for random RIR terms over small snapshot pairs,
//!    the automata-based decision procedure ([`rela_core::lower`]) must
//!    agree with the exact reference semantics of Appendix A
//!    (`support::semantics`, test support that ships in no crate):
//!    word for word on any term of its fragment, and verdict for verdict
//!    on any spec.
//! 2. **Fig. 4 invariants** — for random surface specs, compiled
//!    relations must satisfy the paper's framing: a spec always accepts
//!    the identical pre/post pair when its relations preserve the
//!    snapshot's zone-restricted behaviour (e.g. `preserve`-only specs),
//!    and zone complements route correctly through `else`.
//!
//! The reference evaluator's own tests, and the lowering tests that
//! compare against it, keep the module paths they had inside `rela-core`
//! (`semantics::tests`, `lower::tests`).

mod support;

use proptest::prelude::*;
use rela_automata::{Nfa, SymSet, Symbol};
use rela_core::{decide_spec, lower_pathset, PairFsas, PathSet, Rel, RirSpec};
use std::collections::BTreeSet;
use support::semantics::{contains, eval_spec, words, EvalCtx, Paths};

const ALPHABET: usize = 3;
const MAX_LEN: usize = 3;

fn sym(ix: usize) -> Symbol {
    Symbol::from_index(ix)
}

fn alphabet() -> Vec<Symbol> {
    (0..ALPHABET).map(sym).collect()
}

/// Strategy: a small set of concrete paths (a snapshot).
fn paths_strategy() -> impl Strategy<Value = Paths> {
    proptest::collection::btree_set(
        proptest::collection::vec(0..ALPHABET, 0..=MAX_LEN)
            .prop_map(|v| v.into_iter().map(sym).collect::<Vec<_>>()),
        0..4,
    )
}

/// Strategy: a random finite symbolic set over the small alphabet.
fn finite_symset_strategy() -> BoxedStrategy<SymSet> {
    proptest::collection::vec(0..ALPHABET, 0..3)
        .prop_map(|v| SymSet::from_syms(v.into_iter().map(sym).collect()))
}

/// Strategy: a random symbolic set, finite or co-finite.
fn symset_strategy() -> impl Strategy<Value = SymSet> {
    prop_oneof![
        Just(SymSet::universe()),
        finite_symset_strategy(),
        proptest::collection::vec(0..ALPHABET, 1..3)
            .prop_map(|v| SymSet::all_except(v.into_iter().map(sym).collect())),
    ]
}

/// Strategies for random RIR path sets of the reference evaluator's
/// fragment, `depth` levels deep: `(finite, any)` — sets it enumerates,
/// and sets it only asks about a word. Images take a finite domain and a
/// relation with finite outputs.
fn fragment_strategies(depth: u32) -> (BoxedStrategy<PathSet>, BoxedStrategy<PathSet>) {
    let finite_leaf = prop_oneof![
        Just(PathSet::Empty),
        Just(PathSet::Eps),
        Just(PathSet::PreState),
        Just(PathSet::PostState),
        finite_symset_strategy().prop_map(PathSet::Atom),
    ]
    .boxed();
    let any_leaf = prop_oneof![
        finite_leaf.clone(),
        symset_strategy().prop_map(PathSet::Atom)
    ]
    .boxed();
    if depth == 0 {
        return (finite_leaf, any_leaf);
    }
    let (finite, any) = fragment_strategies(depth - 1);
    let rel = rel_strategy(finite.clone(), any.clone());
    let finite_level = prop_oneof![
        proptest::collection::vec(finite.clone(), 2..3).prop_map(PathSet::Union),
        proptest::collection::vec(finite.clone(), 2..3).prop_map(PathSet::Concat),
        (finite.clone(), any.clone(), 0..2usize).prop_map(|(a, b, flip)| {
            let (a, b) = (Box::new(a), Box::new(b));
            if flip == 1 {
                PathSet::Inter(b, a)
            } else {
                PathSet::Inter(a, b)
            }
        }),
        (finite, rel).prop_map(|(p, r)| PathSet::Image(Box::new(p), Box::new(r))),
    ];
    let finite_next = prop_oneof![finite_leaf, finite_level].boxed();
    let any_next = prop_oneof![
        any_leaf,
        finite_next.clone(),
        proptest::collection::vec(any.clone(), 2..3).prop_map(PathSet::Union),
        proptest::collection::vec(any.clone(), 2..3).prop_map(PathSet::Concat),
        any.clone().prop_map(|p| PathSet::Star(Box::new(p))),
        (any.clone(), any.clone()).prop_map(|(a, b)| PathSet::Inter(Box::new(a), Box::new(b))),
        any.prop_map(|p| PathSet::Complement(Box::new(p))),
    ]
    .boxed();
    (finite_next, any_next)
}

/// Relations whose image of any one path is finite: a cross product's
/// right side is finite, and a starred step reads at least one symbol.
fn rel_strategy(finite: BoxedStrategy<PathSet>, any: BoxedStrategy<PathSet>) -> BoxedStrategy<Rel> {
    let leaf = prop_oneof![
        Just(Rel::Empty),
        Just(Rel::Eps),
        (any.clone(), finite).prop_map(|(a, b)| Rel::Cross(Box::new(a), Box::new(b))),
        any.prop_map(|p| Rel::Ident(Box::new(p))),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Rel::Union),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Rel::Concat),
            (symset_strategy(), inner.clone()).prop_map(|(first, r)| {
                let step = Rel::Concat(vec![Rel::Ident(Box::new(PathSet::Atom(first))), r]);
                Rel::Star(Box::new(step))
            }),
            (inner.clone(), inner).prop_map(|(a, b)| Rel::Compose(Box::new(a), Box::new(b))),
        ]
    })
}

/// Strategy: any path set of the fragment.
fn pathset_strategy() -> BoxedStrategy<PathSet> {
    fragment_strategies(3).1
}

/// Strategy: a spec of the fragment — `=` between finite sides, `<=`
/// from a finite side — under random boolean connectives.
fn spec_strategy() -> impl Strategy<Value = RirSpec> {
    let (finite, any) = fragment_strategies(2);
    let leaf = prop_oneof![
        (finite.clone(), finite.clone()).prop_map(|(a, b)| RirSpec::Equal(a, b)),
        (finite, any).prop_map(|(a, b)| RirSpec::Subset(a, b)),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RirSpec::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RirSpec::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| RirSpec::Not(Box::new(a))),
        ]
    })
}

fn env_of(pre: &Paths, post: &Paths) -> PairFsas {
    let build = |paths: &Paths| -> Nfa {
        paths
            .iter()
            .map(|w| Nfa::word(w))
            .fold(Nfa::empty_language(), |acc, n| acc.union(&n))
    };
    PairFsas::new(build(pre), build(post))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The automata lowering and the reference semantics agree on every
    /// word up to the length of the longest snapshot path — exactly: the
    /// reference has no length bound, so there is no boundary to stay
    /// clear of.
    #[test]
    fn lowering_matches_reference_semantics(
        p in pathset_strategy(),
        pre in paths_strategy(),
        post in paths_strategy(),
    ) {
        let env = env_of(&pre, &post);
        let ctx = EvalCtx { pre, post };
        let nfa = lower_pathset(&p, &env);
        for w in words(&alphabet(), MAX_LEN) {
            prop_assert_eq!(
                nfa.accepts(&w),
                contains(&p, &w, &ctx),
                "term {:?} disagrees on {:?}", p, w
            );
        }
    }

    /// Verdicts agree on every spec of the fragment: the reference
    /// decides `=` and `<=` exactly, stars and complements included.
    #[test]
    fn bounded_spec_verdicts_agree(
        s in spec_strategy(),
        pre in paths_strategy(),
        post in paths_strategy(),
    ) {
        let env = env_of(&pre, &post);
        let ctx = EvalCtx { pre, post };
        prop_assert_eq!(decide_spec(&s, &env), eval_spec(&s, &ctx), "spec {:?}", s);
    }
}

// ---- surface language round-trips ---------------------------------------

/// Random surface path patterns built from a fixed name pool.
fn surface_regex_strategy() -> impl Strategy<Value = rela_core::PathRegex> {
    use rela_core::PathRegex;
    let leaf = prop_oneof![
        Just(PathRegex::Any),
        Just(PathRegex::Drop),
        proptest::sample::select(vec!["A1", "B1", "C1", "x1"])
            .prop_map(|n| PathRegex::Name(n.to_owned())),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(PathRegex::Union),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(PathRegex::Concat),
            inner.clone().prop_map(|r| PathRegex::Star(Box::new(r))),
            inner.clone().prop_map(|r| PathRegex::Plus(Box::new(r))),
            inner.prop_map(|r| PathRegex::Opt(Box::new(r))),
        ]
    })
}

/// Compare two surface patterns by the language they denote (after
/// resolution the AST shapes may differ — `a (b c)` vs `(a b) c`).
fn same_language(a: &rela_core::PathRegex, b: &rela_core::PathRegex) -> bool {
    use rela_core::{compile_program, Def, Modifier, Program, SpecExpr};
    use rela_net::{Device, LocationDb};
    let mut db = LocationDb::new();
    for n in ["A1", "B1", "C1", "x1"] {
        db.add_device(Device::new(n, n));
    }
    let zone_dfa = |r: &rela_core::PathRegex| {
        let program = Program {
            defs: vec![
                Def::Spec(
                    "s".into(),
                    SpecExpr::Atomic {
                        zone: r.clone(),
                        modifier: Modifier::Preserve,
                    },
                ),
                Def::Check("s".into()),
            ],
        };
        let compiled =
            compile_program(&program, &db, rela_net::Granularity::Device).expect("compiles");
        match &compiled.default_check {
            rela_core::CompiledCheck::Relational { parts, .. } => {
                let env = PairFsas::new(Nfa::empty_language(), Nfa::empty_language());
                rela_core::lower_pathset_dfa(&parts[0].zone, &env)
            }
            _ => unreachable!(),
        }
    };
    rela_automata::equivalent(&zone_dfa(a), &zone_dfa(b)).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// render → parse is language-preserving for surface patterns.
    #[test]
    fn surface_regex_roundtrips(re in surface_regex_strategy()) {
        let rendered = rela_core::compile::render_surface_regex(&re);
        let src = format!("regex r := {rendered}\nspec s := {{ r : preserve }}\ncheck s");
        let program = rela_core::parse_program(&src)
            .unwrap_or_else(|e| panic!("rendered `{rendered}` fails to parse: {e}"));
        match &program.defs[0] {
            rela_core::Def::Regex(_, parsed) => {
                prop_assert!(
                    same_language(&re, parsed),
                    "language changed through render/parse: `{}`", rendered
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

// Identical snapshots satisfy any preserve-only spec; this is the
// "nochange is trivial to state" cornerstone of the paper, checked
// across random snapshots.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nochange_accepts_identical_snapshots(paths in paths_strategy()) {
        let env = env_of(&paths, &paths);
        let any_star = PathSet::Star(Box::new(PathSet::Atom(SymSet::universe())));
        let spec = RirSpec::Equal(
            PathSet::Image(
                Box::new(PathSet::PreState),
                Box::new(Rel::Ident(Box::new(any_star.clone()))),
            ),
            PathSet::Image(
                Box::new(PathSet::PostState),
                Box::new(Rel::Ident(Box::new(any_star))),
            ),
        );
        prop_assert!(decide_spec(&spec, &env));
    }

    #[test]
    fn nochange_rejects_any_difference(
        paths in paths_strategy(),
        extra in proptest::collection::vec(0..ALPHABET, 1..=MAX_LEN),
    ) {
        let word: Vec<Symbol> = extra.into_iter().map(sym).collect();
        if paths.contains(&word) {
            return Ok(());
        }
        let mut post: BTreeSet<Vec<Symbol>> = paths.clone();
        post.insert(word);
        let env = env_of(&paths, &post);
        let any_star = PathSet::Star(Box::new(PathSet::Atom(SymSet::universe())));
        let spec = RirSpec::Equal(
            PathSet::Image(
                Box::new(PathSet::PreState),
                Box::new(Rel::Ident(Box::new(any_star.clone()))),
            ),
            PathSet::Image(
                Box::new(PathSet::PostState),
                Box::new(Rel::Ident(Box::new(any_star))),
            ),
        );
        prop_assert!(!decide_spec(&spec, &env));
    }
}

// ---- behavior-class dedup ------------------------------------------------

/// The dedup-and-memoize engine must be invisible: dedup-on, dedup-off,
/// serial, and parallel checkers produce byte-identical reports on
/// randomized snapshot pairs with heavily duplicated forwarding graphs.
mod dedup {
    use super::*;
    use rela_core::{CheckReport, CheckSession, JobOptions, JobSpec, LabeledSource, SessionConfig};
    use rela_net::{
        Device, FlowSpec, ForwardingGraph, Granularity, LocationDb, Snapshot, SnapshotPair,
    };

    // A1-r1 and A2-r1 share a group, so random walks produce intra-group
    // edges (ε-stutters at group granularity) and device-distinct graphs
    // that merge into one group-level behavior class.
    const POOL: [(&str, &str); 6] = [
        ("x1", "X"),
        ("A1-r1", "A"),
        ("A2-r1", "A"),
        ("B1-r1", "B1"),
        ("D1-r1", "D1"),
        ("y1", "Y"),
    ];

    fn db() -> LocationDb {
        let mut db = LocationDb::new();
        for (name, group) in POOL {
            db.add_device(Device::new(name, group));
        }
        db
    }

    /// A random linear-ish graph: a walk over the device pool (deduped to
    /// keep it a DAG), optional parallel links on the first hop (ECMP),
    /// optionally terminated by a policy drop.
    fn build_graph(walk: &[usize], parallel: usize, dropped: bool) -> ForwardingGraph {
        let mut names: Vec<&str> = Vec::new();
        for &ix in walk {
            let name = POOL[ix % POOL.len()].0;
            if !names.contains(&name) {
                names.push(name);
            }
        }
        let mut g = ForwardingGraph::new();
        for name in &names {
            g.add_vertex(*name);
        }
        for i in 0..names.len() - 1 {
            g.add_edge(i, i + 1, format!("e{i}"), format!("e{i}"));
        }
        if names.len() >= 2 {
            for k in 1..parallel {
                g.add_edge(0, 1, format!("p{k}"), format!("p{k}"));
            }
        }
        g.sources.push(0);
        if dropped {
            g.drops.push(names.len() - 1);
        } else {
            g.sinks.push(names.len() - 1);
        }
        g
    }

    /// (walk, parallel links, dropped) descriptors for a few base graphs.
    type GraphDesc = (Vec<usize>, usize, bool);

    fn graph_strategy() -> impl Strategy<Value = GraphDesc> {
        (
            proptest::collection::vec(0..POOL.len(), 1..5),
            1..3usize,
            (0..2usize).prop_map(|b| b == 1),
        )
    }

    /// Flow `i`: every fourth flow lands in 10.200/16, which a pspec
    /// routes to an ECMP limit check (exercising interface-fidelity
    /// hashing); the rest hit the default nochange spec.
    fn flow_of(i: usize) -> FlowSpec {
        let dst = if i % 4 == 3 {
            format!("10.200.{}.0/24", i % 256)
        } else {
            format!("10.{}.{}.0/24", i / 256, i % 256)
        };
        FlowSpec::new(dst.parse().unwrap(), "x1")
    }

    const SPEC: &str = "limit ecmp := 1\n\
                        spec nochange := { .* : preserve }\n\
                        pspec lim := (dstPrefix == 10.200.0.0/16) -> ecmp\n\
                        check nochange\n";

    /// A fresh session over [`SPEC`] — fresh, so its first run is cold.
    fn session(granularity: Granularity, threads: usize) -> CheckSession {
        let config = SessionConfig {
            granularity,
            threads,
            ..SessionConfig::default()
        };
        CheckSession::open(SPEC, db(), config).expect("spec compiles")
    }

    /// One cold run of an in-memory pair.
    fn check_pair(
        granularity: Granularity,
        threads: usize,
        options: JobOptions,
        pair: &SnapshotPair,
    ) -> CheckReport {
        let job = JobSpec::pair(pair).with_options(options);
        session(granularity, threads)
            .run(job)
            .expect("in-memory pair")
    }

    /// A job over two JSON snapshot documents.
    fn streams<'a>(pre: &'a str, post: &'a str) -> JobSpec<'a> {
        JobSpec::streams(
            LabeledSource::new(pre.as_bytes(), "pre.json"),
            LabeledSource::new(post.as_bytes(), "post.json"),
        )
    }

    fn assert_reports_equal(a: &CheckReport, b: &CheckReport, what: &str) {
        assert_eq!(a.total, b.total, "{what}: total");
        assert_eq!(a.compliant, b.compliant, "{what}: compliant");
        assert_eq!(a.part_counts, b.part_counts, "{what}: part counts");
        assert_eq!(a.violations, b.violations, "{what}: violations");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn dedup_and_scheduling_never_change_the_report(
            bases in proptest::collection::vec(graph_strategy(), 1..4),
            picks in proptest::collection::vec((0..4usize, 0..4usize), 1..13),
        ) {
            let graphs: Vec<ForwardingGraph> = bases
                .iter()
                .map(|(walk, parallel, dropped)| build_graph(walk, *parallel, *dropped))
                .collect();
            let mut pre = Snapshot::new();
            let mut post = Snapshot::new();
            for (i, (p, q)) in picks.iter().enumerate() {
                let flow = flow_of(i);
                pre.insert(flow.clone(), graphs[p % graphs.len()].clone());
                post.insert(flow, graphs[q % graphs.len()].clone());
            }
            let pair = SnapshotPair::align(&pre, &post);

            // Group granularity covers the subtlest hashing path: vertices
            // abstract to group labels and intra-group edges become
            // ε-stutters, so hash-vs-FSA agreement is least obvious there.
            for granularity in [Granularity::Device, Granularity::Group] {
                let run = |dedup: bool, threads: usize| {
                    let options = JobOptions { dedup, ..JobOptions::default() };
                    check_pair(granularity, threads, options, &pair)
                };

                let reference = run(true, 1);
                prop_assert!(reference.stats.classes <= reference.stats.fecs);
                prop_assert_eq!(
                    reference.stats.dedup_hits,
                    reference.stats.fecs - reference.stats.classes
                );
                for (dedup, threads) in [(true, 4), (false, 1), (false, 4)] {
                    let other = run(dedup, threads);
                    assert_reports_equal(
                        &reference,
                        &other,
                        &format!("{granularity:?} dedup={dedup} threads={threads}"),
                    );
                    if !dedup {
                        prop_assert_eq!(other.stats.classes, other.stats.fecs);
                    }
                }
            }
        }
    }

    /// A report's rendering minus its timing-dependent lines: what must
    /// be byte-identical across engine paths.
    fn report_bytes(report: &CheckReport) -> String {
        report
            .to_string()
            .lines()
            .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Pipelined and materialized checks produce byte-identical
        /// reports on randomized snapshot pairs at every thread count —
        /// the invariant of the decode/fingerprint/decide pipeline.
        #[test]
        fn pipelining_and_threads_never_change_the_report(
            bases in proptest::collection::vec(graph_strategy(), 1..4),
            picks in proptest::collection::vec((0..4usize, 0..4usize), 1..13),
        ) {
            let graphs: Vec<ForwardingGraph> = bases
                .iter()
                .map(|(walk, parallel, dropped)| build_graph(walk, *parallel, *dropped))
                .collect();
            let mut pre = Snapshot::new();
            let mut post = Snapshot::new();
            for (i, (p, q)) in picks.iter().enumerate() {
                let flow = flow_of(i);
                pre.insert(flow.clone(), graphs[p % graphs.len()].clone());
                post.insert(flow, graphs[q % graphs.len()].clone());
            }
            let pair = SnapshotPair::align(&pre, &post);
            let pre_json = pre.to_json().expect("pre serializes");
            let post_json = post.to_json().expect("post serializes");

            let reference =
                report_bytes(&check_pair(Granularity::Group, 0, JobOptions::default(), &pair));

            for threads in [1usize, 2, 4] {
                let piped = session(Granularity::Group, threads)
                    .run(streams(&pre_json, &post_json))
                    .expect("clean streams");
                prop_assert_eq!(report_bytes(&piped), reference.clone(), "threads {}", threads);
            }
        }

        /// A mid-stream error aborts the pipelined check with exactly
        /// the error `SnapshotReader` (the decoder the materialized path
        /// runs) reports for the corrupt side — message, byte offset,
        /// entry index, and label — wherever the stream is cut.
        #[test]
        fn pipeline_errors_match_the_serial_contract(
            bases in proptest::collection::vec(graph_strategy(), 1..3),
            picks in proptest::collection::vec((0..4usize, 0..4usize), 2..9),
            cut_permille in 100..950usize,
        ) {
            use rela_net::SnapshotReader;
            let graphs: Vec<ForwardingGraph> = bases
                .iter()
                .map(|(walk, parallel, dropped)| build_graph(walk, *parallel, *dropped))
                .collect();
            let mut pre = Snapshot::new();
            let mut post = Snapshot::new();
            for (i, (p, q)) in picks.iter().enumerate() {
                let flow = flow_of(i);
                pre.insert(flow.clone(), graphs[p % graphs.len()].clone());
                post.insert(flow, graphs[q % graphs.len()].clone());
            }
            let pre_json = pre.to_json().expect("pre serializes");
            let post_json = post.to_json().expect("post serializes");
            let cut = &post_json[..post_json.len() * cut_permille / 1000];

            let serial_err = SnapshotReader::new(cut.as_bytes())
                .with_label("post.json")
                .collect::<Result<Snapshot, _>>()
                .expect_err("truncated post stream");
            for threads in [1usize, 4] {
                let piped_err = session(Granularity::Group, threads)
                    .run(streams(&pre_json, cut))
                    .expect_err("truncated post stream");
                prop_assert_eq!(piped_err.as_snapshot(), Some(&serial_err), "threads {}", threads);
            }
        }
    }

    proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The persistent verdict store must be invisible: cold-with-store,
    /// disk-rehydrated warm replay, and store-free runs produce
    /// byte-identical reports at every granularity.
    #[test]
    fn persistent_cache_never_changes_the_report(
        bases in proptest::collection::vec(graph_strategy(), 1..4),
        picks in proptest::collection::vec((0..4usize, 0..4usize), 1..13),
    ) {
        use rela_cache::VerdictStore;
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

        let graphs: Vec<ForwardingGraph> = bases
            .iter()
            .map(|(walk, parallel, dropped)| build_graph(walk, *parallel, *dropped))
            .collect();
        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        for (i, (p, q)) in picks.iter().enumerate() {
            let flow = flow_of(i);
            pre.insert(flow.clone(), graphs[p % graphs.len()].clone());
            post.insert(flow, graphs[q % graphs.len()].clone());
        }
        let pair = SnapshotPair::align(&pre, &post);

        // all three granularities: the cache key binds the compile
        // granularity, and the routed ECMP limit exercises
        // interface-fidelity hashing inside every run
        for granularity in [
            Granularity::Device,
            Granularity::Group,
            Granularity::Interface,
        ] {
            let plain = check_pair(granularity, 0, JobOptions::default(), &pair);

            let dir = std::env::temp_dir().join(format!(
                "rela-prop-cache-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed),
            ));
            // a fresh session each run, the store opened from `dir`
            let stored = || {
                let mut s = session(granularity, 0);
                s.attach_store(VerdictStore::open(&dir, s.epoch()).expect("store opens"));
                s
            };
            let cold_session = stored();
            let cold = cold_session.run(JobSpec::pair(&pair)).expect("in-memory pair");
            prop_assert_eq!(cold.stats.warm_hits, 0, "first run must be cold");
            assert_reports_equal(&plain, &cold, "cold-with-store vs plain");
            cold_session.store().expect("attached").persist().expect("store persists");

            // a separate "run": rehydrate from disk, everything replays
            let warm_session = stored();
            prop_assert_eq!(warm_session.store().expect("attached").loaded(), cold.stats.classes);
            let warm = warm_session.run(JobSpec::pair(&pair)).expect("in-memory pair");
            prop_assert_eq!(warm.stats.warm_hits, warm.stats.classes, "all classes replay");
            assert_reports_equal(&plain, &warm, "warm replay vs plain");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    }
}

// ---- parser robustness ---------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics: any input yields Ok or a positioned error.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC*") {
        let _ = rela_core::parse_program(&input);
    }

    /// Token soup built from the language's own vocabulary also never
    /// panics (denser coverage of parser states than raw strings).
    #[test]
    fn parser_never_panics_on_token_soup(
        tokens in proptest::collection::vec(
            proptest::sample::select(vec![
                "regex", "spec", "rir", "pspec", "check", "else", "where",
                "preserve", "add", "remove", "replace", "drop", "any",
                "pre", "post", "limit", "a1", "x-1", ":=", ":", ";", ",",
                "{", "}", "(", ")", "|", "||", "&", "&&", "*", "+", "?",
                ".", "!", "==", "!=", "<=", "->", "\"A1\"", "10.0.0.0/8",
                "128",
            ]),
            0..24,
        )
    ) {
        let input = tokens.join(" ");
        let _ = rela_core::parse_program(&input);
    }
}

// ---- the reference evaluator, and the lowering checked against it -------

mod semantics {
    mod tests {
        use crate::support::semantics::{
            apply, contains, eval_spec, members, words, EvalCtx, Paths,
        };
        use rela_automata::{SymSet, Symbol};
        use rela_core::{PathSet, Rel, RirSpec};

        fn s(ix: usize) -> Symbol {
            Symbol::from_index(ix)
        }

        fn ctx() -> EvalCtx {
            EvalCtx {
                pre: [vec![s(0), s(1)]].into_iter().collect(),
                post: [vec![s(0), s(2)]].into_iter().collect(),
            }
        }

        fn atom(ix: usize) -> PathSet {
            PathSet::Atom(SymSet::singleton(s(ix)))
        }

        fn any_star() -> PathSet {
            PathSet::Star(Box::new(PathSet::Atom(SymSet::universe())))
        }

        fn paths(words: &[&[usize]]) -> Paths {
            words
                .iter()
                .map(|w| w.iter().map(|&i| s(i)).collect())
                .collect()
        }

        #[test]
        fn atoms_and_states() {
            let c = ctx();
            assert_eq!(members(&atom(0), &c).unwrap().len(), 1);
            assert_eq!(members(&PathSet::PreState, &c).unwrap(), c.pre);
            assert_eq!(members(&PathSet::PostState, &c).unwrap(), c.post);
            assert_eq!(members(&PathSet::Empty, &c).unwrap().len(), 0);
            assert_eq!(members(&PathSet::Eps, &c).unwrap().len(), 1);
            // `.` may name any location: it is asked, never enumerated
            let dot = PathSet::Atom(SymSet::universe());
            assert_eq!(members(&dot, &c), None);
            assert!(contains(&dot, &[s(7)], &c));
        }

        #[test]
        fn universe_size() {
            // the probes of a word-by-word comparison: 1 + 3 + 9 + 27
            assert_eq!(words(&[s(0), s(1), s(2)], 3).len(), 40);
        }

        #[test]
        fn star_bounded() {
            // exact, with no bound: ε, 0, 00, … 0¹⁰ and on
            let c = ctx();
            let p = PathSet::Star(Box::new(atom(0)));
            for n in [0, 1, 2, 3, 10] {
                assert!(contains(&p, &vec![s(0); n], &c), "0^{n}");
            }
            assert!(!contains(&p, &[s(0), s(1)], &c));
            assert_eq!(members(&p, &c), None, "an infinite set is not enumerated");
            // a star adding nothing but ε is finite
            let trivial = PathSet::Star(Box::new(PathSet::Eps));
            assert_eq!(members(&trivial, &c).unwrap(), paths(&[&[]]));
        }

        #[test]
        fn complement_within_universe() {
            let c = ctx();
            let p = PathSet::Complement(Box::new(PathSet::Eps));
            assert!(!contains(&p, &[], &c));
            assert!(contains(&p, &[s(0)], &c));
            assert!(contains(&p, &[s(2), s(1), s(0), s(9)], &c));
            assert_eq!(members(&p, &c), None);
        }

        #[test]
        fn image_of_cross() {
            let c = ctx();
            // PreState ⊲ (PreState × {path 2}) = {2} since pre nonempty
            let r = Rel::Cross(Box::new(PathSet::PreState), Box::new(atom(2)));
            let p = PathSet::Image(Box::new(PathSet::PreState), Box::new(r));
            assert_eq!(members(&p, &c).unwrap(), paths(&[&[2]]));
        }

        #[test]
        fn image_of_identity_is_intersection() {
            let c = ctx();
            // PreState ⊲ I(.*) = PreState
            let p = PathSet::Image(
                Box::new(PathSet::PreState),
                Box::new(Rel::Ident(Box::new(any_star()))),
            );
            assert_eq!(members(&p, &c).unwrap(), c.pre);
        }

        #[test]
        fn preserve_equation_fails_when_snapshots_differ() {
            let c = ctx();
            // PreState ⊲ I(.*) = PostState ⊲ I(.*) ⟺ pre == post (here false)
            let lhs = PathSet::Image(
                Box::new(PathSet::PreState),
                Box::new(Rel::Ident(Box::new(any_star()))),
            );
            let rhs = PathSet::Image(
                Box::new(PathSet::PostState),
                Box::new(Rel::Ident(Box::new(any_star()))),
            );
            assert!(!eval_spec(&RirSpec::Equal(lhs.clone(), rhs.clone()), &c));
            assert!(eval_spec(
                &RirSpec::Not(Box::new(RirSpec::Equal(lhs, rhs))),
                &c
            ));
        }

        #[test]
        fn subset_and_boolean_combinators() {
            let c = ctx();
            let sub = RirSpec::Subset(atom(0), PathSet::Atom(SymSet::universe()));
            assert!(eval_spec(&sub, &c));
            let not_sub = RirSpec::Subset(PathSet::Union(vec![atom(0), atom(1)]), atom(0));
            assert!(!eval_spec(&not_sub, &c));
            assert!(eval_spec(
                &RirSpec::Or(Box::new(not_sub.clone()), Box::new(sub.clone())),
                &c
            ));
            assert!(!eval_spec(
                &RirSpec::And(Box::new(not_sub), Box::new(sub)),
                &c
            ));
        }

        #[test]
        #[should_panic(expected = "may be infinite")]
        fn an_infinite_side_of_an_equation_panics() {
            let spec = RirSpec::Equal(PathSet::Star(Box::new(atom(0))), PathSet::PreState);
            eval_spec(&spec, &ctx());
        }

        #[test]
        fn rel_concat_pairs() {
            let c = ctx();
            // ({0}×{1}) · ({1}×{2}) relates 01 → 12, and nothing else
            let r = Rel::Concat(vec![
                Rel::Cross(Box::new(atom(0)), Box::new(atom(1))),
                Rel::Cross(Box::new(atom(1)), Box::new(atom(2))),
            ]);
            assert_eq!(apply(&r, &[s(0), s(1)], &c).unwrap(), paths(&[&[1, 2]]));
            for x in [&[][..], &[s(0)], &[s(1), s(0)], &[s(0), s(1), s(1)]] {
                assert!(apply(&r, x, &c).unwrap().is_empty(), "{x:?}");
            }
        }

        #[test]
        fn rel_compose_joins_on_middle() {
            let c = ctx();
            let r1 = Rel::Cross(Box::new(atom(0)), Box::new(atom(1)));
            let r2 = Rel::Cross(Box::new(atom(1)), Box::new(atom(2)));
            let comp = Rel::Compose(Box::new(r1), Box::new(r2));
            assert_eq!(apply(&comp, &[s(0)], &c).unwrap(), paths(&[&[2]]));
            assert!(apply(&comp, &[s(1)], &c).unwrap().is_empty());
        }

        #[test]
        fn rel_star_synchronized_repetition() {
            let c = ctx();
            let r = Rel::Star(Box::new(Rel::Cross(Box::new(atom(0)), Box::new(atom(1)))));
            // (ε,ε), (0,1), (00,11), (000,111), … with no bound
            for n in [0, 1, 2, 3, 7] {
                assert_eq!(
                    apply(&r, &vec![s(0); n], &c).unwrap(),
                    [vec![s(1); n]].into()
                );
            }
            assert!(apply(&r, &[s(0), s(1)], &c).unwrap().is_empty());
            // a step that reads nothing but writes a symbol repeats forever
            let pump = Rel::Star(Box::new(Rel::Cross(
                Box::new(PathSet::Eps),
                Box::new(atom(1)),
            )));
            assert_eq!(apply(&pump, &[], &c), None);
        }
    }
}

mod lower {
    mod tests {
        use crate::support::semantics::{contains, eval_spec, words, EvalCtx, Paths};
        use rela_automata::{Nfa, SymSet, Symbol};
        use rela_core::{decide_spec, lower_pathset, PairFsas, PathSet, Rel, RirSpec};

        fn s(ix: usize) -> Symbol {
            Symbol::from_index(ix)
        }

        fn atom(ix: usize) -> PathSet {
            PathSet::Atom(SymSet::singleton(s(ix)))
        }

        fn any_star() -> PathSet {
            PathSet::Star(Box::new(PathSet::Atom(SymSet::universe())))
        }

        fn env_from(pre: &[&[usize]], post: &[&[usize]]) -> (PairFsas, EvalCtx) {
            let to_paths = |paths: &[&[usize]]| -> Paths {
                paths
                    .iter()
                    .map(|p| p.iter().map(|&i| s(i)).collect::<Vec<_>>())
                    .collect()
            };
            let to_nfa = |paths: &[&[usize]]| -> Nfa {
                paths
                    .iter()
                    .map(|p| {
                        let w: Vec<Symbol> = p.iter().map(|&i| s(i)).collect();
                        Nfa::word(&w)
                    })
                    .fold(Nfa::empty_language(), |acc, n| acc.union(&n))
            };
            let env = PairFsas::new(to_nfa(pre), to_nfa(post));
            let ctx = EvalCtx {
                pre: to_paths(pre),
                post: to_paths(post),
            };
            (env, ctx)
        }

        /// Assert that the automaton for `p` and the reference evaluator
        /// agree on every word over the alphabet up to length 4.
        fn assert_matches_reference(p: &PathSet, env: &PairFsas, ctx: &EvalCtx) {
            let nfa = lower_pathset(p, env);
            for w in words(&[s(0), s(1), s(2)], 4) {
                assert_eq!(
                    nfa.accepts(&w),
                    contains(p, &w, ctx),
                    "term {p:?} disagrees on {w:?}"
                );
            }
        }

        #[test]
        fn atoms_states_and_boolean_ops_match_reference() {
            let (env, ctx) = env_from(&[&[0, 1]], &[&[0, 2]]);
            for p in [
                atom(0),
                PathSet::PreState,
                PathSet::PostState,
                PathSet::Union(vec![PathSet::PreState, PathSet::PostState]),
                PathSet::Inter(Box::new(PathSet::PreState), Box::new(PathSet::PostState)),
                PathSet::Complement(Box::new(PathSet::PreState)),
                PathSet::PreState.diff(PathSet::PostState),
                PathSet::Concat(vec![atom(0), PathSet::Star(Box::new(atom(1)))]),
            ] {
                assert_matches_reference(&p, &env, &ctx);
            }
        }

        #[test]
        fn image_matches_reference() {
            let (env, ctx) = env_from(&[&[0, 1], &[2]], &[&[0, 2]]);
            let cases = [
                // preserve: PreState ⊲ I(.*)
                PathSet::Image(
                    Box::new(PathSet::PreState),
                    Box::new(Rel::Ident(Box::new(any_star()))),
                ),
                // rewrite: PreState ⊲ (({0}{1}) × {2})
                PathSet::Image(
                    Box::new(PathSet::PreState),
                    Box::new(Rel::Cross(
                        Box::new(PathSet::Concat(vec![atom(0), atom(1)])),
                        Box::new(atom(2)),
                    )),
                ),
                // union of identity and rewrite (the add-modifier shape)
                PathSet::Image(
                    Box::new(PathSet::PreState),
                    Box::new(Rel::Union(vec![
                        Rel::Ident(Box::new(any_star())),
                        Rel::Cross(Box::new(atom(2)), Box::new(atom(1))),
                    ])),
                ),
                // concatenated relation: I({0}) · ({1} × {2})
                PathSet::Image(
                    Box::new(PathSet::PreState),
                    Box::new(Rel::Concat(vec![
                        Rel::Ident(Box::new(atom(0))),
                        Rel::Cross(Box::new(atom(1)), Box::new(atom(2))),
                    ])),
                ),
            ];
            for p in cases {
                assert_matches_reference(&p, &env, &ctx);
            }
        }

        #[test]
        fn compose_and_star_rel_match_reference() {
            let (env, ctx) = env_from(&[&[0, 0]], &[&[1, 1]]);
            let star_rel = Rel::Star(Box::new(Rel::Cross(Box::new(atom(0)), Box::new(atom(1)))));
            let p1 = PathSet::Image(Box::new(PathSet::PreState), Box::new(star_rel));
            assert_matches_reference(&p1, &env, &ctx);

            let comp = Rel::Compose(
                Box::new(Rel::Cross(Box::new(atom(0)), Box::new(atom(1)))),
                Box::new(Rel::Cross(Box::new(atom(1)), Box::new(atom(2)))),
            );
            let p2 = PathSet::Image(Box::new(atom(0)), Box::new(comp));
            assert_matches_reference(&p2, &env, &ctx);
        }

        #[test]
        fn decide_spec_agrees_with_reference() {
            let (env, ctx) = env_from(&[&[0, 1], &[2]], &[&[0, 1]]);
            let specs = [
                RirSpec::Equal(PathSet::PreState, PathSet::PostState),
                RirSpec::Subset(PathSet::PostState, PathSet::PreState),
                RirSpec::Subset(PathSet::PreState, PathSet::PostState),
                RirSpec::Equal(
                    PathSet::Image(
                        Box::new(PathSet::PreState),
                        Box::new(Rel::Ident(Box::new(any_star()))),
                    ),
                    PathSet::Image(
                        Box::new(PathSet::PostState),
                        Box::new(Rel::Ident(Box::new(any_star()))),
                    ),
                ),
                RirSpec::Not(Box::new(RirSpec::Equal(
                    PathSet::PreState,
                    PathSet::PostState,
                ))),
                RirSpec::And(
                    Box::new(RirSpec::Subset(PathSet::PostState, PathSet::PreState)),
                    Box::new(RirSpec::Subset(PathSet::PreState, PathSet::PostState)),
                ),
                RirSpec::Or(
                    Box::new(RirSpec::Equal(PathSet::PreState, PathSet::PostState)),
                    Box::new(RirSpec::Subset(PathSet::PostState, PathSet::PreState)),
                ),
            ];
            for spec in specs {
                assert_eq!(
                    decide_spec(&spec, &env),
                    eval_spec(&spec, &ctx),
                    "spec {spec:?}"
                );
            }
        }

        #[test]
        fn empty_snapshots_are_handled() {
            let (env, ctx) = env_from(&[], &[]);
            assert_matches_reference(&PathSet::PreState, &env, &ctx);
            assert!(decide_spec(
                &RirSpec::Equal(PathSet::PreState, PathSet::PostState),
                &env
            ));
        }
    }
}
