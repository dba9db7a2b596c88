//! Differential fuzzing of the full `CheckSession` pipeline against two
//! oracles.
//!
//! Per seed, each adversarial generator family (`rela_sim::adversarial`)
//! draws a scenario — failover drill, rolling maintenance, policy
//! migration, ECMP churn, class skew — and every iteration of it is
//! checked with the `nochange` spec across the full ingest matrix:
//! { JSON, RSNB } × { Materialized, Pipelined }, plus chained
//! delta replay against a retained base. The same seed also draws the
//! tiny instances of `support::truth`: every spec shape of the language
//! (each modifier, spec concatenation, `else` chains, `where` zones,
//! pspec routes, raw RIR, ECMP limits) at every granularity, checked in
//! the same four cells. Three properties must hold:
//!
//! 1. **Path-diff agreement** (adversarial scenarios): the checker's
//!    violated-flow set equals the flow set the exact path diff
//!    (`rela_baseline::path_diff`) flags at the same granularity — an
//!    independent per-FEC implementation with none of the
//!    dedup/pipelining/delta machinery under test.
//! 2. **Truth agreement** (every case): the flagged flows, and each
//!    one's route, check name and set of violated parts, equal what the
//!    exact Appendix-A semantics says (`support::truth`), which shares no
//!    code with the checker past the compiled program.
//! 3. **Mode identity**: verdict bytes are identical across every
//!    container and ingest mode.
//!
//! On failure the harness minimizes the snapshot pair (greedy flow-set
//! reduction against the oracle that failed), writes a self-contained
//! repro bundle under `target/fuzz-repros/<case>/`, and panics with the
//! seed and the one-liner that reproduces it. Seeds come from
//! `RELA_FUZZ_SEEDS` (comma-separated; the CI `diff-fuzz` job sets a
//! fixed batch), with a small default for the tier-1 debug run.
//! `RELA_FUZZ_REPRO=<dir>` replays a bundle by path. See
//! `docs/FUZZING.md`.

mod support;

use rela_baseline::oracle::{self, ChangedFlows};
use rela_core::{
    CheckReport, CheckSession, IngestMode, JobOptions, JobSpec, LabeledSource, SessionConfig,
};
use rela_net::{
    BinarySnapshotWriter, FlowSpec, Granularity, LocationDb, Snapshot, SnapshotFramer, SnapshotPair,
};
use rela_sim::adversarial::{generate, Scenario, ScenarioFamily};
use std::fmt;
use std::path::{Path, PathBuf};
use support::truth::{self, Instance, Verdicts};

/// Seeds to fuzz: `RELA_FUZZ_SEEDS="1,2,3"`, or a one-seed default so
/// the debug tier-1 run stays cheap.
fn fuzz_seeds() -> Vec<u64> {
    match std::env::var("RELA_FUZZ_SEEDS") {
        Ok(list) => list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().expect("RELA_FUZZ_SEEDS entries are u64"))
            .collect(),
        Err(_) => vec![1],
    }
}

/// Pack a canonical JSON snapshot into the RSNB container by raw span
/// moves — the `rela snapshot pack` path, in memory.
fn pack(json: &str) -> Vec<u8> {
    let mut framer = SnapshotFramer::new(json.as_bytes(), "pack");
    let mut writer = BinarySnapshotWriter::new(Vec::new()).unwrap();
    for raw in &mut framer {
        let raw = raw.unwrap();
        let (flow, graph) = raw.split_spans(Some("pack")).unwrap();
        writer.write_raw(flow.as_slice(), graph.as_slice()).unwrap();
    }
    writer.finish().unwrap()
}

/// Verdict bytes: the report minus its timing- and stats-bearing lines.
fn verdict_bytes(report: &CheckReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The checker's answer rendered for oracle comparison: the set of
/// flows it flagged.
fn flagged(report: &CheckReport) -> ChangedFlows {
    report.violations.iter().map(|v| v.flow.clone()).collect()
}

fn open_session(
    spec: &str,
    db: &LocationDb,
    granularity: Granularity,
    threads: usize,
    retain_base: bool,
) -> CheckSession {
    CheckSession::open(
        spec,
        db.clone(),
        SessionConfig {
            granularity,
            threads,
            retain_bases: usize::from(retain_base),
            ..SessionConfig::default()
        },
    )
    .expect("the case's spec compiles against its db")
}

fn stream_job<'a>(pre: &'a [u8], post: &'a [u8], ingest: IngestMode) -> JobSpec<'a> {
    JobSpec::streams(
        LabeledSource::new(pre, "pre"),
        LabeledSource::new(post, "post"),
    )
    .with_options(JobOptions {
        ingest,
        ..JobOptions::default()
    })
}

fn repros_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/fuzz-repros")
}

/// The two oracle columns a report is judged in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Oracle {
    /// `rela_baseline::path_diff`: the flows whose path sets changed,
    /// which is what `nochange` must flag.
    PathDiff,
    /// `support::truth`: the exact semantics of any spec.
    Truth,
}

impl Oracle {
    fn from_name(name: &str) -> Option<Oracle> {
        [Oracle::PathDiff, Oracle::Truth]
            .into_iter()
            .find(|o| o.to_string() == name)
    }
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Oracle::PathDiff => "path-diff",
            Oracle::Truth => "truth",
        })
    }
}

/// What one case is, whichever generator drew it: enough to recheck it
/// and to write its repro bundle.
struct Case<'a> {
    name: &'a str,
    family: String,
    seed: u64,
    description: String,
    spec: &'a str,
    db: &'a LocationDb,
    granularity: Granularity,
    /// The oracle columns that apply: the path diff speaks only for the
    /// adversarial families' `nochange` spec.
    oracles: &'static [Oracle],
}

impl Case<'_> {
    fn scenario(sc: &Scenario) -> Case<'_> {
        Case {
            name: &sc.name,
            family: sc.family.to_string(),
            seed: sc.seed,
            description: sc.description.clone(),
            spec: &sc.spec,
            db: &sc.wan.topology.db,
            granularity: sc.granularity,
            oracles: &[Oracle::PathDiff, Oracle::Truth],
        }
    }

    fn tiny(instance: &Instance) -> Case<'_> {
        Case {
            name: &instance.name,
            family: format!("tiny-{}", instance.shape),
            seed: instance.seed,
            description: format!("a tiny instance of the `{}` spec shape", instance.shape),
            spec: &instance.spec,
            db: &instance.db,
            granularity: instance.granularity,
            oracles: &[Oracle::Truth],
        }
    }
}

/// What one pair's reports must say, in each oracle column.
struct Expected {
    path_diff: Option<ChangedFlows>,
    truth: Verdicts,
}

impl Expected {
    fn of(case: &Case<'_>, pre: &Snapshot, post: &Snapshot) -> Expected {
        Expected {
            path_diff: case.oracles.contains(&Oracle::PathDiff).then(|| {
                let pair = SnapshotPair::align(pre, post);
                oracle::oracle_verdict(&pair, case.db, case.granularity)
            }),
            truth: truth::truth(case.spec, case.db, case.granularity, pre, post),
        }
    }

    /// `Ok` when the report agrees with every column; otherwise the
    /// first column it disagrees with, and how.
    fn judge(&self, report: &CheckReport) -> Result<(), (Oracle, String)> {
        if let Some(want) = &self.path_diff {
            oracle::compare(want, &flagged(report))
                .map_err(|d| (Oracle::PathDiff, d.to_string()))?;
        }
        truth::compare(&self.truth, &truth::reported(report)).map_err(|d| (Oracle::Truth, d))
    }
}

/// Subset of a snapshot restricted to `keep`.
fn subset(snapshot: &Snapshot, keep: &ChangedFlows) -> Snapshot {
    let mut out = Snapshot::new();
    for (flow, graph) in snapshot.iter() {
        if keep.contains(flow) {
            out.insert(flow.clone(), graph.clone());
        }
    }
    out
}

/// Does the (materialized, in-memory) pair still disagree with
/// `oracle`, and how? The minimizer's probe — one mode is enough,
/// because mode identity is asserted separately before minimization
/// ever runs.
fn probe_disagreement(
    oracle: Oracle,
    spec: &str,
    db: &LocationDb,
    granularity: Granularity,
    pre: &Snapshot,
    post: &Snapshot,
) -> Option<String> {
    let pair = SnapshotPair::align(pre, post);
    let report = open_session(spec, db, granularity, 1, false)
        .run(JobSpec::pair(&pair))
        .ok()?;
    match oracle {
        Oracle::PathDiff => {
            let want = oracle::oracle_verdict(&pair, db, granularity);
            oracle::compare(&want, &flagged(&report))
                .err()
                .map(|d| d.to_string())
        }
        Oracle::Truth => {
            let want = truth::truth(spec, db, granularity, pre, post);
            truth::compare(&want, &truth::reported(&report)).err()
        }
    }
}

/// Greedy flow-set minimization: repeatedly drop chunks of flows while
/// the disagreement with `oracle` persists. Returns the reduced pair.
fn minimize(
    oracle: Oracle,
    case: &Case<'_>,
    pre: &Snapshot,
    post: &Snapshot,
) -> (Snapshot, Snapshot) {
    let mut flows: Vec<FlowSpec> = {
        let mut set: ChangedFlows = pre.iter().map(|(f, _)| f.clone()).collect();
        set.extend(post.iter().map(|(f, _)| f.clone()));
        set.into_iter().collect()
    };
    let keep = |flows: &[FlowSpec]| -> ChangedFlows { flows.iter().cloned().collect() };
    let mut chunk = (flows.len() / 2).max(1);
    loop {
        let mut ix = 0;
        while ix < flows.len() && flows.len() > 1 {
            let mut candidate = flows.clone();
            candidate.drain(ix..(ix + chunk).min(candidate.len()));
            if candidate.is_empty() {
                ix += chunk;
                continue;
            }
            let set = keep(&candidate);
            let (p, q) = (subset(pre, &set), subset(post, &set));
            if probe_disagreement(oracle, case.spec, case.db, case.granularity, &p, &q).is_some() {
                flows = candidate;
            } else {
                ix += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    let set = keep(&flows);
    (subset(pre, &set), subset(post, &set))
}

/// Everything a failing case needs to write about itself.
struct FailureContext<'a> {
    case: &'a Case<'a>,
    iteration: usize,
    stage: String,
    /// The oracle the bundle is minimized against and replays against.
    oracle: Oracle,
    detail: String,
    pre: &'a Snapshot,
    post: &'a Snapshot,
    /// Delta documents when the failing stage was a delta replay.
    delta_docs: Option<(&'a [u8], &'a [u8])>,
}

/// Write the self-contained repro bundle and return its directory.
fn write_bundle(ctx: &FailureContext<'_>) -> PathBuf {
    let case = ctx.case;
    let dir = repros_root().join(case.name);
    std::fs::create_dir_all(&dir).expect("create repro dir");
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).expect("write repro file");
    };
    let pre_json = ctx.pre.to_json().unwrap();
    let post_json = ctx.post.to_json().unwrap();
    write("spec.rela", case.spec.as_bytes());
    write(
        "db.json",
        serde_json::to_string(case.db).unwrap().as_bytes(),
    );
    write("granularity.txt", case.granularity.to_string().as_bytes());
    write("pre.json", pre_json.as_bytes());
    write("post.json", post_json.as_bytes());
    write("pre.rsnb", &pack(&pre_json));
    write("post.rsnb", &pack(&post_json));
    if let Some((pre_doc, post_doc)) = ctx.delta_docs {
        write("delta_pre.bin", pre_doc);
        write("delta_post.bin", post_doc);
    }
    // minimize only oracle disagreements; mode-identity failures keep
    // the full pair (the divergence may live in dedup grouping)
    if probe_disagreement(
        ctx.oracle,
        case.spec,
        case.db,
        case.granularity,
        ctx.pre,
        ctx.post,
    )
    .is_some()
    {
        let (min_pre, min_post) = minimize(ctx.oracle, case, ctx.pre, ctx.post);
        write("min_pre.json", min_pre.to_json().unwrap().as_bytes());
        write("min_post.json", min_post.to_json().unwrap().as_bytes());
    }
    let manifest = format!(
        "scenario: {name}\nfamily: {family}\nseed: {seed}\niteration: {iteration}\n\
         stage: {stage}\noracle: {oracle}\ngranularity: {gran}\ndescription: {desc}\n\n\
         {detail}\n\n\
         reproduce from seed:\n  RELA_FUZZ_SEEDS={seed} cargo test --release -p rela-core \
         --test differential_fuzz -- --nocapture\nreplay this bundle:\n  \
         RELA_FUZZ_REPRO={dir} cargo test --release -p rela-core --test differential_fuzz \
         replay_repro_bundle -- --nocapture\n",
        name = case.name,
        family = case.family,
        seed = case.seed,
        iteration = ctx.iteration,
        stage = ctx.stage,
        oracle = ctx.oracle,
        gran = case.granularity,
        desc = case.description,
        detail = ctx.detail,
        dir = dir.display(),
    );
    write("MANIFEST.txt", manifest.as_bytes());
    dir
}

/// Write the bundle and panic with the seed and the repro one-liner.
fn fail(ctx: FailureContext<'_>) -> ! {
    let dir = write_bundle(&ctx);
    panic!(
        "differential fuzz failure: family={} seed={} iteration={} stage={}\n{}\n\
         repro bundle: {}\nreproduce: RELA_FUZZ_SEEDS={} cargo test --release -p rela-core \
         --test differential_fuzz -- --nocapture",
        ctx.case.family,
        ctx.case.seed,
        ctx.iteration,
        ctx.stage,
        ctx.detail,
        dir.display(),
        ctx.case.seed,
    )
}

/// The stage a failing column names: a truth failure is `truth×<cell>`.
fn stage(oracle: Oracle, cell: &str) -> String {
    match oracle {
        Oracle::PathDiff => cell.to_owned(),
        Oracle::Truth => format!("truth×{cell}"),
    }
}

/// Check one pair in every container × ingest-mode cell: each report
/// must agree with every oracle column of `expected`, and the verdict
/// bytes of all four must be identical. Returns the number of cells run.
fn run_cells(
    case: &Case<'_>,
    iteration: usize,
    pre: &Snapshot,
    post: &Snapshot,
    expected: &Expected,
) -> usize {
    let failure = |stage: String, oracle: Oracle, detail: String| FailureContext {
        case,
        iteration,
        stage,
        oracle,
        detail,
        pre,
        post,
        delta_docs: None,
    };
    let (pre_json, post_json) = (pre.to_json().unwrap(), post.to_json().unwrap());
    let (pre_rsnb, post_rsnb) = (pack(&pre_json), pack(&post_json));
    let containers: [(&str, &[u8], &[u8]); 2] = [
        ("json", pre_json.as_bytes(), post_json.as_bytes()),
        ("rsnb", &pre_rsnb, &post_rsnb),
    ];
    let mut reference: Option<(String, String)> = None;
    let mut cells = 0;
    for (container, pre_bytes, post_bytes) in containers {
        for mode in [IngestMode::Materialized, IngestMode::Pipelined] {
            let cell = format!("{container}×{mode:?}");
            let report = open_session(case.spec, case.db, case.granularity, 1, false)
                .run(stream_job(pre_bytes, post_bytes, mode))
                .unwrap_or_else(|e| {
                    fail(failure(
                        cell.clone(),
                        case.oracles[0],
                        format!("ingest error on a well-formed pair: {e}"),
                    ))
                });
            if let Err((oracle, detail)) = expected.judge(&report) {
                fail(failure(stage(oracle, &cell), oracle, detail));
            }
            let verdict = verdict_bytes(&report);
            match &reference {
                None => reference = Some((cell, verdict)),
                Some((ref_cell, ref_verdict)) => {
                    if verdict != *ref_verdict {
                        let detail = format!(
                            "verdict bytes diverged from {ref_cell}:\n--- {ref_cell}\n\
                             {ref_verdict}\n--- {cell}\n{verdict}"
                        );
                        fail(failure(cell, case.oracles[0], detail));
                    }
                }
            }
            cells += 1;
        }
    }
    cells
}

/// Check one scenario end to end: every iteration across the full
/// container × ingest-mode matrix, then chained delta replay.
fn run_scenario(sc: &Scenario) -> Tally {
    let case = Case::scenario(sc);
    let mut tally = Tally::default();
    let mut expected = Vec::with_capacity(sc.iteration_count());
    for (ix, post) in sc.iterations.posts.iter().enumerate() {
        let want = Expected::of(&case, &sc.iterations.pre, post);
        tally.cells += run_cells(&case, ix, &sc.iterations.pre, post, &want);
        tally.count(&sc.iterations.pre, post, &want.truth);
        expected.push(want);
    }

    // chained delta replay: seed with (pre, posts[0]), then apply each
    // delta document in sequence — the retained base advances with
    // every job, exactly as a resident daemon iterates
    let db = case.db;
    let session = open_session(&sc.spec, db, sc.granularity, 1, true);
    let pre_json = sc.iterations.pre.to_json().unwrap();
    let post0_json = sc.iterations.posts[0].to_json().unwrap();
    session
        .run(stream_job(
            pre_json.as_bytes(),
            post0_json.as_bytes(),
            IngestMode::default(),
        ))
        .expect("seeding the retained base succeeds");
    assert_eq!(
        session.base_epoch(),
        Some(sc.iterations.seed_epoch),
        "{}: retained base epoch disagrees with the generator's",
        sc.name
    );
    for (dx, delta) in sc.iterations.deltas.iter().enumerate() {
        let ix = dx + 1;
        let failure = |oracle: Oracle, detail: String| FailureContext {
            case: &case,
            iteration: ix,
            stage: stage(oracle, "delta-replay"),
            oracle,
            detail,
            pre: &sc.iterations.pre,
            post: &sc.iterations.posts[ix],
            delta_docs: Some((&delta.pre_doc, &delta.post_doc)),
        };
        let report = session
            .run(
                JobSpec::deltas(
                    LabeledSource::new(&delta.pre_doc[..], "delta:pre"),
                    LabeledSource::new(&delta.post_doc[..], "delta:post"),
                )
                .with_options(JobOptions {
                    delta_base: Some(delta.base.as_u128()),
                    ..JobOptions::default()
                }),
            )
            .unwrap_or_else(|e| {
                fail(failure(
                    Oracle::PathDiff,
                    format!("delta job failed on a well-formed chain: {e}"),
                ))
            });
        if let Err((oracle, detail)) = expected[ix].judge(&report) {
            fail(failure(oracle, detail));
        }
    }
    tally
}

/// What the truth column judged: cases, flows, flagged flows and cells.
#[derive(Default)]
struct Tally {
    cases: usize,
    flows: usize,
    flagged: usize,
    cells: usize,
}

impl Tally {
    /// Count one judged pair.
    fn count(&mut self, pre: &Snapshot, post: &Snapshot, truth: &Verdicts) {
        let flows: ChangedFlows = pre
            .iter()
            .chain(post.iter())
            .map(|(f, _)| f.clone())
            .collect();
        self.cases += 1;
        self.flows += flows.len();
        self.flagged += truth.len();
    }

    fn add(&mut self, other: Tally) {
        self.cases += other.cases;
        self.flows += other.flows;
        self.flagged += other.flagged;
        self.cells += other.cells;
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pairs, {} flows ({} flagged), {} cells",
            self.cases, self.flows, self.flagged, self.cells
        )
    }
}

#[test]
fn differential_fuzz_all_families() {
    let mut tally = Tally::default();
    for seed in fuzz_seeds() {
        for family in ScenarioFamily::ALL {
            let sc = generate(family, seed);
            println!(
                "fuzzing {} ({} iterations, {} FECs, {} granularity): {}",
                sc.name,
                sc.iteration_count(),
                sc.iterations.pre.len(),
                sc.granularity,
                sc.description,
            );
            tally.add(run_scenario(&sc));
        }
    }
    println!("adversarial iterations, both oracle columns: {tally}");
    assert_eq!(
        tally.cells,
        4 * tally.cases,
        "every iteration in every cell"
    );
}

/// Every spec shape of the language at every granularity, judged by the
/// truth column in every cell. The batch must both flag and pass flows,
/// or the column would be judging nothing.
#[test]
fn the_truth_oracle_judges_every_spec_shape() {
    let mut by_shape: std::collections::BTreeMap<&str, Tally> = Default::default();
    for seed in fuzz_seeds() {
        for instance in truth::tiny_instances(seed) {
            let case = Case::tiny(&instance);
            let want = Expected::of(&case, &instance.pre, &instance.post);
            let tally = by_shape.entry(instance.shape).or_default();
            tally.cells += run_cells(&case, 0, &instance.pre, &instance.post, &want);
            tally.count(&instance.pre, &instance.post, &want.truth);
        }
    }
    let mut total = Tally::default();
    for (shape, tally) in by_shape {
        println!("  {shape}: {tally}");
        total.add(tally);
    }
    println!(
        "tiny instances ({} shapes × 3 granularities × {} seed(s)), truth column: {total}",
        truth::SHAPES.len(),
        fuzz_seeds().len()
    );
    assert_eq!(total.cases, truth::SHAPES.len() * 3 * fuzz_seeds().len());
    assert_eq!(total.cells, 4 * total.cases, "every instance in every cell");
    assert!(0 < total.flagged && total.flagged < total.flows, "{total}");
}

/// The class-skew scenario doubles as a work-stealing regression test:
/// one giant behavior class must not starve the engine. The giant
/// class is decided once (dedup), its decision dominates no more than
/// the whole wall, and the verdict still matches the oracle.
#[test]
fn class_skew_does_not_starve_the_work_stealing_engine() {
    let sc = generate(ScenarioFamily::ClassSkew, 11);
    let db = &sc.wan.topology.db;
    let post = sc.iterations.posts.last().unwrap();
    let pair = SnapshotPair::align(&sc.iterations.pre, post);
    let report = open_session(&sc.spec, db, sc.granularity, 2, false)
        .run(JobSpec::pair(&pair))
        .unwrap();
    let stats = &report.stats;
    assert!(stats.fecs >= 64, "skew scenario too small ({})", stats.fecs);
    // the skew actually happened: almost everything deduplicated away
    assert!(
        stats.classes * 8 <= stats.fecs,
        "expected heavy skew: {} classes over {} FECs",
        stats.classes,
        stats.fecs
    );
    assert!(
        stats.hit_rate() >= 0.85,
        "dedup hit rate collapsed: {:.3}",
        stats.hit_rate()
    );
    // the work-stealing bound: the longest single class decision can
    // account for at most the whole run — if a cursor bug serialized
    // other classes *behind* the giant one, elapsed would exceed the
    // per-class maximum by the sum of everything queued after it, and
    // the slack below (generous for a loaded 1-CPU debug CI) trips
    assert!(
        stats.max_class_time <= report.elapsed,
        "per-class time exceeds the wall: {:?} > {:?}",
        stats.max_class_time,
        report.elapsed
    );
    let slack = report.elapsed.saturating_sub(stats.max_class_time);
    assert!(
        slack <= std::time::Duration::from_secs(30),
        "giant class starved the engine: {:?} wall vs {:?} max class",
        report.elapsed,
        stats.max_class_time
    );
    // and the verdict is still right
    let want = oracle::oracle_verdict(&pair, db, sc.granularity);
    assert!(oracle::compare(&want, &flagged(&report)).is_ok());
}

/// Replay a repro bundle directory: recheck the (minimized if present)
/// pair against the oracle its manifest names. `Ok` means the
/// disagreement is gone.
fn replay(dir: &Path) -> Result<(), String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))
    };
    let manifest = read("MANIFEST.txt")?;
    let oracle = manifest
        .lines()
        .find_map(|l| l.strip_prefix("oracle: "))
        .map_or(Ok(Oracle::PathDiff), |name| {
            Oracle::from_name(name).ok_or(format!("MANIFEST.txt: unknown oracle `{name}`"))
        })?;
    let spec = read("spec.rela")?;
    let db: LocationDb =
        serde_json::from_str(&read("db.json")?).map_err(|e| format!("db.json: {e}"))?;
    let granularity: Granularity = read("granularity.txt")?.trim().parse()?;
    let side = |min: &str, full: &str| -> Result<Snapshot, String> {
        let name = if dir.join(min).exists() { min } else { full };
        Snapshot::from_reader(read(name)?.as_bytes()).map_err(|e| format!("{name}: {e}"))
    };
    let pre = side("min_pre.json", "pre.json")?;
    let post = side("min_post.json", "post.json")?;
    match probe_disagreement(oracle, &spec, &db, granularity, &pre, &post) {
        None => Ok(()),
        Some(disagreement) => Err(format!("{oracle} oracle: {disagreement}")),
    }
}

/// `RELA_FUZZ_REPRO=target/fuzz-repros/<scenario>` replays that bundle;
/// without the variable this test is a no-op.
#[test]
fn replay_repro_bundle() {
    let Ok(dir) = std::env::var("RELA_FUZZ_REPRO") else {
        return;
    };
    match replay(Path::new(&dir)) {
        Ok(()) => println!("bundle {dir}: checker and oracle now agree"),
        Err(detail) => panic!("bundle {dir} still disagrees:\n{detail}"),
    }
}

/// The bundle plumbing itself: write a bundle for a healthy scenario
/// and one for a healthy tiny instance at a truth stage, then replay
/// each by path — every file must parse and the replay must report
/// agreement, against the oracle the manifest names.
#[test]
fn repro_bundles_round_trip() {
    let sc = generate(ScenarioFamily::LinkMaintenance, 2);
    let case = Case::scenario(&sc);
    let post = &sc.iterations.posts[0];
    let dir = write_bundle(&FailureContext {
        case: &case,
        iteration: 0,
        stage: "self-test".to_owned(),
        oracle: Oracle::PathDiff,
        detail: "not a real failure: bundle round-trip self-test".to_owned(),
        pre: &sc.iterations.pre,
        post,
        delta_docs: sc
            .iterations
            .deltas
            .first()
            .map(|d| (&d.pre_doc[..], &d.post_doc[..])),
    });
    for name in [
        "MANIFEST.txt",
        "spec.rela",
        "db.json",
        "granularity.txt",
        "pre.json",
        "post.json",
        "pre.rsnb",
        "post.rsnb",
        "delta_pre.bin",
        "delta_post.bin",
    ] {
        assert!(dir.join(name).exists(), "bundle is missing {name}");
    }
    // a healthy pair writes no minimized sides
    assert!(!dir.join("min_pre.json").exists());
    replay(&dir).expect("a healthy bundle replays to agreement");
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt")).unwrap();
    assert!(manifest.contains("RELA_FUZZ_SEEDS=2"), "{manifest}");
    assert!(manifest.contains("oracle: path-diff"), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();

    // a truth-stage bundle, for an `add` spec whose verdicts the path
    // diff does not share: the oracle the manifest names decides
    let instance = (1..=64)
        .map(|seed| truth::tiny_instance("add", Granularity::Device, seed))
        .find(|i| {
            probe_disagreement(
                Oracle::PathDiff,
                &i.spec,
                &i.db,
                i.granularity,
                &i.pre,
                &i.post,
            )
            .is_some()
        })
        .expect("some `add` instance is not a `nochange` verdict");
    let case = Case::tiny(&instance);
    let dir = write_bundle(&FailureContext {
        case: &case,
        iteration: 0,
        stage: stage(Oracle::Truth, "rsnb×Pipelined"),
        oracle: Oracle::Truth,
        detail: "not a real failure: bundle round-trip self-test".to_owned(),
        pre: &instance.pre,
        post: &instance.post,
        delta_docs: None,
    });
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt")).unwrap();
    assert!(
        manifest.contains("stage: truth×rsnb×Pipelined"),
        "{manifest}"
    );
    assert!(manifest.contains("oracle: truth"), "{manifest}");
    assert!(!dir.join("min_pre.json").exists());
    replay(&dir).expect("a healthy truth bundle replays to agreement");
    let as_path_diff = manifest.replace("oracle: truth", "oracle: path-diff");
    std::fs::write(dir.join("MANIFEST.txt"), as_path_diff).unwrap();
    replay(&dir).expect_err("the path diff does not judge an `add` spec");
    std::fs::remove_dir_all(&dir).ok();
}

/// The minimizer, exercised on a synthetic "disagreement": a predicate
/// that holds while a specific flow survives. We can't make the real
/// checker disagree with the oracle (that's the point of the suite), so
/// this pins the reduction loop's contract — monotone shrink, keeps the
/// witness — against the same subset machinery the real path uses.
#[test]
fn minimizer_reduces_to_the_witness_flow() {
    let sc = generate(ScenarioFamily::LinkMaintenance, 3);
    let pre = &sc.iterations.pre;
    let witness: FlowSpec = pre.iter().nth(pre.len() / 2).unwrap().0.clone();
    // reduction driven by the probe's own subset helper
    let mut flows: Vec<FlowSpec> = pre.iter().map(|(f, _)| f.clone()).collect();
    let still_fails = |flows: &[FlowSpec]| flows.contains(&witness);
    let mut chunk = (flows.len() / 2).max(1);
    loop {
        let mut ix = 0;
        while ix < flows.len() && flows.len() > 1 {
            let mut candidate = flows.clone();
            candidate.drain(ix..(ix + chunk).min(candidate.len()));
            if !candidate.is_empty() && still_fails(&candidate) {
                flows = candidate;
            } else {
                ix += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    assert_eq!(flows, vec![witness.clone()]);
    // and the snapshot subset of that result carries exactly the witness
    let keep: ChangedFlows = flows.into_iter().collect();
    let reduced = subset(pre, &keep);
    assert_eq!(reduced.len(), 1);
    assert!(reduced.get(&witness).is_some());
}
