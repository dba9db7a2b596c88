//! Differential fuzzing of the full `CheckSession` pipeline against the
//! `rela-baseline` path diff.
//!
//! Per seed, each adversarial generator family (`rela_sim::adversarial`)
//! draws a scenario — failover drill, rolling maintenance, policy
//! migration, ECMP churn, class skew — and every iteration of it is
//! checked with the `nochange` spec across the full ingest matrix:
//! { JSON, RSNB } × { Materialized, Pipelined }, plus chained
//! delta replay against a retained base. Two properties must hold:
//!
//! 1. **Oracle agreement**: the checker's violated-flow set equals the
//!    flow set the exact path diff (`rela_baseline::path_diff`) flags at
//!    the same granularity — an independent per-FEC implementation with
//!    none of the dedup/pipelining/delta machinery under test.
//! 2. **Mode identity**: verdict bytes are identical across every
//!    container and ingest mode.
//!
//! On failure the harness minimizes the snapshot pair (greedy flow-set
//! reduction), writes a self-contained repro bundle under
//! `target/fuzz-repros/<scenario>/`, and panics with the seed and the
//! one-liner that reproduces it. Seeds come from `RELA_FUZZ_SEEDS`
//! (comma-separated; the CI `diff-fuzz` job sets a fixed batch), with a
//! small default for the tier-1 debug run. `RELA_FUZZ_REPRO=<dir>`
//! replays a bundle by path. See `docs/FUZZING.md`.

use rela_baseline::oracle::{self, ChangedFlows, Disagreement};
use rela_core::{
    CheckReport, CheckSession, IngestMode, JobOptions, JobSpec, LabeledSource, SessionConfig,
};
use rela_net::{
    BinarySnapshotWriter, FlowSpec, Granularity, LocationDb, Snapshot, SnapshotFramer, SnapshotPair,
};
use rela_sim::adversarial::{generate, Scenario, ScenarioFamily};
use std::path::{Path, PathBuf};

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
    .expect("nochange spec compiles against the scenario db")
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

/// Does the (materialized, in-memory) pair still disagree with the
/// oracle? The minimizer's probe — one mode is enough, because mode
/// identity is asserted separately before minimization ever runs.
fn probe_disagreement(
    spec: &str,
    db: &LocationDb,
    granularity: Granularity,
    pre: &Snapshot,
    post: &Snapshot,
) -> Option<Disagreement> {
    let pair = SnapshotPair::align(pre, post);
    let want = oracle::oracle_verdict(&pair, db, granularity);
    let report = open_session(spec, db, granularity, 1, false)
        .run(JobSpec::pair(&pair))
        .ok()?;
    oracle::compare(&want, &flagged(&report)).err()
}

/// Greedy flow-set minimization: repeatedly drop chunks of flows while
/// the oracle disagreement persists. Returns the reduced pair.
fn minimize(
    spec: &str,
    db: &LocationDb,
    granularity: Granularity,
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
            if probe_disagreement(spec, db, granularity, &p, &q).is_some() {
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
    scenario: &'a Scenario,
    iteration: usize,
    stage: &'a str,
    detail: String,
    pre: &'a Snapshot,
    post: &'a Snapshot,
    /// Delta documents when the failing stage was a delta replay.
    delta_docs: Option<(&'a [u8], &'a [u8])>,
}

/// Write the self-contained repro bundle and return its directory.
fn write_bundle(ctx: &FailureContext<'_>) -> PathBuf {
    let dir = repros_root().join(&ctx.scenario.name);
    std::fs::create_dir_all(&dir).expect("create repro dir");
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).expect("write repro file");
    };
    let pre_json = ctx.pre.to_json().unwrap();
    let post_json = ctx.post.to_json().unwrap();
    write("spec.rela", ctx.scenario.spec.as_bytes());
    write(
        "db.json",
        serde_json::to_string(&ctx.scenario.wan.topology.db)
            .unwrap()
            .as_bytes(),
    );
    write(
        "granularity.txt",
        ctx.scenario.granularity.to_string().as_bytes(),
    );
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
        &ctx.scenario.spec,
        &ctx.scenario.wan.topology.db,
        ctx.scenario.granularity,
        ctx.pre,
        ctx.post,
    )
    .is_some()
    {
        let (min_pre, min_post) = minimize(
            &ctx.scenario.spec,
            &ctx.scenario.wan.topology.db,
            ctx.scenario.granularity,
            ctx.pre,
            ctx.post,
        );
        write("min_pre.json", min_pre.to_json().unwrap().as_bytes());
        write("min_post.json", min_post.to_json().unwrap().as_bytes());
    }
    let manifest = format!(
        "scenario: {name}\nfamily: {family}\nseed: {seed}\niteration: {iteration}\n\
         stage: {stage}\ngranularity: {gran}\ndescription: {desc}\n\n{detail}\n\n\
         reproduce from seed:\n  RELA_FUZZ_SEEDS={seed} cargo test --release -p rela-core \
         --test differential_fuzz -- --nocapture\nreplay this bundle:\n  \
         RELA_FUZZ_REPRO={dir} cargo test --release -p rela-core --test differential_fuzz \
         replay_repro_bundle -- --nocapture\n",
        name = ctx.scenario.name,
        family = ctx.scenario.family,
        seed = ctx.scenario.seed,
        iteration = ctx.iteration,
        stage = ctx.stage,
        gran = ctx.scenario.granularity,
        desc = ctx.scenario.description,
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
        ctx.scenario.family,
        ctx.scenario.seed,
        ctx.iteration,
        ctx.stage,
        ctx.detail,
        dir.display(),
        ctx.scenario.seed,
    )
}

/// Check one scenario end to end: every iteration across the full
/// container × ingest-mode matrix, then chained delta replay.
fn run_scenario(sc: &Scenario) {
    let db = &sc.wan.topology.db;
    let pre_json = sc.iterations.pre.to_json().unwrap();
    let pre_rsnb = pack(&pre_json);
    let modes = [IngestMode::Materialized, IngestMode::Pipelined];
    let mut oracles = Vec::with_capacity(sc.iteration_count());
    for (ix, post) in sc.iterations.posts.iter().enumerate() {
        let pair = SnapshotPair::align(&sc.iterations.pre, post);
        let want = oracle::oracle_verdict(&pair, db, sc.granularity);
        let post_json = post.to_json().unwrap();
        let post_rsnb = pack(&post_json);
        let containers: [(&str, &[u8], &[u8]); 2] = [
            ("json", pre_json.as_bytes(), post_json.as_bytes()),
            ("rsnb", &pre_rsnb, &post_rsnb),
        ];
        let mut reference: Option<(String, String)> = None;
        for (container, pre_bytes, post_bytes) in containers {
            for mode in modes {
                let stage = format!("{container}×{mode:?}");
                let report = open_session(&sc.spec, db, sc.granularity, 1, false)
                    .run(stream_job(pre_bytes, post_bytes, mode))
                    .unwrap_or_else(|e| {
                        fail(FailureContext {
                            scenario: sc,
                            iteration: ix,
                            stage: &stage,
                            detail: format!("ingest error on a well-formed pair: {e}"),
                            pre: &sc.iterations.pre,
                            post,
                            delta_docs: None,
                        })
                    });
                if let Err(disagreement) = oracle::compare(&want, &flagged(&report)) {
                    fail(FailureContext {
                        scenario: sc,
                        iteration: ix,
                        stage: &stage,
                        detail: disagreement.to_string(),
                        pre: &sc.iterations.pre,
                        post,
                        delta_docs: None,
                    });
                }
                let verdict = verdict_bytes(&report);
                match &reference {
                    None => reference = Some((stage.clone(), verdict)),
                    Some((ref_stage, ref_verdict)) => {
                        if verdict != *ref_verdict {
                            fail(FailureContext {
                                scenario: sc,
                                iteration: ix,
                                stage: &stage,
                                detail: format!(
                                    "verdict bytes diverged from {ref_stage}:\n--- {ref_stage}\n\
                                     {ref_verdict}\n--- {stage}\n{verdict}"
                                ),
                                pre: &sc.iterations.pre,
                                post,
                                delta_docs: None,
                            });
                        }
                    }
                }
            }
        }
        oracles.push(want);
    }

    // chained delta replay: seed with (pre, posts[0]), then apply each
    // delta document in sequence — the retained base advances with
    // every job, exactly as a resident daemon iterates
    let session = open_session(&sc.spec, db, sc.granularity, 1, true);
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
                fail(FailureContext {
                    scenario: sc,
                    iteration: ix,
                    stage: "delta-replay",
                    detail: format!("delta job failed on a well-formed chain: {e}"),
                    pre: &sc.iterations.pre,
                    post: &sc.iterations.posts[ix],
                    delta_docs: Some((&delta.pre_doc, &delta.post_doc)),
                })
            });
        if let Err(disagreement) = oracle::compare(&oracles[ix], &flagged(&report)) {
            fail(FailureContext {
                scenario: sc,
                iteration: ix,
                stage: "delta-replay",
                detail: disagreement.to_string(),
                pre: &sc.iterations.pre,
                post: &sc.iterations.posts[ix],
                delta_docs: Some((&delta.pre_doc, &delta.post_doc)),
            });
        }
    }
}

#[test]
fn differential_fuzz_all_families() {
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
            run_scenario(&sc);
        }
    }
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
/// pair against the oracle. `Ok` means the disagreement is gone.
fn replay(dir: &Path) -> Result<(), String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))
    };
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
    match probe_disagreement(&spec, &db, granularity, &pre, &post) {
        None => Ok(()),
        Some(disagreement) => Err(disagreement.to_string()),
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

/// The bundle plumbing itself: write a bundle for a healthy scenario,
/// then replay it by path — every file must parse and the replay must
/// report agreement.
#[test]
fn repro_bundles_round_trip() {
    let sc = generate(ScenarioFamily::LinkMaintenance, 2);
    let post = &sc.iterations.posts[0];
    let dir = write_bundle(&FailureContext {
        scenario: &sc,
        iteration: 0,
        stage: "self-test",
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
