//! Panic isolation and fault-plan containment at the session boundary.
//!
//! Each test hands its own session its own fault plan (the value
//! `rela serve` builds from `RELA_FAULTS`), so they run in parallel. The
//! property under test is the containment contract: a panic injected
//! into the engine's decide path surfaces as a typed
//! [`JobError::Panicked`] on *that job only* — the session survives, the
//! next job's report is byte-identical to an unfaulted run, and a
//! neighbouring session never sees the plan.

use rela_cache::VerdictStore;
use rela_core::{CheckReport, CheckSession, JobError, JobSpec, LabeledSource, SessionConfig};
use rela_net::faultio::{self, FaultPlan};
use rela_net::{linear_graph, Device, FlowSpec, Granularity, LocationDb, Snapshot};
use std::sync::Barrier;

/// A session whose jobs consult the plan `spec` describes.
fn faulted_session(threads: usize, spec: &str) -> CheckSession {
    let mut s = session(threads);
    s.set_faults(Some(FaultPlan::parse(spec).expect("valid fault spec")));
    s
}

fn db() -> LocationDb {
    let mut db = LocationDb::new();
    for name in ["A1", "B1", "C1"] {
        db.add_device(Device::new(name, name));
    }
    db
}

/// Two FECs routed A1→B1 and A1→C1, unchanged across the pair.
fn docs() -> (String, String) {
    let mut pre = Snapshot::new();
    let mut post = Snapshot::new();
    for (ix, tail) in [["B1"], ["C1"]].iter().enumerate() {
        let flow = FlowSpec::new(format!("10.0.{ix}.0/24").parse().unwrap(), "A1");
        let path: Vec<&str> = std::iter::once("A1").chain(tail.iter().copied()).collect();
        pre.insert(flow.clone(), linear_graph(&path));
        post.insert(flow, linear_graph(&path));
    }
    (pre.to_json().unwrap(), post.to_json().unwrap())
}

const SPEC: &str = "spec nochange := { .* : preserve }\ncheck nochange";

fn session(threads: usize) -> CheckSession {
    CheckSession::open(
        SPEC,
        db(),
        SessionConfig {
            granularity: Granularity::Device,
            threads,
            ..SessionConfig::default()
        },
    )
    .unwrap()
}

fn run(session: &CheckSession, docs: &(String, String)) -> Result<CheckReport, JobError> {
    session.run(JobSpec::streams(
        LabeledSource::new(docs.0.as_bytes(), "pre"),
        LabeledSource::new(docs.1.as_bytes(), "post"),
    ))
}

fn verdict_bytes(report: &CheckReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn an_injected_decide_panic_is_contained_and_the_session_survives() {
    let docs = docs();
    let baseline = {
        let clean = session(1);
        verdict_bytes(&run(&clean, &docs).expect("unfaulted run succeeds"))
    };

    let s = faulted_session(1, "panic=decide@1");
    let err = run(&s, &docs).expect_err("the injected panic must fail the job");
    match &err {
        JobError::Panicked { payload } => {
            assert!(payload.contains("injected fault"), "{payload}");
            assert!(payload.contains("decide"), "{payload}");
        }
        other => panic!("expected Panicked, got {other}"),
    }
    assert!(err.as_snapshot().is_none());

    // the very same session serves the next job, byte-identically
    // to a session that never saw the fault
    let report = run(&s, &docs).expect("the session must survive the panic");
    assert_eq!(verdict_bytes(&report), baseline);
    assert_eq!(s.jobs_run(), 2, "both jobs count, including the failed one");
}

#[test]
fn a_panic_on_a_parallel_worker_is_contained_too() {
    let docs = docs();
    let s = faulted_session(2, "panic=decide@1");
    let err = run(&s, &docs).expect_err("the injected panic must fail the job");
    assert!(matches!(err, JobError::Panicked { .. }), "{err}");
    let report = run(&s, &docs).expect("the session must survive a worker panic");
    assert!(report.is_compliant());
}

#[test]
fn an_aborted_job_writes_nothing_back() {
    let mut s = session(2);
    s.attach_store(VerdictStore::in_memory(s.epoch()));
    let docs = docs();
    run(&s, &docs).expect("the cold run fills the store");
    let inserted = s.store().unwrap().stats().inserted;
    assert!(inserted > 0);

    // `pre` pretty-printed is byte-cold but behavior-warm, and moving
    // the first flow to A1→C1 founds the one class that reaches decide,
    // where it panics: the warm class's byte-keyed twin is not written
    // either
    let pre = Snapshot::from_reader(docs.0.as_bytes()).unwrap();
    let mut post = pre.clone();
    let (moved, _) = pre.iter().next().unwrap();
    post.insert(moved.clone(), linear_graph(&["A1", "C1"]));
    let edited = (
        serde_json::to_string_pretty(&pre).unwrap(),
        post.to_json().unwrap(),
    );
    s.set_faults(Some(FaultPlan::parse("panic=decide@1").unwrap()));
    let err = run(&s, &edited).expect_err("the moved class's decide panics");
    assert!(matches!(err, JobError::Panicked { .. }), "{err}");
    assert_eq!(
        s.store().unwrap().stats().inserted,
        inserted,
        "written back"
    );
}

#[test]
fn a_plan_fires_only_in_the_session_it_was_handed_to() {
    // two sessions in one process, released together: only the planned
    // one panics, however the two jobs interleave
    let docs = docs();
    let planned = faulted_session(1, "panic=decide@1");
    let plain = session(1);
    let start = Barrier::new(2);
    let (faulted, clean) = std::thread::scope(|scope| {
        let job = |s| {
            let (start, docs) = (&start, &docs);
            scope.spawn(move || {
                start.wait();
                run(s, docs)
            })
        };
        let (faulted, clean) = (job(&planned), job(&plain));
        (faulted.join().unwrap(), clean.join().unwrap())
    });
    assert!(
        matches!(faulted, Err(JobError::Panicked { .. })),
        "the planned session must fail its job"
    );
    let report = clean.expect("the neighbouring session never sees the plan");
    assert!(report.is_compliant());
}

#[test]
fn faulted_input_streams_replay_byte_identically_across_seeds() {
    // read faults (short reads, EINTR, latency) on the snapshot streams
    // must never change a verdict: the framers retry and reassemble
    let docs = docs();
    let baseline = {
        let s = session(1);
        verdict_bytes(&run(&s, &docs).unwrap())
    };
    for seed in 1..=4 {
        let plan = FaultPlan::parse(&format!("seed={seed},short-read=0.6,eintr=0.3")).unwrap();
        let s = session(1);
        let report = s
            .run(JobSpec::streams(
                LabeledSource::new(
                    faultio::FaultyRead::new(docs.0.as_bytes(), plan.clone()),
                    "pre",
                ),
                LabeledSource::new(faultio::FaultyRead::new(docs.1.as_bytes(), plan), "post"),
            ))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(verdict_bytes(&report), baseline, "seed {seed}");
    }
}

/// Every cold class is decided exactly once. The plan's `decide`
/// counter is the only observable of a second decide: a job over K
/// classes, all violating, must get through `panic=decide@K+1`
/// untouched and must trip `panic=decide@K`.
#[test]
fn every_cold_class_is_decided_exactly_once() {
    use rela_core::JobOptions;
    use rela_net::{diff_side, scan_side, write_delta, SnapshotFramer};
    // K = 3 classes of two member flows each, every one of them moved
    const K: usize = 3;
    let moves: [(&[&str], &[&str]); K] = [
        (&["A1", "B1"], &["A1", "C1"]),
        (&["A1", "C1"], &["A1", "B1"]),
        (&["A1", "B1", "C1"], &["A1", "C1", "B1"]),
    ];
    let mut pre = Snapshot::new();
    let mut post = Snapshot::new();
    for ix in 0..2 * K {
        let flow = FlowSpec::new(format!("10.0.{ix}.0/24").parse().unwrap(), "A1");
        let (before, after) = moves[ix % K];
        pre.insert(flow.clone(), linear_graph(before));
        post.insert(flow, linear_graph(after));
    }
    let docs = (pre.to_json().unwrap(), post.to_json().unwrap());

    let decides_k_classes =
        |s: &mut CheckSession, job: &dyn Fn(&CheckSession) -> Result<CheckReport, JobError>| {
            s.set_faults(Some(
                FaultPlan::parse(&format!("panic=decide@{}", K + 1)).unwrap(),
            ));
            let report = job(s).expect("K classes must not reach a K+1-th decide");
            assert_eq!(report.stats.classes, K);
            assert_eq!(report.violations.len(), 2 * K, "every class violates");
            s.set_faults(Some(
                FaultPlan::parse(&format!("panic=decide@{K}")).unwrap(),
            ));
            let err = job(s).expect_err("K classes must reach the K-th decide");
            assert!(matches!(err, JobError::Panicked { .. }), "{err}");
        };

    // through the pipelined engine
    let mut s = session(2);
    decides_k_classes(&mut s, &|s| run(s, &docs));

    // through a delta job: an empty delta against the retained pair
    // replays every record, and no store is attached, so all K classes
    // are cold again
    let mut s = CheckSession::open(
        SPEC,
        db(),
        SessionConfig {
            granularity: Granularity::Device,
            threads: 2,
            retain_bases: 1,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    run(&s, &docs).expect("the base pair ingests");
    let epoch = s.base_epoch().expect("the pipelined job retained its pair");
    let empty_delta = |json: &str| {
        let scan = scan_side(SnapshotFramer::new(json.as_bytes(), "side")).unwrap();
        let diff = diff_side(&scan, &scan);
        let mut doc = Vec::new();
        write_delta(&mut doc, epoch, &diff.removed, &diff.records).unwrap();
        doc
    };
    let deltas = (empty_delta(&docs.0), empty_delta(&docs.1));
    decides_k_classes(&mut s, &|s| {
        s.run(
            JobSpec::deltas(
                LabeledSource::new(&deltas.0[..], "delta:pre"),
                LabeledSource::new(&deltas.1[..], "delta:post"),
            )
            .with_options(JobOptions {
                delta_base: Some(epoch.as_u128()),
                ..JobOptions::default()
            }),
        )
    });
}
