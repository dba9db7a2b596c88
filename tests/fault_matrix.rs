//! The fixed-seed fault matrix (CI runs this as its own step): the
//! Figure 1 demo pair is checked with every input stream wrapped in a
//! seed-deterministic [`FaultPlan`] injecting short reads and `EINTR`,
//! across both snapshot containers (JSON and RSNB). Every faulted run
//! must produce verdict bytes identical to the unfaulted baseline —
//! I/O weather never changes a verdict, only availability.

use rela::cli::{self, Command};
use rela::lang::{CheckSession, JobSpec, LabeledSource, SessionConfig};
use rela::net::faultio::{FaultPlan, FaultyRead};
use rela::net::{BinarySnapshotWriter, Granularity, SnapshotFramer};
use std::path::PathBuf;

/// Seeds the matrix replays. Fixed, not random: a failure names its
/// seed and replays byte-identically.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

fn demo_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rela-faultmatrix-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    cli::run(&Command::Demo(dir.clone()), &mut Vec::new()).expect("demo writes");
    dir
}

/// Pack a canonical JSON snapshot into the RSNB container by raw span
/// moves (the `rela snapshot pack` path, in memory).
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

fn verdict_bytes(report: &rela::lang::CheckReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn faulted_streams_are_byte_identical_across_seeds_and_containers() {
    let dir = demo_dir();
    let spec = std::fs::read_to_string(dir.join("change.rela")).unwrap();
    let db: rela::net::LocationDb =
        serde_json::from_str(&std::fs::read_to_string(dir.join("db.json")).unwrap()).unwrap();
    let pre_json = std::fs::read_to_string(dir.join("pre.json")).unwrap();
    let post_json = std::fs::read_to_string(dir.join("post_v2.json")).unwrap();
    let pre_rsnb = pack(&pre_json);
    let post_rsnb = pack(&post_json);

    let session = || -> CheckSession {
        CheckSession::open(
            &spec,
            db.clone(),
            SessionConfig {
                granularity: Granularity::Group,
                threads: 1,
                ..SessionConfig::default()
            },
        )
        .expect("demo spec compiles")
    };

    let baseline = {
        let s = session();
        let report = s
            .run(JobSpec::streams(
                LabeledSource::new(pre_json.as_bytes(), "pre"),
                LabeledSource::new(post_json.as_bytes(), "post"),
            ))
            .expect("unfaulted run succeeds");
        verdict_bytes(&report)
    };

    let containers: [(&str, &[u8], &[u8]); 2] = [
        ("json", pre_json.as_bytes(), post_json.as_bytes()),
        ("rsnb", &pre_rsnb, &post_rsnb),
    ];
    for seed in SEEDS {
        for (container, pre, post) in containers {
            let plan = FaultPlan::parse(&format!("seed={seed},short-read=0.5,eintr=0.25")).unwrap();
            let s = session();
            let report = s
                .run(JobSpec::streams(
                    LabeledSource::new(FaultyRead::new(pre, plan.clone()), "pre"),
                    LabeledSource::new(FaultyRead::new(post, plan), "post"),
                ))
                .unwrap_or_else(|e| panic!("seed {seed}, {container}: {e}"));
            assert_eq!(
                verdict_bytes(&report),
                baseline,
                "seed {seed}, {container}: faults changed the verdict"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
