//! The pipelined cold path must be indistinguishable from the
//! materialized one: on the fig6/fig7 testbeds, a streams job over the
//! serialized snapshots produces a byte-identical `CheckReport` to a
//! pair job over `align` of them (timing lines excluded — they are the
//! only nondeterministic output).

use rela_core::{CheckReport, CheckSession, JobSpec, LabeledSource, SessionConfig};
use rela_net::{Granularity, SnapshotPair};
use rela_sim::workload::{spec_of_size, synthetic_wan, WanParams};
use rela_sim::{configured, simulate};

/// The report rendering minus its timing-dependent lines.
fn verdict_bytes(report: &CheckReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_streamed_identical(params: &WanParams, spec_atomics: usize, granularity: Granularity) {
    let wan = synthetic_wan(params);
    let (pre, unconverged) = simulate(&wan.topology, &wan.config, &wan.traffic);
    assert!(unconverged.is_empty(), "base WAN must converge");
    let post_cfg = configured(&wan.config, &wan.topology, &wan.representative_change);
    let (post, unconverged) = simulate(&wan.topology, &post_cfg, &wan.traffic);
    assert!(unconverged.is_empty(), "changed WAN must converge");

    // a fresh session per engine: each run is cold
    let session = || {
        let config = SessionConfig {
            granularity,
            threads: 2,
            ..SessionConfig::default()
        };
        let spec = spec_of_size(spec_atomics, params.regions);
        CheckSession::open(&spec, wan.topology.db.clone(), config).expect("spec compiles")
    };

    let pair = SnapshotPair::align(&pre, &post);
    let materialized = session().run(JobSpec::pair(&pair)).expect("in-memory pair");
    let pre_json = pre.to_json().expect("pre serializes");
    let post_json = post.to_json().expect("post serializes");
    let pipelined = session()
        .run(JobSpec::streams(
            LabeledSource::new(pre_json.as_bytes(), "pre.json"),
            LabeledSource::new(post_json.as_bytes(), "post.json"),
        ))
        .expect("streams are well-formed");
    assert_eq!(pipelined.total, materialized.total);
    assert_eq!(pipelined.compliant, materialized.compliant);
    assert_eq!(pipelined.part_counts, materialized.part_counts);
    assert_eq!(pipelined.violations, materialized.violations);
    assert_eq!(pipelined.stats.classes, materialized.stats.classes);
    assert_eq!(pipelined.stats.dedup_hits, materialized.stats.dedup_hits);
    assert_eq!(
        verdict_bytes(&pipelined),
        verdict_bytes(&materialized),
        "pipelined and materialized reports diverged"
    );
}

/// The Fig. 6 testbed (default WAN scale, group granularity).
#[test]
fn fig6_testbed_streams_byte_identically() {
    assert_streamed_identical(&WanParams::default(), 4, Granularity::Group);
}

/// The Fig. 7 interface-granularity column (the path-explosion one).
#[test]
fn fig7_testbed_streams_byte_identically() {
    assert_streamed_identical(&WanParams::default(), 1, Granularity::Interface);
}
