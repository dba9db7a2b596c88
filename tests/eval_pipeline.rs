//! Integration tests for the evaluation pipeline behind Figures 5–7:
//! the synthetic WAN simulates and converges, every generated change
//! spec parses/compiles/checks at its intended granularity, and the
//! whole flow survives a JSON round trip (the file-based interface the
//! paper's toolchain uses, §7).

use rela::lang::{CheckReport, CheckSession, JobSpec, RelaError, SessionConfig};
use rela::net::{Granularity, LocationDb, Snapshot, SnapshotPair};
use rela::sim::workload::{evaluation_specs, spec_of_size, synthetic_wan, WanParams};
use rela::sim::{configured, simulate};

/// Open a one-job session: the session API equivalent of the old
/// `run_check` helper.
fn run_check(
    spec: &str,
    db: &LocationDb,
    granularity: Granularity,
    pair: &SnapshotPair,
) -> Result<CheckReport, RelaError> {
    let session = CheckSession::open(
        spec,
        db.clone(),
        SessionConfig {
            granularity,
            ..SessionConfig::default()
        },
    )?;
    Ok(session.run(JobSpec::pair(pair)).expect("in-memory pair"))
}

fn small_params() -> WanParams {
    WanParams {
        regions: 4,
        routers_per_group: 2,
        parallel_links: 2,
        fecs_per_pair: 2,
    }
}

fn testbed() -> (rela::sim::Topology, SnapshotPair) {
    let wan = synthetic_wan(&small_params());
    let (pre, un) = simulate(&wan.topology, &wan.config, &wan.traffic);
    assert!(un.is_empty());
    let post_cfg = configured(&wan.config, &wan.topology, &wan.representative_change);
    let (post, un) = simulate(&wan.topology, &post_cfg, &wan.traffic);
    assert!(un.is_empty());
    let pair = SnapshotPair::align(&pre, &post);
    (wan.topology, pair)
}

#[test]
fn every_evaluation_spec_validates_end_to_end() {
    let (topology, pair) = testbed();
    let specs = evaluation_specs(&small_params());
    assert_eq!(specs.len(), 30);
    for spec in &specs {
        let report = run_check(&spec.source, &topology.db, spec.granularity, &pair)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}\n{}", spec.id, spec.source));
        assert_eq!(report.total, pair.len(), "{}", spec.id);
    }
}

#[test]
fn representative_change_is_caught_by_nochange() {
    // the ACL insertion must be visible to the N=1 "no change" spec —
    // otherwise Fig. 6's violation columns would be vacuous
    let (topology, pair) = testbed();
    let report = run_check(
        &spec_of_size(1, small_params().regions),
        &topology.db,
        Granularity::Group,
        &pair,
    )
    .expect("compiles");
    assert!(!report.is_compliant());
    assert!(report.count_for("nochange") > 0);
    // and the affected flows are exactly the filtered destination
    for v in &report.violations {
        assert!(
            v.flow.dst.to_string().starts_with("10.1.0"),
            "unexpected violating flow {}",
            v.flow
        );
    }
}

#[test]
fn spec_sizes_compile_at_all_granularities() {
    let (topology, pair) = testbed();
    for n in [1usize, 4, 7] {
        for granularity in [
            Granularity::Group,
            Granularity::Device,
            Granularity::Interface,
        ] {
            let report = run_check(
                &spec_of_size(n, small_params().regions),
                &topology.db,
                granularity,
                &pair,
            )
            .unwrap_or_else(|e| panic!("N={n} at {granularity}: {e}"));
            assert_eq!(report.total, pair.len());
        }
    }
}

#[test]
fn snapshots_survive_json_roundtrip_with_identical_verdicts() {
    let (topology, pair) = testbed();
    // serialize both sides, re-load, re-align, and compare reports
    let pre: Snapshot = pair
        .fecs
        .iter()
        .map(|f| (f.flow.clone(), f.pre.clone()))
        .collect();
    let post: Snapshot = pair
        .fecs
        .iter()
        .map(|f| (f.flow.clone(), f.post.clone()))
        .collect();
    let pre2 = Snapshot::from_reader(pre.to_json().unwrap().as_bytes()).unwrap();
    let post2 = Snapshot::from_reader(post.to_json().unwrap().as_bytes()).unwrap();
    let pair2 = SnapshotPair::align(&pre2, &post2);
    assert_eq!(pair.len(), pair2.len());

    let spec = spec_of_size(4, small_params().regions);
    let r1 = run_check(&spec, &topology.db, Granularity::Group, &pair).unwrap();
    let r2 = run_check(&spec, &topology.db, Granularity::Group, &pair2).unwrap();
    assert_eq!(r1.total, r2.total);
    assert_eq!(r1.compliant, r2.compliant);
    assert_eq!(r1.part_counts, r2.part_counts);
    let flows1: Vec<_> = r1.violations.iter().map(|v| &v.flow).collect();
    let flows2: Vec<_> = r2.violations.iter().map(|v| &v.flow).collect();
    assert_eq!(flows1, flows2);
}

#[test]
fn interface_granularity_is_strictly_finer() {
    // an intra-group ECMP re-balance is invisible at group level but
    // visible at interface level — the Fig. 7 cost has a payoff
    let params = small_params();
    let wan = synthetic_wan(&params);
    let (pre, _) = simulate(&wan.topology, &wan.config, &wan.traffic);
    // raise the cost of R0C–R1C trunk links so different members win;
    // at group granularity paths keep the same group sequence
    let change = vec![rela::sim::ConfigChange::SetGroupLinkCost {
        group_a: "R0C".into(),
        group_b: "R1C".into(),
        cost: 6,
    }];
    let (post, _) = simulate(
        &wan.topology,
        &configured(&wan.config, &wan.topology, &change),
        &wan.traffic,
    );
    let pair = SnapshotPair::align(&pre, &post);
    let nochange = spec_of_size(1, params.regions);
    let group_report =
        run_check(&nochange, &wan.topology.db, Granularity::Group, &pair).expect("compiles");
    let iface_report =
        run_check(&nochange, &wan.topology.db, Granularity::Interface, &pair).expect("compiles");
    // finer granularity can only reveal more differences
    assert!(
        iface_report.violations.len() >= group_report.violations.len(),
        "interface {} < group {}",
        iface_report.violations.len(),
        group_report.violations.len()
    );
}

#[test]
fn path_limit_extension_on_the_wan() {
    // the WAN's parallel trunks give multi-path flows; a tight limit
    // flags them, a loose one passes — end to end through the parser
    let (topology, pair) = testbed();
    let tight = "limit ecmp := 1\ncheck ecmp";
    let report = run_check(tight, &topology.db, Granularity::Group, &pair).unwrap();
    assert!(!report.is_compliant(), "parallel trunks exceed 1 path");
    let loose = "limit ecmp := 1000000\ncheck ecmp";
    let report = run_check(loose, &topology.db, Granularity::Group, &pair).unwrap();
    assert!(report.is_compliant());
}

#[test]
fn declared_spec_sizes_match_ast_counts() {
    // cross-validate the workload generator's declared atomic counts
    // against the parser+AST counting (two independent implementations
    // of the Fig. 5 metric)
    for spec in evaluation_specs(&small_params()) {
        let program =
            rela::lang::parse_program(&spec.source).unwrap_or_else(|e| panic!("{}: {e}", spec.id));
        let counted = program
            .atomic_count("change")
            .unwrap_or_else(|| panic!("{}: cannot count", spec.id));
        assert_eq!(counted, spec.atomic_count, "{}", spec.id);
    }
}
