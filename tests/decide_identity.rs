//! Layout pins for the decide path: one interface-granularity pair, the
//! shape of `relabench`'s `decide-interface` workload, is decided by
//! both engines at 1 and 2 threads and the rendered report must hash to
//! one committed fingerprint. A second pin does the same for the
//! Figure 1 case study against a pruned location db, so the snapshots
//! name devices and groups the db lacks: the symbols those classes are
//! decided under come from outside the compiled alphabet.
//!
//! Every other identity suite compares two runs of the build under
//! test, so a change that reorders witnesses or renumbers automaton
//! states the same way in both runs passes them all. This fingerprint
//! was recorded before the decide path was rewritten (PR 15: layered
//! witness enumeration, fused image, guards lowered once) and pins
//! witness order and automaton layout *across* builds. If it moves, the
//! order invariant in `docs/ARCHITECTURE.md` (*Decide path*) is broken —
//! do not re-record it without bumping `ENGINE_VERSION`. Beside it, at
//! one thread, each engine's work counters are pinned across builds.
//!
//! The digest is this file's own FNV-1a-128, not the production content
//! hash: the pin must not ride on a function a PR may replace, so an
//! unchanged constant means unchanged report bytes whatever
//! `content_hash128` is.

use rela::lang::{CheckReport, CheckSession, JobSpec, LabeledSource, SessionConfig};
use rela::net::{Granularity, Ipv4Prefix, LocationDb, SnapshotPair};
use rela::sim::scenarios::{case_study, CASE_STUDY_SPEC};
use rela::sim::workload::{group_name, spec_of_size, synthetic_wan, WanParams};
use rela::sim::{configured, simulate, ConfigChange, DeviceSelector};

/// [`fnv1a_128`] of the verdict bytes, recorded at commit dec54f1.
const FINGERPRINT: u128 = 0x2e03_16b1_0763_774a_4418_f155_0307_326a;

/// [`fnv1a_128`] of the pruned-db case study's verdict bytes, recorded
/// at commit 164507e.
const PRUNED_DB_FINGERPRINT: u128 = 0x90da_739d_c154_8553_082c_c231_3ed7_2080;

/// Each engine's work at one thread, `(classes, fst_memo_hits,
/// graph_decodes, live_sides, dead_sides)`, recorded at commit 958dc5e:
/// two builds that build the same automata do the same work, whatever
/// their in-memory maps hash with.
const WORK_AT_ONE_THREAD: [[usize; 5]; 2] = [[99, 9, 360, 198, 2376], [99, 9, 198, 198, 2376]];

/// 128-bit FNV-1a (what `content_hash128` was at dec54f1).
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ u128::from(b)).wrapping_mul(PRIME))
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
fn the_interface_granularity_report_is_pinned_across_builds() {
    let params = WanParams {
        regions: 10,
        routers_per_group: 2,
        parallel_links: 4,
        fecs_per_pair: 2,
    };
    let wan = synthetic_wan(&params);
    // relabench's change: drain the R0C–R1C trunk, deny one /24 at R1O
    let changes = [
        ConfigChange::SetGroupLinkCost {
            group_a: group_name(0, 'C'),
            group_b: group_name(1, 'C'),
            cost: 20,
        },
        ConfigChange::AddAclDeny {
            devices: DeviceSelector::Group(group_name(1, 'O')),
            prefixes: vec![Ipv4Prefix::from_octets(10, 1, 0, 0, 24)],
        },
    ];
    let (pre, unconverged) = simulate(&wan.topology, &wan.config, &wan.traffic);
    assert!(unconverged.is_empty());
    let cfg = configured(&wan.config, &wan.topology, &changes);
    let (post, unconverged) = simulate(&wan.topology, &cfg, &wan.traffic);
    assert!(unconverged.is_empty());
    let pair = SnapshotPair::align(&pre, &post);
    let (pre_json, post_json) = (pre.to_json().unwrap(), post.to_json().unwrap());

    let spec = spec_of_size(37, params.regions);
    for threads in [1, 2] {
        // a session per engine: each decides every class cold
        let open = || {
            let config = SessionConfig {
                granularity: Granularity::Interface,
                threads,
                ..SessionConfig::default()
            };
            CheckSession::open(&spec, wan.topology.db.clone(), config).unwrap()
        };
        let batch = open().run(JobSpec::pair(&pair)).unwrap();
        assert!(!batch.is_compliant(), "the change must be visible");
        // streams go through the pipelined engine by default
        let streams = JobSpec::streams(
            LabeledSource::new(pre_json.as_bytes(), "pre"),
            LabeledSource::new(post_json.as_bytes(), "post"),
        );
        let pipelined = open().run(streams).unwrap();
        let engines = [("batch", &batch), ("pipelined", &pipelined)];
        for ((engine, report), work) in engines.into_iter().zip(WORK_AT_ONE_THREAD) {
            let stats = &report.stats;
            let counted = [
                stats.classes,
                stats.fst_memo_hits,
                stats.graph_decodes,
                stats.live_sides,
                stats.dead_sides,
            ];
            if threads == 1 {
                assert_eq!(counted, work, "{engine} engine's work at 1 thread moved");
            }
            let bytes = verdict_bytes(report);
            assert_eq!(
                fnv1a_128(bytes.as_bytes()),
                FINGERPRINT,
                "{engine} engine at {threads} thread(s): witness order or automaton layout \
                 moved ({} report bytes)",
                bytes.len(),
            );
        }
    }
}

/// The case study's db with every third device gone (the first, then
/// every third after it, in name order: `xa`, which the spec names,
/// stays) and `eth0` / `eth1` gone from the rest. The snapshots still
/// name all of them.
fn pruned_db(db: &LocationDb) -> LocationDb {
    let mut pruned = LocationDb::new();
    for (ix, device) in db.devices().enumerate() {
        if ix % 3 == 0 {
            continue;
        }
        let mut device = device.clone();
        device
            .interfaces
            .retain(|i| !i.ends_with(":eth0") && !i.ends_with(":eth1"));
        pruned.add_device(device);
    }
    pruned
}

#[test]
fn names_outside_the_db_are_pinned_across_builds() {
    let study = case_study();
    let db = pruned_db(&study.topology.db);
    assert!(db.len() < study.topology.db.len());
    // `rela demo`'s change.rela: routed and raw checks render too
    let spec = format!(
        "{CASE_STUDY_SPEC}\nrir sideEffects := pre <= post && post <= (pre | xa .*)\n\
         pspec sideP := (ingress == \"xa\") -> sideEffects\n"
    );
    let pre = study.pre_snapshot();
    let pre_json = pre.to_json().unwrap();
    let mut digest = Vec::new();
    for granularity in [Granularity::Group, Granularity::Device] {
        for ix in 0..study.iterations.len() {
            let post = study.post_snapshot(ix);
            let pair = SnapshotPair::align(&pre, &post);
            let post_json = post.to_json().unwrap();
            let mut reports = Vec::new();
            for threads in [1, 2] {
                let config = SessionConfig {
                    granularity,
                    threads,
                    ..SessionConfig::default()
                };
                let open = || CheckSession::open(&spec, db.clone(), config).unwrap();
                reports.push(verdict_bytes(&open().run(JobSpec::pair(&pair)).unwrap()));
                let streams = JobSpec::streams(
                    LabeledSource::new(pre_json.as_bytes(), "pre"),
                    LabeledSource::new(post_json.as_bytes(), "post"),
                );
                reports.push(verdict_bytes(&open().run(streams).unwrap()));
            }
            for report in &reports[1..] {
                assert_eq!(report, &reports[0], "{granularity:?} post_v{}", ix + 1);
            }
            digest.extend_from_slice(reports[0].as_bytes());
            digest.push(0xff);
        }
    }
    assert_eq!(
        fnv1a_128(&digest),
        PRUNED_DB_FINGERPRINT,
        "witness order or automaton layout moved for names outside the db ({} report bytes)",
        digest.len(),
    );
}
