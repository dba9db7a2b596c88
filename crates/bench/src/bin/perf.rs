//! The checker perf harness: measures the dedup engine and the
//! persistent incremental re-check path, and writes the results to a
//! machine-readable `BENCH_check.json` so the perf trajectory of the
//! checker is observable (and gated) across PRs.
//!
//! Seven scenario kinds:
//!
//! - **dedup** — the fig6/fig7 testbeds at several WAN scales, with
//!   dedup on *and* off at equal thread count, asserting identical
//!   verdicts. The `--fecs-per-pair` sweep (64/128/1024) tracks the
//!   paper's 10⁶-FEC headline; at 1024 the serial fingerprint pass
//!   would dominate, which is what the sharded grouping pass addresses.
//! - **iterative** — the §8.1 operational loop: K near-identical
//!   iterations of one change replayed against a persistent verdict
//!   cache ([`rela_cache::VerdictStore`]), measuring cold→warm speedup
//!   with cache-free runs cross-checking every replayed verdict.
//! - **ingest** — the cold path from snapshot files on disk to a
//!   verdict, pipelined (a streams job: framers → bounded channel →
//!   decode pool → decide-while-loading) vs. materialized (`from_json`
//!   → `align` → a pair job) at 12k and 100k+
//!   FECs. Each path runs in a fresh child process so peak RSS (`VmHWM`)
//!   isolates its true footprint; report identity is asserted via a
//!   verdict fingerprint, and the scenario's `speedup` records the
//!   peak-RSS reduction (materialized ÷ pipelined).
//! - **delta-ingest** — the §8.1 loop delta-first: a resident session
//!   (`retain_bases`) re-checks one iteration submitted as delta
//!   documents (`rela-sim`'s native emitter) vs. the same pair
//!   resubmitted in full with every verdict warm; reports must be
//!   byte-identical and decodes at most 2 × the changed-record count
//!   (what the run asserts); `speedup` is full-warm ÷ delta wall.
//! - **binary-ingest** — the cold pipelined path fed the
//!   length-prefixed binary container (`rela snapshot pack` output)
//!   vs. the same snapshots as JSON; `speedup` is JSON ÷ binary wall
//!   and `rss_ratio` binary ÷ JSON peak RSS.
//! - **mmap-ingest** — the same binary containers framed zero-copy out
//!   of a memory mapping (`SnapshotFramer::from_map`) vs. buffered
//!   `BufReader` framing of the identical files; `speedup` is
//!   buffered ÷ mapped wall and `rss_ratio` mapped ÷ buffered peak
//!   RSS, with report fingerprints asserted identical.
//! - **adversarial** — the operational scenario generators
//!   (`rela_sim::adversarial`: failover drills, rolling maintenance,
//!   policy migrations, ECMP churn, class skew) at a fixed seed,
//!   checking each scenario's last iteration against the exact path
//!   diff (`rela_baseline::path_diff`) as an independent oracle;
//!   `speedup` is path-diff ÷ checker wall (measured even in smoke —
//!   both runs are needed for the verdict cross-check anyway) and
//!   `verdicts_match` records flow-set agreement.
//!
//! Every scenario object carries `rss_ratio` — a positive measurement
//! for the child-process ingest kinds, `null` for everything else.
//!
//! Run: `cargo run --release -p rela-bench --bin perf [-- --smoke]
//!       [--out FILE] [--threads N]`
//!
//! `--smoke` runs tiny scenarios (CI-friendly, a few seconds) and still
//! exercises the full measure → serialize → re-read → validate loop. To
//! keep CI fast it **skips the no-dedup baseline**, emitting `null` for
//! `wall_nodedup_s` / `speedup` / `verdicts_match` on dedup scenarios;
//! the top-level `"smoke": true` marker tells the CI regression gate
//! (`scripts/bench_gate.py`) to skip absolute-time comparisons.
//!
//! The JSON schema (`rela-perf/v1`):
//!
//! ```json
//! {
//!   "schema": "rela-perf/v1",
//!   "threads": 1,
//!   "smoke": false,
//!   "scenarios": [
//!     {
//!       "name": "dedup-sweep-64", "kind": "dedup", "regions": 4,
//!       "routers_per_group": 2, "parallel_links": 2, "fecs_per_pair": 64,
//!       "spec_atomics": 4, "granularity": "group", "fecs": 768,
//!       "classes": 12, "cache_hits": 756, "cache_hit_rate": 0.984,
//!       "wall_s": 0.05, "wall_nodedup_s": 2.61, "speedup": 52.2,
//!       "verdicts_match": true, "violations": 64, "max_class_s": 0.01,
//!       "phases_s": {"lower": ..., "determinize": ..., "equivalent": ...,
//!                    "witness": ...}
//!     },
//!     {
//!       "name": "iterative-change", "kind": "iterative", "iterations": 4,
//!       "warm_hits": 21, "wall_cold_s": 0.04, "wall_warm_s": 0.004,
//!       "wall_s": 0.004, "wall_nodedup_s": null, "speedup": 10.3,
//!       "verdicts_match": true, ...
//!     }
//!   ]
//! }
//! ```

use rela_bench::{build_testbed, secs, Testbed};
use rela_cache::VerdictStore;
use rela_core::{CheckReport, CheckSession, JobOptions, JobSpec, LabeledSource, SessionConfig};
use rela_net::{
    content_hash128, BinarySnapshotWriter, Granularity, LocationDb, MmapSource, Snapshot,
    SnapshotFramer, SnapshotPair, SnapshotWriter,
};
use rela_sim::adversarial::{self, ScenarioFamily};
use rela_sim::workload::{
    iteration_changes, iteration_deltas, spec_of_size, synthetic_wan, WanParams,
};
use rela_sim::{configured, simulate, simulate_each};
use serde::{Serialize, Value};
use std::io::BufWriter;
use std::path::Path;
use std::time::{Duration, Instant};

struct Scenario {
    name: &'static str,
    params: WanParams,
    spec_atomics: usize,
    granularity: Granularity,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    if smoke {
        return vec![Scenario {
            name: "smoke",
            params: WanParams {
                regions: 3,
                routers_per_group: 1,
                parallel_links: 1,
                fecs_per_pair: 4,
            },
            spec_atomics: 1,
            granularity: Granularity::Group,
        }];
    }
    vec![
        // the Fig. 6 testbed at its default scale
        Scenario {
            name: "fig6-default",
            params: WanParams::default(),
            spec_atomics: 4,
            granularity: Granularity::Group,
        },
        // the Fig. 7 interface-granularity column (the path-explosion one)
        Scenario {
            name: "fig7-interface",
            params: WanParams::default(),
            spec_atomics: 1,
            granularity: Granularity::Interface,
        },
        // high fecs-per-pair sweep: many prefixes share one forwarding
        // behavior per region pair, so dedup dominates; 1024 is the
        // scale point where the fingerprint pass itself matters
        Scenario {
            name: "dedup-sweep-64",
            params: WanParams {
                regions: 4,
                routers_per_group: 2,
                parallel_links: 2,
                fecs_per_pair: 64,
            },
            spec_atomics: 4,
            granularity: Granularity::Group,
        },
        Scenario {
            name: "dedup-sweep-128",
            params: WanParams {
                regions: 4,
                routers_per_group: 2,
                parallel_links: 2,
                fecs_per_pair: 128,
            },
            spec_atomics: 4,
            granularity: Granularity::Group,
        },
        Scenario {
            name: "dedup-sweep-1024",
            params: WanParams {
                regions: 4,
                routers_per_group: 2,
                parallel_links: 2,
                fecs_per_pair: 1024,
            },
            spec_atomics: 4,
            granularity: Granularity::Group,
        },
    ]
}

/// A fresh session over `db`. A session keeps its memo and lowered
/// relations across runs, so a cold measurement opens its own — outside
/// the timer, as the parse and compile always were.
fn open(source: &str, db: &LocationDb, granularity: Granularity, threads: usize) -> CheckSession {
    let config = SessionConfig {
        granularity,
        threads,
        ..SessionConfig::default()
    };
    CheckSession::open(source, db.clone(), config).expect("spec compiles")
}

/// One cold check of the testbed's pair, timed.
fn check(
    tb: &Testbed,
    source: &str,
    granularity: Granularity,
    dedup: bool,
    threads: usize,
) -> (Duration, CheckReport) {
    let session = open(source, &tb.wan.topology.db, granularity, threads);
    let job = JobSpec::pair(&tb.pair).with_options(JobOptions {
        dedup,
        ..JobOptions::default()
    });
    let start = Instant::now();
    let report = session.run(job).expect("in-memory pair");
    (start.elapsed(), report)
}

fn reports_agree(a: &CheckReport, b: &CheckReport) -> bool {
    a.total == b.total
        && a.compliant == b.compliant
        && a.part_counts == b.part_counts
        && a.violations == b.violations
}

/// The fields every scenario kind shares, taken from one report.
fn base_fields(
    name: &str,
    kind: &str,
    params: &WanParams,
    spec_atomics: usize,
    granularity: Granularity,
    report: &CheckReport,
) -> Vec<(String, Value)> {
    let stats = report.stats;
    let phases = stats.phases;
    vec![
        ("name".to_owned(), name.to_value()),
        ("kind".to_owned(), kind.to_value()),
        ("regions".to_owned(), params.regions.to_value()),
        (
            "routers_per_group".to_owned(),
            params.routers_per_group.to_value(),
        ),
        (
            "parallel_links".to_owned(),
            params.parallel_links.to_value(),
        ),
        (
            "fecs_per_pair".to_owned(),
            (params.fecs_per_pair as usize).to_value(),
        ),
        ("spec_atomics".to_owned(), spec_atomics.to_value()),
        ("granularity".to_owned(), granularity.to_string().to_value()),
        ("fecs".to_owned(), stats.fecs.to_value()),
        ("classes".to_owned(), stats.classes.to_value()),
        ("cache_hits".to_owned(), stats.dedup_hits.to_value()),
        ("cache_hit_rate".to_owned(), stats.hit_rate().to_value()),
        ("violations".to_owned(), report.violations.len().to_value()),
        (
            "max_class_s".to_owned(),
            stats.max_class_time.as_secs_f64().to_value(),
        ),
        ("phases_s".to_owned(), phases.to_cache_value()),
    ]
}

fn run_scenario(s: &Scenario, threads: usize, smoke: bool) -> Value {
    eprintln!(
        "[{}] building testbed ({} regions, {} routers/group, {} links, {} FECs/pair)...",
        s.name,
        s.params.regions,
        s.params.routers_per_group,
        s.params.parallel_links,
        s.params.fecs_per_pair,
    );
    let tb = build_testbed(&s.params);
    let source = spec_of_size(s.spec_atomics, s.params.regions);

    let (wall, report) = check(&tb, &source, s.granularity, true, threads);
    // the no-dedup baseline re-decides every FEC from scratch — the
    // expensive half of the measurement, skipped in --smoke (CI) runs
    let baseline = if smoke {
        None
    } else {
        let (wall_nodedup, report_nodedup) = check(&tb, &source, s.granularity, false, threads);
        Some((wall_nodedup, reports_agree(&report, &report_nodedup)))
    };
    let stats = report.stats;
    // (no-dedup wall, speedup, verdicts agree) — computed once, read by
    // both the progress line and the serialized scenario fields
    let measured = baseline.map(|(wall_nodedup, verdicts_match)| {
        let speedup = wall_nodedup.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON);
        (wall_nodedup, speedup, verdicts_match)
    });
    match measured {
        Some((wall_nodedup, speedup, verdicts_match)) => {
            eprintln!(
                "[{}] {} FECs → {} classes ({:.1}% hits) | dedup {} vs no-dedup {} ({speedup:.1}×) | verdicts {}",
                s.name,
                stats.fecs,
                stats.classes,
                100.0 * stats.hit_rate(),
                secs(wall),
                secs(wall_nodedup),
                if verdicts_match { "identical" } else { "DIVERGED" },
            );
            assert!(
                verdicts_match,
                "[{}] dedup changed the verdict — the engine is unsound",
                s.name
            );
        }
        None => eprintln!(
            "[{}] {} FECs → {} classes ({:.1}% hits) | dedup {} | no-dedup baseline skipped (smoke)",
            s.name,
            stats.fecs,
            stats.classes,
            100.0 * stats.hit_rate(),
            secs(wall),
        ),
    }

    let mut fields = base_fields(
        s.name,
        "dedup",
        &s.params,
        s.spec_atomics,
        s.granularity,
        &report,
    );
    fields.push(("wall_s".to_owned(), wall.as_secs_f64().to_value()));
    match measured {
        Some((wall_nodedup, speedup, verdicts_match)) => {
            fields.push((
                "wall_nodedup_s".to_owned(),
                wall_nodedup.as_secs_f64().to_value(),
            ));
            fields.push(("speedup".to_owned(), speedup.to_value()));
            fields.push(("verdicts_match".to_owned(), Value::Bool(verdicts_match)));
        }
        None => {
            fields.push(("wall_nodedup_s".to_owned(), Value::Null));
            fields.push(("speedup".to_owned(), Value::Null));
            fields.push(("verdicts_match".to_owned(), Value::Null));
        }
    }
    // rss_ratio is measured only by the ingest kinds; every scenario
    // carries the key so consumers need no kind-specific schema
    fields.push(("rss_ratio".to_owned(), Value::Null));
    Value::Obj(fields)
}

/// The §8.1 loop: K near-identical post-change snapshots validated in
/// sequence, each "run" opening the persistent store, checking, and
/// persisting — exactly what `rela check --cache-dir` does per ticket
/// iteration. Every warm verdict is cross-checked against a cache-free
/// decision of the same pair.
fn run_iterative(threads: usize, smoke: bool) -> Value {
    let (name, params, spec_atomics, iterations) = if smoke {
        (
            "iterative-smoke",
            WanParams {
                regions: 3,
                routers_per_group: 1,
                parallel_links: 1,
                fecs_per_pair: 2,
            },
            4,
            3usize,
        )
    } else {
        // interface granularity over heavily-trunked cores: deciding a
        // class is expensive (the §6.1 path explosion), hashing a FEC is
        // not — the regime where persistent warm hits pay the most
        (
            "iterative-change",
            WanParams {
                regions: 5,
                routers_per_group: 3,
                parallel_links: 8,
                fecs_per_pair: 4,
            },
            1,
            4usize,
        )
    };
    let granularity = if smoke {
        Granularity::Group
    } else {
        Granularity::Interface
    };
    eprintln!(
        "[{name}] building {} iteration snapshots ({} regions, {} FECs/pair)...",
        iterations, params.regions, params.fecs_per_pair,
    );
    let wan = synthetic_wan(&params);
    let (pre, unconverged) = simulate(&wan.topology, &wan.config, &wan.traffic);
    assert!(unconverged.is_empty(), "base WAN must converge");
    let pairs: Vec<SnapshotPair> = iteration_changes(&params, iterations)
        .iter()
        .map(|changes| {
            let cfg = configured(&wan.config, &wan.topology, changes);
            let (post, unconverged) = simulate(&wan.topology, &cfg, &wan.traffic);
            assert!(unconverged.is_empty(), "changed WAN must converge");
            SnapshotPair::align(&pre, &post)
        })
        .collect();

    let source = spec_of_size(spec_atomics, params.regions);
    let cache_dir = std::env::temp_dir().join(format!("rela-perf-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();

    // the resident-service model (`rela serve`): one warm session holds
    // the compiled spec, the open store, and the FST memo across every
    // iteration — iteration N+1 pays only for classes whose behavior
    // moved
    let mut session = CheckSession::open(
        &source,
        wan.topology.db.clone(),
        SessionConfig {
            granularity,
            threads,
            ..SessionConfig::default()
        },
    )
    .expect("spec compiles");
    let store = VerdictStore::open(&cache_dir, session.epoch()).expect("cache dir is writable");
    session.attach_store(store);
    let mut verdicts_match = true;
    let mut walls: Vec<Duration> = Vec::new();
    let mut last_report = None;
    let mut last_warm = 0;
    for (ix, pair) in pairs.iter().enumerate() {
        let t0 = Instant::now();
        let report = session.run(JobSpec::pair(pair)).expect("in-memory pair");
        session.persist_if_dirty().expect("cache persists");
        let wall = t0.elapsed();
        walls.push(wall);

        // correctness: a cache-free decision of the same pair agrees
        let fresh = session
            .run(JobSpec::pair(pair).with_options(JobOptions {
                use_cache: false,
                ..JobOptions::default()
            }))
            .expect("in-memory pair");
        verdicts_match &= reports_agree(&report, &fresh);
        eprintln!(
            "[{name}] iteration {}: {} in {} ({} of {} classes warm)",
            ix + 1,
            if ix == 0 { "cold" } else { "warm" },
            secs(wall),
            report.stats.warm_hits,
            report.stats.classes,
        );
        if ix == 0 {
            assert_eq!(report.stats.warm_hits, 0, "first iteration must be cold");
        } else {
            assert!(
                report.stats.warm_hits > 0,
                "[{name}] iteration {} found no warm classes — the store is not replaying",
                ix + 1
            );
        }
        last_warm = report.stats.warm_hits;
        last_report = Some(report);
    }
    std::fs::remove_dir_all(&cache_dir).ok();
    assert!(verdicts_match, "[{name}] cached replay changed a verdict");

    let wall_cold = walls[0];
    let warm_runs = &walls[1..];
    let wall_warm = warm_runs.iter().sum::<Duration>() / warm_runs.len() as u32;
    let speedup = wall_cold.as_secs_f64() / wall_warm.as_secs_f64().max(f64::EPSILON);
    eprintln!(
        "[{name}] cold {} vs warm {} ({speedup:.1}×) | verdicts identical",
        secs(wall_cold),
        secs(wall_warm),
    );

    let report = last_report.expect("at least one iteration");
    let mut fields = base_fields(
        name,
        "iterative",
        &params,
        spec_atomics,
        granularity,
        &report,
    );
    fields.push(("iterations".to_owned(), iterations.to_value()));
    fields.push(("warm_hits".to_owned(), last_warm.to_value()));
    fields.push(("wall_cold_s".to_owned(), wall_cold.as_secs_f64().to_value()));
    fields.push(("wall_warm_s".to_owned(), wall_warm.as_secs_f64().to_value()));
    // wall_s mirrors wall_warm_s so kind-agnostic consumers see the
    // steady-state cost; no-dedup does not apply to this kind
    fields.push(("wall_s".to_owned(), wall_warm.as_secs_f64().to_value()));
    fields.push(("wall_nodedup_s".to_owned(), Value::Null));
    fields.push(("speedup".to_owned(), speedup.to_value()));
    fields.push(("verdicts_match".to_owned(), Value::Bool(verdicts_match)));
    fields.push(("rss_ratio".to_owned(), Value::Null));
    Value::Obj(fields)
}

// ---- cold-ingest: pipelined vs. materialized snapshot loading ---------

/// Peak resident set of this process (`VmHWM`), in KiB. Linux-only;
/// `None` elsewhere (the scenario then records null RSS fields).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A fingerprint of everything verdict-relevant in a report (its
/// rendering minus the timing lines): lets two ingest-worker processes
/// prove they produced byte-identical reports without shipping them.
fn report_fingerprint(report: &CheckReport) -> String {
    let normalized = report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n");
    format!("{:032x}", content_hash128(normalized.as_bytes()))
}

/// Child-process entry point (`perf --ingest-worker MODE PRE POST
/// REGIONS RPG LINKS FPP ATOMICS THREADS`): run one cold ingest+check in
/// a fresh address space — so `VmHWM` measures exactly this load path,
/// unpolluted by the allocator retention of whatever ran before — and
/// print a one-line JSON result.
fn ingest_worker(args: &[String]) -> ! {
    let mode = args[0].as_str();
    let (pre_path, post_path) = (&args[1], &args[2]);
    let params = WanParams {
        regions: args[3].parse().expect("regions"),
        routers_per_group: args[4].parse().expect("routers_per_group"),
        parallel_links: args[5].parse().expect("parallel_links"),
        fecs_per_pair: args[6].parse().expect("fecs_per_pair"),
    };
    let spec_atomics: usize = args[7].parse().expect("spec_atomics");
    let threads: usize = args[8].parse().expect("threads");

    // rebuild the deterministic WAN for its location db + spec
    let wan = synthetic_wan(&params);
    let spec = spec_of_size(spec_atomics, params.regions);
    let session = open(&spec, &wan.topology.db, Granularity::Group, threads);

    let t0 = Instant::now();
    let report = match mode {
        "materialized" => {
            let load = |path: &str| -> Snapshot {
                let text = std::fs::read_to_string(path).expect("snapshot file");
                Snapshot::from_json(&text).expect("snapshot parses")
            };
            let pair = SnapshotPair::align(&load(pre_path), &load(post_path));
            session.run(JobSpec::pair(&pair)).expect("in-memory pair")
        }
        "pipelined" => {
            let source = |path: &str| {
                LabeledSource::new(std::fs::File::open(path).expect("snapshot file"), path)
            };
            session
                .run(JobSpec::streams(source(pre_path), source(post_path)))
                .expect("snapshot pipelines")
        }
        "mmap" => {
            let source = |path: &str| {
                LabeledSource::mapped(MmapSource::open(path).expect("snapshot map"), path)
            };
            session
                .run(JobSpec::streams(source(pre_path), source(post_path)))
                .expect("snapshot maps")
        }
        other => panic!("unknown ingest mode `{other}`"),
    };
    let wall = t0.elapsed();

    let stats = report.stats;
    let doc = Value::obj(vec![
        ("wall_s", wall.as_secs_f64().to_value()),
        (
            "peak_rss_kb",
            match peak_rss_kb() {
                Some(kb) => kb.to_value(),
                None => Value::Null,
            },
        ),
        ("fecs", stats.fecs.to_value()),
        ("classes", stats.classes.to_value()),
        ("cache_hits", stats.dedup_hits.to_value()),
        ("cache_hit_rate", stats.hit_rate().to_value()),
        ("violations", report.violations.len().to_value()),
        ("report_hash", report_fingerprint(&report).to_value()),
    ]);
    println!("{}", serde_json::to_string(&doc).expect("serializes"));
    std::process::exit(0)
}

/// Write one snapshot file record-by-record (never holding the
/// snapshot), returning its byte size.
fn write_snapshot_file(
    path: &Path,
    topo: &rela_sim::Topology,
    cfg: &rela_sim::NetworkConfig,
    traffic: &rela_sim::TrafficMatrix,
) -> u64 {
    let file = std::fs::File::create(path).expect("snapshot file");
    let mut writer = SnapshotWriter::new(BufWriter::new(file)).expect("snapshot header");
    let unconverged = simulate_each(topo, cfg, traffic, |flow, graph| {
        writer.write(&flow, &graph).expect("snapshot record");
    });
    assert!(unconverged.is_empty(), "ingest WAN must converge");
    writer.finish().expect("snapshot trailer");
    std::fs::metadata(path).expect("written file").len()
}

/// Spawn this binary as an ingest worker and parse its JSON result.
fn ingest_child(mode: &str, pre: &Path, post: &Path, params: &WanParams, threads: usize) -> Value {
    let exe = std::env::current_exe().expect("own binary path");
    let out = std::process::Command::new(exe)
        .arg("--ingest-worker")
        .arg(mode)
        .arg(pre)
        .arg(post)
        .args(
            [
                params.regions,
                params.routers_per_group,
                params.parallel_links,
                params.fecs_per_pair as usize,
                INGEST_SPEC_ATOMICS,
                threads,
            ]
            .map(|n| n.to_string()),
        )
        .output()
        .expect("spawn ingest worker");
    assert!(
        out.status.success(),
        "ingest worker ({mode}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("worker output is utf-8");
    let line = stdout.lines().last().expect("worker printed a result");
    serde_json::from_str(line).expect("worker result parses")
}

/// The cold-ingest spec size (3·1 + 1 atomics, same family as fig6).
const INGEST_SPEC_ATOMICS: usize = 4;

/// The **ingest** scenario kind: how fast — and in how much memory — a
/// cold validation gets from snapshot files on disk to a verdict, with
/// the pipelined path (a streams job) measured against the materialized
/// one (`from_json` → `align` → a pair job). Each
/// path runs in a fresh child process so `VmHWM` isolates its true peak;
/// both must produce a byte-identical report (asserted via a verdict
/// fingerprint). The scenario's `speedup` field records the peak-RSS
/// reduction (materialized ÷ pipelined).
fn run_ingest(name: &str, params: &WanParams, threads: usize) -> Value {
    eprintln!(
        "[{name}] generating snapshot files ({} regions, {} FECs/pair)...",
        params.regions, params.fecs_per_pair,
    );
    let wan = synthetic_wan(params);
    let dir = std::env::temp_dir().join(format!("rela-perf-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pre_path = dir.join("pre.json");
    let post_path = dir.join("post.json");
    let t0 = Instant::now();
    let pre_bytes = write_snapshot_file(&pre_path, &wan.topology, &wan.config, &wan.traffic);
    let post_cfg = configured(&wan.config, &wan.topology, &wan.representative_change);
    let post_bytes = write_snapshot_file(&post_path, &wan.topology, &post_cfg, &wan.traffic);
    let gen = t0.elapsed();
    eprintln!(
        "[{name}] wrote {:.1} MiB in {} (record-by-record)",
        (pre_bytes + post_bytes) as f64 / (1024.0 * 1024.0),
        secs(gen),
    );

    let pipelined = ingest_child("pipelined", &pre_path, &post_path, params, threads);
    let materialized = ingest_child("materialized", &pre_path, &post_path, params, threads);
    std::fs::remove_dir_all(&dir).ok();

    let f = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let verdicts_match = pipelined.get("report_hash") == materialized.get("report_hash")
        && pipelined.get("report_hash").is_some();
    assert!(
        verdicts_match,
        "[{name}] pipelined and materialized reports diverged — the pipeline is unsound"
    );
    let rss_piped = f(&pipelined, "peak_rss_kb");
    let rss_mat = f(&materialized, "peak_rss_kb");
    let reduction = match (rss_mat, rss_piped) {
        (Some(m), Some(s)) if s > 0.0 => Some(m / s),
        _ => None,
    };
    eprintln!(
        "[{name}] {} FECs | pipelined {} / {} KiB vs materialized {} / {} KiB | peak-RSS reduction {}",
        pipelined.get("fecs").and_then(Value::as_u64).unwrap_or(0),
        secs(Duration::from_secs_f64(
            f(&pipelined, "wall_s").unwrap_or(0.0)
        )),
        rss_piped.map_or_else(|| "?".into(), |v| format!("{v:.0}")),
        secs(Duration::from_secs_f64(
            f(&materialized, "wall_s").unwrap_or(0.0)
        )),
        rss_mat.map_or_else(|| "?".into(), |v| format!("{v:.0}")),
        reduction.map_or_else(|| "?".into(), |v| format!("{v:.2}×")),
    );

    let copy = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
    let mut fields = vec![
        ("name".to_owned(), name.to_value()),
        ("kind".to_owned(), "ingest".to_value()),
        ("regions".to_owned(), params.regions.to_value()),
        (
            "routers_per_group".to_owned(),
            params.routers_per_group.to_value(),
        ),
        (
            "parallel_links".to_owned(),
            params.parallel_links.to_value(),
        ),
        (
            "fecs_per_pair".to_owned(),
            (params.fecs_per_pair as usize).to_value(),
        ),
        ("spec_atomics".to_owned(), INGEST_SPEC_ATOMICS.to_value()),
        ("granularity".to_owned(), "group".to_value()),
        (
            "snapshot_bytes".to_owned(),
            (pre_bytes + post_bytes).to_value(),
        ),
        ("gen_s".to_owned(), gen.as_secs_f64().to_value()),
    ];
    for key in [
        "fecs",
        "classes",
        "cache_hits",
        "cache_hit_rate",
        "violations",
    ] {
        fields.push((key.to_owned(), copy(&pipelined, key)));
    }
    fields.push(("wall_s".to_owned(), copy(&pipelined, "wall_s")));
    fields.push((
        "wall_materialized_s".to_owned(),
        copy(&materialized, "wall_s"),
    ));
    fields.push((
        "peak_rss_pipelined_kb".to_owned(),
        copy(&pipelined, "peak_rss_kb"),
    ));
    fields.push((
        "peak_rss_materialized_kb".to_owned(),
        copy(&materialized, "peak_rss_kb"),
    ));
    // kind-agnostic consumers (the gate) read the RSS reduction as the
    // scenario's "speedup": what not materializing the pair buys
    fields.push((
        "speedup".to_owned(),
        match reduction {
            Some(r) => r.to_value(),
            None => Value::Null,
        },
    ));
    // same orientation as the other ingest kinds: measured path ÷
    // baseline (pipelined ÷ materialized — the reciprocal of `speedup`)
    fields.push((
        "rss_ratio".to_owned(),
        match (rss_piped, rss_mat) {
            (Some(s), Some(m)) if m > 0.0 => (s / m).to_value(),
            _ => Value::Null,
        },
    ));
    fields.push(("wall_nodedup_s".to_owned(), Value::Null));
    fields.push(("verdicts_match".to_owned(), Value::Bool(verdicts_match)));
    Value::Obj(fields)
}

/// The **delta-ingest** scenario kind: the §8.1 loop delta-first. A
/// resident session ([`SessionConfig::retain_bases`] plus an in-memory
/// verdict store) ingests the seed pair cold, advances one iteration in
/// full (so the retained base is one small change behind), then
/// receives the next iteration twice: once as the delta documents
/// `rela-sim` now emits natively ([`iteration_deltas`]) and once as a
/// full warm resubmission of the very same pair — the prior baseline,
/// where every verdict is warm but every byte is still re-framed and
/// re-hashed. Reports must be byte-identical (verdict fingerprint), the
/// delta run may decode at most two graphs per changed record — the
/// work-proportionality bound, and one the baseline's speed cannot move
/// (CI's `serve-smoke` asserts the same) — and `speedup` records
/// full-warm wall ÷ delta wall.
fn run_delta_ingest(name: &str, params: &WanParams, threads: usize) -> Value {
    eprintln!(
        "[{name}] building delta iterations ({} regions, {} FECs/pair)...",
        params.regions, params.fecs_per_pair,
    );
    let wan = synthetic_wan(params);
    let di = iteration_deltas(&wan, params, 3);
    let pre_json = di.pre.to_json().expect("snapshot serializes");
    let posts: Vec<String> = di
        .posts
        .iter()
        .map(|p| p.to_json().expect("snapshot serializes"))
        .collect();

    let source = spec_of_size(INGEST_SPEC_ATOMICS, params.regions);
    let mut session = CheckSession::open(
        &source,
        wan.topology.db.clone(),
        SessionConfig {
            granularity: Granularity::Group,
            threads,
            retain_bases: 1,
            ..SessionConfig::default()
        },
    )
    .expect("spec compiles");
    session.attach_store(VerdictStore::in_memory(session.epoch()));
    let full = |session: &CheckSession, post: &str, label: &str| {
        let t0 = Instant::now();
        let report = session
            .run(JobSpec::streams(
                LabeledSource::new(pre_json.as_bytes(), "pre"),
                LabeledSource::new(post.as_bytes(), label.to_owned()),
            ))
            .expect("snapshot streams");
        (t0.elapsed(), report)
    };
    let (wall_cold, _) = full(&session, &posts[0], "post-0");
    assert_eq!(
        session.base_epoch(),
        Some(di.seed_epoch),
        "[{name}] the session's retained epoch must match the emitter's"
    );
    // advance the base to iteration 1 so the measured delta carries
    // exactly one iteration's change
    full(&session, &posts[1], "post-1");
    let delta = &di.deltas[1];
    let t0 = Instant::now();
    let delta_report = session
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
        .expect("delta job");
    let wall_delta = t0.elapsed();
    assert!(
        delta_report.stats.graph_decodes <= 2 * delta.changed,
        "[{name}] delta decoded {} graphs for {} changed records",
        delta_report.stats.graph_decodes,
        delta.changed,
    );
    // the baseline: the same iteration-2 pair resubmitted in full with
    // every verdict already warm — re-framing and re-hashing the whole
    // snapshot is all that's left, which is exactly what a delta avoids
    let (wall_full, full_report) = full(&session, &posts[2], "post-2");
    let verdicts_match = report_fingerprint(&delta_report) == report_fingerprint(&full_report);
    assert!(
        verdicts_match,
        "[{name}] delta and full reports diverged — the delta path is unsound"
    );
    let speedup = wall_full.as_secs_f64() / wall_delta.as_secs_f64().max(f64::EPSILON);
    eprintln!(
        "[{name}] {} FECs, {} changed | delta {} ({} decodes) vs full-warm {} ({speedup:.1}×) | cold {} | verdicts identical",
        delta_report.stats.fecs,
        delta.changed,
        secs(wall_delta),
        delta_report.stats.graph_decodes,
        secs(wall_full),
        secs(wall_cold),
    );

    let mut fields = base_fields(
        name,
        "delta-ingest",
        params,
        INGEST_SPEC_ATOMICS,
        Granularity::Group,
        &delta_report,
    );
    fields.push(("changed_records".to_owned(), delta.changed.to_value()));
    fields.push((
        "graph_decodes".to_owned(),
        delta_report.stats.graph_decodes.to_value(),
    ));
    fields.push(("wall_s".to_owned(), wall_delta.as_secs_f64().to_value()));
    fields.push((
        "wall_full_warm_s".to_owned(),
        wall_full.as_secs_f64().to_value(),
    ));
    fields.push(("wall_cold_s".to_owned(), wall_cold.as_secs_f64().to_value()));
    fields.push(("wall_nodedup_s".to_owned(), Value::Null));
    fields.push(("speedup".to_owned(), speedup.to_value()));
    fields.push(("verdicts_match".to_owned(), Value::Bool(verdicts_match)));
    // in-process measurement — no per-path child, so no RSS isolation
    fields.push(("rss_ratio".to_owned(), Value::Null));
    Value::Obj(fields)
}

/// The delta-ingest scales: the 12k-FEC dedup-sweep scale point (the
/// acceptance scale for work-proportional re-ingest) or a tiny smoke
/// scale.
fn delta_scales(smoke: bool) -> Vec<(&'static str, WanParams)> {
    if smoke {
        return vec![(
            "delta-ingest-smoke",
            WanParams {
                regions: 3,
                routers_per_group: 1,
                parallel_links: 1,
                fecs_per_pair: 32,
            },
        )];
    }
    vec![(
        "delta-ingest-12k",
        WanParams {
            regions: 4,
            routers_per_group: 2,
            parallel_links: 2,
            fecs_per_pair: 1024,
        },
    )]
}

/// Pack a JSON snapshot file into the binary container byte-exactly
/// (raw span moves, never a graph decode), returning the output size.
fn pack_binary(src: &Path, dst: &Path) -> u64 {
    let label = src.display().to_string();
    let input = std::fs::File::open(src).expect("snapshot file");
    let mut framer = SnapshotFramer::new(std::io::BufReader::new(input), label.clone());
    let out = std::fs::File::create(dst).expect("binary snapshot file");
    let mut writer = BinarySnapshotWriter::new(BufWriter::new(out)).expect("binary header");
    for raw in &mut framer {
        let raw = raw.expect("snapshot frames");
        let (flow, graph) = raw.split_spans(Some(&label)).expect("canonical records");
        writer
            .write_raw(flow.as_slice(), graph.as_slice())
            .expect("binary record");
    }
    writer.finish().expect("binary trailer");
    std::fs::metadata(dst).expect("written file").len()
}

/// The **binary-ingest** scenario kind: the same cold pipelined
/// validation fed the length-prefixed binary container
/// (`docs/SNAPSHOT_FORMAT.md`) instead of JSON. The JSON files are
/// packed with raw span moves (`rela snapshot pack` semantics), both
/// containers run through the pipelined ingest in fresh child
/// processes, and the reports must be byte-identical — the container is
/// a transport encoding, never a semantic one. `speedup` is JSON wall ÷
/// binary wall (length-prefixed framing skips the per-byte JSON
/// scanner) and `rss_ratio` is binary ÷ JSON peak RSS.
fn run_binary_ingest(name: &str, params: &WanParams, threads: usize) -> Value {
    eprintln!(
        "[{name}] generating snapshot files ({} regions, {} FECs/pair)...",
        params.regions, params.fecs_per_pair,
    );
    let wan = synthetic_wan(params);
    let dir = std::env::temp_dir().join(format!("rela-perf-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pre_json = dir.join("pre.json");
    let post_json = dir.join("post.json");
    let t0 = Instant::now();
    let json_bytes = write_snapshot_file(&pre_json, &wan.topology, &wan.config, &wan.traffic) + {
        let post_cfg = configured(&wan.config, &wan.topology, &wan.representative_change);
        write_snapshot_file(&post_json, &wan.topology, &post_cfg, &wan.traffic)
    };
    let gen = t0.elapsed();
    let pre_rsnb = dir.join("pre.rsnb");
    let post_rsnb = dir.join("post.rsnb");
    let t0 = Instant::now();
    let binary_bytes = pack_binary(&pre_json, &pre_rsnb) + pack_binary(&post_json, &post_rsnb);
    let pack = t0.elapsed();
    eprintln!(
        "[{name}] packed {:.1} MiB of JSON into {:.1} MiB of binary in {}",
        json_bytes as f64 / (1024.0 * 1024.0),
        binary_bytes as f64 / (1024.0 * 1024.0),
        secs(pack),
    );

    let json_run = ingest_child("pipelined", &pre_json, &post_json, params, threads);
    let binary_run = ingest_child("pipelined", &pre_rsnb, &post_rsnb, params, threads);
    std::fs::remove_dir_all(&dir).ok();

    let f = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let verdicts_match = binary_run.get("report_hash") == json_run.get("report_hash")
        && binary_run.get("report_hash").is_some();
    assert!(
        verdicts_match,
        "[{name}] binary and JSON ingest reports diverged — the container changed a verdict"
    );
    let wall_json = f(&json_run, "wall_s").unwrap_or(0.0);
    let wall_binary = f(&binary_run, "wall_s").unwrap_or(0.0);
    let speedup = if wall_binary > 0.0 {
        Some(wall_json / wall_binary)
    } else {
        None
    };
    let rss_ratio = match (f(&binary_run, "peak_rss_kb"), f(&json_run, "peak_rss_kb")) {
        (Some(b), Some(j)) if j > 0.0 => Some(b / j),
        _ => None,
    };
    eprintln!(
        "[{name}] {} FECs | binary {} vs JSON {} ({}) | RSS ratio {}",
        binary_run.get("fecs").and_then(Value::as_u64).unwrap_or(0),
        secs(Duration::from_secs_f64(wall_binary)),
        secs(Duration::from_secs_f64(wall_json)),
        speedup.map_or_else(|| "?".into(), |v| format!("{v:.2}×")),
        rss_ratio.map_or_else(|| "?".into(), |v| format!("{v:.2}×")),
    );

    let copy = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
    let mut fields = vec![
        ("name".to_owned(), name.to_value()),
        ("kind".to_owned(), "binary-ingest".to_value()),
        ("regions".to_owned(), params.regions.to_value()),
        (
            "routers_per_group".to_owned(),
            params.routers_per_group.to_value(),
        ),
        (
            "parallel_links".to_owned(),
            params.parallel_links.to_value(),
        ),
        (
            "fecs_per_pair".to_owned(),
            (params.fecs_per_pair as usize).to_value(),
        ),
        ("spec_atomics".to_owned(), INGEST_SPEC_ATOMICS.to_value()),
        ("granularity".to_owned(), "group".to_value()),
        ("snapshot_bytes".to_owned(), json_bytes.to_value()),
        ("binary_bytes".to_owned(), binary_bytes.to_value()),
        ("gen_s".to_owned(), gen.as_secs_f64().to_value()),
        ("pack_s".to_owned(), pack.as_secs_f64().to_value()),
    ];
    for key in [
        "fecs",
        "classes",
        "cache_hits",
        "cache_hit_rate",
        "violations",
    ] {
        fields.push((key.to_owned(), copy(&binary_run, key)));
    }
    fields.push(("wall_s".to_owned(), copy(&binary_run, "wall_s")));
    fields.push(("wall_json_s".to_owned(), copy(&json_run, "wall_s")));
    fields.push((
        "peak_rss_binary_kb".to_owned(),
        copy(&binary_run, "peak_rss_kb"),
    ));
    fields.push((
        "peak_rss_json_kb".to_owned(),
        copy(&json_run, "peak_rss_kb"),
    ));
    fields.push((
        "rss_ratio".to_owned(),
        match rss_ratio {
            Some(r) => r.to_value(),
            None => Value::Null,
        },
    ));
    fields.push((
        "speedup".to_owned(),
        match speedup {
            Some(r) => r.to_value(),
            None => Value::Null,
        },
    ));
    fields.push(("wall_nodedup_s".to_owned(), Value::Null));
    fields.push(("verdicts_match".to_owned(), Value::Bool(verdicts_match)));
    Value::Obj(fields)
}

/// The binary-ingest scales: the 100k+ headline scale (the acceptance
/// point is its cold wall against the committed JSON `cold-ingest-100k`
/// trajectory), or a tiny smoke scale.
fn binary_scales(smoke: bool) -> Vec<(&'static str, WanParams)> {
    if smoke {
        return vec![(
            "binary-ingest-smoke",
            WanParams {
                regions: 3,
                routers_per_group: 1,
                parallel_links: 1,
                fecs_per_pair: 32,
            },
        )];
    }
    vec![(
        "binary-ingest-102k",
        WanParams {
            regions: 5,
            routers_per_group: 2,
            parallel_links: 2,
            fecs_per_pair: 5120,
        },
    )]
}

/// The **mmap-ingest** scenario kind: the same binary containers,
/// framed zero-copy out of a memory mapping
/// (`SnapshotFramer::from_map`) vs. buffered `BufReader` framing of the
/// identical files. Both runs are fresh child processes over the same
/// on-disk `.rsnb` pair, so wall and `VmHWM` isolate exactly the
/// framing strategy; the reports must be fingerprint-identical (the
/// mapping is an ingest transport, never a semantic change). `speedup`
/// is buffered ÷ mapped wall and `rss_ratio` mapped ÷ buffered peak
/// RSS — record spans borrowing the page cache should never cost more
/// memory than copying them through a reader.
fn run_mmap_ingest(name: &str, params: &WanParams, threads: usize) -> Value {
    eprintln!(
        "[{name}] generating snapshot files ({} regions, {} FECs/pair)...",
        params.regions, params.fecs_per_pair,
    );
    let wan = synthetic_wan(params);
    let dir = std::env::temp_dir().join(format!("rela-perf-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pre_json = dir.join("pre.json");
    let post_json = dir.join("post.json");
    let json_bytes = write_snapshot_file(&pre_json, &wan.topology, &wan.config, &wan.traffic) + {
        let post_cfg = configured(&wan.config, &wan.topology, &wan.representative_change);
        write_snapshot_file(&post_json, &wan.topology, &post_cfg, &wan.traffic)
    };
    let pre_rsnb = dir.join("pre.rsnb");
    let post_rsnb = dir.join("post.rsnb");
    let binary_bytes = pack_binary(&pre_json, &pre_rsnb) + pack_binary(&post_json, &post_rsnb);
    eprintln!(
        "[{name}] packed {:.1} MiB of JSON into {:.1} MiB of binary",
        json_bytes as f64 / (1024.0 * 1024.0),
        binary_bytes as f64 / (1024.0 * 1024.0),
    );

    let buffered_run = ingest_child("pipelined", &pre_rsnb, &post_rsnb, params, threads);
    let mapped_run = ingest_child("mmap", &pre_rsnb, &post_rsnb, params, threads);
    std::fs::remove_dir_all(&dir).ok();

    let f = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let verdicts_match = mapped_run.get("report_hash") == buffered_run.get("report_hash")
        && mapped_run.get("report_hash").is_some();
    assert!(
        verdicts_match,
        "[{name}] mapped and buffered ingest reports diverged — the mapping changed a verdict"
    );
    let wall_buffered = f(&buffered_run, "wall_s").unwrap_or(0.0);
    let wall_mapped = f(&mapped_run, "wall_s").unwrap_or(0.0);
    let speedup = if wall_mapped > 0.0 {
        Some(wall_buffered / wall_mapped)
    } else {
        None
    };
    let rss_ratio = match (
        f(&mapped_run, "peak_rss_kb"),
        f(&buffered_run, "peak_rss_kb"),
    ) {
        (Some(m), Some(b)) if b > 0.0 => Some(m / b),
        _ => None,
    };
    eprintln!(
        "[{name}] {} FECs | mapped {} vs buffered {} ({}) | RSS ratio {}",
        mapped_run.get("fecs").and_then(Value::as_u64).unwrap_or(0),
        secs(Duration::from_secs_f64(wall_mapped)),
        secs(Duration::from_secs_f64(wall_buffered)),
        speedup.map_or_else(|| "?".into(), |v| format!("{v:.2}×")),
        rss_ratio.map_or_else(|| "?".into(), |v| format!("{v:.2}×")),
    );

    let copy = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
    let mut fields = vec![
        ("name".to_owned(), name.to_value()),
        ("kind".to_owned(), "mmap-ingest".to_value()),
        ("regions".to_owned(), params.regions.to_value()),
        (
            "routers_per_group".to_owned(),
            params.routers_per_group.to_value(),
        ),
        (
            "parallel_links".to_owned(),
            params.parallel_links.to_value(),
        ),
        (
            "fecs_per_pair".to_owned(),
            (params.fecs_per_pair as usize).to_value(),
        ),
        ("spec_atomics".to_owned(), INGEST_SPEC_ATOMICS.to_value()),
        ("granularity".to_owned(), "group".to_value()),
        ("snapshot_bytes".to_owned(), json_bytes.to_value()),
        ("binary_bytes".to_owned(), binary_bytes.to_value()),
    ];
    for key in [
        "fecs",
        "classes",
        "cache_hits",
        "cache_hit_rate",
        "violations",
    ] {
        fields.push((key.to_owned(), copy(&mapped_run, key)));
    }
    fields.push(("wall_s".to_owned(), copy(&mapped_run, "wall_s")));
    fields.push(("wall_binary_s".to_owned(), copy(&buffered_run, "wall_s")));
    fields.push((
        "peak_rss_mmap_kb".to_owned(),
        copy(&mapped_run, "peak_rss_kb"),
    ));
    fields.push((
        "peak_rss_binary_kb".to_owned(),
        copy(&buffered_run, "peak_rss_kb"),
    ));
    fields.push((
        "rss_ratio".to_owned(),
        match rss_ratio {
            Some(r) => r.to_value(),
            None => Value::Null,
        },
    ));
    fields.push((
        "speedup".to_owned(),
        match speedup {
            Some(r) => r.to_value(),
            None => Value::Null,
        },
    ));
    fields.push(("wall_nodedup_s".to_owned(), Value::Null));
    fields.push(("verdicts_match".to_owned(), Value::Bool(verdicts_match)));
    Value::Obj(fields)
}

/// The mmap-ingest scales: the same 100k+ headline point as
/// binary-ingest (the acceptance criterion compares the two directly),
/// or a tiny smoke scale.
fn mmap_scales(smoke: bool) -> Vec<(&'static str, WanParams)> {
    if smoke {
        return vec![(
            "mmap-ingest-smoke",
            WanParams {
                regions: 3,
                routers_per_group: 1,
                parallel_links: 1,
                fecs_per_pair: 32,
            },
        )];
    }
    vec![(
        "mmap-ingest-102k",
        WanParams {
            regions: 5,
            routers_per_group: 2,
            parallel_links: 2,
            fecs_per_pair: 5120,
        },
    )]
}

/// Re-read the emitted file and assert the invariants CI relies on:
/// it parses, has scenarios, every scenario decided at least one class,
/// reports a hit rate, and no measured comparison diverged. `smoke`
/// runs may carry `null` baselines (skipped), never divergent ones.
/// The fixed seed the committed adversarial trajectory points use —
/// scenario names embed it, so changing it renames every scenario (the
/// gate treats them as new, not regressed).
const ADVERSARIAL_SEED: u64 = 1;

/// The **adversarial** scenario kind: one generated operational
/// scenario, its last iteration checked against the exact path diff as
/// an independent oracle. Both sides always run (the verdict
/// cross-check needs them), so `speedup` — path-diff ÷ checker wall —
/// is a real `Float` even in smoke mode.
fn run_adversarial(family: ScenarioFamily, threads: usize) -> Value {
    let sc = adversarial::generate(family, ADVERSARIAL_SEED);
    eprintln!(
        "[{}] generating ({} iterations, {} granularity): {}",
        sc.name,
        sc.iteration_count(),
        sc.granularity,
        sc.description,
    );
    let db = &sc.wan.topology.db;
    let post = sc
        .iterations
        .posts
        .last()
        .expect("scenarios have iterations");
    let pair = SnapshotPair::align(&sc.iterations.pre, post);
    let session = open(&sc.spec, db, sc.granularity, threads);
    let start = Instant::now();
    let report = session.run(JobSpec::pair(&pair)).expect("in-memory pair");
    let wall = start.elapsed();
    let start = Instant::now();
    let diff = rela_baseline::path_diff(
        &pair,
        db,
        rela_baseline::DiffOptions {
            granularity: sc.granularity,
            max_paths_listed: 1,
        },
    );
    let wall_pathdiff = start.elapsed();
    let want = rela_baseline::changed_flows(&diff);
    let got: rela_baseline::ChangedFlows =
        report.violations.iter().map(|v| v.flow.clone()).collect();
    let verdicts_match = want == got;
    let speedup = wall_pathdiff.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON);
    eprintln!(
        "[{}] {} FECs → {} classes ({:.1}% hits) | checker {} vs path-diff {} ({speedup:.1}×) | verdicts {}",
        sc.name,
        report.stats.fecs,
        report.stats.classes,
        100.0 * report.stats.hit_rate(),
        secs(wall),
        secs(wall_pathdiff),
        if verdicts_match { "agree" } else { "DISAGREE" },
    );
    assert!(
        verdicts_match,
        "[{}] checker disagrees with the path-diff oracle — run the differential fuzz \
         harness with RELA_FUZZ_SEEDS={ADVERSARIAL_SEED} for the repro bundle",
        sc.name
    );
    let mut fields = base_fields(
        &sc.name,
        "adversarial",
        &sc.params,
        1,
        sc.granularity,
        &report,
    );
    fields.push(("family".to_owned(), family.name().to_value()));
    fields.push(("seed".to_owned(), (ADVERSARIAL_SEED as usize).to_value()));
    fields.push(("iterations".to_owned(), sc.iteration_count().to_value()));
    fields.push(("description".to_owned(), sc.description.to_value()));
    fields.push(("wall_s".to_owned(), wall.as_secs_f64().to_value()));
    fields.push((
        "wall_pathdiff_s".to_owned(),
        wall_pathdiff.as_secs_f64().to_value(),
    ));
    fields.push(("speedup".to_owned(), speedup.to_value()));
    fields.push(("verdicts_match".to_owned(), Value::Bool(verdicts_match)));
    fields.push(("rss_ratio".to_owned(), Value::Null));
    Value::Obj(fields)
}

/// Which families the adversarial kind measures: a cheap two-family
/// sample in smoke mode, the whole registry otherwise.
fn adversarial_scales(smoke: bool) -> Vec<ScenarioFamily> {
    if smoke {
        vec![ScenarioFamily::LinkMaintenance, ScenarioFamily::ClassSkew]
    } else {
        ScenarioFamily::ALL.to_vec()
    }
}

fn validate(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("re-reading {path}: {e}"));
    let value: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    assert_eq!(
        value.get("schema").and_then(Value::as_str),
        Some("rela-perf/v1"),
        "{path}: bad schema tag"
    );
    let smoke = value.get("smoke").and_then(Value::as_bool) == Some(true);
    let scenarios = value
        .get("scenarios")
        .and_then(Value::as_arr)
        .expect("scenarios array");
    assert!(!scenarios.is_empty(), "{path}: no scenarios");
    for s in scenarios {
        let name = s.get("name").and_then(Value::as_str).expect("name");
        let classes = s.get("classes").and_then(Value::as_u64).expect("classes");
        assert!(classes > 0, "{name}: zero classes");
        let fecs = s.get("fecs").and_then(Value::as_u64).expect("fecs");
        let rate = s
            .get("cache_hit_rate")
            .and_then(Value::as_f64)
            .expect("cache_hit_rate");
        assert!((0.0..=1.0).contains(&rate), "{name}: bad hit rate {rate}");
        assert!(classes <= fecs, "{name}: more classes than FECs");
        assert!(
            s.get("cache_hits").and_then(Value::as_u64) == Some(fecs - classes),
            "{name}: inconsistent cache_hits"
        );
        match s.get("verdicts_match") {
            Some(Value::Bool(true)) => {}
            Some(Value::Null) if smoke => {} // baseline skipped in smoke
            other => panic!("{name}: verdicts_match is {other:?}"),
        }
        match s.get("speedup") {
            Some(Value::Float(f)) => assert!(*f > 0.0, "{name}: bad speedup {f}"),
            Some(Value::Null) if smoke => {}
            other => panic!("{name}: speedup is {other:?}"),
        }
        // every scenario carries rss_ratio: a positive measurement for
        // the child-process ingest kinds, null elsewhere
        match s.get("rss_ratio") {
            Some(Value::Float(f)) => assert!(*f > 0.0, "{name}: bad rss_ratio {f}"),
            Some(Value::Null) => {}
            other => panic!("{name}: rss_ratio is {other:?}"),
        }
        if s.get("kind").and_then(Value::as_str) == Some("delta-ingest") {
            let changed = s
                .get("changed_records")
                .and_then(Value::as_u64)
                .expect("changed_records");
            assert!(changed > 0, "{name}: a delta run must carry a real change");
            let decodes = s
                .get("graph_decodes")
                .and_then(Value::as_u64)
                .expect("graph_decodes");
            assert!(
                decodes <= 2 * changed,
                "{name}: {decodes} decodes for {changed} changed records"
            );
        }
        if s.get("kind").and_then(Value::as_str) == Some("iterative") {
            let warm = s
                .get("warm_hits")
                .and_then(Value::as_u64)
                .expect("warm_hits");
            assert!(warm > 0, "{name}: an iterative run must go warm");
        }
    }
    eprintln!("{path}: validated ({} scenarios)", scenarios.len());
}

/// The cold-ingest scales: ~12k FECs (the dedup-sweep scale point) and
/// 100k+ FECs (tracking the paper's 10⁶ headline), or one tiny scale in
/// smoke mode.
fn ingest_scales(smoke: bool) -> Vec<(&'static str, WanParams)> {
    if smoke {
        return vec![(
            "cold-ingest-smoke",
            WanParams {
                regions: 3,
                routers_per_group: 1,
                parallel_links: 1,
                fecs_per_pair: 32,
            },
        )];
    }
    vec![
        (
            "cold-ingest-12k",
            WanParams {
                regions: 4,
                routers_per_group: 2,
                parallel_links: 2,
                fecs_per_pair: 1024,
            },
        ),
        (
            "cold-ingest-100k",
            WanParams {
                regions: 5,
                routers_per_group: 2,
                parallel_links: 2,
                fecs_per_pair: 5120,
            },
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--ingest-worker") {
        ingest_worker(&args[1..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|ix| args.get(ix + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_check.json".to_owned());
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|ix| args.get(ix + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0usize);

    let mut results: Vec<Value> = scenarios(smoke)
        .iter()
        .map(|s| run_scenario(s, threads, smoke))
        .collect();
    results.push(run_iterative(threads, smoke));
    for (name, params) in ingest_scales(smoke) {
        results.push(run_ingest(name, &params, threads));
    }
    for (name, params) in delta_scales(smoke) {
        results.push(run_delta_ingest(name, &params, threads));
    }
    for (name, params) in binary_scales(smoke) {
        results.push(run_binary_ingest(name, &params, threads));
    }
    for (name, params) in mmap_scales(smoke) {
        results.push(run_mmap_ingest(name, &params, threads));
    }
    for family in adversarial_scales(smoke) {
        results.push(run_adversarial(family, threads));
    }
    let doc = Value::obj(vec![
        ("schema", "rela-perf/v1".to_value()),
        ("threads", threads.to_value()),
        ("smoke", Value::Bool(smoke)),
        ("scenarios", Value::Arr(results)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serializes");
    std::fs::write(&out_path, json + "\n").unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    validate(&out_path);

    // human-readable summary
    let text = std::fs::read_to_string(&out_path).expect("readable");
    let value: Value = serde_json::from_str(&text).expect("parses");
    println!("== checker perf ({}) ==", out_path);
    println!(
        "{:>17} {:>10} {:>7} {:>8} {:>7} {:>10} {:>12} {:>8}",
        "scenario", "kind", "fecs", "classes", "hits%", "wall", "baseline", "speedup"
    );
    for s in value.get("scenarios").and_then(Value::as_arr).unwrap() {
        let kind = s.get("kind").and_then(Value::as_str).unwrap_or("dedup");
        // baseline column: no-dedup wall for dedup runs, cold wall for
        // iterative runs; "-" when skipped (smoke)
        let baseline = match kind {
            "iterative" => s.get("wall_cold_s").and_then(Value::as_f64),
            "delta-ingest" => s.get("wall_full_warm_s").and_then(Value::as_f64),
            "binary-ingest" => s.get("wall_json_s").and_then(Value::as_f64),
            "mmap-ingest" => s.get("wall_binary_s").and_then(Value::as_f64),
            "adversarial" => s.get("wall_pathdiff_s").and_then(Value::as_f64),
            _ => s.get("wall_nodedup_s").and_then(Value::as_f64),
        };
        let fmt_s = |v: Option<f64>| match v {
            Some(f) => format!("{f:.3}s"),
            None => "-".to_owned(),
        };
        println!(
            "{:>17} {:>10} {:>7} {:>8} {:>6.1}% {:>10} {:>12} {:>8}",
            s.get("name").and_then(Value::as_str).unwrap(),
            kind,
            s.get("fecs").and_then(Value::as_u64).unwrap(),
            s.get("classes").and_then(Value::as_u64).unwrap(),
            100.0 * s.get("cache_hit_rate").and_then(Value::as_f64).unwrap(),
            fmt_s(s.get("wall_s").and_then(Value::as_f64)),
            fmt_s(baseline),
            match s.get("speedup").and_then(Value::as_f64) {
                Some(f) => format!("{f:.1}×"),
                None => "-".to_owned(),
            },
        );
    }
}
