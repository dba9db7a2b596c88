//! The scale harness: cold validation from snapshot files on disk to a
//! verdict, at the sizes the paper's headline (~10⁶ traffic classes,
//! §7 and §9.2) points at, recorded in absolute numbers to a
//! machine-readable `BENCH_check.json`.
//!
//! One scenario kind, **cold**, at three scales: `cold-smoke`
//! (`--smoke`), or `cold-12k` (regions 4, 1,024 FECs a region pair) and
//! `cold-102k` (regions 5, 5,120). For each scale the harness writes the
//! JSON snapshot pair once, record by record, packs it to RSNB once, and
//! runs four arms over those files, each in a fresh child process so
//! that `VmHWM` is the arm's own peak:
//!
//! - `materialized` — `IngestMode::Materialized` over the JSON pair: the
//!   batch engine, the reference the other three are held to;
//! - `json` — the pipelined engine over buffered JSON streams;
//! - `rsnb` — the pipelined engine over buffered RSNB streams;
//! - `rsnb-mapped` — the pipelined engine over memory-mapped RSNB.
//!
//! A child times one thing, its `session.run`, and reports that wall,
//! its peak RSS, a fingerprint of its report and the report's own
//! `CheckStats` as `rela report --json` serializes them — the job's table
//! (`stages_s`), graph decodes, live and dead sides. The parent adds
//! records/s and MiB/s of input. [`validate`] panics unless all four
//! fingerprints are equal. The timing yardstick is `relabench`; this file
//! records what one cold check costs at a scale relabench does not run.
//!
//! Run: `cargo run --release -p rela-bench --bin perf [-- --smoke]
//!       [--out FILE] [--threads N]`
//!
//! The JSON schema (`rela-perf/v2`):
//!
//! ```json
//! {
//!   "schema": "rela-perf/v2", "nproc": 2, "threads": 2, "smoke": false,
//!   "scenarios": [
//!     {
//!       "name": "cold-12k", "kind": "cold", "regions": 4,
//!       "routers_per_group": 2, "parallel_links": 2, "fecs_per_pair": 1024,
//!       "spec_atomics": 4, "granularity": "group", "records": 24576,
//!       "json_bytes": 31877500, "rsnb_bytes": 31582232, "gen_s": 6.9,
//!       "arms": [
//!         {
//!           "arm": "materialized", "wall_s": 0.81, "peak_rss_kb": 250000,
//!           "violations": 1032, "report_hash": "…", "fecs": 12288,
//!           "classes": 15, "dedup_hits": 12273, "graph_decodes": 24576, …,
//!           "stages_s": {"relations": 0.0005, "replay": 0.0, "ingest": 0.79,
//!                        "decide": 0.002, "assemble": 0.01, "lower": 0.001, …},
//!           "records_per_s": 30340.7, "mib_per_s": 37.5
//!         },
//!         …
//!       ]
//!     }
//!   ]
//! }
//! ```

use rela_core::{
    CheckReport, CheckSession, IngestMode, JobOptions, JobSpec, LabeledSource, SessionConfig,
};
use rela_net::{content_hash128, BinarySnapshotWriter, MmapSource, SnapshotFramer, SnapshotWriter};
use rela_sim::workload::{spec_of_size, synthetic_wan, SyntheticWan, WanParams};
use rela_sim::{configured, simulate_each, NetworkConfig};
use serde::{Serialize, Value};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The schema tag of the file this harness writes.
const SCHEMA: &str = "rela-perf/v2";

/// The spec every arm checks: the fig6 family at 3·1 + 1 atomics.
const SPEC_ATOMICS: usize = 4;

const MIB: f64 = 1024.0 * 1024.0;

/// One way to take the pair from disk to a verdict.
struct Arm {
    name: &'static str,
    /// Reads the packed RSNB pair rather than the JSON one.
    rsnb: bool,
    /// Maps the files rather than reading them through a buffer.
    mapped: bool,
    ingest: IngestMode,
}

/// The arms, the reference first.
const ARMS: [Arm; 4] = [
    Arm {
        name: "materialized",
        rsnb: false,
        mapped: false,
        ingest: IngestMode::Materialized,
    },
    Arm {
        name: "json",
        rsnb: false,
        mapped: false,
        ingest: IngestMode::Pipelined,
    },
    Arm {
        name: "rsnb",
        rsnb: true,
        mapped: false,
        ingest: IngestMode::Pipelined,
    },
    Arm {
        name: "rsnb-mapped",
        rsnb: true,
        mapped: true,
        ingest: IngestMode::Pipelined,
    },
];

/// The scales a run covers: one tiny one for `--smoke`, else ~12k and
/// ~102k FECs.
fn scales(smoke: bool) -> Vec<(&'static str, WanParams)> {
    if smoke {
        let tiny = WanParams {
            regions: 3,
            routers_per_group: 1,
            parallel_links: 1,
            fecs_per_pair: 32,
        };
        return vec![("cold-smoke", tiny)];
    }
    let wan = |regions, fecs_per_pair| WanParams {
        regions,
        routers_per_group: 2,
        parallel_links: 2,
        fecs_per_pair,
    };
    vec![("cold-12k", wan(4, 1024)), ("cold-102k", wan(5, 5120))]
}

/// Peak resident set of this process (`VmHWM`), in KiB. Linux-only;
/// `None` elsewhere (the arm then records a null).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A fingerprint of everything verdict-relevant in a report (its
/// rendering minus the timing lines): lets two worker processes prove
/// they produced byte-identical reports without shipping them.
fn report_fingerprint(report: &CheckReport) -> String {
    let normalized = report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n");
    format!("{:032x}", content_hash128(normalized.as_bytes()))
}

/// Child-process entry point (`perf --ingest-worker ARM PRE POST REGIONS
/// RPG LINKS FPP THREADS`): one cold check of the pair in a fresh
/// address space, so `VmHWM` is this arm's peak and not what an earlier
/// arm left in the allocator. Prints one JSON line.
fn ingest_worker(args: &[String]) -> ! {
    let arm = ARMS
        .iter()
        .find(|arm| arm.name == args[0])
        .unwrap_or_else(|| panic!("unknown arm `{}`", args[0]));
    let [regions, routers_per_group, parallel_links, fecs_per_pair, threads] =
        [3, 4, 5, 6, 7].map(|ix| {
            args[ix]
                .parse::<usize>()
                .expect("a numeric worker argument")
        });
    // the deterministic WAN again, for its location db
    let wan = synthetic_wan(&WanParams {
        regions,
        routers_per_group,
        parallel_links,
        fecs_per_pair: fecs_per_pair as u32,
    });
    let session = CheckSession::open(
        &spec_of_size(SPEC_ATOMICS, regions),
        wan.topology.db,
        SessionConfig {
            threads,
            ..SessionConfig::default()
        },
    )
    .expect("spec compiles");
    let source = |path: &str| {
        if arm.mapped {
            LabeledSource::mapped(MmapSource::open(path).expect("snapshot map"), path)
        } else {
            LabeledSource::new(std::fs::File::open(path).expect("snapshot file"), path)
        }
    };
    let job = JobSpec::streams(source(&args[1]), source(&args[2])).with_options(JobOptions {
        ingest: arm.ingest,
        ..JobOptions::default()
    });

    let t0 = Instant::now();
    let report = session.run(job).expect("the pair checks");
    let wall = t0.elapsed();

    let mut fields = vec![
        ("wall_s".to_owned(), wall.as_secs_f64().to_value()),
        (
            "peak_rss_kb".to_owned(),
            peak_rss_kb().map_or(Value::Null, |kb| kb.to_value()),
        ),
        ("violations".to_owned(), report.violations.len().to_value()),
        (
            "report_hash".to_owned(),
            report_fingerprint(&report).to_value(),
        ),
    ];
    let Value::Obj(stats) = report.stats.to_value() else {
        unreachable!("stats serialize as an object")
    };
    fields.extend(stats);
    let line = serde_json::to_string(&Value::Obj(fields)).expect("serializes");
    println!("{line}");
    std::process::exit(0)
}

/// Write one snapshot file record by record (never holding the
/// snapshot), returning its record count.
fn write_snapshot_file(path: &Path, wan: &SyntheticWan, config: &NetworkConfig) -> usize {
    let file = std::fs::File::create(path).expect("snapshot file");
    let mut writer = SnapshotWriter::new(BufWriter::new(file)).expect("snapshot header");
    let mut records = 0;
    let unconverged = simulate_each(&wan.topology, config, &wan.traffic, |flow, graph| {
        writer.write(&flow, &graph).expect("snapshot record");
        records += 1;
    });
    assert!(unconverged.is_empty(), "the WAN must converge");
    writer.finish().expect("snapshot trailer");
    records
}

/// Pack a JSON snapshot file into the RSNB container byte-exactly (raw
/// span moves, never a graph decode), as `rela snapshot pack` does.
fn pack_binary(src: &Path, dst: &Path) {
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
}

/// Spawn this binary as one arm's worker over `pair` and parse the line
/// it prints.
fn run_arm(arm: &Arm, pair: &[PathBuf; 2], params: &WanParams, threads: usize) -> Value {
    let exe = std::env::current_exe().expect("own binary path");
    let numbers = [
        params.regions,
        params.routers_per_group,
        params.parallel_links,
        params.fecs_per_pair as usize,
        threads,
    ];
    let out = std::process::Command::new(exe)
        .arg("--ingest-worker")
        .arg(arm.name)
        .args(pair)
        .args(numbers.map(|n| n.to_string()))
        .output()
        .expect("spawn a worker");
    assert!(
        out.status.success(),
        "the {} worker failed:\n{}",
        arm.name,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("worker output is utf-8");
    let line = stdout.lines().last().expect("the worker printed a result");
    serde_json::from_str(line).expect("the worker's result parses")
}

/// The **cold** scenario at one scale: write the pair and pack it, once,
/// then run every arm over it.
fn run_cold(name: &str, params: &WanParams, threads: usize) -> Value {
    eprintln!(
        "[{name}] writing the pair ({} regions, {} FECs/pair)...",
        params.regions, params.fecs_per_pair,
    );
    let dir = std::env::temp_dir().join(format!("rela-perf-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = [dir.join("pre.json"), dir.join("post.json")];
    let rsnb = [dir.join("pre.rsnb"), dir.join("post.rsnb")];
    let wan = synthetic_wan(params);
    let post_config = configured(&wan.config, &wan.topology, &wan.representative_change);
    let t0 = Instant::now();
    let records = write_snapshot_file(&json[0], &wan, &wan.config)
        + write_snapshot_file(&json[1], &wan, &post_config);
    for (src, dst) in json.iter().zip(&rsnb) {
        pack_binary(src, dst);
    }
    let gen = t0.elapsed().as_secs_f64();
    let bytes = |pair: &[PathBuf; 2]| -> u64 {
        pair.iter()
            .map(|path| std::fs::metadata(path).expect("written file").len())
            .sum()
    };
    let (json_bytes, rsnb_bytes) = (bytes(&json), bytes(&rsnb));
    eprintln!(
        "[{name}] {records} records: {:.1} MiB of JSON, {:.1} MiB of RSNB in {gen:.1}s",
        json_bytes as f64 / MIB,
        rsnb_bytes as f64 / MIB,
    );

    let arms: Vec<Value> = ARMS
        .iter()
        .map(|arm| {
            let (pair, input) = if arm.rsnb {
                (&rsnb, rsnb_bytes)
            } else {
                (&json, json_bytes)
            };
            let result = run_arm(arm, pair, params, threads);
            let wall = result
                .get("wall_s")
                .and_then(Value::as_f64)
                .expect("wall_s");
            let mut fields = vec![("arm".to_owned(), arm.name.to_value())];
            fields.extend(result.as_obj().expect("an object").iter().cloned());
            fields.push((
                "records_per_s".to_owned(),
                (records as f64 / wall).to_value(),
            ));
            fields.push((
                "mib_per_s".to_owned(),
                (input as f64 / MIB / wall).to_value(),
            ));
            Value::Obj(fields)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    Value::obj(vec![
        ("name", name.to_value()),
        ("kind", "cold".to_value()),
        ("regions", params.regions.to_value()),
        ("routers_per_group", params.routers_per_group.to_value()),
        ("parallel_links", params.parallel_links.to_value()),
        ("fecs_per_pair", (params.fecs_per_pair as usize).to_value()),
        ("spec_atomics", SPEC_ATOMICS.to_value()),
        ("granularity", "group".to_value()),
        ("records", records.to_value()),
        ("json_bytes", json_bytes.to_value()),
        ("rsnb_bytes", rsnb_bytes.to_value()),
        // writing both JSON files and packing them: the inputs, made once
        ("gen_s", gen.to_value()),
        ("arms", Value::Arr(arms)),
    ])
}

/// Assert what a `BENCH_check.json` must hold, panicking on the first
/// break: the schema tag, the host's core count and the resolved thread
/// count, and per scenario its `gen_s` and the four arms in order, each
/// with the product's stage table, a consistent class count and the
/// reference arm's report fingerprint. Returns the scenario count.
fn validate(doc: &Value) -> usize {
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(SCHEMA),
        "bad schema tag"
    );
    for key in ["nproc", "threads"] {
        let n = doc.get(key).and_then(Value::as_u64).unwrap_or(0);
        assert!(n > 0, "top-level `{key}` must be positive, is {n}");
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Value::as_arr)
        .expect("a scenarios array");
    assert!(!scenarios.is_empty(), "no scenarios");
    for s in scenarios {
        let name = s.get("name").and_then(Value::as_str).expect("name");
        let num = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name}: no `{key}`"))
        };
        assert!(num(s, "gen_s") > 0.0, "{name}: gen_s must be positive");
        let arms = s
            .get("arms")
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{name}: no arms"));
        let names: Vec<_> = arms
            .iter()
            .map(|a| a.get("arm").and_then(Value::as_str))
            .collect();
        let want: Vec<_> = ARMS.iter().map(|arm| Some(arm.name)).collect();
        assert_eq!(names, want, "{name}: the arms");
        let reference = arms[0].get("report_hash").and_then(Value::as_str);
        assert!(reference.is_some(), "{name}: no report_hash");
        for (a, arm) in arms.iter().zip(&ARMS) {
            let arm = arm.name;
            assert!(num(a, "wall_s") > 0.0, "{name}/{arm}: wall_s");
            let stages = a
                .get("stages_s")
                .unwrap_or_else(|| panic!("{name}/{arm}: no stages_s"));
            for row in ["replay", "ingest", "decide", "assemble"] {
                assert!(num(stages, row) >= 0.0, "{name}/{arm}: stage {row}");
            }
            let count = |key: &str| {
                a.get(key)
                    .and_then(Value::as_u64)
                    .unwrap_or_else(|| panic!("{name}/{arm}: no `{key}`"))
            };
            let (fecs, classes) = (count("fecs"), count("classes"));
            assert!(
                0 < classes && classes <= fecs,
                "{name}/{arm}: {classes} classes of {fecs} FECs"
            );
            assert_eq!(count("dedup_hits"), fecs - classes, "{name}/{arm}: hits");
            count("graph_decodes");
            assert_eq!(
                a.get("report_hash").and_then(Value::as_str),
                reference,
                "{name}/{arm}: report_hash differs from the {} arm's — an ingest path changed a verdict",
                ARMS[0].name
            );
        }
    }
    scenarios.len()
}

/// Print the validated file as one row an arm.
fn summarize(doc: &Value, path: &str) {
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!(
        "== cold validation ({path}: {} cores, {} threads) ==",
        num(doc, "nproc"),
        num(doc, "threads"),
    );
    println!(
        "{:>10} {:>12} {:>7} {:>7} {:>8} {:>9} {:>10} {:>7} {:>8} {:>8}",
        "scenario",
        "arm",
        "fecs",
        "classes",
        "wall",
        "VmHWM",
        "records/s",
        "MiB/s",
        "ingest",
        "decide"
    );
    for s in doc.get("scenarios").and_then(Value::as_arr).unwrap_or(&[]) {
        for a in s.get("arms").and_then(Value::as_arr).unwrap_or(&[]) {
            let stages = a.get("stages_s").unwrap_or(&Value::Null);
            println!(
                "{:>10} {:>12} {:>7} {:>7} {:>7.3}s {:>5.1}MiB {:>10.0} {:>7.1} {:>7.3}s {:>7.3}s",
                s.get("name").and_then(Value::as_str).unwrap_or("?"),
                a.get("arm").and_then(Value::as_str).unwrap_or("?"),
                num(a, "fecs"),
                num(a, "classes"),
                num(a, "wall_s"),
                num(a, "peak_rss_kb") / 1024.0,
                num(a, "records_per_s"),
                num(a, "mib_per_s"),
                num(stages, "ingest"),
                num(stages, "decide"),
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--ingest-worker") {
        ingest_worker(&args[1..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        let ix = args.iter().position(|a| a == name)?;
        args.get(ix + 1)
    };
    let out_path = flag("--out").map_or("BENCH_check.json", String::as_str);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // 0, the default, is the product's "every core": resolved here so the
    // file says what ran
    let threads = match flag("--threads").and_then(|v| v.parse().ok()) {
        None | Some(0) => nproc,
        Some(n) => n,
    };

    let scenarios = scales(smoke)
        .iter()
        .map(|(name, params)| run_cold(name, params, threads))
        .collect();
    let doc = Value::obj(vec![
        ("schema", SCHEMA.to_value()),
        ("nproc", nproc.to_value()),
        ("threads", threads.to_value()),
        ("smoke", Value::Bool(smoke)),
        ("scenarios", Value::Arr(scenarios)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serializes");
    std::fs::write(out_path, json + "\n").unwrap_or_else(|e| panic!("writing {out_path}: {e}"));

    // validate and print the file as written, not the value in hand
    let text = std::fs::read_to_string(out_path).expect("readable");
    let doc: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{out_path} is not JSON: {e}"));
    let n = validate(&doc);
    eprintln!("{out_path}: validated ({n} scenarios)");
    summarize(&doc, out_path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rela_core::PhaseTimings;

    fn arm(name: &str, hash: &str) -> Value {
        Value::obj(vec![
            ("arm", name.to_value()),
            ("wall_s", 0.5_f64.to_value()),
            ("report_hash", hash.to_value()),
            ("fecs", 12usize.to_value()),
            ("classes", 3usize.to_value()),
            ("dedup_hits", 9usize.to_value()),
            ("graph_decodes", 24usize.to_value()),
            ("stages_s", PhaseTimings::default().to_value()),
        ])
    }

    fn doc(hashes: [&str; 4], edit: impl FnOnce(&mut Vec<Value>)) -> Value {
        let mut arms: Vec<Value> = ARMS
            .iter()
            .zip(hashes)
            .map(|(a, h)| arm(a.name, h))
            .collect();
        edit(&mut arms);
        let scenario = Value::obj(vec![
            ("name", "cold-test".to_value()),
            ("gen_s", 1.0_f64.to_value()),
            ("arms", Value::Arr(arms)),
        ]);
        Value::obj(vec![
            ("schema", SCHEMA.to_value()),
            ("nproc", 2usize.to_value()),
            ("threads", 2usize.to_value()),
            ("smoke", Value::Bool(true)),
            ("scenarios", Value::Arr(vec![scenario])),
        ])
    }

    #[test]
    fn a_consistent_four_arm_doc_passes() {
        assert_eq!(validate(&doc(["h"; 4], |_| {})), 1);
    }

    #[test]
    #[should_panic(expected = "report_hash differs")]
    fn arms_with_unequal_report_hashes_panic() {
        validate(&doc(["h", "h", "other", "h"], |_| {}));
    }

    #[test]
    #[should_panic(expected = "no stages_s")]
    fn an_arm_without_stages_panics() {
        validate(&doc(["h"; 4], |arms| {
            if let Value::Obj(fields) = &mut arms[3] {
                fields.retain(|(key, _)| key != "stages_s");
            }
        }));
    }
}
