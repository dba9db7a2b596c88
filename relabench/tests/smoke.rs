//! End-to-end check of the benchmark itself on toy inputs: every
//! workload and every metric is reported, the traces are well formed,
//! the correctness checks ran, and a broken reference is caught.
//!
//! `relabench` builds `target/release/rela` itself, so the first run of
//! this test in a fresh target directory pays for that build.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_relabench");

/// `<target>/relabench/`, where the binary keeps traces and results.
fn out_dir() -> PathBuf {
    Path::new(BIN)
        .parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/")
        .join("relabench")
}

fn parse(text: &str) -> Value {
    serde_json::from_str(text).expect("valid JSON")
}

fn names(manifest: &Value, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .expect("manifest array")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_owned())
        .collect()
}

fn finite(doc: &Value, section: &str, name: &str) -> f64 {
    let value = doc
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{section}.{name} is missing"));
    assert!(value.is_finite(), "{section}.{name} = {value}");
    value
}

/// Every child span lies inside its parent, shares its op, and no span
/// is over-covered by its children.
fn assert_well_formed(trace: &Value, workload: &str) {
    let spans = trace.as_arr().expect("trace is an array");
    assert!(!spans.is_empty(), "{workload}: empty trace");
    let field = |s: &Value, key: &str| s.get(key).and_then(Value::as_u64).unwrap();
    let mut self_ns: Vec<i128> = spans
        .iter()
        .map(|s| i128::from(field(s, "end_ns")) - i128::from(field(s, "start_ns")))
        .collect();
    for (ix, span) in spans.iter().enumerate() {
        let name = span.get("name").and_then(Value::as_str).unwrap();
        assert!(field(span, "end_ns") >= field(span, "start_ns"), "{name}");
        assert!(field(span, "op") >= 1, "{name} belongs to no op");
        if let Some(parent) = span.get("parent").and_then(Value::as_u64) {
            let parent = parent as usize;
            assert!(parent < ix, "{workload}: {name} precedes its parent");
            let p = &spans[parent];
            assert!(
                field(span, "start_ns") >= field(p, "start_ns")
                    && field(span, "end_ns") <= field(p, "end_ns")
                    && field(span, "op") == field(p, "op"),
                "{workload}: {name} escapes its parent"
            );
            self_ns[parent] -= i128::from(field(span, "end_ns") - field(span, "start_ns"));
        }
    }
    assert!(
        self_ns.iter().all(|&t| t >= 0),
        "{workload}: negative self time"
    );
    let has = |name: &str| {
        spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some(name))
    };
    assert!(
        has("op") && has("cli.spawn"),
        "{workload}: missing op spans"
    );
    if workload == "serve-iterate" {
        assert!(has("serve.submit") && has("serve.engine") && has("core.run_deltas"));
    } else {
        assert!(has("core.session_open") && has("core.run") && has("net.frame"));
    }
}

#[test]
fn smoke_reports_every_metric_and_catches_a_broken_reference() {
    let manifest = Command::new(BIN).arg("manifest").output().unwrap();
    assert!(manifest.status.success());
    let manifest = parse(&String::from_utf8(manifest.stdout).unwrap());
    let workloads = names(&manifest, "workloads");
    assert_eq!(
        workloads,
        [
            "cold-json",
            "cold-rsnb",
            "decide-interface",
            "serve-iterate"
        ]
    );

    let out = out_dir().join(format!("smoke-{}.json", std::process::id()));
    let run = Command::new(BIN)
        .args(["--smoke", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "--smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let results = parse(&std::fs::read_to_string(&out).unwrap());
    std::fs::remove_file(&out).unwrap();
    assert_eq!(results.get("smoke"), Some(&Value::Bool(true)));
    assert_eq!(results.get("claim"), Some(&Value::Null));
    let host = results.get("host").unwrap();
    assert!(host.get("nproc").and_then(Value::as_u64).unwrap() >= 1);
    for key in ["rustc", "commit", "rela_hash"] {
        assert!(host.get(key).and_then(Value::as_str).is_some(), "{key}");
    }

    for workload in &workloads {
        let doc = results
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("{workload} is missing"));
        for name in names(&manifest, "end_to_end") {
            assert!(finite(doc, "end_to_end", &name) > 0.0, "{workload}: {name}");
        }
        for name in names(&manifest, "per_layer") {
            finite(doc, "per_layer", &name);
        }
        // the oracle ran and found the change; the golden check ran on
        // every op and none failed
        assert!(finite(doc, "per_layer", "baseline.changed_flows") > 0.0);
        assert!(finite(doc, "per_layer", "baseline.path_diff_s") > 0.0);
        assert!(doc.get("attempted").and_then(Value::as_u64).unwrap() >= 3);
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
        let verdicts = doc.get("verdicts").and_then(Value::as_arr).unwrap();
        assert!(
            verdicts[0]
                .get("violating")
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );
        assert!(finite(doc, "per_layer", "serve.full_overhead_s") > 0.0);

        let trace = out_dir().join(format!("trace-{workload}.json"));
        assert_well_formed(&parse(&std::fs::read_to_string(trace).unwrap()), workload);
    }

    // a reference that no report can match: every op fails, and so does
    // the command
    let broken = Command::new(BIN)
        .args(["--workload", "cold-rsnb", "--smoke", "--trace", "0"])
        .arg("--self-test-broken-golden")
        .output()
        .unwrap();
    assert_eq!(broken.status.code(), Some(1));
    let stdout = String::from_utf8(broken.stdout).unwrap();
    let line = parse(stdout.lines().last().unwrap());
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    let (attempted, failed) = (
        line.get("attempted").and_then(Value::as_u64).unwrap(),
        line.get("failed").and_then(Value::as_u64).unwrap(),
    );
    assert!(
        attempted >= 3 && failed == attempted,
        "{failed}/{attempted}"
    );
}
