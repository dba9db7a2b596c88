//! Metric definitions and everything made from them: the driver's
//! result line, `BENCHMARK.json`, the results file of an `--all` run, and
//! `compare`.
//!
//! The tables below are the single source of truth for names, units,
//! directions and bounds. `relabench manifest` prints `BENCHMARK.json`
//! from them, and a unit test holds the committed file to it.

use crate::workloads::WORKLOADS;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: something a user of `rela` would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, reported on every workload with tracing off.
/// An *op* is one verdict a user waited for: child spawn → exit, with
/// the full report read from stdout.
///
/// The op timings of the one-shot workloads are taken at the floor of
/// the op loop (`stats::floor`, the 10th percentile), not at its median:
/// this is a 2-core share of a bigger host, whose neighbours slow most
/// ops of a run, by an amount that drifts over minutes. Over runs of
/// `cold-json` on ten seeds the interquartile spread of the run medians
/// was 0.08 of their median and that of the run floors 0.04. Submits to
/// the daemon are taken at the median (`LoopStats::verdict_wall_s` says
/// why). What is left is the host itself changing pace for minutes at a
/// time, which no statistic of one run removes: three ten-seed sets of
/// every workload spread the time-based metrics by 0.02–0.09
/// (`decide-interface` twice by 0.12) on a quiet day and by 0.04–0.16
/// on a restless one, so the bounds are the widest there are. Medians and tails of every workload
/// are still reported, ungated, as `tail.*`. Memory repeats within 0.04.
pub const END_TO_END: [EndToEnd; 5] = [
    // Build this workload's inputs, pack, delta documents, oracle and
    // golden runs, daemon start and priming; median of the run's
    // repeated set-ups. The simulator dominates it, hence the wide bound.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // What a verdict costs in wall time: the floor of the one-shot op
    // walls; in `serve-iterate` the median of the delta submits.
    EndToEnd {
        name: "verdict_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // Floor of the children's user+sys CPU per op (per kind of submit in
    // `serve-iterate`), plus the daemon's CPU over the loop ÷ ops.
    EndToEnd {
        name: "cpu_s_per_verdict",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // FECs verdicted ÷ seconds waited for them at `verdict_wall_s` (in
    // `serve-iterate` over a round of one full submit plus its deltas,
    // each kind at its own median, so this moves with both).
    EndToEnd {
        name: "fecs_per_s",
        unit: "FECs/s",
        better: Higher,
        bound: 0.25,
    },
    // `ru_maxrss` of the median one-shot child; for `serve-iterate` the
    // daemon's `VmHWM` at the end of the loop.
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

/// A per-layer metric: `(name, unit, direction)`. The README's layer
/// table says which end-to-end metric each should move, on which
/// workload.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, reported on every workload with tracing on.
/// Timings are medians of repeated calls into the layer's public
/// functions over the workload's own files.
pub const PER_LAYER: &[PerLayer] = &[
    // net (crates/net)
    ("net.frame_json_s", "s", Lower),
    ("net.frame_json_mib_per_s", "MiB/s", Higher),
    ("net.frame_rsnb_mmap_s", "s", Lower),
    ("net.frame_rsnb_mib_per_s", "MiB/s", Higher),
    ("net.records_framed", "count", Lower),
    ("net.hash_s", "s", Lower),
    ("net.hash_mib_per_s", "MiB/s", Higher),
    ("net.decode_all_s", "s", Lower),
    ("net.decode_records_per_s", "1/s", Higher),
    ("net.behavior_hash_s", "s", Lower),
    ("net.graph_to_fsa_s", "s", Lower),
    ("net.align_s", "s", Lower),
    ("net.scan_side_s", "s", Lower),
    ("net.diff_side_s", "s", Lower),
    ("net.delta_parse_s", "s", Lower),
    ("net.pack_s", "s", Lower),
    ("net.snapshot_bytes_json", "bytes", Lower),
    ("net.snapshot_bytes_rsnb", "bytes", Lower),
    ("net.delta_bytes", "bytes", Lower),
    // core (crates/core)
    ("core.parse_s", "s", Lower),
    ("core.compile_s", "s", Lower),
    ("core.session_open_s", "s", Lower),
    ("core.run_pair_s", "s", Lower),
    ("core.run_pair_nodedup_s", "s", Lower),
    ("core.run_streams_json_s", "s", Lower),
    ("core.run_streams_rsnb_s", "s", Lower),
    ("core.run_full_warm_s", "s", Lower),
    ("core.run_deltas_s", "s", Lower),
    ("core.decide_s", "s", Lower),
    ("core.phase_lower_cpu_s", "s", Lower),
    ("core.phase_determinize_cpu_s", "s", Lower),
    ("core.phase_equivalent_cpu_s", "s", Lower),
    ("core.phase_witness_cpu_s", "s", Lower),
    ("core.max_class_s", "s", Lower),
    ("core.render_text_s", "s", Lower),
    ("core.render_json_s", "s", Lower),
    ("core.report_bytes", "bytes", Lower),
    ("core.fecs", "count", Higher),
    ("core.classes", "count", Lower),
    ("core.dedup_hits", "count", Higher),
    ("core.warm_hits", "count", Higher),
    ("core.graph_decodes", "count", Lower),
    ("core.fst_memo_hits", "count", Higher),
    // automata (crates/automata)
    ("automata.determinize_s", "s", Lower),
    ("automata.equivalent_s", "s", Lower),
    ("automata.minimize_s", "s", Lower),
    ("automata.nfa_states", "states", Lower),
    ("automata.dfa_states", "states", Lower),
    ("automata.min_dfa_states", "states", Lower),
    // cache (crates/cache)
    ("cache.put_s", "s", Lower),
    ("cache.persist_s", "s", Lower),
    ("cache.open_load_s", "s", Lower),
    ("cache.get_hit_s", "s", Lower),
    ("cache.get_miss_s", "s", Lower),
    ("cache.entries", "count", Higher),
    ("cache.bytes_on_disk", "bytes", Lower),
    // cli (src/cli.rs)
    ("cli.spawn_floor_s", "s", Lower),
    ("cli.overhead_s", "s", Lower),
    // serve / client / proto (src/)
    ("serve.start_s", "s", Lower),
    ("serve.ping_rtt_s", "s", Lower),
    ("serve.full_submit_wall_p50_s", "s", Lower),
    ("serve.delta_submit_wall_p50_s", "s", Lower),
    ("serve.full_overhead_s", "s", Lower),
    ("serve.delta_overhead_s", "s", Lower),
    ("serve.full_json_wall_s", "s", Lower),
    ("serve.delta_miss_fallback_wall_s", "s", Lower),
    ("serve.concurrent2_full_wall_p50_s", "s", Lower),
    ("serve.bytes_sent_full", "bytes", Lower),
    ("serve.bytes_sent_delta", "bytes", Lower),
    ("serve.daemon_cpu_per_op_s", "s", Lower),
    ("serve.rss_primed_mib", "MiB", Lower),
    ("serve.rss_end_mib", "MiB", Lower),
    ("serve.drain_s", "s", Lower),
    // baseline, sim (set-up only)
    ("baseline.path_diff_s", "s", Lower),
    ("baseline.changed_flows", "count", Lower),
    ("sim.simulate_s", "s", Lower),
    ("sim.records_per_s", "1/s", Higher),
    // harness
    ("trace.attributed_share", "ratio", Higher),
    ("trace.overhead_share", "ratio", Lower),
    ("tail.verdict_wall_p50_s", "s", Lower),
    ("tail.verdict_wall_hi_s", "s", Lower),
    ("tail.hi_percentile", "pct", Higher),
    ("tail.verdict_wall_max_s", "s", Lower),
    ("tail.samples", "count", Higher),
];

/// Counts that must repeat exactly between two runs of one commit, and
/// may therefore be claimed as counts. `core.fst_memo_hits` is absent on
/// purpose: it was seen to differ from run to run.
pub const REPEATING: &[&str] = &[
    "net.records_framed",
    "net.snapshot_bytes_json",
    "net.snapshot_bytes_rsnb",
    "net.delta_bytes",
    "core.report_bytes",
    "core.fecs",
    "core.classes",
    "core.dedup_hits",
    "core.warm_hits",
    "core.graph_decodes",
    "automata.nfa_states",
    "automata.dfa_states",
    "automata.min_dfa_states",
    "cache.entries",
    "serve.bytes_sent_full",
    "serve.bytes_sent_delta",
    "baseline.changed_flows",
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// `(name, unit)` of the metrics one pass reports, in table order.
pub fn pass_metrics(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// `{"name": {"value": v, "unit": u}, …}` for exactly the metrics of one
/// pass. A metric the pass did not produce is an error: the contract is
/// every metric on every workload.
pub fn metrics_value(values: &Values, traced: bool) -> Result<Value, String> {
    let mut fields = Vec::new();
    for (name, unit) in pass_metrics(traced) {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite"));
        }
        fields.push((
            name.to_owned(),
            Value::obj(vec![
                ("value", Value::Float(value)),
                ("unit", unit.to_value()),
            ]),
        ));
    }
    Ok(Value::Obj(fields))
}

/// The one JSON object a driver run prints as its last line.
pub fn result_line(attempted: usize, failed: usize, metrics: Value) -> String {
    let line = Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", attempted.to_value()),
        ("failed", failed.to_value()),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| s.to_value()).collect());
    let doc = Value::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "relabench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["relabench"])),
        ("run_seconds", RUN_SECONDS.to_value()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![("name", w.name.to_value()), ("why", w.why.to_value())])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", m.name.to_value()),
                            ("unit", m.unit.to_value()),
                            ("better", m.better.as_str().to_value()),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Value::obj(vec![
                            ("name", name.to_value()),
                            ("unit", unit.to_value()),
                            ("better", better.as_str().to_value()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("manifest serializes");
    text.push('\n');
    text
}

/// How one (workload, metric) pair fared in a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// One side has no value.
    Unresolved,
}

/// Relative change of `b` against `a` in the metric's *worse* direction
/// (positive = worse), and the verdict under `bound`.
pub fn judge(metric: &EndToEnd, a: Option<f64>, b: Option<f64>) -> (Option<f64>, Outcome) {
    let (Some(a), Some(b)) = (a, b) else {
        return (None, Outcome::Unresolved);
    };
    if a == 0.0 {
        return (None, Outcome::Unresolved);
    }
    let worse_by = match metric.better {
        Lower => (b - a) / a,
        Higher => (a - b) / a,
    };
    let outcome = if worse_by > metric.bound {
        Outcome::Worse
    } else {
        Outcome::Ok
    };
    (Some(worse_by), outcome)
}

/// `relabench compare A.json B.json`: per (workload, end-to-end metric)
/// both values, the relative change, the bound and the verdict. Returns
/// the table and whether any pair is worse. Files recorded on different
/// core counts, seeds or run lengths are not comparable and are refused.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let parse = |text: &str, which: &str| -> Result<Value, String> {
        serde_json::from_str(text).map_err(|e| format!("{which}: {e}"))
    };
    let (a, b) = (parse(a_text, "A")?, parse(b_text, "B")?);
    for key in ["nproc", "seed", "seconds", "smoke"] {
        let of = |doc: &Value| {
            doc.get("host")
                .and_then(|h| h.get(key))
                .or_else(|| doc.get(key))
                .cloned()
        };
        let (va, vb) = (of(&a), of(&b));
        if va.is_none() || va != vb {
            return Err(format!(
                "refusing to compare: `{key}` differs ({va:?} vs {vb:?})"
            ));
        }
    }
    let value = |doc: &Value, workload: &str, section: &str, metric: &str| -> Option<f64> {
        doc.get("workloads")?
            .get(workload)?
            .get(section)?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let mut table = format!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut any_worse = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (
                value(&a, w.name, "end_to_end", m.name),
                value(&b, w.name, "end_to_end", m.name),
            );
            let (change, outcome) = judge(m, va, vb);
            any_worse |= outcome == Outcome::Worse;
            let show = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.6}"));
            table.push_str(&format!(
                "{:<18} {:<20} {:>14} {:>14} {:>9} {:>6}  {}\n",
                w.name,
                m.name,
                show(va),
                show(vb),
                change.map_or("-".to_owned(), |c| format!("{:+.1}%", 100.0 * c)),
                format!("{:.0}%", 100.0 * m.bound),
                match outcome {
                    Outcome::Ok => "ok",
                    Outcome::Worse => "worse",
                    Outcome::Unresolved => "unresolved",
                }
            ));
        }
    }
    // counts that must repeat exactly
    for w in &WORKLOADS {
        for name in REPEATING {
            if let (Some(va), Some(vb)) = (
                value(&a, w.name, "per_layer", name),
                value(&b, w.name, "per_layer", name),
            ) {
                if va != vb {
                    any_worse = true;
                    table.push_str(&format!(
                        "{:<18} {:<20} {va:>14} {vb:>14}  count does not repeat: worse\n",
                        w.name, name
                    ));
                }
            }
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_one_the_tables_generate() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `relabench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_manifest_meets_the_contract_limits() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        for m in &END_TO_END {
            assert!(ok_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                ok_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        for &(name, unit, _) in PER_LAYER {
            assert!(ok_name(name) && seen.insert(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
        }
        for name in REPEATING {
            assert!(PER_LAYER.iter().any(|m| m.0 == *name), "{name}");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn a_pass_must_report_every_one_of_its_metrics() {
        let mut values = Values::new();
        for m in &END_TO_END {
            values.insert(m.name, 1.5);
        }
        let v = metrics_value(&values, false).unwrap();
        assert_eq!(v.as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(
            v.get("fecs_per_s").unwrap().get("unit").unwrap().as_str(),
            Some("FECs/s")
        );
        assert!(metrics_value(&values, true).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(metrics_value(&values, false).is_err());
        let line = result_line(10, 0, Value::obj(vec![]));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{}}"#
        );
    }

    fn results(nproc: u64, wall: f64, fecs_per_s: f64, classes: u64) -> String {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    r#""{}": {{"end_to_end": {{"verdict_wall_s": {{"value": {wall}, "unit": "s"}},
                    "fecs_per_s": {{"value": {fecs_per_s}, "unit": "FECs/s"}}}},
                    "per_layer": {{"core.classes": {{"value": {classes}, "unit": "count"}}}}}}"#,
                    w.name
                )
            })
            .collect();
        format!(
            r#"{{"host": {{"nproc": {nproc}}}, "seed": 1, "seconds": 12, "smoke": false,
            "workloads": {{{}}}}}"#,
            workloads.join(",")
        )
    }

    #[test]
    fn compare_flags_only_changes_beyond_the_bound_in_the_worse_direction() {
        let base = results(2, 0.100, 1000.0, 15);
        let (table, worse) = compare(&base, &results(2, 0.105, 950.0, 15)).unwrap();
        assert!(!worse, "{table}");
        assert!(table.contains("+5.0%") && table.contains("unresolved"));
        // much faster is never worse
        assert!(!compare(&base, &results(2, 0.010, 9000.0, 15)).unwrap().1);
        assert!(compare(&base, &results(2, 0.130, 1000.0, 15)).unwrap().1);
        assert!(compare(&base, &results(2, 0.100, 700.0, 15)).unwrap().1);
        // a count flagged as repeating must repeat exactly
        let (table, worse) = compare(&base, &results(2, 0.100, 1000.0, 16)).unwrap();
        assert!(worse && table.contains("does not repeat"));
        // different hosts are not comparable
        assert!(compare(&base, &results(4, 0.100, 1000.0, 15)).is_err());
        assert!(compare(&base, "{}").is_err());
    }
}
