//! Correctness: what a printed report must say before its time counts.
//!
//! Three independent references, none produced by the code path being
//! timed: the path-diff oracle of `rela-baseline` (for the `nochange`
//! spec), a golden report computed in-process with every accelerator
//! switched off, and — for the seeds that have one — a committed file of
//! expected counts.

use crate::gen::{files, Scale};
use rela_core::{CheckSession, IngestMode, JobOptions, JobSpec, LabeledSource, SessionConfig};
use rela_net::{content_hash128, Granularity, LocationDb, Snapshot, SnapshotPair};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The verdict-relevant text of a report as `rela check` / `rela submit`
/// print it: the elapsed time is cut out of the `checked …` line, and
/// the lines that describe how the engine got there rather than what it
/// found (`behavior classes:`, `cache:`, `base epoch:`) are dropped.
/// Everything else — counts, the violation table, the verdict, and any
/// unexpected line such as a delta-miss notice — is significant.
pub fn normalize(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    for line in report.lines() {
        if ["behavior classes:", "cache:", "base epoch:"]
            .iter()
            .any(|p| line.starts_with(p))
        {
            continue;
        }
        match parse_checked_line(line) {
            Some(c) => out.push_str(&format!(
                "checked {} traffic classes: {} compliant, {} violating",
                c.total, c.compliant, c.violating
            )),
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Hash of the normalized report.
pub fn fingerprint(report: &str) -> String {
    format!("{:032x}", content_hash128(normalize(report).as_bytes()))
}

/// The first line of a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckedLine {
    /// FECs checked.
    pub total: usize,
    /// Engine wall-clock the tool itself reports, seconds.
    pub engine_s: f64,
    /// Compliant FECs.
    pub compliant: usize,
    /// Violating FECs.
    pub violating: usize,
}

/// Parse `checked N traffic classes in X: A compliant, B violating`,
/// where `X` is a `Duration` printed with `{:.2?}` (`ns`, `µs`, `ms` or
/// `s`).
pub fn parse_checked_line(line: &str) -> Option<CheckedLine> {
    let rest = line.strip_prefix("checked ")?;
    let (total, rest) = rest.split_once(" traffic classes in ")?;
    let (elapsed, rest) = rest.split_once(": ")?;
    let (compliant, rest) = rest.split_once(" compliant, ")?;
    let violating = rest.strip_suffix(" violating")?;
    let unit_at = elapsed.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let scale = match &elapsed[unit_at..] {
        "ns" => 1e-9,
        "µs" => 1e-6,
        "ms" => 1e-3,
        "s" => 1.0,
        _ => return None,
    };
    Some(CheckedLine {
        total: total.parse().ok()?,
        engine_s: elapsed[..unit_at].parse::<f64>().ok()? * scale,
        compliant: compliant.parse().ok()?,
        violating: violating.parse().ok()?,
    })
}

/// The counts a report states, as committed in `expected/seed-N.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// FECs checked.
    pub total: usize,
    /// Violating FECs.
    pub violating: usize,
    /// Behavior classes decided.
    pub classes: usize,
    /// Violations per sub-spec.
    pub part_counts: BTreeMap<String, usize>,
}

impl Counts {
    /// Read the counts off a printed report. `None` when the text is
    /// not a report.
    pub fn from_report(report: &str) -> Option<Counts> {
        let mut lines = report.lines();
        let checked = lines.find_map(parse_checked_line)?;
        let mut classes = 0;
        let mut part_counts = BTreeMap::new();
        let mut in_parts = false;
        for line in lines {
            if let Some(rest) = line.strip_prefix("behavior classes: ") {
                classes = rest.split_whitespace().next()?.parse().ok()?;
            } else if line == "violations per sub-spec:" {
                in_parts = true;
            } else if in_parts {
                match line.strip_prefix("  ").and_then(|l| l.split_once(": ")) {
                    Some((part, count)) => {
                        part_counts.insert(part.to_owned(), count.parse().ok()?);
                    }
                    None => in_parts = false,
                }
            }
        }
        Some(Counts {
            total: checked.total,
            violating: checked.violating,
            classes,
            part_counts,
        })
    }

    /// The JSON form used by the expected files and the results file.
    pub fn to_value(&self) -> Value {
        use serde::Serialize;
        Value::obj(vec![
            ("total", self.total.to_value()),
            ("violating", self.violating.to_value()),
            ("classes", self.classes.to_value()),
            (
                "part_counts",
                Value::Obj(
                    self.part_counts
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse the JSON form.
    pub fn from_value(value: &Value) -> Option<Counts> {
        let count = |key: &str| Some(value.get(key)?.as_u64()? as usize);
        Some(Counts {
            total: count("total")?,
            violating: count("violating")?,
            classes: count("classes")?,
            part_counts: value
                .get("part_counts")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_u64()? as usize)))
                .collect::<Option<_>>()?,
        })
    }
}

/// The committed expected counts of `workload` for `seed`, when the
/// seed has a file (seeds 1 and 2 at full scale).
pub fn expected_counts(seed: u64, workload: &str) -> Result<Option<Vec<Counts>>, String> {
    let text = match seed {
        1 => include_str!("../expected/seed-1.json"),
        2 => include_str!("../expected/seed-2.json"),
        _ => return Ok(None),
    };
    parse_expected(text, workload)
        .map(Some)
        .ok_or_else(|| format!("expected/seed-{seed}.json: no valid entry for `{workload}`"))
}

/// One `Counts` per timed iteration of `workload`.
fn parse_expected(text: &str, workload: &str) -> Option<Vec<Counts>> {
    let doc: Value = serde_json::from_str(text).ok()?;
    doc.get(workload)?
        .as_arr()?
        .iter()
        .map(Counts::from_value)
        .collect()
}

/// Load the corpus's location database.
pub fn load_db(dir: &Path) -> Result<LocationDb, String> {
    let text = std::fs::read_to_string(dir.join(files::DB)).map_err(|e| format!("db: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("db: {e}"))
}

/// Load one JSON snapshot of the corpus.
pub fn load_snapshot(dir: &Path, name: &str) -> Result<Snapshot, String> {
    let file = std::fs::File::open(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
    Snapshot::from_reader(std::io::BufReader::new(file)).map_err(|e| format!("{name}: {e}"))
}

/// The flows the path-diff oracle says changed, rendered as the tool
/// prints flows.
pub fn oracle_flows(pair: &SnapshotPair, db: &LocationDb, g: Granularity) -> BTreeSet<String> {
    rela_baseline::oracle::oracle_verdict(pair, db, g)
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// The flows a `rela report --json` document flags.
pub fn flagged_flows(report_json: &str) -> Result<BTreeSet<String>, String> {
    let doc: Value = serde_json::from_str(report_json).map_err(|e| format!("report: {e}"))?;
    doc.get("violations")
        .and_then(Value::as_arr)
        .ok_or("report: no `violations` array")?
        .iter()
        .map(|v| {
            v.get("flow")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| "report: violation without a flow".to_owned())
        })
        .collect()
}

/// The golden report of one pair: the timed spec run in-process with
/// dedup off, one thread and fully materialized ingest — the slowest,
/// simplest configuration, sharing no shortcut with the timed path.
pub fn golden_report(
    dir: &Path,
    scale: &Scale,
    db: &LocationDb,
    post: &str,
) -> Result<String, String> {
    let source =
        std::fs::read_to_string(dir.join(files::SPEC)).map_err(|e| format!("spec: {e}"))?;
    let session = CheckSession::open(
        &source,
        db.clone(),
        SessionConfig {
            granularity: scale.granularity,
            threads: 1,
            ..SessionConfig::default()
        },
    )
    .map_err(|e| format!("spec: {e}"))?;
    let open = |name: &str| {
        std::fs::File::open(dir.join(name))
            .map(|f| LabeledSource::new(std::io::BufReader::new(f), name))
            .map_err(|e| format!("{name}: {e}"))
    };
    let report = session
        .run(
            JobSpec::streams(open(files::PRE_JSON)?, open(post)?).with_options(JobOptions {
                dedup: false,
                ingest: IngestMode::Materialized,
                use_cache: false,
                ..JobOptions::default()
            }),
        )
        .map_err(|e| format!("golden run: {e}"))?;
    Ok(report.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "\
checked 3072 traffic classes in 30.11ms: 2558 compliant, 514 violating
behavior classes: 15 (3057 cache hits, 99.5% hit rate)
violations per sub-spec:
  nochange: 259
  shift0: 256

FEC | pre-change paths | post-change paths | cause of violation
(10.0.0.0/24, ingress=inR1) | a | b | nochange: expected {a} ≠ observed {b}
verdict: FAIL
";

    #[test]
    fn the_checked_line_parses_in_every_duration_unit() {
        let parse = |t: &str| {
            parse_checked_line(&format!(
                "checked 7 traffic classes in {t}: 5 compliant, 2 violating"
            ))
            .map(|c| c.engine_s)
        };
        assert_eq!(parse("1.50s"), Some(1.5));
        assert!((parse("30.11ms").unwrap() - 0.03011).abs() < 1e-12);
        assert!((parse("45.67µs").unwrap() - 45.67e-6).abs() < 1e-12);
        assert!((parse("123.00ns").unwrap() - 123e-9).abs() < 1e-15);
        assert_eq!(parse("3.0min"), None);
        assert_eq!(parse_checked_line("verdict: PASS"), None);
        let c = parse_checked_line(REPORT.lines().next().unwrap()).unwrap();
        assert_eq!((c.total, c.compliant, c.violating), (3072, 2558, 514));
    }

    #[test]
    fn fingerprints_ignore_timing_and_engine_lines_only() {
        let base = fingerprint(REPORT);
        let retimed = REPORT.replace("30.11ms", "1.07s");
        assert_eq!(fingerprint(&retimed), base);
        let warm = REPORT.replace("99.5% hit rate)", "99.5% hit rate, 15 warm from store)");
        assert_eq!(fingerprint(&warm), base);
        let with_stats = format!(
            "{REPORT}cache: 15 warm hits / 15 classes, 0 fst memo hits, 0 graph decodes\n\
             base epoch: b9ef861a11ab9f3c6c298b6b2c4e36dc\n"
        );
        assert_eq!(fingerprint(&with_stats), base);
        // everything else is significant
        for (from, to) in [
            ("514 violating", "513 violating"),
            ("shift0: 256", "shift0: 255"),
            ("observed {b}", "observed {c}"),
            ("verdict: FAIL", "verdict: PASS"),
        ] {
            assert_ne!(fingerprint(&REPORT.replace(from, to)), base, "{from}");
        }
        let fell_back = format!(
            "delta base not retained by daemon (its base: none); sending full snapshots\n{REPORT}"
        );
        assert_ne!(fingerprint(&fell_back), base);
    }

    #[test]
    fn counts_round_trip_through_report_text_and_json() {
        let counts = Counts::from_report(REPORT).unwrap();
        assert_eq!(counts.total, 3072);
        assert_eq!(counts.violating, 514);
        assert_eq!(counts.classes, 15);
        assert_eq!(counts.part_counts["nochange"], 259);
        assert_eq!(counts.part_counts["shift0"], 256);
        assert_eq!(counts.part_counts.len(), 2);
        assert_eq!(Counts::from_value(&counts.to_value()), Some(counts.clone()));
        let doc = format!(
            "{{\"w\": [{}]}}",
            serde_json::to_string(&counts.to_value()).unwrap()
        );
        assert_eq!(parse_expected(&doc, "w"), Some(vec![counts]));
        assert_eq!(parse_expected(&doc, "other"), None);
        assert_eq!(Counts::from_report("error: no such file"), None);
    }

    #[test]
    fn flagged_flows_come_from_the_json_export() {
        let doc = r#"{"violations": [{"flow": "(10.0.0.0/24, ingress=inR1)"}, {"flow": "x"}]}"#;
        let flows = flagged_flows(doc).unwrap();
        assert_eq!(flows.len(), 2);
        assert!(flows.contains("(10.0.0.0/24, ingress=inR1)"));
        assert!(flagged_flows("{}").is_err());
    }
}
