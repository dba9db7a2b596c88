//! Check reports: per-FEC verdicts with attributed counterexamples and
//! aggregate statistics, rendered in the style of the paper's Table 1.

use crate::counterexample::EquationDiff;
use rela_net::{FlowSpec, SnapshotEpoch};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Why one sub-spec failed for one FEC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationDetail {
    /// A relational equation diff (missing / unexpected paths).
    Equation(EquationDiff),
    /// Raw RIR assertion failures, as messages.
    Raw(Vec<String>),
}

impl fmt::Display for ViolationDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationDetail::Equation(diff) => {
                let mut first = true;
                if !diff.missing.is_empty() {
                    write!(f, "expected {{{}}}", diff.missing.join(", "))?;
                    first = false;
                }
                if !diff.unexpected.is_empty() {
                    if !first {
                        write!(f, " ≠ ")?;
                    }
                    write!(f, "observed {{{}}}", diff.unexpected.join(", "))?;
                }
                Ok(())
            }
            ViolationDetail::Raw(msgs) => write!(f, "{}", msgs.join("; ")),
        }
    }
}

/// One violated sub-spec for one FEC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartViolation {
    /// The violated sub-spec's name (e.g. `e2e`, `nochange`).
    pub part: String,
    /// The evidence.
    pub detail: ViolationDetail,
}

/// The outcome for one FEC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FecResult {
    /// The traffic class.
    pub flow: FlowSpec,
    /// Which spec was checked.
    pub check_name: String,
    /// The pspec that routed this FEC, if any.
    pub route: Option<String>,
    /// Rendered pre-change paths (populated for violations only).
    pub pre_paths: Vec<String>,
    /// Rendered post-change paths (populated for violations only).
    pub post_paths: Vec<String>,
    /// The violated sub-specs; empty means compliant.
    pub violations: Vec<PartViolation>,
}

impl FecResult {
    /// Did the FEC comply?
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serialize everything except the flow (which is per-member, not
    /// per-behavior-class) for the persistent verdict cache, together
    /// with the wall/phase cost of the original decision.
    pub fn to_cache_value(&self, wall: Duration, phases: &PhaseTimings) -> Value {
        let violations: Vec<Value> = self
            .violations
            .iter()
            .map(|v| {
                let detail = match &v.detail {
                    ViolationDetail::Equation(diff) => (
                        "equation",
                        Value::obj(vec![
                            ("missing", diff.missing.to_value()),
                            ("unexpected", diff.unexpected.to_value()),
                        ]),
                    ),
                    ViolationDetail::Raw(msgs) => ("raw", msgs.to_value()),
                };
                Value::obj(vec![("part", v.part.to_value()), detail])
            })
            .collect();
        Value::obj(vec![
            ("check_name", self.check_name.to_value()),
            ("route", self.route.to_value()),
            ("pre_paths", self.pre_paths.to_value()),
            ("post_paths", self.post_paths.to_value()),
            ("violations", Value::Arr(violations)),
            ("wall_s", wall.as_secs_f64().to_value()),
            ("phases_s", phases.to_cache_value()),
        ])
    }

    /// Rebuild a cached verdict for `flow`. `None` on any shape mismatch
    /// (a malformed entry is a cache miss, never an error).
    pub fn from_cache_value(value: &Value, flow: FlowSpec) -> Option<FecResult> {
        let violations = value
            .get("violations")?
            .as_arr()?
            .iter()
            .map(|v| {
                let part = v.get("part")?.as_str()?.to_owned();
                let detail = if let Some(eq) = v.get("equation") {
                    ViolationDetail::Equation(EquationDiff {
                        missing: Vec::<String>::from_value(eq.get("missing")?).ok()?,
                        unexpected: Vec::<String>::from_value(eq.get("unexpected")?).ok()?,
                    })
                } else {
                    ViolationDetail::Raw(Vec::<String>::from_value(v.get("raw")?).ok()?)
                };
                Some(PartViolation { part, detail })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(FecResult {
            flow,
            check_name: value.get("check_name")?.as_str()?.to_owned(),
            route: Option::<String>::from_value(value.get("route")?).ok()?,
            pre_paths: Vec::<String>::from_value(value.get("pre_paths")?).ok()?,
            post_paths: Vec::<String>::from_value(value.get("post_paths")?).ok()?,
            violations,
        })
    }
}

/// The job's one table: every row of what a check spent. Four kinds of
/// row share it:
///
/// - `relations`, the wall this run paid lowering the program's
///   relations — beside its ingest when it had a second thread to give,
///   inside `decide` otherwise, and zero once its session holds them;
/// - the serial segments `replay`, `ingest`, `decide` and `assemble`,
///   read off one clock with one `Instant` read at each boundary. They
///   follow each other, so they sum to the report's `elapsed` at any
///   thread count ([`PhaseTimings::serial`]);
/// - the pipelined ingest's rows `frame`, `send_blocked`, `recv_wait`
///   and `work`: thread time summed over its producers and workers,
///   clocked once a batch, so they can exceed `ingest`. Zero on the
///   batch engine;
/// - the decide phases `lower`, `determinize`, `equivalent` and
///   `witness`: CPU time summed across behavior classes, and across
///   workers, so they can exceed `decide` when checking runs in
///   parallel. A verdict-store payload carries these four for its class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Lowering the program's relations to transducers.
    pub relations: Duration,
    /// A delta job's base lookup, delta-document parse and base replay
    /// into the engine's item list; zero for every other job.
    pub replay: Duration,
    /// Everything up to the last admitted flow: framing, the flow join,
    /// class admission, the byte-keyed store probe and graph decodes on
    /// the pipelined engine; reading, aligning and fingerprinting on the
    /// batch engine.
    pub ingest: Duration,
    /// The run's symbol table, the behavior-keyed store consult, then
    /// every class the store did not answer, decided.
    pub decide: Duration,
    /// Verdicts written back to the store, the report assembled
    /// per class, the delta base retained and the job's inputs freed.
    pub assemble: Duration,
    /// Producer time inside the feed: framing records out of a snapshot
    /// stream (or listing a delta job's items) and batching them.
    pub frame: Duration,
    /// Producer time blocked handing a full batch to the workers.
    pub send_blocked: Duration,
    /// Worker time waiting for a batch.
    pub recv_wait: Duration,
    /// Worker time on its batches: flow keys, the join, admission, the
    /// byte-keyed store probe and graph decodes.
    pub work: Duration,
    /// Building path FSAs, asking which relation transducers apply to
    /// them and applying those (includes the embedded determinization
    /// of raw-RIR lowering).
    pub lower: Duration,
    /// Subset-construction determinization of the equation sides.
    pub determinize: Duration,
    /// Language-equivalence decisions.
    pub equivalent: Duration,
    /// Counterexample extraction and path rendering.
    pub witness: Duration,
}

impl PhaseTimings {
    /// Every row with its name, in the order every serialization and
    /// `cache:` line uses: relations, the serial segments, the ingest
    /// rows, then the four decide phases.
    pub fn rows(&self) -> [(&'static str, Duration); 13] {
        [
            ("relations", self.relations),
            ("replay", self.replay),
            ("ingest", self.ingest),
            ("decide", self.decide),
            ("assemble", self.assemble),
            ("frame", self.frame),
            ("send_blocked", self.send_blocked),
            ("recv_wait", self.recv_wait),
            ("work", self.work),
            ("lower", self.lower),
            ("determinize", self.determinize),
            ("equivalent", self.equivalent),
            ("witness", self.witness),
        ]
    }

    /// `f` applied row by row to `self` and `other`.
    fn zip(&self, other: &Self, f: impl Fn(Duration, Duration) -> Duration) -> Self {
        PhaseTimings {
            relations: f(self.relations, other.relations),
            replay: f(self.replay, other.replay),
            ingest: f(self.ingest, other.ingest),
            decide: f(self.decide, other.decide),
            assemble: f(self.assemble, other.assemble),
            frame: f(self.frame, other.frame),
            send_blocked: f(self.send_blocked, other.send_blocked),
            recv_wait: f(self.recv_wait, other.recv_wait),
            work: f(self.work, other.work),
            lower: f(self.lower, other.lower),
            determinize: f(self.determinize, other.determinize),
            equivalent: f(self.equivalent, other.equivalent),
            witness: f(self.witness, other.witness),
        }
    }

    /// Accumulate another worker's (or clock's) rows into this table.
    pub fn merge(&mut self, other: &PhaseTimings) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// Per-row difference `self - earlier` (saturating): the cost of the
    /// work done between two snapshots of an accumulator.
    pub fn since(&self, earlier: &PhaseTimings) -> PhaseTimings {
        self.zip(earlier, Duration::saturating_sub)
    }

    /// The serial segments' sum: the job's wall.
    pub fn serial(&self) -> Duration {
        self.replay + self.ingest + self.decide + self.assemble
    }

    /// Serialize for the persistent verdict cache: seconds per decide
    /// phase (the last four rows), the only rows a single class has.
    pub fn to_cache_value(&self) -> Value {
        let rows = self.rows();
        seconds(&rows[rows.len() - 4..])
    }
}

impl Serialize for PhaseTimings {
    /// Seconds per row, in [`PhaseTimings::rows`] order.
    fn to_value(&self) -> Value {
        seconds(&self.rows())
    }
}

/// An object of `rows`, seconds a row.
fn seconds(rows: &[(&'static str, Duration)]) -> Value {
    let row = |&(name, wall): &(&'static str, Duration)| (name, wall.as_secs_f64().to_value());
    Value::obj(rows.iter().map(row).collect())
}

/// How the dedup-and-memoize engine spent its work: behavior-class
/// counts, cache effectiveness, and per-phase CPU time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// FECs in the snapshot pair.
    pub fecs: usize,
    /// Distinct behavior classes actually decided.
    pub classes: usize,
    /// FECs whose verdict was broadcast from a class representative
    /// (`fecs - classes`).
    pub dedup_hits: usize,
    /// Behavior classes answered from the *persistent* cross-run store
    /// without re-deciding (0 when no cache is attached).
    pub warm_hits: usize,
    /// Determinized equation sides reused from the in-run per-side FST
    /// memo instead of being recomputed.
    pub fst_memo_hits: usize,
    /// Equation sides — one per `(class, part, snapshot)` of the
    /// relational checks decided — whose path set misses the domain of
    /// the part's relation: each is the empty language, known without
    /// building its image, and a part dead on both sides is not decided
    /// at all. Every side is asked before the memo, so the two counts
    /// are a function of the inputs at any thread count.
    pub dead_sides: usize,
    /// Equation sides that have an image: built, or answered by the
    /// memo.
    pub live_sides: usize,
    /// The job's one table: relations, serial segments, ingest rows and
    /// decide phases. Not printed by `Display`; `--cache-stats`, the serve
    /// REPORT stats and `rela report --json` carry it.
    pub phases: PhaseTimings,
    /// Wall-clock of the slowest single behavior class — the quantity
    /// work-stealing bounds the critical path by.
    pub max_class_time: Duration,
    /// Forwarding graphs actually decoded during ingest. The pipelined
    /// path admits records by raw-span content hash, so byte-identical
    /// records beyond a class founder — and byte-warm classes replayed
    /// from the store — cost zero decodes. Batch paths decode every
    /// record (`2 × fecs`). Not printed by `Display` (report bytes are
    /// decode-schedule-invariant); exported via the serve stats JSON.
    pub graph_decodes: usize,
    /// The content epoch of the pair this run retained as a delta base:
    /// `None` unless the run went through the pipelined engine on a
    /// retaining session and completed. Not printed by `Display`;
    /// `rela serve` reports it as the REPORT frame's `base_epoch`.
    pub retained_epoch: Option<SnapshotEpoch>,
}

impl CheckStats {
    /// Fraction of FECs answered from the behavior cache (0 when the
    /// pair is empty).
    pub fn hit_rate(&self) -> f64 {
        if self.fecs == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.fecs as f64
        }
    }
}

impl Serialize for CheckStats {
    /// The one stats schema: the `stats` object of `rela report --json`,
    /// of a serve REPORT frame (which adds its two epoch keys) and of
    /// each arm the `perf` harness records: every counter, the
    /// decode-schedule ones `Display` omits included, and the job's table
    /// as `stages_s`. The retained epoch is the daemon's business and is
    /// left out.
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("fecs", self.fecs.to_value()),
            ("classes", self.classes.to_value()),
            ("dedup_hits", self.dedup_hits.to_value()),
            ("warm_hits", self.warm_hits.to_value()),
            ("fst_memo_hits", self.fst_memo_hits.to_value()),
            ("graph_decodes", self.graph_decodes.to_value()),
            ("hit_rate", self.hit_rate().to_value()),
            (
                "max_class_time_s",
                self.max_class_time.as_secs_f64().to_value(),
            ),
            ("live_sides", self.live_sides.to_value()),
            ("dead_sides", self.dead_sides.to_value()),
            ("stages_s", self.phases.to_value()),
        ])
    }
}

/// Aggregate result of checking a snapshot pair.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Total FECs checked.
    pub total: usize,
    /// How many complied.
    pub compliant: usize,
    /// The violating FECs, in flow order.
    pub violations: Vec<FecResult>,
    /// Violation counts per sub-spec name (the §8.1 headline numbers).
    pub part_counts: BTreeMap<String, usize>,
    /// Wall-clock time of the check.
    pub elapsed: Duration,
    /// Dedup and phase-timing statistics.
    pub stats: CheckStats,
}

impl CheckReport {
    /// Aggregate per-FEC results (already sorted by flow).
    pub fn new(results: Vec<FecResult>, elapsed: Duration) -> CheckReport {
        CheckReport::with_stats(results, elapsed, CheckStats::default())
    }

    /// Aggregate per-FEC results with engine statistics attached.
    pub fn with_stats(
        results: Vec<FecResult>,
        elapsed: Duration,
        stats: CheckStats,
    ) -> CheckReport {
        let total = results.len();
        let violations = results.into_iter().filter(|r| !r.is_compliant());
        CheckReport::assembled(total, violations.collect(), elapsed, stats)
    }

    /// Aggregate a report from its violating FECs alone (already sorted
    /// by flow) out of `total` checked: the checker assembles per class,
    /// so a compliant FEC is only ever counted.
    pub(crate) fn assembled(
        total: usize,
        violations: Vec<FecResult>,
        elapsed: Duration,
        stats: CheckStats,
    ) -> CheckReport {
        debug_assert!(violations.iter().all(|r| !r.is_compliant()));
        let mut part_counts: BTreeMap<String, usize> = BTreeMap::new();
        for v in violations.iter().flat_map(|r| &r.violations) {
            *part_counts.entry(v.part.clone()).or_insert(0) += 1;
        }
        CheckReport {
            total,
            compliant: total - violations.len(),
            violations,
            part_counts,
            elapsed,
            stats,
        }
    }

    /// "Thumbs up": every FEC complied.
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation count for one sub-spec (0 if never violated).
    pub fn count_for(&self, part: &str) -> usize {
        self.part_counts.get(part).copied().unwrap_or(0)
    }

    /// Serialize the whole report — verdict, stats, and per-FEC
    /// violations — for tooling (`rela report --json`). Unlike the
    /// `Display` table nothing is clipped, and what `Display`
    /// deliberately omits — the decode-schedule counters
    /// (`graph_decodes`), the live / dead sides and the job's table — is
    /// included.
    pub fn to_value(&self) -> Value {
        let violations: Vec<Value> = self
            .violations
            .iter()
            .map(|v| {
                let parts: Vec<Value> = v
                    .violations
                    .iter()
                    .map(|p| {
                        Value::obj(vec![
                            ("part", p.part.to_value()),
                            ("detail", p.detail.to_string().to_value()),
                        ])
                    })
                    .collect();
                Value::obj(vec![
                    ("flow", v.flow.to_string().to_value()),
                    ("check_name", v.check_name.to_value()),
                    ("route", v.route.to_value()),
                    ("pre_paths", v.pre_paths.to_value()),
                    ("post_paths", v.post_paths.to_value()),
                    ("violations", Value::Arr(parts)),
                ])
            })
            .collect();
        let part_counts: Vec<(String, Value)> = self
            .part_counts
            .iter()
            .map(|(part, count)| (part.clone(), count.to_value()))
            .collect();
        Value::obj(vec![
            (
                "verdict",
                if self.is_compliant() { "PASS" } else { "FAIL" }.to_value(),
            ),
            ("total", self.total.to_value()),
            ("compliant", self.compliant.to_value()),
            ("violating", self.violations.len().to_value()),
            ("elapsed_s", self.elapsed.as_secs_f64().to_value()),
            ("part_counts", Value::Obj(part_counts)),
            ("stats", self.stats.to_value()),
            ("violations", Value::Arr(violations)),
        ])
    }

    /// Render the per-FEC verdict table as CSV (`rela report --csv`):
    /// one row per violated sub-spec, header only when compliant.
    /// Aggregate stats ride the JSON export, not this table.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("flow,check,route,part,detail,pre_paths,post_paths\n");
        for v in &self.violations {
            for p in &v.violations {
                let row = [
                    v.flow.to_string(),
                    v.check_name.clone(),
                    v.route.clone().unwrap_or_default(),
                    p.part.clone(),
                    p.detail.to_string(),
                    v.pre_paths.join("; "),
                    v.post_paths.join("; "),
                ];
                let escaped: Vec<String> = row.iter().map(|field| csv_field(field)).collect();
                out.push_str(&escaped.join(","));
                out.push('\n');
            }
        }
        out
    }
}

/// Quote a CSV field when it contains a delimiter, quote, or newline
/// (RFC 4180 escaping: embedded quotes double).
fn csv_field(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "checked {} traffic classes in {:.2?}: {} compliant, {} violating",
            self.total,
            self.elapsed,
            self.compliant,
            self.violations.len()
        )?;
        if self.stats.classes > 0 {
            write!(
                f,
                "behavior classes: {} ({} cache hits, {:.1}% hit rate",
                self.stats.classes,
                self.stats.dedup_hits,
                100.0 * self.stats.hit_rate(),
            )?;
            if self.stats.warm_hits > 0 {
                write!(f, ", {} warm from store", self.stats.warm_hits)?;
            }
            writeln!(f, ")")?;
        }
        if self.is_compliant() {
            return writeln!(f, "verdict: PASS");
        }
        writeln!(f, "violations per sub-spec:")?;
        for (part, count) in &self.part_counts {
            writeln!(f, "  {part}: {count}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "{:<38} | {:<34} | {:<34} | cause of violation",
            "FEC", "pre-change paths", "post-change paths"
        )?;
        let dash = "-".repeat(120);
        writeln!(f, "{dash}")?;
        for v in &self.violations {
            let pre = clip(&v.pre_paths.join(" ; "), 34);
            let post = clip(&v.post_paths.join(" ; "), 34);
            for (i, pv) in v.violations.iter().enumerate() {
                let fec = if i == 0 {
                    clip(&v.flow.to_string(), 38)
                } else {
                    String::new()
                };
                let (p1, p2) = if i == 0 {
                    (pre.as_str(), post.as_str())
                } else {
                    ("", "")
                };
                writeln!(
                    f,
                    "{fec:<38} | {p1:<34} | {p2:<34} | {}: {}",
                    pv.part, pv.detail
                )?;
            }
        }
        writeln!(f, "verdict: FAIL")
    }
}

fn clip(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_owned()
    } else {
        let cut: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(dst: &str) -> FlowSpec {
        FlowSpec::new(dst.parse().unwrap(), "x1")
    }

    fn violation(part: &str) -> PartViolation {
        PartViolation {
            part: part.into(),
            detail: ViolationDetail::Equation(EquationDiff {
                missing: vec!["x1 A1 y1".into()],
                unexpected: vec!["x1 B1 y1".into()],
            }),
        }
    }

    fn result(dst: &str, parts: &[&str]) -> FecResult {
        FecResult {
            flow: flow(dst),
            check_name: "change".into(),
            route: None,
            pre_paths: vec!["x1 A1 y1".into()],
            post_paths: vec!["x1 B1 y1".into()],
            violations: parts.iter().map(|p| violation(p)).collect(),
        }
    }

    #[test]
    fn aggregates_counts_per_part() {
        let report = CheckReport::new(
            vec![
                result("10.1.0.0/24", &["e2e"]),
                result("10.1.1.0/24", &["e2e", "nochange"]),
                result("10.1.2.0/24", &[]),
            ],
            Duration::from_millis(5),
        );
        assert_eq!(report.total, 3);
        assert_eq!(report.compliant, 1);
        assert_eq!(report.count_for("e2e"), 2);
        assert_eq!(report.count_for("nochange"), 1);
        assert_eq!(report.count_for("ghost"), 0);
        assert!(!report.is_compliant());
    }

    #[test]
    fn display_contains_table_elements() {
        let report = CheckReport::new(
            vec![result("10.1.0.0/24", &["e2e"])],
            Duration::from_millis(5),
        );
        let text = report.to_string();
        assert!(text.contains("FEC"));
        assert!(text.contains("(10.1.0.0/24, ingress=x1)"));
        assert!(text.contains("e2e"));
        assert!(text.contains("expected {x1 A1 y1}"));
        assert!(text.contains("observed {x1 B1 y1}"));
        assert!(text.contains("verdict: FAIL"));
    }

    #[test]
    fn compliant_report_displays_pass() {
        let report = CheckReport::new(vec![], Duration::from_millis(1));
        assert!(report.is_compliant());
        assert!(report.to_string().contains("verdict: PASS"));
    }

    #[test]
    fn cache_value_roundtrips_verdicts() {
        let mut original = result("10.1.0.0/24", &["e2e", "nochange"]);
        original.route = Some("shiftP".into());
        original.violations.push(PartViolation {
            part: "side".into(),
            detail: ViolationDetail::Raw(vec!["inclusion violated".into()]),
        });
        let phases = PhaseTimings {
            lower: Duration::from_millis(2),
            ..PhaseTimings::default()
        };
        let value = original.to_cache_value(Duration::from_millis(7), &phases);
        // survive a JSON print/parse cycle, as the on-disk store does
        let text = serde_json::to_string(&value).unwrap();
        let reread: Value = serde_json::from_str(&text).unwrap();
        let back = FecResult::from_cache_value(&reread, original.flow.clone()).unwrap();
        assert_eq!(back, original);
        // cost metadata rides along for forensics
        assert!(reread.get("wall_s").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(
            reread
                .get("phases_s")
                .and_then(|p| p.get("lower"))
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        // malformed entries are misses, not panics
        assert!(FecResult::from_cache_value(&Value::Null, original.flow.clone()).is_none());
        assert!(FecResult::from_cache_value(
            &Value::obj(vec![("check_name", Value::Int(3))]),
            original.flow
        )
        .is_none());
    }

    #[test]
    fn json_export_carries_stats_and_verdicts() {
        let mut report = CheckReport::new(
            vec![result("10.1.0.0/24", &["e2e"]), result("10.1.2.0/24", &[])],
            Duration::from_millis(5),
        );
        report.stats.fecs = 2;
        report.stats.classes = 1;
        report.stats.graph_decodes = 4;
        report.stats.live_sides = 3;
        report.stats.dead_sides = 5;
        let ms = Duration::from_millis;
        report.stats.phases = PhaseTimings {
            relations: ms(2),
            ingest: ms(3),
            decide: ms(1),
            assemble: ms(1),
            frame: ms(6),
            work: ms(7),
            lower: ms(4),
            witness: ms(5),
            ..PhaseTimings::default()
        };
        let value = report.to_value();
        // survive a JSON print/parse cycle, as tooling consumes it
        let text = serde_json::to_string(&value).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("verdict").and_then(Value::as_str), Some("FAIL"));
        assert_eq!(back.get("total").and_then(Value::as_u64), Some(2));
        assert_eq!(back.get("compliant").and_then(Value::as_u64), Some(1));
        let stats = back.get("stats").unwrap();
        assert_eq!(stats.get("graph_decodes").and_then(Value::as_u64), Some(4));
        assert_eq!(stats.get("live_sides").and_then(Value::as_u64), Some(3));
        assert_eq!(stats.get("dead_sides").and_then(Value::as_u64), Some(5));
        // one table, one key: no row travels outside `stages_s`
        for gone in ["phases_s", "relations_s"] {
            assert!(stats.get(gone).is_none(), "{gone} in {stats:?}");
        }
        let stages = stats.get("stages_s").unwrap();
        let names: Vec<&str> = stages
            .as_obj()
            .unwrap()
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "relations",
                "replay",
                "ingest",
                "decide",
                "assemble",
                "frame",
                "send_blocked",
                "recv_wait",
                "work",
                "lower",
                "determinize",
                "equivalent",
                "witness"
            ]
        );
        let seconds: Vec<f64> = names
            .iter()
            .map(|name| stages.get(name).and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(
            seconds,
            [0.002, 0.0, 0.003, 0.001, 0.001, 0.006, 0.0, 0.0, 0.007, 0.004, 0.0, 0.0, 0.005]
        );
        assert_eq!(
            back.get("part_counts")
                .and_then(|p| p.get("e2e"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let violations = back.get("violations").and_then(Value::as_arr).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].get("flow").and_then(Value::as_str),
            Some("(10.1.0.0/24, ingress=x1)")
        );
        let parts = violations[0]
            .get("violations")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(parts[0].get("part").and_then(Value::as_str), Some("e2e"));
        assert!(parts[0]
            .get("detail")
            .and_then(Value::as_str)
            .unwrap()
            .contains("expected"));
    }

    /// A verdict-store payload is one class's cost: its `phases_s` holds
    /// the four decide phases and nothing of the job's other rows, so
    /// stores written before the table grew read the same.
    #[test]
    fn a_store_payload_keeps_the_four_decide_phases() {
        let full = PhaseTimings {
            relations: Duration::from_millis(1),
            ingest: Duration::from_millis(2),
            frame: Duration::from_millis(4),
            determinize: Duration::from_millis(3),
            ..PhaseTimings::default()
        };
        let value = result("10.1.0.0/24", &["e2e"]).to_cache_value(Duration::ZERO, &full);
        let phases = value.get("phases_s").and_then(Value::as_obj).unwrap();
        let names: Vec<&str> = phases.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["lower", "determinize", "equivalent", "witness"]);
        assert_eq!(phases[1].1.as_f64(), Some(0.003));
    }

    #[test]
    fn csv_export_is_one_row_per_violated_part() {
        let report = CheckReport::new(
            vec![result("10.1.0.0/24", &["e2e", "nochange"])],
            Duration::from_millis(5),
        );
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "{csv}");
        assert_eq!(
            lines[0],
            "flow,check,route,part,detail,pre_paths,post_paths"
        );
        // the flow's display form contains a comma, so it must be quoted
        assert!(
            lines[1].starts_with("\"(10.1.0.0/24, ingress=x1)\","),
            "{csv}"
        );
        assert!(lines[1].contains(",e2e,"), "{csv}");
        assert!(lines[2].contains(",nochange,"), "{csv}");

        // a compliant report is just the header
        let clean = CheckReport::new(vec![], Duration::from_millis(1));
        assert_eq!(clean.to_csv().lines().count(), 1);

        // embedded quotes double per RFC 4180
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn phase_timings_since_is_saturating() {
        let a = PhaseTimings {
            lower: Duration::from_millis(5),
            determinize: Duration::from_millis(1),
            ..PhaseTimings::default()
        };
        let b = PhaseTimings {
            lower: Duration::from_millis(2),
            determinize: Duration::from_millis(3),
            ..PhaseTimings::default()
        };
        let d = a.since(&b);
        assert_eq!(d.lower, Duration::from_millis(3));
        assert_eq!(d.determinize, Duration::ZERO);
    }

    #[test]
    fn clip_truncates_long_text() {
        assert_eq!(clip("short", 10), "short");
        let long = "x".repeat(50);
        let clipped = clip(&long, 10);
        assert_eq!(clipped.chars().count(), 10);
        assert!(clipped.ends_with('…'));
    }
}
