//! Edge cases of the machine-readable report exports (`rela report
//! --csv` / `--json`), asserted against the documented schema: empty
//! reports, fields containing the CSV delimiter/quote/newline set, and
//! verdict-only rows with no rendered paths. The CSV assertions go
//! through a small RFC-4180 parser so the escaping contract (quote
//! when a field contains `"`, `,`, `\n`, or `\r`; double embedded
//! quotes) is checked end to end, not by string comparison.

use rela_core::{CheckReport, EquationDiff, FecResult, PartViolation, ViolationDetail};
use rela_net::{FlowSpec, Ipv4Prefix};
use serde::Value;
use std::time::Duration;

fn flow(tag: u8) -> FlowSpec {
    FlowSpec::new(
        Ipv4Prefix::from_octets(10, tag, 0, 0, 24),
        format!("in{tag}"),
    )
}

fn violating(
    tag: u8,
    check_name: &str,
    part: &str,
    detail: ViolationDetail,
    pre_paths: Vec<String>,
    post_paths: Vec<String>,
) -> FecResult {
    FecResult {
        flow: flow(tag),
        check_name: check_name.to_owned(),
        route: None,
        pre_paths,
        post_paths,
        violations: vec![PartViolation {
            part: part.to_owned(),
            detail,
        }],
    }
}

/// A minimal RFC-4180 parser: rows of fields, quoted fields may embed
/// the delimiter, newlines, and doubled quotes.
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        quoted = false;
                    }
                }
                c => field.push(c),
            }
            continue;
        }
        match c {
            '"' => quoted = true,
            ',' => row.push(std::mem::take(&mut field)),
            '\n' => {
                row.push(std::mem::take(&mut field));
                rows.push(std::mem::take(&mut row));
            }
            '\r' => {}
            c => field.push(c),
        }
    }
    assert!(!quoted, "unterminated quoted field");
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

const HEADER: [&str; 7] = [
    "flow",
    "check",
    "route",
    "part",
    "detail",
    "pre_paths",
    "post_paths",
];

#[test]
fn empty_report_exports_header_only_csv_and_pass_json() {
    let report = CheckReport::new(Vec::new(), Duration::from_millis(5));
    let rows = parse_csv(&report.to_csv());
    assert_eq!(rows.len(), 1, "an empty report is exactly the header");
    assert_eq!(rows[0], HEADER);
    let json = serde_json::to_string_pretty(&report.to_value()).unwrap();
    let value: Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value.get("verdict").and_then(Value::as_str), Some("PASS"));
    assert_eq!(value.get("total").and_then(Value::as_f64), Some(0.0));
    assert_eq!(value.get("violating").and_then(Value::as_f64), Some(0.0));
    let violations = match value.get("violations") {
        Some(Value::Arr(items)) => items,
        other => panic!("violations should be an array, got {other:?}"),
    };
    assert!(violations.is_empty());
}

#[test]
fn csv_escapes_delimiters_quotes_and_newlines_round_trip() {
    // every hostile character class the escaping contract names, spread
    // across the columns that carry free text
    let detail = ViolationDetail::Raw(vec![
        "path \"A\", then B".to_owned(),
        "second\nline".to_owned(),
        "carriage\rreturn".to_owned(),
    ]);
    let result = violating(
        1,
        "drain, phase \"2\"",
        "e2e,else",
        detail,
        vec!["inR0, R0C".to_owned(), "alt \"path\"".to_owned()],
        vec!["out\nlined".to_owned()],
    );
    let report = CheckReport::new(vec![result.clone()], Duration::from_millis(1));
    let rows = parse_csv(&report.to_csv());
    assert_eq!(rows.len(), 2, "one violated part, one row");
    assert_eq!(rows[0], HEADER);
    let row = &rows[1];
    assert_eq!(row[0], result.flow.to_string());
    assert_eq!(row[1], "drain, phase \"2\"");
    assert_eq!(row[2], "", "no route: empty field");
    assert_eq!(row[3], "e2e,else");
    // Raw details join with "; ", paths with "; " — the parser must get
    // back exactly the joined strings, bytes intact
    assert_eq!(row[4], "path \"A\", then B; second\nline; carriage\rreturn");
    assert_eq!(row[5], "inR0, R0C; alt \"path\"");
    assert_eq!(row[6], "out\nlined");
    // and the raw text never leaks an unquoted hostile byte: reparsing
    // yields the same shape (already covered), but also every record
    // boundary is a real row boundary
    assert!(report.to_csv().matches("\n").count() >= 2);
}

#[test]
fn verdict_only_rows_export_empty_paths_and_null_route() {
    // a verdict-only row: the checker flagged the flow but rendered no
    // witness paths (list_paths 0) and no pspec routed it
    let result = violating(
        2,
        "nochange",
        "nochange",
        ViolationDetail::Equation(EquationDiff {
            missing: vec![],
            unexpected: vec![],
        }),
        Vec::new(),
        Vec::new(),
    );
    let report = CheckReport::new(vec![result], Duration::from_millis(1));
    let rows = parse_csv(&report.to_csv());
    assert_eq!(rows.len(), 2);
    let row = &rows[1];
    assert_eq!(row[2], "", "route column is empty");
    assert_eq!(row[4], "", "an empty equation diff renders empty");
    assert_eq!(row[5], "");
    assert_eq!(row[6], "");
    let value: Value =
        serde_json::from_str(&serde_json::to_string_pretty(&report.to_value()).unwrap()).unwrap();
    assert_eq!(value.get("verdict").and_then(Value::as_str), Some("FAIL"));
    let entry = match value.get("violations") {
        Some(Value::Arr(items)) => &items[0],
        other => panic!("violations should be an array, got {other:?}"),
    };
    assert!(matches!(entry.get("route"), Some(Value::Null)));
    for key in ["pre_paths", "post_paths"] {
        match entry.get(key) {
            Some(Value::Arr(items)) => assert!(items.is_empty(), "{key} should be empty"),
            other => panic!("{key} should be an array, got {other:?}"),
        }
    }
}

#[test]
fn json_export_carries_the_documented_schema_keys() {
    let result = violating(
        3,
        "change",
        "shift0",
        ViolationDetail::Equation(EquationDiff {
            missing: vec!["inR0 R0C outR1".to_owned()],
            unexpected: vec!["inR0 R2C outR1".to_owned()],
        }),
        vec!["inR0 R0C outR1".to_owned()],
        vec!["inR0 R2C outR1".to_owned()],
    );
    let report = CheckReport::new(vec![result], Duration::from_millis(2));
    let value: Value =
        serde_json::from_str(&serde_json::to_string_pretty(&report.to_value()).unwrap()).unwrap();
    for key in [
        "verdict",
        "total",
        "compliant",
        "violating",
        "elapsed_s",
        "part_counts",
        "stats",
        "violations",
    ] {
        assert!(value.get(key).is_some(), "missing top-level key {key}");
    }
    let stats = value.get("stats").unwrap();
    for key in [
        "fecs",
        "classes",
        "dedup_hits",
        "warm_hits",
        "fst_memo_hits",
        "graph_decodes",
        "hit_rate",
        "max_class_time_s",
        "stages_s",
    ] {
        assert!(stats.get(key).is_some(), "missing stats key {key}");
    }
    let entry = match value.get("violations") {
        Some(Value::Arr(items)) => &items[0],
        other => panic!("violations should be an array, got {other:?}"),
    };
    for key in [
        "flow",
        "check_name",
        "route",
        "pre_paths",
        "post_paths",
        "violations",
    ] {
        assert!(entry.get(key).is_some(), "missing violation key {key}");
    }
    // part counts index the violated sub-spec
    let counts = value.get("part_counts").unwrap();
    assert_eq!(counts.get("shift0").and_then(Value::as_f64), Some(1.0));
    // the equation detail renders both directions
    let part = match entry.get("violations") {
        Some(Value::Arr(parts)) => &parts[0],
        other => panic!("parts should be an array, got {other:?}"),
    };
    let detail = part.get("detail").and_then(Value::as_str).unwrap();
    assert!(
        detail.contains("expected") && detail.contains("observed"),
        "{detail}"
    );
}
