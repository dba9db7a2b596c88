//! End-to-end CLI test: drive `rela::cli::parse_args`/`run` over real
//! files on disk — the quickstart example's network and spec — and
//! assert the three exit-code contracts the change pipeline relies on:
//! 0 = compliant, 1 = violations found, 2 = usage/input error.

use rela::cli::{parse_args, run, Command};
use rela::lang::IngestMode;
use rela::net::{linear_graph, Device, FlowSpec, LocationDb, Snapshot};
use std::path::{Path, PathBuf};

/// The quickstart scenario (`examples/quickstart.rs`): web traffic moves
/// from B1 to A2, DNS must stay put.
const SPEC: &str = r#"
    spec moveWeb := { x1 .* y1 : replace(x1 B1 y1, x1 A2 y1) }
    spec nochange := { .* : preserve }
    pspec webP := (dstPrefix == 10.1.0.0/24) -> moveWeb
    check nochange
"#;

struct Workdir {
    dir: PathBuf,
}

impl Workdir {
    fn new(tag: &str) -> Workdir {
        let dir = std::env::temp_dir().join(format!("rela-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create workdir");
        Workdir { dir }
    }

    fn write(&self, name: &str, contents: String) -> PathBuf {
        let path = self.dir.join(name);
        std::fs::write(&path, contents).expect("write input file");
        path
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn quickstart_inputs(work: &Workdir) -> (PathBuf, PathBuf, PathBuf) {
    let mut db = LocationDb::new();
    for name in ["x1", "A2", "B1", "y1"] {
        db.add_device(Device::new(name, name));
    }
    let web = FlowSpec::new("10.1.0.0/24".parse().unwrap(), "x1");
    let dns = FlowSpec::new("10.2.0.0/24".parse().unwrap(), "x1");

    let mut pre = Snapshot::new();
    pre.insert(web.clone(), linear_graph(&["x1", "B1", "y1"]));
    pre.insert(dns.clone(), linear_graph(&["x1", "B1", "y1"]));

    // correct implementation: only web moved
    let mut post_good = Snapshot::new();
    post_good.insert(web.clone(), linear_graph(&["x1", "A2", "y1"]));
    post_good.insert(dns.clone(), linear_graph(&["x1", "B1", "y1"]));

    // buggy implementation: DNS moved too (collateral damage)
    let mut post_bad = Snapshot::new();
    post_bad.insert(web, linear_graph(&["x1", "A2", "y1"]));
    post_bad.insert(dns, linear_graph(&["x1", "A2", "y1"]));

    let db_path = work.write("db.json", serde_json::to_string(&db).unwrap());
    work.write("spec.rela", SPEC.to_owned());
    work.write("pre.json", pre.to_json().unwrap());
    let good = work.write("post_good.json", post_good.to_json().unwrap());
    let bad = work.write("post_bad.json", post_bad.to_json().unwrap());
    (db_path, good, bad)
}

fn check_args(work: &Workdir, db: &Path, pre: &Path, post: &Path) -> Vec<String> {
    vec![
        "check".to_owned(),
        "--spec".to_owned(),
        work.dir.join("spec.rela").display().to_string(),
        "--db".to_owned(),
        db.display().to_string(),
        "--pre".to_owned(),
        pre.display().to_string(),
        "--post".to_owned(),
        post.display().to_string(),
        "--granularity".to_owned(),
        "device".to_owned(),
    ]
}

fn check_cmd(work: &Workdir, db: &Path, post: &Path) -> Command {
    parse_args(&check_args(work, db, &work.dir.join("pre.json"), post)).expect("valid command line")
}

#[test]
fn compliant_change_exits_zero() {
    let work = Workdir::new("ok");
    let (db, good, _) = quickstart_inputs(&work);
    let mut out = Vec::new();
    let code = run(&check_cmd(&work, &db, &good), &mut out).expect("runs");
    let text = String::from_utf8(out).unwrap();
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("PASS"), "{text}");
}

#[test]
fn violating_change_exits_one_with_counterexample() {
    let work = Workdir::new("violation");
    let (db, _, bad) = quickstart_inputs(&work);
    let mut out = Vec::new();
    let code = run(&check_cmd(&work, &db, &bad), &mut out).expect("runs");
    let text = String::from_utf8(out).unwrap();
    assert_eq!(code, 1, "{text}");
    // the collateral-damage flow must be attributed in the report
    assert!(text.contains("10.2.0.0/24"), "{text}");
}

#[test]
fn usage_and_input_errors_exit_two() {
    // unknown flag value / missing required flag → parse error, code 2
    let err = parse_args(&["check".to_owned(), "--spec".to_owned(), "x".to_owned()])
        .expect_err("incomplete command line");
    assert_eq!(err.code, 2);

    // well-formed command line over missing files → input error, code 2
    let work = Workdir::new("missing");
    let (db, good, _) = quickstart_inputs(&work);
    let mut cmd = check_cmd(&work, &db, &good);
    match &mut cmd {
        Command::Check { spec, .. } => *spec = work.dir.join("nonexistent.rela"),
        other => panic!("unexpected {other:?}"),
    }
    let mut out = Vec::new();
    let err = run(&cmd, &mut out).expect_err("missing spec file");
    assert_eq!(err.code, 2);

    // unparseable spec → input error, code 2
    let work2 = Workdir::new("badspec");
    let (db2, good2, _) = quickstart_inputs(&work2);
    work2.write("spec.rela", "spec oops := { : }".to_owned());
    let mut out = Vec::new();
    let err = run(&check_cmd(&work2, &db2, &good2), &mut out).expect_err("invalid spec");
    assert_eq!(err.code, 2);
}

/// Run the `rela` binary to its exit, killing it if it is still running
/// after ten seconds (it then has no exit code), and return its exit
/// code and its report without the line that carries the wall time.
fn rela_child(args: &[String]) -> (Option<i32>, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_rela"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn rela");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while child.try_wait().expect("poll rela").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().expect("kill rela");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let output = child.wait_with_output().expect("collect rela");
    let report: Vec<&str> = std::str::from_utf8(&output.stdout)
        .expect("utf-8 report")
        .lines()
        .filter(|line| !line.starts_with("checked "))
        .collect();
    (output.status.code(), report.join("\n"))
}

/// `docs/INGEST.md`: a named pipe takes the buffered open. A FIFO's
/// bytes go to whichever open reads them, so a path that is opened once
/// to look at its head and again to read it never sees them: the second
/// open waits for a writer that has been and gone.
#[test]
fn snapshots_fed_through_named_pipes_check_like_the_files() {
    let work = Workdir::new("fifo");
    let (db, _, bad) = quickstart_inputs(&work);
    let json = (work.dir.join("pre.json"), bad);
    let pack = |input: &Path, name: &str| {
        let output = work.dir.join(name);
        let cmd = Command::SnapshotPack {
            input: input.to_owned(),
            output: output.clone(),
            unpack: false,
        };
        assert_eq!(run(&cmd, &mut Vec::new()).expect("packs"), 0);
        output
    };
    let rsnb = (pack(&json.0, "pre.rsnb"), pack(&json.1, "post.rsnb"));
    for (container, (pre, post)) in [("json", json), ("rsnb", rsnb)] {
        let (code, from_files) = rela_child(&check_args(&work, &db, &pre, &post));
        assert_eq!(code, Some(1), "{container}: {from_files}");

        let pipes = [
            work.dir.join(format!("{container}-pre.fifo")),
            work.dir.join(format!("{container}-post.fifo")),
        ];
        let made = std::process::Command::new("mkfifo")
            .args(&pipes)
            .status()
            .expect("spawn mkfifo");
        assert!(made.success(), "mkfifo {pipes:?}");
        let writers: Vec<_> = [&pre, &post]
            .into_iter()
            .zip(&pipes)
            .map(|(file, pipe)| {
                let bytes = std::fs::read(file).expect("read snapshot");
                let pipe = pipe.clone();
                // opening a FIFO for writing waits for its reader
                std::thread::spawn(move || std::fs::write(pipe, bytes))
            })
            .collect();
        let (code, from_pipes) = rela_child(&check_args(&work, &db, &pipes[0], &pipes[1]));
        // a writer nobody read from is still waiting in its open:
        // opening the pipe both ways lets it through, dropping that
        // handle fails whatever it has not written yet
        for pipe in &pipes {
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(pipe)
                .expect("open fifo");
        }
        for writer in writers {
            writer.join().expect("writer thread").ok();
        }
        assert_eq!(code, Some(1), "{container}: {from_pipes}");
        assert_eq!(from_pipes, from_files, "{container}");
    }
}

/// `rela diff` reads a snapshot the way `rela check` does: an RSNB file
/// diffs like its JSON source, and a duplicated flow is the same exit-2
/// error naming the same entry and byte, not a silent last-wins.
#[test]
fn diff_reads_snapshots_the_way_check_does() {
    let work = Workdir::new("diff-read");
    let (db, _, bad) = quickstart_inputs(&work);
    let pre = work.dir.join("pre.json");
    let diff = |pre: &Path, post: &Path| Command::Diff {
        db: db.clone(),
        pre: pre.to_owned(),
        post: post.to_owned(),
        granularity: rela::net::Granularity::Device,
    };
    let outcome = |cmd: &Command| {
        let mut out = Vec::new();
        let code = run(cmd, &mut out).map_err(|e| (e.code, e.message));
        (code, String::from_utf8(out).unwrap())
    };

    let rsnb = work.dir.join("pre.rsnb");
    let pack = Command::SnapshotPack {
        input: pre.clone(),
        output: rsnb.clone(),
        unpack: false,
    };
    assert_eq!(run(&pack, &mut Vec::new()).expect("packs"), 0);
    let from_json = outcome(&diff(&pre, &bad));
    assert_eq!(from_json.0, Ok(1), "{from_json:?}");
    assert_eq!(outcome(&diff(&rsnb, &bad)), from_json);

    // the second copy of the first record is entry #2
    let mut doc: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&pre).unwrap()).expect("pre.json parses");
    if let serde::Value::Obj(fields) = &mut doc {
        if let serde::Value::Arr(fecs) = &mut fields[0].1 {
            fecs.push(fecs[0].clone());
        }
    }
    let twice = work.write("twice.json", serde_json::to_string(&doc).unwrap());
    let (diffed, _) = outcome(&diff(&twice, &bad));
    let (checked, _) = outcome(&parse_args(&check_args(&work, &db, &twice, &bad)).unwrap());
    let (code, message) = diffed.expect_err("a duplicated flow is an input error");
    assert_eq!(code, 2, "{message}");
    assert!(message.contains("snapshot entry #2"), "{message}");
    assert!(message.contains("twice.json"), "{message}");
    assert_eq!(Err((code, message)), checked);
}

/// Write a pair whose only difference is longer than the witness length
/// bound (64): a 70-device chain before the change, no path after it.
fn long_chain_inputs(work: &Workdir, spec: &str) -> Vec<String> {
    let names: Vec<String> = (0..70).map(|i| format!("hop{i}")).collect();
    let mut db = LocationDb::new();
    for name in &names {
        db.add_device(Device::new(name.as_str(), name.as_str()));
    }
    let chain: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut pre = Snapshot::new();
    pre.insert(
        FlowSpec::new("10.1.0.0/24".parse().unwrap(), "hop0"),
        linear_graph(&chain),
    );
    let files = [
        ("--spec", work.write("spec.rela", spec.to_owned())),
        (
            "--db",
            work.write("db.json", serde_json::to_string(&db).unwrap()),
        ),
        ("--pre", work.write("pre.json", pre.to_json().unwrap())),
        (
            "--post",
            work.write("post.json", Snapshot::new().to_json().unwrap()),
        ),
    ];
    let mut args = vec!["check".to_owned()];
    for (flag, path) in files {
        args.extend([flag.to_owned(), path.display().to_string()]);
    }
    args.extend(["--granularity".to_owned(), "device".to_owned()]);
    args
}

#[test]
fn a_difference_past_the_witness_length_fails_with_a_reason_in_both_engines() {
    let cases = [
        (
            "rir keep := pre <= post\ncheck keep",
            "inclusion violated; extra paths: hop0 hop1 ",
        ),
        (
            "spec nochange := { .* : preserve }\ncheck nochange",
            "nochange: expected {hop0 hop1 ",
        ),
    ];
    for (ix, (spec, reason)) in cases.into_iter().enumerate() {
        let work = Workdir::new(&format!("long-chain-{ix}"));
        let pipelined = parse_args(&long_chain_inputs(&work, spec)).expect("valid command line");
        // the batch engine has no flag: it is reached through the API
        let mut batch = pipelined.clone();
        match &mut batch {
            Command::Check { job, .. } => job.ingest = IngestMode::Materialized,
            other => panic!("unexpected {other:?}"),
        }
        for cmd in [pipelined, batch] {
            let mut out = Vec::new();
            let code = run(&cmd, &mut out).expect("runs");
            let text = String::from_utf8(out).unwrap();
            assert_eq!(code, 1, "{cmd:?}\n{text}");
            assert!(text.contains(reason), "{cmd:?}\n{text}");
            assert!(text.contains("verdict: FAIL"), "{cmd:?}\n{text}");
        }
    }
}
