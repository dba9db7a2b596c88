//! End-to-end CLI tests: drive `rela::cli::parse_args`/`run` over real
//! files on disk — the quickstart example's network and spec, and the
//! Figure 1 demo — and assert the three exit-code contracts the change
//! pipeline relies on: 0 = compliant, 1 = violations found, 2 =
//! usage/input error. Every command is built from an argv, as `main`
//! builds it; the cases that must see the process's own stdout, stderr
//! or signals spawn the `rela` binary.

use rela::cli::{parse_args, run, CliError, Command, Output};
use rela::lang::IngestMode;
use rela::net::{linear_graph, Device, FlowSpec, Granularity, LocationDb, Snapshot};
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
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create workdir");
        Workdir { dir }
    }

    /// A workdir holding the Figure 1 demo (`rela demo`'s files).
    fn demo(tag: &str) -> Workdir {
        let work = Workdir::new(tag);
        let (code, _) = rela(&["demo", "--out", &work.path("")]);
        assert_eq!(code, 0);
        work
    }

    /// `name` in the workdir, as an argv word.
    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    /// `rela check` of `pre` against `post` over the demo's spec and db,
    /// with `extra` flags (on one thread unless they say otherwise).
    fn check(&self, pre: &str, post: &str, extra: &[&str]) -> Vec<String> {
        let mut argv = vec!["check".to_owned()];
        for (flag, name) in [
            ("--spec", "change.rela"),
            ("--db", "db.json"),
            ("--pre", pre),
            ("--post", post),
        ] {
            argv.extend([flag.to_owned(), self.path(name)]);
        }
        if !extra.contains(&"--threads") {
            argv.extend(["--threads", "1"].map(str::to_owned));
        }
        argv.extend(extra.iter().map(|s| s.to_string()));
        argv
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

fn argv<S: AsRef<str>>(words: &[S]) -> Vec<String> {
    words.iter().map(|w| w.as_ref().to_owned()).collect()
}

/// Parse a command line that must parse.
fn parse<S: AsRef<str>>(words: &[S]) -> Command {
    parse_args(&argv(words)).unwrap_or_else(|e| panic!("{:?}: {e}", argv(words)))
}

/// Parse a command line that must be refused: its usage error.
fn refused<S: AsRef<str>>(words: &[S]) -> CliError {
    let err = parse_args(&argv(words)).expect_err("a usage error");
    assert_eq!(err.code, 2, "{:?}: {err}", argv(words));
    err
}

/// Run a command in process: its exit code, or its error.
fn outcome(cmd: &Command) -> (Result<i32, CliError>, String) {
    let mut out = Vec::new();
    let code = run(cmd, &mut out);
    (code, String::from_utf8(out).unwrap())
}

/// Parse and run a command line that must run: its exit code and stdout.
fn rela<S: AsRef<str>>(words: &[S]) -> (i32, String) {
    let (code, text) = outcome(&parse(words));
    (
        code.unwrap_or_else(|e| panic!("{:?}: {e}", argv(words))),
        text,
    )
}

/// A report without its timing line.
fn verdicts(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("checked "))
        .collect::<Vec<_>>()
        .join("\n")
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
        Command::Check(args) => args.session.spec = work.dir.join("nonexistent.rela"),
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
/// after ten seconds (it then has no exit code, as when a signal ends
/// it), and return its exit code, stdout and stderr.
fn rela_child(args: &[String]) -> (Option<i32>, String, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_rela"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
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
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (
        output.status.code(),
        text(output.stdout),
        text(output.stderr),
    )
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
        let (code, _) = rela(&[
            "snapshot",
            "pack",
            "--in",
            &input.display().to_string(),
            "--out",
            &output.display().to_string(),
        ]);
        assert_eq!(code, 0);
        output
    };
    let rsnb = (pack(&json.0, "pre.rsnb"), pack(&json.1, "post.rsnb"));
    for (container, (pre, post)) in [("json", json), ("rsnb", rsnb)] {
        let (code, from_files, _) = rela_child(&check_args(&work, &db, &pre, &post));
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
        let (code, from_pipes, _) = rela_child(&check_args(&work, &db, &pipes[0], &pipes[1]));
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
        assert_eq!(verdicts(&from_pipes), verdicts(&from_files), "{container}");
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
    let diff = |pre: &Path, post: &Path| {
        let [db, pre, post] = [&db, pre, post].map(|p| p.display().to_string());
        parse(&[
            "diff",
            "--db",
            &db,
            "--pre",
            &pre,
            "--post",
            &post,
            "--granularity",
            "device",
        ])
    };
    let outcome = |cmd: &Command| {
        let (code, text) = outcome(cmd);
        (code.map_err(|e| (e.code, e.message)), text)
    };

    let rsnb = work.dir.join("pre.rsnb");
    let (code, _) = rela(&[
        "snapshot",
        "pack",
        "--in",
        &work.path("pre.json"),
        "--out",
        &work.path("pre.rsnb"),
    ]);
    assert_eq!(code, 0);
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

/// `rela snapshot diff` refuses a duplicated flow as `rela check` does:
/// exit 2, naming the second occurrence's entry and byte, and no base
/// epoch printed for a pair that no daemon could ever retain.
#[test]
fn snapshot_diff_refuses_a_duplicated_flow_as_check_does() {
    let work = Workdir::new("snapdiff-dup");
    let demo = work.dir.join("demo");
    rela(&["demo", "--out", &work.path("demo")]);
    let (pre, post) = (demo.join("pre.json"), demo.join("post_v1.json"));
    // `fecs[0]` again, after the last of the 56 records
    let mut doc: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&pre).unwrap()).expect("pre.json parses");
    if let serde::Value::Obj(fields) = &mut doc {
        if let serde::Value::Arr(fecs) = &mut fields[0].1 {
            assert_eq!(fecs.len(), 56);
            fecs.push(fecs[0].clone());
        }
    }
    let twice = work.write("twice.json", serde_json::to_string(&doc).unwrap());
    let outcome = |cmd: &Command| {
        let (code, text) = outcome(cmd);
        (code.map_err(|e| (e.code, e.message)), text)
    };
    let [twice_arg, pre_arg, post_arg] = [&twice, &pre, &post].map(|p| p.display().to_string());
    let diff = parse(&[
        "snapshot",
        "diff",
        "--base-pre",
        &twice_arg,
        "--base-post",
        &post_arg,
        "--pre",
        &pre_arg,
        "--post",
        &post_arg,
        "--out-pre",
        &work.path("delta.pre.json"),
        "--out-post",
        &work.path("delta.post.json"),
    ]);
    let (diffed, printed) = outcome(&diff);
    let (code, message) = diffed.expect_err("a duplicated flow is an input error");
    assert_eq!(code, 2, "{message}");
    assert!(!printed.contains("base epoch"), "{printed}");
    let check: Vec<String> = [
        "check",
        "--spec",
        &demo.join("change.rela").display().to_string(),
        "--db",
        &demo.join("db.json").display().to_string(),
        "--pre",
        &twice.display().to_string(),
        "--post",
        &post.display().to_string(),
    ]
    .map(str::to_owned)
    .to_vec();
    let (checked, _) = outcome(&parse_args(&check).unwrap());
    let (check_code, check_message) = checked.expect_err("check refuses it too");
    assert_eq!(check_code, 2, "{check_message}");
    // both name entry #56 and its byte, whatever prefix each command adds
    let located = |message: &str| {
        let at = message.find("snapshot entry #").expect("an entry is named");
        message[at..].to_owned()
    };
    assert!(
        located(&message).starts_with("snapshot entry #56: duplicate flow "),
        "{message}"
    );
    assert_eq!(located(&message), located(&check_message));
}

/// RFC 8259 §7 requires U+0000-U+001F inside a string to be escaped: a
/// snapshot with a raw TAB in its ingress and in a vertex name is an
/// input error for `check`, `snapshot pack` and `diff` alike, at the
/// entry and byte of the first one.
#[test]
fn a_raw_control_character_in_a_snapshot_string_is_an_input_error() {
    let work = Workdir::new("control");
    let (db, _, _) = quickstart_inputs(&work);
    let mut one = Snapshot::new();
    one.insert(
        FlowSpec::new("10.1.0.0/24".parse().unwrap(), "x1"),
        linear_graph(&["x1", "B1", "y1"]),
    );
    let text = one.to_json().unwrap().replace("\"x1\"", "\"x\t1\"");
    let tab = text.find('\t').unwrap();
    assert!(
        text[tab + 1..].contains('\t'),
        "the vertex name holds one too"
    );
    let doc = work.write("tab.json", text);

    let failed = |cmd: Command| {
        let mut out = Vec::new();
        let e = run(&cmd, &mut out).expect_err("a raw control character is an input error");
        assert_eq!(e.code, 2, "{}", e.message);
        e.message
    };
    let check = parse_args(&check_args(&work, &db, &doc, &doc)).unwrap();
    let [doc, db] = [&doc, &db].map(|p| p.display().to_string());
    let pack = parse(&[
        "snapshot",
        "pack",
        "--in",
        &doc,
        "--out",
        &work.path("tab.rsnb"),
    ]);
    let diff = parse(&[
        "diff",
        "--db",
        &db,
        "--pre",
        &doc,
        "--post",
        &doc,
        "--granularity",
        "device",
    ]);
    for message in [failed(check), failed(pack), failed(diff)] {
        for part in [
            "tab.json",
            "snapshot entry #0: unescaped control character in string",
            &format!("(byte {tab})"),
        ] {
            assert!(message.contains(part), "{part:?} not in {message}");
        }
    }
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
            Command::Check(args) => args.job.ingest = IngestMode::Materialized,
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

// ---- parsing: each subcommand's flags, read from an argv ----

const CHECK: [&str; 9] = [
    "check", "--spec", "s.rela", "--db", "db.json", "--pre", "a.json", "--post", "b.json",
];

#[test]
fn parses_check_command() {
    let cmd = parse(&[&CHECK[..], &["--granularity", "device", "--threads", "4"]].concat());
    match cmd {
        Command::Check(args) => {
            assert_eq!(args.session.config.granularity, Granularity::Device);
            assert_eq!(args.session.config.threads, 4);
            assert!(args.job.dedup, "dedup defaults to on");
            assert!(args.job.use_cache, "the cache is consulted when attached");
            assert_eq!(args.session.cache_dir, None, "cache is opt-in");
            assert_eq!(args.output, Output::Text { cache_stats: false });
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn parses_cache_flags() {
    let extra = ["--cache-dir", ".rela-cache", "--no-cache", "--cache-stats"];
    match parse(&[&CHECK[..], &extra].concat()) {
        Command::Check(args) => {
            assert_eq!(args.session.cache_dir, Some(PathBuf::from(".rela-cache")));
            assert!(!args.job.use_cache, "--no-cache folds into the job options");
            assert_eq!(args.output, Output::Text { cache_stats: true });
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn no_dedup_switch_needs_no_value() {
    let cmd = parse(&[
        "check",
        "--spec",
        "s.rela",
        "--no-dedup",
        "--db",
        "db.json",
        "--pre",
        "a.json",
        "--post",
        "b.json",
    ]);
    match cmd {
        Command::Check(args) => assert!(!args.job.dedup),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn missing_flag_is_usage_error() {
    let err = refused(&["check", "--spec", "s.rela"]);
    assert!(err.message.contains("--db"));
}

/// An unknown command and an unknown granularity are refused, and
/// `router` is not a granularity.
#[test]
fn unknown_command_and_granularity() {
    refused(&["frobnicate"]);
    let diff = [
        "diff",
        "--db",
        "d",
        "--pre",
        "a",
        "--post",
        "b",
        "--granularity",
    ];
    let err = refused(&[&diff[..], &["nm"]].concat());
    assert!(err.message.contains("granularity"));
    assert_eq!(
        refused(&[&diff[..], &["router"]].concat()).message,
        "unknown granularity `router` (expected group, device, or interface)"
    );
}

#[test]
fn no_args_is_help() {
    assert_eq!(parse::<&str>(&[]), Command::Help);
    assert_eq!(parse(&["help"]), Command::Help);
}

/// The batch engine has no user-facing spelling: `IngestMode` is
/// API-only, every command line runs the pipelined engine, and
/// `--no-stream` is a typo like any other.
#[test]
fn no_stream_is_refused_as_an_unknown_flag() {
    let files = ["--spec", "s", "--db", "d", "--pre", "a", "--post", "b"];
    match parse(&[&["check"][..], &files].concat()) {
        Command::Check(args) => assert_eq!(args.job.ingest, IngestMode::Pipelined),
        other => panic!("unexpected {other:?}"),
    }
    for cmd in [&["check"][..], &["report"], &["submit", "--socket", "s"]] {
        let err = refused(&[cmd, &files[4..], &["--no-stream"]].concat());
        assert_eq!(err.message, "unknown flag `--no-stream`", "{cmd:?}");
    }
}

/// A flag no subcommand defines is refused by name instead of eating
/// the next argument as its value, and `--threads` must be a number.
#[test]
fn unknown_flags_and_bad_thread_counts_are_refused_by_name() {
    let check = |extra: &[&str]| refused(&[&CHECK[..], extra].concat()).message;
    // a typo'd switch used to swallow `--cache-stats` as its value
    assert!(check(&["--no-strem", "--cache-stats"]).contains("`--no-strem`"));
    assert!(check(&["--threads", "lots"]).contains("--threads `lots`"));
    // the first unknown flag is the one named, before any later error
    assert!(
        check(&["--pipeline-dpth", "0", "--threads", "lots", "--ping"])
            .contains("`--pipeline-dpth`")
    );
    // a flag another subcommand owns is refused, not parsed and ignored
    assert_eq!(
        check(&["--ping", "--socket", "nowhere", "--unpack"]),
        "flag `--ping` does not apply to `check`"
    );
    let stray = |words: &[&str]| refused(words).message;
    let submit = ["submit", "--socket", "s", "--pre", "a", "--post", "b"];
    for owned_elsewhere in [
        &["--spec", "other.rela"][..],
        &["--granularity", "interface"],
        &["--threads", "8"],
        &["--json"],
    ] {
        let flag = owned_elsewhere[0];
        assert_eq!(
            stray(&[&submit[..], owned_elsewhere].concat()),
            format!("flag `{flag}` does not apply to `submit`")
        );
    }
    let diff = ["diff", "--db", "d", "--pre", "a", "--post", "b"];
    assert_eq!(
        stray(&[&diff[..], &["--retries", "7", "--csv"]].concat()),
        "flag `--retries` does not apply to `diff`"
    );
    assert_eq!(
        stray(&["report", "--cache-stats"]),
        "flag `--cache-stats` does not apply to `report`"
    );
    assert_eq!(
        stray(&[
            "snapshot",
            "pack",
            "--in",
            "a",
            "--out",
            "b",
            "--out-pre",
            "c"
        ]),
        "flag `--out-pre` does not apply to `snapshot pack`"
    );
    assert_eq!(
        stray(&["cache", "gc", "--cache-dir", "c", "--no-cache"]),
        "flag `--no-cache` does not apply to `cache gc`"
    );
    // every subcommand still takes all of its own
    parse(&[&diff[..], &["--granularity", "device"]].concat());
    parse(
        &[
            &submit[..],
            &["--no-dedup", "--cache-stats", "--retries", "3"],
        ]
        .concat(),
    );
}

/// A flag given twice is refused by name, with or without a value:
/// the last `--post` winning used to check a pair nobody asked about
/// (`post_v1` fails, yet `--post post_v1 --post post_v4` passed).
#[test]
fn a_repeated_flag_is_refused_by_name() {
    let twice = |extra: &[&str]| refused(&[&CHECK[..], extra].concat()).message;
    assert_eq!(twice(&["--post", "c.json"]), "flag `--post` given twice");
    assert_eq!(
        twice(&["--no-dedup", "--threads", "2", "--no-dedup"]),
        "flag `--no-dedup` given twice"
    );
    // refused before its value is looked for
    assert_eq!(twice(&["--spec"]), "flag `--spec` given twice");
    let submit = ["submit", "--socket", "s", "--pre", "a", "--post", "b"];
    assert_eq!(
        refused(&[&submit[..], &["--retries", "1", "--retries", "2"]].concat()).message,
        "flag `--retries` given twice"
    );
    assert_eq!(
        refused(&["demo", "--out", "a", "--out", "b"]).message,
        "flag `--out` given twice"
    );
}

/// `--ping` and `--shutdown` take `--socket` and nothing else: either
/// beside the other, or beside a job flag, is refused by name at parse
/// time instead of dropping the rest (`--shutdown --pre … --post …` used
/// to drain the daemon rather than submit).
#[test]
fn ping_and_shutdown_stand_alone() {
    let control = |words: &[&str]| refused(&[&["submit", "--socket", "s"][..], words].concat());
    assert_eq!(
        control(&["--ping", "--shutdown"]).message,
        "`--ping` cannot be combined with `--shutdown`"
    );
    assert_eq!(
        control(&["--shutdown", "--pre", "a.json", "--post", "b.json"]).message,
        "`--shutdown` cannot be combined with `--post`"
    );
    for job_flag in [
        &["--cache-stats"][..],
        &["--no-dedup"],
        &["--deadline-ms", "5"],
        &["--retries", "3"],
        &["--delta-base", "0"],
    ] {
        for control_flag in ["--ping", "--shutdown"] {
            let err = control(&[&[control_flag][..], job_flag].concat());
            assert_eq!(
                err.message,
                format!("`{control_flag}` cannot be combined with `{}`", job_flag[0]),
            );
        }
    }
}

#[test]
fn serve_and_submit_commands_parse() {
    let serve = [
        "serve",
        "--socket",
        "/tmp/rela.sock",
        "--spec",
        "s.rela",
        "--db",
        "db.json",
        "--cache-dir",
        ".rela-cache",
    ];
    match parse(&serve) {
        Command::Serve(config) => {
            assert_eq!(config.socket, PathBuf::from("/tmp/rela.sock"));
            assert_eq!(config.session.config.granularity, Granularity::Group);
            assert_eq!(config.session.config.threads, 0);
            assert_eq!(config.session.cache_dir, Some(PathBuf::from(".rela-cache")));
            // retention parses straight into the session's config
            assert_eq!(config.session.config.retain_bases, 2);
            assert_eq!(config.session.config.retain_bytes, None);
        }
        other => panic!("unexpected {other:?}"),
    }
    let retain = ["--retain-epochs", "5", "--retain-bytes", "4096"];
    match parse(&[&serve[..], &retain].concat()) {
        Command::Serve(config) => {
            assert_eq!(config.session.config.retain_bases, 5);
            assert_eq!(config.session.config.retain_bytes, Some(4096));
        }
        other => panic!("unexpected {other:?}"),
    }
    match parse(&[
        "submit",
        "--socket",
        "/tmp/rela.sock",
        "--pre",
        "a.json",
        "--post",
        "b.json",
        "--no-dedup",
    ]) {
        Command::Submit(args) => assert!(!args.job.dedup),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        parse(&["submit", "--socket", "s", "--ping"]),
        Command::Ping(PathBuf::from("s"))
    );
    match parse(&["submit", "--socket", "s", "--shutdown"]) {
        Command::Shutdown(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    // a daemonless submit needs the snapshot pair
    let err = refused(&["submit", "--socket", "s"]);
    assert!(err.message.contains("--pre"), "{err}");
    // serve requires a socket path
    let err = refused(&["serve", "--spec", "s", "--db", "d"]);
    assert!(err.message.contains("--socket"), "{err}");
}

#[test]
fn submit_delta_flags_parse_together_or_not_at_all() {
    let epoch = "00000000000000000000000000000abc";
    let submit = [
        "submit", "--socket", "s", "--pre", "a.json", "--post", "b.json",
    ];
    let delta = [
        "--delta-base",
        epoch,
        "--delta-pre",
        "da.json",
        "--delta-post",
        "db.json",
    ];
    match parse(&[&submit[..], &delta].concat()) {
        Command::Submit(args) => {
            assert_eq!(
                args.delta,
                Some((PathBuf::from("da.json"), PathBuf::from("db.json")))
            );
            assert_eq!(args.job.delta_base, Some(0xabc));
        }
        other => panic!("unexpected {other:?}"),
    }
    // a plain submit carries no delta
    match parse(&submit) {
        Command::Submit(args) => {
            assert_eq!(args.delta, None);
            assert_eq!(args.job.delta_base, None);
        }
        other => panic!("unexpected {other:?}"),
    }
    // one delta path without the other, or paths without a base
    // (and vice versa), are usage errors
    let incomplete: &[&[&str]] = &[
        &["--delta-pre", "da.json"],
        &["--delta-base", epoch],
        &["--delta-pre", "da.json", "--delta-post", "db.json"],
    ];
    for extra in incomplete {
        refused(&[&submit[..], extra].concat());
    }
    // the base must be a 32-hex epoch
    let bad_base = [
        "--delta-base",
        "xyz",
        "--delta-pre",
        "da",
        "--delta-post",
        "db",
    ];
    let err = refused(&[&submit[..], &bad_base].concat());
    assert!(err.message.contains("--delta-base"), "{err}");
}

#[test]
fn snapshot_and_report_commands_parse() {
    match parse(&["snapshot", "pack", "--in", "a.json", "--out", "a.rsnb"]) {
        Command::SnapshotPack(args) => {
            assert_eq!(args.input, PathBuf::from("a.json"));
            assert_eq!(args.output, PathBuf::from("a.rsnb"));
            assert!(!args.unpack);
        }
        other => panic!("unexpected {other:?}"),
    }
    match parse(&[
        "snapshot", "pack", "--in", "a.rsnb", "--out", "a.json", "--unpack",
    ]) {
        Command::SnapshotPack(args) => assert!(args.unpack),
        other => panic!("unexpected {other:?}"),
    }
    match parse(&[
        "snapshot",
        "diff",
        "--base-pre",
        "bp",
        "--base-post",
        "bq",
        "--pre",
        "p",
        "--post",
        "q",
        "--out-pre",
        "op",
        "--out-post",
        "oq",
    ]) {
        Command::SnapshotDiff(args) => {
            assert_eq!(args.base_pre, PathBuf::from("bp"));
            assert_eq!(args.out_post, PathBuf::from("oq"));
        }
        other => panic!("unexpected {other:?}"),
    }
    refused(&["snapshot"]);
    refused(&["snapshot", "unpack"]);

    let report = [
        "report", "--spec", "s", "--db", "d", "--pre", "a", "--post", "b",
    ];
    match parse(&[&report[..], &["--csv"]].concat()) {
        Command::Check(args) => assert_eq!(args.output, Output::Csv),
        other => panic!("unexpected {other:?}"),
    }
    match parse(&report) {
        Command::Check(args) => {
            assert_eq!(args.output, Output::Json, "JSON is the default export");
            assert!(args.job.dedup);
        }
        other => panic!("unexpected {other:?}"),
    }
    let err = refused(&[&report[..], &["--json", "--csv"]].concat());
    assert!(err.message.contains("--json or --csv"), "{err}");
}

#[test]
fn cache_gc_parses_and_prunes() {
    match parse(&["cache", "gc", "--cache-dir", "d"]) {
        Command::CacheGc(args) => {
            assert_eq!(args.cache_dir, PathBuf::from("d"));
            assert_eq!(args.spec, None);
            assert_eq!(args.keep_epochs, None);
            assert_eq!(args.max_bytes, None);
        }
        other => panic!("unexpected {other:?}"),
    }
    refused(&["cache"]);
    refused(&["cache", "prune"]);

    // end to end: populate a store via check, gc with the live spec
    // keeps it, a superseded epoch file is dropped
    let work = Workdir::demo("gc");
    let cache_dir = work.dir.join("cache");
    let check = work.check(
        "pre.json",
        "post_v2.json",
        &["--cache-dir", &work.path("cache")],
    );
    rela(&check);
    // plant a superseded epoch file
    let stale = cache_dir.join(format!("verdicts-{:032x}.json", 7));
    std::fs::write(&stale, "{}").unwrap();
    let (code, text) = rela(&[
        "cache",
        "gc",
        "--cache-dir",
        &work.path("cache"),
        "--spec",
        &work.path("change.rela"),
        "--db",
        &work.path("db.json"),
    ]);
    assert_eq!(code, 0);
    assert!(text.contains("removed 1 file(s)"), "{text}");
    assert!(!stale.exists());
    // the live epoch still replays warm
    rela(&check);
}

// ---- running: each subcommand over the Figure 1 demo ----

#[test]
fn demo_then_check_roundtrip() {
    let work = Workdir::demo("demo");

    // v2 must fail (Table 1), v4 must pass
    let (code, text) = rela(&work.check("pre.json", "post_v2.json", &[]));
    assert_eq!(code, 1);
    assert!(text.contains("e2e"), "{text}");
    let (code, text) = rela(&work.check("pre.json", "post_v4.json", &[]));
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("PASS"));

    // the diff baseline sees the same change
    let (code, text) = rela(&[
        "diff",
        "--db",
        &work.path("db.json"),
        "--pre",
        &work.path("pre.json"),
        "--post",
        &work.path("post_v2.json"),
    ]);
    assert_eq!(code, 1);
    assert!(text.contains("56 traffic classes"), "{text}");
}

/// `rela snapshot pack --in INPUT --out OUTPUT [--unpack]` in `work`.
fn pack_words(work: &Workdir, input: &str, output: &str, unpack: bool) -> Vec<String> {
    let (input, output) = (work.path(input), work.path(output));
    let mut words = argv(&["snapshot", "pack", "--in", &input, "--out", &output]);
    if unpack {
        words.push("--unpack".to_owned());
    }
    words
}

/// `rela snapshot pack`, run in process: its stdout.
fn pack(work: &Workdir, input: &str, output: &str, unpack: bool) -> String {
    let (code, text) = rela(&pack_words(work, input, output, unpack));
    assert_eq!(code, 0, "{text}");
    text
}

/// `snapshot pack` and `--unpack` are idempotent in both directions:
/// packing an already-binary container is a warned span copy
/// (byte-identical output), unpacking an already-JSON container splices
/// the records back verbatim, and a full pack → unpack round trip
/// reproduces the canonical JSON.
#[test]
fn snapshot_pack_is_idempotent_in_both_directions() {
    let work = Workdir::demo("pack-idem");
    let read = |name: &str| std::fs::read(work.dir.join(name)).unwrap();

    let text = pack(&work, "pre.json", "pre.rsnb", false);
    assert!(!text.contains("warning"), "{text}");

    // pack-on-binary: warned, byte-identical span copy
    let text = pack(&work, "pre.rsnb", "pre2.rsnb", false);
    assert!(text.contains("already a binary snapshot"), "{text}");
    assert_eq!(
        read("pre.rsnb"),
        read("pre2.rsnb"),
        "re-packing a binary container must copy it byte for byte"
    );

    // unpack reproduces the canonical JSON exactly
    pack(&work, "pre.rsnb", "back.json", true);
    assert_eq!(
        read("pre.json"),
        read("back.json"),
        "pack → unpack must round-trip the JSON container"
    );

    // unpack-on-JSON: record splicing is the identity
    pack(&work, "pre.json", "back2.json", true);
    assert_eq!(
        read("pre.json"),
        read("back2.json"),
        "unpacking a JSON container must reproduce it byte for byte"
    );

    // the container is read off the head of the input, not off its
    // records: a binary snapshot with none is warned about too
    let empty = [&b"RSNB"[..], &1u32.to_le_bytes(), &u32::MAX.to_le_bytes()].concat();
    std::fs::write(work.dir.join("empty.rsnb"), &empty).unwrap();
    let text = pack(&work, "empty.rsnb", "empty2.rsnb", false);
    assert!(text.contains("already a binary snapshot"), "{text}");
    assert_eq!(read("empty2.rsnb"), empty);
}

/// The CI `cache-warm` contract, in-process: same snapshot pair twice
/// with `--cache-dir` ⇒ the second run reports warm hits and
/// byte-identical verdicts.
#[test]
fn cache_dir_makes_second_run_warm_and_identical() {
    let work = Workdir::demo("cache");
    let cache = work.path("cache");
    let check = work.check(
        "pre.json",
        "post_v2.json",
        &["--cache-dir", &cache, "--cache-stats"],
    );
    let (code1, cold) = rela(&check);
    let (code2, warm) = rela(&check);
    assert_eq!(code1, 1, "{cold}");
    assert_eq!(code2, 1, "{warm}");
    assert!(cold.contains("cache: 0 warm hits"), "{cold}");

    // second run: every class replays from the store
    let warm_line = warm.lines().find(|l| l.starts_with("cache:")).unwrap();
    let warm_hits: usize = warm_line
        .split(" warm hits")
        .next()
        .unwrap()
        .trim_start_matches("cache: ")
        .parse()
        .unwrap();
    assert!(warm_hits > 0, "{warm}");

    // verdicts and counterexamples are byte-identical (timing and
    // cache-counter lines excluded)
    let verdicts = |text: &str| {
        text.lines()
            .filter(|l| {
                !l.starts_with("checked ")
                    && !l.starts_with("behavior classes:")
                    && !l.starts_with("cache:")
                    && !l.starts_with("warning:")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(verdicts(&cold), verdicts(&warm));

    // an unopenable cache dir degrades to a cold run with a warning
    // (never a usage error: the inputs are all valid); the warning goes
    // to stderr, so the report on stdout is the report alone
    let unopenable = ["--cache-dir", "/dev/null/not-a-directory"];
    let (code, text) = rela(&work.check("pre.json", "post_v2.json", &unopenable));
    assert_eq!(code, 1, "{text}");
    assert!(!text.contains("warning"), "{text}");
    assert_eq!(verdicts(&cold), verdicts(&text));

    // --no-cache leaves the store untouched and still agrees
    let no_cache = ["--cache-dir", &cache, "--cache-stats", "--no-cache"];
    let (code, text) = rela(&work.check("pre.json", "post_v2.json", &no_cache));
    assert_eq!(code, 1);
    assert!(text.contains("cache: disabled"), "{text}");
    assert_eq!(verdicts(&cold), verdicts(&text));
}

/// `snapshot pack` then `pack --unpack` is a byte-exact inverse, a
/// packed snapshot checks identically to its JSON source, and
/// `report --json/--csv` exports agree with the human verdict.
#[test]
fn pack_roundtrips_and_report_exports_agree() {
    use serde::Value;
    let work = Workdir::demo("pack");

    // pack both sides to binary, unpack one back to JSON
    for name in ["pre.json", "post_v2.json"] {
        let packed = format!("{name}.rsnb");
        let text = pack(&work, name, &packed, false);
        assert!(text.contains("record(s) (binary)"), "{text}");
        assert!(std::fs::metadata(work.dir.join(&packed)).unwrap().len() > 0);
    }
    pack(&work, "pre.json.rsnb", "pre.unpacked.json", true);
    assert_eq!(
        std::fs::read(work.dir.join("pre.unpacked.json")).unwrap(),
        std::fs::read(work.dir.join("pre.json")).unwrap(),
        "pack → unpack must be byte-exact"
    );

    // a check over the packed pair matches the JSON pair
    let (code_j, json_text) = rela(&work.check("pre.json", "post_v2.json", &[]));
    let (code_b, bin_text) = rela(&work.check("pre.json.rsnb", "post_v2.json.rsnb", &[]));
    assert_eq!([code_j, code_b], [1, 1]);
    assert_eq!(verdicts(&json_text), verdicts(&bin_text));

    // report --json agrees with the human verdict and carries stats
    let report = |export: &str| {
        let mut words = work.check("pre.json", "post_v2.json", &[export]);
        words[0] = "report".to_owned();
        rela(&words)
    };
    let (code, json) = report("--json");
    assert_eq!(code, 1);
    let value: Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value.get("verdict").and_then(Value::as_str), Some("FAIL"));
    assert!(value.get("stats").and_then(|s| s.get("fecs")).is_some());
    let (code, csv) = report("--csv");
    assert_eq!(code, 1);
    assert!(csv.starts_with("flow,check,route,part,detail"), "{csv}");
    assert!(csv.lines().count() > 1, "{csv}");
}

/// `snapshot diff` emits per-side delta documents whose base epoch
/// both sides share, and an unchanged side diffs to empty.
#[test]
fn snapshot_diff_writes_delta_documents() {
    let work = Workdir::demo("sdiff");
    let (code, text) = rela(&[
        "snapshot",
        "diff",
        "--base-pre",
        &work.path("pre.json"),
        "--base-post",
        &work.path("post_v2.json"),
        "--pre",
        &work.path("pre.json"),
        "--post",
        &work.path("post_v4.json"),
        "--out-pre",
        &work.path("delta_pre.json"),
        "--out-post",
        &work.path("delta_post.json"),
    ]);
    assert_eq!(code, 0);
    assert!(text.contains("base epoch: "), "{text}");
    assert!(
        text.contains("pre delta: 0 changed/added, 0 removed"),
        "{text}"
    );

    let epoch = text
        .lines()
        .next()
        .unwrap()
        .trim_start_matches("base epoch: ")
        .to_owned();
    let delta = |name: &str| {
        let file = std::fs::File::open(work.dir.join(name)).unwrap();
        rela::net::SnapshotDelta::from_reader(file, name).unwrap()
    };
    let (pre_delta, post_delta) = (delta("delta_pre.json"), delta("delta_post.json"));
    assert_eq!(pre_delta.base.to_string(), epoch);
    assert_eq!(post_delta.base, pre_delta.base);
    assert!(pre_delta.records.is_empty() && pre_delta.removed.is_empty());
    assert!(
        !post_delta.records.is_empty(),
        "v2 → v4 changes post-side records"
    );
}

/// `check` parsed from an argv, then switched to the batch engine — the
/// one setting no command line reaches.
fn materialized(words: &[String]) -> Command {
    let mut cmd = parse(words);
    match &mut cmd {
        Command::Check(args) => args.job.ingest = IngestMode::Materialized,
        other => panic!("unexpected {other:?}"),
    }
    cmd
}

/// Pipelined (default) and materialized (`IngestMode::Materialized`)
/// runs over the same files — plus a gzipped copy through the
/// pipelined path — produce byte-identical reports and the same exit
/// code.
#[test]
fn pipelined_materialized_and_gz_checks_agree() {
    use flate2::{write::GzEncoder, Compression};
    use std::io::Write as _;
    let work = Workdir::demo("pipe");

    // gzip the snapshot pair
    for name in ["pre.json", "post_v2.json"] {
        let text = std::fs::read(work.dir.join(name)).unwrap();
        let mut enc = GzEncoder::new(Vec::new(), Compression::default());
        enc.write_all(&text).unwrap();
        std::fs::write(work.dir.join(format!("{name}.gz")), enc.finish().unwrap()).unwrap();
    }

    let two_threads = |pre: &str, post: &str| work.check(pre, post, &["--threads", "2"]);
    let run_ok = |cmd: &Command| {
        let (code, text) = outcome(cmd);
        (code.expect("runs"), text)
    };
    let (code_p, piped) = run_ok(&parse(&two_threads("pre.json", "post_v2.json")));
    let (code_m, batch) = run_ok(&materialized(&two_threads("pre.json", "post_v2.json")));
    let (code_z, gz) = run_ok(&parse(&two_threads("pre.json.gz", "post_v2.json.gz")));
    assert_eq!([code_p, code_m, code_z], [1, 1, 1]);
    assert_eq!(verdicts(&piped), verdicts(&batch));
    assert_eq!(verdicts(&piped), verdicts(&gz));

    // a malformed gz stream is an input error naming the file
    let gz_path = work.dir.join("pre.json.gz");
    let bytes = std::fs::read(&gz_path).unwrap();
    std::fs::write(&gz_path, &bytes[..bytes.len() / 2]).unwrap();
    let (result, _) = outcome(&parse(&work.check("pre.json.gz", "post_v2.json", &[])));
    let err = result.expect_err("truncated gz");
    assert_eq!(err.code, 2);
    assert!(err.message.contains("pre.json.gz"), "{err}");
}

/// Streamed (default) and materialized runs over the same files
/// produce byte-identical reports and the same exit code.
#[test]
fn streamed_and_materialized_checks_agree() {
    let work = Workdir::demo("stream");
    let words = work.check("pre.json", "post_v2.json", &[]);
    let (code_s, streamed) = outcome(&parse(&words));
    let (code_m, batch) = outcome(&materialized(&words));
    assert_eq!(code_s.expect("runs"), 1);
    assert_eq!(code_m.expect("runs"), 1);
    assert_eq!(verdicts(&streamed), verdicts(&batch));

    // a malformed snapshot is an input error (2) whose message names
    // the failing entry and the offending file
    let text = std::fs::read_to_string(work.dir.join("post_v2.json")).unwrap();
    std::fs::write(work.dir.join("truncated.json"), &text[..text.len() * 2 / 3]).unwrap();
    let (result, _) = outcome(&parse(&work.check("pre.json", "truncated.json", &[])));
    let err = result.expect_err("truncated snapshot");
    assert_eq!(err.code, 2);
    assert!(err.message.contains("invalid snapshot"), "{err}");
    assert!(err.message.contains("truncated.json"), "{err}");
    assert!(err.message.contains("entry #"), "{err}");
}

// ---- the process: what `main` prints, on which stream ----

/// `snapshot pack` onto its own input — the same path, or a link to it
/// — is refused with exit 2 before the output is created, and the input
/// keeps every byte. (Creating the output used to truncate the input:
/// a mapped RSNB input then died of SIGBUS with a 0-byte file left.)
/// Spawned, because a SIGBUS in process would end the test runner.
#[test]
fn snapshot_pack_refuses_to_overwrite_its_input() {
    let work = Workdir::demo("pack-self");
    pack(&work, "pre.json", "pre.rsnb", false);
    std::fs::hard_link(work.dir.join("pre.rsnb"), work.dir.join("link.rsnb")).unwrap();
    std::os::unix::fs::symlink(work.dir.join("pre.json"), work.dir.join("link.json")).unwrap();
    for (input, output) in [
        ("pre.rsnb", "pre.rsnb"),
        ("pre.json", "pre.json"),
        ("pre.rsnb", "link.rsnb"),
        ("pre.json", "link.json"),
    ] {
        for unpack in [false, true] {
            let before = std::fs::read(work.dir.join(input)).unwrap();
            let words = pack_words(&work, input, output, unpack);
            let (code, stdout, stderr) = rela_child(&words);
            assert_eq!(code, Some(2), "{words:?}: {stdout}{stderr}");
            assert!(stderr.contains("same file as --in"), "{words:?}: {stderr}");
            assert_eq!(
                std::fs::read(work.dir.join(input)).unwrap(),
                before,
                "{words:?} touched its input"
            );
        }
    }
}

/// `rela report`'s stdout is the export alone: a cache that cannot be
/// opened is warned about on stderr, so the JSON still parses and the
/// CSV still starts with its header.
#[test]
fn report_exports_stay_machine_readable_when_the_cache_is_disabled() {
    let work = Workdir::demo("report-warn");
    let unopenable = ["--cache-dir", "/dev/null/not-a-directory"];
    for export in ["--json", "--csv"] {
        let mut words = work.check(
            "pre.json",
            "post_v2.json",
            &[&unopenable[..], &[export]].concat(),
        );
        words[0] = "report".to_owned();
        let (code, stdout, stderr) = rela_child(&words);
        assert_eq!(code, Some(1), "{export}: {stderr}");
        assert!(
            stderr.contains("warning: cache disabled"),
            "{export}: {stderr}"
        );
        if export == "--json" {
            let value: serde::Value = serde_json::from_str(&stdout).expect("stdout is JSON");
            assert!(value.get("verdict").is_some(), "{stdout}");
        } else {
            assert!(
                stdout.starts_with("flow,check,route,part,detail,"),
                "{stdout}"
            );
        }
    }
}
