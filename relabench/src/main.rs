//! `relabench`: the repo's benchmark.
//!
//! ```text
//! relabench --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! relabench --all --seed N [--seconds S] [--out FILE]          every workload, both passes, results file
//! relabench --smoke [--out FILE]                               --all on toy inputs, three-op loops
//! relabench compare A.json B.json                              judge two results files
//! relabench manifest                                           print BENCHMARK.json
//! ```
//!
//! `--smoke` also combines with `--workload`. `--self-test-broken-golden`
//! corrupts the golden reference so that every op must fail: it exists
//! to prove the check is live (the smoke test uses it).
//!
//! End-to-end numbers come from driving the real `rela` binary as a
//! child process with tracing off; per-layer numbers come from a
//! separate traced pass that times calls into each crate's public
//! functions from this crate's own code. See `README.md` beside this
//! crate for the metric and workload tables.

mod gen;
mod layers;
mod proc;
mod results;
mod stats;
mod trace;
mod verify;
mod workloads;

use results::{Values, RUN_SECONDS};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Artifacts, Budget, Env, OpKind, Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    broken_golden: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        all: false,
        smoke: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
        broken_golden: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))
        };
        match flag.as_str() {
            "--all" => out.all = true,
            "--smoke" => out.smoke = true,
            "--self-test-broken-golden" => out.broken_golden = true,
            "--workload" => out.workload = Some(value()?.clone()),
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` takes a whole number".to_owned())?
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("`--seconds` takes a positive number")?
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`--trace` takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.smoke && out.workload.is_none() {
        out.all = true;
    }
    if out.all == out.workload.is_some() {
        return Err("give exactly one of `--workload NAME`, `--all`, `--smoke`".to_owned());
    }
    Ok(out)
}

/// The cargo target directory this binary was built into: two levels
/// above the executable (`<target>/release/relabench`). `rela` is built
/// into the same directory, so one `CARGO_TARGET_DIR` (or none) serves
/// both.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_owned)
        .ok_or_else(|| format!("{}: not inside a cargo target directory", exe.display()))
}

/// Bring `<target>/release/rela` up to date with the sources beside
/// this crate (a no-op when it already is) and return its path. The
/// build is not part of any measurement.
fn build_rela(target: &Path) -> Result<PathBuf, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("relabench has no parent directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "rela",
        ])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .status()
        .map_err(|e| format!("running {}: {e}", cargo.to_string_lossy()))?;
    let rela = target.join("release").join("rela");
    if !status.success() || !rela.is_file() {
        return Err(format!(
            "could not build {} from {} (cargo exited {status})",
            rela.display(),
            repo.display()
        ));
    }
    Ok(rela)
}

/// What one untraced run of a workload measured.
struct EndToEndRun {
    values: Values,
    tally: workloads::Tally,
    ops: usize,
    verdicts: Vec<verify::Counts>,
}

/// The untraced pass: repeated set-up, then the closed op loop.
fn end_to_end(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<EndToEndRun, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if env.smoke { 1 } else { SETUPS } {
        // the previous set-up's daemon and files go before the next
        // one is timed
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(workloads::prepare(env, w, seed, Artifacts::for_op(w.op))?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up ran");
    let budget = if env.smoke {
        Budget::Rounds(1)
    } else {
        Budget::Seconds(seconds)
    };
    let stats = workloads::run_loop(env, w.op, &prepared, budget)?;
    workloads::shutdown(&mut prepared)?;

    let no_ops = "the op loop ran no ops";
    let mut values = Values::new();
    values.insert("setup_s", stats::median(&setups).expect("set-ups ran"));
    values.insert(
        "verdict_wall_s",
        stats.verdict_wall_s(w.op, false).ok_or(no_ops)?,
    );
    values.insert(
        "cpu_s_per_verdict",
        stats.cpu_s_per_verdict().ok_or(no_ops)?,
    );
    values.insert(
        "fecs_per_s",
        stats
            .fecs_per_s(w.op, prepared.scale.fecs(), env.round_ops())
            .ok_or(no_ops)?,
    );
    values.insert(
        "peak_rss_mib",
        match (w.op, stats.daemon_rss_mib) {
            (OpKind::Serve, Some(mib)) => mib,
            _ => stats.child_rss_mib().ok_or(no_ops)?,
        },
    );
    Ok(EndToEndRun {
        values,
        tally: stats.tally.clone(),
        ops: stats.ops.len(),
        // the golden run decides every FEC on its own; the class count
        // worth committing is the one the timed path reported
        verdicts: prepared
            .refs
            .golden
            .iter()
            .zip(stats.classes)
            .map(|(g, classes)| verify::Counts {
                classes: classes.unwrap_or(0),
                ..g.counts.clone()
            })
            .collect(),
    })
}

/// The traced pass: one full set-up, the layer stages, the replay, and
/// the trace file.
fn traced(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: f64,
    target: &Path,
) -> Result<layers::LayerReport, String> {
    let mut prepared = workloads::prepare(env, w, seed, Artifacts::Daemon)?;
    let report = layers::run_pass(env, w, &mut prepared, seconds)?;
    let path = target
        .join("relabench")
        .join(format!("trace-{}.json", w.name));
    let text = serde_json::to_string(&trace::to_value(&report.spans)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}

fn print_metrics(workload: &str, values: &Values, traced: bool) {
    for (name, unit) in results::pass_metrics(traced) {
        if let Some(value) = values.get(name) {
            println!("{workload:<18} {name:<36} {value:>16.6} {unit}");
        }
    }
}

/// One driver run: `--workload W --seed N --seconds S --trace T`.
fn single(args: &Args, env: &Env, target: &Path) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let w = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let (values, tally) = if args.trace {
        let r = traced(env, w, args.seed, args.seconds, target)?;
        (r.values, r.tally)
    } else {
        let r = end_to_end(env, w, args.seed, args.seconds)?;
        // for `--all`, which assembles its results file from these runs
        let info = Value::obj(vec![
            ("ops", r.ops.to_value()),
            (
                "verdicts",
                Value::Arr(r.verdicts.iter().map(verify::Counts::to_value).collect()),
            ),
        ]);
        println!(
            "{INFO_PREFIX}{}",
            serde_json::to_string(&info).map_err(|e| e.to_string())?
        );
        (r.values, r.tally)
    };
    print_metrics(w.name, &values, args.trace);
    if let Some(failure) = &tally.first_failure {
        eprintln!(
            "relabench: {} of {} ops failed; the first: {failure}",
            tally.failed, tally.attempted
        );
    }
    let metrics = results::metrics_value(&values, args.trace)?;
    println!(
        "{}",
        results::result_line(tally.attempted.max(1), tally.failed, metrics)
    );
    Ok(tally.failed == 0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host block of a results file: what the numbers were taken on.
fn host_block(rela: &Path) -> Result<Value, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let binary = std::fs::read(rela).map_err(|e| format!("{}: {e}", rela.display()))?;
    Ok(Value::obj(vec![
        ("nproc", nproc.to_value()),
        // `rela` runs with its default `--threads 0`: one worker per core
        ("threads", nproc.to_value()),
        ("rustc", command_line("rustc", &["--version"]).to_value()),
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).to_value(),
        ),
        (
            "rela_hash",
            format!("{:032x}", rela_net::content_hash128(&binary)).to_value(),
        ),
    ]))
}

/// Prefix of the line an untraced run prints for `--all` to pick up.
const INFO_PREFIX: &str = "info ";

/// Run `relabench --workload …` as a child, echo its metric table, and
/// return its info line (if any) and its result line.
fn child_run(args: &Args, w: &Workload, trace: bool) -> Result<(Option<Value>, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut info = None;
    let mut result = None;
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix(INFO_PREFIX) {
            info = serde_json::from_str::<Value>(json).ok();
        } else if line.starts_with('{') {
            result = serde_json::from_str::<Value>(line).ok();
        } else {
            println!("{line}");
        }
    }
    let result = result.ok_or_else(|| {
        format!(
            "`{}` run of `{}` printed no result ({})",
            if trace { "traced" } else { "untraced" },
            w.name,
            out.status
        )
    })?;
    Ok((info, result))
}

/// `--all` / `--smoke`: every workload, both passes, each as a run of
/// its own — exactly what the driver does, so a results file and the
/// driver's numbers come from the same code path (and no pass inflates
/// the memory floor of the next). Prints every metric and writes the
/// results file `compare` reads.
fn all(args: &Args, rela: &Path, target: &Path) -> Result<bool, String> {
    let mut workloads_doc = Vec::new();
    let mut clean = true;
    for w in &WORKLOADS {
        let (info, e2e) = child_run(args, w, false)?;
        let (_, layer) = child_run(args, w, true)?;
        let count = |doc: &Value, key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0);
        let failed = count(&e2e, "failed") + count(&layer, "failed");
        clean &= failed == 0;
        let info = info.unwrap_or(Value::Null);
        let field = |doc: &Value, key: &str| doc.get(key).cloned().unwrap_or(Value::Null);
        workloads_doc.push((
            w.name.to_owned(),
            Value::obj(vec![
                ("why", w.why.to_value()),
                ("ops", field(&info, "ops")),
                (
                    "attempted",
                    (count(&e2e, "attempted") + count(&layer, "attempted")).to_value(),
                ),
                ("failed", failed.to_value()),
                ("verdicts", field(&info, "verdicts")),
                ("end_to_end", field(&e2e, "metrics")),
                ("per_layer", field(&layer, "metrics")),
            ]),
        ));
    }
    let doc = Value::obj(vec![
        ("schema", "relabench/v1".to_value()),
        ("host", host_block(rela)?),
        ("seed", args.seed.to_value()),
        ("seconds", Value::Float(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "repeating_counts",
            Value::Arr(results::REPEATING.iter().map(|n| n.to_value()).collect()),
        ),
        ("workloads", Value::Obj(workloads_doc)),
        // a results file records; it claims nothing
        ("claim", Value::Null),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| target.join("relabench").join("results.json"));
    let mut text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(clean)
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", results::manifest());
            return Ok(true);
        }
        Some("prepare") => return workloads::prepare_helper(&args[1..]).map(|()| true),
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("usage: relabench compare A.json B.json".to_owned());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (table, worse) = results::compare(&read(a)?, &read(b)?)?;
            print!("{table}");
            return Ok(!worse);
        }
        _ => {}
    }
    let args = parse_args(args)?;
    let target = target_dir()?;
    let rela = build_rela(&target)?;
    if args.all {
        std::fs::create_dir_all(target.join("relabench"))
            .map_err(|e| format!("{}: {e}", target.display()))?;
        return all(&args, &rela, &target);
    }
    let env = Env {
        rela,
        work: proc::WorkDir::create(&target)?,
        smoke: args.smoke,
        broken_golden: args.broken_golden,
    };
    single(&args, &env, &target)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("relabench: {e}");
            ExitCode::from(2)
        }
    }
}
