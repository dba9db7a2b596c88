//! The four workloads: what each one sets up, what one op of it is, and
//! the closed loop that times ops against the real `rela` binary.
//!
//! The load generator is this process, one client, closed loop: an
//! operator waits for each verdict before the next keystroke. The tool
//! under test keeps every default (`--threads 0`, pipelined ingest).

use crate::gen::{self, files, CorpusInfo, Scale};
use crate::proc::{Daemon, Finished, Runner, WorkDir};
use crate::stats;
use crate::verify::{self, Counts};
use rela_net::Granularity;
use rela_sim::workload::WanParams;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one op of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `rela check` on the JSON pair.
    CheckJson,
    /// `rela check` on the RSNB pair (mmap zero-copy path).
    CheckRsnb,
    /// `rela submit` to a resident daemon: rounds of one full RSNB
    /// submit followed by delta submits.
    Serve,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
    /// Input shape.
    pub scale: Scale,
    /// Input shape under `--smoke`.
    pub smoke: Scale,
    /// What an op is.
    pub op: OpKind,
}

const WAN_3K: WanParams = WanParams {
    regions: 4,
    routers_per_group: 2,
    parallel_links: 2,
    fecs_per_pair: 256,
};

const WAN_TOY: WanParams = WanParams {
    regions: 4,
    routers_per_group: 1,
    parallel_links: 1,
    fecs_per_pair: 4,
};

const GROUP_3K: Scale = Scale {
    params: WAN_3K,
    atomics: 4,
    granularity: Granularity::Group,
};

const GROUP_TOY: Scale = Scale {
    params: WAN_TOY,
    atomics: 4,
    granularity: Granularity::Group,
};

/// The benchmark's workloads. Page cache is warm in all of them (the
/// first ops of each loop are discarded); disk is not measured.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold-json",
        why: "one-shot `rela check` of a 3,072-FEC JSON pair, the default thing a user does: JSON framing, span copy, decode and hash are nearly all of it, decide is 15 classes",
        scale: GROUP_3K,
        smoke: GROUP_TOY,
        op: OpKind::CheckJson,
    },
    Workload {
        name: "cold-rsnb",
        why: "the same check on the same pair packed as RSNB (mmap path): JSON scanning is bypassed, so hashing, class admission, render and process start dominate; a framer change must not move it",
        scale: GROUP_3K,
        smoke: GROUP_TOY,
        op: OpKind::CheckRsnb,
    },
    Workload {
        name: "decide-interface",
        why: "interface-granularity check of 180 FECs / 99 classes under a 37-atomic spec: the only place decide matters (lower, determinize, equivalent, witness); ingest is a few percent",
        scale: Scale {
            params: WanParams {
                regions: 10,
                routers_per_group: 2,
                parallel_links: 4,
                fecs_per_pair: 2,
            },
            atomics: 37,
            granularity: Granularity::Interface,
        },
        smoke: Scale {
            params: WanParams {
                regions: 4,
                routers_per_group: 1,
                parallel_links: 2,
                fecs_per_pair: 2,
            },
            atomics: 4,
            granularity: Granularity::Interface,
        },
        op: OpKind::CheckJson,
    },
    Workload {
        name: "serve-iterate",
        why: "the operator loop against a resident `rela serve`: rounds of one full RSNB submit plus four 12-record delta submits; the only path through serve, client, proto, spool, store and retained-base replay",
        scale: GROUP_3K,
        smoke: GROUP_TOY,
        op: OpKind::Serve,
    },
];

impl Workload {
    /// The input shape at full scale or under `--smoke`.
    pub fn scale_for(&self, smoke: bool) -> Scale {
        if smoke {
            self.smoke
        } else {
            self.scale
        }
    }
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where and how the benchmark runs.
pub struct Env {
    /// The `rela` binary under test.
    pub rela: PathBuf,
    /// Scratch tree.
    pub work: WorkDir,
    /// Toy inputs and three-op loops.
    pub smoke: bool,
    /// Self-test: corrupt the golden reference, so every op must fail.
    pub broken_golden: bool,
}

impl Env {
    /// The scale `workload` runs at in this environment.
    pub fn scale(&self, workload: &Workload) -> Scale {
        workload.scale_for(self.smoke)
    }

    /// Ops per round: in `serve-iterate` one full submit plus the rest
    /// as delta submits.
    pub fn round_ops(&self) -> usize {
        if self.smoke {
            3
        } else {
            5
        }
    }
}

/// The reference for one timed pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// Fingerprint every op on this pair must print.
    pub fingerprint: String,
    /// Exit code every op on this pair must return.
    pub code: i32,
    /// Counts of the golden report (its `classes` is the no-dedup
    /// count; the expected file supplies the deduped one).
    pub counts: Counts,
    /// Behavior classes the timed path must report, when committed.
    pub classes: Option<usize>,
}

/// What the set-up helper establishes: the references every op is held
/// to, and what making them cost. It crosses a process boundary as JSON
/// (see [`prepare`]).
#[derive(Debug, Clone, PartialEq)]
pub struct References {
    /// Golden reference per iteration (one entry unless two posts were
    /// built).
    pub golden: Vec<Golden>,
    /// Base epoch of the iteration-1 and iteration-2 pair (empty unless
    /// delta documents were built).
    pub epochs: Vec<String>,
    /// Simulator cost of the corpus.
    pub corpus: CorpusInfo,
    /// Seconds `rela_baseline::path_diff` took for the oracle.
    pub path_diff_s: f64,
    /// Flows the oracle says changed.
    pub changed_flows: usize,
}

impl References {
    /// The JSON form the helper prints.
    pub fn to_value(&self) -> Value {
        let golden = self
            .golden
            .iter()
            .map(|g| {
                Value::obj(vec![
                    ("fingerprint", g.fingerprint.to_value()),
                    ("code", i64::from(g.code).to_value()),
                    ("counts", g.counts.to_value()),
                    ("classes", g.classes.to_value()),
                ])
            })
            .collect();
        Value::obj(vec![
            ("golden", Value::Arr(golden)),
            ("epochs", self.epochs.to_value()),
            ("fecs", self.corpus.fecs.to_value()),
            ("simulate_s", Value::Float(self.corpus.simulate_s)),
            ("snapshots", self.corpus.snapshots.to_value()),
            ("path_diff_s", Value::Float(self.path_diff_s)),
            ("changed_flows", self.changed_flows.to_value()),
        ])
    }

    /// Parse the JSON form.
    pub fn from_value(value: &Value) -> Option<References> {
        let count = |key: &str| Some(value.get(key)?.as_u64()? as usize);
        let golden = value
            .get("golden")?
            .as_arr()?
            .iter()
            .map(|g| {
                Some(Golden {
                    fingerprint: g.get("fingerprint")?.as_str()?.to_owned(),
                    code: g.get("code")?.as_i64()? as i32,
                    counts: Counts::from_value(g.get("counts")?)?,
                    classes: match g.get("classes")? {
                        Value::Null => None,
                        n => Some(n.as_u64()? as usize),
                    },
                })
            })
            .collect::<Option<_>>()?;
        Some(References {
            golden,
            epochs: value
                .get("epochs")?
                .as_arr()?
                .iter()
                .map(|e| e.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
            corpus: CorpusInfo {
                fecs: count("fecs")?,
                simulate_s: value.get("simulate_s")?.as_f64()?,
                snapshots: count("snapshots")?,
            },
            path_diff_s: value.get("path_diff_s")?.as_f64()?,
            changed_flows: count("changed_flows")?,
        })
    }
}

/// What set-up leaves behind for the op loop and the layer pass.
pub struct Prepared {
    /// Spawns children in the corpus directory.
    pub runner: Runner,
    /// Input shape.
    pub scale: Scale,
    /// The references every op is held to.
    pub refs: References,
    /// The primed daemon, when one was started.
    pub daemon: Option<Daemon>,
}

/// How far a set-up goes beyond the JSON pair of iteration 1. Each
/// level includes the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Artifacts {
    /// The JSON pair only.
    Json,
    /// Every snapshot also packed as RSNB.
    Rsnb,
    /// A second iteration and the delta documents between the two.
    Deltas,
    /// A started and primed daemon: everything, what the layer pass needs.
    Daemon,
}

impl Artifacts {
    /// What the op loop of `op` needs.
    pub fn for_op(op: OpKind) -> Artifacts {
        match op {
            OpKind::CheckJson => Artifacts::Json,
            OpKind::CheckRsnb => Artifacts::Rsnb,
            OpKind::Serve => Artifacts::Daemon,
        }
    }
}

/// `--granularity` arguments of a scale (group is the tool's default
/// and is left unsaid, as a user would).
fn granularity_args(scale: &Scale) -> Vec<&'static str> {
    match scale.granularity {
        Granularity::Group => vec![],
        Granularity::Device => vec!["--granularity", "device"],
        Granularity::Interface => vec!["--granularity", "interface"],
    }
}

/// The command line of a one-shot check of iteration `ix`.
pub fn check_args(scale: &Scale, rsnb: bool, ix: usize) -> Vec<&'static str> {
    let (pre, post) = files::pair(rsnb, ix);
    let mut args = vec![
        "check",
        "--spec",
        files::SPEC,
        "--db",
        files::DB,
        "--pre",
        pre,
        "--post",
        post,
    ];
    args.extend(granularity_args(scale));
    args
}

/// The command line of a full submit of iteration `ix`.
pub fn full_submit_args(rsnb: bool, ix: usize) -> Vec<&'static str> {
    let (pre, post) = files::pair(rsnb, ix);
    vec![
        "submit",
        "--socket",
        crate::proc::SOCKET,
        "--pre",
        pre,
        "--post",
        post,
    ]
}

/// The command line of a delta submit that turns the pair of epoch
/// `base` (iteration `from`) into the other iteration.
pub fn delta_submit_args(from: usize, base: &str) -> Vec<&str> {
    let to = 1 - from;
    let (delta_pre, delta_post) = files::DELTA[from];
    let mut args = full_submit_args(true, to);
    args.extend([
        "--delta-base",
        base,
        "--delta-pre",
        delta_pre,
        "--delta-post",
        delta_post,
    ]);
    args
}

/// Check one finished op against its golden reference. Returns what the
/// report's first line says and the behavior classes it reports.
pub fn verify_op(done: &Finished, golden: &Golden) -> Result<(verify::CheckedLine, usize), String> {
    if done.code != Some(golden.code) {
        return Err(format!(
            "exit code {:?}, expected {}",
            done.code, golden.code
        ));
    }
    if verify::fingerprint(&done.stdout) != golden.fingerprint {
        return Err(format!(
            "report differs from the golden report; it begins:\n{}",
            done.stdout.lines().take(3).collect::<Vec<_>>().join("\n")
        ));
    }
    let counts = Counts::from_report(&done.stdout).ok_or("stdout is not a report")?;
    if golden.classes.is_some_and(|c| c != counts.classes) {
        return Err(format!(
            "{} behavior classes, expected {:?}",
            counts.classes, golden.classes
        ));
    }
    let checked = done
        .stdout
        .lines()
        .find_map(verify::parse_checked_line)
        .ok_or("no `checked` line")?;
    Ok((checked, counts.classes))
}

/// The heavy half of set-up, run in a helper process (`relabench
/// prepare …`): generate the inputs from the seed, convert them with the
/// tool's own commands, and establish the references every op is held
/// to. It runs apart from the measuring process because a child's
/// `ru_maxrss` starts from its parent's peak RSS: the process that
/// spawns the timed ops must never have held a snapshot in memory.
pub fn establish(
    runner: &Runner,
    workload: &Workload,
    scale: Scale,
    seed: u64,
    expect: bool,
    artifacts: Artifacts,
) -> Result<References, String> {
    let dir = runner.cwd().to_owned();
    let iterations = if artifacts >= Artifacts::Deltas { 2 } else { 1 };
    let corpus = gen::write_corpus(&dir, &scale, &gen::draw(seed, &scale), iterations)?;

    if artifacts >= Artifacts::Rsnb {
        let mut pairs = vec![(files::PRE_JSON, files::PRE_RSNB)];
        pairs.extend((0..iterations).map(|ix| (files::POST_JSON[ix], files::POST_RSNB[ix])));
        for (json, rsnb) in pairs {
            runner.run_ok(&["snapshot", "pack", "--in", json, "--out", rsnb])?;
        }
    }
    let mut epochs = Vec::new();
    if artifacts >= Artifacts::Deltas {
        for from in 0..2 {
            let (out_pre, out_post) = files::DELTA[from];
            let stdout = runner.run_ok(&[
                "snapshot",
                "diff",
                "--base-pre",
                files::PRE_RSNB,
                "--base-post",
                files::POST_RSNB[from],
                "--pre",
                files::PRE_RSNB,
                "--post",
                files::POST_RSNB[1 - from],
                "--out-pre",
                out_pre,
                "--out-post",
                out_post,
            ])?;
            let epoch = stdout
                .lines()
                .find_map(|l| l.strip_prefix("base epoch: "))
                .ok_or("`rela snapshot diff` printed no base epoch")?;
            epochs.push(epoch.to_owned());
        }
    }

    // (a) independent oracle: under `spec nochange`, the flows the CLI
    // flags must be exactly the flows the path diff says changed
    let db = verify::load_db(&dir)?;
    let pair = rela_net::SnapshotPair::align(
        &verify::load_snapshot(&dir, files::PRE_JSON)?,
        &verify::load_snapshot(&dir, files::POST_JSON[0])?,
    );
    let start = Instant::now();
    let oracle = verify::oracle_flows(&pair, &db, scale.granularity);
    let path_diff_s = start.elapsed().as_secs_f64();
    drop(pair);
    let mut args = vec![
        "report",
        "--json",
        "--spec",
        files::NOCHANGE,
        "--db",
        files::DB,
        "--pre",
        files::PRE_JSON,
        "--post",
        files::POST_JSON[0],
    ];
    args.extend(granularity_args(&scale));
    let nochange = runner.run(&args)?;
    let flagged = verify::flagged_flows(&nochange.stdout)
        .map_err(|e| format!("{e}\n{}", runner.stderr_tail()))?;
    if flagged != oracle {
        return Err(format!(
            "oracle disagreement under `nochange`: rela flags {} flows, path diff {} \
             ({} only rela, {} only oracle)",
            flagged.len(),
            oracle.len(),
            flagged.difference(&oracle).count(),
            oracle.difference(&flagged).count(),
        ));
    }

    // (b) golden report and (c) committed expected counts
    let expected = if expect {
        verify::expected_counts(seed, workload.name)?
    } else {
        None
    };
    let mut golden = Vec::new();
    for ix in 0..iterations {
        let report = verify::golden_report(&dir, &scale, &db, files::POST_JSON[ix])?;
        let counts = Counts::from_report(&report).ok_or("golden run printed no report")?;
        let mut classes = None;
        if let Some(want) = expected.as_ref().and_then(|e| e.get(ix)) {
            let same = (want.total, want.violating, &want.part_counts)
                == (counts.total, counts.violating, &counts.part_counts);
            if !same {
                return Err(format!(
                    "iteration {}: golden counts {:?} differ from expected/seed-{seed}.json {:?}",
                    ix + 1,
                    counts,
                    want
                ));
            }
            classes = Some(want.classes);
        }
        golden.push(Golden {
            fingerprint: verify::fingerprint(&report),
            code: i32::from(counts.violating > 0),
            counts,
            classes,
        });
    }
    Ok(References {
        golden,
        epochs,
        corpus,
        path_diff_s,
        changed_flows: oracle.len(),
    })
}

/// Entry point of the helper process: `relabench prepare WORKLOAD SEED
/// SMOKE ARTIFACTS RELA DIR`; prints the references as one JSON line.
pub fn prepare_helper(args: &[String]) -> Result<(), String> {
    let [name, seed, smoke, artifacts, rela, dir] = args else {
        return Err("usage: relabench prepare WORKLOAD SEED SMOKE ARTIFACTS RELA DIR".to_owned());
    };
    let workload = find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let smoke = smoke == "1";
    let scale = workload.scale_for(smoke);
    let artifacts = match artifacts.as_str() {
        "json" => Artifacts::Json,
        "rsnb" => Artifacts::Rsnb,
        _ => Artifacts::Deltas,
    };
    let runner = Runner::new(Path::new(rela), Path::new(dir));
    let refs = establish(
        &runner,
        workload,
        scale,
        seed.parse().map_err(|_| "SEED must be a whole number")?,
        !smoke,
        artifacts,
    )?;
    println!(
        "{}",
        serde_json::to_string(&refs.to_value()).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Set a workload up: run the helper that generates and converts the
/// inputs and establishes the references, then (for `serve-iterate`)
/// start and prime the daemon. All of this is what `setup_s` measures.
pub fn prepare(
    env: &Env,
    workload: &Workload,
    seed: u64,
    artifacts: Artifacts,
) -> Result<Prepared, String> {
    let scale = env.scale(workload);
    let dir = env.work.sub(workload.name)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let helper = std::process::Command::new(&exe)
        .args(["prepare", workload.name, &seed.to_string()])
        .arg(if env.smoke { "1" } else { "0" })
        .arg(match artifacts {
            Artifacts::Json => "json",
            Artifacts::Rsnb => "rsnb",
            Artifacts::Deltas | Artifacts::Daemon => "deltas",
        })
        .arg(&env.rela)
        .arg(&dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !helper.status.success() {
        return Err(format!("set-up of `{}` failed", workload.name));
    }
    let mut refs = std::str::from_utf8(&helper.stdout)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(text).ok())
        .and_then(|value| References::from_value(&value))
        .ok_or("the set-up helper printed no references")?;
    if env.broken_golden {
        for golden in &mut refs.golden {
            golden.fingerprint.push('x');
        }
    }
    let runner = Runner::new(&env.rela, &dir);

    let mut daemon = None;
    if artifacts == Artifacts::Daemon {
        let mut args = vec![
            "serve",
            "--socket",
            crate::proc::SOCKET,
            "--spec",
            files::SPEC,
            "--db",
            files::DB,
            "--cache-dir",
            "cache",
        ];
        args.extend(granularity_args(&scale));
        daemon = Some(runner.serve(&args)?);
        // prime: both pairs ingested in full, so both epochs are
        // retained and every later delta submit is a hit
        for ix in 0..2 {
            let mut args = full_submit_args(true, ix);
            args.push("--cache-stats");
            let done = runner.run(&args)?;
            verify_op(&done, &refs.golden[ix])
                .map_err(|e| format!("priming submit {}: {e}\n{}", ix + 1, runner.stderr_tail()))?;
            let retained = done
                .stdout
                .lines()
                .find_map(|l| l.strip_prefix("base epoch: "));
            if retained != Some(refs.epochs[ix].as_str()) {
                return Err(format!(
                    "daemon retained epoch {retained:?} for pair {}, `snapshot diff` named {}",
                    ix + 1,
                    refs.epochs[ix]
                ));
            }
        }
    }

    Ok(Prepared {
        runner,
        scale,
        refs,
        daemon,
    })
}

/// Upper end of the think time before each submit to the daemon,
/// microseconds. `rela serve` polls for connections every 15 ms
/// (`ACCEPT_POLL` in `src/serve.rs`); a client that resubmits the
/// instant its verdict arrives locks onto that poll, and its latency
/// then flips between one and two poll periods on the slightest change.
/// An operator does not type that fast: a uniform pause of up to one
/// poll period spreads the submits evenly over the poll's phase.
const THINK_MAX_US: u64 = 15_000;

/// How long an op loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole rounds until this many seconds have been measured.
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// A full submit (always false in the one-shot workloads).
    pub full: bool,
    /// Spawn → exit.
    pub wall_s: f64,
    /// Engine time the report's first line states.
    pub engine_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set of the child, KiB.
    pub maxrss_kib: u64,
}

/// How many ops were held to their reference, and how many missed it.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops run, warm-up included.
    pub attempted: usize,
    /// Ops that failed verification.
    pub failed: usize,
    /// First failure, for the error message.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one op and its outcome.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }

    /// Add another tally's counts to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }
}

/// What an op loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Every measured op, in order.
    pub ops: Vec<OpSample>,
    /// CPU seconds the daemon used over the measured rounds.
    pub daemon_cpu_s: f64,
    /// The daemon's `VmHWM` after the loop, MiB.
    pub daemon_rss_mib: Option<f64>,
    /// Ops verified, warm-up included.
    pub tally: Tally,
    /// Behavior classes the timed path reported, per iteration.
    pub classes: [Option<usize>; 2],
}

impl LoopStats {
    /// Walls of the full submits (`full`) or of every other op.
    fn walls(&self, full: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|s| s.full == full)
            .map(|s| s.wall_s)
            .collect()
    }

    /// Walls of the primary op kind: every op in the one-shot
    /// workloads, the delta submits in `serve-iterate`.
    pub fn primary_walls(&self) -> Vec<f64> {
        self.walls(false)
    }

    /// Median wall of the full submits (`full`) or of every other op.
    pub fn wall_p50_s(&self, full: bool) -> Option<f64> {
        stats::median(&self.walls(full))
    }

    /// The wall a verdict costs, over the full submits (`full`) or over
    /// every other op. A one-shot op is taken at the floor of the loop
    /// (see [`stats::floor`]). A submit is taken at the median: it waits
    /// up to 15 ms for the daemon's accept poll, so the low tail of the
    /// submits is the luck of the poll's phase, and over twelve runs the
    /// floor of the delta submits spread twice as wide as their median
    /// (0.06 against 0.03, where `cold-json` had 0.04 against 0.08).
    pub fn verdict_wall_s(&self, op: OpKind, full: bool) -> Option<f64> {
        match op {
            OpKind::Serve => self.wall_p50_s(full),
            OpKind::CheckJson | OpKind::CheckRsnb => stats::floor(&self.walls(full)),
        }
    }

    /// Median of `wall − engine` over the ops selected by `full`.
    pub fn overhead_s(&self, full: bool) -> Option<f64> {
        let over: Vec<f64> = self
            .ops
            .iter()
            .filter(|s| s.full == full)
            .map(|s| s.wall_s - s.engine_s)
            .collect();
        stats::median(&over)
    }

    /// Peak resident set of the median op, MiB.
    pub fn child_rss_mib(&self) -> Option<f64> {
        let rss: Vec<f64> = self.ops.iter().map(|s| s.maxrss_kib as f64).collect();
        stats::median(&rss).map(|kib| kib / 1024.0)
    }

    /// CPU a verdict costs: the floor of the children's CPU seconds (of
    /// each kind of op, weighted by how many there were) plus the
    /// daemon's CPU over the loop ÷ ops (`/proc` counts the daemon's CPU
    /// in 10 ms ticks, too coarse to take per op).
    pub fn cpu_s_per_verdict(&self) -> Option<f64> {
        let mut cpu_s = self.daemon_cpu_s;
        for full in [false, true] {
            let kind: Vec<f64> = self
                .ops
                .iter()
                .filter(|s| s.full == full)
                .map(|s| s.cpu_s)
                .collect();
            cpu_s += kind.len() as f64 * stats::floor(&kind).unwrap_or(0.0);
        }
        (!self.ops.is_empty()).then(|| cpu_s / self.ops.len() as f64)
    }

    /// FECs verdicted per second of waiting, at [`Self::verdict_wall_s`].
    /// A `serve-iterate` round is one full submit and its delta submits,
    /// each kind at its own wall, so this moves with both.
    pub fn fecs_per_s(&self, op: OpKind, fecs: usize, round_ops: usize) -> Option<f64> {
        let other = self.verdict_wall_s(op, false)?;
        Some(match self.verdict_wall_s(op, true) {
            Some(full) => (round_ops * fecs) as f64 / (full + (round_ops - 1) as f64 * other),
            None => fecs as f64 / other,
        })
    }
}

/// The closed loop: run rounds of ops against the prepared inputs, each
/// op verified before its time counts. The first round's worth of
/// warm-up (two ops; one whole round with a daemon) is run and verified
/// but not timed.
pub fn run_loop(
    env: &Env,
    op: OpKind,
    prepared: &Prepared,
    budget: Budget,
) -> Result<LoopStats, String> {
    let mut out = LoopStats::default();
    let round_ops = env.round_ops();
    let serve = op == OpKind::Serve;
    // the iteration whose pair the daemon ingested last; every serve op
    // moves it to the other iteration (a round opens with a full submit,
    // which is valid whatever the daemon holds)
    let mut current = 1usize;

    // fixed seed: think time is not an input of the tool under test
    let mut think = stats::SplitMix64::new(0x7417_6b5e);
    let mut one_op =
        |out: &mut LoopStats, first_in_round: bool, timed: bool| -> Result<(), String> {
            if serve {
                std::thread::sleep(Duration::from_micros(think.below(THINK_MAX_US)));
            }
            let (done, golden_ix, full) = match op {
                OpKind::CheckJson | OpKind::CheckRsnb => {
                    let rsnb = op == OpKind::CheckRsnb;
                    let done = prepared.runner.run(&check_args(&prepared.scale, rsnb, 0))?;
                    (done, 0, false)
                }
                OpKind::Serve => {
                    let target = 1 - current;
                    let done = if first_in_round {
                        prepared.runner.run(&full_submit_args(true, target))?
                    } else {
                        prepared
                            .runner
                            .run(&delta_submit_args(current, &prepared.refs.epochs[current]))?
                    };
                    current = target;
                    (done, target, first_in_round)
                }
            };
            let verified = verify_op(&done, &prepared.refs.golden[golden_ix]);
            let verified = out.tally.record(verified);
            if let Some((_, classes)) = verified {
                out.classes[golden_ix] = Some(classes);
            }
            // a failed op still took its time; the tally says it failed
            if timed {
                out.ops.push(OpSample {
                    full,
                    wall_s: done.wall_s,
                    engine_s: verified.map_or(0.0, |(checked, _)| checked.engine_s),
                    cpu_s: done.cpu_s,
                    maxrss_kib: done.maxrss_kib,
                });
            }
            Ok(())
        };

    let warmup = if serve { round_ops } else { 2 };
    for ix in 0..warmup {
        one_op(&mut out, ix == 0, false)?;
    }
    let daemon_cpu_before = match &prepared.daemon {
        Some(daemon) if serve => daemon.cpu_s()?,
        _ => 0.0,
    };
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        let enough = match budget {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Rounds(n) => rounds >= n,
        };
        if enough && rounds > 0 {
            break;
        }
        for ix in 0..round_ops {
            one_op(&mut out, ix == 0, true)?;
        }
        rounds += 1;
    }
    if let Some(daemon) = prepared.daemon.as_ref().filter(|_| serve) {
        out.daemon_cpu_s = daemon.cpu_s()? - daemon_cpu_before;
        out.daemon_rss_mib = Some(daemon.peak_rss_mib()?);
    }
    Ok(out)
}

/// Ask the daemon to drain and wait for it; returns the drain seconds.
pub fn shutdown(prepared: &mut Prepared) -> Result<Option<f64>, String> {
    let Some(daemon) = prepared.daemon.take() else {
        return Ok(None);
    };
    prepared
        .runner
        .run_ok(&["submit", "--socket", crate::proc::SOCKET, "--shutdown"])?;
    daemon.wait_drained().map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eleven ops whose walls are 10, 11, … 20 ms (CPU twice that); in a
    /// serve loop the first and the sixth are full submits.
    fn eleven_ops(serve: bool) -> LoopStats {
        let mut stats = LoopStats::default();
        for ms in 10..=20 {
            stats.ops.push(OpSample {
                full: serve && (ms - 10) % 5 == 0,
                wall_s: f64::from(ms) / 1e3,
                engine_s: 0.0,
                cpu_s: f64::from(2 * ms) / 1e3,
                maxrss_kib: 0,
            });
        }
        stats
    }

    fn close(got: Option<f64>, want: f64) -> bool {
        got.is_some_and(|got| (got - want).abs() < 1e-9 * want)
    }

    #[test]
    fn one_shot_ops_are_taken_at_the_floor_and_submits_at_the_median() {
        let check = eleven_ops(false);
        assert!(close(check.verdict_wall_s(OpKind::CheckJson, false), 0.011));
        assert_eq!(check.verdict_wall_s(OpKind::CheckJson, true), None);
        assert!(close(check.cpu_s_per_verdict(), 0.022));
        assert!(close(
            check.fecs_per_s(OpKind::CheckJson, 3072, 5),
            3072.0 / 0.011
        ));

        // deltas 11–14 and 16–19 ms, fulls 10, 15 and 20 ms
        let mut serve = eleven_ops(true);
        serve.daemon_cpu_s = 0.110;
        assert!(close(serve.verdict_wall_s(OpKind::Serve, false), 0.015));
        assert!(close(serve.verdict_wall_s(OpKind::Serve, true), 0.015));
        assert!(close(
            serve.fecs_per_s(OpKind::Serve, 100, 5),
            500.0 / 0.075
        ));
        // eight deltas at their floor, three fulls at theirs, the daemon
        let cpu_s = 8.0 * 0.0234 + 3.0 * 0.022 + 0.110;
        assert!(close(serve.cpu_s_per_verdict(), cpu_s / 11.0));
        assert_eq!(LoopStats::default().cpu_s_per_verdict(), None);
    }
}
