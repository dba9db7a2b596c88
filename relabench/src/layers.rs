//! The per-layer pass and the traced replay: every number here is timed
//! from outside, around calls into each crate's public functions (and,
//! for `cli`/`serve`, around `rela` children), over the workload's own
//! files. End-to-end metrics are never taken from this pass.
//!
//! Each stage is a closure handed to [`Pass::measure`], which runs it
//! under a span. The untraced pass runs every stage several times with
//! the tracer off and keeps medians; the traced replay runs the stages
//! an op needs once per op with the tracer on. The difference between a
//! stage's traced and untraced time is the tracing overhead.

use crate::gen::{files, Scale};
use crate::proc::SOCKET;
use crate::results::Values;
use crate::stats::{max, median, tail};
use crate::trace::{self_times_of, Span, Tracer};
use crate::verify;
use crate::workloads::{
    delta_submit_args, full_submit_args, run_loop, shutdown, verify_op, Budget, Env, LoopStats,
    OpKind, Prepared, Tally, Workload,
};
use rela_automata::{determinize, equivalent, minimize, SymbolTable};
use rela_cache::{CacheEpoch, CacheKey, VerdictStore};
use rela_core::{
    compile_program, parse_program, CheckReport, CheckSession, JobOptions, JobSpec, LabeledSource,
    PhaseTimings, SessionConfig,
};
use rela_net::{
    behavior_hash, content_hash128, diff_side, graph_to_fsa, scan_side, snapshot_source,
    AlignedFec, BehaviorHash, BinarySnapshotWriter, LocationDb, MmapSource, RawRecord, SideScan,
    Snapshot, SnapshotDelta, SnapshotEpoch, SnapshotFramer, SnapshotPair, SpanBytes,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What a traced run produced.
pub struct LayerReport {
    /// Every per-layer metric.
    pub values: Values,
    /// The spans of the traced replay.
    pub spans: Vec<Span>,
    /// Ops verified across the child loops of this pass.
    pub tally: Tally,
}

/// Runs stages under spans and keeps their durations.
struct Pass {
    tracer: Tracer,
    /// Calls per stage in the untraced pass.
    reps: usize,
}

impl Pass {
    /// Run `stage` `self.reps` times under a span named `name`; returns
    /// the median seconds and the last result.
    fn measure<T>(
        &mut self,
        name: &'static str,
        mut stage: impl FnMut() -> Result<T, String>,
    ) -> Result<(f64, T), String> {
        let mut seconds = Vec::with_capacity(self.reps);
        let mut last = None;
        for _ in 0..self.reps {
            let start = Instant::now();
            let out = self.tracer.span(name, |_| stage())?;
            seconds.push(start.elapsed().as_secs_f64());
            last = Some(black_box(out));
        }
        Ok((median(&seconds).expect("reps > 0"), last.expect("reps > 0")))
    }
}

/// The workload's files, loaded once, outside every timer.
struct Inputs {
    dir: PathBuf,
    scale: Scale,
    source: String,
    db: LocationDb,
    /// Both sides' records as the JSON framer yields them (pre, then post).
    raw_json: Vec<RawRecord>,
    /// Both sides' graph spans as the mapped RSNB framer yields them.
    graph_spans: Vec<SpanBytes>,
    pre: Snapshot,
    post: Snapshot,
    pair: SnapshotPair,
    /// Indices into `pair.fecs` of one representative per behavior class.
    rep_ix: Vec<usize>,
    /// The representatives as a pair of their own.
    reps: SnapshotPair,
    /// The two iterations' pair epochs.
    epochs: [u128; 2],
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(io_err(&path.display().to_string()))
}

impl Inputs {
    fn load(prepared: &Prepared) -> Result<Inputs, String> {
        let dir = prepared.runner.cwd().to_owned();
        let scale = prepared.scale;
        let source = std::fs::read_to_string(dir.join(files::SPEC)).map_err(io_err(files::SPEC))?;
        let db = verify::load_db(&dir)?;
        let mut raw_json = Vec::new();
        let mut graph_spans = Vec::new();
        for (json, rsnb) in [
            (files::PRE_JSON, files::PRE_RSNB),
            (files::POST_JSON[0], files::POST_RSNB[0]),
        ] {
            for raw in SnapshotFramer::new(
                snapshot_source(&dir.join(json)).map_err(io_err(json))?,
                json,
            ) {
                raw_json.push(raw.map_err(|e| e.to_string())?);
            }
            let map = MmapSource::open(dir.join(rsnb)).map_err(io_err(rsnb))?;
            for raw in SnapshotFramer::from_map(map, rsnb) {
                let (_, graph) = raw
                    .and_then(|r| r.split_spans(Some(rsnb)))
                    .map_err(|e| e.to_string())?;
                graph_spans.push(graph);
            }
        }
        let pre = verify::load_snapshot(&dir, files::PRE_JSON)?;
        let post = verify::load_snapshot(&dir, files::POST_JSON[0])?;
        let pair = SnapshotPair::align(&pre, &post);
        // a behavior class is a distinct (pre, post) fingerprint pair
        let mut seen: BTreeMap<(u128, u128), usize> = BTreeMap::new();
        for (ix, fec) in pair.fecs.iter().enumerate() {
            let key = (
                behavior_hash(&fec.pre, &db, scale.granularity).as_u128(),
                behavior_hash(&fec.post, &db, scale.granularity).as_u128(),
            );
            seen.entry(key).or_insert(ix);
        }
        let mut rep_ix: Vec<usize> = seen.into_values().collect();
        rep_ix.sort_unstable();
        let reps = SnapshotPair {
            fecs: rep_ix.iter().map(|&ix| pair.fecs[ix].clone()).collect(),
        };
        let epoch = |ix: usize| -> Result<u128, String> {
            prepared.refs.epochs[ix]
                .parse::<SnapshotEpoch>()
                .map(SnapshotEpoch::as_u128)
                .map_err(|e| format!("epoch {}: {e}", prepared.refs.epochs[ix]))
        };
        Ok(Inputs {
            epochs: [epoch(0)?, epoch(1)?],
            dir,
            scale,
            source,
            db,
            raw_json,
            graph_spans,
            pre,
            post,
            pair,
            rep_ix,
            reps,
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn config(&self) -> SessionConfig {
        SessionConfig {
            granularity: self.scale.granularity,
            ..SessionConfig::default()
        }
    }

    /// A fresh session, as every one-shot `rela check` opens.
    fn session(&self, config: SessionConfig) -> Result<CheckSession, String> {
        CheckSession::open(&self.source, self.db.clone(), config).map_err(|e| e.to_string())
    }

    /// Drain a framer over both sides; returns records framed.
    fn frame(&self, rsnb: bool) -> Result<usize, String> {
        let mut framed = 0;
        let (pre, post) = files::pair(rsnb, 0);
        for name in [pre, post] {
            let path = self.path(name);
            let framer = if rsnb {
                SnapshotFramer::from_map(MmapSource::open(&path).map_err(io_err(name))?, name)
            } else {
                SnapshotFramer::new(snapshot_source(&path).map_err(io_err(name))?, name)
            };
            for raw in framer {
                black_box(raw.map_err(|e| e.to_string())?);
                framed += 1;
            }
        }
        Ok(framed)
    }

    fn hash_spans(&self) -> u128 {
        self.graph_spans
            .iter()
            .fold(0, |acc, span| acc ^ content_hash128(span.as_slice()))
    }

    fn decode(&self, records: impl Iterator<Item = usize>) -> Result<usize, String> {
        let mut decoded = 0;
        for ix in records {
            black_box(self.raw_json[ix].decode(None).map_err(|e| e.to_string())?);
            decoded += 1;
        }
        Ok(decoded)
    }

    /// Raw-record indices of the class founders' pre and post records
    /// (both sides hold every flow, in the pair's order).
    fn founder_records(&self) -> Vec<usize> {
        let n = self.pair.fecs.len();
        if self.raw_json.len() != 2 * n {
            return (0..(2 * self.rep_ix.len()).min(self.raw_json.len())).collect();
        }
        self.rep_ix.iter().flat_map(|&ix| [ix, n + ix]).collect()
    }

    fn scan(&self, name: &str) -> Result<SideScan, String> {
        let map = MmapSource::open(self.path(name)).map_err(io_err(name))?;
        scan_side(SnapshotFramer::from_map(map, name)).map_err(|e| e.to_string())
    }

    fn pack(&self) -> Result<usize, String> {
        let name = files::POST_JSON[0];
        let out = self.path("pack.tmp");
        let fail = io_err("pack.tmp");
        let framer = SnapshotFramer::new(
            snapshot_source(&self.path(name)).map_err(io_err(name))?,
            name,
        );
        let mut writer =
            BinarySnapshotWriter::new(BufWriter::new(std::fs::File::create(&out).map_err(&fail)?))
                .map_err(&fail)?;
        for raw in framer {
            let (flow, graph) = raw
                .and_then(|r| r.split_spans(Some(name)))
                .map_err(|e| e.to_string())?;
            writer
                .write_raw(flow.as_slice(), graph.as_slice())
                .map_err(&fail)?;
        }
        let written = writer.written();
        writer.finish().map_err(&fail)?.flush().map_err(&fail)?;
        Ok(written)
    }

    fn mapped(&self, name: &str) -> Result<LabeledSource<'static>, String> {
        Ok(LabeledSource::mapped(
            MmapSource::open(self.path(name)).map_err(io_err(name))?,
            name,
        ))
    }

    fn streamed(&self, name: &str) -> Result<LabeledSource<'static>, String> {
        Ok(LabeledSource::new(
            snapshot_source(&self.path(name)).map_err(io_err(name))?,
            name,
        ))
    }

    /// The job a one-shot `rela check` runs: both sides as files.
    fn streams_job(&self, rsnb: bool, ix: usize) -> Result<JobSpec<'static>, String> {
        let (pre, post) = files::pair(rsnb, ix);
        Ok(if rsnb {
            JobSpec::streams(self.mapped(pre)?, self.mapped(post)?)
        } else {
            JobSpec::streams(self.streamed(pre)?, self.streamed(post)?)
        })
    }

    /// The job a daemon runs for a delta submit from iteration `from`.
    fn deltas_job(&self, from: usize) -> Result<JobSpec<'static>, String> {
        let (pre, post) = files::DELTA[from];
        Ok(
            JobSpec::deltas(self.streamed(pre)?, self.streamed(post)?).with_options(JobOptions {
                delta_base: Some(self.epochs[from]),
                ..JobOptions::default()
            }),
        )
    }
}

fn run(session: &CheckSession, job: JobSpec<'_>) -> Result<CheckReport, String> {
    session.run(job).map_err(|e| e.to_string())
}

/// A session kept the way `rela serve` keeps it — verdict store
/// attached, two bases retained — and primed with both pairs.
struct Resident {
    session: CheckSession,
    /// Iteration whose pair was ingested last.
    current: usize,
}

impl Resident {
    fn open(inputs: &Inputs) -> Result<Resident, String> {
        let mut session = inputs.session(SessionConfig {
            retain_bases: 2,
            ..inputs.config()
        })?;
        let store = VerdictStore::open(&inputs.path("layer-cache"), session.epoch())
            .map_err(io_err("layer-cache"))?;
        session.attach_store(store);
        for ix in 0..2 {
            run(&session, inputs.streams_job(true, ix)?)?;
        }
        Ok(Resident {
            session,
            current: 1,
        })
    }

    /// A fully warm full resubmit of the other iteration.
    fn full(&mut self, inputs: &Inputs) -> Result<CheckReport, String> {
        self.current = 1 - self.current;
        run(&self.session, inputs.streams_job(true, self.current)?)
    }

    /// A delta job to the other iteration.
    fn delta(&mut self, inputs: &Inputs) -> Result<CheckReport, String> {
        let from = self.current;
        self.current = 1 - from;
        run(&self.session, inputs.deltas_job(from)?)
    }
}

/// Real verdict payloads for the cache stages: the report's violations
/// (every workload's change violates its spec).
fn payloads(report: &CheckReport) -> Result<Vec<serde::Value>, String> {
    if report.violations.is_empty() {
        return Err("the cache stages need a report with violations".to_owned());
    }
    let (wall, phases) = (Duration::from_micros(150), PhaseTimings::default());
    Ok(report
        .violations
        .iter()
        .take(64)
        .map(|v| v.to_cache_value(wall, &phases))
        .collect())
}

fn cache_key(scale: &Scale, n: u128, hit: bool) -> CacheKey {
    let salt: u128 = if hit { 0 } else { 1 << 100 };
    CacheKey {
        pre: BehaviorHash::from_u128(salt | n),
        post: BehaviorHash::from_u128(salt | n.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        granularity: scale.granularity,
        route: None,
        variant: 0,
    }
}

/// The stages of `crates/cache`, over `keys` entries carrying real
/// verdict payloads.
fn cache_stages(
    pass: &mut Pass,
    inputs: &Inputs,
    report: &CheckReport,
    keys: u128,
    values: &mut Values,
) -> Result<(), String> {
    let payloads = payloads(report)?;
    let epoch = CacheEpoch::from_u128(0x5e1a_be2c);
    let dir = inputs.path("layer-store");
    let fail = io_err("layer-store");
    let (put_s, store) = pass.measure("cache.put", || {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(&fail)?;
        }
        let store = VerdictStore::open(&dir, epoch).map_err(&fail)?;
        for n in 0..keys {
            store.put(
                &cache_key(&inputs.scale, n, true),
                payloads[n as usize % payloads.len()].clone(),
            );
        }
        Ok(store)
    })?;
    values.insert("cache.put_s", put_s);
    // persist skips clean stores, so each call re-dirties one entry
    let (persist_s, ()) = pass.measure("cache.persist", || {
        store.put(&cache_key(&inputs.scale, 0, true), payloads[0].clone());
        store.persist().map_err(&fail)
    })?;
    values.insert("cache.persist_s", persist_s);
    let (open_s, loaded) = pass.measure("cache.open_load", || {
        VerdictStore::open(&dir, epoch).map_err(&fail)
    })?;
    values.insert("cache.open_load_s", open_s);
    for (name, hit) in [("cache.get_hit_s", true), ("cache.get_miss_s", false)] {
        let (get_s, found) = pass.measure(
            if hit {
                "cache.get_hit"
            } else {
                "cache.get_miss"
            },
            || {
                Ok((0..keys)
                    .filter(|&n| loaded.get(&cache_key(&inputs.scale, n, hit)).is_some())
                    .count())
            },
        )?;
        if found != if hit { keys as usize } else { 0 } {
            return Err(format!("{name}: {found} of {keys} lookups hit"));
        }
        values.insert(name, get_s);
    }
    values.insert("cache.entries", loaded.len() as f64);
    let on_disk = std::fs::read_dir(&dir)
        .map_err(&fail)?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum::<u64>();
    values.insert("cache.bytes_on_disk", on_disk as f64);
    Ok(())
}

/// The in-process stages of `net`, `core`, `automata` and `cache`.
fn library_stages(
    pass: &mut Pass,
    env: &Env,
    inputs: &Inputs,
    values: &mut Values,
) -> Result<(), String> {
    let mib = |bytes: u64, s: f64| bytes as f64 / (1024.0 * 1024.0) / s;
    let size = |names: &[&str]| -> Result<u64, String> {
        names.iter().map(|n| file_len(&inputs.path(n))).sum()
    };
    let json_bytes = size(&[files::PRE_JSON, files::POST_JSON[0]])?;
    let rsnb_bytes = size(&[files::PRE_RSNB, files::POST_RSNB[0]])?;
    values.insert("net.snapshot_bytes_json", json_bytes as f64);
    values.insert("net.snapshot_bytes_rsnb", rsnb_bytes as f64);
    values.insert(
        "net.delta_bytes",
        size(&[files::DELTA[0].0, files::DELTA[0].1])? as f64,
    );

    // net
    let (s, framed) = pass.measure("net.frame_json", || inputs.frame(false))?;
    values.insert("net.frame_json_s", s);
    values.insert("net.frame_json_mib_per_s", mib(json_bytes, s));
    values.insert("net.records_framed", framed as f64);
    let (s, _) = pass.measure("net.frame_rsnb", || inputs.frame(true))?;
    values.insert("net.frame_rsnb_mmap_s", s);
    values.insert("net.frame_rsnb_mib_per_s", mib(rsnb_bytes, s));
    let (s, _) = pass.measure("net.hash", || Ok(inputs.hash_spans()))?;
    let span_bytes: usize = inputs.graph_spans.iter().map(|s| s.len()).sum();
    values.insert("net.hash_s", s);
    values.insert("net.hash_mib_per_s", mib(span_bytes as u64, s));
    let (s, decoded) =
        pass.measure("net.decode_all", || inputs.decode(0..inputs.raw_json.len()))?;
    values.insert("net.decode_all_s", s);
    values.insert("net.decode_records_per_s", decoded as f64 / s);
    let (s, _) = pass.measure("net.behavior_hash", || {
        Ok(inputs.pair.fecs.iter().fold(0u128, |acc, fec| {
            acc ^ behavior_hash(&fec.pre, &inputs.db, inputs.scale.granularity).as_u128()
                ^ behavior_hash(&fec.post, &inputs.db, inputs.scale.granularity).as_u128()
        }))
    })?;
    values.insert("net.behavior_hash_s", s);
    let (s, nfas) = pass.measure("net.graph_to_fsa", || {
        let mut table = SymbolTable::new();
        Ok(inputs
            .reps
            .fecs
            .iter()
            .map(|AlignedFec { pre, post, .. }| {
                let mut fsa =
                    |g| graph_to_fsa(g, &inputs.db, inputs.scale.granularity, &mut table).trim();
                (fsa(pre), fsa(post))
            })
            .collect::<Vec<_>>())
    })?;
    values.insert("net.graph_to_fsa_s", s);
    let (s, _) = pass.measure("net.align", || {
        Ok(SnapshotPair::align(&inputs.pre, &inputs.post))
    })?;
    values.insert("net.align_s", s);
    let (s, scan1) = pass.measure("net.scan_side", || inputs.scan(files::POST_RSNB[0]))?;
    values.insert("net.scan_side_s", s);
    let scan2 = inputs.scan(files::POST_RSNB[1])?;
    let (s, _) = pass.measure("net.diff_side", || {
        Ok(diff_side(&scan1, &scan2).records.len())
    })?;
    values.insert("net.diff_side_s", s);
    let (s, _) = pass.measure("net.delta_parse", || parse_delta(inputs))?;
    values.insert("net.delta_parse_s", s);
    let (s, _) = pass.measure("net.pack", || inputs.pack())?;
    values.insert("net.pack_s", s);

    // automata, over the FSAs of every class representative
    let (s, dfas) = pass.measure("automata.determinize", || {
        Ok(nfas
            .iter()
            .map(|(pre, post)| (determinize(pre), determinize(post)))
            .collect::<Vec<_>>())
    })?;
    values.insert("automata.determinize_s", s);
    let (s, _) = pass.measure("automata.equivalent", || {
        Ok(dfas
            .iter()
            .filter(|(pre, post)| equivalent(pre, post).is_ok())
            .count())
    })?;
    values.insert("automata.equivalent_s", s);
    let (s, minimal) = pass.measure("automata.minimize", || {
        Ok(dfas
            .iter()
            .map(|(pre, post)| minimize(pre).len() + minimize(post).len())
            .sum::<usize>())
    })?;
    values.insert("automata.minimize_s", s);
    let states = |f: &dyn Fn(usize) -> usize| (0..nfas.len()).map(f).sum::<usize>() as f64;
    values.insert(
        "automata.nfa_states",
        states(&|i| nfas[i].0.len() + nfas[i].1.len()),
    );
    values.insert(
        "automata.dfa_states",
        states(&|i| dfas[i].0.len() + dfas[i].1.len()),
    );
    values.insert("automata.min_dfa_states", minimal as f64);

    // core
    let (s, program) = pass.measure("core.parse", || {
        parse_program(&inputs.source).map_err(|e| e.to_string())
    })?;
    values.insert("core.parse_s", s);
    let (s, _) = pass.measure("core.compile", || {
        compile_program(&program, &inputs.db, inputs.scale.granularity).map_err(|e| e.to_string())
    })?;
    values.insert("core.compile_s", s);
    let (s, _) = pass.measure("core.session_open", || inputs.session(inputs.config()))?;
    values.insert("core.session_open_s", s);

    // every `run_*` below times the run alone, on a session opened
    // outside the timer: a one-shot check starts with an empty memo
    let fresh = || inputs.session(inputs.config());
    let mut phases: Vec<PhaseTimings> = Vec::new();
    let mut max_class = Vec::new();
    let mut session = fresh()?;
    let (s, _) = pass.measure("core.run_pair", || {
        let report = run(&session, JobSpec::pair(&inputs.pair))?;
        phases.push(report.stats.phases);
        max_class.push(report.stats.max_class_time.as_secs_f64());
        session = fresh()?;
        Ok(())
    })?;
    values.insert("core.run_pair_s", s);
    let phase = |f: &dyn Fn(&PhaseTimings) -> Duration| {
        median(
            &phases
                .iter()
                .map(|p| f(p).as_secs_f64())
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    values.insert("core.phase_lower_cpu_s", phase(&|p| p.lower));
    values.insert("core.phase_determinize_cpu_s", phase(&|p| p.determinize));
    values.insert("core.phase_equivalent_cpu_s", phase(&|p| p.equivalent));
    values.insert("core.phase_witness_cpu_s", phase(&|p| p.witness));
    values.insert("core.max_class_s", median(&max_class).unwrap_or(0.0));
    let (s, _) = pass.measure("core.run_pair_nodedup", || {
        let report = run(
            &session,
            JobSpec::pair(&inputs.pair).with_options(JobOptions {
                dedup: false,
                ..JobOptions::default()
            }),
        )?;
        session = fresh()?;
        Ok(report.total)
    })?;
    values.insert("core.run_pair_nodedup_s", s);
    let (s, _) = pass.measure("core.decide", || {
        let report = run(&session, JobSpec::pair(&inputs.reps))?;
        session = fresh()?;
        Ok(report.total)
    })?;
    values.insert("core.decide_s", s);
    let (s, report) = pass.measure("core.run_streams_json", || {
        let report = run(&session, inputs.streams_job(false, 0)?)?;
        session = fresh()?;
        Ok(report)
    })?;
    values.insert("core.run_streams_json_s", s);
    values.insert("core.fecs", report.stats.fecs as f64);
    values.insert("core.classes", report.stats.classes as f64);
    values.insert("core.dedup_hits", report.stats.dedup_hits as f64);
    values.insert("core.graph_decodes", report.stats.graph_decodes as f64);
    values.insert("core.fst_memo_hits", report.stats.fst_memo_hits as f64);
    let (s, _) = pass.measure("core.run_streams_rsnb", || {
        let report = run(&session, inputs.streams_job(true, 0)?)?;
        session = fresh()?;
        Ok(report.total)
    })?;
    values.insert("core.run_streams_rsnb_s", s);

    let mut resident = Resident::open(inputs)?;
    let (s, warm) = pass.measure("core.run_full_warm", || resident.full(inputs))?;
    values.insert("core.run_full_warm_s", s);
    values.insert("core.warm_hits", warm.stats.warm_hits as f64);
    let (s, _) = pass.measure("core.run_deltas", || resident.delta(inputs))?;
    values.insert("core.run_deltas_s", s);

    let (s, text) = pass.measure("core.render_text", || Ok(report.to_string()))?;
    values.insert("core.render_text_s", s);
    values.insert("core.report_bytes", text.len() as f64);
    let (s, _) = pass.measure("core.render_json", || {
        serde_json::to_string_pretty(&report.to_value()).map_err(|e| e.to_string())
    })?;
    values.insert("core.render_json_s", s);

    cache_stages(
        pass,
        inputs,
        &report,
        if env.smoke { 500 } else { 10_000 },
        values,
    )
}

fn parse_delta(inputs: &Inputs) -> Result<usize, String> {
    let name = files::DELTA[0].1;
    let file = std::fs::File::open(inputs.path(name)).map_err(io_err(name))?;
    SnapshotDelta::from_reader(BufReader::new(file), name)
        .map(|d| d.records.len())
        .map_err(|e| e.to_string())
}

/// Median wall of `reps` verified runs of one `rela` command line.
fn child_median(
    prepared: &Prepared,
    reps: usize,
    args: &[&str],
    golden_ix: Option<usize>,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let done = prepared.runner.run(args)?;
        tally.record(match golden_ix {
            Some(ix) => verify_op(&done, &prepared.refs.golden[ix]).map(|_| ()),
            None if done.code == Some(0) => Ok(()),
            None => Err(format!("`rela {}` exited {:?}", args.join(" "), done.code)),
        });
        walls.push(done.wall_s);
    }
    Ok(median(&walls).expect("reps > 0"))
}

/// The stages that need `rela` children: `cli` and `serve`.
fn process_stages(
    env: &Env,
    workload: &Workload,
    prepared: &mut Prepared,
    own: &LoopStats,
    reps: usize,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let daemon = prepared
        .daemon
        .as_ref()
        .ok_or("the layer pass needs a daemon")?;
    values.insert("serve.start_s", daemon.start_s);
    let rounds = Budget::Rounds(if env.smoke { 1 } else { 4 });

    // cli: the one-shot check of the workload's own container
    let one_shot = match workload.op {
        OpKind::Serve => Some(run_loop(env, OpKind::CheckRsnb, prepared, rounds)?),
        _ => None,
    };
    if let Some(stats) = &one_shot {
        tally.absorb(&stats.tally);
    }
    let one_shot = one_shot.as_ref().unwrap_or(own);
    values.insert(
        "cli.overhead_s",
        one_shot.overhead_s(false).ok_or("no one-shot ops")?,
    );
    values.insert(
        "cli.spawn_floor_s",
        child_median(prepared, 4 * reps, &["help"], None, tally)?,
    );

    // serve: the round loop, then the paths the loop never takes
    let served = match workload.op {
        OpKind::Serve => None,
        _ => Some(run_loop(env, OpKind::Serve, prepared, rounds)?),
    };
    if let Some(stats) = &served {
        tally.absorb(&stats.tally);
    }
    let loop_stats = served.as_ref().unwrap_or(own);
    let wall_p50 = |full: bool| {
        loop_stats
            .wall_p50_s(full)
            .ok_or("the serve loop ran no ops")
    };
    values.insert("serve.full_submit_wall_p50_s", wall_p50(true)?);
    values.insert("serve.delta_submit_wall_p50_s", wall_p50(false)?);
    values.insert(
        "serve.full_overhead_s",
        loop_stats.overhead_s(true).ok_or("no full submits")?,
    );
    values.insert(
        "serve.delta_overhead_s",
        loop_stats.overhead_s(false).ok_or("no delta submits")?,
    );
    values.insert(
        "serve.daemon_cpu_per_op_s",
        loop_stats.daemon_cpu_s / loop_stats.ops.len().max(1) as f64,
    );
    values.insert(
        "serve.ping_rtt_s",
        child_median(
            prepared,
            2 * reps,
            &["submit", "--socket", SOCKET, "--ping"],
            None,
            tally,
        )?,
    );
    values.insert(
        "serve.full_json_wall_s",
        child_median(prepared, reps, &full_submit_args(false, 0), Some(0), tally)?,
    );
    // a base epoch the daemon never retained: DELTA_MISS, then the
    // client falls back to the full pair (the fallback notice makes the
    // fingerprint differ, so only the exit code is held to the golden)
    let mut walls = Vec::new();
    for _ in 0..reps {
        let done = prepared
            .runner
            .run(&delta_submit_args(0, "00000000000000000000000000000001"))?;
        let fell_back = done.code == Some(prepared.refs.golden[1].code)
            && done.stdout.starts_with("delta base not retained");
        tally.record(
            fell_back
                .then_some(())
                .ok_or_else(|| "a delta submit on an unknown base did not fall back".to_owned()),
        );
        walls.push(done.wall_s);
    }
    values.insert(
        "serve.delta_miss_fallback_wall_s",
        median(&walls).expect("reps > 0"),
    );
    // two closed-loop clients at once (as many as this host has cores)
    let per_client = if env.smoke { 3 } else { 20 };
    let walls: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|client| {
                let prepared = &*prepared;
                scope.spawn(move || {
                    (0..per_client)
                        .map(|n| {
                            let ix = (client + n) % 2;
                            let done = prepared.runner.run(&full_submit_args(true, ix))?;
                            verify_op(&done, &prepared.refs.golden[ix])?;
                            Ok(done.wall_s)
                        })
                        .collect::<Result<Vec<f64>, String>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let mut concurrent = Vec::new();
    for client in walls {
        // a client stops at its first failed submit: one failure each
        tally.attempted += per_client - 1;
        concurrent.extend(tally.record(client).unwrap_or_default());
    }
    values.insert(
        "serve.concurrent2_full_wall_p50_s",
        median(&concurrent).unwrap_or(0.0),
    );
    let bytes = |names: &[&str]| -> Result<f64, String> {
        Ok(names
            .iter()
            .map(|n| file_len(&prepared.runner.cwd().join(n)))
            .sum::<Result<u64, String>>()? as f64)
    };
    values.insert(
        "serve.bytes_sent_full",
        bytes(&[files::PRE_RSNB, files::POST_RSNB[0]])?,
    );
    values.insert(
        "serve.bytes_sent_delta",
        bytes(&[files::DELTA[0].0, files::DELTA[0].1])?,
    );
    let daemon = prepared.daemon.as_ref().expect("checked above");
    values.insert("serve.rss_end_mib", daemon.peak_rss_mib()?);
    values.insert(
        "serve.drain_s",
        shutdown(prepared)?.expect("the daemon was running"),
    );
    Ok(())
}

/// Span names whose self times make up an op of this kind, stage by
/// stage: what `trace.attributed_share` sums.
fn needed_stages(op: OpKind) -> &'static [&'static str] {
    match op {
        OpKind::CheckJson | OpKind::CheckRsnb => &[
            "cli.spawn",
            "cli.load_inputs",
            "core.parse",
            "core.compile",
            "net.frame",
            "net.hash",
            "net.decode",
            "core.decide",
            "core.render",
        ],
        OpKind::Serve => &[
            "cli.spawn",
            "net.delta_parse",
            "core.run_deltas",
            "core.render",
        ],
    }
}

/// Replay `ops` ops in-process with the tracer on. Each op is an `op`
/// span holding the calls a `rela` process makes in order, followed by
/// the stand-alone stage spans that split its `core.run` (which cannot
/// be opened up from outside) into frame / hash / decode / decide.
fn traced_replay(
    pass: &mut Pass,
    workload: &Workload,
    prepared: &Prepared,
    inputs: &Inputs,
    ops: usize,
    tally: &mut Tally,
) -> Result<(), String> {
    let rsnb = workload.op != OpKind::CheckJson;
    let founders = inputs.founder_records();
    let mut resident = match workload.op {
        OpKind::Serve => Some(Resident::open(inputs)?),
        _ => None,
    };
    // the live daemon's state: start every replay from a full submit
    let mut current = 0usize;
    if workload.op == OpKind::Serve {
        let done = prepared.runner.run(&full_submit_args(true, current))?;
        verify_op(&done, &prepared.refs.golden[current])?;
    }
    for _ in 0..ops {
        pass.tracer.next_op();
        pass.measure("cli.spawn", || prepared.runner.run(&["help"]).map(|_| ()))?;
        match &mut resident {
            None => {
                let report = pass.tracer.span("op", |t| -> Result<CheckReport, String> {
                    let (source, db) = t.span("cli.load_inputs", |_| {
                        let source = std::fs::read_to_string(inputs.path(files::SPEC))
                            .map_err(io_err(files::SPEC))?;
                        Ok::<_, String>((source, verify::load_db(&inputs.dir)?))
                    })?;
                    let session = t.span("core.session_open", |_| {
                        CheckSession::open(&source, db, inputs.config()).map_err(|e| e.to_string())
                    })?;
                    let report =
                        t.span("core.run", |_| run(&session, inputs.streams_job(rsnb, 0)?))?;
                    t.span("core.render", |_| black_box(report.to_string()));
                    Ok(report)
                })?;
                black_box(report);
                let (_, program) = pass.measure("core.parse", || {
                    parse_program(&inputs.source).map_err(|e| e.to_string())
                })?;
                pass.measure("core.compile", || {
                    compile_program(&program, &inputs.db, inputs.scale.granularity)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })?;
                pass.measure("net.frame", || inputs.frame(rsnb))?;
                pass.measure("net.hash", || Ok(inputs.hash_spans()))?;
                pass.measure("net.decode", || inputs.decode(founders.iter().copied()))?;
                let session = inputs.session(inputs.config())?;
                pass.measure("core.decide", || run(&session, JobSpec::pair(&inputs.reps)))?;
            }
            Some(resident) => {
                let done = pass.tracer.span("op", |t| {
                    t.span("serve.submit", |t| {
                        let done = prepared
                            .runner
                            .run(&delta_submit_args(current, &prepared.refs.epochs[current]));
                        if let Ok(Some(line)) = done
                            .as_ref()
                            .map(|d| d.stdout.lines().find_map(verify::parse_checked_line))
                        {
                            t.reported("serve.engine", line.engine_s);
                        }
                        done
                    })
                })?;
                current = 1 - current;
                tally.record(verify_op(&done, &prepared.refs.golden[current]));
                pass.measure("net.delta_parse", || parse_delta(inputs))?;
                let (_, report) = pass.measure("core.run_deltas", || resident.delta(inputs))?;
                pass.measure("core.render", || Ok(report.to_string()))?;
            }
        }
    }
    Ok(())
}

/// The cost of tracing: the op's engine run timed `pairs` times with
/// the tracer on and off, alternating so drift hits both sides alike;
/// the relative difference of the fastest run of each side (one engine
/// run varies by a tenth and more, so medians of a dozen runs cannot
/// resolve an overhead of two `Instant` reads; the minima can).
fn tracing_overhead(workload: &Workload, inputs: &Inputs, pairs: usize) -> Result<f64, String> {
    let mut resident = match workload.op {
        OpKind::Serve => Some(Resident::open(inputs)?),
        _ => None,
    };
    let rsnb = workload.op == OpKind::CheckRsnb;
    let mut engine_run = |tracer: &mut Tracer| -> Result<f64, String> {
        let session = inputs.session(inputs.config())?;
        let start = Instant::now();
        tracer.span("core.run", |_| match &mut resident {
            Some(resident) => resident.delta(inputs).map(|r| r.total),
            None => run(&session, inputs.streams_job(rsnb, 0)?).map(|r| r.total),
        })?;
        Ok(start.elapsed().as_secs_f64())
    };
    let (mut on, mut off) = (Tracer::on(), Tracer::off());
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        untraced.push(engine_run(&mut off)?);
        traced.push(engine_run(&mut on)?);
    }
    let fastest = |runs: &[f64]| runs.iter().copied().fold(f64::INFINITY, f64::min);
    let (traced, untraced) = (fastest(&traced), fastest(&untraced));
    Ok((traced - untraced) / untraced)
}

/// Run the whole traced pass for one workload: its own op loop (for the
/// tail and the untraced op wall), the `cli`/`serve` stages, the
/// in-process stages with the tracer off, then the traced replay.
pub fn run_pass(
    env: &Env,
    workload: &Workload,
    prepared: &mut Prepared,
    seconds: f64,
) -> Result<LayerReport, String> {
    let mut values = Values::new();
    let mut tally = Tally::default();
    let reps = if env.smoke { 2 } else { 5 };

    let daemon = prepared
        .daemon
        .as_ref()
        .ok_or("the layer pass needs a daemon")?;
    values.insert("serve.rss_primed_mib", daemon.peak_rss_mib()?);

    // the workload's own loop, untraced
    let budget = if env.smoke {
        Budget::Rounds(1)
    } else {
        Budget::Seconds(seconds / 3.0)
    };
    let own = run_loop(env, workload.op, prepared, budget)?;
    let walls = own.primary_walls();
    let op_wall = median(&walls).ok_or("the op loop ran no ops")?;
    let (hi_pct, hi) = tail(&walls).unwrap_or((50, op_wall));
    values.insert("tail.verdict_wall_p50_s", op_wall);
    values.insert("tail.verdict_wall_hi_s", hi);
    values.insert("tail.hi_percentile", f64::from(hi_pct));
    values.insert("tail.verdict_wall_max_s", max(&walls).unwrap_or(op_wall));
    values.insert("tail.samples", walls.len() as f64);
    tally.absorb(&own.tally);

    values.insert("baseline.path_diff_s", prepared.refs.path_diff_s);
    values.insert("baseline.changed_flows", prepared.refs.changed_flows as f64);
    let per_snapshot = prepared.refs.corpus.simulate_s / prepared.refs.corpus.snapshots as f64;
    values.insert("sim.simulate_s", per_snapshot);
    values.insert(
        "sim.records_per_s",
        prepared.refs.corpus.fecs as f64 / per_snapshot,
    );

    let inputs = Inputs::load(prepared)?;
    let mut pass = Pass {
        tracer: Tracer::off(),
        reps,
    };
    library_stages(&mut pass, env, &inputs, &mut values)?;

    // traced replay against the still-running daemon, then the
    // process stages, which end by draining it
    let mut traced = Pass {
        tracer: Tracer::on(),
        reps: 1,
    };
    let ops = if env.smoke { 2 } else { 5 };
    traced_replay(&mut traced, workload, prepared, &inputs, ops, &mut tally)?;
    let spans = traced.tracer.spans().to_vec();
    crate::trace::validate(&spans)?;
    let attributed: f64 = needed_stages(workload.op)
        .iter()
        .map(|name| median(&self_times_of(&spans, name)).unwrap_or(0.0))
        .sum();
    values.insert("trace.attributed_share", attributed / op_wall);
    values.insert(
        "trace.overhead_share",
        tracing_overhead(workload, &inputs, if env.smoke { 2 } else { 12 })?,
    );

    process_stages(env, workload, prepared, &own, reps, &mut tally, &mut values)?;

    Ok(LayerReport {
        values,
        spans,
        tally,
    })
}
