//! The check-job API, and the only way into the engine: one resident
//! [`CheckSession`] running any number of [`JobSpec`]s.
//!
//! The paper's §8.1 workflow is iterative: an operator re-submits
//! near-identical jobs against one spec, so the warm state (parsed
//! spec, compiled program, verdict store, FST memo, lowered relations)
//! is exactly what should persist between checks. This module splits
//! the API along that line:
//!
//! - a **session** owns everything that outlives a request: the
//!   compiled program, the location database, the cache epoch derived
//!   from both, an optional open [`VerdictStore`], and the FST memo of
//!   determinized equation sides;
//! - a **job** owns everything request-scoped: the snapshot pair (in
//!   memory or as labelled streams) and the per-job [`JobOptions`].
//!
//! One-shot CLI mode is the degenerate case — open a session, run one
//! job, exit — and `rela serve` is the same session kept resident
//! behind a socket; tests and benchmarks that want a cold run open a
//! fresh session for it. Reports are byte-identical across both ingest
//! modes and between a fresh and a warm session (the memo and store
//! change wall time and the stats line, never verdict bytes).
//!
//! ```
//! use rela_core::{CheckSession, JobSpec, SessionConfig};
//! use rela_net::{Device, LocationDb, Granularity, Snapshot, SnapshotPair,
//!                FlowSpec, linear_graph};
//!
//! let mut db = LocationDb::new();
//! db.add_device(Device::new("A1", "A1"));
//! db.add_device(Device::new("B1", "B1"));
//!
//! let mut pre = Snapshot::new();
//! let flow = FlowSpec::new("10.0.0.0/24".parse().unwrap(), "A1");
//! pre.insert(flow.clone(), linear_graph(&["A1", "B1"]));
//! let mut post = Snapshot::new();
//! post.insert(flow, linear_graph(&["A1", "B1"]));
//! let pair = SnapshotPair::align(&pre, &post);
//!
//! let session = CheckSession::open(
//!     "spec nochange := { .* : preserve }\ncheck nochange",
//!     db,
//!     SessionConfig { granularity: Granularity::Device, ..SessionConfig::default() },
//! ).unwrap();
//! let report = session.run(JobSpec::pair(&pair)).unwrap();
//! assert!(report.is_compliant());
//! ```

use crate::check::{cache_epoch, framer_feed, CancelToken, Checker, FstMemo, StageClock};
use crate::compile::{compile_program, CompiledProgram};
use crate::parser::parse_program;
use crate::pipeline::Side;
use crate::report::CheckReport;
use crate::retain::{RetentionSet, RetentionSlot};
use crate::RelaError;
use rela_cache::{CacheEpoch, VerdictStore};
use rela_net::faultio::FaultPlan;
use rela_net::{
    Granularity, LocationDb, MmapSource, Snapshot, SnapshotDelta, SnapshotEpoch, SnapshotError,
    SnapshotFramer, SnapshotPair, SnapshotReader,
};
use serde::{Deserialize, Serialize, Value};
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Session-lifetime configuration: what the spec compiles against and
/// how much parallelism every job gets. Fixed at [`CheckSession::open`]
/// time — changing either means a new session (and, for granularity, a
/// new cache epoch anyway, since the compiled program changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Location granularity the spec compiles at.
    pub granularity: Granularity,
    /// Worker threads per job; `0` uses the machine's available
    /// parallelism.
    pub threads: usize,
    /// Retain the raw records of the last `retain_bases`
    /// pipeline-ingested pairs (each with its snapshot epoch) so later
    /// jobs may submit only a delta against any retained epoch
    /// ([`JobInput::Deltas`]). `0` disables retention entirely. Costs
    /// the retained snapshots' bytes in memory; resident daemons and
    /// iteration loops want it, one-shot runs do not.
    pub retain_bases: usize,
    /// Optional byte budget across all retained base pairs. When the
    /// approximate footprint exceeds it, the oldest epochs are evicted
    /// first; the newest pair is never evicted. `None` bounds retention
    /// by count alone.
    pub retain_bytes: Option<u64>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            granularity: Granularity::Group,
            threads: 0,
            retain_bases: 0,
            retain_bytes: None,
        }
    }
}

/// How a job's snapshot streams are ingested. Irrelevant for
/// [`JobInput::Pair`], which is already in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// The pipelined engine: framing, decoding, fingerprinting, and the
    /// store consult overlap; each cold class is decided once the
    /// streams have ended.
    #[default]
    Pipelined,
    /// Materialize both snapshots in memory, then align and check them
    /// as a [`JobInput::Pair`] is checked — the batch engine, the
    /// reference the identity suites and `relabench`'s golden report
    /// compare the pipelined one against. No CLI flag spells it.
    Materialized,
}

/// Per-job knobs: everything about a check that is legitimate to vary
/// between two submissions to one session. This struct is the single
/// source of truth for the one-shot CLI flags *and* the serve wire
/// protocol — both serialize it with [`Serialize`]/[`Deserialize`], so
/// a client and a one-shot run cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOptions {
    /// Group FECs into behavior classes and decide one representative
    /// per class (`false` re-decides every FEC from scratch, which is
    /// only useful for measuring the dedup win).
    pub dedup: bool,
    /// Stream ingest mode (ignored for in-memory pairs).
    pub ingest: IngestMode,
    /// Consult (and write back to) the session's verdict store, when
    /// one is attached.
    pub use_cache: bool,
    /// For [`JobInput::Deltas`]: the snapshot epoch the delta documents
    /// claim as their base. The job fails unless that epoch is still
    /// retained by the session (and matches the `base` field of both
    /// delta documents). Ignored for other inputs.
    pub delta_base: Option<u128>,
    /// Cooperative deadline for the job in milliseconds. The engine
    /// polls it at class boundaries; a fired deadline aborts the job
    /// with [`JobError::DeadlineExceeded`] without tearing down the
    /// session. `None` means no deadline.
    pub deadline_ms: Option<u64>,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        JobOptions {
            dedup: true,
            ingest: IngestMode::default(),
            use_cache: true,
            delta_base: None,
            deadline_ms: None,
        }
    }
}

impl Serialize for JobOptions {
    fn to_value(&self) -> Value {
        let mode = match self.ingest {
            IngestMode::Pipelined => "pipelined",
            IngestMode::Materialized => "materialized",
        };
        Value::obj(vec![
            ("dedup", self.dedup.to_value()),
            ("ingest", Value::Str(mode.to_owned())),
            ("use_cache", self.use_cache.to_value()),
            (
                "delta_base",
                match self.delta_base {
                    Some(epoch) => Value::Str(format!("{}", SnapshotEpoch::from_u128(epoch))),
                    None => Value::Null,
                },
            ),
            (
                "deadline_ms",
                match self.deadline_ms {
                    Some(ms) => Value::UInt(ms),
                    None => Value::Null,
                },
            ),
        ])
    }
}

impl Deserialize for JobOptions {
    fn from_value(value: &Value) -> Result<JobOptions, serde::Error> {
        // keys this struct no longer has (older clients still send the
        // retired ingest tuning and witness keys) are ignored; a retired
        // *mode* is not
        let ingest = match serde::field::<String>(value, "ingest")?.as_str() {
            "pipelined" => IngestMode::Pipelined,
            "materialized" => IngestMode::Materialized,
            other => {
                return Err(serde::Error::custom(format!(
                    "unknown ingest mode `{other}` (expected `pipelined` or `materialized`)"
                )))
            }
        };
        Ok(JobOptions {
            dedup: serde::field(value, "dedup")?,
            ingest,
            use_cache: serde::field(value, "use_cache")?,
            // absent (pre-delta clients) and null both mean "no base"
            delta_base: match value.get("delta_base") {
                None | Some(Value::Null) => None,
                Some(v) => {
                    let text = v
                        .as_str()
                        .ok_or_else(|| serde::Error::custom("`delta_base` must be a hex string"))?;
                    Some(
                        text.parse::<SnapshotEpoch>()
                            .map_err(serde::Error::custom)?
                            .as_u128(),
                    )
                }
            },
            // absent (pre-deadline clients) and null both mean "none"
            deadline_ms: match value.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    serde::Error::custom("`deadline_ms` must be an unsigned integer")
                })?),
            },
        })
    }
}

/// The bytes behind a [`LabeledSource`]: a plain stream, or a memory
/// mapping that the pipelined binary framer consumes zero-copy.
enum SourceKind<'a> {
    Stream(Box<dyn Read + Send + 'a>),
    Mapped(MmapSource),
}

/// A labelled byte source carrying one snapshot. The label is mandatory
/// — it names the source in every error (a file path for file-backed
/// jobs, `job-N:pre`-style names for socket submissions), which is what
/// makes a malformed record traceable to its submission.
///
/// A source is either a byte stream ([`LabeledSource::new`]) or a
/// memory-mapped file ([`LabeledSource::mapped`]). Mapped RSNB
/// containers are framed in place by the pipelined engine — record
/// spans borrow the mapping instead of being copied — and every other
/// mode reads the mapping through a stream adapter, so the report bytes
/// are identical either way (`docs/INGEST.md`).
pub struct LabeledSource<'a> {
    source: SourceKind<'a>,
    label: String,
}

impl<'a> LabeledSource<'a> {
    /// Wrap a byte source with its mandatory label. The stream must
    /// carry the wire format of `docs/SNAPSHOT_FORMAT.md`, already
    /// decompressed.
    pub fn new(reader: impl Read + Send + 'a, label: impl Into<String>) -> LabeledSource<'a> {
        LabeledSource {
            source: SourceKind::Stream(Box::new(reader)),
            label: label.into(),
        }
    }

    /// Wrap a memory-mapped snapshot file with its mandatory label.
    pub fn mapped(map: MmapSource, label: impl Into<String>) -> LabeledSource<'static> {
        LabeledSource {
            source: SourceKind::Mapped(map),
            label: label.into(),
        }
    }

    /// The source name attached to every error.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Turn the source into a record framer: mapped sources frame in
    /// place (zero-copy for RSNB containers), streams are framed through
    /// shared chunks.
    pub fn into_framer(self) -> SnapshotFramer<Box<dyn Read + Send + 'a>> {
        match self.source {
            SourceKind::Stream(reader) => SnapshotFramer::new(reader, self.label),
            SourceKind::Mapped(map) => SnapshotFramer::from_map(map, self.label),
        }
    }

    /// Turn the source into a plain byte stream plus its label, for the
    /// inputs that parse rather than frame (materialized, deltas). Mapped
    /// sources are read through a `Cursor`.
    fn into_stream(self) -> (Box<dyn Read + Send + 'a>, String) {
        match self.source {
            SourceKind::Stream(reader) => (reader, self.label),
            SourceKind::Mapped(map) => (Box::new(std::io::Cursor::new(map)), self.label),
        }
    }
}

/// A job's snapshot input: an already-aligned pair, or two labelled
/// streams to ingest per [`JobOptions::ingest`].
pub enum JobInput<'a> {
    /// An aligned in-memory pair (tests, the simulator, callers that
    /// already materialized).
    Pair(&'a SnapshotPair),
    /// Two raw snapshot streams, aligned during ingest.
    Streams {
        /// The pre-change snapshot.
        pre: LabeledSource<'a>,
        /// The post-change snapshot.
        post: LabeledSource<'a>,
    },
    /// Two delta documents (`docs/SNAPSHOT_FORMAT.md`) against one of
    /// the session's retained base pairs; unchanged records replay from
    /// the retained spans without being re-sent or re-decoded. Requires
    /// [`SessionConfig::retain_bases`] > 0 and a prior full ingest.
    Deltas {
        /// The pre-side delta document.
        pre: LabeledSource<'a>,
        /// The post-side delta document.
        post: LabeledSource<'a>,
    },
}

/// One check job: request-scoped input plus request-scoped options.
pub struct JobSpec<'a> {
    /// The snapshot pair to check.
    pub input: JobInput<'a>,
    /// Per-job knobs.
    pub options: JobOptions,
}

impl<'a> JobSpec<'a> {
    /// A job over an aligned in-memory pair, default options.
    pub fn pair(pair: &'a SnapshotPair) -> JobSpec<'a> {
        JobSpec {
            input: JobInput::Pair(pair),
            options: JobOptions::default(),
        }
    }

    /// A job over two labelled snapshot streams, default options.
    pub fn streams(pre: LabeledSource<'a>, post: LabeledSource<'a>) -> JobSpec<'a> {
        JobSpec {
            input: JobInput::Streams { pre, post },
            options: JobOptions::default(),
        }
    }

    /// A job over two labelled delta documents, default options.
    pub fn deltas(pre: LabeledSource<'a>, post: LabeledSource<'a>) -> JobSpec<'a> {
        JobSpec {
            input: JobInput::Deltas { pre, post },
            options: JobOptions::default(),
        }
    }

    /// Replace the options.
    pub fn with_options(mut self, options: JobOptions) -> JobSpec<'a> {
        self.options = options;
        self
    }
}

/// Why a job failed, without taking the session down with it.
///
/// A session is resident state shared by many jobs, so [`CheckSession::run`]
/// contains every per-job failure: malformed input surfaces as
/// [`JobError::Snapshot`], a fired [`JobOptions::deadline_ms`] as
/// [`JobError::DeadlineExceeded`], and a panic anywhere in the engine as
/// [`JobError::Panicked`] — the session stays usable for the next job in
/// all three cases (session-lifetime locks are poison-immune and their
/// guarded state is content-keyed, so a partial run never corrupts it).
#[derive(Debug)]
pub enum JobError {
    /// The input could not be parsed or validated; carries the source
    /// label, entry index, and byte offset of the offending record.
    Snapshot(SnapshotError),
    /// The job's cooperative deadline fired before deciding finished.
    /// Nothing is retained or written back from the aborted run.
    DeadlineExceeded {
        /// The deadline the job declared.
        deadline_ms: u64,
        /// How long the job actually ran before giving up.
        elapsed: Duration,
    },
    /// The engine panicked while running the job. The panic was caught
    /// at the session boundary; `payload` is the panic message.
    Panicked {
        /// The panic payload, rendered as text.
        payload: String,
    },
}

impl JobError {
    /// The source label of the offending input, for snapshot errors.
    pub fn label(&self) -> Option<&str> {
        match self {
            JobError::Snapshot(err) => err.label(),
            _ => None,
        }
    }

    /// The entry index of the offending record, for snapshot errors.
    pub fn entry_index(&self) -> Option<usize> {
        match self {
            JobError::Snapshot(err) => err.entry_index(),
            _ => None,
        }
    }

    /// The byte offset of the offending record, for snapshot errors.
    pub fn byte_offset(&self) -> Option<u64> {
        match self {
            JobError::Snapshot(err) => err.byte_offset(),
            _ => None,
        }
    }

    /// The underlying snapshot error, if that is what this is.
    pub fn as_snapshot(&self) -> Option<&SnapshotError> {
        match self {
            JobError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Snapshot(err) => err.fmt(f),
            JobError::DeadlineExceeded {
                deadline_ms,
                elapsed,
            } => write!(
                f,
                "job deadline of {deadline_ms} ms exceeded after {:.1} ms",
                elapsed.as_secs_f64() * 1000.0
            ),
            JobError::Panicked { payload } => write!(f, "check panicked: {payload}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SnapshotError> for JobError {
    fn from(err: SnapshotError) -> JobError {
        JobError::Snapshot(err)
    }
}

/// Render a caught panic payload as text: `&str` and `String` payloads
/// (everything `panic!` produces) verbatim, anything else a placeholder.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A resident check context: the compiled spec, its location database,
/// the derived cache epoch, an optional open verdict store, and the
/// session-lifetime FST memo. Open once, run many jobs.
///
/// `run` takes `&self`: a session is shared between concurrent jobs
/// (the store is sharded, the memo is locked, the engine's own state is
/// per-run). See the [module docs](self) for the API rationale and an
/// example.
pub struct CheckSession {
    program: CompiledProgram,
    db: LocationDb,
    epoch: CacheEpoch,
    store: Option<VerdictStore>,
    memo: FstMemo,
    config: SessionConfig,
    jobs_run: AtomicUsize,
    /// The last K pipeline-ingested pairs' raw records and snapshot
    /// epochs, newest first (populated only when
    /// [`SessionConfig::retain_bases`] > 0).
    retained: RetentionSlot,
    /// The fault plan this session's jobs consult; `None` injects nothing.
    faults: Option<FaultPlan>,
}

impl CheckSession {
    /// Parse and compile `source` against `db` at the configured
    /// granularity, deriving the session's cache epoch. No verdict
    /// store is attached yet — see [`CheckSession::attach_store`].
    pub fn open(
        source: &str,
        db: LocationDb,
        config: SessionConfig,
    ) -> Result<CheckSession, RelaError> {
        let program = parse_program(source)?;
        let compiled = compile_program(&program, &db, config.granularity)?;
        let epoch = cache_epoch(&program, &db);
        Ok(CheckSession {
            program: compiled,
            db,
            epoch,
            store: None,
            memo: FstMemo::new(),
            config,
            jobs_run: AtomicUsize::new(0),
            retained: Mutex::new(RetentionSet::new(
                config.retain_bases.max(1),
                config.retain_bytes,
            )),
            faults: None,
        })
    }

    /// Attach an open verdict store. The caller opens it at this
    /// session's [`CheckSession::epoch`] (an epoch mismatch is not an
    /// error — the store simply never hits).
    pub fn attach_store(&mut self, store: VerdictStore) {
        self.store = Some(store);
    }

    /// Hand the session the fault plan its jobs consult at the engine's
    /// lifecycle points (`None` stops injecting). The plan is this
    /// session's alone: another session in the same process never sees
    /// it. An attached store takes its own via
    /// [`VerdictStore::set_faults`].
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The cache epoch derived from this session's spec and database.
    pub fn epoch(&self) -> CacheEpoch {
        self.epoch
    }

    /// The attached verdict store, if any.
    pub fn store(&self) -> Option<&VerdictStore> {
        self.store.as_ref()
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The location database the spec compiled against.
    pub fn db(&self) -> &LocationDb {
        &self.db
    }

    /// Number of jobs this session has completed (successfully or not).
    pub fn jobs_run(&self) -> usize {
        self.jobs_run.load(Ordering::Relaxed)
    }

    /// The snapshot epoch of the newest retained base pair, if
    /// [`SessionConfig::retain_bases`] > 0 and a pipelined job has
    /// completed. A [`JobInput::Deltas`] job may target this or any
    /// other epoch in [`CheckSession::retained_epochs`]. With jobs
    /// running concurrently this need not be the pair the caller's own
    /// job retained — that is its report's
    /// [`CheckStats::retained_epoch`](crate::report::CheckStats::retained_epoch).
    pub fn base_epoch(&self) -> Option<SnapshotEpoch> {
        self.retention().epochs().next()
    }

    /// All retained base epochs, newest first. These are the epochs a
    /// delta job may target (and what `rela serve` consults during
    /// delta negotiation).
    pub fn retained_epochs(&self) -> Vec<SnapshotEpoch> {
        self.retention().epochs().collect()
    }

    /// Whether `epoch` is still retained as a delta base.
    pub fn retains_epoch(&self, epoch: SnapshotEpoch) -> bool {
        self.retention().find(epoch).is_some()
    }

    /// The retention set, locked. Poison-immune: it only ever holds
    /// completed bases, so it is valid whatever a panicked holder was
    /// doing.
    fn retention(&self) -> MutexGuard<'_, RetentionSet> {
        self.retained.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run one check job. The report is byte-identical across ingest
    /// modes and across warm/cold sessions; errors carry the input's
    /// source label, entry index, and byte offset.
    ///
    /// Per-job failures are contained here: a panic inside the engine
    /// is caught at this boundary and returned as
    /// [`JobError::Panicked`], and a fired [`JobOptions::deadline_ms`]
    /// returns [`JobError::DeadlineExceeded`]. Either way the session
    /// remains fully usable — the memo, store, and retention set are
    /// guarded by poison-immune locks and only ever hold completed,
    /// content-keyed entries, so an aborted job cannot leave them
    /// half-written.
    pub fn run(&self, job: JobSpec<'_>) -> Result<CheckReport, JobError> {
        let deadline_ms = job.options.deadline_ms;
        let token = CancelToken::with_deadline_ms(deadline_ms);
        let start = Instant::now();
        // AssertUnwindSafe: every structure the closure shares with the
        // session (memo, store shards, retention set) takes insert-only,
        // content-keyed updates under locks recovered with
        // `PoisonError::into_inner`, so observing state after a panic is
        // sound. Scoped-thread panics inside the engine propagate to the
        // spawning scope and land here too.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_inner(job, &token)));
        self.jobs_run.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(Ok(report)) => {
                if token.fired() {
                    // the engine bailed at a class boundary and returned
                    // the empty cancellation report — surface the
                    // deadline, not a fake "0 violations" verdict
                    return Err(JobError::DeadlineExceeded {
                        deadline_ms: deadline_ms.unwrap_or(0),
                        elapsed: start.elapsed(),
                    });
                }
                Ok(report)
            }
            Ok(Err(err)) => Err(JobError::Snapshot(err)),
            Err(payload) => Err(JobError::Panicked {
                payload: panic_text(payload),
            }),
        }
    }

    /// The one place a [`Checker`] is built: this session's program,
    /// database, memo, fault plan and — when the job consults it — store,
    /// lent to one job under its `options`, the session's thread count
    /// and `cancel`.
    pub(crate) fn checker<'s>(
        &'s self,
        options: JobOptions,
        cancel: &'s CancelToken,
    ) -> Checker<'s> {
        Checker {
            program: &self.program,
            db: &self.db,
            options,
            threads: self.config.threads,
            cache: self.store.as_ref().filter(|_| options.use_cache),
            memo: &self.memo,
            // only the pipelined engine captures records, so the set
            // tracks the last K pipelined (full or delta) ingests
            retention: (self.config.retain_bases > 0).then_some(&self.retained),
            cancel,
            faults: self.faults.as_ref(),
        }
    }

    fn run_inner(
        &self,
        job: JobSpec<'_>,
        token: &CancelToken,
    ) -> Result<CheckReport, SnapshotError> {
        let mut clock = StageClock::start();
        let checker = self.checker(job.options, token);
        let mut report = match job.input {
            JobInput::Pair(pair) => checker.check(pair, &mut clock),
            JobInput::Deltas { pre, post } => {
                self.run_delta(&checker, pre, post, job.options.delta_base, &mut clock)?
            }
            JobInput::Streams { pre, post } => match job.options.ingest {
                IngestMode::Pipelined => {
                    let labels = [&pre, &post].map(|source| Some(source.label().to_owned()));
                    let feeds = vec![
                        framer_feed(pre.into_framer(), Side::Pre),
                        framer_feed(post.into_framer(), Side::Post),
                    ];
                    checker.run_pipelined(feeds, labels, &mut clock)?
                }
                IngestMode::Materialized => {
                    let collect = |source: LabeledSource<'_>| -> Result<Snapshot, SnapshotError> {
                        let (reader, label) = source.into_stream();
                        SnapshotReader::new(reader).with_label(label).collect()
                    };
                    // the snapshots are freed once aligned, inside
                    // `ingest`; the pair at this arm's end, in `assemble`
                    let pair = SnapshotPair::align(&collect(pre)?, &collect(post)?);
                    checker.check(&pair, &mut clock)
                }
            },
        };
        clock.stamp(&mut report);
        Ok(report)
    }

    /// Run a delta job: resolve the retained base it targets (any of the
    /// last K) — once, under one lock — parse both delta documents, and
    /// feed the base's replay of them through the pipelined engine. All
    /// of it up to the engine is the job's `replay` row.
    fn run_delta(
        &self,
        checker: &Checker<'_>,
        pre: LabeledSource<'_>,
        post: LabeledSource<'_>,
        declared_base: Option<u128>,
        clock: &mut StageClock,
    ) -> Result<CheckReport, SnapshotError> {
        let pre_label = pre.label().to_owned();
        let post_label = post.label().to_owned();
        let resolve = |what: &str, epoch: SnapshotEpoch| {
            let base = self.retention().resolve(what, epoch);
            base.map_err(|message| SnapshotError::at(message, 0).with_source_label(&pre_label))
        };
        // a declared base wins over the documents: an unretained epoch
        // rejects before the documents are even parsed
        let declared = declared_base
            .map(|declared| resolve("declared delta base", SnapshotEpoch::from_u128(declared)))
            .transpose()?;
        let pre_delta = SnapshotDelta::from_reader(pre.into_stream().0, &pre_label)?;
        let post_delta = SnapshotDelta::from_reader(post.into_stream().0, &post_label)?;
        let base = match declared {
            Some(base) => base,
            // no declared base: the documents name their own epoch
            None => resolve("delta base", pre_delta.base)?,
        };
        let items = base.replay(pre_delta, post_delta, [&pre_label, &post_label])?;
        clock.replayed();
        let feed = Box::new(items.into_iter().map(Ok));
        checker.run_pipelined(vec![feed], [Some(pre_label), Some(post_label)], clock)
    }

    /// Flush the attached store to disk if any job inserted fresh
    /// verdicts since the last flush. Returns whether a write happened;
    /// `Ok(false)` with no store attached.
    pub fn persist_if_dirty(&self) -> std::io::Result<bool> {
        match &self.store {
            Some(store) => store.persist_if_dirty(),
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rela_net::{linear_graph, Device, FlowSpec};

    fn db() -> LocationDb {
        let mut db = LocationDb::new();
        for name in ["A1", "B1", "C1"] {
            db.add_device(Device::new(name, name));
        }
        db
    }

    fn pair() -> SnapshotPair {
        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        for (ix, tail) in [["B1"], ["C1"]].iter().enumerate() {
            let flow = FlowSpec::new(format!("10.0.{ix}.0/24").parse().unwrap(), "A1");
            let path: Vec<&str> = std::iter::once("A1").chain(tail.iter().copied()).collect();
            pre.insert(flow.clone(), linear_graph(&path));
            post.insert(flow, linear_graph(&path));
        }
        SnapshotPair::align(&pre, &post)
    }

    const SPEC: &str = "spec nochange := { .* : preserve }\ncheck nochange";

    fn session() -> CheckSession {
        CheckSession::open(
            SPEC,
            db(),
            SessionConfig {
                granularity: Granularity::Device,
                threads: 1,
                ..SessionConfig::default()
            },
        )
        .unwrap()
    }

    /// The filtered verdict bytes: everything except the timing- and
    /// stats-bearing lines (same filter the engine equivalence tests
    /// use).
    fn verdict_bytes(report: &CheckReport) -> String {
        report
            .to_string()
            .lines()
            .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn both_ingest_modes_agree_with_the_pair_path() {
        let s = session();
        let pair = pair();
        let json = {
            let mut pre = Snapshot::new();
            let mut post = Snapshot::new();
            for fec in &pair.fecs {
                pre.insert(fec.flow.clone(), fec.pre.clone());
                post.insert(fec.flow.clone(), fec.post.clone());
            }
            (pre.to_json().unwrap(), post.to_json().unwrap())
        };
        let baseline = s.run(JobSpec::pair(&pair)).unwrap();
        for ingest in [IngestMode::Pipelined, IngestMode::Materialized] {
            let job = JobSpec::streams(
                LabeledSource::new(json.0.as_bytes(), "pre.json"),
                LabeledSource::new(json.1.as_bytes(), "post.json"),
            )
            .with_options(JobOptions {
                ingest,
                ..JobOptions::default()
            });
            let report = s.run(job).unwrap();
            assert_eq!(
                verdict_bytes(&report),
                verdict_bytes(&baseline),
                "{ingest:?} diverged"
            );
        }
        assert_eq!(s.jobs_run(), 3);
    }

    #[test]
    fn stream_errors_carry_the_job_label() {
        let s = session();
        let err = s
            .run(JobSpec::streams(
                LabeledSource::new(&b"{\"fecs\": [42]}"[..], "job-7:pre"),
                LabeledSource::new(&b"{\"fecs\": []}"[..], "job-7:post"),
            ))
            .unwrap_err();
        assert_eq!(err.label(), Some("job-7:pre"));
        assert_eq!(err.entry_index(), Some(0));
        assert!(err.byte_offset().is_some());
        assert!(err.to_string().starts_with("job-7:pre: "), "{err}");
    }

    #[test]
    fn second_job_replays_warm_from_the_attached_store() {
        let mut s = session();
        s.attach_store(VerdictStore::in_memory(s.epoch()));
        let pair = pair();
        let cold = s.run(JobSpec::pair(&pair)).unwrap();
        assert_eq!(cold.stats.warm_hits, 0);
        let warm = s.run(JobSpec::pair(&pair)).unwrap();
        assert_eq!(warm.stats.warm_hits, warm.stats.classes);
        assert_eq!(verdict_bytes(&cold), verdict_bytes(&warm));
    }

    #[test]
    fn job_options_round_trip_the_wire_shape() {
        let opts = JobOptions {
            dedup: false,
            ingest: IngestMode::Materialized,
            use_cache: false,
            delta_base: Some(0xdead_beef),
            deadline_ms: Some(1234),
        };
        let json = serde_json::to_string(&opts.to_value()).unwrap();
        let back = JobOptions::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, opts);
        let defaults = JobOptions::default();
        assert_eq!(defaults.ingest, IngestMode::Pipelined);
        assert!(defaults.dedup && defaults.use_cache);
        assert_eq!((defaults.delta_base, defaults.deadline_ms), (None, None));
        assert_eq!(
            JobOptions::from_value(&defaults.to_value()).unwrap(),
            defaults
        );
    }

    #[test]
    fn an_older_clients_payload_still_parses_but_the_serial_mode_is_refused() {
        // the JOB payload as earlier engines' clients wrote it: today's
        // keys plus the five retired ones (spelled in halves, so a search
        // for live uses of any of these names finds none) and the ingest
        // mode the caller picks
        let old_payload = |opts: &JobOptions, mode: &str| {
            let Value::Obj(mut fields) = opts.to_value() else {
                panic!("job options serialize as an object");
            };
            fields.retain(|(key, _)| key != "ingest");
            fields.push(("ingest".to_owned(), Value::Str(mode.to_owned())));
            fields.push((["pipeline", "depth"].join("_"), Value::UInt(5)));
            fields.push((["minimize", "sides"].join("_"), Value::Bool(true)));
            fields.push((["max", "paths"].join("_"), Value::UInt(7)));
            fields.push((["max", "len"].join("_"), Value::UInt(99)));
            fields.push((["list", "paths"].join("_"), Value::UInt(2)));
            Value::Obj(fields)
        };
        let opts = JobOptions {
            deadline_ms: Some(50),
            ..JobOptions::default()
        };
        for (ingest, name) in [
            (IngestMode::Pipelined, "pipelined"),
            (IngestMode::Materialized, "materialized"),
        ] {
            let opts = JobOptions { ingest, ..opts };
            assert_eq!(
                JobOptions::from_value(&old_payload(&opts, name)).unwrap(),
                opts
            );
        }
        let err = JobOptions::from_value(&old_payload(&opts, "serial"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("`serial`") && err.contains("`pipelined` or `materialized`"),
            "{err}"
        );
    }

    fn retaining_session() -> CheckSession {
        retaining_session_k(1)
    }

    fn retaining_session_k(k: usize) -> CheckSession {
        let mut s = CheckSession::open(
            SPEC,
            db(),
            SessionConfig {
                granularity: Granularity::Device,
                threads: 1,
                retain_bases: k,
                retain_bytes: None,
            },
        )
        .unwrap();
        s.attach_store(VerdictStore::in_memory(s.epoch()));
        s
    }

    /// Three-flow snapshots; `detour` reroutes flow 1's post side.
    fn delta_fixture(detour: bool) -> (String, String) {
        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        for ix in 0..3 {
            let flow = FlowSpec::new(format!("10.0.{ix}.0/24").parse().unwrap(), "A1");
            pre.insert(flow.clone(), linear_graph(&["A1", "B1"]));
            let path: &[&str] = if detour && ix == 1 {
                &["A1", "C1"]
            } else {
                &["A1", "B1"]
            };
            post.insert(flow, linear_graph(path));
        }
        (pre.to_json().unwrap(), post.to_json().unwrap())
    }

    #[test]
    fn delta_job_matches_full_resubmission_and_skips_decodes() {
        use rela_net::{diff_side, pair_epoch, scan_side, write_delta};
        let s = retaining_session();
        let (base_pre, base_post) = delta_fixture(false);
        let (new_pre, new_post) = delta_fixture(true);
        s.run(JobSpec::streams(
            LabeledSource::new(base_pre.as_bytes(), "base:pre"),
            LabeledSource::new(base_post.as_bytes(), "base:post"),
        ))
        .unwrap();
        let epoch = s.base_epoch().expect("base retained after a pipelined job");
        let first_base = s.retention().find(epoch).unwrap(); // K = 1: the delta job evicts it
                                                             // the offline scanner derives the very same epoch the session
                                                             // captured during ingest
        let scan = |json: &str, label: &str| {
            scan_side(SnapshotFramer::new(json.as_bytes(), label.to_owned())).unwrap()
        };
        let base_pre_scan = scan(&base_pre, "base:pre");
        let base_post_scan = scan(&base_post, "base:post");
        assert_eq!(epoch, pair_epoch(base_pre_scan.fold, base_post_scan.fold));
        // diff each side and render the delta documents
        let delta_doc = |base_scan, json: &str, label: &str| {
            let diff = diff_side(base_scan, &scan(json, label));
            let mut doc = Vec::new();
            write_delta(&mut doc, epoch, &diff.removed, &diff.records).unwrap();
            doc
        };
        let pre_doc = delta_doc(&base_pre_scan, &new_pre, "new:pre");
        let post_doc = delta_doc(&base_post_scan, &new_post, "new:post");
        let delta_report = s
            .run(
                JobSpec::deltas(
                    LabeledSource::new(&pre_doc[..], "delta:pre"),
                    LabeledSource::new(&post_doc[..], "delta:post"),
                )
                .with_options(JobOptions {
                    delta_base: Some(epoch.as_u128()),
                    ..JobOptions::default()
                }),
            )
            .unwrap();
        // the delta run decodes only the changed flow's pair: the two
        // unchanged flows replay without touching their graphs
        assert_eq!(delta_report.stats.fecs, 3);
        assert_eq!(delta_report.stats.graph_decodes, 2);
        // the delta ingest retains the *new* pair as the next base
        let new_epoch = s.base_epoch().unwrap();
        assert_ne!(new_epoch, epoch);
        // which holds one row a flow, and shares with the first base the
        // rows of the two flows the delta did not touch — the same rows,
        // not copies
        let by_flow = |base: &crate::retain::RetainedBase| {
            let mut rows = base.rows.clone();
            rows.sort_by(|a, b| a.flow.cmp(&b.flow));
            rows
        };
        let old_rows = by_flow(&first_base);
        let new_rows = by_flow(&s.retention().find(new_epoch).unwrap());
        assert_eq!(new_rows.len(), 3);
        let shared: Vec<bool> = (0..3)
            .map(|ix| std::sync::Arc::ptr_eq(&old_rows[ix], &new_rows[ix]))
            .collect();
        assert_eq!(shared, [true, false, true]);
        // byte-identical to resubmitting the new snapshots in full
        let full = s
            .run(JobSpec::streams(
                LabeledSource::new(new_pre.as_bytes(), "new:pre"),
                LabeledSource::new(new_post.as_bytes(), "new:post"),
            ))
            .unwrap();
        assert_eq!(verdict_bytes(&delta_report), verdict_bytes(&full));
        assert_eq!(s.base_epoch().unwrap(), new_epoch, "same pair, same epoch");
        // the delta job folded the mixes its replayed records carried
        // since they were first framed, the full job computed every mix
        // afresh, the scanner never saw either: one pair, one epoch
        assert_eq!(delta_report.stats.retained_epoch, Some(new_epoch));
        assert_eq!(full.stats.retained_epoch, Some(new_epoch));
        assert_eq!(
            new_epoch,
            pair_epoch(
                scan(&new_pre, "new:pre").fold,
                scan(&new_post, "new:post").fold
            )
        );
    }

    type SideRecords = Vec<(FlowSpec, rela_net::ForwardingGraph)>;

    fn side_json(side: &SideRecords) -> Vec<u8> {
        let mut writer = rela_net::SnapshotWriter::new(Vec::new()).unwrap();
        for (flow, graph) in side {
            writer.write(flow, graph).unwrap();
        }
        writer.finish().unwrap()
    }

    fn scan(bytes: &[u8]) -> rela_net::SideScan {
        rela_net::scan_side(SnapshotFramer::new(bytes, "scan".to_owned())).unwrap()
    }

    /// The delta documents that take the pair `old` to `new`, against
    /// the retained base `base`.
    fn delta_docs(base: SnapshotEpoch, old: [&[u8]; 2], new: [&[u8]; 2]) -> [Vec<u8>; 2] {
        use rela_net::{diff_side, write_delta};
        [0, 1].map(|side| {
            let diff = diff_side(&scan(old[side]), &scan(new[side]));
            let mut doc = Vec::new();
            write_delta(&mut doc, base, &diff.removed, &diff.records).unwrap();
            doc
        })
    }

    fn delta_spec(base: SnapshotEpoch, [pre, post]: &[Vec<u8>; 2], dedup: bool) -> JobSpec<'_> {
        JobSpec::deltas(
            LabeledSource::new(&pre[..], "delta:pre"),
            LabeledSource::new(&post[..], "delta:post"),
        )
        .with_options(JobOptions {
            delta_base: Some(base.as_u128()),
            dedup,
            ..JobOptions::default()
        })
    }

    fn delta_job(s: &CheckSession, base: SnapshotEpoch, docs: &[Vec<u8>; 2]) -> CheckReport {
        s.run(delta_spec(base, docs, true)).unwrap()
    }

    fn full_job(s: &CheckSession, pre: &[u8], post: &[u8]) -> CheckReport {
        s.run(JobSpec::streams(
            LabeledSource::new(pre, "full:pre"),
            LabeledSource::new(post, "full:post"),
        ))
        .unwrap()
    }

    /// Delta chains over a base the two sides of which agree neither in
    /// order nor in flows — a pre-only flow (a prefix decommission), a
    /// post-only one (a new announcement), the post side listed in another
    /// order — pinned where it is observable: after every job of the chain
    /// the reply and the retained epoch are those of a fresh session
    /// given the same two snapshots in full. The base keeps its
    /// three-member class together, and the chain breaks it up — one
    /// member rerouted, one removed — so the class admitted whole is
    /// pinned too, at one and two threads, with and without a store.
    /// Decodes stay bounded by the change: a store answers every
    /// untouched class by its bytes, and without one each class pays its
    /// first row's decode.
    #[test]
    fn delta_chains_over_an_unaligned_base_match_full_resubmission() {
        use rela_net::pair_epoch;
        let flow = |ix: usize| FlowSpec::new(format!("10.0.{ix}.0/24").parse().unwrap(), "A1");
        let via = |hop: &str| linear_graph(&["A1", hop]);
        for threads in [1, 2] {
            for stored in [false, true] {
                let open = || {
                    let config = SessionConfig {
                        granularity: Granularity::Device,
                        threads,
                        retain_bases: 1,
                        retain_bytes: None,
                    };
                    let mut s = CheckSession::open(SPEC, db(), config).unwrap();
                    if stored {
                        s.attach_store(VerdictStore::in_memory(s.epoch()));
                    }
                    s
                };
                let mut pre: SideRecords = [0, 1, 7, 2].map(|ix| (flow(ix), via("B1"))).into();
                let mut post: SideRecords = [2, 8, 0, 1].map(|ix| (flow(ix), via("B1"))).into();
                let s = open();
                let (mut pre_json, mut post_json) = (side_json(&pre), side_json(&post));
                let seed = full_job(&s, &pre_json, &post_json);
                assert_eq!(seed.stats.fecs, 5);
                // an empty delta replays each of the base's classes as one
                // item: flows 0–2, the pre-only 7, the post-only 8
                let base = s.base_epoch().unwrap();
                let empty = format!("{{\"base\":\"{base}\",\"removed\":[],\"records\":[]}}");
                let nothing = || SnapshotDelta::from_reader(empty.as_bytes(), "d").unwrap();
                let retained = s.retention().find(base).unwrap();
                let items = retained.replay(nothing(), nothing(), ["d", "d"]).unwrap();
                let mut sizes: Vec<usize> = items
                    .iter()
                    .map(|item| match item {
                        crate::check::PreparedItem::Class(rows) => rows.len(),
                        _ => panic!("an empty delta replays classes only"),
                    })
                    .collect();
                sizes.sort_unstable();
                assert_eq!(sizes, [1, 1, 3]);
                let mut classes = seed.stats.classes;
                for (step, fecs) in [5, 4, 4, 5, 4, 5].into_iter().enumerate() {
                    let changed_records = match step {
                        // change one side of a two-sided flow
                        0 => {
                            post[3].1 = via("C1");
                            1
                        }
                        // remove the pre-only flow
                        1 => {
                            pre.retain(|(f, _)| *f != flow(7));
                            0
                        }
                        // give the post-only flow its pre side
                        2 => {
                            pre.push((flow(8), via("C1")));
                            1
                        }
                        // add a flow new to both sides
                        3 => {
                            pre.insert(0, (flow(9), via("B1")));
                            post.push((flow(9), via("C1")));
                            2
                        }
                        // remove a two-sided flow, a member of a class
                        4 => {
                            pre.retain(|(f, _)| *f != flow(0));
                            post.retain(|(f, _)| *f != flow(0));
                            0
                        }
                        // add a flow on the post side only
                        _ => {
                            post.push((flow(10), via("B1")));
                            1
                        }
                    };
                    let at = format!("threads {threads}, store {stored}, step {step}");
                    let base = s.base_epoch().unwrap();
                    let (new_pre, new_post) = (side_json(&pre), side_json(&post));
                    let docs = delta_docs(base, [&pre_json, &post_json], [&new_pre, &new_post]);
                    let delta = delta_job(&s, base, &docs);
                    let fresh = full_job(&open(), &new_pre, &new_post);
                    assert_eq!(verdict_bytes(&delta), verdict_bytes(&fresh), "{at}");
                    assert_eq!(delta.compliant, fresh.compliant, "{at}");
                    assert_eq!(delta.stats.fecs, fecs, "{at}");
                    assert_eq!(fresh.stats.fecs, fecs, "{at}");
                    let epoch = pair_epoch(scan(&new_pre).fold, scan(&new_post).fold);
                    assert_eq!(delta.stats.retained_epoch, Some(epoch), "{at}");
                    assert_eq!(fresh.stats.retained_epoch, Some(epoch), "{at}");
                    let bound = if stored {
                        2 * changed_records
                    } else {
                        2 * (changed_records + classes)
                    };
                    let decodes = delta.stats.graph_decodes;
                    assert!(decodes <= bound, "{at}: {decodes} decodes, bound {bound}");
                    classes = delta.stats.classes;
                    (pre_json, post_json) = (new_pre, new_post);
                }
                // a job without dedup admits every replayed row by itself,
                // whatever class the base kept it in
                let base = s.base_epoch().unwrap();
                let docs = delta_docs(base, [&pre_json, &post_json], [&pre_json, &post_json]);
                let undeduped = s.run(delta_spec(base, &docs, false)).unwrap();
                assert_eq!(undeduped.stats.classes, undeduped.stats.fecs);
                let fresh = full_job(&open(), &pre_json, &post_json);
                assert_eq!(verdict_bytes(&undeduped), verdict_bytes(&fresh));
            }
        }
    }

    /// The stage rows cover the job: at one thread their sum is the
    /// report's `elapsed` — and within 10 % of the wall around the
    /// session's `run` — on a streams job, a delta job and a
    /// materialized streams job, whose freed snapshots and pair stay
    /// inside the rows; only the delta job replays. The wall check takes
    /// the best of three tries, so one preemption outside the job does
    /// not fail it.
    #[test]
    fn the_stage_rows_sum_to_the_job_wall() {
        let flow = |ix: usize| {
            let dst = format!("10.{}.{}.0/24", ix / 256, ix % 256);
            FlowSpec::new(dst.parse().unwrap(), "A1")
        };
        let pre: SideRecords = (0..2000)
            .map(|ix| (flow(ix), linear_graph(&["A1", "B1"])))
            .collect();
        let mut post = pre.clone();
        post[7].1 = linear_graph(&["A1", "C1"]);
        let (pre_json, post_json) = (side_json(&pre), side_json(&post));
        post[9].1 = linear_graph(&["A1", "C1"]);
        let new_post = side_json(&post);
        let close = |sum: Duration, wall: Duration| sum.abs_diff(wall) <= wall / 10;
        let timed = |job: &dyn Fn() -> CheckReport| {
            let t0 = Instant::now();
            let report = job();
            (report, t0.elapsed())
        };
        let materialized = JobOptions {
            ingest: IngestMode::Materialized,
            ..JobOptions::default()
        };
        let mut covered = [false; 3];
        for _ in 0..3 {
            let s = retaining_session();
            let streams = timed(&|| full_job(&s, &pre_json, &post_json));
            let base = s.base_epoch().unwrap();
            let docs = delta_docs(base, [&pre_json, &post_json], [&pre_json, &new_post]);
            let delta = timed(&|| delta_job(&s, base, &docs));
            let batch = timed(&|| {
                let job = JobSpec::streams(
                    LabeledSource::new(pre_json.as_slice(), "pre"),
                    LabeledSource::new(new_post.as_slice(), "post"),
                );
                s.run(job.with_options(materialized)).unwrap()
            });
            for (ix, (report, wall)) in [streams, delta, batch].into_iter().enumerate() {
                let rows = report.stats.phases;
                assert_eq!(rows.serial(), report.elapsed, "{rows:?}");
                assert_eq!(rows.replay > Duration::ZERO, ix == 1, "{rows:?}");
                assert!(rows.ingest > Duration::ZERO && rows.assemble > Duration::ZERO);
                // the ingest rows are the pipelined engine's: a framer
                // and a worker each clocked something there, and the
                // batch engine leaves all four empty
                let pipelined = ix < 2;
                assert_eq!(rows.frame > Duration::ZERO, pipelined, "{rows:?}");
                assert_eq!(rows.work > Duration::ZERO, pipelined, "{rows:?}");
                if !pipelined {
                    assert_eq!(rows.send_blocked + rows.recv_wait, Duration::ZERO);
                }
                covered[ix] |= close(rows.serial(), wall);
            }
            if covered == [true; 3] {
                return;
            }
        }
        panic!("the stage rows did not cover the job wall: {covered:?}");
    }

    #[test]
    fn delta_jobs_reject_a_wrong_or_missing_base() {
        let s = retaining_session();
        let doc = |base: &str| format!("{{\"base\":\"{base}\",\"removed\":[],\"records\":[]}}");
        let zeros = "0".repeat(32);
        // no base retained yet
        let err = s
            .run(JobSpec::deltas(
                LabeledSource::new(doc(&zeros).into_bytes().as_slice(), "d:pre"),
                LabeledSource::new(doc(&zeros).into_bytes().as_slice(), "d:post"),
            ))
            .unwrap_err();
        assert!(
            err.to_string().contains("no retained base snapshot"),
            "{err}"
        );
        // ingest a base, then target a stale epoch
        let (pre, post) = delta_fixture(false);
        s.run(JobSpec::streams(
            LabeledSource::new(pre.as_bytes(), "base:pre"),
            LabeledSource::new(post.as_bytes(), "base:post"),
        ))
        .unwrap();
        let err = s
            .run(JobSpec::deltas(
                LabeledSource::new(doc(&zeros).into_bytes().as_slice(), "d:pre"),
                LabeledSource::new(doc(&zeros).into_bytes().as_slice(), "d:post"),
            ))
            .unwrap_err();
        assert!(
            err.to_string().contains("does not match the retained base"),
            "{err}"
        );
        assert_eq!(err.label(), Some("d:pre"));
        // a declared base wins over the documents: mismatch rejects
        // before the documents are even parsed
        let err = s
            .run(
                JobSpec::deltas(
                    LabeledSource::new(&b"not json"[..], "d:pre"),
                    LabeledSource::new(&b"not json"[..], "d:post"),
                )
                .with_options(JobOptions {
                    delta_base: Some(1),
                    ..JobOptions::default()
                }),
            )
            .unwrap_err();
        assert!(err.to_string().contains("declared delta base"), "{err}");
    }

    #[test]
    fn deadline_zero_aborts_with_a_typed_error_and_the_session_survives() {
        let s = session();
        let pair = pair();
        let err = s
            .run(JobSpec::pair(&pair).with_options(JobOptions {
                deadline_ms: Some(0),
                ..JobOptions::default()
            }))
            .unwrap_err();
        assert!(
            matches!(err, JobError::DeadlineExceeded { deadline_ms: 0, .. }),
            "{err:?}"
        );
        assert!(err.label().is_none(), "deadline errors carry no source");
        // the session still serves the identical job without a deadline
        let report = s.run(JobSpec::pair(&pair)).unwrap();
        assert!(report.is_compliant());
        assert_eq!(s.jobs_run(), 2, "the aborted job still counts");
    }

    #[test]
    fn two_retained_epochs_serve_interleaved_deltas() {
        let s = retaining_session_k(2);
        let (pre_a, post_a) = delta_fixture(false);
        let (pre_b, post_b) = delta_fixture(true);
        let full = |pre: &str, post: &str, tag: &str| {
            s.run(JobSpec::streams(
                LabeledSource::new(pre.as_bytes(), format!("{tag}:pre")),
                LabeledSource::new(post.as_bytes(), format!("{tag}:post")),
            ))
            .unwrap()
        };
        let report_a = full(&pre_a, &post_a, "a");
        let epoch_a = s.base_epoch().unwrap();
        let report_b = full(&pre_b, &post_b, "b");
        let epoch_b = s.base_epoch().unwrap();
        assert_ne!(epoch_a, epoch_b);
        assert_eq!(s.retained_epochs(), vec![epoch_b, epoch_a]);
        assert!(s.retains_epoch(epoch_a) && s.retains_epoch(epoch_b));
        // an empty delta against either retained epoch replays that base
        // wholesale: zero decodes, verdicts byte-identical to the full run
        let empty_doc = |epoch: SnapshotEpoch| {
            format!("{{\"base\":\"{epoch}\",\"removed\":[],\"records\":[]}}")
        };
        for (epoch, baseline) in [(epoch_a, &report_a), (epoch_b, &report_b)] {
            let doc = empty_doc(epoch);
            let report = s
                .run(
                    JobSpec::deltas(
                        LabeledSource::new(doc.as_bytes(), "d:pre"),
                        LabeledSource::new(doc.as_bytes(), "d:post"),
                    )
                    .with_options(JobOptions {
                        delta_base: Some(epoch.as_u128()),
                        ..JobOptions::default()
                    }),
                )
                .unwrap();
            assert_eq!(report.stats.graph_decodes, 0, "pure replay decodes nothing");
            assert_eq!(verdict_bytes(&report), verdict_bytes(baseline));
        }
    }

    #[test]
    fn evicted_epochs_reject_deltas_until_resubmitted_in_full() {
        let s = retaining_session(); // K = 1: the second ingest evicts the first
        let (pre_a, post_a) = delta_fixture(false);
        let (pre_b, post_b) = delta_fixture(true);
        let full = |pre: &str, post: &str, tag: &str| {
            s.run(JobSpec::streams(
                LabeledSource::new(pre.as_bytes(), format!("{tag}:pre")),
                LabeledSource::new(post.as_bytes(), format!("{tag}:post")),
            ))
            .unwrap()
        };
        let report_a = full(&pre_a, &post_a, "a");
        let epoch_a = s.base_epoch().unwrap();
        full(&pre_b, &post_b, "b");
        assert!(!s.retains_epoch(epoch_a), "K=1 evicted the older base");
        let doc = format!("{{\"base\":\"{epoch_a}\",\"removed\":[],\"records\":[]}}");
        let err = s
            .run(
                JobSpec::deltas(
                    LabeledSource::new(doc.as_bytes(), "d:pre"),
                    LabeledSource::new(doc.as_bytes(), "d:post"),
                )
                .with_options(JobOptions {
                    delta_base: Some(epoch_a.as_u128()),
                    ..JobOptions::default()
                }),
            )
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("does not match the retained bases"),
            "{err}"
        );
        // degrade to a full resubmission: identical verdict bytes
        let again = full(&pre_a, &post_a, "a2");
        assert_eq!(verdict_bytes(&again), verdict_bytes(&report_a));
    }

    #[test]
    fn a_tight_byte_budget_keeps_only_the_newest_base() {
        let s = CheckSession::open(
            SPEC,
            db(),
            SessionConfig {
                granularity: Granularity::Device,
                threads: 1,
                retain_bases: 4,
                retain_bytes: Some(1),
            },
        )
        .unwrap();
        let (pre_a, post_a) = delta_fixture(false);
        let (pre_b, post_b) = delta_fixture(true);
        for (pre, post, tag) in [(&pre_a, &post_a, "a"), (&pre_b, &post_b, "b")] {
            s.run(JobSpec::streams(
                LabeledSource::new(pre.as_bytes(), format!("{tag}:pre")),
                LabeledSource::new(post.as_bytes(), format!("{tag}:post")),
            ))
            .unwrap();
        }
        assert_eq!(
            s.retained_epochs().len(),
            1,
            "the byte budget evicts everything but the newest"
        );
    }

    /// `relabench`'s `decide-interface` shape, which
    /// `tests/decide_identity.rs` pins: a 10-region WAN with 4 parallel
    /// links a trunk under a 37-atomic spec (12 `shiftN` parts and
    /// `nochange`), and two iterations of a change to it — the
    /// benchmark's (a drained trunk and an ACL denying one /24 at the
    /// region's egress) and the same with the region's other /24 denied
    /// a tier earlier, which moves a few classes and no interface name,
    /// so both jobs intern one table.
    fn interface_corpus() -> (impl Fn(usize) -> CheckSession, Snapshot, [Snapshot; 2]) {
        use rela_sim::workload::{group_name, spec_of_size, synthetic_wan, WanParams};
        use rela_sim::{configured, simulate, ConfigChange, DeviceSelector};
        let params = WanParams {
            regions: 10,
            routers_per_group: 2,
            parallel_links: 4,
            fecs_per_pair: 2,
        };
        let wan = synthetic_wan(&params);
        let run = |changes: &[ConfigChange]| {
            let cfg = configured(&wan.config, &wan.topology, changes);
            let (snapshot, unconverged) = simulate(&wan.topology, &cfg, &wan.traffic);
            assert!(unconverged.is_empty());
            snapshot
        };
        let drain = ConfigChange::SetGroupLinkCost {
            group_a: group_name(0, 'C'),
            group_b: group_name(1, 'C'),
            cost: 20,
        };
        let deny = |tier: char, third: u8| ConfigChange::AddAclDeny {
            devices: DeviceSelector::Group(group_name(1, tier)),
            prefixes: vec![rela_net::Ipv4Prefix::from_octets(10, 1, third, 0, 24)],
        };
        let spec = spec_of_size(37, params.regions);
        let db = wan.topology.db.clone();
        let open = move |threads: usize| {
            let config = SessionConfig {
                granularity: Granularity::Interface,
                threads,
                ..SessionConfig::default()
            };
            CheckSession::open(&spec, db.clone(), config).unwrap()
        };
        let first = [drain.clone(), deny('O', 0)];
        let second = [drain, deny('O', 0), deny('C', 1)];
        (open, run(&[]), [run(&first), run(&second)])
    }

    fn json_job<'a>(pre: &'a str, post: &'a str) -> JobSpec<'a> {
        JobSpec::streams(
            LabeledSource::new(pre.as_bytes(), "pre"),
            LabeledSource::new(post.as_bytes(), "post"),
        )
    }

    #[test]
    fn every_side_is_asked_and_most_are_dead_at_any_thread_count() {
        let (open, pre, [post, _]) = interface_corpus();
        let (pre, post) = (pre.to_json().unwrap(), post.to_json().unwrap());
        for threads in [1, 2] {
            let stats = open(threads).run(json_job(&pre, &post)).unwrap().stats;
            // 99 classes × 13 parts × 2 snapshots, each asked before the
            // memo: 2 live sides for each `shiftN` part over the whole
            // job, and for `nochange` the 24 it leaves to them dead
            assert_eq!(stats.classes, 99);
            assert_eq!(
                (stats.live_sides, stats.dead_sides),
                (198, 2376),
                "{threads} thread(s)"
            );
            assert!(
                stats.phases.relations > Duration::ZERO,
                "a cold session lowers"
            );
        }
    }

    #[test]
    fn the_memo_holds_live_sides_only() {
        let (open, pre, posts) = interface_corpus();
        let pre = pre.to_json().unwrap();
        let [first, second] = posts.map(|post| post.to_json().unwrap());
        let s = open(1);
        let stats = s.run(json_job(&pre, &first)).unwrap().stats;
        // a dead side is the shared empty DFA: no lookup, no entry
        assert_eq!(stats.live_sides - stats.fst_memo_hits, 189);
        assert_eq!(s.memo.len(), 189);
        // a different pair over the same `pre`: its live sides join the
        // memo, the ones it shares with the first job are hits, and the
        // cap (4,096; 2,457 entries a job before dead sides stayed out)
        // is nowhere near
        let again = s.run(json_job(&pre, &second)).unwrap().stats;
        assert!(again.fst_memo_hits > 0, "the pairs share their pre sides");
        assert!(again.live_sides > again.fst_memo_hits, "and differ in post");
        assert_eq!(s.memo.len(), 189 + again.live_sides - again.fst_memo_hits);
        assert_eq!(
            again.phases.relations,
            Duration::ZERO,
            "a session lowers once"
        );
    }

    #[test]
    fn a_job_naming_more_locations_keeps_the_memo_warm() {
        let (open, pre, [post, _]) = interface_corpus();
        let pair = SnapshotPair::align(&pre, &post);
        let third = SnapshotPair {
            fecs: pair.fecs[..pair.fecs.len() / 3].to_vec(),
        };
        let s = open(1);
        s.run(JobSpec::pair(&third)).unwrap();
        // the whole pair names interfaces the third does not: every side
        // is still laid out over the session's one alphabet, so the
        // third's sides are hits (a cold session reads (9, 189))
        let stats = s.run(JobSpec::pair(&pair)).unwrap().stats;
        assert_eq!(
            (stats.fst_memo_hits, stats.live_sides - stats.fst_memo_hits),
            (84, 114)
        );
    }

    #[test]
    fn use_cache_false_skips_the_store() {
        let mut s = session();
        s.attach_store(VerdictStore::in_memory(s.epoch()));
        let pair = pair();
        s.run(JobSpec::pair(&pair)).unwrap();
        let opts = JobOptions {
            use_cache: false,
            ..JobOptions::default()
        };
        let report = s.run(JobSpec::pair(&pair).with_options(opts)).unwrap();
        assert_eq!(report.stats.warm_hits, 0, "store must not be consulted");
    }
}
