//! The end-to-end checker: binds snapshot pairs to compiled programs,
//! routes each flow equivalence class to its spec (pspec first, default
//! otherwise), decides every equation, and collects attributed
//! counterexamples — exactly as the paper scales to 10⁶ traffic classes
//! (§5.2 footnote 2, §7).
//!
//! # The dedup-and-memoize engine
//!
//! At WAN scale the overwhelming majority of FECs exhibit *identical*
//! pre/post forwarding behavior (many destination prefixes share one
//! forwarding graph per ingress). The checker therefore groups FECs into
//! **behavior classes** keyed by
//! `(behavior_hash(pre), behavior_hash(post), routed check)`
//! ([`rela_net::behavior_hash`]), runs the full
//! `graph_to_fsa → lower → image → determinize → equivalent` pipeline
//! once per class on a canonicalized representative, and assembles the
//! report per class: a compliant class's members are counted, a violating
//! class's verdict — violations, rendered witness paths and all — is
//! copied to each member. Classes are distributed to workers through a
//! work-stealing queue (an atomic index over the class list) so one
//! pathological class cannot idle the other workers, and every class is
//! decided against the compiled program's one [`SymbolTable`], shared
//! read-only across workers.

use crate::ast::Program;
use crate::compile::{CompiledCheck, CompiledProgram, GuardedPart};
use crate::counterexample::{diff_equation, diff_paths, EquationDiff, PathRenderer, WitnessLimits};
use crate::lower::{lower_pathset_dfa, Lowering, PairFsas};
use crate::pipeline::{
    Channel, ClassKey, ClassRef, ClassRegistry, ErrorSink, FlowRef, JoinMap, Joined, JoinedSide,
    OneSided, PoisonOnPanic, Provenance, Recv, Side,
};
use crate::report::{
    CheckReport, CheckStats, FecResult, PartViolation, PhaseTimings, ViolationDetail,
};
use crate::retain::{JoinedRow, RetainedBase, RetainedRow, RetentionSlot};
use crate::rir::RirSpec;
use crate::session::JobOptions;
use rela_automata::{
    determinize, enumerate_words, equivalent, image, included, meets, Dfa, FixedMap, Fst, Nfa,
    SymbolTable,
};
use rela_cache::{CacheEpoch, CacheKey, VerdictStore, BYTE_VARIANT_SALT};
use rela_net::faultio::FaultPlan;
use rela_net::{
    behavior_hash, canonical_graph, content_hash128, decode_graph_span, graph_to_fsa,
    graph_to_fsa_prepared, record_mix, AlignedFec, BehaviorHash, FlowSpec, ForwardingGraph,
    Granularity, LocationDb, RawRecord, SnapshotEpoch, SnapshotError, SnapshotFramer, SnapshotPair,
    FRAME_BATCH_BYTES,
};
use serde::Value;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::io::Read;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The engine identity folded into every cache epoch: the crate version
/// plus a decision-engine revision. Bump the revision whenever the
/// checker's verdicts, witness enumeration, or rendering could change
/// without a crate version bump — a new engine must never replay an old
/// engine's verdicts.
// engine.2: symbol interning moved to a sorted set of representative
// locations, which changes automaton layouts and therefore
// witness enumeration order — engine.1 renderings must not replay.
// engine.3: the store-key variant fingerprint widened from 24 to 25
// option bytes (a side-minimization ablation), so entries written by
// engine.2 could never match again — keeping the epoch would leave them
// as permanent dead weight in the live store file; moving the epoch
// lets `cache gc` age the old file out instead.
// engine.4: the variant fingerprint is back to 24 option bytes (the
// ablation is gone), so engine.3 entries can never match again — same
// reasoning as engine.3.
// engine.5: `rela_net::content_hash128` is MurmurHash3 x64_128 instead of
// FNV-1a, and byte-keyed entries are keyed by it, so engine.4's can never
// match again — same reasoning; a client holding an engine.4 snapshot
// epoch gets DELTA_MISS and resends in full.
pub const ENGINE_VERSION: &str = concat!("rela-core/", env!("CARGO_PKG_VERSION"), "/engine.5");

/// The [`CacheKey::variant`] of a behavior-keyed verdict. It is the
/// fingerprint of the witness limits every counterexample renders under
/// ([`WitnessLimits::default`]) and [`LISTED_PATHS`], which were once
/// per-job options, so stores written while they were stay warm.
const BEHAVIOR_VARIANT: u64 = 0xeb3a_9940_99bf_50b9;

/// The variant of a byte-keyed verdict: salted, so the two key families
/// can never collide.
const BYTE_VARIANT: u64 = BEHAVIOR_VARIANT ^ BYTE_VARIANT_SALT;

/// How many pre and post paths a violating FEC's verdict lists.
const LISTED_PATHS: usize = 4;

/// The persistent-cache epoch for a parsed program bound to a location
/// database: a content hash of the spec AST *and* the database it
/// compiles against (comments and formatting don't churn the cache; any
/// semantic edit to either invalidates it) crossed with
/// [`ENGINE_VERSION`]. The database must participate: `where` queries
/// resolve against it at compile time, and device/interface-level
/// behavior hashes never read it — so a db edit with an unchanged spec
/// would otherwise replay stale verdicts.
pub fn cache_epoch(program: &Program, db: &LocationDb) -> CacheEpoch {
    // the AST's Debug form and the db's JSON form are stable,
    // address-free renderings
    let ast = format!("{program:?}");
    let db_json = serde_json::to_string(db).expect("location db serializes");
    let mut bytes = Vec::with_capacity(ast.len() + db_json.len() + 1);
    bytes.extend_from_slice(ast.as_bytes());
    bytes.push(0xff); // separator: ast/db boundaries can't collide
    bytes.extend_from_slice(db_json.as_bytes());
    CacheEpoch::derive(content_hash128(&bytes), ENGINE_VERSION)
}

/// One behavior class: the pspec route shared by all members, the
/// member indices into `pair.fecs` (first member is the representative),
/// and the `(pre, post)` fingerprints that identify the class across
/// runs (`None` with dedup disabled, where hashing is skipped).
struct BehaviorClass {
    route: Option<usize>,
    members: Vec<usize>,
    key: Option<(BehaviorHash, BehaviorHash)>,
    /// The founding member's raw-span content hashes, when the class
    /// came through byte-level admission — fresh verdicts are mirrored
    /// to the store under this key so the next run replays them without
    /// decoding a byte.
    byte_key: Option<(u128, u128)>,
}

/// A cooperative cancellation token carrying a job's deadline. The
/// engine polls it at class boundaries — between channel batches on the
/// pipelined path, between classes on the decide loops — so a job never
/// stops mid-class, and a deadline can overshoot by at most one class
/// decide. `fired` records whether the engine actually abandoned work,
/// which is what distinguishes "finished just over the wire-clock
/// deadline" from "gave up".
pub(crate) struct CancelToken {
    deadline: Option<Instant>,
    fired: AtomicBool,
}

impl CancelToken {
    pub(crate) fn with_deadline_ms(ms: Option<u64>) -> CancelToken {
        CancelToken {
            deadline: ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            fired: AtomicBool::new(false),
        }
    }

    /// Poll the token: true once the deadline has passed (and from then
    /// on). Records the first expiry observation in `fired`.
    pub(crate) fn check(&self) -> bool {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.fired.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// True when the engine observed the expiry and abandoned work.
    pub(crate) fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

/// A job's clock: read once at the job's start and once at the end of
/// each serial segment, each read closing one serial row of the job's
/// [`PhaseTimings`], beside which it keeps what lowering the relations
/// cost. The session starts it, a delta job's replay laps it, the engine
/// laps the rest, and the session stamps the report.
pub(crate) struct StageClock {
    start: Instant,
    last: Instant,
    rows: PhaseTimings,
}

impl StageClock {
    pub(crate) fn start() -> StageClock {
        let now = Instant::now();
        StageClock {
            start: now,
            last: now,
            rows: PhaseTimings::default(),
        }
    }

    /// The wall since the previous boundary; this is the next one.
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let segment = now - self.last;
        self.last = now;
        segment
    }

    /// Close the replay row: everything so far.
    pub(crate) fn replayed(&mut self) {
        self.rows.replay = self.lap();
    }

    /// Close the job's last row, `assemble`, and stamp `report` with the
    /// clock's rows, beside the decide phases it holds, and the job's
    /// wall — the serial rows' sum.
    pub(crate) fn stamp(mut self, report: &mut CheckReport) {
        self.rows.assemble = self.lap();
        report.stats.phases.merge(&self.rows);
        report.elapsed = self.last - self.start;
    }
}

/// One input of the pipelined engine. A framer thread yields `Record`s
/// as it cuts them from its stream; the delta path's item list
/// ([`RetainedBase::replay`]) mixes them with what it replays of a base.
pub(crate) enum PreparedItem {
    /// A framed record (a whole snapshot's, or a delta document's
    /// upsert): its flow key is decoded, its graph span fingerprinted,
    /// and it goes through the flow join.
    Record { side: Side, raw: RawRecord },
    /// The side a base row keeps when a delta touches its other side:
    /// replays through the flow join to meet the new partner.
    Replay {
        side: Side,
        flow: FlowSpec,
        own: JoinedSide,
    },
    /// The rows of one behavior class of the base that neither delta
    /// touches: admitted whole ([`Pipeline::admit_class`]), skipping the
    /// join map entirely, and shared into the base this run retains.
    Class(Vec<Arc<RetainedRow>>),
}

impl PreparedItem {
    /// What the item weighs against a batch's two budgets, `(payload
    /// bytes, records)`: a framed record counts its span bytes, a
    /// replayed side its retained graph bytes, and a class of base rows
    /// its rows alone — its spans are pinned by the base, not by the
    /// batch.
    fn weight(&self) -> (usize, usize) {
        match self {
            PreparedItem::Record { raw, .. } => (raw.flow.len() + raw.graph.len(), 1),
            PreparedItem::Replay { own, .. } => (own.span.len(), 1),
            PreparedItem::Class(rows) => (0, rows.len()),
        }
    }
}

/// What a worker (or a framer) reports when a record is bad: the error
/// and the side it came from, which ranks simultaneous errors.
type SidedError = (Side, SnapshotError);

/// One producer's input: a snapshot framer tagged with its side (the
/// full path runs two) or a pre-built item list (the delta path's one).
pub(crate) type Feed<'f> = Box<dyn Iterator<Item = Result<PreparedItem, SidedError>> + Send + 'f>;

/// A framer as a [`Feed`].
pub(crate) fn framer_feed<'f, R: Read + Send + 'f>(
    framer: SnapshotFramer<R>,
    side: Side,
) -> Feed<'f> {
    Box::new(framer.map(move |framed| match framed {
        Ok(raw) => Ok(PreparedItem::Record { side, raw }),
        Err(e) => Err((side, e)),
    }))
}

/// One admitted flow as the pipelined engine keeps it: the flow key
/// alone, or — in a retaining run — the row its base will hold, which
/// carries the key, so no run keeps a flow twice.
enum Admitted {
    Key(FlowSpec),
    Row(Arc<RetainedRow>),
}

impl Admitted {
    fn flow(&self) -> &FlowSpec {
        match self {
            Admitted::Key(flow) => flow,
            Admitted::Row(row) => &row.flow,
        }
    }
}

/// Per-worker state of the pipelined engine's ingest: the flows this
/// worker completed pairs for (concatenated into the global flow list
/// after the join; in a retaining run, as the rows its base will hold),
/// the classes it replayed warm from the store and the graph decodes it
/// actually performed. `byte_classes` and `members` are the dedup
/// hit path: the class of every byte key this worker has taken through
/// the shared index once, and the members it has since added to those
/// classes without going back — folded into the classes after the join.
#[derive(Default)]
struct WorkerState {
    worker: usize,
    flows: Vec<Admitted>,
    byte_classes: FixedMap<ClassKey, ClassRef>,
    members: Vec<(ClassRef, FlowRef)>,
    warm: Vec<(ClassRef, FecResult)>,
    decodes: usize,
}

impl WorkerState {
    fn new(worker: usize) -> WorkerState {
        WorkerState {
            worker,
            ..WorkerState::default()
        }
    }

    /// The reference the next flow this worker admits will have.
    fn next_member(&self) -> FlowRef {
        FlowRef {
            worker: self.worker,
            local: self.flows.len(),
        }
    }

    /// Record one admitted flow. Every admitted flow passes here exactly
    /// once, joined: the one place a retaining run captures what its
    /// base will hold (a row out of a base only exists in a retaining
    /// run).
    fn push_admitted(&mut self, row: JoinedRow, retaining: bool) {
        self.flows.push(match (row, retaining) {
            (JoinedRow::Fresh(row), false) => Admitted::Key(row.flow),
            (row, _) => Admitted::Row(row.into_shared()),
        });
    }
}

/// Record-count backstop per batch: tiny records stop accumulating well
/// under the byte budget, keeping per-batch vectors bounded.
const FRAME_BATCH_RECORDS: usize = 64;

/// One run of the pipelined engine's front end — frame, decode the flow
/// key, join, admit by bytes, consult the store — and everything its
/// producer and worker threads share. It decides nothing: what it
/// leaves in `registry` goes to [`Checker::finish`].
struct Pipeline<'c, 'a> {
    checker: &'c Checker<'a>,
    /// Batches of items cut at [`FRAME_BATCH_BYTES`] of payload (or
    /// [`FRAME_BATCH_RECORDS`] items, whichever comes first).
    channel: Channel<Vec<PreparedItem>>,
    join: JoinMap,
    registry: ClassRegistry,
    errors: ErrorSink,
    producers_left: AtomicUsize,
    /// The ingest rows (`frame`, `send_blocked`, `recv_wait`, `work`):
    /// each thread clocks its own, once a batch, and adds them here once.
    rows: Mutex<PhaseTimings>,
    /// The `[pre, post]` source labels errors are attributed to.
    labels: [Option<String>; 2],
    /// What stands in for the side of a flow only one snapshot carries.
    absent: JoinedSide,
}

impl Pipeline<'_, '_> {
    /// Run the producers and `workers` decode workers to the end of the
    /// feeds, then admit the flows only one side carried. Returns the
    /// workers' states in worker order (the one-sided drain is the last
    /// one), or the first stream error. On an expired deadline the
    /// states are partial and the caller discards them.
    fn ingest(
        &self,
        mut feeds: Vec<Feed<'_>>,
        workers: usize,
    ) -> Result<Vec<WorkerState>, SnapshotError> {
        let mut locals: Vec<WorkerState> = std::thread::scope(|scope| {
            for feed in &mut feeds {
                scope.spawn(move || self.produce(feed));
            }
            let handles: Vec<_> = (0..workers)
                .map(|worker| scope.spawn(move || self.work(worker)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        });
        if let Some(first) = self.errors.take_first() {
            return Err(first);
        }
        if self.checker.cancel.fired() {
            return Ok(locals);
        }

        // Both streams ended cleanly: drain flows seen on one side only.
        // Sorted by entry index so a decode error surfaces for the record
        // a sequential reader would hit first.
        let mut drain = WorkerState::new(workers); // one extra pseudo-worker
        let mut one_sided = self.join.drain_one_sided();
        one_sided.sort_by_key(|one| (one.own.provenance.index, one.side));
        for OneSided { flow, side, own } in one_sided {
            let sides = match side {
                Side::Pre => [Some(own), None],
                Side::Post => [None, Some(own)],
            };
            let row = JoinedRow::Fresh(RetainedRow { flow, sides });
            self.admit_spans(row, &mut drain).map_err(|(_, e)| e)?;
        }
        locals.push(drain);
        // the feeds outlive every read of their records: a mapped side's
        // framer releases the container's last window when it drops
        drop(feeds);
        Ok(locals)
    }

    /// A producer thread body: no decoding, only batching — items go
    /// over the bounded channel to the decode pool, so back-pressure and
    /// abort behave identically for framers and for the delta path's
    /// list. Stops early when the pipeline aborts; the last producer to
    /// finish closes the channel. Its time in the feed is `frame`, its
    /// time in a blocked send `send_blocked`.
    fn produce(&self, feed: &mut Feed<'_>) {
        let _poison_guard = PoisonOnPanic(&self.channel);
        let mut rows = PhaseTimings::default();
        let mut mark = Instant::now();
        // the feed since the last send was `frame`; this send blocks
        let mut send = |batch: Vec<PreparedItem>| {
            let framed = Instant::now();
            rows.frame += framed - mark;
            let sent = self.channel.send(batch);
            mark = Instant::now();
            rows.send_blocked += mark - framed;
            sent
        };
        let mut batch: Vec<PreparedItem> = Vec::new();
        let (mut batch_bytes, mut batch_records) = (0usize, 0usize);
        for item in feed {
            if self.errors.aborted() {
                break;
            }
            match item {
                Ok(item) => {
                    let (bytes, records) = item.weight();
                    batch_bytes += bytes;
                    batch_records += records;
                    batch.push(item);
                    if batch_bytes >= FRAME_BATCH_BYTES || batch_records >= FRAME_BATCH_RECORDS {
                        (batch_bytes, batch_records) = (0, 0);
                        if send(std::mem::take(&mut batch)).is_err() {
                            break; // poisoned: the pipeline is aborting
                        }
                    }
                }
                Err((side, e)) => {
                    self.errors.record(side, e);
                    self.channel.poison();
                    break;
                }
            }
        }
        if !batch.is_empty() {
            let _ = send(batch);
        }
        rows.frame += mark.elapsed();
        if self.producers_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.channel.close();
        }
        self.rows.lock().expect("rows lock").merge(&rows);
    }

    /// One decode worker: pull batches until the channel closes. Its
    /// time waiting for a batch is `recv_wait`, its time on them `work`.
    fn work(&self, worker: usize) -> WorkerState {
        let _poison_guard = PoisonOnPanic(&self.channel);
        let mut state = WorkerState::new(worker);
        let mut rows = PhaseTimings::default();
        let mut mark = Instant::now();
        loop {
            // deadline poll between batches: poisoning the channel stops
            // the producers and releases the other workers, so an expired
            // job drains in one batch per worker instead of finishing
            // the snapshot
            if self.checker.cancel.check() {
                self.channel.poison();
                break;
            }
            let received = self.channel.recv(Duration::from_millis(1));
            let got = Instant::now();
            rows.recv_wait += got - mark;
            mark = got;
            match received {
                Recv::Item(batch) => {
                    for item in batch {
                        if let Err((side, e)) = self.item(item, &mut state) {
                            self.errors.record(side, e);
                            self.channel.poison();
                            break;
                        }
                    }
                    mark = Instant::now();
                    rows.work += mark - got;
                }
                Recv::Timeout => {} // back to the deadline poll
                Recv::Closed => break,
            }
        }
        self.rows.lock().expect("rows lock").merge(&rows);
        state
    }

    /// Process one item.
    fn item(&self, item: PreparedItem, state: &mut WorkerState) -> Result<(), SidedError> {
        match item {
            PreparedItem::Record { side, raw } => self.record(side, raw, state),
            PreparedItem::Replay { side, flow, own } => self.side(side, flow, own, state),
            PreparedItem::Class(rows) => self.admit_class(rows, state),
        }
    }

    /// Admit the untouched rows of one class of a retained base: the
    /// first as any joined flow is admitted — byte-warm replay, founder
    /// decode and store consult included — and every other as a member
    /// of the class the first landed in, with no lookup. The rows shared
    /// a behavior class in the session that retained them, so they share
    /// one here (`crate::retain` says why). A job without dedup admits
    /// every row by itself.
    fn admit_class(
        &self,
        rows: Vec<Arc<RetainedRow>>,
        state: &mut WorkerState,
    ) -> Result<(), SidedError> {
        let mut class = None;
        for row in rows {
            match class {
                Some(class) if self.checker.options.dedup => {
                    state.members.push((class, state.next_member()));
                    let retaining = self.checker.retention.is_some();
                    state.push_admitted(JoinedRow::Shared(row), retaining);
                }
                _ => class = Some(self.admit_spans(JoinedRow::Shared(row), state)?),
            }
        }
        Ok(())
    }

    /// Decode one framed record's flow key, fingerprint its raw graph
    /// span, and hand it to the side joiner. The graph itself stays
    /// undecoded — byte-level admission decides whether decoding is
    /// needed at all.
    fn record(
        &self,
        side: Side,
        raw: RawRecord,
        state: &mut WorkerState,
    ) -> Result<(), SidedError> {
        // the graph span shares the framer's backing buffer (chunk or
        // file mapping) — no copy
        let (flow, span) = raw.decode_flow(self.label(side)).map_err(|e| (side, e))?;
        let hash = content_hash128(&span);
        let own = JoinedSide {
            span,
            hash,
            mix: match self.checker.retention {
                Some(_) => record_mix(&flow, hash),
                None => 0,
            },
            provenance: Provenance {
                index: raw.index,
                offset: raw.offset,
                graph_at: raw.graph_at,
            },
        };
        self.side(side, flow, own, state)
    }

    /// Join one fingerprinted side with its partner; a completed pair is
    /// admitted to the class registry.
    fn side(
        &self,
        side: Side,
        flow: FlowSpec,
        own: JoinedSide,
        state: &mut WorkerState,
    ) -> Result<(), SidedError> {
        match self.join.insert(side, &flow, own) {
            Joined::Pending => Ok(()),
            // `second` is the occurrence with the larger entry index —
            // what `SnapshotReader` names, whichever record a worker
            // happened to decode first
            Joined::Duplicate(second) => {
                Err(self.located(side, format!("duplicate flow {flow}"), second))
            }
            Joined::Paired { pre, post } => {
                let sides = [Some(pre), Some(post)];
                let row = JoinedRow::Fresh(RetainedRow { flow, sides });
                self.admit_spans(row, state).map(drop)
            }
        }
    }

    /// Admit one flow, both sides in hand, to the class registry by its
    /// raw byte key (a side its snapshot does not carry counts as the
    /// empty graph). A key this worker has met before is a hit that
    /// takes no shared lock: the member goes on the worker's own list, to
    /// be folded into the class when the worker states are flattened. A
    /// key it has not met goes through the shared byte index, where a
    /// hit joins the already-resolved class with zero decode work and a
    /// miss resolves a class — byte-store probe, decode, fingerprint,
    /// behavior-admit — under the byte-shard lock, so exactly one member
    /// per byte key pays for the decode. Returns the class the flow
    /// landed in.
    fn admit_spans(&self, row: JoinedRow, state: &mut WorkerState) -> Result<ClassRef, SidedError> {
        let flow = &row.flow;
        let [pre, post] = row
            .sides
            .each_ref()
            .map(|s| s.as_ref().unwrap_or(&self.absent));
        // routes are a function of the flow alone
        let route = self.checker.route_of_flow(flow);
        let member = state.next_member();
        let byte_key = (pre.hash, post.hash, route.unwrap_or(usize::MAX));
        let class = if !self.checker.options.dedup {
            let fec = AlignedFec {
                pre: self.decode_side(Side::Pre, pre, state)?,
                post: self.decode_side(Side::Post, post, state)?,
                flow: flow.clone(),
            };
            self.registry.admit(fec, None, None, route, member)
        } else if let Some(&class) = state.byte_classes.get(&byte_key) {
            state.members.push((class, member));
            class
        } else {
            let class = self.registry.admit_by_bytes(byte_key, member, || {
                self.resolve_byte_class(flow, route, pre, post, member, state)
            })?;
            state.byte_classes.insert(byte_key, class);
            class
        };
        state.push_admitted(row, self.checker.retention.is_some());
        Ok(class)
    }

    /// Resolve the behavior class for a byte-key founder: probe the
    /// byte-keyed store first (a hit replays the verdict with **zero**
    /// graph decodes), else decode both sides, fingerprint and admit by
    /// behavior key. A class the probe does not answer is left to the
    /// finisher, which consults the behavior-keyed store before it
    /// decides.
    fn resolve_byte_class(
        &self,
        flow: &FlowSpec,
        route: Option<usize>,
        pre: &JoinedSide,
        post: &JoinedSide,
        member: FlowRef,
        state: &mut WorkerState,
    ) -> Result<ClassRef, SidedError> {
        let checker = self.checker;
        let byte_key = (pre.hash, post.hash);
        let probe = checker.store_key(byte_key, route, BYTE_VARIANT);
        if let Some(payload) = checker.cache.and_then(|cache| cache.get(&probe)) {
            if let Some(result) = FecResult::from_cache_value(&payload, flow.clone()) {
                let placeholder = AlignedFec {
                    flow: flow.clone(),
                    pre: ForwardingGraph::default(),
                    post: ForwardingGraph::default(),
                };
                let class = self.registry.admit(placeholder, None, None, route, member);
                state.warm.push((class, result));
                return Ok(class);
            }
        }
        let pre_graph = self.decode_side(Side::Pre, pre, state)?;
        let post_graph = self.decode_side(Side::Post, post, state)?;
        let level = checker.hash_level(route);
        let key = (
            behavior_hash(&pre_graph, checker.db, level),
            behavior_hash(&post_graph, checker.db, level),
        );
        let fec = AlignedFec {
            flow: flow.clone(),
            pre: pre_graph,
            post: post_graph,
        };
        Ok(self
            .registry
            .admit(fec, Some(key), Some(byte_key), route, member))
    }

    /// Decode one side's graph span, attributing failures exactly as
    /// [`rela_net::SnapshotReader`] would for the same record: a span
    /// that is not JSON at its failing byte, a graph of the wrong shape
    /// at its record's start.
    fn decode_side(
        &self,
        side: Side,
        joined: &JoinedSide,
        state: &mut WorkerState,
    ) -> Result<ForwardingGraph, SidedError> {
        state.decodes += 1;
        decode_graph_span(&joined.span).map_err(|(message, byte)| {
            let at = joined.provenance;
            let offset = byte.map_or(at.offset, |byte| at.graph_at + byte as u64);
            self.located(side, message, Provenance { offset, ..at })
        })
    }

    /// The source label of `side`'s stream.
    fn label(&self, side: Side) -> Option<&str> {
        let [pre, post] = &self.labels;
        match side {
            Side::Pre => pre.as_deref(),
            Side::Post => post.as_deref(),
        }
    }

    /// A record-level error at `at`, labelled with `side`'s source.
    fn located(&self, side: Side, message: String, at: Provenance) -> SidedError {
        let mut e = SnapshotError::at(message, at.offset).with_entry(at.index);
        if let Some(label) = self.label(side) {
            e = e.with_source_label(label);
        }
        (side, e)
    }
}

/// What [`Checker::ingest_pipelined`] hands the finisher: the inputs
/// [`Checker::finish`] takes, plus what the engine itself reports or
/// retains afterwards.
struct Ingested {
    /// In a retaining run, each flow's row: what its base is built from.
    flows: Vec<Admitted>,
    /// `classes[i]` is represented by `reps[i]`; members index `flows`.
    classes: Vec<BehaviorClass>,
    reps: Vec<AlignedFec>,
    /// Verdicts the byte-keyed probe answered, by class index.
    warm: Vec<(usize, FecResult)>,
    graph_decodes: usize,
    /// The ingest rows its producers and workers clocked.
    rows: PhaseTimings,
}

/// A report's violating rows, assembled per class from each class's
/// verdict (`verdicts` pairs a class index with it): a compliant class's
/// members are only counted — the report's total is the flow count — and
/// a violating class's verdict is copied to each member under the
/// member's flow. Sorted by flow, so the rows are independent of class
/// order and decide scheduling, and are the rows a per-FEC broadcast
/// would keep.
fn violating_members(
    flows: &[&FlowSpec],
    classes: &[BehaviorClass],
    verdicts: impl IntoIterator<Item = (usize, FecResult)>,
) -> Vec<FecResult> {
    let mut violations = Vec::new();
    for (class, verdict) in verdicts {
        if verdict.is_compliant() {
            continue;
        }
        violations.extend(classes[class].members.iter().map(|&member| {
            let mut row = verdict.clone();
            row.flow = flows[member].clone();
            row
        }));
    }
    violations.sort_by(|a, b| a.flow.cmp(&b.flow));
    violations
}

/// Memo key: `(side behavior hash, route, part index, is_post_side)`.
/// Every memoized side is built against the compiled program's table,
/// the session's one alphabet, so a side's layout is a function of the
/// key alone and sides are shared across every job of a session. A
/// class whose graphs name a location the db lacks is decided under a
/// table of its own and bypasses the memo.
type MemoKey = (u128, usize, usize, bool);

/// Size cap for a shared, session-lifetime [`FstMemo`]: beyond this many
/// retained sides new computations are returned uncached, bounding a
/// resident daemon's memory without evicting the hot entries a warm
/// workload keeps re-hitting.
const FST_MEMO_CAP: usize = 4096;

/// Memo of determinized equation sides, keyed by [`MemoKey`].
/// Many classes share one unchanged side (typically `pre` on a
/// mostly-unchanged snapshot), so `det(image(State, R))` for that side
/// is computed once and reused instead of re-running
/// image → trim → determinize per class. Only *live* sides — those
/// whose path set meets the relation's domain — are looked up or kept:
/// a dead side is the one shared empty DFA and costs no entry, so the
/// cap below is a cap on automata worth keeping.
///
/// A `CheckSession` owns one and lends it to every job, so an unchanged
/// side survives from one submission to the next, whatever else the
/// next job's snapshots name: the keys are content hashes and every
/// memoized side is laid out over the session's one alphabet, so reuse
/// across runs is exactly as sound as reuse within one. The
/// `fst_memo_hits` a run reports is a before/after difference —
/// approximate only when jobs share the memo concurrently.
///
/// A memo belongs to one compiled program — its keys name routes and
/// parts by index, its sides use that program's table — so it also
/// holds that program's [`LoweredProgram`], built by the first run that
/// uses the memo.
pub(crate) struct FstMemo {
    map: Mutex<FixedMap<MemoKey, Arc<Dfa>>>,
    pub(crate) hits: AtomicUsize,
    lowered: OnceLock<LoweredProgram>,
}

impl FstMemo {
    pub(crate) fn new() -> FstMemo {
        FstMemo {
            map: Mutex::default(),
            hits: AtomicUsize::new(0),
            lowered: OnceLock::new(),
        }
    }

    /// Fetch the memoized side, or compute and record it. Competing
    /// workers may compute the same side concurrently; both produce
    /// structurally identical DFAs (the hash contract), and the one that
    /// inserts second keeps the first's entry and counts a hit — so
    /// `hits` is lookups minus distinct keys whatever the scheduling.
    fn get_or_compute(&self, key: Option<MemoKey>, compute: impl FnOnce() -> Dfa) -> Arc<Dfa> {
        let Some(key) = key else {
            return Arc::new(compute());
        };
        // poison-immune: a worker panicking while holding this lock must
        // not take every later job on the resident session down with it
        // (memo entries are content-keyed and idempotent, so the map is
        // valid whatever a panicked holder was doing)
        let held = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        if let Some(hit) = held {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let dfa = Arc::new(compute());
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        let full = map.len() >= FST_MEMO_CAP;
        match map.entry(key) {
            Entry::Occupied(first) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                first.get().clone()
            }
            Entry::Vacant(slot) if !full => slot.insert(dfa).clone(),
            Entry::Vacant(_) => dfa,
        }
    }
}

/// One relation of a part, lowered: the transducer, and the trimmed DFA
/// of its domain. [`meets`] reads the second to tell whether a path set
/// has an image under the first at all — the `else` chain partitions
/// path space, so for most `(class, part)` pairs it has none — without
/// building that image. On `decide-interface`'s 37-atomic spec the
/// domains are 10–100 states for transducers of 41–299.
struct LoweredSide {
    fst: Fst,
    domain: Dfa,
}

impl LoweredSide {
    fn new(fst: Fst) -> LoweredSide {
        let domain = determinize(&fst.domain().trim()).trim_dead();
        LoweredSide { fst, domain }
    }
}

/// The relations of one compiled check, lowered to transducers: per
/// part of a relational check, `[rpre, rpost]`; nothing for the other
/// kinds. Relations never mention `PreState`/`PostState`, so the
/// transducers are a function of the check alone and every FEC of every
/// job shares them.
///
/// One [`Lowering`] serves the whole check, so the zone guard of part
/// *i* — which appears in both of its relations and, when the `else`
/// chain nests to the right, whole inside part *i + 1*'s guard — is
/// lowered once rather than once per occurrence. The transducers are
/// the ones separate lowerings would build, state for state.
struct LoweredCheck {
    parts: Vec<[LoweredSide; 2]>,
}

impl LoweredCheck {
    fn new(check: &CompiledCheck) -> LoweredCheck {
        // relations are state-independent; bind an empty dummy env
        let dummy = PairFsas::new(Nfa::empty_language(), Nfa::empty_language());
        let mut lowering = Lowering::new(&dummy);
        let parts = match check {
            CompiledCheck::Relational { parts, .. } => parts
                .iter()
                .map(|p| {
                    debug_assert!(!p.rpre.mentions_state() && !p.rpost.mentions_state());
                    [&p.rpre, &p.rpost].map(|r| LoweredSide::new(lowering.rel(r)))
                })
                .collect(),
            CompiledCheck::Raw { .. } | CompiledCheck::PathLimit { .. } => Vec::new(),
        };
        LoweredCheck { parts }
    }
}

/// Every check of a [`CompiledProgram`], lowered (see [`LoweredCheck`]).
/// Built once per [`FstMemo`], which is once per session.
struct LoweredProgram {
    default_check: LoweredCheck,
    routed: Vec<LoweredCheck>,
}

impl LoweredProgram {
    fn new(program: &CompiledProgram) -> LoweredProgram {
        let routed = program.routed.iter();
        LoweredProgram {
            default_check: LoweredCheck::new(&program.default_check),
            routed: routed.map(|r| LoweredCheck::new(&r.check)).collect(),
        }
    }
}

/// What every class decide of one run reads: the program's relations
/// lowered, the memo of determinized sides and the one DFA every dead
/// side is — and the counters the decides add to.
struct DecideCtx<'a> {
    lowered: &'a LoweredProgram,
    memo: &'a FstMemo,
    /// `memo.hits` when this context was built: a run reports the
    /// difference.
    memo_hits_before: usize,
    /// Structurally `determinize(&Nfa::new())`: what image → trim →
    /// determinize makes of a side with no image.
    empty: Arc<Dfa>,
    /// Equation sides asked for liveness so far, `[dead, live]`.
    sides: [AtomicUsize; 2],
}

/// The checker: a compiled program bound to a location database, and
/// what one job of a `CheckSession` lends it. The session builds it in
/// one place (`CheckSession::checker`), from the job's [`JobOptions`]
/// and the session's thread count; nothing outside the crate can.
pub(crate) struct Checker<'a> {
    pub(crate) program: &'a CompiledProgram,
    pub(crate) db: &'a LocationDb,
    /// The job's options; the checker reads `dedup`.
    pub(crate) options: JobOptions,
    /// Worker threads; `0` uses the machine's available parallelism.
    pub(crate) threads: usize,
    /// The verdict store: classes found in it replay without being
    /// decided, fresh decisions are written back (the session persists).
    pub(crate) cache: Option<&'a VerdictStore>,
    pub(crate) memo: &'a FstMemo,
    /// Where a clean pipelined run retains its rows as a delta base.
    pub(crate) retention: Option<&'a RetentionSlot>,
    /// The job's deadline, polled at class boundaries; once it fires the
    /// run returns an empty report quickly and the session surfaces the
    /// deadline as a typed error.
    pub(crate) cancel: &'a CancelToken,
    /// Consulted at the `decide` lifecycle point.
    pub(crate) faults: Option<&'a FaultPlan>,
}

impl Checker<'_> {
    /// The placeholder report an expired run returns. The session never
    /// shows it — it sees the fired token and replies with a typed
    /// deadline error — so its only job is to be cheap and well-formed.
    fn cancelled_report() -> CheckReport {
        CheckReport::new(Vec::new(), Duration::ZERO)
    }

    /// Check every FEC of an aligned snapshot pair: the batch engine,
    /// the reference [`Checker::run_pipelined`] is tested against. Its
    /// own pass, fingerprinting, is a plain serial map; the rest is the
    /// shared [`Checker::finish`].
    /// `clock` is the job's, started before the pair was read.
    pub(crate) fn check(&self, pair: &SnapshotPair, clock: &mut StageClock) -> CheckReport {
        let classes = self.group_into_classes(pair);
        let reps: Vec<&AlignedFec> = classes.iter().map(|c| &pair.fecs[c.members[0]]).collect();
        let flows: Vec<&FlowSpec> = pair.fecs.iter().map(|f| &f.flow).collect();
        clock.rows.ingest = clock.lap();
        let ctx = self.decide_ctx(clock);
        let mut report = self.finish(clock, &flows, &classes, &reps, Vec::new(), &ctx);
        // the batch path materializes every record during ingest, so
        // every record costs one graph decode
        report.stats.graph_decodes = flows.len() * 2;
        report
    }

    /// Check snapshot records through the pipelined engine:
    /// [`Checker::ingest_pipelined`] in front of [`Checker::finish`].
    /// A streams job feeds it two framers ([`framer_feed`]), a delta
    /// job one list of replayed base rows and freshly framed delta
    /// records — the same channel, workers and byte-level admission,
    /// which is what makes a delta reply byte-identical to a full
    /// resubmission.
    ///
    /// Where [`Checker::check`] needs the whole pair decoded and aligned
    /// before it fingerprints a single FEC, this overlaps framing with
    /// decoding and decodes only what it has not seen before:
    ///
    /// 1. **Framers** (one thread per snapshot) extract undecoded record
    ///    spans ([`rela_net::SnapshotFramer`]) and push them over a
    ///    bounded channel — back-pressure caps raw-record memory at
    ///    `max(2, ⌈workers / 2⌉)` batches of ~64 KiB.
    /// 2. **Decode workers** parse each record's flow key, content-hash
    ///    its graph span, and hash-join it with its partner on the flow
    ///    key (sharded join map; only unmatched records spill).
    /// 3. A **class registry** admits each joined pair by its raw bytes,
    ///    decoding and [`BehaviorHash`]ing a pair only when its bytes
    ///    are new, and keeps the first representative of each behavior
    ///    class; graph residency stays O(classes). A new byte key probes
    ///    the byte-keyed store first, so a byte-warm class replays while
    ///    records still arrive, without a decode.
    /// 4. When the feeds have ended, the **finisher** — the one
    ///    [`Checker::check`] uses — consults the behavior-keyed store,
    ///    decides every class the store did not answer, once, against
    ///    the session's one alphabet, and writes back.
    ///
    /// The produced report is byte-identical to [`Checker::check`] on the
    /// same records at any thread count. `check` shares neither of this
    /// engine's shortcuts — byte-level admission and the streaming join
    /// — which is what makes it the reference the identity suites
    /// compare against. The first stream error aborts the pipeline
    /// (framers stop, workers drain) and is returned with
    /// [`rela_net::SnapshotReader`]'s offset/entry-index contract; when
    /// several errors are discovered concurrently, the lowest entry index
    /// wins, `pre` before `post`. `labels` name the `[pre, post]` sources
    /// in those errors.
    ///
    /// The relations are a function of the spec alone, so a run that has
    /// a second thread to give, on a memo that does not hold them yet,
    /// lowers them beside the ingest instead of between ingest and
    /// decide. A single-threaded run lowers inline (one compute thread
    /// stays one), and a session's later jobs find them lowered. The
    /// lowering is joined like every other scoped worker here — its
    /// panic is the run's — so an ingest that fails or expires first
    /// returns when the lowering has finished.
    ///
    /// `clock` is the job's: a delta job's replay has already lapped it.
    pub(crate) fn run_pipelined(
        &self,
        feeds: Vec<Feed<'_>>,
        labels: [Option<String>; 2],
        clock: &mut StageClock,
    ) -> Result<CheckReport, SnapshotError> {
        let overlap = self.resolve_threads() > 1 && self.memo.lowered.get().is_none();
        let (ingested, overlapped) = std::thread::scope(|scope| {
            let lowering = overlap.then(|| scope.spawn(|| self.lower_relations().1));
            let ingested = self.ingest_pipelined(feeds, labels);
            let paid = lowering.map_or(Duration::ZERO, |h| {
                h.join().unwrap_or_else(|payload| resume_unwind(payload))
            });
            (ingested, paid)
        });
        clock.rows.relations += overlapped;
        let Some(ingested) = ingested? else {
            return Ok(Checker::cancelled_report());
        };
        clock.rows.ingest = clock.lap();
        clock.rows.merge(&ingested.rows);
        let reps: Vec<&AlignedFec> = ingested.reps.iter().collect();
        let ctx = self.decide_ctx(clock);
        let flows: Vec<&FlowSpec> = ingested.flows.iter().map(Admitted::flow).collect();
        let mut report = self.finish(clock, &flows, &ingested.classes, &reps, ingested.warm, &ctx);
        if !self.cancel.fired() {
            report.stats.graph_decodes = ingested.graph_decodes;
            report.stats.retained_epoch = self.retain(ingested.flows, &ingested.classes);
        }
        Ok(report)
    }

    /// Run [`Pipeline::ingest`] over `feeds` and flatten what its
    /// workers hold into the finisher's inputs: worker-local flow lists
    /// concatenate into the global one, registry shards into the class
    /// list, and the members each worker kept to itself on the dedup
    /// hit path join their classes — behind the members the registry
    /// already holds, so `members[0]` is still the founder. `None` when
    /// the job's deadline expired mid-ingest.
    fn ingest_pipelined(
        &self,
        feeds: Vec<Feed<'_>>,
        labels: [Option<String>; 2],
    ) -> Result<Option<Ingested>, SnapshotError> {
        let workers = self.resolve_threads().max(1);
        let shards = workers.next_power_of_two().max(8);
        let pipe = Pipeline {
            checker: self,
            // capacity counts byte-cut batches: half a batch in flight
            // per worker, and never fewer than one per framer
            channel: Channel::new(workers.div_ceil(2).max(2)),
            join: JoinMap::new(shards),
            registry: ClassRegistry::new(shards, self.options.dedup),
            errors: ErrorSink::new(),
            producers_left: AtomicUsize::new(feeds.len()),
            rows: Mutex::default(),
            labels,
            absent: JoinedSide::absent(),
        };
        let locals = pipe.ingest(feeds, workers)?;
        if self.cancel.fired() {
            return Ok(None);
        }

        let (mut accs, shard_offsets) = pipe.registry.into_classes();
        let class_ix = |class: ClassRef| shard_offsets[class.shard] + class.index;
        let mut offsets = Vec::with_capacity(locals.len());
        let mut flows = Vec::with_capacity(locals.iter().map(|l| l.flows.len()).sum());
        let mut warm: Vec<(usize, FecResult)> = Vec::new();
        let mut graph_decodes = 0usize;
        for mut local in locals {
            offsets.push(flows.len());
            flows.append(&mut local.flows);
            for (class, member) in local.members {
                accs[class_ix(class)].members.push(member);
            }
            warm.extend(
                local
                    .warm
                    .into_iter()
                    .map(|(class, result)| (class_ix(class), result)),
            );
            graph_decodes += local.decodes;
        }
        let mut classes: Vec<BehaviorClass> = Vec::with_capacity(accs.len());
        let mut reps: Vec<AlignedFec> = Vec::with_capacity(accs.len());
        for acc in accs {
            classes.push(BehaviorClass {
                route: acc.route,
                key: acc.key,
                byte_key: acc.byte_key,
                members: acc
                    .members
                    .iter()
                    .map(|m| offsets[m.worker] + m.local)
                    .collect(),
            });
            reps.push(acc.rep);
        }
        Ok(Some(Ingested {
            flows,
            classes,
            reps,
            warm,
            graph_decodes,
            rows: pipe.rows.into_inner().expect("rows lock"),
        }))
    }

    /// Retain a cleanly and completely checked pair for delta-base
    /// replay, when a retention slot is attached: `flows` holds the row
    /// of each flow, which `classes` group. Returns its epoch.
    fn retain(&self, flows: Vec<Admitted>, classes: &[BehaviorClass]) -> Option<SnapshotEpoch> {
        let slot = self.retention?;
        let rows = flows.into_iter().map(|flow| match flow {
            Admitted::Row(row) => row,
            Admitted::Key(_) => unreachable!("a retaining run admits every flow as its row"),
        });
        let classes = classes.iter().map(|class| class.members.as_slice());
        let base = Arc::new(RetainedBase::new(rows, classes));
        let epoch = base.epoch();
        slot.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(base);
        Some(epoch)
    }

    /// `threads`, with `0` resolved to the machine's available
    /// parallelism.
    fn resolve_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The finisher both engines end in: given the per-FEC flow keys,
    /// the behavior classes, one representative FEC per class (`reps[i]`
    /// represents `classes[i]`) and the verdicts ingest's byte-keyed
    /// probe answered (`warm`), consult the behavior-keyed store for the
    /// rest, decide every other class once over a work-stealing queue,
    /// write back, and assemble the report per class
    /// ([`violating_members`]). The one place the store is written: a
    /// fresh verdict under its behavior key, and a fresh or
    /// behavior-warm class with a founding byte key under that too. A
    /// job that expires or panics writes nothing.
    ///
    /// A class is decided against the session's one alphabet (see
    /// [`Checker::class_fsas`]), so its automata are a function of its
    /// own graphs alone, whichever engine admitted it and whatever else
    /// the run holds: that is what makes witness bytes identical across
    /// engines, and a byte-warm class's placeholder representative
    /// harmless. `ctx` is fresh: the memo hits it reports are this
    /// call's. `clock` closes its `decide` row once the decides are done
    /// — `ctx` was built inside it.
    fn finish(
        &self,
        clock: &mut StageClock,
        flows: &[&FlowSpec],
        classes: &[BehaviorClass],
        reps: &[&AlignedFec],
        mut warm: Vec<(usize, FecResult)>,
        ctx: &DecideCtx<'_>,
    ) -> CheckReport {
        debug_assert_eq!(classes.len(), reps.len());

        let mut answered = vec![false; classes.len()];
        for (ix, _) in &warm {
            answered[*ix] = true;
        }
        let mut stored = self.consult_store(flows, classes, &answered);
        for (ix, _, _) in &stored {
            answered[*ix] = true;
        }
        let cold: Vec<usize> = (0..classes.len()).filter(|&ix| !answered[ix]).collect();
        let (decided, phases) = self.decide_classes(ctx, &cold, classes, reps);
        clock.rows.decide = clock.lap();
        if self.cancel.fired() {
            // partial decides are individually sound but the run is not
            // complete: nothing is written back or retained, and the
            // session replies with the deadline error instead
            return Checker::cancelled_report();
        }

        // in memory; the owner of the store persists to disk after the run
        if let Some(cache) = self.cache {
            let fresh = decided.iter().map(|(ix, result, wall, class_phases)| {
                (*ix, result.to_cache_value(*wall, class_phases), true)
            });
            let replayed = stored
                .iter_mut()
                .filter_map(|(ix, _, payload)| Some((*ix, payload.take()?, false)));
            for (ix, value, fresh) in fresh.chain(replayed) {
                let class = &classes[ix];
                if let Some(byte_key) = class.byte_key {
                    cache.put(
                        &self.store_key(byte_key, class.route, BYTE_VARIANT),
                        value.clone(),
                    );
                }
                if let Some((pre, post)) = class.key.filter(|_| fresh) {
                    let key = (pre.as_u128(), post.as_u128());
                    cache.put(&self.store_key(key, class.route, BEHAVIOR_VARIANT), value);
                }
            }
        }
        warm.extend(stored.into_iter().map(|(ix, result, _)| (ix, result)));

        debug_assert_eq!(
            decided.len() + warm.len(),
            classes.len(),
            "every class answered"
        );
        let warm_hits = warm.len();
        let max_class_time = decided.iter().map(|(_, _, wall, _)| *wall).max();
        let verdicts = decided
            .into_iter()
            .map(|(ix, result, _, _)| (ix, result))
            .chain(warm);
        let violations = violating_members(flows, classes, verdicts);
        let stats = CheckStats {
            fecs: flows.len(),
            classes: classes.len(),
            dedup_hits: flows.len() - classes.len(),
            warm_hits,
            fst_memo_hits: ctx
                .memo
                .hits
                .load(Ordering::Relaxed)
                .saturating_sub(ctx.memo_hits_before),
            dead_sides: ctx.sides[0].load(Ordering::Relaxed),
            live_sides: ctx.sides[1].load(Ordering::Relaxed),
            phases,
            max_class_time: max_class_time.unwrap_or_default(),
            ..CheckStats::default()
        };
        // the session stamps the job's rows and wall once the engine has
        // retained and freed its inputs
        CheckReport::assembled(flows.len(), violations, Duration::ZERO, stats)
    }

    /// Consult the behavior-keyed store for every class not `answered`,
    /// in class order: the verdicts it answered by class index, each with
    /// its payload when the class has a byte key to twin it under.
    fn consult_store(
        &self,
        flows: &[&FlowSpec],
        classes: &[BehaviorClass],
        answered: &[bool],
    ) -> Vec<(usize, FecResult, Option<Value>)> {
        let Some(cache) = self.cache else {
            return Vec::new();
        };
        let consult = |(ix, class): (usize, &BehaviorClass)| {
            let (pre, post) = class.key.filter(|_| !answered[ix])?;
            let key = (pre.as_u128(), post.as_u128());
            let payload = cache.get(&self.store_key(key, class.route, BEHAVIOR_VARIANT))?;
            let result = FecResult::from_cache_value(&payload, flows[class.members[0]].clone())?;
            Some((ix, result, class.byte_key.map(|_| payload)))
        };
        classes.iter().enumerate().filter_map(consult).collect()
    }

    /// Decide the classes listed in `cold` (indices into `classes`) over
    /// a work-stealing queue: workers pull the next undecided class from
    /// an atomic cursor, so a pathological class occupies one worker
    /// while the rest drain the queue, instead of stalling a statically
    /// assigned chunk. The one place a class is decided.
    fn decide_classes(
        &self,
        ctx: &DecideCtx<'_>,
        cold: &[usize],
        classes: &[BehaviorClass],
        reps: &[&AlignedFec],
    ) -> (
        Vec<(usize, FecResult, Duration, PhaseTimings)>,
        PhaseTimings,
    ) {
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut out = Vec::new();
            let mut phases = PhaseTimings::default();
            loop {
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                if next >= cold.len() || self.cancel.check() {
                    break;
                }
                let ix = cold[next];
                let class = &classes[ix];
                let t0 = Instant::now();
                let before = phases;
                let result = self.check_class(ctx, reps[ix], class.route, class.key, &mut phases);
                out.push((ix, result, t0.elapsed(), phases.since(&before)));
            }
            (out, phases)
        };
        let threads = self.resolve_threads();
        if threads <= 1 || cold.len() <= 1 {
            return drain();
        }
        let worker_out = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(drain)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect::<Vec<_>>()
        });
        let mut decided = Vec::with_capacity(cold.len());
        let mut phases = PhaseTimings::default();
        for (out, local_phases) in worker_out {
            decided.extend(out);
            phases.merge(&local_phases);
        }
        (decided, phases)
    }

    /// Group the pair's FECs into behavior classes. With dedup disabled
    /// every FEC is its own class, so the same decide/assemble engine
    /// serves both modes.
    fn group_into_classes(&self, pair: &SnapshotPair) -> Vec<BehaviorClass> {
        if !self.options.dedup {
            return pair
                .fecs
                .iter()
                .enumerate()
                .map(|(ix, fec)| BehaviorClass {
                    route: self.route_of(fec),
                    members: vec![ix],
                    key: None,
                    byte_key: None,
                })
                .collect();
        }
        let keys = pair.fecs.iter().map(|fec| self.fingerprint_of(fec));
        let mut classes: Vec<BehaviorClass> = Vec::new();
        let mut index: FixedMap<(BehaviorHash, BehaviorHash, usize), usize> = FixedMap::default();
        for (ix, (route, pre, post)) in keys.enumerate() {
            match index.entry((pre, post, route.unwrap_or(usize::MAX))) {
                Entry::Occupied(e) => classes[*e.get()].members.push(ix),
                Entry::Vacant(e) => {
                    e.insert(classes.len());
                    classes.push(BehaviorClass {
                        route,
                        members: vec![ix],
                        key: Some((pre, post)),
                        byte_key: None,
                    });
                }
            }
        }
        classes
    }

    /// The fingerprint of one FEC: its pspec route and its pre/post
    /// behavior hashes at the granularity the routed check observes.
    fn fingerprint_of(&self, fec: &AlignedFec) -> (Option<usize>, BehaviorHash, BehaviorHash) {
        let route = self.route_of(fec);
        let level = self.hash_level(route);
        (
            route,
            behavior_hash(&fec.pre, self.db, level),
            behavior_hash(&fec.post, self.db, level),
        )
    }

    /// The granularity at which a FEC on `route` is behavior-hashed.
    /// ECMP limit verdicts count link-level paths, so those FECs are
    /// hashed at interface fidelity regardless of the program
    /// granularity; everything else dedups at the granularity the
    /// program actually observes. A side can therefore be hashed knowing
    /// only its flow (the route is a function of the flow alone), which
    /// is what lets pipelined decode workers fingerprint each side
    /// before the pre/post join.
    fn hash_level(&self, route: Option<usize>) -> Granularity {
        let check = route
            .map(|r| &self.program.routed[r].check)
            .unwrap_or(&self.program.default_check);
        if matches!(check, CompiledCheck::PathLimit { .. }) {
            Granularity::Interface
        } else {
            self.program.granularity
        }
    }

    /// The verdict-store key under which the class with `(pre, post)`
    /// hashes on `route` is stored: its behavior fingerprints under
    /// [`BEHAVIOR_VARIANT`], or its founding member's raw-span content
    /// hashes under [`BYTE_VARIANT`].
    fn store_key(&self, (pre, post): (u128, u128), route: Option<usize>, variant: u64) -> CacheKey {
        CacheKey {
            pre: BehaviorHash::from_u128(pre),
            post: BehaviorHash::from_u128(post),
            granularity: self.program.granularity,
            route,
            variant,
        }
    }

    /// The first pspec whose predicate matches the flow, if any.
    fn route_of(&self, fec: &AlignedFec) -> Option<usize> {
        self.route_of_flow(&fec.flow)
    }

    /// The first pspec whose predicate matches `flow`, if any. Routes
    /// are a function of the flow alone, so pipelined workers can route
    /// a record before its partner side arrives.
    fn route_of_flow(&self, flow: &FlowSpec) -> Option<usize> {
        self.program
            .routed
            .iter()
            .position(|r| r.pred.matches(flow))
    }

    /// The program's relations lowered, out of the memo — built here, on
    /// the calling thread, if no run has built them yet — and the wall
    /// this call paid for that.
    fn lower_relations(&self) -> (&LoweredProgram, Duration) {
        let mut paid = Duration::ZERO;
        let lowered = self.memo.lowered.get_or_init(|| {
            let t0 = Instant::now();
            let lowered = LoweredProgram::new(self.program);
            paid = t0.elapsed();
            lowered
        });
        (lowered, paid)
    }

    /// The decide context for a run; what lowering the relations cost
    /// here goes on `clock`.
    fn decide_ctx(&self, clock: &mut StageClock) -> DecideCtx<'_> {
        let (lowered, paid) = self.lower_relations();
        clock.rows.relations += paid;
        DecideCtx {
            lowered,
            memo: self.memo,
            memo_hits_before: self.memo.hits.load(Ordering::Relaxed),
            empty: Arc::new(Dfa::empty_language()),
            sides: Default::default(),
        }
    }

    /// Both sides' automata, built against the compiled program's table:
    /// the session's one alphabet, every location the db lists at the
    /// granularity, `drop` and the spec's markers, interned once by
    /// [`crate::compile`]. A class whose graphs name a location the db
    /// lacks is built against a private copy of it instead, with its
    /// missing names appended in sorted order, and that copy is returned
    /// beside the automata. Only the class's own names decide its
    /// layout either way.
    fn class_fsas(&self, graphs: [&ForwardingGraph; 2]) -> (Option<SymbolTable>, PairFsas) {
        let (db, granularity, table) = (self.db, self.program.granularity, &self.program.table);
        let build = |table: &SymbolTable| {
            let [pre, post] = graphs.map(|g| graph_to_fsa_prepared(g, db, granularity, table));
            Some(PairFsas::new(pre?, post?))
        };
        if let Some(env) = build(table) {
            return (None, env);
        }
        let mut seen = SymbolTable::new();
        for graph in graphs {
            graph_to_fsa(graph, db, granularity, &mut seen);
        }
        let names = seen.iter().map(|sym| seen.name(sym));
        let missing: BTreeSet<&str> = names.filter(|name| table.lookup(name).is_none()).collect();
        let mut own = table.clone();
        for name in missing {
            own.intern(name);
        }
        let env = build(&own).expect("every name the class mentions is interned");
        (Some(own), env)
    }

    /// Decide one behavior class on its representative FEC. The graphs
    /// are canonicalized first, so every member of a class — which by
    /// construction shares the representative's canonical behavior —
    /// would produce byte-identical output if checked individually
    /// (witness enumeration order depends on automaton layout, and the
    /// canonical form pins that layout).
    fn check_class(
        &self,
        ctx: &DecideCtx<'_>,
        fec: &AlignedFec,
        route: Option<usize>,
        class_key: Option<(BehaviorHash, BehaviorHash)>,
        phases: &mut PhaseTimings,
    ) -> FecResult {
        // deterministic panic injection for the containment tests: under
        // a `panic=decide[@n]` plan, the n-th class decided by the plan's
        // holders panics here — inside a real engine worker, where an
        // organic bug would
        if let Some(plan) = self.faults {
            plan.at("decide").fire();
        }
        let (route_name, check, lowered) = match route {
            Some(r) => {
                let routed = &self.program.routed[r];
                (
                    Some(routed.name.clone()),
                    &routed.check,
                    &ctx.lowered.routed[r],
                )
            }
            None => (
                None,
                &self.program.default_check,
                &ctx.lowered.default_check,
            ),
        };
        let pre_graph = canonical_graph(&fec.pre);
        let post_graph = canonical_graph(&fec.post);
        let t0 = Instant::now();
        let (own_table, env) = self.class_fsas([&pre_graph, &post_graph]);
        phases.lower += t0.elapsed();
        let table = own_table.as_ref().unwrap_or(&self.program.table);
        let renderer = PathRenderer::new(table, &self.program.hash_undo);

        let violations = match check {
            CompiledCheck::Relational { parts, .. } => {
                // a class under a table of its own shares no side
                let memo_id = class_key
                    .filter(|_| own_table.is_none())
                    .map(|(pre, post)| (pre, post, route.unwrap_or(usize::MAX)));
                let parts = parts.iter().zip(&lowered.parts);
                self.check_relational(ctx, parts, &env, &renderer, memo_id, phases)
            }
            CompiledCheck::Raw { name, spec } => {
                let failures = self.check_raw(spec, &env, &renderer, phases);
                if failures.is_empty() {
                    Vec::new()
                } else {
                    vec![PartViolation {
                        part: name.clone(),
                        detail: ViolationDetail::Raw(failures),
                    }]
                }
            }
            CompiledCheck::PathLimit { name, max } => {
                // combinatorial count on the DAG — path counting is not
                // expressible with regular relations (paper §9.1)
                let count = post_graph.path_count().unwrap_or(u128::MAX);
                if count <= u128::from(*max) {
                    Vec::new()
                } else {
                    vec![PartViolation {
                        part: name.clone(),
                        detail: ViolationDetail::Raw(vec![format!(
                            "flow has {count} ECMP paths, exceeding the limit of {max}"
                        )]),
                    }]
                }
            }
        };

        let path_limit = WitnessLimits {
            max_paths: LISTED_PATHS,
            max_len: path_len_bound(&pre_graph).max(path_len_bound(&post_graph)),
        };
        let (pre_paths, post_paths) = if violations.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let t0 = Instant::now();
            let rendered = (
                render_language(env.pre, &renderer, path_limit),
                render_language(env.post, &renderer, path_limit),
            );
            phases.witness += t0.elapsed();
            rendered
        };

        FecResult {
            flow: fec.flow.clone(),
            check_name: check.name().to_owned(),
            route: route_name,
            pre_paths,
            post_paths,
            violations,
        }
    }

    /// Decide every guarded equation of a relational check.
    ///
    /// A side is asked for liveness first — does the class's path set
    /// meet the domain of the part's relation ([`meets`])? The `else`
    /// chain partitions path space, so for most parts it does not. A
    /// part dead on both sides is skipped: ∅ = ∅ holds. A side dead
    /// alone is the shared empty DFA. Only a live side is built —
    /// image → trim → determinize — through the per-side memo, where it
    /// is identified by its behavior hash plus the (route, part)
    /// selecting the relation: `memo_id` is the class's `(pre hash, post
    /// hash, route)`, `None` when it has no fingerprints or its own
    /// table. Classes that
    /// share an unchanged side skip its image and determinization
    /// entirely. A skipped side is what building it would have returned,
    /// so every automaton that reaches `equivalent` or a witness is the
    /// one it always was; debug builds build each skipped side anyway
    /// and check.
    fn check_relational<'p>(
        &self,
        ctx: &DecideCtx<'_>,
        parts: impl Iterator<Item = (&'p GuardedPart, &'p [LoweredSide; 2])>,
        env: &PairFsas,
        renderer: &PathRenderer<'_>,
        memo_id: Option<(BehaviorHash, BehaviorHash, usize)>,
        phases: &mut PhaseTimings,
    ) -> Vec<PartViolation> {
        let states = [&env.pre, &env.post];
        let mut out = Vec::new();
        for (part_ix, (part, relations)) in parts.enumerate() {
            let t0 = Instant::now();
            let live = [0, 1].map(|side| meets(states[side], &relations[side].domain));
            phases.lower += t0.elapsed();
            for alive in live {
                ctx.sides[usize::from(alive)].fetch_add(1, Ordering::Relaxed);
            }
            let build = |side: usize, phases: &mut PhaseTimings| {
                let t0 = Instant::now();
                let nfa = image(states[side], &relations[side].fst).trim();
                phases.lower += t0.elapsed();
                let t0 = Instant::now();
                let dfa = determinize(&nfa);
                phases.determinize += t0.elapsed();
                dfa
            };
            #[cfg(debug_assertions)]
            for side in (0..2).filter(|&side| !live[side]) {
                let built = build(side, &mut PhaseTimings::default());
                let start = built.start();
                assert!(
                    built.len() == 1
                        && !built.is_accepting(start)
                        && built.arcs_from(start).is_empty(),
                    "part `{}` skipped side {side}, which has an image",
                    part.name
                );
            }
            if live == [false, false] {
                continue;
            }
            let mut side = |side: usize| {
                if !live[side] {
                    return ctx.empty.clone();
                }
                let key = memo_id.map(|(pre, post, route)| {
                    let hash = [pre, post][side].as_u128();
                    (hash, route, part_ix, side == 1)
                });
                ctx.memo.get_or_compute(key, || build(side, phases))
            };
            let (lhs, rhs) = (side(0), side(1));
            let t0 = Instant::now();
            let equal = equivalent(&lhs, &rhs).is_ok();
            phases.equivalent += t0.elapsed();
            if equal {
                continue;
            }
            let t0 = Instant::now();
            let diff = diff_equation(&lhs, &rhs, renderer, WitnessLimits::default());
            phases.witness += t0.elapsed();
            debug_assert!(!diff.is_empty(), "inequivalent DFAs must differ");
            out.push(PartViolation {
                part: part.name.clone(),
                detail: ViolationDetail::Equation(diff),
            });
        }
        out
    }

    /// Decide a raw RIR spec, describing every failed positive assertion.
    /// (Raw lowering determinizes internally, so its cost lands in the
    /// `lower` phase bucket.)
    fn check_raw(
        &self,
        spec: &RirSpec,
        env: &PairFsas,
        renderer: &PathRenderer<'_>,
        phases: &mut PhaseTimings,
    ) -> Vec<String> {
        match spec {
            RirSpec::Equal(a, b) => {
                let t0 = Instant::now();
                let da = lower_pathset_dfa(a, env);
                let db_ = lower_pathset_dfa(b, env);
                phases.lower += t0.elapsed();
                let t0 = Instant::now();
                let equal = equivalent(&da, &db_).is_ok();
                phases.equivalent += t0.elapsed();
                if equal {
                    Vec::new()
                } else {
                    let t0 = Instant::now();
                    let diff = diff_equation(&da, &db_, renderer, WitnessLimits::default());
                    phases.witness += t0.elapsed();
                    vec![describe_diff("equality", &diff)]
                }
            }
            RirSpec::Subset(a, b) => {
                let t0 = Instant::now();
                let da = lower_pathset_dfa(a, env);
                let db_ = lower_pathset_dfa(b, env);
                phases.lower += t0.elapsed();
                // the verdict is the inclusion itself, never the witness
                // list: `max_len` truncates that
                let t0 = Instant::now();
                let holds = included(&da, &db_).is_ok();
                phases.equivalent += t0.elapsed();
                if holds {
                    Vec::new()
                } else {
                    let t0 = Instant::now();
                    let extra = diff_paths(&da, &db_, renderer, WitnessLimits::default());
                    phases.witness += t0.elapsed();
                    vec![format!(
                        "inclusion violated; extra paths: {}",
                        extra.join(", ")
                    )]
                }
            }
            RirSpec::And(a, b) => {
                let mut out = self.check_raw(a, env, renderer, phases);
                out.extend(self.check_raw(b, env, renderer, phases));
                out
            }
            RirSpec::Or(a, b) => {
                let left = self.check_raw(a, env, renderer, phases);
                if left.is_empty() {
                    return Vec::new();
                }
                let right = self.check_raw(b, env, renderer, phases);
                if right.is_empty() {
                    return Vec::new();
                }
                vec![format!(
                    "both disjuncts failed: [{}] and [{}]",
                    left.join("; "),
                    right.join("; ")
                )]
            }
            RirSpec::Not(a) => {
                if self.check_raw(a, env, renderer, phases).is_empty() {
                    vec!["negated assertion holds".to_owned()]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

fn describe_diff(kind: &str, diff: &EquationDiff) -> String {
    let mut parts = Vec::new();
    if !diff.missing.is_empty() {
        parts.push(format!("missing: {{{}}}", diff.missing.join(", ")));
    }
    if !diff.unexpected.is_empty() {
        parts.push(format!("unexpected: {{{}}}", diff.unexpected.join(", ")));
    }
    format!("{kind} violated; {}", parts.join("; "))
}

/// A safe enumeration bound for a graph's paths: every vertex can appear
/// at most once per path (DAG), interface granularity doubles the hops,
/// plus drop and slack.
fn path_len_bound(graph: &ForwardingGraph) -> usize {
    graph.vertices.len() * 2 + 4
}

fn render_language(nfa: Nfa, renderer: &PathRenderer<'_>, limits: WitnessLimits) -> Vec<String> {
    let dfa = determinize(&nfa.trim());
    enumerate_words(&dfa, limits.max_paths, limits.max_len)
        .into_iter()
        .map(|w| renderer.render_witness(&w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{CheckSession, JobError, JobSpec, LabeledSource, SessionConfig};
    use rela_net::{linear_graph, Device, FlowSpec, Snapshot};
    use serde::Serialize;

    impl FstMemo {
        /// Sides currently held.
        pub(crate) fn len(&self) -> usize {
            self.map.lock().unwrap().len()
        }
    }

    /// Session-API stand-in for the deprecated `run_check` shim
    /// (shadows the glob import, so the tests exercise the live path).
    pub(crate) fn run_check(
        source: &str,
        db: &LocationDb,
        granularity: Granularity,
        pair: &SnapshotPair,
    ) -> Result<CheckReport, crate::RelaError> {
        let session = crate::session::CheckSession::open(
            source,
            db.clone(),
            crate::session::SessionConfig {
                granularity,
                ..Default::default()
            },
        )?;
        Ok(session
            .run(crate::session::JobSpec::pair(pair))
            .expect("an in-memory pair cannot fail snapshot ingest"))
    }

    fn db() -> LocationDb {
        let mut db = LocationDb::new();
        for (name, group, region) in [
            ("x1", "x1", "A"),
            ("A1-r1", "A1", "A"),
            ("A2-r1", "A2", "A"),
            ("B1-r1", "B1", "B"),
            ("D1-r1", "D1", "D"),
            ("y1", "y1", "D"),
        ] {
            db.add_device(Device::new(name, group).with_attr("region", region));
        }
        db
    }

    fn flow(dst: &str, ingress: &str) -> FlowSpec {
        FlowSpec::new(dst.parse().unwrap(), ingress)
    }

    fn pair_of(pre: Vec<(FlowSpec, Vec<&str>)>, post: Vec<(FlowSpec, Vec<&str>)>) -> SnapshotPair {
        let build = |entries: Vec<(FlowSpec, Vec<&str>)>| {
            let mut snap = Snapshot::new();
            for (f, path) in entries {
                snap.insert(f, linear_graph(&path));
            }
            snap
        };
        SnapshotPair::align(&build(pre), &build(post))
    }

    const NOCHANGE: &str = "spec nochange := { .* : preserve }\ncheck nochange";

    /// A fresh session checking [`NOCHANGE`] against [`db`] at device
    /// granularity on `threads` workers. Its first run is cold.
    fn session(threads: usize) -> CheckSession {
        let config = SessionConfig {
            granularity: Granularity::Device,
            threads,
            ..SessionConfig::default()
        };
        CheckSession::open(NOCHANGE, db(), config).unwrap()
    }

    /// One cold run of `pair` under `options` on `threads` workers.
    fn check_with(threads: usize, options: JobOptions, pair: &SnapshotPair) -> CheckReport {
        let job = JobSpec::pair(pair).with_options(options);
        session(threads).run(job).unwrap()
    }

    /// A job over two JSON snapshot documents, labelled `pre.json` and
    /// `post.json`.
    fn streams<'a>(pre: &'a str, post: &'a str, options: JobOptions) -> JobSpec<'a> {
        JobSpec::streams(
            LabeledSource::new(pre.as_bytes(), "pre.json"),
            LabeledSource::new(post.as_bytes(), "post.json"),
        )
        .with_options(options)
    }

    /// The snapshot error a job failed with.
    fn snapshot_error(outcome: Result<CheckReport, JobError>) -> SnapshotError {
        match outcome {
            Err(JobError::Snapshot(e)) => e,
            Err(other) => panic!("expected a snapshot error, got {other}"),
            Ok(report) => panic!("expected a snapshot error, got\n{report}"),
        }
    }

    #[test]
    fn nochange_passes_on_identical_snapshots() {
        let db = db();
        let pair = pair_of(
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
        );
        let report = run_check(NOCHANGE, &db, Granularity::Device, &pair).unwrap();
        assert!(report.is_compliant());
        assert_eq!(report.total, 1);
        assert_eq!(report.compliant, 1);
    }

    #[test]
    fn nochange_catches_a_moved_path() {
        let db = db();
        let pair = pair_of(
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A2-r1", "B1-r1"])],
        );
        let report = run_check(NOCHANGE, &db, Granularity::Device, &pair).unwrap();
        assert!(!report.is_compliant());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.violations[0].part, "nochange");
        match &v.violations[0].detail {
            ViolationDetail::Equation(diff) => {
                assert_eq!(diff.missing, vec!["x1 A1-r1 B1-r1"]);
                assert_eq!(diff.unexpected, vec!["x1 A2-r1 B1-r1"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(v.pre_paths, vec!["x1 A1-r1 B1-r1"]);
        assert_eq!(v.post_paths, vec!["x1 A2-r1 B1-r1"]);
    }

    #[test]
    fn group_granularity_spec() {
        let db = db();
        // device-level change within the same groups is invisible at
        // group granularity... here the device changes group, so caught
        let src = r#"
            spec nochange := { .* : preserve }
            check nochange
        "#;
        let pair = pair_of(
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "B1-r1"])],
        );
        let report = run_check(src, &db, Granularity::Group, &pair).unwrap();
        assert!(report.is_compliant());
    }

    #[test]
    fn else_attribution_reports_the_right_part() {
        let db = db();
        let src = r#"
            regex a1 := where(group == "A1")
            regex a2 := where(group == "A2")
            regex d1 := where(group == "D1")
            spec e2e := { a1 .* d1 : any(a1 a2 d1) }
            spec nochange := { .* : preserve }
            spec change := e2e else nochange
            check change
        "#;
        // flow 1: in-zone, unmoved → e2e violation
        // flow 2: out-of-zone, changed → nochange violation
        let pair = pair_of(
            vec![
                (flow("10.1.0.0/24", "x1"), vec!["A1-r1", "B1-r1", "D1-r1"]),
                (flow("10.2.0.0/24", "x1"), vec!["B1-r1", "y1"]),
            ],
            vec![
                (flow("10.1.0.0/24", "x1"), vec!["A1-r1", "B1-r1", "D1-r1"]),
                (flow("10.2.0.0/24", "x1"), vec!["B1-r1", "A2-r1", "y1"]),
            ],
        );
        let report = run_check(src, &db, Granularity::Group, &pair).unwrap();
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.part_counts["e2e"], 1);
        assert_eq!(report.part_counts["nochange"], 1);
        // and a compliant implementation passes
        let good = pair_of(
            vec![
                (flow("10.1.0.0/24", "x1"), vec!["A1-r1", "B1-r1", "D1-r1"]),
                (flow("10.2.0.0/24", "x1"), vec!["B1-r1", "y1"]),
            ],
            vec![
                (flow("10.1.0.0/24", "x1"), vec!["A1-r1", "A2-r1", "D1-r1"]),
                (flow("10.2.0.0/24", "x1"), vec!["B1-r1", "y1"]),
            ],
        );
        let report2 = run_check(src, &db, Granularity::Group, &good).unwrap();
        assert!(report2.is_compliant(), "{report2}");
    }

    #[test]
    fn pspec_routes_flows_to_their_spec() {
        let db = db();
        // dealloc for 10.9.0.0/16 traffic: it must vanish; everything
        // else must stay
        let src = r#"
            spec dealloc := { .* : remove(.*) }
            spec nochange := { .* : preserve }
            pspec deallocP := (dstPrefix == 10.9.0.0/16) -> dealloc
            check nochange
        "#;
        let pair = pair_of(
            vec![
                (flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
                (flow("10.1.0.0/24", "x1"), vec!["x1", "B1-r1", "y1"]),
            ],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "B1-r1", "y1"])],
        );
        let report = run_check(src, &db, Granularity::Device, &pair).unwrap();
        assert!(report.is_compliant(), "{report}");
        // forgetting to remove the deallocated prefix now fails
        let bad = pair_of(
            vec![(flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"])],
            vec![(flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"])],
        );
        let report2 = run_check(src, &db, Granularity::Device, &bad).unwrap();
        assert!(!report2.is_compliant());
        assert_eq!(report2.violations[0].route.as_deref(), Some("deallocP"));
        assert_eq!(report2.violations[0].check_name, "dealloc");
    }

    #[test]
    fn raw_rir_check_reports_failures() {
        let db = db();
        let src = r#"
            rir sideEffects := pre <= post && post <= (pre | x1 .*)
            check sideEffects
        "#;
        // addition outside the x1 zone → inclusion violated
        let pair = pair_of(
            vec![],
            vec![(flow("10.1.0.0/24", "x1"), vec!["A2-r1", "y1"])],
        );
        let report = run_check(src, &db, Granularity::Device, &pair).unwrap();
        assert!(!report.is_compliant());
        match &report.violations[0].violations[0].detail {
            ViolationDetail::Raw(msgs) => {
                assert_eq!(msgs.len(), 1);
                assert!(msgs[0].contains("inclusion violated"), "{msgs:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // addition inside the zone passes
        let ok = pair_of(
            vec![],
            vec![(flow("10.1.0.0/24", "x1"), vec!["x1", "A2-r1", "y1"])],
        );
        let report2 = run_check(src, &db, Granularity::Device, &ok).unwrap();
        assert!(report2.is_compliant());
    }

    /// A 70-device chain before the change, nothing after it: every
    /// differing path is longer than `WitnessLimits::max_len` (64).
    fn long_chain_pair() -> (LocationDb, SnapshotPair) {
        let names: Vec<String> = (0..70).map(|i| format!("hop{i}")).collect();
        let mut db = LocationDb::new();
        for name in &names {
            db.add_device(Device::new(name.as_str(), name.as_str()));
        }
        let chain: Vec<&str> = names.iter().map(String::as_str).collect();
        let pair = pair_of(vec![(flow("10.1.0.0/24", "hop0"), chain)], vec![]);
        (db, pair)
    }

    fn raw_messages(report: &CheckReport) -> &[String] {
        match &report.violations[0].violations[0].detail {
            ViolationDetail::Raw(msgs) => msgs,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn raw_inclusion_is_decided_not_read_off_the_witness_list() {
        let (db, pair) = long_chain_pair();
        let run = |src: &str| run_check(src, &db, Granularity::Device, &pair).unwrap();

        let subset = run("rir keep := pre <= post\ncheck keep");
        assert!(!subset.is_compliant(), "{subset}");
        let msgs = raw_messages(&subset);
        assert!(
            msgs[0].starts_with("inclusion violated; extra paths: hop0 hop1 "),
            "{msgs:?}"
        );

        // the negation of a violated inclusion holds
        let negated = run("rir gone := !pre <= post\ncheck gone");
        assert!(negated.is_compliant(), "{negated}");

        // neither disjunct holds, so the disjunction does not
        let either = run("rir either := pre <= post || pre == post\ncheck either");
        assert!(!either.is_compliant(), "{either}");
        let msgs = raw_messages(&either);
        assert!(msgs[0].starts_with("both disjuncts failed: "), "{msgs:?}");
    }

    #[test]
    fn a_violation_past_the_witness_length_still_has_a_reason() {
        let (db, pair) = long_chain_pair();
        let run = |src: &str| run_check(src, &db, Granularity::Device, &pair).unwrap();

        let relational = run(NOCHANGE);
        assert!(!relational.is_compliant());
        match &relational.violations[0].violations[0].detail {
            ViolationDetail::Equation(diff) => {
                // the shortest differing path, whole
                assert_eq!(diff.missing.len(), 1);
                assert_eq!(diff.missing[0].split(' ').count(), 70);
                assert!(diff.unexpected.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }

        let raw = run("rir same := pre == post\ncheck same");
        assert!(!raw.is_compliant());
        let msgs = raw_messages(&raw);
        assert!(
            msgs[0].starts_with("equality violated; missing: {hop0 hop1 "),
            "{msgs:?}"
        );
    }

    #[test]
    fn parallel_and_serial_agree() {
        let mut pre = Vec::new();
        let mut post = Vec::new();
        for i in 0..12 {
            let f = flow(&format!("10.1.{i}.0/24"), "x1");
            pre.push((f.clone(), vec!["x1", "A1-r1", "y1"]));
            // half the flows change
            if i % 2 == 0 {
                post.push((f, vec!["x1", "A2-r1", "y1"]));
            } else {
                post.push((f, vec!["x1", "A1-r1", "y1"]));
            }
        }
        let pair = pair_of(pre, post);
        let serial = check_with(1, JobOptions::default(), &pair);
        let parallel = check_with(4, JobOptions::default(), &pair);
        assert_eq!(serial.total, parallel.total);
        assert_eq!(serial.compliant, parallel.compliant);
        assert_eq!(serial.violations.len(), parallel.violations.len());
        for (a, b) in serial.violations.iter().zip(&parallel.violations) {
            assert_eq!(a.flow, b.flow);
            assert_eq!(a.violations.len(), b.violations.len());
        }
    }

    /// A pair where many flows share identical forwarding behavior.
    fn duplicated_pair(flows: usize) -> SnapshotPair {
        let mut pre = Vec::new();
        let mut post = Vec::new();
        for i in 0..flows {
            let f = flow(&format!("10.1.{i}.0/24"), "x1");
            pre.push((f.clone(), vec!["x1", "A1-r1", "y1"]));
            // two post behaviors alternate → two violating classes max
            if i % 2 == 0 {
                post.push((f, vec!["x1", "A2-r1", "y1"]));
            } else {
                post.push((f, vec!["x1", "A1-r1", "y1"]));
            }
        }
        pair_of(pre, post)
    }

    /// Every FEC decided from scratch.
    fn no_dedup() -> JobOptions {
        JobOptions {
            dedup: false,
            ..JobOptions::default()
        }
    }

    #[test]
    fn dedup_groups_identical_behavior_into_classes() {
        let pair = duplicated_pair(16);
        let report = check_with(0, JobOptions::default(), &pair);
        assert_eq!(report.total, 16);
        assert_eq!(report.violations.len(), 8);
        // 16 FECs, but only 2 distinct (pre, post) behaviors
        assert_eq!(report.stats.fecs, 16);
        assert_eq!(report.stats.classes, 2);
        assert_eq!(report.stats.dedup_hits, 14);
        assert!((report.stats.hit_rate() - 14.0 / 16.0).abs() < 1e-9);
        assert!(report.to_string().contains("behavior classes: 2"));
    }

    #[test]
    fn dedup_off_checks_every_fec_and_agrees() {
        let pair = duplicated_pair(12);
        let on = check_with(0, JobOptions::default(), &pair);
        let off = check_with(0, no_dedup(), &pair);
        assert_eq!(off.stats.classes, 12);
        assert_eq!(off.stats.dedup_hits, 0);
        assert_eq!(on.total, off.total);
        assert_eq!(on.compliant, off.compliant);
        assert_eq!(on.part_counts, off.part_counts);
        assert_eq!(on.violations, off.violations);
    }

    #[test]
    fn dedup_keeps_vertex_permuted_duplicates_in_one_class() {
        use rela_net::{ForwardingGraph, Snapshot};
        // same path x1 → A1-r1 → y1, inserted in two vertex orders
        let forward = linear_graph(&["x1", "A1-r1", "y1"]);
        let mut reversed = ForwardingGraph::new();
        let y = reversed.add_vertex("y1");
        let a = reversed.add_vertex("A1-r1");
        let x = reversed.add_vertex("x1");
        reversed.add_edge(x, a, "eth0", "eth1");
        reversed.add_edge(a, y, "eth0", "eth1");
        reversed.sources.push(x);
        reversed.sinks.push(y);

        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        for (i, g) in [&forward, &reversed].into_iter().enumerate() {
            let f = flow(&format!("10.1.{i}.0/24"), "x1");
            pre.insert(f.clone(), g.clone());
            post.insert(f, linear_graph(&["x1", "A2-r1", "y1"]));
        }
        let pair = SnapshotPair::align(&pre, &post);
        let on = check_with(0, JobOptions::default(), &pair);
        assert_eq!(on.stats.classes, 1, "permuted graphs must share a class");
        let off = check_with(0, no_dedup(), &pair);
        assert_eq!(on.violations, off.violations);
    }

    #[test]
    fn routed_flows_never_share_a_class_across_routes() {
        let db = db();
        // identical graphs, but one flow routes to the dealloc pspec
        let src = r#"
            spec dealloc := { .* : remove(.*) }
            spec nochange := { .* : preserve }
            pspec deallocP := (dstPrefix == 10.9.0.0/16) -> dealloc
            check nochange
        "#;
        let pair = pair_of(
            vec![
                (flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
                (flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
            ],
            vec![
                (flow("10.9.1.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
                (flow("10.1.0.0/24", "x1"), vec!["x1", "A1-r1", "y1"]),
            ],
        );
        let report = run_check(src, &db, Granularity::Device, &pair).unwrap();
        assert_eq!(report.stats.classes, 2, "routes split behavior classes");
        // the routed flow violates dealloc, the unrouted one complies
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].route.as_deref(), Some("deallocP"));
    }

    /// A fresh session with an in-memory store attached.
    fn stored_session() -> CheckSession {
        let mut s = session(0);
        s.attach_store(VerdictStore::in_memory(s.epoch()));
        s
    }

    #[test]
    fn persistent_cache_replays_identical_reports() {
        let pair = duplicated_pair(12);
        let s = stored_session();

        let cold = s.run(JobSpec::pair(&pair)).unwrap();
        assert_eq!(cold.stats.warm_hits, 0);
        assert_eq!(s.store().unwrap().stats().inserted, cold.stats.classes);

        let warm = s.run(JobSpec::pair(&pair)).unwrap();
        assert_eq!(warm.stats.warm_hits, warm.stats.classes, "all classes warm");
        assert_eq!(warm.total, cold.total);
        assert_eq!(warm.compliant, cold.compliant);
        assert_eq!(warm.part_counts, cold.part_counts);
        assert_eq!(warm.violations, cold.violations);

        // a cache-free run agrees with the replay
        let plain = check_with(0, JobOptions::default(), &pair);
        assert_eq!(plain.violations, warm.violations);
        assert!(warm.to_string().contains("warm from store"));
    }

    #[test]
    fn cache_epoch_tracks_semantics_not_formatting() {
        let p1 = crate::parser::parse_program(NOCHANGE).unwrap();
        // reformatting and comments leave the epoch unchanged...
        let p2 = crate::parser::parse_program(
            "spec nochange :=   { .* : preserve }\n\ncheck   nochange",
        )
        .unwrap();
        let base_db = db();
        assert_eq!(cache_epoch(&p1, &base_db), cache_epoch(&p2, &base_db));
        // ...but a semantic edit moves it
        let p3 = crate::parser::parse_program("spec nochange := { .* : add(.*) }\ncheck nochange")
            .unwrap();
        assert_ne!(cache_epoch(&p1, &base_db), cache_epoch(&p3, &base_db));
        // ...and so does editing the location database under the spec:
        // where-queries and granularity views resolve against it
        let mut edited_db = db();
        edited_db.add_device(rela_net::Device::new("Z9-r1", "Z9"));
        assert_ne!(cache_epoch(&p1, &base_db), cache_epoch(&p1, &edited_db));
    }

    #[test]
    fn fst_memo_reuses_shared_sides() {
        // every FEC shares one pre behavior; the two post behaviors
        // split the pair into two classes ⇒ the second class's pre side
        // must come from the memo (serial so ordering is deterministic)
        let pair = duplicated_pair(8);
        let report = check_with(1, JobOptions::default(), &pair);
        assert_eq!(report.stats.classes, 2);
        assert!(
            report.stats.fst_memo_hits >= 1,
            "shared pre side must hit the memo (got {})",
            report.stats.fst_memo_hits
        );
        // memoized and memo-free (no-dedup) runs agree
        let off = check_with(0, no_dedup(), &pair);
        assert_eq!(report.violations, off.violations);
    }

    #[test]
    fn phase_timings_are_populated() {
        let pair = duplicated_pair(4);
        let report = check_with(0, JobOptions::default(), &pair);
        let phases = report.stats.phases;
        assert!(phases.lower > Duration::ZERO);
        assert!(phases.determinize > Duration::ZERO);
        assert!(phases.equivalent > Duration::ZERO);
        // half the flows violate → witnesses were rendered
        assert!(phases.witness > Duration::ZERO);
        // the serial rows telescope: one clock, read at each boundary
        assert_eq!(phases.serial(), report.elapsed);
        assert!(report.stats.max_class_time > Duration::ZERO);
    }

    #[test]
    fn empty_pair_is_trivially_compliant() {
        let db = db();
        let pair = SnapshotPair::align(&Snapshot::new(), &Snapshot::new());
        let report = run_check(NOCHANGE, &db, Granularity::Device, &pair).unwrap();
        assert!(report.is_compliant());
        assert_eq!(report.total, 0);
    }

    /// The report rendering minus its timing-dependent lines: what must
    /// be byte-identical across engine paths.
    fn verdict_bytes(report: &CheckReport) -> String {
        report
            .to_string()
            .lines()
            .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The two snapshots behind [`duplicated_pair`], unaligned.
    fn duplicated_snapshots(flows: usize) -> (Snapshot, Snapshot) {
        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        for i in 0..flows {
            let f = flow(&format!("10.1.{i}.0/24"), "x1");
            pre.insert(f.clone(), linear_graph(&["x1", "A1-r1", "y1"]));
            if i % 2 == 0 {
                post.insert(f, linear_graph(&["x1", "A2-r1", "y1"]));
            } else {
                post.insert(f, linear_graph(&["x1", "A1-r1", "y1"]));
            }
        }
        (pre, post)
    }

    /// `pre` and `post` through the pipelined engine, as JSON streams.
    fn pipelined(
        session: &CheckSession,
        options: JobOptions,
        pre: &Snapshot,
        post: &Snapshot,
    ) -> CheckReport {
        let (pre, post) = (pre.to_json().unwrap(), post.to_json().unwrap());
        session.run(streams(&pre, &post, options)).unwrap()
    }

    #[test]
    fn check_pipelined_is_byte_identical_across_threads() {
        let (pre, post) = duplicated_snapshots(16);
        let pair = SnapshotPair::align(&pre, &post);
        let materialized = check_with(0, JobOptions::default(), &pair);
        assert!(!materialized.is_compliant(), "the testbed must violate");

        for threads in [1usize, 2, 4] {
            let report = pipelined(&session(threads), JobOptions::default(), &pre, &post);
            assert_eq!(report.stats.classes, materialized.stats.classes);
            assert_eq!(report.stats.fecs, materialized.stats.fecs);
            assert_eq!(
                verdict_bytes(&report),
                verdict_bytes(&materialized),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn check_pipelined_handles_one_sided_flows_and_no_dedup() {
        // overlap, pre-only, and post-only flows
        let mut pre = Snapshot::new();
        let mut post = Snapshot::new();
        pre.insert(flow("10.1.0.0/24", "x1"), linear_graph(&["x1", "A1-r1"]));
        pre.insert(flow("10.1.1.0/24", "x1"), linear_graph(&["x1", "B1-r1"]));
        post.insert(flow("10.1.0.0/24", "x1"), linear_graph(&["x1", "A1-r1"]));
        post.insert(flow("10.1.2.0/24", "x1"), linear_graph(&["x1", "D1-r1"]));
        let pair = SnapshotPair::align(&pre, &post);
        for dedup in [true, false] {
            let options = JobOptions {
                dedup,
                ..JobOptions::default()
            };
            let batch = check_with(2, options, &pair);
            let piped = pipelined(&session(2), options, &pre, &post);
            assert_eq!(piped.total, 3, "dedup={dedup}");
            assert_eq!(
                verdict_bytes(&piped),
                verdict_bytes(&batch),
                "dedup={dedup}"
            );
        }
    }

    #[test]
    fn every_flow_lands_in_exactly_one_class_at_any_worker_count() {
        use rela_net::SnapshotFramer;
        // 256 paired flows in two byte classes, plus one-sided flows
        // that share bytes among themselves: hits come through the
        // shared index, the workers' own maps and the one-sided drain
        let (mut pre, mut post) = duplicated_snapshots(256);
        for i in 0..3 {
            let gone = flow(&format!("10.2.{i}.0/24"), "x1");
            pre.insert(gone, linear_graph(&["x1", "B1-r1", "y1"]));
        }
        post.insert(flow("10.3.0.0/24", "x1"), linear_graph(&["x1", "D1-r1"]));
        let pair = SnapshotPair::align(&pre, &post);
        let (pre_json, post_json) = (pre.to_json().unwrap(), post.to_json().unwrap());
        let token = CancelToken::with_deadline_ms(None);
        for dedup in [true, false] {
            for threads in [1usize, 2, 8] {
                let options = JobOptions {
                    dedup,
                    ..JobOptions::default()
                };
                let batch = check_with(threads, options, &pair);
                let s = session(threads);
                let feeds = vec![
                    framer_feed(SnapshotFramer::new(pre_json.as_bytes(), "pre"), Side::Pre),
                    framer_feed(
                        SnapshotFramer::new(post_json.as_bytes(), "post"),
                        Side::Post,
                    ),
                ];
                let ingested = s
                    .checker(options, &token)
                    .ingest_pipelined(feeds, [None, None])
                    .unwrap()
                    .expect("no deadline to expire");
                let at = format!("dedup={dedup} threads={threads}");
                assert_eq!(ingested.flows.len(), 260, "{at}");
                let mut classes_of = vec![0usize; ingested.flows.len()];
                for (class, rep) in ingested.classes.iter().zip(&ingested.reps) {
                    for &member in &class.members {
                        classes_of[member] += 1;
                    }
                    // the founder, whose graphs the class kept, is first
                    assert_eq!(*ingested.flows[class.members[0]].flow(), rep.flow, "{at}");
                }
                assert!(classes_of.iter().all(|&n| n == 1), "{at}: {classes_of:?}");
                assert_eq!(ingested.classes.len(), batch.stats.classes, "{at}");
                // one decoded pair per byte class (here also one per
                // behavior class), however the workers raced for it
                let decoded_pairs = if dedup { 4 } else { 260 };
                assert_eq!(batch.stats.classes, decoded_pairs, "{at}");
                assert_eq!(ingested.graph_decodes, 2 * decoded_pairs, "{at}");

                let piped = pipelined(&session(threads), options, &pre, &post);
                assert_eq!(piped.stats.classes, batch.stats.classes, "{at}");
                assert_eq!(piped.stats.dedup_hits, batch.stats.dedup_hits, "{at}");
                assert_eq!(piped.stats.graph_decodes, 2 * decoded_pairs, "{at}");
                if !dedup {
                    // which is every graph, as the batch engine decodes
                    assert_eq!(piped.stats.graph_decodes, batch.stats.graph_decodes);
                }
                assert_eq!(verdict_bytes(&piped), verdict_bytes(&batch), "{at}");
            }
        }
    }

    #[test]
    fn check_pipelined_replays_fully_warm_runs_from_the_store() {
        let (pre, post) = duplicated_snapshots(10);
        let pair = SnapshotPair::align(&pre, &post);
        let s = stored_session();
        // cold through the pipelined path populates the store...
        let cold = pipelined(&s, JobOptions::default(), &pre, &post);
        assert_eq!(cold.stats.warm_hits, 0);
        // every class stores its behavior-keyed entry plus the
        // byte-keyed twin that lets identical bytes skip the decode
        assert_eq!(s.store().unwrap().stats().inserted, cold.stats.classes * 2);
        // ...and the warm pipelined run replays every class on the
        // workers (no decides at all) straight from the byte-keyed
        // twins — without decoding a single graph
        let warm = pipelined(&s, JobOptions::default(), &pre, &post);
        assert_eq!(warm.stats.warm_hits, warm.stats.classes);
        assert_eq!(warm.stats.graph_decodes, 0);
        assert_eq!(verdict_bytes(&warm), verdict_bytes(&cold));
        // the batch engine replays the very same store entries
        let batch_warm = s.run(JobSpec::pair(&pair)).unwrap();
        assert_eq!(batch_warm.stats.warm_hits, batch_warm.stats.classes);
        assert_eq!(verdict_bytes(&batch_warm), verdict_bytes(&cold));
    }

    #[test]
    fn store_keys_do_not_move() {
        // a cold pipelined run writes each class under both key families;
        // rebuild both keys from the graphs, as the engine does, with the
        // variants every store on disk was written under — a change here
        // cold-starts every user's cache
        let (pre, post) = duplicated_snapshots(4);
        let s = stored_session();
        pipelined(&s, JobOptions::default(), &pre, &post);
        let store = s.store().unwrap();
        let key = |(pre, post): (u128, u128), variant: u64| CacheKey {
            pre: BehaviorHash::from_u128(pre),
            post: BehaviorHash::from_u128(post),
            granularity: Granularity::Device,
            route: None,
            variant,
        };
        let span_hash = |graph: &ForwardingGraph| {
            content_hash128(serde_json::to_string(&graph.to_value()).unwrap().as_bytes())
        };
        let behavior = |graph| behavior_hash(graph, s.db(), Granularity::Device).as_u128();
        for (flow, pre_graph) in pre.iter() {
            let post_graph = post.get(flow).unwrap();
            let behavior_key = key(
                (behavior(pre_graph), behavior(post_graph)),
                0xeb3a_9940_99bf_50b9,
            );
            let byte_key = key(
                (span_hash(pre_graph), span_hash(post_graph)),
                0x750d_e0f9_e6f5_2cac,
            );
            assert!(
                store.get(&behavior_key).is_some(),
                "{flow}: behavior key moved"
            );
            assert!(store.get(&byte_key).is_some(), "{flow}: byte key moved");
        }
        // the behavior variant is the fingerprint of the retired witness
        // options at the values every run used: 4 paths, 64 hops, 4 listed
        let mut options = [0u8; 24];
        for (ix, value) in [4u64, 64, 4].into_iter().enumerate() {
            options[ix * 8..ix * 8 + 8].copy_from_slice(&value.to_le_bytes());
        }
        assert_eq!(content_hash128(&options) as u64, BEHAVIOR_VARIANT);
        assert_eq!(BYTE_VARIANT, BEHAVIOR_VARIANT ^ BYTE_VARIANT_SALT);
    }

    #[test]
    fn check_pipelined_matches_the_serial_error_contract() {
        use rela_net::SnapshotReader;
        let (pre, post) = duplicated_snapshots(6);
        let pre_json = pre.to_json().unwrap();
        let post_json = post.to_json().unwrap();
        // truncate the post stream inside record #3
        let third = post_json.match_indices("{\"flow\"").nth(3).unwrap().0;
        let cut = &post_json[..third + 25];
        let s = session(4);
        let piped = |pre: &str, post: &str| {
            snapshot_error(s.run(streams(pre, post, JobOptions::default())))
        };
        // the oracle is the decoder the materialized path runs over the
        // one corrupt side
        let reader_err = |doc: &str, label: &str| {
            SnapshotReader::new(doc.as_bytes())
                .with_label(label)
                .collect::<Result<Snapshot, _>>()
                .unwrap_err()
        };
        let serial_err = reader_err(cut, "post.json");
        let piped_err = piped(&pre_json, cut);
        assert_eq!(piped_err, serial_err);
        assert_eq!(piped_err.entry_index(), Some(3));
        assert_eq!(piped_err.label(), Some("post.json"));
        assert!(piped_err.byte_offset().is_some());

        // record-level decode failures carry the same contract
        let bad = r#"{"fecs": [{"graph": {"vertices": [], "edges": [],
                      "sources": [], "sinks": [], "drops": []}}]}"#;
        let serial_err = reader_err(bad, "pre.json");
        let piped_err = piped(bad, &post_json);
        assert_eq!(piped_err, serial_err);
        assert!(piped_err.to_string().contains("missing field `flow`"));
    }

    /// Two framers and a prepared item list are one producer body and
    /// one worker path: the same bad record fails with the same entry
    /// index, offset, label and message whichever way it was fed — and
    /// it is the serial reader's error.
    #[test]
    fn both_feeds_report_a_bad_record_identically() {
        use rela_net::{SnapshotFramer, SnapshotReader, SnapshotWriter};
        let (pre, post) = duplicated_snapshots(6);
        let pre_json = pre.to_json().unwrap();
        let post_json = post.to_json().unwrap();
        // the graph of entry #3 loses a required field (the record still
        // frames: only a worker's decode can object)
        let third = post_json.match_indices("{\"flow\"").nth(3).unwrap().0;
        let bad_graph = format!(
            "{}{}",
            &post_json[..third],
            post_json[third..].replacen("\"edges\"", "\"edgez\"", 1)
        );
        // entry #6 repeats the flow of entry #0
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        for (flow, graph) in post.iter().chain(post.iter().take(1)) {
            writer.write(flow, graph).unwrap();
        }
        let duplicate = String::from_utf8(writer.finish().unwrap()).unwrap();

        let s = session(4);
        let token = CancelToken::with_deadline_ms(None);
        let checker = s.checker(JobOptions::default(), &token);
        for (case, doc, entry) in [("bad graph", &bad_graph, 3), ("duplicate", &duplicate, 6)] {
            let framed = snapshot_error(s.run(streams(&pre_json, doc, JobOptions::default())));
            let items = |json: &str, side: Side| {
                SnapshotFramer::new(json.as_bytes(), "unused")
                    .map(move |raw| {
                        let raw = raw.unwrap();
                        PreparedItem::Record { side, raw }
                    })
                    .collect::<Vec<_>>()
            };
            let mut list = items(&pre_json, Side::Pre);
            list.extend(items(doc, Side::Post));
            let labels = [Some("pre.json".to_owned()), Some("post.json".to_owned())];
            let feed = Box::new(list.into_iter().map(Ok));
            let prepared = checker
                .run_pipelined(vec![feed], labels, &mut StageClock::start())
                .unwrap_err();
            assert_eq!(prepared, framed, "{case}");
            assert_eq!(framed.entry_index(), Some(entry), "{case}: {framed}");
            assert!(framed.byte_offset().is_some(), "{case}");
            let serial = SnapshotReader::new(doc.as_bytes())
                .with_label("post.json")
                .collect::<Result<Snapshot, _>>()
                .unwrap_err();
            assert_eq!(framed, serial, "{case}");
        }
    }

    #[test]
    fn check_pipelined_rejects_duplicate_flows() {
        use rela_net::SnapshotWriter;
        let g = linear_graph(&["x1", "A1-r1"]);
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        writer.write(&flow("10.1.0.0/24", "x1"), &g).unwrap();
        writer.write(&flow("10.1.1.0/24", "x1"), &g).unwrap();
        writer.write(&flow("10.1.0.0/24", "x1"), &g).unwrap(); // dup of #0
        let dup_json = String::from_utf8(writer.finish().unwrap()).unwrap();
        let clean = duplicated_snapshots(3).1.to_json().unwrap();
        let job = |s: &CheckSession, pre: &str, post: &str| {
            snapshot_error(s.run(streams(pre, post, JobOptions::default())))
        };
        let err = job(&session(0), &dup_json, &clean);
        assert_eq!(err.entry_index(), Some(2), "{err}");
        assert_eq!(err.label(), Some("pre.json"));
        assert!(err.to_string().contains("duplicate flow"), "{err}");

        // duplicates more than one frame batch apart: whichever
        // occurrence a worker decodes first, the error must name the
        // *second* occurrence (entry 20), like `SnapshotReader`
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        for i in 0..20 {
            writer
                .write(&flow(&format!("10.2.{i}.0/24"), "x1"), &g)
                .unwrap();
        }
        writer.write(&flow("10.2.0.0/24", "x1"), &g).unwrap(); // dup of #0
        let wide_json = String::from_utf8(writer.finish().unwrap()).unwrap();
        let serial_err = rela_net::SnapshotReader::new(wide_json.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(serial_err.entry_index(), Some(20));
        for threads in [1usize, 4] {
            let s = session(threads);
            for _ in 0..4 {
                let err = job(&s, &wide_json, &wide_json);
                assert_eq!(err.entry_index(), Some(20), "threads {threads}: {err}");
                assert_eq!(err.byte_offset(), serial_err.byte_offset());
            }
        }
    }

    #[test]
    fn check_pipelined_empty_streams_are_compliant() {
        let empty = r#"{"fecs": []}"#;
        let report = session(0)
            .run(streams(empty, empty, JobOptions::default()))
            .unwrap();
        assert!(report.is_compliant());
        assert_eq!(report.total, 0);
    }

    /// Two workers that both miss on one side both compute it; the one
    /// that inserts second keeps the first's entry and counts the hit.
    #[test]
    fn racing_misses_on_one_memo_side_count_one_hit() {
        let memo = FstMemo::new();
        let key = Some((1u128, usize::MAX, 0, false));
        let both_missed = std::sync::Barrier::new(2);
        let got: Vec<Arc<Dfa>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        memo.get_or_compute(key, || {
                            both_missed.wait();
                            Dfa::empty_language()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(memo.hits.load(Ordering::Relaxed), 1);
        assert!(Arc::ptr_eq(&got[0], &got[1]), "both hold the first entry");
        assert_eq!(memo.len(), 1);
    }

    /// One class's verdict in [`per_class_assembly_matches_the_per_fec_report`]:
    /// the parts of `PARTS` its mask selects (none: compliant), routed
    /// or not.
    fn verdict(mask: u8, routed: bool) -> FecResult {
        const PARTS: [&str; 3] = ["e2e", "nochange", "shift"];
        let violations: Vec<PartViolation> = (0..PARTS.len())
            .filter(|bit| mask & (1 << bit) != 0)
            .map(|bit| PartViolation {
                part: PARTS[bit].to_owned(),
                detail: ViolationDetail::Raw(vec![format!("part {bit}, \"quoted\", failed")]),
            })
            .collect();
        let paths = |hop: &str| {
            if violations.is_empty() {
                Vec::new()
            } else {
                vec![format!("x1 {hop}{mask} y1"), "x1 y1".to_owned()]
            }
        };
        FecResult {
            flow: flow("0.0.0.0/0", "x1"),
            check_name: "change".to_owned(),
            route: routed.then(|| "shiftP".to_owned()),
            pre_paths: paths("A"),
            post_paths: paths("B"),
            violations,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The report assembled per class — compliant members counted,
        /// violating ones copied — renders byte for byte as the per-FEC
        /// reference: every FEC given its class's verdict, filtered by
        /// `CheckReport::with_stats`. Flows come in no particular order
        /// and land in random classes (with dedup off, a class each).
        #[test]
        fn per_class_assembly_matches_the_per_fec_report(
            members in proptest::collection::vec((0usize..6, proptest::prelude::any::<u8>()), 0..40),
            verdicts in proptest::collection::vec((0u8..8, proptest::prelude::any::<bool>()), 6),
            dedup in proptest::prelude::any::<bool>(),
        ) {
            let flows: Vec<FlowSpec> = members
                .iter()
                .enumerate()
                .map(|(ix, (_, order))| flow(&format!("10.{order}.{ix}.0/24"), "x1"))
                .collect();
            let verdicts: Vec<FecResult> =
                verdicts.into_iter().map(|(mask, routed)| verdict(mask, routed)).collect();
            let class_of = |member: usize| members[member].0;
            let mut classes: Vec<BehaviorClass> = Vec::new();
            let mut class_verdicts: Vec<(usize, FecResult)> = Vec::new();
            for (id, verdict) in verdicts.iter().enumerate() {
                let of_id: Vec<usize> = (0..flows.len()).filter(|&m| class_of(m) == id).collect();
                let groups: Vec<Vec<usize>> = if !dedup {
                    of_id.into_iter().map(|m| vec![m]).collect()
                } else if of_id.is_empty() {
                    Vec::new()
                } else {
                    vec![of_id]
                };
                for members in groups {
                    class_verdicts.push((classes.len(), verdict.clone()));
                    classes.push(BehaviorClass { route: None, members, key: None, byte_key: None });
                }
            }
            // classes in the order the decides happened to finish
            class_verdicts.reverse();

            let mut per_fec: Vec<FecResult> = (0..flows.len())
                .map(|m| FecResult { flow: flows[m].clone(), ..verdicts[class_of(m)].clone() })
                .collect();
            per_fec.sort_by(|a, b| a.flow.cmp(&b.flow));
            let stats = CheckStats { fecs: flows.len(), classes: classes.len(), ..CheckStats::default() };
            let elapsed = Duration::from_millis(3);
            let reference = CheckReport::with_stats(per_fec, elapsed, stats);
            let flow_refs: Vec<&FlowSpec> = flows.iter().collect();
            let violations = violating_members(&flow_refs, &classes, class_verdicts);
            let assembled = CheckReport::assembled(flows.len(), violations, elapsed, stats);

            proptest::prop_assert_eq!(assembled.to_string(), reference.to_string());
            let json = |report: &CheckReport| serde_json::to_string(&report.to_value()).unwrap();
            proptest::prop_assert_eq!(json(&assembled), json(&reference));
            proptest::prop_assert_eq!(assembled.to_csv(), reference.to_csv());
        }
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use rela_net::{Device, FlowSpec, ForwardingGraph, Snapshot};

    use super::tests::run_check;

    fn db() -> LocationDb {
        let mut db = LocationDb::new();
        for n in ["s", "t"] {
            db.add_device(Device::new(n, n));
        }
        db
    }

    /// A graph with `n` parallel links s→t: n link-level ECMP paths.
    fn fanout(n: usize) -> ForwardingGraph {
        let mut g = ForwardingGraph::new();
        let s = g.add_vertex("s");
        let t = g.add_vertex("t");
        for i in 0..n {
            g.add_edge(s, t, format!("e{i}"), format!("e{i}"));
        }
        g.sources.push(s);
        g.sinks.push(t);
        g
    }

    fn pair_with_fanout(n: usize) -> SnapshotPair {
        let flow = FlowSpec::new("10.1.0.0/24".parse().unwrap(), "s");
        let mut pre = Snapshot::new();
        pre.insert(flow.clone(), fanout(2));
        let mut post = Snapshot::new();
        post.insert(flow, fanout(n));
        SnapshotPair::align(&pre, &post)
    }

    const SPEC: &str = "limit ecmp := 4\npspec lim := (dstPrefix == 10.0.0.0/8) -> ecmp\n\
                        spec nochange := { .* : preserve }\ncheck nochange";

    #[test]
    fn within_limit_passes() {
        // 4 paths ≤ 4: routed to the limit check, which ignores the
        // path *identity* change that nochange would flag
        let report =
            run_check(SPEC, &db(), Granularity::Device, &pair_with_fanout(4)).expect("compiles");
        assert!(report.is_compliant(), "{report}");
    }

    #[test]
    fn over_limit_fails_with_count() {
        let report =
            run_check(SPEC, &db(), Granularity::Device, &pair_with_fanout(9)).expect("compiles");
        assert!(!report.is_compliant());
        let v = &report.violations[0];
        assert_eq!(v.check_name, "ecmp");
        match &v.violations[0].detail {
            ViolationDetail::Raw(msgs) => {
                assert!(msgs[0].contains("9 ECMP paths"), "{msgs:?}");
                assert!(msgs[0].contains("limit of 4"), "{msgs:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn limit_as_default_check() {
        let spec = "limit ecmp := 128\ncheck ecmp";
        let report =
            run_check(spec, &db(), Granularity::Device, &pair_with_fanout(100)).expect("compiles");
        assert!(report.is_compliant());
    }
}
