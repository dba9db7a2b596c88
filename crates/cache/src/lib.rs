//! # rela-cache
//!
//! A persistent, cross-run verdict store for incremental re-checking.
//!
//! The paper's operational workflow (§8.1) validates four near-identical
//! iterations of one WAN change; between iterations the overwhelming
//! majority of `(pre, post)` behavior classes are unchanged, so their
//! relational obligations need not be re-decided. This crate persists
//! the checker's `BehaviorHash → verdict` memo across process exits:
//! iteration N+1 re-decides only the classes whose fingerprints moved —
//! the network analogue of proof reuse across related executions in
//! relational program/DNN verification.
//!
//! ## Store layout
//!
//! A cache directory holds one JSON file per **epoch**:
//!
//! ```text
//! <cache-dir>/verdicts-<epoch>.json
//! {
//!   "schema": "rela-cache/v1",
//!   "epoch": "<32 hex digits>",
//!   "entries": { "<pre>:<post>:<granularity>:<route>:<variant>": { ...payload... } }
//! }
//! ```
//!
//! The epoch is a content hash of the spec AST and the engine version
//! ([`CacheEpoch::derive`]): editing the spec — or upgrading to a
//! checker whose decisions could differ — lands in a different file, so
//! every lookup is a clean miss and stale verdicts can never leak. Keys
//! bind a pair of pre/post hashes, the compile granularity, the pspec
//! route that selected the check, and a variant that says which of the
//! checker's two key families the hashes belong to: **behavior** keys
//! carry a class's behavior fingerprints, mirroring exactly the
//! identity the in-run dedup engine groups classes by, and **byte** keys
//! (salted with [`BYTE_VARIANT_SALT`]) carry the content hashes of the
//! raw graph spans of the member that founded the class, so a
//! byte-identical snapshot replays before any graph is decoded.
//!
//! Robustness contract: a missing, truncated, corrupt, or
//! wrong-schema/wrong-epoch store file is **treated as cold**, never an
//! error — the cache is an accelerator, not a dependency. Writes go
//! through a temp file + atomic rename so a crashed run cannot corrupt
//! an existing store.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rela_net::{content_hash128, BehaviorHash, FixedMap, FixedState, Granularity};
use serde::Value;
use std::fmt;
use std::hash::BuildHasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use rela_net::faultio::{FaultAction, FaultPlan, FaultyWrite};

/// The on-disk schema tag; bump when the file layout changes shape.
pub const SCHEMA: &str = "rela-cache/v1";

/// Number of internal map shards. Warm-replay consults run concurrently
/// across checker workers (one lookup + payload clone per class); a
/// single mutex would serialize exactly the pass that sharding the
/// consult is meant to parallelize.
const SHARDS: usize = 16;

/// A cache generation: verdicts recorded under one epoch are only ever
/// replayed under the same epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheEpoch(u128);

impl CacheEpoch {
    /// Derive the epoch for a spec/engine combination. `spec_hash` is a
    /// content hash of everything the compiled program depends on — the
    /// spec AST *and* the location database it resolves against (see
    /// `rela_core::cache_epoch`), so formatting and comments don't
    /// churn the cache but any semantic edit to either does — and
    /// `engine` names the deciding engine and its version: a new
    /// engine must never replay an old engine's verdicts.
    pub fn derive(spec_hash: u128, engine: &str) -> CacheEpoch {
        let mut bytes = Vec::with_capacity(16 + engine.len() + 1);
        bytes.extend_from_slice(&spec_hash.to_le_bytes());
        bytes.push(0xff); // separator: (hash, engine) pairs can't collide
        bytes.extend_from_slice(engine.as_bytes());
        CacheEpoch(content_hash128(&bytes))
    }

    /// Rebuild an epoch from its raw value (tests, tooling).
    pub fn from_u128(raw: u128) -> CacheEpoch {
        CacheEpoch(raw)
    }
}

impl fmt::Display for CacheEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// XOR this into [`CacheKey::variant`] to key an entry by **raw record
/// byte hashes** instead of behavior fingerprints. Byte-keyed entries
/// short-circuit admission before any graph decode (`pre`/`post` carry
/// `content_hash128` of the raw graph spans via
/// `BehaviorHash::from_u128`); the salt keeps the two key families
/// disjoint inside one epoch file even on the astronomically unlikely
/// hash coincidence.
pub const BYTE_VARIANT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The identity of one cached verdict: everything that determines what
/// the checker would decide for a behavior class, minus the spec and
/// engine (which live in the epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Pre-change behavior fingerprint.
    pub pre: BehaviorHash,
    /// Post-change behavior fingerprint.
    pub post: BehaviorHash,
    /// The granularity the program was compiled at (hashing granularity
    /// is already baked into the fingerprints, but rendering and
    /// routing read the compile granularity).
    pub granularity: Granularity,
    /// Index of the pspec route that selected the check (`None` = the
    /// default check).
    pub route: Option<usize>,
    /// The key family: which kind of hashes `pre` and `post` are. The
    /// checker keys a verdict under a fixed behavior variant (its value
    /// is the fingerprint of the witness limits every verdict renders
    /// under, so stores written while those were per-run options stay
    /// warm) and under that variant XOR [`BYTE_VARIANT_SALT`] for raw
    /// graph-span hashes; the two families never share an entry.
    pub variant: u64,
}

impl CacheKey {
    /// The stable string form used as the JSON object key. Granularity
    /// renders through its canonical `Display` so the key format has
    /// exactly one source of truth.
    fn render(&self) -> String {
        let route = match self.route {
            Some(r) => r.to_string(),
            None => "-".to_owned(),
        };
        format!(
            "{}:{}:{}:{}:{:016x}",
            self.pre, self.post, self.granularity, route, self.variant
        )
    }
}

/// Lookup/insert/persist counters, readable after a run (`--cache-stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Fresh verdicts recorded this run.
    pub inserted: usize,
}

/// The persistent verdict store: an in-memory map hydrated from (and
/// flushed back to) one epoch file. Payloads are opaque JSON values —
/// the checker owns their shape, the store owns identity and durability.
pub struct VerdictStore {
    /// `None` for a memory-only store (tests, `--no-cache` probes).
    path: Option<PathBuf>,
    epoch: CacheEpoch,
    /// Sharded by key hash: warm-replay consults from concurrent checker
    /// workers land on different locks.
    entries: Vec<Mutex<FixedMap<String, Value>>>,
    /// How many entries came from disk (for stats/reporting).
    loaded: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    inserted: AtomicUsize,
    /// Set on every `put`, cleared by a successful `persist` — lets a
    /// resident session skip rewriting an unchanged store after every
    /// fully-warm job.
    dirty: AtomicBool,
    /// Monotone persist counter carried in the store file. A recovered
    /// file's generation tells an operator (and the crash-recovery
    /// harness) how many flushes the surviving bytes represent.
    generation: AtomicU64,
    /// Files open-time recovery moved aside instead of deleting:
    /// unparseable (torn) store files and temp files abandoned by dead
    /// writers. Empty on a clean open.
    quarantined: Vec<PathBuf>,
    /// The fault plan the persist path consults; `None` injects nothing.
    faults: Option<FaultPlan>,
}

fn shard_of(key: &str) -> usize {
    FixedState::default().hash_one(key) as usize % SHARDS
}

fn shard_map(entries: FixedMap<String, Value>) -> Vec<Mutex<FixedMap<String, Value>>> {
    let mut shards = vec![FixedMap::default(); SHARDS];
    for (k, v) in entries {
        shards[shard_of(&k)].insert(k, v);
    }
    shards.into_iter().map(Mutex::new).collect()
}

impl VerdictStore {
    /// Open (or cold-start) the store for `epoch` under `dir`. The
    /// directory is created if missing. A store file that exists but
    /// does not parse (torn by a crash mid-write, or plain corrupt) is
    /// **quarantined** — renamed to `<name>.quarantine.<n>`, never
    /// silently deleted — and the store cold-starts; so are temp files
    /// abandoned by writers that are provably dead. Recovered paths are
    /// reported by [`VerdictStore::quarantined`].
    pub fn open(dir: &Path, epoch: CacheEpoch) -> std::io::Result<VerdictStore> {
        std::fs::create_dir_all(dir)?;
        let mut quarantined = sweep_stale_temp_files(dir);
        let path = dir.join(format!("verdicts-{epoch}.json"));
        let parsed = match std::fs::read_to_string(&path) {
            Ok(text) => match parse_store(&text, epoch) {
                Some(parsed) => Some(parsed),
                None => {
                    // the bytes are evidence of what went wrong — move
                    // them aside where an operator can inspect them
                    if let Some(moved) = quarantine(&path) {
                        quarantined.push(moved);
                    }
                    None
                }
            },
            Err(_) => None,
        };
        let (entries, generation) = parsed.unwrap_or_default();
        Ok(VerdictStore {
            path: Some(path),
            epoch,
            loaded: entries.len(),
            entries: shard_map(entries),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            inserted: AtomicUsize::new(0),
            dirty: AtomicBool::new(false),
            generation: AtomicU64::new(generation),
            quarantined,
            faults: None,
        })
    }

    /// [`VerdictStore::open`] plus an open-time garbage-collection sweep
    /// of the directory under `policy` (the opened epoch's file is never
    /// removed). This is what long-lived change pipelines want: every
    /// `rela check --cache-dir` keeps the directory bounded without a
    /// separate maintenance step. GC failures are swallowed — the sweep
    /// is hygiene, never a reason to fail a run.
    pub fn open_with_gc(
        dir: &Path,
        epoch: CacheEpoch,
        policy: &GcPolicy,
    ) -> std::io::Result<VerdictStore> {
        let store = VerdictStore::open(dir, epoch)?;
        let _ = gc(dir, Some(epoch), policy);
        Ok(store)
    }

    /// A store that never touches disk (`persist` is a no-op).
    pub fn in_memory(epoch: CacheEpoch) -> VerdictStore {
        VerdictStore {
            path: None,
            epoch,
            loaded: 0,
            entries: shard_map(FixedMap::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            inserted: AtomicUsize::new(0),
            dirty: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            quarantined: Vec::new(),
            faults: None,
        }
    }

    /// Hand the store the fault plan its persist path consults (`None`
    /// stops injecting). A store never handed one injects nothing.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The epoch this store serves.
    pub fn epoch(&self) -> CacheEpoch {
        self.epoch
    }

    /// The persist generation the store file carries: 0 for a cold
    /// start, incremented by every successful [`VerdictStore::persist`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Files open-time recovery quarantined (torn store files, temp
    /// files from dead writers). Empty on a clean open.
    pub fn quarantined(&self) -> &[PathBuf] {
        &self.quarantined
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// True when no verdicts are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries hydrated from disk at open time.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Look up a verdict payload.
    pub fn get(&self, key: &CacheKey) -> Option<Value> {
        let rendered = key.render();
        let found = self.entries[shard_of(&rendered)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&rendered)
            .cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record a verdict payload (last write wins; callers only ever
    /// write identical payloads for identical keys).
    pub fn put(&self, key: &CacheKey, payload: Value) {
        self.inserted.fetch_add(1, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Release);
        let rendered = key.render();
        self.entries[shard_of(&rendered)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(rendered, payload);
    }

    /// This run's lookup/insert counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
        }
    }

    /// Flush the store to its epoch file: temp file, `fsync`, atomic
    /// rename, directory `fsync`. A crash at any instant leaves either
    /// the previous store file or the new one — never a torn mix — and
    /// the renamed bytes are durable, not just in the page cache. Each
    /// flush increments the file's generation marker. No-op for
    /// in-memory stores.
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut fields: Vec<(String, Value)> = self
            .entries
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        // sorted keys: entry order is stable across shard and map
        // iteration order and across runs (the entries' timings are not)
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        let generation = self.generation.load(Ordering::Acquire) + 1;
        let doc = Value::obj(vec![
            ("schema", Value::Str(SCHEMA.to_owned())),
            ("epoch", Value::Str(self.epoch.to_string())),
            ("generation", Value::UInt(generation)),
            ("entries", Value::Obj(fields)),
        ]);
        // compact, not pretty: the store is machine-read on every warm
        // run, and entry payloads dominate the bytes either way
        let json = serde_json::to_string(&doc)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        // unique temp name per process and call: concurrent persists to
        // a shared cache dir must never interleave writes on one temp
        // file (the rename itself is atomic; last writer wins whole)
        static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let committed = self.write_and_rename(&tmp, path, json.into_bytes());
        if committed.is_err() {
            // an aborted flush (injected or real ENOSPC, rename failure)
            // must not squat in the directory until a sweep notices it
            let _ = std::fs::remove_file(&tmp);
            return committed;
        }
        self.generation.store(generation, Ordering::Release);
        self.dirty.store(false, Ordering::Release);
        Ok(())
    }

    /// The durability core of [`VerdictStore::persist`], with the fault
    /// hooks the crash harness drives: writes go through the plan handed
    /// to [`VerdictStore::set_faults`] (injected `ENOSPC`/`EINTR`), and
    /// the `persist` lifecycle point between the temp-file `fsync` and
    /// the rename can pause (the kill-9 window), tear the temp file (a
    /// simulated partial flush surviving the rename), or panic.
    fn write_and_rename(&self, tmp: &Path, path: &Path, mut bytes: Vec<u8>) -> std::io::Result<()> {
        use std::io::Write;
        bytes.push(b'\n');
        let mut file = std::fs::File::create(tmp)?;
        match &self.faults {
            // `write_all` swallows `Interrupted`, exactly like the
            // production retry contract the plan is testing
            Some(plan) => FaultyWrite::new(&mut file, plan.clone()).write_all(&bytes)?,
            None => file.write_all(&bytes)?,
        }
        file.sync_all()?;
        let act = self
            .faults
            .as_ref()
            .map_or(FaultAction::NONE, |plan| plan.at("persist"));
        if act.tear() {
            file.set_len(bytes.len() as u64 / 2)?;
            file.sync_all()?;
        }
        drop(file);
        act.fire();
        std::fs::rename(tmp, path)?;
        // the rename itself must survive a crash: fsync the directory
        // (best-effort — not every filesystem supports opening a dir)
        if let Some(parent) = path.parent() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// True when a `put` has landed since the last successful
    /// [`VerdictStore::persist`].
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// [`VerdictStore::persist`], skipped entirely when nothing changed
    /// since the last flush. Returns whether a flush happened. This is
    /// the per-job flush a resident session uses: a fully-warm job
    /// inserts nothing, so a daemon replaying the same pair repeatedly
    /// never rewrites the epoch file.
    pub fn persist_if_dirty(&self) -> std::io::Result<bool> {
        if !self.is_dirty() {
            return Ok(false);
        }
        self.persist()?;
        Ok(true)
    }
}

/// Retention policy for [`gc`] and [`VerdictStore::open_with_gc`].
#[derive(Debug, Clone, Copy)]
pub struct GcPolicy {
    /// Beyond the protected (current) epoch, keep at most this many
    /// other epoch files, most recently modified first. `None` keeps
    /// all; `Some(0)` keeps only the current epoch.
    pub keep_epochs: Option<usize>,
    /// Total byte cap across retained epoch files; the oldest are
    /// removed until the directory fits (the current epoch's file is
    /// never removed). `None` = no cap.
    pub max_bytes: Option<u64>,
}

impl Default for GcPolicy {
    /// The open-time sweep default: a handful of sibling epochs survive
    /// (a change pipeline iterating on a few spec versions stays fully
    /// warm), anything older goes, no size cap.
    fn default() -> GcPolicy {
        GcPolicy {
            keep_epochs: Some(8),
            max_bytes: None,
        }
    }
}

/// What a [`gc`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Files removed (epoch files + stale temp files).
    pub removed_files: usize,
    /// Bytes those files held.
    pub removed_bytes: u64,
    /// Epoch files retained.
    pub retained_files: usize,
    /// Bytes the retained files hold.
    pub retained_bytes: u64,
}

/// Temp files from crashed writers are reclaimed once they are clearly
/// abandoned; a live writer renames its temp file within milliseconds.
const STALE_TEMP_AGE: Duration = Duration::from_secs(3600);

fn is_temp_file(name: &str) -> bool {
    name.starts_with("verdicts-") && name.contains(".tmp.")
}

fn is_stale_temp(path: &Path, meta: &std::fs::Metadata) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    is_temp_file(name)
        && meta
            .modified()
            .ok()
            .and_then(|m| SystemTime::now().duration_since(m).ok())
            .is_some_and(|age| age > STALE_TEMP_AGE)
}

/// The writer pid embedded in a temp file name
/// (`verdicts-<epoch>.tmp.<pid>.<seq>`).
fn temp_writer_pid(name: &str) -> Option<u32> {
    let (_, rest) = name.split_once(".tmp.")?;
    rest.split('.').next()?.parse().ok()
}

/// True when the temp file's writer is provably gone — its pid no
/// longer exists — so the file is a torn flush, not work in progress.
/// Only Linux can prove it (via `/proc`); elsewhere age decides.
fn temp_writer_dead(name: &str) -> bool {
    #[cfg(target_os = "linux")]
    {
        temp_writer_pid(name).is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = name;
        false
    }
}

/// Move `path` aside to `<name>.quarantine.<n>` (first free `n`).
/// Returns the quarantine path, or `None` when the rename failed — the
/// caller treats that as "leave the corpse where it is".
fn quarantine(path: &Path) -> Option<PathBuf> {
    let name = path.file_name()?.to_str()?;
    for n in 0..1000 {
        let target = path.with_file_name(format!("{name}.quarantine.{n}"));
        if target.exists() {
            continue;
        }
        if std::fs::rename(path, &target).is_ok() {
            return Some(target);
        }
    }
    None
}

/// Open-time hygiene for abandoned temp files: a temp whose writer is
/// provably dead is **quarantined** (it is the torn remains of a crash
/// — evidence, not garbage); a temp merely old enough that its writer
/// cannot still be mid-rename is removed. Returns the quarantined
/// paths.
fn sweep_stale_temp_files(dir: &Path) -> Vec<PathBuf> {
    let mut quarantined = Vec::new();
    let Ok(read) = std::fs::read_dir(dir) else {
        return quarantined;
    };
    for entry in read.flatten() {
        let path = entry.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if is_temp_file(name) && temp_writer_dead(name) {
            if let Some(moved) = quarantine(&path) {
                quarantined.push(moved);
            }
        } else if let Ok(meta) = entry.metadata() {
            if is_stale_temp(&path, &meta) {
                std::fs::remove_file(&path).ok();
            }
        }
    }
    quarantined
}

/// Garbage-collect a cache directory (`rela cache gc`, and the
/// open-time sweep behind [`VerdictStore::open_with_gc`]).
///
/// Removes, in order:
/// 1. stale temp files abandoned by crashed writers;
/// 2. epoch files beyond `policy.keep_epochs`, most recently modified
///    first — superseded spec versions age out of a long-lived change
///    pipeline's directory;
/// 3. the oldest remaining epoch files until the directory fits
///    `policy.max_bytes`.
///
/// The `current` epoch's file (when given) is always retained — GC must
/// never make the very store a run is using go cold.
pub fn gc(dir: &Path, current: Option<CacheEpoch>, policy: &GcPolicy) -> std::io::Result<GcStats> {
    let mut stats = GcStats::default();
    let current_name = current.map(|e| format!("verdicts-{e}.json"));
    // (mtime, size, path) of every non-current epoch file
    let mut others: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if is_stale_temp(&path, &meta) {
            stats.removed_files += 1;
            stats.removed_bytes += meta.len();
            std::fs::remove_file(&path).ok();
            continue;
        }
        if !name.starts_with("verdicts-") || !name.ends_with(".json") {
            continue;
        }
        if current_name.as_deref() == Some(name) {
            stats.retained_files += 1;
            stats.retained_bytes += meta.len();
            continue;
        }
        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
        others.push((mtime, meta.len(), path));
    }
    // newest first; the tail beyond keep_epochs goes
    others.sort_by_key(|(mtime, _, _)| std::cmp::Reverse(*mtime));
    let keep = policy.keep_epochs.unwrap_or(usize::MAX).min(others.len());
    for (_, size, path) in others.drain(keep..) {
        stats.removed_files += 1;
        stats.removed_bytes += size;
        std::fs::remove_file(&path).ok();
    }
    // size cap: drop the oldest retained non-current files until we fit
    if let Some(cap) = policy.max_bytes {
        let mut total: u64 = stats.retained_bytes + others.iter().map(|(_, s, _)| s).sum::<u64>();
        while total > cap {
            let Some((_, size, path)) = others.pop() else {
                break; // only the current epoch remains
            };
            stats.removed_files += 1;
            stats.removed_bytes += size;
            total -= size;
            std::fs::remove_file(&path).ok();
        }
    }
    stats.retained_files += others.len();
    stats.retained_bytes += others.iter().map(|(_, s, _)| s).sum::<u64>();
    Ok(stats)
}

/// Parse a store file's text into its entries and generation marker;
/// `None` on any malformation (wrong JSON, schema, or epoch) so the
/// caller quarantines and cold-starts. Files written before the
/// generation marker existed parse as generation 0.
fn parse_store(text: &str, epoch: CacheEpoch) -> Option<(FixedMap<String, Value>, u64)> {
    let value: Value = serde_json::from_str(text).ok()?;
    if value.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return None;
    }
    if value.get("epoch").and_then(Value::as_str) != Some(epoch.to_string().as_str()) {
        return None;
    }
    let generation = value.get("generation").and_then(Value::as_u64).unwrap_or(0);
    let fields = value.get("entries")?.as_obj()?;
    Some((
        fields.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        generation,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(pre: u128, post: u128, route: Option<usize>) -> CacheKey {
        CacheKey {
            pre: BehaviorHash::from_u128(pre),
            post: BehaviorHash::from_u128(post),
            granularity: Granularity::Group,
            route,
            variant: 0,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rela-cache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrips_across_open() {
        let dir = tmpdir("roundtrip");
        let epoch = CacheEpoch::derive(42, "engine/v1");
        let store = VerdictStore::open(&dir, epoch).unwrap();
        assert!(store.is_empty());
        store.put(&key(1, 2, None), Value::Str("verdict".into()));
        store.put(&key(1, 2, Some(3)), Value::Int(7));
        store.persist().unwrap();

        let reopened = VerdictStore::open(&dir, epoch).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.loaded(), 2);
        assert_eq!(
            reopened.get(&key(1, 2, None)),
            Some(Value::Str("verdict".into()))
        );
        assert_eq!(reopened.get(&key(1, 2, Some(3))), Some(Value::Int(7)));
        assert_eq!(reopened.get(&key(9, 9, None)), None);
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserted), (2, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_change_is_a_full_miss() {
        let dir = tmpdir("epoch");
        let e1 = CacheEpoch::derive(content_hash128(b"spec v1"), "engine/v1");
        let store = VerdictStore::open(&dir, e1).unwrap();
        store.put(&key(1, 2, None), Value::Bool(true));
        store.persist().unwrap();

        // a spec edit derives a different epoch → nothing is replayed
        let e2 = CacheEpoch::derive(content_hash128(b"spec v2"), "engine/v1");
        assert_ne!(e1, e2);
        let cold = VerdictStore::open(&dir, e2).unwrap();
        assert!(cold.is_empty());

        // ...and so does an engine upgrade at the same spec
        let e3 = CacheEpoch::derive(content_hash128(b"spec v1"), "engine/v2");
        assert_ne!(e1, e3);
        assert!(VerdictStore::open(&dir, e3).unwrap().is_empty());

        // the original epoch still hits
        let warm = VerdictStore::open(&dir, e1).unwrap();
        assert_eq!(warm.get(&key(1, 2, None)), Some(Value::Bool(true)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_truncated_files_cold_start() {
        let dir = tmpdir("corrupt");
        let epoch = CacheEpoch::derive(7, "engine/v1");
        let store = VerdictStore::open(&dir, epoch).unwrap();
        store.put(&key(1, 2, None), Value::Bool(true));
        store.persist().unwrap();
        let path = dir.join(format!("verdicts-{epoch}.json"));

        // truncate mid-document
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(VerdictStore::open(&dir, epoch).unwrap().is_empty());

        // outright garbage
        std::fs::write(&path, "not json at all {{{").unwrap();
        assert!(VerdictStore::open(&dir, epoch).unwrap().is_empty());

        // valid JSON, wrong schema tag
        std::fs::write(&path, r#"{"schema":"other/v9","epoch":"0","entries":{}}"#).unwrap();
        assert!(VerdictStore::open(&dir, epoch).unwrap().is_empty());

        // valid JSON, wrong recorded epoch (e.g. a renamed file)
        std::fs::write(
            &path,
            format!(
                r#"{{"schema":"{SCHEMA}","epoch":"{:032x}","entries":{{"k":1}}}}"#,
                99
            ),
        )
        .unwrap();
        assert!(VerdictStore::open(&dir, epoch).unwrap().is_empty());

        // a cold-started store can still persist over the corpse
        let recovered = VerdictStore::open(&dir, epoch).unwrap();
        recovered.put(&key(3, 4, None), Value::Int(1));
        recovered.persist().unwrap();
        assert_eq!(VerdictStore::open(&dir, epoch).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persisted_bytes_are_deterministic() {
        // identical entries at the same generation must produce
        // identical bytes, regardless of insertion order (the
        // generation marker is the only legitimate byte difference
        // between flushes)
        let dir_a = tmpdir("determinism-a");
        let dir_b = tmpdir("determinism-b");
        let epoch = CacheEpoch::derive(5, "e");
        let a = VerdictStore::open(&dir_a, epoch).unwrap();
        a.put(&key(1, 1, None), Value::Int(1));
        a.put(&key(2, 2, None), Value::Int(2));
        a.persist().unwrap();
        let b = VerdictStore::open(&dir_b, epoch).unwrap();
        b.put(&key(2, 2, None), Value::Int(2));
        b.put(&key(1, 1, None), Value::Int(1));
        b.persist().unwrap();
        let name = format!("verdicts-{epoch}.json");
        assert_eq!(
            std::fs::read_to_string(dir_a.join(&name)).unwrap(),
            std::fs::read_to_string(dir_b.join(&name)).unwrap()
        );
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    /// Populate one epoch file in `dir` and return its path.
    fn write_epoch(dir: &Path, tag: u128, entries: usize) -> PathBuf {
        let epoch = CacheEpoch::derive(tag, "engine/v1");
        let store = VerdictStore::open(dir, epoch).unwrap();
        for i in 0..entries {
            store.put(&key(i as u128, 1, None), Value::Int(i as i64));
        }
        store.persist().unwrap();
        dir.join(format!("verdicts-{epoch}.json"))
    }

    #[test]
    fn gc_prunes_superseded_epochs_but_never_the_current_one() {
        let dir = tmpdir("gc-epochs");
        let current = CacheEpoch::derive(0, "engine/v1");
        let current_path = write_epoch(&dir, 0, 4);
        let old_paths: Vec<PathBuf> = (1..=3).map(|t| write_epoch(&dir, t, 2)).collect();

        // keep_epochs = 0: only the current epoch survives
        let stats = gc(
            &dir,
            Some(current),
            &GcPolicy {
                keep_epochs: Some(0),
                max_bytes: None,
            },
        )
        .unwrap();
        assert_eq!(stats.removed_files, 3, "{stats:?}");
        assert_eq!(stats.retained_files, 1);
        assert!(current_path.exists());
        for p in &old_paths {
            assert!(!p.exists(), "{} survived", p.display());
        }
        // the surviving store still replays
        let store = VerdictStore::open(&dir, current).unwrap();
        assert_eq!(store.loaded(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_size_cap_drops_oldest_first() {
        let dir = tmpdir("gc-cap");
        let current = CacheEpoch::derive(0, "engine/v1");
        write_epoch(&dir, 0, 2);
        let oldest = write_epoch(&dir, 1, 50);
        // ensure distinct mtimes (coarse clocks)
        std::thread::sleep(std::time::Duration::from_millis(20));
        let newest = write_epoch(&dir, 2, 2);

        let cap = std::fs::metadata(dir.join(format!("verdicts-{current}.json")))
            .unwrap()
            .len()
            + std::fs::metadata(&newest).unwrap().len();
        let stats = gc(
            &dir,
            Some(current),
            &GcPolicy {
                keep_epochs: None,
                max_bytes: Some(cap),
            },
        )
        .unwrap();
        assert!(!oldest.exists(), "size cap must evict the oldest file");
        assert!(newest.exists());
        assert!(stats.retained_bytes <= cap, "{stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_size_cap_exact_limit_removes_nothing() {
        let dir = tmpdir("gc-cap-exact");
        let current = CacheEpoch::derive(0, "engine/v1");
        let current_path = write_epoch(&dir, 0, 3);
        let sibling = write_epoch(&dir, 1, 5);
        // a store already exactly at the cap is within budget: `total >
        // cap` is strict, so the boundary byte evicts nothing
        let cap = std::fs::metadata(&current_path).unwrap().len()
            + std::fs::metadata(&sibling).unwrap().len();
        let stats = gc(
            &dir,
            Some(current),
            &GcPolicy {
                keep_epochs: None,
                max_bytes: Some(cap),
            },
        )
        .unwrap();
        assert_eq!(stats.removed_files, 0, "{stats:?}");
        assert_eq!(stats.retained_files, 2);
        assert_eq!(stats.retained_bytes, cap);
        assert!(current_path.exists() && sibling.exists());
        // one byte less and the sibling must go
        let stats = gc(
            &dir,
            Some(current),
            &GcPolicy {
                keep_epochs: None,
                max_bytes: Some(cap - 1),
            },
        )
        .unwrap();
        assert_eq!(stats.removed_files, 1, "{stats:?}");
        assert!(current_path.exists());
        assert!(!sibling.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_size_cap_never_evicts_the_current_epoch_even_over_budget() {
        let dir = tmpdir("gc-cap-over");
        let current = CacheEpoch::derive(0, "engine/v1");
        let current_path = write_epoch(&dir, 0, 40);
        let sibling = write_epoch(&dir, 1, 40);
        // a cap below even the current epoch's own size: the sibling is
        // evicted, but the store a run is using must never go cold —
        // the directory is left over budget rather than emptied
        let stats = gc(
            &dir,
            Some(current),
            &GcPolicy {
                keep_epochs: None,
                max_bytes: Some(1),
            },
        )
        .unwrap();
        assert_eq!(stats.removed_files, 1, "{stats:?}");
        assert!(!sibling.exists());
        assert!(current_path.exists(), "current epoch must survive");
        assert!(
            stats.retained_bytes > 1,
            "the current epoch legitimately exceeds the cap: {stats:?}"
        );
        // and it still replays
        let store = VerdictStore::open(&dir, current).unwrap();
        assert_eq!(store.loaded(), 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_size_cap_zero_budget_keeps_only_the_current_epoch() {
        let dir = tmpdir("gc-cap-zero");
        let current = CacheEpoch::derive(0, "engine/v1");
        let current_path = write_epoch(&dir, 0, 2);
        let siblings: Vec<PathBuf> = (1..=3).map(|t| write_epoch(&dir, t, 2)).collect();
        let stats = gc(
            &dir,
            Some(current),
            &GcPolicy {
                keep_epochs: None,
                max_bytes: Some(0),
            },
        )
        .unwrap();
        assert_eq!(stats.removed_files, 3, "{stats:?}");
        assert_eq!(stats.retained_files, 1);
        for p in &siblings {
            assert!(!p.exists(), "{} survived a zero budget", p.display());
        }
        assert!(current_path.exists());
        // with no current epoch, a zero budget empties the directory
        let orphan = write_epoch(&dir, 9, 2);
        let stats = gc(
            &dir,
            None,
            &GcPolicy {
                keep_epochs: None,
                max_bytes: Some(0),
            },
        )
        .unwrap();
        assert!(!orphan.exists());
        assert!(
            !current_path.exists(),
            "no current epoch: nothing is pinned"
        );
        assert_eq!(stats.retained_files, 0, "{stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_with_gc_sweeps_and_still_replays() {
        let dir = tmpdir("gc-open");
        let current = CacheEpoch::derive(0, "engine/v1");
        write_epoch(&dir, 0, 3);
        for t in 1..=12 {
            write_epoch(&dir, t, 1);
        }
        // a fresh temp file from a live writer must survive; gc only
        // reclaims abandoned ones
        let fresh_tmp = dir.join(format!("verdicts-x.json.tmp.{}.0", std::process::id()));
        std::fs::write(&fresh_tmp, "{}").unwrap();

        let store = VerdictStore::open_with_gc(&dir, current, &GcPolicy::default()).unwrap();
        assert_eq!(store.loaded(), 3, "sweep must not touch the opened epoch");
        let epoch_files = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("verdicts-") && name.ends_with(".json")
            })
            .count();
        assert_eq!(epoch_files, 9, "current + 8 most recent siblings");
        assert!(fresh_tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_gets_hit_distinct_shards() {
        // smoke the sharded map under concurrent readers/writers
        let store = std::sync::Arc::new(VerdictStore::in_memory(CacheEpoch::derive(9, "e")));
        for i in 0..256u128 {
            store.put(&key(i, i, None), Value::Int(i as i64));
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..256u128 {
                        assert_eq!(
                            store.get(&key(i, i, None)),
                            Some(Value::Int(i as i64)),
                            "thread {t}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.stats().hits, 256 * 4);
        assert_eq!(store.len(), 256);
    }

    #[test]
    fn keys_disambiguate_route_granularity_and_variant() {
        let epoch = CacheEpoch::derive(1, "e");
        let store = VerdictStore::in_memory(epoch);
        store.put(&key(1, 2, None), Value::Int(0));
        store.put(&key(1, 2, Some(0)), Value::Int(1));
        let mut iface = key(1, 2, None);
        iface.granularity = Granularity::Interface;
        store.put(&iface, Value::Int(2));
        // same class, different verdict-shaping options → separate entry
        let mut wide = key(1, 2, None);
        wide.variant = 7;
        store.put(&wide, Value::Int(3));
        assert_eq!(store.len(), 4);
        assert_eq!(store.get(&key(1, 2, None)), Some(Value::Int(0)));
        assert_eq!(store.get(&key(1, 2, Some(0))), Some(Value::Int(1)));
        assert_eq!(store.get(&iface), Some(Value::Int(2)));
        assert_eq!(store.get(&wide), Some(Value::Int(3)));
        // in-memory stores never persist
        assert!(store.persist().is_ok());
    }
}
