//! Seed-deterministic fault injection for I/O and lifecycle points.
//!
//! Resilience tests need to drive the *real* code paths — the framers,
//! the spool writers, the verdict-store persist — under the failures
//! operators actually see: short reads, `EINTR`, `ENOSPC`, torn
//! renames, injected latency, and crashes mid-persist. A [`FaultPlan`]
//! describes those failures as a compact spec string, derives every
//! probabilistic decision from one seed (so a failing run replays
//! byte-identically), and is consulted by thin wrappers
//! ([`FaultyRead`], [`FaultyWrite`]) and named lifecycle points
//! ([`FaultPlan::at`]) threaded through the production code. A component
//! that was handed no plan injects nothing.
//!
//! # Spec grammar
//!
//! Comma-separated `key=value` entries:
//!
//! | key | value | effect |
//! |-----|-------|--------|
//! | `seed` | integer | RNG seed (default 1) |
//! | `short-read` | probability 0..1 | a read is truncated to a random prefix |
//! | `eintr` | probability 0..1 | a read/write fails with `ErrorKind::Interrupted` |
//! | `latency-ms` | integer | every read sleeps this long first |
//! | `enospc-after` | bytes | writes fail with an injected `ENOSPC` once this many bytes were accepted |
//! | `pause` | `point:ms[@n]` | sleep `ms` at lifecycle `point`, from its `n`-th occurrence on (default 1) |
//! | `panic` | `point[@n]` | panic at `point` on exactly its `n`-th occurrence (default 1) |
//! | `tear` | `point[@n]` | report "tear" at `point` on exactly its `n`-th occurrence |
//!
//! Example — let the first persist through, then stall the second one
//! mid-window (the kill-9 harness kills the process there):
//!
//! ```text
//! seed=7,pause=persist:400@2
//! ```
//!
//! A plan is a value: whoever should inject faults is handed one
//! (`CheckSession::set_faults`, `VerdictStore::set_faults`, or a
//! [`FaultyRead`]/[`FaultyWrite`] around one stream), so two sessions in
//! one process never fire each other's faults. `rela serve` parses
//! `RELA_FAULTS` once at startup ([`FaultPlan::from_env`]) and hands the
//! plan to its session and store.

use rela_automata::FixedMap;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Environment variable consulted by [`FaultPlan::from_env`].
pub const ENV_VAR: &str = "RELA_FAULTS";

/// splitmix64: tiny, seed-deterministic, and good enough for fault
/// scheduling (no statistical claims needed).
#[derive(Debug, Clone, Copy)]
struct FaultRng(u64);

impl FaultRng {
    fn new(seed: u64) -> Self {
        FaultRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One biased coin flip with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }

    /// Uniform draw in `1..=max` (`max >= 1`).
    fn len_in(&mut self, max: usize) -> usize {
        1 + (self.next_u64() as usize) % max
    }
}

/// What to do at one named lifecycle point.
#[derive(Debug, Clone, Default)]
struct PointRule {
    /// Sleep this long from occurrence `.1` (1-based) onward.
    pause: Option<(Duration, u64)>,
    /// Panic on exactly this occurrence (1-based).
    panic_on: Option<u64>,
    /// Report a torn write on exactly this occurrence (1-based).
    tear_on: Option<u64>,
}

/// The immutable fault schedule parsed from a spec string.
#[derive(Debug, Clone, Default)]
struct Spec {
    seed: u64,
    short_read: f64,
    eintr: f64,
    latency: Option<Duration>,
    enospc_after: Option<u64>,
    points: FixedMap<String, PointRule>,
}

/// Mutable per-plan state: the RNG stream, the write budget, and the
/// per-point occurrence counters.
#[derive(Debug)]
struct State {
    rng: FaultRng,
    written: u64,
    seen: FixedMap<String, u64>,
}

/// A seed-deterministic fault schedule. Cloning is cheap (an [`Arc`]
/// handle); clones share one RNG stream and one set of occurrence
/// counters, so a plan handed to a session and its store and consulted
/// from many threads stays internally consistent.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    spec: Spec,
    state: Mutex<State>,
}

/// A malformed fault spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

fn lock_state(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    // a panic injected *by* this module must not poison its own
    // bookkeeping for the jobs that follow
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FaultPlan {
    /// Parse a plan from the spec grammar described at module level.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut parsed = Spec {
            seed: 1,
            ..Spec::default()
        };
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("`{entry}` is not key=value")))?;
            let bad = |what: &str| FaultSpecError(format!("`{value}` is not a valid {what}"));
            match key {
                "seed" => parsed.seed = value.parse().map_err(|_| bad("seed"))?,
                "short-read" => parsed.short_read = parse_probability(value)?,
                "eintr" => parsed.eintr = parse_probability(value)?,
                "latency-ms" => {
                    parsed.latency = Some(Duration::from_millis(
                        value.parse().map_err(|_| bad("latency"))?,
                    ));
                }
                "enospc-after" => {
                    parsed.enospc_after = Some(value.parse().map_err(|_| bad("byte budget"))?);
                }
                "pause" => {
                    let (point, rest) = value
                        .split_once(':')
                        .ok_or_else(|| bad("pause (want point:ms[@n])"))?;
                    let (ms, occ) = split_occurrence(rest)?;
                    let ms: u64 = ms.parse().map_err(|_| bad("pause (want point:ms[@n])"))?;
                    parsed.points.entry(point.to_owned()).or_default().pause =
                        Some((Duration::from_millis(ms), occ));
                }
                "panic" => {
                    let (point, occ) = split_occurrence(value)?;
                    parsed.points.entry(point.to_owned()).or_default().panic_on = Some(occ);
                }
                "tear" => {
                    let (point, occ) = split_occurrence(value)?;
                    parsed.points.entry(point.to_owned()).or_default().tear_on = Some(occ);
                }
                other => return Err(FaultSpecError(format!("unknown key `{other}`"))),
            }
        }
        Ok(FaultPlan {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    rng: FaultRng::new(parsed.seed),
                    written: 0,
                    seen: FixedMap::default(),
                }),
                spec: parsed,
            }),
        })
    }

    /// Parse the plan [`ENV_VAR`] holds: `Ok(None)` when the variable is
    /// unset or empty, the parse error otherwise (callers decide whether
    /// a bad spec is fatal — the daemon treats it as a startup error
    /// rather than silently running un-faulted).
    pub fn from_env() -> Result<Option<FaultPlan>, FaultSpecError> {
        match std::env::var(ENV_VAR) {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Consult the plan at a named lifecycle point. Increments the
    /// point's occurrence counter and returns the action scheduled for
    /// this occurrence (usually [`FaultAction::NONE`]).
    pub fn at(&self, point: &str) -> FaultAction {
        let Some(rule) = self.shared.spec.points.get(point) else {
            return FaultAction::NONE;
        };
        let occurrence = {
            let mut state = lock_state(&self.shared);
            let n = state.seen.entry(point.to_owned()).or_insert(0);
            *n += 1;
            *n
        };
        FaultAction {
            pause: rule
                .pause
                .and_then(|(d, from)| (occurrence >= from).then_some(d)),
            panic_message: (rule.panic_on == Some(occurrence))
                .then(|| format!("injected fault: panic at `{point}` (occurrence {occurrence})")),
            tear: rule.tear_on == Some(occurrence),
        }
    }

    /// Draw the fate of one read of up to `len` bytes.
    fn read_fate(&self, len: usize) -> ReadFate {
        let spec = &self.shared.spec;
        let mut state = lock_state(&self.shared);
        ReadFate {
            latency: spec.latency,
            eintr: state.rng.chance(spec.eintr),
            take: if len > 1 && state.rng.chance(spec.short_read) {
                Some(state.rng.len_in(len))
            } else {
                None
            },
        }
    }

    /// Draw the fate of one write; `accept_written` charges accepted
    /// bytes against the `enospc-after` budget.
    fn write_fate(&self) -> WriteFate {
        let spec = &self.shared.spec;
        let mut state = lock_state(&self.shared);
        WriteFate {
            // remaining budget: a disk running out of space takes a
            // *partial* write first, then fails the next one
            allow: spec
                .enospc_after
                .map(|limit| limit.saturating_sub(state.written)),
            eintr: state.rng.chance(spec.eintr),
        }
    }

    fn accept_written(&self, n: usize) {
        if self.shared.spec.enospc_after.is_some() {
            lock_state(&self.shared).written += n as u64;
        }
    }
}

fn parse_probability(value: &str) -> Result<f64, FaultSpecError> {
    let p: f64 = value
        .parse()
        .map_err(|_| FaultSpecError(format!("`{value}` is not a probability")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultSpecError(format!(
            "probability `{value}` not in 0..=1"
        )));
    }
    Ok(p)
}

/// Split a `name[@n]` suffix; `n` defaults to 1 and must be >= 1.
fn split_occurrence(value: &str) -> Result<(&str, u64), FaultSpecError> {
    match value.rsplit_once('@') {
        None => Ok((value, 1)),
        Some((name, n)) => {
            let n: u64 = n
                .parse()
                .map_err(|_| FaultSpecError(format!("`{value}` has a bad @occurrence")))?;
            if n == 0 {
                return Err(FaultSpecError("occurrences are 1-based".to_owned()));
            }
            Ok((name, n))
        }
    }
}

struct ReadFate {
    latency: Option<Duration>,
    eintr: bool,
    take: Option<usize>,
}

struct WriteFate {
    /// `Some(n)`: at most `n` more bytes fit (0 = the device is full).
    allow: Option<u64>,
    eintr: bool,
}

/// The action a [`FaultPlan`] scheduled for one occurrence of a
/// lifecycle point.
#[derive(Debug, Clone)]
pub struct FaultAction {
    pause: Option<Duration>,
    panic_message: Option<String>,
    tear: bool,
}

impl FaultAction {
    /// The no-op action (what [`FaultPlan::at`] returns for a point the
    /// plan has no rule for).
    pub const NONE: FaultAction = FaultAction {
        pause: None,
        panic_message: None,
        tear: false,
    };

    /// Apply the pause and panic parts of the action: sleep if a pause
    /// is scheduled, then panic if a panic is scheduled. Call this at
    /// the point itself; query [`FaultAction::tear`] separately for
    /// write-tearing decisions.
    pub fn fire(&self) {
        if let Some(d) = self.pause {
            std::thread::sleep(d);
        }
        if let Some(message) = &self.panic_message {
            panic!("{message}");
        }
    }

    /// True when this occurrence should tear (truncate) its write.
    pub fn tear(&self) -> bool {
        self.tear
    }
}

/// A [`Read`] adapter that injects the plan's read faults — latency,
/// `EINTR`, short reads — in front of the wrapped reader. Injected
/// errors never consume input, so a retrying caller eventually reads
/// exactly the bytes the inner reader holds.
#[derive(Debug)]
pub struct FaultyRead<R> {
    inner: R,
    plan: FaultPlan,
}

impl<R: Read> FaultyRead<R> {
    /// Wrap `inner` with the faults scheduled by `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultyRead { inner, plan }
    }

    /// Unwrap back to the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        let fate = self.plan.read_fate(buf.len());
        if let Some(d) = fate.latency {
            std::thread::sleep(d);
        }
        if fate.eintr {
            return Err(io::Error::from(io::ErrorKind::Interrupted));
        }
        let take = fate.take.map_or(buf.len(), |n| n.min(buf.len()));
        self.inner.read(&mut buf[..take])
    }
}

/// A [`Write`] adapter that injects the plan's write faults — `EINTR`
/// and an injected `ENOSPC` once the byte budget is spent. Only bytes
/// the inner writer accepted count against the budget.
#[derive(Debug)]
pub struct FaultyWrite<W> {
    inner: W,
    plan: FaultPlan,
}

impl<W: Write> FaultyWrite<W> {
    /// Wrap `inner` with the faults scheduled by `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        FaultyWrite { inner, plan }
    }

    /// Unwrap back to the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        let fate = self.plan.write_fate();
        if fate.allow == Some(0) {
            return Err(io::Error::other("No space left on device (injected)"));
        }
        if fate.eintr {
            return Err(io::Error::from(io::ErrorKind::Interrupted));
        }
        let take = match fate.allow {
            Some(allow) => buf.len().min(allow as usize),
            None => buf.len(),
        };
        let n = self.inner.write(&buf[..take])?;
        self.plan.accept_written(n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_with_retries(mut r: impl Read) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 7];
        loop {
            match r.read(&mut buf) {
                Ok(0) => return out,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
    }

    #[test]
    fn faulty_reads_preserve_the_byte_stream() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let plan = FaultPlan::parse("seed=7,short-read=0.5,eintr=0.3").unwrap();
        let got = drain_with_retries(FaultyRead::new(&data[..], plan));
        assert_eq!(got, data);
    }

    #[test]
    fn the_same_seed_replays_the_same_fault_schedule() {
        let observe = |seed: u64| -> Vec<usize> {
            let data = vec![0u8; 1024];
            let plan = FaultPlan::parse(&format!("seed={seed},short-read=0.5,eintr=0.2")).unwrap();
            let mut r = FaultyRead::new(&data[..], plan);
            let mut buf = [0u8; 64];
            let mut sizes = Vec::new();
            loop {
                match r.read(&mut buf) {
                    Ok(0) => return sizes,
                    Ok(n) => sizes.push(n),
                    Err(_) => sizes.push(usize::MAX), // mark the EINTRs too
                }
            }
        };
        assert_eq!(observe(9), observe(9));
        assert_ne!(observe(9), observe(10));
    }

    #[test]
    fn enospc_fires_once_the_budget_is_spent() {
        let plan = FaultPlan::parse("enospc-after=10").unwrap();
        let mut sink = Vec::new();
        let mut w = FaultyWrite::new(&mut sink, plan);
        w.write_all(&[1u8; 10]).unwrap();
        let err = w.write_all(&[2u8; 1]).unwrap_err();
        assert!(err.to_string().contains("No space left"), "{err}");
        assert_eq!(sink.len(), 10);
    }

    #[test]
    fn point_rules_fire_on_their_scheduled_occurrence() {
        let plan = FaultPlan::parse("tear=persist@2,panic=decide@2").unwrap();
        assert!(!plan.at("persist").tear());
        assert!(plan.at("persist").tear());
        assert!(!plan.at("persist").tear());
        assert!(plan.at("other").panic_message.is_none());
        plan.at("decide").fire(); // occurrence 1: no-op
        let second = plan.at("decide");
        assert!(second.panic_message.is_some());
        let result = std::panic::catch_unwind(|| second.fire());
        assert!(result.is_err());
        plan.at("decide").fire(); // occurrence 3: no-op again
    }

    #[test]
    fn pause_rules_apply_from_their_occurrence_onward() {
        let plan = FaultPlan::parse("pause=persist:0@2").unwrap();
        assert!(plan.at("persist").pause.is_none());
        assert!(plan.at("persist").pause.is_some());
        assert!(plan.at("persist").pause.is_some());
    }

    #[test]
    fn bad_specs_are_rejected_with_a_reason() {
        for bad in [
            "nonsense",
            "seed=abc",
            "short-read=1.5",
            "pause=persist",
            "panic=decide@0",
            "unknown-key=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn an_empty_spec_is_a_valid_no_op_plan() {
        let plan = FaultPlan::parse("seed=3").unwrap();
        let data = b"hello".to_vec();
        let got = drain_with_retries(FaultyRead::new(&data[..], plan));
        assert_eq!(got, data);
    }
}
