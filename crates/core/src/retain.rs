//! What a retaining session keeps of a checked snapshot pair, and how a
//! delta job replays it.
//!
//! A base is stored the way the engine produced it — joined: one
//! [`RetainedRow`] per flow, holding the flow key once and what each side
//! carried of it. The rows are captured where every admitted flow passes
//! exactly once with both sides in hand (`Pipeline::admit_spans` in
//! [`crate::check`]), so a delta job re-derives no alignment:
//! [`RetainedBase::replay`] is one walk over the rows. Rows are behind
//! `Arc`s, and a row no delta touches is the *same* row in the next base
//! of the chain.
//!
//! The rows are grouped by the behavior class each belonged to in the
//! run that retained the base. The grouping is read off that run's class
//! list when the base is built — nothing is hashed — and it is what lets
//! a delta job admit a class's untouched rows whole: its first row is
//! admitted like any joined flow, and the others join the class it lands
//! in without a lookup. That is sound within the session that retained
//! the base, because class membership is a function of a row's graph
//! bytes, of its route (which a class's members share), and of the
//! session's program, database and granularity. Without dedup every
//! class, and so every group, is one row. Beyond the grouping, row order
//! carries no meaning: the epoch fold is an XOR and the finisher sorts
//! results by flow.
//!
//! The layout of a base is this module's alone: the row type, the
//! builder that groups the rows and folds the epoch, the
//! [`RetentionSet`] and the replay.

use crate::check::PreparedItem;
use crate::pipeline::{JoinedSide, Side};
use rela_automata::FixedSet;
use rela_net::{pair_epoch, side_fold, FlowSpec, SnapshotDelta, SnapshotEpoch, SnapshotError};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// One flow of a checked pair: the flow key, and per side `[pre, post]`
/// what its snapshot carried of the flow — `None` where it carried
/// nothing (a decommissioned prefix has no post side, a new announcement
/// no pre side).
pub(crate) struct RetainedRow {
    pub(crate) flow: FlowSpec,
    pub(crate) sides: [Option<JoinedSide>; 2],
}

/// A flow with both sides in hand, on its way into the class registry:
/// just joined, or a whole row of the base a delta job replays.
// boxing the owned variant would add the allocation per flow it exists
// to avoid
#[allow(clippy::large_enum_variant)]
pub(crate) enum JoinedRow {
    /// Out of the flow join (or its one-sided drain): owned, so a run
    /// that retains nothing allocates nothing for it.
    Fresh(RetainedRow),
    /// Out of a retained base: the next base shares it.
    Shared(Arc<RetainedRow>),
}

impl Deref for JoinedRow {
    type Target = RetainedRow;

    fn deref(&self) -> &RetainedRow {
        match self {
            JoinedRow::Fresh(row) => row,
            JoinedRow::Shared(row) => row,
        }
    }
}

impl JoinedRow {
    /// The row as a base holds it.
    pub(crate) fn into_shared(self) -> Arc<RetainedRow> {
        match self {
            JoinedRow::Fresh(row) => Arc::new(row),
            JoinedRow::Shared(row) => row,
        }
    }
}

/// The snapshot pair retained after a successful pipelined run, kept so
/// a later `--delta-base` submission can replay the unchanged flows
/// without the client resending (or the daemon re-framing) them. The
/// epoch is content-derived ([`rela_net::pair_epoch`] over the per-side
/// folds of the mixes the rows carry), so it identifies the pair bytes
/// themselves, not the job that carried them.
pub(crate) struct RetainedBase {
    epoch: SnapshotEpoch,
    /// One row a flow, class by class: class `c` is
    /// `rows[ends[c - 1]..ends[c]]`.
    pub(crate) rows: Vec<Arc<RetainedRow>>,
    ends: Vec<usize>,
    /// Approximate resident bytes, computed once here: the undecoded
    /// graph spans plus 64 per present side (flow keys and the rest are
    /// noise next to the spans). A row two bases of a chain share is
    /// charged to both — an upper bound, so the byte budget never evicts
    /// later than it would with every base holding its own copy.
    bytes: u64,
}

impl RetainedBase {
    /// The base of a cleanly and completely checked pair: `captured`
    /// yields the row of each of the run's flows in order, and `classes`
    /// lists the run's behavior classes as their members' flow indices —
    /// each flow in exactly one.
    pub(crate) fn new<'m>(
        captured: impl Iterator<Item = Arc<RetainedRow>>,
        classes: impl Iterator<Item = &'m [usize]>,
    ) -> RetainedBase {
        let mut slots: Vec<Option<Arc<RetainedRow>>> = captured.map(Some).collect();
        let mut rows = Vec::with_capacity(slots.len());
        let mut ends = Vec::new();
        for members in classes {
            let class = members.iter().map(|&member| slots[member].take());
            rows.extend(class.map(|row| row.expect("a flow is in one class")));
            ends.push(rows.len());
        }
        debug_assert_eq!(rows.len(), slots.len(), "every flow is in a class");
        let present = |of: Side| {
            rows.iter()
                .filter_map(move |row| row.sides[of as usize].as_ref())
        };
        let fold = |of: Side| side_fold(present(of).map(|side| side.mix));
        RetainedBase {
            epoch: pair_epoch(fold(Side::Pre), fold(Side::Post)),
            bytes: present(Side::Pre)
                .chain(present(Side::Post))
                .map(|side| side.span.len() as u64 + 64)
                .sum(),
            rows,
            ends,
        }
    }

    pub(crate) fn epoch(&self) -> SnapshotEpoch {
        self.epoch
    }

    /// The base's rows, one slice a class.
    fn classes(&self) -> impl Iterator<Item = &[Arc<RetainedRow>]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.rows[start..end])
    }

    /// The item list of a delta job over this base, in one walk over the
    /// rows: the rows of a class neither delta touches replay whole as
    /// one [`PreparedItem::Class`] (and are shared into the base the job
    /// retains), a row one delta touches sends the side it keeps through
    /// the flow join to meet the new partner, a row both touch is
    /// dropped; the deltas' own records follow as framed records. A
    /// removed flow simply does not reappear. `labels` name the `[pre,
    /// post]` documents in errors.
    pub(crate) fn replay(
        &self,
        pre: SnapshotDelta,
        post: SnapshotDelta,
        labels: [&str; 2],
    ) -> Result<Vec<PreparedItem>, SnapshotError> {
        let deltas = [pre, post];
        for (delta, label) in deltas.iter().zip(labels) {
            if delta.base != self.epoch {
                let message = format!(
                    "delta base {} does not match the retained base {}",
                    delta.base, self.epoch
                );
                return Err(SnapshotError::at(message, 0).with_source_label(label));
            }
        }
        let mut upserted: [Vec<FlowSpec>; 2] = [Vec::new(), Vec::new()];
        for ((delta, label), flows) in deltas.iter().zip(labels).zip(&mut upserted) {
            for raw in &delta.records {
                flows.push(raw.decode_flow(Some(label))?.0);
            }
        }
        let touched: [FixedSet<&FlowSpec>; 2] =
            [0, 1].map(|side| deltas[side].removed.iter().chain(&upserted[side]).collect());
        let mut items = Vec::with_capacity(self.ends.len() + upserted[0].len() + upserted[1].len());
        for class in self.classes() {
            let mut untouched = Vec::with_capacity(class.len());
            for row in class {
                let touches = |side: Side| touched[side as usize].contains(&row.flow);
                if !touches(Side::Pre) && !touches(Side::Post) {
                    untouched.push(row.clone());
                    continue;
                }
                for side in [Side::Pre, Side::Post] {
                    if let (false, Some(own)) = (touches(side), &row.sides[side as usize]) {
                        items.push(PreparedItem::Replay {
                            side,
                            flow: row.flow.clone(),
                            own: own.clone(),
                        });
                    }
                }
            }
            if !untouched.is_empty() {
                items.push(PreparedItem::Class(untouched));
            }
        }
        for (side, delta) in [Side::Pre, Side::Post].into_iter().zip(deltas) {
            let records = delta.records.into_iter();
            items.extend(records.map(|raw| PreparedItem::Record { side, raw }));
        }
        Ok(items)
    }
}

/// The session's retained delta bases, newest first: the last K
/// `(pre, post)` pairs a delta job may name, bounded by a count and an
/// optional byte budget (the same shape as the cache directory's
/// [`rela_cache::GcPolicy`] — `keep` mirrors `keep_epochs`, the byte
/// cap mirrors `max_bytes`). An operator iterating on two changes
/// interleaved keeps both bases resident; eviction degrades the evicted
/// epoch to a DELTA_MISS → full resubmit, never an error.
pub(crate) struct RetentionSet {
    entries: VecDeque<Arc<RetainedBase>>,
    keep: usize,
    max_bytes: Option<u64>,
}

impl RetentionSet {
    pub(crate) fn new(keep: usize, max_bytes: Option<u64>) -> RetentionSet {
        RetentionSet {
            entries: VecDeque::new(),
            keep: keep.max(1),
            max_bytes,
        }
    }

    /// Admit a freshly checked base. A pair re-checked while already
    /// retained moves to the front (it is the most recent again) rather
    /// than duplicating; then the set is trimmed to the count and byte
    /// budgets, oldest first — except the newest base, which is always
    /// kept: the pair just checked must be nameable by the very next
    /// delta no matter how small the budget.
    pub(crate) fn push(&mut self, base: Arc<RetainedBase>) {
        self.entries.retain(|b| b.epoch != base.epoch);
        self.entries.push_front(base);
        self.entries.truncate(self.keep);
        if let Some(budget) = self.max_bytes {
            let mut total: u64 = self.entries.iter().map(|b| b.bytes).sum();
            while self.entries.len() > 1 && total > budget {
                if let Some(evicted) = self.entries.pop_back() {
                    total -= evicted.bytes;
                }
            }
        }
    }

    /// The retained base with this pair epoch, if still resident.
    pub(crate) fn find(&self, epoch: SnapshotEpoch) -> Option<Arc<RetainedBase>> {
        self.entries.iter().find(|b| b.epoch == epoch).cloned()
    }

    /// Every retained epoch, newest first.
    pub(crate) fn epochs(&self) -> impl Iterator<Item = SnapshotEpoch> + '_ {
        self.entries.iter().map(|b| b.epoch)
    }

    /// The base a delta job names — `what` says how it named it — or the
    /// message of the error that rejects the job.
    pub(crate) fn resolve(
        &self,
        what: &str,
        epoch: SnapshotEpoch,
    ) -> Result<Arc<RetainedBase>, String> {
        if self.entries.is_empty() {
            return Err("no retained base snapshot: submit a full snapshot pair first".to_owned());
        }
        self.find(epoch).ok_or_else(|| {
            let retained: Vec<String> = self.epochs().map(|e| e.to_string()).collect();
            format!(
                "{what} {epoch} does not match the retained bases ({})",
                retained.join(", ")
            )
        })
    }
}

/// The shared retention set — the session owns it; the checker admits a
/// base after each successful pipelined run.
pub(crate) type RetentionSlot = Mutex<RetentionSet>;
