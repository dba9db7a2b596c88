//! Delta-first snapshot exchange: content-derived snapshot-pair epochs
//! and the changed/added/removed record documents that let the paper's
//! §8.1 iteration loop ship only the change over the wire.
//!
//! The identity machinery is deliberately byte-level, not semantic: a
//! record's **mix** folds its flow key with the content hash of its raw
//! graph span ([`record_mix`]), a side's **fold** XORs the mixes
//! order-independently ([`side_fold`]), and a pair's **epoch** hashes
//! the two folds together ([`pair_epoch`]). Two parties that hold
//! byte-identical snapshot pairs therefore compute the same
//! [`SnapshotEpoch`] without any coordination — which is what lets a
//! `rela serve` daemon validate a client's `--delta-base` claim against
//! the pair it retained, and fall back to a full snapshot when the
//! epochs disagree (`docs/SERVE_PROTOCOL.md`).
//!
//! A delta document itself ([`SnapshotDelta`], one per side) is plain
//! JSON — `{"base": "<epoch>", "removed": [...], "records": [...]}` —
//! whose `records` entries are `{"flow":F,"graph":G}` entries framed
//! into the same [`RawRecord`]s a [`SnapshotFramer`] yields, so applying
//! a delta splices raw spans and reproduces the full snapshot's bytes
//! exactly (`docs/SNAPSHOT_FORMAT.md`).

use crate::behavior::content_hash128;
use crate::fec::FlowSpec;
use crate::snapshot::{RawRecord, SnapshotError, SnapshotFramer};
use rela_automata::{FixedMap, FixedSet};
use serde::{Deserialize, Serialize};
use serde_json::JsonReader;
use std::fmt;
use std::io::{Read, Write};
use std::str::FromStr;

/// A content-derived identity for one snapshot pair: the hash of the
/// pre and post side folds (see the module docs). Printed and parsed as
/// 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotEpoch(u128);

impl SnapshotEpoch {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Rebuild from a raw 128-bit value (e.g. off the wire).
    pub fn from_u128(raw: u128) -> SnapshotEpoch {
        SnapshotEpoch(raw)
    }
}

impl fmt::Display for SnapshotEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for SnapshotEpoch {
    type Err = String;

    fn from_str(s: &str) -> Result<SnapshotEpoch, String> {
        if s.len() != 32 {
            return Err(format!(
                "snapshot epoch must be 32 hex digits, got {} characters",
                s.len()
            ));
        }
        u128::from_str_radix(s, 16)
            .map(SnapshotEpoch)
            .map_err(|_| "snapshot epoch must be 32 hex digits".to_owned())
    }
}

/// The identity mix of one record: its flow key and the content hash of
/// its raw graph span. The flow's display form is UTF-8, where a `0xff`
/// byte cannot appear, so the `0xff` after it ends it unambiguously;
/// the hash bytes (which can hold any value) are fixed-width and last,
/// so they need no terminator and adjacent fields cannot collide.
pub fn record_mix(flow: &FlowSpec, span_hash: u128) -> u128 {
    let flow_text = flow.to_string();
    let mut bytes = Vec::with_capacity(flow_text.len() + 17);
    bytes.extend_from_slice(flow_text.as_bytes());
    bytes.push(0xff);
    bytes.extend_from_slice(&span_hash.to_le_bytes());
    content_hash128(&bytes)
}

/// Order-independent fold of one side's record mixes (XOR — the side's
/// identity must not depend on arrival order, which the pipelined
/// ingest does not preserve). The empty side folds to zero.
pub fn side_fold(mixes: impl IntoIterator<Item = u128>) -> u128 {
    mixes.into_iter().fold(0, |acc, mix| acc ^ mix)
}

/// The epoch of a pair given its two side folds.
pub fn pair_epoch(pre_fold: u128, post_fold: u128) -> SnapshotEpoch {
    let mut bytes = [0u8; 32];
    bytes[..16].copy_from_slice(&pre_fold.to_le_bytes());
    bytes[16..].copy_from_slice(&post_fold.to_le_bytes());
    SnapshotEpoch(content_hash128(&bytes))
}

/// One record of a scanned snapshot side: the flow, its raw graph span
/// (serialized exactly as the writers emit it), and the span's content
/// hash.
pub struct ScannedRecord {
    /// The flow key.
    pub flow: FlowSpec,
    /// The raw graph value span.
    pub graph_span: Vec<u8>,
    /// `content_hash128` of the graph span.
    pub hash: u128,
}

/// One snapshot side scanned into per-record byte identities (the
/// client-side input to [`diff_side`]).
pub struct SideScan {
    /// XOR fold of the side's record mixes.
    pub fold: u128,
    /// Every record, in arrival order.
    pub records: Vec<ScannedRecord>,
}

/// Scan one snapshot side — JSON or binary, the framer sniffs — into
/// per-record byte identities without decoding a single graph. A flow's
/// second record is refused as every loader refuses it, so no scan
/// names a base that a daemon could not retain.
pub fn scan_side<R: Read>(mut framer: SnapshotFramer<R>) -> Result<SideScan, SnapshotError> {
    let label = framer.label().map(str::to_owned);
    let mut fold = 0u128;
    let mut records = Vec::new();
    let mut seen = FixedSet::default();
    for raw in &mut framer {
        let raw = raw?;
        let (flow, graph) = raw.decode_flow(label.as_deref())?;
        if !seen.insert(flow.clone()) {
            let message = format!("duplicate flow {flow}");
            let mut e = SnapshotError::at(message, raw.offset).with_entry(raw.index);
            if let Some(label) = &label {
                e = e.with_source_label(label.as_str());
            }
            return Err(e);
        }
        let hash = content_hash128(&graph);
        fold ^= record_mix(&flow, hash);
        records.push(ScannedRecord {
            flow,
            graph_span: graph.to_vec(),
            hash,
        });
    }
    Ok(SideScan { fold, records })
}

/// The change set of one side: what `new` removed from, changed in, or
/// added to `base`.
pub struct SideDiff {
    /// Flows present in `base` but absent from `new`, in flow order.
    pub removed: Vec<FlowSpec>,
    /// Changed or added records as `(flow span, graph span)` byte
    /// pairs, in `new`'s arrival order.
    pub records: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Diff one scanned side against a base scan, by graph-span content
/// hash: a record counts as unchanged only when its flow's span bytes
/// are identical on both sides.
pub fn diff_side(base: &SideScan, new: &SideScan) -> SideDiff {
    let mut base_hash: FixedMap<&FlowSpec, u128> = base
        .records
        .iter()
        .map(|record| (&record.flow, record.hash))
        .collect();
    let mut records = Vec::new();
    for record in &new.records {
        match base_hash.remove(&record.flow) {
            Some(hash) if hash == record.hash => {}
            _ => {
                let flow_span = serde_json::to_string(&record.flow.to_value())
                    .expect("flow keys serialize")
                    .into_bytes();
                records.push((flow_span, record.graph_span.clone()));
            }
        }
    }
    let mut removed: Vec<FlowSpec> = base_hash.into_keys().cloned().collect();
    removed.sort();
    SideDiff { removed, records }
}

/// Write one side's delta document (`docs/SNAPSHOT_FORMAT.md`): the
/// base pair epoch, the removed flows, and the changed/added records as
/// raw span splices.
pub fn write_delta<W: Write>(
    mut out: W,
    base: SnapshotEpoch,
    removed: &[FlowSpec],
    records: &[(Vec<u8>, Vec<u8>)],
) -> std::io::Result<()> {
    let invalid =
        |e: serde_json::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
    write!(out, "{{\"base\":\"{base}\",\"removed\":[")?;
    for (ix, flow) in removed.iter().enumerate() {
        if ix > 0 {
            out.write_all(b",")?;
        }
        let json = serde_json::to_string(&flow.to_value()).map_err(invalid)?;
        out.write_all(json.as_bytes())?;
    }
    out.write_all(b"],\"records\":[")?;
    for (ix, (flow, graph)) in records.iter().enumerate() {
        if ix > 0 {
            out.write_all(b",")?;
        }
        out.write_all(b"{\"flow\":")?;
        out.write_all(flow)?;
        out.write_all(b",\"graph\":")?;
        out.write_all(graph)?;
        out.write_all(b"}")?;
    }
    out.write_all(b"]}")?;
    out.flush()
}

/// One side's parsed delta document.
#[derive(Debug)]
pub struct SnapshotDelta {
    /// Epoch of the base pair the delta applies to.
    pub base: SnapshotEpoch,
    /// Flows removed from this side.
    pub removed: Vec<FlowSpec>,
    /// Changed or added records, as the undecoded spans a
    /// [`SnapshotFramer`] would yield (`index` counts within the
    /// `records` array; `offset` addresses the delta document).
    pub records: Vec<RawRecord>,
}

impl SnapshotDelta {
    /// Stream-parse a delta document: `{"base": ..., "removed": [...],
    /// "records": [...]}`, fields in exactly that order. Every error
    /// carries the document byte offset and the label; record-level
    /// errors carry the index within `records`.
    pub fn from_reader(source: impl Read, label: &str) -> Result<SnapshotDelta, SnapshotError> {
        read_delta(source).map_err(|e| e.with_source_label(label))
    }
}

fn expect_key<R: Read>(json: &mut JsonReader<R>, want: &str) -> Result<(), SnapshotError> {
    match json.next_key().map_err(SnapshotError::from_json)? {
        Some(key) if key == want => Ok(()),
        Some(key) => Err(SnapshotError::at(
            format!("expected the `{want}` field, found `{key}`"),
            json.byte_offset(),
        )),
        None => Err(SnapshotError::at(
            format!("missing field `{want}`"),
            json.byte_offset(),
        )),
    }
}

fn read_delta(source: impl Read) -> Result<SnapshotDelta, SnapshotError> {
    let mut json = JsonReader::new(source);
    json.begin_object().map_err(SnapshotError::from_json)?;

    expect_key(&mut json, "base")?;
    let base_value = json.read_value().map_err(SnapshotError::from_json)?;
    let base: SnapshotEpoch = base_value
        .as_str()
        .ok_or_else(|| SnapshotError::at("expected a hex string in `base`", json.byte_offset()))?
        .parse()
        .map_err(|e: String| SnapshotError::at(e, json.byte_offset()))?;

    expect_key(&mut json, "removed")?;
    json.begin_array().map_err(SnapshotError::from_json)?;
    let mut removed = Vec::new();
    while json.next_element().map_err(SnapshotError::from_json)? {
        // the item's own first byte: a shape error names it, not its end
        let at = json.byte_offset();
        let value = json.read_value().map_err(SnapshotError::from_json)?;
        let flow = FlowSpec::from_value(&value).map_err(|e| {
            SnapshotError::at(format!("`removed` item #{}: {e}", removed.len()), at)
        })?;
        removed.push(flow);
    }

    expect_key(&mut json, "records")?;
    json.begin_array().map_err(SnapshotError::from_json)?;
    let mut records = Vec::new();
    let mut members = Vec::new();
    let mut index = 0usize;
    loop {
        let more = json
            .next_element()
            .map_err(|e| SnapshotError::from_json(e).with_entry(index))?;
        if !more {
            break;
        }
        let offset = json.byte_offset();
        let span = json
            .read_raw_span(&mut members)
            .map_err(|e| SnapshotError::from_json(e).with_entry(index))?;
        records.push(RawRecord::from_framed_json(span, &members, offset, index)?);
        index += 1;
    }

    if let Some(key) = json.next_key().map_err(SnapshotError::from_json)? {
        return Err(SnapshotError::at(
            format!("unexpected field `{key}` after `records`"),
            json.byte_offset(),
        ));
    }
    json.end().map_err(SnapshotError::from_json)?;
    Ok(SnapshotDelta {
        base,
        removed,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::linear_graph;
    use crate::snapshot::{Snapshot, SnapshotWriter};

    fn flow(dst: &str, ingress: &str) -> FlowSpec {
        FlowSpec::new(dst.parse().unwrap(), ingress)
    }

    fn scan(snap: &Snapshot) -> SideScan {
        let json = snap.to_json().unwrap();
        scan_side(SnapshotFramer::new(json.as_bytes(), "side.json")).unwrap()
    }

    #[test]
    fn epoch_round_trips_hex() {
        let epoch = pair_epoch(7, 9);
        let text = epoch.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(text.parse::<SnapshotEpoch>().unwrap(), epoch);
        assert!("xyz".parse::<SnapshotEpoch>().is_err());
    }

    #[test]
    fn side_fold_is_order_independent() {
        let a = record_mix(&flow("10.0.0.0/24", "x1"), 1);
        let b = record_mix(&flow("10.0.1.0/24", "x1"), 2);
        assert_eq!(side_fold([a, b]), side_fold([b, a]));
        assert_ne!(side_fold([a, b]), side_fold([a]));
        assert_eq!(side_fold([]), 0);
    }

    #[test]
    fn diff_then_apply_reproduces_the_new_side() {
        let mut base = Snapshot::new();
        base.insert(flow("10.0.0.0/24", "x1"), linear_graph(&["x1", "A1"]));
        base.insert(flow("10.0.1.0/24", "x1"), linear_graph(&["x1", "B1"]));
        base.insert(flow("10.0.2.0/24", "x2"), linear_graph(&["x2", "C1"]));
        let mut new = Snapshot::new();
        // 10.0.0.0/24 unchanged, 10.0.1.0/24 changed, 10.0.2.0/24
        // removed, 10.0.3.0/24 added
        new.insert(flow("10.0.0.0/24", "x1"), linear_graph(&["x1", "A1"]));
        new.insert(flow("10.0.1.0/24", "x1"), linear_graph(&["x1", "B2"]));
        new.insert(flow("10.0.3.0/24", "x2"), linear_graph(&["x2", "D1"]));

        let base_scan = scan(&base);
        let new_scan = scan(&new);
        let diff = diff_side(&base_scan, &new_scan);
        assert_eq!(diff.removed, vec![flow("10.0.2.0/24", "x2")]);
        assert_eq!(diff.records.len(), 2);

        // write the delta, parse it back, and splice it over the base
        let epoch = pair_epoch(base_scan.fold, 0);
        let mut doc = Vec::new();
        write_delta(&mut doc, epoch, &diff.removed, &diff.records).unwrap();
        let delta = SnapshotDelta::from_reader(&doc[..], "delta.json").unwrap();
        assert_eq!(delta.base, epoch);
        assert_eq!(delta.removed, diff.removed);
        assert_eq!(delta.records.len(), 2);

        let mut spliced: Vec<(FlowSpec, Vec<u8>)> = Vec::new();
        let changed: std::collections::HashSet<FlowSpec> = delta
            .records
            .iter()
            .map(|r| r.decode_flow(None).unwrap().0)
            .chain(delta.removed.iter().cloned())
            .collect();
        for record in &base_scan.records {
            if !changed.contains(&record.flow) {
                spliced.push((record.flow.clone(), record.graph_span.clone()));
            }
        }
        for raw in &delta.records {
            let (flow, span) = raw.decode_flow(None).unwrap();
            spliced.push((flow, span.to_vec()));
        }
        spliced.sort_by(|a, b| a.flow_cmp(b));

        // the spliced side must be byte-identical to the new snapshot
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        let expected = new.to_json().unwrap();
        for (flow, span) in &spliced {
            let graph = crate::snapshot::decode_graph_span(span).unwrap();
            writer.write(flow, &graph).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), expected);

        // and the folds must agree: base fold patched by the diff
        // equals the new side's fold
        assert_ne!(base_scan.fold, new_scan.fold);
        let respliced = side_fold(
            spliced
                .iter()
                .map(|(flow, span)| record_mix(flow, content_hash128(span))),
        );
        assert_eq!(respliced, new_scan.fold);
    }

    #[test]
    fn delta_errors_carry_offsets_and_labels() {
        let err = SnapshotDelta::from_reader(&b"{}"[..], "d.json").unwrap_err();
        assert!(err.to_string().contains("missing field `base`"), "{err}");
        assert_eq!(err.label(), Some("d.json"));

        let bad = br#"{"base":"00000000000000000000000000000000","removed":[],"records":[{"flow""#;
        let err = SnapshotDelta::from_reader(&bad[..], "d.json").unwrap_err();
        assert_eq!(err.entry_index(), Some(0), "{err}");
        assert!(err.byte_offset().is_some(), "{err}");

        let bad = br#"{"base":"zz","removed":[],"records":[]}"#;
        let err = SnapshotDelta::from_reader(&bad[..], "d.json").unwrap_err();
        assert!(err.to_string().contains("32 hex digits"), "{err}");
    }

    #[test]
    fn a_bad_removed_flow_is_named_and_addressed_at_its_start() {
        let base = "0".repeat(32);
        let good = r#"{"dst":"10.0.0.0/24","ingress":"x1"}"#;
        let bogus = r#"{"dst":"bogus","ingress":"x1"}"#;
        let doc = format!(r#"{{"base":"{base}","removed":[{good},{bogus}],"records":[]}}"#);
        let at = doc.find(bogus).unwrap();
        assert_eq!(at, 91);
        let err = SnapshotDelta::from_reader(doc.as_bytes(), "d.json").unwrap_err();
        assert_eq!(err.byte_offset(), Some(at as u64), "{err}");
        assert!(err.message().starts_with("`removed` item #1: "), "{err}");
        assert_eq!(err.entry_index(), None);
        assert_eq!(err.label(), Some("d.json"));
    }

    #[test]
    fn a_record_without_a_graph_is_refused_by_the_reader() {
        let base = "0".repeat(32);
        let record = r#"{"flow":{"dst":"10.0.0.0/24","ingress":"x1"}}"#;
        let doc = format!(r#"{{"base":"{base}","removed":[],"records":[{record}]}}"#);
        let err = SnapshotDelta::from_reader(doc.as_bytes(), "d.json").unwrap_err();
        let at = doc.find(record).unwrap();
        assert_eq!(
            err.to_string(),
            format!("d.json: snapshot entry #0: missing field `graph` (byte {at})")
        );
    }

    trait FlowCmp {
        fn flow_cmp(&self, other: &Self) -> std::cmp::Ordering;
    }

    impl FlowCmp for (FlowSpec, Vec<u8>) {
        fn flow_cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.cmp(&other.0)
        }
    }
}
