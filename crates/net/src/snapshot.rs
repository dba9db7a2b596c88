//! Network snapshots: the per-FEC forwarding state of one network
//! version, and the aligned pre/post pair that Rela checks.
//!
//! The paper's workflow (§2.3, §7) simulates the pre- and post-change
//! networks, computes forwarding paths for the flows observed in the last
//! hour, aggregates them into FECs, and hands Rela one forwarding graph
//! per FEC per snapshot. [`SnapshotPair::align`] joins the two snapshots
//! on the flow key; a flow absent from one side gets an empty graph
//! (the network does not carry it).
//!
//! # Streaming ingestion
//!
//! At the ROADMAP's 10⁶-FEC target, materializing a snapshot's full JSON
//! text plus its decoded map before alignment even starts dominates cold
//! runs and doubles peak memory. The streaming path avoids both:
//! [`SnapshotReader`] pulls `(flow, graph)` records one at a time from
//! any [`Read`] source (holding at most one decoded record),
//! [`SnapshotWriter`] emits the same wire format record-by-record, and
//! [`SnapshotFramer`] hands out undecoded record spans for the checker's
//! pipelined engine, which joins the two sides on the flow key itself.
//! The wire format itself is specified in `docs/SNAPSHOT_FORMAT.md`.
//!
//! # Container formats
//!
//! Two containers carry the same records: the JSON document
//! (`{"fecs": [...]}`) and a length-prefixed binary layout
//! ([`BinarySnapshotWriter`], `RSNB` magic) whose records are the same
//! serialized `flow`/`graph` value spans without the JSON skeleton —
//! built so a framer can hand out spans without scanning bytes, and a
//! consumer can content-hash a record without parsing it. Both
//! [`SnapshotFramer`] and [`SnapshotReader`] sniff the container from
//! the first bytes, so every ingest path (including gzipped sources via
//! [`snapshot_source`]) accepts either format transparently.
//!
//! A seekable binary container can additionally be ingested *zero-copy*:
//! [`SnapshotFramer::from_map`] frames a memory-mapped file
//! ([`crate::MmapSource`]) by pure pointer arithmetic, yielding record
//! spans ([`SpanBytes`]) that borrow the mapping instead of a chunk read
//! from it. The binary grammar is written once and run over either, so
//! the [`RawRecord`]s, reports, content hashes, and the error contract
//! are byte-for-byte the same; `docs/INGEST.md` has the full mode
//! matrix.

use crate::fec::FlowSpec;
use crate::graph::ForwardingGraph;
use crate::mmap::MmapSource;
use rela_automata::FixedSet;
use serde::{Deserialize, Serialize, Value};
use serde_json::scan::{frame_value, Member, Stop};
use serde_json::stream::Chunks;
use serde_json::JsonReader;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Forwarding state for every traffic class of one network version.
///
/// Serializes as a list of `{flow, graph}` entries (JSON object keys must
/// be strings, and a [`FlowSpec`] is structured).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    fecs: BTreeMap<FlowSpec, ForwardingGraph>,
}

impl Serialize for Snapshot {
    fn to_value(&self) -> Value {
        let entries: Vec<Value> = self
            .fecs
            .iter()
            .map(|(flow, graph)| {
                Value::obj(vec![("flow", flow.to_value()), ("graph", graph.to_value())])
            })
            .collect();
        Value::obj(vec![("fecs", Value::Arr(entries))])
    }
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Set the forwarding graph for a flow.
    pub fn insert(&mut self, flow: FlowSpec, graph: ForwardingGraph) {
        self.fecs.insert(flow, graph);
    }

    /// The forwarding graph of a flow, if present.
    pub fn get(&self, flow: &FlowSpec) -> Option<&ForwardingGraph> {
        self.fecs.get(flow)
    }

    /// Iterate over all (flow, graph) pairs in flow order.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowSpec, &ForwardingGraph)> {
        self.fecs.iter()
    }

    /// Number of traffic classes.
    pub fn len(&self) -> usize {
        self.fecs.len()
    }

    /// True if the snapshot has no traffic classes.
    pub fn is_empty(&self) -> bool {
        self.fecs.is_empty()
    }

    /// Serialize to the JSON exchange format.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialize from any [`Read`] source through the streaming
    /// reader, the one snapshot loader. It never materializes the input
    /// text or a whole `Value` tree, and its errors carry the byte offset
    /// and entry index of the failure. A duplicate flow key is an error,
    /// and `fecs` must be the top level's first and only field
    /// (`docs/SNAPSHOT_FORMAT.md`).
    pub fn from_reader(source: impl Read) -> Result<Snapshot, SnapshotError> {
        SnapshotReader::new(source).collect()
    }
}

impl FromIterator<(FlowSpec, ForwardingGraph)> for Snapshot {
    fn from_iter<T: IntoIterator<Item = (FlowSpec, ForwardingGraph)>>(iter: T) -> Snapshot {
        Snapshot {
            fecs: iter.into_iter().collect(),
        }
    }
}

/// A failure while streaming a snapshot: what went wrong, *where* in the
/// byte stream, and *which* FEC entry was being read.
///
/// The error contract (also in `docs/SNAPSHOT_FORMAT.md`): every error
/// raised while a `fecs` entry is being consumed carries that entry's
/// 0-based index ([`SnapshotError::entry_index`]), and every error
/// carries the absolute byte offset of the failure when the reader knows
/// it ([`SnapshotError::byte_offset`]) — in a multi-gigabyte snapshot,
/// "missing field `flow`" without an address is not actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    message: String,
    entry: Option<usize>,
    offset: Option<u64>,
    /// Offset already rendered inside `message` (JSON-level errors embed
    /// their own position); don't append it again.
    offset_in_message: bool,
    label: Option<String>,
}

impl SnapshotError {
    /// Wrap a JSON-level error (its message already embeds the
    /// line/column/byte position).
    pub(crate) fn from_json(e: serde_json::Error) -> SnapshotError {
        SnapshotError {
            offset: e.byte_offset(),
            message: e.to_string(),
            entry: None,
            offset_in_message: true,
            label: None,
        }
    }

    /// A record- or structure-level error at a known byte offset.
    /// Public so pipeline consumers that detect record-level failures
    /// downstream of the framer (e.g. duplicate flows discovered during
    /// a concurrent join) can report them under the same contract.
    pub fn at(message: impl Into<String>, offset: u64) -> SnapshotError {
        SnapshotError {
            message: message.into(),
            entry: None,
            offset: Some(offset),
            offset_in_message: false,
            label: None,
        }
    }

    /// Attach the 0-based `fecs` entry index.
    pub fn with_entry(mut self, ix: usize) -> SnapshotError {
        self.entry = Some(ix);
        self
    }

    /// Attach a source label (typically the file path).
    pub fn with_source_label(mut self, label: impl Into<String>) -> SnapshotError {
        self.label = Some(label.into());
        self
    }

    /// The human-readable failure description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// 0-based index of the `fecs` entry being read when the failure
    /// occurred; `None` for failures outside any entry (header, trailer).
    pub fn entry_index(&self) -> Option<usize> {
        self.entry
    }

    /// Absolute byte offset of the failure in the input stream.
    pub fn byte_offset(&self) -> Option<u64> {
        self.offset
    }

    /// The source label attached via [`SnapshotReader::with_label`], if
    /// any (typically the file path).
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(label) = &self.label {
            write!(f, "{label}: ")?;
        }
        if let Some(ix) = self.entry {
            write!(f, "snapshot entry #{ix}: ")?;
        }
        f.write_str(&self.message)?;
        match self.offset {
            Some(offset) if !self.offset_in_message => write!(f, " (byte {offset})"),
            _ => Ok(()),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---- binary container format ------------------------------------------

/// Magic bytes opening a binary snapshot (see `docs/SNAPSHOT_FORMAT.md`).
pub const BINARY_MAGIC: [u8; 4] = *b"RSNB";

/// Current version of the binary snapshot layout, written little-endian
/// right after the magic.
pub const BINARY_VERSION: u32 = 1;

/// The `flow-key-len` value that marks the end of a binary snapshot.
const BINARY_SENTINEL: u32 = u32::MAX;

/// Cap on one serialized flow key (a corrupt length prefix must not
/// trigger a multi-gigabyte allocation).
const BINARY_FLOW_CAP: u32 = 1 << 20;

/// Cap on one serialized graph span (matches the serve protocol's
/// 64 MiB frame cap).
const BINARY_GRAPH_CAP: u32 = 64 << 20;

/// Bytes of a JSON container the framer reads, scans, and hands out as
/// one shared chunk (the reader's chunk size) — and the payload the
/// pipelined engine packs into one channel message, so a message pins
/// about one chunk.
pub const FRAME_BATCH_BYTES: usize = serde_json::stream::CHUNK;

/// A byte span into a shared backing buffer: an owned `Vec` for
/// buffered framing (one per *chunk* of a streamed container, JSON or
/// binary — every record framed out of a chunk shares it), or
/// a read-only file mapping for the zero-copy binary path. Cloning is
/// O(1) — an `Arc` bump plus the range — so spans travel through
/// channels, join maps, and retention slots without copying record
/// bytes; a backing buffer is freed when its last span is dropped.
///
/// Equality compares span *content*, not backing identity: a mapped
/// span and an owned span over the same bytes are equal (that is the
/// byte-identity property the ingest modes are tested against).
#[derive(Clone)]
pub struct SpanBytes {
    buf: SpanBuf,
    range: Range<usize>,
}

/// The backing storage of a [`SpanBytes`].
#[derive(Clone)]
enum SpanBuf {
    Owned(Arc<Vec<u8>>),
    Mapped(Arc<MmapSource>),
}

impl SpanBuf {
    fn as_slice(&self) -> &[u8] {
        match self {
            SpanBuf::Owned(vec) => vec,
            SpanBuf::Mapped(map) => map.as_slice(),
        }
    }
}

impl SpanBytes {
    /// A span over `range` of a buffer shared with other spans — how the
    /// framer hands out the records of one chunk.
    pub fn shared(buf: Arc<Vec<u8>>, range: Range<usize>) -> SpanBytes {
        debug_assert!(range.end <= buf.len() && range.start <= range.end);
        SpanBytes {
            buf: SpanBuf::Owned(buf),
            range,
        }
    }

    /// A span over `range` of a memory-mapped file.
    pub fn mapped(map: Arc<MmapSource>, range: Range<usize>) -> SpanBytes {
        debug_assert!(range.end <= map.len() && range.start <= range.end);
        SpanBytes {
            buf: SpanBuf::Mapped(map),
            range,
        }
    }

    /// The span's bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.as_slice()[self.range.clone()]
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// A sub-span addressed relative to this span's start, sharing the
    /// same backing buffer.
    pub fn slice(&self, rel: Range<usize>) -> SpanBytes {
        assert!(rel.end <= self.len() && rel.start <= rel.end);
        SpanBytes {
            buf: self.buf.clone(),
            range: self.range.start + rel.start..self.range.start + rel.end,
        }
    }

    /// Copy the span out into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for SpanBytes {
    fn from(bytes: Vec<u8>) -> SpanBytes {
        let len = bytes.len();
        SpanBytes {
            buf: SpanBuf::Owned(Arc::new(bytes)),
            range: 0..len,
        }
    }
}

impl std::ops::Deref for SpanBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for SpanBytes {
    fn eq(&self, other: &SpanBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SpanBytes {}

impl fmt::Debug for SpanBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanBytes({})", String::from_utf8_lossy(self.as_slice()))
    }
}

/// One undecoded `fecs` entry, as a [`SnapshotFramer`] (or a delta
/// document's reader) cuts it: the entry's `flow` and `graph` value
/// spans, where they sit in the input, and the entry's index.
///
/// Both containers yield this one shape. A binary record's spans are the
/// two length-prefixed values, carried *unvalidated* so byte-level
/// admission can hash them in place; [`RawRecord::decode`] may therefore
/// surface syntax errors there, at the failing byte. A JSON record's
/// spans were located by the strict scan that framed it (either key
/// order, keys spelled with escapes, any whitespace, other members
/// ignored), and an entry that is not an object, lacks `flow` or `graph`,
/// or repeats either never becomes a record: the framer refuses it.
/// Record-level failures are reported at the record's start offset
/// exactly as the serial [`SnapshotReader`] does.
#[derive(Debug, Clone)]
pub struct RawRecord {
    /// The serialized flow key.
    pub flow: SpanBytes,
    /// The serialized forwarding graph, undecoded.
    pub graph: SpanBytes,
    /// Absolute byte offset of the record's first byte in the input.
    pub offset: u64,
    /// Absolute byte offset of the flow span's first byte.
    pub flow_at: u64,
    /// Absolute byte offset of the graph span's first byte.
    pub graph_at: u64,
    /// 0-based index among the `fecs` entries.
    pub index: usize,
}

/// The two members every entry carries, in the order their errors rank.
const ENTRY_FIELDS: [&str; 2] = ["flow", "graph"];

/// Why a value span did not decode: the message and, for a span that is
/// not JSON, the index in the span of the byte it fails at. A value of
/// the wrong shape has no such byte; its record's start addresses it.
pub type SpanError = (String, Option<usize>);

impl RawRecord {
    /// The record a [`JsonReader::read_raw_span`] just framed: `range`
    /// of `chunk`, starting at absolute `offset`, with the scan's
    /// top-level `members` (none if the record is not an object). The
    /// `flow` and `graph` values are picked out however their keys are
    /// spelled; a record that lacks or repeats either is refused with the
    /// keyed decoder's message, at its offset and index.
    pub(crate) fn from_framed_json(
        (chunk, range): (Arc<Vec<u8>>, Range<usize>),
        members: &[Member],
        offset: u64,
        index: usize,
    ) -> Result<RawRecord, SnapshotError> {
        let mut found: [(usize, Option<Range<usize>>); 2] = [(0, None), (0, None)];
        for member in members {
            let key = &chunk[member.key.clone()];
            let field = match key {
                b"\"flow\"" => 0,
                b"\"graph\"" => 1,
                // the scan validated the token, so it decodes
                _ if key.contains(&b'\\') => {
                    let name = serde_json::from_slice::<String>(key).unwrap_or_default();
                    match ENTRY_FIELDS.iter().position(|field| *field == name) {
                        Some(field) => field,
                        None => continue,
                    }
                }
                _ => continue,
            };
            found[field].0 += 1;
            found[field].1.get_or_insert_with(|| member.value.clone());
        }
        let refuse = |message: String| Err(SnapshotError::at(message, offset).with_entry(index));
        for (name, (count, _)) in ENTRY_FIELDS.iter().zip(&found) {
            if *count > 1 {
                return refuse(format!("duplicate field `{name}`"));
            }
        }
        let [(_, Some(flow)), (_, Some(graph))] = found else {
            let missing = ENTRY_FIELDS[usize::from(found[0].1.is_some())];
            return refuse(format!("missing field `{missing}`"));
        };
        let at = |span: &Range<usize>| offset + (span.start - range.start) as u64;
        Ok(RawRecord {
            flow_at: at(&flow),
            graph_at: at(&graph),
            flow: SpanBytes::shared(Arc::clone(&chunk), flow),
            graph: SpanBytes::shared(chunk, graph),
            offset,
            index,
        })
    }

    /// The record as one `{"flow":F,"graph":G}` JSON object — what
    /// `rela snapshot pack --unpack` writes. Members of a JSON record
    /// other than these two are not carried.
    pub fn json_bytes(&self) -> Vec<u8> {
        [
            b"{\"flow\":",
            &self.flow[..],
            b",\"graph\":",
            &self.graph[..],
            b"}",
        ]
        .concat()
    }

    /// A failure of the value span that starts at absolute `span_at`: at
    /// the failing byte for a span that is not JSON, at the record's start
    /// otherwise; with the entry index, and `label` when given.
    fn fail(&self, (message, at): SpanError, span_at: u64, label: Option<&str>) -> SnapshotError {
        SnapshotError {
            message,
            entry: Some(self.index),
            offset: Some(at.map_or(self.offset, |at| span_at + at as u64)),
            offset_in_message: false,
            label: label.map(str::to_owned),
        }
    }

    /// Decode the record into its `(flow, graph)` pair: the flow span,
    /// then the graph span, each through the decoder the pipelined
    /// engine runs on it. Errors carry the entry index and an offset;
    /// `label` (typically the source file path) is attached when given.
    pub fn decode(
        &self,
        label: Option<&str>,
    ) -> Result<(FlowSpec, ForwardingGraph), SnapshotError> {
        let (flow, graph) = self.decode_flow(label)?;
        let graph = decode_graph_span(&graph).map_err(|e| self.fail(e, self.graph_at, label))?;
        Ok((flow, graph))
    }

    /// The `flow` and `graph` value spans of the record, undecoded — what
    /// byte-level admission and the `snapshot pack` converter read
    /// instead of a decode. Never fails: the framer refused every record
    /// whose values it could not locate.
    pub fn split_spans(
        &self,
        _label: Option<&str>,
    ) -> Result<(SpanBytes, SpanBytes), SnapshotError> {
        Ok((self.flow.clone(), self.graph.clone()))
    }

    /// Parse the record's flow key and hand out its graph span *without*
    /// decoding the graph — the entry point of the pipelined
    /// byte-admission fast path. A flow span in the writers' own
    /// encoding is read straight from its bytes
    /// (`FlowSpec::from_canonical_json`); any other goes through a
    /// `Value`, with [`RawRecord::decode`]'s errors.
    pub fn decode_flow(&self, label: Option<&str>) -> Result<(FlowSpec, SpanBytes), SnapshotError> {
        let flow = match FlowSpec::from_canonical_json(&self.flow) {
            Some(flow) => flow,
            None => decode_span(&self.flow).map_err(|e| self.fail(e, self.flow_at, label))?,
        };
        Ok((flow, self.graph.clone()))
    }
}

/// Decode one value span. A span that is not JSON fails with the
/// parser's message at its failing byte, as the scanner names it
/// (`scan_differential.rs` pins the two to each other): the parser's own
/// line and column would count into the span, not the input.
fn decode_span<T: Deserialize>(span: &[u8]) -> Result<T, SpanError> {
    let value: Value = serde_json::from_slice(span).map_err(|_| {
        let (message, at) = match frame_value(span, 0, true, &mut Vec::new()) {
            Err(Stop::Syntax { message, at }) => (message, at),
            // one whole value, and something after it
            Ok(end) => {
                let blank = span[end..].iter().take_while(|b| b" \t\n\r".contains(b));
                ("trailing characters".to_owned(), end + blank.count())
            }
            Err(Stop::NeedMore) => unreachable!("the span was scanned as the whole input"),
        };
        (format!("record span: {message}"), Some(at))
    })?;
    T::from_value(&value).map_err(|e| (e.to_string(), None))
}

/// Decode one graph value span, as [`RawRecord::decode`] does — the
/// pipelined engine's graph decoder. The caller owns offset, entry and
/// label attribution ([`SpanError`]).
pub fn decode_graph_span(bytes: &[u8]) -> Result<ForwardingGraph, SpanError> {
    decode_span(bytes)
}

/// The framing half of the snapshot reader: yields each entry of a JSON
/// *or* binary snapshot as an undecoded [`RawRecord`] span, without
/// building a single `Value`. The container format is sniffed from the
/// first four bytes ([`BINARY_MAGIC`] opens a binary snapshot; anything
/// else is parsed as the JSON document).
///
/// This is what a pipelined consumer runs on its reader thread. The
/// input is read [`FRAME_BATCH_BYTES`] at a time into shared chunks
/// ([`Chunks`]) and framed in place by the container's record grammar —
/// a slice scanner that the one fill–carry–frame loop
/// ([`Chunks::scan`]) runs at the cursor. For JSON that is one strict
/// scan per record (malformed JSON fails here with the same message and
/// offset as the decoding reader) that finds the record's end and its
/// `flow`/`graph` value ranges; for the binary container it is
/// length-prefix arithmetic. Either way the record is handed out as
/// [`SpanBytes`] ranges of its chunk — no per-record buffer, no copy.
/// Only a record cut by the end of a chunk is touched twice: its head is
/// carried into the next chunk and scanned again there. A mapped binary
/// container ([`SnapshotFramer::from_map`]) is the degenerate case: the
/// mapping is the one chunk, and it already ends the input. All
/// allocation-heavy decoding is left to [`RawRecord::decode`] /
/// [`RawRecord::decode_flow`], which can run on worker threads.
/// [`SnapshotReader`] is this framer plus an inline decoder and
/// duplicate-flow detection.
///
/// A chunk lives as long as any record framed out of it (or any span
/// sliced from one): the pipelined engine holds records in channel
/// batches, for a few batches in unpaired flow-join entries, and — in a
/// retaining session — in the retained base.
pub struct SnapshotFramer<R: Read> {
    inner: FramerInner<R>,
    /// Index of the next entry to be framed.
    index: usize,
    label: Option<String>,
}

/// The framer's container-specific state.
enum FramerInner<R: Read> {
    /// No bytes pulled yet; the first pull decides the container and
    /// consumes its header ([`open_container`]).
    Unopened(Option<FramerBytes<R>>),
    /// Inside the `fecs` array of a JSON document.
    Json(JsonFramer<R>),
    /// Between the records of a binary container.
    Binary(FramerBytes<R>),
    /// Past a mapped container's end marker; the iterator is fused. The
    /// cursor stays until the framer goes, so the container's last
    /// window is released only then ([`MapCursor`]).
    Ended { _cursor: MapCursor },
    /// Finished or failed; the iterator is fused.
    Done,
}

impl<R: Read> SnapshotFramer<R> {
    /// Wrap a byte source. No input is read until the first record is
    /// pulled.
    ///
    /// The source label — a file path for file-backed sources, a job
    /// and side name for socket-fed streams — is mandatory: a framer is
    /// the entry point of the pipelined (and framed-protocol) ingest
    /// path, where an unlabelled error cannot be traced back to the
    /// submission that caused it. Every error this framer produces
    /// carries the label alongside the entry index and byte offset.
    pub fn new(source: R, label: impl Into<String>) -> SnapshotFramer<R> {
        SnapshotFramer::over(FramerBytes::Chunks(Chunks::new(source)), Some(label.into()))
    }

    fn over(bytes: FramerBytes<R>, label: Option<String>) -> SnapshotFramer<R> {
        SnapshotFramer {
            inner: FramerInner::Unopened(Some(bytes)),
            index: 0,
            label,
        }
    }

    /// The source label.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Whether this framer runs the zero-copy mapped path (for stats
    /// and diagnostics; the records it yields are indistinguishable from
    /// the buffered binary framer's).
    pub fn is_mapped(&self) -> bool {
        matches!(
            self.inner,
            FramerInner::Unopened(Some(FramerBytes::Map(_)))
                | FramerInner::Binary(FramerBytes::Map(_))
                | FramerInner::Ended { .. }
        )
    }

    /// Number of records framed so far.
    pub fn records_framed(&self) -> usize {
        self.index
    }

    /// Fuse the iterator (no further records will be yielded).
    fn fuse_iter(&mut self) {
        self.inner = FramerInner::Done;
    }

    /// Attach this framer's label to an error and fuse the iterator.
    fn fail(&mut self, e: SnapshotError) -> SnapshotError {
        self.inner = FramerInner::Done;
        SnapshotError {
            label: self.label.clone(),
            ..e
        }
    }
}

impl<'a> SnapshotFramer<Box<dyn Read + Send + 'a>> {
    /// Frame a memory-mapped snapshot file. A binary container
    /// ([`BINARY_MAGIC`] head) is framed zero-copy — the record grammar
    /// runs over the mapping itself, record spans borrowing it — with
    /// the same record sequence, offsets, and error contract as the
    /// buffered [`SnapshotFramer::new`] over the same bytes. Any other
    /// content (a JSON document in the mapped file) transparently rides
    /// the ordinary sniffing path through a `Cursor`, so callers may map
    /// first and ask questions never.
    pub fn from_map(
        map: MmapSource,
        label: impl Into<String>,
    ) -> SnapshotFramer<Box<dyn Read + Send + 'a>> {
        if !map.starts_with(&BINARY_MAGIC) {
            return SnapshotFramer::new(Box::new(std::io::Cursor::new(map)), label);
        }
        let bytes = FramerBytes::Map(MapCursor {
            map: Arc::new(map),
            pos: 0,
            released: 0,
        });
        SnapshotFramer::over(bytes, Some(label.into()))
    }
}

impl<R: Read> Iterator for SnapshotFramer<R> {
    type Item = Result<RawRecord, SnapshotError>;

    fn next(&mut self) -> Option<Self::Item> {
        let result = loop {
            match &mut self.inner {
                FramerInner::Done | FramerInner::Ended { .. } => return None,
                FramerInner::Json(j) => break j.next_record(self.index),
                FramerInner::Binary(b) => break b.next_record(self.index),
                FramerInner::Unopened(bytes) => {
                    let bytes = bytes.take().expect("unopened framer holds its bytes");
                    match open_container(bytes) {
                        Ok(inner) => self.inner = inner,
                        Err(e) => break Err(e),
                    }
                }
            }
        };
        match result {
            Ok(Some(raw)) => {
                self.index += 1;
                Some(Ok(raw))
            }
            Ok(None) => {
                self.inner = match std::mem::replace(&mut self.inner, FramerInner::Done) {
                    FramerInner::Binary(FramerBytes::Map(cursor)) => {
                        FramerInner::Ended { _cursor: cursor }
                    }
                    _ => FramerInner::Done,
                };
                None
            }
            Err(e) => Some(Err(self.fail(e))),
        }
    }
}

/// Decide the container — a stream's from the first four bytes of its
/// first chunk, of which nothing is consumed, so either grammar counts
/// its offsets from byte 0; a mapping was checked for the magic when it
/// was wrapped — and consume its header.
fn open_container<R: Read>(bytes: FramerBytes<R>) -> Result<FramerInner<R>, SnapshotError> {
    let mut bytes = match bytes {
        FramerBytes::Chunks(mut chunks) => {
            let head = |buf: &[u8], _pos: usize, last: bool| {
                if buf.len() >= BINARY_MAGIC.len() || last {
                    Ok(())
                } else {
                    Err(Stop::NeedMore)
                }
            };
            chunks
                .scan(head)
                .map_err(|e| SnapshotError::at(e.message, e.at as u64))?;
            if !chunks.chunk().starts_with(&BINARY_MAGIC) {
                let mut json = JsonFramer {
                    json: JsonReader::from_chunks(chunks),
                    members: Vec::new(),
                };
                json.read_header()?;
                return Ok(FramerInner::Json(json));
            }
            FramerBytes::Chunks(chunks)
        }
        mapped => mapped,
    };
    bytes.frame(binary_header)?;
    Ok(FramerInner::Binary(bytes))
}

/// Framing state for the JSON container: the document skeleton
/// (`{"fecs": [ ... ]}`) is consumed around the record loop.
struct JsonFramer<R: Read> {
    json: JsonReader<R>,
    /// Scratch for the scan's top-level member ranges.
    members: Vec<Member>,
}

impl<R: Read> JsonFramer<R> {
    /// Consume `{"fecs": [`.
    fn read_header(&mut self) -> Result<(), SnapshotError> {
        self.json.begin_object().map_err(SnapshotError::from_json)?;
        match self.json.next_key().map_err(SnapshotError::from_json)? {
            Some(key) if key == "fecs" => {}
            Some(key) => {
                return Err(SnapshotError::at(
                    format!("expected the `fecs` field, found `{key}`"),
                    self.json.byte_offset(),
                ))
            }
            None => {
                return Err(SnapshotError::at(
                    "missing field `fecs`",
                    self.json.byte_offset(),
                ))
            }
        }
        self.json.begin_array().map_err(SnapshotError::from_json)
    }

    /// Consume `}` plus trailing whitespace/EOF after the records.
    fn read_trailer(&mut self) -> Result<(), SnapshotError> {
        if let Some(key) = self.json.next_key().map_err(SnapshotError::from_json)? {
            return Err(SnapshotError::at(
                format!("unexpected field `{key}` after `fecs`"),
                self.json.byte_offset(),
            ));
        }
        self.json.end().map_err(SnapshotError::from_json)?;
        Ok(())
    }

    /// Frame the next record span; `Ok(None)` on a clean trailer.
    fn next_record(&mut self, index: usize) -> Result<Option<RawRecord>, SnapshotError> {
        match self.json.next_element() {
            Err(e) => Err(SnapshotError::from_json(e).with_entry(index)),
            Ok(false) => {
                self.read_trailer()?;
                Ok(None)
            }
            Ok(true) => {
                let offset = self.json.byte_offset();
                let span = self
                    .json
                    .read_raw_span(&mut self.members)
                    .map_err(|e| SnapshotError::from_json(e).with_entry(index))?;
                RawRecord::from_framed_json(span, &self.members, offset, index).map(Some)
            }
        }
    }
}

// The binary container's grammar, as slice scanners in the shape of
// `serde_json::scan::frame_value`: `(buf, pos, last)` to what sits at
// `buf[pos..]` (as ranges of `buf`) and the index after it;
// `Stop::NeedMore` off the end of a slice that is not the end of the
// input, the format's own error (at an index of `buf`) otherwise. Every
// cap, sentinel rule and message of `docs/SNAPSHOT_FORMAT.md` is here
// and nowhere else.

/// The `len` bytes at `buf[pos..]`; an input that ends short of them
/// ends where a read would have hit EOF.
fn binary_take(
    buf: &[u8],
    pos: usize,
    len: usize,
    last: bool,
    what: &str,
) -> Result<Range<usize>, Stop> {
    if buf.len().saturating_sub(pos) >= len {
        Ok(pos..pos + len)
    } else if last {
        Err(Stop::Syntax {
            message: format!("unexpected end of binary snapshot reading {what}"),
            at: buf.len(),
        })
    } else {
        Err(Stop::NeedMore)
    }
}

/// The little-endian word at `buf[pos..]`.
fn binary_word(buf: &[u8], pos: usize, last: bool, what: &str) -> Result<u32, Stop> {
    let word = binary_take(buf, pos, 4, last, what)?;
    Ok(u32::from_le_bytes(
        buf[word].try_into().expect("4-byte range"),
    ))
}

/// One length prefix, enforcing `cap` (the sentinel is exempt — the
/// caller decides whether it is legal).
fn binary_len(buf: &[u8], pos: usize, last: bool, what: &str, cap: u32) -> Result<u32, Stop> {
    let len = binary_word(buf, pos, last, what)?;
    if len != BINARY_SENTINEL && len > cap {
        return Err(Stop::Syntax {
            message: format!("{what} of {len} bytes exceeds the {cap}-byte cap"),
            at: pos,
        });
    }
    Ok(len)
}

/// The container header: the magic (which is what selected this
/// grammar) and the version word.
fn binary_header(buf: &[u8], pos: usize, last: bool) -> Result<((), usize), Stop> {
    let at = pos + BINARY_MAGIC.len();
    let v = binary_word(buf, at, last, "the format version")?;
    if v != BINARY_VERSION {
        return Err(Stop::Syntax {
            message: format!("unsupported binary snapshot version {v} (expected {BINARY_VERSION})"),
            at,
        });
    }
    Ok(((), at + 4))
}

/// The `(flow, graph)` value ranges of one binary record.
type SplitRanges = (Range<usize>, Range<usize>);

/// One record, or `None` for the four-byte end marker.
fn binary_record(buf: &[u8], pos: usize, last: bool) -> Result<(Option<SplitRanges>, usize), Stop> {
    let flow_len = binary_len(buf, pos, last, "a flow-key length", BINARY_FLOW_CAP)?;
    if flow_len == BINARY_SENTINEL {
        return Ok((None, pos + 4));
    }
    let flow = binary_take(buf, pos + 4, flow_len as usize, last, "a flow-key span")?;
    let graph_len = binary_len(buf, flow.end, last, "a graph length", BINARY_GRAPH_CAP)?;
    if graph_len == BINARY_SENTINEL {
        return Err(Stop::Syntax {
            message: "end marker in place of a graph length".to_owned(),
            at: flow.end,
        });
    }
    let graph = binary_take(buf, flow.end + 4, graph_len as usize, last, "a graph span")?;
    let end = graph.end;
    Ok((Some((flow, graph)), end))
}

/// What follows the end marker: nothing may.
fn binary_end(buf: &[u8], pos: usize, last: bool) -> Result<((), usize), Stop> {
    if pos < buf.len() {
        Err(Stop::Syntax {
            message: "trailing bytes after the binary snapshot end marker".to_owned(),
            at: pos,
        })
    } else if last {
        Ok(((), pos))
    } else {
        Err(Stop::NeedMore)
    }
}

/// The bytes a framer runs its grammar over. (Only the binary grammar
/// runs here directly — a JSON stream's chunks go on to a
/// [`JsonReader`] — and only a binary container is framed out of a
/// mapping.)
enum FramerBytes<R: Read> {
    /// A stream, one shared chunk at a time.
    Chunks(Chunks<R>),
    /// A mapped container.
    Map(MapCursor),
}

/// A mapped container being framed: the one chunk that is the whole
/// input, so record spans borrow the mapping instead of a buffer.
///
/// Framing touches every page of the container, so the cursor advises
/// them reclaimable behind itself ([`MmapSource::release`]) — without
/// this a large container accumulates its entire length in the
/// process's resident set — and advises the rest when it is dropped: a
/// framer keeps it past the end marker and drops it with itself, and
/// the pipelined engine drops its framers once its workers have read
/// every record. So a finished ingest, and a retained base still holding
/// the mapping, pins no pages; a span read later merely refaults its
/// pages from the page cache.
struct MapCursor {
    map: Arc<MmapSource>,
    /// Absolute offset of the next unread byte.
    pos: usize,
    /// Watermark below which pages have been advised reclaimable. It
    /// trails `pos` by one [`MAPPED_RELEASE_CHUNK`] window, on a block
    /// boundary ([`MmapSource::release`]), so the spans still in flight
    /// sit on resident pages.
    released: usize,
}

/// The mapped framer's release window: twice what one side can have in
/// flight — the channel's batches plus one per worker, four
/// [`FRAME_BATCH_BYTES`] batches on two workers — so a batch still in
/// flight sits above the watermark, and a step, one `madvise` with the
/// TLB flush it costs, comes once per 512 KiB framed. The watermark
/// trails the cursor by one window and moves a window at a time; each
/// move advises the stretch it newly passed plus the window below it
/// again, which drops any page hashing faulted back in. A side's
/// framing footprint is so held to two windows whatever the
/// container's size, and the advice over a whole container is O(its
/// length).
const MAPPED_RELEASE_CHUNK: usize = 8 * FRAME_BATCH_BYTES;

impl MapCursor {
    /// Run `grammar` once over the mapping at the cursor, consume what
    /// it framed, and move the watermark up behind the cursor.
    fn frame<T>(
        &mut self,
        grammar: impl FnOnce(&[u8], usize, bool) -> Result<(T, usize), Stop>,
    ) -> Result<(u64, T), SnapshotError> {
        let (framed, end) = grammar(&self.map, self.pos, true).map_err(|stop| match stop {
            Stop::Syntax { message, at } => SnapshotError::at(message, at as u64),
            Stop::NeedMore => unreachable!("the mapping was scanned as the end of input"),
        })?;
        let offset = self.pos as u64;
        self.pos = end;
        let upto = end.saturating_sub(MAPPED_RELEASE_CHUNK);
        if upto >= self.released + MAPPED_RELEASE_CHUNK {
            self.release_to(upto);
        }
        Ok((offset, framed))
    }

    /// Advise the pages below `upto` reclaimable, from one window under
    /// the old watermark, and move the watermark to where the advice
    /// ended (a block boundary, or the end of the container).
    fn release_to(&mut self, upto: usize) {
        let from = self.released.saturating_sub(MAPPED_RELEASE_CHUNK);
        self.released = self.map.release(from..upto);
    }
}

impl Drop for MapCursor {
    /// The window runs out to the end of the container.
    fn drop(&mut self) {
        self.release_to(usize::MAX);
    }
}

impl<R: Read> FramerBytes<R> {
    /// Run `grammar` at the cursor — through the chunk loop for a
    /// stream, once over the mapping otherwise — and consume what it
    /// framed. Returns that with the absolute offset it started at; an
    /// error's offset is absolute too.
    fn frame<T>(
        &mut self,
        grammar: impl FnMut(&[u8], usize, bool) -> Result<(T, usize), Stop>,
    ) -> Result<(u64, T), SnapshotError> {
        match self {
            FramerBytes::Chunks(chunks) => {
                let scanned = chunks.scan(grammar);
                let (framed, end) = scanned
                    .map_err(|e| SnapshotError::at(e.message, chunks.base() + e.at as u64))?;
                let offset = chunks.base() + chunks.pos() as u64;
                chunks.advance_to(end);
                Ok((offset, framed))
            }
            FramerBytes::Map(cursor) => cursor.frame(grammar),
        }
    }

    /// A range the grammar just framed, as a span sharing the backing,
    /// and the absolute offset of its first byte.
    fn span(&self, range: Range<usize>) -> (u64, SpanBytes) {
        match self {
            FramerBytes::Chunks(chunks) => (
                chunks.base() + range.start as u64,
                SpanBytes::shared(Arc::clone(chunks.chunk()), range),
            ),
            FramerBytes::Map(cursor) => (
                range.start as u64,
                SpanBytes::mapped(Arc::clone(&cursor.map), range),
            ),
        }
    }
}

impl<R: Read> FramerBytes<R> {
    /// Frame the next record of a binary container whose header has
    /// been consumed; `Ok(None)` on the end marker. A record's two value
    /// spans are yielded as they sit, with no reassembly; its offset is
    /// the absolute position of its first length prefix. An error inside
    /// a record carries the entry index, one in the header or after the
    /// end marker does not.
    fn next_record(&mut self, index: usize) -> Result<Option<RawRecord>, SnapshotError> {
        match self.frame(binary_record).map_err(|e| e.with_entry(index))? {
            (offset, Some((flow, graph))) => {
                let ((flow_at, flow), (graph_at, graph)) = (self.span(flow), self.span(graph));
                Ok(Some(RawRecord {
                    flow,
                    graph,
                    offset,
                    flow_at,
                    graph_at,
                    index,
                }))
            }
            (_, None) => {
                self.frame(binary_end)?;
                Ok(None)
            }
        }
    }
}

/// A pull-based reader of the snapshot wire format: yields one
/// `(flow, graph)` record at a time from any [`Read`] source, holding at
/// most one decoded record in memory. Built as a [`SnapshotFramer`] with
/// an inline [`RawRecord::decode`] step.
///
/// Beyond decoding, the reader enforces the format's structural rules
/// (documented in `docs/SNAPSHOT_FORMAT.md`): the top level must be an
/// object whose first and only field is `fecs`, and a `flow` key may
/// appear at most once — a duplicate is an error here, not a silent
/// last-write-wins. Errors surface the byte offset and the failing entry
/// index; after an error the iterator is fused (yields `None`).
///
/// ```
/// use rela_net::{Snapshot, SnapshotReader};
///
/// let json = br#"{"fecs": []}"#;
/// let records: Result<Vec<_>, _> = SnapshotReader::new(&json[..]).collect();
/// assert!(records.unwrap().is_empty());
/// ```
pub struct SnapshotReader<R: Read> {
    framer: SnapshotFramer<R>,
    /// Records successfully decoded so far.
    decoded: usize,
    /// Flow keys seen so far (duplicate detection). Keys only — the
    /// graphs, which dominate a snapshot's bytes, are not retained.
    seen: FixedSet<FlowSpec>,
}

impl<R: Read> SnapshotReader<R> {
    /// Wrap a byte source. No input is read until the first record is
    /// pulled.
    pub fn new(source: R) -> SnapshotReader<R> {
        SnapshotReader {
            // A serial reader may legitimately be label-free (in-memory
            // sources in tests and doc examples), which
            // `SnapshotFramer::new` does not allow.
            framer: SnapshotFramer::over(FramerBytes::Chunks(Chunks::new(source)), None),
            decoded: 0,
            seen: FixedSet::default(),
        }
    }

    /// Attach a source label (typically the file path) to every error
    /// this reader produces.
    pub fn with_label(mut self, label: impl Into<String>) -> SnapshotReader<R> {
        self.framer.label = Some(label.into());
        self
    }

    /// Number of records successfully read so far.
    pub fn records_read(&self) -> usize {
        self.decoded
    }
}

impl<R: Read> Iterator for SnapshotReader<R> {
    type Item = Result<(FlowSpec, ForwardingGraph), SnapshotError>;

    fn next(&mut self) -> Option<Self::Item> {
        let raw = match self.framer.next()? {
            Ok(raw) => raw,
            Err(e) => return Some(Err(e)),
        };
        match raw.decode(self.framer.label()) {
            Ok((flow, graph)) => {
                if !self.seen.insert(flow.clone()) {
                    let e = SnapshotError::at(format!("duplicate flow {flow}"), raw.offset)
                        .with_entry(raw.index);
                    return Some(Err(self.framer.fail(e)));
                }
                self.decoded += 1;
                Some(Ok((flow, graph)))
            }
            Err(e) => {
                // decode already attached entry/offset/label; fuse only
                self.framer.fuse_iter();
                Some(Err(e))
            }
        }
    }
}

/// Open a snapshot file as a byte source, decoding gzip-compressed
/// streams transparently: a path ending in `.gz` is wrapped in a
/// streaming [`flate2`] inflater, so compressed snapshots ride the same
/// framer/reader as plain ones without a separate decompress step (see
/// `docs/SNAPSHOT_FORMAT.md`). The container format (JSON or binary) is
/// *not* decided here — the framer/reader sniffs it from the first
/// bytes, after decompression, so `.json`, `.json.gz`, `.rsnb`, and
/// `.rsnb.gz` all open the same way.
pub fn snapshot_source(path: &Path) -> std::io::Result<Box<dyn Read + Send>> {
    let file = std::fs::File::open(path)?;
    if path.extension().is_some_and(|ext| ext == "gz") {
        Ok(Box::new(flate2::read::GzDecoder::new(file)))
    } else {
        Ok(Box::new(file))
    }
}

/// A record-by-record writer of the snapshot wire format — the streaming
/// counterpart of [`Snapshot::to_json`]. Feeding the same records in
/// flow order produces byte-identical output; any feed order produces a
/// valid snapshot (readers do not require ordering).
///
/// Call [`SnapshotWriter::finish`] to emit the closing brackets; a
/// dropped, unfinished writer leaves a truncated document.
pub struct SnapshotWriter<W: Write> {
    out: W,
    written: usize,
}

impl<W: Write> SnapshotWriter<W> {
    /// Start a snapshot document on `out` (writes the header
    /// immediately).
    pub fn new(mut out: W) -> std::io::Result<SnapshotWriter<W>> {
        out.write_all(b"{\"fecs\":[")?;
        Ok(SnapshotWriter { out, written: 0 })
    }

    /// Append one `(flow, graph)` record. The caller is responsible for
    /// not writing the same flow twice (streaming readers reject
    /// duplicates).
    pub fn write(&mut self, flow: &FlowSpec, graph: &ForwardingGraph) -> std::io::Result<()> {
        let entry = Value::obj(vec![("flow", flow.to_value()), ("graph", graph.to_value())]);
        let json = serde_json::to_string(&entry)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if self.written > 0 {
            self.out.write_all(b",")?;
        }
        self.out.write_all(json.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Close the document and hand back the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.out.write_all(b"]}")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A record-by-record writer of the *binary* snapshot container
/// (`docs/SNAPSHOT_FORMAT.md`): the [`BINARY_MAGIC`]/[`BINARY_VERSION`]
/// header, one length-prefixed `(flow, graph)` span pair per record,
/// and a sentinel end marker emitted by
/// [`BinarySnapshotWriter::finish`]. Record spans are the exact bytes
/// the JSON writer would have produced for the same values, so packing
/// and unpacking are byte-exact inverses and both containers hash (and
/// therefore byte-admit) identically.
pub struct BinarySnapshotWriter<W: Write> {
    out: W,
    written: usize,
}

impl<W: Write> BinarySnapshotWriter<W> {
    /// Start a binary snapshot on `out` (writes the header immediately).
    pub fn new(mut out: W) -> std::io::Result<BinarySnapshotWriter<W>> {
        out.write_all(&BINARY_MAGIC)?;
        out.write_all(&BINARY_VERSION.to_le_bytes())?;
        Ok(BinarySnapshotWriter { out, written: 0 })
    }

    /// Append one `(flow, graph)` record. The caller is responsible for
    /// not writing the same flow twice (streaming readers reject
    /// duplicates).
    pub fn write(&mut self, flow: &FlowSpec, graph: &ForwardingGraph) -> std::io::Result<()> {
        let invalid = |e: serde_json::Error| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
        };
        let flow_json = serde_json::to_string(&flow.to_value()).map_err(invalid)?;
        let graph_json = serde_json::to_string(&graph.to_value()).map_err(invalid)?;
        self.write_raw(flow_json.as_bytes(), graph_json.as_bytes())
    }

    /// Append one record from already-serialized value spans — the
    /// `rela snapshot pack` passthrough, which moves records between
    /// containers without ever decoding them.
    pub fn write_raw(&mut self, flow: &[u8], graph: &[u8]) -> std::io::Result<()> {
        if flow.len() > BINARY_FLOW_CAP as usize || graph.len() > BINARY_GRAPH_CAP as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "record span exceeds the binary format's length cap",
            ));
        }
        self.out.write_all(&(flow.len() as u32).to_le_bytes())?;
        self.out.write_all(flow)?;
        self.out.write_all(&(graph.len() as u32).to_le_bytes())?;
        self.out.write_all(graph)?;
        self.written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Write the end marker and hand back the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.out.write_all(&BINARY_SENTINEL.to_le_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// One aligned traffic class: its pre- and post-change forwarding graphs.
#[derive(Debug, Clone)]
pub struct AlignedFec {
    /// The traffic descriptor.
    pub flow: FlowSpec,
    /// Pre-change forwarding (empty graph if the flow was not carried).
    pub pre: ForwardingGraph,
    /// Post-change forwarding (empty graph if the flow is not carried).
    pub post: ForwardingGraph,
}

impl Serialize for AlignedFec {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("flow", self.flow.to_value()),
            ("pre", self.pre.to_value()),
            ("post", self.post.to_value()),
        ])
    }
}

/// A pre/post snapshot pair, aligned per flow.
#[derive(Debug, Clone, Default)]
pub struct SnapshotPair {
    /// Aligned per-FEC entries, in flow order.
    pub fecs: Vec<AlignedFec>,
}

impl Serialize for SnapshotPair {
    fn to_value(&self) -> Value {
        Value::obj(vec![("fecs", self.fecs.to_value())])
    }
}

impl SnapshotPair {
    /// Join two snapshots on the flow key. Flows present in either side
    /// appear once; the missing side gets an empty graph.
    pub fn align(pre: &Snapshot, post: &Snapshot) -> SnapshotPair {
        let mut keys: Vec<&FlowSpec> = pre.fecs.keys().chain(post.fecs.keys()).collect();
        keys.sort();
        keys.dedup();
        let fecs = keys
            .into_iter()
            .map(|flow| AlignedFec {
                flow: flow.clone(),
                pre: pre.get(flow).cloned().unwrap_or_default(),
                post: post.get(flow).cloned().unwrap_or_default(),
            })
            .collect();
        SnapshotPair { fecs }
    }

    /// Number of aligned traffic classes.
    pub fn len(&self) -> usize {
        self.fecs.len()
    }

    /// True if no traffic classes are present.
    pub fn is_empty(&self) -> bool {
        self.fecs.is_empty()
    }

    /// Serialize to the JSON exchange format.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::linear_graph;
    use crate::prefix::Ipv4Prefix;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn flow(dst: &str, ingress: &str) -> FlowSpec {
        FlowSpec::new(p(dst), ingress)
    }

    #[test]
    fn insert_and_get() {
        let mut snap = Snapshot::new();
        let f = flow("10.0.0.0/24", "x1");
        snap.insert(f.clone(), linear_graph(&["x1", "A1", "D1"]));
        assert_eq!(snap.len(), 1);
        assert!(snap.get(&f).is_some());
        assert!(snap.get(&flow("10.0.1.0/24", "x1")).is_none());
    }

    #[test]
    fn align_joins_on_flow_key() {
        let f1 = flow("10.0.0.0/24", "x1");
        let f2 = flow("10.0.1.0/24", "x1");
        let f3 = flow("10.0.2.0/24", "x2");
        let mut pre = Snapshot::new();
        pre.insert(f1.clone(), linear_graph(&["x1", "A1"]));
        pre.insert(f2.clone(), linear_graph(&["x1", "B1"]));
        let mut post = Snapshot::new();
        post.insert(f1.clone(), linear_graph(&["x1", "A1"]));
        post.insert(f3.clone(), linear_graph(&["x2", "C1"]));

        let pair = SnapshotPair::align(&pre, &post);
        assert_eq!(pair.len(), 3);
        let by_flow: BTreeMap<_, _> = pair.fecs.iter().map(|e| (e.flow.clone(), e)).collect();
        // f1: both sides present
        assert!(by_flow[&f1].pre.carries_traffic());
        assert!(by_flow[&f1].post.carries_traffic());
        // f2: removed by the change
        assert!(by_flow[&f2].pre.carries_traffic());
        assert!(!by_flow[&f2].post.carries_traffic());
        // f3: added by the change
        assert!(!by_flow[&f3].pre.carries_traffic());
        assert!(by_flow[&f3].post.carries_traffic());
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut snap = Snapshot::new();
        snap.insert(flow("10.0.0.0/24", "x1"), linear_graph(&["x1", "A1", "D1"]));
        let json = snap.to_json().unwrap();
        let back = Snapshot::from_reader(json.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.iter().next().unwrap().1, snap.iter().next().unwrap().1);
    }

    #[test]
    fn pair_json_roundtrip() {
        let mut pre = Snapshot::new();
        pre.insert(flow("10.0.0.0/24", "x1"), linear_graph(&["x1", "A1"]));
        let pair = SnapshotPair::align(&pre, &Snapshot::new());
        let json = pair.to_json().unwrap();
        // the pair is written for other tools; its entries read back as
        // the flow and the two graphs it was built from
        let back: Value = serde_json::from_str(&json).unwrap();
        let fecs = back.get("fecs").and_then(Value::as_arr).unwrap();
        assert_eq!(fecs.len(), 1);
        let flow: FlowSpec = serde::field(&fecs[0], "flow").unwrap();
        let pre: ForwardingGraph = serde::field(&fecs[0], "pre").unwrap();
        let post: ForwardingGraph = serde::field(&fecs[0], "post").unwrap();
        assert_eq!(flow, pair.fecs[0].flow);
        assert_eq!(pre, pair.fecs[0].pre);
        assert!(!post.carries_traffic());
    }

    #[test]
    fn from_iterator() {
        let snap: Snapshot = vec![
            (flow("10.0.0.0/24", "x1"), linear_graph(&["x1", "A1"])),
            (flow("10.0.1.0/24", "x2"), linear_graph(&["x2", "B1"])),
        ]
        .into_iter()
        .collect();
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn entry_errors_name_the_failing_index() {
        // entry 1 lacks `graph`: the error must say which of the N failed
        let json = r#"{"fecs": [
            {"flow": {"dst": "10.0.0.0/24", "ingress": "x1"},
             "graph": {"vertices": [], "edges": [], "sources": [], "sinks": [], "drops": []}},
            {"flow": {"dst": "10.0.1.0/24", "ingress": "x1"}}
        ]}"#;
        let err = Snapshot::from_reader(json.as_bytes()).unwrap_err();
        assert_eq!(err.entry_index(), Some(1), "{err}");
        assert!(err.to_string().contains("snapshot entry #1"), "{err}");
        assert!(err.to_string().contains("missing field `graph`"), "{err}");
    }

    // ---- streaming reader/writer ------------------------------------

    fn three_fec_snapshot() -> Snapshot {
        let mut snap = Snapshot::new();
        snap.insert(flow("10.0.0.0/24", "x1"), linear_graph(&["x1", "A1", "D1"]));
        snap.insert(flow("10.0.1.0/24", "x1"), linear_graph(&["x1", "B1"]));
        snap.insert(flow("10.0.2.0/24", "x2"), linear_graph(&["x2", "C1"]));
        snap
    }

    #[test]
    fn streaming_reader_agrees_with_batch_loader() {
        let snap = three_fec_snapshot();
        let json = snap.to_json().unwrap();
        let streamed = Snapshot::from_reader(json.as_bytes()).unwrap();
        assert_eq!(streamed.len(), snap.len());
        for ((f1, g1), (f2, g2)) in streamed.iter().zip(snap.iter()) {
            assert_eq!(f1, f2);
            assert_eq!(g1, g2);
        }
    }

    #[test]
    fn streaming_writer_matches_to_json_bytes() {
        let snap = three_fec_snapshot();
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        for (f, g) in snap.iter() {
            writer.write(f, g).unwrap();
        }
        assert_eq!(writer.written(), 3);
        let bytes = writer.finish().unwrap();
        // fed in flow order, the writer reproduces to_json byte-for-byte
        assert_eq!(String::from_utf8(bytes).unwrap(), snap.to_json().unwrap());
    }

    #[test]
    fn mid_record_truncation_reports_offset_and_entry() {
        let json = three_fec_snapshot().to_json().unwrap();
        // cut inside the second record
        let second = json.match_indices("{\"flow\"").nth(1).unwrap().0;
        let cut = &json[..second + 20];
        let err = Snapshot::from_reader(cut.as_bytes()).unwrap_err();
        assert_eq!(err.entry_index(), Some(1), "{err}");
        let offset = err.byte_offset().expect("offset is tracked");
        assert!(offset as usize <= cut.len());
        assert!(offset as usize >= second, "{err}");
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn duplicate_flow_keys_are_rejected_with_index() {
        let g = linear_graph(&["x1", "A1"]);
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        writer.write(&flow("10.0.0.0/24", "x1"), &g).unwrap();
        writer.write(&flow("10.0.1.0/24", "x1"), &g).unwrap();
        writer.write(&flow("10.0.0.0/24", "x1"), &g).unwrap(); // dup of #0
        let bytes = writer.finish().unwrap();
        let err = Snapshot::from_reader(&bytes[..]).unwrap_err();
        assert_eq!(err.entry_index(), Some(2), "{err}");
        assert!(err.to_string().contains("duplicate flow"), "{err}");
        assert!(err.byte_offset().is_some());
    }

    #[test]
    fn non_object_top_level_is_rejected() {
        for bad in ["[]", "42", "\"fecs\"", "null"] {
            let err = Snapshot::from_reader(bad.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("expected an object"), "{err}");
        }
        // an object without `fecs`, and one with a stray leading field
        let err = Snapshot::from_reader(&b"{}"[..]).unwrap_err();
        assert!(err.to_string().contains("missing field `fecs`"), "{err}");
        let err = Snapshot::from_reader(&br#"{"meta": 1, "fecs": []}"#[..]).unwrap_err();
        assert!(
            err.to_string().contains("expected the `fecs` field"),
            "{err}"
        );
        // trailing fields after the records are also structural errors
        let err = Snapshot::from_reader(&br#"{"fecs": [], "meta": 1}"#[..]).unwrap_err();
        assert!(err.to_string().contains("unexpected field `meta`"), "{err}");
    }

    #[test]
    fn record_level_mismatches_carry_entry_and_offset() {
        let json = br#"{"fecs": [{"graph": {"vertices": [], "edges": [],
                        "sources": [], "sinks": [], "drops": []}}]}"#;
        let err = Snapshot::from_reader(&json[..]).unwrap_err();
        assert_eq!(err.entry_index(), Some(0));
        assert!(err.to_string().contains("missing field `flow`"), "{err}");
        assert!(err.byte_offset().is_some());
    }

    #[test]
    fn reader_is_fused_after_an_error() {
        let mut reader = SnapshotReader::new(&b"[]"[..]);
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    #[test]
    fn error_label_prefixes_the_message() {
        let reader = SnapshotReader::new(&b"[]"[..]).with_label("pre.json");
        let err = reader.collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(err.label(), Some("pre.json"));
        assert!(err.to_string().starts_with("pre.json: "), "{err}");
    }

    #[test]
    fn framer_spans_decode_to_the_reader_records() {
        let snap = three_fec_snapshot();
        let json = snap.to_json().unwrap();
        let framed: Vec<RawRecord> = SnapshotFramer::new(json.as_bytes(), "pre.json")
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(framed.len(), snap.len());
        for (ix, raw) in framed.iter().enumerate() {
            assert_eq!(raw.index, ix);
            // the span sits at its recorded offset in the document
            let bytes = raw.json_bytes();
            let end = raw.offset as usize + bytes.len();
            assert_eq!(json.as_bytes()[raw.offset as usize..end], bytes[..]);
        }
        let decoded: Vec<_> = framed.iter().map(|r| r.decode(None).unwrap()).collect();
        for ((f1, g1), (f2, g2)) in decoded.iter().zip(snap.iter()) {
            assert_eq!(f1, f2);
            assert_eq!(g1, g2);
        }
    }

    #[test]
    fn framer_reports_syntax_errors_like_the_reader() {
        // truncation and structural errors must carry the same entry and
        // offset whether framing or decoding
        let json = three_fec_snapshot().to_json().unwrap();
        let second = json.match_indices("{\"flow\"").nth(1).unwrap().0;
        let cut = &json[..second + 20];
        let reader_err = SnapshotReader::new(cut.as_bytes())
            .with_label("pre.json")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        let framer_err = SnapshotFramer::new(cut.as_bytes(), "pre.json")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(framer_err, reader_err);
    }

    #[test]
    fn raw_record_decode_names_missing_fields_at_the_span() {
        let json = br#"{"fecs": [{"graph": {"vertices": [], "edges": [],
                        "sources": [], "sinks": [], "drops": []}}]}"#;
        // the record cannot be split, so the framer refuses it, at its
        // first byte
        let err = SnapshotFramer::new(&json[..], "pre.json")
            .next()
            .unwrap()
            .unwrap_err();
        assert_eq!(err.entry_index(), Some(0));
        assert_eq!(err.byte_offset(), Some(10));
        assert_eq!(err.label(), Some("pre.json"));
        assert!(err.to_string().contains("missing field `flow`"), "{err}");
    }

    #[test]
    fn gzipped_snapshots_ride_the_same_reader() {
        use flate2::{write::GzEncoder, Compression};
        let snap = three_fec_snapshot();
        let json = snap.to_json().unwrap();
        let mut enc = GzEncoder::new(Vec::new(), Compression::default());
        enc.write_all(json.as_bytes()).unwrap();
        let gz = enc.finish().unwrap();

        let dir = std::env::temp_dir().join(format!("rela-gz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let gz_path = dir.join("snap.json.gz");
        let plain_path = dir.join("snap.json");
        std::fs::write(&gz_path, &gz).unwrap();
        std::fs::write(&plain_path, &json).unwrap();

        for path in [&gz_path, &plain_path] {
            let source = snapshot_source(path).unwrap();
            let streamed: Vec<_> = SnapshotReader::new(source)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(streamed.len(), snap.len());
            for ((f1, g1), (f2, g2)) in streamed.iter().zip(snap.iter()) {
                assert_eq!(f1, f2);
                assert_eq!(g1, g2);
            }
        }
        // offsets in errors are decompressed-stream offsets
        let cut = &gz[..gz.len() / 2];
        std::fs::write(&gz_path, cut).unwrap();
        let err = SnapshotReader::new(snapshot_source(&gz_path).unwrap())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(err.to_string().contains("io error"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- binary container & span splitting --------------------------

    fn pack(snap: &Snapshot) -> Vec<u8> {
        let mut writer = BinarySnapshotWriter::new(Vec::new()).unwrap();
        for (f, g) in snap.iter() {
            writer.write(f, g).unwrap();
        }
        writer.finish().unwrap()
    }

    #[test]
    fn binary_snapshots_ride_the_same_reader() {
        let snap = three_fec_snapshot();
        let packed = pack(&snap);
        assert_eq!(&packed[..4], &BINARY_MAGIC);
        let streamed = Snapshot::from_reader(&packed[..]).unwrap();
        assert_eq!(streamed.len(), snap.len());
        for ((f1, g1), (f2, g2)) in streamed.iter().zip(snap.iter()) {
            assert_eq!(f1, f2);
            assert_eq!(g1, g2);
        }
    }

    #[test]
    fn binary_spans_match_json_spans_byte_for_byte() {
        // byte-level admission requires both containers to yield the
        // exact same record spans — the content hashes must agree
        let snap = three_fec_snapshot();
        let json = snap.to_json().unwrap();
        let packed = pack(&snap);
        let from_json: Vec<RawRecord> = SnapshotFramer::new(json.as_bytes(), "a")
            .collect::<Result<_, _>>()
            .unwrap();
        let from_bin: Vec<RawRecord> = SnapshotFramer::new(&packed[..], "b")
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(from_json.len(), from_bin.len());
        for (a, b) in from_json.iter().zip(&from_bin) {
            assert_eq!(a.json_bytes(), b.json_bytes());
            assert_eq!(a.index, b.index);
            // the located value spans agree too, across body encodings
            let (af, ag) = a.split_spans(None).unwrap();
            let (bf, bg) = b.split_spans(None).unwrap();
            assert_eq!(af, bf);
            assert_eq!(ag, bg);
        }
    }

    #[test]
    fn binary_truncation_reports_offset_and_entry() {
        let snap = three_fec_snapshot();
        let packed = pack(&snap);
        // find the second record's start: walk one record from offset 8
        let second = {
            let flow_len = u32::from_le_bytes(packed[8..12].try_into().unwrap()) as usize;
            let graph_at = 12 + flow_len;
            let graph_len =
                u32::from_le_bytes(packed[graph_at..graph_at + 4].try_into().unwrap()) as usize;
            graph_at + 4 + graph_len
        };
        let cut = &packed[..second + 6];
        let err = SnapshotFramer::new(cut, "pre.bin")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err.entry_index(), Some(1), "{err}");
        assert!(err.byte_offset().unwrap() as usize >= second, "{err}");
        assert!(err.to_string().contains("unexpected end"), "{err}");
        assert_eq!(err.label(), Some("pre.bin"));
    }

    #[test]
    fn binary_end_marker_is_required_and_final() {
        let snap = three_fec_snapshot();
        let packed = pack(&snap);
        // strip the sentinel: truncation error, not a clean end
        let err = SnapshotFramer::new(&packed[..packed.len() - 4], "x")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(err.to_string().contains("unexpected end"), "{err}");
        // trailing bytes after the sentinel are rejected
        let mut extra = packed.clone();
        extra.push(0);
        let err = SnapshotFramer::new(&extra[..], "x")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn binary_version_mismatch_is_rejected() {
        let mut packed = pack(&three_fec_snapshot());
        packed[4..8].copy_from_slice(&7u32.to_le_bytes());
        let err = SnapshotFramer::new(&packed[..], "x")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported binary snapshot version 7"),
            "{err}"
        );
    }

    #[test]
    fn short_inputs_sniff_as_json() {
        // fewer than 4 bytes cannot be a binary header; the JSON reader
        // owns the (syntax) error
        let err = Snapshot::from_reader(&b"{"[..]).unwrap_err();
        assert!(err.byte_offset().is_some(), "{err}");
        let err = Snapshot::from_reader(&b""[..]).unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
    }

    /// A record over one JSON record span that did not come out of a
    /// framer, cut by the scan the JSON framer runs.
    fn from_json_span(span: &[u8], offset: u64, index: usize) -> Result<RawRecord, SnapshotError> {
        let chunk = Arc::new(span.to_vec());
        let mut members = Vec::new();
        let end = frame_value(&chunk, 0, true, &mut members).expect("one JSON value");
        RawRecord::from_framed_json((chunk, 0..end), &members, offset, index)
    }

    #[test]
    fn split_spans_locates_values_across_encodings() {
        let cases = [
            r#"{"flow":{"dst":"10.0.0.0/24"},"graph":[1,2,{"a":"]"}]}"#,
            r#"{ "graph" : [1,2] , "flow" : {"dst":"10.0.0.0/24"} }"#,
            "{\n\t\"flow\": \"f\\\"1\",\n\t\"graph\": null\n}",
            r#"{"extra":7,"flow":true,"graph":"{not json}"}"#,
            r#"{"flow":1,"graph":2}"#,
        ];
        for case in cases {
            let raw = from_json_span(case.as_bytes(), 3, 1).unwrap();
            let (flow, graph) = raw.split_spans(None).unwrap();
            // each located span must itself be a parsable JSON value, and
            // sit at its recorded offset
            for (span, at) in [(flow, raw.flow_at), (graph, raw.graph_at)] {
                serde_json::from_slice::<Value>(&span).unwrap_or_else(|e| panic!("{case}: {e}"));
                let rel = (at - raw.offset) as usize;
                assert_eq!(&case.as_bytes()[rel..rel + span.len()], &span[..], "{case}");
            }
        }
    }

    #[test]
    fn split_spans_missing_fields_match_the_decode_contract() {
        // the framer refuses a record it cannot split, with the message,
        // offset, index and label a keyed decode of it would report
        let cases = [
            (r#"{"graph": null}"#, "missing field `flow`"),
            (r#"{"flow": null}"#, "missing field `graph`"),
            (r#"[{"flow": null, "graph": null}]"#, "missing field `flow`"),
            (
                r#"{"flow": {"graph": 1}, "note": {"graph": 2}}"#,
                "missing field `graph`",
            ),
        ];
        for (record, message) in cases {
            let doc = format!("{{\"fecs\":[{},{record}]}}", record_text(0));
            let offset = 10 + record_text(0).len();
            let err = frame_all(doc.as_bytes()).unwrap_err();
            assert_eq!(err.entry_index(), Some(1));
            assert_eq!(err.byte_offset(), Some(offset as u64));
            assert_eq!(err.label(), Some("doc"));
            assert_eq!(err.message(), message, "{record}");
            let reader = SnapshotReader::new(doc.as_bytes()).with_label("doc");
            assert_eq!(reader.collect::<Result<Vec<_>, _>>().unwrap_err(), err);
            let hand_built = from_json_span(record.as_bytes(), offset as u64, 1).unwrap_err();
            assert_eq!(hand_built.with_source_label("doc"), err);
        }
    }

    #[test]
    fn decode_flow_reads_the_flow_span_and_hands_out_the_graph_span() {
        let snap = three_fec_snapshot();
        for container in [snap.to_json().unwrap().into_bytes(), pack(&snap)] {
            for raw in SnapshotFramer::new(&container[..], "pre") {
                let raw = raw.unwrap();
                let (flow, graph_span) = raw.decode_flow(Some("pre")).unwrap();
                assert_eq!(graph_span, raw.graph);
                let (expect_flow, expect_graph) = raw.decode(None).unwrap();
                assert_eq!(flow, expect_flow);
                assert_eq!(decode_graph_span(&graph_span).unwrap(), expect_graph);
            }
        }
        // a flow of the wrong shape is reported at the record's start,
        // as `decode` reports it
        let raw = from_json_span(br#"{"flow": 7, "graph": null}"#, 5, 2).unwrap();
        let err = raw.decode_flow(None).unwrap_err();
        assert_eq!(err, raw.decode(None).unwrap_err());
        assert_eq!((err.byte_offset(), err.entry_index()), (Some(5), Some(2)));
    }

    #[test]
    fn a_span_that_is_not_json_fails_at_its_own_byte() {
        let snap = three_fec_snapshot();
        let packed = pack(&snap);
        let second = SnapshotFramer::new(&packed[..], "x")
            .nth(1)
            .unwrap()
            .unwrap();
        // a graph span cut short, one with a stray byte, and one with
        // something after its value; then the same for the flow span
        let graph_at = second.graph_at as usize;
        let flow_at = second.flow_at as usize;
        let cases = [
            (
                graph_at + 12,
                b'#',
                "unexpected character `#`",
                graph_at + 12,
            ),
            (graph_at, b' ', "trailing characters", graph_at + 11),
            (
                flow_at + second.flow.len() - 1,
                b' ',
                "unexpected end",
                flow_at + second.flow.len(),
            ),
        ];
        for (byte, with, message, at) in cases {
            let mut doc = packed.clone();
            doc[byte] = with;
            let raw = SnapshotFramer::new(&doc[..], "x").nth(1).unwrap().unwrap();
            let err = raw.decode(Some("x")).unwrap_err();
            assert!(
                err.message()
                    .starts_with(&format!("record span: {message}")),
                "{err}"
            );
            assert_eq!(err.byte_offset(), Some(at as u64), "{err}");
            assert_eq!(err.entry_index(), Some(1));
            // no line or column: they would count into the span
            assert!(!err.to_string().contains("line"), "{err}");
            let read = SnapshotReader::new(&doc[..]).with_label("x");
            assert_eq!(read.collect::<Result<Vec<_>, _>>().unwrap_err(), err);
        }
    }

    // ---- in-place JSON framing over the chunk arena -------------------

    const EMPTY_GRAPH: &str = r#"{"vertices":[],"edges":[],"sources":[],"sinks":[],"drops":[]}"#;

    /// A canonical record for flow `10.0.<n>.0/24`.
    fn record_text(n: usize) -> String {
        format!(r#"{{"flow":{{"dst":"10.0.{n}.0/24","ingress":"x1"}},"graph":{EMPTY_GRAPH}}}"#)
    }

    fn frame_all(doc: &[u8]) -> Result<Vec<RawRecord>, SnapshotError> {
        SnapshotFramer::new(doc, "doc").collect()
    }

    /// The chunk a framed record's spans share.
    fn chunk_of(raw: &RawRecord) -> &Arc<Vec<u8>> {
        match &raw.graph.buf {
            SpanBuf::Owned(chunk) => chunk,
            SpanBuf::Mapped(_) => panic!("not a buffered record"),
        }
    }

    #[test]
    fn a_record_straddling_a_chunk_end_frames_the_same_at_every_offset() {
        let records = [record_text(0), record_text(1), record_text(2)];
        let head = "{\"fecs\":[";
        // pad the header so the chunk ends `into` bytes into the second
        // record — from its first byte to the comma after it
        for into in 0..=records[1].len() + 1 {
            let second_at = FRAME_BATCH_BYTES - into;
            let pad = second_at - head.len() - records[0].len() - 1;
            let doc = format!(
                "{head}{}{},{},{}]}}",
                " ".repeat(pad),
                records[0],
                records[1],
                records[2]
            );
            let framed = frame_all(doc.as_bytes()).unwrap();
            assert_eq!(framed.len(), 3, "cut {into} bytes in");
            let mut offset = head.len() + pad;
            for (ix, (raw, text)) in framed.iter().zip(&records).enumerate() {
                assert_eq!(raw.json_bytes(), text.as_bytes(), "cut {into} bytes in");
                assert_eq!((raw.offset, raw.index), (offset as u64, ix));
                let (flow, graph) = raw.split_spans(None).unwrap();
                assert_eq!(graph.as_slice(), EMPTY_GRAPH.as_bytes());
                assert!(text.contains(std::str::from_utf8(&flow).unwrap()));
                offset += text.len() + 1;
            }
            // a record the chunk end cuts is carried, whole, to the next
            assert_eq!(
                Arc::ptr_eq(chunk_of(&framed[0]), chunk_of(&framed[1])),
                into >= records[1].len(),
                "cut {into} bytes in"
            );
        }
    }

    #[test]
    fn a_record_larger_than_several_chunks_gets_a_chunk_of_its_own() {
        let blob = "é".repeat(2 * FRAME_BATCH_BYTES);
        let big = format!(
            r#"{{"flow":{{"dst":"10.0.1.0/24","ingress":"x1"}},"note":"{blob}","graph":{EMPTY_GRAPH}}}"#
        );
        let doc = format!("{{\"fecs\":[{},{big},{}]}}", record_text(0), record_text(2));
        let framed = frame_all(doc.as_bytes()).unwrap();
        assert_eq!(framed.len(), 3);
        assert_eq!(framed[1].offset as usize, 9 + record_text(0).len() + 1);
        let graph_at = framed[1].offset as usize + big.len() - 1 - EMPTY_GRAPH.len();
        assert_eq!(framed[1].graph_at as usize, graph_at);
        let (_, graph) = framed[1].split_spans(None).unwrap();
        assert_eq!(graph.as_slice(), EMPTY_GRAPH.as_bytes());
        assert!(chunk_of(&framed[1]).len() >= big.len());
        assert_eq!(framed[2].json_bytes(), record_text(2).as_bytes());
        assert_eq!(
            framed[2].offset as usize,
            doc.len() - 2 - record_text(2).len()
        );
        // cut inside the blob: the string is unterminated where the
        // input ends, however many chunks it grew through
        let cut = &doc.as_bytes()[..doc.len() / 2];
        let err = frame_all(cut).unwrap_err();
        assert!(err.to_string().contains("unterminated string"), "{err}");
        assert_eq!(err.byte_offset(), Some(cut.len() as u64));
        assert_eq!(err.entry_index(), Some(1));
    }

    #[test]
    fn trailers_and_whitespace_tails_cross_chunk_ends() {
        let head = "{\"fecs\":[";
        let record = record_text(0);
        // `]` ends the first chunk, `}` opens the second, and three
        // chunks of blank lines follow
        let pad = FRAME_BATCH_BYTES - head.len() - record.len() - 1;
        let tail = " \n".repeat(3 * FRAME_BATCH_BYTES / 2);
        let doc = format!("{head}{}{record}]}}{tail}", "\n".repeat(pad));
        assert_eq!(doc.as_bytes()[FRAME_BATCH_BYTES - 1], b']');
        let framed = frame_all(doc.as_bytes()).unwrap();
        assert_eq!(framed.len(), 1);
        assert_eq!(framed[0].json_bytes(), record.as_bytes());
        // anything but whitespace after the tail is addressed by byte,
        // line and column, all counted across the chunks
        let err = frame_all(format!("{doc}x").as_bytes()).unwrap_err();
        let lines = pad + 3 * FRAME_BATCH_BYTES / 2 + 1;
        assert_eq!(
            err.to_string(),
            format!(
                "doc: trailing characters at line {lines} column 1 (byte {})",
                doc.len()
            )
        );
        // and a trailer cut by the end of the input says what it lacks
        let cut = &doc.as_bytes()[..FRAME_BATCH_BYTES];
        let err = frame_all(cut).unwrap_err();
        assert!(
            err.to_string()
                .contains("unexpected end of input (expected `,` or `}`)"),
            "{err}"
        );
        assert_eq!(err.byte_offset(), Some(FRAME_BATCH_BYTES as u64));
    }

    #[test]
    fn non_canonical_records_frame_to_the_same_spans_and_hashes() {
        let flow = r#"{"dst":"10.0.0.0/24","ingress":"x1"}"#;
        let graph = serde_json::to_string(&linear_graph(&["x1", "A1"])).unwrap();
        let canonical = format!(r#"{{"flow":{flow},"graph":{graph}}}"#);
        let others = [
            format!(r#"{{"graph":{graph},"flow":{flow}}}"#),
            format!(r#"{{"note":[1,{{"flow":0}}],"flow":{flow},"extra":"graph","graph":{graph}}}"#),
            format!("{{\n\t\"flow\" : {flow} ,\r\n\t\"graph\" :\t{graph}\n}}"),
            // keys spelled with escapes are the same keys
            format!(r#"{{"fl\u006fw":{flow},"gr\u0061ph":{graph}}}"#),
            format!(r#"{{"graph":{graph},"flow":{flow},"fl\\ow":0}}"#),
        ];
        let doc = format!("{{\"fecs\": [{canonical},{}]}}", others.join(" , "));
        let framed = frame_all(doc.as_bytes()).unwrap();
        assert_eq!(framed.len(), 6);
        let expected = framed[0].decode(None).unwrap();
        for raw in &framed {
            let (flow_span, graph_span) = raw.split_spans(None).unwrap();
            assert_eq!(flow_span.as_slice(), flow.as_bytes());
            assert_eq!(graph_span.as_slice(), graph.as_bytes());
            assert_eq!(
                crate::content_hash128(&graph_span),
                crate::content_hash128(graph.as_bytes())
            );
            let (f, g) = raw.decode_flow(None).unwrap();
            assert_eq!((f, &g), (expected.0.clone(), &graph_span));
            assert_eq!(raw.decode(None).unwrap(), expected);
            // every record glues to the canonical one
            assert_eq!(raw.json_bytes(), canonical.as_bytes());
        }
    }

    #[test]
    fn a_repeated_flow_or_graph_key_is_refused_by_every_accessor() {
        let flow = r#"{"dst":"10.0.0.0/24","ingress":"x1"}"#;
        let cases = [
            (
                format!(r#"{{"flow":{flow},"graph":{EMPTY_GRAPH},"graph":{EMPTY_GRAPH}}}"#),
                "graph",
            ),
            (
                format!(r#"{{"flow":{flow},"graph":{EMPTY_GRAPH},"flow":{flow}}}"#),
                "flow",
            ),
            (
                format!(r#"{{"flow":{flow},"graph":null,"graph":{EMPTY_GRAPH}}}"#),
                "graph",
            ),
            (
                format!(r#"{{"flow":{flow},"graph":{EMPTY_GRAPH},"graph":{EMPTY_GRAPH}}}"#),
                "graph",
            ),
            // a repeated flow outranks a repeated graph, wherever it sits
            (
                format!(r#"{{"graph":null,"graph":null,"flow":{flow},"flow":{flow}}}"#),
                "flow",
            ),
        ];
        for (record, name) in cases {
            let doc = format!("{{\"fecs\":[{},{record}]}}", record_text(9));
            let offset = 10 + record_text(9).len();
            let expected =
                format!("doc: snapshot entry #1: duplicate field `{name}` (byte {offset})");
            // the framer refuses the record: no accessor ever sees it
            let err = frame_all(doc.as_bytes()).unwrap_err();
            assert_eq!(err.to_string(), expected);
            let hand_built = from_json_span(record.as_bytes(), offset as u64, 1).unwrap_err();
            assert_eq!(hand_built.with_source_label("doc").to_string(), expected);
            // the serial reader names the same record
            let err = SnapshotReader::new(doc.as_bytes())
                .with_label("doc")
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            assert_eq!(err.to_string(), expected);
        }
        // a nested `flow` key is the graph's own business
        let nested =
            format!(r#"{{"flow":{flow},"graph":{EMPTY_GRAPH},"meta":{{"flow":1,"flow":2}}}}"#);
        from_json_span(nested.as_bytes(), 0, 0)
            .unwrap()
            .decode(None)
            .unwrap();
    }

    #[test]
    fn a_chunk_is_freed_when_its_last_span_drops() {
        let mut doc = String::from("{\"fecs\":[");
        for n in 0..10_000 {
            if n > 0 {
                doc.push(',');
            }
            doc.push_str(&record_text(n));
        }
        doc.push_str("]}");
        assert!(doc.len() > 16 * FRAME_BATCH_BYTES);
        let mut chunks: Vec<std::sync::Weak<Vec<u8>>> = Vec::new();
        let mut most_alive = 0;
        let mut held = None;
        for raw in SnapshotFramer::new(doc.as_bytes(), "doc") {
            let raw = raw.unwrap();
            let chunk = chunk_of(&raw);
            if chunks.last().map(std::sync::Weak::as_ptr) != Some(Arc::as_ptr(chunk)) {
                chunks.push(Arc::downgrade(chunk));
            }
            // one graph span kept from an early record pins exactly its
            // own chunk, however far the drain runs
            if raw.index == 100 {
                held = Some(raw.split_spans(None).unwrap().1);
            }
            drop(raw);
            most_alive = most_alive.max(chunks.iter().filter(|c| c.strong_count() > 0).count());
        }
        assert!(chunks.len() > 16, "{} chunks", chunks.len());
        assert!(most_alive <= 2, "{most_alive} chunks alive at once");
        let alive: Vec<usize> = (0..chunks.len())
            .filter(|&ix| chunks[ix].strong_count() > 0)
            .collect();
        assert_eq!(alive.len(), 1, "only the held span's chunk survives");
        assert_eq!(held.unwrap().as_slice(), EMPTY_GRAPH.as_bytes());
    }

    // ---- one loop, two grammars: chunk ends and failing reads ---------

    /// What a framer hands its consumer: every record's offset, index
    /// and value bytes, then the rendered error if it ended in one.
    type Framed = (Vec<(u64, usize, Vec<u8>, Vec<u8>)>, Option<String>);

    fn drain(framer: impl Iterator<Item = Result<RawRecord, SnapshotError>>) -> Framed {
        let mut records = Vec::new();
        for item in framer {
            match item {
                Ok(raw) => {
                    let (flow, graph) = raw.split_spans(Some("t")).unwrap();
                    records.push((raw.offset, raw.index, flow.to_vec(), graph.to_vec()));
                }
                Err(e) => return (records, Some(e.to_string())),
            }
        }
        (records, None)
    }

    /// A buffered framer whose chunks hold `chunk_bytes`.
    fn chunked<R: Read>(source: R, chunk_bytes: usize) -> SnapshotFramer<R> {
        let chunks = Chunks::with_chunk_bytes(source, chunk_bytes);
        SnapshotFramer::over(FramerBytes::Chunks(chunks), Some("t".to_owned()))
    }

    /// The mapped framer over a file holding `bytes`.
    fn mapped(bytes: &[u8]) -> SnapshotFramer<Box<dyn Read + Send>> {
        static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("rela-sweep-{}-{n}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let map = MmapSource::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        SnapshotFramer::from_map(map, "t")
    }

    #[test]
    fn buffered_binary_framing_equals_mapped_framing_at_every_chunk_end() {
        use crate::faultio::{FaultPlan, FaultyRead};
        let intact = pack(&three_fec_snapshot());
        let header = &intact[..8];
        let flow = [&4u32.to_le_bytes()[..], b"flow"].concat();
        let mut cases: Vec<Vec<u8>> = (0..=intact.len())
            .map(|cut| intact[..cut].to_vec())
            .collect();
        cases.extend([
            [&intact[..], b"\0"].concat(),
            [&BINARY_MAGIC[..], &7u32.to_le_bytes(), &intact[8..]].concat(),
            [header, &(BINARY_FLOW_CAP + 1).to_le_bytes()].concat(),
            [header, &flow, &(BINARY_GRAPH_CAP + 1).to_le_bytes()].concat(),
            [header, &flow, &BINARY_SENTINEL.to_le_bytes()].concat(),
        ]);
        for case in &cases {
            let expected = drain(mapped(case));
            if *case == intact {
                assert_eq!((expected.0.len(), &expected.1), (3, &None));
            } else {
                assert!(expected.1.is_some(), "{} bytes framed clean", case.len());
            }
            // the first chunk ends at every offset, the later ones
            // wherever the carried records leave them
            for chunk_bytes in 1..=case.len() + 1 {
                let got = drain(chunked(&case[..], chunk_bytes));
                assert_eq!(
                    got,
                    expected,
                    "{} bytes, chunks of {chunk_bytes}",
                    case.len()
                );
            }
            for seed in 1..=3 {
                let plan = format!("seed={seed},short-read=0.7,eintr=0.3");
                for chunk_bytes in [5, FRAME_BATCH_BYTES] {
                    let source = FaultyRead::new(&case[..], FaultPlan::parse(&plan).unwrap());
                    let got = drain(chunked(source, chunk_bytes));
                    assert_eq!(got, expected, "{} bytes, {plan}", case.len());
                }
            }
        }
    }

    /// The records of a compact `{"fecs":[…]}` document as the bare
    /// scan frames them, one at a time and with no memo: offset, flow
    /// and graph bytes, then the scan's message and byte if it stopped.
    type Scanned = (Vec<(u64, Vec<u8>, Vec<u8>)>, Option<(String, u64)>);

    fn scanned(doc: &[u8]) -> Scanned {
        let mut pos = b"{\"fecs\":[".len();
        let mut records = Vec::new();
        loop {
            match frame_value(doc, pos, true, &mut Vec::new()) {
                Ok(end) => {
                    let raw = from_json_span(&doc[pos..end], 0, 0).unwrap();
                    let (flow, graph) = raw.split_spans(None).unwrap();
                    records.push((pos as u64, flow.to_vec(), graph.to_vec()));
                    if doc[end] != b',' {
                        return (records, None);
                    }
                    pos = end + 1;
                }
                Err(Stop::Syntax { message, at }) => return (records, Some((message, at as u64))),
                Err(Stop::NeedMore) => unreachable!("the whole document is in hand"),
            }
        }
    }

    #[test]
    fn a_repeated_graph_frames_alike_at_every_chunk_size() {
        // one graph, long enough for the framer's scan memo to keep, in
        // every record
        let hops: Vec<String> = (0..12).map(|i| format!("R{i}")).collect();
        let hops: Vec<&str> = hops.iter().map(String::as_str).collect();
        let mut snap = Snapshot::new();
        for n in 0..8 {
            snap.insert(flow(&format!("10.0.{n}.0/24"), "R0"), linear_graph(&hops));
        }
        let intact = snap.to_json().unwrap().into_bytes();
        let (records, _) = scanned(&intact);
        let (fifth, _, graph) = &records[4];
        assert!(
            graph.len() >= serde_json::scan::MEMO_MIN_BYTES,
            "{}",
            graph.len()
        );
        let record_len = (records[1].0 - records[0].0) as usize;
        // where the fifth record's graph sits, and three edits of it: a
        // valid one, a syntax error inside it, and its last byte
        let at = *fifth as usize
            + intact[*fifth as usize..]
                .windows(8)
                .position(|w| w == b"\"graph\":")
                .unwrap()
            + 8;
        let edit = |offset: usize, byte: u8| {
            let mut doc = intact.clone();
            doc[at + offset] = byte;
            doc
        };
        let inside = graph.windows(4).position(|w| w == b"\"R7\"").unwrap();
        let comma = graph.iter().rposition(|&b| b == b',').unwrap();
        let docs = [
            intact.clone(),
            edit(inside + 2, b'9'),
            edit(comma, b';'),
            edit(graph.len() - 1, b']'),
        ];
        for doc in &docs {
            let (bare, stopped) = scanned(doc);
            let reference = drain(chunked(&doc[..], doc.len()));
            let framed: Vec<_> = reference
                .0
                .iter()
                .map(|(o, _, f, g)| (*o, f.clone(), g.clone()))
                .collect();
            assert_eq!(framed, bare, "the framer frames what the bare scan does");
            match (&stopped, &reference.1) {
                (None, None) => assert_eq!(bare.len(), 8),
                (Some((message, byte)), Some(e)) => {
                    assert_eq!(bare.len(), 4, "{e}");
                    let column = byte + 1; // a compact document is one line
                    assert_eq!(
                        e,
                        &format!(
                            "t: snapshot entry #4: {message} at line 1 column {column} (byte {byte})"
                        )
                    );
                }
                (expected, got) => panic!("bare scan stopped on {expected:?}, framer on {got:?}"),
            }
            for chunk_bytes in 1..=2 * record_len {
                let got = drain(chunked(&doc[..], chunk_bytes));
                assert_eq!(got, reference, "chunks of {chunk_bytes}");
            }
        }
    }

    /// Yields its bytes, then fails every read.
    struct FailAfter<'a>(&'a [u8]);

    impl Read for FailAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("link down"));
            }
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_read_that_fails_after_k_bytes_is_reported_at_byte_k_with_its_entry() {
        let snap = three_fec_snapshot();
        // (container, bytes before the first record, bytes after the last)
        let containers = [
            (snap.to_json().unwrap().into_bytes(), 9, 1),
            (pack(&snap), 8, 4),
        ];
        for (doc, head, tail) in containers {
            // where each record ends — after its graph, and a JSON
            // record's `}` — an entry is "being read" from the end of the
            // one before it, separator included
            let ends: Vec<usize> = frame_all(&doc)
                .unwrap()
                .iter()
                .map(|raw| raw.graph_at as usize + raw.graph.len() + usize::from(doc[0] == b'{'))
                .collect();
            assert_eq!(ends[2] + tail + usize::from(doc[0] == b'{'), doc.len());
            for k in 0..=doc.len() {
                let in_entries = k >= head && k < ends[2] + tail;
                let entry = in_entries.then(|| ends.iter().filter(|&&end| end <= k).count());
                for chunk_bytes in [1, 13, FRAME_BATCH_BYTES] {
                    let mut records = 0;
                    let mut error = None;
                    for item in chunked(FailAfter(&doc[..k]), chunk_bytes) {
                        match item {
                            Ok(_) => records += 1,
                            Err(e) => error = Some(e),
                        }
                    }
                    let e = error.expect("the read failure surfaces");
                    assert!(e.message().starts_with("io error: link down"), "{e}");
                    assert_eq!(e.byte_offset(), Some(k as u64), "{e}");
                    assert_eq!(e.entry_index(), entry, "{k} good bytes: {e}");
                    assert_eq!(e.label(), Some("t"));
                    // every record that ended before the failure was framed
                    assert_eq!(records, ends.iter().filter(|&&end| end <= k).count());
                }
            }
        }
    }
}
