//! # rela-net
//!
//! Network modelling substrate for relational network verification:
//! the location hierarchy and database with `where` queries (paper §4),
//! per-FEC forwarding DAGs and their FSA encodings (paper §6.1),
//! granularity views (interface / device / group), IPv4 prefixes with
//! longest-prefix matching, flow equivalence classes, and snapshot
//! (de)serialization.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the mmap module opts back in with a
// scoped `#![allow(unsafe_code)]` for its pointer/length mapping — the
// only unsafe in the crate.
#![deny(unsafe_code)]

mod behavior;
mod chunk;
mod db;
mod delta;
pub mod faultio;
mod fec;
mod fsa;
mod granularity;
mod graph;
mod location;
mod mmap;
mod prefix;
mod snapshot;

pub use behavior::{behavior_hash, canonical_graph, content_hash128, BehaviorHash, ParseHashError};
pub use chunk::{chunk_pipe, ChunkReader, ChunkSender};
pub use db::{AttrPred, LocationDb};
pub use delta::{
    diff_side, pair_epoch, record_mix, scan_side, side_fold, write_delta, ScannedRecord, SideDiff,
    SideScan, SnapshotDelta, SnapshotEpoch,
};
pub use fec::FlowSpec;
pub use fsa::{graph_to_fsa, graph_to_fsa_prepared};
pub use granularity::{device_path_to_group, interface_path_to_device};
pub use graph::{linear_graph, Edge, ForwardingGraph, GraphError, VertexId};
pub use location::{glob_match, interface_device, Device, Granularity, DROP_LOCATION};
pub use mmap::MmapSource;
pub use prefix::{Ipv4Prefix, PrefixParseError, PrefixTrie};
pub use rela_automata::{FixedMap, FixedState};
pub use snapshot::{
    decode_graph_span, snapshot_source, AlignedFec, BinarySnapshotWriter, RawRecord, Snapshot,
    SnapshotError, SnapshotFramer, SnapshotPair, SnapshotReader, SnapshotWriter, SpanBytes,
    SpanError, BINARY_MAGIC, BINARY_VERSION, FRAME_BATCH_BYTES,
};
