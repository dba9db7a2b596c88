//! Equivalence of the two RSNB framers: the zero-copy mapped framer
//! (`SnapshotFramer::from_map`) must yield byte-identical span
//! sequences — same record offsets, indices, flow/graph bytes, and
//! sentinel/trailing handling — as the buffered framer reading the same
//! container through `BufReader`, for every record-size mix and at
//! every truncation point. Errors must match to the message byte,
//! offset and entry index included.
//!
//! And what the mapped framer leaves resident: no more than two release
//! windows while it runs, nothing once it is gone.

use proptest::prelude::*;
use rela_net::{
    MmapSource, RawRecord, SnapshotError, SnapshotFramer, BINARY_MAGIC, BINARY_VERSION,
};
use std::io::{BufReader, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The container caps of `docs/SNAPSHOT_FORMAT.md` (private consts in
/// the crate; the framing contract pins their values).
const FLOW_CAP: u32 = 1 << 20;
const GRAPH_CAP: u32 = 64 << 20;

/// Build an RSNB container from raw (flow, graph) byte pairs, with or
/// without the closing sentinel and optional trailing garbage.
fn container(records: &[(Vec<u8>, Vec<u8>)], sentinel: bool, trailing: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    for (flow, graph) in records {
        out.extend_from_slice(&(flow.len() as u32).to_le_bytes());
        out.extend_from_slice(flow);
        out.extend_from_slice(&(graph.len() as u32).to_le_bytes());
        out.extend_from_slice(graph);
    }
    if sentinel {
        out.extend_from_slice(&u32::MAX.to_le_bytes());
    }
    out.extend_from_slice(trailing);
    out
}

/// Spool `bytes` to a fresh temp file and return its path. Written 64
/// KiB at a time, as the daemon spools a body (`rela snapshot pack`
/// writes smaller pieces still): a fault maps in the whole page-cache
/// folio it hits (Linux 6.18 on), and one large write may leave the
/// file in 2 MiB folios, which no release window can split.
fn spool(bytes: &[u8]) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "rela-mmap-framing-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
    ));
    let mut file = std::fs::File::create(&path).unwrap();
    for block in bytes.chunks(64 << 10) {
        file.write_all(block).unwrap();
    }
    path
}

/// One framer's observable output: the framed spans and, if the stream
/// ended in an error, its full rendering.
#[derive(Debug, PartialEq)]
struct Framed {
    records: Vec<(u64, usize, Vec<u8>, Vec<u8>)>,
    error: Option<String>,
}

fn drain(framer: impl Iterator<Item = Result<RawRecord, SnapshotError>>) -> Framed {
    let mut records = Vec::new();
    let mut error = None;
    for item in framer {
        match item {
            Ok(raw) => {
                let (flow, graph) = raw.split_spans(Some("t")).expect("binary records split");
                records.push((raw.offset, raw.index, flow.to_vec(), graph.to_vec()));
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    Framed { records, error }
}

/// Frame `bytes` both ways — buffered from a file reader, mapped in
/// place — and assert the outputs are identical.
fn assert_framers_agree(bytes: &[u8]) {
    let path = spool(bytes);
    let buffered = drain(SnapshotFramer::new(
        BufReader::new(std::fs::File::open(&path).unwrap()),
        "t",
    ));
    let map = MmapSource::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let mapped = drain(SnapshotFramer::from_map(map, "t"));
    assert_eq!(
        buffered,
        mapped,
        "framers diverged on {} bytes",
        bytes.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Intact containers over randomized record sizes (empty spans
    /// included) frame identically both ways.
    #[test]
    fn mapped_and_buffered_framing_agree_on_intact_containers(
        records in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..96),
                proptest::collection::vec(any::<u8>(), 0..768),
            ),
            0..10,
        ),
        sentinel in any::<bool>(),
        trailing in proptest::collection::vec(any::<u8>(), 0..6),
    ) {
        // a missing sentinel is a truncation, trailing bytes after one
        // are an error — both must reproduce identically
        assert_framers_agree(&container(&records, sentinel, &trailing));
    }

    /// Every truncation point of a valid container produces the same
    /// error (message, offset, entry index) from both framers.
    #[test]
    fn mapped_and_buffered_framing_agree_at_every_truncation(
        records in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..48),
                proptest::collection::vec(any::<u8>(), 0..256),
            ),
            1..6,
        ),
        cut_seed in any::<u64>(),
    ) {
        let full = container(&records, true, &[]);
        let cut = (cut_seed % full.len() as u64) as usize;
        assert_framers_agree(&full[..cut]);
    }
}

#[test]
fn flow_spans_at_the_cap_frame_identically() {
    let records = vec![(vec![0x41u8; FLOW_CAP as usize], vec![0x42u8; 8])];
    assert_framers_agree(&container(&records, true, &[]));
}

#[test]
fn flow_spans_over_the_cap_error_identically() {
    // the cap fires at the length prefix, before any span is read, so
    // the record data never needs to exist
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&BINARY_MAGIC);
    bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(FLOW_CAP + 1).to_le_bytes());
    assert_framers_agree(&bytes);
}

#[test]
fn graph_spans_at_the_cap_frame_identically() {
    let records = vec![(b"flow".to_vec(), vec![0u8; GRAPH_CAP as usize])];
    assert_framers_agree(&container(&records, true, &[]));
}

#[test]
fn graph_spans_over_the_cap_error_identically() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&BINARY_MAGIC);
    bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(b"flow");
    bytes.extend_from_slice(&(GRAPH_CAP + 1).to_le_bytes());
    assert_framers_agree(&bytes);
}

#[test]
fn a_sentinel_in_place_of_a_graph_length_errors_identically() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&BINARY_MAGIC);
    bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(b"flow");
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_framers_agree(&bytes);
}

#[test]
fn unsupported_versions_error_identically() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&BINARY_MAGIC);
    bytes.extend_from_slice(&7u32.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_framers_agree(&bytes);
}

#[test]
fn non_rsnb_maps_fall_back_to_the_sniffing_framer() {
    // a mapped JSON snapshot rides the normal stream framer: same
    // records, same spans, no binary assumptions
    let json = br#"{"fecs":[{"flow":{"prefix":"10.0.0.0/24","ingress":"A"},"graph":{"vertices":["A"],"edges":[]}}]}"#;
    let path = spool(json);
    let map = MmapSource::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let framer = SnapshotFramer::from_map(map, "t");
    assert!(!framer.is_mapped());
    let records: Vec<_> = framer.map(|r| r.unwrap()).collect();
    assert_eq!(records.len(), 1);
    let buffered: Vec<_> = SnapshotFramer::new(&json[..], "t")
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(records[0].json_bytes(), buffered[0].json_bytes());
}

/// The resident size, in KiB, of the mapping of this process that
/// contains `addr`, from `/proc/self/smaps`; `None` where the file is
/// missing.
#[cfg(target_os = "linux")]
fn mapping_rss_kib(addr: usize) -> Option<u64> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
    let mut inside = false;
    for line in smaps.lines() {
        let range = line
            .split_whitespace()
            .next()
            .and_then(|r| r.split_once('-'));
        if let Some((start, end)) = range {
            let parse = |hex| usize::from_str_radix(hex, 16).ok();
            inside =
                matches!((parse(start), parse(end)), (Some(s), Some(e)) if s <= addr && addr < e);
        } else if inside && line.starts_with("Rss:") {
            return line.split_whitespace().nth(1)?.parse().ok();
        }
    }
    None
}

/// A mapped container stays resident only within the framer's release
/// window: pages are advised reclaimable one window behind the cursor
/// as it advances, and all of them once the framer is gone, so a
/// mapping that outlives its ingest pins no pages.
#[cfg(target_os = "linux")]
#[test]
fn mapped_framing_holds_two_windows_and_releases_the_tail() {
    const WINDOW_KIB: u64 = 512;
    if !std::path::Path::new("/proc/self/smaps").exists() {
        eprintln!("skipping: no /proc/self/smaps on this host");
        return;
    }
    // over 8 MiB of ~1 KiB records; the container ends mid-block
    let records: Vec<_> = (0..8_200u32)
        .map(|i| (format!("flow-{i}").into_bytes(), vec![i as u8; 1_024]))
        .collect();
    let bytes = container(&records, true, &[]);
    assert!(bytes.len() >= 8 << 20);
    let path = spool(&bytes);
    let map = MmapSource::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let addr = map.as_ptr() as usize;

    // each record is dropped as it comes, but the last: its spans keep
    // the mapping alive past the end, as a retained base's rows do
    let mut last = None;
    for (framed, record) in SnapshotFramer::from_map(map, "t").enumerate() {
        last = Some(record.unwrap());
        if (framed + 1) % 256 == 0 {
            let rss = mapping_rss_kib(addr).expect("the mapping is live");
            assert!(
                rss <= 2 * WINDOW_KIB + 64,
                "{rss} kB of the mapping resident after {} records",
                framed + 1
            );
        }
    }
    assert_eq!(
        last.as_ref().expect("records were framed").index,
        records.len() - 1
    );
    let rss = mapping_rss_kib(addr).expect("the last record holds the mapping");
    assert!(
        rss <= 64,
        "{rss} kB of the mapping resident after the end marker"
    );
}
