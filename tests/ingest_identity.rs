//! The ingest-identity property of the delta-first pipeline: a full
//! JSON snapshot, its binary packing, and a delta against a retained
//! base are three encodings of the same pair, so every combination of
//! container × ingest mode must produce byte-identical reports — and a
//! corrupted byte stream must fail with the same labelled,
//! offset-addressed error no matter which engine path hits it first.

use rela::lang::{
    CheckReport, CheckSession, IngestMode, JobError, JobOptions, JobSpec, LabeledSource,
    SessionConfig,
};
use rela::net::{
    BinarySnapshotWriter, Granularity, MmapSource, RawRecord, SnapshotDelta, SnapshotFramer,
};
use rela::sim::workload::{iteration_deltas, spec_of_size, synthetic_wan, WanParams};

fn params() -> WanParams {
    WanParams {
        regions: 3,
        routers_per_group: 1,
        parallel_links: 1,
        fecs_per_pair: 4,
    }
}

/// The three snapshot encodings of one evaluation pair: the canonical
/// JSON text, its binary packing, and (for the second iteration) the
/// delta documents against the first.
struct Fixture {
    spec: String,
    db: rela::net::LocationDb,
    pre_json: String,
    post_seed_json: String,
    post_json: String,
    base_epoch: rela::net::SnapshotEpoch,
    delta_pre: Vec<u8>,
    delta_post: Vec<u8>,
}

fn fixture() -> Fixture {
    let params = params();
    let wan = synthetic_wan(&params);
    let di = iteration_deltas(&wan, &params, 2);
    Fixture {
        spec: spec_of_size(4, params.regions),
        db: wan.topology.db,
        pre_json: di.pre.to_json().unwrap(),
        post_seed_json: di.posts[0].to_json().unwrap(),
        post_json: di.posts[1].to_json().unwrap(),
        base_epoch: di.deltas[0].base,
        delta_pre: di.deltas[0].pre_doc.clone(),
        delta_post: di.deltas[0].post_doc.clone(),
    }
}

fn session(fx: &Fixture, retain_base: bool) -> CheckSession {
    CheckSession::open(
        &fx.spec,
        fx.db.clone(),
        SessionConfig {
            granularity: Granularity::Group,
            threads: 1,
            retain_bases: usize::from(retain_base),
            ..SessionConfig::default()
        },
    )
    .unwrap()
}

/// Pack a canonical JSON snapshot into the binary container by raw
/// span moves — the `rela snapshot pack` path, in memory.
fn pack(json: &str) -> Vec<u8> {
    let mut framer = SnapshotFramer::new(json.as_bytes(), "pack");
    let mut writer = BinarySnapshotWriter::new(Vec::new()).unwrap();
    for raw in &mut framer {
        let raw = raw.unwrap();
        let (flow, graph) = raw.split_spans(Some("pack")).unwrap();
        writer.write_raw(flow.as_slice(), graph.as_slice()).unwrap();
    }
    writer.finish().unwrap()
}

/// Verdict bytes: the report minus its timing- and stats-bearing lines
/// (the filter every engine-equivalence test uses).
fn verdict_bytes(report: &CheckReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.starts_with("checked ") && !l.starts_with("behavior classes:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn stream_job<'a>(pre: &'a [u8], post: &'a [u8], ingest: IngestMode) -> JobSpec<'a> {
    JobSpec::streams(
        LabeledSource::new(pre, "pre"),
        LabeledSource::new(post, "post"),
    )
    .with_options(JobOptions {
        ingest,
        ..JobOptions::default()
    })
}

/// Spool `bytes` to a temp file, memory-map it, and unlink the file —
/// the zero-copy ingest path a mapped RSNB container rides (the mapping
/// keeps the pages alive past the unlink).
fn mapped(bytes: &[u8], label: &str) -> LabeledSource<'static> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SPOOL: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "rela-ingest-identity-{}-{}",
        std::process::id(),
        SPOOL.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&path, bytes).unwrap();
    let map = MmapSource::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    LabeledSource::mapped(map, label)
}

fn mapped_job(pre: &[u8], post: &[u8], ingest: IngestMode) -> JobSpec<'static> {
    JobSpec::streams(mapped(pre, "pre"), mapped(post, "post")).with_options(JobOptions {
        ingest,
        ..JobOptions::default()
    })
}

#[test]
fn every_container_and_mode_agrees_with_materialized_json() {
    let fx = fixture();
    let binary_pre = pack(&fx.pre_json);
    let binary_post = pack(&fx.post_json);
    let baseline = session(&fx, false)
        .run(stream_job(
            fx.pre_json.as_bytes(),
            fx.post_json.as_bytes(),
            IngestMode::Materialized,
        ))
        .unwrap();
    assert!(!baseline.is_compliant(), "the change must be visible");
    let containers: [(&str, &[u8], &[u8]); 2] = [
        ("json", fx.pre_json.as_bytes(), fx.post_json.as_bytes()),
        ("binary", &binary_pre, &binary_post),
    ];
    for (container, pre, post) in containers {
        for mode in [IngestMode::Materialized, IngestMode::Pipelined] {
            let report = session(&fx, false)
                .run(stream_job(pre, post, mode))
                .unwrap();
            assert_eq!(
                verdict_bytes(&report),
                verdict_bytes(&baseline),
                "{container} × {mode:?} diverged from materialized JSON"
            );
            // the same container through a memory mapping: zero-copy
            // framing for pipelined RSNB, the stream adapter otherwise
            let report = session(&fx, false)
                .run(mapped_job(pre, post, mode))
                .unwrap();
            assert_eq!(
                verdict_bytes(&report),
                verdict_bytes(&baseline),
                "{container}-mmap × {mode:?} diverged from materialized JSON"
            );
        }
    }
}

#[test]
fn delta_submission_agrees_with_both_containers() {
    let fx = fixture();
    let s = session(&fx, true);
    // seed the retained base with the first iteration's pair
    s.run(stream_job(
        fx.pre_json.as_bytes(),
        fx.post_seed_json.as_bytes(),
        IngestMode::default(),
    ))
    .unwrap();
    assert_eq!(s.base_epoch(), Some(fx.base_epoch));
    let delta_report = s
        .run(
            JobSpec::deltas(
                LabeledSource::new(&fx.delta_pre[..], "delta:pre"),
                LabeledSource::new(&fx.delta_post[..], "delta:post"),
            )
            .with_options(JobOptions {
                delta_base: Some(fx.base_epoch.as_u128()),
                ..JobOptions::default()
            }),
        )
        .unwrap();
    let full = session(&fx, false)
        .run(stream_job(
            fx.pre_json.as_bytes(),
            fx.post_json.as_bytes(),
            IngestMode::Materialized,
        ))
        .unwrap();
    assert_eq!(verdict_bytes(&delta_report), verdict_bytes(&full));
    let binary = session(&fx, false)
        .run(stream_job(
            &pack(&fx.pre_json),
            &pack(&fx.post_json),
            IngestMode::Pipelined,
        ))
        .unwrap();
    assert_eq!(verdict_bytes(&delta_report), verdict_bytes(&binary));
}

/// Deterministic truncation points spread over `len` bytes, always
/// including the mid-header and one-byte-short extremes.
fn truncation_points(len: usize) -> Vec<usize> {
    let mut points = vec![3.min(len), len.saturating_sub(1)];
    let mut x = 0x9e37_79b9_u64;
    for _ in 0..12 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        points.push((x % len as u64) as usize);
    }
    points.sort_unstable();
    points.dedup();
    points
}

#[test]
fn truncation_errors_keep_the_label_offset_contract_in_every_container() {
    let fx = fixture();
    let containers: [(&str, Vec<u8>, Vec<u8>); 2] = [
        (
            "json",
            fx.pre_json.clone().into_bytes(),
            fx.post_json.clone().into_bytes(),
        ),
        ("binary", pack(&fx.pre_json), pack(&fx.post_json)),
    ];
    for (container, pre, post) in &containers {
        for cut in truncation_points(post.len()) {
            let clipped = &post[..cut];
            // the materialized path (`SnapshotReader` over each side in
            // turn, the pre side intact) and the pipelined engine must
            // surface the same labelled, offset-addressed error for the
            // same corruption
            let reader = session(&fx, false)
                .run(stream_job(pre, clipped, IngestMode::Materialized))
                .unwrap_err();
            let pipelined = session(&fx, false)
                .run(stream_job(pre, clipped, IngestMode::Pipelined))
                .unwrap_err();
            for err in [&reader, &pipelined] {
                assert_eq!(
                    err.label(),
                    Some("post"),
                    "{container} cut at {cut}: wrong label ({err})"
                );
                assert!(
                    err.byte_offset().is_some(),
                    "{container} cut at {cut}: no byte offset ({err})"
                );
            }
            assert_eq!(
                reader.to_string(),
                pipelined.to_string(),
                "{container} cut at {cut}: reader and pipelined errors diverged"
            );
            // a truncated *mapped* container must surface the identical
            // error: the in-place framer shares the buffered framer's
            // offset/entry contract byte for byte
            let mapped_err = session(&fx, false)
                .run(JobSpec::streams(
                    LabeledSource::new(&pre[..], "pre"),
                    mapped(clipped, "post"),
                ))
                .unwrap_err();
            assert_eq!(
                reader.to_string(),
                mapped_err.to_string(),
                "{container} cut at {cut}: mapped and buffered errors diverged"
            );
        }
    }
}

#[test]
fn truncated_delta_documents_keep_the_error_contract() {
    let fx = fixture();
    for cut in truncation_points(fx.delta_post.len()) {
        let s = session(&fx, true);
        s.run(stream_job(
            fx.pre_json.as_bytes(),
            fx.post_seed_json.as_bytes(),
            IngestMode::default(),
        ))
        .unwrap();
        let err = s
            .run(
                JobSpec::deltas(
                    LabeledSource::new(&fx.delta_pre[..], "delta:pre"),
                    LabeledSource::new(&fx.delta_post[..cut], "delta:post"),
                )
                .with_options(JobOptions {
                    delta_base: Some(fx.base_epoch.as_u128()),
                    ..JobOptions::default()
                }),
            )
            .unwrap_err();
        assert_eq!(err.label(), Some("delta:post"), "cut at {cut}: {err}");
        assert!(
            err.byte_offset().is_some(),
            "cut at {cut}: no offset ({err})"
        );
        // a cut inside the records array addresses the broken entry
        if err.to_string().contains("entry") {
            assert!(err.entry_index().is_some(), "cut at {cut}: {err}");
        }
    }
}

/// The index of the `}` that closes `raw`, a canonical JSON record,
/// whose graph is its last member.
fn record_close(raw: &RawRecord) -> usize {
    raw.graph_at as usize + raw.graph.len()
}

/// `doc` with the record its `close` byte ends given a second `graph`
/// member: an empty graph, after the one it already has.
fn with_second_graph(doc: &[u8], close: usize) -> Vec<u8> {
    assert_eq!(doc[close], b'}');
    let mut out = doc[..close].to_vec();
    out.extend_from_slice(
        br#","graph":{"vertices":[],"edges":[],"sources":[],"sinks":[],"drops":[]}"#,
    );
    out.extend_from_slice(&doc[close..]);
    out
}

#[test]
fn a_repeated_graph_key_is_the_same_error_in_every_container_and_mode() {
    // the first `graph` is what a keyed lookup finds, the last what a
    // span scan used to keep: a record that has both is refused whole,
    // by every engine, with one address
    let fx = fixture();
    let target = SnapshotFramer::new(fx.post_json.as_bytes(), "post")
        .nth(5)
        .unwrap()
        .unwrap();
    let post = with_second_graph(fx.post_json.as_bytes(), record_close(&target));
    let expected = format!(
        "post: snapshot entry #5: duplicate field `graph` (byte {})",
        target.offset
    );
    let same = |err: JobError, how: &str| {
        assert_eq!(err.to_string(), expected, "{how}");
        assert_eq!(err.entry_index(), Some(5), "{how}");
        assert_eq!(err.byte_offset(), Some(target.offset), "{how}");
        assert_eq!(err.label(), Some("post"), "{how}");
    };
    for mode in [IngestMode::Materialized, IngestMode::Pipelined] {
        let pre = fx.pre_json.as_bytes();
        let err = session(&fx, false)
            .run(stream_job(pre, &post, mode))
            .unwrap_err();
        same(err, &format!("json × {mode:?}"));
        let err = session(&fx, false)
            .run(mapped_job(pre, &post, mode))
            .unwrap_err();
        same(err, &format!("json-mmap × {mode:?}"));
        // against the packed pre side: the containers may differ
        let err = session(&fx, false)
            .run(stream_job(&pack(&fx.pre_json), &post, mode))
            .unwrap_err();
        same(err, &format!("binary pre, json post × {mode:?}"));
    }
    // the pack path refuses it too, so no binary container can hold one
    let err = SnapshotFramer::new(&post[..], "post")
        .map(|raw| raw.and_then(|r| r.split_spans(Some("post"))))
        .collect::<Result<Vec<_>, _>>()
        .unwrap_err();
    same(JobError::Snapshot(err), "pack");

    // and so does a delta document, addressed within the document
    let delta = SnapshotDelta::from_reader(&fx.delta_post[..], "delta:post").unwrap();
    let record = &delta.records[0];
    let doc = with_second_graph(&fx.delta_post, record_close(record));
    let s = session(&fx, true);
    s.run(stream_job(
        fx.pre_json.as_bytes(),
        fx.post_seed_json.as_bytes(),
        IngestMode::default(),
    ))
    .unwrap();
    let err = s
        .run(
            JobSpec::deltas(
                LabeledSource::new(&fx.delta_pre[..], "delta:pre"),
                LabeledSource::new(&doc[..], "delta:post"),
            )
            .with_options(JobOptions {
                delta_base: Some(fx.base_epoch.as_u128()),
                ..JobOptions::default()
            }),
        )
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        format!(
            "delta:post: snapshot entry #0: duplicate field `graph` (byte {})",
            record.offset
        )
    );
}

#[test]
fn a_malformed_value_in_a_binary_record_is_reported_at_its_failing_byte() {
    // a stray byte inside record #1's graph span, then one at the end of
    // its flow span: each is addressed by its own byte in the file — not
    // the record's start, nor a column of a record glued around the span
    let fx = fixture();
    let pre = pack(&fx.pre_json);
    let intact = pack(&fx.post_json);
    let target = SnapshotFramer::new(&intact[..], "post")
        .nth(1)
        .unwrap()
        .unwrap();
    let graph_byte = target.graph_at as usize + 12;
    let flow_byte = target.flow_at as usize + target.flow.len() - 1;
    assert_eq!((intact[graph_byte], intact[flow_byte]), (b'[', b'}'));
    let cases = [
        (graph_byte, "unexpected character `#`"),
        (flow_byte, "expected `,` or `}`"),
    ];
    for (byte, message) in cases {
        let mut post = intact.clone();
        post[byte] = b'#';
        let expected = format!("post: snapshot entry #1: record span: {message} (byte {byte})");
        for mode in [IngestMode::Materialized, IngestMode::Pipelined] {
            for (how, job) in [
                ("buffered", stream_job(&pre, &post, mode)),
                ("mapped", mapped_job(&pre, &post, mode)),
            ] {
                let err = session(&fx, false).run(job).unwrap_err();
                assert_eq!(err.to_string(), expected, "{how} × {mode:?}");
                assert_eq!(err.byte_offset(), Some(byte as u64), "{how} × {mode:?}");
                assert_eq!(err.entry_index(), Some(1), "{how} × {mode:?}");
            }
        }
    }
}
