//! Criterion micro-benchmarks for the per-record costs of byte
//! admission: the content hash every graph span pays, and the flow-key
//! decode every record pays — on the writers' own encoding (read
//! straight from the bytes) and on one that needs escapes (through a
//! `Value`). `relabench`'s `net.hash_s` and the `cold-*` workloads are
//! the numbers that count; these are the same functions at a size a
//! profiler can hold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rela_net::{content_hash128, linear_graph, FlowSpec, RawRecord, SpanBytes};
use std::hint::black_box;

/// About a megabyte of input per iteration, cut into spans of `len`
/// bytes: 1400 is a `cold-*` graph span, 64 a short key, 65536 a chunk.
fn bench_content_hash(c: &mut Criterion) {
    const TOTAL: usize = 1 << 20;
    let mut group = c.benchmark_group("content_hash128");
    for len in [64usize, 1400, 65536] {
        let spans: Vec<Vec<u8>> = (0..TOTAL / len)
            .map(|span| (0..len).map(|i| (span * 131 + i * 37) as u8).collect())
            .collect();
        group.throughput(Throughput::Bytes((spans.len() * len) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &spans, |b, spans| {
            b.iter(|| {
                spans
                    .iter()
                    .fold(0, |acc, span| acc ^ content_hash128(black_box(span)))
            })
        });
    }
    group.finish();
}

/// `records` binary-container records whose ingress names come from
/// `ingress_of`, with the spans the snapshot writers would emit.
fn records_with(records: usize, ingress_of: impl Fn(usize) -> String) -> Vec<RawRecord> {
    let graph: SpanBytes = serde_json::to_string(&linear_graph(&["R0E-r0", "R0C-r0", "R1C-r0"]))
        .expect("graphs serialize")
        .into_bytes()
        .into();
    (0..records)
        .map(|n| {
            let dst = format!("10.{}.{}.0/24", n / 256 % 256, n % 256);
            let flow = FlowSpec::new(dst.parse().expect("a prefix"), ingress_of(n));
            let span = serde_json::to_string(&flow).expect("flow keys serialize");
            RawRecord {
                flow: span.into_bytes().into(),
                graph: graph.clone(),
                offset: 0,
                flow_at: 0,
                graph_at: 0,
                index: n,
            }
        })
        .collect()
}

fn bench_decode_flow(c: &mut Criterion) {
    const RECORDS: usize = 1024;
    let mut group = c.benchmark_group("decode_flow");
    group.throughput(Throughput::Elements(RECORDS as u64));
    let cases = [
        (
            "canonical",
            records_with(RECORDS, |n| format!("R{}E-r0", n % 4)),
        ),
        // a quote in the name: the writer escapes it, so the record
        // takes the `Value` path
        (
            "escaped",
            records_with(RECORDS, |n| format!("R{}\"E-r0", n % 4)),
        ),
    ];
    for (name, records) in &cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), records, |b, records| {
            b.iter(|| {
                for raw in records {
                    black_box(raw.decode_flow(None).expect("the record decodes"));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_content_hash, bench_decode_flow);
criterion_main!(benches);
