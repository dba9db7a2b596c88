//! Criterion version of the paper's performance evaluation (§9.2):
//! end-to-end validation cost by spec size and granularity on the
//! synthetic WAN, plus the path-diff baseline for comparison.
//!
//! This complements the `fig6`/`fig7` harness bins: the bins print the
//! paper's exact rows/series; these benches give statistically robust
//! per-configuration timings.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rela_baseline::{path_diff, DiffOptions};
use rela_bench::{build_testbed, Testbed};
use rela_core::{CheckReport, CheckSession, JobOptions, JobSpec, SessionConfig};
use rela_net::{Granularity, LocationDb, SnapshotPair};
use rela_sim::workload::{spec_of_size, WanParams};
use std::hint::black_box;

/// A fresh session (parse + compile) over `db`.
fn open(source: &str, db: &LocationDb, granularity: Granularity, threads: usize) -> CheckSession {
    let config = SessionConfig {
        granularity,
        threads,
        ..SessionConfig::default()
    };
    CheckSession::open(source, db.clone(), config).expect("spec compiles")
}

/// One cold validation (parse + compile + check) through the session
/// API — the quantity the paper's Fig. 6/7 time.
fn run_check(
    source: &str,
    db: &LocationDb,
    granularity: Granularity,
    pair: &SnapshotPair,
) -> CheckReport {
    let session = open(source, db, granularity, 0);
    session.run(JobSpec::pair(pair)).expect("in-memory pair")
}

fn small_params() -> WanParams {
    WanParams {
        regions: 4,
        routers_per_group: 2,
        parallel_links: 2,
        fecs_per_pair: 2,
    }
}

fn bench_by_spec_size(c: &mut Criterion) {
    let params = small_params();
    let tb: Testbed = build_testbed(&params);
    let mut group = c.benchmark_group("validation-by-spec-size");
    group.sample_size(10);
    for n in [1usize, 4, 7, 13] {
        let source = spec_of_size(n, params.regions);
        group.bench_with_input(BenchmarkId::from_parameter(n), &source, |b, src| {
            b.iter(|| {
                run_check(
                    black_box(src),
                    &tb.wan.topology.db,
                    Granularity::Group,
                    &tb.pair,
                )
            })
        });
    }
    group.finish();
}

fn bench_by_granularity(c: &mut Criterion) {
    let params = small_params();
    let tb = build_testbed(&params);
    let source = spec_of_size(4, params.regions);
    let mut group = c.benchmark_group("validation-by-granularity");
    group.sample_size(10);
    for granularity in [
        Granularity::Group,
        Granularity::Device,
        Granularity::Interface,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(granularity),
            &granularity,
            |b, &g| b.iter(|| run_check(black_box(&source), &tb.wan.topology.db, g, &tb.pair)),
        );
    }
    group.finish();
}

fn bench_pathdiff_baseline(c: &mut Criterion) {
    let params = small_params();
    let tb = build_testbed(&params);
    let mut group = c.benchmark_group("baseline");
    group.sample_size(10);
    group.bench_function("path-diff", |b| {
        b.iter(|| {
            path_diff(
                black_box(&tb.pair),
                &tb.wan.topology.db,
                DiffOptions::default(),
            )
        })
    });
    let nochange = spec_of_size(1, params.regions);
    group.bench_function("rela-nochange", |b| {
        b.iter(|| {
            run_check(
                black_box(&nochange),
                &tb.wan.topology.db,
                Granularity::Device,
                &tb.pair,
            )
        })
    });
    group.finish();
}

/// The dedup-and-memoize engine vs. from-scratch checking, on a testbed
/// with heavy behavior duplication (many FECs per region pair sharing
/// one forwarding graph) — the workload of the paper's 10⁶-class claim.
fn bench_dedup_engine(c: &mut Criterion) {
    let params = WanParams {
        regions: 3,
        routers_per_group: 1,
        parallel_links: 1,
        fecs_per_pair: 32,
    };
    let tb = build_testbed(&params);
    let source = spec_of_size(4, params.regions);
    let mut group = c.benchmark_group("dedup-engine");
    group.sample_size(10);
    for dedup in [true, false] {
        let label = if dedup { "dedup" } else { "no-dedup" };
        let options = JobOptions {
            dedup,
            ..JobOptions::default()
        };
        // a session keeps its memo and lowered relations, so every timed
        // run gets a fresh one, opened outside the timer: each is cold
        group.bench_function(label, |b| {
            b.iter_batched(
                || open(&source, &tb.wan.topology.db, Granularity::Group, 1),
                |session| {
                    let job = JobSpec::pair(black_box(&tb.pair)).with_options(options);
                    session.run(job).expect("in-memory pair")
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_by_spec_size,
    bench_by_granularity,
    bench_pathdiff_baseline,
    bench_dedup_engine
);
criterion_main!(benches);
