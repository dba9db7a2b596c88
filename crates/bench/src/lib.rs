//! # rela-bench
//!
//! Shared harness code for regenerating every table and figure of the
//! paper's evaluation (§8–§9). The runnable entry points live in
//! `src/bin/`:
//!
//! - `table1` — the counterexample table for the Figure 1c implementation
//! - `case_study` — §8.1 violation counts across all four iterations
//! - `fig5` — CDF of spec sizes (and the §9.1 expressiveness inventory)
//! - `fig6` — CDF of validation times over the change dataset
//! - `fig7` — validation time vs. spec size × granularity
//! - `perf` — the scale harness: one cold check, four ingest arms, each
//!   in a child process, recorded in `BENCH_check.json`

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rela_core::{CheckReport, CheckSession, JobSpec, SessionConfig};
use rela_net::{Granularity, LocationDb, SnapshotPair};
use rela_sim::workload::{synthetic_wan, SyntheticWan, WanParams};
use rela_sim::{configured, simulate};
use std::time::{Duration, Instant};

/// A WAN with its pre/post snapshots, ready for timing runs.
pub struct Testbed {
    /// The generated network.
    pub wan: SyntheticWan,
    /// Aligned pre/post forwarding state.
    pub pair: SnapshotPair,
}

/// Build the evaluation testbed: synthesize the WAN, simulate the base
/// configuration and the representative change, and align the snapshots.
pub fn build_testbed(params: &WanParams) -> Testbed {
    let wan = synthetic_wan(params);
    let (pre, unconverged) = simulate(&wan.topology, &wan.config, &wan.traffic);
    assert!(unconverged.is_empty(), "base WAN must converge");
    let post_cfg = configured(&wan.config, &wan.topology, &wan.representative_change);
    let (post, unconverged) = simulate(&wan.topology, &post_cfg, &wan.traffic);
    assert!(unconverged.is_empty(), "changed WAN must converge");
    let pair = SnapshotPair::align(&pre, &post);
    Testbed { wan, pair }
}

/// Time one full validation (parse + compile + check), the quantity
/// Fig. 6/7 report.
pub fn time_validation(
    source: &str,
    db: &LocationDb,
    granularity: Granularity,
    pair: &SnapshotPair,
) -> (Duration, CheckReport) {
    // the clone stays outside the timer: Fig. 6/7 time the validation
    // (parse + compile + check), not harness bookkeeping
    let db = db.clone();
    let start = Instant::now();
    // session open + one job = exactly the old one-shot path
    let session = CheckSession::open(
        source,
        db,
        SessionConfig {
            granularity,
            ..SessionConfig::default()
        },
    )
    .expect("spec must compile");
    let report = session.run(JobSpec::pair(pair)).expect("in-memory pair");
    (start.elapsed(), report)
}

/// Simple CDF: sorted values with cumulative fractions.
pub fn cdf<T: Copy + PartialOrd>(mut values: Vec<T>) -> Vec<(T, f64)> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("orderable"));
    let n = values.len() as f64;
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Percentile (0–100) of a sorted sample.
pub fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let ix = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[ix.min(sorted.len() - 1)]
}

/// Parse `--key value` style CLI overrides for WAN scale.
pub fn params_from_args(args: &[String]) -> WanParams {
    let mut params = WanParams::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--regions" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    params.regions = v;
                }
            }
            "--routers-per-group" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    params.routers_per_group = v;
                }
            }
            "--parallel-links" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    params.parallel_links = v;
                }
            }
            "--fecs-per-pair" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    params.fecs_per_pair = v;
                }
            }
            _ => {}
        }
    }
    params
}

/// Pretty Duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_at_small_scale() {
        let params = WanParams {
            regions: 3,
            routers_per_group: 1,
            parallel_links: 1,
            fecs_per_pair: 1,
        };
        let tb = build_testbed(&params);
        assert_eq!(tb.pair.len(), 6); // 6 ordered pairs × 1 FEC
    }

    #[test]
    fn cdf_is_monotone() {
        let points = cdf(vec![3, 1, 2, 2]);
        assert_eq!(points.first().unwrap().0, 1);
        assert_eq!(points.last().unwrap().1, 1.0);
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn percentile_bounds() {
        let sample: Vec<Duration> = (1..=10).map(Duration::from_secs).collect();
        assert_eq!(percentile(&sample, 0.0), Duration::from_secs(1));
        assert_eq!(percentile(&sample, 100.0), Duration::from_secs(10));
        assert_eq!(percentile(&sample, 50.0), Duration::from_secs(6));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }

    #[test]
    fn args_parsing() {
        let args: Vec<String> = ["--regions", "7", "--fecs-per-pair", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let p = params_from_args(&args);
        assert_eq!(p.regions, 7);
        assert_eq!(p.fecs_per_pair, 3);
        assert_eq!(p.routers_per_group, WanParams::default().routers_per_group);
    }

    /// One end-to-end timing run at tiny scale keeps the harness honest.
    #[test]
    fn time_validation_runs() {
        let params = WanParams {
            regions: 3,
            routers_per_group: 1,
            parallel_links: 1,
            fecs_per_pair: 1,
        };
        let tb = build_testbed(&params);
        let spec = rela_sim::workload::spec_of_size(1, params.regions);
        let (elapsed, report) =
            time_validation(&spec, &tb.wan.topology.db, Granularity::Group, &tb.pair);
        assert!(elapsed > Duration::ZERO);
        assert_eq!(report.total, 6);
    }
}
