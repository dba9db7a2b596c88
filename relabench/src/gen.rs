//! Input generation: everything `rela` is asked to check is a file this
//! module wrote from `--seed`. The tool under test never sees the seed.
//!
//! The network shape and the amount of change are fixed per workload;
//! the seed draws *which* flows change. The change models one ticket of
//! the paper's §8.1 loop: the operator drains the R0C–R1C trunk (the
//! shift the spec's first chain describes) and, as an unintended side
//! effect, an ACL deny lands on region 1's egress group. Iteration 2
//! of the same ticket widens the deny list by a few more /24s, so the
//! two post-change snapshots differ in a handful of records.
//!
//! The seed picks the denied /24s and the trunk's new cost. It does not
//! pick the region: at interface granularity the region decides how much
//! witness enumeration the check needs (±10% of the op measured), and a
//! benchmark whose cost moves with the seed cannot hold a 10% bound.

use crate::stats::SplitMix64;
use rela_net::{Granularity, Ipv4Prefix, SnapshotWriter};
use rela_sim::workload::{group_name, spec_of_size, synthetic_wan, SyntheticWan, WanParams};
use rela_sim::{configured, simulate_each, ConfigChange, DeviceSelector};
use std::io::BufWriter;
use std::path::Path;

/// File names inside a corpus directory. Children run with the corpus
/// directory as their working directory, so these double as the paths
/// on every command line (short, and the same on every host).
pub mod files {
    /// The timed spec.
    pub const SPEC: &str = "spec.rela";
    /// The bare `nochange` spec the oracle check runs.
    pub const NOCHANGE: &str = "nochange.rela";
    /// Location database.
    pub const DB: &str = "db.json";
    /// Pre-change snapshot, JSON container.
    pub const PRE_JSON: &str = "pre.json";
    /// Post-change snapshot of iteration 1 / 2, JSON container.
    pub const POST_JSON: [&str; 2] = ["post1.json", "post2.json"];
    /// Pre-change snapshot, RSNB container.
    pub const PRE_RSNB: &str = "pre.rsnb";
    /// Post-change snapshot of iteration 1 / 2, RSNB container.
    pub const POST_RSNB: [&str; 2] = ["post1.rsnb", "post2.rsnb"];
    /// Delta documents (pre side, post side) that turn iteration 1 into
    /// 2 (`[0]`) and 2 back into 1 (`[1]`).
    pub const DELTA: [(&str, &str); 2] = [
        ("d12.pre.json", "d12.post.json"),
        ("d21.pre.json", "d21.post.json"),
    ];

    /// The (pre, post) snapshot files of iteration `ix` in one container.
    pub fn pair(rsnb: bool, ix: usize) -> (&'static str, &'static str) {
        if rsnb {
            (PRE_RSNB, POST_RSNB[ix])
        } else {
            (PRE_JSON, POST_JSON[ix])
        }
    }
}

/// The fixed shape of one workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Synthetic WAN size.
    pub params: WanParams,
    /// Atomic-spec count handed to `spec_of_size`.
    pub atomics: usize,
    /// Granularity the spec compiles at.
    pub granularity: Granularity,
}

impl Scale {
    /// FECs in every snapshot of this scale.
    pub fn fecs(&self) -> usize {
        self.params.regions * (self.params.regions - 1) * self.params.fecs_per_pair as usize
    }

    /// How many /24s of a region carry traffic (the ACL draws from these).
    fn live_subnets(&self) -> u64 {
        u64::from(self.params.fecs_per_pair.min(256))
    }
}

/// Region whose egress group gets the ACL deny.
const ACL_REGION: usize = 1;

/// What the seed decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Draw {
    /// Third octets of the denied /24s: iteration 1 denies the first,
    /// iteration 2 all of them.
    pub subnets: Vec<u8>,
    /// New IGP cost of the drained R0C–R1C trunk (any value above the
    /// detour's cost drains it; the draw only varies the config).
    pub trunk_cost: u32,
}

/// Draw the seed-dependent part of a corpus.
pub fn draw(seed: u64, scale: &Scale) -> Draw {
    let mut rng = SplitMix64::new(seed);
    let live = scale.live_subnets();
    // one /24 in iteration 1, up to four more in iteration 2
    let count = live.min(5) as usize;
    Draw {
        subnets: rng
            .distinct(count, live)
            .into_iter()
            .map(|j| j as u8)
            .collect(),
        trunk_cost: 15 + rng.below(26) as u32,
    }
}

/// The change list of iteration `ix` (0 or 1).
fn changes(draw: &Draw, ix: usize) -> Vec<ConfigChange> {
    let denied = if ix == 0 {
        &draw.subnets[..1]
    } else {
        &draw.subnets[..]
    };
    vec![
        ConfigChange::SetGroupLinkCost {
            group_a: group_name(0, 'C'),
            group_b: group_name(1, 'C'),
            cost: draw.trunk_cost,
        },
        ConfigChange::AddAclDeny {
            devices: DeviceSelector::Group(group_name(ACL_REGION, 'O')),
            prefixes: denied
                .iter()
                .map(|&j| Ipv4Prefix::from_octets(10, ACL_REGION as u8, j, 0, 24))
                .collect(),
        },
    ]
}

/// Simulate one configuration and write its snapshot record by record.
fn write_snapshot(path: &Path, wan: &SyntheticWan, changes: &[ConfigChange]) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let cfg = configured(&wan.config, &wan.topology, changes);
    let file = std::fs::File::create(path).map_err(fail)?;
    let mut writer = SnapshotWriter::new(BufWriter::new(file)).map_err(fail)?;
    let mut error = None;
    let unconverged = simulate_each(&wan.topology, &cfg, &wan.traffic, |flow, graph| {
        if error.is_none() {
            error = writer.write(&flow, &graph).err();
        }
    });
    if let Some(e) = error {
        return Err(fail(e));
    }
    if !unconverged.is_empty() {
        return Err(format!("{} prefixes did not converge", unconverged.len()));
    }
    use std::io::Write;
    writer.finish().map_err(fail)?.flush().map_err(fail)
}

/// What [`write_corpus`] produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusInfo {
    /// Records per snapshot.
    pub fecs: usize,
    /// Seconds spent in the simulator and snapshot writer.
    pub simulate_s: f64,
    /// Snapshots simulated.
    pub snapshots: usize,
}

/// Write a corpus into `dir`: both specs, the location database, the
/// pre-change snapshot and `iterations` (1 or 2) post-change snapshots,
/// all in the JSON container. Packing and delta documents are made from
/// these files by the `rela` binary itself.
pub fn write_corpus(
    dir: &Path,
    scale: &Scale,
    draw: &Draw,
    iterations: usize,
) -> Result<CorpusInfo, String> {
    let put = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
    };
    let wan = synthetic_wan(&scale.params);
    put(
        files::SPEC,
        spec_of_size(scale.atomics, scale.params.regions),
    )?;
    put(files::NOCHANGE, spec_of_size(1, scale.params.regions))?;
    put(
        files::DB,
        serde_json::to_string_pretty(&wan.topology.db).map_err(|e| e.to_string())?,
    )?;
    let start = std::time::Instant::now();
    write_snapshot(&dir.join(files::PRE_JSON), &wan, &[])?;
    for ix in 0..iterations {
        write_snapshot(&dir.join(files::POST_JSON[ix]), &wan, &changes(draw, ix))?;
    }
    Ok(CorpusInfo {
        fecs: scale.fecs(),
        simulate_s: start.elapsed().as_secs_f64(),
        snapshots: 1 + iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Scale = Scale {
        params: WanParams {
            regions: 4,
            routers_per_group: 1,
            parallel_links: 1,
            fecs_per_pair: 4,
        },
        atomics: 4,
        granularity: Granularity::Group,
    };

    #[test]
    fn the_seed_decides_which_flows_change_not_how_many() {
        let (a, b) = (draw(1, &TOY), draw(1, &TOY));
        assert_eq!(a, b);
        let seeds: Vec<Draw> = (1..=16).map(|s| draw(s, &TOY)).collect();
        assert!(seeds.iter().any(|d| *d != a), "seeds must differ");
        for d in &seeds {
            assert_eq!(d.subnets.len(), 4);
            assert!(d.subnets.iter().all(|&j| j < 4));
            assert!((15..=40).contains(&d.trunk_cost));
        }
    }

    #[test]
    fn iterations_differ_only_in_the_widened_deny_list() {
        let d = draw(3, &TOY);
        let (one, two) = (changes(&d, 0), changes(&d, 1));
        assert_eq!(one[0], two[0]);
        let denied = |c: &ConfigChange| match c {
            ConfigChange::AddAclDeny { prefixes, .. } => prefixes.len(),
            _ => panic!("second change is the ACL"),
        };
        assert_eq!(denied(&one[1]), 1);
        assert_eq!(denied(&two[1]), 4);
    }
}
