//! Adversarial and operational workload generators.
//!
//! The evaluation workloads in [`crate::workload`] are *clean*: one
//! representative change, near-identical §8.1 iterations. Real
//! validation traffic is messier — drills that drain whole regions,
//! rolling maintenance that shifts a different trunk every night, BGP
//! policy migrations that stack and then retract route-map clauses,
//! ECMP sets that collapse and re-expand, and behavior-class
//! distributions skewed enough to starve a work-stealing scheduler.
//!
//! This module generates those patterns as parameterized, seed-
//! deterministic scenarios. Every scenario rides the existing
//! [`SyntheticWan`] / [`change_sequence_deltas`] plumbing, so it emits
//! full snapshot pairs *and* chained delta documents — the same three
//! encodings (`JSON`, `RSNB`, delta) the ingest pipeline accepts — and
//! carries the `nochange` oracle spec whose violation set must equal
//! `rela-baseline`'s path diff exactly. The differential-fuzz harness
//! (`crates/core/tests/differential_fuzz.rs`) draws scenarios from this
//! registry per seed and checks that agreement across every ingest
//! mode, and every report against the exact Appendix-A semantics too.
//! The rest of the spec language is drawn there, as tiny instances of
//! every spec shape; see `docs/FUZZING.md` for the taxonomy and oracle
//! semantics.
//!
//! Determinism: all randomness flows from the vendored-proptest
//! [`TestRng`] seeded by `(family, seed)` alone, so a scenario is fully
//! reproducible from the two values a failing CI run prints.

use crate::change::ConfigChange;
use crate::config::{DeviceSelector, PolicyRule, RuleAction};
use crate::workload::{
    change_sequence_deltas, group_name, region_prefix, spec_of_size, synthetic_wan,
    DeltaIterations, SyntheticWan, WanParams,
};
use proptest::TestRng;
use rela_net::{Granularity, Ipv4Prefix};
use std::fmt;

/// The five generator families — the scenario registry the fuzz
/// harness and the perf export iterate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// Multi-region failover drill: a canary cost bump on one trunk,
    /// then a full drain of every trunk adjacent to the victim region,
    /// then partial restoration.
    FailoverDrill,
    /// Rolling link maintenance: each iteration drains one ring trunk
    /// and implicitly restores the previous night's.
    LinkMaintenance,
    /// BGP policy migration: local-pref raises and fail-safe denies
    /// stacked across iterations, then retracted (and sometimes an
    /// origination withdrawn, blacking out a whole region's traffic).
    PolicyMigration,
    /// ECMP rehash churn: per-iteration trunk-cost jitter over a
    /// heavily-trunked core, collapsing and re-expanding equal-cost
    /// path sets.
    EcmpChurn,
    /// Pathological class-size skew: hundreds of FECs collapsing into
    /// a handful of behavior classes, with a growing ACL deny peeling
    /// a few flows off the giant class each iteration.
    ClassSkew,
}

impl ScenarioFamily {
    /// Every family, in registry order.
    pub const ALL: [ScenarioFamily; 5] = [
        ScenarioFamily::FailoverDrill,
        ScenarioFamily::LinkMaintenance,
        ScenarioFamily::PolicyMigration,
        ScenarioFamily::EcmpChurn,
        ScenarioFamily::ClassSkew,
    ];

    /// Stable kebab-case name (printed in failure seeds, used by repro
    /// bundles and the perf export).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioFamily::FailoverDrill => "failover-drill",
            ScenarioFamily::LinkMaintenance => "link-maintenance",
            ScenarioFamily::PolicyMigration => "policy-migration",
            ScenarioFamily::EcmpChurn => "ecmp-churn",
            ScenarioFamily::ClassSkew => "class-skew",
        }
    }

    /// Inverse of [`ScenarioFamily::name`].
    pub fn from_name(name: &str) -> Option<ScenarioFamily> {
        ScenarioFamily::ALL.into_iter().find(|f| f.name() == name)
    }
}

impl fmt::Display for ScenarioFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One generated scenario: the WAN, the oracle spec, and the full
/// snapshot/delta encodings of every iteration.
pub struct Scenario {
    /// Which generator produced this.
    pub family: ScenarioFamily,
    /// The seed it was drawn from.
    pub seed: u64,
    /// `"<family>#<seed>"` — the identifier failures print.
    pub name: String,
    /// One-line operational story, for reports and repro bundles.
    pub description: String,
    /// The WAN dimensions the generator drew.
    pub params: WanParams,
    /// Granularity the scenario is checked (and path-diffed) at.
    pub granularity: Granularity,
    /// The `nochange` oracle spec: its violation set must equal the
    /// path diff of the same pair at the same granularity.
    pub spec: String,
    /// The generated network (topology carries the location database).
    pub wan: SyntheticWan,
    /// Snapshots and chained delta documents for every iteration.
    pub iterations: DeltaIterations,
}

impl Scenario {
    /// Number of change iterations (posts) the scenario carries.
    pub fn iteration_count(&self) -> usize {
        self.iterations.posts.len()
    }
}

/// `SetGroupLinkCost` between the core groups of two ring positions.
fn trunk(regions: usize, a: usize, b: usize, cost: u32) -> ConfigChange {
    ConfigChange::SetGroupLinkCost {
        group_a: group_name(a % regions, 'C'),
        group_b: group_name(b % regions, 'C'),
        cost,
    }
}

/// Generate the scenario for `(family, seed)`. Deterministic: the same
/// pair always yields byte-identical snapshots and delta documents.
///
/// # Panics
///
/// Panics if the drawn WAN fails to converge under some iteration — a
/// generator-recipe bug, not an input error, so it must be loud.
pub fn generate(family: ScenarioFamily, seed: u64) -> Scenario {
    let mut rng = TestRng::for_test(&format!("rela-adversarial/{}/{seed}", family.name()));
    let (params, granularity, description, sequence) = match family {
        ScenarioFamily::FailoverDrill => failover_drill(&mut rng),
        ScenarioFamily::LinkMaintenance => link_maintenance(&mut rng),
        ScenarioFamily::PolicyMigration => policy_migration(&mut rng),
        ScenarioFamily::EcmpChurn => ecmp_churn(&mut rng),
        ScenarioFamily::ClassSkew => class_skew(&mut rng),
    };
    let wan = synthetic_wan(&params);
    let iterations = change_sequence_deltas(&wan, &sequence);
    Scenario {
        family,
        seed,
        name: format!("{}#{seed}", family.name()),
        description,
        granularity,
        // one atomic spec: `nochange := { .* : preserve }` — exactly
        // the fragment whose violations the path diff independently
        // computes
        spec: spec_of_size(1, params.regions),
        params,
        wan,
        iterations,
    }
}

/// Generate one scenario per family for a shared seed — the fixed-seed
/// batch CI runs.
pub fn generate_all(seed: u64) -> Vec<Scenario> {
    ScenarioFamily::ALL
        .into_iter()
        .map(|family| generate(family, seed))
        .collect()
}

fn coin(rng: &mut TestRng) -> bool {
    rng.below(2) == 1
}

fn failover_drill(rng: &mut TestRng) -> (WanParams, Granularity, String, Vec<Vec<ConfigChange>>) {
    let params = WanParams {
        // ≥ 4 regions so the distance-2 chords exist and the drill has
        // somewhere to shove the traffic
        regions: 4 + rng.below(2) as usize,
        routers_per_group: 1 + rng.below(2) as usize,
        parallel_links: 1 + rng.below(2) as usize,
        fecs_per_pair: 2 + rng.below(2) as u32,
    };
    let r = params.regions;
    let victim = rng.below(r as u64) as usize;
    let high = 30 + rng.below(30) as u32;
    let canary = vec![trunk(r, victim, victim + 1, high)];
    let drill = vec![
        trunk(r, victim, victim + 1, high),
        trunk(r, victim + r - 1, victim, high),
        trunk(r, victim, victim + 2, high),
        trunk(r, victim + r - 2, victim, high),
    ];
    let granularity = if coin(rng) {
        Granularity::Group
    } else {
        Granularity::Device
    };
    (
        params,
        granularity,
        format!("drain every trunk around region {victim} (cost {high}), canary first"),
        vec![canary.clone(), drill, canary],
    )
}

fn link_maintenance(rng: &mut TestRng) -> (WanParams, Granularity, String, Vec<Vec<ConfigChange>>) {
    let params = WanParams {
        regions: 3 + rng.below(3) as usize,
        routers_per_group: 1 + rng.below(2) as usize,
        parallel_links: 1 + rng.below(2) as usize,
        fecs_per_pair: 2 + rng.below(2) as u32,
    };
    let r = params.regions;
    let start = rng.below(r as u64) as usize;
    let high = 25 + rng.below(25) as u32;
    // each night drains the next ring trunk; the previous night's is
    // implicitly restored because iterations apply to the base config
    let sequence: Vec<Vec<ConfigChange>> = (0..3)
        .map(|night| vec![trunk(r, start + night, start + night + 1, high)])
        .collect();
    let granularity = if coin(rng) {
        Granularity::Group
    } else {
        Granularity::Device
    };
    (
        params,
        granularity,
        format!(
            "rolling maintenance from trunk ({start},{}), cost {high}",
            (start + 1) % r
        ),
        sequence,
    )
}

fn policy_migration(rng: &mut TestRng) -> (WanParams, Granularity, String, Vec<Vec<ConfigChange>>) {
    let params = WanParams {
        regions: 3 + rng.below(2) as usize,
        routers_per_group: 1 + rng.below(2) as usize,
        parallel_links: 1,
        fecs_per_pair: 2 + rng.below(3) as u32,
    };
    let r = params.regions;
    let dst = rng.below(r as u64) as usize;
    let transit = (dst + 1) % r;
    let blocker = (dst + 2) % r;
    let prefix = region_prefix(dst);
    let lp = 150 + rng.below(150) as u32;
    let raise = ConfigChange::PrependExport {
        devices: DeviceSelector::Group(group_name(transit, 'C')),
        rule: PolicyRule::new(
            "mig-raise",
            vec![prefix],
            None,
            RuleAction::SetLocalPref(lp),
        ),
    };
    let block = ConfigChange::PrependImport {
        devices: DeviceSelector::Group(group_name(blocker, 'C')),
        rule: PolicyRule::new(
            "mig-block",
            vec![prefix],
            Some(DeviceSelector::Group(group_name(transit, 'C'))),
            RuleAction::Deny,
        ),
    };
    let mut sequence = vec![vec![raise.clone()], vec![raise.clone(), block.clone()]];
    if coin(rng) {
        // cleanup: retract the raise, keeping only the fail-safe deny
        sequence.push(vec![
            raise,
            block,
            ConfigChange::RemoveRule {
                devices: DeviceSelector::Group(group_name(transit, 'C')),
                name: "mig-raise".to_owned(),
            },
        ]);
    } else {
        // the messy variant: the migration retracts the origination
        // itself, blacking out every flow toward the region
        sequence.push(vec![
            raise,
            block,
            ConfigChange::RemoveOrigination {
                devices: DeviceSelector::Name(format!("outR{dst}")),
                prefixes: vec![prefix],
            },
        ]);
    }
    (
        params,
        Granularity::Group,
        format!("migrate {prefix} preference through region {transit} (LP {lp}), then retract"),
        sequence,
    )
}

fn ecmp_churn(rng: &mut TestRng) -> (WanParams, Granularity, String, Vec<Vec<ConfigChange>>) {
    let params = WanParams {
        regions: 3 + rng.below(2) as usize,
        routers_per_group: 2,
        parallel_links: 2 + rng.below(2) as usize,
        fecs_per_pair: 2 + rng.below(2) as u32,
    };
    let r = params.regions;
    let nights = 2 + rng.below(2) as usize;
    let mut sequence = Vec::with_capacity(nights);
    for _ in 0..nights {
        let mut it: Vec<ConfigChange> = Vec::new();
        for ring in 0..r {
            if coin(rng) {
                it.push(trunk(r, ring, ring + 1, 4 + rng.below(3) as u32));
            }
        }
        if it.is_empty() {
            // every iteration must perturb something
            it.push(trunk(r, 0, 1, 6));
        }
        if coin(rng) {
            // occasional data-plane drop riding the rehash
            let region = rng.below(r as u64) as usize;
            it.push(ConfigChange::AddAclDeny {
                devices: DeviceSelector::Group(group_name(region, 'O')),
                prefixes: vec![Ipv4Prefix::from_octets(10, region as u8, 0, 0, 24)],
            });
        }
        sequence.push(it);
    }
    (
        params,
        // device granularity: intra-group ECMP membership is exactly
        // what group-level views are allowed to hide
        Granularity::Device,
        format!(
            "trunk-cost jitter over {nights} nights on a {}-wide core",
            params.parallel_links
        ),
        sequence,
    )
}

fn class_skew(rng: &mut TestRng) -> (WanParams, Granularity, String, Vec<Vec<ConfigChange>>) {
    let params = WanParams {
        regions: 2 + rng.below(2) as usize,
        routers_per_group: 1,
        parallel_links: 1,
        // 64–256 FECs per region pair, all sharing one forwarding
        // behavior — the giant class
        fecs_per_pair: 64 << rng.below(3),
    };
    let region = 1 % params.regions;
    let nights = 2 + rng.below(2) as usize;
    let step = 1 + rng.below(3) as usize;
    // iteration i denies the first (i+1)·step /24s of region 1: a few
    // flows peel off the giant class each night, the rest stay put
    let sequence: Vec<Vec<ConfigChange>> = (0..nights)
        .map(|i| {
            vec![ConfigChange::AddAclDeny {
                devices: DeviceSelector::Group(group_name(region, 'O')),
                prefixes: (0..(i + 1) * step)
                    .map(|j| Ipv4Prefix::from_octets(10, region as u8, j as u8, 0, 24))
                    .collect(),
            }]
        })
        .collect();
    (
        params,
        Granularity::Group,
        format!(
            "{} FECs/pair collapsing into a handful of classes, {step} peeled per night",
            params.fecs_per_pair
        ),
        sequence,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_family_and_seed() {
        for family in ScenarioFamily::ALL {
            let a = generate(family, 7);
            let b = generate(family, 7);
            assert_eq!(a.name, b.name);
            assert_eq!(a.granularity, b.granularity);
            assert_eq!(
                a.iterations.pre.to_json().unwrap(),
                b.iterations.pre.to_json().unwrap(),
                "{family}: pre snapshots diverged across identical draws"
            );
            for (ix, (pa, pb)) in a
                .iterations
                .posts
                .iter()
                .zip(&b.iterations.posts)
                .enumerate()
            {
                assert_eq!(
                    pa.to_json().unwrap(),
                    pb.to_json().unwrap(),
                    "{family}: post {ix} diverged across identical draws"
                );
            }
            for (da, db) in a.iterations.deltas.iter().zip(&b.iterations.deltas) {
                assert_eq!(da.post_doc, db.post_doc, "{family}: delta bytes diverged");
            }
        }
    }

    #[test]
    fn different_seeds_draw_different_scenarios() {
        // not every family must differ on every seed pair, but at least
        // one must — a constant generator would be a registry bug
        let differs = ScenarioFamily::ALL.into_iter().any(|family| {
            let a = generate(family, 1);
            let b = generate(family, 2);
            a.iterations.posts.last().unwrap().to_json().unwrap()
                != b.iterations.posts.last().unwrap().to_json().unwrap()
                || a.params.regions != b.params.regions
        });
        assert!(differs, "seeds 1 and 2 drew identical scenarios everywhere");
    }

    #[test]
    fn every_family_produces_a_visible_change() {
        for family in ScenarioFamily::ALL {
            let sc = generate(family, 3);
            assert!(sc.iteration_count() >= 2, "{family}: too few iterations");
            assert_eq!(sc.iterations.deltas.len(), sc.iteration_count() - 1);
            let pre_json = sc.iterations.pre.to_json().unwrap();
            let moved = sc
                .iterations
                .posts
                .iter()
                .any(|post| post.to_json().unwrap() != pre_json);
            assert!(moved, "{family}: no iteration changed the data plane");
        }
    }

    #[test]
    fn class_skew_realizes_the_skew() {
        let sc = generate(ScenarioFamily::ClassSkew, 5);
        let fecs = sc.iterations.pre.len();
        assert!(fecs >= 64, "skew scenario too small ({fecs} FECs)");
        // all flows of one (src, dst) region pair share one forwarding
        // graph shape: distinct behaviors stay tiny relative to FECs
        let mut shapes = std::collections::HashSet::new();
        for (_, graph) in sc.iterations.pre.iter() {
            shapes.insert(format!("{graph:?}"));
        }
        assert!(
            shapes.len() * 8 <= fecs,
            "expected heavy skew, got {} shapes over {fecs} FECs",
            shapes.len()
        );
    }

    #[test]
    fn registry_names_round_trip() {
        for family in ScenarioFamily::ALL {
            assert_eq!(ScenarioFamily::from_name(family.name()), Some(family));
        }
        assert_eq!(ScenarioFamily::from_name("nope"), None);
        assert_eq!(generate_all(1).len(), ScenarioFamily::ALL.len());
    }
}
