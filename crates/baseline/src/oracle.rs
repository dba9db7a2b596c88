//! Diff-to-verdict adapter: the bridge between the §2.3 path diff and
//! the relational checker's violation list.
//!
//! The differential-fuzz harness checks the spec `nochange := { .* :
//! preserve }`, whose violation set must — by construction — be exactly
//! the set of flows the exact path diff flags at the same granularity.
//! This module renders both sides into comparable flow sets and reports
//! any disagreement, split into the two directions that mean different
//! bugs: flows the checker *missed* (oracle flagged, checker compliant)
//! and flows it flagged *spuriously* (checker violated, oracle clean).
//!
//! Agreement proves the preserve-fragment semantics only: it says the
//! checker's lowering, determinization, and equivalence decisions match
//! an independent per-FEC implementation, across whatever ingest path
//! produced the pair. It says nothing about richer spec features
//! (`any`/`add`/`remove` modifiers, `else` chains, `where` zones, pspec
//! routes, raw RIR, ECMP limits): the harness judges those in a second
//! column, against an exact evaluator of the paper's Appendix-A
//! semantics kept with `rela-core`'s tests (`docs/FUZZING.md`, *Oracle
//! semantics*).

use crate::pathdiff::{path_diff, DiffOptions, PathDiff};
use rela_net::{FlowSpec, Granularity, LocationDb, SnapshotPair};
use std::collections::BTreeSet;
use std::fmt;

/// The oracle's answer: the set of flows whose path sets changed.
pub type ChangedFlows = BTreeSet<FlowSpec>;

/// Run the path diff and reduce it to its changed-flow set.
pub fn changed_flows(diff: &PathDiff) -> ChangedFlows {
    diff.entries.iter().map(|e| e.flow.clone()).collect()
}

/// Compute the oracle verdict for a pair directly: which flows must a
/// `nochange` check flag at `granularity`?
pub fn oracle_verdict(
    pair: &SnapshotPair,
    db: &LocationDb,
    granularity: Granularity,
) -> ChangedFlows {
    changed_flows(&path_diff(
        pair,
        db,
        DiffOptions {
            granularity,
            // the harness compares membership, not listings
            max_paths_listed: 1,
        },
    ))
}

/// A verdict disagreement between the checker and the path-diff oracle.
#[derive(Debug, Clone, Default)]
pub struct Disagreement {
    /// Flows the oracle flagged but the checker reported compliant —
    /// a missed violation (the dangerous direction).
    pub missed: Vec<FlowSpec>,
    /// Flows the checker flagged but the oracle found unchanged — a
    /// false positive.
    pub spurious: Vec<FlowSpec>,
}

impl Disagreement {
    /// True when both directions are empty.
    pub fn is_empty(&self) -> bool {
        self.missed.is_empty() && self.spurious.is_empty()
    }
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "checker/oracle disagreement: {} missed, {} spurious",
            self.missed.len(),
            self.spurious.len()
        )?;
        for flow in &self.missed {
            writeln!(f, "  missed   {flow}")?;
        }
        for flow in &self.spurious {
            writeln!(f, "  spurious {flow}")?;
        }
        Ok(())
    }
}

/// Compare the checker's flagged-flow set against the oracle's.
///
/// `Ok(())` means exact agreement; `Err` carries both directions of
/// mismatch for the minimizer and the repro bundle.
pub fn compare(oracle: &ChangedFlows, flagged: &ChangedFlows) -> Result<(), Disagreement> {
    let disagreement = Disagreement {
        missed: oracle.difference(flagged).cloned().collect(),
        spurious: flagged.difference(oracle).cloned().collect(),
    };
    if disagreement.is_empty() {
        Ok(())
    } else {
        Err(disagreement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathdiff::DiffEntry;

    fn flow(tag: u8) -> FlowSpec {
        FlowSpec::new(
            rela_net::Ipv4Prefix::from_octets(10, tag, 0, 0, 24),
            format!("in{tag}"),
        )
    }

    #[test]
    fn changed_flows_collects_entries() {
        let diff = PathDiff {
            entries: vec![
                DiffEntry {
                    flow: flow(1),
                    pre_paths: vec![],
                    post_paths: vec![],
                },
                DiffEntry {
                    flow: flow(2),
                    pre_paths: vec![],
                    post_paths: vec![],
                },
            ],
            total: 5,
        };
        let set = changed_flows(&diff);
        assert_eq!(set.len(), 2);
        assert!(set.contains(&flow(1)) && set.contains(&flow(2)));
    }

    #[test]
    fn compare_reports_both_directions() {
        let oracle: ChangedFlows = [flow(1), flow(2)].into_iter().collect();
        let flagged: ChangedFlows = [flow(2), flow(3)].into_iter().collect();
        let err = compare(&oracle, &flagged).unwrap_err();
        assert_eq!(err.missed, vec![flow(1)]);
        assert_eq!(err.spurious, vec![flow(3)]);
        let shown = err.to_string();
        assert!(shown.contains("1 missed") && shown.contains("1 spurious"));
    }

    #[test]
    fn compare_accepts_agreement() {
        let oracle: ChangedFlows = [flow(4)].into_iter().collect();
        assert!(compare(&oracle, &oracle.clone()).is_ok());
    }
}
