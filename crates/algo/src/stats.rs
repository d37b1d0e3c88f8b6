//! Per-node instrumentation counters, consumed by the experiment harness
//! (notably E4: `search_father` cost).

use serde::{Deserialize, Serialize};

/// Counters a node maintains about its own protocol activity.
///
/// These are measurement aids, not protocol state: the algorithm never
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Requests processed with transit behavior.
    pub transits: u32,
    /// Requests processed with proxy behavior (mandates taken).
    pub proxies: u32,
    /// `search_father` procedures started.
    pub searches_started: u32,
    /// Search phases run (including try-later re-probe rounds).
    pub search_phases: u32,
    /// `test` probes sent (the paper's "number of tested nodes").
    pub nodes_tested: u32,
    /// Searches restarted from ring 1 after a partial sweep (one that
    /// began above ring 1) exhausted ring `pmax` without finding a father
    /// — the full-sweep guard that keeps false root conclusions (and thus
    /// false regenerations) out of regeneration races.
    pub search_restarts: u32,
    /// Tokens regenerated by this node (as root or search conclusion).
    pub tokens_regenerated: u32,
    /// Requests re-sent after a search concluded with a new father.
    pub requests_regenerated: u32,
    /// Enquiries sent while supervising a loan.
    pub enquiries_sent: u32,
    /// Anomaly bounces sent (as a recovered, shrunken node).
    pub anomalies_sent: u32,
    /// Anomaly bounces received (triggering a search).
    pub anomalies_received: u32,
    /// Mint ballots this node sent ([`crate::Hardening::Quorum`] only):
    /// initial ballots, timeout retries, and post-park re-ballots.
    #[serde(default)]
    pub mint_ballots: u32,
    /// Mints completed with a full quorum of grants (hardened
    /// regenerations; always 0 under [`crate::Hardening::None`]).
    #[serde(default)]
    pub mints_completed: u32,
    /// Ballots that exhausted their retry budget without a quorum and
    /// parked — the minter concluded it is (for now) on the minority side
    /// of a cut and backed off.
    #[serde(default)]
    pub mints_parked: u32,
    /// Stale tokens discarded through epoch fencing: held tokens voided by
    /// higher-epoch evidence plus trailing-epoch tokens dropped on receipt.
    #[serde(default)]
    pub epoch_discards: u64,
}

/// The counters of [`NodeStats`] every node keeps inline — the paper
/// protocol's activity. Field meanings are those of [`NodeStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PaperStats {
    pub transits: u32,
    pub proxies: u32,
    pub searches_started: u32,
    pub search_phases: u32,
    pub nodes_tested: u32,
    pub search_restarts: u32,
    pub tokens_regenerated: u32,
    pub requests_regenerated: u32,
    pub enquiries_sent: u32,
    pub anomalies_sent: u32,
    pub anomalies_received: u32,
}

/// The [`crate::Hardening::Quorum`] counters of [`NodeStats`], kept out
/// of line with the rest of the hardened state so that a
/// [`crate::Hardening::None`] node does not pay for them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QuorumStats {
    pub mint_ballots: u32,
    pub mints_completed: u32,
    pub mints_parked: u32,
    pub epoch_discards: u64,
}

impl NodeStats {
    /// Joins a node's inline and out-of-line counters.
    pub(crate) fn from_parts(paper: PaperStats, quorum: QuorumStats) -> NodeStats {
        NodeStats {
            transits: paper.transits,
            proxies: paper.proxies,
            searches_started: paper.searches_started,
            search_phases: paper.search_phases,
            nodes_tested: paper.nodes_tested,
            search_restarts: paper.search_restarts,
            tokens_regenerated: paper.tokens_regenerated,
            requests_regenerated: paper.requests_regenerated,
            enquiries_sent: paper.enquiries_sent,
            anomalies_sent: paper.anomalies_sent,
            anomalies_received: paper.anomalies_received,
            mint_ballots: quorum.mint_ballots,
            mints_completed: quorum.mints_completed,
            mints_parked: quorum.mints_parked,
            epoch_discards: quorum.epoch_discards,
        }
    }

    /// Component-wise sum, for aggregating across nodes.
    #[must_use]
    pub fn merged(self, other: NodeStats) -> NodeStats {
        NodeStats {
            transits: self.transits + other.transits,
            proxies: self.proxies + other.proxies,
            searches_started: self.searches_started + other.searches_started,
            search_phases: self.search_phases + other.search_phases,
            nodes_tested: self.nodes_tested + other.nodes_tested,
            search_restarts: self.search_restarts + other.search_restarts,
            tokens_regenerated: self.tokens_regenerated + other.tokens_regenerated,
            requests_regenerated: self.requests_regenerated + other.requests_regenerated,
            enquiries_sent: self.enquiries_sent + other.enquiries_sent,
            anomalies_sent: self.anomalies_sent + other.anomalies_sent,
            anomalies_received: self.anomalies_received + other.anomalies_received,
            mint_ballots: self.mint_ballots + other.mint_ballots,
            mints_completed: self.mints_completed + other.mints_completed,
            mints_parked: self.mints_parked + other.mints_parked,
            epoch_discards: self.epoch_discards + other.epoch_discards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let a = NodeStats { transits: 1, nodes_tested: 5, ..NodeStats::default() };
        let b = NodeStats { transits: 2, proxies: 3, ..NodeStats::default() };
        let m = a.merged(b);
        assert_eq!(m.transits, 3);
        assert_eq!(m.proxies, 3);
        assert_eq!(m.nodes_tested, 5);
    }
}
