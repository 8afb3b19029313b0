//! Per-community trip accounting — the layout of the paper's Tables IV–VI.
//!
//! For each community the paper reports: the number of old (pre-existing)
//! and new (selected) stations, and the number of trips that start and end
//! inside the community (*within*), start inside but end elsewhere (*out*),
//! and start elsewhere but end inside (*in*). The *total* column is
//! `within * 2 + out + in` in the paper's convention? No — the paper's
//! total column is the sum of trips that touch the community counting
//! within-trips once at each end: `Total = Within + Out + In + Within`,
//! which equals the total number of trip-endpoints in the community. We
//! reproduce the exact columns (within / out / in) and a `total` equal to
//! `within + out + in + within` so the rows match the paper's arithmetic
//! (e.g. community 1 of Table IV: 12,012 + 5,238 + 5,255 = 22,505 with
//! within counted once — the paper's total equals within + out + in).

use crate::Partition;
use moby_graph::{CsrGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// Trip accounting for one community.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CommunityRow {
    /// Community label (canonical, 0-based internally; reports print 1-based).
    pub community: usize,
    /// Number of member stations that are pre-existing (old).
    pub old_stations: usize,
    /// Number of member stations that were newly selected.
    pub new_stations: usize,
    /// Trips starting and ending inside the community.
    pub within: f64,
    /// Trips starting inside the community but ending outside.
    pub out: f64,
    /// Trips starting outside the community but ending inside.
    pub incoming: f64,
}

impl CommunityRow {
    /// Total member stations.
    pub fn total_stations(&self) -> usize {
        self.old_stations + self.new_stations
    }

    /// Total trips touching the community (the paper's "Total" column:
    /// within + out + in).
    pub fn total_trips(&self) -> f64 {
        self.within + self.out + self.incoming
    }
}

/// The full table for one detected partition.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CommunityTable {
    /// One row per community, ordered by community label.
    pub rows: Vec<CommunityRow>,
    /// Modularity of the partition on the graph it was computed from.
    pub modularity: f64,
}

impl CommunityTable {
    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.rows.len()
    }

    /// Total within-community trips across all communities.
    pub fn total_within(&self) -> f64 {
        self.rows.iter().map(|r| r.within).sum()
    }

    /// Total trips (each trip counted once: within once, cross-community
    /// trips once via their origin's `out`).
    pub fn total_trips(&self) -> f64 {
        self.rows.iter().map(|r| r.within + r.out).sum()
    }

    /// The share of all trips that start and end in the same community —
    /// the paper's headline "~74% of trips are self-contained".
    pub fn self_contained_share(&self) -> f64 {
        let total = self.total_trips();
        if total <= 0.0 {
            0.0
        } else {
            self.total_within() / total
        }
    }
}

/// Build the per-community trip table.
///
/// * `trip_graph` — the **directed** weighted station graph, frozen to CSR
///   (edge weight = number of trips from src to dst, self-loops allowed);
///   freeze the directed trip graph once and share it across the three
///   temporal granularities;
/// * `partition` — the community assignment (typically from Louvain on the
///   undirected projection);
/// * `old_stations` — the ids of pre-existing stations (everything else in
///   the graph is counted as a new station);
/// * `modularity` — the modularity score to record alongside the table.
pub fn community_table(
    trip_graph: &CsrGraph,
    partition: &Partition,
    old_stations: &HashSet<NodeId>,
    modularity: f64,
) -> CommunityTable {
    let mut rows: BTreeMap<usize, CommunityRow> = BTreeMap::new();
    // Station membership counts.
    for (&node, &comm) in partition
        .communities()
        .iter()
        .flat_map(|(c, members)| members.iter().map(move |m| (m, c)))
    {
        let row = rows.entry(comm).or_insert_with(|| CommunityRow {
            community: comm,
            ..Default::default()
        });
        if old_stations.contains(&node) {
            row.old_stations += 1;
        } else {
            row.new_stations += 1;
        }
    }
    // Trip flows.
    for (src, dst, w) in trip_graph.edges() {
        let (Some(cs), Some(cd)) = (partition.community_of(src), partition.community_of(dst))
        else {
            continue;
        };
        if cs == cd {
            rows.entry(cs)
                .or_insert_with(|| CommunityRow {
                    community: cs,
                    ..Default::default()
                })
                .within += w;
        } else {
            rows.entry(cs)
                .or_insert_with(|| CommunityRow {
                    community: cs,
                    ..Default::default()
                })
                .out += w;
            rows.entry(cd)
                .or_insert_with(|| CommunityRow {
                    community: cd,
                    ..Default::default()
                })
                .incoming += w;
        }
    }
    CommunityTable {
        rows: rows.into_values().collect(),
        modularity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use moby_graph::WeightedGraph;

    /// Two communities {1,2} and {3,4}; directed trips:
    /// 1->2: 10, 2->1: 5 (within A), 3->4: 8 (within B),
    /// 1->3: 2 (A out / B in), 4->2: 3 (B out / A in), 1->1: 4 (self-loop).
    fn setup() -> (CsrGraph, Partition, HashSet<NodeId>) {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 10.0);
        g.add_edge(2, 1, 5.0);
        g.add_edge(3, 4, 8.0);
        g.add_edge(1, 3, 2.0);
        g.add_edge(4, 2, 3.0);
        g.add_edge(1, 1, 4.0);
        let p: Partition = [(1u64, 0usize), (2, 0), (3, 1), (4, 1)]
            .into_iter()
            .collect();
        let old: HashSet<NodeId> = [1, 3].into_iter().collect();
        (g.freeze(), p, old)
    }

    #[test]
    fn rows_have_expected_flows() {
        let (g, p, old) = setup();
        let table = community_table(&g, &p, &old, 0.31);
        assert_eq!(table.community_count(), 2);
        let a = &table.rows[0];
        assert_eq!(a.community, 0);
        assert_eq!(a.old_stations, 1);
        assert_eq!(a.new_stations, 1);
        assert_eq!(a.within, 19.0); // 10 + 5 + 4 (self-loop)
        assert_eq!(a.out, 2.0);
        assert_eq!(a.incoming, 3.0);
        assert_eq!(a.total_trips(), 24.0);
        let b = &table.rows[1];
        assert_eq!(b.within, 8.0);
        assert_eq!(b.out, 3.0);
        assert_eq!(b.incoming, 2.0);
        assert_eq!(table.modularity, 0.31);
    }

    #[test]
    fn totals_and_self_contained_share() {
        let (g, p, old) = setup();
        let table = community_table(&g, &p, &old, 0.0);
        // Total trips = sum of all edge weights = 32.
        assert_eq!(table.total_trips(), 32.0);
        assert_eq!(table.total_within(), 27.0);
        assert!((table.self_contained_share() - 27.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn unassigned_nodes_are_skipped_from_flows() {
        let (g, _, old) = setup();
        let p: Partition = [(1u64, 0usize), (2, 0)].into_iter().collect();
        let table = community_table(&g, &p, &old, 0.0);
        assert_eq!(table.community_count(), 1);
        // Only trips with both endpoints assigned are counted.
        let a = &table.rows[0];
        assert_eq!(a.within, 19.0);
        assert_eq!(a.out, 0.0);
        assert_eq!(a.incoming, 0.0);
    }

    #[test]
    fn station_counts_respect_old_set() {
        let (g, p, _) = setup();
        let all_old: HashSet<NodeId> = [1, 2, 3, 4].into_iter().collect();
        let table = community_table(&g, &p, &all_old, 0.0);
        assert!(table.rows.iter().all(|r| r.new_stations == 0));
        let none_old: HashSet<NodeId> = HashSet::new();
        let table2 = community_table(&g, &p, &none_old, 0.0);
        assert!(table2.rows.iter().all(|r| r.old_stations == 0));
        assert_eq!(table2.rows[0].total_stations(), 2);
    }

    #[test]
    fn empty_partition_gives_empty_table() {
        let (g, _, old) = setup();
        let table = community_table(&g, &Partition::new(), &old, 0.0);
        assert_eq!(table.community_count(), 0);
        assert_eq!(table.total_trips(), 0.0);
        assert_eq!(table.self_contained_share(), 0.0);
    }
}
