//! Community assignments.

use moby_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// An assignment of nodes to communities.
///
/// Community labels are plain `usize` values; [`Partition::renumbered`]
/// canonicalises them to `0..k` in order of each community's smallest node
/// id, which keeps reports and tests deterministic.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Partition {
    assignment: HashMap<NodeId, usize>,
}

impl Partition {
    /// An empty partition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an explicit assignment.
    pub fn from_assignment(assignment: HashMap<NodeId, usize>) -> Self {
        Self { assignment }
    }

    /// A partition that puts every listed node in its own singleton
    /// community.
    pub fn singletons(nodes: &[NodeId]) -> Self {
        Self {
            assignment: nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect(),
        }
    }

    /// Assign a node to a community.
    pub fn assign(&mut self, node: NodeId, community: usize) {
        self.assignment.insert(node, community);
    }

    /// The community of a node, if assigned.
    pub fn community_of(&self, node: NodeId) -> Option<usize> {
        self.assignment.get(&node).copied()
    }

    /// Number of assigned nodes.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether no node is assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of distinct communities.
    pub fn community_count(&self) -> usize {
        let mut seen: Vec<usize> = self.assignment.values().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Iterate over `(node, community)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.assignment.iter().map(|(&n, &c)| (n, c))
    }

    /// The members of every community, keyed by community label, each member
    /// list sorted ascending.
    pub fn communities(&self) -> BTreeMap<usize, Vec<NodeId>> {
        let mut out: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for (&n, &c) in &self.assignment {
            out.entry(c).or_default().push(n);
        }
        for members in out.values_mut() {
            members.sort_unstable();
        }
        out
    }

    /// A copy with community labels renumbered to `0..k`, ordered by each
    /// community's smallest member node id.
    pub fn renumbered(&self) -> Partition {
        let communities = self.communities();
        let mut order: Vec<(usize, NodeId)> = communities
            .iter()
            .map(|(&label, members)| (label, members[0]))
            .collect();
        order.sort_by_key(|&(_, min_node)| min_node);
        let relabel: HashMap<usize, usize> = order
            .iter()
            .enumerate()
            .map(|(new, &(old, _))| (old, new))
            .collect();
        Partition {
            assignment: self
                .assignment
                .iter()
                .map(|(&n, &c)| (n, relabel[&c]))
                .collect(),
        }
    }

    /// Each listed node's community as its rank among the distinct
    /// communities of the listed nodes, in ascending label order (`None`
    /// for an unassigned node), and the number of distinct communities.
    pub(crate) fn ranked_labels(&self, nodes: &[NodeId]) -> (Vec<Option<usize>>, usize) {
        let mut labels: Vec<Option<usize>> =
            nodes.iter().map(|&id| self.community_of(id)).collect();
        let mut distinct: Vec<usize> = labels.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        for label in labels.iter_mut().flatten() {
            let (Ok(rank) | Err(rank)) = distinct.binary_search(label);
            *label = rank;
        }
        (labels, distinct.len())
    }

    /// The partition that puts `nodes[u]` in community `labels[u]` (each
    /// label `< k`, node ids distinct), with the canonical labels of
    /// [`Partition::renumbered`]: communities ordered by smallest member.
    /// `labels` is relabelled in place to those canonical labels.
    pub(crate) fn from_dense(nodes: &[NodeId], labels: &mut [usize], k: usize) -> Partition {
        let mut smallest: Vec<Option<NodeId>> = vec![None; k];
        for (&id, &c) in nodes.iter().zip(labels.iter()) {
            smallest[c] = Some(smallest[c].map_or(id, |s| s.min(id)));
        }
        let mut order: Vec<(NodeId, usize)> = smallest
            .iter()
            .enumerate()
            .filter_map(|(c, s)| s.map(|s| (s, c)))
            .collect();
        order.sort_unstable();
        let mut relabel = vec![0usize; k];
        for (new, &(_, old)) in order.iter().enumerate() {
            relabel[old] = new;
        }
        nodes
            .iter()
            .zip(labels.iter_mut())
            .map(|(&id, c)| {
                *c = relabel[*c];
                (id, *c)
            })
            .collect()
    }
}

impl FromIterator<(NodeId, usize)> for Partition {
    fn from_iter<T: IntoIterator<Item = (NodeId, usize)>>(iter: T) -> Self {
        Self {
            assignment: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_assignment() {
        let mut p = Partition::new();
        assert!(p.is_empty());
        p.assign(1, 10);
        p.assign(2, 10);
        p.assign(3, 20);
        assert_eq!(p.len(), 3);
        assert_eq!(p.community_of(1), Some(10));
        assert_eq!(p.community_of(99), None);
        assert_eq!(p.community_count(), 2);
    }

    #[test]
    fn singletons() {
        let p = Partition::singletons(&[5, 6, 7]);
        assert_eq!(p.community_count(), 3);
        assert_ne!(p.community_of(5), p.community_of(6));
    }

    #[test]
    fn communities_are_sorted() {
        let p: Partition = [(3u64, 1usize), (1, 1), (2, 0)].into_iter().collect();
        let c = p.communities();
        assert_eq!(c[&1], vec![1, 3]);
        assert_eq!(c[&0], vec![2]);
    }

    #[test]
    fn renumbering_is_canonical() {
        // Labels 7 and 3; community with node 1 should become label 0.
        let p: Partition = [(1u64, 7usize), (2, 7), (3, 3)].into_iter().collect();
        let r = p.renumbered();
        assert_eq!(r.community_of(1), Some(0));
        assert_eq!(r.community_of(2), Some(0));
        assert_eq!(r.community_of(3), Some(1));
        // Renumbering twice is a fixed point.
        assert_eq!(r.renumbered(), r);
    }

    #[test]
    fn dense_labels_round_trip_canonically() {
        let p: Partition = [(9u64, 7usize), (4, 7), (6, usize::MAX), (2, 3)]
            .into_iter()
            .collect();
        let nodes = [9u64, 4, 5, 6];
        let (ranked, k) = p.ranked_labels(&nodes);
        assert_eq!(ranked, vec![Some(0), Some(0), None, Some(1)]);
        assert_eq!(k, 2);
        let mut labels = [3, 3, 0, 2];
        let dense = Partition::from_dense(&[9, 4, 6, 2], &mut labels, 4);
        assert_eq!(dense, p.renumbered());
        assert_eq!(labels, [1, 1, 2, 0]);
    }
}
