//! Compact weighted graphs used by the analytical algorithms.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Stable external node identifier. Station ids and location ids from the
/// data layer are used directly.
pub type NodeId = u64;

/// A weighted graph (directed or undirected) with merged parallel edges.
///
/// This is the projection every algorithm runs on — the analogue of a Neo4j
/// GDS in-memory graph. Node ids are arbitrary [`NodeId`]s supplied by the
/// caller; internally they are mapped to dense indices.
///
/// * In an **undirected** graph each logical edge `{u, v}` appears in both
///   adjacency lists but is counted once by [`WeightedGraph::edge_count`]
///   and once in [`WeightedGraph::total_weight`]. Self-loops appear once in
///   the adjacency list.
/// * In a **directed** graph edges are stored in out- and in-adjacency.
///
/// Adding an edge between the same pair twice merges the weights, which is
/// exactly the "weighted by the number of trips" aggregation the paper uses
/// for `GBasic`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedGraph {
    directed: bool,
    node_ids: Vec<NodeId>,
    index: HashMap<NodeId, usize>,
    out_adj: Vec<HashMap<usize, f64>>,
    in_adj: Vec<HashMap<usize, f64>>,
    edge_count: usize,
    total_weight: f64,
}

impl WeightedGraph {
    /// Create an empty undirected graph.
    pub fn new_undirected() -> Self {
        Self::new(false)
    }

    /// Create an empty directed graph.
    pub fn new_directed() -> Self {
        Self::new(true)
    }

    fn new(directed: bool) -> Self {
        Self {
            directed,
            node_ids: Vec::new(),
            index: HashMap::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            edge_count: 0,
            total_weight: 0.0,
        }
    }

    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_ids.len()
    }

    /// Number of distinct (merged) edges. Undirected edges and self-loops
    /// count once; in a directed graph `u -> v` and `v -> u` are distinct.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sum of all edge weights (merged edges counted once).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_ids.is_empty()
    }

    /// Add a node if it is not already present; returns its dense index.
    pub fn add_node(&mut self, id: NodeId) -> usize {
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let i = self.node_ids.len();
        self.node_ids.push(id);
        self.index.insert(id, i);
        self.out_adj.push(HashMap::new());
        self.in_adj.push(HashMap::new());
        i
    }

    /// Add an edge (creating missing endpoints), merging the weight into any
    /// existing edge between the pair.
    ///
    /// Non-finite or negative weights are ignored with a debug assertion —
    /// callers validate weights at the boundary.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f64) {
        debug_assert!(
            weight.is_finite() && weight >= 0.0,
            "invalid weight {weight}"
        );
        if !weight.is_finite() || weight < 0.0 {
            return;
        }
        let s = self.add_node(src);
        let d = self.add_node(dst);
        self.total_weight += weight;

        if self.directed {
            let is_new = !self.out_adj[s].contains_key(&d);
            *self.out_adj[s].entry(d).or_insert(0.0) += weight;
            *self.in_adj[d].entry(s).or_insert(0.0) += weight;
            if is_new {
                self.edge_count += 1;
            }
        } else {
            let is_new = !self.out_adj[s].contains_key(&d);
            *self.out_adj[s].entry(d).or_insert(0.0) += weight;
            if s != d {
                *self.out_adj[d].entry(s).or_insert(0.0) += weight;
            }
            if is_new {
                self.edge_count += 1;
            }
        }
    }

    /// Whether the node id is present.
    pub fn contains(&self, id: NodeId) -> bool {
        self.index.contains_key(&id)
    }

    /// The dense index of a node id.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// The node id at a dense index.
    pub fn id_of(&self, index: usize) -> Option<NodeId> {
        self.node_ids.get(index).copied()
    }

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }

    /// Neighbours (by dense index) with merged edge weights.
    ///
    /// For a directed graph these are out-neighbours.
    pub fn neighbors(&self, index: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.out_adj[index].iter().map(|(&n, &w)| (n, w))
    }

    /// In-neighbours (by dense index) with merged edge weights. Only
    /// meaningful for directed graphs; for undirected graphs this equals
    /// [`WeightedGraph::neighbors`].
    pub fn in_neighbors(&self, index: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let adj = if self.directed {
            &self.in_adj[index]
        } else {
            &self.out_adj[index]
        };
        adj.iter().map(|(&n, &w)| (n, w))
    }

    /// The merged weight of the edge from `src` to `dst`, if present.
    pub fn edge_weight(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let s = self.index_of(src)?;
        let d = self.index_of(dst)?;
        self.out_adj[s].get(&d).copied()
    }

    /// Degree of a node id: the number of distinct neighbours
    /// (out-neighbours in a directed graph). Self-loops count once.
    pub fn degree_of(&self, id: NodeId) -> Option<usize> {
        Some(self.out_adj[self.index_of(id)?].len())
    }

    /// Strength of a node id: the sum of the weights of its incident edges
    /// (out-edges in a directed graph).
    pub fn strength_of(&self, id: NodeId) -> Option<f64> {
        Some(self.out_adj[self.index_of(id)?].values().sum())
    }

    /// Strength by dense index (see [`WeightedGraph::strength_of`]).
    pub fn strength(&self, index: usize) -> f64 {
        self.out_adj[index].values().sum()
    }

    /// Degree by dense index (see [`WeightedGraph::degree_of`]).
    pub fn degree(&self, index: usize) -> usize {
        self.out_adj[index].len()
    }

    /// In-strength by dense index: total weight of incoming edges (equals
    /// strength for undirected graphs).
    pub fn in_strength(&self, index: usize) -> f64 {
        if self.directed {
            self.in_adj[index].values().sum()
        } else {
            self.strength(index)
        }
    }

    /// The weight of the self-loop at a node id, or 0.0 when absent.
    pub fn self_loop_weight(&self, id: NodeId) -> f64 {
        self.index_of(id)
            .and_then(|i| self.out_adj[i].get(&i).copied())
            .unwrap_or(0.0)
    }

    /// Iterate over all merged edges as `(src_id, dst_id, weight)`.
    ///
    /// Undirected edges are yielded once with `src_index <= dst_index`;
    /// directed edges are yielded as stored.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (i, adj) in self.out_adj.iter().enumerate() {
            for (&j, &w) in adj {
                if self.directed || i <= j {
                    out.push((self.node_ids[i], self.node_ids[j], w));
                }
            }
        }
        out
    }

    /// An undirected copy of this graph: for a directed graph, `u -> v` and
    /// `v -> u` weights are summed into `{u, v}`; self-loop weights carry
    /// over unchanged. For an undirected graph this is a plain clone.
    ///
    /// This is the projection used before running Louvain, which the paper
    /// runs on "bidirectional" graphs.
    pub fn to_undirected(&self) -> WeightedGraph {
        if !self.directed {
            return self.clone();
        }
        let mut g = WeightedGraph::new_undirected();
        // Preserve node order so dense indices remain comparable.
        for &id in &self.node_ids {
            g.add_node(id);
        }
        for (i, adj) in self.out_adj.iter().enumerate() {
            for (&j, &w) in adj {
                if i <= j {
                    g.add_edge(self.node_ids[i], self.node_ids[j], w);
                } else {
                    // Only add the reverse direction here if there is no
                    // forward edge; otherwise it is merged when we visit it.
                    g.add_edge(self.node_ids[j], self.node_ids[i], w);
                }
            }
        }
        g
    }

    /// Freeze this builder into an immutable [`crate::CsrGraph`] — the
    /// compressed-sparse-row representation every hot algorithm consumes.
    /// Freeze once, then share the frozen graph across algorithms; see the
    /// [`crate::csr`] module docs for the builder/frozen lifecycle.
    pub fn freeze(&self) -> crate::CsrGraph {
        crate::CsrGraph::from_weighted(self)
    }

    /// Build a new graph containing only the nodes for which `keep` returns
    /// true (and the edges among them).
    pub fn subgraph<F: Fn(NodeId) -> bool>(&self, keep: F) -> WeightedGraph {
        let mut g = if self.directed {
            WeightedGraph::new_directed()
        } else {
            WeightedGraph::new_undirected()
        };
        for &id in &self.node_ids {
            if keep(id) {
                g.add_node(id);
            }
        }
        for (src, dst, w) in self.edges() {
            if keep(src) && keep(dst) {
                g.add_edge(src, dst, w);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::new_undirected();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn parallel_edges_merge() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 3.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 1, 1.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(1, 2), Some(6.0));
        assert_eq!(g.edge_weight(2, 1), Some(6.0));
        assert_eq!(g.total_weight(), 6.0);
    }

    #[test]
    fn directed_edges_are_distinct() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 1, 1.0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(3.0));
        assert_eq!(g.edge_weight(2, 1), Some(1.0));
    }

    #[test]
    fn self_loops() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(5, 5, 4.0);
        g.add_edge(5, 6, 1.0);
        assert_eq!(g.self_loop_weight(5), 4.0);
        assert_eq!(g.self_loop_weight(6), 0.0);
        assert_eq!(g.edge_count(), 2);
        // Degree counts the self-loop once.
        assert_eq!(g.degree_of(5), Some(2));
        // Strength counts the loop weight once too.
        assert_eq!(g.strength_of(5), Some(5.0));
    }

    #[test]
    fn degree_and_strength() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 3.0);
        g.add_edge(1, 3, 2.0);
        g.add_edge(2, 3, 1.0);
        assert_eq!(g.degree_of(1), Some(2));
        assert_eq!(g.strength_of(1), Some(5.0));
        assert_eq!(g.degree_of(99), None);
        assert_eq!(g.strength_of(99), None);
    }

    #[test]
    fn directed_in_out() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 3.0);
        g.add_edge(3, 2, 2.0);
        g.add_edge(2, 1, 1.0);
        let i2 = g.index_of(2).unwrap();
        assert_eq!(g.degree(i2), 1); // out-neighbours: {1}
        assert_eq!(g.strength(i2), 1.0);
        assert_eq!(g.in_strength(i2), 5.0);
        let in_n: Vec<usize> = g.in_neighbors(i2).map(|(n, _)| n).collect();
        assert_eq!(in_n.len(), 2);
    }

    #[test]
    fn edges_listing_undirected_unique() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(4, 4, 2.0);
        let mut edges = g.edges();
        edges.sort_by_key(|&(a, b, _)| (a, b));
        assert_eq!(edges.len(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn to_undirected_sums_reciprocal_edges() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 1, 2.0);
        g.add_edge(3, 3, 5.0);
        let u = g.to_undirected();
        assert!(!u.is_directed());
        assert_eq!(u.edge_weight(1, 2), Some(5.0));
        assert_eq!(u.self_loop_weight(3), 5.0);
        assert_eq!(u.edge_count(), 2);
        assert_eq!(u.total_weight(), 10.0);
    }

    #[test]
    fn subgraph_keeps_only_selected() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        let sub = g.subgraph(|id| id <= 2);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.edge_weight(1, 2).is_some());
        assert!(sub.edge_weight(2, 3).is_none());
    }

    #[test]
    fn index_id_round_trip() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(10, 20, 1.0);
        let i = g.index_of(20).unwrap();
        assert_eq!(g.id_of(i), Some(20));
        assert_eq!(g.id_of(999), None);
    }

    #[test]
    fn total_weight_undirected_counts_each_edge_once() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g.add_edge(1, 1, 1.0);
        assert_eq!(g.total_weight(), 6.0);
    }
}
