//! Degree summary statistics.

use crate::{CsrGraph, NodeId};

/// Per-graph degree summary statistics.
///
/// The station-selection algorithm needs the **minimum degree of the
/// pre-existing stations** (Algorithm 1, line 1); the reporting layer also
/// prints the mean and maximum.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeSummary {
    /// Smallest degree over the summarised nodes.
    pub min: usize,
    /// Largest degree over the summarised nodes.
    pub max: usize,
    /// Mean degree over the summarised nodes.
    pub mean: f64,
    /// Number of nodes summarised.
    pub count: usize,
}

impl DegreeSummary {
    /// Summarise a collected degree list (`None` when empty).
    fn from_degrees(degrees: Vec<usize>) -> Option<Self> {
        if degrees.is_empty() {
            return None;
        }
        let min = *degrees.iter().min().expect("non-empty");
        let max = *degrees.iter().max().expect("non-empty");
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        Some(Self {
            min,
            max,
            mean,
            count: degrees.len(),
        })
    }

    /// Summarise the degrees of the given node ids in a frozen
    /// [`CsrGraph`]: degrees come straight off the offsets array. Ids not
    /// in the graph are skipped. Returns `None` when no listed node exists.
    pub fn for_nodes_csr(graph: &CsrGraph, ids: &[NodeId]) -> Option<Self> {
        Self::from_degrees(ids.iter().filter_map(|&id| graph.degree_of(id)).collect())
    }

    /// Summarise every node in a frozen [`CsrGraph`].
    pub fn for_graph_csr(graph: &CsrGraph) -> Option<Self> {
        Self::for_nodes_csr(graph, graph.node_ids())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedGraph;

    fn triangle_plus_leaf() -> CsrGraph {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(3, 4, 5.0);
        g.freeze()
    }

    #[test]
    fn summary_for_all_nodes() {
        let g = triangle_plus_leaf();
        let s = DegreeSummary::for_graph_csr(&g).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_for_subset_ignores_missing() {
        let g = triangle_plus_leaf();
        let s = DegreeSummary::for_nodes_csr(&g, &[1, 4, 999]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 2);
    }

    #[test]
    fn summary_of_nothing_is_none() {
        let g = triangle_plus_leaf();
        assert!(DegreeSummary::for_nodes_csr(&g, &[999]).is_none());
        let empty = WeightedGraph::new_undirected().freeze();
        assert!(DegreeSummary::for_graph_csr(&empty).is_none());
    }
}
