//! GeoJSON export of graphs.
//!
//! The paper presents its results as map figures (Figs. 1–4, 6). We cannot
//! render raster maps here, but the GeoJSON export reproduces the underlying
//! artefacts: node features carry the community/colour assignments and edge
//! features carry the trip weights, so any GIS viewer reproduces the figure.

use crate::{CsrGraph, NodeId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Per-node attributes attached to GeoJSON point features.
#[derive(Debug, Clone, Default)]
pub struct NodeFeature {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Display name.
    pub name: String,
    /// Community assignment, if any.
    pub community: Option<usize>,
    /// Whether this is a pre-existing (fixed) station as opposed to a newly
    /// selected one.
    pub is_fixed: bool,
}

/// Render a GeoJSON `FeatureCollection` with one point feature per node and
/// one line feature per edge (weight in properties).
///
/// Nodes missing from `features` are skipped (as are their edges); this is
/// how the export naturally restricts a figure to the stations it shows.
/// `min_edge_weight` drops light edges — Fig. 2 only draws the top percentile
/// of edge weights, which callers implement by passing the percentile value.
pub fn to_geojson(
    graph: &CsrGraph,
    features: &HashMap<NodeId, NodeFeature>,
    min_edge_weight: f64,
) -> String {
    let mut parts: Vec<String> = Vec::new();

    let mut ids: Vec<NodeId> = graph
        .node_ids()
        .iter()
        .copied()
        .filter(|id| features.contains_key(id))
        .collect();
    ids.sort_unstable();

    for id in &ids {
        let f = &features[id];
        let community = f
            .community
            .map(|c| c.to_string())
            .unwrap_or_else(|| "null".to_string());
        let self_loops = graph
            .index_of(*id)
            .map(|u| graph.self_loop(u as usize))
            .unwrap_or(0.0);
        parts.push(format!(
            concat!(
                "{{\"type\":\"Feature\",\"geometry\":{{\"type\":\"Point\",",
                "\"coordinates\":[{lon},{lat}]}},\"properties\":{{",
                "\"id\":{id},\"name\":\"{name}\",\"community\":{community},",
                "\"fixed\":{fixed},\"self_trips\":{selfw}}}}}"
            ),
            lon = f.lon,
            lat = f.lat,
            id = id,
            name = json_escape(&f.name),
            community = community,
            fixed = f.is_fixed,
            selfw = self_loops,
        ));
    }

    let mut edges: Vec<(NodeId, NodeId, f64)> = graph.edges().collect();
    edges.sort_by_key(|a| (a.0, a.1));
    for (src, dst, w) in edges {
        if w < min_edge_weight || src == dst {
            continue;
        }
        let (Some(fs), Some(fd)) = (features.get(&src), features.get(&dst)) else {
            continue;
        };
        parts.push(format!(
            concat!(
                "{{\"type\":\"Feature\",\"geometry\":{{\"type\":\"LineString\",",
                "\"coordinates\":[[{lon1},{lat1}],[{lon2},{lat2}]]}},",
                "\"properties\":{{\"src\":{src},\"dst\":{dst},\"weight\":{w}}}}}"
            ),
            lon1 = fs.lon,
            lat1 = fs.lat,
            lon2 = fd.lon,
            lat2 = fd.lat,
            src = src,
            dst = dst,
            w = w,
        ));
    }

    format!(
        "{{\"type\":\"FeatureCollection\",\"features\":[{}]}}",
        parts.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedGraph;

    fn sample() -> WeightedGraph {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(1, 1, 2.0);
        g
    }

    #[test]
    fn geojson_contains_points_and_lines() {
        let g = sample().freeze();
        let mut feats = HashMap::new();
        for (id, lat, lon) in [(1u64, 53.35, -6.26), (2, 53.36, -6.25), (3, 53.34, -6.24)] {
            feats.insert(
                id,
                NodeFeature {
                    lat,
                    lon,
                    name: format!("S{id}"),
                    community: Some(id as usize % 2),
                    is_fixed: id == 1,
                },
            );
        }
        let gj = to_geojson(&g, &feats, 0.0);
        assert!(gj.starts_with("{\"type\":\"FeatureCollection\""));
        assert!(gj.contains("\"Point\""));
        assert!(gj.contains("\"LineString\""));
        assert!(gj.contains("\"self_trips\":2"));
        assert!(gj.contains("\"fixed\":true"));
        // Self-loop must not appear as a LineString.
        assert!(!gj.contains("[[-6.26,53.35],[-6.26,53.35]]"));
    }

    #[test]
    fn geojson_edge_weight_filter() {
        let g = sample().freeze();
        let mut feats = HashMap::new();
        for (id, lat, lon) in [(1u64, 53.35, -6.26), (2, 53.36, -6.25), (3, 53.34, -6.24)] {
            feats.insert(
                id,
                NodeFeature {
                    lat,
                    lon,
                    name: String::new(),
                    community: None,
                    is_fixed: false,
                },
            );
        }
        let gj = to_geojson(&g, &feats, 2.0);
        // Only the weight-3 edge survives.
        assert!(gj.contains("\"weight\":3"));
        assert!(!gj.contains("\"weight\":1"));
        assert!(gj.contains("\"community\":null"));
    }

    #[test]
    fn geojson_skips_nodes_without_features() {
        let g = sample().freeze();
        let mut feats = HashMap::new();
        feats.insert(
            1u64,
            NodeFeature {
                lat: 53.35,
                lon: -6.26,
                name: "only".into(),
                community: None,
                is_fixed: true,
            },
        );
        let gj = to_geojson(&g, &feats, 0.0);
        assert!(gj.contains("\"id\":1"));
        assert!(!gj.contains("\"id\":2"));
        assert!(!gj.contains("LineString"));
    }

    #[test]
    fn json_escape_handles_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("tab\there"), "tab\\there");
    }
}
