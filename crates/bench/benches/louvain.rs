//! Benchmarks of community detection (§IV-C): Louvain vs label propagation
//! on station graphs of increasing size and on the layered temporal graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moby_bench::{run_pipeline, Scale};
use moby_community::{label_propagation, louvain, LabelPropagationConfig, LouvainConfig};
use moby_core::temporal::{reference_graph, TemporalGranularity};
use moby_graph::WeightedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A planted-partition graph: `communities` groups of `size` nodes with
/// dense internal and sparse external connectivity.
fn planted_graph(communities: usize, size: usize, seed: u64) -> WeightedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = WeightedGraph::new_undirected();
    for c in 0..communities as u64 {
        for i in 0..size as u64 {
            for j in (i + 1)..size as u64 {
                if rng.gen::<f64>() < 0.3 {
                    g.add_edge(c * 1_000 + i, c * 1_000 + j, rng.gen_range(1.0..5.0));
                }
            }
        }
    }
    for _ in 0..(communities * size / 4) {
        let a = rng.gen_range(0..communities as u64) * 1_000 + rng.gen_range(0..size as u64);
        let b = rng.gen_range(0..communities as u64) * 1_000 + rng.gen_range(0..size as u64);
        if a != b {
            g.add_edge(a, b, 1.0);
        }
    }
    g
}

fn bench_detectors_on_planted_graphs(c: &mut Criterion) {
    let mut group = c.benchmark_group("community_detection");
    group.sample_size(10);
    for &(communities, size) in &[(5usize, 40usize), (10, 60), (10, 120)] {
        let g = planted_graph(communities, size, 17);
        let nodes = g.node_count();
        group.bench_with_input(BenchmarkId::new("louvain", nodes), &nodes, |bench, _| {
            bench.iter(|| louvain(&g, &LouvainConfig::default()).community_count())
        });
        group.bench_with_input(
            BenchmarkId::new("label_propagation", nodes),
            &nodes,
            |bench, _| {
                bench.iter(|| {
                    label_propagation(&g, &LabelPropagationConfig::default()).community_count()
                })
            },
        );
    }
    group.finish();
}

fn bench_temporal_graphs(c: &mut Criterion) {
    // Louvain on the actual GBasic / GDay / GHour graphs from the pipeline.
    let outcome = run_pipeline(Scale::Small);
    let mut group = c.benchmark_group("louvain_temporal");
    group.sample_size(10);
    for granularity in TemporalGranularity::ALL {
        let (builder, _) = reference_graph(&outcome.selected.trips, granularity, false);
        group.bench_function(granularity.graph_name(), |bench| {
            bench.iter(|| louvain(&builder, &LouvainConfig::default()).community_count())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_detectors_on_planted_graphs,
    bench_temporal_graphs
);
criterion_main!(benches);
