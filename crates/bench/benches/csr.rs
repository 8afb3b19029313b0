//! The freeze-to-CSR A/B benchmark: the frozen [`CsrGraph`] community path
//! (`louvain_csr` / `modularity_csr`, including the freeze itself) against
//! the legacy hash-map walk (`louvain_hashmap` / `modularity_hashmap`) on
//! the synthetic Dublin generator at medium scale and on planted-partition
//! graphs. The CSR column must win — it is the representation every
//! scaling PR builds on.
//!
//! [`CsrGraph`]: moby_graph::CsrGraph

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moby_bench::{run_pipeline, Scale};
use moby_community::{
    louvain_csr, louvain_hashmap, modularity_csr, modularity_hashmap, LouvainConfig,
};
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

fn bench_louvain_csr_vs_hashmap_planted(c: &mut Criterion) {
    let mut group = c.benchmark_group("louvain_csr_vs_hashmap");
    group.sample_size(10);
    let cfg = LouvainConfig::default();
    for &(communities, size) in &[(10usize, 60usize), (10, 120), (20, 150)] {
        let g = planted_graph(communities, size, 17);
        let nodes = g.node_count();
        // The CSR column includes the freeze itself — the honest end-to-end
        // cost of the frozen path starting from a builder graph.
        group.bench_with_input(BenchmarkId::new("csr", nodes), &nodes, |bench, _| {
            bench.iter(|| louvain_csr(&g.freeze(), &cfg).community_count())
        });
        group.bench_with_input(BenchmarkId::new("hashmap", nodes), &nodes, |bench, _| {
            bench.iter(|| louvain_hashmap(&g, &cfg).community_count())
        });
    }
    group.finish();
}

fn bench_louvain_csr_vs_hashmap_dublin_medium(c: &mut Criterion) {
    // The paper's own graphs from the synthetic Dublin generator at medium
    // scale: GBasic (station-level) and the layered GDay / GHour.
    let outcome = run_pipeline(Scale::Medium);
    let cfg = LouvainConfig::default();
    let mut group = c.benchmark_group("louvain_dublin_medium");
    group.sample_size(10);
    for granularity in TemporalGranularity::ALL {
        let (builder, _) = reference_graph(&outcome.selected.trips, granularity, false);
        let csr = builder.freeze();
        group.bench_function(format!("csr/{}", granularity.graph_name()), |bench| {
            bench.iter(|| louvain_csr(&csr, &cfg).community_count())
        });
        group.bench_function(format!("hashmap/{}", granularity.graph_name()), |bench| {
            bench.iter(|| louvain_hashmap(&builder, &cfg).community_count())
        });
    }
    group.finish();
}

fn bench_modularity_csr_vs_hashmap(c: &mut Criterion) {
    let outcome = run_pipeline(Scale::Medium);
    let cfg = LouvainConfig::default();
    let mut group = c.benchmark_group("modularity_dublin_medium");
    group.sample_size(20);
    for granularity in [TemporalGranularity::TNull, TemporalGranularity::THour] {
        let (builder, _) = reference_graph(&outcome.selected.trips, granularity, false);
        let csr = builder.freeze();
        let partition = louvain_csr(&csr, &cfg);
        group.bench_function(format!("csr/{}", granularity.graph_name()), |bench| {
            bench.iter(|| modularity_csr(&csr, &partition))
        });
        group.bench_function(format!("hashmap/{}", granularity.graph_name()), |bench| {
            bench.iter(|| modularity_hashmap(&builder, &partition))
        });
    }
    group.finish();
}

fn bench_freeze_cost(c: &mut Criterion) {
    // The one-time cost of freezing, for the record: it is amortised over
    // every downstream sweep.
    let g = planted_graph(10, 120, 17);
    let mut group = c.benchmark_group("freeze");
    group.sample_size(20);
    group.bench_function("planted_1200_nodes", |bench| {
        bench.iter(|| g.freeze().edge_count())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_louvain_csr_vs_hashmap_planted,
    bench_louvain_csr_vs_hashmap_dublin_medium,
    bench_modularity_csr_vs_hashmap,
    bench_freeze_cost,
);
criterion_main!(benches);
