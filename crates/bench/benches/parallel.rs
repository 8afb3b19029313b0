//! Serial-vs-parallel scaling of the deterministic CSR execution layer:
//! PageRank sweeps and Louvain on planted-partition graphs at medium and
//! large scale, and on the paper's own `GHour` graph from the synthetic
//! Dublin generator, at 1 / 2 / 4 / 8 worker threads.
//!
//! The 1-thread column is the serial CSR baseline — by the scheduler's
//! determinism contract every other column computes the *same bits*, so the
//! ratios are pure execution-layer speedup (on a multi-core host; a
//! single-core runner shows ratios near 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moby_bench::{run_pipeline, Scale};
use moby_community::{louvain_csr, LouvainConfig};
use moby_core::temporal::build_all_from_trips;
use moby_graph::metrics::{pagerank_csr, PageRankConfig};
use moby_graph::WeightedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A planted-partition graph: `communities` groups of `size` nodes with
/// dense internal and sparse external connectivity (same generator as the
/// `csr` bench).
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

fn bench_pagerank_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagerank_threads");
    group.sample_size(10);
    for &(communities, size, label) in &[(10usize, 120usize, "medium"), (20, 150, "large")] {
        let frozen = planted_graph(communities, size, 17).freeze();
        for &t in &THREAD_COUNTS {
            let cfg = PageRankConfig {
                threads: Some(t),
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(label, t), &t, |bench, _| {
                bench.iter(|| pagerank_csr(&frozen, &cfg).len())
            });
        }
    }
    group.finish();
}

fn bench_louvain_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("louvain_threads");
    group.sample_size(10);
    for &(communities, size, label) in &[(10usize, 120usize, "medium"), (20, 150, "large")] {
        let frozen = planted_graph(communities, size, 17).freeze();
        for &t in &THREAD_COUNTS {
            let cfg = LouvainConfig {
                threads: Some(t),
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(label, t), &t, |bench, _| {
                bench.iter(|| louvain_csr(&frozen, &cfg).community_count())
            });
        }
    }
    group.finish();
}

fn bench_dublin_ghour_threads(c: &mut Criterion) {
    // The paper's finest-granularity layered graph at medium scale — the
    // hot detection input of the real pipeline.
    let outcome = run_pipeline(Scale::Medium);
    let ghour = build_all_from_trips(&outcome.selected.trips, None, None)
        .pop()
        .expect("GHour is the last granularity");
    let mut group = c.benchmark_group("dublin_ghour_threads");
    group.sample_size(10);
    for &t in &THREAD_COUNTS {
        let lcfg = LouvainConfig {
            threads: Some(t),
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("louvain", t), &t, |bench, _| {
            bench.iter(|| louvain_csr(&ghour.csr, &lcfg).community_count())
        });
        let pcfg = PageRankConfig {
            threads: Some(t),
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("pagerank", t), &t, |bench, _| {
            bench.iter(|| pagerank_csr(&ghour.csr, &pcfg).len())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pagerank_threads,
    bench_louvain_threads,
    bench_dublin_ghour_threads,
);
criterion_main!(benches);
