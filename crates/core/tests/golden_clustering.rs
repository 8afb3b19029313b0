//! Golden snapshot of the constrained clustering (§IV-A) on the seeded
//! synthetic datasets.
//!
//! Candidate stations come from complete-linkage HAC cut at 100 m. The
//! pinned values are the candidate count and an FNV-1a-64 hash over every
//! candidate's sorted member list, so any change to the clustering
//! algorithm that moves a single location between candidates fails here.
//! Both datasets are small enough that the dense reference algorithm is
//! exact on them, which is where the pinned values come from.

use moby_cluster::constrained::{constrained_clustering, ConstrainedConfig};
use moby_core::ExpansionConfig;
use moby_data::clean::clean_dataset;
use moby_data::synth::{generate, SynthConfig};
use moby_geo::GeoPoint;
use std::collections::HashSet;

/// FNV-1a-64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Candidate count and member-list hash of the constrained clustering of
/// `config`'s cleaned dataset, split into fixed stations and free
/// locations as `build_candidate_network` splits it.
fn clustering_digest(config: &SynthConfig) -> (usize, u64) {
    let ds = clean_dataset(&generate(config)).dataset;
    let station_ids: HashSet<_> = ds.stations.iter().map(|s| s.id).collect();
    let stations: Vec<GeoPoint> = ds.stations.iter().map(|s| s.position).collect();
    let free: Vec<GeoPoint> = ds
        .locations
        .iter()
        .filter(|l| !l.station_id.is_some_and(|id| station_ids.contains(&id)))
        .map(|l| l.position)
        .collect();
    let cfg = ExpansionConfig::default();
    let clustering = constrained_clustering(
        &stations,
        &free,
        &ConstrainedConfig {
            station_absorb_radius_m: cfg.station_absorb_radius_m,
            cluster_boundary_m: cfg.cluster_boundary_m,
            linkage: cfg.linkage,
        },
    )
    .expect("valid clustering input");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for c in &clustering.candidate_clusters {
        let mut members = c.members.clone();
        members.sort_unstable();
        for m in members {
            h = fnv1a(h, &(m as u64).to_le_bytes());
        }
        h = fnv1a(h, &u64::MAX.to_le_bytes());
    }
    (clustering.candidate_clusters.len(), h)
}

#[test]
fn small_test_clustering_matches_golden() {
    let got = clustering_digest(&SynthConfig::small_test());
    assert_eq!(
        got,
        (237, 12_400_237_249_465_884_771),
        "small_test clustering drifted from the golden"
    );
}

#[test]
fn paper_scale_clustering_matches_golden() {
    let got = clustering_digest(&SynthConfig::paper_scale());
    assert_eq!(
        got,
        (927, 5_658_950_442_111_835_293),
        "paper_scale clustering drifted from the golden"
    );
}
