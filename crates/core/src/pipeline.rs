//! The end-to-end expansion pipeline.
//!
//! [`ExpansionPipeline::run`] chains the paper's three steps over a raw
//! dataset: clean → construct candidate graph → rank & select new stations →
//! reassign → build temporal graphs → detect communities at the three
//! granularities. The result, [`ExpansionOutcome`], carries every
//! intermediate artefact needed to reproduce Tables I–VI and Figures 1–7.

use crate::candidate::{build_candidate_network, CandidateNetwork};
use crate::detect::{
    detect_communities, refresh_communities, refresh_communities_active, CommunityDetection,
    DetectConfig,
};
use crate::reassign::{build_selected_network, SelectedNetwork, WindowOutcome};
use crate::selection::{select_stations, SelectionOutcome};
use crate::temporal::{
    apply_window_all, build_all_from_trips_spilled, TemporalGranularity, TemporalGraph,
};
use crate::{CoreError, ExpansionConfig, Result};
use moby_data::clean::{clean_dataset, CleaningReport};
use moby_data::schema::{CleanDataset, RawDataset};
use moby_data::stats::DatasetOverview;
use moby_data::trips::{TripBatch, WindowStart};

/// Configuration of a full pipeline run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineConfig {
    /// Station-selection thresholds (§IV).
    pub expansion: ExpansionConfig,
    /// Community-detection settings (§IV-C).
    pub detect: DetectConfig,
    /// Number of construction shards for the temporal graph builds
    /// (`None` is one shard). Shards split the row scatter into parallel
    /// row ranges; they change build speed, never the result — frozen
    /// graphs are bit-identical at any shard count.
    pub build_shards: Option<usize>,
    /// Out-of-core spill budget in megabytes for the temporal graph
    /// builds (`None` never spills). When a granularity's estimated run
    /// size exceeds the budget, its half-edges go to per-shard disk runs
    /// and each shard fills its row buckets from its run instead of the
    /// trip columns. The buckets stay in memory either way, so spilling
    /// adds disk I/O without lowering peak memory, and never changes the
    /// result — frozen graphs are bit-identical at any budget.
    pub spill_budget_mb: Option<u64>,
    /// Windowed-lifecycle settings used by [`WindowedPipeline::advance`].
    pub window: WindowConfig,
}

/// Settings for the windowed lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Refresh communities with [`refresh_communities`] (Louvain seeded
    /// from the previous partition) instead of a cold
    /// [`detect_communities`] re-run after each window step. Seeding
    /// never lowers modularity and converges much faster when the window
    /// shifts gently; disable it to reproduce the cold-start baseline.
    pub seeded_refresh: bool,
    /// When a seeded refresh runs and the window step touched at most
    /// this fraction of the network's stations (evicted endpoints plus
    /// the batch's stations, over the post-advance station count), route
    /// the refresh through the **active-set** sweeps
    /// ([`crate::detect::refresh_communities_active`]), which re-examine
    /// only the nodes a committed move invalidated after the first
    /// whole-graph sweep. The refreshed detections are bit-identical
    /// either way — the touched fraction is a *policy* input choosing the
    /// faster path, never a correctness input. `0.0` disables the
    /// active-set route, `1.0` always takes it.
    pub active_refresh_threshold: f64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            seeded_refresh: true,
            active_refresh_threshold: 0.5,
        }
    }
}

/// Community detection results at the three temporal granularities.
#[derive(Debug, Clone)]
pub struct CommunitySet {
    /// `GBasic` (no temporal feature) — Table IV / Fig. 3.
    pub basic: CommunityDetection,
    /// `GDay` (day of week) — Table V / Figs. 4–5.
    pub day: CommunityDetection,
    /// `GHour` (hour of day) — Table VI / Figs. 6–7.
    pub hour: CommunityDetection,
}

impl CommunitySet {
    /// The detections in granularity order.
    pub fn all(&self) -> [&CommunityDetection; 3] {
        [&self.basic, &self.day, &self.hour]
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct ExpansionOutcome {
    /// Table I — original vs cleaned dataset.
    pub overview: DatasetOverview,
    /// Per-rule cleaning audit.
    pub cleaning: CleaningReport,
    /// The cleaned dataset used downstream.
    pub dataset: CleanDataset,
    /// Step 1 — candidate network (Table II / Fig. 1).
    pub candidate: CandidateNetwork,
    /// Step 2 — Algorithm 1 outcome.
    pub selection: SelectionOutcome,
    /// Step 2b — the expanded network and its trip graph (Table III / Fig. 2).
    pub selected: SelectedNetwork,
    /// Step 3 — community detection at the three granularities
    /// (Tables IV–VI, Figs. 3–7).
    pub communities: CommunitySet,
}

impl ExpansionOutcome {
    /// Convenience: number of newly selected stations.
    pub fn new_station_count(&self) -> usize {
        self.selection.selected.len()
    }

    /// Convenience: total stations in the expanded network.
    pub fn total_station_count(&self) -> usize {
        self.selected.stations.len()
    }
}

/// The pipeline runner.
#[derive(Debug, Clone, Default)]
pub struct ExpansionPipeline {
    config: PipelineConfig,
}

impl ExpansionPipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run the full pipeline over a raw dataset.
    ///
    /// # Errors
    ///
    /// Propagates configuration and data errors from the individual steps
    /// (empty station list, no rentals, invalid thresholds), and
    /// [`CoreError::Spill`] when a temporal graph build spills to disk
    /// under [`PipelineConfig::spill_budget_mb`] and the spill I/O fails.
    pub fn run(&self, raw: &RawDataset) -> Result<ExpansionOutcome> {
        let (outcome, _temporals) = self.run_parts(raw)?;
        Ok(outcome)
    }

    /// Run the full pipeline and keep it **live**: the returned
    /// [`WindowedPipeline`] retains the frozen temporal graphs so
    /// subsequent [`WindowedPipeline::advance`] calls can slide the trip
    /// window incrementally instead of rebuilding from raw data.
    ///
    /// The initial outcome is bit-identical to what [`Self::run`]
    /// produces for the same input.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::run`].
    pub fn run_windowed(&self, raw: &RawDataset) -> Result<WindowedPipeline> {
        let (outcome, temporals) = self.run_parts(raw)?;
        Ok(WindowedPipeline {
            config: self.config.clone(),
            outcome,
            temporals,
        })
    }

    /// Shared body of [`Self::run`] / [`Self::run_windowed`]: the outcome
    /// plus the temporal graphs the detections ran on.
    fn run_parts(&self, raw: &RawDataset) -> Result<(ExpansionOutcome, Vec<TemporalGraph>)> {
        let cleaning_outcome = clean_dataset(raw);
        let overview = DatasetOverview::from_cleaning(raw, &cleaning_outcome);
        let dataset = cleaning_outcome.dataset;

        let candidate = build_candidate_network(&dataset, &self.config.expansion)?;
        let selection = select_stations(&candidate, &self.config.expansion)?;
        let selected = build_selected_network(&dataset, &candidate, &selection)?;

        // One pass over the columnar trip table emits the edge lists for
        // all three granularities; `GBasic` shares the already-built
        // undirected CSR and the directed trip graph was frozen once at
        // network build — nothing on this path touches a hash-map builder
        // or re-derives adjacency. With a spill budget set in the config,
        // oversized builds route through the out-of-core disk runs —
        // bit-identical either way.
        let temporals = build_all_from_trips_spilled(
            &selected.trips,
            Some(&selected.undirected),
            self.config.build_shards,
            self.config.detect.threads,
            self.config.spill_budget_mb,
            None,
        )?;
        let communities = detect_set(&self.config.detect, &temporals, &selected)?;

        let outcome = ExpansionOutcome {
            overview,
            cleaning: cleaning_outcome.report,
            dataset,
            candidate,
            selection,
            selected,
            communities,
        };
        Ok((outcome, temporals))
    }
}

/// Cold community detection over all three temporal graphs.
///
/// # Errors
///
/// [`CoreError::Internal`] unless `temporals` holds exactly the three
/// graphs, in granularity order.
fn detect_set(
    config: &DetectConfig,
    temporals: &[TemporalGraph],
    selected: &SelectedNetwork,
) -> Result<CommunitySet> {
    let [basic, day, hour] = granularities(temporals)?;
    let old_ids = selected.fixed_ids();
    let detect = |temporal| detect_communities(temporal, &selected.directed, &old_ids, config);
    Ok(CommunitySet {
        basic: detect(basic),
        day: detect(day),
        hour: detect(hour),
    })
}

/// The three temporal graphs, `GBasic`, `GDay` and `GHour` in order.
///
/// # Errors
///
/// [`CoreError::Internal`] for any other shape.
fn granularities(temporals: &[TemporalGraph]) -> Result<[&TemporalGraph; 3]> {
    match temporals {
        [basic, day, hour]
            if [basic, day, hour].map(|t| t.granularity) == TemporalGranularity::ALL =>
        {
            Ok([basic, day, hour])
        }
        _ => Err(CoreError::Internal(format!(
            "expected the GBasic, GDay and GHour graphs, got {:?}",
            temporals.iter().map(|t| t.granularity).collect::<Vec<_>>()
        ))),
    }
}

/// A pipeline outcome kept **live** for windowed operation.
///
/// Produced by [`ExpansionPipeline::run_windowed`]. Each
/// [`advance`](Self::advance) call slides the trip window: expired trips
/// leave and fresh trips enter the station-level state
/// ([`SelectedNetwork::advance_window`]), all three temporal graphs
/// advance incrementally (one window-kernel pass per graph,
/// bit-identical to full rebuilds over the surviving data), and the
/// community detections refresh — seeded from the previous partitions by
/// default ([`WindowConfig::seeded_refresh`]).
#[derive(Debug, Clone)]
pub struct WindowedPipeline {
    config: PipelineConfig,
    /// The current pipeline artefacts; `selected` (Table III) and
    /// `communities` (Tables IV–VI) track the window, while the
    /// cleaning/candidate/selection artefacts describe the original run.
    pub outcome: ExpansionOutcome,
    temporals: Vec<TemporalGraph>,
}

impl WindowedPipeline {
    /// The live temporal graphs (`GBasic`, `GDay`, `GHour`), current as
    /// of the last [`advance`](Self::advance).
    pub fn temporals(&self) -> &[TemporalGraph] {
        &self.temporals
    }

    /// Slide the trip window: evict every trip before `window`, ingest
    /// `batch`, advance the temporal graphs incrementally and refresh the
    /// community detections.
    ///
    /// The station-level state is advanced by
    /// [`SelectedNetwork::advance_window`] (Table III updated
    /// incrementally); the temporal graphs advance through
    /// [`apply_window_all`], sharing the already-advanced undirected trip
    /// graph as `GBasic`. Communities refresh seeded from the previous
    /// partitions when [`WindowConfig::seeded_refresh`] is on (modularity
    /// never drops below the seed), or via a cold
    /// [`detect_communities`] re-run when it is off.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownStation`] if the batch references a station
    /// outside the selected network, and [`CoreError::InvalidWeight`] if
    /// a batch weight is outside the trip domain; the pipeline state is
    /// untouched on either error. [`CoreError::Internal`] if the advanced
    /// temporal graphs are not `GBasic`, `GDay` and `GHour` in order, a
    /// broken invariant.
    pub fn advance(&mut self, batch: &TripBatch, window: WindowStart) -> Result<WindowOutcome> {
        let threads = self.config.detect.threads;
        let outcome = self
            .outcome
            .selected
            .advance_window(batch, window, threads)?;

        let temporals = std::mem::take(&mut self.temporals);
        self.temporals = apply_window_all(
            temporals,
            &self.outcome.selected.trips,
            &outcome,
            Some(self.outcome.selected.undirected.clone()),
            threads,
        );

        self.outcome.communities = if self.config.window.seeded_refresh {
            let selected = &self.outcome.selected;
            let old_ids = selected.fixed_ids();
            // Policy gate for the active-set sweeps: the fraction of
            // stations this step touched (evicted endpoints ∪ batch
            // stations). Purely a performance decision — both refresh
            // paths return identical detections.
            let mut touched = outcome.evicted.touched_stations();
            touched.extend(batch.station_ids());
            touched.sort_unstable();
            touched.dedup();
            let stations = selected.trips.station_ids().len().max(1);
            let active = (touched.len() as f64 / stations as f64)
                <= self.config.window.active_refresh_threshold;
            let refresh = if active {
                refresh_communities_active
            } else {
                refresh_communities
            };
            let [basic, day, hour] = granularities(&self.temporals)?;
            let previous = &self.outcome.communities;
            let refresh_one = |temporal, previous| {
                refresh(
                    temporal,
                    &selected.directed,
                    &old_ids,
                    previous,
                    &self.config.detect,
                )
            };
            CommunitySet {
                basic: refresh_one(basic, &previous.basic),
                day: refresh_one(day, &previous.day),
                hour: refresh_one(hour, &previous.hour),
            }
        } else {
            detect_set(&self.config.detect, &self.temporals, &self.outcome.selected)?
        };
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_data::synth::{generate, SynthConfig};

    fn outcome() -> ExpansionOutcome {
        let raw = generate(&SynthConfig::small_test());
        ExpansionPipeline::new(PipelineConfig::default())
            .run(&raw)
            .unwrap()
    }

    #[test]
    fn pipeline_produces_all_artifacts() {
        let out = outcome();
        // Table I shape.
        assert!(out.overview.rentals.0 > out.overview.rentals.1);
        assert!(out.overview.stations.0 > out.overview.stations.1);
        // Candidate graph is much larger than the station set.
        assert!(out.candidate.nodes.len() > out.dataset.stations.len());
        assert_eq!(out.candidate.summary.trips, out.dataset.rentals.len());
        // Selection produced new stations but fewer than the candidates.
        assert!(out.new_station_count() > 0);
        assert!(out.new_station_count() < out.candidate.candidate_ids().len());
        // Selected network contains both groups and conserves trips.
        assert_eq!(
            out.total_station_count(),
            out.dataset.stations.len() + out.new_station_count()
        );
        assert_eq!(out.selected.table.total_trips, out.dataset.rentals.len());
        // Community detection ran at all three granularities.
        assert!(out.communities.basic.community_count() >= 2);
        assert!(out.communities.day.community_count() >= 2);
        assert!(out.communities.hour.community_count() >= 2);
    }

    #[test]
    fn modularity_trend_matches_paper_shape() {
        // The paper reports Q rising with temporal granularity
        // (0.25 -> 0.32 -> 0.54). Allow slack but require the coarse trend.
        let out = outcome();
        let q_basic = out.communities.basic.modularity;
        let q_day = out.communities.day.modularity;
        let q_hour = out.communities.hour.modularity;
        assert!(q_basic > 0.0);
        assert!(
            q_hour > q_basic,
            "expected GHour modularity ({q_hour:.3}) above GBasic ({q_basic:.3})"
        );
        assert!(
            q_day >= q_basic - 0.05,
            "expected GDay modularity ({q_day:.3}) to be at least near GBasic ({q_basic:.3})"
        );
    }

    #[test]
    fn community_counts_rise_with_granularity() {
        let out = outcome();
        let n_basic = out.communities.basic.community_count();
        let n_hour = out.communities.hour.community_count();
        assert!(
            n_hour >= n_basic,
            "GHour should have at least as many communities ({n_hour} vs {n_basic})"
        );
    }

    #[test]
    fn majority_of_trips_are_self_contained() {
        // Paper: ~74% of trips start and end in the same GBasic community.
        let out = outcome();
        let share = out.communities.basic.table.self_contained_share();
        assert!(
            share > 0.5,
            "expected a majority of self-contained trips, got {share:.2}"
        );
    }

    #[test]
    fn pipeline_is_deterministic() {
        let raw = generate(&SynthConfig::small_test());
        let pipeline = ExpansionPipeline::new(PipelineConfig::default());
        let a = pipeline.run(&raw).unwrap();
        let b = pipeline.run(&raw).unwrap();
        assert_eq!(a.selection.selected, b.selection.selected);
        assert_eq!(
            a.communities.basic.station_partition,
            b.communities.basic.station_partition
        );
        assert_eq!(a.communities.hour.modularity, b.communities.hour.modularity);
    }

    #[test]
    fn pipeline_result_is_independent_of_the_build_shards() {
        let raw = generate(&SynthConfig::small_test());
        let base = ExpansionPipeline::new(PipelineConfig::default())
            .run(&raw)
            .unwrap();
        let sharded = ExpansionPipeline::new(PipelineConfig {
            build_shards: Some(4),
            ..PipelineConfig::default()
        })
        .run(&raw)
        .unwrap();
        assert_eq!(base.selection.selected, sharded.selection.selected);
        for (a, b) in base.communities.all().iter().zip(sharded.communities.all()) {
            assert_eq!(a.station_partition, b.station_partition);
            assert_eq!(a.modularity, b.modularity);
        }
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let pipeline = ExpansionPipeline::new(PipelineConfig::default());
        assert!(pipeline.run(&RawDataset::default()).is_err());
    }

    #[test]
    fn run_windowed_matches_run() {
        let raw = generate(&SynthConfig::small_test());
        let pipeline = ExpansionPipeline::new(PipelineConfig::default());
        let plain = pipeline.run(&raw).unwrap();
        let windowed = pipeline.run_windowed(&raw).unwrap();
        assert_eq!(
            plain.selection.selected,
            windowed.outcome.selection.selected
        );
        for (a, b) in plain
            .communities
            .all()
            .iter()
            .zip(windowed.outcome.communities.all())
        {
            assert_eq!(a.station_partition, b.station_partition);
            assert_eq!(a.modularity, b.modularity);
        }
        assert_eq!(windowed.temporals().len(), 3);
    }

    #[test]
    fn windowed_advance_matches_fresh_build_over_surviving_data() {
        let raw = generate(&SynthConfig::small_test());
        let pipeline = ExpansionPipeline::new(PipelineConfig::default());
        let mut live = pipeline.run_windowed(&raw).unwrap();
        // A batch of replayed early rentals rides along with the eviction.
        let mut batch = TripBatch::new();
        {
            let trips = &live.outcome.selected.trips;
            for k in 0..20.min(trips.len()) {
                batch.push(
                    trips.station_id(trips.src()[k]),
                    trips.station_id(trips.dst()[k]),
                    live.outcome.dataset.rentals[k].start_time,
                );
            }
        }
        let outcome = live.advance(&batch, WindowStart::new(3, 0)).unwrap();
        assert!(
            outcome.evicted.evicted_rows() > 0,
            "window must expire rows"
        );

        // The live temporal graphs are bit-identical to one-shot rebuilds
        // over the post-window table.
        let want =
            crate::temporal::build_all_from_trips(&live.outcome.selected.trips, None, Some(1));
        for (got, want) in live.temporals().iter().zip(&want) {
            assert_eq!(got.granularity, want.granularity);
            assert_eq!(got.csr, want.csr, "{}", got.granularity.graph_name());
            assert_eq!(
                got.csr.total_weight().to_bits(),
                want.csr.total_weight().to_bits()
            );
            assert_eq!(got.layer_map, want.layer_map);
        }
        // Refreshed detections cover all three granularities of the new
        // window.
        assert!(live.outcome.communities.basic.community_count() >= 2);
        assert!(live.outcome.communities.hour.community_count() >= 2);
    }

    #[test]
    fn a_graph_set_of_another_shape_is_an_internal_error() {
        let graph = |granularity| {
            TemporalGraph::from_csr(
                granularity,
                moby_graph::WeightedGraph::new_undirected().freeze(),
                None,
            )
        };
        let [basic, day, hour] = TemporalGranularity::ALL.map(graph);
        assert!(granularities(&[basic.clone(), day.clone(), hour.clone()]).is_ok());
        for temporals in [
            vec![],
            vec![basic.clone(), day.clone()],
            vec![day.clone(), basic.clone(), hour.clone()],
            vec![basic, day, hour.clone(), hour],
        ] {
            let err = granularities(&temporals).unwrap_err();
            assert!(matches!(err, CoreError::Internal(_)), "{err:?}");
        }
    }

    #[test]
    fn windowed_refresh_toggle_matches_cold_detection() {
        let raw = generate(&SynthConfig::small_test());
        let cold_cfg = PipelineConfig {
            window: WindowConfig {
                seeded_refresh: false,
                ..WindowConfig::default()
            },
            ..PipelineConfig::default()
        };
        let mut cold = ExpansionPipeline::new(cold_cfg.clone())
            .run_windowed(&raw)
            .unwrap();
        let window = WindowStart::new(2, 0);
        cold.advance(&TripBatch::new(), window).unwrap();
        // With seeding off, the refresh IS a fresh cold detection over the
        // advanced graphs.
        let want = detect_set(&cold_cfg.detect, cold.temporals(), &cold.outcome.selected).unwrap();
        for (a, b) in cold.outcome.communities.all().iter().zip(want.all()) {
            assert_eq!(a.station_partition, b.station_partition);
            assert_eq!(a.modularity, b.modularity);
        }

        // The seeded refresh runs on identical graphs — the refresh mode
        // never affects graph state — and still produces valid detections.
        // (Seeding guarantees Q ≥ the seed partition's Q on the new graph,
        // covered by the `refresh_communities` tests; a cold restart may
        // legitimately land in a different basin.)
        let mut seeded = ExpansionPipeline::new(PipelineConfig::default())
            .run_windowed(&raw)
            .unwrap();
        seeded.advance(&TripBatch::new(), window).unwrap();
        for (s, (gs, gc)) in seeded
            .outcome
            .communities
            .all()
            .iter()
            .zip(seeded.temporals().iter().zip(cold.temporals()))
        {
            assert_eq!(gs.csr, gc.csr);
            assert!(s.modularity.is_finite() && s.modularity > 0.0);
            assert!(s.community_count() >= 2);
        }
    }

    #[test]
    fn active_refresh_policy_never_changes_detections() {
        // The touched-fraction gate only picks between two bit-identical
        // refresh paths: forcing the active-set route (threshold 1.0) and
        // forbidding it (threshold 0.0) must produce identical outcomes.
        let raw = generate(&SynthConfig::small_test());
        let mut pipes: Vec<WindowedPipeline> = [1.0f64, 0.0]
            .iter()
            .map(|&threshold| {
                ExpansionPipeline::new(PipelineConfig {
                    window: WindowConfig {
                        active_refresh_threshold: threshold,
                        ..WindowConfig::default()
                    },
                    ..PipelineConfig::default()
                })
                .run_windowed(&raw)
                .unwrap()
            })
            .collect();
        let mut batch = TripBatch::new();
        {
            let trips = &pipes[0].outcome.selected.trips;
            for k in 0..20.min(trips.len()) {
                batch.push(
                    trips.station_id(trips.src()[k]),
                    trips.station_id(trips.dst()[k]),
                    pipes[0].outcome.dataset.rentals[k].start_time,
                );
            }
        }
        for window in [WindowStart::new(2, 0), WindowStart::new(4, 12)] {
            for pipe in pipes.iter_mut() {
                pipe.advance(&batch, window).unwrap();
            }
            let (always, never) = (&pipes[0], &pipes[1]);
            for (a, b) in always
                .outcome
                .communities
                .all()
                .iter()
                .zip(never.outcome.communities.all())
            {
                assert_eq!(a.raw_partition, b.raw_partition);
                assert_eq!(a.station_partition, b.station_partition);
                assert_eq!(a.modularity.to_bits(), b.modularity.to_bits());
            }
        }
    }
}
