//! Fleet-rebalancing planner: turn the community analysis into the concrete
//! operational recommendation the paper closes §V-B with — "bikes could be
//! moved from Communities 2, 4, and 6 to Communities 1, 3, and 7 each Friday
//! night to prepare for the shift in demand over the weekend".
//!
//! For every GDay community the example computes the weekday/weekend demand
//! imbalance and the net in/out flow, then prints a Friday-night transfer
//! plan between bike-surplus and bike-deficit communities.
//!
//! ```text
//! cargo run --release --example rebalancing_planner
//! ```

use moby_expansion::core::pipeline::{ExpansionPipeline, PipelineConfig};
use moby_expansion::core::report::daily_profile;
use moby_expansion::data::synth::{generate, SynthConfig};

struct CommunityDemand {
    community: usize,
    stations: usize,
    weekday_share: f64,
    weekend_share: f64,
    net_inflow: f64,
}

fn main() {
    let raw = generate(&SynthConfig::small_test());
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");

    let day_detection = &outcome.communities.day;
    let daily = daily_profile(&outcome.selected.trips, &day_detection.station_partition);

    let mut demands: Vec<CommunityDemand> = Vec::new();
    for row in &day_detection.table.rows {
        let shares = daily.get(&row.community).copied().unwrap_or([0.0; 7]);
        let weekend: f64 = shares[5] + shares[6];
        demands.push(CommunityDemand {
            community: row.community,
            stations: row.total_stations(),
            weekday_share: 1.0 - weekend,
            weekend_share: weekend,
            net_inflow: row.incoming - row.out,
        });
    }

    println!("GDay community demand profile:");
    println!(
        "{:<10} {:>9} {:>15} {:>15} {:>12}",
        "community", "stations", "weekday share", "weekend share", "net inflow"
    );
    for d in &demands {
        println!(
            "{:<10} {:>9} {:>14.1}% {:>14.1}% {:>12.0}",
            d.community + 1,
            d.stations,
            d.weekday_share * 100.0,
            d.weekend_share * 100.0,
            d.net_inflow
        );
    }

    // Friday-night plan: communities whose demand leans to weekdays release
    // bikes; weekend-leaning communities receive them, proportionally to how
    // strongly they lean.
    let uniform_weekend = 2.0 / 7.0;
    let mut donors: Vec<&CommunityDemand> = demands
        .iter()
        .filter(|d| d.weekend_share < uniform_weekend * 0.9)
        .collect();
    let mut receivers: Vec<&CommunityDemand> = demands
        .iter()
        .filter(|d| d.weekend_share > uniform_weekend * 1.1)
        .collect();
    donors.sort_by(|a, b| {
        a.weekend_share
            .partial_cmp(&b.weekend_share)
            .expect("finite")
    });
    receivers.sort_by(|a, b| {
        b.weekend_share
            .partial_cmp(&a.weekend_share)
            .expect("finite")
    });

    println!("\nFriday-night rebalancing plan (move bikes before the weekend):");
    if donors.is_empty() || receivers.is_empty() {
        println!("  demand is balanced across communities; no transfers needed");
        return;
    }
    for (donor, receiver) in donors.iter().zip(receivers.iter()) {
        // Scale the suggested volume by how many stations the receiver has.
        let bikes = (receiver.stations as f64 * 0.5).ceil() as usize;
        println!(
            "  move ~{bikes:>3} bikes from community {} (weekend share {:.0}%) to community {} (weekend share {:.0}%)",
            donor.community + 1,
            donor.weekend_share * 100.0,
            receiver.community + 1,
            receiver.weekend_share * 100.0
        );
    }
    println!(
        "\n(based on {} trips across {} stations in {} GDay communities)",
        outcome.selected.table.total_trips,
        outcome.total_station_count(),
        day_detection.community_count()
    );
}
