//! Temporal community analysis: detect communities at the three temporal
//! granularities and print the day-of-week / hour-of-day usage profiles the
//! paper uses to distinguish commuter from leisure communities
//! (Figs. 5 and 7).
//!
//! ```text
//! cargo run --release --example temporal_communities
//! ```

use moby_expansion::core::pipeline::{ExpansionPipeline, PipelineConfig};
use moby_expansion::core::report::{
    daily_profile, hourly_profile, profile_csv, render_community_table,
};
use moby_expansion::data::synth::{generate, SynthConfig};
use moby_expansion::data::timeparse::Weekday;

fn main() {
    let raw = generate(&SynthConfig::small_test());
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");

    for (name, detection) in [
        ("GBasic", &outcome.communities.basic),
        ("GDay", &outcome.communities.day),
        ("GHour", &outcome.communities.hour),
    ] {
        println!("{}", render_community_table(name, &detection.table));
    }

    // Fig. 5 — daily travel patterns per GDay community.
    let day_labels: Vec<&str> = Weekday::ALL.iter().map(|d| d.abbrev()).collect();
    let daily = daily_profile(
        &outcome.selected.trips,
        &outcome.communities.day.station_partition,
    );
    println!("Daily travel pattern per GDay community (share of trips):");
    println!("{}", profile_csv(&daily, &day_labels));

    // Classify each community as commuter- or weekend-leaning, the reading
    // the paper gives of Fig. 5.
    for (community, shares) in &daily {
        let weekend: f64 = shares[5] + shares[6];
        let leaning = if weekend > 2.0 / 7.0 {
            "weekend/leisure-leaning"
        } else {
            "weekday/commuter-leaning"
        };
        println!(
            "community {:>2}: weekend share {:>5.1}% -> {leaning}",
            community + 1,
            weekend * 100.0
        );
    }

    // Fig. 7 — hourly travel patterns per GHour community.
    let hour_labels: Vec<String> = (0..24).map(|h| format!("h{h:02}")).collect();
    let hour_label_refs: Vec<&str> = hour_labels.iter().map(|s| s.as_str()).collect();
    let hourly = hourly_profile(
        &outcome.selected.trips,
        &outcome.communities.hour.station_partition,
    );
    println!("\nHourly travel pattern per GHour community (share of trips):");
    println!("{}", profile_csv(&hourly, &hour_label_refs));

    for (community, shares) in &hourly {
        let peak_hour = shares
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(h, _)| h)
            .unwrap_or(0);
        let am_peak: f64 = shares[7..10].iter().sum();
        let midday: f64 = shares[11..15].iter().sum();
        let profile = if am_peak > midday {
            "commuter (AM peak)"
        } else {
            "leisure (midday peak)"
        };
        println!(
            "community {:>2}: peak hour {peak_hour:02}:00 -> {profile}",
            community + 1
        );
    }
}
