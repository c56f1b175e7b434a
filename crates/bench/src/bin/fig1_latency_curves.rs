//! Fig 1 — simulator validation: average packet latency vs offered injection
//! rate for the classic synthetic patterns under XY routing.
//!
//! Expected shape: hockey-stick curves; saturation ordering
//! uniform > bit-complement ≈ transpose > hotspot.

use noc_bench::{configs, fmt, print_table, save_csv, save_markdown, Scale};
use noc_selfconf::SweepGrid;
use noc_sim::RoutingAlgorithm;

fn main() {
    let scale = Scale::from_env();
    let rates: Vec<f64> = scale.pick(
        vec![
            0.005, 0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20, 0.24, 0.28, 0.33,
        ],
        vec![0.02, 0.10],
    );
    let (warmup, measure, drain) = scale.pick((2000, 8000, 8000), (300, 800, 800));
    let patterns = configs::comparison_patterns();

    let report = SweepGrid {
        base: configs::mesh8(),
        sizes: vec![(8, 8)],
        patterns: patterns.iter().map(|(_, p)| p.clone()).collect(),
        rates: rates.clone(),
        routings: vec![RoutingAlgorithm::Xy],
        warmup,
        measure,
        drain,
        base_seed: 100,
        ..SweepGrid::default()
    }
    .run(noc_bench::default_threads())
    .expect("valid grid");

    // Scenarios come back in grid order: pattern-major, rate-fastest.
    let grid: Vec<(&str, f64)> = patterns
        .iter()
        .flat_map(|(name, _)| rates.iter().map(move |&r| (*name, r)))
        .collect();
    let mut rows = Vec::new();
    for ((name, rate), s) in grid.iter().zip(&report.scenarios) {
        rows.push(vec![
            name.to_string(),
            format!("{rate:.3}"),
            fmt(s.metrics.avg_packet_latency),
            fmt(s.metrics.throughput),
            if s.saturated {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    let headers = [
        "pattern",
        "offered rate",
        "avg latency (cycles)",
        "throughput",
        "saturated",
    ];
    let md = print_table(
        "Fig 1 — latency vs injection rate (XY routing)",
        &headers,
        &rows,
    );
    save_csv("fig1_latency_curves", &headers, &rows);
    save_markdown("fig1_latency_curves", &md);

    // Report the observed saturation points (first saturated rate per pattern).
    let mut sat_rows = Vec::new();
    for (name, _) in &patterns {
        let sat = grid
            .iter()
            .zip(&report.scenarios)
            .filter(|((n, _), s)| n == name && s.saturated)
            .map(|((_, r), _)| *r)
            .fold(f64::MAX, f64::min);
        sat_rows.push(vec![
            name.to_string(),
            if sat == f64::MAX {
                "not reached".into()
            } else {
                format!("{sat:.3}")
            },
        ]);
    }
    print_table(
        "Fig 1b — observed saturation onset",
        &["pattern", "rate"],
        &sat_rows,
    );
}
