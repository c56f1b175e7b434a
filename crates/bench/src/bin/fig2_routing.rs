//! Fig 2 — routing-algorithm comparison: Odd-Even adaptive vs XY under
//! transpose and hotspot traffic (the adaptivity knob of the
//! self-configuration space).
//!
//! Expected shape: odd-even ties XY at low load and wins past mid-load on
//! the adversarial patterns.

use noc_bench::{configs, fmt, print_table, save_csv, save_markdown, Scale};
use noc_selfconf::SweepGrid;
use noc_sim::{RoutingAlgorithm, TrafficPattern};

fn main() {
    let scale = Scale::from_env();
    let rates: Vec<f64> = scale.pick(
        vec![0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26],
        vec![0.05, 0.15],
    );
    let (warmup, measure, drain) = scale.pick((2000, 8000, 8000), (300, 800, 800));
    let algorithms = [
        ("xy", RoutingAlgorithm::Xy),
        ("odd-even", RoutingAlgorithm::OddEven),
        ("west-first", RoutingAlgorithm::WestFirst),
    ];
    let patterns: Vec<(&str, TrafficPattern)> = vec![
        ("transpose", TrafficPattern::Transpose),
        ("hotspot", configs::hotspot()),
        ("uniform", TrafficPattern::Uniform),
    ];

    let report = SweepGrid {
        base: configs::mesh8(),
        sizes: vec![(8, 8)],
        patterns: patterns.iter().map(|(_, p)| p.clone()).collect(),
        rates: rates.clone(),
        routings: algorithms.iter().map(|(_, a)| *a).collect(),
        warmup,
        measure,
        drain,
        base_seed: 200,
        ..SweepGrid::default()
    }
    .run(noc_bench::default_threads())
    .expect("valid grid");

    // Scenarios come back in grid order: pattern, then rate, then routing.
    let mut scenarios = report.scenarios.iter();
    let mut rows = Vec::new();
    for (pname, _) in &patterns {
        for rate in &rates {
            for (aname, _) in &algorithms {
                let s = scenarios.next().expect("one scenario per grid point");
                rows.push(vec![
                    pname.to_string(),
                    aname.to_string(),
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
        }
    }
    let headers = [
        "pattern",
        "routing",
        "offered rate",
        "avg latency",
        "throughput",
        "saturated",
    ];
    let md = print_table(
        "Fig 2 — routing algorithms under adversarial traffic",
        &headers,
        &rows,
    );
    save_csv("fig2_routing", &headers, &rows);
    save_markdown("fig2_routing", &md);
}
