//! Table 3 — per-pattern summary at mid load: latency, throughput, energy,
//! EDP, and savings vs the static-max baseline.

use noc_bench::comparison;
use noc_bench::{fmt, print_table, save_csv, save_markdown, Scale};

fn main() {
    let scale = Scale::from_env();
    let points = comparison::run(scale);
    // Mid-load column: the rate closest to 0.10.
    let mut rates: Vec<f64> = points.iter().map(|p| p.rate).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    rates.dedup();
    let mid = rates
        .iter()
        .copied()
        .min_by(|a, b| {
            (a - 0.10)
                .abs()
                .partial_cmp(&(b - 0.10).abs())
                .expect("finite")
        })
        .expect("rates non-empty");

    let mut rows = Vec::new();
    let mut patterns: Vec<String> = points.iter().map(|p| p.pattern.clone()).collect();
    patterns.sort();
    patterns.dedup();
    for pattern in &patterns {
        let base = points
            .iter()
            .find(|p| p.pattern == *pattern && p.rate == mid && p.controller == "static-max")
            .expect("baseline present");
        for p in points
            .iter()
            .filter(|p| p.pattern == *pattern && p.rate == mid)
        {
            rows.push(vec![
                pattern.clone(),
                p.controller.clone(),
                fmt(p.agg.avg_latency),
                fmt(p.agg.throughput),
                fmt(p.agg.energy_pj / 1e3),
                fmt(p.agg.edp / 1e6),
                format!(
                    "{:+.1}%",
                    100.0 * (p.agg.avg_latency / base.agg.avg_latency - 1.0)
                ),
                format!(
                    "{:+.1}%",
                    100.0 * (p.agg.energy_pj / base.agg.energy_pj - 1.0)
                ),
                format!("{:+.1}%", 100.0 * (p.agg.edp / base.agg.edp - 1.0)),
            ]);
        }
    }
    let headers = [
        "pattern",
        "controller",
        "latency",
        "throughput",
        "energy (nJ)",
        "EDP (×10⁶)",
        "Δlatency vs max",
        "Δenergy vs max",
        "ΔEDP vs max",
    ];
    let md = print_table(
        &format!("Table 3 — per-pattern summary at rate {mid:.2}"),
        &headers,
        &rows,
    );
    save_csv("table3_summary", &headers, &rows);
    save_markdown("table3_summary", &md);
}
