//! Fig 4 — average packet latency under each controller across the
//! pattern × rate grid.
//!
//! Expected shape: static-max lowest latency; static-min highest; DRL tracks
//! static-max within ~10–20 % at low-mid load; threshold/tabular in between.

use noc_bench::comparison;
use noc_bench::{fmt, print_table, save_csv, save_markdown, Scale};

fn main() {
    let scale = Scale::from_env();
    let points = comparison::run(scale);
    let mut rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.pattern.clone(),
                format!("{:.3}", p.rate),
                p.controller.clone(),
                fmt(p.agg.avg_latency),
                fmt(p.agg.throughput),
                fmt(p.agg.mean_level),
            ]
        })
        .collect();
    rows.sort();
    let headers = [
        "pattern",
        "rate",
        "controller",
        "avg latency",
        "throughput",
        "mean level",
    ];
    let md = print_table("Fig 4 — latency comparison", &headers, &rows);
    save_csv("fig4_latency_compare", &headers, &rows);
    save_markdown("fig4_latency_compare", &md);
}
