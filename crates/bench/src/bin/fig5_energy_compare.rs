//! Fig 5 — energy under each controller across the pattern × rate grid.
//!
//! Expected shape: static-max burns the most; static-min the least; DRL cuts
//! 20–40 % vs static-max at low-mid load.

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
                fmt(p.agg.energy_pj / 1e3), // nJ
                fmt(p.agg.energy_per_flit),
                fmt(p.agg.mean_level),
            ]
        })
        .collect();
    rows.sort();
    let headers = [
        "pattern",
        "rate",
        "controller",
        "energy (nJ)",
        "energy/flit (pJ)",
        "mean level",
    ];
    let md = print_table("Fig 5 — energy comparison", &headers, &rows);
    save_csv("fig5_energy_compare", &headers, &rows);
    save_markdown("fig5_energy_compare", &md);

    // Savings vs static-max per (pattern, rate).
    let mut savings = Vec::new();
    for p in points.iter().filter(|p| p.controller == "drl") {
        if let Some(base) = points
            .iter()
            .find(|q| q.controller == "static-max" && q.pattern == p.pattern && q.rate == p.rate)
        {
            savings.push(vec![
                p.pattern.clone(),
                format!("{:.3}", p.rate),
                format!(
                    "{:.1}%",
                    100.0 * (1.0 - p.agg.energy_pj / base.agg.energy_pj)
                ),
            ]);
        }
    }
    savings.sort();
    print_table(
        "Fig 5b — DRL energy saving vs static-max",
        &["pattern", "rate", "saving"],
        &savings,
    );
}
