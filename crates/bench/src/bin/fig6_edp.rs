//! Fig 6 — energy-delay product (the paper's headline figure of merit).
//!
//! Expected shape: DRL lowest EDP overall, especially at low-mid load where
//! static-max wastes energy and static-min wastes latency.

use noc_bench::comparison;
use noc_bench::{fmt, print_table, save_csv, save_markdown, Scale};
use std::collections::BTreeMap;

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
                fmt(p.agg.edp / 1e6), // µJ·cycles-ish scale for readability
            ]
        })
        .collect();
    rows.sort();
    let headers = ["pattern", "rate", "controller", "EDP (×10⁶ pJ·cycles)"];
    let md = print_table("Fig 6 — energy-delay product", &headers, &rows);
    save_csv("fig6_edp", &headers, &rows);
    save_markdown("fig6_edp", &md);

    // Who wins per (pattern, rate)?
    let mut wins: BTreeMap<String, usize> = BTreeMap::new();
    let mut keys: Vec<(String, f64)> = points.iter().map(|p| (p.pattern.clone(), p.rate)).collect();
    keys.sort_by(|a, b| a.partial_cmp(b).expect("no NaN rates"));
    keys.dedup();
    let mut win_rows = Vec::new();
    for (pattern, rate) in keys {
        let best = points
            .iter()
            .filter(|p| p.pattern == pattern && p.rate == rate && p.agg.edp.is_finite())
            .min_by(|a, b| a.agg.edp.partial_cmp(&b.agg.edp).expect("finite EDP"));
        if let Some(best) = best {
            *wins.entry(best.controller.clone()).or_default() += 1;
            win_rows.push(vec![pattern, format!("{rate:.3}"), best.controller.clone()]);
        }
    }
    print_table(
        "Fig 6b — lowest-EDP controller per point",
        &["pattern", "rate", "winner"],
        &win_rows,
    );
    let tally: Vec<Vec<String>> = wins
        .into_iter()
        .map(|(c, n)| vec![c, n.to_string()])
        .collect();
    print_table("Fig 6c — win tally", &["controller", "wins"], &tally);
}
