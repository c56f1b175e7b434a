//! Fig 7 — phase-trace adaptation timeline: per-epoch mean V/F level,
//! latency, and power for the DRL controller vs the threshold heuristic vs
//! static-max on the bursty phase trace.
//!
//! Expected shape: DRL (and, lagging, the threshold heuristic) drop levels
//! during the idle/low phases and raise them for the burst; static-max stays
//! pinned and burns energy through the idle phase.

use noc_bench::comparison::entrants_for;
use noc_bench::{configs, fmt, print_table, save_csv, save_markdown, Scale};
use noc_selfconf::run_controller;

fn main() {
    let scale = Scale::from_env();
    let sim = configs::mesh8().with_traffic_spec(configs::phase_trace());
    let epochs = scale.pick(64usize, 6);
    let epoch_cycles = 500;

    // The per-epoch trace is the figure, so this binary drives
    // `run_controller` itself rather than reading matrix aggregates.
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (name, entrant) in &entrants_for(&configs::mesh8(), "mesh8", scale) {
        if name == "static-min" || name == "tabular-q" {
            continue; // keep the figure readable: 3 series as in the paper
        }
        let mut controller = entrant.controller(&sim).expect("cached policy deploys");
        let run = run_controller(&sim, controller.as_mut(), epochs, epoch_cycles)
            .expect("valid configuration");
        for (i, (m, levels)) in run.epochs.iter().zip(&run.levels).enumerate() {
            let mean_level = levels.iter().map(|&l| l as f64).sum::<f64>() / levels.len() as f64;
            rows.push(vec![
                name.to_string(),
                i.to_string(),
                format!("{:.2}", mean_level),
                fmt(m.avg_packet_latency),
                fmt(m.energy_pj / m.cycles.max(1) as f64), // pJ/cycle (power)
                fmt(m.injection_rate),
            ]);
        }
        summary.push(vec![
            name.to_string(),
            fmt(run.aggregate.avg_latency),
            fmt(run.aggregate.energy_pj / 1e3),
            fmt(run.aggregate.edp / 1e6),
            fmt(run.aggregate.mean_level),
        ]);
    }
    let headers = [
        "controller",
        "epoch",
        "mean level",
        "epoch latency",
        "power (pJ/cycle)",
        "inj rate",
    ];
    let md = print_table("Fig 7 — phase-trace adaptation timeline", &headers, &rows);
    save_csv("fig7_phase_timeline", &headers, &rows);
    save_markdown("fig7_phase_timeline", &md);
    print_table(
        "Fig 7b — phase-trace aggregates",
        &[
            "controller",
            "avg latency",
            "energy (nJ)",
            "EDP (×10⁶)",
            "mean level",
        ],
        &summary,
    );
}
