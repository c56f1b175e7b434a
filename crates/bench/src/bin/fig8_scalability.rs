//! Fig 8 — scalability: do the DRL gains hold across mesh sizes?
//! Trains a policy per mesh size (4×4 and 8×8; the observation is
//! region-normalized so the architecture is identical) and compares EDP vs
//! static-max and threshold at mid load.

use noc_bench::comparison::entrants_for;
use noc_bench::{configs, evaluate, fmt, print_table, save_csv, save_markdown, Scale};
use noc_sim::TrafficPattern;

fn main() {
    let scale = Scale::from_env();
    let epochs = scale.pick(40usize, 3);
    let epoch_cycles = scale.pick(500u64, 200);
    let rate = 0.10;

    let patterns = [
        ("uniform", TrafficPattern::Uniform),
        ("hotspot", configs::hotspot()),
    ];
    let workloads = patterns.clone().map(|(_, pattern)| (pattern, rate));

    let mut rows = Vec::new();
    for (mesh_name, sim, key) in [
        ("4x4", configs::mesh4(), "mesh4"),
        ("8x8", configs::mesh8(), "mesh8"),
    ] {
        let entrants = entrants_for(&sim, key, scale);
        let report = evaluate(&sim, &entrants, &workloads, epochs, epoch_cycles);
        // Cells are entrant-major, workload-fastest.
        for (cell, (pname, _)) in report.cells.iter().zip(patterns.iter().cycle()) {
            rows.push(vec![
                mesh_name.to_string(),
                pname.to_string(),
                cell.policy.clone(),
                fmt(cell.aggregate.avg_latency),
                fmt(cell.aggregate.energy_pj / 1e3),
                fmt(cell.aggregate.edp / 1e6),
            ]);
        }
    }
    let headers = [
        "mesh",
        "pattern",
        "controller",
        "avg latency",
        "energy (nJ)",
        "EDP (×10⁶)",
    ];
    let md = print_table(
        "Fig 8 — scalability across mesh sizes (rate 0.10)",
        &headers,
        &rows,
    );
    save_csv("fig8_scalability", &headers, &rows);
    save_markdown("fig8_scalability", &md);
}
