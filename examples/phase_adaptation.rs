//! Phase adaptation: watch controllers track a bursty, phase-changing
//! workload epoch by epoch — the scenario that motivates *runtime*
//! self-configuration over static design-time tuning.
//!
//! Run with: `cargo run --release --example phase_adaptation`

use noc_selfconf::{run_controller, StaticController, ThresholdController};
use noc_sim::{
    InjectionProcess, SimConfig, SimError, TrafficPattern, TrafficSpec, WorkloadPhase, WorkloadSpec,
};

fn main() -> Result<(), SimError> {
    // Idle → burst → bursty transpose phase → near-idle, repeating.
    let trace = TrafficSpec::Workload(WorkloadSpec::new(vec![
        WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.02, 3000),
        WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.25, 3000),
        WorkloadPhase::new(
            TrafficPattern::Transpose,
            InjectionProcess::Bursty {
                rate_on: 0.24,
                switch: 0.02,
            },
            3000,
        ),
        WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.01, 3000),
    ]));
    let config = SimConfig::default().with_traffic_spec(trace);

    for mut controller in [
        Box::new(StaticController::max()) as Box<dyn noc_selfconf::Controller>,
        Box::new(ThresholdController::for_sim(&config)?),
    ] {
        let run = run_controller(&config, controller.as_mut(), 48, 500)?;
        println!("\n=== {} ===", run.aggregate.controller);
        println!("epoch | inj rate | mean level | latency | power (pJ/cyc)");
        for (i, (m, levels)) in run.epochs.iter().zip(&run.levels).enumerate() {
            if i % 2 != 0 {
                continue; // print every other epoch
            }
            let mean_level = levels.iter().map(|&l| l as f64).sum::<f64>() / levels.len() as f64;
            let bar_len = (mean_level * 4.0).round() as usize;
            println!(
                "{:5} | {:8.3} | {:10.2} {}| {:7.1} | {:8.1}",
                i,
                m.injection_rate,
                mean_level,
                "#".repeat(bar_len),
                m.avg_packet_latency,
                m.energy_pj / m.cycles.max(1) as f64,
            );
        }
        println!(
            "aggregate: latency {:.1}, energy {:.1} nJ, EDP {:.2}e6",
            run.aggregate.avg_latency,
            run.aggregate.energy_pj / 1e3,
            run.aggregate.edp / 1e6
        );
    }
    println!(
        "\nThe threshold controller tracks the bursts; a trained DRL policy \
         (see `energy_aware_dvfs`) anticipates them with lower EDP."
    );
    Ok(())
}
