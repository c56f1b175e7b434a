//! Quickstart: simulate a mesh, inspect latency/energy, and hand control to
//! a DVFS heuristic — the 60-second tour of the public API.
//!
//! Run with: `cargo run --release --example quickstart`

use noc_selfconf::{run_controller, StaticController, ThresholdController};
use noc_sim::{SimConfig, SimError, Simulator, TrafficPattern};

fn main() -> Result<(), SimError> {
    // 1. A classic open-loop simulation: 8×8 mesh, uniform traffic.
    let config = SimConfig::default().with_traffic(TrafficPattern::Uniform, 0.10);
    let mut sim = Simulator::new(config.clone())?;
    let run = sim.run_classic(2000, 6000, 6000);
    println!("— open-loop simulation (all routers at nominal V/F) —");
    println!(
        "  avg packet latency : {:8.1} cycles",
        run.window.avg_packet_latency
    );
    println!(
        "  throughput         : {:8.3} flits/node/cycle",
        run.window.throughput
    );
    println!(
        "  energy             : {:8.1} nJ",
        run.window.energy_pj / 1e3
    );
    println!("  saturated          : {}", run.saturated);

    // 2. The same workload under runtime controllers.
    println!("\n— closed-loop control (40 epochs × 500 cycles) —");
    for mut controller in [
        Box::new(StaticController::max()) as Box<dyn noc_selfconf::Controller>,
        Box::new(StaticController::min()),
        Box::new(ThresholdController::for_sim(&config)?),
    ] {
        let out = run_controller(&config, controller.as_mut(), 40, 500)?;
        println!(
            "  {:<12} latency {:7.1}  energy {:8.1} nJ  EDP {:10.2}e6  mean level {:.2}",
            out.aggregate.controller,
            out.aggregate.avg_latency,
            out.aggregate.energy_pj / 1e3,
            out.aggregate.edp / 1e6,
            out.aggregate.mean_level,
        );
    }
    println!("\nNext: `cargo run --release --example energy_aware_dvfs` for the RL agent.");
    Ok(())
}
