//! Thermal-emergency injection: a region is forcibly throttled to the
//! lowest V/F level mid-run (power/thermal emergency), and the runtime
//! controller must route the performance loss gracefully and recover when
//! the emergency lifts.
//!
//! Run with: `cargo run --release --example thermal_throttle`

use noc_selfconf::{run_controller, StaticController, ThresholdController};
use noc_sim::{SimConfig, SimError, ThrottleEvent, TrafficPattern};

fn main() -> Result<(), SimError> {
    // Region 0 (top-left quadrant) hits a thermal emergency from cycle 4000
    // to 10000: capped at the lowest level no matter what the controller asks.
    let config = SimConfig::default()
        .with_traffic(TrafficPattern::Uniform, 0.12)
        .with_throttles(vec![ThrottleEvent {
            start: 4000,
            duration: 6000,
            region: 0,
            level: 0,
        }]);

    println!("workload: uniform @ 0.12; region 0 throttled during cycles 4000-10000\n");
    for mut controller in [
        Box::new(StaticController::max()) as Box<dyn noc_selfconf::Controller>,
        Box::new(ThresholdController::for_sim(&config)?),
    ] {
        let run = run_controller(&config, controller.as_mut(), 32, 500)?;
        println!("=== {} ===", run.aggregate.controller);
        println!("epoch | latency | power (pJ/cyc) | backlog/node");
        for (i, m) in run.epochs.iter().enumerate() {
            if i % 2 != 0 {
                continue;
            }
            let marker = if (8..20).contains(&i) {
                "  <-- emergency"
            } else {
                ""
            };
            println!(
                "{:5} | {:7.1} | {:14.1} | {:12.2}{marker}",
                i,
                m.avg_packet_latency,
                m.energy_pj / m.cycles.max(1) as f64,
                m.avg_backlog / 64.0,
            );
        }
        println!(
            "aggregate: latency {:.1} cycles, energy {:.1} nJ\n",
            run.aggregate.avg_latency,
            run.aggregate.energy_pj / 1e3
        );
    }
    println!("During the emergency the throttled quadrant slows and upstream");
    println!("queues grow; adaptive controllers compensate with the remaining");
    println!("regions and recover once the cap lifts.");
    Ok(())
}
