//! Energy-aware DVFS with a deep-RL agent: train a small DQN policy on the
//! self-configuration environment and compare it against the static and
//! heuristic baselines on an unseen workload.
//!
//! Run with: `cargo run --release --example energy_aware_dvfs`
//! (training takes ~1–2 minutes; set `EPISODES=10` for a fast demo).

use noc_selfconf::{
    run_controller, train_drl, NocEnvConfig, PolicyArtifact, StaticController, ThresholdController,
};
use noc_sim::{SimConfig, TrafficPattern};
use rl::{DqnConfig, Schedule, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let episodes: usize = std::env::var("EPISODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    // Train on a 4×4 mesh (fast) over a menu of loads.
    let sim = SimConfig::default()
        .with_size(4, 4)
        .with_regions(2, 2)
        .with_traffic(TrafficPattern::Uniform, 0.1);
    let env_cfg = NocEnvConfig {
        sim: sim.clone(),
        epoch_cycles: 400,
        epochs_per_episode: 30,
        ..NocEnvConfig::default()
    };
    let train = TrainConfig {
        episodes,
        max_steps: 30,
        epsilon: Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps: (episodes * 20) as u64,
        },
        train_per_step: 1,
        seed: 42,
    };
    println!("training DQN for {episodes} episodes...");
    let policy = train_drl(env_cfg.clone(), DqnConfig::default(), train.clone())?;
    let quarter = (policy.curve.len() / 4).max(1);
    let early: f64 = policy.curve[..quarter]
        .iter()
        .map(|e| e.total_reward)
        .sum::<f64>()
        / quarter as f64;
    let late: f64 = policy.curve[policy.curve.len() - quarter..]
        .iter()
        .map(|e| e.total_reward)
        .sum::<f64>()
        / quarter as f64;
    println!("  mean episode return: first quarter {early:.2} → last quarter {late:.2}");

    // Evaluate on a held-out workload: transpose at a rate not in the menu.
    let eval = sim
        .clone()
        .with_traffic(TrafficPattern::Transpose, 0.15)
        .with_seed(999);
    println!("\nevaluation on transpose @ 0.15 (unseen):");
    let mut controllers: Vec<Box<dyn noc_selfconf::Controller>> = vec![
        Box::new(StaticController::max()),
        Box::new(StaticController::min()),
        Box::new(ThresholdController::for_sim(&eval)?),
        PolicyArtifact::from_dqn(&policy, env_cfg, train)?.controller()?,
    ];
    for controller in controllers.iter_mut() {
        let out = run_controller(&eval, controller.as_mut(), 40, 400)?;
        println!(
            "  {:<12} latency {:7.1}  energy {:8.1} nJ  EDP {:10.2}e6  mean level {:.2}",
            out.aggregate.controller,
            out.aggregate.avg_latency,
            out.aggregate.energy_pj / 1e3,
            out.aggregate.edp / 1e6,
            out.aggregate.mean_level,
        );
    }
    Ok(())
}
