//! Training drivers: train a DQN or the tabular baseline on
//! [`crate::NocEnv`] through one body, and run any controller against a
//! workload to produce comparable metrics.

use crate::action::ActionSpace;
use crate::controller::Controller;
use crate::env::{NocEnv, NocEnvConfig};
use crate::state::StateEncoder;
use noc_sim::{SimConfig, SimResult, Simulator, WindowMetrics};
use rl::{
    DqnAgent, DqnConfig, Environment, EpisodeStats, LearningAgent, TabularConfig, TabularQ,
    TrainConfig,
};
use serde::{Deserialize, Serialize};

/// Everything produced by a training run: the trained agent (a DQN unless
/// `A` says otherwise) and what deploying it needs.
#[derive(Debug)]
pub struct TrainedPolicy<A = DqnAgent> {
    /// The trained agent.
    pub agent: A,
    /// Per-episode learning curve (Fig 3).
    pub curve: Vec<EpisodeStats>,
    /// The state encoder used during training (reuse it at deployment).
    pub encoder: StateEncoder,
    /// The action space used during training.
    pub action_space: ActionSpace,
}

/// Train a DQN policy on the self-configuration environment.
///
/// The DQN's dimensions are taken from the environment; `dqn` fields
/// `state_dim`/`num_actions` are overwritten.
///
/// # Errors
/// Returns an error if the environment configuration is invalid.
pub fn train_drl(
    env_config: NocEnvConfig,
    dqn: DqnConfig,
    train: TrainConfig,
) -> SimResult<TrainedPolicy> {
    train_agent(env_config, &train, |state_dim, num_actions| {
        DqnAgent::new(dqn.with_dims(state_dim, num_actions))
    })
}

/// Train the tabular Q-learning baseline on the same environment (its
/// dimensions are overwritten the same way).
///
/// # Errors
/// Returns an error if the environment configuration is invalid.
pub fn train_tabular(
    env_config: NocEnvConfig,
    tab: TabularConfig,
    train: TrainConfig,
) -> SimResult<TrainedPolicy<TabularQ>> {
    train_agent(env_config, &train, |state_dim, num_actions| {
        TabularQ::new(TabularConfig {
            state_dim,
            num_actions,
            ..tab
        })
    })
}

/// The one training body: size the agent from the environment, run the
/// training loop, and keep the encoder and action space beside it.
fn train_agent<A: LearningAgent>(
    env_config: NocEnvConfig,
    train: &TrainConfig,
    agent: impl FnOnce(usize, usize) -> A,
) -> SimResult<TrainedPolicy<A>> {
    let mut env = NocEnv::new(env_config)?;
    let mut agent = agent(env.state_dim(), env.num_actions());
    let curve = rl::train(&mut env, &mut agent, train);
    Ok(TrainedPolicy {
        agent,
        curve,
        encoder: env.encoder().clone(),
        action_space: env.config().action_space.clone(),
    })
}

/// Aggregate figures of a controller run (one row of the comparison tables).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunAggregate {
    /// Controller name.
    pub controller: String,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Mean packet latency over all completed packets (sample-weighted).
    #[serde(with = "noc_sim::stats::serde_nan")]
    pub avg_latency: f64,
    /// Mean accepted throughput, flits per node per cycle.
    pub throughput: f64,
    /// Total energy (pJ).
    pub energy_pj: f64,
    /// Energy per delivered flit (pJ/flit).
    #[serde(with = "noc_sim::stats::serde_nan")]
    pub energy_per_flit: f64,
    /// Energy-delay product: total energy × mean latency.
    #[serde(with = "noc_sim::stats::serde_nan")]
    pub edp: f64,
    /// Mean V/F level over every epoch and region (NaN for an empty run).
    #[serde(with = "noc_sim::stats::serde_nan")]
    pub mean_level: f64,
}

/// Full trace of a controller run.
#[derive(Debug, Clone)]
pub struct ControllerRun {
    /// Aggregate row.
    pub aggregate: RunAggregate,
    /// Per-epoch telemetry.
    pub epochs: Vec<WindowMetrics>,
    /// Per-epoch level vectors (after the controller's decision).
    pub levels: Vec<Vec<usize>>,
}

/// Drive `controller` over `epochs` control epochs of `epoch_cycles` each on
/// a fresh simulator built from `sim_config`.
///
/// # Errors
/// Returns an error if the simulator configuration is invalid.
pub fn run_controller(
    sim_config: &SimConfig,
    controller: &mut dyn Controller,
    epochs: usize,
    epoch_cycles: u64,
) -> SimResult<ControllerRun> {
    let mut sim = Simulator::new(sim_config.clone())?;
    let num_levels = sim_config.vf_table.num_levels();
    let mut epoch_metrics = Vec::with_capacity(epochs);
    let mut levels_trace = Vec::with_capacity(epochs);
    // Warm the telemetry with one epoch before the first decision.
    let mut last = sim.run_epoch(epoch_cycles);
    for _ in 0..epochs {
        let decision = controller.decide(&last, sim.region_levels(), num_levels);
        for (r, &l) in decision.levels.iter().enumerate() {
            sim.set_region_level(r, l)?;
        }
        if let Some(routing) = decision.routing {
            sim.set_routing(routing)?;
        }
        last = sim.run_epoch(epoch_cycles);
        levels_trace.push(sim.region_levels().to_vec());
        epoch_metrics.push(last.clone());
    }
    let aggregate = aggregate_run(controller.name(), &epoch_metrics, &levels_trace);
    Ok(ControllerRun {
        aggregate,
        epochs: epoch_metrics,
        levels: levels_trace,
    })
}

/// Fold per-epoch metrics into one comparison row.
pub fn aggregate_run(name: &str, epochs: &[WindowMetrics], levels: &[Vec<usize>]) -> RunAggregate {
    let cycles: u64 = epochs.iter().map(|m| m.cycles).sum();
    let samples: u64 = epochs.iter().map(|m| m.latency_samples).sum();
    let lat_sum: f64 = epochs
        .iter()
        .filter(|m| m.latency_samples > 0)
        .map(|m| m.avg_packet_latency * m.latency_samples as f64)
        .sum();
    let avg_latency = if samples > 0 {
        lat_sum / samples as f64
    } else {
        f64::NAN
    };
    let energy_pj: f64 = epochs.iter().map(|m| m.energy_pj).sum();
    let ejected: u64 = epochs.iter().map(|m| m.ejected_flits).sum();
    let throughput = if cycles > 0 {
        epochs
            .iter()
            .map(|m| m.throughput * m.cycles as f64)
            .sum::<f64>()
            / cycles as f64
    } else {
        0.0
    };
    let mean_level = if levels.is_empty() {
        f64::NAN
    } else {
        levels
            .iter()
            .flat_map(|v| v.iter().map(|&l| l as f64))
            .sum::<f64>()
            / levels.iter().map(|v| v.len()).sum::<usize>().max(1) as f64
    };
    RunAggregate {
        controller: name.to_string(),
        cycles,
        avg_latency,
        throughput,
        energy_pj,
        energy_per_flit: if ejected > 0 {
            energy_pj / ejected as f64
        } else {
            f64::NAN
        },
        edp: energy_pj * avg_latency,
        mean_level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{StaticController, ThresholdController};
    use crate::reward::RewardConfig;
    use noc_sim::TrafficPattern;
    use rl::Schedule;

    fn small_sim() -> SimConfig {
        SimConfig::default()
            .with_size(4, 4)
            .with_traffic(TrafficPattern::Uniform, 0.10)
            .with_regions(2, 2)
    }

    fn small_env_cfg() -> NocEnvConfig {
        NocEnvConfig {
            action_space: ActionSpace::PerRegionDelta {
                num_regions: 4,
                num_levels: 4,
            },
            sim: small_sim(),
            epoch_cycles: 150,
            epochs_per_episode: 4,
            reward: RewardConfig::default(),
            traffic_menu: vec![],
            seed: 7,
        }
    }

    #[test]
    fn run_controller_produces_full_trace() {
        let mut c = StaticController::max();
        let run = run_controller(&small_sim(), &mut c, 6, 200).unwrap();
        assert_eq!(run.epochs.len(), 6);
        assert_eq!(run.levels.len(), 6);
        assert_eq!(run.aggregate.cycles, 1200);
        assert!(run.aggregate.avg_latency.is_finite());
        assert!(run.aggregate.energy_pj > 0.0);
        assert_eq!(run.aggregate.mean_level, 3.0);
        assert_eq!(run.aggregate.controller, "static-max");
    }

    #[test]
    fn static_min_saves_energy_but_adds_latency() {
        let mut hi = StaticController::max();
        let mut lo = StaticController::min();
        let a = run_controller(&small_sim(), &mut hi, 8, 200)
            .unwrap()
            .aggregate;
        let b = run_controller(&small_sim(), &mut lo, 8, 200)
            .unwrap()
            .aggregate;
        assert!(b.energy_pj < a.energy_pj, "min level must burn less energy");
        assert!(
            b.avg_latency > a.avg_latency,
            "min level must be slower: {} vs {}",
            b.avg_latency,
            a.avg_latency
        );
    }

    #[test]
    fn threshold_controller_runs_and_reacts() {
        let sim = small_sim();
        let mut c = ThresholdController::for_sim(&sim).unwrap();
        let run = run_controller(&sim, &mut c, 8, 200).unwrap();
        assert_eq!(run.aggregate.controller, "threshold");
        assert!(run.aggregate.avg_latency.is_finite());
    }

    #[test]
    fn train_drl_smoke() {
        let policy = train_drl(
            small_env_cfg(),
            DqnConfig {
                hidden: vec![16],
                batch_size: 8,
                min_replay: 8,
                ..DqnConfig::default()
            },
            TrainConfig {
                episodes: 3,
                max_steps: 4,
                epsilon: Schedule::Constant(0.5),
                train_per_step: 1,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(policy.curve.len(), 3);
        assert!(policy.agent.train_steps() > 0);
        assert_eq!(policy.encoder.state_dim(), 17);
        assert_eq!(policy.action_space.num_actions(), 11);
    }

    #[test]
    fn train_tabular_smoke() {
        let policy = train_tabular(
            small_env_cfg(),
            TabularConfig {
                bins: 3,
                ..TabularConfig::default()
            },
            TrainConfig {
                episodes: 3,
                max_steps: 4,
                epsilon: Schedule::Constant(0.5),
                train_per_step: 0,
                seed: 2,
            },
        )
        .unwrap();
        assert_eq!(policy.curve.len(), 3);
        assert!(policy.agent.updates() > 0);
    }

    #[test]
    fn aggregate_handles_empty_and_weighted_latency() {
        let agg = aggregate_run("x", &[], &[]);
        assert!(agg.avg_latency.is_nan());
        assert_eq!(agg.cycles, 0);
    }
}
