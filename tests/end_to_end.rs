//! Cross-crate integration tests: the full pipeline from traffic generation
//! through the simulator, the RL stack, and the self-configuration layer.

use noc_selfconf::ActionSpace;
use noc_selfconf::{
    run_controller, train_drl, NocEnvConfig, PolicyArtifact, RewardConfig, StaticController,
};
use noc_sim::{SimConfig, Simulator, TrafficPattern, TrafficSpec};
use rl::{DqnConfig, Schedule, TrainConfig};

fn small_sim() -> SimConfig {
    SimConfig::default()
        .with_size(4, 4)
        .with_regions(2, 2)
        .with_traffic(TrafficPattern::Uniform, 0.10)
}

fn tiny_env(sim: SimConfig) -> NocEnvConfig {
    NocEnvConfig {
        action_space: ActionSpace::PerRegionDelta {
            num_regions: 4,
            num_levels: 4,
        },
        sim,
        epoch_cycles: 150,
        epochs_per_episode: 6,
        reward: RewardConfig::default(),
        traffic_menu: vec![
            TrafficSpec::stationary(TrafficPattern::Uniform, 0.05),
            TrafficSpec::stationary(TrafficPattern::Uniform, 0.20),
        ],
        seed: 5,
    }
}

/// Train a tiny policy end-to-end, capture it as an artifact, and deploy it
/// as a runtime controller on a fresh simulator. The whole chain must hold
/// together: encoder dims, weight serialization, action translation, level
/// actuation.
#[test]
fn train_then_deploy_controller() {
    let train = TrainConfig {
        episodes: 6,
        max_steps: 6,
        epsilon: Schedule::Linear {
            start: 1.0,
            end: 0.1,
            steps: 20,
        },
        train_per_step: 1,
        seed: 3,
    };
    let dqn = DqnConfig {
        hidden: vec![32],
        batch_size: 16,
        min_replay: 16,
        ..DqnConfig::default()
    };
    let env = tiny_env(small_sim());
    let policy = train_drl(env.clone(), dqn, train.clone()).expect("training runs");
    assert!(
        policy.agent.train_steps() > 0,
        "agent must have learned something"
    );

    let mut controller = PolicyArtifact::from_dqn(&policy, env, train)
        .and_then(|artifact| artifact.controller())
        .expect("the trained policy deploys");
    let run = run_controller(&small_sim(), controller.as_mut(), 8, 150).expect("deployment runs");
    assert_eq!(run.epochs.len(), 8);
    // Levels must always be valid indices.
    assert!(run.levels.iter().flatten().all(|&l| l < 4));
    // The network must actually move traffic under the learned policy.
    let delivered: u64 = run.epochs.iter().map(|m| m.ejected_flits).sum();
    assert!(
        delivered > 100,
        "flits must flow under DRL control, got {delivered}"
    );
}

/// Flit conservation across the whole system: everything injected is either
/// delivered or still in flight, for every routing algorithm and V/F level.
#[test]
fn flit_conservation_under_reconfiguration() {
    let mut sim = Simulator::new(small_sim()).expect("valid config");
    for (i, level) in [3usize, 0, 2, 1, 3].iter().enumerate() {
        sim.set_all_levels(*level).expect("level valid");
        if i % 2 == 0 {
            sim.set_routing(noc_sim::RoutingAlgorithm::OddEven)
                .expect("routing valid");
        } else {
            sim.set_routing(noc_sim::RoutingAlgorithm::Xy)
                .expect("routing valid");
        }
        sim.run(400);
        let s = sim.stats();
        let in_network = sim.network().in_flight() as u64;
        let offered_flits = s.offered_packets * 5; // 5-flit packets
        assert_eq!(
            s.ejected_flits + in_network,
            offered_flits,
            "conservation violated at step {i}"
        );
    }
    // Stop traffic and drain completely.
    sim.set_traffic(TrafficSpec::stationary(TrafficPattern::Uniform, 0.0))
        .expect("valid spec");
    sim.set_all_levels(3).expect("level valid");
    for _ in 0..200 {
        if sim.network().in_flight() == 0 {
            break;
        }
        sim.run(50);
    }
    assert_eq!(sim.network().in_flight(), 0, "network must drain fully");
    assert_eq!(sim.stats().ejected_flits, sim.stats().offered_packets * 5);
}

/// The whole stack is deterministic given seeds: two identical training +
/// evaluation pipelines produce bit-identical results.
#[test]
fn pipeline_is_deterministic() {
    let run_once = || {
        let policy = train_drl(
            tiny_env(small_sim()),
            DqnConfig {
                hidden: vec![16],
                batch_size: 8,
                min_replay: 8,
                ..DqnConfig::default()
            },
            TrainConfig {
                episodes: 3,
                max_steps: 5,
                epsilon: Schedule::Constant(0.3),
                train_per_step: 1,
                seed: 11,
            },
        )
        .expect("training runs");
        let returns: Vec<f64> = policy.curve.iter().map(|e| e.total_reward).collect();
        let q = policy.agent.q_values(&[0.5; 17]);
        (returns, q)
    };
    assert_eq!(run_once(), run_once());
}

/// Static-max must dominate latency and static-min must dominate energy on
/// the same workload — the sanity anchor for every comparison figure.
#[test]
fn baseline_ordering_holds() {
    let sim = small_sim();
    let mut max_c = StaticController::max();
    let mut min_c = StaticController::min();
    let a = run_controller(&sim, &mut max_c, 10, 200)
        .expect("runs")
        .aggregate;
    let b = run_controller(&sim, &mut min_c, 10, 200)
        .expect("runs")
        .aggregate;
    assert!(a.avg_latency < b.avg_latency, "max V/F must be faster");
    assert!(a.energy_pj > b.energy_pj, "max V/F must burn more energy");
}

/// Episode metrics flow through the umbrella crate re-exports.
#[test]
fn umbrella_reexports_work() {
    use self_configurable_noc::noc_sim::{SimConfig as C, Simulator as S, TrafficPattern as T};
    let mut sim =
        S::new(C::default().with_size(4, 4).with_traffic(T::Uniform, 0.05)).expect("valid config");
    let m = sim.run_epoch(300);
    assert_eq!(m.cycles, 300);
}
