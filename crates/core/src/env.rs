//! `NocEnv`: the Gym-style environment that wraps the cycle-level simulator
//! behind the [`rl::Environment`] interface.
//!
//! One environment step = one control epoch: actuate the chosen
//! configuration, run the network for `epoch_cycles`, observe the epoch
//! telemetry, and score it with the reward function. Episodes draw their
//! traffic from a menu of specs so the trained policy generalizes across
//! patterns, rates, and phase behavior.

use crate::action::ActionSpace;
use crate::reward::RewardConfig;
use crate::state::StateEncoder;
use noc_sim::{
    InjectionProcess, SimConfig, SimError, SimResult, Simulator, TrafficPattern, TrafficSpec,
    WorkloadPhase, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{Environment, Step};
use serde::{Deserialize, Serialize};

/// Configuration of the self-configuration environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocEnvConfig {
    /// Base simulator configuration (regions, VF table, topology, ...).
    pub sim: SimConfig,
    /// Cycles per control epoch.
    pub epoch_cycles: u64,
    /// Control epochs per episode.
    pub epochs_per_episode: usize,
    /// Action space.
    pub action_space: ActionSpace,
    /// Reward function.
    pub reward: RewardConfig,
    /// Traffic specs sampled per episode (uniformly at random). Empty means
    /// "use `sim.traffic` for every episode".
    pub traffic_menu: Vec<TrafficSpec>,
    /// Seed for episode randomization (traffic choice and per-episode sim
    /// seeds).
    pub seed: u64,
}

impl Default for NocEnvConfig {
    /// Paper-style default: [`NocEnvConfig::for_sim`] on the default 8×8
    /// mesh (2×2 regions) with seed 0.
    fn default() -> Self {
        NocEnvConfig::for_sim(SimConfig::default(), 0)
    }
}

impl NocEnvConfig {
    /// The paper-style training environment for an arbitrary fabric: action
    /// space and observation layout are derived from `sim` (per-region delta
    /// actions over its region grid and VF table), with the standard traffic
    /// menu and the default reward. This is the one construction every
    /// training entry point (CLI `train`, bench policy cache, `train_grid`)
    /// shares, so a policy trained anywhere deploys anywhere the fabric
    /// shape matches.
    pub fn for_sim(sim: SimConfig, seed: u64) -> Self {
        NocEnvConfig {
            action_space: ActionSpace::PerRegionDelta {
                num_regions: sim.regions_x * sim.regions_y,
                num_levels: sim.vf_table.num_levels(),
            },
            sim,
            epoch_cycles: 500,
            epochs_per_episode: 40,
            reward: RewardConfig::default(),
            traffic_menu: standard_traffic_menu(),
            seed,
        }
    }
}

/// The traffic menu used by the paper-style training runs: three patterns ×
/// three rates (Bernoulli), a bursty on/off workload, and one phase-changing
/// workload with a bursty regime — so the policy sees workload shifts and
/// clumped arrivals during training, not just stationary loads.
pub fn standard_traffic_menu() -> Vec<TrafficSpec> {
    let mut menu = Vec::new();
    for rate in [0.05, 0.12, 0.22] {
        menu.push(TrafficSpec::stationary(TrafficPattern::Uniform, rate));
        menu.push(TrafficSpec::stationary(TrafficPattern::Transpose, rate));
        menu.push(TrafficSpec::stationary(
            TrafficPattern::Hotspot {
                hotspots: vec![noc_sim::NodeId(0)],
                fraction: 0.3,
            },
            rate,
        ));
    }
    // Bursty on/off uniform at the mid load (mean rate_on/2 = 0.12).
    menu.push(TrafficSpec::Workload(WorkloadSpec::stationary(
        TrafficPattern::Uniform,
        InjectionProcess::Bursty {
            rate_on: 0.24,
            switch: 0.02,
        },
    )));
    // Idle → burst → bursty transpose → near-idle, repeating.
    menu.push(TrafficSpec::Workload(WorkloadSpec::new(vec![
        WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.03, 3000),
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
    ])));
    menu
}

/// The Gym-style NoC self-configuration environment.
///
/// ```
/// use noc_selfconf::{NocEnv, NocEnvConfig};
/// use noc_sim::SimConfig;
/// use rl::Environment;
///
/// let mut env = NocEnv::new(NocEnvConfig {
///     sim: SimConfig::default().with_size(4, 4).with_regions(2, 2),
///     epoch_cycles: 100,
///     epochs_per_episode: 2,
///     ..NocEnvConfig::default()
/// })?;
/// let state = env.reset();
/// assert_eq!(state.len(), env.state_dim());
/// let step = env.step(0); // hold the current configuration
/// assert!(step.reward.is_finite());
/// # Ok::<(), noc_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct NocEnv {
    config: NocEnvConfig,
    encoder: StateEncoder,
    sim: Simulator,
    rng: StdRng,
    episode: u64,
    epoch: usize,
    /// Metrics of the most recent epoch (for inspection by trainers/logs).
    last_metrics: Option<noc_sim::WindowMetrics>,
    last_reward: f64,
}

impl NocEnv {
    /// Build the environment.
    ///
    /// # Errors
    /// Returns an error if the simulator configuration or any menu entry is
    /// invalid, or if the action space disagrees with the simulator's region
    /// or level counts.
    pub fn new(config: NocEnvConfig) -> SimResult<Self> {
        let encoder = StateEncoder::for_sim(&config.sim)?;
        let sim = Simulator::new(config.sim.clone())?;
        for spec in &config.traffic_menu {
            spec.validate(sim.network().topology())?;
        }
        let regions = encoder.num_regions();
        let levels = config.sim.vf_table.num_levels();
        match &config.action_space {
            ActionSpace::PerRegionDelta {
                num_regions,
                num_levels,
            } => {
                if *num_regions != regions || *num_levels != levels {
                    return Err(SimError::InvalidConfig(format!(
                        "action space expects {num_regions} regions / {num_levels} levels, \
                         simulator has {regions} / {levels}"
                    )));
                }
            }
            ActionSpace::LevelAndRouting { num_levels, .. } => {
                if *num_levels != levels {
                    return Err(SimError::InvalidConfig(format!(
                        "action space expects {num_levels} levels, simulator has {levels}"
                    )));
                }
            }
        }
        // A routing-controlling space must only offer algorithms the
        // simulator's topology supports — otherwise `apply` would fail mid-
        // episode the first time the agent picks the bad arm.
        if let ActionSpace::LevelAndRouting { routings, .. } = &config.action_space {
            for &r in routings {
                if !r.supports(config.sim.kind) {
                    return Err(SimError::InvalidConfig(format!(
                        "action space offers routing {r:?}, unsupported on the \
                         {:?} topology (use RoutingAlgorithm::for_topology)",
                        config.sim.kind
                    )));
                }
            }
        }
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(NocEnv {
            config,
            encoder,
            sim,
            rng,
            episode: 0,
            epoch: 0,
            last_metrics: None,
            last_reward: 0.0,
        })
    }

    /// The environment's configuration.
    pub fn config(&self) -> &NocEnvConfig {
        &self.config
    }

    /// The state encoder (exposed so controllers can share the encoding).
    pub fn encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// The underlying simulator (telemetry inspection).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Telemetry of the most recent epoch.
    pub fn last_metrics(&self) -> Option<&noc_sim::WindowMetrics> {
        self.last_metrics.as_ref()
    }

    /// Reward of the most recent epoch.
    pub fn last_reward(&self) -> f64 {
        self.last_reward
    }

    /// Episodes completed or started so far.
    pub fn episode(&self) -> u64 {
        self.episode
    }

    fn run_epoch_and_encode(&mut self) -> Vec<f32> {
        let metrics = self.sim.run_epoch(self.config.epoch_cycles);
        let state = self.encoder.encode(&metrics, self.sim.region_levels());
        self.last_metrics = Some(metrics);
        state
    }
}

impl Environment for NocEnv {
    fn state_dim(&self) -> usize {
        self.encoder.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.config.action_space.num_actions()
    }

    /// Start a new episode: rebuild the simulator with a fresh seed and a
    /// traffic spec drawn from the menu, set every region to a *random*
    /// initial V/F level (exploring starts — the agent must learn to correct
    /// mismatched configurations, including recovering from saturation), and
    /// run one epoch to produce the initial observation.
    fn reset(&mut self) -> Vec<f32> {
        self.episode += 1;
        self.epoch = 0;
        let mut cfg = self.config.sim.clone();
        cfg.seed = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(self.episode);
        if !self.config.traffic_menu.is_empty() {
            let pick = self.rng.gen_range(0..self.config.traffic_menu.len());
            cfg.traffic = self.config.traffic_menu[pick].clone();
        }
        self.sim = Simulator::new(cfg).expect("validated at construction");
        let levels = self.config.sim.vf_table.num_levels();
        let regions = self.sim.network().regions().num_regions();
        for r in 0..regions {
            let start = self.rng.gen_range(0..levels);
            self.sim.set_region_level(r, start).expect("level in range");
        }
        self.run_epoch_and_encode()
    }

    fn step(&mut self, action: usize) -> Step {
        self.config
            .action_space
            .apply(action, &mut self.sim)
            .expect("action space validated against simulator");
        let state = self.run_epoch_and_encode();
        let metrics = self.last_metrics.as_ref().expect("epoch just ran");
        let reward = self
            .config
            .reward
            .compute(metrics, self.sim.network().topology().num_nodes());
        self.last_reward = reward;
        self.epoch += 1;
        Step {
            state,
            reward,
            done: self.epoch >= self.config.epochs_per_episode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::TrafficPattern;

    fn small_env() -> NocEnv {
        let sim = SimConfig::default()
            .with_size(4, 4)
            .with_traffic(TrafficPattern::Uniform, 0.1)
            .with_regions(2, 2);
        NocEnv::new(NocEnvConfig {
            action_space: ActionSpace::PerRegionDelta {
                num_regions: 4,
                num_levels: 4,
            },
            sim,
            epoch_cycles: 200,
            epochs_per_episode: 5,
            reward: RewardConfig::default(),
            traffic_menu: vec![],
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn dimensions_are_consistent() {
        let env = small_env();
        assert_eq!(env.state_dim(), 3 * 4 + 5);
        assert_eq!(env.num_actions(), 11);
    }

    #[test]
    fn observation_exposes_fabric_degradation() {
        use noc_sim::{FaultEvent, FaultPlan, FaultTarget, NodeId, Port};
        let faulted = |plan: FaultPlan| {
            let sim = SimConfig::default()
                .with_size(4, 4)
                .with_traffic(TrafficPattern::Uniform, 0.05)
                .with_regions(2, 2)
                .with_faults(plan);
            let mut env = NocEnv::new(NocEnvConfig {
                action_space: ActionSpace::PerRegionDelta {
                    num_regions: 4,
                    num_levels: 4,
                },
                sim,
                epoch_cycles: 100,
                epochs_per_episode: 2,
                reward: RewardConfig::default(),
                traffic_menu: vec![],
                seed: 3,
            })
            .unwrap();
            *env.reset().last().unwrap()
        };
        let healthy = faulted(FaultPlan::empty());
        assert_eq!(healthy, 0.0, "healthy fabric reads zero degradation");
        let degraded = faulted(
            FaultPlan::new(vec![FaultEvent {
                start: 0,
                duration: None,
                target: FaultTarget::Link {
                    node: NodeId(5),
                    port: Port::East,
                },
            }])
            .unwrap(),
        );
        assert!(
            degraded > 0.0,
            "the controller must observe the dead link: {degraded}"
        );
    }

    #[test]
    fn observation_exposes_workload_burstiness() {
        let with_spec = |spec: TrafficSpec| {
            let sim = SimConfig::default()
                .with_size(4, 4)
                .with_regions(2, 2)
                .with_traffic_spec(spec);
            let mut env = NocEnv::new(NocEnvConfig {
                action_space: ActionSpace::PerRegionDelta {
                    num_regions: 4,
                    num_levels: 4,
                },
                sim,
                epoch_cycles: 2000,
                epochs_per_episode: 2,
                reward: RewardConfig::default(),
                traffic_menu: vec![],
                seed: 3,
            })
            .unwrap();
            let s = env.reset();
            s[s.len() - 2] // burstiness feature (degradation is last)
        };
        let bern = with_spec(TrafficSpec::stationary(TrafficPattern::Uniform, 0.12));
        let bursty = with_spec(TrafficSpec::Workload(WorkloadSpec::stationary(
            TrafficPattern::Uniform,
            InjectionProcess::Bursty {
                rate_on: 0.24,
                switch: 0.02,
            },
        )));
        assert!(
            bursty > 1.2 * bern,
            "the controller must observe the workload's burstiness: \
             bursty {bursty} vs bernoulli {bern}"
        );
    }

    #[test]
    fn episode_runs_to_done() {
        let mut env = small_env();
        let s0 = env.reset();
        assert_eq!(s0.len(), env.state_dim());
        let mut done = false;
        let mut steps = 0;
        while !done {
            let st = env.step(0);
            done = st.done;
            steps += 1;
            assert!(st.reward.is_finite());
            assert!(steps <= 5, "episode must end after epochs_per_episode");
        }
        assert_eq!(steps, 5);
        assert!(env.last_metrics().is_some());
    }

    #[test]
    fn actions_change_levels() {
        let mut env = small_env();
        env.reset();
        let before = env.simulator().region_levels().to_vec();
        env.step(1); // raise region 0
        let after = env.simulator().region_levels();
        assert_eq!(after[0], (before[0] + 1).min(3));
        assert_eq!(&after[1..], &before[1..]);
    }

    #[test]
    fn reset_uses_exploring_starts() {
        let mut env = small_env();
        let mut seen = std::collections::HashSet::new();
        let mut mixed = false;
        for _ in 0..30 {
            env.reset();
            let l = env.simulator().region_levels().to_vec();
            mixed |= l.iter().any(|&x| x != l[0]);
            seen.extend(l.iter().copied());
        }
        assert!(seen.len() >= 3, "initial levels should vary: {seen:?}");
        assert!(
            mixed,
            "exploring starts should produce mixed configurations"
        );
    }

    #[test]
    fn traffic_menu_varies_across_episodes() {
        let sim = SimConfig::default()
            .with_size(4, 4)
            .with_traffic(TrafficPattern::Uniform, 0.1)
            .with_regions(2, 2);
        let mut env = NocEnv::new(NocEnvConfig {
            action_space: ActionSpace::PerRegionDelta {
                num_regions: 4,
                num_levels: 4,
            },
            sim,
            epoch_cycles: 100,
            epochs_per_episode: 2,
            reward: RewardConfig::default(),
            traffic_menu: vec![
                TrafficSpec::stationary(TrafficPattern::Uniform, 0.02),
                TrafficSpec::stationary(TrafficPattern::Uniform, 0.30),
            ],
            seed: 1,
        })
        .unwrap();
        let mut rates = Vec::new();
        for _ in 0..8 {
            env.reset();
            env.step(0);
            rates.push(env.last_metrics().unwrap().injection_rate);
        }
        let lo = rates.iter().cloned().fold(f64::MAX, f64::min);
        let hi = rates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            hi > 4.0 * lo,
            "menu should produce distinct loads: {rates:?}"
        );
    }

    /// The self-configuration environment runs on tori: episodes reset,
    /// step, observe, and a routing-controlling action space can switch
    /// between the torus algorithms mid-episode.
    #[test]
    fn env_runs_on_torus() {
        use noc_sim::{RoutingAlgorithm, TopologyKind};
        let sim = SimConfig::default()
            .with_size(4, 4)
            .with_topology(TopologyKind::Torus)
            .with_routing(RoutingAlgorithm::TorusDor)
            .with_traffic(TrafficPattern::Uniform, 0.1)
            .with_regions(2, 2);
        let mut env = NocEnv::new(NocEnvConfig {
            action_space: ActionSpace::LevelAndRouting {
                num_levels: 4,
                routings: vec![
                    RoutingAlgorithm::TorusDor,
                    RoutingAlgorithm::TorusMinAdaptive,
                ],
            },
            sim: sim.clone(),
            epoch_cycles: 200,
            epochs_per_episode: 3,
            reward: RewardConfig::default(),
            traffic_menu: vec![],
            seed: 3,
        })
        .unwrap();
        let s0 = env.reset();
        assert_eq!(s0.len(), env.state_dim());
        // Action 3 = level 1, second routing (the adaptive torus algorithm).
        let st = env.step(3);
        assert!(st.reward.is_finite());
        assert_eq!(
            env.simulator().network().routing(),
            RoutingAlgorithm::TorusMinAdaptive
        );
        assert!(env.last_metrics().unwrap().injected_flits > 0);

        // Mesh-only routings in the action space are rejected up front on a
        // torus simulator, not mid-episode.
        let bad = NocEnvConfig {
            action_space: ActionSpace::LevelAndRouting {
                num_levels: 4,
                routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
            },
            sim,
            epoch_cycles: 200,
            epochs_per_episode: 3,
            reward: RewardConfig::default(),
            traffic_menu: vec![],
            seed: 3,
        };
        assert!(NocEnv::new(bad).is_err());
    }

    #[test]
    fn mismatched_action_space_is_rejected() {
        let sim = SimConfig::default().with_size(4, 4).with_regions(2, 2);
        let bad = NocEnvConfig {
            action_space: ActionSpace::PerRegionDelta {
                num_regions: 8,
                num_levels: 4,
            },
            sim,
            ..NocEnvConfig::default()
        };
        assert!(NocEnv::new(bad).is_err());
    }

    #[test]
    fn lower_levels_reduce_energy_in_light_traffic() {
        let mut env = small_env();
        env.reset();
        // Drop everything to the lowest level.
        for a in [2, 4, 6, 8] {
            env.step(a);
        }
        let low = env.last_metrics().unwrap().energy_pj;
        env.reset();
        for _ in 0..4 {
            env.step(0);
        }
        let high = env.last_metrics().unwrap().energy_pj;
        assert!(
            low < high,
            "min level must burn less energy: {low} vs {high}"
        );
    }
}
