//! # noc-selfconf — deep-RL self-configuration for NoCs
//!
//! The primary contribution of *Deep Reinforcement Learning for
//! Self-Configurable NoC* (SOCC 2020), reproduced: a runtime agent that
//! observes per-epoch NoC telemetry and reconfigures per-region DVFS levels
//! (and optionally the routing algorithm) to trade latency against energy.
//!
//! * [`state`] — telemetry → observation vector.
//! * [`action`] — discrete action → configuration change.
//! * [`reward`] — the latency/energy/throughput objective.
//! * [`mod@env`] — `NocEnv`, the Gym-style environment over the simulator.
//! * [`controller`] — the `Controller` trait and the static / threshold
//!   baselines; a trained policy deploys through its `PolicyArtifact`.
//! * [`training`] — training and controller-evaluation drivers.
//! * [`sweep`] — the parallel scenario-sweep engine: cartesian grids of
//!   configurations fanned out over a thread pool into one deterministic
//!   aggregated report.
//! * [`serve`] — sweep-as-a-service: a persistent TCP daemon with a
//!   content-addressed result cache, single-flight deduplication, and
//!   admission-controlled fair-share scheduling.
//! * [`zoo`] — the policy zoo: one versioned artifact format for trained
//!   policies, population training over variant × scenario grids, and the
//!   tournament matrix every controller-vs-scenario comparison runs on.
//!
//! ```no_run
//! use noc_selfconf::{train_drl, NocEnvConfig};
//! use rl::{DqnConfig, TrainConfig};
//!
//! # fn main() -> Result<(), noc_sim::SimError> {
//! let policy = train_drl(
//!     NocEnvConfig::default(),
//!     DqnConfig::default(),
//!     TrainConfig { episodes: 150, max_steps: 40, ..TrainConfig::default() },
//! )?;
//! println!("trained for {} gradient steps", policy.agent.train_steps());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod controller;
pub mod env;
pub mod par;
pub mod reward;
pub mod serve;
pub mod state;
pub mod sweep;
pub mod training;
pub mod zoo;

pub use action::ActionSpace;
pub use controller::{ControlDecision, Controller, StaticController, ThresholdController};
pub use env::{standard_traffic_menu, NocEnv, NocEnvConfig};
pub use par::{default_threads, parallel_map};
pub use reward::RewardConfig;
pub use serve::{Daemon, ResultCache, ServeClient, ServeConfig};
pub use state::StateEncoder;
pub use sweep::{Scenario, ScenarioResult, SweepAggregate, SweepGrid, SweepReport};
pub use training::{
    aggregate_run, run_controller, train_drl, train_tabular, ControllerRun, RunAggregate,
    TrainedPolicy,
};
pub use zoo::{
    load_zoo, tournament_matrix, train_grid, Entrant, Learner, PolicyArtifact, PolicyKind,
    ScenarioFamily, TournamentConfig, TournamentReport, ZooError, ZooGrid, ZooManifest,
};
