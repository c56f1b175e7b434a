//! Runtime controllers: the [`Controller`] trait and the baselines the
//! evaluation compares against. A trained policy (DQN or tabular) deploys
//! through [`crate::zoo::PolicyArtifact::controller`].
//!
//! A controller sees the last epoch's telemetry and the current per-region
//! V/F levels and returns the level vector for the next epoch (and
//! optionally a routing choice).

use noc_sim::{RoutingAlgorithm, SimConfig, SimResult, WindowMetrics};
use std::fmt;

/// What a controller wants the next epoch to look like.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// Target V/F level per region.
    pub levels: Vec<usize>,
    /// Routing switch, if the controller manages routing.
    pub routing: Option<RoutingAlgorithm>,
}

/// A runtime configuration policy. `Send` so experiment harnesses can
/// evaluate controllers on worker threads.
pub trait Controller: Send {
    /// Short name used in experiment tables.
    fn name(&self) -> &str;

    /// Decide the next configuration given the last epoch's telemetry and
    /// the current per-region levels (`num_levels` entries are valid:
    /// `0..num_levels`).
    fn decide(
        &mut self,
        metrics: &WindowMetrics,
        levels: &[usize],
        num_levels: usize,
    ) -> ControlDecision;
}

impl fmt::Debug for dyn Controller + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Controller({})", self.name())
    }
}

/// Holds every region at one end of the V/F table. `StaticController::max`
/// is the performance baseline, `StaticController::min` the energy floor.
#[derive(Debug, Clone)]
pub struct StaticController {
    top: bool,
}

impl StaticController {
    /// Always run at the nominal (fastest) level.
    pub fn max() -> Self {
        StaticController { top: true }
    }

    /// Always run at the lowest level.
    pub fn min() -> Self {
        StaticController { top: false }
    }
}

impl Controller for StaticController {
    fn name(&self) -> &str {
        if self.top {
            "static-max"
        } else {
            "static-min"
        }
    }

    fn decide(
        &mut self,
        _metrics: &WindowMetrics,
        levels: &[usize],
        num_levels: usize,
    ) -> ControlDecision {
        let l = if self.top { num_levels - 1 } else { 0 };
        ControlDecision {
            levels: vec![l; levels.len()],
            routing: None,
        }
    }
}

/// The classic reactive DVFS heuristic: per region, raise the level when
/// buffer occupancy exceeds 10 %, lower it when occupancy falls below 2 %
/// (hysteresis band in between holds). Because wormhole flow control
/// pushes congestion back into the *source queues* rather than router
/// buffers, the controller additionally jumps every region to the top level
/// while the source backlog exceeds 1 flit per node.
///
/// ```
/// use noc_selfconf::{run_controller, ThresholdController};
/// use noc_sim::SimConfig;
///
/// let cfg = SimConfig::default().with_size(4, 4).with_regions(2, 2);
/// let mut heuristic = ThresholdController::for_sim(&cfg)?;
/// let run = run_controller(&cfg, &mut heuristic, 4, 100)?;
/// assert_eq!(run.epochs.len(), 4);
/// # Ok::<(), noc_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdController {
    /// Buffer capacity per region (normalizer).
    region_capacity: Vec<usize>,
    /// Node count (normalizer for the backlog trigger).
    num_nodes: usize,
}

impl ThresholdController {
    /// Occupancy fraction above which a region speeds up.
    const HIGH: f64 = 0.10;
    /// Occupancy fraction below which a region slows down.
    const LOW: f64 = 0.02;
    /// Source backlog (flits per node) above which every region jumps to
    /// the top level.
    const BACKLOG_HIGH: f64 = 1.0;

    /// The heuristic for a fabric with these region buffer capacities and
    /// this many nodes.
    fn new(region_capacity: Vec<usize>, num_nodes: usize) -> Self {
        ThresholdController {
            region_capacity,
            num_nodes: num_nodes.max(1),
        }
    }

    /// The heuristic for `sim`'s fabric ([`SimConfig::region_shape`]).
    ///
    /// # Errors
    /// Returns `sim`'s first violated constraint.
    pub fn for_sim(sim: &SimConfig) -> SimResult<Self> {
        let capacity = sim.region_shape()?.capacity;
        Ok(ThresholdController::new(capacity, sim.width * sim.height))
    }
}

impl Controller for ThresholdController {
    fn name(&self) -> &str {
        "threshold"
    }

    fn decide(
        &mut self,
        metrics: &WindowMetrics,
        levels: &[usize],
        num_levels: usize,
    ) -> ControlDecision {
        // Saturation escape hatch: source queues backing up means the
        // network is under-clocked regardless of buffer occupancy.
        if metrics.avg_backlog / self.num_nodes as f64 > Self::BACKLOG_HIGH {
            return ControlDecision {
                levels: vec![num_levels - 1; levels.len()],
                routing: None,
            };
        }
        let out = levels
            .iter()
            .enumerate()
            .map(|(r, &l)| {
                let cap = self.region_capacity.get(r).copied().unwrap_or(1).max(1) as f64;
                let occ = metrics.region_occupancy.get(r).copied().unwrap_or(0.0) / cap;
                if occ > Self::HIGH {
                    (l + 1).min(num_levels - 1)
                } else if occ < Self::LOW {
                    l.saturating_sub(1)
                } else {
                    l
                }
            })
            .collect();
        ControlDecision {
            levels: out,
            routing: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{PolicyArtifact, PolicyKind, ZOO_SCHEMA_VERSION};
    use crate::{ActionSpace, StateEncoder};

    fn metrics_with_occupancy(occ: Vec<f64>) -> WindowMetrics {
        WindowMetrics {
            cycles: 100,
            offered_packets: 0,
            injection_burstiness: 0.0,
            phase_cycles: vec![],
            phase_offered_packets: vec![],
            injected_flits: 0,
            injected_packets: 0,
            ejected_flits: 0,
            ejected_packets: 0,
            dropped_flits: 0,
            dropped_packets: 0,
            avg_dead_links: 0.0,
            latency_samples: 0,
            avg_packet_latency: f64::NAN,
            avg_network_latency: f64::NAN,
            avg_hops: f64::NAN,
            throughput: 0.0,
            injection_rate: 0.0,
            energy_pj: 0.0,
            dynamic_pj: 0.0,
            leakage_pj: 0.0,
            avg_occupancy: occ.iter().sum(),
            region_injected_flits: vec![0; occ.len()],
            region_occupancy: occ,
            avg_backlog: 0.0,
        }
    }

    #[test]
    fn static_controllers_pin_levels() {
        let m = metrics_with_occupancy(vec![0.0; 4]);
        let mut hi = StaticController::max();
        let mut lo = StaticController::min();
        assert_eq!(hi.decide(&m, &[0, 1, 2, 3], 4).levels, vec![3; 4]);
        assert_eq!(lo.decide(&m, &[0, 1, 2, 3], 4).levels, vec![0; 4]);
        assert_eq!(hi.name(), "static-max");
        assert_eq!(lo.name(), "static-min");
    }

    #[test]
    fn threshold_raises_on_congestion_and_lowers_when_idle() {
        let mut c = ThresholdController::new(vec![100; 2], 16);
        // Region 0 congested (40%), region 1 idle (1%).
        let m = metrics_with_occupancy(vec![40.0, 1.0]);
        let d = c.decide(&m, &[1, 2], 4);
        assert_eq!(d.levels, vec![2, 1]);
    }

    #[test]
    fn threshold_holds_inside_hysteresis_band() {
        let mut c = ThresholdController::new(vec![100; 1], 16);
        let m = metrics_with_occupancy(vec![5.0]); // between 2% and 10%
        assert_eq!(c.decide(&m, &[2], 4).levels, vec![2]);
    }

    #[test]
    fn threshold_saturates_at_bounds() {
        let mut c = ThresholdController::new(vec![100; 1], 16);
        let hot = metrics_with_occupancy(vec![90.0]);
        assert_eq!(c.decide(&hot, &[3], 4).levels, vec![3]);
        let cold = metrics_with_occupancy(vec![0.0]);
        assert_eq!(c.decide(&cold, &[0], 4).levels, vec![0]);
    }

    #[test]
    fn threshold_panics_to_max_on_backlog() {
        let mut c = ThresholdController::new(vec![100; 2], 16);
        let mut m = metrics_with_occupancy(vec![0.0, 0.0]);
        m.avg_backlog = 100.0; // > 1 flit/node on 16 nodes
        assert_eq!(c.decide(&m, &[0, 1], 4).levels, vec![3, 3]);
    }

    /// A hand-assembled, untrained artifact around `kind`.
    fn untrained(kind: PolicyKind, action_space: ActionSpace) -> PolicyArtifact {
        PolicyArtifact {
            schema_version: ZOO_SCHEMA_VERSION,
            kind,
            encoder: StateEncoder::new(vec![100; 4], vec![4; 4], 4, 16),
            action_space,
            provenance: None,
            curve: vec![],
            config_hash: String::new(),
        }
    }

    #[test]
    fn drl_controller_translates_actions() {
        use rl::{DqnAgent, DqnConfig};
        let space = ActionSpace::PerRegionDelta {
            num_regions: 4,
            num_levels: 4,
        };
        let agent = DqnAgent::new(DqnConfig::default().with_dims(17, space.num_actions()));
        let kind = PolicyKind::Dqn {
            dqn: agent.config().clone(),
            policy_json: agent.policy_to_json().unwrap(),
        };
        let mut c = untrained(kind, space).controller().unwrap();
        let m = metrics_with_occupancy(vec![1.0; 4]);
        let d = c.decide(&m, &[2, 2, 2, 2], 4);
        assert_eq!(d.levels.len(), 4);
        assert!(d.levels.iter().all(|&l| l < 4));
        // Deterministic: same input, same decision.
        assert_eq!(d, c.decide(&m, &[2, 2, 2, 2], 4));
        assert_eq!(c.name(), "drl");
    }

    #[test]
    fn tabular_controller_translates_actions() {
        use rl::{TabularConfig, TabularQ};
        let space = ActionSpace::PerRegionDelta {
            num_regions: 4,
            num_levels: 4,
        };
        let agent = TabularQ::new(TabularConfig {
            state_dim: 17,
            num_actions: space.num_actions(),
            ..TabularConfig::default()
        });
        let mut c = untrained(PolicyKind::Tabular { agent }, space)
            .controller()
            .unwrap();
        let m = metrics_with_occupancy(vec![1.0; 4]);
        let d = c.decide(&m, &[2, 1, 2, 3], 4);
        assert_eq!(
            d.levels,
            vec![2, 1, 2, 3],
            "untrained table is greedy toward action 0 (hold)"
        );
        assert_eq!(c.name(), "tabular-q");
    }
}
