//! Action spaces: how an agent's discrete action index maps onto NoC
//! configuration changes.

use noc_sim::{RoutingAlgorithm, SimResult, Simulator};
use serde::{Deserialize, Serialize};

/// The configuration knobs a discrete action controls.
///
/// ```
/// use noc_selfconf::ActionSpace;
///
/// let space = ActionSpace::PerRegionDelta { num_regions: 4, num_levels: 4 };
/// assert_eq!(space.num_actions(), 11);
/// // Action 1 raises region 0 one level.
/// assert_eq!(space.levels_after(1, &[2, 2, 2, 2]), vec![3, 2, 2, 2]);
/// // The penultimate action raises every region (burst response).
/// assert_eq!(space.levels_after(9, &[1, 2, 3, 0]), vec![2, 3, 3, 1]);
/// assert_eq!(space.describe(0), "hold");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActionSpace {
    /// Action 0 holds; action `1 + 2r` raises region `r` one level; action
    /// `2 + 2r` lowers it one level (saturating); the final two actions
    /// raise/lower *every* region at once (fast response to global load
    /// swings). The paper-style default: fine-grained spatial control with
    /// a small action count (`2R + 3`).
    PerRegionDelta {
        /// Number of DVFS regions.
        num_regions: usize,
        /// Number of V/F levels.
        num_levels: usize,
    },
    /// Cross product of a uniform V/F level and a routing algorithm:
    /// action = `level * routings.len() + routing_index`.
    LevelAndRouting {
        /// Number of V/F levels.
        num_levels: usize,
        /// Selectable routing algorithms.
        routings: Vec<RoutingAlgorithm>,
    },
}

impl ActionSpace {
    /// Number of discrete actions.
    pub fn num_actions(&self) -> usize {
        match self {
            ActionSpace::PerRegionDelta { num_regions, .. } => 2 * num_regions + 3,
            ActionSpace::LevelAndRouting {
                num_levels,
                routings,
            } => num_levels * routings.len(),
        }
    }

    /// The per-region level vector that results from taking `action` with
    /// the regions currently at `levels`. Pure function used by controllers
    /// and tests; [`ActionSpace::apply`] actuates it on a simulator.
    ///
    /// # Panics
    /// Panics if `action >= num_actions()` or `levels` has the wrong length
    /// for a per-region space.
    pub fn levels_after(&self, action: usize, levels: &[usize]) -> Vec<usize> {
        assert!(action < self.num_actions(), "action {action} out of range");
        match self {
            ActionSpace::PerRegionDelta {
                num_regions,
                num_levels,
            } => {
                assert_eq!(levels.len(), *num_regions, "level vector length mismatch");
                let mut out = levels.to_vec();
                if action == 2 * num_regions + 1 {
                    for l in &mut out {
                        *l = (*l + 1).min(num_levels - 1);
                    }
                } else if action == 2 * num_regions + 2 {
                    for l in &mut out {
                        *l = l.saturating_sub(1);
                    }
                } else if action > 0 {
                    let r = (action - 1) / 2;
                    if action % 2 == 1 {
                        out[r] = (out[r] + 1).min(num_levels - 1);
                    } else {
                        out[r] = out[r].saturating_sub(1);
                    }
                }
                out
            }
            ActionSpace::LevelAndRouting { routings, .. } => {
                vec![action / routings.len(); levels.len()]
            }
        }
    }

    /// The routing algorithm selected by `action`, if this space controls
    /// routing.
    pub fn routing_after(&self, action: usize) -> Option<RoutingAlgorithm> {
        match self {
            ActionSpace::LevelAndRouting { routings, .. } => {
                Some(routings[action % routings.len()])
            }
            _ => None,
        }
    }

    /// Actuate `action` on a simulator.
    ///
    /// # Errors
    /// Returns an error if a resulting level or routing choice is invalid
    /// for the simulator (cannot happen for spaces constructed consistently
    /// with the simulator's configuration).
    ///
    /// # Panics
    /// Panics if `action >= num_actions()`.
    pub fn apply(&self, action: usize, sim: &mut Simulator) -> SimResult<()> {
        let levels = self.levels_after(action, sim.region_levels());
        for (r, &l) in levels.iter().enumerate() {
            sim.set_region_level(r, l)?;
        }
        if let Some(routing) = self.routing_after(action) {
            sim.set_routing(routing)?;
        }
        Ok(())
    }

    /// Human-readable description of an action (for experiment logs).
    pub fn describe(&self, action: usize) -> String {
        match self {
            ActionSpace::PerRegionDelta { num_regions, .. } => {
                if action == 0 {
                    "hold".to_string()
                } else if action == 2 * num_regions + 1 {
                    "raise all regions".to_string()
                } else if action == 2 * num_regions + 2 {
                    "lower all regions".to_string()
                } else {
                    let r = (action - 1) / 2;
                    if action % 2 == 1 {
                        format!("raise region {r}")
                    } else {
                        format!("lower region {r}")
                    }
                }
            }
            ActionSpace::LevelAndRouting { routings, .. } => {
                let level = action / routings.len();
                let routing = routings[action % routings.len()];
                format!("level {level}, routing {routing:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{SimConfig, TrafficPattern};

    #[test]
    fn per_region_delta_holds_raises_and_lowers() {
        let a = ActionSpace::PerRegionDelta {
            num_regions: 4,
            num_levels: 4,
        };
        assert_eq!(a.num_actions(), 11);
        let cur = vec![1, 1, 1, 1];
        assert_eq!(a.levels_after(0, &cur), cur, "action 0 holds");
        assert!(a.routing_after(9).is_none(), "levels only");
        assert_eq!(a.levels_after(1, &cur), vec![2, 1, 1, 1], "raise region 0");
        assert_eq!(a.levels_after(2, &cur), vec![0, 1, 1, 1], "lower region 0");
        assert_eq!(a.levels_after(7, &cur), vec![1, 1, 1, 2], "raise region 3");
        assert_eq!(a.levels_after(8, &cur), vec![1, 1, 1, 0], "lower region 3");
        assert_eq!(
            a.levels_after(9, &[0, 3, 2, 1]),
            vec![1, 3, 3, 2],
            "raise all"
        );
        assert_eq!(
            a.levels_after(10, &[0, 3, 2, 1]),
            vec![0, 2, 1, 0],
            "lower all"
        );
    }

    #[test]
    fn per_region_delta_saturates() {
        let a = ActionSpace::PerRegionDelta {
            num_regions: 2,
            num_levels: 4,
        };
        assert_eq!(a.levels_after(1, &[3, 0]), vec![3, 0], "raise at max holds");
        assert_eq!(a.levels_after(4, &[3, 0]), vec![3, 0], "lower at min holds");
    }

    #[test]
    fn level_and_routing_cross_product() {
        let a = ActionSpace::LevelAndRouting {
            num_levels: 4,
            routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        };
        assert_eq!(a.num_actions(), 8);
        assert_eq!(a.levels_after(5, &[0, 0]), vec![2, 2]);
        assert_eq!(a.routing_after(5), Some(RoutingAlgorithm::OddEven));
        assert_eq!(a.routing_after(4), Some(RoutingAlgorithm::Xy));
    }

    #[test]
    fn apply_actuates_simulator() {
        let cfg = SimConfig::default()
            .with_size(4, 4)
            .with_traffic(TrafficPattern::Uniform, 0.1)
            .with_regions(2, 2);
        let mut sim = Simulator::new(cfg).unwrap();
        let a = ActionSpace::PerRegionDelta {
            num_regions: 4,
            num_levels: 4,
        };
        // Starts at max level (3).
        a.apply(2, &mut sim).unwrap(); // lower region 0
        assert_eq!(sim.region_levels(), &[2, 3, 3, 3]);
        let b = ActionSpace::LevelAndRouting {
            num_levels: 4,
            routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        };
        b.apply(3, &mut sim).unwrap(); // level 1, odd-even
        assert_eq!(sim.region_levels(), &[1, 1, 1, 1]);
        assert_eq!(sim.network().routing(), RoutingAlgorithm::OddEven);
    }

    #[test]
    fn descriptions_are_informative() {
        let a = ActionSpace::PerRegionDelta {
            num_regions: 2,
            num_levels: 4,
        };
        assert_eq!(a.describe(0), "hold");
        assert_eq!(a.describe(3), "raise region 1");
        assert_eq!(a.describe(4), "lower region 1");
        assert_eq!(a.describe(5), "raise all regions");
        assert_eq!(a.describe(6), "lower all regions");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_action_panics() {
        let a = ActionSpace::PerRegionDelta {
            num_regions: 1,
            num_levels: 4,
        };
        let _ = a.levels_after(5, &[0]);
    }
}
