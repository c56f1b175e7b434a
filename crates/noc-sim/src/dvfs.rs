//! Dynamic voltage and frequency scaling (DVFS).
//!
//! The configuration knob the self-configuration agent actuates: each
//! *region* of the chip (a rectangular block of routers) runs at one of a
//! discrete set of voltage/frequency levels. Frequency scaling is modeled in
//! the cycle-driven simulator with a phase accumulator: a router at relative
//! frequency `f ∈ (0, 1]` performs its pipeline on a fraction `f` of global
//! clock cycles. Dynamic energy scales with `V²` and leakage with `V`
//! relative to the nominal voltage.

use crate::error::{SimError, SimResult};
use crate::topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VfLevel {
    /// Supply voltage in volts.
    pub voltage: f64,
    /// Frequency relative to the nominal (maximum) clock, in `(0, 1]`.
    pub freq_scale: f64,
}

impl VfLevel {
    /// Dynamic energy multiplier relative to nominal voltage: `(V/V_nom)²`.
    pub fn dynamic_scale(&self, v_nom: f64) -> f64 {
        let r = self.voltage / v_nom;
        r * r
    }

    /// Leakage power multiplier relative to nominal voltage: `V/V_nom`.
    pub fn leakage_scale(&self, v_nom: f64) -> f64 {
        self.voltage / v_nom
    }
}

/// An ordered table of V/F levels, from slowest/lowest-power (index 0) to
/// fastest/highest-power (last index). The last level is the nominal point.
///
/// ```
/// use noc_sim::VfTable;
///
/// let table = VfTable::four_level();
/// let low = table.level(0)?;
/// // Running at 0.6 V instead of the nominal 1.1 V costs (0.6/1.1)² of the
/// // dynamic energy per event.
/// assert!(low.dynamic_scale(table.nominal_voltage()) < 0.3);
/// # Ok::<(), noc_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VfTable {
    levels: Vec<VfLevel>,
}

impl VfTable {
    /// Build a table from explicit levels, ordered ascending by frequency.
    ///
    /// # Errors
    /// Returns an error if the table is empty, any frequency scale is outside
    /// `(0, 1]`, any voltage is non-positive, or levels are not strictly
    /// increasing in frequency.
    pub fn new(levels: Vec<VfLevel>) -> SimResult<Self> {
        if levels.is_empty() {
            return Err(SimError::InvalidConfig(
                "V/F table must not be empty".into(),
            ));
        }
        for l in &levels {
            if !(l.freq_scale > 0.0 && l.freq_scale <= 1.0) {
                return Err(SimError::InvalidConfig(format!(
                    "frequency scale {} outside (0, 1]",
                    l.freq_scale
                )));
            }
            if l.voltage <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "non-positive voltage {}",
                    l.voltage
                )));
            }
        }
        if levels
            .windows(2)
            .any(|w| w[0].freq_scale >= w[1].freq_scale)
        {
            return Err(SimError::InvalidConfig(
                "V/F levels must be strictly increasing in frequency".into(),
            ));
        }
        Ok(VfTable { levels })
    }

    /// The four-level table used by the paper-style experiments:
    /// (0.6 V, 0.4×), (0.8 V, 0.6×), (1.0 V, 0.8×), (1.1 V, 1.0×).
    pub fn four_level() -> Self {
        VfTable::new(vec![
            VfLevel {
                voltage: 0.6,
                freq_scale: 0.4,
            },
            VfLevel {
                voltage: 0.8,
                freq_scale: 0.6,
            },
            VfLevel {
                voltage: 1.0,
                freq_scale: 0.8,
            },
            VfLevel {
                voltage: 1.1,
                freq_scale: 1.0,
            },
        ])
        .expect("built-in table is valid")
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level at `idx`.
    ///
    /// # Errors
    /// Returns an error if the index is out of range.
    pub fn level(&self, idx: usize) -> SimResult<VfLevel> {
        self.levels
            .get(idx)
            .copied()
            .ok_or(SimError::VfLevelOutOfRange {
                level: idx,
                levels: self.levels.len(),
            })
    }

    /// Index of the nominal (fastest) level.
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Nominal voltage (the voltage of the fastest level).
    pub fn nominal_voltage(&self) -> f64 {
        self.levels[self.levels.len() - 1].voltage
    }

    /// All levels in order.
    pub fn levels(&self) -> &[VfLevel] {
        &self.levels
    }
}

impl Default for VfTable {
    fn default() -> Self {
        VfTable::four_level()
    }
}

/// Partition of the grid into `regions_x × regions_y` rectangular regions,
/// each independently voltage/frequency scaled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionMap {
    regions_x: usize,
    regions_y: usize,
    width: usize,
    height: usize,
}

impl RegionMap {
    /// Build a region map over a topology.
    ///
    /// # Errors
    /// Returns an error if either region count is zero or exceeds the grid
    /// dimension.
    pub fn new(topo: &Topology, regions_x: usize, regions_y: usize) -> SimResult<Self> {
        if regions_x == 0 || regions_y == 0 {
            return Err(SimError::InvalidConfig(
                "region counts must be positive".into(),
            ));
        }
        if regions_x > topo.width() || regions_y > topo.height() {
            return Err(SimError::InvalidConfig(format!(
                "region grid {regions_x}x{regions_y} exceeds topology {}x{}",
                topo.width(),
                topo.height()
            )));
        }
        Ok(RegionMap {
            regions_x,
            regions_y,
            width: topo.width(),
            height: topo.height(),
        })
    }

    /// Total number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions_x * self.regions_y
    }

    /// Region containing a node.
    pub fn region_of(&self, topo: &Topology, node: NodeId) -> usize {
        let c = topo.coord(node);
        let rx = c.x * self.regions_x / self.width;
        let ry = c.y * self.regions_y / self.height;
        ry * self.regions_x + rx
    }

    /// The fabric's shape per region, each router buffering
    /// `router_capacity` flits: the derivation behind
    /// [`SimConfig::region_shape`](crate::SimConfig::region_shape).
    pub fn shape(&self, topo: &Topology, router_capacity: usize) -> RegionShape {
        let mut nodes = vec![0; self.num_regions()];
        for n in topo.nodes() {
            nodes[self.region_of(topo, n)] += 1;
        }
        let capacity = nodes.iter().map(|&k| k * router_capacity).collect();
        RegionShape { nodes, capacity }
    }
}

/// What a controller normalises its per-region telemetry by, one entry per
/// region in region order. A pure function of the configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionShape {
    /// Nodes in the region (the injection-rate normaliser).
    pub nodes: Vec<usize>,
    /// Flit slots across the region's router input buffers (the occupancy
    /// normaliser).
    pub capacity: Vec<usize>,
}

/// A forced-throttle window (thermal/power emergency injection): while
/// active, the region's effective V/F level is capped at `level` regardless
/// of what the controller requests. Used to test controller reaction to
/// events outside their own actuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThrottleEvent {
    /// First cycle of the emergency.
    pub start: u64,
    /// Duration in cycles.
    pub duration: u64,
    /// Affected region.
    pub region: usize,
    /// Level cap imposed while active.
    pub level: usize,
}

impl ThrottleEvent {
    /// Whether the emergency is active at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        cycle >= self.start && cycle < self.start.saturating_add(self.duration)
    }
}

/// A clock domain's frequency divider, implemented as a phase accumulator
/// to allow fractional frequency ratios. The network keeps one per DVFS
/// region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClockGate {
    freq_scale: f64,
    phase: f64,
}

impl ClockGate {
    /// A gate running at the given relative frequency.
    pub fn new(freq_scale: f64) -> Self {
        ClockGate {
            freq_scale,
            phase: 0.0,
        }
    }

    /// Change the relative frequency (takes effect from the next tick).
    pub fn set_freq_scale(&mut self, freq_scale: f64) {
        self.freq_scale = freq_scale;
    }

    /// Current relative frequency.
    pub fn freq_scale(&self) -> f64 {
        self.freq_scale
    }

    /// Advance one global clock cycle; returns whether the gated domain is
    /// active this cycle. Over `N` cycles the domain is active
    /// `round(N * freq_scale)` times.
    pub fn tick(&mut self) -> bool {
        self.phase += self.freq_scale;
        if self.phase >= 1.0 - 1e-12 {
            self.phase -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_level_table_is_monotone() {
        let t = VfTable::four_level();
        assert_eq!(t.num_levels(), 4);
        assert_eq!(t.max_level(), 3);
        for w in t.levels().windows(2) {
            assert!(w[0].freq_scale < w[1].freq_scale);
            assert!(w[0].voltage < w[1].voltage);
        }
    }

    #[test]
    fn energy_scales_quadratically() {
        let t = VfTable::four_level();
        let v_nom = t.nominal_voltage();
        let low = t.level(0).unwrap();
        let expected = (0.6 / 1.1) * (0.6 / 1.1);
        assert!((low.dynamic_scale(v_nom) - expected).abs() < 1e-12);
        assert!((low.leakage_scale(v_nom) - 0.6 / 1.1).abs() < 1e-12);
    }

    #[test]
    fn invalid_tables_rejected() {
        assert!(VfTable::new(vec![]).is_err());
        assert!(VfTable::new(vec![VfLevel {
            voltage: 1.0,
            freq_scale: 1.5
        }])
        .is_err());
        assert!(VfTable::new(vec![VfLevel {
            voltage: -1.0,
            freq_scale: 0.5
        }])
        .is_err());
        assert!(VfTable::new(vec![
            VfLevel {
                voltage: 1.0,
                freq_scale: 0.8
            },
            VfLevel {
                voltage: 1.1,
                freq_scale: 0.8
            },
        ])
        .is_err());
    }

    #[test]
    fn level_out_of_range_is_error() {
        let t = VfTable::default();
        assert_eq!(
            t.level(5),
            Err(SimError::VfLevelOutOfRange {
                level: 5,
                levels: 4
            })
        );
    }

    #[test]
    fn region_map_partitions_grid() {
        let topo = Topology::mesh(8, 8);
        let rm = RegionMap::new(&topo, 2, 2).unwrap();
        assert_eq!(rm.num_regions(), 4);
        // Top-left quadrant is region 0.
        assert_eq!(rm.region_of(&topo, NodeId(0)), 0);
        // Top-right quadrant is region 1.
        assert_eq!(rm.region_of(&topo, NodeId(7)), 1);
        // Bottom-left is region 2, bottom-right region 3.
        assert_eq!(rm.region_of(&topo, NodeId(56)), 2);
        assert_eq!(rm.region_of(&topo, NodeId(63)), 3);
        // Every node is in exactly one region; regions cover the grid evenly.
        let mut counts = vec![0usize; 4];
        for n in topo.nodes() {
            counts[rm.region_of(&topo, n)] += 1;
        }
        assert_eq!(counts, vec![16, 16, 16, 16]);
    }

    #[test]
    fn region_nodes_in_is_consistent() {
        // 5 columns split 3|2 and 3 rows split 2|1: uneven regions.
        let topo = Topology::mesh(5, 3);
        let rm = RegionMap::new(&topo, 2, 2).unwrap();
        let shape = rm.shape(&topo, 40);
        assert_eq!(shape.nodes, vec![6, 4, 3, 2]);
        assert_eq!(shape.capacity, vec![240, 160, 120, 80]);
        for (r, &k) in shape.nodes.iter().enumerate() {
            let members = topo.nodes().filter(|&n| rm.region_of(&topo, n) == r);
            assert_eq!(members.count(), k);
        }
    }

    #[test]
    fn single_region_covers_everything() {
        let topo = Topology::mesh(5, 3);
        let rm = RegionMap::new(&topo, 1, 1).unwrap();
        for n in topo.nodes() {
            assert_eq!(rm.region_of(&topo, n), 0);
        }
    }

    #[test]
    fn invalid_region_map_rejected() {
        let topo = Topology::mesh(4, 4);
        assert!(RegionMap::new(&topo, 0, 1).is_err());
        assert!(RegionMap::new(&topo, 5, 1).is_err());
    }

    #[test]
    fn throttle_event_window_is_half_open() {
        let t = ThrottleEvent {
            start: 100,
            duration: 50,
            region: 0,
            level: 0,
        };
        assert!(!t.active_at(99));
        assert!(t.active_at(100));
        assert!(t.active_at(149));
        assert!(!t.active_at(150));
    }

    #[test]
    fn clock_gate_full_speed_always_active() {
        let mut g = ClockGate::new(1.0);
        assert!((0..100).all(|_| g.tick()));
    }

    #[test]
    fn clock_gate_half_speed_alternates() {
        let mut g = ClockGate::new(0.5);
        let active = (0..100).filter(|_| g.tick()).count();
        assert_eq!(active, 50);
    }

    #[test]
    fn clock_gate_fractional_rate_converges() {
        let mut g = ClockGate::new(0.4);
        let active = (0..1000).filter(|_| g.tick()).count();
        assert_eq!(active, 400);
    }
}
