//! Simulation configuration.

use crate::dvfs::{RegionMap, RegionShape, ThrottleEvent, VfTable};
use crate::error::{SimError, SimResult};
use crate::fault::FaultPlan;
use crate::flit::MAX_ROUTERS;
use crate::power::PowerModel;
use crate::routing::RoutingAlgorithm;
use crate::topology::{Port, Topology, TopologyKind};
use crate::traffic::{TrafficPattern, TrafficSpec, WorkloadSpec};
use serde::{Deserialize, Serialize};

crate::vocabulary! {
    /// The release rule of switch allocation's one path.
    ///
    /// Every grant holds its output port for the granted input VC until a
    /// release. `PerFlit` is the historical behavior: it releases after every
    /// grant, so every buffered flit competes for its output port every cycle
    /// and flits of different packets may interleave on a link (VC ownership
    /// still keeps packets apart per VC). `PerPacket` models true wormhole
    /// switch allocation: the port stays held for the packet until its tail
    /// flit is switched, exposing head-of-line blocking and long-packet credit
    /// dynamics. For single-flit packets the two rules are byte-identical
    /// (every grant is a head-and-tail, so it releases at once).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
    pub enum SwitchArb as "switch arbitration" {
        /// Flit-granular switch allocation (the legacy default).
        #[default]
        PerFlit = "perflit",
        /// Packet-granular allocation: output ports are held head→tail.
        PerPacket = "perpacket",
    }
}

/// Full configuration of a simulation run (Table 1 of the evaluation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Mesh or torus.
    pub kind: TopologyKind,
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Buffer depth per VC, in flits.
    pub vc_depth: usize,
    /// Packet length in flits.
    pub packet_len: u32,
    /// Switch-allocation granularity. Defaults to the legacy per-flit mode;
    /// configs written before the knob existed deserialize to it.
    #[serde(default)]
    pub switch_arb: SwitchArb,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Traffic specification.
    pub traffic: TrafficSpec,
    /// DVFS level table.
    pub vf_table: VfTable,
    /// DVFS regions along x.
    pub regions_x: usize,
    /// DVFS regions along y.
    pub regions_y: usize,
    /// Power model coefficients.
    pub power: PowerModel,
    /// Forced-throttle (thermal emergency) injections.
    #[serde(default)]
    pub throttles: Vec<ThrottleEvent>,
    /// Timed link/router failures the network applies at cycle boundaries.
    /// Defaults to the empty plan (a pristine fabric).
    #[serde(default)]
    pub fault_plan: FaultPlan,
    /// Ignored: every simulation steps on one thread. Kept so configs that
    /// carry it still parse and serialize to the same bytes; `validate`
    /// still range-checks it (1 ..= routers), and nothing else reads it.
    #[serde(default = "default_partitions")]
    pub partitions: usize,
    /// RNG seed for traffic generation.
    pub seed: u64,
}

/// Serde default for [`SimConfig::partitions`]: configs written before the
/// knob existed (and configs that omit it) mean a serial step.
fn default_partitions() -> usize {
    1
}

impl Default for SimConfig {
    /// The paper-style default: 8×8 mesh, 4 VCs × 4-flit buffers, 5-flit
    /// packets, XY routing, uniform traffic at 0.10 flits/node/cycle,
    /// four V/F levels over 2×2 regions.
    fn default() -> Self {
        SimConfig {
            width: 8,
            height: 8,
            kind: TopologyKind::Mesh,
            num_vcs: 4,
            vc_depth: 4,
            packet_len: 5,
            switch_arb: SwitchArb::PerFlit,
            routing: RoutingAlgorithm::Xy,
            traffic: TrafficSpec::stationary(TrafficPattern::Uniform, 0.10),
            vf_table: VfTable::four_level(),
            regions_x: 2,
            regions_y: 2,
            power: PowerModel::default_32nm(),
            throttles: Vec::new(),
            fault_plan: FaultPlan::empty(),
            partitions: 1,
            seed: 1,
        }
    }
}

impl SimConfig {
    /// Set grid dimensions.
    pub fn with_size(mut self, width: usize, height: usize) -> Self {
        self.width = width;
        self.height = height;
        self
    }

    /// Set the topology kind (mesh or torus). The routing algorithm is left
    /// untouched; callers switching kinds usually pair this with
    /// [`RoutingAlgorithm::for_topology`].
    pub fn with_topology(mut self, kind: TopologyKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set the traffic to a stationary Bernoulli pattern at `rate`
    /// flits/node/cycle (the legacy pairing).
    pub fn with_traffic(mut self, pattern: TrafficPattern, rate: f64) -> Self {
        self.traffic = TrafficSpec::stationary(pattern, rate);
        self
    }

    /// Set the traffic to a composable workload spec.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.traffic = TrafficSpec::Workload(workload);
        self
    }

    /// Set an arbitrary traffic spec.
    pub fn with_traffic_spec(mut self, spec: TrafficSpec) -> Self {
        self.traffic = spec;
        self
    }

    /// Set the routing algorithm.
    pub fn with_routing(mut self, routing: RoutingAlgorithm) -> Self {
        self.routing = routing;
        self
    }

    /// Inject forced-throttle (thermal emergency) events.
    pub fn with_throttles(mut self, throttles: Vec<ThrottleEvent>) -> Self {
        self.throttles = throttles;
        self
    }

    /// Inject a fault plan (timed link/router failures).
    pub fn with_faults(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the ignored [`SimConfig::partitions`] field.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Set the DVFS region grid.
    pub fn with_regions(mut self, regions_x: usize, regions_y: usize) -> Self {
        self.regions_x = regions_x;
        self.regions_y = regions_y;
        self
    }

    /// Set VC count and depth.
    pub fn with_vcs(mut self, num_vcs: usize, vc_depth: usize) -> Self {
        self.num_vcs = num_vcs;
        self.vc_depth = vc_depth;
        self
    }

    /// Set packet length in flits.
    pub fn with_packet_len(mut self, packet_len: u32) -> Self {
        self.packet_len = packet_len;
        self
    }

    /// Set the switch-allocation granularity.
    pub fn with_switch_arb(mut self, switch_arb: SwitchArb) -> Self {
        self.switch_arb = switch_arb;
        self
    }

    /// The topology described by this configuration.
    pub fn topology(&self) -> Topology {
        match self.kind {
            TopologyKind::Mesh => Topology::mesh(self.width, self.height),
            TopologyKind::Torus => Topology::torus(self.width, self.height),
        }
    }

    /// The fabric's shape per DVFS region ([`RegionMap::shape`]), read off
    /// the configuration without building a simulator: what state encoders
    /// and heuristics normalise by. Each router buffers `num_vcs × vc_depth`
    /// flits on each of its ports.
    ///
    /// # Errors
    /// Returns the first violated constraint ([`SimConfig::validate`]).
    pub fn region_shape(&self) -> SimResult<RegionShape> {
        self.validate()?;
        let topo = self.topology();
        let regions = RegionMap::new(&topo, self.regions_x, self.regions_y)?;
        Ok(regions.shape(&topo, Port::COUNT * self.num_vcs * self.vc_depth))
    }

    /// Check internal consistency.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> SimResult<()> {
        if self.width == 0 || self.height == 0 {
            return Err(SimError::InvalidConfig(
                "grid dimensions must be positive".into(),
            ));
        }
        if (self.width.checked_mul(self.height)).is_none_or(|n| n > MAX_ROUTERS) {
            // The packet table names endpoints in u16 (`PacketTable::ends`)
            // and a flit counts its hops, fewer than the routers, in u16 too.
            return Err(SimError::InvalidConfig(format!(
                "grid {}x{} exceeds the supported maximum of {MAX_ROUTERS} routers",
                self.width, self.height
            )));
        }
        if self.num_vcs == 0 || self.vc_depth == 0 {
            return Err(SimError::InvalidConfig(
                "VC count and depth must be positive".into(),
            ));
        }
        if self.num_vcs > 12 {
            // The SoA fabric packs the flattened (port, vc) occupancy into a
            // 64-bit mask per router: 5 ports × 12 VCs = 60 bits.
            return Err(SimError::InvalidConfig(
                "at most 12 VCs per port are supported".into(),
            ));
        }
        if self.vc_depth > usize::from(u16::MAX) {
            // The fabric counts downstream credits in u16: a deeper buffer
            // would truncate (65536 -> 0 credits, a silently wedged run).
            return Err(SimError::InvalidConfig(format!(
                "VC depth {} exceeds the supported maximum of {} flits",
                self.vc_depth,
                u16::MAX
            )));
        }
        if self.packet_len == 0 {
            return Err(SimError::InvalidConfig(
                "packet length must be positive".into(),
            ));
        }
        if self.kind == TopologyKind::Torus && self.num_vcs < 2 {
            return Err(SimError::InvalidConfig(
                "torus requires >= 2 VCs for the dateline partition".into(),
            ));
        }
        if !self.routing.supports(self.kind) {
            return Err(SimError::InvalidConfig(format!(
                "routing {:?} unsupported on {:?}",
                self.routing, self.kind
            )));
        }
        let topo = self.topology();
        self.traffic.validate(&topo)?;
        self.fault_plan.validate(&topo)?;
        if self.regions_x == 0
            || self.regions_y == 0
            || self.regions_x > self.width
            || self.regions_y > self.height
        {
            return Err(SimError::InvalidConfig(format!(
                "invalid region grid {}x{}",
                self.regions_x, self.regions_y
            )));
        }
        if self.partitions == 0 || self.partitions > self.width * self.height {
            return Err(SimError::InvalidConfig(format!(
                "partitions must be in 1..={} (one tile needs at least one router), got {}",
                self.width * self.height,
                self.partitions
            )));
        }
        for t in &self.throttles {
            if t.region >= self.regions_x * self.regions_y {
                return Err(SimError::RegionOutOfRange {
                    region: t.region,
                    regions: self.regions_x * self.regions_y,
                });
            }
            if t.level >= self.vf_table.num_levels() {
                return Err(SimError::VfLevelOutOfRange {
                    level: t.level,
                    levels: self.vf_table.num_levels(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn builder_methods_chain() {
        let c = SimConfig::default()
            .with_size(4, 4)
            .with_traffic(TrafficPattern::Transpose, 0.2)
            .with_routing(RoutingAlgorithm::OddEven)
            .with_regions(2, 2)
            .with_vcs(2, 8)
            .with_packet_len(3)
            .with_seed(99);
        assert!(c.validate().is_ok());
        assert_eq!(c.width, 4);
        assert_eq!(c.num_vcs, 2);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SimConfig::default().with_size(0, 4).validate().is_err());
        assert!(SimConfig::default().with_vcs(0, 4).validate().is_err());
        // Credits are u16 per output VC: 65535 fits, 65536 would truncate.
        assert!(SimConfig::default().with_vcs(4, 65_535).validate().is_ok());
        let err = SimConfig::default().with_vcs(4, 65_536).validate();
        assert!(
            matches!(&err, Err(SimError::InvalidConfig(m)) if m.contains("VC depth 65536")),
            "{err:?}"
        );
        assert!(SimConfig::default().with_packet_len(0).validate().is_err());
        assert!(SimConfig::default().with_regions(16, 1).validate().is_err());
        // Transpose on a rectangle.
        assert!(SimConfig::default()
            .with_size(8, 4)
            .with_traffic(TrafficPattern::Transpose, 0.1)
            .validate()
            .is_err());
        // Torus routing on mesh.
        assert!(SimConfig::default()
            .with_routing(RoutingAlgorithm::TorusDor)
            .validate()
            .is_err());
    }

    /// `validate` only: no 256x256 fabric is built.
    #[test]
    fn router_count_is_bounded_by_the_flit_node_fields() {
        assert!(SimConfig::default().with_size(256, 256).validate().is_ok());
        for (w, h) in [(65_537, 1), (257, 256), (usize::MAX, 2)] {
            let err = SimConfig::default().with_size(w, h).validate();
            assert!(
                matches!(&err, Err(SimError::InvalidConfig(m))
                    if m.contains("exceeds the supported maximum of 65536 routers")),
                "{w}x{h}: {err:?}"
            );
        }
    }

    #[test]
    fn torus_needs_two_vcs() {
        let c = SimConfig::default()
            .with_vcs(1, 4)
            .with_routing(RoutingAlgorithm::TorusDor)
            .with_topology(TopologyKind::Torus);
        assert!(c.validate().is_err());
        let c = SimConfig::default()
            .with_routing(RoutingAlgorithm::TorusDor)
            .with_topology(TopologyKind::Torus);
        assert!(c.validate().is_ok());
        // The adaptive torus algorithm is torus-only too.
        let c = SimConfig::default()
            .with_routing(RoutingAlgorithm::TorusMinAdaptive)
            .with_topology(TopologyKind::Torus);
        assert!(c.validate().is_ok());
        assert!(SimConfig::default()
            .with_routing(RoutingAlgorithm::TorusMinAdaptive)
            .validate()
            .is_err());
    }

    #[test]
    fn throttle_validation() {
        use crate::dvfs::ThrottleEvent;
        let ok = SimConfig::default().with_throttles(vec![ThrottleEvent {
            start: 0,
            duration: 100,
            region: 0,
            level: 0,
        }]);
        assert!(ok.validate().is_ok());
        let bad_region = SimConfig::default().with_throttles(vec![ThrottleEvent {
            start: 0,
            duration: 100,
            region: 99,
            level: 0,
        }]);
        assert!(bad_region.validate().is_err());
        let bad_level = SimConfig::default().with_throttles(vec![ThrottleEvent {
            start: 0,
            duration: 100,
            region: 0,
            level: 99,
        }]);
        assert!(bad_level.validate().is_err());
    }

    #[test]
    fn fault_plan_validation() {
        use crate::fault::{FaultEvent, FaultPlan, FaultTarget};
        use crate::topology::{NodeId, Port};
        let plan = |node, port| {
            FaultPlan::new(vec![FaultEvent {
                start: 0,
                duration: None,
                target: FaultTarget::Link {
                    node: NodeId(node),
                    port,
                },
            }])
            .unwrap()
        };
        assert!(SimConfig::default()
            .with_faults(plan(0, Port::East))
            .validate()
            .is_ok());
        // Node 0 of an 8x8 mesh has no west neighbor.
        assert!(SimConfig::default()
            .with_faults(plan(0, Port::West))
            .validate()
            .is_err());
        assert!(SimConfig::default()
            .with_faults(plan(999, Port::East))
            .validate()
            .is_err());
    }

    #[test]
    fn config_serializes_roundtrip() {
        let c = SimConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn partitions_validation() {
        assert!(SimConfig::default().with_partitions(0).validate().is_err());
        assert!(SimConfig::default().with_partitions(64).validate().is_ok());
        assert!(SimConfig::default().with_partitions(65).validate().is_err());
        assert_eq!(SimConfig::default().partitions, 1);
    }

    #[test]
    fn switch_arb_names_round_trip() {
        for arb in [SwitchArb::PerFlit, SwitchArb::PerPacket] {
            assert_eq!(SwitchArb::parse(arb.name()).unwrap(), arb);
        }
        assert!(SwitchArb::parse("wormhole").is_err());
        assert_eq!(SwitchArb::default(), SwitchArb::PerFlit);
    }

    #[test]
    fn switch_arb_defaults_on_old_configs() {
        // Configs serialized before the knob existed deserialize to the
        // legacy per-flit mode.
        let json = serde_json::to_string(&SimConfig::default()).unwrap();
        let pruned = json.replace("\"switch_arb\":\"PerFlit\",", "");
        assert_ne!(json, pruned, "the knob must serialize explicitly");
        let back: SimConfig = serde_json::from_str(&pruned).unwrap();
        assert_eq!(back.switch_arb, SwitchArb::PerFlit);
        assert_eq!(back, SimConfig::default());
        // And the builder round-trips the wormhole mode.
        let c = SimConfig::default().with_switch_arb(SwitchArb::PerPacket);
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.switch_arb, SwitchArb::PerPacket);
    }

    #[test]
    fn partitions_default_on_old_configs() {
        // Configs serialized before the knob existed must deserialize to a
        // serial step, not to an invalid zero.
        let json = serde_json::to_string(&SimConfig::default()).unwrap();
        let pruned = json.replace("\"partitions\":1,", "");
        assert_ne!(json, pruned, "the knob must serialize explicitly");
        let back: SimConfig = serde_json::from_str(&pruned).unwrap();
        assert_eq!(back.partitions, 1);
        assert_eq!(back, SimConfig::default());
    }
}
