//! State encoding: turn per-epoch NoC telemetry into the observation vector
//! the agent consumes.
//!
//! Per region: normalized buffer occupancy, observed injection rate, and the
//! current V/F level. Globally: normalized latency, accepted throughput,
//! source-queue backlog, injection burstiness (index of dispersion of the
//! offered process, so the controller can observe workload shifts and
//! bursty phases), and fabric degradation (mean dead links, so it can react
//! to faults). All features are scaled into `[0, 1]` so one MLP
//! architecture works across mesh sizes and loads.

use noc_sim::{SimConfig, SimResult, WindowMetrics};
use serde::{Deserialize, Serialize};

/// Encodes epoch telemetry into a fixed-size feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateEncoder {
    num_regions: usize,
    num_levels: usize,
    num_nodes: usize,
    /// Buffer capacity per region (normalizer for occupancy).
    region_capacity: Vec<usize>,
    /// Nodes per region (normalizer for injection rate).
    region_nodes: Vec<usize>,
    /// Latency (cycles) mapped to feature value 0.5; twice this saturates
    /// the feature at 1.0.
    pub latency_scale: f64,
    /// Backlog (flits per node) mapped to feature value 1.0.
    pub backlog_scale: f64,
    /// Mean directed dead links mapped to feature value 1.0 (degraded-fabric
    /// signal; policies saved before fault support default to 8.0).
    #[serde(default = "default_fault_scale")]
    pub fault_scale: f64,
    /// Injection burstiness (index of dispersion of block-aggregated offered
    /// packets) mapped to feature value 1.0. Bernoulli traffic sits near
    /// `1/burst_scale`; bursty on/off phases push toward saturation.
    /// Policies saved before workload support default to 8.0.
    #[serde(default = "default_burst_scale")]
    pub burst_scale: f64,
}

fn default_fault_scale() -> f64 {
    8.0
}

fn default_burst_scale() -> f64 {
    8.0
}

impl StateEncoder {
    /// Build an encoder for a network with the given region layout.
    ///
    /// # Panics
    /// Panics if region vectors are empty or of mismatched length.
    pub fn new(
        region_capacity: Vec<usize>,
        region_nodes: Vec<usize>,
        num_levels: usize,
        num_nodes: usize,
    ) -> Self {
        assert!(!region_capacity.is_empty(), "need at least one region");
        assert_eq!(
            region_capacity.len(),
            region_nodes.len(),
            "region vectors must align"
        );
        assert!(
            num_levels > 0 && num_nodes > 0,
            "levels and nodes must be positive"
        );
        StateEncoder {
            num_regions: region_capacity.len(),
            num_levels,
            num_nodes,
            region_capacity,
            region_nodes,
            latency_scale: 60.0,
            backlog_scale: 20.0,
            fault_scale: default_fault_scale(),
            burst_scale: default_burst_scale(),
        }
    }

    /// The encoder for `sim`'s fabric: its region shape
    /// ([`SimConfig::region_shape`]), V/F levels and node count.
    ///
    /// # Errors
    /// Returns `sim`'s first violated constraint.
    pub fn for_sim(sim: &SimConfig) -> SimResult<Self> {
        let shape = sim.region_shape()?;
        Ok(StateEncoder::new(
            shape.capacity,
            shape.nodes,
            sim.vf_table.num_levels(),
            sim.width * sim.height,
        ))
    }

    /// Number of regions this encoder covers.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// Dimensionality of the produced observation: `3·regions + 5`.
    pub fn state_dim(&self) -> usize {
        3 * self.num_regions + 5
    }

    /// Encode one epoch.
    ///
    /// # Panics
    /// Panics if `levels.len() != num_regions` or the metrics were collected
    /// with a different region count.
    pub fn encode(&self, metrics: &WindowMetrics, levels: &[usize]) -> Vec<f32> {
        assert_eq!(
            levels.len(),
            self.num_regions,
            "level vector length mismatch"
        );
        assert_eq!(
            metrics.region_occupancy.len(),
            self.num_regions,
            "metrics region count mismatch"
        );
        let mut out = Vec::with_capacity(self.state_dim());
        let cycles = metrics.cycles.max(1) as f64;
        for (((&occ_raw, &inj_raw), (&cap, &nodes)), &level) in metrics
            .region_occupancy
            .iter()
            .zip(&metrics.region_injected_flits)
            .zip(self.region_capacity.iter().zip(&self.region_nodes))
            .zip(levels)
        {
            let occ = occ_raw / cap.max(1) as f64;
            out.push(occ.clamp(0.0, 1.0) as f32);
            let inj = inj_raw as f64 / (cycles * nodes.max(1) as f64);
            out.push(inj.clamp(0.0, 1.0) as f32);
            let lvl = if self.num_levels > 1 {
                level as f64 / (self.num_levels - 1) as f64
            } else {
                1.0
            };
            out.push(lvl as f32);
        }
        // Global latency: 0.5 at latency_scale, saturating at 2×; when no
        // packet completed this epoch, pessimistic if traffic is in flight.
        let lat = if metrics.latency_samples > 0 {
            (metrics.avg_packet_latency / (2.0 * self.latency_scale)).clamp(0.0, 1.0)
        } else if metrics.avg_occupancy > 0.5 {
            1.0
        } else {
            0.0
        };
        out.push(lat as f32);
        out.push(metrics.throughput.clamp(0.0, 1.0) as f32);
        let backlog = metrics.avg_backlog / (self.num_nodes as f64 * self.backlog_scale);
        out.push(backlog.clamp(0.0, 1.0) as f32);
        // Injection burstiness: the workload-shift observable. Memoryless
        // traffic reads low; bursty/pulsed phases push toward 1.
        let burst = metrics.injection_burstiness / self.burst_scale;
        out.push(burst.clamp(0.0, 1.0) as f32);
        // Fabric degradation: 0 on a healthy mesh, saturating at
        // `fault_scale` mean dead links.
        let faults = metrics.avg_dead_links / self.fault_scale;
        out.push(faults.clamp(0.0, 1.0) as f32);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(regions: usize) -> WindowMetrics {
        WindowMetrics {
            cycles: 100,
            offered_packets: 32,
            injection_burstiness: 0.0,
            phase_cycles: vec![100],
            phase_offered_packets: vec![32],
            injected_flits: 160,
            injected_packets: 32,
            ejected_flits: 150,
            ejected_packets: 30,
            dropped_flits: 0,
            dropped_packets: 0,
            avg_dead_links: 0.0,
            latency_samples: 30,
            avg_packet_latency: 30.0,
            avg_network_latency: 25.0,
            avg_hops: 4.0,
            throughput: 0.15,
            injection_rate: 0.16,
            energy_pj: 1000.0,
            dynamic_pj: 700.0,
            leakage_pj: 300.0,
            avg_occupancy: 12.0,
            region_occupancy: vec![3.0; regions],
            region_injected_flits: vec![40; regions],
            avg_backlog: 8.0,
        }
    }

    fn encoder() -> StateEncoder {
        StateEncoder::new(vec![320; 4], vec![16; 4], 4, 64)
    }

    #[test]
    fn state_dim_matches_layout() {
        let e = encoder();
        assert_eq!(e.state_dim(), 17);
        let s = e.encode(&metrics(4), &[0, 1, 2, 3]);
        assert_eq!(s.len(), 17);
    }

    #[test]
    fn burstiness_feature_tracks_workload_dispersion() {
        let e = encoder();
        let mut m = metrics(4);
        let s = e.encode(&m, &[0; 4]);
        // Burstiness sits just before the fault feature.
        assert_eq!(s[15], 0.0, "smooth traffic reads zero");
        m.injection_burstiness = 4.0; // scale 8 -> 0.5
        let s = e.encode(&m, &[0; 4]);
        assert!((s[15] - 0.5).abs() < 1e-6);
        m.injection_burstiness = 1e9;
        let s = e.encode(&m, &[0; 4]);
        assert_eq!(s[15], 1.0, "feature saturates");
    }

    #[test]
    fn fault_feature_tracks_dead_links() {
        let e = encoder();
        let mut m = metrics(4);
        let s = e.encode(&m, &[0; 4]);
        assert_eq!(*s.last().unwrap(), 0.0, "healthy fabric reads zero");
        m.avg_dead_links = 4.0; // scale 8 -> 0.5
        let s = e.encode(&m, &[0; 4]);
        assert!((s.last().unwrap() - 0.5).abs() < 1e-6);
        m.avg_dead_links = 1e9;
        let s = e.encode(&m, &[0; 4]);
        assert_eq!(*s.last().unwrap(), 1.0, "feature saturates");
    }

    #[test]
    fn features_are_bounded() {
        let e = encoder();
        let mut m = metrics(4);
        m.avg_packet_latency = 1e9;
        m.avg_backlog = 1e9;
        m.throughput = 5.0;
        m.region_occupancy = vec![1e9; 4];
        m.region_injected_flits = vec![u64::MAX / 2; 4];
        let s = e.encode(&m, &[3, 3, 3, 3]);
        assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)), "{s:?}");
    }

    #[test]
    fn level_feature_is_normalized() {
        let e = encoder();
        let s = e.encode(&metrics(4), &[0, 1, 2, 3]);
        // Level features sit at indices 2, 5, 8, 11.
        assert_eq!(s[2], 0.0);
        assert!((s[5] - 1.0 / 3.0).abs() < 1e-6);
        assert!((s[8] - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(s[11], 1.0);
    }

    #[test]
    fn occupancy_and_rate_normalization() {
        let e = encoder();
        let s = e.encode(&metrics(4), &[0; 4]);
        // occ = 3/320; inj = 40/(100*16) = 0.025.
        assert!((s[0] - 3.0 / 320.0).abs() < 1e-6);
        assert!((s[1] - 0.025).abs() < 1e-6);
        // latency 30 with scale 60 → 30/120 = 0.25.
        assert!((s[12] - 0.25).abs() < 1e-6);
        assert!((s[13] - 0.15).abs() < 1e-6);
    }

    #[test]
    fn missing_latency_is_pessimistic_under_load() {
        let e = encoder();
        let mut m = metrics(4);
        m.latency_samples = 0;
        m.avg_occupancy = 50.0;
        let s = e.encode(&m, &[0; 4]);
        assert_eq!(s[12], 1.0, "stalled traffic reads as worst-case latency");
        m.avg_occupancy = 0.0;
        let s = e.encode(&m, &[0; 4]);
        assert_eq!(s[12], 0.0, "idle network reads as zero latency");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_level_count_panics() {
        let e = encoder();
        let _ = e.encode(&metrics(4), &[0; 3]);
    }
}
