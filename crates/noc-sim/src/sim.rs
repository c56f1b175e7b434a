//! The simulation driver: couples a [`Network`] with a [`TrafficGenerator`]
//! and a [`StatsCollector`], and provides the two execution modes the
//! evaluation uses:
//!
//! * [`Simulator::run_epoch`] — run a fixed control epoch and return its
//!   [`WindowMetrics`]; this is the interface the self-configuration agent
//!   drives.
//! * [`Simulator::run_classic`] — the textbook warmup / measure / drain
//!   methodology used for latency-vs-injection-rate curves.

use crate::config::SimConfig;
use crate::error::SimResult;
use crate::network::Network;
use crate::routing::RoutingAlgorithm;
use crate::stats::{StatsCollector, WindowMetrics};
use crate::traffic::{TrafficGenerator, TrafficSpec};
use serde::{Deserialize, Serialize};

/// Outcome of a classic warmup/measure/drain run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Metrics of the measurement window (latency restricted to packets
    /// created inside it; the drain phase lets those packets finish).
    pub window: WindowMetrics,
    /// Packets neither delivered nor dropped within the drain budget
    /// (exact: fully-injected packets minus terminal packets; packets still
    /// mid-injection in a source queue are not counted).
    pub unfinished_packets: u64,
    /// Whether the run is considered saturated: source backlog kept growing
    /// through the measurement window.
    pub saturated: bool,
}

/// A complete simulation instance.
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    network: Network,
    traffic: TrafficGenerator,
    stats: StatsCollector,
}

impl Simulator {
    /// Build a simulator from a configuration.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid.
    pub fn new(config: SimConfig) -> SimResult<Self> {
        let network = Network::new(&config)?;
        let traffic = TrafficGenerator::new(
            network.topology(),
            config.traffic.clone(),
            config.packet_len,
            config.seed,
        )?;
        let stats = StatsCollector::new(network.regions().num_regions());
        Ok(Simulator {
            config,
            network,
            traffic,
            stats,
        })
    }

    /// The configuration this simulator was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The network (for occupancy/level inspection).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Force the cycle loop to step every router every cycle, disabling the
    /// active-router worklist (see [`Network::set_step_all`]). Results must
    /// be byte-identical either way; the differential tests pin that.
    pub fn set_step_all(&mut self, step_all: bool) {
        self.network.set_step_all(step_all);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &StatsCollector {
        &self.stats
    }

    /// Current global cycle.
    pub fn cycle(&self) -> u64 {
        self.network.cycle()
    }

    /// Mean packet length in flits of the configured traffic: the workload's
    /// cycle-weighted [`crate::traffic::LengthSpec`] mean, with the global
    /// `packet_len` standing in for phases without a length axis (and for
    /// trace-driven traffic, whose lengths the trace itself carries).
    fn mean_packet_len(&self) -> f64 {
        self.config
            .traffic
            .workload()
            .map_or(f64::from(self.config.packet_len), |w| {
                w.mean_len_flits(self.config.packet_len)
            })
    }

    /// Set one DVFS region's V/F level.
    ///
    /// # Errors
    /// Returns an error for out-of-range indices.
    pub fn set_region_level(&mut self, region: usize, level: usize) -> SimResult<()> {
        self.network.set_region_level(region, level)
    }

    /// Set every region's V/F level.
    ///
    /// # Errors
    /// Returns an error for an out-of-range level.
    pub fn set_all_levels(&mut self, level: usize) -> SimResult<()> {
        self.network.set_all_levels(level)
    }

    /// Current per-region levels.
    pub fn region_levels(&self) -> &[usize] {
        self.network.region_levels()
    }

    /// Switch the routing algorithm at runtime.
    ///
    /// # Errors
    /// Returns an error if the algorithm does not support the topology.
    pub fn set_routing(&mut self, routing: RoutingAlgorithm) -> SimResult<()> {
        self.network.set_routing(routing)
    }

    /// Replace the traffic specification at runtime.
    ///
    /// # Errors
    /// Returns an error if the spec is invalid for the topology.
    pub fn set_traffic(&mut self, spec: TrafficSpec) -> SimResult<()> {
        self.traffic.set_spec(self.network.topology(), spec)
    }

    /// Advance one cycle: generate traffic, then step the network. The
    /// offered-packet count and the workload phase in force are recorded so
    /// window metrics can report burstiness and per-phase buckets.
    pub fn step(&mut self) {
        let t = self.network.cycle();
        let packets = self.traffic.tick(self.network.topology(), t);
        self.stats
            .record_cycle_offered(self.traffic.current_phase(), packets.len() as u64);
        self.network.offer(packets, &mut self.stats);
        self.network.step(&mut self.stats);
    }

    /// Run `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Run one control epoch of `cycles` cycles and return its metrics.
    pub fn run_epoch(&mut self, cycles: u64) -> WindowMetrics {
        let before = self.stats.snapshot();
        self.run(cycles);
        let after = self.stats.snapshot();
        WindowMetrics::between(&before, &after, self.network.topology().num_nodes())
    }

    /// Classic methodology: warm up for `warmup` cycles, measure for
    /// `measure` cycles (only packets created in the window count toward
    /// latency), then drain for up to `drain_max` extra cycles so windowed
    /// packets can finish.
    pub fn run_classic(&mut self, warmup: u64, measure: u64, drain_max: u64) -> RunSummary {
        self.run(warmup);
        let t0 = self.cycle();
        self.stats.set_latency_window(t0, t0 + measure);
        let backlog_at_start = self.network.backlog();
        let before = self.stats.snapshot();
        self.run(measure);
        let backlog_at_end = self.network.backlog();
        let after_measure = self.stats.snapshot();
        let nodes = self.network.topology().num_nodes();
        // Offered load during the window, to compare against acceptance.
        let measured = WindowMetrics::between(&before, &after_measure, nodes);

        // Drain: stop offering *new* measurement credit (window is already
        // bounded) and let in-flight windowed packets finish.
        for _ in 0..drain_max {
            if self.network.in_flight() == 0 {
                break;
            }
            self.step();
        }
        let after_drain = self.stats.snapshot();
        let mut window = WindowMetrics::between(&before, &after_drain, nodes);
        // Rate/throughput figures must come from the measurement window, not
        // the drain tail.
        window.cycles = measured.cycles;
        window.throughput = measured.throughput;
        window.injection_rate = measured.injection_rate;
        window.avg_occupancy = measured.avg_occupancy;
        window.region_occupancy = measured.region_occupancy.clone();
        window.avg_backlog = measured.avg_backlog;

        // Saturation heuristic: backlog (a flit count) grew by more than one
        // packet per node over the window, where "one packet" is the
        // workload's mean length — a `len8` phase is allowed 8x the flit
        // growth a single-flit one is.
        let growth = backlog_at_end as f64 - backlog_at_start as f64;
        let saturated = growth > self.mean_packet_len() * nodes as f64;
        // Dropped packets (fault handling) are terminal, not unfinished. The
        // drop counter can also cover packets that never fully injected
        // (dead-source or purged mid-injection packets), so saturate rather
        // than underflow. Packet counters, not flits/packet_len: variable
        // lengths make the flit quotient meaningless.
        let unfinished = window
            .injected_packets
            .saturating_sub(window.ejected_packets)
            .saturating_sub(window.dropped_packets);
        RunSummary {
            window,
            unfinished_packets: unfinished,
            saturated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;

    fn sim(rate: f64) -> Simulator {
        Simulator::new(
            SimConfig::default()
                .with_size(4, 4)
                .with_traffic(TrafficPattern::Uniform, rate)
                .with_regions(2, 2),
        )
        .unwrap()
    }

    #[test]
    fn light_load_has_low_latency() {
        let mut s = sim(0.05);
        let summary = s.run_classic(1000, 3000, 3000);
        assert!(!summary.saturated);
        assert!(
            summary.window.latency_samples > 50,
            "should complete many packets"
        );
        // Zero-load latency on a 4x4 mesh is ~10-20 cycles; light load should
        // stay well under 60.
        assert!(
            summary.window.avg_packet_latency < 60.0,
            "latency {} too high for light load",
            summary.window.avg_packet_latency
        );
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let mut s = sim(0.10);
        let summary = s.run_classic(1000, 4000, 4000);
        assert!(!summary.saturated);
        let err = (summary.window.throughput - 0.10).abs() / 0.10;
        assert!(
            err < 0.15,
            "throughput {} should track offered 0.10",
            summary.window.throughput
        );
    }

    #[test]
    fn heavy_load_saturates() {
        let mut s = sim(0.95);
        let summary = s.run_classic(500, 2000, 500);
        assert!(
            summary.saturated,
            "0.95 flits/node/cycle must saturate a 4x4 mesh"
        );
    }

    #[test]
    fn latency_increases_with_load() {
        let lat = |rate| {
            let mut s = sim(rate);
            s.run_classic(1000, 3000, 3000).window.avg_packet_latency
        };
        let low = lat(0.02);
        let high = lat(0.30);
        assert!(
            high > low,
            "latency must grow with load: low={low}, high={high}"
        );
    }

    #[test]
    fn epoch_metrics_accumulate() {
        let mut s = sim(0.1);
        let m1 = s.run_epoch(500);
        assert_eq!(m1.cycles, 500);
        assert!(m1.injected_flits > 0);
        let m2 = s.run_epoch(500);
        assert_eq!(s.cycle(), 1000);
        assert!(m2.injected_flits > 0);
    }

    #[test]
    fn runtime_reconfiguration_applies() {
        let mut s = sim(0.1);
        s.set_all_levels(0).unwrap();
        assert_eq!(s.region_levels(), &[0, 0, 0, 0]);
        s.set_region_level(1, 3).unwrap();
        assert_eq!(s.region_levels(), &[0, 3, 0, 0]);
        s.set_routing(RoutingAlgorithm::OddEven).unwrap();
        s.set_traffic(TrafficSpec::stationary(TrafficPattern::Transpose, 0.2))
            .unwrap();
        s.run(100);
        assert!(s.stats().injected_flits > 0);
    }

    #[test]
    fn epoch_metrics_carry_phase_buckets_and_burstiness() {
        use crate::traffic::{InjectionProcess, WorkloadPhase, WorkloadSpec};
        let spec = TrafficSpec::Workload(WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.05, 300),
            WorkloadPhase::new(
                TrafficPattern::Uniform,
                InjectionProcess::Bursty {
                    rate_on: 0.4,
                    switch: 0.02,
                },
                300,
            ),
        ]));
        let mut s = Simulator::new(
            SimConfig::default()
                .with_size(4, 4)
                .with_regions(2, 2)
                .with_traffic_spec(spec),
        )
        .unwrap();
        let m = s.run_epoch(600);
        assert_eq!(m.phase_cycles, vec![300, 300]);
        assert_eq!(
            m.phase_offered_packets.iter().sum::<u64>(),
            m.offered_packets
        );
        assert!(
            m.phase_offered_packets[1] > m.phase_offered_packets[0],
            "the bursty phase offers ~4x the load: {:?}",
            m.phase_offered_packets
        );
        // The second epoch repeats the schedule and sees both phases again.
        let m2 = s.run_epoch(600);
        assert_eq!(m2.phase_cycles, vec![300, 300]);
        // Bursty traffic reads as burstier than a pure-Bernoulli epoch.
        let mut bern = Simulator::new(
            SimConfig::default()
                .with_size(4, 4)
                .with_regions(2, 2)
                .with_traffic(TrafficPattern::Uniform, 0.12),
        )
        .unwrap();
        let mb = bern.run_epoch(600);
        assert!(
            m.injection_burstiness > 1.5 * mb.injection_burstiness,
            "bursty {} vs bernoulli {}",
            m.injection_burstiness,
            mb.injection_burstiness
        );
    }

    #[test]
    fn variable_length_run_drains_with_exact_packet_accounting() {
        use crate::traffic::{LengthSpec, WorkloadPhase, WorkloadSpec};
        // One phase drawing lengths uniformly in 1..=8: the injected flit
        // count is no multiple of the nominal packet_len, so the old
        // `flits / packet_len` quotient would misreport unfinished packets.
        let spec = TrafficSpec::Workload(WorkloadSpec::new(vec![WorkloadPhase::bernoulli(
            TrafficPattern::Uniform,
            0.06,
            0,
        )
        .with_length(LengthSpec::Uniform { min: 1, max: 8 })]));
        let mut s = Simulator::new(
            SimConfig::default()
                .with_size(4, 4)
                .with_regions(2, 2)
                .with_traffic_spec(spec),
        )
        .unwrap();
        let summary = s.run_classic(500, 2000, 20_000);
        assert!(!summary.saturated, "0.06 flits/node/cycle is light load");
        assert_eq!(
            summary.unfinished_packets, 0,
            "light load must drain fully under variable lengths"
        );
        assert!(summary.window.injected_packets > 0);
        let st = s.stats();
        assert_eq!(st.dropped_flits, 0);
        assert!(st.injected_packets > 0);
        assert_ne!(
            st.injected_flits,
            st.injected_packets * u64::from(s.config().packet_len),
            "lengths must actually vary (not all equal to packet_len)"
        );
        // Exact packet balance after a full drain: every injected packet
        // either ejected or (here, faultlessly) none dropped.
        assert_eq!(st.injected_packets, st.ejected_packets);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = sim(0.15);
            s.run(2000);
            (
                s.stats().injected_flits,
                s.stats().ejected_flits,
                s.stats().sum_packet_latency,
            )
        };
        assert_eq!(run(), run(), "same seed must reproduce identical runs");
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut s = Simulator::new(
                SimConfig::default()
                    .with_size(4, 4)
                    .with_traffic(TrafficPattern::Uniform, 0.15)
                    .with_seed(seed),
            )
            .unwrap();
            s.run(1000);
            s.stats().injected_flits
        };
        assert_ne!(run(1), run(2));
    }
}
