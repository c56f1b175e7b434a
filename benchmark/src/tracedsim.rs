//! `noc_sim::Simulator`, rebuilt from its public parts with a clock read
//! between them.
//!
//! The traced pass cannot see inside `Simulator::step`, so it re-assembles
//! the same loop — `TrafficGenerator::tick` → `StatsCollector::
//! record_cycle_offered` → `Network::offer` → `Network::step` — and
//! `run_classic` on top of it, statement for statement. The correctness
//! gate compares the output digest of this loop with the plain
//! `Simulator`'s on every traced run, which is what shows the two are the
//! same program.

use crate::trace::Trace;
use noc_sim::{
    Network, RunSummary, SimConfig, SimResult, StatsCollector, StatsSnapshot, TrafficGenerator,
    WindowMetrics,
};
use std::time::{Duration, Instant};

/// Summed time and call count of one phase of the cycle loop since the
/// last [`TracedSim::flush`].
#[derive(Debug, Default, Clone, Copy)]
struct Phase {
    busy: Duration,
    calls: u64,
}

/// A simulator instance whose cycle loop is timed phase by phase.
#[derive(Debug)]
pub struct TracedSim {
    config: SimConfig,
    network: Network,
    traffic: TrafficGenerator,
    stats: StatsCollector,
    tick: Phase,
    offer: Phase,
    step: Phase,
    window: Phase,
    first: Option<Instant>,
    /// Packets the traffic generator produced.
    pub packets: u64,
    /// Cycles `run_classic` spent draining.
    pub drain_cycles: u64,
}

impl TracedSim {
    /// Mirrors `Simulator::new`.
    pub fn new(config: SimConfig) -> SimResult<Self> {
        let network = Network::new(&config)?;
        let traffic = TrafficGenerator::new(
            network.topology(),
            config.traffic.clone(),
            config.packet_len,
            config.seed,
        )?;
        let stats = StatsCollector::new(network.regions().num_regions());
        Ok(TracedSim {
            config,
            network,
            traffic,
            stats,
            tick: Phase::default(),
            offer: Phase::default(),
            step: Phase::default(),
            window: Phase::default(),
            first: None,
            packets: 0,
            drain_cycles: 0,
        })
    }

    pub fn cycle(&self) -> u64 {
        self.network.cycle()
    }

    pub fn num_nodes(&self) -> usize {
        self.network.topology().num_nodes()
    }

    pub fn stats(&self) -> &StatsCollector {
        &self.stats
    }

    pub fn set_all_levels(&mut self, level: usize) -> SimResult<()> {
        self.network.set_all_levels(level)
    }

    /// Mirrors `Simulator::step`. The offered-count bookkeeping is timed
    /// with the tick it belongs to.
    pub fn step(&mut self) {
        let t0 = Instant::now();
        self.first.get_or_insert(t0);
        let t = self.network.cycle();
        let topo = self.network.topology().clone();
        let packets = self.traffic.tick(&topo, t);
        self.packets += packets.len() as u64;
        self.stats
            .record_cycle_offered(self.traffic.current_phase(), packets.len() as u64);
        let t1 = Instant::now();
        self.network.offer(packets, &mut self.stats);
        let t2 = Instant::now();
        self.network.step(&mut self.stats);
        let t3 = Instant::now();
        for (phase, from, to) in [
            (&mut self.tick, t0, t1),
            (&mut self.offer, t1, t2),
            (&mut self.step, t2, t3),
        ] {
            phase.busy += to - from;
            phase.calls += 1;
        }
    }

    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    fn snapshot(&mut self) -> StatsSnapshot {
        let t0 = Instant::now();
        self.first.get_or_insert(t0);
        let snap = self.stats.snapshot();
        self.window.busy += t0.elapsed();
        self.window.calls += 1;
        snap
    }

    fn between(&mut self, a: &StatsSnapshot, b: &StatsSnapshot) -> WindowMetrics {
        let t0 = Instant::now();
        let m = WindowMetrics::between(a, b, self.num_nodes());
        self.window.busy += t0.elapsed();
        m
    }

    /// Mirrors `Simulator::run_classic`.
    pub fn run_classic(&mut self, warmup: u64, measure: u64, drain_max: u64) -> RunSummary {
        self.run(warmup);
        let t0 = self.cycle();
        self.stats.set_latency_window(t0, t0 + measure);
        let backlog_at_start = self.network.backlog();
        let before = self.snapshot();
        self.run(measure);
        let backlog_at_end = self.network.backlog();
        let after_measure = self.snapshot();
        let measured = self.between(&before, &after_measure);
        for _ in 0..drain_max {
            if self.network.in_flight() == 0 {
                break;
            }
            self.step();
            self.drain_cycles += 1;
        }
        let after_drain = self.snapshot();
        let mut window = self.between(&before, &after_drain);
        window.cycles = measured.cycles;
        window.throughput = measured.throughput;
        window.injection_rate = measured.injection_rate;
        window.avg_occupancy = measured.avg_occupancy;
        window.region_occupancy = measured.region_occupancy.clone();
        window.avg_backlog = measured.avg_backlog;
        let mean_packet_len = self
            .config
            .traffic
            .workload()
            .map_or(f64::from(self.config.packet_len), |w| {
                w.mean_len_flits(self.config.packet_len)
            });
        let growth = backlog_at_end as f64 - backlog_at_start as f64;
        let saturated = growth > mean_packet_len * self.num_nodes() as f64;
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

    /// Forget the phase times accumulated so far (warm-up cycles are not
    /// layer time).
    pub fn discard(&mut self) {
        self.flush(&mut Trace::new());
    }

    /// Seconds spent in `Network::step` since the last flush or discard.
    pub fn step_busy_s(&self) -> f64 {
        self.step.busy.as_secs_f64()
    }

    /// Record the phase times accumulated since the last flush as
    /// aggregated children of `trace`'s innermost open span.
    pub fn flush(&mut self, trace: &mut Trace) {
        let Some(first) = self.first.take() else {
            return;
        };
        let last = Instant::now();
        for (name, phase) in [
            ("noc-sim.traffic.tick", &mut self.tick),
            ("noc-sim.network.offer", &mut self.offer),
            ("noc-sim.network.step", &mut self.step),
            ("noc-sim.stats.window", &mut self.window),
        ] {
            if phase.calls > 0 {
                trace.aggregate(name, first, last, phase.busy, phase.calls);
            }
            *phase = Phase::default();
        }
    }
}
