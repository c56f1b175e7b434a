//! `fabric_big` and `fabric_sparse`: one mesh stepped on one thread through
//! `Simulator::run` — the cycle core at its two extremes.

use super::{digest, Plain, Scale, Traced, Values, Workload};
use crate::trace::Trace;
use crate::tracedsim::TracedSim;
use noc_sim::{SimConfig, Simulator, StatsCollector, TrafficPattern};
use std::time::Instant;

struct Fabric {
    config: SimConfig,
    /// Cycles run before timing starts, so the fabric is loaded.
    warmup: u64,
    /// Timed cycles, in `slices` operations of `slice` cycles each; every
    /// slice is a timed unit of about 2.5 ms.
    slices: u64,
    slice: u64,
    /// Also measure `Network::step` at `partitions = 2` in the traced pass.
    tiled: bool,
    reference: String,
}

fn setup(fabric: Fabric) -> Result<Box<dyn Workload>, String> {
    let mut w = fabric;
    w.reference = w.repeat()?.digest;
    Ok(Box::new(w))
}

/// 32x32 at 0.1 flits/node/cycle: a working set far beyond cache.
pub fn setup_big(seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    setup(Fabric {
        config: SimConfig::default()
            .with_size(32, 32)
            .with_traffic(TrafficPattern::Uniform, 0.1)
            .with_seed(seed),
        warmup: scale.of(300, 20),
        slices: scale.of(150, 4),
        slice: 5,
        tiled: true,
        reference: String::new(),
    })
}

/// 16x16 at 0.01 flits/node/cycle: almost every router idle.
pub fn setup_sparse(seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    setup(Fabric {
        config: SimConfig::default()
            .with_size(16, 16)
            .with_traffic(TrafficPattern::Uniform, 0.005)
            .with_seed(seed),
        warmup: 500,
        slices: scale.of(150, 4),
        slice: 500,
        tiled: false,
        reference: String::new(),
    })
}

fn stats_digest(stats: &StatsCollector) -> Result<String, String> {
    let json = serde_json::to_string(&stats.snapshot()).map_err(|e| e.to_string())?;
    Ok(digest(json.as_bytes()))
}

impl Fabric {
    /// Summed `Network::step` seconds of the timed cycles at two partitions.
    fn tiled_step_s(&self, trace: &mut Trace) -> Result<f64, String> {
        let span = trace.begin("noc-sim.sim.tiled_pass");
        let mut sim =
            TracedSim::new(self.config.clone().with_partitions(2)).map_err(|e| e.to_string())?;
        sim.run(self.warmup);
        sim.discard();
        sim.run(self.slices * self.slice);
        trace.end(span);
        Ok(sim.step_busy_s())
    }
}

impl Workload for Fabric {
    fn ops(&self) -> u64 {
        self.slices
    }

    fn reference(&self) -> &str {
        &self.reference
    }

    fn repeat(&mut self) -> Result<Plain, String> {
        let mut sim = Simulator::new(self.config.clone()).map_err(|e| e.to_string())?;
        sim.run(self.warmup);
        let mut unit_s = Vec::with_capacity(self.slices as usize);
        for _ in 0..self.slices {
            let t0 = Instant::now();
            sim.run(self.slice);
            unit_s.push(t0.elapsed().as_secs_f64());
        }
        Ok(Plain {
            unit_s,
            digest: stats_digest(sim.stats())?,
            failed: 0,
        })
    }

    fn repeat_traced(&mut self, trace: &mut Trace) -> Result<Traced, String> {
        let mut sim = trace
            .span("noc-sim.sim.new", || TracedSim::new(self.config.clone()))
            .map_err(|e| e.to_string())?;
        let warm = trace.begin("noc-sim.sim.warmup");
        sim.run(self.warmup);
        sim.discard();
        trace.end(warm);
        let before = sim.stats().clone();
        let (cycle0, packets0) = (sim.cycle(), sim.packets);

        let mut unit_s = Vec::with_capacity(self.slices as usize);
        let first_span = trace.spans().len();
        for _ in 0..self.slices {
            let span = trace.begin("noc-sim.sim.run");
            sim.run(self.slice);
            sim.flush(trace);
            trace.end(span);
            unit_s.push(trace.spans()[span].busy_ns as f64 / 1e9);
        }
        let op_ms = unit_s.iter().map(|s| s * 1e3).collect();

        let after = sim.stats();
        let cycles = sim.cycle() - cycle0;
        let mut values = Values::new();
        values.insert("noc-sim.network.cycles", cycles as f64);
        values.insert(
            "noc-sim.network.router_cycles",
            (cycles * sim.num_nodes() as u64) as f64,
        );
        values.insert("noc-sim.traffic.packets", (sim.packets - packets0) as f64);
        values.insert(
            "noc-sim.stats.ejected_flits",
            (after.ejected_flits - before.ejected_flits) as f64,
        );
        values.insert(
            "noc-sim.stats.injected_packets",
            (after.injected_packets - before.injected_packets) as f64,
        );
        values.insert(
            "noc-sim.stats.dropped_packets",
            (after.dropped_packets - before.dropped_packets) as f64,
        );
        values.insert(
            "noc-sim.stats.latency_cycles_mean",
            after.avg_packet_latency(),
        );
        values.insert("noc-sim.stats.energy_pj", after.energy.total_pj());
        let digest = stats_digest(after)?;
        if self.tiled {
            let step_s = trace.spans()[first_span..]
                .iter()
                .filter(|s| s.name == "noc-sim.network.step")
                .map(|s| s.busy_ns as f64 / 1e9)
                .sum::<f64>();
            let tiled_s = self.tiled_step_s(trace)?;
            values.insert("noc-sim.network.tiled_step_s", tiled_s);
            // Share of the two-tile step that perfect halving would not need.
            values.insert(
                "noc-sim.network.tile_overhead_share",
                (tiled_s - step_s / 2.0) / tiled_s,
            );
        }
        Ok(Traced {
            plain: Plain {
                unit_s,
                digest,
                failed: 0,
            },
            op_ms,
            values,
        })
    }
}
