//! `sweep_cold`: a 40-scenario grid through `SweepGrid::run` and the
//! JSON render, no cache — what `noc-cli sweep-grid --threads 1` does.

use super::{digest, Plain, Scale, Traced, Values, Workload};
use crate::trace::Trace;
use crate::tracedsim::TracedSim;
use noc_selfconf::{parallel_map, Scenario, ScenarioResult, SweepGrid};
use noc_sim::{RoutingAlgorithm, SimConfig, SimResult, TrafficPattern};
use std::time::Instant;

/// Worker threads of the sweep and of the daemon. One, not the box's two:
/// a unit is only as fast as its slowest thread, two threads are seldom
/// both undisturbed for a whole unit, and over 120 s the fastest unit per
/// 15 s spread 0.15 on two threads against 0.04 on one.
pub const THREADS: usize = 1;

/// Threads of the extra traced pass that measures `parallel_map`'s balance.
const PAR_THREADS: usize = 2;

/// G40: 2 sizes × 5 patterns × 2 rates × 2 routings, seeded from `seed`.
/// Two rates, and 25 warm-up, 100 measured and at most 100 drain cycles a
/// scenario, keep one run of the grid near 50 ms: short enough to be a
/// timed unit.
pub fn g40(seed: u64, scale: Scale) -> SweepGrid {
    SweepGrid {
        base: SimConfig::default(),
        sizes: vec![(4, 4), (8, 8)],
        patterns: vec![
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::Tornado,
            TrafficPattern::Shuffle,
            TrafficPattern::BitComplement,
        ],
        rates: vec![0.05, 0.20],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        partitions: 1,
        warmup: scale.of(25, 5),
        measure: scale.of(100, 20),
        drain: scale.of(100, 20),
        base_seed: seed,
        ..SweepGrid::default()
    }
}

/// What one traced scenario hands back to the thread that joins it.
struct TracedScenario {
    result: ScenarioResult,
    trace: Trace,
    cycles: u64,
    router_cycles: u64,
    packets: u64,
    drain_cycles: u64,
}

/// `SweepGrid::run_scenario`, on the rebuilt simulator.
fn run_scenario_traced(
    grid: &SweepGrid,
    scenario: &Scenario,
    parent: &Trace,
) -> SimResult<TracedScenario> {
    let mut trace = parent.fork();
    let span = trace.begin("noc_selfconf.sweep.scenario");
    let mut sim = trace.span("noc-sim.sim.new", || {
        TracedSim::new(scenario.config.clone())
    })?;
    if let Some(level) = scenario.level {
        sim.set_all_levels(level)?;
    }
    let classic = trace.begin("noc-sim.sim.run_classic");
    let summary = sim.run_classic(grid.warmup, grid.measure, grid.drain);
    sim.flush(&mut trace);
    trace.end(classic);
    trace.end(span);
    Ok(TracedScenario {
        result: ScenarioResult {
            index: scenario.index,
            label: scenario.label.clone(),
            seed: scenario.config.seed,
            saturated: summary.saturated,
            unfinished_packets: summary.unfinished_packets,
            metrics: summary.window,
        },
        trace,
        cycles: sim.cycle(),
        router_cycles: sim.cycle() * sim.num_nodes() as u64,
        packets: sim.packets,
        drain_cycles: sim.drain_cycles,
    })
}

/// `SweepGrid::run(threads)` + render, rebuilt from its public parts with
/// spans. Returns the report JSON, per-scenario host milliseconds, and the
/// layer values.
pub fn run_traced(
    grid: &SweepGrid,
    threads: usize,
    trace: &mut Trace,
) -> Result<(String, Vec<f64>, Values), String> {
    let scenarios = trace.span("noc_selfconf.sweep.expand", || {
        let scenarios = grid.scenarios();
        grid.validate().map(|()| scenarios)
    });
    let scenarios = scenarios.map_err(|e| e.to_string())?;
    let par = trace.begin("noc_selfconf.par.parallel_map");
    let shared: &Trace = trace;
    let outcomes = parallel_map(scenarios.len(), threads, |i| {
        run_scenario_traced(grid, &scenarios[i], shared)
    });
    trace.end(par);
    let par_span = trace.spans()[par].clone();

    let mut values = Values::new();
    let mut results = Vec::with_capacity(outcomes.len());
    let mut op_ms = Vec::with_capacity(outcomes.len());
    let mut scenario_ns = 0u64;
    // Last scenario end per worker thread, for the idle tail.
    let mut last_end: std::collections::BTreeMap<u32, u64> = Default::default();
    let (mut cycles, mut router_cycles, mut packets, mut drain) = (0, 0, 0, 0);
    for outcome in outcomes {
        let s = outcome.map_err(|e| e.to_string())?;
        let span = &s.trace.spans()[0];
        op_ms.push(span.busy_ns as f64 / 1e6);
        scenario_ns += span.busy_ns;
        let end = last_end.entry(span.thread).or_insert(0);
        *end = (*end).max(span.end_ns);
        cycles += s.cycles;
        router_cycles += s.router_cycles;
        packets += s.packets;
        drain += s.drain_cycles;
        results.push(s.result);
        trace.join(s.trace, Some(par));
    }
    let workers = last_end.len().max(1);
    values.insert(
        "noc_selfconf.par.worker_busy_share",
        scenario_ns as f64 / (workers as u64 * par_span.busy_ns) as f64,
    );
    values.insert(
        "noc_selfconf.par.tail_idle_s",
        last_end
            .values()
            .map(|end| par_span.end_ns.saturating_sub(*end))
            .sum::<u64>() as f64
            / 1e9,
    );
    let report = trace.span("noc_selfconf.sweep.report", || {
        grid.report_from_results(results, threads)
    });
    let json = trace.span("noc_selfconf.sweep.render", || {
        serde_json::to_string_pretty(&report)
    });
    let json = json.map_err(|e| e.to_string())?;

    values.insert(
        "noc_selfconf.sweep.scenarios",
        report.scenarios.len() as f64,
    );
    values.insert("noc_selfconf.sweep.report_bytes", json.len() as f64);
    values.insert("noc-sim.network.cycles", cycles as f64);
    values.insert("noc-sim.network.router_cycles", router_cycles as f64);
    values.insert("noc-sim.traffic.packets", packets as f64);
    values.insert("noc-sim.sim.drain_cycles", drain as f64);
    let sum = |f: fn(&ScenarioResult) -> u64| report.scenarios.iter().map(f).sum::<u64>() as f64;
    values.insert(
        "noc-sim.stats.ejected_flits",
        sum(|r| r.metrics.ejected_flits),
    );
    values.insert(
        "noc-sim.stats.injected_packets",
        sum(|r| r.metrics.injected_packets),
    );
    values.insert(
        "noc-sim.stats.dropped_packets",
        sum(|r| r.metrics.dropped_packets),
    );
    values.insert(
        "noc-sim.stats.latency_cycles_mean",
        report.aggregate.avg_packet_latency,
    );
    values.insert("noc-sim.stats.energy_pj", report.aggregate.total_energy_pj);
    Ok((json, op_ms, values))
}

struct SweepCold {
    grid: SweepGrid,
    reference: String,
}

pub fn setup(seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    let mut w = SweepCold {
        grid: g40(seed, scale),
        reference: String::new(),
    };
    w.reference = w.repeat()?.digest;
    Ok(Box::new(w))
}

impl Workload for SweepCold {
    fn ops(&self) -> u64 {
        self.grid.len() as u64
    }

    fn reference(&self) -> &str {
        &self.reference
    }

    fn repeat(&mut self) -> Result<Plain, String> {
        let t0 = Instant::now();
        let report = self.grid.run(THREADS).map_err(|e| e.to_string())?;
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        Ok(Plain {
            unit_s: vec![t0.elapsed().as_secs_f64()],
            digest: digest(json.as_bytes()),
            failed: 0,
        })
    }

    fn repeat_traced(&mut self, trace: &mut Trace) -> Result<Traced, String> {
        let t0 = Instant::now();
        let (json, op_ms, mut values) = run_traced(&self.grid, THREADS, trace)?;
        let unit_s = vec![t0.elapsed().as_secs_f64()];
        // How evenly `parallel_map` loads two workers, from a pass of its
        // own whose spans stay out of the trace: the timed pass runs one.
        let span = trace.begin("noc_selfconf.par.two_thread_pass");
        let (_, _, par) = run_traced(&self.grid, PAR_THREADS, &mut trace.fork())?;
        trace.end(span);
        for name in [
            "noc_selfconf.par.worker_busy_share",
            "noc_selfconf.par.tail_idle_s",
        ] {
            values.insert(name, par[name]);
        }
        Ok(Traced {
            plain: Plain {
                unit_s,
                digest: digest(json.as_bytes()),
                failed: 0,
            },
            op_ms,
            values,
        })
    }
}
