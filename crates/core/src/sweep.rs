//! Parallel scenario-sweep engine.
//!
//! The ROADMAP's scale goal needs one command that answers "how does the
//! NoC behave across *many* operating points?" — this module provides it.
//! A [`SweepGrid`] is the cartesian product of grid sizes, topology kinds
//! (mesh and torus — each routing is mapped to its counterpart on the
//! other family, so one `routings` axis covers both), traffic points,
//! routing algorithms, (optionally) pinned DVFS levels, and
//! link-fault counts (seeded-random permanent faults, so degraded-fabric
//! operation sweeps alongside everything else). Traffic points come from
//! two axes: the classic `patterns` × `rates` product (single-phase
//! Bernoulli workloads) and the `workloads` list of explicit
//! [`WorkloadSpec`]s (bursty, pulsed, phase-changing), labeled with the
//! canonical workload grammar so report keys parse back to their specs.
//! [`SweepGrid::run`] fans the scenarios out over a pool of
//! OS threads, runs each through the classic warmup/measure/drain
//! methodology, and folds every [`WindowMetrics`] into a single
//! [`SweepReport`].
//!
//! Determinism is a hard guarantee, not a best effort:
//!
//! * each scenario derives its own RNG seed from the grid's `base_seed`
//!   and the scenario's *index* via a SplitMix64 mix, so results do not
//!   depend on which thread picks up which scenario;
//! * results are written into their index slot, so report order is the
//!   grid order regardless of completion order;
//! * consequently `run` (any thread count) and [`SweepGrid::run_serial`]
//!   produce identical reports, and serializing a report twice yields
//!   byte-identical JSON. The sweep tests pin all three properties.
//!
//! ```no_run
//! use noc_selfconf::sweep::SweepGrid;
//!
//! # fn main() -> Result<(), noc_sim::SimError> {
//! let report = SweepGrid::default().run(4)?;
//! println!("{} scenarios, peak throughput {:.3} at {}",
//!     report.aggregate.num_scenarios,
//!     report.aggregate.peak_throughput,
//!     report.aggregate.peak_throughput_scenario);
//! # Ok(())
//! # }
//! ```

use crate::par::parallel_map;
use noc_sim::{
    FaultPlan, RoutingAlgorithm, RunSummary, SimConfig, SimError, SimResult, Simulator,
    TopologyKind, TrafficPattern, WindowMetrics, WorkloadSpec,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A cartesian grid of simulation scenarios.
///
/// Every axis is a list; the grid is the product of all of them, in
/// row-major order with `sizes` slowest and `levels` fastest. The `base`
/// config supplies everything the axes do not override (VC shape, packet
/// length, power model, DVFS regions, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepGrid {
    /// Template configuration for every scenario.
    pub base: SimConfig,
    /// Grid dimensions to sweep, as `(width, height)`.
    pub sizes: Vec<(usize, usize)>,
    /// Topology kinds to sweep. Non-mesh scenarios carry a `/t:<kind>`
    /// label segment; every listed routing is mapped to its counterpart on
    /// each kind via [`RoutingAlgorithm::for_topology`] (deduplicated), so
    /// one `routings` axis stays meaningful across a mixed mesh-and-torus
    /// grid. Defaults to `[Mesh]` — the value old serialized grids
    /// deserialize to, leaving them byte-identical.
    #[serde(default = "default_topology_axis")]
    pub topologies: Vec<TopologyKind>,
    /// Traffic patterns to sweep.
    pub patterns: Vec<TrafficPattern>,
    /// Injection rates to sweep, in flits/node/cycle.
    pub rates: Vec<f64>,
    /// Routing algorithms to sweep.
    pub routings: Vec<RoutingAlgorithm>,
    /// Pinned uniform DVFS levels to sweep (`None` = leave the base
    /// config's levels untouched).
    pub levels: Vec<Option<usize>>,
    /// Fault axis: numbers of seeded-random permanent link faults to sweep
    /// (`0` = pristine fabric). Each faulted scenario draws its fault set
    /// deterministically from the scenario seed, so reports stay
    /// byte-identical across reruns and thread counts.
    #[serde(default = "default_fault_axis")]
    pub faults: Vec<usize>,
    /// Explicit workload specs swept alongside the `patterns` × `rates`
    /// points (which remain single-phase Bernoulli workloads). Each entry
    /// is one extra traffic point per size/routing/level/fault combination,
    /// labeled with its canonical [`WorkloadSpec::label`]. Empty (the
    /// default, and the value old serialized grids deserialize to) leaves
    /// the grid exactly as before.
    #[serde(default)]
    pub workloads: Vec<WorkloadSpec>,
    /// Ignored. Each scenario steps on one thread; the field is kept, never
    /// serialized and never read, so code that still sets it compiles and
    /// every report byte stays what it was. Deserialized grids get its
    /// zero default.
    #[serde(skip)]
    pub partitions: usize,
    /// Warmup cycles before the measurement window.
    pub warmup: u64,
    /// Measurement-window cycles.
    pub measure: u64,
    /// Maximum drain cycles after the window.
    pub drain: u64,
    /// Root seed; each scenario's seed is mixed from this and its index.
    pub base_seed: u64,
}

impl Default for SweepGrid {
    /// A 2×2×2 grid (8 scenarios): 4×4 and 8×8 meshes, uniform and
    /// transpose traffic, two rates, XY routing — small enough to finish
    /// in seconds, broad enough to show latency/energy trends.
    fn default() -> Self {
        SweepGrid {
            base: SimConfig::default(),
            sizes: vec![(4, 4), (8, 8)],
            topologies: default_topology_axis(),
            patterns: vec![TrafficPattern::Uniform, TrafficPattern::Transpose],
            rates: vec![0.05, 0.10],
            routings: vec![RoutingAlgorithm::Xy],
            levels: vec![None],
            faults: default_fault_axis(),
            workloads: Vec::new(),
            partitions: 1,
            warmup: 500,
            measure: 2000,
            drain: 2000,
            base_seed: 1,
        }
    }
}

/// The default fault axis: a single pristine-fabric point.
fn default_fault_axis() -> Vec<usize> {
    vec![0]
}

/// The default topology axis: meshes only, as every pre-axis grid was.
fn default_topology_axis() -> Vec<TopologyKind> {
    vec![TopologyKind::Mesh]
}

/// One fully resolved point of the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Position in grid order (also the seed-mix input).
    pub index: usize,
    /// Human-readable identity, e.g. `8x8/transpose/r0.1/xy`.
    pub label: String,
    /// Pinned uniform DVFS level, if any.
    pub level: Option<usize>,
    /// The resolved simulator configuration (seed already mixed).
    pub config: SimConfig,
}

/// Measured outcome of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Grid position.
    pub index: usize,
    /// Scenario identity (same format as [`Scenario::label`]).
    pub label: String,
    /// Seed the scenario ran with.
    pub seed: u64,
    /// Whether the source queues kept growing through the window.
    pub saturated: bool,
    /// Latency samples that never finished within the drain budget.
    pub unfinished_packets: u64,
    /// The measurement-window metrics.
    pub metrics: WindowMetrics,
}

/// Cross-scenario summary statistics.
///
/// Latency figures skip saturated scenarios (their latency is unbounded
/// and would poison the mean); counts record how much was skipped so the
/// aggregate can't silently hide a saturated grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepAggregate {
    /// Total scenarios run.
    pub num_scenarios: usize,
    /// Scenarios that saturated.
    pub saturated_scenarios: usize,
    /// Mean of `avg_packet_latency` over non-saturated scenarios with
    /// latency samples.
    #[serde(with = "noc_sim::stats::serde_nan")]
    pub avg_packet_latency: f64,
    /// Lowest scenario latency (cycles).
    #[serde(with = "noc_sim::stats::serde_nan")]
    pub min_latency: f64,
    /// Scenario achieving `min_latency`.
    pub min_latency_scenario: String,
    /// Highest non-saturated scenario latency (cycles).
    #[serde(with = "noc_sim::stats::serde_nan")]
    pub max_latency: f64,
    /// Scenario achieving `max_latency`.
    pub max_latency_scenario: String,
    /// Highest accepted throughput (flits/node/cycle) over all scenarios.
    pub peak_throughput: f64,
    /// Scenario achieving `peak_throughput`.
    pub peak_throughput_scenario: String,
    /// Total energy over all measurement windows (pJ).
    pub total_energy_pj: f64,
    /// Lowest energy-delay product (`avg_packet_latency · energy_pj`)
    /// among non-saturated scenarios.
    #[serde(with = "noc_sim::stats::serde_nan")]
    pub best_edp: f64,
    /// Scenario achieving `best_edp`.
    pub best_edp_scenario: String,
}

/// The single serialized artifact a sweep produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// The grid that was run (full provenance for the results).
    pub grid: SweepGrid,
    /// Thread count the sweep ran with. Not serialized: results are
    /// independent of it, and keeping it out of the report preserves
    /// byte-identity between parallel and serial runs.
    #[serde(skip)]
    pub threads: usize,
    /// Per-scenario outcomes, in grid order.
    pub scenarios: Vec<ScenarioResult>,
    /// Cross-scenario summary.
    pub aggregate: SweepAggregate,
}

/// SplitMix64 finalizer: decorrelates per-scenario seeds drawn from
/// consecutive indices.
pub(crate) fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's one seeded fault draw: `count` permanent link faults
/// drawn uniformly over `config`'s topology (`0` = the empty plan), salted
/// off `config.seed` so the draw is decorrelated from traffic yet fully
/// reproducible. The sweep fault axis, [`crate::zoo::ScenarioFamily::apply`]
/// and `noc-cli run --faults` all draw through here, so
/// `run --seed <ScenarioResult.seed> --faults N` reproduces a sweep
/// scenario's fault plan.
pub fn seeded_link_faults(config: &SimConfig, count: usize) -> FaultPlan {
    FaultPlan::random_links(
        &config.topology(),
        count,
        mix_seed(config.seed, 0xFA),
        0,
        None,
    )
}

impl SweepGrid {
    /// The grid's traffic points, in axis order: the `patterns` × `rates`
    /// product (pattern-major, as single-phase Bernoulli workloads labeled
    /// `<pattern>/r<rate>`), then the explicit `workloads` (labeled with the
    /// canonical workload grammar).
    fn traffic_points(&self) -> Vec<(String, WorkloadSpec)> {
        let mut points =
            Vec::with_capacity(self.patterns.len() * self.rates.len() + self.workloads.len());
        for pattern in &self.patterns {
            for &rate in &self.rates {
                // Full-precision rate (f64 Display is the shortest
                // round-trip form), so close rates never collide into one
                // label.
                points.push((
                    format!("{pattern}/r{rate}"),
                    WorkloadSpec::bernoulli(pattern.clone(), rate),
                ));
            }
        }
        for workload in &self.workloads {
            points.push((workload.label(), workload.clone()));
        }
        points
    }

    /// The routing algorithms the grid actually runs on `kind`: every entry
    /// of `routings` mapped through [`RoutingAlgorithm::for_topology`],
    /// deduplicated preserving first occurrence (two mesh algorithms may
    /// share one torus counterpart).
    fn routings_for(&self, kind: TopologyKind) -> Vec<RoutingAlgorithm> {
        let mut out = Vec::with_capacity(self.routings.len());
        for &r in &self.routings {
            let eff = r.for_topology(kind);
            if !out.contains(&eff) {
                out.push(eff);
            }
        }
        out
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        let routing_points: usize = self
            .topologies
            .iter()
            .map(|&t| self.routings_for(t).len())
            .sum();
        self.sizes.len()
            * (self.patterns.len() * self.rates.len() + self.workloads.len())
            * routing_points
            * self.levels.len()
            * self.faults.len()
    }

    /// Whether the grid is empty (no traffic point or another axis empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the grid into its scenario list, in grid order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        let mut index = 0;
        let traffic_points = self.traffic_points();
        for &(w, h) in &self.sizes {
            for &kind in &self.topologies {
                let routings = self.routings_for(kind);
                for (traffic_label, workload) in &traffic_points {
                    for &routing in &routings {
                        for &level in &self.levels {
                            for &faults in &self.faults {
                                let seed = mix_seed(self.base_seed, index as u64);
                                let mut config = self
                                    .base
                                    .clone()
                                    .with_size(w, h)
                                    .with_topology(kind)
                                    .with_workload(workload.clone())
                                    .with_routing(routing)
                                    .with_seed(seed);
                                if faults > 0 {
                                    let plan = seeded_link_faults(&config, faults);
                                    config = config.with_faults(plan);
                                }
                                let mut label =
                                    format!("{w}x{h}/{traffic_label}/{}", routing.name());
                                if kind != TopologyKind::Mesh {
                                    let _ = write!(label, "/t:{}", kind.name());
                                }
                                if let Some(l) = level {
                                    let _ = write!(label, "/L{l}");
                                }
                                if faults > 0 {
                                    let _ = write!(label, "/f{faults}");
                                }
                                out.push(Scenario {
                                    index,
                                    label,
                                    level,
                                    config,
                                });
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Check every scenario before any simulation runs, so a grid with an
    /// invalid point fails in microseconds instead of after the valid
    /// scenarios have burned their full simulation budgets.
    ///
    /// # Errors
    /// Returns the first (in grid order) invalid scenario, with its label.
    pub fn validate(&self) -> SimResult<()> {
        self.validate_scenarios(&self.scenarios())
    }

    pub(crate) fn validate_scenarios(&self, scenarios: &[Scenario]) -> SimResult<()> {
        let num_levels = self.base.vf_table.num_levels();
        for scenario in scenarios {
            scenario.config.validate().map_err(|e| {
                // `InvalidConfig` prefixes its own Display; strip the inner
                // copy so the wrapped message reads cleanly.
                let msg = e.to_string();
                let msg = msg.strip_prefix("invalid configuration: ").unwrap_or(&msg);
                SimError::InvalidConfig(format!("scenario {}: {msg}", scenario.label))
            })?;
            if let Some(level) = scenario.level {
                if level >= num_levels {
                    return Err(SimError::VfLevelOutOfRange {
                        level,
                        levels: num_levels,
                    });
                }
            }
        }
        Ok(())
    }

    /// Run one scenario to completion.
    ///
    /// Public so the serve layer can execute scenarios individually (each
    /// one behind its own cache-key lookup) while reusing the exact
    /// simulation path the batch runners take — the cached and uncached
    /// worlds stay byte-identical by construction.
    ///
    /// # Errors
    /// Returns the scenario's configuration error, if any.
    pub fn run_scenario(&self, scenario: &Scenario) -> SimResult<ScenarioResult> {
        let mut sim = Simulator::new(scenario.config.clone())?;
        if let Some(level) = scenario.level {
            sim.set_all_levels(level)?;
        }
        let RunSummary {
            window,
            unfinished_packets,
            saturated,
        } = sim.run_classic(self.warmup, self.measure, self.drain);
        Ok(ScenarioResult {
            index: scenario.index,
            label: scenario.label.clone(),
            seed: scenario.config.seed,
            saturated,
            unfinished_packets,
            metrics: window,
        })
    }

    /// Run the whole grid on `threads` OS threads.
    ///
    /// Results are identical for every `threads` value (including 1); see
    /// the module docs for why.
    ///
    /// # Errors
    /// Returns the first (in grid order) scenario configuration error.
    pub fn run(&self, threads: usize) -> SimResult<SweepReport> {
        let scenarios = self.scenarios();
        self.validate_scenarios(&scenarios)?;
        let results: SimResult<Vec<ScenarioResult>> = parallel_map(scenarios.len(), threads, |i| {
            self.run_scenario(&scenarios[i])
        })
        .into_iter()
        .collect();
        Ok(self.report(results?, threads.clamp(1, scenarios.len().max(1))))
    }

    /// Run the whole grid on the calling thread.
    ///
    /// # Errors
    /// Returns the first scenario configuration error.
    pub fn run_serial(&self) -> SimResult<SweepReport> {
        let scenarios = self.scenarios();
        self.validate_scenarios(&scenarios)?;
        let results: SimResult<Vec<ScenarioResult>> =
            scenarios.iter().map(|s| self.run_scenario(s)).collect();
        Ok(self.report(results?, 1))
    }

    /// Run the whole grid through `cache`, computing only the scenarios the
    /// cache cannot resolve, on `threads` OS threads.
    ///
    /// The report is byte-identical to [`SweepGrid::run`] on the same grid:
    /// cached results are the bytes a fresh run would have produced (the
    /// determinism contract), and the grid provenance embedded in the
    /// report is this grid's, not the one that populated the cache.
    ///
    /// # Errors
    /// Returns the first (in grid order) scenario configuration error.
    pub fn run_cached(
        &self,
        threads: usize,
        cache: &crate::serve::ResultCache,
    ) -> SimResult<SweepReport> {
        let scenarios = self.scenarios();
        self.validate_scenarios(&scenarios)?;
        let results: SimResult<Vec<ScenarioResult>> = parallel_map(scenarios.len(), threads, |i| {
            let scenario = &scenarios[i];
            let key =
                crate::serve::scenario_cache_key(scenario, self.warmup, self.measure, self.drain);
            cache
                .get_or_compute(&key, || self.run_scenario(scenario))
                .map(|(result, _)| result)
        })
        .into_iter()
        .collect();
        Ok(self.report(results?, threads.clamp(1, scenarios.len().max(1))))
    }

    /// Assemble a [`SweepReport`] from per-scenario results gathered
    /// elsewhere (the serve scheduler streams scenarios individually, then
    /// folds them through this to get the same report bytes a batch run
    /// emits). `scenarios` must be in grid order.
    pub fn report_from_results(
        &self,
        scenarios: Vec<ScenarioResult>,
        threads: usize,
    ) -> SweepReport {
        self.report(scenarios, threads)
    }

    fn report(&self, scenarios: Vec<ScenarioResult>, threads: usize) -> SweepReport {
        let aggregate = aggregate(&scenarios);
        SweepReport {
            grid: self.clone(),
            threads,
            scenarios,
            aggregate,
        }
    }
}

fn aggregate(results: &[ScenarioResult]) -> SweepAggregate {
    let mut agg = SweepAggregate {
        num_scenarios: results.len(),
        saturated_scenarios: results.iter().filter(|r| r.saturated).count(),
        avg_packet_latency: f64::NAN,
        min_latency: f64::NAN,
        min_latency_scenario: String::new(),
        max_latency: f64::NAN,
        max_latency_scenario: String::new(),
        peak_throughput: 0.0,
        peak_throughput_scenario: String::new(),
        total_energy_pj: results.iter().map(|r| r.metrics.energy_pj).sum(),
        best_edp: f64::NAN,
        best_edp_scenario: String::new(),
    };
    let mut latency_sum = 0.0;
    let mut latency_count = 0usize;
    for r in results {
        if r.metrics.throughput > agg.peak_throughput {
            agg.peak_throughput = r.metrics.throughput;
            agg.peak_throughput_scenario = r.label.clone();
        }
        let lat = r.metrics.avg_packet_latency;
        if r.saturated || !lat.is_finite() {
            continue;
        }
        latency_sum += lat;
        latency_count += 1;
        if agg.min_latency.is_nan() || lat < agg.min_latency {
            agg.min_latency = lat;
            agg.min_latency_scenario = r.label.clone();
        }
        if agg.max_latency.is_nan() || lat > agg.max_latency {
            agg.max_latency = lat;
            agg.max_latency_scenario = r.label.clone();
        }
        let edp = lat * r.metrics.energy_pj;
        if agg.best_edp.is_nan() || edp < agg.best_edp {
            agg.best_edp = edp;
            agg.best_edp_scenario = r.label.clone();
        }
    }
    if latency_count > 0 {
        agg.avg_packet_latency = latency_sum / latency_count as f64;
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_and_seed_mix_are_stable() {
        let grid = SweepGrid::default();
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 8);
        assert_eq!(scenarios.len(), grid.len());
        // Labels are unique and in row-major order.
        assert_eq!(scenarios[0].label, "4x4/uniform/r0.05/xy");
        assert_eq!(scenarios[7].label, "8x8/transpose/r0.1/xy");
        // Seeds differ across scenarios but are reproducible.
        let again = grid.scenarios();
        for (a, b) in scenarios.iter().zip(&again) {
            assert_eq!(a.config.seed, b.config.seed);
        }
        let mut seeds: Vec<u64> = scenarios.iter().map(|s| s.config.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "seed mix must not collide on small grids");
    }

    #[test]
    fn fault_axis_expands_and_labels_scenarios() {
        let grid = SweepGrid {
            sizes: vec![(4, 4)],
            patterns: vec![TrafficPattern::Uniform],
            rates: vec![0.05],
            routings: vec![RoutingAlgorithm::Xy],
            levels: vec![None],
            faults: vec![0, 2],
            ..SweepGrid::default()
        };
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(grid.len(), 2);
        assert_eq!(scenarios[0].label, "4x4/uniform/r0.05/xy");
        assert!(scenarios[0].config.fault_plan.is_empty());
        assert_eq!(scenarios[1].label, "4x4/uniform/r0.05/xy/f2");
        assert_eq!(scenarios[1].config.fault_plan.len(), 2);
        assert!(grid.validate().is_ok());
        // The fault draw is reproducible.
        assert_eq!(
            scenarios[1].config.fault_plan,
            grid.scenarios()[1].config.fault_plan
        );
    }

    #[test]
    fn workload_axis_expands_and_labels_scenarios() {
        use noc_sim::InjectionProcess;
        let bursty = WorkloadSpec::stationary(
            TrafficPattern::Uniform,
            InjectionProcess::Bursty {
                rate_on: 0.2,
                switch: 0.02,
            },
        );
        let phased = WorkloadSpec::new(vec![
            noc_sim::WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.05, 400),
            noc_sim::WorkloadPhase::bernoulli(TrafficPattern::Transpose, 0.2, 400),
        ]);
        let grid = SweepGrid {
            sizes: vec![(4, 4)],
            patterns: vec![TrafficPattern::Uniform],
            rates: vec![0.05],
            routings: vec![RoutingAlgorithm::Xy],
            levels: vec![None],
            faults: vec![0],
            workloads: vec![bursty.clone(), phased],
            ..SweepGrid::default()
        };
        assert_eq!(grid.len(), 3);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 3);
        // Pattern × rate points keep their pre-workload labels and order.
        assert_eq!(scenarios[0].label, "4x4/uniform/r0.05/xy");
        assert_eq!(scenarios[1].label, "4x4/ph[uniform:burst0.2x0.02]/xy");
        assert_eq!(
            scenarios[2].label,
            "4x4/ph[uniform:bern0.05@400|transpose:bern0.2@400]/xy"
        );
        // Report keys parse back to the specs that produced them — the
        // no-drift guarantee.
        let spec_of = |label: &str| {
            WorkloadSpec::parse(label.split('/').nth(1).unwrap()).expect("label parses")
        };
        assert_eq!(spec_of(&scenarios[1].label), bursty);
        assert_eq!(
            scenarios[1].config.traffic,
            noc_sim::TrafficSpec::Workload(bursty)
        );
        assert!(grid.validate().is_ok());
    }

    #[test]
    fn topology_axis_expands_and_labels_scenarios() {
        let grid = SweepGrid {
            sizes: vec![(4, 4)],
            topologies: vec![TopologyKind::Mesh, TopologyKind::Torus],
            patterns: vec![TrafficPattern::Uniform],
            rates: vec![0.05],
            routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
            levels: vec![None],
            faults: vec![0, 2],
            ..SweepGrid::default()
        };
        assert_eq!(grid.len(), 8, "2 topologies x 2 routings x 2 fault points");
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), grid.len());
        // Mesh points keep their pre-axis labels; torus points carry the
        // /t:torus segment and the mapped routing names.
        assert_eq!(scenarios[0].label, "4x4/uniform/r0.05/xy");
        assert_eq!(scenarios[2].label, "4x4/uniform/r0.05/oddeven");
        assert_eq!(scenarios[4].label, "4x4/uniform/r0.05/torusdor/t:torus");
        assert_eq!(scenarios[5].label, "4x4/uniform/r0.05/torusdor/t:torus/f2");
        assert_eq!(scenarios[6].label, "4x4/uniform/r0.05/torusmin/t:torus");
        for s in &scenarios[4..] {
            assert_eq!(s.config.kind, TopologyKind::Torus);
        }
        // Torus fault plans draw from the wrap-around link pool and
        // validate against the torus.
        assert_eq!(scenarios[5].config.fault_plan.len(), 2);
        assert!(grid.validate().is_ok());

        // Two deterministic mesh routings collapse onto one torus
        // counterpart — the torus side dedups instead of duplicating labels.
        let grid = SweepGrid {
            routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::Yx],
            faults: vec![0],
            ..grid
        };
        assert_eq!(grid.len(), 3, "xy + yx on mesh, torusdor once on torus");
        let labels: Vec<_> = grid.scenarios().into_iter().map(|s| s.label).collect();
        assert_eq!(
            labels,
            vec![
                "4x4/uniform/r0.05/xy",
                "4x4/uniform/r0.05/yx",
                "4x4/uniform/r0.05/torusdor/t:torus",
            ]
        );
    }

    #[test]
    fn table_routing_spans_both_topology_families() {
        // Table routing supports mesh and torus alike, so one `table` entry
        // on a mixed-topology grid yields one scenario per kind — no
        // for_topology remapping, no dedup collapse — and the label segment
        // round-trips through the routing name registry.
        let grid = SweepGrid {
            sizes: vec![(4, 4)],
            topologies: vec![TopologyKind::Mesh, TopologyKind::Torus],
            patterns: vec![TrafficPattern::Uniform],
            rates: vec![0.05],
            routings: vec![RoutingAlgorithm::Table],
            levels: vec![None],
            faults: vec![0],
            ..SweepGrid::default()
        };
        assert_eq!(grid.len(), 2);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios[0].label, "4x4/uniform/r0.05/table");
        assert_eq!(scenarios[1].label, "4x4/uniform/r0.05/table/t:torus");
        for s in &scenarios {
            assert_eq!(s.config.routing, RoutingAlgorithm::Table);
            let name = s.label.split('/').nth(3).unwrap();
            assert_eq!(
                RoutingAlgorithm::parse(name),
                Ok(RoutingAlgorithm::Table),
                "label segment `{name}` must parse back"
            );
        }
        assert!(grid.validate().is_ok());
    }

    #[test]
    fn legacy_grid_json_defaults_to_the_mesh_axis() {
        // A serialized pre-axis grid (no `topologies` field) must
        // deserialize to the mesh-only axis and expand identically.
        let grid = SweepGrid::default();
        let json = serde_json::to_string(&grid).unwrap();
        let stripped = json.replace("\"topologies\":[\"Mesh\"],", "");
        assert_ne!(json, stripped, "the field must have been present");
        let mut back: SweepGrid = serde_json::from_str(&stripped).unwrap();
        // `partitions` is never serialized (an ignored field); deserialized
        // grids carry its zero default. Normalize it before comparing the
        // semantic fields.
        assert_eq!(back.partitions, 0);
        back.partitions = grid.partitions;
        assert_eq!(back, grid);
        assert_eq!(back.topologies, vec![TopologyKind::Mesh]);
    }

    #[test]
    fn empty_axis_means_empty_grid() {
        let grid = SweepGrid {
            rates: vec![],
            ..SweepGrid::default()
        };
        assert!(grid.is_empty());
        assert_eq!(grid.scenarios().len(), 0);
        // A workloads-only grid (no pattern × rate points) is not empty.
        let grid = SweepGrid {
            patterns: vec![],
            rates: vec![],
            workloads: vec![WorkloadSpec::bernoulli(TrafficPattern::Uniform, 0.05)],
            ..SweepGrid::default()
        };
        assert!(!grid.is_empty());
        assert_eq!(grid.len(), 2, "two sizes x one workload");
    }
}
