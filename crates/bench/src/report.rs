//! Machine-readable performance tracking: the `noc-cli bench` subsystem.
//!
//! The ROADMAP's north star is a system that runs "as fast as the hardware
//! allows" — which is unfalsifiable without machine-readable perf history.
//! This module provides it:
//!
//! * [`run_suite`] executes a fixed set of timed workloads (cycle-level
//!   simulation on several mesh/pattern points plus torus and faulted-fabric
//!   scenarios, batched DQN training steps,
//!   full `NocEnv` control epochs, and a parallel sweep-grid fan-out),
//!   repeats each one `repeats` times, and records the **median** and
//!   **interquartile range** of the wall-clock cost plus derived rates
//!   (cycles/sec, flits/sec, steps/sec, ...).
//! * [`BenchReport`] serializes to a deterministic-schema JSON artifact,
//!   conventionally named `BENCH_<git-sha>.json`, so perf history can be
//!   diffed across commits.
//! * [`compare`] diffs two reports workload-by-workload and flags median
//!   regressions beyond a tolerance — the CI perf gate.
//!
//! Wall-clock numbers are inherently machine-dependent; reports record the
//! median of several repeats to tame scheduler noise. The CI gate applies a
//! **per-workload** tolerance when the baseline carries one (fast workloads
//! are noisier than slow ones, so a single global knob either lets slow
//! regressions through or flakes on fast points), falling back to a generous
//! global (30 %) tolerance otherwise. A baseline workload may additionally
//! carry an absolute `target_units_per_sec` floor — the candidate fails the
//! gate outright when it runs below it, regardless of relative deltas, which
//! is how the "8x8 uniform\@0.10 sustains ≥ 100k cycles/sec" promise is held.
//!
//! [`append_trajectory`] distils each gated run to one CSV line (sha, date,
//! headline cycles/sec) appended to `results/trajectory.csv`, giving a
//! commit-over-commit perf history that survives artifact expiry.

use noc_selfconf::{zoo, ActionSpace, NocEnv, NocEnvConfig, RewardConfig, SweepGrid};
use noc_sim::{
    FaultPlan, InjectionProcess, RoutingAlgorithm, SimConfig, Simulator, SwitchArb, TopologyKind,
    TrafficPattern, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{DqnAgent, DqnConfig, Environment, LearningAgent, Transition};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;

/// Version stamped into every report; bump on schema changes so `compare`
/// can refuse apples-to-oranges diffs.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Default regression tolerance of the CI gate: a workload regresses when
/// its median wall-clock grows by more than this fraction.
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// Budget knobs for one suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchSuiteConfig {
    /// Repeats per workload (median/IQR are taken over these).
    pub repeats: usize,
    /// Simulated cycles per simulator-workload repeat.
    pub sim_cycles: u64,
    /// Warmup cycles before a simulator workload is timed.
    pub sim_warmup: u64,
    /// DQN training steps per repeat.
    pub dqn_steps: usize,
    /// Batched Q-value evaluations per repeat.
    pub dqn_predicts: usize,
    /// `NocEnv` control epochs per repeat.
    pub env_epochs: usize,
    /// Measurement-window cycles of the sweep-grid workload.
    pub sweep_measure: u64,
}

impl BenchSuiteConfig {
    /// Paper-quality budgets (a few minutes).
    pub fn full() -> Self {
        BenchSuiteConfig {
            repeats: 7,
            sim_cycles: 20_000,
            sim_warmup: 500,
            dqn_steps: 300,
            dqn_predicts: 2_000,
            env_epochs: 10,
            sweep_measure: 1_000,
        }
    }

    /// Smoke budgets (a few seconds) — `noc-cli bench --quick` and CI.
    pub fn quick() -> Self {
        BenchSuiteConfig {
            repeats: 3,
            sim_cycles: 3_000,
            sim_warmup: 200,
            dqn_steps: 50,
            dqn_predicts: 300,
            env_epochs: 3,
            sweep_measure: 300,
        }
    }
}

/// One measured workload of the suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Stable identifier, e.g. `sim/8x8/uniform/r0.10` — the key `compare`
    /// matches on.
    pub name: String,
    /// Human-readable scenario metadata (mesh, pattern, budget, batch, ...).
    pub params: String,
    /// Number of timed repeats.
    pub repeats: usize,
    /// Median wall-clock per repeat, nanoseconds.
    pub median_ns: u64,
    /// Interquartile range of the repeat wall-clocks, nanoseconds.
    pub iqr_ns: u64,
    /// Work units executed per repeat.
    pub units: u64,
    /// What one unit is ("cycles", "train_steps", "epochs", ...).
    pub unit: String,
    /// Units per second at the median repeat.
    pub units_per_sec: f64,
    /// Flits delivered per second (simulator workloads only).
    pub flits_per_sec: Option<f64>,
    /// Per-workload regression tolerance. Set in curated baselines; when
    /// present it overrides the global `--tolerance` for this workload in
    /// [`compare`]. Fresh suite runs leave it unset.
    #[serde(default)]
    pub tolerance: Option<f64>,
    /// Absolute floor on the candidate's `units_per_sec`. Set in curated
    /// baselines; a candidate below the floor fails the gate even if its
    /// relative delta is within tolerance. Fresh suite runs leave it unset.
    #[serde(default)]
    pub target_units_per_sec: Option<f64>,
}

/// The serialized artifact: one suite run on one commit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Git commit the binary was built from (`unknown` outside a checkout).
    pub git_sha: String,
    /// Suite scale the run used (`quick` or `full`).
    pub mode: String,
    /// The budget knobs the run used.
    pub config: BenchSuiteConfig,
    /// Per-workload measurements, in fixed suite order.
    pub workloads: Vec<WorkloadResult>,
}

impl BenchReport {
    /// Conventional artifact file name for this report.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.git_sha)
    }

    /// Render a human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>10} {:>14} {:>14}",
            "workload", "median", "iqr", "rate", "flits/sec"
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>10} {:>14} {:>14}",
                w.name,
                fmt_ns(w.median_ns),
                fmt_ns(w.iqr_ns),
                format!("{:.0} {}/s", w.units_per_sec, short_unit(&w.unit)),
                w.flits_per_sec
                    .map_or_else(|| "—".to_string(), |f| format!("{f:.0}")),
            );
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn short_unit(unit: &str) -> &str {
    match unit {
        "cycles" => "cyc",
        "train_steps" => "step",
        "predict_batches" => "batch",
        "epochs" => "epoch",
        "scenarios" => "scen",
        other => other,
    }
}

/// Median and interquartile range of raw samples (in place sort).
pub fn median_iqr(samples: &mut [u64]) -> (u64, u64) {
    assert!(!samples.is_empty(), "median of an empty sample set");
    samples.sort_unstable();
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    };
    // Quartiles via floor-of-rank on the sorted samples — a coarse but
    // monotonic spread estimate that needs no interpolation; for n <= 2 the
    // IQR collapses to 0.
    let q1 = samples[(n - 1) / 4];
    let q3 = samples[(3 * (n - 1)) / 4];
    (median, q3.saturating_sub(q1))
}

/// Headline workloads distilled into the trajectory CSV, in column order:
/// the loaded and idle-heavy points at both tracked fabric sizes.
pub const TRAJECTORY_WORKLOADS: [&str; 4] = [
    "sim/8x8/uniform/r0.10",
    "sim/8x8/uniform/r0.01",
    "sim/16x16/uniform/r0.10",
    "sim/16x16/uniform/r0.01",
];

/// Header line of `trajectory.csv` (no trailing newline).
pub fn trajectory_header() -> String {
    let mut out = String::from("sha,date");
    for name in TRAJECTORY_WORKLOADS {
        let _ = write!(out, ",{name}");
    }
    out
}

/// One trajectory row for `report` (no trailing newline): commit sha, UTC
/// date, then cycles/sec for each headline workload (empty cell when the
/// report lacks the workload, so schema drift stays visible instead of
/// shifting columns).
pub fn trajectory_line(report: &BenchReport) -> String {
    let mut out = format!("{},{}", report.git_sha, utc_date_string());
    for name in TRAJECTORY_WORKLOADS {
        match report.workloads.iter().find(|w| w.name == name) {
            Some(w) => {
                let _ = write!(out, ",{:.0}", w.units_per_sec);
            }
            None => out.push(','),
        }
    }
    out
}

/// Append `report`'s trajectory row to the CSV at `path`, writing the
/// header first when the file is missing or empty.
///
/// # Errors
/// Propagates filesystem errors from opening or writing the file.
pub fn append_trajectory(report: &BenchReport, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let needs_header = std::fs::metadata(path).map_or(true, |m| m.len() == 0);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if needs_header {
        writeln!(file, "{}", trajectory_header())?;
    }
    writeln!(file, "{}", trajectory_line(report))
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock. Uses the
/// days-to-civil conversion of Hinnant's date algorithms; no external
/// time crate needed for a date stamp.
fn utc_date_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The git commit of the working tree, or `unknown`.
pub fn detect_git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl BenchReport {
    /// Run `body` `config.repeats` times and append the workload's row.
    /// The body times its own measured region (so per-repeat setup/warmup
    /// stays outside the sample) and returns `(elapsed_ns, units, flits)`;
    /// the row reports the median and IQR of the samples, with
    /// `units`/`flits` from the last repeat (workloads are deterministic,
    /// so every repeat does identical work).
    fn time<F>(&mut self, name: &str, params: String, unit: &str, mut body: F)
    where
        F: FnMut() -> (u64, u64, Option<u64>),
    {
        let repeats = self.config.repeats;
        let mut samples = Vec::with_capacity(repeats);
        let mut units = 0;
        let mut flits = None;
        for _ in 0..repeats {
            let (dt, u, f) = body();
            samples.push(dt.max(1)); // guard div-by-zero on sub-ns clocks
            units = u;
            flits = f;
        }
        let (median_ns, iqr_ns) = median_iqr(&mut samples);
        let secs = median_ns as f64 / 1e9;
        self.workloads.push(WorkloadResult {
            name: name.to_string(),
            params,
            repeats,
            median_ns,
            iqr_ns,
            units,
            unit: unit.to_string(),
            units_per_sec: units as f64 / secs,
            flits_per_sec: flits.map(|f| f as f64 / secs),
            tolerance: None,
            target_units_per_sec: None,
        });
    }
}

/// One cycle-level simulator workload of the suite (a row of
/// [`sim_points`]).
struct SimPoint {
    /// Stable workload identifier (`sim/...`).
    name: String,
    /// Scenario description; [`time_sim`] appends the cycle budgets.
    params: String,
    /// The simulated configuration.
    config: SimConfig,
}

/// The suite's simulator workloads, in report order.
fn sim_points() -> Vec<SimPoint> {
    use RoutingAlgorithm::{OddEven, Table, TorusDor, TorusMinAdaptive};
    use TrafficPattern::{Transpose, Uniform};
    let point = |name: &str, params: &str, config: SimConfig| SimPoint {
        name: name.to_string(),
        params: params.to_string(),
        config,
    };
    let mesh = |width: usize, pattern, rate: f64| {
        SimConfig::default()
            .with_size(width, width)
            .with_traffic(pattern, rate)
    };
    let uniform = |width, rate| mesh(width, Uniform, rate);
    let torus = |config: SimConfig, routing| {
        config
            .with_topology(TopologyKind::Torus)
            .with_routing(routing)
    };
    // `links` seeded-random permanent link faults from cycle 0.
    let faulted = |config: SimConfig, links: usize, seed: u64| {
        let plan = FaultPlan::random_links(&config.topology(), links, seed, 0, None);
        config.with_faults(plan)
    };
    let wormhole = || {
        uniform(8, 0.05)
            .with_packet_len(8)
            .with_switch_arb(SwitchArb::PerPacket)
    };
    let bursty = WorkloadSpec::stationary(
        Uniform,
        InjectionProcess::Bursty {
            rate_on: 0.2,
            switch: 0.02,
        },
    );

    // Throughput across mesh sizes and patterns. The last is the
    // idle-heavy point: at 0.01 flits/node/cycle most routers are empty
    // most cycles, so it tracks the active-router worklist (idle routers
    // must cost ~nothing, not a full pipeline walk).
    let mut points: Vec<SimPoint> = [
        (4, Uniform, 0.10),
        (4, Transpose, 0.10),
        (8, Uniform, 0.10),
        (8, Transpose, 0.10),
        (8, Uniform, 0.25),
        (8, Uniform, 0.01),
    ]
    .into_iter()
    .map(|(width, pattern, rate)| {
        let pattern_name = pattern.name();
        point(
            &format!("sim/{width}x{width}/{pattern_name}/r{rate:.2}"),
            &format!("{width}x{width} mesh, {pattern_name} traffic at {rate} flits/node/cycle"),
            mesh(width, pattern, rate),
        )
    })
    .collect();

    points.extend([
        // Torus fabric: the wrap-aware scenario family (dateline VC
        // partitioning, wrap-link traversal, torus routing) at the same
        // size and load as the 8x8 mesh point, so mesh-vs-torus cost stays
        // visible in the perf history. One dimension-ordered point and one
        // minimal-adaptive point under link faults (the adaptive fault
        // path).
        point(
            "sim/8x8/torus/uniform/r0.10",
            "8x8 torus, torus-DOR routing, uniform traffic at 0.1 flits/node/cycle",
            torus(uniform(8, 0.10), TorusDor),
        ),
        point(
            "sim/8x8/torus/uniform/r0.10/faults2",
            "8x8 torus, minimal-adaptive routing, 2 permanent link faults, \
             uniform traffic at 0.1 flits/node/cycle",
            faulted(torus(uniform(8, 0.10), TorusMinAdaptive), 2, 0x70F5),
        ),
        // Degraded fabric: the fault path (liveness filter in route
        // computation, adaptive rerouting, drop accounting) on an 8x8 mesh
        // with four permanent link faults, so the perf trajectory tracks
        // faulted operation alongside the healthy-mesh workloads above.
        point(
            "sim/8x8/uniform/r0.10/faults4",
            "8x8 mesh, odd-even routing, 4 permanent link faults, uniform traffic \
             at 0.1 flits/node/cycle",
            faulted(uniform(8, 0.10).with_routing(OddEven), 4, 0xFA17),
        ),
        // Bursty workload: the composable-workload path (per-node on/off
        // process state, phase lookup) on an 8x8 mesh at the same mean load
        // as the uniform r0.10 point, so the perf trajectory tracks
        // non-Bernoulli injection alongside the classic workloads.
        point(
            "sim/8x8/uniform/bursty",
            &format!(
                "8x8 mesh, bursty on/off uniform traffic ({}, mean 0.1 flits/node/cycle)",
                bursty.label()
            ),
            SimConfig::default().with_workload(bursty.clone()),
        ),
        // Big fabrics: 16x16 and 32x32 meshes and tori, serial and
        // partitioned. The serial 16x16 point is the baseline the
        // partitioned points are compared against (the partition speedup);
        // the p4 points exercise the tile pool, boundary exchange, and
        // log-replay stats commit at the scale where parallelism pays off.
        point(
            "sim/16x16/uniform/r0.10",
            "16x16 mesh, XY routing, uniform traffic at 0.1 flits/node/cycle, \
             serial stepping",
            uniform(16, 0.10),
        ),
        // The large-fabric idle-heavy point: 256 routers at 0.01
        // flits/node/cycle is where worklist skipping pays the most, since
        // the active set is a small fraction of the fabric each cycle.
        point(
            "sim/16x16/uniform/r0.01",
            "16x16 mesh, XY routing, uniform traffic at 0.01 flits/node/cycle \
             (idle-heavy), serial stepping",
            uniform(16, 0.01),
        ),
        point(
            "sim/16x16/uniform/r0.10/p4",
            "16x16 mesh, XY routing, uniform traffic at 0.1 flits/node/cycle, \
             4 partitions",
            uniform(16, 0.10).with_partitions(4),
        ),
        point(
            "sim/16x16/torus/uniform/r0.10/p4",
            "16x16 torus, torus-DOR routing, uniform traffic at 0.1 \
             flits/node/cycle, 4 partitions",
            torus(uniform(16, 0.10), TorusDor).with_partitions(4),
        ),
        point(
            "sim/16x16/uniform/r0.10/faults4/p4",
            "16x16 mesh, odd-even routing, 4 permanent link faults, uniform \
             traffic at 0.1 flits/node/cycle, 4 partitions",
            faulted(uniform(16, 0.10).with_routing(OddEven), 4, 0xB16F).with_partitions(4),
        ),
        point(
            "sim/32x32/uniform/r0.10/p4",
            "32x32 mesh, XY routing, uniform traffic at 0.1 flits/node/cycle, \
             4 partitions",
            uniform(32, 0.10).with_partitions(4),
        ),
        point(
            "sim/32x32/torus/uniform/r0.10/p4",
            "32x32 torus, torus-DOR routing, uniform traffic at 0.1 \
             flits/node/cycle, 4 partitions",
            torus(uniform(32, 0.10), TorusDor).with_partitions(4),
        ),
        // Wormhole fabric: long packets under per-packet switch
        // arbitration, the flow-control path where a head flit holds its
        // output port until the tail releases it. One healthy 8-flit point,
        // and a table-routed twin under permanent link faults (k-path table
        // build + fault recompute + route-hold interplay), so wormhole cost
        // stays visible in the perf history next to the legacy per-flit
        // workloads.
        point(
            "sim/8x8/uniform/r0.05/len8",
            "8x8 mesh, XY routing, 8-flit packets under per-packet wormhole \
             arbitration, uniform traffic at 0.05 flits/node/cycle",
            wormhole(),
        ),
        point(
            "sim/8x8/uniform/r0.05/len8/table/faults2",
            "8x8 mesh, table-driven k-path routing with 2 permanent link \
             faults, 8-flit packets under per-packet wormhole arbitration, \
             uniform traffic at 0.05 flits/node/cycle",
            faulted(wormhole().with_routing(Table), 2, 0x7AB1E),
        ),
    ]);
    points
}

/// Time one simulator workload. Each repeat builds a fresh simulator so
/// repeats are identical work; construction and warmup stay outside the
/// timed region.
fn time_sim(report: &mut BenchReport, point: &SimPoint) {
    let config = report.config;
    let params = format!(
        "{}, {} warmup + {} timed cycles",
        point.params, config.sim_warmup, config.sim_cycles
    );
    report.time(&point.name, params, "cycles", || {
        let mut sim = Simulator::new(point.config.clone()).expect("valid bench config");
        sim.run(config.sim_warmup);
        let flits0 = sim.stats().ejected_flits;
        let t0 = Instant::now();
        sim.run(config.sim_cycles);
        let dt = t0.elapsed().as_nanos() as u64;
        let flits = sim.stats().ejected_flits - flits0;
        (dt, config.sim_cycles, Some(flits))
    });
}

/// Run the full suite at the given budgets. `mode` is recorded verbatim in
/// the report (`"quick"` / `"full"` from the CLI).
pub fn run_suite(config: BenchSuiteConfig, mode: &str, git_sha: String) -> BenchReport {
    assert!(config.repeats > 0, "bench suite needs at least one repeat");
    let mut report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        git_sha,
        mode: mode.to_string(),
        config,
        workloads: Vec::new(),
    };

    let threads = noc_selfconf::default_threads();
    // The two grid workloads share XY routing, nominal V/F and the suite's window budgets.
    let bench_grid = |sizes, patterns, rates, base_seed| SweepGrid {
        sizes,
        patterns,
        rates,
        routings: vec![RoutingAlgorithm::Xy],
        levels: vec![None],
        warmup: config.sweep_measure / 4,
        measure: config.sweep_measure,
        drain: config.sweep_measure,
        base_seed,
        ..SweepGrid::default()
    };

    // --- Cycle-level simulator throughput: the `sim/*` table.
    for point in sim_points() {
        time_sim(&mut report, &point);
    }

    // --- Batched DQN forward/backward (the training inner loop).
    {
        let mut agent = bench_agent();
        let mut rng = StdRng::seed_from_u64(1);
        // Prime replay + Adam state outside the timed region.
        agent.train_step(&mut rng);
        let steps = config.dqn_steps as u64;
        let params = format!(
            "15-64-64-9 MLP, batch 32, double-DQN, {} train steps per repeat",
            config.dqn_steps
        );
        report.time("dqn/train_step/batch32", params, "train_steps", || {
            let t0 = Instant::now();
            for _ in 0..steps {
                agent.train_step(&mut rng);
            }
            (t0.elapsed().as_nanos() as u64, steps, None)
        });

        let states: Vec<Vec<f32>> = (0..32)
            .map(|i| (0..15).map(|j| ((i * 3 + j) % 11) as f32 / 11.0).collect())
            .collect();
        let batches = config.dqn_predicts as u64;
        let params = format!(
            "15-64-64-9 MLP, 32-state batched Q evaluation, {} batches per repeat",
            config.dqn_predicts
        );
        report.time("dqn/predict/batch32", params, "predict_batches", || {
            let mut acc = 0.0f32;
            let t0 = Instant::now();
            for _ in 0..batches {
                let q = agent.q_values_batch(&states);
                acc += q.get(0, 0);
            }
            let dt = t0.elapsed().as_nanos() as u64;
            std::hint::black_box(acc);
            (dt, batches, None)
        });
    }

    // --- Full NocEnv control epoch (simulate + encode + reward).
    {
        let sim = SimConfig::default()
            .with_size(4, 4)
            .with_traffic(TrafficPattern::Uniform, 0.1)
            .with_regions(2, 2);
        let mut env = NocEnv::new(NocEnvConfig {
            action_space: ActionSpace::PerRegionDelta {
                num_regions: 4,
                num_levels: 4,
            },
            sim,
            epoch_cycles: 500,
            epochs_per_episode: usize::MAX / 2, // never terminates mid-bench
            reward: RewardConfig::default(),
            traffic_menu: vec![],
            seed: 0,
        })
        .expect("valid bench environment");
        env.reset();
        let epochs = config.env_epochs as u64;
        let mut action = 0usize;
        let params = format!(
            "4x4 mesh, 2x2 regions, 500-cycle epochs, {} epochs per repeat",
            config.env_epochs
        );
        report.time("env/epoch/4x4", params, "epochs", || {
            let t0 = Instant::now();
            for _ in 0..epochs {
                action = (action + 1) % env.num_actions();
                std::hint::black_box(env.step(action));
            }
            (t0.elapsed().as_nanos() as u64, epochs, None)
        });
    }

    // --- Sweep-grid fan-out (the parallel scenario engine end to end).
    {
        let grid = bench_grid(
            vec![(4, 4), (8, 8)],
            vec![TrafficPattern::Uniform],
            vec![0.05, 0.10],
            7,
        );
        let scenarios = grid.len() as u64;
        let params = format!(
            "4x4+8x8 uniform at 0.05/0.10, {} measure cycles, {threads} threads",
            config.sweep_measure
        );
        report.time("sweep/fanout/4scenarios", params, "scenarios", || {
            let t0 = Instant::now();
            let swept = grid.run(threads).expect("valid bench grid");
            let dt = t0.elapsed().as_nanos() as u64;
            std::hint::black_box(swept.aggregate.num_scenarios);
            (dt, scenarios, None)
        });
    }

    // --- Warm-cache sweep service (the daemon's data path): resolve a
    // full grid against a pre-warmed in-memory result cache. This times
    // key derivation + single-flight lookup + result clone + report
    // assembly with zero simulation, i.e. the marginal cost of a cache-hit
    // job in `noc-cli serve`.
    {
        let grid = bench_grid(
            vec![(4, 4)],
            vec![TrafficPattern::Uniform, TrafficPattern::Transpose],
            vec![0.02, 0.04, 0.06, 0.08],
            11,
        );
        let scenarios = grid.len() as u64;
        let cache = noc_selfconf::ResultCache::in_memory();
        // Warm every key outside the timed region.
        grid.run_cached(threads, &cache).expect("valid bench grid");
        let params = format!(
            "8-scenario 4x4 grid resolved from a warm in-memory result \
             cache, {} measure cycles, {threads} threads",
            config.sweep_measure
        );
        report.time("serve/cache-hit", params, "scenarios", || {
            let t0 = Instant::now();
            let swept = grid.run_cached(threads, &cache).expect("valid bench grid");
            let dt = t0.elapsed().as_nanos() as u64;
            std::hint::black_box(swept.aggregate.num_scenarios);
            (dt, scenarios, None)
        });
    }

    // --- Tournament evaluator (policy deserialization + controller runs
    // over the generalization matrix). Two micro-budget policies are
    // trained outside the timed region; the timed body scores the full
    // 2-policy x 2-family matrix, i.e. the per-cell cost of
    // `noc-cli tournament`.
    {
        let base = SimConfig::default().with_size(4, 4).with_regions(2, 2);
        let grid = zoo::ZooGrid {
            base: base.clone(),
            variants: vec![zoo::DqnVariant {
                name: "bench".into(),
                dqn: DqnConfig {
                    hidden: vec![16],
                    batch_size: 8,
                    min_replay: 8,
                    ..DqnConfig::default()
                },
            }],
            families: vec![
                zoo::ScenarioFamily::parse("mesh/uniform/r0.1").expect("family parses"),
                zoo::ScenarioFamily::parse("torus/uniform/r0.1/f1").expect("family parses"),
            ],
            train: rl::TrainConfig {
                episodes: 1,
                max_steps: 4,
                ..rl::TrainConfig::default()
            },
            epoch_cycles: 100,
            epochs_per_episode: 4,
            base_seed: 17,
        };
        let policies: Vec<(String, zoo::Entrant)> = (0..grid.len())
            .map(|i| {
                (
                    format!("bench{i}"),
                    zoo::train_member(&grid, i)
                        .expect("bench policy trains")
                        .into(),
                )
            })
            .collect();
        let tournament = zoo::TournamentConfig {
            base,
            families: grid.families.clone(),
            epochs: config.env_epochs,
            epoch_cycles: 200,
            reward: RewardConfig::default(),
            base_seed: 17,
        };
        let cells = (policies.len() * tournament.families.len()) as u64;
        let params = format!(
            "2 policies x 2 families on a 4x4 fabric, {} epochs x 200 \
             cycles per cell, {threads} threads",
            config.env_epochs
        );
        report.time("zoo/tournament/2x2", params, "cells", || {
            let t0 = Instant::now();
            let matrix = zoo::tournament_matrix(&policies, &tournament, threads)
                .expect("bench tournament runs");
            let dt = t0.elapsed().as_nanos() as u64;
            std::hint::black_box(matrix.cells.len());
            (dt, cells, None)
        });
    }

    report
}

/// The standard bench agent: the self-configuration network shape with a
/// replay buffer pre-filled deterministically.
fn bench_agent() -> DqnAgent {
    let mut agent = DqnAgent::new(DqnConfig {
        min_replay: 64,
        ..DqnConfig::default().with_dims(15, 9)
    });
    for i in 0..256usize {
        let state: Vec<f32> = (0..15).map(|j| ((i + j) % 7) as f32 / 7.0).collect();
        let next: Vec<f32> = (0..15).map(|j| ((i + j + 1) % 7) as f32 / 7.0).collect();
        agent.observe(Transition {
            state,
            action: i % 9,
            reward: (i % 3) as f32 - 1.0,
            next_state: next,
            done: i % 40 == 0,
        });
    }
    agent
}

/// One workload's delta between two reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchDelta {
    /// Workload identifier.
    pub name: String,
    /// Baseline median, nanoseconds.
    pub old_median_ns: u64,
    /// Candidate median, nanoseconds.
    pub new_median_ns: u64,
    /// `(new - old) / old`; positive means slower.
    pub delta_frac: f64,
    /// The tolerance this workload was judged against: the baseline's
    /// per-workload value when present, else the global fallback.
    pub tolerance: f64,
    /// Candidate units per second (for target checks and the table).
    pub new_units_per_sec: f64,
    /// Absolute `units_per_sec` floor from the baseline, if any.
    pub target_units_per_sec: Option<f64>,
    /// Whether the delta exceeds this workload's tolerance.
    pub regression: bool,
    /// Whether the candidate ran below the absolute target floor.
    pub missed_target: bool,
}

impl BenchDelta {
    /// Whether this workload fails the gate (relative regression or an
    /// absolute target miss).
    pub fn failed(&self) -> bool {
        self.regression || self.missed_target
    }
}

/// Outcome of diffing two reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Global fallback tolerance (workloads without a baseline override).
    pub tolerance: f64,
    /// Per-workload deltas, in baseline order.
    pub deltas: Vec<BenchDelta>,
    /// Baseline workloads absent from the candidate (treated as failures:
    /// a silently dropped workload must force a baseline refresh).
    pub missing_in_new: Vec<String>,
    /// Candidate workloads absent from the baseline (informational).
    pub missing_in_old: Vec<String>,
}

impl Comparison {
    /// Number of gate failures (regressions, target misses, and dropped
    /// workloads).
    pub fn failures(&self) -> usize {
        self.deltas.iter().filter(|d| d.failed()).count() + self.missing_in_new.len()
    }

    /// Names of the workloads that breached their own budget (relative
    /// tolerance or absolute target), in baseline order.
    pub fn breached(&self) -> Vec<&str> {
        self.deltas
            .iter()
            .filter(|d| d.failed())
            .map(|d| d.name.as_str())
            .collect()
    }

    /// Render the delta table plus a verdict line. Every row shows the
    /// tolerance that judged it; failing rows say *which* budget broke
    /// (relative slowdown vs absolute target), and the trailing summary
    /// names every breaching workload so CI logs are self-explanatory.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>9} {:>6}  verdict",
            "workload", "old median", "new median", "delta", "tol"
        );
        for d in &self.deltas {
            let verdict = if d.regression && d.missed_target {
                "REGRESSION+TARGET".to_string()
            } else if d.regression {
                "REGRESSION".to_string()
            } else if d.missed_target {
                format!(
                    "MISSED TARGET ({:.0} < {:.0} {}/s)",
                    d.new_units_per_sec,
                    d.target_units_per_sec.unwrap_or(0.0),
                    "units"
                )
            } else {
                "ok".to_string()
            };
            let _ = writeln!(
                out,
                "{:<34} {:>12} {:>12} {:>+8.1}% {:>5.0}%  {}",
                d.name,
                fmt_ns(d.old_median_ns),
                fmt_ns(d.new_median_ns),
                d.delta_frac * 100.0,
                d.tolerance * 100.0,
                verdict,
            );
        }
        for name in &self.missing_in_new {
            let _ = writeln!(out, "{name:<34} MISSING from candidate report");
        }
        for name in &self.missing_in_old {
            let _ = writeln!(out, "{name:<34} new workload (no baseline)");
        }
        let _ = writeln!(
            out,
            "{} workload(s) compared, {} failure(s) \
             ({:.0}% fallback tolerance, per-workload overrides applied)",
            self.deltas.len(),
            self.failures(),
            self.tolerance * 100.0
        );
        let breached = self.breached();
        if !breached.is_empty() {
            let _ = writeln!(out, "breached budget: {}", breached.join(", "));
        }
        out
    }
}

/// Diff `new` against the `old` baseline: a workload regresses when its
/// median wall-clock grew by more than its tolerance (the baseline
/// workload's own `tolerance` when present, else the global `tolerance`
/// fallback), and fails outright when the baseline sets a
/// `target_units_per_sec` floor the candidate runs below.
///
/// # Errors
/// Returns an error when the schema versions or suite budgets differ —
/// medians from different budgets (e.g. a `full` run vs a `quick`
/// baseline) share workload names but time different amounts of work, so
/// diffing them would report enormous phantom regressions.
pub fn compare(old: &BenchReport, new: &BenchReport, tolerance: f64) -> Result<Comparison, String> {
    if old.schema_version != new.schema_version {
        return Err(format!(
            "schema mismatch: baseline v{} vs candidate v{} — refresh the baseline",
            old.schema_version, new.schema_version
        ));
    }
    if old.config != new.config {
        return Err(format!(
            "suite-budget mismatch: baseline ran `{}` budgets, candidate ran `{}` \
             ({:?} vs {:?}) — rerun with matching flags or refresh the baseline",
            old.mode, new.mode, old.config, new.config
        ));
    }
    let mut deltas = Vec::new();
    let mut missing_in_new = Vec::new();
    for ow in &old.workloads {
        match new.workloads.iter().find(|nw| nw.name == ow.name) {
            Some(nw) => {
                let delta_frac =
                    (nw.median_ns as f64 - ow.median_ns as f64) / (ow.median_ns as f64).max(1.0);
                let tol = ow.tolerance.unwrap_or(tolerance);
                let target = ow.target_units_per_sec;
                deltas.push(BenchDelta {
                    name: ow.name.clone(),
                    old_median_ns: ow.median_ns,
                    new_median_ns: nw.median_ns,
                    delta_frac,
                    tolerance: tol,
                    new_units_per_sec: nw.units_per_sec,
                    target_units_per_sec: target,
                    regression: delta_frac > tol,
                    missed_target: target.is_some_and(|t| nw.units_per_sec < t),
                });
            }
            None => missing_in_new.push(ow.name.clone()),
        }
    }
    let missing_in_old = new
        .workloads
        .iter()
        .filter(|nw| !old.workloads.iter().any(|ow| ow.name == nw.name))
        .map(|nw| nw.name.clone())
        .collect();
    Ok(Comparison {
        tolerance,
        deltas,
        missing_in_new,
        missing_in_old,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchSuiteConfig {
        BenchSuiteConfig {
            repeats: 3,
            sim_cycles: 40,
            sim_warmup: 10,
            dqn_steps: 2,
            dqn_predicts: 2,
            env_epochs: 1,
            sweep_measure: 40,
        }
    }

    #[test]
    fn median_iqr_matches_hand_computation() {
        assert_eq!(median_iqr(&mut [5]), (5, 0));
        assert_eq!(median_iqr(&mut [3, 1]), (2, 0));
        // Sorted [1, 5, 9]: q1 = s[0] = 1, q3 = s[(3*2)/4] = s[1] = 5.
        assert_eq!(median_iqr(&mut [9, 1, 5]), (5, 4));
        // 1..=8: median 4.5 -> 4 (integer), q1 = s[1] = 2, q3 = s[5] = 6.
        assert_eq!(median_iqr(&mut [8, 7, 6, 5, 4, 3, 2, 1]), (4, 4));
    }

    #[test]
    fn suite_runs_and_serializes_deterministically() {
        let report = run_suite(tiny_config(), "tiny", "deadbeef".into());
        assert_eq!(report.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(report.file_name(), "BENCH_deadbeef.json");
        // The suite is the checked-in baseline's table — same rows, same
        // order, same units — so `--compare` against it needs no refresh.
        let baseline: BenchReport =
            serde_json::from_str(include_str!("../../../results/bench_baseline.json")).unwrap();
        let rows = |r: &BenchReport| -> Vec<(String, String)> {
            let row = |w: &WorkloadResult| (w.name.clone(), w.unit.clone());
            r.workloads.iter().map(row).collect()
        };
        assert_eq!(rows(&report), rows(&baseline));
        assert_eq!(report.workloads.len(), 25);
        for w in &report.workloads {
            assert!(w.median_ns > 0, "{} must take time", w.name);
            assert!(w.units_per_sec > 0.0, "{} must have a rate", w.name);
        }
        // Simulator workloads report flit throughput; others do not.
        assert!(report
            .workloads
            .iter()
            .filter(|w| w.name.starts_with("sim/"))
            .all(|w| w.flits_per_sec.is_some()));
        assert!(report
            .workloads
            .iter()
            .filter(|w| !w.name.starts_with("sim/"))
            .all(|w| w.flits_per_sec.is_none()));
        // Schema stability: JSON round-trips to byte-identical JSON.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
        // The summary table renders every workload.
        let table = report.render_table();
        for w in &report.workloads {
            assert!(table.contains(&w.name));
        }
    }

    #[test]
    fn self_comparison_reports_zero_failures() {
        let report = run_suite(tiny_config(), "tiny", "cafe".into());
        let cmp = compare(&report, &report, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), 0);
        assert_eq!(cmp.deltas.len(), report.workloads.len());
        assert!(cmp.deltas.iter().all(|d| d.delta_frac == 0.0));
        assert!(cmp.render_table().contains("0 failure(s)"));
    }

    #[test]
    fn slowdowns_beyond_tolerance_are_regressions() {
        let old = run_suite(tiny_config(), "tiny", "old".into());
        let mut new = old.clone();
        for w in &mut new.workloads {
            w.median_ns *= 2; // +100% >> 30%
        }
        let cmp = compare(&old, &new, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), old.workloads.len());
        assert!(cmp.render_table().contains("REGRESSION"));
        // Speedups never trip the gate.
        let cmp = compare(&new, &old, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), 0);
    }

    #[test]
    fn dropped_workloads_fail_the_gate() {
        let old = run_suite(tiny_config(), "tiny", "old".into());
        let mut new = old.clone();
        let dropped = new.workloads.remove(0);
        let cmp = compare(&old, &new, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), 1);
        assert_eq!(cmp.missing_in_new, vec![dropped.name.clone()]);
        assert!(cmp.render_table().contains("MISSING"));
        // A workload only the candidate has is informational, not a failure.
        let cmp = compare(&new, &old, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), 0);
        assert_eq!(cmp.missing_in_old, vec![dropped.name]);
    }

    #[test]
    fn per_workload_tolerance_overrides_the_global_fallback() {
        let old = run_suite(tiny_config(), "tiny", "old".into());
        let mut new = old.clone();
        for w in &mut new.workloads {
            w.median_ns = w.median_ns * 3 / 2; // +50%: above 30%, below 80%
        }
        // Globally this is a regression everywhere...
        let cmp = compare(&old, &new, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), old.workloads.len());
        // ...but a baseline that grants workload 0 an 80% budget exempts
        // exactly that workload, and the delta records which tolerance
        // actually judged it.
        let mut curated = old.clone();
        curated.workloads[0].tolerance = Some(0.80);
        let cmp = compare(&curated, &new, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), old.workloads.len() - 1);
        assert!(!cmp.deltas[0].regression);
        assert_eq!(cmp.deltas[0].tolerance, 0.80);
        assert_eq!(cmp.deltas[1].tolerance, DEFAULT_TOLERANCE);
        // The summary names every breaching workload — and not the exempt one.
        let table = cmp.render_table();
        assert!(table.contains("breached budget:"));
        assert!(!cmp.breached().contains(&cmp.deltas[0].name.as_str()));
    }

    #[test]
    fn absolute_target_floors_fail_independently_of_deltas() {
        let old = run_suite(tiny_config(), "tiny", "old".into());
        let new = old.clone();
        // Identical medians: zero delta everywhere. An unreachable floor on
        // workload 0 must still fail the gate and name the workload.
        let mut curated = old.clone();
        curated.workloads[0].target_units_per_sec = Some(f64::INFINITY);
        let cmp = compare(&curated, &new, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), 1);
        assert!(cmp.deltas[0].missed_target && !cmp.deltas[0].regression);
        assert_eq!(cmp.breached(), vec![cmp.deltas[0].name.as_str()]);
        assert!(cmp.render_table().contains("MISSED TARGET"));
        // A floor the candidate clears is not a failure.
        let mut curated = old.clone();
        curated.workloads[0].target_units_per_sec = Some(0.0);
        let cmp = compare(&curated, &new, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.failures(), 0);
    }

    #[test]
    fn trajectory_rows_track_the_headline_workloads() {
        let report = run_suite(tiny_config(), "tiny", "abc123".into());
        let header = trajectory_header();
        assert!(header.starts_with("sha,date"));
        for name in TRAJECTORY_WORKLOADS {
            assert!(header.contains(name), "header lacks {name}");
        }
        let line = trajectory_line(&report);
        assert!(line.starts_with("abc123,"));
        assert_eq!(
            line.matches(',').count(),
            header.matches(',').count(),
            "row/header column mismatch"
        );
        // Every headline workload exists in the suite, so no cell is empty.
        assert!(!line.contains(",,") && !line.ends_with(','));
        // The date cell is YYYY-MM-DD.
        let date = line.split(',').nth(1).unwrap();
        assert_eq!(date.len(), 10, "bad date stamp {date}");
        assert!(date.as_bytes()[4] == b'-' && date.as_bytes()[7] == b'-');

        let dir = std::env::temp_dir().join(format!("traj-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trajectory.csv");
        append_trajectory(&report, &path).unwrap();
        append_trajectory(&report, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header once, then one row per append");
        assert_eq!(lines[0], header);
        assert_eq!(lines[1], lines[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_version_mismatch_is_an_error() {
        let old = run_suite(tiny_config(), "tiny", "old".into());
        let mut new = old.clone();
        new.schema_version += 1;
        assert!(compare(&old, &new, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn suite_budget_mismatch_is_an_error() {
        // A full-budget candidate against a quick-budget baseline times
        // different work under the same workload names; the diff must be
        // refused, not reported as a phantom regression.
        let old = run_suite(tiny_config(), "tiny", "old".into());
        let mut new = old.clone();
        new.config.sim_cycles *= 10;
        new.mode = "full".into();
        let err = compare(&old, &new, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("budget mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn detect_git_sha_returns_something() {
        let sha = detect_git_sha();
        assert!(!sha.is_empty());
    }
}
