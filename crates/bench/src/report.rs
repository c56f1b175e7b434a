//! Machine-readable performance reporting: the `noc-cli bench` subsystem.
//!
//! * [`run_suite`] executes a fixed set of 29 timed workloads (cycle-level
//!   simulation on several mesh/pattern points plus torus and faulted-fabric
//!   scenarios, batched DQN training steps,
//!   full `NocEnv` control epochs, and a parallel sweep-grid fan-out),
//!   repeats each one `repeats` times, and records the **median** and
//!   **interquartile range** of the wall-clock cost plus derived rates
//!   (cycles/sec, flits/sec, steps/sec, ...).
//! * [`BenchReport`] serializes to a deterministic-schema JSON artifact,
//!   conventionally named `BENCH_<git-sha>.json`.
//!
//! This module only reports. Wall-clock numbers are machine-dependent, so
//! a report is never judged against a stored one: whether a change made
//! the code slower is decided by the `benchmark/` harness, which builds
//! the parent and the change on one machine and compares paired runs (see
//! `benchmark/README.md`).

use noc_selfconf::{zoo, ActionSpace, NocEnv, NocEnvConfig, RewardConfig, StateEncoder, SweepGrid};
use noc_sim::{
    FaultPlan, InjectionProcess, RoutingAlgorithm, SimConfig, Simulator, SwitchArb, TopologyKind,
    TrafficPattern, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{DqnAgent, DqnConfig, Environment, LearningAgent, Transition};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;

/// Version stamped into every report; bump on schema changes so readers
/// of the artifact can tell layouts apart. Version 2 dropped the two
/// per-workload budget keys that only a curated baseline ever set.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

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
    /// Stable identifier, e.g. `sim/8x8/uniform/r0.10`.
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
            "{:<34} {:>12} {:>10} {:>14} {:>14}",
            "workload", "median", "iqr", "rate", "flits/sec"
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "{:<34} {:>12} {:>10} {:>14} {:>14}",
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
    /// V/F level per region from cycle 0 (empty: every region at the top
    /// level).
    levels: Vec<usize>,
}

/// The suite's simulator workloads, in report order.
fn sim_points() -> Vec<SimPoint> {
    use RoutingAlgorithm::{OddEven, Table, TorusDor, TorusMinAdaptive};
    use TrafficPattern::{Transpose, Uniform};
    let point = |name: &str, params: &str, config: SimConfig| SimPoint {
        name: name.to_string(),
        params: params.to_string(),
        config,
        levels: Vec::new(),
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
        // Past saturation, where an 8x8 router does the flit-hops of a
        // 32x32 one at r0.10 with all its state cache-resident: the ratio
        // of the two rows' ns per router-cycle is the footprint's share.
        (8, Uniform, 0.35),
        (8, Uniform, 0.01),
    ]
    .into_iter()
    .map(|(width, pattern, rate)| {
        point(
            &format!("sim/{width}x{width}/{pattern}/r{rate:.2}"),
            &format!("{width}x{width} mesh, {pattern} traffic at {rate} flits/node/cycle"),
            mesh(width, pattern, rate),
        )
    })
    .collect();

    points.extend([
        // Below nominal frequency: `train_8x8`'s episode, whose regions run
        // at levels the agent picks (`NocEnv::reset` starts them at random
        // ones), so most cycles step only the active routers whose region's
        // clock gate fired.
        SimPoint {
            levels: vec![1, 0, 2, 0],
            ..point(
                "sim/8x8/transpose/r0.05/dvfs",
                "8x8 mesh, transpose traffic at 0.05 flits/node/cycle, region \
                 V/F levels [1, 0, 2, 0]",
                mesh(8, Transpose, 0.05),
            )
        },
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
        // Big fabrics: 16x16 and 32x32 meshes and tori, where the fabric's
        // state outgrows the cache.
        point(
            "sim/16x16/uniform/r0.10",
            "16x16 mesh, XY routing, uniform traffic at 0.1 flits/node/cycle",
            uniform(16, 0.10),
        ),
        // The large-fabric idle-heavy point: 256 routers at 0.01
        // flits/node/cycle is where worklist skipping pays the most, since
        // the active set is a small fraction of the fabric each cycle.
        point(
            "sim/16x16/uniform/r0.01",
            "16x16 mesh, XY routing, uniform traffic at 0.01 flits/node/cycle \
             (idle-heavy)",
            uniform(16, 0.01),
        ),
        point(
            "sim/16x16/torus/uniform/r0.10",
            "16x16 torus, torus-DOR routing, uniform traffic at 0.1 flits/node/cycle",
            torus(uniform(16, 0.10), TorusDor),
        ),
        point(
            "sim/16x16/uniform/r0.10/faults4",
            "16x16 mesh, odd-even routing, 4 permanent link faults, uniform \
             traffic at 0.1 flits/node/cycle",
            faulted(uniform(16, 0.10).with_routing(OddEven), 4, 0xB16F),
        ),
        point(
            "sim/32x32/uniform/r0.10",
            "32x32 mesh, XY routing, uniform traffic at 0.1 flits/node/cycle",
            uniform(32, 0.10),
        ),
        point(
            "sim/32x32/torus/uniform/r0.10",
            "32x32 torus, torus-DOR routing, uniform traffic at 0.1 flits/node/cycle",
            torus(uniform(32, 0.10), TorusDor),
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
        for (region, &level) in point.levels.iter().enumerate() {
            sim.set_region_level(region, level)
                .expect("valid bench level");
        }
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

    // --- Batched DQN forward/backward (the training inner loop): the
    // default self-configuration shape, then the zoo's `wide` shape the
    // `learn_4x4` gate trains, on a 256-transition replay (the target
    // network's cached rows are almost all warm) and on a full 10 000-slot
    // one (the default capacity a long `train` run fills: a batch mostly
    // draws slots whose rows are stale). All read their input and output
    // widths off the default environment's configuration.
    {
        let env = NocEnvConfig::default();
        let inputs = StateEncoder::for_sim(&env.sim)
            .expect("default fabric")
            .state_dim();
        let outputs = env.action_space.num_actions();
        let mut agent = bench_agent(inputs, &[64, 64], outputs, 256);
        let mut wide = bench_agent(inputs, &[128, 64], outputs, 256);
        let mut wide_full = bench_agent(inputs, &[128, 64], outputs, 10_000);
        let mlp = |first: usize| format!("{inputs}-{first}-64-{outputs}");
        let steps = config.dqn_steps as u64;
        for (name, shape, agent) in [
            ("dqn/train_step/batch32", mlp(64), &mut agent),
            ("dqn/train_step/wide-b32", mlp(128), &mut wide),
            (
                "dqn/train_step/wide-b32/replay10k",
                mlp(128),
                &mut wide_full,
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            // Prime replay + Adam state outside the timed region.
            agent.train_step(&mut rng);
            let params = format!(
                "{shape} MLP, batch 32, double-DQN, {} stored transitions, \
                 {} train steps per repeat",
                agent.replay_len(),
                config.dqn_steps
            );
            report.time(name, params, "train_steps", || {
                let t0 = Instant::now();
                for _ in 0..steps {
                    agent.train_step(&mut rng);
                }
                (t0.elapsed().as_nanos() as u64, steps, None)
            });
        }

        // One batch replayed flatters any kernel whose cost depends on which
        // activations are zero: the branch predictor learns them all. 64
        // batches of ReLU'd uniform states (about half of every input
        // exactly zero) rotate, as `learn` sees a new batch every call.
        let mut rng = StdRng::seed_from_u64(2);
        let rotation: Vec<Vec<Vec<f32>>> = (0..64)
            .map(|_| {
                (0..32)
                    .map(|_| {
                        (0..inputs)
                            .map(|_| rng.gen_range(-1.0f32..1.0).max(0.0))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let batches = config.dqn_predicts as u64;
        let params = format!(
            "{} MLP, 32-state batched Q evaluation, {} batches per repeat, \
             rotating through {} ReLU-sparse batches",
            mlp(64),
            config.dqn_predicts,
            rotation.len()
        );
        report.time("dqn/predict/batch32", params, "predict_batches", || {
            let mut acc = 0.0f32;
            let t0 = Instant::now();
            for states in rotation.iter().cycle().take(config.dqn_predicts) {
                let q = agent.q_values_batch(states);
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

        // The same warm grid as a `submit` over loopback on a kept
        // connection: request render/parse, scheduler, event render, the
        // socket and the client's parse on top of the row above, so wire
        // cost reads beside cache cost.
        let daemon = noc_selfconf::Daemon::start(noc_selfconf::ServeConfig::default())
            .expect("bench daemon binds a loopback port");
        let mut conn = noc_selfconf::ServeClient::connect(&daemon.addr().to_string())
            .expect("bench daemon accepts");
        conn.run_grid("prime", &grid).expect("valid bench grid");
        let params = format!(
            "the serve/cache-hit grid submitted to an in-process daemon over \
             loopback on a kept connection, every scenario a memory hit, \
             {threads} workers"
        );
        report.time("serve/socket-warm-submit", params, "scenarios", || {
            let t0 = Instant::now();
            let swept = conn.run_grid("bench", &grid).expect("warm submit");
            let dt = t0.elapsed().as_nanos() as u64;
            std::hint::black_box(swept.aggregate.num_scenarios);
            (dt, scenarios, None)
        });
        drop(conn);
        daemon.shutdown();
        daemon.wait();
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

/// A bench agent of the given network shape with its replay buffer
/// pre-filled deterministically with `stored` transitions.
fn bench_agent(state_dim: usize, hidden: &[usize], num_actions: usize, stored: usize) -> DqnAgent {
    let mut agent = DqnAgent::new(DqnConfig {
        hidden: hidden.to_vec(),
        min_replay: 64,
        ..DqnConfig::default().with_dims(state_dim, num_actions)
    });
    for i in 0..stored {
        let state: Vec<f32> = (0..state_dim).map(|j| ((i + j) % 7) as f32 / 7.0).collect();
        let next: Vec<f32> = (0..state_dim)
            .map(|j| ((i + j + 1) % 7) as f32 / 7.0)
            .collect();
        agent.observe(Transition {
            state,
            action: i % num_actions,
            reward: (i % 3) as f32 - 1.0,
            next_state: next,
            done: i % 40 == 0,
        });
    }
    agent
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
        // 29 uniquely named rows, the `sim/*` table first and in
        // `sim_points()` order.
        let names: Vec<&str> = report.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names.len(), 29);
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate workload name");
        let sim_names: Vec<String> = sim_points().into_iter().map(|p| p.name).collect();
        let sim_prefix = names.iter().take_while(|n| n.starts_with("sim/"));
        assert!(sim_prefix.eq(sim_names.iter()));
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
    fn detect_git_sha_returns_something() {
        let sha = detect_git_sha();
        assert!(!sha.is_empty());
    }
}
