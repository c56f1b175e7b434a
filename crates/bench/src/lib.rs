//! # noc-bench — the experiment harness
//!
//! Every reproduced figure and table of the evaluation is one row of
//! `FIGURES`: its name and the engine that computes its `Table`s.
//! Each binary under `src/bin/` is the one statement
//! `noc_bench::run_figure(env!("CARGO_BIN_NAME"))`, and [`run_figure`]
//! prints and saves what the engine returns by one rule. The library also
//! holds the timed workload suite behind `noc-cli bench` ([`report`]) and
//! what the engines share: artifact caching for trained policies
//! ([`train_or_load`]), standard configurations, and `evaluate` — the
//! tournament-matrix call every controller comparison is formatted from.
//! It owns no simulation loop: scenario grids run on `SweepGrid`,
//! controllers on `tournament_matrix`.

#![warn(missing_docs)]

mod figures;
pub mod report;

use noc_selfconf::zoo::{tournament_matrix, TournamentConfig};
use noc_selfconf::{
    default_threads, Entrant, Learner, NocEnvConfig, PolicyArtifact, RewardConfig, ScenarioFamily,
    TournamentReport,
};
use noc_sim::{SimConfig, TrafficPattern, WorkloadSpec};
use rl::{DqnConfig, TabularConfig, TrainConfig};
use std::fs;
use std::path::{Path, PathBuf};

/// Scale of an experiment run. `EXPT_SCALE=quick` shrinks every budget so
/// integration tests and smoke runs finish in seconds; the default `full`
/// scale regenerates paper-quality curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    /// Paper-quality budgets (minutes).
    Full,
    /// Smoke-test budgets (seconds).
    Quick,
}

impl Scale {
    /// Read the scale from the `EXPT_SCALE` environment variable.
    fn from_env() -> Scale {
        match std::env::var("EXPT_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Pick `full` or `quick` depending on the scale.
    fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Directory where experiment outputs (CSV, markdown, trained policies) are
/// written: `results/` at the repository root, or `$EXPT_RESULTS`.
///
/// # Panics
/// Panics with the offending path and OS error when the directory cannot be
/// created — a swallowed error here surfaces later as a baffling "No such
/// file" from some unrelated artifact write, which is undiagnosable in CI
/// logs.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("EXPT_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    fs::create_dir_all(&dir).unwrap_or_else(|e| {
        panic!(
            "cannot create results directory `{}` (set $EXPT_RESULTS to relocate it): {e}",
            dir.display()
        )
    });
    dir
}

/// One table of a figure: what [`run_figure`] prints and saves.
struct Table {
    /// The markdown heading.
    title: String,
    /// Column headers (also the CSV header line).
    headers: Vec<&'static str>,
    /// Rendered cells, one per header in each row.
    rows: Vec<Vec<String>>,
}

/// A column of a [`Table`]: its header and how to render its cell from
/// one item.
type Column<R> = (&'static str, fn(&R) -> String);

impl Table {
    /// One row per item, one cell per column.
    fn new<R>(title: impl Into<String>, items: &[R], columns: &[Column<R>]) -> Table {
        Table {
            title: title.into(),
            headers: columns.iter().map(|(header, _)| *header).collect(),
            rows: items
                .iter()
                .map(|item| columns.iter().map(|(_, cell)| cell(item)).collect())
                .collect(),
        }
    }

    /// The table as markdown under a `##` heading of its title.
    fn markdown(&self) -> String {
        let mut out = format!(
            "\n## {}\n\n| {} |\n|{}\n",
            self.title,
            self.headers.join(" | "),
            "---|".repeat(self.headers.len())
        );
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// The table as RFC 4180 CSV: the header line, then one line per row.
    fn csv(&self) -> String {
        let headers: Vec<String> = self.headers.iter().map(|h| h.to_string()).collect();
        let mut out = String::new();
        for line in std::iter::once(&headers).chain(&self.rows) {
            let fields: Vec<String> = line.iter().map(|cell| csv_field(cell)).collect();
            out.push_str(&(fields.join(",") + "\n"));
        }
        out
    }
}

/// One CSV field: a cell holding a comma, a quote or a line break is
/// quoted, its quotes doubled (RFC 4180); any other cell is written as is.
fn csv_field(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// A figure's engine: its tables at a [`Scale`].
type Engine = fn(Scale) -> Vec<Table>;

/// Every reproduced figure and table: its name — the name of its binary
/// and the stem of its files in [`results_dir`] — and its engine.
const FIGURES: &[(&str, Engine)] = &[
    ("fig1_latency_curves", figures::fig1_latency_curves),
    ("fig2_routing", figures::fig2_routing),
    ("fig3_training", figures::fig3_training),
    ("fig4_latency_compare", figures::fig4_latency_compare),
    ("fig5_energy_compare", figures::fig5_energy_compare),
    ("fig6_edp", figures::fig6_edp),
    ("fig7_phase_timeline", figures::fig7_phase_timeline),
    ("fig8_scalability", figures::fig8_scalability),
    ("table1_config", figures::table1_config),
    ("table2_hyperparams", figures::table2_hyperparams),
    ("table3_summary", figures::table3_summary),
    ("table4_ablation", figures::table4_ablation),
    ("table5_joint_routing", figures::table5_joint_routing),
];

/// Run the figure `name` of `FIGURES` at the `EXPT_SCALE` scale: print
/// every table its engine returns to stdout as markdown, in order, and
/// write the first one to `<name>.csv` and `<name>.md` in [`results_dir`].
///
/// # Panics
/// Panics on a name that is not in `FIGURES`, listing the known names.
pub fn run_figure(name: &str) {
    let Some((_, engine)) = FIGURES.iter().find(|(known, _)| *known == name) else {
        let known: Vec<&str> = FIGURES.iter().map(|(known, _)| *known).collect();
        panic!("unknown figure `{name}`; known figures: {known:?}");
    };
    let tables = engine(Scale::from_env());
    for table in &tables {
        print!("{}", table.markdown());
    }
    for (extension, content) in [("csv", tables[0].csv()), ("md", tables[0].markdown())] {
        let path = results_dir().join(format!("{name}.{extension}"));
        fs::write(&path, content).expect("results must be writable");
        eprintln!("wrote {}", path.display());
    }
}

/// Format a float with sensible precision for tables.
fn fmt(v: f64) -> String {
    if v.is_nan() {
        "—".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Whether a cached artifact at `path` can satisfy a request whose training
/// configuration hashes to `expected`. Artifacts whose hash differs — or
/// that carry none — are misses: returning them would
/// silently hand the caller a policy trained under a *different*
/// configuration (the old cache's stale-artifact bug).
fn cache_hit(path: &Path, expected: &str, kind: &str) -> Option<PolicyArtifact> {
    if std::env::var("EXPT_RETRAIN").is_ok() {
        return None;
    }
    let artifact = PolicyArtifact::load(path).ok()?;
    if artifact.kind_name() != kind {
        return None;
    }
    if artifact.config_hash != expected {
        eprintln!(
            "cached policy {} was trained under a different configuration; retraining",
            path.display()
        );
        return None;
    }
    eprintln!("loaded cached policy {}", path.display());
    Some(artifact)
}

/// Train a policy, caching the artifact at `<dir>/<key>.json`. The cache
/// is keyed on the policy kind and the configuration hash: an artifact
/// trained under a different environment/hyper-parameter/budget
/// combination is a miss and gets retrained. `EXPT_RETRAIN` forces a miss.
pub fn train_or_load(
    dir: &Path,
    key: &str,
    env_cfg: NocEnvConfig,
    learner: Learner,
    train: TrainConfig,
) -> PolicyArtifact {
    let path = dir.join(format!("{key}.json"));
    let kind = learner.kind_name();
    if let Some(artifact) = cache_hit(&path, &learner.config_hash(&env_cfg, &train), kind) {
        return artifact;
    }
    eprintln!(
        "training {kind} policy `{key}` ({} episodes)...",
        train.episodes
    );
    let t0 = std::time::Instant::now();
    let artifact = learner
        .train(env_cfg, train)
        .expect("training configuration");
    eprintln!("trained `{key}` in {:.1?}", t0.elapsed());
    artifact.save(&path).expect("artifact must be writable");
    artifact
}

/// Standard experiment configurations shared by the engines.
mod configs {
    use super::*;
    use noc_sim::{InjectionProcess, NodeId, TrafficSpec, WorkloadPhase};
    use rl::Schedule;

    /// The paper's mesh: 8×8, 4 VCs × 4 flits, 5-flit packets, 2×2 regions.
    pub fn mesh8() -> SimConfig {
        SimConfig::default()
    }

    /// The scalability mesh: 4×4 with 2×2 regions.
    pub fn mesh4() -> SimConfig {
        SimConfig::default().with_size(4, 4).with_regions(2, 2)
    }

    /// The hotspot pattern used throughout: 30 % of traffic to node 0.
    pub fn hotspot() -> TrafficPattern {
        TrafficPattern::Hotspot {
            hotspots: vec![NodeId(0)],
            fraction: 0.3,
        }
    }

    /// The bursty phase trace of Fig 7. Phases last 12 control epochs so
    /// controllers have room to settle inside each regime; the third regime
    /// uses a bursty on/off process at the same mean load the old Bernoulli
    /// phase carried.
    pub fn phase_trace() -> TrafficSpec {
        TrafficSpec::Workload(WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.03, 6000),
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.25, 6000),
            WorkloadPhase::new(
                TrafficPattern::Transpose,
                InjectionProcess::Bursty {
                    rate_on: 0.24,
                    switch: 0.02,
                },
                6000,
            ),
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.01, 6000),
        ]))
    }

    /// The training budget, scaled.
    pub fn train_budget(scale: Scale, seed: u64) -> TrainConfig {
        TrainConfig {
            episodes: scale.pick(250, 3),
            max_steps: 40,
            epsilon: Schedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: scale.pick(7000, 60),
            },
            train_per_step: 1,
            seed,
        }
    }

    /// The tabular baseline's configuration.
    pub fn tabular_default() -> TabularConfig {
        TabularConfig {
            bins: 3,
            alpha: 0.15,
            gamma: 0.95,
            ..TabularConfig::default()
        }
    }
}

/// The evaluation budget of every controller comparison: control epochs,
/// and cycles per epoch.
fn eval_budget(scale: Scale) -> (usize, u64) {
    (scale.pick(40, 3), scale.pick(500, 200))
}

/// Score `entrants` on `sim` under each labelled Bernoulli
/// `(label, pattern, rate)` workload, `epochs` control epochs of `epoch_cycles` per cell: the one
/// call behind every controller-comparison figure and table. Cells come
/// back entrant-major, workload-fastest (`cells[e * workloads.len() + w]`),
/// every entrant of a workload column on the identical simulation, seeded
/// off `sim.seed`.
///
/// # Panics
/// Panics on an invalid `sim` or an entrant trained for a different fabric
/// (the engines have no error path to report it through).
fn evaluate(
    sim: &SimConfig,
    entrants: &[(String, Entrant)],
    workloads: &[(&str, TrafficPattern, f64)],
    (epochs, epoch_cycles): (usize, u64),
) -> TournamentReport {
    let config = TournamentConfig {
        base: sim.clone(),
        families: workloads
            .iter()
            .map(|(_, pattern, rate)| {
                ScenarioFamily::new(sim.kind, WorkloadSpec::bernoulli(pattern.clone(), *rate), 0)
            })
            .collect(),
        epochs,
        epoch_cycles,
        reward: RewardConfig::default(),
        base_seed: sim.seed,
    };
    tournament_matrix(entrants, &config, default_threads()).expect("valid evaluation matrix")
}

/// The controller-comparison grid shared by Figs 4–6 and Table 3.
mod comparison {
    use super::*;
    use noc_selfconf::RunAggregate;

    /// One grid point: a controller on a workload.
    #[derive(Debug, Clone)]
    pub struct ComparisonPoint {
        /// Traffic pattern name.
        pub pattern: String,
        /// Offered injection rate (flits/node/cycle).
        pub rate: f64,
        /// Controller name.
        pub controller: String,
        /// Aggregate metrics of the run.
        pub agg: RunAggregate,
    }

    /// The mesh's DRL policy, trained (or loaded from cache) under
    /// `<key_prefix>_drl`.
    pub fn drl(sim: &SimConfig, key_prefix: &str, scale: Scale) -> PolicyArtifact {
        train_or_load(
            &results_dir(),
            &format!("{key_prefix}_drl"),
            NocEnvConfig::for_sim(sim.clone(), 7),
            Learner::Dqn(DqnConfig::default().with_seed(7)),
            configs::train_budget(scale, 7),
        )
    }

    /// The mesh's tabular policy, trained (or loaded from cache) under
    /// `<key_prefix>_tabular`.
    pub fn tabular(sim: &SimConfig, key_prefix: &str, scale: Scale) -> PolicyArtifact {
        train_or_load(
            &results_dir(),
            &format!("{key_prefix}_tabular"),
            NocEnvConfig::for_sim(sim.clone(), 8),
            Learner::Tabular(configs::tabular_default()),
            configs::train_budget(scale, 8),
        )
    }

    /// The controllers compared everywhere: the three baselines plus the
    /// tabular and DRL policies of the given mesh key.
    pub fn entrants_for(sim: &SimConfig, key_prefix: &str, scale: Scale) -> Vec<(String, Entrant)> {
        let drl = drl(sim, key_prefix, scale);
        let tab = tabular(sim, key_prefix, scale);
        let mut entrants = Entrant::baselines();
        entrants.push(("tabular-q".into(), tab.into()));
        entrants.push(("drl".into(), drl.into()));
        entrants
    }

    /// Injection rates of the comparison sweep.
    pub fn sweep_rates(scale: Scale) -> Vec<f64> {
        scale.pick(vec![0.02, 0.06, 0.10, 0.14, 0.18, 0.22], vec![0.05, 0.20])
    }

    /// Patterns of the comparison sweep.
    pub fn sweep_patterns() -> Vec<(&'static str, TrafficPattern)> {
        vec![
            ("uniform", TrafficPattern::Uniform),
            ("transpose", TrafficPattern::Transpose),
            ("hotspot", configs::hotspot()),
        ]
    }

    /// `entrants` × `patterns` × `rates` on `sim` at the `budget` of
    /// [`evaluate`], one point per cell in matrix order (entrant-major,
    /// then pattern, then rate).
    pub fn grid(
        sim: &SimConfig,
        entrants: &[(String, Entrant)],
        patterns: &[(&str, TrafficPattern)],
        rates: &[f64],
        budget: (usize, u64),
    ) -> Vec<ComparisonPoint> {
        let mut workloads = Vec::new();
        for (name, pattern) in patterns {
            workloads.extend(rates.iter().map(|&rate| (*name, pattern.clone(), rate)));
        }
        let report = evaluate(sim, entrants, &workloads, budget);
        let points = report.cells.into_iter().zip(workloads.iter().cycle());
        points
            .map(|(cell, (pattern, _, rate))| ComparisonPoint {
                pattern: pattern.to_string(),
                rate: *rate,
                controller: cell.policy,
                agg: cell.aggregate,
            })
            .collect()
    }

    /// The full comparison grid on the 8×8 mesh at `scale`'s budgets.
    pub fn run(scale: Scale) -> Vec<ComparisonPoint> {
        let sim = configs::mesh8();
        let entrants = entrants_for(&sim, "mesh8", scale);
        let (patterns, rates) = (sweep_patterns(), sweep_rates(scale));
        grid(&sim, &entrants, &patterns, &rates, eval_budget(scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(f64::NAN), "—");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.42), "42.4");
        assert_eq!(fmt(0.1234), "0.123");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(10, 1), 10);
        assert_eq!(Scale::Quick.pick(10, 1), 1);
    }

    #[test]
    fn table_renders_markdown() {
        let table = Table::new(
            "T",
            &[(1, 2)],
            &[("a", |r| r.0.to_string()), ("b", |r| r.1.to_string())],
        );
        assert_eq!(
            table.markdown(),
            "\n## T\n\n| a | b |\n|---|---|\n| 1 | 2 |\n"
        );
        assert_eq!(table.csv(), "a,b\n1,2\n");
    }

    /// A cell with a comma, a quote or a line break stays one CSV field.
    #[test]
    fn table_csv_quotes_cells_that_need_it() {
        let table = Table::new(
            "T",
            &[("double-DQN, uniform replay (default)", "say \"hi\"\nbye")],
            &[("variant", |r| r.0.into()), ("note", |r| r.1.into())],
        );
        assert_eq!(
            table.csv(),
            "variant,note\n\"double-DQN, uniform replay (default)\",\"say \"\"hi\"\"\nbye\"\n"
        );
    }

    /// The figure table and the binaries agree: every file under `src/bin/`
    /// is a row of [`FIGURES`] and every row has a binary, each name once.
    #[test]
    fn figures_table_matches_the_binaries() {
        let mut bins: Vec<String> =
            fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "rs"))
                .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
                .collect();
        bins.sort();
        let mut names: Vec<String> = FIGURES.iter().map(|(name, _)| name.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "each figure name once");
        assert_eq!(bins, names);
    }

    #[test]
    fn unknown_figure_panics_with_the_known_names() {
        let payload = std::panic::catch_unwind(|| run_figure("fig9_missing")).unwrap_err();
        let message = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            message.contains("unknown figure `fig9_missing`"),
            "{message}"
        );
        for (name, _) in FIGURES {
            assert!(message.contains(name), "{message} lists {name}");
        }
    }

    /// Regression for the stale-cache bug: the old cache returned whatever
    /// artifact sat under the key, even when the requested training
    /// configuration had changed. The cache is now keyed on the config
    /// hash, so a changed configuration under the same key must retrain.
    #[test]
    fn policy_cache_misses_on_config_change() {
        let dir = std::env::temp_dir().join(format!("noc_bench_cache_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let env = NocEnvConfig::for_sim(configs::mesh4(), 3);
        let dqn = DqnConfig {
            hidden: vec![8],
            batch_size: 8,
            min_replay: 8,
            ..DqnConfig::default().with_seed(3)
        };
        let train = TrainConfig {
            episodes: 1,
            max_steps: 2,
            ..configs::train_budget(Scale::Quick, 3)
        };
        let probe = |env: &NocEnvConfig, learner: Learner| {
            train_or_load(&dir, "cache_probe", env.clone(), learner, train.clone())
        };
        let a = probe(&env, Learner::Dqn(dqn.clone()));
        // Same configuration: the second call is a cache hit with identical
        // bytes (or an identical deterministic retrain under EXPT_RETRAIN).
        let b = probe(&env, Learner::Dqn(dqn.clone()));
        assert_eq!(a.to_json(), b.to_json());
        // Changed configuration under the SAME key: the cached artifact
        // must not be returned.
        let mut env2 = env.clone();
        env2.epoch_cycles += 1;
        let c = probe(&env2, Learner::Dqn(dqn));
        assert_ne!(a.config_hash, c.config_hash);
        assert_eq!(
            c.provenance
                .as_ref()
                .expect("fresh artifact has provenance")
                .env
                .epoch_cycles,
            env2.epoch_cycles
        );
        // The tabular path shares the keying: a DQN artifact under a
        // tabular key is a kind mismatch, not a hit.
        let t = probe(&env2, Learner::Tabular(configs::tabular_default()));
        assert_eq!(t.kind_name(), "tabular");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The comparison grid is a pure function of its inputs: one point per
    /// entrant × pattern × rate, the same bytes on a rerun, and nothing
    /// written to the results directory (no result cache to go stale).
    #[test]
    fn comparison_grid_is_entrants_by_patterns_by_rates_and_uncached() {
        let listing = || {
            let mut names: Vec<_> = fs::read_dir(results_dir())
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing();
        let sim = configs::mesh4();
        let env = NocEnvConfig::for_sim(sim.clone(), 5);
        let train = TrainConfig {
            episodes: 1,
            max_steps: 2,
            ..configs::train_budget(Scale::Quick, 5)
        };
        let dqn = DqnConfig {
            hidden: vec![8],
            batch_size: 8,
            min_replay: 8,
            ..DqnConfig::default().with_seed(5)
        };
        let mut entrants = Entrant::baselines();
        entrants.push((
            "drl".into(),
            Learner::Dqn(dqn).train(env, train).unwrap().into(),
        ));
        let patterns = comparison::sweep_patterns();
        let rates = [0.05, 0.2];
        let run = || comparison::grid(&sim, &entrants, &patterns, &rates, (2, 60));
        let points = run();
        assert_eq!(points.len(), entrants.len() * patterns.len() * rates.len());
        // Matrix order: entrant-major, then pattern, then rate.
        assert_eq!(points[0].controller, "static-max");
        assert_eq!(
            (points[1].pattern.as_str(), points[1].rate),
            ("uniform", 0.2)
        );
        assert_eq!(points[2].pattern, "transpose");
        assert_eq!(points.last().unwrap().controller, "drl");
        let bytes = |points: &[comparison::ComparisonPoint]| {
            points
                .iter()
                .map(|p| serde_json::to_string(&p.agg).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(bytes(&points), bytes(&run()));
        assert_eq!(before, listing(), "the grid must not touch results/");
    }
}
