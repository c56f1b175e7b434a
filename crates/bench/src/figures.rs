//! The engines of [`crate::FIGURES`]: one function per reproduced figure or
//! table, from its inputs to the [`Table`]s it prints. The first table is
//! the one `run_figure` saves.

use crate::comparison::{self, entrants_for, ComparisonPoint};
use crate::{
    configs, eval_budget, evaluate, fmt, results_dir, train_or_load, Column, Scale, Table,
};
use noc_selfconf::{
    default_threads, run_controller, ActionSpace, Entrant, Learner, NocEnvConfig, RewardConfig,
    RunAggregate, ScenarioResult, StateEncoder, SweepGrid,
};
use noc_sim::{RoutingAlgorithm, TrafficPattern};
use rl::{DqnConfig, EpisodeStats, TargetSync, TrainConfig};
use std::collections::BTreeMap;

/// An offered rate as every figure prints it.
fn rate(rate: f64) -> String {
    format!("{rate:.3}")
}

/// Mean episode return over a stretch of a learning curve.
fn mean_return(curve: &[EpisodeStats]) -> f64 {
    curve.iter().map(|e| e.total_reward).sum::<f64>() / curve.len() as f64
}

/// A two-column table of labelled values.
fn pairs(title: &str, headers: [&'static str; 2], rows: &[(&str, String)]) -> Table {
    let label: Column<(&str, String)> = (headers[0], |r| r.0.into());
    Table::new(title, rows, &[label, (headers[1], |r| r.1.clone())])
}

/// One scenario of a figure's rate sweep: its labels and its outcome.
struct SweepPoint {
    pattern: &'static str,
    routing: &'static str,
    rate: f64,
    result: ScenarioResult,
}

/// `patterns` × `rates` × `routings` on the 8×8 mesh as one `SweepGrid` at
/// `scale`'s window budgets, labelled, in grid order (pattern, then rate,
/// then routing).
fn sweep(
    patterns: &[(&'static str, TrafficPattern)],
    rates: &[f64],
    routings: &[(&'static str, RoutingAlgorithm)],
    base_seed: u64,
    scale: Scale,
) -> Vec<SweepPoint> {
    let (warmup, measure, drain) = scale.pick((2000, 8000, 8000), (300, 800, 800));
    let report = SweepGrid {
        base: configs::mesh8(),
        sizes: vec![(8, 8)],
        patterns: patterns.iter().map(|(_, p)| p.clone()).collect(),
        rates: rates.to_vec(),
        routings: routings.iter().map(|(_, r)| *r).collect(),
        warmup,
        measure,
        drain,
        base_seed,
        ..SweepGrid::default()
    }
    .run(default_threads())
    .expect("valid grid");
    let (per_pattern, per_rate) = (rates.len() * routings.len(), routings.len());
    let point = |(i, result): (usize, ScenarioResult)| SweepPoint {
        pattern: patterns[i / per_pattern].0,
        rate: rates[i / per_rate % rates.len()],
        routing: routings[i % per_rate].0,
        result,
    };
    let scenarios = report.scenarios.into_iter().enumerate();
    scenarios.map(point).collect()
}

/// A sweep table: the `labels` columns, then latency (under the header
/// `latency`), throughput, and whether the point saturated.
fn sweep_table(
    title: &str,
    points: &[SweepPoint],
    labels: &[Column<SweepPoint>],
    latency: &'static str,
) -> Table {
    let outcome: [Column<SweepPoint>; 3] = [
        (latency, |p| fmt(p.result.metrics.avg_packet_latency)),
        ("throughput", |p| fmt(p.result.metrics.throughput)),
        ("saturated", |p| {
            if p.result.saturated { "yes" } else { "no" }.into()
        }),
    ];
    Table::new(title, points, &[labels, &outcome].concat())
}

/// Fig 1 — simulator validation: average packet latency vs offered injection
/// rate for the classic synthetic patterns under XY routing.
///
/// Expected shape: hockey-stick curves; saturation ordering
/// uniform > bit-complement ≈ transpose > hotspot.
pub fn fig1_latency_curves(scale: Scale) -> Vec<Table> {
    let rates: Vec<f64> = scale.pick(
        vec![
            0.005, 0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20, 0.24, 0.28, 0.33,
        ],
        vec![0.02, 0.10],
    );
    let patterns = [
        ("uniform", TrafficPattern::Uniform),
        ("transpose", TrafficPattern::Transpose),
        ("bitcomp", TrafficPattern::BitComplement),
        ("hotspot", configs::hotspot()),
    ];
    let xy = [("xy", RoutingAlgorithm::Xy)];
    let points = sweep(&patterns, &rates, &xy, 100, scale);
    // The observed saturation points (first saturated rate per pattern).
    let mut onset = Vec::new();
    for &(name, _) in &patterns {
        let saturated = points
            .iter()
            .filter(|p| p.pattern == name && p.result.saturated);
        let first = saturated.map(|p| p.rate).reduce(f64::min);
        onset.push((name, first.map_or("not reached".into(), rate)));
    }
    vec![
        sweep_table(
            "Fig 1 — latency vs injection rate (XY routing)",
            &points,
            &[
                ("pattern", |p| p.pattern.to_string()),
                ("offered rate", |p| rate(p.rate)),
            ],
            "avg latency (cycles)",
        ),
        pairs(
            "Fig 1b — observed saturation onset",
            ["pattern", "rate"],
            &onset,
        ),
    ]
}

/// Fig 2 — routing-algorithm comparison: Odd-Even adaptive vs XY under
/// transpose and hotspot traffic (the adaptivity knob of the
/// self-configuration space).
///
/// Expected shape: odd-even ties XY at low load and wins past mid-load on
/// the adversarial patterns.
pub fn fig2_routing(scale: Scale) -> Vec<Table> {
    let rates: Vec<f64> = scale.pick(
        vec![0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26],
        vec![0.05, 0.15],
    );
    let algorithms = [
        ("xy", RoutingAlgorithm::Xy),
        ("odd-even", RoutingAlgorithm::OddEven),
        ("west-first", RoutingAlgorithm::WestFirst),
    ];
    let patterns = [
        ("transpose", TrafficPattern::Transpose),
        ("hotspot", configs::hotspot()),
        ("uniform", TrafficPattern::Uniform),
    ];
    vec![sweep_table(
        "Fig 2 — routing algorithms under adversarial traffic",
        &sweep(&patterns, &rates, &algorithms, 200, scale),
        &[
            ("pattern", |p| p.pattern.to_string()),
            ("routing", |p| p.routing.to_string()),
            ("offered rate", |p| rate(p.rate)),
        ],
        "avg latency",
    )]
}

/// Fig 3 — DRL training convergence: episode return and ε over training,
/// for the DQN agent and the tabular baseline.
///
/// Expected shape: the return rises from the random-policy level and
/// plateaus; the plateau beats the tabular baseline's.
pub fn fig3_training(scale: Scale) -> Vec<Table> {
    let sim = configs::mesh8();
    let drl = comparison::drl(&sim, "mesh8", scale);
    let tab = comparison::tabular(&sim, "mesh8", scale);

    // Smooth with a window for readability.
    let win = scale.pick(10usize, 1);
    let smooth =
        |curve: &[EpisodeStats], i: usize| mean_return(&curve[i.saturating_sub(win - 1)..=i]);
    // A row: the DQN episode, its smoothed return, then the tabular return
    // and smoothed return (NaN, printed "—", past the tabular curve's end).
    let stride = (drl.curve.len() / 30).max(1);
    let rows: Vec<(&EpisodeStats, f64, f64, f64)> = (0..drl.curve.len())
        .step_by(stride)
        .map(|i| {
            let (t, t_smooth) = match tab.curve.get(i) {
                Some(t) => (t.total_reward, smooth(&tab.curve, i)),
                None => (f64::NAN, f64::NAN),
            };
            (&drl.curve[i], smooth(&drl.curve, i), t, t_smooth)
        })
        .collect();

    // Convergence summary.
    let quarter = (drl.curve.len() / 4).max(1);
    let early = mean_return(&drl.curve[..quarter]);
    let late = mean_return(&drl.curve[drl.curve.len() - quarter..]);
    let tab_late = mean_return(&tab.curve[tab.curve.len() - quarter.min(tab.curve.len())..]);
    vec![
        Table::new(
            "Fig 3 — training convergence",
            &rows,
            &[
                ("episode", |r| r.0.episode.to_string()),
                ("dqn return", |r| fmt(r.0.total_reward)),
                ("dqn return (smoothed)", |r| fmt(r.1)),
                ("epsilon", |r| fmt(r.0.epsilon)),
                ("tabular return", |r| fmt(r.2)),
                ("tabular (smoothed)", |r| fmt(r.3)),
            ],
        ),
        pairs(
            "Fig 3b — convergence summary",
            ["metric", "value"],
            &[
                ("dqn first-quarter mean return", fmt(early)),
                ("dqn last-quarter mean return", fmt(late)),
                ("tabular last-quarter mean return", fmt(tab_late)),
                ("dqn improvement", fmt(late - early)),
            ],
        ),
    ]
}

/// The key columns of Figs 4–6; their rows sort on them.
const COMPARISON_KEY: [Column<ComparisonPoint>; 3] = [
    ("pattern", |p| p.pattern.clone()),
    ("rate", |p| rate(p.rate)),
    ("controller", |p| p.controller.clone()),
];

/// A comparison-grid table: the key columns, then `metrics`, sorted.
fn comparison_table(
    title: &str,
    points: &[ComparisonPoint],
    metrics: &[Column<ComparisonPoint>],
) -> Table {
    let mut table = Table::new(title, points, &[&COMPARISON_KEY[..], metrics].concat());
    table.rows.sort();
    table
}

/// `static-max`'s point on `p`'s workload: the baseline savings and deltas
/// are taken against.
fn static_max<'a>(
    points: &'a [ComparisonPoint],
    p: &ComparisonPoint,
) -> Option<&'a ComparisonPoint> {
    points
        .iter()
        .find(|q| q.controller == "static-max" && q.pattern == p.pattern && q.rate == p.rate)
}

/// The change of `v` against `base`, as a signed percentage.
fn delta(v: f64, base: f64) -> String {
    format!("{:+.1}%", 100.0 * (v / base - 1.0))
}

/// Fig 4 — average packet latency under each controller across the
/// pattern × rate grid.
///
/// Expected shape: static-max lowest latency; static-min highest; DRL tracks
/// static-max within ~10–20 % at low-mid load; threshold/tabular in between.
pub fn fig4_latency_compare(scale: Scale) -> Vec<Table> {
    vec![comparison_table(
        "Fig 4 — latency comparison",
        &comparison::run(scale),
        &[
            ("avg latency", |p| fmt(p.agg.avg_latency)),
            ("throughput", |p| fmt(p.agg.throughput)),
            ("mean level", |p| fmt(p.agg.mean_level)),
        ],
    )]
}

/// Fig 5 — energy under each controller across the pattern × rate grid.
///
/// Expected shape: static-max burns the most; static-min the least; DRL cuts
/// 20–40 % vs static-max at low-mid load.
pub fn fig5_energy_compare(scale: Scale) -> Vec<Table> {
    let points = comparison::run(scale);
    // Savings vs static-max per (pattern, rate).
    let savings: Vec<(&ComparisonPoint, &ComparisonPoint)> = points
        .iter()
        .filter(|p| p.controller == "drl")
        .filter_map(|p| Some((p, static_max(&points, p)?)))
        .collect();
    let mut saving = Table::new(
        "Fig 5b — DRL energy saving vs static-max",
        &savings,
        &[
            ("pattern", |(p, _)| p.pattern.clone()),
            ("rate", |(p, _)| rate(p.rate)),
            ("saving", |(p, base)| {
                format!(
                    "{:.1}%",
                    100.0 * (1.0 - p.agg.energy_pj / base.agg.energy_pj)
                )
            }),
        ],
    );
    saving.rows.sort();
    vec![
        comparison_table(
            "Fig 5 — energy comparison",
            &points,
            &[
                ("energy (nJ)", |p| fmt(p.agg.energy_pj / 1e3)),
                ("energy/flit (pJ)", |p| fmt(p.agg.energy_per_flit)),
                ("mean level", |p| fmt(p.agg.mean_level)),
            ],
        ),
        saving,
    ]
}

/// Fig 6 — energy-delay product (the paper's headline figure of merit).
///
/// Expected shape: DRL lowest EDP overall, especially at low-mid load where
/// static-max wastes energy and static-min wastes latency.
pub fn fig6_edp(scale: Scale) -> Vec<Table> {
    let points = comparison::run(scale);
    // Who wins per (pattern, rate)? The lowest finite EDP; on a tie, the
    // first controller in matrix order.
    let mut winners: Vec<&ComparisonPoint> =
        points.iter().filter(|p| p.agg.edp.is_finite()).collect();
    winners.sort_by(|a, b| {
        let (ka, kb) = (
            (&a.pattern, a.rate, a.agg.edp),
            (&b.pattern, b.rate, b.agg.edp),
        );
        ka.partial_cmp(&kb).expect("no NaN rates")
    });
    winners.dedup_by(|b, a| a.pattern == b.pattern && a.rate == b.rate);
    let mut wins: BTreeMap<&str, usize> = BTreeMap::new();
    for best in &winners {
        *wins.entry(&best.controller).or_default() += 1;
    }
    let tally: Vec<(&str, String)> = wins.into_iter().map(|(c, n)| (c, n.to_string())).collect();
    vec![
        comparison_table(
            "Fig 6 — energy-delay product",
            &points,
            // µJ·cycles-ish scale for readability.
            &[("EDP (×10⁶ pJ·cycles)", |p| fmt(p.agg.edp / 1e6))],
        ),
        Table::new(
            "Fig 6b — lowest-EDP controller per point",
            &winners,
            &[
                ("pattern", |p| p.pattern.clone()),
                ("rate", |p| rate(p.rate)),
                ("winner", |p| p.controller.clone()),
            ],
        ),
        pairs("Fig 6c — win tally", ["controller", "wins"], &tally),
    ]
}

/// A row of a controller-scoring table: its labels and the run's aggregate.
type Scored<L> = (L, RunAggregate);

/// The aggregate columns every controller-scoring table ends in.
fn aggregate_columns<L>() -> [Column<Scored<L>>; 4] {
    [
        ("avg latency", |r| fmt(r.1.avg_latency)),
        ("energy (nJ)", |r| fmt(r.1.energy_pj / 1e3)),
        ("EDP (×10⁶)", |r| fmt(r.1.edp / 1e6)),
        ("mean level", |r| fmt(r.1.mean_level)),
    ]
}

/// A controller-scoring table: the `labels` columns, then the first
/// `aggregates` aggregate columns.
fn scored_table<L>(
    title: &str,
    rows: &[Scored<L>],
    labels: &[Column<Scored<L>>],
    aggregates: usize,
) -> Table {
    let columns = [labels, &aggregate_columns()[..aggregates]].concat();
    Table::new(title, rows, &columns)
}

/// Fig 7 — phase-trace adaptation timeline: per-epoch mean V/F level,
/// latency, and power for the DRL controller vs the threshold heuristic vs
/// static-max on the bursty phase trace.
///
/// Expected shape: DRL (and, lagging, the threshold heuristic) drop levels
/// during the idle/low phases and raise them for the burst; static-max stays
/// pinned and burns energy through the idle phase.
pub fn fig7_phase_timeline(scale: Scale) -> Vec<Table> {
    let sim = configs::mesh8().with_traffic_spec(configs::phase_trace());
    let epochs = scale.pick(64usize, 6);
    let epoch_cycles = 500;

    // The per-epoch trace is the figure, so this engine drives
    // `run_controller` itself rather than reading matrix aggregates.
    let mut trace = Vec::new();
    let mut summary = Vec::new();
    for (name, entrant) in entrants_for(&configs::mesh8(), "mesh8", scale) {
        if name == "static-min" || name == "tabular-q" {
            continue; // keep the figure readable: 3 series as in the paper
        }
        let mut controller = entrant.controller(&sim).expect("cached policy deploys");
        let run = run_controller(&sim, controller.as_mut(), epochs, epoch_cycles)
            .expect("valid configuration");
        for (i, (m, levels)) in run.epochs.into_iter().zip(&run.levels).enumerate() {
            let mean_level = levels.iter().map(|&l| l as f64).sum::<f64>() / levels.len() as f64;
            trace.push((name.clone(), i, mean_level, m));
        }
        summary.push((name, run.aggregate));
    }
    vec![
        Table::new(
            "Fig 7 — phase-trace adaptation timeline",
            &trace,
            &[
                ("controller", |r| r.0.clone()),
                ("epoch", |r| r.1.to_string()),
                ("mean level", |r| format!("{:.2}", r.2)),
                ("epoch latency", |r| fmt(r.3.avg_packet_latency)),
                // pJ/cycle (power).
                ("power (pJ/cycle)", |r| {
                    fmt(r.3.energy_pj / r.3.cycles.max(1) as f64)
                }),
                ("inj rate", |r| fmt(r.3.injection_rate)),
            ],
        ),
        scored_table(
            "Fig 7b — phase-trace aggregates",
            &summary,
            &[("controller", |r| r.0.clone())],
            4,
        ),
    ]
}

/// Fig 8 — scalability: do the DRL gains hold across mesh sizes?
/// Trains a policy per mesh size (4×4 and 8×8; the observation is
/// region-normalized so the architecture is identical) and compares EDP vs
/// static-max and threshold at mid load.
pub fn fig8_scalability(scale: Scale) -> Vec<Table> {
    let workloads = [
        ("uniform", TrafficPattern::Uniform, 0.10),
        ("hotspot", configs::hotspot(), 0.10),
    ];
    let mut rows = Vec::new();
    for (mesh, sim, key) in [
        ("4x4", configs::mesh4(), "mesh4"),
        ("8x8", configs::mesh8(), "mesh8"),
    ] {
        let entrants = entrants_for(&sim, key, scale);
        let report = evaluate(&sim, &entrants, &workloads, eval_budget(scale));
        // Cells are entrant-major, workload-fastest.
        for (cell, (pattern, ..)) in report.cells.into_iter().zip(workloads.iter().cycle()) {
            rows.push(((mesh, *pattern, cell.policy), cell.aggregate));
        }
    }
    vec![scored_table(
        "Fig 8 — scalability across mesh sizes (rate 0.10)",
        &rows,
        &[
            ("mesh", |r| r.0 .0.to_string()),
            ("pattern", |r| r.0 .1.to_string()),
            ("controller", |r| r.0 .2.clone()),
        ],
        3,
    )]
}

/// Table 1 — NoC and simulator configuration.
pub fn table1_config(_: Scale) -> Vec<Table> {
    let cfg = configs::mesh8();
    let levels = cfg.vf_table.levels().iter().enumerate();
    let vf: Vec<String> = levels
        .map(|(i, l)| format!("L{i}: {:.1} V @ {:.1}× f_nom", l.voltage, l.freq_scale))
        .collect();
    let epoch_cycles = NocEnvConfig::for_sim(cfg.clone(), 0).epoch_cycles;
    vec![pairs(
        "Table 1 — NoC configuration",
        ["Parameter", "Value"],
        &[
            ("Topology", format!("{}×{} {:?}", cfg.width, cfg.height, cfg.kind)),
            ("Routing", format!("{:?}", cfg.routing)),
            ("Virtual channels / port", cfg.num_vcs.to_string()),
            ("Buffer depth / VC", format!("{} flits", cfg.vc_depth)),
            ("Packet length", format!("{} flits", cfg.packet_len)),
            (
                "Switching",
                format!("{:?} switch allocation, credit-based flow control", cfg.switch_arb),
            ),
            ("Router pipeline", "3 stages (RC, VA, SA/ST), 1-cycle links".into()),
            ("DVFS regions", format!("{}×{}", cfg.regions_x, cfg.regions_y)),
            ("V/F levels", vf.join("; ")),
            (
                "Power model",
                format!(
                    "event energy (pJ): buf W {:.2} / R {:.2}, xbar {:.2}, link {:.2}; leakage {:.2}/router/cycle",
                    cfg.power.e_buffer_write,
                    cfg.power.e_buffer_read,
                    cfg.power.e_xbar,
                    cfg.power.e_link,
                    cfg.power.p_leak_router
                ),
            ),
            ("Control epoch", format!("{epoch_cycles} cycles")),
        ],
    )]
}

/// Table 2 — DRL hyper-parameters.
pub fn table2_hyperparams(_: Scale) -> Vec<Table> {
    let dqn = DqnConfig::default().with_seed(7);
    let cfg = NocEnvConfig::for_sim(configs::mesh8(), 7);
    let encoder = StateEncoder::for_sim(&cfg.sim).expect("valid fabric");
    let (dims, regions) = (encoder.state_dim(), encoder.num_regions());
    let global = dims - 3 * regions;
    let space = &cfg.action_space;
    let actions: Vec<String> = (0..space.num_actions())
        .map(|a| space.describe(a))
        .collect();
    let (replay, min_replay) = (dqn.replay_capacity, dqn.min_replay);
    let train = configs::train_budget(Scale::Full, 7);
    let r = &cfg.reward;
    vec![pairs(
        "Table 2 — DRL hyper-parameters",
        ["Parameter", "Value"],
        &[
            (
                "Network",
                format!("MLP {:?} (ReLU hidden, linear head)", dqn.hidden),
            ),
            (
                "State",
                format!("3 features × {regions} regions + {global} global = {dims} dims"),
            ),
            (
                "Actions",
                format!("{}: {}", actions.len(), actions.join(", ")),
            ),
            ("Discount γ", format!("{}", dqn.gamma)),
            ("Optimizer", format!("Adam, lr {}", dqn.lr)),
            ("Loss", format!("{:?}", dqn.loss)),
            ("Batch size", dqn.batch_size.to_string()),
            ("Replay", format!("{replay} transitions (min {min_replay})")),
            ("Target sync", format!("{:?}", dqn.target_sync)),
            ("Double DQN", dqn.double.to_string()),
            ("ε schedule", format!("{:?}", train.epsilon)),
            (
                "Episodes",
                format!("{} × {} epochs", train.episodes, train.max_steps),
            ),
            ("Epoch", format!("{} cycles", cfg.epoch_cycles)),
            (
                "Reward",
                format!(
                    "{}·tput − {}·latency/{} − {}·energy/{} − {}·backlog/{} − {}·[lat>{:?}]",
                    r.throughput_weight,
                    r.latency_weight,
                    r.latency_scale,
                    r.energy_weight,
                    r.energy_scale,
                    r.backlog_weight,
                    r.backlog_scale,
                    r.violation_penalty,
                    r.latency_limit
                ),
            ),
        ],
    )]
}

/// Table 3 — per-pattern summary at mid load: latency, throughput, energy,
/// EDP, and savings vs the static-max baseline.
pub fn table3_summary(scale: Scale) -> Vec<Table> {
    let points = comparison::run(scale);
    // Mid-load column: the rate closest to 0.10.
    let mid = points
        .iter()
        .map(|p| p.rate)
        .min_by(|a, b| (a - 0.10).abs().total_cmp(&(b - 0.10).abs()))
        .expect("rates non-empty");
    // Pattern by pattern, each controller against static-max's point.
    let mut rows: Vec<(&ComparisonPoint, &ComparisonPoint)> = points
        .iter()
        .filter(|p| p.rate == mid)
        .map(|p| (p, static_max(&points, p).expect("baseline present")))
        .collect();
    rows.sort_by(|a, b| a.0.pattern.cmp(&b.0.pattern));
    vec![Table::new(
        format!("Table 3 — per-pattern summary at rate {mid:.2}"),
        &rows,
        &[
            ("pattern", |(p, _)| p.pattern.clone()),
            ("controller", |(p, _)| p.controller.clone()),
            ("latency", |(p, _)| fmt(p.agg.avg_latency)),
            ("throughput", |(p, _)| fmt(p.agg.throughput)),
            ("energy (nJ)", |(p, _)| fmt(p.agg.energy_pj / 1e3)),
            ("EDP (×10⁶)", |(p, _)| fmt(p.agg.edp / 1e6)),
            ("Δlatency vs max", |(p, b)| {
                delta(p.agg.avg_latency, b.agg.avg_latency)
            }),
            ("Δenergy vs max", |(p, b)| {
                delta(p.agg.energy_pj, b.agg.energy_pj)
            }),
            ("ΔEDP vs max", |(p, b)| delta(p.agg.edp, b.agg.edp)),
        ],
    )]
}

/// Table 4 — ablation study over the DRL design choices DESIGN.md calls out:
/// Double-DQN vs vanilla, prioritized vs uniform replay, replay size, and
/// the reward-weight trade-off.
///
/// Each variant trains with a reduced budget (ablations compare variants
/// against each other, not against the headline policy) and is evaluated on
/// a fixed workload mix.
pub fn table4_ablation(scale: Scale) -> Vec<Table> {
    let sim = configs::mesh8();
    // Each variant: its cache key, its label, and how it departs from the
    // default DQN and reward.
    type Departure = fn(&mut DqnConfig, &mut RewardConfig);
    let variants: [(&str, &str, Departure); 8] = [
        (
            "ablate_default",
            "double-DQN, uniform replay (default)",
            |_, _| {},
        ),
        ("ablate_nodouble", "vanilla DQN target", |d, _| {
            d.double = false
        }),
        (
            "ablate_prioritized",
            "prioritized replay (α=0.6)",
            |d, _| d.prioritized_alpha = Some(0.6),
        ),
        ("ablate_smallreplay", "replay 1k (vs 10k)", |d, _| {
            d.replay_capacity = 1000
        }),
        ("ablate_soft", "soft target sync (τ=0.01)", |d, _| {
            d.target_sync = TargetSync::Soft { tau: 0.01 }
        }),
        ("ablate_nstep3", "3-step returns", |d, _| d.n_step = 3),
        ("ablate_energy_reward", "energy-biased reward", |_, r| {
            *r = RewardConfig::energy_biased()
        }),
        ("ablate_latency_reward", "latency-biased reward", |_, r| {
            *r = RewardConfig::latency_biased()
        }),
    ];
    let eval_workloads = [
        ("uniform@0.10", TrafficPattern::Uniform, 0.10),
        ("hotspot@0.10", configs::hotspot(), 0.10),
    ];

    let mut final_returns = Vec::new();
    let mut entrants: Vec<(String, Entrant)> = Vec::new();
    for (key, label, departure) in variants {
        let mut env = NocEnvConfig::for_sim(sim.clone(), 7);
        let mut dqn = DqnConfig::default().with_seed(7);
        departure(&mut dqn, &mut env.reward);
        let train = TrainConfig {
            episodes: scale.pick(80, 2),
            ..configs::train_budget(scale, 7)
        };
        let artifact = train_or_load(&results_dir(), key, env, Learner::Dqn(dqn), train);
        // Final-quarter training return.
        let curve = &artifact.curve;
        let quarter = (curve.len() / 4).max(1);
        final_returns.push(mean_return(&curve[curve.len() - quarter..]));
        entrants.push((label.to_string(), artifact.into()));
    }
    let report = evaluate(&sim, &entrants, &eval_workloads, eval_budget(scale));
    // Cells are variant-major, workload-fastest.
    let n = eval_workloads.len();
    let mut rows = Vec::new();
    for (i, cell) in report.cells.into_iter().enumerate() {
        let labels = (cell.policy, eval_workloads[i % n].0, final_returns[i / n]);
        rows.push((labels, cell.aggregate));
    }
    vec![scored_table(
        "Table 4 — ablations",
        &rows,
        &[
            ("variant", |r| r.0 .0.clone()),
            ("workload", |r| r.0 .1.to_string()),
            ("final train return", |r| fmt(r.0 .2)),
        ],
        4,
    )]
}

/// Table 5 (extension) — joint DVFS + routing self-configuration.
///
/// The paper's future-work direction: let the agent pick the routing
/// algorithm *and* a uniform V/F level (`ActionSpace::LevelAndRouting`),
/// then compare against the DVFS-only policy and the static baselines on
/// adversarial traffic where adaptive routing matters (transpose, hotspot).
///
/// Expected shape: on transpose past mid-load, the joint policy switches to
/// odd-even routing and beats the DVFS-only policy's EDP; on uniform they
/// tie (XY is already optimal there).
pub fn table5_joint_routing(scale: Scale) -> Vec<Table> {
    let sim = configs::mesh8();

    // Train the joint policy.
    let env = NocEnvConfig {
        action_space: ActionSpace::LevelAndRouting {
            num_levels: sim.vf_table.num_levels(),
            routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        },
        ..NocEnvConfig::for_sim(sim.clone(), 21)
    };
    let train = TrainConfig {
        episodes: scale.pick(100, 2),
        ..configs::train_budget(scale, 21)
    };
    let dqn = Learner::Dqn(DqnConfig::default().with_seed(21));
    let joint = train_or_load(&results_dir(), "mesh8_joint_routing", env, dqn, train);

    // The DVFS-only policy for comparison (shared cache with figs 4-6).
    let dvfs_only = comparison::drl(&sim, "mesh8", scale);

    let workloads = [
        ("uniform@0.10", TrafficPattern::Uniform, 0.10),
        ("transpose@0.14", TrafficPattern::Transpose, 0.14),
        ("transpose@0.20", TrafficPattern::Transpose, 0.20),
        ("hotspot@0.10", configs::hotspot(), 0.10),
    ];
    let entrants: Vec<(String, Entrant)> = vec![
        ("static-max".into(), Entrant::StaticMax),
        ("drl-dvfs".into(), dvfs_only.into()),
        ("drl-joint".into(), joint.into()),
    ];
    let report = evaluate(&sim, &entrants, &workloads, eval_budget(scale));
    // Workload-major rows out of the entrant-major cells.
    let mut rows = Vec::new();
    for (w, (workload, ..)) in workloads.iter().enumerate() {
        for cell in report.cells.iter().skip(w).step_by(workloads.len()) {
            rows.push(((*workload, cell.policy.clone()), cell.aggregate.clone()));
        }
    }
    vec![scored_table(
        "Table 5 — joint DVFS + routing control (extension)",
        &rows,
        &[
            ("workload", |r| r.0 .0.to_string()),
            ("controller", |r| r.0 .1.clone()),
        ],
        4,
    )]
}
