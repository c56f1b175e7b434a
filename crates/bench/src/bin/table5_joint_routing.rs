//! Table 5 (extension) — joint DVFS + routing self-configuration.
//!
//! The paper's future-work direction: let the agent pick the routing
//! algorithm *and* a uniform V/F level (`ActionSpace::LevelAndRouting`),
//! then compare against the DVFS-only policy and the static baselines on
//! adversarial traffic where adaptive routing matters (transpose, hotspot).
//!
//! Expected shape: on transpose past mid-load, the joint policy switches to
//! odd-even routing and beats the DVFS-only policy's EDP; on uniform they
//! tie (XY is already optimal there).

use noc_bench::{
    configs, evaluate, fmt, print_table, results_dir, save_csv, save_markdown, train_or_load,
    Learner, Scale,
};
use noc_selfconf::{ActionSpace, Entrant, NocEnvConfig};
use noc_sim::{RoutingAlgorithm, TrafficPattern};

fn main() {
    let scale = Scale::from_env();
    let sim = configs::mesh8();

    // Train the joint policy.
    let mut env_cfg: NocEnvConfig = configs::train_env(sim.clone(), 21);
    env_cfg.action_space = ActionSpace::LevelAndRouting {
        num_levels: sim.vf_table.num_levels(),
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
    };
    let mut train = configs::train_budget(scale, 21);
    train.episodes = scale.pick(100, 2);
    let joint = train_or_load(
        &results_dir(),
        "mesh8_joint_routing",
        env_cfg,
        Learner::Dqn(configs::dqn_default(21)),
        train,
    );

    // The DVFS-only policy for comparison (shared cache with figs 4-6).
    let dvfs_only = train_or_load(
        &results_dir(),
        "mesh8_drl",
        configs::train_env(sim.clone(), 7),
        Learner::Dqn(configs::dqn_default(7)),
        configs::train_budget(scale, 7),
    );

    let epochs = scale.pick(40usize, 3);
    let epoch_cycles = scale.pick(500u64, 200);
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
    let points = workloads.clone().map(|(_, pattern, rate)| (pattern, rate));
    let report = evaluate(&sim, &entrants, &points, epochs, epoch_cycles);

    let mut rows = Vec::new();
    for (w, (wname, ..)) in workloads.iter().enumerate() {
        for e in 0..entrants.len() {
            let cell = &report.cells[e * workloads.len() + w];
            rows.push(vec![
                wname.to_string(),
                cell.policy.clone(),
                fmt(cell.aggregate.avg_latency),
                fmt(cell.aggregate.energy_pj / 1e3),
                fmt(cell.aggregate.edp / 1e6),
                fmt(cell.aggregate.mean_level),
            ]);
        }
    }
    let headers = [
        "workload",
        "controller",
        "avg latency",
        "energy (nJ)",
        "EDP (×10⁶)",
        "mean level",
    ];
    let md = print_table(
        "Table 5 — joint DVFS + routing control (extension)",
        &headers,
        &rows,
    );
    save_csv("table5_joint_routing", &headers, &rows);
    save_markdown("table5_joint_routing", &md);
}
