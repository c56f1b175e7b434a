//! Fig 3 — DRL training convergence: episode return and ε over training,
//! for the DQN agent and the tabular baseline.
//!
//! Expected shape: the return rises from the random-policy level and
//! plateaus; the plateau beats the tabular baseline's.

use noc_bench::{
    configs, fmt, print_table, results_dir, save_csv, save_markdown, train_or_load, Learner, Scale,
};

fn main() {
    let scale = Scale::from_env();
    let sim = configs::mesh8();
    let drl = train_or_load(
        &results_dir(),
        "mesh8_drl",
        configs::train_env(sim.clone(), 7),
        Learner::Dqn(configs::dqn_default(7)),
        configs::train_budget(scale, 7),
    );
    let tab = train_or_load(
        &results_dir(),
        "mesh8_tabular",
        configs::train_env(sim, 8),
        Learner::Tabular(configs::tabular_default()),
        configs::train_budget(scale, 8),
    );

    // Smooth with a window for readability.
    let win = scale.pick(10usize, 1);
    let smooth = |curve: &[rl::EpisodeStats], i: usize| -> f64 {
        let lo = i.saturating_sub(win - 1);
        let s: f64 = curve[lo..=i].iter().map(|e| e.total_reward).sum();
        s / (i - lo + 1) as f64
    };

    let mut rows = Vec::new();
    let stride = (drl.curve.len() / 30).max(1);
    for i in (0..drl.curve.len()).step_by(stride) {
        let d = &drl.curve[i];
        let t = tab.curve.get(i);
        rows.push(vec![
            d.episode.to_string(),
            fmt(d.total_reward),
            fmt(smooth(&drl.curve, i)),
            fmt(d.epsilon),
            t.map(|t| fmt(t.total_reward)).unwrap_or_else(|| "—".into()),
            t.map(|_| fmt(smooth(&tab.curve, i)))
                .unwrap_or_else(|| "—".into()),
        ]);
    }
    let headers = [
        "episode",
        "dqn return",
        "dqn return (smoothed)",
        "epsilon",
        "tabular return",
        "tabular (smoothed)",
    ];
    let md = print_table("Fig 3 — training convergence", &headers, &rows);
    save_csv("fig3_training", &headers, &rows);
    save_markdown("fig3_training", &md);

    // Convergence summary.
    let quarter = (drl.curve.len() / 4).max(1);
    let early: f64 = drl.curve[..quarter]
        .iter()
        .map(|e| e.total_reward)
        .sum::<f64>()
        / quarter as f64;
    let late: f64 = drl.curve[drl.curve.len() - quarter..]
        .iter()
        .map(|e| e.total_reward)
        .sum::<f64>()
        / quarter as f64;
    let tab_late: f64 = tab.curve[tab.curve.len() - quarter.min(tab.curve.len())..]
        .iter()
        .map(|e| e.total_reward)
        .sum::<f64>()
        / quarter.min(tab.curve.len()) as f64;
    print_table(
        "Fig 3b — convergence summary",
        &["metric", "value"],
        &[
            vec!["dqn first-quarter mean return".into(), fmt(early)],
            vec!["dqn last-quarter mean return".into(), fmt(late)],
            vec!["tabular last-quarter mean return".into(), fmt(tab_late)],
            vec!["dqn improvement".into(), fmt(late - early)],
        ],
    );
}
