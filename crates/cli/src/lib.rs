//! Implementation of the `noc-cli` subcommands (library form so the logic is
//! unit-testable without spawning processes).
//!
//! Every subcommand is one row of `COMMANDS`: its name, positional
//! synopsis, flags and handler. Dispatch, flag scanning, the unknown-flag
//! errors and the usage text are all read off that table; argument parsing
//! is intentionally dependency-free.

#![warn(missing_docs)]

use noc_selfconf::serve::{Daemon, Event, Request, ResultCache, ServeClient, ServeConfig};
use noc_selfconf::sweep::seeded_link_faults;
use noc_selfconf::zoo;
use noc_selfconf::{train_drl, NocEnvConfig, SweepGrid};
use noc_sim::{
    PacketTrace, RoutingAlgorithm, RunSummary, SimConfig, Simulator, SwitchArb, TopologyKind,
    TrafficPattern, TrafficSpec, WorkloadSpec,
};
use rl::{DqnConfig, Schedule, TrainConfig};
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// CLI-level error (message only; causes are rendered into it).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

impl From<noc_sim::SimError> for CliError {
    fn from(e: noc_sim::SimError) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<zoo::ZooError> for CliError {
    fn from(e: zoo::ZooError) -> Self {
        CliError(e.to_string())
    }
}

/// One subcommand: a row of `COMMANDS`.
pub struct Command {
    /// `noc-cli <name>`.
    pub(crate) name: &'static str,
    /// Positional synopsis: each `<word>` is a required positional and each
    /// `[word]` an optional one, so it also fixes how many are accepted.
    pub(crate) args: &'static str,
    /// One line of the usage text.
    pub(crate) note: &'static str,
    /// What a wrong number of positionals reports (and, on a command that
    /// takes positionals, an unknown flag).
    pub(crate) misuse: &'static str,
    /// The command's own flags.
    pub(crate) flags: &'static [Flag],
    /// Where arguments that are not the command's own go.
    pub(crate) pass: Pass,
    /// Parse the arguments after the name and execute.
    pub run: fn(&[String]) -> Result<(), CliError>,
}

/// Where a command's arguments that are not its own flags go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    /// Nowhere: they are positionals, or unknown flags.
    Own,
    /// Every other `--flag value` pair is a `run` flag (the base fabric).
    Run,
    /// Every other argument is a `sweep-grid` flag, except these execution
    /// flags, which do not apply where the grid runs.
    Grid(&'static [&'static str]),
}

/// One flag of a [`Command`].
pub(crate) struct Flag {
    /// `--name`.
    pub(crate) name: &'static str,
    /// The value placeholder the usage text shows; empty for a switch.
    pub(crate) value: &'static str,
    /// Parse `(flag, value)` into the options being built.
    set: Setter,
}

type Setter = fn(&mut Opts, &str, &str) -> Result<(), CliError>;

const fn flag(name: &'static str, value: &'static str, set: Setter) -> Flag {
    Flag { name, value, set }
}

/// Store a flag's parsed value; setters read `set(&mut o.field, parse(v)?)`.
fn set<T>(slot: &mut T, value: T) -> Result<(), CliError> {
    *slot = value;
    Ok(())
}

/// What one invocation's flags set. Every command starts from the defaults
/// and reads back the fields its own flags write.
#[derive(Default)]
struct Opts {
    /// Scanned `(flag, value)` pairs, not yet applied.
    pairs: Vec<(&'static Flag, String)>,
    /// Positional arguments, in order.
    pos: Vec<String>,
    /// Arguments handed on to the [`Pass`] target's parser.
    rest: Vec<String>,
    run: RunOptions,
    pattern: Option<TrafficPattern>,
    rate: Option<f64>,
    workload: Option<WorkloadSpec>,
    faults: Option<usize>,
    grid: SweepGrid,
    threads: Option<usize>,
    serial: bool,
    out: Option<String>,
    cache: Option<String>,
    bench: BenchOptions,
    serve: ServeConfig,
    addr: Option<String>,
    client: Option<String>,
    episodes: Option<usize>,
    max_steps: Option<usize>,
    epochs_per_episode: Option<usize>,
    variants: Option<Vec<zoo::DqnVariant>>,
    families: Option<Vec<zoo::ScenarioFamily>>,
    epochs: Option<usize>,
}

/// Flags that more than one command declares.
#[rustfmt::skip]
impl Flag {
    const THREADS: Flag = flag("--threads", "N", |o, f, v| set(&mut o.threads, Some(parse_positive(f, v)?)));
    const OUT: Flag = flag("--out", "report.json", |o, _, v| set(&mut o.out, Some(v.into())));
    const ADDR: Flag = flag("--addr", DEFAULT_SERVE_ADDR, |o, _, v| set(&mut o.addr, Some(v.into())));
    const EPISODES: Flag = flag("--episodes", "N", |o, f, v| set(&mut o.episodes, Some(parse_positive(f, v)?)));
    const MAX_STEPS: Flag = flag("--max-steps", "N", |o, f, v| set(&mut o.max_steps, Some(parse_positive(f, v)?)));
    const FAMILIES: Flag = flag("--families", "mesh/uniform/r0.1,torus/ph[uniform:burst0.3x0.05]/f2",
        |o, _, v| set(&mut o.families, Some(parse_families(v)?)));
}

/// Every `noc-cli` subcommand, in usage order. Laid out by hand: one row
/// per command, one line per flag.
#[rustfmt::skip]
pub(crate) static COMMANDS: [Command; 15] = [
    Command { name: "simulate", args: "[config.json]", note: "run one warmup/measure/drain simulation",
        misuse: "simulate takes at most one argument: [config.json]", flags: &[], pass: Pass::Own,
        run: |a| cmd_simulate(row("simulate").parse(a)?.pos.first().map(String::as_str)) },
    Command { name: "run", args: "", note: "one simulation configured inline", misuse: "",
        flags: &[
            flag("--config", "base.json", |_, _, _| Ok(())), // loaded first, by parse_run_args
            flag("--topology", "mesh|torus", |o, _, v| set(&mut o.run.config.kind, TopologyKind::parse(v)?)),
            flag("--size", "8x8", |o, _, v| parse_size(v).map(|s| (o.run.config.width, o.run.config.height) = s)),
            flag("--routing", "xy", |o, _, v| set(&mut o.run.config.routing, RoutingAlgorithm::parse(v)?)),
            flag("--pattern", "uniform", |o, _, v| set(&mut o.pattern, Some(TrafficPattern::parse(v)?))),
            flag("--rate", "0.10", |o, f, v| set(&mut o.rate, Some(parse_value(f, v)?))),
            flag("--workload", "ph[uniform:burst0.3x0.05]",
                 |o, _, v| set(&mut o.workload, Some(WorkloadSpec::parse(v)?))),
            flag("--arb", "perflit|perpacket", |o, _, v| set(&mut o.run.config.switch_arb, SwitchArb::parse(v)?)),
            flag("--faults", "N", |o, f, v| set(&mut o.faults, Some(parse_value(f, v)?))),
            flag("--seed", "N", |o, f, v| set(&mut o.run.config.seed, parse_value(f, v)?)),
            flag("--warmup", "N", |o, f, v| set(&mut o.run.warmup, parse_value(f, v)?)),
            flag("--measure", "N", |o, f, v| set(&mut o.run.measure, parse_value(f, v)?)),
            flag("--drain", "N", |o, f, v| set(&mut o.run.drain, parse_value(f, v)?)),
        ],
        pass: Pass::Own, run: cmd_run },
    Command { name: "sweep", args: "<rate0> <rate1> <steps>", note: "latency-throughput sweep at <steps> rates",
        misuse: "sweep requires <rate0> <rate1> <steps>", flags: &[], pass: Pass::Own,
        run: |a| parse_sweep_args(a).and_then(|(rate0, rate1, steps)| cmd_sweep(rate0, rate1, steps)) },
    Command { name: "sweep-grid", args: "", note: "parallel scenario grid -> one JSON report", misuse: "",
        flags: &[
            flag("--sizes", "4x4,8x8", |o, f, v| set(&mut o.grid.sizes, parse_list(f, v, parse_size)?)),
            flag("--topologies", "mesh,torus",
                 |o, f, v| set(&mut o.grid.topologies, parse_list(f, v, TopologyKind::parse)?)),
            flag("--patterns", "uniform,transpose",
                 |o, f, v| set(&mut o.grid.patterns, parse_list(f, v, TrafficPattern::parse)?)),
            flag("--rates", "0.05,0.10",
                 |o, f, v| set(&mut o.grid.rates, parse_list(f, v, |s| parse_value("rate", s))?)),
            flag("--routings", "xy,oddeven", |o, f, v| set(&mut o.grid.routings, parse_list(f, v, RoutingAlgorithm::parse)?)),
            flag("--levels", "none,0,3", |o, f, v| set(&mut o.grid.levels, parse_list(f, v, |s| match s {
                "none" => Ok(None),
                _ => parse_value("level", s).map(Some),
            })?)),
            flag("--faults", "0,1,2",
                 |o, f, v| set(&mut o.grid.faults, parse_list(f, v, |s| parse_value("fault count", s))?)),
            flag("--workloads", "ph[uniform:burst0.3x0.05]",
                 |o, f, v| set(&mut o.grid.workloads, parse_list(f, v, WorkloadSpec::parse)?)),
            flag("--arb", "perflit|perpacket", |o, _, v| set(&mut o.grid.base.switch_arb, SwitchArb::parse(v)?)),
            flag("--warmup", "N", |o, f, v| set(&mut o.grid.warmup, parse_value(f, v)?)),
            flag("--measure", "N", |o, f, v| set(&mut o.grid.measure, parse_value(f, v)?)),
            flag("--drain", "N", |o, f, v| set(&mut o.grid.drain, parse_value(f, v)?)),
            flag("--seed", "N", |o, f, v| set(&mut o.grid.base_seed, parse_value(f, v)?)),
            Flag::THREADS,
            Flag::OUT,
            flag("--cache", "results/cache", |o, _, v| set(&mut o.cache, Some(v.into()))),
            flag("--serial", "", |o, _, _| set(&mut o.serial, true)),
        ],
        pass: Pass::Own, run: cmd_sweep_grid },
    Command { name: "serve", args: "", note: "persistent sweep daemon (TCP, JSON lines)", misuse: "",
        flags: &[
            Flag::ADDR,
            flag("--cache", "results/cache", |o, _, v| set(&mut o.serve.cache_dir, Some(v.into()))),
            flag("--threads", "N", |o, f, v| set(&mut o.serve.scheduler.threads, parse_positive(f, v)?)),
            flag("--max-outstanding", "N",
                 |o, f, v| set(&mut o.serve.scheduler.max_outstanding, parse_positive(f, v)?)),
            flag("--max-client-outstanding", "N",
                 |o, f, v| set(&mut o.serve.scheduler.max_client_outstanding, parse_positive(f, v)?)),
        ],
        pass: Pass::Own, run: cmd_serve },
    Command { name: "submit", args: "", note: "send a grid to a daemon, stream the results", misuse: "",
        flags: &[Flag::ADDR, flag("--client", "NAME", |o, _, v| set(&mut o.client, Some(v.into())))],
        pass: Pass::Grid(&["--threads", "--serial", "--cache"]), run: cmd_submit },
    Command { name: "serve-ctl", args: "<ping|stats|shutdown>", note: "ping, inspect or stop a running daemon",
        misuse: "usage: noc-cli serve-ctl <ping|stats|shutdown> [--addr HOST:PORT]",
        flags: &[Flag::ADDR], pass: Pass::Own, run: cmd_serve_ctl },
    Command { name: "workload", args: "<parse|describe> <label>", note: "validate or describe a workload label",
        misuse: "usage: noc-cli workload <parse|describe> <label>   (label grammar: \
                 ph[<pattern>:<process>[:<len>][@cycles]|…], processes: bern<rate>, \
                 burst<rate_on>x<switch>, pulse<rate>x<period>x<on>; lengths: \
                 len<flits>, lenU<min>-<max>, lenB<short>-<long>p<pct>)",
        flags: &[], pass: Pass::Own, run: cmd_workload },
    Command { name: "bench", args: "", note: "timed perf suite -> BENCH_<sha>.json", misuse: "",
        flags: &[
            flag("--quick", "", |o, _, _| set(&mut o.bench.quick, true)),
            flag("--repeats", "N", |o, f, v| set(&mut o.bench.repeats, Some(parse_positive(f, v)?))),
            flag("--out", "bench.json", |o, _, v| set(&mut o.bench.out, Some(v.into()))),
            flag("--sha", "SHA", |o, _, v| set(&mut o.bench.sha, Some(v.into()))),
        ],
        pass: Pass::Own, run: cmd_bench },
    Command { name: "train", args: "<out.json>", note: "train a DQN policy on any scenario",
        misuse: "usage: noc-cli train <out.json> [--episodes N] [--max-steps N] \
                 [run scenario flags: --topology --size --pattern --rate --workload --faults \
                 --seed --config ...]",
        flags: &[Flag::EPISODES, Flag::MAX_STEPS], pass: Pass::Run, run: cmd_train },
    Command { name: "train-grid", args: "<zoo-dir>", note: "train a population into a zoo directory",
        misuse: "expected exactly one positional argument: <zoo-dir>",
        flags: &[
            flag("--variants", "default,small", |o, _, v| set(&mut o.variants, Some(parse_variants(v)?))),
            Flag::FAMILIES,
            Flag::EPISODES,
            Flag::MAX_STEPS,
            flag("--epochs-per-episode", "N",
                 |o, f, v| set(&mut o.epochs_per_episode, Some(parse_positive(f, v)?))),
            Flag::THREADS,
        ],
        pass: Pass::Run, run: cmd_train_grid },
    Command { name: "tournament", args: "<zoo-dir>", note: "score every zoo policy x scenario family",
        misuse: "expected exactly one positional argument: <zoo-dir>",
        flags: &[
            Flag::FAMILIES,
            flag("--epochs", "N", |o, f, v| set(&mut o.epochs, Some(parse_value(f, v)?))),
            Flag::THREADS,
            Flag::OUT,
        ],
        pass: Pass::Run, run: cmd_tournament },
    Command { name: "evaluate", args: "<policy.json>", note: "run a saved policy against the baselines",
        misuse: "evaluate requires a policy path", flags: &[], pass: Pass::Own,
        run: |a| cmd_evaluate(&row("evaluate").parse(a)?.pos[0]) },
    Command { name: "replay", args: "<trace.csv> [period]", note: "replay a packet trace (CSV)",
        misuse: "replay requires <trace.csv> [period]", flags: &[], pass: Pass::Own,
        run: |a| parse_replay_args(a).and_then(|(path, period)| cmd_replay(path, period)) },
    Command { name: "default-config", args: "", note: "print the default SimConfig as JSON",
        misuse: "default-config takes no arguments", flags: &[], pass: Pass::Own,
        run: |a| row("default-config").parse(a).and_then(|_| cmd_default_config()) },
];

/// The `COMMANDS` row named `name`.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn row(name: &str) -> &'static Command {
    command(name).expect("a COMMANDS row")
}

impl Command {
    /// Sort `args` into this command's `(flag, value)` pairs, positionals
    /// and pass-through arguments, in command-line order. An unknown flag
    /// is rejected before a value is demanded, so `--bogus` as the last
    /// argument is diagnosed as unknown, not as missing a value.
    fn scan(&self, args: &[String]) -> Result<Opts, CliError> {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut take_value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| CliError(format!("{arg} requires a value")))
            };
            if let Some(flag) = self.flags.iter().find(|f| f.name == arg.as_str()) {
                let value = if flag.value.is_empty() {
                    ""
                } else {
                    take_value()?
                };
                o.pairs.push((flag, value.to_string()));
            } else if let Pass::Grid(exec) = self.pass {
                if exec.contains(&arg.as_str()) {
                    return Err(CliError(format!(
                        "{arg} does not apply to {}: execution happens on the daemon",
                        self.name
                    )));
                }
                o.rest.push(arg.clone());
            } else if self.flags.is_empty() || !(self.args.is_empty() || arg.starts_with("--")) {
                // A flagless command takes every argument verbatim (`sweep -0.1 …`,
                // `workload parse --x`); others take only non-flags, if any.
                o.pos.push(arg.clone());
            } else if self.pass == Pass::Run {
                o.rest.extend([arg.clone(), take_value()?.to_string()]);
            } else if !self.args.is_empty() {
                return Err(self.misuse());
            } else {
                let (switches, values): (Vec<&Flag>, Vec<&Flag>) =
                    self.flags.iter().partition(|f| f.value.is_empty());
                let expected: Vec<&str> = values.iter().map(|f| f.name).collect();
                let or: String = switches
                    .iter()
                    .map(|f| format!(", or {}", f.name))
                    .collect();
                let (name, expected) = (self.name, expected.join(", "));
                let e = format!("unknown {name} flag `{arg}` (expected {expected}{or})");
                return Err(CliError(e));
            }
        }
        Ok(o)
    }

    /// Apply the scanned pairs in order, then check the positional count.
    fn apply(&self, mut o: Opts) -> Result<Opts, CliError> {
        for (flag, value) in std::mem::take(&mut o.pairs) {
            (flag.set)(&mut o, flag.name, &value)?;
        }
        let words = self.args.split_whitespace();
        let accepted = words.clone().filter(|w| w.starts_with('<')).count()..=words.count();
        (accepted.contains(&o.pos.len()).then_some(o)).ok_or_else(|| self.misuse())
    }

    fn parse(&self, args: &[String]) -> Result<Opts, CliError> {
        self.apply(self.scan(args)?)
    }

    fn misuse(&self) -> CliError {
        CliError(self.misuse.to_string())
    }
}

/// What `noc-cli` prints when no command matches: one line per
/// `COMMANDS` row, then its flags, four to a line.
pub fn usage() -> String {
    let mut text = String::from("usage: noc-cli <command> [arguments] [flags]\n");
    for c in &COMMANDS {
        let synopsis = format!("{} {}", c.name, c.args);
        text += &format!("\n  {:<36} {}\n", synopsis.trim_end(), c.note);
        let mut words: Vec<String> = (c.flags.iter())
            .map(|f| format!("{} {}", f.name, f.value).trim_end().to_string())
            .collect();
        match c.pass {
            Pass::Own => {}
            Pass::Run => words.push("plus the run flags".into()),
            Pass::Grid(exec) => {
                words.push(format!("plus the sweep-grid flags but {}", exec.join(" ")))
            }
        }
        for line in words.chunks(4) {
            text += &format!("      {}\n", line.join("  "));
        }
    }
    text
}

/// Load a `SimConfig` from a JSON file, or the default when no path is given.
pub fn load_config(path: Option<&str>) -> Result<SimConfig, CliError> {
    match path {
        Some(p) => {
            let text = fs::read_to_string(p)?;
            let cfg: SimConfig = serde_json::from_str(&text)?;
            cfg.validate()?;
            Ok(cfg)
        }
        None => Ok(SimConfig::default()),
    }
}

/// Print the human-readable report of a finished classic run.
fn print_run_summary(sim: &Simulator, run: &RunSummary) {
    let w = &run.window;
    let p95 = sim.stats().latency_percentile_display(0.95);
    let cycles = |c: f64| format!("{c:.2} cycles");
    let rate = |r: f64| format!("{r:.4} flits/node/cycle");
    let nj = |pj: f64| format!("{:.1} nJ", pj / 1e3);
    let mut rows = vec![
        ("cycles measured", w.cycles.to_string()),
        ("avg packet latency", cycles(w.avg_packet_latency)),
        ("avg network latency", cycles(w.avg_network_latency)),
        ("avg hops", format!("{:.2}", w.avg_hops)),
        ("throughput", rate(w.throughput)),
        ("offered (accepted)", rate(w.injection_rate)),
        ("energy", nj(w.energy_pj)),
        ("  dynamic", nj(w.dynamic_pj)),
        ("  leakage", nj(w.leakage_pj)),
        ("EDP", format!("{:.3}e6 pJ·cycles", w.edp() / 1e6)),
        ("p95 latency (bucket)", format!("{p95} cycles")),
    ];
    if w.dropped_packets > 0 || w.avg_dead_links > 0.0 {
        let dropped = format!("{} packets / {} flits", w.dropped_packets, w.dropped_flits);
        rows.push(("dropped (faults)", dropped));
        rows.push(("mean dead links", format!("{:.1}", w.avg_dead_links)));
    }
    rows.push(("saturated", run.saturated.to_string()));
    for (label, value) in rows {
        println!("{label:<21}: {value}");
    }
    let map = sim
        .stats()
        .utilization_heatmap(sim.config().width, sim.config().height);
    if !map.is_empty() {
        println!("link utilization (per router):\n{map}");
    }
}

/// `simulate`: one warmup/measure/drain run, human-readable report.
pub fn cmd_simulate(config_path: Option<&str>) -> Result<(), CliError> {
    let cfg = load_config(config_path)?;
    let mut sim = Simulator::new(cfg)?;
    let run = sim.run_classic(2000, 8000, 8000);
    print_run_summary(&sim, &run);
    Ok(())
}

/// Parse `sweep`'s positionals `<rate0> <rate1> <steps>`.
///
/// # Errors
/// Returns a usage error unless there are exactly two rates and a step
/// count that is a plain unsigned integer.
pub fn parse_sweep_args(args: &[String]) -> Result<(f64, f64, usize), CliError> {
    let pos = row("sweep").parse(args)?.pos;
    Ok((
        parse_value("rate0", &pos[0])?,
        parse_value("rate1", &pos[1])?,
        parse_value("steps", &pos[2])?,
    ))
}

/// `sweep`: latency/throughput across an injection-rate range.
pub fn cmd_sweep(rate0: f64, rate1: f64, steps: usize) -> Result<(), CliError> {
    if steps < 2 || !(0.0..=1.0).contains(&rate0) || !(0.0..=1.0).contains(&rate1) {
        return Err(CliError("sweep needs rates in [0,1] and >= 2 steps".into()));
    }
    let grid = SweepGrid {
        sizes: vec![(8, 8)],
        patterns: vec![TrafficPattern::Uniform],
        rates: (0..steps)
            .map(|i| rate0 + (rate1 - rate0) * i as f64 / (steps - 1) as f64)
            .collect(),
        warmup: 1500,
        measure: 5000,
        drain: 5000,
        ..SweepGrid::default()
    };
    let report = grid.run(noc_selfconf::default_threads())?;
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "rate", "latency", "throughput", "saturated"
    );
    for (rate, s) in grid.rates.iter().zip(&report.scenarios) {
        println!(
            "{:>8.3} {:>12.1} {:>12.4} {:>10}",
            rate,
            s.metrics.avg_packet_latency,
            s.metrics.throughput,
            if s.saturated { "yes" } else { "no" }
        );
    }
    Ok(())
}

fn parse_size(s: &str) -> Result<(usize, usize), CliError> {
    let (w, h) = s
        .split_once('x')
        .ok_or_else(|| CliError(format!("bad size `{s}` (expected WxH, e.g. 8x8)")))?;
    let parse = |v: &str| {
        v.parse::<usize>()
            .map_err(|e| CliError(format!("bad size `{s}`: {e}")))
    };
    Ok((parse(w)?, parse(h)?))
}

/// Parse `value` as a `what` (a flag like `--seed`, or a noun like `rate`
/// for a list item), naming both in the error.
fn parse_value<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    value
        .parse()
        .map_err(|e| CliError(format!("bad {what} `{value}`: {e}")))
}

/// Parse an unsigned count that must be at least 1 (`--threads`,
/// `--repeats`, ...); `T::default()` is its zero.
fn parse_positive<T>(flag: &str, value: &str) -> Result<T, CliError>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: fmt::Display,
{
    let n: T = parse_value(flag, value)?;
    if n == T::default() {
        return Err(CliError(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parse a comma-separated `flag` value; empty items are skipped, but at
/// least one must remain.
fn parse_list<T, E>(
    flag: &str,
    value: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, CliError>
where
    CliError: From<E>,
{
    let items: Result<Vec<T>, CliError> = value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| Ok(parse(s.trim())?))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(CliError(format!("{flag} needs at least one value")));
    }
    Ok(items)
}

/// How `sweep-grid` should execute and where the report goes.
#[derive(Debug)]
pub struct SweepGridOptions {
    /// The grid to run.
    pub grid: SweepGrid,
    /// Worker threads (`None` = one per available core).
    pub threads: Option<usize>,
    /// Run on the calling thread only (equivalent results, no pool).
    pub serial: bool,
    /// Write the JSON report here instead of stdout.
    pub out: Option<String>,
    /// Content-addressed result cache directory: scenarios already present
    /// are loaded instead of simulated, fresh ones are stored for next time.
    pub cache: Option<String>,
}

/// Parse `sweep-grid` flags into a grid + execution options.
///
/// # Errors
/// Returns a usage error for unknown flags or malformed values.
pub fn parse_sweep_grid_args(args: &[String]) -> Result<SweepGridOptions, CliError> {
    let o = row("sweep-grid").parse(args)?;
    if o.serial && o.threads.is_some() {
        return Err(CliError("--serial and --threads conflict: pick one".into()));
    }
    if o.grid.is_empty() {
        return Err(CliError("sweep-grid: the grid is empty".into()));
    }
    Ok(SweepGridOptions {
        grid: o.grid,
        threads: o.threads,
        serial: o.serial,
        out: o.out,
        cache: o.cache,
    })
}

/// `sweep-grid`: run a scenario grid in parallel and emit one aggregated
/// JSON report (stdout, or `--out <file>`). The `--topologies` axis sweeps
/// topology kinds (`mesh,torus` — each routing is mapped to its counterpart
/// on the other family, and torus scenarios carry a `/t:torus` label
/// segment); the `--faults` axis sweeps seeded-random permanent link-fault
/// counts (0 = pristine fabric); the `--workloads` axis adds explicit
/// workload specs (canonical `ph[…]` labels) alongside the `--patterns` ×
/// `--rates` points.
///
/// # Errors
/// Returns an error for bad flags, invalid configurations, or IO failures.
pub fn cmd_sweep_grid(args: &[String]) -> Result<(), CliError> {
    let opts = parse_sweep_grid_args(args)?;
    let threads = if opts.serial {
        1
    } else {
        opts.threads.unwrap_or_else(noc_selfconf::default_threads)
    };
    let report = match &opts.cache {
        Some(dir) => {
            let cache = ResultCache::open(std::path::Path::new(dir))
                .map_err(|e| CliError(format!("cannot open cache dir `{dir}`: {e}")))?;
            let report = opts.grid.run_cached(threads, &cache)?;
            let stats = cache.stats();
            eprintln!(
                "sweep-grid: cache {dir}: {} memory / {} disk hit(s), {} computed",
                stats.memory_hits, stats.disk_hits, stats.computed
            );
            report
        }
        None => opts.grid.run(threads)?,
    };
    // Human summary on stderr; stdout stays pure JSON for piping.
    eprintln!(
        "sweep-grid: {} scenarios on {} thread(s); {} saturated",
        report.aggregate.num_scenarios, report.threads, report.aggregate.saturated_scenarios
    );
    for r in &report.scenarios {
        let dropped = if r.metrics.dropped_packets > 0 {
            format!("  [dropped {}]", r.metrics.dropped_packets)
        } else {
            String::new()
        };
        eprintln!(
            "  {:<28} latency {:>8.2}  throughput {:>7.4}  energy {:>10.1} nJ{}{dropped}",
            r.label,
            r.metrics.avg_packet_latency,
            r.metrics.throughput,
            r.metrics.energy_pj / 1e3,
            if r.saturated { "  [saturated]" } else { "" }
        );
    }
    let json = serde_json::to_string_pretty(&report)?;
    match &opts.out {
        Some(path) => {
            fs::write(path, json.as_bytes())?;
            eprintln!("sweep-grid: report written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Parsed `run` flags: a fully resolved configuration plus window budgets.
#[derive(Debug)]
pub struct RunOptions {
    /// The simulator configuration the run uses.
    pub config: SimConfig,
    /// Warmup cycles before the measurement window.
    pub warmup: u64,
    /// Measurement-window cycles.
    pub measure: u64,
    /// Maximum drain cycles after the window.
    pub drain: u64,
}

impl Default for RunOptions {
    /// What `run` does with no flags: the default config, 1000 warmup,
    /// 4000 measured and up to 4000 drain cycles.
    fn default() -> Self {
        RunOptions {
            config: SimConfig::default(),
            warmup: 1000,
            measure: 4000,
            drain: 4000,
        }
    }
}

/// Parse `run` flags into a resolved configuration.
///
/// Starts from the default `SimConfig` (or `--config <file>`), then applies
/// the scenario flags. The routing is mapped through
/// [`RoutingAlgorithm::for_topology`] at the end, so `--topology torus`
/// works with the default (or any mesh) routing: `xy` runs as `torusdor`,
/// the adaptive mesh algorithms as `torusmin` — and vice versa on meshes.
///
/// # Errors
/// Returns a usage error for unknown flags, malformed values, or the
/// `--workload` vs `--pattern`/`--rate` conflict.
pub fn parse_run_args(args: &[String]) -> Result<RunOptions, CliError> {
    let run = row("run");
    let mut o = run.scan(args)?;
    // --config loads before the overrides regardless of argument order.
    if let Some((_, path)) = o.pairs.iter().find(|(f, _)| f.name == "--config") {
        o.run.config = load_config(Some(path))?;
    }
    let o = run.apply(o)?;
    let mut config = o.run.config;
    if o.workload.is_some() && (o.pattern.is_some() || o.rate.is_some()) {
        return Err(CliError(
            "--workload conflicts with --pattern/--rate: pick one traffic form".into(),
        ));
    }
    if let Some(w) = o.workload {
        config = config.with_workload(w);
    } else if o.pattern.is_some() || o.rate.is_some() {
        config = config.with_traffic(
            o.pattern.unwrap_or(TrafficPattern::Uniform),
            o.rate.unwrap_or(0.10),
        );
    }
    config.routing = config.routing.for_topology(config.kind);
    // An explicit --faults always overrides the base config's plan:
    // `--faults 0` clears a plan inherited from --config instead of
    // silently running a faulted fabric. The draw is the sweep engine's,
    // so `--seed <ScenarioResult.seed>` reproduces a sweep scenario's plan.
    if let Some(n) = o.faults {
        let plan = seeded_link_faults(&config, n);
        config = config.with_faults(plan);
    }
    config.validate()?;
    Ok(RunOptions { config, ..o.run })
}

/// `run`: one classic warmup/measure/drain simulation configured inline
/// (`--topology torus --size 8x8 --rate 0.12 ...`) instead of through a
/// config file — the quickest way to put a scenario, mesh or torus, on the
/// screen.
///
/// # Errors
/// Returns an error for bad flags or an invalid resolved configuration.
pub fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let opts = parse_run_args(args)?;
    let cfg = &opts.config;
    eprintln!(
        "run: {}x{} {}, {} routing, {} arbitration, {} traffic, {} fault event(s); \
         {} warmup + {} measure + {} drain cycles",
        cfg.width,
        cfg.height,
        cfg.kind.name(),
        cfg.routing.name(),
        cfg.switch_arb.name(),
        match &cfg.traffic {
            TrafficSpec::Workload(w) => w.label(),
            TrafficSpec::Trace(_) => "trace".to_string(),
        },
        cfg.fault_plan.len(),
        opts.warmup,
        opts.measure,
        opts.drain
    );
    let mut sim = Simulator::new(opts.config.clone())?;
    let run = sim.run_classic(opts.warmup, opts.measure, opts.drain);
    print_run_summary(&sim, &run);
    Ok(())
}

/// `workload`: parse and describe canonical workload labels.
///
/// * `workload parse <label>` — validate a label, then print its canonical
///   form and the JSON spec it denotes (stdout stays machine-readable).
/// * `workload describe <label>` — human-readable phase table with mean
///   rates and schedule length.
///
/// # Errors
/// Returns a usage error for unknown subcommands or malformed labels.
pub fn cmd_workload(args: &[String]) -> Result<(), CliError> {
    let workload = row("workload");
    let pos = workload.parse(args)?.pos;
    let spec = WorkloadSpec::parse(&pos[1])?;
    match pos[0].as_str() {
        "parse" => {
            eprintln!("workload: canonical label {}", spec.label());
            println!("{}", serde_json::to_string_pretty(&spec)?);
            Ok(())
        }
        "describe" => {
            println!("workload {}", spec.label());
            println!(
                "{:>2}  {:<18} {:<20} {:>10} {:>10}",
                "#", "pattern", "process", "cycles", "mean rate"
            );
            for (i, p) in spec.phases.iter().enumerate() {
                let cycles = match p.cycles {
                    0 => "forever".to_string(),
                    n => n.to_string(),
                };
                println!(
                    "{i:>2}  {:<18} {:<20} {cycles:>10} {:>10.4}",
                    p.pattern.to_string(),
                    p.process.to_string(),
                    p.process.mean_rate()
                );
            }
            let total: u64 = spec.phases.iter().map(|p| p.cycles).sum();
            if spec.phases.last().map(|p| p.cycles) == Some(0) {
                if total == 0 {
                    println!("schedule: stationary (the single phase holds forever)");
                } else {
                    println!("schedule: runs {total} cycles, then holds the final phase");
                }
            } else {
                println!("schedule: repeats every {total} cycles");
            }
            println!(
                "long-run mean rate: {:.4} flits/node/cycle",
                spec.mean_rate()
            );
            Ok(())
        }
        _ => Err(workload.misuse()),
    }
}

/// Parsed `bench` flags.
#[derive(Debug, Default)]
pub struct BenchOptions {
    /// Use the quick (smoke) suite budgets instead of the full ones.
    pub quick: bool,
    /// Override the suite's repeat count.
    pub repeats: Option<usize>,
    /// Write the report here (default: `BENCH_<git-sha>.json`).
    pub out: Option<String>,
    /// Git SHA to stamp into the report (default: auto-detected).
    pub sha: Option<String>,
    /// Suite budget override (tests use tiny budgets; not CLI-reachable).
    pub suite: Option<noc_bench::report::BenchSuiteConfig>,
}

/// Parse `bench` flags.
///
/// # Errors
/// Returns a usage error for unknown flags or malformed values.
pub fn parse_bench_args(args: &[String]) -> Result<BenchOptions, CliError> {
    Ok(row("bench").parse(args)?.bench)
}

/// Execute parsed `bench` options: run the suite, print its table and
/// write the report.
///
/// # Errors
/// Returns an error when the report cannot be written.
pub fn run_bench(opts: &BenchOptions) -> Result<(), CliError> {
    use noc_bench::report::{detect_git_sha, run_suite, BenchSuiteConfig};

    let mode = if opts.quick { "quick" } else { "full" };
    let mut suite = opts.suite.unwrap_or_else(|| {
        if opts.quick {
            BenchSuiteConfig::quick()
        } else {
            BenchSuiteConfig::full()
        }
    });
    if let Some(r) = opts.repeats {
        suite.repeats = r;
    }
    let sha = opts.sha.clone().unwrap_or_else(detect_git_sha);
    eprintln!(
        "bench: running the {mode} suite ({} repeats per workload)...",
        suite.repeats
    );
    let report = run_suite(suite, mode, sha);
    eprint!("{}", report.render_table());
    let path = opts.out.clone().unwrap_or_else(|| report.file_name());
    fs::write(&path, serde_json::to_string_pretty(&report)?)?;
    eprintln!("bench: report written to {path}");
    Ok(())
}

/// `bench`: run the timed workload suite and emit `BENCH_<sha>.json`.
pub fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    run_bench(&parse_bench_args(args)?)
}

/// Parse `train` arguments: `<out.json>` plus training flags, with every
/// remaining `--flag value` pair handed to the `run` scenario parser.
///
/// # Errors
/// Returns a usage error for missing/extra positionals or bad values.
pub fn parse_train_args(args: &[String]) -> Result<TrainOptions, CliError> {
    let o = row("train").parse(args)?;
    Ok(TrainOptions {
        out_path: o.pos[0].clone(),
        episodes: o.episodes.unwrap_or(60),
        max_steps: o.max_steps.unwrap_or(40),
        run: parse_run_args(&o.rest)?,
    })
}

/// Resolved `train` arguments.
#[derive(Debug)]
pub struct TrainOptions {
    /// Artifact output path.
    pub out_path: String,
    /// Training episodes.
    pub episodes: usize,
    /// Environment steps per episode.
    pub max_steps: usize,
    /// The training scenario (fabric, traffic, faults, seed).
    pub run: RunOptions,
}

/// The schedule `train` and `train-grid` share: one learn step per
/// environment step, ε linear from 1.0 to 0.05 over 5/8 of all steps.
fn train_config(episodes: usize, max_steps: usize, seed: u64) -> TrainConfig {
    let steps = ((episodes * max_steps) as u64 * 5 / 8).max(1);
    TrainConfig {
        episodes,
        max_steps,
        epsilon: Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps,
        },
        train_per_step: 1,
        seed,
    }
}

/// `train`: train a DQN self-configuration policy on an arbitrary scenario
/// (same flags as `run`) and save it as a versioned zoo artifact. The seed
/// comes from the scenario (`--seed`), so two invocations with the same
/// flags produce byte-identical artifacts.
pub fn cmd_train(args: &[String]) -> Result<(), CliError> {
    let opts = parse_train_args(args)?;
    let seed = opts.run.config.seed;
    let episodes = opts.episodes;
    let env_cfg = NocEnvConfig::for_sim(opts.run.config.clone(), seed);
    let train = train_config(episodes, opts.max_steps, seed);
    eprintln!(
        "training on the {}x{} {} environment (seed {seed}) for {episodes} episodes...",
        env_cfg.sim.width,
        env_cfg.sim.height,
        env_cfg.sim.kind.name()
    );
    let policy = train_drl(
        env_cfg.clone(),
        DqnConfig::default().with_seed(seed),
        train.clone(),
    )?;
    let quarter = (policy.curve.len() / 4).max(1);
    let late: f64 = policy.curve[policy.curve.len() - quarter..]
        .iter()
        .map(|e| e.total_reward)
        .sum::<f64>()
        / quarter as f64;
    eprintln!("final mean episode return: {late:.2}");
    let artifact = zoo::PolicyArtifact::from_dqn(&policy, env_cfg, train)?;
    artifact.save(Path::new(&opts.out_path))?;
    println!(
        "saved policy to {} (config hash {})",
        opts.out_path, artifact.config_hash
    );
    Ok(())
}

/// `evaluate`: score a saved policy against the three baselines on the
/// default mesh — a 4 × 1 tournament matrix, so all four controllers run
/// the identical simulation and a policy trained for a different fabric is
/// rejected by the matrix's structured compatibility check.
pub fn cmd_evaluate(policy_path: &str) -> Result<(), CliError> {
    let artifact = zoo::PolicyArtifact::load(Path::new(policy_path))?;
    eprintln!(
        "loaded {} policy from {policy_path} (config hash {})",
        artifact.kind_name(),
        artifact.config_hash
    );
    let mut entrants = zoo::Entrant::baselines();
    entrants.push((policy_path.to_string(), artifact.into()));
    let config = zoo::TournamentConfig {
        families: vec![zoo::ScenarioFamily::parse("mesh/uniform/r0.12")?],
        epochs: 40,
        ..zoo::TournamentConfig::default()
    };
    let report = zoo::tournament_matrix(&entrants, &config, noc_selfconf::default_threads())?;
    println!(
        "{:>12} {:>10} {:>12} {:>12} {:>10}",
        "controller", "latency", "energy (nJ)", "EDP (e6)", "mean lvl"
    );
    for cell in &report.cells {
        println!(
            "{:>12} {:>10.1} {:>12.1} {:>12.2} {:>10.2}",
            cell.aggregate.controller,
            cell.aggregate.avg_latency,
            cell.aggregate.energy_pj / 1e3,
            cell.aggregate.edp / 1e6,
            cell.aggregate.mean_level
        );
    }
    Ok(())
}

fn parse_families(spec: &str) -> Result<Vec<zoo::ScenarioFamily>, CliError> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| zoo::ScenarioFamily::parse(s).map_err(CliError::from))
        .collect()
}

fn parse_variants(spec: &str) -> Result<Vec<zoo::DqnVariant>, CliError> {
    (spec.split(',').filter(|s| !s.is_empty()))
        .map(|n| Ok(zoo::dqn_variant(n)?))
        .collect()
}

/// `train-grid`: train a population of DQN variants × scenario families
/// into a zoo directory. Parallel over members, yet the artifacts and
/// manifest are byte-identical for every `--threads` value (SplitMix64
/// per-member seeds off the master `--seed`).
pub fn cmd_train_grid(args: &[String]) -> Result<(), CliError> {
    let o = row("train-grid").parse(args)?;
    let out_dir = &o.pos[0];
    let run = parse_run_args(&o.rest)?;
    let variants = match o.variants {
        Some(v) => v,
        None => parse_variants("default,small")?,
    };
    let families = match o.families {
        Some(f) => f,
        None => parse_families("mesh/uniform/r0.1,torus/uniform/r0.1/f2")?,
    };
    let episodes = o.episodes.unwrap_or(20);
    let max_steps = o.max_steps.unwrap_or(40);
    let epochs_per_episode = o.epochs_per_episode.unwrap_or(40);
    let threads = o.threads.unwrap_or_else(noc_selfconf::default_threads);
    let base_seed = run.config.seed;
    let grid = zoo::ZooGrid {
        base: run.config,
        variants,
        families,
        train: train_config(episodes, max_steps, base_seed), // seed overwritten per member
        epoch_cycles: 500,
        epochs_per_episode,
        base_seed,
    };
    eprintln!(
        "train-grid: {} variants x {} families = {} members on {threads} threads \
         (seed {base_seed})",
        grid.variants.len(),
        grid.families.len(),
        grid.len()
    );
    let manifest = zoo::train_grid(&grid, Path::new(&out_dir), threads)?;
    for member in &manifest.members {
        println!(
            "{}  seed={}  hash={}",
            member.name, member.seed, member.config_hash
        );
    }
    println!(
        "trained {} policies into {out_dir} (manifest.json written)",
        manifest.members.len()
    );
    Ok(())
}

/// `tournament`: score every policy in a zoo directory against every
/// scenario family and print the generalization matrix. The report is
/// deterministic and byte-identical for every `--threads` value.
pub fn cmd_tournament(args: &[String]) -> Result<(), CliError> {
    let o = row("tournament").parse(args)?;
    let run = parse_run_args(&o.rest)?;
    let mut config = zoo::TournamentConfig {
        base: run.config,
        ..zoo::TournamentConfig::default()
    };
    config.base_seed = config.base.seed;
    config.families = o.families.unwrap_or(config.families);
    config.epochs = o.epochs.unwrap_or(config.epochs);
    let threads = o.threads.unwrap_or_else(noc_selfconf::default_threads);
    let entrants: Vec<(String, zoo::Entrant)> = zoo::load_zoo(Path::new(&o.pos[0]))?
        .into_iter()
        .map(|(name, artifact)| (name, artifact.into()))
        .collect();
    let report = zoo::tournament_matrix(&entrants, &config, threads)?;
    println!(
        "tournament: {} policies x {} families (seed {})",
        report.policies.len(),
        report.config.families.len(),
        report.config.base_seed
    );
    println!(
        "\n{:<44} {:>10} {:>10} {:>10}",
        "cell", "score", "latency", "mean lvl"
    );
    for cell in &report.cells {
        println!(
            "{:<44} {:>10.3} {:>10.1} {:>10.2}",
            format!("{} @ {}", cell.policy, cell.family),
            cell.score,
            cell.aggregate.avg_latency,
            cell.aggregate.mean_level
        );
    }
    println!("\nbest policy per family:");
    for best in &report.best_by_family {
        println!("{:<36} {} ({:.3})", best.family, best.policy, best.score);
    }
    println!("\nmean score per policy (generalization):");
    for mean in &report.mean_score_by_policy {
        println!("{:<44} {:.3}", mean.policy, mean.mean_score);
    }
    if let Some(path) = o.out {
        fs::write(&path, serde_json::to_string_pretty(&report)?)?;
        println!("\nwrote {path}");
    }
    Ok(())
}

/// Parse `replay`'s positionals `<trace.csv> [period]`.
///
/// # Errors
/// Returns a usage error for a missing trace path or a period that is not
/// a positive integer.
pub fn parse_replay_args(args: &[String]) -> Result<(&str, Option<u64>), CliError> {
    // `replay` declares no flags, so `args` are exactly its positionals.
    row("replay").parse(args)?;
    let period = args.get(1).map(|p| parse_positive("period", p));
    Ok((&args[0], period.transpose()?))
}

/// `replay`: drive the default mesh with a packet trace from a CSV file
/// (`cycle,src,dst,len` per line) and report delivery statistics.
pub fn cmd_replay(trace_path: &str, repeat_every: Option<u64>) -> Result<(), CliError> {
    let text = fs::read_to_string(trace_path)?;
    let trace = PacketTrace::from_csv(&text, repeat_every)?;
    let n_events = trace.len();
    let cfg = SimConfig::default().with_traffic_spec(TrafficSpec::Trace(trace));
    let mut sim = Simulator::new(cfg)?;
    // Run until the trace drains (or a generous bound for repeating traces).
    let bound: u64 = repeat_every.map_or(200_000, |_| 50_000);
    let mut idle_streak = 0u32;
    for _ in 0..bound / 100 {
        sim.run(100);
        if repeat_every.is_none() {
            if sim.network().in_flight() == 0 && sim.stats().offered_packets as usize >= n_events {
                idle_streak += 1;
                if idle_streak > 2 {
                    break;
                }
            } else {
                idle_streak = 0;
            }
        }
    }
    let s = sim.stats();
    println!("trace events         : {n_events}");
    println!("packets delivered    : {}", s.ejected_packets);
    println!(
        "avg packet latency   : {:.2} cycles",
        s.avg_packet_latency()
    );
    println!(
        "p95 latency (bucket) : {} cycles",
        s.latency_percentile_display(0.95)
    );
    println!("energy               : {:.1} nJ", s.energy.total_pj() / 1e3);
    println!("cycles simulated     : {}", sim.cycle());
    Ok(())
}

/// `default-config`: dump the default `SimConfig` as editable JSON.
pub fn cmd_default_config() -> Result<(), CliError> {
    println!("{}", serde_json::to_string_pretty(&SimConfig::default())?);
    Ok(())
}

/// Default daemon address shared by `serve`, `submit`, and `serve-ctl`.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:4600";

/// Parse `serve` flags into a daemon configuration.
///
/// # Errors
/// Returns a usage error for unknown flags or malformed values.
pub fn parse_serve_args(args: &[String]) -> Result<ServeConfig, CliError> {
    let o = row("serve").parse(args)?;
    Ok(ServeConfig {
        addr: o.addr.unwrap_or_else(|| DEFAULT_SERVE_ADDR.into()),
        verbose: true,
        ..o.serve
    })
}

/// `serve`: run the sweep daemon until a client sends `shutdown`.
///
/// Prints the bound address on stdout (one line, then flushes) so scripts
/// can wait for readiness; lifecycle logs go to stderr.
///
/// # Errors
/// Returns bind errors and unwritable-cache-directory errors (the daemon
/// refuses to start rather than failing jobs later).
pub fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let config = parse_serve_args(args)?;
    let daemon = Daemon::start(config).map_err(|e| CliError(format!("serve: {e}")))?;
    println!("listening on {}", daemon.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.wait();
    Ok(())
}

/// Parsed `submit` flags: where to send the grid and what to do with it.
#[derive(Debug)]
pub struct SubmitOptions {
    /// Daemon address.
    pub addr: String,
    /// Client identity for fair-share scheduling.
    pub client: String,
    /// The grid to submit.
    pub grid: SweepGrid,
    /// Write the final JSON report here (in addition to the event stream).
    pub out: Option<String>,
}

/// Parse `submit` flags: `--addr` / `--client` plus every `sweep-grid`
/// grid axis flag (`--sizes`, `--rates`, `--out`, ...).
///
/// # Errors
/// Returns a usage error for unknown flags, malformed values, or the
/// execution flags (`--threads`, `--serial`, `--cache`)
/// that do not apply to daemon-side execution.
pub fn parse_submit_args(args: &[String]) -> Result<SubmitOptions, CliError> {
    let o = row("submit").parse(args)?;
    let opts = parse_sweep_grid_args(&o.rest)?;
    Ok(SubmitOptions {
        addr: o.addr.unwrap_or_else(|| DEFAULT_SERVE_ADDR.into()),
        client: o.client.unwrap_or_else(|| "cli".into()),
        grid: opts.grid,
        out: opts.out,
    })
}

/// `submit`: send a grid to a running daemon and stream the response.
///
/// Every event line the daemon sends is echoed verbatim to stdout — for
/// one submitted grid the stream is deterministic, which is what the CI
/// smoke test byte-compares across concurrent clients. With `--out`, the
/// final report is also written as pretty JSON.
///
/// # Errors
/// Returns connection errors, daemon-side rejections, and job failures
/// (so the process exits non-zero).
pub fn cmd_submit(args: &[String]) -> Result<(), CliError> {
    let opts = parse_submit_args(args)?;
    let mut conn = ServeClient::connect(&opts.addr)
        .map_err(|e| CliError(format!("cannot connect to daemon at {}: {e}", opts.addr)))?;
    conn.send(&Request::Submit {
        client: opts.client.clone(),
        grid: Box::new(opts.grid.clone()),
    })?;
    loop {
        let line = conn.recv_line()?;
        println!("{line}");
        let event =
            Event::parse(&line).map_err(|e| CliError(format!("malformed daemon reply: {e}")))?;
        let failure = match event {
            Event::Accepted { .. } | Event::Result { .. } => continue,
            Event::Done { report, .. } => {
                eprintln!(
                    "submit: {} scenarios done ({} saturated)",
                    report.aggregate.num_scenarios, report.aggregate.saturated_scenarios
                );
                if let Some(path) = &opts.out {
                    fs::write(path, serde_json::to_string_pretty(report.as_ref())?)?;
                    eprintln!("submit: report written to {path}");
                }
                return Ok(());
            }
            Event::Canceled { completed, .. } => {
                format!("job canceled after {completed} scenario(s)")
            }
            Event::Failed { message, .. } => format!("job failed: {message}"),
            Event::Error { code, message } => {
                format!("daemon rejected submit ({}): {message}", code.name())
            }
            other => format!("unexpected daemon reply: {}", other.render()),
        };
        return Err(CliError(failure));
    }
}

/// `serve-ctl`: one-shot control commands against a running daemon
/// (`ping`, `stats`, `shutdown`). Prints the raw reply line on stdout.
///
/// # Errors
/// Returns connection errors, malformed replies, and daemon-side errors.
pub fn cmd_serve_ctl(args: &[String]) -> Result<(), CliError> {
    let serve_ctl = row("serve-ctl");
    let o = serve_ctl.parse(args)?;
    let request = match o.pos[0].as_str() {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        _ => return Err(serve_ctl.misuse()),
    };
    let addr = o.addr.unwrap_or_else(|| DEFAULT_SERVE_ADDR.into());
    let mut conn = ServeClient::connect(&addr)
        .map_err(|e| CliError(format!("cannot connect to daemon at {addr}: {e}")))?;
    conn.send(&request)?;
    let line = conn.recv_line()?;
    println!("{line}");
    match Event::parse(&line).map_err(|e| CliError(format!("malformed daemon reply: {e}")))? {
        Event::Error { code, message } => Err(CliError(format!(
            "daemon error ({}): {message}",
            code.name()
        ))),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_loads_when_no_path() {
        let cfg = load_config(None).unwrap();
        assert_eq!(cfg, SimConfig::default());
    }

    #[test]
    fn config_roundtrips_through_json_file() {
        let dir = std::env::temp_dir().join("noc_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfg.json");
        let cfg = SimConfig::default().with_size(4, 4).with_seed(5);
        fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let loaded = load_config(Some(path.to_str().unwrap())).unwrap();
        assert_eq!(loaded, cfg);
    }

    #[test]
    fn invalid_config_file_is_rejected() {
        let dir = std::env::temp_dir().join("noc_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        fs::write(&path, "{\"not\": \"a config\"}").unwrap();
        assert!(load_config(Some(path.to_str().unwrap())).is_err());
        assert!(load_config(Some("/nonexistent/file.json")).is_err());
    }

    #[test]
    fn sweep_validates_arguments() {
        assert!(cmd_sweep(0.5, 0.1, 1).is_err());
        assert!(cmd_sweep(-0.1, 0.5, 3).is_err());
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sweep_grid_args_build_the_grid() {
        let opts = parse_sweep_grid_args(&strings(&[
            "--sizes",
            "4x4,8x8",
            "--patterns",
            "uniform,tornado",
            "--rates",
            "0.05,0.1,0.2",
            "--routings",
            "xy,oddeven",
            "--levels",
            "none,2",
            "--faults",
            "0,1",
            "--warmup",
            "100",
            "--measure",
            "400",
            "--drain",
            "300",
            "--seed",
            "9",
            "--threads",
            "3",
        ]))
        .unwrap();
        let g = &opts.grid;
        assert_eq!(g.sizes, vec![(4, 4), (8, 8)]);
        assert_eq!(
            g.patterns,
            vec![TrafficPattern::Uniform, TrafficPattern::Tornado]
        );
        assert_eq!(g.rates, vec![0.05, 0.1, 0.2]);
        assert_eq!(
            g.routings,
            vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven]
        );
        assert_eq!(g.levels, vec![None, Some(2)]);
        assert_eq!(g.faults, vec![0, 1]);
        assert_eq!(
            (g.warmup, g.measure, g.drain, g.base_seed),
            (100, 400, 300, 9)
        );
        assert_eq!(opts.threads, Some(3));
        assert!(!opts.serial);
        assert_eq!(g.len(), 2 * 2 * 3 * 2 * 2 * 2);
    }

    #[test]
    fn sweep_grid_workloads_flag_parses_the_grammar() {
        use noc_sim::{InjectionProcess, WorkloadPhase};
        let opts = parse_sweep_grid_args(&strings(&[
            "--workloads",
            "ph[uniform:burst0.3x0.05],ph[uniform:bern0.02@400|tornado:pulse0.3x100x40@400]",
        ]))
        .unwrap();
        assert_eq!(
            opts.grid.workloads,
            vec![
                WorkloadSpec::stationary(
                    TrafficPattern::Uniform,
                    InjectionProcess::Bursty {
                        rate_on: 0.3,
                        switch: 0.05
                    }
                ),
                WorkloadSpec::new(vec![
                    WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.02, 400),
                    WorkloadPhase::new(
                        TrafficPattern::Tornado,
                        InjectionProcess::Periodic {
                            rate: 0.3,
                            period: 100,
                            on: 40
                        },
                        400
                    ),
                ]),
            ]
        );
        // Two extra traffic points per size/routing/level/fault combination.
        assert_eq!(opts.grid.len(), 2 * (2 * 2 + 2));
        assert!(parse_sweep_grid_args(&strings(&["--workloads", "ph[oops]"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--workloads", "uniform:bern0.1"])).is_err());
    }

    #[test]
    fn sweep_grid_arb_flag_reaches_every_scenario() {
        let opts = parse_sweep_grid_args(&strings(&["--arb", "perpacket"])).unwrap();
        assert_eq!(opts.grid.base.switch_arb, noc_sim::SwitchArb::PerPacket);
        for s in opts.grid.scenarios() {
            assert_eq!(s.config.switch_arb, noc_sim::SwitchArb::PerPacket);
        }
        let opts = parse_sweep_grid_args(&strings(&[])).unwrap();
        assert_eq!(opts.grid.base.switch_arb, noc_sim::SwitchArb::PerFlit);
        assert!(parse_sweep_grid_args(&strings(&["--arb", "storeforward"])).is_err());
    }

    #[test]
    fn hotspot_patterns_parse_from_the_cli() {
        use noc_sim::NodeId;
        let opts =
            parse_sweep_grid_args(&strings(&["--patterns", "uniform,hotspot5-6f0.3"])).unwrap();
        assert_eq!(
            opts.grid.patterns,
            vec![
                TrafficPattern::Uniform,
                TrafficPattern::Hotspot {
                    hotspots: vec![NodeId(5), NodeId(6)],
                    fraction: 0.3
                }
            ]
        );
        assert!(parse_sweep_grid_args(&strings(&["--patterns", "hotspotf0.3"])).is_err());
    }

    #[test]
    fn workload_subcommand_parses_and_describes() {
        let label = "ph[uniform:bern0.05@400|tornado:burst0.3x0.05@400]".to_string();
        assert!(cmd_workload(&[strings(&["parse"]), vec![label.clone()]].concat()).is_ok());
        assert!(cmd_workload(&[strings(&["describe"]), vec![label.clone()]].concat()).is_ok());
        // Stationary + hold-forever labels describe cleanly too.
        assert!(cmd_workload(&strings(&[
            "describe",
            "ph[hotspot0-5f0.25:pulse0.4x100x20]"
        ]))
        .is_ok());
        assert!(cmd_workload(&strings(&["parse"])).is_err());
        assert!(cmd_workload(&strings(&["parse", "ph[oops]"])).is_err());
        assert!(cmd_workload(&strings(&["frobnicate", &label])).is_err());
        assert!(cmd_workload(&strings(&["parse", &label, "extra"])).is_err());
    }

    #[test]
    fn sweep_grid_topologies_flag_parses() {
        let opts = parse_sweep_grid_args(&strings(&[
            "--topologies",
            "mesh,torus",
            "--routings",
            "xy",
        ]))
        .unwrap();
        assert_eq!(
            opts.grid.topologies,
            vec![TopologyKind::Mesh, TopologyKind::Torus]
        );
        // 2 sizes x 2 topologies x (2 patterns x 2 rates) x 1 routing each.
        assert_eq!(opts.grid.len(), 16);
        assert!(parse_sweep_grid_args(&strings(&["--topologies", "ring"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--topologies", ""])).is_err());
        // Old invocations keep the mesh-only default.
        let opts = parse_sweep_grid_args(&[]).unwrap();
        assert_eq!(opts.grid.topologies, vec![TopologyKind::Mesh]);
    }

    #[test]
    fn run_args_resolve_topology_and_routing() {
        // Defaults: the stock 8x8 mesh config.
        let opts = parse_run_args(&[]).unwrap();
        assert_eq!(opts.config, SimConfig::default());
        assert_eq!((opts.warmup, opts.measure, opts.drain), (1000, 4000, 4000));
        // --topology torus maps the default xy routing to torusdor.
        let opts = parse_run_args(&strings(&["--topology", "torus"])).unwrap();
        assert_eq!(opts.config.kind, TopologyKind::Torus);
        assert_eq!(opts.config.routing, RoutingAlgorithm::TorusDor);
        assert!(opts.config.validate().is_ok());
        // An adaptive mesh routing maps to the adaptive torus algorithm.
        let opts = parse_run_args(&strings(&[
            "--topology",
            "torus",
            "--routing",
            "oddeven",
            "--size",
            "4x4",
            "--rate",
            "0.12",
            "--faults",
            "2",
            "--seed",
            "9",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--drain",
            "30",
        ]))
        .unwrap();
        assert_eq!(opts.config.routing, RoutingAlgorithm::TorusMinAdaptive);
        assert_eq!((opts.config.width, opts.config.height), (4, 4));
        assert_eq!(opts.config.seed, 9);
        assert_eq!(opts.config.fault_plan.len(), 2);
        assert!(opts
            .config
            .fault_plan
            .validate(&opts.config.topology())
            .is_ok());
        assert_eq!((opts.warmup, opts.measure, opts.drain), (10, 20, 30));
        // An explicit --faults 0 clears a fault plan inherited from
        // --config instead of silently running the faulted fabric.
        let dir = std::env::temp_dir().join("noc_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let faulted_path = dir.join("faulted_base.json");
        let faulted = SimConfig::default().with_faults(noc_sim::FaultPlan::random_links(
            &SimConfig::default().topology(),
            3,
            1,
            0,
            None,
        ));
        fs::write(&faulted_path, serde_json::to_string(&faulted).unwrap()).unwrap();
        let base = faulted_path.to_str().unwrap().to_string();
        let opts = parse_run_args(&strings(&["--config", &base])).unwrap();
        assert_eq!(opts.config.fault_plan.len(), 3, "config plan inherited");
        let opts = parse_run_args(&strings(&["--config", &base, "--faults", "0"])).unwrap();
        assert!(
            opts.config.fault_plan.is_empty(),
            "--faults 0 must clear it"
        );
        let opts = parse_run_args(&strings(&["--config", &base, "--faults", "1"])).unwrap();
        assert_eq!(opts.config.fault_plan.len(), 1, "--faults N must override");
        // Torus routing on a mesh maps back to its mesh counterpart.
        let opts = parse_run_args(&strings(&["--routing", "torusmin"])).unwrap();
        assert_eq!(opts.config.routing, RoutingAlgorithm::OddEven);
        // Workloads are accepted, and conflict with --pattern/--rate.
        let opts = parse_run_args(&strings(&["--workload", "ph[uniform:burst0.3x0.05]"])).unwrap();
        assert!(matches!(opts.config.traffic, TrafficSpec::Workload(_)));
        assert!(parse_run_args(&strings(&[
            "--workload",
            "ph[uniform:bern0.1]",
            "--rate",
            "0.2"
        ]))
        .is_err());
        // Switch arbitration selects per-packet wormhole grants, defaults to
        // the legacy per-flit mode, and rejects unknown names.
        let opts = parse_run_args(&strings(&["--arb", "perpacket"])).unwrap();
        assert_eq!(opts.config.switch_arb, noc_sim::SwitchArb::PerPacket);
        let opts = parse_run_args(&strings(&[])).unwrap();
        assert_eq!(opts.config.switch_arb, noc_sim::SwitchArb::PerFlit);
        assert!(parse_run_args(&strings(&["--arb", "wormhole"])).is_err());
        // Bad input is diagnosed.
        assert!(parse_run_args(&strings(&["--topology", "ring"])).is_err());
        assert!(parse_run_args(&strings(&["--bogus", "1"])).is_err());
        assert!(parse_run_args(&strings(&["--rate"])).is_err());
    }

    /// One fault draw: `run --seed <scenario seed> --faults N` rebuilds the
    /// exact fault plan the sweep engine gave that scenario.
    #[test]
    fn run_reproduces_a_sweep_scenarios_fault_plan() {
        let grid = SweepGrid {
            sizes: vec![(4, 4)],
            topologies: vec![TopologyKind::Mesh, TopologyKind::Torus],
            patterns: vec![TrafficPattern::Uniform],
            rates: vec![0.05],
            faults: vec![2],
            ..SweepGrid::default()
        };
        for scenario in grid.scenarios() {
            let cfg = &scenario.config;
            assert_eq!(cfg.fault_plan.len(), 2);
            let opts = parse_run_args(&strings(&[
                "--size",
                "4x4",
                "--topology",
                cfg.kind.name(),
                "--rate",
                "0.05",
                "--seed",
                &cfg.seed.to_string(),
                "--faults",
                "2",
            ]))
            .unwrap();
            assert_eq!(opts.config.fault_plan, cfg.fault_plan, "{}", scenario.label);
            assert_eq!(&opts.config, cfg, "the whole scenario config reproduces");
        }
    }

    #[test]
    fn run_end_to_end_on_a_faulted_torus() {
        cmd_run(&strings(&[
            "--topology",
            "torus",
            "--size",
            "4x4",
            "--routing",
            "torusmin",
            "--rate",
            "0.08",
            "--faults",
            "1",
            "--warmup",
            "50",
            "--measure",
            "150",
            "--drain",
            "150",
        ]))
        .expect("faulted torus run completes");
    }

    #[test]
    fn sweep_grid_defaults_run_eight_scenarios() {
        let opts = parse_sweep_grid_args(&[]).unwrap();
        assert_eq!(opts.grid.len(), 8);
        assert!(opts.out.is_none());
    }

    #[test]
    fn sweep_grid_rejects_bad_flags() {
        assert!(parse_sweep_grid_args(&strings(&["--sizes", "4by4"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--patterns", "mystery"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--routings", "zigzag"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--threads", "0"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--faults", "one"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--rates"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--bogus", "1"])).is_err());
        assert!(parse_sweep_grid_args(&strings(&["--rates", ""])).is_err());
    }

    #[test]
    fn sweep_grid_end_to_end_writes_a_report() {
        let dir = std::env::temp_dir().join("noc_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep_report.json");
        let path_str = path.to_str().unwrap().to_string();
        cmd_sweep_grid(&strings(&[
            "--sizes",
            "4x4",
            "--patterns",
            "uniform",
            "--rates",
            "0.05,0.1",
            "--routings",
            "xy",
            "--workloads",
            "ph[uniform:burst0.2x0.02]",
            "--warmup",
            "100",
            "--measure",
            "300",
            "--drain",
            "300",
            "--threads",
            "2",
            "--out",
            &path_str,
        ]))
        .unwrap();
        let report: noc_selfconf::SweepReport =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.scenarios.len(), 3);
        assert_eq!(report.aggregate.num_scenarios, 3);
        // The workload point carries its canonical label as the report key.
        assert_eq!(
            report.scenarios[2].label,
            "4x4/ph[uniform:burst0.2x0.02]/xy"
        );
    }

    #[test]
    fn bench_args_parse_and_validate() {
        let opts = parse_bench_args(&strings(&[
            "--quick",
            "--repeats",
            "5",
            "--out",
            "b.json",
            "--sha",
            "abc123",
        ]))
        .unwrap();
        assert!(opts.quick);
        assert_eq!(opts.repeats, Some(5));
        assert_eq!(opts.out.as_deref(), Some("b.json"));
        assert_eq!(opts.sha.as_deref(), Some("abc123"));

        let default = parse_bench_args(&[]).unwrap();
        assert!(!default.quick);

        assert!(parse_bench_args(&strings(&["--bogus"])).is_err());
        assert!(parse_bench_args(&strings(&["--repeats", "0"])).is_err());
        assert!(parse_bench_args(&strings(&["--repeats"])).is_err());
        // The stored-baseline gate is retired: its flags are unknown, and
        // the usage error lists the four that remain.
        for retired in ["--compare", "--against", "--tolerance", "--trajectory"] {
            let err = parse_bench_args(&strings(&[retired, "x"])).unwrap_err();
            assert_eq!(
                err.0,
                format!(
                    "unknown bench flag `{retired}` \
                     (expected --repeats, --out, --sha, or --quick)"
                )
            );
        }
    }

    #[test]
    fn bench_run_writes_a_report() {
        let dir = std::env::temp_dir().join("noc_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench_fresh.json");
        let opts = BenchOptions {
            quick: true,
            repeats: None,
            out: Some(out.to_str().unwrap().to_string()),
            sha: Some("testsha".into()),
            suite: Some(noc_bench::report::BenchSuiteConfig {
                repeats: 1,
                sim_cycles: 30,
                sim_warmup: 10,
                dqn_steps: 1,
                dqn_predicts: 1,
                env_epochs: 1,
                sweep_measure: 30,
            }),
        };
        run_bench(&opts).expect("suite run must succeed");
        let written: noc_bench::report::BenchReport =
            serde_json::from_str(&fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(written.git_sha, "testsha");
        assert_eq!(written.mode, "quick");
        assert_eq!(written.workloads.len(), 30);
    }

    #[test]
    fn sweep_args_reject_non_integer_step_counts() {
        assert_eq!(
            parse_sweep_args(&strings(&["0.02", "0.3", "8"])).unwrap(),
            (0.02, 0.3, 8)
        );
        for steps in ["2.9", "1e18", "-3"] {
            let err = parse_sweep_args(&strings(&["0.02", "0.3", steps])).unwrap_err();
            assert!(err.0.starts_with(&format!("bad steps `{steps}`")), "{err}");
        }
        assert!(parse_sweep_args(&strings(&["0.02", "nope", "8"])).is_err());
        assert!(parse_sweep_args(&strings(&["0.02", "0.3"])).is_err());
    }

    #[test]
    fn replay_args_reject_a_mistyped_period() {
        let args = strings(&["t.csv", "100"]);
        assert_eq!(parse_replay_args(&args).unwrap(), ("t.csv", Some(100)));
        let args = strings(&["t.csv"]);
        assert_eq!(parse_replay_args(&args).unwrap(), ("t.csv", None));
        let err = parse_replay_args(&strings(&["t.csv", "10O"])).unwrap_err();
        assert!(err.0.starts_with("bad period `10O`"), "{err}");
        assert!(parse_replay_args(&strings(&["t.csv", "0"])).is_err());
        assert!(parse_replay_args(&[]).is_err());
    }

    #[test]
    fn replay_runs_a_csv_trace() {
        let dir = std::env::temp_dir().join("noc_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        fs::write(&path, "# demo\n0,0,63,5\n10,5,9,3\n20,60,3,4\n").unwrap();
        assert!(cmd_replay(path.to_str().unwrap(), None).is_ok());
        assert!(cmd_replay("/nonexistent.csv", None).is_err());
    }

    #[test]
    fn train_and_evaluate_roundtrip() {
        // Micro budget: just proves the save/load/deploy chain.
        let dir = std::env::temp_dir().join("noc_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        let env_cfg = NocEnvConfig {
            sim: SimConfig::default().with_size(4, 4).with_regions(2, 2),
            epoch_cycles: 100,
            epochs_per_episode: 3,
            traffic_menu: vec![],
            ..NocEnvConfig::default()
        };
        let policy = train_drl(
            env_cfg,
            DqnConfig {
                hidden: vec![8],
                batch_size: 4,
                min_replay: 4,
                ..DqnConfig::default()
            },
            TrainConfig {
                episodes: 2,
                max_steps: 3,
                epsilon: Schedule::Constant(1.0),
                train_per_step: 1,
                seed: 0,
            },
        )
        .unwrap();
        let artifact = zoo::PolicyArtifact::from_dqn(
            &policy,
            NocEnvConfig::for_sim(SimConfig::default().with_size(4, 4).with_regions(2, 2), 0),
            TrainConfig::default(),
        )
        .unwrap();
        artifact.save(&path).unwrap();
        // Reload through the single checked zoo path and rebuild the
        // controller.
        let loaded = zoo::PolicyArtifact::load(&path).unwrap();
        let mut controller = loaded.controller().unwrap();
        let cfg = SimConfig::default().with_size(4, 4).with_regions(2, 2);
        let run = noc_selfconf::run_controller(&cfg, controller.as_mut(), 3, 100).unwrap();
        assert_eq!(run.epochs.len(), 3);
    }

    #[test]
    fn train_args_parse_scenario_flags_and_legacy_positional() {
        let opts = parse_train_args(&strings(&["out.json"])).unwrap();
        assert_eq!(opts.episodes, 60);
        assert_eq!(opts.max_steps, 40);
        // The pre-zoo positional episode count is a usage error now, not a
        // silently ignored argument.
        let err = parse_train_args(&strings(&["out.json", "25"])).unwrap_err();
        assert!(err.0.starts_with("usage: noc-cli train"), "{err}");
        assert!(parse_train_args(&strings(&["out.json", "25", "--episodes", "30"])).is_err());
        // Scenario flags flow through the run parser; --seed lands in the
        // config (and thus drives training).
        let opts = parse_train_args(&strings(&[
            "out.json",
            "--episodes",
            "5",
            "--max-steps",
            "7",
            "--size",
            "4x4",
            "--topology",
            "torus",
            "--seed",
            "123",
        ]))
        .unwrap();
        assert_eq!(opts.episodes, 5);
        assert_eq!(opts.max_steps, 7);
        assert_eq!(opts.run.config.width, 4);
        assert_eq!(opts.run.config.kind, TopologyKind::Torus);
        assert_eq!(opts.run.config.seed, 123);
        assert!(parse_train_args(&strings(&["out.json", "--rate", "oops"])).is_err());
        assert!(parse_train_args(&[]).is_err());
    }

    /// A well-formed value read off a flag's placeholder: `N` is a count,
    /// `a|b` offers alternatives, anything else is already an example.
    fn example(placeholder: &str) -> &str {
        match placeholder {
            "N" => "2",
            p => p.split('|').next().unwrap(),
        }
    }

    /// Positionals that satisfy a row's synopsis (`<ping|stats>` -> `ping`).
    fn required_positionals(c: &Command) -> Vec<String> {
        (c.args.split_whitespace())
            .filter(|w| w.starts_with('<'))
            .map(|w| example(w.trim_matches(['<', '>'])).to_string())
            .collect()
    }

    /// Every `--flag` an error message names, minus the one it rejects.
    fn flags_named(message: &str, rejected: &str) -> std::collections::BTreeSet<String> {
        (message.split(|c: char| c.is_whitespace() || ",`()[]".contains(c)))
            .filter(|w| w.starts_with("--") && *w != rejected)
            .map(String::from)
            .collect()
    }

    #[test]
    fn every_command_row_is_wired_through_usage_scanning_and_errors() {
        let text = usage();
        for c in &COMMANDS {
            let section = (text.split("\n\n"))
                .find(|s| s.starts_with(&format!("  {} ", c.name)))
                .unwrap_or_else(|| panic!("usage names `{}`", c.name));
            for f in c.flags {
                assert!(
                    section.contains(f.name),
                    "usage of {} names {}",
                    c.name,
                    f.name
                );
                let mut args = required_positionals(c);
                args.push(f.name.to_string());
                if !f.value.is_empty() {
                    args.push(example(f.value).to_string());
                }
                if let Err(e) = c.parse(&args) {
                    panic!("noc-cli {} {args:?}: {e}", c.name);
                }
            }
            if c.flags.is_empty() {
                continue;
            }
            // The unknown-flag error comes from the row that owns the flags:
            // the command's own, or its pass-through target's.
            let mut args = required_positionals(c);
            args.extend(strings(&["--no-such-flag", "1"]));
            let (err, owner) = match c.pass {
                Pass::Own => (c.parse(&args).err().unwrap(), c),
                Pass::Run => {
                    let rest = c.parse(&args).unwrap().rest;
                    (parse_run_args(&rest).unwrap_err(), row("run"))
                }
                Pass::Grid(_) => {
                    let rest = c.parse(&args).unwrap().rest;
                    (parse_sweep_grid_args(&rest).unwrap_err(), row("sweep-grid"))
                }
            };
            let declared = owner.flags.iter().map(|f| f.name.to_string()).collect();
            assert_eq!(
                flags_named(&err.0, "--no-such-flag"),
                declared,
                "{}: {err}",
                c.name
            );
        }
    }

    /// The `workload` usage line is written out by hand, because the
    /// invocation corpus pins it; it must list exactly the forms the
    /// grammar tables declare.
    #[test]
    fn workload_usage_lists_the_grammar_forms() {
        let synopses = |forms: &[noc_sim::names::Form]| {
            forms.iter().map(|f| f.0).collect::<Vec<_>>().join(", ")
        };
        let usage = row("workload").misuse;
        let processes = synopses(&noc_sim::InjectionProcess::FORMS);
        let lengths = synopses(&noc_sim::LengthSpec::FORMS);
        assert!(
            usage.contains(&format!("processes: {processes}; lengths: {lengths})")),
            "{usage}"
        );
    }

    /// The one intended behaviour change of the command table: commands
    /// that used to drop surplus positionals reject them.
    #[test]
    fn surplus_positionals_are_usage_errors() {
        for (args, message) in [
            (
                &["simulate", "a.json", "b.json"][..],
                "simulate takes at most one argument: [config.json]",
            ),
            (
                &["evaluate", "a.json", "b.json"],
                "evaluate requires a policy path",
            ),
            (&["evaluate"], "evaluate requires a policy path"),
            (
                &["default-config", "extra"],
                "default-config takes no arguments",
            ),
        ] {
            let err = (row(args[0]).run)(&strings(&args[1..])).unwrap_err();
            assert_eq!(err.0, message, "noc-cli {args:?}");
        }
    }
}
