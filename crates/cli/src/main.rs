//! `noc-cli` — command-line front end for the self-configurable NoC stack.
//!
//! ```text
//! noc-cli simulate [config.json]        run one warmup/measure/drain simulation
//! noc-cli run [flags]                   one simulation configured inline
//!                                       (--topology mesh|torus, --size, ...)
//! noc-cli sweep <rate0> <rate1> <n>     latency-throughput sweep at n rates
//! noc-cli sweep-grid [flags]            parallel scenario grid -> one JSON report
//! noc-cli serve [flags]                 persistent sweep daemon (TCP, JSON lines)
//! noc-cli submit [flags]                send a grid to a daemon, stream results
//! noc-cli serve-ctl <cmd> [--addr A]    ping/stats/shutdown a running daemon
//! noc-cli workload <parse|describe> <l> validate/describe a workload label
//! noc-cli bench [flags]                 timed perf suite -> BENCH_<sha>.json
//! noc-cli train <out.json> [flags]      train a DQN policy on any scenario
//! noc-cli train-grid <dir> [flags]      train a population into a zoo dir
//! noc-cli tournament <dir> [flags]      score every zoo policy x family
//! noc-cli evaluate <policy.json>        run a saved policy vs the baselines
//! noc-cli replay <trace.csv> [period]   replay a packet trace (CSV)
//! noc-cli default-config                print the default SimConfig as JSON
//! ```
//!
//! Argument parsing is intentionally dependency-free.

use noc_cli::{
    cmd_bench, cmd_default_config, cmd_evaluate, cmd_replay, cmd_run, cmd_serve, cmd_serve_ctl,
    cmd_simulate, cmd_submit, cmd_sweep, cmd_sweep_grid, cmd_tournament, cmd_train, cmd_train_grid,
    cmd_workload, parse_replay_args, parse_sweep_args, CliError,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(args.get(1).map(String::as_str)),
        Some("sweep") => parse_sweep_args(&args[1..]).and_then(|(r0, r1, n)| cmd_sweep(r0, r1, n)),
        Some("train") => cmd_train(&args[1..]),
        Some("train-grid") => cmd_train_grid(&args[1..]),
        Some("tournament") => cmd_tournament(&args[1..]),
        Some("evaluate") => match args.get(1) {
            Some(path) => cmd_evaluate(path),
            None => Err(CliError("evaluate requires a policy path".into())),
        },
        Some("replay") => {
            parse_replay_args(&args[1..]).and_then(|(path, period)| cmd_replay(path, period))
        }
        Some("default-config") => cmd_default_config(),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep-grid") => cmd_sweep_grid(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("serve-ctl") => cmd_serve_ctl(&args[1..]),
        Some("workload") => cmd_workload(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => {
            eprintln!(
                "usage: noc-cli <simulate [config.json] | run [flags] | \
                 sweep <r0> <r1> <n> | \
                 sweep-grid [flags] | serve [flags] | submit [flags] | \
                 serve-ctl <ping|stats|shutdown> [--addr A] | \
                 workload <parse|describe> <label> | bench [flags] | \
                 train <out.json> [flags] | train-grid <dir> [flags] | \
                 tournament <dir> [flags] | evaluate <policy.json> | \
                 replay <trace.csv> [period] | default-config>\n\
                 run flags: --topology mesh|torus  --size 8x8  --routing xy  \
                 --pattern uniform  --rate 0.10  --workload 'ph[...]'  --arb perflit|perpacket  \
                 --faults N  \
                 --partitions N  --seed N  --warmup N  --measure N  --drain N  \
                 --config base.json\n\
                 sweep-grid flags: --sizes 4x4,8x8  --topologies mesh,torus  \
                 --patterns uniform,transpose  \
                 --rates 0.05,0.10  --routings xy,oddeven  --levels none,0,3  \
                 --faults 0,1,2  --workloads 'ph[uniform:burst0.3x0.05]'  \
                 --arb perflit|perpacket  \
                 --warmup N  --measure N  --drain N  --seed N  \
                 --threads N  --partitions N  --serial  --out report.json  \
                 --cache results/cache\n\
                 serve flags: --addr 127.0.0.1:4600  --cache results/cache  --threads N  \
                 --max-outstanding N  --max-client-outstanding N\n\
                 submit flags: --addr 127.0.0.1:4600  --client NAME  \
                 plus the sweep-grid axis flags (--sizes, --rates, ..., --out)\n\
                 workload labels: ph[<pattern>:<process>[:<len>][@cycles]|...] with processes \
                 bern<rate>, burst<rate_on>x<switch>, pulse<rate>x<period>x<on> and lengths \
                 len<flits>, lenU<min>-<max>, lenB<short>-<long>p<pct>\n\
                 bench flags: --quick  --repeats N  --out bench.json  --sha SHA\n\
                 train flags: --episodes N  --max-steps N  plus the run scenario flags \
                 (--topology, --size, --pattern, --rate, --workload, --faults, --seed, ...)\n\
                 train-grid flags: --variants default,small,wide,deep,nstep3,single  \
                 --families mesh/uniform/r0.1,torus/ph[uniform:burst0.3x0.05]/f2  \
                 --episodes N  --max-steps N  --epochs-per-episode N  --threads N  \
                 plus run flags for the base fabric (--size, --seed, ...)\n\
                 tournament flags: --families <as train-grid>  --epochs N  --threads N  \
                 --out report.json  plus run flags for the base fabric"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
