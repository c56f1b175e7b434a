//! Golden corpus of `noc-cli` invocations, recorded on 9973aa6 before the
//! command table replaced the hand-written scanners: what every error path
//! prints, and what every documented invocation parses to. None of these
//! runs a simulation.

use noc_cli::{
    parse_bench_args, parse_replay_args, parse_run_args, parse_serve_args, parse_submit_args,
    parse_sweep_args, parse_sweep_grid_args, parse_train_args,
};
use std::process::{Command, Output};

fn noc_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn noc-cli")
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const RUN_FLAGS: &str = "--config, --topology, --size, --routing, --pattern, --rate, \
                         --workload, --arb, --faults, --seed, --warmup, --measure, \
                         --drain";
const GRID_FLAGS: &str = "--sizes, --topologies, --patterns, --rates, --routings, --levels, \
                          --faults, --workloads, --arb, --warmup, --measure, --drain, --seed, \
                          --threads, --out, --cache, or --serial";
const TRAIN_USAGE: &str = "usage: noc-cli train <out.json> [--episodes N] [--max-steps N] \
                           [run scenario flags: --topology --size --pattern --rate --workload \
                           --faults --seed --config ...]";
const SERVE_CTL_USAGE: &str = "usage: noc-cli serve-ctl <ping|stats|shutdown> [--addr HOST:PORT]";
const WORKLOAD_USAGE: &str = "usage: noc-cli workload <parse|describe> <label>   (label grammar: \
                              ph[<pattern>:<process>[:<len>][@cycles]|…], processes: bern<rate>, \
                              burst<rate_on>x<switch>, pulse<rate>x<period>x<on>; lengths: \
                              len<flits>, lenU<min>-<max>, lenB<short>-<long>p<pct>)";
const NO_FILE: &str = "No such file or directory (os error 2)";

/// `(arguments, exit code, the message after "error: ")`; an empty
/// message means empty stderr.
fn error_corpus() -> Vec<(&'static [&'static str], i32, String)> {
    let unknown = |cmd: &str, flag: &str, listed: &str| {
        format!("unknown {cmd} flag `{flag}` (expected {listed})")
    };
    let on_daemon =
        |flag: &str| format!("{flag} does not apply to submit: execution happens on the daemon");
    let zoo_dir = "expected exactly one positional argument: <zoo-dir>".to_string();
    vec![
        (&["simulate", "/nonexistent/cfg.json"], 1, NO_FILE.into()),
        (
            &["run", "--bogus", "1"],
            1,
            unknown("run", "--bogus", RUN_FLAGS),
        ),
        (&["run", "--rate"], 1, "--rate requires a value".into()),
        (
            &["run", "--topology", "ring"],
            1,
            "unknown topology `ring` (expected one of: mesh, torus)".into(),
        ),
        (
            &["run", "--workload", "ph[uniform:bern0.1]", "--rate", "0.2"],
            1,
            "--workload conflicts with --pattern/--rate: pick one traffic form".into(),
        ),
        (&["run", "extra"], 1, unknown("run", "extra", RUN_FLAGS)),
        // Partitioned stepping is gone: the flag is unknown everywhere.
        (
            &["run", "--partitions", "4"],
            1,
            unknown("run", "--partitions", RUN_FLAGS),
        ),
        (
            &["sweep", "0.02", "0.3"],
            1,
            "sweep requires <rate0> <rate1> <steps>".into(),
        ),
        (
            &["sweep", "0.02", "0.3", "2.9"],
            1,
            "bad steps `2.9`: invalid digit found in string".into(),
        ),
        (
            &["sweep", "0.5", "0.1", "1"],
            1,
            "sweep needs rates in [0,1] and >= 2 steps".into(),
        ),
        (
            &["sweep-grid", "--bogus", "1"],
            1,
            unknown("sweep-grid", "--bogus", GRID_FLAGS),
        ),
        (
            &["sweep-grid", "--threads", "0"],
            1,
            "--threads must be at least 1".into(),
        ),
        (
            &["sweep-grid", "--serial", "--threads", "2"],
            1,
            "--serial and --threads conflict: pick one".into(),
        ),
        (
            &["sweep-grid", "--sizes", "4by4"],
            1,
            "bad size `4by4` (expected WxH, e.g. 8x8)".into(),
        ),
        (
            &["sweep-grid", "--rates"],
            1,
            "--rates requires a value".into(),
        ),
        (
            &["sweep-grid", "--rates", ","],
            1,
            "--rates needs at least one value".into(),
        ),
        (
            &["serve", "--bogus", "x"],
            1,
            unknown(
                "serve",
                "--bogus",
                "--addr, --cache, --threads, --max-outstanding, --max-client-outstanding",
            ),
        ),
        (
            &["serve", "--threads", "0"],
            1,
            "--threads must be at least 1".into(),
        ),
        (&["submit", "--threads", "2"], 1, on_daemon("--threads")),
        (&["submit", "--serial"], 1, on_daemon("--serial")),
        (
            &["submit", "--bogus", "1"],
            1,
            unknown("sweep-grid", "--bogus", GRID_FLAGS),
        ),
        (&["submit", "--addr"], 1, "--addr requires a value".into()),
        (&["serve-ctl"], 1, SERVE_CTL_USAGE.into()),
        (&["serve-ctl", "frob"], 1, SERVE_CTL_USAGE.into()),
        (&["serve-ctl", "ping", "--bogus"], 1, SERVE_CTL_USAGE.into()),
        (
            &["serve-ctl", "ping", "--addr"],
            1,
            "--addr requires a value".into(),
        ),
        (&["workload", "parse"], 1, WORKLOAD_USAGE.into()),
        (
            &["workload", "parse", "ph[oops]"],
            1,
            "invalid configuration: workload phase `oops`: \
             expected <pattern>:<process>[:len…][@cycles]"
                .into(),
        ),
        (
            &["bench", "--compare", "x"],
            1,
            unknown("bench", "--compare", "--repeats, --out, --sha, or --quick"),
        ),
        (
            &["bench", "--repeats", "0"],
            1,
            "--repeats must be at least 1".into(),
        ),
        (&["train"], 1, TRAIN_USAGE.into()),
        (&["train", "out.json", "25"], 1, TRAIN_USAGE.into()),
        (
            &["train", "out.json", "--bogus", "1"],
            1,
            unknown("run", "--bogus", RUN_FLAGS),
        ),
        (
            &["train", "out.json", "--episodes"],
            1,
            "--episodes requires a value".into(),
        ),
        (
            &["train", "out.json", "--episodes", "0"],
            1,
            "--episodes must be at least 1".into(),
        ),
        (&["train-grid"], 1, zoo_dir.clone()),
        (
            &["train-grid", "zoo", "--variants", "nope"],
            1,
            "unknown DQN variant `nope` \
             (expected one of: default, small, wide, deep, nstep3, single)"
                .into(),
        ),
        (
            &["train-grid", "zoo", "--bogus", "1"],
            1,
            unknown("run", "--bogus", RUN_FLAGS),
        ),
        (&["tournament"], 1, zoo_dir),
        (
            &["tournament", "zoo", "--threads", "0"],
            1,
            "--threads must be at least 1".into(),
        ),
        (
            &["tournament", "zoo", "--families", "nope"],
            1,
            "cannot parse scenario family `nope`: expected \
             <topology>/<pattern>/r<rate>[/fN] or <topology>/ph[...][/fN]"
                .into(),
        ),
        (&["evaluate"], 1, "evaluate requires a policy path".into()),
        (
            &["evaluate", "/nonexistent/p.json"],
            1,
            format!("zoo io error at `/nonexistent/p.json`: {NO_FILE}"),
        ),
        (
            &["replay"],
            1,
            "replay requires <trace.csv> [period]".into(),
        ),
        (
            &["replay", "t.csv", "0"],
            1,
            "period must be at least 1".into(),
        ),
        (&["replay", "/nonexistent/t.csv"], 1, NO_FILE.into()),
        (&["default-config"], 0, String::new()),
    ]
}

#[test]
fn error_paths_print_the_recorded_messages() {
    for (args, code, message) in error_corpus() {
        let out = noc_cli(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        let expected = if message.is_empty() {
            String::new()
        } else {
            format!("error: {message}\n")
        };
        assert_eq!(stderr, expected, "stderr of noc-cli {args:?}");
        assert_eq!(
            out.status.code(),
            Some(code),
            "exit code of noc-cli {args:?}"
        );
    }
}

/// FNV-1a of `{:?}` of what one `parse_*_args` makes of `args`.
fn parsed(cmd: &str, args: &[&str]) -> u64 {
    let args = strings(args);
    let debug = match cmd {
        "run" => format!("{:?}", parse_run_args(&args).unwrap()),
        "sweep-grid" => format!("{:?}", parse_sweep_grid_args(&args).unwrap()),
        "submit" => format!("{:?}", parse_submit_args(&args).unwrap()),
        "serve" => format!("{:?}", parse_serve_args(&args).unwrap()),
        "bench" => format!("{:?}", parse_bench_args(&args).unwrap()),
        "train" => format!("{:?}", parse_train_args(&args).unwrap()),
        "sweep" => format!("{:?}", parse_sweep_args(&args).unwrap()),
        "replay" => format!("{:?}", parse_replay_args(&args).unwrap()),
        _ => unreachable!("no parser for {cmd}"),
    };
    fnv1a(&debug)
}

/// Every invocation README.md, EXPERIMENTS.md, ci.yml and the verify skill
/// document for a command with a `parse_*_args` (`$RUNNER_TEMP` and
/// `$GITHUB_SHA` replaced by literals), plus `replay`'s two forms.
const DOCUMENTED: &[(&str, &[&str], u64)] = &[
    (
        "run",
        &[
            "--topology",
            "torus",
            "--routing",
            "oddeven",
            "--faults",
            "2",
        ],
        0x6c7727dc1d33221f,
    ),
    (
        "run",
        &[
            "--topology",
            "torus",
            "--size",
            "32x32",
            "--routing",
            "torusmin",
            "--rate",
            "0.05",
            "--faults",
            "4",
        ],
        0x7042999d1eea589d,
    ),
    (
        "run",
        &[
            "--topology",
            "torus",
            "--size",
            "8x8",
            "--routing",
            "oddeven",
            "--rate",
            "0.12",
            "--faults",
            "2",
        ],
        0x43c9034cb25ea76f,
    ),
    (
        "sweep-grid",
        &[
            "--sizes",
            "4x4,8x8",
            "--topologies",
            "mesh,torus",
            "--patterns",
            "uniform,transpose",
            "--rates",
            "0.05,0.10",
            "--routings",
            "xy",
            "--faults",
            "0,2",
            "--workloads",
            "ph[uniform:burst0.24x0.02],ph[uniform:bern0.03@3000|tornado:bern0.2@3000]",
            "--threads",
            "8",
            "--out",
            "report.json",
        ],
        0xb04a78022b0095cd,
    ),
    (
        "sweep-grid",
        &[
            "--sizes",
            "4x4,8x8",
            "--patterns",
            "uniform,transpose,tornado",
            "--rates",
            "0.02,0.05,0.10,0.20",
            "--routings",
            "xy,oddeven",
            "--out",
            "space.json",
        ],
        0x4a62877a748265f2,
    ),
    (
        "sweep-grid",
        &[
            "--sizes",
            "16x16,32x32",
            "--topologies",
            "mesh,torus",
            "--patterns",
            "uniform,transpose",
            "--rates",
            "0.05,0.10",
            "--routings",
            "xy,oddeven",
            "--faults",
            "0,4",
            "--out",
            "big.json",
        ],
        0xde1272a1e8a73fa4,
    ),
    (
        "sweep-grid",
        &[
            "--sizes",
            "8x8",
            "--patterns",
            "uniform,transpose",
            "--rates",
            "0.05,0.10,0.20",
            "--routings",
            "xy,oddeven,westfirst",
            "--faults",
            "0,1,2,4,8",
            "--out",
            "faults.json",
        ],
        0x21e4189a069f3033,
    ),
    (
        "sweep-grid",
        &[
            "--sizes",
            "8x8",
            "--topologies",
            "mesh,torus",
            "--patterns",
            "uniform,transpose",
            "--rates",
            "0.05,0.10,0.20",
            "--routings",
            "xy,oddeven",
            "--faults",
            "0,2,4",
            "--out",
            "topo.json",
        ],
        0x2b5625ab14f14feb,
    ),
    (
        "sweep-grid",
        &[
            "--sizes",
            "8x8",
            "--patterns",
            "uniform",
            "--rates",
            "0.05,0.12",
            "--routings",
            "xy,oddeven",
            "--workloads",
            "ph[uniform:burst0.24x0.02],ph[uniform:pulse0.4x200x50]",
            "--out",
            "workloads.json",
        ],
        0x17c8a0f0042095ec,
    ),
    (
        "sweep-grid",
        &[
            "--sizes",
            "8x8",
            "--topologies",
            "mesh,torus",
            "--patterns",
            "uniform",
            "--rates",
            "0.05,0.10,0.15",
            "--routings",
            "xy,table",
            "--workloads",
            "ph[uniform:bern0.10:len1],ph[uniform:bern0.10:len8],ph[uniform:bern0.10:lenB1-8p20]",
            "--arb",
            "perflit",
            "--out",
            "hol_perflit.json",
        ],
        0x4825d7e1633608a7,
    ),
    (
        "sweep-grid",
        &[
            "--sizes",
            "8x8",
            "--topologies",
            "mesh,torus",
            "--patterns",
            "uniform",
            "--rates",
            "0.05,0.10,0.15",
            "--routings",
            "xy,table",
            "--workloads",
            "ph[uniform:bern0.10:len1],ph[uniform:bern0.10:len8],ph[uniform:bern0.10:lenB1-8p20]",
            "--arb",
            "perpacket",
            "--out",
            "hol_perpacket.json",
        ],
        0xce98b3a8efd0d23f,
    ),
    (
        "sweep-grid",
        &["--measure", "500", "--drain", "500", "--out", "/tmp/a.json"],
        0x653070d37b19ec1a,
    ),
    (
        "sweep-grid",
        &[
            "--measure",
            "500",
            "--drain",
            "500",
            "--serial",
            "--out",
            "/tmp/b.json",
        ],
        0xe30774f03d3ab8dc,
    ),
    ("sweep-grid", &["--out", "r.json"], 0xc0fd8029dc4015da),
    (
        "sweep-grid",
        &["--serial", "--out", "b.json"],
        0xed94b1411fc38bfb,
    ),
    (
        "sweep-grid",
        &["--cache", "results/cache"],
        0xb4dad05e32b58915,
    ),
    (
        "submit",
        &[
            "--addr",
            "127.0.0.1:4600",
            "--client",
            "me",
            "--sizes",
            "4x4",
            "--patterns",
            "uniform,transpose",
            "--rates",
            "0.05,0.10",
            "--out",
            "report.json",
        ],
        0xb55a96539bfb00c8,
    ),
    (
        "submit",
        &[
            "--addr",
            "127.0.0.1:4600",
            "--client",
            "alice",
            "--sizes",
            "4x4",
            "--patterns",
            "uniform,transpose,tornado,bitcomp",
            "--rates",
            "0.03,0.06,0.09,0.12",
            "--warmup",
            "100",
            "--measure",
            "1000",
            "--drain",
            "500",
            "--out",
            "report.json",
        ],
        0x203cd0bda186ec77,
    ),
    (
        "submit",
        &[
            "--addr",
            "127.0.0.1:4600",
            "--client",
            "cold",
            "--sizes",
            "4x4",
            "--patterns",
            "uniform,transpose",
            "--rates",
            "0.02,0.05",
            "--warmup",
            "100",
            "--measure",
            "1000",
            "--drain",
            "500",
        ],
        0xdb2330ba30a79e30,
    ),
    (
        "serve",
        &["--addr", "127.0.0.1:4600", "--cache", "results/cache"],
        0xd4d16ac326effe28,
    ),
    (
        "serve",
        &["--addr", "127.0.0.1:4600", "--cache", "/tmp/cache"],
        0x7bfd1c4cabece9d6,
    ),
    ("bench", &[], 0x7d2ada605d295591),
    (
        "bench",
        &["--quick", "--out", "bench.json"],
        0x083862eb5eff687f,
    ),
    (
        "bench",
        &["--quick", "--sha", "0123abc", "--out", "BENCH_0123abc.json"],
        0x61e01f6270914cdf,
    ),
    ("bench", &["--quick", "--out", "f.json"], 0xdcc62c28d829ebdf),
    (
        "train",
        &["policy.json", "--episodes", "60"],
        0xb65524ac9a82260d,
    ),
    ("train", &["p.json", "--episodes", "5"], 0x851b14a8693c03aa),
    ("sweep", &["0.02", "0.3", "8"], 0x1c7647e2852050bd),
    ("replay", &["trace.csv"], 0xf031aa68c735f6b1),
    ("replay", &["trace.csv", "100"], 0x266799be02660e0d),
];

#[test]
fn documented_invocations_parse_to_the_recorded_options() {
    for &(cmd, args, hash) in DOCUMENTED {
        assert_eq!(parsed(cmd, args), hash, "noc-cli {cmd} {args:?}");
    }
}

#[test]
fn no_command_or_an_unknown_one_prints_the_usage_and_exits_2() {
    for args in [&[][..], &["bogus"]] {
        let out = noc_cli(args);
        assert_eq!(out.status.code(), Some(2), "noc-cli {args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage: noc-cli"), "{stderr}");
    }
}

/// Not recorded on 9973aa6, where `evaluate a.json b.json` scored `a.json`
/// and `default-config extra` exited 0: surplus positionals are the one
/// intended behaviour change of the command table.
#[test]
fn surplus_positionals_exit_1_with_a_usage_error() {
    for (args, message) in [
        (
            &["simulate", "a.json", "b.json"][..],
            "simulate takes at most one argument: [config.json]",
        ),
        (
            &["evaluate", "a.json", "b.json"],
            "evaluate requires a policy path",
        ),
        (
            &["default-config", "extra"],
            "default-config takes no arguments",
        ),
    ] {
        let out = noc_cli(args);
        assert_eq!(out.status.code(), Some(1), "noc-cli {args:?}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            format!("error: {message}\n")
        );
        assert!(out.stdout.is_empty(), "noc-cli {args:?} printed output");
    }
}
