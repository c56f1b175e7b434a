//! The repository's benchmark: seven workloads, end-to-end metrics from the
//! plain entry points, per-layer metrics from a separate traced pass. See
//! `README.md` beside this package and `BENCHMARK.json` at the root.
//!
//! ```text
//! noc-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Run from the root of a checkout. With `--workload`, measures that
//! workload for about `--seconds` seconds and prints every metric by name,
//! then one JSON object as the last line. Without it, runs every workload,
//! plain and traced, each in a process of its own so that peak memory is
//! per workload.

mod metrics;
mod stats;
mod trace;
mod tracedsim;
mod workloads;

use metrics::{Metric, Source, END_TO_END, PER_LAYER};
use stats::{fastest, lower_quartile, median, tail_percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;
use workloads::{Pace, Plain, Scale, Spec, Values, Workload, WORKLOADS};

/// Fewest set-ups per plain run; `setup_s` is the fastest.
const MIN_SETUPS: usize = 3;
/// A plain run sets its workload up afresh after this long in repeats, so
/// that set-ups are spread over the whole run as the repeats are: the
/// fastest of a dozen back to back is whatever that second was like.
const SPELL: Duration = Duration::from_secs(1);
/// Fewest timed repeats of each kind, however short `--seconds` is.
const MIN_REPEATS: usize = 2;
/// Traced repeats per plain repeat in a traced run.
const TRACED_PER_PLAIN: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None` when the flag was not given.
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(out.seconds >= 0.0 && out.seconds <= 3600.0) {
                    return Err(bad(&"expected 0 to 3600"));
                }
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(out)
}

/// The `[profile.release]` table of a manifest, as sorted `key = value`
/// lines.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Refuse to measure a program built differently from the repository's
/// own: the two release profiles must be equal.
fn check_profiles() -> Result<(), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path} ({e}); run from the root of a checkout"))
    };
    let (root, own) = (
        release_profile(&read("Cargo.toml")?),
        release_profile(&read("benchmark/Cargo.toml")?),
    );
    if root.is_empty() || root != own {
        return Err(format!(
            "release profiles differ: Cargo.toml has {root:?}, benchmark/Cargo.toml has {own:?}"
        ));
    }
    Ok(())
}

/// The digest `benchmark/digests.json` pins for `workload` at the default
/// seed and full scale.
fn pinned_digest(workload: &str) -> Result<String, String> {
    let path = "benchmark/digests.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    json.get(workload)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or(format!("{path} has no digest for {workload}"))
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Correctness bookkeeping across the repeats of one run.
struct Gate {
    expected: String,
    ops: u64,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Gate {
    fn new(workload: &dyn Workload, name: &str, args: &Args) -> Result<Gate, String> {
        let mut gate = Gate {
            expected: workload.reference().to_string(),
            ops: workload.ops(),
            attempted: 0,
            failed: 0,
            correct: true,
        };
        if args.seed == 1 && !args.smoke {
            let pinned = pinned_digest(name)
                .map_err(|e| format!("{e} (this run produced {})", gate.expected))?;
            if pinned != gate.expected {
                eprintln!(
                    "{name}: output digest {} differs from the pinned {pinned}",
                    gate.expected
                );
                gate.correct = false;
            }
        }
        Ok(gate)
    }

    /// A later set-up must arrive at the reference the first one did.
    fn same_reference(&mut self, workload: &dyn Workload) {
        if workload.reference() != self.expected {
            eprintln!(
                "a later set-up produced {}, the first {}",
                workload.reference(),
                self.expected
            );
            self.correct = false;
        }
    }

    /// Count one repeat: every operation of a repeat whose output differs
    /// from the reference counts as failed.
    fn check(&mut self, kind: &str, repeat: &Plain) {
        self.attempted += self.ops;
        if repeat.digest == self.expected {
            self.failed += repeat.failed;
        } else {
            eprintln!(
                "{kind} repeat produced {}, expected {}",
                repeat.digest, self.expected
            );
            self.failed += self.ops;
        }
        if repeat.failed > 0 {
            eprintln!("{kind} repeat had {} failed operations", repeat.failed);
        }
    }
}

/// The timed units of the repeats of one kind in a run.
#[derive(Default)]
struct Units {
    unit_s: Vec<f64>,
    repeats: usize,
}

impl Units {
    fn push(&mut self, repeat: Plain) {
        self.unit_s.extend(repeat.unit_s);
        self.repeats += 1;
    }

    /// Seconds of one repeat at the pace of the unit that stands for the
    /// run: every repeat times the same number of units of equal work.
    fn wall_s(&self, pace: Pace) -> f64 {
        assert!(self.repeats > 0 && self.unit_s.len().is_multiple_of(self.repeats));
        let per_repeat = self.unit_s.len() / self.repeats;
        let unit = match pace {
            Pace::Fastest => fastest(&self.unit_s),
            Pace::Quartile => lower_quartile(&self.unit_s),
        };
        unit.expect("a repeat times at least one unit") * per_repeat as f64
    }

    fn note(&self, kind: &str) -> String {
        format!(
            "{} {kind} repeats, {} timed units: fastest {:.6} s, median {:.6} s, slowest {:.6} s",
            self.repeats,
            self.unit_s.len(),
            fastest(&self.unit_s).unwrap_or(0.0),
            median(&self.unit_s).unwrap_or(0.0),
            self.unit_s.iter().copied().fold(0.0, f64::max)
        )
    }
}

/// One measured metric.
struct Row {
    metric: &'static Metric,
    value: f64,
}

/// The result of one run, printed as the table and the final JSON line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// In table order.
    metrics: Vec<Row>,
    /// The samples behind the summaries, one line each.
    notes: Vec<String>,
}

impl Report {
    /// Whether every output check passed and no operation failed.
    fn ok(&self) -> bool {
        self.correct && self.failed == 0
    }

    fn print(&self, spec: &Spec, args: &Args) {
        println!(
            "# {} ({}) seed={} seconds={} trace={} threads={}",
            spec.name,
            if spec.gated {
                "in BENCHMARK.json"
            } else {
                "not in BENCHMARK.json: no bounds apply"
            },
            args.seed,
            args.seconds,
            u8::from(args.trace == Some(true)),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for Row { metric: m, value } in &self.metrics {
            println!(
                "{:<48} {value:>18.6} {:<6} ({} is better)",
                m.name, m.unit, m.better
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|Row { metric: m, value }| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.ok(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

/// End-to-end metrics: repeats through the plain entry points only.
fn run_plain(spec: &Spec, args: &Args) -> Result<Report, String> {
    let scale = Scale { smoke: args.smoke };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut setup_s = Vec::new();
    let mut units = Units::default();
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut gate: Option<Gate> = None;
    while setup_s.len() < MIN_SETUPS || Instant::now() < deadline {
        // The old workload is torn down outside the timed set-up.
        drop(workload.take());
        let t0 = Instant::now();
        let workload = workload.insert((spec.setup)(args.seed, scale)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        let gate = match &mut gate {
            Some(gate) => {
                gate.same_reference(workload.as_ref());
                gate
            }
            None => gate.insert(Gate::new(workload.as_ref(), spec.name, args)?),
        };
        let spell = deadline.min(Instant::now() + SPELL);
        while units.repeats < MIN_REPEATS || Instant::now() < spell {
            let repeat = workload.repeat()?;
            gate.check("plain", &repeat);
            units.push(repeat);
        }
    }
    let gate = gate.expect("MIN_SETUPS is positive");
    let wall_s = units.wall_s(spec.pace);
    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "setup_s" => fastest(&setup_s).expect("at least one set-up"),
            "wall_s" => wall_s,
            "ops_per_s" => gate.ops as f64 / wall_s,
            "peak_rss_mb" => peak_rss_mb()?,
            other => unreachable!("no rule for end-to-end metric {other}"),
        })
    };
    let metrics = END_TO_END
        .iter()
        .map(|metric| {
            Ok(Row {
                metric,
                value: value(metric.name)?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Report {
        correct: gate.correct,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        notes: vec![
            format!("{} set-ups, seconds each: {setup_s:.4?}", setup_s.len()),
            units.note("plain"),
        ],
    })
}

/// Per-layer metrics: traced repeats, with plain ones interleaved so the
/// tracing overhead is measured under the same conditions.
fn run_traced(spec: &Spec, args: &Args) -> Result<Report, String> {
    let scale = Scale { smoke: args.smoke };
    let mut workload = (spec.setup)(args.seed, scale)?;
    let mut gate = Gate::new(workload.as_ref(), spec.name, args)?;
    let mut trace = Trace::new();

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced) = (Units::default(), Units::default());
    let mut op_ms = Vec::new();
    let mut per_repeat: Vec<Values> = Vec::new();
    while plain.repeats < MIN_REPEATS || traced.repeats < MIN_REPEATS || Instant::now() < deadline {
        if plain.repeats * TRACED_PER_PLAIN <= traced.repeats {
            let repeat = workload.repeat()?;
            gate.check("plain", &repeat);
            plain.push(repeat);
        } else {
            trace.set_run(traced.repeats as u32);
            let root = trace.begin("benchmark.repeat");
            let repeat = workload.repeat_traced(&mut trace)?;
            trace.end(root);
            gate.check("traced", &repeat.plain);
            traced.push(repeat.plain);
            op_ms.extend(repeat.op_ms);
            per_repeat.push(repeat.values);
        }
    }
    let repeats = traced.repeats;
    trace.set_run(repeats as u32);
    let root = trace.begin("benchmark.standalone");
    let standalone = workload.standalone(&mut trace)?;
    trace.end(root);
    drop(workload);

    let path = format!("benchmark/out/trace_{}.json", spec.name);
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, trace.to_json(spec.name, args.seed)))
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    // Every value a traced repeat reported, by name, in repeat order; the
    // stand-alone values count as one more sample.
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for values in per_repeat.iter().chain([&standalone]) {
        for (name, value) in values {
            samples.entry(name).or_default().push(*value);
        }
    }
    let of = |name: &str| samples.get(name).map_or(&[][..], Vec::as_slice);
    let span_s = |metric: &str| {
        let span = metric.strip_suffix("_s").expect("span metrics end in _s");
        trace.busy(span).0 / repeats as f64
    };
    let first = |name: &str| of(name).first().copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (plain_wall, traced_wall) = (plain.wall_s(spec.pace), traced.wall_s(spec.pace));
    let step_ns = span_s("noc-sim.network.step_s") * 1e9;

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let value = match m.source {
            Source::Span => span_s(m.name),
            Source::Exact => {
                let all = of(m.name);
                if all.iter().any(|v| v.to_bits() != all[0].to_bits()) {
                    eprintln!("{} did not repeat exactly: {all:?}", m.name);
                    gate.correct = false;
                }
                first(m.name)
            }
            Source::Median => median(of(m.name)).unwrap_or(0.0),
            Source::Min(name) => of(name).iter().copied().reduce(f64::min).unwrap_or(0.0),
            Source::Max(name) => of(name).iter().copied().reduce(f64::max).unwrap_or(0.0),
            Source::Derived => match m.name {
                "noc-sim.network.ns_per_router_cycle" => {
                    ratio(step_ns, first("noc-sim.network.router_cycles"))
                }
                "noc-sim.network.ns_per_flit" => {
                    ratio(step_ns, first("noc-sim.stats.ejected_flits"))
                }
                "noc-sim.cycles_per_s" => first("noc-sim.network.cycles") / plain_wall,
                "benchmark.op_p50_ms" => median(&op_ms).unwrap_or(0.0),
                "benchmark.op_p95_ms" => tail_percentile(&op_ms, 95.0).unwrap_or(0.0),
                "benchmark.op_samples" => op_ms.len() as f64,
                "benchmark.traced_repeats" => repeats as f64,
                "benchmark.trace_overhead_share" => (traced_wall - plain_wall) / plain_wall,
                "benchmark.span_coverage_share" => trace.coverage(),
                other => unreachable!("no rule for derived metric {other}"),
            },
        };
        metrics.push(Row { metric: m, value });
    }
    Ok(Report {
        correct: gate.correct,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        notes: vec![
            plain.note("plain"),
            traced.note("traced"),
            format!("spans written to {path}"),
        ],
    })
}

/// Every workload, plain then traced, each in its own process.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for spec in &WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace])
                .args(args)
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            if !status.success() {
                eprintln!("{} (trace {trace}) failed: {status}", spec.name);
                ok = false;
            }
        }
    }
    Ok(ok)
}

fn run(raw: &[String]) -> Result<bool, String> {
    let args = parse_args(raw)?;
    check_profiles()?;
    let Some(name) = &args.workload else {
        if args.trace.is_some() {
            return Err("--trace needs --workload (without one, both passes run)".to_string());
        }
        return run_all(raw);
    };
    let spec = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}` (expected one of: {})",
            names.join(", ")
        )
    })?;
    let report = if args.trace == Some(true) {
        run_traced(spec, &args)?
    } else {
        run_plain(spec, &args)?
    };
    report.print(spec, &args);
    Ok(report.ok())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_ignores_comments_order_and_spacing() {
        let a = "[package]\nname = \"x\"\n[profile.release]\n# why\nlto = \"thin\"\ncodegen-units=1\n\n[lib]\n";
        let b = "[profile.release]\ncodegen-units = 1 # one\nlto=\"thin\"\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_eq!(release_profile(a).len(), 2);
        assert_ne!(
            release_profile(a),
            release_profile("[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n")
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn flags_parse_and_reject() {
        let parse = |s: &str| {
            let args: Vec<String> = s.split_whitespace().map(str::to_string).collect();
            parse_args(&args)
        };
        let a = parse("--workload hit --seed 7 --seconds 2.5 --trace 1 --smoke").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("hit"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 2.5, Some(true), true)
        );
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--nope 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// Every workload, plain and traced, at smoke scale: the same code
    /// paths on about a twentieth of the work, with every within-run check
    /// (digests across repeats and passes, exact counts) in force.
    #[test]
    fn smoke_runs_every_workload_plain_and_traced() {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
            .expect("the repository root");
        for spec in &WORKLOADS {
            for trace in ["0", "1"] {
                let args = [
                    "--workload",
                    spec.name,
                    "--trace",
                    trace,
                    "--seconds",
                    "0",
                    "--smoke",
                ]
                .map(str::to_string);
                assert_eq!(run(&args), Ok(true), "{} trace {trace}", spec.name);
            }
        }
    }
}
