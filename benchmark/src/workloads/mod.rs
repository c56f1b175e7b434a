//! The seven workloads, behind one trait.
//!
//! Every workload does a fixed, small amount of work per *repeat*, so a
//! repeat's output is a pure function of `--seed` and its digest can be
//! compared across repeats, passes and commits. How many repeats a run makes
//! is set by `--seconds`. A repeat is timed in one or more *units* of equal
//! work, each a few tens of milliseconds: the runner reports the fastest
//! unit, and only units that short find this shared machine undisturbed
//! often enough for the fastest to repeat from run to run.

pub mod fabric;
pub mod serve;
pub mod sweep;
pub mod train;

use crate::trace::Trace;
use std::collections::BTreeMap;

/// Per-layer values a traced repeat reports, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Workload sizes: `smoke` runs the same code paths on about a twentieth of
/// the cycles, episodes and submits, for the harness's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// `full`, or a twentieth of it (at least `floor`) at smoke scale.
    pub fn of(self, full: u64, floor: u64) -> u64 {
        if self.smoke {
            (full / 20).max(floor)
        } else {
            full
        }
    }
}

/// Outcome of one repeat through the plain entry points.
#[derive(Debug)]
pub struct Plain {
    /// Host seconds of each timed unit of the repeat, in order. The units
    /// of a repeat are equal shares of its operations: a single unit,
    /// unless the workload's plain entry points let the harness time its
    /// operations one by one.
    pub unit_s: Vec<f64>,
    /// Digest of the repeat's output bytes.
    pub digest: String,
    /// Operations that errored or were refused.
    pub failed: u64,
}

/// Outcome of one traced repeat.
#[derive(Debug)]
pub struct Traced {
    pub plain: Plain,
    /// Host milliseconds of each operation the harness could observe.
    pub op_ms: Vec<f64>,
    /// Counts and ratios measured at the layer boundaries.
    pub values: Values,
}

pub trait Workload {
    /// Operations one repeat attempts.
    fn ops(&self) -> u64;

    /// Digest of the output of the warm-up repeat that set-up ran; every
    /// later repeat must reproduce it.
    fn reference(&self) -> &str;

    /// One repeat through the same entry points the CLI uses.
    fn repeat(&mut self) -> Result<Plain, String>;

    /// The same repeat with spans recorded around each layer's calls.
    fn repeat_traced(&mut self, trace: &mut Trace) -> Result<Traced, String>;

    /// Layer measurements that are not part of a repeat (micro-timings at
    /// the workload's own sizes). Run once per traced run.
    fn standalone(&mut self, _trace: &mut Trace) -> Result<Values, String> {
        Ok(Values::new())
    }
}

/// Which of a run's timed units stands for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// The fastest: for work the processor does (see `stats::fastest`).
    Fastest,
    /// The first quartile: for work that waits on a kernel timer, where
    /// the fastest unit is a rare path that skipped the wait.
    Quartile,
}

/// A named workload and how to set it up from a seed.
pub struct Spec {
    pub name: &'static str,
    /// Whether `BENCHMARK.json` lists the workload, so that the driver
    /// runs it and holds its end-to-end metrics to their bounds.
    pub gated: bool,
    pub pace: Pace,
    /// Everything before the first timed repeat: input generation,
    /// construction, priming, and one warm-up repeat.
    pub setup: fn(u64, Scale) -> Result<Box<dyn Workload>, String>,
}

pub const WORKLOADS: [Spec; 7] = [
    Spec {
        name: "sweep_cold",
        gated: true,
        pace: Pace::Fastest,
        setup: sweep::setup,
    },
    Spec {
        name: "fabric_big",
        gated: true,
        pace: Pace::Fastest,
        setup: fabric::setup_big,
    },
    Spec {
        name: "fabric_sparse",
        gated: true,
        pace: Pace::Fastest,
        setup: fabric::setup_sparse,
    },
    Spec {
        name: "train_8x8",
        gated: true,
        pace: Pace::Fastest,
        setup: train::setup_8x8,
    },
    Spec {
        name: "learn_4x4",
        gated: true,
        pace: Pace::Fastest,
        setup: train::setup_4x4,
    },
    Spec {
        name: "serve_cold",
        // Every scenario is handed from the client to the connection
        // thread to the worker and back, and on this shared machine the
        // hand-offs are seldom all undisturbed: ten runs spread 0.29 where
        // `sweep_cold`, the same simulations on one thread, spread 0.01.
        gated: false,
        pace: Pace::Fastest,
        setup: serve::setup_cold,
    },
    Spec {
        name: "serve_warm",
        gated: true,
        // A warm submit takes one 40 ms delayed-ACK timer (45 ms), two
        // (90 ms) or, about once in 1500, none (5 ms): the fastest is the
        // rare path, and the median flips when the 90s near one half.
        pace: Pace::Quartile,
        setup: serve::setup_warm,
    },
];

/// 128-bit FNV-1a of `bytes` as 32 hex digits — the repository's own
/// content-hash idiom (`serve::cache`, `zoo`), re-implemented because theirs
/// is crate-private.
pub fn digest(bytes: &[u8]) -> String {
    let fnv = |mut h: u64| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    format!(
        "{:016x}{:016x}",
        fnv(0xCBF2_9CE4_8422_2325),
        fnv(0x6C62_272E_07BB_0142)
    )
}

/// Directory for files a workload writes, unique to this process so that
/// concurrent runs of the harness do not share state.
pub fn out_dir(workload: &str) -> Result<std::path::PathBuf, String> {
    let dir =
        std::path::Path::new("benchmark/out").join(format!("{workload}.{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}
