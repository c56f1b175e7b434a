//! Synthetic traffic generation: the composable workload subsystem.
//!
//! Application traffic is described by a [`WorkloadSpec`]: an ordered list of
//! [`WorkloadPhase`]s, each binding a destination-selection
//! [`TrafficPattern`] (uniform random, transpose, bit-complement,
//! bit-reverse, shuffle, tornado, neighbor, hotspot) to an
//! [`InjectionProcess`] (memoryless Bernoulli, two-state bursty on/off, or
//! periodic pulse) for a number of cycles, optionally with a per-phase
//! packet-length distribution ([`LengthSpec`]: fixed/uniform/bimodal).
//! Phase schedules repeat cyclically; a final phase with `cycles == 0`
//! holds forever instead.
//!
//! Every spec has a canonical, round-trippable label (see
//! [`WorkloadSpec::label`]), e.g.
//! `ph[uniform:bern0.1@5000|tornado:burst0.3x0.05@5000]`, which is the same
//! grammar the sweep engine, CLI, and reports use — labels cannot drift from
//! the specs they name because both directions share one table.
//!
//! Trace-driven traffic (explicit packet schedules) lives alongside the
//! rate-based workloads in [`TrafficSpec`].

use crate::error::{SimError, SimResult};
use crate::flit::{Packet, PacketId};
use crate::names::Form;
use crate::topology::{Coord, NodeId, Topology};
use crate::trace::PacketTrace;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A destination-selection pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Destination drawn uniformly among all other nodes.
    Uniform,
    /// `(x, y) → (y, x)`. Requires a square grid.
    Transpose,
    /// `(x, y) → (W-1-x, H-1-y)`.
    BitComplement,
    /// Node index bit-reversed. Requires a power-of-two node count.
    BitReverse,
    /// Node index rotated left by one bit. Requires a power-of-two node count.
    Shuffle,
    /// `x → (x + ⌈W/2⌉ - 1) mod W`, same row.
    Tornado,
    /// `(x, y) → ((x+1) mod W, y)`.
    Neighbor,
    /// With probability `fraction`, send to a uniformly chosen hotspot node;
    /// otherwise uniform.
    Hotspot {
        /// The hotspot destinations.
        hotspots: Vec<NodeId>,
        /// Probability a packet targets a hotspot.
        fraction: f64,
    },
}

impl TrafficPattern {
    /// The dataless patterns with their canonical names: with
    /// [`TrafficPattern::HOTSPOT`], the one table behind the printer
    /// ([`fmt::Display`]) and [`TrafficPattern::parse`].
    pub const NAMED: [(&'static str, TrafficPattern); 7] = [
        ("uniform", TrafficPattern::Uniform),
        ("transpose", TrafficPattern::Transpose),
        ("bitcomp", TrafficPattern::BitComplement),
        ("bitrev", TrafficPattern::BitReverse),
        ("shuffle", TrafficPattern::Shuffle),
        ("tornado", TrafficPattern::Tornado),
        ("neighbor", TrafficPattern::Neighbor),
    ];

    /// The hotspot form, e.g. `hotspot5-6f0.3`: nodes 5 and 6, fraction 0.3.
    /// Node ids are part of the name, so two hotspot patterns with
    /// different targets never share a label.
    pub const HOTSPOT: Form = Form("hotspot<id>-…f<fraction>");

    /// Parse a canonical pattern name (the inverse of [`fmt::Display`]).
    /// The parsed pattern is shape-checked.
    ///
    /// # Errors
    /// Returns an error for unknown names or out-of-range parameters.
    pub fn parse(s: &str) -> SimResult<TrafficPattern> {
        if let Some((_, pattern)) = Self::NAMED.iter().find(|(name, _)| *name == s) {
            return Ok(pattern.clone());
        }
        let names = Self::NAMED.map(|(name, _)| name);
        let f = Form::parse("traffic pattern", &names, &[Self::HOTSPOT], s)?;
        let hotspots = f.list(0)?.into_iter().map(NodeId).collect();
        let fraction = f.get(1)?;
        f.checked(
            TrafficPattern::Hotspot { hotspots, fraction },
            Self::shape_check,
        )
    }

    /// Topology-independent parameter checks (hotspot list non-empty,
    /// fraction in range).
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn shape_check(&self) -> SimResult<()> {
        if let TrafficPattern::Hotspot { hotspots, fraction } = self {
            if hotspots.is_empty() {
                return Err(SimError::InvalidConfig(
                    "hotspot list must not be empty".into(),
                ));
            }
            if !(0.0..=1.0).contains(fraction) {
                return Err(SimError::InvalidConfig(format!(
                    "hotspot fraction {fraction} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// Check the pattern is usable on the given topology.
    ///
    /// # Errors
    /// Returns an error for patterns whose structural requirements the
    /// topology does not meet.
    pub fn validate(&self, topo: &Topology) -> SimResult<()> {
        self.shape_check()?;
        match self {
            TrafficPattern::Transpose if topo.width() != topo.height() => Err(
                SimError::InvalidConfig("transpose traffic requires a square grid".into()),
            ),
            TrafficPattern::BitReverse | TrafficPattern::Shuffle
                if !topo.num_nodes().is_power_of_two() =>
            {
                Err(SimError::InvalidConfig(
                    "bit-reverse/shuffle traffic requires a power-of-two node count".into(),
                ))
            }
            TrafficPattern::Hotspot { hotspots, .. } => {
                for h in hotspots {
                    if h.0 >= topo.num_nodes() {
                        return Err(SimError::NodeOutOfRange {
                            node: h.0,
                            nodes: topo.num_nodes(),
                        });
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Pick a destination for a packet injected at `src`. May return `src`
    /// itself for self-addressed patterns (e.g. transpose on the diagonal);
    /// callers typically skip such packets.
    pub fn destination(&self, topo: &Topology, src: NodeId, rng: &mut StdRng) -> NodeId {
        let n = topo.num_nodes();
        let c = topo.coord(src);
        let (w, h) = (topo.width(), topo.height());
        match self {
            TrafficPattern::Uniform => {
                if n == 1 {
                    return src; // degenerate topology: caller skips self-sends
                }
                // Uniform over the other n-1 nodes.
                let mut d = rng.gen_range(0..n - 1);
                if d >= src.0 {
                    d += 1;
                }
                NodeId(d)
            }
            TrafficPattern::Transpose => topo.node_at(Coord { x: c.y, y: c.x }),
            TrafficPattern::BitComplement => topo.node_at(Coord {
                x: w - 1 - c.x,
                y: h - 1 - c.y,
            }),
            TrafficPattern::BitReverse => {
                let bits = n.trailing_zeros();
                NodeId((src.0.reverse_bits() >> (usize::BITS - bits)) & (n - 1))
            }
            TrafficPattern::Shuffle => {
                let bits = n.trailing_zeros();
                let rotated = ((src.0 << 1) | (src.0 >> (bits - 1))) & (n - 1);
                NodeId(rotated)
            }
            TrafficPattern::Tornado => {
                let shift = w.div_ceil(2) - 1;
                topo.node_at(Coord {
                    x: (c.x + shift) % w,
                    y: c.y,
                })
            }
            TrafficPattern::Neighbor => topo.node_at(Coord {
                x: (c.x + 1) % w,
                y: c.y,
            }),
            TrafficPattern::Hotspot { hotspots, fraction } => {
                if rng.gen::<f64>() < *fraction {
                    hotspots[rng.gen_range(0..hotspots.len())]
                } else {
                    TrafficPattern::Uniform.destination(topo, src, rng)
                }
            }
        }
    }
}

impl fmt::Display for TrafficPattern {
    /// Hotspot fractions print in the shortest `f64` form that round-trips,
    /// so [`TrafficPattern::parse`] inverts this exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficPattern::Hotspot { hotspots, fraction } => {
                let ids = fmt::from_fn(|f| {
                    for (i, node) in hotspots.iter().enumerate() {
                        write!(f, "{}{}", if i == 0 { "" } else { "-" }, node.0)?;
                    }
                    Ok(())
                });
                Self::HOTSPOT.write(f, &[&ids, fraction])
            }
            dataless => {
                let (name, _) = (Self::NAMED.iter().find(|(_, p)| p == dataless))
                    .expect("every dataless pattern is in NAMED");
                f.write_str(name)
            }
        }
    }
}

/// How packets are offered over time at each source node. All rates are in
/// flits per node per cycle; the generator converts them to per-cycle packet
/// probabilities by dividing by the packet length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InjectionProcess {
    /// Memoryless injection: every node flips one coin per cycle. The
    /// classic open-loop model (label `bern<rate>`).
    Bernoulli {
        /// Mean injection rate, flits/node/cycle.
        rate: f64,
    },
    /// Two-state on/off Markov-modulated Bernoulli (label
    /// `burst<rate_on>x<switch>`): each node is independently ON (injecting
    /// at `rate_on`) or OFF (silent) and flips state with probability
    /// `switch` per cycle. Mean sojourn in each state is `1/switch` cycles;
    /// the duty cycle is 50 %, so the long-run mean rate is `rate_on / 2`.
    Bursty {
        /// Injection rate while ON, flits/node/cycle.
        rate_on: f64,
        /// Per-cycle probability of flipping ON↔OFF.
        switch: f64,
    },
    /// Deterministic periodic pulse (label `pulse<rate>x<period>x<on>`):
    /// inject at `rate` during the first `on` cycles of every `period`-cycle
    /// window of the phase, silent otherwise. All nodes pulse in lockstep —
    /// the worst-case synchronized burst.
    Periodic {
        /// Injection rate inside the pulse, flits/node/cycle.
        rate: f64,
        /// Pulse period in cycles.
        period: u64,
        /// Pulse width in cycles (`0 < on <= period`).
        on: u64,
    },
}

impl InjectionProcess {
    /// The process forms, in variant order: e.g. `bern0.1`,
    /// `burst0.3x0.05`, `pulse0.4x100x20`.
    pub const FORMS: [Form; 3] = [
        Form("bern<rate>"),
        Form("burst<rate_on>x<switch>"),
        Form("pulse<rate>x<period>x<on>"),
    ];

    /// Parse a canonical process label (the inverse of [`fmt::Display`]).
    /// The parsed process is range-checked.
    ///
    /// # Errors
    /// Returns an error for unknown process names, malformed numbers, or
    /// out-of-range parameters.
    pub fn parse(s: &str) -> SimResult<InjectionProcess> {
        let f = Form::parse("injection process", &[], &Self::FORMS, s)?;
        let process = match f.form {
            0 => Self::Bernoulli { rate: f.get(0)? },
            1 => Self::Bursty {
                rate_on: f.get(0)?,
                switch: f.get(1)?,
            },
            _ => Self::Periodic {
                rate: f.get(0)?,
                period: f.get(1)?,
                on: f.get(2)?,
            },
        };
        f.checked(process, Self::validate)
    }

    /// Check parameter ranges (topology-independent).
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> SimResult<()> {
        let check_rate = |rate: f64, what: &str| {
            if !(0.0..=1.0).contains(&rate) {
                Err(SimError::InvalidConfig(format!(
                    "{what} {rate} outside [0, 1] flits/node/cycle"
                )))
            } else {
                Ok(())
            }
        };
        match self {
            InjectionProcess::Bernoulli { rate } => check_rate(*rate, "injection rate"),
            InjectionProcess::Bursty { rate_on, switch } => {
                check_rate(*rate_on, "burst on-rate")?;
                if !(*switch > 0.0 && *switch <= 1.0) {
                    return Err(SimError::InvalidConfig(format!(
                        "burst switch probability {switch} outside (0, 1]"
                    )));
                }
                Ok(())
            }
            InjectionProcess::Periodic { rate, period, on } => {
                check_rate(*rate, "pulse rate")?;
                if *period == 0 || *on == 0 || on > period {
                    return Err(SimError::InvalidConfig(format!(
                        "pulse window {on}/{period} needs 0 < on <= period"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Long-run mean injection rate, flits/node/cycle.
    pub fn mean_rate(&self) -> f64 {
        match self {
            InjectionProcess::Bernoulli { rate } => *rate,
            // Symmetric two-state chain: half the time ON.
            InjectionProcess::Bursty { rate_on, .. } => rate_on * 0.5,
            InjectionProcess::Periodic { rate, period, on } => {
                rate * (*on as f64) / (*period as f64)
            }
        }
    }
}

impl fmt::Display for InjectionProcess {
    /// Rates print in the shortest `f64` form that round-trips, so
    /// [`InjectionProcess::parse`] inverts this exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bernoulli { rate } => Self::FORMS[0].write(f, &[rate]),
            Self::Bursty { rate_on, switch } => Self::FORMS[1].write(f, &[rate_on, switch]),
            Self::Periodic { rate, period, on } => Self::FORMS[2].write(f, &[rate, period, on]),
        }
    }
}

/// Packet-length distribution of a workload phase.
///
/// Labels (the `len…` segment of the phase grammar): `len4` (fixed 4
/// flits), `lenU1-8` (uniform on 1..=8), `lenB1-8p20` (bimodal: 8-flit
/// packets 20 % of the time, 1-flit otherwise). A phase without a length
/// spec uses the generator's global `packet_len` and consumes no extra RNG
/// draws, so pre-length configs keep their exact packet streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LengthSpec {
    /// Every packet is exactly `flits` long (no RNG draw).
    Fixed {
        /// Packet length in flits.
        flits: u32,
    },
    /// Lengths drawn uniformly from `min..=max` (one draw per packet).
    Uniform {
        /// Shortest packet, flits.
        min: u32,
        /// Longest packet, flits.
        max: u32,
    },
    /// Two-point mixture: `long` with probability `long_pct`/100, else
    /// `short` (one draw per packet).
    Bimodal {
        /// The common short length, flits.
        short: u32,
        /// The rare long length, flits.
        long: u32,
        /// Percentage of packets that are `long` (0..=100).
        long_pct: u32,
    },
}

impl LengthSpec {
    /// A fixed `flits`-flit length.
    pub fn fixed(flits: u32) -> Self {
        LengthSpec::Fixed { flits }
    }

    /// The length forms, in variant order: e.g. `len4`, `lenU1-8`,
    /// `lenB1-8p20`.
    pub const FORMS: [Form; 3] = [
        Form("len<flits>"),
        Form("lenU<min>-<max>"),
        Form("lenB<short>-<long>p<pct>"),
    ];

    /// Parse a canonical length label (the inverse of [`fmt::Display`]).
    ///
    /// # Errors
    /// Returns an error for anything but one of [`LengthSpec::FORMS`] with
    /// in-range parameters.
    pub fn parse(s: &str) -> SimResult<LengthSpec> {
        let f = Form::parse("length spec", &[], &Self::FORMS, s)?;
        let spec = match f.form {
            0 => Self::Fixed { flits: f.get(0)? },
            1 => Self::Uniform {
                min: f.get(0)?,
                max: f.get(1)?,
            },
            _ => Self::Bimodal {
                short: f.get(0)?,
                long: f.get(1)?,
                long_pct: f.get(2)?,
            },
        };
        f.checked(spec, Self::validate)
    }

    /// Check parameter ranges.
    ///
    /// # Errors
    /// Returns the first violated constraint (positive lengths, ordered
    /// bounds, percentage within 0..=100).
    pub fn validate(&self) -> SimResult<()> {
        let err = |why: String| Err(SimError::InvalidConfig(why));
        match *self {
            LengthSpec::Fixed { flits: 0 } => err("packet length must be positive".into()),
            LengthSpec::Uniform { min, max } if min == 0 || min > max => err(format!(
                "uniform length range {min}-{max} needs 0 < min <= max"
            )),
            LengthSpec::Bimodal {
                short,
                long,
                long_pct,
            } if short == 0 || short > long || long_pct > 100 => err(format!(
                "bimodal lengths {short}-{long}p{long_pct} need 0 < short <= long, pct <= 100"
            )),
            _ => Ok(()),
        }
    }

    /// Expected packet length in flits (for flit-rate normalization).
    pub fn mean_flits(&self) -> f64 {
        match *self {
            LengthSpec::Fixed { flits } => f64::from(flits),
            LengthSpec::Uniform { min, max } => (f64::from(min) + f64::from(max)) / 2.0,
            LengthSpec::Bimodal {
                short,
                long,
                long_pct,
            } => {
                let p = f64::from(long_pct) / 100.0;
                f64::from(long) * p + f64::from(short) * (1.0 - p)
            }
        }
    }

    /// Draw one packet length. Fixed specs consume no RNG draws.
    pub fn draw(&self, rng: &mut StdRng) -> u32 {
        match *self {
            LengthSpec::Fixed { flits } => flits,
            LengthSpec::Uniform { min, max } => rng.gen_range(min..=max),
            LengthSpec::Bimodal {
                short,
                long,
                long_pct,
            } => {
                if rng.gen_range(0u32..100) < long_pct {
                    long
                } else {
                    short
                }
            }
        }
    }
}

impl fmt::Display for LengthSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fixed { flits } => Self::FORMS[0].write(f, &[flits]),
            Self::Uniform { min, max } => Self::FORMS[1].write(f, &[min, max]),
            Self::Bimodal {
                short,
                long,
                long_pct,
            } => Self::FORMS[2].write(f, &[short, long, long_pct]),
        }
    }
}

/// One phase of a workload: a destination pattern driven by an injection
/// process for `cycles` cycles (`0` = hold forever; only valid on the final
/// phase), with an optional per-phase packet-length distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPhase {
    /// Destination-selection pattern in force during the phase.
    pub pattern: TrafficPattern,
    /// Injection process in force during the phase.
    pub process: InjectionProcess,
    /// Phase duration in cycles; `0` means the phase holds forever once
    /// reached (the stationary case).
    pub cycles: u64,
    /// Packet-length distribution; `None` (the default, and what legacy
    /// serialized phases deserialize to) uses the generator's global
    /// `packet_len` with byte-identical RNG draw order.
    #[serde(default)]
    pub length: Option<LengthSpec>,
}

impl WorkloadPhase {
    /// A phase binding `pattern` to `process` for `cycles` cycles.
    pub fn new(pattern: TrafficPattern, process: InjectionProcess, cycles: u64) -> Self {
        WorkloadPhase {
            pattern,
            process,
            cycles,
            length: None,
        }
    }

    /// A Bernoulli phase at `rate` flits/node/cycle (the legacy pairing).
    pub fn bernoulli(pattern: TrafficPattern, rate: f64, cycles: u64) -> Self {
        WorkloadPhase::new(pattern, InjectionProcess::Bernoulli { rate }, cycles)
    }

    /// The same phase with a packet-length distribution attached.
    #[must_use]
    pub fn with_length(mut self, length: LengthSpec) -> Self {
        self.length = Some(length);
        self
    }

    /// Expected packet length in flits, falling back to `default_len` (the
    /// generator's global `packet_len`) for phases without a length spec.
    pub fn mean_len_flits(&self, default_len: u32) -> f64 {
        self.length
            .as_ref()
            .map_or(f64::from(default_len), LengthSpec::mean_flits)
    }
}

/// A composable workload: ordered [`WorkloadPhase`]s. If every phase is
/// bounded the schedule repeats cyclically; a final phase with `cycles == 0`
/// holds forever instead. A single unbounded phase is the stationary case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The phase schedule, in order.
    pub phases: Vec<WorkloadPhase>,
}

impl WorkloadSpec {
    /// A workload from an explicit phase list.
    pub fn new(phases: Vec<WorkloadPhase>) -> Self {
        WorkloadSpec { phases }
    }

    /// A stationary workload: one unbounded phase of `pattern` × `process`.
    pub fn stationary(pattern: TrafficPattern, process: InjectionProcess) -> Self {
        WorkloadSpec::new(vec![WorkloadPhase::new(pattern, process, 0)])
    }

    /// The legacy pairing: a stationary Bernoulli workload at `rate`
    /// flits/node/cycle.
    pub fn bernoulli(pattern: TrafficPattern, rate: f64) -> Self {
        WorkloadSpec::stationary(pattern, InjectionProcess::Bernoulli { rate })
    }

    /// Canonical label (see [`fmt::Display`]). [`WorkloadSpec::parse`]
    /// inverts this exactly; sweep scenario labels, CLI flags, and report
    /// keys all use this one grammar.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parse a canonical workload label (inverse of [`WorkloadSpec::label`]).
    /// The parsed spec is shape-checked (non-empty, ranges, `@0`/missing
    /// duration only on the final phase); topology fit is checked later by
    /// [`WorkloadSpec::validate`].
    ///
    /// # Errors
    /// Returns an error describing the first malformed phase.
    pub fn parse(s: &str) -> SimResult<WorkloadSpec> {
        let inner = s
            .strip_prefix("ph[")
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| {
                SimError::InvalidConfig(format!(
                    "workload `{s}`: expected ph[<phase>|<phase>|…], e.g. \
                     ph[uniform:bern0.1@5000|tornado:burst0.3x0.05@5000]"
                ))
            })?;
        let mut phases = Vec::new();
        for part in inner.split('|') {
            let bad = |why| SimError::InvalidConfig(format!("workload phase `{part}`: {why}"));
            let (pattern, rest) = (part.split_once(':'))
                .ok_or_else(|| bad("expected <pattern>:<process>[:len…][@cycles]".into()))?;
            let pattern = TrafficPattern::parse(pattern)?;
            let (rest, cycles) = match rest.split_once('@') {
                Some((rest, c)) => match c.parse::<u64>() {
                    Ok(cycles) => (rest, cycles),
                    Err(e) => return Err(bad(format!("bad duration `{c}`: {e}"))),
                },
                None => (rest, 0),
            };
            // Process labels never contain `:`, so a second colon can only
            // introduce the optional length segment.
            let (process, length) = match rest.split_once(':') {
                Some((process, len)) => (process, Some(LengthSpec::parse(len)?)),
                None => (rest, None),
            };
            let process = InjectionProcess::parse(process)?;
            phases.push(WorkloadPhase {
                pattern,
                process,
                cycles,
                length,
            });
        }
        let spec = WorkloadSpec::new(phases);
        spec.shape_check()?;
        Ok(spec)
    }

    /// Topology-independent structural checks: at least one phase, valid
    /// process and pattern parameters, and zero-duration (unbounded) phases
    /// only in final position.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn shape_check(&self) -> SimResult<()> {
        if self.phases.is_empty() {
            return Err(SimError::InvalidTrace("workload has no phases".into()));
        }
        for (i, p) in self.phases.iter().enumerate() {
            if p.cycles == 0 && i + 1 != self.phases.len() {
                return Err(SimError::InvalidTrace(format!(
                    "phase {i} has zero duration but is not the final phase"
                )));
            }
            p.process.validate()?;
            p.pattern.shape_check()?;
            if let Some(length) = &p.length {
                length.validate()?;
            }
        }
        Ok(())
    }

    /// Validate the workload against a topology.
    ///
    /// # Errors
    /// Returns an error if the shape check fails or a phase pattern does not
    /// fit the topology.
    pub fn validate(&self, topo: &Topology) -> SimResult<()> {
        self.shape_check()?;
        for p in &self.phases {
            p.pattern.validate(topo)?;
        }
        Ok(())
    }

    /// The phase in force at absolute cycle `t`: its index, the phase, and
    /// the offset into it. Bounded schedules repeat; an unbounded final
    /// phase absorbs all remaining time.
    ///
    /// # Panics
    /// Panics on an empty phase list (rejected by validation).
    pub fn phase_at(&self, t: u64) -> (usize, &WorkloadPhase, u64) {
        let last = self.phases.len() - 1;
        let mut pos = if self.phases[last].cycles == 0 {
            t // terminal hold: no wrap-around
        } else {
            let total: u64 = self.phases.iter().map(|p| p.cycles).sum();
            t % total
        };
        for (i, p) in self.phases.iter().enumerate() {
            if i == last || pos < p.cycles {
                return (i, p, pos);
            }
            pos -= p.cycles;
        }
        unreachable!("phase lookup within total duration")
    }

    /// Long-run mean injection rate: cycle-weighted over one schedule
    /// period, or the final phase's rate when it holds forever.
    pub fn mean_rate(&self) -> f64 {
        match self.phases.last() {
            Some(last) if last.cycles == 0 => last.process.mean_rate(),
            _ => {
                let total: u64 = self.phases.iter().map(|p| p.cycles).sum();
                if total == 0 {
                    return 0.0;
                }
                self.phases
                    .iter()
                    .map(|p| p.process.mean_rate() * p.cycles as f64)
                    .sum::<f64>()
                    / total as f64
            }
        }
    }

    /// Long-run mean packet length in flits: cycle-weighted over one
    /// schedule period (or the terminal hold phase), with `default_len`
    /// standing in for phases that use the generator's global `packet_len`.
    pub fn mean_len_flits(&self, default_len: u32) -> f64 {
        match self.phases.last() {
            Some(last) if last.cycles == 0 => last.mean_len_flits(default_len),
            _ => {
                let total: u64 = self.phases.iter().map(|p| p.cycles).sum();
                if total == 0 {
                    return f64::from(default_len);
                }
                self.phases
                    .iter()
                    .map(|p| p.mean_len_flits(default_len) * p.cycles as f64)
                    .sum::<f64>()
                    / total as f64
            }
        }
    }
}

impl fmt::Display for WorkloadSpec {
    /// `ph[<phase>|…]`, each phase `<pattern>:<process>[:<len>]` with
    /// `@<cycles>` appended when bounded, e.g.
    /// `ph[uniform:bern0.1@5000|tornado:burst0.3x0.05@5000]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ph[")?;
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i == 0 { "" } else { "|" };
            write!(f, "{sep}{}:{}", p.pattern, p.process)?;
            if let Some(length) = &p.length {
                write!(f, ":{length}")?;
            }
            if p.cycles > 0 {
                write!(f, "@{}", p.cycles)?;
            }
        }
        f.write_str("]")
    }
}

/// Traffic specification: a rate-based [`WorkloadSpec`] or an explicit
/// packet schedule (trace-driven traffic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficSpec {
    /// A rate-based workload (phases of pattern × injection process).
    Workload(WorkloadSpec),
    /// An explicit packet schedule (trace-driven traffic). Packet lengths
    /// come from the trace, not the generator's `packet_len`.
    Trace(PacketTrace),
}

impl TrafficSpec {
    /// The legacy pairing: a stationary Bernoulli workload of `pattern` at
    /// `rate` flits/node/cycle.
    pub fn stationary(pattern: TrafficPattern, rate: f64) -> Self {
        TrafficSpec::Workload(WorkloadSpec::bernoulli(pattern, rate))
    }

    /// The workload spec, if this is rate-based traffic.
    pub fn workload(&self) -> Option<&WorkloadSpec> {
        match self {
            TrafficSpec::Workload(w) => Some(w),
            TrafficSpec::Trace(_) => None,
        }
    }

    /// Validate the spec against a topology.
    ///
    /// # Errors
    /// Returns an error if the workload or trace is invalid for the
    /// topology.
    pub fn validate(&self, topo: &Topology) -> SimResult<()> {
        match self {
            TrafficSpec::Workload(w) => w.validate(topo),
            TrafficSpec::Trace(trace) => trace.validate(topo),
        }
    }
}

/// The integer form of the Bernoulli test `rng.gen::<f64>() < p`. That draw
/// is `k · 2⁻⁵³` with `k = next_u64() >> 11 < 2⁵³`, and for an integer `k`,
/// `k · 2⁻⁵³ < p` iff `k < ⌈p · 2⁵³⌉`: scaling by a power of two is exact,
/// subnormal `p` included. The cast saturates, so `p <= 0` and NaN give 0
/// (never) and `p >= 1` a threshold no `k` reaches (always).
fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli draw against a [`bernoulli_threshold`]: the decision
/// `rng.gen::<f64>() < p` makes, from the same draw, without the float.
#[inline]
fn bernoulli(rng: &mut impl RngCore, below: u64) -> bool {
    rng.next_u64() >> 11 < below
}

/// Generates packets cycle by cycle under a [`TrafficSpec`].
///
/// ```
/// use noc_sim::{Topology, TrafficGenerator, TrafficPattern, TrafficSpec};
///
/// let topo = Topology::mesh(4, 4);
/// let spec = TrafficSpec::stationary(TrafficPattern::Transpose, 0.5);
/// let mut gen = TrafficGenerator::new(&topo, spec, 4, 42)?;
/// let packets = gen.tick(&topo, 0);
/// for p in &packets {
///     assert_ne!(p.src, p.dst);
/// }
/// # Ok::<(), noc_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct TrafficGenerator {
    spec: TrafficSpec,
    packet_len: u32,
    rng: StdRng,
    next_id: u64,
    generated: u64,
    /// Phase the generator last ticked in (`None` before the first tick and
    /// for trace-driven specs); phase entry resets per-node process state.
    cur_phase: Option<usize>,
    /// Per-node ON/OFF state for bursty phases.
    burst_on: Vec<bool>,
}

impl TrafficGenerator {
    /// Build a generator.
    ///
    /// # Errors
    /// Returns an error if the spec is invalid for the topology or
    /// `packet_len == 0`.
    pub fn new(topo: &Topology, spec: TrafficSpec, packet_len: u32, seed: u64) -> SimResult<Self> {
        if packet_len == 0 {
            return Err(SimError::InvalidConfig(
                "packet length must be positive".into(),
            ));
        }
        spec.validate(topo)?;
        Ok(TrafficGenerator {
            spec,
            packet_len,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            generated: 0,
            cur_phase: None,
            burst_on: Vec::new(),
        })
    }

    /// Packet length in flits.
    pub fn packet_len(&self) -> u32 {
        self.packet_len
    }

    /// Total packets generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The workload phase the last [`TrafficGenerator::tick`] ran in
    /// (`None` before the first tick and for trace-driven specs). Drives
    /// the per-phase stat buckets without a second schedule lookup.
    pub fn current_phase(&self) -> Option<usize> {
        self.cur_phase
    }

    /// Replace the traffic spec at runtime (used by experiments that steer
    /// traffic externally). Per-node process state resets.
    ///
    /// # Errors
    /// Returns an error if the new spec is invalid for the topology.
    pub fn set_spec(&mut self, topo: &Topology, spec: TrafficSpec) -> SimResult<()> {
        spec.validate(topo)?;
        self.spec = spec;
        self.cur_phase = None;
        self.burst_on.clear();
        Ok(())
    }

    /// Generate the packets created at cycle `t`. For rate-based specs,
    /// each node samples its phase's injection process with per-packet
    /// probability `rate / packet_len`, so the *flit* injection rate matches
    /// the spec (self-addressed packets are skipped). For trace-driven
    /// specs, the scheduled events are emitted verbatim.
    pub fn tick(&mut self, topo: &Topology, t: u64) -> Vec<Packet> {
        // Disjoint field borrows: the phase stays borrowed from `spec`
        // across the node loop while `rng`/`burst_on` mutate, so the hot
        // path never clones the phase (hotspot patterns carry a Vec).
        let TrafficGenerator {
            spec,
            packet_len,
            rng,
            next_id,
            generated,
            cur_phase,
            burst_on,
        } = self;
        let mut out = Vec::new();
        let (index, phase, offset) = match spec {
            TrafficSpec::Trace(trace) => {
                for e in trace.events_at(t) {
                    out.push(Packet {
                        id: PacketId(*next_id),
                        src: e.src,
                        dst: e.dst,
                        len_flits: e.len_flits,
                        created_at: t,
                    });
                    *next_id += 1;
                    *generated += 1;
                }
                return out;
            }
            TrafficSpec::Workload(w) => w.phase_at(t),
        };
        if *cur_phase != Some(index) {
            *cur_phase = Some(index);
            // Phase entry (re-)initializes per-node process state. This
            // consumes RNG draws only for processes that need state (bursty
            // ON/OFF), so stateless phases — Bernoulli in particular — keep
            // the exact draw sequence of the pre-workload generator.
            if let InjectionProcess::Bursty { .. } = phase.process {
                burst_on.clear();
                for _ in 0..topo.num_nodes() {
                    let on = rng.gen::<f64>() < 0.5;
                    burst_on.push(on);
                }
            }
        }
        // Rates are flits/node/cycle; a phase-level length spec normalizes
        // by its *mean* so offered flit load stays what the label says. A
        // phase without one divides by the global `packet_len` — the exact
        // pre-length expression, preserving byte-identical draw sequences.
        let plen = phase.mean_len_flits(*packet_len);
        // Each coin is an integer compare against a threshold formed once
        // per tick ([`bernoulli_threshold`]): the same decisions from the
        // same draws as the float test `gen::<f64>() < rate / plen`.
        let (below, flip_below, pulse_on) = match &phase.process {
            InjectionProcess::Bernoulli { rate } => (bernoulli_threshold(rate / plen), 0, true),
            InjectionProcess::Bursty { rate_on, switch } => (
                bernoulli_threshold(rate_on / plen),
                bernoulli_threshold(*switch),
                true,
            ),
            InjectionProcess::Periodic { rate, period, on } => {
                (bernoulli_threshold(rate / plen), 0, offset % period < *on)
            }
        };
        if !pulse_on {
            return out; // a periodic phase between pulses: no node draws
        }
        let bursty = matches!(phase.process, InjectionProcess::Bursty { .. });
        for src in topo.nodes() {
            let inject = if bursty {
                if bernoulli(rng, flip_below) {
                    burst_on[src.0] = !burst_on[src.0];
                }
                burst_on[src.0] && bernoulli(rng, below)
            } else {
                bernoulli(rng, below)
            };
            if !inject {
                continue;
            }
            let dst = phase.pattern.destination(topo, src, rng);
            if dst == src {
                continue;
            }
            // Length draw comes after the destination draw and only for
            // phases with a spec (Fixed draws nothing), so legacy phases
            // consume the exact legacy RNG sequence.
            let len_flits = phase
                .length
                .as_ref()
                .map_or(*packet_len, |spec| spec.draw(rng));
            out.push(Packet {
                id: PacketId(*next_id),
                src,
                dst,
                len_flits,
                created_at: t,
            });
            *next_id += 1;
            *generated += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// The float test the integer draw replaces, on the same raw draw `x`.
    fn float_coin(x: u64, p: f64) -> bool {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The integer coin agrees with the float coin for any draw and any
        /// probability, in range and out of it.
        #[test]
        fn integer_coin_matches_float_coin(x in any::<u64>(), p in -0.5f64..1.5, tiny in any::<u64>()) {
            prop_assert_eq!(x >> 11 < bernoulli_threshold(p), float_coin(x, p));
            // A probability near the draw itself, where a rounding slip
            // would show first.
            let q = (x >> 11) as f64 / (1u64 << 53) as f64 + (tiny % 3) as f64 * 1e-17;
            prop_assert_eq!(x >> 11 < bernoulli_threshold(q), float_coin(x, q));
        }
    }

    /// The edges of the threshold, each against the draws just below, at and
    /// above it: 0, 2⁻⁵³, 1 − 2⁻⁵³, 1, beyond 1, subnormals, and NaN.
    #[test]
    fn integer_coin_matches_float_coin_at_the_edges() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let edges = [
            0.0,
            -0.0,
            ulp,
            2.0 * ulp,
            0.5,
            1.0 - ulp,
            1.0,
            1.0 + f64::EPSILON,
            3.0,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            5e-324,
            -5e-324,
            f64::NAN,
        ];
        let top = (1u64 << 53) - 1;
        for p in edges {
            let t = bernoulli_threshold(p).min(top);
            for k in [0, 1, 2, t.saturating_sub(1), t, (t + 1).min(top), top] {
                let x = k << 11 | 0x7ff; // the discarded low bits must not matter
                assert_eq!(
                    x >> 11 < bernoulli_threshold(p),
                    float_coin(x, p),
                    "p={p:e} k={k}"
                );
            }
        }
    }

    /// A 16x16 generator against a reference that makes every coin with the
    /// float expression, from the same seed, over 10 000 cycles: the same
    /// packets, for each injection process.
    #[test]
    fn integer_coins_keep_the_packet_stream() {
        let topo = Topology::mesh(16, 16);
        let processes = [
            InjectionProcess::Bernoulli { rate: 0.05 },
            InjectionProcess::Bursty {
                rate_on: 0.2,
                switch: 0.01,
            },
            InjectionProcess::Periodic {
                rate: 0.3,
                period: 50,
                on: 7,
            },
        ];
        for process in processes {
            let spec = WorkloadSpec::stationary(TrafficPattern::Uniform, process.clone());
            let mut gen = TrafficGenerator::new(&topo, TrafficSpec::Workload(spec), 4, 9).unwrap();
            let mut r = StdRng::seed_from_u64(9);
            let mut burst_on = Vec::new();
            let mut next_id = 0;
            for t in 0..10_000 {
                let mut want = Vec::new();
                if let (0, InjectionProcess::Bursty { .. }) = (t, &process) {
                    burst_on.extend((0..256).map(|_| r.gen::<f64>() < 0.5));
                }
                for src in topo.nodes() {
                    let inject = match process {
                        InjectionProcess::Bernoulli { rate } => r.gen::<f64>() < rate / 4.0,
                        InjectionProcess::Bursty { rate_on, switch } => {
                            if r.gen::<f64>() < switch {
                                burst_on[src.0] = !burst_on[src.0];
                            }
                            burst_on[src.0] && r.gen::<f64>() < rate_on / 4.0
                        }
                        InjectionProcess::Periodic { rate, period, on } => {
                            t % period < on && r.gen::<f64>() < rate / 4.0
                        }
                    };
                    if !inject {
                        continue;
                    }
                    let dst = TrafficPattern::Uniform.destination(&topo, src, &mut r);
                    if dst != src {
                        want.push((PacketId(next_id), src, dst));
                        next_id += 1;
                    }
                }
                let got: Vec<_> = gen
                    .tick(&topo, t)
                    .iter()
                    .map(|p| (p.id, p.src, p.dst))
                    .collect();
                assert_eq!(got, want, "{process:?} at cycle {t}");
            }
            assert!(next_id > 1000, "{process:?}: only {next_id} packets");
        }
    }

    #[test]
    fn uniform_on_single_node_returns_src() {
        let t = Topology::mesh(1, 1);
        let mut r = rng();
        assert_eq!(
            TrafficPattern::Uniform.destination(&t, NodeId(0), &mut r),
            NodeId(0)
        );
        // And the generator therefore produces no packets.
        let spec = TrafficSpec::stationary(TrafficPattern::Uniform, 0.9);
        let mut g = TrafficGenerator::new(&t, spec, 1, 0).unwrap();
        for c in 0..100 {
            assert!(g.tick(&t, c).is_empty());
        }
    }

    #[test]
    fn uniform_never_targets_self() {
        let t = Topology::mesh(4, 4);
        let mut r = rng();
        for _ in 0..500 {
            let d = TrafficPattern::Uniform.destination(&t, NodeId(5), &mut r);
            assert_ne!(d, NodeId(5));
            assert!(d.0 < 16);
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let t = Topology::mesh(4, 4);
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[TrafficPattern::Uniform.destination(&t, NodeId(0), &mut r).0] = true;
        }
        assert!(
            seen.iter().skip(1).all(|&s| s),
            "all non-self nodes should be hit"
        );
        assert!(!seen[0]);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let t = Topology::mesh(4, 4);
        let mut r = rng();
        // (1,2) = node 9 -> (2,1) = node 6.
        assert_eq!(
            TrafficPattern::Transpose.destination(&t, NodeId(9), &mut r),
            NodeId(6)
        );
    }

    #[test]
    fn bit_complement_mirrors_grid() {
        let t = Topology::mesh(4, 4);
        let mut r = rng();
        assert_eq!(
            TrafficPattern::BitComplement.destination(&t, NodeId(0), &mut r),
            NodeId(15)
        );
        assert_eq!(
            TrafficPattern::BitComplement.destination(&t, NodeId(5), &mut r),
            NodeId(10)
        );
    }

    #[test]
    fn bit_reverse_reverses_index_bits() {
        let t = Topology::mesh(4, 4);
        let mut r = rng();
        // 16 nodes -> 4 bits; 0b0001 -> 0b1000 = 8.
        assert_eq!(
            TrafficPattern::BitReverse.destination(&t, NodeId(1), &mut r),
            NodeId(8)
        );
        assert_eq!(
            TrafficPattern::BitReverse.destination(&t, NodeId(6), &mut r),
            NodeId(6)
        );
    }

    #[test]
    fn shuffle_rotates_index_bits() {
        let t = Topology::mesh(4, 4);
        let mut r = rng();
        // 0b1000 -> 0b0001.
        assert_eq!(
            TrafficPattern::Shuffle.destination(&t, NodeId(8), &mut r),
            NodeId(1)
        );
        // 0b0101 -> 0b1010.
        assert_eq!(
            TrafficPattern::Shuffle.destination(&t, NodeId(5), &mut r),
            NodeId(10)
        );
    }

    #[test]
    fn tornado_shifts_half_row() {
        let t = Topology::mesh(8, 8);
        let mut r = rng();
        // shift = ceil(8/2)-1 = 3: x=0 -> x=3, same row.
        assert_eq!(
            TrafficPattern::Tornado.destination(&t, NodeId(0), &mut r),
            NodeId(3)
        );
    }

    #[test]
    fn neighbor_wraps_row() {
        let t = Topology::mesh(4, 4);
        let mut r = rng();
        assert_eq!(
            TrafficPattern::Neighbor.destination(&t, NodeId(3), &mut r),
            NodeId(0)
        );
        assert_eq!(
            TrafficPattern::Neighbor.destination(&t, NodeId(0), &mut r),
            NodeId(1)
        );
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let t = Topology::mesh(4, 4);
        let mut r = rng();
        let p = TrafficPattern::Hotspot {
            hotspots: vec![NodeId(10)],
            fraction: 0.5,
        };
        let hits = (0..2000)
            .filter(|_| p.destination(&t, NodeId(0), &mut r) == NodeId(10))
            .count();
        // ~50% + small uniform contribution.
        assert!(
            (800..1300).contains(&hits),
            "hotspot hits {hits} outside expectation"
        );
    }

    #[test]
    fn pattern_names_roundtrip() {
        for (name, pattern) in TrafficPattern::NAMED {
            assert_eq!(pattern.to_string(), name);
            assert_eq!(TrafficPattern::parse(name).unwrap(), pattern);
        }
        // Hotspot labels carry their parameters and parse back.
        let p = TrafficPattern::Hotspot {
            hotspots: vec![NodeId(5), NodeId(6)],
            fraction: 0.3,
        };
        assert_eq!(p.to_string(), "hotspot5-6f0.3");
        assert_eq!(TrafficPattern::parse(&p.to_string()).unwrap(), p);
        let single = TrafficPattern::Hotspot {
            hotspots: vec![NodeId(0)],
            fraction: 0.125,
        };
        assert_eq!(TrafficPattern::parse(&single.to_string()).unwrap(), single);
        assert!(TrafficPattern::parse("hotspot").is_err());
        assert!(TrafficPattern::parse("hotspotf0.5").is_err());
        assert!(TrafficPattern::parse("hotspot1-xf0.5").is_err());
        assert!(TrafficPattern::parse("mystery").is_err());
    }

    #[test]
    fn pattern_validation_catches_mismatches() {
        let rect = Topology::mesh(4, 3);
        assert!(TrafficPattern::Transpose.validate(&rect).is_err());
        assert!(TrafficPattern::BitReverse.validate(&rect).is_err());
        assert!(TrafficPattern::Uniform.validate(&rect).is_ok());
        let square = Topology::mesh(4, 4);
        assert!(TrafficPattern::Transpose.validate(&square).is_ok());
        assert!(TrafficPattern::Hotspot {
            hotspots: vec![],
            fraction: 0.5
        }
        .validate(&square)
        .is_err());
        assert!(TrafficPattern::Hotspot {
            hotspots: vec![NodeId(99)],
            fraction: 0.5
        }
        .validate(&square)
        .is_err());
        assert!(TrafficPattern::Hotspot {
            hotspots: vec![NodeId(0)],
            fraction: 1.5
        }
        .validate(&square)
        .is_err());
    }

    #[test]
    fn process_labels_roundtrip() {
        let processes = [
            InjectionProcess::Bernoulli { rate: 0.1 },
            InjectionProcess::Bernoulli { rate: 0.0 },
            InjectionProcess::Bursty {
                rate_on: 0.3,
                switch: 0.05,
            },
            InjectionProcess::Periodic {
                rate: 0.4,
                period: 100,
                on: 20,
            },
        ];
        for p in processes {
            let label = p.to_string();
            assert_eq!(InjectionProcess::parse(&label).unwrap(), p, "{label}");
        }
        assert_eq!(
            InjectionProcess::Bursty {
                rate_on: 0.3,
                switch: 0.05
            }
            .to_string(),
            "burst0.3x0.05"
        );
        assert!(InjectionProcess::parse("bern1.5").is_err());
        assert!(InjectionProcess::parse("burst0.3").is_err());
        assert!(InjectionProcess::parse("pulse0.3x100").is_err());
        assert!(InjectionProcess::parse("pulse0.3x100x200").is_err());
        assert!(InjectionProcess::parse("burst0.3x0").is_err());
        assert!(InjectionProcess::parse("poisson0.1").is_err());
    }

    #[test]
    fn process_mean_rates() {
        assert_eq!(InjectionProcess::Bernoulli { rate: 0.2 }.mean_rate(), 0.2);
        assert_eq!(
            InjectionProcess::Bursty {
                rate_on: 0.3,
                switch: 0.05
            }
            .mean_rate(),
            0.15
        );
        assert_eq!(
            InjectionProcess::Periodic {
                rate: 0.4,
                period: 100,
                on: 25
            }
            .mean_rate(),
            0.1
        );
    }

    #[test]
    fn workload_labels_roundtrip() {
        let spec = WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 5000),
            WorkloadPhase::new(
                TrafficPattern::Tornado,
                InjectionProcess::Bursty {
                    rate_on: 0.3,
                    switch: 0.05,
                },
                5000,
            ),
            WorkloadPhase::new(
                TrafficPattern::Hotspot {
                    hotspots: vec![NodeId(0), NodeId(12)],
                    fraction: 0.3,
                },
                InjectionProcess::Periodic {
                    rate: 0.4,
                    period: 200,
                    on: 50,
                },
                0,
            ),
        ]);
        let label = spec.label();
        assert_eq!(
            label,
            "ph[uniform:bern0.1@5000|tornado:burst0.3x0.05@5000|\
             hotspot0-12f0.3:pulse0.4x200x50]"
        );
        assert_eq!(WorkloadSpec::parse(&label).unwrap(), spec);

        // Stationary specs have an unbounded single phase and no `@`.
        let stationary = WorkloadSpec::bernoulli(TrafficPattern::Uniform, 0.1);
        assert_eq!(stationary.label(), "ph[uniform:bern0.1]");
        assert_eq!(
            WorkloadSpec::parse(&stationary.label()).unwrap(),
            stationary
        );

        assert!(WorkloadSpec::parse("uniform:bern0.1").is_err());
        assert!(WorkloadSpec::parse("ph[]").is_err());
        assert!(WorkloadSpec::parse("ph[uniform]").is_err());
        assert!(WorkloadSpec::parse("ph[mystery:bern0.1]").is_err());
        // Unbounded phases are only legal in final position.
        assert!(WorkloadSpec::parse("ph[uniform:bern0.1|tornado:bern0.2@100]").is_err());
        // Out-of-range hotspot parameters are caught at parse time, not
        // deferred to topology validation.
        assert!(WorkloadSpec::parse("ph[hotspot0f1.5:bern0.1]").is_err());
        assert!(TrafficPattern::parse("hotspot0f1.5").is_err());
        assert!(TrafficPattern::parse("hotspot0f0.5").is_ok());
        assert!(TrafficPattern::parse("mystery").is_err());
    }

    #[test]
    fn workload_mean_rate_is_cycle_weighted() {
        let spec = WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 300),
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.4, 100),
        ]);
        assert!((spec.mean_rate() - 0.175).abs() < 1e-12);
        // A terminal hold dominates the long run.
        let held = WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.4, 100),
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 0),
        ]);
        assert_eq!(held.mean_rate(), 0.1);
    }

    #[test]
    fn phase_lookup_cycles_and_holds() {
        let cyclic = WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 100),
            WorkloadPhase::bernoulli(TrafficPattern::Transpose, 0.4, 50),
        ]);
        assert_eq!(cyclic.phase_at(0).0, 0);
        assert_eq!(cyclic.phase_at(99).0, 0);
        assert_eq!(cyclic.phase_at(100).0, 1);
        assert_eq!(cyclic.phase_at(149).0, 1);
        assert_eq!(cyclic.phase_at(150).0, 0, "bounded schedules repeat");
        assert_eq!(cyclic.phase_at(150).2, 0, "offset resets on wrap");

        let held = WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 100),
            WorkloadPhase::bernoulli(TrafficPattern::Transpose, 0.4, 0),
        ]);
        assert_eq!(held.phase_at(99).0, 0);
        assert_eq!(held.phase_at(100).0, 1);
        assert_eq!(held.phase_at(1_000_000).0, 1, "terminal phase holds");
        assert_eq!(held.phase_at(1_000_100).2, 1_000_000);
    }

    #[test]
    fn generator_matches_requested_rate() {
        let t = Topology::mesh(4, 4);
        let spec = TrafficSpec::stationary(TrafficPattern::Uniform, 0.2);
        let mut g = TrafficGenerator::new(&t, spec, 4, 7).unwrap();
        let cycles = 20_000u64;
        let mut flits = 0u64;
        for c in 0..cycles {
            flits += g
                .tick(&t, c)
                .iter()
                .map(|p| p.len_flits as u64)
                .sum::<u64>();
        }
        let rate = flits as f64 / (cycles as f64 * 16.0);
        assert!(
            (rate - 0.2).abs() < 0.01,
            "measured flit rate {rate}, wanted 0.2"
        );
    }

    /// Measure a generator's mean flit rate and the index of dispersion
    /// (variance/mean) of offered flits aggregated over 32-cycle blocks —
    /// the same estimator the stats layer uses, which makes the temporal
    /// clumping of bursty sources visible.
    fn offered_stats(spec: TrafficSpec, cycles: u64) -> (f64, f64) {
        const BLOCK: u64 = 32;
        let t = Topology::mesh(4, 4);
        let mut g = TrafficGenerator::new(&t, spec, 4, 7).unwrap();
        let mut total = 0u64;
        let mut acc = 0u64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let blocks = cycles / BLOCK;
        for c in 0..blocks * BLOCK {
            let flits: u64 = g.tick(&t, c).iter().map(|p| p.len_flits as u64).sum();
            total += flits;
            acc += flits;
            if (c + 1) % BLOCK == 0 {
                sum += acc as f64;
                sum_sq += (acc * acc) as f64;
                acc = 0;
            }
        }
        let mean = sum / blocks as f64;
        let var = sum_sq / blocks as f64 - mean * mean;
        (
            total as f64 / (blocks as f64 * BLOCK as f64 * 16.0),
            var / mean,
        )
    }

    #[test]
    fn bursty_process_matches_mean_rate_but_is_burstier() {
        let bern = TrafficSpec::stationary(TrafficPattern::Uniform, 0.2);
        let bursty = TrafficSpec::Workload(WorkloadSpec::stationary(
            TrafficPattern::Uniform,
            InjectionProcess::Bursty {
                rate_on: 0.4,
                switch: 0.02,
            },
        ));
        let (bern_rate, bern_disp) = offered_stats(bern, 40_000);
        let (bursty_rate, bursty_disp) = offered_stats(bursty, 40_000);
        assert!(
            (bursty_rate - 0.2).abs() < 0.02,
            "bursty mean rate {bursty_rate}, wanted ~0.2"
        );
        assert!((bern_rate - 0.2).abs() < 0.01);
        assert!(
            bursty_disp > 1.5 * bern_disp,
            "on/off bursts must clump arrivals: dispersion {bursty_disp} \
             vs Bernoulli {bern_disp}"
        );
    }

    #[test]
    fn periodic_process_pulses_in_lockstep() {
        let spec = TrafficSpec::Workload(WorkloadSpec::stationary(
            TrafficPattern::Uniform,
            InjectionProcess::Periodic {
                rate: 0.8,
                period: 100,
                on: 25,
            },
        ));
        let t = Topology::mesh(4, 4);
        let mut g = TrafficGenerator::new(&t, spec, 4, 7).unwrap();
        let mut on_window = 0u64;
        let mut off_window = 0u64;
        for c in 0..10_000 {
            let n = g.tick(&t, c).len() as u64;
            if c % 100 < 25 {
                on_window += n;
            } else {
                off_window += n;
            }
        }
        assert_eq!(off_window, 0, "no packets outside the pulse");
        assert!(on_window > 500, "pulses must carry the traffic");
    }

    #[test]
    fn phase_trace_switches_patterns() {
        let t = Topology::mesh(4, 4);
        let spec = WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 100),
            WorkloadPhase::bernoulli(TrafficPattern::Transpose, 0.4, 50),
        ]);
        assert!(spec.validate(&t).is_ok());
        let rate_at = |t: u64| spec.phase_at(t).1.process.mean_rate();
        assert_eq!(rate_at(0), 0.1);
        assert_eq!(rate_at(99), 0.1);
        assert_eq!(rate_at(100), 0.4);
        assert_eq!(rate_at(149), 0.4);
        // Wraps around.
        assert_eq!(rate_at(150), 0.1);
    }

    #[test]
    fn invalid_specs_rejected() {
        let t = Topology::mesh(4, 4);
        assert!(TrafficSpec::stationary(TrafficPattern::Uniform, 1.5)
            .validate(&t)
            .is_err());
        assert!(WorkloadSpec::new(vec![]).validate(&t).is_err());
        // Zero duration anywhere but last is invalid.
        assert!(WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 0),
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 10),
        ])
        .validate(&t)
        .is_err());
        assert!(WorkloadSpec::stationary(
            TrafficPattern::Uniform,
            InjectionProcess::Bursty {
                rate_on: 0.2,
                switch: 0.0
            }
        )
        .validate(&t)
        .is_err());
        assert!(WorkloadSpec::stationary(
            TrafficPattern::Uniform,
            InjectionProcess::Periodic {
                rate: 0.2,
                period: 10,
                on: 11
            }
        )
        .validate(&t)
        .is_err());
        assert!(TrafficGenerator::new(
            &t,
            TrafficSpec::stationary(TrafficPattern::Uniform, 0.1),
            0,
            1
        )
        .is_err());
    }

    #[test]
    fn pre_workload_spec_json_is_a_serde_error() {
        // The `Stationary` / `PhaseTrace` tags were retired with the
        // hand-written serde: they are unknown variants now, reported as
        // errors rather than panics.
        for old in [
            r#"{"Stationary":{"pattern":"Uniform","rate":0.1}}"#,
            r#"{"PhaseTrace":{"phases":[{"pattern":"Uniform","rate":0.05,"cycles":100}]}}"#,
        ] {
            let err = serde_json::from_str::<TrafficSpec>(old).unwrap_err();
            assert!(err.to_string().contains("unknown variant"), "{err}");
        }
        assert!(serde_json::from_str::<TrafficSpec>(r#"{"Workload":{}}"#).is_err());
    }

    #[test]
    fn traffic_spec_serializes_roundtrip() {
        let specs = [
            TrafficSpec::stationary(TrafficPattern::Uniform, 0.1),
            TrafficSpec::Workload(WorkloadSpec::new(vec![
                WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.05, 100),
                WorkloadPhase::new(
                    TrafficPattern::Hotspot {
                        hotspots: vec![NodeId(3)],
                        fraction: 0.25,
                    },
                    InjectionProcess::Bursty {
                        rate_on: 0.3,
                        switch: 0.05,
                    },
                    0,
                ),
            ])),
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TrafficSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn trace_spec_emits_scheduled_packets() {
        use crate::trace::{PacketTrace, TraceEvent};
        let t = Topology::mesh(4, 4);
        let trace = PacketTrace::new(
            vec![
                TraceEvent {
                    cycle: 1,
                    src: NodeId(0),
                    dst: NodeId(5),
                    len_flits: 3,
                },
                TraceEvent {
                    cycle: 1,
                    src: NodeId(2),
                    dst: NodeId(9),
                    len_flits: 1,
                },
                TraceEvent {
                    cycle: 4,
                    src: NodeId(7),
                    dst: NodeId(0),
                    len_flits: 2,
                },
            ],
            Some(10),
        )
        .unwrap();
        let mut g = TrafficGenerator::new(&t, TrafficSpec::Trace(trace), 5, 0).unwrap();
        assert!(g.tick(&t, 0).is_empty());
        assert_eq!(g.current_phase(), None, "trace specs have no phases");
        let at1 = g.tick(&t, 1);
        assert_eq!(at1.len(), 2);
        assert_eq!(at1[0].len_flits, 3, "trace length overrides packet_len");
        assert_eq!(g.tick(&t, 4).len(), 1);
        // Repeats at cycle 11.
        assert_eq!(g.tick(&t, 11).len(), 2);
        assert_eq!(g.generated(), 5);
    }

    #[test]
    fn trace_spec_validates_topology() {
        use crate::trace::{PacketTrace, TraceEvent};
        let t = Topology::mesh(2, 2);
        let trace = PacketTrace::new(
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(99),
                len_flits: 1,
            }],
            None,
        )
        .unwrap();
        assert!(TrafficSpec::Trace(trace).validate(&t).is_err());
    }

    /// Every rejection of the label grammar: the parser, the malformed
    /// label, and a fragment of its message, which never repeats the
    /// `invalid configuration:` prefix.
    #[test]
    fn malformed_labels_are_rejected() {
        type Parse = fn(&str) -> SimResult<()>;
        let pattern: Parse = |s| TrafficPattern::parse(s).map(drop);
        let process: Parse = |s| InjectionProcess::parse(s).map(drop);
        let length: Parse = |s| LengthSpec::parse(s).map(drop);
        let workload: Parse = |s| WorkloadSpec::parse(s).map(drop);
        let corpus: [(Parse, &str, &str); 27] = [
            (
                pattern,
                "mystery",
                "unknown traffic pattern `mystery` (expected one of: uniform, transpose, \
                 bitcomp, bitrev, shuffle, tornado, neighbor, hotspot<id>-…f<fraction>)",
            ),
            (pattern, "hotspot", "expected hotspot<id>-…f<fraction>"),
            (pattern, "hotspotf0.5", "bad id ``"),
            (pattern, "hotspot1-xf0.5", "bad id `x`"),
            (
                pattern,
                "hotspot0f1.5",
                "`hotspot0f1.5`: hotspot fraction 1.5",
            ),
            (process, "bern1.5", "`bern1.5`: injection rate 1.5 outside"),
            (process, "bernx", "bad rate `x`"),
            (process, "burst0.3", "expected burst<rate_on>x<switch>"),
            (process, "burst0.3x0", "burst switch probability 0 outside"),
            (
                process,
                "pulse0.3x100",
                "expected pulse<rate>x<period>x<on>",
            ),
            (process, "pulse0.3x100x200", "pulse window 200/100"),
            (
                process,
                "poisson0.1",
                "unknown injection process `poisson0.1` (expected one of: bern<rate>, \
                 burst<rate_on>x<switch>, pulse<rate>x<period>x<on>)",
            ),
            (length, "lenU4", "expected lenU<min>-<max>"),
            (length, "lenB1-8", "expected lenB<short>-<long>p<pct>"),
            (length, "len0", "`len0`: packet length must be positive"),
            (
                length,
                "flits4",
                "unknown length spec `flits4` (expected one of: len<flits>, \
                 lenU<min>-<max>, lenB<short>-<long>p<pct>)",
            ),
            (
                workload,
                "uniform:bern0.1",
                "expected ph[<phase>|<phase>|…]",
            ),
            (
                workload,
                "ph[]",
                "workload phase ``: expected <pattern>:<process>",
            ),
            (
                workload,
                "ph[uniform]",
                "workload phase `uniform`: expected",
            ),
            (workload, "ph[uniform:bern0.1@x]", "bad duration `x`"),
            (
                workload,
                "ph[mystery:bern0.1]",
                "unknown traffic pattern `mystery`",
            ),
            (workload, "ph[hotspot0f1.5:bern0.1]", "hotspot fraction 1.5"),
            (
                workload,
                "ph[uniform:bern1.5]",
                "`bern1.5`: injection rate 1.5",
            ),
            (
                workload,
                "ph[uniform:bern0.1:len0]",
                "packet length must be positive",
            ),
            (
                workload,
                "ph[uniform:bern0.1:bogus]",
                "unknown length spec `bogus`",
            ),
            (
                workload,
                "ph[uniform:bern0.1|tornado:bern0.2@100]",
                "phase 0 has zero duration but is not the final phase",
            ),
            (
                workload,
                "ph[uniform:poisson0.1]",
                "unknown injection process",
            ),
        ];
        for (parse, label, message) in corpus {
            let err = parse(label).expect_err(label).to_string();
            assert!(err.contains(message), "{label}: {err}");
            assert!(err.matches("invalid configuration:").count() <= 1, "{err}");
        }
    }

    #[test]
    fn length_spec_labels_round_trip() {
        let specs = [
            LengthSpec::fixed(4),
            LengthSpec::Uniform { min: 1, max: 8 },
            LengthSpec::Bimodal {
                short: 1,
                long: 8,
                long_pct: 20,
            },
        ];
        for spec in specs {
            let label = spec.to_string();
            assert_eq!(LengthSpec::parse(&label).unwrap(), spec, "{label}");
        }
        assert_eq!(LengthSpec::fixed(4).to_string(), "len4");
        assert_eq!(
            LengthSpec::Uniform { min: 1, max: 8 }.to_string(),
            "lenU1-8"
        );
        assert_eq!(
            LengthSpec::Bimodal {
                short: 1,
                long: 8,
                long_pct: 20
            }
            .to_string(),
            "lenB1-8p20"
        );
    }

    #[test]
    fn length_spec_rejects_bad_parameters() {
        assert!(LengthSpec::parse("len0").is_err());
        assert!(LengthSpec::parse("lenU0-4").is_err());
        assert!(LengthSpec::parse("lenU5-2").is_err());
        assert!(LengthSpec::parse("lenB4-2p10").is_err());
        assert!(LengthSpec::parse("lenB1-8p120").is_err());
        assert!(LengthSpec::parse("len").is_err());
        assert!(LengthSpec::parse("lenU4").is_err());
        assert!(LengthSpec::parse("lenB1-8").is_err());
        assert!(LengthSpec::parse("flits4").is_err());
    }

    #[test]
    fn length_spec_means_and_draws() {
        assert_eq!(LengthSpec::fixed(4).mean_flits(), 4.0);
        assert_eq!(LengthSpec::Uniform { min: 1, max: 8 }.mean_flits(), 4.5);
        let bimodal = LengthSpec::Bimodal {
            short: 1,
            long: 9,
            long_pct: 25,
        };
        assert!((bimodal.mean_flits() - 3.0).abs() < 1e-12);

        let mut r = rng();
        for _ in 0..200 {
            assert_eq!(LengthSpec::fixed(4).draw(&mut r), 4);
        }
        let mut seen = [false; 9];
        for _ in 0..500 {
            let l = LengthSpec::Uniform { min: 1, max: 8 }.draw(&mut r);
            assert!((1..=8).contains(&l));
            seen[l as usize] = true;
        }
        assert!(seen[1..=8].iter().all(|&s| s), "all lengths drawn");
        let mut longs = 0;
        for _ in 0..1000 {
            match bimodal.draw(&mut r) {
                9 => longs += 1,
                1 => {}
                other => panic!("bimodal drew {other}"),
            }
        }
        assert!((150..400).contains(&longs), "~25% long: {longs}");
    }

    #[test]
    fn workload_labels_round_trip_length_segment() {
        let spec = WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 500)
                .with_length(LengthSpec::fixed(8)),
            WorkloadPhase::bernoulli(TrafficPattern::Tornado, 0.2, 0).with_length(
                LengthSpec::Bimodal {
                    short: 1,
                    long: 8,
                    long_pct: 20,
                },
            ),
        ]);
        let label = spec.label();
        assert_eq!(
            label,
            "ph[uniform:bern0.1:len8@500|tornado:bern0.2:lenB1-8p20]"
        );
        assert_eq!(WorkloadSpec::parse(&label).unwrap(), spec);
        // Bad length segments fail at parse time.
        assert!(WorkloadSpec::parse("ph[uniform:bern0.1:len0]").is_err());
        assert!(WorkloadSpec::parse("ph[uniform:bern0.1:bogus]").is_err());
    }

    #[test]
    fn lengthed_phases_normalize_packet_rate_by_mean_length() {
        // Offered *flit* rate should track the process rate regardless of
        // packet length: len8 packets must be offered 8x more rarely.
        let t = Topology::mesh(8, 8);
        let flits = |len: Option<LengthSpec>| {
            let mut phase = WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.2, 0);
            if let Some(l) = len {
                phase = phase.with_length(l);
            }
            let spec = TrafficSpec::Workload(WorkloadSpec::new(vec![phase]));
            let mut g = TrafficGenerator::new(&t, spec, 1, 7).unwrap();
            let mut flits = 0u64;
            for c in 0..4000 {
                flits += g
                    .tick(&t, c)
                    .iter()
                    .map(|p| u64::from(p.len_flits))
                    .sum::<u64>();
            }
            flits as f64 / (4000.0 * 64.0)
        };
        let single = flits(None);
        let long = flits(Some(LengthSpec::fixed(8)));
        let mixed = flits(Some(LengthSpec::Uniform { min: 1, max: 8 }));
        for (name, rate) in [("single", single), ("len8", long), ("lenU1-8", mixed)] {
            assert!(
                (rate - 0.2).abs() / 0.2 < 0.1,
                "{name} flit rate {rate} should track offered 0.2"
            );
        }
    }

    #[test]
    fn fixed_length_spec_preserves_rng_stream() {
        // A `len(packet_len)` fixed spec consumes no RNG draws, so the
        // packet stream (ids, sources, destinations, timing) is
        // byte-identical to the legacy no-length-spec configuration.
        let t = Topology::mesh(4, 4);
        let run = |len: Option<LengthSpec>| {
            let mut phase = WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.3, 0);
            if let Some(l) = len {
                phase = phase.with_length(l);
            }
            let spec = TrafficSpec::Workload(WorkloadSpec::new(vec![phase]));
            let mut g = TrafficGenerator::new(&t, spec, 5, 11).unwrap();
            let mut out = Vec::new();
            for c in 0..500 {
                out.extend(g.tick(&t, c));
            }
            out
        };
        assert_eq!(run(None), run(Some(LengthSpec::fixed(5))));
    }

    #[test]
    fn packet_ids_are_unique_and_monotone() {
        let t = Topology::mesh(4, 4);
        let spec = TrafficSpec::stationary(TrafficPattern::Uniform, 0.5);
        let mut g = TrafficGenerator::new(&t, spec, 1, 3).unwrap();
        let mut last = None;
        for c in 0..100 {
            for p in g.tick(&t, c) {
                if let Some(l) = last {
                    assert!(p.id.0 > l);
                }
                last = Some(p.id.0);
            }
        }
        assert!(g.generated() > 0);
    }
}
