//! # noc-sim — a cycle-level network-on-chip simulator
//!
//! The evaluation substrate for the *Deep Reinforcement Learning for
//! Self-Configurable NoC* (SOCC 2020) reproduction. Everything is built from
//! scratch: wormhole switching with virtual channels and credit-based flow
//! control, eight routing algorithms, classic synthetic traffic patterns,
//! per-region DVFS with an event-energy power model, and the warmup /
//! measure / drain methodology.
//!
//! ## Quick start
//!
//! ```
//! use noc_sim::{SimConfig, Simulator, TrafficPattern};
//!
//! # fn main() -> Result<(), noc_sim::SimError> {
//! let config = SimConfig::default()
//!     .with_size(4, 4)
//!     .with_traffic(TrafficPattern::Uniform, 0.1);
//! let mut sim = Simulator::new(config)?;
//! let summary = sim.run_classic(500, 2000, 2000);
//! println!(
//!     "avg latency {:.1} cycles at throughput {:.3} flits/node/cycle",
//!     summary.window.avg_packet_latency, summary.window.throughput
//! );
//! # Ok(())
//! # }
//! ```
//!
//! ## Architecture
//!
//! * [`topology`] — mesh/torus grids, ports, neighbor wiring.
//! * [`flit`] — packets and the 32-byte flits a source queue mints from
//!   them one at a time.
//! * [`routing`] — XY/YX, three turn models, Odd-Even, torus DOR and
//!   torus minimal-adaptive.
//! * `soa` (private) — the three-stage VC router pipeline (RC, VA, SA/ST)
//!   over flat structure-of-arrays fabric state, the buffered flits
//!   included (one fixed ring per input VC); each router writes its cycle
//!   into the network's outbox and returns its energy-event counts.
//!   Switch allocation has one path, whose release rule is the
//!   configured arbitration; its
//!   request pass sorts the occupied VCs once for all three stages, and
//!   neighbours come from a table built with the network.
//! * [`traffic`] — composable workloads: phase schedules binding patterns
//!   to injection processes (Bernoulli, bursty, pulsed), plus traces.
//! * [`names`] — the one name table per vocabulary that label printers,
//!   parsers and the unknown-name error are read off.
//! * [`dvfs`] / [`power`] — V/F levels, regions, clock gating, event energy.
//! * [`fault`] — timed link/router failures, fault-aware rerouting support.
//! * [`network`] — the router grid, links, injection queues, cycle loop;
//!   one walk per cycle steps and prices the active routers in node order.
//! * [`stats`] / [`sim`] — metrics and the simulation driver.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod dvfs;
pub mod error;
pub mod fault;
pub mod flit;
pub mod names;
pub mod network;
pub mod power;
pub mod routing;
pub mod sim;
mod soa;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use config::{SimConfig, SwitchArb};
pub use dvfs::{ClockGate, RegionMap, ThrottleEvent, VfLevel, VfTable};
pub use error::{SimError, SimResult};
pub use fault::{FaultEvent, FaultPlan, FaultTarget, LinkState};
pub use flit::{Flit, FlitKind, Packet, PacketId};
pub use network::Network;
pub use power::{EnergyMeter, PowerEvent, PowerModel};
pub use routing::{RoutingAlgorithm, RoutingTables};
pub use sim::{RunSummary, Simulator};
pub use stats::{StatsCollector, StatsSnapshot, WindowMetrics};
pub use topology::{Coord, NodeId, Port, Topology, TopologyKind};
pub use trace::{PacketTrace, TraceEvent};
pub use traffic::{
    InjectionProcess, LengthSpec, TrafficGenerator, TrafficPattern, TrafficSpec, WorkloadPhase,
    WorkloadSpec,
};
