//! Event-energy power model.
//!
//! A simplified Orion-style model: each micro-architectural event (buffer
//! write/read, route computation, VC allocation, switch arbitration, crossbar
//! traversal, link traversal) costs a fixed dynamic energy at nominal
//! voltage, scaled by `(V/V_nom)²` under DVFS; routers and links additionally
//! leak a fixed static power scaled by `V/V_nom`.
//!
//! Absolute joule values are representative, not calibrated — every result in
//! the evaluation is a *ratio* between controllers on the same model (see
//! DESIGN.md, substitution 2).

use serde::{Deserialize, Serialize};

/// Energies are in picojoules (pJ), powers in pJ per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Energy to write one flit into an input buffer.
    pub e_buffer_write: f64,
    /// Energy to read one flit out of an input buffer.
    pub e_buffer_read: f64,
    /// Energy for one route computation.
    pub e_route: f64,
    /// Energy for one VC allocation.
    pub e_vc_alloc: f64,
    /// Energy for one switch arbitration.
    pub e_sw_arb: f64,
    /// Energy for one crossbar traversal of a flit.
    pub e_xbar: f64,
    /// Energy for one flit traversing one inter-router link.
    pub e_link: f64,
    /// Router leakage power (pJ/cycle at nominal voltage).
    pub p_leak_router: f64,
    /// Link leakage power (pJ/cycle at nominal voltage, per unidirectional link).
    pub p_leak_link: f64,
    /// Fraction of leakage an *idle* router (empty buffers, empty source
    /// queue) still pays. `1.0` disables power gating; the paper's
    /// extension gates idle routers down to ~`0.2`.
    pub idle_leakage_fraction: f64,
}

impl PowerModel {
    /// Representative 32 nm-class relative magnitudes: buffer accesses
    /// dominate, crossbar next, arbitration cheap; links cost about as much
    /// as a buffer access per hop.
    pub fn default_32nm() -> Self {
        PowerModel {
            e_buffer_write: 1.2,
            e_buffer_read: 1.0,
            e_route: 0.1,
            e_vc_alloc: 0.15,
            e_sw_arb: 0.2,
            e_xbar: 0.8,
            e_link: 1.6,
            p_leak_router: 0.35,
            p_leak_link: 0.05,
            idle_leakage_fraction: 1.0,
        }
    }

    /// The default model with idle power gating enabled (gated routers leak
    /// at 20 % of nominal).
    pub fn with_power_gating() -> Self {
        PowerModel {
            idle_leakage_fraction: 0.2,
            ..PowerModel::default_32nm()
        }
    }

    /// One global cycle of leakage (pJ) of a router with `num_links`
    /// outgoing links at the given leakage scale (`V/V_nom`).
    pub(crate) fn leakage_pj(&self, num_links: usize, leakage_scale: f64) -> f64 {
        (self.p_leak_router + self.p_leak_link * num_links as f64) * leakage_scale
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::default_32nm()
    }
}

/// The kinds of dynamic events the router/link report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerEvent {
    /// A flit written into an input buffer.
    BufferWrite,
    /// A flit read out of an input buffer.
    BufferRead,
    /// One route computation.
    RouteCompute,
    /// One VC allocation.
    VcAlloc,
    /// One switch arbitration.
    SwitchArb,
    /// One crossbar traversal.
    Crossbar,
    /// One flit crossing an inter-router link.
    LinkTraversal,
}

/// Accumulates energy over a run, separating dynamic and leakage components.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    dynamic_pj: f64,
    leakage_pj: f64,
    events: u64,
}

impl EnergyMeter {
    /// A meter with zero accumulated energy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one dynamic event at the given voltage scale (`(V/V_nom)²`
    /// already applied by the caller via [`crate::dvfs::VfLevel::dynamic_scale`]).
    pub fn record(&mut self, model: &PowerModel, event: PowerEvent, dynamic_scale: f64) {
        let e = match event {
            PowerEvent::BufferWrite => model.e_buffer_write,
            PowerEvent::BufferRead => model.e_buffer_read,
            PowerEvent::RouteCompute => model.e_route,
            PowerEvent::VcAlloc => model.e_vc_alloc,
            PowerEvent::SwitchArb => model.e_sw_arb,
            PowerEvent::Crossbar => model.e_xbar,
            PowerEvent::LinkTraversal => model.e_link,
        };
        self.dynamic_pj += e * dynamic_scale;
        self.events += 1;
    }

    /// Record one global cycle of leakage for a router with `num_links`
    /// outgoing links, at the given leakage scale (`V/V_nom`).
    pub fn record_leakage(&mut self, model: &PowerModel, num_links: usize, leakage_scale: f64) {
        self.leakage_pj += model.leakage_pj(num_links, leakage_scale);
    }

    /// Add already-priced leakage terms ([`PowerModel::leakage_pj`]) one
    /// after another, in iteration order: the same f64 additions as one
    /// [`record_leakage`](Self::record_leakage) call per term, with the
    /// running sum kept out of memory.
    pub(crate) fn record_leakage_terms(&mut self, terms: impl Iterator<Item = f64>) {
        self.leakage_pj = terms.fold(self.leakage_pj, |sum, term| sum + term);
    }

    /// Total accumulated dynamic energy (pJ).
    pub fn dynamic_pj(&self) -> f64 {
        self.dynamic_pj
    }

    /// Total accumulated leakage energy (pJ).
    pub fn leakage_pj(&self) -> f64 {
        self.leakage_pj
    }

    /// Total energy (pJ).
    pub fn total_pj(&self) -> f64 {
        self.dynamic_pj + self.leakage_pj
    }

    /// Number of dynamic events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Fold another meter into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.dynamic_pj += other.dynamic_pj;
        self.leakage_pj += other.leakage_pj;
        self.events += other.events;
    }

    /// Difference `self - earlier`, for per-epoch accounting.
    ///
    /// # Panics
    /// Panics (debug builds) if `earlier` is not a prefix of `self` in event
    /// count, which indicates snapshots were taken out of order.
    pub fn since(&self, earlier: &EnergyMeter) -> EnergyMeter {
        debug_assert!(
            self.events >= earlier.events,
            "energy snapshots out of order"
        );
        EnergyMeter {
            dynamic_pj: self.dynamic_pj - earlier.dynamic_pj,
            leakage_pj: self.leakage_pj - earlier.leakage_pj,
            events: self.events - earlier.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_accumulate_scaled_energy() {
        let m = PowerModel::default_32nm();
        let mut meter = EnergyMeter::new();
        meter.record(&m, PowerEvent::BufferWrite, 1.0);
        meter.record(&m, PowerEvent::LinkTraversal, 0.25);
        assert!((meter.dynamic_pj() - (1.2 + 1.6 * 0.25)).abs() < 1e-12);
        assert_eq!(meter.events(), 2);
    }

    #[test]
    fn leakage_accumulates_per_cycle() {
        let m = PowerModel::default_32nm();
        let mut meter = EnergyMeter::new();
        for _ in 0..10 {
            meter.record_leakage(&m, 4, 1.0);
        }
        let expected = 10.0 * (0.35 + 0.05 * 4.0);
        assert!((meter.leakage_pj() - expected).abs() < 1e-9);
        assert!((meter.total_pj() - expected).abs() < 1e-9);
    }

    #[test]
    fn power_gating_scales_idle_leakage() {
        let gated = PowerModel::with_power_gating();
        assert_eq!(gated.idle_leakage_fraction, 0.2);
        assert_eq!(PowerModel::default_32nm().idle_leakage_fraction, 1.0);
    }

    #[test]
    fn lower_voltage_leaks_less() {
        let m = PowerModel::default_32nm();
        let mut hi = EnergyMeter::new();
        let mut lo = EnergyMeter::new();
        hi.record_leakage(&m, 4, 1.0);
        lo.record_leakage(&m, 4, 0.5);
        assert!(lo.leakage_pj() < hi.leakage_pj());
        assert!((lo.leakage_pj() * 2.0 - hi.leakage_pj()).abs() < 1e-12);
    }

    #[test]
    fn since_computes_epoch_delta() {
        let m = PowerModel::default_32nm();
        let mut meter = EnergyMeter::new();
        meter.record(&m, PowerEvent::Crossbar, 1.0);
        let snap = meter.clone();
        meter.record(&m, PowerEvent::Crossbar, 1.0);
        meter.record_leakage(&m, 0, 1.0);
        let delta = meter.since(&snap);
        assert!((delta.dynamic_pj() - 0.8).abs() < 1e-12);
        assert!((delta.leakage_pj() - 0.35).abs() < 1e-12);
        assert_eq!(delta.events(), 1);
    }

    #[test]
    fn merge_adds_components() {
        let m = PowerModel::default_32nm();
        let mut a = EnergyMeter::new();
        let mut b = EnergyMeter::new();
        a.record(&m, PowerEvent::BufferRead, 1.0);
        b.record_leakage(&m, 2, 1.0);
        a.merge(&b);
        assert!(a.dynamic_pj() > 0.0 && a.leakage_pj() > 0.0);
        assert_eq!(a.events(), 1);
    }
}
