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

use crate::soa::NodeWork;
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

/// One region's dynamic event energies at its V/F level: each of the
/// model's `e_*` times the region's `(V/V_nom)²`
/// ([`crate::dvfs::VfLevel::dynamic_scale`]), formed once per level change
/// instead of once per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EventEnergies {
    pub buffer_write: f64,
    pub buffer_read: f64,
    pub route: f64,
    pub vc_alloc: f64,
    pub sw_arb: f64,
    pub xbar: f64,
    pub link: f64,
}

impl PowerModel {
    /// The event energies at the given dynamic-energy scale.
    pub(crate) fn scaled(&self, dynamic_scale: f64) -> EventEnergies {
        EventEnergies {
            buffer_write: self.e_buffer_write * dynamic_scale,
            buffer_read: self.e_buffer_read * dynamic_scale,
            route: self.e_route * dynamic_scale,
            vc_alloc: self.e_vc_alloc * dynamic_scale,
            sw_arb: self.e_sw_arb * dynamic_scale,
            xbar: self.e_xbar * dynamic_scale,
            link: self.e_link * dynamic_scale,
        }
    }
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

    /// Price one router's cycle from its region's event energies, adding
    /// them in [`NodeWork`]'s order — `grants` × (read, arbitration,
    /// crossbar), `va` × VC allocation, `rc` × route computation,
    /// `forwards` × link, then the injection's buffer write — into a local
    /// sum written back once: the same f64 additions as one event at a
    /// time.
    pub(crate) fn record_node(&mut self, work: &NodeWork, e: &EventEnergies) {
        let mut sum = self.dynamic_pj;
        for _ in 0..work.grants {
            sum += e.buffer_read;
            sum += e.sw_arb;
            sum += e.xbar;
        }
        for _ in 0..work.va {
            sum += e.vc_alloc;
        }
        for _ in 0..work.rc {
            sum += e.route;
        }
        for _ in 0..work.forwards {
            sum += e.link;
        }
        if work.injected.is_some() {
            sum += e.buffer_write;
        }
        self.dynamic_pj = sum;
        self.events += 3 * u64::from(work.grants)
            + u64::from(work.va)
            + u64::from(work.rc)
            + u64::from(work.forwards)
            + u64::from(work.injected.is_some());
    }

    /// Price one flit written into an input buffer by a link delivery.
    pub(crate) fn record_buffer_write(&mut self, e: &EventEnergies) {
        self.dynamic_pj += e.buffer_write;
        self.events += 1;
    }

    /// Add already-priced leakage terms ([`PowerModel::leakage_pj`]) one
    /// after another, in iteration order, with the running sum kept out of
    /// memory.
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
    use crate::dvfs::VfTable;
    use proptest::prelude::*;

    /// A router cycle's counts.
    fn work(grants: u8, va: u8, rc: u8, forwards: u8, injected: Option<bool>) -> NodeWork {
        NodeWork {
            grants,
            va,
            rc,
            forwards,
            injected,
        }
    }

    #[test]
    fn events_accumulate_scaled_energy() {
        let m = PowerModel::default_32nm();
        let mut meter = EnergyMeter::new();
        meter.record_node(&work(0, 0, 0, 0, Some(true)), &m.scaled(1.0));
        meter.record_node(&work(0, 0, 0, 1, None), &m.scaled(0.25));
        assert!((meter.dynamic_pj() - (1.2 + 1.6 * 0.25)).abs() < 1e-12);
        assert_eq!(meter.events(), 2);
    }

    #[test]
    fn leakage_accumulates_per_cycle() {
        let m = PowerModel::default_32nm();
        let mut meter = EnergyMeter::new();
        meter.record_leakage_terms((0..10).map(|_| m.leakage_pj(4, 1.0)));
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
        hi.record_leakage_terms(std::iter::once(m.leakage_pj(4, 1.0)));
        lo.record_leakage_terms(std::iter::once(m.leakage_pj(4, 0.5)));
        assert!(lo.leakage_pj() < hi.leakage_pj());
        assert!((lo.leakage_pj() * 2.0 - hi.leakage_pj()).abs() < 1e-12);
    }

    #[test]
    fn since_computes_epoch_delta() {
        let m = PowerModel::default_32nm();
        let e = m.scaled(1.0);
        let mut meter = EnergyMeter::new();
        meter.record_node(&work(1, 0, 0, 0, None), &e);
        let snap = meter.clone();
        meter.record_node(&work(1, 0, 0, 0, None), &e);
        meter.record_leakage_terms(std::iter::once(m.leakage_pj(0, 1.0)));
        let delta = meter.since(&snap);
        // One grant: a buffer read, a switch arbitration, a crossbar.
        assert!((delta.dynamic_pj() - (1.0 + 0.2 + 0.8)).abs() < 1e-12);
        assert!((delta.leakage_pj() - 0.35).abs() < 1e-12);
        assert_eq!(delta.events(), 3);
    }

    proptest! {
        /// Pricing from a region's table is bit-identical to adding
        /// `e_* × scale` one event at a time in `NodeWork` order, across
        /// V/F level changes between router cycles.
        #[test]
        fn record_node_matches_per_event_pricing(
            cycles in prop::collection::vec(
                (0usize..4, 0u8..=20, 0u8..=20, 0u8..=20, 0u8..=20, 0u8..3),
                0..40,
            )
        ) {
            let (m, table) = (PowerModel::default_32nm(), VfTable::four_level());
            let mut meter = EnergyMeter::new();
            let (mut sum, mut events) = (0.0f64, 0u64);
            for (level, grants, va, rc, forwards, inject) in cycles {
                // No injection, or one whose flit is (not) its packet's tail.
                let injected = (inject > 0).then_some(inject == 2);
                let scale = table.level(level).unwrap().dynamic_scale(table.nominal_voltage());
                meter.record_node(&work(grants, va, rc, forwards, injected), &m.scaled(scale));
                let mut event = |e: f64| {
                    sum += e * scale;
                    events += 1;
                };
                for _ in 0..grants {
                    event(m.e_buffer_read);
                    event(m.e_sw_arb);
                    event(m.e_xbar);
                }
                (0..va).for_each(|_| event(m.e_vc_alloc));
                (0..rc).for_each(|_| event(m.e_route));
                (0..forwards).for_each(|_| event(m.e_link));
                if injected.is_some() {
                    event(m.e_buffer_write);
                }
            }
            prop_assert_eq!(meter.dynamic_pj().to_bits(), sum.to_bits());
            prop_assert_eq!(meter.events(), events);
        }
    }
}
