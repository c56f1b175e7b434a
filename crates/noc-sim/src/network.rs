//! The network: a grid of routers, inter-router links, source (injection)
//! queues, per-region DVFS state, and the global cycle loop.
//!
//! A cycle is one walk over the active routers in node order, then a
//! commit. Each router's visit writes its deliveries, credit returns,
//! ejections and drops straight into the network's `Outbox` and prices the
//! energy events it counted before the walk moves on; the commit then
//! applies the outbox, so router evaluation order never matters and links
//! have a one-cycle latency.
//!
//! # Packet records
//!
//! [`Network::offer`] files every packet in one packet table per network
//! (`PacketTable`, columns by slot), and from then on a source queue holds
//! the slot, and every flit names it: a flit is 8 bytes because it carries
//! only its VC, class, hop count and role, as a hardware body flit does.
//! Route computation reads a head's endpoints and VC allocation its id from
//! the table, through the router context; a source queue writes the
//! `injected` stamp as it takes a packet up; the commit reads a tail's
//! timestamps as it ejects. Each record is freed exactly once, at its
//! packet's terminal event — tail ejected, tail discarded by the drop drain,
//! packet condemned by a fault purge (by its buffered tail, or at its
//! source cursor if the tail was never minted), or dropped at a dead
//! router's source queue — and a debug-build oracle checks at the end of
//! every step that the live records are the packets offered less those
//! ejected or dropped.
//!
//! # Count and price
//!
//! The pipeline stages never touch the shared [`StatsCollector`]: a
//! router's step returns what it did as counts (`NodeWork`), and its visit
//! prices them in one call from its region's table of event energies, each
//! entry `e_* × (V/V_nom)²` formed once per level change rather than once
//! per event. Routers are visited in node order and the deliveries' buffer
//! writes are priced in the commit, after every router, so the
//! dynamic-energy sum receives one fixed sequence of float additions;
//! leakage, the other order-sensitive sum, is priced in node order before
//! the walk. A simulation steps on one thread: parallelism
//! lives a level up, across the independent simulations of a sweep, a
//! training population or a tournament.
//!
//! # Active-router worklist
//!
//! The network keeps one bit per router, set iff the router has buffered
//! flits or source backlog; every other router is provably inert — it
//! cannot inject, route, or move anything. Three writers keep the set exact
//! between cycles: [`Network::offer`] sets a source's bit, each committed
//! delivery sets its receiver's, and the walk clears the bit of a router
//! its own visit drained; a fault purge, which empties buffers outside any
//! router's step, rebuilds the set from the buffers. The walk visits only
//! set bits, at every V/F level: the clock is one gate per DVFS region,
//! ticked once a cycle, and an active router steps iff its region's gate
//! fired. A router takes a copy of its region's gate the first time it
//! goes down and keeps its own from then on; it does not tick while down,
//! so once healed it resumes from the phase it froze at. The occupancy and
//! region samples and
//! [`Network::backlog`] walk only set bits, since an idle router adds
//! nothing to any of them.
//!
//! Leakage is the one per-router cost left: one f64 add per router per
//! cycle, in node order, as byte identity requires. Each router's `[idle,
//! busy]` term (both `0.0` once it is dead) is recomputed only when an
//! effective level or the fault set changes, and the pass reads the term
//! its start-of-cycle bit selects. A forced step-everyone mode
//! ([`Network::set_step_all`]) visits every router and prices leakage by
//! classifying each from its own buffers; the differential tests pin the
//! two modes byte-identical, and the end of every debug-build step checks
//! the set against a full walk.

use crate::config::{SimConfig, SwitchArb};
use crate::dvfs::{ClockGate, RegionMap, ThrottleEvent, VfTable};
use crate::error::{SimError, SimResult};
use crate::fault::{FaultPlan, LinkState};
use crate::flit::{Flit, Packet, PacketId, PacketTable};
use crate::power::{EventEnergies, PowerModel};
use crate::routing::{RoutingAlgorithm, RoutingTables};
use crate::soa::{FabricState, Outbox, RouterCtx};
use crate::stats::StatsCollector;
use crate::topology::{NodeId, Port, Topology, TopologyKind};
use std::collections::{BTreeSet, VecDeque};

/// Per-node source queue with credit-tracked access to VC 0 of the router's
/// `Local` input port.
#[derive(Debug, Clone)]
struct InjectionQueue {
    /// Packets waiting to enter the network, by packet-table slot.
    packets: VecDeque<u32>,
    /// Total flits across `packets`, maintained on push/pop so backlog
    /// sampling is O(1) per queue even when the queue is saturated.
    queued_flits: usize,
    /// The packet currently being injected, if any. Its flits are minted
    /// one at a time as credits allow; no flit sequence is ever allocated.
    current: Option<Injecting>,
    /// Free slots of the router's Local input VC 0, the only Local VC a
    /// node injects on: it has one packet mid-injection at a time and is done
    /// with the VC when the tail is injected (or the packet is purged or
    /// dropped with a dead router), so ownership never contends — every head
    /// flit would find VC 0 free — and Local input VCs 1.. never hold a flit
    /// (`FabricState::assert_credits_conserved` checks both every cycle).
    credits: usize,
}

/// A source queue's cursor into the packet it is injecting.
#[derive(Debug, Clone)]
struct Injecting {
    /// The packet's record.
    slot: u32,
    /// The packet's length in flits.
    len: u32,
    /// Flits of the packet not yet minted: the next is `len - left`.
    left: u32,
}

impl InjectionQueue {
    fn new(vc_depth: usize) -> Self {
        InjectionQueue {
            packets: VecDeque::new(),
            queued_flits: 0,
            current: None,
            credits: vc_depth,
        }
    }

    /// Enqueue the `len`-flit packet of record `slot` for injection.
    fn push_packet(&mut self, slot: u32, len: u32) {
        self.queued_flits += len as usize;
        self.packets.push_back(slot);
    }

    /// Flits still waiting (queued packets plus the partially injected one).
    fn backlog_flits(&self) -> usize {
        self.current.as_ref().map_or(0, |c| c.left as usize) + self.queued_flits
    }

    /// Try to move one flit from this queue into router `k`'s Local input
    /// VC 0, honoring its credits. Taking up a packet stamps its record's
    /// `injected` column with `cycle`; `lens` is the table's length column.
    /// Returns, for an injected flit, whether it was its packet's tail (its
    /// buffer write is priced with the router's counts).
    fn try_inject(
        &mut self,
        cycle: u64,
        lens: &[u32],
        injected: &mut [u64],
        fabric: &mut FabricState,
        k: usize,
    ) -> Option<bool> {
        if self.current.is_none() {
            let slot = self.packets.pop_front()?;
            let len = lens[slot as usize];
            self.queued_flits -= len as usize;
            injected[slot as usize] = cycle;
            self.current = Some(Injecting {
                slot,
                len,
                left: len,
            });
        }
        if self.credits == 0 {
            return None;
        }
        let cur = self.current.as_mut().expect("refilled above");
        let flit = Flit::new(cur.slot, cur.len - cur.left, cur.len);
        cur.left -= 1;
        if cur.left == 0 {
            self.current = None;
        }
        self.credits -= 1;
        let is_tail = flit.is_tail();
        fabric.accept(k, Port::Local, flit);
        Some(is_tail)
    }
}

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    routing: RoutingAlgorithm,
    /// k-path tables, present iff `routing` is [`RoutingAlgorithm::Table`].
    /// Rebuilt whenever the live-link set changes at a fault boundary.
    tables: Option<RoutingTables>,
    /// All router pipeline state, structure-of-arrays (see [`crate::soa`]).
    fabric: FabricState,
    /// One record per packet offered and not yet ejected or dropped; flits
    /// and source queues name their packet by its slot.
    packets: PacketTable,
    inj: Vec<InjectionQueue>,
    clock: Clock,
    power: PowerModel,
    vf_table: VfTable,
    regions: RegionMap,
    /// Level requested per region (by the controller/agent).
    region_levels: Vec<usize>,
    /// Level actually in force per region (desired capped by any active
    /// throttle emergency).
    effective_levels: Vec<usize>,
    /// Forced-throttle emergencies.
    throttles: Vec<ThrottleEvent>,
    /// Neighbour per node and cardinal port ([`Topology::neighbor_table`]).
    neighbors: Vec<[u32; 4]>,
    /// Region index per node (precomputed once; the cycle loop needs it for
    /// every active node every cycle).
    region_by_node: Vec<usize>,
    /// Event energies per region at its current effective level
    /// ([`PowerModel::scaled`]), recomputed only when an effective level
    /// changes.
    region_energy: Vec<EventEnergies>,
    /// One cycle of leakage per router, `[idle, busy]`, at its region's
    /// effective level (`0.0` for a dead router), recomputed only when an
    /// effective level or the fault set changes.
    leakage: Vec<[f64; 2]>,
    /// The routers with buffered flits or source backlog (see the module
    /// docs).
    active: ActiveSet,
    /// Timed link/router failures (empty on a pristine fabric).
    fault_plan: FaultPlan,
    /// Cycles at which the active fault set changes, sorted ascending.
    fault_boundaries: Vec<u64>,
    /// Next unapplied entry of `fault_boundaries`.
    next_fault_boundary: usize,
    /// Instantaneous link/router liveness under the plan.
    link_state: LinkState,
    /// Whether the plan has any events — gates every fault code path so a
    /// fault-free simulation pays nothing.
    has_faults: bool,
    cycle: u64,
    /// Worklist kill switch: when set, the walk visits every router instead
    /// of the active set. Test-only escape hatch — the differential harness
    /// pins worklist runs byte-identical to step-everyone runs.
    step_all: bool,
    /// Reusable per-cycle buffers: hoisting the outbox and the
    /// region-occupancy sample here keeps their allocations out of the
    /// hottest loop in the system.
    scratch: StepScratch,
    /// Flits offered since construction, for the flit-balance oracle.
    #[cfg(debug_assertions)]
    offered_flits: u64,
    /// Flits that left the system since construction (ejected or dropped).
    #[cfg(debug_assertions)]
    retired_flits: u64,
    /// Packets offered since construction, for the packet-record oracle.
    #[cfg(debug_assertions)]
    offered_packets: u64,
    /// Packets that left the system since construction (ejected or dropped).
    #[cfg(debug_assertions)]
    retired_packets: u64,
}

/// One bit per router, in node order.
#[derive(Debug, Clone)]
struct ActiveSet(Vec<u64>);

impl ActiveSet {
    /// No router of `n`.
    fn new(n: usize) -> Self {
        ActiveSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    #[cfg(debug_assertions)]
    fn contains(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Call `f` on every member, ascending.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.0.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                f(w * 64 + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }

    /// Call `keep` on every member, ascending, and remove those it refuses.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.0.iter_mut().enumerate() {
            let mut m = *word;
            while m != 0 {
                let b = m.trailing_zeros();
                m &= m - 1;
                if !keep(w * 64 + b as usize) {
                    *word &= !(1 << b);
                }
            }
        }
    }
}

/// The fabric's clock: one gate per DVFS region, then one per router that
/// has been down (see the module docs).
#[derive(Debug)]
struct Clock {
    /// `(gate, router, fired)`: `router` names a detached gate's router;
    /// `fired` is this cycle's tick. A dead router's gate stands still and
    /// reads as fired: `visit` handles a dead router before its clock.
    gates: Vec<(ClockGate, Option<usize>, bool)>,
    /// The gate each router runs on: its region's until it first goes down.
    gate_of: Vec<usize>,
}

impl Clock {
    /// Give every router down for the first time a gate of its own: a copy
    /// of its region's, as it stands before this cycle's tick.
    fn detach_down(&mut self, ls: &LinkState) {
        for (i, g) in self.gate_of.iter_mut().enumerate() {
            if !ls.is_router_up(NodeId(i)) && self.gates[*g].1.is_none() {
                self.gates.push((self.gates[*g].0.clone(), Some(i), true));
                *g = self.gates.len() - 1;
            }
        }
    }

    /// Tick every gate once; returns whether every gate fired.
    fn tick(&mut self, ls: &LinkState) -> bool {
        let mut all = true;
        for (gate, router, fired) in &mut self.gates {
            *fired = router.is_some_and(|i| !ls.is_router_up(NodeId(i))) || gate.tick();
            all &= *fired;
        }
        all
    }
}

/// Scratch buffers reused across [`Network::step`] calls (drained at the end
/// of every cycle, so only capacity persists).
#[derive(Debug, Default)]
struct StepScratch {
    outbox: Outbox,
    region_occ: Vec<usize>,
}

/// The per-node walk of one cycle: the routers' context, frozen for the
/// walk, the state the visited routers step, and what pricing their counts
/// reads and writes.
#[derive(Debug)]
struct NodePhase<'a> {
    /// The routers' context, built once per cycle; `ctx.faults` (`None`
    /// without a fault plan) is the single liveness handle.
    ctx: RouterCtx<'a>,
    cycle: u64,
    /// Forced step-everyone mode (worklist disabled).
    step_all: bool,
    fabric: &'a mut FabricState,
    inj: &'a mut [InjectionQueue],
    /// The packet table's length column, and its `injected` column, which
    /// a source queue stamps as it takes a packet up.
    lens: &'a [u32],
    injected: &'a mut [u64],
    /// The clock, when some gate did not fire this cycle.
    clock: Option<&'a Clock>,
    out: &'a mut Outbox,
    region_by_node: &'a [usize],
    region_energy: &'a [EventEnergies],
    stats: &'a mut StatsCollector,
    /// Σ grants and Σ forwards over the walk, for the switch-conservation
    /// oracle.
    grants: usize,
    forwards: usize,
}

impl Network {
    /// Build an idle network from a validated configuration.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid.
    pub fn new(config: &SimConfig) -> SimResult<Self> {
        config.validate()?;
        let topo = config.topology();
        let n = topo.num_nodes();
        let vc_partition = config.kind == TopologyKind::Torus;
        let mut fabric = FabricState::new(n, config.num_vcs, config.vc_depth, vc_partition);
        fabric.release_every_flit = config.switch_arb == SwitchArb::PerFlit;
        let inj = vec![InjectionQueue::new(config.vc_depth); n];
        let regions = RegionMap::new(&topo, config.regions_x, config.regions_y)?;
        let max_level = config.vf_table.max_level();
        let neighbors = topo.neighbor_table();
        let region_by_node: Vec<usize> =
            topo.nodes().map(|n| regions.region_of(&topo, n)).collect();
        let max_vf = config.vf_table.levels()[max_level];
        let nominal = config.vf_table.nominal_voltage();
        let num_regions = regions.num_regions();
        let fault_plan = config.fault_plan.clone();
        let fault_boundaries = fault_plan.boundaries();
        let has_faults = !fault_plan.is_empty();
        let link_state = LinkState::healthy(n);
        let gates = vec![(ClockGate::new(max_vf.freq_scale), None, true); num_regions];
        let gate_of = region_by_node.clone();
        let clock = Clock { gates, gate_of };
        let tables = (config.routing == RoutingAlgorithm::Table)
            .then(|| RoutingTables::build(&topo, None, RoutingTables::K_DEFAULT));
        let mut net = Network {
            topo,
            routing: config.routing,
            tables,
            fabric,
            packets: PacketTable::default(),
            inj,
            clock,
            power: config.power,
            vf_table: config.vf_table.clone(),
            region_levels: vec![max_level; num_regions],
            effective_levels: vec![max_level; num_regions],
            throttles: config.throttles.clone(),
            regions,
            neighbors,
            region_by_node,
            region_energy: vec![config.power.scaled(max_vf.dynamic_scale(nominal)); num_regions],
            leakage: vec![[0.0; 2]; n],
            active: ActiveSet::new(n),
            fault_plan,
            fault_boundaries,
            next_fault_boundary: 0,
            link_state,
            has_faults,
            cycle: 0,
            step_all: false,
            scratch: StepScratch::default(),
            #[cfg(debug_assertions)]
            offered_flits: 0,
            #[cfg(debug_assertions)]
            retired_flits: 0,
            #[cfg(debug_assertions)]
            offered_packets: 0,
            #[cfg(debug_assertions)]
            retired_packets: 0,
        };
        net.refresh_leakage();
        Ok(net)
    }

    /// Force the per-node loop to step every router every cycle, disabling
    /// the active-router worklist. Results must not change — the worklist
    /// is a pure strength reduction — and the differential tests hold both
    /// modes byte-identical. Test instrumentation, not a tuning knob.
    pub fn set_step_all(&mut self, step_all: bool) {
        self.step_all = step_all;
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The DVFS region partition.
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// The V/F level table.
    pub fn vf_table(&self) -> &VfTable {
        &self.vf_table
    }

    /// V/F level *requested* per region (what the controller set). The
    /// level actually in force may be lower during a throttle emergency —
    /// see [`Network::effective_region_levels`].
    pub fn region_levels(&self) -> &[usize] {
        &self.region_levels
    }

    /// V/F level actually in force per region (requested level capped by
    /// any active throttle emergency).
    pub fn effective_region_levels(&self) -> &[usize] {
        &self.effective_levels
    }

    /// Current routing algorithm.
    pub fn routing(&self) -> RoutingAlgorithm {
        self.routing
    }

    /// The k-path tables, present iff table routing is in force (test and
    /// analysis observability).
    pub fn routing_tables(&self) -> Option<&RoutingTables> {
        self.tables.as_ref()
    }

    /// Instantaneous link/router liveness under the configured fault plan
    /// (all up on a fabric without faults).
    pub fn faults(&self) -> &LinkState {
        &self.link_state
    }

    /// The configured fault plan (empty on a pristine fabric).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Current global cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Set one region's V/F level.
    ///
    /// # Errors
    /// Returns an error for out-of-range region or level indices.
    pub fn set_region_level(&mut self, region: usize, level: usize) -> SimResult<()> {
        if region >= self.region_levels.len() {
            return Err(SimError::RegionOutOfRange {
                region,
                regions: self.region_levels.len(),
            });
        }
        self.vf_table.level(level)?; // validate
        self.region_levels[region] = level;
        self.sync_effective_levels();
        Ok(())
    }

    /// Recompute effective levels (requested ∧ throttles) and retune the
    /// clock of each region whose effective level changed.
    fn sync_effective_levels(&mut self) {
        let mut changed = false;
        for region in 0..self.region_levels.len() {
            let mut eff = self.region_levels[region];
            for t in &self.throttles {
                if t.region == region && t.active_at(self.cycle) {
                    eff = eff.min(t.level);
                }
            }
            if eff != self.effective_levels[region] {
                self.effective_levels[region] = eff;
                let vf = self.vf_table.level(eff).expect("effective level valid");
                let nominal = self.vf_table.nominal_voltage();
                self.region_energy[region] = self.power.scaled(vf.dynamic_scale(nominal));
                // The region's gate and those of its detached routers.
                for (g, (gate, router, _)) in self.clock.gates.iter_mut().enumerate() {
                    if router.map_or(g, |i| self.region_by_node[i]) == region {
                        gate.set_freq_scale(vf.freq_scale);
                    }
                }
                changed = true;
            }
        }
        if changed {
            self.refresh_leakage();
        }
    }

    /// Recompute every router's leakage terms (see `leakage`).
    fn refresh_leakage(&mut self) {
        for i in 0..self.leakage.len() {
            self.leakage[i] = self.leakage_terms(i);
        }
    }

    /// One global cycle of router `i`'s leakage, `[idle, busy]`, at its
    /// region's effective level ([`PowerModel::leakage_pj`] of its link
    /// count and leakage scale).
    fn leakage_terms(&self, i: usize) -> [f64; 2] {
        if !self.link_state.is_router_up(NodeId(i)) {
            // A dead router consumes nothing: adding +0.0 to a sum that
            // starts at +0.0 and never decreases changes no bit.
            return [0.0; 2];
        }
        let (power, nominal) = (&self.power, self.vf_table.nominal_voltage());
        let level = self.effective_levels[self.region_by_node[i]];
        let busy =
            (self.vf_table.level(level).expect("effective level valid")).leakage_scale(nominal);
        // Idle routers (empty buffers and source queue) may be power gated
        // down to a fraction of nominal leakage.
        let mut idle = busy;
        if power.idle_leakage_fraction < 1.0 {
            idle *= power.idle_leakage_fraction;
        }
        let links = self.neighbors[i]
            .iter()
            .filter(|&&to| to != Topology::NO_LINK);
        let links = links.count();
        [power.leakage_pj(links, idle), power.leakage_pj(links, busy)]
    }

    /// Set every region to the same V/F level.
    ///
    /// # Errors
    /// Returns an error for an out-of-range level index.
    pub fn set_all_levels(&mut self, level: usize) -> SimResult<()> {
        for r in 0..self.region_levels.len() {
            self.set_region_level(r, level)?;
        }
        Ok(())
    }

    /// Switch the routing algorithm at runtime (takes effect for subsequent
    /// route computations; in-flight packets keep their assigned routes).
    ///
    /// # Errors
    /// Returns an error if the algorithm does not support the topology.
    pub fn set_routing(&mut self, routing: RoutingAlgorithm) -> SimResult<()> {
        if !routing.supports(self.topo.kind()) {
            return Err(SimError::InvalidConfig(format!(
                "routing {:?} unsupported on {:?}",
                routing,
                self.topo.kind()
            )));
        }
        self.routing = routing;
        if routing == RoutingAlgorithm::Table {
            if self.tables.is_none() {
                let faults = self.has_faults.then_some(&self.link_state);
                self.tables = Some(RoutingTables::build(
                    &self.topo,
                    faults,
                    RoutingTables::K_DEFAULT,
                ));
            }
        } else {
            self.tables = None;
        }
        Ok(())
    }

    /// Offer freshly generated packets to their source queues, filing a
    /// record for each in the packet table.
    pub fn offer(&mut self, packets: Vec<Packet>, stats: &mut StatsCollector) {
        for p in packets {
            stats.record_offered();
            #[cfg(debug_assertions)]
            {
                self.offered_flits += u64::from(p.len_flits);
                self.offered_packets += 1;
            }
            let slot = self.packets.alloc(&p);
            self.active.insert(p.src.0);
            self.inj[p.src.0].push_packet(slot, p.len_flits);
        }
    }

    /// Total flits buffered inside routers.
    pub fn occupancy(&self) -> usize {
        let mut total = 0;
        self.active.for_each(|i| total += self.fabric.occupancy(i));
        total
    }

    /// Buffered flits per region.
    pub fn region_occupancy(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.region_occupancy_into(&mut out);
        out
    }

    /// Fill `out` with buffered flits per region (allocation-free variant of
    /// [`Network::region_occupancy`] for the cycle loop) and return the
    /// source backlog: the cycle's whole sample in one walk of the set.
    fn region_occupancy_into(&self, out: &mut Vec<usize>) -> usize {
        out.clear();
        out.resize(self.regions.num_regions(), 0);
        let mut backlog = 0;
        self.active.for_each(|i| {
            out[self.region_by_node[i]] += self.fabric.occupancy(i);
            backlog += self.inj[i].backlog_flits();
        });
        backlog
    }

    /// Flits waiting in source queues.
    pub fn backlog(&self) -> usize {
        let mut total = 0;
        self.active
            .for_each(|i| total += self.inj[i].backlog_flits());
        total
    }

    /// Flits anywhere in the system (source queues + router buffers).
    pub fn in_flight(&self) -> usize {
        self.backlog() + self.occupancy()
    }

    /// Packets offered and not yet ejected or dropped: the packet table's
    /// live records.
    pub fn live_packets(&self) -> usize {
        self.packets.live()
    }

    /// Advance the network one global clock cycle.
    ///
    /// Leakage is priced first, from the start-of-cycle active set. One walk
    /// then steps the active routers in node order, pricing each router's
    /// counts as its visit ends and clearing the bits of the routers it
    /// drained; the commit phase then applies the outbox's ejections,
    /// deliveries and credits (see the module docs).
    pub fn step(&mut self, stats: &mut StatsCollector) {
        #[cfg(debug_assertions)]
        let retired_before = (
            stats.ejected_flits + stats.dropped_flits,
            stats.ejected_packets + stats.dropped_packets,
        );
        if !self.throttles.is_empty() {
            self.sync_effective_levels();
        }
        if self.has_faults {
            self.apply_fault_boundaries(stats);
        }
        // Leakage accrues every global cycle regardless of clock gating, one
        // add per router in node order: the busy term for a router active at
        // the start of the cycle, the idle one otherwise.
        if self.step_all {
            // The reference the worklist differential holds the terms and
            // the active set to: each router classified from its own buffers,
            // its terms computed afresh.
            let n = self.topo.num_nodes();
            stats.energy.record_leakage_terms((0..n).map(|i| {
                let busy = self.fabric.occupancy(i) > 0 || self.inj[i].backlog_flits() > 0;
                self.leakage_terms(i)[usize::from(busy)]
            }));
        } else {
            let words = self.leakage.chunks(64).zip(&self.active.0);
            stats
                .energy
                .record_leakage_terms(words.flat_map(|(terms, &word)| {
                    (terms.iter().enumerate()).map(move |(b, t)| t[(word >> b) as usize & 1])
                }));
        }
        let all_fired = self.clock.tick(&self.link_state);
        let mut walk = NodePhase {
            ctx: RouterCtx {
                topo: &self.topo,
                neighbors: &self.neighbors,
                routing: self.routing,
                faults: self.has_faults.then_some(&self.link_state),
                tables: self.tables.as_ref(),
                packet_ids: &self.packets.ids,
                endpoints: &self.packets.ends,
            },
            cycle: self.cycle,
            step_all: self.step_all,
            fabric: &mut self.fabric,
            inj: &mut self.inj,
            lens: &self.packets.len,
            injected: &mut self.packets.injected,
            clock: (!all_fired).then_some(&self.clock),
            out: &mut self.scratch.outbox,
            region_by_node: &self.region_by_node,
            region_energy: &self.region_energy,
            stats,
            grants: 0,
            forwards: 0,
        };
        walk.run(&mut self.active);
        let (grants, forwards) = (walk.grants, walk.forwards);

        // Commit phase: what crosses a link lands once every router has
        // stepped, so links keep their one-cycle latency; the deliveries'
        // buffer writes follow every router's own events in the
        // dynamic-energy sum, in sender order.
        let out = &mut self.scratch.outbox;
        // Flit conservation through the switch, by an oracle that shares
        // no code with the pipeline: every grant the walk counted left over
        // a link or was ejected, and every flit that left a buffer returned
        // a credit.
        let (deliveries, ejected) = (out.deliveries.len(), out.ejected.len());
        debug_assert_eq!(forwards, deliveries, "forward without a delivery");
        debug_assert_eq!(grants, deliveries + ejected, "granted flit went nowhere");
        debug_assert_eq!(
            out.credits.len(),
            grants + out.dropped.len(),
            "a flit left a buffer without returning its credit"
        );
        // A tail's ejection or drop is its packet's terminal event: the
        // record's timestamps are read once, then the record is freed.
        let records = &mut self.packets;
        for flit in out.ejected.drain(..) {
            if flit.is_tail() {
                let s = flit.slot();
                let (created, injected) = (records.created[s], records.injected[s]);
                stats.record_ejection(created, injected, flit.hops, self.cycle);
                records.free(s);
            } else {
                stats.record_ejected_flit();
            }
        }
        for flit in out.dropped.drain(..) {
            stats.record_drop(flit.is_tail());
            if flit.is_tail() {
                records.free(flit.slot());
            }
        }
        for slot in out.source_dropped.drain(..) {
            stats.record_dropped(1, u64::from(records.len[slot as usize]));
            records.free(slot as usize);
        }
        for d in out.deliveries.drain(..) {
            let to = d.to as usize;
            let energies = &self.region_energy[self.region_by_node[to]];
            stats.energy.record_buffer_write(energies);
            self.fabric.accept(to, d.in_port, d.flit);
            self.active.insert(to);
        }
        for c in out.credits.drain(..) {
            let (at, vc) = (c.at as usize, usize::from(c.vc));
            if c.in_port == Port::Local {
                self.inj[at].credits += 1;
            } else {
                let upstream = self.neighbors[at][c.in_port.index()];
                assert!(
                    upstream != Topology::NO_LINK,
                    "credit toward a missing neighbor"
                );
                self.fabric
                    .return_credit(upstream as usize, c.in_port.opposite(), vc);
            }
        }

        let mut region_occ = std::mem::take(&mut self.scratch.region_occ);
        let backlog = self.region_occupancy_into(&mut region_occ);
        let total_occ = region_occ.iter().sum();
        stats.sample_occupancy(
            total_occ,
            &region_occ,
            backlog,
            self.link_state.dead_link_count(),
        );
        self.scratch.region_occ = region_occ;
        #[cfg(debug_assertions)]
        {
            self.fabric
                .assert_credits_conserved(&self.topo, |i| self.inj[i].credits);
            self.fabric.assert_holds_owned();
            self.retired_flits += stats.ejected_flits + stats.dropped_flits - retired_before.0;
            self.retired_packets +=
                stats.ejected_packets + stats.dropped_packets - retired_before.1;
            self.assert_active_set_and_balances();
        }
        self.cycle += 1;
    }

    /// Three oracles, checked between cycles by a full walk that shares no
    /// code with the worklist:
    ///
    /// * the active set is exact — a router's bit is set iff it buffers a
    ///   flit or has source backlog;
    /// * flit balance — every flit ever offered is ejected, dropped (drop
    ///   drain, boundary purge or dead source), buffered, or still waiting
    ///   in its source queue. Exact on every path: each of them counts the
    ///   flits it removes, in `StatsCollector::dropped_flits`;
    /// * packet-record balance — the packet table holds one record per
    ///   packet offered and neither ejected nor dropped, so every terminal
    ///   event freed its record (`PacketTable::free` catches a second free).
    #[cfg(debug_assertions)]
    fn assert_active_set_and_balances(&mut self) {
        let (mut buffered, mut backlog) = (0, 0);
        for (i, q) in self.inj.iter().enumerate() {
            let lens = q
                .packets
                .iter()
                .map(|&s| self.packets.len[s as usize] as usize);
            assert_eq!(
                q.queued_flits,
                lens.sum::<usize>(),
                "queued-flit counter of router {i} out of sync with its queue"
            );
            let (occ, queued) = (self.fabric.occupancy(i), q.backlog_flits());
            assert_eq!(
                self.active.contains(i),
                occ > 0 || queued > 0,
                "active-set bit of router {i} is stale ({occ} flits buffered, {queued} queued)"
            );
            (buffered, backlog) = (buffered + occ, backlog + queued);
        }
        assert_eq!(
            self.offered_flits,
            self.retired_flits + (buffered + backlog) as u64,
            "flit balance: offered != ejected + dropped ({}) + buffered ({buffered}) + backlog ({backlog})",
            self.retired_flits
        );
        assert_eq!(
            self.packets.live() as u64,
            self.offered_packets - self.retired_packets,
            "packet records: live != offered ({}) - (ejected + dropped) ({})",
            self.offered_packets,
            self.retired_packets
        );
    }

    /// Apply every fault boundary reached by the current cycle: rebuild the
    /// link state and purge packets severed by newly dead components.
    fn apply_fault_boundaries(&mut self, stats: &mut StatsCollector) {
        let mut crossed = false;
        while self.next_fault_boundary < self.fault_boundaries.len()
            && self.fault_boundaries[self.next_fault_boundary] <= self.cycle
        {
            self.next_fault_boundary += 1;
            crossed = true;
        }
        if crossed {
            self.link_state
                .recompute(&self.topo, &self.fault_plan, self.cycle);
            self.clock.detach_down(&self.link_state);
            if self.routing == RoutingAlgorithm::Table {
                // Rebuild the k-path tables over the new live-link set —
                // fault onset and heal alike. Packets caught off every new
                // path become unroutable and are drained, not wedged.
                self.tables = Some(RoutingTables::build(
                    &self.topo,
                    Some(&self.link_state),
                    RoutingTables::K_DEFAULT,
                ));
            }
            self.refresh_leakage();
            self.purge_condemned(stats);
        }
    }

    /// Remove every packet severed by the current fault set, network-wide,
    /// and count it as dropped.
    ///
    /// A packet is condemned when it is mid-transmission across a dead link
    /// (the upstream router's output-VC ownership names it) or has flits
    /// buffered inside a dead router. Purging walks every router, removes
    /// the condemned packets' flits, releases the VCs they held along their
    /// whole path, and restores the credits those flits consumed, so the
    /// surviving traffic — and any later heal of a transient fault — sees
    /// consistent flow-control state. Routes that point into a dead link but
    /// have not yet committed downstream are cleared for re-routing instead
    /// of condemned.
    fn purge_condemned(&mut self, stats: &mut StatsCollector) {
        let n = self.topo.num_nodes();
        let mut condemned: BTreeSet<PacketId> = BTreeSet::new();
        for i in 0..n {
            let node = NodeId(i);
            if !self.link_state.is_router_up(node) {
                self.fabric
                    .condemn_all(i, &self.packets.ids, &mut condemned);
                // Mid-injection at a dying router: the whole packet goes.
                let current = self.inj[i].current.as_ref();
                condemned.extend(current.map(|c| self.packets.ids[c.slot as usize]));
            } else {
                for port in [Port::North, Port::East, Port::South, Port::West] {
                    if self.topo.neighbor(node, port).is_some()
                        && !self.link_state.is_link_up(node, port)
                    {
                        self.fabric.condemn_output_owners(i, port, &mut condemned);
                    }
                }
            }
        }

        // Sweep: drop condemned flits everywhere (collecting the credits to
        // restore and the records their tails close), and clear uncommitted
        // routes into dead links. A condemned packet's tail has not yet
        // passed the router that condemned it, so it is buffered somewhere
        // or not yet minted, and exactly one of the two sweeps frees each
        // record.
        let mut restored: Vec<(usize, Port, usize)> = Vec::new();
        let mut closed: Vec<usize> = Vec::new();
        let mut dropped_flits = 0u64;
        for i in 0..n {
            let node = NodeId(i);
            dropped_flits += self.fabric.purge_and_reroute(
                i,
                &condemned,
                &self.packets.ids,
                |p| !self.link_state.is_link_up(node, p),
                |in_port, vc, flit| {
                    restored.push((i, in_port, vc));
                    if flit.is_tail() {
                        closed.push(flit.slot());
                    }
                },
            );
        }
        for (node, in_port, vc) in restored {
            if in_port == Port::Local {
                self.inj[node].credits += 1;
            } else if let Some(up) = self.topo.neighbor(NodeId(node), in_port) {
                self.fabric.return_credit(up.0, in_port.opposite(), vc);
            }
        }

        // Source queues: a condemned packet caught mid-injection loses its
        // not-yet-injected flits too.
        if !condemned.is_empty() {
            let ids = &self.packets.ids;
            for q in &mut self.inj {
                if let Some(c) = q
                    .current
                    .take_if(|c| condemned.contains(&ids[c.slot as usize]))
                {
                    dropped_flits += u64::from(c.left);
                    closed.push(c.slot as usize);
                }
            }
        }
        for slot in closed {
            self.packets.free(slot);
        }
        stats.record_dropped(condemned.len() as u64, dropped_flits);

        // The purge emptied buffers and source cursors outside any router's
        // step: rebuild the active set from what is left.
        self.active = ActiveSet::new(n);
        for (i, q) in self.inj.iter().enumerate() {
            if self.fabric.occupancy(i) > 0 || q.backlog_flits() > 0 {
                self.active.insert(i);
            }
        }
    }
}

impl NodePhase<'_> {
    /// Visit every router of `active` in node order — every router under
    /// step-all — and clear the bit of each router its visit drained. A
    /// router outside the set has no buffered flits and no source backlog,
    /// so its pipeline and injection stages are provably no-ops and its
    /// whole effect is its leakage, priced before the walk (its region's
    /// gate ticks once for all of the region's routers).
    fn run(&mut self, active: &mut ActiveSet) {
        if !self.step_all {
            active.retain(|i| self.visit(i));
            return;
        }
        for i in 0..self.inj.len() {
            if !self.visit(i) {
                active.remove(i);
            }
        }
    }

    /// One cycle of router `i` if its gate fired, with all cross-node
    /// effects buffered in the outbox, then its counts priced at its
    /// region's scale; returns whether the router is still busy. Occupancy
    /// and backlog are stable during the walk (deliveries and credits commit
    /// afterwards; packets are offered before the step), so the
    /// start-of-cycle active set is exact.
    fn visit(&mut self, i: usize) -> bool {
        let node = NodeId(i);
        let busy = |p: &Self| p.fabric.occupancy(i) > 0 || p.inj[i].backlog_flits() > 0;
        debug_assert!(
            self.step_all || busy(self),
            "router {i} is in the active set but idle"
        );
        if self.ctx.faults.is_some_and(|ls| !ls.is_router_up(node)) {
            // A dead router does nothing and consumes nothing; traffic
            // offered at its source queue is unreachable and dropped.
            drop_source_queue(&mut self.inj[i], self.out);
        } else if self.clock.is_none_or(|c| c.gates[c.gate_of[i]].2) {
            let mut work = self.fabric.step_node(i, node, &self.ctx, self.out);
            work.injected =
                self.inj[i].try_inject(self.cycle, self.lens, self.injected, self.fabric, i);
            let (stats, n) = (&mut *self.stats, self.inj.len());
            let region = self.region_by_node[i];
            stats.energy.record_node(&work, &self.region_energy[region]);
            for _ in 0..work.forwards {
                stats.record_forward(i, n);
            }
            if let Some(is_tail) = work.injected {
                stats.record_injection(region, is_tail);
            }
            self.grants += work.grants as usize;
            self.forwards += work.forwards as usize;
        }
        busy(self)
    }
}

/// Drop everything waiting at a dead router's source queue: queued packets
/// and any mid-injection remnant that never reached the network, each a
/// whole packet the outbox's `source_dropped` names by its record.
fn drop_source_queue(q: &mut InjectionQueue, out: &mut Outbox) {
    q.queued_flits = 0;
    out.source_dropped.extend(q.packets.drain(..));
    if let Some(c) = q.current.take() {
        // Possible only for a packet that had injected nothing when the
        // router died (otherwise the boundary purge already cleared it),
        // so it still counts as a whole dropped packet.
        debug_assert_eq!(c.left, c.len, "a dead router's packet was half injected");
        out.source_dropped.push(c.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketId;
    use crate::traffic::TrafficPattern;

    fn small_config() -> SimConfig {
        SimConfig::default()
            .with_size(4, 4)
            .with_traffic(TrafficPattern::Uniform, 0.1)
            .with_regions(2, 2)
    }

    fn packet(id: u64, src: usize, dst: usize, len: u32, t: u64) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            len_flits: len,
            created_at: t,
        }
    }

    #[test]
    fn single_packet_is_delivered() {
        let cfg = small_config();
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        net.offer(vec![packet(0, 0, 15, 5, 0)], &mut stats);
        for _ in 0..200 {
            net.step(&mut stats);
            if stats.ejected_packets == 1 {
                break;
            }
        }
        assert_eq!(stats.ejected_packets, 1, "packet should be delivered");
        assert_eq!(stats.ejected_flits, 5);
        assert_eq!(stats.injected_flits, 5);
        assert_eq!(net.in_flight(), 0);
        // XY route (0,0)->(3,3) is 6 hops; tail latency covers pipeline depth.
        assert!(stats.sum_hops as u32 >= 6);
        assert!(stats.avg_packet_latency() >= 6.0);
    }

    /// Offer one `len`-flit packet per ordered node pair of a 4x4 fabric and
    /// step until the fabric drains or `limit` cycles pass; returns the
    /// packets offered and ejected and what is still in flight.
    fn all_to_all(cfg: &SimConfig, len: u32, limit: usize) -> (u64, u64, usize) {
        let mut net = Network::new(cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        let mut id = 0;
        for (src, dst) in (0..16).flat_map(|s| (0..16).map(move |d| (s, d))) {
            if src != dst {
                net.offer(vec![packet(id, src, dst, len, 0)], &mut stats);
                id += 1;
            }
        }
        for _ in 0..limit {
            net.step(&mut stats);
            if net.in_flight() == 0 {
                break;
            }
        }
        (id, stats.ejected_packets, net.in_flight())
    }

    #[test]
    fn many_packets_all_delivered_xy() {
        let (offered, ejected, in_flight) = all_to_all(&small_config(), 3, 5000);
        assert_eq!(ejected, offered, "all-to-all traffic must drain");
        assert_eq!(in_flight, 0);
    }

    #[test]
    fn adaptive_routing_drains_all_to_all() {
        for alg in [
            RoutingAlgorithm::OddEven,
            RoutingAlgorithm::WestFirst,
            RoutingAlgorithm::NorthLast,
            RoutingAlgorithm::NegativeFirst,
            RoutingAlgorithm::Yx,
        ] {
            let (offered, ejected, _) = all_to_all(&small_config().with_routing(alg), 4, 8000);
            assert_eq!(ejected, offered, "{alg:?} must drain all-to-all traffic");
        }
    }

    #[test]
    fn torus_dor_drains_all_to_all() {
        let mut cfg = small_config().with_routing(RoutingAlgorithm::TorusDor);
        cfg.kind = TopologyKind::Torus;
        let (offered, ejected, _) = all_to_all(&cfg, 4, 8000);
        assert_eq!(ejected, offered, "torus must drain all-to-all traffic");
    }

    #[test]
    fn torus_min_adaptive_drains_all_to_all() {
        let cfg = small_config()
            .with_routing(RoutingAlgorithm::TorusMinAdaptive)
            .with_topology(TopologyKind::Torus);
        let (offered, ejected, in_flight) = all_to_all(&cfg, 4, 8000);
        assert_eq!(ejected, offered, "adaptive torus must drain all-to-all");
        assert_eq!(in_flight, 0);
    }

    #[test]
    fn torus_min_adaptive_reroutes_around_a_dead_wrap_link() {
        // Kill the X wrap wire 3 -E-> 0 (row 0). DOR from 3 to 4=(0,1) needs
        // it and drops; the adaptive algorithm falls back to its south
        // candidate and delivers.
        let base = small_config()
            .with_topology(TopologyKind::Torus)
            .with_faults(link_fault(0, None, 3, Port::East));
        let run = |routing: RoutingAlgorithm| {
            let cfg = base.clone().with_routing(routing);
            let mut net = Network::new(&cfg).unwrap();
            let mut stats = StatsCollector::new(net.regions().num_regions());
            net.offer(vec![packet(0, 3, 4, 5, 0)], &mut stats);
            for _ in 0..400 {
                net.step(&mut stats);
                if net.in_flight() == 0 && stats.injected_flits == 5 {
                    break;
                }
            }
            (stats.ejected_packets, stats.dropped_packets)
        };
        assert_eq!(run(RoutingAlgorithm::TorusDor), (0, 1));
        assert_eq!(run(RoutingAlgorithm::TorusMinAdaptive), (1, 0));
    }

    #[test]
    fn low_vf_level_slows_delivery() {
        let cfg = small_config();
        let run = |level: usize| {
            let mut net = Network::new(&cfg).unwrap();
            net.set_all_levels(level).unwrap();
            let mut stats = StatsCollector::new(net.regions().num_regions());
            net.offer(vec![packet(0, 0, 15, 5, 0)], &mut stats);
            for c in 0..2000 {
                net.step(&mut stats);
                if stats.ejected_packets == 1 {
                    return c;
                }
            }
            panic!("packet not delivered at level {level}");
        };
        let fast = run(3);
        let slow = run(0);
        assert!(
            slow > fast * 2,
            "0.4x frequency should be much slower: fast={fast}, slow={slow}"
        );
    }

    #[test]
    fn low_vf_level_saves_energy_per_flit() {
        let cfg = small_config();
        let run = |level: usize| {
            let mut net = Network::new(&cfg).unwrap();
            net.set_all_levels(level).unwrap();
            let mut stats = StatsCollector::new(net.regions().num_regions());
            net.offer(vec![packet(0, 0, 15, 5, 0)], &mut stats);
            while stats.ejected_packets < 1 {
                net.step(&mut stats);
                assert!(net.cycle() < 5000);
            }
            stats.energy.dynamic_pj()
        };
        let hi = run(3);
        let lo = run(0);
        assert!(
            lo < hi * 0.5,
            "dynamic energy should scale with V²: hi={hi}, lo={lo}"
        );
    }

    #[test]
    fn region_levels_are_independent() {
        let cfg = small_config();
        let mut net = Network::new(&cfg).unwrap();
        net.set_region_level(0, 0).unwrap();
        net.set_region_level(3, 2).unwrap();
        assert_eq!(net.region_levels(), &[0, 3, 3, 2]);
        assert!(net.set_region_level(9, 0).is_err());
        assert!(net.set_region_level(0, 9).is_err());
    }

    #[test]
    fn routing_switch_validates_topology() {
        let cfg = small_config();
        let mut net = Network::new(&cfg).unwrap();
        assert!(net.set_routing(RoutingAlgorithm::OddEven).is_ok());
        assert_eq!(net.routing(), RoutingAlgorithm::OddEven);
        assert!(net.set_routing(RoutingAlgorithm::TorusDor).is_err());
    }

    #[test]
    fn occupancy_and_backlog_accounting() {
        let cfg = small_config();
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        net.offer(vec![packet(0, 0, 15, 5, 0)], &mut stats);
        assert_eq!(net.backlog(), 5);
        assert_eq!(net.occupancy(), 0);
        net.step(&mut stats);
        assert_eq!(
            net.in_flight(),
            5,
            "flits conserved between queue and buffers"
        );
        // The config-side shape is the fabric's own buffer capacity.
        let shape = net.regions.shape(&net.topo, net.fabric.buffer_capacity());
        assert_eq!(shape, cfg.region_shape().unwrap());
        let cap: usize = shape.capacity.iter().sum();
        assert_eq!(cap, 16 * 5 * cfg.num_vcs * cfg.vc_depth);
    }

    #[test]
    fn power_gating_cuts_idle_leakage() {
        let mut cfg = small_config();
        let run = |cfg: &SimConfig| {
            let mut net = Network::new(cfg).unwrap();
            let mut stats = StatsCollector::new(net.regions().num_regions());
            for _ in 0..100 {
                net.step(&mut stats); // fully idle network
            }
            stats.energy.leakage_pj()
        };
        let nominal = run(&cfg);
        cfg.power = crate::power::PowerModel::with_power_gating();
        let gated = run(&cfg);
        assert!(
            (gated - nominal * 0.2).abs() < nominal * 0.01,
            "idle gated leakage {gated} should be ~20% of {nominal}"
        );
    }

    #[test]
    fn throttle_overrides_requested_level() {
        use crate::dvfs::ThrottleEvent;
        let cfg = small_config().with_throttles(vec![ThrottleEvent {
            start: 50,
            duration: 100,
            region: 0,
            level: 0,
        }]);
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        assert_eq!(net.effective_region_levels(), &[3, 3, 3, 3]);
        for _ in 0..60 {
            net.step(&mut stats);
        }
        assert_eq!(
            net.region_levels(),
            &[3, 3, 3, 3],
            "requested level unchanged"
        );
        assert_eq!(
            net.effective_region_levels(),
            &[0, 3, 3, 3],
            "region 0 throttled"
        );
        // The controller cannot override the emergency.
        net.set_region_level(0, 3).unwrap();
        net.step(&mut stats);
        assert_eq!(net.effective_region_levels()[0], 0);
        // After the window the requested level is restored.
        for _ in 0..100 {
            net.step(&mut stats);
        }
        assert_eq!(net.effective_region_levels(), &[3, 3, 3, 3]);
    }

    #[test]
    fn throttle_slows_the_region() {
        use crate::dvfs::ThrottleEvent;
        let run = |throttled: bool| {
            let mut cfg = small_config();
            if throttled {
                cfg = cfg.with_throttles(vec![ThrottleEvent {
                    start: 0,
                    duration: 10_000,
                    region: 0,
                    level: 0,
                }]);
            }
            let mut net = Network::new(&cfg).unwrap();
            let mut stats = StatsCollector::new(net.regions().num_regions());
            // Packet crossing region 0 (node 0 is in region 0).
            net.offer(vec![packet(0, 0, 5, 5, 0)], &mut stats);
            for c in 0..2000 {
                net.step(&mut stats);
                if stats.ejected_packets == 1 {
                    return c;
                }
            }
            panic!("packet not delivered");
        };
        assert!(
            run(true) > run(false) * 2,
            "throttled region must be much slower"
        );
    }

    fn link_fault(start: u64, duration: Option<u64>, node: usize, port: Port) -> crate::FaultPlan {
        crate::FaultPlan::new(vec![crate::FaultEvent {
            start,
            duration,
            target: crate::FaultTarget::Link {
                node: NodeId(node),
                port,
            },
        }])
        .unwrap()
    }

    #[test]
    fn xy_drops_packets_that_need_a_dead_link() {
        // XY from 0 to 3 must go east along row 0; kill link 1<->2.
        let cfg = small_config().with_faults(link_fault(0, None, 1, Port::East));
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        net.offer(vec![packet(0, 0, 3, 5, 0)], &mut stats);
        for _ in 0..300 {
            net.step(&mut stats);
            if net.in_flight() == 0 && stats.injected_flits == 5 {
                break;
            }
        }
        assert_eq!(stats.ejected_packets, 0, "no route around a dead XY link");
        assert_eq!(stats.dropped_packets, 1);
        assert_eq!(stats.dropped_flits, 5);
        assert_eq!(net.in_flight(), 0, "dropped packets must drain, not wedge");
        assert!(stats.sum_dead_links > 0.0, "telemetry sees the dead link");
    }

    #[test]
    fn adaptive_routing_reroutes_around_a_dead_link() {
        // West-First from 0 to 15 may route south first; kill link 1<->2 on
        // row 0 — a minimal alternative exists, so the packet is delivered.
        let cfg = small_config()
            .with_routing(RoutingAlgorithm::WestFirst)
            .with_faults(link_fault(0, None, 1, Port::East));
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        net.offer(vec![packet(0, 0, 15, 5, 0)], &mut stats);
        for _ in 0..300 {
            net.step(&mut stats);
            if stats.ejected_packets == 1 {
                break;
            }
        }
        assert_eq!(stats.ejected_packets, 1, "adaptive routing must reroute");
        assert_eq!(stats.dropped_packets, 0);
    }

    #[test]
    fn mid_packet_link_death_purges_the_severed_packet() {
        // Let the packet start crossing 0->1, then kill the link mid-flight:
        // the whole packet (both halves) is purged and counted dropped, and
        // the fabric keeps working for later traffic on other routes.
        let cfg = small_config().with_faults(link_fault(8, None, 0, Port::East));
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        net.offer(vec![packet(0, 0, 3, 8, 0)], &mut stats);
        for _ in 0..400 {
            net.step(&mut stats);
        }
        assert_eq!(stats.ejected_packets, 0);
        assert_eq!(stats.dropped_packets, 1);
        assert_eq!(
            stats.dropped_flits, 8,
            "every flit of the severed packet is accounted for"
        );
        assert_eq!(net.in_flight(), 0);
        // The fabric still delivers traffic that avoids the dead link.
        net.offer(vec![packet(1, 4, 7, 5, 400)], &mut stats);
        for _ in 0..300 {
            net.step(&mut stats);
            if stats.ejected_packets == 1 {
                break;
            }
        }
        assert_eq!(stats.ejected_packets, 1, "surviving fabric must still work");
    }

    #[test]
    fn transient_fault_heals_and_traffic_resumes() {
        let cfg = small_config().with_faults(link_fault(0, Some(100), 1, Port::East));
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        // During the fault: XY traffic across it drops.
        net.offer(vec![packet(0, 0, 3, 5, 0)], &mut stats);
        for _ in 0..100 {
            net.step(&mut stats);
        }
        assert_eq!(stats.dropped_packets, 1);
        assert!(!net.faults().is_link_up(NodeId(1), Port::East));
        // After healing: the same route works again.
        net.offer(vec![packet(1, 0, 3, 5, 100)], &mut stats);
        for _ in 0..300 {
            net.step(&mut stats);
            if stats.ejected_packets == 1 {
                break;
            }
        }
        assert!(
            net.faults().is_link_up(NodeId(1), Port::East),
            "link healed"
        );
        assert_eq!(stats.ejected_packets, 1, "healed link must carry traffic");
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn router_fault_drops_traffic_from_and_to_it() {
        let plan = crate::FaultPlan::new(vec![crate::FaultEvent {
            start: 0,
            duration: None,
            target: crate::FaultTarget::Router { node: NodeId(5) },
        }])
        .unwrap();
        let cfg = small_config().with_faults(plan);
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        // One packet from the dead router, one to it, one unrelated.
        net.offer(
            vec![
                packet(0, 5, 3, 5, 0),
                packet(1, 0, 5, 5, 0),
                packet(2, 12, 15, 5, 0),
            ],
            &mut stats,
        );
        for _ in 0..500 {
            net.step(&mut stats);
            if net.in_flight() == 0 && stats.ejected_packets == 1 {
                break;
            }
        }
        assert_eq!(
            stats.ejected_packets, 1,
            "only the unrelated packet arrives"
        );
        assert_eq!(stats.dropped_packets, 2);
        assert_eq!(net.in_flight(), 0);
        assert!(!net.faults().is_router_up(NodeId(5)));
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        // An empty plan must be byte-for-byte the default configuration, so
        // the fault hook cannot perturb healthy-fabric results.
        let cfg = small_config();
        let with_empty = small_config().with_faults(crate::FaultPlan::empty());
        assert_eq!(cfg, with_empty);
    }

    #[test]
    fn energy_grows_every_cycle_from_leakage() {
        let cfg = small_config();
        let mut net = Network::new(&cfg).unwrap();
        let mut stats = StatsCollector::new(net.regions().num_regions());
        net.step(&mut stats);
        let e1 = stats.energy.leakage_pj();
        net.step(&mut stats);
        let e2 = stats.energy.leakage_pj();
        assert!(e1 > 0.0 && e2 > e1);
    }

    /// One single-flit packet 0 -> 1 at the top V/F level (both scales
    /// exactly 1.0), priced by hand rather than by a golden: inject, RC, VA,
    /// SA + link at node 0 (cycles 0-3); deposit, RC, VA, SA + eject at
    /// node 1 (cycles 4-6); every other router-cycle leaks idle.
    #[test]
    fn one_flit_one_hop_costs_what_the_power_model_says() {
        let models = [PowerModel::default_32nm(), PowerModel::with_power_gating()];
        for p in models {
            let mut cfg = small_config();
            cfg.power = p;
            let mut net = Network::new(&cfg).unwrap();
            let mut stats = StatsCollector::new(net.regions().num_regions());
            net.offer(vec![packet(0, 0, 1, 1, 0)], &mut stats);
            let mut leakage = 0.0;
            for cycle in 0..10 {
                net.step(&mut stats);
                let busy = [0, 0, 0, 0, 1, 1, 1].get(cycle);
                for i in 0..16 {
                    let (x, y) = (i % 4, i / 4);
                    let links = [x > 0, x < 3, y > 0, y < 3].iter().filter(|&&l| l).count();
                    let idle = busy != Some(&i);
                    let gate = if idle { p.idle_leakage_fraction } else { 1.0 };
                    leakage += (p.p_leak_router + p.p_leak_link * links as f64) * gate;
                }
            }
            let hop = p.e_route + p.e_vc_alloc + p.e_buffer_read + p.e_sw_arb + p.e_xbar;
            let dynamic = 2.0 * p.e_buffer_write + 2.0 * hop + p.e_link;
            let (energy, gating) = (&stats.energy, p.idle_leakage_fraction);
            assert_eq!(stats.ejected_packets, 1);
            assert!((energy.dynamic_pj() - dynamic).abs() < 1e-9);
            assert_eq!((energy.events(), stats.node_forwarded[0]), (13, 1));
            assert!(
                (energy.leakage_pj() - leakage).abs() < 1e-9,
                "gating={gating}: {energy:?} vs {leakage}"
            );
        }
    }
}
