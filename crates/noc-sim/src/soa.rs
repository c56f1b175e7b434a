//! The wormhole virtual-channel router pipeline, over structure-of-arrays
//! state for the whole fabric.
//!
//! A three-stage pipeline executed once per active (non-clock-gated) cycle,
//! in reverse order so a flit takes one stage per cycle:
//!
//! 1. **SA/ST** — switch allocation + traversal: per output port, a
//!    round-robin pick among input VCs whose packet was routed to that
//!    port, holds a downstream VC, and has a credit. The winning flit
//!    leaves through the crossbar (at most one flit per input port and per
//!    output port per cycle).
//! 2. **VA** — virtual-channel allocation: head flits that have a route claim
//!    a free VC at the downstream input port.
//! 3. **RC** — route computation: head flits at the front of a VC compute
//!    their candidate output ports; adaptive algorithms pick the candidate
//!    with the most free downstream credits.
//!
//! Flow control is credit-based: per output port and VC, the fabric keeps
//! the number of free slots in the downstream buffer and the packet that
//! owns the VC; the network layer returns credits as downstream buffers
//! drain. A router's cycle writes its effects straight into the network's
//! [`Outbox`] — departing flits as [`Delivery`]s already addressed to
//! the receiving router, drained slots as [`CreditReturn`]s, ejected and
//! dropped flits as themselves — and returns what it did as a
//! [`NodeWork`], which the network prices as soon as the router's visit
//! ends; the outbox is applied once every router has stepped.
//!
//! [`FabricState`] holds every router's pipeline state in flat arrays
//! indexed by `(router, port, vc)` — the flits themselves (one fixed ring of
//! `vc_depth` slots per input VC, with its head and length), route locks,
//! granted downstream VCs, VC owners, drain flags, downstream credits, and
//! the arbitration pointers. A hop costs what it touches: a flit is 32
//! bytes, an owner slot 8, and a neighbour is a load from a table resolved
//! once ([`Topology::neighbor_table`]). No element owns a heap allocation.
//!
//! Two supporting structures per router keep the cycle loop cheap:
//!
//! * an O(1) occupancy counter (`occ`), so testing whether a step drained
//!   a router is one load, and
//! * an occupancy bitmask (`occ_mask`) with bit `port * num_vcs + vc` set
//!   iff that input VC buffers at least one flit. Switch allocation is
//!   two-stage arbitration over bitmasks: stage one builds per-output-port
//!   request masks in a single pass over the occupied VCs; stage two grants
//!   with the rotate-free round-robin pick `rr_pick` — first asserted index
//!   at or after the pointer, else first asserted index; the pointer
//!   advances past the winner. There is one allocation path: a grant holds
//!   its output port for the granted input VC until a release — the
//!   packet's tail, or every grant on a fabric that releases after every
//!   flit (`perflit`). Stage one's pass is the cycle's only walk of
//!   the occupied VCs: it also sorts the non-requesters into the masks VA
//!   and RC iterate, so those two stages visit only the VCs that need them.
//!
//! Both counters are derivable from the buffers; `debug_assert!` recounts
//! (exercised by the debug-profile CI job) keep them honest. The stages
//! visit VCs in `(port, vc)` order and the network prices each router's
//! counts in one fixed order ([`NodeWork`]), which the golden and
//! differential tests pin byte-for-byte.

use crate::fault::LinkState;
use crate::flit::{Flit, PacketId};
use crate::routing::{route, route_live, route_table, RoutingAlgorithm, RoutingTables};
use crate::topology::{NodeId, Port, Topology};
use std::collections::BTreeSet;

/// A flit in transit on a link, to be delivered at the end of the cycle.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Receiving router.
    pub to: NodeId,
    /// Input port of `to` the flit arrives on.
    pub in_port: Port,
    /// The flit, with `vc` set to the downstream VC and `vc_class` already
    /// raised if the hop crossed a torus dateline.
    pub flit: Flit,
}

/// A credit to return to an upstream sender.
#[derive(Debug, Clone)]
pub struct CreditReturn {
    /// Router whose input buffer drained.
    pub at: NodeId,
    /// Input port the flit had arrived on.
    pub in_port: Port,
    /// Virtual channel index.
    pub vc: usize,
}

/// Everything the routers emit beyond themselves during the per-node phase,
/// applied by the commit phase once every router has stepped. Deliveries are
/// priced in node order of their senders (one `BufferWrite` each, after
/// every router's [`NodeWork`]); ejections, drops and source drops feed only
/// integers and f64 sums of integers, so their order is free. Only capacity
/// persists across cycles.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Flits leaving over a link, each addressed to its receiver.
    pub deliveries: Vec<Delivery>,
    /// Credits owed to upstream routers.
    pub credits: Vec<CreditReturn>,
    /// Flits ejected at their destination (`StatsCollector::record_ejection`).
    pub ejected: Vec<Flit>,
    /// Flits discarded by the drop drain (`StatsCollector::record_drop`).
    pub dropped: Vec<Flit>,
    /// `(packets, flits)` discarded at dead routers' source queues
    /// (`StatsCollector::record_source_drop`).
    pub source_dropped: (u64, u64),
}

/// What one router did this cycle: how many of each dynamic-energy event it
/// caused. [`FabricState::step_node`] returns the stages' counts; the
/// network adds the injection and prices the whole as soon as the router's
/// visit ends, in node order.
///
/// The stages never touch the `StatsCollector`. Float addition is not
/// associative, so what `dynamic_pj` needs is one fixed order of additions,
/// and counting gives it because a router's event sequence is fixed —
/// `grants` × (`BufferRead`, `SwitchArb`, `Crossbar`), `va` × `VcAlloc`,
/// `rc` × `RouteCompute`, `forwards` × `LinkTraversal` (after RC's energy,
/// not at the grant), then the injection's `BufferWrite`, all at the
/// router's one V/F scale — so pricing router after router in node order is
/// the same sequence of f64 additions every run. `dynamic_pj` and
/// `leakage_pj` (which the network accrues from the active set, not from
/// the counts) are the only order-sensitive accumulators; everything else a
/// cycle records is an integer or an f64 sum of integers.
///
/// The counts fit `u8`: each is at most one per input VC per cycle, and
/// [`FabricState::new`] asserts `Port::COUNT * num_vcs <= 64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeWork {
    /// Switch-allocation grants (flits read, arbitrated and crossed).
    pub grants: u8,
    /// VC allocations.
    pub va: u8,
    /// Route computations.
    pub rc: u8,
    /// Grants that left over an inter-router link (the rest ejected).
    pub forwards: u8,
    /// The flit injected from the source queue, if any: whether it was its
    /// packet's tail.
    pub injected: Option<bool>,
}

/// Per-cycle execution context handed to [`FabricState::step_node`].
#[derive(Debug)]
pub struct RouterCtx<'a> {
    /// The network topology (for route computation).
    pub topo: &'a Topology,
    /// [`Topology::neighbor_table`] of `topo`, indexed by node id.
    pub neighbors: &'a [[u32; 4]],
    /// Routing algorithm in force this cycle.
    pub routing: RoutingAlgorithm,
    /// Link/router liveness under the active fault set. `None` means the
    /// simulation runs without a fault plan (the common case) and route
    /// computation skips the liveness filter entirely.
    pub faults: Option<&'a LinkState>,
    /// Precomputed k-path tables, required when `routing` is
    /// [`RoutingAlgorithm::Table`] and ignored otherwise. The network
    /// rebuilds them whenever the live-link set changes.
    pub tables: Option<&'a RoutingTables>,
}

/// The packet that owns a VC, or none: 8 bytes where `Option<PacketId>` is
/// 16, on arrays every head and tail flit touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owner(u64);

impl Owner {
    const NONE: Owner = Owner(u64::MAX);

    fn some(packet: PacketId) -> Owner {
        debug_assert!(packet.0 != u64::MAX, "packet id is the free sentinel");
        Owner(packet.0)
    }

    fn get(self) -> Option<PacketId> {
        (self != Owner::NONE).then_some(PacketId(self.0))
    }
}

/// Whether the hop `from -> to` through `port` crosses a wrap-around
/// (dateline) link. Node ids grow with `x`, then `y`, so a wrap link is the
/// one East or South hop that does not move up in id order and the one West
/// or North hop that does not move down (a one-wide ring hops onto itself);
/// a mesh has no such hop.
fn crosses_dateline(from: usize, to: usize, port: Port) -> bool {
    match port {
        Port::East | Port::South => to <= from,
        Port::West | Port::North => to >= from,
        Port::Local => false,
    }
}

/// Round-robin pick over a non-empty request bitmask: the first asserted
/// bit at or after `ptr`, else (wrapping) the first asserted bit. The
/// caller advances its pointer past the winner, which is what makes the
/// arbitration starvation-free under persistent requests.
#[inline]
fn rr_pick(reqs: u64, ptr: u32) -> u32 {
    debug_assert!(reqs != 0, "round-robin pick over an empty request set");
    let hi = reqs & (u64::MAX << ptr);
    if hi != 0 {
        hi.trailing_zeros()
    } else {
        reqs.trailing_zeros()
    }
}

/// Flat pipeline state for `routers` routers, one array per field.
///
/// Index layout: input-VC and output-VC arrays use
/// `router * (Port::COUNT * num_vcs) + port * num_vcs + vc`; flit slots use
/// that index `* vc_depth + slot`; per-port arrays use
/// `router * Port::COUNT + port`; per-router arrays use the router index
/// directly.
#[derive(Debug)]
pub struct FabricState {
    num_vcs: usize,
    /// Flattened `(port, vc)` count per router: `Port::COUNT * num_vcs`.
    pv: usize,
    vc_depth: usize,
    /// When true, VC allocation partitions VCs into two dateline classes
    /// (tori). Requires `num_vcs >= 2`.
    vc_partition: bool,
    /// Input flit storage: a ring of `vc_depth` slots per `(router, port,
    /// vc)`. A slot is `Some` iff it lies within `len` of its ring's `head`
    /// (`pop` and `purge` vacate what they remove); `Option<Flit>` is the
    /// same 32 bytes as `Flit` through `FlitKind`'s niche.
    flits: Vec<Option<Flit>>,
    /// Ring slot of the oldest buffered flit, per input VC.
    head: Vec<u16>,
    /// Buffered flits per input VC (`u16` like the credits that bound it).
    len: Vec<u16>,
    /// Route lock per input VC: output port assigned by route computation.
    in_route: Vec<Option<Port>>,
    /// Downstream VC granted by VC allocation, per input VC.
    in_out_vc: Vec<Option<u8>>,
    /// Packet occupying each input VC (recorded at route computation).
    in_owner: Vec<Owner>,
    /// Drain flag per input VC: the occupying packet is unroutable and its
    /// flits are discarded as they arrive.
    in_dropping: Vec<bool>,
    /// Downstream VC claims, `(router, port, vc)` — the upstream view of
    /// who owns the VC at the far end of each output.
    out_owner: Vec<Owner>,
    /// Free downstream buffer slots per output VC (credits).
    out_credits: Vec<u16>,
    /// Switch-allocation round-robin pointer per `(router, out_port)`,
    /// over flattened `(in_port, vc)` requesters.
    sw_next: Vec<u32>,
    /// Switch hold per `(router, out_port)`: the flat `(in_port, vc)` bit
    /// of the input VC the output port serves until a release (`u32::MAX` =
    /// free). Every grant writes it — a release frees the port, any other
    /// grant holds it for the winner — and fault purges clear a hold whose
    /// holding VC they release.
    sw_hold: Vec<u32>,
    /// The release rule, resolved once from `SimConfig::switch_arb` by
    /// `Network::new`: every grant releases its output port (`perflit`, the
    /// default), or only a packet's tail grant does (`perpacket`).
    pub(crate) release_every_flit: bool,
    /// VC-allocation rotation pointer per `(router, out_port)`.
    va_ptr: Vec<u32>,
    /// Buffered-flit count per router, maintained on accept/pop so the
    /// active-router test is O(1).
    occ: Vec<u32>,
    /// Occupancy bitmask per router: bit `port * num_vcs + vc` set iff
    /// that input VC is non-empty.
    occ_mask: Vec<u64>,
}

impl FabricState {
    /// Idle state for `routers` routers.
    ///
    /// # Panics
    /// Panics if `num_vcs == 0`, `vc_depth == 0`, `vc_depth` does not fit
    /// the `u16` credit counters, `vc_partition` is set with fewer than two
    /// VCs, or the flattened `(port, vc)` index does not fit the occupancy
    /// bitmask (`Port::COUNT * num_vcs > 64`).
    pub fn new(routers: usize, num_vcs: usize, vc_depth: usize, vc_partition: bool) -> Self {
        assert!(num_vcs > 0, "router needs at least one VC");
        assert!(vc_depth > 0, "VC depth must be positive");
        assert!(
            !vc_partition || num_vcs >= 2,
            "VC partitioning requires >= 2 VCs"
        );
        assert!(
            Port::COUNT * num_vcs <= 64,
            "flattened (port, vc) state is bitmask-indexed: at most {} VCs",
            64 / Port::COUNT
        );
        let credits = u16::try_from(vc_depth).expect("credit counters are u16: vc_depth <= 65535");
        let pv = Port::COUNT * num_vcs;
        FabricState {
            num_vcs,
            pv,
            vc_depth,
            vc_partition,
            flits: vec![None; routers * pv * vc_depth],
            head: vec![0; routers * pv],
            len: vec![0; routers * pv],
            in_route: vec![None; routers * pv],
            in_out_vc: vec![None; routers * pv],
            in_owner: vec![Owner::NONE; routers * pv],
            in_dropping: vec![false; routers * pv],
            out_owner: vec![Owner::NONE; routers * pv],
            out_credits: vec![credits; routers * pv],
            sw_next: vec![0; routers * Port::COUNT],
            sw_hold: vec![u32::MAX; routers * Port::COUNT],
            release_every_flit: true,
            va_ptr: vec![0; routers * Port::COUNT],
            occ: vec![0; routers],
            occ_mask: vec![0; routers],
        }
    }

    #[inline]
    fn idx(&self, r: usize, port: Port, vc: usize) -> usize {
        r * self.pv + port.index() * self.num_vcs + vc
    }

    /// Total buffering capacity per router.
    pub fn buffer_capacity(&self) -> usize {
        self.pv * self.vc_depth
    }

    /// Record the owners of router `r`'s output VCs on `port` (packets
    /// mid-transmission across that link) into `out`. Fault handling calls
    /// this for every newly dead outgoing link: those packets are severed
    /// and must be condemned network-wide.
    pub(crate) fn condemn_output_owners(&self, r: usize, port: Port, out: &mut BTreeSet<PacketId>) {
        for vc in 0..self.num_vcs {
            if let Some(pid) = self.out_owner[self.idx(r, port, vc)].get() {
                out.insert(pid);
            }
        }
    }

    /// Record every packet with a flit buffered in router `r` or holding
    /// one of its output claims into `out` — used when the router dies.
    pub(crate) fn condemn_all(&self, r: usize, out: &mut BTreeSet<PacketId>) {
        let (pv, slots) = (self.pv, self.buffer_capacity());
        for flit in self.flits[r * slots..(r + 1) * slots].iter().flatten() {
            out.insert(flit.packet);
        }
        for pid in self.out_owner[r * pv..(r + 1) * pv].iter() {
            out.extend(pid.get());
        }
    }

    /// Credit conservation, checked between cycles (every delivery and
    /// credit committed, so nothing is in flight): the free slots of each
    /// input VC are exactly the credits its one sender holds — the
    /// neighbour's output VC, or for `Local` the source queue's counter
    /// (`local`, VC 0 only). A VC nothing can send into — `Local` VCs 1..,
    /// ports off the edge — must be empty. An oracle that shares no
    /// code with the pipeline; it holds across purges, drop drains, dead
    /// routers and heals.
    #[cfg(debug_assertions)]
    pub fn assert_credits_conserved(&self, topo: &Topology, local: impl Fn(usize) -> usize) {
        for (r, port) in (0..self.occ.len()).flat_map(|r| Port::ALL.map(|p| (r, p))) {
            let sender = topo.neighbor(NodeId(r), port);
            for vc in 0..self.num_vcs {
                let credits = match sender {
                    Some(up) => self.out_credits[self.idx(up.0, port.opposite(), vc)] as usize,
                    None if (port, vc) == (Port::Local, 0) => local(r),
                    None => self.vc_depth,
                };
                assert_eq!(
                    credits + self.len[self.idx(r, port, vc)] as usize,
                    self.vc_depth,
                    "credits + buffered flits != vc_depth at router {r} input {port}/{vc}"
                );
            }
        }
    }

    /// Switch-hold ownership, checked between cycles by an oracle that
    /// shares no code with switch allocation: a held output port's holder
    /// input VC is still routed to that port, still owned by a packet, and
    /// still holds the downstream VC that packet was granted (claimed in
    /// the packet's name, except on `Local`, which claims none). A fabric
    /// that releases after every flit holds no port between cycles.
    #[cfg(debug_assertions)]
    pub fn assert_holds_owned(&self) {
        for (i, &hold) in self.sw_hold.iter().enumerate() {
            if hold == u32::MAX {
                continue;
            }
            let (r, port) = (i / Port::COUNT, Port::ALL[i % Port::COUNT]);
            assert!(!self.release_every_flit, "router {r} holds {port} per flit");
            let holder = r * self.pv + hold as usize;
            let owner = self.in_owner[holder];
            let out_vc = self.in_out_vc[holder].map(usize::from);
            let claimed = out_vc.is_some_and(|vc| {
                port == Port::Local || self.out_owner[self.idx(r, port, vc)] == owner
            });
            assert!(
                self.in_route[holder] == Some(port) && owner != Owner::NONE && claimed,
                "router {r} output {port} is held by input VC bit {hold}, which no longer owns it"
            );
        }
    }

    /// Flits buffered in router `r`, with a debug recount of the O(1)
    /// counter and the occupancy bitmask against the per-VC lengths (the
    /// debug-profile CI job checks both on the path the cycle loop runs).
    #[inline]
    pub fn occupancy(&self, r: usize) -> usize {
        let (pv, len) = (self.pv, &self.len);
        debug_assert_eq!(
            self.occ[r],
            (len[r * pv..(r + 1) * pv].iter())
                .map(|&l| u32::from(l))
                .sum::<u32>(),
            "occupancy counter out of sync with the buffers"
        );
        debug_assert!(
            (0..pv).all(|b| (self.occ_mask[r] >> b) & 1 == u64::from(len[r * pv + b] != 0)),
            "occupancy bitmask out of sync with the buffers"
        );
        self.occ[r] as usize
    }

    /// Flat slot of the `i`-th oldest position (`i <= vc_depth`) of input
    /// VC `idx`. The ring wraps by compare: `vc_depth` is a runtime value
    /// and need not be a power of two.
    #[inline]
    fn slot(&self, idx: usize, i: usize) -> usize {
        let s = self.head[idx] as usize + i;
        let wrap = if s >= self.vc_depth { self.vc_depth } else { 0 };
        idx * self.vc_depth + s - wrap
    }

    /// The oldest flit buffered in input VC `idx` (an empty ring's head
    /// slot is vacant).
    #[inline]
    fn front(&self, idx: usize) -> Option<&Flit> {
        self.flits[self.slot(idx, 0)].as_ref()
    }

    /// Remove and return the oldest flit of input VC `b` of local router
    /// `k`, keeping the occupancy counters in step: the inverse of
    /// [`accept`](Self::accept).
    #[inline]
    fn pop(&mut self, k: usize, b: usize) -> Option<Flit> {
        let idx = k * self.pv + b;
        let slot = self.slot(idx, 0);
        let flit = self.flits[slot].take()?;
        let next = self.head[idx] as usize + 1;
        self.head[idx] = if next < self.vc_depth { next as u16 } else { 0 };
        self.len[idx] -= 1;
        self.occ[k] -= 1;
        if self.len[idx] == 0 {
            self.occ_mask[k] &= !(1u64 << b);
        }
        Some(flit)
    }

    /// Remove every flit of a `condemned` packet from input VC `idx` in one
    /// pass, closing the gaps so the survivors keep their FIFO order;
    /// returns how many were removed. Fault handling only: normal operation
    /// never removes flits out of FIFO order.
    fn purge(&mut self, idx: usize, condemned: &BTreeSet<PacketId>) -> usize {
        let len = self.len[idx] as usize;
        let mut kept = 0;
        for i in 0..len {
            let from = self.slot(idx, i);
            let flit = self.flits[from].take().expect("slot within len");
            if !condemned.contains(&flit.packet) {
                let to = self.slot(idx, kept);
                self.flits[to] = Some(flit);
                kept += 1;
            }
        }
        self.len[idx] = kept as u16;
        len - kept
    }

    /// The VC index range a flit of `vc_class` may claim at the next hop,
    /// honoring the dateline partition on tori.
    fn allowed_vcs(&self, vc_class: u8) -> std::ops::Range<usize> {
        if self.vc_partition {
            let half = self.num_vcs / 2;
            if vc_class == 0 {
                0..half
            } else {
                half..self.num_vcs
            }
        } else {
            0..self.num_vcs
        }
    }

    /// Clear per-packet state of flat input VC `idx` after the tail flit
    /// departs (or the packet is dropped/purged).
    #[inline]
    fn release(&mut self, idx: usize) {
        self.in_route[idx] = None;
        self.in_out_vc[idx] = None;
        self.in_owner[idx] = Owner::NONE;
        self.in_dropping[idx] = false;
    }

    /// Deposit a flit arriving on `port` of local router `k` into its VC
    /// buffer. Called by the network layer for link deliveries and local
    /// injections; the caller accounts the `BufferWrite` energy.
    ///
    /// # Panics
    /// Panics if the VC is full — senders must respect credits, so an
    /// overflow indicates a flow-control bug.
    pub fn accept(&mut self, k: usize, port: Port, flit: Flit) {
        debug_assert!(flit.vc() < self.num_vcs, "flit VC out of range");
        let b = port.index() * self.num_vcs + flit.vc();
        let idx = k * self.pv + b;
        let len = self.len[idx];
        assert!(
            (len as usize) < self.vc_depth,
            "VC buffer overflow: flow-control violation"
        );
        let slot = self.slot(idx, len as usize);
        self.flits[slot] = Some(flit);
        self.len[idx] = len + 1;
        self.occ[k] += 1;
        self.occ_mask[k] |= 1 << b;
    }

    /// Return one credit for output `(port, vc)` of local router `k`.
    pub fn return_credit(&mut self, k: usize, port: Port, vc: usize) {
        let idx = k * self.pv + port.index() * self.num_vcs + vc;
        debug_assert!(
            (self.out_credits[idx] as usize) < self.vc_depth,
            "credit overflow on {port}/{vc}"
        );
        self.out_credits[idx] += 1;
    }

    /// Execute one active cycle of local router `k` (node id `node`):
    /// SA/ST, then VA, then RC. Appends this cycle's deliveries, credits,
    /// ejections and drops to the outbox and returns the stages' energy
    /// event counts.
    pub fn step_node(
        &mut self,
        k: usize,
        node: NodeId,
        ctx: &RouterCtx<'_>,
        out: &mut Outbox,
    ) -> NodeWork {
        let mut work = NodeWork::default();
        if self.occupancy(k) == 0 {
            return work; // idle router: nothing to route, allocate, or move
        }
        if ctx.faults.is_some() {
            self.drain_dropped(k, node, out);
        }
        let (va_mask, rc_mask) = self.switch_allocation(k, node, ctx, out, &mut work);
        // The oracle for SA's fused classification: a full walk of the VCs.
        debug_assert!(
            (0..self.pv).all(|b| {
                let (occupied, idx) = ((self.occ_mask[k] >> b) & 1 == 1, k * self.pv + b);
                let routed = self.in_route[idx].is_some();
                (va_mask >> b) & 1 == u64::from(occupied && routed && self.in_out_vc[idx].is_none())
                    && (rc_mask >> b) & 1 == u64::from(occupied && !routed)
            }),
            "SA's VA/RC masks differ from a walk of the occupied VCs"
        );
        work.va = self.vc_allocation(k, va_mask);
        work.rc = self.route_computation(k, node, ctx, rc_mask);
        work
    }

    /// Discard buffered flits of packets marked `dropping` (unroutable
    /// under the active fault set), returning a credit per discarded flit
    /// so the upstream sender keeps feeding the remainder of the packet.
    /// The tail flit releases the VC.
    fn drain_dropped(&mut self, k: usize, node: NodeId, out: &mut Outbox) {
        let v = self.num_vcs;
        let b0 = k * self.pv;
        let mut m = self.occ_mask[k];
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let idx = b0 + b;
            if !self.in_dropping[idx] {
                continue;
            }
            let (ip, vc) = (b / v, b % v);
            while let Some(flit) = self.pop(k, b) {
                let is_tail = flit.is_tail();
                out.dropped.push(flit);
                out.credits.push(CreditReturn {
                    at: node,
                    in_port: Port::from_index(ip),
                    vc,
                });
                if is_tail {
                    self.release(idx);
                    break;
                }
            }
        }
    }

    /// SA/ST: one flit per output port per cycle, one per input port per
    /// cycle, round-robin among eligible input VCs. Stage one builds the
    /// per-output-port request masks in a single pass over the occupied
    /// VCs; stage two grants each output port with the rotate-free
    /// round-robin pick and masks out the winner's whole input port.
    /// Stage one has then loaded `in_route` and `in_out_vc` of every occupied
    /// VC, so it sorts the non-requesters too: the returned `(va_mask,
    /// rc_mask)` are the VCs routed without a downstream VC and the unrouted
    /// ones as this stage leaves them — all that VA and RC visit.
    fn switch_allocation(
        &mut self,
        k: usize,
        node: NodeId,
        ctx: &RouterCtx<'_>,
        out: &mut Outbox,
        work: &mut NodeWork,
    ) -> (u64, u64) {
        let v = self.num_vcs;
        let b0 = k * self.pv;
        // Stage one: request masks over flattened (in_port, vc), one per
        // output port. A VC requests iff it is routed, holds a downstream
        // VC, is non-empty (the occupancy mask), and has a credit (the
        // Local output sinks ejected flits unconditionally).
        let mut req = [0u64; Port::COUNT];
        let (mut va_mask, mut rc_mask) = (0u64, 0u64);
        let mut m = self.occ_mask[k];
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let idx = b0 + b;
            let (Some(out_port), Some(ovc)) = (self.in_route[idx], self.in_out_vc[idx]) else {
                // Not a requester: VA's if it holds a route, RC's if not.
                let mask = if self.in_route[idx].is_some() {
                    &mut va_mask
                } else {
                    &mut rc_mask
                };
                *mask |= 1 << b;
                continue;
            };
            let has_credit = out_port == Port::Local
                || self.out_credits[b0 + out_port.index() * v + ovc as usize] > 0;
            if has_credit {
                req[out_port.index()] |= 1 << b;
            }
        }
        // Stage two: grant per output port in fixed port order. Granting
        // pops the flit and decrements the credit it consumes, which never
        // changes another output port's request set, so the masks stay
        // valid across the loop with only the used-input clearing.
        let n = self.pv as u32;
        let vc_bits = (1u64 << v) - 1;
        let mut used_inputs = 0u64;
        for out_port in Port::ALL {
            let op = out_port.index();
            let mut reqs = req[op] & !used_inputs;
            // A held output port serves only the holding input VC; if the
            // holder cannot request this cycle (no flit arrived yet, no
            // credit, its input port already granted), the port idles —
            // the modeled head-of-line blocking.
            let hold = self.sw_hold[k * Port::COUNT + op];
            if hold != u32::MAX {
                reqs &= 1 << hold;
            }
            if reqs == 0 {
                continue; // no grant: the round-robin pointer holds
            }
            let win = rr_pick(reqs, self.sw_next[k * Port::COUNT + op]);
            self.sw_next[k * Port::COUNT + op] = (win + 1) % n;
            let b = win as usize;
            let (ip, vc) = (b / v, b % v);
            used_inputs |= vc_bits << (ip * v);
            let in_port = Port::from_index(ip);
            let idx = b0 + b;
            let out_vc = self.in_out_vc[idx].expect("granted VC has out_vc");
            let mut flit = self.pop(k, b).expect("granted VC has a flit");
            let is_tail = flit.is_tail();
            // The grant holds the port for the winner until a release: the
            // tail, or every grant on a fabric that releases after every
            // flit. A single-flit packet's grant is its tail, so the two
            // rules agree byte for byte at length 1.
            let release = is_tail || self.release_every_flit;
            self.sw_hold[k * Port::COUNT + op] = if release { u32::MAX } else { win };
            if is_tail {
                self.release(idx);
                // The one reclassification stage two causes: the next
                // packet's head, if already buffered behind the tail, now
                // fronts an unrouted VC.
                rc_mask |= self.occ_mask[k] & (1 << b);
            }
            work.grants += 1;
            if out_port == Port::Local {
                out.ejected.push(flit);
            } else {
                debug_assert!(
                    ctx.faults.is_none_or(|ls| ls.is_link_up(node, out_port)),
                    "SA forwarded into a dead link (boundary purge missed a route)"
                );
                flit.set_vc(out_vc);
                flit.hops += 1;
                let oidx = b0 + op * v + out_vc as usize;
                debug_assert!(self.out_credits[oidx] > 0, "SA granted without credit");
                self.out_credits[oidx] -= 1;
                if is_tail {
                    self.out_owner[oidx] = Owner::NONE;
                }
                // The sender resolves the receiver and stamps the dateline
                // class, so the commit phase only deposits the flit.
                let to = ctx.neighbors[node.0][op];
                assert!(to != Topology::NO_LINK, "router forwarded off the edge");
                let to = to as usize;
                if crosses_dateline(node.0, to, out_port) {
                    flit.cross_dateline();
                }
                out.deliveries.push(Delivery {
                    to: NodeId(to),
                    in_port: out_port.opposite(),
                    flit,
                });
                work.forwards += 1;
            }
            out.credits.push(CreditReturn {
                at: node,
                in_port,
                vc,
            });
        }
        (va_mask, rc_mask)
    }

    /// VA: head flits holding a route claim a free downstream VC. `m` is
    /// SA's `va_mask`: exactly the VCs that hold a route and no claim.
    /// Returns the allocations made.
    fn vc_allocation(&mut self, k: usize, mut m: u64) -> u8 {
        let v = self.num_vcs;
        let b0 = k * self.pv;
        let mut allocated = 0;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let idx = b0 + b;
            let out_port = self.in_route[idx].expect("va_mask VC is routed");
            let op = out_port.index();
            if out_port == Port::Local {
                // Ejection needs no downstream VC; claim slot 0 nominally.
                self.in_out_vc[idx] = Some(0);
                allocated += 1;
                continue;
            }
            let flit = self.front(idx).expect("awaiting implies flit");
            debug_assert!(flit.is_head(), "VA on a non-head flit");
            let (packet, vc_class) = (flit.packet, flit.vc_class());
            let range = self.allowed_vcs(vc_class);
            let span = range.len();
            let start = (self.va_ptr[k * Port::COUNT + op] as usize) % span.max(1);
            let granted = (0..span)
                .map(|off| range.start + (start + off) % span)
                .find(|&ovc| self.out_owner[b0 + op * v + ovc] == Owner::NONE);
            if let Some(ovc) = granted {
                self.out_owner[b0 + op * v + ovc] = Owner::some(packet);
                self.in_out_vc[idx] = Some(ovc as u8);
                let ptr = &mut self.va_ptr[k * Port::COUNT + op];
                *ptr = ptr.wrapping_add(1);
                allocated += 1;
            }
        }
        allocated
    }

    /// RC: compute output-port candidates for head flits; adaptive
    /// algorithms pick the candidate whose free VCs hold the most credits.
    /// Under an active fault set, dead output links are excluded; a packet
    /// with no live candidate is marked for dropping instead of wedging.
    /// `m` is SA's `rc_mask`: exactly the occupied VCs without a route.
    /// Returns the routes computed.
    fn route_computation(&mut self, k: usize, node: NodeId, ctx: &RouterCtx<'_>, mut m: u64) -> u8 {
        let v = self.num_vcs;
        let b0 = k * self.pv;
        let mut routed = 0;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let idx = b0 + b;
            if self.in_dropping[idx] {
                continue;
            }
            let flit = self.front(idx).expect("occupied VC has a flit");
            debug_assert!(
                flit.is_head(),
                "non-head flit at front of an unrouted VC: flow-control bug"
            );
            let (packet, src, dst, vc_class) =
                (flit.packet, flit.src(), flit.dst(), flit.vc_class());
            let cands = if ctx.routing == RoutingAlgorithm::Table {
                // Table paths are enumerated over live links at build time
                // and rebuilt on every liveness change, so no per-hop
                // fault filter is needed here.
                let tables = ctx
                    .tables
                    .expect("table routing requires prebuilt RoutingTables");
                route_table(tables, ctx.topo, node, src, dst)
            } else {
                match ctx.faults {
                    Some(ls) => route_live(ctx.routing, ctx.topo, ls, node, src, dst),
                    None => route(ctx.routing, ctx.topo, node, src, dst),
                }
            };
            if cands.is_empty() {
                // Every minimal permitted direction is dead: the packet
                // is unroutable. Discard it (drain stage) rather than
                // letting it wedge the network.
                self.in_dropping[idx] = true;
                self.in_owner[idx] = Owner::some(packet);
                continue;
            }
            let chosen = if cands.len() == 1 {
                cands[0]
            } else {
                let range = self.allowed_vcs(vc_class);
                *cands
                    .iter()
                    .max_by_key(|p| {
                        let ob = b0 + p.index() * v;
                        range
                            .clone()
                            .filter(|&ovc| self.out_owner[ob + ovc] == Owner::NONE)
                            .map(|ovc| self.out_credits[ob + ovc] as usize)
                            .sum::<usize>()
                    })
                    .expect("route returned no candidates")
            };
            self.in_route[idx] = Some(chosen);
            self.in_owner[idx] = Owner::some(packet);
            routed += 1;
        }
        routed
    }

    /// Purge condemned packets from local router `k` and clear routes into
    /// dead links.
    ///
    /// * Flits of condemned packets are removed from every input VC;
    ///   `credit(in_port, vc)` is invoked once per removed flit so the
    ///   network can restore the upstream sender's credit.
    /// * Input VCs owned by a condemned packet are released, dropping the
    ///   downstream output-VC claim they held.
    /// * Routes that point into a dead link but have not yet claimed a
    ///   downstream VC are cleared so RC can re-route the packet around
    ///   the fault next cycle.
    ///
    /// Returns the number of flits removed.
    pub fn purge_and_reroute(
        &mut self,
        k: usize,
        condemned: &BTreeSet<PacketId>,
        dead: impl Fn(Port) -> bool,
        mut credit: impl FnMut(Port, usize),
    ) -> u64 {
        let v = self.num_vcs;
        let b0 = k * self.pv;
        let mut removed = 0u64;
        for ip in 0..Port::COUNT {
            let in_port = Port::from_index(ip);
            for vc in 0..v {
                let idx = b0 + ip * v + vc;
                if !condemned.is_empty() {
                    let purged = self.purge(idx, condemned);
                    for _ in 0..purged {
                        credit(in_port, vc);
                    }
                    removed += purged as u64;
                    let owner_condemned =
                        (self.in_owner[idx].get()).is_some_and(|o| condemned.contains(&o));
                    if owner_condemned {
                        let claim = match (self.in_route[idx], self.in_out_vc[idx]) {
                            (Some(route), Some(out_vc)) if route != Port::Local => {
                                Some((route, out_vc as usize))
                            }
                            _ => None,
                        };
                        self.release(idx);
                        if let Some((route, out_vc)) = claim {
                            self.out_owner[b0 + route.index() * v + out_vc] = Owner::NONE;
                        }
                        // The condemned packet may hold an output port
                        // mid-transmission; free it or the port wedges
                        // forever.
                        let b = (ip * v + vc) as u32;
                        for hold in &mut self.sw_hold[k * Port::COUNT..(k + 1) * Port::COUNT] {
                            if *hold == b {
                                *hold = u32::MAX;
                            }
                        }
                    }
                }
                if let Some(route) = self.in_route[idx] {
                    if route != Port::Local && dead(route) && self.in_out_vc[idx].is_none() {
                        // Not yet committed downstream: let RC re-route.
                        self.in_route[idx] = None;
                    }
                }
            }
        }
        self.occ[k] -= removed as u32;
        let mut mask = 0u64;
        for b in 0..self.pv {
            if self.len[b0 + b] != 0 {
                mask |= 1 << b;
            }
        }
        self.occ_mask[k] = mask;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, Packet};
    use proptest::prelude::*;

    /// Grant the way `switch_allocation` does: pick, then advance the
    /// pointer past the winner. `None` when nothing requests (the pointer
    /// holds).
    fn grant(reqs: u64, ptr: &mut u32, n: u32) -> Option<u32> {
        (reqs != 0).then(|| {
            let win = rr_pick(reqs, *ptr);
            *ptr = (win + 1) % n;
            win
        })
    }

    /// The reference the bitmask pick must match: walk the `n` requesters
    /// from the pointer, wrapping, and take the first asserted one.
    fn naive_pick(reqs: u64, ptr: u32, n: u32) -> Option<u32> {
        (0..n)
            .map(|off| (ptr + off) % n)
            .find(|&i| (reqs >> i) & 1 == 1)
    }

    #[test]
    fn grants_only_asserted_requests() {
        let mut ptr = 0;
        assert_eq!(grant(0b0100, &mut ptr, 4), Some(2));
        assert_eq!(grant(0b0000, &mut ptr, 4), None);
        // Exhaustively, for every request set and pointer over up to 8
        // requesters: the winner is asserted and is the naive loop's winner.
        for n in 1..=8u32 {
            for reqs in 1..1u64 << n {
                for ptr in 0..n {
                    let win = rr_pick(reqs, ptr);
                    assert_eq!((reqs >> win) & 1, 1, "n={n} reqs={reqs:#b} ptr={ptr}");
                    assert_eq!(Some(win), naive_pick(reqs, ptr, n));
                }
            }
        }
    }

    #[test]
    fn rotates_priority_after_grant() {
        let mut ptr = 0;
        let wins: Vec<_> = (0..4).map(|_| grant(0b111, &mut ptr, 3)).collect();
        assert_eq!(wins, [Some(0), Some(1), Some(2), Some(0)]);
    }

    #[test]
    fn no_starvation_under_persistent_contention() {
        let mut ptr = 0;
        let mut wins = [0usize; 5];
        for _ in 0..100 {
            wins[grant(0b11111, &mut ptr, 5).unwrap() as usize] += 1;
        }
        assert!(wins.iter().all(|&w| w == 20), "unfair wins: {wins:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Round-robin arbitration is work-conserving (grants whenever any
        /// request is up) and fair (over n consecutive all-up cycles, every
        /// requester wins exactly once), at every width the fabric can
        /// flatten `(port, vc)` into.
        #[test]
        fn arbiter_work_conserving_and_fair(n in 1u32..=64, rounds in 1usize..5) {
            let all = u64::MAX >> (64 - n);
            let mut ptr = 0;
            let mut wins = vec![0usize; n as usize];
            for _ in 0..rounds * n as usize {
                prop_assert_eq!(naive_pick(all, ptr, n), Some(rr_pick(all, ptr)));
                let w = grant(all, &mut ptr, n).expect("requests up => grant");
                wins[w as usize] += 1;
            }
            prop_assert!(wins.iter().all(|&w| w == rounds), "wins {wins:?}");
        }
    }

    /// One router in isolation — a one-router fabric — plus everything a
    /// [`RouterCtx`] borrows: a 4x4 mesh with XY routing, or
    /// ([`Rig::torus`]) a 4x4 torus with dimension-ordered routing.
    struct Rig {
        node: NodeId,
        f: FabricState,
        topo: Topology,
        routing: RoutingAlgorithm,
    }

    impl Rig {
        fn new(node: usize, num_vcs: usize, vc_depth: usize, vc_partition: bool) -> Self {
            Rig {
                node: NodeId(node),
                f: FabricState::new(1, num_vcs, vc_depth, vc_partition),
                topo: Topology::mesh(4, 4),
                routing: RoutingAlgorithm::Xy,
            }
        }

        fn torus(node: usize) -> Self {
            Rig {
                topo: Topology::torus(4, 4),
                routing: RoutingAlgorithm::TorusDor,
                ..Rig::new(node, 2, 4, true)
            }
        }

        fn accept(&mut self, port: Port, flit: Flit) {
            self.f.accept(0, port, flit);
        }

        /// One cycle; returns everything the router put in its outbox and
        /// what it counted.
        fn step(&mut self) -> (Outbox, NodeWork) {
            let mut out = Outbox::default();
            let ctx = RouterCtx {
                topo: &self.topo,
                neighbors: &Topology::neighbor_table(&self.topo),
                routing: self.routing,
                faults: None,
                tables: None,
            };
            let work = self.f.step_node(0, self.node, &ctx, &mut out);
            (out, work)
        }

        /// Send a single-flit packet from this router to `dst` through the
        /// whole pipeline and return the delivery it leaves as.
        fn forward_to(&mut self, dst: usize) -> Delivery {
            self.accept(Port::Local, make_flits(self.node.0, dst, 1).remove(0));
            let mut sent: Vec<_> = (0..3).flat_map(|_| self.step().0.deliveries).collect();
            assert_eq!(sent.len(), 1, "one flit in, one delivery out");
            sent.remove(0)
        }

        fn idx(&self, port: Port, vc: usize) -> usize {
            self.f.idx(0, port, vc)
        }
    }

    fn make_packet(id: u64, src: usize, dst: usize, len: u32) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            len_flits: len,
            created_at: 0,
        }
    }

    fn make_flits(src: usize, dst: usize, len: u32) -> Vec<Flit> {
        make_packet(1, src, dst, len).to_flits(0)
    }

    /// Drive a lone router: inject a packet on the Local port addressed to a
    /// neighbor and check it is forwarded east with pipeline latency 3
    /// (RC, VA, SA on successive cycles).
    #[test]
    fn single_flit_traverses_pipeline_in_three_cycles() {
        let mut r = Rig::new(0, 2, 4, false);
        r.accept(Port::Local, make_flits(0, 1, 1).remove(0));

        // Cycle 1: RC only.
        let (out, _) = r.step();
        assert!(out.deliveries.is_empty() && out.credits.is_empty());
        // Cycle 2: VA.
        let (out, _) = r.step();
        assert!(out.deliveries.is_empty() && out.credits.is_empty());
        // Cycle 3: SA/ST forwards the flit east, to node 1's West port.
        let (out, work) = r.step();
        let d = out.deliveries.first().expect("flit forwarded");
        assert_eq!((d.to, d.in_port), (NodeId(1), Port::West));
        assert_eq!(d.flit.hops, 1);
        assert_eq!((work.grants, work.forwards), (1, 1));
        assert!(out
            .credits
            .iter()
            .any(|c| (c.at, c.in_port, c.vc) == (NodeId(0), Port::Local, 0)));
    }

    #[test]
    fn flit_at_destination_is_ejected() {
        let mut r = Rig::new(5, 2, 4, false);
        let mut flit = make_flits(0, 5, 1).remove(0);
        flit.set_vc(1);
        r.accept(Port::West, flit);
        let mut ejected = false;
        for _ in 0..3 {
            for flit in r.step().0.ejected {
                assert_eq!(flit.dst(), NodeId(5));
                ejected = true;
            }
        }
        assert!(ejected, "flit should eject within 3 cycles");
    }

    #[test]
    fn credits_limit_outstanding_flits() {
        let mut r = Rig::new(0, 1, 2, false);
        // 5-flit packet; downstream buffer depth 2 and no credit returns.
        for f in make_flits(0, 3, 5).into_iter().take(2) {
            r.accept(Port::Local, f);
        }
        let forwarded: usize = (0..10).map(|_| r.step().0.deliveries.len()).sum();
        assert_eq!(
            forwarded, 2,
            "only vc_depth flits may be in flight without credits"
        );
        // Nothing more is buffered, so verify credit accounting instead.
        let east = r.idx(Port::East, 0);
        assert_eq!(r.f.out_credits[east], 0);
        r.f.return_credit(0, Port::East, 0);
        assert_eq!(r.f.out_credits[east], 1);
    }

    #[test]
    fn tail_flit_releases_vc_ownership() {
        let mut r = Rig::new(0, 1, 4, false);
        for f in make_flits(0, 1, 2) {
            r.accept(Port::Local, f);
        }
        let mut tails = 0;
        for _ in 0..8 {
            for d in r.step().0.deliveries {
                if d.flit.kind == FlitKind::Tail {
                    tails += 1;
                }
            }
        }
        assert_eq!(tails, 1);
        // After the tail left, the output VC is free for a new packet.
        assert_eq!(r.f.out_owner[r.idx(Port::East, 0)], Owner::NONE);
        assert!(r.f.in_route[r.idx(Port::Local, 0)].is_none());
    }

    /// The one mask update SA's stage two owes RC: packet B's head sits
    /// behind packet A's tail in one VC, and the cycle that grants the tail
    /// routes the head.
    #[test]
    fn tail_grant_routes_the_head_behind_it_in_the_same_cycle() {
        let mut r = Rig::new(0, 1, 4, false);
        for flit in make_packet(1, 0, 1, 2).to_flits(0) {
            r.accept(Port::Local, flit);
        }
        r.accept(Port::Local, make_packet(2, 0, 1, 2).flit(0, 0));
        for _ in 0..3 {
            r.step(); // RC, VA, then A's head leaves
        }
        let (out, work) = r.step();
        assert_eq!(out.deliveries[0].flit.kind, FlitKind::Tail);
        assert_eq!((work.grants, work.rc), (1, 1));
        let local = r.idx(Port::Local, 0);
        assert_eq!(r.f.in_route[local], Some(Port::East));
        assert_eq!(r.f.in_owner[local].get(), Some(PacketId(2)));
    }

    #[test]
    fn occupancy_tracks_buffered_flits() {
        let mut r = Rig::new(0, 2, 4, false);
        assert_eq!(r.f.occupancy(0), 0);
        for f in make_flits(0, 1, 3) {
            r.accept(Port::Local, f);
        }
        assert_eq!(r.f.occupancy(0), 3);
        assert_eq!(r.f.buffer_capacity(), 5 * 2 * 4);
    }

    /// An input VC is a FIFO across ring wrap-around: eight single-flit
    /// packets through a three-slot ring (a non-power-of-two depth) leave in
    /// arrival order.
    #[test]
    fn ring_is_fifo_across_wrap_around() {
        let mut r = Rig::new(0, 1, 3, false);
        let mut flits = (0..8).map(|id| make_packet(id, 0, 1, 1).flit(0, 0));
        let mut ids = Vec::new();
        for _ in 0..20 {
            // Keep the ring full, as a credit-respecting sender would.
            while r.f.occupancy(0) < 3 {
                let Some(flit) = flits.next() else { break };
                r.accept(Port::Local, flit);
            }
            for d in r.step().0.deliveries {
                ids.push(d.flit.packet.0);
                r.f.return_credit(0, Port::East, 0);
            }
        }
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert_eq!(r.f.occupancy(0), 0);
        let local = r.idx(Port::Local, 0);
        assert!(r.f.pop(0, local).is_none());
    }

    #[test]
    #[should_panic(expected = "flow-control violation")]
    fn ring_overflow_panics() {
        let mut r = Rig::new(0, 1, 3, false);
        r.forward_to(1); // the ring's head is now slot 1
        for flit in make_flits(0, 1, 4) {
            r.accept(Port::Local, flit); // the third wraps, the fourth overflows
        }
    }

    #[test]
    fn purge_removes_only_condemned_packets() {
        let mut r = Rig::new(0, 1, 5, false);
        r.forward_to(1);
        r.forward_to(1); // head at slot 2: the five flits below wrap
        for (id, len) in [(7, 2), (8, 2), (9, 1)] {
            for flit in make_packet(id, 0, 1, len).to_flits(0) {
                r.accept(Port::Local, flit);
            }
        }
        let condemned = BTreeSet::from([PacketId(7), PacketId(9)]);
        let mut credits = Vec::new();
        let credit = |port, vc| credits.push((port, vc));
        let removed = r.f.purge_and_reroute(0, &condemned, |_| false, credit);
        assert_eq!((removed, credits), (3, vec![(Port::Local, 0); 3]));
        let again = r.f.purge_and_reroute(0, &condemned, |_| false, |_, _| ());
        assert_eq!(again, 0);
        assert_eq!(r.f.occupancy(0), 2, "recounted against `len` in debug");
        let left: Vec<_> = (0..4).flat_map(|_| r.step().0.deliveries).collect();
        let left: Vec<_> = left
            .iter()
            .map(|d| (d.flit.packet.0, d.flit.kind))
            .collect();
        let survivor = [(8, FlitKind::Head), (8, FlitKind::Tail)];
        assert_eq!(left, survivor, "the survivor, in order");
    }

    #[test]
    fn vc_partition_restricts_allocation() {
        let mut r = Rig::new(0, 4, 2, true);
        let mut flit = make_flits(0, 1, 1).remove(0);
        flit.cross_dateline();
        r.accept(Port::Local, flit);
        r.step(); // RC
        r.step(); // VA
        let out_vc = r.f.in_out_vc[r.idx(Port::Local, 0)].expect("VC allocated");
        assert!(
            out_vc >= 2,
            "class-1 flit must use the upper VC half, got {out_vc}"
        );
    }

    #[test]
    fn step_consumes_energy() {
        let mut r = Rig::new(0, 2, 4, false);
        r.accept(Port::Local, make_flits(0, 1, 1).remove(0));
        // One stage per cycle: RC, then VA, then SA + link.
        let counts = |w: NodeWork| (w.rc, w.va, w.grants, w.forwards);
        assert_eq!(counts(r.step().1), (1, 0, 0, 0));
        assert_eq!(counts(r.step().1), (0, 1, 0, 0));
        assert_eq!(counts(r.step().1), (0, 0, 1, 1));
    }

    /// The sender resolves the receiver and stamps the dateline class: a
    /// torus hop over a wrap link leaves as class 1 addressed to the far
    /// edge, an interior hop stays class 0, and a mesh never stamps.
    #[test]
    fn sender_stamps_dateline_class_on_wrap_links_only() {
        // The wrap links of a 4x4 torus: East from x = W-1, South from
        // y = H-1, West from x = 0, North from y = 0; then an interior hop.
        for (node, dst, in_port, class) in [
            (3, 0, Port::West, 1),
            (12, 0, Port::North, 1),
            (0, 3, Port::East, 1),
            (0, 12, Port::South, 1),
            (1, 2, Port::West, 0),
        ] {
            let d = Rig::torus(node).forward_to(dst);
            assert_eq!(
                (d.to, d.in_port, d.flit.vc_class()),
                (NodeId(dst), in_port, class)
            );
        }
        // Mesh edge routers have no wrap link to cross.
        for (node, dst, to) in [(3, 2, 2), (3, 7, 7), (12, 8, 8), (12, 13, 13)] {
            let d = Rig::new(node, 2, 4, false).forward_to(dst);
            assert_eq!((d.to, d.flit.vc_class()), (NodeId(to), 0));
        }
    }
}
