//! Packets, their records and flits. [`Network::offer`](crate::Network::offer)
//! files each packet in the network's packet table; its source queue then
//! mints its flits one at a time (`Flit::new`); wormhole switching moves
//! them through the network and the tail flit releases resources behind it.
//! [`Flit`] is the unit the fabric stores and every hop copies, so it is
//! packed into 8 bytes and names its packet's record for everything else;
//! the bounds that make the narrow fields safe live in `SimConfig::validate`.

use crate::topology::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The role a flit plays inside its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head,
    /// Interior flit.
    Body,
    /// Last flit; releases the virtual channels held by the packet.
    Tail,
    /// Single-flit packet (head and tail at once).
    Single,
}

impl FlitKind {
    /// Whether this flit opens a packet (performs route computation and VC
    /// allocation).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit closes a packet (releases the channel).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

/// One flow-control unit traversing the network: 8 bytes, and so is
/// `Option<Flit>` through [`FlitKind`]'s niche. A hop moves the flit three
/// times (`pop`, the `Delivery`, `accept`), so its size is what a hop costs
/// in cache lines. Like a hardware body flit, it carries only what changes
/// per hop or per flit — its VC, class, hop count and role — and names its
/// packet's record in the network's `PacketTable` for the rest: route
/// computation reads the endpoints from there once per head, and the tail's
/// ejection reads the timestamps. A flit is only ever built by
/// `Flit::new`, for a slot the table handed out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flit {
    /// Slot of the packet's record in the network's packet table.
    slot: u32,
    /// Number of router hops traversed so far. A route never revisits a
    /// router, so it is below the router count, which `SimConfig::validate`
    /// caps at `MAX_ROUTERS`.
    pub hops: u16,
    /// Bits 0-6: virtual channel occupied at the current input port
    /// (`validate` caps `num_vcs` at 12). Bit 7: the dateline class.
    vc: u8,
    /// Role within the packet.
    pub kind: FlitKind,
}

const _: () = assert!(std::mem::size_of::<Option<Flit>>() == 8);

/// The most routers a fabric may have: what the packet table's `u16`
/// endpoints and [`Flit::hops`] can count. `SimConfig::validate` refuses a
/// larger grid.
pub(crate) const MAX_ROUTERS: usize = 1 << u16::BITS;

/// Bit of [`Flit::vc`] that carries the dateline class.
const CLASS_BIT: u8 = 0x80;

impl Flit {
    /// The `i`-th flit (0 is the head) of the `len_flits`-flit packet whose
    /// record is `slot`. Source queues mint flits one at a time with this;
    /// nothing holds a packet's whole flit sequence.
    ///
    /// # Panics
    /// Panics if `i >= len_flits`.
    pub(crate) fn new(slot: u32, i: u32, len_flits: u32) -> Flit {
        assert!(i < len_flits, "flit {i} of a {len_flits}-flit packet");
        let kind = match (i == 0, i == len_flits - 1) {
            (true, true) => FlitKind::Single,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        };
        Flit {
            slot,
            hops: 0,
            vc: 0,
            kind,
        }
    }

    /// Slot of the packet's record in the network's packet table.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// Whether this flit opens its packet.
    pub fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// Whether this flit closes its packet.
    pub fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }

    /// Virtual channel currently occupied at the current input port.
    pub fn vc(&self) -> usize {
        usize::from(self.vc & !CLASS_BIT)
    }

    /// Move the flit to virtual channel `vc` of the next input port.
    pub fn set_vc(&mut self, vc: u8) {
        debug_assert!(vc < CLASS_BIT, "VC index collides with the class bit");
        self.vc = (self.vc & CLASS_BIT) | vc;
    }

    /// Virtual-channel class for dateline deadlock avoidance on tori: 0
    /// before crossing a wrap-around link, 1 after. Always 0 on meshes.
    pub fn vc_class(&self) -> u8 {
        u8::from(self.vc & CLASS_BIT != 0)
    }

    /// Raise the dateline class to 1: the flit crossed a wrap-around link.
    pub fn cross_dateline(&mut self) {
        self.vc |= CLASS_BIT;
    }
}

/// A packet produced by a traffic source.
/// [`Network::offer`](crate::Network::offer) files it in the packet table,
/// and from then on the network knows it by its record's slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Number of flits this packet is segmented into (>= 1).
    pub len_flits: u32,
    /// Cycle at which the packet was created by the traffic source.
    pub created_at: u64,
}

/// One record per packet in the network, from
/// [`Network::offer`](crate::Network::offer) to its terminal event, stored as columns so each
/// stage loads only what it reads: route computation the endpoints, VC
/// allocation and the fault purge the ids, the source queue the lengths and
/// `injected`, the tail's ejection the timestamps. A record is freed exactly
/// once — its tail ejected or discarded by the drop drain, its packet
/// condemned by a fault purge, or dropped at a dead router's source queue —
/// and its slot goes on a LIFO free list, so the next packet reuses the
/// most recently touched one.
#[derive(Debug, Default)]
pub(crate) struct PacketTable {
    /// Packet id per slot.
    pub(crate) ids: Vec<PacketId>,
    /// Cycle the traffic source created the packet (start of queuing delay).
    pub(crate) created: Vec<u64>,
    /// Cycle the packet left its source queue (start of network latency),
    /// written when the queue takes it up.
    pub(crate) injected: Vec<u64>,
    /// `[src, dst]` per slot: `validate` caps the fabric at [`MAX_ROUTERS`].
    pub(crate) ends: Vec<[u16; 2]>,
    /// Flits per packet.
    pub(crate) len: Vec<u32>,
    /// Slots of freed records, most recently freed last.
    free: Vec<u32>,
    /// Whether each slot holds a record, for the double-free check.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl PacketTable {
    /// File `p` and return its slot.
    ///
    /// # Panics
    /// Panics if the packet has no flit, or if an endpoint does not fit the
    /// table's `u16` node fields (a packet for a fabric `validate` would
    /// refuse).
    pub(crate) fn alloc(&mut self, p: &Packet) -> u32 {
        assert!(p.len_flits >= 1, "packet must contain at least one flit");
        let node = |n: NodeId| u16::try_from(n.0).expect("node id beyond the 65536-router bound");
        let ends = [node(p.src), node(p.dst)];
        if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            #[cfg(debug_assertions)]
            {
                debug_assert!(!self.live[s], "free list holds live slot {slot}");
                self.live[s] = true;
            }
            (self.ids[s], self.created[s], self.injected[s]) = (p.id, p.created_at, 0);
            (self.ends[s], self.len[s]) = (ends, p.len_flits);
            return slot;
        }
        let slot = u32::try_from(self.ids.len()).expect("more than 2^32 live packets");
        self.ids.push(p.id);
        self.created.push(p.created_at);
        self.injected.push(0);
        self.ends.push(ends);
        self.len.push(p.len_flits);
        #[cfg(debug_assertions)]
        self.live.push(true);
        slot
    }

    /// Free the record in `slot`: its packet reached its terminal event.
    pub(crate) fn free(&mut self, slot: usize) {
        #[cfg(debug_assertions)]
        {
            assert!(self.live[slot], "packet record {slot} freed twice");
            self.live[slot] = false;
        }
        self.free.push(slot as u32);
    }

    /// Records currently held.
    pub(crate) fn live(&self) -> usize {
        self.ids.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: u32) -> Packet {
        Packet {
            id: PacketId(7),
            src: NodeId(0),
            dst: NodeId(3),
            len_flits: len,
            created_at: 10,
        }
    }

    fn flits(len: u32) -> Vec<Flit> {
        (0..len).map(|i| Flit::new(5, i, len)).collect()
    }

    #[test]
    fn single_flit_packet_is_single_kind() {
        let flits = flits(1);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::Single);
        assert!(flits[0].is_head() && flits[0].is_tail());
        assert_eq!((flits[0].slot(), flits[0].hops), (5, 0));
    }

    #[test]
    fn multi_flit_packet_has_head_body_tail() {
        let flits = flits(5);
        assert_eq!(flits.len(), 5);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Body);
        assert_eq!(flits[4].kind, FlitKind::Tail);
    }

    #[test]
    fn two_flit_packet_is_head_then_tail() {
        let flits = flits(2);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    fn vc_and_dateline_class_share_a_byte_without_clobbering() {
        let mut flit = Flit::new(0, 0, 1);
        assert_eq!((flit.vc(), flit.vc_class()), (0, 0));
        flit.set_vc(11);
        flit.cross_dateline();
        assert_eq!((flit.vc(), flit.vc_class()), (11, 1));
        flit.set_vc(3);
        assert_eq!((flit.vc(), flit.vc_class()), (3, 1), "class survives a hop");
        assert_eq!((flit.slot(), flit.kind), (0, FlitKind::Single));
    }

    #[test]
    #[should_panic(expected = "65536-router bound")]
    fn endpoint_beyond_the_u16_bound_panics_instead_of_truncating() {
        let mut p = packet(1);
        p.dst = NodeId(65_536);
        PacketTable::default().alloc(&p);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        PacketTable::default().alloc(&packet(0));
    }

    #[test]
    #[should_panic(expected = "flit 3 of a 3-flit packet")]
    fn flit_beyond_the_tail_panics() {
        Flit::new(0, 3, 3);
    }

    /// A freed slot is the next one handed out (LIFO), with the new packet's
    /// fields; the table grows only when no slot is free.
    #[test]
    fn table_reuses_the_most_recently_freed_slot() {
        let mut table = PacketTable::default();
        let slots: Vec<_> = (0..3).map(|_| table.alloc(&packet(2))).collect();
        assert_eq!((slots, table.live()), (vec![0, 1, 2], 3));
        table.free(0);
        table.free(2);
        let mut p = packet(4);
        (p.id, p.dst, p.created_at) = (PacketId(9), NodeId(6), 40);
        assert_eq!(table.alloc(&p), 2);
        assert_eq!(table.ids[2], PacketId(9));
        assert_eq!(
            (table.ends[2], table.len[2], table.created[2]),
            ([0, 6], 4, 40)
        );
        assert_eq!((table.alloc(&p), table.alloc(&p), table.live()), (0, 3, 4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "freed twice")]
    fn double_free_panics_in_debug_builds() {
        let mut table = PacketTable::default();
        let slot = table.alloc(&packet(1)) as usize;
        table.free(slot);
        table.free(slot);
    }
}
