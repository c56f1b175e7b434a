//! Packets and flits. A source queue segments its packet one flit at a time
//! ([`Packet::flit`]); wormhole switching moves the flits through the network
//! and the tail flit releases resources behind it. [`Flit`] is the unit the
//! fabric stores and every hop copies, so it is packed into 32 bytes; the
//! bounds that make the narrow fields safe live in `SimConfig::validate`.

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

/// One flow-control unit traversing the network: 32 bytes, and so is
/// `Option<Flit>` through [`FlitKind`]'s niche. A hop loads and stores the
/// flit three times (`pop`, the `Delivery`, `accept`), so its size is what a
/// hop costs in cache lines. Every narrow field is backed by a bound that
/// [`SimConfig::validate`](crate::SimConfig::validate) enforces, and a flit
/// is only ever built by [`Packet::flit`], which checks the conversion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Cycle at which the parent packet was created by the traffic source
    /// (start of queuing delay).
    pub created_at: u64,
    /// Cycle at which the head flit entered the network (left the source
    /// queue); used for network latency.
    pub injected_at: u64,
    /// Source node: `validate` caps the fabric at 65 536 routers.
    src: u16,
    /// Destination node, bounded like `src`.
    dst: u16,
    /// Number of router hops traversed so far. A route never revisits a
    /// router, so it is below the router count.
    pub hops: u16,
    /// Bits 0-6: virtual channel occupied at the current input port
    /// (`validate` caps `num_vcs` at 12). Bit 7: the dateline class.
    vc: u8,
    /// Role within the packet.
    pub kind: FlitKind,
}

const _: () = assert!(std::mem::size_of::<Option<Flit>>() == 32);

/// The most routers a fabric may have: what [`Flit`]'s `u16` node fields can
/// name. `SimConfig::validate` refuses a larger grid.
pub(crate) const MAX_ROUTERS: usize = 1 << u16::BITS;

/// Bit of [`Flit::vc`] that carries the dateline class.
const CLASS_BIT: u8 = 0x80;

impl Flit {
    /// Whether this flit opens its packet.
    pub fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// Whether this flit closes its packet.
    pub fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }

    /// Source node.
    pub fn src(&self) -> NodeId {
        NodeId(usize::from(self.src))
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        NodeId(usize::from(self.dst))
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

/// A packet produced by a traffic source, waiting to be segmented into flits.
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

impl Packet {
    /// The `i`-th flit of the packet (0 is the head), stamped with the cycle
    /// `injected_at` at which the head flit leaves the source queue. Source
    /// queues mint flits one at a time with this; nothing holds a packet's
    /// whole flit sequence.
    ///
    /// # Panics
    /// Panics if `i >= len_flits`, or if an endpoint does not fit the flit's
    /// `u16` node fields (a packet for a fabric `validate` would refuse).
    pub fn flit(&self, i: u32, injected_at: u64) -> Flit {
        assert!(
            i < self.len_flits,
            "flit {i} of a {}-flit packet",
            self.len_flits
        );
        let kind = match (i == 0, i == self.len_flits - 1) {
            (true, true) => FlitKind::Single,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        };
        let node = |n: NodeId| u16::try_from(n.0).expect("node id beyond the 65536-router bound");
        Flit {
            packet: self.id,
            created_at: self.created_at,
            injected_at,
            src: node(self.src),
            dst: node(self.dst),
            hops: 0,
            vc: 0,
            kind,
        }
    }

    /// Segment the packet into its whole flit sequence (see [`Packet::flit`]).
    pub fn to_flits(&self, injected_at: u64) -> Vec<Flit> {
        assert!(self.len_flits >= 1, "packet must contain at least one flit");
        (0..self.len_flits)
            .map(|i| self.flit(i, injected_at))
            .collect()
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

    #[test]
    fn single_flit_packet_is_single_kind() {
        let flits = packet(1).to_flits(12);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::Single);
        assert!(flits[0].is_head() && flits[0].is_tail());
        assert_eq!(flits[0].injected_at, 12);
        assert_eq!(flits[0].created_at, 10);
    }

    #[test]
    fn multi_flit_packet_has_head_body_tail() {
        let flits = packet(5).to_flits(11);
        assert_eq!(flits.len(), 5);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Body);
        assert_eq!(flits[4].kind, FlitKind::Tail);
    }

    #[test]
    fn two_flit_packet_is_head_then_tail() {
        let flits = packet(2).to_flits(0);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    fn vc_and_dateline_class_share_a_byte_without_clobbering() {
        let mut flit = packet(1).flit(0, 0);
        assert_eq!((flit.vc(), flit.vc_class()), (0, 0));
        flit.set_vc(11);
        flit.cross_dateline();
        assert_eq!((flit.vc(), flit.vc_class()), (11, 1));
        flit.set_vc(3);
        assert_eq!((flit.vc(), flit.vc_class()), (3, 1), "class survives a hop");
        assert_eq!((flit.src(), flit.dst()), (NodeId(0), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "65536-router bound")]
    fn endpoint_beyond_the_u16_bound_panics_instead_of_truncating() {
        let mut p = packet(1);
        p.dst = NodeId(65_536);
        let _ = p.flit(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        let _ = packet(0).to_flits(0);
    }
}
