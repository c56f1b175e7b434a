//! Virtual-channel state: input buffers and the upstream view of downstream
//! VC ownership and credits (credit-based flow control).

use crate::flit::{Flit, PacketId};
use std::collections::VecDeque;

/// A FIFO flit buffer of bounded capacity backing one input virtual channel.
#[derive(Debug, Clone, PartialEq)]
pub struct VcBuffer {
    fifo: VecDeque<Flit>,
    capacity: usize,
}

impl VcBuffer {
    /// An empty buffer with room for `capacity` flits.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "VC buffer capacity must be positive");
        VcBuffer {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of buffered flits.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the buffer holds no flits.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.fifo.len() >= self.capacity
    }

    /// Buffer capacity in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The flit at the head of the FIFO, if any.
    pub fn front(&self) -> Option<&Flit> {
        self.fifo.front()
    }

    /// Append a flit.
    ///
    /// # Panics
    /// Panics if the buffer is full — callers must respect credits, so an
    /// overflow indicates a flow-control bug.
    pub fn push(&mut self, flit: Flit) {
        assert!(
            !self.is_full(),
            "VC buffer overflow: flow-control violation"
        );
        self.fifo.push_back(flit);
    }

    /// Remove and return the head flit.
    pub fn pop(&mut self) -> Option<Flit> {
        self.fifo.pop_front()
    }

    /// Iterate over the buffered flits in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &Flit> {
        self.fifo.iter()
    }

    /// Remove every flit of `packet`, in order, returning how many were
    /// removed. Fault handling uses this to purge condemned packets; normal
    /// operation never removes flits out of FIFO order.
    pub fn purge_packet(&mut self, packet: PacketId) -> usize {
        let before = self.fifo.len();
        self.fifo.retain(|f| f.packet != packet);
        before - self.fifo.len()
    }
}

/// The upstream router's bookkeeping for one VC at the downstream input port
/// reached through one of its output ports: who owns it and how many buffer
/// slots remain (credits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputVcState {
    /// Packet currently holding this downstream VC, if any.
    pub owner: Option<PacketId>,
    /// Free downstream buffer slots.
    pub credits: usize,
}

impl OutputVcState {
    /// Initial state: unowned, all `depth` slots free.
    pub fn new(depth: usize) -> Self {
        OutputVcState {
            owner: None,
            credits: depth,
        }
    }

    /// Whether a new packet may claim this VC.
    pub fn is_free(&self) -> bool {
        self.owner.is_none()
    }

    /// Whether a flit may be sent right now (owned or not, needs a credit).
    pub fn has_credit(&self) -> bool {
        self.credits > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, PacketId};
    use crate::topology::NodeId;

    fn flit(seq: u32, kind: FlitKind) -> Flit {
        Flit {
            packet: PacketId(1),
            kind,
            seq,
            src: NodeId(0),
            dst: NodeId(1),
            created_at: 0,
            injected_at: 0,
            vc: 0,
            hops: 0,
            vc_class: 0,
        }
    }

    #[test]
    fn buffer_is_fifo() {
        let mut b = VcBuffer::new(4);
        b.push(flit(0, FlitKind::Head));
        b.push(flit(1, FlitKind::Tail));
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop().unwrap().seq, 0);
        assert_eq!(b.pop().unwrap().seq, 1);
        assert!(b.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "flow-control violation")]
    fn buffer_overflow_panics() {
        let mut b = VcBuffer::new(1);
        b.push(flit(0, FlitKind::Head));
        b.push(flit(1, FlitKind::Tail));
    }

    #[test]
    fn purge_removes_only_the_named_packet() {
        let mut b = VcBuffer::new(4);
        b.push(flit(0, FlitKind::Head));
        b.push(flit(1, FlitKind::Tail));
        let mut other = flit(0, FlitKind::Single);
        other.packet = PacketId(2);
        b.push(other);
        assert_eq!(b.purge_packet(PacketId(1)), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.front().unwrap().packet, PacketId(2));
        assert_eq!(b.purge_packet(PacketId(1)), 0);
    }

    #[test]
    fn output_vc_state_tracks_credits_and_ownership() {
        let mut s = OutputVcState::new(4);
        assert!(s.is_free() && s.has_credit());
        s.owner = Some(PacketId(9));
        assert!(!s.is_free());
        s.credits = 0;
        assert!(!s.has_credit());
    }
}
