//! Trace-driven traffic: replay an explicit packet schedule instead of a
//! stochastic pattern.
//!
//! The closest stand-in for application traces (see DESIGN.md substitution
//! 1): a [`PacketTrace`] is an ordered list of `(cycle, src, dst, len)`
//! events, optionally repeating, loaded from a simple CSV format
//! (`cycle,src,dst,len` per line, `#` comments allowed).

use crate::error::{SimError, SimResult};
use crate::topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// One packet creation event in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Cycle (within the trace period) at which the packet is created.
    pub cycle: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packet length in flits.
    pub len_flits: u32,
}

/// An explicit packet schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketTrace {
    /// Events sorted by cycle.
    events: Vec<TraceEvent>,
    /// Repeat period in cycles. `None` plays the trace once; `Some(p)`
    /// replays it every `p` cycles (`p` must cover the last event).
    pub repeat_every: Option<u64>,
}

impl PacketTrace {
    /// Build a trace from events (sorted internally by cycle).
    ///
    /// # Errors
    /// Returns an error if any event is degenerate (`src == dst`, zero
    /// length) or the repeat period does not cover the last event.
    pub fn new(mut events: Vec<TraceEvent>, repeat_every: Option<u64>) -> SimResult<Self> {
        for e in &events {
            if e.src == e.dst {
                return Err(SimError::InvalidTrace(format!(
                    "self-addressed packet at cycle {}",
                    e.cycle
                )));
            }
            if e.len_flits == 0 {
                return Err(SimError::InvalidTrace(format!(
                    "zero-length packet at cycle {}",
                    e.cycle
                )));
            }
        }
        events.sort_by_key(|e| e.cycle);
        if let (Some(p), Some(last)) = (repeat_every, events.last()) {
            if p <= last.cycle {
                return Err(SimError::InvalidTrace(format!(
                    "repeat period {p} does not cover the last event at cycle {}",
                    last.cycle
                )));
            }
        }
        Ok(PacketTrace {
            events,
            repeat_every,
        })
    }

    /// The events, sorted by cycle.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events per period.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check all nodes are inside the topology.
    ///
    /// # Errors
    /// Returns the first out-of-range node.
    pub fn validate(&self, topo: &Topology) -> SimResult<()> {
        let n = topo.num_nodes();
        for e in &self.events {
            for node in [e.src, e.dst] {
                if node.0 >= n {
                    return Err(SimError::NodeOutOfRange {
                        node: node.0,
                        nodes: n,
                    });
                }
            }
        }
        Ok(())
    }

    /// The events scheduled at absolute cycle `t`, honoring the repeat
    /// period.
    pub fn events_at(&self, t: u64) -> &[TraceEvent] {
        let cycle = match self.repeat_every {
            Some(p) => t % p,
            None => t,
        };
        if self.repeat_every.is_none() && t != cycle {
            return &[];
        }
        let start = self.events.partition_point(|e| e.cycle < cycle);
        let end = self.events.partition_point(|e| e.cycle <= cycle);
        &self.events[start..end]
    }

    /// Parse the CSV format: one `cycle,src,dst,len` per line; blank lines
    /// and lines starting with `#` are skipped.
    ///
    /// # Errors
    /// Returns an error describing the first malformed line.
    pub fn from_csv(text: &str, repeat_every: Option<u64>) -> SimResult<Self> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != 4 {
                return Err(SimError::InvalidTrace(format!(
                    "line {}: expected `cycle,src,dst,len`, got `{line}`",
                    lineno + 1
                )));
            }
            let parse = |s: &str, what: &str| {
                s.parse::<u64>().map_err(|e| {
                    SimError::InvalidTrace(format!("line {}: bad {what}: {e}", lineno + 1))
                })
            };
            events.push(TraceEvent {
                cycle: parse(fields[0], "cycle")?,
                src: NodeId(parse(fields[1], "src")? as usize),
                dst: NodeId(parse(fields[2], "dst")? as usize),
                len_flits: parse(fields[3], "len")? as u32,
            });
        }
        PacketTrace::new(events, repeat_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, src: usize, dst: usize) -> TraceEvent {
        TraceEvent {
            cycle,
            src: NodeId(src),
            dst: NodeId(dst),
            len_flits: 2,
        }
    }

    #[test]
    fn events_are_sorted_and_queryable() {
        let t = PacketTrace::new(vec![ev(5, 0, 1), ev(2, 1, 2), ev(5, 2, 3)], None).unwrap();
        assert_eq!(t.events()[0].cycle, 2);
        assert_eq!(t.events_at(2).len(), 1);
        assert_eq!(t.events_at(5).len(), 2);
        assert!(t.events_at(3).is_empty());
        assert!(t.events_at(100).is_empty(), "non-repeating trace ends");
    }

    #[test]
    fn repeating_trace_wraps() {
        let t = PacketTrace::new(vec![ev(1, 0, 1)], Some(10)).unwrap();
        assert_eq!(t.events_at(1).len(), 1);
        assert_eq!(t.events_at(11).len(), 1);
        assert_eq!(t.events_at(21).len(), 1);
        assert!(t.events_at(12).is_empty());
    }

    #[test]
    fn degenerate_events_rejected() {
        assert!(PacketTrace::new(vec![ev(0, 1, 1)], None).is_err());
        let mut bad = ev(0, 0, 1);
        bad.len_flits = 0;
        assert!(PacketTrace::new(vec![bad], None).is_err());
        // Period shorter than the trace.
        assert!(PacketTrace::new(vec![ev(9, 0, 1)], Some(5)).is_err());
    }

    #[test]
    fn validate_checks_topology_bounds() {
        let topo = Topology::mesh(2, 2);
        let ok = PacketTrace::new(vec![ev(0, 0, 3)], None).unwrap();
        assert!(ok.validate(&topo).is_ok());
        let bad = PacketTrace::new(vec![ev(0, 0, 4)], None).unwrap();
        assert!(bad.validate(&topo).is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let t = PacketTrace::new(vec![ev(0, 0, 1), ev(3, 2, 0), ev(7, 1, 3)], Some(20)).unwrap();
        let csv = "# cycle,src,dst,len\n0,0,1,2\n3,2,0,2\n7,1,3,2\n";
        let back = PacketTrace::from_csv(csv, Some(20)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn csv_parsing_is_strict_but_tolerant_of_comments() {
        let text = "# header\n\n0, 0, 1, 2\n5,3,2,1\n";
        let t = PacketTrace::from_csv(text, None).unwrap();
        assert_eq!(t.len(), 2);
        assert!(
            PacketTrace::from_csv("0,0,1", None).is_err(),
            "missing field"
        );
        assert!(
            PacketTrace::from_csv("x,0,1,2", None).is_err(),
            "bad number"
        );
    }

    #[test]
    fn csv_skips_comments_and_blank_lines_anywhere() {
        let text =
            "# leading comment\n\n0,0,1,2\n\n   \n# interior comment\n5,3,2,1\n\n# trailing\n";
        let t = PacketTrace::from_csv(text, None).unwrap();
        assert_eq!(t.len(), 2);
        // A comment marker after leading whitespace still comments the line.
        let t = PacketTrace::from_csv("   # indented comment\n0,0,1,2\n", None).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn csv_tolerates_trailing_and_interior_whitespace() {
        let text = "0 , 0 , 1 , 2   \r\n5,3,2,1\t\n";
        let t = PacketTrace::from_csv(text, None).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].len_flits, 2);
        assert_eq!(t.events()[1].cycle, 5);
    }

    #[test]
    fn csv_unsorted_events_are_sorted_on_load() {
        let text = "9,0,1,2\n0,1,2,3\n4,2,3,1\n";
        let t = PacketTrace::from_csv(text, None).unwrap();
        let cycles: Vec<u64> = t.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 4, 9], "events sort by cycle on load");
        // Querying by cycle works after the sort.
        assert_eq!(t.events_at(4).len(), 1);
    }
}
