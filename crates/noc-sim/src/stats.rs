//! Run statistics: latency, throughput, energy, occupancy.
//!
//! All counters are monotone totals; callers take [`StatsSnapshot`]s and diff
//! them to obtain per-epoch or per-measurement-window figures.

use crate::power::EnergyMeter;
use serde::{Deserialize, Serialize};

/// Serde adapter mapping non-finite floats to JSON `null` and back to NaN,
/// so metrics containing NaN (e.g. "no latency samples") survive a JSON
/// round-trip (plain `f64` fields fail to deserialize from `null`).
pub mod serde_nan {
    use serde::{Deserialize, Deserializer, Serializer};

    /// Serialize a possibly non-finite float (`null` when non-finite).
    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_some(v)
        } else {
            s.serialize_none()
        }
    }

    /// Deserialize `null` back to NaN.
    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        Ok(Option::<f64>::deserialize(d)?.unwrap_or(f64::NAN))
    }
}

/// Upper edges (inclusive) of the latency histogram buckets, in cycles.
/// The final bucket is open-ended.
pub const LATENCY_BUCKETS: [u64; 12] = [8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024];

/// Block length (cycles) of the injection-burstiness estimator: offered
/// packets are aggregated per block, and the index of dispersion of the
/// block counts is the burstiness metric. Long enough that bursty sources'
/// temporal correlation inflates block variance, short enough that a
/// control epoch (≥ a few hundred cycles) completes many blocks.
pub const BURST_BLOCK_CYCLES: u64 = 32;

/// Monotone statistics accumulated over a simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsCollector {
    /// Packets offered by the traffic generator (entered a source queue).
    pub offered_packets: u64,
    /// Flits injected into the network (left a source queue).
    pub injected_flits: u64,
    /// Packets fully injected.
    pub injected_packets: u64,
    /// Flits ejected at their destination.
    pub ejected_flits: u64,
    /// Packets fully ejected (tail flit arrived).
    pub ejected_packets: u64,
    /// Flits discarded by fault handling (unroutable packets, flits severed
    /// by a dying link or router, and packets offered at dead sources).
    /// Always zero on a healthy fabric.
    pub dropped_flits: u64,
    /// Packets discarded by fault handling. A dropped packet is terminal:
    /// exactly one of `ejected_packets`/`dropped_packets` accounts for every
    /// packet that leaves the system.
    pub dropped_packets: u64,
    /// Σ over sampled cycles of directed dead links (fault telemetry; the
    /// mean feeds the RL observation).
    pub sum_dead_links: f64,
    /// Σ of per-block offered-packet counts over completed
    /// [`BURST_BLOCK_CYCLES`]-cycle blocks. Block aggregation makes temporal
    /// clumping visible: per-cycle counts of independent on/off sources have
    /// near-Bernoulli marginals, but their autocorrelation inflates the
    /// variance of multi-cycle block counts.
    #[serde(default)]
    pub sum_block_offered: f64,
    /// Σ of squared per-block offered-packet counts (second moment behind
    /// the injection-burstiness metric).
    #[serde(default)]
    pub sum_block_offered_sq: f64,
    /// Completed burstiness blocks.
    #[serde(default)]
    pub completed_blocks: u64,
    /// Packets offered in the current partial block (not yet in the sums).
    #[serde(default)]
    pub block_acc: u64,
    /// Cycles accumulated into the current partial block.
    #[serde(default)]
    pub block_fill: u64,
    /// Cycles spent in each workload phase (index = phase position in the
    /// spec; empty for trace-driven traffic).
    #[serde(default)]
    pub phase_cycles: Vec<u64>,
    /// Packets offered during each workload phase.
    #[serde(default)]
    pub phase_offered_packets: Vec<u64>,
    /// Packets counted toward latency sums (inside the latency window).
    pub latency_samples: u64,
    /// Σ packet latency (creation → tail ejection) over latency samples.
    pub sum_packet_latency: f64,
    /// Σ network latency (injection → tail ejection) over latency samples.
    pub sum_network_latency: f64,
    /// Σ hops of the tail flit over latency samples.
    pub sum_hops: f64,
    /// Max packet latency seen among latency samples.
    pub max_packet_latency: u64,
    /// Histogram of packet latency over latency samples; index `i` counts
    /// latencies `<= LATENCY_BUCKETS[i]`, the last slot counts the rest.
    pub latency_hist: Vec<u64>,
    /// Σ over sampled cycles of total buffered flits (for mean occupancy).
    pub sum_occupancy: f64,
    /// Σ over sampled cycles of buffered flits per region.
    pub sum_region_occupancy: Vec<f64>,
    /// Flits injected per region (sources grouped by region).
    pub region_injected_flits: Vec<u64>,
    /// Σ over sampled cycles of flits waiting in source queues.
    pub sum_backlog: f64,
    /// Cycles sampled (denominator for the occupancy/backlog means).
    pub sampled_cycles: u64,
    /// Energy accumulated by routers and links.
    pub energy: EnergyMeter,
    /// Flits forwarded (link traversals) per node, for utilization maps.
    /// Empty until the first forward is recorded.
    pub node_forwarded: Vec<u64>,
    /// Latency window: only packets with `created_at` in `[start, end)` feed
    /// the latency sums. Defaults to all packets.
    pub window: (u64, u64),
}

impl StatsCollector {
    /// A collector for a network partitioned into `num_regions` regions.
    pub fn new(num_regions: usize) -> Self {
        StatsCollector {
            offered_packets: 0,
            injected_flits: 0,
            injected_packets: 0,
            ejected_flits: 0,
            ejected_packets: 0,
            dropped_flits: 0,
            dropped_packets: 0,
            sum_dead_links: 0.0,
            sum_block_offered: 0.0,
            sum_block_offered_sq: 0.0,
            completed_blocks: 0,
            block_acc: 0,
            block_fill: 0,
            phase_cycles: Vec::new(),
            phase_offered_packets: Vec::new(),
            latency_samples: 0,
            sum_packet_latency: 0.0,
            sum_network_latency: 0.0,
            sum_hops: 0.0,
            max_packet_latency: 0,
            latency_hist: vec![0; LATENCY_BUCKETS.len() + 1],
            sum_occupancy: 0.0,
            sum_region_occupancy: vec![0.0; num_regions],
            region_injected_flits: vec![0; num_regions],
            sum_backlog: 0.0,
            sampled_cycles: 0,
            energy: EnergyMeter::new(),
            node_forwarded: Vec::new(),
            window: (0, u64::MAX),
        }
    }

    /// Record a flit leaving `node` over an inter-router link.
    pub fn record_forward(&mut self, node: usize, num_nodes: usize) {
        if self.node_forwarded.len() < num_nodes {
            self.node_forwarded.resize(num_nodes, 0);
        }
        self.node_forwarded[node] += 1;
    }

    /// Render an ASCII heat map of per-node link utilization for a
    /// `width × height` grid: `.` for idle through `█` for the busiest
    /// router. Returns an empty string if nothing was forwarded.
    pub fn utilization_heatmap(&self, width: usize, height: usize) -> String {
        let max = self.node_forwarded.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return String::new();
        }
        const RAMP: [char; 6] = ['.', '░', '▒', '▓', '█', '█'];
        let mut out = String::new();
        for y in 0..height {
            for x in 0..width {
                let v = self.node_forwarded.get(y * width + x).copied().unwrap_or(0);
                let idx = (v as f64 / max as f64 * (RAMP.len() - 2) as f64).round() as usize;
                out.push(RAMP[idx.min(RAMP.len() - 1)]);
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }

    /// Restrict latency accounting to packets created in `[start, end)`.
    pub fn set_latency_window(&mut self, start: u64, end: u64) {
        self.window = (start, end);
    }

    /// Record a head or body flit ejecting: its packet is not complete yet.
    pub fn record_ejected_flit(&mut self) {
        self.ejected_flits += 1;
    }

    /// Record a packet's tail flit ejecting at `cycle` after `hops` router
    /// hops, which completes the packet; `created_at` and `injected_at` are
    /// its record's. If the packet was created inside the latency window, it
    /// contributes to the latency sums.
    pub fn record_ejection(&mut self, created_at: u64, injected_at: u64, hops: u16, cycle: u64) {
        self.ejected_flits += 1;
        self.ejected_packets += 1;
        let (ws, we) = self.window;
        if created_at < ws || created_at >= we {
            return;
        }
        self.latency_samples += 1;
        let plat = cycle.saturating_sub(created_at);
        let nlat = cycle.saturating_sub(injected_at);
        self.sum_packet_latency += plat as f64;
        self.sum_network_latency += nlat as f64;
        self.sum_hops += hops as f64;
        self.max_packet_latency = self.max_packet_latency.max(plat);
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&b| plat <= b)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_hist[bucket] += 1;
    }

    /// Record one flit leaving a source queue into the network, attributed to
    /// `region`.
    pub fn record_injection(&mut self, region: usize, is_tail: bool) {
        self.injected_flits += 1;
        self.region_injected_flits[region] += 1;
        if is_tail {
            self.injected_packets += 1;
        }
    }

    /// Record a packet being offered by the traffic generator.
    pub fn record_offered(&mut self) {
        self.offered_packets += 1;
    }

    /// Record one cycle of the offered process: `packets` offered this
    /// cycle, attributed to workload phase `phase` (`None` for trace-driven
    /// traffic). Feeds the burstiness block moments and the per-phase
    /// buckets; the simulation driver calls this once per cycle.
    pub fn record_cycle_offered(&mut self, phase: Option<usize>, packets: u64) {
        self.block_acc += packets;
        self.block_fill += 1;
        if self.block_fill == BURST_BLOCK_CYCLES {
            let b = self.block_acc as f64;
            self.sum_block_offered += b;
            self.sum_block_offered_sq += b * b;
            self.completed_blocks += 1;
            self.block_acc = 0;
            self.block_fill = 0;
        }
        if let Some(p) = phase {
            if self.phase_cycles.len() <= p {
                self.phase_cycles.resize(p + 1, 0);
                self.phase_offered_packets.resize(p + 1, 0);
            }
            self.phase_cycles[p] += 1;
            self.phase_offered_packets[p] += packets;
        }
    }

    /// Record one discarded flit of an unroutable packet (fault handling).
    /// The packet itself is counted once, when its tail flit is dropped —
    /// never earlier, so a packet whose drop is cut short by a fault purge
    /// (which counts it instead) cannot be counted twice.
    pub fn record_drop(&mut self, is_tail: bool) {
        self.dropped_flits += 1;
        if is_tail {
            self.dropped_packets += 1;
        }
    }

    /// Record `packets` whole packets with `flits` flits discarded at once:
    /// at their source (dead router, or flits that never entered the
    /// network) or by a fault-boundary purge of condemned packets.
    pub fn record_dropped(&mut self, packets: u64, flits: u64) {
        self.dropped_packets += packets;
        self.dropped_flits += flits;
    }

    /// Sample end-of-cycle occupancy figures plus the current directed
    /// dead-link count.
    pub fn sample_occupancy(
        &mut self,
        total: usize,
        per_region: &[usize],
        backlog: usize,
        dead_links: usize,
    ) {
        debug_assert_eq!(per_region.len(), self.sum_region_occupancy.len());
        self.sum_occupancy += total as f64;
        for (acc, &v) in self.sum_region_occupancy.iter_mut().zip(per_region) {
            *acc += v as f64;
        }
        self.sum_backlog += backlog as f64;
        self.sum_dead_links += dead_links as f64;
        self.sampled_cycles += 1;
    }

    /// Mean packet latency over latency samples (NaN if no samples).
    pub fn avg_packet_latency(&self) -> f64 {
        self.sum_packet_latency / self.latency_samples as f64
    }

    /// Approximate latency percentile from the histogram (`p` in `[0, 1]`),
    /// reported as the upper edge of the containing bucket.
    ///
    /// When the percentile lands in the open-ended overflow bucket (past
    /// `LATENCY_BUCKETS`' last edge), the histogram has no upper bound to
    /// report and the function returns the sentinel `u64::MAX`. Callers
    /// rendering for humans should use
    /// [`StatsCollector::latency_percentile_display`], which formats the
    /// sentinel as a saturated `> <last-bucket>` figure instead of leaking
    /// `18446744073709551615` into reports.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let total: u64 = self.latency_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.latency_hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return LATENCY_BUCKETS.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Human-readable form of [`StatsCollector::latency_percentile`]: the
    /// bucket edge in cycles, or `"> <last-bucket>"` when the percentile
    /// overflows the histogram (the numeric API's `u64::MAX` sentinel).
    pub fn latency_percentile_display(&self, p: f64) -> String {
        match self.latency_percentile(p) {
            u64::MAX => format!("> {}", LATENCY_BUCKETS[LATENCY_BUCKETS.len() - 1]),
            v => v.to_string(),
        }
    }

    /// Take a snapshot of all monotone counters for later diffing.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot(Box::new(self.clone()))
    }
}

/// A frozen copy of the collector, used to compute per-window deltas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot(Box<StatsCollector>);

/// Metrics of a simulation window (epoch or measurement phase), produced by
/// diffing two snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowMetrics {
    /// Window length in cycles.
    pub cycles: u64,
    /// Packets offered by the traffic generator during the window.
    #[serde(default)]
    pub offered_packets: u64,
    /// Index of dispersion (variance / mean) of offered packets aggregated
    /// over [`BURST_BLOCK_CYCLES`]-cycle blocks: ≈1 for memoryless Bernoulli
    /// traffic, well above 1 when arrivals clump (bursty/pulsed workloads),
    /// 0 when nothing was offered. The load-independent burstiness
    /// observable the RL state encoder exposes. Blocks straddling a window
    /// boundary count toward the window in which they complete.
    #[serde(default)]
    pub injection_burstiness: f64,
    /// Cycles spent in each workload phase during the window (index = phase
    /// position in the spec; empty for trace-driven traffic).
    #[serde(default)]
    pub phase_cycles: Vec<u64>,
    /// Packets offered during each workload phase during the window.
    #[serde(default)]
    pub phase_offered_packets: Vec<u64>,
    /// Flits injected during the window.
    pub injected_flits: u64,
    /// Packets fully injected (tail flit left its source queue) during the
    /// window. With variable packet lengths this is the exact packet count;
    /// dividing `injected_flits` by a nominal length is not.
    #[serde(default)]
    pub injected_packets: u64,
    /// Flits ejected during the window.
    pub ejected_flits: u64,
    /// Packets ejected during the window.
    pub ejected_packets: u64,
    /// Flits discarded by fault handling during the window.
    pub dropped_flits: u64,
    /// Packets discarded by fault handling during the window.
    pub dropped_packets: u64,
    /// Mean directed dead links per sampled cycle (0 on a healthy fabric).
    pub avg_dead_links: f64,
    /// Latency samples completing during the window.
    pub latency_samples: u64,
    /// Mean packet latency (creation → ejection) among samples; NaN if none.
    #[serde(with = "serde_nan")]
    pub avg_packet_latency: f64,
    /// Mean network latency (injection → ejection) among samples; NaN if none.
    #[serde(with = "serde_nan")]
    pub avg_network_latency: f64,
    /// Mean hop count among samples; NaN if none.
    #[serde(with = "serde_nan")]
    pub avg_hops: f64,
    /// Accepted throughput in flits per node per cycle.
    pub throughput: f64,
    /// Offered load actually injected, flits per node per cycle.
    pub injection_rate: f64,
    /// Total energy spent during the window (pJ).
    pub energy_pj: f64,
    /// Dynamic component of `energy_pj`.
    pub dynamic_pj: f64,
    /// Leakage component of `energy_pj`.
    pub leakage_pj: f64,
    /// Mean buffered flits per cycle network-wide.
    pub avg_occupancy: f64,
    /// Mean buffered flits per cycle per region.
    pub region_occupancy: Vec<f64>,
    /// Flits injected per region during the window.
    pub region_injected_flits: Vec<u64>,
    /// Mean flits waiting in source queues per cycle.
    pub avg_backlog: f64,
}

impl WindowMetrics {
    /// Diff two snapshots taken `cycles` apart on a network of `num_nodes`.
    ///
    /// # Panics
    /// Panics (debug builds) if the snapshots are out of order.
    pub fn between(
        earlier: &StatsSnapshot,
        later: &StatsSnapshot,
        num_nodes: usize,
    ) -> WindowMetrics {
        let (a, b) = (&earlier.0, &later.0);
        debug_assert!(
            b.sampled_cycles >= a.sampled_cycles,
            "snapshots out of order"
        );
        let cycles = b.sampled_cycles - a.sampled_cycles;
        let denom_cycles = cycles.max(1) as f64;
        let samples = b.latency_samples - a.latency_samples;
        let energy = b.energy.since(&a.energy);
        let injected = b.injected_flits - a.injected_flits;
        let ejected = b.ejected_flits - a.ejected_flits;
        let offered = b.offered_packets - a.offered_packets;
        // Burstiness: index of dispersion of per-block offered counts over
        // the window's completed blocks.
        let blocks = b.completed_blocks - a.completed_blocks;
        let bsum = b.sum_block_offered - a.sum_block_offered;
        let burstiness = if blocks > 0 && bsum > 0.0 {
            let mean = bsum / blocks as f64;
            let ex2 = (b.sum_block_offered_sq - a.sum_block_offered_sq) / blocks as f64;
            (ex2 - mean * mean).max(0.0) / mean
        } else {
            0.0
        };
        // Phase buckets grow on demand, so the later snapshot's vectors may
        // be longer; missing earlier entries diff against zero.
        let diff_grown = |bv: &[u64], av: &[u64]| -> Vec<u64> {
            bv.iter()
                .enumerate()
                .map(|(i, &x)| x - av.get(i).copied().unwrap_or(0))
                .collect()
        };
        WindowMetrics {
            cycles,
            offered_packets: offered,
            injection_burstiness: burstiness,
            phase_cycles: diff_grown(&b.phase_cycles, &a.phase_cycles),
            phase_offered_packets: diff_grown(&b.phase_offered_packets, &a.phase_offered_packets),
            injected_flits: injected,
            injected_packets: b.injected_packets - a.injected_packets,
            ejected_flits: ejected,
            ejected_packets: b.ejected_packets - a.ejected_packets,
            dropped_flits: b.dropped_flits - a.dropped_flits,
            dropped_packets: b.dropped_packets - a.dropped_packets,
            avg_dead_links: (b.sum_dead_links - a.sum_dead_links) / denom_cycles,
            latency_samples: samples,
            avg_packet_latency: (b.sum_packet_latency - a.sum_packet_latency) / samples as f64,
            avg_network_latency: (b.sum_network_latency - a.sum_network_latency) / samples as f64,
            avg_hops: (b.sum_hops - a.sum_hops) / samples as f64,
            throughput: ejected as f64 / (denom_cycles * num_nodes as f64),
            injection_rate: injected as f64 / (denom_cycles * num_nodes as f64),
            energy_pj: energy.total_pj(),
            dynamic_pj: energy.dynamic_pj(),
            leakage_pj: energy.leakage_pj(),
            avg_occupancy: (b.sum_occupancy - a.sum_occupancy) / denom_cycles,
            region_occupancy: b
                .sum_region_occupancy
                .iter()
                .zip(&a.sum_region_occupancy)
                .map(|(lb, la)| (lb - la) / denom_cycles)
                .collect(),
            region_injected_flits: b
                .region_injected_flits
                .iter()
                .zip(&a.region_injected_flits)
                .map(|(lb, la)| lb - la)
                .collect(),
            avg_backlog: (b.sum_backlog - a.sum_backlog) / denom_cycles,
        }
    }

    /// Energy-delay product: window energy (pJ) × mean packet latency
    /// (cycles). The figure of merit the paper optimizes.
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.avg_packet_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejection_counts_and_latency() {
        let mut s = StatsCollector::new(1);
        s.record_ejection(0, 5, 3, 20);
        assert_eq!(s.ejected_packets, 1);
        assert_eq!(s.latency_samples, 1);
        assert_eq!(s.sum_packet_latency, 20.0);
        assert_eq!(s.sum_network_latency, 15.0);
        assert_eq!(s.max_packet_latency, 20);
    }

    #[test]
    fn body_flits_do_not_complete_packets() {
        let mut s = StatsCollector::new(1);
        s.record_ejected_flit();
        assert_eq!(s.ejected_flits, 1);
        assert_eq!(s.ejected_packets, 0);
    }

    #[test]
    fn latency_window_filters_samples() {
        let mut s = StatsCollector::new(1);
        s.set_latency_window(100, 200);
        s.record_ejection(50, 55, 2, 90); // before window
        s.record_ejection(150, 155, 2, 190); // inside
        s.record_ejection(250, 255, 2, 290); // after
        assert_eq!(s.ejected_packets, 3);
        assert_eq!(s.latency_samples, 1);
        assert_eq!(s.sum_packet_latency, 40.0);
    }

    #[test]
    fn histogram_buckets_latencies() {
        let mut s = StatsCollector::new(1);
        s.record_ejection(0, 0, 1, 5); // bucket 0 (<=8)
        s.record_ejection(0, 0, 1, 100); // <=128 bucket
        s.record_ejection(0, 0, 1, 5000); // overflow bucket
        assert_eq!(s.latency_hist[0], 1);
        assert_eq!(s.latency_hist[7], 1);
        assert_eq!(*s.latency_hist.last().unwrap(), 1);
        assert_eq!(s.latency_percentile(0.30), 8);
        assert_eq!(s.latency_percentile(0.60), 128);
        // Percentiles past the last bucket return the documented numeric
        // sentinel; the display form renders it saturated instead.
        assert_eq!(s.latency_percentile(1.0), u64::MAX);
        assert_eq!(s.latency_percentile_display(1.0), "> 1024");
        assert_eq!(s.latency_percentile_display(0.30), "8");
        let empty = StatsCollector::new(1);
        assert_eq!(empty.latency_percentile_display(0.95), "0");
    }

    #[test]
    fn window_metrics_diff_snapshots() {
        let mut s = StatsCollector::new(2);
        s.record_injection(0, false);
        s.record_injection(0, true);
        s.sample_occupancy(4, &[3, 1], 2, 0);
        let a = s.snapshot();
        for _ in 0..3 {
            s.record_injection(1, true);
        }
        s.record_ejection(0, 2, 4, 10);
        s.sample_occupancy(6, &[2, 4], 0, 0);
        s.sample_occupancy(2, &[1, 1], 0, 0);
        let b = s.snapshot();
        let w = WindowMetrics::between(&a, &b, 16);
        assert_eq!(w.cycles, 2);
        assert_eq!(w.injected_flits, 3);
        assert_eq!(w.injected_packets, 3);
        assert_eq!(w.ejected_flits, 1);
        assert_eq!(w.latency_samples, 1);
        assert_eq!(w.avg_packet_latency, 10.0);
        assert_eq!(w.avg_hops, 4.0);
        assert!((w.avg_occupancy - 4.0).abs() < 1e-12);
        assert_eq!(w.region_injected_flits, vec![0, 3]);
        assert!((w.region_occupancy[1] - 2.5).abs() < 1e-12);
        assert!((w.throughput - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn forward_counts_build_a_heatmap() {
        let mut s = StatsCollector::new(1);
        assert_eq!(s.utilization_heatmap(2, 2), "");
        for _ in 0..10 {
            s.record_forward(0, 4);
        }
        s.record_forward(3, 4);
        let map = s.utilization_heatmap(2, 2);
        assert_eq!(map.lines().count(), 2);
        assert!(map.starts_with('█'), "busiest node renders solid: {map}");
        assert!(map.contains('.'), "idle nodes render dots");
        assert_eq!(s.node_forwarded, vec![10, 0, 0, 1]);
    }

    #[test]
    fn window_metrics_with_nan_roundtrip_json() {
        let mut s = StatsCollector::new(1);
        let a = s.snapshot();
        s.sample_occupancy(0, &[0], 0, 0);
        let b = s.snapshot();
        // No latency samples: avg fields are NaN.
        let w = WindowMetrics::between(&a, &b, 4);
        assert!(w.avg_packet_latency.is_nan());
        let json = serde_json::to_string(&w).unwrap();
        let back: WindowMetrics = serde_json::from_str(&json).unwrap();
        assert!(back.avg_packet_latency.is_nan());
        assert!(back.avg_hops.is_nan());
        assert_eq!(back.cycles, w.cycles);
    }

    #[test]
    fn offered_cycles_feed_burstiness_and_phase_buckets() {
        let block = BURST_BLOCK_CYCLES;
        let mut s = StatsCollector::new(1);
        let a = s.snapshot();
        // Constant offering: one packet every cycle for two full blocks.
        // Every block count equals `block`, so dispersion is zero.
        for _ in 0..2 * block {
            s.record_offered();
            s.record_cycle_offered(Some(0), 1);
            s.sample_occupancy(0, &[0], 0, 0);
        }
        let b = s.snapshot();
        let w = WindowMetrics::between(&a, &b, 4);
        assert_eq!(w.offered_packets, 2 * block);
        assert_eq!(w.injection_burstiness, 0.0);
        assert_eq!(w.phase_cycles, vec![2 * block]);
        assert_eq!(w.phase_offered_packets, vec![2 * block]);

        // Clumped offering in a later phase: all 2·block packets land in the
        // first block, the second is silent. Block counts {2·block, 0}:
        // mean = block, variance = block² → dispersion = block.
        for i in 0..2 * block {
            let n = if i == 0 { 2 * block } else { 0 };
            for _ in 0..n {
                s.record_offered();
            }
            s.record_cycle_offered(Some(1), n);
            s.sample_occupancy(0, &[0], 0, 0);
        }
        let c = s.snapshot();
        let w = WindowMetrics::between(&b, &c, 4);
        assert_eq!(w.offered_packets, 2 * block);
        assert!((w.injection_burstiness - block as f64).abs() < 1e-9);
        // The phase-1 bucket appeared after the earlier snapshot; it diffs
        // against zero.
        assert_eq!(w.phase_cycles, vec![0, 2 * block]);
        assert_eq!(w.phase_offered_packets, vec![0, 2 * block]);

        // No offering recorded: burstiness reads zero, not NaN.
        let d = s.snapshot();
        let w = WindowMetrics::between(&c, &d, 4);
        assert_eq!(w.injection_burstiness, 0.0);
        assert_eq!(w.offered_packets, 0);
    }

    /// The `u64::MAX` sentinel of `latency_percentile` never leaks into any
    /// rendered figure: a histogram whose tail mass sits in the open-ended
    /// overflow bucket formats as a saturated `> <edge>` display at every
    /// percentile, raw digits never.
    #[test]
    fn latency_percentile_sentinel_never_renders_raw() {
        let mut s = StatsCollector::new(4);
        // Push the whole latency mass into the overflow bucket.
        let overflow = s.latency_hist.len() - 1;
        s.latency_hist[overflow] = 100;
        s.latency_samples = 100;
        for p in [0.5, 0.95, 0.99, 1.0] {
            let shown = s.latency_percentile_display(p);
            assert!(
                !shown.contains("18446744073709551615"),
                "p{p} leaked the raw u64::MAX sentinel: {shown}"
            );
            assert!(
                shown.starts_with("> "),
                "overflowed percentile must render saturated, got: {shown}"
            );
        }
        assert_eq!(
            s.latency_percentile(0.95),
            u64::MAX,
            "numeric API keeps the sentinel"
        );
    }

    #[test]
    fn edp_multiplies_energy_and_latency() {
        let mut s = StatsCollector::new(1);
        let a = s.snapshot();
        s.record_ejection(0, 0, 1, 10);
        s.sample_occupancy(0, &[0], 0, 0);
        let b = s.snapshot();
        let w = WindowMetrics::between(&a, &b, 4);
        assert_eq!(w.edp(), w.energy_pj * 10.0);
    }
}
