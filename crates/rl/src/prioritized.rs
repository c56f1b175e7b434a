//! Prioritized experience replay (Schaul et al., 2016) backed by a sum tree.
//!
//! Transitions are sampled with probability proportional to `priorityᵅ`;
//! importance-sampling weights `(N·P(i))⁻ᵝ / max_w` correct the induced bias.

use crate::replay::Transition;
use rand::rngs::StdRng;
use rand::Rng;

/// A binary sum tree over `capacity` leaves supporting O(log n) priority
/// updates and prefix-sum sampling.
#[derive(Debug, Clone)]
pub struct SumTree {
    /// Heap-layout tree; leaves occupy `[capacity-1, 2*capacity-1)`.
    nodes: Vec<f64>,
    capacity: usize,
}

impl SumTree {
    /// A tree with all priorities zero.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sum tree capacity must be positive");
        SumTree {
            nodes: vec![0.0; 2 * capacity - 1],
            capacity,
        }
    }

    /// Number of leaves.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total priority mass.
    pub fn total(&self) -> f64 {
        self.nodes[0]
    }

    /// Priority of leaf `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.nodes[self.capacity - 1 + i]
    }

    /// Set leaf `i` to `priority`, updating ancestors.
    ///
    /// # Panics
    /// Panics if `i >= capacity` or the priority is negative/non-finite.
    pub fn set(&mut self, i: usize, priority: f64) {
        assert!(i < self.capacity, "leaf index out of range");
        assert!(
            priority.is_finite() && priority >= 0.0,
            "priority must be non-negative"
        );
        let mut idx = self.capacity - 1 + i;
        let delta = priority - self.nodes[idx];
        self.nodes[idx] = priority;
        while idx > 0 {
            idx = (idx - 1) / 2;
            self.nodes[idx] += delta;
        }
    }

    /// Find the leaf whose cumulative-priority interval contains `mass`
    /// (`0 <= mass < total`).
    pub fn find(&self, mass: f64) -> usize {
        let mut idx = 0usize;
        let mut mass = mass.clamp(0.0, self.total().max(0.0));
        while idx < self.capacity - 1 {
            let left = 2 * idx + 1;
            if mass <= self.nodes[left] || self.nodes[left + 1] <= 0.0 {
                idx = left;
            } else {
                mass -= self.nodes[left];
                idx = left + 1;
            }
        }
        idx - (self.capacity - 1)
    }
}

/// A sampled batch with importance-sampling corrections.
#[derive(Debug, Clone)]
pub struct PrioritizedBatch {
    /// Buffer slots of the sampled transitions (pass back to
    /// [`PrioritizedReplay::update_priorities`]).
    pub indices: Vec<usize>,
    /// Normalized importance-sampling weights in `(0, 1]`.
    pub weights: Vec<f32>,
}

/// Prioritized replay buffer.
#[derive(Debug, Clone)]
pub struct PrioritizedReplay {
    data: Vec<Transition>,
    tree: SumTree,
    capacity: usize,
    next: usize,
    alpha: f64,
    max_priority: f64,
}

impl PrioritizedReplay {
    /// A buffer with priority exponent `alpha` (0 = uniform, 1 = fully
    /// proportional).
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `alpha` is outside `[0, 1]`.
    pub fn new(capacity: usize, alpha: f64) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        assert!((0.0..=1.0).contains(&alpha), "alpha must lie in [0, 1]");
        PrioritizedReplay {
            data: Vec::new(),
            tree: SumTree::new(capacity),
            capacity,
            next: 0,
            alpha,
            max_priority: 1.0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Store a transition with maximal priority (so new experiences are
    /// replayed at least once soon). Returns the slot it was written to.
    pub fn push(&mut self, t: Transition) -> usize {
        let idx = if self.data.len() < self.capacity {
            self.data.push(t);
            self.data.len() - 1
        } else {
            self.data[self.next] = t;
            self.next
        };
        self.next = (self.next + 1) % self.capacity;
        self.tree.set(idx, self.max_priority.powf(self.alpha));
        idx
    }

    /// Access a transition by buffer slot.
    pub fn get(&self, i: usize) -> &Transition {
        &self.data[i]
    }

    /// Sample `batch` slots proportionally to priority; `beta` is the
    /// importance-sampling exponent (anneal 0.4 → 1.0 over training).
    ///
    /// # Panics
    /// Panics if the buffer is empty.
    pub fn sample(&self, batch: usize, beta: f64, rng: &mut StdRng) -> PrioritizedBatch {
        assert!(
            !self.data.is_empty(),
            "cannot sample from an empty replay buffer"
        );
        let total = self.tree.total();
        let n = self.data.len() as f64;
        let mut indices = Vec::with_capacity(batch);
        let mut weights = Vec::with_capacity(batch);
        let mut max_w = 0.0f64;
        for _ in 0..batch {
            let mass = rng.gen::<f64>() * total;
            let mut idx = self.tree.find(mass);
            if idx >= self.data.len() {
                // Can only happen transiently before the buffer fills.
                idx = rng.gen_range(0..self.data.len());
            }
            let p = (self.tree.get(idx) / total).max(1e-12);
            let w = (n * p).powf(-beta);
            max_w = max_w.max(w);
            indices.push(idx);
            weights.push(w);
        }
        let weights = weights.into_iter().map(|w| (w / max_w) as f32).collect();
        PrioritizedBatch { indices, weights }
    }

    /// Update priorities after a training step from the new TD errors.
    ///
    /// # Panics
    /// Panics if lengths differ or an index is stale (out of range).
    pub fn update_priorities(&mut self, indices: &[usize], td_errors: &[f32]) {
        assert_eq!(
            indices.len(),
            td_errors.len(),
            "index/error length mismatch"
        );
        for (&i, &e) in indices.iter().zip(td_errors) {
            let p = (e.abs() as f64 + 1e-6).min(1e3);
            self.max_priority = self.max_priority.max(p);
            self.tree.set(i, p.powf(self.alpha));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(reward: f32) -> Transition {
        Transition {
            state: vec![0.0],
            action: 0,
            reward,
            next_state: vec![0.0],
            done: false,
        }
    }

    #[test]
    fn sum_tree_total_tracks_leaves() {
        let mut s = SumTree::new(4);
        s.set(0, 1.0);
        s.set(1, 2.0);
        s.set(2, 3.0);
        assert!((s.total() - 6.0).abs() < 1e-12);
        s.set(1, 0.5);
        assert!((s.total() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn sum_tree_find_respects_intervals() {
        let mut s = SumTree::new(4);
        s.set(0, 1.0);
        s.set(1, 2.0);
        s.set(2, 3.0);
        s.set(3, 4.0);
        assert_eq!(s.find(0.5), 0);
        assert_eq!(s.find(1.5), 1);
        assert_eq!(s.find(3.5), 2);
        assert_eq!(s.find(9.5), 3);
    }

    #[test]
    fn sampling_prefers_high_priority() {
        let mut b = PrioritizedReplay::new(8, 1.0);
        for i in 0..8 {
            b.push(t(i as f32));
        }
        // Make slot 3 dominate.
        b.update_priorities(&(0..8).collect::<Vec<_>>(), &[0.01; 8]);
        b.update_priorities(&[3], &[100.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let batch = b.sample(1000, 0.4, &mut rng);
        let hits = batch.indices.iter().filter(|&&i| i == 3).count();
        assert!(
            hits > 900,
            "slot 3 should dominate sampling, got {hits}/1000"
        );
    }

    #[test]
    fn weights_are_normalized() {
        let mut b = PrioritizedReplay::new(8, 0.6);
        for i in 0..8 {
            b.push(t(i as f32));
        }
        b.update_priorities(
            &(0..8).collect::<Vec<_>>(),
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let batch = b.sample(64, 0.5, &mut rng);
        assert!(batch.weights.iter().all(|&w| w > 0.0 && w <= 1.0 + 1e-6));
        assert!(batch.weights.iter().any(|&w| (w - 1.0).abs() < 1e-6));
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let mut b = PrioritizedReplay::new(4, 0.0);
        for i in 0..4 {
            b.push(t(i as f32));
        }
        b.update_priorities(&[0, 1, 2, 3], &[0.001, 1000.0, 0.001, 0.001]);
        let mut rng = StdRng::seed_from_u64(3);
        let batch = b.sample(4000, 1.0, &mut rng);
        let hits = batch.indices.iter().filter(|&&i| i == 1).count();
        assert!(
            (800..1200).contains(&hits),
            "alpha=0 must sample uniformly, got {hits}/4000"
        );
    }

    #[test]
    fn eviction_reuses_slots() {
        let mut b = PrioritizedReplay::new(2, 0.6);
        let slots: Vec<usize> = (0..5).map(|i| b.push(t(i as f32))).collect();
        assert_eq!(slots, [0, 1, 0, 1, 0]);
        assert_eq!(b.len(), 2);
        let rewards: Vec<f32> = (0..2).map(|i| b.get(i).reward).collect();
        assert!(rewards.contains(&4.0));
    }
}
