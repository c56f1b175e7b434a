//! Uniform experience replay (Lin, 1992; Mnih et al., 2015).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One stored experience.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Observation before the action.
    pub state: Vec<f32>,
    /// Action taken.
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// Observation after the action.
    pub next_state: Vec<f32>,
    /// Whether the episode ended at `next_state`.
    pub done: bool,
}

/// A fixed-capacity ring buffer with uniform sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    data: Vec<Transition>,
    capacity: usize,
    next: usize,
}

impl ReplayBuffer {
    /// An empty buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            data: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            next: 0,
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

    /// Maximum number of transitions retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Store a transition, evicting the oldest once full. Returns the slot
    /// it was written to.
    pub fn push(&mut self, t: Transition) -> usize {
        let slot = self.next;
        if self.data.len() < self.capacity {
            self.data.push(t);
        } else {
            self.data[slot] = t;
        }
        self.next = (self.next + 1) % self.capacity;
        slot
    }

    /// Sample `batch` slots uniformly with replacement (read them with
    /// [`ReplayBuffer::get`]).
    ///
    /// # Panics
    /// Panics if the buffer is empty.
    pub fn sample_slots(&self, batch: usize, rng: &mut StdRng) -> Vec<usize> {
        assert!(
            !self.data.is_empty(),
            "cannot sample from an empty replay buffer"
        );
        (0..batch)
            .map(|_| rng.gen_range(0..self.data.len()))
            .collect()
    }

    /// The transition in slot `i`.
    pub fn get(&self, i: usize) -> &Transition {
        &self.data[i]
    }

    /// Iterate over stored transitions (oldest-first is not guaranteed).
    pub fn iter(&self) -> impl Iterator<Item = &Transition> {
        self.data.iter()
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
            next_state: vec![1.0],
            done: false,
        }
    }

    #[test]
    fn push_grows_until_capacity_then_overwrites() {
        let mut b = ReplayBuffer::new(3);
        let slots: Vec<usize> = (0..5).map(|i| b.push(t(i as f32))).collect();
        assert_eq!(slots, [0, 1, 2, 0, 1]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0).reward, 3.0);
        let rewards: Vec<f32> = b.iter().map(|x| x.reward).collect();
        // 0 and 1 evicted.
        assert!(rewards.contains(&2.0) && rewards.contains(&3.0) && rewards.contains(&4.0));
    }

    #[test]
    fn sampling_covers_contents() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..10 {
            b.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 10];
        for slot in b.sample_slots(1000, &mut rng) {
            seen[b.get(slot).reward as usize] = true;
        }
        assert!(
            seen.iter().all(|&x| x),
            "uniform sampling should hit every item"
        );
    }

    #[test]
    #[should_panic(expected = "empty replay buffer")]
    fn sampling_empty_panics() {
        let b = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = b.sample_slots(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
