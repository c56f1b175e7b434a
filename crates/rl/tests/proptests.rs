//! Property-based tests of the RL data structures and schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{ReplayBuffer, Schedule, SumTree, Transition};

fn transition(tag: f32) -> Transition {
    Transition {
        state: vec![tag],
        action: 0,
        reward: tag,
        next_state: vec![tag + 1.0],
        done: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sum tree's root always equals the sum of its leaves, under any
    /// sequence of sets.
    #[test]
    fn sum_tree_root_is_leaf_sum(
        capacity in 1usize..64,
        ops in prop::collection::vec((0usize..64, 0.0f64..100.0), 0..100),
    ) {
        let mut tree = SumTree::new(capacity);
        let mut shadow = vec![0.0f64; capacity];
        for (i, p) in ops {
            let i = i % capacity;
            tree.set(i, p);
            shadow[i] = p;
        }
        let expect: f64 = shadow.iter().sum();
        prop_assert!((tree.total() - expect).abs() < 1e-9 * (1.0 + expect));
        for (i, &p) in shadow.iter().enumerate() {
            prop_assert_eq!(tree.get(i), p);
        }
    }

    /// `find` implements proportional sampling: sweeping the mass space
    /// uniformly hits each leaf with frequency equal to its share of the
    /// total priority. (Leaf *order* under the heap layout is structural,
    /// not index order — only the measure matters for replay sampling.)
    #[test]
    fn sum_tree_find_is_proportional(
        capacity in 2usize..24,
        priorities in prop::collection::vec(0.01f64..10.0, 2..24),
    ) {
        let n = priorities.len().min(capacity);
        let mut tree = SumTree::new(capacity);
        for (i, &p) in priorities.iter().take(n).enumerate() {
            tree.set(i, p);
        }
        let total = tree.total();
        let sweeps = 20_000usize;
        let mut hits = vec![0usize; capacity];
        for k in 0..sweeps {
            // Deterministic uniform sweep of the mass space.
            let mass = (k as f64 + 0.5) / sweeps as f64 * total;
            let leaf = tree.find(mass);
            prop_assert!(leaf < capacity);
            hits[leaf] += 1;
        }
        for (i, &p) in priorities.iter().take(n).enumerate() {
            let expected = p / total;
            let observed = hits[i] as f64 / sweeps as f64;
            prop_assert!((observed - expected).abs() < 0.01,
                "leaf {i}: observed {observed:.4} vs expected {expected:.4}");
        }
        // Zero-priority leaves are never selected.
        for (i, &h) in hits.iter().enumerate().skip(n) {
            prop_assert_eq!(h, 0, "empty leaf {} sampled", i);
        }
    }

    /// The replay buffer never exceeds capacity and always retains the most
    /// recent `capacity` items.
    #[test]
    fn replay_retains_most_recent(capacity in 1usize..32, pushes in 0usize..100) {
        let mut buf = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            buf.push(transition(i as f32));
        }
        prop_assert_eq!(buf.len(), pushes.min(capacity));
        if pushes > 0 {
            let newest = (pushes - 1) as f32;
            prop_assert!(buf.iter().any(|t| t.reward == newest), "newest item evicted");
            if pushes > capacity {
                let oldest_kept = (pushes - capacity) as f32;
                prop_assert!(buf.iter().all(|t| t.reward >= oldest_kept),
                    "stale item survived");
            }
        }
    }

    /// Samples always come from the buffer contents.
    #[test]
    fn replay_samples_only_contents(capacity in 1usize..16, pushes in 1usize..40, seed in 0u64..100) {
        let mut buf = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            buf.push(transition(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for slot in buf.sample_slots(32, &mut rng) {
            prop_assert!(slot < buf.len());
            prop_assert!((buf.get(slot).reward as usize) < pushes);
        }
    }

    /// Schedules are monotone between their endpoints.
    #[test]
    fn schedules_are_monotone(start in 0.1f64..1.0, end in 0.0f64..0.09, steps in 1u64..1000) {
        let lin = Schedule::Linear { start, end, steps };
        let exp = Schedule::Exponential { start, end, rate: 0.99 };
        let mut prev_l = f64::MAX;
        let mut prev_e = f64::MAX;
        for t in (0..steps + 10).step_by((steps as usize / 10).max(1)) {
            let l = lin.value(t);
            let e = exp.value(t);
            prop_assert!(l <= prev_l + 1e-12);
            prop_assert!(e <= prev_e + 1e-12);
            prop_assert!((end..=start).contains(&l));
            prop_assert!(e >= end - 1e-12 && e <= start + 1e-12);
            prev_l = l;
            prev_e = e;
        }
    }
}
