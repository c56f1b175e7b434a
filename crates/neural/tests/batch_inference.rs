//! Property tests pinning the batched-inference fast path to the
//! per-sample reference path: `predict_batch` must be exactly (bitwise)
//! row-equivalent to `predict_one`, for any architecture and input, because
//! both run the same f32 operations in the same order — only the packing
//! differs.
//!
//! The same premise lets a DQN keep the target network's Q-row per replay
//! slot and predict only the stale rows as a sub-batch: every output row is
//! built from its own input row alone, so a row has the same bits alone, in
//! any sub-batch, and in the full batch.

use neural::{Activation, Matrix, Mlp};
use proptest::prelude::*;

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// `rows` states of width `in_dim` cut from `pool`, each entry zeroed
/// where its `draw` is under `share` (keeping its sign, so about half of
/// the zeros are `-0.0`, as a ReLU layer's output holds exact zeros), and
/// row `zero_row` zeroed throughout.
fn relu_sparse_states(
    pool: &[f32],
    draws: &[f32],
    share: f32,
    rows: usize,
    in_dim: usize,
    zero_row: usize,
) -> Vec<Vec<f32>> {
    (0..rows)
        .map(|r| {
            (0..in_dim)
                .map(|j| {
                    let (v, d) = (pool[r * in_dim + j], draws[r * in_dim + j]);
                    if d < share || r == zero_row {
                        0.0f32.copysign(v)
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

/// Layer widths up to 140: the `wide` network's 17, 128, 64 and 11 among
/// them, so the 32-column register blocks and the shifted 8-wide tail of
/// an 11-wide layer are reached.
fn width(wide: usize) -> impl Strategy<Value = usize> {
    prop_oneof![Just(wide), 1usize..141]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `predict_batch` row `i` is bitwise-identical to `predict_one` of
    /// state `i`, across architectures, activations, batch sizes, and seeds.
    #[test]
    fn predict_batch_matches_rowwise_predict_one(
        in_dim in width(17),
        hidden in width(128),
        out_dim in width(11),
        seed in 0u64..1000,
        act_idx in 0usize..3,
        rows in 1usize..33,
        share in 0.0f32..0.9,
        zero_row in 0usize..32,
        pool in prop::collection::vec(-3.0f32..3.0, 32 * 140),
        draws in prop::collection::vec(0.0f32..1.0, 32 * 140),
    ) {
        let act = [Activation::Relu, Activation::Tanh, Activation::Sigmoid][act_idx];
        let net = Mlp::new(&[in_dim, hidden, out_dim], act, Activation::Linear, seed);
        let states = relu_sparse_states(&pool, &draws, share, rows, in_dim, zero_row % rows);
        let batch = net.predict_batch(&states);
        prop_assert_eq!(batch.rows(), states.len());
        prop_assert_eq!(batch.cols(), out_dim);
        for (i, s) in states.iter().enumerate() {
            prop_assert_eq!(
                bits(batch.row_slice(i)),
                bits(&net.predict_one(s)),
                "row {} diverges from predict_one",
                i
            );
        }
    }

    /// Any sub-batch of the rows — repeated, reordered, one row or all —
    /// predicts each row to the bits the full batch gives it, on the
    /// `wide` network's two-hidden-layer ReLU shape.
    #[test]
    fn sub_batch_rows_match_the_full_batch(
        in_dim in width(17),
        hidden in (width(128), width(64)),
        out_dim in width(11),
        seed in 0u64..1000,
        rows in 1usize..33,
        share in 0.0f32..0.9,
        zero_row in 0usize..32,
        picks in prop::collection::vec(0usize..32, 1..33),
        pool in prop::collection::vec(-3.0f32..3.0, 32 * 140),
        draws in prop::collection::vec(0.0f32..1.0, 32 * 140),
    ) {
        let dims = [in_dim, hidden.0, hidden.1, out_dim];
        let net = Mlp::new(&dims, Activation::Relu, Activation::Linear, seed);
        let states = relu_sparse_states(&pool, &draws, share, rows, in_dim, zero_row % rows);
        let full = net.predict_batch(&states);
        let picks: Vec<usize> = picks.iter().map(|&p| p % rows).collect();
        let sub_states: Vec<&[f32]> = picks.iter().map(|&p| states[p].as_slice()).collect();
        let sub = net.predict_batch(&sub_states);
        for (k, &p) in picks.iter().enumerate() {
            prop_assert_eq!(
                bits(sub.row_slice(k)),
                bits(full.row_slice(p)),
                "sub-batch row {} (state {}) diverges from the full batch",
                k,
                p
            );
        }
    }

    /// `Matrix::from_rows` packs row-major without reordering.
    #[test]
    fn from_rows_is_row_major(
        rows in prop::collection::vec(
            prop::collection::vec(-10.0f32..10.0, 3..4),
            1..8,
        ),
    ) {
        let m = Matrix::from_rows(&rows);
        prop_assert_eq!(m.rows(), rows.len());
        prop_assert_eq!(m.cols(), 3);
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(m.row_slice(i), r.as_slice());
        }
    }
}

#[test]
#[should_panic(expected = "equal length")]
fn from_rows_rejects_ragged_rows() {
    let _ = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0]]);
}

#[test]
#[should_panic(expected = "at least one row")]
fn from_rows_rejects_empty() {
    let rows: Vec<Vec<f32>> = vec![];
    let _ = Matrix::from_rows(&rows);
}
