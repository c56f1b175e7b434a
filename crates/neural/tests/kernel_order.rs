//! The summation-order contract the trained-weight digests rest on.
//!
//! Every element of `matmul`, `t_matmul` and `matmul_t` must equal, bit for
//! bit, the naive dot product that folds `acc += a * b` over ascending `k`
//! from `+0.0` with no zero-skip. That is what lets a kernel be reshaped
//! (loop order, zero-skip, transposing an operand first) without moving a
//! weight: skipping an `a == 0.0` term drops a `±0.0` addend, and `x + ±0.0`
//! is `x` for every `x` an accumulator that started at `+0.0` can hold.
//!
//! The one corner this pins rather than inherits: a dot whose every product
//! is `-0.0` (a zero row against negative entries). Folding from `+0.0`
//! gives `+0.0`; `Iterator::sum` folds f32 from `-0.0` and gives `-0.0`,
//! which is why `matmul_t` no longer reduces with `.sum()`.

use neural::Matrix;
use proptest::prelude::*;

/// Roughly 40 % exact `+0.0` (a ReLU layer's output density), the rest
/// spread over both signs.
fn relu_like(pool: &[f32], len: usize) -> Vec<f32> {
    pool[..len]
        .iter()
        .map(|&v| if v.abs() < 0.8 { 0.0 } else { v })
        .collect()
}

/// `a (m×k) × b (k×n)`, every element folded in ascending `k` from `+0.0`.
fn reference(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.rows() * b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `pool` with each entry zeroed where its `draw` is under `share`. A
/// zeroed entry keeps its sign, so about half of the zeros are `-0.0`.
fn sparse(pool: &[f32], draws: &[f32], share: f32) -> Vec<f32> {
    pool.iter()
        .zip(draws)
        .map(|(&v, &d)| if d < share { 0.0f32.copysign(v) } else { v })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_kernel_folds_ascending_k_from_positive_zero(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        pool_a in prop::collection::vec(-2.0f32..2.0, 39 * 39),
        pool_b in prop::collection::vec(-2.0f32..2.0, 39 * 39),
    ) {
        let a = Matrix::from_vec(m, k, relu_like(&pool_a, m * k));
        let b = Matrix::from_vec(k, n, relu_like(&pool_b, k * n));
        let expect = reference(&a, &b);
        prop_assert_eq!(bits(&a.matmul(&b)), expect.clone(), "matmul");
        prop_assert_eq!(bits(&a.transpose().t_matmul(&b)), expect.clone(), "t_matmul");
        prop_assert_eq!(bits(&a.matmul_t(&b.transpose())), expect, "matmul_t");
    }

    /// The corners of the gather kernel: output widths spanning several
    /// register blocks plus a remainder (the 11, 64 and 128 of the `wide`
    /// network among them), zero shares up to 95 %, `-0.0` entries, and one
    /// row of `A` with no nonzero at all, whose empty list must fold to `+0.0`.
    #[test]
    fn every_kernel_folds_ascending_k_at_any_width_and_sparsity(
        m in 1usize..9,
        k in 1usize..33,
        n in prop_oneof![Just(11usize), Just(64), Just(128), 1usize..141],
        share in 0.0f32..0.95,
        zero_row in 0usize..8,
        pool_a in prop::collection::vec(-2.0f32..2.0, 8 * 32),
        draws in prop::collection::vec(0.0f32..1.0, 8 * 32),
        pool_b in prop::collection::vec(-2.0f32..2.0, 32 * 140),
    ) {
        let mut a = sparse(&pool_a[..m * k], &draws, share);
        let zero_row = zero_row % m;
        for v in &mut a[zero_row * k..(zero_row + 1) * k] {
            *v = 0.0f32.copysign(*v);
        }
        let a = Matrix::from_vec(m, k, a);
        let b = Matrix::from_vec(k, n, pool_b[..k * n].to_vec());
        let expect = reference(&a, &b);
        prop_assert_eq!(bits(&a.matmul(&b)), expect.clone(), "matmul");
        prop_assert_eq!(bits(&a.transpose().t_matmul(&b)), expect.clone(), "t_matmul");
        prop_assert_eq!(bits(&a.matmul_t(&b.transpose())), expect, "matmul_t");
    }
}
