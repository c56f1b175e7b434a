//! A minimal dense matrix type for batched MLP arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let n = data.len();
        Matrix::from_vec(1, n, data)
    }

    /// Pack equal-length rows into one matrix (single allocation, one
    /// `memcpy` per row) — the batch-assembly primitive for inference.
    ///
    /// # Panics
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows<S: AsRef<[f32]>>(rows: &[S]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), cols, "from_rows rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix::from_vec(rows.len(), cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm(&self.data, self.cols, 1, self.cols, rhs, &mut out);
        out
    }

    /// `selfᵀ × rhs` without materializing the transpose.
    ///
    /// # Panics
    /// Panics if `self.rows != rhs.rows`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "t_matmul row mismatch");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        gemm(&self.data, 1, self.cols, self.rows, rhs, &mut out);
        out
    }

    /// `self × rhsᵀ` as [`Matrix::matmul`] on the transposed `rhs`: products
    /// add in ascending `k` from `+0.0`, as a dot product of two rows would.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_t column mismatch");
        #[cfg(test)]
        tests::MATMUL_T_CALLS.with(|c| c.set(c.get() + 1));
        self.matmul(&rhs.transpose())
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Add a row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Sum over rows, producing a column-wise total (bias gradient).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row_slice(r)) {
                *o += x;
            }
        }
        out
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }
}

/// Output columns in one [`gemm`] register block: eight 4-lane accumulators.
const NR: usize = 32;

/// `out = A × b`, where `A(i, p)` is `a[i * row_stride + p * col_stride]`
/// for `p < k`: the one kernel behind every product.
///
/// Each output row first gathers its nonzero `A(i, p)`, in ascending `p`,
/// into a list — branch-free: every slot is written, and kept only if its
/// value is nonzero — then folds `v · b[p][j]` over that list into each
/// output column from `+0.0`. That is the naive ascending-`p` fold minus its
/// `±0.0` addends, which leave an accumulator started at `+0.0` unchanged,
/// so every element is bit-identical to it. A zero in `A` never multiplies
/// anything, so an `inf` or `NaN` in `b` behind it stays out of the result.
fn gemm(a: &[f32], row_stride: usize, col_stride: usize, k: usize, b: &Matrix, out: &mut Matrix) {
    let n = b.cols;
    let mut list = vec![(0usize, 0.0f32); k];
    for (i, orow) in out.data.chunks_exact_mut(n).enumerate() {
        let mut len = 0;
        for p in 0..k {
            let v = a[i * row_stride + p * col_stride];
            list[len] = (p * n, v);
            len += (v != 0.0) as usize;
        }
        let list = &list[..len];
        match n {
            NR.. => fold::<NR>(list, &b.data, orow),
            8.. => fold::<8>(list, &b.data, orow),
            4.. => fold::<4>(list, &b.data, orow),
            _ => fold::<1>(list, &b.data, orow),
        }
    }
}

/// One [`gemm`] output row in `W`-column register blocks: column `j` is the
/// sum over `(off, v)` in `list`, in order, of `v · b[off + j]`, folded from
/// `+0.0`. A row that is not a multiple of `W` wide ends on a block shifted
/// left to end at its last column; the columns two blocks share are folded
/// twice, to the same bits.
#[inline(always)]
fn fold<const W: usize>(list: &[(usize, f32)], b: &[f32], orow: &mut [f32]) {
    let n = orow.len();
    for j in (0..n).step_by(W) {
        let j = j.min(n - W);
        let mut acc = [0.0f32; W];
        for &(off, v) in list {
            for (s, &x) in acc.iter_mut().zip(&b[off + j..off + j + W]) {
                *s += v * x;
            }
        }
        orow[j..j + W].copy_from_slice(&acc);
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// `matmul_t` products formed on this thread, so `network.rs`'s
        /// tests can count the input gradients a backward pass computes.
        pub(crate) static MATMUL_T_CALLS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 0.5, 3.0, 4.0, -1.0]);
        let b = m(4, 3, &(0..12).map(|i| i as f32 * 0.5).collect::<Vec<_>>());
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn zero_activation_adds_nothing_against_inf_or_nan_weights() {
        // `0 · inf` and `0 · NaN` are NaN: a zero in the left operand, of
        // either sign, must leave its products out rather than multiply.
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let a = m(1, 3, &[0.0, 2.0, -0.0]);
        let b = m(3, 2, &[inf, nan, 1.0, -3.0, nan, -inf]);
        assert_eq!(a.matmul(&b).as_slice(), &[2.0, -6.0]);
        assert_eq!(a.transpose().t_matmul(&b).as_slice(), &[2.0, -6.0]);
        assert_eq!(a.matmul_t(&b.transpose()).as_slice(), &[2.0, -6.0]);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcasts_bias() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row(&[1.0, 2.0, 3.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sums_sum_rows() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.col_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn map_inplace_applies_function() {
        let mut a = m(1, 3, &[-1.0, 0.0, 2.0]);
        a.map_inplace(|x| x.max(0.0));
        assert_eq!(a.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }
}
