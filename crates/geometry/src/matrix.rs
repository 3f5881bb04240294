//! Flat row-major matrices and batched dot-product kernels.
//!
//! The hot loops of the pipeline — subdomain signatures (Alg. 1), ESE's
//! affected-slab re-ranking (Alg. 2), and greedy candidate scoring
//! (Algs. 3–4) — all bottom out in `f_i(q) = p_i · q` over a fixed set of
//! rows. Storing those rows as `Vec<Vec<f64>>` costs one heap allocation
//! and one pointer chase per row; [`FlatMatrix`] keeps them in a single
//! contiguous row-major buffer with a `dim` stride so batch evaluation
//! streams through memory linearly.
//!
//! ## Kernel contract (byte-identical scores)
//!
//! Every kernel in this module accumulates each row's dot product in the
//! **same floating-point order** as the scalar path
//! ([`crate::vector::dot`]): a single accumulator per row, initialised to
//! `0.0`, adding `row[j] * q[j]` for `j = 0, 1, …, d-1`. The 4-way unroll
//! in [`FlatMatrix::scores_into`] runs **across rows** (four independent
//! accumulators, one per row), never within a row, so batched scores are
//! bit-for-bit equal to `dot(row, q)`. The workspace's byte-identical
//! invariants (fast ESE ≡ pairwise ≡ naive, thread-count independence)
//! depend on this; do not reassociate the inner sums.

use crate::vector::dot;

/// A dense row-major matrix over `f64` in one contiguous allocation.
///
/// Rows are fixed-width (`dim` stride); row `i` occupies
/// `data[i*dim .. (i+1)*dim]`. The buffer is a growable `Vec<f64>` so the
/// update paths (§4.3 of the paper: object/query insertion and deletion)
/// stay amortised `O(d)` per mutation, but it is always a single
/// contiguous block — no per-row allocation, no pointer chasing.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatMatrix {
    data: Vec<f64>,
    dim: usize,
}

impl FlatMatrix {
    /// Creates an empty matrix whose rows will have `dim` columns.
    pub fn new(dim: usize) -> Self {
        FlatMatrix {
            data: Vec::new(),
            dim,
        }
    }

    /// Creates an empty matrix with room for `rows` rows of `dim` columns.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        FlatMatrix {
            data: Vec::with_capacity(rows * dim),
            dim,
        }
    }

    /// Materialises nested rows into one contiguous buffer.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows<R: AsRef<[f64]>>(dim: usize, rows: &[R]) -> Self {
        let mut data = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), dim, "FlatMatrix row dimension mismatch");
            data.extend_from_slice(r);
        }
        FlatMatrix { data, dim }
    }

    /// Number of columns (the row stride).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Iterates over rows in order.
    pub fn iter_rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Appends a row. Amortised `O(d)`.
    ///
    /// # Panics
    /// Panics if `row.len() != dim`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "FlatMatrix row dimension mismatch");
        self.data.extend_from_slice(row);
    }

    /// Removes the last row. `O(d)`; no-op on an empty matrix.
    pub fn pop_row(&mut self) {
        let n = self.rows();
        if n > 0 {
            self.data.truncate((n - 1) * self.dim);
        }
    }

    /// Overwrites row `i`.
    pub fn set_row(&mut self, i: usize, row: &[f64]) {
        self.row_mut(i).copy_from_slice(row);
    }

    /// Adds `delta` component-wise into row `i` (the improvement-strategy
    /// application `p_t ← p_t + s`).
    pub fn add_to_row(&mut self, i: usize, delta: &[f64]) {
        for (x, d) in self.row_mut(i).iter_mut().zip(delta) {
            *x += d;
        }
    }

    /// Removes row `i` by moving the last row into its slot. `O(d)`.
    pub fn swap_remove_row(&mut self, i: usize) {
        let n = self.rows();
        assert!(i < n, "swap_remove_row: row {i} out of range ({n} rows)");
        if i + 1 < n {
            let d = self.dim;
            let (head, tail) = self.data.split_at_mut((n - 1) * d);
            head[i * d..(i + 1) * d].copy_from_slice(tail);
        }
        self.pop_row();
    }

    /// Dot product of row `i` with `q`, in the scalar summation order.
    #[inline]
    pub fn dot_row(&self, i: usize, q: &[f64]) -> f64 {
        dot(self.row(i), q)
    }

    /// Scores every row against `q` into `out` (cleared first), 4 rows at
    /// a time. `out[i]` is bit-identical to `dot(self.row(i), q)`; the
    /// buffer is reused across calls so steady-state evaluation performs
    /// no allocation.
    pub fn scores_into(&self, q: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(q.len(), self.dim, "scores_into: dimension mismatch");
        let n = self.rows();
        out.clear();
        out.reserve(n);
        let d = self.dim;
        let mut i = 0;
        // 4-way unroll across rows: four independent accumulators, each
        // summing its own row left-to-right — the same order as `dot`.
        while i + 4 <= n {
            let base = i * d;
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for (j, &w) in q.iter().enumerate() {
                a0 += self.data[base + j] * w;
                a1 += self.data[base + d + j] * w;
                a2 += self.data[base + 2 * d + j] * w;
                a3 += self.data[base + 3 * d + j] * w;
            }
            out.extend_from_slice(&[a0, a1, a2, a3]);
            i += 4;
        }
        while i < n {
            out.push(self.dot_row(i, q));
            i += 1;
        }
    }

    /// Scores the gathered subset `rows_idx` against `q` into `out`
    /// (cleared first): `out[j] = dot(self.row(rows_idx[j]), q)`.
    pub fn dot_batch(&self, q: &[f64], rows_idx: &[usize], out: &mut Vec<f64>) {
        debug_assert_eq!(q.len(), self.dim, "dot_batch: dimension mismatch");
        out.clear();
        out.reserve(rows_idx.len());
        let d = self.dim;
        let mut i = 0;
        while i + 4 <= rows_idx.len() {
            let (b0, b1, b2, b3) = (
                rows_idx[i] * d,
                rows_idx[i + 1] * d,
                rows_idx[i + 2] * d,
                rows_idx[i + 3] * d,
            );
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for (j, &w) in q.iter().enumerate() {
                a0 += self.data[b0 + j] * w;
                a1 += self.data[b1 + j] * w;
                a2 += self.data[b2 + j] * w;
                a3 += self.data[b3 + j] * w;
            }
            out.extend_from_slice(&[a0, a1, a2, a3]);
            i += 4;
        }
        while i < rows_idx.len() {
            out.push(self.dot_row(rows_idx[i], q));
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Spread across magnitudes so summation order matters.
            let u = ((state >> 11) as f64) / ((1u64 << 53) as f64);
            (u - 0.5) * 1e3 + (state as i64 % 7) as f64 * 1e-6
        }
    }

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rnd = lcg(seed);
        (0..n).map(|_| (0..d).map(|_| rnd()).collect()).collect()
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = random_rows(5, 3, 1);
        let m = FlatMatrix::from_rows(3, &rows);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.dim(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(m.row(i), r.as_slice());
        }
        let collected: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(collected.len(), 5);
    }

    #[test]
    fn scores_into_bit_identical_to_scalar_dot() {
        // The kernel contract: every batched score equals dot(row, q) to
        // the last bit, across remainder lengths 0..4.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 33] {
            for d in [1usize, 2, 3, 5, 8] {
                let rows = random_rows(n, d, (n * 31 + d) as u64);
                let q: Vec<f64> = random_rows(1, d, 999)[0].clone();
                let m = FlatMatrix::from_rows(d, &rows);
                let mut out = Vec::new();
                m.scores_into(&q, &mut out);
                assert_eq!(out.len(), n);
                for (i, r) in rows.iter().enumerate() {
                    assert_eq!(
                        out[i].to_bits(),
                        dot(r, &q).to_bits(),
                        "row {i} n={n} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn dot_batch_bit_identical_on_gathered_rows() {
        let rows = random_rows(20, 4, 7);
        let q: Vec<f64> = random_rows(1, 4, 8)[0].clone();
        let m = FlatMatrix::from_rows(4, &rows);
        let idx = [3usize, 19, 0, 7, 7, 11, 2];
        let mut out = Vec::new();
        m.dot_batch(&q, &idx, &mut out);
        assert_eq!(out.len(), idx.len());
        for (j, &i) in idx.iter().enumerate() {
            assert_eq!(out[j].to_bits(), dot(&rows[i], &q).to_bits());
        }
    }

    #[test]
    fn buffer_reuse_clears_previous_contents() {
        let m = FlatMatrix::from_rows(2, &[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let mut out = vec![99.0; 10];
        m.scores_into(&[2.0, 3.0], &mut out);
        assert_eq!(out, vec![2.0, 3.0]);
        m.dot_batch(&[1.0, 1.0], &[1], &mut out);
        assert_eq!(out, vec![1.0]);
    }

    #[test]
    fn mutators_keep_rows_coherent() {
        let mut m = FlatMatrix::new(2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        m.push_row(&[5.0, 6.0]);
        assert_eq!(m.rows(), 3);
        m.set_row(1, &[30.0, 40.0]);
        assert_eq!(m.row(1), &[30.0, 40.0]);
        m.add_to_row(0, &[0.5, -0.5]);
        assert_eq!(m.row(0), &[1.5, 1.5]);
        m.swap_remove_row(0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(1), &[30.0, 40.0]);
        m.pop_row();
        assert_eq!(m.rows(), 1);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        m.pop_row();
        assert!(m.is_empty());
        m.pop_row(); // no-op on empty
        assert_eq!(m.rows(), 0);
    }

    #[test]
    fn swap_remove_last_row() {
        let mut m = FlatMatrix::from_rows(1, &[vec![1.0], vec![2.0]]);
        m.swap_remove_row(1);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.row(0), &[1.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_row_rejected() {
        let mut m = FlatMatrix::new(3);
        m.push_row(&[1.0, 2.0]);
    }
}
