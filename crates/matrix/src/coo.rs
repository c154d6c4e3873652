//! Coordinate (COO) format.

use crate::error::MatrixError;
use crate::scalar::Scalar;
use crate::stats::MatrixStats;

/// A sparse matrix in coordinate format, kept **sorted row-major**
/// (by row index, then column index) with no duplicate positions.
///
/// This is the canonical interchange format: every other format in the
/// workspace converts to and from `CooMatrix`.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    row_idx: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Builds a COO matrix from parallel triplet arrays.
    ///
    /// The triplets may arrive in any order; they are sorted row-major.
    /// Duplicate positions, out-of-bounds indices and shapes of 2³² or more
    /// rows or columns are rejected: indices are stored as `u32`, and
    /// `u32::MAX` stays free as the padding marker of the ELL formats.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        row_idx: &[usize],
        col_idx: &[usize],
        vals: &[T],
    ) -> Result<Self, MatrixError> {
        if row_idx.len() != col_idx.len() || col_idx.len() != vals.len() {
            return Err(MatrixError::LengthMismatch {
                rows: row_idx.len(),
                cols: col_idx.len(),
                vals: vals.len(),
            });
        }
        Self::check_shape(rows, cols)?;
        for (&r, &c) in row_idx.iter().zip(col_idx.iter()) {
            if r >= rows || c >= cols {
                return Err(MatrixError::IndexOutOfBounds { row: r, col: c, rows, cols });
            }
        }
        let pos = |i: usize| (row_idx[i], col_idx[i]);
        // Strictly row-major input, as the `.mtx` writer emits, is already
        // in final order.
        if (1..vals.len()).all(|i| pos(i - 1) < pos(i)) {
            return Ok(CooMatrix {
                rows,
                cols,
                row_idx: row_idx.iter().map(|&r| r as u32).collect(),
                col_idx: col_idx.iter().map(|&c| c as u32).collect(),
                vals: vals.to_vec(),
            });
        }
        let mut order: Vec<usize> = (0..vals.len()).collect();
        order.sort_unstable_by_key(|&i| pos(i));
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            if row_idx[a] == row_idx[b] && col_idx[a] == col_idx[b] {
                return Err(MatrixError::DuplicateEntry { row: row_idx[a], col: col_idx[a] });
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            row_idx: order.iter().map(|&i| row_idx[i] as u32).collect(),
            col_idx: order.iter().map(|&i| col_idx[i] as u32).collect(),
            vals: order.iter().map(|&i| vals[i]).collect(),
        })
    }

    /// Rejects a shape whose indices do not all lie below `u32::MAX`.
    pub(crate) fn check_shape(rows: usize, cols: usize) -> Result<(), MatrixError> {
        if rows as u64 > u32::MAX as u64 || cols as u64 > u32::MAX as u64 {
            return Err(MatrixError::ShapeMismatch {
                expected: "at most 2^32 - 1 rows and columns".into(),
                found: format!("{rows}x{cols}"),
            });
        }
        Ok(())
    }

    /// Builds from already-sorted, already-validated parts. Used by format
    /// converters that guarantee the invariants structurally.
    ///
    /// Debug builds re-check the invariants.
    pub fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_idx: Vec<u32>,
        col_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_idx.len(), col_idx.len());
        debug_assert_eq!(col_idx.len(), vals.len());
        debug_assert!(row_idx
            .windows(2)
            .zip(col_idx.windows(2))
            .all(|(r, c)| { r[0] < r[1] || (r[0] == r[1] && c[0] < c[1]) }));
        debug_assert!(row_idx.iter().all(|&r| (r as usize) < rows));
        debug_assert!(col_idx.iter().all(|&c| (c as usize) < cols));
        CooMatrix { rows, cols, row_idx, col_idx, vals }
    }

    /// An empty matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CooMatrix { rows, cols, row_idx: Vec::new(), col_idx: Vec::new(), vals: Vec::new() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row indices, sorted ascending.
    pub fn row_indices(&self) -> &[u32] {
        &self.row_idx
    }

    /// Column indices, sorted within each row.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Stored values.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        self.row_idx
            .iter()
            .zip(self.col_idx.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// The number of stored entries in each row.
    pub fn row_lengths(&self) -> Vec<u32> {
        let mut lens = vec![0u32; self.rows];
        for &r in &self.row_idx {
            lens[r as usize] += 1;
        }
        lens
    }

    /// The CSR row offsets: `rows + 1` entries, row `r` is the entry range
    /// `offsets[r]..offsets[r + 1]`.
    pub fn row_offsets(&self) -> Vec<usize> {
        let mut offsets = vec![0usize; self.rows + 1];
        for &r in &self.row_idx {
            offsets[r as usize + 1] += 1;
        }
        for r in 0..self.rows {
            offsets[r + 1] += offsets[r];
        }
        offsets
    }

    /// The entries past the first `k` of each row, as exactly sized
    /// row-major `(rows, cols, values)` arrays; `offsets` are this matrix's
    /// [`row_offsets`](Self::row_offsets). This is the COO tail of the HYB
    /// partition.
    pub fn entries_past_width(&self, offsets: &[usize], k: usize) -> (Vec<u32>, Vec<u32>, Vec<T>) {
        let tail = |r: usize| offsets[r].saturating_add(k).min(offsets[r + 1])..offsets[r + 1];
        let n = (0..self.rows).map(|r| tail(r).len()).sum();
        let (mut rows, mut cols, mut vals) =
            (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
        for r in 0..self.rows {
            let run = tail(r);
            rows.resize(rows.len() + run.len(), r as u32);
            cols.extend_from_slice(&self.col_idx[run.clone()]);
            vals.extend_from_slice(&self.vals[run]);
        }
        (rows, cols, vals)
    }

    /// Row-length and shape statistics (Table 2 of the paper).
    pub fn stats(&self) -> MatrixStats {
        MatrixStats::from_row_lengths(self.rows, self.cols, &self.row_lengths())
    }

    /// Dense reference product `y = A·x` computed entry by entry. Used only
    /// by tests; the fast CPU reference lives in the CSR format.
    pub fn spmv_reference(&self, x: &[T]) -> Result<Vec<T>, MatrixError> {
        if x.len() != self.cols {
            return Err(MatrixError::ShapeMismatch {
                expected: format!("x of length {}", self.cols),
                found: format!("length {}", x.len()),
            });
        }
        let mut y = vec![T::ZERO; self.rows];
        for (r, c, v) in self.iter() {
            y[r as usize] += v * x[c as usize];
        }
        Ok(y)
    }

    /// Returns `A + shift·I` (square matrices only), creating diagonal
    /// entries where absent. With `shift` above the largest off-diagonal
    /// row sum this makes the matrix strictly diagonally dominant — handy
    /// for turning an arbitrary sparsity pattern into a solvable system.
    pub fn add_diagonal(&self, shift: T) -> CooMatrix<T> {
        assert_eq!(self.rows, self.cols, "add_diagonal needs a square matrix");
        let mut row_idx = Vec::with_capacity(self.nnz() + self.rows);
        let mut col_idx = Vec::with_capacity(self.nnz() + self.rows);
        let mut vals = Vec::with_capacity(self.nnz() + self.rows);
        let mut push = |r: u32, c: u32, v: T| {
            row_idx.push(r);
            col_idx.push(c);
            vals.push(v);
        };
        // One pass: each row's entries left of the diagonal, the diagonal
        // (shifted, or created), then the entries right of it.
        let mut k = 0;
        for r in 0..self.rows as u32 {
            while k < self.nnz() && self.row_idx[k] == r && self.col_idx[k] < r {
                push(r, self.col_idx[k], self.vals[k]);
                k += 1;
            }
            if k < self.nnz() && self.row_idx[k] == r && self.col_idx[k] == r {
                push(r, r, self.vals[k] + shift);
                k += 1;
            } else {
                push(r, r, shift);
            }
            while k < self.nnz() && self.row_idx[k] == r {
                push(r, self.col_idx[k], self.vals[k]);
                k += 1;
            }
        }
        CooMatrix::from_sorted_parts(self.rows, self.cols, row_idx, col_idx, vals)
    }

    /// Returns the symmetric part `(A + Aᵀ)/2` (square matrices only).
    /// Together with [`CooMatrix::add_diagonal`] this turns any sparsity
    /// pattern into an SPD test system for CG.
    ///
    /// Entry `(i, j)` is `0 + A[i, j]/2 + A[j, i]/2`, skipping an absent
    /// term; starting from zero turns a lone `-0.0` into `+0.0`. A sum of
    /// two terms does not depend on their order, so the result is exactly
    /// symmetric.
    pub fn symmetrized(&self) -> CooMatrix<T> {
        assert_eq!(self.rows, self.cols, "symmetrized needs a square matrix");
        let half = T::from_f64(0.5);
        let n = self.nnz();
        // The entries in the row-major order of Aᵀ: a counting sort by
        // column keeps each column's rows ascending.
        let mut next = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            next[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            next[c + 1] += next[c];
        }
        let mut by_col = vec![0usize; n];
        for (k, &c) in self.col_idx.iter().enumerate() {
            by_col[next[c as usize]] = k;
            next[c as usize] += 1;
        }
        // Merge the row-major entries of A and Aᵀ.
        let mut row_idx = Vec::with_capacity(2 * n);
        let mut col_idx = Vec::with_capacity(2 * n);
        let mut vals = Vec::with_capacity(2 * n);
        let (mut a, mut b) = (0, 0);
        while a < n || b < n {
            let in_a = (a < n).then(|| (self.row_idx[a], self.col_idx[a]));
            let in_t = (b < n).then(|| (self.col_idx[by_col[b]], self.row_idx[by_col[b]]));
            let (i, j) = match (in_a, in_t) {
                (Some(x), Some(y)) => x.min(y),
                (x, y) => x.or(y).expect("an entry is left"),
            };
            let mut v = T::ZERO;
            if in_a == Some((i, j)) {
                v += self.vals[a] * half;
                a += 1;
            }
            if in_t == Some((i, j)) {
                v += self.vals[by_col[b]] * half;
                b += 1;
            }
            row_idx.push(i);
            col_idx.push(j);
            vals.push(v);
        }
        CooMatrix::from_sorted_parts(self.rows, self.cols, row_idx, col_idx, vals)
    }

    /// Returns the transpose `Aᵀ`.
    pub fn transpose(&self) -> CooMatrix<T> {
        let rows: Vec<usize> = self.col_idx.iter().map(|&c| c as usize).collect();
        let cols: Vec<usize> = self.row_idx.iter().map(|&r| r as usize).collect();
        CooMatrix::from_triplets(self.cols, self.rows, &rows, &cols, &self.vals)
            .expect("transposing preserves validity")
    }

    /// Matrix bandwidth: the largest |r − c| over stored entries (square or
    /// rectangular; 0 for diagonal or empty matrices). RCM exists to shrink
    /// this quantity.
    pub fn bandwidth(&self) -> usize {
        self.iter()
            .map(|(r, c, _)| (r as i64 - c as i64).unsigned_abs() as usize)
            .max()
            .unwrap_or(0)
    }

    /// The largest absolute off-diagonal row sum — the diagonal shift that
    /// guarantees strict diagonal dominance when exceeded.
    pub fn max_offdiag_row_sum(&self) -> f64 {
        let mut sums = vec![0.0f64; self.rows];
        for (r, c, v) in self.iter() {
            if r != c {
                sums[r as usize] += v.to_f64().abs();
            }
        }
        sums.into_iter().fold(0.0, f64::max)
    }

    /// Extracts the columns of one row as a slice, relying on row-major
    /// sorting. Returns `(col_indices, values)`.
    pub fn row(&self, row: u32) -> (&[u32], &[T]) {
        let start = self.row_idx.partition_point(|&r| r < row);
        let end = self.row_idx.partition_point(|&r| r <= row);
        (&self.col_idx[start..end], &self.vals[start..end])
    }
}

/// Test-only oracles: `add_diagonal` and `symmetrized` as first written.
#[cfg(test)]
impl<T: Scalar> CooMatrix<T> {
    /// `add_diagonal` as first written: a `Vec::insert` per created
    /// diagonal entry.
    fn add_diagonal_oracle(&self, shift: T) -> CooMatrix<T> {
        assert_eq!(self.rows, self.cols, "add_diagonal needs a square matrix");
        let mut row_idx = Vec::with_capacity(self.nnz() + self.rows);
        let mut col_idx = Vec::with_capacity(self.nnz() + self.rows);
        let mut vals = Vec::with_capacity(self.nnz() + self.rows);
        for r in 0..self.rows as u32 {
            let (cols, values) = self.row(r);
            let mut placed = false;
            for (&c, &v) in cols.iter().zip(values) {
                row_idx.push(r);
                col_idx.push(c);
                vals.push(if c == r {
                    placed = true;
                    v + shift
                } else {
                    v
                });
            }
            if !placed {
                // Insert the new diagonal entry in sorted position.
                let at = row_idx.len() - cols.iter().filter(|&&c| c > r).count();
                row_idx.insert(at, r);
                col_idx.insert(at, r);
                vals.insert(at, shift);
            }
        }
        CooMatrix::from_sorted_parts(self.rows, self.cols, row_idx, col_idx, vals)
    }

    /// `symmetrized` as first written: a `BTreeMap` over both triangles.
    fn symmetrized_oracle(&self) -> CooMatrix<T> {
        assert_eq!(self.rows, self.cols, "symmetrized needs a square matrix");
        let half = T::from_f64(0.5);
        let mut map: std::collections::BTreeMap<(u32, u32), T> = std::collections::BTreeMap::new();
        for (r, c, v) in self.iter() {
            *map.entry((r, c)).or_insert(T::ZERO) += v * half;
            *map.entry((c, r)).or_insert(T::ZERO) += v * half;
        }
        let mut row_idx = Vec::with_capacity(map.len());
        let mut col_idx = Vec::with_capacity(map.len());
        let mut vals = Vec::with_capacity(map.len());
        for ((r, c), v) in map {
            row_idx.push(r);
            col_idx.push(c);
            vals.push(v);
        }
        CooMatrix::from_sorted_parts(self.rows, self.cols, row_idx, col_idx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example matrix A of the paper (Section 2.1), 0-based.
    pub fn paper_matrix() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            4,
            5,
            &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3],
            &[0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4],
            &[3.0, 2.0, 2.0, 6.0, 5.0, 4.0, 1.0, 1.0, 9.0, 7.0, 8.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let a = paper_matrix();
        assert_eq!(a.rows(), 4);
        assert_eq!(a.cols(), 5);
        assert_eq!(a.nnz(), 12);
        assert_eq!(a.row_lengths(), vec![2, 5, 3, 2]);
    }

    #[test]
    fn sorts_unordered_input() {
        let a = CooMatrix::from_triplets(2, 2, &[1, 0, 1], &[0, 1, 1], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.row_indices(), &[0, 1, 1]);
        assert_eq!(a.col_indices(), &[1, 0, 1]);
        assert_eq!(a.values(), &[2.0, 1.0, 3.0]);
    }

    #[test]
    fn sorted_input_builds_the_same_matrix() {
        let (rows, cols, vals) = ([0, 0, 1, 2], [1, 3, 0, 3], [1.0, 2.0, 3.0, 4.0]);
        let sorted = CooMatrix::from_triplets(3, 4, &rows, &cols, &vals).unwrap();
        let order = [2, 0, 3, 1];
        let shuffled = CooMatrix::from_triplets(
            3,
            4,
            &order.map(|i| rows[i]),
            &order.map(|i| cols[i]),
            &order.map(|i| vals[i]),
        )
        .unwrap();
        assert_eq!(sorted, shuffled);
        assert_eq!(sorted.row_indices(), &[0, 0, 1, 2]);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let e = CooMatrix::from_triplets(2, 2, &[2], &[0], &[1.0]).unwrap_err();
        assert!(matches!(e, MatrixError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn rejects_shapes_past_u32_indices() {
        let big = (1usize << 32) + 1;
        let r = CooMatrix::from_triplets(big, 3, &[0, big - 1], &[0, 0], &[1.0f64, 2.0]);
        assert!(matches!(r, Err(MatrixError::ShapeMismatch { .. })));
        assert!(CooMatrix::<f64>::from_triplets(2, big, &[], &[], &[]).is_err());
        // Exactly 2^32 columns would make u32::MAX, ELL's padding marker,
        // a column index; 2^32 - 1 is the largest shape.
        let last = (1usize << 32) - 1;
        assert!(CooMatrix::from_triplets(1, 1 << 32, &[0], &[last], &[1.0f64]).is_err());
        assert!(CooMatrix::<f64>::from_triplets(1 << 32, 1, &[], &[], &[]).is_err());
        assert!(CooMatrix::<f64>::from_triplets(last, last, &[], &[], &[]).is_ok());
    }

    #[test]
    fn rejects_duplicates() {
        let e = CooMatrix::from_triplets(2, 2, &[0, 0], &[1, 1], &[1.0, 2.0]).unwrap_err();
        assert!(matches!(e, MatrixError::DuplicateEntry { row: 0, col: 1 }));
    }

    #[test]
    fn rejects_length_mismatch() {
        let e = CooMatrix::from_triplets(2, 2, &[0], &[1, 0], &[1.0]).unwrap_err();
        assert!(matches!(e, MatrixError::LengthMismatch { .. }));
    }

    #[test]
    fn spmv_reference_paper_example() {
        let a = paper_matrix();
        let y = a.spmv_reference(&[1.0; 5]).unwrap();
        assert_eq!(y, vec![5.0, 18.0, 17.0, 11.0]);
    }

    #[test]
    fn spmv_rejects_bad_x() {
        let a = paper_matrix();
        assert!(a.spmv_reference(&[1.0; 4]).is_err());
    }

    #[test]
    fn row_extraction() {
        let a = paper_matrix();
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[1, 2, 4]);
        assert_eq!(vals, &[1.0, 9.0, 7.0]);
        let (cols, _) = a.row(3);
        assert_eq!(cols, &[3, 4]);
    }

    #[test]
    fn row_offsets_match_paper_example() {
        let a = paper_matrix();
        assert_eq!(a.row_offsets(), vec![0, 2, 7, 10, 12]);
        // Empty rows repeat an offset; an empty matrix is all zeros.
        let b = CooMatrix::from_triplets(4, 4, &[0, 3], &[1, 2], &[1.0, 2.0]).unwrap();
        assert_eq!(b.row_offsets(), vec![0, 1, 1, 1, 2]);
        assert_eq!(CooMatrix::<f64>::zeros(2, 2).row_offsets(), vec![0, 0, 0]);
    }

    #[test]
    fn split_matches_paper_hyb_example() {
        // The paper splits A at k = 3: ELL part keeps the first 3 entries of
        // each row; COO part holds row 1's entries at columns 3 and 4.
        let a = paper_matrix();
        let (rows, cols, vals) = a.entries_past_width(&a.row_offsets(), 3);
        assert_eq!(a.nnz() - rows.len(), 10);
        assert_eq!(rows, &[1, 1]);
        assert_eq!(cols, &[3, 4]);
        assert_eq!(vals, &[4.0, 1.0]);
        // k = 0 keeps nothing in ELL; a width past every row keeps no tail.
        let (all, _, _) = a.entries_past_width(&a.row_offsets(), 0);
        assert_eq!(all, a.row_indices());
        let (none, _, _) = a.entries_past_width(&a.row_offsets(), usize::MAX);
        assert!(none.is_empty());
    }

    #[test]
    fn empty_matrix() {
        let a = CooMatrix::<f64>::zeros(3, 3);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.spmv_reference(&[1.0; 3]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn add_diagonal_to_existing_entries() {
        // Paper matrix is 4x5 (not square); build a square one.
        let a = CooMatrix::from_triplets(3, 3, &[0, 0, 1, 2], &[0, 2, 1, 0], &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        let b = a.add_diagonal(10.0);
        assert_eq!(b.nnz(), 5); // row 2 gains a diagonal entry
        let (cols0, vals0) = b.row(0);
        assert_eq!(cols0, &[0, 2]);
        assert_eq!(vals0, &[11.0, 2.0]);
        let (cols2, vals2) = b.row(2);
        assert_eq!(cols2, &[0, 2]);
        assert_eq!(vals2, &[4.0, 10.0]);
    }

    #[test]
    fn add_diagonal_preserves_sorted_invariant() {
        let a = CooMatrix::from_triplets(3, 3, &[0, 1, 2], &[2, 0, 1], &[1.0; 3]).unwrap();
        let b = a.add_diagonal(5.0);
        assert_eq!(b.nnz(), 6);
        // from_sorted_parts debug-asserts ordering; verify via row access.
        assert_eq!(b.row(0).0, &[0, 2]);
        assert_eq!(b.row(1).0, &[0, 1]);
        assert_eq!(b.row(2).0, &[1, 2]);
    }

    #[test]
    fn transpose_involution_and_product() {
        let a = paper_matrix();
        let at = a.transpose();
        assert_eq!(at.rows(), 5);
        assert_eq!(at.cols(), 4);
        assert_eq!(at.transpose(), a);
        // (A^T y)_c = sum_r a_rc y_r: check against manual computation.
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let aty = at.spmv_reference(&y).unwrap();
        let mut expect = vec![0.0; 5];
        for (r, c, v) in a.iter() {
            expect[c as usize] += v * y[r as usize];
        }
        assert_eq!(aty, expect);
    }

    #[test]
    fn bandwidth_of_banded_and_diagonal() {
        let tri = CooMatrix::from_triplets(3, 3, &[0, 1, 2, 0], &[0, 0, 1, 1], &[1.0; 4]).unwrap();
        assert_eq!(tri.bandwidth(), 1);
        let diag = CooMatrix::from_triplets(3, 3, &[0, 1], &[0, 1], &[1.0; 2]).unwrap();
        assert_eq!(diag.bandwidth(), 0);
        assert_eq!(CooMatrix::<f64>::zeros(2, 2).bandwidth(), 0);
    }

    #[test]
    fn symmetrized_is_symmetric() {
        let a = CooMatrix::from_triplets(3, 3, &[0, 1, 2, 0], &[1, 2, 0, 0], &[2.0, 4.0, 6.0, 1.0])
            .unwrap();
        let s = a.symmetrized();
        for (r, c, v) in s.iter() {
            let (cols, vals) = s.row(c);
            let pos = cols.iter().position(|&cc| cc == r).expect("mirror entry exists");
            assert_eq!(vals[pos], v, "s[{c},{r}] != s[{r},{c}]");
        }
        // (A + A^T)/2 halves one-sided entries.
        let (cols0, vals0) = s.row(0);
        assert_eq!(cols0, &[0, 1, 2]);
        assert_eq!(vals0, &[1.0, 1.0, 3.0]);
    }

    /// A seeded square matrix of `n` rows with entry density `density`;
    /// values include ±0.0, ±1, and values whose halves round.
    fn seeded_square(n: usize, density: f64, seed: u64) -> CooMatrix<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (mut ri, mut ci, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..n {
            for c in 0..n {
                if rng.gen_bool(density) {
                    ri.push(r);
                    ci.push(c);
                    vals.push(match rng.gen_range(0..6) {
                        0 => -0.0,
                        1 => 0.0,
                        2 => -1.0,
                        3 => f64::MIN_POSITIVE,
                        _ => rng.gen_range(-1e3..1e3),
                    });
                }
            }
        }
        CooMatrix::from_triplets(n, n, &ri, &ci, &vals).unwrap()
    }

    fn bits(a: &CooMatrix<f64>) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
        let vals = a.values().iter().map(|v| v.to_bits()).collect();
        (a.row_indices().to_vec(), a.col_indices().to_vec(), vals)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn symmetrized_and_add_diagonal_match_their_oracles(
            n in 0usize..40,
            density in 0.0f64..0.6,
            shift in -2.0f64..2.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let a = seeded_square(n, density, seed);
            proptest::prop_assert_eq!(bits(&a.symmetrized()), bits(&a.symmetrized_oracle()));
            proptest::prop_assert_eq!(bits(&a.add_diagonal(shift)), bits(&a.add_diagonal_oracle(shift)));
            // A shift of -0.0 keeps the sign of created diagonal entries.
            proptest::prop_assert_eq!(bits(&a.add_diagonal(-0.0)), bits(&a.add_diagonal_oracle(-0.0)));
            let s = a.symmetrized();
            proptest::prop_assert_eq!(bits(&s.add_diagonal(shift)), bits(&s.add_diagonal_oracle(shift)));
        }
    }

    #[test]
    fn symmetrized_turns_negative_zero_into_positive_zero() {
        let a: CooMatrix<f64> =
            CooMatrix::from_triplets(2, 2, &[0, 1], &[1, 1], &[-0.0, -0.0]).unwrap();
        let s = a.symmetrized();
        assert_eq!(s.col_indices(), &[1, 0, 1]);
        assert!(s.values().iter().all(|v| v.to_bits() == 0), "{:?}", s.values());
        assert_eq!(bits(&s), bits(&a.symmetrized_oracle()));
    }

    #[test]
    fn max_offdiag_row_sum() {
        let a = CooMatrix::from_triplets(2, 2, &[0, 0, 1], &[0, 1, 0], &[5.0, -3.0, 2.0]).unwrap();
        assert_eq!(a.max_offdiag_row_sum(), 3.0);
    }
}
