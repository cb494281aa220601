//! Packed storage for dense **symmetric** matrices.
//!
//! The Galerkin BEM matrix `R` of the paper is symmetric (§4.2: "a Galerkin
//! type approach, since the matrix of coefficients is symmetric and positive
//! definite") and dense. We store only the lower triangle, row-major:
//!
//! ```text
//! row 0: a00
//! row 1: a10 a11
//! row 2: a20 a21 a22   →  [a00, a10, a11, a20, a21, a22, ...]
//! ```
//!
//! Entry `(i, j)` with `i ≥ j` lives at offset `i(i+1)/2 + j`. For order
//! `N = O(10³)` the triangle holds `N(N+1)/2 = O(10⁶)` doubles — matching
//! the paper's observation that "if N = O(10³) then the matrix size is
//! O(10⁶) bytes" (they counted elements).

use std::ops::Range;

/// Packed offset of the first entry of row `r` (= the triangular number
/// `r(r+1)/2`, also the number of entries strictly above row `r`).
#[inline]
fn row_start(r: usize) -> usize {
    r * (r + 1) / 2
}

/// Dense symmetric matrix in packed lower-triangular storage.
///
/// ```
/// use layerbem_numeric::SymMatrix;
/// let mut a = SymMatrix::zeros(3);
/// a.set(0, 0, 4.0);
/// a.set(1, 1, 5.0);
/// a.set(2, 2, 6.0);
/// a.set(2, 0, 2.0); // also sets (0, 2) by symmetry
/// assert_eq!(a.get(0, 2), 2.0);
/// let y = a.matvec_alloc(&[1.0, 0.0, 1.0]);
/// assert_eq!(y, vec![6.0, 0.0, 8.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SymMatrix {
    n: usize,
    /// Lower triangle, row-major; length `n(n+1)/2`.
    data: Vec<f64>,
}

impl SymMatrix {
    /// Creates a zero matrix of order `n`.
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; n * (n + 1) / 2],
        }
    }

    /// Builds a matrix from a packed lower triangle (row-major).
    ///
    /// # Panics
    /// Panics if `packed.len() != n(n+1)/2`.
    pub fn from_packed(n: usize, packed: Vec<f64>) -> Self {
        assert_eq!(
            packed.len(),
            n * (n + 1) / 2,
            "packed length must be n(n+1)/2"
        );
        SymMatrix { n, data: packed }
    }

    /// Matrix order.
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored (triangle) entries.
    #[inline]
    pub fn stored_len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i >= j, "idx requires i >= j");
        i * (i + 1) / 2 + j
    }

    /// Returns entry `(i, j)` (either triangle).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.data[self.idx(i, j)]
    }

    /// Sets entry `(i, j)` (and by symmetry `(j, i)`).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        let k = self.idx(i, j);
        self.data[k] = v;
    }

    /// Adds `v` to entry `(i, j)` (and by symmetry `(j, i)`).
    ///
    /// This is the assembly primitive: elemental matrices are accumulated
    /// into the global triangle with it.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        let k = self.idx(i, j);
        self.data[k] += v;
    }

    /// Read-only view of the packed triangle.
    pub fn packed(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the packed triangle (used by the parallel assembler
    /// after partitioning rows disjointly).
    pub fn packed_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the packed triangle.
    pub fn into_packed(self) -> Vec<f64> {
        self.data
    }

    /// Splits the matrix into disjoint mutable row-range views.
    ///
    /// Because storage is lower-triangle **row-major**, the rows `a..b`
    /// occupy the contiguous packed slice `a(a+1)/2 .. b(b+1)/2`, so a
    /// row-range view is a plain sub-slice borrow: the split is zero-copy
    /// and the views are race-free by construction — no two views can
    /// reach the same entry, which is what lets the in-place parallel
    /// assembler write the global matrix with no staging and no locks.
    ///
    /// `ranges` must be sorted ascending and pairwise disjoint; gaps are
    /// allowed (rows not covered by any range are simply not mutable
    /// through the returned views). Empty ranges yield views that own no
    /// entry.
    ///
    /// # Panics
    /// Panics if a range exceeds the matrix order, ranges overlap, or they
    /// are not sorted ascending.
    ///
    /// ```
    /// use layerbem_numeric::SymMatrix;
    /// let mut a = SymMatrix::zeros(4);
    /// let mut views = a.partition_rows(&[0..2, 2..4]);
    /// assert!(views[1].owns(3, 1));
    /// views[1].add(3, 1, 2.5); // row 3 belongs to the second view
    /// views[0].add(0, 1, 1.0); // entry (1, 0) by symmetry
    /// drop(views);
    /// assert_eq!(a.get(1, 3), 2.5);
    /// assert_eq!(a.get(1, 0), 1.0);
    /// ```
    pub fn partition_rows(&mut self, ranges: &[Range<usize>]) -> Vec<SymRowsMut<'_>> {
        let n = self.n;
        let mut views = Vec::with_capacity(ranges.len());
        let mut consumed = 0; // packed entries already handed out
        let mut rest: &mut [f64] = &mut self.data;
        for r in ranges {
            assert!(r.end <= n, "partition_rows: range {r:?} exceeds order {n}");
            assert!(
                row_start(r.start) >= consumed,
                "partition_rows: ranges must be sorted ascending and disjoint"
            );
            // Skip the gap between the previous view and this range, then
            // split off this range's packed rows.
            let (_, tail) = rest.split_at_mut(row_start(r.start) - consumed);
            let (rows, tail) = tail.split_at_mut(row_start(r.end) - row_start(r.start));
            views.push(SymRowsMut {
                rows: r.clone(),
                data: rows,
            });
            consumed = row_start(r.end);
            rest = tail;
        }
        views
    }

    /// Copies the diagonal into a fresh vector (Jacobi preconditioner).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.data[self.idx(i, i)]).collect()
    }

    /// Dense matrix–vector product `y = A·x` exploiting symmetry:
    /// each stored entry `a_ij` (i>j) contributes to both `y_i` and `y_j`.
    ///
    /// # Panics
    /// Panics if `x.len() != n` or `y.len() != n`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec: x length");
        assert_eq!(y.len(), self.n, "matvec: y length");
        y.fill(0.0);
        let mut k = 0;
        for i in 0..self.n {
            let xi = x[i];
            let mut acc = 0.0;
            // Off-diagonal part of row i (columns j < i).
            for j in 0..i {
                let a = self.data[k];
                acc += a * x[j];
                y[j] += a * xi;
                k += 1;
            }
            // Diagonal.
            acc += self.data[k] * xi;
            k += 1;
            y[i] += acc;
        }
    }

    /// Convenience allocating matvec.
    pub fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec(x, &mut y);
        y
    }

    /// Expands to full dense storage (testing / LU cross-checks).
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..=i {
                let v = self.get(i, j);
                d.set(i, j, v);
                d.set(j, i, v);
            }
        }
        d
    }
}

/// Exclusive view of a contiguous row range of a packed [`SymMatrix`].
///
/// A view *owns* entry `(i, j)` when the larger of the two indices — the
/// packed row the entry is stored in — falls inside the view's range.
/// Views over disjoint ranges therefore own disjoint packed slices, and
/// several of them can be written from different threads without
/// synchronization (see [`SymMatrix::partition_rows`]).
#[derive(Debug)]
pub struct SymRowsMut<'a> {
    rows: Range<usize>,
    /// Packed rows `rows.start..rows.end` of the parent triangle.
    data: &'a mut [f64],
}

impl SymRowsMut<'_> {
    /// The row range this view owns.
    #[inline]
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Whether entry `(i, j)` (either triangle) is stored in this view.
    #[inline]
    pub fn owns(&self, i: usize, j: usize) -> bool {
        self.rows.contains(&i.max(j))
    }

    /// Local offset of entry `(i, j)`; `i.max(j)` must be in range.
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        debug_assert!(self.rows.contains(&i), "entry ({i},{j}) not in this view");
        row_start(i) - row_start(self.rows.start) + j
    }

    /// Returns entry `(i, j)` (either triangle).
    ///
    /// # Panics
    /// Panics (in debug) or misindexes if the entry is not owned; check
    /// with [`owns`](Self::owns) first.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Sets entry `(i, j)` (and by symmetry `(j, i)`).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        self.data[k] = v;
    }

    /// Adds `v` to entry `(i, j)` (and by symmetry `(j, i)`) — the
    /// in-place assembly primitive: each thread accumulates elemental
    /// contributions straight into the rows it owns.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        self.data[k] += v;
    }

    /// Mutable borrow of the packed row `i` (entries `(i, 0..=i)`).
    ///
    /// # Panics
    /// Panics if `i` is outside the view's range.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(self.rows.contains(&i), "row {i} not in {:?}", self.rows);
        let start = row_start(i) - row_start(self.rows.start);
        &mut self.data[start..start + i + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn sample() -> SymMatrix {
        // [ 4 1 2 ]
        // [ 1 5 3 ]
        // [ 2 3 6 ]
        SymMatrix::from_packed(3, vec![4.0, 1.0, 5.0, 2.0, 3.0, 6.0])
    }

    #[test]
    fn get_is_symmetric() {
        let a = sample();
        assert_eq!(a.get(0, 1), a.get(1, 0));
        assert_eq!(a.get(2, 1), 3.0);
        assert_eq!(a.get(1, 2), 3.0);
    }

    #[test]
    fn set_and_add_mirror() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 1, 7.0);
        assert_eq!(a.get(1, 0), 7.0);
        a.add(1, 0, 3.0);
        assert_eq!(a.get(0, 1), 10.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let x = [1.0, -2.0, 0.5];
        let y = a.matvec_alloc(&x);
        // Hand-computed: [4-2+1, 1-10+1.5, 2-6+3]
        assert!(approx_eq(y[0], 3.0, 1e-15));
        assert!(approx_eq(y[1], -7.5, 1e-15));
        assert!(approx_eq(y[2], -1.0, 1e-15));
    }

    #[test]
    fn matvec_agrees_with_to_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = [0.3, 1.7, -2.2];
        let y1 = a.matvec_alloc(&x);
        let y2 = d.matvec_alloc(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!(approx_eq(*u, *v, 1e-14));
        }
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(sample().diagonal(), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn stored_len_is_triangular_number() {
        assert_eq!(SymMatrix::zeros(238).stored_len(), 238 * 239 / 2);
    }

    #[test]
    #[should_panic(expected = "n(n+1)/2")]
    fn from_packed_validates_length() {
        SymMatrix::from_packed(3, vec![0.0; 5]);
    }

    #[test]
    fn partition_rows_views_cover_disjoint_packed_slices() {
        let mut a = SymMatrix::zeros(6);
        let views = a.partition_rows(&[0..2, 2..3, 3..6]);
        assert_eq!(views.len(), 3);
        assert_eq!(views[0].rows(), 0..2);
        assert_eq!(views[1].rows(), 2..3);
        assert_eq!(views[2].rows(), 3..6);
        // Packed lengths: rows 0..2 → 3 entries, row 2 → 3, rows 3..6 → 15.
        assert_eq!(views[0].data.len(), 3);
        assert_eq!(views[1].data.len(), 3);
        assert_eq!(views[2].data.len(), 15);
    }

    #[test]
    fn partition_add_matches_whole_matrix_add() {
        let entries = [
            (0, 0, 1.0),
            (2, 1, 2.0),
            (1, 2, 3.0),
            (5, 5, -4.0),
            (3, 0, 0.5),
        ];
        let mut whole = SymMatrix::zeros(6);
        for &(i, j, v) in &entries {
            whole.add(i, j, v);
        }
        let mut split = SymMatrix::zeros(6);
        let mut views = split.partition_rows(&[0..3, 3..6]);
        for &(i, j, v) in &entries {
            let owner = views.iter_mut().find(|w| w.owns(i, j)).expect("covered");
            owner.add(i, j, v);
        }
        drop(views);
        assert_eq!(whole.packed(), split.packed());
    }

    #[test]
    fn partition_allows_gaps_and_ownership_is_by_max_index() {
        let mut a = SymMatrix::zeros(5);
        let views = a.partition_rows(&[1..2, 4..5]);
        assert!(views[0].owns(1, 0));
        assert!(views[0].owns(0, 1)); // symmetric: stored in row 1
        assert!(!views[0].owns(0, 0)); // row 0 not covered
        assert!(!views[0].owns(2, 1)); // row 2 not covered
        assert!(views[1].owns(4, 4));
        assert!(views[1].owns(2, 4));
    }

    #[test]
    // A one-element range slice is exactly what's meant here, not a
    // range-to-Vec collect.
    #[allow(clippy::single_range_in_vec_init)]
    fn partition_view_get_set_and_row_mut() {
        let mut a = sample();
        {
            let mut views = a.partition_rows(&[1..3]);
            assert_eq!(views[0].get(2, 1), 3.0);
            views[0].set(1, 1, 50.0);
            let row2 = views[0].row_mut(2);
            assert_eq!(row2, &[2.0, 3.0, 6.0]);
            row2[0] = -2.0;
        }
        assert_eq!(a.get(1, 1), 50.0);
        assert_eq!(a.get(0, 2), -2.0);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn partition_rejects_overlap() {
        let mut a = SymMatrix::zeros(6);
        a.partition_rows(&[0..3, 2..6]);
    }

    #[test]
    #[should_panic(expected = "exceeds order")]
    #[allow(clippy::single_range_in_vec_init)]
    fn partition_rejects_out_of_range() {
        let mut a = SymMatrix::zeros(4);
        a.partition_rows(&[2..5]);
    }
}
