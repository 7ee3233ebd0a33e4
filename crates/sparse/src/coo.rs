use crate::{CsrMatrix, Result, SparseError};

/// A coordinate-format (triplet) sparse matrix builder.
///
/// COO is the natural format for assembling graph matrices (adjacency,
/// Laplacian) entry by entry; convert to [`CsrMatrix`] with
/// [`CooMatrix::to_csr`] for fast products. Duplicate entries are summed
/// during conversion, matching the behaviour of scipy's `coo_matrix`.
///
/// # Examples
///
/// ```
/// use gana_sparse::CooMatrix;
///
/// # fn main() -> Result<(), gana_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 1.0)?;
/// coo.push(0, 1, 2.0)?; // duplicates are summed on conversion
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty `rows × cols` COO matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with capacity for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Appends the triplet `(r, c, v)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if `(r, c)` is outside the
    /// declared shape.
    pub fn push(&mut self, r: usize, c: usize, v: f64) -> Result<()> {
        if r >= self.rows || c >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                index: (r, c),
                shape: (self.rows, self.cols),
            });
        }
        self.entries.push((r, c, v));
        Ok(())
    }

    /// Appends both `(r, c, v)` and `(c, r, v)`; convenient for undirected graphs.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if either index is outside
    /// the declared shape.
    pub fn push_symmetric(&mut self, r: usize, c: usize, v: f64) -> Result<()> {
        self.push(r, c, v)?;
        if r != c {
            self.push(c, r, v)?;
        }
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over the stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Converts to CSR, summing duplicate coordinates and dropping explicit
    /// zeros that result from cancellation.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row, then sort each row segment by column and
        // merge duplicates.
        let mut row_counts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.rows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut sorted: Vec<(usize, f64)> = vec![(0, 0.0); self.entries.len()];
        let mut cursor = row_counts.clone();
        let mut row_of = vec![0usize; self.entries.len()];
        for &(r, c, v) in &self.entries {
            let pos = cursor[r];
            sorted[pos] = (c, v);
            row_of[pos] = r;
            cursor[r] += 1;
        }

        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        indptr.push(0);
        for r in 0..self.rows {
            let seg = &mut sorted[row_counts[r]..row_counts[r + 1]];
            seg.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < seg.len() {
                let col = seg[i].0;
                let mut sum = 0.0;
                while i < seg.len() && seg[i].0 == col {
                    sum += seg[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    indices.push(col);
                    values.push(sum);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(self.rows, self.cols, indptr, indices, values)
            .expect("COO conversion produces well-formed CSR by construction")
    }
}

impl FromIterator<(usize, usize, f64)> for CooMatrix {
    /// Builds a COO matrix whose shape is the tight bounding box of the
    /// provided triplets.
    fn from_iter<I: IntoIterator<Item = (usize, usize, f64)>>(iter: I) -> Self {
        let entries: Vec<_> = iter.into_iter().collect();
        let rows = entries.iter().map(|&(r, _, _)| r + 1).max().unwrap_or(0);
        let cols = entries.iter().map(|&(_, c, _)| c + 1).max().unwrap_or(0);
        CooMatrix {
            rows,
            cols,
            entries,
        }
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    /// Extends with triplets, growing the shape if an index exceeds it.
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.rows = self.rows.max(r + 1);
            self.cols = self.cols.max(c + 1);
            self.entries.push((r, c, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        let err = coo.push(2, 0, 1.0).expect_err("row out of range");
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.5).expect("in bounds");
        coo.push(0, 0, 2.5).expect("in bounds");
        coo.push(1, 1, 1.0).expect("in bounds");
        coo.push(1, 1, -1.0).expect("in bounds");
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 4.0);
        assert_eq!(csr.nnz(), 1, "cancelled entry must be dropped");
    }

    #[test]
    fn push_symmetric_mirrors_off_diagonal() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 2, 1.0).expect("in bounds");
        coo.push_symmetric(1, 1, 5.0).expect("in bounds");
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 2), 1.0);
        assert_eq!(csr.get(2, 0), 1.0);
        assert_eq!(csr.get(1, 1), 5.0, "diagonal must not be doubled");
    }

    #[test]
    fn from_iterator_infers_shape() {
        let coo: CooMatrix = [(0, 0, 1.0), (3, 5, 2.0)].into_iter().collect();
        assert_eq!(coo.rows(), 4);
        assert_eq!(coo.cols(), 6);
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn extend_grows_shape() {
        let mut coo = CooMatrix::new(1, 1);
        coo.extend([(4, 2, 1.0)]);
        assert_eq!(coo.rows(), 5);
        assert_eq!(coo.cols(), 3);
    }

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.rows(), 3);
    }
}
