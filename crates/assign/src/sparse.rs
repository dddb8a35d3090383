//! Sparse cost matrices and a sparse-aware shortest-augmenting-path solver.
//!
//! The blocked value matcher knows, per block, exactly which (row, col)
//! cells are candidates — every other cell carries one shared *masked* cost
//! (the big-M `PRUNED_COST` of the matcher).  Materialising that as a dense
//! [`CostMatrix`] costs O(rows × cols) memory and `from_fn` closure calls per
//! block even when only a handful of cells are candidates.
//! [`SparseCostMatrix`] stores the candidate cells alone (CSR layout) plus
//! the masked cost, and [`sparse_shortest_augmenting_path`] solves it with
//! results **bit-identical** to running [`shortest_augmenting_path`] on the
//! equivalent dense matrix ([`to_dense`](SparseCostMatrix::to_dense)).
//!
//! Bit-identicality is the load-bearing guarantee, not an optimisation nicety:
//! the escalation-equivalence harness asserts that blocked (sparse-solved)
//! match groups equal the exhaustive (dense-solved) groups, ties included.  A
//! "forbidden-edge" sparse solver would *not* satisfy it — under a finite
//! big-M, an augmenting path may displace a row onto a masked cell so a
//! cheaper competitor takes its candidate column, which infinite-cost edges
//! cannot express.  The sparse solver therefore replays the dense algorithm's
//! exact arithmetic: each row's candidate costs are scattered into a dense
//! per-column buffer primed with the masked cost, the Dijkstra scan reads the
//! buffer exactly like the dense solver reads its matrix row, and the buffer
//! is un-scattered afterwards.  Identical float operations in identical order
//! give identical duals, identical tie-breaks and identical pairs; the win is
//! skipping the O(rows × cols) matrix build and its memory, not changing the
//! search.
//!
//! [`shortest_augmenting_path`]: crate::shortest_augmenting_path

use std::fmt;

use crate::matrix::CostMatrix;
use crate::Assignment;

/// A `rows × cols` cost matrix stored as candidate cells (CSR) plus one
/// shared masked cost for every other cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCostMatrix {
    rows: usize,
    cols: usize,
    masked_cost: f64,
    /// CSR row pointers: row `r`'s entries live at `row_ptr[r]..row_ptr[r+1]`.
    row_ptr: Vec<usize>,
    /// Column index of each entry, ascending within a row.
    col_idx: Vec<usize>,
    /// Cost of each entry, aligned with `col_idx`.
    costs: Vec<f64>,
}

/// Errors building a [`SparseCostMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub enum SparseCostError {
    /// An entry's coordinates fall outside the matrix shape.
    OutOfBounds { row: usize, col: usize },
    /// Entries are not in ascending row-major order, or a cell repeats.
    Unsorted { index: usize },
    /// An entry cost — or the masked cost — is NaN.
    NaNCost { row: usize, col: usize },
}

impl fmt::Display for SparseCostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseCostError::OutOfBounds { row, col } => {
                write!(f, "sparse cost entry ({row}, {col}) is outside the matrix")
            }
            SparseCostError::Unsorted { index } => {
                write!(f, "sparse cost entries must be sorted row-major and unique (entry {index})")
            }
            SparseCostError::NaNCost { row, col } => {
                write!(f, "sparse cost at ({row}, {col}) must not be NaN")
            }
        }
    }
}

impl std::error::Error for SparseCostError {}

impl SparseCostMatrix {
    /// Builds a sparse matrix from `(row, col, cost)` candidate entries.
    /// Entries must be in strictly ascending row-major order (the planner's
    /// canonical pair order); every non-entry cell costs `masked_cost`.
    pub fn from_entries(
        rows: usize,
        cols: usize,
        masked_cost: f64,
        entries: &[(usize, usize, f64)],
    ) -> Result<Self, SparseCostError> {
        if masked_cost.is_nan() {
            return Err(SparseCostError::NaNCost { row: usize::MAX, col: usize::MAX });
        }
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut costs = Vec::with_capacity(entries.len());
        let mut previous: Option<(usize, usize)> = None;
        for (index, &(row, col, cost)) in entries.iter().enumerate() {
            if row >= rows || col >= cols {
                return Err(SparseCostError::OutOfBounds { row, col });
            }
            if cost.is_nan() {
                return Err(SparseCostError::NaNCost { row, col });
            }
            if previous.is_some_and(|p| p >= (row, col)) {
                return Err(SparseCostError::Unsorted { index });
            }
            previous = Some((row, col));
            row_ptr[row + 1] += 1;
            col_idx.push(col);
            costs.push(cost);
        }
        for r in 1..row_ptr.len() {
            row_ptr[r] += row_ptr[r - 1];
        }
        Ok(SparseCostMatrix { rows, cols, masked_cost, row_ptr, col_idx, costs })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of candidate (explicitly stored) cells.
    pub fn candidate_cells(&self) -> usize {
        self.col_idx.len()
    }

    /// The cost of every cell that is not a candidate entry.
    pub fn masked_cost(&self) -> f64 {
        self.masked_cost
    }

    /// `true` when the matrix has no cells at all.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The cost at `(row, col)`: the entry's cost if the cell is a
    /// candidate, the masked cost otherwise.
    ///
    /// # Panics
    /// Panics when the indices are out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "sparse cost matrix index out of range");
        let (cols, costs) = self.row_entries(row);
        match cols.binary_search(&col) {
            Ok(k) => costs[k],
            Err(_) => self.masked_cost,
        }
    }

    /// Row `row`'s candidate entries as `(column indices, costs)` slices,
    /// column-ascending.
    ///
    /// # Panics
    /// Panics when `row` is out of range.
    pub fn row_entries(&self, row: usize) -> (&[usize], &[f64]) {
        assert!(row < self.rows, "sparse cost matrix row out of range");
        let span = self.row_ptr[row]..self.row_ptr[row + 1];
        (&self.col_idx[span.clone()], &self.costs[span])
    }

    /// Transposes the matrix in O(entries + rows + cols); the masked cost is
    /// shared, so values are preserved exactly.
    pub fn transpose(&self) -> SparseCostMatrix {
        let nnz = self.col_idx.len();
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 1..row_ptr.len() {
            row_ptr[c] += row_ptr[c - 1];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0usize; nnz];
        let mut costs = vec![0f64; nnz];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                col_idx[cursor[c]] = r;
                costs[cursor[c]] = self.costs[k];
                cursor[c] += 1;
            }
        }
        SparseCostMatrix {
            rows: self.cols,
            cols: self.rows,
            masked_cost: self.masked_cost,
            row_ptr,
            col_idx,
            costs,
        }
    }

    /// The equivalent dense matrix — the reference object the sparse solver
    /// is bit-identical against (tests and cross-checks only; building it is
    /// exactly the cost the sparse path exists to avoid).
    pub fn to_dense(&self) -> CostMatrix {
        CostMatrix::from_fn(self.rows, self.cols, |r, c| self.get(r, c))
    }
}

/// Solves the rectangular assignment problem over a sparse cost matrix,
/// minimising total cost — bit-identical to
/// [`shortest_augmenting_path`](crate::shortest_augmenting_path) over
/// [`to_dense`](SparseCostMatrix::to_dense) (see the [module docs](self) for
/// why identity, not mere cost-equivalence, is the contract).
pub fn sparse_shortest_augmenting_path(matrix: &SparseCostMatrix) -> Assignment {
    if matrix.is_empty() {
        return Assignment { pairs: Vec::new(), total_cost: 0.0 };
    }

    // The core routine assumes rows <= cols; transpose otherwise.
    let transposed = matrix.rows() > matrix.cols();
    let work;
    let m: &SparseCostMatrix = if transposed {
        work = matrix.transpose();
        &work
    } else {
        matrix
    };

    let nr = m.rows();
    let nc = m.cols();

    let mut u = vec![0.0f64; nr];
    let mut v = vec![0.0f64; nc];
    let mut shortest_path_costs = vec![f64::INFINITY; nc];
    let mut path = vec![usize::MAX; nc];
    let mut col4row = vec![usize::MAX; nr];
    let mut row4col = vec![usize::MAX; nc];
    let mut sr = vec![false; nr];
    let mut sc = vec![false; nc];
    // The scatter buffer: primed with the masked cost, row `i`'s candidate
    // costs are written in before its scan and reverted after, so the scan
    // body reads exactly what the dense solver's `m.get(i, j)` would return.
    let mut row_cost = vec![m.masked_cost(); nc];

    'rows: for cur_row in 0..nr {
        let mut min_val = 0.0f64;
        let mut i = cur_row;
        // Columns not yet scanned in this augmentation.
        let mut remaining: Vec<usize> = (0..nc).rev().collect();
        sr.iter_mut().for_each(|x| *x = false);
        sc.iter_mut().for_each(|x| *x = false);
        shortest_path_costs.iter_mut().for_each(|x| *x = f64::INFINITY);

        let mut sink = usize::MAX;
        while sink == usize::MAX {
            sr[i] = true;
            let (cols_i, costs_i) = m.row_entries(i);
            for (k, &j) in cols_i.iter().enumerate() {
                row_cost[j] = costs_i[k];
            }
            let mut index = usize::MAX;
            let mut lowest = f64::INFINITY;
            #[allow(
                clippy::float_cmp,
                reason = "exact tie-break, as in scipy's linear_sum_assignment: both sides are \
                          stored path costs, and an epsilon would change which column wins"
            )]
            for (it, &j) in remaining.iter().enumerate() {
                let r = min_val + row_cost[j] - u[i] - v[j];
                if r < shortest_path_costs[j] {
                    path[j] = i;
                    shortest_path_costs[j] = r;
                }
                // Prefer unmatched columns on ties so augmentation terminates
                // as early as possible.
                if shortest_path_costs[j] < lowest
                    || (shortest_path_costs[j] == lowest && row4col[j] == usize::MAX)
                {
                    lowest = shortest_path_costs[j];
                    index = it;
                }
            }
            for &j in cols_i {
                row_cost[j] = m.masked_cost();
            }

            min_val = lowest;
            if !min_val.is_finite() {
                // No augmenting path with finite cost: this row stays
                // unmatched.  Skip it without touching the duals.
                continue 'rows;
            }
            let j = remaining[index];
            if row4col[j] == usize::MAX {
                sink = j;
            } else {
                i = row4col[j];
            }
            sc[j] = true;
            remaining.swap_remove(index);
        }

        // Update dual variables.
        u[cur_row] += min_val;
        for r in 0..nr {
            if sr[r] && r != cur_row {
                u[r] += min_val - shortest_path_costs[col4row[r]];
            }
        }
        for c in 0..nc {
            if sc[c] {
                v[c] -= min_val - shortest_path_costs[c];
            }
        }

        // Augment along the found path.
        let mut j = sink;
        loop {
            let i = path[j];
            row4col[j] = i;
            std::mem::swap(&mut col4row[i], &mut j);
            if i == cur_row {
                break;
            }
        }
    }

    let mut pairs = Vec::with_capacity(nr);
    for (r, &c) in col4row.iter().enumerate() {
        if c != usize::MAX {
            let (row, col) = if transposed { (c, r) } else { (r, c) };
            pairs.push((row, col));
        }
    }
    Assignment::from_pairs_with(|r, c| matrix.get(r, c), pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_augmenting_path;

    const MASK: f64 = 1.0e6;

    fn assert_bit_identical(sparse: &SparseCostMatrix) {
        let dense_solution = shortest_augmenting_path(&sparse.to_dense());
        let sparse_solution = sparse_shortest_augmenting_path(sparse);
        assert_eq!(sparse_solution.pairs, dense_solution.pairs);
        assert_eq!(
            sparse_solution.total_cost.to_bits(),
            dense_solution.total_cost.to_bits(),
            "sparse {} vs dense {}",
            sparse_solution.total_cost,
            dense_solution.total_cost
        );
    }

    #[test]
    fn empty_matrix_matches_nothing() {
        for (rows, cols) in [(0usize, 0usize), (0, 4), (4, 0)] {
            let m = SparseCostMatrix::from_entries(rows, cols, MASK, &[]).unwrap();
            assert!(m.is_empty());
            let a = sparse_shortest_augmenting_path(&m);
            assert!(a.is_empty());
            assert_eq!(a.total_cost, 0.0);
        }
    }

    #[test]
    fn one_by_n_picks_the_cheapest_candidate() {
        let m = SparseCostMatrix::from_entries(1, 5, MASK, &[(0, 1, 0.4), (0, 3, 0.2)]).unwrap();
        let a = sparse_shortest_augmenting_path(&m);
        assert_eq!(a.pairs, vec![(0, 3)]);
        assert_eq!(a.total_cost, 0.2);
        assert_bit_identical(&m);
        // The tall twin goes through the transpose path.
        assert_bit_identical(&m.transpose());
    }

    #[test]
    fn all_cells_above_threshold_thresholds_to_nothing() {
        let m = SparseCostMatrix::from_entries(2, 2, MASK, &[(0, 0, 0.9), (1, 1, 0.8)]).unwrap();
        let a = sparse_shortest_augmenting_path(&m);
        assert_eq!(a.pairs, vec![(0, 0), (1, 1)]);
        let t = a.threshold_with(|r, c| m.get(r, c), 0.7);
        assert!(t.is_empty());
        assert_eq!(t.total_cost, 0.0);
    }

    #[test]
    fn masked_displacement_matches_the_dense_big_m_semantics() {
        // Both rows are candidates only for column 0; column 1 is masked for
        // everyone.  Under a finite big-M the dense solver still matches both
        // rows (one of them onto the masked column), so the *cheaper* row
        // keeps the candidate column.  A forbidden-edge solver would instead
        // keep whichever row augmented first — this case is why the sparse
        // solver replays the dense arithmetic.
        let m = SparseCostMatrix::from_entries(2, 2, MASK, &[(0, 0, 0.6), (1, 0, 0.2)]).unwrap();
        let a = sparse_shortest_augmenting_path(&m);
        assert_bit_identical(&m);
        let kept = a.threshold_with(|r, c| m.get(r, c), 0.7);
        assert_eq!(kept.pairs, vec![(1, 0)], "the cheaper candidate must win column 0");
    }

    #[test]
    fn rectangular_cases_are_bit_identical_to_dense() {
        let wide = SparseCostMatrix::from_entries(
            2,
            4,
            MASK,
            &[(0, 1, 1.0), (0, 2, 0.5), (1, 2, 0.25), (1, 3, 2.0)],
        )
        .unwrap();
        assert_bit_identical(&wide);
        assert_bit_identical(&wide.transpose());
        // Negative and tied costs exercise the tie-break path.
        let tied = SparseCostMatrix::from_entries(
            3,
            3,
            MASK,
            &[(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5), (2, 2, -1.0)],
        )
        .unwrap();
        assert_bit_identical(&tied);
    }

    #[test]
    fn accessors_and_dense_round_trip() {
        let m = SparseCostMatrix::from_entries(2, 3, MASK, &[(0, 2, 0.1), (1, 0, 0.2)]).unwrap();
        assert_eq!((m.rows(), m.cols(), m.candidate_cells()), (2, 3, 2));
        assert_eq!(m.masked_cost(), MASK);
        assert_eq!(m.get(0, 2), 0.1);
        assert_eq!(m.get(0, 0), MASK);
        assert_eq!(m.row_entries(1), (&[0usize][..], &[0.2f64][..]));
        let dense = m.to_dense();
        let transposed = m.transpose();
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), dense.get(r, c));
                assert_eq!(m.get(r, c), transposed.get(c, r));
            }
        }
    }

    #[test]
    fn from_entries_rejects_bad_input() {
        assert_eq!(
            SparseCostMatrix::from_entries(2, 2, MASK, &[(0, 2, 0.1)]),
            Err(SparseCostError::OutOfBounds { row: 0, col: 2 })
        );
        assert_eq!(
            SparseCostMatrix::from_entries(2, 2, MASK, &[(1, 0, 0.1), (0, 0, 0.2)]),
            Err(SparseCostError::Unsorted { index: 1 })
        );
        assert_eq!(
            SparseCostMatrix::from_entries(2, 2, MASK, &[(0, 0, 0.1), (0, 0, 0.2)]),
            Err(SparseCostError::Unsorted { index: 1 })
        );
        assert_eq!(
            SparseCostMatrix::from_entries(2, 2, MASK, &[(0, 0, f64::NAN)]),
            Err(SparseCostError::NaNCost { row: 0, col: 0 })
        );
        assert!(SparseCostMatrix::from_entries(2, 2, f64::NAN, &[]).is_err());
    }
}
