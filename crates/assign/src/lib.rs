//! # lake-assign
//!
//! Linear sum assignment solvers for bipartite value matching.
//!
//! The fuzzy value matcher of the paper matches the values of two aligned
//! columns by solving a *rectangular linear sum assignment problem* over the
//! matrix of cosine distances (the paper uses scipy's
//! `linear_sum_assignment`, itself an implementation of the shortest
//! augmenting path algorithm of Crouse 2016).  This crate provides:
//!
//! * [`shortest_augmenting_path`] — exact solver for dense rectangular
//!   matrices (scipy-equivalent), checked against brute-force enumeration in
//!   `tests/solver_properties.rs`;
//! * [`sparse_shortest_augmenting_path`] — the same solver over enumerated
//!   candidate cells only, bit-identical to the dense one
//!   (`tests/sparse_equivalence.rs`);
//! * [`mod@greedy`] — a cheap approximate solver: what the pipeline demotes
//!   oversized blocks to, and the ablation study's baseline;
//! * [`Assignment`] — the solver output, plus helpers for thresholded
//!   matching (discard assigned pairs whose cost exceeds θ).

pub mod greedy;
pub mod matrix;
pub mod sap;
pub mod sparse;

pub use greedy::greedy;
pub use matrix::CostMatrix;
pub use sap::shortest_augmenting_path;
pub use sparse::{sparse_shortest_augmenting_path, SparseCostError, SparseCostMatrix};

/// The result of solving an assignment problem: a set of (row, column) pairs,
/// each row and column used at most once.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Matched `(row, column)` index pairs, sorted by row.
    pub pairs: Vec<(usize, usize)>,
    /// Sum of the costs of the matched pairs.
    pub total_cost: f64,
}

impl Assignment {
    /// Builds an assignment from pairs, computing the total cost from the
    /// matrix.
    pub fn from_pairs(matrix: &CostMatrix, pairs: Vec<(usize, usize)>) -> Self {
        Assignment::from_pairs_with(|r, c| matrix.get(r, c), pairs)
    }

    /// Builds an assignment from pairs with an arbitrary cost lookup.  The
    /// pairs are sorted and the costs summed in sorted order — the same
    /// accumulation order as [`from_pairs`](Assignment::from_pairs), so sparse
    /// and dense callers produce bit-identical totals.
    pub fn from_pairs_with(
        cost: impl Fn(usize, usize) -> f64,
        mut pairs: Vec<(usize, usize)>,
    ) -> Self {
        pairs.sort_unstable();
        let total_cost = pairs.iter().map(|&(r, c)| cost(r, c)).sum();
        Assignment { pairs, total_cost }
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when nothing was matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Keeps only pairs whose cost is strictly below `threshold`, recomputing
    /// the total cost.  This realises the paper's rule that assignments whose
    /// distance is at or above θ are discarded and their values left
    /// unmatched.
    pub fn threshold(&self, matrix: &CostMatrix, threshold: f64) -> Assignment {
        self.threshold_with(|r, c| matrix.get(r, c), threshold)
    }

    /// [`threshold`](Assignment::threshold) with an arbitrary cost lookup,
    /// for sparse matrices and other non-dense cost sources.
    pub fn threshold_with(&self, cost: impl Fn(usize, usize) -> f64, threshold: f64) -> Assignment {
        let pairs: Vec<(usize, usize)> =
            self.pairs.iter().copied().filter(|&(r, c)| cost(r, c) < threshold).collect();
        Assignment::from_pairs_with(cost, pairs)
    }

    /// The column matched to `row`, if any.
    pub fn column_for(&self, row: usize) -> Option<usize> {
        self.pairs.iter().find(|&&(r, _)| r == row).map(|&(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_solvers_find_an_unambiguous_optimum() {
        let m = CostMatrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        for (name, a) in [("sap", shortest_augmenting_path(&m)), ("greedy", greedy(&m))] {
            assert_eq!(a.len(), 2);
            assert!((a.total_cost - 2.0).abs() < 1e-9, "{name} gave {}", a.total_cost);
        }
    }

    #[test]
    fn threshold_drops_expensive_pairs() {
        let m = CostMatrix::from_rows(vec![vec![0.1, 0.9], vec![0.9, 0.8]]).unwrap();
        let a = shortest_augmenting_path(&m);
        assert_eq!(a.len(), 2);
        let t = a.threshold(&m, 0.7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.pairs, vec![(0, 0)]);
        assert!((t.total_cost - 0.1).abs() < 1e-9);
    }

    #[test]
    fn column_for_lookup() {
        let m = CostMatrix::from_rows(vec![vec![5.0, 1.0], vec![1.0, 5.0]]).unwrap();
        let a = shortest_augmenting_path(&m);
        assert_eq!(a.column_for(0), Some(1));
        assert_eq!(a.column_for(1), Some(0));
        assert_eq!(a.column_for(7), None);
    }
}
