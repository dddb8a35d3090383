//! Property-based tests for the assignment solvers: the exact solver agrees
//! with a brute-force enumeration on small instances, and the greedy baseline
//! is never better than the exact optimum.

use lake_assign::{greedy, shortest_augmenting_path, CostMatrix};
use proptest::prelude::*;

/// Brute force: try every injective assignment of rows to columns (rows <= 6).
fn brute_force_optimum(matrix: &CostMatrix) -> f64 {
    let rows = matrix.rows();
    let cols = matrix.cols();
    let k = rows.min(cols);
    let mut best = f64::INFINITY;
    let mut columns: Vec<usize> = (0..cols).collect();
    permute(&mut columns, 0, k, &mut |perm| {
        let mut total = 0.0;
        for (r, &c) in perm.iter().take(k).enumerate() {
            // When rows > cols the transposed problem is solved by symmetry;
            // restrict the strategy instead.
            total += matrix.get(r, c);
        }
        if total < best {
            best = total;
        }
    });
    best
}

/// Enumerates permutations of the first `k` positions of `items`.
fn permute(items: &mut Vec<usize>, start: usize, k: usize, visit: &mut impl FnMut(&[usize])) {
    if start == k {
        visit(items);
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute(items, start + 1, k, visit);
        items.swap(start, i);
    }
}

fn matrix_strategy() -> impl Strategy<Value = CostMatrix> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(prop::collection::vec(0u16..1000, cols), rows).prop_map(|data| {
            CostMatrix::from_rows(
                data.into_iter()
                    .map(|row| row.into_iter().map(|v| v as f64 / 10.0).collect())
                    .collect(),
            )
            .expect("well-formed matrix")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The exact solver finds the brute-force optimal cost (brute force
    /// enumerates row→column injections, so restrict to rows <= cols; the
    /// solver itself handles both orientations).
    #[test]
    fn exact_solver_matches_brute_force(matrix in matrix_strategy()) {
        prop_assume!(matrix.rows() <= matrix.cols());
        let sap = shortest_augmenting_path(&matrix);
        let brute = brute_force_optimum(&matrix);
        prop_assert!((sap.total_cost - brute).abs() < 1e-6, "sap {} != brute {}", sap.total_cost, brute);
        prop_assert_eq!(sap.len(), matrix.rows().min(matrix.cols()));
    }

    /// Greedy is a valid matching and never beats the exact optimum.
    #[test]
    fn greedy_is_valid_and_not_better_than_exact(matrix in matrix_strategy()) {
        let exact = shortest_augmenting_path(&matrix);
        let approx = greedy(&matrix);
        prop_assert!(approx.total_cost + 1e-9 >= exact.total_cost);
        prop_assert_eq!(approx.len(), matrix.rows().min(matrix.cols()));
        // No row or column is used twice.
        let mut rows_seen = std::collections::HashSet::new();
        let mut cols_seen = std::collections::HashSet::new();
        for (r, c) in &approx.pairs {
            prop_assert!(rows_seen.insert(*r));
            prop_assert!(cols_seen.insert(*c));
        }
    }

    /// Solutions are invariant under transposition.
    #[test]
    fn transposition_invariance(matrix in matrix_strategy()) {
        let direct = shortest_augmenting_path(&matrix);
        let transposed = shortest_augmenting_path(&matrix.transpose());
        prop_assert!((direct.total_cost - transposed.total_cost).abs() < 1e-6);
    }
}
