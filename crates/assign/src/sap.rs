//! Rectangular linear sum assignment via shortest augmenting paths.
//!
//! This follows the algorithm described by Crouse (2016), "On implementing 2D
//! rectangular assignment algorithms" — the same algorithm behind scipy's
//! `linear_sum_assignment`, which the paper uses for bipartite value matching.
//! It maintains dual potentials `u`/`v` and, for each row, runs a Dijkstra-like
//! search for the shortest augmenting path in the reduced-cost graph.
//!
//! Complexity: `O(n^2 m)` for an `n x m` matrix with `n <= m`; exact optimum.
//! Entries of `f64::INFINITY` mark forbidden pairs; a row whose every entry is
//! forbidden simply stays unmatched (scipy would error instead — leaving the
//! value unmatched is the behaviour the fuzzy matcher wants).

use crate::matrix::CostMatrix;
use crate::Assignment;

/// Solves the rectangular assignment problem, minimising total cost.
pub fn shortest_augmenting_path(matrix: &CostMatrix) -> Assignment {
    if matrix.is_empty() {
        return Assignment { pairs: Vec::new(), total_cost: 0.0 };
    }

    // The core routine assumes rows <= cols; transpose otherwise.
    let transposed = matrix.rows() > matrix.cols();
    let work;
    let m: &CostMatrix = if transposed {
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
            let mut index = usize::MAX;
            let mut lowest = f64::INFINITY;
            #[allow(
                clippy::float_cmp,
                reason = "exact tie-break, as in scipy's linear_sum_assignment: both sides are \
                          stored path costs, and an epsilon would change which column wins"
            )]
            for (it, &j) in remaining.iter().enumerate() {
                let r = min_val + m.get(i, j) - u[i] - v[j];
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
    Assignment::from_pairs(matrix, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(rows: Vec<Vec<f64>>) -> CostMatrix {
        CostMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn solves_square_case() {
        // Classic example: optimum is 5 (0->1, 1->0, 2->2).
        let m = cost(vec![vec![4.0, 1.0, 3.0], vec![2.0, 0.0, 5.0], vec![3.0, 2.0, 2.0]]);
        let a = shortest_augmenting_path(&m);
        assert_eq!(a.len(), 3);
        assert!((a.total_cost - 5.0).abs() < 1e-9, "got {}", a.total_cost);
    }

    #[test]
    fn solves_rectangular_wide() {
        let m = cost(vec![vec![10.0, 1.0, 10.0, 10.0], vec![10.0, 10.0, 1.0, 10.0]]);
        let a = shortest_augmenting_path(&m);
        assert_eq!(a.pairs, vec![(0, 1), (1, 2)]);
        assert!((a.total_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solves_rectangular_tall() {
        let m = cost(vec![vec![10.0, 1.0], vec![2.0, 10.0], vec![0.5, 0.6]]);
        let a = shortest_augmenting_path(&m);
        // Only two columns exist, so exactly two rows are matched.
        assert_eq!(a.len(), 2);
        // Optimal picks rows {0,2} or {1,2}: cost 1.0 + 0.5 = 1.5 is best.
        assert!((a.total_cost - 1.5).abs() < 1e-9, "got {}", a.total_cost);
    }

    #[test]
    fn respects_forbidden_pairs() {
        let inf = f64::INFINITY;
        let m = cost(vec![vec![inf, 2.0], vec![inf, 1.0]]);
        let a = shortest_augmenting_path(&m);
        // Both rows want column 1; only one can have it, the other row has
        // no feasible column left and stays unmatched.
        assert_eq!(a.len(), 1);
        assert!(a.total_cost.is_finite());
    }

    #[test]
    fn fully_forbidden_matrix_matches_nothing() {
        let inf = f64::INFINITY;
        let m = cost(vec![vec![inf, inf], vec![inf, inf]]);
        let a = shortest_augmenting_path(&m);
        assert!(a.is_empty());
        assert_eq!(a.total_cost, 0.0);
    }

    #[test]
    fn empty_matrix() {
        let m = CostMatrix::from_rows(vec![]).unwrap();
        let a = shortest_augmenting_path(&m);
        assert!(a.is_empty());
    }

    #[test]
    fn single_cell() {
        let m = cost(vec![vec![3.5]]);
        let a = shortest_augmenting_path(&m);
        assert_eq!(a.pairs, vec![(0, 0)]);
        assert!((a.total_cost - 3.5).abs() < 1e-12);
    }

    #[test]
    fn identity_preference_on_zero_diagonal() {
        let n = 6;
        let m = CostMatrix::from_fn(n, n, |r, c| if r == c { 0.0 } else { 1.0 });
        let a = shortest_augmenting_path(&m);
        assert_eq!(a.len(), n);
        assert!((a.total_cost - 0.0).abs() < 1e-12);
        for (r, c) in a.pairs {
            assert_eq!(r, c);
        }
    }

    #[test]
    fn handles_negative_costs() {
        let m = cost(vec![vec![-1.0, 0.0], vec![0.0, -2.0]]);
        let a = shortest_augmenting_path(&m);
        assert!((a.total_cost + 3.0).abs() < 1e-9);
    }
}
