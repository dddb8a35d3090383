//! Criterion bench for the linear sum assignment solvers (design ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lake_assign::{greedy, shortest_augmenting_path, Assignment, CostMatrix};

type Solver = fn(&CostMatrix) -> Assignment;

fn synthetic_matrix(n: usize) -> CostMatrix {
    // Deterministic pseudo-random costs in [0, 1).
    CostMatrix::from_fn(n, n, |r, c| {
        let x = (r.wrapping_mul(2654435761) ^ c.wrapping_mul(40503)) % 1000;
        x as f64 / 1000.0
    })
}

fn bench_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment");
    group.sample_size(20);
    for &n in &[50usize, 150, 300] {
        let matrix = synthetic_matrix(n);
        let solvers: [(&str, Solver); 2] = [("sap", shortest_augmenting_path), ("greedy", greedy)];
        for (label, solver) in solvers {
            group
                .bench_with_input(BenchmarkId::new(label, n), &matrix, |b, m| b.iter(|| solver(m)));
        }
    }
    group.finish();
}

criterion_group!(benches, bench_assignment);
criterion_main!(benches);
