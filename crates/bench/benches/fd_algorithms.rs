//! Criterion bench for the Full Disjunction execution strategies
//! (partitioned vs unpartitioned vs parallel) — the design ablation of
//! DESIGN.md §4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lake_bench::ablation::unpartitioned_full_disjunction;
use lake_benchdata::{generate_imdb_benchmark, ImdbConfig};
use lake_fd::{full_disjunction, parallel_full_disjunction, IntegrationSchema};

fn bench_fd_algorithms(c: &mut Criterion) {
    let tables = generate_imdb_benchmark(ImdbConfig { total_tuples: 3_000, seed: 0xAB1A });
    let schema = IntegrationSchema::from_matching_headers(&tables);

    let mut group = c.benchmark_group("fd_algorithms");
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::from_parameter("partitioned"), &tables, |b, tables| {
        b.iter(|| full_disjunction(&schema, tables))
    });
    group.bench_with_input(BenchmarkId::from_parameter("unpartitioned"), &tables, |b, tables| {
        b.iter(|| unpartitioned_full_disjunction(&schema, tables))
    });
    group.bench_with_input(BenchmarkId::from_parameter("parallel_4"), &tables, |b, tables| {
        b.iter(|| parallel_full_disjunction(&schema, tables, 4))
    });

    group.finish();
}

criterion_group!(benches, bench_fd_algorithms);
criterion_main!(benches);
