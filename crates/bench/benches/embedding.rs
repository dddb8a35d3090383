//! Criterion bench for the embedding kernel: cold (uncached) cost of turning
//! one cell value into a vector, for the surface-only tier and the paper's
//! default tier.  Each iteration embeds the next of the default Auto-Join
//! benchmark's values — the population `lakebench`'s `autojoin_fuzzy`
//! workload embeds — so the reported time is per value, and the direction
//! table sees the vocabulary churn of a real run rather than one hot value.
//! A sample is ~1 ms, a few hundred values; fifty of them walk the whole
//! population once, so the mean is the population's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lake_benchdata::{generate_autojoin_benchmark, AutoJoinConfig};
use lake_embed::EmbeddingModel;

fn bench_embedding(c: &mut Criterion) {
    let values: Vec<String> = generate_autojoin_benchmark(AutoJoinConfig::default())
        .into_iter()
        .flat_map(|set| set.columns.into_iter().flatten())
        .collect();

    let mut group = c.benchmark_group("embedding");
    group.sample_size(50);
    for model in [EmbeddingModel::FastText, EmbeddingModel::Mistral] {
        let embedder = model.build();
        let mut next = (0..values.len()).cycle();
        group.bench_with_input(BenchmarkId::new("cold", model.name()), &values, |b, values| {
            b.iter(|| embedder.embed(&values[next.next().expect("cycle never ends")]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_embedding);
criterion_main!(benches);
