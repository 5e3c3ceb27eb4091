//! Query compilation cost: parse → resolve → optimize, and the
//! plan-cache temperatures that amortize it.
//!
//! What the sweep shows:
//!
//! * `compile/<query>` — full pipeline cost per query shape (parse +
//!   resolve + the optimizer passes; the one compile path `explain`
//!   shares). This is the latency a cache miss adds to a query.
//! * `cache/cold-vs-warm` — a repeat-heavy batch through a fresh
//!   [`QueryCache`] (every distinct text compiles once) vs a pre-warmed
//!   one (every lookup hits); the difference is what the compiled-plan
//!   cache saves an annotation service.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_bench::{prepare_workload, SO_URI};
use standoff_xmark::queries::XmarkQuery;
use standoff_xquery::{Executor, Governance, QueryCache, SharedEngine};

fn query_set() -> Vec<(&'static str, String)> {
    vec![
        ("q1", XmarkQuery::Q1.standoff(SO_URI)),
        ("q2", XmarkQuery::Q2.standoff(SO_URI)),
        ("q7", XmarkQuery::Q7.standoff(SO_URI)),
        (
            "flwor-hoist",
            format!(
                r#"for $a in doc("{SO_URI}")//open_auction
                   order by $a/@id
                   return ($a/select-narrow::increase, count(doc("{SO_URI}")//person))"#
            ),
        ),
    ]
}

fn shared_corpus() -> SharedEngine {
    prepare_workload(0.002).engine.into_shared()
}

fn plan_compile(c: &mut Criterion) {
    let shared = shared_corpus();
    let queries = query_set();

    let mut group = c.benchmark_group("plan_compile");

    for (label, text) in &queries {
        group.bench_with_input(BenchmarkId::new("compile", label), text, |b, text| {
            b.iter(|| shared.compile(text).expect("compiles").passes.len());
        });
    }

    // Cache temperature over a repeat-heavy batch (24 distinct texts ×
    // 5 repeats — the shape of a service workload).
    let batch: Vec<String> = {
        let distinct: Vec<String> = (0..24)
            .map(|k| {
                let (_, base) = &queries[k % queries.len()];
                format!("({base}, {k})")
            })
            .collect();
        (0..5).flat_map(|_| distinct.iter().cloned()).collect()
    };
    group.bench_with_input(BenchmarkId::new("cache", "cold"), &batch, |b, batch| {
        b.iter(|| {
            let cache = QueryCache::new(256);
            for q in batch {
                cache.get_or_compile(q, &shared).expect("compiles");
            }
            cache.misses()
        });
    });
    let warm = QueryCache::new(256);
    for q in &batch {
        warm.get_or_compile(q, &shared).expect("compiles");
    }
    group.bench_with_input(BenchmarkId::new("cache", "warm"), &batch, |b, batch| {
        b.iter(|| {
            for q in batch {
                warm.get_or_compile(q, &shared).expect("compiles");
            }
            warm.hits()
        });
    });

    // End-to-end sanity: one executor run over the batch so the bench
    // binary exercises the full plan-cached execution path too.
    let exec = Executor::governed(shared, 1, Governance::default());
    group.sample_size(10);
    group.bench_function("batch-roundtrip", |b| {
        b.iter(|| {
            let results = exec.run_batch(&batch);
            assert!(results.iter().all(|r| r.is_ok()));
            results.len()
        });
    });

    group.finish();
}

criterion_group!(benches, plan_compile);
criterion_main!(benches);
