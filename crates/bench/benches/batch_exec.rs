//! Batch executor throughput: one shared XMark StandOff corpus, a
//! ≥100-query batch, swept over worker-thread counts and plan-cache
//! temperature.
//!
//! What the sweep shows:
//!
//! * `threads/N` — fan-out over N sessions of one `SharedEngine`. On
//!   multi-core hardware throughput should exceed 1.5× single-thread
//!   well before N = 4 (the per-query work dominates; session setup is
//!   a pointer-copy clone). On a single hardware thread the numbers
//!   degenerate to ~1× — check `nproc` before reading too much into
//!   them.
//! * `cache/cold-vs-warm` — identical batch with a fresh parsed-query
//!   cache per run vs a pre-warmed one; the difference is pure parser
//!   time, the saving a repeated-query service keeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_bench::{prepare_workload, SO_URI};
use standoff_xmark::queries::XmarkQuery;
use standoff_xquery::{Executor, SharedEngine};

/// A 120-query batch over the StandOff XMark document: the paper's
/// axis-step queries plus aggregate and FLWOR shapes, 24 distinct
/// texts, each repeated 5× (a service workload is repeat-heavy).
fn build_batch() -> Vec<String> {
    let mut distinct = Vec::new();
    for k in 0..24 {
        distinct.push(match k % 4 {
            0 => XmarkQuery::Q1.standoff(SO_URI),
            1 => XmarkQuery::Q2.standoff(SO_URI),
            2 => format!(
                r#"count(doc("{SO_URI}")//person[position() <= {}]/select-wide::emailaddress)"#,
                k + 1
            ),
            _ => format!(
                r#"for $a in doc("{SO_URI}")//open_auction[position() <= {}]
                   order by $a/@id return $a/select-narrow::increase"#,
                k + 1
            ),
        });
    }
    let mut batch = Vec::new();
    for _ in 0..5 {
        batch.extend(distinct.iter().cloned());
    }
    batch
}

fn shared_corpus() -> SharedEngine {
    let workload = prepare_workload(0.002);
    workload.engine.into_shared()
}

fn batch_exec(c: &mut Criterion) {
    let shared = shared_corpus();
    let batch = build_batch();

    let mut group = c.benchmark_group("batch_exec");
    group.sample_size(5);

    // Thread sweep, warm cache (the Bencher's warm-up run primes it).
    for threads in [1usize, 2, 4, 8] {
        let exec = Executor::new(shared.clone(), threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &batch, |b, batch| {
            b.iter(|| {
                let results = exec.run_batch(batch);
                assert!(results.iter().all(|r| r.is_ok()));
                results.len()
            });
        });
    }

    // Cache temperature at one thread: parser cost on every query vs
    // only on first sight of each distinct text.
    group.bench_with_input(BenchmarkId::new("cache", "cold"), &batch, |b, batch| {
        b.iter(|| {
            // Fresh executor per run: empty plan cache, every query
            // parses.
            let exec = Executor::new(shared.clone(), 1);
            exec.run_batch(batch).len()
        });
    });
    let warm = Executor::new(shared.clone(), 1);
    warm.run_batch(&batch); // prime
    group.bench_with_input(BenchmarkId::new("cache", "warm"), &batch, |b, batch| {
        b.iter(|| warm.run_batch(batch).len());
    });

    group.finish();
}

criterion_group!(benches, batch_exec);
criterion_main!(benches);
