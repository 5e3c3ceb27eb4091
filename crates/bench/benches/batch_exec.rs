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
//!
//! The `construct` group splits XMark Q2's return clause at scale 0.01
//! into its two costs: `build` evaluates one `<increase>` constructor
//! over the `bidder[1]/increase` nodes Q2 copies (bound as an external,
//! so no join runs; counted, so nothing is serialized) and drops the
//! fragments; `serialize` writes Q2's built elements into one buffer, as
//! a query result does. `build_600` is `build` at the size of Q2 over
//! XMark 0.05: 600 fragments of one evaluation, each copying one
//! `increase` (the bound nodes, cycled) — one container document.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_bench::{prepare_workload, SO_URI};
use standoff_xmark::queries::XmarkQuery;
use standoff_xml::SerializeOptions;
use standoff_xquery::{Executor, Governance, SharedEngine};

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
        let exec = Executor::governed(shared.clone(), threads, Governance::default());
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
            let exec = Executor::governed(shared.clone(), 1, Governance::default());
            exec.run_batch(batch).len()
        });
    });
    let warm = Executor::governed(shared.clone(), 1, Governance::default());
    warm.run_batch(&batch); // prime
    group.bench_with_input(BenchmarkId::new("cache", "warm"), &batch, |b, batch| {
        b.iter(|| warm.run_batch(batch).len());
    });

    group.finish();
}

fn construct(c: &mut Criterion) {
    let mut engine = prepare_workload(0.01).engine;
    let increases = format!(
        r#"for $b in doc("{SO_URI}")//open_auction
           return $b/select-narrow::bidder[1]/select-narrow::increase"#
    );
    let items = engine.run(&increases).unwrap().items().to_vec();
    let cycled = items.iter().cycle().take(600).cloned().collect();
    engine.bind_external("inc", items);
    engine.bind_external("inc600", cycled);
    let return_clause = engine
        .compile(
            "declare variable $inc external;
             count(for $i in $inc return <increase>{ $i }</increase>)",
        )
        .unwrap();
    let return_600 = engine
        .compile(
            "declare variable $inc600 external;
             count(for $i in $inc600 return <increase>{ $i }</increase>)",
        )
        .unwrap();

    let built = engine.run(&XmarkQuery::Q2.standoff(SO_URI)).unwrap();
    let roots = built.items().to_vec();

    let mut group = c.benchmark_group("construct");
    group.sample_size(20);
    group.bench_function("build", |b| {
        b.iter(|| engine.execute_and_discard(&return_clause).unwrap());
    });
    group.bench_function("build_600", |b| {
        b.iter(|| engine.execute_and_discard(&return_600).unwrap());
    });
    let store = engine.store();
    group.bench_function("serialize", |b| {
        b.iter(|| {
            let mut out = String::new();
            for item in &roots {
                let node = item.as_node().expect("Q2 returns elements");
                let doc = store.doc(node.doc);
                standoff_xml::serialize_node_into(
                    doc,
                    node.id,
                    SerializeOptions::default(),
                    &mut out,
                )
                .expect("a parsed document serializes");
            }
            out.len()
        });
    });
    group.finish();
}

criterion_group!(benches, batch_exec, construct);
criterion_main!(benches);
