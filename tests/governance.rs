//! Resource-governance determinism and admission control.
//!
//! The contract under test: a query that trips its [`Budget`] fails
//! with a **clean, deterministic error** — the recorded trip reason,
//! not the observation site, picks the [`QueryError`] variant, so the
//! same over-budget query fails identically across all four StandOff
//! strategies — and a query that finishes under budget is
//! byte-identical to an ungoverned run (governance must never change
//! results, only refuse them). The executor half: a full
//! admission queue sheds with [`QueryError::Overloaded`] and the
//! `executor.*` counters make overload visible in `stats` output.

use std::time::Duration;

use standoff::core::{Budget, BudgetLimits, StandoffStrategy};
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::{Engine, Executor, Governance, QueryError};

const SO_URI: &str = "xmark-standoff.xml";

fn engine_with(strategy: StandoffStrategy) -> Engine {
    let src = generate(&XmarkConfig::with_scale(0.002));
    let so = standoffify(&src, 7);
    let so_xml = standoff::xml::serialize_document(&so.doc, Default::default());
    let mut engine = Engine::new();
    engine.load_document(SO_URI, &so_xml).unwrap();
    engine.set_strategy(strategy);
    engine
}

fn budget(limits: BudgetLimits) -> Option<Budget> {
    Some(Budget::new(limits))
}

/// A join-heavy query whose StandOff steps run under every strategy.
fn join_query() -> String {
    format!(r#"count(select-narrow(doc("{SO_URI}")//open_auction, doc("{SO_URI}")//bidder))"#)
}

/// A join whose context depends on the loop variable, so the optimizer
/// cannot hoist it out of the loop and every iteration is real work:
/// ungoverned, the fastest strategy needs well over 100× the mid-flight
/// deadline below even in a release build (~35 µs per iteration).
fn heavy_query() -> String {
    format!(
        r#"for $i in 1 to 4000
           return count(select-narrow(doc("{SO_URI}")//open_auction[@id != string($i)],
                                      doc("{SO_URI}")//bidder))"#
    )
}

#[test]
fn expired_deadline_is_timeout_across_all_strategies() {
    for strategy in StandoffStrategy::ALL {
        let mut engine = engine_with(strategy);
        engine.set_budget(budget(BudgetLimits {
            deadline: Some(Duration::ZERO),
            ..BudgetLimits::default()
        }));
        let err = engine.run(&join_query()).unwrap_err();
        assert_eq!(
            err,
            QueryError::Timeout,
            "[{strategy}] expired deadline must be a clean Timeout"
        );
    }
}

#[test]
fn mid_flight_deadline_is_timeout_across_all_strategies() {
    for strategy in StandoffStrategy::ALL {
        let mut engine = engine_with(strategy);
        engine.set_budget(budget(BudgetLimits {
            deadline: Some(Duration::from_millis(1)),
            ..BudgetLimits::default()
        }));
        // Wherever the trip is *observed* — a kernel poll deep in a
        // merge loop or an operator-boundary check — the reported
        // error is the recorded reason: Timeout.
        let err = engine.run(&heavy_query()).unwrap_err();
        assert_eq!(
            err,
            QueryError::Timeout,
            "[{strategy}] mid-flight deadline must be a clean Timeout"
        );
    }
}

#[test]
fn result_cap_error_is_identical_across_all_strategies() {
    // The cap sits between what the two index-driven `//name` prefixes
    // produce (24 open auctions + 85 bidders + a row per `doc()` and
    // `count`) and what the join adds on top (all 85 bidders), so the
    // trip is observed at the boundary of the join operator — the one
    // operator each strategy evaluates differently.
    let cap = BudgetLimits {
        max_results: Some(150),
        ..BudgetLimits::default()
    };
    let prefixes =
        format!(r#"count(doc("{SO_URI}")//open_auction) + count(doc("{SO_URI}")//bidder)"#);
    let mut seen: Option<QueryError> = None;
    for strategy in StandoffStrategy::ALL {
        let mut engine = engine_with(strategy);
        engine.set_budget(budget(cap));
        assert_eq!(
            engine.run(&prefixes).unwrap().as_strings(),
            ["109"],
            "[{strategy}] the prefixes alone stay under the cap"
        );
        engine.set_budget(budget(cap));
        let err = engine.run(&join_query()).unwrap_err();
        assert!(
            matches!(err, QueryError::ResultLimit(_)),
            "[{strategy}] expected ResultLimit, got {err:?}"
        );
        // Cardinality is charged at operator boundaries, which are
        // plan-shaped — so not just the variant but the *message*
        // agrees across the whole matrix.
        match &seen {
            None => seen = Some(err),
            Some(first) => assert_eq!(&err, first, "[{strategy}] result-cap error diverged"),
        }
    }
}

/// A counted step is charged the rows it counted, at its own operator
/// boundary, so a result cap trips on it exactly as on the join it
/// replaces: the same `ResultLimit` through the production pass list
/// and through that list without `fuse-count`. The cap sits above the
/// prefix (a `doc()` and one `s`) and below the fifty `w` rows.
#[test]
fn counted_step_trips_the_result_cap_like_the_join() {
    use standoff::xquery::compile::{resolve, PlanContext};
    use standoff::xquery::optimize::PASSES;
    let mut xml = String::from(r#"<d><s start="0" end="999"/>"#);
    for k in 0..50 {
        xml.push_str(&format!(r#"<w start="{}" end="{}"/>"#, 10 * k, 10 * k + 5));
    }
    xml.push_str("</d>");
    let query = r#"count(doc("c.xml")//s/select-narrow::w)"#;
    let mut engine = Engine::new();
    engine.load_document("c.xml", &xml).unwrap();
    assert_eq!(engine.run(query).unwrap().as_strings(), ["50"]);
    let counted = engine.metrics().snapshot().counters["join.counts_from_index"];
    assert_eq!(counted, 1);

    let cap = BudgetLimits {
        max_results: Some(20),
        ..BudgetLimits::default()
    };
    engine.set_budget(budget(cap));
    let production = engine.run(query).unwrap_err();
    assert!(
        matches!(production, QueryError::ResultLimit(_)),
        "{production:?}"
    );

    let mut plan = engine.parse(query).unwrap();
    let ctx = PlanContext::bare(engine.options());
    resolve(&mut plan, &ctx).unwrap();
    for pass in PASSES.iter().filter(|p| p.name != "fuse-count") {
        (pass.run)(&mut plan, &ctx);
    }
    engine.set_budget(None);
    assert_eq!(engine.execute_and_discard(&plan).unwrap(), 1);
    engine.set_budget(budget(cap));
    assert_eq!(engine.execute_and_discard(&plan).unwrap_err(), production);
    let counters = engine.metrics().snapshot().counters;
    assert_eq!(counters["join.counts_from_index"], 2, "{counters:?}");
}

#[test]
fn cancellation_is_clean_across_all_strategies() {
    for strategy in StandoffStrategy::ALL {
        let mut engine = engine_with(strategy);
        let handle = Budget::cancel_token();
        handle.cancel();
        engine.set_budget(Some(handle));
        let err = engine.run(&join_query()).unwrap_err();
        assert_eq!(
            err,
            QueryError::Cancelled,
            "[{strategy}] cancelled budget must report Cancelled"
        );
    }
}

#[test]
fn scratch_cap_refuses_cleanly() {
    // Scratch is what the join *buffers* pin, which depends on the
    // algorithm — so this cap is exercised per strategy, not asserted
    // identical across them.
    let mut engine = engine_with(StandoffStrategy::LoopLiftedMergeJoin);
    engine.set_budget(budget(BudgetLimits {
        max_scratch_bytes: Some(1),
        ..BudgetLimits::default()
    }));
    let err = engine.run(&join_query()).unwrap_err();
    assert_eq!(
        err,
        QueryError::ResultLimit("scratch memory cap exceeded".into())
    );
}

/// A deadline that trips while a join derives a name's posting is a
/// timeout, and the derivation publishes nothing: the next, ungoverned
/// query derives the posting again and gets the full answer. The layer
/// interleaves 200 000 `w` with as many `x`, so `w` is not every
/// annotation and its posting is gathered — at a rate that takes far
/// longer than the 1 ms deadline — under both merge joins.
#[test]
fn deadline_in_a_posting_build_caches_nothing() {
    const N: usize = 200_000;
    let mut xml = String::with_capacity(64 * N);
    xml.push_str(r#"<d><s start="0" end="99999999"/>"#);
    for k in 0..N {
        xml.push_str(&format!(
            r#"<w start="{k}" end="{k}"/><x start="{k}" end="{k}"/>"#
        ));
    }
    xml.push_str("</d>");
    let query = r#"count(doc("wide.xml")//s/select-narrow::w)"#;
    for strategy in [
        StandoffStrategy::LoopLiftedMergeJoin,
        StandoffStrategy::BasicMergeJoin,
    ] {
        let mut engine = Engine::new();
        engine.load_document("wide.xml", &xml).unwrap();
        engine.set_strategy(strategy);
        engine.set_budget(budget(BudgetLimits {
            deadline: Some(Duration::from_millis(1)),
            ..BudgetLimits::default()
        }));
        assert_eq!(
            engine.run(query).unwrap_err(),
            QueryError::Timeout,
            "[{strategy}]"
        );
        engine.set_budget(None);
        let before = engine.metrics().snapshot();
        assert_eq!(engine.run(query).unwrap().as_strings(), [N.to_string()]);
        let joins = engine.metrics().snapshot().delta(&before).counters;
        assert!(joins["join.candidate_posting"] > 0, "[{strategy}]");
    }
}

/// The scratch cap covers what a join *returns* as well as what its
/// kernels buffer: the per-layer runs and the table merged from them.
/// One `sec` over the whole BLOB overlaps every annotation of a
/// three-layer store. The kernels reuse one buffer of 12-byte emissions
/// sized by the largest layer — under 10 bytes per result row even at
/// twice the length in capacity — while the runs hold 8 and the result
/// table 12 bytes for every row: a cap of 20 bytes per row is beyond
/// what the kernels pin and short of the join's real footprint.
#[test]
fn scratch_cap_sees_the_join_runs_and_the_merged_result() {
    use standoff::core::StandoffConfig;
    use standoff::store::LayerSet;
    use standoff::xml::parse_document;
    const PER_LAYER: usize = 3_000;
    let layer = |root: &str, name: &str| {
        let mut xml = format!("<{root}>");
        for k in 0..PER_LAYER {
            xml.push_str(&format!(r#"<{name} start="{k}" end="{}"/>"#, k + 1));
        }
        xml.push_str(&format!("</{root}>"));
        parse_document(&xml).unwrap()
    };
    let base = parse_document(&format!(r#"<doc><sec start="0" end="{PER_LAYER}"/></doc>"#));
    let config = StandoffConfig::default;
    let mut set = LayerSet::build("g", base.unwrap(), config()).unwrap();
    set.add_layer("tokens", layer("tokens", "w"), config())
        .unwrap();
    set.add_layer("entities", layer("entities", "e"), config())
        .unwrap();
    let mut engine = Engine::new();
    engine.mount_store(set).unwrap();
    let query = r#"doc("g")//sec/select-wide::node()"#;
    let rows = 1 + 2 * PER_LAYER as u64;

    let ungoverned = engine.run(query).unwrap();
    let roomy = Budget::new(BudgetLimits {
        max_scratch_bytes: Some(u64::MAX / 2),
        ..BudgetLimits::default()
    });
    engine.set_budget(Some(roomy.clone()));
    let governed = engine.run(query).unwrap();
    assert_eq!(governed.len() as u64, rows);
    assert_eq!(governed.as_serialized(), ungoverned.as_serialized());
    assert!(roomy.scratch_hwm() > 20 * rows, "{}", roomy.scratch_hwm());

    engine.set_budget(budget(BudgetLimits {
        max_scratch_bytes: Some(20 * rows),
        ..BudgetLimits::default()
    }));
    assert_eq!(
        engine.run(query).unwrap_err(),
        QueryError::ResultLimit("scratch memory cap exceeded".into())
    );
}

/// The scratch cap sees what element constructors build: every
/// fragment arena the query's constructed elements live in counts. Five
/// thousand small rows pack into arenas of well over 64 KiB, so that
/// cap refuses the query; without a cap — and under a roomy one — it
/// answers, identically.
#[test]
fn constructor_output_trips_the_scratch_cap() {
    let query = r#"for $i in 1 to 5000 return <row n="{$i}"><cell>text {$i}</cell></row>"#;
    let mut engine = Engine::new();
    let plain = engine.run(query).unwrap();
    assert_eq!(plain.len(), 5000);
    let roomy = Budget::new(BudgetLimits {
        max_scratch_bytes: Some(u64::MAX / 2),
        ..BudgetLimits::default()
    });
    engine.set_budget(Some(roomy.clone()));
    assert_eq!(engine.run(query).unwrap().as_xml(), plain.as_xml());
    assert!(roomy.scratch_hwm() > 64 * 1024, "{}", roomy.scratch_hwm());

    let mut engine = Engine::new();
    engine.set_budget(budget(BudgetLimits {
        max_scratch_bytes: Some(64 * 1024),
        ..BudgetLimits::default()
    }));
    assert_eq!(
        engine.run(query).unwrap_err(),
        QueryError::ResultLimit("scratch memory cap exceeded".into())
    );
}

/// A deadline reaches inside the wide kernel, which polls once per
/// 64-candidate block: a `select-wide` self-join of a generated dense
/// layer — every `w` overlaps the next hundred — fails with `Timeout`
/// (the `timeout` category `serve` replies with) under a 1 ms deadline,
/// whichever merge-join strategy runs it, and answers ungoverned. The
/// step is bare: under `count(…)` the loop-lifted join would be counted
/// from the index, inside the deadline.
#[test]
fn deadline_interrupts_select_wide_over_a_dense_layer() {
    use standoff::core::StandoffConfig;
    use standoff::store::LayerSet;
    use standoff::xml::parse_document;
    const TOKENS: usize = 30_000;
    let mut tokens = String::from("<tokens>");
    for k in 0..TOKENS {
        tokens.push_str(&format!(r#"<w start="{k}" end="{}"/>"#, k + 100));
    }
    tokens.push_str("</tokens>");
    let base = parse_document(&format!(r#"<doc><sec start="0" end="{TOKENS}"/></doc>"#));
    let mut set = LayerSet::build("g", base.unwrap(), StandoffConfig::default()).unwrap();
    set.add_layer(
        "tokens",
        parse_document(&tokens).unwrap(),
        StandoffConfig::default(),
    )
    .unwrap();
    let query = r#"layer("g", "tokens")//w/select-wide::w"#;
    for strategy in [
        StandoffStrategy::LoopLiftedMergeJoin,
        StandoffStrategy::BasicMergeJoin,
    ] {
        let mut engine = Engine::new();
        engine.mount_store(set.clone()).unwrap();
        engine.set_strategy(strategy);
        assert_eq!(engine.run(query).unwrap().len(), TOKENS);
        engine.set_budget(budget(BudgetLimits {
            deadline: Some(Duration::from_millis(1)),
            ..BudgetLimits::default()
        }));
        assert_eq!(
            engine.run(query).unwrap_err(),
            QueryError::Timeout,
            "[{strategy}]"
        );
    }
}

#[test]
fn under_budget_runs_are_byte_identical_to_ungoverned() {
    let generous = BudgetLimits {
        deadline: Some(Duration::from_secs(120)),
        max_results: Some(u64::MAX / 2),
        max_scratch_bytes: Some(u64::MAX / 2),
    };
    let queries: Vec<String> = XmarkQuery::ALL
        .iter()
        .map(|q| q.standoff(SO_URI))
        .chain([join_query()])
        .collect();
    for strategy in StandoffStrategy::ALL {
        let mut governed = engine_with(strategy);
        governed.set_budget(budget(generous));
        let mut plain = engine_with(strategy);
        for text in &queries {
            // A fresh budget per query: the caps are per-request.
            governed.set_budget(budget(generous));
            let g = governed
                .run(text)
                .unwrap_or_else(|e| panic!("[{strategy}] {text}: {e}"));
            let p = plain.run(text).unwrap();
            assert_eq!(
                g.as_serialized(),
                p.as_serialized(),
                "[{strategy}] governed result diverged: {text}"
            );
            assert_eq!(g.as_strings(), p.as_strings());
        }
    }
}

// ---- executor admission control ----

fn shared_fixture() -> standoff::xquery::SharedEngine {
    let mut engine = Engine::new();
    engine
        .load_document(
            "d.xml",
            r#"<a><w start="0" end="9"/><w start="3" end="5"/><w start="12" end="14"/></a>"#,
        )
        .unwrap();
    engine.into_shared()
}

#[test]
fn zero_capacity_queue_sheds_with_overloaded() {
    let exec = Executor::governed(
        shared_fixture(),
        1,
        Governance {
            queue_cap: Some(0),
            ..Governance::default()
        },
    );
    let err = exec.run_governed("1 + 1").unwrap_err();
    assert!(
        matches!(err, QueryError::Overloaded(_)),
        "expected Overloaded, got {err:?}"
    );
    let snapshot = exec.metrics_snapshot();
    assert_eq!(snapshot.counters.get("executor.sheds"), Some(&1));
    // Shed requests never occupy the queue, so no high-water mark.
    assert_eq!(snapshot.counters.get("executor.queue_depth_hwm"), Some(&0));
    assert_eq!(exec.queue_depth(), 0, "shed request must release its slot");
}

#[test]
fn admission_counters_show_up_in_stats() {
    let exec = Executor::governed(
        shared_fixture(),
        1,
        Governance {
            queue_cap: Some(4),
            deadline: Some(Duration::ZERO),
            ..Governance::default()
        },
    );
    let err = exec.run_governed("1 + 1").unwrap_err();
    assert_eq!(err, QueryError::Timeout);
    let snapshot = exec.metrics_snapshot();
    assert_eq!(snapshot.counters.get("executor.timeouts"), Some(&1));
    assert_eq!(snapshot.counters.get("executor.queue_depth_hwm"), Some(&1));
    assert_eq!(snapshot.counters.get("executor.sheds"), Some(&0));
}

#[test]
fn governed_batch_times_out_every_query_and_stays_complete() {
    let exec = Executor::governed(
        shared_fixture(),
        2,
        Governance {
            deadline: Some(Duration::ZERO),
            ..Governance::default()
        },
    );
    let queries = vec!["1 + 1"; 8];
    let results = exec.run_batch(&queries);
    assert_eq!(results.len(), queries.len(), "batch must stay complete");
    for result in &results {
        assert_eq!(result.as_ref().unwrap_err(), &QueryError::Timeout);
    }
    let snapshot = exec.metrics_snapshot();
    assert_eq!(
        snapshot.counters.get("executor.timeouts"),
        Some(&(queries.len() as u64))
    );
}

#[test]
fn ungoverned_executor_still_runs_requests() {
    // `run_governed` without any policy: admission always succeeds,
    // queries run without a budget.
    let exec = Executor::new(shared_fixture(), 1);
    let result = exec.run_governed(r#"count(doc("d.xml")//w)"#).unwrap();
    assert_eq!(result.as_strings(), ["3"]);
    let snapshot = exec.metrics_snapshot();
    assert_eq!(snapshot.counters.get("executor.sheds"), Some(&0));
}
