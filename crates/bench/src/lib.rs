//! Shared workloads of the criterion benches.
//!
//! The paper's Figure 6 sweeps XMark document size × evaluation strategy
//! for queries Q1, Q2, Q6 and Q7. `benches/figure6.rs` times those cells;
//! the shape of the sweep is asserted on work counters by the root
//! package's `tests/paper_shapes.rs`, and its ratios are rows of the
//! `benchmark/` ledger.
//!
//! Figure 6 times the StandOff *join*. Q6 and Q7 count their steps, and
//! the production pass list answers a loop-lifted `count(…)` from the
//! index without joining, so every cell runs the plan of
//! [`figure6_plan`]: every optimizer pass but `fuse-count`.

use standoff_core::{StandoffConfig, StandoffStrategy};
use standoff_xmark::queries::XmarkQuery;
use standoff_xmark::{generate, serialized_size, standoffify, XmarkConfig};
use standoff_xquery::compile::{resolve, PlanContext};
use standoff_xquery::optimize::PASSES;
use standoff_xquery::{Engine, Plan, QueryError};

/// A prepared benchmark workload: one StandOff XMark document loaded into
/// an engine, with its standard twin for staircase comparisons.
pub struct Workload {
    pub engine: Engine,
    /// Serialized size of the *standard* document in bytes (the paper's
    /// x-axis unit).
    pub standard_bytes: usize,
}

/// URI of the standard document inside a [`Workload`] engine.
pub const STD_URI: &str = "xmark.xml";
/// URI of the StandOff document inside a [`Workload`] engine.
pub const SO_URI: &str = "xmark-standoff.xml";

/// Generate and load a workload at the given XMark scale. The region
/// index is pre-built (the paper's indices exist before queries run).
pub fn prepare_workload(scale: f64) -> Workload {
    let src = generate(&XmarkConfig::with_scale(scale));
    let so = standoffify(&src, 7);
    let standard_bytes = serialized_size(&src);

    let mut engine = Engine::new();
    engine.add_document(src, Some(STD_URI));
    let so_id = engine.add_document(so.doc, Some(SO_URI));
    engine
        .prebuild_region_index(so_id, &StandoffConfig::default())
        .expect("standoff workload builds a valid index");
    Workload {
        engine,
        standard_bytes,
    }
}

/// `query` compiled under `engine`'s options through every optimizer
/// pass but `fuse-count`, so its StandOff steps join even under
/// `count(…)`: the plan a Figure 6 cell times.
pub fn figure6_plan(engine: &Engine, query: &str) -> Result<Plan, QueryError> {
    let mut plan = engine.parse(query)?;
    let ctx = PlanContext::bare(engine.options());
    resolve(&mut plan, &ctx)?;
    for pass in PASSES.iter().filter(|p| p.name != "fuse-count") {
        (pass.run)(&mut plan, &ctx);
        plan.passes.push(pass.name);
    }
    Ok(plan)
}

/// One column of Figure 6: how the StandOff steps of a query are
/// executed. The two "XQuery Function" variants run the paper's *actual
/// UDF query texts* (Figures 2 and 3) through the engine — their cost is
/// the generic nested-FLWOR evaluation, exactly as in the paper. The two
/// merge-join variants run the axis-step query under the corresponding
/// engine strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Figure6Variant {
    /// Figure 2 UDF — `root($q)//*` inner loop (DNF column).
    UdfNoCandidates,
    /// Figure 3 UDF — candidate sequence parameter.
    UdfWithCandidates,
    /// §4.4 Basic StandOff MergeJoin (per-iteration index scans).
    BasicMergeJoin,
    /// §4.5 Loop-lifted StandOff MergeJoin (Listing 1).
    LoopLifted,
}

impl Figure6Variant {
    /// The query text this variant executes.
    pub fn query_text(self, query: XmarkQuery, uri: &str) -> String {
        match self {
            Figure6Variant::UdfNoCandidates => query.standoff_udf_no_candidates(uri),
            Figure6Variant::UdfWithCandidates => query.standoff_udf_candidates(uri),
            Figure6Variant::BasicMergeJoin | Figure6Variant::LoopLifted => query.standoff(uri),
        }
    }

    /// The engine strategy for the axis steps (irrelevant for the UDF
    /// variants, which never reach a StandOff step).
    pub fn strategy(self) -> StandoffStrategy {
        match self {
            Figure6Variant::BasicMergeJoin => StandoffStrategy::BasicMergeJoin,
            _ => StandoffStrategy::LoopLiftedMergeJoin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_preparation() {
        let mut w = prepare_workload(0.001);
        assert!(w.standard_bytes > 10_000);
        for uri in [STD_URI, SO_URI] {
            let count = w.engine.run(&format!(r#"count(doc("{uri}")//*)"#)).unwrap();
            assert!(count.as_strings()[0].parse::<usize>().unwrap() > 100);
        }
    }

    /// The loop-lifted Q6 cell joins: no operator of its plan is
    /// counted from the index, and it answers as the production plan.
    #[test]
    fn figure6_plans_keep_the_join() {
        let mut w = prepare_workload(0.001);
        let q = Figure6Variant::LoopLifted.query_text(XmarkQuery::Q6, SO_URI);
        let plan = figure6_plan(&w.engine, &q).unwrap();
        assert!(plan.passes.contains(&"elide") && !plan.passes.contains(&"fuse-count"));
        let mut counted = false;
        plan.visit_exprs(&mut |e| {
            if let standoff_xquery::plan::PlanExpr::StandoffStep { op, .. } = e {
                counted |= op.count_from_index;
            }
        });
        assert!(!counted);
        let joined = w.engine.execute_and_discard(&plan).unwrap();
        assert_eq!(joined, w.engine.run_and_discard(&q).unwrap());
    }

    #[test]
    fn variant_query_texts() {
        assert!(Figure6Variant::UdfWithCandidates
            .query_text(XmarkQuery::Q6, "u")
            .contains("declare function sn"));
        assert!(Figure6Variant::LoopLifted
            .query_text(XmarkQuery::Q6, "u")
            .contains("select-narrow"));
    }
}
