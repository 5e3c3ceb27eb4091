//! Per-operator execution profiles.
//!
//! When profiling is enabled ([`crate::engine::EngineOptions::profile`])
//! the evaluator records, for every plan operator it executes, wall
//! time, call count, output cardinality and — for StandOff joins — the
//! join-level mechanism decisions (context size, candidate-set sizes,
//! target layers joined, the candidate kernels chosen and the reach
//! they read, direct vs. merged results, post-filter elisions). The
//! result is a [`PlanProfile`]: a side table keyed by operator identity,
//! paired with its [`Plan`] in a [`QueryProfile`].
//!
//! # Operator ids
//!
//! Plan operators carry no inline id field; instead every operator has
//! a **stable operator id**: its position in the plan's deterministic
//! pre-order traversal ([`Plan::visit_exprs`] — globals, then function
//! bodies, then the query body). [`operator_ids`] computes the mapping
//! once per rendering; the same plan always yields the same numbering,
//! which is what `explain analyze` prints as `#n` and what the JSON
//! profile reports as `"id"`. Internally the profile is keyed by
//! operator *address*, which is stable for the lifetime of the compiled
//! plan (plans are immutable after compilation and shared by `Arc`).

use std::collections::HashMap;
use std::sync::Arc;

use crate::plan::{Plan, PlanExpr};
use standoff_core::JoinStats;

/// Measurements of one plan operator across one query execution.
#[derive(Clone, Debug, Default)]
pub struct OpMetrics {
    /// Times the operator was evaluated (≥ 2 inside UDF re-entry or
    /// per-branch evaluation; loop-lifting keeps this 1 for most plans).
    pub calls: u64,
    /// Wall time, **inclusive of child operators** (the tree renderer
    /// shows the hierarchy, so exclusive time is recoverable by eye).
    pub wall_ns: u64,
    /// Total rows (`iter|item` table entries) the operator produced.
    pub out_rows: u64,
    /// StandOff-join mechanism details, for join operators only.
    pub join: Option<JoinExec>,
}

/// Join-level execution detail of one StandOff join operator.
#[derive(Clone, Debug, Default)]
pub struct JoinExec {
    /// Context rows fed into the join (before per-document bucketing).
    pub ctx_rows: u64,
    /// Target layers joined into, over all join units: the layers that
    /// could answer the join — one kernel call each.
    pub target_joins: u64,
    /// Region entries of those target layers, summed over target joins
    /// — the `E` of the analyze detail's `reach=R of E`.
    pub target_entries: u64,
    /// Total candidate-set size across all targets that had a candidate
    /// restriction.
    pub cand_rows: u64,
    /// Largest single candidate set seen.
    pub cand_max: u64,
    /// Candidate rows contributed by overlay delta documents (subset of
    /// `cand_rows`); zero on a pure-snapshot mount.
    pub delta_cand_rows: u64,
    /// Target joins that read through a merged base+delta region stream
    /// or a delta document — merge-on-read work, vs pure zero-copy.
    pub merge_reads: u64,
    /// The join's fast-path decision counters (same meaning as the
    /// engine-wide [`JoinStats`], restricted to this operator).
    pub stats: JoinStats,
}

impl JoinExec {
    /// Fold another evaluation of the same operator into this one.
    pub(crate) fn merge(&mut self, other: &JoinExec) {
        self.ctx_rows += other.ctx_rows;
        self.target_joins += other.target_joins;
        self.target_entries += other.target_entries;
        self.cand_rows += other.cand_rows;
        self.cand_max = self.cand_max.max(other.cand_max);
        self.delta_cand_rows += other.delta_cand_rows;
        self.merge_reads += other.merge_reads;
        self.stats.merge(other.stats);
    }
}

/// Per-operator measurements of one executed plan, keyed by operator
/// identity. Obtain one via [`crate::Engine::run_profiled`] /
/// [`crate::Session::take_last_profile`].
#[derive(Clone, Debug, Default)]
pub struct PlanProfile {
    pub(crate) ops: HashMap<usize, OpMetrics>,
}

impl PlanProfile {
    /// Measurements of `expr`, if it executed. `expr` must belong to
    /// the plan this profile was recorded against.
    pub fn get(&self, expr: &PlanExpr) -> Option<&OpMetrics> {
        self.ops.get(&(expr as *const PlanExpr as usize))
    }

    /// Number of operators that recorded at least one call.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub(crate) fn op_mut(&mut self, key: usize) -> &mut OpMetrics {
        self.ops.entry(key).or_default()
    }
}

/// A plan together with the profile of one of its executions — the
/// self-contained unit `explain analyze` and `--profile-json` render.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    pub plan: Arc<Plan>,
    pub ops: PlanProfile,
}

impl QueryProfile {
    /// The `explain analyze` tree with measured times.
    pub fn render(&self) -> String {
        crate::explain::explain_analyze(&self.plan, &self.ops, false)
    }

    /// The `explain analyze` tree with times redacted — deterministic
    /// output for golden tests.
    pub fn render_redacted(&self) -> String {
        crate::explain::explain_analyze(&self.plan, &self.ops, true)
    }

    /// Machine-readable profile: a JSON object with the pass list and
    /// one entry per *executed* operator, in stable-id order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"passes\": [");
        for (k, p) in self.plan.passes.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{p}\""));
        }
        out.push_str("],\n  \"operators\": [");
        let mut first = true;
        let mut id = 0u32;
        self.plan.visit_exprs(&mut |expr| {
            let this_id = id;
            id += 1;
            let Some(m) = self.ops.get(expr) else { return };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"id\": {}, \"kind\": \"{}\", \"calls\": {}, \"rows\": {}, \"wall_ns\": {}",
                this_id,
                op_kind(expr),
                m.calls,
                m.out_rows,
                m.wall_ns
            ));
            if let Some(j) = &m.join {
                out.push_str(&format!(
                    ", \"join\": {{\"ctx_rows\": {}, \"target_joins\": {}, \"cand_rows\": {}, \
                     \"cand_max\": {}, \"delta_cand_rows\": {}, \"merge_reads\": {}",
                    j.ctx_rows,
                    j.target_joins,
                    j.cand_rows,
                    j.cand_max,
                    j.delta_cand_rows,
                    j.merge_reads,
                ));
                for (counter, value) in j.stats.counters() {
                    out.push_str(&format!(", \"{}\": {value}", counter.name));
                }
                out.push('}');
            }
            if let PlanExpr::StandoffStep { op, .. } | PlanExpr::StandoffFn { op, .. } = expr {
                if let Some(est) = &op.estimate {
                    out.push_str(&format!(
                        ", \"estimate\": {{\"entries\": {}, \"candidates\": {}}}",
                        est.index.entries,
                        est.candidates
                            .map(|c| c.to_string())
                            .unwrap_or_else(|| "null".to_string())
                    ));
                }
            }
            out.push('}');
        });
        out.push_str("\n  ]\n}");
        out
    }
}

/// The stable id of every operator in `plan`: address → pre-order
/// position under [`Plan::visit_exprs`]. Deterministic per plan.
pub fn operator_ids(plan: &Plan) -> HashMap<usize, u32> {
    let mut ids = HashMap::new();
    let mut next = 0u32;
    plan.visit_exprs(&mut |expr| {
        ids.insert(expr as *const PlanExpr as usize, next);
        next += 1;
    });
    ids
}

/// Short kind label of an operator (JSON `"kind"` field).
pub fn op_kind(expr: &PlanExpr) -> &'static str {
    match expr {
        PlanExpr::Const(_) => "const",
        PlanExpr::Var(_) => "var",
        PlanExpr::ContextItem => "context-item",
        PlanExpr::Sequence(_) => "sequence",
        PlanExpr::Flwor { .. } => "flwor",
        PlanExpr::Quantified { .. } => "quantified",
        PlanExpr::IfThenElse { .. } => "if",
        PlanExpr::Or(..) => "or",
        PlanExpr::And(..) => "and",
        PlanExpr::Comparison(..) => "compare",
        PlanExpr::Arith(..) => "arith",
        PlanExpr::Range(..) => "range",
        PlanExpr::Neg(_) => "negate",
        PlanExpr::Union(..) => "union",
        PlanExpr::Intersect(..) => "intersect",
        PlanExpr::Except(..) => "except",
        PlanExpr::TreeStep { .. } => "tree-step",
        PlanExpr::StandoffStep { .. } => "standoff-step",
        PlanExpr::PathExpr { .. } => "path",
        PlanExpr::RootPath => "root",
        PlanExpr::Filter { .. } => "filter",
        PlanExpr::AttrEquals { .. } => "attr-filter",
        PlanExpr::UdfCall { .. } => "udf-call",
        PlanExpr::StandoffFn { .. } => "standoff-join",
        PlanExpr::BuiltinCall { .. } => "builtin-call",
        PlanExpr::Constructor(_) => "construct",
    }
}

/// Human time rendering for `explain analyze` (`1.2µs`, `3.4ms`, …).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}
