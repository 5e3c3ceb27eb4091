//! Paths, tree steps and predicates: the `.` a relative path reads, the
//! per-context-node scope of a positional tree-step predicate, the
//! generic predicate scope (`.`, `position()`, `last()`), and the two
//! predicates that need no scope at all — the fused `[@name = "value"]`
//! filter and a pick by rank (`[k]`, `[last()]`).

use standoff_algebra::{Item, LlSeq, NodeTable, NodeTest, TreeAxis};
use standoff_core::join::Rank;
use standoff_xml::{AttrTable, Corrupt, DocId, NodeRef};

use super::{positions, Evaluator, Frame, Rows};
use crate::engine::EngineState;
use crate::error::QueryError;
use crate::plan::{Atom, PlanExpr, StandoffOp};

/// The pick by rank a predicate is ([`Rank`]): `[k]` for a constant
/// integer `k`, or `[last()]`; `None` for any other predicate.
fn rank_of(predicate: &PlanExpr) -> Option<Rank> {
    match predicate {
        PlanExpr::Const(Atom::Integer(k)) => Some(Rank::Nth(*k)),
        // Resolved like `eval_builtin_call`: by local name, never a UDF.
        PlanExpr::BuiltinCall { name, args }
            if args.is_empty()
                && name.split_once(':').map_or(name.as_str(), |(_, l)| l) == "last" =>
        {
            Some(Rank::Last)
        }
        _ => None,
    }
}

/// The pick a StandOff step hands to its join: its first predicate's
/// rank, when the join's own rows are the step's — the plan proved the
/// node test, so no trailing `self::` step filters them first. A
/// leading rank is picked in the join as a leading `[@a = "v"]` is
/// tested as a tree step emits.
pub(crate) fn fused_rank(op: &StandoffOp, predicates: &[PlanExpr]) -> Option<Rank> {
    predicates
        .first()
        .filter(|_| op.test_guaranteed)
        .and_then(rank_of)
}

/// A pick by rank's output, metered as the predicate it replaces: that
/// operator yields one value per input row (the constant `k`, or each
/// row's `last()`), so governance charges — and the profile counts —
/// the input's rows.
struct Picked<T> {
    table: T,
    positions: usize,
}

impl<T> Rows for Picked<T> {
    fn rows(&self) -> usize {
        self.positions
    }
}

/// The fused `[@name = "value"]` predicate on one node row: does the
/// row's element carry that attribute with exactly that value, read
/// straight off the owning document's attribute columns? It is what the
/// generic frame computes for this shape — the attribute axis from the
/// row, atomized, string-compared, existentially — without attribute
/// nodes, a boolean column or position/last columns: rows that are not
/// elements have no attributes and drop. A document's attribute table
/// is asked for once, with the name: a table that fails its
/// verification fails the test.
struct AttrTest<'a> {
    engine: &'a EngineState,
    name: &'a str,
    value: &'a str,
    /// Rows arrive grouped by document, so one remembered resolution
    /// makes the name lookup and the table's verification once per
    /// document.
    resolved: Option<(DocId, Option<standoff_xml::NameId>, &'a AttrTable)>,
}

impl<'a> AttrTest<'a> {
    fn new(engine: &'a EngineState, name: &'a str, value: &'a str) -> Self {
        AttrTest {
            engine,
            name,
            value,
            resolved: None,
        }
    }

    fn keeps(&mut self, node: NodeRef) -> Result<bool, Corrupt> {
        let Some(pre) = node.id.pre() else {
            return Ok(false); // attribute rows have no attributes
        };
        let (id, attrs) = match self.resolved {
            Some((d, id, attrs)) if d == node.doc => (id, attrs),
            _ => {
                let doc = self.engine.store.doc(node.doc);
                let (id, attrs) = (doc.names().get(self.name), doc.attrs()?);
                self.resolved = Some((node.doc, id, attrs));
                (id, attrs)
            }
        };
        Ok(id.is_some_and(|id| attrs.find(pre, id).is_some_and(|v| *v == *self.value)))
    }
}

impl Evaluator<'_> {
    pub(super) fn context_nodes(
        &mut self,
        input: Option<&PlanExpr>,
    ) -> Result<NodeTable, QueryError> {
        match input {
            Some(e) => self.eval_nodes(e),
            None => {
                let t = self.lookup(".").map_err(|_| {
                    QueryError::dynamic("relative path used without a context item")
                })?;
                NodeTable::from_llseq(&t).map_err(QueryError::dynamic)
            }
        }
    }

    /// Evaluate an operator for a consumer that wants *nodes* — the next
    /// step of a path, a join's context or candidates — as the node
    /// table it is.
    pub(super) fn eval_nodes(&mut self, expr: &PlanExpr) -> Result<NodeTable, QueryError> {
        match self.eval_step_nodes(expr) {
            Some(nodes) => nodes,
            None => NodeTable::from_llseq(&self.eval(expr)?).map_err(QueryError::dynamic),
        }
    }

    /// A step without predicates — or a StandOff step whose only one is
    /// picked in its join — computes a node table; consumers that need
    /// nodes — or only their `iter` column, like `count` — take it as it
    /// is instead of an item table built from it row by row. `None` for
    /// any other operator.
    fn eval_step_nodes(&mut self, expr: &PlanExpr) -> Option<Result<NodeTable, QueryError>> {
        match expr {
            PlanExpr::TreeStep {
                input,
                axis,
                test,
                predicates,
            } if predicates.is_empty() => Some(self.metered(expr, |ev| {
                let ctx = ev.context_nodes(input.as_deref())?;
                ev.tree_step_nodes(ctx, *axis, test, None)
            })),
            PlanExpr::StandoffStep {
                input,
                op,
                test,
                predicates,
            } => {
                let pick = fused_rank(op, predicates).map(|rank| (&predicates[0], rank));
                (predicates.len() == usize::from(pick.is_some())).then(|| {
                    self.metered(expr, |ev| {
                        ev.standoff_step_nodes(expr, input.as_deref(), op, test, pick)
                    })
                })
            }
            _ => None,
        }
    }

    /// The `iter` column of an operator's value — all that `count`,
    /// `exists` and `empty` need of their argument.
    pub(super) fn eval_iters(&mut self, expr: &PlanExpr) -> Result<Vec<u32>, QueryError> {
        match self.eval_step_nodes(expr) {
            Some(nodes) => Ok(nodes?.into_iters()),
            None => Ok(self.eval(expr)?.iters().to_vec()),
        }
    }

    pub(super) fn eval_tree_step(
        &mut self,
        input: Option<&PlanExpr>,
        axis: TreeAxis,
        test: &NodeTest,
        predicates: &[PlanExpr],
    ) -> Result<LlSeq, QueryError> {
        let ctx = self.context_nodes(input)?;
        // XPath numbers a tree step predicate's positions per *context
        // node*: `p/x[1]` is the first `x` of every `p`. Filtering the
        // whole iteration's result instead is the same thing when no
        // predicate can be positional or every iteration holds one
        // context node — the loop-lifted common case, which keeps the
        // single scan.
        if predicates.iter().all(crate::optimize::non_positional)
            || ctx.iters().windows(2).all(|w| w[0] < w[1])
        {
            return self.tree_step_in_scope(ctx, axis, test, predicates);
        }
        // Otherwise every context row becomes its own iteration of an
        // intermediate scope; results map back and re-merge per iteration.
        let lifted = NodeTable::from_columns((0..ctx.len() as u32).collect(), ctx.nodes().to_vec());
        let result = self.scoped(Frame::per_row(ctx.iters()), |ev| {
            ev.tree_step_in_scope(lifted, axis, test, predicates)
        })?;
        let mut nodes = NodeTable::from_llseq(&result.unrestrict(ctx.iters()))
            .expect("a tree step yields nodes");
        nodes.normalize(&self.engine.store)?;
        Ok(nodes.into_llseq())
    }

    /// One tree step plus its predicates over `ctx`, whose iterations are
    /// the current scope's; positions count within an iteration's result.
    fn tree_step_in_scope(
        &mut self,
        ctx: NodeTable,
        axis: TreeAxis,
        test: &NodeTest,
        predicates: &[PlanExpr],
    ) -> Result<LlSeq, QueryError> {
        // A leading `[@a = "v"]` is tested as the step emits each row,
        // so the rows it drops are never stored or ordered.
        if let [first @ PlanExpr::AttrEquals { name, value }, rest @ ..] = predicates {
            let nodes = self.metered(first, |ev| {
                ev.tree_step_nodes(ctx, axis, test, Some((name, value)))
            })?;
            return self.apply_step_predicates(nodes, rest);
        }
        let nodes = self.tree_step_nodes(ctx, axis, test, None)?;
        self.apply_step_predicates(nodes, predicates)
    }

    /// A step's predicates over its node table. Leading `[@a = "v"]`
    /// filters drop rows while they are still node rows, so only the
    /// rows they keep become items for the predicates after them.
    pub(super) fn apply_step_predicates(
        &mut self,
        mut nodes: NodeTable,
        predicates: &[PlanExpr],
    ) -> Result<LlSeq, QueryError> {
        let mut rest = predicates;
        while let [predicate, tail @ ..] = rest {
            nodes = match (predicate, rank_of(predicate)) {
                (PlanExpr::AttrEquals { name, value }, _) => {
                    self.metered(predicate, |ev| ev.filter_attr_nodes(nodes, name, value))?
                }
                (_, Some(rank)) => {
                    let (iters, values) = (nodes.iters(), nodes.nodes());
                    let make = NodeTable::from_columns;
                    self.pick_by_rank(predicate, rank, iters.len(), iters, values, make)?
                }
                _ => break,
            };
            rest = tail;
        }
        let mut table = nodes.into_llseq();
        for predicate in rest {
            table = self.apply_predicate(table, predicate)?;
        }
        Ok(table)
    }

    /// One tree step over `ctx`, keeping only the rows that carry
    /// attribute `attr.0` = `attr.1` when asked to.
    fn tree_step_nodes(
        &mut self,
        ctx: NodeTable,
        axis: TreeAxis,
        test: &NodeTest,
        attr: Option<(&str, &str)>,
    ) -> Result<NodeTable, QueryError> {
        use standoff_algebra::staircase::{ll_step_cached, ll_step_where};
        let engine = &*self.engine;
        // `test` is plan memory (see `name_cache`), so resolution is
        // memoized per document across re-executions of this step.
        let cache = &mut self.name_cache;
        Ok(match attr {
            Some((name, value)) => {
                let mut attr = AttrTest::new(engine, name, value);
                ll_step_where(&engine.store, &ctx, axis, test, cache, |node| {
                    attr.keeps(node)
                })?
            }
            None => ll_step_cached(&engine.store, &ctx, axis, test, cache)?,
        })
    }

    pub(super) fn eval_path_expr(
        &mut self,
        input: &PlanExpr,
        step: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        let t = self.eval(input)?;
        // Scope over the rows of the input; "." bound per row.
        let frame = Frame::per_row(t.iters()).binding(".", t.items().to_vec());
        let r = self
            .scoped(frame, |ev| ev.eval(step))?
            .unrestrict(t.iters());
        // Node results get document order + dedup; atom results keep
        // sequence order (XQuery 3.0 relaxation — simple-map-like).
        match NodeTable::from_llseq(&r) {
            Ok(mut nodes) => {
                nodes.normalize(&self.engine.store)?;
                Ok(nodes.into_llseq())
            }
            Err(_) => Ok(r),
        }
    }

    pub(super) fn eval_root_path(&mut self) -> Result<LlSeq, QueryError> {
        let ctx = self
            .lookup(".")
            .map_err(|_| QueryError::dynamic("'/' used without a context item (use doc(...))"))?;
        let mut out = LlSeq::empty();
        for (iter, items) in ctx.groups() {
            let mut last: Option<NodeRef> = None;
            for item in items {
                let node = item
                    .as_node()
                    .ok_or_else(|| QueryError::dynamic("'/' on a non-node context item"))?;
                let root = self.engine.store.fragment_root(node)?;
                if last != Some(root) {
                    out.push(iter, Item::Node(root));
                    last = Some(root);
                }
            }
        }
        Ok(out)
    }

    /// Apply one predicate to a sequence: positional if the predicate
    /// value is numeric, boolean otherwise (XPath 2.0 semantics).
    pub(crate) fn apply_predicate(
        &mut self,
        table: LlSeq,
        predicate: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        if let PlanExpr::AttrEquals { name, value } = predicate {
            return self.metered(predicate, |ev| {
                // An atomic row is word for word the attribute step's
                // complaint.
                let nodes = NodeTable::from_llseq(&table).map_err(QueryError::dynamic)?;
                Ok(ev.filter_attr_nodes(nodes, name, value)?.into_llseq())
            });
        }
        if let Some(rank) = rank_of(predicate) {
            let (iters, items) = (table.iters(), table.items());
            let make = LlSeq::from_columns;
            return self.pick_by_rank(predicate, rank, iters.len(), iters, items, make);
        }
        // Positions and group sizes within the input's iterations: a
        // row's `last()` is the position of its run's final row.
        let iters = table.iters();
        let positions = positions(iters);
        let mut lasts = positions.clone();
        for k in (1..lasts.len()).rev() {
            if iters[k - 1] == iters[k] {
                lasts[k - 1] = lasts[k];
            }
        }
        let integers = |column: &[i64]| column.iter().map(|&p| Item::Integer(p)).collect();
        let frame = Frame::per_row(iters)
            .binding(".", table.items().to_vec())
            .binding("fn:position", integers(&positions))
            .binding("fn:last", integers(&lasts));
        let cond = self.scoped(frame, |ev| ev.eval(predicate))?;

        let mut out = LlSeq::empty();
        for (k, &position) in positions.iter().enumerate() {
            let keep = match cond.group(k as u32) {
                [] => false,
                [Item::Integer(i)] => *i == position,
                [Item::Double(d)] => *d == position as f64,
                [other] => other.effective_boolean(),
                // Multi-item predicate values: EBV (relaxed as in
                // LlSeq::effective_boolean).
                [_, ..] => true,
            };
            if keep {
                out.push(iters[k], table.items()[k].clone());
            }
        }
        Ok(out)
    }

    /// `predicate`, a pick by `rank`, over a table with columns `iters`
    /// and `values`; `table` makes the output table from the kept rows.
    /// It is metered on the `positions` rows it picks from: the table's
    /// own, or all the rows a join selected before it kept only these
    /// ([`RankPick`]).
    ///
    /// [`RankPick`]: standoff_core::join::RankPick
    pub(super) fn pick_by_rank<V: Clone, T>(
        &mut self,
        predicate: &PlanExpr,
        rank: Rank,
        positions: usize,
        iters: &[u32],
        values: &[V],
        table: impl FnOnce(Vec<u32>, Vec<V>) -> T,
    ) -> Result<T, QueryError> {
        let picked = self.metered(predicate, |_| {
            let (kept_iters, kept) = rank.pick(iters, values);
            Ok(Picked {
                table: table(kept_iters, kept),
                positions,
            })
        })?;
        Ok(picked.table)
    }

    /// The fused `[@name = "value"]` predicate over node rows (see
    /// [`AttrTest`]), polling the budget like the join kernels.
    fn filter_attr_nodes(
        &self,
        table: NodeTable,
        name: &str,
        value: &str,
    ) -> Result<NodeTable, QueryError> {
        let budget = self.engine.budget.as_ref();
        let mut attr = AttrTest::new(self.engine, name, value);
        let mut out = NodeTable::new();
        for (k, (&iter, &node)) in table.iters().iter().zip(table.nodes()).enumerate() {
            // Governed like the join kernels: one poll per 64 rows.
            if k % 64 == 0 {
                if let Some(why) = budget.and_then(|b| b.poll()) {
                    return Err(why.into());
                }
            }
            if attr.keeps(node)? {
                out.push(iter, node);
            }
        }
        Ok(out)
    }
}
