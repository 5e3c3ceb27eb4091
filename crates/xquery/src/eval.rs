//! The loop-lifted plan executor.
//!
//! The evaluator runs **compiled plans** ([`crate::plan`]) — never the
//! surface AST. Every plan operator is evaluated **once per scope**,
//! producing an `iter|pos|item` table ([`LlSeq`]) that holds its value
//! for *all* iterations of the enclosing for-loops simultaneously —
//! Pathfinder's loop-lifting (paper §4.1) realized as a direct plan
//! interpreter. A `for` clause does not loop: it pushes a *frame* whose
//! iterations are the rows of the binding sequence; axis steps and
//! StandOff joins then run once, in bulk, over the whole frame. This is
//! precisely what makes the loop-lifted StandOff MergeJoin reachable
//! from queries like XMark Q2.
//!
//! Plan-time decisions are honored, not re-made: each StandOff join
//! operator carries its strategy and candidate-pushdown annotation
//! ([`crate::plan::StandoffOp`]), and FLWOR operators carry the
//! optimizer's hoisted loop-invariant bindings, which this module
//! evaluates once per surviving host iteration (after the `where`
//! restriction) instead of once per inner iteration.
//!
//! A StandOff join (`eval_standoff_join`) splits its context into *join
//! units* — the context documents of one mounted layer group together,
//! any other document alone — resolves and sorts a unit's context once,
//! joins it in one kernel call into each layer that can answer the step
//! (`engine::answering_layers`, the function `explain` names the layers
//! with), and emits the one `(iter, pre)`-sorted run that comes back,
//! or merges the several; no result is sorted. Steps hand their node
//! table to consumers that want nodes — the next step, `count` —
//! without building items (`eval_step_nodes`).
//!
//! Frames form a stack; each non-root frame carries a map from its
//! iterations to its parent's, so outer variables expand on demand and
//! results map back when the frame pops.

use std::collections::HashMap;
use std::sync::Arc;

use standoff_algebra::{Item, LlSeq, NameCache, NodeTable, NodeTest, TreeAxis};
use standoff_core::join::{join_resolved, JoinScratch, JoinTarget};
use standoff_core::{IterNode, RegionIndex, StandoffConfig};
use standoff_xml::{DocId, DocumentBuilder, NodeKind, NodeRef};

use crate::ast::{ArithOp, CompOp};
use crate::engine::{answering_layers, EngineState, LayerFilter};
use crate::error::QueryError;
use crate::functions;
use crate::plan::*;
use crate::profile::{JoinExec, PlanProfile};

/// An operator result [`Evaluator::metered`] can account for.
trait Rows {
    fn rows(&self) -> usize;
}

impl Rows for LlSeq {
    fn rows(&self) -> usize {
        self.len()
    }
}

impl Rows for NodeTable {
    fn rows(&self) -> usize {
        self.len()
    }
}

/// The fused `[@name = "value"]` predicate on one node row: does the
/// row's element carry that attribute with exactly that value, read
/// straight off the owning document's attribute columns? It is what the
/// generic frame computes for this shape — the attribute axis from the
/// row, atomized, string-compared, existentially — without attribute
/// nodes, a boolean column or position/last columns: rows that are not
/// elements have no attributes and drop.
struct AttrTest<'a> {
    engine: &'a EngineState,
    name: &'a str,
    value: &'a str,
    /// Rows arrive grouped by document, so one remembered resolution
    /// makes the name lookup once per document.
    resolved: Option<(DocId, Option<standoff_xml::NameId>)>,
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

    fn keeps(&mut self, node: NodeRef) -> bool {
        let Some(pre) = node.id.pre() else {
            return false; // attribute rows have no attributes
        };
        let doc = self.engine.store.doc(node.doc);
        let id = match self.resolved {
            Some((d, id)) if d == node.doc => id,
            _ => {
                let id = doc.names().get(self.name);
                self.resolved = Some((node.doc, id));
                id
            }
        };
        id.is_some_and(|id| {
            doc.attr_range(pre)
                .any(|a| doc.attr_name_id(a) == id && doc.attr_value(a) == self.value)
        })
    }
}

/// One join unit of a StandOff join: the context rows that are joined
/// together, bucketed per document (ascending; rows sorted and
/// duplicate-free, attributes standing for their owner elements). The
/// context documents of one mounted layer group form one unit and join
/// into the group's layers — the multi-layer corpus model of
/// `standoff-store`, regions share the BLOB coordinate space; any other
/// document is a unit of its own and joins within itself (§3.3
/// fragment semantics).
struct JoinUnit {
    group: Option<u32>,
    contexts: Vec<(DocId, Vec<IterNode>)>,
}

/// One scope of the loop-lifting frame stack.
pub struct Frame {
    /// Number of iterations of this scope.
    pub n_iters: u32,
    /// `map[i]` = parent-frame iteration of this frame's iteration `i`
    /// (monotone non-decreasing). `None` for the root frame.
    pub map: Option<Vec<u32>>,
    /// Variables bound in this frame, in this frame's numbering.
    pub vars: HashMap<String, LlSeq>,
    /// Function-call barrier: variable lookup skips outer frames (except
    /// the root frame's globals) but iteration maps still compose.
    pub barrier: bool,
}

pub struct Evaluator<'e> {
    pub engine: &'e mut EngineState,
    pub config: StandoffConfig,
    /// The plan's user-defined function table; [`PlanExpr::UdfCall`]
    /// indexes into it.
    pub functions: Vec<Arc<PlanFunction>>,
    pub frames: Vec<Frame>,
    pub call_depth: usize,
    /// Per-execution memo of name-test resolutions for tree steps. The
    /// cache keys on test addresses, which is sound here because every
    /// cached test lives in the executing plan: the body outlives the
    /// evaluator's borrow, and function bodies are pinned by the `Arc`s
    /// in `functions`.
    name_cache: NameCache,
    /// Per-operator measurements, present only while profiling (see
    /// [`crate::engine::EngineOptions::profile`]). Keyed by operator
    /// address, which is sound for the same reason as `name_cache`.
    /// When `None` — the default — [`Evaluator::eval`] is a single
    /// branch away from the unprofiled dispatch (the
    /// `TraceSink::enabled` zero-cost pattern).
    profile: Option<Box<PlanProfile>>,
}

impl<'e> Evaluator<'e> {
    pub fn new(engine: &'e mut EngineState, config: StandoffConfig) -> Self {
        Evaluator {
            engine,
            config,
            functions: Vec::new(),
            frames: vec![Frame {
                n_iters: 1,
                map: None,
                vars: HashMap::new(),
                barrier: false,
            }],
            call_depth: 0,
            name_cache: NameCache::new(),
            profile: None,
        }
    }

    /// Switch per-operator profiling on for this execution. Idempotent;
    /// measurements accumulate into a fresh [`PlanProfile`].
    pub(crate) fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// Detach the recorded profile, if profiling was enabled.
    pub(crate) fn take_profile(&mut self) -> Option<PlanProfile> {
        self.profile.take().map(|p| *p)
    }

    #[inline]
    pub fn n_iters(&self) -> u32 {
        self.frames.last().unwrap().n_iters
    }

    fn top_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().unwrap()
    }

    /// Bind a variable in the current frame.
    pub fn bind(&mut self, name: &str, value: LlSeq) {
        self.top_mut().vars.insert(name.to_string(), value);
    }

    /// Look up a variable, expanding it from its defining frame into the
    /// current frame's iteration numbering.
    pub fn lookup(&self, name: &str) -> Result<LlSeq, QueryError> {
        let top = self.frames.len() - 1;
        let mut depth = top as isize;
        let mut blocked = false;
        while depth >= 0 {
            let frame = &self.frames[depth as usize];
            // Below a barrier only the root frame's globals are visible.
            if (!blocked || depth == 0) && frame.vars.contains_key(name) {
                let table = frame.vars.get(name).unwrap();
                return Ok(self.expand_to_top(table, depth as usize));
            }
            if frame.barrier {
                blocked = true;
            }
            depth -= 1;
        }
        Err(QueryError::stat(format!("undeclared variable ${name}")))
    }

    /// Expand a table expressed in `frame_depth`'s numbering into the top
    /// frame's numbering by composing the iteration maps.
    fn expand_to_top(&self, table: &LlSeq, frame_depth: usize) -> LlSeq {
        let top = self.frames.len() - 1;
        if frame_depth == top {
            return table.clone();
        }
        // Compose map: top iteration -> frame_depth iteration.
        let mut composed: Vec<u32> = match &self.frames[top].map {
            Some(m) => m.clone(),
            None => (0..self.frames[top].n_iters).collect(),
        };
        for depth in (frame_depth + 1..top).rev() {
            let m = self.frames[depth]
                .map
                .as_ref()
                .expect("non-root frames have maps");
            for c in composed.iter_mut() {
                *c = m[*c as usize];
            }
        }
        table.expand(&composed)
    }

    // ================= operator dispatch =================

    pub fn eval(&mut self, expr: &PlanExpr) -> Result<LlSeq, QueryError> {
        self.metered(expr, |ev| ev.eval_inner(expr))
    }

    /// Run one operator — `run` computes `op`'s output — under whatever
    /// accounting is switched on: governance around it, the per-operator
    /// profile on top. Every operator goes through here, whichever
    /// function evaluates it.
    #[inline]
    fn metered<T: Rows>(
        &mut self,
        op: &PlanExpr,
        run: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        if self.profile.is_none() && self.engine.budget.is_none() {
            // Ungoverned, unprofiled: the zero-overhead path every
            // benchmark and plain run takes.
            return run(self);
        }
        if self.profile.is_none() {
            return self.governed(run);
        }
        let start = std::time::Instant::now();
        let result = if self.engine.budget.is_none() {
            run(self)
        } else {
            self.governed(run)
        };
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(p) = self.profile.as_deref_mut() {
            let m = p.op_mut(op as *const PlanExpr as usize);
            m.calls += 1;
            // Inclusive of children: the renderer shows the hierarchy.
            m.wall_ns += ns;
            if let Ok(t) = &result {
                m.out_rows += t.rows() as u64;
            }
        }
        result
    }

    /// One operator under a governance budget: check the
    /// deadline/cancellation flag before descending into it, and charge
    /// its output cardinality afterwards. Operator outputs are
    /// plan-shaped — identical across join strategies and thread
    /// counts — so a result-cardinality cap trips deterministically no
    /// matter how the join was evaluated.
    fn governed<T: Rows>(
        &mut self,
        run: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let budget = self
            .engine
            .budget
            .clone()
            .expect("governed evaluation requires an installed budget");
        budget.check()?;
        let result = run(self)?;
        budget.charge_results(result.rows() as u64)?;
        Ok(result)
    }

    fn eval_inner(&mut self, expr: &PlanExpr) -> Result<LlSeq, QueryError> {
        match expr {
            PlanExpr::Const(atom) => Ok(LlSeq::lifted_const(self.n_iters(), atom.to_item())),
            PlanExpr::Var(name) => self.lookup(name),
            PlanExpr::ContextItem => self.lookup("."),
            PlanExpr::Sequence(items) => {
                let mut out = LlSeq::empty();
                for e in items {
                    let t = self.eval(e)?;
                    out = out.concat(&t);
                }
                Ok(out)
            }
            PlanExpr::Flwor {
                hoisted,
                clauses,
                where_clause,
                order_by,
                return_clause,
            } => self.eval_flwor(
                hoisted,
                clauses,
                where_clause.as_deref(),
                order_by,
                return_clause,
            ),
            PlanExpr::Quantified {
                every,
                bindings,
                satisfies,
            } => self.eval_quantified(*every, bindings, satisfies),
            PlanExpr::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => self.eval_if(cond, then_branch, else_branch),
            PlanExpr::Or(a, b) => self.eval_logical(a, b, |x, y| x || y),
            PlanExpr::And(a, b) => self.eval_logical(a, b, |x, y| x && y),
            PlanExpr::Comparison(op, a, b) => self.eval_comparison(*op, a, b),
            PlanExpr::Arith(op, a, b) => self.eval_arith(*op, a, b),
            PlanExpr::Range(a, b) => self.eval_range(a, b),
            PlanExpr::Neg(e) => self.eval_neg(e),
            PlanExpr::Union(a, b) => self.eval_union(a, b),
            PlanExpr::Intersect(a, b) => self.eval_intersect_except(a, b, true),
            PlanExpr::Except(a, b) => self.eval_intersect_except(a, b, false),
            PlanExpr::TreeStep {
                input,
                axis,
                test,
                predicates,
            } => self.eval_tree_step(input.as_deref(), *axis, test, predicates),
            PlanExpr::StandoffStep {
                input,
                op,
                test,
                predicates,
            } => {
                let nodes = self.standoff_step_nodes(expr, input.as_deref(), op, test)?;
                self.apply_step_predicates(nodes, predicates)
            }
            PlanExpr::PathExpr { input, step } => self.eval_path_expr(input, step),
            PlanExpr::RootPath => self.eval_root_path(),
            PlanExpr::Filter { input, predicate } => {
                let t = self.eval(input)?;
                self.apply_predicate(t, predicate)
            }
            PlanExpr::AttrEquals { .. } => Err(QueryError::internal(
                "attribute filter evaluated outside a predicate",
            )),
            PlanExpr::UdfCall { index, name, args } => self.eval_udf_call(*index, name, args),
            PlanExpr::StandoffFn {
                op,
                ctx,
                candidates,
            } => {
                let ctx_nodes = self.eval_nodes(ctx)?;
                let cands = candidates
                    .as_deref()
                    .map(|c| self.eval_nodes(c))
                    .transpose()?;
                let out = self.eval_standoff_join(
                    &ctx_nodes,
                    op,
                    &NodeTest::any_element(),
                    cands.as_ref(),
                    expr as *const PlanExpr as usize,
                )?;
                Ok(out.into_llseq())
            }
            PlanExpr::BuiltinCall { name, args } => self.eval_builtin_call(name, args),
            PlanExpr::Constructor(c) => self.eval_constructor(c),
        }
    }

    // ================= FLWOR =================

    fn eval_flwor(
        &mut self,
        hoisted: &[(String, PlanExpr)],
        clauses: &[PlanClause],
        where_clause: Option<&PlanExpr>,
        order_by: &[PlanOrderKey],
        return_clause: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        let base_depth = self.frames.len();
        // A FLWOR gets its own scope frame (identity map) so that `let`
        // bindings never escape into the host frame — in the root scope
        // they would otherwise masquerade as globals and leak through
        // function-call barriers. Hoisted loop-invariant bindings also
        // live here, in host numbering.
        let host_n = self.n_iters();
        self.frames.push(Frame {
            n_iters: host_n,
            map: Some((0..host_n).collect()),
            vars: HashMap::new(),
            barrier: false,
        });
        let result = (|| {
            for clause in clauses {
                match clause {
                    PlanClause::For { var, at, seq } => {
                        let s = self.eval(seq)?;
                        // New scope: one iteration per row of the binding
                        // sequence.
                        let n = s.len() as u32;
                        let map = s.iters().to_vec();
                        // Positional variable: position within the old
                        // iteration's group.
                        let at_table = at.as_ref().map(|_| {
                            let mut items = Vec::with_capacity(s.len());
                            let mut pos = 0i64;
                            for k in 0..s.len() {
                                if k > 0 && s.iters()[k] != s.iters()[k - 1] {
                                    pos = 0;
                                }
                                pos += 1;
                                items.push(Item::Integer(pos));
                            }
                            LlSeq::from_columns((0..n).collect(), items)
                        });
                        let var_table = LlSeq::from_columns((0..n).collect(), s.items().to_vec());
                        let mut vars = HashMap::new();
                        vars.insert(var.clone(), var_table);
                        if let (Some(at_name), Some(at_table)) = (at, at_table) {
                            vars.insert(at_name.clone(), at_table);
                        }
                        self.frames.push(Frame {
                            n_iters: n,
                            map: Some(map),
                            vars,
                            barrier: false,
                        });
                    }
                    PlanClause::Let { var, value } => {
                        let v = self.eval(value)?;
                        self.bind(var, v);
                    }
                }
            }
            if let Some(w) = where_clause {
                let cond = self.eval(w)?;
                let keep = cond.effective_boolean(self.n_iters());
                // Restriction frame over the kept iterations.
                let mapping: Vec<u32> = keep
                    .iter()
                    .enumerate()
                    .filter(|(_, &k)| k)
                    .map(|(i, _)| i as u32)
                    .collect();
                self.frames.push(Frame {
                    n_iters: mapping.len() as u32,
                    map: Some(mapping),
                    vars: HashMap::new(),
                    barrier: false,
                });
            }

            // Loop-invariant bindings the optimizer hoisted out of this
            // FLWOR: evaluated in the *scope frame* (host numbering),
            // restricted to the host iterations that survive into the
            // current inner scope — once per surviving host iteration
            // instead of once per inner iteration, and not at all when
            // the iteration space is empty (preserving the lazy error
            // behavior of empty loops).
            if !hoisted.is_empty() {
                let n_top = self.n_iters();
                let mut comp: Vec<u32> = (0..n_top).collect();
                for depth in (base_depth + 1..self.frames.len()).rev() {
                    let m = self.frames[depth].map.as_ref().unwrap();
                    for c in comp.iter_mut() {
                        *c = m[*c as usize];
                    }
                }
                let mut surviving = comp;
                surviving.sort_unstable();
                surviving.dedup();
                let saved = self.frames.split_off(base_depth + 1);
                let mut outcome = Ok(());
                for (name, expr) in hoisted {
                    match self.eval_in_restriction(surviving.clone(), expr) {
                        Ok(value) => self.bind(name, value),
                        Err(e) => {
                            outcome = Err(e);
                            break;
                        }
                    }
                }
                self.frames.extend(saved);
                outcome?;
            }

            // Ranks for order-by (identity without one).
            let n = self.n_iters();
            let rank: Vec<u32> = if order_by.is_empty() {
                (0..n).collect()
            } else {
                self.order_by_ranks(order_by)?
            };

            let body = self.eval(return_clause)?;

            // Map the body back through all frames pushed by this FLWOR,
            // reordering iterations by rank within each host iteration.
            let mut comp: Vec<u32> = (0..n).collect();
            for depth in (base_depth..self.frames.len()).rev() {
                let m = self.frames[depth].map.as_ref().unwrap();
                for c in comp.iter_mut() {
                    *c = m[*c as usize];
                }
            }
            // Order inner iterations by (host iter, rank).
            let mut order: Vec<u32> = (0..n).collect();
            order.sort_by_key(|&k| (comp[k as usize], rank[k as usize], k));
            let mut out = LlSeq::empty();
            for &k in &order {
                for item in body.group(k) {
                    out.push(comp[k as usize], item.clone());
                }
            }
            Ok(out)
        })();
        self.frames.truncate(base_depth);
        result
    }

    /// Rank of each current-frame iteration under the order-by keys,
    /// within its host iteration group.
    fn order_by_ranks(&mut self, order_by: &[PlanOrderKey]) -> Result<Vec<u32>, QueryError> {
        let n = self.n_iters();
        // Evaluate each key: per iteration an optional atomic item.
        let mut keys: Vec<Vec<Option<Item>>> = Vec::with_capacity(order_by.len());
        for key in order_by {
            let t = self.eval(&key.expr)?;
            let mut col: Vec<Option<Item>> = vec![None; n as usize];
            for (iter, items) in t.groups() {
                if let Some(first) = items.first() {
                    col[iter as usize] = Some(first.atomize(&self.engine.store));
                }
            }
            keys.push(col);
        }
        let store = &self.engine.store;
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|&a, &b| {
            for (key, spec) in keys.iter().zip(order_by) {
                let (ka, kb) = (&key[a as usize], &key[b as usize]);
                let ord = match (ka, kb) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less, // empty least
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(x), Some(y)) => x
                        .general_compare(y, store)
                        .unwrap_or(std::cmp::Ordering::Equal),
                };
                let ord = if spec.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b) // stable
        });
        let mut rank = vec![0u32; n as usize];
        for (r, &k) in order.iter().enumerate() {
            rank[k as usize] = r as u32;
        }
        Ok(rank)
    }

    fn eval_quantified(
        &mut self,
        every: bool,
        bindings: &[(String, PlanExpr)],
        satisfies: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        let base_depth = self.frames.len();
        let host_n = self.n_iters();
        let result = (|| {
            for (var, seq) in bindings {
                let s = self.eval(seq)?;
                let n = s.len() as u32;
                let map = s.iters().to_vec();
                let var_table = LlSeq::from_columns((0..n).collect(), s.items().to_vec());
                let mut vars = HashMap::new();
                vars.insert(var.clone(), var_table);
                self.frames.push(Frame {
                    n_iters: n,
                    map: Some(map),
                    vars,
                    barrier: false,
                });
            }
            let cond = self.eval(satisfies)?;
            let inner_n = self.n_iters();
            let truth = cond.effective_boolean(inner_n);
            // Compose back to the host frame.
            let mut comp: Vec<u32> = (0..inner_n).collect();
            for depth in (base_depth..self.frames.len()).rev() {
                let m = self.frames[depth].map.as_ref().unwrap();
                for c in comp.iter_mut() {
                    *c = m[*c as usize];
                }
            }
            let mut agg = vec![every; host_n as usize];
            for k in 0..inner_n as usize {
                let host = comp[k] as usize;
                if every {
                    agg[host] = agg[host] && truth[k];
                } else {
                    agg[host] = agg[host] || truth[k];
                }
            }
            Ok(LlSeq::from_columns(
                (0..host_n).collect(),
                agg.into_iter().map(Item::Boolean).collect(),
            ))
        })();
        self.frames.truncate(base_depth);
        result
    }

    fn eval_if(
        &mut self,
        cond: &PlanExpr,
        then_branch: &PlanExpr,
        else_branch: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        let c = self.eval(cond)?;
        let keep = c.effective_boolean(self.n_iters());
        let then_iters: Vec<u32> = keep
            .iter()
            .enumerate()
            .filter(|(_, &k)| k)
            .map(|(i, _)| i as u32)
            .collect();
        let else_iters: Vec<u32> = keep
            .iter()
            .enumerate()
            .filter(|(_, &k)| !k)
            .map(|(i, _)| i as u32)
            .collect();
        let then_part = self.eval_in_restriction(then_iters, then_branch)?;
        let else_part = self.eval_in_restriction(else_iters, else_branch)?;
        Ok(then_part.concat(&else_part))
    }

    /// Evaluate `expr` in a restriction frame over `iters` (host
    /// numbering); result comes back in host numbering. Skipping the
    /// evaluation entirely when the restriction is empty is what makes
    /// recursive user-defined functions terminate.
    fn eval_in_restriction(
        &mut self,
        iters: Vec<u32>,
        expr: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        if iters.is_empty() {
            return Ok(LlSeq::empty());
        }
        self.frames.push(Frame {
            n_iters: iters.len() as u32,
            map: Some(iters),
            vars: HashMap::new(),
            barrier: false,
        });
        let result = self.eval(expr);
        let frame = self.frames.pop().unwrap();
        let map = frame.map.unwrap();
        result.map(|t| t.unrestrict(&map))
    }

    fn eval_logical(
        &mut self,
        a: &PlanExpr,
        b: &PlanExpr,
        op: impl Fn(bool, bool) -> bool,
    ) -> Result<LlSeq, QueryError> {
        let n = self.n_iters();
        let ta = self.eval(a)?.effective_boolean(n);
        let tb = self.eval(b)?.effective_boolean(n);
        Ok(LlSeq::from_columns(
            (0..n).collect(),
            ta.iter()
                .zip(&tb)
                .map(|(&x, &y)| Item::Boolean(op(x, y)))
                .collect(),
        ))
    }

    fn eval_comparison(
        &mut self,
        op: CompOp,
        a: &PlanExpr,
        b: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        use std::cmp::Ordering;
        let n = self.n_iters();
        let ta = self.eval(a)?;
        let tb = self.eval(b)?;
        let check = |ord: Option<Ordering>, op: CompOp| -> bool {
            match (ord, op) {
                (Some(o), CompOp::Eq | CompOp::ValEq) => o == Ordering::Equal,
                (Some(o), CompOp::Ne | CompOp::ValNe) => o != Ordering::Equal,
                (Some(o), CompOp::Lt | CompOp::ValLt) => o == Ordering::Less,
                (Some(o), CompOp::Le | CompOp::ValLe) => o != Ordering::Greater,
                (Some(o), CompOp::Gt | CompOp::ValGt) => o == Ordering::Greater,
                (Some(o), CompOp::Ge | CompOp::ValGe) => o != Ordering::Less,
                (None, _) => false,
                (Some(_), CompOp::Is) => unreachable!("'is' handled before check()"),
            }
        };
        let is_value_comp = matches!(
            op,
            CompOp::ValEq
                | CompOp::ValNe
                | CompOp::ValLt
                | CompOp::ValLe
                | CompOp::ValGt
                | CompOp::ValGe
                | CompOp::Is
        );
        let mut iters = Vec::new();
        let mut items = Vec::new();
        for iter in 0..n {
            let ga = ta.group(iter);
            let gb = tb.group(iter);
            if is_value_comp {
                // Value comparison: empty operand → empty result.
                if ga.is_empty() || gb.is_empty() {
                    continue;
                }
                let result = if op == CompOp::Is {
                    match (ga[0].as_node(), gb[0].as_node()) {
                        (Some(x), Some(y)) => x == y,
                        _ => {
                            return Err(QueryError::dynamic(
                                "'is' requires node operands".to_string(),
                            ))
                        }
                    }
                } else {
                    check(ga[0].general_compare(&gb[0], &self.engine.store), op)
                };
                iters.push(iter);
                items.push(Item::Boolean(result));
            } else {
                // General comparison: existential over the pair set.
                let mut result = false;
                'outer: for x in ga {
                    for y in gb {
                        if check(x.general_compare(y, &self.engine.store), op) {
                            result = true;
                            break 'outer;
                        }
                    }
                }
                iters.push(iter);
                items.push(Item::Boolean(result));
            }
        }
        Ok(LlSeq::from_columns(iters, items))
    }

    fn eval_arith(&mut self, op: ArithOp, a: &PlanExpr, b: &PlanExpr) -> Result<LlSeq, QueryError> {
        let n = self.n_iters();
        let ta = self.eval(a)?;
        let tb = self.eval(b)?;
        let mut iters = Vec::new();
        let mut items = Vec::new();
        for iter in 0..n {
            let ga = ta.group(iter);
            let gb = tb.group(iter);
            if ga.is_empty() || gb.is_empty() {
                continue; // arithmetic on () is ()
            }
            let x = ga[0].atomize(&self.engine.store);
            let y = gb[0].atomize(&self.engine.store);
            items.push(arith_items(op, &x, &y, &self.engine.store)?);
            iters.push(iter);
        }
        Ok(LlSeq::from_columns(iters, items))
    }

    fn eval_range(&mut self, a: &PlanExpr, b: &PlanExpr) -> Result<LlSeq, QueryError> {
        let n = self.n_iters();
        let ta = self.eval(a)?;
        let tb = self.eval(b)?;
        let mut out = LlSeq::empty();
        for iter in 0..n {
            let (ga, gb) = (ta.group(iter), tb.group(iter));
            if ga.is_empty() || gb.is_empty() {
                continue;
            }
            let lo = int_value(&ga[0], &self.engine.store)?;
            let hi = int_value(&gb[0], &self.engine.store)?;
            for v in lo..=hi {
                out.push(iter, Item::Integer(v));
            }
        }
        Ok(out)
    }

    fn eval_neg(&mut self, e: &PlanExpr) -> Result<LlSeq, QueryError> {
        let t = self.eval(e)?;
        let n = self.n_iters();
        let mut iters = Vec::new();
        let mut items = Vec::new();
        for iter in 0..n {
            let g = t.group(iter);
            if g.is_empty() {
                continue;
            }
            let item = match g[0].atomize(&self.engine.store) {
                Item::Integer(i) => Item::Integer(-i),
                other => Item::Double(
                    -other
                        .as_number(&self.engine.store)
                        .ok_or_else(|| QueryError::dynamic("cannot negate non-number"))?,
                ),
            };
            iters.push(iter);
            items.push(item);
        }
        Ok(LlSeq::from_columns(iters, items))
    }

    fn eval_union(&mut self, a: &PlanExpr, b: &PlanExpr) -> Result<LlSeq, QueryError> {
        let ta = self.eval(a)?;
        let tb = self.eval(b)?;
        let na = NodeTable::from_llseq(&ta).map_err(QueryError::dynamic)?;
        let nb = NodeTable::from_llseq(&tb).map_err(QueryError::dynamic)?;
        // Merge rows per iteration then normalize.
        let merged = na.into_llseq().concat(&nb.into_llseq());
        let mut table = NodeTable::from_llseq(&merged).expect("nodes in, nodes out");
        table.normalize(&self.engine.store);
        Ok(table.into_llseq())
    }

    /// `intersect` / `except`: node-identity set operations, per
    /// iteration, result in document order.
    fn eval_intersect_except(
        &mut self,
        a: &PlanExpr,
        b: &PlanExpr,
        keep_common: bool,
    ) -> Result<LlSeq, QueryError> {
        let ta = self.eval(a)?;
        let tb = self.eval(b)?;
        let mut na = NodeTable::from_llseq(&ta).map_err(QueryError::dynamic)?;
        let mut nb = NodeTable::from_llseq(&tb).map_err(QueryError::dynamic)?;
        na.normalize(&self.engine.store);
        nb.normalize(&self.engine.store);
        let mut out = NodeTable::with_capacity(na.len());
        for (&iter, node) in na.iters().iter().zip(na.nodes()) {
            let in_b = nb.group(iter).contains(node);
            if in_b == keep_common {
                out.push(iter, *node);
            }
        }
        Ok(out.into_llseq())
    }

    // ================= paths and steps =================

    fn context_nodes(&mut self, input: Option<&PlanExpr>) -> Result<NodeTable, QueryError> {
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
    fn eval_nodes(&mut self, expr: &PlanExpr) -> Result<NodeTable, QueryError> {
        match self.eval_step_nodes(expr) {
            Some(nodes) => nodes,
            None => NodeTable::from_llseq(&self.eval(expr)?).map_err(QueryError::dynamic),
        }
    }

    /// A step without predicates computes a node table; consumers that
    /// need nodes — or only their `iter` column, like `count` — take it
    /// as it is instead of an item table built from it row by row.
    /// `None` for any other operator.
    fn eval_step_nodes(&mut self, expr: &PlanExpr) -> Option<Result<NodeTable, QueryError>> {
        match expr {
            PlanExpr::TreeStep {
                input,
                axis,
                test,
                predicates,
            } if predicates.is_empty() => Some(self.metered(expr, |ev| {
                let ctx = ev.context_nodes(input.as_deref())?;
                Ok(ev.tree_step_nodes(ctx, *axis, test, None))
            })),
            PlanExpr::StandoffStep {
                input,
                op,
                test,
                predicates,
            } if predicates.is_empty() => Some(self.metered(expr, |ev| {
                ev.standoff_step_nodes(expr, input.as_deref(), op, test)
            })),
            _ => None,
        }
    }

    /// The `iter` column of an operator's value — all that `count`,
    /// `exists` and `empty` need of their argument.
    fn eval_iters(&mut self, expr: &PlanExpr) -> Result<Vec<u32>, QueryError> {
        match self.eval_step_nodes(expr) {
            Some(nodes) => Ok(nodes?.into_iters()),
            None => Ok(self.eval(expr)?.iters().to_vec()),
        }
    }

    fn eval_tree_step(
        &mut self,
        input: Option<&PlanExpr>,
        axis: TreeAxis,
        test: &NodeTest,
        predicates: &[PlanExpr],
    ) -> Result<LlSeq, QueryError> {
        let ctx = self.context_nodes(input)?;
        // XPath numbers a step predicate's positions per *context node*:
        // `p/x[1]` is the first `x` of every `p`. Filtering the whole
        // iteration's result instead is the same thing when no predicate
        // can be positional or every iteration holds one context node —
        // the loop-lifted common case, which keeps the single scan.
        if predicates.iter().all(crate::optimize::non_positional)
            || ctx.iters().windows(2).all(|w| w[0] < w[1])
        {
            return self.tree_step_in_scope(ctx, axis, test, predicates);
        }
        // Otherwise every context row becomes its own iteration of an
        // intermediate scope; results map back and re-merge per iteration.
        let map = ctx.iters().to_vec();
        let n = ctx.len() as u32;
        let lifted = NodeTable::from_columns((0..n).collect(), ctx.nodes().to_vec());
        self.frames.push(Frame {
            n_iters: n,
            map: Some(map.clone()),
            vars: HashMap::new(),
            barrier: false,
        });
        let result = self.tree_step_in_scope(lifted, axis, test, predicates);
        self.frames.pop();
        let mut nodes =
            NodeTable::from_llseq(&result?.unrestrict(&map)).expect("a tree step yields nodes");
        nodes.normalize(&self.engine.store);
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
                Ok(ev.tree_step_nodes(ctx, axis, test, Some((name, value))))
            })?;
            return self.apply_step_predicates(nodes, rest);
        }
        let nodes = self.tree_step_nodes(ctx, axis, test, None);
        self.apply_step_predicates(nodes, predicates)
    }

    /// A step's predicates over its node table. Leading `[@a = "v"]`
    /// filters drop rows while they are still node rows, so only the
    /// rows they keep become items for the predicates after them.
    fn apply_step_predicates(
        &mut self,
        mut nodes: NodeTable,
        predicates: &[PlanExpr],
    ) -> Result<LlSeq, QueryError> {
        let mut rest = predicates;
        while let [predicate @ PlanExpr::AttrEquals { name, value }, tail @ ..] = rest {
            nodes = self.metered(predicate, |ev| ev.filter_attr_nodes(nodes, name, value))?;
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
    ) -> NodeTable {
        use standoff_algebra::staircase::{ll_step_cached, ll_step_where};
        // `test` is plan memory (see `name_cache`), so resolution is
        // memoized per document across re-executions of this step.
        let engine = &*self.engine;
        let cache = &mut self.name_cache;
        match attr {
            Some((name, value)) => {
                let mut attr = AttrTest::new(engine, name, value);
                ll_step_where(&engine.store, &ctx, axis, test, cache, |node| {
                    attr.keeps(node)
                })
            }
            None => ll_step_cached(&engine.store, &ctx, axis, test, cache),
        }
    }

    /// A StandOff axis step without its predicates.
    fn standoff_step_nodes(
        &mut self,
        expr: &PlanExpr,
        input: Option<&PlanExpr>,
        op: &StandoffOp,
        test: &NodeTest,
    ) -> Result<NodeTable, QueryError> {
        let ctx = self.context_nodes(input)?;
        self.eval_standoff_join(&ctx, op, test, None, expr as *const PlanExpr as usize)
    }

    /// The region index of a document: a mounted layer's own index,
    /// under the configuration it was built with (materializing the
    /// layer on first use); anything else is indexed under the query
    /// prolog's `standoff-*` options.
    fn region_index_of(&mut self, doc: DocId) -> Result<Arc<RegionIndex>, QueryError> {
        if let Some(layer) = self.engine.mounted_layer(doc) {
            return layer.index();
        }
        let config = self.config.clone();
        self.engine.region_index(doc, &config)
    }

    /// Evaluate one StandOff join operator under the *plan-annotated*
    /// strategy and candidate pushdown — decided at plan time, not here;
    /// an explicit candidate node sequence (the built-in function form,
    /// Figure 3) overrides the name-test pushdown.
    ///
    /// The context splits into join units ([`JoinUnit`]). Per unit, the
    /// context rows of all its documents are resolved to region entries
    /// and sorted once, and joined in one kernel call into each
    /// layer that can answer the step ([`answering_layers`]). Every call
    /// returns its layer's rows `(iter, pre)`-sorted and layers are
    /// visited in document order, so the result is one such run as it
    /// is, or a k-way merge of several ([`NodeTable::from_runs`]) —
    /// never a sort.
    fn eval_standoff_join(
        &mut self,
        ctx: &NodeTable,
        op: &StandoffOp,
        test: &NodeTest,
        explicit_candidates: Option<&NodeTable>,
        prof_key: usize,
    ) -> Result<NodeTable, QueryError> {
        let units = self.join_units(ctx);
        // Explicit candidates, bucketed per document like the context.
        let cand_buckets = explicit_candidates.map(|cands| {
            let mut buckets: HashMap<DocId, Vec<u32>> = HashMap::new();
            for node in cands.nodes() {
                if let Some(pre) = node.id.pre() {
                    buckets.entry(node.doc).or_default().push(pre);
                }
            }
            for list in buckets.values_mut() {
                list.sort_unstable();
                list.dedup();
            }
            buckets
        });
        // What the join did accumulates locally and folds into the
        // engine at the end: the kernels borrow the engine's store.
        let mut exec = JoinExec {
            ctx_rows: ctx.len() as u64,
            ..JoinExec::default()
        };
        let mut scratch = std::mem::take(&mut self.engine.join_scratch);
        // Governance handle for the scan/merge kernels, so a deadline
        // or cancellation interrupts the join mid-kernel.
        scratch.set_budget(self.engine.budget.clone());
        // One `(iter, pre)`-sorted run per target layer joined, in
        // document order: units ascend, and so do a unit's layers.
        let mut runs: Vec<(DocId, Vec<IterNode>)> = Vec::new();
        let joined = units.iter().try_for_each(|unit| {
            self.join_unit(
                unit,
                op,
                cand_buckets.as_ref(),
                &mut scratch,
                &mut exec,
                &mut runs,
            )
        });
        // Fold the kernel counters (dense scans, branch-free blocks)
        // accumulated inside the join calls into this operator's stat
        // delta before the scratch goes back — on *every* exit, error
        // paths included: an index build failure must not silently drop
        // the session's warmed buffer set.
        exec.stats.merge(scratch.take_stats());
        self.engine.join_scratch = scratch;
        joined?;
        let out = NodeTable::from_runs(&runs, |row| (row.iter, row.node));
        if runs.len() > 1 {
            exec.stats.result_merges += 1;
        } else {
            exec.stats.result_sorts_elided += 1;
        }
        // The runs and the table merged from them are join memory like
        // the kernel buffers: one scratch cap covers all of it.
        if let Some(b) = &self.engine.budget {
            let run_rows: usize = runs.iter().map(|(_, run)| run.capacity()).sum();
            let held = run_rows * std::mem::size_of::<IterNode>()
                + out.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<NodeRef>());
            b.note_scratch(self.engine.join_scratch.approx_bytes() + held as u64)?;
        }
        // Post-filter with the node test — unless the plan proved the
        // test is guaranteed by the join itself (pushed-down name test,
        // kind-only test over element output): then the §3.2 trailing
        // `/self::name` step is pure overhead and is elided. The
        // unoptimized reference lowering never sets the flag and keeps
        // the literal trailing step.
        if op.test_guaranteed {
            exec.stats.post_filters_elided += 1;
        } else {
            exec.stats.post_filters += 1;
        }
        // Single fold point: engine counters, registry mirror, and —
        // when profiling — the operator's JoinExec detail.
        self.engine.handles.record_join(&exec.stats);
        self.engine.join_stats.merge(exec.stats);
        if let Some(p) = self.profile.as_deref_mut() {
            p.op_mut(prof_key)
                .join
                .get_or_insert_with(JoinExec::default)
                .merge(&exec);
        }
        if op.test_guaranteed {
            return Ok(out);
        }
        Ok(standoff_algebra::staircase::ll_step(
            &self.engine.store,
            &out,
            TreeAxis::SelfAxis,
            test,
        ))
    }

    /// Split a join's context into its [`JoinUnit`]s, ascending by
    /// document.
    fn join_units(&self, ctx: &NodeTable) -> Vec<JoinUnit> {
        // Rows arrive grouped by iteration and, within one, by document:
        // remembering the last bucket makes the map lookup per run of
        // rows, not per row.
        let mut buckets: Vec<(DocId, Vec<IterNode>)> = Vec::new();
        let mut slots: HashMap<DocId, usize> = HashMap::new();
        let mut last = 0;
        for (&iter, node) in ctx.iters().iter().zip(ctx.nodes()) {
            // Only element nodes can be area-annotations; other context
            // nodes still pin their fragment for the reject domain.
            let pre = match node.id.pre() {
                Some(p) => p,
                None => self
                    .engine
                    .store
                    .doc(node.doc)
                    .attr_owner(node.id.attr_index().expect("attr id")),
            };
            if buckets.get(last).is_none_or(|(doc, _)| *doc != node.doc) {
                last = *slots.entry(node.doc).or_insert_with(|| {
                    buckets.push((node.doc, Vec::new()));
                    buckets.len() - 1
                });
            }
            buckets[last].1.push(IterNode { iter, node: pre });
        }
        buckets.sort_unstable_by_key(|(doc, _)| *doc);
        let mut units: Vec<JoinUnit> = Vec::new();
        for (doc, mut rows) in buckets {
            rows.sort_unstable();
            rows.dedup();
            let group = self.engine.layer_group_id(doc);
            // A mount registers its layers back to back, so the
            // documents of one group are neighbours here.
            match units.last_mut() {
                Some(unit) if group.is_some() && unit.group == group => {
                    unit.contexts.push((doc, rows))
                }
                _ => units.push(JoinUnit {
                    group,
                    contexts: vec![(doc, rows)],
                }),
            }
        }
        units
    }

    /// Join one unit: resolve its context once, then one kernel call per
    /// answering layer, each appending its run to `runs`.
    fn join_unit(
        &mut self,
        unit: &JoinUnit,
        op: &StandoffOp,
        cand_buckets: Option<&HashMap<DocId, Vec<u32>>>,
        scratch: &mut JoinScratch,
        exec: &mut JoinExec,
        runs: &mut Vec<(DocId, Vec<IterNode>)>,
    ) -> Result<(), QueryError> {
        // Per-unit chokepoint: between fragments is the coarse place a
        // governed join re-reads the clock eagerly.
        if let Some(b) = &self.engine.budget {
            b.check()?;
        }
        let lone = [unit.contexts[0].0];
        let members = match unit.group {
            Some(g) => self.engine.layer_group_members(g),
            None => &lone,
        };
        let filter = LayerFilter::of(op, cand_buckets);
        let targets = answering_layers(&self.engine.store, members, &filter);
        // Plan honesty: an explain-grade plan printed the layers of each
        // mounted group this join would reach (`layers: …; result: …`,
        // absent for an explicit candidate sequence); the layers reached
        // now must be those.
        let claimed = op.estimate.as_ref().and_then(|est| est.layers.as_ref());
        if let (Some(g), Some(claimed)) = (unit.group, claimed) {
            let claim = claimed.iter().find(|c| c.group == g);
            if claim.map(|c| c.answering.len()) != Some(targets.len()) {
                self.engine.handles.claim_mismatch_result_merge.inc();
                debug_assert!(false, "plan claimed {claim:?}, joined {targets:?}");
            }
        }
        if targets.is_empty() {
            return Ok(());
        }
        // Index lookups need the engine mutably; the joins only borrow.
        let ctx_indexes = (unit.contexts.iter())
            .map(|(doc, _)| self.region_index_of(*doc))
            .collect::<Result<Vec<_>, _>>()?;
        let target_indexes = (targets.iter())
            .map(|&doc| self.region_index_of(doc))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = &*self.engine;
        let contexts = unit.contexts.iter().zip(&ctx_indexes);
        scratch.resolve_context(contexts.map(|((_, rows), index)| (&**index, &rows[..])));
        // The rejects complement over every iteration of the unit.
        let mut iter_domain: Vec<u32> = Vec::new();
        if !op.axis.is_select() {
            for (_, rows) in &unit.contexts {
                iter_domain.extend(rows.iter().map(|row| row.iter));
            }
            iter_domain.sort_unstable();
            iter_domain.dedup();
        }
        for (&target, index) in targets.iter().zip(&target_indexes) {
            let doc = engine.store.doc(target);
            // Candidate restriction: explicit sequence, or the plan's
            // name-test pushdown through the element index (§4.3) —
            // always against the *target* layer's document. The element
            // index is borrowed as-is: builder-produced indexes are
            // strictly ascending by construction and snapshot-loaded
            // ones are validated when mounted.
            let candidates: Option<&[u32]> = match cand_buckets {
                Some(buckets) => Some(buckets.get(&target).map_or(&[], Vec::as_slice)),
                None => op.pushdown.as_deref().map(|name| doc.elements_named(name)),
            };
            if let Some(cands) = candidates {
                exec.cand_rows += cands.len() as u64;
                exec.cand_max = exec.cand_max.max(cands.len() as u64);
            }
            exec.target_joins += 1;
            exec.target_entries += index.len() as u64;
            let input = JoinTarget {
                doc,
                index,
                candidates,
                iter_domain: &iter_domain,
            };
            let run = join_resolved(op.axis, op.strategy, &input, None, scratch);
            runs.push((target, run));
        }
        Ok(())
    }

    fn eval_path_expr(&mut self, input: &PlanExpr, step: &PlanExpr) -> Result<LlSeq, QueryError> {
        let t = self.eval(input)?;
        // Scope over the rows of the input; "." bound per row.
        let n = t.len() as u32;
        let map = t.iters().to_vec();
        let mut vars = HashMap::new();
        vars.insert(
            ".".to_string(),
            LlSeq::from_columns((0..n).collect(), t.items().to_vec()),
        );
        self.frames.push(Frame {
            n_iters: n,
            map: Some(map.clone()),
            vars,
            barrier: false,
        });
        let result = self.eval(step);
        self.frames.pop();
        let r = result?.unrestrict(&map);
        // Node results get document order + dedup; atom results keep
        // sequence order (XQuery 3.0 relaxation — simple-map-like).
        match NodeTable::from_llseq(&r) {
            Ok(mut nodes) => {
                nodes.normalize(&self.engine.store);
                Ok(nodes.into_llseq())
            }
            Err(_) => Ok(r),
        }
    }

    fn eval_root_path(&mut self) -> Result<LlSeq, QueryError> {
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
                let root = NodeRef::tree(node.doc, 0);
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
        let n = table.len() as u32;
        let map = table.iters().to_vec();
        // Positions and group sizes within the input's iterations.
        let mut positions = Vec::with_capacity(table.len());
        let mut sizes_by_row = vec![0i64; table.len()];
        {
            let mut start = 0usize;
            while start < table.len() {
                let iter = table.iters()[start];
                let mut end = start;
                while end < table.len() && table.iters()[end] == iter {
                    end += 1;
                }
                for (offset, row) in (start..end).enumerate() {
                    positions.push(Item::Integer(offset as i64 + 1));
                    sizes_by_row[row] = (end - start) as i64;
                }
                start = end;
            }
        }
        let mut vars = HashMap::new();
        vars.insert(
            ".".to_string(),
            LlSeq::from_columns((0..n).collect(), table.items().to_vec()),
        );
        vars.insert(
            "fn:position".to_string(),
            LlSeq::from_columns((0..n).collect(), positions.clone()),
        );
        vars.insert(
            "fn:last".to_string(),
            LlSeq::from_columns(
                (0..n).collect(),
                sizes_by_row.iter().map(|&s| Item::Integer(s)).collect(),
            ),
        );
        self.frames.push(Frame {
            n_iters: n,
            map: Some(map),
            vars,
            barrier: false,
        });
        let cond = self.eval(predicate);
        self.frames.pop();
        let cond = cond?;

        let mut out = LlSeq::empty();
        for (k, position) in positions.iter().enumerate() {
            let g = cond.group(k as u32);
            let keep = match g {
                [] => false,
                [single] => match single {
                    Item::Integer(i) => *i == int_item(position),
                    Item::Double(d) => *d == int_item(position) as f64,
                    other => other.effective_boolean(),
                },
                // Multi-item predicate values: EBV (relaxed as in
                // LlSeq::effective_boolean).
                [_, ..] => true,
            };
            if keep {
                out.push(table.iters()[k], table.items()[k].clone());
            }
        }
        Ok(out)
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
            if attr.keeps(node) {
                out.push(iter, node);
            }
        }
        Ok(out)
    }

    // ================= functions =================

    /// Call a user-defined function resolved to `index` at compile time.
    fn eval_udf_call(
        &mut self,
        index: usize,
        name: &str,
        args: &[PlanExpr],
    ) -> Result<LlSeq, QueryError> {
        let decl =
            self.functions.get(index).cloned().ok_or_else(|| {
                QueryError::internal(format!("dangling function index for {name}()"))
            })?;
        if decl.params.len() != args.len() {
            return Err(QueryError::stat(format!(
                "function {name}() expects {} argument(s), got {}",
                decl.params.len(),
                args.len()
            )));
        }
        if self.call_depth >= self.engine.options.recursion_limit {
            return Err(QueryError::dynamic(format!(
                "recursion limit ({}) exceeded in {name}()",
                self.engine.options.recursion_limit
            )));
        }
        let mut vars = HashMap::new();
        for (param, arg) in decl.params.iter().zip(args) {
            vars.insert(param.clone(), self.eval(arg)?);
        }
        let n = self.n_iters();
        self.frames.push(Frame {
            n_iters: n,
            map: Some((0..n).collect()),
            vars,
            barrier: true,
        });
        self.call_depth += 1;
        let result = self.eval(&decl.body);
        self.call_depth -= 1;
        self.frames.pop();
        result
    }

    /// Call a built-in library function by name.
    fn eval_builtin_call(&mut self, name: &str, args: &[PlanExpr]) -> Result<LlSeq, QueryError> {
        let local = name.split_once(':').map(|(_, l)| l).unwrap_or(name);

        // Context-dependent zero-argument built-ins.
        if args.is_empty() {
            match local {
                "position" => {
                    return self
                        .lookup("fn:position")
                        .map_err(|_| QueryError::dynamic("position() used outside a predicate"))
                }
                "last" => {
                    return self
                        .lookup("fn:last")
                        .map_err(|_| QueryError::dynamic("last() used outside a predicate"))
                }
                // true()/false() are folded to constants at compile
                // time; handled here only for robustness.
                "true" => return Ok(LlSeq::lifted_const(self.n_iters(), Item::Boolean(true))),
                "false" => return Ok(LlSeq::lifted_const(self.n_iters(), Item::Boolean(false))),
                _ => {}
            }
        }

        // Aggregates that need no rows: the argument's `iter` column
        // answers them, and a step hands that over without building
        // items.
        if let ([arg], "count" | "exists" | "empty") = (args, local) {
            let iters = self.eval_iters(arg)?;
            return Ok(functions::aggregate_rows(local, self.n_iters(), &iters));
        }

        let mut arg_tables = Vec::with_capacity(args.len());
        for a in args {
            arg_tables.push(self.eval(a)?);
        }
        functions::call_builtin(self, local, arg_tables)?
            .ok_or_else(|| QueryError::stat(format!("unknown function {name}()")))
    }

    // ================= constructors =================

    fn eval_constructor(&mut self, c: &PlanConstructor) -> Result<LlSeq, QueryError> {
        // Evaluate every enclosed expression once (loop-lifted), then
        // assemble one element per iteration.
        let mut tables: Vec<LlSeq> = Vec::new();
        self.eval_constructor_exprs(c, &mut tables)?;
        let n = self.n_iters();
        let mut out = LlSeq::empty();
        for iter in 0..n {
            let mut builder = DocumentBuilder::new();
            let mut cursor = 0usize;
            self.build_element(c, iter, &tables, &mut cursor, &mut builder)?;
            let doc = builder
                .finish()
                .map_err(|e| QueryError::dynamic(format!("constructor failed: {e}")))?;
            let doc_id = self.engine.store.add(doc, None);
            out.push(iter, Item::Node(NodeRef::tree(doc_id, 1)));
        }
        Ok(out)
    }

    /// Depth-first evaluation of all enclosed expressions of a constructor
    /// tree, in syntactic order (matched by `build_element`'s cursor).
    fn eval_constructor_exprs(
        &mut self,
        c: &PlanConstructor,
        tables: &mut Vec<LlSeq>,
    ) -> Result<(), QueryError> {
        for (_, parts) in &c.attributes {
            for part in parts {
                if let PlanContent::Enclosed(e) = part {
                    let t = self.eval(e)?;
                    tables.push(t);
                }
            }
        }
        for part in &c.content {
            match part {
                PlanContent::Enclosed(e) => {
                    let t = self.eval(e)?;
                    tables.push(t);
                }
                PlanContent::Element(child) => {
                    self.eval_constructor_exprs(child, tables)?;
                }
                PlanContent::Text(_) => {}
            }
        }
        Ok(())
    }

    fn build_element(
        &self,
        c: &PlanConstructor,
        iter: u32,
        tables: &[LlSeq],
        cursor: &mut usize,
        builder: &mut DocumentBuilder,
    ) -> Result<(), QueryError> {
        builder.start_element(&c.name);
        for (attr_name, parts) in &c.attributes {
            let mut value = String::new();
            for part in parts {
                match part {
                    PlanContent::Text(t) => value.push_str(t),
                    PlanContent::Enclosed(_) => {
                        let t = &tables[*cursor];
                        *cursor += 1;
                        let mut first = true;
                        for item in t.group(iter) {
                            if !first {
                                value.push(' ');
                            }
                            first = false;
                            value.push_str(&item.string_value(&self.engine.store));
                        }
                    }
                    PlanContent::Element(_) => unreachable!("no elements in attributes"),
                }
            }
            builder.attribute(attr_name, &value);
        }
        for part in &c.content {
            match part {
                PlanContent::Text(t) => {
                    builder.text(t);
                }
                PlanContent::Element(child) => {
                    self.build_element(child, iter, tables, cursor, builder)?;
                }
                PlanContent::Enclosed(_) => {
                    let t = &tables[*cursor];
                    *cursor += 1;
                    let mut pending_atom = false;
                    for item in t.group(iter) {
                        match item {
                            Item::Node(node) => {
                                self.copy_node(*node, builder)?;
                                pending_atom = false;
                            }
                            atom => {
                                // Adjacent atoms joined with a space.
                                if pending_atom {
                                    builder.text(" ");
                                }
                                builder.text(&atom.string_value(&self.engine.store));
                                pending_atom = true;
                            }
                        }
                    }
                }
            }
        }
        builder.end_element();
        Ok(())
    }

    /// Deep-copy a node into the builder (XQuery constructor content copy
    /// semantics). Attribute nodes become attributes when they arrive
    /// before any other content of the element under construction.
    fn copy_node(&self, node: NodeRef, builder: &mut DocumentBuilder) -> Result<(), QueryError> {
        let doc = self.engine.store.doc(node.doc);
        if let Some(a) = node.id.attr_index() {
            let name = doc.names().lexical(doc.attr_name_id(a));
            builder.attribute(&name, doc.attr_value(a));
            return Ok(());
        }
        let root = node.id.pre().expect("tree node");
        match doc.kind(root) {
            NodeKind::Document => {
                for child in doc.children(root) {
                    self.copy_node(NodeRef::tree(node.doc, child), builder)?;
                }
                return Ok(());
            }
            NodeKind::Text => {
                builder.text(doc.value(root));
                return Ok(());
            }
            NodeKind::Comment => {
                builder.comment(doc.value(root));
                return Ok(());
            }
            NodeKind::Pi => {
                let name = doc.names().lexical(doc.name_id(root));
                builder.pi(&name, doc.value(root));
                return Ok(());
            }
            NodeKind::Element => {}
        }
        // Non-recursive subtree copy via an explicit end-stack.
        let end = root + doc.size(root);
        let mut open: Vec<u32> = Vec::new();
        let mut pre = root;
        while pre <= end {
            while let Some(&top) = open.last() {
                if pre > top + doc.size(top) {
                    builder.end_element();
                    open.pop();
                } else {
                    break;
                }
            }
            match doc.kind(pre) {
                NodeKind::Element => {
                    let name = doc.names().lexical(doc.name_id(pre));
                    builder.start_element(&name);
                    for a in doc.attr_range(pre) {
                        let an = doc.names().lexical(doc.attr_name_id(a));
                        builder.attribute(&an, doc.attr_value(a));
                    }
                    if doc.size(pre) == 0 {
                        builder.end_element();
                    } else {
                        open.push(pre);
                    }
                }
                NodeKind::Text => {
                    builder.text(doc.value(pre));
                }
                NodeKind::Comment => {
                    builder.comment(doc.value(pre));
                }
                NodeKind::Pi => {
                    let name = doc.names().lexical(doc.name_id(pre));
                    builder.pi(&name, doc.value(pre));
                }
                NodeKind::Document => {}
            }
            pre += 1;
        }
        while open.pop().is_some() {
            builder.end_element();
        }
        Ok(())
    }
}

// ================= helpers =================

fn int_item(item: &Item) -> i64 {
    match item {
        Item::Integer(i) => *i,
        _ => unreachable!("positions are integers"),
    }
}

pub(crate) fn int_value(item: &Item, store: &standoff_xml::Store) -> Result<i64, QueryError> {
    match item.atomize(store) {
        Item::Integer(i) => Ok(i),
        Item::Double(d) if d.fract() == 0.0 => Ok(d as i64),
        Item::Untyped(s) | Item::String(s) => s
            .trim()
            .parse()
            .map_err(|_| QueryError::dynamic(format!("'{s}' is not an integer"))),
        other => Err(QueryError::dynamic(format!("'{other}' is not an integer"))),
    }
}

fn arith_items(
    op: ArithOp,
    x: &Item,
    y: &Item,
    store: &standoff_xml::Store,
) -> Result<Item, QueryError> {
    // Integer arithmetic when both sides are integers (except div).
    if let (Item::Integer(a), Item::Integer(b)) = (x, y) {
        let (a, b) = (*a, *b);
        return Ok(match op {
            ArithOp::Add => Item::Integer(a.wrapping_add(b)),
            ArithOp::Sub => Item::Integer(a.wrapping_sub(b)),
            ArithOp::Mul => Item::Integer(a.wrapping_mul(b)),
            ArithOp::IDiv => {
                if b == 0 {
                    return Err(QueryError::dynamic("integer division by zero"));
                }
                Item::Integer(a / b)
            }
            ArithOp::Mod => {
                if b == 0 {
                    return Err(QueryError::dynamic("modulus by zero"));
                }
                Item::Integer(a % b)
            }
            ArithOp::Div => {
                if b == 0 {
                    return Err(QueryError::dynamic("division by zero"));
                }
                if a % b == 0 {
                    Item::Integer(a / b)
                } else {
                    Item::Double(a as f64 / b as f64)
                }
            }
        });
    }
    let a = x
        .as_number(store)
        .ok_or_else(|| QueryError::dynamic(format!("'{x}' is not a number")))?;
    let b = y
        .as_number(store)
        .ok_or_else(|| QueryError::dynamic(format!("'{y}' is not a number")))?;
    Ok(match op {
        ArithOp::Add => Item::Double(a + b),
        ArithOp::Sub => Item::Double(a - b),
        ArithOp::Mul => Item::Double(a * b),
        ArithOp::Div => Item::Double(a / b),
        ArithOp::IDiv => {
            if b == 0.0 {
                return Err(QueryError::dynamic("integer division by zero"));
            }
            Item::Integer((a / b).trunc() as i64)
        }
        ArithOp::Mod => Item::Double(a % b),
    })
}
