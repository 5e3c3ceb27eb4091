//! The loop-lifted plan executor.
//!
//! The evaluator runs **compiled plans** ([`crate::plan`]). Every plan
//! operator is evaluated **once per scope**,
//! producing an `iter|pos|item` table ([`LlSeq`]) that holds its value
//! for *all* iterations of the enclosing for-loops simultaneously —
//! Pathfinder's loop-lifting (paper §4.1) realized as a direct plan
//! interpreter. A `for` clause does not loop: it opens a *scope* whose
//! iterations are the rows of the binding sequence; axis steps and
//! StandOff joins then run once, in bulk, over the whole scope. This is
//! precisely what makes the loop-lifted StandOff MergeJoin reachable
//! from queries like XMark Q2.
//!
//! Plan-time decisions are honored, not re-made: each StandOff join
//! operator carries its strategy and candidate-pushdown annotation
//! ([`crate::plan::StandoffOp`]), and FLWOR operators carry the
//! optimizer's hoisted loop-invariant bindings, which are evaluated
//! once per surviving host iteration (after the `where` restriction)
//! instead of once per inner iteration.
//!
//! Scopes form a stack of frames; each non-root frame carries a map
//! from its iterations to its parent's, so outer variables expand on
//! demand and results map back when the scope closes. This module owns
//! that stack, and only it: [`Evaluator::scoped`] opens a frame, runs a
//! closure in it and restores the stack; [`Frame::per_row`] builds the
//! frame of one iteration per row of a table (`for`, quantifiers, a
//! path's `.`, a predicate's `.`/`position()`/`last()`, restrictions);
//! [`Evaluator::iters_at`] composes the maps down to a given frame.
//!
//! The operator families live in submodules: `steps` (paths, tree steps,
//! predicates, the fused attribute filter), `standoff` (StandOff joins),
//! `flwor` (FLWOR, quantifiers, `if`, function calls), `construct`
//! (element constructors) and `ops` (logic, comparisons, arithmetic,
//! node-set operators).

use std::collections::HashMap;
use std::sync::Arc;

use standoff_algebra::{Item, LlSeq, NameCache, NodeTable};
use standoff_core::StandoffConfig;

use crate::engine::EngineState;
use crate::error::QueryError;
use crate::plan::{PlanExpr, PlanFunction};
use crate::profile::PlanProfile;

mod construct;
mod flwor;
mod ops;
mod standoff;
mod steps;

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

/// Per-iteration row counts of an operator counted from the index: it
/// stands for as many rows as it counted.
impl Rows for Vec<u64> {
    fn rows(&self) -> usize {
        self.iter().sum::<u64>() as usize
    }
}

/// One scope of the loop-lifting frame stack.
struct Frame {
    /// Number of iterations of this scope.
    n_iters: u32,
    /// `map[i]` = parent-frame iteration of this frame's iteration `i`
    /// (monotone non-decreasing). `None` for the root frame.
    map: Option<Vec<u32>>,
    /// Variables bound in this frame, in this frame's numbering.
    vars: HashMap<String, LlSeq>,
    /// Function-call barrier: variable lookup skips outer frames (except
    /// the root frame's globals) but iteration maps still compose.
    barrier: bool,
}

impl Frame {
    /// The scope of one iteration per row of a table whose `iter` column
    /// is `iters`: iteration `k` runs inside parent iteration
    /// `iters[k]`. A restriction is the table of the iterations it keeps.
    fn per_row(iters: impl Into<Vec<u32>>) -> Frame {
        let map = iters.into();
        Frame {
            n_iters: map.len() as u32,
            map: Some(map),
            vars: HashMap::new(),
            barrier: false,
        }
    }

    /// Bind `name` to one item per iteration: `items[k]` to iteration `k`.
    fn binding(mut self, name: &str, items: Vec<Item>) -> Frame {
        let column = LlSeq::from_columns((0..self.n_iters).collect(), items);
        self.vars.insert(name.to_string(), column);
        self
    }

    /// A user-defined function's scope: the caller's `n` iterations
    /// behind a barrier, with the parameters bound.
    fn call(n: u32, params: HashMap<String, LlSeq>) -> Frame {
        Frame {
            n_iters: n,
            map: Some((0..n).collect()),
            vars: params,
            barrier: true,
        }
    }
}

/// The 1-based position of every row of an `iter` column within its
/// iteration's run: `for … at` and a predicate's `position()`.
fn positions(iters: &[u32]) -> Vec<i64> {
    let mut out: Vec<i64> = Vec::with_capacity(iters.len());
    for (k, &iter) in iters.iter().enumerate() {
        let position = match out.last() {
            Some(&p) if iters[k - 1] == iter => p + 1,
            _ => 1,
        };
        out.push(position);
    }
    out
}

pub(crate) struct Evaluator<'e> {
    engine: &'e mut EngineState,
    config: StandoffConfig,
    /// The plan's user-defined function table; [`PlanExpr::UdfCall`]
    /// indexes into it.
    functions: Vec<Arc<PlanFunction>>,
    frames: Vec<Frame>,
    call_depth: usize,
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
    pub(crate) fn new(
        engine: &'e mut EngineState,
        config: StandoffConfig,
        functions: Vec<Arc<PlanFunction>>,
    ) -> Self {
        Evaluator {
            engine,
            config,
            functions,
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
    fn n_iters(&self) -> u32 {
        self.frames.last().unwrap().n_iters
    }

    /// The depth of the top frame.
    fn depth(&self) -> usize {
        self.frames.len() - 1
    }

    /// Bind a variable in the current frame.
    pub(crate) fn bind(&mut self, name: &str, value: LlSeq) {
        self.bind_at(self.depth(), name, value);
    }

    /// Bind a variable in the frame at `depth`, in that frame's numbering.
    fn bind_at(&mut self, depth: usize, name: &str, value: LlSeq) {
        self.frames[depth].vars.insert(name.to_string(), value);
    }

    /// Look up a variable, expanding it from its defining frame into the
    /// current frame's iteration numbering.
    fn lookup(&self, name: &str) -> Result<LlSeq, QueryError> {
        let mut blocked = false;
        for (depth, frame) in self.frames.iter().enumerate().rev() {
            // Below a barrier only the root frame's globals are visible.
            if let Some(table) = frame.vars.get(name).filter(|_| !blocked || depth == 0) {
                if depth == self.depth() {
                    return Ok(table.clone());
                }
                return Ok(table.expand(&self.iters_at(depth)));
            }
            blocked |= frame.barrier;
        }
        Err(QueryError::stat(format!("undeclared variable ${name}")))
    }

    /// Open the scope `frame` above the current one, run `body` in it
    /// and close it: on every exit, errors included, the stack is back
    /// at its entry depth, whatever scopes `body` opened inside.
    fn scoped<T>(
        &mut self,
        frame: Frame,
        body: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let depth = self.frames.len();
        self.frames.push(frame);
        let result = body(self);
        self.frames.truncate(depth);
        result
    }

    /// For every iteration of the top frame, the iteration of the frame
    /// at `depth` it runs inside: the iteration maps composed from the
    /// top down. At the top frame's own depth, the identity.
    fn iters_at(&self, depth: usize) -> Vec<u32> {
        let Some((top, between)) = self.frames[depth + 1..].split_last() else {
            return (0..self.n_iters()).collect();
        };
        let mut iters = top.map.clone().expect("non-root frames have maps");
        for frame in between.iter().rev() {
            let map = frame.map.as_ref().expect("non-root frames have maps");
            for iter in iters.iter_mut() {
                *iter = map[*iter as usize];
            }
        }
        iters
    }

    // ================= operator dispatch =================

    pub(crate) fn eval(&mut self, expr: &PlanExpr) -> Result<LlSeq, QueryError> {
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
            } => self.eval_standoff_fn(expr, op, ctx, candidates.as_deref()),
            PlanExpr::BuiltinCall { name, args } => self.eval_builtin_call(name, args),
            PlanExpr::Constructor(c) => self.eval_constructor(c),
        }
    }
}
