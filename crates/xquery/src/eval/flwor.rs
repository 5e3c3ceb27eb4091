//! Iteration scopes over expressions: FLWOR (with `order by` and the
//! optimizer's hoisted bindings), quantified expressions, `if`, and
//! function calls — user-defined behind a barrier, built-in by name.

use std::collections::HashMap;

use standoff_algebra::{Item, LlSeq};

use super::{positions, Evaluator, Frame};
use crate::error::QueryError;
use crate::functions;
use crate::plan::{PlanClause, PlanExpr, PlanOrderKey};

/// Maximum user-defined function call depth.
const RECURSION_LIMIT: usize = 64;

/// What a FLWOR evaluates once its `for` clauses have opened their
/// scopes: in the innermost one.
struct FlworTail<'p> {
    /// Depth of the frame the FLWOR runs in; its scope frame is the one
    /// above.
    host: usize,
    hoisted: &'p [(String, PlanExpr)],
    where_clause: Option<&'p PlanExpr>,
    order_by: &'p [PlanOrderKey],
    return_clause: &'p PlanExpr,
}

/// The iterations whose flag in `flags` is `value`.
fn where_is(flags: &[bool], value: bool) -> Vec<u32> {
    (0..flags.len() as u32)
        .filter(|&i| flags[i as usize] == value)
        .collect()
}

impl Evaluator<'_> {
    pub(super) fn eval_flwor(
        &mut self,
        hoisted: &[(String, PlanExpr)],
        clauses: &[PlanClause],
        where_clause: Option<&PlanExpr>,
        order_by: &[PlanOrderKey],
        return_clause: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        let tail = FlworTail {
            host: self.depth(),
            hoisted,
            where_clause,
            order_by,
            return_clause,
        };
        // A FLWOR gets its own scope frame (identity map) so that `let`
        // bindings never escape into the host frame — in the root scope
        // they would otherwise masquerade as globals and leak through
        // function-call barriers. Hoisted loop-invariant bindings also
        // live here, in host numbering.
        let scope = Frame::per_row((0..self.n_iters()).collect::<Vec<_>>());
        self.scoped(scope, |ev| ev.flwor_clauses(clauses, &tail))
    }

    /// Bind the clauses left to right — each `for` opens a scope of one
    /// iteration per row of its binding sequence — and finish the FLWOR
    /// in the innermost scope.
    fn flwor_clauses(
        &mut self,
        clauses: &[PlanClause],
        tail: &FlworTail<'_>,
    ) -> Result<LlSeq, QueryError> {
        let Some((clause, rest)) = clauses.split_first() else {
            return self.flwor_where(tail);
        };
        match clause {
            PlanClause::For { var, at, seq } => {
                let s = self.eval(seq)?;
                let mut frame = Frame::per_row(s.iters()).binding(var, s.items().to_vec());
                // Positional variable: position within the old
                // iteration's group.
                if let Some(at) = at {
                    let at_items = positions(s.iters()).into_iter().map(Item::Integer);
                    frame = frame.binding(at, at_items.collect());
                }
                self.scoped(frame, |ev| ev.flwor_clauses(rest, tail))
            }
            PlanClause::Let { var, value } => {
                let v = self.eval(value)?;
                self.bind(var, v);
                self.flwor_clauses(rest, tail)
            }
        }
    }

    fn flwor_where(&mut self, tail: &FlworTail<'_>) -> Result<LlSeq, QueryError> {
        let Some(w) = tail.where_clause else {
            return self.flwor_return(tail);
        };
        let keep = self.eval(w)?.effective_boolean(self.n_iters());
        // Restriction frame over the kept iterations.
        let kept = Frame::per_row(where_is(&keep, true));
        self.scoped(kept, |ev| ev.flwor_return(tail))
    }

    fn flwor_return(&mut self, tail: &FlworTail<'_>) -> Result<LlSeq, QueryError> {
        // Loop-invariant bindings the optimizer hoisted out of this
        // FLWOR: evaluated once per host iteration that survives into
        // the current inner scope instead of once per inner iteration,
        // and not at all when the iteration space is empty (preserving
        // the lazy error behavior of empty loops). A surviving iteration
        // is evaluated at its first inner iteration — a hoisted binding
        // reads no variable the FLWOR binds, so every inner iteration
        // sees the same values — and the value is bound in the scope
        // frame, in host numbering.
        if !tail.hoisted.is_empty() {
            let scope = tail.host + 1;
            let (mut firsts, mut surviving) = (Vec::new(), Vec::new());
            for (k, iter) in self.iters_at(scope).into_iter().enumerate() {
                if surviving.last() != Some(&iter) {
                    firsts.push(k as u32);
                    surviving.push(iter);
                }
            }
            for (name, expr) in tail.hoisted {
                let value = self.eval_restricted(&firsts, &surviving, expr)?;
                self.bind_at(scope, name, value);
            }
        }

        let n = self.n_iters();
        let rank = match tail.order_by {
            [] => None,
            keys => Some(self.order_by_ranks(keys)?),
        };

        let body = self.eval(tail.return_clause)?;

        // Map the body back through all frames pushed by this FLWOR.
        // Each maps its iterations monotonically, so without `order by`
        // relabeling keeps the body's rows in host order.
        let host = self.iters_at(tail.host);
        let Some(rank) = rank else {
            debug_assert!(host.is_sorted(), "FLWOR frames map monotonically");
            return Ok(body.unrestrict(&host));
        };
        // With it, iterations reorder by rank within each host iteration.
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|&k| (host[k as usize], rank[k as usize], k));
        let mut out = LlSeq::empty();
        for &k in &order {
            for item in body.group(k) {
                out.push(host[k as usize], item.clone());
            }
        }
        Ok(out)
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
                    col[iter as usize] = Some(first.atomize(&self.engine.store)?);
                }
            }
            keys.push(col);
        }
        let store = &self.engine.store;
        let mut order: Vec<u32> = (0..n).collect();
        // The keys are atomized: comparing them reads no document.
        order.sort_by(|&a, &b| {
            for (key, spec) in keys.iter().zip(order_by) {
                let (ka, kb) = (&key[a as usize], &key[b as usize]);
                let ord = match (ka, kb) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less, // empty least
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(x), Some(y)) => (x.general_compare(y, store).ok().flatten())
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

    pub(super) fn eval_quantified(
        &mut self,
        every: bool,
        bindings: &[(String, PlanExpr)],
        satisfies: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        let host_n = self.n_iters();
        let (hosts, truth) = self.quantified_scopes(self.depth(), bindings, satisfies)?;
        let mut agg = vec![every; host_n as usize];
        for (host, truth) in hosts.into_iter().zip(truth) {
            let host = host as usize;
            if every {
                agg[host] = agg[host] && truth;
            } else {
                agg[host] = agg[host] || truth;
            }
        }
        Ok(LlSeq::from_columns(
            (0..host_n).collect(),
            agg.into_iter().map(Item::Boolean).collect(),
        ))
    }

    /// Open one scope per binding and test `satisfies` in the innermost:
    /// for each of its iterations, the iteration of frame `host` it runs
    /// inside and the test's truth.
    fn quantified_scopes(
        &mut self,
        host: usize,
        bindings: &[(String, PlanExpr)],
        satisfies: &PlanExpr,
    ) -> Result<(Vec<u32>, Vec<bool>), QueryError> {
        let Some(((var, seq), rest)) = bindings.split_first() else {
            let truth = self.eval(satisfies)?.effective_boolean(self.n_iters());
            return Ok((self.iters_at(host), truth));
        };
        let s = self.eval(seq)?;
        let frame = Frame::per_row(s.iters()).binding(var, s.items().to_vec());
        self.scoped(frame, |ev| ev.quantified_scopes(host, rest, satisfies))
    }

    pub(super) fn eval_if(
        &mut self,
        cond: &PlanExpr,
        then_branch: &PlanExpr,
        else_branch: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        let keep = self.eval(cond)?.effective_boolean(self.n_iters());
        let (then_iters, else_iters) = (where_is(&keep, true), where_is(&keep, false));
        let then_part = self.eval_restricted(&then_iters, &then_iters, then_branch)?;
        let else_part = self.eval_restricted(&else_iters, &else_iters, else_branch)?;
        Ok(then_part.concat(&else_part))
    }

    /// Evaluate `expr` in a restriction of the current scope to the
    /// iterations `rows`, and number the result by `back`: the value of
    /// `rows[k]` belongs to iteration `back[k]`. Skipping the evaluation
    /// entirely when the restriction is empty is what makes recursive
    /// user-defined functions terminate.
    fn eval_restricted(
        &mut self,
        rows: &[u32],
        back: &[u32],
        expr: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
        if rows.is_empty() {
            return Ok(LlSeq::empty());
        }
        let result = self.scoped(Frame::per_row(rows), |ev| ev.eval(expr))?;
        Ok(result.unrestrict(back))
    }

    /// Call a user-defined function resolved to `index` at compile time.
    pub(super) fn eval_udf_call(
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
        if self.call_depth >= RECURSION_LIMIT {
            return Err(QueryError::dynamic(format!(
                "recursion limit ({RECURSION_LIMIT}) exceeded in {name}()"
            )));
        }
        let mut params = HashMap::new();
        for (param, arg) in decl.params.iter().zip(args) {
            params.insert(param.clone(), self.eval(arg)?);
        }
        let frame = Frame::call(self.n_iters(), params);
        self.call_depth += 1;
        let result = self.scoped(frame, |ev| ev.eval(&decl.body));
        self.call_depth -= 1;
        result
    }

    /// Call a built-in library function by name.
    pub(super) fn eval_builtin_call(
        &mut self,
        name: &str,
        args: &[PlanExpr],
    ) -> Result<LlSeq, QueryError> {
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

        // Aggregates that need no rows: a StandOff operator the plan
        // stamped counts them from the index; otherwise the argument's
        // `iter` column answers them, and a step hands that over without
        // building items.
        if let ([arg], "count" | "exists" | "empty") = (args, local) {
            let counts = match self.eval_counts(arg) {
                Some(counts) => counts?,
                None => {
                    let mut counts = vec![0u64; self.n_iters() as usize];
                    for iter in self.eval_iters(arg)? {
                        counts[iter as usize] += 1;
                    }
                    counts
                }
            };
            return Ok(functions::aggregate_rows(local, &counts));
        }

        let mut arg_tables = Vec::with_capacity(args.len());
        for a in args {
            arg_tables.push(self.eval(a)?);
        }
        let arity = arg_tables.len();
        functions::call_builtin(self.engine, self.n_iters(), local, arg_tables)?.ok_or_else(|| {
            QueryError::stat(format!(
                "unknown function {name}() with {arity} argument(s)"
            ))
        })
    }
}
