//! Value and node-set operators: logic, comparisons, arithmetic, ranges
//! and `union`/`intersect`/`except`, each row-wise within the scope's
//! iterations.

use standoff_algebra::{Item, LlSeq, NodeTable};

use super::Evaluator;
use crate::error::QueryError;
use crate::functions::int_value;
use crate::plan::{ArithOp, CompOp, PlanExpr};

impl Evaluator<'_> {
    pub(super) fn eval_logical(
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

    pub(super) fn eval_comparison(
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
                    check(ga[0].general_compare(&gb[0], &self.engine.store)?, op)
                };
                iters.push(iter);
                items.push(Item::Boolean(result));
            } else {
                // General comparison: existential over the pair set.
                let mut result = false;
                'outer: for x in ga {
                    for y in gb {
                        if check(x.general_compare(y, &self.engine.store)?, op) {
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

    pub(super) fn eval_arith(
        &mut self,
        op: ArithOp,
        a: &PlanExpr,
        b: &PlanExpr,
    ) -> Result<LlSeq, QueryError> {
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
            let x = ga[0].atomize(&self.engine.store)?;
            let y = gb[0].atomize(&self.engine.store)?;
            items.push(arith_items(op, &x, &y, &self.engine.store)?);
            iters.push(iter);
        }
        Ok(LlSeq::from_columns(iters, items))
    }

    pub(super) fn eval_range(&mut self, a: &PlanExpr, b: &PlanExpr) -> Result<LlSeq, QueryError> {
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

    pub(super) fn eval_neg(&mut self, e: &PlanExpr) -> Result<LlSeq, QueryError> {
        let t = self.eval(e)?;
        let n = self.n_iters();
        let mut iters = Vec::new();
        let mut items = Vec::new();
        for iter in 0..n {
            let g = t.group(iter);
            if g.is_empty() {
                continue;
            }
            let item = match g[0].atomize(&self.engine.store)? {
                Item::Integer(i) => Item::Integer(-i),
                other => Item::Double(
                    -other
                        .as_number(&self.engine.store)?
                        .ok_or_else(|| QueryError::dynamic("cannot negate non-number"))?,
                ),
            };
            iters.push(iter);
            items.push(item);
        }
        Ok(LlSeq::from_columns(iters, items))
    }

    pub(super) fn eval_union(&mut self, a: &PlanExpr, b: &PlanExpr) -> Result<LlSeq, QueryError> {
        let ta = self.eval(a)?;
        let tb = self.eval(b)?;
        let na = NodeTable::from_llseq(&ta).map_err(QueryError::dynamic)?;
        let nb = NodeTable::from_llseq(&tb).map_err(QueryError::dynamic)?;
        // Merge rows per iteration then normalize.
        let merged = na.into_llseq().concat(&nb.into_llseq());
        let mut table = NodeTable::from_llseq(&merged).expect("nodes in, nodes out");
        table.normalize(&self.engine.store)?;
        Ok(table.into_llseq())
    }

    /// `intersect` / `except`: node-identity set operations, per
    /// iteration, result in document order.
    pub(super) fn eval_intersect_except(
        &mut self,
        a: &PlanExpr,
        b: &PlanExpr,
        keep_common: bool,
    ) -> Result<LlSeq, QueryError> {
        let ta = self.eval(a)?;
        let tb = self.eval(b)?;
        let mut na = NodeTable::from_llseq(&ta).map_err(QueryError::dynamic)?;
        let mut nb = NodeTable::from_llseq(&tb).map_err(QueryError::dynamic)?;
        na.normalize(&self.engine.store)?;
        nb.normalize(&self.engine.store)?;
        let mut out = NodeTable::with_capacity(na.len());
        for (&iter, node) in na.iters().iter().zip(na.nodes()) {
            let in_b = nb.group(iter).contains(node);
            if in_b == keep_common {
                out.push(iter, *node);
            }
        }
        Ok(out.into_llseq())
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
        .as_number(store)?
        .ok_or_else(|| QueryError::dynamic(format!("'{x}' is not a number")))?;
    let b = y
        .as_number(store)?
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
