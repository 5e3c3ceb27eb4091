//! The plan optimizer: an ordered list of rewrite passes over the
//! resolved plan.
//!
//! Pass order is fixed and guaranteed; each pass runs exactly once, and
//! later passes see the operator placement earlier passes produced:
//!
//! 1. **const-fold** — bottom-up folding of arithmetic, comparisons,
//!    logic and conditionals over compile-time constants. Never folds an
//!    expression whose evaluation could raise a dynamic error (`1 idiv
//!    0` stays in the plan), so run-time error behavior is unchanged.
//! 2. **fuse-descendant** — rewrites the two steps `//T[p…]` parses to,
//!    `descendant-or-self::node()/child::T[p…]`, into the single step
//!    `descendant::T[p…]` whenever every predicate is statically
//!    non-positional. The fused step never materializes the every-node
//!    intermediate, and for a named element test the staircase join
//!    answers it from the element-name index. `//T[1]` is *not*
//!    `descendant::T[1]` (first `T` child of each parent vs first `T`
//!    in the subtree), so anything that could be positional keeps the
//!    literal form. Runs before hoisting so a predicate is judged as
//!    written, not as a hoisted `$#h` reference.
//! 3. **fuse-attr-filter** — rewrites a step or filter predicate of the
//!    exact shape `attribute::N = "literal"` (general `=`, either
//!    operand order) into [`PlanExpr::AttrEquals`], which the evaluator
//!    answers per row from the attribute columns with no predicate
//!    frame. Any other predicate keeps the generic machinery.
//! 4. **hoist-invariants** — moves loop-invariant, node-identity-free
//!    subexpressions out of FLWOR iteration scopes into per-FLWOR
//!    hoisted bindings (`$#h0`, `$#h1`, …) that the evaluator computes
//!    once per surviving host iteration instead of once per inner
//!    iteration. Runs before the annotation passes so the StandOff
//!    operators it moves are annotated in their final position.
//! 5. **pushdown** — decides element-name candidate pushdown (§4.3) per
//!    operator: enabled when the engine allows it, the operator's
//!    strategy (stamped by `compile::resolve`) consumes candidates, and
//!    the step's node test names an element. This is the
//!    `candidate_pushdown && KindTest::Element` decision that used to
//!    live inside the evaluator's join, made once at plan time. `naive`
//!    (no candidates) never carries a pushdown annotation.
//! 6. **elide** — proves, per StandOff operator, whether the trailing
//!    `self::test` post-filter is redundant (the `elide` function
//!    states the rules).
//! 7. **fuse-count** — stamps a StandOff operator that is the sole
//!    argument of `count`, `exists` or `empty`, runs the loop-lifted
//!    merge join, has no predicates and a guaranteed node test
//!    ([`StandoffOp::count_from_index`]): the evaluator then counts its
//!    rows per iteration from the index instead of producing them — an
//!    aggregate under loop-lifting is a grouping on `iter` (§4.5). Runs
//!    after `elide`, whose guarantee it reads.
//!
//! No pass reads the corpus: a plan depends on the query and the
//! engine's options alone. What the corpus holds for a join — the
//! layers it reaches, their entries — is worked out when the plan is
//! rendered ([`crate::explain`]).
//!
//! Hoisting and XQuery error semantics: per XQuery 1.0 §2.3.4 an
//! implementation may evaluate an expression eagerly even when a strict
//! evaluation would not reach it — except inside the untaken branch of a
//! conditional. The hoister therefore treats `if/then/else` branches as
//! barriers but is free to hoist out of `where`-filtered and
//! empty-binding scopes.

use std::collections::HashSet;

use standoff_algebra::{NodeTest, TreeAxis};
use standoff_core::StandoffStrategy;

use crate::engine::EngineOptions;
use crate::plan::*;

/// One optimizer pass: its name as `explain` prints it, and the rewrite.
pub struct Pass {
    pub name: &'static str,
    pub run: fn(&mut Plan, &EngineOptions),
}

/// The pass list, in execution order.
pub const PASSES: [Pass; 7] = [
    Pass {
        name: "const-fold",
        run: const_fold,
    },
    Pass {
        name: "fuse-descendant",
        run: fuse_descendant,
    },
    Pass {
        name: "fuse-attr-filter",
        run: fuse_attr_filter,
    },
    Pass {
        name: "hoist-invariants",
        run: hoist_invariants,
    },
    Pass {
        name: "pushdown",
        run: pushdown,
    },
    Pass {
        name: "elide",
        run: elide,
    },
    Pass {
        name: "fuse-count",
        run: fuse_count,
    },
];

/// Run the pass list over `plan`; returns the names of the passes
/// applied, in order.
pub fn optimize(plan: &mut Plan, options: &EngineOptions) -> Vec<&'static str> {
    for pass in &PASSES {
        (pass.run)(plan, options);
    }
    PASSES.iter().map(|p| p.name).collect()
}

// ================= pass 1: constant folding =================

fn const_fold(plan: &mut Plan, _: &EngineOptions) {
    plan.for_each_root_mut(|root| root.rewrite_bottom_up(&mut fold_expr));
}

fn fold_expr(e: &mut PlanExpr) {
    let folded: Option<Atom> = match e {
        PlanExpr::Neg(inner) => match const_of(inner) {
            Some(Atom::Integer(i)) => Some(Atom::Integer(i.wrapping_neg())),
            Some(Atom::Double(d)) => Some(Atom::Double(-d)),
            _ => None,
        },
        PlanExpr::Arith(op, a, b) => match (const_of(a), const_of(b)) {
            (Some(x), Some(y)) => fold_arith(*op, x, y),
            _ => None,
        },
        PlanExpr::Comparison(op, a, b) if *op != CompOp::Is => match (const_of(a), const_of(b)) {
            (Some(x), Some(y)) => fold_compare(*op, x, y),
            _ => None,
        },
        PlanExpr::And(a, b) => match (const_of(a), const_of(b)) {
            (Some(x), Some(y)) => Some(Atom::Boolean(
                x.effective_boolean() && y.effective_boolean(),
            )),
            _ => None,
        },
        PlanExpr::Or(a, b) => match (const_of(a), const_of(b)) {
            (Some(x), Some(y)) => Some(Atom::Boolean(
                x.effective_boolean() || y.effective_boolean(),
            )),
            _ => None,
        },
        PlanExpr::IfThenElse {
            cond,
            then_branch,
            else_branch,
        } => {
            // A constant condition selects its branch at compile time —
            // exactly equivalent to run time, where the untaken branch
            // evaluates over an empty restriction and is skipped.
            if let Some(c) = const_of(cond) {
                let branch = if c.effective_boolean() {
                    then_branch
                } else {
                    else_branch
                };
                *e = std::mem::replace(branch, PlanExpr::empty());
            }
            return;
        }
        _ => None,
    };
    if let Some(atom) = folded {
        *e = PlanExpr::Const(atom);
    }
}

fn const_of(e: &PlanExpr) -> Option<&Atom> {
    match e {
        PlanExpr::Const(a) => Some(a),
        _ => None,
    }
}

/// Fold numeric arithmetic, mirroring the evaluator's `arith_items`
/// exactly. Returns `None` — leaving the operator in the plan — whenever
/// evaluation could raise a dynamic error (division by integer zero) or
/// involves non-numeric operands.
fn fold_arith(op: ArithOp, x: &Atom, y: &Atom) -> Option<Atom> {
    use ArithOp::*;
    if let (Atom::Integer(a), Atom::Integer(b)) = (x, y) {
        let (a, b) = (*a, *b);
        return match op {
            Add => Some(Atom::Integer(a.wrapping_add(b))),
            Sub => Some(Atom::Integer(a.wrapping_sub(b))),
            Mul => Some(Atom::Integer(a.wrapping_mul(b))),
            // Division by zero raises at run time; i64::MIN / -1
            // overflows — leave both in the plan untouched.
            IDiv | Mod | Div if b == 0 || (a == i64::MIN && b == -1) => None,
            IDiv => Some(Atom::Integer(a / b)),
            Mod => Some(Atom::Integer(a % b)),
            Div if a % b == 0 => Some(Atom::Integer(a / b)),
            Div => Some(Atom::Double(a as f64 / b as f64)),
        };
    }
    let (a, b) = match (number_of(x), number_of(y)) {
        (Some(a), Some(b)) => (a, b),
        _ => return None, // strings/booleans: defer to run time
    };
    match op {
        Add => Some(Atom::Double(a + b)),
        Sub => Some(Atom::Double(a - b)),
        Mul => Some(Atom::Double(a * b)),
        Div => Some(Atom::Double(a / b)),
        IDiv if b == 0.0 => None, // runtime error: keep
        IDiv => Some(Atom::Integer((a / b).trunc() as i64)),
        Mod => Some(Atom::Double(a % b)),
    }
}

/// Numeric value of a constant, but only for operands the evaluator
/// treats numerically without string parsing.
fn number_of(a: &Atom) -> Option<f64> {
    match a {
        Atom::Integer(i) => Some(*i as f64),
        Atom::Double(d) => Some(*d),
        Atom::String(_) | Atom::Boolean(_) => None,
    }
}

/// Fold a comparison of two constants, conservatively: both numeric
/// (mirrors `Item::general_compare`'s numeric arm) or both strings
/// (codepoint comparison). Mixed or boolean operands defer to run time.
fn fold_compare(op: CompOp, x: &Atom, y: &Atom) -> Option<Atom> {
    use std::cmp::Ordering;
    use CompOp::*;
    let ord: Option<Ordering> = match (x, y) {
        (Atom::Integer(a), Atom::Integer(b)) => Some(a.cmp(b)),
        (Atom::String(a), Atom::String(b)) => Some(a.as_ref().cmp(b.as_ref())),
        (Atom::Integer(_) | Atom::Double(_), Atom::Integer(_) | Atom::Double(_)) => {
            number_of(x).unwrap().partial_cmp(&number_of(y).unwrap())
        }
        _ => return None,
    };
    let result = match (ord, op) {
        (Some(o), Eq | ValEq) => o == Ordering::Equal,
        (Some(o), Ne | ValNe) => o != Ordering::Equal,
        (Some(o), Lt | ValLt) => o == Ordering::Less,
        (Some(o), Le | ValLe) => o != Ordering::Greater,
        (Some(o), Gt | ValGt) => o == Ordering::Greater,
        (Some(o), Ge | ValGe) => o != Ordering::Less,
        (None, _) => false, // NaN comparisons are false
        (Some(_), Is) => return None,
    };
    Some(Atom::Boolean(result))
}

// ================= pass 2: `//T` step fusion =================

fn fuse_descendant(plan: &mut Plan, _: &EngineOptions) {
    plan.for_each_root_mut(|root| root.rewrite_bottom_up(&mut fuse_step));
}

/// `descendant-or-self::node()/child::T[p…]` → `descendant::T[p…]`, for
/// any node test `T`, when no predicate can be positional.
fn fuse_step(e: &mut PlanExpr) {
    let PlanExpr::TreeStep {
        input,
        axis: axis @ TreeAxis::Child,
        predicates,
        ..
    } = e
    else {
        return;
    };
    if !input.as_deref().is_some_and(is_descendant_or_self_node)
        || !predicates.iter().all(non_positional)
    {
        return;
    }
    let Some(PlanExpr::TreeStep { input: below, .. }) = input.take().map(|prefix| *prefix) else {
        unreachable!("checked above");
    };
    *input = below;
    *axis = TreeAxis::Descendant;
}

/// The bare `descendant-or-self::node()` step the parser emits for `//`.
fn is_descendant_or_self_node(e: &PlanExpr) -> bool {
    matches!(
        e,
        PlanExpr::TreeStep {
            axis: TreeAxis::DescendantOrSelf,
            test,
            predicates,
            ..
        } if predicates.is_empty() && *test == NodeTest::any_node()
    )
}

/// Is this predicate *provably* a filter on the item, never on its
/// position? It must not mention `position()`/`last()` anywhere, and its
/// value must be statically boolean or node-valued — a number (or
/// anything unknown: `$n`, a call, arithmetic) selects by position.
pub(crate) fn non_positional(p: &PlanExpr) -> bool {
    let mut reads_position = false;
    p.visit(&mut |e| {
        if let PlanExpr::BuiltinCall { name, args } = e {
            reads_position |= args.is_empty() && matches!(local_name(name), "position" | "last");
        }
    });
    !reads_position && boolean_or_nodes(p)
}

fn boolean_or_nodes(e: &PlanExpr) -> bool {
    match e {
        PlanExpr::Const(Atom::Boolean(_))
        | PlanExpr::Comparison(..)
        | PlanExpr::AttrEquals { .. }
        | PlanExpr::And(..)
        | PlanExpr::Or(..)
        | PlanExpr::Quantified { .. }
        | PlanExpr::TreeStep { .. }
        | PlanExpr::StandoffStep { .. }
        | PlanExpr::StandoffFn { .. }
        | PlanExpr::RootPath
        | PlanExpr::Union(..)
        | PlanExpr::Intersect(..)
        | PlanExpr::Except(..) => true,
        // `a/b`, `a/f(.)`: one rhs value per lhs item, so the rhs decides.
        PlanExpr::PathExpr { step, .. } => boolean_or_nodes(step),
        PlanExpr::Filter { input, .. } => boolean_or_nodes(input),
        PlanExpr::BuiltinCall { name, .. } => matches!(
            local_name(name),
            "not" | "exists" | "empty" | "boolean" | "contains" | "starts-with" | "ends-with"
        ),
        _ => false,
    }
}

fn local_name(name: &str) -> &str {
    name.split_once(':').map(|(_, l)| l).unwrap_or(name)
}

// ================= pass 3: attribute-equals-literal filter =================

fn fuse_attr_filter(plan: &mut Plan, _: &EngineOptions) {
    plan.for_each_root_mut(|root| {
        root.rewrite_bottom_up(&mut |e| match e {
            PlanExpr::TreeStep { predicates, .. } | PlanExpr::StandoffStep { predicates, .. } => {
                predicates.iter_mut().for_each(fuse_attr_predicate)
            }
            PlanExpr::Filter { predicate, .. } => fuse_attr_predicate(predicate),
            _ => {}
        })
    });
}

/// `attribute::N = "literal"` or `"literal" = attribute::N` →
/// [`PlanExpr::AttrEquals`]. Exactly that shape: the attribute step
/// reads the context item, tests a name and has no predicates of its
/// own; the other operand is a string constant (`@n = 17` compares
/// numerically and stays generic).
fn fuse_attr_predicate(p: &mut PlanExpr) {
    let PlanExpr::Comparison(CompOp::Eq, a, b) = p else {
        return;
    };
    let fused = match (a.as_ref(), b.as_ref()) {
        (step, PlanExpr::Const(Atom::String(value)))
        | (PlanExpr::Const(Atom::String(value)), step) => match step {
            PlanExpr::TreeStep {
                input: None,
                axis: TreeAxis::Attribute,
                test: NodeTest {
                    name: Some(name), ..
                },
                predicates,
            } if predicates.is_empty() => Some(PlanExpr::AttrEquals {
                name: name.clone(),
                value: value.clone(),
            }),
            _ => None,
        },
        _ => None,
    };
    if let Some(fused) = fused {
        *p = fused;
    }
}

// ================= pass 4: loop-invariant hoisting =================

fn hoist_invariants(plan: &mut Plan, _: &EngineOptions) {
    // Which user-defined functions (transitively) construct nodes: calls
    // to them are never hoisted, because collapsing per-iteration
    // construction to one shared node is observable through node
    // identity. Recursion defaults to "constructs" via the fixpoint's
    // monotone growth from direct constructors.
    let mut constructs: Vec<bool> = plan
        .functions
        .iter()
        .map(|f| contains_constructor(&f.body))
        .collect();
    loop {
        let mut changed = false;
        for k in 0..plan.functions.len() {
            if constructs[k] {
                continue;
            }
            let mut calls_constructing = false;
            plan.functions[k].body.visit(&mut |e| {
                if let PlanExpr::UdfCall { index, .. } = e {
                    if constructs[*index] {
                        calls_constructing = true;
                    }
                }
            });
            if calls_constructing {
                constructs[k] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut counter = 0usize;
    plan.for_each_root_mut(|root| hoist_in_expr(root, &constructs, &mut counter));
}

fn contains_constructor(e: &PlanExpr) -> bool {
    let mut found = false;
    e.visit(&mut |x| {
        if matches!(x, PlanExpr::Constructor(_)) {
            found = true;
        }
    });
    found
}

/// Recursively process an expression tree: at every FLWOR with at least
/// one `for` clause, extract hoistable subexpressions of its `order by`
/// keys and `return` clause into the FLWOR's hoisted-binding list.
fn hoist_in_expr(e: &mut PlanExpr, constructs: &[bool], counter: &mut usize) {
    // Children first so inner FLWORs hoist locally before the outer scan
    // sees them (an outer hoist of a whole inner FLWOR subsumes its
    // local hoists, in which case the inner pass simply ran on a subtree
    // that then moved — harmless).
    e.for_each_child_mut(|c| hoist_in_expr(c, constructs, counter));
    if let PlanExpr::Flwor {
        hoisted,
        clauses,
        order_by,
        return_clause,
        ..
    } = e
    {
        let has_for = clauses.iter().any(|c| matches!(c, PlanClause::For { .. }));
        if !has_for {
            return; // no iteration scope, nothing to gain
        }
        let mut bound: HashSet<String> = HashSet::new();
        for clause in clauses.iter() {
            match clause {
                PlanClause::For { var, at, .. } => {
                    bound.insert(var.clone());
                    if let Some(at) = at {
                        bound.insert(at.clone());
                    }
                }
                PlanClause::Let { var, .. } => {
                    bound.insert(var.clone());
                }
            }
        }
        let mut found: Vec<(String, PlanExpr)> = Vec::new();
        for key in order_by.iter_mut() {
            try_hoist(&mut key.expr, &bound, constructs, counter, &mut found);
        }
        try_hoist(return_clause, &bound, constructs, counter, &mut found);
        hoisted.extend(found);
    }
}

/// Top-down scan for hoistable subtrees. `blocked` is the set of
/// variables bound between the host FLWOR and the current node — a
/// subtree referencing any of them is not invariant *at the host*, but
/// its children may still be.
fn try_hoist(
    e: &mut PlanExpr,
    blocked: &HashSet<String>,
    constructs: &[bool],
    counter: &mut usize,
    found: &mut Vec<(String, PlanExpr)>,
) {
    if hoistable(e, blocked, constructs) {
        let name = format!("#h{}", *counter);
        *counter += 1;
        let expr = std::mem::replace(e, PlanExpr::Var(name.clone()));
        found.push((name, expr));
        return;
    }
    // Descend, extending `blocked` with binders introduced along the
    // way, and stopping at conditional branches (XQuery forbids raising
    // errors from the untaken branch of a conditional, so nothing may be
    // evaluated eagerly out of one).
    match e {
        PlanExpr::IfThenElse { cond, .. } => {
            try_hoist(cond, blocked, constructs, counter, found);
        }
        PlanExpr::Flwor {
            hoisted,
            clauses,
            where_clause,
            order_by,
            return_clause,
        } => {
            let mut inner = blocked.clone();
            for (name, h) in hoisted.iter_mut() {
                try_hoist(h, blocked, constructs, counter, found);
                inner.insert(name.clone());
            }
            for clause in clauses.iter_mut() {
                match clause {
                    PlanClause::For { var, at, seq } => {
                        try_hoist(seq, &inner, constructs, counter, found);
                        inner.insert(var.clone());
                        if let Some(at) = at {
                            inner.insert(at.clone());
                        }
                    }
                    PlanClause::Let { var, value } => {
                        try_hoist(value, &inner, constructs, counter, found);
                        inner.insert(var.clone());
                    }
                }
            }
            if let Some(w) = where_clause {
                try_hoist(w, &inner, constructs, counter, found);
            }
            for key in order_by.iter_mut() {
                try_hoist(&mut key.expr, &inner, constructs, counter, found);
            }
            try_hoist(return_clause, &inner, constructs, counter, found);
        }
        PlanExpr::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            let mut inner = blocked.clone();
            for (var, seq) in bindings.iter_mut() {
                try_hoist(seq, &inner, constructs, counter, found);
                inner.insert(var.clone());
            }
            try_hoist(satisfies, &inner, constructs, counter, found);
        }
        PlanExpr::TreeStep {
            input, predicates, ..
        }
        | PlanExpr::StandoffStep {
            input, predicates, ..
        } => {
            if let Some(input) = input {
                try_hoist(input, blocked, constructs, counter, found);
            }
            let mut inner = blocked.clone();
            inner.extend(context_names());
            for p in predicates.iter_mut() {
                try_hoist(p, &inner, constructs, counter, found);
            }
        }
        PlanExpr::PathExpr { input, step } => {
            try_hoist(input, blocked, constructs, counter, found);
            let mut inner = blocked.clone();
            inner.insert(".".to_string());
            try_hoist(step, &inner, constructs, counter, found);
        }
        PlanExpr::Filter { input, predicate } => {
            try_hoist(input, blocked, constructs, counter, found);
            let mut inner = blocked.clone();
            inner.extend(context_names());
            try_hoist(predicate, &inner, constructs, counter, found);
        }
        other => {
            other.for_each_child_mut(|c| try_hoist(c, blocked, constructs, counter, found));
        }
    }
}

fn context_names() -> [String; 3] {
    [
        ".".to_string(),
        "fn:position".to_string(),
        "fn:last".to_string(),
    ]
}

/// A subtree is hoisted when it (a) is worth hoisting (contains a data
/// access, join, or call), (b) references no variable bound between the
/// host FLWOR and here, and (c) creates no nodes (directly or through
/// any function it can call).
fn hoistable(e: &PlanExpr, blocked: &HashSet<String>, constructs: &[bool]) -> bool {
    let mut expensive = false;
    let mut invariant = true;
    let mut identity_free = true;
    scan(
        e,
        blocked,
        constructs,
        &mut expensive,
        &mut invariant,
        &mut identity_free,
    );
    expensive && invariant && identity_free
}

/// One pass over a candidate subtree, tracking the free-variable and
/// node-construction facts `hoistable` needs. Local binders inside the
/// subtree shadow `blocked` names (a nested `for $x` over a blocked
/// `$x` makes inner `$x` references invariant again).
fn scan(
    e: &PlanExpr,
    blocked: &HashSet<String>,
    constructs: &[bool],
    expensive: &mut bool,
    invariant: &mut bool,
    identity_free: &mut bool,
) {
    match e {
        PlanExpr::Var(name) => {
            if blocked.contains(name) {
                *invariant = false;
            }
        }
        PlanExpr::ContextItem => {
            if blocked.contains(".") {
                *invariant = false;
            }
        }
        PlanExpr::Constructor(_) => {
            *identity_free = false;
            // Still scan enclosed expressions for variable references.
            e.for_each_child(|expr| {
                scan(
                    expr,
                    blocked,
                    constructs,
                    expensive,
                    invariant,
                    identity_free,
                )
            });
        }
        PlanExpr::UdfCall { index, args, .. } => {
            *expensive = true;
            if constructs.get(*index).copied().unwrap_or(true) {
                *identity_free = false;
            }
            for a in args {
                scan(a, blocked, constructs, expensive, invariant, identity_free);
            }
        }
        PlanExpr::BuiltinCall { name, args } => {
            *expensive = true;
            if args.is_empty() {
                let implicit = match local_name(name) {
                    "position" => Some("fn:position"),
                    "last" => Some("fn:last"),
                    _ => None,
                };
                if let Some(var) = implicit {
                    if blocked.contains(var) {
                        *invariant = false;
                    }
                }
            }
            for a in args {
                scan(a, blocked, constructs, expensive, invariant, identity_free);
            }
        }
        PlanExpr::TreeStep { input, .. } | PlanExpr::StandoffStep { input, .. } => {
            *expensive = true;
            if input.is_none() && blocked.contains(".") {
                *invariant = false;
            }
            scan_children_with_binders(e, blocked, constructs, expensive, invariant, identity_free);
        }
        PlanExpr::StandoffFn { .. }
        | PlanExpr::RootPath
        | PlanExpr::PathExpr { .. }
        | PlanExpr::Filter { .. }
        | PlanExpr::Flwor { .. }
        | PlanExpr::Quantified { .. } => {
            *expensive = true;
            if matches!(e, PlanExpr::RootPath) && blocked.contains(".") {
                *invariant = false;
            }
            scan_children_with_binders(e, blocked, constructs, expensive, invariant, identity_free);
        }
        _ => {
            scan_children_with_binders(e, blocked, constructs, expensive, invariant, identity_free);
        }
    }
}

/// Recurse into children, removing locally re-bound names from the
/// blocked set for the sub-scopes that bind them.
fn scan_children_with_binders(
    e: &PlanExpr,
    blocked: &HashSet<String>,
    constructs: &[bool],
    expensive: &mut bool,
    invariant: &mut bool,
    identity_free: &mut bool,
) {
    let unblock = |names: &[String], blocked: &HashSet<String>| -> HashSet<String> {
        let mut b = blocked.clone();
        for n in names {
            b.remove(n);
        }
        b
    };
    match e {
        PlanExpr::Flwor {
            hoisted,
            clauses,
            where_clause,
            order_by,
            return_clause,
        } => {
            let mut local: Vec<String> = hoisted.iter().map(|(n, _)| n.clone()).collect();
            for (_, h) in hoisted {
                scan(h, blocked, constructs, expensive, invariant, identity_free);
            }
            for clause in clauses {
                let b = unblock(&local, blocked);
                match clause {
                    PlanClause::For { var, at, seq } => {
                        scan(seq, &b, constructs, expensive, invariant, identity_free);
                        local.push(var.clone());
                        if let Some(at) = at {
                            local.push(at.clone());
                        }
                    }
                    PlanClause::Let { var, value } => {
                        scan(value, &b, constructs, expensive, invariant, identity_free);
                        local.push(var.clone());
                    }
                }
            }
            let b = unblock(&local, blocked);
            if let Some(w) = where_clause {
                scan(w, &b, constructs, expensive, invariant, identity_free);
            }
            for k in order_by {
                scan(&k.expr, &b, constructs, expensive, invariant, identity_free);
            }
            scan(
                return_clause,
                &b,
                constructs,
                expensive,
                invariant,
                identity_free,
            );
        }
        PlanExpr::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            let mut local: Vec<String> = Vec::new();
            for (var, seq) in bindings {
                let b = unblock(&local, blocked);
                scan(seq, &b, constructs, expensive, invariant, identity_free);
                local.push(var.clone());
            }
            let b = unblock(&local, blocked);
            scan(
                satisfies,
                &b,
                constructs,
                expensive,
                invariant,
                identity_free,
            );
        }
        PlanExpr::TreeStep {
            input, predicates, ..
        }
        | PlanExpr::StandoffStep {
            input, predicates, ..
        } => {
            if let Some(input) = input {
                scan(
                    input,
                    blocked,
                    constructs,
                    expensive,
                    invariant,
                    identity_free,
                );
            }
            let b = unblock(&context_names(), blocked);
            for p in predicates {
                scan(p, &b, constructs, expensive, invariant, identity_free);
            }
        }
        PlanExpr::PathExpr { input, step } => {
            scan(
                input,
                blocked,
                constructs,
                expensive,
                invariant,
                identity_free,
            );
            let b = unblock(&[".".to_string()], blocked);
            scan(step, &b, constructs, expensive, invariant, identity_free);
        }
        PlanExpr::Filter { input, predicate } => {
            scan(
                input,
                blocked,
                constructs,
                expensive,
                invariant,
                identity_free,
            );
            let b = unblock(&context_names(), blocked);
            scan(
                predicate,
                &b,
                constructs,
                expensive,
                invariant,
                identity_free,
            );
        }
        other => {
            other.for_each_child(|c| {
                scan(c, blocked, constructs, expensive, invariant, identity_free)
            });
        }
    }
}

// ================= passes 5–7: StandOff operator annotation =================

/// Visit every StandOff join operator with its node test (`None` for
/// the built-in function form).
fn for_each_standoff_op(plan: &mut Plan, mut f: impl FnMut(&mut StandoffOp, Option<&NodeTest>)) {
    plan.for_each_root_mut(|root| {
        root.rewrite_bottom_up(&mut |e| match e {
            PlanExpr::StandoffStep { op, test, .. } => f(op, Some(test)),
            PlanExpr::StandoffFn { op, .. } => f(op, None),
            _ => {}
        })
    });
}

fn pushdown(plan: &mut Plan, options: &EngineOptions) {
    let allowed = options.candidate_pushdown;
    for_each_standoff_op(plan, |op, test| {
        op.pushdown = match test {
            Some(test)
                if allowed
                    && op.strategy != StandoffStrategy::NaiveNoCandidates
                    && test.kind == standoff_algebra::KindTest::Element =>
            {
                test.name.clone()
            }
            _ => None,
        };
    });
}

/// Decide, per StandOff operator, whether the trailing `self::test`
/// post-filter is provably redundant. Join outputs are always annotated
/// *elements* of the candidate side (the region index only indexes
/// elements, and the reject axes complement within that universe), so:
///
/// * a kind-only test — `*`, `element()`, `node()` — always holds;
/// * a name test held by the pushed-down candidate sequence always
///   holds (every emitted node came from the element index of exactly
///   that name);
/// * the built-in function form (no syntactic test, evaluated as `*`)
///   always holds;
/// * anything else — a name test without its pushdown, `text()` & co. —
///   keeps the literal trailing self-step.
///
/// Runs after `pushdown` because the name-test case is only sound once
/// the pushdown decision is final.
fn elide(plan: &mut Plan, _: &EngineOptions) {
    use standoff_algebra::KindTest;
    for_each_standoff_op(plan, |op, test| {
        op.test_guaranteed = match test {
            None => true, // function form: evaluated under `*`
            Some(test) => match (&test.name, test.kind) {
                (None, KindTest::Element | KindTest::AnyKind) => true,
                (Some(name), KindTest::Element) => op.pushdown.as_ref() == Some(name),
                _ => false,
            },
        };
    });
}

/// Stamp [`StandoffOp::count_from_index`] on every operator whose rows
/// only `count`, `exists` or `empty` read: their sole argument, under
/// the loop-lifted strategy, with no predicate and no post-filter to
/// run on the rows.
fn fuse_count(plan: &mut Plan, _: &EngineOptions) {
    plan.for_each_root_mut(|root| {
        root.rewrite_bottom_up(&mut |e| {
            let PlanExpr::BuiltinCall { name, args } = e else {
                return;
            };
            let op = match args.as_mut_slice() {
                [PlanExpr::StandoffStep { op, predicates, .. }] if predicates.is_empty() => op,
                [PlanExpr::StandoffFn { op, .. }] => op,
                _ => return,
            };
            op.count_from_index = matches!(local_name(name), "count" | "exists" | "empty")
                && op.strategy == StandoffStrategy::LoopLiftedMergeJoin
                && op.test_guaranteed;
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse_query;

    fn optimized(q: &str) -> Plan {
        let options = EngineOptions::default();
        compile(parse_query(q).unwrap(), &options).unwrap()
    }

    #[test]
    fn folds_constant_arithmetic() {
        let plan = optimized("1 + 2 * 3");
        assert!(matches!(plan.body, PlanExpr::Const(Atom::Integer(7))));
    }

    #[test]
    fn keeps_runtime_errors_unfolded() {
        let plan = optimized("1 idiv 0");
        assert!(matches!(plan.body, PlanExpr::Arith(..)));
    }

    #[test]
    fn folds_constant_conditionals() {
        let plan = optimized("if (1 < 2) then \"yes\" else (1 idiv 0)");
        let PlanExpr::Const(Atom::String(s)) = &plan.body else {
            panic!("expected folded branch, got {:?}", plan.body);
        };
        assert_eq!(s.as_ref(), "yes");
    }

    /// The step a `//name…` query compiles to: `(axis, has an input
    /// step below it that is the `//` prefix)`.
    fn double_slash_step(q: &str) -> (TreeAxis, bool) {
        let PlanExpr::TreeStep { input, axis, .. } = optimized(q).body else {
            panic!("expected a tree step for {q}");
        };
        let literal = input.as_deref().is_some_and(is_descendant_or_self_node);
        (axis, literal)
    }

    #[test]
    fn fuses_double_slash_unless_a_predicate_may_be_positional() {
        for q in [
            "//a",
            "//*",
            "//text()",
            "//a[@k = 1]",
            "//a[b]",
            "//a[not(b) and @k]",
            "//a[b[1]]",
        ] {
            assert_eq!(double_slash_step(q), (TreeAxis::Descendant, false), "{q}");
        }
        for q in [
            "//a[1]",
            "//a[last()]",
            "//a[position() < 3]",
            "//a[$n]",
            "//a[count(b)]",
            "//a[@k = 1][2]",
            "//a[b[position() = 1]]",
        ] {
            assert_eq!(double_slash_step(q), (TreeAxis::Child, true), "{q}");
        }
    }

    #[test]
    fn decides_pushdown_per_operator() {
        let plan = optimized("//a/select-narrow::b");
        let PlanExpr::StandoffStep { op, .. } = &plan.body else {
            panic!("expected standoff step");
        };
        assert_eq!(op.pushdown.as_deref(), Some("b"));

        // node() test: no element name to push.
        let plan = optimized("//a/select-narrow::node()");
        let PlanExpr::StandoffStep { op, .. } = &plan.body else {
            panic!("expected standoff step");
        };
        assert_eq!(op.pushdown, None);
    }

    /// The operator `count`, `exists` or `empty` reads, if the plan
    /// body is one such call over a StandOff operator.
    fn counted(q: &str, strategy: StandoffStrategy) -> bool {
        let options = EngineOptions {
            strategy,
            ..EngineOptions::default()
        };
        let plan = compile(parse_query(q).unwrap(), &options).unwrap();
        let PlanExpr::BuiltinCall { args, .. } = &plan.body else {
            panic!("expected a call, got {:?}", plan.body);
        };
        match &args[..] {
            [PlanExpr::StandoffStep { op, .. } | PlanExpr::StandoffFn { op, .. }] => {
                op.count_from_index
            }
            other => panic!("expected a StandOff operator, got {other:?}"),
        }
    }

    #[test]
    fn stamps_counts_only_where_rows_go_unread() {
        let ll = StandoffStrategy::LoopLiftedMergeJoin;
        for q in [
            "count(//a/select-narrow::b)",
            "exists(//a/reject-wide::*)",
            "fn:empty(//a/select-wide::node())",
            "count(select-narrow(//a, //b))",
        ] {
            assert!(counted(q, ll), "{q}");
        }
        for q in [
            "count(//a/select-narrow::b[@k])",
            "count(//a/select-narrow::text())",
            "string(//a/select-narrow::b)",
        ] {
            assert!(!counted(q, ll), "{q}");
        }
        let basic = StandoffStrategy::BasicMergeJoin;
        assert!(!counted("count(//a/select-narrow::b)", basic));
    }

    #[test]
    fn no_pushdown_without_candidates_strategy() {
        let parsed = parse_query("//a/select-narrow::b").unwrap();
        let options = EngineOptions {
            strategy: standoff_core::StandoffStrategy::NaiveNoCandidates,
            ..EngineOptions::default()
        };
        let plan = compile(parsed, &options).unwrap();
        let PlanExpr::StandoffStep { op, .. } = &plan.body else {
            panic!("expected standoff step");
        };
        assert_eq!(op.pushdown, None);
    }

    #[test]
    fn hoists_invariant_join_out_of_flwor() {
        let plan = optimized(r#"for $i in 1 to 10 return count(doc("d")//w)"#);
        let PlanExpr::Flwor {
            hoisted,
            return_clause,
            ..
        } = &plan.body
        else {
            panic!("expected flwor, got {:?}", plan.body);
        };
        assert_eq!(hoisted.len(), 1, "{:?}", plan.body);
        assert!(matches!(return_clause.as_ref(), PlanExpr::Var(v) if v.starts_with("#h")));
    }

    #[test]
    fn does_not_hoist_loop_dependent_exprs() {
        let plan = optimized(r#"for $d in (1, 2) return count(doc("u")//w[@k = $d])"#);
        let PlanExpr::Flwor {
            hoisted,
            return_clause,
            ..
        } = &plan.body
        else {
            panic!("expected flwor");
        };
        // The $d-dependent count() stays in the loop (only the invariant
        // doc("u") scan beneath it may hoist)…
        assert!(
            matches!(return_clause.as_ref(), PlanExpr::BuiltinCall { name, .. } if name == "count")
        );
        // …and nothing hoisted references the loop variable.
        for (_, h) in hoisted {
            h.visit(&mut |e| {
                assert!(
                    !matches!(e, PlanExpr::Var(v) if v == "d"),
                    "loop-dependent subtree hoisted: {h:?}"
                );
            });
        }
    }

    #[test]
    fn does_not_hoist_constructors() {
        let plan = optimized(r#"for $i in 1 to 3 return <r>{ count(doc("d")//w) }</r>"#);
        let PlanExpr::Flwor { hoisted, .. } = &plan.body else {
            panic!("expected flwor");
        };
        // The constructor stays; its invariant *enclosed* expression may
        // hoist — node identity is untouched either way.
        for (_, h) in hoisted {
            assert!(!contains_constructor(h));
        }
    }

    #[test]
    fn does_not_hoist_out_of_conditional_branches() {
        let plan =
            optimized(r#"for $i in 1 to 3 return if ($i = 1) then count(doc("d")//w) else 0"#);
        let PlanExpr::Flwor { hoisted, .. } = &plan.body else {
            panic!("expected flwor");
        };
        assert!(hoisted.is_empty(), "{hoisted:?}");
    }

    #[test]
    fn shadowing_rebinds_are_not_blocked() {
        // Inner `for $x` shadows the outer loop's `$x`: the inner FLWOR
        // as a whole is invariant and hoists.
        let plan = optimized(r#"for $x in 1 to 5 return for $x in doc("d")//w return $x/@start"#);
        let PlanExpr::Flwor { hoisted, .. } = &plan.body else {
            panic!("expected flwor");
        };
        assert_eq!(hoisted.len(), 1, "{hoisted:?}");
    }
}
