//! The compiled query plan — the algebraic IR between parsing and
//! execution.
//!
//! A [`Plan`] is the one tree a query becomes: [`crate::parser`] builds
//! it directly, [`crate::compile`] resolves it in place (prolog
//! configuration, function calls, join strategy) and then hands it to
//! the ordered pass list in [`crate::optimize`]. The
//! paper's architecture (XQuery compiled by Pathfinder into an algebra
//! over loop-lifted tables, §3.2/§4.3) makes strategy choice and
//! candidate pushdown *plan-time* decisions; this IR encodes them the
//! same way:
//!
//! * every StandOff join operator — axis step or built-in function form —
//!   carries an explicit [`StandoffOp`] annotation: the join
//!   [`StandoffStrategy`] chosen for *this* operator, the element name
//!   pushed down as a candidate sequence (if any), and whether its
//!   trailing self-step and its rows can be skipped;
//! * user-defined function calls are resolved to an index into the
//!   plan's function table (shadowing of built-ins happens here, once);
//! * FLWOR operators carry the loop-invariant bindings the optimizer
//!   hoisted out of their iteration scope.
//!
//! The same plan object drives both the evaluator (the `eval` module) and
//! the `explain` renderer ([`crate::explain`]) — what explain prints is
//! by construction what executes. Plans are immutable after compilation
//! and `Send + Sync`, so the batch executor shares them across worker
//! threads behind an `Arc` (see [`crate::exec::QueryCache`]).

use std::sync::Arc;

use standoff_algebra::{Item, NodeTest, TreeAxis};
use standoff_core::{StandoffAxis, StandoffConfig, StandoffStrategy};

/// General (existential, type-coercing) vs value (singleton) comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompOp {
    // general
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // value
    ValEq,
    ValNe,
    ValLt,
    ValLe,
    ValGt,
    ValGe,
    // node identity
    Is,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
}

/// A query: as parsed, then resolved and optimized into what executes.
#[derive(Clone, Debug)]
pub struct Plan {
    /// `declare option` pairs from the prolog (kept for explain output).
    pub options: Vec<(String, String)>,
    /// The StandOff configuration extracted from the prolog's
    /// `standoff-*` options, validated by the resolve step (the default
    /// until then).
    pub config: StandoffConfig,
    /// Names of `declare variable $x external` declarations; values are
    /// bound through `Engine::bind_external` before execution.
    pub externals: Vec<String>,
    /// `declare variable $x := expr` bindings, in declaration order.
    pub globals: Vec<(String, PlanExpr)>,
    /// User-defined functions; [`PlanExpr::UdfCall`] indexes this table.
    pub functions: Vec<Arc<PlanFunction>>,
    /// The query body.
    pub body: PlanExpr,
    /// Names of the optimizer passes applied, in order (empty for a
    /// parsed or merely resolved plan).
    pub passes: Vec<&'static str>,
}

/// A compiled user-defined function.
#[derive(Clone, Debug)]
pub struct PlanFunction {
    pub name: String,
    pub params: Vec<String>,
    pub body: PlanExpr,
}

/// A compile-time constant: the atomic literals plus the booleans that
/// constant folding produces. Deliberately node-free — nodes only exist
/// at run time.
#[derive(Clone, Debug, PartialEq)]
pub enum Atom {
    Integer(i64),
    Double(f64),
    String(Arc<str>),
    Boolean(bool),
}

impl Atom {
    pub fn str(s: impl AsRef<str>) -> Atom {
        Atom::String(Arc::from(s.as_ref()))
    }

    /// The run-time item this constant lifts to.
    pub fn to_item(&self) -> Item {
        match self {
            Atom::Integer(i) => Item::Integer(*i),
            Atom::Double(d) => Item::Double(*d),
            Atom::String(s) => Item::String(Arc::clone(s)),
            Atom::Boolean(b) => Item::Boolean(*b),
        }
    }

    /// Effective boolean value of this single-item constant (mirrors
    /// [`Item::effective_boolean`]).
    pub fn effective_boolean(&self) -> bool {
        match self {
            Atom::Boolean(b) => *b,
            Atom::Integer(i) => *i != 0,
            Atom::Double(d) => *d != 0.0 && !d.is_nan(),
            Atom::String(s) => !s.is_empty(),
        }
    }
}

/// Plan-time annotations of one StandOff join operator: the §4.4/§4.5
/// decisions the interpreter used to re-make on every evaluation, fixed
/// here once by the optimizer.
#[derive(Clone, Debug)]
pub struct StandoffOp {
    /// The axis (select/reject × narrow/wide).
    pub axis: StandoffAxis,
    /// The join algorithm chosen for this operator.
    pub strategy: StandoffStrategy,
    /// `Some(name)`: push the element index for `name` into the region
    /// index as a candidate sequence (§4.3). `None`: scan the full
    /// region index and post-filter.
    pub pushdown: Option<String>,
    /// Plan-proven guarantee that every node this join emits satisfies
    /// the step's node test — join outputs are always annotated elements,
    /// and a pushed-down name test restricts them to that name — so the
    /// evaluator skips the trailing `self::test` post-filter (§3.2's
    /// closing step) entirely. Set by the optimizer's `elide` pass; the
    /// unoptimized reference path leaves it `false` and keeps the
    /// literal behavior.
    pub test_guaranteed: bool,
    /// The operator is the sole argument of `count`, `exists` or
    /// `empty`, so only its row count per iteration is needed: the
    /// evaluator counts it from the index instead of joining (the
    /// counted form of [`standoff_core::join`]). Set by the optimizer's
    /// `fuse-count` pass on loop-lifted, predicate-free operators whose
    /// node test is guaranteed.
    pub count_from_index: bool,
}

impl StandoffOp {
    /// An operator with the given axis and strategy, no pushdown and no
    /// post-filter elision — the state the parser and the resolve step
    /// leave it in before the optimizer runs.
    pub fn new(axis: StandoffAxis, strategy: StandoffStrategy) -> StandoffOp {
        StandoffOp {
            axis,
            strategy,
            pushdown: None,
            test_guaranteed: false,
            count_from_index: false,
        }
    }
}

/// One `for`/`let` binding of a compiled FLWOR.
#[derive(Clone, Debug)]
pub enum PlanClause {
    For {
        var: String,
        at: Option<String>,
        seq: PlanExpr,
    },
    Let {
        var: String,
        value: PlanExpr,
    },
}

/// A compiled `order by` key.
#[derive(Clone, Debug)]
pub struct PlanOrderKey {
    pub expr: PlanExpr,
    pub descending: bool,
}

/// Content of a compiled element constructor.
#[derive(Clone, Debug)]
pub enum PlanContent {
    Text(String),
    Enclosed(PlanExpr),
    Element(Box<PlanConstructor>),
}

/// A compiled direct element constructor.
#[derive(Clone, Debug)]
pub struct PlanConstructor {
    pub name: String,
    pub attributes: Vec<(String, Vec<PlanContent>)>,
    pub content: Vec<PlanContent>,
}

/// Plan expressions — the operators the evaluator executes.
///
/// * literals (and folded subtrees) are [`PlanExpr::Const`];
/// * path steps are tree-axis staircase joins ([`PlanExpr::TreeStep`])
///   or annotated StandOff joins ([`PlanExpr::StandoffStep`]);
/// * every call parses to [`PlanExpr::BuiltinCall`]; the resolve step
///   turns it into [`PlanExpr::UdfCall`] (index into the plan's
///   function table), [`PlanExpr::StandoffFn`] (the paper's Figure 3
///   built-in join form, annotated like a step) or a constant, or
///   leaves it a library call dispatched by name;
/// * FLWORs carry optimizer-hoisted loop-invariant bindings.
#[derive(Clone, Debug)]
pub enum PlanExpr {
    /// A compile-time constant, lifted per iteration at run time.
    Const(Atom),
    /// `$x` — also the reference form of hoisted bindings (`$#h0`).
    Var(String),
    /// `.`
    ContextItem,
    /// Sequence construction.
    Sequence(Vec<PlanExpr>),
    /// FLWOR with optimizer-hoisted loop-invariant bindings: each
    /// `(name, expr)` in `hoisted` is evaluated once per surviving host
    /// iteration — after the `where` restriction, before `order
    /// by`/`return` — instead of once per inner iteration.
    Flwor {
        hoisted: Vec<(String, PlanExpr)>,
        clauses: Vec<PlanClause>,
        where_clause: Option<Box<PlanExpr>>,
        order_by: Vec<PlanOrderKey>,
        return_clause: Box<PlanExpr>,
    },
    Quantified {
        every: bool,
        bindings: Vec<(String, PlanExpr)>,
        satisfies: Box<PlanExpr>,
    },
    IfThenElse {
        cond: Box<PlanExpr>,
        then_branch: Box<PlanExpr>,
        else_branch: Box<PlanExpr>,
    },
    Or(Box<PlanExpr>, Box<PlanExpr>),
    And(Box<PlanExpr>, Box<PlanExpr>),
    Comparison(CompOp, Box<PlanExpr>, Box<PlanExpr>),
    Arith(ArithOp, Box<PlanExpr>, Box<PlanExpr>),
    Range(Box<PlanExpr>, Box<PlanExpr>),
    Neg(Box<PlanExpr>),
    Union(Box<PlanExpr>, Box<PlanExpr>),
    Intersect(Box<PlanExpr>, Box<PlanExpr>),
    Except(Box<PlanExpr>, Box<PlanExpr>),
    /// Tree-axis path step: a loop-lifted staircase join.
    TreeStep {
        input: Option<Box<PlanExpr>>,
        axis: TreeAxis,
        test: NodeTest,
        predicates: Vec<PlanExpr>,
    },
    /// StandOff-axis path step: an annotated StandOff join.
    StandoffStep {
        input: Option<Box<PlanExpr>>,
        op: StandoffOp,
        test: NodeTest,
        predicates: Vec<PlanExpr>,
    },
    /// `input/expr` where the right-hand side is not an axis step.
    PathExpr {
        input: Box<PlanExpr>,
        step: Box<PlanExpr>,
    },
    /// `/...` — navigate from the context node's document root.
    RootPath,
    /// Postfix predicate `E[p]`.
    Filter {
        input: Box<PlanExpr>,
        predicate: Box<PlanExpr>,
    },
    /// The predicate `attribute::name = "value"` (general `=`, either
    /// operand order), fused by the optimizer's `fuse-attr-filter` pass.
    /// Only ever sits in predicate position — a step's predicate list or
    /// a [`PlanExpr::Filter`] — where the evaluator answers it per row
    /// from the owning document's attribute columns instead of opening
    /// a predicate frame.
    AttrEquals {
        name: String,
        value: Arc<str>,
    },
    /// Call of a user-defined function, resolved by the resolve step.
    UdfCall {
        index: usize,
        name: String,
        args: Vec<PlanExpr>,
    },
    /// `select-narrow($ctx[, $cands])` and friends — the StandOff join
    /// as a built-in function (implementation Alternative 3), annotated
    /// exactly like an axis step. An explicit candidate sequence
    /// overrides name-test pushdown.
    StandoffFn {
        op: StandoffOp,
        ctx: Box<PlanExpr>,
        candidates: Option<Box<PlanExpr>>,
    },
    /// A function call as parsed; after resolution, a built-in library
    /// function dispatched by (local) name at run time.
    BuiltinCall {
        name: String,
        args: Vec<PlanExpr>,
    },
    /// Direct element constructor — creates one element per iteration
    /// (never hoisted: node identity is per-iteration observable).
    Constructor(PlanConstructor),
}

impl PlanExpr {
    /// An empty sequence.
    pub fn empty() -> PlanExpr {
        PlanExpr::Sequence(Vec::new())
    }

    /// Visit this expression and all sub-expressions (including step
    /// predicates, constructor content, and hoisted FLWOR bindings),
    /// pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&PlanExpr)) {
        f(self);
        self.for_each_child(|c| c.visit(f));
    }

    /// Post-order mutable rewrite: children first, then `f(self)` — so a
    /// rewrite sees already-rewritten children (constant folding's
    /// bottom-up order).
    pub fn rewrite_bottom_up(&mut self, f: &mut impl FnMut(&mut PlanExpr)) {
        self.for_each_child_mut(|c| c.rewrite_bottom_up(f));
        f(self);
    }
}

/// Declares a plan expression's direct children once, for the shared
/// and the mutable walk alike: every arm binds by reference, so one body
/// hands `f` `&PlanExpr` or `&mut PlanExpr` children, and a new variant
/// edits this table only. Each use emits one `PlanExpr` method and the
/// constructor walk it recurses through.
macro_rules! child_walk {
    ($(#[$doc:meta])* $each:ident, $constructor:ident $(, $mut:tt)?) => {
        impl PlanExpr {
            $(#[$doc])*
            pub fn $each(&$($mut)? self, mut f: impl FnMut(&$($mut)? PlanExpr)) {
                match self {
                    PlanExpr::Const(_)
                    | PlanExpr::Var(_)
                    | PlanExpr::ContextItem
                    | PlanExpr::RootPath
                    | PlanExpr::AttrEquals { .. } => {}
                    PlanExpr::Sequence(items) => {
                        for e in items {
                            f(e);
                        }
                    }
                    PlanExpr::Flwor {
                        hoisted,
                        clauses,
                        where_clause,
                        order_by,
                        return_clause,
                    } => {
                        for (_, e) in hoisted {
                            f(e);
                        }
                        for c in clauses {
                            match c {
                                PlanClause::For { seq, .. } => f(seq),
                                PlanClause::Let { value, .. } => f(value),
                            }
                        }
                        if let Some(w) = where_clause {
                            f(w);
                        }
                        for PlanOrderKey { expr, .. } in order_by {
                            f(expr);
                        }
                        f(return_clause);
                    }
                    PlanExpr::Quantified {
                        bindings,
                        satisfies,
                        ..
                    } => {
                        for (_, e) in bindings {
                            f(e);
                        }
                        f(satisfies);
                    }
                    PlanExpr::IfThenElse {
                        cond,
                        then_branch,
                        else_branch,
                    } => {
                        f(cond);
                        f(then_branch);
                        f(else_branch);
                    }
                    PlanExpr::Or(a, b)
                    | PlanExpr::And(a, b)
                    | PlanExpr::Comparison(_, a, b)
                    | PlanExpr::Arith(_, a, b)
                    | PlanExpr::Range(a, b)
                    | PlanExpr::Union(a, b)
                    | PlanExpr::Intersect(a, b)
                    | PlanExpr::Except(a, b) => {
                        f(a);
                        f(b);
                    }
                    PlanExpr::Neg(e) => f(e),
                    PlanExpr::TreeStep {
                        input, predicates, ..
                    }
                    | PlanExpr::StandoffStep {
                        input, predicates, ..
                    } => {
                        if let Some(input) = input {
                            f(input);
                        }
                        for p in predicates {
                            f(p);
                        }
                    }
                    PlanExpr::PathExpr { input, step } => {
                        f(input);
                        f(step);
                    }
                    PlanExpr::Filter { input, predicate } => {
                        f(input);
                        f(predicate);
                    }
                    PlanExpr::UdfCall { args, .. } | PlanExpr::BuiltinCall { args, .. } => {
                        for a in args {
                            f(a);
                        }
                    }
                    PlanExpr::StandoffFn {
                        ctx, candidates, ..
                    } => {
                        f(ctx);
                        if let Some(c) = candidates {
                            f(c);
                        }
                    }
                    PlanExpr::Constructor(c) => $constructor(c, &mut f),
                }
            }
        }

        fn $constructor(c: &$($mut)? PlanConstructor, f: &mut impl FnMut(&$($mut)? PlanExpr)) {
            let PlanConstructor {
                attributes,
                content,
                ..
            } = c;
            for (_, parts) in attributes {
                for part in parts {
                    if let PlanContent::Enclosed(e) = part {
                        f(e);
                    }
                }
            }
            for part in content {
                match part {
                    PlanContent::Enclosed(e) => f(e),
                    PlanContent::Element(child) => $constructor(child, f),
                    PlanContent::Text(_) => {}
                }
            }
        }
    };
}

child_walk!(
    /// Apply `f` to every direct child expression.
    for_each_child,
    visit_constructor
);

child_walk!(
    /// Apply `f` to every direct child expression, mutably (the
    /// optimizer's rewrite substrate).
    for_each_child_mut,
    visit_constructor_mut,
    mut
);

impl Plan {
    /// Visit every expression in the plan — body, globals, hoisted
    /// bindings, and user-defined function bodies.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&PlanExpr)) {
        for (_, e) in &self.globals {
            e.visit(f);
        }
        for func in &self.functions {
            func.body.visit(f);
        }
        self.body.visit(f);
    }

    /// Mutably visit every root expression of the plan (global values,
    /// function bodies, the query body); `f` is responsible for its own
    /// recursion. Function bodies are copy-on-write: plans are only
    /// mutated before they are shared.
    pub fn for_each_root_mut(&mut self, mut f: impl FnMut(&mut PlanExpr)) {
        for (_, e) in &mut self.globals {
            f(e);
        }
        for func in &mut self.functions {
            f(&mut Arc::make_mut(func).body);
        }
        f(&mut self.body);
    }
}
