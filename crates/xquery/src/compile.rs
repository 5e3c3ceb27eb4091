//! AST → plan lowering.
//!
//! [`compile`] is the front half of the execution pipeline:
//!
//! ```text
//! parse  →  lower (this module)  →  optimize (crate::optimize)  →  execute
//! ```
//!
//! Lowering is a faithful 1:1 transliteration of the parsed AST into the
//! plan IR — every operator keeps the interpreter's semantics, StandOff
//! joins are annotated with the engine's configured strategy and *no*
//! pushdown, and nothing is reordered. The result of [`lower`] alone is
//! therefore the **direct-AST reference path**: executing it must be
//! observably identical to executing the optimized plan (the
//! `plan_equivalence` test suite enforces this across all strategies).
//!
//! What *is* resolved at lowering time (plan-time decisions that the
//! interpreter used to re-make per evaluation):
//!
//! * the prolog's `standoff-*` options become a validated
//!   [`StandoffConfig`];
//! * user-defined function calls bind to an index in the plan's function
//!   table, replicating the interpreter's shadowing rules exactly (the
//!   four context built-ins `position`/`last`/`true`/`false` win over
//!   same-named UDFs; UDFs win over every other built-in, including the
//!   StandOff join functions — the paper's Figure 2 setup);
//! * unshadowed `true()`/`false()` become constants;
//! * unshadowed `select-narrow($ctx[, $cands])` & friends become
//!   annotated [`PlanExpr::StandoffFn`] join operators.

use std::collections::HashMap;
use std::sync::Arc;

use standoff_core::{StandoffAxis, StandoffConfig};

use crate::ast::*;
use crate::engine::{EngineOptions, EngineState};
use crate::error::QueryError;
use crate::optimize;
use crate::plan::*;

/// Everything the compiler may consult about the engine it compiles
/// for: the evaluation options and (optionally) corpus statistics for
/// the optimizer's cost decisions. Statistics are optional so queries
/// can be compiled and explained without a corpus.
pub struct PlanContext<'a> {
    pub options: &'a EngineOptions,
    /// The corpus compiled against: documents and their element-name
    /// tables (candidate counts) and mounted layer groups (which layers
    /// a join can reach).
    pub corpus: Option<&'a EngineState>,
    /// Run the `estimate` pass (explain-grade cardinality annotations).
    /// Off on execution paths — estimates are only ever read by
    /// explain, and computing them scans the corpus per operator.
    pub estimates: bool,
}

impl<'a> PlanContext<'a> {
    /// A context with options only — no corpus statistics, no
    /// estimates.
    pub fn bare(options: &'a EngineOptions) -> PlanContext<'a> {
        PlanContext {
            options,
            corpus: None,
            estimates: false,
        }
    }
}

/// Compile a parsed query: lower it into the plan IR and run the full
/// optimizer pass list. This is the production path — `Engine::run`,
/// `Session`s and the batch executor's plan cache all execute plans
/// produced here.
pub fn compile(query: &Query, ctx: &PlanContext<'_>) -> Result<Plan, QueryError> {
    let mut plan = lower(query, ctx)?;
    plan.passes = optimize::optimize(&mut plan, ctx);
    Ok(plan)
}

/// Lower a parsed query without optimizing — the direct-AST reference
/// path. Used by the equivalence test suite and `Engine::run_unoptimized`;
/// production code wants [`compile`].
pub fn lower(query: &Query, ctx: &PlanContext<'_>) -> Result<Plan, QueryError> {
    let config = config_from_prolog(&query.prolog)?;
    // Function-name table first (late binding: bodies may call functions
    // declared after them, and a duplicate name re-binds to the later
    // declaration, as the interpreter's registration loop did).
    let mut fn_index: HashMap<String, usize> = HashMap::new();
    for (k, f) in query.prolog.functions.iter().enumerate() {
        let local = f.name.split_once(':').map(|(_, l)| l).unwrap_or(&f.name);
        fn_index.insert(local.to_string(), k);
    }
    let lowerer = Lowerer {
        fn_index,
        functions: &query.prolog.functions,
        ctx,
    };
    let functions = query
        .prolog
        .functions
        .iter()
        .map(|f| {
            Ok(Arc::new(PlanFunction {
                name: f.name.clone(),
                params: f.params.clone(),
                body: lowerer.lower_expr(&f.body)?,
            }))
        })
        .collect::<Result<Vec<_>, QueryError>>()?;
    let globals = query
        .prolog
        .variables
        .iter()
        .map(|(name, e)| Ok((name.clone(), lowerer.lower_expr(e)?)))
        .collect::<Result<Vec<_>, QueryError>>()?;
    Ok(Plan {
        options: query.prolog.options.clone(),
        config,
        externals: query.prolog.external_variables.clone(),
        globals,
        functions,
        body: lowerer.lower_expr(&query.body)?,
        passes: Vec::new(),
    })
}

struct Lowerer<'a> {
    /// Local function name → index in the plan function table.
    fn_index: HashMap<String, usize>,
    functions: &'a [FunctionDecl],
    ctx: &'a PlanContext<'a>,
}

impl Lowerer<'_> {
    fn lower_expr(&self, expr: &Expr) -> Result<PlanExpr, QueryError> {
        Ok(match expr {
            Expr::IntLit(i) => PlanExpr::Const(Atom::Integer(*i)),
            Expr::DoubleLit(d) => PlanExpr::Const(Atom::Double(*d)),
            Expr::StringLit(s) => PlanExpr::Const(Atom::str(s)),
            Expr::VarRef(name) => PlanExpr::Var(name.clone()),
            Expr::ContextItem => PlanExpr::ContextItem,
            Expr::Sequence(items) => PlanExpr::Sequence(self.lower_all(items)?),
            Expr::Flwor {
                clauses,
                where_clause,
                order_by,
                return_clause,
            } => PlanExpr::Flwor {
                hoisted: Vec::new(),
                clauses: clauses
                    .iter()
                    .map(|c| {
                        Ok(match c {
                            FlworClause::For { var, at, seq } => PlanClause::For {
                                var: var.clone(),
                                at: at.clone(),
                                seq: self.lower_expr(seq)?,
                            },
                            FlworClause::Let { var, value } => PlanClause::Let {
                                var: var.clone(),
                                value: self.lower_expr(value)?,
                            },
                        })
                    })
                    .collect::<Result<Vec<_>, QueryError>>()?,
                where_clause: match where_clause {
                    Some(w) => Some(Box::new(self.lower_expr(w)?)),
                    None => None,
                },
                order_by: order_by
                    .iter()
                    .map(|k| {
                        Ok(PlanOrderKey {
                            expr: self.lower_expr(&k.expr)?,
                            descending: k.descending,
                        })
                    })
                    .collect::<Result<Vec<_>, QueryError>>()?,
                return_clause: Box::new(self.lower_expr(return_clause)?),
            },
            Expr::Quantified {
                every,
                bindings,
                satisfies,
            } => PlanExpr::Quantified {
                every: *every,
                bindings: bindings
                    .iter()
                    .map(|(v, e)| Ok((v.clone(), self.lower_expr(e)?)))
                    .collect::<Result<Vec<_>, QueryError>>()?,
                satisfies: Box::new(self.lower_expr(satisfies)?),
            },
            Expr::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => PlanExpr::IfThenElse {
                cond: Box::new(self.lower_expr(cond)?),
                then_branch: Box::new(self.lower_expr(then_branch)?),
                else_branch: Box::new(self.lower_expr(else_branch)?),
            },
            Expr::Or(a, b) => PlanExpr::Or(self.lower_box(a)?, self.lower_box(b)?),
            Expr::And(a, b) => PlanExpr::And(self.lower_box(a)?, self.lower_box(b)?),
            Expr::Comparison(op, a, b) => {
                PlanExpr::Comparison(*op, self.lower_box(a)?, self.lower_box(b)?)
            }
            Expr::Arith(op, a, b) => PlanExpr::Arith(*op, self.lower_box(a)?, self.lower_box(b)?),
            Expr::Range(a, b) => PlanExpr::Range(self.lower_box(a)?, self.lower_box(b)?),
            Expr::Neg(e) => PlanExpr::Neg(self.lower_box(e)?),
            Expr::Union(a, b) => PlanExpr::Union(self.lower_box(a)?, self.lower_box(b)?),
            Expr::Intersect(a, b) => PlanExpr::Intersect(self.lower_box(a)?, self.lower_box(b)?),
            Expr::Except(a, b) => PlanExpr::Except(self.lower_box(a)?, self.lower_box(b)?),
            Expr::Step {
                input,
                axis,
                test,
                predicates,
            } => {
                let input = match input {
                    Some(e) => Some(Box::new(self.lower_expr(e)?)),
                    None => None,
                };
                let predicates = self.lower_all(predicates)?;
                match axis {
                    Axis::Tree(t) => PlanExpr::TreeStep {
                        input,
                        axis: *t,
                        test: test.clone(),
                        predicates,
                    },
                    Axis::Standoff(s) => PlanExpr::StandoffStep {
                        input,
                        op: StandoffOp::new(*s, self.ctx.options.strategy),
                        test: test.clone(),
                        predicates,
                    },
                }
            }
            Expr::PathExpr { input, step } => PlanExpr::PathExpr {
                input: self.lower_box(input)?,
                step: self.lower_box(step)?,
            },
            Expr::RootPath(_) => PlanExpr::RootPath,
            Expr::Filter { input, predicate } => PlanExpr::Filter {
                input: self.lower_box(input)?,
                predicate: self.lower_box(predicate)?,
            },
            Expr::FunctionCall { name, args } => self.lower_call(name, args)?,
            Expr::Constructor(c) => PlanExpr::Constructor(self.lower_constructor(c)?),
        })
    }

    fn lower_box(&self, e: &Expr) -> Result<Box<PlanExpr>, QueryError> {
        Ok(Box::new(self.lower_expr(e)?))
    }

    fn lower_all(&self, es: &[Expr]) -> Result<Vec<PlanExpr>, QueryError> {
        es.iter().map(|e| self.lower_expr(e)).collect()
    }

    /// Resolve a function call with the interpreter's exact shadowing
    /// rules (see module docs). Arity of user-defined calls is checked
    /// at run time, as before — a call in a never-executed branch must
    /// not fail the whole query.
    fn lower_call(&self, name: &str, args: &[Expr]) -> Result<PlanExpr, QueryError> {
        let local = name.split_once(':').map(|(_, l)| l).unwrap_or(name);
        // Context-dependent / constant zero-argument built-ins shadow
        // everything.
        if args.is_empty() {
            match local {
                "true" => return Ok(PlanExpr::Const(Atom::Boolean(true))),
                "false" => return Ok(PlanExpr::Const(Atom::Boolean(false))),
                "position" | "last" => {
                    return Ok(PlanExpr::BuiltinCall {
                        name: name.to_string(),
                        args: Vec::new(),
                    })
                }
                _ => {}
            }
        }
        // User-defined functions shadow the remaining built-ins.
        if let Some(&index) = self.fn_index.get(local).or_else(|| self.fn_index.get(name)) {
            return Ok(PlanExpr::UdfCall {
                index,
                name: self.functions[index].name.clone(),
                args: self.lower_all(args)?,
            });
        }
        // The StandOff joins in built-in function form (Figure 3).
        if let Some(axis) = StandoffAxis::parse(local) {
            if let 1..=2 = args.len() {
                let mut lowered = self.lower_all(args)?;
                let candidates = if lowered.len() == 2 {
                    Some(Box::new(lowered.pop().expect("checked len")))
                } else {
                    None
                };
                return Ok(PlanExpr::StandoffFn {
                    op: StandoffOp::new(axis, self.ctx.options.strategy),
                    ctx: Box::new(lowered.pop().expect("checked len")),
                    candidates,
                });
            }
        }
        Ok(PlanExpr::BuiltinCall {
            name: name.to_string(),
            args: self.lower_all(args)?,
        })
    }

    fn lower_constructor(&self, c: &ElementConstructor) -> Result<PlanConstructor, QueryError> {
        Ok(PlanConstructor {
            name: c.name.clone(),
            attributes: c
                .attributes
                .iter()
                .map(|(n, parts)| Ok((n.clone(), self.lower_contents(parts)?)))
                .collect::<Result<Vec<_>, QueryError>>()?,
            content: self.lower_contents(&c.content)?,
        })
    }

    fn lower_contents(&self, parts: &[ConstructorContent]) -> Result<Vec<PlanContent>, QueryError> {
        parts
            .iter()
            .map(|part| {
                Ok(match part {
                    ConstructorContent::Text(t) => PlanContent::Text(t.clone()),
                    ConstructorContent::Enclosed(e) => PlanContent::Enclosed(self.lower_expr(e)?),
                    ConstructorContent::Element(child) => {
                        PlanContent::Element(Box::new(self.lower_constructor(child)?))
                    }
                })
            })
            .collect()
    }
}

/// Extract the `standoff-*` options of the prolog into a configuration
/// (paper §2); unknown options are ignored, standoff ones are validated.
/// A bad configuration is a compile-time error.
pub fn config_from_prolog(prolog: &Prolog) -> Result<StandoffConfig, QueryError> {
    let mut config = StandoffConfig::default();
    for (name, value) in &prolog.options {
        let local = name.split_once(':').map(|(_, l)| l).unwrap_or(name);
        match local {
            "standoff-type" => config.position_type = value.clone(),
            "standoff-start" => config.start_name = value.clone(),
            "standoff-end" => config.end_name = value.clone(),
            "standoff-region" => config.region_name = Some(value.clone()),
            "standoff-lenient" => config.lenient = value == "true",
            _ => {} // other engines' options pass through
        }
    }
    config.validate()?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn lower_body(q: &str) -> PlanExpr {
        let parsed = parse_query(q).unwrap();
        let options = EngineOptions::default();
        lower(&parsed, &PlanContext::bare(&options)).unwrap().body
    }

    #[test]
    fn literals_become_constants() {
        assert!(matches!(
            lower_body("42"),
            PlanExpr::Const(Atom::Integer(42))
        ));
        assert!(matches!(
            lower_body("true()"),
            PlanExpr::Const(Atom::Boolean(true))
        ));
    }

    #[test]
    fn standoff_step_carries_engine_strategy() {
        let body = lower_body("//a/select-narrow::b");
        let PlanExpr::StandoffStep { op, .. } = body else {
            panic!("expected standoff step, got {body:?}");
        };
        assert_eq!(op.strategy, EngineOptions::default().strategy);
        assert_eq!(op.pushdown, None, "lowering never decides pushdown");
    }

    #[test]
    fn standoff_builtin_becomes_join_op() {
        let body = lower_body("select-wide(//a, //b)");
        let PlanExpr::StandoffFn { op, candidates, .. } = body else {
            panic!("expected standoff fn, got {body:?}");
        };
        assert_eq!(op.axis, StandoffAxis::SelectWide);
        assert!(candidates.is_some());
    }

    #[test]
    fn udf_shadows_standoff_builtin() {
        let body = lower_body("declare function select-narrow($x) { $x }; select-narrow(1)");
        assert!(matches!(body, PlanExpr::UdfCall { index: 0, .. }));
    }

    #[test]
    fn zero_arg_context_builtins_shadow_udfs() {
        // The interpreter resolved position()/last()/true()/false()
        // before user-defined functions; compilation must replicate.
        let body = lower_body("declare function true() { 0 }; true()");
        assert!(matches!(body, PlanExpr::Const(Atom::Boolean(true))));
    }

    #[test]
    fn bad_standoff_config_is_a_compile_error() {
        let parsed = parse_query(r#"declare option standoff-type "xs:duration"; 1"#).unwrap();
        let options = EngineOptions::default();
        assert!(compile(&parsed, &PlanContext::bare(&options)).is_err());
    }
}
