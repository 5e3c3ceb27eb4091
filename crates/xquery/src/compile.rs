//! The resolve step and the compile entry point.
//!
//! [`compile`] is the front half of the execution pipeline:
//!
//! ```text
//! parse (crate::parser)  →  resolve (this module)  →  optimize (crate::optimize)  →  execute
//! ```
//!
//! The parser builds the plan IR directly; [`resolve`] then fixes, in
//! place, the plan-time decisions the parser cannot make. It reorders
//! nothing, and StandOff joins get the engine's configured strategy and
//! *no* pushdown, so a resolved plan is the **unoptimized reference
//! path**: executing it must be observably identical to executing the
//! optimized plan (the `plan_equivalence` test suite enforces this
//! across all strategies).
//!
//! What resolution decides:
//!
//! * the prolog's `standoff-*` options become a validated
//!   [`StandoffConfig`] — a bad one is a static error;
//! * user-defined function calls bind to an index in the plan's function
//!   table with the shadowing rules of the original interpreter (the
//!   four context built-ins `position`/`last`/`true`/`false` win over
//!   same-named UDFs; UDFs win over every other built-in, including the
//!   StandOff join functions — the paper's Figure 2 setup);
//! * unshadowed `true()`/`false()` become constants;
//! * unshadowed `select-narrow($ctx[, $cands])` & friends become
//!   annotated [`PlanExpr::StandoffFn`] join operators;
//! * every StandOff operator carries the engine's join strategy.

use std::collections::HashMap;

use standoff_core::{StandoffAxis, StandoffConfig, StandoffStrategy};

use crate::engine::EngineOptions;
use crate::error::QueryError;
use crate::optimize;
use crate::plan::*;

/// Compile a parsed query under an engine's options: resolve it and
/// run the full optimizer pass list. `Engine::run`, `Session`s, the
/// batch executor's plan cache and `explain` all take their plans from
/// here, and nothing about the corpus enters a plan.
pub fn compile(mut plan: Plan, options: &EngineOptions) -> Result<Plan, QueryError> {
    resolve(&mut plan, options)?;
    plan.passes = optimize::optimize(&mut plan, options);
    Ok(plan)
}

/// Resolve a parsed plan in place without optimizing it — alone, the
/// unoptimized reference path of `Engine::run_unoptimized` and the
/// equivalence test suite; production code wants [`compile`].
pub fn resolve(plan: &mut Plan, options: &EngineOptions) -> Result<(), QueryError> {
    plan.config = config_from_options(&plan.options)?;
    // Function-name table first (late binding: bodies may call functions
    // declared after them, and a duplicate name re-binds to the later
    // declaration).
    let mut functions: HashMap<String, (usize, String)> = HashMap::new();
    for (index, f) in plan.functions.iter().enumerate() {
        functions.insert(local_name(&f.name).to_string(), (index, f.name.clone()));
    }
    let strategy = options.strategy;
    plan.for_each_root_mut(|root| {
        root.rewrite_bottom_up(&mut |e| resolve_expr(e, &functions, strategy))
    });
    Ok(())
}

fn local_name(name: &str) -> &str {
    name.split_once(':').map(|(_, l)| l).unwrap_or(name)
}

/// Resolve one operator whose children are already resolved: stamp a
/// StandOff step's strategy, or bind a call (see module docs). Arity of
/// user-defined calls is checked at run time — a call in a
/// never-executed branch must not fail the whole query.
fn resolve_expr(
    e: &mut PlanExpr,
    functions: &HashMap<String, (usize, String)>,
    strategy: StandoffStrategy,
) {
    let (name, args) = match e {
        PlanExpr::StandoffStep { op, .. } => {
            op.strategy = strategy;
            return;
        }
        PlanExpr::BuiltinCall { name, args } => (name, args),
        _ => return,
    };
    let local = local_name(name);
    // Context-dependent / constant zero-argument built-ins shadow
    // everything.
    if args.is_empty() {
        match local {
            "true" | "false" => {
                *e = PlanExpr::Const(Atom::Boolean(local == "true"));
                return;
            }
            "position" | "last" => return,
            _ => {}
        }
    }
    // User-defined functions shadow the remaining built-ins.
    if let Some((index, udf)) = functions
        .get(local)
        .or_else(|| functions.get(name.as_str()))
    {
        *e = PlanExpr::UdfCall {
            index: *index,
            name: udf.clone(),
            args: std::mem::take(args),
        };
        return;
    }
    // The StandOff joins in built-in function form (Figure 3).
    if let (Some(axis), 1..=2) = (StandoffAxis::parse(local), args.len()) {
        let candidates = (args.len() == 2).then(|| Box::new(args.pop().expect("checked len")));
        *e = PlanExpr::StandoffFn {
            op: StandoffOp::new(axis, strategy),
            ctx: Box::new(args.pop().expect("checked len")),
            candidates,
        };
    }
}

/// Extract the prolog's `standoff-*` options into a configuration
/// (paper §2); unknown options are ignored, standoff ones are validated.
/// A bad configuration is a static error.
pub fn config_from_options(options: &[(String, String)]) -> Result<StandoffConfig, QueryError> {
    let mut config = StandoffConfig::default();
    for (name, value) in options {
        match local_name(name) {
            "standoff-type" => config.position_type = value.clone(),
            "standoff-start" => config.start_name = value.clone(),
            "standoff-end" => config.end_name = value.clone(),
            "standoff-region" => config.region_name = Some(value.clone()),
            "standoff-lenient" => config.lenient = value == "true",
            _ => {} // other engines' options pass through
        }
    }
    config
        .validate()
        .map_err(|e| QueryError::stat(format!("standoff annotation error: {e}")))?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn resolve_body(q: &str) -> PlanExpr {
        let mut plan = parse_query(q).unwrap();
        let options = EngineOptions::default();
        resolve(&mut plan, &options).unwrap();
        plan.body
    }

    #[test]
    fn literals_become_constants() {
        assert!(matches!(
            resolve_body("42"),
            PlanExpr::Const(Atom::Integer(42))
        ));
        assert!(matches!(
            resolve_body("true()"),
            PlanExpr::Const(Atom::Boolean(true))
        ));
    }

    #[test]
    fn standoff_step_carries_engine_strategy() {
        let body = resolve_body("//a/select-narrow::b");
        let PlanExpr::StandoffStep { op, .. } = body else {
            panic!("expected standoff step, got {body:?}");
        };
        assert_eq!(op.strategy, EngineOptions::default().strategy);
        assert_eq!(op.pushdown, None, "resolution never decides pushdown");
    }

    #[test]
    fn standoff_builtin_becomes_join_op() {
        let body = resolve_body("select-wide(//a, //b)");
        let PlanExpr::StandoffFn { op, candidates, .. } = body else {
            panic!("expected standoff fn, got {body:?}");
        };
        assert_eq!(op.axis, StandoffAxis::SelectWide);
        assert!(candidates.is_some());
    }

    #[test]
    fn udf_shadows_standoff_builtin() {
        let body = resolve_body("declare function select-narrow($x) { $x }; select-narrow(1)");
        assert!(matches!(body, PlanExpr::UdfCall { index: 0, .. }));
    }

    #[test]
    fn zero_arg_context_builtins_shadow_udfs() {
        // position()/last()/true()/false() resolve before user-defined
        // functions.
        let body = resolve_body("declare function true() { 0 }; true()");
        assert!(matches!(body, PlanExpr::Const(Atom::Boolean(true))));
    }

    #[test]
    fn bad_standoff_config_is_a_compile_error() {
        let parsed = parse_query(r#"declare option standoff-type "xs:duration"; 1"#).unwrap();
        let options = EngineOptions::default();
        let err = compile(parsed, &options).unwrap_err();
        assert!(matches!(err, QueryError::Static(_)), "{err:?}");
    }
}
