//! Plan explanation.
//!
//! Renders a **compiled, optimized plan** — the very object the
//! evaluator executes — as an indented operator tree, annotated with the
//! loop-lifting structure (which operators open new iteration scopes)
//! and, for StandOff joins, the per-operator plan decisions: the join
//! algorithm the optimizer selected and whether (and which)
//! element-name candidate sequence is pushed down. The textual shape
//! mirrors how Pathfinder plans are usually shown.
//!
//! Rendered for an engine, each StandOff line also states what that
//! engine's corpus holds for the join, worked out at render time by the
//! functions the join itself calls (`join_facts`): which layers of a
//! mounted corpus answer it and whether their outputs are emitted
//! directly or merged, the entries of the region indexes it reaches
//! (`entries=`) and the pushed name's elements in them (`named=`).
//! Rendered with a profile (`explain analyze`), each such line's claim
//! — `count: from index`, `result: direct` — is held against that
//! operator's recorded actuals, and a broken one is counted
//! (`plan.claim_mismatch.*`).
//!
//! Because the text is generated from the plan that executes, it
//! cannot drift from execution: what explain prints *is* what runs.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use standoff_algebra::TreeAxis;
use standoff_core::{IndexStats, RegionIndex, StandoffStrategy};
use standoff_xml::DocId;

use crate::engine::{answering_layers, EngineState, LayerFilter};
use crate::plan::*;
use crate::profile::{fmt_ns, operator_ids, PlanProfile};

/// Render the optimized plan. With the engine it is rendered for, each
/// StandOff line also states that engine's facts for the join; without
/// one, only what the plan decided.
pub fn explain_plan(plan: &Plan, engine: Option<&EngineState>) -> String {
    render_plan(plan, engine, None)
}

/// Render the optimized plan annotated with one execution's measurements
/// — the `explain analyze` text. Every operator's head line gains an
/// `-- actual #id:` block with call count, output rows and wall time
/// (plus join mechanism detail for StandOff joins); operators the
/// execution never reached say so. With `redact` the times print as `~`,
/// which keeps the output deterministic for golden tests. `engine` is
/// the engine the plan ran on.
pub fn explain_analyze(
    plan: &Plan,
    profile: &PlanProfile,
    engine: &EngineState,
    redact: bool,
) -> String {
    let analyze = AnalyzeCtx {
        ids: operator_ids(plan),
        profile,
        redact,
    };
    render_plan(plan, Some(engine), Some(analyze))
}

fn render_plan(plan: &Plan, engine: Option<&EngineState>, analyze: Option<AnalyzeCtx>) -> String {
    let ctx = &Render {
        engine,
        plan,
        loaded: OnceCell::new(),
        analyze,
    };
    let mut out = String::new();
    if !plan.passes.is_empty() {
        let _ = writeln!(out, "passes: {}", plan.passes.join(" → "));
    }
    if !plan.options.is_empty() {
        out.push_str("options:\n");
        for (k, v) in &plan.options {
            let _ = writeln!(out, "  {k} = \"{v}\"");
        }
    }
    for f in &plan.functions {
        let _ = writeln!(out, "function {}({}):", f.name, f.params.join(", "));
        explain_expr_in(&f.body, 1, &mut out, ctx);
    }
    for (name, expr) in &plan.globals {
        let _ = writeln!(out, "global ${name} :=");
        explain_expr_in(expr, 1, &mut out, ctx);
    }
    out.push_str("plan:\n");
    explain_expr_in(&plan.body, 1, &mut out, ctx);
    out
}

/// What one rendering reads besides the plan: the engine it is
/// rendered for, and the measurements of `explain analyze`.
struct Render<'a> {
    engine: Option<&'a EngineState>,
    plan: &'a Plan,
    /// The region indexes of the engine's loaded documents under the
    /// plan's configuration, obtained for the first StandOff line.
    loaded: OnceCell<Vec<(DocId, Arc<RegionIndex>)>>,
    analyze: Option<AnalyzeCtx<'a>>,
}

/// The measurement side-channel of `explain analyze`: stable operator
/// ids plus the recorded profile, threaded through the renderer.
struct AnalyzeCtx<'a> {
    ids: HashMap<usize, u32>,
    profile: &'a PlanProfile,
    redact: bool,
}

impl AnalyzeCtx<'_> {
    /// The `-- actual` block for one operator's head line.
    fn annotation(&self, expr: &PlanExpr) -> Option<String> {
        let key = expr as *const PlanExpr as usize;
        let id = self.ids.get(&key)?;
        let Some(m) = self.profile.ops.get(&key) else {
            return Some(format!("  -- actual #{id}: not executed"));
        };
        let time = if self.redact {
            "~".to_string()
        } else {
            fmt_ns(m.wall_ns)
        };
        let mut note = format!(
            "  -- actual #{id}: calls={} rows={} time={time}",
            m.calls, m.out_rows
        );
        if let PlanExpr::Constructor(_) = expr {
            let _ = write!(note, " fragments={} arena={}", m.fragments, m.arena_bytes);
        }
        if let Some(j) = &m.join {
            let _ = write!(
                note,
                " | join ctx={} targets={} cands={} (max {})",
                j.ctx_rows, j.target_joins, j.cand_rows, j.cand_max,
            );
            // The declared counter set, in declaration order; kernel
            // detail is shown only where a kernel fired, so gather-only
            // lines stay short.
            for (counter, value) in j.stats.counters() {
                if counter.always || value > 0 {
                    note.push(' ');
                    let label = counter.label.replace("{E}", &j.target_entries.to_string());
                    note.push_str(&label.replace("{}", &value.to_string()));
                }
            }
        }
        Some(note)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn line(out: &mut String, depth: usize, text: &str) {
    indent(out, depth);
    out.push_str(text);
    out.push('\n');
}

/// The annotation block of one StandOff join operator `expr`.
/// `explicit_candidates` is set for the built-in function form with a
/// second argument, which overrides any name-test pushdown at run time
/// — the note must describe the candidate source actually used.
fn standoff_note(
    ctx: &Render,
    expr: &PlanExpr,
    op: &StandoffOp,
    explicit_candidates: bool,
) -> String {
    let algo = match op.strategy {
        StandoffStrategy::NaiveNoCandidates => "nested loop over all elements",
        StandoffStrategy::NaiveWithCandidates => "nested loop over candidates",
        StandoffStrategy::BasicMergeJoin => "StandOff MergeJoin per iteration (basic)",
        StandoffStrategy::LoopLiftedMergeJoin => {
            "loop-lifted StandOff MergeJoin, single index scan"
        }
    };
    let facts = ctx.engine.map(|engine| {
        let loaded = (ctx.loaded).get_or_init(|| engine.loaded_indexes(&ctx.plan.config));
        (engine, join_facts(engine, loaded, op, explicit_candidates))
    });
    // Where a merge join reads a pushed name's candidates, when the
    // indexes it reaches are not empty: the name's posting, or — when
    // its elements are every annotated node — the table itself,
    // borrowed ([`standoff_core::RegionIndex::posting`]). The
    // loop-lifted joins read only their context's reach of it (widened
    // by its largest entry extent for the overlap axes).
    let access = match (&facts, op.strategy) {
        (
            Some((_, f)),
            StandoffStrategy::BasicMergeJoin | StandoffStrategy::LoopLiftedMergeJoin,
        ) if f.index.entries > 0 => {
            let source = if f.covering { "borrowed" } else { "posting" };
            let bounded = op.strategy == StandoffStrategy::LoopLiftedMergeJoin;
            let reach = if bounded { " ≤ context reach" } else { "" };
            format!(" [{source}{reach}]")
        }
        _ => String::new(),
    };
    let cand = match (&op.pushdown, explicit_candidates) {
        (_, true) => "candidates: explicit node sequence ∩ region index".to_string(),
        (Some(name), _) => format!("candidates: element index '{name}' ∩ region index{access}"),
        (None, _) => "candidates: full region index".to_string(),
    };
    let mut note = format!("{algo}; {cand}");
    // What will happen to the result, for a context inside a mounted
    // layer group (a lone document is its own single target): every
    // answering layer's output leaves the kernel `(iter, pre)`-sorted,
    // so one is emitted as it is and several are merged. An operator
    // only counted is answered from the index where its layers hold
    // single-region annotations, and by counting the join's rows
    // elsewhere.
    let (mut index_count, mut direct) = (false, false);
    if let Some((engine, f)) = &facts {
        let groups = engine.layer_groups();
        for (k, (answering, members)) in f.answering.iter().flatten().zip(groups).enumerate() {
            note.push_str(if k == 0 { "; layers: " } else { " | " });
            if groups.len() > 1 {
                let uri = engine.store.doc_uri(members[0]).unwrap_or("?");
                let _ = write!(note, "{uri}: ");
            }
            let names: Vec<String> = answering.iter().map(|&d| engine.layer_label(d)).collect();
            let names = if names.is_empty() {
                "none".to_string()
            } else {
                names.join(", ")
            };
            let _ = write!(note, "{names} ({} of {})", answering.len(), members.len());
        }
        let widest = f.answering.iter().flatten().map(Vec::len).max();
        index_count = op.count_from_index && f.index.max_regions <= 1;
        direct = !op.count_from_index && f.answering.is_some() && widest.unwrap_or(0) <= 1;
        match (&f.answering, widest) {
            _ if index_count => note.push_str("; count: from index"),
            _ if op.count_from_index => note.push_str("; count: from join rows"),
            (None, _) => note.push_str("; result: one run per layer of the candidate sequence"),
            _ if direct => note.push_str("; result: direct"),
            _ => {
                let _ = write!(note, "; result: k-way merge ({})", widest.unwrap_or(0));
            }
        }
    }
    let _ = write!(
        note,
        "; post-filter: {}",
        if op.test_guaranteed {
            "elided"
        } else {
            "self-step"
        }
    );
    if let Some((engine, f)) = &facts {
        let _ = write!(note, "; entries={}", f.index.entries);
        if let Some(n) = f.named {
            let _ = write!(note, ", named={n}");
        }
        if f.index.max_regions > 1 {
            let _ = write!(note, ", max-regions={}", f.index.max_regions);
        }
        // The actuals hold the claim: every target of a count from the
        // index is one `from-index=` of its `targets=`, and a direct
        // result was never merged (`merges=`). Execution and these
        // facts call the same functions, so a broken claim is a fault
        // in one of them.
        let profile = ctx.analyze.as_ref().and_then(|a| a.profile.get(expr));
        if let Some(j) = profile.and_then(|m| m.join.as_ref()) {
            if index_count && j.stats.counts_from_index != j.target_joins {
                engine.handles.claim_mismatch_count.inc();
            }
            if direct && j.stats.result_merges > 0 {
                engine.handles.claim_mismatch_result_merge.inc();
            }
        }
    }
    note
}

/// What an engine's corpus holds for one StandOff join, worked out by
/// the functions the join itself calls.
struct JoinFacts {
    /// Per mounted layer group, the layers that answer the join
    /// ([`answering_layers`]); `None` for an explicit candidate
    /// sequence, whose layers are known only once it is evaluated.
    answering: Option<Vec<Vec<DocId>>>,
    /// Statistics of the region indexes the join reaches: those of its
    /// answering layers and of every loaded document.
    index: IndexStats,
    /// The pushed name's elements in those indexes' documents.
    named: Option<u64>,
    /// Those elements are every annotated node of each reached document
    /// that holds the name: the join borrows the table, not a posting.
    covering: bool,
}

fn join_facts(
    engine: &EngineState,
    loaded: &[(DocId, Arc<RegionIndex>)],
    op: &StandoffOp,
    explicit_candidates: bool,
) -> JoinFacts {
    let answering: Option<Vec<Vec<DocId>>> = (!explicit_candidates).then(|| {
        let filter = LayerFilter::of(op, None);
        (engine.layer_groups().iter())
            .map(|members| answering_layers(&engine.store, members, &filter))
            .collect()
    });
    let reached = |doc: DocId| match (&answering, engine.layer_group_id(doc)) {
        (Some(answering), Some(g)) => answering[g as usize].contains(&doc),
        _ => true,
    };
    let indexes = engine.indexes(reached, loaded);
    let mut index = IndexStats::default();
    indexes
        .iter()
        .for_each(|(_, reached)| index.merge(reached.stats()));
    let named = op.pushdown.as_deref().map(|name| {
        (indexes.iter())
            .map(|(doc, reached)| (reached, engine.store.doc(*doc).elements_named(name)))
            .filter(|(_, nodes)| !nodes.is_empty())
            .collect::<Vec<_>>()
    });
    let covering = named.as_ref().is_some_and(|named| {
        !named.is_empty() && named.iter().all(|(reached, nodes)| reached.covers(nodes))
    });
    let named = named.map(|named| named.iter().map(|(_, nodes)| nodes.len() as u64).sum());
    JoinFacts {
        answering,
        index,
        named,
        covering,
    }
}

/// Render one operator subtree, then splice the analyze annotation (if
/// any) into the operator's head line — the first line the arm emitted.
/// Children are already rendered (and annotated) by the time the parent
/// splices, so the insertion point is always the parent's own newline.
fn explain_expr_in(expr: &PlanExpr, depth: usize, out: &mut String, ctx: &Render) {
    let head_start = out.len();
    explain_expr_body(expr, depth, out, ctx);
    if let Some(actx) = &ctx.analyze {
        if let Some(note) = actx.annotation(expr) {
            if let Some(pos) = out[head_start..].find('\n') {
                out.insert_str(head_start + pos, &note);
            }
        }
    }
}

fn explain_expr_body(expr: &PlanExpr, depth: usize, out: &mut String, ctx: &Render) {
    match expr {
        PlanExpr::Const(atom) => {
            let text = match atom {
                Atom::Integer(i) => format!("const {i}"),
                Atom::Double(d) => format!("const {d}"),
                Atom::String(s) => format!("const \"{s}\""),
                Atom::Boolean(b) => format!("const {b}()"),
            };
            line(out, depth, &text);
        }
        PlanExpr::Var(v) => line(out, depth, &format!("var ${v}")),
        PlanExpr::ContextItem => line(out, depth, "context-item"),
        PlanExpr::Sequence(items) => {
            line(out, depth, &format!("sequence [{} parts]", items.len()));
            for e in items {
                explain_expr_in(e, depth + 1, out, ctx);
            }
        }
        PlanExpr::Flwor {
            hoisted,
            clauses,
            where_clause,
            order_by,
            return_clause,
        } => {
            line(out, depth, "flwor");
            for (name, expr) in hoisted {
                line(
                    out,
                    depth + 1,
                    &format!("hoisted ${name} :=  -- loop-invariant, once per host iteration"),
                );
                explain_expr_in(expr, depth + 2, out, ctx);
            }
            for clause in clauses {
                match clause {
                    PlanClause::For { var, at, seq } => {
                        let at = at.as_ref().map(|a| format!(" at ${a}")).unwrap_or_default();
                        line(
                            out,
                            depth + 1,
                            &format!("for ${var}{at} in  -- opens a new iteration scope"),
                        );
                        explain_expr_in(seq, depth + 2, out, ctx);
                    }
                    PlanClause::Let { var, value } => {
                        line(out, depth + 1, &format!("let ${var} :="));
                        explain_expr_in(value, depth + 2, out, ctx);
                    }
                }
            }
            if let Some(w) = where_clause {
                line(out, depth + 1, "where  -- restricts the loop relation");
                explain_expr_in(w, depth + 2, out, ctx);
            }
            for key in order_by {
                line(
                    out,
                    depth + 1,
                    if key.descending {
                        "order by (descending)"
                    } else {
                        "order by"
                    },
                );
                explain_expr_in(&key.expr, depth + 2, out, ctx);
            }
            line(out, depth + 1, "return");
            explain_expr_in(return_clause, depth + 2, out, ctx);
        }
        PlanExpr::Quantified {
            every,
            bindings,
            satisfies,
        } => {
            line(out, depth, if *every { "every" } else { "some" });
            for (var, seq) in bindings {
                line(out, depth + 1, &format!("${var} in"));
                explain_expr_in(seq, depth + 2, out, ctx);
            }
            line(out, depth + 1, "satisfies");
            explain_expr_in(satisfies, depth + 2, out, ctx);
        }
        PlanExpr::IfThenElse {
            cond,
            then_branch,
            else_branch,
        } => {
            line(
                out,
                depth,
                "if  -- branches evaluated on split loop relations",
            );
            explain_expr_in(cond, depth + 1, out, ctx);
            line(out, depth, "then");
            explain_expr_in(then_branch, depth + 1, out, ctx);
            line(out, depth, "else");
            explain_expr_in(else_branch, depth + 1, out, ctx);
        }
        PlanExpr::Or(a, b) | PlanExpr::And(a, b) => {
            line(
                out,
                depth,
                if matches!(expr, PlanExpr::Or(..)) {
                    "or"
                } else {
                    "and"
                },
            );
            explain_expr_in(a, depth + 1, out, ctx);
            explain_expr_in(b, depth + 1, out, ctx);
        }
        PlanExpr::Comparison(op, a, b) => {
            line(out, depth, &format!("compare {op:?}"));
            explain_expr_in(a, depth + 1, out, ctx);
            explain_expr_in(b, depth + 1, out, ctx);
        }
        PlanExpr::Arith(op, a, b) => {
            line(out, depth, &format!("arith {op:?}"));
            explain_expr_in(a, depth + 1, out, ctx);
            explain_expr_in(b, depth + 1, out, ctx);
        }
        PlanExpr::Range(a, b) => {
            line(out, depth, "range to");
            explain_expr_in(a, depth + 1, out, ctx);
            explain_expr_in(b, depth + 1, out, ctx);
        }
        PlanExpr::Neg(e) => {
            line(out, depth, "negate");
            explain_expr_in(e, depth + 1, out, ctx);
        }
        PlanExpr::Union(a, b) => {
            line(out, depth, "union (doc-order dedup)");
            explain_expr_in(a, depth + 1, out, ctx);
            explain_expr_in(b, depth + 1, out, ctx);
        }
        PlanExpr::Intersect(a, b) => {
            line(out, depth, "intersect (node identity)");
            explain_expr_in(a, depth + 1, out, ctx);
            explain_expr_in(b, depth + 1, out, ctx);
        }
        PlanExpr::Except(a, b) => {
            line(out, depth, "except (node identity)");
            explain_expr_in(a, depth + 1, out, ctx);
            explain_expr_in(b, depth + 1, out, ctx);
        }
        PlanExpr::TreeStep {
            input,
            axis,
            test,
            predicates,
        } => {
            // Decided from the plan alone, exactly as the staircase join
            // decides it: a named element test on a descendant axis is
            // read off the element-name index, never scanned for.
            let indexed = matches!(axis, TreeAxis::Descendant | TreeAxis::DescendantOrSelf)
                && test.names_element();
            line(
                out,
                depth,
                &format!(
                    "step {}::{test}  [staircase join, loop-lifted{}]",
                    axis.as_str(),
                    if indexed {
                        "; answered from element-name index"
                    } else {
                        ""
                    }
                ),
            );
            explain_step_tail(input.as_deref(), predicates, depth, out, ctx);
        }
        PlanExpr::StandoffStep {
            input,
            op,
            test,
            predicates,
        } => {
            line(
                out,
                depth,
                &format!(
                    "step {}::{test}  [{}]",
                    op.axis.as_str(),
                    standoff_note(ctx, expr, op, false)
                ),
            );
            explain_step_tail(input.as_deref(), predicates, depth, out, ctx);
        }
        PlanExpr::PathExpr { input, step } => {
            line(out, depth, "path  -- maps rhs over lhs items");
            explain_expr_in(input, depth + 1, out, ctx);
            explain_expr_in(step, depth + 1, out, ctx);
        }
        PlanExpr::RootPath => line(out, depth, "root()"),
        PlanExpr::Filter { input, predicate } => {
            line(out, depth, "filter");
            explain_expr_in(input, depth + 1, out, ctx);
            line(out, depth + 1, "predicate");
            explain_expr_in(predicate, depth + 2, out, ctx);
        }
        PlanExpr::AttrEquals { name, value } => line(
            out,
            depth,
            &format!("attr-filter @{name} = \"{value}\"  [attribute columns, no predicate frame]"),
        ),
        PlanExpr::UdfCall { name, args, .. } => {
            line(out, depth, &format!("call {name}({} args)", args.len()));
            for a in args {
                explain_expr_in(a, depth + 1, out, ctx);
            }
        }
        PlanExpr::StandoffFn {
            op,
            ctx: join_ctx,
            candidates,
        } => {
            line(
                out,
                depth,
                &format!(
                    "standoff-join {}(..)  [{}]",
                    op.axis.as_str(),
                    standoff_note(ctx, expr, op, candidates.is_some())
                ),
            );
            line(out, depth + 1, "context");
            explain_expr_in(join_ctx, depth + 2, out, ctx);
            if let Some(c) = candidates {
                line(out, depth + 1, "candidates");
                explain_expr_in(c, depth + 2, out, ctx);
            }
        }
        PlanExpr::BuiltinCall { name, args } => {
            line(out, depth, &format!("call {name}({} args)", args.len()));
            for a in args {
                explain_expr_in(a, depth + 1, out, ctx);
            }
        }
        PlanExpr::Constructor(c) => {
            line(
                out,
                depth,
                &format!("construct <{}>  [one element per iteration]", c.name),
            );
            for (name, _) in &c.attributes {
                line(out, depth + 1, &format!("attribute {name}"));
            }
            for part in &c.content {
                match part {
                    PlanContent::Text(t) => line(out, depth + 1, &format!("text {t:?}")),
                    PlanContent::Enclosed(e) => {
                        line(out, depth + 1, "enclosed");
                        explain_expr_in(e, depth + 2, out, ctx);
                    }
                    PlanContent::Element(child) => {
                        line(out, depth + 1, &format!("child <{}>", child.name));
                    }
                }
            }
        }
    }
}

fn explain_step_tail(
    input: Option<&PlanExpr>,
    predicates: &[PlanExpr],
    depth: usize,
    out: &mut String,
    ctx: &Render,
) {
    if let Some(input) = input {
        explain_expr_in(input, depth + 1, out, ctx);
    } else {
        line(out, depth + 1, "context-item");
    }
    for p in predicates {
        line(out, depth + 1, "predicate");
        explain_expr_in(p, depth + 2, out, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::engine::EngineOptions;
    use crate::parser::parse_query;

    fn explain_with(q: &str, options: &EngineOptions) -> String {
        let plan = compile(parse_query(q).unwrap(), options).unwrap();
        explain_plan(&plan, None)
    }

    #[test]
    fn explains_standoff_step_with_strategy() {
        let options = EngineOptions::default();
        let text = explain_with("//music/select-narrow::shot", &options);
        assert!(text.contains("select-narrow::shot"), "{text}");
        assert!(text.contains("loop-lifted StandOff MergeJoin"), "{text}");
        assert!(text.contains("element index 'shot'"), "{text}");

        let options = EngineOptions {
            strategy: standoff_core::StandoffStrategy::BasicMergeJoin,
            candidate_pushdown: false,
            ..EngineOptions::default()
        };
        let text = explain_with("//music/select-narrow::shot", &options);
        assert!(text.contains("per iteration (basic)"), "{text}");
        assert!(text.contains("full region index"), "{text}");
    }

    #[test]
    fn explains_flwor_scopes() {
        let text = explain_with(
            "for $x in (1,2) where $x > 1 order by $x return <r>{ $x }</r>",
            &EngineOptions::default(),
        );
        assert!(text.contains("opens a new iteration scope"), "{text}");
        assert!(text.contains("restricts the loop relation"), "{text}");
        assert!(text.contains("order by"), "{text}");
        assert!(text.contains("construct <r>"), "{text}");
    }

    #[test]
    fn explains_functions_and_options() {
        let text = explain_with(
            r#"declare option standoff-start "from";
               declare function f($x) { $x + 1 };
               f(1)"#,
            &EngineOptions::default(),
        );
        assert!(text.contains("standoff-start"), "{text}");
        assert!(text.contains("function f(x)"), "{text}");
        assert!(text.contains("call f(1 args)"), "{text}");
    }

    #[test]
    fn explains_pass_list_and_hoists() {
        let text = explain_with(
            r#"for $i in 1 to 10 return count(doc("d")//w)"#,
            &EngineOptions::default(),
        );
        assert!(
            text.starts_with(
                "passes: const-fold → fuse-descendant → fuse-attr-filter → hoist-invariants"
            ),
            "{text}"
        );
        assert!(text.contains("hoisted $#h0"), "{text}");
    }

    /// The analyze renderer holds each StandOff line's claim against
    /// its operator's recorded actuals: a profile in which the `count:
    /// from index` target fell back to the join and the `result:
    /// direct` result was merged moves each counter once.
    #[test]
    fn analyze_counts_the_claims_its_actuals_break() {
        let mut engine = crate::Engine::new();
        let d = r#"<d><a start="0" end="9"/><w start="0" end="4"/><w start="5" end="9"/></d>"#;
        engine.load_document("d.xml", d).unwrap();
        let step = r#"doc("d.xml")//a/select-narrow::w"#;
        let query = format!("(count({step}), {step})");
        let (_, mut profile) = engine.run_profiled(&query).unwrap();
        let broken = |engine: &crate::Engine| {
            let counters = engine.metrics().snapshot().counters;
            let count = counters["plan.claim_mismatch.count"];
            [count, counters["plan.claim_mismatch.result_merge"]]
        };
        let text = profile.render(engine.state());
        assert!(text.contains("; count: from index;"), "{text}");
        assert!(text.contains("; result: direct;"), "{text}");
        assert_eq!(broken(&engine), [0, 0], "{text}");
        for join in profile.ops.ops.values_mut().filter_map(|m| m.join.as_mut()) {
            join.stats.counts_from_index = 0;
            join.stats.result_merges = 1;
        }
        profile.render(engine.state());
        assert_eq!(broken(&engine), [1, 1]);
    }
}
