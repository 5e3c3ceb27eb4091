//! StandOff joins: the axis steps and the function form, split into
//! join units and joined — or, under a stamped `count`, counted — one
//! kernel call per answering layer.

use std::collections::HashMap;
use std::sync::Arc;

use standoff_algebra::{LlSeq, NodeTable, NodeTest, TreeAxis};
use standoff_core::join::{count_resolved, join_resolved, JoinScratch, JoinTarget, Rank, RankPick};
use standoff_core::{IterNode, RegionEntry, RegionIndex, StandoffStrategy};
use standoff_xml::{DocId, NodeKind, NodeRef};

use super::Evaluator;
use crate::engine::{answering_layers, LayerFilter};
use crate::error::QueryError;
use crate::plan::{PlanExpr, StandoffOp};
use crate::profile::JoinExec;

/// One join unit of a StandOff join: the context rows that are joined
/// together, bucketed per document (ascending; rows sorted and
/// duplicate-free, attributes standing for their owner elements). The
/// context documents of one mounted layer group form one unit and join
/// into the group's layers — the multi-layer corpus model of
/// `standoff-store`, regions share the BLOB coordinate space; any other
/// document is a unit of its own and joins within itself, and each
/// fragment of a constructor's container is one too (§3.3 fragment
/// semantics).
struct JoinUnit {
    group: Option<u32>,
    /// The pre range `[f, f + size(f)]` of the container fragment this
    /// unit is; its candidates are that range's.
    fragment: Option<(u32, u32)>,
    contexts: Vec<(DocId, Vec<IterNode>)>,
}

/// The part of the ascending `nodes` inside the pre range `[from, to]`.
fn within(nodes: &[u32], (from, to): (u32, u32)) -> &[u32] {
    let lo = nodes.partition_point(|&n| n < from);
    let hi = nodes.partition_point(|&n| n <= to);
    &nodes[lo..hi]
}

/// Where a join delivers each target layer: its `(iter, pre)`-sorted
/// run — only the rows a fused pick can take, when it has one — or, for
/// an operator stamped `count_from_index`, its rows' count per iteration
/// of the scope, added up across targets (nodes of different layers are
/// distinct).
enum JoinSink<'a> {
    Runs(
        &'a mut Vec<(DocId, Vec<IterNode>)>,
        Option<&'a mut RankPick>,
    ),
    Counts(&'a mut [u64]),
}

impl Evaluator<'_> {
    /// A StandOff axis step without its predicates — or with the first,
    /// `pick`, a pick by rank ([`super::steps::fused_rank`]) applied
    /// inside the join. The step is a join over each iteration's whole
    /// context sequence (§3.1), so a positional predicate after it counts
    /// within the iteration's join result — not per context node, as
    /// after a tree step.
    pub(super) fn standoff_step_nodes(
        &mut self,
        expr: &PlanExpr,
        input: Option<&PlanExpr>,
        op: &StandoffOp,
        test: &NodeTest,
        pick: Option<(&PlanExpr, Rank)>,
    ) -> Result<NodeTable, QueryError> {
        let ctx = self.context_nodes(input)?;
        let key = expr as *const PlanExpr as usize;
        self.eval_standoff_join(&ctx, op, test, None, key, pick)
    }

    /// The function form, `select-narrow($ctx, $candidates)` and kin
    /// (Figure 3): any element of the explicit candidates qualifies.
    pub(super) fn eval_standoff_fn(
        &mut self,
        expr: &PlanExpr,
        op: &StandoffOp,
        ctx: &PlanExpr,
        candidates: Option<&PlanExpr>,
    ) -> Result<LlSeq, QueryError> {
        let ctx_nodes = self.eval_nodes(ctx)?;
        let cands = candidates.map(|c| self.eval_nodes(c)).transpose()?;
        let out = self.eval_standoff_join(
            &ctx_nodes,
            op,
            &NodeTest::any_element(),
            cands.as_ref(),
            expr as *const PlanExpr as usize,
            None,
        )?;
        Ok(out.into_llseq())
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

    /// A StandOff operator the plan stamped `count_from_index`, as its
    /// row count per iteration of the scope — metered like the operator
    /// it stands for, so governance charges the rows it counted. `None`
    /// for any other operator.
    pub(super) fn eval_counts(&mut self, expr: &PlanExpr) -> Option<Result<Vec<u64>, QueryError>> {
        let key = expr as *const PlanExpr as usize;
        match expr {
            PlanExpr::StandoffStep { input, op, .. } if op.count_from_index => {
                Some(self.metered(expr, |ev| {
                    let ctx = ev.context_nodes(input.as_deref())?;
                    ev.count_standoff_join(&ctx, op, None, key)
                }))
            }
            PlanExpr::StandoffFn {
                op,
                ctx,
                candidates,
            } if op.count_from_index => Some(self.metered(expr, |ev| {
                let ctx_nodes = ev.eval_nodes(ctx)?;
                let cands = candidates
                    .as_deref()
                    .map(|c| ev.eval_nodes(c))
                    .transpose()?;
                ev.count_standoff_join(&ctx_nodes, op, cands.as_ref(), key)
            })),
            _ => None,
        }
    }

    /// Evaluate one StandOff join operator under the *plan-annotated*
    /// strategy and candidate pushdown — decided at plan time, not here;
    /// an explicit candidate node sequence (the built-in function form,
    /// Figure 3) overrides the name-test pushdown.
    ///
    /// Every answering layer's join returns its rows `(iter, pre)`-sorted
    /// and layers are visited in document order ([`Self::join_targets`]),
    /// so the result is one such run as it is, or a k-way merge of
    /// several ([`NodeTable::from_runs`]) — never a sort.
    ///
    /// With a `pick`, every layer keeps only the rows the pick can take
    /// ([`RankPick`]), and the pick is made once over their merge: a
    /// node two contexts select counts once, and several answering
    /// layers are ranked as one document-ordered union. The predicate
    /// is metered on the rows the join selected, and the join's scratch
    /// charge counts them as held, as when they were materialized.
    fn eval_standoff_join(
        &mut self,
        ctx: &NodeTable,
        op: &StandoffOp,
        test: &NodeTest,
        explicit_candidates: Option<&NodeTable>,
        prof_key: usize,
        pick: Option<(&PlanExpr, Rank)>,
    ) -> Result<NodeTable, QueryError> {
        let mut runs: Vec<(DocId, Vec<IterNode>)> = Vec::new();
        let mut rank_pick = pick.map(|(_, rank)| RankPick::new(rank));
        let mut sink = JoinSink::Runs(&mut runs, rank_pick.as_mut());
        let mut exec = self.join_targets(ctx, op, explicit_candidates, &mut sink)?;
        let out = NodeTable::from_runs(&runs, |row| (row.iter, row.node));
        if runs.len() > 1 {
            exec.stats.result_merges += 1;
        } else if exec.stats.result_sorts == 0 {
            exec.stats.result_sorts_elided += 1;
        }
        // The runs and the table merged from them are join memory like
        // the kernel buffers: one scratch cap covers all of it.
        if let Some(b) = &self.engine.budget {
            let (run_rows, out_rows) = match &rank_pick {
                Some(p) => (p.selected as usize, p.selected as usize),
                None => (runs.iter().map(|(_, run)| run.capacity()).sum(), out.len()),
            };
            let held = run_rows * std::mem::size_of::<IterNode>()
                + out_rows * (std::mem::size_of::<u32>() + std::mem::size_of::<NodeRef>());
            b.note_scratch(self.engine.join_scratch.approx_bytes() + held as u64)?;
        }
        let picked = pick.zip(rank_pick).map(|((predicate, rank), p)| {
            let (iters, nodes, selected) = (out.iters(), out.nodes(), p.selected as usize);
            let make = NodeTable::from_columns;
            let kept = self.pick_by_rank(predicate, rank, selected, iters, nodes, make);
            let rows = kept.as_ref().map_or(0, |t| t.len() as u64);
            exec.picked = Some((p.selected, rows));
            kept
        });
        self.record_join(op, exec, prof_key);
        if let Some(kept) = picked {
            return kept;
        }
        // Post-filter with the node test — unless the plan proved the
        // test is guaranteed by the join itself (pushed-down name test,
        // kind-only test over element output): then the §3.2 trailing
        // `/self::name` step is pure overhead and is elided. The
        // unoptimized reference plan never sets the flag and keeps
        // the literal trailing step.
        if op.test_guaranteed {
            return Ok(out);
        }
        Ok(standoff_algebra::staircase::ll_step(
            &self.engine.store,
            &out,
            TreeAxis::SelfAxis,
            test,
        )?)
    }

    /// [`Self::eval_standoff_join`] for an operator stamped
    /// `count_from_index`: per iteration of the scope, how many rows the
    /// join would return. No rows are assembled, so neither a result
    /// merge nor an elided sort is counted.
    fn count_standoff_join(
        &mut self,
        ctx: &NodeTable,
        op: &StandoffOp,
        explicit_candidates: Option<&NodeTable>,
        prof_key: usize,
    ) -> Result<Vec<u64>, QueryError> {
        let mut counts = vec![0u64; self.n_iters() as usize];
        let exec = self.join_targets(
            ctx,
            op,
            explicit_candidates,
            &mut JoinSink::Counts(&mut counts),
        )?;
        if let Some(b) = &self.engine.budget {
            let held = counts.capacity() * std::mem::size_of::<u64>();
            b.note_scratch(self.engine.join_scratch.approx_bytes() + held as u64)?;
        }
        self.record_join(op, exec, prof_key);
        Ok(counts)
    }

    /// Split the context into join units ([`JoinUnit`]). Per unit, the
    /// context rows of all its documents are resolved to region entries
    /// and sorted once, then joined in one kernel call into each layer
    /// that can answer the step ([`answering_layers`]), delivering into
    /// `sink`. Returns what the join did, for [`Self::record_join`].
    fn join_targets(
        &mut self,
        ctx: &NodeTable,
        op: &StandoffOp,
        explicit_candidates: Option<&NodeTable>,
        sink: &mut JoinSink<'_>,
    ) -> Result<JoinExec, QueryError> {
        let units = self.join_units(ctx)?;
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
        // Governance handle for the posting derivations and the merge
        // kernels, so a deadline or cancellation interrupts the join
        // mid-kernel.
        scratch.set_budget(self.engine.budget.clone());
        let joined = units.iter().try_for_each(|unit| {
            self.join_unit(
                unit,
                op,
                cand_buckets.as_ref(),
                &mut scratch,
                &mut exec,
                sink,
            )
        });
        // Fold the join counters accumulated inside the join calls into
        // this operator's stat delta before the scratch goes back — on
        // *every* exit, error paths included: an index build failure
        // must not silently drop the session's warmed buffer set.
        exec.stats.merge(scratch.take_stats());
        self.engine.join_scratch = scratch;
        joined?;
        Ok(exec)
    }

    /// The single fold point of one join's counters: the registry's
    /// `join.*` counters and — when profiling — the operator's
    /// [`JoinExec`] detail.
    fn record_join(&mut self, op: &StandoffOp, mut exec: JoinExec, prof_key: usize) {
        if op.test_guaranteed {
            exec.stats.post_filters_elided += 1;
        } else {
            exec.stats.post_filters += 1;
        }
        self.engine.handles.record_join(&exec.stats);
        if let Some(p) = self.profile.as_deref_mut() {
            p.op_mut(prof_key)
                .join
                .get_or_insert_with(JoinExec::default)
                .merge(&exec);
        }
    }

    /// Split a join's context into its [`JoinUnit`]s, ascending by
    /// document.
    fn join_units(&self, ctx: &NodeTable) -> Result<Vec<JoinUnit>, QueryError> {
        // Rows arrive grouped by iteration and, within one, by document:
        // remembering the last bucket makes the map lookup per run of
        // rows, not per row.
        let mut buckets: Vec<(DocId, Vec<IterNode>)> = Vec::new();
        let mut slots: HashMap<DocId, usize> = HashMap::new();
        let mut last = 0;
        for (&iter, node) in ctx.iters().iter().zip(ctx.nodes()) {
            // Only element nodes can be area-annotations; other context
            // nodes still pin their fragment for the reject domain, an
            // attribute through its owner element.
            let pre = match node.id.pre() {
                Some(p) => p,
                None => self.engine.store.doc(node.doc).owner_pre(node.id)?,
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
            let d = self.engine.store.doc(doc);
            if d.is_container() {
                // One unit per fragment, in pre order.
                let mut parts: Vec<(u32, Vec<IterNode>)> = Vec::new();
                for row in rows {
                    let root = d.fragment_root(row.node);
                    match parts.binary_search_by_key(&root, |(f, _)| *f) {
                        Ok(k) => parts[k].1.push(row),
                        Err(k) => parts.insert(k, (root, vec![row])),
                    }
                }
                units.extend(parts.into_iter().map(|(root, rows)| JoinUnit {
                    group: None,
                    fragment: Some((root, d.fragment_end(root))),
                    contexts: vec![(doc, rows)],
                }));
                continue;
            }
            let group = self.engine.layer_group_id(doc);
            // A mount registers its layers back to back, so the
            // documents of one group are neighbours here.
            match units.last_mut() {
                Some(unit) if group.is_some() && unit.group == group => {
                    unit.contexts.push((doc, rows))
                }
                _ => units.push(JoinUnit {
                    group,
                    fragment: None,
                    contexts: vec![(doc, rows)],
                }),
            }
        }
        Ok(units)
    }

    /// The posting entries that are `unit`'s resolved context, with its
    /// one iteration, when the context is one iteration of exactly one
    /// name's elements in one document outside a constructed fragment,
    /// and `index`, that document's, has no multi-region annotation:
    /// then the posting holds the context's regions in start order, one
    /// per node, and the node-view probes and the sort of
    /// [`JoinScratch::resolve_context`] are skipped. The name is the
    /// first row's; the check is a length and a compare per row.
    fn whole_name_context<'i>(
        &self,
        unit: &JoinUnit,
        index: &'i RegionIndex,
    ) -> Result<Option<(u32, &'i [RegionEntry])>, QueryError> {
        let [(doc, rows)] = &unit.contexts[..] else {
            return Ok(None);
        };
        let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
            return Ok(None);
        };
        if unit.fragment.is_some() || first.iter != last.iter || index.max_regions() > 1 {
            return Ok(None);
        }
        let doc = self.engine.store.doc(*doc);
        if doc.kind(first.node) != NodeKind::Element {
            return Ok(None);
        }
        let name = doc.name_id(first.node);
        let nodes = doc.element_postings(name);
        if nodes.len() != rows.len() || !rows.iter().zip(nodes).all(|(r, &n)| r.node == n) {
            return Ok(None);
        }
        let posting = index.posting(doc, name, self.engine.budget.as_ref())?;
        Ok(posting.map(|p| (first.iter, p.table.entries)))
    }

    /// Join one unit: resolve its context once, then one kernel call per
    /// answering layer, each delivering into `sink`.
    fn join_unit(
        &mut self,
        unit: &JoinUnit,
        op: &StandoffOp,
        cand_buckets: Option<&HashMap<DocId, Vec<u32>>>,
        scratch: &mut JoinScratch,
        exec: &mut JoinExec,
        sink: &mut JoinSink<'_>,
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
        // One resolution serves every target, rows and counts alike.
        match self.whole_name_context(unit, &ctx_indexes[0])? {
            Some((iter, entries)) => scratch.context_from_posting(iter, entries),
            None => {
                let contexts = unit.contexts.iter().zip(&ctx_indexes);
                scratch.resolve_context(contexts.map(|((_, rows), index)| (&**index, &rows[..])))
            }
        }
        // The rejects complement over every iteration of the unit.
        let mut iter_domain: Vec<u32> = Vec::new();
        if !op.axis.is_select() {
            for (_, rows) in &unit.contexts {
                iter_domain.extend(rows.iter().map(|row| row.iter));
            }
            iter_domain.sort_unstable();
            iter_domain.dedup();
        }
        // Only the merge joins read candidate entries; the nested loops
        // walk the candidate nodes.
        let merge = matches!(
            op.strategy,
            StandoffStrategy::BasicMergeJoin | StandoffStrategy::LoopLiftedMergeJoin
        );
        for (&target, index) in targets.iter().zip(&target_indexes) {
            let doc = engine.store.doc(target);
            // Candidate restriction: explicit sequence, or the plan's
            // name-test pushdown through the element index (§4.3) —
            // always against the *target* layer's document, whose index
            // keeps the name's posting. The element index is borrowed
            // as-is: builder-produced indexes are strictly ascending by
            // construction and snapshot-loaded ones are validated when
            // mounted. A container fragment's candidates are the slice
            // of its pre range, read through the node view: a posting
            // holds every fragment's entries.
            let (candidates, posting) = match (cand_buckets, op.pushdown.as_deref()) {
                (Some(buckets), _) => (
                    Some(buckets.get(&target).map_or(&[][..], Vec::as_slice)),
                    None,
                ),
                (None, Some(name)) => {
                    let id = doc.names().get(name);
                    let nodes = id.map_or(&[][..], |id| doc.element_postings(id));
                    let posting = match id {
                        Some(id) if merge && !nodes.is_empty() && unit.fragment.is_none() => {
                            index.posting(doc, id, engine.budget.as_ref())?
                        }
                        _ => None,
                    };
                    (Some(nodes), posting)
                }
                (None, None) => (None, None),
            };
            let candidates = match unit.fragment {
                Some(range) => Some(within(candidates.unwrap_or(index.annotated_nodes()), range)),
                None => candidates,
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
                posting,
                iter_domain: &iter_domain,
            };
            match sink {
                JoinSink::Runs(runs, pick) => {
                    let pick = pick.as_deref_mut();
                    let run = join_resolved(op.axis, op.strategy, &input, pick, None, scratch);
                    runs.push((target, run));
                }
                JoinSink::Counts(counts) => {
                    if count_resolved(op.axis, &input, scratch, counts) {
                        exec.stats.counts_from_index += 1;
                    }
                }
            }
        }
        Ok(())
    }
}
