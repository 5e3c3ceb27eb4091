//! The four StandOff joins and their evaluation strategies (paper §3–§4).
//!
//! All strategies implement the same semantics (§3.1):
//!
//! * `select-narrow(S1, S2)` — containment semi-join: annotations of `S2`
//!   contained in *some* annotation of `S1`;
//! * `select-wide(S1, S2)` — overlap semi-join;
//! * `reject-narrow(S1, S2)` — containment anti-join (complement of
//!   `select-narrow` within `S2`);
//! * `reject-wide(S1, S2)` — overlap anti-join.
//!
//! Like XPath steps, each returns a duplicate-free node sequence in
//! document order, per iteration of the enclosing for-loop scope.
//!
//! The strategies correspond to the paper's implementation alternatives:
//!
//! | [`StandoffStrategy`]     | Paper                                  | Cost shape |
//! |--------------------------|----------------------------------------|------------|
//! | `NaiveNoCandidates`      | §3.2 Alt. 1 (UDF over `root($q)//*`)   | O(|S1|·|doc|) per iteration |
//! | `NaiveWithCandidates`    | §3.2 Alt. 2 / Figure 3                 | O(|S1|·|S2|) per iteration |
//! | `BasicMergeJoin`         | §4.4                                   | one index scan **per iteration** |
//! | `LoopLiftedMergeJoin`    | §4.5 / Listing 1                       | one index scan **total** |
//!
//! A join runs in two phases. The *context* is resolved first, once:
//! [`JoinScratch::resolve_context`] looks every context node's regions
//! up and start-sorts them into the scratch's context table, for a
//! whole *join unit* of the query engine, whose context may span several
//! layers of one corpus; a unit whose context is one iteration of
//! exactly one name's elements reads the table from that name's posting
//! instead ([`JoinScratch::context_from_posting`]). Then each
//! [`JoinTarget`] — the candidate side: one layer's document, region
//! index and candidate restriction — is joined against that table by
//! [`join_resolved`], as many targets as the unit has, without the
//! context being looked up or sorted again. A consumer that only counts
//! the rows — `count`, `exists`, `empty` under loop-lifting — calls
//! [`count_resolved`] instead, which adds per-iteration counts from the
//! index without producing rows.
//!
//! The merge joins read their candidate entries through one path,
//! [`JoinTarget::candidate_entries_in`], over a *reach* of the target's
//! start-clustered [`Table`]: the loop-lifted `select-narrow` (and the
//! select half of `reject-narrow`) reads only the entries starting
//! inside its context's extent ([`Table::reach`]), the loop-lifted
//! overlap axes that extent widened left by the table's largest entry
//! extent ([`Table::wide_reach`]), and the basic strategy the whole
//! table. A pushed name's table is its posting
//! ([`RegionIndex::posting`]), so its reach holds only candidates and is
//! borrowed as it is; so is the index's own table when nothing restricts
//! it. Only an explicit candidate sequence is intersected per join,
//! through the node view. Every mechanism counter, here and in the query
//! engine above, is a field of the one [`JoinStats`] declaration.

mod count;
pub mod merge;
pub mod naive;
pub mod post;
mod stats;

pub use post::{Rank, RankPick};
pub use stats::{JoinCounter, JoinStats};

use std::ops::Range;

use standoff_xml::Document;

use crate::budget::Budget;
use crate::index::{Keys, Posting, RegionEntry, RegionIndex, Table, KEY_BLOCK};
use crate::trace::TraceSink;

/// The four StandOff joins, proposed as XPath axis steps (§3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StandoffAxis {
    SelectNarrow,
    SelectWide,
    RejectNarrow,
    RejectWide,
}

impl StandoffAxis {
    pub const ALL: [StandoffAxis; 4] = [
        StandoffAxis::SelectNarrow,
        StandoffAxis::SelectWide,
        StandoffAxis::RejectNarrow,
        StandoffAxis::RejectWide,
    ];

    /// The axis-step name as it appears in queries.
    pub fn as_str(self) -> &'static str {
        match self {
            StandoffAxis::SelectNarrow => "select-narrow",
            StandoffAxis::SelectWide => "select-wide",
            StandoffAxis::RejectNarrow => "reject-narrow",
            StandoffAxis::RejectWide => "reject-wide",
        }
    }

    /// Parse an axis-step name.
    pub fn parse(s: &str) -> Option<StandoffAxis> {
        Some(match s {
            "select-narrow" => StandoffAxis::SelectNarrow,
            "select-wide" => StandoffAxis::SelectWide,
            "reject-narrow" => StandoffAxis::RejectNarrow,
            "reject-wide" => StandoffAxis::RejectWide,
            _ => return None,
        })
    }

    /// Is this a semi-join (`select-*`) rather than an anti-join?
    pub fn is_select(self) -> bool {
        matches!(self, StandoffAxis::SelectNarrow | StandoffAxis::SelectWide)
    }

    /// Does this axis use containment (`*-narrow`) rather than overlap?
    pub fn is_narrow(self) -> bool {
        matches!(
            self,
            StandoffAxis::SelectNarrow | StandoffAxis::RejectNarrow
        )
    }

    /// The select axis whose complement this reject axis is (identity for
    /// selects).
    pub fn select_counterpart(self) -> StandoffAxis {
        match self {
            StandoffAxis::RejectNarrow => StandoffAxis::SelectNarrow,
            StandoffAxis::RejectWide => StandoffAxis::SelectWide,
            s => s,
        }
    }
}

impl std::fmt::Display for StandoffAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Evaluation strategy for a StandOff join.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StandoffStrategy {
    /// Quadratic nested loop against *all* document elements — the
    /// XQuery-function baseline without a candidate sequence (Figure 2).
    NaiveNoCandidates,
    /// Quadratic nested loop against the candidate sequence (Figure 3).
    NaiveWithCandidates,
    /// Basic StandOff MergeJoin (§4.4): merge join per iteration —
    /// re-scans the candidate sequence once per for-loop iteration.
    BasicMergeJoin,
    /// Loop-lifted StandOff MergeJoin (§4.5, Listing 1): all iterations
    /// in a single scan.
    LoopLiftedMergeJoin,
}

impl StandoffStrategy {
    pub const ALL: [StandoffStrategy; 4] = [
        StandoffStrategy::NaiveNoCandidates,
        StandoffStrategy::NaiveWithCandidates,
        StandoffStrategy::BasicMergeJoin,
        StandoffStrategy::LoopLiftedMergeJoin,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            StandoffStrategy::NaiveNoCandidates => "naive",
            StandoffStrategy::NaiveWithCandidates => "naive-candidates",
            StandoffStrategy::BasicMergeJoin => "basic-mergejoin",
            StandoffStrategy::LoopLiftedMergeJoin => "loop-lifted-mergejoin",
        }
    }

    pub fn parse(s: &str) -> Option<StandoffStrategy> {
        Some(match s {
            "naive" => StandoffStrategy::NaiveNoCandidates,
            "naive-candidates" => StandoffStrategy::NaiveWithCandidates,
            "basic-mergejoin" | "basic" => StandoffStrategy::BasicMergeJoin,
            "loop-lifted-mergejoin" | "loop-lifted" | "ll" => StandoffStrategy::LoopLiftedMergeJoin,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StandoffStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A `(iteration, node)` pair — the join's input and output unit. `node`
/// is a pre-order rank in the join's document fragment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct IterNode {
    pub iter: u32,
    pub node: u32,
}

/// A context region row fed to the merge joins: the paper's
/// `iter|start|end` context table (§4.5) plus the annotation node id
/// needed for multi-region (∀∃) post-processing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CtxEntry {
    pub iter: u32,
    pub node: u32,
    pub start: i64,
    pub end: i64,
}

/// A raw match produced by a merge join before post-processing: candidate
/// entry `cand_idx` (an index into the candidate [`RegionEntry`] slice)
/// matched context annotation `ctx_node` in iteration `iter`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Emission {
    pub iter: u32,
    pub ctx_node: u32,
    pub cand_idx: u32,
}

/// The candidate side of a StandOff join: one document fragment whose
/// annotations the join emits. A join unit of the query engine has one
/// per layer that can answer the step, all joined against the same
/// resolved context ([`join_resolved`]).
///
/// The paper first partitions the context sequence per XML fragment and
/// runs the join fragment by fragment (§4.4); the query engine performs
/// that partitioning, resolves each unit's context once
/// ([`JoinScratch::resolve_context`]) and joins it into one target per
/// answering layer.
#[derive(Clone, Copy)]
pub struct JoinTarget<'a> {
    /// The *candidate-side* document: StandOff steps emit nodes of this
    /// fragment.
    pub doc: &'a Document,
    /// The candidate-side region index. The context's areas may come
    /// from another index of the same BLOB (a sibling layer of
    /// `standoff-store`): regions share the coordinate space, so the
    /// merge joins run unchanged.
    pub index: &'a RegionIndex,
    /// Candidate node pre ranks (ascending), produced by a pushed-down
    /// selection such as an element name test; `None` means "no
    /// restriction" — every annotation in the index is a candidate.
    pub candidates: Option<&'a [u32]>,
    /// The entries of `candidates` when they are a pushed name's
    /// elements: the name's posting ([`RegionIndex::posting`]). `None`
    /// for an explicit candidate sequence, which is intersected with the
    /// index per join.
    pub posting: Option<Posting<'a>>,
    /// All iterations of the scope, ascending. Required by the reject
    /// axes: an iteration whose context selects nothing must still reject
    /// *all* candidates.
    pub iter_domain: &'a [u32],
}

impl<'a> JoinTarget<'a> {
    /// The start-clustered table the join reads its reach of: the
    /// posting, or the whole index.
    #[inline]
    pub fn table(&self) -> Table<'a> {
        self.posting.map_or(self.index.table(), |p| p.table)
    }

    /// The candidate entries inside `reach`, a range of
    /// [`JoinTarget::table`], in start order: the table's own slice,
    /// borrowed, unless an explicit candidate sequence that is not every
    /// annotated node restricts it — then gathered through the node view
    /// into `buf`. Counts the derivation and its reach in `stats`.
    pub fn candidate_entries_in<'s>(
        &'s self,
        reach: Range<usize>,
        stats: &mut JoinStats,
        buf: &'s mut Vec<RegionEntry>,
    ) -> &'s [RegionEntry]
    where
        'a: 's,
    {
        if self.gather_in(reach.clone(), stats, buf) {
            buf
        } else {
            &self.table().entries[reach]
        }
    }

    /// Derive the candidate entries inside `reach` as
    /// [`JoinTarget::candidate_entries_in`] does: `true` when they were
    /// gathered into `buf`, `false` when they are the table's own slice.
    fn gather_in(
        &self,
        reach: Range<usize>,
        stats: &mut JoinStats,
        buf: &mut Vec<RegionEntry>,
    ) -> bool {
        stats.candidate_reach_entries += reach.len() as u64;
        match (self.posting, self.candidates) {
            (Some(p), _) if !p.covering => stats.candidate_posting += 1,
            (None, Some(nodes)) if !self.index.covers(nodes) => {
                stats.candidate_node_view += 1;
                self.index.gather_candidates(nodes, reach, buf);
                return true;
            }
            _ => stats.candidate_borrowed += 1,
        }
        false
    }

    /// The distinct candidate *annotation* nodes, ascending — the
    /// universe the reject axes complement against. No candidate
    /// restriction returns the index's annotated-node column, and a
    /// posting whose elements are all annotated the elements themselves.
    pub fn candidate_universe_in<'s>(&'s self, scratch: &'s mut Vec<u32>) -> &'s [u32]
    where
        'a: 's,
    {
        match (self.candidates, self.posting) {
            (None, _) => self.index.annotated_nodes(),
            (Some(nodes), Some(p)) if p.annotated == nodes.len() => nodes,
            (Some(nodes), _) => {
                scratch.clear();
                scratch.extend(
                    nodes
                        .iter()
                        .copied()
                        .filter(|&n| self.index.region_count(n) > 0),
                );
                scratch
            }
        }
    }

    /// An explicitly empty candidate sequence: no axis can emit
    /// anything (the rejects complement within the candidates).
    #[inline]
    fn has_no_candidates(&self) -> bool {
        self.candidates.is_some_and(<[u32]>::is_empty)
    }
}

/// Reusable buffer set for the StandOff join hot path: context and
/// candidate materializations, raw emissions, and the merge kernels'
/// active lists. Owned by the long-lived executor (the query engine's
/// session) so one allocation set serves every operator of every query
/// it runs; a fresh default works identically, just colder.
#[derive(Debug, Default)]
pub struct JoinScratch {
    ctx: Vec<CtxEntry>,
    /// The resolved context's extent: its first start and largest end.
    extent: (i64, i64),
    cands: Vec<RegionEntry>,
    /// The keys a count sweep derives for `cands` or a short reach.
    cand_keys: Keys,
    emissions: Vec<Emission>,
    iters: Vec<u32>,
    /// A second context table: the sort's gather target, or a
    /// per-iteration view of the context.
    single: Vec<CtxEntry>,
    /// The context sort's radix keys, and their other half.
    keys: [Vec<u64>; 2],
    /// Bucket bounds of a counting pass on `iter`.
    buckets: Vec<u32>,
    universe: Vec<u32>,
    /// Per-iteration select counts of [`count_resolved`].
    selected: Vec<(u32, u64)>,
    merge: merge::MergeScratch,
    /// The counters every join accumulates until the executor takes
    /// them.
    stats: JoinStats,
    /// Cooperative evaluation budget, polled by the kernels.
    budget: Option<Budget>,
}

impl JoinScratch {
    /// Resolve a join's context into the scratch's context table, once
    /// for every target it is then joined into ([`join_resolved`]): the
    /// regions of every `(iter, node)` row of every part — a part is
    /// one fragment's rows with the index its areas are looked up in,
    /// each row in one probe of its node view
    /// ([`RegionIndex::regions_of`]) — sorted by start (the
    /// context-preparation step of §4.4), and its extent — first start,
    /// largest end — noted for the loop-lifted joins' reach. Rows that are not area-annotations contribute
    /// nothing.
    ///
    /// A context annotation is identified by the *ordinal of its row*
    /// across all parts, not by its pre rank: two layers of one corpus
    /// reuse the same pre ranks, and `select-narrow`'s ∀∃ attribution
    /// over multi-region areas keys on that identity.
    ///
    /// A context that is one iteration of exactly one name's elements
    /// needs neither the probes nor the sort: it is resolved from the
    /// name's posting ([`JoinScratch::context_from_posting`]).
    pub fn resolve_context<'a>(
        &mut self,
        parts: impl IntoIterator<Item = (&'a RegionIndex, &'a [IterNode])>,
    ) {
        self.ctx.clear();
        let mut first = 0u32;
        for (index, rows) in parts {
            self.ctx.reserve(rows.len());
            for (k, &IterNode { iter, node }) in rows.iter().enumerate() {
                for r in index.regions_of(node) {
                    self.ctx.push(CtxEntry {
                        iter,
                        node: first + k as u32,
                        start: r.start,
                        end: r.end,
                    });
                }
            }
            first += rows.len() as u32;
        }
        sort_context(&mut self.ctx, &mut self.single, &mut self.keys);
        self.note_extent();
    }

    /// Resolve a join's context from a posting ([`RegionIndex::posting`]):
    /// `entries`, in their `(start, end, id)` order, as the rows of one
    /// iteration `iter`, each identified by its pre rank. That is what
    /// [`JoinScratch::resolve_context`] makes of one document's rows of
    /// one iteration that are exactly the posting's elements — the same
    /// rows in the same order, a row's rank standing for its ordinal —
    /// read in one pass, without a node-view probe or a sort. Counted as
    /// `context_posting`.
    pub fn context_from_posting(&mut self, iter: u32, entries: &[RegionEntry]) {
        self.ctx.clear();
        self.ctx.extend(entries.iter().map(|e| CtxEntry {
            iter,
            node: e.id,
            start: e.start,
            end: e.end,
        }));
        self.stats.context_posting += 1;
        self.note_extent();
    }

    /// Note the extent of the context just resolved, which every join
    /// of it reads.
    fn note_extent(&mut self) {
        let to = self.ctx.iter().map(|c| c.end).max();
        self.extent = (self.ctx.first().map_or(0, |c| c.start), to.unwrap_or(-1));
    }

    /// Install (or clear) the governance handle polled by the merge
    /// kernels. The engine sets this per query; `None` restores the
    /// ungoverned fast path (a hoisted null test per loop round).
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget.clone();
        self.merge.budget = budget;
    }

    /// Approximate bytes pinned by the join buffers — the number charged
    /// against a query's scratch-memory cap after each join. Capacities,
    /// not lengths: what the allocator actually holds. Postings are not
    /// among them: they belong to the index and outlive the request.
    pub fn approx_bytes(&self) -> u64 {
        (self.ctx.capacity() * std::mem::size_of::<CtxEntry>()
            + self.cands.capacity() * std::mem::size_of::<RegionEntry>()
            + self.emissions.capacity() * std::mem::size_of::<Emission>()
            + self.single.capacity() * std::mem::size_of::<CtxEntry>()
            + (self.iters.capacity() + self.buckets.capacity() + self.universe.capacity())
                * std::mem::size_of::<u32>()
            + self.selected.capacity() * std::mem::size_of::<(u32, u64)>()
            + (self.keys[0].capacity() + self.keys[1].capacity()) * std::mem::size_of::<u64>())
            as u64
            + self.cand_keys.capacity_bytes()
    }

    /// Take the counters accumulated since the last take, leaving zeros
    /// behind.
    pub fn take_stats(&mut self) -> JoinStats {
        self.stats.take_delta()
    }
}

/// Bits of `start` one pass of [`sort_context`] orders on.
const RADIX_BITS: u32 = 11;

/// Fewest rows [`sort_context`] radix-sorts: below it, zeroing and
/// summing the passes' 2 048-bucket histograms costs more than a
/// comparison sort.
const RADIX_MIN_ROWS: usize = 256;

/// Sort a context table on `(start, end, iter, node)`. Rows out of
/// start order take a stable LSD radix sort of `(start − first start,
/// row)` keys, [`RADIX_BITS`] a pass over the bits the starts' span
/// needs, and one gather of the rows in key order through `tmp`; then
/// each run of equal starts — its rows in the order they were resolved
/// — is ordered on the rest of the key. Fewer than [`RADIX_MIN_ROWS`]
/// rows, or a span of 2³² or more, take a comparison sort.
fn sort_context(ctx: &mut Vec<CtxEntry>, tmp: &mut Vec<CtxEntry>, keys: &mut [Vec<u64>; 2]) {
    if !ctx.is_sorted_by_key(|c| c.start) {
        let min = ctx.iter().map(|c| c.start).min().unwrap_or(0);
        let span = ctx.iter().map(|c| c.start.wrapping_sub(min) as u64).max();
        let span = span.unwrap_or(0);
        if ctx.len() < RADIX_MIN_ROWS || span >> 32 != 0 || ctx.len() > u32::MAX as usize {
            ctx.sort_unstable_by_key(|c| (c.start, c.end, c.iter, c.node));
            return;
        }
        let [keys, spare] = keys;
        keys.clear();
        keys.extend(
            (ctx.iter().enumerate())
                .map(|(row, c)| (c.start.wrapping_sub(min) as u64) << 32 | row as u64),
        );
        let digit = |key: u64, shift: u32| (key >> shift & ((1 << RADIX_BITS) - 1)) as usize;
        let mut shift = 32;
        while shift < u64::BITS && span >> (shift - 32) != 0 {
            let mut offsets = [0u32; (1 << RADIX_BITS) + 1];
            for &key in keys.iter() {
                offsets[digit(key, shift) + 1] += 1;
            }
            for k in 1..offsets.len() {
                offsets[k] += offsets[k - 1];
            }
            spare.clear();
            spare.resize(keys.len(), 0);
            for &key in keys.iter() {
                let slot = &mut offsets[digit(key, shift)];
                spare[*slot as usize] = key;
                *slot += 1;
            }
            std::mem::swap(keys, spare);
            shift += RADIX_BITS;
        }
        tmp.clear();
        tmp.extend(keys.iter().map(|&key| ctx[key as u32 as usize]));
        std::mem::swap(ctx, tmp);
    }
    for run in ctx.chunk_by_mut(|a, b| a.start == b.start) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|c| (c.end, c.iter, c.node));
        }
    }
}

impl Clone for JoinScratch {
    /// Scratch state is semantically empty between joins; cloning (e.g.
    /// when a session is stamped out from a shared engine) starts the
    /// clone cold instead of copying dead buffer contents.
    fn clone(&self) -> Self {
        JoinScratch::default()
    }
}

/// Join the context last resolved into `scratch`
/// ([`JoinScratch::resolve_context`]) against one target. Returns
/// `(iter, node)` pairs of the target's fragment sorted by
/// `(iter, node)` — duplicate-free and in document order per
/// iteration, as required of an XPath step — or, with a `pick`,
/// only its rank candidates of them, the rows selected counted in it
/// ([`RankPick`]). A merge join's select axis picks while it
/// post-processes its emissions ([`post::finalize_select`]); the nested
/// loops and the reject axes pick from their finished result.
pub fn join_resolved(
    axis: StandoffAxis,
    strategy: StandoffStrategy,
    target: &JoinTarget<'_>,
    mut pick: Option<&mut RankPick>,
    trace: Option<&mut dyn TraceSink>,
    scratch: &mut JoinScratch,
) -> Vec<IterNode> {
    if target.has_no_candidates() {
        return Vec::new();
    }
    // The pick a select merge join applies to its emissions.
    let mut in_post = if axis.is_select() { pick.take() } else { None };
    // All four axes share one selection core; rejects complement it.
    let select_axis = axis.select_counterpart();
    let budget = scratch.budget.clone();
    // Multi-region containment (∀∃) must attribute every match to a
    // specific context annotation; see merge.rs.
    let per_annotation = select_axis.is_narrow() && target.index.max_regions() > 1;
    let selected: Vec<IterNode> = match strategy {
        _ if scratch.ctx.is_empty() => Vec::new(),
        StandoffStrategy::NaiveNoCandidates | StandoffStrategy::NaiveWithCandidates => {
            naive::naive_select(
                select_axis,
                &scratch.ctx,
                target,
                strategy == StandoffStrategy::NaiveWithCandidates,
                budget.as_ref(),
                &mut scratch.stats,
            )
        }
        StandoffStrategy::BasicMergeJoin => {
            // §4.4/§4.6: the basic algorithm is invoked once per
            // iteration, and every invocation re-reads its candidate
            // sequence in full — the "repeated full scans of the region
            // index" that make XMark Q2 blow up.
            let whole = 0..target.table().entries.len();
            scratch.iters.clear();
            scratch.iters.extend(scratch.ctx.iter().map(|c| c.iter));
            scratch.iters.sort_unstable();
            scratch.iters.dedup();
            scratch.emissions.clear();
            for &iter in &scratch.iters {
                // Per-iteration chokepoint: the basic strategy's repeated
                // scans are exactly where a deadline must be able to cut
                // in between kernel invocations.
                if budget.as_ref().is_some_and(|b| b.check().is_err()) {
                    break;
                }
                // Re-derived per iteration, over the whole table — the
                // strategy's modeled cost.
                let cands = target.candidate_entries_in(
                    whole.clone(),
                    &mut scratch.stats,
                    &mut scratch.cands,
                );
                scratch.single.clear();
                scratch.single.extend(
                    scratch
                        .ctx
                        .iter()
                        .filter(|c| c.iter == iter)
                        .map(|c| CtxEntry { iter: 0, ..*c }),
                );
                let from = scratch.emissions.len();
                match select_axis {
                    StandoffAxis::SelectNarrow => merge::ll_select_narrow_into(
                        &scratch.single,
                        cands,
                        per_annotation,
                        None,
                        &mut scratch.merge,
                        &mut scratch.emissions,
                    ),
                    _ => merge::ll_select_wide_into(
                        &scratch.single,
                        cands,
                        &mut scratch.merge,
                        &mut scratch.emissions,
                    ),
                }
                for e in &mut scratch.emissions[from..] {
                    e.iter = iter;
                }
            }
            let cands = target.candidate_entries_in(whole, &mut scratch.stats, &mut scratch.cands);
            let (emissions, index, stats) = (&scratch.emissions, target.index, &mut scratch.stats);
            post::finalize_select(select_axis, emissions, cands, index, in_post.take(), stats)
        }
        StandoffStrategy::LoopLiftedMergeJoin => {
            // A region contained in some context region starts inside the
            // context's extent, one overlapping it at most the table's
            // largest extent before: each join reads only that reach of
            // the table.
            let reach = reach_of(select_axis, target, scratch.extent);
            let cands = target.candidate_entries_in(reach, &mut scratch.stats, &mut scratch.cands);
            scratch.emissions.clear();
            match select_axis {
                StandoffAxis::SelectNarrow => merge::ll_select_narrow_into(
                    &scratch.ctx,
                    cands,
                    per_annotation,
                    trace,
                    &mut scratch.merge,
                    &mut scratch.emissions,
                ),
                _ => merge::ll_select_wide_into(
                    &scratch.ctx,
                    cands,
                    &mut scratch.merge,
                    &mut scratch.emissions,
                ),
            }
            let (emissions, index, stats) = (&scratch.emissions, target.index, &mut scratch.stats);
            post::finalize_select(select_axis, emissions, cands, index, in_post.take(), stats)
        }
    };
    // The merge kernels count their branch-free emission blocks in the
    // merge scratch; fold them into the join counters.
    scratch.stats.candidate_dense_blocks += scratch.merge.take_blocks();
    // Charge what the join buffers now pin against any scratch-memory
    // cap. A trip is recorded in the budget flag; the evaluator's next
    // check surfaces it, so the partial result below is never emitted.
    if let Some(b) = &budget {
        let _ = b.note_scratch(scratch.approx_bytes());
    }
    let rows = finish(axis, selected, target, &mut scratch.universe);
    post::keep_picked(in_post.or(pick), rows)
}

/// Count, per iteration, the rows the loop-lifted [`join_resolved`]
/// returns for one target, adding each iteration's count to
/// `counts[iter]` (`counts` spans every iteration of the scope).
///
/// When every candidate annotation is one region, the rows are never
/// produced: the candidates are derived as the join derives them, over
/// the same reach, and counted by interval arithmetic on the
/// start-clustered table (`count.rs`); a reject axis counts its
/// iteration's candidate universe minus the select count. The sweep
/// takes the context one iteration at a time: a scope of one iteration
/// is read in place, one of several is grouped on iteration. Returns
/// `true` then. A target with multi-region annotations runs the join
/// and counts its rows, returning `false`. A tripped budget leaves the
/// counts partial, as the join leaves its rows; the caller surfaces it.
pub fn count_resolved(
    axis: StandoffAxis,
    target: &JoinTarget<'_>,
    scratch: &mut JoinScratch,
    counts: &mut [u64],
) -> bool {
    if target.index.max_regions() > 1 {
        let strategy = StandoffStrategy::LoopLiftedMergeJoin;
        for row in join_resolved(axis, strategy, target, None, None, scratch) {
            counts[row.iter as usize] += 1;
        }
        return false;
    }
    if target.has_no_candidates() {
        return true;
    }
    let select_axis = axis.select_counterpart();
    let budget = scratch.budget.clone();
    let mut selected = std::mem::take(&mut scratch.selected);
    selected.clear();
    if !scratch.ctx.is_empty() {
        let table = target.table();
        let reach = reach_of(select_axis, target, scratch.extent);
        // The sweep reads keys: the table's own over a long reach, or
        // keys derived into the scratch for a gathered buffer or a
        // short reach, so a point context derives nothing.
        let gathered = target.gather_in(reach.clone(), &mut scratch.stats, &mut scratch.cands);
        let candidates = if gathered || reach.len() <= KEY_BLOCK {
            let rows = if gathered {
                &scratch.cands[..]
            } else {
                &table.entries[reach]
            };
            scratch.cand_keys.fill(rows);
            count::Candidates {
                rows,
                keys: &scratch.cand_keys,
                reach: 0..rows.len(),
            }
        } else {
            count::Candidates {
                rows: table.entries,
                keys: table.keys(),
                reach,
            }
        };
        // The context table is start-sorted across iterations; the
        // sweep takes one iteration at a time, each in start order. A
        // scope of one iteration is swept as it is.
        let context = if counts.len() <= 1 {
            &scratch.ctx
        } else {
            let iters = (0, counts.len() as u32 - 1);
            let (ctx, buckets) = (&scratch.ctx, &mut scratch.buckets);
            post::group_by_iter(ctx, |c| c.iter, iters, buckets, &mut scratch.single);
            &scratch.single
        };
        count::select_counts(
            select_axis,
            context,
            &candidates,
            table.max_extent,
            budget.as_ref(),
            &mut selected,
        );
    }
    if let Some(b) = &budget {
        let _ = b.note_scratch(scratch.approx_bytes());
    }
    if axis.is_select() {
        for &(iter, n) in &selected {
            counts[iter as usize] += n;
        }
    } else {
        let universe = target.candidate_universe_in(&mut scratch.universe).len() as u64;
        let mut taken = selected.iter().peekable();
        for &iter in target.iter_domain {
            let n = taken.next_if(|&&(i, _)| i == iter).map_or(0, |&(_, n)| n);
            counts[iter as usize] += universe - n;
        }
    }
    scratch.selected = selected;
    true
}

/// The reach of the loop-lifted select `axis` over a context extent
/// `(from, to)` in the target's table.
fn reach_of(axis: StandoffAxis, target: &JoinTarget<'_>, (from, to): (i64, i64)) -> Range<usize> {
    match axis {
        StandoffAxis::SelectNarrow => target.table().reach(from, to),
        _ => target.table().wide_reach(from, to),
    }
}

/// The select result itself, or — for the reject axes — its complement
/// within the candidate universe, per iteration of the scope.
fn finish(
    axis: StandoffAxis,
    selected: Vec<IterNode>,
    target: &JoinTarget<'_>,
    universe: &mut Vec<u32>,
) -> Vec<IterNode> {
    if axis.is_select() {
        selected
    } else {
        let universe = target.candidate_universe_in(universe);
        post::complement(&selected, universe, target.iter_domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_names_round_trip() {
        for axis in StandoffAxis::ALL {
            assert_eq!(StandoffAxis::parse(axis.as_str()), Some(axis));
        }
        assert_eq!(StandoffAxis::parse("descendant"), None);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in StandoffStrategy::ALL {
            assert_eq!(StandoffStrategy::parse(s.as_str()), Some(s));
        }
        assert_eq!(
            StandoffStrategy::parse("ll"),
            Some(StandoffStrategy::LoopLiftedMergeJoin)
        );
    }

    /// A join with nothing to select from (`candidates: Some(&[])`) is
    /// answered before the resolved context is read, and one with
    /// nothing to select with reads an empty table: every axis of every
    /// strategy, as rows and as counts, returns the nested loop's answer
    /// — also over an empty iteration domain — and leaves the resolved
    /// table as it found it.
    #[test]
    fn empty_sides_answer_like_the_nested_loop() {
        let doc = standoff_xml::parse_document(
            r#"<d><a start="0" end="9"/><b start="2" end="3"/><b start="20" end="21"/></d>"#,
        )
        .unwrap();
        let index = crate::RegionIndex::build(&doc, &crate::StandoffConfig::default()).unwrap();
        let (a, bs) = (doc.elements_named("a")[0], doc.elements_named("b"));
        let context = [IterNode { iter: 0, node: a }];
        let target = |candidates, iter_domain| JoinTarget {
            doc: &doc,
            index: &index,
            candidates,
            posting: None,
            iter_domain,
        };
        let mut scratch = JoinScratch::default();
        let cases = [
            (
                "empty candidates",
                &context[..],
                target(Some(&[][..]), &[0][..]),
            ),
            ("empty context", &[][..], target(Some(bs), &[0][..])),
            (
                "empty context, all annotations",
                &[][..],
                target(None, &[0, 1][..]),
            ),
            ("empty iteration domain", &[][..], target(Some(bs), &[][..])),
        ];
        for (what, rows, case) in &cases {
            // What the nested loop computes: nothing is selected, so the
            // rejects are the whole universe in every iteration.
            let universe = case.candidate_universe_in(&mut Vec::new()).to_vec();
            let rejected: Vec<IterNode> = case
                .iter_domain
                .iter()
                .flat_map(|&iter| universe.iter().map(move |&node| IterNode { iter, node }))
                .collect();
            scratch.resolve_context([(&index, *rows)]);
            let resolved = scratch.ctx.clone();
            assert_eq!(resolved.len(), rows.len(), "{what}");
            for axis in StandoffAxis::ALL {
                let expected = if axis.is_select() {
                    &[][..]
                } else {
                    &rejected[..]
                };
                for strategy in StandoffStrategy::ALL {
                    let got = join_resolved(axis, strategy, case, None, None, &mut scratch);
                    assert_eq!(got, expected, "{what}, {axis} under {strategy}");
                }
                let mut counts = [0u64; 2];
                assert!(count_resolved(axis, case, &mut scratch, &mut counts));
                let mut want = [0u64; 2];
                for row in expected {
                    want[row.iter as usize] += 1;
                }
                assert_eq!(counts, want, "{what}, {axis} counted");
                assert_eq!(
                    scratch.ctx, resolved,
                    "{what}, {axis}: context table touched"
                );
            }
        }
        assert_eq!(cases[2].2.candidate_universe_in(&mut Vec::new()).len(), 3);
    }

    /// The radix context sort orders like the four-field comparison
    /// sort: equal starts, negative starts, a span wider than one pass,
    /// input already in start order, and a span too wide for the keys.
    #[test]
    fn context_sort_is_the_comparison_sort() {
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let cases: Vec<Vec<CtxEntry>> = [1i64, 5, 3_000, 1 << 40]
            .iter()
            .map(|&spread| {
                (0..500)
                    .map(|k| {
                        let start = (next() as i64 % spread) - spread / 2;
                        CtxEntry {
                            iter: next() as u32 % 4,
                            node: k,
                            start,
                            end: start + (next() % 9) as i64,
                        }
                    })
                    .collect()
            })
            .collect();
        let mut ascending = cases[2].clone();
        ascending.sort_by_key(|c| c.start);
        let (mut tmp, mut keys) = (Vec::new(), [Vec::new(), Vec::new()]);
        for case in cases.iter().chain([&ascending]) {
            let mut expected = case.clone();
            expected.sort_unstable_by_key(|c| (c.start, c.end, c.iter, c.node));
            let mut got = case.clone();
            sort_context(&mut got, &mut tmp, &mut keys);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn axis_classification() {
        use StandoffAxis::*;
        assert!(SelectNarrow.is_select() && SelectNarrow.is_narrow());
        assert!(SelectWide.is_select() && !SelectWide.is_narrow());
        assert!(!RejectNarrow.is_select() && RejectNarrow.is_narrow());
        assert!(!RejectWide.is_select() && !RejectWide.is_narrow());
        assert_eq!(RejectWide.select_counterpart(), SelectWide);
        assert_eq!(SelectNarrow.select_counterpart(), SelectNarrow);
    }
}
