//! Staircase Join: loop-lifted evaluation of the XPath tree axes.
//!
//! Grust, van Keulen and Teubner ("Staircase Join: Teach a Relational DBMS
//! to Watch its (Axis) Steps", VLDB 2003) evaluate XPath axes on the
//! pre/size document encoding with three ideas: *pruning* (drop context
//! nodes whose result is covered by another context node), *partitioning*
//! (each document region is scanned once), and *skipping* (jump over
//! subtrees that cannot contain results). Boncz et al. (SIGMOD 2006) showed
//! the loop-lifted variant computes an axis step for *many* context
//! sequences (one per for-loop iteration) in a single pass.
//!
//! This module implements the loop-lifted step for all tree axes. For the
//! recursive axes the classic staircase optimizations apply directly on
//! pre/size:
//!
//! * `descendant`: prune contexts contained in an earlier context of the
//!   same iteration, then emit each pruned context's `pre+1 ..= pre+size`
//!   range — results stream out in document order, no sort needed; a
//!   named element test *skips* through the element-name index instead of
//!   scanning the range (the name postings are the skip list);
//! * `following`: the union over a context sequence collapses to a single
//!   range `(min(pre+size), end]`;
//! * `preceding`: collapses to `{v : v.pre + v.size < max(pre)}`.
//!
//! A step runs once per *fragment* of the context: a constructor's
//! container document holds one fragment per iteration (`standoff-xml`'s
//! `doc/arena.rs`), and every axis stops at its fragment `[f, f +
//! size(f)]` — `end` above is the fragment's last row, and a fragment's
//! document node `f` has neither parent nor siblings.
//!
//! The paper's StandOff MergeJoin (in `standoff-core`) is the analogue of
//! this join for *overlapping* region annotations, where these tree
//! shortcuts no longer hold.

use std::borrow::Cow;

use standoff_xml::{Corrupt, DocId, Document, NameId, NodeId, NodeKind, NodeRef, Store};

use crate::nodeseq::NodeTable;

/// The XPath tree axes (the four StandOff axes live in `standoff-core`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeAxis {
    Child,
    Descendant,
    DescendantOrSelf,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
    Attribute,
}

impl TreeAxis {
    pub fn as_str(self) -> &'static str {
        match self {
            TreeAxis::Child => "child",
            TreeAxis::Descendant => "descendant",
            TreeAxis::DescendantOrSelf => "descendant-or-self",
            TreeAxis::SelfAxis => "self",
            TreeAxis::Parent => "parent",
            TreeAxis::Ancestor => "ancestor",
            TreeAxis::AncestorOrSelf => "ancestor-or-self",
            TreeAxis::FollowingSibling => "following-sibling",
            TreeAxis::PrecedingSibling => "preceding-sibling",
            TreeAxis::Following => "following",
            TreeAxis::Preceding => "preceding",
            TreeAxis::Attribute => "attribute",
        }
    }
}

/// Node kind test of a step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KindTest {
    /// `node()`
    AnyKind,
    /// name test or `element()` / `*`
    Element,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// `document-node()`
    Document,
}

/// A node test: kind plus optional name (element name, attribute name, or
/// PI target depending on the axis).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeTest {
    pub kind: KindTest,
    pub name: Option<String>,
}

impl NodeTest {
    /// `*` (any element).
    pub fn any_element() -> Self {
        NodeTest {
            kind: KindTest::Element,
            name: None,
        }
    }

    /// `node()`.
    pub fn any_node() -> Self {
        NodeTest {
            kind: KindTest::AnyKind,
            name: None,
        }
    }

    /// Element name test.
    pub fn named(name: impl Into<String>) -> Self {
        NodeTest {
            kind: KindTest::Element,
            name: Some(name.into()),
        }
    }

    /// Is this an element *name* test — the one kind of test the
    /// element-name index holds postings for?
    pub fn names_element(&self) -> bool {
        self.kind == KindTest::Element && self.name.is_some()
    }
}

/// The test as written in a path step: the name when one is given, `*`
/// for any element, `kind()` otherwise. Shared by plan explain output
/// and diagnostics so every layer prints tests the same way.
impl std::fmt::Display for NodeTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.name, self.kind) {
            (Some(n), _) => f.write_str(n),
            (None, KindTest::Element) => f.write_str("*"),
            (None, k) => write!(f, "{}()", format!("{k:?}").to_lowercase()),
        }
    }
}

/// Name test resolved against one document's name table. `NoMatch` means
/// the name does not occur in the document, so the test can never match —
/// the step short-circuits to an empty result for that fragment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ResolvedName {
    Any,
    Id(NameId),
    NoMatch,
}

fn resolve_name(doc: &Document, test: &NodeTest) -> ResolvedName {
    match &test.name {
        None => ResolvedName::Any,
        Some(n) => match doc.names().get(n) {
            Some(id) => ResolvedName::Id(id),
            None => ResolvedName::NoMatch,
        },
    }
}

/// Memo of name-test resolutions, keyed by `(test address, document)`.
///
/// A name test is an `Option<String>` that must be looked up in each
/// fragment's name table every time its step runs; for plans that
/// re-execute the same step — recursive user-defined functions, repeated
/// call sites — the resolution is pure repetition. The cache keys on the
/// *address* of the `NodeTest`, so it is sound only under the contract
/// the plan evaluator provides: every cached test outlives the cache
/// (tests live in the `Arc`'d plan, the cache dies with the per-query
/// evaluator), making addresses unique for the cache's lifetime. Do not
/// feed it stack-temporary tests.
#[derive(Debug, Default)]
pub struct NameCache {
    map: std::collections::HashMap<(usize, u32), ResolvedName>,
}

impl NameCache {
    pub fn new() -> NameCache {
        NameCache::default()
    }

    fn resolve(&mut self, doc: &Document, doc_id: DocId, test: &NodeTest) -> ResolvedName {
        if test.name.is_none() {
            return ResolvedName::Any; // nothing to look up or memoize
        }
        *self
            .map
            .entry((test as *const NodeTest as usize, doc_id.0))
            .or_insert_with(|| resolve_name(doc, test))
    }
}

/// Does the tree node at `pre` match the test?
#[inline]
fn matches_tree(doc: &Document, pre: u32, test: &NodeTest, name: ResolvedName) -> bool {
    let kind = doc.kind(pre);
    let kind_ok = match test.kind {
        KindTest::AnyKind => true,
        KindTest::Element => kind == NodeKind::Element,
        KindTest::Text => kind == NodeKind::Text,
        KindTest::Comment => kind == NodeKind::Comment,
        KindTest::Pi => kind == NodeKind::Pi,
        KindTest::Document => kind == NodeKind::Document,
    };
    if !kind_ok {
        return false;
    }
    match name {
        ResolvedName::Any => true,
        ResolvedName::NoMatch => false,
        // A name test only matches named kinds (elements / PI targets).
        ResolvedName::Id(id) => {
            matches!(kind, NodeKind::Element | NodeKind::Pi) && doc.name_id(pre) == id
        }
    }
}

/// First position at or after `from` whose posting is `>= target`: an
/// exponential probe bracketing a binary search, so advancing the cursor
/// past `s` postings costs `O(log s)` and not advancing costs one compare.
#[inline]
fn gallop(postings: &[u32], from: usize, target: u32) -> usize {
    let mut step = 1usize;
    let mut hi = from;
    while hi < postings.len() && postings[hi] < target {
        hi += step;
        step *= 2;
    }
    let lo = hi - step / 2; // last probe known `< target` (or `from`)
    let hi = hi.min(postings.len());
    lo + postings[lo..hi].partition_point(|&p| p < target)
}

/// Evaluate a loop-lifted tree-axis step: for every iteration in `ctx`,
/// compute the axis result of its context node sequence. The result is
/// duplicate-free and in document order per iteration. A step reads a
/// document's tree columns only where its axis navigates ([`Document::tree`]:
/// `descendant` from a fragment's document node reads none), and its
/// attribute table only from attribute contexts or along the
/// `attribute` axis; a group that fails its verification fails the step.
pub fn ll_step(
    store: &Store,
    ctx: &NodeTable,
    axis: TreeAxis,
    test: &NodeTest,
) -> Result<NodeTable, Corrupt> {
    ll_step_impl(store, ctx, axis, test, None, |_| Ok(true))
}

/// [`ll_step`] with a [`NameCache`] memoizing per-document name-test
/// resolution across step executions. See the cache's soundness
/// contract: `test` must outlive `cache`.
pub fn ll_step_cached(
    store: &Store,
    ctx: &NodeTable,
    axis: TreeAxis,
    test: &NodeTest,
    cache: &mut NameCache,
) -> Result<NodeTable, Corrupt> {
    ll_step_impl(store, ctx, axis, test, Some(cache), |_| Ok(true))
}

/// [`ll_step_cached`] keeping only the rows `keep` accepts, tested as
/// the step emits them: a row filter fused into the walk, so a row it
/// drops is never stored or ordered. `keep` must be a function of the
/// node alone; its failure fails the step.
pub fn ll_step_where(
    store: &Store,
    ctx: &NodeTable,
    axis: TreeAxis,
    test: &NodeTest,
    cache: &mut NameCache,
    keep: impl FnMut(NodeRef) -> Result<bool, Corrupt>,
) -> Result<NodeTable, Corrupt> {
    ll_step_impl(store, ctx, axis, test, Some(cache), keep)
}

fn ll_step_impl(
    store: &Store,
    ctx: &NodeTable,
    axis: TreeAxis,
    test: &NodeTest,
    mut cache: Option<&mut NameCache>,
    mut keep: impl FnMut(NodeRef) -> Result<bool, Corrupt>,
) -> Result<NodeTable, Corrupt> {
    let ctx = if ctx.is_normalized(store)? {
        Cow::Borrowed(ctx)
    } else {
        let mut ctx = ctx.clone();
        ctx.normalize(store)?;
        Cow::Owned(ctx)
    };
    let mut out = Emitted {
        table: NodeTable::new(),
        last: None,
        in_order: true,
    };
    for (iter, nodes) in ctx.groups() {
        // Nodes are sorted by (doc, order); process per-fragment runs.
        let mut k = 0;
        while k < nodes.len() {
            let doc_id = nodes[k].doc;
            let doc = store.doc(doc_id);
            let root = doc.fragment_root(doc.owner_pre(nodes[k].id)?);
            let end = doc.fragment_end(root);
            let mut j = k + 1;
            while j < nodes.len() && nodes[j].doc == doc_id && doc.owner_pre(nodes[j].id)? <= end {
                j += 1;
            }
            step_fragment(
                (doc, doc_id, root),
                iter,
                &nodes[k..j],
                axis,
                test,
                cache.as_deref_mut(),
                &mut keep,
                &mut out,
            )?;
            k = j;
        }
    }
    // Most axes emit in document order: only a step that did not is
    // sorted.
    let mut table = out.table;
    if !out.in_order {
        table.normalize(store)?;
    }
    Ok(table)
}

/// A step's output table, and whether its rows arrived in document
/// order, duplicate-free, per iteration.
struct Emitted {
    table: NodeTable,
    last: Option<(u32, DocId, (u32, u32))>,
    in_order: bool,
}

impl Emitted {
    #[inline]
    fn push(&mut self, doc: &Document, iter: u32, node: NodeRef) -> Result<(), Corrupt> {
        let key = (iter, node.doc, doc.order_key(node.id)?);
        self.in_order &= self.last.is_none_or(|last| last < key);
        self.last = Some(key);
        self.table.push(iter, node);
        Ok(())
    }
}

/// Evaluate one axis step for the context nodes of a single iteration and
/// a single document fragment, whose document node is row `root`
/// (`nodes` sorted in document order).
#[allow(clippy::too_many_arguments)]
fn step_fragment(
    (doc, doc_id, root): (&Document, DocId, u32),
    iter: u32,
    nodes: &[NodeRef],
    axis: TreeAxis,
    test: &NodeTest,
    cache: Option<&mut NameCache>,
    keep: &mut impl FnMut(NodeRef) -> Result<bool, Corrupt>,
    out: &mut Emitted,
) -> Result<(), Corrupt> {
    let name = match cache {
        Some(c) => c.resolve(doc, doc_id, test),
        None => resolve_name(doc, test),
    };
    if name == ResolvedName::NoMatch && axis != TreeAxis::Attribute {
        return Ok(());
    }
    // Every row leaves through here, past the caller's filter.
    macro_rules! emit {
        ($node:expr) => {{
            let node = $node;
            if keep(node)? {
                out.push(doc, iter, node)?;
            }
        }};
    }

    match axis {
        TreeAxis::SelfAxis => {
            for n in nodes {
                match n.id.pre() {
                    Some(pre) => {
                        if matches_tree(doc, pre, test, name) {
                            emit!(NodeRef::tree(doc_id, pre));
                        }
                    }
                    None => {
                        // Attribute self: only node() matches (attributes
                        // are not the principal node kind of tree axes).
                        if test.kind == KindTest::AnyKind && test.name.is_none() {
                            emit!(*n);
                        }
                    }
                }
            }
        }
        TreeAxis::Child => {
            let tree = doc.tree()?;
            for n in nodes {
                if let Some(pre) = n.id.pre() {
                    for c in tree.children(pre) {
                        if matches_tree(doc, c, test, name) {
                            emit!(NodeRef::tree(doc_id, c));
                        }
                    }
                }
            }
        }
        TreeAxis::Descendant | TreeAxis::DescendantOrSelf => {
            // Staircase pruning: skip contexts covered by a previous
            // context of the same iteration, then emit ranges — the output
            // streams in document order.
            let or_self = axis == TreeAxis::DescendantOrSelf;
            // Skipping: a named element test is answered from the
            // element-name index. The pruned contexts are disjoint and
            // ascending, so one monotone cursor gallops over the postings
            // and the step costs what it returns, not the ranges it spans.
            // Every other test has no postings and scans its ranges.
            let postings = match name {
                ResolvedName::Id(id) if test.names_element() => Some(doc.element_postings(id)),
                _ => None,
            };
            let mut cursor = 0usize;
            let mut covered_end: Option<u32> = None;
            for n in nodes {
                let Some(pre) = n.id.pre() else {
                    // Attribute context: descendant-or-self::node() is the
                    // attribute itself.
                    if or_self && test.kind == KindTest::AnyKind && test.name.is_none() {
                        emit!(*n);
                    }
                    continue;
                };
                if let Some(end) = covered_end {
                    if pre <= end {
                        continue; // pruned: contained in earlier context
                    }
                }
                // A fragment's document node spans its fragment, which
                // is known without the tree columns.
                let end = match pre == root {
                    true => doc.fragment_end(root),
                    false => pre + doc.tree()?.size(pre),
                };
                covered_end = Some(end);
                let start = if or_self { pre } else { pre + 1 };
                match postings {
                    Some(postings) => {
                        cursor = gallop(postings, cursor, start);
                        while cursor < postings.len() && postings[cursor] <= end {
                            emit!(NodeRef::tree(doc_id, postings[cursor]));
                            cursor += 1;
                        }
                    }
                    None => {
                        for v in start..=end {
                            if matches_tree(doc, v, test, name) {
                                emit!(NodeRef::tree(doc_id, v));
                            }
                        }
                    }
                }
            }
        }
        TreeAxis::Parent => {
            for n in nodes {
                let parent = match n.id.attr_index() {
                    Some(a) => Some(doc.attrs()?.owner(a)),
                    None => {
                        let pre = n.id.pre().unwrap();
                        if pre == root {
                            None
                        } else {
                            Some(doc.tree()?.parent(pre))
                        }
                    }
                };
                if let Some(p) = parent {
                    if matches_tree(doc, p, test, name) {
                        emit!(NodeRef::tree(doc_id, p));
                    }
                }
            }
        }
        TreeAxis::Ancestor | TreeAxis::AncestorOrSelf => {
            let or_self = axis == TreeAxis::AncestorOrSelf;
            let tree = doc.tree()?;
            // Climbing stops at a pre we have already emitted for this
            // (iteration, fragment): its ancestors were emitted too.
            let mut seen = std::collections::HashSet::new();
            for n in nodes {
                let mut cur = match n.id.attr_index() {
                    Some(a) => {
                        if or_self && test.kind == KindTest::AnyKind && test.name.is_none() {
                            emit!(*n);
                        }
                        Some(doc.attrs()?.owner(a))
                    }
                    None => {
                        let pre = n.id.pre().unwrap();
                        if or_self {
                            Some(pre)
                        } else if pre == root {
                            None
                        } else {
                            Some(tree.parent(pre))
                        }
                    }
                };
                while let Some(pre) = cur {
                    if !seen.insert(pre) {
                        break;
                    }
                    if matches_tree(doc, pre, test, name) {
                        emit!(NodeRef::tree(doc_id, pre));
                    }
                    cur = if pre == root {
                        None
                    } else {
                        Some(tree.parent(pre))
                    };
                }
            }
        }
        TreeAxis::FollowingSibling => {
            let tree = doc.tree()?;
            for n in nodes {
                if let Some(pre) = n.id.pre() {
                    let mut cur = tree.next_sibling(pre);
                    while let Some(s) = cur {
                        if matches_tree(doc, s, test, name) {
                            emit!(NodeRef::tree(doc_id, s));
                        }
                        cur = tree.next_sibling(s);
                    }
                }
            }
        }
        TreeAxis::PrecedingSibling => {
            let tree = doc.tree()?;
            for n in nodes {
                if let Some(pre) = n.id.pre() {
                    if pre == root {
                        continue;
                    }
                    for s in tree.children(tree.parent(pre)) {
                        if s >= pre {
                            break;
                        }
                        if matches_tree(doc, s, test, name) {
                            emit!(NodeRef::tree(doc_id, s));
                        }
                    }
                }
            }
        }
        TreeAxis::Following => {
            // Union over the context collapses to one range starting after
            // the earliest subtree end (staircase partitioning).
            let tree = doc.tree()?;
            let mut start = None::<u32>;
            for n in nodes {
                let after = match n.id.attr_index() {
                    Some(a) => doc.attrs()?.owner(a) + 1,
                    None => {
                        let pre = n.id.pre().unwrap();
                        pre + tree.size(pre) + 1
                    }
                };
                start = Some(start.map_or(after, |s| s.min(after)));
            }
            if let Some(start) = start {
                let end = doc.fragment_end(root);
                for v in start..=end {
                    if matches_tree(doc, v, test, name) {
                        emit!(NodeRef::tree(doc_id, v));
                    }
                }
            }
        }
        TreeAxis::Preceding => {
            // Union collapses to {v : v.pre + v.size < max(ctx pre)}.
            let tree = doc.tree()?;
            let mut cmax = None::<u32>;
            for n in nodes {
                let at = doc.owner_pre(n.id)?;
                cmax = Some(cmax.map_or(at, |m| m.max(at)));
            }
            if let Some(cmax) = cmax {
                for v in root + 1..cmax {
                    if v + tree.size(v) < cmax && matches_tree(doc, v, test, name) {
                        emit!(NodeRef::tree(doc_id, v));
                    }
                }
            }
        }
        TreeAxis::Attribute => {
            // The principal node kind of this axis is attribute: the name
            // test applies to attribute names.
            let attr_name = match &test.name {
                None => ResolvedName::Any,
                Some(n) => match doc.names().get(n) {
                    Some(id) => ResolvedName::Id(id),
                    None => ResolvedName::NoMatch,
                },
            };
            if attr_name == ResolvedName::NoMatch {
                return Ok(());
            }
            let attrs = doc.attrs()?;
            for n in nodes {
                if let Some(pre) = n.id.pre() {
                    match attr_name {
                        ResolvedName::Id(id) => {
                            if let Some(a) = attrs.named(pre, id) {
                                emit!(NodeRef::new(doc_id, NodeId::attr(a)));
                            }
                        }
                        _ => {
                            for a in attrs.ids(pre) {
                                emit!(NodeRef::new(doc_id, NodeId::attr(a)));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_xml::Store;

    /// `<a><b><c/><d>t</d></b><e/><b><f/></b></a>`
    /// pre: 0=doc 1=a 2=b 3=c 4=d 5=t 6=e 7=b 8=f
    fn fixture() -> (Store, DocId) {
        let mut s = Store::new();
        let d = s
            .load("d", "<a><b><c/><d>t</d></b><e/><b><f/></b></a>")
            .unwrap();
        (s, d)
    }

    fn ctx(d: DocId, pres: &[u32]) -> NodeTable {
        NodeTable::for_single_iter(pres.iter().map(|&p| NodeRef::tree(d, p)).collect())
    }

    fn pres(t: &NodeTable) -> Vec<u32> {
        t.nodes().iter().map(|n| n.id.pre().unwrap()).collect()
    }

    #[test]
    fn descendant_with_pruning() {
        let (s, d) = fixture();
        // Context {a, b#2}: b#2 is inside a, so it is pruned; single scan.
        let out = ll_step(
            &s,
            &ctx(d, &[1, 2]),
            TreeAxis::Descendant,
            &NodeTest::any_node(),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn descendant_name_test() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[1]),
            TreeAxis::Descendant,
            &NodeTest::named("b"),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![2, 7]);
    }

    #[test]
    fn descendant_or_self() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[2]),
            TreeAxis::DescendantOrSelf,
            &NodeTest::any_element(),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![2, 3, 4]);
    }

    #[test]
    fn child_results_sorted_across_contexts() {
        let (s, d) = fixture();
        // Contexts out of document order; results must come back sorted.
        let out = ll_step(
            &s,
            &ctx(d, &[7, 2]),
            TreeAxis::Child,
            &NodeTest::any_element(),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![3, 4, 8]);
    }

    #[test]
    fn parent_and_ancestor() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[3, 4]),
            TreeAxis::Parent,
            &NodeTest::any_element(),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![2], "shared parent deduplicated");

        let out = ll_step(&s, &ctx(d, &[5]), TreeAxis::Ancestor, &NodeTest::any_node()).unwrap();
        assert_eq!(pres(&out), vec![0, 1, 2, 4]);

        let out = ll_step(
            &s,
            &ctx(d, &[5, 8]),
            TreeAxis::Ancestor,
            &NodeTest::named("b"),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![2, 7]);
    }

    #[test]
    fn ancestor_or_self_includes_self() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[3]),
            TreeAxis::AncestorOrSelf,
            &NodeTest::any_element(),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![1, 2, 3]);
    }

    #[test]
    fn sibling_axes() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[2]),
            TreeAxis::FollowingSibling,
            &NodeTest::any_node(),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![6, 7]);
        let out = ll_step(
            &s,
            &ctx(d, &[7]),
            TreeAxis::PrecedingSibling,
            &NodeTest::any_node(),
        )
        .unwrap();
        assert_eq!(pres(&out), vec![2, 6]);
    }

    #[test]
    fn following_collapses_to_one_range() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[2, 7]),
            TreeAxis::Following,
            &NodeTest::any_node(),
        )
        .unwrap();
        // following(b#1) = {e, b#2, f}; following(b#2) = {} — union from
        // the earliest subtree end.
        assert_eq!(pres(&out), vec![6, 7, 8]);
    }

    #[test]
    fn preceding_excludes_ancestors() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[8]),
            TreeAxis::Preceding,
            &NodeTest::any_node(),
        )
        .unwrap();
        // Everything before f except its ancestors a, b#2 (and doc).
        assert_eq!(pres(&out), vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn attribute_axis() {
        let mut s = Store::new();
        let d = s.load("d", r#"<a x="1" y="2"><b x="3"/></a>"#).unwrap();
        let out = ll_step(
            &s,
            &ctx(d, &[1]),
            TreeAxis::Attribute,
            &NodeTest::any_node(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let out = ll_step(
            &s,
            &ctx(d, &[1, 2]),
            TreeAxis::Attribute,
            &NodeTest::named("x"),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.nodes().iter().all(|n| n.id.is_attr()));
    }

    #[test]
    fn attribute_parent_is_owner() {
        let mut s = Store::new();
        let d = s.load("d", r#"<a><b x="1"/></a>"#).unwrap();
        let attrs = ll_step(
            &s,
            &ctx(d, &[2]),
            TreeAxis::Attribute,
            &NodeTest::any_node(),
        )
        .unwrap();
        let parents = ll_step(&s, &attrs, TreeAxis::Parent, &NodeTest::any_element()).unwrap();
        assert_eq!(pres(&parents), vec![2]);
    }

    #[test]
    fn unknown_name_short_circuits() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[1]),
            TreeAxis::Descendant,
            &NodeTest::named("zzz"),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn loop_lifted_iterations_stay_separate() {
        let (s, d) = fixture();
        let t = NodeTable::from_columns(vec![0, 1], vec![NodeRef::tree(d, 2), NodeRef::tree(d, 7)]);
        let out = ll_step(&s, &t, TreeAxis::Descendant, &NodeTest::any_element()).unwrap();
        assert_eq!(
            out.group(0)
                .iter()
                .map(|n| n.id.pre().unwrap())
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(
            out.group(1)
                .iter()
                .map(|n| n.id.pre().unwrap())
                .collect::<Vec<_>>(),
            vec![8]
        );
    }

    #[test]
    fn text_kind_test() {
        let (s, d) = fixture();
        let out = ll_step(
            &s,
            &ctx(d, &[1]),
            TreeAxis::Descendant,
            &NodeTest {
                kind: KindTest::Text,
                name: None,
            },
        )
        .unwrap();
        assert_eq!(pres(&out), vec![5]);
    }
}
