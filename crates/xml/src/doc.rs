//! Shredded columnar document storage with the pre/size/level encoding.
//!
//! One row per tree node in pre (document) order. For a node with pre rank
//! `p`, `size[p]` is its number of descendants, so its subtree occupies pre
//! ranks `p ..= p + size[p]` — the *region encoding* that Staircase Join and
//! the StandOff MergeJoin post-processing exploit. Attributes are shredded
//! into a separate CSR-encoded table keyed by owner pre rank, exactly as in
//! MonetDB/XQuery.
//!
//! Every column is a [`PodCol`]/[`StrArena`]: owned when the document was
//! parsed or built in memory, a zero-copy view over a snapshot buffer when
//! it was mounted (see `standoff-store`'s snapshot format). A mounted
//! document verifies its tree columns and its attribute table the first
//! time each is read, so both are reached through fallible accessors
//! ([`Document::tree`], [`Document::attrs`]; see `checked.rs`). The element-name
//! index is a CSR over `(name id → element pre ranks)` — persisted by the
//! snapshot writer and mounted as-is, never rebuilt through a hash map.

use std::fmt;
use std::io;
use std::ops::Range;
use std::sync::Arc;

use crate::checked::{Checked, Corrupt, Loader};
use crate::column::{PodCol, SharedBytes, StrArena, StrArenaBuilder};
use crate::name::{NameId, NameTable};
use crate::node::{NodeId, NodeKind};

mod arena;
mod splice;

pub use splice::{NewElement, Renumbering};

/// The node-kind column: a validated `u8` column. View construction
/// rejects any byte that is not a [`NodeKind`] discriminant, so `get`
/// can reinterpret without a per-access check.
#[derive(Clone, Default, Debug)]
pub struct KindCol {
    raw: PodCol<u8>,
}

impl KindCol {
    /// Mount a kind column, validating every byte (a branch-free fold).
    pub fn view(buf: &SharedBytes, range: Range<usize>) -> io::Result<KindCol> {
        let raw: PodCol<u8> = PodCol::view(buf, range)?;
        if raw.iter().fold(0, |m, &b| m.max(b)) > NodeKind::Pi as u8 {
            return Err(crate::wire::bad_data("invalid node kind in kind column"));
        }
        Ok(KindCol { raw })
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> NodeKind {
        match self.raw[i] {
            0 => NodeKind::Document,
            1 => NodeKind::Element,
            2 => NodeKind::Text,
            3 => NodeKind::Comment,
            _ => NodeKind::Pi, // 4; >4 rejected at construction
        }
    }

    /// The raw byte column (the snapshot writer's hook).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.raw
    }

    pub fn is_view(&self) -> bool {
        self.raw.is_view()
    }
}

/// Element-name index in CSR form: `names` holds the distinct element
/// name ids in ascending order, `offsets` the CSR boundaries, and `pres`
/// the element pre ranks of each bucket in document order. This is the
/// candidate-sequence source of the StandOff joins (paper §4.3); the
/// query engine borrows bucket slices directly, so bucket ordering is a
/// load-time invariant, not a per-query re-check.
#[derive(Clone, Default, Debug)]
pub struct ElemIndex {
    pub names: PodCol<u32>,
    pub offsets: PodCol<u32>,
    pub pres: PodCol<u32>,
}

impl ElemIndex {
    /// Build from the kind/name columns with a counting pass per name id
    /// (no hash map: two scans plus a prefix sum).
    pub fn build(kind: &KindCol, name: &[u32], name_count: usize) -> ElemIndex {
        let mut counts = vec![0u32; name_count];
        for i in 0..kind.len() {
            if kind.get(i) == NodeKind::Element {
                counts[name[i] as usize] += 1;
            }
        }
        let mut names = Vec::new();
        let mut offsets = vec![0u32];
        let mut slot_of = vec![u32::MAX; name_count];
        let mut total = 0u32;
        for (id, &c) in counts.iter().enumerate() {
            if c > 0 {
                slot_of[id] = names.len() as u32;
                names.push(id as u32);
                total += c;
                offsets.push(total);
            }
        }
        // Second pass places pre ranks; per-bucket write cursors start at
        // each bucket's CSR offset.
        let mut cursor: Vec<u32> = offsets[..offsets.len() - 1].to_vec();
        let mut pres = vec![0u32; total as usize];
        for i in 0..kind.len() {
            if kind.get(i) == NodeKind::Element {
                let slot = slot_of[name[i] as usize] as usize;
                pres[cursor[slot] as usize] = i as u32;
                cursor[slot] += 1;
            }
        }
        ElemIndex {
            names: PodCol::owned(names),
            offsets: PodCol::owned(offsets),
            pres: PodCol::owned(pres),
        }
    }

    /// Element pre ranks for a name id (empty if unindexed).
    #[inline]
    pub fn lookup(&self, id: NameId) -> &[u32] {
        match self.names.binary_search(&id.0) {
            Ok(k) => &self.pres[self.offsets[k] as usize..self.offsets[k + 1] as usize],
            Err(_) => &[],
        }
    }

    /// The `k`-th `(name id, bucket)` pair, in name-id order.
    fn bucket(&self, k: usize) -> (u32, &[u32]) {
        (
            self.names[k],
            &self.pres[self.offsets[k] as usize..self.offsets[k + 1] as usize],
        )
    }

    /// Validate the index against the node columns: ascending distinct
    /// names in range, non-empty strictly-ascending buckets that agree
    /// with the columns, and full coverage of the columns' `elements`
    /// elements.
    pub(crate) fn validate(
        &self,
        kind: &KindCol,
        name: &[u32],
        name_count: usize,
        elements: usize,
    ) -> Result<(), String> {
        if self.offsets.len() != self.names.len() + 1 {
            return Err("element index CSR length mismatch".into());
        }
        if self.offsets.first() != Some(&0)
            || *self.offsets.last().unwrap() as usize != self.pres.len()
        {
            return Err("element index CSR does not cover its buckets".into());
        }
        if !self.offsets.windows(2).all(|w| w[0] < w[1]) {
            return Err("empty element-index bucket".into());
        }
        if !self.names.windows(2).all(|w| w[0] < w[1]) {
            return Err("element index not in name-id order".into());
        }
        if self.names.last().is_some_and(|&n| n as usize >= name_count) {
            return Err("indexed name id out of range".into());
        }
        let element = Some(&(NodeKind::Element as u8));
        for k in 0..self.names.len() {
            let (id, pres) = self.bucket(k);
            // Branch-free: every entry an element named `id`, ascending.
            if !pres.iter().fold(true, |ok, &pre| {
                let pre = pre as usize;
                ok & (kind.raw.get(pre) == element) & (name.get(pre) == Some(&id))
            }) {
                return Err("element index disagrees with node columns".into());
            }
            if !pres.windows(2).fold(true, |ok, w| ok & (w[0] < w[1])) {
                return Err("element index not in document order".into());
            }
        }
        if self.pres.len() != elements {
            return Err("element index does not cover all elements".into());
        }
        Ok(())
    }
}

/// The raw column storage behind a [`Document`] — each column either
/// owned or a zero-copy view over a mounted snapshot buffer. Assembled
/// by the snapshot mount path, then validated by
/// [`Document::from_storage`]; the tree columns and the attribute table
/// are handed over as loaders, verified the first time they are read.
pub struct DocumentParts {
    pub uri: Option<String>,
    pub names: NameTable,
    pub kind: KindCol,
    /// Raw name ids (`NameId::NONE` = `u32::MAX` for unnamed kinds).
    pub name: PodCol<u32>,
    /// Verifies and assembles the tree columns ([`Document::tree`]).
    pub tree: Loader<TreeColumns>,
    /// Attribute rows the stored table declares, for
    /// [`Document::attr_count`] before the table is read; `attrs` refuses
    /// a table of any other length.
    pub attr_count: usize,
    /// Verifies and assembles the attribute table ([`Document::attrs`]).
    pub attrs: Loader<AttrTable>,
    pub elem: ElemIndex,
}

/// The tree columns, indexed by pre rank: subtree size, depth, parent
/// and the text/comment/PI content. What navigation and serialization
/// read, reached through [`Document::tree`].
#[derive(Clone)]
pub struct TreeColumns {
    size: PodCol<u32>,
    level: PodCol<u16>,
    parent: PodCol<u32>,
    values: StrArena,
}

impl TreeColumns {
    /// Assemble the stored tree columns of a one-tree document whose
    /// node kinds are `kind`, validating them whole: the column lengths,
    /// then the structural pre/size/level rules in one pre-order pass. A
    /// failure names the stored column it was found in (`size`, `level`,
    /// `parent` or `value-offsets`) and why.
    pub fn from_storage(
        size: PodCol<u32>,
        level: PodCol<u16>,
        parent: PodCol<u32>,
        values: StrArena,
        kind: &KindCol,
    ) -> Result<TreeColumns, (&'static str, String)> {
        let n = kind.len();
        let lengths = [
            ("size", size.len()),
            ("level", level.len()),
            ("parent", parent.len()),
            ("value-offsets", values.len()),
        ];
        if let Some(&(column, _)) = lengths.iter().find(|&&(_, len)| len != n) {
            return Err((column, "node column lengths disagree".into()));
        }
        let tree = TreeColumns {
            size,
            level,
            parent,
            values,
        };
        tree.check_structure(kind, &[0])?;
        Ok(tree)
    }

    /// The tree's structural rules in order, each column read once: one
    /// pre-order pass per fragment (`starts`, ascending) for the
    /// parent/size/level rules. Needs a non-empty document and columns
    /// as long as `kind`; nothing else is assumed, so hostile columns
    /// cannot make it index out of bounds.
    fn check_structure(
        &self,
        kind: &KindCol,
        starts: &[u32],
    ) -> Result<(), (&'static str, String)> {
        let n = kind.len();
        let (size, level, parent) = (&self.size[..n], &self.level[..n], &self.parent[..n]);
        let ends = starts[1..].iter().map(|&s| s as usize).chain([n]);
        for (&root, next) in starts.iter().zip(ends) {
            let root = root as usize;
            if root >= next {
                return Err(("size", "fragment starts not ascending".into()));
            }
            if kind.get(root) != NodeKind::Document
                || level[root] != 0
                || parent[root] as usize != root
            {
                let column = if level[root] != 0 { "level" } else { "parent" };
                return Err((
                    column,
                    format!("fragment start {root} is not a document node"),
                ));
            }
            if root + size[root] as usize != next - 1 {
                return Err((
                    "size",
                    format!(
                        "document node size {} != node count - 1 ({})",
                        size[root],
                        next - 1 - root
                    ),
                ));
            }
            // Bounded by the fragment, so the loop needs no bounds checks.
            let (size, level, parent) = (&size[..next], &level[..next], &parent[..next]);
            for pre in root + 1..next {
                // The rules of `node_error`, without branches: a parent at or
                // after the node fails it, so any in-bounds row stands in.
                let up = parent[pre] as usize;
                let p = if up < pre { up } else { root };
                let end = |p: usize| p as u64 + size[p] as u64;
                if (up >= pre)
                    | (pre as u64 > end(p))
                    | (level[pre] as u32 != level[p] as u32 + 1)
                    | (end(pre) > end(p))
                {
                    return Err(self.node_error(pre as u32));
                }
            }
        }
        Ok(())
    }

    /// The rule node `pre` (≥ 1) breaks, and the column it is found in:
    /// its parent comes before it, it lies inside its parent's subtree
    /// one level down, and its own subtree ends inside its parent's. Only
    /// asked of a node [`TreeColumns::check_structure`] found breaking
    /// one.
    #[cold]
    fn node_error(&self, pre: u32) -> (&'static str, String) {
        let parent = self.parent[pre as usize];
        if parent >= pre {
            return (
                "parent",
                format!("node {pre} has parent {parent} >= itself"),
            );
        }
        // Subtree ends are summed in u64: a hostile `size` column must
        // fail here, not wrap past the parent's end.
        let end = |p: u32| p as u64 + self.size[p as usize] as u64;
        if pre as u64 > end(parent) {
            return (
                "parent",
                format!("node {pre} outside parent {parent} region"),
            );
        }
        if self.level[pre as usize] as u32 != self.level[parent as usize] as u32 + 1 {
            return (
                "level",
                format!("node {pre} level inconsistent with parent"),
            );
        }
        ("size", format!("node {pre} subtree leaks out of parent"))
    }
}

/// A document's verified tree columns, with the navigation they answer
/// ([`Document::tree`]). Copy it freely: it is two references.
#[derive(Clone, Copy)]
pub struct Tree<'d> {
    doc: &'d Document,
    cols: &'d TreeColumns,
}

impl<'d> Tree<'d> {
    /// Subtree size (descendant count) of the tree node at `pre`.
    #[inline]
    pub fn size(self, pre: u32) -> u32 {
        self.cols.size[pre as usize]
    }

    /// Depth of the tree node at `pre` (document node has level 0).
    #[inline]
    pub fn level(self, pre: u32) -> u16 {
        self.cols.level[pre as usize]
    }

    /// Parent pre rank of the tree node at `pre` (a document node is its
    /// own parent).
    #[inline]
    pub fn parent(self, pre: u32) -> u32 {
        self.cols.parent[pre as usize]
    }

    /// Raw value column of the tree node at `pre` (text/comment/PI content).
    #[inline]
    pub fn value(self, pre: u32) -> &'d str {
        self.cols.values.get(pre as usize)
    }

    /// First child of the node at `pre`, if any.
    #[inline]
    pub fn first_child(self, pre: u32) -> Option<u32> {
        (self.size(pre) > 0).then_some(pre + 1)
    }

    /// Next sibling of the node at `pre`, if any.
    #[inline]
    pub fn next_sibling(self, pre: u32) -> Option<u32> {
        if self.level(pre) == 0 {
            return None; // document node
        }
        let parent = self.parent(pre);
        let next = pre + self.size(pre) + 1;
        (next <= parent + self.size(parent)).then_some(next)
    }

    /// Children of the node at `pre`, in document order.
    pub fn children(self, pre: u32) -> Children<'d> {
        Children {
            tree: self,
            next: self.first_child(pre),
            end: pre + self.size(pre),
        }
    }

    /// Pre ranks of the subtree rooted at `pre`, *excluding* `pre` itself.
    #[inline]
    pub fn descendants(self, pre: u32) -> std::ops::RangeInclusive<u32> {
        let s = self.size(pre);
        if s == 0 {
            // Empty range (start > end).
            #[allow(clippy::reversed_empty_ranges)]
            {
                1..=0
            }
        } else {
            (pre + 1)..=(pre + s)
        }
    }

    /// Does `anc` (pre rank) contain `desc` (pre rank), strictly?
    #[inline]
    pub fn is_ancestor(self, anc: u32, desc: u32) -> bool {
        anc < desc && desc <= anc + self.size(anc)
    }

    /// The string value of the tree node at `pre` per XPath: for
    /// elements and the document node, the concatenation of all
    /// descendant text nodes; for text/comment/PI nodes, their content.
    pub fn string_value(self, pre: u32) -> String {
        match self.doc.kind(pre) {
            NodeKind::Text | NodeKind::Comment | NodeKind::Pi => self.value(pre).to_string(),
            NodeKind::Element | NodeKind::Document => {
                let mut out = String::new();
                for d in self.descendants(pre) {
                    if self.doc.kind(d) == NodeKind::Text {
                        out.push_str(self.value(d));
                    }
                }
                out
            }
        }
    }
}

/// Where a mounted layer's region attributes come from: the one region
/// of an annotated element, by pre rank. A snapshot stores no
/// attribute row that repeats its layer's region table (the layer's
/// region index implements this, in `standoff-core`).
pub trait RegionSource: Send + Sync {
    /// The region `(start, end)` of the element at `pre`, if it is
    /// annotated with exactly one.
    fn region(&self, pre: u32) -> Option<(i64, i64)>;
}

/// The region attributes a mounted table presents without storing
/// them: an element that is annotated and stores no row named either
/// one has two more attributes after its stored ones, `start` and then
/// `end`, whose text is the canonical decimal of its region.
#[derive(Clone)]
pub struct RegionAttrs {
    pub source: Arc<dyn RegionSource>,
    /// The configured start and end attribute names.
    pub start: NameId,
    pub end: NameId,
}

/// An attribute's value: a stored slice, or a region position formatted
/// in place — never an allocation. Derefs to `str`.
#[derive(Clone, Copy)]
pub struct AttrValue<'a>(Value<'a>);

#[derive(Clone, Copy)]
enum Value<'a> {
    Stored(&'a str),
    /// `digits[at..]` is the decimal.
    Decimal {
        at: u8,
        digits: [u8; 20],
    },
}

impl AttrValue<'_> {
    /// The canonical decimal of `n`: what `n.to_string()` gives.
    pub fn decimal(n: i64) -> AttrValue<'static> {
        let (mut digits, mut at, mut m) = ([0u8; 20], 20, n.unsigned_abs());
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        if n < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        AttrValue(Value::Decimal {
            at: at as u8,
            digits,
        })
    }
}

impl std::ops::Deref for AttrValue<'_> {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        match &self.0 {
            Value::Stored(s) => s,
            Value::Decimal { at, digits } => {
                std::str::from_utf8(&digits[*at as usize..]).expect("ASCII digits")
            }
        }
    }
}

impl fmt::Debug for AttrValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for AttrValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

/// The attribute table: a CSR over owner pre rank — `first[pre]..
/// first[pre + 1]` are the stored rows of the element at `pre` — with
/// each row's owner, name id and value. Reached through
/// [`Document::attrs`].
///
/// A mounted layer's table may also present region attributes it does
/// not store ([`RegionAttrs`]). Their ids follow the `R` stored rows:
/// the `start` of the element at `pre` is `R + 2·pre`, its `end`
/// `R + 2·pre + 1`. So an attribute's owner, name and order key are
/// arithmetic, and a test of any other name never reads the regions.
/// Readers go through [`AttrTable::ids`] and [`AttrTable::named`],
/// which see both kinds; a reader of all of an element's attributes
/// with their values — a copy, the serializer — through
/// [`AttrTable::pairs`], which looks the region up once.
#[derive(Clone)]
pub struct AttrTable {
    first: PodCol<u32>,
    owner: PodCol<u32>,
    name: PodCol<u32>,
    values: StrArena,
    regions: Option<RegionAttrs>,
}

impl AttrTable {
    /// Assemble a stored table of `count` rows for a document of
    /// `node_count` nodes and `names` names, validating it whole: the
    /// column lengths, the name ids, the CSR (runs monotone from 0,
    /// covering the table, each row inside its owner's run), and that
    /// the ids of the attributes `regions` presents fit an attribute id.
    /// A failure names the stored column it was found in (`attr-first`,
    /// `attr-owner`, `attr-name` or `attr-value-offsets`) and why.
    #[allow(clippy::too_many_arguments)]
    pub fn from_storage(
        first: PodCol<u32>,
        owner: PodCol<u32>,
        name: PodCol<u32>,
        values: StrArena,
        count: usize,
        node_count: usize,
        names: usize,
        regions: Option<RegionAttrs>,
    ) -> Result<AttrTable, (&'static str, String)> {
        if first.len() != node_count + 1 {
            return Err(("attr-first", "attr_first length mismatch".into()));
        }
        let lengths = [
            ("attr-owner", owner.len()),
            ("attr-name", name.len()),
            ("attr-value-offsets", values.len()),
        ];
        if let Some(&(column, _)) = lengths.iter().find(|&&(_, len)| len != count) {
            return Err((column, "attribute column lengths disagree".into()));
        }
        let limit = u32::try_from(names).unwrap_or(u32::MAX);
        if !name.is_empty() && name.iter().fold(0, |m, &id| m.max(id)) >= limit {
            return Err(("attr-name", "attribute name out of range".into()));
        }
        if regions.is_some() && count as u64 + 2 * node_count as u64 > 1 << 31 {
            return Err(("attr-first", "region attribute ids exceed 31 bits".into()));
        }
        let table = AttrTable {
            first,
            owner,
            name,
            values,
            regions,
        };
        table.check_csr(node_count)?;
        Ok(table)
    }

    /// The CSR rules, each column read once. Needs `first` to hold
    /// `node_count + 1` entries; nothing else is assumed, so hostile
    /// columns cannot make it index out of bounds.
    fn check_csr(&self, n: usize) -> Result<(), (&'static str, String)> {
        // With owners non-decreasing from run 0, a run whose first and
        // last attribute name its node holds only that node's.
        let (attr_first, owner) = (&self.first[..=n], &self.owner[..]);
        let mut owners_match = (attr_first[0] == 0 || owner.is_empty())
            && owner.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]));
        let mut monotone = true;
        for (pre, run) in attr_first.windows(2).enumerate() {
            let (lo, hi) = (run[0] as usize, run[1] as usize);
            monotone &= lo <= hi;
            let owns = |i: usize| owner.get(i) == Some(&(pre as u32));
            owners_match &= lo >= hi || (owns(lo) && owns(hi - 1));
        }
        if !monotone {
            return Err(("attr-first", "attr_first not monotone".into()));
        }
        if attr_first[n] as usize != owner.len() {
            return Err((
                "attr-first",
                "attr_first does not cover attribute table".into(),
            ));
        }
        if owners_match {
            return Ok(());
        }
        // Monotone and covering, so the runs partition the table: the
        // first attribute outside its owner's run is named.
        for (i, &owner) in self.owner.iter().enumerate() {
            let run = match attr_first.get(owner as usize..owner as usize + 2) {
                Some(run) => run[0] as usize..run[1] as usize,
                None => return Err(("attr-owner", format!("attribute {i} owner out of range"))),
            };
            if !run.contains(&i) {
                return Err(("attr-owner", format!("attribute {i} owner CSR mismatch")));
            }
        }
        unreachable!("a run holds an attribute of another node")
    }

    /// Number of stored attribute rows.
    pub fn len(&self) -> usize {
        self.name.len()
    }

    pub fn is_empty(&self) -> bool {
        self.name.is_empty()
    }

    /// Does this table present region attributes it does not store?
    pub fn presents_regions(&self) -> bool {
        self.regions.is_some()
    }

    /// The stored rows of the element at `pre`.
    #[inline]
    pub(crate) fn range(&self, pre: u32) -> Range<u32> {
        self.first[pre as usize]..self.first[pre as usize + 1]
    }

    /// The first id of a presented region attribute: the stored row count.
    #[inline]
    fn presented(&self) -> u32 {
        self.name.len() as u32
    }

    /// The region the element at `pre` presents as its two trailing
    /// attributes: it is annotated and stores no row named either.
    #[inline]
    fn region_of(&self, pre: u32) -> Option<(i64, i64)> {
        let r = self.regions.as_ref()?;
        let run = self.range(pre);
        let stored = &self.name[run.start as usize..run.end as usize];
        if stored.iter().any(|&n| n == r.start.0 || n == r.end.0) {
            return None;
        }
        r.source.region(pre)
    }

    /// Attribute ids of the element at `pre`, in attribute order: its
    /// stored rows, then the region attributes it presents.
    #[inline]
    pub fn ids(&self, pre: u32) -> std::iter::Chain<Range<u32>, Range<u32>> {
        let presented = match self.region_of(pre) {
            Some(_) => self.presented() + 2 * pre..self.presented() + 2 * pre + 2,
            None => 0..0,
        };
        self.range(pre).chain(presented)
    }

    /// The attributes of the element at `pre`, each handed to `f` as a
    /// `(name, value)` pair, in attribute order: its stored rows, then
    /// the region attributes it presents, whose region is looked up once
    /// for both — what a copy or a serializer reads of an element.
    /// ([`AttrTable::ids`] then [`AttrTable::value`] look it up again
    /// for each value.)
    #[inline]
    pub fn pairs(&self, pre: u32, mut f: impl FnMut(NameId, &str)) {
        for a in self.range(pre) {
            f(NameId(self.name[a as usize]), self.values.get(a as usize));
        }
        if let (Some((start, end)), Some(r)) = (self.region_of(pre), &self.regions) {
            f(r.start, &AttrValue::decimal(start));
            f(r.end, &AttrValue::decimal(end));
        }
    }

    /// Attribute node ids of the element at `pre`, in attribute order.
    pub fn of(&self, pre: u32) -> impl Iterator<Item = NodeId> {
        self.ids(pre).map(NodeId::attr)
    }

    /// The id of the attribute of element `pre` named `name`, if it has
    /// one. Only a region attribute's name reads the regions.
    #[inline]
    pub fn named(&self, pre: u32, name: NameId) -> Option<u32> {
        if let Some(a) = self.range(pre).find(|&a| self.name[a as usize] == name.0) {
            return Some(a);
        }
        let r = self.regions.as_ref()?;
        let j = [r.start, r.end].iter().position(|&n| n == name)? as u32;
        self.region_of(pre)?;
        Some(self.presented() + 2 * pre + j)
    }

    /// Owner element pre rank of the attribute with id `idx`.
    #[inline]
    pub fn owner(&self, idx: u32) -> u32 {
        match idx.checked_sub(self.presented()) {
            None => self.owner[idx as usize],
            Some(k) => k / 2,
        }
    }

    /// Name id of the attribute with id `idx`.
    #[inline]
    pub fn name_id(&self, idx: u32) -> NameId {
        match idx.checked_sub(self.presented()) {
            None => NameId(self.name[idx as usize]),
            Some(k) => {
                let r = self.regions.as_ref().expect("a presented id");
                [r.start, r.end][k as usize % 2]
            }
        }
    }

    /// Value of the attribute with id `idx`.
    #[inline]
    pub fn value(&self, idx: u32) -> AttrValue<'_> {
        match idx.checked_sub(self.presented()) {
            None => AttrValue(Value::Stored(self.values.get(idx as usize))),
            Some(k) => {
                let r = self.regions.as_ref().expect("a presented id");
                let (start, end) = (r.source.region(k / 2)).expect("a presented id is annotated");
                AttrValue::decimal([start, end][k as usize % 2])
            }
        }
    }

    /// Value of the attribute of element `pre` named `name`, if present.
    #[inline]
    pub fn find(&self, pre: u32, name: NameId) -> Option<AttrValue<'_>> {
        self.named(pre, name).map(|a| self.value(a))
    }

    /// Document-order key of the attribute with id `idx`: after its
    /// owner element, before the element's first child, and among its
    /// owner's attributes in attribute order.
    #[inline]
    pub fn order_key(&self, idx: u32) -> (u32, u32) {
        let owner = self.owner(idx);
        let run = self.first[owner as usize];
        match idx.checked_sub(self.presented()) {
            None => (owner, 1 + idx - run),
            Some(k) => (owner, 1 + self.first[owner as usize + 1] - run + k % 2),
        }
    }

    /// The table a snapshot stores for this one, which presents
    /// `regions`: each element's two trailing rows dropped where they
    /// are `start` and then `end`, in that order, and their text is the
    /// canonical decimal of the element's one region. `None` when no row
    /// drops.
    pub fn without_region_rows(&self, regions: &RegionAttrs) -> Option<AttrTable> {
        let n = self.first.len() - 1;
        let (start, end) = (regions.start.0, regions.end.0);
        let mut first = Vec::with_capacity(n + 1);
        // The stored rows kept, as runs.
        let (mut kept, mut from, mut dropped) = (Vec::new(), 0, 0);
        for pre in 0..n {
            first.push(self.first[pre] - dropped);
            let hi = self.first[pre + 1] as usize;
            if hi < self.first[pre] as usize + 2
                || self.name[hi - 2] != start
                || self.name[hi - 1] != end
            {
                continue;
            }
            let canonical = |(s, e): (i64, i64)| {
                *AttrValue::decimal(s) == *self.values.get(hi - 2)
                    && *AttrValue::decimal(e) == *self.values.get(hi - 1)
            };
            if regions.source.region(pre as u32).is_some_and(canonical) {
                kept.push(from..hi - 2);
                from = hi;
                dropped += 2;
            }
        }
        if dropped == 0 {
            return None;
        }
        first.push(self.first[n] - dropped);
        kept.push(from..self.len());
        let rows = self.len() - dropped as usize;
        let (mut owner, mut name) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        let mut values = StrArenaBuilder::new();
        values.reserve(rows);
        for run in kept {
            owner.extend_from_slice(&self.owner[run.clone()]);
            name.extend_from_slice(&self.name[run.clone()]);
            values.extend_from(&self.values, run);
        }
        Some(AttrTable {
            first: first.into(),
            owner: owner.into(),
            name: name.into(),
            values: values.finish(),
            regions: Some(regions.clone()),
        })
    }

    /// The stored columns: `first`, `owner`, `name` and the values (the
    /// snapshot writer's hook).
    pub fn columns(&self) -> (&[u32], &[u32], &[u32], &StrArena) {
        (&self.first, &self.owner, &self.name, &self.values)
    }

    /// How a table of a layer with `annotated` annotated elements holds
    /// their region attributes: how many it would present under
    /// `regions` — two for each annotated element that stores no row
    /// named either — and how many rows it stores with their names.
    /// What `inspect` prints per layer; costs a region lookup per stored
    /// region row, not per element.
    pub fn region_rows(&self, regions: &RegionAttrs, annotated: u64) -> (u64, u64) {
        let (mut stored, mut claimed, mut last) = (0, 0, None);
        for (&name, &owner) in self.name.iter().zip(self.owner.iter()) {
            if name == regions.start.0 || name == regions.end.0 {
                stored += 1;
                if last != Some(owner) {
                    last = Some(owner);
                    claimed += u64::from(regions.source.region(owner).is_some());
                }
            }
        }
        (2 * annotated.saturating_sub(claimed), stored)
    }
}

/// Borrowed raw columns of a [`Document`] (see [`Document::storage`]).
pub struct DocumentStorageRef<'a> {
    pub names: &'a NameTable,
    pub kind_bytes: &'a [u8],
    pub size: &'a [u32],
    pub level: &'a [u16],
    pub parent: &'a [u32],
    pub name: &'a [u32],
    pub values: &'a StrArena,
    pub attr_first: &'a [u32],
    pub attr_owner: &'a [u32],
    pub attr_name: &'a [u32],
    pub attr_values: &'a StrArena,
    pub elem: &'a ElemIndex,
}

/// Owned node and attribute columns under construction — what the
/// builder appends to and [`Document::splice`] copies into.
#[derive(Default)]
pub(crate) struct Columns {
    pub(crate) kind: Vec<u8>,
    pub(crate) size: Vec<u32>,
    pub(crate) level: Vec<u16>,
    pub(crate) parent: Vec<u32>,
    pub(crate) name: Vec<u32>,
    pub(crate) values: StrArenaBuilder,
    pub(crate) attr_first: Vec<u32>,
    pub(crate) attr_owner: Vec<u32>,
    pub(crate) attr_name: Vec<u32>,
    pub(crate) attr_values: StrArenaBuilder,
}

impl Columns {
    /// One document over these columns, owned, its element index built
    /// by a counting scan; `fragment_starts` lists its level-0 rows when
    /// it is a container of several fragments (`doc/arena.rs`), and is
    /// empty otherwise. The caller guarantees a well-formed encoding
    /// with the `attr_first` terminator pushed.
    pub(crate) fn into_document(
        self,
        uri: Option<String>,
        names: Arc<NameTable>,
        fragment_starts: Vec<u32>,
    ) -> Document {
        debug_assert_eq!(self.attr_first.len(), self.kind.len() + 1);
        let kind = KindCol {
            raw: PodCol::owned(self.kind),
        };
        let elem = ElemIndex::build(&kind, &self.name, names.len());
        let doc = Document {
            uri,
            names,
            kind,
            name: self.name.into(),
            tree: Checked::ready(TreeColumns {
                size: self.size.into(),
                level: self.level.into(),
                parent: self.parent.into(),
                values: self.values.finish(),
            }),
            attr_count: self.attr_owner.len(),
            attrs: Checked::ready(AttrTable {
                first: self.attr_first.into(),
                owner: self.attr_owner.into(),
                name: self.attr_name.into(),
                values: self.attr_values.finish(),
                regions: None,
            }),
            elem,
            fragment_starts,
        };
        debug_assert_eq!(doc.check_invariants(), Ok(()));
        doc
    }
}

/// A single shredded XML document, or the container of one constructor
/// evaluation's fragments (`doc/arena.rs`).
///
/// Construct with [`crate::DocumentBuilder`] or [`crate::parse_document`];
/// this type is immutable after construction (annotation databases in the
/// paper are bulk-loaded, then queried).
///
/// Its columns fall in three groups. The node kinds, name ids, name
/// table and element-name index are read directly. The tree columns
/// ([`Document::tree`]) and the attribute table ([`Document::attrs`])
/// are each reached through a fallible accessor: a mounted document
/// verifies a group the first time it is read, a built one holds both
/// verified.
#[derive(Clone)]
pub struct Document {
    uri: Option<String>,
    names: Arc<NameTable>,
    // --- node columns read directly, indexed by pre rank ---
    kind: KindCol,
    name: PodCol<u32>,
    // --- tree columns, verified on first read when stored ---
    tree: Checked<TreeColumns>,
    // --- attribute table, verified on first read when stored ---
    attrs: Checked<AttrTable>,
    /// Attribute rows, known before the table is read.
    attr_count: usize,
    // --- element name index: CSR name -> pre ranks in document order ---
    elem: ElemIndex,
    /// A container's level-0 rows, ascending (see `doc/arena.rs`);
    /// empty for a document of one tree.
    fragment_starts: Vec<u32>,
}

impl Document {
    /// Assemble a document from raw (possibly buffer-backed) storage,
    /// validating the columns read directly (the node kinds were checked
    /// by [`KindCol::view`]): the name column's length and id range, and
    /// the element-name index's agreement with the columns. This is the
    /// trust boundary of the snapshot mount — a corrupted file fails
    /// here, cleanly. Each column is read once: name ids by a
    /// branch-free fold, then the element index against the columns. The
    /// tree columns and the attribute table are verified by their
    /// loaders the first time each is read ([`Document::tree`],
    /// [`Document::attrs`]).
    pub fn from_storage(parts: DocumentParts) -> Result<Document, String> {
        let n = parts.kind.len();
        if n == 0 {
            return Err("document has no nodes".into());
        }
        if parts.name.len() != n {
            return Err("node column lengths disagree".into());
        }
        let doc = Document {
            uri: parts.uri,
            names: Arc::new(parts.names),
            kind: parts.kind,
            name: parts.name,
            tree: Checked::deferred(parts.tree),
            attr_count: parts.attr_count,
            attrs: Checked::deferred(parts.attrs),
            elem: parts.elem,
            fragment_starts: Vec::new(),
        };
        // Column-wise folds, branch-free. `NameId::NONE` wraps to 0, every other id to itself + 1.
        let limit = u32::try_from(doc.names.len()).unwrap_or(u32::MAX);
        if doc.name.iter().fold(0, |m, &id| m.max(id.wrapping_add(1))) > limit {
            return Err("name id out of range".into());
        }
        let kind = doc.kind.raw_bytes();
        let elements = kind.iter().filter(|&&k| k == NodeKind::Element as u8);
        doc.elem
            .validate(&doc.kind, &doc.name, doc.names.len(), elements.count())?;
        Ok(doc)
    }

    /// The tree columns, verified: the first call on a mounted document
    /// runs the loader the mount handed over — it checksums and checks
    /// the stored columns, once — and the outcome is kept, so a group
    /// that failed fails every later call the same way. An operator asks
    /// this once per document and navigates the [`Tree`] it returns.
    #[inline]
    pub fn tree(&self) -> Result<Tree<'_>, Corrupt> {
        let cols = self.tree.get()?;
        Ok(Tree { doc: self, cols })
    }

    /// The attribute table, verified the way [`Document::tree`] verifies
    /// the tree columns. A mounted layer's table presents the region
    /// attributes its snapshot does not store ([`RegionAttrs`]), so
    /// every reader sees the rows the layer was parsed with.
    #[inline]
    pub fn attrs(&self) -> Result<&AttrTable, Corrupt> {
        self.attrs.get()
    }

    /// Verify every column group: what a writer asks before it copies a
    /// document, and `verify` of each layer.
    pub fn verify(&self) -> Result<(), Corrupt> {
        self.tree()?;
        self.attrs().map(drop)
    }

    /// Borrow the raw column storage (the snapshot writer's hook — each
    /// slice is dumped as one aligned section), every group verified
    /// first.
    pub fn storage(&self) -> Result<DocumentStorageRef<'_>, Corrupt> {
        let tree = self.tree.get()?;
        let attrs = self.attrs()?;
        Ok(DocumentStorageRef {
            names: &self.names,
            kind_bytes: self.kind.raw_bytes(),
            size: &tree.size,
            level: &tree.level,
            parent: &tree.parent,
            name: &self.name,
            values: &tree.values,
            attr_first: &attrs.first,
            attr_owner: &attrs.owner,
            attr_name: &attrs.name,
            attr_values: &attrs.values,
            elem: &self.elem,
        })
    }

    /// Are the node columns read directly zero-copy views over a mounted
    /// snapshot buffer (vs owned vectors)? Benches and tests use this to
    /// assert the mount path actually mounted.
    pub fn is_mounted(&self) -> bool {
        self.kind.is_view() && self.name.is_view()
    }

    /// The URI this document was registered under, if any.
    pub fn uri(&self) -> Option<&str> {
        self.uri.as_deref()
    }

    pub(crate) fn set_uri(&mut self, uri: String) {
        self.uri = Some(uri);
    }

    /// The node-kind column, one [`NodeKind`] byte per node.
    #[inline]
    pub fn kinds(&self) -> &[u8] {
        self.kind.raw_bytes()
    }

    /// Number of tree nodes (including the document node at pre 0).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kind.len()
    }

    /// Number of stored attribute rows (a mounted table presents its
    /// region attributes besides, [`AttrTable`]).
    #[inline]
    pub fn attr_count(&self) -> usize {
        self.attr_count
    }

    /// The document node (root of the first fragment; see
    /// [`Document::fragment_root`] for a container's others).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::tree(0)
    }

    /// QName table of this document.
    #[inline]
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Kind of the tree node at `pre`.
    #[inline]
    pub fn kind(&self, pre: u32) -> NodeKind {
        self.kind.get(pre as usize)
    }

    /// Name id of the tree node at `pre` (`NameId::NONE` for unnamed kinds).
    #[inline]
    pub fn name_id(&self, pre: u32) -> NameId {
        NameId(self.name[pre as usize])
    }

    /// Lexical name of a node (tree or attribute); empty for unnamed nodes.
    pub fn node_name(&self, id: NodeId) -> Result<String, Corrupt> {
        Ok(self.names.lexical(self.node_name_id(id)?))
    }

    /// Name id of a node (tree or attribute).
    pub fn node_name_id(&self, id: NodeId) -> Result<NameId, Corrupt> {
        Ok(match id.attr_index() {
            Some(a) => self.attrs()?.name_id(a),
            None => self.name_id(id.pre().expect("tree id")),
        })
    }

    /// The pre rank a node stands at: its own, or an attribute's owner's.
    #[inline]
    pub fn owner_pre(&self, id: NodeId) -> Result<u32, Corrupt> {
        match id.attr_index() {
            Some(a) => Ok(self.attrs()?.owner(a)),
            None => Ok(id.pre().expect("tree id")),
        }
    }

    /// Value of the attribute of element `pre` named `name`, if present.
    pub fn attribute(&self, pre: u32, name: &str) -> Result<Option<AttrValue<'_>>, Corrupt> {
        let Some(name) = self.names.get(name) else {
            return Ok(None);
        };
        Ok(self.attrs()?.find(pre, name))
    }

    /// Element pre ranks with the given name, in document order. Returns an
    /// empty slice when the name does not occur — this is the element-name
    /// index that produces *candidate sequences* for the StandOff joins
    /// (paper §4.3).
    pub fn elements_named(&self, name: &str) -> &[u32] {
        self.names
            .get(name)
            .map(|id| self.element_postings(id))
            .unwrap_or(&[])
    }

    /// [`Document::elements_named`] for an already-resolved name id: the
    /// postings list a named `descendant` step gallops over.
    #[inline]
    pub fn element_postings(&self, id: NameId) -> &[u32] {
        self.elem.lookup(id)
    }

    /// All element pre ranks in document order.
    pub fn all_elements(&self) -> Vec<u32> {
        (0..self.node_count() as u32)
            .filter(|&p| self.kind(p) == NodeKind::Element)
            .collect()
    }

    // ----- string value -----

    /// The typed-value string of a node per XPath: for elements and the
    /// document node, the concatenation of all descendant text nodes; for
    /// text/comment/PI nodes, their content; for attributes, their value.
    pub fn string_value(&self, id: NodeId) -> Result<String, Corrupt> {
        Ok(match id.attr_index() {
            Some(a) => self.attrs()?.value(a).to_string(),
            None => self.tree()?.string_value(id.pre().expect("tree id")),
        })
    }

    /// Document-order sort key for any node id. Attributes order after
    /// their owner element but before the element's first child, and among
    /// themselves by attribute-table index.
    #[inline]
    pub fn order_key(&self, id: NodeId) -> Result<(u32, u32), Corrupt> {
        match id.attr_index() {
            Some(a) => Ok(self.attrs()?.order_key(a)),
            None => Ok((id.pre().expect("tree id"), 0)),
        }
    }

    /// Validate internal invariants (used by tests and the builder in debug
    /// builds): sizes nest properly, levels and parents are consistent,
    /// attribute CSR is monotone. Every group is verified first.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.node_count() == 0 {
            return Err("document has no nodes".into());
        }
        let tree = self.tree.get().map_err(|e| e.to_string())?;
        let attrs = self.attrs().map_err(|e| e.to_string())?;
        let lengths = [
            tree.size.len(),
            tree.level.len(),
            tree.parent.len(),
            tree.values.len(),
            self.name.len(),
        ];
        if lengths.iter().any(|&len| len != self.node_count()) {
            return Err("node column lengths disagree".into());
        }
        if attrs.first.len() != self.node_count() + 1 {
            return Err("attr_first length mismatch".into());
        }
        tree.check_structure(&self.kind, self.fragment_starts())
            .map_err(|(_, e)| e)?;
        attrs.check_csr(self.node_count()).map_err(|(_, e)| e)
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("uri", &self.uri)
            .field("nodes", &self.node_count())
            .field("attrs", &self.attr_count())
            .field("mounted", &self.is_mounted())
            .field("fragments", &self.fragment_starts().len())
            .finish()
    }
}

/// Iterator over the children of a node.
pub struct Children<'d> {
    tree: Tree<'d>,
    next: Option<u32>,
    end: u32,
}

impl Iterator for Children<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let cur = self.next?;
        let following = cur + self.tree.size(cur) + 1;
        self.next = if following <= self.end {
            Some(following)
        } else {
            None
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DocumentBuilder;
    use crate::node::{NodeId, NodeKind};

    /// `<a><b x="1"/><c>t<d/></c></a>`
    fn sample() -> crate::Document {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.start_element("b");
        b.attribute("x", "1");
        b.end_element();
        b.start_element("c");
        b.text("t");
        b.start_element("d");
        b.end_element();
        b.end_element();
        b.end_element();
        b.finish().unwrap()
    }

    #[test]
    fn invariants_hold() {
        sample().check_invariants().unwrap();
    }

    /// A two-node document whose `size` column says `[1, u32::MAX]`:
    /// the element's subtree end does not fit in u32. Validation must
    /// refuse it in every build profile — neither panic on the overflow
    /// (debug) nor wrap it into an accepted tree (release).
    #[test]
    fn hostile_size_column_is_refused_not_wrapped() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.end_element();
        let d = b.finish().unwrap();
        assert_eq!(d.node_count(), 2);
        let tree = d.tree.get().unwrap().clone();
        let (column, err) = crate::TreeColumns::from_storage(
            crate::PodCol::owned(vec![1, u32::MAX]),
            tree.level,
            tree.parent,
            tree.values,
            &d.kind,
        )
        .err()
        .expect("a subtree past the end of the document was accepted");
        assert_eq!(column, "size");
        assert!(err.contains("leaks out of parent"), "{err}");
    }

    #[test]
    fn pre_size_level_encoding() {
        let d = sample();
        let t = d.tree().unwrap();
        // pre: 0=doc 1=a 2=b 3=c 4=t 5=d
        assert_eq!(d.node_count(), 6);
        assert_eq!(d.kind(0), NodeKind::Document);
        assert_eq!(d.kind(1), NodeKind::Element);
        assert_eq!(t.size(1), 4);
        assert_eq!(t.size(2), 0);
        assert_eq!(t.size(3), 2);
        assert_eq!(t.level(1), 1);
        assert_eq!(t.level(5), 3);
        assert_eq!(t.parent(5), 3);
    }

    #[test]
    fn children_iteration() {
        let d = sample();
        let t = d.tree().unwrap();
        let kids: Vec<u32> = t.children(1).collect();
        assert_eq!(kids, vec![2, 3]);
        let kids: Vec<u32> = t.children(3).collect();
        assert_eq!(kids, vec![4, 5]);
        assert_eq!(t.children(2).count(), 0);
    }

    #[test]
    fn descendants_range() {
        let t = sample();
        let t = t.tree().unwrap();
        let desc: Vec<u32> = t.descendants(1).collect();
        assert_eq!(desc, vec![2, 3, 4, 5]);
        assert_eq!(t.descendants(5).count(), 0);
    }

    #[test]
    fn sibling_navigation() {
        let d = sample();
        let t = d.tree().unwrap();
        assert_eq!(t.next_sibling(2), Some(3));
        assert_eq!(t.next_sibling(3), None);
        assert_eq!(t.first_child(3), Some(4));
        assert_eq!(t.first_child(2), None);
    }

    #[test]
    fn attribute_lookup() {
        let d = sample();
        assert_eq!(d.attribute(2, "x").unwrap().as_deref(), Some("1"));
        assert_eq!(d.attribute(2, "y").unwrap().as_deref(), None);
        assert_eq!(d.attribute(3, "x").unwrap().as_deref(), None);
        let attrs: Vec<NodeId> = d.attrs().unwrap().of(2).collect();
        assert_eq!(attrs.len(), 1);
        assert_eq!(d.node_name(attrs[0]).unwrap(), "x");
        assert_eq!(d.string_value(attrs[0]).unwrap(), "1");
    }

    #[test]
    fn string_values() {
        let d = sample();
        let value = |pre| d.string_value(NodeId::tree(pre)).unwrap();
        assert_eq!(value(1), "t");
        assert_eq!(value(3), "t");
        assert_eq!(value(4), "t");
        assert_eq!(value(5), "");
    }

    #[test]
    fn element_name_index() {
        let d = sample();
        assert_eq!(d.elements_named("b"), &[2]);
        assert_eq!(d.elements_named("nope"), &[] as &[u32]);
        assert_eq!(d.all_elements(), vec![1, 2, 3, 5]);
        assert!(!d.is_mounted(), "built documents own their columns");
    }

    #[test]
    fn elem_index_buckets_are_sorted() {
        let d = sample();
        let idx = &d.elem;
        assert!(idx.names.windows(2).all(|w| w[0] < w[1]));
        for k in 0..idx.names.len() {
            let (_, pres) = idx.bucket(k);
            assert!(pres.windows(2).all(|w| w[0] < w[1]));
        }
        idx.validate(&d.kind, &d.name, d.names.len(), 4).unwrap();
    }

    #[test]
    fn order_keys_interleave_attributes() {
        let d = sample();
        let key = |id| d.order_key(id).unwrap();
        let elem_b = key(NodeId::tree(2));
        let attr_x = key(NodeId::attr(0));
        let elem_c = key(NodeId::tree(3));
        assert!(elem_b < attr_x, "attribute sorts after owner");
        assert!(attr_x < elem_c, "attribute sorts before next element");
    }

    #[test]
    fn a_decimal_is_what_to_string_gives() {
        for n in [0, 7, -7, 10, 1_234_567_890, i64::MAX, i64::MIN] {
            assert_eq!(&*super::AttrValue::decimal(n), n.to_string());
        }
    }

    /// `<a><b x="1"/><c>t<d/></c></a>` with `b` and `d` annotated: `b`
    /// presents its region after its stored `x`, `d` presents it alone.
    #[test]
    fn presented_region_attributes_follow_the_stored_rows() {
        struct Regions;
        impl super::RegionSource for Regions {
            fn region(&self, pre: u32) -> Option<(i64, i64)> {
                [(2, (-3, 9)), (5, (4, 4))]
                    .into_iter()
                    .find_map(|(p, r)| (p == pre).then_some(r))
            }
        }
        let mut d = sample();
        let names = std::sync::Arc::make_mut(&mut d.names);
        let (start, end) = (names.intern("start"), names.intern("end"));
        let stored = d.attrs().unwrap().clone();
        let table = super::AttrTable {
            regions: Some(super::RegionAttrs {
                source: std::sync::Arc::new(Regions),
                start,
                end,
            }),
            ..stored
        };
        let attrs = |pre| -> Vec<(String, String, (u32, u32))> {
            (table.ids(pre))
                .map(|a| {
                    let name = d.names().lexical(table.name_id(a));
                    assert_eq!(table.owner(a), pre);
                    (name, table.value(a).to_string(), table.order_key(a))
                })
                .collect()
        };
        let row = |n: &str, v: &str, k| (n.to_string(), v.to_string(), k);
        let b = [
            row("x", "1", (2, 1)),
            row("start", "-3", (2, 2)),
            row("end", "9", (2, 3)),
        ];
        assert_eq!(attrs(2), b);
        assert_eq!(
            attrs(5),
            [row("start", "4", (5, 1)), row("end", "4", (5, 2))]
        );
        assert!(attrs(3).is_empty());
        assert_eq!(table.find(5, end).as_deref(), Some("4"));
        assert_eq!(table.named(3, start), None);
        let x = d.names().get("x").unwrap();
        assert_eq!(table.named(5, x), None);
    }

    #[test]
    fn is_ancestor_is_strict() {
        let d = sample();
        let t = d.tree().unwrap();
        assert!(t.is_ancestor(1, 5));
        assert!(t.is_ancestor(3, 4));
        assert!(!t.is_ancestor(3, 3));
        assert!(!t.is_ancestor(5, 3));
        assert!(!t.is_ancestor(2, 3));
    }
}
