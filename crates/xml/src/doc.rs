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
//! it was mounted (see `standoff-store`'s snapshot format). The element-name
//! index is a CSR over `(name id → element pre ranks)` — persisted by the
//! snapshot writer and mounted as-is, never rebuilt through a hash map.

use std::fmt;
use std::io;
use std::ops::Range;

use crate::column::{PodCol, SharedBytes, StrArena};
use crate::name::{NameId, NameTable};
use crate::node::{NodeId, NodeKind};

/// The node-kind column: a validated `u8` column. View construction
/// rejects any byte that is not a [`NodeKind`] discriminant, so `get`
/// can reinterpret without a per-access check.
#[derive(Clone, Default, Debug)]
pub struct KindCol {
    raw: PodCol<u8>,
}

impl KindCol {
    /// Owned backend (parse/build path — values are valid by type).
    fn from_kinds(kinds: Vec<NodeKind>) -> KindCol {
        KindCol {
            raw: PodCol::owned(kinds.into_iter().map(|k| k as u8).collect()),
        }
    }

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
/// by the snapshot mount path, then validated as a whole by
/// [`Document::from_storage`].
pub struct DocumentParts {
    pub uri: Option<String>,
    pub names: NameTable,
    pub kind: KindCol,
    pub size: PodCol<u32>,
    pub level: PodCol<u16>,
    pub parent: PodCol<u32>,
    /// Raw name ids (`NameId::NONE` = `u32::MAX` for unnamed kinds).
    pub name: PodCol<u32>,
    pub values: StrArena,
    pub attr_first: PodCol<u32>,
    pub attr_owner: PodCol<u32>,
    pub attr_name: PodCol<u32>,
    pub attr_values: StrArena,
    pub elem: ElemIndex,
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

/// A single shredded XML document (fragment).
///
/// Construct with [`crate::DocumentBuilder`] or [`crate::parse_document`];
/// this type is immutable after construction (annotation databases in the
/// paper are bulk-loaded, then queried).
#[derive(Clone)]
pub struct Document {
    uri: Option<String>,
    names: NameTable,
    // --- tree node columns, indexed by pre rank ---
    kind: KindCol,
    size: PodCol<u32>,
    level: PodCol<u16>,
    parent: PodCol<u32>,
    name: PodCol<u32>,
    values: StrArena,
    // --- attribute table (CSR over owner pre rank) ---
    attr_first: PodCol<u32>,
    attr_owner: PodCol<u32>,
    attr_name: PodCol<u32>,
    attr_values: StrArena,
    // --- element name index: CSR name -> pre ranks in document order ---
    elem: ElemIndex,
}

impl Document {
    /// Internal constructor used by the builder: owned columns, element
    /// index built by counting scan. The caller guarantees column
    /// validity (the builder by construction).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_columns(
        uri: Option<String>,
        names: NameTable,
        kind: Vec<NodeKind>,
        size: Vec<u32>,
        level: Vec<u16>,
        parent: Vec<u32>,
        name: Vec<NameId>,
        values: StrArena,
        attr_first: Vec<u32>,
        attr_owner: Vec<u32>,
        attr_name: Vec<NameId>,
        attr_values: StrArena,
    ) -> Self {
        debug_assert_eq!(attr_first.len(), kind.len() + 1);
        let kind = KindCol::from_kinds(kind);
        let name: Vec<u32> = name.into_iter().map(|id| id.0).collect();
        let elem = ElemIndex::build(&kind, &name, names.len());
        Document {
            uri,
            names,
            kind,
            size: size.into(),
            level: level.into(),
            parent: parent.into(),
            name: name.into(),
            values,
            attr_first: attr_first.into(),
            attr_owner: attr_owner.into(),
            attr_name: PodCol::owned(attr_name.into_iter().map(|id| id.0).collect()),
            attr_values,
            elem,
        }
    }

    /// Assemble a document from raw (possibly buffer-backed) storage,
    /// validating **everything** (the node kinds were checked by
    /// [`KindCol::view`]): column arity, name-id ranges, the structural
    /// pre/size/level invariants, attribute CSR consistency, and the
    /// element-name index's agreement with the columns. This is the single
    /// trust boundary of the snapshot mount — a corrupted file fails here,
    /// cleanly. Each column is read once: name ids by branch-free folds,
    /// the element index against the columns, then the structural rules
    /// by one pre-order pass.
    pub fn from_storage(parts: DocumentParts) -> Result<Document, String> {
        let n = parts.kind.len();
        if n == 0 {
            return Err("document has no nodes".into());
        }
        if parts.size.len() != n
            || parts.level.len() != n
            || parts.parent.len() != n
            || parts.name.len() != n
            || parts.values.len() != n
        {
            return Err("node column lengths disagree".into());
        }
        if parts.attr_first.len() != n + 1 {
            return Err("attr_first length mismatch".into());
        }
        let a = parts.attr_name.len();
        if parts.attr_owner.len() != a || parts.attr_values.len() != a {
            return Err("attribute column lengths disagree".into());
        }
        let doc = Document {
            uri: parts.uri,
            names: parts.names,
            kind: parts.kind,
            size: parts.size,
            level: parts.level,
            parent: parts.parent,
            name: parts.name,
            values: parts.values,
            attr_first: parts.attr_first,
            attr_owner: parts.attr_owner,
            attr_name: parts.attr_name,
            attr_values: parts.attr_values,
            elem: parts.elem,
        };
        // Column-wise folds, branch-free. `NameId::NONE` wraps to 0, every other id to itself + 1.
        let limit = u32::try_from(doc.names.len()).unwrap_or(u32::MAX);
        if doc.name.iter().fold(0, |m, &id| m.max(id.wrapping_add(1))) > limit {
            return Err("name id out of range".into());
        }
        if !doc.attr_name.is_empty() && doc.attr_name.iter().fold(0, |m, &id| m.max(id)) >= limit {
            return Err("attribute name out of range".into());
        }
        let kind = doc.kind.raw_bytes();
        let elements = kind.iter().filter(|&&k| k == NodeKind::Element as u8);
        doc.elem
            .validate(&doc.kind, &doc.name, doc.names.len(), elements.count())?;
        doc.check_structure()?;
        Ok(doc)
    }

    /// Borrow the raw column storage (the snapshot writer's hook — each
    /// slice is dumped as one aligned section).
    pub fn storage(&self) -> DocumentStorageRef<'_> {
        DocumentStorageRef {
            names: &self.names,
            kind_bytes: self.kind.raw_bytes(),
            size: &self.size,
            level: &self.level,
            parent: &self.parent,
            name: &self.name,
            values: &self.values,
            attr_first: &self.attr_first,
            attr_owner: &self.attr_owner,
            attr_name: &self.attr_name,
            attr_values: &self.attr_values,
            elem: &self.elem,
        }
    }

    /// Are the bulk node columns zero-copy views over a mounted snapshot
    /// buffer (vs owned vectors)? Benches and tests use this to assert
    /// the mount path actually mounted.
    pub fn is_mounted(&self) -> bool {
        self.kind.is_view() && self.size.is_view() && self.values.is_view()
    }

    /// The URI this document was registered under, if any.
    pub fn uri(&self) -> Option<&str> {
        self.uri.as_deref()
    }

    pub(crate) fn set_uri(&mut self, uri: String) {
        self.uri = Some(uri);
    }

    /// Number of tree nodes (including the document node at pre 0).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kind.len()
    }

    /// Number of attribute nodes.
    #[inline]
    pub fn attr_count(&self) -> usize {
        self.attr_name.len()
    }

    /// The document node (root of the fragment).
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

    /// Subtree size (descendant count) of the tree node at `pre`.
    #[inline]
    pub fn size(&self, pre: u32) -> u32 {
        self.size[pre as usize]
    }

    /// Depth of the tree node at `pre` (document node has level 0).
    #[inline]
    pub fn level(&self, pre: u32) -> u16 {
        self.level[pre as usize]
    }

    /// Parent pre rank of the tree node at `pre` (the document node is its
    /// own parent).
    #[inline]
    pub fn parent(&self, pre: u32) -> u32 {
        self.parent[pre as usize]
    }

    /// Name id of the tree node at `pre` (`NameId::NONE` for unnamed kinds).
    #[inline]
    pub fn name_id(&self, pre: u32) -> NameId {
        NameId(self.name[pre as usize])
    }

    /// Lexical name of a node (tree or attribute); empty for unnamed nodes.
    pub fn node_name(&self, id: NodeId) -> String {
        self.names.lexical(self.node_name_id(id))
    }

    /// Name id of a node (tree or attribute).
    pub fn node_name_id(&self, id: NodeId) -> NameId {
        match id.attr_index() {
            Some(a) => NameId(self.attr_name[a as usize]),
            None => self.name_id(id.pre().expect("tree id")),
        }
    }

    /// Kind of a node id; attributes report as `None` (they have no
    /// [`NodeKind`]; callers branch on [`NodeId::is_attr`] first).
    pub fn tree_kind(&self, id: NodeId) -> Option<NodeKind> {
        id.pre().map(|p| self.kind(p))
    }

    /// Raw value column of the tree node at `pre` (text/comment/PI content).
    #[inline]
    pub fn value(&self, pre: u32) -> &str {
        self.values.get(pre as usize)
    }

    // ----- attributes -----

    /// Attribute-table index range of the element at `pre`.
    #[inline]
    pub fn attr_range(&self, pre: u32) -> std::ops::Range<u32> {
        self.attr_first[pre as usize]..self.attr_first[pre as usize + 1]
    }

    /// Attribute node ids of the element at `pre`, in attribute order.
    pub fn attributes(&self, pre: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.attr_range(pre).map(NodeId::attr)
    }

    /// Owner element pre rank of the attribute with table index `idx`.
    #[inline]
    pub fn attr_owner(&self, idx: u32) -> u32 {
        self.attr_owner[idx as usize]
    }

    /// Name id of the attribute with table index `idx`.
    #[inline]
    pub fn attr_name_id(&self, idx: u32) -> NameId {
        NameId(self.attr_name[idx as usize])
    }

    /// Value of the attribute with table index `idx`.
    #[inline]
    pub fn attr_value(&self, idx: u32) -> &str {
        self.attr_values.get(idx as usize)
    }

    /// Value of the attribute of element `pre` named `name`, if present.
    pub fn attribute(&self, pre: u32, name: &str) -> Option<&str> {
        let name_id = self.names.get(name)?;
        self.attr_range(pre)
            .find(|&a| self.attr_name[a as usize] == name_id.0)
            .map(|a| self.attr_values.get(a as usize))
    }

    /// Attribute node id of element `pre` with name id `name_id`.
    pub fn attribute_by_id(&self, pre: u32, name_id: NameId) -> Option<NodeId> {
        self.attr_range(pre)
            .find(|&a| self.attr_name[a as usize] == name_id.0)
            .map(NodeId::attr)
    }

    // ----- navigation -----

    /// First child of the node at `pre`, if any.
    #[inline]
    pub fn first_child(&self, pre: u32) -> Option<u32> {
        if self.size(pre) > 0 {
            Some(pre + 1)
        } else {
            None
        }
    }

    /// Next sibling of the node at `pre`, if any.
    #[inline]
    pub fn next_sibling(&self, pre: u32) -> Option<u32> {
        if pre == 0 {
            return None; // document node
        }
        let parent = self.parent(pre);
        let next = pre + self.size(pre) + 1;
        if next <= parent + self.size(parent) {
            Some(next)
        } else {
            None
        }
    }

    /// Children of the node at `pre`, in document order.
    pub fn children(&self, pre: u32) -> Children<'_> {
        Children {
            doc: self,
            next: self.first_child(pre),
            end: pre + self.size(pre),
        }
    }

    /// Pre ranks of the subtree rooted at `pre`, *excluding* `pre` itself.
    #[inline]
    pub fn descendants(&self, pre: u32) -> std::ops::RangeInclusive<u32> {
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
    pub fn is_ancestor(&self, anc: u32, desc: u32) -> bool {
        anc < desc && desc <= anc + self.size(anc)
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
    pub fn string_value(&self, id: NodeId) -> String {
        match id.attr_index() {
            Some(a) => self.attr_values.get(a as usize).to_string(),
            None => {
                let pre = id.pre().expect("tree id");
                match self.kind(pre) {
                    NodeKind::Text | NodeKind::Comment | NodeKind::Pi => {
                        self.value(pre).to_string()
                    }
                    NodeKind::Element | NodeKind::Document => {
                        let mut out = String::new();
                        for d in self.descendants(pre) {
                            if self.kind(d) == NodeKind::Text {
                                out.push_str(self.value(d));
                            }
                        }
                        out
                    }
                }
            }
        }
    }

    /// Document-order sort key for any node id. Attributes order after
    /// their owner element but before the element's first child, and among
    /// themselves by attribute-table index.
    #[inline]
    pub fn order_key(&self, id: NodeId) -> (u32, u32) {
        match id.attr_index() {
            Some(a) => (
                self.attr_owner[a as usize],
                1 + a - self.attr_first[self.attr_owner[a as usize] as usize],
            ),
            None => (id.pre().expect("tree id"), 0),
        }
    }

    /// Validate internal invariants (used by tests and the builder in debug
    /// builds): sizes nest properly, levels and parents are consistent,
    /// attribute CSR is monotone.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.node_count() == 0 {
            return Err("document has no nodes".into());
        }
        if self.attr_first.len() != self.node_count() + 1 {
            return Err("attr_first length mismatch".into());
        }
        self.check_structure()
    }

    /// The structural rules in order, each column read once: one
    /// pre-order pass for the parent/size/level rules, one over the
    /// attribute runs. Needs a non-empty document and `attr_first` to
    /// hold `node_count + 1` entries; nothing else is assumed, so hostile
    /// columns cannot make it index out of bounds.
    fn check_structure(&self) -> Result<(), String> {
        let n = self.node_count();
        if self.kind(0) != NodeKind::Document {
            return Err("pre 0 is not the document node".into());
        }
        if self.size(0) as usize != n - 1 {
            return Err(format!(
                "document node size {} != node count - 1 ({})",
                self.size(0),
                n - 1
            ));
        }
        let (size, level, parent) = (&self.size[..n], &self.level[..n], &self.parent[..n]);
        for pre in 1..n {
            // The rules of `node_error`, without branches: a parent at or
            // after the node fails it, so any in-bounds row stands in.
            let up = parent[pre] as usize;
            let p = if up < pre { up } else { 0 };
            let end = |p: usize| p as u64 + size[p] as u64;
            if (up >= pre)
                | (pre as u64 > end(p))
                | (level[pre] as u32 != level[p] as u32 + 1)
                | (end(pre) > end(p))
            {
                return Err(self.node_error(pre as u32));
            }
        }
        // With owners non-decreasing from run 0, a run whose first and
        // last attribute name its node holds only that node's.
        let (attr_first, owner) = (&self.attr_first[..=n], &self.attr_owner[..]);
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
            return Err("attr_first not monotone".into());
        }
        if attr_first[n] as usize != owner.len() {
            return Err("attr_first does not cover attribute table".into());
        }
        if owners_match {
            return Ok(());
        }
        // Monotone and covering, so the runs partition the table: the
        // first attribute outside its owner's run is named.
        for (i, &owner) in self.attr_owner.iter().enumerate() {
            if owner as usize >= n {
                return Err(format!("attribute {i} owner out of range"));
            }
            if !self.attr_range(owner).contains(&(i as u32)) {
                return Err(format!("attribute {i} owner CSR mismatch"));
            }
        }
        unreachable!("a run holds an attribute of another node")
    }

    /// The rule node `pre` (≥ 1) breaks: its parent comes before it, it
    /// lies inside its parent's subtree one level down, and its own
    /// subtree ends inside its parent's. Only asked of a node
    /// [`Document::check_structure`] found breaking one.
    #[cold]
    fn node_error(&self, pre: u32) -> String {
        let parent = self.parent(pre);
        if parent >= pre {
            return format!("node {pre} has parent {parent} >= itself");
        }
        // Subtree ends are summed in u64: a hostile `size` column must
        // fail here, not wrap past the parent's end.
        let end = |p: u32| p as u64 + self.size(p) as u64;
        if pre as u64 > end(parent) {
            return format!("node {pre} outside parent {parent} region");
        }
        if self.level(pre) as u32 != self.level(parent) as u32 + 1 {
            return format!("node {pre} level inconsistent with parent");
        }
        format!("node {pre} subtree leaks out of parent")
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("uri", &self.uri)
            .field("nodes", &self.node_count())
            .field("attrs", &self.attr_count())
            .field("mounted", &self.is_mounted())
            .finish()
    }
}

/// Iterator over the children of a node.
pub struct Children<'d> {
    doc: &'d Document,
    next: Option<u32>,
    end: u32,
}

impl Iterator for Children<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let cur = self.next?;
        let following = cur + self.doc.size(cur) + 1;
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
    /// (debug) nor wrap it into an accepted document (release).
    #[test]
    fn hostile_size_column_is_refused_not_wrapped() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.end_element();
        let d = b.finish().unwrap();
        assert_eq!(d.node_count(), 2);
        let parts = crate::DocumentParts {
            uri: None,
            names: d.names.clone(),
            kind: d.kind.clone(),
            size: crate::PodCol::owned(vec![1, u32::MAX]),
            level: d.level.clone(),
            parent: d.parent.clone(),
            name: d.name.clone(),
            values: d.values.clone(),
            attr_first: d.attr_first.clone(),
            attr_owner: d.attr_owner.clone(),
            attr_name: d.attr_name.clone(),
            attr_values: d.attr_values.clone(),
            elem: d.elem.clone(),
        };
        let err = crate::Document::from_storage(parts)
            .expect_err("a subtree past the end of the document was accepted");
        assert!(err.contains("leaks out of parent"), "{err}");
    }

    #[test]
    fn pre_size_level_encoding() {
        let d = sample();
        // pre: 0=doc 1=a 2=b 3=c 4=t 5=d
        assert_eq!(d.node_count(), 6);
        assert_eq!(d.kind(0), NodeKind::Document);
        assert_eq!(d.kind(1), NodeKind::Element);
        assert_eq!(d.size(1), 4);
        assert_eq!(d.size(2), 0);
        assert_eq!(d.size(3), 2);
        assert_eq!(d.level(1), 1);
        assert_eq!(d.level(5), 3);
        assert_eq!(d.parent(5), 3);
    }

    #[test]
    fn children_iteration() {
        let d = sample();
        let kids: Vec<u32> = d.children(1).collect();
        assert_eq!(kids, vec![2, 3]);
        let kids: Vec<u32> = d.children(3).collect();
        assert_eq!(kids, vec![4, 5]);
        assert_eq!(d.children(2).count(), 0);
    }

    #[test]
    fn descendants_range() {
        let d = sample();
        let desc: Vec<u32> = d.descendants(1).collect();
        assert_eq!(desc, vec![2, 3, 4, 5]);
        assert_eq!(d.descendants(5).count(), 0);
    }

    #[test]
    fn sibling_navigation() {
        let d = sample();
        assert_eq!(d.next_sibling(2), Some(3));
        assert_eq!(d.next_sibling(3), None);
        assert_eq!(d.first_child(3), Some(4));
        assert_eq!(d.first_child(2), None);
    }

    #[test]
    fn attribute_lookup() {
        let d = sample();
        assert_eq!(d.attribute(2, "x"), Some("1"));
        assert_eq!(d.attribute(2, "y"), None);
        assert_eq!(d.attribute(3, "x"), None);
        let attrs: Vec<NodeId> = d.attributes(2).collect();
        assert_eq!(attrs.len(), 1);
        assert_eq!(d.node_name(attrs[0]), "x");
        assert_eq!(d.string_value(attrs[0]), "1");
    }

    #[test]
    fn string_values() {
        let d = sample();
        assert_eq!(d.string_value(NodeId::tree(1)), "t");
        assert_eq!(d.string_value(NodeId::tree(3)), "t");
        assert_eq!(d.string_value(NodeId::tree(4)), "t");
        assert_eq!(d.string_value(NodeId::tree(5)), "");
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
        let elem_b = d.order_key(NodeId::tree(2));
        let attr_x = d.order_key(NodeId::attr(0));
        let elem_c = d.order_key(NodeId::tree(3));
        assert!(elem_b < attr_x, "attribute sorts after owner");
        assert!(attr_x < elem_c, "attribute sorts before next element");
    }

    #[test]
    fn is_ancestor_is_strict() {
        let d = sample();
        assert!(d.is_ancestor(1, 5));
        assert!(d.is_ancestor(3, 4));
        assert!(!d.is_ancestor(3, 3));
        assert!(!d.is_ancestor(5, 3));
        assert!(!d.is_ancestor(2, 3));
    }
}
