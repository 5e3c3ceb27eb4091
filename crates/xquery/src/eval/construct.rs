//! Direct element constructors: every enclosed expression evaluated
//! once per scope, then one new fragment per iteration — all of one
//! evaluation's fragments rows of one container document (one builder,
//! one name table, one store document; see
//! [`DocumentBuilder::finish_container`]).
//!
//! What stays the same across iterations is resolved once per
//! evaluation: the constructors' names are interned before the first
//! fragment, each enclosed table is read through a forward cursor (its
//! iterations ascend, as the fragments do), and a run of copies from one
//! source document resolves that document's tables and name map once. A
//! copied element's attributes come with their values from one region
//! lookup ([`AttrTable::pairs`]).

use std::collections::HashMap;
use std::iter::Peekable;

use standoff_algebra::sequence::Groups;
use standoff_algebra::{Item, LlSeq};
use standoff_xml::{
    AttrTable, DocId, Document, DocumentBuilder, NameId, NameTable, NodeKind, NodeRef, Store, Tree,
};

use super::Evaluator;
use crate::error::QueryError;
use crate::plan::{PlanConstructor, PlanContent, PlanExpr};

/// One constructor evaluation's container under construction.
struct Container<'s> {
    builder: DocumentBuilder,
    /// Per source name table, its ids mapped to the container's
    /// (`NameId::NONE` until first used), so copied content is interned
    /// once per distinct name, not once per node — and once for all the
    /// fragments of another container, which share one table. The
    /// current source's map is out of here, in [`Source::ids`].
    names: HashMap<*const NameTable, Vec<NameId>>,
    /// The document the last copy read.
    source: Option<Source<'s>>,
    /// A copy's stack of elements whose end is still to be built.
    open: Vec<u32>,
}

/// A source document of copies, resolved for a run of copies from it.
struct Source<'s> {
    id: DocId,
    doc: &'s Document,
    attrs: &'s AttrTable,
    /// Its tree columns, once a copy of a tree node read them.
    tree: Option<Tree<'s>>,
    /// Its name table's ids mapped into the container's.
    ids: Vec<NameId>,
}

impl<'s> Container<'s> {
    fn new() -> Self {
        Container {
            builder: DocumentBuilder::new(),
            names: HashMap::new(),
            source: None,
            open: Vec::new(),
        }
    }

    /// Make document `id` of `store` the source, resolving its attribute
    /// table and name map unless it already is.
    fn read_from(&mut self, store: &'s Store, id: DocId) -> Result<(), QueryError> {
        if self.source.as_ref().is_none_or(|s| s.id != id) {
            let doc = store.doc(id);
            let attrs = doc.attrs()?;
            if let Some(done) = self.source.take() {
                self.names.insert(done.doc.names(), done.ids);
            }
            let table: *const NameTable = doc.names();
            let ids = (self.names.remove(&table))
                .unwrap_or_else(|| vec![NameId::NONE; doc.names().len()]);
            self.source = Some(Source {
                id,
                doc,
                attrs,
                tree: None,
                ids,
            });
        }
        Ok(())
    }
}

impl Source<'_> {
    /// Source name `id` as the container's.
    fn name(&mut self, builder: &mut DocumentBuilder, id: NameId) -> NameId {
        let slot = &mut self.ids[id.0 as usize];
        if slot.is_none() {
            *slot = builder.intern(&self.doc.names().lexical(id));
        }
        *slot
    }
}

/// What one evaluation's fragments read, in the order `build_element`
/// visits it: the enclosed tables and the interned names — an element's
/// name, then its attributes', then its children's.
struct Walk<'t> {
    /// Each table's groups, read one ascending iteration at a time.
    tables: Vec<Peekable<Groups<'t>>>,
    names: Vec<NameId>,
    /// The next table and name of the fragment being built.
    table: usize,
    name: usize,
}

impl<'t> Walk<'t> {
    /// The next table's items in iteration `iter`; every earlier
    /// iteration's were read before.
    fn next_group(&mut self, iter: u32) -> &'t [Item] {
        self.table += 1;
        let groups = &mut self.tables[self.table - 1];
        groups
            .next_if(|&(i, _)| i == iter)
            .map_or(&[], |(_, items)| items)
    }

    fn next_name(&mut self) -> NameId {
        self.name += 1;
        self.names[self.name - 1]
    }
}

/// Intern the names of constructor `c` and its descendants in
/// `build_element`'s order.
fn intern_names(c: &PlanConstructor, builder: &mut DocumentBuilder, out: &mut Vec<NameId>) {
    out.push(builder.intern(&c.name));
    for (name, _) in &c.attributes {
        out.push(builder.intern(name));
    }
    for part in &c.content {
        if let PlanContent::Element(child) = part {
            intern_names(child, builder, out);
        }
    }
}

/// Add an attribute to the element under construction, refusing one
/// after other content (XQTY0024) and a second one of the same name
/// (XQDY0025) instead of building malformed markup.
fn add_attribute(
    builder: &mut DocumentBuilder,
    name: NameId,
    lexical: impl FnOnce() -> String,
    value: &str,
) -> Result<(), QueryError> {
    if !builder.accepts_attributes() {
        return Err(QueryError::dynamic(format!(
            "type error XQTY0024: attribute '{}' follows other content of a constructed element",
            lexical()
        )));
    }
    if builder.has_attribute(name) {
        return Err(QueryError::dynamic(format!(
            "XQDY0025: attribute '{}' appears twice on a constructed element",
            lexical()
        )));
    }
    builder.attribute_named(name, value);
    Ok(())
}

impl Evaluator<'_> {
    pub(super) fn eval_constructor(
        &mut self,
        expr: &PlanExpr,
        c: &PlanConstructor,
    ) -> Result<LlSeq, QueryError> {
        // Evaluate every enclosed expression once (loop-lifted), then
        // assemble one element per iteration.
        let mut tables: Vec<LlSeq> = Vec::new();
        self.eval_constructor_exprs(c, &mut tables)?;
        let n = self.n_iters();
        if n == 0 {
            return Ok(LlSeq::empty());
        }
        let (container, bytes) = {
            let mut building = Container::new();
            let mut walk = Walk {
                tables: tables.iter().map(|t| t.groups().peekable()).collect(),
                names: Vec::new(),
                table: 0,
                name: 0,
            };
            intern_names(c, &mut building.builder, &mut walk.names);
            for iter in 0..n {
                (walk.table, walk.name) = (0, 0);
                self.build_element(c, iter, &mut walk, &mut building)?;
                building
                    .builder
                    .end_fragment()
                    .map_err(constructor_failed)?;
            }
            (building.builder)
                .finish_container()
                .map_err(constructor_failed)?
        };
        let doc = self.engine.store.add(container, None);
        // Iteration `k`'s element is the row after fragment `k`'s
        // document node.
        let items = (self.engine.store.doc(doc).fragment_starts().iter())
            .map(|&f| Item::Node(NodeRef::tree(doc, f + 1)))
            .collect();
        let bytes = bytes as u64;
        if let Some(p) = self.profile.as_deref_mut() {
            let m = p.op_mut(expr as *const PlanExpr as usize);
            m.fragments += n as u64;
            m.arena_bytes += bytes;
        }
        self.engine.note_constructed(n as u64, bytes)?;
        Ok(LlSeq::from_columns((0..n).collect(), items))
    }

    /// Depth-first evaluation of all enclosed expressions of a constructor
    /// tree, in syntactic order (matched by `build_element`'s walk).
    fn eval_constructor_exprs(
        &mut self,
        c: &PlanConstructor,
        tables: &mut Vec<LlSeq>,
    ) -> Result<(), QueryError> {
        for (_, parts) in &c.attributes {
            for part in parts {
                if let PlanContent::Enclosed(e) = part {
                    let t = self.eval(e)?;
                    tables.push(t);
                }
            }
        }
        for part in &c.content {
            match part {
                PlanContent::Enclosed(e) => {
                    let t = self.eval(e)?;
                    tables.push(t);
                }
                PlanContent::Element(child) => {
                    self.eval_constructor_exprs(child, tables)?;
                }
                PlanContent::Text(_) => {}
            }
        }
        Ok(())
    }

    fn build_element<'s>(
        &'s self,
        c: &PlanConstructor,
        iter: u32,
        walk: &mut Walk<'_>,
        container: &mut Container<'s>,
    ) -> Result<(), QueryError> {
        let store = &self.engine.store;
        container.builder.start_element_named(walk.next_name());
        for (attr_name, parts) in &c.attributes {
            let mut value = String::new();
            for part in parts {
                match part {
                    PlanContent::Text(t) => value.push_str(t),
                    PlanContent::Enclosed(_) => {
                        let mut first = true;
                        for item in walk.next_group(iter) {
                            if !first {
                                value.push(' ');
                            }
                            first = false;
                            value.push_str(&item.string_value(store)?);
                        }
                    }
                    PlanContent::Element(_) => unreachable!("no elements in attributes"),
                }
            }
            let name = walk.next_name();
            add_attribute(&mut container.builder, name, || attr_name.clone(), &value)?;
        }
        for part in &c.content {
            match part {
                PlanContent::Text(t) => {
                    container.builder.text(t);
                }
                PlanContent::Element(child) => {
                    self.build_element(child, iter, walk, container)?;
                }
                PlanContent::Enclosed(_) => {
                    let mut pending_atom = false;
                    for item in walk.next_group(iter) {
                        match item {
                            Item::Node(node) => {
                                copy_node(store, *node, container)?;
                                pending_atom = false;
                            }
                            atom => {
                                // Adjacent atoms joined with a space.
                                if pending_atom {
                                    container.builder.text(" ");
                                }
                                (container.builder).text(&atom.string_value(store)?);
                                pending_atom = true;
                            }
                        }
                    }
                }
            }
        }
        container.builder.end_element();
        Ok(())
    }
}

/// Deep-copy a node into the container (XQuery constructor content copy
/// semantics). Attribute nodes become attributes when they arrive
/// before any other content of the element under construction. The
/// copy reads the attribute table, and a subtree the tree columns.
fn copy_node<'s>(
    store: &'s Store,
    node: NodeRef,
    container: &mut Container<'s>,
) -> Result<(), QueryError> {
    container.read_from(store, node.doc)?;
    let Container {
        builder,
        source,
        open,
        ..
    } = container;
    let source = source.as_mut().expect("just resolved");
    if let Some(a) = node.id.attr_index() {
        let attrs = source.attrs;
        let name = source.name(builder, attrs.name_id(a));
        let lexical = || source.doc.names().lexical(attrs.name_id(a));
        return add_attribute(builder, name, lexical, &attrs.value(a));
    }
    let tree = match source.tree {
        Some(tree) => tree,
        None => *source.tree.insert(source.doc.tree()?),
    };
    let root = node.id.pre().expect("tree node");
    if source.doc.kind(root) == NodeKind::Document {
        for child in tree.children(root) {
            copy_subtree(source, tree, child, builder, open);
        }
    } else {
        copy_subtree(source, tree, root, builder, open);
    }
    Ok(())
}

/// Copy the subtree of the source rooted at `root` (not the document
/// node) into `builder`, non-recursively via the end-stack `open`.
fn copy_subtree(
    source: &mut Source<'_>,
    tree: Tree,
    root: u32,
    builder: &mut DocumentBuilder,
    open: &mut Vec<u32>,
) {
    let (doc, attrs) = (source.doc, source.attrs);
    let end = root + tree.size(root);
    open.clear();
    for pre in root..=end {
        while open.last().is_some_and(|&top| pre > top + tree.size(top)) {
            builder.end_element();
            open.pop();
        }
        match doc.kind(pre) {
            NodeKind::Element => {
                let name = source.name(builder, doc.name_id(pre));
                builder.start_element_named(name);
                attrs.pairs(pre, |name, value| {
                    let name = source.name(builder, name);
                    builder.attribute_named(name, value);
                });
                if tree.size(pre) == 0 {
                    builder.end_element();
                } else {
                    open.push(pre);
                }
            }
            NodeKind::Text => {
                builder.text(tree.value(pre));
            }
            NodeKind::Comment => {
                builder.comment(tree.value(pre));
            }
            NodeKind::Pi => {
                let target = source.name(builder, doc.name_id(pre));
                builder.pi_named(target, tree.value(pre));
            }
            NodeKind::Document => {}
        }
    }
    while open.pop().is_some() {
        builder.end_element();
    }
}

fn constructor_failed(e: standoff_xml::XmlError) -> QueryError {
    QueryError::internal(format!("constructor failed: {e}"))
}
