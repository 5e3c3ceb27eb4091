//! Direct element constructors: every enclosed expression evaluated
//! once per scope, then one new fragment per iteration — all of one
//! evaluation's fragments rows of one container document (one builder,
//! one name table, one store document; see
//! [`DocumentBuilder::finish_container`]).

use std::collections::HashMap;

use standoff_algebra::{Item, LlSeq};
use standoff_xml::{
    AttrTable, Document, DocumentBuilder, NameId, NameTable, NodeKind, NodeRef, Tree,
};

use super::Evaluator;
use crate::error::QueryError;
use crate::plan::{PlanConstructor, PlanContent, PlanExpr};

/// One constructor evaluation's container under construction.
struct Container {
    builder: DocumentBuilder,
    /// Per source name table, its ids mapped to the container's
    /// (`NameId::NONE` until first used), so copied content is interned
    /// once per distinct name, not once per node — and once for all the
    /// fragments of another container, which share one table.
    names: HashMap<*const NameTable, Vec<NameId>>,
}

impl Container {
    /// The map of source name table `table`.
    fn memo<'a>(&'a mut self, table: &'a NameTable) -> (&'a mut DocumentBuilder, Names<'a>) {
        let ids = (self.names.entry(table as *const NameTable))
            .or_insert_with(|| vec![NameId::NONE; table.len()]);
        (&mut self.builder, Names { table, ids })
    }
}

/// A source name table's ids, mapped into a container's name table.
struct Names<'a> {
    table: &'a NameTable,
    ids: &'a mut Vec<NameId>,
}

impl Names<'_> {
    fn get(&mut self, builder: &mut DocumentBuilder, id: NameId) -> NameId {
        let slot = &mut self.ids[id.0 as usize];
        if slot.is_none() {
            *slot = builder.intern(&self.table.lexical(id));
        }
        *slot
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
        let mut building = Container {
            builder: DocumentBuilder::new(),
            names: HashMap::new(),
        };
        for iter in 0..n {
            let mut cursor = 0usize;
            self.build_element(c, iter, &tables, &mut cursor, &mut building)?;
            building
                .builder
                .end_fragment()
                .map_err(constructor_failed)?;
        }
        let (container, bytes) = (building.builder)
            .finish_container()
            .map_err(constructor_failed)?;
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
    /// tree, in syntactic order (matched by `build_element`'s cursor).
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

    fn build_element(
        &self,
        c: &PlanConstructor,
        iter: u32,
        tables: &[LlSeq],
        cursor: &mut usize,
        container: &mut Container,
    ) -> Result<(), QueryError> {
        container.builder.start_element(&c.name);
        for (attr_name, parts) in &c.attributes {
            let mut value = String::new();
            for part in parts {
                match part {
                    PlanContent::Text(t) => value.push_str(t),
                    PlanContent::Enclosed(_) => {
                        let t = &tables[*cursor];
                        *cursor += 1;
                        let mut first = true;
                        for item in t.group(iter) {
                            if !first {
                                value.push(' ');
                            }
                            first = false;
                            value.push_str(&item.string_value(&self.engine.store)?);
                        }
                    }
                    PlanContent::Element(_) => unreachable!("no elements in attributes"),
                }
            }
            let name = container.builder.intern(attr_name);
            add_attribute(&mut container.builder, name, || attr_name.clone(), &value)?;
        }
        for part in &c.content {
            match part {
                PlanContent::Text(t) => {
                    container.builder.text(t);
                }
                PlanContent::Element(child) => {
                    self.build_element(child, iter, tables, cursor, container)?;
                }
                PlanContent::Enclosed(_) => {
                    let t = &tables[*cursor];
                    *cursor += 1;
                    let mut pending_atom = false;
                    for item in t.group(iter) {
                        match item {
                            Item::Node(node) => {
                                self.copy_node(*node, container)?;
                                pending_atom = false;
                            }
                            atom => {
                                // Adjacent atoms joined with a space.
                                if pending_atom {
                                    container.builder.text(" ");
                                }
                                (container.builder).text(&atom.string_value(&self.engine.store)?);
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

    /// Deep-copy a node into the container (XQuery constructor content copy
    /// semantics). Attribute nodes become attributes when they arrive
    /// before any other content of the element under construction. The
    /// copy reads the attribute table, and a subtree the tree columns.
    fn copy_node(&self, node: NodeRef, container: &mut Container) -> Result<(), QueryError> {
        let doc = self.engine.store.doc(node.doc);
        let attrs = doc.attrs()?;
        let (builder, mut names) = container.memo(doc.names());
        if let Some(a) = node.id.attr_index() {
            let name = names.get(builder, attrs.name_id(a));
            let lexical = || doc.names().lexical(attrs.name_id(a));
            return add_attribute(builder, name, lexical, &attrs.value(a));
        }
        let source = (doc, doc.tree()?, attrs);
        let root = node.id.pre().expect("tree node");
        if doc.kind(root) == NodeKind::Document {
            for child in source.1.children(root) {
                copy_subtree(source, child, builder, &mut names);
            }
        } else {
            copy_subtree(source, root, builder, &mut names);
        }
        Ok(())
    }
}

/// Copy the subtree of `doc` rooted at `root` (not the document node)
/// into `builder`, non-recursively via an explicit end-stack.
fn copy_subtree(
    (doc, tree, attrs): (&Document, Tree, &AttrTable),
    root: u32,
    builder: &mut DocumentBuilder,
    names: &mut Names<'_>,
) {
    let end = root + tree.size(root);
    let mut open: Vec<u32> = Vec::new();
    for pre in root..=end {
        while open.last().is_some_and(|&top| pre > top + tree.size(top)) {
            builder.end_element();
            open.pop();
        }
        match doc.kind(pre) {
            NodeKind::Element => {
                let name = names.get(builder, doc.name_id(pre));
                builder.start_element_named(name);
                for a in attrs.ids(pre) {
                    let name = names.get(builder, attrs.name_id(a));
                    builder.attribute_named(name, &attrs.value(a));
                }
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
                let target = names.get(builder, doc.name_id(pre));
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
