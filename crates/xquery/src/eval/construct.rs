//! Direct element constructors: every enclosed expression evaluated
//! once per scope, then one new document per iteration.

use standoff_algebra::{Item, LlSeq};
use standoff_xml::{DocumentBuilder, NodeKind, NodeRef};

use super::Evaluator;
use crate::error::QueryError;
use crate::plan::{PlanConstructor, PlanContent};

impl Evaluator<'_> {
    pub(super) fn eval_constructor(&mut self, c: &PlanConstructor) -> Result<LlSeq, QueryError> {
        // Evaluate every enclosed expression once (loop-lifted), then
        // assemble one element per iteration.
        let mut tables: Vec<LlSeq> = Vec::new();
        self.eval_constructor_exprs(c, &mut tables)?;
        let n = self.n_iters();
        let mut out = LlSeq::empty();
        for iter in 0..n {
            let mut builder = DocumentBuilder::new();
            let mut cursor = 0usize;
            self.build_element(c, iter, &tables, &mut cursor, &mut builder)?;
            let doc = builder
                .finish()
                .map_err(|e| QueryError::dynamic(format!("constructor failed: {e}")))?;
            let doc_id = self.engine.store.add(doc, None);
            out.push(iter, Item::Node(NodeRef::tree(doc_id, 1)));
        }
        Ok(out)
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
        builder: &mut DocumentBuilder,
    ) -> Result<(), QueryError> {
        builder.start_element(&c.name);
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
                            value.push_str(&item.string_value(&self.engine.store));
                        }
                    }
                    PlanContent::Element(_) => unreachable!("no elements in attributes"),
                }
            }
            builder.attribute(attr_name, &value);
        }
        for part in &c.content {
            match part {
                PlanContent::Text(t) => {
                    builder.text(t);
                }
                PlanContent::Element(child) => {
                    self.build_element(child, iter, tables, cursor, builder)?;
                }
                PlanContent::Enclosed(_) => {
                    let t = &tables[*cursor];
                    *cursor += 1;
                    let mut pending_atom = false;
                    for item in t.group(iter) {
                        match item {
                            Item::Node(node) => {
                                self.copy_node(*node, builder)?;
                                pending_atom = false;
                            }
                            atom => {
                                // Adjacent atoms joined with a space.
                                if pending_atom {
                                    builder.text(" ");
                                }
                                builder.text(&atom.string_value(&self.engine.store));
                                pending_atom = true;
                            }
                        }
                    }
                }
            }
        }
        builder.end_element();
        Ok(())
    }

    /// Deep-copy a node into the builder (XQuery constructor content copy
    /// semantics). Attribute nodes become attributes when they arrive
    /// before any other content of the element under construction.
    fn copy_node(&self, node: NodeRef, builder: &mut DocumentBuilder) -> Result<(), QueryError> {
        let doc = self.engine.store.doc(node.doc);
        if let Some(a) = node.id.attr_index() {
            let name = doc.names().lexical(doc.attr_name_id(a));
            builder.attribute(&name, doc.attr_value(a));
            return Ok(());
        }
        let root = node.id.pre().expect("tree node");
        match doc.kind(root) {
            NodeKind::Document => {
                for child in doc.children(root) {
                    self.copy_node(NodeRef::tree(node.doc, child), builder)?;
                }
                return Ok(());
            }
            NodeKind::Text => {
                builder.text(doc.value(root));
                return Ok(());
            }
            NodeKind::Comment => {
                builder.comment(doc.value(root));
                return Ok(());
            }
            NodeKind::Pi => {
                let name = doc.names().lexical(doc.name_id(root));
                builder.pi(&name, doc.value(root));
                return Ok(());
            }
            NodeKind::Element => {}
        }
        // Non-recursive subtree copy via an explicit end-stack.
        let end = root + doc.size(root);
        let mut open: Vec<u32> = Vec::new();
        let mut pre = root;
        while pre <= end {
            while let Some(&top) = open.last() {
                if pre > top + doc.size(top) {
                    builder.end_element();
                    open.pop();
                } else {
                    break;
                }
            }
            match doc.kind(pre) {
                NodeKind::Element => {
                    let name = doc.names().lexical(doc.name_id(pre));
                    builder.start_element(&name);
                    for a in doc.attr_range(pre) {
                        let an = doc.names().lexical(doc.attr_name_id(a));
                        builder.attribute(&an, doc.attr_value(a));
                    }
                    if doc.size(pre) == 0 {
                        builder.end_element();
                    } else {
                        open.push(pre);
                    }
                }
                NodeKind::Text => {
                    builder.text(doc.value(pre));
                }
                NodeKind::Comment => {
                    builder.comment(doc.value(pre));
                }
                NodeKind::Pi => {
                    let name = doc.names().lexical(doc.name_id(pre));
                    builder.pi(&name, doc.value(pre));
                }
                NodeKind::Document => {}
            }
            pre += 1;
        }
        while open.pop().is_some() {
            builder.end_element();
        }
        Ok(())
    }
}
