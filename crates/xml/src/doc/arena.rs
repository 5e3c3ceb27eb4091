//! Fragment arenas: many small documents over one set of columns.
//!
//! An element constructor evaluated over `n` iterations makes `n` new
//! fragments (paper §4.1). Each still is its own [`Document`] — its own
//! document node, its own pre ranks from 0 — but all of them are laid
//! out back to back in one builder's columns, sharing one
//! [`NameTable`]. [`Columns::into_fragments`] packs those columns into
//! one [`SharedBytes`] buffer and hands every fragment zero-copy
//! [`PodCol`] views into it — the snapshot mount's machinery. A fragment
//! holds the buffer once for all of its columns, so it costs one
//! reference and no column allocations, and the whole arena is freed
//! when its last fragment goes.

use std::sync::Arc;

use super::{Columns, Document, ElemIndex, KindCol};
use crate::column::{write_slice_le, Pod, PodCol, SharedBytes, StrArena};
use crate::name::NameTable;
use crate::node::NodeKind;

/// The per-fragment element-name indexes of an arena, concatenated:
/// each fragment's `names` run, its `offsets` run (from 0, one longer
/// than its names) and its `pres` run.
#[derive(Default)]
pub(crate) struct ElemColumns {
    names: Vec<u32>,
    offsets: Vec<u32>,
    pres: Vec<u32>,
    /// `(name id, local pre)` of the fragment being indexed.
    scratch: Vec<(u32, u32)>,
}

impl ElemColumns {
    /// Index the elements of the fragment whose rows start at `first`.
    pub(crate) fn index_fragment(&mut self, cols: &Columns, first: usize) {
        self.scratch.clear();
        let rows = cols.kind[first..].iter().zip(&cols.name[first..]);
        for (pre, (&kind, &name)) in rows.enumerate() {
            if kind == NodeKind::Element as u8 {
                self.scratch.push((name, pre as u32));
            }
        }
        // Pre ranks are distinct, so sorting the pairs groups each name's
        // elements in document order.
        self.scratch.sort_unstable();
        self.offsets.push(0);
        for (k, &(name, pre)) in self.scratch.iter().enumerate() {
            if k == 0 || self.scratch[k - 1].0 != name {
                if k > 0 {
                    self.offsets.push(k as u32);
                }
                self.names.push(name);
            }
            self.pres.push(pre);
        }
        if !self.scratch.is_empty() {
            self.offsets.push(self.scratch.len() as u32);
        }
    }
}

/// Where the fragments closed so far end in every arena column.
#[derive(Clone, Copy, Default)]
pub(crate) struct FragmentMarks {
    nodes: usize,
    attr_first: usize,
    attrs: usize,
    value_heap: usize,
    value_offsets: usize,
    attr_heap: usize,
    attr_offsets: usize,
    elem_names: usize,
    elem_offsets: usize,
    elem_pres: usize,
}

impl FragmentMarks {
    /// The column lengths right after a fragment was closed and indexed.
    pub(crate) fn of(cols: &Columns, elem: &ElemColumns) -> FragmentMarks {
        FragmentMarks {
            nodes: cols.kind.len(),
            attr_first: cols.attr_first.len(),
            attrs: cols.attr_owner.len(),
            value_heap: cols.values.heap.len(),
            value_offsets: cols.values.offsets.len(),
            attr_heap: cols.attr_values.heap.len(),
            attr_offsets: cols.attr_values.offsets.len(),
            elem_names: elem.names.len(),
            elem_offsets: elem.offsets.len(),
            elem_pres: elem.pres.len(),
        }
    }
}

/// Append `values` to the packed buffer `buf` as one section, 8-byte
/// aligned so every view over it is zero-copy.
fn section<T: Pod>(buf: &mut Vec<u8>, values: &[T]) -> Section {
    buf.resize(buf.len().next_multiple_of(8), 0);
    let at = buf.len();
    write_slice_le(values, buf).expect("writing to a Vec cannot fail");
    Section {
        at,
        width: T::WIDTH,
    }
}

/// One packed column: its section's byte offset and element width.
#[derive(Clone, Copy)]
struct Section {
    at: usize,
    width: usize,
}

impl Section {
    /// Rows `rows` of this section, for a document that holds `buf`.
    fn view<T: Pod>(self, buf: &SharedBytes, rows: (usize, usize)) -> PodCol<T> {
        let range = self.at + rows.0 * self.width..self.at + rows.1 * self.width;
        // SAFETY: every column made here goes into a `Document` whose
        // `arena` field holds `buf` (see `into_fragments`).
        unsafe { PodCol::view_held(buf, range) }.expect("an arena section lies inside its buffer")
    }
}

impl Columns {
    /// Pack the fragments `marks` delimits (rows past the last mark are
    /// dropped) into one shared buffer and return one [`Document`] per
    /// fragment over views into it, plus the buffer's size in bytes.
    pub(crate) fn into_fragments(
        self,
        elem: &ElemColumns,
        marks: &[FragmentMarks],
        names: Arc<NameTable>,
    ) -> (Vec<Arc<Document>>, usize) {
        let Some(&end) = marks.last() else {
            return (Vec::new(), 0);
        };
        let words = end.attr_first
            + 2 * end.attrs
            + end.value_offsets
            + end.attr_offsets
            + end.elem_names
            + end.elem_offsets
            + end.elem_pres;
        let mut packed = Vec::with_capacity(
            15 * end.nodes + 4 * words + end.value_heap + end.attr_heap + 15 * 7,
        );
        let kind = section(&mut packed, &self.kind[..end.nodes]);
        let size = section(&mut packed, &self.size[..end.nodes]);
        let level = section(&mut packed, &self.level[..end.nodes]);
        let parent = section(&mut packed, &self.parent[..end.nodes]);
        let name = section(&mut packed, &self.name[..end.nodes]);
        let value_heap = section(&mut packed, &self.values.heap[..end.value_heap]);
        let value_offsets = section(&mut packed, &self.values.offsets[..end.value_offsets]);
        let attr_first = section(&mut packed, &self.attr_first[..end.attr_first]);
        let attr_owner = section(&mut packed, &self.attr_owner[..end.attrs]);
        let attr_name = section(&mut packed, &self.attr_name[..end.attrs]);
        let attr_heap = section(&mut packed, &self.attr_values.heap[..end.attr_heap]);
        let attr_offsets = section(&mut packed, &self.attr_values.offsets[..end.attr_offsets]);
        let elem_names = section(&mut packed, &elem.names[..end.elem_names]);
        let elem_offsets = section(&mut packed, &elem.offsets[..end.elem_offsets]);
        let elem_pres = section(&mut packed, &elem.pres[..end.elem_pres]);
        let bytes = packed.len();
        let buf = SharedBytes::from_vec(packed);

        let mut from = FragmentMarks::default();
        let mut docs = Vec::with_capacity(marks.len());
        for &to in marks {
            let doc = Document {
                uri: None,
                names: Arc::clone(&names),
                kind: KindCol {
                    raw: kind.view(&buf, (from.nodes, to.nodes)),
                },
                size: size.view(&buf, (from.nodes, to.nodes)),
                level: level.view(&buf, (from.nodes, to.nodes)),
                parent: parent.view(&buf, (from.nodes, to.nodes)),
                name: name.view(&buf, (from.nodes, to.nodes)),
                values: StrArena::from_parts(
                    value_heap.view(&buf, (from.value_heap, to.value_heap)),
                    value_offsets.view(&buf, (from.value_offsets, to.value_offsets)),
                ),
                attr_first: attr_first.view(&buf, (from.attr_first, to.attr_first)),
                attr_owner: attr_owner.view(&buf, (from.attrs, to.attrs)),
                attr_name: attr_name.view(&buf, (from.attrs, to.attrs)),
                attr_values: StrArena::from_parts(
                    attr_heap.view(&buf, (from.attr_heap, to.attr_heap)),
                    attr_offsets.view(&buf, (from.attr_offsets, to.attr_offsets)),
                ),
                elem: ElemIndex {
                    names: elem_names.view(&buf, (from.elem_names, to.elem_names)),
                    offsets: elem_offsets.view(&buf, (from.elem_offsets, to.elem_offsets)),
                    pres: elem_pres.view(&buf, (from.elem_pres, to.elem_pres)),
                },
                arena: Some(buf.clone()),
            };
            debug_assert_eq!(doc.check_invariants(), Ok(()));
            docs.push(Arc::new(doc));
            from = to;
        }
        (docs, bytes)
    }
}
