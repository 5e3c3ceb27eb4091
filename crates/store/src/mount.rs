//! SOSN v6: the sectioned, offset-indexed, checksummed columnar
//! snapshot format that is *mounted*, not decoded — the one binary
//! format this workspace reads or writes, and the only module that
//! knows the section-table layout.
//!
//! Layout (little-endian):
//!
//! ```text
//! 0   magic "SOSN" | u32 version = 6 | u32 section-count | u32 reserved
//! 16  section table: section-count × (u32 tag | u32 layer | u64 offset | u64 length)
//! …   payloads, each padded to 8-byte alignment, in table order
//! ```
//!
//! The version field is checked before anything else is parsed: a file
//! that says anything but 6 is refused with an error naming the version
//! found, the version supported and the remedy (a snapshot is a cache
//! derived from the layer XML — rebuild it with `standoff-xq index`).
//! There is no second decoder and no way to open a file unverified.
//!
//! The last section is CHECKSUMS (tag 40): `(u32 tag | u32 layer |
//! u32 crc32)` per *other* section, covering that section's exact
//! payload bytes. Opening verifies only the tiny eagerly-decoded
//! sections (META, layer headers) plus the checksum table's structure —
//! the lazy-mount hot path never hashes bulk columns. A layer's column
//! checksums are verified the first time the layer is materialized —
//! those of the columns read directly (`kind`, `name`, the element-name
//! index, the region index). Its two deferred groups, the tree columns
//! (`size`, `level`, `parent`, the value arena) and the attribute table,
//! are each checksummed and checked the first time a request reads
//! them, by the loader a materialization hands the document, and are
//! reached only through [`Document::tree`] or [`Document::attrs`]. A mismatch is a
//! categorized [`StoreError::Corrupt`], never a panic. Each section is
//! hashed once per mount: open, a layer's catalog, materialization, a
//! group's first read and [`Snapshot::verify`] share one record of which
//! sections already matched. The checksums of what a materialization
//! (or a first read) checks are all checked before any of its structure
//! is, so a flipped payload byte is always reported as its section's
//! checksum mismatch, never as a structural error. Writers verify every
//! group of every layer before they copy it, and `verify` checks every
//! section.
//!
//! Offsets are absolute file positions. Per-layer payloads are one
//! section per *column* — the document's `kind`/`size`/`level`/`parent`/
//! `name` columns, string-arena heaps and offsets, the attribute table,
//! the element-name CSR, and the region index's entries — its node view
//! is derived from them at mount, never stored (v4 stored it).
//!
//! A region is stored once, as its region-index entry (v5 also stored
//! it as attribute text). The writer drops an annotated element's
//! `start`/`end` attribute rows from a single-region layer in the
//! attribute representation when they are the element's last two rows,
//! in that order, and their text is the canonical decimal of its entry
//! ([`AttrTable::without_region_rows`]). A materialized layer's
//! attribute table presents the dropped pairs again from its region
//! index ([`standoff_xml::RegionAttrs`]), so every reader sees the
//! attributes the layer was parsed with.
//! [`Snapshot::open`] maps the file read-only (falling back to
//! reading it where it cannot be mapped) and walks only the section
//! table plus the tiny META/LAYER_HDR payloads, so opening touches a few
//! pages whatever the file size; a layer's columns become zero-copy typed
//! views ([`standoff_xml::column::PodCol`]) the first time the layer is
//! accessed — documents and region indexes are *realized lazily* and
//! cached, so `inspect` and single-layer workloads never pay for
//! untouched siblings. Every structural invariant is re-validated at
//! materialization time, a deferred group's at its first read (the
//! query optimizer's post-filter elision relies on them).
//!
//! A mapping follows the *inode*, and every writer in this crate
//! replaces a snapshot by temp file → fsync → rename
//! ([`crate::atomic`]), never in place: a snapshot opened before a
//! checkpoint or `compact` keeps answering from the old file for as
//! long as it lives, and the next `open` sees the new one. Truncating a
//! mounted file in place from outside is not a categorized error — it
//! is `SIGBUS` on the next touch of a lost page.
//!
//! Alignment padding is an optimization, not an obligation: a misaligned
//! (or big-endian) mount transparently decodes the affected column into
//! owned storage with identical semantics.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use standoff_core::{RegionIndex, StandoffConfig};
use standoff_xml::column::{write_slice_le, PodCol, SharedBytes, StrArena};
use standoff_xml::{
    AttrTable, Corrupt, Document, DocumentParts, ElemIndex, KindCol, Loader, NameId, NameTable,
    TreeColumns,
};

use crate::error::StoreError;
use crate::layer::{region_attrs, Layer, LayerSet, BASE_LAYER};
use crate::snapshot::{LayerInfo, SectionInfo, SnapshotInfo};

use standoff_core::crc::{crc32, Crc32};

use standoff_core::obs::MetricsRegistry;

use standoff_xml::wire::{read_string, read_u32, read_u64, read_u8, write_string, write_u32};

const MAGIC: &[u8; 4] = b"SOSN";
/// The one format version this build reads and writes.
pub(crate) const VERSION: u32 = 6;

/// A format error; [`StoreError::Io`]'s `Display` supplies the
/// `snapshot:` prefix.
fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_config<W: Write>(w: &mut W, config: &StandoffConfig) -> io::Result<()> {
    write_string(w, &config.position_type)?;
    write_string(w, &config.start_name)?;
    write_string(w, &config.end_name)?;
    match &config.region_name {
        Some(name) => {
            w.write_all(&[1])?;
            write_string(w, name)?;
        }
        None => w.write_all(&[0])?,
    }
    w.write_all(&[config.lenient as u8])
}

fn read_config<R: Read>(r: &mut R) -> io::Result<StandoffConfig> {
    let position_type = read_string(r)?;
    let start_name = read_string(r)?;
    let end_name = read_string(r)?;
    let region_name = match read_u8(r)? {
        0 => None,
        1 => Some(read_string(r)?),
        _ => return Err(bad("bad region-name flag")),
    };
    let lenient = match read_u8(r)? {
        0 => false,
        1 => true,
        _ => return Err(bad("bad lenient flag")),
    };
    let config = StandoffConfig {
        position_type,
        start_name,
        end_name,
        region_name,
        lenient,
    };
    config
        .validate()
        .map_err(|e| bad(&format!("bad layer config: {e}")))?;
    Ok(config)
}

// ---- section tags ----

const SEC_META: u32 = 1;
const SEC_LAYER_HDR: u32 = 3;

const SEC_DOC_META: u32 = 10;
const SEC_DOC_KIND: u32 = 11;
const SEC_DOC_SIZE: u32 = 12;
const SEC_DOC_LEVEL: u32 = 13;
const SEC_DOC_PARENT: u32 = 14;
const SEC_DOC_NAME: u32 = 15;
const SEC_DOC_VAL_HEAP: u32 = 16;
const SEC_DOC_VAL_OFF: u32 = 17;
const SEC_DOC_ATTR_FIRST: u32 = 18;
const SEC_DOC_ATTR_OWNER: u32 = 19;
const SEC_DOC_ATTR_NAME: u32 = 20;
const SEC_DOC_ATTR_VAL_HEAP: u32 = 21;
const SEC_DOC_ATTR_VAL_OFF: u32 = 22;
const SEC_DOC_ELEM_NAMES: u32 = 23;
const SEC_DOC_ELEM_OFF: u32 = 24;
const SEC_DOC_ELEM_PRES: u32 = 25;
/// The tree columns' sections: a group verified on its first read
/// ([`Document::tree`]), not at materialization.
const TREE_SECTIONS: [u32; 5] = [
    SEC_DOC_SIZE,
    SEC_DOC_LEVEL,
    SEC_DOC_PARENT,
    SEC_DOC_VAL_HEAP,
    SEC_DOC_VAL_OFF,
];
/// The attribute table's sections, the other group verified on its
/// first read ([`Document::attrs`]).
const ATTR_SECTIONS: [u32; 5] = [
    SEC_DOC_ATTR_FIRST,
    SEC_DOC_ATTR_OWNER,
    SEC_DOC_ATTR_NAME,
    SEC_DOC_ATTR_VAL_HEAP,
    SEC_DOC_ATTR_VAL_OFF,
];
const SEC_RIDX_META: u32 = 30;
const SEC_RIDX_ENTRIES: u32 = 31;
/// `(u32 tag | u32 layer | u32 crc32)` per other section.
const SEC_CHECKSUMS: u32 = 40;
/// Bytes per checksum-table entry.
const CHECKSUM_ENTRY_BYTES: usize = 12;

/// Stable human-readable name of a section tag — what
/// `standoff-xq inspect` prints next to per-section byte sizes.
fn section_name(tag: u32) -> &'static str {
    match tag {
        SEC_META => "meta",
        SEC_LAYER_HDR => "layer.header",
        SEC_DOC_META => "doc.meta",
        SEC_DOC_KIND => "doc.kind",
        SEC_DOC_SIZE => "doc.size",
        SEC_DOC_LEVEL => "doc.level",
        SEC_DOC_PARENT => "doc.parent",
        SEC_DOC_NAME => "doc.name",
        SEC_DOC_VAL_HEAP => "doc.value-heap",
        SEC_DOC_VAL_OFF => "doc.value-offsets",
        SEC_DOC_ATTR_FIRST => "doc.attr-first",
        SEC_DOC_ATTR_OWNER => "doc.attr-owner",
        SEC_DOC_ATTR_NAME => "doc.attr-name",
        SEC_DOC_ATTR_VAL_HEAP => "doc.attr-value-heap",
        SEC_DOC_ATTR_VAL_OFF => "doc.attr-value-offsets",
        SEC_DOC_ELEM_NAMES => "doc.elem-names",
        SEC_DOC_ELEM_OFF => "doc.elem-offsets",
        SEC_DOC_ELEM_PRES => "doc.elem-pres",
        SEC_RIDX_META => "ridx.meta",
        SEC_RIDX_ENTRIES => "ridx.entries",
        SEC_CHECKSUMS => "checksums",
        _ => "unknown",
    }
}

/// Fixed-size prelude: magic + version + section count + reserved.
const HEADER_BYTES: usize = 16;
/// Bytes per section-table entry.
const TABLE_ENTRY_BYTES: usize = 24;

#[inline]
fn align8(off: u64) -> u64 {
    off.div_ceil(8) * 8
}

// ---- writer ----

/// A pending section body: tiny metadata sections are pre-rendered,
/// bulk columns stay *borrowed* until the payload pass streams them —
/// saving never holds a second copy of the corpus.
enum Body<'a> {
    Rendered(Vec<u8>),
    Bytes(&'a [u8]),
    U16(&'a [u16]),
    U32(&'a [u32]),
    Entries(&'a [standoff_core::RegionEntry]),
}

impl Body<'_> {
    fn len(&self) -> u64 {
        match self {
            Body::Rendered(v) => v.len() as u64,
            Body::Bytes(s) => s.len() as u64,
            Body::U16(s) => s.len() as u64 * 2,
            Body::U32(s) => s.len() as u64 * 4,
            Body::Entries(s) => s.len() as u64 * 24,
        }
    }

    fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            Body::Rendered(v) => w.write_all(v),
            Body::Bytes(s) => w.write_all(s),
            Body::U16(s) => write_slice_le(s, w),
            Body::U32(s) => write_slice_le(s, w),
            Body::Entries(s) => write_slice_le(s, w),
        }
    }

    /// CRC32 of the exact bytes [`Body::write_to`] would emit, computed
    /// by streaming the body into a hashing sink — byte sections whole,
    /// pod columns in `write_slice_le`'s blocks, so the CRC runs its
    /// 8-byte bulk loop rather than one short update per element.
    fn crc(&self) -> u32 {
        let mut sink = CrcSink(Crc32::new());
        self.write_to(&mut sink).expect("hashing sink cannot fail");
        sink.0.finish()
    }
}

/// Recompute one section's CRC32 and compare against the recorded
/// value — unless this mount already has: a section is hashed at most
/// once per [`Snapshot`], whichever of open, [`Snapshot::catalog`],
/// materialization or [`Snapshot::verify`] reaches it first.
/// `layer_label` is a layer ordinal or name for the error text.
fn check_crc(
    buf: &[u8],
    check: &SectionCheck,
    layer_label: Option<&str>,
) -> Result<(), StoreError> {
    // Acquire pairs with the Release below: a set flag means the bytes
    // were hashed and matched.
    if check.verified.load(Ordering::Acquire) {
        return Ok(());
    }
    let registry = MetricsRegistry::global();
    registry.add("store.verify.bytes_hashed", check.range.len() as u64);
    let computed = crc32(&buf[check.range.clone()]);
    if computed != check.crc {
        registry.add("store.verify.failures", 1);
        let section = section_name(check.tag);
        let what = match layer_label {
            Some(layer) => format!("section {section} (layer {layer})"),
            None => format!("section {section}"),
        };
        return Err(StoreError::corrupt(
            what,
            format!(
                "checksum mismatch: stored {:#010x}, computed {computed:#010x}",
                check.crc
            ),
        ));
    }
    registry.add("store.verify.sections_checked", 1);
    check.verified.store(true, Ordering::Release);
    Ok(())
}

/// `Write` adapter that hashes instead of storing.
struct CrcSink(Crc32);

impl Write for CrcSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serialize a layer set into `w`: one section per column, then a
/// trailing CHECKSUMS section with a CRC32 per payload. Every column
/// group of every layer is verified first, so stored bytes that fail
/// their checks are never checksummed into a new file.
///
/// An annotated element's region attributes are not stored when they
/// repeat its region entry: its last two attribute rows, `start` and
/// then `end` as the layer configures them, whose text is the canonical
/// decimal of its one region ([`AttrTable::without_region_rows`]). A
/// mounted layer's table already stores only what remains, and is
/// copied as it is.
pub fn write_snapshot<W: Write>(set: &LayerSet, w: &mut W) -> io::Result<()> {
    let mut dropped = Vec::with_capacity(set.len());
    for layer in set.layers() {
        layer.doc().verify().map_err(StoreError::from)?;
        let table = layer.doc().attrs().map_err(StoreError::from)?;
        dropped.push(match layer.region_attrs() {
            Some(r) if !table.presents_regions() => table.without_region_rows(&r),
            _ => None,
        });
    }
    let mut sections: Vec<(u32, u32, Body<'_>)> = Vec::new();

    let mut meta = Vec::new();
    write_string(&mut meta, set.uri())?;
    write_u32(&mut meta, set.len() as u32)?;
    sections.push((SEC_META, 0, Body::Rendered(meta)));

    for (k, (layer, dropped)) in set.layers().iter().zip(&dropped).enumerate() {
        let k = k as u32;
        let mut doc = layer.doc().storage().map_err(StoreError::from)?;
        let table = match dropped {
            Some(table) => table,
            None => layer.doc().attrs().map_err(StoreError::from)?,
        };
        (
            doc.attr_first,
            doc.attr_owner,
            doc.attr_name,
            doc.attr_values,
        ) = table.columns();
        let ridx = layer.index().storage();

        let mut hdr = Vec::new();
        write_string(&mut hdr, layer.name())?;
        write_config(&mut hdr, layer.config())?;
        standoff_xml::wire::write_u64(&mut hdr, doc.kind_bytes.len() as u64)?;
        standoff_xml::wire::write_u64(&mut hdr, doc.attr_owner.len() as u64)?;
        standoff_xml::wire::write_u64(&mut hdr, layer.annotation_count() as u64)?;
        standoff_xml::wire::write_u64(&mut hdr, ridx.entries.len() as u64)?;
        sections.push((SEC_LAYER_HDR, k, Body::Rendered(hdr)));

        let mut doc_meta = Vec::new();
        match layer.doc().uri() {
            Some(uri) => {
                doc_meta.push(1);
                write_string(&mut doc_meta, uri)?;
            }
            None => doc_meta.push(0),
        }
        write_u32(&mut doc_meta, doc.names.len() as u32)?;
        for id in 0..doc.names.len() as u32 {
            write_string(&mut doc_meta, &doc.names.lexical(NameId(id)))?;
        }
        sections.push((SEC_DOC_META, k, Body::Rendered(doc_meta)));

        sections.push((SEC_DOC_KIND, k, Body::Bytes(doc.kind_bytes)));
        sections.push((SEC_DOC_SIZE, k, Body::U32(doc.size)));
        sections.push((SEC_DOC_LEVEL, k, Body::U16(doc.level)));
        sections.push((SEC_DOC_PARENT, k, Body::U32(doc.parent)));
        sections.push((SEC_DOC_NAME, k, Body::U32(doc.name)));
        sections.push((SEC_DOC_VAL_HEAP, k, Body::Bytes(doc.values.heap_bytes())));
        sections.push((SEC_DOC_VAL_OFF, k, Body::U32(doc.values.offsets())));
        sections.push((SEC_DOC_ATTR_FIRST, k, Body::U32(doc.attr_first)));
        sections.push((SEC_DOC_ATTR_OWNER, k, Body::U32(doc.attr_owner)));
        sections.push((SEC_DOC_ATTR_NAME, k, Body::U32(doc.attr_name)));
        sections.push((
            SEC_DOC_ATTR_VAL_HEAP,
            k,
            Body::Bytes(doc.attr_values.heap_bytes()),
        ));
        sections.push((
            SEC_DOC_ATTR_VAL_OFF,
            k,
            Body::U32(doc.attr_values.offsets()),
        ));
        sections.push((SEC_DOC_ELEM_NAMES, k, Body::U32(&doc.elem.names)));
        sections.push((SEC_DOC_ELEM_OFF, k, Body::U32(&doc.elem.offsets)));
        sections.push((SEC_DOC_ELEM_PRES, k, Body::U32(&doc.elem.pres)));

        let mut ridx_meta = Vec::new();
        write_u32(&mut ridx_meta, ridx.max_regions)?;
        sections.push((SEC_RIDX_META, k, Body::Rendered(ridx_meta)));
        sections.push((SEC_RIDX_ENTRIES, k, Body::Entries(ridx.entries)));
    }

    // One CRC32 per section, covering its exact payload bytes; the
    // checksum section itself is last and not self-covered.
    let mut payload = Vec::with_capacity(CHECKSUM_ENTRY_BYTES * sections.len());
    for (tag, layer, body) in &sections {
        payload.extend_from_slice(&tag.to_le_bytes());
        payload.extend_from_slice(&layer.to_le_bytes());
        payload.extend_from_slice(&body.crc().to_le_bytes());
    }
    sections.push((SEC_CHECKSUMS, 0, Body::Rendered(payload)));

    // Lay out: header, table, 8-aligned payloads.
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, sections.len() as u32)?;
    write_u32(w, 0)?; // reserved (keeps the table 8-aligned)
    let mut cur = (HEADER_BYTES + TABLE_ENTRY_BYTES * sections.len()) as u64;
    let mut offsets = Vec::with_capacity(sections.len());
    for (tag, layer, body) in &sections {
        cur = align8(cur);
        offsets.push(cur);
        write_u32(w, *tag)?;
        write_u32(w, *layer)?;
        standoff_xml::wire::write_u64(w, cur)?;
        standoff_xml::wire::write_u64(w, body.len())?;
        cur += body.len();
    }
    let mut pos = (HEADER_BYTES + TABLE_ENTRY_BYTES * sections.len()) as u64;
    for ((_, _, body), off) in sections.iter().zip(offsets) {
        while pos < off {
            w.write_all(&[0])?;
            pos += 1;
        }
        body.write_to(w)?;
        pos += body.len();
    }
    Ok(())
}

// ---- mounted snapshot ----

/// The bytes of a snapshot file: a private read-only mapping where the
/// platform has one, the file read into the heap where it does not or
/// the map call fails (an empty file cannot be mapped at all — it comes
/// back as zero heap bytes and fails the header check like any other
/// truncation).
fn map_or_read(path: &Path) -> io::Result<SharedBytes> {
    #[cfg(all(unix, target_pointer_width = "64"))]
    if let Ok(mapped) = SharedBytes::map_file(&std::fs::File::open(path)?) {
        return Ok(mapped);
    }
    Ok(SharedBytes::from_vec(std::fs::read(path)?))
}

/// The version field of a snapshot header: the magic, then a u32.
fn header_version(bytes: &[u8]) -> io::Result<u32> {
    if bytes.len() < 8 {
        return Err(bad("truncated header"));
    }
    if &bytes[0..4] != MAGIC {
        return Err(bad("not a standoff snapshot (bad magic)"));
    }
    Ok(u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")))
}

/// DOC_META: the document's URI and its name table.
fn read_doc_meta(mut r: &[u8]) -> io::Result<(Option<String>, NameTable)> {
    let uri = if read_u8(&mut r)? == 1 {
        Some(read_string(&mut r)?)
    } else {
        None
    };
    let name_count = read_u32(&mut r)? as usize;
    let mut names = NameTable::new();
    for k in 0..name_count {
        let lexical = read_string(&mut r)?;
        if names.intern(&lexical).0 as usize != k {
            return Err(bad("duplicate name in name table"));
        }
    }
    Ok((uri, names))
}

/// One layer's mount state: header metadata (decoded at open), the
/// section map, and the lazily realized [`Layer`].
struct MountLayer {
    name: String,
    config: StandoffConfig,
    /// Declared counts from the layer header — what `inspect` reports
    /// without touching payloads.
    nodes: u64,
    attrs: u64,
    annotations: u64,
    entries: u64,
    /// Total payload bytes of this layer's sections.
    bytes: u64,
    sections: HashMap<u32, Range<usize>>,
    /// Per-section byte breakdown for `info()`.
    section_info: Vec<SectionInfo>,
    /// Positions in [`Mounted::checks`] of every section of this layer
    /// still unverified at open — checked when the layer's catalog is
    /// read or the layer is materialized.
    checks: Vec<usize>,
    /// The layer's catalog, read once (see [`Snapshot::catalog`]).
    catalog: OnceLock<Arc<Catalog>>,
    cell: OnceLock<Arc<Layer>>,
    /// Held while the layer materializes, so concurrent first accesses
    /// do the work once.
    loading: Mutex<()>,
}

/// What a layer answers before it is materialized: its name and
/// configuration, its document's URI, and how many elements carry each
/// name — read from the tiny `doc.meta`, `doc.elem-names` and
/// `doc.elem-offsets` sections, each checksummed first. A query engine
/// decides from this which layers a plan reaches.
#[derive(Clone, Debug)]
pub struct Catalog {
    name: String,
    config: StandoffConfig,
    uri: Option<String>,
    counts: HashMap<String, usize>,
}

impl Catalog {
    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration the layer's index was built under.
    pub fn config(&self) -> &StandoffConfig {
        &self.config
    }

    /// The layer document's own URI.
    pub fn uri(&self) -> Option<&str> {
        self.uri.as_deref()
    }

    /// Elements named `name` in the layer document.
    pub fn name_count(&self, name: &str) -> usize {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// A section's checksum verification: section identity, payload range,
/// recorded CRC32, and whether this mount has hashed it yet.
#[derive(Debug)]
struct SectionCheck {
    tag: u32,
    layer: u32,
    range: Range<usize>,
    crc: u32,
    verified: AtomicBool,
}

/// What [`Snapshot::verify`] reports back.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Layers materialized and revalidated.
    pub layers: usize,
    /// Section payloads whose CRC32 was recomputed and matched.
    pub sections_checked: usize,
}

/// A mounted snapshot file: one shared buffer, a parsed section table,
/// and per-layer lazily materialized [`Layer`]s.
///
/// Opening walks only the header, section table and the tiny
/// META/LAYER_HDR payloads. [`Snapshot::layer`] (or a query reaching the
/// layer through an engine mount) realizes a layer's document and
/// region index on first access — zero-copy column views over the
/// shared buffer, fully re-validated — and caches the result, shared
/// across every subsequent consumer.
///
/// A `Snapshot` is a shared handle: cloning it is one atomic increment,
/// and every clone sees the same layer cache. A query engine keeps one
/// and materializes layers through it as plans reach them.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<Mounted>,
}

struct Mounted {
    buf: SharedBytes,
    uri: String,
    payload_bytes: u64,
    layers: Vec<MountLayer>,
    /// Every section's recorded checksum, for [`Snapshot::verify`] —
    /// shared with the group loaders of materialized layers.
    checks: Arc<[SectionCheck]>,
}

impl Snapshot {
    /// Mount a snapshot file: mapped where the platform allows, read
    /// into the heap otherwise. Either way nothing beyond the header,
    /// the section table and the META/LAYER_HDR payloads is touched.
    pub fn open(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        let started = Instant::now();
        let buf = map_or_read(path.as_ref())?;
        Snapshot::mount(buf, started)
    }

    /// The version field the file at `path` declares, from its first
    /// eight bytes alone — `None` when those are not a snapshot header.
    /// What `standoff-xq verify` names a file by that does not mount.
    pub fn peek_version(path: impl AsRef<Path>) -> io::Result<Option<u32>> {
        let mut head = Vec::with_capacity(8);
        std::fs::File::open(path)?.take(8).read_to_end(&mut head)?;
        Ok(header_version(&head).ok())
    }

    /// Mount a snapshot from in-memory bytes. Corruption surfaces as
    /// [`StoreError::Corrupt`].
    pub fn mount_bytes(bytes: Vec<u8>) -> Result<Snapshot, StoreError> {
        Snapshot::mount(SharedBytes::from_vec(bytes), Instant::now())
    }

    /// The shared tail of every open path. `started` is when the caller
    /// began acquiring the bytes, so `store.snapshot_open_ns` covers the
    /// map or read as well as the header walk.
    fn mount(buf: SharedBytes, started: Instant) -> Result<Snapshot, StoreError> {
        // Mount timings go to the process-global registry: the store
        // crate has no engine to own a registry, and mounts are rare
        // enough that the global map lookup is immaterial.
        let mapped = buf.is_mapped();
        let snapshot = Snapshot::from_buf(buf)?;
        let registry = MetricsRegistry::global();
        registry.add("store.snapshots_opened", 1);
        registry.add(
            if mapped {
                "store.open.mapped"
            } else {
                "store.open.heap"
            },
            1,
        );
        registry.record(
            "store.snapshot_open_ns",
            started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
        Ok(snapshot)
    }

    /// Check the header — magic, then the version, which refuses every
    /// value but [`VERSION`] before anything else is parsed — then parse
    /// and validate the section table and decode only the META and
    /// LAYER_HDR payloads. The checksum table must exist and cover
    /// every other section; the eagerly-decoded sections are verified
    /// now and the rest stashed for lazy verification at
    /// materialization — bulk columns are never hashed on this path.
    fn from_buf(buf: SharedBytes) -> Result<Snapshot, StoreError> {
        let version = header_version(&buf)?;
        if version != VERSION {
            return Err(bad(&format!(
                "unsupported format version {version} (this build reads version {VERSION} \
                 only); rebuild it from the layer XML with standoff-xq index"
            ))
            .into());
        }
        if buf.len() < HEADER_BYTES {
            return Err(bad("truncated header").into());
        }
        let count = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
        let table_end = HEADER_BYTES as u64 + TABLE_ENTRY_BYTES as u64 * count as u64;
        if table_end > buf.len() as u64 {
            return Err(bad("truncated section table").into());
        }
        // Parse the table; bounds-check every section.
        let mut table: Vec<(u32, u32, u64, u64)> = Vec::with_capacity(count.min(1 << 16));
        for k in 0..count {
            let at = HEADER_BYTES + TABLE_ENTRY_BYTES * k;
            let e = &buf[at..at + TABLE_ENTRY_BYTES];
            let tag = u32::from_le_bytes(e[0..4].try_into().expect("4 bytes"));
            let layer = u32::from_le_bytes(e[4..8].try_into().expect("4 bytes"));
            let off = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(e[16..24].try_into().expect("8 bytes"));
            let end = off
                .checked_add(len)
                .ok_or_else(|| bad("section length overflows"))?;
            if off < table_end || end > buf.len() as u64 {
                return Err(bad("section outside the file").into());
            }
            table.push((tag, layer, off, len));
        }
        // Sections must not overlap each other (a crafted table could
        // otherwise alias one byte range as two differently-typed
        // columns and confuse every size cross-check).
        let mut spans: Vec<(u64, u64)> = table.iter().map(|&(_, _, o, l)| (o, l)).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].0 + w[0].1 > w[1].0 {
                return Err(bad("overlapping sections").into());
            }
        }
        let payload_bytes: u64 = table.iter().map(|&(_, _, _, l)| l).sum();

        // The checksum table must exist, parse, and cover exactly the
        // other sections — structural failures here are corruption,
        // not format drift.
        let checks = Snapshot::parse_checksums(&buf, &table)?;
        let check_of = |tag: u32, layer: u32| -> Option<usize> {
            checks.iter().position(|c| c.tag == tag && c.layer == layer)
        };

        let section = |tag: u32, layer: u32| -> Option<Range<usize>> {
            table.iter().find_map(|&(t, l, off, len)| {
                (t == tag && l == layer).then_some(off as usize..(off + len) as usize)
            })
        };
        // META (verified now — it is decoded now).
        let meta = section(SEC_META, 0).ok_or_else(|| bad("missing META section"))?;
        if table.iter().filter(|&&(t, _, _, _)| t == SEC_META).count() > 1 {
            return Err(bad("duplicate META section").into());
        }
        if let Some(c) = check_of(SEC_META, 0) {
            check_crc(&buf, &checks[c], None)?;
        }
        let meta_bytes = &buf[meta];
        let mut r = meta_bytes;
        let uri = read_string(&mut r)?;
        let layer_count = read_u32(&mut r)? as usize;

        // One LAYER_HDR per layer ordinal, decoded and verified now —
        // tiny.
        let mut layers = Vec::with_capacity(layer_count.min(1 << 16));
        for k in 0..layer_count as u32 {
            let hdr = section(SEC_LAYER_HDR, k)
                .ok_or_else(|| bad(&format!("missing header for layer {k}")))?;
            if let Some(c) = check_of(SEC_LAYER_HDR, k) {
                check_crc(&buf, &checks[c], Some(&format!("{k}")))?;
            }
            let mut r = &buf[hdr];
            let name = read_string(&mut r)?;
            let config = read_config(&mut r)?;
            let nodes = read_u64(&mut r)?;
            let attrs = read_u64(&mut r)?;
            let annotations = read_u64(&mut r)?;
            let entries = read_u64(&mut r)?;
            let mut sections = HashMap::new();
            let mut section_info = Vec::new();
            let mut lazy_checks = Vec::new();
            let mut bytes = 0u64;
            for &(tag, layer, off, len) in &table {
                if layer == k && tag != SEC_META && tag != SEC_CHECKSUMS {
                    let range = off as usize..(off + len) as usize;
                    if tag != SEC_LAYER_HDR {
                        if sections.insert(tag, range.clone()).is_some() {
                            return Err(
                                bad(&format!("duplicate section {tag} for layer {k}")).into()
                            );
                        }
                        // LAYER_HDR was verified above; everything else
                        // is deferred to materialization.
                        lazy_checks.extend(check_of(tag, k));
                    }
                    section_info.push(SectionInfo {
                        tag,
                        name: section_name(tag),
                        bytes: len,
                    });
                    bytes += len;
                }
            }
            section_info.sort_by_key(|s| s.tag);
            layers.push(MountLayer {
                name,
                config,
                nodes,
                attrs,
                annotations,
                entries,
                bytes,
                sections,
                section_info,
                checks: lazy_checks,
                catalog: OnceLock::new(),
                cell: OnceLock::new(),
                loading: Mutex::new(()),
            });
        }
        let snapshot = Snapshot {
            inner: Arc::new(Mounted {
                buf,
                uri,
                payload_bytes,
                layers,
                checks: checks.into(),
            }),
        };
        snapshot.validate_names()?;
        Ok(snapshot)
    }

    /// Parse and structurally validate the checksum section against
    /// the section table: one entry per non-checksum section, no
    /// duplicates, no strays.
    fn parse_checksums(
        buf: &SharedBytes,
        table: &[(u32, u32, u64, u64)],
    ) -> Result<Vec<SectionCheck>, StoreError> {
        let mut found: Option<Range<usize>> = None;
        for &(tag, layer, off, len) in table {
            if tag == SEC_CHECKSUMS {
                if found.is_some() || layer != 0 {
                    return Err(StoreError::corrupt(
                        "section checksums",
                        "duplicate or mis-addressed checksum section",
                    ));
                }
                found = Some(off as usize..(off + len) as usize);
            }
        }
        let range = found.ok_or_else(|| {
            StoreError::corrupt("section checksums", "file has no checksum section")
        })?;
        let payload = &buf[range];
        if !payload.len().is_multiple_of(CHECKSUM_ENTRY_BYTES) {
            return Err(StoreError::corrupt(
                "section checksums",
                "checksum table length is not a multiple of the entry size",
            ));
        }
        let mut checks = Vec::with_capacity(payload.len() / CHECKSUM_ENTRY_BYTES);
        for entry in payload.chunks_exact(CHECKSUM_ENTRY_BYTES) {
            let tag = u32::from_le_bytes(entry[0..4].try_into().expect("4 bytes"));
            let layer = u32::from_le_bytes(entry[4..8].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(entry[8..12].try_into().expect("4 bytes"));
            let covered = table
                .iter()
                .find(|&&(t, l, _, _)| t == tag && l == layer && t != SEC_CHECKSUMS)
                .ok_or_else(|| {
                    StoreError::corrupt(
                        "section checksums",
                        format!(
                            "checksum entry for nonexistent section (tag {tag}, layer {layer})"
                        ),
                    )
                })?;
            if checks
                .iter()
                .any(|c: &SectionCheck| c.tag == tag && c.layer == layer)
            {
                return Err(StoreError::corrupt(
                    "section checksums",
                    format!("duplicate checksum entry (tag {tag}, layer {layer})"),
                ));
            }
            let (_, _, off, len) = *covered;
            checks.push(SectionCheck {
                tag,
                layer,
                range: off as usize..(off + len) as usize,
                crc,
                verified: AtomicBool::new(false),
            });
        }
        // Every non-checksum section must be covered, or corruption
        // could hide in an uncovered section.
        let covered_count = table
            .iter()
            .filter(|&&(t, _, _, _)| t != SEC_CHECKSUMS)
            .count();
        if checks.len() != covered_count {
            return Err(StoreError::corrupt(
                "section checksums",
                format!(
                    "checksum table covers {} of {} sections",
                    checks.len(),
                    covered_count
                ),
            ));
        }
        Ok(checks)
    }

    fn validate_names(&self) -> io::Result<()> {
        if self
            .inner
            .layers
            .first()
            .is_none_or(|l| l.name != BASE_LAYER)
        {
            // LayerSet semantics hinge on layers[0] being the base; a
            // reordered (hand-edited) snapshot must not silently swap
            // what the bare store URI resolves to.
            return Err(bad("first layer section is not the base layer"));
        }
        for (k, layer) in self.inner.layers.iter().enumerate() {
            if self.inner.layers[..k].iter().any(|l| l.name == layer.name) {
                return Err(bad(&format!("duplicate layer {:?}", layer.name)));
            }
        }
        Ok(())
    }

    /// The store URI this snapshot mounts under.
    pub fn uri(&self) -> &str {
        &self.inner.uri
    }

    /// On-disk format version — always `VERSION`; nothing else mounts.
    pub fn version(&self) -> u32 {
        VERSION
    }

    /// What the mounted columns view into: `"mmap"` (the file's pages)
    /// or `"heap"` (bytes read or handed in).
    pub fn backing(&self) -> &'static str {
        if self.inner.buf.is_mapped() {
            "mmap"
        } else {
            "heap"
        }
    }

    /// Deep integrity check: every recorded section checksum holds —
    /// each section hashed once per mount, so what open, a catalog or a
    /// materialized layer already checked is not hashed again — then
    /// every layer materializes and its tree columns and attribute table
    /// are verified, which re-runs the full structural revalidation the
    /// lazy mount path and a group's first read apply. Corruption is a
    /// categorized [`StoreError::Corrupt`].
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut sections_checked = 0;
        for c in self.inner.checks.iter() {
            let layer_name = usize::try_from(c.layer)
                .ok()
                .and_then(|k| self.inner.layers.get(k))
                .map(|l| l.name.as_str());
            let label = match (c.tag, layer_name) {
                (SEC_META, _) => None,
                (_, Some(name)) => Some(name.to_string()),
                (_, None) => Some(c.layer.to_string()),
            };
            check_crc(&self.inner.buf, c, label.as_deref())?;
            sections_checked += 1;
        }
        for k in 0..self.inner.layers.len() {
            self.layer_at(k)?.doc().verify()?;
        }
        Ok(VerifyReport {
            layers: self.inner.layers.len(),
            sections_checked,
        })
    }

    /// Number of layers (including the base).
    pub fn len(&self) -> usize {
        self.inner.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.layers.is_empty()
    }

    /// Layer names, base first.
    pub fn layer_names(&self) -> impl Iterator<Item = &str> {
        self.inner.layers.iter().map(|l| l.name.as_str())
    }

    /// Has layer `k` been materialized yet? (Benches and tests assert
    /// laziness as mechanism with this.)
    pub fn is_materialized(&self, k: usize) -> bool {
        self.inner
            .layers
            .get(k)
            .is_some_and(|l| l.cell.get().is_some())
    }

    /// Snapshot statistics from the header walk alone — payloads are
    /// untouched (`standoff-xq inspect`'s backing).
    pub fn info(&self) -> SnapshotInfo {
        SnapshotInfo {
            version: VERSION,
            uri: self.inner.uri.clone(),
            payload_bytes: self.inner.payload_bytes,
            layers: self
                .inner
                .layers
                .iter()
                .map(|l| LayerInfo {
                    name: l.name.clone(),
                    bytes: l.bytes,
                    nodes: l.nodes,
                    annotations: l.annotations,
                    sections: l.section_info.clone(),
                })
                .collect(),
        }
    }

    /// The layer named `name`, materializing it on first access.
    pub fn layer(&self, name: &str) -> Result<Arc<Layer>, StoreError> {
        let k = self
            .inner
            .layers
            .iter()
            .position(|l| l.name == name)
            .ok_or_else(|| StoreError::BadLayerName(name.to_string()))?;
        self.layer_at(k)
    }

    /// The `k`-th layer (base first), materializing it on first access.
    pub fn layer_at(&self, k: usize) -> Result<Arc<Layer>, StoreError> {
        self.load_layer(k).map(|(layer, _)| layer)
    }

    /// [`Snapshot::layer_at`], also reporting how long *this* call spent
    /// materializing the layer: `None` when it was already cached. Of
    /// concurrent first accesses one does the work, the rest wait for
    /// it, so a layer is checksummed and revalidated once per snapshot.
    pub fn load_layer(&self, k: usize) -> Result<(Arc<Layer>, Option<Duration>), StoreError> {
        let slot = self.slot(k)?;
        if let Some(layer) = slot.cell.get() {
            return Ok((Arc::clone(layer), None));
        }
        let _loading = slot.loading.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(layer) = slot.cell.get() {
            return Ok((Arc::clone(layer), None));
        }
        let started = Instant::now();
        let layer = Arc::new(self.materialize(slot)?);
        let took = started.elapsed();
        let registry = MetricsRegistry::global();
        registry.add("store.layers_materialized", 1);
        registry.add(&format!("store.layers_materialized.{}", slot.name), 1);
        let ns = took.as_nanos().min(u64::MAX as u128) as u64;
        registry.record("store.layer_materialize_ns", ns);
        registry.record(&format!("store.layer_materialize_ns.{}", slot.name), ns);
        Ok((Arc::clone(slot.cell.get_or_init(|| layer)), Some(took)))
    }

    /// The `k`-th layer's [`Catalog`], without materializing the layer.
    /// The three sections it is read from are checksummed before use;
    /// the result is cached.
    pub fn catalog(&self, k: usize) -> Result<Arc<Catalog>, StoreError> {
        let slot = self.slot(k)?;
        if let Some(catalog) = slot.catalog.get() {
            return Ok(Arc::clone(catalog));
        }
        let section = |tag: u32| -> Result<&[u8], StoreError> {
            let check = slot
                .checks
                .iter()
                .map(|&c| &self.inner.checks[c])
                .find(|c| c.tag == tag)
                .ok_or_else(|| bad(&format!("layer {:?}: missing section {tag}", slot.name)))?;
            check_crc(&self.inner.buf, check, Some(&slot.name))?;
            Ok(&self.inner.buf[check.range.clone()])
        };
        let wrap = |e: io::Error| -> StoreError {
            StoreError::Io(io::Error::new(
                e.kind(),
                format!("layer {:?}: {e}", slot.name),
            ))
        };
        let (uri, names) = read_doc_meta(section(SEC_DOC_META)?).map_err(wrap)?;
        let words = |bytes: &[u8]| -> io::Result<Vec<u32>> {
            if !bytes.len().is_multiple_of(4) {
                return Err(bad("element index column is not a whole number of u32s"));
            }
            Ok(bytes
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
                .collect())
        };
        let ids = words(section(SEC_DOC_ELEM_NAMES)?).map_err(wrap)?;
        let offsets = words(section(SEC_DOC_ELEM_OFF)?).map_err(wrap)?;
        // The same shape `ElemIndex::validate` demands at
        // materialization, so the counts are the ones the document
        // will report.
        if offsets.len() != ids.len() + 1
            || offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] >= w[1])
            || ids.windows(2).any(|w| w[0] >= w[1])
            || ids.last().is_some_and(|&id| id as usize >= names.len())
        {
            return Err(wrap(bad("malformed element-name index")));
        }
        let counts = ids
            .iter()
            .zip(offsets.windows(2))
            .map(|(&id, w)| (names.lexical(NameId(id)), (w[1] - w[0]) as usize))
            .collect();
        let catalog = Arc::new(Catalog {
            name: slot.name.clone(),
            config: slot.config.clone(),
            uri,
            counts,
        });
        Ok(Arc::clone(slot.catalog.get_or_init(|| catalog)))
    }

    fn slot(&self, k: usize) -> Result<&MountLayer, StoreError> {
        self.inner
            .layers
            .get(k)
            .ok_or_else(|| StoreError::BadLayerName(format!("<layer {k}>")))
    }

    /// Realize every layer, every column group verified, and assemble
    /// an eager [`LayerSet`] — what a pending delta is folded into, and
    /// what the writers consume. Layers stay shared with this snapshot's
    /// cache (cloning a [`Layer`] clones two `Arc`s).
    pub fn to_layer_set(&self) -> Result<LayerSet, StoreError> {
        let mut layers = Vec::with_capacity(self.inner.layers.len());
        for k in 0..self.inner.layers.len() {
            let layer = self.layer_at(k)?;
            layer.doc().verify()?;
            layers.push((*layer).clone());
        }
        LayerSet::from_layers(&self.inner.uri, layers)
    }

    /// Decode + validate one layer from its sections — all but the tree
    /// columns' and the attribute table's, which are handed to the
    /// document as loaders ([`Snapshot::deferred`]) and verified on
    /// their first read.
    fn materialize(&self, slot: &MountLayer) -> Result<Layer, StoreError> {
        // The columns read directly are about to become live views —
        // this is the moment their checksums are verified (those the
        // catalog or `verify` has not already). A flipped payload byte
        // stops here as `StoreError::Corrupt`, before any view is built.
        let deferred = |c: &usize| {
            let tag = self.inner.checks[*c].tag;
            TREE_SECTIONS.contains(&tag) || ATTR_SECTIONS.contains(&tag)
        };
        for c in slot.checks.iter().filter(|c| !deferred(c)) {
            check_crc(&self.inner.buf, &self.inner.checks[*c], Some(&slot.name))?;
        }
        let sect = |tag: u32| -> io::Result<Range<usize>> {
            slot.sections
                .get(&tag)
                .cloned()
                .ok_or_else(|| bad(&format!("layer {:?}: missing section {tag}", slot.name)))
        };
        let wrap = |e: io::Error| -> StoreError {
            StoreError::Io(io::Error::new(
                e.kind(),
                format!("layer {:?}: {e}", slot.name),
            ))
        };

        let (uri, names) =
            read_doc_meta(&self.inner.buf[sect(SEC_DOC_META).map_err(StoreError::Io)?])
                .map_err(wrap)?;

        let kind = KindCol::view(&self.inner.buf, sect(SEC_DOC_KIND).map_err(StoreError::Io)?)
            .map_err(wrap)?;
        let col =
            |tag: u32| -> io::Result<PodCol<u32>> { PodCol::view(&self.inner.buf, sect(tag)?) };
        let tree_kind = kind.clone();
        let tree = self.deferred(slot, TREE_SECTIONS, move |buf, r| {
            let view_err = |column: &'static str| move |e: io::Error| (column, e.to_string());
            TreeColumns::from_storage(
                PodCol::view(buf, r[0].clone()).map_err(view_err("size"))?,
                PodCol::view(buf, r[1].clone()).map_err(view_err("level"))?,
                PodCol::view(buf, r[2].clone()).map_err(view_err("parent"))?,
                StrArena::view(buf, r[3].clone(), r[4].clone())
                    .map_err(view_err("value-offsets"))?,
                &tree_kind,
            )
        })?;
        // The region index: its entries, from which `from_storage`
        // derives the node view. It also refuses an index annotating any
        // node but an element of this document. The attribute table
        // presents its region attributes from it, so it is built first;
        // its failure is reported after the document's.
        let index = (|| -> Result<Arc<RegionIndex>, StoreError> {
            let mut r = &self.inner.buf[sect(SEC_RIDX_META).map_err(StoreError::Io)?];
            let max_regions = read_u32(&mut r).map_err(wrap)?;
            let entries = sect(SEC_RIDX_ENTRIES).map_err(StoreError::Io)?;
            let entries = PodCol::view(&self.inner.buf, entries).map_err(wrap)?;
            let index = RegionIndex::from_storage(entries, max_regions, kind.raw_bytes());
            Ok(Arc::new(index.map_err(wrap)?))
        })();
        let regions = (index.as_ref().ok())
            .and_then(|index| region_attrs(&slot.config, &names, Arc::clone(index)));
        let (nodes, name_count) = (kind.len(), names.len());
        let count = usize::try_from(slot.attrs).unwrap_or(usize::MAX);
        let attrs = self.deferred(slot, ATTR_SECTIONS, move |buf, r| {
            let view_err = |column: &'static str| move |e: io::Error| (column, e.to_string());
            AttrTable::from_storage(
                PodCol::view(buf, r[0].clone()).map_err(view_err("attr-first"))?,
                PodCol::view(buf, r[1].clone()).map_err(view_err("attr-owner"))?,
                PodCol::view(buf, r[2].clone()).map_err(view_err("attr-name"))?,
                StrArena::view(buf, r[3].clone(), r[4].clone())
                    .map_err(view_err("attr-value-offsets"))?,
                count,
                nodes,
                name_count,
                regions.clone(),
            )
        })?;
        let parts = DocumentParts {
            uri,
            names,
            kind,
            name: col(SEC_DOC_NAME).map_err(wrap)?,
            tree,
            attr_count: count,
            attrs,
            elem: ElemIndex {
                names: col(SEC_DOC_ELEM_NAMES).map_err(wrap)?,
                offsets: col(SEC_DOC_ELEM_OFF).map_err(wrap)?,
                pres: col(SEC_DOC_ELEM_PRES).map_err(wrap)?,
            },
        };
        let doc = Document::from_storage(parts).map_err(|e| wrap(bad(&e)))?;
        if doc.node_count() as u64 != slot.nodes {
            return Err(wrap(bad("layer header disagrees with document columns")));
        }

        let index = index?;
        if index.stats().annotated != slot.annotations || index.len() as u64 != slot.entries {
            return Err(wrap(bad("layer header disagrees with region index")));
        }
        Layer::from_shared(slot.name.clone(), slot.config.clone(), Arc::new(doc), index)
    }

    /// The loader of one of a layer's deferred column groups — the
    /// sections `tags`, in that order: it verifies their checksums
    /// (those `verify` or an earlier load has not hashed already), then
    /// `build` views and checks the columns at their ranges. Every
    /// failure is a [`Corrupt`] naming the section: `build` names the
    /// column (`size`, `attr-name`, …) it found broken. The loader holds
    /// the buffer and the checksum records, never the snapshot, so a
    /// layer can outlive its snapshot without a cycle. The sections not
    /// yet hashed are added to `store.verify.sections_deferred`.
    fn deferred<T: 'static>(
        &self,
        slot: &MountLayer,
        tags: [u32; 5],
        build: impl Fn(&SharedBytes, &[Range<usize>]) -> Result<T, (&'static str, String)>
            + Send
            + Sync
            + 'static,
    ) -> Result<Loader<T>, StoreError> {
        let mut ranges = Vec::with_capacity(tags.len());
        for tag in tags {
            ranges.push(
                slot.sections
                    .get(&tag)
                    .cloned()
                    .ok_or_else(|| bad(&format!("layer {:?}: missing section {tag}", slot.name)))?,
            );
        }
        let group: Vec<usize> = (slot.checks.iter().copied())
            .filter(|&c| tags.contains(&self.inner.checks[c].tag))
            .collect();
        let unverified = (group.iter())
            .filter(|&&c| !self.inner.checks[c].verified.load(Ordering::Acquire))
            .count();
        MetricsRegistry::global().add("store.verify.sections_deferred", unverified as u64);
        let buf = self.inner.buf.clone();
        let checks = Arc::clone(&self.inner.checks);
        let layer = slot.name.clone();
        Ok(Arc::new(move || {
            for &c in &group {
                match check_crc(&buf, &checks[c], Some(&layer)) {
                    Err(StoreError::Corrupt { section, detail }) => {
                        return Err(Corrupt::new(section, detail))
                    }
                    checked => checked.expect("a checksum fails as corruption"),
                }
            }
            build(&buf, &ranges).map_err(|(column, detail)| {
                Corrupt::new(format!("section doc.{column} (layer {layer})"), detail)
            })
        }))
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("uri", &self.inner.uri)
            .field(
                "layers",
                &self
                    .inner
                    .layers
                    .iter()
                    .map(|l| &l.name)
                    .collect::<Vec<_>>(),
            )
            .field(
                "materialized",
                &(0..self.inner.layers.len())
                    .filter(|&k| self.is_materialized(k))
                    .count(),
            )
            .finish()
    }
}
