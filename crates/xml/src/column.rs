//! Dual-backend column storage: owned vectors or zero-copy views over a
//! shared snapshot buffer.
//!
//! Every bulk column in the workspace — document node columns, attribute
//! tables, element-name CSR, region-index tables — is a [`PodCol`]:
//! either an owned `Vec<T>` (the parse/build path) or a typed view into
//! one shared `SharedBytes` buffer (the snapshot *mount* path). Mounting a
//! column is a bounds/alignment check, not a decode loop: on
//! little-endian targets an aligned byte range is reinterpreted in place,
//! so opening a multi-layer snapshot costs I/O plus validation scans
//! instead of per-element allocation. Misaligned ranges and big-endian
//! targets transparently fall back to an element-by-element decode, so
//! the *format* carries no alignment or endianness obligations — padding
//! in the writer is purely an optimization.
//!
//! String values live in a [`StrArena`]: one concatenated UTF-8 heap plus
//! an offset column, replacing the historical `Vec<Box<str>>` (one heap
//! allocation per node value). Arena slots resolve to `&str` on access;
//! UTF-8 validity and slot boundaries are checked once, at construction.

use std::fmt;
use std::io::{self, Write};
use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::wire::{bad_data, capacity_hint};

/// Marker for element types whose in-memory layout equals their
/// little-endian wire layout.
///
/// # Safety
///
/// Implementors must guarantee:
/// * `WIDTH == size_of::<Self>()`,
/// * every bit pattern produced by [`Pod::write_le`] followed by an
///   in-place reinterpretation on a little-endian target denotes the
///   same value `read_le` decodes (padding bytes, if any, are never read
///   through the reinterpreted reference),
/// * **any** initialized byte pattern is a valid instance — types with
///   invalid bit patterns (enums, `bool`, references) must not implement
///   this trait. Semantic invariants beyond bit validity (e.g. a region's
///   `start ≤ end`) are *not* covered and must be re-checked by the
///   mounting code.
pub unsafe trait Pod: Copy + Send + Sync + 'static {
    /// Bytes per element, on the wire and in memory.
    const WIDTH: usize;
    /// Decode one element from exactly [`Pod::WIDTH`] bytes.
    fn read_le(bytes: &[u8]) -> Self;
    /// Encode one element as exactly [`Pod::WIDTH`] bytes.
    fn write_le<W: Write>(self, w: &mut W) -> io::Result<()>;
}

macro_rules! int_pod {
    ($($t:ty),*) => {$(
        unsafe impl Pod for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("WIDTH bytes"))
            }
            #[inline]
            fn write_le<W: Write>(self, w: &mut W) -> io::Result<()> {
                w.write_all(&self.to_le_bytes())
            }
        }
    )*};
}

int_pod!(u8, u16, u32, u64, i64);

/// The shared, immutable byte buffer snapshot mounts view into: heap
/// bytes, or a read-only private mapping of a snapshot file. Dereferences
/// to `[u8]` either way; cloning shares the one buffer (every mounted
/// column holds a clone), and the last clone to drop frees or unmaps it.
///
/// The heap form wraps the `Vec` it is given — no copy. The mapped form
/// costs page-table entries for what is touched instead of a read and a
/// copy of the whole file; it stays valid for as long as nobody rewrites
/// the file *in place* (see [`SharedBytes::map_file`]).
#[derive(Clone)]
pub struct SharedBytes(Arc<Backing>);

enum Backing {
    Heap(Vec<u8>),
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mapping::Mapping),
}

impl SharedBytes {
    /// Wrap owned bytes (no copy).
    pub fn from_vec(bytes: Vec<u8>) -> SharedBytes {
        SharedBytes(Arc::new(Backing::Heap(bytes)))
    }

    /// Map `file` read-only and privately, whole. Fails — the caller
    /// falls back to reading — for an empty file (a zero-length mapping
    /// is an error, not an empty buffer) and whenever the kernel refuses.
    ///
    /// The mapping tracks the *inode*: replacing the path by rename (what
    /// every writer in this workspace does) leaves it intact, but a third
    /// party truncating the file in place turns later reads of the lost
    /// pages into `SIGBUS`, which no error path can catch.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map_file(file: &std::fs::File) -> io::Result<SharedBytes> {
        Ok(SharedBytes(Arc::new(Backing::Mapped(
            mapping::Mapping::of(file)?,
        ))))
    }

    /// Is this buffer a file mapping (vs heap bytes)?
    pub fn is_mapped(&self) -> bool {
        !matches!(*self.0, Backing::Heap(_))
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &*self.0 {
            Backing::Heap(bytes) => bytes,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(map) => map.bytes(),
        }
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedBytes")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod mapping {
    use std::io;

    /// One live `mmap(2)` region, unmapped on drop. Raw libc bindings, like
    /// the CLI's `signal` and the server's `poll` — the workspace stays
    /// dependency-free. 64-bit unix only: there `off_t` is `i64` everywhere.
    pub(super) struct Mapping {
        ptr: *mut std::ffi::c_void,
        len: usize,
    }

    extern "C" {
        fn mmap(
            addr: *mut std::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut std::ffi::c_void;
        fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
    }

    impl Mapping {
        pub(super) fn of(file: &std::fs::File) -> io::Result<Mapping> {
            use std::os::fd::AsRawFd;
            const PROT_READ: i32 = 1;
            const MAP_PRIVATE: i32 = 2;
            let len = usize::try_from(file.metadata()?.len())
                .ok()
                .filter(|&len| len > 0)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "nothing to map"))?;
            // SAFETY: a fresh mapping at a kernel-chosen address aliases no
            // Rust object; `fd` is open for the duration of the call, and the
            // result is checked against MAP_FAILED before it is used.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }

        #[inline]
        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr..ptr + len` is one live PROT_READ mapping owned by
            // `self` (unmapped only in `drop`), page-aligned and non-null;
            // nothing in this process writes through it.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: exactly the region `mmap` returned, unmapped once; no
            // borrow of `bytes()` can outlive `self`. A failure leaks the
            // mapping, which `drop` can do nothing about.
            unsafe { munmap(self.ptr, self.len) };
        }
    }

    // SAFETY: the mapping is read-only for its whole life and owned by this
    // value alone, so sharing or moving it across threads is sharing `&[u8]`.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}
}

/// What keeps a column's storage alive: an owned vector or the shared
/// mount buffer. Only consulted on clone/introspection — element access
/// goes through the cached `(ptr, len)` pair and never branches on this.
enum Keeper<T: Pod> {
    Owned(Vec<T>),
    View(SharedBytes),
}

/// A column of `T`: owned, or a zero-copy view over a mounted buffer.
/// Dereferences to `&[T]` either way. The slice pointer/length are
/// cached in the struct so `Deref` is branch-free — the accessors on
/// `Document`/`RegionIndex` sit in the query executor's innermost
/// loops, where a per-access backend match is measurable.
pub struct PodCol<T: Pod> {
    /// Points into `keeper`'s storage (the `Vec`'s heap buffer or the
    /// shared byte buffer) — both stay put for the column's lifetime:
    /// moving the column moves the `Vec` struct, not its heap
    /// allocation, and nothing ever mutates either backend.
    ptr: *const T,
    len: usize,
    keeper: Keeper<T>,
}

// Safety: the column is an immutable view of storage it keeps alive
// itself; `T: Pod` is `Send + Sync` and never written through.
unsafe impl<T: Pod> Send for PodCol<T> {}
unsafe impl<T: Pod> Sync for PodCol<T> {}

impl<T: Pod> PodCol<T> {
    /// An owned column (the parse/build backend).
    pub fn owned(values: Vec<T>) -> Self {
        PodCol {
            // `Vec::as_ptr` is aligned and non-null even when empty.
            ptr: values.as_ptr(),
            len: values.len(),
            keeper: Keeper::Owned(values),
        }
    }

    /// Mount `range` of `buf` as a column of `T`.
    ///
    /// The range must lie inside the buffer and hold a whole number of
    /// elements. On little-endian targets with a suitably aligned range
    /// this is zero-copy; otherwise the elements are decoded into an
    /// owned column (same values, no format obligation).
    pub fn view(buf: &SharedBytes, range: Range<usize>) -> io::Result<Self> {
        let bytes = buf
            .get(range)
            .ok_or_else(|| bad_data("column range outside buffer"))?;
        if T::WIDTH == 0 || bytes.len() % T::WIDTH != 0 {
            return Err(bad_data("column length is not a whole number of elements"));
        }
        let len = bytes.len() / T::WIDTH;
        if cfg!(target_endian = "little")
            && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
        {
            Ok(PodCol {
                ptr: bytes.as_ptr() as *const T,
                len,
                keeper: Keeper::View(buf.clone()),
            })
        } else {
            let mut out = Vec::with_capacity(capacity_hint(len));
            for chunk in bytes.chunks_exact(T::WIDTH) {
                out.push(T::read_le(chunk));
            }
            Ok(PodCol::owned(out))
        }
    }

    /// Is this column a zero-copy view (vs an owned vector)? Exposed so
    /// benches and tests can assert the mount path actually mounted.
    pub fn is_view(&self) -> bool {
        matches!(self.keeper, Keeper::View(_))
    }
}

/// Staging block of [`write_slice_le`]: elements are encoded into a
/// block of at most this many bytes, and the writer sees whole blocks.
pub const WRITE_BLOCK_BYTES: usize = 8192;

/// Serialize a slice of pod elements in order (the snapshot writer's
/// column dump). The byte length is `len() * T::WIDTH`.
///
/// Elements are encoded into a stack block and handed to `w` a block at
/// a time, so a column costs one `write_all` per ~8 KiB rather than one
/// (or, for multi-field pods, several) per element — which is what a
/// `dyn Write`, a `BufWriter` or a checksumming sink charges for. The
/// bytes are exactly the concatenation of each element's
/// [`Pod::write_le`].
pub fn write_slice_le<T: Pod, W: Write>(values: &[T], w: &mut W) -> io::Result<()> {
    assert!(T::WIDTH > 0 && T::WIDTH <= WRITE_BLOCK_BYTES, "pod width");
    let mut block = [0u8; WRITE_BLOCK_BYTES];
    let per_block = WRITE_BLOCK_BYTES / T::WIDTH;
    for chunk in values.chunks(per_block) {
        let used = chunk.len() * T::WIDTH;
        // One fixed-width slot per element: the slot length is a
        // constant after monomorphization, so `write_le` into it
        // compiles to plain stores (one shared cursor over the whole
        // block measured 9× slower).
        for (slot, &v) in block[..used].chunks_exact_mut(T::WIDTH).zip(chunk) {
            let mut slot: &mut [u8] = slot;
            v.write_le(&mut slot)?;
        }
        w.write_all(&block[..used])?;
    }
    Ok(())
}

impl<T: Pod> Deref for PodCol<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // Safety: `ptr`/`len` were derived from an in-bounds, aligned,
        // immutable range of the storage `keeper` keeps alive for as
        // long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> Clone for PodCol<T> {
    fn clone(&self) -> Self {
        match &self.keeper {
            // An owned clone gets its own heap buffer, so its cached
            // pointer must be recomputed (PodCol::owned does).
            Keeper::Owned(v) => PodCol::owned(v.clone()),
            Keeper::View(buf) => PodCol {
                ptr: self.ptr,
                len: self.len,
                keeper: Keeper::View(buf.clone()),
            },
        }
    }
}

impl<T: Pod> Default for PodCol<T> {
    fn default() -> Self {
        PodCol::owned(Vec::new())
    }
}

impl<T: Pod> From<Vec<T>> for PodCol<T> {
    fn from(values: Vec<T>) -> Self {
        PodCol::owned(values)
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for PodCol<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PodCol")
            .field("len", &self.len())
            .field("view", &self.is_view())
            .finish()
    }
}

// ---- string arena ----

/// String storage: one concatenated UTF-8 heap plus `n + 1` offsets.
/// Slot `i` is `heap[offsets[i] .. offsets[i + 1]]`. Validated once at
/// construction (monotone in-range offsets on char boundaries, valid
/// UTF-8 heap), so access is a bounds-checked slice, not a re-check.
#[derive(Clone, Default)]
pub struct StrArena {
    heap: PodCol<u8>,
    offsets: PodCol<u32>,
}

impl StrArena {
    /// Build an owned arena from strings.
    pub fn from_strs<I, S>(strs: I) -> StrArena
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut builder = StrArenaBuilder::new();
        for s in strs {
            builder.push(s.as_ref());
        }
        builder.finish()
    }

    /// Mount an arena over `buf`: `heap` is the raw byte range,
    /// `offsets` a `u32` column of `n + 1` entries. All slot invariants
    /// are validated here.
    pub fn view(
        buf: &SharedBytes,
        heap: Range<usize>,
        offsets: Range<usize>,
    ) -> io::Result<StrArena> {
        let arena = StrArena {
            heap: PodCol::view(buf, heap)?,
            offsets: PodCol::view(buf, offsets)?,
        };
        arena.validate()?;
        Ok(arena)
    }

    fn validate(&self) -> io::Result<()> {
        if self.offsets.is_empty() {
            return Err(bad_data("string arena has no offsets"));
        }
        if self.offsets[0] != 0 {
            return Err(bad_data("string arena offsets do not start at 0"));
        }
        // One branch-free pass; the last offset then bounds them all.
        if !self
            .offsets
            .windows(2)
            .fold(true, |ok, w| ok & (w[0] <= w[1]))
        {
            return Err(bad_data("string arena offsets not monotone"));
        }
        if *self.offsets.last().unwrap() as usize != self.heap.len() {
            return Err(bad_data("string arena offsets do not cover the heap"));
        }
        // Every offset into an ASCII heap is a char boundary.
        if self.heap.is_ascii() {
            return Ok(());
        }
        let text = std::str::from_utf8(&self.heap)
            .map_err(|_| bad_data("string arena heap is not UTF-8"))?;
        if !self
            .offsets
            .iter()
            .all(|&off| text.is_char_boundary(off as usize))
        {
            return Err(bad_data("string arena slot splits a UTF-8 character"));
        }
        Ok(())
    }

    /// Number of string slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string in slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        debug_assert!(std::str::from_utf8(&self.heap[lo..hi]).is_ok());
        // Safety: offsets were validated (or owned-built) to be in-range
        // char boundaries of a UTF-8 heap.
        unsafe { std::str::from_utf8_unchecked(&self.heap[lo..hi]) }
    }

    /// The raw heap bytes (the snapshot writer's heap dump).
    pub fn heap_bytes(&self) -> &[u8] {
        &self.heap
    }

    /// The raw offset column (the snapshot writer's offset dump).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Are both backing columns zero-copy views?
    pub fn is_view(&self) -> bool {
        self.heap.is_view() && self.offsets.is_view()
    }
}

/// Incremental [`StrArena`] construction (the document-builder /
/// parser backend): strings append straight into the heap — no
/// per-string `Box` allocation, ever.
#[derive(Clone, Debug)]
pub struct StrArenaBuilder {
    heap: Vec<u8>,
    offsets: Vec<u32>,
}

impl Default for StrArenaBuilder {
    fn default() -> Self {
        StrArenaBuilder {
            heap: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl StrArenaBuilder {
    pub fn new() -> StrArenaBuilder {
        StrArenaBuilder::default()
    }

    /// Pre-size for an expected slot count (bulk loads).
    pub fn reserve(&mut self, slots: usize) {
        self.offsets.reserve(slots);
    }

    /// Append one string slot.
    pub fn push(&mut self, s: &str) {
        self.heap.extend_from_slice(s.as_bytes());
        self.bump_last_offset();
    }

    /// Extend the most recently pushed slot in place (text-node merging
    /// in the document builder — the last slot's bytes are the heap
    /// tail, so appending is just growing it).
    pub fn append_to_last(&mut self, s: &str) {
        debug_assert!(self.offsets.len() > 1, "no slot to append to");
        self.heap.extend_from_slice(s.as_bytes());
        self.offsets.pop();
        self.bump_last_offset();
    }

    fn bump_last_offset(&mut self) {
        // Offsets are u32 on disk and in memory: a document's string
        // data is bounded at 4 GiB (the same u32 bound node counts and
        // pre ranks already live under). Checked here, where the heap
        // grows, so it can never truncate silently.
        let off = u32::try_from(self.heap.len())
            .expect("document string data exceeds the 4 GiB per-document bound");
        self.offsets.push(off);
    }

    /// Number of slots pushed so far.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn finish(self) -> StrArena {
        StrArena {
            heap: PodCol::owned(self.heap),
            offsets: PodCol::owned(self.offsets),
        }
    }
}

impl fmt::Debug for StrArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrArena")
            .field("slots", &self.len())
            .field("heap_bytes", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(bytes: &[u8]) -> SharedBytes {
        SharedBytes::from_vec(bytes.to_vec())
    }

    #[test]
    fn owned_round_trip() {
        let col = PodCol::owned(vec![1u32, 2, 3]);
        assert_eq!(&*col, &[1, 2, 3]);
        assert!(!col.is_view());
        let mut bytes = Vec::new();
        write_slice_le(&col, &mut bytes).unwrap();
        assert_eq!(bytes, [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]);
    }

    #[test]
    fn view_reads_le_values() {
        let b = buf(&[1, 0, 0, 0, 0xff, 0, 0, 0]);
        let col: PodCol<u32> = PodCol::view(&b, 0..8).unwrap();
        assert_eq!(&*col, &[1, 0xff]);
        // A whole-buffer u32 view of an 8-aligned Arc is zero-copy on LE.
        if cfg!(target_endian = "little") && (b.as_ptr() as usize).is_multiple_of(4) {
            assert!(col.is_view());
        }
        let cloned = col.clone();
        assert_eq!(&*cloned, &*col);
    }

    #[test]
    fn view_rejects_bad_ranges() {
        let b = buf(&[0; 8]);
        assert!(PodCol::<u32>::view(&b, 0..9).is_err(), "out of bounds");
        assert!(PodCol::<u32>::view(&b, 0..6).is_err(), "ragged length");
        assert!(PodCol::<u32>::view(&b, 0..0).is_ok(), "empty is fine");
    }

    #[test]
    fn misaligned_view_falls_back_to_owned_decode() {
        let b = buf(&[0, 7, 0, 0, 0]);
        let col: PodCol<u32> = PodCol::view(&b, 1..5).unwrap();
        assert_eq!(&*col, &[7]);
    }

    #[test]
    fn arena_round_trip() {
        let arena = StrArena::from_strs(["", "héllo", "x"]);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.get(0), "");
        assert_eq!(arena.get(1), "héllo");
        assert_eq!(arena.get(2), "x");
        assert_eq!(arena.offsets(), &[0, 0, 6, 7]);
    }

    #[test]
    fn arena_view_validates() {
        // heap "ab" + offsets [0, 1, 2]
        let mut bytes = b"ab".to_vec();
        for off in [0u32, 1, 2] {
            bytes.extend_from_slice(&off.to_le_bytes());
        }
        let b = buf(&bytes);
        let arena = StrArena::view(&b, 0..2, 2..14).unwrap();
        assert_eq!(arena.get(0), "a");
        assert_eq!(arena.get(1), "b");

        // Offsets out of heap range.
        let mut bad = b"ab".to_vec();
        for off in [0u32, 9, 9] {
            bad.extend_from_slice(&off.to_le_bytes());
        }
        let b = buf(&bad);
        assert!(StrArena::view(&b, 0..2, 2..14).is_err());

        // Non-monotone offsets.
        let mut bad = b"ab".to_vec();
        for off in [0u32, 2, 1] {
            bad.extend_from_slice(&off.to_le_bytes());
        }
        let b = buf(&bad);
        assert!(StrArena::view(&b, 0..2, 2..14).is_err());

        // Slot boundary inside a multi-byte character.
        let heap = "é".as_bytes(); // 2 bytes
        let mut bad = heap.to_vec();
        for off in [0u32, 1, 2] {
            bad.extend_from_slice(&off.to_le_bytes());
        }
        let b = buf(&bad);
        assert!(StrArena::view(&b, 0..2, 2..14).is_err());

        // Non-UTF-8 heap.
        let mut bad = vec![0xff, 0xfe];
        for off in [0u32, 1, 2] {
            bad.extend_from_slice(&off.to_le_bytes());
        }
        let b = buf(&bad);
        assert!(StrArena::view(&b, 0..2, 2..14).is_err());
    }

    #[test]
    fn columns_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PodCol<u32>>();
        assert_send_sync::<StrArena>();
    }
}
