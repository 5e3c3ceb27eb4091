//! Little-endian wire primitives for the small metadata sections of
//! `standoff-store`'s snapshots and for this crate's column views.
//!
//! Reads are hardened against hostile or corrupted length fields: no
//! helper allocates more than it has actually read, so a bit-flipped
//! count produces a clean [`std::io::ErrorKind::InvalidData`] /
//! `UnexpectedEof` error instead of a gigantic allocation.

use std::io::{self, Read, Write};

pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub fn write_string<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

pub fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Read exactly `len` bytes, growing the buffer as data actually
/// arrives (never pre-allocating `len`).
fn read_exact_vec<R: Read>(r: &mut R, len: u64) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(capacity_hint(len as usize));
    let got = r.take(len).read_to_end(&mut buf)?;
    if got as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated input",
        ));
    }
    Ok(buf)
}

pub fn read_string<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_u32(r)?;
    let buf = read_exact_vec(r, len as u64)?;
    String::from_utf8(buf).map_err(|_| bad_data("string is not UTF-8"))
}

/// Capacity to reserve for a collection whose element count came off the
/// wire: trust small counts, let big (possibly hostile) ones grow
/// organically as elements are actually decoded.
pub fn capacity_hint(count: usize) -> usize {
    count.min(64 * 1024)
}

pub fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        write_string(&mut buf, "héllo").unwrap();
        let r = &mut buf.as_slice();
        assert_eq!(read_u32(r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(r).unwrap(), u64::MAX - 1);
        assert_eq!(read_string(r).unwrap(), "héllo");
    }

    #[test]
    fn hostile_length_fails_without_allocating() {
        // A string claiming 4 GiB backed by 3 bytes must fail cleanly.
        let mut buf = Vec::new();
        write_u32(&mut buf, u32::MAX).unwrap();
        buf.extend_from_slice(b"abc");
        let err = read_string(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn capacity_hint_is_bounded() {
        assert_eq!(capacity_hint(10), 10);
        assert_eq!(capacity_hint(usize::MAX), 64 * 1024);
    }
}
