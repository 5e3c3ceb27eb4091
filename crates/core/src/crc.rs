//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), dependency-free.
//!
//! The durability layer records one checksum per snapshot section and
//! per WAL record. CRC-32 is the right tool there: it detects every
//! single-bit flip and every burst shorter than 32 bits, and needs no
//! external crate. It is **not** a cryptographic hash — the store's
//! threat model is torn writes and bit rot, not an adversary forging
//! payloads.
//!
//! Two implementations compute the same function. Wherever the CPU has
//! carry-less multiply (x86-64 `pclmulqdq`, detected at run time) whole
//! 64-byte runs are *folded*: four 128-bit lanes each absorb 16 input
//! bytes per step with two multiplies, the lanes are folded into one, and
//! a Barrett reduction brings 128 bits down to the 32-bit state (Gopal et
//! al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ").
//! Everything else — tails shorter than a run, every other target — goes
//! through slicing-by-8: eight lookup tables let one loop iteration fold
//! eight input bytes, breaking the per-byte dependency chain of the
//! classic table walk. The table path is also the oracle the folded path
//! is tested against. Snapshot sections are megabytes — the checksum tax
//! on mount, on save and on every WAL append tracks these loops directly.

/// `TABLES[0]` is the classic per-byte table of the reflected
/// polynomial `0xEDB88320`; `TABLES[k]` gives the state after the
/// byte has been pushed through `k` further zero bytes, which is what
/// lets eight bytes fold in one step. All derived at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][n] = crc;
        n += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        t += 1;
    }
    tables
};

/// Streaming CRC-32 state; feed chunks with [`Crc32::update`], read the
/// digest with [`Crc32::finish`].
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::RUN && clmul::available() {
            let (runs, tail) = bytes.split_at(bytes.len() / clmul::RUN * clmul::RUN);
            // SAFETY: `available()` just confirmed the CPU feature the
            // function is compiled for; `runs` is a non-empty whole
            // number of 64-byte runs, as it requires.
            self.state = unsafe { clmul::fold_runs(self.state, runs) };
            self.state = update_portable(self.state, tail);
            return;
        }
        self.state = update_portable(self.state, bytes);
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Slicing-by-8 over the raw (un-finalized) state: the portable
/// implementation and the test oracle of the folded one.
fn update_portable(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold the CRC state into the first four bytes, then push
        // all eight through their zero-padding tables at once.
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Which implementation [`Crc32::update`] uses for bulk input in this
/// process: `"pclmulqdq"` or `"portable"`. For diagnostics (`standoff-xq
/// inspect` / `verify`) — there is nothing to select.
pub fn implementation() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        return "pclmulqdq";
    }
    "portable"
}

/// Carry-less-multiply folding of whole 64-byte runs (bit-reflected
/// CRC-32/IEEE).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Bytes one step of the four-lane loop consumes.
    pub(super) const RUN: usize = 64;

    // x^n mod P(x) for the fold distances, bit-reflected: 4 lanes ahead
    // (K1, K2), 1 lane ahead (K3, K4), 64 → 32 bits (K5); then P(x) and
    // μ = ⌊x^64 / P(x)⌋ for the Barrett step.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq")
    }

    /// `lane` moved ahead by the distance `keys` encodes, plus `next`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` ([`available`]).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advance the raw CRC state over `runs`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` ([`available`]), and `runs` must
    /// be a non-empty whole number of [`RUN`]-byte blocks.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold_runs(state: u32, runs: &[u8]) -> u32 {
        debug_assert!(!runs.is_empty() && runs.len().is_multiple_of(RUN));
        // Unaligned 16-byte loads; `chunks_exact` keeps every one of
        // them inside `runs`.
        let lanes = |block: &[u8]| -> [__m128i; 4] {
            let p = block.as_ptr() as *const __m128i;
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        let mut blocks = runs.chunks_exact(RUN);
        let mut x = lanes(blocks.next().expect("at least one run"));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            let next = lanes(block);
            x[0] = fold(x[0], next[0], k1k2);
            x[1] = fold(x[1], next[1], k1k2);
            x[2] = fold(x[2], next[2], k1k2);
            x[3] = fold(x[3], next[3], k1k2);
        }
        // Four lanes → one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut v = fold(x[0], x[1], k3k4);
        v = fold(v, x[2], k3k4);
        v = fold(v, x[3], k3k4);
        // 128 → 64 → 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let v = _mm_xor_si128(_mm_clmulepi64_si128(v, k3k4, 0x10), _mm_srli_si128(v, 8));
        let v = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(v, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(v, 4),
        );
        // Barrett reduction; the reflected result sits in bits 32..64.
        let pu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(v, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(v, t2), 4)) as u32
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value of the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"standoff"), crc32(b"standoff"));
        assert_ne!(crc32(b"standoff"), crc32(b"standofg"));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut streamed = Crc32::new();
        for chunk in data.chunks(7) {
            streamed.update(chunk);
        }
        assert_eq!(streamed.finish(), crc32(&data));
    }

    /// The digest through the table path alone.
    fn portable(bytes: &[u8]) -> u32 {
        update_portable(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Deterministic filler (xorshift), so failures reproduce.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn check_value_on_both_paths() {
        assert_eq!(portable(b"123456789"), 0xCBF4_3926);
        // Long enough to reach the folded path where there is one: the
        // check string after 128 zero bytes, against the bitwise
        // definition of the polynomial.
        let mut padded = vec![0u8; 128];
        padded.extend_from_slice(b"123456789");
        let mut bitwise = 0xFFFF_FFFFu32;
        for &b in &padded {
            bitwise ^= b as u32;
            for _ in 0..8 {
                bitwise = (bitwise >> 1) ^ (0xEDB8_8320 & (bitwise & 1).wrapping_neg());
            }
        }
        assert_eq!(crc32(&padded), bitwise ^ 0xFFFF_FFFF);
        assert_eq!(portable(&padded), bitwise ^ 0xFFFF_FFFF);
        assert!(["pclmulqdq", "portable"].contains(&implementation()));
    }

    #[test]
    fn folded_equals_portable_at_every_length_and_offset() {
        let data = noise(300 + 16, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..16 {
            for len in 0..=300 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), portable(slice), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn folded_equals_portable_on_large_buffers() {
        for (len, seed) in [
            (1 << 20, 1u64),
            (3 * (1 << 20) + 17, 2),
            ((1 << 22) + 63, 3),
        ] {
            let data = noise(len, seed);
            assert_eq!(crc32(&data), portable(&data), "len {len}");
            // A nonzero incoming state must carry through the fold too.
            let (head, rest) = data.split_at(12_345);
            let mut streamed = Crc32::new();
            streamed.update(head);
            streamed.update(rest);
            assert_eq!(streamed.finish(), portable(&data), "len {len}, split");
        }
    }

    #[test]
    fn streaming_splits_equal_one_shot() {
        let data = noise(20_000, 7);
        let reference = portable(&data);
        for chunk in [1, 7, 63, 64, 65, 4096] {
            let mut streamed = Crc32::new();
            for piece in data.chunks(chunk) {
                streamed.update(piece);
            }
            assert_eq!(streamed.finish(), reference, "chunks of {chunk}");
        }
        // A split that lands inside a 64-byte run of either half.
        for cut in [64 + 31, 4096 + 1, data.len() - 64 - 5] {
            let mut streamed = Crc32::new();
            streamed.update(&data[..cut]);
            streamed.update(&data[cut..]);
            assert_eq!(streamed.finish(), reference, "cut at {cut}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&data);
        for k in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[k] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {k} bit {bit}");
            }
        }
    }
}
