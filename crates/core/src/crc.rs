//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), dependency-free.
//!
//! The durability layer records one checksum per snapshot section and
//! per WAL record. CRC-32 is the right tool there: it detects every
//! single-bit flip and every burst shorter than 32 bits, and needs no
//! external crate. It is **not** a cryptographic hash — the store's
//! threat model is torn writes and bit rot, not an adversary forging
//! payloads.
//!
//! Three implementations compute the same function; the widest the CPU
//! has (detected at run time) takes bulk input:
//!
//! * `vpclmulqdq` (x86-64 with AVX-512): inputs of 512 bytes or more are
//!   *folded* 256 bytes per step — four 512-bit accumulators, each
//!   absorbing 64 input bytes with two carry-less multiplies. The four
//!   are then folded into the four 128-bit lanes of one 64-byte window
//!   and finish on the narrow kernel's tail.
//! * `pclmulqdq` (x86-64): whole 64-byte runs are folded by four 128-bit
//!   lanes, each absorbing 16 input bytes per step with two multiplies;
//!   the lanes are folded into one, and a Barrett reduction brings 128
//!   bits down to the 32-bit state (Gopal et al., "Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ").
//! * slicing-by-8, everywhere else and for tails shorter than a run:
//!   eight lookup tables let one loop iteration fold eight input bytes,
//!   breaking the per-byte dependency chain of the classic table walk.
//!   It is also the oracle both folded kernels are tested against.
//!
//! Snapshot sections are megabytes — the checksum tax on mount, on save
//! and on every WAL append tracks these loops directly.

use std::sync::OnceLock;

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
        // SAFETY: `kernel()` is a kernel this CPU runs.
        self.state = unsafe { kernel().update(self.state, bytes) };
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
/// process: `"vpclmulqdq"`, `"pclmulqdq"` or `"portable"`. For
/// diagnostics (`standoff-xq inspect` / `verify`) — there is nothing to
/// select.
pub fn implementation() -> &'static str {
    kernel().name
}

/// Bytes of one folded run: the folds take whole runs, the table walk
/// the tail.
const RUN: usize = 64;

/// One implementation of the bulk loop: its name, whether this CPU runs
/// it, and its fold of whole [`RUN`]s (`None`: the table walk alone).
struct Kernel {
    name: &'static str,
    supported: fn() -> bool,
    /// Safe to call once `supported` holds, on a non-empty whole number
    /// of runs.
    fold: Option<unsafe fn(u32, &[u8]) -> u32>,
}

/// Every kernel, widest first.
const KERNELS: &[Kernel] = &[
    #[cfg(target_arch = "x86_64")]
    Kernel {
        name: "vpclmulqdq",
        supported: clmul::wide_available,
        fold: Some(clmul::fold_runs_wide),
    },
    #[cfg(target_arch = "x86_64")]
    Kernel {
        name: "pclmulqdq",
        supported: clmul::available,
        fold: Some(clmul::fold_runs),
    },
    Kernel {
        name: "portable",
        supported: || true,
        fold: None,
    },
];

/// The widest kernel this CPU runs, picked once per process.
fn kernel() -> &'static Kernel {
    static PICKED: OnceLock<&Kernel> = OnceLock::new();
    PICKED.get_or_init(|| {
        KERNELS
            .iter()
            .find(|k| (k.supported)())
            .expect("the portable kernel runs everywhere")
    })
}

impl Kernel {
    /// Advance the raw (un-finalized) state over `bytes`.
    ///
    /// # Safety
    ///
    /// The CPU must run this kernel: `supported` holds.
    unsafe fn update(&self, state: u32, bytes: &[u8]) -> u32 {
        let (runs, tail) = bytes.split_at(bytes.len() / RUN * RUN);
        match self.fold {
            // SAFETY: the caller vouches for the CPU features the fold is
            // compiled for; `runs` is a non-empty whole number of runs,
            // as it requires.
            Some(fold) if !runs.is_empty() => update_portable(unsafe { fold(state, runs) }, tail),
            _ => update_portable(state, bytes),
        }
    }
}

/// Carry-less-multiply folding of whole 64-byte runs (bit-reflected
/// CRC-32/IEEE).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    use super::RUN;

    /// Bytes one step of the wide loop consumes: four 512-bit registers.
    const WIDE_RUN: usize = 256;

    // x^n mod P(x) for the fold distances, bit-reflected: 4 lanes ahead
    // (K1, K2), 1 lane ahead (K3, K4), 64 → 32 bits (K5); then P(x) and
    // μ = ⌊x^64 / P(x)⌋ for the Barrett step. A fold by `d` bytes
    // multiplies by x^(8d + 32) and x^(8d − 32).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;
    /// 16 lanes (256 bytes) ahead: the wide loop's distance.
    const K1_WIDE: i64 = 0x1_1542_778a;
    const K2_WIDE: i64 = 0x1_322d_1430;

    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq")
    }

    #[inline]
    pub(super) fn wide_available() -> bool {
        available() && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("vpclmulqdq")
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

    /// [`fold`] on the four 128-bit lanes of a 512-bit register at once.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and `vpclmulqdq` ([`wide_available`]).
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn fold_wide(lanes: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(lanes, keys, 0x00);
        let hi = _mm512_clmulepi64_epi128(lanes, keys, 0x11);
        // Three-way XOR (truth table 0x96).
        _mm512_ternarylogic_epi64::<0x96>(next, lo, hi)
    }

    /// The four 16-byte lanes of a 64-byte run; unaligned loads that
    /// `chunks_exact` keeps inside the input.
    ///
    /// # Safety
    ///
    /// `block` must hold at least [`RUN`] bytes.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn lanes(block: &[u8]) -> [__m128i; 4] {
        debug_assert!(block.len() >= RUN);
        let p = block.as_ptr() as *const __m128i;
        [
            _mm_loadu_si128(p),
            _mm_loadu_si128(p.add(1)),
            _mm_loadu_si128(p.add(2)),
            _mm_loadu_si128(p.add(3)),
        ]
    }

    /// Advance the raw CRC state over `runs`, four 128-bit lanes wide.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` ([`available`]), and `runs` must
    /// be a non-empty whole number of [`RUN`]-byte blocks.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold_runs(state: u32, runs: &[u8]) -> u32 {
        debug_assert!(!runs.is_empty() && runs.len().is_multiple_of(RUN));
        let (first, rest) = runs.split_at(RUN);
        let mut x = lanes(first);
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        fold_tail(x, rest)
    }

    /// [`fold_runs`], 256 bytes per step where there are at least two
    /// such steps: four 512-bit accumulators, collapsed at the end into
    /// the four lanes [`fold_tail`] carries on with.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, `vpclmulqdq` and `pclmulqdq`
    /// ([`wide_available`]), and `runs` must be a non-empty whole number
    /// of [`RUN`]-byte blocks.
    #[target_feature(enable = "pclmulqdq,avx512f,vpclmulqdq")]
    pub(super) unsafe fn fold_runs_wide(state: u32, runs: &[u8]) -> u32 {
        debug_assert!(!runs.is_empty() && runs.len().is_multiple_of(RUN));
        if runs.len() < 2 * WIDE_RUN {
            return fold_runs(state, runs);
        }
        let (wide, rest) = runs.split_at(runs.len() / WIDE_RUN * WIDE_RUN);
        let registers = |block: &[u8]| -> [__m512i; 4] {
            let p = block.as_ptr() as *const __m512i;
            [
                _mm512_loadu_si512(p),
                _mm512_loadu_si512(p.add(1)),
                _mm512_loadu_si512(p.add(2)),
                _mm512_loadu_si512(p.add(3)),
            ]
        };
        let mut blocks = wide.chunks_exact(WIDE_RUN);
        let mut z = registers(blocks.next().expect("at least two wide runs"));
        let seed = _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32));
        z[0] = _mm512_xor_si512(z[0], seed);
        let wide_keys = _mm512_broadcast_i32x4(_mm_set_epi64x(K2_WIDE, K1_WIDE));
        for block in blocks {
            for (lanes, next) in z.iter_mut().zip(registers(block)) {
                *lanes = fold_wide(*lanes, next, wide_keys);
            }
        }
        // Four 64-byte accumulators → the four lanes of the last one.
        let k1k2 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let v = z[1..]
            .iter()
            .fold(z[0], |v, &next| fold_wide(v, next, k1k2));
        // Lane `j` of a 512-bit register is its bytes `16j..16j + 16`.
        fold_tail(std::mem::transmute::<__m512i, [__m128i; 4]>(v), rest)
    }

    /// Fold the whole [`RUN`]-byte blocks of `rest` into the four lanes
    /// `x`, then reduce them to the 32-bit state.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` ([`available`]).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_tail(mut x: [__m128i; 4], rest: &[u8]) -> u32 {
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in rest.chunks_exact(RUN) {
            for (lane, next) in x.iter_mut().zip(lanes(block)) {
                *lane = fold(*lane, next, k1k2);
            }
        }
        // Four lanes → one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let v = x[1..].iter().fold(x[0], |v, &next| fold(v, next, k3k4));
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
        assert!(["vpclmulqdq", "pclmulqdq", "portable"].contains(&implementation()));
        assert_eq!(implementation(), kernel().name);
    }

    /// Every kernel this CPU runs, each called directly — so the narrow
    /// fold is tested on hosts where `update` picks the wide one.
    fn kernels() -> impl Iterator<Item = &'static Kernel> {
        KERNELS.iter().filter(|k| (k.supported)())
    }

    /// [`kernels`] but the table walk, which is the oracle itself.
    fn folded() -> impl Iterator<Item = &'static Kernel> {
        kernels().filter(|k| k.fold.is_some())
    }

    /// `k.update`, checked to run on this CPU.
    fn run(k: &Kernel, state: u32, bytes: &[u8]) -> u32 {
        assert!((k.supported)(), "{} unsupported", k.name);
        // SAFETY: just checked.
        unsafe { k.update(state, bytes) }
    }

    #[test]
    fn every_kernel_equals_portable_at_every_length_and_offset() {
        let data = noise(2100 + 64, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..64 {
            // The initial state and a non-zero incoming one; the oracle
            // advances both one byte per length.
            let starts = [0xFFFF_FFFF, 0x1234_5678u32.rotate_left(offset as u32)];
            let mut want = starts;
            for len in 0..=2100 {
                let slice = &data[offset..offset + len];
                for (&start, &want) in starts.iter().zip(&want) {
                    for k in folded() {
                        assert_eq!(
                            run(k, start, slice),
                            want,
                            "{} offset {offset} len {len} state {start:#x}",
                            k.name
                        );
                    }
                }
                let next = &data[offset + len..offset + len + 1];
                want = want.map(|state| update_portable(state, next));
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
            let want = update_portable(0xFFFF_FFFF, &data);
            assert_eq!(crc32(&data), want ^ 0xFFFF_FFFF, "len {len}");
            for k in kernels() {
                assert_eq!(run(k, 0xFFFF_FFFF, &data), want, "{} len {len}", k.name);
                // A nonzero incoming state must carry through the fold too.
                let (head, rest) = data.split_at(12_345);
                let split = run(k, run(k, 0xFFFF_FFFF, head), rest);
                assert_eq!(split, want, "{} len {len}, split", k.name);
            }
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
        // Splits that land inside a 64-byte run or a 256-byte wide step
        // of either half, on every kernel.
        for cut in [
            64 + 31,
            512 + 100,
            2 * 256 + 255,
            4096 + 1,
            4096 + 128,
            data.len() - 256 - 77,
            data.len() - 64 - 5,
        ] {
            let mut streamed = Crc32::new();
            streamed.update(&data[..cut]);
            streamed.update(&data[cut..]);
            assert_eq!(streamed.finish(), reference, "cut at {cut}");
            for k in kernels() {
                let state = run(k, run(k, 0xFFFF_FFFF, &data[..cut]), &data[cut..]);
                assert_eq!(state ^ 0xFFFF_FFFF, reference, "{} cut at {cut}", k.name);
            }
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
