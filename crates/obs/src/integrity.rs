//! Shared data-integrity primitives.
//!
//! One CRC-32 (IEEE 802.3, reflected) implementation for the whole workspace,
//! implemented locally to stay inside the offline dependency set. It lives in
//! this zero-dependency base crate so every layer can use the *same* checksum:
//! `swlb-io` for checkpoint files, `swlb-comm` for halo-frame and protocol-body
//! checksums, `swlb-serve` for HTTP body integrity headers. (It started life in
//! `swlb-io::checkpoint`, which still re-exports it for compatibility.)
//!
//! Two paths compute the one checksum: on x86_64 with PCLMULQDQ and SSE4.1
//! (detected at run time), carry-less-multiply folding of 64 bytes per step
//! with a Barrett reduction, which runs at memory speed; slicing-by-8 tables
//! for the tails, short inputs and other hosts.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[k][b]` is the CRC register after byte `b`
/// and then `k` zero bytes, i.e. `8(k + 1)` bit steps on `b`.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 8 * 256 {
        let (mut c, mut bit) = ((n % 256) as u32, 0);
        while bit < 8 * (n / 256 + 1) {
            c = (c >> 1) ^ (POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[n / 256][n % 256] = c;
        n += 1;
    }
    t
};

/// Advance the CRC register `crc` over `bytes`, eight bytes per step.
fn update_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ crc as u64;
        crc = (0..8).fold(0, |acc, i| acc ^ TABLES[7 - i][(v >> (8 * i)) as usize & 0xFF]);
    }
    let t = &TABLES[0];
    words.remainder().iter().fold(crc, |c, &b| t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in its
/// bit-reflected form.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::*;

    // Bit-reflected x^n mod P for the 4×128-bit, 128-bit and 96 → 64-bit
    // folds; then P and the Barrett constant ⌊x^64 / P⌋.
    const K_4X128: [i64; 2] = [0x1_5444_2bd4, 0x1_c6e4_1596];
    const K_128: [i64; 2] = [0x1_7519_97d0, 0x0_ccaa_009e];
    const K_96: i64 = 0x1_63cd_6124;
    const P_MU: [i64; 2] = [0x1_db71_0641, 0x1_f701_1641];

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the CRC register `crc` over `bytes`.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ and SSE4.1 ([`available`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::update_tables(crc, bytes);
        }
        let (head, rest) = bytes.split_at(64);
        let mut x: [__m128i; 4] = std::array::from_fn(|i| load(&head[16 * i..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k_4x128 = _mm_set_epi64x(K_4X128[1], K_4X128[0]);
        let k_128 = _mm_set_epi64x(K_128[1], K_128[0]);
        let mut groups = rest.chunks_exact(64);
        for g in &mut groups {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = fold(*lane, load(&g[16 * i..]), k_4x128);
            }
        }
        let mut acc = fold(fold(fold(x[0], x[1], k_128), x[2], k_128), x[3], k_128);
        let mut blocks = groups.remainder().chunks_exact(16);
        for b in &mut blocks {
            acc = fold(acc, load(b), k_128);
        }
        // 128 → 96 → 64 bits, then the Barrett reduction to 32.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k_128, 0x10), _mm_srli_si128(acc, 8));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K_96), 0x00),
            _mm_srli_si128(acc, 4),
        );
        let pmu = _mm_set_epi64x(P_MU[1], P_MU[0]);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
        super::update_tables(crc, blocks.remainder())
    }

    /// The first 16 bytes of `b`.
    fn load(b: &[u8]) -> __m128i {
        let b: &[u8; 16] = b[..16].try_into().expect("16 bytes");
        // SAFETY: `b` is 16 readable bytes, and `loadu` needs no alignment.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// Fold the remainder `a` forward by the distance `k` encodes, add `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let (lo, hi) = (_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11));
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }
}

/// Streaming CRC-32 (IEEE 802.3, reflected).
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 64 && fold::available() {
            // SAFETY: `fold::available` confirmed PCLMULQDQ and SSE4.1.
            self.0 = unsafe { fold::update(self.0, bytes) };
            return;
        }
        self.0 = update_tables(self.0, bytes);
    }

    /// Feed the little-endian bytes of `values` as one slice: the checksum
    /// of feeding each value's `to_le_bytes` in turn.
    pub fn update_f64s(&mut self, values: &[f64]) {
        // SAFETY: the view covers exactly the bytes `values` owns, for no
        // longer than its borrow; `f64` has no padding and every byte is a
        // valid `u8`; on a little-endian target they are the `to_le_bytes`.
        #[cfg(target_endian = "little")]
        self.update(unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), size_of_val(values))
        });
        #[cfg(not(target_endian = "little"))]
        values.iter().for_each(|v| self.update(&v.to_le_bytes()));
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise definition every fast path must agree with.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { POLY ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    /// 1 KiB + 16 of bytes with no short period.
    fn corpus() -> Vec<u8> {
        let mut s = 0x9E37_79B9u32;
        (0..1024 + 16)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s >> 24) as u8
            })
            .collect()
    }

    /// Every length `0..=1024` at every start offset `0..16` through `path`.
    fn matches_reference(path: impl Fn(u32, &[u8]) -> u32) {
        let data = corpus();
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &data[start..start + len];
                assert_eq!(!path(!0, s), reference(s), "start {start}, length {len}");
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" → 0xCBF43926 (the standard check value).
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_path_matches_the_bytewise_reference() {
        matches_reference(update_tables);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn fold_path_matches_the_bytewise_reference() {
        if !fold::available() {
            eprintln!("no PCLMULQDQ/SSE4.1 on this CPU: fold path not exercised");
            return;
        }
        // SAFETY: `fold::available` confirmed the CPU features.
        matches_reference(|crc, s| unsafe { fold::update(crc, s) });
    }

    #[test]
    fn streaming_crc_matches_one_shot() {
        let data = corpus();
        let data = &data[..1024];
        let whole = crc32(data);
        assert_eq!(whole, reference(data));
        for cut in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finish(), whole, "cut at {cut}");
        }
    }

    #[test]
    fn update_f64s_matches_per_value_bytes() {
        let values: Vec<f64> = (0..300).map(|i| (i as f64 - 150.0) / 7.0).collect();
        for n in [0, 1, 7, 8, 9, 64, 300] {
            let mut one = Crc32::new();
            one.update_f64s(&values[..n]);
            let mut each = Crc32::new();
            for v in &values[..n] {
                each.update(&v.to_le_bytes());
            }
            assert_eq!(one.finish(), each.finish(), "{n} values");
        }
    }

    // Checksums of artifacts that live on disk or on the wire, computed by
    // the bytewise implementation this module replaced: a fast path that
    // moved any of them would orphan every journal, frame and checkpoint a
    // previous build wrote. (The v3 checkpoint file is pinned beside its
    // writer, `swlb-io`'s `chunked` tests.)

    #[test]
    fn journal_line_checksum_is_pinned() {
        // The payload of one `J1 <crc> <payload>` line; the line's crc field
        // is this checksum in hex.
        let payload = r#"{"rec":"admitted","id":1,"seq":0,"spec":{"name":"w","case":"cavity","lattice":"d2q9","nx":8,"ny":8,"nz":1,"tau":0.8,"u":0.05,"storage":"ab","steps":100,"priority":"batch","outputs":["ppm"],"width":4}}"#;
        assert_eq!(crc32(payload.as_bytes()), 0xa955_fbd0);
    }

    #[test]
    fn halo_frame_checksum_is_pinned() {
        // What `swlb-comm`'s `seal_frame` covers for a 4 KiB payload at epoch
        // 3, step 41: the two header slots, then the 512 payload values.
        let mut c = Crc32::new();
        c.update_f64s(&[3.0, 41.0]);
        let payload: Vec<f64> = (0..512).map(|i| 1.0 + i as f64 / 3.0).collect();
        c.update_f64s(&payload);
        assert_eq!(c.finish(), 0x01ea_6000);
    }
}
