//! Single-precision matrix multiplication: the CPU stand-in for cuBLAS.
//!
//! Every einsum in the model is lowered onto [`sgemm`] / [`batched_sgemm`]
//! over packed row-major buffers, so this one kernel serves every
//! contraction: the encoder's projections and attention products, the
//! model head, the backward pass, and the decode step's matrix-vector
//! products (n = 1).
//!
//! # Reduction order
//!
//! Each output element is one fused multiply-add chain,
//! `c ← fma(a[i,k], b[k,j], c)` for `k` ascending, starting from `c`'s
//! incoming value; [`naive_sgemm`] spells it out. The blocking below never
//! changes that order: K is never split into partial sums, and C is
//! stored and reloaded exactly between K blocks. A result therefore does
//! not depend on the tiling, on the m or n of the call it came from (a
//! matrix-vector product is bitwise a column of the matrix product), on
//! which code path ran, or on how a caller splits rows or batch slices
//! across threads.
//!
//! # Blocking
//!
//! K is cut into `KC`-deep blocks and M into `MC`-row blocks. Each
//! `MC × KC` block of A is packed into `MR`-row, k-major panels, so one k
//! step of a panel is `MR` contiguous row values. B is read in place: the
//! micro-kernel walks a strip of up to `NR` columns of B, broadcasting each
//! value against the panel, and holds the `MR × NR` C tile in registers
//! for the whole K block. One micro-kernel, generic over the strip width,
//! serves n = 1 and n = 128 alike.
//!
//! On x86-64 hosts with AVX-512F the packing transposes 16×16 blocks in
//! registers and the micro-kernel runs on 16-lane FMAs. Elsewhere a
//! portable path computes the same chains with `f32::mul_add`, bit for bit.

use std::cell::RefCell;

/// Rows per packed A panel: two 16-lane vectors.
const MR: usize = 32;
/// Widest B strip per micro-kernel call: `2 · NR` accumulators plus the
/// two A vectors and one broadcast fit the 32 vector registers.
const NR: usize = 12;
/// Rows of A packed at once (a multiple of `MR`).
const MC: usize = 128;
/// Depth of one K block.
const KC: usize = 512;

thread_local! {
    /// The calling thread's A-pack buffer. Zero-initialized thread-local
    /// storage costs no heap allocation, and a call packs (and so touches)
    /// only the panels its block needs.
    static PACK: RefCell<[f32; MC * KC]> = const { RefCell::new([0.0; MC * KC]) };
}

/// Computes `c += a × b` for row-major `a` (`m×k`), `b` (`k×n`), `c` (`m×n`).
///
/// Each `c[i,j]` is updated by the chain `c ← fma(a[i,k], b[k,j], c)` for
/// `k` ascending, whatever the dimensions (see the module docs).
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
///
/// # Examples
///
/// ```
/// use xform_tensor::matmul::sgemm;
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
/// let b = [5.0, 6.0, 7.0, 8.0]; // 2x2
/// let mut c = [0.0; 4];
/// sgemm(2, 2, 2, &a, &b, &mut c);
/// assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn sgemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm(Avx512::detect(), m, n, k, a, b, c);
}

/// Proof that the CPU reports AVX-512F: only [`Avx512::detect`] makes one.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Avx512(());

impl Avx512 {
    /// `Some` when the AVX-512F path may run. Miri, which interprets the
    /// portable path, reports no CPU features anyway; the check says so.
    fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if !cfg!(miri) && is_x86_feature_detected!("avx512f") {
            return Some(Avx512(()));
        }
        None
    }
}

/// [`sgemm`] on the AVX-512F path (`simd` is `Some`) or the portable one.
fn gemm(simd: Option<Avx512>, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "a has wrong length");
    assert_eq!(b.len(), k * n, "b has wrong length");
    assert_eq!(c.len(), m * n, "c has wrong length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        // C tile, column-major: `tile[j * MR + r]` is row r of strip column j
        let mut tile = [0.0f32; MR * NR];
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                let packed = &mut pack[..mc.div_ceil(MR) * MR * kc];
                pack_a(simd, &a[i0 * k + k0..], k, mc, kc, packed);
                for j0 in (0..n).step_by(NR) {
                    let w = NR.min(n - j0);
                    let b_strip = &b[k0 * n + j0..];
                    for (p, panel) in packed.chunks_exact(MR * kc).enumerate() {
                        let r0 = i0 + p * MR;
                        let rows = MR.min(m - r0);
                        for r in 0..rows {
                            let c_row = &c[(r0 + r) * n + j0..][..w];
                            for (j, &v) in c_row.iter().enumerate() {
                                tile[j * MR + r] = v;
                            }
                        }
                        micro(simd, w, panel, b_strip, n, &mut tile);
                        for r in 0..rows {
                            let c_row = &mut c[(r0 + r) * n + j0..][..w];
                            for (j, v) in c_row.iter_mut().enumerate() {
                                *v = tile[j * MR + r];
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Packs the `mc × kc` block of `a` (row stride `lda`) into `MR`-row,
/// k-major panels: `out[p · MR · kc + kk · MR + r]` is row `p · MR + r`,
/// column `kk`. Rows past `mc` in the last panel are zero.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn pack_a(simd: Option<Avx512>, a: &[f32], lda: usize, mc: usize, kc: usize, out: &mut [f32]) {
    for (p, panel) in out.chunks_exact_mut(MR * kc).enumerate() {
        for half in (0..MR).step_by(16) {
            let r0 = p * MR + half;
            let rows = mc.saturating_sub(r0).min(16);
            let dst = &mut panel[half..];
            let mut done = 0;
            #[cfg(target_arch = "x86_64")]
            if simd.is_some() && rows == 16 {
                // SAFETY: an `Avx512` exists only when the CPU reports
                // AVX-512F.
                done = unsafe { avx512::pack16(&a[r0 * lda..], lda, kc, dst) };
            }
            for r in 0..16 {
                if r < rows {
                    let row = &a[(r0 + r) * lda..][done..kc];
                    for (kk, &v) in row.iter().enumerate() {
                        dst[(done + kk) * MR + r] = v;
                    }
                } else {
                    for kk in done..kc {
                        dst[kk * MR + r] = 0.0;
                    }
                }
            }
        }
    }
}

/// Runs one K block of the chains for an `MR × w` C tile: `panel` is a
/// packed A panel, `b` the strip's first element with row stride `ldb`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn micro(
    simd: Option<Avx512>,
    w: usize,
    panel: &[f32],
    b: &[f32],
    ldb: usize,
    tile: &mut [f32; MR * NR],
) {
    #[cfg(target_arch = "x86_64")]
    if simd.is_some() {
        // SAFETY: an `Avx512` exists only when the CPU reports AVX-512F.
        return unsafe { avx512::micro(w, panel, b, ldb, tile) };
    }
    for (kk, a) in panel.chunks_exact(MR).enumerate() {
        let b_row = &b[kk * ldb..][..w];
        for (col, &bv) in tile.chunks_exact_mut(MR).zip(b_row) {
            for (t, &av) in col.iter_mut().zip(a) {
                *t = av.mul_add(bv, *t);
            }
        }
    }
}

/// The AVX-512F packing and micro-kernel. Unsafe code is limited to
/// 16-lane loads and stores over bounds-checked slices.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// Loads `s[..16]`.
    #[target_feature(enable = "avx512f")]
    fn load(s: &[f32]) -> __m512 {
        let s = &s[..16];
        // SAFETY: `s` holds exactly the 16 floats the unaligned load reads.
        unsafe { _mm512_loadu_ps(s.as_ptr()) }
    }

    /// Stores `v` into `d[..16]`.
    #[target_feature(enable = "avx512f")]
    fn store(d: &mut [f32], v: __m512) {
        let d = &mut d[..16];
        // SAFETY: `d` holds exactly the 16 floats the unaligned store writes.
        unsafe { _mm512_storeu_ps(d.as_mut_ptr(), v) }
    }

    /// Packs 16 rows of `a` (row stride `lda`) over the first `kc / 16 · 16`
    /// columns, 16×16 blocks at a time; returns the columns packed.
    #[target_feature(enable = "avx512f")]
    pub(super) fn pack16(a: &[f32], lda: usize, kc: usize, out: &mut [f32]) -> usize {
        let full = kc / 16 * 16;
        let mut r = [_mm512_setzero_ps(); 16];
        for k0 in (0..full).step_by(16) {
            for (i, v) in r.iter_mut().enumerate() {
                *v = load(&a[i * lda + k0..]);
            }
            transpose16(&mut r);
            for (c, &v) in r.iter().enumerate() {
                store(&mut out[(k0 + c) * MR..], v);
            }
        }
        full
    }

    /// Transposes the 16×16 matrix whose rows are `r`.
    #[target_feature(enable = "avx512f")]
    fn transpose16(r: &mut [__m512; 16]) {
        let mut t = [_mm512_setzero_ps(); 16];
        for p in (0..16).step_by(2) {
            t[p] = _mm512_unpacklo_ps(r[p], r[p + 1]);
            t[p + 1] = _mm512_unpackhi_ps(r[p], r[p + 1]);
        }
        for q in (0..16).step_by(4) {
            r[q] = _mm512_shuffle_ps::<0x44>(t[q], t[q + 2]);
            r[q + 1] = _mm512_shuffle_ps::<0xEE>(t[q], t[q + 2]);
            r[q + 2] = _mm512_shuffle_ps::<0x44>(t[q + 1], t[q + 3]);
            r[q + 3] = _mm512_shuffle_ps::<0xEE>(t[q + 1], t[q + 3]);
        }
        for h in (0..16).step_by(8) {
            for x in h..h + 4 {
                t[x] = _mm512_shuffle_f32x4::<0x88>(r[x], r[x + 4]);
                t[x + 4] = _mm512_shuffle_f32x4::<0xDD>(r[x], r[x + 4]);
            }
        }
        for x in 0..8 {
            r[x] = _mm512_shuffle_f32x4::<0x88>(t[x], t[x + 8]);
            r[x + 8] = _mm512_shuffle_f32x4::<0xDD>(t[x], t[x + 8]);
        }
    }

    /// [`super::micro`] on 16-lane FMAs, dispatched to the kernel compiled
    /// for strip width `w`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn micro(w: usize, panel: &[f32], b: &[f32], ldb: usize, tile: &mut [f32; MR * NR]) {
        macro_rules! by_width {
            ($($w:literal)*) => {
                match w {
                    $($w => kernel::<$w>(panel, b, ldb, tile),)*
                    _ => unreachable!("strip width {w} outside 1..={NR}"),
                }
            };
        }
        by_width!(1 2 3 4 5 6 7 8 9 10 11 12)
    }

    #[target_feature(enable = "avx512f")]
    fn kernel<const W: usize>(panel: &[f32], b: &[f32], ldb: usize, tile: &mut [f32; MR * NR]) {
        let mut acc = [[_mm512_setzero_ps(); 2]; W];
        for (j, col) in acc.iter_mut().enumerate() {
            col[0] = load(&tile[j * MR..]);
            col[1] = load(&tile[j * MR + 16..]);
        }
        for (kk, a) in panel.chunks_exact(MR).enumerate() {
            let (a0, a1) = (load(&a[..16]), load(&a[16..]));
            let b_row = &b[kk * ldb..][..W];
            for (col, &bv) in acc.iter_mut().zip(b_row) {
                let bj = _mm512_set1_ps(bv);
                col[0] = _mm512_fmadd_ps(a0, bj, col[0]);
                col[1] = _mm512_fmadd_ps(a1, bj, col[1]);
            }
        }
        for (j, col) in acc.iter().enumerate() {
            store(&mut tile[j * MR..], col[0]);
            store(&mut tile[j * MR + 16..], col[1]);
        }
    }
}

/// Computes `c[g] += a[g] × b[g]` for `batch` independent GEMMs stored
/// contiguously (`a`: `batch×m×k`, `b`: `batch×k×n`, `c`: `batch×m×n`).
///
/// Batch slices are independent, so they are spread across the host's
/// cores with scoped threads (each thread owns a contiguous range of `c`
/// obtained by `split_at_mut`); small problems stay on the calling thread.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn batched_sgemm(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), batch * m * k, "a has wrong length");
    assert_eq!(b.len(), batch * k * n, "b has wrong length");
    assert_eq!(c.len(), batch * m * n, "c has wrong length");
    let serial = |c: &mut [f32], lo: usize, hi: usize| {
        for g in lo..hi {
            sgemm(
                m,
                n,
                k,
                &a[g * m * k..(g + 1) * m * k],
                &b[g * k * n..(g + 1) * k * n],
                &mut c[(g - lo) * m * n..(g - lo + 1) * m * n],
            );
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(batch);
    // below ~64k FMAs per slice the spawn overhead dominates
    if threads <= 1 || batch * m * n * k < (1 << 16) {
        serial(c, 0, batch);
        return;
    }
    std::thread::scope(|s| {
        let mut rest = c;
        let mut lo = 0usize;
        for t in 0..threads {
            let hi = (t + 1) * batch / threads;
            let (mine, tail) = rest.split_at_mut((hi - lo) * m * n);
            rest = tail;
            let serial = &serial;
            s.spawn(move || serial(mine, lo, hi));
            lo = hi;
        }
    });
}

/// Reference GEMM, the correctness oracle for [`sgemm`]: `c += a × b`,
/// each element updated by the chain `c ← fma(a[i,k], b[k,j], c)` for `k`
/// ascending, as an unblocked triple loop.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn naive_sgemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Runs `gemm(simd, ..)` and [`naive_sgemm`] from the same nonzero
    /// incoming C and asserts bitwise equality.
    fn assert_matches_naive(simd: Option<Avx512>, m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (random_mat(&mut rng, m * k), random_mat(&mut rng, k * n));
        let c0 = random_mat(&mut rng, m * n);
        let (mut got, mut want) = (c0.clone(), c0);
        gemm(simd, m, n, k, &a, &b, &mut got);
        naive_sgemm(m, n, k, &a, &b, &mut want);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let path = if simd.is_some() { "avx512" } else { "portable" };
        assert_eq!(bits(&got), bits(&want), "{path} path at ({m},{n},{k})");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 48 }))]

        #[test]
        fn sgemm_matches_naive_bitwise(
            m in 0usize..81, n in 0usize..81, k in 0usize..81, seed in 0u64..1000,
        ) {
            assert_matches_naive(Avx512::detect(), m, n, k, seed);
        }
    }

    #[test]
    fn sgemm_matches_naive_on_edge_shapes() {
        // n = 1, k > KC, m off the MR and MC grid, full and partial strips
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(33, 1, 17), (17, 13, 5)]
        } else {
            &[
                (1, 1, 1),
                (300, 1, 768),
                (33, 1, KC + 17),
                (MC + MR + 5, 13, 40),
                (65, 25, 2 * KC + 3),
                (16, NR, 16),
                (31, 11, 33),
            ]
        };
        for (s, &(m, n, k)) in shapes.iter().enumerate() {
            assert_matches_naive(Avx512::detect(), m, n, k, s as u64);
        }
    }

    #[test]
    fn avx512_path_matches_portable_path_bitwise() {
        // both paths equal the naive chains, hence each other
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(5, 3, 2)]
        } else {
            &[(70, 30, 600), (2 * MC + 9, 1, 100), (5, 3, 2)]
        };
        for (s, &(m, n, k)) in shapes.iter().enumerate() {
            assert_matches_naive(None, m, n, k, 100 + s as u64);
            if let Some(simd) = Avx512::detect() {
                assert_matches_naive(Some(simd), m, n, k, 100 + s as u64);
            }
        }
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let mut c = vec![3.0f32; 6];
        sgemm(2, 3, 0, &[], &[], &mut c);
        assert_eq!(c, [3.0; 6]);
        sgemm(0, 3, 4, &[], &[0.0; 12], &mut []);
        sgemm(2, 0, 4, &[0.0; 8], &[], &mut []);
    }

    #[test]
    fn sgemm_accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 0.0, 0.0, 2.0];
        let mut c = [1.0, 1.0, 1.0, 1.0];
        sgemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn batched_is_per_slice() {
        let mut rng = StdRng::seed_from_u64(9);
        let (bsz, m, n, k) = (3, 4, 5, 6);
        let a = random_mat(&mut rng, bsz * m * k);
        let b = random_mat(&mut rng, bsz * k * n);
        let mut c = vec![0.0; bsz * m * n];
        batched_sgemm(bsz, m, n, k, &a, &b, &mut c);
        for g in 0..bsz {
            let mut expect = vec![0.0; m * n];
            naive_sgemm(
                m,
                n,
                k,
                &a[g * m * k..(g + 1) * m * k],
                &b[g * k * n..(g + 1) * k * n],
                &mut expect,
            );
            assert_eq!(c[g * m * n..(g + 1) * m * n], expect[..]);
        }
    }

    #[test]
    fn batched_parallel_path_matches_naive() {
        // large enough that batch slices are spread across threads
        let mut rng = StdRng::seed_from_u64(11);
        let (bsz, m, n, k) = (8, 32, 32, 32);
        assert!(bsz * m * n * k >= 1 << 16);
        let a = random_mat(&mut rng, bsz * m * k);
        let b = random_mat(&mut rng, bsz * k * n);
        let mut c = vec![0.0; bsz * m * n];
        batched_sgemm(bsz, m, n, k, &a, &b, &mut c);
        for g in 0..bsz {
            let mut expect = vec![0.0; m * n];
            naive_sgemm(
                m,
                n,
                k,
                &a[g * m * k..(g + 1) * m * k],
                &b[g * k * n..(g + 1) * k * n],
                &mut expect,
            );
            assert_eq!(c[g * m * n..(g + 1) * m * n], expect[..]);
        }
    }

    #[test]
    #[should_panic(expected = "a has wrong length")]
    fn sgemm_panics_on_bad_len() {
        let mut c = [0.0; 4];
        sgemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }
}
