//! Libm-identical block kernels: `tanhf` and `sinf` over a slice, returning
//! bit for bit what the host's libm returns for each element.
//!
//! The audio path calls `tanhf` in [`Overdrive`](crate::effects::Overdrive)
//! and `sinf` in every sine [`Oscillator`](crate::osc::Oscillator) (the
//! Flanger/Phaser LFOs) and in the timecode carrier; loading a track calls
//! it once or twice per sample, on arguments up to ~10⁵ rad (30 s of a
//! lead voice). An approximation would move every checksum, so these
//! kernels are ports of the exact algorithms glibc 2.36 runs on `x86_64`,
//! operation for operation:
//!
//! * [`tanh_block`] — fdlibm's `tanhf` over fdlibm's `expm1f`, both in plain
//!   single precision (glibc builds them without contraction, so the port
//!   uses **no fused multiply-add**), eight lanes per AVX2 vector. Each
//!   branch of the scalar code becomes a lane blend.
//! * [`sin_block`] — glibc's `__sinf_fma`: widen to `f64`, reduce by π/2
//!   (below 120 with one fused multiply-add; from 120 on with the library's
//!   integer `reduce_large` against 192 bits of 2/π), evaluate the sine or
//!   cosine polynomial of `__sincosf_table`, narrow. Four `f64` lanes per
//!   AVX2 vector, fused exactly where that function fuses. A group of eight
//!   below 120 never runs the large path.
//!
//! Both take the vector path when [`simd::avx2_fma_available`] — the
//! condition under which glibc's own `sinf` ifunc selects `__sinf_fma` — and
//! [`simd::wide_enabled`]. Lanes outside the ported domain (`tanh`:
//! |x| < 2⁻⁵⁵, |x| ≥ 22, NaN, ±∞; `sin`: NaN, ±∞ — every finite `f32` is
//! ported), the last `len % 8` elements, and hosts without AVX2 + FMA call
//! `f32::tanh` / `f32::sin` per element, which is also the reference the
//! tests hold the kernels to. The `#[ignore]`d tests below prove equality on all 2³²
//! inputs against the host libm (`cargo test --release -p djstar-dsp --
//! --ignored`); on a libm whose `tanhf`/`sinf` differ from glibc 2.36's they
//! fail, by design.

use crate::simd;

/// `x.tanh()` for every element of `xs`, bit-identical to libm.
pub fn tanh_block(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::wide_enabled() && simd::avx2_fma_available() {
        // SAFETY: AVX2 and FMA presence was just verified at runtime.
        unsafe { x86::tanh_slice(xs) };
        return;
    }
    for x in xs {
        *x = x.tanh();
    }
}

/// `x.sin()` for every element of `xs`, bit-identical to libm.
pub fn sin_block(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::wide_enabled() && simd::avx2_fma_available() {
        // SAFETY: AVX2 and FMA presence was just verified at runtime.
        unsafe { x86::sin_slice(xs) };
        return;
    }
    for x in xs {
        *x = x.sin();
    }
}

/// The AVX2 + FMA kernels.
///
/// # Safety
/// Every `unsafe fn` here requires a CPU with AVX2 and FMA: the caller
/// checks [`crate::simd::avx2_fma_available`] first. Memory is only touched
/// through slices: each load and store covers one whole group of eight.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// Run `body` over every whole group of eight and patch each lane it
    /// does not accept (a clear bit of its mask) with `libm`; the tail goes
    /// to `libm` too.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn blocks(
        xs: &mut [f32],
        body: unsafe fn(__m256) -> (__m256, i32),
        libm: fn(f32) -> f32,
    ) {
        let mut groups = xs.chunks_exact_mut(8);
        for g in &mut groups {
            // `g` is exactly eight elements: the load and store below stay
            // inside it.
            let x = _mm256_loadu_ps(g.as_ptr());
            let (y, ok) = body(x);
            _mm256_storeu_ps(g.as_mut_ptr(), y);
            if ok != 0xFF {
                let mut orig = [0.0f32; 8];
                _mm256_storeu_ps(orig.as_mut_ptr(), x);
                for (lane, (out, &v)) in g.iter_mut().zip(&orig).enumerate() {
                    if ok & (1 << lane) == 0 {
                        *out = libm(v);
                    }
                }
            }
        }
        for x in groups.into_remainder() {
            *x = libm(*x);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn tanh_slice(xs: &mut [f32]) {
        blocks(xs, tanh8, f32::tanh);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sin_slice(xs: &mut [f32]) {
        blocks(xs, sin8, f32::sin);
    }

    /// glibc `tanhf` on eight lanes. Returns the results and an 8-bit mask
    /// of the lanes in the ported domain, 2⁻⁵⁵ ≤ |x| < 22; the other lanes
    /// hold garbage.
    ///
    /// `tanhf` reads |x| < 1 as `-t / (t + 2)` with `t = expm1f(-2|x|)` and
    /// 1 ≤ |x| < 22 as `1 - 2 / (t + 2)` with `t = expm1f(2|x|)`, then
    /// copies the sign of `x`. The `expm1f` argument `a` therefore lies in
    /// (−2, −2⁻⁵⁴] ∪ [2, 44): its reduction `k = round(a / ln2)` is 0, −1,
    /// −2, −3 or 3 … 63, so `expm1f`'s `k = 1` case, its overflow and its
    /// `a ≤ −27·ln2` saturation are never reached and are not ported.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn tanh8(x: __m256) -> (__m256, i32) {
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let half = _mm256_set1_ps(0.5);
        let i32s = _mm256_set1_epi32;

        let ax = _mm256_andnot_ps(sign, x);
        let ix = _mm256_castps_si256(ax);
        let ok = _mm256_and_si256(
            _mm256_cmpgt_epi32(ix, i32s(0x23FF_FFFF)),
            _mm256_cmpgt_epi32(i32s(0x41B0_0000), ix),
        );
        // |x| ≥ 1 takes expm1f(|x| + |x|), |x| < 1 takes expm1f(-2 · |x|).
        let big = _mm256_cmpgt_epi32(ix, i32s(0x3F7F_FFFF));
        let bigf = _mm256_castsi256_ps(big);
        let a = _mm256_blendv_ps(
            _mm256_mul_ps(ax, _mm256_set1_ps(-2.0)),
            _mm256_add_ps(ax, ax),
            bigf,
        );

        // expm1f(a). Argument reduction: k = 0 for |a| ≤ ln2/2, k = -1 for
        // |a| < 1.5·ln2 (a is negative there), else k = (int)(a/ln2 ± 0.5).
        // `a - k·ln2_hi` and `k·ln2_lo` equal fdlibm's `a ± ln2_hi` and
        // `±ln2_lo` for k = ±1 and leave `a` as is for k = 0.
        let ha = _mm256_castps_si256(_mm256_andnot_ps(sign, a));
        let bias = _mm256_blendv_ps(_mm256_set1_ps(-0.5), half, bigf);
        let kc = _mm256_cvttps_epi32(_mm256_add_ps(
            bias,
            _mm256_mul_ps(_mm256_set1_ps(f32::from_bits(0x3FB8_AA3B)), a),
        ));
        let reduced = _mm256_cmpgt_epi32(ha, i32s(0x3EB1_7218));
        let general = _mm256_cmpgt_epi32(ha, i32s(0x3F85_1591));
        let k = _mm256_and_si256(reduced, _mm256_blendv_epi8(i32s(-1), kc, general));
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(
            a,
            _mm256_mul_ps(_mm256_set1_ps(f32::from_bits(0x3F31_7180)), t),
        );
        let lo = _mm256_mul_ps(t, _mm256_set1_ps(f32::from_bits(0x3717_F7D1)));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        // The primary range: r1 = 1 + hxs·(Q1 + hxs·(Q2 + …)), evaluated
        // innermost first; Q1 and Q3 are negative and subtracted as
        // magnitudes, as the library does.
        let hfx = _mm256_mul_ps(xr, half);
        let hxs = _mm256_mul_ps(xr, hfx);
        let mut r1 = _mm256_mul_ps(_mm256_set1_ps(f32::from_bits(0xB457_EDBB)), hxs);
        r1 = _mm256_add_ps(r1, _mm256_set1_ps(f32::from_bits(0x3686_7E54)));
        r1 = _mm256_mul_ps(r1, hxs);
        r1 = _mm256_sub_ps(r1, _mm256_set1_ps(f32::from_bits(0x38A6_70CD)));
        r1 = _mm256_mul_ps(r1, hxs);
        r1 = _mm256_add_ps(r1, _mm256_set1_ps(f32::from_bits(0x3AD0_0D01)));
        r1 = _mm256_mul_ps(r1, hxs);
        r1 = _mm256_sub_ps(r1, _mm256_set1_ps(f32::from_bits(0x3D08_8889)));
        r1 = _mm256_mul_ps(r1, hxs);
        r1 = _mm256_add_ps(r1, one);
        let t3 = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(hfx, r1));
        let e = _mm256_mul_ps(
            _mm256_div_ps(
                _mm256_sub_ps(r1, t3),
                _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(xr, t3)),
            ),
            hxs,
        );

        // k = 0: x - (x·e - hxs); |a| < 2⁻²⁵ returns a itself.
        let r_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
        let tiny = _mm256_cmpgt_epi32(i32s(0x3300_0000), ha);
        let r_k0 = _mm256_blendv_ps(r_k0, a, _mm256_castsi256_ps(tiny));
        // k ≠ 0: fold the reduction error back in, then scale by 2^k.
        let e2 = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(e, c), xr), c),
            hxs,
        );
        let r_km1 = _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(xr, e2), half), half);
        let d = _mm256_sub_ps(e2, xr);
        let k23 = _mm256_slli_epi32(k, 23);
        let scale = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k23));
        // k ≤ -2 or k > 56: (1 - (e - x)) · 2^k - 1.
        let r_far = _mm256_sub_ps(scale(_mm256_sub_ps(one, d)), one);
        // 2 ≤ k ≤ 22: ((1 - 2^-k) - (e - x)) · 2^k.
        let t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(
            i32s(0x3F80_0000),
            _mm256_srlv_epi32(i32s(0x0100_0000), k),
        ));
        let r_mid = scale(_mm256_sub_ps(t_mid, d));
        // 23 ≤ k ≤ 56: ((x - (e + 2^-k)) + 1) · 2^k.
        let t_high = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_sub_epi32(i32s(0x7F), k), 23));
        let r_high = scale(_mm256_add_ps(
            _mm256_sub_ps(xr, _mm256_add_ps(e2, t_high)),
            one,
        ));

        let mut em1 = r_high;
        let m_mid = _mm256_cmpgt_epi32(i32s(23), k);
        em1 = _mm256_blendv_ps(em1, r_mid, _mm256_castsi256_ps(m_mid));
        let m_far = _mm256_or_si256(
            _mm256_cmpgt_epi32(i32s(-1), k),
            _mm256_cmpgt_epi32(k, i32s(56)),
        );
        em1 = _mm256_blendv_ps(em1, r_far, _mm256_castsi256_ps(m_far));
        let m_km1 = _mm256_cmpeq_epi32(k, i32s(-1));
        em1 = _mm256_blendv_ps(em1, r_km1, _mm256_castsi256_ps(m_km1));
        let m_k0 = _mm256_cmpeq_epi32(k, _mm256_setzero_si256());
        em1 = _mm256_blendv_ps(em1, r_k0, _mm256_castsi256_ps(m_k0));

        // tanhf: |x| ≥ 1 → 1 - 2/(t + 2); |x| < 1 → -t/(t + 2); sign of x.
        let den = _mm256_add_ps(em1, two);
        let num = _mm256_blendv_ps(_mm256_xor_ps(em1, sign), two, bigf);
        let q = _mm256_div_ps(num, den);
        let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), bigf);
        let y = _mm256_xor_ps(z, _mm256_and_ps(x, sign));
        (y, _mm256_movemask_ps(_mm256_castsi256_ps(ok)))
    }

    /// `__sincosf_table[0]` of glibc 2.36: 2/π · 2²⁴, π/2, then the cosine
    /// (`C`) and sine (`S`) coefficients interleaved as the library stores
    /// them. The table's quadrant signs {1, −1, −1, 1} and its entry 1 (this
    /// one with the cosine coefficients negated) become one sign flip in
    /// [`sinf_poly`].
    const HPI_INV: u64 = 0x4164_5F30_6DC9_C883;
    const HPI: u64 = 0x3FF9_21FB_5444_2D18;
    const C0: u64 = 0x3FF0_0000_0000_0000;
    const C1: u64 = 0xBFDF_FFFF_FD0C_621C;
    const S1: u64 = 0xBFC5_5554_5995_A603;
    const C2: u64 = 0x3FA5_5553_E106_8F19;
    const S2: u64 = 0x3F81_1076_0523_0BC4;
    const C3: u64 = 0xBF56_C087_E89A_359D;
    const S3: u64 = 0xBF29_94EB_3774_CF24;
    const C4: u64 = 0x3EF9_9343_027B_F8C3;

    /// `__sinf_fma` on eight lanes. Returns the results and an 8-bit mask
    /// of the lanes in the ported domain — every lane but NaN and ±∞.
    ///
    /// Lanes below 120 take the library's fast path, the rest its large
    /// path; each path runs only for a group with a lane that needs it, so
    /// a group of small arguments pays for the fast path alone.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sin8(x: __m256) -> (__m256, i32) {
        let i32s = _mm256_set1_epi32;
        // The library's abstop12: the top 12 bits of |x| (exponent and
        // three mantissa bits).
        let top = _mm256_srli_epi32(
            _mm256_and_si256(_mm256_castps_si256(x), i32s(0x7FFF_FFFF)),
            20,
        );
        let fast = _mm256_castsi256_ps(_mm256_cmpgt_epi32(i32s(0x42F), top));
        let ok = _mm256_movemask_ps(fast);
        if ok == 0xFF {
            return (sin8_fast(x, top), ok);
        }
        let finite = _mm256_castsi256_ps(_mm256_cmpgt_epi32(i32s(0x7F8), top));
        let mut y = sin8_large(x);
        if ok != 0 {
            y = _mm256_blendv_ps(y, sin8_fast(x, top), fast);
        }
        (y, _mm256_movemask_ps(finite))
    }

    /// `__sinf_fma`'s fast path on eight lanes, |x| < 120 (other lanes
    /// hold garbage), given the lanes' abstop12 `top`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sin8_fast(x: __m256, top: __m256i) -> __m256 {
        // |x| < 2⁻¹² returns x.
        let tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x398), top);
        let y = _mm256_set_m128(
            sin4_fast(_mm256_extractf128_ps(x, 1)),
            sin4_fast(_mm256_castps256_ps128(x)),
        );
        _mm256_blendv_ps(y, x, _mm256_castsi256_ps(tiny))
    }

    /// The fast path's reduction and polynomial on four lanes.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sin4_fast(y: __m128) -> __m128 {
        // n = nearest quadrant (0 for |y| < π/4, where the library skips
        // the reduction: r = y − 0·π/2 is then y exactly).
        let x = _mm256_cvtps_pd(y);
        let ni = _mm256_cvttpd_epi32(_mm256_mul_pd(x, f64s(HPI_INV)));
        let n = _mm_srai_epi32(_mm_add_epi32(ni, _mm_set1_epi32(0x80_0000)), 24);
        let r = _mm256_fnmadd_pd(_mm256_cvtepi32_pd(n), f64s(HPI), x);
        sinf_poly(r, n, n)
    }

    /// Broadcast an `f64` given by its bits.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn f64s(bits: u64) -> __m256d {
        _mm256_set1_pd(f64::from_bits(bits))
    }

    /// The library's `sinf_poly` on four reduced arguments `r`, narrowed:
    /// the sine polynomial where `n` is even, the cosine polynomial where it
    /// is odd, negated where bit 1 of `neg` is set.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sinf_poly(r: __m256d, n: __m128i, neg: __m128i) -> __m128 {
        let f = f64s;
        let wide = |m: __m128i| _mm256_castsi256_pd(_mm256_cvtepi32_epi64(m));
        let odd = wide(_mm_cmpeq_epi32(
            _mm_and_si128(n, _mm_set1_epi32(1)),
            _mm_set1_epi32(1),
        ));
        let flip = wide(_mm_cmpeq_epi32(
            _mm_and_si128(neg, _mm_set1_epi32(2)),
            _mm_set1_epi32(2),
        ));
        let x2 = _mm256_mul_pd(r, r);

        // Even n: the sine polynomial; odd n: the cosine polynomial.
        let s1 = _mm256_fmadd_pd(x2, f(S3), f(S2));
        let x3 = _mm256_mul_pd(x2, r);
        let x7 = _mm256_mul_pd(x2, x3);
        let s = _mm256_fmadd_pd(x3, f(S1), r);
        let sin = _mm256_fmadd_pd(s1, x7, s);
        let x4 = _mm256_mul_pd(x2, x2);
        let c1 = _mm256_fmadd_pd(x2, f(C1), f(C0));
        let c2 = _mm256_fmadd_pd(x2, f(C4), f(C3));
        let x6 = _mm256_mul_pd(x2, x4);
        let cc = _mm256_fmadd_pd(x4, f(C2), c1);
        let cos = _mm256_fmadd_pd(c2, x6, cc);
        // The library multiplies r by sign[q & 3] = -1 for q & 3 ∈ {1, 2}
        // (sine) or takes table entry 1, whose cosine coefficients are
        // negated, for q & 2 (cosine); q is n, plus 1 for a negative x on
        // the large path. Both negate every intermediate exactly, so the
        // result is negated: one sign flip here, where the caller passes
        // `neg` = q for the cosine and q + 1 for the sine. No result is
        // zero (|sin| ≥ |r|/2, cos ≥ 0.7, and r ≠ 0 on the large path).
        let v = _mm256_blendv_pd(sin, cos, odd);
        let v = _mm256_xor_pd(v, _mm256_and_pd(flip, _mm256_set1_pd(-0.0)));
        _mm256_cvtpd_ps(v)
    }

    /// glibc 2.36's `__inv_pio4`: 2/π to 192 bits, each entry the next 32
    /// bits eight bits further on, so that any 96-bit window starting on a
    /// byte is three aligned loads.
    static INV_PIO4: [u32; 24] = [
        0xa2, 0xa2f9, 0xa2f983, 0xa2f9836e, 0xf9836e4e, 0x836e4e44, 0x6e4e4415, 0x4e441529,
        0x441529fc, 0x1529fc27, 0x29fc2757, 0xfc2757d1, 0x2757d1f5, 0x57d1f534, 0xd1f534dd,
        0xf534ddc0, 0x34ddc0db, 0xddc0db62, 0xc0db6295, 0xdb629599, 0x6295993c, 0x95993c43,
        0x993c4390, 0x3c439041,
    ];
    /// π/2 · 2⁻⁶² (`pi63`): one unit of the 2.62 fixed-point fraction.
    const PI63: u64 = 0x3C19_21FB_5444_2D18;

    /// `__sinf_fma`'s large path on eight lanes, 120 ≤ |x| < ∞ (other
    /// lanes hold garbage): `reduce_large`, then [`sinf_poly`] with the
    /// sign of x folded into the quadrant.
    ///
    /// `reduce_large` multiplies the 24-bit significand, shifted left by
    /// the exponent's low three bits, by the 96 bits of 2/π that the
    /// exponent's next four bits select: three 32×32 products whose sum,
    /// modulo 2⁶⁴, is the position in the period as a 2.62 fixed-point
    /// number — the top two bits the quadrant n, the rest the remainder.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sin8_large(y: __m256) -> __m256 {
        let i32s = _mm256_set1_epi32;
        let xi = _mm256_castps_si256(y);
        let idx = _mm256_and_si256(_mm256_srli_epi32(xi, 26), i32s(15));
        let shift = _mm256_and_si256(_mm256_srli_epi32(xi, 23), i32s(7));
        let m = _mm256_sllv_epi32(
            _mm256_or_si256(_mm256_and_si256(xi, i32s(0xFF_FFFF)), i32s(0x80_0000)),
            shift,
        );
        // arr[idx + k] for idx < 16: the eight-entry window at k or at
        // k + 8, whichever bit 3 of idx (moved to the sign bit) selects,
        // indexed by idx's low three bits.
        let upper = _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28));
        let window = |k: usize| _mm256_loadu_si256(INV_PIO4[k..k + 8].as_ptr().cast());
        let look = |k: usize| {
            _mm256_castps_si256(_mm256_blendv_ps(
                _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(window(k), idx)),
                _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(window(k + 8), idx)),
                upper,
            ))
        };
        let (a0, a4, a8) = (look(0), look(4), look(8));

        // res0 = (m · arr[0] mod 2³²) · 2³² + (m · arr[8]) / 2³² + m · arr[4]
        // mod 2⁶⁴, in 64-bit lanes: the even lanes' products, then the odd
        // lanes' (their operands shifted down).
        let r0 = _mm256_mullo_epi32(m, a0);
        let odd = |v: __m256i| _mm256_srli_epi64(v, 32);
        let res0 = |m: __m256i, a4: __m256i, a8: __m256i, r0_hi: __m256i| {
            _mm256_add_epi64(
                _mm256_or_si256(r0_hi, odd(_mm256_mul_epu32(m, a8))),
                _mm256_mul_epu32(m, a4),
            )
        };
        let even = res0(m, a4, a8, _mm256_slli_epi64(r0, 32));
        let r0_odd = _mm256_and_si256(r0, _mm256_set1_epi64x(-1 << 32));
        let odd_lanes = res0(odd(m), odd(a4), odd(a8), r0_odd);
        // The low and the high 32 bits of res0, lane for lane.
        let lo = _mm256_blend_epi32::<0xAA>(even, _mm256_slli_epi64(odd_lanes, 32));
        let hi = _mm256_blend_epi32::<0xAA>(odd(even), odd_lanes);
        // n = (res0 + 2⁶¹) >> 62 and res0 − n·2⁶², on the high halves:
        // adding 2⁶¹ carries nothing out of the low half.
        let hb = _mm256_add_epi32(hi, i32s(0x2000_0000));
        let n = _mm256_srli_epi32(hb, 30);
        let hi = _mm256_sub_epi32(_mm256_and_si256(hb, i32s(0x3FFF_FFFF)), i32s(0x2000_0000));
        // The low half, less 2³¹, as a signed integer.
        let lo = _mm256_xor_si256(lo, i32s(i32::MIN));
        // Sine where n is even: negated iff (n + sign + 1) & 2; cosine
        // where n is odd: iff (n + sign) & 2. Both are (n | 1) + sign.
        let neg = _mm256_add_epi32(_mm256_or_si256(n, i32s(1)), _mm256_srli_epi32(xi, 31));

        let half = |v: __m256i, h: usize| {
            if h == 0 {
                _mm256_castsi256_si128(v)
            } else {
                _mm256_extracti128_si256::<1>(v)
            }
        };
        let out: [__m128; 2] = core::array::from_fn(|h| {
            // (double)(int64_t)res0 as hi · 2³² + lo in one rounding (AVX2
            // has no 64-bit integer conversion): both parts convert
            // exactly, the product is exact, and the fused add rounds once.
            let lo = _mm256_add_pd(
                _mm256_cvtepi32_pd(half(lo, h)),
                _mm256_set1_pd(2_147_483_648.0),
            );
            let x = _mm256_fmadd_pd(
                _mm256_cvtepi32_pd(half(hi, h)),
                _mm256_set1_pd(4_294_967_296.0),
                lo,
            );
            sinf_poly(_mm256_mul_pd(x, f64s(PI63)), half(n, h), half(neg, h))
        });
        _mm256_set_m128(out[1], out[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equal bits, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every `f32` bit pattern through `block` (whole function) and — on
    /// hosts with AVX2 + FMA — through `body` (every lane, mask read), both
    /// against `libm`. Returns (mismatches, lanes `body` accepted).
    #[cfg(target_arch = "x86_64")]
    fn exhaustive(
        block: fn(&mut [f32]),
        body: unsafe fn(core::arch::x86_64::__m256) -> (core::arch::x86_64::__m256, i32),
        libm: fn(f32) -> f32,
    ) -> (u64, u64) {
        use core::arch::x86_64::*;
        const CHUNK: u64 = 1 << 12;
        const THREADS: u64 = 2;
        let vector = simd::avx2_fma_available();
        let span = (1u64 << 32) / THREADS;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|w| {
                    scope.spawn(move || {
                        let (mut bad, mut accepted) = (0u64, 0u64);
                        let mut xs = vec![0.0f32; CHUNK as usize];
                        let mut want = vec![0.0f32; CHUNK as usize];
                        let mut lanes = [0.0f32; 8];
                        for start in (w * span..(w + 1) * span).step_by(CHUNK as usize) {
                            for (i, (x, r)) in xs.iter_mut().zip(&mut want).enumerate() {
                                *x = f32::from_bits((start + i as u64) as u32);
                                *r = libm(*x);
                            }
                            if vector {
                                for (g, r) in xs.chunks_exact(8).zip(want.chunks_exact(8)) {
                                    // SAFETY: AVX2 + FMA checked above; `g` holds 8 lanes.
                                    let ok = unsafe {
                                        let (y, ok) = body(_mm256_loadu_ps(g.as_ptr()));
                                        _mm256_storeu_ps(lanes.as_mut_ptr(), y);
                                        ok
                                    };
                                    for lane in (0..8).filter(|l| ok & (1 << l) != 0) {
                                        accepted += 1;
                                        bad += !same(lanes[lane], r[lane]) as u64;
                                    }
                                }
                            }
                            block(&mut xs);
                            bad += xs
                                .iter()
                                .zip(&want)
                                .filter(|(g, w)| !same(**g, **w))
                                .count() as u64;
                        }
                        (bad, accepted)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0, 0), |(b, a), (b2, a2)| (b + b2, a + a2))
        })
    }

    /// Lanes of each ported domain: every pattern whose magnitude bits lie
    /// in `[lo, hi)`, both signs.
    fn domain(lo: u32, hi: u32) -> u64 {
        if simd::avx2_fma_available() {
            2 * u64::from(hi - lo)
        } else {
            0
        }
    }

    /// All 2³² inputs against the host libm (glibc 2.36's `tanhf`; another
    /// libm fails this by design). Run with
    /// `cargo test --release -p djstar-dsp -- --ignored`.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs, about a minute in release"]
    #[cfg(target_arch = "x86_64")]
    fn tanh_block_equals_libm_on_every_f32() {
        let t0 = std::time::Instant::now();
        let (bad, accepted) = exhaustive(tanh_block, x86::tanh8, f32::tanh);
        println!(
            "tanh: {bad} mismatches of 2^32, body accepted {accepted}, {:?}",
            t0.elapsed()
        );
        assert_eq!(bad, 0, "mismatches against libm tanhf");
        // The body accepts exactly 2^-55 <= |x| < 22.
        assert_eq!(accepted, domain(0x2400_0000, 0x41B0_0000));
    }

    /// All 2³² inputs against the host libm (glibc 2.36's `sinf`, FMA
    /// variant; another libm fails this by design). Run as above.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs, about a minute in release"]
    #[cfg(target_arch = "x86_64")]
    fn sin_block_equals_libm_on_every_f32() {
        let t0 = std::time::Instant::now();
        let (bad, accepted) = exhaustive(sin_block, x86::sin8, f32::sin);
        println!(
            "sin: {bad} mismatches of 2^32, body accepted {accepted}, {:?}",
            t0.elapsed()
        );
        assert_eq!(bad, 0, "mismatches against libm sinf");
        // The body accepts every finite pattern.
        assert_eq!(accepted, domain(0, 0x7F80_0000));
    }
}
