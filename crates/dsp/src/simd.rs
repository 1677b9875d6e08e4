//! A minimal portable SIMD shim for the DSP hot path.
//!
//! The workspace builds offline with no registry dependencies, so there is
//! no `wide`/`portable_simd`. This module wraps the 4-lane `f32` vector the
//! target guarantees — SSE2 `__m128` on `x86_64` (part of the baseline ABI,
//! no runtime feature detection needed) — behind [`F32x4`], with a plain
//! `[f32; 4]` fallback elsewhere. Every operation is a lane-wise IEEE-754
//! single operation (no FMA), so a kernel written against [`F32x4`] that
//! keeps the scalar loop's per-sample order produces **bit-identical**
//! results to it; the fused biquad cascade and the compressor lean on that
//! and are tested against their scalar references bit for bit. A horizontal
//! reduction ([`F32x4::hsum`]) reassociates its sum and is not equal to a
//! serial loop: `AudioBuf::{rms, energy}` have that one reassociated form
//! and no other.
//!
//! Each kernel has one production path. The only run-time choices are CPU
//! features ([`avx_available`], [`avx2_fma_available`]), never a setting.

/// True when the 8-lane AVX mixer pass may run (`x86_64` with AVX detected
/// at runtime — AVX is *not* part of the baseline ABI, so this is a runtime
/// check, unlike the unconditional SSE2 shim). The pass performs the same
/// lane-wise IEEE-754 single operations in the same per-sample order as the
/// scalar path (`vmulps`/`vaddps`, no FMA), so it only widens throughput;
/// results stay bit-identical.
pub fn avx_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // `is_x86_feature_detected!` caches the CPUID result internally.
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when AVX2 and FMA are both present: the condition under which
/// glibc's `sinf` ifunc selects its FMA variant, and so the condition under
/// which [`crate::vmath`]'s libm-identical kernels take their vector path.
pub fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use core::arch::x86_64::*;

    /// Four `f32` lanes; SSE2 `__m128` on this target.
    #[derive(Clone, Copy, Debug)]
    pub struct F32x4(__m128);

    // Plain `add`/`sub`/`mul` methods rather than `std::ops` impls, on
    // purpose: the shim mirrors intrinsic naming, and operator sugar would
    // suggest general arithmetic where only explicit lane-wise single
    // operations are part of the bit-exactness contract.
    #[allow(clippy::should_implement_trait)]
    impl F32x4 {
        /// All lanes zero.
        #[inline]
        pub fn zero() -> Self {
            F32x4(unsafe { _mm_setzero_ps() })
        }

        /// All lanes `v`.
        #[inline]
        pub fn splat(v: f32) -> Self {
            F32x4(unsafe { _mm_set1_ps(v) })
        }

        /// Lanes from an array.
        #[inline]
        pub fn from_array(a: [f32; 4]) -> Self {
            F32x4(unsafe { _mm_set_ps(a[3], a[2], a[1], a[0]) })
        }

        /// Unaligned load of `src[0..4]`.
        ///
        /// # Panics
        /// Panics if `src` holds fewer than 4 elements.
        #[inline]
        pub fn load(src: &[f32]) -> Self {
            assert!(src.len() >= 4);
            F32x4(unsafe { _mm_loadu_ps(src.as_ptr()) })
        }

        /// Unaligned store into `dst[0..4]`.
        ///
        /// # Panics
        /// Panics if `dst` holds fewer than 4 elements.
        #[inline]
        pub fn store(self, dst: &mut [f32]) {
            assert!(dst.len() >= 4);
            unsafe { _mm_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        /// Lanes as an array.
        #[inline]
        pub fn to_array(self) -> [f32; 4] {
            let mut out = [0.0f32; 4];
            unsafe { _mm_storeu_ps(out.as_mut_ptr(), self.0) };
            out
        }

        #[inline]
        pub fn add(self, rhs: Self) -> Self {
            F32x4(unsafe { _mm_add_ps(self.0, rhs.0) })
        }

        #[inline]
        pub fn sub(self, rhs: Self) -> Self {
            F32x4(unsafe { _mm_sub_ps(self.0, rhs.0) })
        }

        #[inline]
        pub fn mul(self, rhs: Self) -> Self {
            F32x4(unsafe { _mm_mul_ps(self.0, rhs.0) })
        }

        /// Horizontal sum as `(l0 + l2) + (l1 + l3)`.
        ///
        /// The pairing is part of the contract: the fallback implementation
        /// reproduces it exactly so reductions round identically on every
        /// target.
        #[inline]
        pub fn hsum(self) -> f32 {
            let [l0, l1, l2, l3] = self.to_array();
            (l0 + l2) + (l1 + l3)
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    /// Four `f32` lanes; a plain array on targets without a guaranteed
    /// vector baseline. Each operation is the same lane-wise IEEE-754
    /// single operation the `x86_64` implementation performs, so results
    /// stay bit-identical across targets.
    #[derive(Clone, Copy, Debug)]
    pub struct F32x4([f32; 4]);

    // See the `x86_64` impl: intrinsic-style method names are intentional.
    #[allow(clippy::should_implement_trait)]
    impl F32x4 {
        #[inline]
        pub fn zero() -> Self {
            F32x4([0.0; 4])
        }

        #[inline]
        pub fn splat(v: f32) -> Self {
            F32x4([v; 4])
        }

        #[inline]
        pub fn from_array(a: [f32; 4]) -> Self {
            F32x4(a)
        }

        #[inline]
        pub fn load(src: &[f32]) -> Self {
            F32x4([src[0], src[1], src[2], src[3]])
        }

        #[inline]
        pub fn store(self, dst: &mut [f32]) {
            dst[..4].copy_from_slice(&self.0);
        }

        #[inline]
        pub fn to_array(self) -> [f32; 4] {
            self.0
        }

        #[inline]
        pub fn add(self, rhs: Self) -> Self {
            let mut out = [0.0; 4];
            for i in 0..4 {
                out[i] = self.0[i] + rhs.0[i];
            }
            F32x4(out)
        }

        #[inline]
        pub fn sub(self, rhs: Self) -> Self {
            let mut out = [0.0; 4];
            for i in 0..4 {
                out[i] = self.0[i] - rhs.0[i];
            }
            F32x4(out)
        }

        #[inline]
        pub fn mul(self, rhs: Self) -> Self {
            let mut out = [0.0; 4];
            for i in 0..4 {
                out[i] = self.0[i] * rhs.0[i];
            }
            F32x4(out)
        }

        #[inline]
        pub fn hsum(self) -> f32 {
            let [l0, l1, l2, l3] = self.0;
            (l0 + l2) + (l1 + l3)
        }
    }
}

pub use imp::F32x4;

/// Helpers of the AVX2 wavefront kernels (the biquad cascade, the
/// Phaser): lane `2s + c` holds stage `s`, channel `c`, and at step `t`
/// stage `s` works on frame `t − s`.
///
/// # Safety
/// Every `unsafe fn` here requires a CPU with AVX2: the kernels' callers
/// check [`avx2_fma_available`] first.
#[cfg(target_arch = "x86_64")]
pub(crate) mod wave {
    use core::arch::x86_64::*;

    /// `y` moved up one stage: lane `i` takes lane `i − 2`, lanes 0–1 take
    /// lanes 6–7 (the carry into the next vector, or the slot the caller
    /// blends the next frame into).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) unsafe fn rotate_up(y: __m256) -> __m256 {
        _mm256_permutevar8x32_ps(y, _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5))
    }

    /// Frame `t` of the planes in lanes 0–1 (a mono buffer's lane 1 is 0).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) unsafe fn frame(l: &[f32], r: &[f32], t: usize) -> __m256 {
        let right = if r.is_empty() { 0.0 } else { r[t] };
        _mm256_setr_ps(l[t], right, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    }

    /// Lanes `lane` and `lane + 1` of `y`: a stage's two channels, read in
    /// registers rather than through a store and a reload.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) unsafe fn pair(y: __m256, lane: usize) -> (f32, f32) {
        let index = _mm256_setr_epi32(lane as i32, lane as i32 + 1, 0, 0, 0, 0, 0, 0);
        let two = _mm256_castps256_ps128(_mm256_permutevar8x32_ps(y, index));
        (_mm_cvtss_f32(two), _mm_cvtss_f32(_mm_movehdup_ps(two)))
    }

    /// All-ones in each lane whose stage index `s` (per lane) has its frame
    /// `t − s` inside `0..frames`: `t − frames < s ≤ t`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) unsafe fn live_lanes(stage: __m256i, t: usize, frames: usize) -> __m256 {
        let lo = _mm256_set1_epi32(t as i32 - frames as i32);
        let hi = _mm256_set1_epi32(t as i32 + 1);
        let live = _mm256_and_si256(_mm256_cmpgt_epi32(stage, lo), _mm256_cmpgt_epi32(hi, stage));
        _mm256_castsi256_ps(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_arithmetic() {
        let a = F32x4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = F32x4::splat(0.5);
        assert_eq!(a.add(b).to_array(), [1.5, 2.5, 3.5, 4.5]);
        assert_eq!(a.mul(b).to_array(), [0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.sub(a).to_array(), [0.0; 4]);
    }

    #[test]
    fn load_store_slices() {
        let src = [9.0f32, 8.0, 7.0, 6.0, 5.0];
        let v = F32x4::load(&src[1..]);
        let mut dst = [0.0f32; 4];
        v.store(&mut dst);
        assert_eq!(dst, [8.0, 7.0, 6.0, 5.0]);
    }

    #[test]
    fn hsum_pairs_lanes() {
        let v = F32x4::from_array([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.hsum(), (1.0 + 3.0) + (2.0 + 4.0));
        // 1e8 absorbs a 1 alone but not a 2: the pairing is observable.
        let v = F32x4::from_array([1e8, 1.0, -1e8, 1.0]);
        assert_eq!(v.hsum(), 2.0);
    }
}
