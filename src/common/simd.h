#ifndef HC2L_COMMON_SIMD_H_
#define HC2L_COMMON_SIMD_H_

/// Portable min-plus kernel: the HC2L query inner loop (Eq. 7) reduced to
///
///   MinPlus(a, b, len) = min_i sat32(a[i] + b[i]),   i in [0, len)
///
/// where sat32 is the unsigned 32-bit *saturating* sum. Saturation is what
/// makes a 32-bit vector kernel sound: label entries are either finite
/// distances (< 2^31, enforced at encode time) or the kUnreachableLabel
/// sentinel (UINT32_MAX). A finite+finite sum fits in 32 bits exactly; any
/// sum involving a sentinel saturates to UINT32_MAX instead of wrapping past
/// it, so "unreachable" can never masquerade as a short distance. The caller
/// maps a result >= UINT32_MAX back to kInfDist.
///
/// MinPlusPanel is the same reduction transposed for the many-to-many
/// matrix: one source array against a panel of target columns.
///
/// Dispatch is at compile time: AVX2 > SSE2 (with an SSE4.1 refinement) >
/// NEON > scalar. All paths are bit-identical to MinPlusScalar — the scalar
/// reference stays available on every platform for differential testing.

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#define HC2L_SIMD_AVX2 1
#elif defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#include <emmintrin.h>
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#define HC2L_SIMD_SSE2 1
#elif (defined(__ARM_NEON) || defined(__ARM_NEON__)) && defined(__aarch64__)
// AArch64 only: the kernel uses vminvq_u32, absent from 32-bit NEON.
#include <arm_neon.h>
#define HC2L_SIMD_NEON 1
#endif

namespace hc2l {
namespace simd {

/// Name of the compiled-in kernel, for benchmark/CLI reporting.
#if defined(HC2L_SIMD_AVX2)
inline constexpr const char* kKernelName = "avx2";
#elif defined(HC2L_SIMD_SSE2) && defined(__SSE4_1__)
inline constexpr const char* kKernelName = "sse4.1";
#elif defined(HC2L_SIMD_SSE2)
inline constexpr const char* kKernelName = "sse2";
#elif defined(HC2L_SIMD_NEON)
inline constexpr const char* kKernelName = "neon";
#else
inline constexpr const char* kKernelName = "scalar";
#endif

/// Widest vector width (in uint32 lanes) any compiled-in path uses. Label
/// arrays padded to a multiple of this (with UINT32_MAX fill) may be read by
/// MinPlusPadded without a scalar tail loop.
inline constexpr size_t kPadLanes = 8;

/// Rounds len up to the vector-lane multiple MinPlusPadded will read.
constexpr size_t PaddedLength(size_t len) {
  return (len + kPadLanes - 1) & ~(kPadLanes - 1);
}

/// Hints the prefetcher at the cache line holding p (read, high locality).
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Prefetches up to `bytes` of the array at p, one hint per 64-byte line,
/// capped at 4 lines (beyond that the hardware streamer takes over).
inline void PrefetchArray(const void* p, size_t bytes) {
  const auto* c = static_cast<const char*>(p);
  const size_t lines = bytes == 0 ? 1 : (bytes + 63) / 64;
  for (size_t i = 0; i < (lines < 4 ? lines : 4); ++i) {
    PrefetchRead(c + i * 64);
  }
}

/// Unsigned 32-bit saturating sum.
inline uint32_t SatAdd32(uint32_t a, uint32_t b) {
  const uint32_t sum = a + b;
  return sum < a ? UINT32_MAX : sum;
}

/// Scalar reference kernel. Returns UINT32_MAX for len == 0.
inline uint32_t MinPlusScalar(const uint32_t* a, const uint32_t* b,
                              size_t len) {
  uint32_t best = UINT32_MAX;
  for (size_t i = 0; i < len; ++i) {
    const uint32_t sum = SatAdd32(a[i], b[i]);
    if (sum < best) best = sum;
  }
  return best;
}

#if defined(HC2L_SIMD_AVX2)

namespace internal {

/// Horizontal unsigned min over 8 lanes.
inline uint32_t HorizontalMin(__m256i v) {
  __m128i m = _mm_min_epu32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(m));
}

/// Lane-wise unsigned saturating sum: min(a, ~b) + b. If a <= ~b the sum
/// cannot wrap; otherwise it clamps to exactly ~b + b = UINT32_MAX.
inline __m256i SatAddLanes(__m256i a, __m256i b) {
  const __m256i not_b = _mm256_xor_si256(b, _mm256_set1_epi32(-1));
  return _mm256_add_epi32(_mm256_min_epu32(a, not_b), b);
}

}  // namespace internal

/// Vector kernel, safe for arbitrary arrays (scalar tail).
inline uint32_t MinPlus(const uint32_t* a, const uint32_t* b, size_t len) {
  __m256i best = _mm256_set1_epi32(-1);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    best = _mm256_min_epu32(best, internal::SatAddLanes(va, vb));
  }
  uint32_t out = internal::HorizontalMin(best);
  for (; i < len; ++i) {
    const uint32_t sum = SatAdd32(a[i], b[i]);
    if (sum < out) out = sum;
  }
  return out;
}

/// Tail-free variant. Requires both arrays to be readable and filled with
/// UINT32_MAX in [len, PaddedLength(len)) — the label-arena invariant.
/// Sentinel lanes saturate to UINT32_MAX and never win the min.
inline uint32_t MinPlusPadded(const uint32_t* a, const uint32_t* b,
                              size_t len) {
  const size_t padded = PaddedLength(len);
  __m256i best = _mm256_set1_epi32(-1);
  for (size_t i = 0; i < padded; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    best = _mm256_min_epu32(best, internal::SatAddLanes(va, vb));
  }
  return internal::HorizontalMin(best);
}

namespace internal {

/// One 32-lane strip of MinPlusPanel: four accumulators, a[h] broadcast
/// once per row (its complement hoisted for the saturating sum).
inline void PanelStrip(const uint32_t* a, size_t len, const uint32_t* strip,
                       uint32_t* out) {
  __m256i best[4];
  for (__m256i& b : best) b = _mm256_set1_epi32(-1);
  for (size_t h = 0; h < len; ++h) {
    const __m256i va = _mm256_set1_epi32(static_cast<int>(a[h]));
    const __m256i not_a = _mm256_set1_epi32(static_cast<int>(~a[h]));
    const uint32_t* row = strip + h * 32;
    for (int k = 0; k < 4; ++k) {
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 8 * k));
      best[k] = _mm256_min_epu32(
          best[k], _mm256_add_epi32(_mm256_min_epu32(vb, not_a), va));
    }
  }
  for (int k = 0; k < 4; ++k) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * k), best[k]);
  }
}

}  // namespace internal

#elif defined(HC2L_SIMD_SSE2)

namespace internal {

inline __m128i MinU32(__m128i x, __m128i y) {
#if defined(__SSE4_1__)
  return _mm_min_epu32(x, y);
#else
  // SSE2 has no unsigned 32-bit min: bias by 2^31 and compare signed.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i gt =
      _mm_cmpgt_epi32(_mm_xor_si128(x, bias), _mm_xor_si128(y, bias));
  return _mm_or_si128(_mm_and_si128(gt, y), _mm_andnot_si128(gt, x));
#endif
}

inline uint32_t HorizontalMin(__m128i v) {
  v = MinU32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = MinU32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(v));
}

inline __m128i SatAddLanes(__m128i a, __m128i b) {
  const __m128i not_b = _mm_xor_si128(b, _mm_set1_epi32(-1));
  return _mm_add_epi32(MinU32(a, not_b), b);
}

}  // namespace internal

inline uint32_t MinPlus(const uint32_t* a, const uint32_t* b, size_t len) {
  __m128i best = _mm_set1_epi32(-1);
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    best = internal::MinU32(best, internal::SatAddLanes(va, vb));
  }
  uint32_t out = internal::HorizontalMin(best);
  for (; i < len; ++i) {
    const uint32_t sum = SatAdd32(a[i], b[i]);
    if (sum < out) out = sum;
  }
  return out;
}

inline uint32_t MinPlusPadded(const uint32_t* a, const uint32_t* b,
                              size_t len) {
  const size_t padded = PaddedLength(len);
  __m128i best = _mm_set1_epi32(-1);
  for (size_t i = 0; i < padded; i += 4) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    best = internal::MinU32(best, internal::SatAddLanes(va, vb));
  }
  return internal::HorizontalMin(best);
}

namespace internal {

inline void PanelStrip(const uint32_t* a, size_t len, const uint32_t* strip,
                       uint32_t* out) {
  __m128i best[8];
  for (__m128i& b : best) b = _mm_set1_epi32(-1);
  for (size_t h = 0; h < len; ++h) {
    const __m128i va = _mm_set1_epi32(static_cast<int>(a[h]));
    const __m128i not_a = _mm_set1_epi32(static_cast<int>(~a[h]));
    const uint32_t* row = strip + h * 32;
    for (int k = 0; k < 8; ++k) {
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 4 * k));
      best[k] = MinU32(best[k], _mm_add_epi32(MinU32(vb, not_a), va));
    }
  }
  for (int k = 0; k < 8; ++k) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * k), best[k]);
  }
}

}  // namespace internal

#elif defined(HC2L_SIMD_NEON)

inline uint32_t MinPlus(const uint32_t* a, const uint32_t* b, size_t len) {
  uint32x4_t best = vdupq_n_u32(UINT32_MAX);
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    // vqaddq_u32 is the native unsigned saturating sum.
    best = vminq_u32(best, vqaddq_u32(vld1q_u32(a + i), vld1q_u32(b + i)));
  }
  uint32_t out = vminvq_u32(best);
  for (; i < len; ++i) {
    const uint32_t sum = SatAdd32(a[i], b[i]);
    if (sum < out) out = sum;
  }
  return out;
}

inline uint32_t MinPlusPadded(const uint32_t* a, const uint32_t* b,
                              size_t len) {
  const size_t padded = PaddedLength(len);
  uint32x4_t best = vdupq_n_u32(UINT32_MAX);
  for (size_t i = 0; i < padded; i += 4) {
    best = vminq_u32(best, vqaddq_u32(vld1q_u32(a + i), vld1q_u32(b + i)));
  }
  return vminvq_u32(best);
}

namespace internal {

inline void PanelStrip(const uint32_t* a, size_t len, const uint32_t* strip,
                       uint32_t* out) {
  uint32x4_t best[8];
  for (uint32x4_t& b : best) b = vdupq_n_u32(UINT32_MAX);
  for (size_t h = 0; h < len; ++h) {
    const uint32x4_t va = vdupq_n_u32(a[h]);
    const uint32_t* row = strip + h * 32;
    for (int k = 0; k < 8; ++k) {
      best[k] = vminq_u32(best[k], vqaddq_u32(va, vld1q_u32(row + 4 * k)));
    }
  }
  for (int k = 0; k < 8; ++k) vst1q_u32(out + 4 * k, best[k]);
}

}  // namespace internal

#else

inline uint32_t MinPlus(const uint32_t* a, const uint32_t* b, size_t len) {
  return MinPlusScalar(a, b, len);
}

inline uint32_t MinPlusPadded(const uint32_t* a, const uint32_t* b,
                              size_t len) {
  return MinPlusScalar(a, b, len);
}

namespace internal {

inline void PanelStrip(const uint32_t* a, size_t len, const uint32_t* strip,
                       uint32_t* out) {
  for (size_t j = 0; j < 32; ++j) out[j] = UINT32_MAX;
  for (size_t h = 0; h < len; ++h) {
    for (size_t j = 0; j < 32; ++j) {
      const uint32_t sum = SatAdd32(a[h], strip[h * 32 + j]);
      if (sum < out[j]) out[j] = sum;
    }
  }
}

}  // namespace internal

#endif

/// Columns per MinPlusPanel strip: one strip's accumulators stay in
/// registers (four AVX2 or eight 128-bit vectors).
inline constexpr size_t kPanelLanes = 32;

/// The block kernel of the many-to-many matrix: one source array `a` against
/// `width` target arrays transposed into a column panel. The panel is
/// strip-major — ceil(width / kPanelLanes) strips of `height` rows by
/// kPanelLanes lanes, entry (h, j) at
///   panel[((j / kPanelLanes) * height + h) * kPanelLanes + j % kPanelLanes]
/// — and for every column j < width the kernel writes
///   out[j] = min_{h < len} sat32(a[h] + panel(h, j)),   len <= height,
/// broadcasting a[h] once per row and min-reducing a whole strip at a time.
/// Every variant is bit-identical to MinPlusScalar run per column. Lanes of
/// the last strip past `width` are read but never written to `out`; a column
/// padded with UINT32_MAX below its true length saturates there and never
/// wins, which is what lets one panel serve arrays of different lengths.
inline void MinPlusPanel(const uint32_t* a, size_t len, const uint32_t* panel,
                         size_t height, size_t width, uint32_t* out) {
  const size_t full = width / kPanelLanes;
  for (size_t k = 0; k < full; ++k) {
    internal::PanelStrip(a, len, panel + k * height * kPanelLanes,
                         out + k * kPanelLanes);
  }
  if (const size_t rest = width % kPanelLanes; rest != 0) {
    uint32_t tail[kPanelLanes];
    internal::PanelStrip(a, len, panel + full * height * kPanelLanes, tail);
    for (size_t j = 0; j < rest; ++j) out[full * kPanelLanes + j] = tail[j];
  }
}

}  // namespace simd
}  // namespace hc2l

#endif  // HC2L_COMMON_SIMD_H_
