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
/// matrix: one or two source arrays against a panel of target columns.
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

/// MinPlusPanel's lane primitives (see PanelStrip): a row's source entry
/// is broadcast once, its complement hoisted for the saturating sum. The
/// complement is one xor of the broadcast, so the entry is used only as a
/// broadcast operand and compiles to a broadcast load (a load-port uop,
/// where broadcasting a register value costs two shuffle-port uops).
using PanelVec = __m256i;
inline constexpr size_t kPanelVecLanes = 8;
struct PanelRow {
  __m256i va;
  __m256i not_a;
};
inline PanelRow PanelBroadcast(const uint32_t* a) {
  const __m256i va = _mm256_set1_epi32(static_cast<int>(*a));
  return {va, _mm256_xor_si256(va, _mm256_set1_epi32(-1))};
}
inline PanelVec PanelFill() { return _mm256_set1_epi32(-1); }
inline PanelVec PanelLoad(const uint32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void PanelStore(uint32_t* p, PanelVec v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline PanelVec PanelStep(PanelVec best, PanelVec vb, const PanelRow& r) {
  return _mm256_min_epu32(
      best, _mm256_add_epi32(_mm256_min_epu32(vb, r.not_a), r.va));
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

using PanelVec = __m128i;
inline constexpr size_t kPanelVecLanes = 4;
struct PanelRow {
  __m128i va;
  __m128i not_a;
};
inline PanelRow PanelBroadcast(const uint32_t* a) {
  const __m128i va = _mm_set1_epi32(static_cast<int>(*a));
  return {va, _mm_xor_si128(va, _mm_set1_epi32(-1))};
}
inline PanelVec PanelFill() { return _mm_set1_epi32(-1); }
inline PanelVec PanelLoad(const uint32_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void PanelStore(uint32_t* p, PanelVec v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline PanelVec PanelStep(PanelVec best, PanelVec vb, const PanelRow& r) {
  return MinU32(best, _mm_add_epi32(MinU32(vb, r.not_a), r.va));
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

using PanelVec = uint32x4_t;
inline constexpr size_t kPanelVecLanes = 4;
struct PanelRow {
  uint32x4_t va;  // vqaddq_u32 saturates natively: no complement needed
};
inline PanelRow PanelBroadcast(const uint32_t* a) { return {vld1q_dup_u32(a)}; }
inline PanelVec PanelFill() { return vdupq_n_u32(UINT32_MAX); }
inline PanelVec PanelLoad(const uint32_t* p) { return vld1q_u32(p); }
inline void PanelStore(uint32_t* p, PanelVec v) { vst1q_u32(p, v); }
inline PanelVec PanelStep(PanelVec best, PanelVec vb, const PanelRow& r) {
  return vminq_u32(best, vqaddq_u32(r.va, vb));
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

using PanelVec = uint32_t;
inline constexpr size_t kPanelVecLanes = 1;
using PanelRow = uint32_t;
inline PanelRow PanelBroadcast(const uint32_t* a) { return *a; }
inline PanelVec PanelFill() { return UINT32_MAX; }
inline PanelVec PanelLoad(const uint32_t* p) { return *p; }
inline void PanelStore(uint32_t* p, PanelVec v) { *p = v; }
inline PanelVec PanelStep(PanelVec best, PanelVec vb, PanelRow a) {
  const uint32_t sum = SatAdd32(a, vb);
  return sum < best ? sum : best;
}

}  // namespace internal

#endif

/// Columns per MinPlusPanel strip: one strip's accumulators stay in
/// registers (four AVX2 or eight 128-bit vectors per source).
inline constexpr size_t kPanelLanes = 32;

/// One source of a MinPlusPanel pass: its array `a`, the rows it reduces
/// over (`len` <= the panel height) and where its column results go.
struct PanelSource {
  const uint32_t* a;
  size_t len;
  uint32_t* out;
};

namespace internal {

/// One kPanelLanes-lane strip against one or two sources: each strip row
/// is loaded once and feeds every source's accumulators (the
/// register-blocked micro-kernel of Goto & van de Geijn). The rows both
/// sources reduce over run jointly; src[0], the longer, then continues
/// alone over its remaining rows, so each source's column reads exactly
/// min over h < its own len. (Only src[0] ever continues, which keeps every
/// accumulator index a compile-time constant and so in a register.)
template <size_t kSources>
inline void PanelStrip(const PanelSource (&src)[kSources],
                       const uint32_t* strip,
                       uint32_t* const (&out)[kSources]) {
  static_assert(kSources == 1 || kSources == 2);
  constexpr size_t kVecs = kPanelLanes / kPanelVecLanes;
  PanelVec best[kSources][kVecs];
  for (auto& accumulators : best) {
    for (PanelVec& b : accumulators) b = PanelFill();
  }
  const size_t common = src[kSources - 1].len;
  for (size_t h = 0; h < common; ++h) {
    PanelRow r[kSources];
    for (size_t s = 0; s < kSources; ++s) r[s] = PanelBroadcast(src[s].a + h);
    const uint32_t* row = strip + h * kPanelLanes;
    for (size_t k = 0; k < kVecs; ++k) {
      const PanelVec vb = PanelLoad(row + k * kPanelVecLanes);
      for (size_t s = 0; s < kSources; ++s) {
        best[s][k] = PanelStep(best[s][k], vb, r[s]);
      }
    }
  }
  for (size_t h = common; h < src[0].len; ++h) {
    const PanelRow r = PanelBroadcast(src[0].a + h);
    const uint32_t* row = strip + h * kPanelLanes;
    for (size_t k = 0; k < kVecs; ++k) {
      best[0][k] =
          PanelStep(best[0][k], PanelLoad(row + k * kPanelVecLanes), r);
    }
  }
  for (size_t s = 0; s < kSources; ++s) {
    for (size_t k = 0; k < kVecs; ++k) {
      PanelStore(out[s] + k * kPanelVecLanes, best[s][k]);
    }
  }
}

}  // namespace internal

/// The block kernel of the many-to-many matrix: one or two source arrays
/// against `width` target arrays transposed into a column panel. The panel
/// is strip-major — ceil(width / kPanelLanes) strips of `height` rows by
/// kPanelLanes lanes, entry (h, j) at
///   panel[((j / kPanelLanes) * height + h) * kPanelLanes + j % kPanelLanes]
/// — and for every source s and column j < width the kernel writes
///   s.out[j] = min_{h < s.len} sat32(s.a[h] + panel(h, j)),  s.len <= height,
/// broadcasting s.a[h] once per row and min-reducing a whole strip at a
/// time; with two sources each strip row read serves both. Every variant is
/// bit-identical to MinPlusScalar run per (source, column). Lanes of the
/// last strip past `width` are read but never written to any `out`; a
/// column padded with UINT32_MAX below its true length saturates there and
/// never wins, which is what lets one panel serve arrays of different
/// lengths.
template <size_t kSources>
inline void MinPlusPanel(const PanelSource (&sources)[kSources],
                         const uint32_t* panel, size_t height, size_t width) {
  if constexpr (kSources == 2) {
    // PanelStrip continues only its first source: put the longer there.
    if (sources[1].len > sources[0].len) {
      MinPlusPanel<2>({sources[1], sources[0]}, panel, height, width);
      return;
    }
  }
  uint32_t* out[kSources];
  const size_t full = width / kPanelLanes;
  for (size_t k = 0; k < full; ++k) {
    for (size_t s = 0; s < kSources; ++s) {
      out[s] = sources[s].out + k * kPanelLanes;
    }
    internal::PanelStrip(sources, panel + k * height * kPanelLanes, out);
  }
  if (const size_t rest = width % kPanelLanes; rest != 0) {
    uint32_t tail[kSources][kPanelLanes];
    for (size_t s = 0; s < kSources; ++s) out[s] = tail[s];
    internal::PanelStrip(sources, panel + full * height * kPanelLanes, out);
    for (size_t s = 0; s < kSources; ++s) {
      for (size_t j = 0; j < rest; ++j) {
        sources[s].out[full * kPanelLanes + j] = tail[s][j];
      }
    }
  }
}

/// MinPlusPanel for one source: out[j] = min_{h < len} sat32(a[h] +
/// panel(h, j)).
inline void MinPlusPanel(const uint32_t* a, size_t len, const uint32_t* panel,
                         size_t height, size_t width, uint32_t* out) {
  MinPlusPanel<1>({{a, len, out}}, panel, height, width);
}

}  // namespace simd
}  // namespace hc2l

#endif  // HC2L_COMMON_SIMD_H_
