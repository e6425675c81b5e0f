// Differential tests: the compiled-in vector min-plus kernel against the
// scalar reference, over randomized and adversarial label arrays. The two
// must be bit-identical for every input, including sentinel entries,
// near-overflow sums, tiny lengths and non-multiple-of-8 tails.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/label_arena.h"
#include "common/rng.h"

namespace hc2l {
namespace {

constexpr uint32_t kSentinel = UINT32_MAX;

/// Draws a label value from a distribution that stresses every regime:
/// small finite, maximal finite (just below 2^31), out-of-contract values in
/// [2^31, 2^32) (the kernel must still match the scalar reference on them),
/// and the sentinel.
uint32_t AdversarialValue(Rng& rng) {
  switch (rng.Below(8)) {
    case 0:
      return kSentinel;
    case 1:
      return (uint32_t{1} << 31) - 1 - static_cast<uint32_t>(rng.Below(4));
    case 2:
      return (uint32_t{1} << 31) + static_cast<uint32_t>(rng.Below(1000));
    case 3:
      return kSentinel - 1 - static_cast<uint32_t>(rng.Below(4));
    default:
      return static_cast<uint32_t>(rng.Below(1 << 20));
  }
}

TEST(SatAdd32, SaturatesInsteadOfWrapping) {
  EXPECT_EQ(simd::SatAdd32(0, 0), 0u);
  EXPECT_EQ(simd::SatAdd32(3, 4), 7u);
  EXPECT_EQ(simd::SatAdd32(kSentinel, 0), kSentinel);
  EXPECT_EQ(simd::SatAdd32(kSentinel, 1), kSentinel);
  EXPECT_EQ(simd::SatAdd32(kSentinel, kSentinel), kSentinel);
  EXPECT_EQ(simd::SatAdd32((uint32_t{1} << 31) - 1, (uint32_t{1} << 31) - 1),
            kSentinel - 1);  // largest finite+finite sum, exact
  EXPECT_EQ(simd::SatAdd32(kSentinel - 1, 1), kSentinel);
}

TEST(MinPlus, EmptyArraysReturnSentinel) {
  EXPECT_EQ(simd::MinPlus(nullptr, nullptr, 0), kSentinel);
  EXPECT_EQ(simd::MinPlusPadded(nullptr, nullptr, 0), kSentinel);
  EXPECT_EQ(simd::MinPlusScalar(nullptr, nullptr, 0), kSentinel);
}

TEST(MinPlus, TinyLengths) {
  // Lengths 1..3 never fill one vector; the tail path must handle them.
  const uint32_t a[3] = {5, kSentinel, 7};
  const uint32_t b[3] = {9, 2, kSentinel};
  EXPECT_EQ(simd::MinPlus(a, b, 1), 14u);
  EXPECT_EQ(simd::MinPlus(a, b, 2), 14u);
  EXPECT_EQ(simd::MinPlus(a, b, 3), 14u);
  const uint32_t c[2] = {kSentinel, kSentinel};
  EXPECT_EQ(simd::MinPlus(c, c, 2), kSentinel);
}

TEST(MinPlus, MatchesScalarOnRandomArrays) {
  Rng rng(20260729);
  // Every length in [0, 67] catches all vector/tail splits for 4- and
  // 8-lane kernels.
  for (size_t len = 0; len <= 67; ++len) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<uint32_t> a(len), b(len);
      for (size_t i = 0; i < len; ++i) {
        a[i] = AdversarialValue(rng);
        b[i] = AdversarialValue(rng);
      }
      ASSERT_EQ(simd::MinPlus(a.data(), b.data(), len),
                simd::MinPlusScalar(a.data(), b.data(), len))
          << "len=" << len << " rep=" << rep;
    }
  }
}

TEST(MinPlusPadded, MatchesScalarOnSentinelPaddedArrays) {
  Rng rng(42);
  for (size_t len = 0; len <= 67; ++len) {
    const size_t padded = simd::PaddedLength(len);
    for (int rep = 0; rep < 50; ++rep) {
      // Arena invariant: capacity sentinel-filled beyond the true length.
      std::vector<uint32_t> a(padded, kSentinel), b(padded, kSentinel);
      for (size_t i = 0; i < len; ++i) {
        a[i] = AdversarialValue(rng);
        b[i] = AdversarialValue(rng);
      }
      ASSERT_EQ(simd::MinPlusPadded(a.data(), b.data(), len),
                simd::MinPlusScalar(a.data(), b.data(), len))
          << "len=" << len << " rep=" << rep;
    }
  }
}

TEST(MinPlusPadded, MismatchedTrueLengthsUseSentinelPadding) {
  // The query reduces over min(len_a, len_b); entries of the longer array
  // beyond that meet sentinel padding of the shorter one and must saturate
  // away. Simulate two arena arrays of different true lengths.
  const size_t len_a = 21, len_b = 5;
  const size_t cap = LabelArena::PaddedCapacity(len_a);
  std::vector<uint32_t> a(cap, kSentinel), b(cap, kSentinel);
  for (size_t i = 0; i < len_a; ++i) a[i] = 1000 + static_cast<uint32_t>(i);
  for (size_t i = 0; i < len_b; ++i) b[i] = 7 * static_cast<uint32_t>(i);
  const size_t len = std::min(len_a, len_b);
  EXPECT_EQ(simd::MinPlusPadded(a.data(), b.data(), len),
            simd::MinPlusScalar(a.data(), b.data(), len));
  EXPECT_EQ(simd::MinPlusPadded(a.data(), b.data(), len), 1000u);
}

TEST(MinPlus, NearOverflowSumsDoNotWrapPastSentinel) {
  // Pairs whose 32-bit sum would wrap must clamp to the sentinel, never to a
  // small "reachable" value that would win the min.
  std::vector<uint32_t> a = {kSentinel, kSentinel - 2, 0x80000000u, 3};
  std::vector<uint32_t> b = {5, 7, 0x80000001u, kSentinel};
  for (size_t len = 1; len <= a.size(); ++len) {
    const uint32_t got = simd::MinPlus(a.data(), b.data(), len);
    ASSERT_EQ(got, simd::MinPlusScalar(a.data(), b.data(), len));
    ASSERT_EQ(got, kSentinel);  // every pair here saturates
  }
}

/// A strip-major MinPlusPanel panel over `columns` (column j true length
/// columns[j].size()), each padded with the sentinel down to `height`; the
/// lanes past the last column hold garbage the kernel must never report.
std::vector<uint32_t> BuildPanel(
    const std::vector<std::vector<uint32_t>>& columns, size_t height) {
  constexpr size_t kLanes = simd::kPanelLanes;
  const size_t strips = (columns.size() + kLanes - 1) / kLanes;
  std::vector<uint32_t> panel(strips * height * kLanes, 7);
  for (size_t j = 0; j < columns.size(); ++j) {
    uint32_t* column =
        panel.data() + (j / kLanes) * height * kLanes + j % kLanes;
    for (size_t h = 0; h < height; ++h) {
      column[h * kLanes] = h < columns[j].size() ? columns[j][h] : kSentinel;
    }
  }
  return panel;
}

/// Checks MinPlusPanel against MinPlusScalar per column over the true
/// lengths: out[j] = min over h < min(len_a, len_j), and nothing past
/// out[width - 1] is written.
void ExpectPanelMatchesScalar(const std::vector<uint32_t>& a,
                              const std::vector<std::vector<uint32_t>>& columns,
                              size_t height, const std::string& what) {
  const std::vector<uint32_t> panel = BuildPanel(columns, height);
  const size_t width = columns.size();
  std::vector<uint32_t> out(width + 1, 12345);
  simd::MinPlusPanel(a.data(), std::min(a.size(), height), panel.data(),
                     height, width, out.data());
  for (size_t j = 0; j < width; ++j) {
    const size_t len = std::min(a.size(), columns[j].size());
    ASSERT_EQ(out[j], simd::MinPlusScalar(a.data(), columns[j].data(), len))
        << what << " column " << j;
  }
  EXPECT_EQ(out[width], 12345u) << what;
}

TEST(MinPlusPanel, MatchesScalarPerColumnOnRandomShapes) {
  Rng rng(20261017);
  // Widths around the 8- and 32-lane boundaries, including ones that are a
  // multiple of neither.
  for (const size_t width : {1, 3, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 100}) {
    for (int rep = 0; rep < 20; ++rep) {
      const size_t height = rng.Below(70);
      std::vector<std::vector<uint32_t>> columns(width);
      for (auto& column : columns) {
        column.resize(height == 0 ? 0 : rng.Below(height + 1));
        for (uint32_t& v : column) v = AdversarialValue(rng);
      }
      // Source lengths below, at and past the panel height.
      std::vector<uint32_t> a(rng.Below(height + 10));
      for (uint32_t& v : a) v = AdversarialValue(rng);
      ExpectPanelMatchesScalar(a, columns, height,
                               "width=" + std::to_string(width) +
                                   " height=" + std::to_string(height));
    }
  }
}

TEST(MinPlusPanel, SentinelColumnsAndSaturatingSums) {
  const size_t height = 11;
  std::vector<std::vector<uint32_t>> columns(37);
  for (size_t j = 0; j < columns.size(); ++j) {
    columns[j].assign(height, kSentinel);  // all-sentinel columns
    if (j % 3 == 1) {
      // One finite entry whose sum with the source would wrap past 2^32.
      columns[j][j % height] = kSentinel - 2;
    } else if (j % 3 == 2) {
      columns[j][j % height] = static_cast<uint32_t>(j);  // the only winner
    }
  }
  std::vector<uint32_t> a(height);
  for (size_t h = 0; h < height; ++h) {
    a[h] = h % 2 == 0 ? (uint32_t{1} << 31) + static_cast<uint32_t>(h)
                      : static_cast<uint32_t>(10 * h);
  }
  ExpectPanelMatchesScalar(a, columns, height, "sentinel-heavy");
  const std::vector<uint32_t> panel = BuildPanel(columns, height);
  std::vector<uint32_t> out(columns.size());
  simd::MinPlusPanel(a.data(), height, panel.data(), height, columns.size(),
                     out.data());
  for (size_t j = 0; j < columns.size(); j += 3) {
    EXPECT_EQ(out[j], kSentinel) << "all-sentinel column " << j;
  }
  // len == 0 reduces nothing: every column reads the sentinel.
  simd::MinPlusPanel(a.data(), 0, panel.data(), height, columns.size(),
                     out.data());
  for (const uint32_t v : out) EXPECT_EQ(v, kSentinel);
}

/// Runs the two-source MinPlusPanel and checks each source's outputs
/// against MinPlusScalar per column over min(len_source, len_column), with
/// nothing written past either output's `width` entries.
void ExpectTwoSourcePanelMatchesScalar(
    const std::vector<uint32_t>& a0, const std::vector<uint32_t>& a1,
    const std::vector<std::vector<uint32_t>>& columns, size_t height,
    const std::string& what) {
  const std::vector<uint32_t> panel = BuildPanel(columns, height);
  const size_t width = columns.size();
  std::vector<uint32_t> out0(width + 1, 12345), out1(width + 1, 54321);
  simd::MinPlusPanel<2>({{a0.data(), std::min(a0.size(), height), out0.data()},
                         {a1.data(), std::min(a1.size(), height), out1.data()}},
                        panel.data(), height, width);
  for (size_t j = 0; j < width; ++j) {
    ASSERT_EQ(out0[j],
              simd::MinPlusScalar(a0.data(), columns[j].data(),
                                  std::min(a0.size(), columns[j].size())))
        << what << " source 0 column " << j;
    ASSERT_EQ(out1[j],
              simd::MinPlusScalar(a1.data(), columns[j].data(),
                                  std::min(a1.size(), columns[j].size())))
        << what << " source 1 column " << j;
  }
  EXPECT_EQ(out0[width], 12345u) << what;
  EXPECT_EQ(out1[width], 54321u) << what;
}

TEST(MinPlusPanel, TwoSourcesMatchScalarPerSourceAndColumn) {
  Rng rng(20261019);
  // Every width 1-70 (partial strips at both sides of the 32-lane strip)
  // against source pairs whose lengths are shorter than, equal to and
  // longer than each other, zero included.
  for (size_t width = 1; width <= 70; ++width) {
    for (int rep = 0; rep < 12; ++rep) {
      const size_t height = rng.Below(50);
      std::vector<std::vector<uint32_t>> columns(width);
      for (auto& column : columns) {
        column.resize(height == 0 ? 0 : rng.Below(height + 1));
        for (uint32_t& v : column) v = AdversarialValue(rng);
      }
      size_t len0 = rng.Below(height + 1);
      size_t len1 = rng.Below(height + 1);
      switch (rep % 4) {
        case 0:
          len1 = len0;  // equal
          break;
        case 1:
          len0 = 0;  // one empty source beside a longer one
          break;
        case 2:
          len1 = 0;
          break;
        default:
          break;  // independent: either may be the longer
      }
      std::vector<uint32_t> a0(len0), a1(len1);
      for (uint32_t& v : a0) v = AdversarialValue(rng);
      for (uint32_t& v : a1) v = AdversarialValue(rng);
      ExpectTwoSourcePanelMatchesScalar(
          a0, a1, columns, height,
          "width=" + std::to_string(width) + " height=" +
              std::to_string(height) + " lens=" + std::to_string(len0) + "," +
              std::to_string(len1));
    }
  }
  // Both orders of a long and a short source over one panel, so each
  // side's continuation past the other's length is exercised.
  for (const size_t width : {5, 32, 47}) {
    const size_t height = 40;
    std::vector<std::vector<uint32_t>> columns(width);
    for (auto& column : columns) {
      column.resize(height);
      for (uint32_t& v : column) v = static_cast<uint32_t>(rng.Below(1000));
    }
    std::vector<uint32_t> longer(height), shorter(3);
    // The longer source wins only in its last rows.
    for (size_t h = 0; h < height; ++h) {
      longer[h] = h + 5 < height ? 1'000'000 : static_cast<uint32_t>(h);
    }
    for (uint32_t& v : shorter) v = 500'000;
    ExpectTwoSourcePanelMatchesScalar(longer, shorter, columns, height,
                                      "long,short");
    ExpectTwoSourcePanelMatchesScalar(shorter, longer, columns, height,
                                      "short,long");
  }
}

TEST(MinPlusPanel, TwoSourcesSentinelColumnsAndSaturatingSums) {
  const size_t height = 13;
  std::vector<std::vector<uint32_t>> columns(41);
  for (size_t j = 0; j < columns.size(); ++j) {
    columns[j].assign(height, kSentinel);
    if (j % 3 == 1) {
      columns[j][j % height] = kSentinel - 2;  // wraps past 2^32 if unsaturated
    } else if (j % 3 == 2) {
      columns[j][j % height] = static_cast<uint32_t>(j);
    }
  }
  std::vector<uint32_t> a0(height), a1(height - 4);
  for (size_t h = 0; h < a0.size(); ++h) {
    a0[h] = h % 2 == 0 ? (uint32_t{1} << 31) + static_cast<uint32_t>(h)
                       : static_cast<uint32_t>(10 * h);
  }
  for (size_t h = 0; h < a1.size(); ++h) {
    a1[h] = h % 3 == 0 ? kSentinel : kSentinel - 1 - static_cast<uint32_t>(h);
  }
  ExpectTwoSourcePanelMatchesScalar(a0, a1, columns, height, "sentinel-heavy");
  ExpectTwoSourcePanelMatchesScalar(a1, a0, columns, height,
                                    "sentinel-heavy swapped");
}

TEST(PaddedLength, RoundsToVectorMultiple) {
  EXPECT_EQ(simd::PaddedLength(0), 0u);
  EXPECT_EQ(simd::PaddedLength(1), simd::kPadLanes);
  EXPECT_EQ(simd::PaddedLength(simd::kPadLanes), simd::kPadLanes);
  EXPECT_EQ(simd::PaddedLength(simd::kPadLanes + 1), 2 * simd::kPadLanes);
  // The arena pads at least as far as the kernel reads.
  for (size_t len = 0; len < 100; ++len) {
    EXPECT_GE(LabelArena::PaddedCapacity(len), simd::PaddedLength(len));
  }
}

}  // namespace
}  // namespace hc2l
