#include "common/label_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/section_file.h"

namespace hc2l {
namespace {

constexpr uint32_t kSentinel = UINT32_MAX;

TEST(LabelArena, AllocationIsCacheAlignedAndSentinelFilled) {
  LabelArena arena;
  arena.Reset(33);  // rounds up to 48 entries (3 cache lines)
  EXPECT_EQ(arena.size(), 48u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.data()) % 64, 0u);
  for (size_t i = 0; i < arena.size(); ++i) {
    ASSERT_EQ(arena.data()[i], kSentinel);
  }
}

TEST(LabelArena, EmptyResetHasNoStorage) {
  LabelArena arena;
  arena.Reset(0);
  EXPECT_EQ(arena.size(), 0u);
}

TEST(LabelStore, EveryArrayStartsCacheLineAligned) {
  // Three vertices with level arrays of awkward lengths (including empty).
  std::vector<std::vector<uint32_t>> data = {
      {1, 2, 3, 4, 5},     // v0: arrays [1,2,3] and [4,5]
      {},                  // v1: one empty array
      {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23},
  };
  std::vector<std::vector<uint32_t>> lens = {{3, 2}, {0}, {17}};
  LabelStore store;
  store.BuildFrom(&data, &lens);

  ASSERT_EQ(store.base.size(), 4u);
  EXPECT_EQ(store.base[0], 0u);
  EXPECT_EQ(store.base[1], 2u);
  EXPECT_EQ(store.base[2], 3u);
  EXPECT_EQ(store.base[3], 4u);
  ASSERT_EQ(store.level_start.size(), 4u);
  ASSERT_EQ(store.level_len.size(), 4u);
  for (size_t i = 0; i < store.level_start.size(); ++i) {
    EXPECT_EQ(store.level_start[i] % LabelArena::kAlignEntries, 0u)
        << "array " << i;
  }
  EXPECT_EQ(store.level_len[0], 3u);
  EXPECT_EQ(store.level_len[1], 2u);
  EXPECT_EQ(store.level_len[2], 0u);
  EXPECT_EQ(store.level_len[3], 17u);

  // Contents landed at the aligned starts; padding kept its sentinel fill.
  const uint32_t* arena = store.arena.data();
  EXPECT_EQ(arena[store.level_start[0]], 1u);
  EXPECT_EQ(arena[store.level_start[0] + 2], 3u);
  EXPECT_EQ(arena[store.level_start[0] + 3], kSentinel);  // padding
  EXPECT_EQ(arena[store.level_start[1]], 4u);
  EXPECT_EQ(arena[store.level_start[3]], 7u);
  EXPECT_EQ(arena[store.level_start[3] + 16], 23u);
  EXPECT_EQ(arena[store.level_start[3] + 17], kSentinel);  // padding

  // Accumulators were consumed.
  EXPECT_TRUE(data[0].empty());
  EXPECT_TRUE(lens[2].empty());
}

TEST(LabelStore, ValidateAcceptsBuiltStoresAndRejectsCorruptTables) {
  const auto make_store = [] {
    std::vector<std::vector<uint32_t>> data = {{1, 2, 3, 4, 5}, {}, {7, 8}};
    std::vector<std::vector<uint32_t>> lens = {{3, 2}, {0}, {2}};
    LabelStore store;
    store.BuildFrom(&data, &lens);
    return store;
  };
  const LabelStore built = make_store();
  EXPECT_TRUE(io::ValidateLabelShape(built, built.arena.size()));
  // The arena size comes from the section table, not the store: a table
  // that fits its own arena must still be rejected against a smaller one.
  EXPECT_FALSE(io::ValidateLabelShape(built, built.arena.size() - 16));

  {
    LabelStore s = make_store();  // array pushed past the arena
    s.level_len.Set(s.level_len.size() - 1,
                    static_cast<uint32_t>(s.arena.size()));
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
  {
    LabelStore s = make_store();  // unaligned start
    s.level_start.Set(1, s.level_start[1] + 1);
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
  {
    LabelStore s = make_store();  // base not a partition of the array list
    s.base.Set(s.base.size() - 1, s.base.back() + 3);
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
  {
    LabelStore s = make_store();  // decreasing base
    s.base.Set(1, s.base[2] + 1);
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
}

TEST(LabelStore, ResidentBytesCountArenaAndTables) {
  std::vector<std::vector<uint32_t>> data = {{1, 2}};
  std::vector<std::vector<uint32_t>> lens = {{2}};
  LabelStore store;
  store.BuildFrom(&data, &lens);
  // One 2-entry array pads to one cache line; tables: 1 start + 1 len +
  // 2 base entries.
  EXPECT_EQ(store.arena.SizeBytes(), 64u);
  EXPECT_EQ(store.MetadataBytes(), 4 * sizeof(uint32_t));
  EXPECT_EQ(store.ResidentBytes(), 64u + 4 * sizeof(uint32_t));
}

}  // namespace
}  // namespace hc2l
