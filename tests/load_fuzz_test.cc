// Corrupt-index fuzz hardening for the loaders, over every on-disk format:
// the sectioned index files (HC2L0004 / HC2D0004) with and without their
// optional hint sections, and the HC2S0002 shard manifest.
// Router::Open on a truncated, bit-flipped, size-field-smashed or
// plain-garbage file — in BOTH OpenMode::kHeap and OpenMode::kMmap — must
// return a Status — never crash, never abort, and never allocate beyond
// what the file itself could justify. The last property is pinned with a
// global operator-new high-water mark: a flipped or hostile size field must
// be rejected BEFORE the allocation it names (the historical failure mode
// is a 2^60 "element count" turning into a bad_alloc abort or an OOM
// kill). For kMmap the analogous property is that a forged section table
// is rejected before any query dereferences the mapping.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/section_file.h"
#include "core/hc2l.h"
#include "core/index_format.h"
#include "graph/road_network_generator.h"
#include "hc2l/hc2l.h"
#include "shard/sharded_index.h"

// --------------------------------------------- allocation high-water mark ---
// Global operator new replacement: when tracking is on, records the largest
// single allocation requested. Works under ASan (which intercepts the
// underlying malloc) and costs two relaxed atomics when tracking is off.

namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<size_t> g_max_alloc{0};

void RecordAlloc(size_t size) {
  if (!g_track_allocs.load(std::memory_order_relaxed)) return;
  size_t seen = g_max_alloc.load(std::memory_order_relaxed);
  while (size > seen && !g_max_alloc.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

void* AllocOrThrow(size_t size) {
  RecordAlloc(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return AllocOrThrow(size); }
void* operator new[](std::size_t size) { return AllocOrThrow(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hc2l {
namespace {

/// Runs fn with allocation tracking on; returns the largest single
/// allocation it made.
size_t MaxAllocDuring(const std::function<void()>& fn) {
  g_max_alloc.store(0, std::memory_order_relaxed);
  g_track_allocs.store(true, std::memory_order_relaxed);
  fn();
  g_track_allocs.store(false, std::memory_order_relaxed);
  return g_max_alloc.load(std::memory_order_relaxed);
}

struct FormatFile {
  std::string name;            // for SCOPED_TRACE
  std::vector<char> pristine;  // the valid serialized index (or manifest)
  uint64_t num_vertices = 0;   // the true vertex count of that index
  uint64_t magic = 0;          // the expected on-disk magic
  bool sectioned = false;      // an index file: starts with a section table
  bool hints = false;          // carries hint-arena sections
};

/// TempDir path unique to this PROCESS, not just this test: ctest runs each
/// gtest case as its own process in parallel, and a shared fixed name would
/// let one process rewrite a fixture file (the seed index, the manifest's
/// member shards) while a sibling is mmap-reading it.
std::string ProcessTempPath(const std::string& name) {
  return ::testing::TempDir() + "/hc2l_fuzz_p" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::vector<char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char chunk[65536];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const char* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (size > 0) {
    ASSERT_EQ(std::fwrite(data, 1, size, f), size);
  }
  std::fclose(f);
}

/// Builds and serializes one index per format, once for the whole suite:
/// sectioned files with hint sections (the default build) and without them
/// (undirected, directed contracted and directed uncontracted), and a
/// sharded manifest whose member shard files stay pristine in TempDir for
/// the manifest sweeps to resolve against.
const std::vector<FormatFile>& AllFormats() {
  static const std::vector<FormatFile>* formats = [] {
    auto* out = new std::vector<FormatFile>();
    RoadNetworkOptions opt;
    opt.rows = 8;
    opt.cols = 8;
    opt.seed = 5;
    const Graph graph = GenerateRoadNetwork(opt);
    const std::string path = ProcessTempPath("seed.idx");

    for (const bool hints : {true, false}) {
      BuildOptions build;
      build.route_hints = hints;
      Result<Router> undirected = Router::Build(graph, build);
      EXPECT_TRUE(undirected.ok());
      EXPECT_TRUE(undirected->Save(path).ok());
      out->push_back({hints ? "HC2L0004-undirected"
                            : "HC2L0004-undirected-hintless",
                      ReadFileBytes(path), undirected->NumVertices(),
                      kHc2lIndexMagic, true, hints});
    }

    const Digraph digraph = GenerateDirectedRoadNetwork(opt, 0.25);
    struct DirectedCase {
      const char* name;
      bool contract;
      bool hints;
    };
    const DirectedCase directed_cases[] = {
        {"HC2D0004-directed-contracted", true, true},
        {"HC2D0004-directed-uncontracted-hintless", false, false},
        {"HC2D0004-directed-contracted-hintless", true, false},
    };
    for (const DirectedCase& c : directed_cases) {
      BuildOptions build;
      build.contract_degree_one = c.contract;
      build.route_hints = c.hints;
      Result<Router> directed = Router::Build(digraph, build);
      EXPECT_TRUE(directed.ok());
      EXPECT_TRUE(directed->Save(path).ok());
      out->push_back({c.name, ReadFileBytes(path), directed->NumVertices(),
                      kDirectedIndexMagic, true, c.hints});
    }
    std::remove(path.c_str());

    // The sharded manifest: its member shard files stay pristine next to
    // the mutated manifest copies (shard paths resolve relative to the
    // manifest's directory, and every scratch path shares TempDir).
    ShardOptions shard_options;
    shard_options.num_shards = 3;
    Result<ShardedIndex> sharded = ShardedIndex::Build(graph, shard_options);
    EXPECT_TRUE(sharded.ok());
    const std::string manifest = ProcessTempPath("seed.hc2s");
    EXPECT_TRUE(sharded->Save(manifest).ok());
    out->push_back({"HC2S0002-shard-manifest", ReadFileBytes(manifest),
                    sharded->NumVertices(), kShardManifestMagic, false,
                    false});
    std::remove(manifest.c_str());  // the .0/.1/.2 shard files remain

    for (const FormatFile& file : *out) {
      EXPECT_GT(file.pristine.size(), 64u) << file.name;
      uint64_t magic = 0;
      std::memcpy(&magic, file.pristine.data(), sizeof(magic));
      EXPECT_EQ(magic, file.magic) << file.name;
    }
    return out;
  }();
  return *formats;
}

/// Every corrupted Open must stay within what the file itself could
/// justify: the loaders bound every size field by the bytes remaining in
/// the file, so no allocation can exceed the file size plus slack for
/// fixed-size bookkeeping (and the test's own strings).
size_t AllocBound(const FormatFile& file) {
  return file.pristine.size() + (4u << 20);
}

class LoadFuzzTest : public ::testing::Test {
 protected:
  std::string ScratchPath() const {
    return ProcessTempPath(
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        ".idx");
  }

  /// Opens a mutated file in BOTH open modes, asserting only cleanliness: a
  /// Status or a usable router, bounded allocation, no crash, and — for
  /// kMmap — rejection before any query dereferences the mapping. The modes
  /// share the structural validation layers, but the heap path additionally
  /// scans the hint arenas (mmap defers that to the query walk's per-step
  /// range checks, to avoid touching arena pages at open), so kMmap may
  /// accept strictly more files than kHeap — never fewer.
  void OpenExpectingNoHarm(const FormatFile& file, const std::string& path,
                           bool* opened_ok = nullptr) {
    bool ok_by_mode[2] = {false, false};
    for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
      const bool mmap = mode == OpenMode::kMmap;
      const size_t peak = MaxAllocDuring([&] {
        Result<Router> reopened = Router::Open(path, mode);
        ok_by_mode[mmap ? 1 : 0] = reopened.ok();
        if (reopened.ok()) {
          // A mutation that still parses (e.g. a flipped weight bit or a
          // purely informational stats field) must not have inflated the id
          // space — the vertex count gates every query's range check — and
          // must still answer queries without crashing; the answer itself
          // is allowed to differ or be an error.
          EXPECT_EQ(reopened->NumVertices(), file.num_vertices) << file.name;
          (void)reopened->Distance(0, 1);
        }
      });
      EXPECT_LE(peak, AllocBound(file))
          << file.name << (mmap ? " (mmap)" : " (heap)") << ": a corrupted "
          << file.pristine.size() << "-byte file drove a " << peak
          << "-byte allocation";
    }
    EXPECT_TRUE(!ok_by_mode[0] || ok_by_mode[1])
        << file.name << ": the heap open accepted a file the mmap open "
        << "rejected";
    if (opened_ok != nullptr) *opened_ok = ok_by_mode[1];
  }
};

TEST_F(LoadFuzzTest, TruncationsFailCleanlyAtEveryLength) {
  const std::string path = ScratchPath();
  for (const FormatFile& file : AllFormats()) {
    SCOPED_TRACE(file.name);
    const size_t size = file.pristine.size();
    std::vector<size_t> lengths;
    // Every early prefix (headers, magic, the first size fields), then a
    // stride across the arrays, then the almost-complete file.
    for (size_t len = 0; len < std::min<size_t>(size, 192); ++len) {
      lengths.push_back(len);
    }
    for (size_t len = 192; len < size; len += 61) lengths.push_back(len);
    if (size > 0) lengths.push_back(size - 1);
    for (const size_t len : lengths) {
      WriteFileBytes(path, file.pristine.data(), len);
      bool opened_ok = false;
      OpenExpectingNoHarm(file, path, &opened_ok);
      EXPECT_FALSE(opened_ok) << "a " << len << "-byte truncation of the "
                              << size << "-byte file loaded successfully";
    }
  }
  std::remove(path.c_str());
}

TEST_F(LoadFuzzTest, SeededBitFlipsNeverCrash) {
  const std::string path = ScratchPath();
  for (const FormatFile& file : AllFormats()) {
    SCOPED_TRACE(file.name);
    const size_t size = file.pristine.size();
    std::vector<char> mutated = file.pristine;
    uint64_t rng = 0x9e3779b97f4a7c15ull;  // fixed seed: reproducible runs
    for (int flip = 0; flip < 250; ++flip) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const size_t pos = (rng >> 16) % size;
      const int bit = static_cast<int>((rng >> 8) & 7);
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      WriteFileBytes(path, mutated.data(), mutated.size());
      OpenExpectingNoHarm(file, path);
      mutated[pos] = file.pristine[pos];  // restore for the next flip
    }
  }
  std::remove(path.c_str());
}

TEST_F(LoadFuzzTest, HostileSizeFieldsAreRejectedBeforeAllocation) {
  // Smash successive 8-byte windows after the magic with 0xFF: whichever
  // count/size field lands there now claims ~2^64 elements. The loader
  // must reject the claim against the bytes actually remaining in the file
  // instead of attempting the allocation — and when the window only hits
  // informational fields and the file still loads, the vertex count must
  // be the true one (OpenExpectingNoHarm pins both).
  const std::string path = ScratchPath();
  for (const FormatFile& file : AllFormats()) {
    SCOPED_TRACE(file.name);
    for (size_t offset = 8; offset + 8 <= std::min<size_t>(
                                              file.pristine.size(), 128);
         offset += 8) {
      SCOPED_TRACE("offset " + std::to_string(offset));
      std::vector<char> mutated = file.pristine;
      std::memset(mutated.data() + offset, 0xFF, 8);
      WriteFileBytes(path, mutated.data(), mutated.size());
      OpenExpectingNoHarm(file, path);
    }
  }
  std::remove(path.c_str());
}

TEST_F(LoadFuzzTest, GarbageFilesFailCleanly) {
  const std::string path = ScratchPath();
  const FormatFile& reference = AllFormats().front();

  std::vector<std::vector<char>> garbage;
  garbage.push_back({});                      // empty file
  garbage.push_back({'\x7f'});                // one byte
  garbage.emplace_back(8, '\0');              // all-zero "magic"
  {
    std::vector<char> magic_only(reference.pristine.begin(),
                                 reference.pristine.begin() + 8);
    garbage.push_back(magic_only);            // magic, then EOF
    std::vector<char> magic_ones = magic_only;
    magic_ones.insert(magic_ones.end(), 64, '\xff');
    garbage.push_back(magic_ones);            // magic, then hostile fields
  }
  {
    std::vector<char> noise(4096);
    uint64_t rng = 0x243f6a8885a308d3ull;
    for (char& byte : noise) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      byte = static_cast<char>(rng >> 33);
    }
    garbage.push_back(std::move(noise));
  }

  for (size_t i = 0; i < garbage.size(); ++i) {
    SCOPED_TRACE("garbage case " + std::to_string(i));
    WriteFileBytes(path, garbage[i].data(), garbage[i].size());
    bool opened_ok = false;
    OpenExpectingNoHarm(reference, path, &opened_ok);
    EXPECT_FALSE(opened_ok);
  }
  std::remove(path.c_str());
}

TEST_F(LoadFuzzTest, PristineFilesStillRoundTrip) {
  // The control arm: the exact bytes the sweeps mutate do load, in both
  // open modes.
  const std::string path = ScratchPath();
  for (const FormatFile& file : AllFormats()) {
    SCOPED_TRACE(file.name);
    WriteFileBytes(path, file.pristine.data(), file.pristine.size());
    for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
      Result<Router> reopened = Router::Open(path, mode);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_TRUE(reopened->Distance(0, 1).ok());
    }
  }
  std::remove(path.c_str());
}

TEST_F(LoadFuzzTest, ForgedSectionTablesAreRejectedBeforeMapping) {
  // Index files only: forge one field of one section-table entry at a time —
  // an out-of-file offset, a misaligned offset, a byte count past EOF, a
  // duplicated id, a hostile section count. Every forgery must be rejected
  // by the table validation itself, in both open modes, before any label
  // bytes are copied or mapped.
  const std::string path = ScratchPath();
  for (const FormatFile& file : AllFormats()) {
    if (!file.sectioned) continue;
    SCOPED_TRACE(file.name);
    const uint64_t size = file.pristine.size();
    uint64_t count = 0;
    std::memcpy(&count, file.pristine.data() + 8, sizeof(count));
    ASSERT_GE(count, 3u) << file.name;
    ASSERT_LE(count, 64u) << file.name;

    auto forge = [&](const char* what, size_t field_offset, uint64_t value) {
      SCOPED_TRACE(what);
      std::vector<char> mutated = file.pristine;
      std::memcpy(mutated.data() + field_offset, &value, sizeof(value));
      WriteFileBytes(path, mutated.data(), mutated.size());
      bool opened_ok = false;
      OpenExpectingNoHarm(file, path, &opened_ok);
      EXPECT_FALSE(opened_ok) << what;
    };

    forge("section count zero", 8, 0);
    forge("section count hostile", 8, ~uint64_t{0});
    for (uint64_t i = 0; i < count; ++i) {
      SCOPED_TRACE("section " + std::to_string(i));
      const size_t entry = 16 + static_cast<size_t>(i) * 24;
      uint64_t offset = 0;
      std::memcpy(&offset, file.pristine.data() + entry + 8, sizeof(offset));
      forge("offset beyond the file", entry + 8, (size + 127) & ~uint64_t{63});
      forge("offset misaligned", entry + 8, offset + 8);
      forge("byte count past EOF", entry + 16, size);
      if (i > 0) {
        uint64_t first_id = 0;
        std::memcpy(&first_id, file.pristine.data() + 16, sizeof(first_id));
        forge("duplicate section id", entry, first_id);
      }
    }
  }
  std::remove(path.c_str());
}

/// File offset of the section-table entry with `id` in a sectioned file,
/// or 0 when the table has none.
size_t SectionEntryPos(const std::vector<char>& bytes, uint64_t id) {
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + 8, sizeof(count));
  for (uint64_t i = 0; i < count; ++i) {
    const size_t pos = 16 + static_cast<size_t>(i) * 24;
    uint64_t entry_id = 0;
    std::memcpy(&entry_id, bytes.data() + pos, sizeof(entry_id));
    if (entry_id == id) return pos;
  }
  return 0;
}

/// Drops the table entry at `pos` (the last entry moves into its slot and
/// the count shrinks); the payload stays in the file, unreferenced.
std::vector<char> WithoutSectionEntry(const std::vector<char>& bytes,
                                      size_t pos) {
  std::vector<char> out = bytes;
  uint64_t count = 0;
  std::memcpy(&count, out.data() + 8, sizeof(count));
  const size_t last = 16 + static_cast<size_t>(count - 1) * 24;
  std::memmove(out.data() + pos, out.data() + last, 24);
  --count;
  std::memcpy(out.data() + 8, &count, sizeof(count));
  return out;
}

TEST_F(LoadFuzzTest, ForgedHintSectionsAreRejected) {
  // Hint arenas are optional, but a present one must be exactly as large as
  // its direction's label arena, and a directed file carries hint arenas
  // for both directions or neither. Every forgery below passes the section
  // table validation, so it pins the codec's own checks — in both open
  // modes. A hint entry naming no core vertex is caught by the heap load's
  // entry scan; a mapped open skips that scan by design (docs/format.md).
  const std::string path = ScratchPath();
  const auto open_codes = [&](const std::vector<char>& bytes) {
    WriteFileBytes(path, bytes.data(), bytes.size());
    std::vector<StatusCode> codes;
    for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
      Result<Router> r = Router::Open(path, mode);
      codes.push_back(r.ok() ? StatusCode::kOk : r.status().code());
    }
    return codes;
  };
  const std::vector<StatusCode> both_data_loss = {StatusCode::kDataLoss,
                                                  StatusCode::kDataLoss};
  const std::vector<StatusCode> both_ok = {StatusCode::kOk, StatusCode::kOk};
  const std::vector<StatusCode> heap_data_loss = {StatusCode::kDataLoss,
                                                  StatusCode::kOk};

  size_t hinted_files = 0;
  for (const FormatFile& file : AllFormats()) {
    if (!file.hints) continue;
    ++hinted_files;
    SCOPED_TRACE(file.name);
    const bool directed = file.magic == kDirectedIndexMagic;
    const std::pair<uint64_t, uint64_t> arenas[] = {
        {io::kSectionHintArena, io::kSectionLabelArena},
        {io::kSectionInHintArena, io::kSectionInLabelArena}};
    for (size_t d = 0; d < (directed ? 2u : 1u); ++d) {
      const auto [hint_id, label_id] = arenas[d];
      SCOPED_TRACE("hint section " + std::to_string(hint_id));
      const size_t hint_pos = SectionEntryPos(file.pristine, hint_id);
      const size_t label_pos = SectionEntryPos(file.pristine, label_id);
      ASSERT_NE(hint_pos, 0u);
      ASSERT_NE(label_pos, 0u);

      // A hint arena one cache line shorter than its label arena.
      uint64_t label_bytes = 0;
      std::memcpy(&label_bytes, file.pristine.data() + label_pos + 16,
                  sizeof(label_bytes));
      ASSERT_GE(label_bytes, 64u);
      std::vector<char> short_hints = file.pristine;
      const uint64_t forged_bytes = label_bytes - 64;
      std::memcpy(short_hints.data() + hint_pos + 16, &forged_bytes,
                  sizeof(forged_bytes));
      EXPECT_EQ(open_codes(short_hints), both_data_loss)
          << "hint arena smaller than its label arena";

      // A hint entry past every core vertex id. Padding and "no hint"
      // entries are all-ones, so the first other word is a real entry.
      uint64_t hint_offset = 0;
      uint64_t hint_bytes = 0;
      std::memcpy(&hint_offset, file.pristine.data() + hint_pos + 8,
                  sizeof(hint_offset));
      std::memcpy(&hint_bytes, file.pristine.data() + hint_pos + 16,
                  sizeof(hint_bytes));
      std::vector<char> bad_entry = file.pristine;
      size_t entry = hint_offset;
      const uint32_t no_hint = ~uint32_t{0};
      for (uint32_t word = no_hint; entry < hint_offset + hint_bytes;
           entry += 4) {
        std::memcpy(&word, bad_entry.data() + entry, sizeof(word));
        if (word != no_hint) break;
      }
      ASSERT_LT(entry, hint_offset + hint_bytes);
      const uint32_t forged_entry = no_hint - 1;
      std::memcpy(bad_entry.data() + entry, &forged_entry,
                  sizeof(forged_entry));
      EXPECT_EQ(open_codes(bad_entry), heap_data_loss)
          << "hint entry out of range";

      // Dropping the hint arena leaves exactly one for a directed file, and
      // a valid hint-less file for an undirected one.
      EXPECT_EQ(open_codes(WithoutSectionEntry(file.pristine, hint_pos)),
                directed ? both_data_loss : both_ok)
          << "hint arena dropped";
    }
  }
  EXPECT_EQ(hinted_files, 2u);
  std::remove(path.c_str());
}

/// Byte positions of one saved hierarchy inside an index file's meta
/// section: every node's parent field and the node_of_vertex_ entries.
struct HierarchyFields {
  std::vector<size_t> parent;
  std::vector<size_t> node_of_vertex;
};

/// Walks the hierarchy stream (docs/format.md) that starts `body_bytes`
/// into the meta section, past the flavour's body.
HierarchyFields FindHierarchyFields(const std::vector<char>& bytes,
                                    size_t body_bytes) {
  HierarchyFields fields;
  const size_t meta = SectionEntryPos(bytes, io::kSectionMeta);
  if (meta == 0) return fields;
  uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + meta + 8, sizeof(offset));
  size_t pos = offset + body_bytes;
  const auto read_u64 = [&]() {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  const uint64_t num_nodes = read_u64();
  for (uint64_t i = 0; i < num_nodes; ++i) {
    pos += sizeof(TreeCode);
    fields.parent.push_back(pos);
    pos += 3 * sizeof(int32_t);
    pos += read_u64() * sizeof(Vertex);
  }
  const uint64_t num_vertices = read_u64();
  for (uint64_t v = 0; v < num_vertices; ++v) {
    fields.node_of_vertex.push_back(pos + v * sizeof(uint32_t));
  }
  return fields;
}

TEST_F(LoadFuzzTest, SmashedHierarchyLinksAreRejected) {
  // Route alternatives climb parent links from node_of_vertex_, and a
  // relabel walks child links: both used to be followed unchecked, so one
  // smashed entry in an otherwise valid file loaded fine and then crashed
  // the first k-route query. The load must now fail with kDataLoss, in
  // both open modes and for both flavours. Uncontracted indexes keep the
  // flavours' meta bodies fixed-size, so the hierarchy is easy to find.
  RoadNetworkOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 5;
  const Graph graph = GenerateRoadNetwork(opt);
  const Digraph digraph = GenerateDirectedRoadNetwork(opt, 0.25);
  BuildOptions build;
  build.contract_degree_one = false;
  const std::string path = ScratchPath();
  const std::vector<StatusCode> both_data_loss = {StatusCode::kDataLoss,
                                                  StatusCode::kDataLoss};
  const auto open_codes = [&](const std::vector<char>& bytes) {
    WriteFileBytes(path, bytes.data(), bytes.size());
    std::vector<StatusCode> codes;
    for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
      Result<Router> r = Router::Open(path, mode);
      codes.push_back(r.ok() ? StatusCode::kOk : r.status().code());
      if (r.ok()) {
        const Result<std::vector<RoutePath>> routes = r->Routes(0, 60, 3);
        EXPECT_TRUE(routes.ok()) << routes.status().ToString();
      }
    }
    return codes;
  };

  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    Result<Router> router = directed ? Router::Build(digraph, build)
                                     : Router::Build(graph, build);
    ASSERT_TRUE(router.ok());
    ASSERT_TRUE(router->Save(path).ok());
    const std::vector<char> pristine = ReadFileBytes(path);
    // HC2L0004: the raw stats block and the contraction marker; HC2D0004:
    // the marker, the vertex count and the height.
    const size_t body = directed ? 1 + sizeof(uint64_t) + sizeof(uint32_t)
                                 : sizeof(Hc2lStats) + 1;
    const HierarchyFields fields = FindHierarchyFields(pristine, body);
    ASSERT_GT(fields.parent.size(), 2u);
    ASSERT_EQ(fields.node_of_vertex.size(), graph.NumVertices());
    ASSERT_EQ(open_codes(pristine),
              std::vector<StatusCode>(2, StatusCode::kOk));

    const auto smash = [&](size_t pos, uint32_t value) {
      std::vector<char> bytes = pristine;
      std::memcpy(bytes.data() + pos, &value, sizeof(value));
      return bytes;
    };
    EXPECT_EQ(open_codes(smash(fields.node_of_vertex[3], 0x7fffffff)),
              both_data_loss)
        << "node_of_vertex_ entry past every node";
    EXPECT_EQ(open_codes(smash(fields.parent[1], 0x7fffffff)),
              both_data_loss)
        << "parent link past every node";
    EXPECT_EQ(open_codes(smash(fields.parent[2], 2)), both_data_loss)
        << "a node as its own parent";
    EXPECT_EQ(open_codes(smash(fields.parent[0] + sizeof(int32_t), 0)),
              both_data_loss)
        << "the root as its own left child";
  }
  std::remove(path.c_str());
}

TEST_F(LoadFuzzTest, ShardManifestCrossValidatesItsShards) {
  // The manifest is only as good as the shard files it names: a missing,
  // truncated or transposed member shard, or one from another build, must
  // fail the open — in both modes — even though the manifest bytes
  // themselves are pristine.
  RoadNetworkOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  opt.seed = 9;
  const Graph graph = GenerateRoadNetwork(opt);
  ShardOptions shard_options;
  shard_options.num_shards = 3;
  Result<ShardedIndex> sharded = ShardedIndex::Build(graph, shard_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::string manifest = ProcessTempPath("xval.hc2s");
  ASSERT_TRUE(sharded->Save(manifest).ok());

  const auto open_fails = [&](const char* what) {
    for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
      Result<Router> r = Router::Open(manifest, mode);
      EXPECT_FALSE(r.ok()) << what;
    }
  };
  const auto open_succeeds = [&](const char* what) {
    for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
      Result<Router> r = Router::Open(manifest, mode);
      ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
      EXPECT_EQ(r->NumVertices(), sharded->NumVertices());
    }
  };
  open_succeeds("pristine manifest");

  const std::string shard0 = manifest + ".0";
  const std::string shard1 = manifest + ".1";
  const std::vector<char> shard0_bytes = ReadFileBytes(shard0);
  const std::vector<char> shard1_bytes = ReadFileBytes(shard1);
  ASSERT_FALSE(shard0_bytes.empty());
  ASSERT_FALSE(shard1_bytes.empty());

  std::remove(shard0.c_str());
  open_fails("missing shard file");

  WriteFileBytes(shard0, shard0_bytes.data(), shard0_bytes.size() / 2);
  open_fails("truncated shard file");

  // Two individually valid shard files in each other's slots: the loaded
  // members disagree with the manifest's partition tables.
  WriteFileBytes(shard0, shard1_bytes.data(), shard1_bytes.size());
  WriteFileBytes(shard1, shard0_bytes.data(), shard0_bytes.size());
  open_fails("transposed shard files");

  WriteFileBytes(shard0, shard0_bytes.data(), shard0_bytes.size());
  WriteFileBytes(shard1, shard1_bytes.data(), shard1_bytes.size());
  open_succeeds("restored shard files");

  // The same graph with every weight doubled cuts into the same hierarchy
  // and the same slice sizes, so only the build id tells its member 0
  // apart from the real one.
  Graph doubled = graph;
  for (const Edge& e : graph.UndirectedEdges()) {
    ASSERT_TRUE(doubled.UpdateEdgeWeight(e.u, e.v, 2 * e.weight));
  }
  Result<ShardedIndex> other = ShardedIndex::Build(doubled, shard_options);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  const std::string other_manifest = ProcessTempPath("xval_other.hc2s");
  ASSERT_TRUE(other->Save(other_manifest).ok());
  const std::vector<char> other0_bytes = ReadFileBytes(other_manifest + ".0");
  EXPECT_EQ(other0_bytes.size(), shard0_bytes.size());
  EXPECT_NE(other0_bytes, shard0_bytes);
  WriteFileBytes(shard0, other0_bytes.data(), other0_bytes.size());
  open_fails("shard file of another build");

  WriteFileBytes(shard0, shard0_bytes.data(), shard0_bytes.size());
  open_succeeds("restored shard file");

  for (const std::string& m : {manifest, other_manifest}) {
    std::remove(m.c_str());
    for (size_t k = 0; k < 3; ++k) {
      std::remove((m + "." + std::to_string(k)).c_str());
    }
  }
}

TEST_F(LoadFuzzTest, ManifestLoadSurvivesInjectedReadFaults) {
  // A read fault injected at every successive position inside the
  // manifest-and-shards load (the manifest loader and every member shard's
  // loader share the bounded reader's "index.load.read" point): each open
  // either fails with a clean Status or — when the fault lands after the
  // last read — yields a fully usable router. Never a crash, never an
  // unbounded allocation.
  namespace fi = ::hc2l::testing;
  if (!fi::FaultInjector::kEnabled) {
    GTEST_SKIP() << "built without HC2L_FAULT_INJECTION";
  }
  const FormatFile& manifest_file = AllFormats().back();
  ASSERT_EQ(manifest_file.magic, kShardManifestMagic);
  const std::string path = ScratchPath();
  WriteFileBytes(path, manifest_file.pristine.data(),
                 manifest_file.pristine.size());

  // Count the reads one clean load performs; the sweep then lands exactly
  // one fault at every position, plus one past the end.
  fi::FaultInjector::Instance().Reset();
  {
    Result<Router> warm = Router::Open(path, OpenMode::kMmap);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  const uint64_t total_reads =
      fi::FaultInjector::Instance().Hits("index.load.read");
  ASSERT_GT(total_reads, 0u);

  bool any_failed = false;
  bool any_succeeded = false;
  for (uint64_t fire_after = 0; fire_after <= total_reads; ++fire_after) {
    SCOPED_TRACE("fire_after=" + std::to_string(fire_after));
    fi::FaultSpec spec;
    spec.fire_after = fire_after;
    spec.fire_count = 1;
    fi::FaultInjector::Instance().Arm("index.load.read", spec);
    const size_t peak = MaxAllocDuring([&] {
      Result<Router> reopened = Router::Open(path, OpenMode::kMmap);
      if (reopened.ok()) {
        any_succeeded = true;
        EXPECT_EQ(reopened->NumVertices(), manifest_file.num_vertices);
        EXPECT_TRUE(reopened->Distance(0, 1).ok());
      } else {
        any_failed = true;
      }
    });
    EXPECT_LE(peak, AllocBound(manifest_file));
    fi::FaultInjector::Instance().Reset();
  }
  // The sweep crossed the load: early faults failed it, late ones (past
  // the last read) let it through.
  EXPECT_TRUE(any_failed);
  EXPECT_TRUE(any_succeeded);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hc2l
