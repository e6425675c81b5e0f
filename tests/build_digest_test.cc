// Golden digests of built indexes. Answer exactness and thread-count
// determinism are pinned elsewhere; these pin the bytes themselves. A
// change to the Eq. 6 rank order, to tail pruning or to the hint witnesses
// keeps every answer exact but moves label sizes and hints, and shows up
// here. The constants were recorded from the label walk before its cut
// ranking and labelling shared one shortest-path tree per cut vertex; a
// change that is meant to alter the labels must re-record them and say why.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/section_file.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "graph/digraph.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::FileBytes;

/// FNV-1a, 64-bit.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void Add(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
};

/// A rows x cols street grid with pendant chains, built with integer
/// arithmetic only so that it is the same on every platform: every column
/// edge, row 0's edges and about 80% of the other row edges, weights 1-12
/// (small, so tied shortest paths are common), and a chain of 1-3 vertices
/// on about one lattice vertex in five for the degree-one contraction.
/// `oneway` is the share, in percent, of edges that become one-way streets
/// of random orientation in the directed variant.
struct SeededStreets {
  size_t n = 0;
  std::vector<DirectedArc> arcs;
};

SeededStreets MakeStreets(uint32_t rows, uint32_t cols, uint64_t seed,
                          uint32_t oneway) {
  Rng rng(seed);
  SeededStreets s;
  s.n = static_cast<size_t>(rows) * cols;
  const auto edge = [&](Vertex u, Vertex v) {
    const Weight w = static_cast<Weight>(1 + rng.Below(12));
    if (rng.Below(100) < oneway) {
      if (rng.Below(2) == 0) std::swap(u, v);
      s.arcs.push_back({u, v, w});
    } else {
      s.arcs.push_back({u, v, w});
      s.arcs.push_back({v, u, w});
    }
  };
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      const Vertex v = r * cols + c;
      if (r + 1 < rows) edge(v, v + cols);
      if (c + 1 < cols && (r == 0 || rng.Below(5) != 0)) edge(v, v + 1);
    }
  }
  const size_t lattice = s.n;
  for (Vertex v = 0; v < lattice; ++v) {
    if (rng.Below(5) != 0) continue;
    Vertex at = v;
    for (uint64_t len = 1 + rng.Below(3); len > 0; --len) {
      const Vertex next = static_cast<Vertex>(s.n++);
      edge(at, next);
      at = next;
    }
  }
  return s;
}

Graph UndirectedOf(const SeededStreets& s) {
  GraphBuilder b(s.n);
  for (const DirectedArc& a : s.arcs) b.AddEdge(a.from, a.to, a.weight);
  return std::move(b).Build();
}

Digraph DirectedOf(const SeededStreets& s) {
  DigraphBuilder b(s.n);
  for (const DirectedArc& a : s.arcs) b.AddArc(a.from, a.to, a.weight);
  return std::move(b).Build();
}

/// Digest of a saved index file: every section in table order, id and
/// bytes. In an undirected file the meta body opens with the raw
/// Hc2lStats; it is hashed field by field from `stats`, without
/// `build_seconds` (a wall-clock time) and without the struct's padding.
uint64_t FileDigest(const std::string& bytes, const Hc2lStats* stats) {
  Digest d;
  uint64_t header[2];
  EXPECT_GE(bytes.size(), sizeof(header));
  if (bytes.size() < sizeof(header)) return 0;
  std::memcpy(header, bytes.data(), sizeof(header));
  d.AddValue(header);
  for (uint64_t i = 0; i < header[1]; ++i) {
    uint64_t entry[3];  // id, offset, bytes
    const size_t at = sizeof(header) + i * sizeof(entry);
    EXPECT_LE(at + sizeof(entry), bytes.size());
    if (at + sizeof(entry) > bytes.size()) return 0;
    std::memcpy(entry, bytes.data() + at, sizeof(entry));
    EXPECT_LE(entry[1] + entry[2], bytes.size());
    if (entry[1] + entry[2] > bytes.size()) return 0;
    const char* payload = bytes.data() + entry[1];
    size_t skip = 0;
    d.AddValue(entry[0]);
    if (entry[0] == io::kSectionMeta && stats != nullptr) {
      skip = sizeof(Hc2lStats);
      EXPECT_GE(entry[2], skip);
      if (entry[2] < skip) return 0;
      double saved = 0;
      std::memcpy(&saved, payload + offsetof(Hc2lStats, build_seconds),
                  sizeof(saved));
      EXPECT_EQ(saved, stats->build_seconds) << "meta does not open with "
                                                "the stats";
      d.AddValue(stats->num_vertices);
      d.AddValue(stats->num_core_vertices);
      d.AddValue(stats->num_contracted);
      d.AddValue(stats->tree_height);
      d.AddValue(stats->num_tree_nodes);
      d.AddValue(stats->max_cut_size);
      d.AddValue(stats->avg_cut_size);
      d.AddValue(stats->num_shortcuts);
      d.AddValue(stats->label_entries);
      d.AddValue(stats->label_bytes);
      d.AddValue(stats->lca_bytes);
    }
    d.Add(payload + skip, entry[2] - skip);
  }
  return d.h;
}

/// The eight option sets, indexed hints << 2 | tail pruning << 1 |
/// contraction.
Hc2lOptions OptionsFor(int config, uint32_t threads) {
  Hc2lOptions o;
  o.route_hints = (config & 4) != 0;
  o.tail_pruning = (config & 2) != 0;
  o.contract_degree_one = (config & 1) != 0;
  o.num_threads = threads;
  return o;
}

std::string ConfigName(int config, uint32_t threads) {
  return std::string(config & 4 ? "hints" : "no hints") +
         (config & 2 ? ", tail pruning" : ", no tail pruning") +
         (config & 1 ? ", contraction" : ", no contraction") + ", " +
         std::to_string(threads) + " threads";
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr uint64_t kUndirectedDigests[8] = {
    0x4cff0e83bc2930c3ull, 0x4c975fd94f403c55ull, 0x3a1bf16d90361536ull,
    0x03ed386fb25165f9ull, 0xac6f992575853052ull, 0x83cf7464bab62694ull,
    0x437168c90345967dull, 0x53da81d565fc2b1bull,
};

constexpr uint64_t kDirectedDigests[8] = {
    0xb135edf226aa5f13ull, 0x328fcc686af03be3ull, 0xb905f5790d5d926cull,
    0xf9cdbbc660c9bb1bull, 0xb249ba30367edf26ull, 0xc23b18f87dd39d7cull,
    0x58148c5a8a0dcf1cull, 0x9979d2e8dac02ebeull,
};

TEST(BuildDigest, UndirectedMatchesRecorded) {
  const Graph g = UndirectedOf(MakeStreets(13, 14, 2024, 0));
  const std::string path = ::testing::TempDir() + "/hc2l_digest_undirected";
  for (int config = 0; config < 8; ++config) {
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(ConfigName(config, threads));
      const Hc2lIndex index =
          Hc2lIndex::Build(g, OptionsFor(config, threads));
      ASSERT_TRUE(index.Save(path).ok());
      const uint64_t got = FileDigest(FileBytes(path), &index.Stats());
      EXPECT_EQ(got, kUndirectedDigests[config])
          << "config " << config << " digest " << Hex(got);
    }
  }
  std::remove(path.c_str());
}

TEST(BuildDigest, DirectedMatchesRecorded) {
  const Digraph g = DirectedOf(MakeStreets(13, 14, 2025, 30));
  const std::string path = ::testing::TempDir() + "/hc2l_digest_directed";
  for (int config = 0; config < 8; ++config) {
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(ConfigName(config, threads));
      const DirectedHc2lIndex index =
          DirectedHc2lIndex::Build(g, OptionsFor(config, threads));
      ASSERT_TRUE(index.Save(path).ok());
      const uint64_t got = FileDigest(FileBytes(path), nullptr);
      EXPECT_EQ(got, kDirectedDigests[config])
          << "config " << config << " digest " << Hex(got);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hc2l
