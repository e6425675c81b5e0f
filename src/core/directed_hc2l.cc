#include "core/directed_hc2l.h"

#include <cstdio>

#include "common/binary_io.h"
#include "core/index_format.h"

namespace hc2l {

DirectedHc2lIndex DirectedHc2lIndex::Build(const Digraph& g,
                                           const Hc2lOptions& options) {
  DirectedHc2lIndex index;
  index.BuildLabels(g, options);
  return index;
}

// On-disk format (src/core/index_format.h, docs/format.md): the sectioned
// HC2D0004 layout. The meta body carries a uint8 contraction marker, the
// vertex count, the stored height and the contraction's per-direction
// weights; the core (LabelIndex::SaveSections) appends the hierarchy and
// writes the out- and in-direction stores, with hint arenas for both
// directions or neither.
Status DirectedHc2lIndex::Save(const std::string& path, bool manifest) const {
  const auto write_body = [&](std::FILE* out) {
    // core_id_ / to_original_ are derivable (a vertex is in the core iff
    // its depth is 0, and its core id is then its root id), so the format
    // does not carry them; Load reconstructs both.
    const uint8_t has_contraction = contraction_ != nullptr ? 1 : 0;
    bool ok = io::WriteValue(out, has_contraction) &&
              io::WriteValue(out, num_vertices_);
    if (!ok || !has_contraction) return ok && io::WriteValue(out, height_);
    const DirectedDegreeOneContraction& c = *contraction_;
    const uint64_t num_contracted = c.num_contracted_;
    return io::WriteValue(out, num_contracted) &&
           io::WriteValue(out, height_) &&
           io::WriteVector(out, c.root_core_id_) &&
           io::WriteVector(out, c.parent_) && io::WriteVector(out, c.depth_) &&
           io::WriteVector(out, c.up_weight_) &&
           io::WriteVector(out, c.down_weight_) &&
           io::WriteVector(out, c.up_dist_) &&
           io::WriteVector(out, c.down_dist_);
  };
  return SaveSections(path, kDirectedIndexMagic, manifest, write_body);
}

Result<DirectedHc2lIndex> DirectedHc2lIndex::Load(const std::string& path) {
  return Load(path, /*use_mmap=*/false);
}

Result<DirectedHc2lIndex> DirectedHc2lIndex::Load(const std::string& path,
                                                  bool use_mmap) {
  DirectedHc2lIndex index;
  uint64_t num_contracted = 0;
  // The stored height is informational; the core recomputes the level
  // bound from the validated codes.
  uint32_t stored_height = 0;
  const auto parse_body = [&](io::Reader* in) {
    uint8_t has_contraction = 0;
    const bool ok = io::ReadValue(in, &has_contraction) &&
                    has_contraction <= 1 &&
                    io::ReadValue(in, &index.num_vertices_);
    if (!ok || !has_contraction) {
      return ok && io::ReadValue(in, &stored_height);
    }
    index.contraction_ = std::unique_ptr<DirectedDegreeOneContraction>(
        new DirectedDegreeOneContraction());
    DirectedDegreeOneContraction& c = *index.contraction_;
    if (!io::ReadValue(in, &num_contracted)) return false;
    c.num_contracted_ = num_contracted;
    return io::ReadValue(in, &stored_height) &&
           io::ReadVector(in, &c.root_core_id_) &&
           io::ReadVector(in, &c.parent_) && io::ReadVector(in, &c.depth_) &&
           io::ReadVector(in, &c.up_weight_) &&
           io::ReadVector(in, &c.down_weight_) &&
           io::ReadVector(in, &c.up_dist_) &&
           io::ReadVector(in, &c.down_dist_);
  };

  // With a contraction the per-vertex mapping arrays must cover every
  // original vertex and point inside the core, so the query paths never
  // index out of bounds.
  const auto check_body = [&](size_t core) {
    const size_t n = index.num_vertices_;
    if (index.contraction_ == nullptr) return core == n;
    DirectedDegreeOneContraction& c = *index.contraction_;
    bool ok = core + num_contracted == n && c.root_core_id_.size() == n &&
              c.parent_.size() == n && c.depth_.size() == n &&
              c.up_weight_.size() == n && c.down_weight_.size() == n &&
              c.up_dist_.size() == n && c.down_dist_.size() == n;
    for (size_t v = 0; ok && v < n; ++v) {
      ok = c.root_core_id_[v] < core && c.parent_[v] < n;
    }
    if (!ok) return false;
    // Reconstruct the derived mappings; doing so doubles as the
    // consistency check that the depth-0 set maps one-to-one onto the core.
    c.core_id_.assign(n, kInvalidVertex);
    c.to_original_.assign(core, kInvalidVertex);
    for (size_t v = 0; ok && v < n; ++v) {
      if (c.depth_[v] != 0) continue;
      const Vertex id = c.root_core_id_[v];
      ok = c.to_original_[id] == kInvalidVertex;
      c.to_original_[id] = static_cast<Vertex>(v);
      c.core_id_[v] = id;
    }
    for (size_t i = 0; ok && i < core; ++i) {
      ok = c.to_original_[i] != kInvalidVertex;
    }
    return ok;
  };

  if (Status st = index.LoadSections(path, "directed HC2L index",
                                     kDirectedIndexMagic, use_mmap,
                                     parse_body, check_body);
      !st.ok()) {
    return st;
  }
  return index;
}

}  // namespace hc2l
