#include "core/label_index.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/section_file.h"
#include "common/simd.h"
#include "core/index_format.h"

namespace hc2l {

namespace {

/// The section ids of each direction's stores (the undirected store is the
/// out direction's).
constexpr io::StoreSections kDirectionSections[2] = {io::kStoreSections,
                                                     io::kInStoreSections};

/// The offset-table slots of a core pair's arrays at `level`: the source's
/// in the out store, the target's in the in store.
struct LevelSlots {
  uint32_t s_idx;
  uint32_t t_idx;
};

[[gnu::always_inline]] inline LevelSlots SlotsAt(const LabelStore& out,
                                                 const LabelStore& in,
                                                 uint32_t level, Vertex s,
                                                 Vertex t) {
  return {out.base[s] + level, in.base[t] + level};
}

/// The two aligned arrays a core pair min-reduces at its LCA level: the
/// source's out-array and the target's in-array, over their common prefix.
/// The one operand lookup of the point query, the pair kernel and the route
/// paths; forced inline, since GCC would otherwise call it from the
/// point-query hot path.
struct LevelArrays {
  uint32_t s_idx;  // the source's offset-table slot (out store)
  uint32_t t_idx;  // the target's offset-table slot (in store)
  const uint32_t* ds;
  const uint32_t* dt;
  uint32_t len;
};

[[gnu::always_inline]] inline LevelArrays ArraysAt(const LabelStore& out,
                                                   const LabelStore& in,
                                                   uint32_t level, Vertex s,
                                                   Vertex t) {
  const LevelSlots slots = SlotsAt(out, in, level, s, t);
  LevelArrays a;
  a.s_idx = slots.s_idx;
  a.t_idx = slots.t_idx;
  a.ds = out.arena.data() + out.level_start[a.s_idx];
  a.dt = in.arena.data() + in.level_start[a.t_idx];
  a.len = std::min(out.level_len[a.s_idx], in.level_len[a.t_idx]);
  return a;
}

/// Pairs the pair kernel carries through its stages at once: enough
/// independent lookups in flight to cover a memory round trip per stage,
/// few enough that every stage's prefetches are still cached at the next.
constexpr size_t kPairGroup = 16;

}  // namespace

template <int kDirections>
Dist LabelIndex<kDirections>::CoreQuery(Vertex s, Vertex t,
                                        uint64_t* hubs_scanned) const {
  if (s == t) return 0;
  const LevelArrays a = ArraysAt(labels_[kOut], labels_[kIn],
                                 hierarchy_.LcaLevel(s, t), s, t);
  // Both operand arrays are cache-line aligned; hint their first lines while
  // the remaining scalar setup retires.
  simd::PrefetchArray(a.ds, a.len * sizeof(uint32_t));
  simd::PrefetchArray(a.dt, a.len * sizeof(uint32_t));
  if (hubs_scanned != nullptr) *hubs_scanned += a.len;
  const uint32_t best = simd::MinPlusPadded(a.ds, a.dt, a.len);
  return best >= kUnreachableLabel ? kInfDist : best;
}

template <int kDirections>
ResolvedVertex LabelIndex<kDirections>::Resolve(Vertex v,
                                                bool as_source) const {
  HC2L_CHECK_LT(v, num_vertices_);
  ResolvedVertex r{.code = 0, .core = v, .pos = 0, .detour = 0};
  if (contraction_ != nullptr) {
    r.core = contraction_->RootCoreId(v);
    r.detour = as_source ? contraction_->DistToRoot(v)
                         : contraction_->DistFromRoot(v);
  }
  r.code = hierarchy_.CodeOf(r.core);
  return r;
}

template <int kDirections>
Dist LabelIndex<kDirections>::Query(Vertex s, Vertex t) const {
  return QueryCountingHubs(s, t, nullptr);
}

template <int kDirections>
Dist LabelIndex<kDirections>::QueryCountingHubs(Vertex s, Vertex t,
                                                uint64_t* hubs_scanned) const {
  HC2L_CHECK_LT(s, num_vertices_);
  HC2L_CHECK_LT(t, num_vertices_);
  if (s == t) return 0;
  if (contraction_ == nullptr) return CoreQuery(s, t, hubs_scanned);

  const Vertex root_s = contraction_->RootCoreId(s);
  const Vertex root_t = contraction_->RootCoreId(t);
  if (root_s == root_t) return contraction_->SameTreeDistance(s, t);
  // Cross-tree: every s -> t path climbs s's chain to its root, crosses the
  // core, and descends t's chain — a one-way pendant broken in the needed
  // direction makes the whole answer unreachable (never on undirected
  // inputs). The sums propagate infinity rather than wrap past it.
  const Dist up = contraction_->DistToRoot(s);
  const Dist down = contraction_->DistFromRoot(t);
  if (up == kInfDist || down == kInfDist) return kInfDist;
  const Dist core = CoreQuery(root_s, root_t, hubs_scanned);
  return AddDist(AddDist(up, core), down);
}

template <int kDirections>
void LabelIndex<kDirections>::PointPairsInto(std::span<const Vertex> sources,
                                             std::span<const Vertex> targets,
                                             Dist* out) const {
  HC2L_CHECK_EQ(sources.size(), targets.size());
  const LabelStore& out_labels = labels_[kOut];
  const LabelStore& in_labels = labels_[kIn];
  // The core pairs of one group that still need the labels, by stage.
  uint32_t slot[kPairGroup] = {};  // the pair's position in the group
  Vertex cs[kPairGroup] = {};      // core source (contraction root)
  Vertex ct[kPairGroup] = {};      // core target
  Dist offset[kPairGroup] = {};    // both pendant detours
  uint32_t level[kPairGroup] = {};
  LevelArrays arrays[kPairGroup] = {};
  for (size_t first = 0; first < sources.size(); first += kPairGroup) {
    const size_t size = std::min(kPairGroup, sources.size() - first);
    Dist* group_out = out + first;
    // Stage 1: resolve every pair as Query does; answer those the labels
    // play no part in, and prefetch the others' tree codes and offset-table
    // bases.
    size_t pending = 0;
    for (size_t i = 0; i < size; ++i) {
      const Vertex s = sources[first + i];
      const Vertex t = targets[first + i];
      HC2L_CHECK_LT(s, num_vertices_);
      HC2L_CHECK_LT(t, num_vertices_);
      if (s == t) {
        group_out[i] = 0;
        continue;
      }
      Vertex core_s = s;
      Vertex core_t = t;
      Dist detours = 0;
      if (contraction_ != nullptr) {
        core_s = contraction_->RootCoreId(s);
        core_t = contraction_->RootCoreId(t);
        if (core_s == core_t) {
          group_out[i] = contraction_->SameTreeDistance(s, t);
          continue;
        }
        detours = AddDist(contraction_->DistToRoot(s),
                          contraction_->DistFromRoot(t));
        if (detours == kInfDist) {
          group_out[i] = kInfDist;
          continue;
        }
      }
      simd::PrefetchRead(&hierarchy_.CodeOf(core_s));
      simd::PrefetchRead(&hierarchy_.CodeOf(core_t));
      simd::PrefetchRead(out_labels.base.data() + core_s);
      simd::PrefetchRead(in_labels.base.data() + core_t);
      slot[pending] = static_cast<uint32_t>(i);
      cs[pending] = core_s;
      ct[pending] = core_t;
      offset[pending++] = detours;
    }
    // Stage 2: LCA levels; prefetch the offset-table entries they select.
    for (size_t k = 0; k < pending; ++k) {
      level[k] = hierarchy_.LcaLevel(cs[k], ct[k]);
      const LevelSlots slots =
          SlotsAt(out_labels, in_labels, level[k], cs[k], ct[k]);
      simd::PrefetchRead(out_labels.level_start.data() + slots.s_idx);
      simd::PrefetchRead(out_labels.level_len.data() + slots.s_idx);
      simd::PrefetchRead(in_labels.level_start.data() + slots.t_idx);
      simd::PrefetchRead(in_labels.level_len.data() + slots.t_idx);
    }
    // Stage 3: the operand arrays; prefetch their first lines.
    for (size_t k = 0; k < pending; ++k) {
      arrays[k] = ArraysAt(out_labels, in_labels, level[k], cs[k], ct[k]);
      simd::PrefetchArray(arrays[k].ds, arrays[k].len * sizeof(uint32_t));
      simd::PrefetchArray(arrays[k].dt, arrays[k].len * sizeof(uint32_t));
    }
    // Stage 4: the min-plus reductions, CoreQuery's arithmetic exactly.
    for (size_t k = 0; k < pending; ++k) {
      const uint32_t best =
          simd::MinPlusPadded(arrays[k].ds, arrays[k].dt, arrays[k].len);
      group_out[slot[k]] =
          best >= kUnreachableLabel ? kInfDist : offset[k] + best;
    }
  }
}

template <int kDirections>
void LabelIndex<kDirections>::BatchQueryInto(Vertex source,
                                             std::span<const Vertex> targets,
                                             Dist* out) const {
  if (targets.empty()) return;
  // The source's out-arrays min-reduce against the targets' in-arrays.
  ResolvedBatchQuery(
      labels_[kOut], labels_[kIn], height_, source,
      Resolve(source, /*as_source=*/true), targets,
      [&](Vertex t) { return Resolve(t, /*as_source=*/false); },
      [&](Vertex s, Vertex t) { return contraction_->SameTreeDistance(s, t); },
      out);
}

template <int kDirections>
bool LabelIndex<kDirections>::DistanceMatrixInto(
    std::span<const Vertex> sources, std::span<const Vertex> targets,
    const MatrixRows& rows, StopPoll stop) const {
  // Sources climb to their root and read out-labels; targets descend from
  // theirs and read in-labels.
  return BlockedDistanceMatrix(
      sources, targets, labels_[kOut], labels_[kIn],
      [&](Vertex v) { return Resolve(v, /*as_source=*/true); },
      [&](Vertex v) { return Resolve(v, /*as_source=*/false); },
      [&](Vertex s, Vertex t) { return contraction_->SameTreeDistance(s, t); },
      rows, stop);
}

// --- Route unpacking. CoreRoute walks the hint stores from both ends: the
// argmin hub of the pair's LCA level pins a shortest path through one cut
// vertex; out-hints advance the source end toward the hub, in-hints rewind
// the target end back from it. Every emitted hop is a real core edge in its
// travel direction (the annotations propagate first *real* hops through
// shortcuts), so the walk needs no graph and does O(path length) label
// scans.

template <int kDirections>
Status LabelIndex<kDirections>::CoreRoute(Vertex cs, Vertex ct,
                                          std::vector<Vertex>* out) const {
  out->clear();
  const size_t core_n = NumCoreVertices();
  std::vector<Vertex> back;  // suffix toward ct, collected in reverse
  Vertex s = cs;
  Vertex t = ct;
  out->push_back(s);
  size_t steps = 0;
  while (s != t) {
    // Each iteration advances one hop along a shortest (hence simple) path,
    // so exceeding the vertex count proves the hints are inconsistent.
    if (++steps > core_n + 1) {
      return Status::Internal(
          "route unpacking exceeded the path-length bound (inconsistent "
          "hint store)");
    }
    const LevelArrays a = ArraysAt(labels_[kOut], labels_[kIn],
                                   hierarchy_.LcaLevel(s, t), s, t);
    uint64_t best = UINT64_MAX;
    uint32_t best_i = UINT32_MAX;
    for (uint32_t i = 0; i < a.len; ++i) {
      if (a.ds[i] == kUnreachableLabel || a.dt[i] == kUnreachableLabel) {
        continue;
      }
      const uint64_t sum = uint64_t{a.ds[i]} + a.dt[i];
      if (sum < best) {
        best = sum;
        best_i = i;
      }
    }
    if (best_i == UINT32_MAX) {
      return Status::Internal(
          "route unpacking found no common hub for a reachable pair");
    }
    // Step the source end toward the hub; when s *is* the hub (weights are
    // positive), rewind the target end instead.
    const bool step_source = a.ds[best_i] > 0;
    const LabelStore& hints = hints_[step_source ? kOut : kIn];
    const uint32_t idx = step_source ? a.s_idx : a.t_idx;
    const Vertex hint = hints.arena.data()[hints.level_start[idx] + best_i];
    if (hint >= core_n) return Status::Internal("route hint out of range");
    if (step_source) {
      s = hint;
      out->push_back(s);
    } else {
      back.push_back(t);
      t = hint;
    }
  }
  out->insert(out->end(), back.rbegin(), back.rend());
  return Status::Ok();
}

template <int kDirections>
Status LabelIndex<kDirections>::ExpandRoute(
    Vertex s, Vertex t, Dist weight, const std::vector<Vertex>& core_path,
    RoutePath* out) const {
  out->vertices.clear();
  out->weight = weight;
  if (core_path.empty()) {
    return Status::Internal("empty core path for a reachable pair");
  }
  if (contraction_ == nullptr) {
    out->vertices = core_path;
    return Status::Ok();
  }
  // s's pendant chain up to (excluding) its root, the core path mapped to
  // original ids, then t's chain reversed back down from its root.
  const Contraction& c = *contraction_;
  for (Vertex v = s; c.Depth(v) > 0; v = c.Parent(v)) {
    out->vertices.push_back(v);
  }
  for (const Vertex cv : core_path) out->vertices.push_back(c.OriginalId(cv));
  std::vector<Vertex> tail;
  for (Vertex v = t; c.Depth(v) > 0; v = c.Parent(v)) tail.push_back(v);
  out->vertices.insert(out->vertices.end(), tail.rbegin(), tail.rend());
  return Status::Ok();
}

template <int kDirections>
Status LabelIndex<kDirections>::Route(Vertex s, Vertex t,
                                      RoutePath* out) const {
  HC2L_CHECK_LT(s, num_vertices_);
  HC2L_CHECK_LT(t, num_vertices_);
  out->vertices.clear();
  out->weight = kInfDist;
  if (s == t) {
    out->vertices.push_back(s);
    out->weight = 0;
    return Status::Ok();
  }
  if (!HasRouteHints()) {
    return Status::FailedPrecondition(
        "index carries no route hints (built with route_hints = false, or "
        "loaded from a file without hint sections); routes need a "
        "graph-backed fallback unpacker");
  }
  Vertex cs = s;
  Vertex ct = t;
  Dist up = 0;
  Dist down = 0;
  if (contraction_ != nullptr) {
    const Contraction& c = *contraction_;
    cs = c.RootCoreId(s);
    ct = c.RootCoreId(t);
    if (cs == ct) {
      // Same pendant tree: the only simple path climbs both sides to the
      // in-tree LCA; a one-way chain broken in the needed direction means
      // unreachable.
      const Dist w = c.SameTreeDistance(s, t);
      if (w == kInfDist) return Status::Ok();
      out->weight = w;
      std::vector<Vertex> down_path;
      Vertex a = s;
      Vertex b = t;
      while (c.Depth(a) > c.Depth(b)) {
        out->vertices.push_back(a);
        a = c.Parent(a);
      }
      while (c.Depth(b) > c.Depth(a)) {
        down_path.push_back(b);
        b = c.Parent(b);
      }
      while (a != b) {
        out->vertices.push_back(a);
        a = c.Parent(a);
        down_path.push_back(b);
        b = c.Parent(b);
      }
      out->vertices.push_back(a);
      out->vertices.insert(out->vertices.end(), down_path.rbegin(),
                           down_path.rend());
      return Status::Ok();
    }
    up = c.DistToRoot(s);
    down = c.DistFromRoot(t);
    if (up == kInfDist || down == kInfDist) return Status::Ok();
  }
  const Dist core_d = CoreQuery(cs, ct, nullptr);
  if (core_d == kInfDist) return Status::Ok();
  std::vector<Vertex> core_path;
  if (Status st = CoreRoute(cs, ct, &core_path); !st.ok()) return st;
  return ExpandRoute(s, t, AddDist(AddDist(up, core_d), down), core_path,
                     out);
}

template <int kDirections>
Status LabelIndex<kDirections>::Routes(Vertex s, Vertex t, size_t k,
                                       std::vector<RoutePath>* out) const {
  out->clear();
  if (k == 0) return Status::Ok();
  RoutePath first;
  if (Status st = Route(s, t, &first); !st.ok()) return st;
  if (first.vertices.empty()) return Status::Ok();  // unreachable pair
  out->push_back(std::move(first));
  if (out->size() >= k || s == t) return Status::Ok();

  Vertex cs = s;
  Vertex ct = t;
  Dist offset = 0;
  if (contraction_ != nullptr) {
    cs = contraction_->RootCoreId(s);
    ct = contraction_->RootCoreId(t);
    // One pendant tree admits exactly one simple path.
    if (cs == ct) return Status::Ok();
    offset = AddDist(contraction_->DistToRoot(s),
                     contraction_->DistFromRoot(t));
  }

  // Alternative candidates are the other separator hubs of the pair's LCA
  // level: routing via hub i costs ds[i] + dt[i] (>= the optimum), and the
  // cut of the LCA node lists the hubs in exactly the label entries' rank
  // order.
  const uint32_t level = hierarchy_.LcaLevel(cs, ct);
  const LevelArrays a = ArraysAt(labels_[kOut], labels_[kIn], level, cs, ct);
  int32_t node = static_cast<int32_t>(hierarchy_.NodeOf(cs));
  while (TreeCodeDepth(hierarchy_.Node(node).code) > level) {
    node = hierarchy_.Node(node).parent;
    if (node < 0) {
      return Status::Internal("LCA climb fell off the hierarchy root");
    }
  }
  const std::vector<Vertex>& cut = hierarchy_.Node(node).cut;
  const uint32_t len = std::min(a.len, static_cast<uint32_t>(cut.size()));
  std::vector<std::pair<uint64_t, uint32_t>> candidates;
  for (uint32_t i = 0; i < len; ++i) {
    if (a.ds[i] == kUnreachableLabel || a.dt[i] == kUnreachableLabel) {
      continue;
    }
    candidates.emplace_back(uint64_t{a.ds[i]} + a.dt[i], i);
  }
  std::sort(candidates.begin(), candidates.end());

  std::unordered_set<Vertex> used((*out)[0].vertices.begin(),
                                  (*out)[0].vertices.end());
  for (const auto& [sum, i] : candidates) {
    if (out->size() >= k) break;
    const Vertex hub = cut[i];
    const Vertex hub_orig =
        contraction_ != nullptr ? contraction_->OriginalId(hub) : hub;
    // Plateaux-style dedup: a via hub already on a selected route can only
    // reproduce a path through it.
    if (used.count(hub_orig) != 0) continue;
    std::vector<Vertex> core_path;
    std::vector<Vertex> second;
    if (Status st = CoreRoute(cs, hub, &core_path); !st.ok()) return st;
    if (Status st = CoreRoute(hub, ct, &second); !st.ok()) return st;
    core_path.insert(core_path.end(), second.begin() + 1, second.end());
    // The two legs may overlap; a non-simple detour is never a useful
    // alternative.
    std::unordered_set<Vertex> on_path;
    bool simple = true;
    for (const Vertex v : core_path) {
      if (!on_path.insert(v).second) {
        simple = false;
        break;
      }
    }
    if (!simple) continue;
    RoutePath alt;
    if (Status st = ExpandRoute(s, t, AddDist(offset, sum), core_path, &alt);
        !st.ok()) {
      return st;
    }
    bool dup = false;
    for (const RoutePath& r : *out) {
      if (r.vertices == alt.vertices) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    for (const Vertex v : alt.vertices) used.insert(v);
    out->push_back(std::move(alt));
  }
  return Status::Ok();
}

template <int kDirections>
size_t LabelIndex<kDirections>::NumEntries() const {
  uint64_t entries = 0;
  for (const LabelStore& store : labels_) {
    entries = std::accumulate(store.level_len.begin(), store.level_len.end(),
                              entries);
  }
  return static_cast<size_t>(entries);
}

template <int kDirections>
size_t LabelIndex<kDirections>::LabelLogicalBytes() const {
  size_t bytes = NumEntries() * sizeof(uint32_t);
  for (const LabelStore& store : labels_) bytes += store.MetadataBytes();
  return bytes;
}

template <int kDirections>
size_t LabelIndex<kDirections>::LabelSizeBytes() const {
  size_t bytes = 0;
  for (const LabelStore& store : labels_) bytes += store.ResidentBytes();
  return bytes;
}

template <int kDirections>
size_t LabelIndex<kDirections>::MappedBytes() const {
  size_t bytes = 0;
  for (int d = 0; d < kDirections; ++d) {
    if (!labels_[d].arena.owned()) bytes += labels_[d].arena.SizeBytes();
    if (!hints_[d].arena.owned()) bytes += hints_[d].arena.SizeBytes();
    // A mapped open views the offset tables too; a hint store shares its
    // label store's tables (the same mapped bytes), so they count once per
    // direction.
    if (!labels_[d].base.owned()) bytes += labels_[d].MetadataBytes();
  }
  return bytes;
}

template <int kDirections>
size_t LabelIndex<kDirections>::ArenaResidentBytes() const {
  size_t bytes = 0;
  for (int d = 0; d < kDirections; ++d) {
    bytes += labels_[d].arena.SizeBytes() + hints_[d].arena.SizeBytes() +
             labels_[d].MetadataBytes();
    // Heap loads hold separate (identical) hint offset tables; a mapped open
    // shares the label store's, which must then count once.
    if (hints_[d].base.owned()) bytes += hints_[d].MetadataBytes();
  }
  return bytes;
}

// On-disk format (src/core/index_format.h, docs/format.md): both flavours
// write the sectioned layout through the section codec
// (common/section_file.h), which lays the arenas out on 64-byte file
// offsets so OpenMode::kMmap can use them in place. A shard manifest
// (HC2S0002) is the same file with a member table instead of the arena
// sections; member file k holds member k's slice of every arena.

namespace {

/// Member slices start on these boundaries in the member files and in the
/// arenas alike, so an mmap open can map each one into place.
constexpr size_t kMemberPageBytes = 4096;
constexpr size_t kMemberPageEntries = kMemberPageBytes / sizeof(uint32_t);

/// A member file's first page: the manifest magic and a zero section count
/// (so no loader takes it for a manifest or an index), the build id, its
/// slot and the member count; zeros fill the rest of the page.
struct MemberHeader {
  uint64_t magic = kShardManifestMagic;
  uint64_t section_count = 0;
  uint64_t build_id = 0;
  uint64_t index = 0;
  uint64_t count = 0;
};

/// The manifest's member-table section.
struct MemberTable {
  uint64_t flavour = 0;   // HC2L0004 or HC2D0004: whose meta body it holds
  uint64_t build_id = 0;  // digest of the arenas, in every member header
  std::vector<MemberSlice> members;
  std::vector<std::string> names;  // relative to the manifest's directory
};

bool WriteMemberTable(std::FILE* f, const MemberTable& table) {
  bool ok = io::WriteValue(f, table.flavour) &&
            io::WriteValue(f, table.build_id) &&
            io::WriteValue(f, uint64_t{table.members.size()});
  for (size_t k = 0; ok && k < table.members.size(); ++k) {
    ok = io::WriteValue(f, uint64_t{table.names[k].size()}) &&
         io::WritePod(f, table.names[k].data(), table.names[k].size()) &&
         io::WriteValue(f, table.members[k]);
  }
  return ok;
}

/// Checks what needs no other section: 1..4096 members, safe names (a
/// forged manifest must not open paths outside its directory) and
/// page-multiple slices. The flavour is checked by the loader.
bool ReadMemberTable(io::Reader* r, MemberTable* table) {
  uint64_t count = 0;
  if (!io::ReadValue(r, &table->flavour) ||
      !io::ReadValue(r, &table->build_id) || !io::ReadValue(r, &count) ||
      count == 0 || count > 4096) {
    return false;
  }
  table->members.assign(count, {});
  table->names.assign(count, {});
  for (size_t k = 0; k < count; ++k) {
    std::string& name = table->names[k];
    const MemberSlice& m = table->members[k];
    uint64_t len = 0;
    if (!io::ReadValue(r, &len) || len == 0 || len > 4096 ||
        !r->CanHold(len, 1)) {
      return false;
    }
    name.resize(len);
    if (!r->Read(name.data(), len) || name.front() == '/' ||
        name.find("..") != std::string::npos ||
        !io::ReadValue(r, &table->members[k]) ||
        m.entries[0] % kMemberPageEntries != 0 ||
        m.entries[1] % kMemberPageEntries != 0) {
      return false;
    }
  }
  return true;
}

/// Fills `arenas` (member-file order; arena a holds `entries[a]`, which its
/// slices must add up to) from the member files next to `manifest_path`.
/// Each member file must be exactly its header page plus its slices and
/// carry the table's build id, its slot and the member count; all of them
/// are checked before any arena is allocated or mapped. A heap open then
/// reads the slices into owned arenas; an mmap open maps them into one
/// reserved range, which *reservation then owns. Errors: kNotFound (a
/// missing member), kDataLoss naming a bad member, else `corrupt`.
Status AttachMembers(const std::string& manifest_path, const MemberTable& table,
                     std::span<const uint64_t> entries,
                     std::span<LabelArena* const> arenas, bool use_mmap,
                     std::shared_ptr<MappedFile>* reservation,
                     const Status& corrupt) {
  // The slices must tile every arena, which the 32-bit offsets bound; each
  // arena's byte offset in the reserved range.
  std::vector<size_t> offset(arenas.size());
  size_t total = 0;
  for (size_t a = 0; a < arenas.size(); ++a) {
    uint64_t sum = 0;
    for (const MemberSlice& m : table.members) {
      const uint64_t slice = m.entries[a / 2];
      if (slice > entries[a] - sum) return corrupt;
      sum += slice;
    }
    if (sum != entries[a] || sum > UINT32_MAX) return corrupt;
    offset[a] = total;
    total += entries[a] * sizeof(uint32_t);
  }
  // Opens member k positioned at its first slice, or fails.
  const std::string dir =
      manifest_path.substr(0, manifest_path.find_last_of('/') + 1);
  const auto open_member = [&](size_t k, io::FilePtr* f) {
    const std::string path = dir + table.names[k];
    f->reset(std::fopen(path.c_str(), "rb"));
    if (*f == nullptr) return Status::NotFound("cannot open " + path);
    io::Reader r(f->get());
    uint64_t size = kMemberPageBytes;
    for (size_t a = 0; a < arenas.size(); ++a) {
      size += table.members[k].entries[a / 2] * sizeof(uint32_t);
    }
    MemberHeader header;
    if (r.remaining() != size || !io::ReadValue(&r, &header) ||
        header.magic != kShardManifestMagic || header.section_count != 0 ||
        header.build_id != table.build_id || header.index != k ||
        header.count != table.members.size() ||
        std::fseek(f->get(), kMemberPageBytes, SEEK_SET) != 0) {
      return Status::DataLoss(
          "truncated, corrupt or foreign shard member file: " + path);
    }
    return Status::Ok();
  };
  for (size_t k = 0; k < table.members.size(); ++k) {
    io::FilePtr f;
    if (Status st = open_member(k, &f); !st.ok()) return st;
  }

  // On a system whose pages exceed the slice alignment the slices are read.
  std::shared_ptr<MappedFile> range;
  if (use_mmap && total > 0 && kMemberPageBytes % MappedFile::PageSize() == 0) {
    range = MappedFile::Reserve(total);
    if (range == nullptr) return corrupt;
  } else {
    for (size_t a = 0; a < arenas.size(); ++a) arenas[a]->Reset(entries[a]);
  }
  std::vector<size_t> filled(arenas.size(), 0);  // bytes, per arena
  for (size_t k = 0; k < table.members.size(); ++k) {
    io::FilePtr f;
    if (Status st = open_member(k, &f); !st.ok()) return st;
    io::Reader body(f.get());  // the slices, back to back
    uint64_t at = kMemberPageBytes;  // the next slice's file offset
    for (size_t a = 0; a < arenas.size(); ++a) {
      const size_t bytes = table.members[k].entries[a / 2] * sizeof(uint32_t);
      char* heap = reinterpret_cast<char*>(arenas[a]->data());
      if (bytes != 0 &&
          !(range != nullptr ? range->MapInto(offset[a] + filled[a],
                                              ::fileno(f.get()), at, bytes)
                             : body.Read(heap + filled[a], bytes))) {
        return Status::DataLoss("cannot read shard member file " +
                                table.names[k]);
      }
      filled[a] += bytes;
      at += bytes;
    }
  }
  if (range != nullptr) {
    for (size_t a = 0; a < arenas.size(); ++a) {
      arenas[a]->ResetView(
          reinterpret_cast<const uint32_t*>(range->data() + offset[a]),
          entries[a]);
    }
    range->AdviseRandom(0, total);
    *reservation = std::move(range);
  }
  return Status::Ok();
}

}  // namespace

Result<uint64_t> ManifestFlavour(const std::string& path) {
  io::SectionFile file(path, "HC2L shard manifest");
  if (Status st = file.Open({kShardManifestMagic}, /*use_mmap=*/false);
      !st.ok()) {
    return st;
  }
  uint64_t flavour = 0;
  if (!file.ReadSection(io::kSectionMembers, [&](io::Reader* r) {
        return io::ReadValue(r, &flavour);
      })) {
    return file.Corrupt();
  }
  return flavour;
}

template <int kDirections>
void LabelIndex<kDirections>::LayOutMembers(std::span<const uint32_t> member_of,
                                            uint32_t num_members) {
  const size_t core = NumCoreVertices();
  HC2L_CHECK_EQ(member_of.size(), core);
  std::vector<std::vector<Vertex>> vertices(num_members);
  for (Vertex v = 0; v < core; ++v) {
    HC2L_CHECK_LT(member_of[v], num_members);
    vertices[member_of[v]].push_back(v);
  }
  members_.assign(num_members, {});
  HC2L_CHECK(HasRouteHints());  // a manifest's members carry hint slices
  for (int d = 0; d < kDirections; ++d) {
    const LabelStore& from = labels_[d];
    U32Array start;
    start.assign(from.level_start.size(), 0);
    size_t pos = 0;
    for (uint32_t k = 0; k < num_members; ++k) {
      const size_t first = pos;
      for (const Vertex v : vertices[k]) {
        for (uint32_t a = from.base[v]; a < from.base[v + 1]; ++a) {
          start.Set(a, static_cast<uint32_t>(pos));
          pos += LabelArena::PaddedCapacity(from.level_len[a]);
        }
      }
      pos = (pos + kMemberPageEntries - 1) & ~(kMemberPageEntries - 1);
      members_[k].entries[d] = pos - first;
      members_[k].core_vertices = vertices[k].size();
    }
    // The offsets stay 32-bit, as in LabelStore::BuildFrom.
    HC2L_CHECK_LE(pos, uint64_t{UINT32_MAX});
    for (LabelStore* store : {&labels_[d], &hints_[d]}) {
      LabelArena arena;
      arena.Reset(pos);
      for (size_t a = 0; a < start.size(); ++a) {
        std::copy_n(store->arena.data() + store->level_start[a],
                    store->level_len[a], arena.data() + start[a]);
      }
      store->arena = std::move(arena);
      store->level_start = start;
    }
  }
}

template <int kDirections>
Status LabelIndex<kDirections>::SaveSections(
    const std::string& path, uint64_t magic, bool manifest,
    const std::function<bool(std::FILE*)>& write_body) const {
  const bool hints = HasRouteHints();
  MemberTable table;
  if (manifest) {
    HC2L_CHECK(!members_.empty());
    table.flavour = magic;
    table.members = members_;
    // Every arena in member-file order. The build id is their FNV-1a
    // digest: a member file with other bytes than this build's slices
    // fails a load.
    std::vector<const LabelArena*> arenas;
    table.build_id = 1469598103934665603ull;
    for (int d = 0; d < kDirections; ++d) {
      for (const LabelStore* store : {&labels_[d], &hints_[d]}) {
        arenas.push_back(&store->arena);
        for (size_t i = 0; i < store->arena.size(); ++i) {
          table.build_id =
              (table.build_id ^ store->arena.data()[i]) * 1099511628211ull;
        }
      }
    }
    const std::string dir = path.substr(0, path.find_last_of('/') + 1);
    std::vector<size_t> first(arenas.size(), 0);
    for (size_t k = 0; k < members_.size(); ++k) {
      table.names.push_back(path.substr(dir.size()) + "." + std::to_string(k));
      const std::string member = dir + table.names.back();
      io::FilePtr f(std::fopen(member.c_str(), "wb"));
      if (f == nullptr) {
        return Status::Unavailable("cannot open " + member + " for writing");
      }
      MemberHeader header;
      header.build_id = table.build_id;
      header.index = k;
      header.count = members_.size();
      static constexpr char kZeros[kMemberPageBytes] = {};
      bool ok =
          io::WriteValue(f.get(), header) &&
          io::WritePod(f.get(), kZeros, kMemberPageBytes - sizeof(header));
      for (size_t a = 0; a < arenas.size(); ++a) {
        const size_t entries = members_[k].entries[a / 2];
        ok = ok && io::WritePod(f.get(), arenas[a]->data() + first[a],
                                entries * sizeof(uint32_t));
        first[a] += entries;
      }
      if (!ok || std::fflush(f.get()) != 0) {
        return Status::Unavailable("write error on " + member);
      }
    }
  }
  return io::WriteSectionFile(
      path, manifest ? kShardManifestMagic : magic,
      manifest ? 2 + kDirections : io::SectionCount(kDirections, hints),
      [&](io::SectionWriter& w) {
        std::FILE* out = w.file();
        bool ok = w.Begin(io::kSectionMeta) && write_body(out) &&
                  hierarchy_.WriteTo(out);
        for (const LabelStore& store : labels_) {
          ok = ok && io::WriteLabelStoreCounts(out, store);
        }
        ok = ok && w.End();
        for (int d = 0; d < kDirections; ++d) {
          // A manifest keeps only the offset tables; the member files hold
          // the arenas.
          ok = ok && (manifest
                          ? w.Begin(kDirectionSections[d].offsets) &&
                                io::WriteLabelStoreOffsets(out, labels_[d]) &&
                                w.End()
                          : w.WriteStore(kDirectionSections[d], labels_[d],
                                         hints ? &hints_[d] : nullptr));
        }
        return ok && (!manifest || (w.Begin(io::kSectionMembers) &&
                                    WriteMemberTable(out, table) && w.End()));
      });
}

template <int kDirections>
Status LabelIndex<kDirections>::LoadSections(
    const std::string& path, const std::string& name, uint64_t magic,
    bool use_mmap, const std::function<bool(io::Reader*)>& parse_body,
    const std::function<bool(size_t)>& check_body) {
  io::SectionFile file(path, name);
  if (Status st = file.Open({magic, kShardManifestMagic}, use_mmap);
      !st.ok()) {
    return st;
  }
  if (file.mapping() != nullptr) mappings_.push_back(file.mapping());
  const bool manifest = file.magic() == kShardManifestMagic;
  MemberTable table;
  if (manifest) {
    if (!file.ReadSection(io::kSectionMembers, [&](io::Reader* in) {
          return ReadMemberTable(in, &table);
        })) {
      return file.Corrupt();
    }
    if (table.flavour != magic) {
      return Status::InvalidArgument(path + " is a shard manifest of another "
                                     "index flavour than " + name);
    }
  }
  std::array<io::LabelStoreCounts, kDirections> counts;
  const auto parse_meta = [&](io::Reader* in) {
    bool ok = parse_body(in) && hierarchy_.ReadFrom(in);
    for (io::LabelStoreCounts& c : counts) {
      ok = ok && io::ReadLabelStoreCounts(in, &c);
    }
    return ok;
  };
  if (!file.ReadSection(io::kSectionMeta, parse_meta)) return file.Corrupt();
  for (int d = 0; d < kDirections; ++d) {
    const bool ok =
        manifest ? file.ReadTables(kDirectionSections[d], counts[d],
                                   &labels_[d], &hints_[d])
                 : file.ReadStore(kDirectionSections[d], counts[d],
                                  &labels_[d], &hints_[d]);
    // Hint arenas come for every direction or for none.
    if (!ok || hints_[d].base.empty() != hints_[0].base.empty()) {
      return file.Corrupt();
    }
  }
  if (manifest) {
    std::vector<uint64_t> entries;
    std::vector<LabelArena*> arenas;
    for (int d = 0; d < kDirections; ++d) {
      for (LabelStore* store : {&labels_[d], &hints_[d]}) {
        entries.push_back(counts[d].arena_entries);
        arenas.push_back(&store->arena);
      }
    }
    std::shared_ptr<MappedFile> range;
    if (Status st = AttachMembers(path, table, entries, arenas, use_mmap,
                                  &range, file.Corrupt());
        !st.ok()) {
      return st;
    }
    // As for an ordinary file, only hint arenas read into memory get their
    // entries range-checked.
    for (int d = 0; d < kDirections; ++d) {
      if (range == nullptr && !io::HintEntriesInRange(hints_[d])) {
        return file.Corrupt();
      }
    }
    if (range != nullptr) mappings_.push_back(std::move(range));
    members_ = std::move(table.members);
  }

  // Query-path hardening: the per-vertex code tables are indexed without
  // bounds checks, so they must cover exactly the loaded core, and each
  // vertex must own at least depth+1 arrays in every store so any LCA level
  // indexes inside its range (the stores' own structure was validated by
  // the section codec's ValidateLabelShape). Graph-level semantics
  // (weights, actual distances) remain trusted — index files are not
  // designed to be loaded from adversarial sources.
  if (labels_[0].base.empty()) return file.Corrupt();
  const size_t core = labels_[0].base.size() - 1;
  // The node links and the vertex-to-node map are followed without bounds
  // checks (route alternatives climb parents, the relabel walk descends
  // children), so the whole hierarchy must be well-formed.
  if (!hierarchy_.Validate(core)) return file.Corrupt();
  for (const LabelStore& store : labels_) {
    if (store.base.size() != core + 1) return file.Corrupt();
    for (size_t v = 0; v < core; ++v) {
      if (store.base[v + 1] - store.base[v] <
          TreeCodeDepth(hierarchy_.vertex_code_[v]) + 1) {
        return file.Corrupt();
      }
    }
  }
  if (!check_body(core)) return file.Corrupt();
  // The stored height is not trusted for the level bucketing's bucket
  // sizing; recompute it (equal for well-formed files).
  height_ = hierarchy_.LevelBound();
  return Status::Ok();
}

template class LabelIndex<1>;
template class LabelIndex<2>;

}  // namespace hc2l
