#include "shard/sharded_index.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/binary_io.h"
#include "common/check.h"
#include "core/index_format.h"

namespace hc2l {

namespace {

/// Per-thread working memory of the cross-shard batch path, so steady-state
/// BatchQueryInto calls do not allocate. Route/Routes use local vectors
/// instead (they nest batch calls, and route unpacking allocates anyway).
struct ShardScratch {
  std::vector<Dist> a;       // home-shard row: d_i(s, B_i[r])
  std::vector<Dist> p;       // d(s, boundary[b]) for every b
  std::vector<Dist> m;       // |B_j| x cnt join matrix of the current shard
  std::vector<Dist> direct;  // home-shard direct row
  std::vector<std::vector<Vertex>> local_targets;  // per shard
  std::vector<std::vector<uint32_t>> cols;         // per shard
};

ShardScratch& TlsShardScratch() {
  static thread_local ShardScratch scratch;
  return scratch;
}

bool WriteString(std::FILE* f, const std::string& s) {
  const uint64_t len = s.size();
  return io::WriteValue(f, len) && (len == 0 || io::WritePod(f, s.data(), len));
}

/// Path component cap: shard names are short manifest-relative filenames;
/// anything longer is a corrupt length field.
constexpr uint64_t kMaxShardPathLen = 4096;

bool ReadString(io::Reader* r, std::string* s) {
  uint64_t len = 0;
  if (!io::ReadValue(r, &len)) return false;
  if (len > kMaxShardPathLen || !r->CanHold(len, 1)) return false;
  s->resize(len);
  return len == 0 || r->Read(s->data(), len);
}

/// A stored shard path must stay inside the manifest's directory: relative,
/// no parent traversal. A forged manifest must not make Load dereference
/// arbitrary filesystem paths.
bool SafeShardPath(const std::string& p) {
  if (p.empty() || p.front() == '/') return false;
  return p.find("..") == std::string::npos;
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

/// Splices `tail` onto `out`, dropping tail's first vertex when it repeats
/// out's last (segment junctions share their boundary vertex).
void SplicePath(std::vector<Vertex>* out, const std::vector<Vertex>& tail) {
  size_t skip = 0;
  if (!out->empty() && !tail.empty() && out->back() == tail.front()) skip = 1;
  out->insert(out->end(), tail.begin() + skip, tail.end());
}

}  // namespace

// ------------------------------------------------------------- queries ---

Vertex ShardedIndex::LocalBoundary(size_t k, uint32_t b) const {
  const std::vector<uint32_t>& bidx = bset_bidx_[k];
  const auto it = std::lower_bound(bidx.begin(), bidx.end(), b);
  if (it == bidx.end() || *it != b) return kInvalidVertex;
  return bset_local_[k][static_cast<size_t>(it - bidx.begin())];
}

template <typename IndexT>
void ShardedIndex::SourceToBoundary(const std::vector<IndexT>& shards,
                                    Vertex s, Dist* row) const {
  const size_t nb = boundary_.size();
  std::fill(row, row + nb, kInfDist);
  const uint32_t i = shard_of_[s];
  const std::vector<Vertex>& bl = bset_local_[i];
  std::vector<Dist> a(bl.size());
  if (!bl.empty()) shards[i].BatchQueryInto(local_id_[s], bl, a.data());
  for (size_t r = 0; r < bl.size(); ++r) {
    if (a[r] == kInfDist) continue;
    const Dist* drow = dtable_.data() + size_t(bset_bidx_[i][r]) * nb;
    for (size_t b = 0; b < nb; ++b) {
      row[b] = std::min(row[b], AddDist(a[r], drow[b]));
    }
  }
}

template <typename IndexT>
void ShardedIndex::BoundaryToTarget(const std::vector<IndexT>& shards,
                                    Vertex t, Dist* row) const {
  const size_t nb = boundary_.size();
  std::fill(row, row + nb, kInfDist);
  const uint32_t j = shard_of_[t];
  const std::vector<Vertex>& bl = bset_local_[j];
  const Vertex lt = local_id_[t];
  for (size_t r = 0; r < bl.size(); ++r) {
    const Dist tail = shards[j].Query(bl[r], lt);
    if (tail == kInfDist) continue;
    const uint32_t bv = bset_bidx_[j][r];
    for (size_t b = 0; b < nb; ++b) {
      row[b] = std::min(row[b], AddDist(dtable_[b * nb + bv], tail));
    }
  }
}

template <typename IndexT>
void ShardedIndex::BatchImpl(const std::vector<IndexT>& shards, Vertex source,
                             std::span<const Vertex> targets,
                             Dist* out) const {
  if (targets.empty()) return;
  ShardScratch& sc = TlsShardScratch();
  const size_t nb = boundary_.size();
  const uint32_t i = shard_of_[source];
  const Vertex ls = local_id_[source];

  // Home-shard boundary row, folded once through D into d(s, boundary[b])
  // for every global boundary vertex.
  const std::vector<Vertex>& bl = bset_local_[i];
  sc.a.resize(bl.size());
  if (!bl.empty()) shards[i].BatchQueryInto(ls, bl, sc.a.data());
  sc.p.assign(nb, kInfDist);
  for (size_t r = 0; r < bl.size(); ++r) {
    if (sc.a[r] == kInfDist) continue;
    const Dist* drow = dtable_.data() + size_t(bset_bidx_[i][r]) * nb;
    for (size_t b = 0; b < nb; ++b) {
      sc.p[b] = std::min(sc.p[b], AddDist(sc.a[r], drow[b]));
    }
  }

  // Targets grouped by home shard; each shard answers its group against
  // all of its boundary vertices as one blocked matrix.
  const size_t num_shards = shards.size();
  if (sc.local_targets.size() < num_shards) {
    sc.local_targets.resize(num_shards);
    sc.cols.resize(num_shards);
  }
  for (size_t k = 0; k < num_shards; ++k) {
    sc.local_targets[k].clear();
    sc.cols[k].clear();
  }
  for (size_t c = 0; c < targets.size(); ++c) {
    const Vertex t = targets[c];
    sc.local_targets[shard_of_[t]].push_back(local_id_[t]);
    sc.cols[shard_of_[t]].push_back(static_cast<uint32_t>(c));
  }

  for (size_t j = 0; j < num_shards; ++j) {
    const size_t cnt = sc.cols[j].size();
    if (cnt == 0) continue;
    const std::vector<Vertex>& blj = bset_local_[j];
    sc.m.resize(blj.size() * cnt);
    shards[j].DistanceMatrixInto(
        blj, sc.local_targets[j],
        MatrixRows{.flat = sc.m.data(), .stride = cnt});
    const bool home = j == i;
    if (home) {
      sc.direct.resize(cnt);
      shards[i].BatchQueryInto(ls, sc.local_targets[j], sc.direct.data());
    }
    for (size_t c = 0; c < cnt; ++c) {
      Dist best = home ? sc.direct[c] : kInfDist;
      for (size_t r = 0; r < blj.size(); ++r) {
        best = std::min(
            best, AddDist(sc.p[bset_bidx_[j][r]], sc.m[r * cnt + c]));
      }
      out[sc.cols[j][c]] = best;
    }
  }
}

Dist ShardedIndex::Query(Vertex s, Vertex t) const {
  Dist d = kInfDist;
  BatchQueryInto(s, std::span<const Vertex>(&t, 1), &d);
  return d;
}

void ShardedIndex::PointPairsInto(std::span<const Vertex> sources,
                                  std::span<const Vertex> targets,
                                  Dist* out) const {
  HC2L_CHECK_EQ(sources.size(), targets.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    out[i] = Query(sources[i], targets[i]);
  }
}

void ShardedIndex::BatchQueryInto(Vertex source,
                                  std::span<const Vertex> targets,
                                  Dist* out) const {
  if (directed_) {
    BatchImpl(dir_shards_, source, targets, out);
  } else {
    BatchImpl(und_shards_, source, targets, out);
  }
}

bool ShardedIndex::DistanceMatrixInto(std::span<const Vertex> sources,
                                      std::span<const Vertex> targets,
                                      const MatrixRows& rows,
                                      StopPoll stop) const {
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t c0 = 0; c0 < targets.size(); c0 += kMatrixPollCells) {
      if (stop()) return false;
      const size_t c1 = std::min(targets.size(), c0 + kMatrixPollCells);
      BatchQueryInto(sources[i], targets.subspan(c0, c1 - c0),
                     rows.Row(i) + c0);
    }
  }
  return true;
}

// -------------------------------------------------------------- routes ---

template <typename IndexT>
Status ShardedIndex::ExpandBoundary(const std::vector<IndexT>& shards,
                                    uint32_t bu, uint32_t bv,
                                    std::vector<Vertex>* out) const {
  if (bu == bv) {
    out->push_back(boundary_[bu]);
    return Status::Ok();
  }
  const size_t nb = boundary_.size();
  const Dist d = dtable_[size_t(bu) * nb + bv];
  if (d == kInfDist) {
    return Status::Internal("boundary expansion asked for an unreachable pair");
  }
  // Case 1: some shard holds both endpoints as boundary members at exactly
  // the global distance — its own hint walk unpacks the segment. A shortest
  // path whose interior avoids all boundary vertices stays inside one such
  // shard, so when case 2 below finds no splitter this always succeeds.
  for (size_t k = 0; k < shards.size(); ++k) {
    const Vertex lu = LocalBoundary(k, bu);
    const Vertex lv = LocalBoundary(k, bv);
    if (lu == kInvalidVertex || lv == kInvalidVertex) continue;
    if (shards[k].Query(lu, lv) != d) continue;
    RoutePath p;
    if (Status st = shards[k].Route(lu, lv, &p); !st.ok()) return st;
    std::vector<Vertex> mapped;
    mapped.reserve(p.vertices.size());
    for (const Vertex v : p.vertices) mapped.push_back(to_global_[k][v]);
    SplicePath(out, mapped);
    return Status::Ok();
  }
  // Case 2: an intermediate boundary vertex splits the pair. Positive edge
  // weights make both halves strictly lighter, so the recursion terminates.
  for (uint32_t x = 0; x < nb; ++x) {
    if (x == bu || x == bv) continue;
    if (AddDist(dtable_[size_t(bu) * nb + x], dtable_[size_t(x) * nb + bv]) !=
        d) {
      continue;
    }
    if (Status st = ExpandBoundary(shards, bu, x, out); !st.ok()) return st;
    return ExpandBoundary(shards, x, bv, out);
  }
  return Status::Internal(
      "boundary expansion found no witness shard or splitter (corrupt "
      "distance table)");
}

template <typename IndexT>
Status ShardedIndex::RouteImpl(const std::vector<IndexT>& shards, Vertex s,
                               Vertex t, RoutePath* out) const {
  out->vertices.clear();
  out->weight = kInfDist;
  const size_t nb = boundary_.size();
  const uint32_t i = shard_of_[s];
  const uint32_t j = shard_of_[t];
  const Vertex ls = local_id_[s];
  const Vertex lt = local_id_[t];

  const std::vector<Vertex>& bli = bset_local_[i];
  const std::vector<Vertex>& blj = bset_local_[j];
  std::vector<Dist> a(bli.size());
  if (!bli.empty()) shards[i].BatchQueryInto(ls, bli, a.data());
  std::vector<Dist> tail(blj.size());
  for (size_t r = 0; r < blj.size(); ++r) {
    tail[r] = shards[j].Query(blj[r], lt);
  }

  // Deterministic argmin: the direct segment wins ties, then ascending
  // (r, r') order.
  Dist best = i == j ? shards[i].Query(ls, lt) : kInfDist;
  size_t best_r = bli.size();
  size_t best_rp = blj.size();
  for (size_t r = 0; r < bli.size(); ++r) {
    if (a[r] == kInfDist) continue;
    const Dist* drow = dtable_.data() + size_t(bset_bidx_[i][r]) * nb;
    for (size_t rp = 0; rp < blj.size(); ++rp) {
      const Dist cand = AddDist(a[r], AddDist(drow[bset_bidx_[j][rp]], tail[rp]));
      if (cand < best) {
        best = cand;
        best_r = r;
        best_rp = rp;
      }
    }
  }
  if (best == kInfDist) return Status::Ok();  // unreachable: empty path

  if (best_r == bli.size()) {
    // Same-shard direct.
    RoutePath p;
    if (Status st = shards[i].Route(ls, lt, &p); !st.ok()) return st;
    out->vertices.reserve(p.vertices.size());
    for (const Vertex v : p.vertices) out->vertices.push_back(to_global_[i][v]);
    out->weight = best;
    return Status::Ok();
  }

  RoutePath head;
  if (Status st = shards[i].Route(ls, bli[best_r], &head); !st.ok()) return st;
  for (const Vertex v : head.vertices) {
    out->vertices.push_back(to_global_[i][v]);
  }
  std::vector<Vertex> mid;
  if (Status st = ExpandBoundary(shards, bset_bidx_[i][best_r],
                                 bset_bidx_[j][best_rp], &mid);
      !st.ok()) {
    return st;
  }
  SplicePath(&out->vertices, mid);
  RoutePath rest;
  if (Status st = shards[j].Route(blj[best_rp], lt, &rest); !st.ok()) return st;
  std::vector<Vertex> mapped;
  mapped.reserve(rest.vertices.size());
  for (const Vertex v : rest.vertices) mapped.push_back(to_global_[j][v]);
  SplicePath(&out->vertices, mapped);
  out->weight = best;
  return Status::Ok();
}

template <typename IndexT>
Status ShardedIndex::RoutesImpl(const std::vector<IndexT>& shards, Vertex s,
                                Vertex t, size_t k,
                                std::vector<RoutePath>* out) const {
  out->clear();
  if (k == 0) return Status::Ok();
  RoutePath shortest;
  if (Status st = RouteImpl(shards, s, t, &shortest); !st.ok()) return st;
  if (shortest.vertices.empty()) return Status::Ok();  // unreachable
  std::vector<RoutePath> candidates;
  candidates.push_back(std::move(shortest));
  if (k > 1) {
    const size_t nb = boundary_.size();
    // d(s, x) and d(x, t) for every boundary vertex x; an alternative is the
    // shortest path forced through x. Sorted ascending so route construction
    // stops after k distinct paths.
    std::vector<Dist> to_b(nb);
    std::vector<Dist> from_b(nb);
    SourceToBoundary(shards, s, to_b.data());
    BoundaryToTarget(shards, t, from_b.data());
    std::vector<std::pair<Dist, uint32_t>> via;
    via.reserve(nb);
    for (uint32_t x = 0; x < nb; ++x) {
      const Dist w = AddDist(to_b[x], from_b[x]);
      if (w != kInfDist) via.emplace_back(w, x);
    }
    std::sort(via.begin(), via.end());
    // The home shard's own alternatives when s and t share a shard (paths
    // that never touch a boundary vertex).
    if (shard_of_[s] == shard_of_[t]) {
      const uint32_t i = shard_of_[s];
      std::vector<RoutePath> local;
      if (Status st =
              shards[i].Routes(local_id_[s], local_id_[t], k, &local);
          !st.ok()) {
        return st;
      }
      for (RoutePath& p : local) {
        for (Vertex& v : p.vertices) v = to_global_[i][v];
        candidates.push_back(std::move(p));
      }
    }
    const auto known = [&](const std::vector<Vertex>& vs) {
      for (const RoutePath& p : candidates) {
        if (p.vertices == vs) return true;
      }
      return false;
    };
    for (const auto& [w, x] : via) {
      if (candidates.size() >= 2 * k) break;  // enough raw material
      RoutePath head;
      RoutePath rest;
      if (Status st = RouteImpl(shards, s, boundary_[x], &head); !st.ok()) {
        return st;
      }
      if (Status st = RouteImpl(shards, boundary_[x], t, &rest); !st.ok()) {
        return st;
      }
      if (head.vertices.empty() || rest.vertices.empty()) continue;
      SplicePath(&head.vertices, rest.vertices);
      head.weight = w;
      if (!known(head.vertices)) candidates.push_back(std::move(head));
    }
  }
  // Ascending by weight; the stable sort keeps the true shortest path first
  // among equals (it was inserted first).
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const RoutePath& a, const RoutePath& b) {
                     return a.weight < b.weight;
                   });
  for (RoutePath& p : candidates) {
    bool dup = false;
    for (const RoutePath& q : *out) {
      if (q.vertices == p.vertices) {
        dup = true;
        break;
      }
    }
    if (!dup) out->push_back(std::move(p));
    if (out->size() == k) break;
  }
  return Status::Ok();
}

Status ShardedIndex::Route(Vertex s, Vertex t, RoutePath* out) const {
  return directed_ ? RouteImpl(dir_shards_, s, t, out)
                   : RouteImpl(und_shards_, s, t, out);
}

Status ShardedIndex::Routes(Vertex s, Vertex t, size_t k,
                            std::vector<RoutePath>* out) const {
  return directed_ ? RoutesImpl(dir_shards_, s, t, k, out)
                   : RoutesImpl(und_shards_, s, t, k, out);
}

size_t ShardedIndex::MappedBytes() const {
  size_t bytes = 0;
  for (const Hc2lIndex& s : und_shards_) bytes += s.MappedBytes();
  for (const DirectedHc2lIndex& s : dir_shards_) bytes += s.MappedBytes();
  return bytes;
}

size_t ShardedIndex::ArenaResidentBytes() const {
  size_t bytes = 0;
  for (const Hc2lIndex& s : und_shards_) bytes += s.ArenaResidentBytes();
  for (const DirectedHc2lIndex& s : dir_shards_) {
    bytes += s.ArenaResidentBytes();
  }
  return bytes;
}

// ------------------------------------------------------------ manifest ---

Status ShardedIndex::Save(const std::string& manifest_path) const {
  const std::string dir = DirOf(manifest_path);
  const std::string base = manifest_path.substr(dir.size());
  const size_t num_shards = NumShards();
  std::vector<std::string> names(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    names[k] = base + "." + std::to_string(k);
    const std::string shard_path = dir + names[k];
    Status st = directed_ ? dir_shards_[k].Save(shard_path)
                          : und_shards_[k].Save(shard_path);
    if (!st.ok()) return st;
  }
  io::FilePtr f(std::fopen(manifest_path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::Internal("cannot open " + manifest_path + " for writing");
  }
  bool ok = io::WriteValue(f.get(), kShardManifestMagic);
  const uint8_t directed_marker = directed_ ? 1 : 0;
  ok = ok && io::WriteValue(f.get(), directed_marker) &&
       io::WriteValue(f.get(), num_vertices_) &&
       io::WriteValue(f.get(), static_cast<uint64_t>(num_shards));
  for (size_t k = 0; ok && k < num_shards; ++k) {
    ok = WriteString(f.get(), names[k]);
  }
  ok = ok && io::WriteVector(f.get(), shard_of_) &&
       io::WriteVector(f.get(), local_id_) &&
       io::WriteVector(f.get(), boundary_);
  for (size_t k = 0; ok && k < num_shards; ++k) {
    ok = io::WriteVector(f.get(), bset_bidx_[k]) &&
         io::WriteVector(f.get(), bset_local_[k]) &&
         io::WriteVector(f.get(), to_global_[k]);
  }
  ok = ok && io::WriteVector(f.get(), dtable_);
  if (!ok || std::fflush(f.get()) != 0) {
    return Status::Internal("write failed for " + manifest_path);
  }
  return Status::Ok();
}

Result<ShardedIndex> ShardedIndex::Load(const std::string& manifest_path,
                                        bool use_mmap) {
  io::FilePtr f(std::fopen(manifest_path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open " + manifest_path);
  }
  io::Reader reader(f.get());
  io::Reader* r = &reader;
  uint64_t magic = 0;
  if (!io::ReadValue(r, &magic) || magic != kShardManifestMagic) {
    return Status::InvalidArgument(manifest_path +
                                   " is not an HC2L shard manifest");
  }
  const Status corrupt =
      Status::DataLoss("truncated or corrupt shard manifest: " + manifest_path);
  ShardedIndex index;
  uint8_t directed_marker = 0;
  uint64_t num_shards = 0;
  if (!io::ReadValue(r, &directed_marker) || directed_marker > 1 ||
      !io::ReadValue(r, &index.num_vertices_) || index.num_vertices_ == 0 ||
      !io::ReadValue(r, &num_shards) || num_shards == 0 ||
      num_shards > 4096 || num_shards > index.num_vertices_) {
    return corrupt;
  }
  index.directed_ = directed_marker != 0;
  std::vector<std::string> names(num_shards);
  for (std::string& name : names) {
    if (!ReadString(r, &name) || !SafeShardPath(name)) return corrupt;
  }
  if (!io::ReadVector(r, &index.shard_of_) ||
      !io::ReadVector(r, &index.local_id_) ||
      !io::ReadVector(r, &index.boundary_)) {
    return corrupt;
  }
  index.bset_bidx_.resize(num_shards);
  index.bset_local_.resize(num_shards);
  index.to_global_.resize(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    if (!io::ReadVector(r, &index.bset_bidx_[k]) ||
        !io::ReadVector(r, &index.bset_local_[k]) ||
        !io::ReadVector(r, &index.to_global_[k])) {
      return corrupt;
    }
  }
  if (!io::ReadVector(r, &index.dtable_)) return corrupt;

  // Member shards load through their own validated loaders (shard errors
  // propagate with the member path in the message).
  const std::string dir = DirOf(manifest_path);
  std::vector<size_t> shard_vertices(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    const std::string shard_path = dir + names[k];
    if (index.directed_) {
      Result<DirectedHc2lIndex> shard =
          DirectedHc2lIndex::Load(shard_path, use_mmap);
      if (!shard.ok()) return shard.status();
      if (!shard->HasRouteHints()) return corrupt;
      shard_vertices[k] = shard->NumVertices();
      index.dir_shards_.push_back(std::move(shard).value());
    } else {
      Result<Hc2lIndex> shard = Hc2lIndex::Load(shard_path, use_mmap);
      if (!shard.ok()) return shard.status();
      if (!shard->HasRouteHints()) return corrupt;
      shard_vertices[k] = shard->NumVertices();
      index.und_shards_.push_back(std::move(shard).value());
    }
  }

  // Cross-validate the partition tables against the loaded shards: every
  // array the query paths index by unchecked is checked here, so a corrupt
  // or mismatched manifest fails the load instead of a query.
  const uint64_t n = index.num_vertices_;
  const size_t nb = index.boundary_.size();
  bool ok = index.shard_of_.size() == n && index.local_id_.size() == n &&
            nb <= n;
  // An nb x nb Dist table; nb <= n <= 2^32 keeps the product in range, but
  // stay overflow-safe anyway.
  ok = ok && (nb == 0 || index.dtable_.size() / nb == nb) &&
       index.dtable_.size() == nb * nb;
  for (uint64_t v = 0; ok && v < n; ++v) {
    const uint32_t home = index.shard_of_[v];
    ok = home < num_shards && index.local_id_[v] < shard_vertices[home] &&
         index.to_global_[home][index.local_id_[v]] == v;
  }
  for (size_t b = 0; ok && b < nb; ++b) {
    ok = index.boundary_[b] < n &&
         (b == 0 || index.boundary_[b - 1] < index.boundary_[b]) &&
         index.dtable_[b * nb + b] == 0;
  }
  for (size_t k = 0; ok && k < num_shards; ++k) {
    ok = index.to_global_[k].size() == shard_vertices[k] &&
         index.bset_bidx_[k].size() == index.bset_local_[k].size();
    for (size_t l = 0; ok && l < index.to_global_[k].size(); ++l) {
      ok = index.to_global_[k][l] < n;
    }
    for (size_t rr = 0; ok && rr < index.bset_bidx_[k].size(); ++rr) {
      const uint32_t b = index.bset_bidx_[k][rr];
      const Vertex l = index.bset_local_[k][rr];
      ok = b < nb && (rr == 0 || index.bset_bidx_[k][rr - 1] < b) &&
           l < shard_vertices[k] && index.to_global_[k][l] == index.boundary_[b];
    }
  }
  // The join paths assume every boundary vertex is a boundary member of its
  // own home shard (the u == b / v == b terms of the exactness argument).
  for (size_t b = 0; ok && b < nb; ++b) {
    const Vertex v = index.boundary_[b];
    ok = index.LocalBoundary(index.shard_of_[v], static_cast<uint32_t>(b)) ==
         index.local_id_[v];
  }
  if (!ok) return corrupt;
  return index;
}

}  // namespace hc2l
