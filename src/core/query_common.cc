#include "core/query_common.h"

#include <algorithm>

namespace hc2l {

namespace {

constexpr uint32_t kUnreachableLabel = UINT32_MAX;

/// Blocks with fewer sources or targets than these reduce pair by pair: a
/// panel only pays for its transposition when several sources reuse it, and
/// a handful of columns leaves most of a 32-lane strip idle.
constexpr size_t kPanelMinSources = 4;
constexpr size_t kPanelMinTargets = 8;

/// Panel size caps: at most 2048 columns and 64k entries (256 KB, inside a
/// typical L2), so per-thread scratch stays bounded whatever the matrix
/// shape or cut size.
constexpr size_t kPanelMaxColumns = 2048;
constexpr size_t kPanelMaxEntries = size_t{1} << 16;

LevelArray ArrayAt(const LabelStore& labels, Vertex core, uint32_t level) {
  const uint32_t idx = labels.base[core] + level;
  return {labels.arena.data() + labels.level_start[idx],
          labels.level_len[idx]};
}

/// Resolves the level-`level` array of every vertex of `side` into *out
/// (parallel to `side`) and returns its data, prefetching each array's
/// first line. The loads of different vertices are independent, so their
/// misses overlap; software prefetches of the offset tables ahead of this
/// loop measured slower on a 256x256 matrix.
const LevelArray* ResolveArrays(const LabelStore& labels,
                                std::span<const ResolvedVertex> side,
                                uint32_t level, std::vector<LevelArray>* out) {
  out->resize(side.size());
  for (size_t i = 0; i < side.size(); ++i) {
    (*out)[i] = ArrayAt(labels, side[i].core, level);
    simd::PrefetchRead((*out)[i].data);
  }
  return out->data();
}

/// Arrays a reduction loop prefetches ahead of the one it reduces.
constexpr size_t kArrayAhead = 3;

void PrefetchLevelArray(const LevelArray& array) {
  simd::PrefetchArray(array.data, array.len * sizeof(uint32_t));
}

/// One side of a subtree split at its root node of depth `level`.
struct SideSplit {
  std::span<ResolvedVertex> here;  // at the node itself
  std::span<ResolvedVertex> zero;  // in its 0-subtree
  std::span<ResolvedVertex> one;   // in its 1-subtree
};

/// Reorders `side` (vertices of one subtree) in place into here / 0 / 1:
/// only the node itself has the subtree's smallest depth, and below it the
/// path bit at `level` picks the child.
SideSplit Split(std::span<ResolvedVertex> side, uint32_t level) {
  const auto here_end =
      std::partition(side.begin(), side.end(), [&](const ResolvedVertex& e) {
        return TreeCodeDepth(e.code) == level;
      });
  const auto zero_end =
      std::partition(here_end, side.end(), [&](const ResolvedVertex& e) {
        return ((e.code >> (63 - level)) & 1) == 0;
      });
  return {{side.begin(), here_end},
          {here_end, zero_end},
          {zero_end, side.end()}};
}

/// A label min-plus result plus both detours, with the batch path's
/// unreachable rules.
Dist Cell(Dist source_detour, Dist target_detour, uint32_t best) {
  return best >= kUnreachableLabel
             ? kInfDist
             : AddDist(AddDist(source_detour, target_detour), best);
}

class BlockedMatrix {
 public:
  BlockedMatrix(const LabelStore& source_labels,
                const LabelStore& target_labels,
                std::span<ResolvedVertex> sources,
                std::span<ResolvedVertex> targets, const MatrixRows& rows,
                MatrixPoller* poller, QueryScratch* scratch)
      : source_labels_(source_labels),
        target_labels_(target_labels),
        sources_(sources),
        targets_(targets),
        rows_(rows),
        poller_(poller),
        scratch_(scratch) {}

  bool Run() {
    scratch_->matrix_groups.clear();
    return Node(kRootCode, sources_, targets_);
  }

 private:
  /// Answers every pair of s x t whose LCA lies in the subtree of the
  /// hierarchy node `code`; both spans hold only vertices of that subtree,
  /// in any order, and are reordered in place.
  bool Node(TreeCode code, std::span<ResolvedVertex> s,
            std::span<ResolvedVertex> t) {
    if (s.empty() || t.empty()) return true;
    if (s.size() == 1) return Row(s[0], t);
    const uint32_t level = TreeCodeDepth(code);
    const SideSplit ss = Split(s, level);
    const SideSplit ts = Split(t, level);
    if (!Block(level, ss.here, t) || !Block(level, ss.zero, ts.here) ||
        !Block(level, ss.zero, ts.one) ||
        !Block(level, ss.one, t.first(t.size() - ts.one.size()))) {
      return false;
    }
    RecordGroup(ss.here, ts.here);
    return Node(TreeCodeChild(code, 0), ss.zero, ts.zero) &&
           Node(TreeCodeChild(code, 1), ss.one, ts.one);
  }

  /// The recursion's base case, one source left: each target's LCA level
  /// with it comes straight from the two codes, so the targets are swept
  /// level by level as one batch (SweepPendingByLevel) instead of being
  /// split further. Chunks of kMatrixPollCells targets between polls.
  bool Row(const ResolvedVertex& src, std::span<ResolvedVertex> t) {
    Dist* row = rows_.Row(src.pos);
    const uint32_t s_base = source_labels_.base[src.core];
    std::vector<PendingTarget>& pending = scratch_->pending;
    std::vector<uint32_t>& level_of = scratch_->level_of;
    if (pending.size() < std::min(t.size(), kMatrixPollCells)) {
      pending.resize(std::min(t.size(), kMatrixPollCells));
      level_of.resize(pending.size());
    }
    size_t at_node = 0;  // targets at the source's own node
    for (size_t c0 = 0; c0 < t.size(); c0 += kMatrixPollCells) {
      const size_t c1 = std::min(t.size(), c0 + kMatrixPollCells);
      if (!poller_->Tick(c1 - c0)) return false;
      size_t count = 0;
      uint32_t height = 0;
      for (size_t c = c0; c < c1; ++c) {
        at_node += t[c].code == src.code;
        const Dist offset = AddDist(src.detour, t[c].detour);
        if (offset == kInfDist) {
          row[t[c].pos] = kInfDist;
          continue;
        }
        const uint32_t level = TreeCodeLcaLevel(src.code, t[c].code);
        height = std::max(height, level);
        pending[count] = {t[c].pos, t[c].core, offset};
        level_of[count++] = level;
      }
      SweepPendingByLevel(source_labels_, target_labels_, s_base, height,
                          count, scratch_, row);
    }
    if (at_node > 0) {
      const auto here_end =
          std::partition(t.begin(), t.end(), [&](const ResolvedVertex& e) {
            return e.code == src.code;
          });
      RecordGroup({&src, 1}, {t.begin(), here_end});
    }
    return true;
  }

  /// Records a node's own vertices of both sides for the same-root fix-up:
  /// two vertices with one contraction root sit at one node. Deeper splits
  /// reorder only the 0 / 1 groups, so the ranges stay valid.
  void RecordGroup(std::span<const ResolvedVertex> s_here,
                   std::span<const ResolvedVertex> t_here) {
    if (s_here.empty() || t_here.empty()) return;
    scratch_->matrix_groups.push_back(
        {static_cast<uint32_t>(s_here.data() - sources_.data()),
         static_cast<uint32_t>(s_here.size()),
         static_cast<uint32_t>(t_here.data() - targets_.data()),
         static_cast<uint32_t>(t_here.size())});
  }

  /// Answers s x t, every pair of which has its LCA at `level`. Both
  /// sides' level arrays are resolved once, up front, so their independent
  /// misses overlap and no cell re-reads the offset tables.
  bool Block(uint32_t level, std::span<const ResolvedVertex> s,
             std::span<const ResolvedVertex> t) {
    if (s.empty() || t.empty()) return true;
    const LevelArray* a =
        ResolveArrays(source_labels_, s, level, &scratch_->source_arrays);
    const LevelArray* b =
        ResolveArrays(target_labels_, t, level, &scratch_->target_arrays);
    if (s.size() < kPanelMinSources || t.size() < kPanelMinTargets) {
      return PairBlock(s, a, t, b);
    }
    uint32_t height = 0;
    for (size_t c = 0; c < t.size(); ++c) height = std::max(height, b[c].len);
    size_t width = kPanelMaxEntries / std::max<uint32_t>(height, 1);
    width = std::clamp<size_t>(width / simd::kPanelLanes * simd::kPanelLanes,
                               simd::kPanelLanes, kPanelMaxColumns);
    for (size_t c0 = 0; c0 < t.size(); c0 += width) {
      const size_t w = std::min(width, t.size() - c0);
      if (!PanelBlock(s, a, t.subspan(c0, w), b + c0)) return false;
    }
    return true;
  }

  /// s x t pair by pair, `a` / `b` the sides' resolved arrays.
  bool PairBlock(std::span<const ResolvedVertex> s, const LevelArray* a,
                 std::span<const ResolvedVertex> t, const LevelArray* b) {
    for (size_t i = 0; i < s.size(); ++i) {
      if (i + 1 < s.size()) PrefetchLevelArray(a[i + 1]);
      const ResolvedVertex& src = s[i];
      Dist* row = rows_.Row(src.pos);
      for (size_t c0 = 0; c0 < t.size(); c0 += kMatrixPollCells) {
        const size_t c1 = std::min(t.size(), c0 + kMatrixPollCells);
        if (!poller_->Tick(c1 - c0)) return false;
        for (size_t c = c0; c < c1; ++c) {
          if (c + kArrayAhead < t.size()) {
            PrefetchLevelArray(b[c + kArrayAhead]);
          }
          row[t[c].pos] =
              Cell(src.detour, t[c].detour,
                   simd::MinPlusPadded(a[i].data, b[c].data,
                                       std::min(a[i].len, b[c].len)));
        }
      }
    }
    return true;
  }

  /// One panel of at most kPanelMaxColumns targets against every source,
  /// two sources per kernel pass.
  bool PanelBlock(std::span<const ResolvedVertex> s, const LevelArray* a,
                  std::span<const ResolvedVertex> t, const LevelArray* b) {
    constexpr size_t kLanes = simd::kPanelLanes;
    const size_t width = t.size();
    uint32_t height = 0;
    for (size_t c = 0; c < width; ++c) height = std::max(height, b[c].len);
    // Transpose: column c holds target c's array, padded with the sentinel
    // from its own length down to the panel's height.
    std::vector<uint32_t>& panel = scratch_->panel;
    std::vector<uint32_t>& pos = scratch_->panel_pos;
    std::vector<Dist>& detour = scratch_->panel_detour;
    panel.resize((width + kLanes - 1) / kLanes * kLanes * height);
    pos.resize(width);
    detour.resize(width);
    for (size_t c = 0; c < width; ++c) {
      if (c + kArrayAhead < width) PrefetchLevelArray(b[c + kArrayAhead]);
      uint32_t* column = panel.data() + (c / kLanes) * height * kLanes +
                         c % kLanes;
      for (uint32_t h = 0; h < b[c].len; ++h) {
        column[h * kLanes] = b[c].data[h];
      }
      for (uint32_t h = b[c].len; h < height; ++h) {
        column[h * kLanes] = kUnreachableLabel;
      }
      pos[c] = t[c].pos;
      detour[c] = t[c].detour;
    }
    std::vector<uint32_t>& best = scratch_->panel_out;
    best.resize(2 * width);
    uint32_t* const best0 = best.data();
    uint32_t* const best1 = best0 + width;
    const auto rows_of = [&](size_t i) -> size_t {
      return std::min(a[i].len, height);
    };
    size_t i = 0;
    for (; i + 2 <= s.size(); i += 2) {
      if (!poller_->Tick(width) || !poller_->Tick(width)) return false;
      if (i + 2 < s.size()) PrefetchLevelArray(a[i + 2]);
      if (i + 3 < s.size()) PrefetchLevelArray(a[i + 3]);
      simd::MinPlusPanel<2>({{a[i].data, rows_of(i), best0},
                             {a[i + 1].data, rows_of(i + 1), best1}},
                            panel.data(), height, width);
      WriteRow(s[i], best0, width);
      WriteRow(s[i + 1], best1, width);
    }
    if (i < s.size()) {
      if (!poller_->Tick(width)) return false;
      simd::MinPlusPanel(a[i].data, rows_of(i), panel.data(), height, width,
                         best0);
      WriteRow(s[i], best0, width);
    }
    return true;
  }

  /// Scatters one source's kernel output over the panel's columns.
  void WriteRow(const ResolvedVertex& src, const uint32_t* best,
                size_t width) {
    const std::vector<uint32_t>& pos = scratch_->panel_pos;
    const std::vector<Dist>& detour = scratch_->panel_detour;
    Dist* row = rows_.Row(src.pos);
    // Cell() written out over compact per-column copies: faster on a
    // 256x256 matrix than Cell() on the entries in place (10/10
    // alternating runs).
    if (src.detour == kInfDist) {
      for (size_t c = 0; c < width; ++c) row[pos[c]] = kInfDist;
      return;
    }
    for (size_t c = 0; c < width; ++c) {
      row[pos[c]] = best[c] >= kUnreachableLabel || detour[c] == kInfDist
                        ? kInfDist
                        : src.detour + detour[c] + best[c];
    }
  }

  const LabelStore& source_labels_;
  const LabelStore& target_labels_;
  std::span<ResolvedVertex> sources_;
  std::span<ResolvedVertex> targets_;
  const MatrixRows& rows_;
  MatrixPoller* poller_;
  QueryScratch* scratch_;
};

}  // namespace

bool BlockedMinPlus(const LabelStore& source_labels,
                    const LabelStore& target_labels,
                    std::span<ResolvedVertex> sources,
                    std::span<ResolvedVertex> targets,
                    const MatrixRows& rows, MatrixPoller* poller,
                    QueryScratch* scratch) {
  return BlockedMatrix(source_labels, target_labels, sources, targets, rows,
                       poller, scratch)
      .Run();
}

}  // namespace hc2l
