#ifndef HC2L_CORE_INDEX_FORMAT_H_
#define HC2L_CORE_INDEX_FORMAT_H_

#include <cstdint>

namespace hc2l {

/// On-disk format magics, the first 8 bytes of every serialized index.
/// Router::Open sniffs these to pick the right loader; each index's Load
/// rejects the other's files with kInvalidArgument. Each constant packs the
/// ASCII bytes of its name big-endian ('H' = 0x48 in the most-significant
/// byte), so a file written on a little-endian machine begins with the
/// name reversed ("4000L2CH").

/// Undirected index ("HC2L0004"): the sectioned, mmap-able layout of
/// common/section_file.h. A meta section (stats, optional degree-one
/// contraction, hierarchy, label-store counts), the label store's offset
/// tables, its label arena, and — when the index carries route hints — its
/// hint arena. Every arena payload starts on a 64-byte file offset, so
/// `Open(path, OpenMode::kMmap)` points the arenas straight into the
/// mapping: no copy, no O(n) validation scan. docs/format.md has the
/// byte-level specification.
inline constexpr uint64_t kHc2lIndexMagic = 0x4843324c30303034ULL;

/// Directed index ("HC2D0004"): the same layout with a directed meta body
/// (a uint8 contraction marker, the vertex count, height and optional
/// contraction mapping, the hierarchy, out- and in-store counts) and one
/// offsets section, label arena and optional hint arena per direction.
/// Either both directions carry hint arenas or neither does.
inline constexpr uint64_t kDirectedIndexMagic = 0x4843324430303034ULL;

/// Shard manifest ("HC2S0002"): one ordinary index of either flavour whose
/// arenas are stored split by hierarchy subtree. A sectioned file with the
/// flavour's meta and offsets sections and a member table naming one
/// member file per subtree; each member file holds its slice of every
/// label and hint arena, page-aligned and sentinel-padded
/// (docs/format.md). Router::Open sniffs it like the index magics and
/// returns the ordinary index, its arenas read from or mapped out of the
/// member files.
inline constexpr uint64_t kShardManifestMagic = 0x4843325330303032ULL;

}  // namespace hc2l

#endif  // HC2L_CORE_INDEX_FORMAT_H_
