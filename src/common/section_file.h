#ifndef HC2L_COMMON_SECTION_FILE_H_
#define HC2L_COMMON_SECTION_FILE_H_

/// The on-disk index format (HC2L0004 / HC2D0004) and the one codec both
/// index flavours save and load through. Layout, after the 8-byte magic:
///
///   u64 section_count
///   section_count x { u64 id, u64 offset, u64 bytes }   // offsets are
///   ...zero padding to the next 64-byte file offset...  // absolute
///   section payloads, each starting on a 64-byte file offset
///
/// Every payload offset is 64-byte aligned IN THE FILE, so an mmap of the
/// whole file (page-aligned, hence 64-aligned) yields cache-line-aligned
/// arena pointers — the alignment invariant the SIMD kernel asserts. The
/// reader validates the table against the real file size before anything
/// else: a forged offset or byte count is rejected before any payload is
/// read or any mapped page dereferenced (tests/load_fuzz_test.cc pins
/// this).
///
/// A flavour owns only its meta section body and its structural
/// validation. Each direction's label store and optional hint store go
/// through SectionWriter::WriteStore and SectionFile::ReadStore, once per
/// direction. Byte-level spec: docs/format.md.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/label_arena.h"
#include "common/mmap_file.h"
#include "common/types.h"
#include "hc2l/status.h"

namespace hc2l::io {

/// Section ids. Meta is the flavour's body stream with the label tables
/// elided down to their sizes; the arena sections are the raw padded uint32
/// buffers; the offsets sections are the raw offset tables (base |
/// level_start | level_len), one per direction — the hint store of a
/// direction shares its label store's tables, so they are stored once.
inline constexpr uint64_t kSectionMeta = 1;
inline constexpr uint64_t kSectionLabelArena = 2;      // undirected / out
inline constexpr uint64_t kSectionInLabelArena = 3;    // directed only
inline constexpr uint64_t kSectionHintArena = 4;       // undirected / out
inline constexpr uint64_t kSectionInHintArena = 5;     // directed only
inline constexpr uint64_t kSectionLabelOffsets = 6;    // undirected / out
inline constexpr uint64_t kSectionInLabelOffsets = 7;  // directed only
/// Shard manifests only (docs/format.md): the member table naming the files
/// that hold the arena slices a manifest has no sections for.
inline constexpr uint64_t kSectionMembers = 8;

/// The sections of one direction: the offset tables its label and hint
/// stores share, the label arena, and the hint arena (absent from files of
/// indexes built without route hints).
struct StoreSections {
  uint64_t offsets;
  uint64_t labels;
  uint64_t hints;
};
/// The undirected store, or the directed out direction.
inline constexpr StoreSections kStoreSections = {
    kSectionLabelOffsets, kSectionLabelArena, kSectionHintArena};
/// The directed in direction.
inline constexpr StoreSections kInStoreSections = {
    kSectionInLabelOffsets, kSectionInLabelArena, kSectionInHintArena};

/// Sections a file with `directions` stores holds: the meta section, then
/// per direction the offsets and label arena, plus the hint arena when the
/// index carries route hints.
constexpr size_t SectionCount(size_t directions, bool hints) {
  return 1 + directions * (hints ? 3 : 2);
}

/// Hard cap on table entries; the formats define seven. Anything claiming
/// more is corrupt, rejected before the count drives an allocation.
inline constexpr uint64_t kMaxSections = 64;

struct SectionEntry {
  uint64_t id = 0;
  uint64_t offset = 0;  // absolute file offset, 64-byte aligned
  uint64_t bytes = 0;
};

/// Meta-section form of a label store: just the table and arena sizes. The
/// offset tables live in their own section and the arena bytes in theirs.
/// One counts record and one offsets section cover a label/hint pair — the
/// hint store mirrors the label store's shape exactly (Route indexes both
/// with the same offsets), so its arena has the same entry count and its
/// tables are the same bytes.
struct LabelStoreCounts {
  uint64_t base_count = 0;     // base.size() == core vertices + 1
  uint64_t array_count = 0;    // level_start.size() == level_len.size()
  uint64_t arena_entries = 0;  // padded entries of each arena
};

inline bool WriteLabelStoreCounts(std::FILE* f, const LabelStore& labels) {
  const LabelStoreCounts c = {labels.base.size(), labels.level_start.size(),
                              labels.arena.size()};
  return WriteValue(f, c.base_count) && WriteValue(f, c.array_count) &&
         WriteValue(f, c.arena_entries);
}

inline bool ReadLabelStoreCounts(Reader* r, LabelStoreCounts* c) {
  if (!ReadValue(r, &c->base_count) || !ReadValue(r, &c->array_count) ||
      !ReadValue(r, &c->arena_entries)) {
    return false;
  }
  return c->base_count >= 1 &&
         c->arena_entries == LabelArena::PaddedCapacity(c->arena_entries);
}

/// Structural invariants the query paths index by without bounds checks:
/// base is a non-decreasing 0-led partition of the array list, and every
/// (start, len) array lies inside an arena of `arena_size` entries.
/// Checked against the section table's arena size before any arena byte is
/// read (or mapped page touched), so a corrupt offset table becomes a clean
/// load failure instead of out-of-bounds reads at query time.
inline bool ValidateLabelShape(const LabelStore& labels, size_t arena_size) {
  if (labels.base.empty() || labels.base.front() != 0) return false;
  if (labels.level_start.size() != labels.level_len.size()) return false;
  for (size_t v = 0; v + 1 < labels.base.size(); ++v) {
    if (labels.base[v] > labels.base[v + 1]) return false;
  }
  if (labels.base.back() != labels.level_start.size()) return false;
  for (size_t i = 0; i < labels.level_start.size(); ++i) {
    const size_t start = labels.level_start[i];
    // BuildFrom's layout: every array starts on a cache-line boundary and
    // owns its padded capacity, which is also what the vector kernel may
    // read past the true length.
    if (start % LabelArena::kAlignEntries != 0) return false;
    if (start > arena_size ||
        LabelArena::PaddedCapacity(labels.level_len[i]) > arena_size - start) {
      return false;
    }
  }
  return true;
}

/// Every true-length hint entry must be a core vertex id or the no-hint
/// sentinel. O(entries), so heap loads only: a mapped open must not touch
/// the arena pages, and CoreRoute's per-step range checks re-validate every
/// hint the walk actually dereferences.
inline bool HintEntriesInRange(const LabelStore& hints) {
  const size_t core = hints.base.size() - 1;
  for (size_t v = 0; v < core; ++v) {
    for (uint32_t a = hints.base[v]; a < hints.base[v + 1]; ++a) {
      const uint32_t start = hints.level_start[a];
      const uint32_t len = hints.level_len[a];
      for (uint32_t j = 0; j < len; ++j) {
        const uint32_t e = hints.arena.data()[start + j];
        if (e != kInvalidVertex && e >= core) return false;
      }
    }
  }
  return true;
}

/// True when the offsets section holds exactly base | level_start |
/// level_len for these table sizes. The per-count divisions run first so
/// the sum cannot overflow on forged counts.
inline bool OffsetsSectionMatches(const SectionEntry& s,
                                  const LabelStoreCounts& c) {
  if (c.base_count > s.bytes / sizeof(uint32_t) ||
      c.array_count > s.bytes / (2 * sizeof(uint32_t))) {
    return false;
  }
  return (c.base_count + 2 * c.array_count) * sizeof(uint32_t) == s.bytes;
}

/// The offsets section payload: the three tables back to back, no length
/// prefixes (the counts live in the meta section).
inline bool WriteLabelStoreOffsets(std::FILE* f, const LabelStore& labels) {
  const auto raw = [&](const U32Array& a) {
    return a.size() == 0 || WritePod(f, a.data(), a.size() * sizeof(uint32_t));
  };
  return raw(labels.base) && raw(labels.level_start) && raw(labels.level_len);
}

/// Attaches zero-copy views into a mapped offsets section to a label store
/// and (when non-null) its hint store — the same bytes, viewed twice, which
/// makes the shapes match by construction. `section` must point at
/// OffsetsSectionMatches-validated payload inside a live mapping.
inline void AttachOffsetsView(const uint8_t* section,
                              const LabelStoreCounts& c, LabelStore* labels,
                              LabelStore* hints) {
  const uint32_t* p = reinterpret_cast<const uint32_t*>(section);
  for (LabelStore* store : {labels, hints}) {
    if (store == nullptr) continue;
    store->base.ResetView(p, c.base_count);
    store->level_start.ResetView(p + c.base_count, c.array_count);
    store->level_len.ResetView(p + c.base_count + c.array_count,
                               c.array_count);
  }
}

/// Heap-mode counterpart: reads owned copies of the tables from a Reader
/// positioned at the offsets section (and bounded to it); the hint store,
/// when non-null, deep-copies the label store's.
inline bool ReadLabelStoreOffsets(Reader* r, const LabelStoreCounts& c,
                                  LabelStore* labels, LabelStore* hints) {
  const auto raw = [&](U32Array* a, uint64_t count) {
    if (!r->CanHold(count, sizeof(uint32_t))) return false;
    a->ResizeOwned(count);
    return count == 0 || r->Read(a->MutableData(), count * sizeof(uint32_t));
  };
  if (!raw(&labels->base, c.base_count) ||
      !raw(&labels->level_start, c.array_count) ||
      !raw(&labels->level_len, c.array_count)) {
    return false;
  }
  if (hints != nullptr) {
    hints->base = labels->base;
    hints->level_start = labels->level_start;
    hints->level_len = labels->level_len;
  }
  return true;
}

/// Streams a sectioned file: Start writes the magic and a zeroed table of
/// `section_count` entries, Begin/End bracket each payload in turn (Begin
/// pads to the next 64-byte offset), Finish seeks back and writes the real
/// table. Every method returns false on I/O failure.
class SectionWriter {
 public:
  explicit SectionWriter(std::FILE* f) : f_(f) {}

  std::FILE* file() const { return f_; }

  bool Start(uint64_t magic, size_t section_count) {
    sections_.resize(section_count);
    if (!WriteValue(f_, magic)) return false;
    const uint64_t count = section_count;
    if (!WriteValue(f_, count)) return false;
    const long table = std::ftell(f_);
    if (table < 0) return false;
    table_pos_ = table;
    // Placeholder table; Finish overwrites it with the recorded entries.
    for (const SectionEntry& entry : sections_) {
      if (!WritePod(f_, &entry, sizeof(entry))) return false;
    }
    return PadTo64();
  }

  /// Starts the next section, with the given id.
  bool Begin(uint64_t id) {
    HC2L_CHECK_LT(next_, sections_.size());
    if (!PadTo64()) return false;
    const long pos = std::ftell(f_);
    if (pos < 0) return false;
    sections_[next_] = {id, static_cast<uint64_t>(pos), 0};
    return true;
  }

  bool End() {
    const long pos = std::ftell(f_);
    if (pos < 0) return false;
    SectionEntry& entry = sections_[next_++];
    entry.bytes = static_cast<uint64_t>(pos) - entry.offset;
    return true;
  }

  /// One direction's sections: the offset tables, the label arena and —
  /// when `hints` is non-null — the hint arena. A hint store mirrors its
  /// label store's shape (a class invariant the loader rebuilds by
  /// sharing the tables), so the tables are stored once and both arenas
  /// have equal sizes.
  bool WriteStore(const StoreSections& ids, const LabelStore& labels,
                  const LabelStore* hints) {
    if (!Begin(ids.offsets) || !WriteLabelStoreOffsets(f_, labels) ||
        !End() || !WriteArena(ids.labels, labels.arena)) {
      return false;
    }
    if (hints == nullptr) return true;
    HC2L_CHECK_EQ(hints->arena.size(), labels.arena.size());
    return WriteArena(ids.hints, hints->arena);
  }

  bool Finish() {
    HC2L_CHECK_EQ(next_, sections_.size());
    const long end = std::ftell(f_);
    if (end < 0) return false;
    if (std::fseek(f_, table_pos_, SEEK_SET) != 0) return false;
    for (const SectionEntry& entry : sections_) {
      if (!WritePod(f_, &entry, sizeof(entry))) return false;
    }
    return std::fseek(f_, end, SEEK_SET) == 0;
  }

 private:
  bool WriteArena(uint64_t id, const LabelArena& arena) {
    return Begin(id) &&
           (arena.size() == 0 ||
            WritePod(f_, arena.data(), arena.SizeBytes())) &&
           End();
  }

  bool PadTo64() {
    const long pos = std::ftell(f_);
    if (pos < 0) return false;
    static constexpr char kZeros[64] = {};
    const size_t pad = (64 - static_cast<size_t>(pos) % 64) % 64;
    return pad == 0 || WritePod(f_, kZeros, pad);
  }

  std::FILE* f_;
  long table_pos_ = 0;
  size_t next_ = 0;
  std::vector<SectionEntry> sections_;
};

/// Saves a sectioned file at `path`: `write(SectionWriter&)` emits the
/// `section_count` sections (the meta section, then WriteStore per
/// direction) between the writer's Start and Finish.
template <typename WriteSections>
Status WriteSectionFile(const std::string& path, uint64_t magic,
                        size_t section_count, WriteSections&& write) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  SectionWriter w(f.get());
  if (!w.Start(magic, section_count) || !write(w) || !w.Finish()) {
    return Status::Unavailable("write error on " + path);
  }
  return Status::Ok();
}

/// Reads and validates the section table through the bounded reader (which
/// is positioned just after the magic). `file_size` is the real on-disk
/// size; every entry must satisfy: 64-aligned offset, offset + bytes within
/// the file, no duplicate ids. Returns false on any violation.
inline bool ReadSectionTable(Reader* r, uint64_t file_size,
                             std::vector<SectionEntry>* sections) {
  uint64_t count = 0;
  if (!ReadValue(r, &count)) return false;
  if (count == 0 || count > kMaxSections) return false;
  if (!r->CanHold(count, sizeof(SectionEntry))) return false;
  sections->resize(count);
  if (!r->Read(sections->data(), count * sizeof(SectionEntry))) return false;
  for (size_t i = 0; i < sections->size(); ++i) {
    const SectionEntry& s = (*sections)[i];
    if (s.offset % 64 != 0) return false;
    if (s.offset > file_size || s.bytes > file_size - s.offset) return false;
    for (size_t j = 0; j < i; ++j) {
      if ((*sections)[j].id == s.id) return false;
    }
  }
  return true;
}

/// The entry for `id`, or nullptr when absent.
inline const SectionEntry* FindSection(
    const std::vector<SectionEntry>& sections, uint64_t id) {
  for (const SectionEntry& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

/// Reading side of the codec. Open checks the magic, validates the section
/// table against the real file size and, for mmap opens, maps the file;
/// ReadSection hands the meta section to the flavour's parser (straight off
/// the mapping, or through a bounded stdio reader); ReadStore attaches one
/// direction's stores by view (mmap: no copy, no arena page touched) or by
/// straight reads (heap).
class SectionFile {
 public:
  /// `name` labels the format in error messages ("HC2L index").
  SectionFile(std::string path, std::string name)
      : path_(std::move(path)), name_(std::move(name)) {}

  /// kNotFound when the file cannot be opened, kInvalidArgument when it
  /// starts with none of `magics`, kDataLoss on a corrupt section table or
  /// a failed mapping.
  Status Open(std::initializer_list<uint64_t> magics, bool use_mmap) {
    file_.reset(std::fopen(path_.c_str(), "rb"));
    if (file_ == nullptr) return Status::NotFound("cannot open " + path_);
    Reader r(file_.get());
    const uint64_t file_size = r.remaining();
    if (!ReadValue(&r, &magic_) ||
        std::find(magics.begin(), magics.end(), magic_) == magics.end()) {
      return Status::InvalidArgument(path_ + " is not a sectioned " + name_ +
                                     " file");
    }
    if (!ReadSectionTable(&r, file_size, &sections_)) return Corrupt();
    if (use_mmap) {
      // Mapping dereferences nothing by itself; every later access stays
      // inside section bounds the table validation pinned to the real file
      // size.
      mapping_ = MappedFile::Open(path_);
      if (mapping_ == nullptr || mapping_->size() != file_size) {
        return Corrupt();
      }
    }
    return Status::Ok();
  }

  uint64_t magic() const { return magic_; }  // one of Open's `magics`

  /// Runs `parse(Reader*)` over section `id`, bounded to it so a corrupt
  /// size field cannot read into the next section. False when the file has
  /// no such section.
  template <typename Parse>
  bool ReadSection(uint64_t id, Parse&& parse) {
    const SectionEntry* section = FindSection(sections_, id);
    if (section == nullptr) return false;
    if (mapping_ != nullptr) {
      Reader r(mapping_->data() + section->offset, section->bytes);
      return parse(&r);
    }
    if (!Seek(section->offset)) return false;
    Reader r(file_.get());
    r.LimitTo(section->bytes);
    return parse(&r);
  }

  /// Loads one direction's offset tables into `labels` and, when non-null,
  /// `hints` (mapped views or owned copies; the counts must match the
  /// section's size) and checks them with ValidateLabelShape. All a shard
  /// manifest holds of a store: its arenas are in the member files.
  bool ReadTables(const StoreSections& ids, const LabelStoreCounts& c,
                  LabelStore* labels, LabelStore* hints) {
    const SectionEntry* offsets = FindSection(sections_, ids.offsets);
    if (offsets == nullptr || !OffsetsSectionMatches(*offsets, c)) {
      return false;
    }
    if (mapping_ != nullptr) {
      AttachOffsetsView(mapping_->data() + offsets->offset, c, labels, hints);
    } else {
      if (!Seek(offsets->offset)) return false;
      Reader tables(file_.get());
      tables.LimitTo(offsets->bytes);
      if (!ReadLabelStoreOffsets(&tables, c, labels, hints)) return false;
    }
    return ValidateLabelShape(*labels, c.arena_entries);
  }

  /// Loads one direction: `labels` always, `hints` only when the file
  /// carries that direction's hint arena (otherwise `hints` is left
  /// untouched, i.e. empty). The tables load as in ReadTables, each arena
  /// section must hold exactly c.arena_entries, and a hint arena must be
  /// as large as its label arena; heap loads also range-check every hint
  /// entry.
  bool ReadStore(const StoreSections& ids, const LabelStoreCounts& c,
                 LabelStore* labels, LabelStore* hints) {
    const SectionEntry* label_arena = FindSection(sections_, ids.labels);
    const SectionEntry* hint_arena = FindSection(sections_, ids.hints);
    // The byte-size division keeps forged entry counts from overflowing.
    if (label_arena == nullptr ||
        label_arena->bytes % sizeof(uint32_t) != 0 ||
        label_arena->bytes / sizeof(uint32_t) != c.arena_entries ||
        (hint_arena != nullptr && hint_arena->bytes != label_arena->bytes)) {
      return false;
    }
    if (hint_arena == nullptr) hints = nullptr;
    if (!ReadTables(ids, c, labels, hints)) return false;
    const std::pair<LabelStore*, const SectionEntry*> arenas[] = {
        {labels, label_arena}, {hints, hint_arena}};

    if (mapping_ != nullptr) {
      const uint8_t* base = mapping_->data();
      for (const auto& [store, s] : arenas) {
        if (store == nullptr) continue;
        store->arena.ResetView(
            reinterpret_cast<const uint32_t*>(base + s->offset),
            c.arena_entries);
        mapping_->AdviseRandom(s->offset, s->bytes);
      }
      return true;
    }

    for (const auto& [store, s] : arenas) {
      if (store == nullptr) continue;
      if (!Seek(s->offset)) return false;
      Reader r(file_.get());
      store->arena.Reset(c.arena_entries);
      if (c.arena_entries != 0 &&
          !r.Read(store->arena.data(), c.arena_entries * sizeof(uint32_t))) {
        return false;
      }
    }
    return hints == nullptr || HintEntriesInRange(*hints);
  }

  /// The mapping the loaded stores view (null for heap opens); the index
  /// holds it for as long as the views live.
  const std::shared_ptr<MappedFile>& mapping() const { return mapping_; }

  /// The status of a file that failed any check after Open.
  Status Corrupt() const {
    return Status::DataLoss("truncated or corrupt " + name_ + " file: " +
                            path_);
  }

 private:
  bool Seek(uint64_t offset) {
    return std::fseek(file_.get(), static_cast<long>(offset), SEEK_SET) == 0;
  }

  std::string path_;
  std::string name_;
  uint64_t magic_ = 0;
  FilePtr file_;
  std::shared_ptr<MappedFile> mapping_;
  std::vector<SectionEntry> sections_;
};

}  // namespace hc2l::io

#endif  // HC2L_COMMON_SECTION_FILE_H_
