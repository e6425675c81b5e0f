#include "server/wire.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <type_traits>

#include "common/fault_injection.h"
#include "common/simd.h"
#include "hc2l/query.h"

namespace hc2l {

namespace {

/// Upper bound on "deadline_ms" (one day). Bounds the chrono arithmetic and
/// turns a nonsense budget into a merely very long one.
constexpr uint64_t kMaxDeadlineMs = 86'400'000;

/// Nesting depth SkipValue tolerates in ignored values before declaring the
/// line hostile ("[[[[[..." is not a request).
constexpr int kMaxSkipDepth = 32;

/// Maps a wire "code" name back to its StatusCode (client-side reassembly of
/// server aborts). Unknown names — a newer server, say — land on kInternal.
StatusCode WireCodeFromName(std::string_view name) {
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kDataLoss, StatusCode::kFailedPrecondition,
        StatusCode::kUnavailable, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kDeadlineExceeded,
        StatusCode::kOverloaded, StatusCode::kOutOfRange}) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

/// The two decimal digits of every value below 100, "00" to "99".
constexpr char kDigitPairs[201] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/// Writes v < 10^4 without leading zeros ("0" for zero).
inline char* WriteUpTo4Digits(char* p, uint32_t v) {
  if (v < 100) {
    if (v < 10) {
      *p = static_cast<char>('0' + v);
      return p + 1;
    }
    std::memcpy(p, kDigitPairs + 2 * v, 2);
    return p + 2;
  }
  const uint32_t hi = (v * 5243) >> 19;  // v / 100, exact below 43699
  if (hi < 10) {
    *p++ = static_cast<char>('0' + hi);
  } else {
    std::memcpy(p, kDigitPairs + 2 * hi, 2);
    p += 2;
  }
  std::memcpy(p, kDigitPairs + 2 * (v - hi * 100), 2);
  return p + 2;
}

/// Writes exactly four digits of v < 10^4, leading zeros included.
inline char* Write4Digits(char* p, uint32_t v) {
  const uint32_t hi = (v * 5243) >> 19;  // v / 100
  std::memcpy(p, kDigitPairs + 2 * hi, 2);
  std::memcpy(p + 2, kDigitPairs + 2 * (v - hi * 100), 2);
  return p + 4;
}

/// Writes the decimal digits of v at p (at most 20 bytes) and returns the
/// end. Values below 10^8 — every distance of a real road network — go
/// four digits at a time: one multiply-shift splits off n / 10^4, two more
/// split each half into digit pairs, and the pairs come from a table, so
/// there is no 64-bit divide chain. Larger values take std::to_chars.
inline char* WriteDecimal(char* p, uint64_t v) {
  if (v >= 100'000'000) return std::to_chars(p, p + 20, v).ptr;
  const uint32_t n = static_cast<uint32_t>(v);
  if (n < 10'000) return WriteUpTo4Digits(p, n);
  // n / 10^4: 109951163 = ceil(2^40 / 10^4), exact for n < 4.9 * 10^8.
  const auto hi = static_cast<uint32_t>((uint64_t{n} * 109951163) >> 40);
  return Write4Digits(WriteUpTo4Digits(p, hi), n - hi * 10'000);
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[20];
  out->append(buf, WriteDecimal(buf, v));
}

void AppendDist(std::string* out, Dist d) {
  if (d == kInfDist) {
    out->append("null");
  } else {
    AppendUint(out, d);
  }
}

/// One list entry: "null" for an unreachable distance, else its digits.
template <typename T>
inline char* WriteEntry(char* p, T v) {
  if constexpr (std::is_same_v<T, Dist>) {
    if (v == kInfDist) {
      std::memcpy(p, "null", 4);
      return p + 4;
    }
  }
  return WriteDecimal(p, v);
}

#if defined(HC2L_SIMD_AVX2)

/// Writes "a,b,c,d" for four values below 10^8 in one AVX2 register, one
/// 64-bit lane per value: a multiply-shift splits each value into two
/// four-digit halves (32-bit lanes), those into digit pairs (16-bit lanes)
/// and those into digits (bytes), so every lane holds its value's eight
/// digits with leading zeros, most significant first in memory. One
/// movemask of the '0' bytes gives every value's leading-zero count (a
/// zero keeps its last digit), and each value takes one 8-byte store
/// shifted past its leading zeros. Writes up to kFourWideBytes bytes past p
/// (the last store runs past the digits it keeps).
inline char* WriteFourBelow1e8(char* p, const Dist* values) {
  const __m256i v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values));
  // hi = v / 10^4 (109951163 = ceil(2^40 / 10^4), exact below 4.9 * 10^8)
  // into the low half of each 64-bit lane, lo = v % 10^4 into the high.
  const __m256i hi =
      _mm256_srli_epi64(_mm256_mul_epu32(v, _mm256_set1_epi64x(109951163)), 40);
  const __m256i lo =
      _mm256_sub_epi32(v, _mm256_mul_epu32(hi, _mm256_set1_epi64x(10'000)));
  const __m256i halves = _mm256_or_si256(hi, _mm256_slli_epi64(lo, 32));
  // Each half x < 10^4 into x / 100 (low 16 bits) and x % 100 (high).
  const __m256i q = _mm256_srli_epi32(
      _mm256_mullo_epi32(halves, _mm256_set1_epi32(5243)), 19);
  const __m256i r =
      _mm256_sub_epi32(halves, _mm256_mullo_epi32(q, _mm256_set1_epi32(100)));
  const __m256i pairs = _mm256_or_si256(q, _mm256_slli_epi32(r, 16));
  // Each pair y < 100 into tens (low byte) and ones (high byte):
  // (y * 6554) >> 16 is y / 10 for every y < 100.
  const __m256i tens = _mm256_mulhi_epu16(pairs, _mm256_set1_epi16(6554));
  const __m256i ones = _mm256_sub_epi16(
      pairs, _mm256_mullo_epi16(tens, _mm256_set1_epi16(10)));
  const __m256i digits = _mm256_add_epi8(
      _mm256_or_si256(tens, _mm256_slli_epi16(ones, 8)),
      _mm256_set1_epi8('0'));
  const auto zeros = static_cast<uint32_t>(_mm256_movemask_epi8(
      _mm256_cmpeq_epi8(digits, _mm256_set1_epi8('0'))));
  // Lanes straight from registers: a 32-byte store reloaded as 8-byte
  // pieces can miss store forwarding.
  const __m128i low = _mm256_castsi256_si128(digits);
  const __m128i high = _mm256_extracti128_si256(digits, 1);
  const uint64_t lanes[4] = {
      static_cast<uint64_t>(_mm_cvtsi128_si64(low)),
      static_cast<uint64_t>(_mm_extract_epi64(low, 1)),
      static_cast<uint64_t>(_mm_cvtsi128_si64(high)),
      static_cast<uint64_t>(_mm_extract_epi64(high, 1))};
  for (int k = 0; k < 4; ++k) {
    // Leading zeros: the low run of set bits in this lane's byte mask,
    // capped at 7 (bit 7 of the complement forced set) so a zero keeps
    // its last digit.
    const uint32_t lead =
        std::countr_zero(~(zeros >> (8 * k)) | uint32_t{0x80});
    const uint64_t kept = lanes[k] >> (8 * lead);
    std::memcpy(p, &kept, 8);
    p += 8 - lead;
    if (k != 3) *p++ = ',';
  }
  return p;
}

/// The most WriteFourBelow1e8 writes: three entries and their commas, then
/// the last entry's whole 8-byte store.
constexpr size_t kFourWideBytes = 3 * 9 + 8;

#endif  // HC2L_SIMD_AVX2

/// AppendNumberList for both element types. Digits go straight into a
/// stack block that only ever holds whole entries; each full block reaches
/// *out with one append, so the per-entry cost is the digit formatting
/// alone. Under AVX2 a distance list goes four entries at a time
/// (WriteFourBelow1e8) while a group of four holds only values below 10^8;
/// a group with a null or a larger value, the last entries of a list and
/// every other build take WriteEntry.
template <typename T>
void AppendNumbers(std::string* out, std::span<const T> values) {
  static_assert(std::is_same_v<T, Dist> || std::is_same_v<T, Vertex>);
  // The widest entry: a comma plus 20 digits (a 64-bit value; "null" is 4).
  constexpr size_t kMaxEntryBytes = 21;
  char block[4096];
  char* const last_start = block + sizeof(block) - kMaxEntryBytes;
  char* p = block;
  size_t i = 0;
#if defined(HC2L_SIMD_AVX2)
  if constexpr (std::is_same_v<T, Dist>) {
    // A comma plus four entries of up to 20 digits, or the four-wide writer.
    constexpr size_t kMaxGroupBytes = std::max(1 + 4 * kMaxEntryBytes,
                                               1 + kFourWideBytes);
    char* const last_group_start = block + sizeof(block) - kMaxGroupBytes;
    constexpr Dist kLimit = 100'000'000;
    for (; i + 4 <= values.size(); i += 4) {
      if (p > last_group_start) {
        out->append(block, p);
        p = block;
      }
      if (i != 0) *p++ = ',';
      const Dist* group = values.data() + i;
      if ((group[0] < kLimit) & (group[1] < kLimit) & (group[2] < kLimit) &
          (group[3] < kLimit)) {
        p = WriteFourBelow1e8(p, group);
        continue;
      }
      for (int k = 0; k < 4; ++k) {
        if (k != 0) *p++ = ',';
        p = WriteEntry(p, group[k]);
      }
    }
  }
#endif
  for (; i < values.size(); ++i) {
    if (p > last_start) {
      out->append(block, p);
      p = block;
    }
    if (i != 0) *p++ = ',';
    p = WriteEntry(p, values[i]);
  }
  out->append(block, p);
}

/// The formatted pieces of one distance list. Execute reports each range
/// of the list as it is computed, and the range's own thread formats it:
/// the range that starts the list straight into the response, every other
/// one into a block of its own, led by its comma. Once Execute returns, the
/// loop thread appends the blocks in list order. Blocks keep their capacity
/// from list to list: one set per event loop (LoopBlocks) serves every
/// connection on it.
class RangeBlocks {
 public:
  /// Executes a point, batch or matrix `request` into `dists`, formatting
  /// every reported range. The caller has appended the response up to the
  /// list's opening bracket to *out and leaves *out alone until this
  /// returns (a pool thread may be appending to it). On success
  /// AppendBlocks() completes the list; on failure *out holds a partial
  /// list the caller must cut off.
  Status Execute(const ThreadedRouter& threaded, const QueryRequest& request,
                 std::span<Dist> dists, std::string* out) {
    used_ = 0;
    const auto format = [this, dists, out](size_t begin, size_t end) {
      const std::span<const Dist> range = dists.subspan(begin, end - begin);
      if (begin == 0) {
        AppendNumberList(out, range);
        return;
      }
      std::string* text = Take(begin);
      text->push_back(',');
      AppendNumberList(text, range);
    };
    return threaded.Execute(request, QueryOutput(dists, {}, format)).status();
  }

  /// Appends the blocks of the last Execute to *out, in list order. Only
  /// pointers are sorted, so each block keeps its buffer for reuse.
  void AppendBlocks(std::string* out) {
    order_.resize(used_);
    for (size_t i = 0; i < used_; ++i) order_[i] = &blocks_[i];
    const auto by_begin = [](const Block* a, const Block* b) {
      return a->begin < b->begin;
    };
    std::sort(order_.begin(), order_.end(), by_begin);
    for (const Block* block : order_) out->append(block->text);
  }

 private:
  struct Block {
    size_t begin = 0;
    std::string text;
  };

  /// An emptied block for the range starting at `begin`; any thread.
  std::string* Take(size_t begin) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (used_ == blocks_.size()) blocks_.emplace_back();  // no reallocation
    Block& block = blocks_[used_++];
    block.begin = begin;
    block.text.clear();
    return &block.text;
  }

  std::mutex mu_;
  std::deque<Block> blocks_;  // stable addresses: others are being written
  size_t used_ = 0;           // guarded by mu_ while Execute runs
  std::vector<const Block*> order_;
};

/// The calling thread's RangeBlocks: an event loop formats every list it
/// answers through one set.
RangeBlocks& LoopBlocks() {
  static thread_local RangeBlocks blocks;
  return blocks;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

/// Hand-rolled parser for the protocol's JSON subset: objects with string
/// keys; values that are strings, non-negative integers, arrays of
/// non-negative integers, or (in skipped unknown keys) anything. No
/// recursion on attacker-chosen depth beyond kMaxSkipDepth, no exceptions.
/// Every method returns false on malformed input after recording the error's
/// byte position and text (Fail); Error() turns that record into the
/// position-carrying Status, so a well-formed line builds no Status at all.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s) : s_(s) {}

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r' ||
            s_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= s_.size();
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(char c) { return Consume(c) || FailExpected(c); }

  /// Records `what` as the error at the current byte; returns false. Out of
  /// line and cold, so the well-formed path inlines around it.
  [[gnu::cold, gnu::noinline]] bool Fail(std::string what) {
    error_pos_ = pos_;
    error_ = std::move(what);
    return false;
  }

  /// The recorded error as the wire's InvalidArgument status.
  Status Error() const {
    return Status::InvalidArgument("bad request JSON at byte " +
                                   std::to_string(error_pos_) + ": " +
                                   error_);
  }

  bool ParseString(std::string* out) {
    out->clear();
    if (!Expect('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          // Basic-multilingual-plane escapes only; the protocol's own
          // strings are ASCII enums, so this exists for error quality.
          if (pos_ + 4 > s_.size()) return Fail("truncated \\u escape");
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<uint32_t>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            return Fail("surrogate \\u escapes are not supported");
          }
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unsupported string escape");
      }
    }
    return Fail("unterminated string");
  }

  /// A string as a view into the line when it holds no escape (every key
  /// and op name a client normally sends), else decoded by ParseString into
  /// *scratch and viewed there. Errors are ParseString's, byte for byte.
  bool ParseStringView(std::string_view* out, std::string* scratch) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '"') {
      for (size_t i = pos_ + 1; i < s_.size(); ++i) {
        const char c = s_[i];
        if (c == '"') {
          *out = s_.substr(pos_ + 1, i - pos_ - 1);
          pos_ = i + 1;
          return true;
        }
        if (c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
      }
    }
    if (!ParseString(scratch)) return false;
    *out = *scratch;
    return true;
  }

  /// Non-negative integer; saturates at UINT64_MAX instead of wrapping.
  bool ParseUint(uint64_t* out) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9') {
      return Fail("expected a non-negative integer");
    }
    uint64_t v = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      const uint64_t d = static_cast<uint64_t>(s_[pos_] - '0');
      v = v > (UINT64_MAX - d) / 10 ? UINT64_MAX : v * 10 + d;
      ++pos_;
    }
    if (pos_ < s_.size() &&
        (s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      return Fail("expected an integer, got a fractional number");
    }
    *out = v;
    return true;
  }

  /// ParseUint narrowed to a vertex id: values beyond the 32-bit vertex
  /// space parse as kInvalidVertex — out of range for every graph, so the
  /// request's missing-vertex policy decides what happens to them.
  bool ParseVertex(Vertex* out) {
    uint64_t v = 0;
    if (!ParseUint(&v)) return false;
    *out = v >= kInvalidVertex ? kInvalidVertex : static_cast<Vertex>(v);
    return true;
  }

  bool ParseBool(bool* out) {
    SkipWs();
    if (s_.substr(pos_, 4) == "true") {
      pos_ += 4;
      *out = true;
      return true;
    }
    if (s_.substr(pos_, 5) == "false") {
      pos_ += 5;
      *out = false;
      return true;
    }
    return Fail("expected true or false");
  }

  /// Array of distances as the wire serializes them: non-negative integers
  /// with null for unreachable. APPENDS to *out (the stream reassembler
  /// accumulates chunks into one buffer).
  bool ParseDistArray(std::vector<Dist>* out) {
    if (!Expect('[')) return false;
    if (Consume(']')) return true;
    for (;;) {
      SkipWs();
      if (s_.substr(pos_, 4) == "null") {
        pos_ += 4;
        out->push_back(kInfDist);
      } else {
        uint64_t v = 0;
        if (!ParseUint(&v)) return false;
        out->push_back(v >= kInfDist ? kInfDist : static_cast<Dist>(v));
      }
      if (Consume(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  /// Array of vertex ids (ParseVertex each).
  bool ParseVertexArray(std::vector<Vertex>* out) {
    out->clear();
    if (!Expect('[')) return false;
    if (Consume(']')) return true;
    for (;;) {
      Vertex v = 0;
      if (!ParseVertex(&v)) return false;
      out->push_back(v);
      if (Consume(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  /// Array of [u, v, w] edge-weight deltas for "update_weights". Ids beyond
  /// the 32-bit vertex space parse as kInvalidVertex (rejected downstream as
  /// naming no edge); weights must fit 32 bits and a triple must hold
  /// exactly three integers — a truncated or overlong triple is a parse
  /// error, never a silently reshaped update.
  bool ParseEdgeDeltaArray(std::vector<EdgeDelta>* out) {
    out->clear();
    if (!Expect('[')) return false;
    if (Consume(']')) return true;
    for (;;) {
      if (out->size() >= kMaxUpdateEdges) {
        return Fail("update batch exceeds the per-request cap of " +
                    std::to_string(kMaxUpdateEdges) + " edges");
      }
      EdgeDelta d;
      uint64_t w = 0;
      if (!Expect('[') || !ParseVertex(&d.u) || !Expect(',') ||
          !ParseVertex(&d.v) || !Expect(',') || !ParseUint(&w) ||
          !Expect(']')) {
        return false;
      }
      if (w > UINT32_MAX) {
        return Fail("edge weight " + std::to_string(w) +
                    " exceeds the 32-bit weight space");
      }
      d.weight = static_cast<Weight>(w);
      out->push_back(d);
      if (Consume(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  /// Skips any JSON value (for unknown keys).
  bool SkipValue(int depth = 0) {
    if (depth > kMaxSkipDepth) return Fail("value nested too deeply");
    SkipWs();
    if (pos_ >= s_.size()) return Fail("expected a value");
    const char c = s_[pos_];
    std::string_view ignored;
    std::string scratch;
    if (c == '"') return ParseStringView(&ignored, &scratch);
    if (c == '{') {
      ++pos_;
      if (Consume('}')) return true;
      for (;;) {
        if (!ParseStringView(&ignored, &scratch) || !Expect(':') ||
            !SkipValue(depth + 1)) {
          return false;
        }
        if (Consume('}')) return true;
        if (!Expect(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      if (Consume(']')) return true;
      for (;;) {
        if (!SkipValue(depth + 1)) return false;
        if (Consume(']')) return true;
        if (!Expect(',')) return false;
      }
    }
    if (c == 't' || c == 'f' || c == 'n') {
      const std::string_view word = c == 't'   ? "true"
                                    : c == 'f' ? "false"
                                               : "null";
      if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
      pos_ += word.size();
      return true;
    }
    // Number (any JSON number shape — it is being ignored).
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' ||
            (s_[pos_] >= '0' && s_[pos_] <= '9'))) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    return true;
  }

 private:
  [[gnu::cold, gnu::noinline]] bool FailExpected(char c) {
    return Fail(std::string("expected '") + c + "'");
  }

  std::string_view s_;
  size_t pos_ = 0;
  size_t error_pos_ = 0;  // where the recorded error (Fail) happened
  std::string error_;
};

/// The ops' wire names, indexed by WireOp: a table, so the parser's name
/// lookup compares lengths before bytes and never walks a switch per op.
constexpr std::string_view kWireOpNames[] = {
    "",     "",      "ping",   "info",     "reload", "update_weights",
    "point", "batch", "matrix", "knearest", "route"};
static_assert(std::size(kWireOpNames) ==
              static_cast<size_t>(WireOp::kRoute) + 1);

WireOp WireOpFromName(std::string_view name) {
  if (name.empty()) return WireOp::kNone;
  for (auto i = static_cast<uint8_t>(WireOp::kPing);
       i <= static_cast<uint8_t>(WireOp::kRoute); ++i) {
    if (name == kWireOpNames[i]) return static_cast<WireOp>(i);
  }
  return WireOp::kUnknown;
}

}  // namespace

std::string_view WireOpName(WireOp op) {
  const auto i = static_cast<size_t>(op);
  return i < std::size(kWireOpNames) ? kWireOpNames[i] : std::string_view();
}

Status ParseRequestLine(std::string_view line, WireRequest* req) {
  req->Clear();
  if (HC2L_FAULT_SHOULD_FAIL("wire.parse")) {
    return Status::InvalidArgument("injected wire-parse fault");
  }
  JsonCursor c(line);
  if (!c.Expect('{')) return c.Error();
  // Decoding buffers, touched only by strings that hold an escape.
  std::string key_scratch;
  std::string value_scratch;
  if (!c.Consume('}')) {
    for (;;) {
      std::string_view key;
      if (!c.ParseStringView(&key, &key_scratch) || !c.Expect(':')) {
        return c.Error();
      }
      bool field = true;
      if (key == "op") {
        std::string_view name;
        field = c.ParseStringView(&name, &value_scratch);
        req->op = WireOpFromName(name);
        if (req->op == WireOp::kUnknown) req->unknown_op.assign(name);
      } else if (key == "source") {
        Vertex v = 0;
        field = c.ParseVertex(&v);
        req->sources.push_back(v);
      } else if (key == "sources") {
        field = c.ParseVertexArray(&req->sources);
      } else if (key == "target") {
        Vertex v = 0;
        field = c.ParseVertex(&v);
        req->targets.push_back(v);
      } else if (key == "targets" || key == "candidates") {
        field = c.ParseVertexArray(&req->targets);
      } else if (key == "k") {
        field = c.ParseUint(&req->k);
      } else if (key == "path") {
        field = c.ParseString(&req->path);
      } else if (key == "edges") {
        field = c.ParseEdgeDeltaArray(&req->edges);
      } else if (key == "deadline_ms") {
        uint64_t ms = 0;
        field = c.ParseUint(&ms);
        if (ms > kMaxDeadlineMs) ms = kMaxDeadlineMs;
        req->options.deadline = std::chrono::milliseconds(ms);
      } else if (key == "threads") {
        uint64_t t = 0;
        field = c.ParseUint(&t);
        // Same sanity cap as Router::WithThreads.
        req->options.num_threads =
            t > 4096 ? 4096u : static_cast<uint32_t>(t);
      } else if (key == "stream") {
        field = c.ParseBool(&req->stream);
      } else if (key == "missing") {
        std::string_view policy;
        field = c.ParseStringView(&policy, &value_scratch);
        if (field) {
          if (policy == "error") {
            req->options.missing_vertices = MissingVertexPolicy::kError;
          } else if (policy == "unreachable") {
            req->options.missing_vertices = MissingVertexPolicy::kUnreachable;
          } else {
            return Status::InvalidArgument(
                "\"missing\" must be \"error\" or \"unreachable\", got \"" +
                std::string(policy) + "\"");
          }
        }
      } else {
        field = c.SkipValue();
      }
      if (!field) return c.Error();
      if (c.Consume('}')) break;
      if (!c.Expect(',')) return c.Error();
    }
  }
  if (!c.AtEnd()) {
    c.Fail("trailing bytes after the request object");
    return c.Error();
  }
  return Status::Ok();
}

void AppendNumberList(std::string* out, std::span<const Dist> values) {
  AppendNumbers(out, values);
}

void AppendNumberList(std::string* out, std::span<const Vertex> values) {
  AppendNumbers(out, values);
}

void AppendOverloadedResponse(uint64_t retry_after_ms, std::string_view what,
                              std::string* out) {
  out->append("{\"ok\":false,\"code\":\"");
  out->append(StatusCodeName(StatusCode::kOverloaded));
  out->append("\",\"retry_after_ms\":");
  AppendUint(out, retry_after_ms);
  out->append(",\"message\":\"");
  AppendJsonEscaped(out, what);
  out->append("\"}\n");
}

void AppendWireError(const Status& status, std::string* out) {
  out->append("{\"ok\":false,\"code\":\"");
  out->append(StatusCodeName(status.code()));
  out->append("\",\"message\":\"");
  AppendJsonEscaped(out, status.message());
  out->append("\"}\n");
}

void RequestHandler::AppendErrorResponse(const Status& status,
                                         std::string* out) const {
  AppendWireError(status, out);
}

void RequestHandler::HandleLine(std::string_view line, const Router& router,
                                const ThreadedRouter& threaded,
                                std::string* out) {
  // Without run arrays Prepare never stages; a kExecute line is finished
  // immediately — together exactly the old one-shot behavior.
  const Clock::time_point received =
      hooks_.record ? Clock::now() : Clock::time_point{};
  if (Prepare(line, router, threaded, /*sources=*/nullptr,
              /*targets=*/nullptr, /*plan=*/nullptr, received,
              out) == LineAction::kExecute) {
    ExecuteParsed(router, threaded, out);
  }
}

RequestHandler::LineAction RequestHandler::Prepare(
    std::string_view line, const Router& router,
    const ThreadedRouter& threaded, std::vector<Vertex>* sources,
    std::vector<Vertex>* targets, StagePlan* plan, Clock::time_point received,
    std::string* out) {
  received_ = received;
  while (!line.empty() && (line.back() == '\r')) line.remove_suffix(1);
  if (line.find_first_not_of(" \t") == std::string_view::npos) {
    return LineAction::kDone;
  }

  if (Status st = ParseRequestLine(line, &req_); !st.ok()) {
    AppendErrorResponse(st, out);
    return LineAction::kDone;
  }

  // ping/info/reload bypass admission control deliberately: liveness
  // probes, stats scrapes and the operator's reload must keep working on a
  // server that is shedding query load.
  if (req_.op == WireOp::kPing) {
    out->append("{\"ok\":true,\"op\":\"ping\"}\n");
    return LineAction::kDone;
  }
  if (req_.op == WireOp::kReload) {
    if (!hooks_.reload) {
      AppendErrorResponse(
          Status::Unimplemented("this endpoint has no reload hook"), out);
      return LineAction::kDone;
    }
    uint64_t epoch = 0;
    if (Status st = hooks_.reload(req_.path, &epoch); !st.ok()) {
      AppendErrorResponse(st, out);
      return LineAction::kDone;
    }
    out->append("{\"ok\":true,\"op\":\"reload\",\"epoch\":");
    AppendUint(out, epoch);
    out->append("}\n");
    return LineAction::kDone;
  }
  if (req_.op == WireOp::kUpdateWeights) {
    // Admission-exempt like reload: the operator's weight refresh must keep
    // working on a server that is shedding query load (the swap itself is
    // serialized against reloads behind the server's reload mutex).
    if (!hooks_.update_weights) {
      AppendErrorResponse(
          Status::Unimplemented("this endpoint has no update_weights hook"),
          out);
      return LineAction::kDone;
    }
    if (req_.edges.empty()) {
      AppendErrorResponse(
          Status::InvalidArgument(
              "\"update_weights\" needs a non-empty \"edges\" array of "
              "[u, v, weight] triples"),
          out);
      return LineAction::kDone;
    }
    uint64_t epoch = 0;
    if (Status st = hooks_.update_weights(req_.edges, &epoch); !st.ok()) {
      AppendErrorResponse(st, out);
      return LineAction::kDone;
    }
    out->append("{\"ok\":true,\"op\":\"update_weights\",\"epoch\":");
    AppendUint(out, epoch);
    out->append("}\n");
    return LineAction::kDone;
  }
  if (req_.op == WireOp::kInfo) {
    const IndexInfo info = router.Info();
    out->append("{\"ok\":true,\"op\":\"info\",\"directed\":");
    out->append(info.directed ? "true" : "false");
    out->append(",\"vertices\":");
    AppendUint(out, info.num_vertices);
    out->append(",\"tree_height\":");
    AppendUint(out, info.tree_height);
    out->append(",\"label_entries\":");
    AppendUint(out, info.label_entries);
    out->append(",\"engine_threads\":");
    AppendUint(out, threaded.NumThreads());
    if (hooks_.info) hooks_.info(out);
    out->append("}\n");
    return LineAction::kDone;
  }

  if (req_.op == WireOp::kBatch) {
    kind_ = QueryKind::kPointBatch;
    if (req_.sources.size() != 1) {
      AppendErrorResponse(
          Status::InvalidArgument("\"batch\" needs a single \"source\" (use "
                                  "\"point\" for pairwise queries)"),
          out);
      return LineAction::kDone;
    }
  } else if (req_.op == WireOp::kPoint) {
    kind_ = QueryKind::kPointBatch;
    // Enforce the pairwise shape here: Execute would reinterpret a single
    // source as one-to-many, silently answering a client that dropped an
    // id with plausible-looking wrong data.
    if (req_.sources.size() != req_.targets.size()) {
      AppendErrorResponse(
          Status::InvalidArgument(
              "\"point\" is pairwise: needs exactly as many sources as "
              "targets (got " +
              std::to_string(req_.sources.size()) + " and " +
              std::to_string(req_.targets.size()) + ")"),
          out);
      return LineAction::kDone;
    }
  } else if (req_.op == WireOp::kMatrix) {
    kind_ = QueryKind::kMatrix;
  } else if (req_.op == WireOp::kKNearest) {
    kind_ = QueryKind::kKNearest;
  } else if (req_.op == WireOp::kRoute) {
    kind_ = QueryKind::kRoute;
    if (req_.sources.size() != 1 || req_.targets.size() != 1) {
      AppendErrorResponse(
          Status::InvalidArgument(
              "\"route\" needs a single \"source\" and a single \"target\""),
          out);
      return LineAction::kDone;
    }
    if (req_.k > kMaxRouteAlternatives) {
      AppendErrorResponse(
          Status::InvalidArgument(
              "\"k\" = " + std::to_string(req_.k) + " alternative routes "
              "exceeds this server's cap of " +
              std::to_string(kMaxRouteAlternatives)),
          out);
      return LineAction::kDone;
    }
  } else {
    AppendErrorResponse(
        Status::InvalidArgument(
            req_.op == WireOp::kNone
                ? "request has no \"op\""
                : "unknown op \"" + req_.unknown_op +
                      "\" (expected batch, point, matrix, knearest, route, "
                      "info, ping, reload or update_weights)"),
        out);
    return LineAction::kDone;
  }

  result_entries_ =
      kind_ == QueryKind::kMatrix
          ? static_cast<uint64_t>(req_.sources.size()) * req_.targets.size()
          : req_.targets.size();
  // A streamed matrix computes and flushes chunk by chunk, so it answers to
  // the (much larger) stream ceiling instead of the monolithic-response cap.
  const bool streamed = kind_ == QueryKind::kMatrix && req_.stream;
  const uint64_t entry_cap =
      streamed ? kMaxStreamResultEntries : kMaxResultEntries;
  if (result_entries_ > entry_cap) {
    AppendErrorResponse(
        Status::InvalidArgument(
            "request would produce " + std::to_string(result_entries_) +
            (streamed
                 ? " result entries; this server caps one streamed request at "
                 : " result entries; this server caps one request at ") +
            std::to_string(entry_cap)),
        out);
    return LineAction::kDone;
  }

  // Coalescing: stage a small default-options point/batch query instead of
  // executing it, appending its pairs to the caller's combined arrays. The
  // eligibility rules guarantee batching cannot change any answer: exact
  // distances, no per-request deadline or thread override, and every id
  // verified in range (so the missing-vertex policy never fires).
  if (plan != nullptr && sources != nullptr && targets != nullptr &&
      kind_ == QueryKind::kPointBatch) {
    const size_t pairs = req_.targets.size();
    bool stageable =
        pairs >= 1 && pairs <= kMaxStagedPairs &&
        req_.options.deadline == std::chrono::nanoseconds::zero() &&
        req_.options.num_threads == 0 &&
        req_.options.missing_vertices != MissingVertexPolicy::kUnchecked;
    const uint64_t n = router.NumVertices();
    for (size_t i = 0; stageable && i < req_.sources.size(); ++i) {
      if (req_.sources[i] >= n) stageable = false;
    }
    for (size_t i = 0; stageable && i < req_.targets.size(); ++i) {
      if (req_.targets[i] >= n) stageable = false;
    }
    if (stageable) {
      // A staged request passes admission individually, exactly as its
      // un-coalesced execution would; the caller owes one release count.
      if (hooks_.admit) {
        uint64_t retry_after_ms = 0;
        if (!hooks_.admit(&retry_after_ms)) {
          AppendOverloadedResponse(
              retry_after_ms, "server is at its in-flight request limit",
              out);
          return LineAction::kDone;
        }
      }
      plan->op = req_.op;
      plan->first = sources->size();
      plan->count = pairs;
      plan->start = received;
      if (plan->op == WireOp::kBatch) {
        sources->insert(sources->end(), pairs, req_.sources[0]);
      } else {
        sources->insert(sources->end(), req_.sources.begin(),
                        req_.sources.end());
      }
      targets->insert(targets->end(), req_.targets.begin(),
                      req_.targets.end());
      return LineAction::kStaged;
    }
  }
  return LineAction::kExecute;
}

void RequestHandler::ExecuteParsed(const Router& router,
                                   const ThreadedRouter& threaded,
                                   std::string* out) {
  QueryRequest request;
  request.kind = kind_;
  request.sources = req_.sources;
  request.targets = req_.targets;
  request.k = req_.k;
  request.options = req_.options;
  const uint64_t result_entries = result_entries_;

  // Admission control: shed instead of queueing unboundedly. Shedding
  // happens after shape validation so a shed is always a request the server
  // WOULD have answered — the client's retry is worth making.
  if (hooks_.admit) {
    uint64_t retry_after_ms = 0;
    if (!hooks_.admit(&retry_after_ms)) {
      AppendOverloadedResponse(
          retry_after_ms, "server is at its in-flight request limit", out);
      return;
    }
  }
  // Latency observability: one record() per executed (admitted) request,
  // measured from the time Prepare was given — parse + execute + serialize.
  struct RecordGuard {
    const RequestHandler* h;
    ~RecordGuard() {
      if (h->hooks_.record) h->Record(h->req_.op, h->received_, Clock::now());
    }
  } record_guard{this};
  // An admitted request pairs with exactly one release() however the
  // execution below exits; without an admit hook nothing was admitted and
  // nothing is released.
  struct ReleaseGuard {
    const std::function<void(uint64_t)>* release;
    ~ReleaseGuard() {
      if (release != nullptr && *release) (*release)(1);
    }
  } release_guard{hooks_.admit ? &hooks_.release : nullptr};

  // Streamed matrix: header + chunk frames + trailer, flushed as computed.
  if (kind_ == QueryKind::kMatrix && req_.stream) {
    StreamMatrix(threaded, out);
    return;
  }

  // k-alternative routes allocate per route and are answered on the Router
  // directly (Execute carries only the single shortest path); everything
  // else flows through Execute into the connection's reusable buffers.
  if (request.kind == QueryKind::kRoute && req_.k >= 2) {
    const Vertex s = req_.sources[0];
    const Vertex t = req_.targets[0];
    if (req_.options.missing_vertices == MissingVertexPolicy::kUnreachable &&
        (s >= router.NumVertices() || t >= router.NumVertices())) {
      out->append(
          "{\"ok\":true,\"op\":\"route\",\"count\":0,\"routes\":[]}\n");
      return;
    }
    const Result<std::vector<RoutePath>> routes = router.Routes(s, t, req_.k);
    if (!routes.ok()) {
      AppendErrorResponse(routes.status(), out);
      return;
    }
    out->append("{\"ok\":true,\"op\":\"route\",\"count\":");
    AppendUint(out, routes->size());
    out->append(",\"routes\":[");
    for (size_t i = 0; i < routes->size(); ++i) {
      if (i != 0) out->push_back(',');
      out->append("{\"distance\":");
      AppendDist(out, (*routes)[i].weight);
      out->append(",\"vertices\":[");
      AppendNumberList(out, (*routes)[i].vertices);
      out->append("]}");
    }
    out->append("]}\n");
    return;
  }

  // Point, batch and matrix lists: the header first, then every range of
  // the list formatted by the thread that computed it (RangeBlocks).
  if (request.kind == QueryKind::kPointBatch ||
      request.kind == QueryKind::kMatrix) {
    dists_.resize(result_entries);
    const size_t mark = out->size();
    out->append("{\"ok\":true,\"op\":\"");
    out->append(WireOpName(req_.op));
    out->append("\"");
    if (request.kind == QueryKind::kMatrix) {
      out->append(",\"rows\":");
      AppendUint(out, req_.sources.size());
      out->append(",\"cols\":");
      AppendUint(out, req_.targets.size());
    }
    out->append(",\"distances\":[");
    RangeBlocks& blocks = LoopBlocks();
    if (Status st = blocks.Execute(threaded, request, dists_, out); !st.ok()) {
      out->resize(mark);
      AppendErrorResponse(st, out);
      return;
    }
    blocks.AppendBlocks(out);
    out->append("]}\n");
    return;
  }

  // k-nearest and single routes execute into the connection's reusable
  // buffers and are formatted here.
  if (request.kind == QueryKind::kKNearest) {
    const size_t need = std::min<uint64_t>(req_.k, req_.targets.size());
    dists_.resize(need);
    verts_.resize(need);
  } else {
    // A path can visit every vertex; the weight lands in dists_[0]. Capped
    // at the per-request result bound like every other output.
    dists_.resize(1);
    verts_.resize(static_cast<size_t>(
        std::min<uint64_t>(router.NumVertices(), kMaxResultEntries)));
  }
  const QueryOutput output(dists_, verts_);
  const Result<QueryResponse> response = threaded.Execute(request, output);
  if (!response.ok()) {
    AppendErrorResponse(response.status(), out);
    return;
  }

  out->append("{\"ok\":true,\"op\":\"");
  out->append(WireOpName(req_.op));
  out->append("\"");
  if (request.kind == QueryKind::kRoute) {
    out->append(",\"distance\":");
    AppendDist(out, dists_[0]);
    out->append(",\"vertices\":[");
    AppendNumberList(out, std::span(verts_).first(response->written));
    out->append("]}\n");
    return;
  }
  out->append(",\"count\":");
  AppendUint(out, response->written);
  out->append(",\"neighbors\":[");
  for (size_t i = 0; i < response->written; ++i) {
    if (i != 0) out->push_back(',');
    out->push_back('[');
    AppendDist(out, dists_[i]);
    out->push_back(',');
    AppendUint(out, verts_[i]);
    out->push_back(']');
  }
  out->append("]}\n");
}

void RequestHandler::StreamMatrix(const ThreadedRouter& threaded,
                                  std::string* out) {
  const uint64_t rows = req_.sources.size();
  const uint64_t cols = req_.targets.size();
  // Whole rows per chunk when a row fits the nominal chunk size; a single
  // (oversized) row per chunk otherwise. Entry-aligned by construction.
  const uint64_t rows_per_chunk =
      cols == 0 ? 1 : std::max<uint64_t>(1, kStreamChunkEntries / cols);

  out->append("{\"ok\":true,\"op\":\"matrix\",\"stream\":true,\"rows\":");
  AppendUint(out, rows);
  out->append(",\"cols\":");
  AppendUint(out, cols);
  out->append(",\"chunk_entries\":");
  AppendUint(out, rows_per_chunk * cols);
  out->append("}\n");
  if (hooks_.flush && !hooks_.flush(out)) return;

  // The request's deadline budgets the WHOLE stream: every block executes
  // with the remaining budget, so expiry aborts the stream promptly instead
  // of restarting the clock chunk by chunk.
  const auto start = std::chrono::steady_clock::now();
  QueryRequest request;
  request.kind = QueryKind::kMatrix;
  request.targets = req_.targets;
  request.options = req_.options;

  RangeBlocks& blocks = LoopBlocks();
  uint64_t chunk = 0;
  for (uint64_t r0 = 0; r0 < rows && cols > 0; r0 += rows_per_chunk) {
    const uint64_t block = std::min(rows_per_chunk, rows - r0);
    if (req_.options.deadline > std::chrono::nanoseconds::zero()) {
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (elapsed >= req_.options.deadline) {
        AppendErrorResponse(
            Status::DeadlineExceeded("stream deadline expired after " +
                                     std::to_string(chunk) + " chunks"),
            out);
        return;
      }
      request.options.deadline =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              req_.options.deadline - elapsed);
    }
    request.sources = std::span<const Vertex>(
        req_.sources.data() + static_cast<size_t>(r0),
        static_cast<size_t>(block));
    dists_.resize(static_cast<size_t>(block * cols));
    const size_t mark = out->size();
    out->append("{\"ok\":true,\"op\":\"matrix\",\"chunk\":");
    AppendUint(out, chunk);
    out->append(",\"count\":");
    AppendUint(out, dists_.size());
    out->append(",\"distances\":[");
    if (Status st = blocks.Execute(threaded, request, dists_, out); !st.ok()) {
      out->resize(mark);
      AppendErrorResponse(st, out);
      return;
    }
    blocks.AppendBlocks(out);
    out->append("]}\n");
    ++chunk;
    if (hooks_.flush && !hooks_.flush(out)) return;
  }
  out->append("{\"ok\":true,\"op\":\"matrix\",\"done\":true,\"chunks\":");
  AppendUint(out, chunk);
  out->append(",\"entries\":");
  AppendUint(out, rows * cols);
  out->append("}\n");
}

void RequestHandler::AppendStagedResponse(const StagePlan& plan,
                                          std::span<const Dist> dists,
                                          Clock::time_point done,
                                          std::string* out) const {
  out->append("{\"ok\":true,\"op\":\"");
  out->append(WireOpName(plan.op));
  out->append("\",\"distances\":[");
  AppendNumberList(out, dists.subspan(plan.first, plan.count));
  out->append("]}\n");
  if (hooks_.record) Record(plan.op, plan.start, done);
}

void RequestHandler::Record(WireOp op, Clock::time_point start,
                            Clock::time_point end) const {
  hooks_.record(op, static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            end - start)
                            .count()));
}

Status StreamReassembler::Feed(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  if (poisoned_) {
    return Status::FailedPrecondition("stream already failed; frame ignored");
  }
  // Parse the frame's fields; unknown keys are skipped like the server does.
  bool ok = false;
  bool has_ok = false;
  std::string op;
  bool stream_flag = false;
  bool done_flag = false;
  bool has_chunk = false;
  uint64_t chunk = 0;
  bool has_count = false;
  uint64_t count = 0;
  bool has_rows = false;
  uint64_t rows = 0;
  bool has_cols = false;
  uint64_t cols = 0;
  bool has_chunks = false;
  uint64_t chunks = 0;
  bool has_entries = false;
  uint64_t entries = 0;
  std::string code;
  std::string message;
  std::vector<Dist> frame_dists;
  {
    JsonCursor c(line);
    if (!c.Expect('{')) return Poison(c.Error());
    if (!c.Consume('}')) {
      for (;;) {
        std::string key;
        if (!c.ParseString(&key) || !c.Expect(':')) return Poison(c.Error());
        bool field = true;
        if (key == "ok") {
          field = c.ParseBool(&ok);
          has_ok = true;
        } else if (key == "op") {
          field = c.ParseString(&op);
        } else if (key == "stream") {
          field = c.ParseBool(&stream_flag);
        } else if (key == "done") {
          field = c.ParseBool(&done_flag);
        } else if (key == "chunk") {
          field = c.ParseUint(&chunk);
          has_chunk = true;
        } else if (key == "count") {
          field = c.ParseUint(&count);
          has_count = true;
        } else if (key == "rows") {
          field = c.ParseUint(&rows);
          has_rows = true;
        } else if (key == "cols") {
          field = c.ParseUint(&cols);
          has_cols = true;
        } else if (key == "chunks") {
          field = c.ParseUint(&chunks);
          has_chunks = true;
        } else if (key == "entries") {
          field = c.ParseUint(&entries);
          has_entries = true;
        } else if (key == "code") {
          field = c.ParseString(&code);
        } else if (key == "message") {
          field = c.ParseString(&message);
        } else if (key == "distances") {
          field = c.ParseDistArray(&frame_dists);
        } else {
          field = c.SkipValue();
        }
        if (!field) return Poison(c.Error());
        if (c.Consume('}')) break;
        if (!c.Expect(',')) return Poison(c.Error());
      }
    }
    if (!c.AtEnd()) {
      c.Fail("trailing bytes after the response object");
      return Poison(c.Error());
    }
  }

  if (!has_ok) {
    return Poison(
        Status::InvalidArgument("stream frame carries no \"ok\" field"));
  }
  if (!ok) {
    // Server-side abort: surface it with the server's code name.
    return Poison(Status(WireCodeFromName(code),
                         message.empty() ? "stream aborted by the server"
                                         : message));
  }
  if (done_) {
    return Poison(
        Status::InvalidArgument("frame after the stream's done trailer"));
  }
  if (!header_seen_) {
    if (has_chunk || done_flag || !stream_flag || !has_rows || !has_cols) {
      return Poison(Status::InvalidArgument(
          "first stream frame is not a {\"stream\":true,...} header"));
    }
    if (op != "matrix") {
      return Poison(Status::InvalidArgument(
          "streamed op \"" + op + "\" is not \"matrix\""));
    }
    // Division, not rows * cols: the product of two hostile 64-bit fields
    // can wrap to a small (even zero) entry count.
    if (cols != 0 && rows > kMaxStreamResultEntries / cols) {
      return Poison(Status::InvalidArgument(
          "stream header's " + std::to_string(rows) + " x " +
          std::to_string(cols) + " matrix exceeds the stream cap of " +
          std::to_string(kMaxStreamResultEntries) + " entries"));
    }
    header_seen_ = true;
    rows_ = rows;
    cols_ = cols;
    dists_.reserve(static_cast<size_t>(rows_ * cols_));
    return Status::Ok();
  }
  if (done_flag) {
    const uint64_t expected = rows_ * cols_;
    if (dists_.size() != expected) {
      return Poison(Status::InvalidArgument(
          "done trailer after " + std::to_string(dists_.size()) + " of " +
          std::to_string(expected) + " entries"));
    }
    if (has_chunks && chunks != chunks_) {
      return Poison(Status::InvalidArgument(
          "done trailer counts " + std::to_string(chunks) +
          " chunks; client saw " + std::to_string(chunks_)));
    }
    if (has_entries && entries != expected) {
      return Poison(Status::InvalidArgument(
          "done trailer counts " + std::to_string(entries) +
          " entries; header promised " + std::to_string(expected)));
    }
    done_ = true;
    return Status::Ok();
  }
  if (!has_chunk) {
    return Poison(Status::InvalidArgument(
        "stream continuation is neither a chunk nor a done trailer"));
  }
  if (chunk != chunks_) {
    return Poison(Status::InvalidArgument(
        "out-of-order chunk " + std::to_string(chunk) + " (expected " +
        std::to_string(chunks_) + ")"));
  }
  if (has_count && count != frame_dists.size()) {
    return Poison(Status::InvalidArgument(
        "chunk " + std::to_string(chunk) + " declares " +
        std::to_string(count) + " entries but carries " +
        std::to_string(frame_dists.size())));
  }
  if (dists_.size() + frame_dists.size() > rows_ * cols_) {
    return Poison(Status::InvalidArgument(
        "chunk " + std::to_string(chunk) +
        " overflows the header's rows*cols"));
  }
  dists_.insert(dists_.end(), frame_dists.begin(), frame_dists.end());
  ++chunks_;
  return Status::Ok();
}

}  // namespace hc2l
