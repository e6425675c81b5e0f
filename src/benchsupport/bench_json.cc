#include "benchsupport/bench_json.h"

#include <cstdio>
#include <fstream>
#include <iterator>

namespace hc2l {

namespace {

/// Where a top-level member starts in the layout every bench writes: a line
/// indented by exactly two spaces that opens with the key's quote (nested
/// members sit deeper or on their parent's line).
constexpr char kMemberStart[] = "\n  \"";
constexpr size_t kNone = std::string::npos;

/// `json` with `key` set to `section`, or "" when `json` is not laid out as
/// an object of such members.
std::string Merged(std::string json, const std::string& key,
                   const std::string& section) {
  const std::string member = kMemberStart + key + "\": ";
  if (json.find_first_not_of(" \t\r\n") == kNone) {
    return "{" + member + section + "\n}\n";
  }
  const size_t close = json.rfind("\n}");
  if (close == kNone || json.find(kMemberStart) == kNone) return "";
  const size_t at = json.find(member);
  if (at == kNone) {
    return json.substr(0, close) + "," + member + section + "\n}\n";
  }
  // The value runs up to the comma before the next member, or to the
  // closing brace.
  const size_t value = at + member.size();
  size_t end = json.find(kMemberStart, value);
  end = end == kNone ? close : json.rfind(',', end);
  return json.replace(value, end - value, section);
}

}  // namespace

bool MergeBenchSection(const std::string& path, const std::string& key,
                       const std::string& section) {
  std::ifstream in(path, std::ios::binary);  // missing: read as empty
  const std::string merged =
      Merged({std::istreambuf_iterator<char>(in), {}}, key, section);
  if (merged.empty()) {
    std::fprintf(stderr, "cannot merge \"%s\" into %s: not a JSON object\n",
                 key.c_str(), path.c_str());
    return false;
  }
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!(out << merged).flush()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace hc2l
