#ifndef HC2L_BENCHSUPPORT_BENCH_JSON_H_
#define HC2L_BENCHSUPPORT_BENCH_JSON_H_

#include <string>

namespace hc2l {

/// Merges one bench's section into the JSON snapshot at `path`
/// (BENCH_query.json) as the top-level `key`, `section` being the value's
/// JSON text. A present key has its value replaced where it stands, a new
/// key is appended before the closing brace, and every other member is
/// kept, whatever order the benches ran in. A missing or empty file starts
/// a fresh object. The file must be laid out as the benches write it: one
/// `"key": value` top-level member per line, indented two spaces. Returns
/// false, saying why on stderr, when it is not (the file is then left as it
/// was) or cannot be written.
[[nodiscard]] bool MergeBenchSection(const std::string& path,
                                     const std::string& key,
                                     const std::string& section);

}  // namespace hc2l

#endif  // HC2L_BENCHSUPPORT_BENCH_JSON_H_
