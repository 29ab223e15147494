// JSON emission helpers for the observability exporters: escaped strings
// and round-trip numbers. Reading JSON back is a test-only concern
// (tests/json_parse.h). No external dependencies is the point.
//
// Thread-safety: pure functions with no shared state.
#ifndef SRC_OBS_JSON_UTIL_H_
#define SRC_OBS_JSON_UTIL_H_

#include <ostream>
#include <string_view>

namespace cki {

// Writes `s` as a quoted JSON string, escaping control and quote chars.
void WriteJsonString(std::ostream& os, std::string_view s);

// Writes `v` in its shortest round-trip form; NaN and infinities, which
// JSON cannot represent, become null.
void WriteJsonNumber(std::ostream& os, double v);

}  // namespace cki

#endif  // SRC_OBS_JSON_UTIL_H_
