// Test-only JSON reader: a small recursive-descent parser used to check
// that emitted documents (metrics dumps, Chrome traces, bench results) are
// well-formed and to read values back in golden tests. Not a general JSON
// library. The writers live in src/obs/json_util.h.
//
// Thread-safety: ParseJson is re-entrant; a JsonValue is a plain value
// type owned by whoever parsed it.
#ifndef TESTS_JSON_PARSE_H_
#define TESTS_JSON_PARSE_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cki {

// Parsed JSON value (tree of variants).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0;
  std::string string_value;
  std::vector<JsonValue> items;                              // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Parses a complete JSON document. Returns nullopt (and sets `error` if
// given) on malformed input or trailing garbage.
std::optional<JsonValue> ParseJson(std::string_view text, std::string* error = nullptr);

}  // namespace cki

#endif  // TESTS_JSON_PARSE_H_
