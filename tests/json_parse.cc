#include "tests/json_parse.h"

#include <cctype>
#include <cstdlib>

namespace cki {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  std::optional<JsonValue> Parse() {
    std::optional<JsonValue> v = ParseValue();
    if (!v.has_value()) {
      return std::nullopt;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return v;
  }

 private:
  std::optional<JsonValue> Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return std::nullopt;
  }

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      pos_++;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) {
      Fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out.push_back(esc);
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              Fail("truncated \\u escape");
              return std::nullopt;
            }
            // Decoded as a single replacement byte: the exporters only emit
            // ASCII, so fidelity beyond validity is not needed here.
            pos_ += 4;
            out.push_back('?');
            break;
          }
          default:
            Fail("bad escape");
            return std::nullopt;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
        return std::nullopt;
      } else {
        out.push_back(c);
      }
    }
    Fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      std::optional<std::string> s = ParseString();
      if (!s.has_value()) {
        return std::nullopt;
      }
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string_value = std::move(*s);
      return v;
    }
    if (ConsumeLiteral("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.bool_value = true;
      return v;
    }
    if (ConsumeLiteral("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (ConsumeLiteral("null")) {
      return JsonValue{};
    }
    return ParseNumber();
  }

  std::optional<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      pos_++;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      pos_++;
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("malformed number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::optional<JsonValue> ParseArray() {
    pos_++;  // '['
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) {
      return v;
    }
    while (true) {
      std::optional<JsonValue> item = ParseValue();
      if (!item.has_value()) {
        return std::nullopt;
      }
      v.items.push_back(std::move(*item));
      if (Consume(']')) {
        return v;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or ']'");
      }
    }
  }

  std::optional<JsonValue> ParseObject() {
    pos_++;  // '{'
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) {
      return v;
    }
    while (true) {
      SkipWs();
      std::optional<std::string> key = ParseString();
      if (!key.has_value()) {
        return std::nullopt;
      }
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      std::optional<JsonValue> value = ParseValue();
      if (!value.has_value()) {
        return std::nullopt;
      }
      v.members.emplace_back(std::move(*key), std::move(*value));
      if (Consume('}')) {
        return v;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or '}'");
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text, std::string* error) {
  return Parser(text, error).Parse();
}

}  // namespace cki
