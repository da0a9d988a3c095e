#pragma once
// Shared helpers for the sysrle test suite.

#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rle/encode.hpp"
#include "rle/rle_row.hpp"
#include "workload/rng.hpp"

namespace sysrle::testing {

/// Generates a random bitstring row of the given width and foreground
/// probability, returned in RLE form (canonical by construction).
inline RleRow random_row(Rng& rng, pos_t width, double density) {
  std::string bits(static_cast<std::size_t>(width), '0');
  for (auto& c : bits)
    if (rng.bernoulli(density)) c = '1';
  return encode_bitstring(bits);
}

/// Reference XOR through uncompressed strings — deliberately independent of
/// every compressed-domain code path under test.
inline RleRow reference_xor(const RleRow& a, const RleRow& b, pos_t width) {
  const std::string sa = decode_bitstring(a, width);
  const std::string sb = decode_bitstring(b, width);
  std::string out(static_cast<std::size_t>(width), '0');
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = sa[i] != sb[i] ? '1' : '0';
  return encode_bitstring(out);
}

/// Lower-case hex of a byte string, for pinning on-disk formats.
inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// ------------------------------------------------------------- JSON parsing
//
// Minimal strict JSON reader for validating the telemetry layer's output.
// Deliberately independent of JsonWriter (a shared serialiser cannot verify
// itself).  Throws std::runtime_error on malformed input.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }

  const JsonValue& at(const std::string& key) const {
    const JsonValue* v = find(key);
    if (!v) throw std::runtime_error("json: missing key '" + key + "'");
    return *v;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          const unsigned long cp = std::strtoul(hex.c_str(), nullptr, 16);
          // Only the ASCII/control range is ever produced by json_escape.
          if (cp > 0x7f) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue parse_null() {
    if (text_.substr(pos_, 4) != "null") fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) fail("bad number");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parses a complete JSON document (throws std::runtime_error on error).
inline JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace sysrle::testing
