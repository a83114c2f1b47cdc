#pragma once

// A deliberately small recursive-descent JSON parser: no external
// dependencies are allowed in this repo, and every input is our own
// exporter's output (Chrome trace-event files, report JSONs), so only
// the core grammar is needed — objects, arrays, strings with backslash
// escapes (`\uXXXX` decoded to UTF-8), numbers, true/false/null.
// Shared by the Chrome-trace reader (chrome_reader.cpp), the report
// reader of the --regress mode (regress.cpp) and the live-stream
// readers.  Arrays and objects nest at most kMaxDepth levels: deeper
// input is rejected with the byte offset instead of overflowing the
// recursion's stack.  A number token that strtod does not consume whole
// is rejected at its offset too, and Value::as_int range-checks every
// integer a reader takes.

#include <concepts>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nbctune::analyze::jsonmin {

struct Value;
using Object = std::vector<std::pair<std::string, Value>>;  // keeps order
using Array = std::vector<Value>;

struct Value {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj } kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::shared_ptr<Array> arr;
  std::shared_ptr<Object> obj;

  [[nodiscard]] const Value* get(const std::string& key) const {
    if (kind != Kind::Obj || !obj) return nullptr;
    for (const auto& [k, v] : *obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] double as_num(double fallback = 0.0) const {
    return kind == Kind::Num ? num : fallback;
  }
  /// The number as a T, when this is a number in T's range (truncated
  /// toward zero); nullopt for anything else.  Casting a double outside
  /// the range is undefined behaviour, so every integer a reader takes
  /// from parsed JSON comes through here.
  template <std::integral T>
  [[nodiscard]] std::optional<T> as_int() const noexcept {
    if (kind != Kind::Num ||
        !(num >= static_cast<double>(std::numeric_limits<T>::min()) &&
          num < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
      return std::nullopt;
    }
    return static_cast<T>(num);
  }
};

/// Deepest array/object nesting parse() accepts; our writers nest a
/// handful of levels.
inline constexpr int kMaxDepth = 512;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        Value v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.kind = Value::Kind::Str;
        v.str = string();
        return v;
      }
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return Value{};
      default:
        return number();
    }
  }

  void literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  Value boolean() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (peek() == 't') {
      literal("true");
      v.b = true;
    } else {
      literal("false");
    }
    return v;
  }

  Value number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a number");
    const std::string token = s_.substr(start, pos_ - start);
    char* end = nullptr;
    Value v;
    v.kind = Value::Kind::Num;
    v.num = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'u':
            append_utf8(out, code_point());
            break;
          default:
            out += e;  // \" \\ \/ and anything exotic: literal
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  /// The code point of a `\uXXXX` escape (its `\u` already consumed).
  unsigned code_point() {
    if (s_.size() - pos_ < 4) fail("bad \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return v;
  }

  /// Append `cp` (at most 0xFFFF) as UTF-8.
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Arr;
    v.arr = std::make_shared<Array>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr->push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected , or ] in array");
    }
    return v;
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Obj;
    v.obj = std::make_shared<Object>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj->emplace_back(std::move(key), value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected , or } in object");
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open around the current value
};

inline Value parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace nbctune::analyze::jsonmin
