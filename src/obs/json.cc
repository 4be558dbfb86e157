#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>
#include <version>

namespace scishuffle::obs {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonWriter::JsonWriter(std::ostream& os, bool pretty) : os_(&os), pretty_(pretty) {}

void JsonWriter::newlineIndent(std::size_t depth) {
  if (!pretty_) return;
  raw("\n");
  for (std::size_t i = 0; i < depth; ++i) raw("  ");
}

void JsonWriter::beforeValue() {
  check(!rootClosed_, "JsonWriter: write after the root container closed");
  if (stack_.empty()) return;  // root value
  Level& level = stack_.back();
  if (level.array) {
    if (level.members > 0) raw(",");
    newlineIndent(stack_.size());
    ++level.members;
  } else {
    // Object members are counted (and comma-separated) at key() time; a
    // value here must complete a pending key.
    check(keyPending_, "JsonWriter: object member value without a key");
    keyPending_ = false;
  }
}

JsonWriter& JsonWriter::key(std::string_view k) {
  check(!stack_.empty() && !stack_.back().array, "JsonWriter: key outside an object");
  check(!keyPending_, "JsonWriter: two keys in a row");
  Level& level = stack_.back();
  if (level.members > 0) raw(",");
  newlineIndent(stack_.size());
  ++level.members;
  raw("\"");
  raw(jsonEscape(k));
  raw(pretty_ ? "\": " : "\":");
  keyPending_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  stack_.push_back(Level{/*array=*/false});
  raw("{");
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  check(!stack_.empty() && !stack_.back().array, "JsonWriter: endObject without beginObject");
  check(!keyPending_, "JsonWriter: endObject with a dangling key");
  const bool hadMembers = stack_.back().members > 0;
  stack_.pop_back();
  if (hadMembers) newlineIndent(stack_.size());
  raw("}");
  if (stack_.empty()) rootClosed_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  stack_.push_back(Level{/*array=*/true});
  raw("[");
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  check(!stack_.empty() && stack_.back().array, "JsonWriter: endArray without beginArray");
  const bool hadMembers = stack_.back().members > 0;
  stack_.pop_back();
  if (hadMembers) newlineIndent(stack_.size());
  raw("]");
  if (stack_.empty()) rootClosed_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  raw("\"");
  raw(jsonEscape(v));
  raw("\"");
  if (stack_.empty()) rootClosed_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(u64 v) {
  beforeValue();
  (*os_) << v;
  if (stack_.empty()) rootClosed_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(i64 v) {
  beforeValue();
  (*os_) << v;
  if (stack_.empty()) rootClosed_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {
    raw("null");  // JSON has no NaN/Inf
  } else {
    // Locale-independent: snprintf("%g") obeys LC_NUMERIC and would emit a
    // decimal comma (invalid JSON) under e.g. de_DE. std::to_chars always
    // uses '.' and its default form is the shortest representation that
    // round-trips exactly, which is what the metrics round-trip tests pin.
    char buf[64];
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
#else
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    for (char* p = buf; *p != '\0'; ++p) {
      if (*p == ',') *p = '.';  // defang a decimal-comma locale
    }
    raw(buf);
#endif
  }
  if (stack_.empty()) rootClosed_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  raw(v ? "true" : "false");
  if (stack_.empty()) rootClosed_ = true;
  return *this;
}

JsonWriter& JsonWriter::valueNull() {
  beforeValue();
  raw("null");
  if (stack_.empty()) rootClosed_ = true;
  return *this;
}

// ---------------------------------------------------------------- reader

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* member = find(key);
  if (member == nullptr) throw FormatError("JSON: no member \"" + std::string(key) + "\"");
  return *member;
}

u64 JsonValue::asU64() const {
  // 2^64 is exact in a double; every double below it with no fraction fits.
  checkFormat(kind == Kind::kNumber && number >= 0 && number < 18446744073709551616.0 &&
                  number == std::floor(number),
              "JSON value is not an unsigned integer");
  return static_cast<u64>(number);
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value(0);
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw FormatError("JSON: " + what + " at offset " + std::to_string(pos_));
  }

  bool atEnd() const { return pos_ >= text_.size(); }

  char peek() const {
    if (atEnd()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  void skipWhitespace() {
    while (!atEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                        text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skipWhitespace();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      v.kind = JsonValue::Kind::kObject;
      members(v, depth);
    } else if (c == '[') {
      v.kind = JsonValue::Kind::kArray;
      elements(v, depth);
    } else if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = quoted();
    } else if (consume("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (consume("false")) {
      v.kind = JsonValue::Kind::kBool;
    } else if (!consume("null")) {
      v.kind = JsonValue::Kind::kNumber;
      v.number = number();
    }
    return v;
  }

  void members(JsonValue& v, int depth) {
    expect('{');
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skipWhitespace();
      const auto [slot, fresh] = v.object.try_emplace(quoted());
      if (!fresh) fail("duplicate key \"" + slot->first + "\"");
      skipWhitespace();
      expect(':');
      slot->second = value(depth + 1);
      skipWhitespace();
      if (peek() != ',') break;
      ++pos_;
    }
    expect('}');
  }

  void elements(JsonValue& v, int depth) {
    expect('[');
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      v.array.push_back(value(depth + 1));
      skipWhitespace();
      if (peek() != ',') break;
      ++pos_;
    }
    expect(']');
  }

  std::string quoted() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      ++pos_;
      if (c != '\\') {
        out += c;
        continue;
      }
      switch (peek()) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += escapedByte(); break;
        default: fail("unknown escape");
      }
      ++pos_;
    }
  }

  /// The four hex digits after `\u` (pos_ is on the 'u'; left on the last
  /// digit). Only \u0000-\u00ff, one byte each, are accepted.
  char escapedByte() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      const char h = peek();
      unsigned digit = 0;
      if (h >= '0' && h <= '9') {
        digit = static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
      code = code << 4 | digit;
    }
    if (code > 0xff) fail("\\u escape beyond \\u00ff");
    return static_cast<char>(code);
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, converted whole.
  double number() {
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (!atEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ > from;
    };
    const auto on = [this](char c) { return !atEnd() && text_[pos_] == c; };
    if (on('-')) ++pos_;
    if (on('0')) {
      ++pos_;
    } else if (!digits()) {
      fail("invalid value");
    }
    if (on('.')) {
      ++pos_;
      if (!digits()) fail("digit expected after '.'");
    }
    if (on('e') || on('E')) {
      ++pos_;
      if (on('+') || on('-')) ++pos_;
      if (!digits()) fail("digit expected in exponent");
    }
    double out = 0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, out);
    if (ec != std::errc() || end != last) fail("number out of range");
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parseJson(std::string_view text) { return JsonReader(text).document(); }

}  // namespace scishuffle::obs
