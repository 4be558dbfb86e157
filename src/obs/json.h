// Minimal streaming JSON writer shared by every machine-readable artifact
// the project emits: Chrome trace files, jobReportJson(), and the bench
// BENCH_*.json result files. Commas, quoting, and escaping are handled by a
// state stack so call sites read like the document they produce; misuse
// (value without a key inside an object, close of the wrong container) trips
// check() rather than writing invalid JSON.
//
// parseJson() is the one reader: `scishuffle_cli stat` reads metrics files
// with it, and the tests read every artifact back with it. It is strict, so
// a writer that emits malformed JSON fails the tests that read its output.
#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "io/common.h"

namespace scishuffle::obs {

/// JSON string escaping (quotes, backslash, control characters).
std::string jsonEscape(std::string_view s);

class JsonWriter {
 public:
  /// `pretty` inserts newlines and two-space indentation.
  explicit JsonWriter(std::ostream& os, bool pretty = true);

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Member key inside an object; must be followed by a value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) { return value(std::string_view(v)); }
  JsonWriter& value(u64 v);
  JsonWriter& value(i64 v);
  JsonWriter& value(u32 v) { return value(static_cast<u64>(v)); }
  JsonWriter& value(int v) { return value(static_cast<i64>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& valueNull();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// True once the root container has been closed.
  bool done() const { return rootClosed_; }

 private:
  struct Level {
    bool array = false;
    std::size_t members = 0;
  };

  void beforeValue();  // comma / indent bookkeeping shared by all emitters
  void newlineIndent(std::size_t depth);
  void raw(std::string_view text) { (*os_) << text; }

  std::ostream* os_;
  bool pretty_;
  bool rootClosed_ = false;
  bool keyPending_ = false;
  std::vector<Level> stack_;
};

/// One parsed JSON value. Numbers are doubles: what the project writes is
/// u64 counts, i64s and doubles, and a count past 2^53 reads back rounded.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue, std::less<>> object;

  /// The member named `key`; nullptr when this is not an object or has none.
  const JsonValue* find(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }
  /// The member named `key`; throws FormatError naming it when absent.
  const JsonValue& at(std::string_view key) const;
  /// The number as a u64; throws FormatError unless this is a number in
  /// [0, 2^64) with no fractional part.
  u64 asU64() const;
};

/// Parses one JSON document (RFC 8259) and throws FormatError naming the
/// byte offset of the first error. Rejected: trailing characters, duplicate
/// object keys, raw control characters in strings, unknown escapes, numbers
/// off the JSON grammar (a leading '+' or zero, "1.2.3", "1-2", "1e5e5") or
/// out of double range, and nesting deeper than 256. A `\u00XX` escape
/// decodes to the byte XX (JsonWriter escapes only control characters); any
/// other `\u` escape is rejected.
JsonValue parseJson(std::string_view text);

}  // namespace scishuffle::obs
