// Shared helpers for scishuffle tests: deterministic data generators that
// mimic the byte patterns the paper cares about, plus a strict little JSON
// parser for validating the JSON artifacts the observability layer emits
// (trace files, jobReportJson, BENCH_*.json).
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/common.h"
#include "io/primitives.h"
#include "io/streams.h"

namespace scishuffle::testing {

/// RAII temporary directory under the system temp root, removed recursively
/// on destruction. Replaces the ad-hoc create/remove_all pairs the suites
/// used to carry.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "scishuffle") {
    static std::atomic<u64> counter{0};
    std::random_device rd;
    const u64 tag = (static_cast<u64>(rd()) << 16) ^ counter.fetch_add(1);
    path_ = std::filesystem::temp_directory_path() / (prefix + "_" + std::to_string(tag));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::filesystem::path file(const std::string& name) const { return path_ / name; }

 private:
  std::filesystem::path path_;
};

inline constexpr u64 kDefaultPropertySeed = 20260806;

/// Seed for the randomized suites: SCISHUFFLE_PROP_SEED in the environment
/// overrides the fixed default, and every suite logs the seed it ran with so
/// a failure replays exactly.
inline u64 propertySeed() {
  if (const char* env = std::getenv("SCISHUFFLE_PROP_SEED")) {
    return static_cast<u64>(std::strtoull(env, nullptr, 10));
  }
  return kDefaultPropertySeed;
}

/// gtest fixture with a per-test PRNG seeded from propertySeed(); the seed is
/// recorded in the test output for replay.
class SeededRngTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = propertySeed();
    rng_.seed(seed_);
    RecordProperty("scishuffle_seed", std::to_string(seed_));
  }

  u64 seed_ = 0;
  std::mt19937_64 rng_;
};

/// FNV-1a, 64-bit: a compact, fully specified fingerprint of a byte stream
/// (the golden-digest tests pin outputs with it).
inline u64 fnv1a64(ByteSpan data) {
  u64 h = 0xcbf29ce484222325ull;
  for (const u8 b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Uniform random bytes from a fixed seed.
inline Bytes randomBytes(std::size_t n, u32 seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>(dist(rng));
  return out;
}

/// Low-entropy bytes: long runs with occasional switches.
inline Bytes runnyBytes(std::size_t n, u32 seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> value(0, 255);
  std::uniform_int_distribution<int> runLen(1, 300);
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    const u8 v = static_cast<u8>(value(rng));
    const std::size_t len = std::min<std::size_t>(static_cast<std::size_t>(runLen(rng)),
                                                  n - out.size());
    out.insert(out.end(), len, v);
  }
  return out;
}

/// The paper's canonical input: serialized int32 triples from a row-major
/// walk of an nx*ny*nz grid (Fig. 3 uses 100^3 -> 12,000,000 bytes).
inline Bytes gridWalkTriples(i32 nx, i32 ny, i32 nz) {
  Bytes out;
  out.reserve(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
              static_cast<std::size_t>(nz) * 12);
  MemorySink sink(out);
  for (i32 x = 0; x < nx; ++x) {
    for (i32 y = 0; y < ny; ++y) {
      for (i32 z = 0; z < nz; ++z) {
        writeI32(sink, x);
        writeI32(sink, y);
        writeI32(sink, z);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- JSON

/// Parsed JSON value. Numbers are kept as doubles (every number the project
/// emits fits exactly in a double or only needs approximate checks).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::out_of_range("no JSON key: " + key);
    return it->second;
  }
  u64 asU64() const { return static_cast<u64>(number); }
};

/// Strict recursive-descent parser; throws std::runtime_error on any syntax
/// error or trailing garbage. No \uXXXX decoding (the project never emits
/// non-ASCII) — the escape is preserved verbatim.
class JsonParser {
 public:
  static JsonValue parse(const std::string& text) {
    JsonParser p(text);
    const JsonValue v = p.parseValue();
    p.skipWs();
    if (p.pos_ != p.text_.size()) throw std::runtime_error("trailing JSON garbage");
    return v;
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at offset " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  bool consumeLiteral(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) throw std::runtime_error("unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("truncated \\u escape");
            out += "\\u" + text_.substr(pos_, 4);
            pos_ += 4;
            break;
          default: throw std::runtime_error("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        throw std::runtime_error("raw control character in JSON string");
      } else {
        out += c;
      }
    }
  }

  JsonValue parseValue() {
    skipWs();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      skipWs();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skipWs();
        std::string key = parseString();
        skipWs();
        expect(':');
        if (!v.object.emplace(std::move(key), parseValue()).second) {
          throw std::runtime_error("duplicate JSON object key");
        }
        skipWs();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skipWs();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(parseValue());
        skipWs();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = parseString();
      return v;
    }
    if (consumeLiteral("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consumeLiteral("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consumeLiteral("null")) return v;
    // Number.
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("invalid JSON value");
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Key stream with a variable-name prefix per key, like Fig. 2's
/// "windspeed1" records.
inline Bytes namedKeyStream(const std::string& name, i32 nx, i32 ny, float value) {
  Bytes out;
  MemorySink sink(out);
  for (i32 x = 0; x < nx; ++x) {
    for (i32 y = 0; y < ny; ++y) {
      writeText(sink, name);
      writeI32(sink, x);
      writeI32(sink, y);
      writeF32(sink, value + static_cast<float>(x + y));
    }
  }
  return out;
}

}  // namespace scishuffle::testing
