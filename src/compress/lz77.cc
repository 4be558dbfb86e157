#include "compress/lz77.h"

#include <algorithm>
#include <cstring>

#include "io/simd.h"

namespace scishuffle::lz77 {

namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

/// Knuth-multiplicative hash of 4 bytes. One 32-bit load replaces the
/// historical 3-byte shift/or assembly; requiring 4 bytes also filters out
/// candidates that could only ever yield a minimum-length match.
u32 hash4(const u8* p) { return (simd::load32le(p) * 2654435761u) >> (32 - kHashBits); }

}  // namespace

ParseOptions ParseOptions::forLevel(int level) {
  check(level >= 1 && level <= 9, "compression level must be in [1,9]");
  ParseOptions options;
  options.lazy = level >= 4;
  // Roughly zlib's chain-length and nice-length ladders.
  constexpr int kChains[10] = {0, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  constexpr int kGood[10] = {0, 8, 16, 32, 16, 32, 128, 128, 258, 258};
  options.max_chain_length = kChains[level];
  options.good_match = kGood[level];
  return options;
}

std::vector<Token> parse(ByteSpan data, const ParseOptions& options) {
  std::vector<Token> tokens;
  parse(data, options, tokens);
  return tokens;
}

void parse(ByteSpan data, const ParseOptions& options, std::vector<Token>& tokens) {
  tokens.reserve(tokens.size() + data.size() / 4);
  const std::size_t n = data.size();
  const u8* p = data.data();

  // head[h]: most recent position with hash h; prev[i % kWindowSize]:
  // previous position in the chain for position i. Positions stored +1,
  // 0 = empty. Zeroed on every parse, so output is deterministic.
  std::vector<u32> scratch(kHashSize + kWindowSize);
  u32* const head = scratch.data();
  u32* const prev = scratch.data() + kHashSize;

  // Positions closer than 4 bytes to the end cannot be hashed.
  const std::size_t hashEnd = n >= 4 ? n - 3 : 0;

  auto insert = [&](std::size_t pos) {
    if (pos >= hashEnd) return;
    const u32 h = hash4(p + pos);
    prev[pos % kWindowSize] = head[h];
    head[h] = static_cast<u32>(pos + 1);
  };

  auto findMatch = [&](std::size_t pos, u32& bestDist) -> int {
    if (pos >= hashEnd) return 0;
    const std::size_t maxLen = std::min<std::size_t>(kMaxMatch, n - pos);
    const std::size_t lowLimit = pos > kWindowSize ? pos - kWindowSize : 0;
    std::size_t bestLen = 0;
    u32 candidate = head[hash4(p + pos)];
    int chain = options.max_chain_length;
    while (candidate != 0 && chain-- > 0) {
      const std::size_t cand = candidate - 1;
      // Stop on slots older than the window: a recycled prev[] slot can point
      // at an unrelated (or future) position, and following it could cycle.
      if (cand >= pos || cand < lowLimit) break;
      // Early reject: a longer match must at least agree on the byte where
      // the current best match ends.
      if (bestLen == 0 || p[cand + bestLen] == p[pos + bestLen]) {
        const std::size_t len = simd::matchLength(p + cand, p + pos, maxLen);
        if (len > bestLen) {
          bestLen = len;
          bestDist = static_cast<u32>(pos - cand);
          if (len == maxLen || len >= static_cast<std::size_t>(options.good_match)) break;
        }
      }
      const u32 next = prev[cand % kWindowSize];
      if (next >= candidate) break;  // stale slot reuse: chains strictly decrease
      candidate = next;
    }
    return static_cast<int>(bestLen);
  };

  std::size_t pos = 0;
  int carriedLen = 0;
  u32 carriedDist = 0;
  bool haveCarried = false;
  while (pos < n) {
    u32 dist = carriedDist;
    const int len = haveCarried ? carriedLen : findMatch(pos, dist);
    haveCarried = false;
    if (len >= kMinMatch) {
      // Lazy evaluation: prefer a strictly longer match starting one byte
      // later, as deflate does, to avoid fragmenting long runs. The deferred
      // search result is carried to the next iteration instead of being
      // recomputed (the hash state is unchanged in between, so the carried
      // value is exactly what a re-search would return).
      u32 nextDist = 0;
      insert(pos);
      int nextLen = 0;
      if (options.lazy && pos + 1 < n) nextLen = findMatch(pos + 1, nextDist);
      if (nextLen > len) {
        tokens.push_back(Token{0, 0, p[pos]});
        ++pos;
        carriedLen = nextLen;
        carriedDist = nextDist;
        haveCarried = true;
        continue;
      }
      tokens.push_back(Token{static_cast<u32>(len), dist, 0});
      // Register all covered positions so later matches can reference them.
      for (std::size_t k = pos + 1; k < pos + static_cast<std::size_t>(len); ++k) insert(k);
      pos += static_cast<std::size_t>(len);
    } else {
      insert(pos);
      tokens.push_back(Token{0, 0, p[pos]});
      ++pos;
    }
  }
}

Bytes expand(const std::vector<Token>& tokens) {
  Bytes out;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      out.push_back(t.literal);
    } else {
      checkFormat(t.distance <= out.size(), "LZ77 distance beyond output");
      const std::size_t start = out.size() - t.distance;
      for (u32 i = 0; i < t.length; ++i) out.push_back(out[start + i]);
    }
  }
  return out;
}

}  // namespace scishuffle::lz77
