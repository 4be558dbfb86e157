// LZ77 match finding with hash chains (32 KiB window, min match 3, max 258 —
// the classic deflate parameterization).
#pragma once

#include <vector>

#include "io/common.h"

namespace scishuffle::lz77 {

constexpr std::size_t kWindowSize = 32 * 1024;
constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;

/// A parsed token: either a literal byte (length == 0) or a back-reference
/// (length in [kMinMatch, kMaxMatch], distance in [1, kWindowSize]).
struct Token {
  u32 length = 0;    // 0 => literal
  u32 distance = 0;  // valid when length > 0
  u8 literal = 0;    // valid when length == 0
};

/// Effort/ratio trade-off, mirroring zlib's compression levels.
struct ParseOptions {
  int max_chain_length = 128;  // hash-chain probes per position
  bool lazy = true;            // defer a match if the next position matches longer
  int good_match = 128;        // stop chain-walking once a match this long is found
                               // (zlib's nice_length early exit)

  /// zlib-style presets: level in [1, 9].
  static ParseOptions forLevel(int level);
};

/// Greedy-with-lazy-evaluation parse of `data` into tokens.
std::vector<Token> parse(ByteSpan data, const ParseOptions& options = {});

/// As above, but appends into a caller-owned vector.
void parse(ByteSpan data, const ParseOptions& options, std::vector<Token>& out);

/// Expands a token stream back into bytes (used by tests; the deflate decoder
/// inlines the same logic).
Bytes expand(const std::vector<Token>& tokens);

}  // namespace scishuffle::lz77
