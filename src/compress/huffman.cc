#include "compress/huffman.h"

#include <algorithm>
#include <numeric>

namespace scishuffle::huffman {

namespace {

/// Package-merge works over items that are either leaves (one symbol) or
/// packages (pairs of lower-level items). The historical implementation
/// carried an explicit symbol multiset per item, which allocated a vector
/// per package per level; items are now references into an arena of binary
/// nodes and the symbol counts are recovered by one traversal at the end.
struct Node {
  i32 leaf = -1;  // symbol index, or -1 for a package
  u32 left = 0;   // children (arena indices), valid when leaf < 0
  u32 right = 0;
};

struct Ref {
  u64 weight = 0;
  u32 node = 0;
};

bool weightLess(const Ref& a, const Ref& b) { return a.weight < b.weight; }

u32 reverseBits(u32 code, int length) {
  u32 reversed = 0;
  for (int i = 0; i < length; ++i) reversed = (reversed << 1) | ((code >> i) & 1u);
  return reversed;
}

}  // namespace

std::vector<u8> codeLengths(const std::vector<u64>& freqs, int maxLength) {
  const std::size_t n = freqs.size();
  std::vector<u8> lengths(n, 0);

  std::vector<Node> arena;
  std::vector<Ref> leaves;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) {
      arena.push_back(Node{static_cast<i32>(s), 0, 0});
      leaves.push_back(Ref{freqs[s], static_cast<u32>(arena.size() - 1)});
    }
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[static_cast<std::size_t>(arena[0].leaf)] = 1;
    return lengths;
  }
  check(static_cast<std::size_t>(1) << maxLength >= leaves.size(),
        "maxLength too small for alphabet");

  // Sort by (weight, symbol): ties resolve to the lower symbol, keeping the
  // construction deterministic across standard libraries.
  std::sort(leaves.begin(), leaves.end(), [&](const Ref& a, const Ref& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return arena[a.node].leaf < arena[b.node].leaf;
  });

  // Package-merge: build L lists; list[l] = merge(leaves, packages(list[l-1])).
  std::vector<Ref> current = leaves;
  std::vector<Ref> packages;
  std::vector<Ref> merged;
  for (int level = 2; level <= maxLength; ++level) {
    packages.clear();
    packages.reserve(current.size() / 2);
    for (std::size_t i = 0; i + 1 < current.size(); i += 2) {
      arena.push_back(Node{-1, current[i].node, current[i + 1].node});
      packages.push_back(
          Ref{current[i].weight + current[i + 1].weight, static_cast<u32>(arena.size() - 1)});
    }
    merged.clear();
    merged.reserve(leaves.size() + packages.size());
    std::merge(leaves.begin(), leaves.end(), packages.begin(), packages.end(),
               std::back_inserter(merged), weightLess);
    std::swap(current, merged);
  }

  // The first 2n-2 items of the final list define the code: each occurrence
  // of a symbol adds one to its code length.
  const std::size_t take = 2 * leaves.size() - 2;
  check(current.size() >= take, "package-merge underflow");
  std::vector<u32> stack;
  for (std::size_t i = 0; i < take; ++i) {
    stack.push_back(current[i].node);
    while (!stack.empty()) {
      const Node& node = arena[stack.back()];
      stack.pop_back();
      if (node.leaf >= 0) {
        ++lengths[static_cast<std::size_t>(node.leaf)];
      } else {
        stack.push_back(node.left);
        stack.push_back(node.right);
      }
    }
  }
  return lengths;
}

std::vector<u32> canonicalCodes(const std::vector<u8>& lengths) {
  int maxLen = 0;
  for (const u8 l : lengths) maxLen = std::max(maxLen, static_cast<int>(l));
  std::vector<u32> lenCount(static_cast<std::size_t>(maxLen) + 1, 0);
  for (const u8 l : lengths) {
    if (l > 0) ++lenCount[l];
  }
  std::vector<u32> nextCode(static_cast<std::size_t>(maxLen) + 1, 0);
  u32 code = 0;
  for (int l = 1; l <= maxLen; ++l) {
    code = (code + lenCount[l - 1]) << 1;
    nextCode[l] = code;
  }
  std::vector<u32> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) codes[s] = nextCode[lengths[s]]++;
  }
  return codes;
}

Encoder::Encoder(const std::vector<u8>& lengths)
    : lengths_(lengths), reversed_(canonicalCodes(lengths)) {
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] > 0) reversed_[s] = reverseBits(reversed_[s], lengths_[s]);
  }
}

Decoder::Decoder(const std::vector<u8>& lengths) {
  for (const u8 l : lengths) maxLen_ = std::max(maxLen_, static_cast<int>(l));
  checkFormat(maxLen_ > 0, "empty Huffman table");
  std::vector<u32> lenCount(static_cast<std::size_t>(maxLen_) + 1, 0);
  for (const u8 l : lengths) {
    if (l > 0) ++lenCount[l];
  }
  firstCode_.assign(static_cast<std::size_t>(maxLen_) + 1, 0);
  firstIndex_.assign(static_cast<std::size_t>(maxLen_) + 1, 0);
  u32 code = 0;
  u32 index = 0;
  for (int l = 1; l <= maxLen_; ++l) {
    code = (code + lenCount[l - 1]) << 1;
    firstCode_[l] = code;
    firstIndex_[l] = index;
    index += lenCount[l];
  }
  symbols_.resize(index);
  std::vector<u32> fill(firstIndex_);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) symbols_[fill[lengths[s]]++] = static_cast<u32>(s);
  }

  // Root table: for every code no longer than kRootBits, stamp its
  // (symbol, length) into every table slot whose low `len` bits equal the
  // code's LSB-first pattern. Symbols too wide for the packing (none of the
  // codecs here come close) just take the slow path.
  const int tableLen = std::min(maxLen_, kRootBits);
  for (int l = 1; l <= tableLen; ++l) {
    const u32 end = (l < maxLen_ ? firstIndex_[static_cast<std::size_t>(l) + 1]
                                 : static_cast<u32>(symbols_.size()));
    for (u32 i = firstIndex_[static_cast<std::size_t>(l)]; i < end; ++i) {
      const u32 sym = symbols_[i];
      if (sym >= (1u << 12)) continue;
      const u32 codeAt = firstCode_[static_cast<std::size_t>(l)] +
                         (i - firstIndex_[static_cast<std::size_t>(l)]);
      const u32 rev = reverseBits(codeAt, l);
      const u16 entry = static_cast<u16>((sym << 4) | static_cast<u32>(l));
      for (u32 idx = rev; idx < table_.size(); idx += (1u << l)) table_[idx] = entry;
    }
  }
}

namespace {

constexpr std::size_t kNumCodeLenSymbols = 19;
constexpr int kMaxCodeLenBits = 7;

// Storage order for the code-length-code lengths (RFC 1951): most frequently
// useful symbols first so trailing zeros can be trimmed.
constexpr u8 kCodeLenOrder[kNumCodeLenSymbols] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                                  11, 4,  12, 3, 13, 2, 14, 1, 15};

struct CodeLenOp {
  u8 symbol;
  u8 extra;
};

std::vector<CodeLenOp> runLengthEncode(const std::vector<u8>& lengths) {
  std::vector<CodeLenOp> ops;
  std::size_t i = 0;
  while (i < lengths.size()) {
    const u8 cur = lengths[i];
    std::size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == cur) ++run;
    if (cur == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t take = std::min<std::size_t>(left, 138);
        ops.push_back({18, static_cast<u8>(take - 11)});
        left -= take;
      }
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 10);
        ops.push_back({17, static_cast<u8>(take - 3)});
        left -= take;
      }
      while (left-- > 0) ops.push_back({0, 0});
    } else {
      ops.push_back({cur, 0});
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 6);
        ops.push_back({16, static_cast<u8>(take - 3)});
        left -= take;
      }
      while (left-- > 0) ops.push_back({cur, 0});
    }
    i += run;
  }
  return ops;
}

}  // namespace

void writeCompressedLengths(BitWriter& out, const std::vector<u8>& lengths) {
  const auto ops = runLengthEncode(lengths);
  std::vector<u64> clFreq(kNumCodeLenSymbols, 0);
  for (const auto& op : ops) ++clFreq[op.symbol];
  const auto clLengths = codeLengths(clFreq, kMaxCodeLenBits);
  const Encoder clEnc(clLengths);

  std::size_t hclen = kNumCodeLenSymbols;
  while (hclen > 4 && clLengths[kCodeLenOrder[hclen - 1]] == 0) --hclen;
  out.writeBits(static_cast<u32>(hclen - 4), 4);
  for (std::size_t i = 0; i < hclen; ++i) out.writeBits(clLengths[kCodeLenOrder[i]], 3);

  for (const auto& op : ops) {
    clEnc.encode(out, op.symbol);
    if (op.symbol == 16) out.writeBits(op.extra, 2);
    if (op.symbol == 17) out.writeBits(op.extra, 3);
    if (op.symbol == 18) out.writeBits(op.extra, 7);
  }
}

std::vector<u8> readCompressedLengths(BitSpanReader& in, std::size_t count) {
  const std::size_t hclen = in.readBits(4) + 4;
  checkFormat(hclen <= kNumCodeLenSymbols, "bad code-length count");
  std::vector<u8> clLengths(kNumCodeLenSymbols, 0);
  for (std::size_t i = 0; i < hclen; ++i) {
    clLengths[kCodeLenOrder[i]] = static_cast<u8>(in.readBits(3));
  }
  const Decoder clDec(clLengths);

  std::vector<u8> lengths;
  lengths.reserve(count);
  while (lengths.size() < count) {
    const u32 sym = clDec.decode(in);
    if (sym < 16) {
      lengths.push_back(static_cast<u8>(sym));
    } else if (sym == 16) {
      checkFormat(!lengths.empty(), "repeat with no previous length");
      const u32 rep = in.readBits(2) + 3;
      lengths.insert(lengths.end(), rep, lengths.back());
    } else if (sym == 17) {
      const u32 rep = in.readBits(3) + 3;
      lengths.insert(lengths.end(), rep, 0);
    } else {
      const u32 rep = in.readBits(7) + 11;
      lengths.insert(lengths.end(), rep, 0);
    }
  }
  checkFormat(lengths.size() == count, "code length overflow");
  return lengths;
}

}  // namespace scishuffle::huffman
