#include "compress/huffman.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/contracts.hpp"

namespace cbde::compress {
namespace {

struct Node {
  std::uint64_t freq;
  int left;    // index into node pool, -1 for leaf
  int right;   // index into node pool, -1 for leaf
  int symbol;  // valid for leaves
  int depth;   // set by assign_depths
};

/// Give every leaf its depth as code length (a lone root leaf gets 1).
/// Iterative: a merge appends its node after both children, so scanning the
/// pool backwards from the root reaches every parent before its children.
void assign_depths(std::vector<Node>& pool, std::vector<std::uint8_t>& lengths) {
  pool.back().depth = 0;
  for (std::size_t i = pool.size(); i-- > 0;) {
    const Node& n = pool[i];
    if (n.left < 0) {
      lengths[static_cast<std::size_t>(n.symbol)] =
          static_cast<std::uint8_t>(std::max(n.depth, 1));
      continue;
    }
    pool[static_cast<std::size_t>(n.left)].depth = n.depth + 1;
    pool[static_cast<std::size_t>(n.right)].depth = n.depth + 1;
  }
}

/// Clamp lengths to kMaxCodeLen and repair the Kraft inequality so a valid
/// prefix code still exists (the zlib "bit length overflow" strategy).
void limit_lengths(std::vector<std::uint8_t>& lengths) {
  std::int64_t kraft = 0;  // sum over symbols of 2^(kMaxCodeLen - len)
  constexpr std::int64_t kOne = std::int64_t{1} << kMaxCodeLen;
  for (auto& len : lengths) {
    if (len == 0) continue;
    if (len > kMaxCodeLen) len = kMaxCodeLen;
    kraft += kOne >> len;
  }
  if (kraft <= kOne) return;
  // Over-subscribed: lengthen the shortest deep codes until Kraft holds.
  while (kraft > kOne) {
    // Find a symbol with the largest length < kMaxCodeLen and bump it.
    std::size_t best = lengths.size();
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      if (lengths[i] == 0 || lengths[i] >= kMaxCodeLen) continue;
      if (best == lengths.size() || lengths[i] > lengths[best]) best = i;
    }
    CBDE_ASSERT(best < lengths.size());
    kraft -= kOne >> lengths[best];
    ++lengths[best];
    kraft += kOne >> lengths[best];
  }
}

}  // namespace

std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs) {
  std::vector<std::uint8_t> lengths(freqs.size(), 0);

  std::vector<Node> pool;
  pool.reserve(freqs.size() * 2);
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    pool.push_back({freqs[s], -1, -1, static_cast<int>(s), 0});
  }
  const std::size_t leaves = pool.size();
  if (leaves == 0) return lengths;
  if (leaves == 1) {
    lengths[static_cast<std::size_t>(pool[0].symbol)] = 1;
    return lengths;
  }
  // Two-queue construction: the leaves sorted by (freq, index), and the
  // merged nodes in creation order, which is already (freq, index) order
  // because merge sums never decrease. Taking the smaller head each time
  // merges exactly the pairs a min-heap over (freq, index) would.
  const auto before = [&](std::size_t a, std::size_t b) {
    return pool[a].freq != pool[b].freq ? pool[a].freq < pool[b].freq : a < b;
  };
  std::vector<std::size_t> order(leaves);  // alloc: ok(one per block, bounded by the alphabet size)
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), before);
  std::size_t next_leaf = 0;
  std::size_t next_merged = leaves;
  const auto take = [&]() {
    if (next_leaf < leaves && (next_merged == pool.size() || before(order[next_leaf], next_merged))) {
      return order[next_leaf++];
    }
    return next_merged++;
  };
  while ((leaves - next_leaf) + (pool.size() - next_merged) > 1) {
    const std::size_t a = take();
    const std::size_t b = take();
    // alloc: ok(pushes into the storage reserved above: n - 1 merges of n leaves)
    pool.push_back({pool[a].freq + pool[b].freq, static_cast<int>(a), static_cast<int>(b), -1, 0});
  }
  assign_depths(pool, lengths);
  limit_lengths(lengths);
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<std::uint8_t>& lengths)
    : lengths_(lengths), codes_(lengths.size(), 0) {
  // Canonical assignment: count codes per length, compute first code per
  // length, then hand out codes in symbol order.
  std::uint32_t count[kMaxCodeLen + 1] = {};
  for (auto len : lengths_) {
    CBDE_EXPECT(len <= kMaxCodeLen);
    if (len) ++count[len];
  }
  std::uint32_t next[kMaxCodeLen + 1] = {};
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s]) codes_[s] = next[lengths_[s]]++;
  }
}

void HuffmanEncoder::encode(BitWriter& w, std::size_t symbol) const {
  CBDE_EXPECT(symbol < lengths_.size() && lengths_[symbol] > 0);
  w.write_bits(codes_[symbol], lengths_[symbol]);
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  if (lengths.size() > kMaxSymbols) {
    throw std::invalid_argument("huffman: alphabet too large");
  }
  for (auto len : lengths) {
    if (len > kMaxCodeLen) throw std::invalid_argument("huffman: code length > 15");
    if (len) ++count_[len];
  }
  std::int32_t left = 1;  // unassigned codes of the current length
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    left = 2 * left - static_cast<std::int32_t>(count_[len]);
    if (left < 0) throw std::invalid_argument("huffman: over-subscribed code");
    code = (code + count_[len - 1]) << 1;
    first_code_[len] = code;
    first_index_[len] = index;
    index += count_[len];
  }
  std::uint32_t next_index[kMaxCodeLen + 1];
  std::copy(std::begin(first_index_), std::end(first_index_), next_index);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) symbols_[next_index[lengths[s]]++] = static_cast<std::uint16_t>(s);
  }
  // Canonical codes of one length are consecutive in symbol order, so each
  // short code covers one contiguous run of fast_ entries.
  for (int len = 1; len <= kFastBits; ++len) {
    const std::uint32_t span = 1u << (kFastBits - len);
    for (std::uint32_t i = 0; i < count_[len]; ++i) {
      const auto entry = static_cast<std::uint16_t>(
          (len << kSymbolBits) | symbols_[first_index_[len] + i]);
      const std::uint32_t start = (first_code_[len] + i) * span;
      std::fill_n(fast_ + start, span, entry);
    }
  }
}

std::size_t HuffmanDecoder::decode_long(BitReader& r) const {
  const std::uint32_t bits = r.peek(kMaxCodeLen);
  for (int len = kFastBits + 1; len <= kMaxCodeLen; ++len) {
    const std::uint32_t offset = (bits >> (kMaxCodeLen - len)) - first_code_[len];
    if (offset < count_[len]) {
      if (len > r.available()) throw std::invalid_argument("huffman: truncated code");
      r.consume(len);
      return symbols_[first_index_[len] + offset];
    }
  }
  throw std::invalid_argument("huffman: invalid code in stream");
}

}  // namespace cbde::compress
