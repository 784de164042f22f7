#include "compress/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/contracts.hpp"

namespace cbde::compress {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

inline std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of 3 bytes.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of `a` and `b`, at most `limit`; compares
/// eight bytes per step and locates the first difference in the last word.
inline std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t limit) {
  std::size_t n = 0;
  while (n + 8 <= limit) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return n + static_cast<std::size_t>(std::countr_zero(diff) >> 3);
      } else {
        return n + static_cast<std::size_t>(std::countl_zero(diff) >> 3);
      }
    }
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// Reusable per-thread hash-chain tables (the same epoch-stamp idiom as the
/// delta encoder's SelfScratch): the 256 KB head/prev pair used to be two
/// heap allocations plus a 128 KB zeroing on *every* tokenize call — one per
/// 256 KB block of every compressed response. A head entry is live only if
/// its stamp matches the current epoch, so reuse costs nothing per call.
struct ChainScratch {
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> prev;
  std::uint32_t epoch = 0;
};

ChainScratch& chain_scratch() {
  thread_local ChainScratch scratch;
  return scratch;
}

}  // namespace

std::vector<Token> lz77_tokenize(util::BytesView input, const Lz77Params& params) {
  std::vector<Token> tokens;  // alloc: ok(token stream is the function's output)
  const std::size_t n = input.size();
  if (n == 0) return tokens;
  tokens.reserve(n / 4);

  // head[h] = most recent position with hash h (+1; 0 = none, i.e. a stale
  // stamp). prev[i % window] = previous position with the same hash as i
  // (+1); only values taken from a live head entry are ever stored, so prev
  // needs no stamps of its own.
  ChainScratch& scratch = chain_scratch();
  if (scratch.head.empty()) {
    scratch.head.assign(kHashSize, 0);
    scratch.stamp.assign(kHashSize, 0);
    scratch.prev.assign(kWindowSize, 0);
  }
  if (++scratch.epoch == 0) {  // stamp wrap: invalidate everything once
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0u);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  std::uint32_t* const head = scratch.head.data();
  std::uint32_t* const stamp = scratch.stamp.data();
  std::uint32_t* const prev = scratch.prev.data();
  const auto live_head = [&](std::uint32_t h) -> std::uint32_t {
    return stamp[h] == epoch ? head[h] : 0;
  };

  const std::uint8_t* data = input.data();
  std::size_t pos = 0;
  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= n) {
      const std::uint32_t h = hash3(data + pos);
      std::uint32_t cand = live_head(h);
      std::size_t chain = params.max_chain;
      const std::size_t limit = std::min(kMaxMatch, n - pos);
      while (cand != 0 && chain-- > 0) {
        const std::size_t cpos = cand - 1;
        if (pos - cpos > kWindowSize) break;
        // zlib's scan_end test: a candidate that differs at best_len (or at
        // its first byte, a hash collision) cannot beat the current best,
        // so skip the full comparison. best_len < limit here, or the loop
        // would have stopped.
        if (data[cpos + best_len] == data[pos + best_len] && data[cpos] == data[pos]) {
          const std::size_t len = match_length(data + cpos, data + pos, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = pos - cpos;
            if (len >= params.good_enough || len == limit) break;
          }
        }
        cand = prev[cpos % kWindowSize];
      }
      prev[pos % kWindowSize] = live_head(h);
      head[h] = static_cast<std::uint32_t>(pos + 1);
      stamp[h] = epoch;
    }

    if (best_len >= kMinMatch) {
      tokens.push_back(Token{static_cast<std::uint16_t>(best_len),
                             static_cast<std::uint16_t>(best_dist), 0});
      // Insert hash entries for the skipped positions so later matches can
      // reference into this match.
      const std::size_t end = std::min(pos + best_len, n >= kMinMatch ? n - kMinMatch + 1 : 0);
      for (std::size_t i = pos + 1; i < end; ++i) {
        const std::uint32_t h2 = hash3(data + i);
        prev[i % kWindowSize] = live_head(h2);
        head[h2] = static_cast<std::uint32_t>(i + 1);
        stamp[h2] = epoch;
      }
      pos += best_len;
    } else {
      tokens.push_back(Token{0, 0, data[pos]});
      ++pos;
    }
  }
  return tokens;
}

util::Bytes lz77_reconstruct(const std::vector<Token>& tokens) {
  util::Bytes out;
  std::size_t total = 0;
  for (const Token& t : tokens) total += t.length == 0 ? 1 : t.length;
  out.reserve(total);
  for (const Token& t : tokens) {
    if (t.length == 0) {
      out.push_back(t.literal);
    } else {
      CBDE_EXPECT(t.distance >= 1 && t.distance <= out.size());
      const std::size_t start = out.size() - t.distance;
      for (std::size_t i = 0; i < t.length; ++i) {
        out.push_back(out[start + i]);  // may overlap; byte-by-byte is correct
      }
    }
  }
  return out;
}

}  // namespace cbde::compress
