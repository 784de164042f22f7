// Canonical Huffman coding.
//
// Code lengths are built from symbol frequencies with a standard two-queue
// Huffman construction, then limited to kMaxCodeLen bits by a Kraft-sum
// repair pass. Codes are assigned canonically (sorted by length, then
// symbol), so only the length vector needs to be transmitted.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "compress/bitio.hpp"

namespace cbde::compress {

inline constexpr int kMaxCodeLen = 15;

/// Build canonical code lengths for `freqs`. Symbols with zero frequency get
/// length 0 (absent). If fewer than two symbols occur, the occurring symbol
/// gets length 1 so the code is still decodable. Span-typed so callers can
/// count frequencies in a stack array instead of allocating a vector per
/// block (the per-request compress path does exactly that).
std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs);

/// Canonical Huffman encoder: maps symbol -> (code, length).
class HuffmanEncoder {
 public:
  /// `lengths[i]` is the code length of symbol i (0 = absent).
  explicit HuffmanEncoder(const std::vector<std::uint8_t>& lengths);

  void encode(BitWriter& w, std::size_t symbol) const;

  std::uint8_t length_of(std::size_t symbol) const { return lengths_[symbol]; }

 private:
  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> codes_;
};

/// Canonical Huffman decoder. Codes of up to kFastBits bits decode with one
/// lookup on the reader's leading bits; longer ones fall back to a
/// per-length canonical scan over the same peeked bits. All tables are
/// fixed-size members, so building a decoder allocates nothing.
class HuffmanDecoder {
 public:
  /// `lengths[i]` is the code length of symbol i (0 = absent). Throws
  /// std::invalid_argument on a length above kMaxCodeLen, an alphabet above
  /// 512 symbols, or an over-subscribed code (lengths no prefix code can
  /// have; the encoder never emits them).
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  /// Decode one symbol. Throws std::invalid_argument on an invalid code or
  /// a code running past the end of the input.
  std::size_t decode(BitReader& r) const {
    if (r.available() < kMaxCodeLen) r.refill();
    const std::uint16_t entry = fast_[r.peek(kFastBits)];
    const int len = entry >> kSymbolBits;
    if (len == 0) return decode_long(r);
    if (len > r.available()) throw std::invalid_argument("huffman: truncated code");
    r.consume(len);
    return entry & kSymbolMask;
  }

 private:
  static constexpr int kFastBits = 10;
  static constexpr int kSymbolBits = 9;  // CBZ1's largest alphabet has 286
  static constexpr std::size_t kMaxSymbols = std::size_t{1} << kSymbolBits;
  static constexpr std::uint16_t kSymbolMask = (1u << kSymbolBits) - 1;

  std::size_t decode_long(BitReader& r) const;

  // fast_[b] = (length << kSymbolBits) | symbol for the code that is a
  // prefix of the kFastBits bits b; 0 when that code is longer (or absent).
  std::uint16_t fast_[1u << kFastBits] = {};
  // For each length L: first canonical code of that length, the index into
  // symbols_ where codes of length L start, and the count of such codes.
  std::uint32_t first_code_[kMaxCodeLen + 1] = {};
  std::uint32_t first_index_[kMaxCodeLen + 1] = {};
  std::uint32_t count_[kMaxCodeLen + 1] = {};
  std::uint16_t symbols_[kMaxSymbols] = {};  // sorted by (length, symbol)
};

}  // namespace cbde::compress
