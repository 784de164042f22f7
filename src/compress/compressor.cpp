#include "compress/compressor.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "compress/bitio.hpp"
#include "compress/huffman.hpp"
#include "compress/lz77.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

namespace cbde::compress {
namespace {

constexpr std::size_t kNumLitLen = 286;  // 0-255 literals, 256 EOB, 257-285 lengths
constexpr std::size_t kNumDist = 30;
constexpr std::size_t kEob = 256;
constexpr std::size_t kBlockSize = 256 * 1024;

constexpr std::uint8_t kFlagFinal = 0x01;
constexpr std::uint8_t kFlagHuffman = 0x02;

// DEFLATE length code table: code 257+i covers lengths [base[i], base[i]+2^extra[i]).
constexpr std::array<std::uint16_t, 29> kLenBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, 29> kLenExtra = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                                    1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                                    4, 4, 4, 4, 5, 5, 5, 5, 0};

// DEFLATE distance code table.
constexpr std::array<std::uint16_t, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<std::uint8_t, 30> kDistExtra = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                                     4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                                     9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

/// Last index whose base is <= v: the DEFLATE code of value v.
template <std::size_t M>
constexpr std::uint8_t code_of(const std::array<std::uint16_t, M>& base, std::size_t v) {
  std::size_t code = 0;
  while (code + 1 < M && base[code + 1] <= v) ++code;
  return static_cast<std::uint8_t>(code);
}

/// Code lookups computed at compile time, so emitting a token costs two
/// loads instead of two binary searches. Distances use zlib's 512-entry
/// folding: every distance base above 256 is 1 + a multiple of 128, so
/// (dist - 1) >> 7 identifies the code there.
constexpr auto kLengthCode = [] {
  std::array<std::uint8_t, kMaxMatch + 1> table{};
  for (std::size_t len = kMinMatch; len <= kMaxMatch; ++len) table[len] = code_of(kLenBase, len);
  return table;
}();
constexpr auto kDistanceCode = [] {
  std::array<std::uint8_t, 512> table{};
  for (std::size_t d = 0; d < 256; ++d) table[d] = code_of(kDistBase, d + 1);
  for (std::size_t d = 256; d < 512; ++d) table[d] = code_of(kDistBase, ((d - 256) << 7) + 1);
  return table;
}();

std::size_t length_code(std::size_t len) {
  CBDE_ASSERT(len >= kMinMatch && len <= kMaxMatch);
  return kLengthCode[len];
}

std::size_t distance_code(std::size_t dist) {
  CBDE_ASSERT(dist >= 1 && dist <= kWindowSize);
  return dist <= 256 ? kDistanceCode[dist - 1] : kDistanceCode[256 + ((dist - 1) >> 7)];
}

void write_lengths_nibbles(BitWriter& w, const std::vector<std::uint8_t>& lengths) {
  for (auto len : lengths) w.write_bits(len, 4);
}

template <std::size_t N>
std::array<std::uint8_t, N> read_lengths_nibbles(BitReader& r) {
  std::array<std::uint8_t, N> lengths;
  for (auto& len : lengths) len = static_cast<std::uint8_t>(r.read_bits(4));
  return lengths;
}

/// Append the `len`-byte match `dist` bytes back. Non-overlapping matches
/// are one memcpy; an overlapping one (dist < len, a run) repeats its
/// period, which a forward byte copy does by construction.
void copy_match(util::Bytes& out, std::size_t dist, std::size_t len) {
  const std::size_t old_size = out.size();
  out.resize(old_size + len);
  std::uint8_t* dst = out.data() + old_size;
  const std::uint8_t* src = dst - dist;
  if (dist >= len) {
    std::memcpy(dst, src, len);
  } else {
    for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
  }
}

/// Decode one Huffman block's tables and token stream into `out`.
void decode_huffman_block(BitReader& r, util::Bytes& out, std::size_t declared) {
  const auto lit_lengths = read_lengths_nibbles<kNumLitLen>(r);
  const auto dist_lengths = read_lengths_nibbles<kNumDist>(r);
  const HuffmanDecoder lit_dec(lit_lengths);
  const HuffmanDecoder dist_dec(dist_lengths);
  while (true) {
    const std::size_t sym = lit_dec.decode(r);
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));  // lint: growth-ok decompress_into reserved the declared size
      continue;
    }
    if (sym == kEob) return;
    const std::size_t lc = sym - 257;
    if (lc >= kLenBase.size()) throw CorruptInput("cbz: bad length code");
    const std::size_t len = kLenBase[lc] + r.read_bits(kLenExtra[lc]);
    const std::size_t dc = dist_dec.decode(r);
    if (dc >= kDistBase.size()) throw CorruptInput("cbz: bad distance code");
    const std::size_t dist = kDistBase[dc] + r.read_bits(kDistExtra[dc]);
    if (dist == 0 || dist > out.size()) throw CorruptInput("cbz: distance out of range");
    if (out.size() + len > declared) throw CorruptInput("cbz: output exceeds declared size");
    copy_match(out, dist, len);
  }
}

/// Emit one block. Falls back to a stored block if the Huffman encoding
/// would be larger than the raw bytes.
void emit_block(util::Bytes& out, util::BytesView block, bool final,
                const CompressParams& params) {
  const auto tokens = lz77_tokenize(block, Lz77Params{params.max_chain, params.good_enough});

  // Stack-allocated frequency tables (2.5 KB): the old per-block vectors
  // were two heap allocations on every 256 KB of every compressed response.
  std::array<std::uint64_t, kNumLitLen> lit_freq{};
  std::array<std::uint64_t, kNumDist> dist_freq{};
  lit_freq[kEob] = 1;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      ++lit_freq[t.literal];
    } else {
      ++lit_freq[257 + length_code(t.length)];
      ++dist_freq[distance_code(t.distance)];
    }
  }
  const auto lit_lengths = build_code_lengths(lit_freq);
  const auto dist_lengths = build_code_lengths(dist_freq);

  util::Bytes coded;  // alloc: ok(block-sized output buffer, reserved once below)
  coded.reserve(block.size() / 2 + (kNumLitLen + kNumDist) / 2 + 16);
  {
    BitWriter w(coded);
    write_lengths_nibbles(w, lit_lengths);
    write_lengths_nibbles(w, dist_lengths);
    HuffmanEncoder lit_enc(lit_lengths);
    HuffmanEncoder dist_enc(dist_lengths);
    for (const Token& t : tokens) {
      if (t.length == 0) {
        lit_enc.encode(w, t.literal);
      } else {
        const std::size_t lc = length_code(t.length);
        lit_enc.encode(w, 257 + lc);
        w.write_bits(static_cast<std::uint32_t>(t.length - kLenBase[lc]), kLenExtra[lc]);
        const std::size_t dc = distance_code(t.distance);
        dist_enc.encode(w, dc);
        w.write_bits(static_cast<std::uint32_t>(t.distance - kDistBase[dc]), kDistExtra[dc]);
      }
    }
    lit_enc.encode(w, kEob);
    w.align_to_byte();
  }

  if (coded.size() < block.size()) {
    out.push_back(static_cast<std::uint8_t>((final ? kFlagFinal : 0) | kFlagHuffman));
    util::append(out, util::as_view(coded));
  } else {
    out.push_back(static_cast<std::uint8_t>(final ? kFlagFinal : 0));
    util::put_uvarint(out, block.size());
    util::append(out, block);
  }
}

}  // namespace

util::Bytes compress(util::BytesView input, const CompressParams& params) {
  // Anything larger could never round-trip through decompress()'s decode cap.
  CBDE_EXPECT(input.size() <= kMaxDecompressSize);
  util::Bytes out;
  out.reserve(input.size() / 3 + 32);
  util::append(out, std::string_view("CBZ1"));
  util::put_uvarint(out, input.size());
  const std::uint32_t crc = util::crc32(input);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));

  if (input.empty()) {
    out.push_back(kFlagFinal);  // stored, zero-length final block
    util::put_uvarint(out, 0);
    return out;
  }
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::size_t len = std::min(kBlockSize, input.size() - pos);
    const bool final = pos + len == input.size();
    emit_block(out, input.subspan(pos, len), final, params);
    pos += len;
  }
  // Header (magic + size varint + crc) plus at least one block byte.
  CBDE_ENSURE(out.size() > 9);
  return out;
}

util::Bytes decompress(util::BytesView input) {
  util::Bytes out;
  decompress_into(input, out);
  return out;
}

void decompress_into(util::BytesView input, util::Bytes& out) {
  std::size_t pos = 0;
  if (input.size() < 9 || util::as_string_view(input.subspan(0, 4)) != "CBZ1") {
    throw CorruptInput("cbz: bad magic");
  }
  pos = 4;
  const auto size = util::get_uvarint(input, pos);
  if (!size) throw CorruptInput("cbz: bad size varint");
  if (*size > kMaxDecompressSize) throw CorruptInput("cbz: claimed size exceeds decode cap");
  if (pos + 4 > input.size()) throw CorruptInput("cbz: truncated header");
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(input[pos++]) << (8 * i);

  out.clear();
  out.reserve(static_cast<std::size_t>(*size));
  bool final = false;
  while (!final) {
    if (pos >= input.size()) throw CorruptInput("cbz: missing block");
    const std::uint8_t flags = input[pos++];
    final = (flags & kFlagFinal) != 0;
    if ((flags & kFlagHuffman) == 0) {
      const auto len = util::get_uvarint(input, pos);
      // Subtraction-form bound: `pos + *len` wraps for 64-bit length claims.
      if (!len || *len > input.size() - pos) throw CorruptInput("cbz: bad stored block");
      util::append(out, input.subspan(pos, static_cast<std::size_t>(*len)));
      pos += static_cast<std::size_t>(*len);
      continue;
    }
    BitReader r(input.subspan(pos));
    try {
      decode_huffman_block(r, out, static_cast<std::size_t>(*size));
    } catch (const std::invalid_argument& e) {
      throw CorruptInput(std::string("cbz: ") + e.what());
    }
    r.align_to_byte();
    pos += r.position();
  }
  if (out.size() != *size) throw CorruptInput("cbz: size mismatch");
  if (util::crc32(util::as_view(out)) != crc) throw CorruptInput("cbz: checksum mismatch");
  CBDE_ENSURE(out.size() <= kMaxDecompressSize);
}

std::size_t compressed_size(util::BytesView input, const CompressParams& params) {
  return compress(input, params).size();
}

}  // namespace cbde::compress
