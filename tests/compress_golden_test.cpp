// Golden pins for the CBZ1 compressor and the CBD1 codecs that feed it.
//
// The compressor's hot loops (LZ77 match search, Huffman decode) are free to
// change shape, but never the bytes they produce: a deployed client decodes
// whatever the server emitted, and Table II's byte accounting is only
// comparable across versions if the wire is. These tests compress a seeded
// corpus and pin a crc32 over every output. The corpus covers real CBD1
// deltas between pages of the three Table II catalog sites (encoded with the
// hash-chain and the correcting codec, each pinned on its own), the empty
// input, stored-block input, run-heavy input, inputs spanning several 256 KiB
// blocks, and non-default search effort.
//
// A change to any pinned value is a wire-format change, not a refactor.
//
// The decode-side tests below run every truncation and a set of invalid
// Huffman streams through decompress() and decompress_into().

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compress/bitio.hpp"
#include "compress/compressor.hpp"
#include "delta/delta.hpp"
#include "table2_sites.hpp"
#include "trace/site.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace cbde::compress {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

using testdata::table2_sites;

/// CBD1 deltas between Table II pages: per site, a few temporal deltas
/// (same page, later snapshot, another user) and cross-document deltas
/// (another page of the same category), all against the category's first
/// page.
std::vector<Bytes> table2_deltas(const delta::DeltaParams& params) {
  std::vector<Bytes> deltas;
  for (const trace::SiteConfig& config : table2_sites()) {
    const trace::SiteModel site(config);
    for (std::size_t cat = 0; cat < site.num_categories(); ++cat) {
      const Bytes base = site.generate({cat, 0}, 1, 0);
      const delta::Encoder encoder(base, params);
      for (std::size_t i = 0; i < 3; ++i) {
        const auto user = static_cast<std::uint64_t>(2 + cat * 7 + i);
        const util::SimTime t = static_cast<util::SimTime>(i + 1) * 45 * util::kSecond;
        deltas.push_back(encoder.encode(as_view(site.generate({cat, 0}, user, t))).delta);
        deltas.push_back(encoder.encode(as_view(site.generate({cat, 1 + i}, user, t))).delta);
      }
    }
  }
  return deltas;
}

Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

/// Inputs that are not deltas: every block flavor and size class the
/// compressor handles.
std::vector<Bytes> synthetic_corpus() {
  util::Rng rng(20020702);
  std::vector<Bytes> corpus;
  corpus.emplace_back();                                   // empty
  corpus.push_back(to_bytes("a"));                         // one byte
  corpus.push_back(to_bytes("abcabcabcabcabcabcabc"));     // tiny, overlapping
  corpus.push_back(random_bytes(rng, 3000));               // stored block
  corpus.push_back(Bytes(70000, 'r'));                     // run-heavy
  std::string words;
  static constexpr std::string_view kVocab[] = {"<td>", "</td>", "price ", "widget ",
                                                "<div class=\"row\">", "\n", "$", "0"};
  while (words.size() < 600 * 1024) words += kVocab[rng.next_below(8)];
  corpus.push_back(to_bytes(words.substr(0, 20000)));      // text, one block
  corpus.push_back(to_bytes(words));                       // text, three blocks
  Bytes mixed;                                             // stored + coded blocks
  util::append(mixed, as_view(random_bytes(rng, 300 * 1024)));
  util::append(mixed, as_view(to_bytes(words.substr(0, 100 * 1024))));
  corpus.push_back(std::move(mixed));
  return corpus;
}

std::uint32_t crc_of_outputs(const std::vector<Bytes>& inputs, const CompressParams& params) {
  Bytes all;
  for (const Bytes& input : inputs) {
    const Bytes packed = compress(as_view(input), params);
    EXPECT_EQ(decompress(as_view(packed)), input);
    util::append(all, as_view(packed));
  }
  return util::crc32(as_view(all));
}

std::uint32_t crc_of_inputs(const std::vector<Bytes>& inputs) {
  Bytes all;
  for (const Bytes& input : inputs) util::append(all, as_view(input));
  return util::crc32(as_view(all));
}

TEST(CompressGolden, TableTwoDeltasArePinned) {
  const std::vector<Bytes> hash_chain = table2_deltas(delta::DeltaParams::full());
  const std::vector<Bytes> correcting = table2_deltas(delta::DeltaParams::correcting());
  ASSERT_EQ(hash_chain.size(), 54u);
  // The deltas themselves: the rolling matcher's footprint table may change
  // layout, never the COPY/ADD stream it yields.
  EXPECT_EQ(crc_of_inputs(hash_chain), 0x18F187F9u);
  EXPECT_EQ(crc_of_inputs(correcting), 0x64568F28u);
  // Their CBZ1 encodings at the server's default effort.
  EXPECT_EQ(crc_of_outputs(hash_chain, {}), 0xC861B15Eu);
  EXPECT_EQ(crc_of_outputs(correcting, {}), 0x409BCBD3u);
}

TEST(CompressGolden, SyntheticCorpusIsPinned) {
  const std::vector<Bytes> corpus = synthetic_corpus();
  EXPECT_EQ(crc_of_outputs(corpus, {}), 0x1087282Cu);
  // Shallow and exhaustive search exercise the chain-limit and early-exit
  // paths of the match finder.
  EXPECT_EQ(crc_of_outputs(corpus, CompressParams{4, 8}), 0x0F27F7BBu);
  EXPECT_EQ(crc_of_outputs(corpus, CompressParams{1024, 258}), 0x5054718Eu);
}

// ------------------------------------------------------------ decode side

Bytes sample_page_delta() {
  const std::vector<Bytes> deltas = table2_deltas(delta::DeltaParams::correcting());
  return deltas[1];
}

void expect_rejected(util::BytesView wire) {
  EXPECT_THROW((void)decompress(wire), CorruptInput);
  Bytes reused(17, 0xEE);
  EXPECT_THROW(decompress_into(wire, reused), CorruptInput);
}

TEST(CompressDecode, EveryTruncationRejected) {
  for (const Bytes& input : {sample_page_delta(), Bytes(5000, 'z'), to_bytes("x")}) {
    const Bytes packed = compress(as_view(input));
    for (std::size_t n = 0; n < packed.size(); ++n) {
      SCOPED_TRACE(n);
      expect_rejected(as_view(packed).subspan(0, n));
    }
  }
}

/// Wrap a hand-built Huffman block (flags byte plus bitstream) in a CBZ1
/// header claiming `size` output bytes.
Bytes framed(const Bytes& block, std::size_t size) {
  Bytes out = to_bytes("CBZ1");
  out.push_back(static_cast<std::uint8_t>(size));  // one-byte uvarint
  for (int i = 0; i < 4; ++i) out.push_back(0);     // crc: never reached
  util::append(out, as_view(block));
  return out;
}

/// A final Huffman block whose code-length header gives `lit` to literal
/// symbols 'a' and 'b' and `eob` to end-of-block, then `tail` bits.
Bytes huffman_block(std::uint8_t lit, std::uint8_t eob, std::uint32_t tail, int tail_bits) {
  Bytes block{0x03};
  BitWriter w(block);
  for (std::size_t s = 0; s < 286; ++s) {
    std::uint8_t len = 0;
    if (s == 'a' || s == 'b') len = lit;
    if (s == 256) len = eob;
    w.write_bits(len, 4);
  }
  for (std::size_t s = 0; s < 30; ++s) w.write_bits(0, 4);
  w.write_bits(tail, tail_bits);
  w.align_to_byte();
  w.write_bits(0, 8);  // slack so the failure is the code, not the end
  return block;
}

TEST(CompressDecode, InvalidCodesRejected) {
  // Incomplete code {a:2, b:2, eob:2}: "11" is unassigned.
  expect_rejected(as_view(framed(huffman_block(2, 2, 0b11, 2), 0)));
  // Over-subscribed code {a:1, b:1, eob:1}: three one-bit codes.
  expect_rejected(as_view(framed(huffman_block(1, 1, 0b0, 1), 1)));
  // A length symbol with no distance code at all (every distance length 0).
  {
    Bytes block{0x03};
    BitWriter w(block);
    for (std::size_t s = 0; s < 286; ++s) w.write_bits(s == 257 || s == 256 ? 1 : 0, 4);
    for (std::size_t s = 0; s < 30; ++s) w.write_bits(0, 4);
    w.write_bits(0b1, 1);  // symbol 257 (length 3), then a distance
    w.align_to_byte();
    w.write_bits(0, 8);
    expect_rejected(as_view(framed(block, 3)));
  }
  // A valid code whose stream decodes past the declared size.
  expect_rejected(as_view(framed(huffman_block(2, 1, 0b10, 2), 0)));
  // Code lengths only (no symbol at all): the stream ends inside the header.
  {
    Bytes block{0x03};
    BitWriter w(block);
    for (std::size_t s = 0; s < 100; ++s) w.write_bits(1, 4);
    w.align_to_byte();
    expect_rejected(as_view(framed(block, 0)));
  }
}

TEST(CompressDecode, LongCodesDecode) {
  // Symbols past the decoder's lookup-table width: a 286-symbol alphabet
  // with geometric frequencies gives codes up to the 15-bit limit.
  Bytes input;
  util::Rng rng(11);
  for (int i = 0; i < 40000; ++i) {
    std::size_t s = 0;
    while (s < 60 && rng.next_below(4) != 0) ++s;
    input.push_back(static_cast<std::uint8_t>(s * 4));
  }
  const Bytes packed = compress(as_view(input));
  EXPECT_EQ(decompress(as_view(packed)), input);
  Bytes reused(3, 1);
  decompress_into(as_view(packed), reused);
  EXPECT_EQ(reused, input);
}

}  // namespace
}  // namespace cbde::compress
