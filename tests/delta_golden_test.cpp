// Golden pins for the hash-chain matcher (DeltaParams::Codec::kHashChain).
//
// The base index behind delta::Encoder may change layout, never the
// candidates it yields: for every probe, the indexed base positions whose
// chunk hash equals the probe's, in increasing position, up to max_chain.
// Every light estimate (grouping, base-file selection) and every full delta
// follows from that sequence, so these tests encode a seeded corpus and pin
// a crc32 over everything an encode decides: the delta bytes, the per-chunk
// coverage the anonymizer counts, and the size-only estimate. The values
// were recorded before the index was resized to its base.
//
// Comparing the cached Encoder with the one-shot encode() cannot catch a
// drift here: both sides share the same index.
//
// A change to any pinned value is a matcher change, not a refactor.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string_view>
#include <vector>

#include "delta/delta.hpp"
#include "table2_sites.hpp"
#include "trace/site.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace cbde::delta {
namespace {

using util::Bytes;
using util::BytesView;
using util::as_view;

/// Appends what one encode decides to `all`: the size-only estimate, the
/// delta, and the chunk coverage bitmap. Also checks that the estimate is
/// exact and that the delta applies back to the target.
void absorb(Bytes& all, const Encoder& encoder, BytesView target) {
  const EncodeResult result = encoder.encode(target);
  const std::size_t size = encoder.encode_size(target);
  EXPECT_EQ(size, result.delta.size());
  EXPECT_EQ(apply(as_view(encoder.base()), as_view(result.delta)),
            Bytes(target.begin(), target.end()));
  for (int i = 0; i < 4; ++i) all.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
  util::append(all, as_view(result.delta));
  for (const bool used : result.chunk_used) all.push_back(used ? 1 : 0);
}

std::uint32_t crc_of(const Bytes& all) { return util::crc32(as_view(all)); }

/// Per Table II site and category, against the category's first page:
/// temporal pairs (same page, later snapshot, another user), same-category
/// pairs (another page of the category) and cross-category pairs (a page of
/// the next category).
std::uint32_t table2_crc(const DeltaParams& params) {
  Bytes all;
  for (const trace::SiteConfig& config : testdata::table2_sites()) {
    const trace::SiteModel site(config);
    const std::size_t categories = site.num_categories();
    for (std::size_t cat = 0; cat < categories; ++cat) {
      const Encoder encoder(site.generate({cat, 0}, 1, 0), params);
      for (std::size_t i = 0; i < 3; ++i) {
        const auto user = static_cast<std::uint64_t>(2 + cat * 7 + i);
        const util::SimTime t = static_cast<util::SimTime>(i + 1) * 45 * util::kSecond;
        absorb(all, encoder, as_view(site.generate({cat, 0}, user, t)));
        absorb(all, encoder, as_view(site.generate({cat, 1 + i}, user, t)));
        absorb(all, encoder, as_view(site.generate({(cat + 1) % categories, i}, user, t)));
      }
    }
  }
  return crc_of(all);
}

TEST(DeltaGolden, TableTwoLightEstimatesArePinned) {
  EXPECT_EQ(table2_crc(DeltaParams::light()), 0x1FD2DA6Fu);
}

TEST(DeltaGolden, TableTwoFullDeltasArePinned) {
  EXPECT_EQ(table2_crc(DeltaParams::full()), 0xD5CFE919u);
}

/// Text-like bytes: tokens from a small markup vocabulary broken by random
/// bytes, so hash chains hold several positions and matches of every key
/// width exist.
Bytes markup_bytes(util::Rng& rng, std::size_t size) {
  static constexpr std::array<std::string_view, 8> kVocab = {
      "<td>", "</td>", "price ", "widget ", "<div class=\"row\">", "\n", "$", "0"};
  Bytes out;
  out.reserve(size + 32);
  while (out.size() < size) {
    if (rng.next_below(4) == 0) {
      out.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    } else {
      const std::string_view word = kVocab[rng.next_below(kVocab.size())];
      out.insert(out.end(), word.begin(), word.end());
    }
  }
  out.resize(size);
  return out;
}

/// A target of `size` bytes sharing material with `base`: excerpts from
/// random base offsets interleaved with short runs of fresh bytes.
Bytes target_from(util::Rng& rng, BytesView base, std::size_t size) {
  Bytes out;
  out.reserve(size + 160);
  while (out.size() < size) {
    if (!base.empty() && rng.next_below(3) != 0) {
      const std::size_t at = rng.next_below(base.size());
      const std::size_t len = std::min<std::size_t>(base.size() - at, 1 + rng.next_below(160));
      util::append(out, base.subspan(at, len));
    } else {
      for (std::size_t n = 1 + rng.next_below(12); n > 0; --n) {
        out.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
    }
  }
  out.resize(size);
  return out;
}

/// Base sizes around every index-size boundary for (key_len, step): none,
/// below key_len (no indexed slot), exactly key_len (one slot), and for each
/// power of two n up to 2^15 slots the smallest and largest base with n
/// slots and the smallest with n + 1.
std::vector<std::size_t> boundary_sizes(std::size_t key_len, std::size_t step) {
  std::vector<std::size_t> sizes{0, key_len - 1};
  for (std::size_t n = 1; n <= (std::size_t{1} << 15); n *= 2) {
    sizes.push_back((n - 1) * step + key_len);
    sizes.push_back(n * step + key_len - 1);
    sizes.push_back(n * step + key_len);
  }
  return sizes;
}

TEST(DeltaGolden, ParameterAndSizeSweepIsPinned) {
  util::Rng rng(20020702);
  Bytes all;
  for (const std::size_t key_len : {2, 4, 8, 16}) {
    for (const std::size_t step : {1, 3, 8, 64}) {
      const std::vector<std::size_t> sizes = boundary_sizes(key_len, step);
      const Bytes text = markup_bytes(rng, sizes.back());
      for (const std::size_t size : sizes) {
        const BytesView base = as_view(text).subspan(0, size);
        const Bytes target = target_from(rng, base, std::clamp<std::size_t>(size, 64, 3000));
        for (const std::size_t max_chain : {1, 4, 32}) {
          DeltaParams params;
          params.key_len = key_len;
          params.index_step = step;
          params.max_chain = max_chain;
          params.min_match = key_len;
          params.self_reference = false;
          absorb(all, Encoder(Bytes(base.begin(), base.end()), params), as_view(target));
        }
      }
    }
  }
  EXPECT_EQ(crc_of(all), 0x91A5AB79u);
}

TEST(DeltaGolden, RepeatedWordBasesArePinned) {
  // A handful of distinct 8-byte words: every chain is far deeper than
  // max_chain, and in the small bases one bucket of a page-sized table
  // holds several distinct hashes.
  static constexpr std::array<std::string_view, 3> kWords = {"<tr><td>", "</td><td", "9.99 USD"};
  util::Rng rng(45);
  auto words = [&](std::size_t size) {
    Bytes out;
    while (out.size() < size) {
      const std::string_view word = kWords[rng.next_below(kWords.size())];
      out.insert(out.end(), word.begin(), word.end());
      if (rng.next_below(16) == 0) out.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    out.resize(size);
    return out;
  };
  Bytes all;
  for (const std::size_t size : {24, 100, 1000, 20000}) {
    const Bytes base = words(size);
    const Bytes target = words(4000);
    for (const std::size_t key_len : {4, 8, 16}) {
      for (const std::size_t step : {1, 3}) {
        for (const std::size_t max_chain : {1, 4, 32}) {
          DeltaParams params;
          params.key_len = key_len;
          params.index_step = step;
          params.max_chain = max_chain;
          params.min_match = key_len;
          absorb(all, Encoder(base, params), as_view(target));
        }
      }
    }
  }
  EXPECT_EQ(crc_of(all), 0xD44DA6A7u);
}

}  // namespace
}  // namespace cbde::delta
