#include <gtest/gtest.h>

#include <string>

#include "delta/delta.hpp"
#include "trace/document.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace cbde::delta {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

// ------------------------------------------------------------ round trips

TEST(Delta, IdenticalFilesGiveTinyDelta) {
  const Bytes doc = to_bytes(std::string(20000, 'q') + "tail content here");
  const auto result = encode(as_view(doc), as_view(doc));
  EXPECT_EQ(apply(as_view(doc), as_view(result.delta)), doc);
  EXPECT_LT(result.delta.size(), 64u);  // header + one COPY
  EXPECT_EQ(result.add_bytes, 0u);
  EXPECT_EQ(result.copy_bytes, doc.size());
}

TEST(Delta, EmptyTargetAndEmptyBase) {
  const Bytes base = to_bytes("some base content");
  const auto r1 = encode(as_view(base), {});
  EXPECT_TRUE(apply(as_view(base), as_view(r1.delta)).empty());

  const Bytes target = to_bytes("fresh content with no base");
  const auto r2 = encode({}, as_view(target));
  EXPECT_EQ(apply({}, as_view(r2.delta)), target);
  EXPECT_EQ(r2.copy_bytes, 0u);  // nothing to copy from
}

TEST(Delta, SmallEditProducesSmallDelta) {
  std::string s(40000, ' ');
  util::Rng rng(1);
  for (auto& c : s) c = static_cast<char>('a' + rng.next_below(26));
  Bytes base = to_bytes(s);
  Bytes target = base;
  // Edit 3 disjoint spots.
  for (std::size_t pos : {100u, 20000u, 39000u}) {
    for (std::size_t i = 0; i < 20; ++i) target[pos + i] = 'Z';
  }
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
  EXPECT_LT(result.delta.size(), 300u);
}

class DeltaParamsRoundTrip : public ::testing::TestWithParam<DeltaParams> {};

TEST_P(DeltaParamsRoundTrip, AdversarialCorpora) {
  const DeltaParams params = GetParam();
  const std::vector<std::pair<Bytes, Bytes>> cases = {
      {to_bytes("abcdefgh"), to_bytes("abcdefgh")},
      {to_bytes("aaaaaaaaaaaaaaaa"), to_bytes("aaaabaaaabaaaab")},
      {random_bytes(1, 5000), random_bytes(2, 5000)},            // unrelated
      {random_bytes(3, 5000), random_bytes(3, 5000)},            // identical random
      {to_bytes(""), random_bytes(4, 100)},                      // empty base
      {random_bytes(5, 100), to_bytes("")},                      // empty target
      {to_bytes("short"), random_bytes(6, 50000)},               // tiny base
      {random_bytes(7, 50000), to_bytes("short")},               // tiny target
      {to_bytes(std::string(1000, 'x')), to_bytes(std::string(3000, 'x'))},
  };
  for (const auto& [base, target] : cases) {
    const auto result = encode(as_view(base), as_view(target), params);
    EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
    EXPECT_EQ(result.copy_bytes + result.add_bytes, target.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, DeltaParamsRoundTrip,
                         ::testing::Values(DeltaParams::full(), DeltaParams::light(),
                                           DeltaParams{2, 1, 64, true},
                                           DeltaParams{16, 16, 2, false},
                                           DeltaParams{4, 1, 1, false}));

TEST(Delta, RandomizedRoundTripSweep) {
  util::Rng rng(12345);
  for (int trial = 0; trial < 60; ++trial) {
    // Base and target share structure: common prefix pool mutated randomly.
    const std::size_t n = 200 + rng.next_below(8000);
    Bytes base = random_bytes(rng.next_u64(), n);
    Bytes target = base;
    const std::size_t edits = rng.next_below(20);
    for (std::size_t e = 0; e < edits && !target.empty(); ++e) {
      const std::size_t pos = rng.next_below(target.size());
      switch (rng.next_below(3)) {
        case 0: target[pos] ^= 0xFF; break;
        case 1:
          target.insert(target.begin() + static_cast<std::ptrdiff_t>(pos),
                        static_cast<std::uint8_t>(rng.next_below(256)));
          break;
        default: target.erase(target.begin() + static_cast<std::ptrdiff_t>(pos)); break;
      }
    }
    const auto result = encode(as_view(base), as_view(target));
    ASSERT_EQ(apply(as_view(base), as_view(result.delta)), target) << "trial " << trial;
  }
}

// ------------------------------------------------------------ variants

TEST(Delta, BackwardExtensionImprovesDelta) {
  // A long match whose hash-indexed start sits after a modified byte:
  // backward extension converts the literal run before the match into COPY.
  util::Rng rng(9);
  Bytes base(30000);
  for (auto& b : base) b = static_cast<std::uint8_t>('a' + rng.next_below(26));
  Bytes target = base;
  target[0] ^= 0x01;  // only byte 0 differs
  DeltaParams fwd = DeltaParams::full();
  fwd.backward_extend = false;
  const auto with = encode(as_view(base), as_view(target));
  const auto without = encode(as_view(base), as_view(target), fwd);
  EXPECT_LE(with.delta.size(), without.delta.size());
  EXPECT_EQ(apply(as_view(base), as_view(with.delta)), target);
  EXPECT_EQ(apply(as_view(base), as_view(without.delta)), target);
}

TEST(Delta, LightVariantIsCoarserButOrdersSimilarity) {
  // Light deltas may be larger, but they must still rank a near document
  // below a far one — that is all grouping needs.
  const trace::DocumentTemplate tmpl(42, trace::TemplateConfig{});
  const Bytes doc_a = tmpl.generate(1, 100, 0);
  const Bytes doc_b = tmpl.generate(1, 100, 1 * util::kSecond);  // near: same doc
  const trace::DocumentTemplate other(43, trace::TemplateConfig{});
  const Bytes doc_c = other.generate(99, 200, 0);  // far: different template

  const auto near_size = estimate_delta_size(as_view(doc_a), as_view(doc_b));
  const auto far_size = estimate_delta_size(as_view(doc_a), as_view(doc_c));
  EXPECT_LT(near_size * 3, far_size);

  const auto full_near = encode(as_view(doc_a), as_view(doc_b)).delta.size();
  EXPECT_LE(full_near, near_size * 3);  // light is coarser, not wildly off
}

TEST(Delta, CoverageMarksSharedChunksOnly) {
  // Base = A B where only A appears in the target.
  const std::string shared(4096, 's');
  const std::string unique_part = "UNIQ" + std::string(4092, 'u');
  const Bytes base = to_bytes(shared + unique_part);
  const Bytes target = to_bytes("prefix " + shared + " suffix");
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);

  const std::size_t shared_chunks = shared.size() / kAnonChunkSize;
  std::size_t covered_shared = 0;
  for (std::size_t c = 0; c < shared_chunks; ++c) covered_shared += result.chunk_used[c];
  EXPECT_GT(covered_shared, shared_chunks * 9 / 10);

  // Chunks wholly inside the unique half must not be marked.
  for (std::size_t c = shared_chunks + 1; c < result.chunk_used.size() - 1; ++c) {
    EXPECT_FALSE(result.chunk_used[c]) << "chunk " << c;
  }
}

TEST(Delta, CoverageSizeMatchesBase) {
  const Bytes base = random_bytes(11, 1001);  // non-multiple of 4
  const auto result = encode(as_view(base), as_view(base));
  EXPECT_EQ(result.chunk_used.size(), (base.size() + 3) / 4);
}

// ------------------------------------------------------------ self-reference

TEST(Delta, SelfReferenceCompressesRepetitiveTargets) {
  // A run-heavy target with an unrelated base: Vdelta's target matching
  // turns it into one small self-copy chain.
  const Bytes base = to_bytes("completely unrelated base text");
  const Bytes target(20000, 'x');
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
  EXPECT_LT(result.delta.size(), 256u);

  DeltaParams no_self = DeltaParams::full();
  no_self.self_reference = false;
  const auto plain = encode(as_view(base), as_view(target), no_self);
  EXPECT_EQ(apply(as_view(base), as_view(plain.delta)), target);
  EXPECT_LT(result.delta.size(), plain.delta.size());
}

TEST(Delta, SelfReferenceWorksWithEmptyBase) {
  std::string s;
  for (int i = 0; i < 300; ++i) s += "<item>repeated catalog row</item>\n";
  const Bytes target = to_bytes(s);
  const auto result = encode({}, as_view(target));
  EXPECT_EQ(apply({}, as_view(result.delta)), target);
  EXPECT_LT(result.delta.size(), target.size() / 10);
}

TEST(Delta, SelfCopiesDoNotPolluteBaseCoverage) {
  // Coverage feeds the anonymizer and must reflect *base* commonality only.
  const Bytes base = to_bytes(std::string(4096, 'b') + "shared-tail-content");
  std::string s(4096, 'b');
  s += "unique ";
  for (int i = 0; i < 100; ++i) s += "selfselfself";
  const Bytes target = to_bytes(s);
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
  // The trailing base chunks ("shared-tail-content") never matched: the
  // self-copies must not have marked them.
  bool tail_marked = false;
  for (std::size_t c = 1024; c < result.chunk_used.size(); ++c) {
    tail_marked |= result.chunk_used[c];
  }
  EXPECT_FALSE(tail_marked);
}

TEST(Delta, OverlappingSelfCopyRoundTrips) {
  // Period-3 run: self-copy distance smaller than length.
  const Bytes base = to_bytes("zz");
  std::string s = "abc";
  while (s.size() < 5000) s += "abc";
  const Bytes target = to_bytes(s);
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
}

TEST(Delta, MaliciousSelfCopyRejected) {
  // Hand-craft a delta whose self-copy references the unwritten frontier.
  const Bytes base = to_bytes("0123456789");
  util::Bytes delta;
  util::append(delta, std::string_view("CBD1"));
  util::put_uvarint(delta, base.size());
  util::put_uvarint(delta, 100);  // claimed target size
  for (int i = 0; i < 8; ++i) delta.push_back(0);  // crcs (wrong, but later)
  util::put_uvarint(delta, (50u << 1) | 1);        // COPY len 50
  util::put_uvarint(delta, base.size() + 5);       // self addr 5 > frontier 0
  EXPECT_THROW(apply(as_view(base), as_view(delta)), CorruptDelta);
}

// ------------------------------------------------------------ validation

TEST(Delta, ApplyRejectsWrongBase) {
  const Bytes base = to_bytes(std::string(5000, 'a') + "END");
  const Bytes target = to_bytes(std::string(5000, 'a') + "end");
  const auto result = encode(as_view(base), as_view(target));
  Bytes wrong = base;
  wrong[10] ^= 1;
  EXPECT_THROW(apply(as_view(wrong), as_view(result.delta)), CorruptDelta);
}

TEST(Delta, ApplyRejectsTamperedDelta) {
  const Bytes base = random_bytes(21, 4000);
  Bytes target = base;
  target[5] ^= 0xFF;
  auto result = encode(as_view(base), as_view(target));
  int rejected = 0;
  for (std::size_t pos = 4; pos < result.delta.size(); pos += result.delta.size() / 9) {
    Bytes damaged = result.delta;
    damaged[pos] ^= 0x20;
    try {
      const Bytes out = apply(as_view(base), as_view(damaged));
      EXPECT_EQ(out, target);  // only acceptable if the flip was immaterial
    } catch (const CorruptDelta&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(Delta, ApplyRejectsGarbage) {
  const Bytes base = to_bytes("base");
  EXPECT_THROW(apply(as_view(base), as_view(to_bytes("not a delta"))), CorruptDelta);
  EXPECT_THROW(apply(as_view(base), {}), CorruptDelta);
}

TEST(Delta, InspectReportsHeader) {
  const Bytes base = random_bytes(31, 1234);
  const Bytes target = random_bytes(32, 777);
  const auto result = encode(as_view(base), as_view(target));
  const DeltaInfo info = inspect(as_view(result.delta));
  EXPECT_EQ(info.base_size, base.size());
  EXPECT_EQ(info.target_size, target.size());
  EXPECT_EQ(info.base_crc, util::crc32(as_view(base)));
  EXPECT_EQ(info.target_crc, util::crc32(as_view(target)));
}

TEST(Delta, BadParamsRejected) {
  const Bytes d = to_bytes("x");
  EXPECT_THROW(encode(as_view(d), as_view(d), DeltaParams{1, 1, 1, false}),
               std::invalid_argument);
  EXPECT_THROW(encode(as_view(d), as_view(d), DeltaParams{4, 0, 1, false}),
               std::invalid_argument);
  EXPECT_THROW(encode(as_view(d), as_view(d), DeltaParams{4, 1, 0, false}),
               std::invalid_argument);
}

// ------------------------------------------------------------ cached encoder

/// Fixed corpus exercising every matcher path: template documents (temporal
/// + cross-document deltas), adversarial shapes, self-reference, empties.
std::vector<std::pair<Bytes, Bytes>> golden_corpus() {
  const trace::DocumentTemplate tmpl(7, trace::TemplateConfig{});
  const trace::DocumentTemplate other(43, trace::TemplateConfig{});
  std::string run3 = "abc";
  while (run3.size() < 5000) run3 += "abc";
  return {
      {tmpl.generate(0, 1, 0), tmpl.generate(0, 1, 120 * util::kSecond)},
      {tmpl.generate(0, 1, 0), tmpl.generate(3, 9, 120 * util::kSecond)},
      {tmpl.generate(0, 1, 0), other.generate(99, 200, 0)},
      {random_bytes(1, 5000), random_bytes(2, 5000)},
      {random_bytes(3, 5000), random_bytes(3, 5000)},
      {to_bytes(""), random_bytes(4, 1000)},
      {random_bytes(5, 1000), to_bytes("")},
      {to_bytes("zz"), to_bytes(run3)},
      {to_bytes(std::string(1000, 'x')), to_bytes(std::string(3000, 'x'))},
  };
}

TEST(Encoder, GoldenByteIdenticalToOneShotAndRoundTrips) {
  // The cached-index encoder must be a pure amortization: for every corpus
  // pair and both parameterizations its output is byte-for-byte the one-shot
  // encode() output, encode_size() is exact, and the delta applies back to
  // the target bit-exactly.
  for (const DeltaParams& params : {DeltaParams::full(), DeltaParams::light()}) {
    for (const auto& [base, target] : golden_corpus()) {
      const auto one_shot = encode(as_view(base), as_view(target), params);
      const Encoder cached(base, params);
      const auto from_cache = cached.encode(as_view(target));
      EXPECT_EQ(from_cache.delta, one_shot.delta);
      EXPECT_EQ(from_cache.chunk_used, one_shot.chunk_used);
      EXPECT_EQ(from_cache.copy_bytes, one_shot.copy_bytes);
      EXPECT_EQ(from_cache.add_bytes, one_shot.add_bytes);
      EXPECT_EQ(cached.encode_size(as_view(target)), one_shot.delta.size());
      EXPECT_EQ(apply(as_view(base), as_view(from_cache.delta)), target);
      // Deterministic: re-encoding through the same cached index (reused
      // thread-local scratch) cannot change a byte.
      EXPECT_EQ(cached.encode(as_view(target)).delta, one_shot.delta);
    }
  }
}

TEST(Encoder, ReportsBaseAndCrc) {
  const Bytes base = random_bytes(77, 4096);
  const Encoder encoder(base);
  EXPECT_EQ(encoder.base(), base);
  EXPECT_EQ(encoder.base_crc(), util::crc32(as_view(base)));
  EXPECT_EQ(encoder.params().key_len, DeltaParams::full().key_len);
}

TEST(Encoder, EstimateDeltaSizeMatchesEncodeExactly) {
  // estimate_delta_size() now runs the size-only sink: it must equal the
  // materialized light encode, not approximate it.
  for (const auto& [base, target] : golden_corpus()) {
    EXPECT_EQ(estimate_delta_size(as_view(base), as_view(target)),
              encode(as_view(base), as_view(target), DeltaParams::light()).delta.size());
  }
}

TEST(Encoder, IndexSizedToBase) {
  // A light index over a 45 KB page (5 760 indexed slots at index_step 8)
  // fits in 128 KiB; a fixed 2^17-bucket head table alone was 512 KiB.
  const Bytes page = random_bytes(91, 45 * 1024);
  EXPECT_LE(Encoder(page, DeltaParams::light()).index_bytes(), std::size_t{128} << 10);
  // A full() index is never larger than that fixed table plus one 4-byte
  // link per indexed position.
  for (const std::size_t size : {100, 31 * 1024, 45 * 1024, 200 * 1024}) {
    const Bytes base = random_bytes(size, size);
    const std::size_t slots = size - DeltaParams::full().key_len + 1;
    EXPECT_LE(Encoder(base, DeltaParams::full()).index_bytes(),
              ((std::size_t{1} << 17) + slots) * sizeof(std::uint32_t))
        << size;
  }
  // No indexable position, no table.
  for (const DeltaParams& params : {DeltaParams::full(), DeltaParams::light()}) {
    EXPECT_EQ(Encoder(Bytes{}, params).index_bytes(), 0u);
    EXPECT_EQ(Encoder(random_bytes(5, params.key_len - 1), params).index_bytes(), 0u);
  }
}

TEST(Delta, ValidateReportsBadParams) {
  EXPECT_FALSE(validate(DeltaParams::full()).has_value());
  EXPECT_FALSE(validate(DeltaParams::light()).has_value());
  EXPECT_TRUE(validate(DeltaParams{1, 1, 1, false}).has_value());   // key_len < 2
  EXPECT_TRUE(validate(DeltaParams{4, 0, 1, false}).has_value());   // step 0
  EXPECT_TRUE(validate(DeltaParams{4, 1, 0, false}).has_value());   // chain 0
  DeltaParams tiny_match = DeltaParams::full();
  tiny_match.min_match = 2;  // below key_len
  EXPECT_TRUE(validate(tiny_match).has_value());
}

TEST(Delta, NonOverlappingSelfCopyBulkPathRoundTrips) {
  // Self-copy whose source span is entirely behind the frontier: apply()
  // takes the bulk memcpy path. Repeat a 1 KB block so matches are long and
  // strictly non-overlapping.
  const Bytes block = random_bytes(91, 1024);
  Bytes target;
  for (int i = 0; i < 16; ++i) util::append(target, as_view(block));
  const auto result = encode({}, as_view(target));
  EXPECT_EQ(apply({}, as_view(result.delta)), target);
  EXPECT_LT(result.delta.size(), 2048u);
}

// ------------------------------------------------------------ paper-scale behaviour

TEST(Delta, TemporalSnapshotsProduceSmallDeltas) {
  // Consecutive snapshots of one dynamic document: delta should be a small
  // fraction of the document (the §II premise).
  const trace::DocumentTemplate tmpl(7, trace::TemplateConfig{});
  const Bytes snap1 = tmpl.generate(5, 77, 0);
  const Bytes snap2 = tmpl.generate(5, 77, 10 * util::kSecond);
  const auto result = encode(as_view(snap1), as_view(snap2));
  EXPECT_EQ(apply(as_view(snap1), as_view(result.delta)), snap2);
  EXPECT_LT(result.delta.size() * 5, snap2.size());
}

// ------------------------------------------- golden self-reference semantics
//
// The CBD1 superstring convention (COPY addresses >= base_size read the
// target's own already-decoded prefix, overlapping spans decode byte-wise
// forward) is load-bearing for three consumers: apply_into's bulk-memcpy
// fast path, the delta-IR lifter, and the in-place executor. These goldens
// pin the semantics against a byte-at-a-time reference decoder so a future
// "optimization" of any bulk path cannot silently change them.

/// COPY/ADD spec for hand-assembling a CBD1 stream.
struct GoldenInst {
  bool is_copy = false;
  std::size_t addr = 0;  // wire address (superstring convention)
  std::string literal;   // ADD payload
  std::size_t len = 0;   // COPY length
};

/// The reference decoder: strictly byte-at-a-time, no bulk copies at all.
Bytes reference_decode(util::BytesView base, const std::vector<GoldenInst>& insts) {
  Bytes out;
  for (const GoldenInst& inst : insts) {
    if (!inst.is_copy) {
      for (const char c : inst.literal) out.push_back(static_cast<std::uint8_t>(c));
    } else if (inst.addr >= base.size()) {
      const std::size_t taddr = inst.addr - base.size();
      for (std::size_t i = 0; i < inst.len; ++i) out.push_back(out[taddr + i]);
    } else {
      for (std::size_t i = 0; i < inst.len; ++i) out.push_back(base[inst.addr + i]);
    }
  }
  return out;
}

Bytes assemble_cbd1(util::BytesView base, const std::vector<GoldenInst>& insts,
                    const Bytes& target) {
  Bytes delta;
  util::append(delta, std::string_view("CBD1"));
  util::put_uvarint(delta, base.size());
  util::put_uvarint(delta, target.size());
  const std::uint32_t base_crc = util::crc32(base);
  const std::uint32_t target_crc = util::crc32(as_view(target));
  for (int i = 0; i < 4; ++i) delta.push_back(static_cast<std::uint8_t>(base_crc >> (8 * i)));
  for (int i = 0; i < 4; ++i) {
    delta.push_back(static_cast<std::uint8_t>(target_crc >> (8 * i)));
  }
  for (const GoldenInst& inst : insts) {
    if (inst.is_copy) {
      util::put_uvarint(delta, (inst.len << 1) | 1);
      util::put_uvarint(delta, inst.addr);
    } else {
      util::put_uvarint(delta, inst.literal.size() << 1);
      util::append(delta, std::string_view(inst.literal));
    }
  }
  return delta;
}

void expect_golden(util::BytesView base, const std::vector<GoldenInst>& insts,
                   const std::string& expected) {
  const Bytes target = reference_decode(base, insts);
  ASSERT_EQ(util::as_string_view(as_view(target)), expected);
  const Bytes delta = assemble_cbd1(base, insts, target);
  Bytes out;
  apply_into(base, as_view(delta), out);  // the bulk path under test
  EXPECT_EQ(out, target);
}

TEST(Delta, GoldenSelfCopyAtExactBaseBoundary) {
  // addr == base_size is the first superstring address: target offset 0.
  // One below it is the last base byte. The two must not alias.
  const Bytes base = to_bytes("ABCDEFGH");
  expect_golden(as_view(base),
                {GoldenInst{false, 0, "xy", 0},
                 GoldenInst{true, 8, "", 2},    // superstring: target[0, 2) = "xy"
                 GoldenInst{true, 7, "", 1}},   // base: base[7] = "H"
                "xyxyH");
}

TEST(Delta, GoldenOverlappingSelfCopyActsAsRunGenerator) {
  // len far beyond the decode frontier: each byte reads one the same COPY
  // just produced (the run-like convention the bulk path must reproduce by
  // splitting at the frontier).
  const Bytes base = to_bytes("ABCDEFGH");
  expect_golden(as_view(base), {GoldenInst{false, 0, "ab", 0}, GoldenInst{true, 8, "", 10}},
                "abababababab");  // 2 seed + 10 amplified bytes
  // Period-1: single seeded byte amplified.
  expect_golden(as_view(base), {GoldenInst{false, 0, "q", 0}, GoldenInst{true, 8, "", 7}},
                "qqqqqqqq");
}

TEST(Delta, GoldenNonOverlappingSelfCopyUsesDecodedPrefix) {
  const Bytes base = to_bytes("ABCDEFGH");
  expect_golden(as_view(base),
                {GoldenInst{false, 0, "hello ", 0},
                 GoldenInst{true, 8, "", 5},  // "hello" again, fully decoded
                 GoldenInst{true, 0, "", 3}}, // then base "ABC"
                "hello helloABC");
}

TEST(Delta, GoldenMixedBaseAndSelfCopiesMatchReference) {
  // A denser program mixing every addressing flavour; compared wholesale
  // against the byte-at-a-time reference rather than a pinned literal.
  const Bytes base = to_bytes("The quick brown fox jumps over the lazy dog");
  const std::vector<GoldenInst> insts = {
      GoldenInst{true, 4, "", 6},                 // "quick "
      GoldenInst{false, 0, "--", 0},              //
      GoldenInst{true, base.size() + 0, "", 8},   // self: copies "quick --"
      GoldenInst{true, base.size() + 2, "", 20},  // overlapping self-run
      GoldenInst{true, 35, "", 8},                // "lazy dog"
  };
  const Bytes target = reference_decode(as_view(base), insts);
  const Bytes delta = assemble_cbd1(as_view(base), insts, target);
  Bytes out;
  apply_into(as_view(base), as_view(delta), out);
  EXPECT_EQ(out, target);
  EXPECT_EQ(apply(as_view(base), as_view(delta)), target);
}

TEST(Delta, ApplyIntoWithStoredBaseCrc) {
  util::Rng rng(41);
  Bytes base(2000);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next_below(256));
  Bytes target = base;
  target[500] ^= 0xFF;
  const Bytes delta = encode(as_view(base), as_view(target)).delta;
  const std::uint32_t crc = util::crc32(as_view(base));
  Bytes out;
  apply_into(as_view(base), crc, as_view(delta), out);
  EXPECT_EQ(out, target);

  // A base whose crc does not match the header's is rejected as before.
  EXPECT_THROW(apply_into(as_view(base), crc ^ 1u, as_view(delta), out), CorruptDelta);
  Bytes other = base;
  other[1500] ^= 0x20;  // inside a COPY from the base
  EXPECT_THROW(apply_into(as_view(other), util::crc32(as_view(other)), as_view(delta), out),
               CorruptDelta);
  // A caller vouching for the wrong bytes with the right crc still fails:
  // the target crc is verified on every apply.
  EXPECT_THROW(apply_into(as_view(other), crc, as_view(delta), out), CorruptDelta);
}

TEST(Delta, GoldenSelfCopyPastFrontierRejected) {
  // A self-copy may start at most at the frontier; one past it reads a byte
  // that does not exist yet in any decode order.
  const Bytes base = to_bytes("ABCDEFGH");
  const std::vector<GoldenInst> insts = {GoldenInst{false, 0, "xy", 0},
                                         GoldenInst{true, 8 + 2, "", 3}};
  Bytes forged;  // target claim is arbitrary: decode must fail before checksum
  forged.assign(5, 'z');
  const Bytes delta = assemble_cbd1(as_view(base), insts, forged);
  Bytes out;
  EXPECT_THROW(apply_into(as_view(base), as_view(delta), out), CorruptDelta);
}

TEST(Delta, SpatialNeighborsProduceModerateDeltas) {
  // Different documents of one category share the template skeleton: the
  // delta should be far smaller than the document but larger than the
  // temporal delta (the class-based premise).
  const trace::DocumentTemplate tmpl(7, trace::TemplateConfig{});
  const Bytes doc_a = tmpl.generate(5, 77, 0);
  const Bytes doc_b = tmpl.generate(6, 88, 0);
  const auto cross = encode(as_view(doc_a), as_view(doc_b));
  EXPECT_EQ(apply(as_view(doc_a), as_view(cross.delta)), doc_b);
  EXPECT_LT(cross.delta.size() * 2, doc_b.size());
}

}  // namespace
}  // namespace cbde::delta
