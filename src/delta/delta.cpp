#include "delta/delta.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "delta/rolling.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

namespace cbde::delta {
namespace {

constexpr std::size_t kHashBits = 17;
constexpr std::size_t kHashSize = 1u << kHashBits;

// Skip acceleration (zstd-style): while no acceptable match is found the
// scan step grows with the miss streak, so incompressible runs are crossed
// in O(n / step) probes instead of probing every byte. Missed match starts
// are mostly recovered by backward extension. The step is capped so a long
// noise prefix cannot make the scanner leap over a matchable tail.
constexpr std::size_t kSkipStreakLog = 6;  // step grows every 64 misses
constexpr std::size_t kMaxSkip = 64;

/// Load up to 8 key-prefix bytes for hashing. The caller guarantees
/// `key_len` readable bytes at `p`; for keys longer than 8 the hash covers
/// the first 8 (the hash is only a chain filter — matches are verified
/// byte-for-byte, so a prefix hash merely admits more candidates).
inline std::uint64_t load_key_prefix(const std::uint8_t* p, std::size_t key_len) {
  if (key_len >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }
  if (key_len >= 4) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
  }
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

/// One multiply + shift over a word load — replaces the byte-serial FNV
/// pass that previously ran at every indexed and scanned position.
inline std::uint32_t chunk_hash(const std::uint8_t* p, std::size_t key_len) {
  return static_cast<std::uint32_t>(
      (load_key_prefix(p, key_len) * 0x9E3779B97F4A7C15ull) >> (64 - kHashBits));
}

/// Length of the common prefix of a and b, 8 bytes per step with a
/// count-trailing-zeros tail instead of a byte-wise loop.
inline std::size_t forward_match(const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t limit) {
  std::size_t n = 0;
  while (n + 8 <= limit) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return n + (static_cast<std::size_t>(std::countr_zero(diff)) >> 3);
      } else {
        return n + (static_cast<std::size_t>(std::countl_zero(diff)) >> 3);
      }
    }
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// Hash-chain index over base positions (every index_step-th position),
/// sized to the base. Immutable once built; safe to share across threads.
///
/// A probe's candidates are the indexed slots whose kHashBits-bit chunk hash
/// equals the probe's, in increasing position, up to max_chain. The head
/// table has 2^bits buckets, bits = ceil(log2(2 * slots)) capped at
/// kHashBits, and a hash's bucket is its top `bits` bits. Below the cap a
/// bucket chains several hash values, so each link also carries the hash's
/// low kHashBits - bits bits (its tag) and the walk skips foreign-tag
/// entries without counting them toward max_chain. A presence bitmap over
/// the hash values answers most misses before the chain is touched.
///
/// A light index over a 45 KB page is ~100 KiB. At the cap (a full() index
/// over a base above 32 KB) every bucket holds one hash value: no tags, no
/// bitmap.
class BaseIndex {
 public:
  BaseIndex(util::BytesView base, std::size_t key_len, std::size_t step)
      : key_len_(key_len), step_(step) {
    if (base.size() < key_len) return;
    const std::size_t slots = (base.size() - key_len) / step + 1;
    const auto bits = std::min<std::size_t>(kHashBits, std::bit_width(2 * slots - 1));
    tag_bits_ = static_cast<std::uint32_t>(kHashBits - bits);
    tag_mask_ = (1u << tag_bits_) - 1;
    buckets_ = std::size_t{1} << bits;
    present_at_ = buckets_ + slots;
    std::size_t present_words = 0;
    if (tag_bits_ != 0) {
      // One bit per hash value up to 2^kHashBits bits (16 KiB); smaller
      // tables share a bit among neighbouring hash values, which can only
      // send a probe on to its (exact) chain walk.
      const std::size_t present_bits = std::min(kHashBits, bits + 3);
      present_shift_ = static_cast<std::uint32_t>(kHashBits - present_bits);
      present_words = ((std::size_t{1} << present_bits) + 31) / 32;
    }
    words_.assign(present_at_ + present_words, 0);
    std::uint32_t* const head = words_.data();
    std::uint32_t* const link = head + buckets_;
    std::uint32_t* const present = head + present_at_;
    // Insert from the end so chains are walked front-to-back; earlier base
    // positions are tried first, which biases COPY addresses low (slightly
    // smaller varints) and is deterministic.
    for (std::size_t s = slots; s-- > 0;) {
      const std::uint32_t h = chunk_hash(base.data() + s * step, key_len);
      std::uint32_t& first = head[h >> tag_bits_];
      link[s] = (first << tag_bits_) | (h & tag_mask_);
      first = static_cast<std::uint32_t>(s + 1);
      if (present_words != 0) {
        const std::uint32_t bit = h >> present_shift_;
        present[bit >> 5] |= 1u << (bit & 31);
      }
    }
  }

  /// Visit candidate base positions whose key hash matches `p`, up to
  /// max_chain of them. `fn(pos)` returns false to stop early.
  template <typename Fn>
  void for_candidates(const std::uint8_t* p, std::size_t max_chain, Fn&& fn) const {
    if (words_.empty()) return;
    const std::uint32_t h = chunk_hash(p, key_len_);
    const std::uint32_t* const head = words_.data();
    if (tag_bits_ != 0) {
      const std::uint32_t bit = h >> present_shift_;
      if (((head[present_at_ + (bit >> 5)] >> (bit & 31)) & 1) == 0) return;
    }
    const std::uint32_t* const link = head + buckets_;
    const std::uint32_t tag = h & tag_mask_;
    std::uint32_t slot = head[h >> tag_bits_];
    while (slot != 0) {
      const std::uint32_t next = link[slot - 1];
      if ((next & tag_mask_) == tag) {
        if (!fn((slot - 1) * step_) || --max_chain == 0) return;
      }
      slot = next >> tag_bits_;
    }
  }

  /// Heap bytes held by the index.
  std::size_t bytes() const { return words_.size() * sizeof(std::uint32_t); }

 private:
  std::size_t key_len_;
  std::size_t step_;
  std::uint32_t tag_bits_ = 0;  // hash bits below the bucket number
  std::uint32_t tag_mask_ = 0;
  std::uint32_t present_shift_ = 0;  // hash -> presence bit
  std::size_t buckets_ = 0;
  std::size_t present_at_ = 0;  // offset of the presence bitmap in words_
  // One allocation: the head table (bucket -> first slot + 1, 0 = empty),
  // the links (slot -> (next slot + 1) << tag_bits_ | tag), and below the
  // cap the presence bitmap.
  std::vector<std::uint32_t> words_;
};

/// Reusable per-thread scratch for the self-reference target index. The
/// 512 KB head table is validated per encode with an epoch stamp instead of
/// being re-zeroed, so an encode that never probes the target index (the
/// common template-heavy path, and every light estimate) pays nothing.
struct SelfScratch {
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> prev;
  std::uint32_t epoch = 0;
};

SelfScratch& self_scratch() {
  thread_local SelfScratch scratch;
  return scratch;
}

void put_u32le(util::Bytes& out, std::uint32_t v) {
  // alloc: ok(4 bounded pushes into an output buffer the encoder reserves up front)
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32le(util::BytesView in, std::size_t& pos) {
  if (pos + 4 > in.size()) throw CorruptDelta("delta: truncated header");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[pos++]) << (8 * i);
  return v;
}

void mark_chunks(std::vector<bool>& chunk_used, std::size_t addr, std::size_t len) {
  // Mark chunks fully contained in [addr, addr + len).
  const std::size_t first = (addr + kAnonChunkSize - 1) / kAnonChunkSize;
  const std::size_t end = (addr + len) / kAnonChunkSize;
  for (std::size_t c = first; c < end && c < chunk_used.size(); ++c) chunk_used[c] = true;
}

struct Match {
  std::size_t base_pos = 0;
  std::size_t len = 0;
  std::size_t back = 0;   // backward extension length
  bool in_target = false;  // self-reference into the target prefix
};

/// Incrementally built hash-chain index over the target's encoded prefix
/// (Vdelta indexes the target as it goes; VCDIFF calls this the target
/// window of the superstring). Backed by the thread-local SelfScratch.
class TargetIndex {
 public:
  TargetIndex(util::BytesView target, std::size_t key_len)
      : target_(target), key_len_(key_len), scratch_(self_scratch()) {
    if (target.size() >= key_len) positions_ = target.size() - key_len + 1;
    if (positions_ == 0) return;
    if (scratch_.head.empty()) {
      scratch_.head.assign(kHashSize, 0);
      scratch_.stamp.assign(kHashSize, 0);
    }
    if (++scratch_.epoch == 0) {  // stamp wrap: invalidate everything once
      std::fill(scratch_.stamp.begin(), scratch_.stamp.end(), 0u);
      scratch_.epoch = 1;
    }
    if (scratch_.prev.size() < positions_) scratch_.prev.resize(positions_);
  }

  /// Index all positions < `pos` not yet indexed.
  void index_up_to(std::size_t pos) {
    const std::size_t limit = std::min(pos, positions_);
    for (; next_ < limit; ++next_) {
      const std::uint32_t h = chunk_hash(target_.data() + next_, key_len_);
      scratch_.prev[next_] = slot_at(h);
      scratch_.head[h] = static_cast<std::uint32_t>(next_ + 1);
      scratch_.stamp[h] = scratch_.epoch;
    }
  }

  template <typename Fn>
  void for_candidates(const std::uint8_t* p, std::size_t max_chain, Fn&& fn) const {
    if (positions_ == 0) return;
    std::uint32_t slot = slot_at(chunk_hash(p, key_len_));
    while (slot != 0 && max_chain-- > 0) {
      if (!fn(static_cast<std::size_t>(slot - 1))) return;
      slot = scratch_.prev[slot - 1];
    }
  }

 private:
  std::uint32_t slot_at(std::uint32_t h) const {
    return scratch_.stamp[h] == scratch_.epoch ? scratch_.head[h] : 0;
  }

  util::BytesView target_;
  std::size_t key_len_;
  std::size_t positions_ = 0;
  std::size_t next_ = 0;  // first unindexed position
  SelfScratch& scratch_;
};

/// Materializing sink: writes real instruction bytes.
struct WireSink {
  util::Bytes& out;
  util::BytesView target;

  void copy(std::size_t wire_addr, std::size_t len) {
    util::put_uvarint(out, (len << 1) | 1);
    util::put_uvarint(out, wire_addr);
  }
  void add(std::size_t start, std::size_t len) {
    util::put_uvarint(out, len << 1);
    util::append(out, target.subspan(start, len));
  }
};

/// Counting sink: accumulates the exact wire size without touching memory.
struct SizeSink {
  std::size_t bytes = 0;

  void copy(std::size_t wire_addr, std::size_t len) {
    bytes += util::uvarint_size((len << 1) | 1) + util::uvarint_size(wire_addr);
  }
  void add(std::size_t /*start*/, std::size_t len) {
    bytes += util::uvarint_size(len << 1) + len;
  }
};

/// The matcher: one pass over the target emitting COPY/ADD instructions
/// through `sink`. Match selection is identical for every sink, so the
/// counting sink reports exactly the bytes the wire sink would write.
template <typename Sink>
void match_and_emit(const BaseIndex& index, util::BytesView base, util::BytesView target,
                    const DeltaParams& params, std::vector<bool>* chunk_used,
                    std::size_t& copy_bytes, std::size_t& add_bytes, Sink& sink) {
  // The target index is only materialized when self-reference is on.
  std::optional<TargetIndex> tindex;
  if (params.self_reference) tindex.emplace(target, params.key_len);

  std::size_t lit_start = 0;  // start of the unflushed literal run
  auto flush_literals = [&](std::size_t end) {
    if (end > lit_start) {
      const std::size_t len = end - lit_start;
      sink.add(lit_start, len);
      add_bytes += len;
    }
  };

  const std::uint8_t* const tdata = target.data();
  std::size_t pos = 0;
  std::size_t miss_streak = 0;
  while (pos + params.key_len <= target.size()) {
    Match best;
    const std::size_t fwd_limit = target.size() - pos;
    index.for_candidates(tdata + pos, params.max_chain, [&](std::size_t bpos) {
      const std::size_t limit = std::min(fwd_limit, base.size() - bpos);
      if (limit <= best.len || limit < params.key_len) return true;
      // A candidate can only beat the incumbent if it also matches at the
      // incumbent's length — one byte-compare rejects most of the chain.
      if (best.len != 0 && base[bpos + best.len] != tdata[pos + best.len]) return true;
      const std::size_t len = forward_match(base.data() + bpos, tdata + pos, limit);
      if (len >= params.key_len && len > best.len) {
        best = Match{bpos, len, 0, false};
        if (len == fwd_limit) return false;  // cannot do better
      }
      return true;
    });
    if (params.self_reference && best.len < params.self_ref_below &&
        best.len < fwd_limit) {
      // Also match against the target's own already-encoded prefix. The
      // comparison may run past the candidate's distance to `pos` — both
      // sides are known target bytes, and apply() copies byte-wise, so
      // overlapping (run-like) copies reconstruct correctly.
      tindex->index_up_to(pos);
      // A shallow probe suffices here: the nearest prior occurrence is
      // almost always the best self-reference, and this path runs at every
      // position the base fails to cover.
      const std::size_t self_chain = std::min<std::size_t>(params.max_chain, 4);
      tindex->for_candidates(tdata + pos, self_chain, [&](std::size_t tpos) {
        const std::size_t len = forward_match(tdata + tpos, tdata + pos, fwd_limit);
        if (len >= params.key_len && len > best.len) {
          best = Match{tpos, len, 0, true};
          if (len == fwd_limit) return false;
        }
        return true;
      });
    }

    if (best.len == 0) {
      pos += std::min<std::size_t>(1 + (miss_streak++ >> kSkipStreakLog), kMaxSkip);
      continue;
    }
    if (params.backward_extend) {
      std::size_t back = 0;
      if (best.in_target) {
        while (pos - back > lit_start && best.base_pos > back &&
               tdata[best.base_pos - back - 1] == tdata[pos - back - 1]) {
          ++back;
        }
      } else {
        while (pos - back > lit_start && best.base_pos > back &&
               base[best.base_pos - back - 1] == tdata[pos - back - 1]) {
          ++back;
        }
      }
      best.back = back;
    }
    if (best.len + best.back < params.min_match) {
      pos += std::min<std::size_t>(1 + (miss_streak++ >> kSkipStreakLog), kMaxSkip);
      continue;
    }
    miss_streak = 0;
    const std::size_t copy_addr = best.base_pos - best.back;
    const std::size_t copy_len = best.len + best.back;
    flush_literals(pos - best.back);
    // Superstring addressing: target-prefix copies live above base_size.
    sink.copy(best.in_target ? base.size() + copy_addr : copy_addr, copy_len);
    copy_bytes += copy_len;
    if (!best.in_target && chunk_used != nullptr) {
      mark_chunks(*chunk_used, copy_addr, copy_len);
    }
    pos += best.len;
    lit_start = pos;
  }
  flush_literals(target.size());
}

void check_params(const DeltaParams& params) {
  if (const auto err = validate(params)) {
    throw std::invalid_argument("delta params: " + *err);
  }
}

EncodeResult encode_with(const BaseIndex& index, util::BytesView base,
                         std::uint32_t base_crc, util::BytesView target,
                         const DeltaParams& params) {
  EncodeResult result;
  result.chunk_used.assign((base.size() + kAnonChunkSize - 1) / kAnonChunkSize, false);

  util::Bytes& out = result.delta;
  // One up-front reservation instead of log2(delta) growth reallocations on
  // the per-request encode path. Template-heavy targets produce deltas far
  // below target/8; unrelated targets degenerate toward ADD-everything and
  // amortize the remaining doublings from a useful floor.
  out.reserve(64 + target.size() / 8);
  util::append(out, std::string_view("CBD1"));
  util::put_uvarint(out, base.size());
  util::put_uvarint(out, target.size());
  put_u32le(out, base_crc);
  put_u32le(out, util::crc32(target));

  WireSink sink{out, target};
  match_and_emit(index, base, target, params, &result.chunk_used, result.copy_bytes,
                 result.add_bytes, sink);
  return result;
}

std::size_t encode_size_with(const BaseIndex& index, util::BytesView base,
                             util::BytesView target, const DeltaParams& params) {
  SizeSink sink;
  std::size_t copy_bytes = 0;
  std::size_t add_bytes = 0;
  match_and_emit(index, base, target, params, nullptr, copy_bytes, add_bytes, sink);
  // Header: magic + size varints + the two crc32 words (never computed —
  // their wire size is fixed).
  return 4 + util::uvarint_size(base.size()) + util::uvarint_size(target.size()) + 8 +
         sink.bytes;
}

}  // namespace

std::optional<std::string> validate(const DeltaParams& params) {
  if (params.key_len < 2 || params.key_len > 64) {
    return "key_len must be in [2, 64]";
  }
  if (params.index_step < 1 || params.index_step > 4096) {
    return "index_step must be in [1, 4096]";
  }
  if (params.max_chain < 1 || params.max_chain > 65536) {
    return "max_chain must be in [1, 65536]";
  }
  if (params.min_match < params.key_len) {
    return "min_match must be >= key_len";
  }
  if (params.min_match > 4096) {
    return "min_match must be <= 4096";
  }
  return std::nullopt;
}

struct Encoder::Impl {
  // Shared, immutable base: encoders built from the same publication round
  // alias one buffer (refcount bump) instead of each owning a copy.
  std::shared_ptr<const util::Bytes> base_bytes;
  DeltaParams params;
  std::uint32_t crc;
  // Exactly one of the two indexes is built, matching params.codec: the
  // rolling codecs never touch the hash-chain index and vice versa.
  std::optional<BaseIndex> index;
  std::optional<rolling::FootprintTable> footprints;

  Impl(std::shared_ptr<const util::Bytes> base, const DeltaParams& p)
      : base_bytes(std::move(base)), params(p), crc(util::crc32(util::as_view(*base_bytes))) {
    if (p.codec == DeltaParams::Codec::kHashChain) {
      index.emplace(util::as_view(*base_bytes), p.key_len, p.index_step);
    } else {
      footprints.emplace(util::as_view(*base_bytes), p.key_len);
    }
  }
};

Encoder::Encoder(util::Bytes base, DeltaParams params)
    : Encoder(std::make_shared<const util::Bytes>(std::move(base)), params) {}

Encoder::Encoder(std::shared_ptr<const util::Bytes> base, DeltaParams params) {
  check_params(params);
  CBDE_EXPECT(base != nullptr);
  impl_ = std::make_unique<Impl>(std::move(base), params);
}

Encoder::~Encoder() = default;
Encoder::Encoder(Encoder&&) noexcept = default;
Encoder& Encoder::operator=(Encoder&&) noexcept = default;

const util::Bytes& Encoder::base() const { return *impl_->base_bytes; }
const std::shared_ptr<const util::Bytes>& Encoder::shared_base() const {
  return impl_->base_bytes;
}
const DeltaParams& Encoder::params() const { return impl_->params; }
std::uint32_t Encoder::base_crc() const { return impl_->crc; }
std::size_t Encoder::index_bytes() const {
  return impl_->index ? impl_->index->bytes() : impl_->footprints->bytes();
}

EncodeResult Encoder::encode(util::BytesView target) const {
  const util::BytesView base = util::as_view(*impl_->base_bytes);
  EncodeResult result =
      impl_->index
          ? encode_with(*impl_->index, base, impl_->crc, target, impl_->params)
          : rolling::encode_rolling(*impl_->footprints, base, impl_->crc, target,
                                    impl_->params);
  CBDE_ENSURE(result.copy_bytes + result.add_bytes == target.size());
  return result;
}

std::size_t Encoder::encode_size(util::BytesView target) const {
  const util::BytesView base = util::as_view(*impl_->base_bytes);
  if (impl_->index) {
    return encode_size_with(*impl_->index, base, target, impl_->params);
  }
  return rolling::encode_size_rolling(*impl_->footprints, base, target, impl_->params);
}

EncodeResult encode(util::BytesView base, util::BytesView target, const DeltaParams& params) {
  check_params(params);
  EncodeResult result;
  if (params.codec == DeltaParams::Codec::kHashChain) {
    const BaseIndex index(base, params.key_len, params.index_step);
    result = encode_with(index, base, util::crc32(base), target, params);
  } else {
    const rolling::FootprintTable table(base, params.key_len);
    result = rolling::encode_rolling(table, base, util::crc32(base), target, params);
  }
  CBDE_ENSURE(result.copy_bytes + result.add_bytes == target.size());
  return result;
}

std::size_t estimate_delta_size(util::BytesView base, util::BytesView target,
                                const DeltaParams& params) {
  check_params(params);
  if (params.codec == DeltaParams::Codec::kHashChain) {
    const BaseIndex index(base, params.key_len, params.index_step);
    return encode_size_with(index, base, target, params);
  }
  const rolling::FootprintTable table(base, params.key_len);
  return rolling::encode_size_rolling(table, base, target, params);
}

namespace {

DeltaInfo parse_header(util::BytesView delta, std::size_t& pos) {
  if (delta.size() < 4 || util::as_string_view(delta.subspan(0, 4)) != "CBD1") {
    throw CorruptDelta("delta: bad magic");
  }
  pos = 4;
  const auto base_size = util::get_uvarint(delta, pos);
  const auto target_size = util::get_uvarint(delta, pos);
  if (!base_size || !target_size) throw CorruptDelta("delta: bad size varint");
  if (*base_size > kMaxDecodeTargetSize || *target_size > kMaxDecodeTargetSize) {
    throw CorruptDelta("delta: claimed size exceeds decode cap");
  }
  DeltaInfo info;
  info.base_size = static_cast<std::size_t>(*base_size);
  info.target_size = static_cast<std::size_t>(*target_size);
  info.base_crc = get_u32le(delta, pos);
  info.target_crc = get_u32le(delta, pos);
  return info;
}

}  // namespace

DeltaInfo inspect(util::BytesView delta) {
  std::size_t pos = 0;
  return parse_header(delta, pos);
}

util::Bytes apply(util::BytesView base, util::BytesView delta) {
  util::Bytes out;
  apply_into(base, delta, out);
  return out;
}

void apply_into(util::BytesView base, util::BytesView delta, util::Bytes& out) {
  apply_into(base, util::crc32(base), delta, out);
}

void apply_into(util::BytesView base, std::uint32_t base_crc, util::BytesView delta,
                util::Bytes& out) {
  // The base comes from the trusted side (our own store); only the delta is
  // untrusted. A base above the decode cap can never match a valid header.
  CBDE_EXPECT(base.size() <= kMaxDecodeTargetSize);
  std::size_t pos = 0;
  const DeltaInfo info = parse_header(delta, pos);
  if (info.base_size != base.size() || info.base_crc != base_crc) {
    throw CorruptDelta("delta: base-file mismatch");
  }
  out.clear();
  out.reserve(info.target_size);
  while (pos < delta.size()) {
    const auto tag = util::get_uvarint(delta, pos);
    if (!tag) throw CorruptDelta("delta: bad instruction tag");
    const auto len = static_cast<std::size_t>(*tag >> 1);
    if (out.size() + len > info.target_size) {
      throw CorruptDelta("delta: output exceeds target size");
    }
    if ((*tag & 1) != 0) {  // COPY
      const auto addr = util::get_uvarint(delta, pos);
      if (!addr) throw CorruptDelta("delta: bad copy address");
      if (*addr >= base.size()) {
        // Superstring address: copy from the target's own prefix.
        const auto taddr = static_cast<std::size_t>(*addr) - base.size();
        if (len > 0 && taddr >= out.size()) {
          throw CorruptDelta("delta: self-copy past output frontier");
        }
        // The prefix up to the current frontier is non-overlapping: append
        // it in one bulk copy. Only a genuinely overlapping (run-like) span
        // needs the byte-wise loop. out was reserved to target_size and the
        // bound above guarantees no reallocation, so self-memcpy is safe.
        const std::size_t bulk = std::min(len, out.size() - taddr);
        if (bulk > 0) {
          const std::size_t old_size = out.size();
          out.resize(old_size + bulk);
          std::memcpy(out.data() + old_size, out.data() + taddr, bulk);
        }
        for (std::size_t i = bulk; i < len; ++i) out.push_back(out[taddr + i]);
      } else {
        if (*addr + len > base.size()) throw CorruptDelta("delta: copy out of range");
        util::append(out, base.subspan(static_cast<std::size_t>(*addr), len));
      }
    } else {  // ADD
      if (pos + len > delta.size()) throw CorruptDelta("delta: add out of range");
      util::append(out, delta.subspan(pos, len));
      pos += len;
    }
  }
  if (out.size() != info.target_size) throw CorruptDelta("delta: target size mismatch");
  if (util::crc32(util::as_view(out)) != info.target_crc) {
    throw CorruptDelta("delta: target checksum mismatch");
  }
  CBDE_ENSURE(out.size() == info.target_size);
}

}  // namespace cbde::delta
