#include "delta/rolling.hpp"

#include <algorithm>
#include <cstring>

#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

namespace cbde::delta::rolling {
namespace {

// Karp-Rabin arithmetic over the Mersenne prime 2^61 - 1 (SNIPPETS-standard
// parameters: the modulus makes the reduction two adds, the multiplier 263
// covers the byte alphabet with headroom).
constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;
constexpr std::uint64_t kMultiplier = 263;

inline std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
  std::uint64_t r = static_cast<std::uint64_t>(t & kPrime) +
                    static_cast<std::uint64_t>(t >> 61);
  if (r >= kPrime) r -= kPrime;
  return r;
}

inline std::uint64_t mod_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = a + b;  // < 2^62, no wrap
  if (r >= kPrime) r -= kPrime;
  return r;
}

inline std::uint64_t mod_sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + kPrime - b;
}

/// kMultiplier^(w-1) mod p: the weight of the outgoing byte when rolling.
std::uint64_t leading_weight(std::size_t w) {
  std::uint64_t r = 1;
  for (std::size_t i = 1; i < w; ++i) r = mod_mul(r, kMultiplier);
  return r;
}

std::uint64_t fingerprint(const std::uint8_t* p, std::size_t w) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < w; ++i) h = mod_add(mod_mul(h, kMultiplier), p[i]);
  return h;
}

/// Slide the window one byte: drop `out`, append `in`.
inline std::uint64_t roll(std::uint64_t h, std::uint64_t lead, std::uint8_t out,
                          std::uint8_t in) {
  return mod_add(mod_mul(mod_sub(h, mod_mul(out, lead)), kMultiplier), in);
}

inline std::size_t forward_match(const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t limit) {
  std::size_t n = 0;
  while (n + 8 <= limit) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (x != y) break;
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// One emitted instruction; together they tile [0, target.size()).
/// `start` is the target offset the instruction produces — explicit (rather
/// than implied by the running sum) because the correcting codec trims the
/// list from the back.
struct RollInst {
  bool is_copy = false;
  std::size_t addr = 0;  // base address (copies only)
  std::size_t start = 0;
  std::size_t len = 0;
};

void mark_chunks(std::vector<bool>& chunk_used, std::size_t addr, std::size_t len) {
  const std::size_t first = (addr + kAnonChunkSize - 1) / kAnonChunkSize;
  const std::size_t end = (addr + len) / kAnonChunkSize;
  for (std::size_t c = first; c < end && c < chunk_used.size(); ++c) chunk_used[c] = true;
}

void check_rolling_params(const FootprintTable& table, const DeltaParams& params) {
  if (const auto err = validate(params)) {
    throw std::invalid_argument("delta params: " + *err);
  }
  CBDE_EXPECT(params.codec == DeltaParams::Codec::kOnePass ||
              params.codec == DeltaParams::Codec::kCorrecting);
  CBDE_EXPECT(table.window() == params.key_len);
}

/// The shared matcher: one rolling scan of the target, returning the
/// instruction tiling. The correcting codec additionally extends verified
/// matches backwards (bounded) and rewrites the already-emitted tail.
std::vector<RollInst> match_rolling(const FootprintTable& table, util::BytesView base,
                                    util::BytesView target, const DeltaParams& params) {
  std::vector<RollInst> insts;
  const std::size_t w = table.window();
  const bool correcting = params.codec == DeltaParams::Codec::kCorrecting;
  if (target.size() < w || base.size() < w) {
    if (!target.empty()) insts.push_back(RollInst{false, 0, 0, target.size()});
    return insts;
  }
  insts.reserve(16 + target.size() / (params.min_match * 4));

  const std::uint8_t* const tdata = target.data();
  const std::uint64_t lead = leading_weight(w);
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  std::uint64_t hash = fingerprint(tdata, w);
  bool hash_fresh = true;  // hash covers [pos, pos + w)

  while (pos + w <= target.size()) {
    if (!hash_fresh) {
      hash = fingerprint(tdata + pos, w);
      hash_fresh = true;
    }
    const std::size_t cand = table.probe(hash);
    std::size_t len = 0;
    if (cand != FootprintTable::npos &&
        std::memcmp(base.data() + cand, tdata + pos, w) == 0) {
      const std::size_t limit = std::min(target.size() - pos, base.size() - cand);
      len = w + forward_match(base.data() + cand + w, tdata + pos + w, limit - w);
    }
    if (len >= params.min_match) {
      std::size_t back = 0;
      if (correcting) {
        // Retro-correction: a seed found mid-match can reach backwards into
        // bytes already covered by emitted instructions; the longer copy
        // wins and the emitted tail is trimmed to make room.
        const std::size_t max_back = std::min({pos, cand, kMaxCorrectionBack});
        while (back < max_back && base[cand - back - 1] == tdata[pos - back - 1]) {
          ++back;
        }
      }
      const std::size_t cut = pos - back;  // new coverage starts here
      if (cut >= lit_start) {
        if (cut > lit_start) {
          insts.push_back(RollInst{false, 0, lit_start, cut - lit_start});
        }
      } else {
        // The correction ate past the pending literal into emitted
        // instructions: discard the pending literal and trim the tail back
        // to `cut`. Right-trimming is valid for both kinds (a copy keeps
        // its address, a literal its start).
        while (!insts.empty() && insts.back().start >= cut) insts.pop_back();
        if (!insts.empty() && insts.back().start + insts.back().len > cut) {
          insts.back().len = cut - insts.back().start;
        }
      }
      insts.push_back(RollInst{true, cand - back, cut, len + back});
      pos += len;
      lit_start = pos;
      hash_fresh = false;  // recompute at the new position next iteration
      continue;
    }
    if (pos + w < target.size()) {
      hash = roll(hash, lead, tdata[pos], tdata[pos + w]);
    }
    ++pos;
  }
  if (target.size() > lit_start) {
    insts.push_back(RollInst{false, 0, lit_start, target.size() - lit_start});
  }
  return insts;
}

}  // namespace

FootprintTable::FootprintTable(util::BytesView base, std::size_t window)
    : window_(window) {
  CBDE_EXPECT(window >= 2 && window <= 64);
  // Positions are stored +1 in 32 bits; the decode cap already keeps every
  // servable document far below that.
  CBDE_EXPECT(base.size() <= kMaxDecodeTargetSize);
  pos_.assign(kFootprintSlots, 0);
  if (base.size() < window) return;
  const std::uint64_t lead = leading_weight(window);
  std::uint64_t h = fingerprint(base.data(), window);
  for (std::size_t p = 0;; ++p) {
    // First-come-wins: earlier base positions keep their slot, so probes are
    // deterministic and biased toward small COPY addresses.
    const std::size_t slot = static_cast<std::size_t>(h) & (kFootprintSlots - 1);
    if (pos_[slot] == 0) pos_[slot] = static_cast<std::uint32_t>(p + 1);
    if (p + window >= base.size()) break;
    h = roll(h, lead, base[p], base[p + window]);
  }
}

EncodeResult encode_rolling(const FootprintTable& table, util::BytesView base,
                            std::uint32_t base_crc, util::BytesView target,
                            const DeltaParams& params) {
  check_rolling_params(table, params);
  const std::vector<RollInst> insts = match_rolling(table, base, target, params);

  EncodeResult result;
  result.chunk_used.assign((base.size() + kAnonChunkSize - 1) / kAnonChunkSize, false);
  util::Bytes& out = result.delta;
  out.reserve(64 + target.size() / 8);
  util::append(out, std::string_view("CBD1"));
  util::put_uvarint(out, base.size());
  util::put_uvarint(out, target.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(base_crc >> (8 * i)));
  const std::uint32_t target_crc = util::crc32(target);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(target_crc >> (8 * i)));
  }
  for (const RollInst& inst : insts) {
    if (inst.is_copy) {
      util::put_uvarint(out, (inst.len << 1) | 1);
      util::put_uvarint(out, inst.addr);
      result.copy_bytes += inst.len;
      mark_chunks(result.chunk_used, inst.addr, inst.len);
    } else {
      util::put_uvarint(out, inst.len << 1);
      util::append(out, target.subspan(inst.start, inst.len));
      result.add_bytes += inst.len;
    }
  }
  CBDE_ENSURE(result.copy_bytes + result.add_bytes == target.size());
  return result;
}

std::size_t encode_size_rolling(const FootprintTable& table, util::BytesView base,
                                util::BytesView target, const DeltaParams& params) {
  check_rolling_params(table, params);
  const std::vector<RollInst> insts = match_rolling(table, base, target, params);
  std::size_t bytes = 4 + util::uvarint_size(base.size()) +
                      util::uvarint_size(target.size()) + 8;
  for (const RollInst& inst : insts) {
    if (inst.is_copy) {
      bytes += util::uvarint_size((inst.len << 1) | 1) + util::uvarint_size(inst.addr);
    } else {
      bytes += util::uvarint_size(inst.len << 1) + inst.len;
    }
  }
  return bytes;
}

}  // namespace cbde::delta::rolling
