// Karp-Rabin rolling-hash delta codecs (ROADMAP item 3).
//
// Two differencing strategies from Ajtai, Burns, Fagin, Long & Stockmeyer,
// "Compactly encoding unstructured inputs with differential compression"
// (J. ACM 49(3), 2002), both emitting the same CBD1 wire format as the
// native hash-chain encoder so apply()/lift() are codec-oblivious:
//
//   one-pass    A single synchronized scan: the base is fingerprinted into a
//               fixed-size footprint table (first-come-wins, collisions
//               dropped) and the target is scanned once with a rolling
//               Karp-Rabin hash, taking the first verified seed match at
//               each position and extending it forward. Matcher state is
//               O(1) in the input sizes — one table of 2^16 slots — which
//               is the property the paper trades compression for.
//
//   correcting  The one-pass scan plus bounded retro-correction: when a
//               match extends backwards into already-encoded output, the
//               tail of the emitted instruction list is trimmed or replaced
//               so the longer copy wins (the paper's "corrections" applied
//               to encoder commands already issued). The look-back is
//               capped, keeping the pass linear.
//
// Fingerprints are Karp-Rabin over the Mersenne prime 2^61 - 1 with
// multiplier 263; hash hits are always verified byte-for-byte before a COPY
// is emitted, so collisions cost probes, never correctness.
//
// Neither codec self-references the target, so their deltas contain only
// base-addressed COPYs — in-place application (delta/inplace.hpp) sees
// pure kCopyBase/kAdd programs from this family.
#pragma once

#include <cstdint>
#include <vector>

#include "delta/delta.hpp"
#include "util/bytes.hpp"

namespace cbde::delta::rolling {

/// Number of slots in the footprint table. Fixed: the O(1)-space guarantee
/// of the one-pass family is exactly that this does not scale with the base.
inline constexpr std::size_t kFootprintSlots = std::size_t{1} << 16;

/// Retro-correction look-back cap for the correcting codec, in bytes. Keeps
/// the backward extension (and the instruction-tail trimming it triggers)
/// amortized-linear.
inline constexpr std::size_t kMaxCorrectionBack = 1024;

/// Karp-Rabin fingerprint index over every window of the base, folded into
/// a fixed-size first-come-wins table of base positions (2^16 x 4 bytes).
/// Only positions are kept: a probe returns whatever window owns the slot
/// and the caller's byte comparison rejects mismatches, which a stored
/// fingerprint could only reject earlier — equal windows always have equal
/// fingerprints, so the matches found are the same. Immutable once built;
/// safe to share across threads. Build cost is one rolling pass over the
/// base.
class FootprintTable {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  /// `window` is the seed length (DeltaParams::key_len); bases shorter than
  /// the window yield an empty table (every probe misses).
  FootprintTable(util::BytesView base, std::size_t window);

  std::size_t window() const { return window_; }
  /// Heap bytes held by the table.
  std::size_t bytes() const { return pos_.size() * sizeof(std::uint32_t); }

  /// Base position of the first window whose fingerprint fell in `fp`'s
  /// slot, or npos for an empty slot. The hit is a slot match only — the
  /// caller must verify the window bytes.
  std::size_t probe(std::uint64_t fp) const {
    const std::size_t slot = static_cast<std::size_t>(fp) & (kFootprintSlots - 1);
    return pos_[slot] == 0 ? npos : static_cast<std::size_t>(pos_[slot]) - 1;
  }

 private:
  std::size_t window_;
  std::vector<std::uint32_t> pos_;  // base position + 1; 0 = empty slot
};

/// Encode `target` against `base` with the codec selected by
/// `params.codec` (must be kOnePass or kCorrecting; `table` must have been
/// built over `base` with window == params.key_len). Emits CBD1 wire bytes
/// byte-compatible with the native encoder's output format; EncodeResult
/// semantics (chunk_used, copy/add accounting) are identical.
EncodeResult encode_rolling(const FootprintTable& table, util::BytesView base,
                            std::uint32_t base_crc, util::BytesView target,
                            const DeltaParams& params);

/// Exact size of the delta encode_rolling() would produce, without
/// materializing the wire bytes (the instruction list is still built — the
/// correcting codec rewrites its own tail, so sizes cannot stream).
std::size_t encode_size_rolling(const FootprintTable& table, util::BytesView base,
                                util::BytesView target, const DeltaParams& params);

}  // namespace cbde::delta::rolling
