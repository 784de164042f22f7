// Vdelta-style delta encoding (Hunt, Vo & Tichy, ACM TOSEM '98), as used by
// the paper (§II, §III fn.2, §V).
//
// The encoder builds a hash index over the base-file keyed on fixed-size byte
// chunks and scans the target for maximal matches, emitting a stream of
// COPY(base_addr, len) and ADD(bytes) instructions. Two parameterizations
// matter to the paper:
//   * full  — 4-byte keys, every position indexed, deep chain search,
//             forward AND backward match extension; used for transmission.
//   * light — larger chunks, sparse index, shallow search, forward-only;
//             used to *estimate* closeness during class grouping (§III).
//
// The base-file of a class changes only on rebase/anonymize but is delta'd
// against on every request, so the index build is separated from the match
// scan: an Encoder owns the base and its prebuilt index and can encode any
// number of targets against it (see docs/PERFORMANCE.md for the lifecycle).
// The one-shot encode()/estimate_delta_size() free functions remain for
// callers without a reusable base.
//
// encode() also reports, per 4-byte base chunk, whether the chunk was part
// of any COPY — exactly the commonality signal the anonymization process
// (§V) counts across documents.
//
// Wire format ("CBD1"):
//   "CBD1" | uvarint base_size | uvarint target_size |
//   crc32(base) LE | crc32(target) LE |
//   instruction*  where instruction = uvarint(len<<1 | is_copy) followed by
//   uvarint base_addr for COPY or `len` raw bytes for ADD.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace cbde::delta {

/// Anonymization granularity: the 4-byte chunks of §V.
inline constexpr std::size_t kAnonChunkSize = 4;

/// Decode-side allocation cap, shared by the CBD1 and VCDIFF decoders.
/// Delta headers carry attacker-controlled base/target sizes; apply()
/// rejects any header claiming more than this *before* reserving memory,
/// so a 20-byte delta cannot demand a 16 GB target buffer. Far above any
/// real document this system serves (documents are web pages).
inline constexpr std::size_t kMaxDecodeTargetSize = std::size_t{1} << 30;  // 1 GiB

/// Thrown by apply() on malformed deltas or a base-file mismatch.
class CorruptDelta : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct DeltaParams {
  /// Matching strategy. kHashChain is the native Vdelta-style encoder
  /// (hash-chain index, deep search, self-reference). kOnePass and
  /// kCorrecting are the Karp-Rabin rolling-hash codecs of Ajtai, Burns,
  /// Fagin, Long & Stockmeyer (delta/rolling.hpp): O(1) matcher state,
  /// single scan, base-only copies. All three emit the same CBD1 wire.
  enum class Codec { kHashChain = 0, kOnePass = 1, kCorrecting = 2 };

  std::size_t key_len = 4;        ///< match key size (hash chunk width)
  std::size_t index_step = 1;     ///< index every step-th base position
  std::size_t max_chain = 32;     ///< candidates probed per target position
  bool backward_extend = true;    ///< extend matches backwards (Vdelta-style)
  /// Shortest match worth a COPY instruction. Short matches cost nearly as
  /// many instruction bytes as they save and shred the ADD runs the
  /// downstream gzip pass needs; empirically min_match = 32 leaves the
  /// compressed delta no larger while letting gzip contribute its ~2x (the
  /// paper's "a factor of 2 on average is thanks to compression").
  std::size_t min_match = 32;
  /// Vdelta also matches against the already-encoded prefix of the target
  /// itself (the VCDIFF "superstring" convention: COPY addresses >=
  /// base_size refer into the target). Captures self-repetitive documents
  /// even with an unrelated base.
  bool self_reference = true;
  /// The target index is only probed when the best base match is shorter
  /// than this — long base matches are already good enough, and skipping
  /// the second probe keeps the common template-heavy path fast.
  std::size_t self_ref_below = 64;
  Codec codec = Codec::kHashChain;

  /// Transmission-quality configuration.
  static DeltaParams full() { return DeltaParams{4, 1, 32, true, 32, true}; }

  /// Cheap estimation configuration for grouping (paper §III fn.2: "larger
  /// byte-chunks and only traverses the file in the forward direction").
  static DeltaParams light() { return DeltaParams{8, 8, 4, false, 16, false}; }

  /// Karp-Rabin one-pass codec: a 16-byte fingerprint seed (the rolling
  /// window; wider than the hash-chain key because a footprint-table hit is
  /// taken immediately rather than ranked against a chain), no backward
  /// extension, no self-reference — the minimal-state end of the family.
  static DeltaParams one_pass() {
    DeltaParams p;
    p.key_len = 16;
    p.max_chain = 1;
    p.backward_extend = false;
    p.self_reference = false;
    p.codec = Codec::kOnePass;
    return p;
  }

  /// Karp-Rabin correcting codec: one-pass plus bounded retro-correction of
  /// the already-emitted instruction tail (delta/rolling.hpp).
  static DeltaParams correcting() {
    DeltaParams p = one_pass();
    p.backward_extend = true;
    p.codec = Codec::kCorrecting;
    return p;
  }
};

/// Validate a parameterization without encoding anything. Returns nullopt
/// when the params are usable, otherwise a description of the violated
/// constraint. The config loader calls this at startup so a bad deployment
/// config fails with a typed error instead of tripping a precondition check
/// mid-request; encode() enforces the same ranges.
std::optional<std::string> validate(const DeltaParams& params);

struct EncodeResult {
  util::Bytes delta;
  /// chunk_used[i] == true iff base chunk [4i, 4i+4) was fully contained in
  /// some COPY instruction. Sized ceil(base_size / 4).
  std::vector<bool> chunk_used;
  std::size_t copy_bytes = 0;  ///< target bytes produced by COPY
  std::size_t add_bytes = 0;   ///< target bytes produced by ADD
};

/// Reusable encoder: owns a base-file plus its prebuilt match index, and
/// encodes any number of targets against it. Building the index costs
/// O(base) time and memory (the hash-chain head table is sized to the
/// indexed positions, up to 512 KB; see docs/PERFORMANCE.md); amortizing
/// that across requests (the base changes only on rebase/anonymize) is the
/// difference between a per-request and a per-rebase cost.
///
/// encode()/encode_size() are const and safe to call concurrently from
/// multiple threads: per-call scratch (the self-reference target index)
/// lives in thread-local storage inside the delta library.
class Encoder {
 public:
  explicit Encoder(util::Bytes base, DeltaParams params = DeltaParams::full());
  /// Shared-base construction: the encoder aliases `base` instead of copying
  /// it, so several encoders (and readers holding snapshots) can reference
  /// one buffer. This is how a publication round builds its transmit encoder
  /// from the working encoder's base without duplicating the document
  /// (sema-alloc ranked those copies top of the per-rebase class).
  explicit Encoder(std::shared_ptr<const util::Bytes> base,
                   DeltaParams params = DeltaParams::full());
  ~Encoder();
  Encoder(Encoder&&) noexcept;
  Encoder& operator=(Encoder&&) noexcept;
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  const util::Bytes& base() const;
  /// The owning handle for the base bytes. Never null; copying it is a
  /// refcount bump, not a buffer copy.
  const std::shared_ptr<const util::Bytes>& shared_base() const;
  const DeltaParams& params() const;
  /// crc32 of the base, computed once at construction.
  std::uint32_t base_crc() const;
  /// Heap bytes held by the match index (not counting the base itself).
  std::size_t index_bytes() const;

  /// Compute the delta that transforms the owned base into `target`.
  /// Byte-identical to the one-shot encode() free function.
  EncodeResult encode(util::BytesView target) const;

  /// Size in bytes of the delta encode() would produce, without
  /// materializing a single delta byte (no output buffer, no CRC passes).
  /// Exactly equal to encode(target).delta.size().
  std::size_t encode_size(util::BytesView target) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Compute the delta that transforms `base` into `target` (one-shot: the
/// base index is built, used once and discarded).
EncodeResult encode(util::BytesView base, util::BytesView target,
                    const DeltaParams& params = DeltaParams::full());

/// Size in bytes of the delta only (no delta bytes are materialized). With
/// DeltaParams::light() this is the grouping-time closeness estimate.
std::size_t estimate_delta_size(util::BytesView base, util::BytesView target,
                                const DeltaParams& params = DeltaParams::light());

/// Reconstruct the target from `base` + `delta`. Verifies that `base` is the
/// base-file the delta was computed against (crc) and that the output
/// matches the recorded target checksum. Throws CorruptDelta otherwise.
util::Bytes apply(util::BytesView base, util::BytesView delta);

/// Zero-copy variant of apply(): decodes into `out`, reusing whatever
/// capacity the caller's buffer already has (a per-worker scratch buffer
/// amortizes the decode allocation across requests). `out` is cleared
/// first; on throw its contents are unspecified. Same validation contract
/// as apply(); fuzzed differentially against it.
void apply_into(util::BytesView base, util::BytesView delta, util::Bytes& out);

/// apply_into() for a caller that keeps `base`'s crc32 next to it (a client
/// hashes each stored base once, not once per delta). `base_crc` must be
/// crc32(base): the header's base crc is checked against it instead of
/// re-hashing the base, and the target crc is verified as always.
void apply_into(util::BytesView base, std::uint32_t base_crc, util::BytesView delta,
                util::Bytes& out);

/// Parsed header of a delta, for inspection without applying it.
struct DeltaInfo {
  std::size_t base_size = 0;
  std::size_t target_size = 0;
  std::uint32_t base_crc = 0;
  std::uint32_t target_crc = 0;
};
DeltaInfo inspect(util::BytesView delta);

}  // namespace cbde::delta
