// Client-side agent: the browser-cache-plus-Javascript (or plug-in) piece of
// the paper's architecture (§VI-C). It stores one base-file per class and
// reconstructs current document snapshots by combining a received delta with
// the locally stored base-file.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "util/bytes.hpp"

namespace cbde::client {

/// Identifies a base-file: which class, and which rebase generation.
struct BaseRef {
  std::uint64_t class_id = 0;
  std::uint32_t version = 0;

  bool operator==(const BaseRef&) const = default;
};

struct AgentStats {
  std::uint64_t deltas_applied = 0;
  std::uint64_t bases_stored = 0;
  std::uint64_t reconstruction_failures = 0;
  std::uint64_t bytes_reconstructed = 0;  ///< document bytes produced locally
  /// In-place path (reconstruct_in_place): reconstructions served without a
  /// separate target buffer, how many needed the CRWI transformer first,
  /// and the total spill scratch those transforms used.
  std::uint64_t inplace_reconstructions = 0;
  std::uint64_t inplace_transforms = 0;
  std::uint64_t inplace_scratch_bytes = 0;
};

class ClientAgent {
 public:
  /// Version of the base-file held for `class_id`, if any.
  std::optional<std::uint32_t> base_version(std::uint64_t class_id) const;

  /// Store (or replace) the base-file for a class.
  void store_base(BaseRef ref, util::Bytes base);

  /// Combine a (possibly compressed) delta with the stored base-file.
  /// `compressed` says whether the wire bytes are cbz-compressed.
  /// Throws delta::CorruptDelta / compress::CorruptInput on damage or if no
  /// matching base is stored (std::invalid_argument).
  util::Bytes reconstruct(BaseRef ref, util::BytesView wire_delta, bool compressed);

  /// Memory-constrained variant: reconstruct *inside* the stored base-file's
  /// buffer, consuming it — peak memory is max(base, target) + delta instead
  /// of base + target. Deltas the CRWI verifier refuses as ordered are run
  /// through the in-place transformer first (DESIGN.md §6). The slot is
  /// erased on success (store a fresh base before the next delta for this
  /// class); on failure the base is retained untouched. Same exceptions as
  /// reconstruct().
  util::Bytes reconstruct_in_place(BaseRef ref, util::BytesView wire_delta,
                                   bool compressed);

  std::size_t stored_bases() const { return bases_.size(); }
  std::size_t stored_bytes() const;
  const AgentStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::uint32_t version = 0;
    util::Bytes base;
    std::uint32_t base_crc = 0;  ///< crc32(base), hashed once at store time
  };
  std::unordered_map<std::uint64_t, Slot> bases_;
  AgentStats stats_;
};

}  // namespace cbde::client
