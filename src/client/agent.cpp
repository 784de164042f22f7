#include "client/agent.hpp"

#include <stdexcept>

#include "compress/compressor.hpp"
#include "delta/delta.hpp"
#include "delta/inplace.hpp"
#include "delta/ir.hpp"
#include "util/hash.hpp"

namespace cbde::client {

std::optional<std::uint32_t> ClientAgent::base_version(std::uint64_t class_id) const {
  const auto it = bases_.find(class_id);
  if (it == bases_.end()) return std::nullopt;
  return it->second.version;
}

void ClientAgent::store_base(BaseRef ref, util::Bytes base) {
  const std::uint32_t crc = util::crc32(util::as_view(base));
  bases_[ref.class_id] = Slot{ref.version, std::move(base), crc};
  ++stats_.bases_stored;
}

util::Bytes ClientAgent::reconstruct(BaseRef ref, util::BytesView wire_delta,
                                     bool compressed) {
  const auto it = bases_.find(ref.class_id);
  if (it == bases_.end() || it->second.version != ref.version) {
    ++stats_.reconstruction_failures;
    throw std::invalid_argument("client: no base-file for class/version");
  }
  try {
    const util::Bytes raw =
        compressed ? compress::decompress(wire_delta)
                   : util::Bytes(wire_delta.begin(), wire_delta.end());
    util::Bytes doc;
    delta::apply_into(util::as_view(it->second.base), it->second.base_crc,
                      util::as_view(raw), doc);
    ++stats_.deltas_applied;
    stats_.bytes_reconstructed += doc.size();
    return doc;
  } catch (...) {
    ++stats_.reconstruction_failures;
    throw;
  }
}

util::Bytes ClientAgent::reconstruct_in_place(BaseRef ref, util::BytesView wire_delta,
                                              bool compressed) {
  const auto it = bases_.find(ref.class_id);
  if (it == bases_.end() || it->second.version != ref.version) {
    ++stats_.reconstruction_failures;
    throw std::invalid_argument("client: no base-file for class/version");
  }
  util::Bytes buf = std::move(it->second.base);
  try {
    const util::Bytes raw =
        compressed ? compress::decompress(wire_delta)
                   : util::Bytes(wire_delta.begin(), wire_delta.end());
    try {
      delta::apply_in_place(buf, util::as_view(raw));
    } catch (const delta::NotInPlaceApplicable&) {
      // Well-formed but unsafe as ordered: certify it (reorder + cycle
      // break), then run the certified CBDP wire. apply_in_place left buf
      // untouched, so it is still the base the transformer needs.
      const delta::Program p = delta::lift(util::as_view(raw));
      const delta::TransformResult t =
          delta::transform_in_place(p, util::as_view(buf));
      const util::Bytes certified = delta::lower(t.program);
      delta::apply_in_place(buf, util::as_view(certified));
      ++stats_.inplace_transforms;
      stats_.inplace_scratch_bytes += t.scratch_bytes;
    }
  } catch (...) {
    // Every failure path above mutates nothing: decompress/lift/transform
    // only read, and apply_in_place validates before writing a byte.
    it->second.base = std::move(buf);
    ++stats_.reconstruction_failures;
    throw;
  }
  bases_.erase(it);  // the base was consumed by the in-place rewrite
  ++stats_.deltas_applied;
  ++stats_.inplace_reconstructions;
  stats_.bytes_reconstructed += buf.size();
  return buf;
}

std::size_t ClientAgent::stored_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, slot] : bases_) total += slot.base.size();
  return total;
}

}  // namespace cbde::client
