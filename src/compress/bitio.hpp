// Bit-level I/O for the compressed block format.
//
// Bits are written MSB-first within each byte; Huffman codes are emitted
// most-significant-bit first, so the next code always sits at the top of the
// reader's bit window and a table lookup on its leading bits decodes it.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/contracts.hpp"

namespace cbde::compress {

class BitWriter {
 public:
  explicit BitWriter(util::Bytes& out) : out_(out) {}

  /// Write the low `nbits` bits of `value`, most significant first.
  void write_bits(std::uint32_t value, int nbits);

  /// Pad with zero bits to the next byte boundary.
  void align_to_byte();

  /// Write a whole byte (must be byte-aligned).
  void write_byte(std::uint8_t byte);

  bool aligned() const { return nbuffered_ == 0; }

 private:
  util::Bytes& out_;
  std::uint32_t buffer_ = 0;  // pending bits, left-aligned within nbuffered_
  int nbuffered_ = 0;
};

/// MSB-first reader over a 64-bit window, refilled a word at a time (the
/// shape of zlib's inflate fast path): a Huffman decoder peeks the window's
/// top bits, looks the code up and consumes its length, with no per-bit
/// calls.
class BitReader {
 public:
  explicit BitReader(util::BytesView in) : in_(in) {}

  /// Read `nbits` bits (MSB-first). Throws std::invalid_argument past EOF.
  std::uint32_t read_bits(int nbits) {
    CBDE_EXPECT(nbits >= 0 && nbits <= 24);
    if (avail_ < nbits) {
      refill();
      if (avail_ < nbits) throw std::invalid_argument("BitReader: read past end of input");
    }
    if (nbits == 0) return 0;
    const auto value = static_cast<std::uint32_t>(window_ >> (64 - nbits));
    consume(nbits);
    return value;
  }

  /// Read a single bit.
  std::uint32_t read_bit() { return read_bits(1); }

  /// Top up the window to at least 57 bits, or to the end of the input.
  void refill() {
    if (next_ + 8 <= in_.size()) {
      // Load 8 bytes big-endian below the bits already held and advance by
      // the whole bytes that fit; bits of the partial byte beyond avail_
      // are the stream's own, so reloading them later ORs in equal bits.
      const std::uint8_t* p = in_.data() + next_;
      std::uint64_t word = 0;
      for (int i = 0; i < 8; ++i) word = (word << 8) | p[i];
      window_ |= word >> avail_;
      next_ += static_cast<std::size_t>((63 - avail_) >> 3);
      avail_ |= 56;
      return;
    }
    while (avail_ <= 56 && next_ < in_.size()) {
      window_ |= static_cast<std::uint64_t>(in_[next_++]) << (56 - avail_);
      avail_ += 8;
    }
  }

  /// The next `nbits` (1..32) bits without consuming them. Bits past the
  /// end of the input read as zero; available() says how many are real.
  std::uint32_t peek(int nbits) const {
    return static_cast<std::uint32_t>(window_ >> (64 - nbits));
  }

  /// Drop `nbits` (<= available()) bits from the window.
  void consume(int nbits) {
    window_ <<= nbits;
    avail_ -= nbits;
  }

  /// Real (not past-the-end) bits in the window.
  int available() const { return avail_; }

  /// Skip to the next byte boundary.
  void align_to_byte() { consume(avail_ & 7); }

  /// Read a whole byte (must be byte-aligned).
  std::uint8_t read_byte();

  /// Bytes fully or partially consumed so far.
  std::size_t position() const { return next_ - static_cast<std::size_t>(avail_ >> 3); }

  bool exhausted() const { return next_ >= in_.size() && avail_ == 0; }

 private:
  util::BytesView in_;
  std::size_t next_ = 0;      // next input byte not yet in the window
  std::uint64_t window_ = 0;  // unread bits, left-aligned
  int avail_ = 0;             // real bits at the top of window_
};

}  // namespace cbde::compress
