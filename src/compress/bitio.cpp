#include "compress/bitio.hpp"

namespace cbde::compress {

void BitWriter::write_bits(std::uint32_t value, int nbits) {
  CBDE_EXPECT(nbits >= 0 && nbits <= 24);
  if (nbits < 32) value &= (1u << nbits) - 1;
  buffer_ = (buffer_ << nbits) | value;
  nbuffered_ += nbits;
  while (nbuffered_ >= 8) {
    nbuffered_ -= 8;
    // alloc: ok(bytes land in the caller's output buffer, which compress() reserves up front)
    out_.push_back(static_cast<std::uint8_t>(buffer_ >> nbuffered_));
  }
  buffer_ &= (1u << nbuffered_) - 1;
}

void BitWriter::align_to_byte() {
  if (nbuffered_ > 0) write_bits(0, 8 - nbuffered_);
}

void BitWriter::write_byte(std::uint8_t byte) {
  CBDE_EXPECT(aligned());
  out_.push_back(byte);
}

std::uint8_t BitReader::read_byte() {
  CBDE_EXPECT((avail_ & 7) == 0);
  if (avail_ > 0) return static_cast<std::uint8_t>(read_bits(8));
  if (next_ >= in_.size()) {
    throw std::invalid_argument("BitReader: read past end of input");
  }
  window_ = 0;  // drop any preloaded bits of the byte taken here
  return in_[next_++];
}

}  // namespace cbde::compress
