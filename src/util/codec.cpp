#include "util/codec.hpp"

namespace ftvod::util {

void Writer::patch_u32(std::size_t pos, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    buf_.at(pos + i) = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

const std::byte* Reader::need(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const std::byte* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

}  // namespace ftvod::util
