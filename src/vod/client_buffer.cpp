#include "vod/client_buffer.hpp"

#include <algorithm>

namespace ftvod::vod {

void ClientBuffers::insert(const mpeg::FrameInfo& frame) {
  ++counters_.received;
  const auto idx = static_cast<std::int64_t>(frame.index);
  const auto sw_begin = frames_.begin() + static_cast<std::ptrdiff_t>(hw_end_);
  const auto it = std::lower_bound(
      sw_begin, frames_.end(), frame.index,
      [](const mpeg::FrameInfo& f, std::uint64_t i) { return f.index < i; });

  // Too late to re-order in (the decoder moved past it), or a duplicate.
  if (idx <= hw_horizon_ || (it != frames_.end() && it->index == frame.index)) {
    ++counters_.late;
    return;
  }
  auto pos = static_cast<std::size_t>(it - frames_.begin());

  if (sw_frames() >= sw_capacity_) {
    // Overflow: make room by discarding the furthest-from-display
    // incremental frame; fall back to an I frame only when the whole buffer
    // is I frames (§3: "when possible we discard an incremental frame").
    std::size_t past_victim = frames_.size();
    while (past_victim > hw_end_ &&
           frames_[past_victim - 1].type == mpeg::FrameType::kI) {
      --past_victim;
    }
    ++counters_.overflow_discards;
    if (past_victim == hw_end_) {
      // All buffered frames are I frames. Keep them: if the incoming frame
      // is incremental, discard it instead; otherwise evict the furthest I.
      if (frame.type != mpeg::FrameType::kI) {
        return;  // incoming frame dropped
      }
      past_victim = frames_.size();
      ++counters_.overflow_discarded_i_frames;
    }
    const std::size_t victim = past_victim - 1;
    frames_.erase(frames_.begin() + static_cast<std::ptrdiff_t>(victim));
    if (victim < pos) --pos;
  }

  if (frames_.size() == frames_.capacity() && head_ > 0) {
    // Reclaim the displayed prefix instead of growing the array.
    frames_.erase(frames_.begin(),
                  frames_.begin() + static_cast<std::ptrdiff_t>(head_));
    hw_end_ -= head_;
    pos -= head_;
    head_ = 0;
  }
  frames_.insert(frames_.begin() + static_cast<std::ptrdiff_t>(pos), frame);
  transfer_to_hardware();
}

void ClientBuffers::transfer_to_hardware() {
  // The software head joins the decoder by moving the stage boundary.
  while (hw_end_ < frames_.size()) {
    const mpeg::FrameInfo& head = frames_[hw_end_];
    if (hw_bytes_ + head.size_bytes > hw_capacity_bytes_ && hw_end_ > head_) {
      break;  // decoder buffer full
    }
    hw_bytes_ += head.size_bytes;
    hw_horizon_ = static_cast<std::int64_t>(head.index);
    ++hw_end_;
  }
}

std::optional<mpeg::FrameInfo> ClientBuffers::consume() {
  if (hw_end_ == head_) {
    ++counters_.starvation_ticks;
    return std::nullopt;
  }
  const mpeg::FrameInfo frame = frames_[head_++];
  hw_bytes_ -= frame.size_bytes;

  const auto idx = static_cast<std::int64_t>(frame.index);
  if (last_displayed_ >= 0 && idx > last_displayed_ + 1) {
    // Display-order gap: those frames will never be shown.
    counters_.skipped += static_cast<std::uint64_t>(idx - last_displayed_ - 1);
  }
  last_displayed_ = idx;
  ++counters_.displayed;

  transfer_to_hardware();
  return frame;
}

void ClientBuffers::flush_to(std::uint64_t next_expected_frame) {
  frames_.clear();
  head_ = 0;
  hw_end_ = 0;
  hw_bytes_ = 0;
  hw_horizon_ = static_cast<std::int64_t>(next_expected_frame) - 1;
  last_displayed_ = static_cast<std::int64_t>(next_expected_frame) - 1;
}

}  // namespace ftvod::vod
