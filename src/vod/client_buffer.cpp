#include "vod/client_buffer.hpp"

#include <algorithm>

namespace ftvod::vod {

bool ClientBuffers::insert(const mpeg::FrameInfo& frame) {
  Cursor& c = cursor_;
  ++c.counters.received;
  const auto idx = static_cast<std::int64_t>(frame.index);
  const auto sw_begin = frames_.begin() + static_cast<std::ptrdiff_t>(c.hw_end);
  const auto it = std::lower_bound(
      sw_begin, frames_.end(), frame.index,
      [](const mpeg::FrameInfo& f, std::uint64_t i) { return f.index < i; });

  // Too late to re-order in (the decoder moved past it), or a duplicate.
  if (idx <= c.hw_horizon ||
      (it != frames_.end() && it->index == frame.index)) {
    ++c.counters.late;
    return false;
  }
  auto pos = static_cast<std::size_t>(it - frames_.begin());

  bool evicted = false;
  if (frames_.size() - c.hw_end >= sw_capacity_) {
    // Overflow: make room by discarding the furthest-from-display
    // incremental frame; fall back to an I frame only when the whole buffer
    // is I frames (§3: "when possible we discard an incremental frame").
    std::size_t past_victim = frames_.size();
    while (past_victim > c.hw_end &&
           frames_[past_victim - 1].type == mpeg::FrameType::kI) {
      --past_victim;
    }
    ++c.counters.overflow_discards;
    if (past_victim == c.hw_end) {
      // All buffered frames are I frames. Keep them: if the incoming frame
      // is incremental, discard it instead; otherwise evict the furthest I.
      if (frame.type != mpeg::FrameType::kI) {
        return false;  // incoming frame dropped
      }
      past_victim = frames_.size();
      ++c.counters.overflow_discarded_i_frames;
    }
    const std::size_t victim = past_victim - 1;
    frames_.erase(frames_.begin() + static_cast<std::ptrdiff_t>(victim));
    if (victim < pos) --pos;
    evicted = true;
  }

  if (frames_.size() == frames_.capacity() && c.head > 0) {
    // Reclaim the displayed prefix instead of growing the array.
    frames_.erase(frames_.begin(),
                  frames_.begin() + static_cast<std::ptrdiff_t>(c.head));
    c.hw_end -= c.head;
    pos -= c.head;
    c.head = 0;
  }
  frames_.insert(frames_.begin() + static_cast<std::ptrdiff_t>(pos), frame);
  transfer_to_hardware(c);
  return evicted;
}

void ClientBuffers::transfer_to_hardware(Cursor& c) const {
  // The software head joins the decoder by moving the stage boundary.
  while (c.hw_end < frames_.size()) {
    const mpeg::FrameInfo& head = frames_[c.hw_end];
    if (c.hw_bytes + head.size_bytes > hw_capacity_bytes_ &&
        c.hw_end > c.head) {
      break;  // decoder buffer full
    }
    c.hw_bytes += head.size_bytes;
    c.hw_horizon = static_cast<std::int64_t>(head.index);
    ++c.hw_end;
  }
}

bool ClientBuffers::step(Cursor& c) const {
  if (c.hw_end == c.head) {
    ++c.counters.starvation_ticks;
    return false;
  }
  const mpeg::FrameInfo& frame = frames_[c.head++];
  c.hw_bytes -= frame.size_bytes;

  const auto idx = static_cast<std::int64_t>(frame.index);
  if (c.last_displayed >= 0 && idx > c.last_displayed + 1) {
    // Display-order gap: those frames will never be shown.
    c.counters.skipped += static_cast<std::uint64_t>(idx - c.last_displayed - 1);
  }
  c.last_displayed = idx;
  ++c.counters.displayed;

  transfer_to_hardware(c);
  return true;
}

std::optional<mpeg::FrameInfo> ClientBuffers::consume() {
  if (!step(cursor_)) return std::nullopt;
  return frames_[cursor_.head - 1];
}

ClientBuffers::Cursor ClientBuffers::advanced(Cursor c,
                                              std::uint64_t ticks) const {
  for (; ticks > 0; --ticks) {
    if (!step(c)) {
      // An empty decoder means an empty software stage too (the decoder
      // always admits the software head when empty), so every remaining
      // period starves as well.
      c.counters.starvation_ticks += ticks - 1;
      break;
    }
  }
  return c;
}

std::array<std::optional<std::uint64_t>, 2>
ClientBuffers::ticks_until_sw_below(std::array<double, 2> fractions) const {
  std::array<std::optional<std::uint64_t>, 2> below;
  // Only the stage boundaries matter here, so each period moves them
  // without the display accounting of step().
  Cursor c = cursor_;
  for (std::uint64_t ticks = 1;; ++ticks) {
    const bool drained = c.hw_end == frames_.size();  // software stage empty
    if (c.hw_end > c.head) {
      c.hw_bytes -= frames_[c.head++].size_bytes;
      transfer_to_hardware(c);
    }
    const double sw = View(*this, c).sw_occupancy_fraction();
    bool done = true;
    for (std::size_t i = 0; i < below.size(); ++i) {
      if (!below[i] && sw < fractions[i]) below[i] = ticks;
      done = done && below[i].has_value();
    }
    if (done || drained) return below;
  }
}

void ClientBuffers::flush_to(std::uint64_t next_expected_frame) {
  frames_.clear();
  Cursor& c = cursor_;
  c.head = 0;
  c.hw_end = 0;
  c.hw_bytes = 0;
  c.hw_horizon = static_cast<std::int64_t>(next_expected_frame) - 1;
  c.last_displayed = static_cast<std::int64_t>(next_expected_frame) - 1;
}

}  // namespace ftvod::vod
