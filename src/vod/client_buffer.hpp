// The client's two-stage buffering (§3): received frames enter a software
// buffer (fixed frame capacity; also the re-ordering window), from which
// they are streamed in display order into a hardware decoder buffer (fixed
// byte capacity). The decoder consumes one frame per display period.
//
// Accounting matches the paper's figures:
//  * late frames   — arrived after a later frame was already streamed into
//                    the decoder, or duplicates (Fig 4b),
//  * overflow      — discarded because the software buffer was full; the
//                    victim is an incremental frame when possible (Fig 5b),
//  * skipped       — never displayed (gaps observed at display time: lost,
//                    late-dropped or overflow-discarded; Figs 4a/5a).
//
// Both stages share one index-sorted array: the decoder stage is its prefix
// (every index in it is at or below the decoder horizon, every software
// index above it), so streaming a frame into the decoder moves a boundary
// rather than the frame, and the array stops allocating once warm.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mpeg/frame.hpp"

namespace ftvod::vod {

struct BufferCounters {
  std::uint64_t received = 0;
  std::uint64_t late = 0;
  std::uint64_t overflow_discards = 0;
  std::uint64_t overflow_discarded_i_frames = 0;
  std::uint64_t skipped = 0;
  std::uint64_t displayed = 0;
  std::uint64_t starvation_ticks = 0;
};

class ClientBuffers {
 public:
  ClientBuffers(std::size_t sw_capacity_frames, std::size_t hw_capacity_bytes,
                std::uint32_t avg_frame_bytes)
      : sw_capacity_(sw_capacity_frames),
        hw_capacity_bytes_(hw_capacity_bytes),
        avg_frame_bytes_(avg_frame_bytes == 0 ? 1 : avg_frame_bytes) {
    // Twice the capacity leaves room for the displayed prefix, so it is
    // erased about once per buffer's worth of frames.
    frames_.reserve(2 * total_capacity_frames());
  }

  /// A frame arrived from the network.
  void insert(const mpeg::FrameInfo& frame);

  /// One display period elapsed: the decoder consumes the next frame.
  /// Returns the displayed frame, or nullopt on starvation.
  std::optional<mpeg::FrameInfo> consume();

  /// Drops everything and repositions the stream (VCR random access).
  void flush_to(std::uint64_t next_expected_frame);

  // --- occupancy ----------------------------------------------------------
  [[nodiscard]] std::size_t sw_frames() const {
    return frames_.size() - hw_end_;
  }
  [[nodiscard]] std::size_t hw_frames() const { return hw_end_ - head_; }
  [[nodiscard]] std::size_t hw_bytes() const { return hw_bytes_; }
  [[nodiscard]] std::size_t sw_capacity() const { return sw_capacity_; }
  [[nodiscard]] std::size_t hw_capacity_bytes() const {
    return hw_capacity_bytes_;
  }
  /// Total capacity expressed in frames (hardware estimated at the mean
  /// frame size), the denominator of the flow-control occupancy fraction.
  [[nodiscard]] std::size_t total_capacity_frames() const {
    return sw_capacity_ + hw_capacity_bytes_ / avg_frame_bytes_;
  }
  [[nodiscard]] std::size_t total_frames() const {
    return frames_.size() - head_;
  }
  [[nodiscard]] double occupancy_fraction() const {
    return static_cast<double>(total_frames()) /
           static_cast<double>(total_capacity_frames());
  }
  /// Software-stage occupancy: the emergency thresholds watch this.
  [[nodiscard]] double sw_occupancy_fraction() const {
    return static_cast<double>(sw_frames()) /
           static_cast<double>(sw_capacity_);
  }

  [[nodiscard]] const BufferCounters& counters() const { return counters_; }
  /// Index of the last frame handed to the display, or -1.
  [[nodiscard]] std::int64_t last_displayed() const { return last_displayed_; }

 private:
  void transfer_to_hardware();

  std::size_t sw_capacity_;
  std::size_t hw_capacity_bytes_;
  std::uint32_t avg_frame_bytes_;

  /// Sorted by index: [head_, hw_end_) is the decoder stage, [hw_end_, end)
  /// the software stage, and [0, head_) already displayed. The displayed
  /// prefix is erased when the array is full, instead of growing it.
  std::vector<mpeg::FrameInfo> frames_;
  std::size_t head_ = 0;
  std::size_t hw_end_ = 0;
  std::size_t hw_bytes_ = 0;
  /// Highest frame index ever streamed into the hardware decoder; frames at
  /// or below it can no longer be re-ordered in and count as late.
  std::int64_t hw_horizon_ = -1;
  std::int64_t last_displayed_ = -1;

  BufferCounters counters_;
};

}  // namespace ftvod::vod
