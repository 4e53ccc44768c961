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
//
// Displaying and streaming never write the array: they only move a Cursor
// (the stage boundaries, the decoder's bytes and horizon, the display
// position and the counters). "k more display periods with no arrival" is
// therefore a pure function of the cursor, advanced(cursor, k), which the
// client uses to display lazily and to project when its checks fall due.
#pragma once

#include <array>
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
  /// Everything display progress moves. Sorted array positions: [head,
  /// hw_end) is the decoder stage, [hw_end, end) the software stage, and
  /// [0, head) already displayed.
  struct Cursor {
    std::size_t head = 0;
    std::size_t hw_end = 0;
    std::size_t hw_bytes = 0;
    /// Highest frame index ever streamed into the hardware decoder; frames
    /// at or below it can no longer be re-ordered in and count as late.
    std::int64_t hw_horizon = -1;
    /// Index of the last frame handed to the display, or -1.
    std::int64_t last_displayed = -1;
    BufferCounters counters;
  };

  /// Occupancy and counters of the buffer at one cursor position.
  class View {
   public:
    View(const ClientBuffers& buffers, const Cursor& cursor)
        : b_(&buffers), c_(cursor) {}

    [[nodiscard]] std::size_t sw_frames() const {
      return b_->frames_.size() - c_.hw_end;
    }
    [[nodiscard]] std::size_t hw_frames() const { return c_.hw_end - c_.head; }
    [[nodiscard]] std::size_t hw_bytes() const { return c_.hw_bytes; }
    [[nodiscard]] std::size_t total_frames() const {
      return b_->frames_.size() - c_.head;
    }
    [[nodiscard]] double occupancy_fraction() const {
      return static_cast<double>(total_frames()) /
             static_cast<double>(b_->total_capacity_frames());
    }
    /// Software-stage occupancy: the emergency thresholds watch this.
    [[nodiscard]] double sw_occupancy_fraction() const {
      return static_cast<double>(sw_frames()) /
             static_cast<double>(b_->sw_capacity());
    }
    [[nodiscard]] BufferCounters counters() const { return c_.counters; }
    [[nodiscard]] std::int64_t last_displayed() const {
      return c_.last_displayed;
    }
    [[nodiscard]] std::size_t sw_capacity() const { return b_->sw_capacity(); }
    [[nodiscard]] std::size_t hw_capacity_bytes() const {
      return b_->hw_capacity_bytes();
    }
    [[nodiscard]] std::size_t total_capacity_frames() const {
      return b_->total_capacity_frames();
    }

   private:
    const ClientBuffers* b_;
    Cursor c_;
  };

  ClientBuffers(std::size_t sw_capacity_frames, std::size_t hw_capacity_bytes,
                std::uint32_t avg_frame_bytes)
      : sw_capacity_(sw_capacity_frames),
        hw_capacity_bytes_(hw_capacity_bytes),
        avg_frame_bytes_(avg_frame_bytes == 0 ? 1 : avg_frame_bytes) {
    // The live region (decoder plus software stage) stays near the
    // capacity in frames, so that plus a little slack is all the array
    // needs: the displayed prefix is erased about once per kSlackFrames
    // displayed frames. A live region that outgrows the reservation (a
    // decoder holding many frames smaller than the mean) grows the array.
    frames_.reserve(total_capacity_frames() + kSlackFrames);
  }

  /// A frame arrived from the network. Returns true when an overflow
  /// discarded a buffered frame to admit it: the one insert after which
  /// the software stage can drain sooner than it would have without it.
  bool insert(const mpeg::FrameInfo& frame);

  /// One display period elapsed: the decoder consumes the next frame, i.e.
  /// the cursor becomes advanced(cursor, 1). Returns the displayed frame,
  /// or nullopt on starvation.
  std::optional<mpeg::FrameInfo> consume();

  /// Drops everything and repositions the stream (VCR random access).
  void flush_to(std::uint64_t next_expected_frame);

  /// The cursor `ticks` display periods after `c` with no arrival in
  /// between; equal to `ticks` calls of consume(), without writing.
  [[nodiscard]] Cursor advanced(Cursor c, std::uint64_t ticks) const;
  /// For each fraction, the fewest display periods from now, with no
  /// arrival, after which the software occupancy fraction is below it;
  /// nullopt when it never gets there (it stops falling once the stage is
  /// empty). One pass serves both fractions.
  [[nodiscard]] std::array<std::optional<std::uint64_t>, 2>
  ticks_until_sw_below(std::array<double, 2> fractions) const;

  [[nodiscard]] const Cursor& cursor() const { return cursor_; }
  [[nodiscard]] View view() const { return View(*this, cursor_); }
  [[nodiscard]] View view_after(std::uint64_t ticks) const {
    return View(*this, advanced(cursor_, ticks));
  }

  [[nodiscard]] std::size_t sw_capacity() const { return sw_capacity_; }
  [[nodiscard]] std::size_t hw_capacity_bytes() const {
    return hw_capacity_bytes_;
  }
  /// Total capacity expressed in frames (hardware estimated at the mean
  /// frame size), the denominator of the flow-control occupancy fraction.
  [[nodiscard]] std::size_t total_capacity_frames() const {
    return sw_capacity_ + hw_capacity_bytes_ / avg_frame_bytes_;
  }

 private:
  static constexpr std::size_t kSlackFrames = 16;

  /// One display period at `c`. Returns false on starvation.
  bool step(Cursor& c) const;
  /// Streams the software head into the decoder while it fits.
  void transfer_to_hardware(Cursor& c) const;

  std::size_t sw_capacity_;
  std::size_t hw_capacity_bytes_;
  std::uint32_t avg_frame_bytes_;

  /// Sorted by index; the cursor partitions it. The displayed prefix is
  /// erased when the array is full, instead of growing it.
  std::vector<mpeg::FrameInfo> frames_;
  Cursor cursor_;
};

}  // namespace ftvod::vod
