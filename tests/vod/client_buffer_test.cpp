// Client buffer mechanics (§3): two-stage buffering, re-ordering window,
// late/duplicate handling, the I-frame-preserving overflow policy, and
// skip accounting at display time. A differential fuzz drives the
// production buffer and a node-based reference model of the same rules in
// lockstep.
#include "vod/client_buffer.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>

namespace ftvod::vod {
namespace {

mpeg::FrameInfo frame(std::uint64_t index,
                      mpeg::FrameType type = mpeg::FrameType::kP,
                      std::uint32_t bytes = 5000) {
  return mpeg::FrameInfo{index, type, bytes};
}

/// Reference model: the two stages as an ordered map (software, keyed by
/// index) feeding a FIFO (hardware). Written for clarity, not speed; the
/// production buffer must match it call for call.
class ReferenceBuffers {
 public:
  ReferenceBuffers(std::size_t sw_capacity_frames,
                   std::size_t hw_capacity_bytes)
      : sw_capacity_(sw_capacity_frames),
        hw_capacity_bytes_(hw_capacity_bytes) {}

  void insert(const mpeg::FrameInfo& frame) {
    ++counters_.received;
    const auto idx = static_cast<std::int64_t>(frame.index);
    if (idx <= hw_horizon_ || software_.contains(frame.index)) {
      ++counters_.late;
      return;
    }
    if (software_.size() >= sw_capacity_) {
      auto victim = software_.end();
      for (auto it = software_.rbegin(); it != software_.rend(); ++it) {
        if (it->second.type != mpeg::FrameType::kI) {
          victim = std::prev(it.base());
          break;
        }
      }
      ++counters_.overflow_discards;
      if (victim == software_.end()) {
        if (frame.type != mpeg::FrameType::kI) return;
        victim = std::prev(software_.end());
        ++counters_.overflow_discarded_i_frames;
      }
      software_.erase(victim);
    }
    software_.emplace(frame.index, frame);
    transfer_to_hardware();
  }

  std::optional<mpeg::FrameInfo> consume() {
    if (hardware_.empty()) {
      ++counters_.starvation_ticks;
      return std::nullopt;
    }
    const mpeg::FrameInfo frame = hardware_.front();
    hardware_.pop_front();
    hw_bytes_ -= frame.size_bytes;
    const auto idx = static_cast<std::int64_t>(frame.index);
    if (last_displayed_ >= 0 && idx > last_displayed_ + 1) {
      counters_.skipped +=
          static_cast<std::uint64_t>(idx - last_displayed_ - 1);
    }
    last_displayed_ = idx;
    ++counters_.displayed;
    transfer_to_hardware();
    return frame;
  }

  void flush_to(std::uint64_t next_expected_frame) {
    software_.clear();
    hardware_.clear();
    hw_bytes_ = 0;
    hw_horizon_ = static_cast<std::int64_t>(next_expected_frame) - 1;
    last_displayed_ = static_cast<std::int64_t>(next_expected_frame) - 1;
  }

  [[nodiscard]] std::size_t sw_frames() const { return software_.size(); }
  [[nodiscard]] std::size_t hw_frames() const { return hardware_.size(); }
  [[nodiscard]] std::size_t hw_bytes() const { return hw_bytes_; }
  [[nodiscard]] const BufferCounters& counters() const { return counters_; }
  [[nodiscard]] std::int64_t last_displayed() const { return last_displayed_; }

 private:
  void transfer_to_hardware() {
    while (!software_.empty()) {
      const mpeg::FrameInfo& head = software_.begin()->second;
      if (hw_bytes_ + head.size_bytes > hw_capacity_bytes_ &&
          !hardware_.empty()) {
        break;
      }
      hardware_.push_back(head);
      hw_bytes_ += head.size_bytes;
      hw_horizon_ = static_cast<std::int64_t>(head.index);
      software_.erase(software_.begin());
    }
  }

  std::size_t sw_capacity_;
  std::size_t hw_capacity_bytes_;
  std::map<std::uint64_t, mpeg::FrameInfo> software_;
  std::deque<mpeg::FrameInfo> hardware_;
  std::size_t hw_bytes_ = 0;
  std::int64_t hw_horizon_ = -1;
  std::int64_t last_displayed_ = -1;
  BufferCounters counters_;
};

void expect_same_state(const ClientBuffers& b, const ReferenceBuffers& r) {
  const BufferCounters& c = b.view().counters();
  const BufferCounters& rc = r.counters();
  ASSERT_EQ(c.received, rc.received);
  ASSERT_EQ(c.late, rc.late);
  ASSERT_EQ(c.overflow_discards, rc.overflow_discards);
  ASSERT_EQ(c.overflow_discarded_i_frames, rc.overflow_discarded_i_frames);
  ASSERT_EQ(c.skipped, rc.skipped);
  ASSERT_EQ(c.displayed, rc.displayed);
  ASSERT_EQ(c.starvation_ticks, rc.starvation_ticks);
  ASSERT_EQ(b.view().sw_frames(), r.sw_frames());
  ASSERT_EQ(b.view().hw_frames(), r.hw_frames());
  ASSERT_EQ(b.view().hw_bytes(), r.hw_bytes());
  ASSERT_EQ(b.view().last_displayed(), r.last_displayed());
}

/// Small buffers for focused tests: 4 software slots, 3 frames of hardware.
ClientBuffers small() { return ClientBuffers(4, 3 * 5000, 5000); }

TEST(ClientBuffers, FramesFlowThroughToDisplay) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  EXPECT_EQ(b.view().hw_frames(), 3u);  // streamed straight into the decoder
  EXPECT_EQ(b.view().sw_frames(), 0u);
  auto f = b.consume();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->index, 0u);
  EXPECT_EQ(b.view().counters().displayed, 1u);
  EXPECT_EQ(b.view().counters().skipped, 0u);
}

TEST(ClientBuffers, SoftwareFillsWhenHardwareFull) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 6; ++i) b.insert(frame(i));
  EXPECT_EQ(b.view().hw_frames(), 3u);
  EXPECT_EQ(b.view().sw_frames(), 3u);
  EXPECT_EQ(b.view().total_frames(), 6u);
  EXPECT_EQ(b.view().hw_bytes(), 15'000u);
}

TEST(ClientBuffers, ConsumeRefillsHardwareFromSoftware) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 6; ++i) b.insert(frame(i));
  (void)b.consume();
  EXPECT_EQ(b.view().hw_frames(), 3u);  // topped up from software
  EXPECT_EQ(b.view().sw_frames(), 2u);
}

TEST(ClientBuffers, OutOfOrderReorderedInSoftware) {
  ClientBuffers b = small();
  // Fill hardware so subsequent arrivals stay in the software window.
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  b.insert(frame(5));
  b.insert(frame(3));
  b.insert(frame(4));
  // Drain: display order must be 0..5 with no skips.
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 6; ++i) {
    auto f = b.consume();
    ASSERT_TRUE(f.has_value());
    order.push_back(f->index);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(b.view().counters().skipped, 0u);
  EXPECT_EQ(b.view().counters().late, 0u);
}

TEST(ClientBuffers, DuplicateCountsAsLate) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  b.insert(frame(4));
  b.insert(frame(4));  // duplicate while still in the software buffer
  EXPECT_EQ(b.view().counters().late, 1u);
}

TEST(ClientBuffers, ArrivalBehindDecoderHorizonIsLate) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  // Frames 0..2 are already in the decoder; a late copy of 1 is useless.
  b.insert(frame(1));
  EXPECT_EQ(b.view().counters().late, 1u);
  // Consuming past it doesn't re-display it.
  (void)b.consume();
  (void)b.consume();
  EXPECT_EQ(b.view().counters().displayed, 2u);
}

TEST(ClientBuffers, GapCountsSkippedAtDisplayTime) {
  ClientBuffers b = small();
  b.insert(frame(0));
  b.insert(frame(1));
  b.insert(frame(4));  // 2 and 3 lost in the network
  (void)b.consume();
  (void)b.consume();
  auto f = b.consume();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->index, 4u);
  EXPECT_EQ(b.view().counters().skipped, 2u);
}

TEST(ClientBuffers, StarvationCounted) {
  ClientBuffers b = small();
  EXPECT_EQ(b.consume(), std::nullopt);
  EXPECT_EQ(b.consume(), std::nullopt);
  EXPECT_EQ(b.view().counters().starvation_ticks, 2u);
}

TEST(ClientBuffers, OverflowDiscardsIncrementalNotI) {
  ClientBuffers b = small();
  // Fill hardware (3) + software (4).
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  b.insert(frame(3, mpeg::FrameType::kB));
  b.insert(frame(4, mpeg::FrameType::kI));
  b.insert(frame(5, mpeg::FrameType::kB));
  b.insert(frame(6, mpeg::FrameType::kI));
  EXPECT_EQ(b.view().sw_frames(), 4u);
  // Overflow: frame 7 arrives; the furthest *incremental* frame (5) must be
  // discarded, never the I frames.
  b.insert(frame(7, mpeg::FrameType::kP));
  EXPECT_EQ(b.view().counters().overflow_discards, 1u);
  EXPECT_EQ(b.view().counters().overflow_discarded_i_frames, 0u);
  std::vector<std::uint64_t> displayed;
  while (auto f = b.consume()) displayed.push_back(f->index);
  EXPECT_EQ(displayed, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 6, 7}));
}

TEST(ClientBuffers, OverflowAllIFramesDropsIncomingIncremental) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  for (std::uint64_t i = 3; i < 7; ++i) b.insert(frame(i, mpeg::FrameType::kI));
  // Software holds four I frames; an incoming B is the preferred victim.
  b.insert(frame(7, mpeg::FrameType::kB));
  EXPECT_EQ(b.view().counters().overflow_discards, 1u);
  EXPECT_EQ(b.view().counters().overflow_discarded_i_frames, 0u);
  EXPECT_EQ(b.view().sw_frames(), 4u);
}

TEST(ClientBuffers, OverflowAllIFramesEvictsFurthestIForIncomingI) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  for (std::uint64_t i = 3; i < 7; ++i) b.insert(frame(i, mpeg::FrameType::kI));
  b.insert(frame(7, mpeg::FrameType::kI));
  EXPECT_EQ(b.view().counters().overflow_discards, 1u);
  EXPECT_EQ(b.view().counters().overflow_discarded_i_frames, 1u);
}

TEST(ClientBuffers, HardwareRespectsByteBudgetNotFrameCount) {
  // 10 KB hardware budget with 4 KB frames: only 2 fit (8 KB), not 3.
  ClientBuffers b(4, 10'000, 4000);
  b.insert(frame(0, mpeg::FrameType::kP, 4000));
  b.insert(frame(1, mpeg::FrameType::kP, 4000));
  b.insert(frame(2, mpeg::FrameType::kP, 4000));
  EXPECT_EQ(b.view().hw_frames(), 2u);
  EXPECT_EQ(b.view().sw_frames(), 1u);
}

TEST(ClientBuffers, OversizedFrameStillEntersEmptyHardware) {
  ClientBuffers b(4, 3000, 3000);
  b.insert(frame(0, mpeg::FrameType::kI, 20'000));  // larger than the buffer
  EXPECT_EQ(b.view().hw_frames(), 1u);  // admitted rather than wedged forever
}

TEST(ClientBuffers, FlushRepositionsWithoutCountingSkips) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 5; ++i) b.insert(frame(i));
  (void)b.consume();
  b.flush_to(1000);
  EXPECT_EQ(b.view().total_frames(), 0u);
  EXPECT_EQ(b.view().hw_bytes(), 0u);
  b.insert(frame(1000));
  b.insert(frame(1001));
  auto f = b.consume();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->index, 1000u);
  EXPECT_EQ(b.view().counters().skipped, 0u);  // the jump is not "skipped frames"
}

TEST(ClientBuffers, FlushMakesOlderFramesLate) {
  ClientBuffers b = small();
  b.flush_to(1000);
  b.insert(frame(999));  // pre-seek stragglers
  EXPECT_EQ(b.view().counters().late, 1u);
  EXPECT_EQ(b.view().total_frames(), 0u);
}

TEST(ClientBuffers, OccupancyFraction) {
  ClientBuffers b(10, 10 * 5000, 5000);  // 20 frames total capacity
  EXPECT_EQ(b.total_capacity_frames(), 20u);
  for (std::uint64_t i = 0; i < 5; ++i) b.insert(frame(i));
  EXPECT_DOUBLE_EQ(b.view().occupancy_fraction(), 0.25);
}

TEST(ClientBuffers, PaperSizedBuffersHoldAbout2Point4Seconds) {
  // 37 software frames + 240 KB hardware at 5833-byte frames ~ 79 frames
  // ~ 2.6 s at 30 fps — the paper's "approximately 2.4 seconds of video".
  ClientBuffers b(37, 240 * 1024, 5833);
  const double seconds =
      static_cast<double>(b.total_capacity_frames()) / 30.0;
  EXPECT_NEAR(seconds, 2.4, 0.3);
}

class BufferFuzz : public ::testing::TestWithParam<unsigned> {};

// Random arrival orders with drops and duplicates: displayed indices are
// strictly increasing, counters are consistent, capacity is never exceeded.
TEST_P(BufferFuzz, InvariantsUnderRandomTraffic) {
  std::mt19937 gen(GetParam() * 1299709 + 11);
  ClientBuffers b(8, 6 * 5000, 5000);
  std::uniform_int_distribution<int> jitter(-3, 3);
  std::uniform_int_distribution<int> action(0, 9);
  std::uint64_t next = 0;
  std::int64_t last_shown = -1;
  for (int step = 0; step < 5000; ++step) {
    if (action(gen) < 7) {
      // Arrival with jittered index; occasionally skip ahead (loss) or
      // repeat (duplicate).
      const std::int64_t idx = static_cast<std::int64_t>(next) + jitter(gen);
      if (idx >= 0) {
        const auto type = idx % 12 == 0 ? mpeg::FrameType::kI
                                        : mpeg::FrameType::kB;
        b.insert(frame(static_cast<std::uint64_t>(idx), type));
      }
      ++next;
    } else {
      if (auto f = b.consume()) {
        ASSERT_GT(static_cast<std::int64_t>(f->index), last_shown);
        last_shown = static_cast<std::int64_t>(f->index);
      }
    }
    ASSERT_LE(b.view().sw_frames(), 8u);
    ASSERT_LE(b.view().hw_bytes(), 6u * 5000u + 20'000u);  // one oversized allowance
  }
  // Conservation: every received frame is either displayed, still buffered,
  // dropped as late, or discarded on overflow.
  const BufferCounters& c = b.view().counters();
  ASSERT_EQ(c.displayed + b.view().total_frames() + c.late + c.overflow_discards,
            c.received);
}

// Differential check against the reference model: in-order and reordered
// arrivals, duplicates, stragglers behind the decoder horizon, overflow with
// mixed and all-I frame runs, frames larger than the decoder, repositioning
// and starvation. State and every consume() result must match after every
// call.
TEST_P(BufferFuzz, MatchesReferenceModel) {
  std::mt19937 gen(GetParam() * 7919 + 3);
  const std::size_t sw_cap = 3 + GetParam() % 6;
  const std::size_t hw_cap = (2 + GetParam() % 5) * 5000;
  ClientBuffers b(sw_cap, hw_cap, 5000);
  ReferenceBuffers r(sw_cap, hw_cap);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> jitter(-4, 6);
  std::uniform_int_distribution<std::uint32_t> size(500, 9000);
  std::uint64_t next = 0;
  // Re-drawn in phases: the percentage of I frames (sometimes all), and of
  // arrivals among calls (below ~50 the buffer drains and starves).
  int i_share = 10;
  int arrivals = 60;
  for (int step = 0; step < 20'000; ++step) {
    if (step % 500 == 0) {
      i_share = pct(gen) < 25 ? 100 : pct(gen) / 2;
      arrivals = 40 + pct(gen) / 2;
    }
    const int roll = pct(gen);
    if (roll < arrivals) {
      std::int64_t idx = static_cast<std::int64_t>(next);
      const int kind = pct(gen);
      if (kind < 40) {
        ++next;  // in order
      } else if (kind < 75) {
        idx += jitter(gen);  // reordered, or a gap on loss
        ++next;
      } else if (kind < 90) {
        idx -= 1 + pct(gen) % 4;  // duplicate of a recent frame
      } else {
        idx = r.last_displayed() - pct(gen) % 3;  // behind the horizon
      }
      if (idx < 0) continue;
      const auto type = pct(gen) < i_share
                            ? mpeg::FrameType::kI
                            : (pct(gen) < 50 ? mpeg::FrameType::kP
                                             : mpeg::FrameType::kB);
      const std::uint32_t bytes =
          pct(gen) < 3 ? static_cast<std::uint32_t>(hw_cap) + 4000 : size(gen);
      const mpeg::FrameInfo f = frame(static_cast<std::uint64_t>(idx), type,
                                      bytes);
      b.insert(f);
      r.insert(f);
    } else if (roll < 98) {
      const auto got = b.consume();
      const auto want = r.consume();
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got) {
        ASSERT_EQ(got->index, want->index) << "step " << step;
        ASSERT_EQ(got->type, want->type) << "step " << step;
        ASSERT_EQ(got->size_bytes, want->size_bytes) << "step " << step;
      }
    } else {
      // Random access: forward jumps and the occasional rewind.
      const std::uint64_t to =
          pct(gen) < 70 ? next + static_cast<std::uint64_t>(pct(gen))
                        : next / 2;
      b.flush_to(to);
      r.flush_to(to);
      next = to;
    }
    expect_same_state(b, r);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged at step " << step;
    }
  }
  EXPECT_GT(r.counters().overflow_discarded_i_frames, 0u);
  EXPECT_GT(r.counters().starvation_ticks, 0u);
}

void expect_same_cursor(const ClientBuffers::Cursor& a,
                        const ClientBuffers::Cursor& b) {
  ASSERT_EQ(a.head, b.head);
  ASSERT_EQ(a.hw_end, b.hw_end);
  ASSERT_EQ(a.hw_bytes, b.hw_bytes);
  ASSERT_EQ(a.hw_horizon, b.hw_horizon);
  ASSERT_EQ(a.last_displayed, b.last_displayed);
  ASSERT_EQ(a.counters.received, b.counters.received);
  ASSERT_EQ(a.counters.late, b.counters.late);
  ASSERT_EQ(a.counters.overflow_discards, b.counters.overflow_discards);
  ASSERT_EQ(a.counters.overflow_discarded_i_frames,
            b.counters.overflow_discarded_i_frames);
  ASSERT_EQ(a.counters.skipped, b.counters.skipped);
  ASSERT_EQ(a.counters.displayed, b.counters.displayed);
  ASSERT_EQ(a.counters.starvation_ticks, b.counters.starvation_ticks);
}

// The lazy display's projection: advanced(cursor, k) must equal k calls of
// consume() in every boundary and counter, from any state the arrivals,
// overflows and repositioning leave behind, starvation included; and
// ticks_until_sw_below() must name the first such k below a threshold.
TEST_P(BufferFuzz, ProjectionMatchesConsume) {
  std::mt19937 gen(GetParam() * 104729 + 5);
  const std::size_t sw_cap = 4 + GetParam() % 5;
  const std::size_t hw_cap = (3 + GetParam() % 4) * 5000;
  ClientBuffers b(sw_cap, hw_cap, 5000);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<std::uint32_t> size(500, 9000);
  std::uint64_t next = 0;
  std::uint64_t projections = 0;
  for (int step = 0; step < 4000; ++step) {
    const int roll = pct(gen);
    if (roll < 65) {
      std::int64_t idx = static_cast<std::int64_t>(next++);
      if (pct(gen) < 30) idx += pct(gen) % 7 - 2;  // reordered or a gap
      if (idx < 0) continue;
      const auto type = pct(gen) < 15 ? mpeg::FrameType::kI
                                      : mpeg::FrameType::kB;
      const std::uint32_t bytes =
          pct(gen) < 3 ? static_cast<std::uint32_t>(hw_cap) + 2000 : size(gen);
      b.insert(frame(static_cast<std::uint64_t>(idx), type, bytes));
    } else if (roll < 75) {
      (void)b.consume();
    } else if (roll < 77) {
      next += static_cast<std::uint64_t>(pct(gen));
      b.flush_to(next);
    } else {
      const auto k = static_cast<std::uint64_t>(pct(gen) % 40);
      const ClientBuffers::Cursor projected = b.advanced(b.cursor(), k);
      ClientBuffers stepped = b;
      for (std::uint64_t i = 0; i < k; ++i) (void)stepped.consume();
      expect_same_cursor(projected, stepped.cursor());
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "projection of " << k << " ticks diverged at step " << step;
      }
      // The first k at which the software stage falls below a fraction.
      const std::array<double, 2> fractions = {
          static_cast<double>(pct(gen)) / 100.0,
          static_cast<double>(pct(gen)) / 100.0};
      const auto got = b.ticks_until_sw_below(fractions);
      for (std::size_t i = 0; i < 2; ++i) {
        const auto want = [&]() -> std::optional<std::uint64_t> {
          for (std::uint64_t t = 1; t <= 200; ++t) {
            if (b.view_after(t).sw_occupancy_fraction() < fractions[i]) {
              return t;
            }
          }
          return std::nullopt;
        }();
        ASSERT_EQ(got[i], want) << "step " << step << " fraction " << i;
      }
      ++projections;
    }
  }
  EXPECT_GT(projections, 500u);
  EXPECT_GT(b.view().counters().overflow_discards, 0u);
  EXPECT_GT(b.view().counters().starvation_ticks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferFuzz, ::testing::Range(0u, 8u));

}  // namespace
}  // namespace ftvod::vod
