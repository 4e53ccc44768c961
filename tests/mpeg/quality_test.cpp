#include "mpeg/quality.hpp"

#include <gtest/gtest.h>

namespace ftvod::mpeg {
namespace {

TEST(Quality, FullRateSendsEverything) {
  auto m = Movie::synthetic("t", 10.0, 30.0);
  QualityFilter f(*m, 30.0);
  for (std::uint64_t i = 0; i < 120; ++i) {
    EXPECT_TRUE(f.should_send(i));
  }
  EXPECT_EQ(f.keep_per_gop(), 12u);
}

TEST(Quality, AboveNativeRateClamps) {
  auto m = Movie::synthetic("t", 10.0, 30.0);
  QualityFilter f(*m, 60.0);
  EXPECT_EQ(f.keep_per_gop(), 12u);
}

TEST(Quality, IFramesAlwaysSent) {
  auto m = Movie::synthetic("t", 10.0, 30.0);
  for (double fps : {1.0, 2.5, 5.0, 10.0, 15.0, 20.0, 29.0}) {
    QualityFilter f(*m, fps);
    for (std::uint64_t i = 0; i < m->frame_count(); ++i) {
      if (m->frame_type(i) == FrameType::kI) {
        EXPECT_TRUE(f.should_send(i)) << "fps=" << fps << " i=" << i;
      }
    }
  }
}

TEST(Quality, PFramesPreferredOverB) {
  auto m = Movie::synthetic("t", 10.0, 30.0);
  // Keep 4 of 12: the I frame and the three P frames; no B frames.
  QualityFilter f(*m, 10.0);
  EXPECT_EQ(f.keep_per_gop(), 4u);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const bool sent = f.should_send(i);
    if (m->frame_type(i) == FrameType::kB) {
      EXPECT_FALSE(sent) << i;
    } else {
      EXPECT_TRUE(sent) << i;
    }
  }
}

TEST(Quality, EffectiveRateMatchesTarget) {
  auto m = Movie::synthetic("t", 10.0, 30.0);
  for (double fps : {5.0, 10.0, 15.0, 20.0, 25.0}) {
    QualityFilter f(*m, fps);
    // Count actual transmissions over many GOPs.
    std::uint64_t sent = 0;
    const std::uint64_t n = 1200;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (f.should_send(i)) ++sent;
    }
    const double actual = 30.0 * static_cast<double>(sent) / n;
    EXPECT_NEAR(actual, fps, 1.5) << "target " << fps;
  }
}

TEST(Quality, ExtremelyLowRateKeepsOnlyI) {
  auto m = Movie::synthetic("t", 10.0, 30.0);
  QualityFilter f(*m, 0.5);
  EXPECT_EQ(f.keep_per_gop(), 1u);
  for (std::uint64_t i = 0; i < 36; ++i) {
    EXPECT_EQ(f.should_send(i), m->frame_type(i) == FrameType::kI);
  }
}

TEST(Quality, DeterministicAcrossInstances) {
  // A migrated server must pick the same frames as its predecessor.
  auto m = Movie::synthetic("t", 10.0, 30.0);
  QualityFilter f1(*m, 12.0);
  QualityFilter f2(*m, 12.0);
  for (std::uint64_t i = 0; i < 240; ++i) {
    EXPECT_EQ(f1.should_send(i), f2.should_send(i));
  }
}

}  // namespace
}  // namespace ftvod::mpeg
