// Seed sweep of Scale.ServerPartitionHealsAndRebalances: the same scenario
// and assertions over seeds 1–60. A heal races the servers' view proposals
// against each other, and which daemon wins depends on same-µs tie-breaks,
// so one pinned seed covers only one interleaving of that race.
#include <gtest/gtest.h>

#include "vod_testbed.hpp"

namespace ftvod::vod {
namespace {

using testing::VodTestBed;

class PartitionHealSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionHealSoak, ServerPartitionHealsAndRebalances) {
  VodTestBed bed(2, 1, net::lan_quality(), GetParam());
  bed.watch_all();
  bed.run_for(12.0);
  const int serving = bed.serving_server();
  ASSERT_GE(serving, 0);
  const auto& dep_servers = bed.deployment().servers();
  bed.deployment().network().partition(
      {{dep_servers[serving]->node, bed.deployment().clients()[0]->node},
       {dep_servers[1 - serving]->node}});
  const auto before = bed.client().counters().displayed;
  bed.run_for(8.0);
  EXPECT_GT(bed.client().counters().displayed - before, 200u);

  bed.deployment().network().heal();
  bed.run_for(8.0);
  int owners = 0;
  for (int s = 0; s < 2; ++s) {
    if (bed.server(s).serves(bed.client().client_id())) ++owners;
  }
  EXPECT_EQ(owners, 1);
  EXPECT_EQ(bed.client().counters().starvation_ticks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionHealSoak,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace ftvod::vod
