// Deterministic client re-distribution (§5.2): balance, stability,
// orphan adoption, and agreement across independent runs.
#include "vod/redistribution.hpp"

#include <gtest/gtest.h>

#include <random>

namespace ftvod::vod {
namespace {

std::map<net::NodeId, std::size_t> load_of(const Assignment& a) {
  std::map<net::NodeId, std::size_t> load;
  for (const auto& [client, server] : a) ++load[server];
  return load;
}

TEST(Redistribution, EmptyInputs) {
  EXPECT_TRUE(rebalance({}, {1, 2}).empty());
  const Assignment a = rebalance({{100, 1}}, {});
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.at(100), net::kInvalidNode);
}

TEST(Redistribution, SingleServerTakesAll) {
  Assignment cur{{1, 9}, {2, 9}, {3, 9}};  // owner 9 is gone
  const Assignment a = rebalance(cur, {5});
  for (const auto& [client, server] : a) EXPECT_EQ(server, 5u);
}

TEST(Redistribution, OrphansOfDeadServerAdopted) {
  // Clients 1-4 on server 10, clients 5-6 on server 20; server 10 dies.
  Assignment cur{{1, 10}, {2, 10}, {3, 10}, {4, 10}, {5, 20}, {6, 20}};
  const Assignment a = rebalance(cur, {20, 30});
  auto load = load_of(a);
  EXPECT_EQ(load[20], 3u);
  EXPECT_EQ(load[30], 3u);
  // The stable clients stayed put.
  EXPECT_EQ(a.at(5), 20u);
  EXPECT_EQ(a.at(6), 20u);
}

TEST(Redistribution, BalancedWithinOne) {
  Assignment cur;
  for (std::uint64_t c = 0; c < 17; ++c) cur[c] = 99;  // all orphaned
  const Assignment a = rebalance(cur, {1, 2, 3, 4, 5});
  auto load = load_of(a);
  std::size_t lo = 17, hi = 0;
  for (const auto& [server, n] : load) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(Redistribution, StableWhenAlreadyBalanced) {
  Assignment cur{{1, 10}, {2, 10}, {3, 20}, {4, 20}};
  const Assignment a = rebalance(cur, {10, 20});
  EXPECT_EQ(a, cur);  // nothing moves
}

TEST(Redistribution, NewServerRelievesLoad) {
  // The paper's load-balancing scenario: a server is brought up and takes a
  // share of existing clients.
  Assignment cur{{1, 10}, {2, 10}, {3, 10}, {4, 10}};
  const Assignment a = rebalance(cur, {10, 20});
  auto load = load_of(a);
  EXPECT_EQ(load[10], 2u);
  EXPECT_EQ(load[20], 2u);
  // Minimal movement: exactly two clients migrated.
  int moved = 0;
  for (const auto& [c, s] : a) {
    if (cur.at(c) != s) ++moved;
  }
  EXPECT_EQ(moved, 2);
}

TEST(Redistribution, MinimalMovesOnCrash) {
  // 3 servers x 2 clients; one server dies: only its 2 clients move.
  Assignment cur{{1, 10}, {2, 10}, {3, 20}, {4, 20}, {5, 30}, {6, 30}};
  const Assignment a = rebalance(cur, {10, 20});
  int moved = 0;
  for (const auto& [c, s] : a) {
    if (cur.at(c) != s) ++moved;
  }
  EXPECT_EQ(moved, 2);
  EXPECT_EQ(a.at(1), 10u);
  EXPECT_EQ(a.at(3), 20u);
}

TEST(Redistribution, SpreadPolicyMigratesToNewEmptyServer) {
  // The paper's load-balance run: one client, and a new server appears.
  Assignment cur{{1, 10}};
  const Assignment a = rebalance(cur, {10, 20}, RebalancePolicy::kSpread);
  EXPECT_EQ(a.at(1), 20u);  // the empty newcomer attracts the client
}

TEST(Redistribution, StablePolicyKeepsClientOnCurrentServer) {
  Assignment cur{{1, 10}};
  const Assignment a = rebalance(cur, {10, 20}, RebalancePolicy::kStable);
  EXPECT_EQ(a.at(1), 10u);  // balanced either way: nothing moves
}

TEST(Redistribution, StablePolicyStillBalancesRealImbalance) {
  Assignment cur{{1, 10}, {2, 10}, {3, 10}, {4, 10}};
  const Assignment a = rebalance(cur, {10, 20}, RebalancePolicy::kStable);
  auto load = load_of(a);
  EXPECT_EQ(load[10], 2u);
  EXPECT_EQ(load[20], 2u);
}

TEST(Redistribution, DeterministicAcrossCalls) {
  Assignment cur;
  for (std::uint64_t c = 0; c < 50; ++c) cur[c] = (c % 3) * 10;
  const std::vector<net::NodeId> servers{0, 10, 20, 30};
  EXPECT_EQ(rebalance(cur, servers), rebalance(cur, servers));
}

TEST(ChooseForNewClient, LeastLoadedWins) {
  EXPECT_EQ(choose_for_new_client({10, 20}, {2, 1}), 20u);
}

TEST(ChooseForNewClient, TieBreaksToLowestId) {
  EXPECT_EQ(choose_for_new_client({10, 20}, {1, 1}), 10u);
  EXPECT_EQ(choose_for_new_client({7, 3, 5}, {0, 0, 0}), 3u);
  EXPECT_EQ(choose_for_new_client({7, 3, 5}, {0, 1, 0}), 5u);
}

TEST(ChooseForNewClient, EmptyServerList) {
  EXPECT_EQ(choose_for_new_client({}, {}), net::kInvalidNode);
}

class RedistributionProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RedistributionProperty, RandomTopologiesStayBalancedAndTotal) {
  std::mt19937 gen(GetParam() * 31337 + 7);
  std::uniform_int_distribution<int> n_servers_d(1, 8);
  std::uniform_int_distribution<int> n_clients_d(0, 60);
  for (int iter = 0; iter < 50; ++iter) {
    const int n_servers = n_servers_d(gen);
    std::vector<net::NodeId> servers;
    for (int s = 0; s < n_servers; ++s) {
      servers.push_back(static_cast<net::NodeId>(s * 3 + gen() % 3));
    }
    std::sort(servers.begin(), servers.end());
    servers.erase(std::unique(servers.begin(), servers.end()), servers.end());

    Assignment cur;
    const int n_clients = n_clients_d(gen);
    for (int c = 0; c < n_clients; ++c) {
      // Random previous owner, possibly dead.
      cur[static_cast<std::uint64_t>(c)] =
          static_cast<net::NodeId>(gen() % 30);
    }
    const Assignment a = rebalance(cur, servers);
    ASSERT_EQ(a.size(), cur.size());
    std::size_t lo = SIZE_MAX, hi = 0;
    auto load = load_of(a);
    for (net::NodeId s : servers) {
      lo = std::min(lo, load[s]);
      hi = std::max(hi, load[s]);
    }
    if (!servers.empty() && !cur.empty()) {
      ASSERT_LE(hi - lo, 1u) << "imbalance";
      for (const auto& [c, s] : a) {
        ASSERT_TRUE(std::binary_search(servers.begin(), servers.end(), s));
      }
    }
    // Re-running stays balanced and total too.
    const Assignment again = rebalance(a, servers);
    ASSERT_EQ(again.size(), a.size());

    // The kStable policy is additionally idempotent: re-running on its own
    // result moves nobody.
    const Assignment stable = rebalance(cur, servers, RebalancePolicy::kStable);
    EXPECT_EQ(rebalance(stable, servers, RebalancePolicy::kStable), stable);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedistributionProperty,
                         ::testing::Range(0u, 10u));

}  // namespace
}  // namespace ftvod::vod
