#include "vod/redistribution.hpp"

#include <algorithm>
#include <tuple>

namespace ftvod::vod {

namespace {

bool is_member(const std::vector<net::NodeId>& servers, net::NodeId n) {
  return std::binary_search(servers.begin(), servers.end(), n);
}

}  // namespace

Assignment rebalance(const Assignment& current,
                     const std::vector<net::NodeId>& servers,
                     RebalancePolicy policy) {
  Assignment out;
  if (servers.empty()) {
    for (const auto& [client, owner] : current) {
      out[client] = net::kInvalidNode;
    }
    return out;
  }

  // Load ceiling: clients spread to within one of each other.
  const std::size_t n_clients = current.size();
  const std::size_t n_servers = servers.size();
  const std::size_t base = n_clients / n_servers;
  std::size_t extra = n_clients % n_servers;  // first `extra` servers get +1

  // Quota per server: everyone gets the base; the remainder order depends
  // on the policy. kSpread hands it to the *least-loaded* servers first
  // (ties to the lowest id) — this is what makes a freshly started, empty
  // server attract clients, the paper's "new servers may be brought up on
  // the fly to alleviate the load". kStable keeps it with the currently
  // most-loaded servers so nothing moves unnecessarily.
  std::map<net::NodeId, std::size_t> load;
  for (net::NodeId s : servers) load[s] = 0;
  for (const auto& [client, owner] : current) {
    if (auto it = load.find(owner); it != load.end()) ++it->second;
  }
  std::vector<net::NodeId> by_load = servers;
  std::stable_sort(by_load.begin(), by_load.end(),
                   [&](net::NodeId a, net::NodeId b) {
                     if (load[a] != load[b]) {
                       return policy == RebalancePolicy::kSpread
                                  ? load[a] < load[b]
                                  : load[a] > load[b];
                     }
                     return a < b;
                   });
  std::map<net::NodeId, std::size_t> quota;
  for (net::NodeId s : servers) quota[s] = base;
  for (net::NodeId s : by_load) {
    if (extra == 0) break;
    ++quota[s];
    --extra;
  }

  // Pass 1 (stability): keep clients on their surviving owner up to quota.
  // Iterating the (ordered) map keeps the choice of which clients overflow
  // deterministic: the highest client ids of an overloaded server move.
  std::vector<std::uint64_t> orphans;
  for (const auto& [client, owner] : current) {
    if (is_member(servers, owner) && quota[owner] > 0) {
      out[client] = owner;
      --quota[owner];
    } else {
      orphans.push_back(client);
    }
  }

  // Pass 2: place orphans into remaining quota, lowest server id first.
  for (std::uint64_t client : orphans) {
    for (net::NodeId s : servers) {
      if (quota[s] > 0) {
        out[client] = s;
        --quota[s];
        break;
      }
    }
  }
  return out;
}

net::NodeId choose_for_new_client(const std::vector<net::NodeId>& servers,
                                  const std::vector<std::size_t>& load) {
  if (servers.empty()) return net::kInvalidNode;
  std::size_t best = 0;
  for (std::size_t i = 1; i < servers.size(); ++i) {
    if (std::tie(load[i], servers[i]) < std::tie(load[best], servers[best])) {
      best = i;
    }
  }
  return servers[best];
}

}  // namespace ftvod::vod
