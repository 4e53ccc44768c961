// Deterministic client re-distribution (§5.2). After every movie-group
// membership change, each surviving server runs this pure function on the
// shared client table and the new view; because the inputs are identical at
// every member (the table is built from totally-ordered state syncs and the
// view is agreed), every server reaches the same assignment without any
// extra coordination round.
//
// The algorithm is *stable*: clients keep their current server whenever the
// load allows, so a view change moves the minimum number of sessions
// (crashed servers' orphans first, then overflow from overloaded servers).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/address.hpp"

namespace ftvod::vod {

/// client id -> serving node (net::kInvalidNode for "currently unserved").
using Assignment = std::map<std::uint64_t, net::NodeId>;

/// How the remainder (when clients don't divide evenly) is allocated.
enum class RebalancePolicy {
  /// Extra quota goes to the currently least-loaded servers: a freshly
  /// started (empty) server always attracts work. This reproduces the
  /// paper's measured run, where the single client migrated to the server
  /// brought up on the fly. Not idempotent for the remainder clients.
  kSpread,
  /// Extra quota stays with the currently most-loaded servers: minimal
  /// session movement, idempotent, but a new server relieves load only
  /// when the imbalance exceeds one. (Ablation alternative.)
  kStable,
};

/// Computes the new assignment.
///   current  — last known owner per client (owners not in `servers` are
///              treated as failed; their clients are orphans)
///   servers  — the movie group's new membership, sorted ascending
/// Postconditions: every client is assigned to a member of `servers`
/// (unless `servers` is empty), and the load is balanced to within one.
Assignment rebalance(const Assignment& current,
                     const std::vector<net::NodeId>& servers,
                     RebalancePolicy policy = RebalancePolicy::kSpread);

/// Chooses the server that must serve a brand-new client; `load[i]` is the
/// number of clients `servers[i]` currently serves. Deterministic:
/// least-loaded, ties to the lowest node id. Returns net::kInvalidNode when
/// `servers` is empty.
net::NodeId choose_for_new_client(const std::vector<net::NodeId>& servers,
                                  const std::vector<std::size_t>& load);

}  // namespace ftvod::vod
