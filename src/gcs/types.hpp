// Core identifiers and view types of the group communication system (GCS).
//
// The GCS follows the architecture the paper relies on in Transis (and that
// Spread later popularized): one *daemon* per host maintains a heavyweight
// daemon-level membership; application processes join lightweight named
// groups through their local daemon. Group membership changes and group
// multicasts are totally ordered, and view changes are virtually
// synchronous: all daemons that survive into the next view deliver the same
// set of messages before installing it.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace ftvod::gcs {

/// A process endpoint: the daemon's node plus a daemon-local handle id.
struct GcsEndpoint {
  net::NodeId node = net::kInvalidNode;
  std::uint32_t local = 0;

  auto operator<=>(const GcsEndpoint&) const = default;
};

template <class IO>
void fields(IO& io, GcsEndpoint& e) {
  io(e.node, e.local);
}

inline std::ostream& operator<<(std::ostream& os, const GcsEndpoint& e) {
  return os << "n" << e.node << "/" << e.local;
}

/// Identifies a daemon-level view. Totally ordered (counter, then coord).
struct ViewId {
  std::uint64_t counter = 0;
  net::NodeId coord = net::kInvalidNode;

  auto operator<=>(const ViewId&) const = default;
};

template <class IO>
void fields(IO& io, ViewId& v) {
  io(v.counter, v.coord);
}

inline std::ostream& operator<<(std::ostream& os, const ViewId& v) {
  return os << "v" << v.counter << "@" << v.coord;
}

struct DaemonView {
  ViewId id;
  std::vector<net::NodeId> members;  // sorted ascending

  [[nodiscard]] bool contains(net::NodeId n) const {
    return std::binary_search(members.begin(), members.end(), n);
  }
};

/// Membership of one lightweight group as delivered to applications.
struct GroupView {
  std::string group;
  std::uint64_t daemon_view_counter = 0;
  std::uint32_t change_seq = 0;  // monotonic per group per daemon view
  std::vector<GcsEndpoint> members;  // sorted ascending

  [[nodiscard]] bool contains(const GcsEndpoint& e) const {
    return std::binary_search(members.begin(), members.end(), e);
  }
};

struct GcsConfig {
  /// All hosts that may ever run a daemon (the Spread-style segment file).
  std::vector<net::NodeId> peers;
  net::Port port = 700;

  /// Silence after which the failure detector suspects a peer.
  sim::Duration suspect_timeout = sim::msec(400);
};

// The daemon's fixed protocol periods and delays.
/// Between two heartbeats of a daemon.
inline constexpr sim::Duration kHeartbeatInterval = sim::msec(75);
/// Between two failure-detector sweeps over the peers.
inline constexpr sim::Duration kFdCheckInterval = sim::msec(50);
/// Between two re-sends of the submits not yet ordered.
inline constexpr sim::Duration kResubmitInterval = sim::msec(100);
/// Between two NACK ticks: a gap older than one tick is asked for.
inline constexpr sim::Duration kNackDelay = sim::msec(30);
/// Between two re-sends of an unanswered proposal, flush request or
/// install, and the least time between two proposals.
inline constexpr sim::Duration kProposeRetry = sim::msec(200);
/// Minimum time between proposals that merge a foreign view.
inline constexpr sim::Duration kMergeBackoff = sim::msec(300);
/// A daemon blocked on a proposal this long suspects the proposer.
inline constexpr sim::Duration kBlockedRescue = sim::msec(1500);

}  // namespace ftvod::gcs
