#include "testing/invariants.hpp"

#include <sstream>

#include "util/log.hpp"

namespace ftvod::testing {

namespace {
constexpr std::string_view kLog = "invariant";
constexpr sim::Duration kCheckPeriod = sim::msec(100);
/// Invariant 1: max time a client may be served by two healthy servers.
constexpr sim::Duration kMultiServeGrace = sim::sec(8.0);
/// Violations recorded (all are counted).
constexpr std::size_t kMaxRecorded = 64;
}  // namespace

InvariantMonitor::InvariantMonitor(vod::Deployment& dep, InvariantOptions opts)
    : dep_(&dep),
      opts_(opts),
      timer_(dep.scheduler(), kCheckPeriod, [this] { check_now(); }) {}

void InvariantMonitor::start() { timer_.start(); }

void InvariantMonitor::record(const std::string& what) {
  ++total_violations_;
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back(Violation{dep_->scheduler().now(), what});
  }
  util::log_warn(kLog, "VIOLATION at t=",
                 static_cast<double>(dep_->scheduler().now()) / 1e6, "s: ",
                 what);
}

bool InvariantMonitor::server_healthy(
    const vod::Deployment::ServerNode& sn) const {
  // "Healthy" mirrors what the rest of the group can rely on: the host is
  // up, the server process runs, and its control plane (the GCS daemon) is
  // neither dead nor frozen. A server with a paused daemon still streams,
  // but its peers rightfully treat it as failed — overlap with such a
  // server is the expected takeover duplication, not a violation.
  return sn.server && !sn.server->halted() && dep_->network().alive(sn.node) &&
         sn.daemon && !sn.daemon->halted() && !sn.daemon->paused();
}

void InvariantMonitor::check_now() {
  ++checks_run_;
  for (const auto& cn : dep_->clients()) {
    reads_.push_back({cn.get(), cn->client->buffers()});
  }
  check_ownership_and_liveness();
  check_assignment_agreement();
  check_buffers();
  if (opts_.replication_floor > 0) check_replication();
  reads_.clear();  // the views point into buffers a session may drop
}

void InvariantMonitor::check_replication() {
  // Invariant 5: every actively watched title keeps its k-tolerance floor
  // of healthy replicas — the placement controller's core promise. Brief
  // dips are legitimate (a crash takes a replica; the repair takes failure
  // detection plus a control period), so only a dip outliving the grace
  // window is a violation.
  const sim::Time now = dep_->scheduler().now();
  std::map<std::string, std::size_t> watched;  // title -> watching clients
  for (const auto& [cn, view] : reads_) {
    const vod::VodClient& c = *cn->client;
    const bool at_end = view && c.at_end(*view);
    if (c.watching() && !at_end && dep_->network().alive(cn->node)) {
      ++watched[c.movie()];
    }
  }
  std::size_t healthy_servers = 0;
  for (auto& sn : dep_->servers()) {
    if (server_healthy(*sn)) ++healthy_servers;
  }
  const std::size_t required =
      std::min(opts_.replication_floor, healthy_servers);
  // A title nobody watches owes no floor. Forget when it dipped, or its
  // next viewer inherits a dip that ended long ago and trips the grace at
  // once.
  std::erase_if(under_replicated_since_, [&](const auto& entry) {
    return !watched.contains(entry.first);
  });

  for (const auto& [title, viewers] : watched) {
    std::size_t replicas = 0;
    for (auto& sn : dep_->servers()) {
      if (server_healthy(*sn) && sn->server->catalog().contains(title)) {
        ++replicas;
      }
    }
    if (replicas >= required) {
      under_replicated_since_.erase(title);
      continue;
    }
    const auto [it, fresh] = under_replicated_since_.try_emplace(title, now);
    if (!fresh && now - it->second > opts_.under_replicated_grace) {
      std::ostringstream os;
      os << "title '" << title << "' with " << viewers
         << " watching clients under-replicated: " << replicas << " < "
         << required << " healthy replicas for more than "
         << static_cast<double>(opts_.under_replicated_grace) / 1e6 << "s";
      record(os.str());
      it->second = now;  // rate-limit: one report per grace window
    }
  }
}

void InvariantMonitor::check_ownership_and_liveness() {
  const sim::Time now = dep_->scheduler().now();
  net::Network& net = dep_->network();

  for (const auto& [cn, view] : reads_) {
    const vod::VodClient& client = *cn->client;
    if (!net.alive(cn->node)) continue;
    const std::uint64_t id = client.client_id();
    ClientTrack& track = tracks_[id];

    // ---- invariant 1: at most one healthy server per client ------------
    std::vector<net::NodeId> owners;
    for (auto& sn : dep_->servers()) {
      if (server_healthy(*sn) && sn->server->serves(id)) {
        owners.push_back(sn->node);
      }
    }
    if (owners.size() <= 1) {
      track.multi_since = -1;
    } else if (track.multi_since < 0) {
      track.multi_since = now;
    } else if (now - track.multi_since > kMultiServeGrace) {
      std::ostringstream os;
      os << "client " << id << " served by " << owners.size()
         << " healthy servers (";
      for (std::size_t i = 0; i < owners.size(); ++i) {
        os << (i ? "," : "") << "n" << owners[i];
      }
      os << ") for more than " << static_cast<double>(kMultiServeGrace) / 1e6
         << "s";
      record(os.str());
      track.multi_since = now;  // rate-limit: one report per grace window
    }

    // ---- invariant 3: bounded stall while servable ----------------------
    const std::uint64_t displayed = view ? view->counters().displayed : 0;
    const bool progressing = displayed > track.last_displayed;
    track.last_displayed = displayed;

    bool servable = client.playing() && !client.paused() &&
                    !(view && client.at_end(*view));
    if (servable) {
      bool reachable_replica = false;
      for (auto& sn : dep_->servers()) {
        if (server_healthy(*sn) &&
            sn->server->catalog().contains(client.movie()) &&
            net.reachable(cn->node, sn->node)) {
          reachable_replica = true;
          break;
        }
      }
      servable = reachable_replica;
    }
    if (progressing || !servable) {
      track.stall_since = now;
    } else if (now - track.stall_since > opts_.stall_bound) {
      std::ostringstream os;
      os << "client " << id << " stalled at frame "
         << (view ? view->last_displayed() : -1)
         << " for more than "
         << static_cast<double>(opts_.stall_bound) / 1e6
         << "s despite a reachable replica";
      record(os.str());
      track.stall_since = now;
    }
  }
}

void InvariantMonitor::check_assignment_agreement() {
  // Movie-group members that completed the same table exchange (equal tag,
  // hence the same position of the totally-ordered message stream) and saw
  // the same view must have held identical tables and computed identical
  // assignments.
  struct Entry {
    net::NodeId node;
    const vod::RebalanceSnapshot* snap;
  };
  std::map<std::string, std::vector<Entry>> by_movie;
  for (auto& sn : dep_->servers()) {
    if (!server_healthy(*sn)) continue;
    for (const std::string& title : sn->server->catalog().titles()) {
      const vod::RebalanceSnapshot* snap =
          sn->server->rebalance_snapshot(title);
      if (snap != nullptr) {
        by_movie[title].push_back(Entry{sn->node, snap});
      }
    }
  }
  for (const auto& [title, entries] : by_movie) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      for (std::size_t j = i + 1; j < entries.size(); ++j) {
        const auto& a = *entries[i].snap;
        const auto& b = *entries[j].snap;
        if (a.exchange_tag != b.exchange_tag) continue;
        if (a.view_servers != b.view_servers) continue;
        if (a.input_owners == b.input_owners && a.assignment == b.assignment) {
          continue;
        }
        std::ostringstream os;
        os << "movie '" << title << "': servers n" << entries[i].node
           << " and n" << entries[j].node
           << " disagree on the round of exchange tag " << a.exchange_tag
           << " (tables of " << a.input_owners.size() << " vs "
           << b.input_owners.size() << " clients)";
        record(os.str());
      }
    }
  }
}

void InvariantMonitor::check_buffers() {
  for (const auto& [cn, buf] : reads_) {
    if (!buf) continue;
    if (buf->sw_frames() > buf->sw_capacity()) {
      std::ostringstream os;
      os << "client " << cn->client->client_id() << " software buffer over "
         << "capacity: " << buf->sw_frames() << " > " << buf->sw_capacity();
      record(os.str());
    }
    if (buf->hw_bytes() > buf->hw_capacity_bytes()) {
      std::ostringstream os;
      os << "client " << cn->client->client_id() << " hardware buffer over "
         << "capacity: " << buf->hw_bytes() << " > "
         << buf->hw_capacity_bytes();
      record(os.str());
    }
  }
}

std::string InvariantMonitor::report() const {
  std::ostringstream os;
  for (const Violation& v : violations_) {
    os << "t=" << static_cast<double>(v.at) / 1e6 << "s: " << v.what << "\n";
  }
  if (total_violations_ > violations_.size()) {
    os << "... and " << total_violations_ - violations_.size() << " more\n";
  }
  return os.str();
}

}  // namespace ftvod::testing
