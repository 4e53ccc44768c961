#include "testing/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "util/log.hpp"

namespace ftvod::testing {

namespace {
constexpr std::string_view kLog = "invariant";
constexpr sim::Duration kCheckPeriod = sim::msec(100);
/// Invariant 1: max time a client may be served by two healthy servers.
constexpr sim::Duration kMultiServeGrace = sim::sec(8.0);
/// Invariant 5: how long a title may sit under its floor before it counts as
/// a violation. The placement controller needs a control period or two
/// (plus failure detection) to direct a repair.
constexpr sim::Duration kUnderReplicatedGrace = sim::sec(6.0);
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
  const std::size_t healthy_servers = index_servers();
  for (const auto& cn : dep_->clients()) {
    check_client(*cn, views_.emplace_back(cn->client->buffers()));
  }
  check_agreement();
  check_buffers();
  if (opts_.replication_floor > 0) check_replication(healthy_servers);
  views_.clear();  // the views point into buffers a session may drop
}

std::size_t InvariantMonitor::index_servers() {
  for (auto& [id, track] : tracks_) track.owners = 0;
  extra_owners_.clear();
  for (auto& [title, t] : titles_) {
    t.holders.clear();
    t.rounds.clear();
    t.watchers = 0;
  }
  std::size_t healthy = 0;
  for (const auto& sn : dep_->servers()) {
    if (!server_healthy(*sn)) continue;
    ++healthy;
    const net::NodeId node = sn->node;
    sn->server->for_each_movie([&](const vod::VodServer::HeldMovie& held) {
      TitleIndex& t = titles_[held.movie->name()];
      t.holders.push_back(node);
      if (held.last_rebalance != nullptr) {
        t.rounds.push_back({node, held.last_rebalance});
      }
      for (const std::uint64_t client : held.sessions) {
        ClientTrack& track = tracks_[client];
        if (track.owners++ == 0) {
          track.first_owner = node;
        } else {
          extra_owners_.emplace_back(client, node);
        }
      }
    });
  }
  return healthy;
}

void InvariantMonitor::check_client(
    const vod::Deployment::ClientNode& cn,
    const std::optional<vod::ClientBuffers::View>& view) {
  const sim::Time now = dep_->scheduler().now();
  net::Network& net = dep_->network();
  const vod::VodClient& client = *cn.client;
  if (!net.alive(cn.node)) return;
  const std::uint64_t id = client.client_id();
  ClientTrack& track = tracks_[id];
  const bool at_end = view && client.at_end(*view);
  // Playing implies watching, so this one lookup serves invariants 3 and 5.
  TitleIndex* title =
      client.watching() && !at_end ? &titles_[client.movie()] : nullptr;
  if (title != nullptr) ++title->watchers;

  // ---- invariant 1: at most one healthy server per client --------------
  if (track.owners <= 1) {
    track.multi_since = -1;
  } else if (track.multi_since < 0) {
    track.multi_since = now;
  } else if (now - track.multi_since > kMultiServeGrace) {
    std::ostringstream os;
    os << "client " << id << " served by " << track.owners
       << " healthy servers (n" << track.first_owner;
    for (const auto& [client, node] : extra_owners_) {
      if (client == id) os << ",n" << node;
    }
    os << ") for more than " << static_cast<double>(kMultiServeGrace) / 1e6
       << "s";
    record(os.str());
    track.multi_since = now;  // rate-limit: one report per grace window
  }

  // ---- invariant 3: bounded stall while servable ------------------------
  const std::uint64_t displayed = view ? view->counters().displayed : 0;
  const bool progressing = displayed > track.last_displayed;
  track.last_displayed = displayed;

  const bool servable =
      title != nullptr && client.playing() && !client.paused() &&
      std::ranges::any_of(title->holders, [&](net::NodeId server) {
        return net.reachable(cn.node, server);
      });
  if (progressing || !servable) {
    track.stall_since = now;
  } else if (now - track.stall_since > opts_.stall_bound) {
    std::ostringstream os;
    os << "client " << id << " stalled at frame "
       << (view ? view->last_displayed() : -1) << " for more than "
       << static_cast<double>(opts_.stall_bound) / 1e6
       << "s despite a reachable replica";
    record(os.str());
    track.stall_since = now;
  }
}

void InvariantMonitor::check_agreement() {
  // Movie-group members that completed the same table exchange (equal tag,
  // hence the same position of the totally-ordered message stream) and saw
  // the same view must have held identical tables and computed identical
  // assignments.
  for (const auto& [title, t] : titles_) {
    const std::vector<TitleIndex::Round>& rounds = t.rounds;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      for (std::size_t j = i + 1; j < rounds.size(); ++j) {
        const auto& a = *rounds[i].snap;
        const auto& b = *rounds[j].snap;
        if (a.exchange_tag != b.exchange_tag) continue;
        if (a.view_servers != b.view_servers) continue;
        if (a.input_owners == b.input_owners && a.assignment == b.assignment) {
          continue;
        }
        std::ostringstream os;
        os << "movie '" << title << "': servers n" << rounds[i].node
           << " and n" << rounds[j].node
           << " disagree on the round of exchange tag " << a.exchange_tag
           << " (tables of " << a.input_owners.size() << " vs "
           << b.input_owners.size() << " clients)";
        record(os.str());
      }
    }
  }
}

void InvariantMonitor::check_buffers() {
  for (std::size_t i = 0; i < views_.size(); ++i) {
    const std::optional<vod::ClientBuffers::View>& buf = views_[i];
    if (!buf) continue;
    const std::uint64_t id = dep_->clients()[i]->client->client_id();
    if (buf->sw_frames() > buf->sw_capacity()) {
      std::ostringstream os;
      os << "client " << id << " software buffer over capacity: "
         << buf->sw_frames() << " > " << buf->sw_capacity();
      record(os.str());
    }
    if (buf->hw_bytes() > buf->hw_capacity_bytes()) {
      std::ostringstream os;
      os << "client " << id << " hardware buffer over capacity: "
         << buf->hw_bytes() << " > " << buf->hw_capacity_bytes();
      record(os.str());
    }
  }
}

void InvariantMonitor::check_replication(std::size_t healthy_servers) {
  // Invariant 5: every actively watched title keeps its k-tolerance floor
  // of healthy replicas — the placement controller's core promise. Brief
  // dips are legitimate (a crash takes a replica; the repair takes failure
  // detection plus a control period), so only a dip outliving the grace
  // window is a violation.
  const sim::Time now = dep_->scheduler().now();
  const std::size_t required =
      std::min(opts_.replication_floor, healthy_servers);
  for (auto& [title, t] : titles_) {
    // A title nobody watches owes no floor. Forget when it dipped, or its
    // next viewer inherits a dip that ended long ago and trips the grace at
    // once.
    const std::size_t replicas = t.holders.size();
    if (t.watchers == 0 || replicas >= required) {
      t.under_since = -1;
    } else if (t.under_since < 0) {
      t.under_since = now;
    } else if (now - t.under_since > kUnderReplicatedGrace) {
      std::ostringstream os;
      os << "title '" << title << "' with " << t.watchers
         << " watching clients under-replicated: " << replicas << " < "
         << required << " healthy replicas for more than "
         << static_cast<double>(kUnderReplicatedGrace) / 1e6 << "s";
      record(os.str());
      t.under_since = now;  // rate-limit: one report per grace window
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
