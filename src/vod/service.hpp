// Convenience assembly of a complete VoD deployment inside one simulation:
// hosts, GCS daemons, servers and clients. This is the entry point the
// examples and benchmarks use; library users who need finer control can
// instantiate VodServer / VodClient / gcs::Daemon directly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gcs/daemon.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "vod/client.hpp"
#include "vod/params.hpp"
#include "vod/server.hpp"

namespace ftvod::vod {

/// One simulated deployment: a network, a GCS configuration spanning all
/// hosts, and any number of servers and clients created on demand.
class Deployment {
 public:
  explicit Deployment(std::uint64_t seed = 42,
                      net::LinkQuality quality = net::lan_quality(),
                      VodParams params = {})
      : rng_(seed), net_(sched_, rng_), params_(params) {
    net_.set_default_quality(quality);
  }

  struct ServerNode {
    net::NodeId node;
    std::unique_ptr<gcs::Daemon> daemon;
    std::unique_ptr<VodServer> server;
  };

  struct ClientNode {
    net::NodeId node;
    std::unique_ptr<gcs::Daemon> daemon;  // null when attached to a gateway
    std::unique_ptr<VodClient> client;
  };

  /// A gateway host runs a GCS daemon that thousands of edge clients attach
  /// to as lightweight local members (Spread's daemons-on-few-nodes model):
  /// daemon-level traffic — heartbeats, ordered fan-out — stays O(daemons),
  /// not O(clients), which is what makes a 10k-client run feasible.
  struct GatewayNode {
    net::NodeId node;
    std::unique_ptr<gcs::Daemon> daemon;
  };

  /// Pre-registers a host so the GCS peer list covers servers brought up
  /// later ("on the fly"). Call for all hosts before creating any daemon.
  /// `cfg` sets the host's NIC provisioning: the default models the paper's
  /// 100 Mbps switched Ethernet, which tops out around 70 concurrent
  /// 1.4 Mbps streams — city-scale scenarios must pass datacenter-class
  /// rates or the video traffic starves the control plane on the same
  /// uplink and every protocol deadline slips.
  net::NodeId add_host(const std::string& name, net::HostConfig cfg = {}) {
    const net::NodeId id = net_.add_host(name, cfg);
    gcs_cfg_.peers.push_back(id);
    return id;
  }

  /// Registers an edge host that runs *no* daemon (its clients attach to a
  /// gateway). Edge hosts stay out of the GCS peer list: with 10k of them,
  /// every daemon heartbeating every edge host each 75 ms would be the
  /// quadratic blow-up the gateway architecture exists to avoid.
  net::NodeId add_edge_host(const std::string& name,
                            net::HostConfig cfg = {}) {
    return net_.add_host(name, cfg);
  }

  ServerNode& start_server(net::NodeId node) {
    return start_server(node, params_);
  }

  /// Starts a server with its own parameter set (e.g. a mis-configured
  /// rebalance policy — how the chaos tests provoke assignment divergence).
  ServerNode& start_server(net::NodeId node, const VodParams& params) {
    auto sn = std::make_unique<ServerNode>();
    sn->node = node;
    sn->daemon = std::make_unique<gcs::Daemon>(sched_, net_, node, gcs_cfg_);
    sn->server =
        std::make_unique<VodServer>(sched_, net_, *sn->daemon, params);
    servers_.push_back(std::move(sn));
    return *servers_.back();
  }

  ClientNode& start_client(net::NodeId node) {
    auto cn = std::make_unique<ClientNode>();
    cn->node = node;
    cn->daemon = std::make_unique<gcs::Daemon>(sched_, net_, node, gcs_cfg_);
    cn->client =
        std::make_unique<VodClient>(sched_, net_, *cn->daemon, params_);
    clients_.push_back(std::move(cn));
    return *clients_.back();
  }

  GatewayNode& start_gateway(net::NodeId node) {
    auto gn = std::make_unique<GatewayNode>();
    gn->node = node;
    gn->daemon = std::make_unique<gcs::Daemon>(sched_, net_, node, gcs_cfg_);
    gateways_.push_back(std::move(gn));
    return *gateways_.back();
  }

  /// Starts a client on edge host `node`, attached to `gateway`'s daemon
  /// for the control plane; video flows to the edge host directly.
  ClientNode& start_client(net::NodeId node, GatewayNode& gateway) {
    auto cn = std::make_unique<ClientNode>();
    cn->node = node;
    cn->client = std::make_unique<VodClient>(sched_, net_, *gateway.daemon,
                                             params_, node);
    clients_.push_back(std::move(cn));
    return *clients_.back();
  }

  void crash(net::NodeId node) { net_.crash_host(node); }

  /// The server slot running on `node`, or nullptr.
  ServerNode* find_server(net::NodeId node) {
    for (auto& sn : servers_) {
      if (sn->node == node) return sn.get();
    }
    return nullptr;
  }

  /// Tears down the server process (and its GCS daemon) on `node`,
  /// freeing its ports. The slot in servers() is kept so indices stay
  /// stable; restart_server() re-populates it.
  void stop_server(net::NodeId node) {
    ServerNode* sn = find_server(node);
    if (sn == nullptr) return;
    if (sn->server) sn->server->halt();
    sn->server.reset();  // before the daemon: it holds group handles
    sn->daemon.reset();
  }

  /// Crash recovery ("restart-after-crash"): brings the host back and
  /// starts a brand-new server process with a fresh GCS daemon on it. The
  /// old incarnation's state is gone — exactly a reboot, so a host that is
  /// still up is crashed first. The caller must re-add the movies (their
  /// bits survived on disk). No-op with nullptr result when the node never
  /// ran a server.
  ServerNode* restart_server(net::NodeId node) {
    ServerNode* sn = find_server(node);
    if (sn == nullptr) return nullptr;
    crash(node);  // no-op on a host that is already down
    stop_server(node);
    net_.restore_host(node);
    sn->daemon = std::make_unique<gcs::Daemon>(sched_, net_, node, gcs_cfg_);
    sn->server =
        std::make_unique<VodServer>(sched_, net_, *sn->daemon, params_);
    return sn;
  }

  sim::Scheduler& scheduler() { return sched_; }
  net::Network& network() { return net_; }
  util::Rng& rng() { return rng_; }
  const VodParams& params() const { return params_; }
  gcs::GcsConfig& gcs_config() { return gcs_cfg_; }
  std::vector<std::unique_ptr<ServerNode>>& servers() { return servers_; }
  std::vector<std::unique_ptr<ClientNode>>& clients() { return clients_; }
  std::vector<std::unique_ptr<GatewayNode>>& gateways() { return gateways_; }

  void run_for(sim::Duration d) { sched_.run_for(d); }
  void run_until(sim::Time t) { sched_.run_until(t); }

 private:
  sim::Scheduler sched_;
  util::Rng rng_;
  net::Network net_;
  VodParams params_;
  gcs::GcsConfig gcs_cfg_;
  std::vector<std::unique_ptr<ServerNode>> servers_;
  std::vector<std::unique_ptr<ClientNode>> clients_;
  std::vector<std::unique_ptr<GatewayNode>> gateways_;
};

}  // namespace ftvod::vod
