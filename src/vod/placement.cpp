#include "vod/placement.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace ftvod::vod {

namespace {
constexpr std::string_view kLog = "vod.placement";

bool contains_sorted(const std::vector<net::NodeId>& v, net::NodeId n) {
  return std::binary_search(v.begin(), v.end(), n);
}

void insert_sorted(std::vector<net::NodeId>& v, net::NodeId n) {
  v.insert(std::lower_bound(v.begin(), v.end(), n), n);
}

void erase_sorted(std::vector<net::NodeId>& v, net::NodeId n) {
  const auto it = std::lower_bound(v.begin(), v.end(), n);
  if (it != v.end() && *it == n) v.erase(it);
}

}  // namespace

// ----------------------------------------------------------- PlacementModel

void PlacementModel::add_title(const std::string& title) {
  titles_.try_emplace(title);
}

const std::vector<net::NodeId>& PlacementModel::replicas(
    const std::string& title) const {
  static const std::vector<net::NodeId> kEmpty;
  const auto it = titles_.find(title);
  return it == titles_.end() ? kEmpty : it->second.replicas;
}

std::size_t PlacementModel::load(net::NodeId node) const {
  const auto it = load_.find(node);
  return it == load_.end() ? 0 : it->second;
}

std::size_t PlacementModel::target_replicas(std::size_t viewer_count,
                                            std::size_t live_servers) const {
  const std::size_t floor_eff =
      viewer_count > 0 ? cfg_.replication_floor : cfg_.idle_replicas;
  const std::size_t demand =
      (viewer_count + cfg_.viewers_per_replica - 1) / cfg_.viewers_per_replica;
  return std::min(std::max(floor_eff, demand), live_servers);
}

std::vector<PlacementOp> PlacementModel::step(
    const std::map<std::string, std::size_t>& viewers,
    const std::vector<net::NodeId>& live_servers) {
  std::vector<PlacementOp> ops;
  std::vector<net::NodeId> live = live_servers;
  std::sort(live.begin(), live.end());
  const double vpr = static_cast<double>(cfg_.viewers_per_replica);

  for (auto& [title, st] : titles_) {
    if (st.cooldown > 0) {
      --st.cooldown;
      continue;
    }
    const auto vit = viewers.find(title);
    const std::size_t v = vit == viewers.end() ? 0 : vit->second;
    std::size_t live_held = 0;
    for (const net::NodeId n : st.replicas) {
      if (contains_sorted(live, n)) ++live_held;
    }
    const std::size_t target = target_replicas(v, live.size());

    if (live_held < target) {
      // Grow to the target in one period: a flash crowd must not wait one
      // control period per replica. Spread new copies to the emptiest
      // servers (ties to the lowest node id — same rule on every run).
      std::size_t needed = target - live_held;
      while (needed > 0) {
        net::NodeId best = net::kInvalidNode;
        std::size_t best_load = 0;
        for (const net::NodeId n : live) {
          if (contains_sorted(st.replicas, n)) continue;
          const std::size_t l = load(n);
          if (best == net::kInvalidNode || l < best_load) {
            best = n;
            best_load = l;
          }
        }
        if (best == net::kInvalidNode) break;  // every live server holds it
        insert_sorted(st.replicas, best);
        ++load_[best];
        ops.push_back({PlacementOp::Kind::kAdd, title, best});
        --needed;
      }
      st.cooldown = cfg_.cooldown_periods;
    } else if (live_held > target && live_held > 1) {
      // Shrink at most one replica per period, and only when the survivors
      // would still be under shrink_margin of their capacity — the dead
      // band that keeps constant demand from flapping add/drop. Retire the
      // copy on the fullest server (ties to the highest id).
      const std::size_t floor_eff =
          v > 0 ? cfg_.replication_floor : cfg_.idle_replicas;
      const bool under_margin =
          static_cast<double>(v) <=
          cfg_.shrink_margin * vpr * static_cast<double>(live_held - 1);
      if (under_margin && live_held - 1 >= std::min(floor_eff, live.size())) {
        net::NodeId victim = net::kInvalidNode;
        std::size_t victim_load = 0;
        for (const net::NodeId n : st.replicas) {
          if (!contains_sorted(live, n)) continue;
          const std::size_t l = load(n);
          if (victim == net::kInvalidNode || l >= victim_load) {
            victim = n;
            victim_load = l;
          }
        }
        if (victim != net::kInvalidNode) {
          erase_sorted(st.replicas, victim);
          --load_[victim];
          ops.push_back({PlacementOp::Kind::kDrop, title, victim});
          st.cooldown = cfg_.cooldown_periods;
        }
      }
    }
  }
  return ops;
}

// ------------------------------------------------------ PlacementController

PlacementController::PlacementController(Deployment& dep, PlacementConfig cfg)
    : dep_(&dep),
      model_(cfg),
      timer_(dep.scheduler(), cfg.control_period, [this] { tick_now(); }) {}

void PlacementController::manage(std::shared_ptr<const mpeg::Movie> movie) {
  model_.add_title(movie->name());
  managed_[movie->name()] = std::move(movie);
}

void PlacementController::start() { timer_.start(); }

std::vector<net::NodeId> PlacementController::live_servers() const {
  std::vector<net::NodeId> live;
  for (const auto& sn : dep_->servers()) {
    if (sn->server && !sn->server->halted() &&
        dep_->network().alive(sn->node)) {
      live.push_back(sn->node);
    }
  }
  return live;
}

void PlacementController::collect_demand(
    std::map<std::string, std::size_t>& out) const {
  if (demand_source_) {
    demand_source_(out);
    return;
  }
  for (const auto& cn : dep_->clients()) {
    const VodClient& c = *cn->client;
    if (c.watching() && managed_.contains(c.movie())) ++out[c.movie()];
  }
}

std::size_t PlacementController::reconcile(
    const std::vector<net::NodeId>& live) {
  std::size_t restored = 0;
  for (const net::NodeId node : live) {
    Deployment::ServerNode* sn = dep_->find_server(node);
    if (sn == nullptr || !sn->server) continue;
    for (const auto& [title, movie] : managed_) {
      if (contains_sorted(model_.replicas(title), node) &&
          !sn->server->holds(title)) {
        sn->server->add_movie(movie);
        ++restored;
        util::log_info(kLog, "re-registered '", title, "' on n", node,
                       " (rejoined with empty catalog)");
      }
    }
  }
  return restored;
}

void PlacementController::tick_now() {
  ++stats_.ticks;
  const std::vector<net::NodeId> live = live_servers();
  if (live.empty()) return;

  // Desired-vs-actual first: a restarted server re-registers its catalog
  // before the model reads the world, so the demand step never double-adds.
  stats_.reregistrations += reconcile(live);

  std::map<std::string, std::size_t> demand;
  collect_demand(demand);

  const std::vector<PlacementOp> ops = model_.step(demand, live);
  for (const PlacementOp& op : ops) {
    Deployment::ServerNode* sn = dep_->find_server(op.node);
    if (sn == nullptr || !sn->server) continue;
    const auto mit = managed_.find(op.title);
    if (mit == managed_.end()) continue;
    if (op.kind == PlacementOp::Kind::kAdd) {
      ++stats_.adds;
      sn->server->add_movie(mit->second);
    } else {
      ++stats_.drops;
      sn->server->remove_movie(op.title);
    }
  }
}

void PlacementController::handle_restart(net::NodeId node) {
  if (!dep_->network().alive(node)) return;
  stats_.reregistrations += reconcile({node});
}

}  // namespace ftvod::vod
