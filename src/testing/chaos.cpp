#include "testing/chaos.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace ftvod::testing {

namespace {

constexpr std::string_view kLog = "chaos";

ChaosEvent make_event(sim::Time at, ChaosEventKind kind,
                      net::NodeId a = net::kInvalidNode,
                      net::NodeId b = net::kInvalidNode) {
  ChaosEvent e;
  e.at = at;
  e.kind = kind;
  e.a = a;
  e.b = b;
  return e;
}

}  // namespace

std::string_view to_string(ChaosEventKind k) {
  switch (k) {
    case ChaosEventKind::kCrash: return "crash";
    case ChaosEventKind::kRestart: return "restart";
    case ChaosEventKind::kPartition: return "partition";
    case ChaosEventKind::kHeal: return "heal";
    case ChaosEventKind::kDegradeLink: return "degrade-link";
    case ChaosEventKind::kCorruptLink: return "corrupt-link";
    case ChaosEventKind::kRestoreLink: return "restore-link";
    case ChaosEventKind::kPauseDaemon: return "pause-daemon";
    case ChaosEventKind::kResumeDaemon: return "resume-daemon";
  }
  return "?";
}

ChaosPlan ChaosPlan::generate(std::uint64_t seed, const ChaosOptions& opts,
                              const std::vector<net::NodeId>& server_nodes,
                              const std::vector<net::NodeId>& client_nodes) {
  ChaosPlan plan;
  plan.seed_ = seed;
  util::Rng rng(seed);

  std::vector<net::NodeId> all_nodes = server_nodes;
  all_nodes.insert(all_nodes.end(), client_nodes.begin(), client_nodes.end());

  // Open-fault bookkeeping so faults pair up and never pile onto the same
  // resource: a node is `down` until its restart fires, `paused` until the
  // resume, at most one partition is active, and each link flaps alone.
  std::map<net::NodeId, sim::Time> down_until;
  std::map<net::NodeId, sim::Time> paused_until;
  std::map<std::pair<net::NodeId, net::NodeId>, sim::Time> degraded_until;
  sim::Time partition_until = 0;

  const auto jittered = [&](sim::Duration d) {
    return std::max<sim::Duration>(
        1, static_cast<sim::Duration>(static_cast<double>(d) *
                                      rng.uniform(0.75, 1.25)));
  };
  const auto healthy_servers = [&](sim::Time t) {
    std::size_t n = 0;
    for (net::NodeId s : server_nodes) {
      const bool down = down_until.contains(s) && down_until[s] > t;
      const bool paused = paused_until.contains(s) && paused_until[s] > t;
      if (!down && !paused) ++n;
    }
    return n;
  };

  sim::Time t = opts.start;
  while (t < opts.end) {
    // Which classes are eligible right now?
    struct Choice {
      ChaosEventKind kind;
      double weight;
    };
    std::vector<Choice> choices;
    const bool can_shrink = healthy_servers(t) > opts.min_live_servers;
    if (opts.weight_crash > 0 && can_shrink) {
      choices.push_back({ChaosEventKind::kCrash, opts.weight_crash});
    }
    if (opts.weight_pause > 0 && can_shrink) {
      choices.push_back({ChaosEventKind::kPauseDaemon, opts.weight_pause});
    }
    if (opts.weight_partition > 0 && partition_until <= t &&
        all_nodes.size() >= 2) {
      choices.push_back({ChaosEventKind::kPartition, opts.weight_partition});
    }
    if (opts.weight_degrade > 0 && all_nodes.size() >= 2) {
      choices.push_back({ChaosEventKind::kDegradeLink, opts.weight_degrade});
    }
    if (opts.weight_corrupt > 0 && all_nodes.size() >= 2) {
      choices.push_back({ChaosEventKind::kCorruptLink, opts.weight_corrupt});
    }
    if (choices.empty()) {
      t += std::max<sim::Duration>(
          opts.min_gap,
          static_cast<sim::Duration>(
              rng.exponential(static_cast<double>(opts.mean_gap))));
      continue;
    }

    double total = 0;
    for (const Choice& c : choices) total += c.weight;
    double pick = rng.uniform(0.0, total);
    ChaosEventKind kind = choices.back().kind;
    for (const Choice& c : choices) {
      if (pick < c.weight) {
        kind = c.kind;
        break;
      }
      pick -= c.weight;
    }

    switch (kind) {
      case ChaosEventKind::kCrash: {
        // A healthy server dies and reboots after the downtime.
        std::vector<net::NodeId> targets;
        for (net::NodeId s : server_nodes) {
          const bool down = down_until.contains(s) && down_until[s] > t;
          const bool paused = paused_until.contains(s) && paused_until[s] > t;
          if (!down && !paused) targets.push_back(s);
        }
        const net::NodeId victim = targets[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(targets.size()) - 1))];
        const sim::Time up_at = t + jittered(opts.crash_downtime);
        down_until[victim] = up_at;
        plan.events_.push_back(make_event(t, ChaosEventKind::kCrash, victim));
        plan.events_.push_back(
            make_event(up_at, ChaosEventKind::kRestart, victim));
        break;
      }
      case ChaosEventKind::kPauseDaemon: {
        std::vector<net::NodeId> targets;
        for (net::NodeId s : server_nodes) {
          const bool down = down_until.contains(s) && down_until[s] > t;
          const bool paused = paused_until.contains(s) && paused_until[s] > t;
          if (!down && !paused) targets.push_back(s);
        }
        const net::NodeId victim = targets[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(targets.size()) - 1))];
        const sim::Time resume_at = t + jittered(opts.pause_length);
        paused_until[victim] = resume_at;
        plan.events_.push_back(
            make_event(t, ChaosEventKind::kPauseDaemon, victim));
        plan.events_.push_back(
            make_event(resume_at, ChaosEventKind::kResumeDaemon, victim));
        break;
      }
      case ChaosEventKind::kPartition: {
        // Split all hosts into {component, rest}; both sides non-empty.
        std::vector<net::NodeId> shuffled = all_nodes;
        for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
          const auto j = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(i)));
          std::swap(shuffled[i], shuffled[j]);
        }
        const auto cut = static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(shuffled.size()) - 1));
        ChaosEvent ev = make_event(t, ChaosEventKind::kPartition);
        ev.component.assign(shuffled.begin(),
                            shuffled.begin() + static_cast<long>(cut));
        std::sort(ev.component.begin(), ev.component.end());
        partition_until = t + jittered(opts.partition_length);
        plan.events_.push_back(std::move(ev));
        plan.events_.push_back(
            make_event(partition_until, ChaosEventKind::kHeal));
        break;
      }
      case ChaosEventKind::kDegradeLink: {
        const auto ai = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(all_nodes.size()) - 1));
        auto bi = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(all_nodes.size()) - 2));
        if (bi >= ai) ++bi;
        const auto key = std::minmax(all_nodes[ai], all_nodes[bi]);
        if (degraded_until.contains(key) && degraded_until[key] > t) break;
        ChaosEvent ev =
            make_event(t, ChaosEventKind::kDegradeLink, key.first, key.second);
        // A lossy, laggy flap: the kind of transient the WAN path shows.
        ev.quality.base_delay = sim::msec(
            static_cast<std::int64_t>(rng.uniform(10.0, 60.0)));
        ev.quality.jitter = sim::msec(
            static_cast<std::int64_t>(rng.uniform(5.0, 25.0)));
        ev.quality.loss = rng.uniform(0.05, 0.25);
        const sim::Time restore_at = t + jittered(opts.degrade_length);
        degraded_until[key] = restore_at;
        plan.events_.push_back(std::move(ev));
        plan.events_.push_back(make_event(
            restore_at, ChaosEventKind::kRestoreLink, key.first, key.second));
        break;
      }
      case ChaosEventKind::kCorruptLink: {
        const auto ai = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(all_nodes.size()) - 1));
        auto bi = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(all_nodes.size()) - 2));
        if (bi >= ai) ++bi;
        const auto key = std::minmax(all_nodes[ai], all_nodes[bi]);
        if (degraded_until.contains(key) && degraded_until[key] > t) break;
        ChaosEvent ev =
            make_event(t, ChaosEventKind::kCorruptLink, key.first, key.second);
        // A damaging flap: heavy bit-errors and truncation (all of it caught
        // by the integrity framing and dropped), plus a loss-burst regime —
        // the failing-interface behaviour the WAN path occasionally shows.
        ev.quality.base_delay = sim::msec(
            static_cast<std::int64_t>(rng.uniform(5.0, 40.0)));
        ev.quality.jitter = sim::msec(
            static_cast<std::int64_t>(rng.uniform(2.0, 15.0)));
        ev.quality.corrupt = rng.uniform(0.01, 0.08);
        ev.quality.truncate = rng.uniform(0.002, 0.02);
        ev.quality.p_good_to_bad = rng.uniform(0.005, 0.02);
        ev.quality.p_bad_to_good = 0.25;
        ev.quality.loss_bad = rng.uniform(0.3, 0.5);
        const sim::Time restore_at = t + jittered(opts.corrupt_length);
        degraded_until[key] = restore_at;
        plan.events_.push_back(std::move(ev));
        plan.events_.push_back(make_event(
            restore_at, ChaosEventKind::kRestoreLink, key.first, key.second));
        break;
      }
      default:
        break;
    }

    t += std::max<sim::Duration>(
        opts.min_gap, static_cast<sim::Duration>(rng.exponential(
                          static_cast<double>(opts.mean_gap))));
  }

  std::stable_sort(
      plan.events_.begin(), plan.events_.end(),
      [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });
  return plan;
}

ChaosPlan ChaosPlan::from_events(std::vector<ChaosEvent> events) {
  ChaosPlan plan;
  plan.events_ = std::move(events);
  std::stable_sort(
      plan.events_.begin(), plan.events_.end(),
      [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });
  return plan;
}

std::string ChaosPlan::describe() const {
  std::ostringstream os;
  os << "chaos plan seed=" << seed_ << " (" << events_.size() << " events)\n";
  for (const ChaosEvent& e : events_) {
    os << "  t=" << static_cast<double>(e.at) / 1e6 << "s " << to_string(e.kind);
    if (e.a != net::kInvalidNode) os << " n" << e.a;
    if (e.b != net::kInvalidNode) os << "<->n" << e.b;
    if (!e.component.empty()) {
      os << " {";
      for (std::size_t i = 0; i < e.component.size(); ++i) {
        os << (i ? "," : "") << "n" << e.component[i];
      }
      os << "}";
    }
    if (e.kind == ChaosEventKind::kDegradeLink) {
      os << " loss=" << e.quality.loss;
    }
    if (e.kind == ChaosEventKind::kCorruptLink) {
      os << " corrupt=" << e.quality.corrupt
         << " loss_bad=" << e.quality.loss_bad;
    }
    os << "\n";
  }
  return os.str();
}

void ChaosInjector::arm() {
  for (auto& sn : dep_->servers()) {
    if (!sn->server) continue;
    std::vector<std::shared_ptr<const mpeg::Movie>> movies;
    sn->server->for_each_movie([&](const vod::VodServer::HeldMovie& held) {
      movies.push_back(held.movie);
    });
    catalog_snapshot_[sn->node] = std::move(movies);
  }
  sim::Scheduler& sched = dep_->scheduler();
  for (const ChaosEvent& e : plan_.events()) {
    sched.at(e.at, [this, &e] { apply(e); });
  }
}

void ChaosInjector::apply(const ChaosEvent& e) {
  ++applied_;
  net::Network& net = dep_->network();
  switch (e.kind) {
    case ChaosEventKind::kCrash:
      if (net.alive(e.a)) dep_->crash(e.a);
      break;
    case ChaosEventKind::kRestart: {
      if (net.alive(e.a)) break;  // never actually crashed; skip
      vod::Deployment::ServerNode* sn = dep_->restart_server(e.a);
      if (sn == nullptr) break;
      util::log_info(kLog, "restarted server on n", e.a);
      if (restart_delegate_) {
        // Recovery belongs to the placement controller: it re-registers
        // the titles this node should hold *now*, not the pre-crash set.
        restart_delegate_(e.a, *sn);
      } else {
        for (const auto& movie : catalog_snapshot_[e.a]) {
          sn->server->add_movie(movie);
        }
      }
      break;
    }
    case ChaosEventKind::kPartition: {
      std::set<net::NodeId> side(e.component.begin(), e.component.end());
      net.partition({side});
      break;
    }
    case ChaosEventKind::kHeal:
      net.heal();
      break;
    case ChaosEventKind::kDegradeLink:
    case ChaosEventKind::kCorruptLink:
      net.set_quality(e.a, e.b, e.quality);
      break;
    case ChaosEventKind::kRestoreLink:
      net.clear_quality(e.a, e.b);
      break;
    case ChaosEventKind::kPauseDaemon: {
      vod::Deployment::ServerNode* sn = dep_->find_server(e.a);
      if (sn != nullptr && sn->daemon) sn->daemon->pause();
      break;
    }
    case ChaosEventKind::kResumeDaemon: {
      vod::Deployment::ServerNode* sn = dep_->find_server(e.a);
      if (sn != nullptr && sn->daemon) sn->daemon->resume();
      break;
    }
  }
}

}  // namespace ftvod::testing
