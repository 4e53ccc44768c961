#include "vod/server.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace ftvod::vod {

namespace {
constexpr std::string_view kLog = "vod.server";

/// Unique server nodes present in a movie-group view.
std::vector<net::NodeId> server_nodes(const gcs::GroupView& v) {
  std::vector<net::NodeId> nodes;
  for (const gcs::GcsEndpoint& e : v.members) nodes.push_back(e.node);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace

VodServer::VodServer(sim::Scheduler& sched, net::Network& net,
                     gcs::Daemon& daemon, VodParams params)
    : sched_(&sched),
      net_(&net),
      daemon_(&daemon),
      params_(params),
      sync_timer_(sched, params.sync_period, [this] { send_sync(); }) {
  data_socket_ = net_->bind(daemon_->self(), params_.server_data_port,
                            nullptr);  // the server only transmits video
  server_group_ = daemon_->join(
      server_group_name(),
      gcs::GroupCallbacks{
          [this](const gcs::GcsEndpoint& from, std::span<const std::byte> d) {
            on_server_group_message(from, d);
          },
          nullptr});
  data_socket_->on_crash([this] { halt(); });
  // De-correlate the sync phases across servers: real deployments never
  // tick in lockstep, and the takeover staleness the paper measures (frames
  // "transmitted by both servers") comes precisely from this phase offset.
  const auto phase = static_cast<sim::Duration>(
      (static_cast<std::uint64_t>(daemon_->self()) * 2654435761u) %
      static_cast<std::uint64_t>(params_.sync_period));
  sync_timer_.start(params_.sync_period + phase);
}

void VodServer::detach() {
  if (halted_) return;
  util::log_info(kLog, "server n", daemon_->self(), " detaching gracefully");
  // Send a final state sync so the survivors resume from fresh offsets,
  // then leave the movie groups: the resulting view changes trigger the
  // orderly re-distribution at the survivors.
  send_sync();
  for (auto& [name, ms] : movies_) ms->member.reset();
  server_group_.reset();
  std::vector<std::uint64_t> clients;
  clients.reserve(session_index_.size());
  for (const auto& [client, slot] : session_index_) clients.push_back(client);
  std::sort(clients.begin(), clients.end());  // id order, not hash order
  for (std::uint64_t c : clients) close_session(c);
  halt();
}

void VodServer::halt() {
  if (halted_) return;
  halted_ = true;
  sync_timer_.stop();
  for (const auto& [id, slot] : session_index_) {
    session_slab_[slot]->send_timer.cancel();
  }
  util::log_info(kLog, "server n", daemon_->self(), " halted");
}

VodServer::Session* VodServer::find_session(std::uint64_t client_id) {
  const auto it = session_index_.find(client_id);
  return it == session_index_.end() ? nullptr : session_slab_[it->second].get();
}

const VodServer::Session* VodServer::find_session(
    std::uint64_t client_id) const {
  const auto it = session_index_.find(client_id);
  return it == session_index_.end() ? nullptr : session_slab_[it->second].get();
}

std::size_t VodServer::session_count(const std::string& movie) const {
  const auto it = movies_.find(movie);
  return it == movies_.end() ? 0 : it->second->local_sessions.size();
}

void VodServer::add_movie(std::shared_ptr<const mpeg::Movie> movie) {
  const std::string name = movie->name();
  catalog_.add(movie);
  if (movies_.contains(name)) return;
  auto ms = std::make_unique<MovieState>();
  ms->movie = std::move(movie);
  ms->member = daemon_->join(
      movie_group_name(name),
      gcs::GroupCallbacks{
          [this, name](const gcs::GcsEndpoint& from,
                       std::span<const std::byte> d) {
            on_movie_group_message(name, from, d);
          },
          [this, name](const gcs::GroupView& v) {
            on_movie_group_view(name, v);
          }});
  movies_.emplace(name, std::move(ms));
  util::log_info(kLog, "server n", daemon_->self(), " offers movie '", name,
                 "'");
}

void VodServer::remove_movie(const std::string& name) {
  catalog_.remove(name);
  auto it = movies_.find(name);
  if (it == movies_.end()) return;
  // Close local sessions for this movie; survivors will adopt the clients
  // when our leave is observed as a movie-group view change.
  const std::vector<std::uint64_t> to_close = it->second->local_sessions;
  for (std::uint64_t c : to_close) close_session(c);
  movies_.erase(it);
}

// ------------------------------------------------------------ control plane

void VodServer::on_server_group_message(const gcs::GcsEndpoint& from,
                                        std::span<const std::byte> data) {
  (void)from;
  if (halted_) return;
  if (wire::peek_type(data) != wire::MsgType::kOpenRequest) {
    ++stats_.malformed_dropped;
    return;
  }
  if (auto req = wire::decode<wire::OpenRequest>(data)) {
    handle_open_request(*req);
  } else {
    ++stats_.malformed_dropped;
  }
}

void VodServer::handle_open_request(const wire::OpenRequest& req) {
  auto it = movies_.find(req.movie);
  if (it == movies_.end()) return;  // we do not hold this movie
  MovieState& ms = *it->second;
  // Until its own join is delivered, a server is not in the view its peers
  // decide from; they decide without it.
  if (!ms.in_view(daemon_->self())) return;
  if (!ms.pending_tables.empty()) {
    ms.held_opens.push_back(req);
  } else {
    decide_open(ms, req);
  }
}

void VodServer::decide_open(MovieState& ms, const wire::OpenRequest& req) {
  // Every member of the movie group sees the same (totally ordered) request
  // and holds the same table, so every member records the same owner and
  // exactly that owner serves: this needs no extra agreement round.
  const std::vector<net::NodeId>& view = ms.view_servers;
  Client& c = ms.clients[req.client_id];
  net::NodeId owner;
  if (++c.deferrals >= 2) {
    // A second ask with no sync from the owner naming the client in
    // between proves that the owner cannot reach it. The rescue ignores the
    // claim: the lowest-id member of the view serves. The count outlives a
    // forgotten claim, so a lost rescue retries.
    owner = view.front();
    c.deferrals = 0;
  } else if (c.claim && ms.in_view(c.claim->owner)) {
    owner = c.claim->owner;  // a client the table holds: its owner answers
  } else {
    std::vector<std::size_t> load(view.size());
    for (const auto& [id, other] : ms.clients) {
      if (!other.claim) continue;
      const auto v =
          std::lower_bound(view.begin(), view.end(), other.claim->owner);
      if (v != view.end() && *v == other.claim->owner) ++load[v - view.begin()];
    }
    owner = choose_for_new_client(view, load);
  }
  ms.assert_claim({.client_id = req.client_id,
                   .data_endpoint = req.data_endpoint,
                   .rate_fps = params_.default_rate_fps,
                   .quality_fps = req.capability_fps,
                   .capability_fps = req.capability_fps},
                  owner);

  Session* existing = find_session(req.client_id);
  if (owner != daemon_->self()) {
    if (existing != nullptr) {  // rescued away from us
      ++stats_.migrations_out;
      close_session(req.client_id);
    }
  } else if (existing != nullptr) {  // the reply was lost: re-send it
    wire::OpenReply reply{req.client_id, req.movie, ms.movie->fps(),
                          ms.movie->frame_count(),
                          ms.movie->avg_frame_bytes()};
    existing->member->send(wire::encode(reply));
  } else {
    ++stats_.sessions_opened;
    open_session(c.claim->rec, ms.movie, /*is_takeover=*/false);
  }
}

void VodServer::on_movie_group_message(const std::string& movie,
                                       const gcs::GcsEndpoint& from,
                                       std::span<const std::byte> data) {
  if (halted_) return;
  if (wire::peek_type(data) != wire::MsgType::kStateSync) {
    ++stats_.malformed_dropped;
    return;
  }
  if (auto sync = wire::decode<wire::StateSync>(data)) {
    if (sync->movie == movie) {
      apply_state_sync(from.node, *sync);
    } else {
      ++stats_.malformed_dropped;  // sync addressed to a different movie
    }
  } else {
    ++stats_.malformed_dropped;
  }
}

void VodServer::apply_state_sync(net::NodeId from, const wire::StateSync& s) {
  auto it = movies_.find(s.movie);
  if (it == movies_.end()) return;
  MovieState& ms = *it->second;
  if (s.exchange_tag != 0) {
    apply_table(ms, from, s);
    return;
  }

  // The sync is the owner's client list, applied alike at every member, the
  // owner included: update its clients, and forget clients it used to own
  // but stopped reporting. A single absence is NOT enough: a sync built
  // just before a session opened (or during a hand-off) would otherwise
  // erase a live client's record and orphan it. Absence must persist across
  // two consecutive syncs.
  const std::uint64_t stamp = ++ms.syncs_applied;
  for (const wire::ClientRecord& rec : s.clients) {
    Client& c = ms.assert_claim(rec, from);
    c.deferrals = 0;
    c.reported_in = stamp;
  }
  for (auto cit = ms.clients.begin(); cit != ms.clients.end();) {
    Client& c = cit->second;
    if (c.claim && c.claim->owner == from && c.reported_in != stamp &&
        ++c.absent >= 2) {
      // The second miss forgets the claim but not a pending deferral count:
      // a lost rescue must still retry on the client's next ask.
      c = Client{.claim = {}, .deferrals = c.deferrals};
    }
    cit = c.claim || c.deferrals > 0 ? std::next(cit) : ms.clients.erase(cit);
  }
}

void VodServer::apply_table(MovieState& ms, net::NodeId from,
                            const wire::StateSync& table) {
  // A table for a superseded round would re-claim clients that round's
  // successor has since moved.
  if (ms.pending_tables.empty() || table.exchange_tag != ms.exchange_tag) {
    return;
  }
  for (const wire::ClientRecord& rec : table.clients) {
    ms.assert_claim(rec, from);
  }
  for (const wire::ForeignClaim& o : table.orphans) {
    ms.assert_claim(o.rec, o.owner);
  }
  ms.pending_tables.erase(from);
  if (ms.pending_tables.empty()) rebalance_now(ms);
}

void VodServer::on_movie_group_view(const std::string& movie,
                                    const gcs::GroupView& v) {
  if (halted_) return;
  auto it = movies_.find(movie);
  if (it == movies_.end()) return;
  MovieState& ms = *it->second;
  ms.view_servers = server_nodes(v);

  // §5.2: "the servers first exchange information about clients, and then
  // use it to deduce which clients each of them will serve". Each member
  // multicasts its table tagged with this view; each member decides when it
  // has delivered the tagged table of *every* view member. Because the
  // tables ride the totally-ordered channel, that decision point is the
  // same position in the message order at every member, so everyone
  // computes the assignment from identical inputs.
  ms.exchange_tag =
      (v.daemon_view_counter << 20) | static_cast<std::uint64_t>(v.change_seq);
  ms.pending_tables = {ms.view_servers.begin(), ms.view_servers.end()};

  // A member new to the view (a newcomer, a restarted server, the other
  // side of a partition) holds none of the counts and none of the claims
  // whose owner has left. So the counts restart here, and each table also
  // carries its sender's orphaned claims.
  wire::StateSync table;
  table.movie = movie;
  table.exchange_tag = ms.exchange_tag;
  for (auto cit = ms.clients.begin(); cit != ms.clients.end();) {
    Client& c = cit->second;
    c.deferrals = 0;
    c.asserted = false;
    if (!c.claim) {
      cit = ms.clients.erase(cit);
      continue;
    }
    if (!ms.in_view(c.claim->owner)) {
      table.orphans.push_back({c.claim->rec, c.claim->owner});
    }
    ++cit;
  }
  for (const std::uint64_t client : ms.local_sessions) {
    // Advertise the last *synced* state (see Session::synced_rec): the
    // paper's conservative approach, so a takeover re-sends (duplicates)
    // rather than skips frames.
    table.clients.push_back(find_session(client)->synced_rec);
  }
  ms.member->send(wire::encode(table));
}

void VodServer::rebalance_now(MovieState& ms) {
  ++stats_.rebalances;

  // A claim naming a view member that no ordered message asserted since the
  // view changed is one only some members still hold: its owner dropped it.
  std::erase_if(ms.clients, [&ms](const auto& entry) {
    const Client& c = entry.second;
    return c.claim && !c.asserted && ms.in_view(c.claim->owner);
  });
  Assignment owners;
  for (const auto& [client, c] : ms.clients) {
    if (c.claim) owners.emplace_hint(owners.end(), client, c.claim->owner);
  }
  const std::vector<net::NodeId>& view = ms.view_servers;
  Assignment next = rebalance(owners, view, params_.rebalance_policy);
  for (const auto& [client, owner] : next) {
    Client::Claim& claim = *ms.clients[client].claim;
    claim.owner = owner;
    const bool serving = session_index_.contains(client);
    if (owner == daemon_->self() && !serving) {
      ++stats_.takeovers;
      util::log_info(kLog, "server n", daemon_->self(), " takes over client ",
                     client, " at frame ", claim.rec.next_frame);
      open_session(claim.rec, ms.movie, /*is_takeover=*/true);
    } else if (owner != daemon_->self() && serving) {
      ++stats_.migrations_out;
      util::log_info(kLog, "server n", daemon_->self(), " hands client ",
                     client, " to n", owner);
      close_session(client);
    }
  }
  ms.last_rebalance = RebalanceSnapshot{ms.exchange_tag, view,
                                        std::move(owners), std::move(next)};
  for (const wire::OpenRequest& req : std::exchange(ms.held_opens, {})) {
    decide_open(ms, req);
  }
}

const RebalanceSnapshot* VodServer::rebalance_snapshot(
    const std::string& movie) const {
  auto it = movies_.find(movie);
  if (it == movies_.end() || it->second->last_rebalance.exchange_tag == 0) {
    return nullptr;
  }
  return &it->second->last_rebalance;
}

bool VodServer::rebalance_pending(const std::string& movie) const {
  auto it = movies_.find(movie);
  return it != movies_.end() && !it->second->pending_tables.empty();
}

// --------------------------------------------------------- session handling

void VodServer::open_session(const wire::ClientRecord& rec,
                             std::shared_ptr<const mpeg::Movie> movie,
                             bool is_takeover) {
  // Acquire a slab slot: recycle a freed one (its Session object survives,
  // so open/close churn allocates nothing once the slab is warm) or grow.
  std::uint32_t slot;
  if (!session_free_.empty()) {
    slot = session_free_.back();
    session_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(session_slab_.size());
    session_slab_.push_back(
        std::make_unique<Session>(*sched_, params_.emergency_decay));
  }
  Session* s = session_slab_[slot].get();
  s->eq.reset();
  s->burst_base = 0;
  s->next_decay_at = 0;
  s->finished = false;
  s->quality.reset();
  s->rec = rec;
  // Resume at the last-heard rate (§5.2), but never below the default: a
  // takeover that resumes slower than real time can only drain the client
  // further, and the flow-control loop would take seconds to say so.
  if (is_takeover) {
    s->rec.rate_fps = std::max(s->rec.rate_fps, params_.default_rate_fps);
  }
  s->synced_rec = s->rec;
  s->movie = movie;
  if (rec.quality_fps > 0.0 && rec.quality_fps < movie->fps()) {
    s->quality.emplace(*movie, rec.quality_fps);
  }
  const std::uint64_t client_id = rec.client_id;
  s->member = daemon_->join(
      session_group_name(client_id, movie->name()),
      gcs::GroupCallbacks{
          [this, client_id](const gcs::GcsEndpoint& from,
                            std::span<const std::byte> d) {
            on_session_message(client_id, from, d);
          },
          [this, client_id](const gcs::GroupView& v) {
            on_session_view(client_id, v);
          }});
  if (!is_takeover) {
    wire::OpenReply reply{client_id, movie->name(), movie->fps(),
                          movie->frame_count(), movie->avg_frame_bytes()};
    s->member->send(wire::encode(reply));
  }
  session_index_[client_id] = slot;
  if (auto mit = movies_.find(movie->name()); mit != movies_.end()) {
    mit->second->local_sessions.push_back(client_id);
  }
  if (!s->rec.paused) arm_send_timer(*s);
}

void VodServer::close_session(std::uint64_t client_id) {
  // The client table is untouched: the owner's next syncs report the
  // absence to every member alike.
  const auto it = session_index_.find(client_id);
  if (it == session_index_.end()) return;
  const std::uint32_t slot = it->second;
  Session& s = *session_slab_[slot];
  s.send_timer.cancel();
  s.member.reset();  // leaves the session group
  s.quality.reset();
  const std::string movie = s.movie->name();
  s.movie.reset();
  session_index_.erase(it);
  session_free_.push_back(slot);
  if (auto mit = movies_.find(movie); mit != movies_.end()) {
    std::vector<std::uint64_t>& ls = mit->second->local_sessions;
    if (auto lit = std::find(ls.begin(), ls.end(), client_id);
        lit != ls.end()) {
      ls.erase(lit);
    }
  }
}

void VodServer::on_session_message(std::uint64_t client_id,
                                   const gcs::GcsEndpoint& from,
                                   std::span<const std::byte> data) {
  if (halted_) return;
  Session* sp = find_session(client_id);
  if (sp == nullptr) return;
  Session& s = *sp;
  // Our own OpenReply echoes back on the session channel; filter by the
  // member's full endpoint so co-tenants of a shared daemon are not dropped.
  if (s.member && from == s.member->endpoint()) return;
  const auto type = wire::peek_type(data);
  if (!type) {
    ++stats_.malformed_dropped;
    return;
  }

  switch (*type) {
    case wire::MsgType::kFlow: {
      const auto m = wire::decode<wire::Flow>(data);
      if (!m || m->client_id != client_id) {
        ++stats_.malformed_dropped;
        return;
      }
      // §4.1: flow-control requests are ignored during an emergency burst.
      if (s.eq.active()) return;
      s.rec.rate_fps =
          std::clamp(s.rec.rate_fps + m->delta * params_.rate_step_fps,
                     params_.min_rate_fps, params_.max_rate_fps);
      break;
    }
    case wire::MsgType::kEmergency: {
      const auto m = wire::decode<wire::Emergency>(data);
      if (!m || m->client_id != client_id) {
        ++stats_.malformed_dropped;
        return;
      }
      // §4.1: while the emergency quantity is greater than zero, the
      // server ignores repeated requests of the same (or lesser) severity —
      // a re-send would re-inflate the burst and overflow the client. An
      // *escalation* (tier 2 worsening into tier 1, e.g. the software
      // buffer emptying completely while a small burst is under way) is
      // accepted: the situation became critical.
      {
        const int q =
            m->tier == 1 ? params_.emergency_q1 : params_.emergency_q2;
        if (s.eq.active() && q <= s.burst_base) return;
        const bool was_active = s.eq.active();
        s.eq.trigger(q);
        s.burst_base = q;
        if (!was_active) {
          s.next_decay_at = sched_->now() + params_.emergency_decay_period;
        }
      }
      // Refill starts immediately at the boosted rate.
      if (!s.rec.paused && !s.finished) arm_send_timer(s);
      break;
    }
    case wire::MsgType::kVcr: {
      const auto m = wire::decode<wire::Vcr>(data);
      if (!m || m->client_id != client_id) {
        ++stats_.malformed_dropped;
        return;
      }
      switch (m->op) {
        case wire::VcrOp::kPause:
          s.rec.paused = true;
          s.send_timer.cancel();
          break;
        case wire::VcrOp::kResume:
          s.rec.paused = false;
          if (!s.finished) arm_send_timer(s);
          break;
        case wire::VcrOp::kSeek:
          s.rec.next_frame =
              std::min(m->seek_frame, s.movie->frame_count() - 1);
          s.finished = false;
          if (!s.rec.paused) arm_send_timer(s);
          break;
        case wire::VcrOp::kStop:
          close_session(client_id);
          return;
      }
      break;
    }
    case wire::MsgType::kSetQuality: {
      const auto m = wire::decode<wire::SetQuality>(data);
      if (!m || m->client_id != client_id) {
        ++stats_.malformed_dropped;
        return;
      }
      s.rec.quality_fps = m->fps;
      if (m->fps > 0.0 && m->fps < s.movie->fps()) {
        s.quality.emplace(*s.movie, m->fps);
      } else {
        s.quality.reset();
      }
      break;
    }
    default:
      // Another server's OpenReply (session takeover) is legitimate here;
      // anything else does not belong on a session channel.
      if (*type != wire::MsgType::kOpenReply) ++stats_.malformed_dropped;
      break;
  }
}

void VodServer::on_session_view(std::uint64_t client_id,
                                const gcs::GroupView& v) {
  if (halted_) return;
  // When the only members left are our own endpoints, the client has left:
  // tear the session down.
  const Session* s = find_session(client_id);
  if (s == nullptr) return;
  const bool client_present =
      std::any_of(v.members.begin(), v.members.end(),
                  [&](const gcs::GcsEndpoint& e) {
                    return e.node != daemon_->self();
                  });
  if (!client_present && v.daemon_view_counter > 0 && !v.members.empty()) {
    // Only react when the view is non-trivial: the client may simply not
    // have joined yet right after takeover; distinguish via record age is
    // overkill here — a client that never joins sends nothing and times out
    // with the whole group when it leaves.
    if (v.members.size() == 1 && v.members[0].node == daemon_->self() &&
        s->rec.next_frame > 0) {
      util::log_info(kLog, "client ", client_id, " left; closing session");
      close_session(client_id);
    }
  }
}

// -------------------------------------------------------------- data plane

double VodServer::effective_rate(const Session& s) const {
  double rate = std::clamp(s.rec.rate_fps, params_.min_rate_fps,
                           params_.max_rate_fps);
  if (s.quality) {
    // The tick rate must equal the filter's actual kept-frame rate, or the
    // movie would play too fast/slow (each tick advances past the frames
    // the filter skips).
    rate = std::min(rate, s.quality->effective_fps(s.movie->fps()));
  }
  rate += s.eq.quantity();
  return std::min(rate, params_.max_rate_fps + params_.emergency_q1);
}

void VodServer::arm_send_timer(Session& s) {
  const double rate = effective_rate(s);
  const auto period = static_cast<sim::Duration>(1e6 / rate);
  // The closure binds the session itself: slab slots never move, and the
  // session's own timer is cancelled whenever the slot is released.
  s.send_timer.arm(period, [this, &s] { send_tick(s); });
}

void VodServer::send_tick(Session& s) {
  if (halted_ || s.rec.paused || s.finished) return;

  // Emergency decay is evaluated on the send path (§4.1: once per second).
  while (s.eq.active() && sched_->now() >= s.next_decay_at) {
    s.eq.decay_step();
    s.next_decay_at += params_.emergency_decay_period;
  }

  // Quality adaptation: transmit only the frames the filter keeps (all I
  // frames plus as many P/B as the client's capability allows).
  while (s.rec.next_frame < s.movie->frame_count() && s.quality &&
         !s.quality->should_send(s.rec.next_frame)) {
    ++s.rec.next_frame;
  }
  if (s.rec.next_frame >= s.movie->frame_count()) {
    s.finished = true;
    return;
  }

  const mpeg::FrameInfo frame = s.movie->frame(s.rec.next_frame);
  wire::Frame msg{s.rec.client_id, frame.index, frame.type, frame.size_bytes};
  // Encode into the server-lifetime scratch writer: the per-frame hot path
  // touches no heap once the writer and the network's buffer pool are warm.
  wire::encode_into(msg, frame_writer_);
  const std::size_t padding = frame.size_bytes > frame_writer_.size()
                                  ? frame.size_bytes - frame_writer_.size()
                                  : 0;
  data_socket_->send(s.rec.data_endpoint, frame_writer_.buffer(), padding);
  ++stats_.frames_sent;
  ++s.rec.next_frame;
  arm_send_timer(s);
}

void VodServer::send_sync() {
  if (halted_) return;
  // A periodic sync is a freshness report. While the control plane is
  // frozen it cannot leave this host anyway; submitting it would only queue
  // it in the daemon, to be flushed as a burst of *stale* claims after the
  // resume-and-merge — which peers would misread as live ownership.
  if (daemon_->paused()) return;
  for (auto& [name, ms] : movies_) {
    wire::StateSync sync;
    sync.movie = name;
    for (const std::uint64_t client : ms->local_sessions) {
      Session& s = *find_session(client);
      s.synced_rec = s.rec;  // checkpoint: what the group now knows
      sync.clients.push_back(s.rec);
    }
    ms->member->send(wire::encode(sync));
    ++stats_.syncs_sent;
  }
}

}  // namespace ftvod::vod
