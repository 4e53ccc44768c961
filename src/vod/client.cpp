#include "vod/client.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/log.hpp"

namespace ftvod::vod {

namespace {
constexpr std::string_view kLog = "vod.client";
constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();

std::uint64_t make_client_id(net::NodeId node) {
  static std::uint64_t counter = 0;
  return (static_cast<std::uint64_t>(node) << 32) | ++counter;
}

}  // namespace

VodClient::VodClient(sim::Scheduler& sched, net::Network& net,
                     gcs::Daemon& daemon, VodParams params,
                     net::NodeId data_node)
    : sched_(&sched),
      net_(&net),
      daemon_(&daemon),
      params_(params),
      node_(data_node),
      client_id_(make_client_id(data_node)) {
  data_socket_ = net_->bind(node_, params_.client_data_port,
                            [this](const net::Endpoint& from,
                                   std::span<const std::byte> d) {
                              on_datagram(from, d);
                            });
  data_socket_->on_crash([this] {
    if (session_) advance_to(sched_->now());
    halted_ = true;
    if (!session_) return;
    stop_display();
    session_->watchdog_timer.stop();
    session_->open_retry_timer.cancel();
  });
}

std::optional<ClientBuffers::View> VodClient::buffers() const {
  if (!session_ || !session_->buffers) return std::nullopt;
  return session_->buffers->view_after(session_->ticks_due(sched_->now()));
}

double VodClient::capacity_frames() const {
  return session_ && session_->buffers
             ? static_cast<double>(session_->buffers->total_capacity_frames())
             : 0.0;
}

void VodClient::watch(const std::string& movie, double capability_fps) {
  if (halted_) return;
  // watch() starts a fresh viewing session. Nothing of a previous one may
  // survive it: the reconnect logic in on_session_message() would
  // "helpfully" seek the *new* session to the *old* movie's offset. (This
  // is the reuse bug the workload driver's client pool tripped over.)
  if (session_) advance_to(sched_->now());
  session_.reset();  // leaves the old session group, cancels its timers

  movie_ = movie;
  capability_fps_ = capability_fps;
  session_.emplace(*sched_, params_, [this] { watchdog_tick(); });
  // Join the session group before announcing it: the reply arrives there.
  session_->member = daemon_->join(
      session_group_name(client_id_, movie_),
      gcs::GroupCallbacks{
          [this](const gcs::GcsEndpoint& from, std::span<const std::byte> d) {
            on_session_message(from, d);
          },
          [this](const gcs::GroupView&) { ++control_stats_.session_views; }});
  send_open_request();
  session_->watchdog_timer.start();
}

void VodClient::send_open_request() {
  Session& s = *session_;
  if (halted_ || s.connected) return;
  wire::OpenRequest req{client_id_, movie_, data_socket_->local(),
                        capability_fps_};
  daemon_->send_to_group(server_group_name(), wire::encode(req));
  // Exponential backoff with jitter: during a long outage every waiting
  // client would otherwise re-ask the server group in lockstep at a fixed
  // interval, turning the recovery instant into a thundering herd.
  if (s.open_retry_delay == 0) s.open_retry_delay = params_.open_retry;
  const auto jitter = static_cast<sim::Duration>(net_->rng().uniform(
      0.0, static_cast<double>(s.open_retry_delay) / 4.0));
  s.open_retry_timer.arm(s.open_retry_delay + jitter, [this] {
    ++control_stats_.open_retries;
    send_open_request();
  });
  s.open_retry_delay =
      std::min(2 * s.open_retry_delay, params_.open_retry_cap);
}

void VodClient::on_session_message(const gcs::GcsEndpoint& from,
                                   std::span<const std::byte> d) {
  if (halted_) return;
  Session& s = *session_;  // the group's handle lives in it
  // Precise self-filter: compare full endpoints, not nodes. On a shared
  // gateway daemon every local member reports the gateway's node id, so a
  // node-level check would also drop messages from legitimate senders that
  // happen to share the daemon.
  if (from == s.member->endpoint()) return;
  if (wire::peek_type(d) != wire::MsgType::kOpenReply) {
    ++control_stats_.malformed_dropped;
    return;
  }
  const auto reply = wire::decode<wire::OpenReply>(d);
  if (!reply || reply->client_id != client_id_) {
    ++control_stats_.malformed_dropped;
    return;
  }
  if (s.connected) return;  // duplicate reply to a retried open

  advance_to(sched_->now());
  s.connected = true;
  s.open_retry_timer.cancel();
  s.open_retry_delay = 0;  // the next outage backs off from the base again
  s.last_frame_at = sched_->now();
  s.last_progress_at = sched_->now();  // a (re)connect restarts the clock
  s.movie_fps = reply->fps;
  s.movie_frames = reply->frame_count;
  if (!s.buffers) {
    // Keep existing buffers (and their counters) across a reconnect.
    s.buffers.emplace(params_.sw_buffer_frames, params_.hw_buffer_bytes,
                      reply->avg_frame_bytes);
  }
  update_display_rate();
  util::log_info(kLog, "client ", client_id_, " connected for '", movie_,
                 "' (", reply->fps, " fps, ", reply->frame_count, " frames)");
  const std::int64_t shown = s.buffers->cursor().last_displayed;
  if (shown >= 0 && !s.is_end(shown)) {
    // Reconnect mid-movie: the responding server may have (re)opened the
    // session at an arbitrary offset. Align it with our actual position.
    do_seek(static_cast<std::uint64_t>(shown) + 1);
  }
  schedule_deadline();
}

void VodClient::on_datagram(const net::Endpoint& from,
                            std::span<const std::byte> d) {
  (void)from;  // deliberately ignored: the client must not track servers
  if (halted_ || !session_ || !session_->buffers) return;
  // Integrity gate: the data socket is the one channel exposed to raw wire
  // damage (frames bypass GCS), so verify before any decoding.
  const auto opened = util::frame_open(d);
  if (!opened) {
    data_socket_->note_corrupt_dropped();
    ++control_stats_.malformed_dropped;
    return;
  }
  if (wire::peek_type(d) != wire::MsgType::kFrame) {
    ++control_stats_.malformed_dropped;
    return;
  }
  if (const auto f = wire::decode<wire::Frame>(*opened)) {
    if (f->client_id == client_id_) on_frame(*f);
  } else {
    ++control_stats_.malformed_dropped;
  }
}

void VodClient::on_frame(const wire::Frame& f) {
  Session& s = *session_;
  const sim::Time now = sched_->now();
  advance_to(now);
  s.last_frame_at = now;
  // An arrival can only move every check later, so it leaves the deadline
  // timer alone. The exception is an overflow eviction: the decoder may
  // then drain the software stage sooner.
  const bool evicted =
      s.buffers->insert(mpeg::FrameInfo{f.frame_index, f.type, f.size_bytes});
  const ClientBuffers::View b = s.buffers->view();

  // Start the display loop once the decoder has a little material.
  if (!s.playing &&
      b.hw_frames() >=
          static_cast<std::size_t>(params_.display_prefill_frames)) {
    s.playing = true;
    if (!s.paused) start_display();
  }

  if (const auto action = s.flow.on_frame_received(
          b.occupancy_fraction(), b.sw_occupancy_fraction())) {
    send_flow(*action, now);
  }
  if (evicted) schedule_deadline();
}

void VodClient::send_flow(FlowAction action, sim::Time t) {
  Session& s = *session_;
  if (!s.connected) return;
  switch (action) {
    case FlowAction::kIncrease:
      ++control_stats_.increases_sent;
      util::log_debug(kLog, "client ", client_id_, " asks +1 fps");
      s.member->send(wire::encode(wire::Flow{client_id_, +1}));
      break;
    case FlowAction::kDecrease:
      ++control_stats_.decreases_sent;
      util::log_debug(kLog, "client ", client_id_, " asks -1 fps");
      s.member->send(wire::encode(wire::Flow{client_id_, -1}));
      break;
    case FlowAction::kEmergencyTier1:
    case FlowAction::kEmergencyTier2: {
      const std::uint8_t tier =
          action == FlowAction::kEmergencyTier1 ? 1 : 2;
      // Rate-limit same-severity emergencies (the server ignores them while
      // a burst is active anyway), but let an escalation through at once.
      if (tier >= s.last_emergency_tier &&
          t - s.last_emergency_at < params_.emergency_resend_interval) {
        return;
      }
      assert(t == sched_->now() && "an emergency fell due before now");
      s.last_emergency_at = t;
      s.last_emergency_tier = tier;
      ++control_stats_.emergencies_sent;
      util::log_debug(kLog, "client ", client_id_, " raises a tier ",
                      static_cast<int>(tier), " emergency");
      s.member->send(wire::encode(wire::Emergency{client_id_, tier}));
      break;
    }
  }
}

void VodClient::watchdog_tick() {
  if (halted_ || !connected() || paused() || !session_->buffers) return;
  check_stream(sched_->now());
}

void VodClient::check_stream(sim::Time t) {
  Session& s = *session_;
  const std::int64_t shown = s.buffers->cursor().last_displayed;
  // Session-loss recovery: if nothing has arrived for much longer than any
  // takeover needs (e.g. this client was partitioned away long enough for
  // the servers to declare it failed and tear the session down), go back
  // to the server group and ask again.
  if (!s.is_end(shown) && t - s.last_frame_at > params_.reconnect_timeout) {
    assert(t == sched_->now() && "the reconnect deadline fell due before now");
    util::log_info(kLog, "client ", client_id_,
                   " lost its stream; re-requesting '", movie_, "'");
    s.connected = false;
    s.last_frame_at = t;
    send_open_request();
    return;
  }
  // Wedged-stream recovery: a session can look alive on the wire — frames
  // arriving and resetting the clock above — while every frame is stale
  // (a server left transmitting from an old offset after a chaotic run of
  // view changes, so everything is dropped as late). Key on *display*
  // progress instead: first try to re-synchronise the existing session
  // with a seek to our true position; if repeated resyncs go unheard (no
  // live server in the session group), fall back to a full re-open.
  if (s.playing) {
    if (shown != s.last_progress_frame) {
      s.last_progress_frame = shown;
      s.last_progress_at = t;
      s.resync_attempts = 0;
    } else if (!s.is_end(shown) &&
               t - s.last_progress_at > params_.reconnect_timeout) {
      assert(t == sched_->now() && "a resync fell due before now");
      s.last_progress_at = t;
      if (++s.resync_attempts <= 2) {
        util::log_info(kLog, "client ", client_id_,
                       " sees no display progress; resyncing at frame ",
                       shown + 1);
        do_seek(static_cast<std::uint64_t>(shown + 1));
      } else {
        util::log_info(kLog, "client ", client_id_,
                       " resyncs went unheard; re-requesting '", movie_, "'");
        s.resync_attempts = 0;
        s.connected = false;
        s.last_frame_at = t;
        send_open_request();
      }
      return;
    }
  }
  // Emergencies must fire even when no frames arrive (migration outages,
  // startup, post-seek refills) — the receive path alone cannot see them.
  const double sw = s.buffers->view().sw_occupancy_fraction();
  if (sw < params_.emergency_tier1_frac) {
    send_flow(FlowAction::kEmergencyTier1, t);
  } else if (sw < params_.emergency_tier2_frac) {
    send_flow(FlowAction::kEmergencyTier2, t);
  }
}

void VodClient::advance_to(sim::Time now) {
  // The display carries the watchdog while it runs: occupancy only falls
  // in a tick (and in a seek's flush), so the checks lose nothing by
  // running at the display rate instead of on a clock of their own. A tick
  // due at `now` itself counts as run before the caller's event.
  Session& s = *session_;
  while (s.display_running && s.next_tick <= now) {
    const sim::Time t = s.next_tick;
    s.next_tick += s.period;
    (void)s.buffers->consume();
    if (s.connected) check_stream(t);
  }
}

sim::Time VodClient::next_check_deadline() const {
  const Session& s = *session_;
  // Tick k = 1, 2, ... from now falls at next_tick + (k - 1) * period.
  const auto tick = [&s](std::uint64_t k) {
    return s.next_tick + static_cast<sim::Duration>(k - 1) * s.period;
  };
  const auto tick_after = [&s](sim::Time x) {  // the first tick past x
    if (x < s.next_tick) return s.next_tick;
    return s.next_tick + ((x - s.next_tick) / s.period + 1) * s.period;
  };
  const ClientBuffers::View b = s.buffers->view();
  sim::Time at = kNever;
  // At the end of the movie the stream checks stand down for good.
  if (!s.is_end(b.last_displayed())) {
    at = tick_after(s.last_frame_at + params_.reconnect_timeout);
    // Progress is noted at each tick that shows a frame, and every
    // buffered frame is shown, one per tick, before the decoder starves.
    sim::Time progress_at = s.last_progress_at;
    if (b.total_frames() > 0) {
      progress_at = tick(b.total_frames());
    } else if (b.last_displayed() != s.last_progress_frame) {
      progress_at = tick(1);
    }
    at = std::min(at, tick_after(progress_at + params_.reconnect_timeout));
  }
  // Emergencies: tier 1 from the tick the software stage falls below its
  // threshold, tier 2 between its own crossing and that one. Each is held
  // back until the resend interval passes when the last one sent was of
  // the same or a more severe tier.
  const sim::Time resend = tick_after(
      s.last_emergency_at + params_.emergency_resend_interval - 1);
  const auto first_sent = [&](std::uint8_t tier, sim::Time from) {
    return tier >= s.last_emergency_tier ? std::max(from, resend) : from;
  };
  const auto [below1, below2] = s.buffers->ticks_until_sw_below(
      {params_.emergency_tier1_frac, params_.emergency_tier2_frac});
  const sim::Time t1 = below1 ? tick(*below1) : kNever;
  if (below1) at = std::min(at, first_sent(1, t1));
  if (below2) {
    if (const sim::Time t2 = first_sent(2, tick(*below2)); t2 < t1) {
      at = std::min(at, t2);
    }
  }
  return at;
}

void VodClient::schedule_deadline() {
  Session& s = *session_;
  if (!s.display_running || !s.connected) return;
  const sim::Time at = next_check_deadline();
  if (at == kNever || (s.deadline_timer.pending() && s.deadline_at <= at)) {
    return;
  }
  s.deadline_at = at;
  s.deadline_timer.arm(at - sched_->now(), [this] { on_deadline(); });
}

void VodClient::on_deadline() {
  ++control_stats_.deadline_wakeups;
  advance_to(sched_->now());
  schedule_deadline();
}

void VodClient::start_display() {
  Session& s = *session_;
  s.display_running = true;
  s.next_tick = sched_->now() + s.period;
  s.watchdog_timer.stop();
  schedule_deadline();
}

void VodClient::stop_display() {
  session_->display_running = false;
  session_->deadline_timer.cancel();
}

// ------------------------------------------------------------- VCR control

void VodClient::pause() {
  if (!session_) return;
  advance_to(sched_->now());
  session_->paused = true;
  stop_display();
  session_->member->send(
      wire::encode(wire::Vcr{client_id_, wire::VcrOp::kPause, 0}));
}

void VodClient::resume() {
  if (!session_) return;
  advance_to(sched_->now());
  session_->paused = false;
  if (session_->playing) start_display();
  session_->member->send(
      wire::encode(wire::Vcr{client_id_, wire::VcrOp::kResume, 0}));
}

void VodClient::seek(std::uint64_t frame) {
  if (!session_) return;
  advance_to(sched_->now());
  do_seek(frame);
  schedule_deadline();
}

void VodClient::do_seek(std::uint64_t frame) {
  Session& s = *session_;
  s.member->send(
      wire::encode(wire::Vcr{client_id_, wire::VcrOp::kSeek, frame}));
  if (s.buffers) s.buffers->flush_to(frame);
  s.flow.reset();
  s.last_emergency_at = -1'000'000'000;  // a seek is an emergency situation
}

void VodClient::set_quality(double fps) {
  if (!session_) return;
  advance_to(sched_->now());
  capability_fps_ = fps;
  update_display_rate();
  session_->member->send(wire::encode(wire::SetQuality{client_id_, fps}));
  schedule_deadline();
}

void VodClient::update_display_rate() {
  // A reduced-quality client shows each received frame longer (frame
  // repeat in the decoder): the buffer is consumed at the *delivered* rate,
  // while movie time still advances at the native rate because the server
  // skips the in-between frames.
  Session& s = *session_;
  const double display_fps =
      capability_fps_ > 0.0 ? std::min(capability_fps_, s.movie_fps)
                            : s.movie_fps;
  // Like a periodic timer's period, the new one applies after the next tick.
  s.period = static_cast<sim::Duration>(1e6 / display_fps);
}

void VodClient::stop() {
  if (!session_) return;
  advance_to(sched_->now());
  session_->member->send(
      wire::encode(wire::Vcr{client_id_, wire::VcrOp::kStop, 0}));
  // Drop the decoder state too, not just the control plane: the server
  // keeps streaming for a round trip after the Stop, and a late frame
  // landing in still-live buffers would re-arm the display loop on a
  // session that no longer exists — a zombie client that plays its buffer
  // tail and then "stalls" forever. With the session gone, on_datagram()
  // discards the stragglers at the door.
  session_.reset();
}

}  // namespace ftvod::vod
