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
      client_id_(make_client_id(data_node)),
      flow_(params),
      deadline_timer_(sched),
      watchdog_timer_(sched, params.watchdog_period,
                      [this] { watchdog_tick(); }),
      open_retry_timer_(sched) {
  data_socket_ = net_->bind(node_, params_.client_data_port,
                            [this](const net::Endpoint& from,
                                   std::span<const std::byte> d) {
                              on_datagram(from, d);
                            });
  net_->on_crash(node_, [this] {
    advance_to(sched_->now());
    halted_ = true;
    stop_display();
    watchdog_timer_.stop();
    open_retry_timer_.cancel();
  });
}

std::optional<ClientBuffers::View> VodClient::buffers() const {
  if (!buffers_) return std::nullopt;
  return buffers_->view_after(ticks_due(sched_->now()));
}

double VodClient::low_water_frames() const {
  return buffers_ ? params_.low_water_frac *
                        static_cast<double>(buffers_->total_capacity_frames())
                  : 0.0;
}

double VodClient::high_water_frames() const {
  return buffers_ ? params_.high_water_frac *
                        static_cast<double>(buffers_->total_capacity_frames())
                  : 0.0;
}

void VodClient::watch(const std::string& movie, double capability_fps) {
  if (halted_) return;
  advance_to(sched_->now());
  // watch() starts a fresh viewing session. Clear every remnant of a
  // previous one first: a stop()ed session leaves the old movie's buffers
  // and display position behind, and the reconnect logic in
  // on_session_message() would "helpfully" seek the *new* session to the
  // *old* movie's offset. (This is the reuse bug the workload driver's
  // client pool tripped over.)
  if (session_member_) {
    session_member_->leave();
    session_member_.reset();
  }
  stop_display();
  open_retry_timer_.cancel();
  open_retry_delay_ = 0;
  buffers_.reset();
  flow_.reset();
  connected_ = false;
  playing_ = false;
  paused_ = false;
  movie_frames_ = 0;
  last_progress_frame_ = -1;
  resync_attempts_ = 0;
  last_emergency_tier_ = 255;
  last_emergency_at_ = -1'000'000'000;

  movie_ = movie;
  capability_fps_ = capability_fps;
  // Join the session group before announcing it: the reply arrives there.
  session_member_ = daemon_->join(
      session_group_name(client_id_, movie_),
      gcs::GroupCallbacks{
          [this](const gcs::GcsEndpoint& from, std::span<const std::byte> d) {
            on_session_message(from, d);
          },
          [this](const gcs::GroupView&) { ++control_stats_.session_views; }});
  send_open_request();
  watchdog_timer_.start();
}

void VodClient::send_open_request() {
  if (halted_ || connected_) return;
  wire::OpenRequest req{client_id_, movie_, data_socket_->local(),
                        capability_fps_};
  daemon_->send_to_group(server_group_name(), wire::encode(req));
  // Exponential backoff with jitter: during a long outage every waiting
  // client would otherwise re-ask the server group in lockstep at a fixed
  // interval, turning the recovery instant into a thundering herd.
  if (open_retry_delay_ == 0) open_retry_delay_ = params_.open_retry;
  const auto jitter = static_cast<sim::Duration>(net_->rng().uniform(
      0.0, static_cast<double>(open_retry_delay_) / 4.0));
  open_retry_timer_.arm(open_retry_delay_ + jitter, [this] {
    ++control_stats_.open_retries;
    send_open_request();
  });
  open_retry_delay_ = std::min(2 * open_retry_delay_, params_.open_retry_cap);
}

void VodClient::on_session_message(const gcs::GcsEndpoint& from,
                                   std::span<const std::byte> d) {
  if (halted_) return;
  // Precise self-filter: compare full endpoints, not nodes. On a shared
  // gateway daemon every local member reports the gateway's node id, so a
  // node-level check would also drop messages from legitimate senders that
  // happen to share the daemon.
  if (session_member_ && from == session_member_->endpoint()) return;
  if (wire::peek_type(d) != wire::MsgType::kOpenReply) {
    ++control_stats_.malformed_dropped;
    return;
  }
  const auto reply = wire::decode_open_reply(d);
  if (!reply || reply->client_id != client_id_) {
    ++control_stats_.malformed_dropped;
    return;
  }
  if (connected_) return;  // duplicate reply to a retried open

  advance_to(sched_->now());
  connected_ = true;
  open_retry_timer_.cancel();
  open_retry_delay_ = 0;  // the next outage backs off from the base again
  last_frame_at_ = sched_->now();
  last_progress_at_ = sched_->now();  // a (re)connect restarts the clock
  movie_fps_ = reply->fps;
  movie_frames_ = reply->frame_count;
  if (!buffers_) {
    // Keep existing buffers (and their counters) across a reconnect.
    buffers_.emplace(params_.sw_buffer_frames, params_.hw_buffer_bytes,
                     reply->avg_frame_bytes);
  }
  update_display_rate();
  util::log_info(kLog, "client ", client_id_, " connected for '", movie_,
                 "' (", reply->fps, " fps, ", reply->frame_count, " frames)");
  const std::int64_t shown = buffers_->cursor().last_displayed;
  if (shown >= 0 && !is_end(shown)) {
    // Reconnect mid-movie: the responding server may have (re)opened the
    // session at an arbitrary offset. Align it with our actual position.
    do_seek(static_cast<std::uint64_t>(shown) + 1);
  }
  schedule_deadline();
}

void VodClient::on_datagram(const net::Endpoint& from,
                            std::span<const std::byte> d) {
  (void)from;  // deliberately ignored: the client must not track servers
  if (halted_ || !buffers_) return;
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
  if (const auto f = wire::decode_frame(*opened)) {
    if (f->client_id == client_id_) on_frame(*f);
  } else {
    ++control_stats_.malformed_dropped;
  }
}

void VodClient::on_frame(const wire::Frame& f) {
  const sim::Time now = sched_->now();
  advance_to(now);
  last_frame_at_ = now;
  // An arrival can only move every check later, so it leaves the deadline
  // timer alone. The exception is an overflow eviction: the decoder may
  // then drain the software stage sooner.
  const bool evicted =
      buffers_->insert(mpeg::FrameInfo{f.frame_index, f.type, f.size_bytes});
  const ClientBuffers::View b = buffers_->view();

  // Start the display loop once the decoder has a little material.
  if (!playing_ &&
      b.hw_frames() >=
          static_cast<std::size_t>(params_.display_prefill_frames)) {
    playing_ = true;
    if (!paused_) start_display();
  }

  if (const auto action = flow_.on_frame_received(b.occupancy_fraction(),
                                                  b.sw_occupancy_fraction())) {
    send_flow(*action, now);
  }
  if (evicted) schedule_deadline();
}

void VodClient::send_flow(FlowAction action, sim::Time t) {
  if (!session_member_ || !connected_) return;
  switch (action) {
    case FlowAction::kIncrease:
      ++control_stats_.increases_sent;
      util::log_debug(kLog, "client ", client_id_, " asks +1 fps");
      session_member_->send(wire::encode(wire::Flow{client_id_, +1}));
      break;
    case FlowAction::kDecrease:
      ++control_stats_.decreases_sent;
      util::log_debug(kLog, "client ", client_id_, " asks -1 fps");
      session_member_->send(wire::encode(wire::Flow{client_id_, -1}));
      break;
    case FlowAction::kEmergencyTier1:
    case FlowAction::kEmergencyTier2: {
      const std::uint8_t tier =
          action == FlowAction::kEmergencyTier1 ? 1 : 2;
      // Rate-limit same-severity emergencies (the server ignores them while
      // a burst is active anyway), but let an escalation through at once.
      if (tier >= last_emergency_tier_ &&
          t - last_emergency_at_ < params_.emergency_resend_interval) {
        return;
      }
      assert(t == sched_->now() && "an emergency fell due before now");
      last_emergency_at_ = t;
      last_emergency_tier_ = tier;
      ++control_stats_.emergencies_sent;
      util::log_debug(kLog, "client ", client_id_, " raises a tier ",
                      static_cast<int>(tier), " emergency");
      session_member_->send(wire::encode(wire::Emergency{client_id_, tier}));
      break;
    }
  }
}

void VodClient::watchdog_tick() {
  if (halted_ || !connected_ || paused_ || !buffers_) return;
  check_stream(sched_->now());
}

void VodClient::check_stream(sim::Time t) {
  const std::int64_t shown = buffers_->cursor().last_displayed;
  // Session-loss recovery: if nothing has arrived for much longer than any
  // takeover needs (e.g. this client was partitioned away long enough for
  // the servers to declare it failed and tear the session down), go back
  // to the server group and ask again.
  if (!is_end(shown) && t - last_frame_at_ > params_.reconnect_timeout) {
    assert(t == sched_->now() && "the reconnect deadline fell due before now");
    util::log_info(kLog, "client ", client_id_,
                   " lost its stream; re-requesting '", movie_, "'");
    connected_ = false;
    last_frame_at_ = t;
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
  if (playing_) {
    if (shown != last_progress_frame_) {
      last_progress_frame_ = shown;
      last_progress_at_ = t;
      resync_attempts_ = 0;
    } else if (!is_end(shown) &&
               t - last_progress_at_ > params_.reconnect_timeout) {
      assert(t == sched_->now() && "a resync fell due before now");
      last_progress_at_ = t;
      if (++resync_attempts_ <= 2) {
        util::log_info(kLog, "client ", client_id_,
                       " sees no display progress; resyncing at frame ",
                       shown + 1);
        do_seek(static_cast<std::uint64_t>(shown + 1));
      } else {
        util::log_info(kLog, "client ", client_id_,
                       " resyncs went unheard; re-requesting '", movie_, "'");
        resync_attempts_ = 0;
        connected_ = false;
        last_frame_at_ = t;
        send_open_request();
      }
      return;
    }
  }
  // Emergencies must fire even when no frames arrive (migration outages,
  // startup, post-seek refills) — the receive path alone cannot see them.
  const double sw = buffers_->view().sw_occupancy_fraction();
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
  while (display_running_ && next_tick_ <= now) {
    const sim::Time t = next_tick_;
    next_tick_ += period_;
    (void)buffers_->consume();
    if (connected_) check_stream(t);
  }
}

sim::Time VodClient::next_check_deadline() const {
  // Tick k = 1, 2, ... from now falls at next_tick_ + (k - 1) * period_.
  const auto tick = [this](std::uint64_t k) {
    return next_tick_ + static_cast<sim::Duration>(k - 1) * period_;
  };
  const auto tick_after = [this](sim::Time x) {  // the first tick past x
    if (x < next_tick_) return next_tick_;
    return next_tick_ + ((x - next_tick_) / period_ + 1) * period_;
  };
  const ClientBuffers::View b = buffers_->view();
  sim::Time at = kNever;
  // At the end of the movie the stream checks stand down for good.
  if (!is_end(b.last_displayed())) {
    at = tick_after(last_frame_at_ + params_.reconnect_timeout);
    // Progress is noted at each tick that shows a frame, and every
    // buffered frame is shown, one per tick, before the decoder starves.
    sim::Time progress_at = last_progress_at_;
    if (b.total_frames() > 0) {
      progress_at = tick(b.total_frames());
    } else if (b.last_displayed() != last_progress_frame_) {
      progress_at = tick(1);
    }
    at = std::min(at, tick_after(progress_at + params_.reconnect_timeout));
  }
  // Emergencies: tier 1 from the tick the software stage falls below its
  // threshold, tier 2 between its own crossing and that one. Each is held
  // back until the resend interval passes when the last one sent was of
  // the same or a more severe tier.
  const sim::Time resend = tick_after(
      last_emergency_at_ + params_.emergency_resend_interval - 1);
  const auto first_sent = [&](std::uint8_t tier, sim::Time from) {
    return tier >= last_emergency_tier_ ? std::max(from, resend) : from;
  };
  const auto [below1, below2] = buffers_->ticks_until_sw_below(
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
  if (!display_running_ || !connected_) return;
  const sim::Time at = next_check_deadline();
  if (at == kNever || (deadline_timer_.pending() && deadline_at_ <= at)) {
    return;
  }
  deadline_at_ = at;
  deadline_timer_.arm(at - sched_->now(), [this] { on_deadline(); });
}

void VodClient::on_deadline() {
  ++control_stats_.deadline_wakeups;
  advance_to(sched_->now());
  schedule_deadline();
}

void VodClient::start_display() {
  display_running_ = true;
  next_tick_ = sched_->now() + period_;
  watchdog_timer_.stop();
  schedule_deadline();
}

void VodClient::stop_display() {
  display_running_ = false;
  deadline_timer_.cancel();
}

// ------------------------------------------------------------- VCR control

void VodClient::pause() {
  if (!session_member_) return;
  advance_to(sched_->now());
  paused_ = true;
  stop_display();
  session_member_->send(
      wire::encode(wire::Vcr{client_id_, wire::VcrOp::kPause, 0}));
}

void VodClient::resume() {
  if (!session_member_) return;
  advance_to(sched_->now());
  paused_ = false;
  if (playing_) start_display();
  session_member_->send(
      wire::encode(wire::Vcr{client_id_, wire::VcrOp::kResume, 0}));
}

void VodClient::seek(std::uint64_t frame) {
  if (!session_member_) return;
  advance_to(sched_->now());
  do_seek(frame);
  schedule_deadline();
}

void VodClient::do_seek(std::uint64_t frame) {
  session_member_->send(
      wire::encode(wire::Vcr{client_id_, wire::VcrOp::kSeek, frame}));
  if (buffers_) buffers_->flush_to(frame);
  flow_.reset();
  last_emergency_at_ = -1'000'000'000;  // a seek is an emergency situation
}

void VodClient::set_quality(double fps) {
  if (!session_member_) return;
  advance_to(sched_->now());
  capability_fps_ = fps;
  update_display_rate();
  session_member_->send(
      wire::encode(wire::SetQuality{client_id_, fps}));
  schedule_deadline();
}

void VodClient::update_display_rate() {
  // A reduced-quality client shows each received frame longer (frame
  // repeat in the decoder): the buffer is consumed at the *delivered* rate,
  // while movie time still advances at the native rate because the server
  // skips the in-between frames.
  const double display_fps =
      capability_fps_ > 0.0 ? std::min(capability_fps_, movie_fps_)
                            : movie_fps_;
  // Like a periodic timer's period, the new one applies after the next tick.
  period_ = static_cast<sim::Duration>(1e6 / display_fps);
}

void VodClient::stop() {
  if (!session_member_) return;
  advance_to(sched_->now());
  session_member_->send(
      wire::encode(wire::Vcr{client_id_, wire::VcrOp::kStop, 0}));
  session_member_->leave();
  session_member_.reset();
  stop_display();
  watchdog_timer_.stop();
  open_retry_timer_.cancel();
  open_retry_delay_ = 0;
  // Drop the decoder state too, not just the control plane: the server
  // keeps streaming for a round trip after the Stop, and a late frame
  // landing in still-live buffers would re-arm the display loop on a
  // session that no longer exists — a zombie client that plays its buffer
  // tail and then "stalls" forever. With the buffers gone, on_datagram()
  // discards the stragglers at the door.
  buffers_.reset();
  flow_.reset();
  connected_ = false;
  playing_ = false;
  paused_ = false;
  movie_frames_ = 0;
  last_progress_frame_ = -1;
  resync_attempts_ = 0;
  last_emergency_tier_ = 255;
}

}  // namespace ftvod::vod
