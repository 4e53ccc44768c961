// The VoD client (§3, §4). It contacts the anonymous server group, joins
// its own session group, and from then on only ever talks to "whoever is in
// my session group" — server crashes and load-balancing migrations are
// invisible to it, exactly the transparency the paper demonstrates.
//
// The client runs the Figure-2 flow-control policy on every received frame,
// a watchdog that raises emergencies even when nothing arrives (outages),
// and a display that consumes one frame per period from the decoder model.
//
// A display tick is not an event. Every tick's work is a function of time
// between two arrivals, so advance_to() runs the ticks due so far, each at
// its own tick time, before anything changes the client: an arrival, an
// OpenReply, a VCR operation or a deadline. The watchdog checks run in
// each of those ticks. A playing client owns one scheduler event, a
// deadline timer armed at the first tick at which a check would act if no
// frame arrived: the reconnect deadline, the display-progress resync or an
// emergency threshold crossing. Arrivals only push that tick later, so they
// never touch the timer; a firing whose check finds nothing to do re-arms.
// Readers outside the client see the ticks due by now through const
// projections: counters(), at_end(), occupancy_fraction() and buffers().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "gcs/daemon.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"
#include "vod/client_buffer.hpp"
#include "vod/flow_control.hpp"
#include "vod/params.hpp"
#include "vod/wire.hpp"

namespace ftvod::vod {

struct ClientControlStats {
  std::uint64_t increases_sent = 0;
  std::uint64_t decreases_sent = 0;
  std::uint64_t emergencies_sent = 0;
  std::uint64_t session_views = 0;  // membership changes observed
  std::uint64_t open_retries = 0;
  /// Firings of the deadline timer, the one event a playing client owns.
  std::uint64_t deadline_wakeups = 0;
  /// Datagrams/messages this client rejected: integrity-check failures on
  /// the data socket (also counted in SocketStats::corrupt_dropped) plus
  /// decoder refusals and client-id mismatches on either channel.
  std::uint64_t malformed_dropped = 0;
};

class VodClient {
 public:
  /// `data_node` is the host the client's data socket (and crash hook) bind
  /// to. At city scale the client lives on its own edge host but shares a
  /// *gateway* daemon with thousands of peers (Spread's model: daemons on a
  /// few well-connected nodes, lightweight members everywhere), so the
  /// control-plane daemon and the data-plane host are distinct nodes.
  VodClient(sim::Scheduler& sched, net::Network& net, gcs::Daemon& daemon,
            VodParams params, net::NodeId data_node);
  /// Convenience: client co-located with its own daemon.
  VodClient(sim::Scheduler& sched, net::Network& net, gcs::Daemon& daemon,
            VodParams params)
      : VodClient(sched, net, daemon, params, daemon.self()) {}
  ~VodClient() = default;
  VodClient(const VodClient&) = delete;
  VodClient& operator=(const VodClient&) = delete;

  /// Requests the movie from the service. capability_fps > 0 asks for
  /// reduced quality (§4.3).
  void watch(const std::string& movie, double capability_fps = 0.0);

  // --- full VCR control (§3, per the ATM Forum VoD spec) -------------------
  void pause();
  void resume();
  void seek(std::uint64_t frame);
  void set_quality(double fps);
  void stop();

  [[nodiscard]] bool connected() const {
    return session_ && session_->connected;
  }
  [[nodiscard]] bool playing() const { return session_ && session_->playing; }
  [[nodiscard]] bool paused() const { return session_ && session_->paused; }
  /// True between watch() and stop(): the client wants (or receives) a
  /// stream right now. Placement and the under-replication invariant key on
  /// this, not on connected(), which flaps during takeovers.
  [[nodiscard]] bool watching() const { return session_.has_value(); }
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] std::uint64_t client_id() const { return client_id_; }
  /// The title requested by watch(), empty before the first watch().
  [[nodiscard]] const std::string& movie() const { return movie_; }
  /// True once the display has reached the last frame of the movie.
  [[nodiscard]] bool at_end() const {
    const auto b = buffers();
    return b && at_end(*b);
  }
  /// at_end() of a view buffers() returned, without projecting it again.
  [[nodiscard]] bool at_end(const ClientBuffers::View& b) const {
    return session_->is_end(b.last_displayed());
  }
  /// The buffers as the display leaves them now (every tick due by the
  /// scheduler's clock consumed); nullopt before the first OpenReply.
  [[nodiscard]] std::optional<ClientBuffers::View> buffers() const;
  [[nodiscard]] BufferCounters counters() const {
    const auto b = buffers();
    return b ? b->counters() : BufferCounters{};
  }
  [[nodiscard]] const ClientControlStats& control_stats() const {
    return control_stats_;
  }
  [[nodiscard]] double occupancy_fraction() const {
    const auto b = buffers();
    return b ? b->occupancy_fraction() : 0.0;
  }
  [[nodiscard]] const VodParams& params() const { return params_; }
  /// True while the 10 Hz prefill watchdog runs: from watch() until the
  /// display starts. A playing client's checks run in its display ticks.
  [[nodiscard]] bool prefill_watchdog_running() const {
    return session_ && session_->watchdog_timer.running();
  }
  [[nodiscard]] const net::SocketStats& data_socket_stats() const {
    return data_socket_->stats();
  }
  /// Water marks in frames, for plotting Fig 4(c).
  [[nodiscard]] double low_water_frames() const {
    return params_.low_water_frac * capacity_frames();
  }
  [[nodiscard]] double high_water_frames() const {
    return params_.high_water_frac * capacity_frames();
  }

 private:
  void on_datagram(const net::Endpoint& from, std::span<const std::byte> d);
  void on_session_message(const gcs::GcsEndpoint& from,
                          std::span<const std::byte> d);
  void on_frame(const wire::Frame& f);
  /// Total buffer capacity in frames; 0 before the first OpenReply.
  [[nodiscard]] double capacity_frames() const;
  /// Runs every display tick due at or before `now`, in order, each at its
  /// own tick time: consume one frame, then check_stream() if connected.
  void advance_to(sim::Time now);
  void watchdog_tick();
  /// The watchdog body at time `t`: reconnect deadline, display-progress
  /// resync and the emergency thresholds. Runs in every display tick while
  /// the display runs, and on the 10 Hz watchdog clock only before it
  /// starts (prefill).
  void check_stream(sim::Time t);
  /// The earliest tick at which check_stream() would act if nothing
  /// arrived; never later than the true one.
  [[nodiscard]] sim::Time next_check_deadline() const;
  /// Arms the deadline timer at next_check_deadline() unless it is already
  /// armed at or before it (an early firing just re-arms).
  void schedule_deadline();
  void on_deadline();
  /// Starts the display clock (first tick one period from now), which
  /// takes the watchdog over.
  void start_display();
  void stop_display();
  void send_open_request();
  void send_flow(FlowAction action, sim::Time t);
  void do_seek(std::uint64_t frame);
  void update_display_rate();

  sim::Scheduler* sched_;
  net::Network* net_;
  gcs::Daemon* daemon_;
  VodParams params_;
  net::NodeId node_;  // data-plane host; may differ from daemon_->self()

  std::uint64_t client_id_;
  std::string movie_;
  double capability_fps_ = 0.0;

  /// One viewing session, from watch() to stop() or the next watch(): built
  /// whole and dropped whole, so nothing of one session reaches the next.
  /// A host crash keeps it, so its counters stay readable, but stops its
  /// timers.
  struct Session {
    Session(sim::Scheduler& sched, const VodParams& params,
            std::function<void()> on_watchdog)
        : flow(params),
          deadline_timer(sched),
          watchdog_timer(sched, params.watchdog_period, std::move(on_watchdog)),
          open_retry_timer(sched) {}

    [[nodiscard]] std::uint64_t ticks_due(sim::Time now) const {
      if (!display_running || now < next_tick) return 0;
      return static_cast<std::uint64_t>((now - next_tick) / period) + 1;
    }
    [[nodiscard]] bool is_end(std::int64_t last_displayed) const {
      return movie_frames > 0 &&
             last_displayed + 1 >= static_cast<std::int64_t>(movie_frames);
    }

    std::unique_ptr<gcs::GroupMember> member;  // the session group
    std::optional<ClientBuffers> buffers;     // from the first OpenReply
    FlowController flow;

    bool connected = false;  // OpenReply received
    bool playing = false;    // display loop running
    bool paused = false;
    double movie_fps = 30.0;
    std::uint64_t movie_frames = 0;

    /// The display clock: while it runs, ticks fall at next_tick +
    /// k * period. A period change applies after the next tick.
    bool display_running = false;
    sim::Time next_tick = 0;
    sim::Duration period = sim::msec(33);
    sim::OneShotTimer deadline_timer;
    sim::Time deadline_at = 0;  // when deadline_timer fires, if pending
    sim::PeriodicTimer watchdog_timer;
    sim::OneShotTimer open_retry_timer;
    /// Current open-retry backoff delay; 0 means "start over at the base
    /// interval". Doubles (with jitter) per retry up to
    /// params.open_retry_cap and resets on a successful connect.
    sim::Duration open_retry_delay = 0;
    sim::Time last_emergency_at = -1'000'000'000;
    std::uint8_t last_emergency_tier = 255;  // 255 = none outstanding
    sim::Time last_frame_at = 0;
    /// Display-progress tracking for wedged-stream recovery: a session can
    /// be alive on the wire (frames arriving, resetting last_frame_at) yet
    /// useless, e.g. a server left re-transmitting from a stale offset
    /// after a chaotic sequence of view changes. The watchdog
    /// re-synchronises via a seek to the actual position, and falls back
    /// to a full re-open when the resyncs go unheard.
    std::int64_t last_progress_frame = -1;
    sim::Time last_progress_at = 0;
    int resync_attempts = 0;
  };

  std::unique_ptr<net::Socket> data_socket_;
  std::optional<Session> session_;
  bool halted_ = false;

  ClientControlStats control_stats_;
};

}  // namespace ftvod::vod
