// The deadline-driven client against the display clock it replaced. A
// playing VodClient runs its display ticks lazily, before whatever changes
// it next, and owns one deadline timer for the checks that must fire when
// nothing arrives. The reference below is the client as it was before:
// ClientBuffers, a PeriodicTimer display clock and the same check_stream
// decisions run at every tick. Both get one seeded input stream (frames in
// and out of order, gaps, duplicates, outages, a stale stream, pauses,
// seeks and quality changes), and must log the same actions at the same
// times and show the same frames at every tick.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/log.hpp"
#include "vod/service.hpp"

namespace ftvod::vod {
namespace {

constexpr sim::Duration kLinkDelay = sim::usec(500);
/// An idle, effectively infinite-rate uplink departs a datagram one µs after
/// the send, so a frame reaches the client this long after it was sent.
constexpr sim::Duration kArrival = kLinkDelay + 1;
constexpr std::uint64_t kMovieFrames = 2400;  // 80 s at 30 fps
constexpr std::uint32_t kAvgFrameBytes = 5833;

struct Line {
  sim::Time at;
  std::string text;
  bool operator==(const Line&) const = default;
};

/// Display state at one tick of the reference clock.
struct Shown {
  sim::Time at;
  BufferCounters c;
  std::int64_t last_displayed;
  bool operator==(const Shown& o) const {
    return at == o.at && last_displayed == o.last_displayed &&
           c.received == o.c.received && c.late == o.c.late &&
           c.overflow_discards == o.c.overflow_discards &&
           c.overflow_discarded_i_frames == o.c.overflow_discarded_i_frames &&
           c.skipped == o.c.skipped && c.displayed == o.c.displayed &&
           c.starvation_ticks == o.c.starvation_ticks;
  }
};

std::ostream& operator<<(std::ostream& os, const Line& l) {
  return os << l.at << "us " << l.text;
}
std::ostream& operator<<(std::ostream& os, const Shown& s) {
  return os << s.at << "us shown=" << s.last_displayed
            << " displayed=" << s.c.displayed << " skipped=" << s.c.skipped
            << " starved=" << s.c.starvation_ticks
            << " received=" << s.c.received << " late=" << s.c.late
            << " overflow=" << s.c.overflow_discards;
}

/// The client before display ticks became lazy, minus the network. It logs
/// the lines VodClient logs for the same decisions.
class PerTickClient {
 public:
  PerTickClient(sim::Scheduler& sched, const VodParams& p, std::uint64_t id,
                std::string movie, std::vector<Line>& log,
                std::function<void()> on_tick)
      : sched_(sched),
        p_(p),
        id_(id),
        movie_(std::move(movie)),
        log_(log),
        on_tick_(std::move(on_tick)),
        flow_(p),
        display_(sched, sim::msec(33), [this] { tick(); }),
        watchdog_(sched, p.watchdog_period, [this] {
          if (connected_ && !paused_ && buffers_) check_stream();
        }) {}

  void watch() { watchdog_.start(); }

  void open_reply() {
    if (connected_) return;
    connected_ = true;
    last_frame_at_ = now();
    last_progress_at_ = now();
    if (!buffers_) {
      buffers_.emplace(p_.sw_buffer_frames, p_.hw_buffer_bytes,
                       kAvgFrameBytes);
    }
    update_display_rate();
    std::ostringstream os;
    os << "client " << id_ << " connected for '" << movie_ << "' ("
       << movie_fps_ << " fps, " << kMovieFrames << " frames)";
    log(os.str());
    const std::int64_t shown = buffers_->view().last_displayed();
    if (shown >= 0 && !at_end()) seek(static_cast<std::uint64_t>(shown) + 1);
  }

  void frame(const mpeg::FrameInfo& f) {
    if (!buffers_) return;
    last_frame_at_ = now();
    buffers_->insert(f);
    const ClientBuffers::View b = buffers_->view();
    if (!playing_ && b.hw_frames() >= static_cast<std::size_t>(
                                          p_.display_prefill_frames)) {
      playing_ = true;
      if (!paused_) start_display();
    }
    if (const auto a = flow_.on_frame_received(b.occupancy_fraction(),
                                               b.sw_occupancy_fraction())) {
      send_flow(*a);
    }
  }

  void pause() {
    paused_ = true;
    display_.stop();
  }
  void resume() {
    paused_ = false;
    if (playing_) start_display();
  }
  void seek(std::uint64_t frame) {
    if (buffers_) buffers_->flush_to(frame);
    flow_.reset();
    last_emergency_at_ = -1'000'000'000;
  }
  void set_quality(double fps) {
    capability_fps_ = fps;
    update_display_rate();
  }

  [[nodiscard]] Shown shown() const {
    return Shown{now(), buffers_->view().counters(),
                 buffers_->view().last_displayed()};
  }
  [[nodiscard]] std::uint64_t emergencies() const { return emergencies_; }

 private:
  [[nodiscard]] sim::Time now() const { return sched_.now(); }
  void log(std::string text) { log_.push_back(Line{now(), std::move(text)}); }
  [[nodiscard]] bool at_end() const {
    return buffers_->view().last_displayed() + 1 >=
           static_cast<std::int64_t>(kMovieFrames);
  }
  void start_display() {
    display_.start();
    watchdog_.stop();
  }
  void update_display_rate() {
    const double fps = capability_fps_ > 0.0
                           ? std::min(capability_fps_, movie_fps_)
                           : movie_fps_;
    display_.set_period(static_cast<sim::Duration>(1e6 / fps));
  }

  void tick() {
    if (paused_ || !buffers_) return;
    (void)buffers_->consume();
    if (connected_) check_stream();
    on_tick_();
  }

  void check_stream() {
    if (!at_end() && now() - last_frame_at_ > p_.reconnect_timeout) {
      log("client " + std::to_string(id_) + " lost its stream; re-requesting '" +
          movie_ + "'");
      connected_ = false;
      last_frame_at_ = now();
      return;
    }
    if (playing_) {
      const std::int64_t shown = buffers_->view().last_displayed();
      if (shown != last_progress_frame_) {
        last_progress_frame_ = shown;
        last_progress_at_ = now();
        resync_attempts_ = 0;
      } else if (!at_end() &&
                 now() - last_progress_at_ > p_.reconnect_timeout) {
        last_progress_at_ = now();
        if (++resync_attempts_ <= 2) {
          log("client " + std::to_string(id_) +
              " sees no display progress; resyncing at frame " +
              std::to_string(shown + 1));
          seek(static_cast<std::uint64_t>(shown + 1));
        } else {
          log("client " + std::to_string(id_) +
              " resyncs went unheard; re-requesting '" + movie_ + "'");
          resync_attempts_ = 0;
          connected_ = false;
          last_frame_at_ = now();
        }
        return;
      }
    }
    const double sw = buffers_->view().sw_occupancy_fraction();
    if (sw < p_.emergency_tier1_frac) {
      send_flow(FlowAction::kEmergencyTier1);
    } else if (sw < p_.emergency_tier2_frac) {
      send_flow(FlowAction::kEmergencyTier2);
    }
  }

  void send_flow(FlowAction action) {
    if (!connected_) return;
    const std::string who = "client " + std::to_string(id_);
    switch (action) {
      case FlowAction::kIncrease:
        log(who + " asks +1 fps");
        break;
      case FlowAction::kDecrease:
        log(who + " asks -1 fps");
        break;
      case FlowAction::kEmergencyTier1:
      case FlowAction::kEmergencyTier2: {
        const std::uint8_t tier =
            action == FlowAction::kEmergencyTier1 ? 1 : 2;
        if (tier >= last_emergency_tier_ &&
            now() - last_emergency_at_ < p_.emergency_resend_interval) {
          return;
        }
        last_emergency_at_ = now();
        last_emergency_tier_ = tier;
        ++emergencies_;
        log(who + " raises a tier " + std::to_string(tier) + " emergency");
        break;
      }
    }
  }

  sim::Scheduler& sched_;
  VodParams p_;
  std::uint64_t id_;
  std::string movie_;
  std::vector<Line>& log_;
  std::function<void()> on_tick_;
  std::optional<ClientBuffers> buffers_;
  FlowController flow_;
  sim::PeriodicTimer display_;
  sim::PeriodicTimer watchdog_;
  bool connected_ = false;
  bool playing_ = false;
  bool paused_ = false;
  double movie_fps_ = 30.0;
  double capability_fps_ = 0.0;
  sim::Time last_frame_at_ = 0;
  std::int64_t last_progress_frame_ = -1;
  sim::Time last_progress_at_ = 0;
  int resync_attempts_ = 0;
  sim::Time last_emergency_at_ = -1'000'000'000;
  std::uint8_t last_emergency_tier_ = 255;
  std::uint64_t emergencies_ = 0;
};

/// A VodClient on an edge host of its own, a feeder host that sends it
/// frames over a jitter-free, loss-free link, and a stand-in server that
/// answers every open request. Only the feeder's frames use the client's
/// link, so each arrives exactly kArrival after its send.
class ClientRig {
 public:
  explicit ClientRig(std::uint64_t seed) : dep_(seed) {
    net::LinkQuality q;
    q.base_delay = kLinkDelay;
    dep_.network().set_default_quality(q);
    net::HostConfig fast;
    fast.uplink_bps = 1e13;
    fast.downlink_bps = 1e13;
    const net::NodeId gw = dep_.add_host("gateway");
    const net::NodeId server = dep_.add_host("server");
    const net::NodeId edge = dep_.add_edge_host("client", fast);
    const net::NodeId feeder = dep_.add_edge_host("feeder", fast);
    auto& gateway = dep_.start_gateway(gw);
    server_daemon_ = &dep_.start_gateway(server);
    client_ = dep_.start_client(edge, gateway).client.get();
    feeder_ = dep_.network().bind(feeder, 1, nullptr);
    client_data_ = net::Endpoint{edge, client_->params().client_data_port};
    dep_.run_for(sim::sec(2.0));  // GCS convergence

    session_ = server_daemon_->daemon->join(
        session_group_name(client_->client_id(), kMovie),
        gcs::GroupCallbacks{[](const gcs::GcsEndpoint&,
                               std::span<const std::byte>) {},
                            [](const gcs::GroupView&) {}});
    requests_ = server_daemon_->daemon->join(
        server_group_name(),
        gcs::GroupCallbacks{
            [this](const gcs::GcsEndpoint&, std::span<const std::byte> d) {
              const auto req = wire::decode<wire::OpenRequest>(d);
              if (!req || req->client_id != client_->client_id()) return;
              session_->send(wire::encode(
                  wire::OpenReply{req->client_id, kMovie, 30.0,
                                  kMovieFrames, kAvgFrameBytes}));
            },
            [](const gcs::GroupView&) {}});
    dep_.run_for(sim::msec(500));
  }

  static constexpr const char* kMovie = "feature";

  [[nodiscard]] sim::Scheduler& sched() { return dep_.scheduler(); }
  [[nodiscard]] VodClient& client() { return *client_; }

  /// Sends frame `index` to the client now; it lands kArrival later.
  void send(std::uint64_t index) {
    const mpeg::FrameInfo f = frame(index);
    feeder_->send(client_data_,
                  wire::encode(wire::Frame{client_->client_id(), index,
                                           f.type, f.size_bytes}));
  }
  static mpeg::FrameInfo frame(std::uint64_t index) {
    const auto type = index % 12 == 0  ? mpeg::FrameType::kI
                      : index % 3 == 0 ? mpeg::FrameType::kP
                                       : mpeg::FrameType::kB;
    const std::uint32_t base = type == mpeg::FrameType::kI   ? 14'000
                               : type == mpeg::FrameType::kP ? 6'000
                                                             : 3'500;
    return {index, type,
            base + static_cast<std::uint32_t>(index * 7919 % 1500)};
  }

 private:
  Deployment dep_;
  Deployment::GatewayNode* server_daemon_ = nullptr;
  VodClient* client_ = nullptr;
  std::unique_ptr<net::Socket> feeder_;
  net::Endpoint client_data_;
  std::unique_ptr<gcs::GroupMember> session_;
  std::unique_ptr<gcs::GroupMember> requests_;
};

/// Captures the client's log lines, stamped with simulated time.
class LogCapture {
 public:
  LogCapture(sim::Scheduler& sched, std::function<void(const Line&)> tap) {
    util::Log::reset();
    util::Log::set_level(util::LogLevel::kDebug);
    util::Log::set_sink([this, &sched, tap = std::move(tap)](
                            std::string_view line) {
      constexpr std::string_view kTag = "vod.client: ";
      const auto at = line.find(kTag);
      if (at == std::string_view::npos) return;
      lines.push_back(
          Line{sched.now(), std::string(line.substr(at + kTag.size()))});
      tap(lines.back());
    });
  }
  ~LogCapture() { util::Log::reset(); }
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  std::vector<Line> lines;
};

class ClientDeadline : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClientDeadline, MatchesPerTickReference) {
  const unsigned seed = GetParam();
  ClientRig rig(seed);
  sim::Scheduler& sched = rig.sched();
  VodClient& client = rig.client();

  std::vector<Line> ref_log;
  std::vector<Shown> ref_shown, client_shown;
  std::unique_ptr<PerTickClient> ref;
  ref = std::make_unique<PerTickClient>(
      sched, client.params(), client.client_id(), ClientRig::kMovie, ref_log,
      [&] {
        ref_shown.push_back(ref->shown());
        const auto b = client.buffers();
        ASSERT_TRUE(b.has_value());
        client_shown.push_back(
            Shown{sched.now(), b->counters(), b->last_displayed()});
      });
  LogCapture capture(sched, [&](const Line& l) {
    // The reply reaches both clients at the instant the real one takes it.
    if (l.text.find(" connected for ") != std::string::npos) {
      ref->open_reply();
    }
  });

  // The input script, drawn in phases. Every input that touches a client
  // at time T is scheduled less than a display period before T, as the
  // network's deliveries are: a display tick due at T then runs first for
  // both clients.
  std::mt19937 gen(seed * 2654435761u + 17);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uint64_t next = 0;        // the feeder's next frame index
  sim::Time t = sched.now() + sim::msec(50);
  std::uint64_t frames_sent = 0;
  std::uint64_t sent_to_connected = 0;

  const auto at = [&](sim::Time when, std::function<void()> fn) {
    // Two hops keep the final event less than a period ahead.
    sched.at(when - sim::msec(5), [&sched, when, fn = std::move(fn)] {
      sched.at(when, fn);
    });
  };
  const auto send_at = [&](sim::Time when, std::uint64_t index) {
    if (index >= kMovieFrames) return;
    ++frames_sent;
    sched.at(when, [&, index] {
      rig.send(index);
      const std::uint64_t before = client.counters().received;
      const bool has_buffers = client.buffers().has_value();
      sched.after(kArrival, [&, index, before, has_buffers] {
        ref->frame(ClientRig::frame(index));
        // The frame reached the real client before this event, now.
        if (has_buffers && client.buffers()) {
          ++sent_to_connected;
          EXPECT_EQ(client.counters().received, before + 1)
              << "frame " << index << " missed its arrival time";
        }
      });
    });
  };

  client.watch(ClientRig::kMovie);
  ref->watch();

  // A fill phase, then 55 s of drawn phases. One long outage (past the
  // reconnect timeout) and one stale-stream phase (a wedged session) are
  // always among them.
  for (int i = 0; i < 90; ++i) send_at(t + i * sim::msec(22), next++);
  t += 90 * sim::msec(22);
  const int outage_phase = static_cast<int>(gen() % 6) + 2;
  const int stale_phase = outage_phase + 3 + static_cast<int>(gen() % 4);
  const sim::Time end = t + sim::sec(55.0);
  for (int phase = 0; t < end; ++phase) {
    const int kind = phase == outage_phase  ? 100
                     : phase == stale_phase ? 101
                                            : pct(gen);
    const sim::Duration len = sim::msec(500 + pct(gen) * 35);
    if (kind == 100) {  // outage past the reconnect timeout
      t += client.params().reconnect_timeout + sim::msec(300 + pct(gen) * 20);
      continue;
    }
    if (kind == 101) {  // stale frames only: the display cannot progress
      const sim::Time stop = t + sim::sec(9.0 + pct(gen) / 10.0);
      for (; t < stop; t += sim::msec(33) + 7) send_at(t, 0);
      continue;
    }
    if (kind < 10) {  // short outage
      t += len;
      continue;
    }
    // Rate: fast fills and overflows, slow drains below the thresholds.
    const sim::Duration gap = kind < 30   ? sim::usec(14'000 + pct(gen) * 3)
                              : kind < 55 ? sim::usec(55'000 + pct(gen) * 9)
                                          : sim::usec(33'000 + pct(gen) * 7);
    const bool shuffle = pct(gen) < 40;
    const sim::Time stop = t + len;
    for (; t < stop; t += gap) {
      std::uint64_t idx = next++;
      if (shuffle) {
        const int r = pct(gen);
        if (r < 20 && next > 2) {
          idx = next - 2;  // swap with the one before: out of order
          send_at(t, idx);
          t += gap;
          idx = next - 1;
        } else if (r < 30) {
          idx = next++;  // a gap: one index never sent
        } else if (r < 35 && next > 3) {
          idx = next - 3;  // a duplicate
        }
      }
      send_at(t, idx);
    }
    // A VCR operation now and then.
    const int op = pct(gen);
    if (op < 10) {
      at(t + 3, [&] {
        client.pause();
        ref->pause();
      });
      t += sim::msec(300 + pct(gen) * 10);
      at(t + 3, [&] {
        client.resume();
        ref->resume();
      });
    } else if (op < 18) {
      const std::uint64_t to = pct(gen) < 70 ? next + 60 + pct(gen) * 3
                                             : next / 2;
      next = to;
      at(t + 3, [&, to] {
        client.seek(to);
        ref->seek(to);
      });
    } else if (op < 26) {
      const double fps = pct(gen) < 50 ? 0.0 : 12.0 + pct(gen) / 5;
      at(t + 3, [&, fps] {
        client.set_quality(fps);
        ref->set_quality(fps);
      });
    }
    t += 11;  // keep phase edges off a regular grid
  }
  sched.run_until(end + sim::sec(3.0));

  EXPECT_GT(frames_sent, 1000u);
  EXPECT_GT(sent_to_connected, 500u);
  ASSERT_GT(ref_shown.size(), 500u);
  // The displayed-frame log, tick by tick.
  ASSERT_EQ(ref_shown.size(), client_shown.size());
  for (std::size_t i = 0; i < ref_shown.size(); ++i) {
    ASSERT_EQ(client_shown[i], ref_shown[i]) << "tick " << i;
  }
  // The action log: every flow request, emergency, reconnect and resync,
  // at the same µs and in the same order.
  const std::size_t n = std::min(ref_log.size(), capture.lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(capture.lines[i], ref_log[i]) << "action " << i;
  }
  ASSERT_EQ(capture.lines.size(), ref_log.size());
  EXPECT_EQ(client.control_stats().emergencies_sent, ref->emergencies());

  // The script reached what it is for.
  const auto count = [&](const std::string& needle) {
    return std::count_if(ref_log.begin(), ref_log.end(), [&](const Line& l) {
      return l.text.find(needle) != std::string::npos;
    });
  };
  EXPECT_GT(count("tier 1 emergency"), 0);
  EXPECT_GT(count("tier 2 emergency"), 0);
  EXPECT_GT(count("lost its stream"), 0);
  EXPECT_GT(count("resyncing at frame"), 0);
  EXPECT_GT(client.counters().overflow_discards, 0u);
  EXPECT_GT(client.counters().starvation_ticks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClientDeadline, ::testing::Range(1u, 9u));

TEST(ClientDeadlineEvents, PlayingClientRunsNoEventBetweenArrivals) {
  // Fed one frame per display period, a playing client's display costs no
  // scheduler event: each arrival runs the ticks due before it. The one
  // event the client owns is its deadline timer, which fires only when a
  // check could act before the next arrival, a few times a second.
  ClientRig rig(3);
  sim::Scheduler& sched = rig.sched();
  VodClient& client = rig.client();
  client.watch(ClientRig::kMovie);
  EXPECT_TRUE(client.prefill_watchdog_running());
  std::uint64_t next = 0;
  sim::OneShotTimer feed(sched);
  sim::Duration gap = sim::msec(20);  // fill first
  std::function<void()> send = [&] {
    rig.send(next++);
    feed.arm(gap, send);
  };
  feed.arm(gap, send);
  sched.run_for(sim::sec(4.0));
  ASSERT_TRUE(client.playing());
  EXPECT_FALSE(client.prefill_watchdog_running());

  gap = 1'000'000 / 30;  // one frame per display period
  sched.run_for(sim::sec(2.0));
  const ClientControlStats before = client.control_stats();
  const std::uint64_t shown = client.counters().displayed;
  sched.run_for(sim::sec(20.0));
  const std::uint64_t wakeups =
      client.control_stats().deadline_wakeups - before.deadline_wakeups;
  EXPECT_NEAR(static_cast<double>(client.counters().displayed - shown), 600.0,
              2.0);
  EXPECT_EQ(client.counters().starvation_ticks, 0u);
  EXPECT_EQ(client.control_stats().open_retries, before.open_retries);
  // ~600 display ticks ran; at most 3 deadline firings a second did.
  EXPECT_GT(wakeups, 0u);
  EXPECT_LE(wakeups, 60u);
}

}  // namespace
}  // namespace ftvod::vod
