// Tunable parameters of the VoD service. Defaults are the prototype values
// reported in the paper (§4.2, §6): 37-frame software buffer, 240 KB
// hardware buffer (~1.2 s of 1.4 Mbps video), water marks at 73%/88% of the
// total buffer space, flow-control messages every 8 received frames (4 when
// urgent), two-tier emergency bursts (q=12 below 15% occupancy, q=6 below
// 30%) decaying by 0.8 per second, and state synchronization every 0.5 s.
#pragma once

#include <cstdint>

#include "net/address.hpp"
#include "sim/time.hpp"
#include "vod/redistribution.hpp"

namespace ftvod::vod {

struct VodParams {
  // --- client buffers -----------------------------------------------------
  std::size_t sw_buffer_frames = 37;
  std::size_t hw_buffer_bytes = 240 * 1024;
  /// Display begins once the hardware buffer first holds this many frames.
  int display_prefill_frames = 2;

  // --- flow control (Figure 2) --------------------------------------------
  double low_water_frac = 0.73;
  double high_water_frac = 0.88;
  /// Below this fraction: serious emergency (tier 2, base quantity q2).
  double emergency_tier2_frac = 0.30;
  /// Below this fraction: critical emergency (tier 1, base quantity q1).
  double emergency_tier1_frac = 0.15;
  int flow_normal_every = 8;  // received frames per flow message, in-band
  int flow_urgent_every = 4;  // received frames per flow message, out-of-band
  double rate_step_fps = 1.0;  // each request adjusts by one frame/second

  // --- emergency bursts (§4.1) --------------------------------------------
  int emergency_q1 = 12;  // extra frames/s, critical tier
  int emergency_q2 = 6;   // extra frames/s, serious tier
  double emergency_decay = 0.8;  // applied (integer-truncated) every period
  sim::Duration emergency_decay_period = sim::sec(1.0);
  /// Client re-sends an emergency at most this often while still starving.
  sim::Duration emergency_resend_interval = sim::sec(1.0);
  /// Client-side occupancy watchdog (emergencies must fire even when no
  /// frames arrive to trigger receive-path checks).
  sim::Duration watchdog_period = sim::msec(100);

  // --- server -----------------------------------------------------------
  sim::Duration sync_period = sim::msec(500);  // state multicast period
  double default_rate_fps = 30.0;              // startup transmission rate
  double min_rate_fps = 5.0;
  double max_rate_fps = 60.0;
  /// Remainder policy of the deterministic re-distribution. All servers of
  /// a movie group must agree on this, or their independently computed
  /// assignments diverge (the chaos invariant monitor checks exactly that).
  RebalancePolicy rebalance_policy = RebalancePolicy::kSpread;

  // --- transport ----------------------------------------------------------
  net::Port server_data_port = 9000;
  net::Port client_data_port = 9100;
  /// Base OpenRequest retry interval. Retries back off exponentially
  /// (doubling, plus uniform jitter of up to a quarter of the current
  /// delay) up to open_retry_cap, so a long server outage is not hammered
  /// by every waiting client in lockstep.
  sim::Duration open_retry = sim::sec(1.0);
  sim::Duration open_retry_cap = sim::sec(8.0);
  /// A connected client that receives nothing for this long (while not
  /// paused and not at the end of the movie) assumes its session was lost
  /// (e.g. it was partitioned away long enough to be declared failed) and
  /// re-requests the movie from the server group.
  sim::Duration reconnect_timeout = sim::sec(4.0);
};

/// Well-known group names (Figure 3's layout).
inline std::string server_group_name() { return "vod.servers"; }
inline std::string movie_group_name(const std::string& movie) {
  return "vod.movie." + movie;
}
// The session channel is keyed by (client, title), not client alone. With a
// per-client group, a stale session left behind by a title switch would see
// the client "present" in the group — it is there, but for its *new* title —
// and the only-we-are-left view cleanup could never reclaim it; the ghost
// would stream the old movie forever. Keyed by title too, the ghost lands in
// a group the client has genuinely left and dies on its first view.
inline std::string session_group_name(std::uint64_t client_id,
                                      const std::string& movie) {
  return "vod.session." + std::to_string(client_id) + "." + movie;
}

}  // namespace ftvod::vod
