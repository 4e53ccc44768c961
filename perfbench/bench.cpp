// Repository benchmark program: one seeded workload of the fault-tolerant VoD
// service, run against the unchanged library and measured from outside.
//
//   ftvod_perfbench --workload steady_lan|churn_control|failover
//                   --seed N --seconds S [--trace 0|1] [--scale full|mini]
//                   [--setups R] [--spans FILE] [--inject violation]
//
// The seed drives everything the program receives: the Deployment seed, the
// catalog, every watch/stop call (scheduled up front: Poisson arrivals,
// shifted-exponential holds, Zipf titles from GeneratedCatalog::sample_rank)
// and the crash schedule. Viewers are independent, so arrivals are an open
// loop in simulated time and a startup is timed from the watch call's due
// time.
//
// The benchmark's own callbacks (invariant checks, placement ticks, metric
// polling, GCS probes) run from events it schedules itself; each is timed and
// its wall time and allocations are subtracted from the program's, so a
// faster harness never reads as a faster program. The measured window runs as
// fixed simulated-time run_until() slices in every run; a traced run (--trace
// 1) only additionally records spans, so its simulated-time results equal
// the untraced run's exactly.
//
// Output: one JSON object on the last line of stdout with every end-to-end
// and per-layer metric (run.py selects and checks them).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "mpeg/catalog_gen.hpp"
#include "sim/scheduler.hpp"
#include "testing/invariants.hpp"
#include "util/crc32c.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "vod/placement.hpp"
#include "vod/service.hpp"

// Process-wide allocation counter (this translation unit replaces the global
// operator new). Compiled out under ASan, which owns the allocator there.
#if defined(__SANITIZE_ADDRESS__)
#define FTVOD_COUNTING_ALLOC 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTVOD_COUNTING_ALLOC 0
#endif
#endif
#ifndef FTVOD_COUNTING_ALLOC
#define FTVOD_COUNTING_ALLOC 1
#endif

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

#if FTVOD_COUNTING_ALLOC
void* operator new(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  ++g_alloc_count;
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // FTVOD_COUNTING_ALLOC

namespace {

using namespace ftvod;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

std::uint64_t splitmix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Linear-interpolated percentile (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- workloads

struct Spec {
  int servers = 8;
  int gateways = 5;
  int clients = 2000;
  int churn_clients = 0;  // tail of the pool that churns; the rest stay on
  std::size_t titles = 200;
  std::size_t viewers_per_replica = 250;
  double hold_min_s = 3.0;   // churn hold = min + exponential(mean - min)
  double hold_mean_s = 30.0;
  double churn_load = 0.7;   // mean share of the churn pool watching
  double converge_s = 2.0;   // GCS convergence before the first placement
  double ramp_s = 4.0;       // steady watches staggered across this
  double settle_s = 3.0;     // after the ramp, before the window opens
  /// The steady pool's ramp runs inside the window instead of before it
  /// (set-up then ends after convergence plus settle_s).
  bool flash_crowd = false;
  /// Simulated time from the end of convergence to the window opening.
  [[nodiscard]] double warmup_s() const {
    return flash_crowd ? settle_s : ramp_s + settle_s;
  }
  double window_s = 10.0;    // measured window, simulated seconds
  double slice_s = 0.1;      // window slice length, simulated seconds
  double probe_hz = 20.0;
  double crash_every_s = 0.0;  // 0: no crashes
  double restart_after_s = 2.0;
  double crash_tail_s = 5.0;   // no crash this close to the window end
};

/// Simulated seconds of window per requested wall second, per workload.
/// Sized so one window takes about the requested time on a 4-core Xeon
/// container; the window is fixed in simulated time for a given request, so
/// every simulated-time result is exact for a given seed.
double window_rate(const std::string& workload) {
  if (workload == "steady_lan") return 3.6;
  if (workload == "churn_control") return 0.8;
  return 0.7;  // failover
}

bool make_spec(const std::string& workload, const std::string& scale,
               double seconds, Spec& s) {
  const bool mini = scale == "mini";
  if (workload == "steady_lan") {
    s.clients = 2000;
    s.gateways = 5;
    s.churn_clients = 200;
    s.hold_mean_s = 30.0;
  } else if (workload == "churn_control") {
    s.clients = 4000;
    s.gateways = 20;
    s.churn_clients = 2000;
    s.hold_mean_s = 10.0;
    s.flash_crowd = true;
    s.settle_s = 1.0;
  } else if (workload == "failover") {
    s.clients = 1000;
    s.gateways = 4;
    s.crash_every_s = 4.0;
  } else {
    return false;
  }
  s.window_s = seconds * window_rate(workload);
  if (mini) {
    // Seconds-long miniature of the same shape (benchmark self-tests).
    s.servers = 4;
    s.gateways = workload == "churn_control" ? 4 : 2;
    s.clients = workload == "churn_control" ? 80 : 40;
    s.churn_clients = s.churn_clients > 0 ? s.clients / 2 : 0;
    s.titles = 24;
    s.viewers_per_replica = 10;
    s.converge_s = 1.0;
    s.ramp_s = 1.0;
    s.settle_s = 1.0;
    s.window_s = workload == "failover" ? 8.0 : 3.0;
    s.crash_every_s = workload == "failover" ? 3.0 : 0.0;
    s.restart_after_s = 1.5;
    s.crash_tail_s = 4.0;
  }
  return true;
}

// ------------------------------------------------------------ counters

// Monotone per-layer counters summed over the whole deployment. Stats of a
// restarted server incarnation and the buffer counters of ended sessions are
// folded into retired totals, so a window delta is always end - start.
enum Counter : int {
  kFrames, kSyncs, kOpened, kTakeovers, kMigrations, kRebalances,
  kOrdered, kDelivered, kRetrans, kViewChanges, kGcsMalformed,
  kDatagrams, kWireBytes, kDropQueue, kDropLoss, kDropUnreachable, kCorrupt,
  kFlowMsgs, kEmergencies, kOpenRetries,
  kReceived, kLate, kOverflow, kSkipped, kDisplayed, kStarvation,
  kCounterCount
};
constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "vod.frames", "vod.syncs", "vod.sessions_opened", "vod.takeovers",
    "vod.migrations_out", "vod.rebalances",
    "gcs.ordered", "gcs.delivered", "gcs.retrans", "gcs.view_changes",
    "gcs.malformed_dropped",
    "net.datagrams", "net.wire_bytes", "net.drop_queue", "net.drop_loss",
    "net.drop_unreachable", "net.corrupt_dropped",
    "client.flow_msgs", "client.emergencies", "client.open_retries",
    "client.received", "client.late", "client.overflow_discards",
    "client.skipped", "client.displayed", "client.starvation_ticks"};
using Counts = std::array<std::uint64_t, kCounterCount>;

Counts minus(const Counts& a, const Counts& b) {
  Counts d{};
  for (int i = 0; i < kCounterCount; ++i) d[i] = a[i] - b[i];
  return d;
}

void add_server(Counts& c, const vod::Deployment::ServerNode& sn) {
  if (sn.server) {
    const vod::ServerStats& s = sn.server->stats();
    c[kFrames] += s.frames_sent;
    c[kSyncs] += s.syncs_sent;
    c[kOpened] += s.sessions_opened;
    c[kTakeovers] += s.takeovers;
    c[kMigrations] += s.migrations_out;
    c[kRebalances] += s.rebalances;
    c[kCorrupt] += sn.server->data_socket_stats().corrupt_dropped;
  }
  if (sn.daemon) {
    const gcs::DaemonStats& d = sn.daemon->stats();
    c[kOrdered] += d.messages_ordered;
    c[kDelivered] += d.messages_delivered;
    c[kRetrans] += d.retransmissions;
    c[kViewChanges] += d.view_changes;
    c[kGcsMalformed] += d.malformed_dropped;
    c[kCorrupt] += sn.daemon->socket_stats().corrupt_dropped;
  }
}

void add_buffers(Counts& c, const vod::BufferCounters& b) {
  c[kReceived] += b.received;
  c[kLate] += b.late;
  c[kOverflow] += b.overflow_discards;
  c[kSkipped] += b.skipped;
  c[kDisplayed] += b.displayed;
  c[kStarvation] += b.starvation_ticks;
}

// --------------------------------------------------------------- tracing

/// Spans kept in memory and written when the run ends. Inert when off.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  int open(std::string name, int parent, double sim_s) {
    if (!on_) return -1;
    spans_.push_back(Span{std::move(name), parent, wall_ns(), -1, sim_s, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = wall_ns();
  }
  void add(const char* name, int parent, std::int64_t t0, std::int64_t t1,
           double sim_s) {
    if (on_) spans_.push_back(Span{name, parent, t0, t1, sim_s, {}});
  }
  void attr(int id, std::string key, double value) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].attrs.emplace_back(std::move(key),
                                                              value);
    }
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes every span with its duration and self time (duration minus the
  /// time its direct children cover).
  bool write(const std::string& path) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::ofstream f(path, std::ios::trunc);
    if (!f) return false;
    f << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      f << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_us\":" << s.start_ns / 1000
        << ",\"dur_us\":" << dur / 1000
        << ",\"self_us\":" << (dur - child_ns[i]) / 1000
        << ",\"sim_s\":" << s.sim_s;
      if (!s.attrs.empty()) {
        f << ",\"attrs\":{";
        for (std::size_t k = 0; k < s.attrs.size(); ++k) {
          f << (k ? "," : "") << '"' << s.attrs[k].first
            << "\":" << s.attrs[k].second;
        }
        f << '}';
      }
      f << (i + 1 < spans_.size() ? "},\n" : "}\n");
    }
    f << "]\n";
    return static_cast<bool>(f);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    double sim_s;
    std::vector<std::pair<std::string, double>> attrs;
  };
  bool on_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ the bench

/// One instance of a workload: a deployment set up from the seed, and the
/// harness state that measures it.
class Bench {
 public:
  Bench(const Spec& spec, std::uint64_t seed, Tracer& tracer, bool inject)
      : spec_(spec), seed_(seed), tracer_(tracer), inject_(inject) {}
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Builds and warms the deployment up to the window; returns the setup
  /// wall time in seconds, harness time excluded.
  double setup(int root);
  /// Runs the measured window in fixed simulated-time slices.
  void run_window(int root);
  /// Appends every metric to `out` as JSON members.
  void emit_metrics(std::ostringstream& out, double setup_s) const;

  [[nodiscard]] std::vector<std::string> gate_failures() const;
  [[nodiscard]] std::uint64_t attempted() const {
    return startup_ms_.size() + takeover_ms_.size() + failed_;
  }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::string violation_report() const {
    return monitor_ ? monitor_->report() : std::string();
  }

 private:
  struct Pending {
    std::size_t client;
    sim::Time due;
    std::uint64_t base;  // takeover: frames received before the crash
    bool takeover;
  };
  struct ProbeMember {
    std::unique_ptr<gcs::GroupMember> member;
    std::uint64_t next_expected = 0;
  };

  sim::Scheduler& sched() { return dep_->scheduler(); }
  double sim_now() { return sim::to_sec(dep_->scheduler().now()); }
  vod::VodClient& client(std::size_t i) { return *dep_->clients()[i]->client; }

  /// Runs f as a timed callback. `pure` harness work is subtracted from the
  /// program's time and allocations; program calls the benchmark makes
  /// (watch, stop, crash, restart) are not. A named callback becomes a
  /// span under the open setup phase or window slice.
  template <typename F>
  std::int64_t callback(const char* name, bool pure, F&& f) {
    const std::uint64_t a0 = g_alloc_count;
    const std::int64_t t0 = wall_ns();
    f();
    const std::int64_t t1 = wall_ns();
    const std::uint64_t a1 = g_alloc_count;
    if (pure) {
      harness_ns_ += t1 - t0;
      harness_allocs_ += a1 - a0;
    }
    if (name != nullptr) tracer_.add(name, parent_, t0, t1, sim_now());
    harness_allocs_ += g_alloc_count - a1;  // span storage
    return t1 - t0;
  }

  Counts read_counts() const;
  void note_depths();
  void retire_session(std::size_t i);
  void ensure_poll();
  void poll();
  void check_event();
  void tick_event();
  void probe_event();
  void on_probe(ProbeMember& pm, std::span<const std::byte> d);
  void watch_event(std::size_t i, std::size_t rank);
  void stop_event(std::size_t i);
  void crash_event(std::size_t k);
  void restart_event(net::NodeId node);
  void schedule_inputs();
  std::size_t slot_of(net::NodeId node) const;
  bool probes_done() const {
    return std::all_of(probes_.begin(), probes_.end(), [&](const ProbeMember& pm) {
      return pm.next_expected == probes_sent_;
    });
  }
  /// The GCS coordinator as seen by a gateway daemon (gateways never crash).
  net::NodeId coordinator() const { return gateway_daemon_->view().id.coord; }

  Spec spec_;
  std::uint64_t seed_;
  Tracer& tracer_;
  bool inject_;
  int parent_ = -1;

  std::unique_ptr<vod::Deployment> dep_;
  std::unique_ptr<mpeg::GeneratedCatalog> catalog_;
  std::unique_ptr<vod::PlacementController> controller_;
  std::unique_ptr<testing::InvariantMonitor> monitor_;
  std::vector<ProbeMember> probes_;
  net::NodeId probe_server_ = net::kInvalidNode;
  gcs::Daemon* gateway_daemon_ = nullptr;
  std::vector<std::size_t> crash_picks_;  // seed-drawn server slots

  // Folded counters (see Counter).
  std::vector<Counts> retired_servers_;
  Counts retired_buffers_{};

  // Harness accounting.
  std::int64_t harness_ns_ = 0;
  std::uint64_t harness_allocs_ = 0;
  std::uint64_t bench_events_ = 0;
  bool poll_armed_ = false;
  std::vector<Pending> pending_;
  std::vector<double> startup_ms_;
  std::vector<double> takeover_ms_;
  std::uint64_t failed_ = 0;
  std::vector<double> watch_us_, stop_us_, tick_us_, check_us_, restart_us_;
  double catalog_ms_ = 0.0;
  std::uint64_t probes_sent_ = 0;
  std::vector<double> probe_ms_;
  std::uint64_t probe_order_errors_ = 0;
  std::uint64_t arrivals_dropped_ = 0;
  bool in_window_ = false;
  bool window_closed_ = false;  // also stops new inputs and probes
  std::uint64_t checks_in_window_ = 0;

  // Window results.
  sim::Time window_open_ = 0;
  std::size_t pending_peak_ = 0, heap_peak_ = 0, wheel_peak_ = 0;
  std::int64_t program_ns_ = 0;
  std::int64_t window_harness_ns_ = 0;
  std::uint64_t program_allocs_ = 0;
  std::uint64_t program_events_ = 0;
  std::uint64_t coord_drop_queue_ = 0;
  Counts window_{};
  double top_host_share_ = 0.0;
  std::uint64_t sessions_in_window_ = 0;
  vod::PlacementStats placement_{};
  std::vector<double> slice_ms_;
};

std::size_t Bench::slot_of(net::NodeId node) const {
  for (std::size_t i = 0; i < dep_->servers().size(); ++i) {
    if (dep_->servers()[i]->node == node) return i;
  }
  return dep_->servers().size();
}

Counts Bench::read_counts() const {
  Counts c{};
  for (std::size_t i = 0; i < dep_->servers().size(); ++i) {
    add_server(c, *dep_->servers()[i]);
    for (int k = 0; k < kCounterCount; ++k) c[k] += retired_servers_[i][k];
  }
  for (const auto& gw : dep_->gateways()) {
    const gcs::DaemonStats& d = gw->daemon->stats();
    c[kOrdered] += d.messages_ordered;
    c[kDelivered] += d.messages_delivered;
    c[kRetrans] += d.retransmissions;
    c[kViewChanges] += d.view_changes;
    c[kGcsMalformed] += d.malformed_dropped;
    c[kCorrupt] += gw->daemon->socket_stats().corrupt_dropped;
  }
  for (const auto& cn : dep_->clients()) {
    const vod::VodClient& cl = *cn->client;
    const vod::ClientControlStats& s = cl.control_stats();
    c[kFlowMsgs] += s.increases_sent + s.decreases_sent;
    c[kEmergencies] += s.emergencies_sent;
    c[kOpenRetries] += s.open_retries;
    c[kCorrupt] += cl.data_socket_stats().corrupt_dropped;
    add_buffers(c, cl.counters());
  }
  for (int k = kReceived; k <= kStarvation; ++k) c[k] += retired_buffers_[k];
  const net::Network& net = dep_->network();
  for (net::NodeId n = 0; n < net.host_count(); ++n) {
    const net::HostStats& h = net.stats(n);
    c[kDatagrams] += h.datagrams_sent;
    c[kDropQueue] += h.dropped_queue;
    c[kDropLoss] += h.dropped_loss;
    c[kDropUnreachable] += h.dropped_unreachable;
  }
  c[kWireBytes] = net.total_wire_bytes();
  return c;
}

void Bench::note_depths() {
  if (!in_window_) return;
  const sim::Scheduler& s = dep_->scheduler();
  pending_peak_ = std::max(pending_peak_, s.pending_events());
  heap_peak_ = std::max(heap_peak_, s.heap_size());
  wheel_peak_ = std::max(wheel_peak_, s.wheel_staged());
}

void Bench::retire_session(std::size_t i) {
  Counts c{};
  add_buffers(c, client(i).counters());
  for (int k = kReceived; k <= kStarvation; ++k) retired_buffers_[k] += c[k];
}

void Bench::ensure_poll() {
  if (poll_armed_) return;
  poll_armed_ = true;
  sched().after(sim::usec(100), [this] {
    ++bench_events_;
    callback("bench.poll", true, [this] { poll(); });
  });
}

// Resolves pending startups (first displayed frame) and takeovers (first
// frame received after the crash) at 0.1 ms simulated resolution.
void Bench::poll() {
  poll_armed_ = false;
  note_depths();
  const sim::Time now = sched().now();
  const sim::Duration bound = sim::sec(10.0);  // the stall bound
  for (std::size_t k = 0; k < pending_.size();) {
    const Pending& p = pending_[k];
    const vod::BufferCounters& bc = client(p.client).counters();
    const bool done = p.takeover ? bc.received > p.base : bc.displayed > 0;
    if (done || now - p.due >= bound) {
      if (!done) {
        ++failed_;
      } else {
        (p.takeover ? takeover_ms_ : startup_ms_)
            .push_back(sim::to_msec(now - p.due));
      }
      pending_[k] = pending_.back();
      pending_.pop_back();
    } else {
      ++k;
    }
  }
  if (!pending_.empty()) ensure_poll();
}

void Bench::check_event() {
  ++bench_events_;
  note_depths();
  if (in_window_) ++checks_in_window_;
  check_us_.push_back(
      static_cast<double>(
          callback("testing.check_now", true, [this] { monitor_->check_now(); })) /
      1e3);
  sched().after(sim::msec(100), [this] { check_event(); });
}

void Bench::tick_event() {
  ++bench_events_;
  note_depths();
  tick_us_.push_back(
      static_cast<double>(callback("placement.tick_now", true,
                                   [this] { controller_->tick_now(); })) /
      1e3);
  sched().after(sim::sec(1.0), [this] { tick_event(); });
}

void Bench::probe_event() {
  ++bench_events_;
  if (window_closed_) return;
  callback("gcs.probe", true, [this] {
    util::Bytes payload(16);
    const std::uint64_t seq = probes_sent_++;
    const sim::Time t = sched().now();
    std::memcpy(payload.data(), &seq, 8);
    std::memcpy(payload.data() + 8, &t, 8);
    probes_.front().member->send(std::move(payload));
  });
  sched().after(static_cast<sim::Duration>(1e6 / spec_.probe_hz),
                [this] { probe_event(); });
}

void Bench::on_probe(ProbeMember& pm, std::span<const std::byte> d) {
  callback(nullptr, true, [&] {
    std::uint64_t seq = 0;
    sim::Time t = 0;
    if (d.size() != 16) {
      ++probe_order_errors_;
      return;
    }
    std::memcpy(&seq, d.data(), 8);
    std::memcpy(&t, d.data() + 8, 8);
    if (seq != pm.next_expected) ++probe_order_errors_;
    pm.next_expected = seq + 1;
    probe_ms_.push_back(sim::to_msec(sched().now() - t));
  });
}

void Bench::watch_event(std::size_t i, std::size_t rank) {
  ++bench_events_;
  callback(nullptr, true, [&] {
    retire_session(i);
    if (in_window_) ++sessions_in_window_;
  });
  const std::string& title = catalog_->entry(rank).movie->name();
  watch_us_.push_back(
      static_cast<double>(
          callback("client.watch", false, [&] { client(i).watch(title); })) /
      1e3);
  callback(nullptr, true, [&] {
    pending_.push_back(Pending{i, sched().now(), 0, false});
    ensure_poll();
  });
}

void Bench::stop_event(std::size_t i) {
  ++bench_events_;
  callback(nullptr, true, [&] {
    retire_session(i);
    // A session stopped before its first frame counts as a failed start.
    for (std::size_t k = 0; k < pending_.size(); ++k) {
      if (pending_[k].client == i && !pending_[k].takeover) {
        ++failed_;
        pending_[k] = pending_.back();
        pending_.pop_back();
        break;
      }
    }
  });
  stop_us_.push_back(
      static_cast<double>(callback("client.stop", false, [&] { client(i).stop(); })) /
      1e3);
}

// Crash k: even crashes take the current GCS coordinator, odd ones a server
// drawn from the seed (never the probe host, never the coordinator).
void Bench::crash_event(std::size_t k) {
  ++bench_events_;
  net::NodeId node = net::kInvalidNode;
  callback(nullptr, true, [&] {
    const net::NodeId coord = coordinator();
    const std::size_t coord_slot = slot_of(coord);
    if (k % 2 == 0 && coord_slot < dep_->servers().size() &&
        coord != probe_server_) {
      node = coord;
    } else {
      std::size_t slot = crash_picks_[k];
      while (dep_->servers()[slot]->node == probe_server_ ||
             dep_->servers()[slot]->node == coord) {
        slot = (slot + 1) % dep_->servers().size();
      }
      node = dep_->servers()[slot]->node;
    }
    const vod::VodServer* server = dep_->servers()[slot_of(node)]->server.get();
    for (std::size_t i = 0; i < dep_->clients().size(); ++i) {
      if (server != nullptr && server->serves(client(i).client_id())) {
        pending_.push_back(
            Pending{i, sched().now(), client(i).counters().received, true});
      }
    }
    ensure_poll();
  });
  callback("net.crash_host", false, [&] { dep_->crash(node); });
  sched().after(sim::sec(spec_.restart_after_s),
                [this, node] { restart_event(node); });
}

void Bench::restart_event(net::NodeId node) {
  ++bench_events_;
  const std::size_t slot = slot_of(node);
  callback(nullptr, true,
           [&] { add_server(retired_servers_[slot], *dep_->servers()[slot]); });
  callback("vod.restart_server", false, [&] { dep_->restart_server(node); });
  restart_us_.push_back(
      static_cast<double>(callback("placement.handle_restart", false, [&] {
        controller_->handle_restart(node);
      })) /
      1e3);
}

// Every input the program will receive, scheduled up front from the seed.
void Bench::schedule_inputs() {
  util::Rng rng(splitmix(seed_, 2));
  const sim::Time start = sched().now();
  const std::size_t n = dep_->clients().size();
  const std::size_t steady = n - static_cast<std::size_t>(spec_.churn_clients);
  const sim::Time ramp_start =
      start + (spec_.flash_crowd ? sim::sec(spec_.settle_s) : 0);

  // The steady pool watches for the whole run, staggered across the ramp.
  const auto step = static_cast<sim::Duration>(
      sim::sec(spec_.ramp_s) / static_cast<double>(std::max<std::size_t>(steady, 1)));
  for (std::size_t i = 0; i < steady; ++i) {
    const std::size_t rank = catalog_->sample_rank(rng.uniform());
    sched().at(ramp_start + static_cast<sim::Duration>(i) * step,
               [this, i, rank] { watch_event(i, rank); });
  }

  // The churn pool: Poisson arrivals, each taking the longest-idle client,
  // holding for min + exponential(mean - min), with a Zipf title.
  const sim::Time end = start + sim::sec(spec_.warmup_s() + spec_.window_s);
  if (spec_.churn_clients > 0) {
    using Free = std::pair<sim::Time, std::size_t>;  // (free at, client)
    std::priority_queue<Free, std::vector<Free>, std::greater<>> idle;
    for (std::size_t i = steady; i < n; ++i) idle.emplace(start, i);
    const double rate =
        spec_.churn_load * spec_.churn_clients / spec_.hold_mean_s;
    double t = sim::to_sec(start);
    while (true) {
      t += rng.exponential(1.0 / rate);
      const sim::Time at = sim::sec(t);
      if (at >= end) break;
      const std::size_t rank = catalog_->sample_rank(rng.uniform());
      const double hold =
          spec_.hold_min_s + rng.exponential(spec_.hold_mean_s - spec_.hold_min_s);
      if (idle.top().first > at) {
        ++arrivals_dropped_;  // pool exhausted: no idle viewer
        continue;
      }
      const std::size_t i = idle.top().second;
      idle.pop();
      const sim::Time stop_at = at + sim::sec(hold);
      sched().at(at, [this, i, rank] { watch_event(i, rank); });
      sched().at(stop_at, [this, i] { stop_event(i); });
      idle.emplace(stop_at + sim::msec(500), i);
    }
  }

  // Crashes inside the window, each followed by a restart.
  if (spec_.crash_every_s > 0.0) {
    const sim::Time open = start + sim::sec(spec_.warmup_s());
    std::size_t k = 0;
    for (sim::Time at = open + sim::sec(1.0);
         at + sim::sec(spec_.crash_tail_s) <= end;
         at += sim::sec(spec_.crash_every_s), ++k) {
      crash_picks_.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(spec_.servers) - 1)));
      sched().at(at, [this, k] { crash_event(k); });
    }
  }
}

double Bench::setup(int root) {
  const std::int64_t t0 = wall_ns();
  const int setup_span = tracer_.open("setup", root, 0.0);

  parent_ = tracer_.open("net.hosts", setup_span, 0.0);
  dep_ = std::make_unique<vod::Deployment>(splitmix(seed_, 1));
  // Core hosts get datacenter provisioning (10 GbE, deep queues), as in the
  // city-scale scenario: the default 100 Mbps NIC would starve the control
  // plane behind the video of ~250 streams per server.
  net::HostConfig core;
  core.uplink_bps = 10e9;
  core.downlink_bps = 10e9;
  core.queue_limit_bytes = 8u << 20;
  core.downlink_queue_bytes = 8u << 20;
  std::vector<net::NodeId> servers, gateways, edges;
  for (int i = 0; i < spec_.servers; ++i) {
    servers.push_back(dep_->add_host("server" + std::to_string(i), core));
  }
  for (int i = 0; i < spec_.gateways; ++i) {
    gateways.push_back(dep_->add_host("gw" + std::to_string(i), core));
  }
  for (int i = 0; i < spec_.clients; ++i) {
    edges.push_back(dep_->add_edge_host("edge" + std::to_string(i)));
  }
  tracer_.close(parent_);

  parent_ = tracer_.open("vod.start", setup_span, 0.0);
  for (net::NodeId s : servers) dep_->start_server(s);
  for (net::NodeId g : gateways) dep_->start_gateway(g);
  for (int i = 0; i < spec_.clients; ++i) {
    dep_->start_client(edges[static_cast<std::size_t>(i)],
                       *dep_->gateways()[static_cast<std::size_t>(i) %
                                         dep_->gateways().size()]);
  }
  retired_servers_.assign(dep_->servers().size(), Counts{});
  tracer_.close(parent_);

  parent_ = tracer_.open("mpeg.catalog", setup_span, 0.0);
  const std::int64_t c0 = wall_ns();
  mpeg::CatalogSpec cspec;
  cspec.titles = spec_.titles;
  cspec.min_duration_s = 600.0;  // nobody reaches the credits mid-run
  cspec.max_duration_s = 900.0;
  catalog_ = std::make_unique<mpeg::GeneratedCatalog>(
      mpeg::GeneratedCatalog::generate(splitmix(seed_, 3), cspec));
  catalog_ms_ = static_cast<double>(wall_ns() - c0) / 1e6;
  vod::PlacementConfig pcfg;
  pcfg.replication_floor = 2;
  pcfg.viewers_per_replica = spec_.viewers_per_replica;
  controller_ = std::make_unique<vod::PlacementController>(*dep_, pcfg);
  for (const auto& e : catalog_->entries()) controller_->manage(e.movie);
  tracer_.close(parent_);

  parent_ = tracer_.open("sim.run_for", setup_span, sim_now());
  tracer_.attr(parent_, "converge_s", spec_.converge_s);
  dep_->run_for(sim::sec(spec_.converge_s));
  tracer_.close(parent_);

  parent_ = tracer_.open("ramp", setup_span, sim_now());
  tick_us_.push_back(static_cast<double>(callback(
                         "placement.tick_now", true,
                         [this] { controller_->tick_now(); })) /
                     1e3);
  testing::InvariantOptions iopts;
  iopts.replication_floor = pcfg.replication_floor;
  // Injected fault for the gate's self-test: a 1 ms stall bound that any
  // 30 fps display violates between two frames.
  if (inject_) iopts.stall_bound = sim::msec(1);
  monitor_ = std::make_unique<testing::InvariantMonitor>(*dep_, iopts);
  sched().after(sim::msec(100), [this] { check_event(); });
  sched().after(sim::sec(1.0), [this] { tick_event(); });

  // The probe group: one member on a gateway daemon (the sender), one on
  // the highest server's daemon, which the crash schedule never takes.
  probe_server_ = servers.back();
  probes_.resize(2);
  gateway_daemon_ = dep_->gateways().front()->daemon.get();
  gcs::Daemon* probe_daemons[2] = {gateway_daemon_,
                                   dep_->servers().back()->daemon.get()};
  for (std::size_t m = 0; m < 2; ++m) {
    ProbeMember* pm = &probes_[m];
    pm->member = probe_daemons[m]->join(
        "perfbench.probe",
        gcs::GroupCallbacks{[this, pm](const gcs::GcsEndpoint&,
                                       std::span<const std::byte> d) {
                              on_probe(*pm, d);
                            },
                            [](const gcs::GroupView&) {}});
  }
  schedule_inputs();
  sched().at(sched().now() + sim::sec(spec_.warmup_s()),
             [this] { probe_event(); });
  dep_->run_for(sim::sec(spec_.warmup_s()));
  tracer_.close(parent_);
  parent_ = -1;
  tracer_.close(setup_span);
  return static_cast<double>(wall_ns() - t0 - harness_ns_) / 1e9;
}

void Bench::run_window(int root) {
  const int window_span = tracer_.open("window", root, sim_now());
  in_window_ = true;
  window_open_ = sched().now();
  for (const auto& cn : dep_->clients()) {
    if (cn->client->watching()) ++sessions_in_window_;
  }
  const net::Network& net = dep_->network();
  std::vector<std::uint64_t> sent0(net.host_count());
  for (net::NodeId n = 0; n < net.host_count(); ++n) {
    sent0[n] = net.stats(n).datagrams_sent;
  }
  const Counts c0 = read_counts();
  const vod::PlacementStats p0 = controller_->stats();
  const std::uint64_t events0 = sched().executed_events();
  const std::uint64_t bench_events0 = bench_events_;
  const std::int64_t harness0 = harness_ns_;

  const auto slices =
      static_cast<std::size_t>(std::llround(spec_.window_s / spec_.slice_s));
  for (std::size_t k = 0; k < slices; ++k) {
    const net::NodeId coord = coordinator();
    const std::uint64_t q0 = net.stats(coord).dropped_queue;
    Counts before{};
    if (tracer_.on()) before = read_counts();
    const std::uint64_t e0 = sched().executed_events();
    const std::uint64_t b0 = bench_events_;
    parent_ = tracer_.open("sim.run_for", window_span, sim_now());
    const std::uint64_t a0 = g_alloc_count;
    const std::uint64_t ha0 = harness_allocs_;
    const std::int64_t h0 = harness_ns_;
    const std::int64_t t0 = wall_ns();
    dep_->run_until(window_open_ +
                    static_cast<sim::Time>(std::llround(
                        sim::sec(spec_.slice_s) * static_cast<double>(k + 1))));
    const std::int64_t wall = wall_ns() - t0;
    const std::int64_t self = wall - (harness_ns_ - h0);
    program_ns_ += self;
    program_allocs_ += (g_alloc_count - a0) - (harness_allocs_ - ha0);
    tracer_.close(parent_);
    slice_ms_.push_back(static_cast<double>(self) / 1e6);
    coord_drop_queue_ += net.stats(coord).dropped_queue - q0;
    note_depths();
    if (tracer_.on()) {
      const Counts d = minus(read_counts(), before);
      tracer_.attr(parent_, "sim.events",
                   static_cast<double>((sched().executed_events() - e0) -
                                       (bench_events_ - b0)));
      tracer_.attr(parent_, "sim.self_ms", static_cast<double>(self) / 1e6);
      tracer_.attr(parent_, "net.coord_drop_queue",
                   static_cast<double>(net.stats(coord).dropped_queue - q0));
      for (int i = 0; i < kCounterCount; ++i) {
        if (d[i] != 0) tracer_.attr(parent_, kCounterNames[i], static_cast<double>(d[i]));
      }
    }
  }
  parent_ = -1;
  in_window_ = false;
  window_closed_ = true;
  program_events_ =
      (sched().executed_events() - events0) - (bench_events_ - bench_events0);
  window_harness_ns_ = harness_ns_ - harness0;
  window_ = minus(read_counts(), c0);
  const vod::PlacementStats& p1 = controller_->stats();
  placement_.adds = p1.adds - p0.adds;
  placement_.drops = p1.drops - p0.drops;
  placement_.reregistrations = p1.reregistrations - p0.reregistrations;
  std::uint64_t top = 0;
  for (net::NodeId n = 0; n < net.host_count(); ++n) {
    top = std::max(top, net.stats(n).datagrams_sent - sent0[n]);
  }
  top_host_share_ = ratio(static_cast<double>(top),
                          static_cast<double>(window_[kDatagrams]));
  tracer_.close(window_span);

  // Drain: no new inputs or probes start after the window; run on until
  // every started session, takeover and probe has resolved, at most one
  // stall bound. Nothing here is timed.
  const int drain_span = tracer_.open("drain", root, sim_now());
  parent_ = drain_span;
  const sim::Time drain_end = sched().now() + sim::sec(10.5);
  while (sched().now() < drain_end && (!pending_.empty() || !probes_done())) {
    dep_->run_for(sim::msec(100));
  }
  parent_ = -1;
  tracer_.close(drain_span);
}

std::vector<std::string> Bench::gate_failures() const {
  std::vector<std::string> out;
  if (monitor_->total_violations() > 0) out.push_back("testing.violations");
  if (probe_order_errors_ > 0) out.push_back("gcs.probe_order");
  // Every probe must reach both members before the drain ends.
  if (!probes_done()) out.push_back("gcs.probe_lost");
  return out;
}

// ------------------------------------------------------------------ output

class Metrics {
 public:
  explicit Metrics(std::ostringstream& os) : os_(os) {}
  /// `exact`: a simulated-time value or count that a traced and an
  /// untraced run of one seed must reproduce bit for bit.
  void add(const std::string& name, double value, const char* unit,
           bool exact) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os_ << (first_ ? "" : ",") << "\"" << name << "\":{\"value\":" << buf
        << ",\"unit\":\"" << unit << "\",\"exact\":"
        << (exact ? "true" : "false") << "}";
    first_ = false;
  }

 private:
  std::ostringstream& os_;
  bool first_ = true;
};

double crc32c_gib_per_s(std::size_t size, std::uint64_t seed) {
  size = std::max<std::size_t>(size, 16);
  util::Rng rng(seed);
  std::vector<std::byte> buf(size);
  for (auto& b : buf) b = static_cast<std::byte>(rng.uniform_int(0, 255));
  const std::size_t per_rep = (std::size_t{32} << 20) / size + 1;
  std::vector<double> rates;
  std::uint32_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < per_rep; ++i) sink = util::crc32c(buf, sink);
    const double s = static_cast<double>(wall_ns() - t0) / 1e9;
    rates.push_back(static_cast<double>(per_rep * size) / s /
                    (1024.0 * 1024.0 * 1024.0));
  }
  if (sink == 0x12345678u) std::fputs("", stderr);  // keep the loop alive
  return percentile(rates, 0.5);
}

void Bench::emit_metrics(std::ostringstream& os, double setup_s) const {
  Metrics m(os);
  const Counts& w = window_;
  const double sim_s = spec_.window_s;
  const double wall_s = static_cast<double>(program_ns_) / 1e9;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // End to end.
  m.add("sim_s_per_wall_s", ratio(sim_s, wall_s), "s/s", false);
  m.add("setup_s", setup_s, "s", false);
  m.add("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB",
        false);
  m.add("startup_ms_p50", percentile(startup_ms_, 0.5), "ms", true);
  m.add("startup_ms_p99", percentile(startup_ms_, 0.99), "ms", true);
  m.add("takeover_ms_p50", percentile(takeover_ms_, 0.5), "ms", true);
  m.add("takeover_ms_p99", percentile(takeover_ms_, 0.99), "ms", true);
  m.add("stall_ratio",
        ratio(d(w[kStarvation]), d(w[kDisplayed] + w[kStarvation])), "ratio",
        true);
  m.add("skip_ratio", ratio(d(w[kSkipped]), d(w[kDisplayed] + w[kSkipped])),
        "ratio", true);
  m.add("fail_ratio", ratio(d(failed_), d(attempted())), "ratio", true);
  m.add("startup_samples", d(startup_ms_.size()), "count", true);
  m.add("takeover_samples", d(takeover_ms_.size()), "count", true);

  // sim
  m.add("sim.events", d(program_events_), "count", true);
  m.add("sim.events_per_sim_s", d(program_events_) / sim_s, "1/s", true);
  m.add("sim.events_per_wall_s", ratio(d(program_events_), wall_s), "1/s",
        false);
  m.add("sim.pending_peak", d(pending_peak_), "count", true);
  m.add("sim.heap_peak", d(heap_peak_), "count", true);
  m.add("sim.wheel_staged_peak", d(wheel_peak_), "count", true);
  m.add("sim.slice_ms_p50", percentile(slice_ms_, 0.5), "ms", false);
  m.add("sim.slice_ms_p99", percentile(slice_ms_, 0.99), "ms", false);
  m.add("alloc.per_event", ratio(d(program_allocs_), d(program_events_)),
        "ratio", true);
  // net
  m.add("net.datagrams_per_sim_s", d(w[kDatagrams]) / sim_s, "1/s", true);
  m.add("net.wire_mb_per_sim_s", d(w[kWireBytes]) / 1e6 / sim_s, "MB/s", true);
  m.add("net.datagrams_per_frame", ratio(d(w[kDatagrams]), d(w[kFrames])),
        "ratio", true);
  m.add("net.drop_queue", d(w[kDropQueue]), "count", true);
  m.add("net.drop_loss", d(w[kDropLoss]), "count", true);
  m.add("net.drop_unreachable", d(w[kDropUnreachable]), "count", true);
  m.add("net.corrupt_dropped", d(w[kCorrupt]), "count", true);
  m.add("net.coord_drop_queue", d(coord_drop_queue_), "count", true);
  m.add("net.top_host_send_share", top_host_share_, "ratio", true);
  // gcs
  m.add("gcs.ordered_per_sim_s", d(w[kOrdered]) / sim_s, "1/s", true);
  m.add("gcs.delivered_per_ordered", ratio(d(w[kDelivered]), d(w[kOrdered])),
        "ratio", true);
  m.add("gcs.retrans_per_ordered", ratio(d(w[kRetrans]), d(w[kOrdered])),
        "ratio", true);
  m.add("gcs.view_changes", d(w[kViewChanges]), "count", true);
  m.add("gcs.malformed_dropped", d(w[kGcsMalformed]), "count", true);
  m.add("gcs.probe_ms_p50", percentile(probe_ms_, 0.5), "ms", true);
  m.add("gcs.probe_ms_p99", percentile(probe_ms_, 0.99), "ms", true);
  m.add("gcs.probes", d(probe_ms_.size()), "count", true);
  // vod
  m.add("vod.frames_per_sim_s", d(w[kFrames]) / sim_s, "1/s", true);
  m.add("vod.frames_per_wall_s", ratio(d(w[kFrames]), wall_s), "1/s", false);
  m.add("vod.syncs_per_sim_s", d(w[kSyncs]) / sim_s, "1/s", true);
  m.add("vod.allocs_per_frame", ratio(d(program_allocs_), d(w[kFrames])),
        "ratio", true);
  m.add("vod.sessions_opened", d(w[kOpened]), "count", true);
  m.add("vod.takeovers", d(w[kTakeovers]), "count", true);
  m.add("vod.migrations_out", d(w[kMigrations]), "count", true);
  m.add("vod.rebalances", d(w[kRebalances]), "count", true);
  m.add("vod.watch_us_p50", percentile(watch_us_, 0.5), "us", false);
  m.add("vod.stop_us_p50", percentile(stop_us_, 0.5), "us", false);
  // client
  m.add("client.flow_msgs_per_sim_s", d(w[kFlowMsgs]) / sim_s, "1/s", true);
  m.add("client.emergencies_per_session",
        ratio(d(w[kEmergencies]), d(sessions_in_window_)), "ratio", true);
  m.add("client.open_retries", d(w[kOpenRetries]), "count", true);
  m.add("client.late_ratio", ratio(d(w[kLate]), d(w[kReceived])), "ratio",
        true);
  m.add("client.overflow_discards", d(w[kOverflow]), "count", true);
  // placement
  m.add("placement.tick_us_p50", percentile(tick_us_, 0.5), "us", false);
  m.add("placement.tick_us_p99", percentile(tick_us_, 0.99), "us", false);
  m.add("placement.adds", d(placement_.adds), "count", true);
  m.add("placement.drops", d(placement_.drops), "count", true);
  m.add("placement.reregistrations", d(placement_.reregistrations), "count",
        true);
  m.add("placement.restart_us", percentile(restart_us_, 0.5), "us", false);
  // mpeg
  m.add("mpeg.catalog_ms", catalog_ms_, "ms", false);
  // testing
  m.add("testing.checks", d(checks_in_window_), "count", true);
  m.add("testing.violations", d(monitor_->total_violations()), "count", true);
  m.add("testing.check_us_p50", percentile(check_us_, 0.5), "us", false);
  // util
  const double mean_datagram =
      ratio(d(w[kWireBytes]), d(w[kDatagrams])) -
      static_cast<double>(net::Network::kHeaderBytes);
  m.add("util.crc32c_gib_per_s",
        crc32c_gib_per_s(static_cast<std::size_t>(std::max(mean_datagram, 16.0)),
                         seed_),
        "GiB/s", false);
  // bench
  m.add("bench.harness_s", static_cast<double>(window_harness_ns_) / 1e9, "s",
        false);
  m.add("bench.window_sim_s", sim_s, "s", true);
  m.add("bench.arrivals_dropped", d(arrivals_dropped_), "count", true);
  m.add("bench.ops_unresolved", d(pending_.size()), "count", true);
  m.add("bench.spans", d(tracer_.size()), "count", false);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: ftvod_perfbench --workload steady_lan|churn_control|"
               "failover --seed N --seconds S [--trace 0|1] [--scale full|mini]"
               " [--setups R] [--spans FILE] [--inject violation]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scale = "full", spans_path, inject;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0, setups = 1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--scale") {
      scale = val;
    } else if (key == "--setups") {
      setups = std::atoi(val);
    } else if (key == "--spans") {
      spans_path = val;
    } else if (key == "--inject") {
      inject = val;
    } else {
      return usage();
    }
  }
  Spec spec;
  if (argc % 2 == 0 || !have_seed || seconds <= 0.0 || setups < 1 ||
      (scale != "full" && scale != "mini") ||
      (!inject.empty() && inject != "violation") ||
      !make_spec(workload, scale, seconds, spec)) {
    return usage();
  }

  Tracer tracer(trace != 0);
  const int root = tracer.open("workload:" + workload, -1, 0.0);
  // The shared machine has slow spells lasting seconds. Repeated set-ups
  // therefore go on for at least 10 s of wall time, so that their median
  // samples several spells even where one set-up is short.
  const std::int64_t min_setup_ns = setups > 1 ? 10'000'000'000 : 0;
  const std::int64_t setup_start = wall_ns();
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  while (static_cast<int>(setup_s.size()) < setups ||
         wall_ns() - setup_start < min_setup_ns) {
    bench.reset();  // one deployment alive at a time
    bench = std::make_unique<Bench>(spec, seed, tracer, !inject.empty());
    setup_s.push_back(bench->setup(root));
  }
  bench->run_window(root);
  tracer.close(root);

  std::ostringstream os;
  os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
     << ",\"scale\":\"" << scale << "\",\"trace\":" << trace
     << ",\"compiler\":\"" << json_escape(
#if defined(__clang__)
                                  "clang "
#else
                                  "gcc "
#endif
                                  __VERSION__)
     << "\",\"build_type\":\"" << FTVOD_PERFBENCH_BUILD_TYPE << "\"";
  const std::vector<std::string> gate = bench->gate_failures();
  os << ",\"correct\":" << (gate.empty() ? "true" : "false") << ",\"gate\":[";
  for (std::size_t i = 0; i < gate.size(); ++i) {
    os << (i ? "," : "") << '"' << gate[i] << '"';
  }
  os << "],\"violations\":\"" << json_escape(bench->violation_report())
     << "\",\"attempted\":" << bench->attempted()
     << ",\"failed\":" << bench->failed() << ",\"metrics\":{";
  bench->emit_metrics(os, percentile(setup_s, 0.5));
  os << "}}";
  if (tracer.on() && !spans_path.empty() && !tracer.write(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", os.str().c_str());
  return gate.empty() ? 0 : 1;
}
