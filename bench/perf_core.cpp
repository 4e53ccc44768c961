// Performance harness for the simulation core. Unlike the figure/table
// harnesses (which check the *shape* of the paper's results), this one
// measures raw speed and allocator traffic of the hot path and emits a
// machine-readable BENCH_core.json, so regressions show up as numbers in
// version control rather than as vague slowness.
//
// Two measurements:
//   * micro_scheduler — the timer idiom the whole stack runs on (arm a
//     callback with ~40 B of captured state, plus a cancelled decoy, i.e.
//     exactly what OneShotTimer re-arming does), isolated from protocol
//     work. Reports events/sec and heap allocations per event.
//   * macro_vod — a full deployment (N servers × M clients × T simulated
//     seconds) streaming one movie. Reports events/sec, frames/sec,
//     wall-clock and heap allocations per frame over the steady-state
//     window (after GCS convergence and session open).
//
// Usage: perf_core [output.json]
//   FTVOD_BENCH_SMOKE=1 shrinks both measurements to a sub-second sanity
//   scale (the bench_smoke CTest target uses this; numbers from a smoke
//   run are not meaningful).
//
// Run from a Release / RelWithDebInfo build only; Debug numbers are noise.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "mpeg/movie.hpp"
#include "sim/scheduler.hpp"
#include "vod/service.hpp"

// Every path through ::operator new is counted, including the
// std::function control blocks and shared_ptr wrappers the hot path may
// create; a sanitized build reports zero allocator traffic (see the header).
#include "testing/counting_alloc.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool smoke_mode() {
  const char* v = std::getenv("FTVOD_BENCH_SMOKE");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

// ---- micro: scheduler timer loop -------------------------------------------

struct MicroResult {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

MicroResult run_micro(std::uint64_t target_events) {
  using namespace ftvod;
  sim::Scheduler sched;
  std::uint64_t remaining = target_events;
  // ~40 B of captured state models the network's delivery lambda; the
  // cancelled decoy models OneShotTimer's cancel-then-rearm idiom.
  std::uint64_t payload[4] = {1, 2, 3, 4};
  sim::Scheduler::EventHandle decoy;
  std::function<void()> arm = [&] {
    decoy.cancel();
    decoy = sched.after(1'000'000, [] {});
    sched.after(10, [&, a = payload[0], b = payload[1], c = payload[2],
                     d = payload[3]] {
      payload[0] = a + b + c + d;
      if (--remaining > 0) arm();
    });
  };

  // Warmup: let every pool/slab/vector in the scheduler reach steady-state
  // capacity before counting.
  remaining = std::max<std::uint64_t>(target_events / 20, 1000);
  arm();
  sched.run();

  remaining = target_events;
  const std::uint64_t allocs0 = ftvod::testing::alloc_count;
  const std::uint64_t bytes0 = ftvod::testing::alloc_bytes;
  const std::uint64_t events0 = sched.executed_events();
  const auto t0 = Clock::now();
  arm();
  sched.run();
  MicroResult r;
  r.wall_s = seconds_since(t0);
  r.events = sched.executed_events() - events0;
  r.allocs = ftvod::testing::alloc_count - allocs0;
  r.alloc_bytes = ftvod::testing::alloc_bytes - bytes0;
  return r;
}

// ---- macro: full VoD deployment --------------------------------------------

struct MacroResult {
  int servers = 0;
  int clients = 0;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

MacroResult run_macro(int n_servers, int n_clients, double sim_seconds) {
  using namespace ftvod;
  using namespace ftvod::vod;
  Deployment dep(20260805);
  std::vector<net::NodeId> server_hosts;
  for (int i = 0; i < n_servers; ++i) {
    server_hosts.push_back(dep.add_host("s" + std::to_string(i)));
  }
  std::vector<net::NodeId> client_hosts;
  for (int i = 0; i < n_clients; ++i) {
    client_hosts.push_back(dep.add_host("c" + std::to_string(i)));
  }
  auto movie = mpeg::Movie::synthetic("m", sim_seconds + 600.0);
  for (net::NodeId h : server_hosts) {
    dep.start_server(h).server->add_movie(movie);
  }
  for (net::NodeId h : client_hosts) dep.start_client(h);
  dep.run_for(sim::sec(2.0));  // GCS convergence
  for (auto& cn : dep.clients()) cn->client->watch("m");
  dep.run_for(sim::sec(5.0));  // sessions open, buffers fill, rates settle

  auto frames_sent = [&] {
    std::uint64_t sum = 0;
    for (auto& sn : dep.servers()) sum += sn->server->stats().frames_sent;
    return sum;
  };

  MacroResult r;
  r.servers = n_servers;
  r.clients = n_clients;
  r.sim_s = sim_seconds;
  const std::uint64_t allocs0 = ftvod::testing::alloc_count;
  const std::uint64_t bytes0 = ftvod::testing::alloc_bytes;
  const std::uint64_t events0 = dep.scheduler().executed_events();
  const std::uint64_t frames0 = frames_sent();
  const auto t0 = Clock::now();
  dep.run_for(sim::sec(sim_seconds));
  r.wall_s = seconds_since(t0);
  r.events = dep.scheduler().executed_events() - events0;
  r.frames = frames_sent() - frames0;
  r.allocs = ftvod::testing::alloc_count - allocs0;
  r.alloc_bytes = ftvod::testing::alloc_bytes - bytes0;
  return r;
}

// ---- JSON ------------------------------------------------------------------

double per_sec(std::uint64_t n, double wall_s) {
  return wall_s > 0.0 ? static_cast<double>(n) / wall_s : 0.0;
}

double per(std::uint64_t n, std::uint64_t d) {
  return d > 0 ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
}

std::string json_report(const MicroResult& mi, const MacroResult& ma,
                        bool smoke) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\n";
  os << "  \"bench\": \"perf_core\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"micro_scheduler\": {\n";
  os << "    \"events\": " << mi.events << ",\n";
  os << "    \"wall_s\": " << mi.wall_s << ",\n";
  os << "    \"events_per_s\": " << per_sec(mi.events, mi.wall_s) << ",\n";
  os << "    \"allocs\": " << mi.allocs << ",\n";
  os << "    \"alloc_bytes\": " << mi.alloc_bytes << ",\n";
  os << "    \"allocs_per_event\": " << per(mi.allocs, mi.events) << "\n";
  os << "  },\n";
  os << "  \"macro_vod\": {\n";
  os << "    \"servers\": " << ma.servers << ",\n";
  os << "    \"clients\": " << ma.clients << ",\n";
  os << "    \"sim_s\": " << ma.sim_s << ",\n";
  os << "    \"events\": " << ma.events << ",\n";
  os << "    \"frames\": " << ma.frames << ",\n";
  os << "    \"wall_s\": " << ma.wall_s << ",\n";
  os << "    \"events_per_s\": " << per_sec(ma.events, ma.wall_s) << ",\n";
  os << "    \"frames_per_s\": " << per_sec(ma.frames, ma.wall_s) << ",\n";
  os << "    \"allocs\": " << ma.allocs << ",\n";
  os << "    \"alloc_bytes\": " << ma.alloc_bytes << ",\n";
  os << "    \"allocs_per_frame\": " << per(ma.allocs, ma.frames) << "\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

// Minimal structural JSON validator (objects, arrays, strings, numbers,
// booleans, null). The smoke test leans on this: the file we just wrote
// must parse, so bench output can be consumed by tooling unseen here.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}
  bool valid() {
    skip_ws();
    return value() && (skip_ws(), pos_ == s_.size());
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') {
        ++pos_;
      } else if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_core.json";

  const std::uint64_t micro_events = smoke ? 50'000 : 2'000'000;
  const int macro_servers = smoke ? 2 : 4;
  const int macro_clients = smoke ? 3 : 24;
  const double macro_sim_s = smoke ? 2.0 : 30.0;

  std::cout << "=== Simulation-core performance ===\n"
            << (smoke ? "(smoke scale; numbers not meaningful)\n" : "");

  const MicroResult mi = run_micro(micro_events);
  std::cout << "micro_scheduler: " << mi.events << " events in " << mi.wall_s
            << " s  ->  " << static_cast<std::uint64_t>(per_sec(mi.events,
                                                                mi.wall_s))
            << " events/s, " << per(mi.allocs, mi.events)
            << " allocs/event\n";

  const MacroResult ma = run_macro(macro_servers, macro_clients, macro_sim_s);
  std::cout << "macro_vod (" << ma.servers << " servers x " << ma.clients
            << " clients x " << ma.sim_s << " sim-s): " << ma.events
            << " events, " << ma.frames << " frames in " << ma.wall_s
            << " s  ->  "
            << static_cast<std::uint64_t>(per_sec(ma.events, ma.wall_s))
            << " events/s, "
            << static_cast<std::uint64_t>(per_sec(ma.frames, ma.wall_s))
            << " frames/s, " << per(ma.allocs, ma.frames)
            << " allocs/frame\n";

  const std::string json = json_report(mi, ma, smoke);
  {
    std::ofstream f(out_path, std::ios::trunc);
    if (!f) {
      std::cerr << "cannot write " << out_path << '\n';
      return 1;
    }
    f << json;
  }
  // Validate the emitted file end-to-end (read back what actually landed
  // on disk, not the in-memory string).
  std::ifstream f(out_path);
  std::stringstream buf;
  buf << f.rdbuf();
  if (!JsonValidator(buf.str()).valid()) {
    std::cerr << out_path << " is not parseable JSON\n";
    return 1;
  }
  std::cout << "wrote " << out_path << " (parseable)\n";
  return 0;
}
