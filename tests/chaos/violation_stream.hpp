// Renders what an InvariantMonitor recorded as text a test can pin.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "testing/invariants.hpp"
#include "vod/service.hpp"

namespace ftvod::testing {

/// Every violation `monitor` recorded, one "<µs> <text>" line each, with a
/// leading "client <id>" renamed to the client's index in dep.clients()
/// ("client #1"). Client ids come from a process-wide counter, so they
/// depend on which tests ran earlier in the same process; indices do not.
inline std::string violation_stream(vod::Deployment& dep,
                                    const InvariantMonitor& monitor) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < dep.clients().size(); ++i) {
    index[dep.clients()[i]->client->client_id()] = i;
  }
  const std::string prefix = "client ";
  std::string out;
  for (const Violation& v : monitor.violations()) {
    std::string what = v.what;
    if (what.starts_with(prefix)) {
      const std::size_t end = what.find(' ', prefix.size());
      const std::uint64_t id =
          std::stoull(what.substr(prefix.size(), end - prefix.size()));
      what = prefix + "#" + std::to_string(index.at(id)) + what.substr(end);
    }
    out += std::to_string(v.at) + " " + what + "\n";
  }
  return out;
}

}  // namespace ftvod::testing
