// Addressing for the simulated packet network.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>

namespace ftvod::net {

using NodeId = std::uint32_t;
using Port = std::uint16_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

struct Endpoint {
  NodeId node = kInvalidNode;
  Port port = 0;

  auto operator<=>(const Endpoint&) const = default;
  [[nodiscard]] bool valid() const { return node != kInvalidNode; }
};

template <class IO>
void fields(IO& io, Endpoint& e) {
  io(e.node, e.port);
}

inline std::ostream& operator<<(std::ostream& os, const Endpoint& e) {
  return os << "n" << e.node << ":" << e.port;
}

}  // namespace ftvod::net

template <>
struct std::hash<ftvod::net::Endpoint> {
  std::size_t operator()(const ftvod::net::Endpoint& e) const noexcept {
    return (static_cast<std::size_t>(e.node) << 16) ^ e.port;
  }
};
