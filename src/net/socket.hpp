// UDP-like datagram socket bound to a (node, port). Obtained from
// Network::bind(); unbinds itself on destruction.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/address.hpp"
#include "util/codec.hpp"

namespace ftvod::net {

class Network;

struct SocketStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;      // wire bytes including padding+headers
  std::uint64_t bytes_received = 0;  // wire bytes including padding+headers
  /// Datagrams that arrived but failed integrity verification (length or
  /// CRC32C mismatch) and were discarded before any decoding. Bumped by the
  /// owning protocol component via note_corrupt_dropped().
  std::uint64_t corrupt_dropped = 0;
};

class Socket {
 public:
  using RecvHandler =
      std::function<void(const Endpoint& from, std::span<const std::byte>)>;

  ~Socket();
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Sends a datagram. The payload is copied into a network-owned pooled
  /// buffer, so the caller keeps (and may immediately reuse) its own bytes.
  /// `padding_bytes` inflates the accounted wire size without carrying real
  /// bytes (used for synthetic video frame bodies).
  void send(const Endpoint& to, std::span<const std::byte> payload,
            std::size_t padding_bytes = 0);

  [[nodiscard]] Endpoint local() const { return local_; }
  [[nodiscard]] const SocketStats& stats() const { return stats_; }

  /// Runs `hook` once, when this socket's host crashes, so the protocol
  /// stack that owns the socket stops its timers. The hook lives and dies
  /// with the socket: an owner that is torn down cannot be called.
  void on_crash(std::function<void()> hook) { crash_hook_ = std::move(hook); }

  /// Records a datagram discarded for failing integrity verification. The
  /// network cannot count this itself — damage is only detectable above the
  /// socket, where the framing layer checks the checksum.
  void note_corrupt_dropped() { ++stats_.corrupt_dropped; }

 private:
  friend class Network;
  Socket(Network& net, Endpoint local, RecvHandler handler)
      : net_(&net), local_(local), handler_(std::move(handler)) {}

  Network* net_;
  Endpoint local_;
  RecvHandler handler_;
  std::function<void()> crash_hook_;
  SocketStats stats_;
};

}  // namespace ftvod::net
