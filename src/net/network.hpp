// Simulated datagram network. Models, per packet:
//   * serialization delay at the sender's uplink (rate + tail-drop queue),
//   * the same at the receiver's downlink, booked in first-bit order,
//   * propagation delay with uniform jitter (reordering emerges naturally),
//   * i.i.d. loss, Gilbert–Elliott bursty loss, and optional duplication,
//   * payload corruption (bit flips) and truncation in flight,
//   * explicit reordering (an occasional extra delivery delay),
//   * host crashes and network partitions.
//
// This substrate stands in for the paper's switched-Ethernet LAN and 7-hop
// WAN testbeds (DESIGN.md §2).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/quality.hpp"
#include "net/socket.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace ftvod::net {

struct HostStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_queue = 0;
  std::uint64_t dropped_unreachable = 0;  // partition/crash/no socket
  /// Subset of dropped_loss lost while the Gilbert–Elliott channel was in
  /// its bad state (i.e. attributable to a burst rather than the i.i.d.
  /// floor).
  std::uint64_t dropped_burst = 0;
  std::uint64_t corrupted = 0;   // payloads damaged by bit flips in flight
  std::uint64_t truncated = 0;   // payloads cut short in flight
  std::uint64_t reordered = 0;   // deliveries given the extra reorder delay
  /// Datagrams that found this host's downlink busy on arrival and queued
  /// behind earlier traffic (each costs a second scheduler event).
  std::uint64_t downlink_waits = 0;
};

class Network {
 public:
  /// Per-datagram wire overhead charged on top of the payload (IP + UDP).
  static constexpr std::size_t kHeaderBytes = 28;

  Network(sim::Scheduler& sched, util::Rng& rng)
      : sched_(&sched), rng_(&rng) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a host and returns its id (ids are dense, starting at 0).
  NodeId add_host(std::string name, HostConfig cfg = {});
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] const std::string& host_name(NodeId id) const;

  /// Binds a receive handler; at most one socket per (node, port).
  [[nodiscard]] std::unique_ptr<Socket> bind(NodeId node, Port port,
                                             Socket::RecvHandler handler);

  /// Link quality applied to every pair without an explicit override.
  void set_default_quality(const LinkQuality& q) { default_quality_ = q; }
  /// Symmetric per-pair override.
  void set_quality(NodeId a, NodeId b, const LinkQuality& q);
  /// Removes a per-pair override, reverting the pair to the default
  /// quality (used to heal transient link degradations).
  void clear_quality(NodeId a, NodeId b);
  [[nodiscard]] const LinkQuality& quality(NodeId a, NodeId b) const;

  /// Splits the network into components; packets cross components only
  /// within the same component. Hosts not mentioned form an implicit
  /// final component together.
  void partition(const std::vector<std::set<NodeId>>& components);
  void heal();

  /// Silent fail-stop: in-flight and future traffic to/from the host is
  /// dropped, and the crash hooks of the host's sockets fire, once each in
  /// bind order (so co-located protocol stacks stop their timers).
  void crash_host(NodeId node);
  void restore_host(NodeId node);
  [[nodiscard]] bool alive(NodeId node) const;

  /// True when a and b are both alive and in the same partition component
  /// (a host always reaches itself while alive). Exposed so monitors can
  /// condition liveness expectations on actual connectivity.
  [[nodiscard]] bool reachable(NodeId a, NodeId b) const;

  [[nodiscard]] const HostStats& stats(NodeId node) const;
  [[nodiscard]] std::uint64_t total_wire_bytes() const {
    return total_wire_bytes_;
  }

  [[nodiscard]] sim::Scheduler& scheduler() { return *sched_; }
  /// The shared deterministic randomness source. Protocol components draw
  /// their jitter (e.g. retry backoff) from it so a whole run stays
  /// reproducible from the one seed.
  [[nodiscard]] util::Rng& rng() { return *rng_; }

 private:
  friend class Socket;

  /// A datagram copy waiting for its downlink slot: a min-heap entry
  /// ordered by (first-bit time, send order).
  struct Arrival {
    sim::Time first_bit;
    std::uint64_t seq;
    std::uint32_t slot;  // into in_flight_
  };
  static bool later(const Arrival& a, const Arrival& b) {
    if (a.first_bit != b.first_bit) return a.first_bit > b.first_bit;
    return a.seq > b.seq;
  }

  struct Host {
    std::string name;
    HostConfig cfg;
    bool alive = true;
    sim::Time uplink_free_at = 0;    // when the uplink drains its queue
    sim::Time downlink_free_at = 0;  // when the downlink drains its queue
    /// Datagrams to this host whose downlink slot is not booked yet.
    std::vector<Arrival> unbooked;
    /// Bound sockets. A host binds one to three ports, so a linear scan
    /// of this list beats hashing on every delivery.
    std::vector<std::pair<Port, Socket*>> sockets;
    HostStats stats;
  };

  /// In-flight payload storage. Buffers are pooled and intrusively
  /// refcounted: each datagram copy in flight holds one reference, and the
  /// buffer returns to its size class's free list when the last copy is
  /// dispatched or dropped. This keeps the per-packet path free of heap
  /// allocations in steady state (no shared_ptr control blocks, no fresh
  /// byte vectors). A buffer is reserved at its class's size when created
  /// and only carries payloads of that class, so a 30-byte frame never
  /// holds the capacity of a 64 KB GCS batch. The top class takes anything
  /// larger and may grow; the GCS's largest batch (65,507 bytes) fits it.
  struct PayloadBuffer {
    util::Bytes bytes;
    std::uint32_t refs = 0;
    std::uint8_t size_class = 0;
  };
  /// Power-of-two size classes from 64 B to 64 KiB.
  static constexpr std::size_t kSmallestClassBytes = 64;
  static constexpr std::size_t kSizeClasses = 11;
  [[nodiscard]] static std::size_t size_class(std::size_t bytes);

  /// One datagram copy from send to hand-off, in the recycled `in_flight_`
  /// slab. Its one scheduler event fires at its first bit plus the
  /// receiver's downlink serialization, or at the first bit when that is
  /// at most 1 µs: the moment an idle downlink hands it off. Its downlink
  /// slot may be booked earlier, by a later datagram's event or by a
  /// topology change; only a datagram that had to queue takes a second
  /// event, at the end of its slot.
  struct InFlight {
    Endpoint from;
    Endpoint to;
    PayloadBuffer* data = nullptr;
    std::size_t wire_size = 0;
    Arrival key{};
    bool booked = false;
    bool dropped = false;       // at booking: unreachable or tail-dropped
    sim::Time hand_off_at = 0;  // once booked and not dropped
    std::uint32_t next_free = 0;
  };

  void send_from_socket(Socket& src, const Endpoint& to,
                        std::span<const std::byte> payload,
                        std::size_t padding_bytes);
  /// A datagram copy's event: books the receiver's downlink through it,
  /// then hands it off, or re-schedules the hand-off when it queued.
  void arrive(std::uint32_t slot);
  /// Books, in key order, every unbooked datagram to `node` whose key is
  /// at most `through`. Booking keeps the arrival-time rule: start =
  /// max(first bit, downlink free), tail-drop on the bytes queued ahead,
  /// then free = start + max(serialization, 1).
  void book_through(NodeId node, const Arrival& through);
  /// Books every datagram whose first bit has arrived. Topology changes
  /// call this first, so a booking always sees the reachability of its
  /// datagram's first-bit time.
  void book_arrived();
  /// Final dispatch to the bound socket. `checked`: booking tested
  /// reachability in this same event. Frees the slot.
  void hand_off(std::uint32_t slot, bool checked);
  void release_in_flight(std::uint32_t slot);
  void unbind(const Socket& s);
  [[nodiscard]] static Socket* find_socket(const Host& h, Port port);

  PayloadBuffer* acquire_buffer(std::span<const std::byte> payload);
  void release_ref(PayloadBuffer* data);

  /// Applies in-flight damage (bit flips, truncation) to the pooled copy of
  /// a packet according to the link quality; returns true if damaged.
  bool apply_damage(const LinkQuality& q, Host& sender, PayloadBuffer& data);

  sim::Scheduler* sched_;
  util::Rng* rng_;
  std::vector<Host> hosts_;
  LinkQuality default_quality_{};
  std::map<std::pair<NodeId, NodeId>, LinkQuality> quality_overrides_;
  // Gilbert–Elliott channel state per unordered host pair: true == bad
  // (lossy) state. Lazily created on the first packet of a bursty link.
  std::map<std::pair<NodeId, NodeId>, bool> burst_state_;
  // Partition state as a per-host component id: reachable() is O(1) instead
  // of scanning component sets per packet. Hosts not named by partition()
  // share the implicit component id (== number of explicit components).
  bool partitioned_ = false;
  std::uint32_t implicit_component_ = 0;
  std::vector<std::uint32_t> component_;
  std::vector<std::unique_ptr<PayloadBuffer>> buffer_slab_;
  std::array<std::vector<PayloadBuffer*>, kSizeClasses> buffer_free_;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  std::vector<InFlight> in_flight_;
  std::uint32_t in_flight_free_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::uint64_t total_wire_bytes_ = 0;
};

}  // namespace ftvod::net
