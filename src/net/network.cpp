#include "net/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/log.hpp"

namespace ftvod::net {

namespace {
constexpr std::string_view kLog = "net";
}

Socket::~Socket() {
  if (net_ != nullptr) net_->unbind(*this);
}

void Socket::send(const Endpoint& to, std::span<const std::byte> payload,
                  std::size_t padding_bytes) {
  net_->send_from_socket(*this, to, payload, padding_bytes);
}

NodeId Network::add_host(std::string name, HostConfig cfg) {
  Host h;
  h.name = std::move(name);
  h.cfg = cfg;
  hosts_.push_back(std::move(h));
  // Late joiners land in the implicit component of the current partition
  // (or component 0 when the network is whole).
  component_.push_back(implicit_component_);
  return static_cast<NodeId>(hosts_.size() - 1);
}

const std::string& Network::host_name(NodeId id) const {
  return hosts_.at(id).name;
}

std::unique_ptr<Socket> Network::bind(NodeId node, Port port,
                                      Socket::RecvHandler handler) {
  Host& h = hosts_.at(node);
  if (find_socket(h, port) != nullptr) {
    throw std::runtime_error("port already bound: node " +
                             std::to_string(node) + " port " +
                             std::to_string(port));
  }
  auto sock = std::unique_ptr<Socket>(
      new Socket(*this, Endpoint{node, port}, std::move(handler)));
  h.sockets.emplace_back(port, sock.get());
  return sock;
}

void Network::unbind(const Socket& s) {
  std::erase_if(hosts_.at(s.local().node).sockets,
                [&s](const auto& bound) { return bound.second == &s; });
}

Socket* Network::find_socket(const Host& h, Port port) {
  for (const auto& [p, sock] : h.sockets) {
    if (p == port) return sock;
  }
  return nullptr;
}

void Network::set_quality(NodeId a, NodeId b, const LinkQuality& q) {
  quality_overrides_[std::minmax(a, b)] = q;
}

void Network::clear_quality(NodeId a, NodeId b) {
  quality_overrides_.erase(std::minmax(a, b));
}

const LinkQuality& Network::quality(NodeId a, NodeId b) const {
  auto it = quality_overrides_.find(std::minmax(a, b));
  return it != quality_overrides_.end() ? it->second : default_quality_;
}

void Network::partition(const std::vector<std::set<NodeId>>& components) {
  book_arrived();
  partitioned_ = !components.empty();
  implicit_component_ =
      partitioned_ ? static_cast<std::uint32_t>(components.size()) : 0;
  // Hosts absent from every listed component form one implicit component.
  component_.assign(hosts_.size(), implicit_component_);
  for (std::size_t i = 0; i < components.size(); ++i) {
    for (const NodeId n : components[i]) {
      // First listing wins, matching the original component scan order.
      if (n < component_.size() && component_[n] == implicit_component_) {
        component_[n] = static_cast<std::uint32_t>(i);
      }
    }
  }
}

void Network::heal() {
  book_arrived();
  partitioned_ = false;
  implicit_component_ = 0;
  component_.assign(hosts_.size(), 0);
}

bool Network::reachable(NodeId a, NodeId b) const {
  if (!alive(a) || !alive(b)) return false;
  if (!partitioned_ || a == b) return true;
  return component_[a] == component_[b];
}

void Network::crash_host(NodeId node) {
  if (!hosts_.at(node).alive) return;
  book_arrived();
  Host& h = hosts_[node];
  h.alive = false;
  util::log_info(kLog, "host ", h.name, " (n", node, ") crashed");
  for (std::size_t i = 0; i < h.sockets.size(); ++i) {
    if (auto hook = std::exchange(h.sockets[i].second->crash_hook_, nullptr)) {
      hook();
    }
  }
}

void Network::restore_host(NodeId node) {
  book_arrived();
  Host& h = hosts_.at(node);
  h.alive = true;
  // Both directions restart idle: traffic queued before the crash must not
  // serialize into the revived host's link budget.
  h.uplink_free_at = sched_->now();
  h.downlink_free_at = sched_->now();
  // The Gilbert–Elliott channels touching this host restart in the good
  // state too. A reboot takes seconds; carrying the pre-crash bad-burst
  // state across it would greet the revived host — typically a server
  // re-registering its catalog with the placement controller — with an
  // immediate artificial loss burst on links that were idle the whole time.
  for (auto it = burst_state_.begin(); it != burst_state_.end();) {
    if (it->first.first == node || it->first.second == node) {
      it = burst_state_.erase(it);
    } else {
      ++it;
    }
  }
  util::log_info(kLog, "host ", h.name, " (n", node, ") restored");
}

bool Network::alive(NodeId node) const { return hosts_.at(node).alive; }

const HostStats& Network::stats(NodeId node) const {
  return hosts_.at(node).stats;
}

std::size_t Network::size_class(std::size_t bytes) {
  const std::size_t units = (std::max<std::size_t>(bytes, 1) - 1) /
                            kSmallestClassBytes;
  return std::min<std::size_t>(std::bit_width(units), kSizeClasses - 1);
}

Network::PayloadBuffer* Network::acquire_buffer(
    std::span<const std::byte> payload) {
  const std::size_t c = size_class(payload.size());
  std::vector<PayloadBuffer*>& free = buffer_free_[c];
  PayloadBuffer* b;
  if (!free.empty()) {
    b = free.back();
    free.pop_back();
  } else {
    buffer_slab_.push_back(std::make_unique<PayloadBuffer>());
    b = buffer_slab_.back().get();
    b->bytes.reserve(kSmallestClassBytes << c);
    b->size_class = static_cast<std::uint8_t>(c);
  }
  b->bytes.assign(payload.begin(), payload.end());  // reuses capacity
  b->refs = 0;
  return b;
}

void Network::release_ref(PayloadBuffer* data) {
  if (--data->refs == 0) {
    data->bytes.clear();
    buffer_free_[data->size_class].push_back(data);
  }
}

void Network::send_from_socket(Socket& src, const Endpoint& to,
                               std::span<const std::byte> payload,
                               std::size_t padding_bytes) {
  const Endpoint from = src.local();
  Host& h = hosts_.at(from.node);
  const std::size_t wire_size =
      payload.size() + padding_bytes + kHeaderBytes;

  if (!h.alive) return;  // a dead host transmits nothing

  ++h.stats.datagrams_sent;
  h.stats.bytes_sent += wire_size;
  ++src.stats_.datagrams_sent;
  src.stats_.bytes_sent += wire_size;
  total_wire_bytes_ += wire_size;

  // Serialization at the uplink: the packet departs when the queue ahead of
  // it has drained. Tail-drop if the queue (in bytes) exceeds the limit.
  const sim::Time now = sched_->now();
  const sim::Time start = std::max(now, h.uplink_free_at);
  const double queued_bytes =
      static_cast<double>(start - now) * h.cfg.uplink_bps / 8e6;
  if (queued_bytes > static_cast<double>(h.cfg.queue_limit_bytes)) {
    ++h.stats.dropped_queue;
    return;
  }
  const auto serialize_us = static_cast<sim::Duration>(
      static_cast<double>(wire_size) * 8e6 / h.cfg.uplink_bps);
  h.uplink_free_at = start + std::max<sim::Duration>(serialize_us, 1);
  const sim::Time departure = h.uplink_free_at;

  if (!reachable(from.node, to.node)) {
    ++h.stats.dropped_unreachable;
    return;
  }

  const LinkQuality& q = quality(from.node, to.node);
  // Loss: the Gilbert–Elliott channel (when enabled) modulates the drop
  // probability per packet — `loss` in the good state, `loss_bad` in the
  // bad state — producing the loss bursts congestion causes on real paths.
  double loss_p = q.loss;
  bool in_bad_state = false;
  if (q.bursty()) {
    bool& bad = burst_state_[std::minmax(from.node, to.node)];
    if (bad) {
      if (rng_->bernoulli(q.p_bad_to_good)) bad = false;
    } else {
      if (rng_->bernoulli(q.p_good_to_bad)) bad = true;
    }
    in_bad_state = bad;
    if (bad) loss_p = q.loss_bad;
  }
  if (rng_->bernoulli(loss_p)) {
    ++h.stats.dropped_loss;
    if (in_bad_state) ++h.stats.dropped_burst;
    return;
  }

  PayloadBuffer* data = acquire_buffer(payload);
  // Damage is applied once to the pooled copy, before duplication: a
  // duplicated packet was damaged (or not) upstream of the branch point, so
  // both copies share its fate.
  apply_damage(q, h, *data);
  Host& dst = hosts_[to.node];
  const auto downlink_us = static_cast<sim::Duration>(
      static_cast<double>(wire_size) * 8e6 / dst.cfg.downlink_bps);
  const sim::Duration hold = downlink_us > 1 ? downlink_us : 0;
  const int copies = rng_->bernoulli(q.duplicate) ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    const sim::Duration jitter =
        q.jitter > 0 ? static_cast<sim::Duration>(
                           rng_->uniform(0.0, static_cast<double>(q.jitter)))
                     : 0;
    // Reordering beyond what jitter produces: occasionally a packet takes a
    // detour long enough to land behind several successors.
    sim::Duration reorder_delay = 0;
    if (rng_->bernoulli(q.reorder)) {
      const sim::Duration span = q.reorder_span > 0
                                     ? q.reorder_span
                                     : 4 * (q.base_delay + q.jitter);
      reorder_delay = static_cast<sim::Duration>(
          rng_->uniform(0.0, static_cast<double>(span)));
      ++h.stats.reordered;
    }
    const sim::Time first_bit =
        departure + q.base_delay + jitter + reorder_delay;
    std::uint32_t slot = in_flight_free_;
    if (slot != kNoSlot) {
      in_flight_free_ = in_flight_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(in_flight_.size());
      in_flight_.emplace_back();
    }
    ++data->refs;
    InFlight& d = in_flight_[slot];
    d = InFlight{.from = from,
                 .to = to,
                 .data = data,
                 .wire_size = wire_size,
                 .key = {first_bit, next_seq_++, slot}};
    dst.unbooked.push_back(d.key);
    std::push_heap(dst.unbooked.begin(), dst.unbooked.end(), later);
    sched_->at(first_bit + hold, [this, slot] { arrive(slot); });
  }
}

bool Network::apply_damage(const LinkQuality& q, Host& sender,
                           PayloadBuffer& data) {
  bool damaged = false;
  if (!data.bytes.empty() && rng_->bernoulli(q.corrupt)) {
    // Flip a handful of random bits, the signature of line noise or a bad
    // NIC. The integrity framing must catch every one of these.
    const auto total_bits =
        static_cast<std::int64_t>(data.bytes.size()) * 8;
    for (int i = 0; i < q.corrupt_bits; ++i) {
      const std::int64_t bit = rng_->uniform_int(0, total_bits - 1);
      data.bytes[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::byte>(1u << (bit % 8));
    }
    ++sender.stats.corrupted;
    damaged = true;
  }
  if (!data.bytes.empty() && rng_->bernoulli(q.truncate)) {
    const auto keep = rng_->uniform_int(
        0, static_cast<std::int64_t>(data.bytes.size()) - 1);
    data.bytes.resize(static_cast<std::size_t>(keep));
    ++sender.stats.truncated;
    damaged = true;
  }
  return damaged;
}

void Network::book_through(NodeId node, const Arrival& through) {
  Host& h = hosts_[node];
  while (!h.unbooked.empty() && !later(h.unbooked.front(), through)) {
    std::pop_heap(h.unbooked.begin(), h.unbooked.end(), later);
    InFlight& d = in_flight_[h.unbooked.back().slot];
    h.unbooked.pop_back();
    d.booked = true;
    if (!reachable(d.from.node, node)) {
      ++h.stats.dropped_unreachable;
      d.dropped = true;
      continue;
    }
    // Downlink serialization: arriving datagrams share the receiver's
    // last-mile capacity, whatever socket (or none) they are addressed to.
    const sim::Time first_bit = d.key.first_bit;
    const sim::Time start = std::max(first_bit, h.downlink_free_at);
    const double queued_bytes =
        static_cast<double>(start - first_bit) * h.cfg.downlink_bps / 8e6;
    if (queued_bytes > static_cast<double>(h.cfg.downlink_queue_bytes)) {
      ++h.stats.dropped_queue;
      d.dropped = true;
      continue;
    }
    const auto serialize_us = static_cast<sim::Duration>(
        static_cast<double>(d.wire_size) * 8e6 / h.cfg.downlink_bps);
    h.downlink_free_at = start + std::max<sim::Duration>(serialize_us, 1);
    if (start == first_bit) {
      // An idle downlink: the hand-off is the datagram's own event.
      d.hand_off_at = first_bit + (serialize_us > 1 ? serialize_us : 0);
    } else {
      ++h.stats.downlink_waits;
      d.hand_off_at = h.downlink_free_at;
    }
  }
}

void Network::book_arrived() {
  const Arrival through{sched_->now(), ~std::uint64_t{0}, 0};
  for (NodeId n = 0; n < hosts_.size(); ++n) book_through(n, through);
}

void Network::arrive(std::uint32_t slot) {
  InFlight& d = in_flight_[slot];
  const bool booked_here = !d.booked;
  book_through(d.to.node, d.key);
  if (d.dropped) {
    release_in_flight(slot);
  } else if (d.hand_off_at == sched_->now()) {
    hand_off(slot, booked_here);
  } else {
    sched_->at(d.hand_off_at, [this, slot] { hand_off(slot, false); });
  }
}

void Network::hand_off(std::uint32_t slot, bool checked) {
  InFlight& d = in_flight_[slot];
  Host& h = hosts_[d.to.node];
  if (!checked && !reachable(d.from.node, d.to.node)) {
    ++h.stats.dropped_unreachable;
    release_in_flight(slot);
    return;
  }
  Socket* sock = find_socket(h, d.to.port);
  if (sock == nullptr) {
    ++h.stats.dropped_unreachable;
    release_in_flight(slot);
    return;
  }
  ++h.stats.datagrams_received;
  h.stats.bytes_received += d.wire_size;
  ++sock->stats_.datagrams_received;
  sock->stats_.bytes_received += d.wire_size;
  // Free the slot before dispatching (the handler may send, which can
  // reuse it), but keep the payload referenced until after return.
  const Endpoint from = d.from;
  PayloadBuffer* data = d.data;
  d.next_free = in_flight_free_;
  in_flight_free_ = slot;
  if (sock->handler_) sock->handler_(from, data->bytes);
  release_ref(data);
}

void Network::release_in_flight(std::uint32_t slot) {
  InFlight& d = in_flight_[slot];
  release_ref(d.data);
  d.next_free = in_flight_free_;
  in_flight_free_ = slot;
}

}  // namespace ftvod::net
