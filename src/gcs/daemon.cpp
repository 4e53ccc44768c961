#include "gcs/daemon.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "util/frame.hpp"
#include "util/log.hpp"

namespace ftvod::gcs {

namespace {
constexpr std::string_view kLog = "gcs";
/// Non-member sends use local handle 0, which join() never allocates.
constexpr std::uint32_t kNonMemberLocal = 0;
/// UDP's largest payload: a batch is sent before a message would pass it.
constexpr std::size_t kMaxBatchBytes = 65'507;
}  // namespace

// ---------------------------------------------------------------- GroupMember

GroupMember::~GroupMember() {
  if (daemon_ != nullptr) leave();
}

void GroupMember::send(util::Bytes payload) {
  if (daemon_ != nullptr) daemon_->member_send(*this, std::move(payload));
}

void GroupMember::leave() {
  if (daemon_ == nullptr) return;
  daemon_->member_leave(*this);
  daemon_ = nullptr;
}

// -------------------------------------------------------------- Daemon::Group

bool Daemon::Group::add(GcsEndpoint e) {
  auto at = std::lower_bound(members.begin(), members.end(), e);
  if (at != members.end() && *at == e) return false;
  members.insert(at, e);
  return true;
}

bool Daemon::Group::remove(GcsEndpoint e) {
  auto at = std::lower_bound(members.begin(), members.end(), e);
  if (at == members.end() || *at != e) return false;
  members.erase(at);
  return true;
}

bool Daemon::Group::has_member_on(net::NodeId node) const {
  auto at = std::lower_bound(members.begin(), members.end(),
                             GcsEndpoint{node, 0});
  return at != members.end() && at->node == node;
}

// --------------------------------------------------------------------- Daemon

Daemon::Daemon(sim::Scheduler& sched, net::Network& net, net::NodeId self,
               GcsConfig cfg)
    : sched_(&sched),
      net_(&net),
      self_(self),
      cfg_(std::move(cfg)),
      outbox_timer_(sched),
      heartbeat_timer_(sched, cfg_.heartbeat_interval,
                       [this] { on_heartbeat_timer(); }),
      fd_timer_(sched, cfg_.fd_check_interval, [this] { on_fd_check(); }),
      resubmit_timer_(sched, cfg_.resubmit_interval,
                      [this] { flush_pending_submits(); }),
      nack_timer_(sched, cfg_.nack_delay, [this] { maybe_nack(); }),
      propose_retry_timer_(sched),
      rescue_timer_(sched) {
  socket_ = net_->bind(self_, cfg_.port,
                       [this](const net::Endpoint& from,
                              std::span<const std::byte> data) {
                         on_datagram(from, data);
                       });
  net_->on_crash(self_, [this] { halt(); });

  view_.id = ViewId{1, self_};
  view_.members = {self_};
  max_counter_seen_ = 1;
  accepted_pv_ = view_.id;
  accepted_pv_from_ = self_;
  next_submit_expected_[self_] = 1;

  // Stagger heartbeats slightly per node so daemons created at the same
  // virtual instant do not tick in perfect lockstep.
  heartbeat_timer_.start(cfg_.heartbeat_interval + sim::usec(self_ * 7));
  fd_timer_.start(cfg_.fd_check_interval + sim::usec(self_ * 11));
  resubmit_timer_.start();
  // Spread the daemons' NACK ticks over the whole period: a loss burst at
  // the coordinator leaves gaps at every daemon at once, and ticks in
  // lockstep would return all their requests, and so all the repairs, in
  // one burst that overruns the coordinator's uplink again.
  const double phase = std::fmod(self_ * 0.6180339887, 1.0);
  nack_timer_.start(cfg_.nack_delay +
                    static_cast<sim::Duration>(phase * cfg_.nack_delay));
}

Daemon::~Daemon() {
  for (auto& [name, g] : groups_) {
    for (GroupMember* h : g.handles) h->daemon_ = nullptr;
  }
}

void Daemon::halt() {
  if (halted_) return;
  halted_ = true;
  heartbeat_timer_.stop();
  fd_timer_.stop();
  resubmit_timer_.stop();
  nack_timer_.stop();
  outbox_timer_.cancel();
  propose_retry_timer_.cancel();
  rescue_timer_.cancel();
  util::log_info(kLog, "daemon n", self_, " halted");
}

void Daemon::pause() {
  if (halted_ || paused_) return;
  paused_ = true;
  heartbeat_timer_.stop();
  fd_timer_.stop();
  resubmit_timer_.stop();
  nack_timer_.stop();
  outbox_timer_.cancel();
  propose_retry_timer_.cancel();
  rescue_timer_.cancel();
  util::log_info(kLog, "daemon n", self_, " paused");
}

void Daemon::resume() {
  if (halted_ || !paused_) return;
  paused_ = false;
  // Deliberately leave last_heard_ stale: the first fd check suspects every
  // member the pause outlived, which drives the daemon into a fresh view of
  // its own; peers re-admit it through the merge path. An in-flight
  // proposal from before the pause is abandoned the same way.
  proposal_.reset();
  pending_install_.reset();
  heartbeat_timer_.start();
  fd_timer_.start();
  resubmit_timer_.start();
  nack_timer_.start();
  if (state_ == State::kBlocked) {
    rescue_timer_.arm(cfg_.blocked_rescue, [this] { on_blocked_rescue(); });
  }
  util::log_info(kLog, "daemon n", self_, " resumed");
}

std::unique_ptr<GroupMember> Daemon::join(std::string group,
                                          GroupCallbacks callbacks) {
  const GcsEndpoint ep{self_, next_local_id_++};
  auto handle = std::unique_ptr<GroupMember>(
      new GroupMember(*this, group, ep, std::move(callbacks)));
  groups_[group].handles.push_back(handle.get());
  stats_.groups_held = groups_.size();
  submit(wire::PayloadKind::kJoin, group, ep, {});
  return handle;
}

void Daemon::send_to_group(const std::string& group, util::Bytes payload) {
  submit(wire::PayloadKind::kApp, group, GcsEndpoint{self_, kNonMemberLocal},
         std::move(payload));
}

std::vector<GcsEndpoint> Daemon::group_members(std::string_view group) const {
  auto it = groups_.find(group);
  if (it == groups_.end() || !it->second.has_member_on(self_)) return {};
  return it->second.members;
}

void Daemon::member_send(GroupMember& member, util::Bytes payload) {
  submit(wire::PayloadKind::kApp, member.group_, member.endpoint_,
         std::move(payload));
}

void Daemon::member_leave(GroupMember& member) {
  if (auto it = groups_.find(member.group_); it != groups_.end()) {
    std::erase(it->second.handles, &member);
    release_if_unused(it);
  }
  submit(wire::PayloadKind::kLeave, member.group_, member.endpoint_, {});
}

// ------------------------------------------------------------------- dispatch

void Daemon::on_datagram(const net::Endpoint& from,
                         std::span<const std::byte> data) {
  if (halted_ || paused_) return;
  // Integrity gate: a datagram that fails length/CRC verification carries no
  // trustworthy information at all — not even its claimed sender — so it
  // must not refresh liveness or reach a decoder.
  const auto opened = util::frame_open(data);
  if (!opened) {
    socket_->note_corrupt_dropped();
    ++stats_.malformed_dropped;
    return;
  }
  const net::NodeId peer = from.node;
  last_heard_[peer] = sched_->now();
  suspects_.erase(peer);

  // An intact frame with an unknown tag or a decoder-rejected body is a
  // protocol violation (or a version skew), counted but otherwise inert.
  const auto type = wire::peek_type(data);
  if (!type) {
    ++stats_.malformed_dropped;
    return;
  }
  bool handled = false;
  switch (*type) {
    case wire::MsgType::kHeartbeat:
      if (auto m = wire::decode_heartbeat(*opened)) {
        handle_heartbeat(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kSubmit:
      if (auto batch = wire::decode_submit(*opened)) {
        for (wire::Submit& m : *batch) handle_submit(peer, std::move(m));
        handled = true;
      }
      break;
    case wire::MsgType::kOrdered:
      if (auto batch = wire::decode_ordered(*opened)) {
        for (wire::Ordered& m : *batch) handle_ordered(std::move(m));
        handled = true;
      }
      break;
    case wire::MsgType::kRetransReq:
      if (auto m = wire::decode_retrans_req(*opened)) {
        handle_retrans_req(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kPropose:
      if (auto m = wire::decode_propose(*opened)) {
        handle_propose(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kProposeAck:
      if (auto m = wire::decode_propose_ack(*opened)) {
        handle_propose_ack(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kFlushTarget:
      if (auto m = wire::decode_flush_target(*opened)) {
        handle_flush_target(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kFlushReq:
      if (auto m = wire::decode_flush_req(*opened)) {
        handle_flush_req(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kFlushReply:
      if (auto m = wire::decode_flush_reply(*opened)) {
        handle_flush_reply(peer, std::move(*m));
        handled = true;
      }
      break;
    case wire::MsgType::kFlushDone:
      if (auto m = wire::decode_flush_done(*opened)) {
        handle_flush_done(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kInstall:
      if (auto m = wire::decode_install(*opened)) {
        handle_install(peer, *m);
        handled = true;
      }
      break;
  }
  if (!handled) ++stats_.malformed_dropped;
}

void Daemon::send_to(net::NodeId node, std::span<const std::byte> bytes) {
  if (halted_ || paused_ || node == self_) return;
  socket_->send(net::Endpoint{node, cfg_.port}, bytes);
}

util::Writer& Daemon::outbox_for(net::NodeId dest, std::size_t bytes) {
  util::Writer& w = outbox_[dest];
  if (w.size() > 0 && w.size() + bytes > kMaxBatchBytes) send_batch(dest, w);
  if (w.size() == 0) wire::begin_batch(w, wire::MsgType::kOrdered);
  if (!outbox_timer_.pending()) {
    outbox_timer_.arm(0, [this] { flush_outbox(); });
  }
  return w;
}

void Daemon::send_batch(net::NodeId dest, util::Writer& w) {
  wire::seal_batch(w);
  send_to(dest, w.buffer());
  w.clear();
}

void Daemon::flush_outbox() {
  // Every submission from first_unsent_ on goes to the coordinator, or, on
  // the coordinator itself, straight to ordering. Deliveries that ordering
  // causes here may submit more; those arm the next flush.
  const std::uint64_t first = first_unsent_;
  const std::uint64_t end = first_unsent_ = submit_seq_counter_;
  if (state_ == State::kNormal && view_.id.coord != self_) {
    send_submits(first);
  } else if (state_ == State::kNormal) {
    for (std::uint64_t seq = first; seq < end; ++seq) {
      if (auto it = pending_.find(seq); it != pending_.end()) {
        it->second.view = view_.id;
        handle_submit(self_, it->second);  // a copy: delivery erases it
      }
    }
  }
  for (auto& [dest, w] : outbox_) {
    if (w.size() > 0) send_batch(dest, w);
  }
}

// ------------------------------------------------- submission & total order

void Daemon::submit(wire::PayloadKind kind, const std::string& group,
                    GcsEndpoint origin, util::Bytes payload) {
  if (halted_) return;
  const std::uint64_t seq = submit_seq_counter_++;
  pending_.emplace(seq, wire::Submit{view_.id, seq, kind, group, origin,
                                     std::move(payload)});
  // Handed over right after the event, batched with whatever else this
  // event submits, on the coordinator too; the resubmit timer covers losses
  // and coordinator changes (and drains anything queued while paused).
  if (state_ == State::kNormal && !paused_ && !outbox_timer_.pending()) {
    outbox_timer_.arm(0, [this] { flush_outbox(); });
  }
}

void Daemon::flush_pending_submits() {
  if (halted_ || state_ != State::kNormal || pending_.empty()) return;
  first_unsent_ = pending_.begin()->first;
  flush_outbox();
}

void Daemon::send_submits(std::uint64_t first) {
  util::Writer& w = scratch_;
  w.clear();
  for (auto it = pending_.lower_bound(first); it != pending_.end(); ++it) {
    if (w.size() > 0 &&
        w.size() + wire::encoded_size(it->second) > kMaxBatchBytes) {
      send_batch(view_.id.coord, w);
    }
    if (w.size() == 0) wire::begin_batch(w, wire::MsgType::kSubmit);
    it->second.view = view_.id;
    wire::append(w, it->second);
  }
  if (w.size() > 0) send_batch(view_.id.coord, w);
}

void Daemon::handle_submit(net::NodeId from, wire::Submit m) {
  if (state_ != State::kNormal || m.view != view_.id ||
      view_.id.coord != self_) {
    return;  // not the coordinator for this message; sender will retry
  }
  if (!view_.contains(from)) return;
  auto exp_it = next_submit_expected_.find(from);
  if (exp_it == next_submit_expected_.end()) return;
  if (m.sender_seq < exp_it->second) return;  // duplicate
  const std::uint64_t seq = m.sender_seq;
  submit_buffer_[from].try_emplace(seq, std::move(m));
  try_order_buffered(from);
}

void Daemon::try_order_buffered(net::NodeId sender) {
  auto& buf = submit_buffer_[sender];
  std::uint64_t& exp = next_submit_expected_[sender];
  for (auto it = buf.find(exp); it != buf.end(); it = buf.find(exp)) {
    ++exp;
    order_message(std::move(it->second), sender);
    buf.erase(it);
  }
}

void Daemon::order_message(wire::Submit m, net::NodeId sender) {
  wire::Ordered o;
  o.view = view_.id;
  o.gseq = next_order_gseq_++;
  o.sender = sender;
  o.sender_seq = m.sender_seq;
  o.sender_prev = std::exchange(last_from_[sender], o.gseq);
  o.kind = m.kind;
  o.group = std::move(m.group);
  o.origin = m.origin;
  o.payload = std::move(m.payload);
  route(o);
  ++stats_.messages_ordered;
  // Encode once and append the bytes to each destination's batch: copies
  // differ only in `prev`, patched in place.
  wire::encode_body(o, scratch_);
  bool to_self = false;
  for (net::NodeId dest : o.dests) {
    const std::uint64_t prev = std::exchange(last_sent_[dest], o.gseq);
    if (dest == self_) {
      o.prev = prev;
      to_self = true;
      continue;
    }
    util::Writer& w = outbox_for(dest, scratch_.size());
    wire::patch_prev(w, wire::append_body(w, scratch_.buffer()), prev);
  }
  if (!to_self) {
    retention_.emplace(o.gseq, std::move(o));
    return;
  }
  retention_.emplace(o.gseq, o);
  handle_ordered(std::move(o));
}

void Daemon::route(wire::Ordered& o) {
  // Endpoints sort by node, so each hosting daemon appears in one run.
  auto it = routes_.find(o.group);
  if (it != routes_.end()) {
    for (const GcsEndpoint& e : it->second.members) {
      if (o.dests.empty() || o.dests.back() != e.node) {
        o.dests.push_back(e.node);
      }
    }
  }
  // The sender needs its own copy to retire the pending submission; for a
  // join or leave it is also the daemon of the endpoint that comes or goes.
  auto pos = std::lower_bound(o.dests.begin(), o.dests.end(), o.sender);
  if (pos == o.dests.end() || *pos != o.sender) o.dests.insert(pos, o.sender);

  switch (o.kind) {
    case wire::PayloadKind::kApp:
      return;
    case wire::PayloadKind::kJoin: {
      if (it == routes_.end()) it = routes_.try_emplace(o.group).first;
      Group& g = it->second;
      o.members = g.members;
      if (g.add(o.origin)) ++g.change_seq;
      o.change_seq = g.change_seq;
      return;
    }
    case wire::PayloadKind::kLeave: {
      if (it == routes_.end()) return;
      Group& g = it->second;
      if (g.remove(o.origin)) ++g.change_seq;
      o.change_seq = g.change_seq;
      if (g.members.empty()) routes_.erase(it);
      return;
    }
  }
}

void Daemon::handle_ordered(wire::Ordered m) {
  // While a flush runs the held set must not change (see Flush).
  if (m.view != view_.id || flush_ || m.gseq <= horizon_) return;
  const std::uint64_t gseq = m.gseq;
  holdback_.try_emplace(gseq, std::move(m));
  deliver_ready();
}

void Daemon::deliver_ready() {
  // The lowest held message is next when it chains onto the horizon.
  // Delivery never orders (own submissions wait for the end-of-event flush),
  // so nothing below re-enters this loop.
  while (!holdback_.empty() && holdback_.begin()->second.prev <= horizon_) {
    auto it = holdback_.begin();
    wire::Ordered m = std::move(it->second);
    holdback_.erase(it);
    horizon_ = m.gseq;
    deliver_one(m);
    // No-op on the coordinator, whose sent log already holds it.
    retention_.try_emplace(m.gseq, std::move(m));
  }
}

void Daemon::deliver_one(const wire::Ordered& m) {
  ++stats_.messages_delivered;
  if (m.sender == self_) pending_.erase(m.sender_seq);

  if (m.kind != wire::PayloadKind::kApp) {
    apply_membership(m);
    return;
  }
  auto it = groups_.find(m.group);
  if (it == groups_.end()) return;
  // Copy: callbacks may join/leave reentrantly.
  const std::vector<GroupMember*> handles = it->second.handles;
  for (GroupMember* h : handles) {
    if (h->callbacks_.on_message) h->callbacks_.on_message(m.origin, m.payload);
  }
}

void Daemon::apply_membership(const wire::Ordered& m) {
  // Only the group's hosts and the joining or leaving daemon get a join or
  // leave, and a join carries the members before it: a daemon that starts
  // hosting the group here builds its entry from the message, and every
  // host ends up with the coordinator's members and change number.
  GroupTable::iterator it;
  if (m.kind == wire::PayloadKind::kJoin) {
    if (std::binary_search(m.members.begin(), m.members.end(), m.origin)) {
      return;  // already a member: nothing changed
    }
    it = groups_.try_emplace(m.group).first;
    it->second.members = m.members;
    it->second.add(m.origin);
  } else {
    it = groups_.find(m.group);
    if (it == groups_.end() || !it->second.remove(m.origin)) {
      return;
    }
  }
  Group& g = it->second;
  g.change_seq = m.change_seq;
  // Released before the callbacks run: they may join or leave reentrantly.
  if (g.handles.empty()) {
    release_if_unused(it);
    return;
  }
  stats_.groups_held = groups_.size();
  emit_group_view(it->first, g);
}

void Daemon::emit_group_view(const std::string& group, const Group& g) {
  if (g.handles.empty()) return;
  const GroupView gv{group, view_.id.counter, g.change_seq, g.members};
  // Copy: callbacks may join/leave reentrantly, and may erase the entry.
  const std::vector<GroupMember*> handles = g.handles;
  for (GroupMember* h : handles) {
    h->last_view_ = gv;
    if (h->callbacks_.on_view) h->callbacks_.on_view(gv);
  }
}

void Daemon::release_if_unused(GroupTable::iterator it) {
  if (it->second.handles.empty() && !it->second.has_member_on(self_)) {
    groups_.erase(it);
  }
  stats_.groups_held = groups_.size();
}

std::vector<wire::GroupReg> Daemon::local_regs_snapshot() const {
  std::vector<wire::GroupReg> regs;
  for (const auto& [group, g] : groups_) {
    for (const GroupMember* h : g.handles) {
      regs.push_back(wire::GroupReg{group, h->endpoint_});
    }
  }
  return regs;
}

// ------------------------------------------------------------ retransmission

void Daemon::maybe_nack() {
  if (halted_) return;
  if (flush_) {
    request_flush();  // the exchange replaces NACKs while it runs
    return;
  }
  if (view_.id.coord == self_) return;  // holds everything it ordered

  // Every held message whose `prev` is beyond the message before it (held
  // or delivered) ends one gap: exactly the messages missing here.
  std::map<std::uint64_t, std::uint64_t> gaps;
  std::uint64_t before = horizon_;
  for (const auto& [gseq, m] : holdback_) {
    if (m.prev > before) gaps.emplace(before + 1, m.prev);
    before = gseq;
  }
  // One outstanding request per gap: a gap is requested once it has
  // outlived a whole tick (a reordered datagram closes it sooner), and
  // again only after a further tick without progress on it.
  for (const auto& [from, to] : gaps) {
    auto it = gaps_.find(from);
    if (it == gaps_.end() || it->second != to) continue;
    wire::encode_into(wire::RetransReq{view_.id, from, to}, scratch_);
    send_to(view_.id.coord, scratch_.buffer());
  }
  gaps_ = std::move(gaps);
}

void Daemon::handle_retrans_req(net::NodeId from, const wire::RetransReq& m) {
  // Only the coordinator holds every message of the view, so only it can
  // rebuild the requester's chain: from_gseq - 1 is the requester's last
  // delivered or held gseq.
  if (m.view != view_.id || view_.id.coord != self_ || m.from_gseq == 0) {
    return;
  }
  std::uint64_t prev = m.from_gseq - 1;
  for (auto it = retention_.lower_bound(m.from_gseq);
       it != retention_.end() && it->first <= m.to_gseq; ++it) {
    wire::Ordered& o = it->second;
    if (!o.addressed_to(from)) continue;
    o.prev = std::exchange(prev, o.gseq);
    wire::append(outbox_for(from, wire::encoded_size(o)), o);
    ++stats_.retransmissions;
  }
}

void Daemon::repair_tail(net::NodeId member, std::uint64_t horizon) {
  // NACKs only fire when a later message reveals a gap. A member whose
  // horizon stood still for a whole heartbeat interval below what had been
  // sent to it before that interval lost the tail: push it.
  const MemberProgress now{horizon, last_sent(member)};
  auto [it, first] = progress_.try_emplace(member, now);
  const MemberProgress before = std::exchange(it->second, now);
  if (!first && horizon == before.horizon && horizon < before.sent) {
    handle_retrans_req(member,
                       wire::RetransReq{view_.id, horizon + 1, before.sent});
  }
}

std::uint64_t Daemon::last_sent(net::NodeId member) const {
  auto it = last_sent_.find(member);
  return it == last_sent_.end() ? 0 : it->second;
}

void Daemon::trim_retention(std::uint64_t safe) {
  retention_.erase(retention_.begin(), retention_.upper_bound(safe));
}

std::uint64_t Daemon::first_pending_seq() const {
  return pending_.empty() ? submit_seq_counter_ : pending_.begin()->first;
}

void Daemon::renumber_pending(std::uint64_t first) {
  // The new coordinator expects `first` (our first pending submission when
  // we acked the proposal). A flush can have delivered some of those since,
  // leaving holes; sequence numbers of a dead view mean nothing, so close
  // them up.
  std::map<std::uint64_t, wire::Submit> renumbered;
  std::uint64_t seq = first;
  for (auto& [old, m] : pending_) {
    m.sender_seq = seq;
    renumbered.emplace(seq++, std::move(m));
  }
  pending_ = std::move(renumbered);
  submit_seq_counter_ = seq;
  first_unsent_ = seq;
}

}  // namespace ftvod::gcs
