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

// -------------------------------------------------------------- Daemon::Epoch

Daemon::Epoch::Epoch(const wire::Install& m, net::NodeId self)
    : view{m.pv, m.members} {
  members.reserve(view.members.size());
  for (net::NodeId n : view.members) members.emplace_back(n);
  for (const auto& [node, seq] : m.submit_seqs) {
    if (Member* mem = member(node)) mem->next_submit = seq;
  }
  if (view.id.coord != self) return;
  // Each group's change count restarts at 1, which is what a later join or
  // leave counts on from.
  for (const wire::GroupReg& reg : m.group_table) {
    routes[reg.group].add(reg.member);
  }
  for (auto& [name, g] : routes) g.change_seq = 1;
}

Daemon::Epoch::Member* Daemon::Epoch::member(net::NodeId node) {
  auto at = std::lower_bound(
      members.begin(), members.end(), node,
      [](const Member& mem, net::NodeId n) { return mem.node < n; });
  return at != members.end() && at->node == node ? &*at : nullptr;
}

// --------------------------------------------------------------------- Daemon

Daemon::Daemon(sim::Scheduler& sched, net::Network& net, net::NodeId self,
               GcsConfig cfg)
    : sched_(&sched),
      net_(&net),
      self_(self),
      cfg_(std::move(cfg)),
      // The first view is this daemon alone, built like every later one.
      epoch_(wire::Install{.pv = ViewId{1, self},
                           .members = {self},
                           .group_table = {},
                           .submit_seqs = {{self, 1}}},
             self),
      max_counter_seen_(1),
      outbox_timer_(sched),
      accepted_pv_(epoch_.view.id),
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
  socket_->on_crash([this] { halt(); });

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

void Daemon::stop_timers() {
  heartbeat_timer_.stop();
  fd_timer_.stop();
  resubmit_timer_.stop();
  nack_timer_.stop();
  outbox_timer_.cancel();
  propose_retry_timer_.cancel();
  rescue_timer_.cancel();
}

void Daemon::halt() {
  if (halted_) return;
  halted_ = true;
  stop_timers();
  util::log_info(kLog, "daemon n", self_, " halted");
}

void Daemon::pause() {
  if (halted_ || paused_) return;
  paused_ = true;
  stop_timers();
  util::log_info(kLog, "daemon n", self_, " paused");
}

void Daemon::resume() {
  if (halted_ || !paused_) return;
  paused_ = false;
  // Deliberately leave the peers' last_heard stale: the first fd check
  // suspects every member the pause outlived, which drives the daemon into
  // a fresh view of its own; peers re-admit it through the merge path. An
  // in-flight proposal from before the pause is abandoned the same way.
  proposal_.reset();
  pending_install_.reset();
  heartbeat_timer_.start();
  fd_timer_.start();
  resubmit_timer_.start();
  nack_timer_.start();
  if (blocked()) {
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
  Peer& p = peers_[peer];
  p.last_heard = sched_->now();
  p.suspect = false;

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
      if (auto m = wire::decode<wire::Heartbeat>(*opened)) {
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
      if (auto m = wire::decode<wire::RetransReq>(*opened)) {
        handle_retrans_req(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kPropose:
      if (auto m = wire::decode<wire::Propose>(*opened)) {
        handle_propose(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kProposeAck:
      if (auto m = wire::decode<wire::ProposeAck>(*opened)) {
        handle_propose_ack(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kFlushTarget:
      if (auto m = wire::decode<wire::FlushTarget>(*opened)) {
        handle_flush_target(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kFlushReq:
      if (auto m = wire::decode<wire::FlushReq>(*opened)) {
        handle_flush_req(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kFlushReply:
      if (auto m = wire::decode<wire::FlushReply>(*opened)) {
        handle_flush_reply(peer, std::move(*m));
        handled = true;
      }
      break;
    case wire::MsgType::kFlushDone:
      if (auto m = wire::decode<wire::FlushDone>(*opened)) {
        handle_flush_done(peer, *m);
        handled = true;
      }
      break;
    case wire::MsgType::kInstall:
      if (auto m = wire::decode<wire::Install>(*opened)) {
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
  const ViewId& view = epoch_.view.id;
  if (!blocked() && view.coord != self_) {
    send_submits(first);
  } else if (!blocked()) {
    for (std::uint64_t seq = first; seq < end; ++seq) {
      if (auto it = pending_.find(seq); it != pending_.end()) {
        it->second.view = view;
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
  pending_.emplace(seq, wire::Submit{epoch_.view.id, seq, kind, group,
                                     origin, std::move(payload)});
  // Handed over right after the event, batched with whatever else this
  // event submits, on the coordinator too; the resubmit timer covers losses
  // and coordinator changes (and drains anything queued while paused).
  if (!blocked() && !paused_ && !outbox_timer_.pending()) {
    outbox_timer_.arm(0, [this] { flush_outbox(); });
  }
}

void Daemon::flush_pending_submits() {
  if (halted_ || blocked() || pending_.empty()) return;
  first_unsent_ = pending_.begin()->first;
  flush_outbox();
}

void Daemon::send_submits(std::uint64_t first) {
  const ViewId& view = epoch_.view.id;
  util::Writer& w = scratch_;
  w.clear();
  for (auto it = pending_.lower_bound(first); it != pending_.end(); ++it) {
    if (w.size() > 0 &&
        w.size() + wire::encoded_size(it->second) > kMaxBatchBytes) {
      send_batch(view.coord, w);
    }
    if (w.size() == 0) wire::begin_batch(w, wire::MsgType::kSubmit);
    it->second.view = view;
    wire::append(w, it->second);
  }
  if (w.size() > 0) send_batch(view.coord, w);
}

void Daemon::handle_submit(net::NodeId from, wire::Submit m) {
  if (blocked() || m.view != epoch_.view.id || m.view.coord != self_) {
    return;  // not the coordinator for this message; sender will retry
  }
  Epoch::Member* sender = epoch_.member(from);
  if (sender == nullptr || sender->next_submit == 0 ||
      m.sender_seq < sender->next_submit) {
    return;  // not a member, or a duplicate
  }
  const std::uint64_t seq = m.sender_seq;
  sender->early.try_emplace(seq, std::move(m));
  try_order_buffered(*sender);
}

void Daemon::try_order_buffered(Epoch::Member& sender) {
  auto& buf = sender.early;
  for (auto it = buf.find(sender.next_submit); it != buf.end();
       it = buf.find(sender.next_submit)) {
    ++sender.next_submit;
    order_message(std::move(it->second), sender);
    buf.erase(it);
  }
}

void Daemon::order_message(wire::Submit m, Epoch::Member& sender) {
  wire::Ordered o;
  o.view = epoch_.view.id;
  o.gseq = epoch_.next_order_gseq++;
  o.sender = sender.node;
  o.sender_seq = m.sender_seq;
  o.sender_prev = std::exchange(sender.last_from, o.gseq);
  o.kind = m.kind;
  o.group = std::move(m.group);
  o.origin = m.origin;
  o.payload = std::move(m.payload);
  route(o);
  ++stats_.messages_ordered;
  // Encode once and append the bytes to each destination's batch: copies
  // differ only in `prev`, patched in place. A destination outside the
  // view (a group member only a forged origin can name) gets no copy.
  wire::encode_body(o, scratch_);
  bool to_self = false;
  for (net::NodeId dest : o.dests) {
    Epoch::Member* to = epoch_.member(dest);
    if (to == nullptr) continue;
    const std::uint64_t prev = std::exchange(to->last_sent, o.gseq);
    if (dest == self_) {
      o.prev = prev;
      to_self = true;
      continue;
    }
    util::Writer& w = outbox_for(dest, scratch_.size());
    wire::patch_prev(w, wire::append_body(w, scratch_.buffer()), prev);
  }
  if (!to_self) {
    epoch_.retention.emplace(o.gseq, std::move(o));
    return;
  }
  epoch_.retention.emplace(o.gseq, o);
  handle_ordered(std::move(o));
}

void Daemon::route(wire::Ordered& o) {
  // Endpoints sort by node, so each hosting daemon appears in one run.
  GroupTable& routes = epoch_.routes;
  auto it = routes.find(o.group);
  if (it != routes.end()) {
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
      if (it == routes.end()) it = routes.try_emplace(o.group).first;
      Group& g = it->second;
      o.members = g.members;
      if (g.add(o.origin)) ++g.change_seq;
      o.change_seq = g.change_seq;
      return;
    }
    case wire::PayloadKind::kLeave: {
      if (it == routes.end()) return;
      Group& g = it->second;
      if (g.remove(o.origin)) ++g.change_seq;
      o.change_seq = g.change_seq;
      if (g.members.empty()) routes.erase(it);
      return;
    }
  }
}

void Daemon::handle_ordered(wire::Ordered m) {
  // While a flush runs the held set must not change (see Flush).
  if (m.view != epoch_.view.id || flush_ || m.gseq <= epoch_.horizon) return;
  const std::uint64_t gseq = m.gseq;
  epoch_.holdback.try_emplace(gseq, std::move(m));
  deliver_ready();
}

void Daemon::deliver_ready() {
  // The lowest held message is next when it chains onto the horizon.
  // Delivery never orders (own submissions wait for the end-of-event flush),
  // so nothing below re-enters this loop.
  auto& holdback = epoch_.holdback;
  while (!holdback.empty() && holdback.begin()->second.prev <= epoch_.horizon) {
    auto it = holdback.begin();
    wire::Ordered m = std::move(it->second);
    holdback.erase(it);
    epoch_.horizon = m.gseq;
    deliver_one(m);
    // No-op on the coordinator, whose sent log already holds it.
    epoch_.retention.try_emplace(m.gseq, std::move(m));
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
  const GroupView gv{group, epoch_.view.id.counter, g.change_seq, g.members};
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
  const ViewId& view = epoch_.view.id;
  if (view.coord == self_) return;  // holds everything it ordered

  // Every held message whose `prev` is beyond the message before it (held
  // or delivered) ends one gap: exactly the messages missing here.
  std::map<std::uint64_t, std::uint64_t> gaps;
  std::uint64_t before = epoch_.horizon;
  for (const auto& [gseq, m] : epoch_.holdback) {
    if (m.prev > before) gaps.emplace(before + 1, m.prev);
    before = gseq;
  }
  // One outstanding request per gap: a gap is requested once it has
  // outlived a whole tick (a reordered datagram closes it sooner), and
  // again only after a further tick without progress on it.
  for (const auto& [from, to] : gaps) {
    auto it = epoch_.gaps.find(from);
    if (it == epoch_.gaps.end() || it->second != to) continue;
    wire::encode_into(wire::RetransReq{view, from, to}, scratch_);
    send_to(view.coord, scratch_.buffer());
  }
  epoch_.gaps = std::move(gaps);
}

void Daemon::handle_retrans_req(net::NodeId from, const wire::RetransReq& m) {
  // Only the coordinator holds every message of the view, so only it can
  // rebuild the requester's chain: from_gseq - 1 is the requester's last
  // delivered or held gseq.
  if (m.view != epoch_.view.id || m.view.coord != self_ || m.from_gseq == 0) {
    return;
  }
  std::uint64_t prev = m.from_gseq - 1;
  auto& retention = epoch_.retention;
  for (auto it = retention.lower_bound(m.from_gseq);
       it != retention.end() && it->first <= m.to_gseq; ++it) {
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
  Epoch::Member* mem = epoch_.member(member);
  if (mem == nullptr) return;
  const auto before = std::exchange(
      mem->progress, Epoch::Member::Progress{horizon, mem->last_sent});
  if (before && horizon == before->horizon && horizon < before->sent) {
    handle_retrans_req(
        member, wire::RetransReq{epoch_.view.id, horizon + 1, before->sent});
  }
}

void Daemon::trim_retention(std::uint64_t safe) {
  auto& retention = epoch_.retention;
  retention.erase(retention.begin(), retention.upper_bound(safe));
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
