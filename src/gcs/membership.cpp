// View-change half of the GCS daemon: failure detection, merge discovery,
// the propose/flush/install protocol, and its failure/retry paths.
#include <algorithm>

#include "gcs/daemon.hpp"
#include "util/log.hpp"

namespace ftvod::gcs {

namespace {
constexpr std::string_view kLog = "gcs";
constexpr int kMaxProposalRounds = 3;
constexpr int kInstallResends = 2;
/// A flush answer part is closed before it would pass UDP's largest
/// payload; this covers its fixed fields.
constexpr std::size_t kMaxFlushPartBytes = 65'507 - 64;

std::vector<net::NodeId> sorted_unique(std::vector<net::NodeId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}
}  // namespace

// ---------------------------------------------------------- heartbeats & FD

void Daemon::on_heartbeat_timer() {
  if (halted_) return;
  Epoch& e = epoch_;
  wire::Heartbeat hb;
  hb.view = e.view.id;
  hb.members = e.view.members;
  hb.delivered_upto = e.horizon;
  if (e.view.id.coord == self_ && !blocked()) {
    // Stability horizon: every message up to it reached all of its
    // destinations. A member whose horizon is the last gseq sent to it has
    // everything and bounds nothing.
    std::uint64_t safe = e.next_order_gseq - 1;
    for (const Epoch::Member& m : e.members) {
      std::uint64_t horizon = e.horizon;
      if (m.node != self_) horizon = m.progress ? m.progress->horizon : 0;
      if (horizon < m.last_sent) safe = std::min(safe, horizon);
    }
    e.safe_upto = safe;
    trim_retention(e.safe_upto);
  }
  hb.safe_upto = e.safe_upto;
  wire::encode_into(hb, scratch_);
  for (net::NodeId peer : cfg_.peers) {
    if (peer != self_) send_to(peer, scratch_.buffer());
  }
}

void Daemon::handle_heartbeat(net::NodeId from, const wire::Heartbeat& m) {
  max_counter_seen_ = std::max(max_counter_seen_, m.view.counter);
  if (proposal_ && m.view.counter >= proposal_->pv.counter &&
      std::find(proposal_->members.begin(), proposal_->members.end(),
                from) != proposal_->members.end()) {
    // A prospective member installed a view at least as new as our
    // proposal (a concurrent proposer won it), so it refuses ours as stale
    // for good. Propose afresh above that view, with its members, instead
    // of letting the retry rounds write a live daemon off as unresponsive
    // and split us off into a view of our own.
    std::vector<net::NodeId> members = proposal_->members;
    for (net::NodeId n : m.members) {
      if (!suspected(n)) members.push_back(n);
    }
    util::log_info(kLog, "n", self_, " sees n", from, " in ", m.view,
                   "; re-proposing above it");
    proposal_.reset();
    start_proposal(std::move(members));
    return;
  }
  Peer& peer = peers_[from];
  if (m.view == epoch_.view.id) {
    if (from == m.view.coord && m.safe_upto > epoch_.safe_upto &&
        !blocked()) {
      epoch_.safe_upto = m.safe_upto;
      trim_retention(epoch_.safe_upto);
    }
    if (m.view.coord == self_ && !blocked()) {
      repair_tail(from, m.delivered_upto);
    }
    peer.foreign.reset();
    return;
  }
  if (!epoch_.view.contains(from)) {
    // A daemon in a different view: candidate for a merge.
    peer.foreign = m;
    consider_view_change();
    return;
  }
  // A member of our view advertising a view that no longer *contains us*
  // means we were dropped while unable to notice (classic case: this daemon
  // was paused past the suspect timeout, and on resume the others' ongoing
  // heartbeats keep refreshing last_heard, so we never self-suspect). We
  // cannot sit this out: the merge rule defers to the lowest candidate id,
  // which may well be us. Treat the sighting as foreign so the normal
  // merge path runs from our side too.
  if (std::find(m.members.begin(), m.members.end(), self_) ==
      m.members.end()) {
    peer.foreign = m;
    consider_view_change();
  }
  // A member advertising a different view that still includes us just means
  // we missed an install; retransmission repairs that. Nothing to do here.
}

bool Daemon::suspected(net::NodeId node) const {
  auto it = peers_.find(node);
  return it != peers_.end() && it->second.suspect;
}

void Daemon::on_fd_check() {
  if (halted_) return;
  const sim::Time now = sched_->now();
  for (net::NodeId m : epoch_.view.members) {
    if (m == self_) continue;
    Peer& p = peers_[m];
    if (now - p.last_heard > cfg_.suspect_timeout && !p.suspect) {
      p.suspect = true;
      util::log_info(kLog, "n", self_, " suspects n", m);
    }
  }
  check_flush_progress();  // a suspected survivor may be all it waits for
  // Forget stale foreign sightings so we do not merge with the departed.
  for (auto& [node, p] : peers_) {
    if (now - p.last_heard > cfg_.suspect_timeout) p.foreign.reset();
  }
  consider_view_change();
}

void Daemon::consider_view_change() {
  if (halted_ || proposal_.has_value()) return;

  const sim::Time now = sched_->now();
  const std::vector<net::NodeId>& members = epoch_.view.members;
  const bool have_suspect_member =
      std::any_of(members.begin(), members.end(),
                  [&](net::NodeId m) { return suspected(m); });
  const bool have_foreign = std::any_of(
      peers_.begin(), peers_.end(),
      [](const auto& entry) { return entry.second.foreign.has_value(); });

  if (blocked()) {
    // A proposal by someone else is in progress; only interfere if the
    // proposer itself is now suspected (handled by the rescue timer).
    return;
  }
  if (!have_suspect_member && !have_foreign) return;

  // Candidate membership: survivors of our view plus everyone heard in
  // foreign views, minus suspects.
  std::vector<net::NodeId> candidate;
  for (net::NodeId m : members) {
    if (!suspected(m)) candidate.push_back(m);
  }
  if (have_foreign) {
    if (now - last_proposal_time_ < cfg_.merge_backoff) return;
    for (const auto& [node, p] : peers_) {
      if (!p.foreign) continue;
      if (!p.suspect) candidate.push_back(node);
      for (net::NodeId m : p.foreign->members) {
        if (!suspected(m)) candidate.push_back(m);
      }
    }
  } else if (now - last_proposal_time_ < cfg_.propose_retry) {
    return;
  }
  candidate = sorted_unique(std::move(candidate));
  if (candidate.empty() || candidate.front() != self_) return;
  start_proposal(std::move(candidate));
}

// ------------------------------------------------------------- proposer side

void Daemon::start_proposal(std::vector<net::NodeId> members) {
  members = sorted_unique(std::move(members));
  if (std::find(members.begin(), members.end(), self_) == members.end()) {
    members.push_back(self_);
    std::sort(members.begin(), members.end());
  }
  Proposal p;
  p.pv = ViewId{max_counter_seen_ + 1, self_};
  p.members = members;
  max_counter_seen_ = p.pv.counter;

  util::log_info(kLog, "n", self_, " proposes ", p.pv, " with ",
                 p.members.size(), " members");

  last_proposal_time_ = sched_->now();
  accepted_pv_ = p.pv;
  last_proposed_members_ = p.members;
  flush_.reset();

  // Record our own ack.
  wire::ProposeAck self_ack;
  self_ack.pv = p.pv;
  self_ack.old_view = epoch_.view.id;
  self_ack.next_submit_seq = first_pending_seq();
  self_ack.regs = local_regs_snapshot();
  p.acks.emplace(self_, std::move(self_ack));

  proposal_ = std::move(p);

  const util::Bytes bytes =
      wire::encode(wire::Propose{proposal_->pv, proposal_->members});
  for (net::NodeId m : proposal_->members) {
    if (m != self_) send_to(m, bytes);
  }
  propose_retry_timer_.arm(cfg_.propose_retry, [this] { on_propose_retry(); });
  maybe_enter_flush_phase();
}

void Daemon::handle_propose_ack(net::NodeId from, const wire::ProposeAck& m) {
  if (!proposal_ || m.pv != proposal_->pv) return;
  proposal_->acks[from] = m;
  maybe_enter_flush_phase();
}

void Daemon::maybe_enter_flush_phase() {
  if (!proposal_ || proposal_->flush_phase) return;
  for (net::NodeId m : proposal_->members) {
    if (!proposal_->acks.contains(m)) return;
  }
  proposal_->flush_phase = true;

  // Group the candidates by the view they come from ("cluster"); each
  // cluster's survivors flush among themselves.
  std::map<ViewId, std::vector<net::NodeId>> clusters;
  for (const auto& [node, ack] : proposal_->acks) {
    clusters[ack.old_view].push_back(node);
  }
  wire::FlushTarget ft;
  ft.pv = proposal_->pv;
  for (auto& [view, survivors] : clusters) {
    ft.entries.push_back({view, std::move(survivors)});
  }
  proposal_->targets = ft;

  const util::Bytes bytes = wire::encode(ft);
  for (net::NodeId m : proposal_->members) {
    if (m != self_) send_to(m, bytes);
  }
  handle_flush_target(self_, ft);
  propose_retry_timer_.arm(cfg_.propose_retry, [this] { on_propose_retry(); });
}

void Daemon::handle_flush_done(net::NodeId from, const wire::FlushDone& m) {
  if (!proposal_ || m.pv != proposal_->pv) return;
  if (!m.dropped.empty()) {
    // A survivor gave up on peers it suspects, so its flush is incomplete:
    // propose again without exactly those.
    std::vector<net::NodeId> keep;
    for (net::NodeId n : proposal_->members) {
      if (std::find(m.dropped.begin(), m.dropped.end(), n) ==
          m.dropped.end()) {
        keep.push_back(n);
      }
    }
    util::log_warn(kLog, "n", self_, " re-proposes without ",
                   m.dropped.size(), " daemon(s) n", from, " gave up on");
    proposal_.reset();
    start_proposal(std::move(keep));
    return;
  }
  proposal_->flush_done.insert(from);
  maybe_install();
}

void Daemon::maybe_install() {
  if (!proposal_ || !proposal_->flush_phase) return;
  for (net::NodeId m : proposal_->members) {
    if (!proposal_->flush_done.contains(m)) return;
  }
  build_and_send_install();
}

void Daemon::build_and_send_install() {
  wire::Install inst;
  inst.pv = proposal_->pv;
  inst.members = proposal_->members;
  for (const auto& [node, ack] : proposal_->acks) {
    inst.group_table.insert(inst.group_table.end(), ack.regs.begin(),
                            ack.regs.end());
    inst.submit_seqs.emplace_back(node, ack.next_submit_seq);
  }
  util::log_info(kLog, "n", self_, " installs ", inst.pv, " (",
                 inst.members.size(), " members)");
  const util::Bytes bytes = wire::encode(inst);
  for (net::NodeId m : inst.members) {
    if (m != self_) send_to(m, bytes);
  }
  // Best-effort resends; a member that misses all of them re-merges later.
  pending_install_ = inst;
  install_resends_left_ = kInstallResends;
  apply_install(inst);
  schedule_install_resend();
}

void Daemon::schedule_install_resend() {
  if (install_resends_left_ <= 0 || !pending_install_) return;
  --install_resends_left_;
  propose_retry_timer_.arm(cfg_.propose_retry, [this] {
    if (!pending_install_ || halted_) return;
    const util::Bytes bytes = wire::encode(*pending_install_);
    for (net::NodeId m : pending_install_->members) {
      if (m != self_) send_to(m, bytes);
    }
    schedule_install_resend();
  });
}

void Daemon::on_propose_retry() {
  if (!proposal_ || halted_) return;
  ++proposal_->round;
  if (proposal_->round > kMaxProposalRounds) {
    abandon_unresponsive_and_retry();
    return;
  }
  if (!proposal_->flush_phase) {
    const util::Bytes bytes =
        wire::encode(wire::Propose{proposal_->pv, proposal_->members});
    for (net::NodeId m : proposal_->members) {
      if (!proposal_->acks.contains(m)) send_to(m, bytes);
    }
  } else {
    const util::Bytes bytes = wire::encode(proposal_->targets);
    for (net::NodeId m : proposal_->members) {
      if (!proposal_->flush_done.contains(m)) send_to(m, bytes);
    }
  }
  propose_retry_timer_.arm(cfg_.propose_retry, [this] { on_propose_retry(); });
}

void Daemon::abandon_unresponsive_and_retry() {
  // Keep only members that progressed; everyone else is treated as failed.
  std::vector<net::NodeId> responsive;
  for (net::NodeId m : proposal_->members) {
    const bool ok = proposal_->flush_phase ? proposal_->flush_done.contains(m)
                                           : proposal_->acks.contains(m);
    if (ok) {
      responsive.push_back(m);
    } else {
      peers_[m].suspect = true;
      util::log_warn(kLog, "n", self_, " abandons unresponsive n", m,
                     " during view change");
    }
  }
  proposal_.reset();
  last_proposal_time_ = -1'000'000'000;  // allow immediate retry
  start_proposal(std::move(responsive));
}

// ---------------------------------------------------------- participant side

void Daemon::handle_propose(net::NodeId from, const wire::Propose& m) {
  if (from != m.pv.coord) return;  // only the proposer proposes its view
  max_counter_seen_ = std::max(max_counter_seen_, m.pv.counter);
  if (m.pv.counter <= epoch_.view.id.counter) return;  // stale
  if (std::find(m.members.begin(), m.members.end(), self_) ==
      m.members.end()) {
    return;  // not part of that proposal
  }
  if (m.pv < accepted_pv_) return;  // promised a higher proposal
  // A repeat of the proposal already accepted (newer than the view, so the
  // daemon is blocked on it) is only acked again.
  if (m.pv != accepted_pv_) {
    if (proposal_ && proposal_->pv < m.pv) {
      // Our own lower proposal loses; its members will adopt the higher one.
      proposal_.reset();
      propose_retry_timer_.cancel();
      pending_install_.reset();
    }
    accepted_pv_ = m.pv;
    last_proposed_members_ = m.members;
    if (flush_ && flush_->pv != m.pv) flush_.reset();
    rescue_timer_.arm(cfg_.blocked_rescue, [this] { on_blocked_rescue(); });
  }
  wire::ProposeAck ack;
  ack.pv = m.pv;
  ack.old_view = epoch_.view.id;
  ack.next_submit_seq = first_pending_seq();
  ack.regs = local_regs_snapshot();
  if (from == self_) {
    handle_propose_ack(self_, ack);
  } else {
    send_to(from, wire::encode(ack));
  }
}

// The flush exchange. Each survivor of an old view asks every other
// survivor of it for the headers of everything it holds and for the held
// messages addressed to the asker above its horizon. Once every peer's
// answer is complete it reports FlushDone; on install it delivers its share
// of the cut every survivor settles alike from the same headers (see
// deliver_flushed). Delivering on install rather than on completion keeps
// an abandoned proposal from leaving skips behind.

template <typename F>
void Daemon::for_each_held(F f) const {
  const auto delivered = [&](const wire::Ordered& o) {
    return o.gseq <= epoch_.horizon && o.addressed_to(self_);
  };
  for (const auto& [gseq, o] : epoch_.retention) f(o, delivered(o));
  // The coordinator's undelivered own copies are also in its sent log.
  for (const auto& [gseq, o] : epoch_.holdback) {
    if (!epoch_.retention.contains(gseq)) f(o, delivered(o));
  }
}

void Daemon::merge_held(const wire::Held& h) {
  auto [it, fresh] = flush_->held.try_emplace(h.gseq, h);
  if (!fresh) it->second.delivered = it->second.delivered || h.delivered;
}

void Daemon::handle_flush_target(net::NodeId from, const wire::FlushTarget& m) {
  (void)from;
  if (m.pv != accepted_pv_ || !blocked()) return;
  if (flush_ && flush_->pv == m.pv) {
    if (flush_->done) send_flush_done();  // a resent target: ours was lost
    return;
  }
  flush_.emplace();
  flush_->pv = m.pv;
  flush_->safe_upto = epoch_.safe_upto;
  for (const auto& e : m.entries) {
    if (e.old_view != epoch_.view.id) continue;
    for (net::NodeId n : e.survivors) {
      if (n != self_) flush_->peers[n];
    }
  }
  for_each_held([&](const wire::Ordered& o, bool delivered) {
    merge_held(wire::Held{o.gseq, o.sender_prev, delivered});
  });
  epoch_.gaps.clear();
  request_flush();
  check_flush_progress();
}

void Daemon::request_flush() {
  wire::encode_into(wire::FlushReq{flush_->pv, epoch_.horizon}, scratch_);
  for (const auto& [peer, p] : flush_->peers) {
    if (!p.complete()) send_to(peer, scratch_.buffer());
  }
}

void Daemon::handle_flush_req(net::NodeId from, const wire::FlushReq& m) {
  // Answer only once frozen for the same proposal and only a survivor of
  // our own view: the held set no longer changes, so every answer to the
  // asker is the same, split into the same parts.
  if (!flush_ || flush_->pv != m.pv || !flush_->peers.contains(from)) return;
  std::vector<wire::FlushReply> parts(1);
  std::size_t bytes = 0;
  const auto part_with_room = [&](std::size_t n) -> wire::FlushReply& {
    if (bytes > 0 && bytes + n > kMaxFlushPartBytes) {
      parts.emplace_back();
      bytes = 0;
    }
    bytes += n;
    return parts.back();
  };
  for_each_held([&](const wire::Ordered& o, bool delivered) {
    const wire::Held h{o.gseq, o.sender_prev, delivered};
    part_with_room(wire::encoded_size(h)).held.push_back(h);
    if (o.gseq > m.horizon && o.addressed_to(from)) {
      part_with_room(wire::encoded_size(o)).msgs.push_back(o);
    }
  });
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].pv = m.pv;
    parts[i].part = static_cast<std::uint32_t>(i);
    parts[i].parts = static_cast<std::uint32_t>(parts.size());
    parts[i].safe_upto = epoch_.safe_upto;
    wire::encode_into(parts[i], scratch_);
    send_to(from, scratch_.buffer());
  }
}

void Daemon::handle_flush_reply(net::NodeId from, wire::FlushReply m) {
  if (!flush_ || flush_->pv != m.pv) return;
  auto peer = flush_->peers.find(from);
  if (peer == flush_->peers.end() || peer->second.complete()) return;
  if (!peer->second.got.insert(m.part).second) return;  // a repeat
  peer->second.parts = m.parts;
  flush_->safe_upto = std::max(flush_->safe_upto, m.safe_upto);
  for (const wire::Held& h : m.held) merge_held(h);
  for (wire::Ordered& o : m.msgs) {
    if (o.view == epoch_.view.id) {
      flush_->received.try_emplace(o.gseq, std::move(o));
    }
  }
  check_flush_progress();
}

void Daemon::check_flush_progress() {
  if (!flush_ || flush_->done) return;
  // A survivor the failure detector suspects may never answer; give up on
  // it rather than stall the whole view change.
  std::vector<net::NodeId> dropped;
  for (const auto& [peer, p] : flush_->peers) {
    if (p.complete()) continue;
    if (!suspected(peer)) return;
    dropped.push_back(peer);
  }
  flush_->done = true;
  flush_->dropped = std::move(dropped);
  send_flush_done();
}

void Daemon::send_flush_done() {
  // Last step: on the proposer this can install or re-propose
  // synchronously, which resets flush_.
  const wire::FlushDone done{flush_->pv, flush_->dropped};
  if (accepted_pv_.coord == self_) {
    handle_flush_done(self_, done);
  } else {
    send_to(accepted_pv_.coord, wire::encode(done));
  }
}

void Daemon::deliver_flushed() {
  // The cut. Every survivor computes it from the same headers, so all the
  // destinations of a message decide alike. A message some survivor
  // delivered stays delivered, and so do its sender's earlier held ones.
  // Beyond those, each sender's stream is delivered as far as it runs
  // unbroken: a message whose sender's previous one no survivor holds (and
  // is not stable, below safe_upto) is cut, with everything after it, and
  // the sender resubmits them in the new view in their order.
  const auto& held = flush_->held;
  std::set<std::uint64_t> keep;
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    const auto& [gseq, h] = *it;
    if (!h.delivered && !keep.contains(gseq)) continue;
    keep.insert(gseq);
    if (held.contains(h.sender_prev)) keep.insert(h.sender_prev);
  }
  for (const auto& [gseq, h] : held) {
    if (h.sender_prev == 0 || h.sender_prev <= flush_->safe_upto ||
        keep.contains(h.sender_prev)) {
      keep.insert(gseq);
    }
  }
  auto& holdback = epoch_.holdback;
  holdback.merge(flush_->received);  // keys held already stay behind
  for (const auto& [gseq, m] : holdback) {
    if (!keep.contains(gseq)) continue;
    epoch_.horizon = gseq;
    deliver_one(m);
  }
}

void Daemon::handle_install(net::NodeId from, const wire::Install& m) {
  (void)from;
  max_counter_seen_ = std::max(max_counter_seen_, m.pv.counter);
  if (m.pv.counter <= epoch_.view.id.counter) return;  // duplicate / stale
  // Only the proposal we flushed for: its FlushDone carried our promise to
  // deliver exactly what that flush settled.
  if (m.pv != accepted_pv_) return;
  if (std::find(m.members.begin(), m.members.end(), self_) ==
      m.members.end()) {
    return;
  }
  apply_install(m);
}

void Daemon::apply_install(const wire::Install& m) {
  ++stats_.view_changes;
  // Virtual synchrony: deliver what the flush settled for the old view
  // before anything of the new one.
  if (flush_ && flush_->pv == m.pv) deliver_flushed();
  flush_.reset();

  epoch_ = Epoch(m, self_);
  accepted_pv_ = m.pv;
  proposal_.reset();
  rescue_timer_.cancel();
  if (const Epoch::Member* me = epoch_.member(self_);
      me != nullptr && me->next_submit != 0) {
    renumber_pending(me->next_submit);
  }

  const sim::Time now = sched_->now();
  for (net::NodeId member : m.members) {
    peers_[member] = Peer{.last_heard = now, .suspect = false, .foreign = {}};
  }
  // The install carries the full group table (the new coordinator routes
  // from all of it). This daemon keeps the groups it has a local
  // registration in. Each group's change count restarts at 1 (0 while it
  // has no member), as in the routes.
  std::erase_if(groups_,
                [](const auto& e) { return e.second.handles.empty(); });
  for (auto& [name, g] : groups_) g.members.clear();
  for (const wire::GroupReg& reg : m.group_table) {
    if (auto it = groups_.find(reg.group); it != groups_.end()) {
      it->second.add(reg.member);
    }
  }
  for (auto& [name, g] : groups_) g.change_seq = g.members.empty() ? 0 : 1;
  stats_.groups_held = groups_.size();

  util::log_info(kLog, "n", self_, " now in ", m.pv, " with ",
                 m.members.size(), " members");

  // Deliver fresh views for every locally-registered group whose membership
  // may have changed (conservatively: all of them).
  std::vector<std::string> local_groups;
  for (const auto& [name, g] : groups_) local_groups.push_back(name);
  for (const std::string& name : local_groups) {
    if (auto it = groups_.find(name); it != groups_.end()) {
      emit_group_view(it->first, it->second);
    }
  }

  flush_pending_submits();
}

void Daemon::on_blocked_rescue() {
  if (halted_ || !blocked()) return;
  // The proposer has gone quiet for a long time. Suspect it and let the
  // smallest surviving candidate re-propose.
  if (accepted_pv_.coord != self_) peers_[accepted_pv_.coord].suspect = true;
  std::vector<net::NodeId> candidate;
  for (net::NodeId m : last_proposed_members_) {
    if (!suspected(m)) candidate.push_back(m);
  }
  candidate = sorted_unique(std::move(candidate));
  if (!candidate.empty() && candidate.front() == self_) {
    proposal_.reset();
    last_proposal_time_ = -1'000'000'000;
    start_proposal(std::move(candidate));
  } else {
    rescue_timer_.arm(cfg_.blocked_rescue, [this] { on_blocked_rescue(); });
  }
}

}  // namespace ftvod::gcs
