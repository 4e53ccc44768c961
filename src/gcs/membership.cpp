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
  wire::Heartbeat hb;
  hb.view = view_.id;
  hb.members = view_.members;
  hb.delivered_upto = horizon_;
  if (view_.id.coord == self_ && state_ == State::kNormal) {
    // Stability horizon: every message up to it reached all of its
    // destinations. A member whose horizon is the last gseq sent to it has
    // everything and bounds nothing.
    std::uint64_t safe = next_order_gseq_ - 1;
    for (net::NodeId m : view_.members) {
      std::uint64_t horizon = horizon_;
      if (m != self_) {
        auto it = progress_.find(m);
        horizon = it == progress_.end() ? 0 : it->second.horizon;
      }
      if (horizon < last_sent(m)) safe = std::min(safe, horizon);
    }
    safe_upto_ = safe;
    trim_retention(safe_upto_);
  }
  hb.safe_upto = safe_upto_;
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
      if (!suspects_.contains(n)) members.push_back(n);
    }
    util::log_info(kLog, "n", self_, " sees n", from, " in ", m.view,
                   "; re-proposing above it");
    proposal_.reset();
    start_proposal(std::move(members));
    return;
  }
  if (m.view == view_.id) {
    if (from == view_.id.coord && m.safe_upto > safe_upto_ &&
        state_ == State::kNormal) {
      safe_upto_ = m.safe_upto;
      trim_retention(safe_upto_);
    }
    if (view_.id.coord == self_ && state_ == State::kNormal) {
      repair_tail(from, m.delivered_upto);
    }
    foreign_.erase(from);
    return;
  }
  if (!view_.contains(from)) {
    // A daemon in a different view: candidate for a merge.
    foreign_[from] = m;
    consider_view_change();
    return;
  }
  // A member of our view advertising a view that no longer *contains us*
  // means we were dropped while unable to notice (classic case: this daemon
  // was paused past the suspect timeout, and on resume the others' ongoing
  // heartbeats keep refreshing last_heard_, so we never self-suspect). We
  // cannot sit this out: the merge rule defers to the lowest candidate id,
  // which may well be us. Treat the sighting as foreign so the normal
  // merge path runs from our side too.
  if (std::find(m.members.begin(), m.members.end(), self_) ==
      m.members.end()) {
    foreign_[from] = m;
    consider_view_change();
  }
  // A member advertising a different view that still includes us just means
  // we missed an install; retransmission repairs that. Nothing to do here.
}

void Daemon::on_fd_check() {
  if (halted_) return;
  const sim::Time now = sched_->now();
  for (net::NodeId m : view_.members) {
    if (m == self_) continue;
    auto it = last_heard_.find(m);
    const sim::Time last = it == last_heard_.end() ? 0 : it->second;
    if (now - last > cfg_.suspect_timeout) {
      if (suspects_.insert(m).second) {
        util::log_info(kLog, "n", self_, " suspects n", m);
      }
    }
  }
  check_flush_progress();  // a suspected survivor may be all it waits for
  // Forget stale foreign sightings so we do not merge with the departed.
  for (auto it = foreign_.begin(); it != foreign_.end();) {
    const sim::Time last = last_heard_.contains(it->first)
                               ? last_heard_[it->first]
                               : 0;
    if (now - last > cfg_.suspect_timeout) {
      it = foreign_.erase(it);
    } else {
      ++it;
    }
  }
  consider_view_change();
}

void Daemon::consider_view_change() {
  if (halted_ || proposal_.has_value()) return;

  const sim::Time now = sched_->now();
  const bool have_suspect_member =
      std::any_of(view_.members.begin(), view_.members.end(),
                  [&](net::NodeId m) { return suspects_.contains(m); });
  const bool have_foreign = !foreign_.empty();

  if (state_ == State::kBlocked) {
    // A proposal by someone else is in progress; only interfere if the
    // proposer itself is now suspected (handled by the rescue timer).
    return;
  }
  if (!have_suspect_member && !have_foreign) return;

  // Candidate membership: survivors of our view plus everyone heard in
  // foreign views, minus suspects.
  std::vector<net::NodeId> candidate;
  for (net::NodeId m : view_.members) {
    if (!suspects_.contains(m)) candidate.push_back(m);
  }
  if (have_foreign) {
    if (now - last_proposal_time_ < cfg_.merge_backoff) return;
    for (const auto& [node, hb] : foreign_) {
      if (!suspects_.contains(node)) candidate.push_back(node);
      for (net::NodeId m : hb.members) {
        if (!suspects_.contains(m)) candidate.push_back(m);
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

  state_ = State::kBlocked;
  blocked_since_ = sched_->now();
  last_proposal_time_ = sched_->now();
  accepted_pv_ = p.pv;
  accepted_pv_from_ = self_;
  last_proposed_members_ = p.members;
  flush_.reset();

  // Record our own ack.
  wire::ProposeAck self_ack;
  self_ack.pv = p.pv;
  self_ack.old_view = view_.id;
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
      suspects_.insert(m);
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
  max_counter_seen_ = std::max(max_counter_seen_, m.pv.counter);
  if (m.pv.counter <= view_.id.counter) return;  // stale
  if (std::find(m.members.begin(), m.members.end(), self_) ==
      m.members.end()) {
    return;  // not part of that proposal
  }
  if (m.pv < accepted_pv_) return;  // promised a higher proposal
  const bool duplicate = m.pv == accepted_pv_ && from == accepted_pv_from_ &&
                         state_ == State::kBlocked;
  if (!duplicate) {
    if (proposal_ && proposal_->pv < m.pv) {
      // Our own lower proposal loses; its members will adopt the higher one.
      proposal_.reset();
      propose_retry_timer_.cancel();
      pending_install_.reset();
    }
    accepted_pv_ = m.pv;
    accepted_pv_from_ = from;
    last_proposed_members_ = m.members;
    if (flush_ && flush_->pv != m.pv) flush_.reset();
    if (state_ != State::kBlocked) {
      state_ = State::kBlocked;
      blocked_since_ = sched_->now();
    }
    rescue_timer_.arm(cfg_.blocked_rescue, [this] { on_blocked_rescue(); });
  }
  wire::ProposeAck ack;
  ack.pv = m.pv;
  ack.old_view = view_.id;
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
    return o.gseq <= horizon_ && o.addressed_to(self_);
  };
  for (const auto& [gseq, o] : retention_) f(o, delivered(o));
  // The coordinator's undelivered own copies are also in its sent log.
  for (const auto& [gseq, o] : holdback_) {
    if (!retention_.contains(gseq)) f(o, delivered(o));
  }
}

void Daemon::merge_held(const wire::Held& h) {
  auto [it, fresh] = flush_->held.try_emplace(h.gseq, h);
  if (!fresh) it->second.delivered = it->second.delivered || h.delivered;
}

void Daemon::handle_flush_target(net::NodeId from, const wire::FlushTarget& m) {
  (void)from;
  if (m.pv != accepted_pv_ || state_ != State::kBlocked) return;
  if (flush_ && flush_->pv == m.pv) {
    if (flush_->done) send_flush_done();  // a resent target: ours was lost
    return;
  }
  flush_.emplace();
  flush_->pv = m.pv;
  flush_->safe_upto = safe_upto_;
  for (const auto& e : m.entries) {
    if (e.old_view != view_.id) continue;
    for (net::NodeId n : e.survivors) {
      if (n != self_) flush_->peers[n];
    }
  }
  for_each_held([&](const wire::Ordered& o, bool delivered) {
    merge_held(wire::Held{o.gseq, o.sender_prev, delivered});
  });
  gaps_.clear();
  request_flush();
  check_flush_progress();
}

void Daemon::request_flush() {
  wire::encode_into(wire::FlushReq{flush_->pv, horizon_}, scratch_);
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
    part_with_room(wire::kHeldBytes)
        .held.push_back(wire::Held{o.gseq, o.sender_prev, delivered});
    if (o.gseq > m.horizon && o.addressed_to(from)) {
      part_with_room(wire::encoded_size(o)).msgs.push_back(o);
    }
  });
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].pv = m.pv;
    parts[i].part = static_cast<std::uint32_t>(i);
    parts[i].parts = static_cast<std::uint32_t>(parts.size());
    parts[i].safe_upto = safe_upto_;
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
    if (o.view == view_.id) flush_->received.try_emplace(o.gseq, std::move(o));
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
    if (!suspects_.contains(peer)) return;
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
  if (accepted_pv_from_ == self_) {
    handle_flush_done(self_, done);
  } else {
    send_to(accepted_pv_from_, wire::encode(done));
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
  holdback_.merge(flush_->received);  // keys held already stay behind
  for (const auto& [gseq, m] : holdback_) {
    if (!keep.contains(gseq)) continue;
    horizon_ = gseq;
    deliver_one(m);
  }
}

void Daemon::handle_install(net::NodeId from, const wire::Install& m) {
  (void)from;
  max_counter_seen_ = std::max(max_counter_seen_, m.pv.counter);
  if (m.pv.counter <= view_.id.counter) return;  // duplicate / stale
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

  view_.id = m.pv;
  view_.members = m.members;
  state_ = State::kNormal;
  accepted_pv_ = m.pv;
  accepted_pv_from_ = m.pv.coord;
  proposal_.reset();
  rescue_timer_.cancel();

  holdback_.clear();
  retention_.clear();
  horizon_ = 0;
  next_order_gseq_ = 1;
  safe_upto_ = 0;
  gaps_.clear();
  submit_buffer_.clear();
  progress_.clear();
  last_sent_.clear();
  last_from_.clear();
  next_submit_expected_.clear();
  for (const auto& [node, seq] : m.submit_seqs) {
    next_submit_expected_[node] = seq;
    if (node == self_) renumber_pending(seq);
  }

  const sim::Time now = sched_->now();
  for (net::NodeId member : view_.members) {
    last_heard_[member] = now;
    suspects_.erase(member);
    foreign_.erase(member);
  }
  // The install carries the full group table. This daemon keeps the groups
  // it has a local registration in; the new coordinator routes from all of
  // it. Each group's change count restarts at 1 (0 while it has no
  // member), which is what a later join or leave counts on from.
  std::erase_if(groups_,
                [](const auto& e) { return e.second.handles.empty(); });
  for (auto& [name, g] : groups_) g.members.clear();
  routes_.clear();
  const bool coordinating = view_.id.coord == self_;
  for (const wire::GroupReg& reg : m.group_table) {
    if (coordinating) routes_[reg.group].add(reg.member);
    if (auto it = groups_.find(reg.group); it != groups_.end()) {
      it->second.add(reg.member);
    }
  }
  for (auto& [name, g] : routes_) g.change_seq = 1;
  for (auto& [name, g] : groups_) g.change_seq = g.members.empty() ? 0 : 1;
  stats_.groups_held = groups_.size();

  util::log_info(kLog, "n", self_, " now in ", view_.id, " with ",
                 view_.members.size(), " members");

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
  if (halted_ || state_ != State::kBlocked) return;
  // The proposer has gone quiet for a long time. Suspect it and let the
  // smallest surviving candidate re-propose.
  if (accepted_pv_from_ != self_) suspects_.insert(accepted_pv_from_);
  std::vector<net::NodeId> candidate;
  for (net::NodeId m : last_proposed_members_) {
    if (!suspects_.contains(m)) candidate.push_back(m);
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
