// The GCS daemon: one per host. See types.hpp for the architecture summary.
//
// Guarantees provided to applications (within one network component):
//  * Agreed (total-order) multicast with self-delivery, FIFO per sender.
//  * View synchrony: daemons that move together from view V to view V'
//    deliver the same set of messages in V before installing V'.
//  * Consistent lightweight-group membership: join/leave events are ordered
//    with regular messages, so every member sees the same message/view
//    sequence per group.
//
// The protocol is coordinator-based (the proposer of the current view orders
// all messages). Delivery is group-scoped: every message, join and leave
// included, goes only to the daemons hosting a member of its group plus the
// sending daemon. A join carries the group's members just before it and
// every join or leave its change number, so a daemon that starts hosting a
// group builds its entry from the join, and each daemon keeps only the
// groups it hosts or holds handles in.
// Each daemon sees its messages as a gap-free chain (Ordered::prev), which
// makes gap detection, NACKs and retransmission exact per destination.
// Coordinator failure is handled by the next surviving member proposing a
// new view after a flush in which the survivors of each old view exchange
// what they hold for one another and settle one cut that keeps each
// sender's stream gap-free, then deliver it on install. Partitions
// yield disjoint views; merges are proposed by the lowest daemon id across
// both sides when heartbeats cross again.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gcs/group.hpp"
#include "gcs/types.hpp"
#include "gcs/wire.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"

namespace ftvod::gcs {

struct DaemonStats {
  std::uint64_t messages_ordered = 0;    // as coordinator
  std::uint64_t messages_delivered = 0;  // to local or remote bookkeeping
  std::uint64_t retransmissions = 0;
  std::uint64_t view_changes = 0;
  /// Datagrams rejected before acting on them: integrity-check failures
  /// (also counted in SocketStats::corrupt_dropped) plus structurally or
  /// semantically invalid messages the decoders refused.
  std::uint64_t malformed_dropped = 0;
  /// Gauge: groups this daemon hosts a member of or holds a handle in.
  std::uint64_t groups_held = 0;
};

class Daemon {
 public:
  Daemon(sim::Scheduler& sched, net::Network& net, net::NodeId self,
         GcsConfig cfg);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Joins a lightweight group. The returned handle must not outlive the
  /// daemon. Membership becomes visible when the join is ordered; the first
  /// on_view delivered to the handle includes the caller. Nothing is
  /// delivered before join() returns, on the coordinator too: every
  /// submission is handed over after the event (flush_outbox).
  [[nodiscard]] std::unique_ptr<GroupMember> join(std::string group,
                                                  GroupCallbacks callbacks);

  /// Multicasts into a group without being a member (no self-delivery).
  void send_to_group(const std::string& group, util::Bytes payload);

  [[nodiscard]] net::NodeId self() const { return self_; }
  [[nodiscard]] const DaemonView& view() const { return epoch_.view; }
  [[nodiscard]] const GcsConfig& config() const { return cfg_; }
  [[nodiscard]] const DaemonStats& stats() const { return stats_; }
  [[nodiscard]] const net::SocketStats& socket_stats() const {
    return socket_->stats();
  }
  /// True from accepting a proposal until its view installs.
  [[nodiscard]] bool blocked() const { return accepted_pv_ != epoch_.view.id; }
  /// Current membership of a group this daemon hosts (empty for a group
  /// it hosts no member of: only hosts learn a group's joins and leaves).
  [[nodiscard]] std::vector<GcsEndpoint> group_members(
      std::string_view group) const;

  /// Stops all activity (used on host crash; registered automatically).
  void halt();
  [[nodiscard]] bool halted() const { return halted_; }

  /// Freezes the daemon as if the process were SIGSTOPped: timers stop and
  /// arriving datagrams are dropped, but all state is kept. Peers will
  /// suspect it and exclude it from their views. resume() restarts the
  /// timers; the stale failure-detector timestamps then make the daemon
  /// install a fresh (typically singleton) view, after which the normal
  /// merge path re-admits it — exactly the partition-heal flow.
  void pause();
  void resume();
  [[nodiscard]] bool paused() const { return paused_; }

 private:
  friend class GroupMember;

  /// One lightweight group: an entry of the coordinator's routes (full
  /// table, `handles` unused) or of the daemon's own groups_.
  struct Group {
    std::vector<GcsEndpoint> members;  // ascending
    std::uint32_t change_seq = 0;      // of the last join or leave applied
    std::vector<GroupMember*> handles;  // this daemon's, joined or joining

    /// Adds (removes) a member; false if it was (was not) there.
    bool add(GcsEndpoint e);
    bool remove(GcsEndpoint e);
    [[nodiscard]] bool has_member_on(net::NodeId node) const;
  };
  using GroupTable = std::map<std::string, Group, std::less<>>;

  struct Proposal {
    ViewId pv;
    std::vector<net::NodeId> members;        // proposed membership
    std::map<net::NodeId, wire::ProposeAck> acks;
    bool flush_phase = false;
    std::set<net::NodeId> flush_done;
    wire::FlushTarget targets;
    int round = 0;
  };

  /// One survivor's side of the flush exchange for proposal `pv`. While it
  /// exists the daemon is frozen: no Ordered is accepted, so the view's
  /// holdback and retention (the held set peers are answered from) stay
  /// fixed, and a peer's answer is the same every time it is asked.
  struct Flush {
    struct Answer {
      std::uint32_t parts = 0;  // once one part arrived
      std::set<std::uint32_t> got;
      [[nodiscard]] bool complete() const {
        return parts > 0 && got.size() == parts;
      }
    };
    ViewId pv;
    std::map<net::NodeId, Answer> peers;  // the other survivors of the view
    /// Headers of every message any survivor holds, by gseq.
    std::map<std::uint64_t, wire::Held> held;
    std::uint64_t safe_upto = 0;  // the highest survivor's
    std::map<std::uint64_t, wire::Ordered> received;
    std::vector<net::NodeId> dropped;  // suspected peers given up on
    bool done = false;
  };

  /// Everything that lives exactly as long as one view: built whole from
  /// its Install (the first, singleton view from a synthetic one) and
  /// replaced whole by the next. A view's order ends with the view, so
  /// nothing in it carries over.
  struct Epoch {
    /// One member of the view, as the coordinator orders for it.
    struct Member {
      /// Its heartbeat's horizon, and last_sent when that arrived.
      struct Progress {
        std::uint64_t horizon = 0;
        std::uint64_t sent = 0;
      };
      explicit Member(net::NodeId n) : node(n) {}

      net::NodeId node;
      /// Its next submission to order (0: the install named none, so its
      /// submissions are dropped), and those that arrived ahead of it.
      std::uint64_t next_submit = 0;
      std::map<std::uint64_t, wire::Submit> early;
      std::uint64_t last_sent = 0;  // gseq of the last message sent to it
      std::uint64_t last_from = 0;  // gseq of its last message ordered
      std::optional<Progress> progress;
    };

    /// The coordinator also builds its routes from the group table.
    Epoch(const wire::Install& m, net::NodeId self);
    /// nullptr when `node` is not a member.
    [[nodiscard]] Member* member(net::NodeId node);

    DaemonView view;
    std::vector<Member> members;  // parallel to view.members
    /// gseq of the last message of the view delivered here: every message
    /// addressed to this daemon up to it has been delivered.
    std::uint64_t horizon = 0;
    std::map<std::uint64_t, wire::Ordered> holdback;
    /// Delivered messages (on the coordinator: every message it ordered),
    /// kept until stable for retransmission and the flush.
    std::map<std::uint64_t, wire::Ordered> retention;
    std::uint64_t safe_upto = 0;
    /// Gaps in the holdback chain at the previous NACK tick, first missing
    /// gseq -> last.
    std::map<std::uint64_t, std::uint64_t> gaps;
    /// Coordinator only: the next gseq, and every group of the view as of
    /// the last *ordered* join or leave. The coordinator routes groups it
    /// does not host, so routing cannot use groups_.
    std::uint64_t next_order_gseq = 1;
    GroupTable routes;
  };

  /// The failure detector's record of one daemon.
  struct Peer {
    sim::Time last_heard = 0;
    bool suspect = false;
    /// Its last heartbeat while it is in a different view: a candidate for
    /// a merge.
    std::optional<wire::Heartbeat> foreign;
  };

  // ---- socket / dispatch ----
  void on_datagram(const net::Endpoint& from, std::span<const std::byte> data);
  void send_to(net::NodeId node, std::span<const std::byte> bytes);
  /// The batch of Ordered bound for `dest` in this event, with room for
  /// `bytes` more (a full batch is sent first); flush_outbox() sends it
  /// right after the event.
  util::Writer& outbox_for(net::NodeId dest, std::size_t bytes);
  void send_batch(net::NodeId dest, util::Writer& w);
  void flush_outbox();

  // ---- sending / ordering ----
  void submit(wire::PayloadKind kind, const std::string& group,
              GcsEndpoint origin, util::Bytes payload);
  void flush_pending_submits();
  /// Sends the pending submissions from sequence number `first` on to a
  /// remote coordinator, as few batches as fit.
  void send_submits(std::uint64_t first);
  void handle_submit(net::NodeId from, wire::Submit m);
  void try_order_buffered(Epoch::Member& sender);
  void order_message(wire::Submit m, Epoch::Member& sender);
  /// Sets the destinations of a message about to be ordered; joins and
  /// leaves also update the routes here, ahead of delivery, and take their
  /// change number (and a join the members before it) from it.
  void route(wire::Ordered& o);
  void handle_ordered(wire::Ordered m);
  void deliver_ready();
  void deliver_one(const wire::Ordered& m);
  void handle_retrans_req(net::NodeId from, const wire::RetransReq& m);
  void repair_tail(net::NodeId member, std::uint64_t horizon);
  void maybe_nack();

  // ---- group plumbing ----
  void member_send(GroupMember& member, util::Bytes payload);
  void member_leave(GroupMember& member);
  void apply_membership(const wire::Ordered& m);
  void emit_group_view(const std::string& group, const Group& g);
  /// Erases the entry once this daemon neither hosts the group nor holds a
  /// handle in it.
  void release_if_unused(GroupTable::iterator it);
  std::vector<wire::GroupReg> local_regs_snapshot() const;

  // ---- failure detection / membership ----
  [[nodiscard]] bool suspected(net::NodeId node) const;
  void on_heartbeat_timer();
  void on_fd_check();
  void handle_heartbeat(net::NodeId from, const wire::Heartbeat& m);
  void consider_view_change();
  void start_proposal(std::vector<net::NodeId> members);
  void handle_propose(net::NodeId from, const wire::Propose& m);
  void handle_propose_ack(net::NodeId from, const wire::ProposeAck& m);
  void maybe_enter_flush_phase();
  void handle_flush_target(net::NodeId from, const wire::FlushTarget& m);
  void request_flush();
  void handle_flush_req(net::NodeId from, const wire::FlushReq& m);
  void handle_flush_reply(net::NodeId from, wire::FlushReply m);
  /// Calls f(message, delivered here) once for every message held here.
  template <typename F>
  void for_each_held(F f) const;
  void merge_held(const wire::Held& h);
  void check_flush_progress();
  void send_flush_done();
  void deliver_flushed();
  void handle_flush_done(net::NodeId from, const wire::FlushDone& m);
  void maybe_install();
  void build_and_send_install();
  void schedule_install_resend();
  void handle_install(net::NodeId from, const wire::Install& m);
  void apply_install(const wire::Install& m);
  void on_propose_retry();
  void on_blocked_rescue();
  void abandon_unresponsive_and_retry();
  /// Stops every timer: halt() and pause().
  void stop_timers();

  [[nodiscard]] std::uint64_t first_pending_seq() const;
  void renumber_pending(std::uint64_t first);
  void trim_retention(std::uint64_t safe);

  // ---- state ----
  sim::Scheduler* sched_;
  net::Network* net_;
  net::NodeId self_;
  GcsConfig cfg_;
  std::unique_ptr<net::Socket> socket_;
  /// Reused encode buffer (heartbeats, submit batches, an Ordered body
  /// during fan-out, NACKs, flush messages). All reads of it finish before
  /// any call that could re-enter the daemon, so one scratch writer
  /// suffices.
  util::Writer scratch_;
  bool halted_ = false;
  bool paused_ = false;
  DaemonStats stats_;

  Epoch epoch_;
  std::uint64_t max_counter_seen_ = 0;

  // Own submissions awaiting ordering, by sender_seq; `view` is refreshed
  // on every hand-over. Not part of the Epoch: they outlive their view.
  std::uint64_t submit_seq_counter_ = 1;
  std::map<std::uint64_t, wire::Submit> pending_;
  std::uint64_t first_unsent_ = 1;  // submissions from here on not yet sent

  // Datagrams batched during the current event: Ordered per destination
  // (coordinator) and this daemon's new submissions (first_unsent_). Not
  // part of the Epoch: the batches can outlive their view by one event, as
  // an Install handled at the same µs runs before the zero-delay flush.
  std::map<net::NodeId, util::Writer> outbox_;
  sim::OneShotTimer outbox_timer_;

  // Membership protocol.
  std::optional<Proposal> proposal_;
  /// The proposal this daemon promised (its coord is the proposer); the
  /// current view's id when none is open.
  ViewId accepted_pv_;
  std::optional<Flush> flush_;
  std::vector<net::NodeId> last_proposed_members_;
  std::optional<wire::Install> pending_install_;
  int install_resends_left_ = 0;
  sim::Time last_proposal_time_ = -1'000'000'000;

  // Failure detection & discovery. Keyed by node id, which heartbeats and
  // proposals carry as any u32.
  std::map<net::NodeId, Peer> peers_;

  // Lightweight groups: the ones this daemon hosts or holds handles in, as
  // of the last delivered join or leave.
  GroupTable groups_;
  std::uint32_t next_local_id_ = 1;

  // Timers.
  sim::PeriodicTimer heartbeat_timer_;
  sim::PeriodicTimer fd_timer_;
  sim::PeriodicTimer resubmit_timer_;
  sim::PeriodicTimer nack_timer_;
  sim::OneShotTimer propose_retry_timer_;
  sim::OneShotTimer rescue_timer_;
};

}  // namespace ftvod::gcs
