// Wire messages exchanged between GCS daemons. Every datagram is the 8-byte
// integrity header (util/frame.hpp), a one-byte type tag, then the message
// body. Each type's layout is its field list (util/codec.hpp), written once
// beside it; decoders verify length + CRC32C before reading a single field,
// so damaged datagrams behave exactly like loss.
//
// Submit and Ordered datagrams are batches: a u32 count, then that many
// message bodies. A daemon batches what it submits within one event, and
// the coordinator batches per destination what it orders (or re-sends)
// within one event, so a burst costs one datagram per destination rather
// than one per message.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gcs/types.hpp"
#include "util/codec.hpp"
#include "util/frame.hpp"

namespace ftvod::gcs::wire {

enum class MsgType : std::uint8_t {
  kHeartbeat = 1,
  kSubmit = 2,
  kOrdered = 3,
  kRetransReq = 4,
  kPropose = 5,
  kProposeAck = 6,
  kFlushTarget = 7,
  kFlushDone = 8,
  kInstall = 9,
  kFlushReq = 10,
  kFlushReply = 11,
};

/// What an ordered message carries.
enum class PayloadKind : std::uint8_t { kApp = 0, kJoin = 1, kLeave = 2 };

/// Periodic liveness + state advertisement, sent to every configured peer.
struct Heartbeat {
  static constexpr MsgType kType = MsgType::kHeartbeat;
  ViewId view;
  std::vector<net::NodeId> members;
  std::uint64_t delivered_upto = 0;  // sender's horizon in `view`
  std::uint64_t safe_upto = 0;       // coordinator's stability horizon
};

template <class IO>
void fields(IO& io, Heartbeat& m) {
  io(m.view, m.members, m.delivered_upto, m.safe_upto);
}

/// Sender -> coordinator: please order this message.
struct Submit {
  ViewId view;
  std::uint64_t sender_seq = 0;  // per daemon; renumbered on install
  PayloadKind kind = PayloadKind::kApp;
  std::string group;
  GcsEndpoint origin;
  util::Bytes payload;
};

template <class IO>
void fields(IO& io, Submit& m) {
  io(m.view, m.sender_seq, m.kind, m.group, m.origin, m.payload);
  io.check(m.kind <= PayloadKind::kLeave);
}

/// Coordinator -> the daemons in `dests`: message with a global sequence
/// number. Every message goes to the daemons hosting a member of its group
/// plus the sending daemon. Each destination sees its own gap-free chain
/// through `prev`.
struct Ordered {
  ViewId view;
  std::uint64_t gseq = 0;
  /// gseq of the previous message of `view` sent to the receiving daemon
  /// (0: none). The only per-copy field: the coordinator encodes a message
  /// once and patches this into each destination's copy (patch_prev()).
  std::uint64_t prev = 0;
  std::vector<net::NodeId> dests;  // ascending, shared by every copy
  net::NodeId sender = net::kInvalidNode;
  std::uint64_t sender_seq = 0;
  /// gseq of the sender's previous message of `view` (0: none), so a flush
  /// can stop each sender's stream at its first lost message.
  std::uint64_t sender_prev = 0;
  PayloadKind kind = PayloadKind::kApp;
  std::string group;
  GcsEndpoint origin;
  /// Joins and leaves: the group's change number once this message is
  /// applied, as the coordinator counted it when ordering (0 on kApp).
  std::uint32_t change_seq = 0;
  /// Joins only: the group's members just before this join, ascending, so
  /// a daemon that starts hosting the group builds its entry from the join.
  std::vector<GcsEndpoint> members;
  util::Bytes payload;

  [[nodiscard]] bool addressed_to(net::NodeId n) const {
    return std::binary_search(dests.begin(), dests.end(), n);
  }
};

template <class IO>
void fields(IO& io, Ordered& m) {
  io(m.view, m.gseq, m.prev, m.dests, m.sender, m.sender_seq, m.sender_prev,
     m.kind, m.group, m.origin, m.change_seq, m.members, m.payload);
  // Only a join carries members, strictly ascending, and an application
  // message no change number.
  io.check(m.kind <= PayloadKind::kLeave);
  io.check(m.kind == PayloadKind::kJoin || m.members.empty());
  io.check(m.kind != PayloadKind::kApp || m.change_seq == 0);
  io.check(std::ranges::adjacent_find(m.members, std::greater_equal{}) ==
           m.members.end());
}

/// Ask the coordinator to re-send the ordered messages of `view` addressed
/// to the asker with gseq in [from_gseq, to_gseq]. from_gseq - 1 is the
/// asker's last delivered or held gseq, so it is the first re-sent copy's
/// `prev`.
struct RetransReq {
  static constexpr MsgType kType = MsgType::kRetransReq;
  ViewId view;
  std::uint64_t from_gseq = 0;
  std::uint64_t to_gseq = 0;
};

template <class IO>
void fields(IO& io, RetransReq& m) {
  io(m.view, m.from_gseq, m.to_gseq);
}

/// Proposer -> candidate members: start a view change.
struct Propose {
  static constexpr MsgType kType = MsgType::kPropose;
  ViewId pv;  // id of the proposed view; pv.coord is the proposer
  std::vector<net::NodeId> members;
};

template <class IO>
void fields(IO& io, Propose& m) {
  io(m.pv, m.members);
}

struct GroupReg {
  std::string group;
  GcsEndpoint member;
};

template <class IO>
void fields(IO& io, GroupReg& g) {
  io(g.group, g.member);
}

/// Candidate -> proposer: I accept pv; this is the view I come from (my
/// flush cluster) and what the new view needs from me.
struct ProposeAck {
  static constexpr MsgType kType = MsgType::kProposeAck;
  ViewId pv;
  ViewId old_view;
  std::uint64_t next_submit_seq = 0;  // lowest unordered submit I will resend
  std::vector<GroupReg> regs;         // my local group registrations
};

template <class IO>
void fields(IO& io, ProposeAck& m) {
  io(m.pv, m.old_view, m.next_submit_seq, m.regs);
}

/// Proposer -> candidates: the candidates grouped by the view each comes
/// from. Survivors of one old view flush by exchanging messages among
/// themselves (FlushReq / FlushReply).
struct FlushTarget {
  static constexpr MsgType kType = MsgType::kFlushTarget;
  ViewId pv;
  struct Entry {
    ViewId old_view;
    std::vector<net::NodeId> survivors;
  };
  std::vector<Entry> entries;
};

template <class IO>
void fields(IO& io, FlushTarget::Entry& e) {
  io(e.old_view, e.survivors);
}

template <class IO>
void fields(IO& io, FlushTarget& m) {
  io(m.pv, m.entries);
}

/// Survivor -> each other survivor of its old view: send me your held
/// messages' headers, and the messages addressed to me above my horizon.
struct FlushReq {
  static constexpr MsgType kType = MsgType::kFlushReq;
  ViewId pv;
  std::uint64_t horizon = 0;  // asker's last delivered gseq
};

template <class IO>
void fields(IO& io, FlushReq& m) {
  io(m.pv, m.horizon);
}

/// Header of a message a survivor holds (delivered, retained or held back).
struct Held {
  std::uint64_t gseq = 0;
  std::uint64_t sender_prev = 0;
  bool delivered = false;  // the holder has delivered it
};

template <class IO>
void fields(IO& io, Held& h) {
  io(h.gseq, h.sender_prev, h.delivered);
}

/// One part of the answer to a FlushReq. The answer lists the headers of
/// every message the answerer holds, so all survivors settle the same cut,
/// and carries those addressed to the asker above its horizon (their `prev`
/// is meaningless here; the flush delivers by gseq). It is split into
/// `parts` datagrams; the asker is done with a peer once it has them all.
struct FlushReply {
  static constexpr MsgType kType = MsgType::kFlushReply;
  ViewId pv;
  std::uint32_t part = 0;
  std::uint32_t parts = 1;
  std::uint64_t safe_upto = 0;  // answerer's stability horizon
  std::vector<Held> held;
  std::vector<Ordered> msgs;
};

template <class IO>
void fields(IO& io, FlushReply& m) {
  io(m.pv, m.part, m.parts, m.safe_upto, m.held, m.msgs);
  io.check(m.part < m.parts);
}

/// Candidate -> proposer: I have every answer from my old view's survivors
/// and deliver the settled messages when the new view installs, or I gave
/// up on the survivors in `dropped`, which the failure detector suspects;
/// the proposer then re-proposes without them.
struct FlushDone {
  static constexpr MsgType kType = MsgType::kFlushDone;
  ViewId pv;
  std::vector<net::NodeId> dropped;
};

template <class IO>
void fields(IO& io, FlushDone& m) {
  io(m.pv, m.dropped);
}

/// Proposer -> members: install the new view with the full group table.
/// Each member keeps the groups it has a local registration in; the new
/// coordinator routes from all of it.
struct Install {
  static constexpr MsgType kType = MsgType::kInstall;
  ViewId pv;
  std::vector<net::NodeId> members;
  std::vector<GroupReg> group_table;
  /// Per-member starting submit sequence, so the new coordinator can resume
  /// per-sender FIFO ordering without duplicates.
  std::vector<std::pair<net::NodeId, std::uint64_t>> submit_seqs;
};

template <class IO>
void fields(IO& io, Install& m) {
  io(m.pv, m.members, m.group_table, m.submit_seqs);
}

/// The generic message codec (util/frame.hpp): encode_into() clears `w`
/// and encodes into it, reusing the writer's capacity — the allocation-free
/// path for the daemon's per-peer sends (heartbeats every interval).
/// encode() returns a fresh buffer; decode<M>() returns nullopt on any
/// malformed input, from a raw datagram or one frame_open() already
/// verified (see util::Datagram). encoded_size() is a value's body size.
using util::decode;
using util::encode;
using util::encode_into;
using util::encoded_size;

/// A single Submit or Ordered encodes as a batch of one.
util::Bytes encode(const Submit& m);
util::Bytes encode(const Ordered& m);
util::Bytes encode(const std::vector<Submit>& batch);
util::Bytes encode(const std::vector<Ordered>& batch);

/// Incremental batches: begin_batch(), then append() or append_body() per
/// message, then seal_batch(). The appends return the byte offset of the
/// appended copy, for patch_prev(). encoded_size() is what one append adds,
/// so a batch can be closed before a message would overflow a datagram.
void begin_batch(util::Writer& w, MsgType type);
std::size_t append(util::Writer& w, const Submit& m);
std::size_t append(util::Writer& w, const Ordered& m);
/// Encodes an Ordered body alone (no frame, no tag) into `body`, to be
/// appended to several batches with append_body().
void encode_body(const Ordered& m, util::Writer& body);
std::size_t append_body(util::Writer& w, std::span<const std::byte> body);
/// Rewrites Ordered::prev of the copy appended at byte offset `at`.
void patch_prev(util::Writer& w, std::size_t at, std::uint64_t prev);
void seal_batch(util::Writer& w);

/// Peeks the type tag; nullopt for an empty/garbage datagram.
inline std::optional<MsgType> peek_type(std::span<const std::byte> data) {
  return util::peek_tag(data, MsgType::kHeartbeat, MsgType::kFlushReply);
}

/// Batch decoders: nullopt on any malformed input, or an empty batch.
inline std::optional<std::vector<Submit>> decode_submit(util::Datagram data) {
  return util::decode_batch<Submit>(data, MsgType::kSubmit);
}
inline std::optional<std::vector<Ordered>> decode_ordered(
    util::Datagram data) {
  return util::decode_batch<Ordered>(data, MsgType::kOrdered);
}

}  // namespace ftvod::gcs::wire
