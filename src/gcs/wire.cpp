#include "gcs/wire.hpp"

#include "util/frame.hpp"

namespace ftvod::gcs::wire {

namespace {

void put_view_id(util::Writer& w, const ViewId& v) {
  w.u64(v.counter);
  w.u32(v.coord);
}

ViewId get_view_id(util::Reader& r) {
  ViewId v;
  v.counter = r.u64();
  v.coord = r.u32();
  return v;
}

void put_endpoint(util::Writer& w, const GcsEndpoint& e) {
  w.u32(e.node);
  w.u32(e.local);
}

GcsEndpoint get_endpoint(util::Reader& r) {
  GcsEndpoint e;
  e.node = r.u32();
  e.local = r.u32();
  return e;
}

void put_nodes(util::Writer& w, const std::vector<net::NodeId>& nodes) {
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (net::NodeId n : nodes) w.u32(n);
}

std::vector<net::NodeId> get_nodes(util::Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<net::NodeId> out;
  // Each node id occupies 4 bytes, so a count the remaining bytes cannot
  // hold is definitionally malformed — reject before reserving anything.
  if (!r.ok() || n > r.remaining() / 4) {
    r.fail();
    return out;
  }
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.u32());
  return out;
}

void put_endpoints(util::Writer& w, const std::vector<GcsEndpoint>& eps) {
  w.u32(static_cast<std::uint32_t>(eps.size()));
  for (const GcsEndpoint& e : eps) put_endpoint(w, e);
}

/// Rejects a count the remaining bytes cannot hold (8 per endpoint) and a
/// list that is not strictly ascending.
std::vector<GcsEndpoint> get_endpoints(util::Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<GcsEndpoint> out;
  if (!r.ok() || n > r.remaining() / 8) {
    r.fail();
    return out;
  }
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(get_endpoint(r));
    if (i > 0 && !(out[i - 1] < out[i])) {
      r.fail();
      return out;
    }
  }
  return out;
}

void put_regs(util::Writer& w, const std::vector<GroupReg>& regs) {
  w.u32(static_cast<std::uint32_t>(regs.size()));
  for (const GroupReg& g : regs) {
    w.str(g.group);
    put_endpoint(w, g.member);
  }
}

std::vector<GroupReg> get_regs(util::Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<GroupReg> out;
  // Minimum encoded GroupReg: 4-byte string length + 8-byte endpoint.
  if (!r.ok() || n > r.remaining() / 12) {
    r.fail();
    return out;
  }
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    GroupReg g;
    g.group = r.str();
    g.member = get_endpoint(r);
    out.push_back(std::move(g));
  }
  return out;
}

void put_submit(util::Writer& w, const Submit& m) {
  put_view_id(w, m.view);
  w.u64(m.sender_seq);
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.str(m.group);
  put_endpoint(w, m.origin);
  w.blob(m.payload);
}

Submit get_submit(util::Reader& r) {
  Submit m;
  m.view = get_view_id(r);
  m.sender_seq = r.u64();
  m.kind = static_cast<PayloadKind>(r.u8());
  m.group = r.str();
  m.origin = get_endpoint(r);
  m.payload = r.blob();
  return m;
}

void put_ordered(util::Writer& w, const Ordered& m) {
  put_view_id(w, m.view);
  w.u64(m.gseq);
  w.u64(m.prev);
  put_nodes(w, m.dests);
  w.u32(m.sender);
  w.u64(m.sender_seq);
  w.u64(m.sender_prev);
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.str(m.group);
  put_endpoint(w, m.origin);
  w.u32(m.change_seq);
  put_endpoints(w, m.members);
  w.blob(m.payload);
}

Ordered get_ordered(util::Reader& r) {
  Ordered m;
  m.view = get_view_id(r);
  m.gseq = r.u64();
  m.prev = r.u64();
  m.dests = get_nodes(r);
  m.sender = r.u32();
  m.sender_seq = r.u64();
  m.sender_prev = r.u64();
  const std::uint8_t kind = r.u8();
  m.kind = static_cast<PayloadKind>(kind);
  m.group = r.str();
  m.origin = get_endpoint(r);
  m.change_seq = r.u32();
  m.members = get_endpoints(r);
  m.payload = r.blob();
  // Only a join carries members, and an application message no change.
  if (kind > static_cast<std::uint8_t>(PayloadKind::kLeave) ||
      (m.kind != PayloadKind::kJoin && !m.members.empty()) ||
      (m.kind == PayloadKind::kApp && m.change_seq != 0)) {
    r.fail();
  }
  return m;
}

/// Byte offset of a batch's message count: integrity header, type tag.
constexpr std::size_t kCountOffset = util::kIntegrityHeaderBytes + 1;
/// Byte offset of `prev` within an Ordered body: view id (u64 + u32), gseq.
constexpr std::size_t kPrevOffset = 12 + 8;
/// Smallest encoded bodies (empty strings, lists and payloads), so a batch
/// count the remaining bytes cannot hold is rejected before reserving.
constexpr std::size_t kMinSubmitBytes = 12 + 8 + 1 + 4 + 8 + 4;
constexpr std::size_t kMinOrderedBytes =
    12 + 8 + 8 + 4 + 4 + 8 + 8 + 1 + 4 + 8 + 4 + 4 + 4;

void bump_count(util::Writer& w) {
  const util::Bytes& b = w.buffer();
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    n |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(
             b[kCountOffset + i]))
         << (8 * i);
  }
  w.patch_u32(kCountOffset, n + 1);
}

void begin(util::Writer& w, MsgType t) {
  util::frame_begin(w);  // clears w, reserves the integrity header
  w.u8(static_cast<std::uint8_t>(t));
}

/// Verifies the integrity frame and the tag, returning a reader positioned
/// on the first body field. Every decoder funnels through this, so damaged
/// datagrams are rejected before a single field is interpreted.
std::optional<util::Reader> body(util::Datagram data, MsgType t) {
  const auto opened = data.open();
  if (!opened) return std::nullopt;
  util::Reader r(opened->body);
  if (r.u8() != static_cast<std::uint8_t>(t) || !r.ok()) return std::nullopt;
  return r;
}

template <typename T, typename Get>
std::optional<std::vector<T>> decode_batch(util::Datagram data,
                                           MsgType t, std::size_t min_bytes,
                                           Get get) {
  auto r = body(data, t);
  if (!r) return std::nullopt;
  const std::uint32_t n = r->u32();
  if (!r->ok() || n == 0 || n > r->remaining() / min_bytes) return std::nullopt;
  std::vector<T> batch;
  batch.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) batch.push_back(get(*r));
  if (!r->done()) return std::nullopt;
  return batch;
}

}  // namespace

std::optional<MsgType> peek_type(std::span<const std::byte> data) {
  // Structural frame check only (no CRC): demux is on the hot path, and the
  // checksum is verified once, by the receiver or by the decoder's body().
  const auto opened = util::frame_peek(data);
  if (!opened || opened->empty()) return std::nullopt;
  const auto t = std::to_integer<std::uint8_t>((*opened)[0]);
  if (t < static_cast<std::uint8_t>(MsgType::kHeartbeat) ||
      t > static_cast<std::uint8_t>(MsgType::kFlushReply)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(t);
}

void encode_into(const Heartbeat& m, util::Writer& w) {
  begin(w, MsgType::kHeartbeat);
  put_view_id(w, m.view);
  put_nodes(w, m.members);
  w.u64(m.delivered_upto);
  w.u64(m.safe_upto);
  util::frame_seal(w);
}

std::optional<Heartbeat> decode_heartbeat(util::Datagram data) {
  auto r = body(data, MsgType::kHeartbeat);
  if (!r) return std::nullopt;
  Heartbeat m;
  m.view = get_view_id(*r);
  m.members = get_nodes(*r);
  m.delivered_upto = r->u64();
  m.safe_upto = r->u64();
  if (!r->done()) return std::nullopt;
  return m;
}

void begin_batch(util::Writer& w, MsgType type) {
  begin(w, type);
  w.u32(0);  // message count, bumped by every append
}

std::size_t encoded_size(const Submit& m) {
  return kMinSubmitBytes + m.group.size() + m.payload.size();
}

std::size_t encoded_size(const Ordered& m) {
  return kMinOrderedBytes + 4 * m.dests.size() + 8 * m.members.size() +
         m.group.size() + m.payload.size();
}

std::size_t append(util::Writer& w, const Submit& m) {
  const std::size_t at = w.size();
  put_submit(w, m);
  bump_count(w);
  return at;
}

std::size_t append(util::Writer& w, const Ordered& m) {
  const std::size_t at = w.size();
  put_ordered(w, m);
  bump_count(w);
  return at;
}

void encode_body(const Ordered& m, util::Writer& body) {
  body.clear();
  put_ordered(body, m);
}

std::size_t append_body(util::Writer& w, std::span<const std::byte> body) {
  const std::size_t at = w.size();
  w.raw(body);
  bump_count(w);
  return at;
}

void patch_prev(util::Writer& w, std::size_t at, std::uint64_t prev) {
  w.patch_u32(at + kPrevOffset, static_cast<std::uint32_t>(prev));
  w.patch_u32(at + kPrevOffset + 4, static_cast<std::uint32_t>(prev >> 32));
}

void seal_batch(util::Writer& w) { util::frame_seal(w); }

util::Bytes encode(const Submit& m) {
  util::Writer w;
  begin_batch(w, MsgType::kSubmit);
  append(w, m);
  seal_batch(w);
  return w.take();
}

util::Bytes encode(const std::vector<Submit>& batch) {
  util::Writer w;
  begin_batch(w, MsgType::kSubmit);
  for (const Submit& m : batch) append(w, m);
  seal_batch(w);
  return w.take();
}

std::optional<std::vector<Submit>> decode_submit(util::Datagram data) {
  return decode_batch<Submit>(data, MsgType::kSubmit, kMinSubmitBytes,
                              get_submit);
}

util::Bytes encode(const Ordered& m) {
  util::Writer w;
  begin_batch(w, MsgType::kOrdered);
  append(w, m);
  seal_batch(w);
  return w.take();
}

util::Bytes encode(const std::vector<Ordered>& batch) {
  util::Writer w;
  begin_batch(w, MsgType::kOrdered);
  for (const Ordered& m : batch) append(w, m);
  seal_batch(w);
  return w.take();
}

std::optional<std::vector<Ordered>> decode_ordered(util::Datagram data) {
  return decode_batch<Ordered>(data, MsgType::kOrdered, kMinOrderedBytes,
                               get_ordered);
}

void encode_into(const RetransReq& m, util::Writer& w) {
  begin(w, MsgType::kRetransReq);
  put_view_id(w, m.view);
  w.u64(m.from_gseq);
  w.u64(m.to_gseq);
  util::frame_seal(w);
}

std::optional<RetransReq> decode_retrans_req(util::Datagram data) {
  auto r = body(data, MsgType::kRetransReq);
  if (!r) return std::nullopt;
  RetransReq m;
  m.view = get_view_id(*r);
  m.from_gseq = r->u64();
  m.to_gseq = r->u64();
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Propose& m, util::Writer& w) {
  begin(w, MsgType::kPropose);
  put_view_id(w, m.pv);
  put_nodes(w, m.members);
  util::frame_seal(w);
}

std::optional<Propose> decode_propose(util::Datagram data) {
  auto r = body(data, MsgType::kPropose);
  if (!r) return std::nullopt;
  Propose m;
  m.pv = get_view_id(*r);
  m.members = get_nodes(*r);
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const ProposeAck& m, util::Writer& w) {
  begin(w, MsgType::kProposeAck);
  put_view_id(w, m.pv);
  put_view_id(w, m.old_view);
  w.u64(m.next_submit_seq);
  put_regs(w, m.regs);
  util::frame_seal(w);
}

std::optional<ProposeAck> decode_propose_ack(util::Datagram data) {
  auto r = body(data, MsgType::kProposeAck);
  if (!r) return std::nullopt;
  ProposeAck m;
  m.pv = get_view_id(*r);
  m.old_view = get_view_id(*r);
  m.next_submit_seq = r->u64();
  m.regs = get_regs(*r);
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const FlushTarget& m, util::Writer& w) {
  begin(w, MsgType::kFlushTarget);
  put_view_id(w, m.pv);
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    put_view_id(w, e.old_view);
    put_nodes(w, e.survivors);
  }
  util::frame_seal(w);
}

std::optional<FlushTarget> decode_flush_target(util::Datagram data) {
  auto r = body(data, MsgType::kFlushTarget);
  if (!r) return std::nullopt;
  FlushTarget m;
  m.pv = get_view_id(*r);
  const std::uint32_t n = r->u32();
  // Minimum encoded entry: 12-byte view id + 4-byte survivor count.
  if (!r->ok() || n > r->remaining() / 16) return std::nullopt;
  for (std::uint32_t i = 0; i < n; ++i) {
    FlushTarget::Entry e;
    e.old_view = get_view_id(*r);
    e.survivors = get_nodes(*r);
    m.entries.push_back(std::move(e));
  }
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const FlushReq& m, util::Writer& w) {
  begin(w, MsgType::kFlushReq);
  put_view_id(w, m.pv);
  w.u64(m.horizon);
  util::frame_seal(w);
}

std::optional<FlushReq> decode_flush_req(util::Datagram data) {
  auto r = body(data, MsgType::kFlushReq);
  if (!r) return std::nullopt;
  FlushReq m;
  m.pv = get_view_id(*r);
  m.horizon = r->u64();
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const FlushReply& m, util::Writer& w) {
  begin(w, MsgType::kFlushReply);
  put_view_id(w, m.pv);
  w.u32(m.part);
  w.u32(m.parts);
  w.u64(m.safe_upto);
  w.u32(static_cast<std::uint32_t>(m.held.size()));
  for (const Held& h : m.held) {
    w.u64(h.gseq);
    w.u64(h.sender_prev);
    w.u8(h.delivered ? 1 : 0);
  }
  w.u32(static_cast<std::uint32_t>(m.msgs.size()));
  for (const Ordered& o : m.msgs) put_ordered(w, o);
  util::frame_seal(w);
}

std::optional<FlushReply> decode_flush_reply(util::Datagram data) {
  auto r = body(data, MsgType::kFlushReply);
  if (!r) return std::nullopt;
  FlushReply m;
  m.pv = get_view_id(*r);
  m.part = r->u32();
  m.parts = r->u32();
  m.safe_upto = r->u64();
  if (!r->ok() || m.part >= m.parts) return std::nullopt;
  const std::uint32_t held = r->u32();
  if (!r->ok() || held > r->remaining() / kHeldBytes) return std::nullopt;
  m.held.reserve(held);
  for (std::uint32_t i = 0; i < held; ++i) {
    Held h;
    h.gseq = r->u64();
    h.sender_prev = r->u64();
    const std::uint8_t delivered = r->u8();
    if (delivered > 1) return std::nullopt;
    h.delivered = delivered == 1;
    m.held.push_back(h);
  }
  const std::uint32_t msgs = r->u32();
  if (!r->ok() || msgs > r->remaining() / kMinOrderedBytes) return std::nullopt;
  m.msgs.reserve(msgs);
  for (std::uint32_t i = 0; i < msgs; ++i) m.msgs.push_back(get_ordered(*r));
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const FlushDone& m, util::Writer& w) {
  begin(w, MsgType::kFlushDone);
  put_view_id(w, m.pv);
  put_nodes(w, m.dropped);
  util::frame_seal(w);
}

std::optional<FlushDone> decode_flush_done(util::Datagram data) {
  auto r = body(data, MsgType::kFlushDone);
  if (!r) return std::nullopt;
  FlushDone m;
  m.pv = get_view_id(*r);
  m.dropped = get_nodes(*r);
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Install& m, util::Writer& w) {
  begin(w, MsgType::kInstall);
  put_view_id(w, m.pv);
  put_nodes(w, m.members);
  put_regs(w, m.group_table);
  w.u32(static_cast<std::uint32_t>(m.submit_seqs.size()));
  for (const auto& [node, seq] : m.submit_seqs) {
    w.u32(node);
    w.u64(seq);
  }
  util::frame_seal(w);
}

std::optional<Install> decode_install(util::Datagram data) {
  auto r = body(data, MsgType::kInstall);
  if (!r) return std::nullopt;
  Install m;
  m.pv = get_view_id(*r);
  m.members = get_nodes(*r);
  m.group_table = get_regs(*r);
  const std::uint32_t n = r->u32();
  if (!r->ok() || n > 1'000'000) return std::nullopt;
  for (std::uint32_t i = 0; i < n; ++i) {
    const net::NodeId node = r->u32();
    const std::uint64_t seq = r->u64();
    m.submit_seqs.emplace_back(node, seq);
  }
  if (!r->done()) return std::nullopt;
  return m;
}

}  // namespace ftvod::gcs::wire
