#include "vod/wire.hpp"

#include <cmath>

namespace ftvod::vod::wire {

namespace {

void begin(util::Writer& w, MsgType t) {
  util::frame_begin(w);  // clears w, reserves the integrity header
  w.u8(static_cast<std::uint8_t>(t));
}

/// Verifies the integrity frame and the tag, returning a reader positioned
/// on the first body field. Damaged datagrams never reach a decoder.
std::optional<util::Reader> body(util::Datagram data, MsgType t) {
  const auto opened = data.open();
  if (!opened) return std::nullopt;
  util::Reader r(opened->body);
  if (r.u8() != static_cast<std::uint8_t>(t) || !r.ok()) return std::nullopt;
  return r;
}

/// Rejects NaN/infinity and negative rates — values no honest encoder
/// produces, which would otherwise poison flow-control arithmetic.
void check_fps(util::Reader& r, double fps) {
  if (!std::isfinite(fps) || fps < 0.0) r.fail();
}

void put_endpoint(util::Writer& w, const net::Endpoint& e) {
  w.u32(e.node);
  w.u16(e.port);
}

net::Endpoint get_endpoint(util::Reader& r) {
  net::Endpoint e;
  e.node = r.u32();
  e.port = r.u16();
  return e;
}

// An encoded ClientRecord is exactly 47 bytes, a ForeignClaim 51.
constexpr std::size_t kRecordBytes = 47;

void put_record(util::Writer& w, const ClientRecord& c) {
  w.u64(c.client_id);
  put_endpoint(w, c.data_endpoint);
  w.u64(c.next_frame);
  w.f64(c.rate_fps);
  w.f64(c.quality_fps);
  w.f64(c.capability_fps);
  w.boolean(c.paused);
}

ClientRecord get_record(util::Reader& r) {
  ClientRecord c;
  c.client_id = r.u64();
  c.data_endpoint = get_endpoint(r);
  c.next_frame = r.u64();
  c.rate_fps = r.f64();
  c.quality_fps = r.f64();
  c.capability_fps = r.f64();
  c.paused = r.boolean();
  check_fps(r, c.rate_fps);
  check_fps(r, c.quality_fps);
  check_fps(r, c.capability_fps);
  return c;
}

}  // namespace

std::optional<MsgType> peek_type(std::span<const std::byte> data) {
  // Structural frame check only (no CRC): demux is on the hot path, and the
  // checksum is verified once, by the receiver or by the decoder's body().
  const auto opened = util::frame_peek(data);
  if (!opened || opened->empty()) return std::nullopt;
  const auto t = std::to_integer<std::uint8_t>((*opened)[0]);
  if (t < static_cast<std::uint8_t>(MsgType::kOpenRequest) ||
      t > static_cast<std::uint8_t>(MsgType::kFrame)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(t);
}

void encode_into(const OpenRequest& m, util::Writer& w) {
  begin(w, MsgType::kOpenRequest);
  w.u64(m.client_id);
  w.str(m.movie);
  put_endpoint(w, m.data_endpoint);
  w.f64(m.capability_fps);
  util::frame_seal(w);
}

util::Bytes encode(const OpenRequest& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

std::optional<OpenRequest> decode_open_request(util::Datagram d) {
  auto r = body(d, MsgType::kOpenRequest);
  if (!r) return std::nullopt;
  OpenRequest m;
  m.client_id = r->u64();
  m.movie = r->str();
  m.data_endpoint = get_endpoint(*r);
  m.capability_fps = r->f64();
  check_fps(*r, m.capability_fps);
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const OpenReply& m, util::Writer& w) {
  begin(w, MsgType::kOpenReply);
  w.u64(m.client_id);
  w.str(m.movie);
  w.f64(m.fps);
  w.u64(m.frame_count);
  w.u32(m.avg_frame_bytes);
  util::frame_seal(w);
}

util::Bytes encode(const OpenReply& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

std::optional<OpenReply> decode_open_reply(util::Datagram d) {
  auto r = body(d, MsgType::kOpenReply);
  if (!r) return std::nullopt;
  OpenReply m;
  m.client_id = r->u64();
  m.movie = r->str();
  m.fps = r->f64();
  m.frame_count = r->u64();
  m.avg_frame_bytes = r->u32();
  check_fps(*r, m.fps);
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Flow& m, util::Writer& w) {
  begin(w, MsgType::kFlow);
  w.u64(m.client_id);
  w.u8(static_cast<std::uint8_t>(m.delta));
  util::frame_seal(w);
}

util::Bytes encode(const Flow& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

std::optional<Flow> decode_flow(util::Datagram d) {
  auto r = body(d, MsgType::kFlow);
  if (!r) return std::nullopt;
  Flow m;
  m.client_id = r->u64();
  m.delta = static_cast<std::int8_t>(r->u8());
  if (m.delta != 1 && m.delta != -1) r->fail();  // only ±1 steps exist
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Emergency& m, util::Writer& w) {
  begin(w, MsgType::kEmergency);
  w.u64(m.client_id);
  w.u8(m.tier);
  util::frame_seal(w);
}

util::Bytes encode(const Emergency& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

std::optional<Emergency> decode_emergency(util::Datagram d) {
  auto r = body(d, MsgType::kEmergency);
  if (!r) return std::nullopt;
  Emergency m;
  m.client_id = r->u64();
  m.tier = r->u8();
  if (m.tier != 1 && m.tier != 2) r->fail();  // critical or serious only
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Vcr& m, util::Writer& w) {
  begin(w, MsgType::kVcr);
  w.u64(m.client_id);
  w.u8(static_cast<std::uint8_t>(m.op));
  w.u64(m.seek_frame);
  util::frame_seal(w);
}

util::Bytes encode(const Vcr& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

std::optional<Vcr> decode_vcr(util::Datagram d) {
  auto r = body(d, MsgType::kVcr);
  if (!r) return std::nullopt;
  Vcr m;
  m.client_id = r->u64();
  m.op = static_cast<VcrOp>(r->u8());
  m.seek_frame = r->u64();
  if (m.op < VcrOp::kPause || m.op > VcrOp::kStop) r->fail();
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const SetQuality& m, util::Writer& w) {
  begin(w, MsgType::kSetQuality);
  w.u64(m.client_id);
  w.f64(m.fps);
  util::frame_seal(w);
}

util::Bytes encode(const SetQuality& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

std::optional<SetQuality> decode_set_quality(util::Datagram d) {
  auto r = body(d, MsgType::kSetQuality);
  if (!r) return std::nullopt;
  SetQuality m;
  m.client_id = r->u64();
  m.fps = r->f64();
  check_fps(*r, m.fps);
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const StateSync& m, util::Writer& w) {
  begin(w, MsgType::kStateSync);
  w.str(m.movie);
  w.u64(m.exchange_tag);
  w.u32(static_cast<std::uint32_t>(m.clients.size()));
  for (const ClientRecord& c : m.clients) put_record(w, c);
  w.u32(static_cast<std::uint32_t>(m.orphans.size()));
  for (const ForeignClaim& o : m.orphans) {
    put_record(w, o.rec);
    w.u32(o.owner);
  }
  util::frame_seal(w);
}

util::Bytes encode(const StateSync& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

std::optional<StateSync> decode_state_sync(util::Datagram d) {
  auto r = body(d, MsgType::kStateSync);
  if (!r) return std::nullopt;
  StateSync m;
  m.movie = r->str();
  m.exchange_tag = r->u64();
  // A count the remaining bytes cannot hold is malformed — reject before
  // reserving anything.
  const std::uint32_t n = r->u32();
  if (!r->ok() || n > r->remaining() / kRecordBytes) return std::nullopt;
  m.clients.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.clients.push_back(get_record(*r));
  const std::uint32_t k = r->u32();
  if (!r->ok() || k > r->remaining() / (kRecordBytes + 4)) return std::nullopt;
  m.orphans.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    ForeignClaim o;
    o.rec = get_record(*r);
    o.owner = r->u32();
    m.orphans.push_back(o);
  }
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Frame& m, util::Writer& w) {
  begin(w, MsgType::kFrame);
  w.u64(m.client_id);
  w.u64(m.frame_index);
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u32(m.size_bytes);
  util::frame_seal(w);
}

util::Bytes encode(const Frame& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

std::optional<Frame> decode_frame(util::Datagram d) {
  auto r = body(d, MsgType::kFrame);
  if (!r) return std::nullopt;
  Frame m;
  m.client_id = r->u64();
  m.frame_index = r->u64();
  m.type = static_cast<mpeg::FrameType>(r->u8());
  m.size_bytes = r->u32();
  if (m.type > mpeg::FrameType::kB) r->fail();
  if (!r->done()) return std::nullopt;
  return m;
}

}  // namespace ftvod::vod::wire
