// VoD protocol messages. Control messages travel through GCS groups
// (server group, movie groups, session groups); video frames travel as raw
// datagrams from the server's data socket to the client's data socket.
// Every datagram carries the 8-byte integrity header (util/frame.hpp).
// Each type's layout is its field list (util/codec.hpp), written once beside
// it with the rules on its values (rates, ops, tiers); decoders verify
// length + CRC32C before reading a single field, so a damaged or hostile
// datagram is rejected exactly like a lost one.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpeg/frame.hpp"
#include "net/address.hpp"
#include "util/codec.hpp"
#include "util/frame.hpp"

namespace ftvod::vod::wire {

enum class MsgType : std::uint8_t {
  kOpenRequest = 1,  // client -> server group
  kOpenReply = 2,    // server -> session group
  kFlow = 3,         // client -> session group
  kEmergency = 4,    // client -> session group
  kVcr = 5,          // client -> session group
  kSetQuality = 6,   // client -> session group
  kStateSync = 7,    // server -> movie group
  kFrame = 8,        // server -> client data socket
};

/// Rejects NaN/infinity and negative rates: values no honest encoder
/// produces, which would otherwise poison flow-control arithmetic.
inline bool valid_fps(double fps) { return std::isfinite(fps) && fps >= 0.0; }

struct OpenRequest {
  static constexpr MsgType kType = MsgType::kOpenRequest;
  std::uint64_t client_id = 0;
  std::string movie;
  net::Endpoint data_endpoint;
  double capability_fps = 0.0;  // 0 = full quality
};

template <class IO>
void fields(IO& io, OpenRequest& m) {
  io(m.client_id, m.movie, m.data_endpoint, m.capability_fps);
  io.check(valid_fps(m.capability_fps));
}

struct OpenReply {
  static constexpr MsgType kType = MsgType::kOpenReply;
  std::uint64_t client_id = 0;
  std::string movie;
  double fps = 0.0;
  std::uint64_t frame_count = 0;
  std::uint32_t avg_frame_bytes = 0;
};

template <class IO>
void fields(IO& io, OpenReply& m) {
  io(m.client_id, m.movie, m.fps, m.frame_count, m.avg_frame_bytes);
  io.check(valid_fps(m.fps));
}

struct Flow {
  static constexpr MsgType kType = MsgType::kFlow;
  std::uint64_t client_id = 0;
  std::int8_t delta = 0;  // +1 increase, -1 decrease (frames per second)
};

template <class IO>
void fields(IO& io, Flow& m) {
  io(m.client_id, m.delta);
  io.check(m.delta == 1 || m.delta == -1);  // only ±1 steps exist
}

/// tier 1 = critical (<15% occupancy), tier 2 = serious (<30%).
struct Emergency {
  static constexpr MsgType kType = MsgType::kEmergency;
  std::uint64_t client_id = 0;
  std::uint8_t tier = 1;
};

template <class IO>
void fields(IO& io, Emergency& m) {
  io(m.client_id, m.tier);
  io.check(m.tier == 1 || m.tier == 2);
}

enum class VcrOp : std::uint8_t { kPause = 1, kResume = 2, kSeek = 3, kStop = 4 };

struct Vcr {
  static constexpr MsgType kType = MsgType::kVcr;
  std::uint64_t client_id = 0;
  VcrOp op = VcrOp::kPause;
  std::uint64_t seek_frame = 0;
};

template <class IO>
void fields(IO& io, Vcr& m) {
  io(m.client_id, m.op, m.seek_frame);
  io.check(m.op >= VcrOp::kPause && m.op <= VcrOp::kStop);
}

struct SetQuality {
  static constexpr MsgType kType = MsgType::kSetQuality;
  std::uint64_t client_id = 0;
  double fps = 0.0;
};

template <class IO>
void fields(IO& io, SetQuality& m) {
  io(m.client_id, m.fps);
  io.check(valid_fps(m.fps));
}

/// One served client, as shared with the movie group every sync period.
struct ClientRecord {
  std::uint64_t client_id = 0;
  net::Endpoint data_endpoint;
  std::uint64_t next_frame = 0;  // transmission offset in the movie
  double rate_fps = 0.0;
  double quality_fps = 0.0;  // 0 = full quality
  double capability_fps = 0.0;
  bool paused = false;
};

template <class IO>
void fields(IO& io, ClientRecord& c) {
  io(c.client_id, c.data_endpoint, c.next_frame, c.rate_fps, c.quality_fps,
     c.capability_fps, c.paused);
  io.check(valid_fps(c.rate_fps) && valid_fps(c.quality_fps) &&
           valid_fps(c.capability_fps));
}

/// A client claimed by a server other than the sender of the message.
struct ForeignClaim {
  ClientRecord rec;
  net::NodeId owner = net::kInvalidNode;
};

template <class IO>
void fields(IO& io, ForeignClaim& o) {
  io(o.rec, o.owner);
}

struct StateSync {
  static constexpr MsgType kType = MsgType::kStateSync;
  std::string movie;
  /// 0 = periodic sync. Nonzero = table exchange for the movie-group view
  /// with this tag; every member decides the re-distribution at the moment
  /// it has delivered the tagged tables of all view members, which is the
  /// same position in the total order everywhere.
  std::uint64_t exchange_tag = 0;
  /// The sender's own clients.
  std::vector<ClientRecord> clients;
  /// Table exchanges only: the claims the sender holds whose owner has left
  /// the view, so that every member of the new view learns them.
  std::vector<ForeignClaim> orphans;
};

template <class IO>
void fields(IO& io, StateSync& m) {
  io(m.movie, m.exchange_tag, m.clients, m.orphans);
}

struct Frame {
  static constexpr MsgType kType = MsgType::kFrame;
  std::uint64_t client_id = 0;
  std::uint64_t frame_index = 0;
  mpeg::FrameType type = mpeg::FrameType::kI;
  std::uint32_t size_bytes = 0;
};

template <class IO>
void fields(IO& io, Frame& m) {
  io(m.client_id, m.frame_index, m.type, m.size_bytes);
  io.check(m.type <= mpeg::FrameType::kB);
}

/// The generic message codec (util/frame.hpp): encode_into() clears `w`
/// and encodes the message into it, reusing the writer's capacity — the
/// allocation-free path for per-frame/per-tick senders that keep a
/// long-lived scratch Writer. encode() returns a fresh buffer; decode<M>()
/// returns nullopt on any malformed input.
using util::decode;
using util::encode;
using util::encode_into;

inline std::optional<MsgType> peek_type(std::span<const std::byte> data) {
  return util::peek_tag(data, MsgType::kOpenRequest, MsgType::kFrame);
}

}  // namespace ftvod::vod::wire
