// VoD protocol messages. Control messages travel through GCS groups
// (server group, movie groups, session groups); video frames travel as raw
// datagrams from the server's data socket to the client's data socket.
// Every datagram carries the 8-byte integrity header (util/frame.hpp);
// decoders verify length + CRC32C before reading a single field and
// bounds-check semantic values (rates, ops, counts), so a damaged or
// hostile datagram is rejected exactly like a lost one.
#pragma once

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

struct OpenRequest {
  std::uint64_t client_id = 0;
  std::string movie;
  net::Endpoint data_endpoint;
  double capability_fps = 0.0;  // 0 = full quality
};

struct OpenReply {
  std::uint64_t client_id = 0;
  std::string movie;
  double fps = 0.0;
  std::uint64_t frame_count = 0;
  std::uint32_t avg_frame_bytes = 0;
};

struct Flow {
  std::uint64_t client_id = 0;
  std::int8_t delta = 0;  // +1 increase, -1 decrease (frames per second)
};

/// tier 1 = critical (<15% occupancy), tier 2 = serious (<30%).
struct Emergency {
  std::uint64_t client_id = 0;
  std::uint8_t tier = 1;
};

enum class VcrOp : std::uint8_t { kPause = 1, kResume = 2, kSeek = 3, kStop = 4 };

struct Vcr {
  std::uint64_t client_id = 0;
  VcrOp op = VcrOp::kPause;
  std::uint64_t seek_frame = 0;
};

struct SetQuality {
  std::uint64_t client_id = 0;
  double fps = 0.0;
};

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

/// A client claimed by a server other than the sender of the message.
struct ForeignClaim {
  ClientRecord rec;
  net::NodeId owner = net::kInvalidNode;
};

struct StateSync {
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

struct Frame {
  std::uint64_t client_id = 0;
  std::uint64_t frame_index = 0;
  mpeg::FrameType type = mpeg::FrameType::kI;
  std::uint32_t size_bytes = 0;
};

/// Encoded size of a Frame header, integrity framing included (the rest of
/// the frame's bytes are accounted as padding on the data socket).
inline constexpr std::size_t kFrameHeaderBytes =
    util::kIntegrityHeaderBytes + 1 + 8 + 8 + 1 + 4;

/// encode_into() clears `w` and encodes the message into it, reusing the
/// writer's capacity — the allocation-free path for per-frame/per-tick
/// senders that keep a long-lived scratch Writer. encode() (util::encode)
/// returns a fresh buffer.
void encode_into(const OpenRequest& m, util::Writer& w);
void encode_into(const OpenReply& m, util::Writer& w);
void encode_into(const Flow& m, util::Writer& w);
void encode_into(const Emergency& m, util::Writer& w);
void encode_into(const Vcr& m, util::Writer& w);
void encode_into(const SetQuality& m, util::Writer& w);
void encode_into(const StateSync& m, util::Writer& w);
void encode_into(const Frame& m, util::Writer& w);

using util::encode;

std::optional<MsgType> peek_type(std::span<const std::byte> data);
std::optional<OpenRequest> decode_open_request(util::Datagram d);
std::optional<OpenReply> decode_open_reply(util::Datagram d);
std::optional<Flow> decode_flow(util::Datagram d);
std::optional<Emergency> decode_emergency(util::Datagram d);
std::optional<Vcr> decode_vcr(util::Datagram d);
std::optional<SetQuality> decode_set_quality(util::Datagram d);
std::optional<StateSync> decode_state_sync(util::Datagram d);
std::optional<Frame> decode_frame(util::Datagram d);

}  // namespace ftvod::vod::wire
