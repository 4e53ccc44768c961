// Structure-aware decoder fuzzing: every wire decoder (GCS and VoD) is
// hammered with seeded mutations of valid encodings — bit flips,
// truncations, cross-message splices, and random-chunk overwrites. The
// contract under fuzz is absolute:
//
//  1. no decoder may crash, hang, or trip UB (run this binary under
//     -DFTVOD_SANITIZE=address;undefined for the full proof);
//  2. no decoder may *accept* a damaged datagram: if decode returns a
//     value, re-encoding that value must reproduce the input bytes
//     exactly. Anything else means corruption slipped past the integrity
//     header and produced a message nobody sent.
//
// The default tier-1 run mutates each decoder 10'000 times from one seed;
// the soak build (-DFTVOD_FUZZ_SOAK) sweeps eight seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "gcs/wire.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"
#include "vod/wire.hpp"

namespace ftvod {
namespace {

#ifdef FTVOD_FUZZ_SOAK
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
#else
constexpr std::uint64_t kSeeds[] = {1};
#endif
constexpr int kMutationsPerSeed = 10'000;

// ---------------------------------------------------------------- inputs --

std::string rand_str(util::Rng& rng, int max_len) {
  std::string s;
  const auto n = rng.uniform_int(0, max_len);
  for (std::int64_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.uniform_int(' ', '~')));
  }
  return s;
}

util::Bytes rand_payload(util::Rng& rng, int max_len) {
  util::Bytes b;
  const auto n = rng.uniform_int(0, max_len);
  for (std::int64_t i = 0; i < n; ++i) {
    b.push_back(static_cast<std::byte>(rng.uniform_int(0, 255)));
  }
  return b;
}

net::NodeId rand_node(util::Rng& rng) {
  return static_cast<net::NodeId>(rng.uniform_int(0, 1000));
}

gcs::ViewId rand_view(util::Rng& rng) {
  return {static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
          rand_node(rng)};
}

gcs::GcsEndpoint rand_gep(util::Rng& rng) {
  return {rand_node(rng), static_cast<std::uint32_t>(rng.uniform_int(0, 99))};
}

net::Endpoint rand_ep(util::Rng& rng) {
  return {rand_node(rng), static_cast<net::Port>(rng.uniform_int(0, 65535))};
}

std::uint64_t rand_u64(util::Rng& rng) {
  return static_cast<std::uint64_t>(rng.engine()());
}

std::vector<net::NodeId> rand_nodes(util::Rng& rng, int max_n) {
  std::vector<net::NodeId> nodes;
  const auto n = rng.uniform_int(0, max_n);
  for (std::int64_t i = 0; i < n; ++i) nodes.push_back(rand_node(rng));
  return nodes;
}

gcs::wire::Ordered rand_ordered(util::Rng& rng) {
  gcs::wire::Ordered m;
  m.view = rand_view(rng);
  m.gseq = rand_u64(rng);
  m.prev = rand_u64(rng);
  m.dests = rand_nodes(rng, 6);
  m.sender = rand_node(rng);
  m.sender_seq = rand_u64(rng);
  m.sender_prev = rand_u64(rng);
  m.kind = static_cast<gcs::wire::PayloadKind>(rng.uniform_int(0, 2));
  m.group = rand_str(rng, 24);
  m.origin = rand_gep(rng);
  // Joins and leaves carry a change number; a join also the members
  // before it, ascending and distinct.
  if (m.kind != gcs::wire::PayloadKind::kApp) {
    m.change_seq = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 20));
  }
  if (m.kind == gcs::wire::PayloadKind::kJoin) {
    const auto n = rng.uniform_int(0, 5);
    for (std::int64_t i = 0; i < n; ++i) m.members.push_back(rand_gep(rng));
    std::sort(m.members.begin(), m.members.end());
    m.members.erase(std::unique(m.members.begin(), m.members.end()),
                    m.members.end());
  }
  m.payload = rand_payload(rng, 64);
  return m;
}

// ----------------------------------------------------------- fuzz targets --

/// One decoder under test: a generator of valid encodings plus a checker
/// that decodes arbitrary bytes and, on success, demands byte-exact
/// re-encoding.
struct FuzzTarget {
  std::string name;
  std::function<util::Bytes(util::Rng&)> make_valid;
  std::function<void(std::span<const std::byte>)> check;
};

template <typename Decode, typename Encode>
std::function<void(std::span<const std::byte>)> checker(Decode decode,
                                                        Encode encode) {
  return [decode, encode](std::span<const std::byte> data) {
    const auto m = decode(data);
    if (!m) return;
    const util::Bytes re = encode(*m);
    ASSERT_EQ(re.size(), data.size())
        << "decoder accepted a datagram nobody could have sent";
    ASSERT_TRUE(std::equal(re.begin(), re.end(), data.begin()))
        << "decoder accepted a damaged datagram";
  };
}

std::vector<FuzzTarget> gcs_targets() {
  using namespace gcs::wire;
  std::vector<FuzzTarget> t;
  t.push_back({"gcs.heartbeat",
               [](util::Rng& rng) {
                 Heartbeat m;
                 m.view = rand_view(rng);
                 const auto n = rng.uniform_int(0, 6);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.members.push_back(rand_node(rng));
                 }
                 m.delivered_upto = rand_u64(rng);
                 m.safe_upto = rand_u64(rng);
                 return encode(m);
               },
               checker(decode<Heartbeat>,
                       [](const Heartbeat& m) { return encode(m); })});
  t.push_back({"gcs.submit",
               [](util::Rng& rng) {
                 std::vector<Submit> batch(
                     static_cast<std::size_t>(rng.uniform_int(1, 3)));
                 for (Submit& m : batch) {
                   m.view = rand_view(rng);
                   m.sender_seq = rand_u64(rng);
                   m.kind = static_cast<PayloadKind>(rng.uniform_int(0, 2));
                   m.group = rand_str(rng, 24);
                   m.origin = rand_gep(rng);
                   m.payload = rand_payload(rng, 64);
                 }
                 return encode(batch);
               },
               checker(decode_submit, [](const std::vector<Submit>& m) {
                 return encode(m);
               })});
  t.push_back({"gcs.ordered",
               [](util::Rng& rng) {
                 std::vector<Ordered> batch;
                 const auto n = rng.uniform_int(1, 3);
                 for (std::int64_t i = 0; i < n; ++i) {
                   batch.push_back(rand_ordered(rng));
                 }
                 return encode(batch);
               },
               checker(decode_ordered, [](const std::vector<Ordered>& m) {
                 return encode(m);
               })});
  t.push_back({"gcs.ordered_patched",
               [](util::Rng& rng) {
                 // A fan-out batch: each body encoded once, appended, and
                 // its `prev` patched in place.
                 util::Writer body;
                 util::Writer w;
                 begin_batch(w, MsgType::kOrdered);
                 const auto n = rng.uniform_int(1, 3);
                 for (std::int64_t i = 0; i < n; ++i) {
                   encode_body(rand_ordered(rng), body);
                   patch_prev(w, append_body(w, body.buffer()),
                              rand_u64(rng));
                 }
                 seal_batch(w);
                 return w.take();
               },
               checker(decode_ordered, [](const std::vector<Ordered>& m) {
                 return encode(m);
               })});
  t.push_back({"gcs.retrans_req",
               [](util::Rng& rng) {
                 RetransReq m;
                 m.view = rand_view(rng);
                 m.from_gseq = rand_u64(rng);
                 m.to_gseq = rand_u64(rng);
                 return encode(m);
               },
               checker(decode<RetransReq>,
                       [](const RetransReq& m) { return encode(m); })});
  t.push_back({"gcs.propose",
               [](util::Rng& rng) {
                 Propose m;
                 m.pv = rand_view(rng);
                 const auto n = rng.uniform_int(0, 6);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.members.push_back(rand_node(rng));
                 }
                 return encode(m);
               },
               checker(decode<Propose>,
                       [](const Propose& m) { return encode(m); })});
  t.push_back({"gcs.propose_ack",
               [](util::Rng& rng) {
                 ProposeAck m;
                 m.pv = rand_view(rng);
                 m.old_view = rand_view(rng);
                 m.next_submit_seq = rand_u64(rng);
                 const auto n = rng.uniform_int(0, 4);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.regs.push_back({rand_str(rng, 16), rand_gep(rng)});
                 }
                 return encode(m);
               },
               checker(decode<ProposeAck>,
                       [](const ProposeAck& m) { return encode(m); })});
  t.push_back({"gcs.flush_target",
               [](util::Rng& rng) {
                 FlushTarget m;
                 m.pv = rand_view(rng);
                 const auto n = rng.uniform_int(0, 4);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.entries.push_back({rand_view(rng), rand_nodes(rng, 5)});
                 }
                 return encode(m);
               },
               checker(decode<FlushTarget>,
                       [](const FlushTarget& m) { return encode(m); })});
  t.push_back({"gcs.flush_req",
               [](util::Rng& rng) {
                 return encode(FlushReq{rand_view(rng), rand_u64(rng)});
               },
               checker(decode<FlushReq>,
                       [](const FlushReq& m) { return encode(m); })});
  t.push_back({"gcs.flush_reply",
               [](util::Rng& rng) {
                 FlushReply m;
                 m.pv = rand_view(rng);
                 m.parts = static_cast<std::uint32_t>(rng.uniform_int(1, 9));
                 m.part = static_cast<std::uint32_t>(
                     rng.uniform_int(0, m.parts - 1));
                 m.safe_upto = rand_u64(rng);
                 auto n = rng.uniform_int(0, 5);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.held.push_back({rand_u64(rng), rand_u64(rng),
                                     rng.uniform_int(0, 1) == 1});
                 }
                 n = rng.uniform_int(0, 2);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.msgs.push_back(rand_ordered(rng));
                 }
                 return encode(m);
               },
               checker(decode<FlushReply>,
                       [](const FlushReply& m) { return encode(m); })});
  t.push_back({"gcs.flush_done",
               [](util::Rng& rng) {
                 FlushDone m;
                 m.pv = rand_view(rng);
                 m.dropped = rand_nodes(rng, 4);
                 return encode(m);
               },
               checker(decode<FlushDone>,
                       [](const FlushDone& m) { return encode(m); })});
  t.push_back({"gcs.install",
               [](util::Rng& rng) {
                 Install m;
                 m.pv = rand_view(rng);
                 auto n = rng.uniform_int(0, 6);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.members.push_back(rand_node(rng));
                 }
                 n = rng.uniform_int(0, 4);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.group_table.push_back({rand_str(rng, 16), rand_gep(rng)});
                 }
                 n = rng.uniform_int(0, 4);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.submit_seqs.push_back({rand_node(rng), rand_u64(rng)});
                 }
                 return encode(m);
               },
               checker(decode<Install>,
                       [](const Install& m) { return encode(m); })});
  return t;
}

std::vector<FuzzTarget> vod_targets() {
  using namespace vod::wire;
  std::vector<FuzzTarget> t;
  t.push_back({"vod.open_request",
               [](util::Rng& rng) {
                 OpenRequest m;
                 m.client_id = rand_u64(rng);
                 m.movie = rand_str(rng, 24);
                 m.data_endpoint = rand_ep(rng);
                 m.capability_fps = rng.uniform(0.0, 120.0);
                 return encode(m);
               },
               checker(decode<OpenRequest>,
                       [](const OpenRequest& m) { return encode(m); })});
  t.push_back({"vod.open_reply",
               [](util::Rng& rng) {
                 OpenReply m;
                 m.client_id = rand_u64(rng);
                 m.movie = rand_str(rng, 24);
                 m.fps = rng.uniform(0.0, 120.0);
                 m.frame_count = rand_u64(rng);
                 m.avg_frame_bytes =
                     static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
                 return encode(m);
               },
               checker(decode<OpenReply>,
                       [](const OpenReply& m) { return encode(m); })});
  t.push_back({"vod.flow",
               [](util::Rng& rng) {
                 Flow m;
                 m.client_id = rand_u64(rng);
                 m.delta = rng.bernoulli(0.5) ? 1 : -1;
                 return encode(m);
               },
               checker(decode<Flow>, [](const Flow& m) { return encode(m); })});
  t.push_back({"vod.emergency",
               [](util::Rng& rng) {
                 Emergency m;
                 m.client_id = rand_u64(rng);
                 m.tier = rng.bernoulli(0.5) ? 1 : 2;
                 return encode(m);
               },
               checker(decode<Emergency>,
                       [](const Emergency& m) { return encode(m); })});
  t.push_back({"vod.vcr",
               [](util::Rng& rng) {
                 Vcr m;
                 m.client_id = rand_u64(rng);
                 m.op = static_cast<VcrOp>(rng.uniform_int(1, 4));
                 m.seek_frame = rand_u64(rng);
                 return encode(m);
               },
               checker(decode<Vcr>, [](const Vcr& m) { return encode(m); })});
  t.push_back({"vod.set_quality",
               [](util::Rng& rng) {
                 SetQuality m;
                 m.client_id = rand_u64(rng);
                 m.fps = rng.uniform(0.0, 120.0);
                 return encode(m);
               },
               checker(decode<SetQuality>,
                       [](const SetQuality& m) { return encode(m); })});
  t.push_back({"vod.state_sync",
               [](util::Rng& rng) {
                 StateSync m;
                 m.movie = rand_str(rng, 24);
                 m.exchange_tag = rand_u64(rng);
                 auto record = [&rng] {
                   ClientRecord c;
                   c.client_id = rand_u64(rng);
                   c.data_endpoint = rand_ep(rng);
                   c.next_frame = rand_u64(rng);
                   c.rate_fps = rng.uniform(0.0, 120.0);
                   c.quality_fps = rng.uniform(0.0, 120.0);
                   c.capability_fps = rng.uniform(0.0, 120.0);
                   c.paused = rng.bernoulli(0.3);
                   return c;
                 };
                 const auto n = rng.uniform_int(0, 4);
                 for (std::int64_t i = 0; i < n; ++i) {
                   m.clients.push_back(record());
                 }
                 const auto k = rng.uniform_int(0, 2);
                 for (std::int64_t i = 0; i < k; ++i) {
                   m.orphans.push_back(
                       {record(), rand_node(rng)});
                 }
                 return encode(m);
               },
               checker(decode<StateSync>,
                       [](const StateSync& m) { return encode(m); })});
  t.push_back({"vod.frame",
               [](util::Rng& rng) {
                 Frame m;
                 m.client_id = rand_u64(rng);
                 m.frame_index = rand_u64(rng);
                 m.type = static_cast<mpeg::FrameType>(rng.uniform_int(0, 2));
                 m.size_bytes =
                     static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
                 return encode(m);
               },
               checker(decode<Frame>,
                       [](const Frame& m) { return encode(m); })});
  return t;
}

std::vector<FuzzTarget> all_targets() {
  auto t = gcs_targets();
  auto v = vod_targets();
  t.insert(t.end(), std::make_move_iterator(v.begin()),
           std::make_move_iterator(v.end()));
  return t;
}

// ------------------------------------------------------------- mutations --

/// One seeded mutation of `a`, sometimes splicing in bytes of `b` (a valid
/// encoding of a possibly different message type).
util::Bytes mutate(util::Rng& rng, const util::Bytes& a, const util::Bytes& b) {
  util::Bytes m = a;
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // flip 1..8 bits anywhere (header, tag, or body)
      if (m.empty()) break;
      const auto flips = rng.uniform_int(1, 8);
      for (std::int64_t i = 0; i < flips; ++i) {
        const auto bit = rng.uniform_int(
            0, static_cast<std::int64_t>(m.size()) * 8 - 1);
        m[static_cast<std::size_t>(bit / 8)] ^=
            static_cast<std::byte>(1u << (bit % 8));
      }
      break;
    }
    case 1: {  // truncate (possibly to nothing)
      if (m.empty()) break;
      m.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m.size()) - 1)));
      break;
    }
    case 2: {  // splice: prefix of a + suffix of b
      const auto cut_a =
          rng.uniform_int(0, static_cast<std::int64_t>(a.size()));
      const auto cut_b =
          rng.uniform_int(0, static_cast<std::int64_t>(b.size()));
      m.assign(a.begin(), a.begin() + cut_a);
      m.insert(m.end(), b.begin() + cut_b, b.end());
      break;
    }
    case 3: {  // overwrite a random run with random bytes
      if (m.empty()) break;
      const auto at =
          rng.uniform_int(0, static_cast<std::int64_t>(m.size()) - 1);
      const auto len = std::min<std::int64_t>(
          rng.uniform_int(1, 16), static_cast<std::int64_t>(m.size()) - at);
      for (std::int64_t i = 0; i < len; ++i) {
        m[static_cast<std::size_t>(at + i)] =
            static_cast<std::byte>(rng.uniform_int(0, 255));
      }
      break;
    }
  }
  return m;
}

// ----------------------------------------------------------------- tests --

class DecoderFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DecoderFuzz, MutatedDatagramsNeverCrashAndNeverPass) {
  const auto targets = all_targets();
  const FuzzTarget& target = targets[GetParam()];
  SCOPED_TRACE(target.name);

  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    std::uint64_t accepted = 0;
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const util::Bytes valid = target.make_valid(rng);
      // Sanity: the unmutated encoding must round-trip (and every
      // decoder must reject every *other* target's valid encoding).
      target.check(valid);

      const FuzzTarget& donor =
          targets[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(targets.size()) - 1))];
      const util::Bytes other = donor.make_valid(rng);
      const util::Bytes mutant = mutate(rng, valid, other);
      target.check(mutant);
      if (mutant.size() == valid.size() &&
          std::equal(mutant.begin(), mutant.end(), valid.begin())) {
        ++accepted;  // a no-op splice; not a damaged datagram
      }

      // The type peekers must survive the mutant too (both stacks, since
      // a datagram can be misrouted to either port).
      (void)gcs::wire::peek_type(mutant);
      (void)vod::wire::peek_type(mutant);
    }
    // Mutations are near-always destructive: no-op splices exist but must
    // be rare, or the fuzzer is not exercising the decoders at all.
    EXPECT_LT(accepted, kMutationsPerSeed / 10) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDecoders, DecoderFuzz,
    ::testing::Range<std::size_t>(0, 20),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = all_targets()[info.param].name;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

TEST(DecoderFuzz, TargetCountMatchesInstantiation) {
  // Keep the Range above honest when a new message type is added.
  EXPECT_EQ(all_targets().size(), 20u);
}

TEST(FrameFuzz, RawGarbageNeverOpens) {
  // Pure random bytes against the integrity layer itself: frame_open must
  // reject everything that was never sealed (the CRC makes an accidental
  // pass a ~2^-32 event; with 50k trials one would fail this run).
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed + 1000);
    for (int i = 0; i < 50'000; ++i) {
      const util::Bytes junk =
          rand_payload(rng, i % 64);  // heavy on short datagrams
      EXPECT_FALSE(util::frame_open(junk).has_value());
    }
  }
}

}  // namespace
}  // namespace ftvod
