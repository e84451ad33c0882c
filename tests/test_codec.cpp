// The wire codec (src/net/codec.h): seeded randomized
// encode -> decode -> re-encode identity over every message type of every
// family (LDS, ABD, CAS, heartbeat, store RPC), wire bytes pinned to fixed
// checksums for every type of every family (member included), exact
// meta-byte accounting, hostile-input robustness (truncated / oversized /
// bad-magic / unknown-version frames, out-of-range enums and oversized list
// counts reject with InvalidArgument, never crash), and a TcpTransport
// loopback smoke test driving put/get/multi_get against a listening
// StoreService.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>
#include <typeinfo>

#include "baselines/abd.h"
#include "baselines/cas.h"
#include "common/rng.h"
#include "lds/heartbeat.h"
#include "lds/messages.h"
#include "member/wire.h"
#include "net/codec.h"
#include "net/transport.h"
#include "storage/crc32c.h"
#include "store/client.h"
#include "store/remote.h"

namespace lds::net::codec {
namespace {

Tag random_tag(Rng& rng) {
  return Tag{rng.next_u64() >> 16,
             static_cast<NodeId>(rng.uniform_int(0, 1 << 20))};
}

OpId random_op(Rng& rng) {
  return make_op_id(static_cast<NodeId>(rng.uniform_int(1, 1 << 20)),
                    static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)));
}

/// One message of every LDS type, payloads of `n` bytes.
std::vector<MessagePtr> sample_lds(Rng& rng, std::size_t n) {
  using namespace lds::core;
  const ObjectId obj = static_cast<ObjectId>(rng.uniform_int(0, 1 << 20));
  const OpId op = random_op(rng);
  auto mk = [&](LdsBody body) {
    return LdsMessage::make(obj, op, std::move(body));
  };
  return {
      mk(QueryTag{}),
      mk(TagResp{random_tag(rng)}),
      mk(PutData{random_tag(rng), Value(rng.bytes(n))}),
      mk(WriteAck{random_tag(rng)}),
      mk(QueryCommTag{}),
      mk(CommTagResp{random_tag(rng)}),
      mk(QueryData{random_tag(rng)}),
      mk(DataRespValue{random_tag(rng), Value(rng.bytes(n))}),
      mk(DataRespCoded{random_tag(rng),
                       static_cast<int>(rng.uniform_int(0, 64)),
                       rng.bytes(n)}),
      mk(DataRespNack{}),
      mk(PutTag{random_tag(rng)}),
      mk(PutTagAck{}),
      mk(UnregisterReader{}),
      mk(CommitTag{random_tag(rng), rng.next_u64()}),
      mk(WriteCodeElem{random_tag(rng), rng.bytes(n)}),
      mk(AckCodeElem{random_tag(rng)}),
      mk(QueryCodeElem{static_cast<int>(rng.uniform_int(0, 64))}),
      mk(SendHelperElem{random_tag(rng), rng.bytes(n)}),
  };
}

std::vector<MessagePtr> sample_abd(Rng& rng, std::size_t n) {
  using namespace lds::baselines;
  const ObjectId obj = static_cast<ObjectId>(rng.uniform_int(0, 1 << 20));
  const OpId op = random_op(rng);
  auto mk = [&](AbdBody body) {
    return AbdMessage::make(obj, op, std::move(body));
  };
  return {
      mk(AbdQuery{rng.bernoulli(0.5)}),
      mk(AbdQueryResp{random_tag(rng), Value(rng.bytes(n))}),
      mk(AbdUpdate{random_tag(rng), Value(rng.bytes(n))}),
      mk(AbdUpdateAck{random_tag(rng)}),
  };
}

std::vector<MessagePtr> sample_cas(Rng& rng, std::size_t n) {
  using namespace lds::baselines;
  const ObjectId obj = static_cast<ObjectId>(rng.uniform_int(0, 1 << 20));
  const OpId op = random_op(rng);
  auto mk = [&](CasBody body) {
    return CasMessage::make(obj, op, std::move(body));
  };
  return {
      mk(CasQuery{}),
      mk(CasQueryResp{random_tag(rng)}),
      mk(CasPreWrite{random_tag(rng), rng.bytes(n)}),
      mk(CasPreAck{random_tag(rng)}),
      mk(CasFinalize{random_tag(rng), rng.bernoulli(0.5)}),
      mk(CasFinAck{random_tag(rng), rng.bernoulli(0.5), rng.bytes(n)}),
  };
}

std::vector<MessagePtr> sample_heartbeat(Rng& rng) {
  return {std::make_shared<core::HeartbeatPing>(rng.next_u64()),
          std::make_shared<core::HeartbeatPong>(rng.next_u64())};
}

std::vector<MessagePtr> sample_store(Rng& rng, std::size_t n) {
  using namespace lds::store;
  register_store_wire();
  const OpId op = random_op(rng);
  std::string key = "key-" + std::to_string(rng.next_u64() % 1000);
  RemoteReply reply;
  reply.code = StatusCode::kAborted;
  reply.message = "expected version mismatch";
  reply.version_known = true;
  reply.tag = random_tag(rng);
  reply.coalesced = rng.bernoulli(0.5);
  reply.has_value = true;
  reply.value = Value(rng.bytes(n));
  return {
      RemoteMessage::make(op, RemotePut{key, Value(rng.bytes(n))}),
      RemoteMessage::make(op, RemoteGet{key, ReadMode::Regular}),
      RemoteMessage::make(
          op, RemotePutIf{key, Value(rng.bytes(n)), Version(random_tag(rng))}),
      RemoteMessage::make(op, RemotePutIf{key, Value(rng.bytes(n)),
                                          Version()}),  // unknown expected
      RemoteMessage::make(op, std::move(reply)),
      RemoteMessage::make(
          op, RemoteReconfig{1,
                             {0, 3, static_cast<std::uint32_t>(
                                        rng.next_u64() % 8)},
                             "127.0.0.1",
                             static_cast<std::uint16_t>(rng.next_u64())}),
      RemoteMessage::make(op, RemoteReconfig{0, {}, "", 0}),  // epoch query
  };
}

/// encode -> decode -> re-encode must be the identity on wire bytes, and
/// every size accessor must agree with the encoded frame.
void expect_roundtrip(const MessagePtr& m) {
  const Frame f = encode(*m);
  EXPECT_EQ(f.size(), encoded_size(*m)) << m->type_name();
  EXPECT_EQ(m->meta_bytes() + m->data_bytes(), encoded_size(*m))
      << m->type_name();
  const Bytes wire = f.to_bytes();
  ASSERT_GE(wire.size(), kFrameOverheadBytes);

  MessagePtr back;
  std::size_t consumed = 0;
  const Status s = decode(wire.data(), wire.size(), &back, &consumed);
  ASSERT_TRUE(s.ok()) << m->type_name() << ": " << s.to_string();
  EXPECT_EQ(consumed, wire.size());
  EXPECT_STREQ(back->type_name(), m->type_name());
  EXPECT_EQ(back->op(), m->op());
  EXPECT_EQ(back->data_bytes(), m->data_bytes());
  EXPECT_EQ(back->meta_bytes(), m->meta_bytes());

  const Bytes rewire = encode(*back).to_bytes();
  EXPECT_EQ(wire, rewire) << m->type_name() << ": re-encode not identical";
}

std::vector<MessagePtr> all_samples(Rng& rng, std::size_t n) {
  std::vector<MessagePtr> all;
  for (auto& v : {sample_lds(rng, n), sample_abd(rng, n), sample_cas(rng, n),
                  sample_heartbeat(rng), sample_store(rng, n)}) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

TEST(Codec, RoundTripsEveryMessageTypeAcrossSeedsAndSizes) {
  // Empty payloads (the paper's v0), tiny, typical, and large.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{256}, std::size_t{65536}}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(mix_seed(seed, n));
      for (const auto& m : all_samples(rng, n)) expect_roundtrip(m);
    }
  }
}

TEST(Codec, RoundTripsMaxSizeCodedElements) {
  // A full-object coded element at the top of the realistic range.
  Rng rng(mix_seed(42, 0));
  for (const auto& m : all_samples(rng, 1u << 20)) expect_roundtrip(m);
}

TEST(Codec, ZeroCopyValueBodies) {
  // Encoding a value-bearing message must share the payload buffer, not
  // copy it: the Frame body and the message's Value are the same buffer.
  const Value v(Rng(7).bytes(4096));
  const auto msg = core::LdsMessage::make(
      3, make_op_id(1, 1), core::PutData{Tag{1, 1}, v});
  const Frame f = encode(*msg);
  EXPECT_TRUE(f.body.same_buffer(v));
  EXPECT_EQ(f.head.size() + v.size(), encoded_size(*msg));
}

TEST(Codec, FrameLengthHelper) {
  Rng rng(3);
  const Bytes wire = encode(*sample_lds(rng, 100)[2]).to_bytes();
  std::size_t total = 0;
  // Too short to know: Ok with total 0.
  ASSERT_TRUE(frame_length(wire.data(), 3, &total).ok());
  EXPECT_EQ(total, 0u);
  ASSERT_TRUE(frame_length(wire.data(), wire.size(), &total).ok());
  EXPECT_EQ(total, wire.size());
  // Hostile length prefix: rejected before any buffering could happen.
  Bytes evil = wire;
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBytes + 1);
  std::memcpy(evil.data(), &huge, 4);
  EXPECT_FALSE(frame_length(evil.data(), evil.size(), &total).ok());
}

/// Every corruption must yield InvalidArgument — and, implicitly, not crash.
void expect_rejected(const Bytes& frame, const char* what) {
  MessagePtr out;
  const Status s = decode(frame.data(), frame.size(), &out);
  EXPECT_FALSE(s.ok()) << what;
  EXPECT_TRUE(s.is(StatusCode::kInvalidArgument))
      << what << ": " << s.to_string();
}

TEST(Codec, RejectsCorruptFramesInEveryFamily) {
  Rng rng(mix_seed(9, 1));
  for (const auto& m : all_samples(rng, 33)) {
    const Bytes wire = encode(*m).to_bytes();

    // Truncation at EVERY length short of the full frame.
    for (std::size_t len = 0; len < wire.size(); ++len) {
      Bytes t(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
      // Re-patch the length prefix so the truncation hits the BODY parse
      // path too, not just the have-fewer-bytes-than-declared check.
      if (len >= kLenPrefixBytes) {
        const auto n = static_cast<std::uint32_t>(len - kLenPrefixBytes);
        std::memcpy(t.data(), &n, 4);
      }
      expect_rejected(t, m->type_name());
    }

    Bytes bad = wire;  // bad magic
    bad[4] ^= 0xff;
    expect_rejected(bad, "bad magic");

    bad = wire;  // unknown wire version
    bad[6] = 99;
    expect_rejected(bad, "unknown version");

    bad = wire;  // unknown family id (an empty registry slot, then out of range)
    bad[7] = 7;
    expect_rejected(bad, "unknown family");
    bad[7] = 200;
    expect_rejected(bad, "out-of-range family");

    bad = wire;  // unknown type id within the family
    bad[8] = 250;
    expect_rejected(bad, "unknown type");

    bad = wire;  // oversized declared length
    const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBytes + 1);
    std::memcpy(bad.data(), &huge, 4);
    expect_rejected(bad, "oversized frame");

    bad = wire;  // trailing garbage inside the declared frame
    bad.push_back(0xab);
    const auto n = static_cast<std::uint32_t>(bad.size() - kLenPrefixBytes);
    std::memcpy(bad.data(), &n, 4);
    expect_rejected(bad, "trailing bytes");
  }
}

TEST(Codec, RejectsInteriorLengthOverrun) {
  // A blob length field pointing past the end of its frame must not read
  // out of bounds.  DataRespCoded: [..header..][tag][i32][u32 len][element].
  Rng rng(11);
  const auto msg = core::LdsMessage::make(
      1, make_op_id(2, 3), core::DataRespCoded{Tag{5, 1}, 3, rng.bytes(64)});
  Bytes wire = encode(*msg).to_bytes();
  const std::size_t len_off = kFrameOverheadBytes + kTagWireBytes + 4;
  const std::uint32_t overrun = 1u << 30;
  std::memcpy(wire.data() + len_off, &overrun, 4);
  expect_rejected(wire, "interior length overrun");
}

TEST(Codec, RejectsHeaderPayloadOverrunAndMisplacedPayload) {
  // The header's payload-length field is what the streaming receiver trusts
  // for zero-copy recv: a value past the frame end must be rejected before
  // any buffer is sized from it, and payload bytes on a payload-free type
  // must not be silently swallowed.
  Rng rng(13);
  const auto msg = core::LdsMessage::make(
      1, make_op_id(2, 3), core::PutData{Tag{5, 1}, Value(rng.bytes(64))});
  Bytes wire = encode(*msg).to_bytes();
  const std::size_t pay_off = kLenPrefixBytes + kHeaderBytes - 4;
  std::uint32_t evil = static_cast<std::uint32_t>(wire.size());  // > frame
  std::memcpy(wire.data() + pay_off, &evil, 4);
  expect_rejected(wire, "header payload overrun");

  // frame_layout (the transport's probe) must reject it too.
  std::size_t total = 0, payload = 0;
  EXPECT_FALSE(frame_layout(wire.data(), wire.size(), &total, &payload).ok());

  // A QueryTag (no payload) whose header claims payload bytes: the bytes
  // would go unconsumed, which decode treats as hostile.
  const auto bare =
      core::LdsMessage::make(1, make_op_id(2, 3), core::QueryTag{});
  Bytes w2 = encode(*bare).to_bytes();
  w2.push_back(0xcd);
  w2.push_back(0xcd);
  const auto n = static_cast<std::uint32_t>(w2.size() - kLenPrefixBytes);
  std::memcpy(w2.data(), &n, 4);
  evil = 2;
  std::memcpy(w2.data() + pay_off, &evil, 4);
  expect_rejected(w2, "payload on payload-free type");
}

// ---- pinned wire bytes -----------------------------------------------------

/// One fixed message and what its frame must be: size + CRC32C of the whole
/// frame, the meta/data split and the type name.  The round-trip tests only
/// check each encoder against its own decoder; these values catch a field
/// reordered consistently on both sides (or any other layout drift).
struct Pinned {
  MessagePtr msg;
  std::uint64_t size;
  std::uint32_t crc;
  std::uint64_t meta;
  std::uint64_t data;
  const char* name;
};

std::string hex(const Bytes& b) {
  std::string out;
  char buf[3];
  for (const std::uint8_t x : b) {
    std::snprintf(buf, sizeof buf, "%02x", x);
    out += buf;
  }
  return out;
}

std::vector<Pinned> pinned_frames() {
  using namespace lds::core;
  using namespace lds::baselines;
  using namespace lds::store;
  using namespace lds::member;
  register_store_wire();
  register_member_wire();
  const ObjectId obj = 0x21222324;
  const OpId op = 0x3132333435363738ull;
  const Tag t{0x0102030405060708ull, 0x11121314};
  const Bytes five{0xa1, 0xa2, 0xa3, 0xa4, 0xa5};
  const Value pay(five);
  const auto lds = [&](LdsBody b) { return LdsMessage::make(obj, op, b); };
  const auto abd = [&](AbdBody b) { return AbdMessage::make(obj, op, b); };
  const auto cas = [&](CasBody b) { return CasMessage::make(obj, op, b); };
  const auto st = [&](RemoteBody b) { return RemoteMessage::make(op, b); };
  const auto mem = [](MemberBody b) { return MemberMessage::make(b); };
  RemoteReply bare;
  bare.tag = t;
  RemoteReply full;
  full.code = StatusCode::kAborted;
  full.message = "stale";
  full.version_known = true;
  full.tag = t;
  full.coalesced = true;
  full.has_value = true;
  full.value = pay;
  return {
      {lds(QueryTag{}), 25, 0x1dbb76fc, 25, 0, "QUERY-TAG"},
      {lds(TagResp{t}), 37, 0x28502a66, 37, 0, "TAG-RESP"},
      {lds(PutData{t, Value()}), 37, 0x35d001f8, 37, 0, "PUT-DATA"},
      {lds(PutData{t, pay}), 42, 0xf2be4f32, 37, 5, "PUT-DATA"},
      {lds(WriteAck{t}), 37, 0xc20bcadd, 37, 0, "WRITE-ACK"},
      {lds(QueryCommTag{}), 25, 0x67c47171, 25, 0, "QUERY-COMM-TAG"},
      {lds(CommTagResp{t}), 37, 0xf90b9de1, 37, 0, "COMM-TAG-RESP"},
      {lds(QueryData{t}), 37, 0xe48bb67f, 37, 0, "QUERY-DATA"},
      {lds(DataRespValue{t, Value()}), 37, 0x13507d5a, 37, 0,
       "DATA-RESP-VALUE"},
      {lds(DataRespValue{t, pay}), 42, 0x72749d56, 37, 5, "DATA-RESP-VALUE"},
      {lds(DataRespCoded{t, 0x41424344, Value()}), 45, 0xdfe351c6, 45, 0,
       "DATA-RESP-CODED"},
      {lds(DataRespCoded{t, 0x41424344, pay}), 50, 0xa632b97c, 45, 5,
       "DATA-RESP-CODED"},
      {lds(DataRespNack{}), 25, 0xb6a1a5b9, 25, 0, "DATA-RESP-NACK"},
      {lds(PutTag{t}), 37, 0x928b1807, 37, 0, "PUT-TAG"},
      {lds(PutTagAck{}), 25, 0x09681d07, 25, 0, "PUT-TAG-ACK"},
      {lds(UnregisterReader{}), 25, 0x933a7e6b, 25, 0, "UNREGISTER-READER"},
      {lds(CommitTag{t, 0x5152535455565758ull}), 45, 0x3082a913, 45, 0,
       "COMMIT-TAG"},
      {lds(WriteCodeElem{t, Value()}), 41, 0xb9400d15, 41, 0,
       "WRITE-CODE-ELEM"},
      {lds(WriteCodeElem{t, pay}), 46, 0xfe82cc82, 41, 5, "WRITE-CODE-ELEM"},
      {lds(AckCodeElem{t}), 37, 0xb40b64a5, 37, 0, "ACK-CODE-ELEM"},
      {lds(QueryCodeElem{0x41424344}), 29, 0x0856e448, 29, 0,
       "QUERY-CODE-ELEM"},
      {lds(SendHelperElem{t, Value()}), 41, 0x51dd0176, 41, 0,
       "SEND-HELPER-ELEM"},
      {lds(SendHelperElem{t, pay}), 46, 0x092eefb5, 41, 5, "SEND-HELPER-ELEM"},
      {abd(AbdQuery{false}), 26, 0x23858874, 26, 0, "ABD-QUERY"},
      {abd(AbdQuery{true}), 26, 0xd1ee0b77, 26, 0, "ABD-QUERY"},
      {abd(AbdQueryResp{t, Value()}), 37, 0x3deb6b6f, 37, 0, "ABD-QUERY-RESP"},
      {abd(AbdQueryResp{t, pay}), 42, 0x50654562, 37, 5, "ABD-QUERY-RESP"},
      {abd(AbdUpdate{t, Value()}), 37, 0x206b40f1, 37, 0, "ABD-UPDATE"},
      {abd(AbdUpdate{t, pay}), 42, 0xd378d911, 37, 5, "ABD-UPDATE"},
      {abd(AbdUpdateAck{t}), 37, 0xd7b08bd4, 37, 0, "ABD-UPDATE-ACK"},
      {cas(CasQuery{}), 25, 0x036972aa, 25, 0, "CAS-QUERY"},
      {cas(CasQueryResp{t}), 37, 0x0326a874, 37, 0, "CAS-QUERY-RESP"},
      {cas(CasPreWrite{t, Bytes{}}), 41, 0xf3b07460, 41, 0, "CAS-PRE"},
      {cas(CasPreWrite{t, five}), 46, 0xa309d4ed, 41, 5, "CAS-PRE"},
      {cas(CasPreAck{t}), 37, 0xe97d48cf, 37, 0, "CAS-PRE-ACK"},
      {cas(CasFinalize{t, false}), 38, 0x63ba13a6, 38, 0, "CAS-FIN"},
      {cas(CasFinalize{t, true}), 38, 0x91d190a5, 38, 0, "CAS-FIN"},
      {cas(CasFinAck{t, false, Bytes{}}), 42, 0x5fff48c0, 42, 0, "CAS-FIN-ACK"},
      {cas(CasFinAck{t, true, Bytes{}}), 42, 0x67ee276c, 42, 0, "CAS-FIN-ACK"},
      {cas(CasFinAck{t, true, five}), 47, 0xb9fa533c, 42, 5, "CAS-FIN-ACK"},
      {std::make_shared<HeartbeatPing>(0x6162636465666768ull),
       33, 0x035cbf66, 33, 0, "HEARTBEAT-PING"},
      {std::make_shared<HeartbeatPong>(0x6162636465666768ull),
       33, 0x2d6874fb, 33, 0, "HEARTBEAT-PONG"},
      {st(RemotePut{"key-1", Value()}), 34, 0x9e473565, 34, 0, "STORE-PUT"},
      {st(RemotePut{"key-1", pay}), 39, 0x9fe32242, 34, 5, "STORE-PUT"},
      {st(RemoteGet{"key-1", ReadMode::Atomic}), 35, 0x52645a2c, 35, 0,
       "STORE-GET"},
      {st(RemoteGet{"key-1", ReadMode::Regular}), 35, 0x99322189, 35, 0,
       "STORE-GET"},
      {st(RemoteGet{"key-1", ReadMode::TagOnly}), 35, 0xc124db97, 35, 0,
       "STORE-GET"},
      {st(RemotePutIf{"key-1", Value(), Version()}), 47, 0x7bca6590, 47, 0,
       "STORE-PUT-IF"},
      {st(RemotePutIf{"key-1", pay, Version(t)}), 52, 0x92fdc078, 47, 5,
       "STORE-PUT-IF"},
      {st(bare), 45, 0xbaac7fe0, 45, 0, "STORE-REPLY"},
      {st(full), 55, 0x8ea0b0c0, 50, 5, "STORE-REPLY"},
      {st(RemoteReconfig{0, {}, "", 0}), 36, 0x85f90079, 36, 0,
       "STORE-RECONFIG"},
      {st(RemoteReconfig{1, {0, 3, 7}, "127.0.0.1", 7003}),
       57, 0x62dbea4d, 57, 0, "STORE-RECONFIG"},
      {mem(Hello{2, 5, 7002}), 39, 0x5f7f6453, 39, 0, "MEMBER-HELLO"},
      {mem(Envelope{5, 20001, 30004}), 41, 0xc638e009, 41, 0, "MEMBER-ENV"},
      {mem(StaleEpoch{6}), 33, 0xe77bc6fd, 33, 0, "MEMBER-STALE-EPOCH"},
      {mem(JoinRequest{7002, {}}), 31, 0x6d427fc5, 31, 0, "MEMBER-JOIN"},
      {mem(JoinRequest{7002, {30004, 30005}}), 39, 0x818671f0, 39, 0,
       "MEMBER-JOIN"},
      {mem(ViewPropose{Bytes{}}), 29, 0xaf181163, 29, 0, "MEMBER-VIEW-PROPOSE"},
      {mem(ViewPropose{five}), 34, 0xc345e762, 34, 0, "MEMBER-VIEW-PROPOSE"},
      {mem(ViewAck{5, true}), 34, 0xb64c8445, 34, 0, "MEMBER-VIEW-ACK"},
      {mem(ViewAck{5, false}), 34, 0x44270746, 34, 0, "MEMBER-VIEW-ACK"},
      {mem(ViewActivate{5}), 33, 0x84ec6fe0, 33, 0, "MEMBER-VIEW-ACTIVATE"},
      {mem(ViewFetch{}), 25, 0xb8ead02b, 25, 0, "MEMBER-VIEW-FETCH"},
      {mem(SyncL2{5, 4, {}}), 41, 0x4a322761, 41, 0, "MEMBER-SYNC-L2"},
      {mem(SyncL2{5, 4, {0, 1, 2, 7}}), 57, 0x6207e287, 57, 0,
       "MEMBER-SYNC-L2"},
      {mem(SyncDone{5, 4, 3, 1}), 45, 0x0dfa245a, 45, 0, "MEMBER-SYNC-DONE"},
  };
}

/// The variant indices of `Msg` bodies among the pinned frames.
template <class Msg>
std::set<std::size_t> pinned_types(const std::vector<Pinned>& pins) {
  std::set<std::size_t> seen;
  for (const Pinned& p : pins) {
    if (const auto* m = dynamic_cast<const Msg*>(p.msg.get())) {
      seen.insert(m->body().index());
    }
  }
  return seen;
}

template <class Msg>
void expect_every_type_pinned(const std::vector<Pinned>& pins) {
  using Body = std::decay_t<decltype(std::declval<const Msg&>().body())>;
  const std::set<std::size_t> seen = pinned_types<Msg>(pins);
  for (std::size_t i = 0; i < std::variant_size_v<Body>; ++i) {
    EXPECT_TRUE(seen.count(i) == 1)
        << typeid(Msg).name() << " type id " << i << " has no pinned frame";
  }
}

TEST(Codec, WireBytesArePinned) {
  const std::vector<Pinned> pins = pinned_frames();
  for (const Pinned& p : pins) {
    const Bytes wire = encode(*p.msg).to_bytes();
    const std::uint32_t crc = storage::crc32c(wire);
    const bool same = wire.size() == p.size && crc == p.crc &&
                      encoded_size(*p.msg) == p.size &&
                      p.msg->meta_bytes() == p.meta &&
                      p.msg->data_bytes() == p.data &&
                      std::string(p.msg->type_name()) == p.name;
    char row[160];
    std::snprintf(row, sizeof row, "%llu, 0x%08x, %llu, %llu, \"%s\"",
                  static_cast<unsigned long long>(wire.size()), crc,
                  static_cast<unsigned long long>(p.msg->meta_bytes()),
                  static_cast<unsigned long long>(p.msg->data_bytes()),
                  p.msg->type_name());
    EXPECT_TRUE(same) << "pinned " << p.name << ", got {" << row << "}\n"
                      << "  encoded_size " << encoded_size(*p.msg)
                      << "\n  frame " << hex(wire);

    // The decoder reads the pinned bytes back into the same message.
    MessagePtr back;
    const Status s = decode(wire, &back);
    ASSERT_TRUE(s.ok()) << p.name << ": " << s.to_string();
    EXPECT_STREQ(back->type_name(), p.msg->type_name());
    EXPECT_EQ(encode(*back).to_bytes(), wire) << p.name;
  }
  // A type added to a family without a pinned frame fails here.
  expect_every_type_pinned<core::LdsMessage>(pins);
  expect_every_type_pinned<baselines::AbdMessage>(pins);
  expect_every_type_pinned<baselines::CasMessage>(pins);
  expect_every_type_pinned<store::RemoteMessage>(pins);
  expect_every_type_pinned<member::MemberMessage>(pins);
}

// ---- range and count guards ------------------------------------------------

/// `frame` with the u8 at body offset `off` (after the fixed header) set to
/// `v`.
Bytes with_u8(Bytes frame, std::size_t off, std::uint8_t v) {
  frame.at(kFrameOverheadBytes + off) = v;
  return frame;
}

/// `frame` with the u32 at body offset `off` set to `v`.
Bytes with_u32(Bytes frame, std::size_t off, std::uint32_t v) {
  if (kFrameOverheadBytes + off + 4 > frame.size()) {
    ADD_FAILURE() << "offset " << off << " past the frame";
    return frame;
  }
  std::memcpy(frame.data() + kFrameOverheadBytes + off, &v, 4);
  return frame;
}

TEST(Codec, RejectsOutOfRangeEnumsInWholeFrames) {
  using namespace lds::store;
  register_store_wire();
  // RemoteGet: u8 mode | key-blob.  Modes above TagOnly are not read modes.
  const Bytes get =
      encode(*RemoteMessage::make(1, RemoteGet{"k", ReadMode::TagOnly}))
          .to_bytes();
  MessagePtr out;
  ASSERT_TRUE(decode(with_u8(get, 0, 2), &out).ok());
  expect_rejected(with_u8(get, 0, 3), "RemoteGet.mode = 3");
  expect_rejected(with_u8(get, 0, 0xff), "RemoteGet.mode = 255");

  // RemoteReply: u8 code | ...  Codes above kInvalidArgument are unknown.
  RemoteReply reply;
  reply.message = "m";
  const Bytes rep = encode(*RemoteMessage::make(1, reply)).to_bytes();
  ASSERT_TRUE(decode(with_u8(rep, 0, 6), &out).ok());
  expect_rejected(with_u8(rep, 0, 7), "RemoteReply.code = 7");
  expect_rejected(with_u8(rep, 0, 0xff), "RemoteReply.code = 255");
}

TEST(Codec, RejectsListCountsBeyondTheFrame) {
  using namespace lds::member;
  using namespace lds::store;
  register_store_wire();
  register_member_wire();
  constexpr std::uint32_t kHuge = 0xffffffffu;
  // JoinRequest: u16 port | u32 count | count x i32.
  const Bytes join =
      encode(*MemberMessage::make(JoinRequest{7002, {1, 2}})).to_bytes();
  expect_rejected(with_u32(join, 2, kHuge), "JoinRequest count");
  expect_rejected(with_u32(join, 2, 3), "JoinRequest count + 1");
  // SyncL2: u64 epoch | u32 index | u32 count | count x u32.
  const Bytes sync =
      encode(*MemberMessage::make(SyncL2{5, 4, {0, 1}})).to_bytes();
  expect_rejected(with_u32(sync, 12, kHuge), "SyncL2 count");
  expect_rejected(with_u32(sync, 12, 3), "SyncL2 count + 1");
  // RemoteReconfig: u8 op | u16 port | host-blob | u32 count | count x u32.
  const std::string host = "h";
  const Bytes reconf =
      encode(*RemoteMessage::make(1, RemoteReconfig{1, {3, 4}, host, 9}))
          .to_bytes();
  const std::size_t count_off = 1 + 2 + 4 + host.size();
  expect_rejected(with_u32(reconf, count_off, kHuge), "RemoteReconfig count");
  expect_rejected(with_u32(reconf, count_off, 3), "RemoteReconfig count + 1");
  // Writing the true count (2) at the same offsets decodes: the offsets
  // above hit the count fields.
  MessagePtr out;
  EXPECT_TRUE(decode(with_u32(join, 2, 2), &out).ok());
  EXPECT_TRUE(decode(with_u32(sync, 12, 2), &out).ok());
  EXPECT_TRUE(decode(with_u32(reconf, count_off, 2), &out).ok());
}

TEST(Codec, FrameLayoutSplitsPayloadExtent) {
  Rng rng(17);
  const Value v(rng.bytes(4096));
  const auto msg = core::LdsMessage::make(
      1, make_op_id(2, 3), core::PutData{Tag{5, 1}, v});
  const Bytes wire = encode(*msg).to_bytes();
  std::size_t total = 0, payload = 0;
  // Too short to know: Ok with zeros.
  ASSERT_TRUE(frame_layout(wire.data(), kFrameOverheadBytes - 1, &total,
                           &payload)
                  .ok());
  EXPECT_EQ(total, 0u);
  ASSERT_TRUE(frame_layout(wire.data(), wire.size(), &total, &payload).ok());
  EXPECT_EQ(total, wire.size());
  EXPECT_EQ(payload, v.size());

  // decode_with_payload over the head/payload split is the zero-copy mirror
  // of decode: same message, and the Value handle is shared, not copied.
  const std::size_t head_len = total - payload;
  Value pay(Bytes(wire.begin() + static_cast<std::ptrdiff_t>(head_len),
                  wire.end()));
  MessagePtr back;
  ASSERT_TRUE(
      decode_with_payload(wire.data(), head_len, pay, &back).ok());
  const auto* m = dynamic_cast<const core::LdsMessage*>(back.get());
  ASSERT_NE(m, nullptr);
  const auto* pd = std::get_if<core::PutData>(&m->body());
  ASSERT_NE(pd, nullptr);
  EXPECT_TRUE(pd->value.same_buffer(pay));
  EXPECT_EQ(static_cast<const Bytes&>(pd->value),
            static_cast<const Bytes&>(v));

  // A split that disagrees with the header is hostile.
  MessagePtr out;
  EXPECT_FALSE(
      decode_with_payload(wire.data(), head_len + 1, pay, &out).ok());
  EXPECT_FALSE(decode_with_payload(wire.data(), head_len,
                                   Value(rng.bytes(payload - 1)), &out)
                   .ok());
}

// ---- TcpTransport loopback --------------------------------------------------

TEST(TcpTransport, LoopbackStoreServiceServesPutGetMultiGet) {
  store::StoreOptions sopt;
  sopt.shards = 2;
  sopt.engine_mode = EngineMode::Parallel;
  sopt.engine_threads = 2;
  sopt.seed = 17;
  store::StoreService svc(sopt);
  ASSERT_TRUE(svc.listen(0).ok());
  ASSERT_NE(svc.listen_port(), 0);

  Status st;
  const auto client = store::Client::connect("127.0.0.1", svc.listen_port(),
                                             &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  ASSERT_TRUE(client->remote());

  // put -> get round-trips the value and version across the socket.
  const Value v = Value::from_string("over the wire");
  const auto put = client->put_sync("alpha", v);
  ASSERT_TRUE(put.ok()) << put.status().to_string();
  const auto got = client->get_sync("alpha");
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got.value().value, v);
  EXPECT_EQ(got.value().version, put.value());

  // NotFound travels as a typed status, not a crash or an empty value.
  EXPECT_TRUE(client->get_sync("never-written").status().is(
      StatusCode::kNotFound));

  // Conditional puts: create-if-absent, then a stale expected aborts with
  // the observed version.
  const auto created = client->put_if_version_sync(
      "beta", Value::from_string("b0"), Version(kTag0));
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  const auto fresh = client->put_if_version_sync(
      "beta", Value::from_string("b1"), created.value());
  ASSERT_TRUE(fresh.ok());
  const auto stale = client->put_if_version_sync(
      "beta", Value::from_string("b2"), created.value());
  EXPECT_TRUE(stale.status().is(StatusCode::kAborted));

  // multi_put + multi_get scatter-gather over the one connection.
  std::vector<store::KeyValue> entries;
  for (int i = 0; i < 8; ++i) {
    entries.push_back({"bulk-" + std::to_string(i),
                       Value::from_string("v" + std::to_string(i))});
  }
  const auto puts = client->multi_put_sync(entries);
  ASSERT_EQ(puts.size(), entries.size());
  for (const auto& r : puts) EXPECT_TRUE(r.status.ok());
  std::vector<std::string> keys;
  for (const auto& e : entries) keys.push_back(e.key);
  keys.push_back("absent");
  const auto gets = client->multi_get_sync(keys);
  ASSERT_EQ(gets.size(), keys.size());
  for (std::size_t i = 0; i + 1 < gets.size(); ++i) {
    ASSERT_TRUE(gets[i].status.ok());
    EXPECT_EQ(gets[i].value, entries[i].value);
  }
  EXPECT_TRUE(gets.back().status.is(StatusCode::kNotFound));

  // Closed client fails fast without touching the socket.
  client->close();
  EXPECT_TRUE(client->put_sync("alpha", v).status().is(
      StatusCode::kUnavailable));

  svc.stop_listening();
  svc.quiesce();
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    EXPECT_TRUE(svc.shard_history(s).check_atomicity(Bytes{}).ok);
  }
}

TEST(TcpTransport, ListenStopListenAgainAndRejectWhileListening) {
  store::StoreOptions sopt;
  sopt.shards = 1;
  sopt.engine_mode = EngineMode::Parallel;
  sopt.engine_threads = 1;
  store::StoreService svc(sopt);
  ASSERT_TRUE(svc.listen(0).ok());
  // Double listen is a Status, not an abort.
  EXPECT_TRUE(svc.listen(0).is(StatusCode::kInvalidArgument));
  svc.stop_listening();
  // Re-listen after stop gets a fresh server and a fresh port.
  ASSERT_TRUE(svc.listen(0).ok());
  ASSERT_NE(svc.listen_port(), 0);
  const auto client =
      store::Client::connect("127.0.0.1", svc.listen_port(), nullptr);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->put_sync("k", Value::from_string("v")).ok());
}

TEST(TcpTransport, OversizedRequestFailsWithInvalidArgument) {
  store::StoreOptions sopt;
  sopt.shards = 1;
  sopt.engine_mode = EngineMode::Parallel;
  sopt.engine_threads = 1;
  store::StoreService svc(sopt);
  ASSERT_TRUE(svc.listen(0).ok());
  const auto client =
      store::Client::connect("127.0.0.1", svc.listen_port(), nullptr);
  ASSERT_NE(client, nullptr);
  // A value that cannot fit one frame is the CALLER's error, reported
  // before anything reaches the wire — not a dead connection.
  const auto r =
      client->put_sync("big", Value(Bytes(kMaxFrameBytes + 1024, 0x5a)));
  EXPECT_TRUE(r.status().is(StatusCode::kInvalidArgument))
      << r.status().to_string();
  // The connection survives and keeps serving.
  EXPECT_TRUE(client->put_sync("small", Value::from_string("v")).ok());
}

TEST(TcpTransport, ListenRequiresParallelEngine) {
  store::StoreOptions sopt;
  sopt.shards = 1;  // Deterministic mode: handler thread would be unsafe
  store::StoreService svc(sopt);
  const Status st = svc.listen(0);
  EXPECT_TRUE(st.is(StatusCode::kInvalidArgument)) << st.to_string();
}

TEST(TcpTransport, ConnectFailureReportsStatus) {
  // Nothing listens here: connect must fail cleanly, not hang or crash.
  Status st;
  const auto client = store::Client::connect("127.0.0.1", 1, &st);
  EXPECT_EQ(client, nullptr);
  EXPECT_FALSE(st.ok());
}

TEST(TcpTransport, HostileBytesDisconnectWithoutCrashing) {
  // Raw garbage at the socket level: the hostile peer is dropped on its
  // first malformed frame while well-formed peers keep being served.
  TcpTransport server;
  std::atomic<int> received{0};
  ASSERT_TRUE(server
                  .listen(0,
                          [&](NodeId, MessagePtr) {
                            received.fetch_add(1, std::memory_order_relaxed);
                          })
                  .ok());

  const auto raw_send = [&](const Bytes& bytes) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    // The server must close on us: a blocking read observes EOF, not data.
    char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);
    ::close(fd);
  };

  // Hostile length prefix (way beyond the frame cap).
  raw_send(Bytes{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4});
  // Well-formed length, garbage header.
  Bytes garbage(64, 0xaa);
  const std::uint32_t n = 60;
  std::memcpy(garbage.data(), &n, 4);
  raw_send(garbage);
  EXPECT_GE(server.decode_errors(), 2u);

  // A legitimate peer still gets through after the hostile ones.
  TcpTransport good;
  NodeId peer = kNoNode;
  ASSERT_TRUE(
      good.connect("127.0.0.1", server.port(), [](NodeId, MessagePtr) {},
                   &peer)
          .ok());
  good.deliver(0, peer,
               core::LdsMessage::make(0, make_op_id(1, 1),
                                      core::TagResp{Tag{1, 1}}),
               0);
  for (int i = 0; i < 400 && received.load(std::memory_order_relaxed) < 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(std::memory_order_relaxed), 1);
  good.stop();
  server.stop();
}

TEST(TcpTransport, ConnectTimeoutIsBounded) {
  // A socket that never completes the handshake: listen with a full backlog
  // and never accept, so further connects stay half-open.  The old blocking
  // ::connect sat in the kernel retransmit schedule for minutes; the
  // nonblocking path must give up within connect_timeout_ms.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  // Saturate the accept queue (backlog 1, nothing ever accepts).
  std::vector<int> fillers;
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  TcpTransport::Options opt;
  opt.connect_timeout_ms = 300;
  TcpTransport t(opt);
  NodeId peer = kNoNode;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st =
      t.connect("127.0.0.1", port, [](NodeId, MessagePtr) {}, &peer);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  if (!st.ok()) {
    // The expected outcome: the overflowing SYN was dropped and the connect
    // timed out within (roughly) the configured budget.
    EXPECT_TRUE(st.is(StatusCode::kUnavailable)) << st.to_string();
    EXPECT_LT(elapsed.count(), 5000) << "timeout not honored: " << st.to_string();
  }
  // Some kernels complete loopback handshakes past the backlog; then the
  // connect legitimately succeeds, fast.  Either way it must not block for
  // the kernel's minutes-long retry schedule.
  EXPECT_LT(elapsed.count(), 5000);
  t.stop();
  for (const int fd : fillers) ::close(fd);
  ::close(lfd);
}

TEST(TcpTransport, ConnectToClosedPortFailsFast) {
  TcpTransport::Options opt;
  opt.connect_timeout_ms = 2000;
  TcpTransport t(opt);
  // Grab an ephemeral port, close it again: nothing listens there, so the
  // kernel answers the SYN with RST and connect must fail immediately (far
  // inside the timeout), with a real error, not a hang.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &alen),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  NodeId peer = kNoNode;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st =
      t.connect("127.0.0.1", port, [](NodeId, MessagePtr) {}, &peer);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_FALSE(st.ok());
  EXPECT_LT(elapsed.count(), 1000);
  t.stop();
}

TEST(TcpTransport, PollFailureFailsConnsAndStopsTransport) {
  // When poll(2) itself fails the loop can no longer move anyone's bytes.
  // The old code silently broke out of the loop, stranding every connection
  // with no disconnect callback; now each conn fails through the handler and
  // the transport marks itself stopped.
  TcpTransport server;
  ASSERT_TRUE(server.listen(0, [](NodeId, MessagePtr) {}).ok());

  TcpTransport client;
  std::atomic<int> disconnects{0};
  client.set_disconnect_handler(
      [&](NodeId) { disconnects.fetch_add(1, std::memory_order_relaxed); });
  NodeId peer = kNoNode;
  ASSERT_TRUE(
      client.connect("127.0.0.1", server.port(), [](NodeId, MessagePtr) {},
                     &peer)
          .ok());
  ASSERT_FALSE(client.stopped());

  client.inject_poll_failure_for_testing();
  for (int i = 0; i < 400 && disconnects.load(std::memory_order_relaxed) < 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(disconnects.load(std::memory_order_relaxed), 1);
  EXPECT_TRUE(client.stopped());

  // The dead transport refuses new work instead of queueing onto a loop
  // that no longer runs (the old behavior aborted or hung here).
  NodeId peer2 = kNoNode;
  const Status st = client.connect("127.0.0.1", server.port(),
                                   [](NodeId, MessagePtr) {}, &peer2);
  EXPECT_TRUE(st.is(StatusCode::kUnavailable)) << st.to_string();
  client.stop();
  server.stop();
}

}  // namespace
}  // namespace lds::net::codec
