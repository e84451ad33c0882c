#include "net/codec.h"

#include <atomic>

#include "baselines/abd.h"
#include "baselines/cas.h"
#include "common/assert.h"
#include "lds/heartbeat.h"
#include "lds/messages.h"

namespace lds::net::codec {

namespace {

// ---- Family::Heartbeat -------------------------------------------------------

class HeartbeatCodec final : public FamilyCodec {
 public:
  const char* name() const override { return "heartbeat"; }

  bool encode_body(const Payload& msg, Writer& w,
                   WireInfo* info) const override {
    if (const auto* ping = dynamic_cast<const core::HeartbeatPing*>(&msg)) {
      info->type = 0;
      w.u64(ping->seq());
      return true;
    }
    if (const auto* pong = dynamic_cast<const core::HeartbeatPong*>(&msg)) {
      info->type = 1;
      w.u64(pong->seq());
      return true;
    }
    return false;
  }

  bool size_of(const Payload& msg, std::uint64_t* size) const override {
    if (dynamic_cast<const core::HeartbeatPing*>(&msg) == nullptr &&
        dynamic_cast<const core::HeartbeatPong*>(&msg) == nullptr) {
      return false;
    }
    *size = kFrameOverheadBytes + 8;
    return true;
  }

  Status decode_body(std::uint8_t type, ObjectId obj, OpId op, Reader& r,
                     MessagePtr* out) const override {
    (void)obj;
    (void)op;
    std::uint64_t seq = 0;
    if (!r.u64(&seq)) return truncated_frame("heartbeat.seq");
    switch (type) {
      case 0:
        *out = std::make_shared<core::HeartbeatPing>(seq);
        return Status::Ok();
      case 1:
        *out = std::make_shared<core::HeartbeatPong>(seq);
        return Status::Ok();
      default:
        return unknown_type("heartbeat", type);
    }
  }
};

// ---- registry ----------------------------------------------------------------

std::atomic<const FamilyCodec*> g_families[kMaxFamilies] = {};

void ensure_builtins() {
  static const bool registered = [] {
    static const SchemaCodec<core::LdsMessage> lds("lds");
    static const SchemaCodec<baselines::AbdMessage> abd("abd");
    static const SchemaCodec<baselines::CasMessage> cas("cas");
    static const HeartbeatCodec hb;
    register_family(Family::Lds, &lds);
    register_family(Family::Abd, &abd);
    register_family(Family::Cas, &cas);
    register_family(Family::Heartbeat, &hb);
    return true;
  }();
  (void)registered;
}

const FamilyCodec* family_codec(std::uint8_t f) {
  return f < kMaxFamilies
             ? g_families[f].load(std::memory_order_acquire)
             : nullptr;
}

}  // namespace

Status Decoder::status(const char* name) const {
  switch (fault_) {
    case Fault::kRange:
      return Status::InvalidArgument(std::string(name) + ": value " +
                                     std::to_string(value_) + " out of range");
    case Fault::kCount:
      return truncated_frame(std::string(name) + " list of " +
                             std::to_string(value_));
    default:
      return truncated_frame(name);
  }
}

void register_family(Family f, const FamilyCodec* impl) {
  const auto idx = static_cast<std::size_t>(f);
  LDS_REQUIRE(idx < kMaxFamilies, "codec::register_family: family id too big");
  LDS_REQUIRE(impl != nullptr, "codec::register_family: null codec");
  const FamilyCodec* prev =
      g_families[idx].exchange(impl, std::memory_order_acq_rel);
  LDS_REQUIRE(prev == nullptr || prev == impl,
              "codec::register_family: family registered twice");
}

Frame encode(const Payload& msg) {
  ensure_builtins();
  Writer fixed(32);  // a family that declines the message writes nothing
  for (std::size_t f = 0; f < kMaxFamilies; ++f) {
    const FamilyCodec* fc = family_codec(static_cast<std::uint8_t>(f));
    if (fc == nullptr) continue;
    WireInfo info;
    if (!fc->encode_body(msg, fixed, &info)) continue;
    const Bytes fields = std::move(fixed).take();
    Frame frame;
    frame.body = info.body;
    Writer w(kFrameOverheadBytes + fields.size());
    w.u32(0);  // frame-length placeholder, patched below
    w.u16(kMagic);
    w.u8(kWireVersion);
    w.u8(static_cast<std::uint8_t>(f));
    w.u8(info.type);
    w.u32(info.obj);
    w.u64(info.op);
    w.u32(static_cast<std::uint32_t>(frame.body.size()));
    w.append(fields.data(), fields.size());
    const std::size_t total = w.size() + frame.body.size();
    w.patch_u32(0, static_cast<std::uint32_t>(total - kLenPrefixBytes));
    frame.head = std::move(w).take();
    return frame;
  }
  LDS_REQUIRE(false, "codec::encode: payload belongs to no known family");
  return {};
}

std::uint64_t encoded_size(const Payload& msg) {
  ensure_builtins();
  for (std::size_t f = 0; f < kMaxFamilies; ++f) {
    const FamilyCodec* fc = family_codec(static_cast<std::uint8_t>(f));
    if (fc == nullptr) continue;
    std::uint64_t size = 0;
    if (fc->size_of(msg, &size)) return size;
  }
  LDS_REQUIRE(false, "codec::encoded_size: payload belongs to no known family");
  return 0;
}

Status frame_length(const std::uint8_t* data, std::size_t len,
                    std::size_t* total) {
  *total = 0;
  if (len < kLenPrefixBytes) return Status::Ok();  // need more bytes
  std::uint32_t n = 0;
  std::memcpy(&n, data, 4);
  if (n > kMaxFrameBytes) {
    return Status::InvalidArgument("oversized frame: " + std::to_string(n) +
                                   " bytes exceeds limit");
  }
  *total = kLenPrefixBytes + n;
  return Status::Ok();
}

namespace {

/// Parsed generic header of one frame (prefix included in `total`).
struct FrameHeader {
  std::uint8_t family = 0;
  std::uint8_t type = 0;
  ObjectId obj = 0;
  OpId op = kNoOp;
  std::size_t total = 0;    ///< full frame size, prefix included
  std::size_t payload = 0;  ///< trailing payload bytes within `total`
};

/// Parse and validate the fixed header.  Requires len >= kFrameOverheadBytes
/// (the caller gates on frame_length / buffered bytes first).
Status parse_header(const std::uint8_t* data, std::size_t len,
                    FrameHeader* h) {
  std::size_t total = 0;
  if (Status s = frame_length(data, len, &total); !s.ok()) return s;
  if (total < kFrameOverheadBytes) {
    return Status::InvalidArgument("runt frame: " + std::to_string(total) +
                                   " bytes");
  }
  Reader r(data + kLenPrefixBytes, kHeaderBytes);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint32_t payload = 0;
  if (!r.u16(&magic) || !r.u8(&version) || !r.u8(&h->family) ||
      !r.u8(&h->type) || !r.u32(&h->obj) || !r.u64(&h->op) ||
      !r.u32(&payload)) {
    return truncated_frame("header");
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("bad magic 0x" + std::to_string(magic));
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unknown wire version " +
                                   std::to_string(version));
  }
  if (kFrameOverheadBytes + payload > total) {
    return Status::InvalidArgument(
        "payload of " + std::to_string(payload) +
        " bytes overruns frame of " + std::to_string(total));
  }
  h->total = total;
  h->payload = payload;
  return Status::Ok();
}

/// Shared tail of both decode paths: fields reader (payload pre-installed),
/// family dispatch, exact-consumption checks.
Status decode_fields(const FrameHeader& h, Reader& r, MessagePtr* out) {
  const FamilyCodec* fc = family_codec(h.family);
  if (fc == nullptr) {
    return Status::InvalidArgument("unknown family id " +
                                   std::to_string(h.family));
  }
  MessagePtr msg;
  if (Status s = fc->decode_body(h.type, h.obj, h.op, r, &msg); !s.ok()) {
    return s;
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("frame has " +
                                   std::to_string(r.remaining()) +
                                   " trailing bytes");
  }
  if (r.payload_pending() && h.payload > 0) {
    return Status::InvalidArgument("type carries no payload but frame has " +
                                   std::to_string(h.payload) +
                                   " payload bytes");
  }
  *out = std::move(msg);
  return Status::Ok();
}

}  // namespace

Status decode(const std::uint8_t* data, std::size_t len, MessagePtr* out,
              std::size_t* consumed) {
  ensure_builtins();
  std::size_t total = 0;
  if (Status s = frame_length(data, len, &total); !s.ok()) return s;
  if (total == 0 || len < total) {
    return truncated_frame("have " + std::to_string(len) + " bytes");
  }
  FrameHeader h;
  if (Status s = parse_header(data, len, &h); !s.ok()) return s;
  const std::size_t fields_len = h.total - kFrameOverheadBytes - h.payload;
  Reader r(data + kFrameOverheadBytes, fields_len);
  const std::uint8_t* pay = data + kFrameOverheadBytes + fields_len;
  Bytes payload;  // assign(), not the range constructor: GCC 12 misreads
                  // that one as freeing a non-heap object
  payload.assign(pay, pay + h.payload);
  r.set_payload(Value(std::move(payload)));
  if (Status s = decode_fields(h, r, out); !s.ok()) return s;
  if (consumed != nullptr) *consumed = h.total;
  return Status::Ok();
}

Status decode(const Bytes& frame, MessagePtr* out) {
  return decode(frame.data(), frame.size(), out);
}

Status decode_with_payload(const std::uint8_t* head, std::size_t head_len,
                           Value payload, MessagePtr* out) {
  ensure_builtins();
  if (head_len < kFrameOverheadBytes) return truncated_frame("header");
  FrameHeader h;
  if (Status s = parse_header(head, head_len, &h); !s.ok()) return s;
  if (h.payload != payload.size() || head_len != h.total - h.payload) {
    return Status::InvalidArgument(
        "head/payload split disagrees with header: head " +
        std::to_string(head_len) + " + payload " +
        std::to_string(payload.size()) + " vs frame " +
        std::to_string(h.total) + "/" + std::to_string(h.payload));
  }
  Reader r(head + kFrameOverheadBytes, head_len - kFrameOverheadBytes);
  r.set_payload(std::move(payload));
  return decode_fields(h, r, out);
}

Status frame_layout(const std::uint8_t* data, std::size_t len,
                    std::size_t* total, std::size_t* payload) {
  *total = 0;
  *payload = 0;
  if (len < kLenPrefixBytes) return Status::Ok();  // need more bytes
  std::size_t t = 0;
  if (Status s = frame_length(data, len, &t); !s.ok()) return s;
  if (len < kFrameOverheadBytes) {
    // Frame extent known but header incomplete: a runt total is already
    // decidable, otherwise ask for more bytes.
    if (t < kFrameOverheadBytes) {
      return Status::InvalidArgument("runt frame: " + std::to_string(t) +
                                     " bytes");
    }
    return Status::Ok();
  }
  FrameHeader h;
  if (Status s = parse_header(data, len, &h); !s.ok()) return s;
  *total = h.total;
  *payload = h.payload;
  return Status::Ok();
}

}  // namespace lds::net::codec
