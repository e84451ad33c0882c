#include "net/codec.h"

#include <atomic>

#include "baselines/abd.h"
#include "baselines/cas.h"
#include "common/assert.h"
#include "lds/heartbeat.h"
#include "lds/messages.h"

namespace lds::net::codec {

namespace {

// overloaded{} and truncated_frame() live in codec.h, shared with every
// registered family codec (store/remote.cpp registers one too).
Status truncated(const std::string& what) { return truncated_frame(what); }

Status unknown_type(const char* family, std::uint8_t type) {
  return Status::InvalidArgument(std::string("unknown ") + family +
                                 " type id " + std::to_string(type));
}

/// Frames whose trailing payload is a shared Value stay zero-copy: the
/// encoder records the handle in WireInfo instead of appending bytes.
void set_body(WireInfo* info, const Value& v) {
  info->has_body = true;
  info->body = v;
}

// ---- Family::Lds -------------------------------------------------------------

// Type ids are the LdsBody variant indices — the variant order in
// lds/messages.h is frozen by the wire format (see the codec.h header note).
class LdsCodec final : public FamilyCodec {
 public:
  const char* name() const override { return "lds"; }

  bool encode_body(const Payload& msg, Writer& w,
                   WireInfo* info) const override {
    const auto* m = dynamic_cast<const core::LdsMessage*>(&msg);
    if (m == nullptr) return false;
    info->type = static_cast<std::uint8_t>(m->body().index());
    info->obj = m->obj();
    info->op = m->op();
    using namespace lds::core;
    std::visit(
        overloaded{
            [&](const QueryTag&) {},
            [&](const TagResp& b) { w.tag(b.tag); },
            [&](const PutData& b) {
              w.tag(b.tag);
              set_body(info, b.value);
            },
            [&](const WriteAck& b) { w.tag(b.tag); },
            [&](const QueryCommTag&) {},
            [&](const CommTagResp& b) { w.tag(b.tag); },
            [&](const QueryData& b) { w.tag(b.treq); },
            [&](const DataRespValue& b) {
              w.tag(b.tag);
              set_body(info, b.value);
            },
            [&](const DataRespCoded& b) {
              w.tag(b.tag);
              w.i32(b.code_index);
              w.blob(b.element.bytes());
            },
            [&](const DataRespNack&) {},
            [&](const PutTag& b) { w.tag(b.tag); },
            [&](const PutTagAck&) {},
            [&](const UnregisterReader&) {},
            [&](const CommitTag& b) {
              w.tag(b.tag);
              w.u64(b.bcast_id);
            },
            [&](const WriteCodeElem& b) {
              w.tag(b.tag);
              w.blob(b.element.bytes());
            },
            [&](const AckCodeElem& b) { w.tag(b.tag); },
            [&](const QueryCodeElem& b) { w.i32(b.target_index); },
            [&](const SendHelperElem& b) {
              w.tag(b.tag);
              w.blob(b.helper.bytes());
            },
        },
        m->body());
    return true;
  }

  bool size_of(const Payload& msg, std::uint64_t* size) const override {
    const auto* m = dynamic_cast<const core::LdsMessage*>(&msg);
    if (m == nullptr) return false;
    using namespace lds::core;
    constexpr std::uint64_t kBase = kFrameOverheadBytes;
    constexpr std::uint64_t kTag = kTagWireBytes;
    *size = std::visit(
        overloaded{
            [](const QueryTag&) -> std::uint64_t { return kBase; },
            [](const TagResp&) -> std::uint64_t { return kBase + kTag; },
            [](const PutData& b) -> std::uint64_t {
              return kBase + kTag + b.value.size();
            },
            [](const WriteAck&) -> std::uint64_t { return kBase + kTag; },
            [](const QueryCommTag&) -> std::uint64_t { return kBase; },
            [](const CommTagResp&) -> std::uint64_t { return kBase + kTag; },
            [](const QueryData&) -> std::uint64_t { return kBase + kTag; },
            [](const DataRespValue& b) -> std::uint64_t {
              return kBase + kTag + b.value.size();
            },
            [](const DataRespCoded& b) -> std::uint64_t {
              return kBase + kTag + 4 + 4 + b.element.size();
            },
            [](const DataRespNack&) -> std::uint64_t { return kBase; },
            [](const PutTag&) -> std::uint64_t { return kBase + kTag; },
            [](const PutTagAck&) -> std::uint64_t { return kBase; },
            [](const UnregisterReader&) -> std::uint64_t { return kBase; },
            [](const CommitTag&) -> std::uint64_t { return kBase + kTag + 8; },
            [](const WriteCodeElem& b) -> std::uint64_t {
              return kBase + kTag + 4 + b.element.size();
            },
            [](const AckCodeElem&) -> std::uint64_t { return kBase + kTag; },
            [](const QueryCodeElem&) -> std::uint64_t { return kBase + 4; },
            [](const SendHelperElem& b) -> std::uint64_t {
              return kBase + kTag + 4 + b.helper.size();
            },
        },
        m->body());
    return true;
  }

  Status decode_body(std::uint8_t type, ObjectId obj, OpId op, Reader& r,
                     MessagePtr* out) const override {
    using namespace lds::core;
    LdsBody body;
    switch (type) {
      case 0:
        body = QueryTag{};
        break;
      case 1: {
        TagResp b;
        if (!r.tag(&b.tag)) return truncated("TagResp.tag");
        body = b;
        break;
      }
      case 2: {
        PutData b;
        if (!r.tag(&b.tag)) return truncated("PutData.tag");
        if (!r.value(&b.value)) return truncated("PutData.value");
        body = std::move(b);
        break;
      }
      case 3: {
        WriteAck b;
        if (!r.tag(&b.tag)) return truncated("WriteAck.tag");
        body = b;
        break;
      }
      case 4:
        body = QueryCommTag{};
        break;
      case 5: {
        CommTagResp b;
        if (!r.tag(&b.tag)) return truncated("CommTagResp.tag");
        body = b;
        break;
      }
      case 6: {
        QueryData b;
        if (!r.tag(&b.treq)) return truncated("QueryData.treq");
        body = b;
        break;
      }
      case 7: {
        DataRespValue b;
        if (!r.tag(&b.tag)) return truncated("DataRespValue.tag");
        if (!r.value(&b.value)) return truncated("DataRespValue.value");
        body = std::move(b);
        break;
      }
      case 8: {
        DataRespCoded b;
        if (!r.tag(&b.tag) || !r.i32(&b.code_index))
          return truncated("DataRespCoded header");
        Bytes element;
        if (!r.blob(&element)) return truncated("DataRespCoded.element");
        b.element = Value(std::move(element));
        body = std::move(b);
        break;
      }
      case 9:
        body = DataRespNack{};
        break;
      case 10: {
        PutTag b;
        if (!r.tag(&b.tag)) return truncated("PutTag.tag");
        body = b;
        break;
      }
      case 11:
        body = PutTagAck{};
        break;
      case 12:
        body = UnregisterReader{};
        break;
      case 13: {
        CommitTag b;
        if (!r.tag(&b.tag) || !r.u64(&b.bcast_id))
          return truncated("CommitTag");
        body = b;
        break;
      }
      case 14: {
        WriteCodeElem b;
        if (!r.tag(&b.tag)) return truncated("WriteCodeElem.tag");
        Bytes element;
        if (!r.blob(&element)) return truncated("WriteCodeElem.element");
        b.element = Value(std::move(element));
        body = std::move(b);
        break;
      }
      case 15: {
        AckCodeElem b;
        if (!r.tag(&b.tag)) return truncated("AckCodeElem.tag");
        body = b;
        break;
      }
      case 16: {
        QueryCodeElem b;
        if (!r.i32(&b.target_index)) return truncated("QueryCodeElem");
        body = b;
        break;
      }
      case 17: {
        SendHelperElem b;
        if (!r.tag(&b.tag)) return truncated("SendHelperElem.tag");
        Bytes helper;
        if (!r.blob(&helper)) return truncated("SendHelperElem.helper");
        b.helper = Value(std::move(helper));
        body = std::move(b);
        break;
      }
      default:
        return unknown_type("lds", type);
    }
    *out = core::LdsMessage::make(obj, op, std::move(body));
    return Status::Ok();
  }
};

// ---- Family::Abd -------------------------------------------------------------

class AbdCodec final : public FamilyCodec {
 public:
  const char* name() const override { return "abd"; }

  bool encode_body(const Payload& msg, Writer& w,
                   WireInfo* info) const override {
    const auto* m = dynamic_cast<const baselines::AbdMessage*>(&msg);
    if (m == nullptr) return false;
    info->type = static_cast<std::uint8_t>(m->body().index());
    info->obj = m->obj();
    info->op = m->op();
    using namespace lds::baselines;
    std::visit(
        overloaded{
            [&](const AbdQuery& b) { w.u8(b.want_value ? 1 : 0); },
            [&](const AbdQueryResp& b) {
              w.tag(b.tag);
              set_body(info, b.value);
            },
            [&](const AbdUpdate& b) {
              w.tag(b.tag);
              set_body(info, b.value);
            },
            [&](const AbdUpdateAck& b) { w.tag(b.tag); },
        },
        m->body());
    return true;
  }

  bool size_of(const Payload& msg, std::uint64_t* size) const override {
    const auto* m = dynamic_cast<const baselines::AbdMessage*>(&msg);
    if (m == nullptr) return false;
    using namespace lds::baselines;
    constexpr std::uint64_t kBase = kFrameOverheadBytes;
    constexpr std::uint64_t kTag = kTagWireBytes;
    *size = std::visit(
        overloaded{
            [](const AbdQuery&) -> std::uint64_t { return kBase + 1; },
            [](const AbdQueryResp& b) -> std::uint64_t {
              return kBase + kTag + b.value.size();
            },
            [](const AbdUpdate& b) -> std::uint64_t {
              return kBase + kTag + b.value.size();
            },
            [](const AbdUpdateAck&) -> std::uint64_t { return kBase + kTag; },
        },
        m->body());
    return true;
  }

  Status decode_body(std::uint8_t type, ObjectId obj, OpId op, Reader& r,
                     MessagePtr* out) const override {
    using namespace lds::baselines;
    AbdBody body;
    switch (type) {
      case 0: {
        AbdQuery b;
        std::uint8_t want = 0;
        if (!r.u8(&want)) return truncated("AbdQuery.want_value");
        b.want_value = want != 0;
        body = b;
        break;
      }
      case 1: {
        AbdQueryResp b;
        if (!r.tag(&b.tag)) return truncated("AbdQueryResp.tag");
        if (!r.value(&b.value)) return truncated("AbdQueryResp.value");
        body = std::move(b);
        break;
      }
      case 2: {
        AbdUpdate b;
        if (!r.tag(&b.tag)) return truncated("AbdUpdate.tag");
        if (!r.value(&b.value)) return truncated("AbdUpdate.value");
        body = std::move(b);
        break;
      }
      case 3: {
        AbdUpdateAck b;
        if (!r.tag(&b.tag)) return truncated("AbdUpdateAck.tag");
        body = b;
        break;
      }
      default:
        return unknown_type("abd", type);
    }
    *out = baselines::AbdMessage::make(obj, op, std::move(body));
    return Status::Ok();
  }
};

// ---- Family::Cas -------------------------------------------------------------

class CasCodec final : public FamilyCodec {
 public:
  const char* name() const override { return "cas"; }

  bool encode_body(const Payload& msg, Writer& w,
                   WireInfo* info) const override {
    const auto* m = dynamic_cast<const baselines::CasMessage*>(&msg);
    if (m == nullptr) return false;
    info->type = static_cast<std::uint8_t>(m->body().index());
    info->obj = m->obj();
    info->op = m->op();
    using namespace lds::baselines;
    std::visit(
        overloaded{
            [&](const CasQuery&) {},
            [&](const CasQueryResp& b) { w.tag(b.fin_tag); },
            [&](const CasPreWrite& b) {
              w.tag(b.tag);
              w.blob(b.element);
            },
            [&](const CasPreAck& b) { w.tag(b.tag); },
            [&](const CasFinalize& b) {
              w.tag(b.tag);
              w.u8(b.want_element ? 1 : 0);
            },
            [&](const CasFinAck& b) {
              w.tag(b.tag);
              w.u8(b.has_element ? 1 : 0);
              w.blob(b.element);
            },
        },
        m->body());
    return true;
  }

  bool size_of(const Payload& msg, std::uint64_t* size) const override {
    const auto* m = dynamic_cast<const baselines::CasMessage*>(&msg);
    if (m == nullptr) return false;
    using namespace lds::baselines;
    constexpr std::uint64_t kBase = kFrameOverheadBytes;
    constexpr std::uint64_t kTag = kTagWireBytes;
    *size = std::visit(
        overloaded{
            [](const CasQuery&) -> std::uint64_t { return kBase; },
            [](const CasQueryResp&) -> std::uint64_t { return kBase + kTag; },
            [](const CasPreWrite& b) -> std::uint64_t {
              return kBase + kTag + 4 + b.element.size();
            },
            [](const CasPreAck&) -> std::uint64_t { return kBase + kTag; },
            [](const CasFinalize&) -> std::uint64_t {
              return kBase + kTag + 1;
            },
            [](const CasFinAck& b) -> std::uint64_t {
              return kBase + kTag + 1 + 4 + b.element.size();
            },
        },
        m->body());
    return true;
  }

  Status decode_body(std::uint8_t type, ObjectId obj, OpId op, Reader& r,
                     MessagePtr* out) const override {
    using namespace lds::baselines;
    CasBody body;
    switch (type) {
      case 0:
        body = CasQuery{};
        break;
      case 1: {
        CasQueryResp b;
        if (!r.tag(&b.fin_tag)) return truncated("CasQueryResp.fin_tag");
        body = b;
        break;
      }
      case 2: {
        CasPreWrite b;
        if (!r.tag(&b.tag)) return truncated("CasPreWrite.tag");
        if (!r.blob(&b.element)) return truncated("CasPreWrite.element");
        body = std::move(b);
        break;
      }
      case 3: {
        CasPreAck b;
        if (!r.tag(&b.tag)) return truncated("CasPreAck.tag");
        body = b;
        break;
      }
      case 4: {
        CasFinalize b;
        std::uint8_t want = 0;
        if (!r.tag(&b.tag) || !r.u8(&want)) return truncated("CasFinalize");
        b.want_element = want != 0;
        body = b;
        break;
      }
      case 5: {
        CasFinAck b;
        std::uint8_t has = 0;
        if (!r.tag(&b.tag) || !r.u8(&has)) return truncated("CasFinAck");
        b.has_element = has != 0;
        if (!r.blob(&b.element)) return truncated("CasFinAck.element");
        body = std::move(b);
        break;
      }
      default:
        return unknown_type("cas", type);
    }
    *out = baselines::CasMessage::make(obj, op, std::move(body));
    return Status::Ok();
  }
};

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
    if (!r.u64(&seq)) return truncated("heartbeat.seq");
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
    static const LdsCodec lds;
    static const AbdCodec abd;
    static const CasCodec cas;
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
  for (std::size_t f = 0; f < kMaxFamilies; ++f) {
    const FamilyCodec* fc = family_codec(static_cast<std::uint8_t>(f));
    if (fc == nullptr) continue;
    Writer fixed(32);
    WireInfo info;
    if (!fc->encode_body(msg, fixed, &info)) continue;
    const Bytes fields = std::move(fixed).take();
    Frame frame;
    frame.body = info.has_body ? info.body : Value{};
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
    return truncated("header");
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
    return truncated("have " + std::to_string(len) + " bytes");
  }
  FrameHeader h;
  if (Status s = parse_header(data, len, &h); !s.ok()) return s;
  const std::size_t fields_len = h.total - kFrameOverheadBytes - h.payload;
  Reader r(data + kFrameOverheadBytes, fields_len);
  const std::uint8_t* pay = data + kFrameOverheadBytes + fields_len;
  r.set_payload(Value(Bytes(pay, pay + h.payload)));
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
  if (head_len < kFrameOverheadBytes) return truncated("header");
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
