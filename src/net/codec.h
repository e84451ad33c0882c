// The wire format: every protocol message has ONE exact binary encoding.
//
// Until this layer existed the cost model (paper, Section II-d) charged each
// message an *estimated* meta-data constant and the system could only run
// in-process (payloads were shared_ptr handles).  The codec fixes both: it
// defines a flat, length-prefixed frame for every message of the LDS, ABD and
// CAS protocols (plus the heartbeat micro-protocol, the store RPC family and
// the membership family), so that
//
//   * meta_bytes() is the exact encoded size minus the data payload — the
//     recorded communication costs are measured on-wire bytes, and
//   * a real transport (net/transport.h TcpTransport) can move the same
//     messages between processes.
//
// Frame layout (all integers little-endian, fixed width):
//
//   offset  size  field
//   0       4     frame length N (bytes after this prefix; <= kMaxFrameBytes)
//   4       2     magic 0x4C53 ("LS")
//   6       1     wire version (kWireVersion; bumped on any layout change)
//   7       1     family (Family: Lds / Abd / Cas / Heartbeat / Store / Member)
//   8       1     type id within the family (the variant index — frozen)
//   9       4     ObjectId
//   13      8     OpId
//   21      4     payload length P (bytes of trailing Value payload; 0 = none)
//   25      ...   body fields (tags, counters, flags, blobs), then exactly P
//                 trailing payload bytes closing the frame
//
// Since v2 the payload length lives in the fixed header (not as a u32 glued
// to the body fields): a streaming receiver knows the payload extent after
// kFrameOverheadBytes bytes and can recv a large payload straight into its
// own exact-size buffer — zero-copy on BOTH sides of the wire.
//
// Message schemas.  Every body struct of the variant families (Lds, Abd,
// Cas, Store, Member) names itself and lists its body fields ONCE, in wire
// order:
//
//   struct CommitTag {
//     static constexpr const char* kName = "COMMIT-TAG";
//     Tag tag;
//     std::uint64_t bcast_id = 0;
//     static void wire(auto& m, auto& w) {
//       w.tag(m.tag);
//       w.u64(m.bcast_id);
//     }
//   };
//
// Three field visitors walk that list: Encoder (the frame's body fields and
// its zero-copy payload), Sizer (the exact frame size and its data bytes,
// without encoding) and Decoder (bounds-checked; a bad field rejects the
// frame with InvalidArgument).  SchemaCodec<Msg> is the family codec they
// make — type id = the body's variant index — and SchemaPayload<Msg> gives
// the message class its data_bytes(), meta_bytes() and type_name() from the
// same list.  The field vocabulary (every field is meta-data unless noted):
//
//   u8 u16 u32 u64 i32  fixed-width integer
//   flag                u8 0/1; any non-zero byte decodes as true
//   tag                 u64 z, then i32 w
//   version             u8 known (a flag), then tag
//   code(e, max)        u8 enum value; decode rejects a value above max
//   blob                u32 length, then the bytes (keys, strings, views)
//   data                u32 length, then the bytes; the bytes are DATA
//   list                u32 count, then count 4-byte integers; decode
//                       rejects a count above the bytes left / 4
//   payload             the trailing zero-copy Value (header field P);
//                       DATA, at most one per type, listed last
//
// Encoding is zero-copy for `Value` payloads: encode() returns a Frame whose
// `head` holds the prefix + header + body fields, and whose `body` is a
// shared handle onto the value buffer — a transport writes the two spans
// back to back without ever copying the value.  decode_with_payload() is the
// receive-side mirror: the transport hands the payload bytes in as a Value
// it recv'd directly, and the decoder installs the handle instead of copying.
//
// Versioning rules: the header is frozen; unknown versions, families and
// type ids are rejected with Status::InvalidArgument (decode never crashes
// on hostile input).  New message types append new type ids; removed types
// leave their id unused; any change to an existing body layout bumps
// kWireVersion.
#pragma once

#include <cstring>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <variant>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "net/network.h"

namespace lds::net::codec {

inline constexpr std::uint16_t kMagic = 0x4C53;  // "LS"
inline constexpr std::uint8_t kWireVersion = 2;
/// Bytes of the u32 frame-length prefix.
inline constexpr std::size_t kLenPrefixBytes = 4;
/// Fixed header after the prefix: magic, version, family, type, obj, op,
/// payload length.
inline constexpr std::size_t kHeaderBytes = 2 + 1 + 1 + 1 + 4 + 8 + 4;
/// Every frame costs this much before its body fields.
inline constexpr std::size_t kFrameOverheadBytes =
    kLenPrefixBytes + kHeaderBytes;
/// Wire size of a Tag (u64 z + i32 w).
inline constexpr std::size_t kTagWireBytes = 12;
/// Hard ceiling on one frame: decode rejects anything larger as hostile.
inline constexpr std::uint64_t kMaxFrameBytes = 64ull << 20;

/// Protocol family carried in the frame header.  Lds/Abd/Cas/Heartbeat are
/// built in; Store is registered by the store RPC layer (store/remote.h),
/// Member by the membership fabric (member/wire.h).
enum class Family : std::uint8_t {
  Lds = 0,
  Abd = 1,
  Cas = 2,
  Heartbeat = 3,
  Store = 4,
  Member = 5,
};
inline constexpr std::size_t kMaxFamilies = 8;

/// Visitor aggregate for std::visit over message body variants.
template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

/// The decoder's rejection vocabulary: a truncated field inside a frame.
inline Status truncated_frame(const std::string& what) {
  return Status::InvalidArgument("truncated frame: " + what);
}
/// ... and a type id its family does not define.
inline Status unknown_type(const char* family, std::uint8_t type) {
  return Status::InvalidArgument(std::string("unknown ") + family +
                                 " type id " + std::to_string(type));
}

// ---- primitive writers / readers -------------------------------------------

/// Append-only little-endian byte builder for frame heads and body fields.
class Writer {
 public:
  explicit Writer(std::size_t reserve = 64) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i32(std::int32_t v) { raw(&v, 4); }
  void tag(const Tag& t) {
    u64(t.z);
    i32(t.w);
  }
  /// u32 length + raw bytes (strings, coded elements, helper data).  A blob
  /// beyond u32 range cannot be framed — that is a programming error (the
  /// frame cap kMaxFrameBytes rejects hostile sizes far earlier).
  void blob(const std::uint8_t* data, std::size_t len) {
    LDS_REQUIRE(len <= 0xffffffffu, "codec::Writer: blob exceeds u32 length");
    u32(static_cast<std::uint32_t>(len));
    append(data, len);
  }
  void blob(const Bytes& b) { blob(b.data(), b.size()); }
  void blob(const std::string& s) {
    blob(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void append(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  std::size_t size() const { return buf_.size(); }
  /// Patch a previously written u32 (the frame-length prefix).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    std::memcpy(buf_.data() + offset, &v, 4);
  }
  Bytes take() && { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);  // little-endian hosts only (x86/arm)
  }

  Bytes buf_;
};

/// Bounds-checked little-endian reader; every getter returns false instead
/// of reading past the end, so decoders never crash on truncated frames.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : cur_(data), end_(data + len) {}

  bool u8(std::uint8_t* v) { return raw(v, 1); }
  bool u16(std::uint16_t* v) { return raw(v, 2); }
  bool u32(std::uint32_t* v) { return raw(v, 4); }
  bool u64(std::uint64_t* v) { return raw(v, 8); }
  bool i32(std::int32_t* v) { return raw(v, 4); }
  bool tag(Tag* t) { return u64(&t->z) && i32(&t->w); }
  bool blob(Bytes* out) {
    std::uint32_t len = 0;
    if (!u32(&len) || len > remaining()) return false;
    out->assign(cur_, cur_ + len);
    cur_ += len;
    return true;
  }
  bool blob(std::string* out) {
    std::uint32_t len = 0;
    if (!u32(&len) || len > remaining()) return false;
    out->assign(reinterpret_cast<const char*>(cur_), len);
    cur_ += len;
    return true;
  }
  /// Pop the frame's out-of-band payload (header field P names its extent;
  /// the generic decoder installs it via set_payload before decode_body runs).
  /// False when the frame carried no payload region at all.
  bool value(Value* out) {
    if (!payload_set_) return false;
    *out = std::move(payload_);
    payload_ = Value{};
    payload_set_ = false;
    return true;
  }

  /// Install the frame's payload for the next value() call.  Called once by
  /// the generic decoder (copying path) or decode_with_payload (zero-copy).
  void set_payload(Value v) {
    payload_ = std::move(v);
    payload_set_ = true;
  }
  /// True while an installed payload has not been popped by value().
  bool payload_pending() const { return payload_set_; }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - cur_); }
  bool exhausted() const { return cur_ == end_; }

 private:
  bool raw(void* p, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(p, cur_, n);
    cur_ += n;
    return true;
  }

  const std::uint8_t* cur_;
  const std::uint8_t* end_;
  Value payload_;
  bool payload_set_ = false;
};

// ---- frames -----------------------------------------------------------------

/// One encoded frame, split so the trailing value payload stays zero-copy:
/// `head` is the length prefix + header (which names the payload length) +
/// fixed fields; `body` shares the value buffer.
struct Frame {
  Bytes head;
  Value body;

  std::size_t size() const { return head.size() + body.size(); }
  /// Contiguous copy (tests, single-buffer transports).
  Bytes to_bytes() const {
    Bytes out;
    out.reserve(size());
    out.insert(out.end(), head.begin(), head.end());
    out.insert(out.end(), body.begin(), body.end());
    return out;
  }
};

// ---- per-family codec registry ----------------------------------------------

/// Frame fields a family's encoder fills in (the codec writes the header and
/// the trailing payload length itself).
struct WireInfo {
  std::uint8_t type = 0;
  ObjectId obj = 0;
  OpId op = kNoOp;
  Value body;  ///< the zero-copy trailing payload (empty = none)
};

/// One protocol family's encoder/decoder.  Implementations are stateless
/// singletons with static storage duration.
class FamilyCodec {
 public:
  virtual ~FamilyCodec() = default;
  virtual const char* name() const = 0;
  /// True when `msg` belongs to this family: append the fixed body fields to
  /// `w` and fill `info`.  False = not mine, try the next family.
  virtual bool encode_body(const Payload& msg, Writer& w,
                           WireInfo* info) const = 0;
  /// Exact frame size of `msg` without materializing it; false = not mine.
  virtual bool size_of(const Payload& msg, std::uint64_t* size) const = 0;
  /// Rebuild a message from one frame (header already parsed and verified).
  /// Must consume the reader exactly; unknown `type` -> InvalidArgument.
  virtual Status decode_body(std::uint8_t type, ObjectId obj, OpId op,
                             Reader& r, MessagePtr* out) const = 0;
};

/// Register a family codec (idempotent for the same pointer).  The Lds, Abd,
/// Cas and Heartbeat families are built in; the store RPC layer registers
/// Family::Store (store/remote.cpp) and the membership fabric Family::Member
/// (member/wire.cpp).  `impl` must have static lifetime.
void register_family(Family f, const FamilyCodec* impl);

// ---- message schemas --------------------------------------------------------

/// Schema visitor: appends body fields to the frame head; the payload field
/// becomes the frame's zero-copy body.
class Encoder {
 public:
  Encoder(Writer& w, WireInfo& info) : w_(w), info_(info) {}

  void u8(std::uint8_t v) { w_.u8(v); }
  void u16(std::uint16_t v) { w_.u16(v); }
  void u32(std::uint32_t v) { w_.u32(v); }
  void u64(std::uint64_t v) { w_.u64(v); }
  void i32(std::int32_t v) { w_.i32(v); }
  void flag(bool v) { w_.u8(v ? 1 : 0); }
  void tag(const Tag& t) { w_.tag(t); }
  void version(const Version& v) {
    flag(v.known());
    tag(v.tag());
  }
  void code(auto e, auto /*max*/) { w_.u8(static_cast<std::uint8_t>(e)); }
  void blob(const auto& b) { w_.blob(b); }  // std::string or Bytes
  void data(const Bytes& b) { w_.blob(b); }  // a Value converts
  template <class T>
  void list(const std::vector<T>& xs) {
    static_assert(std::is_integral_v<T> && sizeof(T) == 4);
    w_.u32(static_cast<std::uint32_t>(xs.size()));
    for (const T x : xs) w_.u32(static_cast<std::uint32_t>(x));
  }
  void payload(const Value& v) { info_.body = v; }

 private:
  Writer& w_;
  WireInfo& info_;
};

/// Schema visitor: the exact frame size (length prefix included) and the
/// data bytes within it, without encoding anything.
struct Sizer {
  std::uint64_t frame = kFrameOverheadBytes;
  std::uint64_t data_bytes = 0;

  std::uint64_t meta_bytes() const { return frame - data_bytes; }

  void u8(std::uint8_t) { frame += 1; }
  void u16(std::uint16_t) { frame += 2; }
  void u32(std::uint32_t) { frame += 4; }
  void u64(std::uint64_t) { frame += 8; }
  void i32(std::int32_t) { frame += 4; }
  void flag(bool) { frame += 1; }
  void tag(const Tag&) { frame += kTagWireBytes; }
  void version(const Version&) { frame += 1 + kTagWireBytes; }
  void code(auto, auto) { frame += 1; }
  void blob(const auto& b) { frame += 4 + b.size(); }
  void data(const auto& b) {
    frame += 4 + b.size();
    data_bytes += b.size();
  }
  void list(const auto& xs) { frame += 4 + 4 * xs.size(); }
  void payload(const Value& v) {
    frame += v.size();
    data_bytes += v.size();
  }
};

/// Schema visitor: reads body fields back.  A short read, an enum above its
/// max or a list count beyond the frame marks the decoder failed; status()
/// builds the rejection, on the failure path only.
class Decoder {
 public:
  explicit Decoder(Reader& r) : r_(r) {}

  void u8(std::uint8_t& v) { check(r_.u8(&v)); }
  void u16(std::uint16_t& v) { check(r_.u16(&v)); }
  void u32(std::uint32_t& v) { check(r_.u32(&v)); }
  void u64(std::uint64_t& v) { check(r_.u64(&v)); }
  void i32(std::int32_t& v) { check(r_.i32(&v)); }
  void flag(bool& v) {
    std::uint8_t b = 0;
    u8(b);
    v = b != 0;
  }
  void tag(Tag& t) { check(r_.tag(&t)); }
  void version(Version& v) {
    bool known = false;
    Tag t;
    flag(known);
    tag(t);
    v = known ? Version(t) : Version();
  }
  template <class E>
  void code(E& e, E max) {
    std::uint8_t b = 0;
    u8(b);
    if (b > static_cast<std::uint8_t>(max)) fail(Fault::kRange, b);
    e = static_cast<E>(b);
  }
  void blob(auto& b) { check(r_.blob(&b)); }  // std::string or Bytes
  void data(Bytes& b) { blob(b); }
  void data(Value& v) {
    Bytes b;
    blob(b);
    v = Value(std::move(b));
  }
  template <class T>
  void list(std::vector<T>& xs) {
    static_assert(std::is_integral_v<T> && sizeof(T) == 4);
    std::uint32_t count = 0;
    u32(count);
    if (!ok()) return;
    if (count > r_.remaining() / 4) return fail(Fault::kCount, count);
    xs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t x = 0;
      u32(x);
      xs.push_back(static_cast<T>(x));
    }
  }
  void payload(Value& v) { check(r_.value(&v)); }

  bool ok() const { return fault_ == Fault::kNone; }
  /// The rejection of a failed decode of type `name`.
  Status status(const char* name) const;

 private:
  enum class Fault : std::uint8_t { kNone, kTruncated, kRange, kCount };

  void check(bool read) {
    if (!read) fail(Fault::kTruncated, 0);
  }
  void fail(Fault f, std::uint32_t value) {
    if (!ok()) return;  // keep the first fault
    fault_ = f;
    value_ = value;
  }

  Reader& r_;
  Fault fault_ = Fault::kNone;
  std::uint32_t value_ = 0;
};

/// Walk the schema of the alternative `body` holds with visitor `w`.
template <class Body, class Visitor>
void visit_fields(Body& body, Visitor& w) {
  std::visit(
      [&w](auto& b) {
        using T = std::remove_cvref_t<decltype(b)>;
        T::wire(b, w);
      },
      body);
}

/// Exact frame size and data bytes of a message with this body.
template <class Body>
Sizer measure(const Body& body) {
  Sizer s;
  visit_fields(body, s);
  return s;
}

/// The kName of the alternative `body` holds.
template <class... Ts>
const char* name_of(const std::variant<Ts...>& body) {
  static constexpr const char* kNames[] = {Ts::kName...};
  return kNames[body.index()];
}

/// Payload accounting derived from the schema: a message class whose body()
/// is a variant of schema structs gets its exact data_bytes(), meta_bytes()
/// and type_name() from the field lists.
template <class Msg>
class SchemaPayload : public Payload {
 public:
  std::uint64_t data_bytes() const override {
    return measure(msg().body()).data_bytes;
  }
  std::uint64_t meta_bytes() const override {
    return measure(msg().body()).meta_bytes();
  }
  const char* type_name() const override { return name_of(msg().body()); }

 private:
  const Msg& msg() const { return static_cast<const Msg&>(*this); }
};

/// The family codec of message class `Msg` (obj() optional, op(), body(),
/// and a constructor taking [obj,] [op,] body): type id = the body's
/// variant index, every field from its schema.
template <class Msg>
class SchemaCodec final : public FamilyCodec {
 public:
  using Body = std::decay_t<decltype(std::declval<const Msg&>().body())>;
  static_assert(std::is_final_v<Msg>, "mine() matches the exact type");

  explicit SchemaCodec(const char* name) : name_(name) {}

  const char* name() const override { return name_; }

  bool encode_body(const Payload& msg, Writer& w,
                   WireInfo* info) const override {
    const Msg* m = mine(msg);
    if (m == nullptr) return false;
    info->type = static_cast<std::uint8_t>(m->body().index());
    if constexpr (requires { m->obj(); }) info->obj = m->obj();
    info->op = m->op();
    Encoder e(w, *info);
    visit_fields(m->body(), e);
    return true;
  }

  bool size_of(const Payload& msg, std::uint64_t* size) const override {
    const Msg* m = mine(msg);
    if (m == nullptr) return false;
    *size = measure(m->body()).frame;
    return true;
  }

  Status decode_body(std::uint8_t type, ObjectId obj, OpId op, Reader& r,
                     MessagePtr* out) const override {
    return decode_from<0>(type, obj, op, r, out);
  }

 private:
  /// `msg` as this family's message, or null.  Msg is final, so comparing
  /// the exact type replaces a dynamic_cast (which walks the hierarchy on
  /// every family that declines a message).
  static const Msg* mine(const Payload& msg) {
    return typeid(msg) == typeid(Msg) ? static_cast<const Msg*>(&msg)
                                      : nullptr;
  }

  /// Decode type id `type` if it is I, else try I + 1.  The compiler folds
  /// the chain into one dispatch and inlines each alternative's decode (a
  /// table of per-type decode functions decoded 6-16 ns slower per frame on
  /// a 4-CPU x86 host).
  template <std::size_t I>
  Status decode_from(std::uint8_t type, [[maybe_unused]] ObjectId obj,
                     [[maybe_unused]] OpId op, Reader& r,
                     MessagePtr* out) const {
    if constexpr (I == std::variant_size_v<Body>) {
      return unknown_type(name_, type);
    } else {
      if (type != I) return decode_from<I + 1>(type, obj, op, r, out);
      using T = std::variant_alternative_t<I, Body>;
      T b{};
      Decoder d(r);
      T::wire(b, d);
      if (!d.ok()) return d.status(T::kName);
      if constexpr (std::is_constructible_v<Msg, ObjectId, OpId, Body>) {
        *out = std::make_shared<Msg>(
            obj, op, Body(std::in_place_index<I>, std::move(b)));
      } else if constexpr (std::is_constructible_v<Msg, OpId, Body>) {
        *out = std::make_shared<Msg>(
            op, Body(std::in_place_index<I>, std::move(b)));
      } else {
        *out =
            std::make_shared<Msg>(Body(std::in_place_index<I>, std::move(b)));
      }
      return Status::Ok();
    }
  }

  const char* name_;
};

// ---- encode / decode ---------------------------------------------------------

/// Encode any known protocol message.  Aborts (LDS_REQUIRE) on a payload no
/// registered family owns — an unencodable message is a programming error,
/// not an input error.
Frame encode(const Payload& msg);

/// Exact on-wire frame size (length prefix included) without encoding.
/// This is what meta_bytes() derives from: meta = encoded_size - data_bytes.
std::uint64_t encoded_size(const Payload& msg);

/// Decode ONE frame starting at `data` (the length prefix).  On success sets
/// `*out` (and `*consumed` to the full frame size when non-null).  Truncated,
/// oversized, bad-magic, unknown-version/family/type and malformed-body
/// frames all return Status::InvalidArgument and never crash.
Status decode(const std::uint8_t* data, std::size_t len, MessagePtr* out,
              std::size_t* consumed = nullptr);
Status decode(const Bytes& frame, MessagePtr* out);

/// Zero-copy receive path: decode a frame whose trailing payload was recv'd
/// out-of-band.  `head` spans the length prefix + header + fixed fields
/// (exactly `head_len = total - P` bytes); `payload` holds the P payload
/// bytes the transport already owns — the handle is installed, not copied.
/// Rejects head/payload splits that disagree with the header.
Status decode_with_payload(const std::uint8_t* head, std::size_t head_len,
                           Value payload, MessagePtr* out);

/// Stream-reassembly helper: with >= kLenPrefixBytes available, sets
/// `*total` to the full frame size and returns Ok (oversized prefixes are
/// rejected here, before a hostile peer can make us buffer 4 GiB).  With
/// fewer bytes available sets `*total` to 0 and returns Ok ("need more").
Status frame_length(const std::uint8_t* data, std::size_t len,
                    std::size_t* total);

/// Deeper reassembly probe: with >= kFrameOverheadBytes available, validates
/// magic / version / length sanity and splits the frame extent into
/// `*total` (full frame size) and `*payload` (trailing payload bytes).  A
/// streaming receiver uses this to recv the payload directly into its own
/// buffer.  With fewer bytes available sets both to 0 and returns Ok.
Status frame_layout(const std::uint8_t* data, std::size_t len,
                    std::size_t* total, std::size_t* payload);

}  // namespace lds::net::codec
