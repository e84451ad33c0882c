// The LDS wire protocol: every message of Figs. 1-3 of the paper.
//
// One payload class carries a variant body.  Every message names the object
// it concerns and the client/internal operation it belongs to (OpId), which
// drives both cost attribution (Section II-d) and the keying of per-read
// server state (the set K of Fig. 2; see DESIGN.md on why K is keyed by read
// op rather than by reader alone).
//
// Each body struct lists its fields once, in wire order (`wire()`, see the
// schema vocabulary in net/codec.h); the frame layout, the exact sizes and the
// type names all derive from that list.  Size accounting: values, coded
// elements and helper data (`payload` and `data` fields) count as data; tags,
// ids and counters count as meta-data and are excluded from normalized costs,
// exactly as the paper prescribes.
#pragma once

#include <variant>

#include "common/slice.h"
#include "common/types.h"
#include "net/codec.h"

namespace lds::core {

// ---- client <-> L1 ---------------------------------------------------------

/// get-tag (Fig. 1, writer): QUERY-TAG.
struct QueryTag {
  static constexpr const char* kName = "QUERY-TAG";
  static void wire(auto&, auto&) {}
};

/// Response to QUERY-TAG: the max tag in the server's list L.
struct TagResp {
  static constexpr const char* kName = "TAG-RESP";
  Tag tag;
  static void wire(auto& m, auto& w) { w.tag(m.tag); }
};

/// put-data (Fig. 1, writer): PUT-DATA (tw, v).  The value is a shared
/// handle: the writer's n1-way fan-out and every server's list entry
/// reference ONE buffer (cost accounting still charges each message the
/// full |v| — the refcount is a simulator artifact, not a protocol one).
struct PutData {
  static constexpr const char* kName = "PUT-DATA";
  Tag tag;
  Value value;
  static void wire(auto& m, auto& w) {
    w.tag(m.tag);
    w.payload(m.value);
  }
};

/// ACK to the writer of `tag` (sent from put-data-resp or broadcast-resp).
struct WriteAck {
  static constexpr const char* kName = "WRITE-ACK";
  Tag tag;
  static void wire(auto& m, auto& w) { w.tag(m.tag); }
};

/// get-committed-tag (Fig. 1, reader): QUERY-COMM-TAG.
struct QueryCommTag {
  static constexpr const char* kName = "QUERY-COMM-TAG";
  static void wire(auto&, auto&) {}
};

/// Response: the server's committed tag tc.
struct CommTagResp {
  static constexpr const char* kName = "COMM-TAG-RESP";
  Tag tag;
  static void wire(auto& m, auto& w) { w.tag(m.tag); }
};

/// get-data (Fig. 1, reader): QUERY-DATA with the requested tag treq.
struct QueryData {
  static constexpr const char* kName = "QUERY-DATA";
  Tag treq;
  static void wire(auto& m, auto& w) { w.tag(m.treq); }
};

/// A (tag, value) response to a reader (from the list L); shares the
/// server-side buffer.
struct DataRespValue {
  static constexpr const char* kName = "DATA-RESP-VALUE";
  Tag tag;
  Value value;
  static void wire(auto& m, auto& w) {
    w.tag(m.tag);
    w.payload(m.value);
  }
};

/// A (tag, coded-element) response to a reader, produced by an internal
/// regenerate-from-L2.  `code_index` identifies which coordinate of the code
/// C this element is (the sending L1 server's index), needed to decode via C1.
/// The element is a shared handle: the reader decodes from this buffer.
struct DataRespCoded {
  static constexpr const char* kName = "DATA-RESP-CODED";
  Tag tag;
  int code_index = -1;
  Value element;
  static void wire(auto& m, auto& w) {
    w.tag(m.tag);
    w.i32(m.code_index);
    w.data(m.element);
  }
};

/// The (bot, bot) response: regeneration failed at this server.
struct DataRespNack {
  static constexpr const char* kName = "DATA-RESP-NACK";
  static void wire(auto&, auto&) {}
};

/// put-tag (Fig. 1, reader): PUT-TAG (tr).
struct PutTag {
  static constexpr const char* kName = "PUT-TAG";
  Tag tag;
  static void wire(auto& m, auto& w) { w.tag(m.tag); }
};

/// ACK to the reader's PUT-TAG.
struct PutTagAck {
  static constexpr const char* kName = "PUT-TAG-ACK";
  static void wire(auto&, auto&) {}
};

/// Regular-consistency extension: a reader that skips the put-tag phase
/// still removes its Gamma registration so servers stop serving it.
/// Pure meta-data; no ACK is awaited.
struct UnregisterReader {
  static constexpr const char* kName = "UNREGISTER-READER";
  static void wire(auto&, auto&) {}
};

// ---- L1 <-> L1 (broadcast primitive) ---------------------------------------

/// COMMIT-TAG broadcast (Fig. 2 line 6), delivered through the primitive of
/// [17]: the invoker sends to a fixed relay set of f1+1 servers; each relay
/// forwards to all of L1 on first receipt before consuming.  `bcast_id` is
/// globally unique so that each server consumes each broadcast exactly once.
struct CommitTag {
  static constexpr const char* kName = "COMMIT-TAG";
  Tag tag;
  std::uint64_t bcast_id = 0;
  static void wire(auto& m, auto& w) {
    w.tag(m.tag);
    w.u64(m.bcast_id);
  }
};

// ---- L1 <-> L2 (internal operations) ----------------------------------------

/// write-to-L2 (Fig. 2 line 20): WRITE-CODE-ELEM (t, c_{n1+i}).  The
/// element is a shared handle: the encode cache, this message and the L2
/// server's stored state reference ONE buffer per coordinate.
struct WriteCodeElem {
  static constexpr const char* kName = "WRITE-CODE-ELEM";
  Tag tag;
  Value element;
  static void wire(auto& m, auto& w) {
    w.tag(m.tag);
    w.data(m.element);
  }
};

/// ACK-CODE-ELEM (Fig. 3 line 6).
struct AckCodeElem {
  static constexpr const char* kName = "ACK-CODE-ELEM";
  Tag tag;
  static void wire(auto& m, auto& w) { w.tag(m.tag); }
};

/// regenerate-from-L2 (Fig. 2 line 39): QUERY-CODE-ELEM.  `target_index` is
/// the code coordinate (the querying L1 server's index j) being repaired;
/// the helper needs only this index - the MBR property of Section II-c.
struct QueryCodeElem {
  static constexpr const char* kName = "QUERY-CODE-ELEM";
  int target_index = -1;
  static void wire(auto& m, auto& w) { w.i32(m.target_index); }
};

/// SEND-HELPER-ELEM (Fig. 3 line 8): (r, t, h) - the reader identity rides in
/// the OpId.  The helper data is a shared handle: the regenerating server
/// repairs from the buffer the helper computed.
struct SendHelperElem {
  static constexpr const char* kName = "SEND-HELPER-ELEM";
  Tag tag;
  Value helper;
  static void wire(auto& m, auto& w) {
    w.tag(m.tag);
    w.data(m.helper);
  }
};

/// The alternative ORDER is frozen: the wire codec (net/codec.h) uses the
/// variant index as the frame's type id.  Append new message types at the
/// end; never reorder.
using LdsBody =
    std::variant<QueryTag, TagResp, PutData, WriteAck, QueryCommTag,
                 CommTagResp, QueryData, DataRespValue, DataRespCoded,
                 DataRespNack, PutTag, PutTagAck, UnregisterReader, CommitTag,
                 WriteCodeElem, AckCodeElem, QueryCodeElem, SendHelperElem>;

class LdsMessage final : public net::codec::SchemaPayload<LdsMessage> {
 public:
  LdsMessage(ObjectId obj, OpId op, LdsBody body)
      : obj_(obj), op_(op), body_(std::move(body)) {}

  ObjectId obj() const { return obj_; }
  OpId op() const override { return op_; }
  const LdsBody& body() const { return body_; }

  static net::MessagePtr make(ObjectId obj, OpId op, LdsBody body) {
    return std::make_shared<LdsMessage>(obj, op, std::move(body));
  }

 private:
  ObjectId obj_;
  OpId op_;
  LdsBody body_;
};

}  // namespace lds::core
