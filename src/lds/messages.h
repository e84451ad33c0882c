// The LDS wire protocol: every message of Figs. 1-3 of the paper.
//
// One payload class carries a variant body.  Every message names the object
// it concerns and the client/internal operation it belongs to (OpId), which
// drives both cost attribution (Section II-d) and the keying of per-read
// server state (the set K of Fig. 2; see DESIGN.md on why K is keyed by read
// op rather than by reader alone).
//
// Size accounting: Bytes payloads (values, coded elements, helper data)
// count as data; tags, ids and counters count as meta-data and are excluded
// from normalized costs, exactly as the paper prescribes.
#pragma once

#include <variant>

#include "common/slice.h"
#include "common/types.h"
#include "net/network.h"

namespace lds::core {

// ---- client <-> L1 ---------------------------------------------------------

/// get-tag (Fig. 1, writer): QUERY-TAG.
struct QueryTag {};

/// Response to QUERY-TAG: the max tag in the server's list L.
struct TagResp {
  Tag tag;
};

/// put-data (Fig. 1, writer): PUT-DATA (tw, v).  The value is a shared
/// handle: the writer's n1-way fan-out and every server's list entry
/// reference ONE buffer (cost accounting still charges each message the
/// full |v| — the refcount is a simulator artifact, not a protocol one).
struct PutData {
  Tag tag;
  Value value;
};

/// ACK to the writer of `tag` (sent from put-data-resp or broadcast-resp).
struct WriteAck {
  Tag tag;
};

/// get-committed-tag (Fig. 1, reader): QUERY-COMM-TAG.
struct QueryCommTag {};

/// Response: the server's committed tag tc.
struct CommTagResp {
  Tag tag;
};

/// get-data (Fig. 1, reader): QUERY-DATA with the requested tag treq.
struct QueryData {
  Tag treq;
};

/// A (tag, value) response to a reader (from the list L); shares the
/// server-side buffer.
struct DataRespValue {
  Tag tag;
  Value value;
};

/// A (tag, coded-element) response to a reader, produced by an internal
/// regenerate-from-L2.  `code_index` identifies which coordinate of the code
/// C this element is (the sending L1 server's index), needed to decode via C1.
/// The element is a shared handle: the reader decodes from this buffer.
struct DataRespCoded {
  Tag tag;
  int code_index = -1;
  Value element;
};

/// The (bot, bot) response: regeneration failed at this server.
struct DataRespNack {};

/// put-tag (Fig. 1, reader): PUT-TAG (tr).
struct PutTag {
  Tag tag;
};

/// ACK to the reader's PUT-TAG.
struct PutTagAck {};

/// Regular-consistency extension: a reader that skips the put-tag phase
/// still removes its Gamma registration so servers stop serving it.
/// Pure meta-data; no ACK is awaited.
struct UnregisterReader {};

// ---- L1 <-> L1 (broadcast primitive) ---------------------------------------

/// COMMIT-TAG broadcast (Fig. 2 line 6), delivered through the primitive of
/// [17]: the invoker sends to a fixed relay set of f1+1 servers; each relay
/// forwards to all of L1 on first receipt before consuming.  `bcast_id` is
/// globally unique so that each server consumes each broadcast exactly once.
struct CommitTag {
  Tag tag;
  std::uint64_t bcast_id = 0;
};

// ---- L1 <-> L2 (internal operations) ----------------------------------------

/// write-to-L2 (Fig. 2 line 20): WRITE-CODE-ELEM (t, c_{n1+i}).  The
/// element is a shared handle: the encode cache, this message and the L2
/// server's stored state reference ONE buffer per coordinate.
struct WriteCodeElem {
  Tag tag;
  Value element;
};

/// ACK-CODE-ELEM (Fig. 3 line 6).
struct AckCodeElem {
  Tag tag;
};

/// regenerate-from-L2 (Fig. 2 line 39): QUERY-CODE-ELEM.  `target_index` is
/// the code coordinate (the querying L1 server's index j) being repaired;
/// the helper needs only this index - the MBR property of Section II-c.
struct QueryCodeElem {
  int target_index = -1;
};

/// SEND-HELPER-ELEM (Fig. 3 line 8): (r, t, h) - the reader identity rides in
/// the OpId.  The helper data is a shared handle: the regenerating server
/// repairs from the buffer the helper computed.
struct SendHelperElem {
  Tag tag;
  Value helper;
};

/// The alternative ORDER is frozen: the wire codec (net/codec.h) uses the
/// variant index as the frame's type id.  Append new message types at the
/// end; never reorder.
using LdsBody =
    std::variant<QueryTag, TagResp, PutData, WriteAck, QueryCommTag,
                 CommTagResp, QueryData, DataRespValue, DataRespCoded,
                 DataRespNack, PutTag, PutTagAck, UnregisterReader, CommitTag,
                 WriteCodeElem, AckCodeElem, QueryCodeElem, SendHelperElem>;

class LdsMessage final : public net::Payload {
 public:
  LdsMessage(ObjectId obj, OpId op, LdsBody body)
      : obj_(obj), op_(op), body_(std::move(body)) {}

  ObjectId obj() const { return obj_; }
  OpId op() const override { return op_; }
  const LdsBody& body() const { return body_; }

  std::uint64_t data_bytes() const override;
  /// Exact on-wire meta-data bytes: the codec's encoded frame size minus the
  /// data payload (net/codec.h) — measured, not estimated.  Defined in
  /// messages.cpp to keep this header free of the codec dependency.
  std::uint64_t meta_bytes() const override;
  const char* type_name() const override;

  static net::MessagePtr make(ObjectId obj, OpId op, LdsBody body) {
    return std::make_shared<LdsMessage>(obj, op, std::move(body));
  }

 private:
  ObjectId obj_;
  OpId op_;
  LdsBody body_;
};

inline std::uint64_t LdsMessage::data_bytes() const {
  return std::visit(
      [](const auto& b) -> std::uint64_t {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, PutData>) return b.value.size();
        if constexpr (std::is_same_v<T, DataRespValue>) return b.value.size();
        if constexpr (std::is_same_v<T, DataRespCoded>)
          return b.element.size();
        if constexpr (std::is_same_v<T, WriteCodeElem>)
          return b.element.size();
        if constexpr (std::is_same_v<T, SendHelperElem>)
          return b.helper.size();
        return 0;
      },
      body_);
}

inline const char* LdsMessage::type_name() const {
  return std::visit(
      [](const auto& b) -> const char* {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, QueryTag>) return "QUERY-TAG";
        else if constexpr (std::is_same_v<T, TagResp>) return "TAG-RESP";
        else if constexpr (std::is_same_v<T, PutData>) return "PUT-DATA";
        else if constexpr (std::is_same_v<T, WriteAck>) return "WRITE-ACK";
        else if constexpr (std::is_same_v<T, QueryCommTag>)
          return "QUERY-COMM-TAG";
        else if constexpr (std::is_same_v<T, CommTagResp>)
          return "COMM-TAG-RESP";
        else if constexpr (std::is_same_v<T, QueryData>) return "QUERY-DATA";
        else if constexpr (std::is_same_v<T, DataRespValue>)
          return "DATA-RESP-VALUE";
        else if constexpr (std::is_same_v<T, DataRespCoded>)
          return "DATA-RESP-CODED";
        else if constexpr (std::is_same_v<T, DataRespNack>)
          return "DATA-RESP-NACK";
        else if constexpr (std::is_same_v<T, PutTag>) return "PUT-TAG";
        else if constexpr (std::is_same_v<T, PutTagAck>) return "PUT-TAG-ACK";
        else if constexpr (std::is_same_v<T, UnregisterReader>)
          return "UNREGISTER-READER";
        else if constexpr (std::is_same_v<T, CommitTag>) return "COMMIT-TAG";
        else if constexpr (std::is_same_v<T, WriteCodeElem>)
          return "WRITE-CODE-ELEM";
        else if constexpr (std::is_same_v<T, AckCodeElem>)
          return "ACK-CODE-ELEM";
        else if constexpr (std::is_same_v<T, QueryCodeElem>)
          return "QUERY-CODE-ELEM";
        else return "SEND-HELPER-ELEM";
      },
      body_);
}

}  // namespace lds::core
