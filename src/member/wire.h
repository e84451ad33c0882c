// The membership wire family (codec Family::Member): the control frames the
// member::Fabric exchanges between processes, plus the Envelope that carries
// every cross-process protocol frame.
//
// Remote protocol delivery works by PAIRING: for each LDS/ABD/CAS/heartbeat
// frame bound for a peer process, the fabric first sends an
// Envelope{epoch, from, to} member frame, then the UNMODIFIED inner protocol
// frame.  The inner frame stays byte-identical to its in-process encoding
// (same zero-copy body split, same measured cost), and the envelope carries
// what the inner header cannot: the epoch fence and the protocol-level
// from/to NodeIds.  The receiver applies a stashed envelope to the next
// non-member frame on that connection — member control frames in between
// pass through without consuming it — which is sound because a connection's
// frames are delivered sequentially on one progress thread.
//
// Epoch fencing: an envelope whose epoch differs from the receiver's active
// view is rejected — the paired protocol frame is dropped, and a StaleEpoch
// nack tells a behind peer to catch up via ViewFetch.  This is the "stale
// epoch rejection at every server" rule: a server never processes a protocol
// message sent under a view other than its own.
//
// View change (coordinator-driven, see member/coordinator.h):
//   ViewPropose(view) -> ViewAck(epoch)      propose to every member
//   [quiesce in-flight ops]                  coordinator-local
//   ViewActivate(epoch) -> ViewAck(epoch)    flip + fence, ack'd
//   SyncL2(epoch, index, objects) -> SyncDone  regenerate a moved L2
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/types.h"
#include "member/view.h"
#include "net/codec.h"

namespace lds::member {

/// First frame on every outbound connection: who is dialing (kNoProcess for
/// a joining peer that has no id yet) and where the dialer can be dialed
/// back (its member listen port).
struct Hello {
  ProcessId process = kNoProcess;
  std::uint64_t epoch = 0;
  std::uint16_t listen_port = 0;
};
/// Precedes one cross-process protocol frame (see pairing rule above).
struct Envelope {
  std::uint64_t epoch = 0;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
};
/// Nack for an envelope under an old epoch: tells the sender the receiver's
/// active epoch so it can ViewFetch the current view.
struct StaleEpoch {
  std::uint64_t epoch = 0;
};
/// Peer -> coordinator: admit me, place `claims` (L2 node ids) on me.
struct JoinRequest {
  std::uint16_t listen_port = 0;
  std::vector<NodeId> claims;
};
struct ViewPropose {
  Bytes view;  ///< View::encode_bytes()
};
struct ViewAck {
  std::uint64_t epoch = 0;
  bool ok = true;
};
struct ViewActivate {
  std::uint64_t epoch = 0;
};
/// Ask the coordinator to resend the active view (propose + activate).
struct ViewFetch {};
/// Coordinator -> peer: rebuild L2 server `l2_index` from its quorum peers
/// (core::regenerate_objects over the fabric) for each listed object.
struct SyncL2 {
  std::uint64_t epoch = 0;
  std::uint32_t l2_index = 0;
  std::vector<ObjectId> objects;
};
struct SyncDone {
  std::uint64_t epoch = 0;
  std::uint32_t l2_index = 0;
  std::uint32_t repaired = 0;
  std::uint32_t failed = 0;  ///< objects left when the server went away
};

/// Alternative order frozen: the wire codec uses the variant index as the
/// frame's type id.  Append, never reorder.
using MemberBody =
    std::variant<Hello, Envelope, StaleEpoch, JoinRequest, ViewPropose,
                 ViewAck, ViewActivate, ViewFetch, SyncL2, SyncDone>;

class MemberMessage final : public net::Payload {
 public:
  explicit MemberMessage(MemberBody body) : body_(std::move(body)) {}

  const MemberBody& body() const { return body_; }

  std::uint64_t data_bytes() const override { return 0; }  // all meta
  std::uint64_t meta_bytes() const override;               ///< exact, codec
  const char* type_name() const override;

  static net::MessagePtr make(MemberBody body) {
    return std::make_shared<MemberMessage>(std::move(body));
  }

 private:
  MemberBody body_;
};

/// Register Family::Member with the codec.  Idempotent, thread-safe; called
/// by Fabric construction (and by tests that feed MemberMessages directly).
void register_member_wire();

}  // namespace lds::member
