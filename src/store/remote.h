// The store RPC family: serve a StoreService to remote store::Clients.
//
// Five wire messages (codec Family::Store, net/codec.h) carry the client API
// over a TcpTransport (net/transport.h); each struct's wire() below is its
// frame layout:
//
//   RemotePut      { key, value }               -> RemoteReply
//   RemoteGet      { key, read mode }           -> RemoteReply (value; mode
//                    TagOnly = cache validation round: the reply carries the
//                    committed tag and a ZERO-length value payload)
//   RemotePutIf    { key, value, expected }     -> RemoteReply
//   RemoteReply    { status code+message, version, optional value }
//   RemoteReconfig { op, l2 indices, endpoint } -> RemoteReply (tag.z=epoch)
//
// Every request carries a per-connection request id in the frame's OpId
// field; the reply echoes it, so one connection multiplexes any number of
// concurrent callers (RemoteSession below hands each reply to the callback
// registered under its id).
//
// Threading: RemoteServer's handler runs on the transport's event-loop
// thread and submits straight into StoreService's thread-safe client API —
// which is why serving requires EngineMode::Parallel.  Completion callbacks
// fire on shard lanes and push the reply frame back through the transport's
// thread-safe deliver().
//
// Determinism: none — this is the real-deployment path (see the scope note
// in net/transport.h).  Correctness of a served run is established by the
// linearizability checkers over the server-side histories (lds_served
// verifies them at shutdown) and client-observed histories (lds_store_bench
// --remote).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>

#include "net/codec.h"
#include "net/transport.h"
#include "store/store_service.h"

namespace lds::store {

// ---- wire messages -----------------------------------------------------------

struct RemotePut {
  static constexpr const char* kName = "STORE-PUT";
  std::string key;
  Value value;
  static void wire(auto& m, auto& w) {
    w.blob(m.key);
    w.payload(m.value);
  }
};
struct RemoteGet {
  static constexpr const char* kName = "STORE-GET";
  std::string key;
  ReadMode mode = ReadMode::Atomic;
  static void wire(auto& m, auto& w) {
    w.code(m.mode, ReadMode::TagOnly);
    w.blob(m.key);
  }
};
struct RemotePutIf {
  static constexpr const char* kName = "STORE-PUT-IF";
  std::string key;
  Value value;
  Version expected;
  static void wire(auto& m, auto& w) {
    w.version(m.expected);
    w.blob(m.key);
    w.payload(m.value);
  }
};
/// One reply shape serves every request kind.  `version_known`/`tag` carry
/// the committed/observed Version (including the observed version an
/// Aborted conditional put reports); `has_value` marks a get's payload.
struct RemoteReply {
  static constexpr const char* kName = "STORE-REPLY";
  StatusCode code = StatusCode::kOk;
  std::string message;  ///< Status context (empty when ok)
  bool version_known = false;
  Tag tag;
  bool coalesced = false;  ///< puts: absorbed by a newer same-key write
  bool has_value = false;
  Value value;
  static void wire(auto& m, auto& w) {
    w.code(m.code, StatusCode::kInvalidArgument);
    w.blob(m.message);
    w.flag(m.version_known);
    w.tag(m.tag);
    w.flag(m.coalesced);
    w.flag(m.has_value);
    w.payload(m.value);
  }
};

/// Admin: drive the service's membership coordinator (member/coordinator.h).
/// op 0 queries the active epoch; op 1 moves L2 servers `l2_indices` to the
/// member process listening at host:port (empty host = back to the head
/// process).  The reply's `tag.z` carries the resulting epoch.  Services
/// without a fabric answer InvalidArgument.
struct RemoteReconfig {
  static constexpr const char* kName = "STORE-RECONFIG";
  std::uint8_t op = 0;
  std::vector<std::uint32_t> l2_indices;
  std::string host;
  std::uint16_t port = 0;
  static void wire(auto& m, auto& w) {
    w.u8(m.op);
    w.u16(m.port);
    w.blob(m.host);
    w.list(m.l2_indices);
  }
};

/// Alternative order frozen: the wire codec uses the variant index as the
/// frame's type id.  Append, never reorder.
using RemoteBody =
    std::variant<RemotePut, RemoteGet, RemotePutIf, RemoteReply, RemoteReconfig>;

class RemoteMessage final : public net::codec::SchemaPayload<RemoteMessage> {
 public:
  RemoteMessage(OpId request_id, RemoteBody body)
      : request_(request_id), body_(std::move(body)) {}

  /// The per-connection request id (rides the frame's OpId field).
  OpId op() const override { return request_; }
  const RemoteBody& body() const { return body_; }

  static net::MessagePtr make(OpId request_id, RemoteBody body) {
    return std::make_shared<RemoteMessage>(request_id, std::move(body));
  }

 private:
  OpId request_;
  RemoteBody body_;
};

/// Register Family::Store with the codec.  Idempotent, thread-safe; called
/// by RemoteServer/RemoteSession construction (and by anything that feeds
/// RemoteMessages to a transport directly, e.g. bench_codec).
void register_store_wire();

/// Convert a RemoteReply into the client-visible result types (Client's
/// completion path).
PutResult to_put_result(const RemoteReply& r);
GetResult to_get_result(const RemoteReply& r);

// ---- server ------------------------------------------------------------------

/// Accepts remote store clients and bridges them onto a StoreService.
/// Usually owned via StoreService::listen(); standalone construction is for
/// tests.  The service must be in Parallel mode and must outlive the server.
class RemoteServer {
 public:
  explicit RemoteServer(StoreService& svc,
                        net::TcpTransport::Options topt = {});
  ~RemoteServer();

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start serving.
  Status listen(std::uint16_t port);
  std::uint16_t port() const { return transport_.port(); }
  /// Actively accepting (a successful listen() not yet stopped).
  bool listening() const { return port() != 0 && !transport_.stopped(); }
  /// True after stop(): the transport cannot restart — StoreService::listen
  /// recreates the server instead.
  bool stopped() const { return transport_.stopped(); }
  /// Stop accepting and drop every connection (in-flight operations still
  /// complete inside the service; their replies are dropped).
  void stop() { transport_.stop(); }

  std::uint64_t frames_received() const { return transport_.frames_received(); }
  std::uint64_t frames_sent() const { return transport_.frames_sent(); }

 private:
  void on_message(NodeId peer, const net::MessagePtr& msg);
  void reply(NodeId peer, OpId id, RemoteReply r);

  StoreService& svc_;
  net::TcpTransport transport_;
};

// ---- client session ----------------------------------------------------------

/// One TCP connection to a RemoteServer, shared by any number of caller
/// threads: requests are pipelined under per-connection ids.  The session is
/// ASYNC-FIRST — async_call() sends a request and later invokes a callback
/// with the reply (on the transport's progress thread), a deadline expiry
/// (transport timer thread), or a disconnect failure.  Exactly one of those
/// wins per request: whichever fires first pops the pending entry.
/// Deadlines are wall-clock seconds — engine time does not exist on this
/// side of the socket.
class RemoteSession {
 public:
  /// Reply delivery: Ok + the reply, or the failure (DeadlineExceeded /
  /// Unavailable / InvalidArgument) with a default reply.  Runs on a
  /// transport progress thread — never block in it on another RPC's
  /// completion; chaining a NEW async_call from inside is fine.
  using ReplyCallback = std::function<void(Status, RemoteReply)>;

  static std::unique_ptr<RemoteSession> open(
      const std::string& host, std::uint16_t port, Status* status = nullptr,
      net::TcpTransport::Options topt = {});
  ~RemoteSession();

  /// Send one request; `cb` fires exactly once with the outcome.  Failures
  /// detected before the wire (oversized frame, already disconnected)
  /// invoke `cb` synchronously on the caller's thread.
  void async_call(RemoteBody req, double deadline_s, ReplyCallback cb);

  /// Drop the connection and fail every in-flight request with Unavailable
  /// (callbacks run on the calling thread).  Idempotent; the dtor calls it.
  void close();

  /// Run `fn` on the transport timer thread after `delay_s` seconds — or,
  /// should the session close first, from close(), so a scheduled retry
  /// always runs once and fails fast instead of never completing.  False
  /// once the session is closed.  Retry/backoff timers live here.
  bool after(double delay_s, std::function<void()> fn);

 private:
  explicit RemoteSession(net::TcpTransport::Options topt)
      : transport_(topt) {}

  void on_message(NodeId peer, const net::MessagePtr& msg);
  /// Pop every pending request and fail it with `why` (unlocked callbacks).
  void fail_all(const Status& why);

  net::TcpTransport transport_;
  NodeId server_ = kNoNode;
  std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<OpId, ReplyCallback> pending_;
  bool disconnected_ = false;
  std::uint64_t next_timer_ = 0;
  std::unordered_map<std::uint64_t, std::function<void()>> timers_;
};

}  // namespace lds::store
