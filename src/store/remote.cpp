#include "store/remote.h"

#include <chrono>

#include "common/assert.h"

namespace lds::store {

namespace {

using net::codec::Family;
using net::codec::FamilyCodec;
using net::codec::kFrameOverheadBytes;
using net::codec::kTagWireBytes;
using net::codec::overloaded;
using net::codec::Reader;
using net::codec::WireInfo;
using net::codec::Writer;

Status truncated(const std::string& what) {
  return net::codec::truncated_frame(what);
}

/// Wire layouts (after the generic header, whose payload-length field names
/// the trailing value extent):
///   0 RemotePut    key-blob | value payload
///   1 RemoteGet    u8 mode | key-blob
///   2 RemotePutIf  u8 expected_known | tag | key-blob | value payload
///   3 RemoteReply  u8 code | msg-blob | u8 version_known | tag |
///                  u8 coalesced | u8 has_value | value payload
///   4 RemoteReconfig u8 op | u16 port | host-blob | u32 count |
///                  count x u32 l2-index
class StoreCodec final : public FamilyCodec {
 public:
  const char* name() const override { return "store"; }

  bool encode_body(const net::Payload& msg, Writer& w,
                   WireInfo* info) const override {
    const auto* m = dynamic_cast<const RemoteMessage*>(&msg);
    if (m == nullptr) return false;
    info->type = static_cast<std::uint8_t>(m->body().index());
    info->op = m->op();
    std::visit(
        overloaded{
            [&](const RemotePut& b) {
              w.blob(b.key);
              info->has_body = true;
              info->body = b.value;
            },
            [&](const RemoteGet& b) {
              w.u8(static_cast<std::uint8_t>(b.mode));
              w.blob(b.key);
            },
            [&](const RemotePutIf& b) {
              w.u8(b.expected.known() ? 1 : 0);
              w.tag(b.expected.tag());
              w.blob(b.key);
              info->has_body = true;
              info->body = b.value;
            },
            [&](const RemoteReply& b) {
              w.u8(static_cast<std::uint8_t>(b.code));
              w.blob(b.message);
              w.u8(b.version_known ? 1 : 0);
              w.tag(b.tag);
              w.u8(b.coalesced ? 1 : 0);
              w.u8(b.has_value ? 1 : 0);
              info->has_body = true;
              info->body = b.value;
            },
            [&](const RemoteReconfig& b) {
              w.u8(b.op);
              w.u16(b.port);
              w.blob(b.host);
              w.u32(static_cast<std::uint32_t>(b.l2_indices.size()));
              for (const std::uint32_t i : b.l2_indices) w.u32(i);
            },
        },
        m->body());
    return true;
  }

  bool size_of(const net::Payload& msg, std::uint64_t* size) const override {
    const auto* m = dynamic_cast<const RemoteMessage*>(&msg);
    if (m == nullptr) return false;
    constexpr std::uint64_t kBase = kFrameOverheadBytes;
    constexpr std::uint64_t kTag = kTagWireBytes;
    *size = std::visit(
        overloaded{
            [](const RemotePut& b) -> std::uint64_t {
              return kBase + 4 + b.key.size() + b.value.size();
            },
            [](const RemoteGet& b) -> std::uint64_t {
              return kBase + 1 + 4 + b.key.size();
            },
            [](const RemotePutIf& b) -> std::uint64_t {
              return kBase + 1 + kTag + 4 + b.key.size() + b.value.size();
            },
            [](const RemoteReply& b) -> std::uint64_t {
              return kBase + 1 + 4 + b.message.size() + 1 + kTag + 1 + 1 +
                     b.value.size();
            },
            [](const RemoteReconfig& b) -> std::uint64_t {
              return kBase + 1 + 2 + 4 + b.host.size() + 4 +
                     4 * b.l2_indices.size();
            },
        },
        m->body());
    return true;
  }

  Status decode_body(std::uint8_t type, ObjectId obj, OpId op, Reader& r,
                     net::MessagePtr* out) const override {
    (void)obj;
    RemoteBody body;
    switch (type) {
      case 0: {
        RemotePut b;
        if (!r.blob(&b.key)) return truncated("RemotePut.key");
        if (!r.value(&b.value)) return truncated("RemotePut.value");
        body = std::move(b);
        break;
      }
      case 1: {
        RemoteGet b;
        std::uint8_t mode = 0;
        if (!r.u8(&mode)) return truncated("RemoteGet.mode");
        if (mode > static_cast<std::uint8_t>(ReadMode::TagOnly)) {
          return Status::InvalidArgument("unknown read mode " +
                                         std::to_string(mode));
        }
        b.mode = static_cast<ReadMode>(mode);
        if (!r.blob(&b.key)) return truncated("RemoteGet.key");
        body = std::move(b);
        break;
      }
      case 2: {
        RemotePutIf b;
        std::uint8_t known = 0;
        Tag expected;
        if (!r.u8(&known) || !r.tag(&expected)) {
          return truncated("RemotePutIf.expected");
        }
        b.expected = known != 0 ? Version(expected) : Version();
        if (!r.blob(&b.key)) return truncated("RemotePutIf.key");
        if (!r.value(&b.value)) return truncated("RemotePutIf.value");
        body = std::move(b);
        break;
      }
      case 3: {
        RemoteReply b;
        std::uint8_t code = 0, known = 0, coalesced = 0, has = 0;
        if (!r.u8(&code)) return truncated("RemoteReply.code");
        if (code > static_cast<std::uint8_t>(StatusCode::kInvalidArgument)) {
          return Status::InvalidArgument("unknown status code " +
                                         std::to_string(code));
        }
        b.code = static_cast<StatusCode>(code);
        if (!r.blob(&b.message)) return truncated("RemoteReply.message");
        if (!r.u8(&known) || !r.tag(&b.tag) || !r.u8(&coalesced) ||
            !r.u8(&has)) {
          return truncated("RemoteReply.version");
        }
        b.version_known = known != 0;
        b.coalesced = coalesced != 0;
        b.has_value = has != 0;
        if (!r.value(&b.value)) return truncated("RemoteReply.value");
        body = std::move(b);
        break;
      }
      case 4: {
        RemoteReconfig b;
        std::uint32_t count = 0;
        if (!r.u8(&b.op) || !r.u16(&b.port) || !r.blob(&b.host) ||
            !r.u32(&count)) {
          return truncated("RemoteReconfig");
        }
        if (count > r.remaining() / 4) return truncated("RemoteReconfig.l2");
        b.l2_indices.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          std::uint32_t idx = 0;
          if (!r.u32(&idx)) return truncated("RemoteReconfig.l2");
          b.l2_indices.push_back(idx);
        }
        body = std::move(b);
        break;
      }
      default:
        return Status::InvalidArgument("unknown store type id " +
                                       std::to_string(type));
    }
    *out = RemoteMessage::make(op, std::move(body));
    return Status::Ok();
  }
};

RemoteReply reply_of_put(const PutResult& pr) {
  RemoteReply r;
  r.code = pr.status.code();
  r.message = pr.status.message();
  r.version_known = pr.version.known();
  r.tag = pr.tag;
  r.coalesced = pr.coalesced;
  return r;
}

RemoteReply reply_of_get(const GetResult& gr) {
  RemoteReply r;
  r.code = gr.status.code();
  r.message = gr.status.message();
  r.version_known = gr.version.known();
  r.tag = gr.tag;
  r.has_value = gr.status.ok();
  r.value = gr.value;
  return r;
}

}  // namespace

// ---- reply conversions -------------------------------------------------------

PutResult to_put_result(const RemoteReply& r) {
  if (r.code == StatusCode::kOk) {
    PutResult p = PutResult::success(r.tag);
    p.coalesced = r.coalesced;
    return p;
  }
  PutResult p = PutResult::failure(Status::FromCode(r.code, r.message));
  if (r.version_known) {  // Aborted surfaces the observed version
    p.tag = r.tag;
    p.version = Version(r.tag);
  }
  return p;
}

GetResult to_get_result(const RemoteReply& r) {
  if (r.code == StatusCode::kOk) return GetResult::success(r.tag, r.value);
  return GetResult::failure(Status::FromCode(r.code, r.message));
}

// ---- RemoteMessage -----------------------------------------------------------

std::uint64_t RemoteMessage::data_bytes() const {
  return std::visit(
      [](const auto& b) -> std::uint64_t {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, RemoteGet> ||
                      std::is_same_v<T, RemoteReconfig>) {
          return 0;
        } else {
          return b.value.size();
        }
      },
      body_);
}

std::uint64_t RemoteMessage::meta_bytes() const {
  return net::codec::encoded_size(*this) - data_bytes();
}

const char* RemoteMessage::type_name() const {
  return std::visit(
      [](const auto& b) -> const char* {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, RemotePut>) return "STORE-PUT";
        else if constexpr (std::is_same_v<T, RemoteGet>) return "STORE-GET";
        else if constexpr (std::is_same_v<T, RemotePutIf>)
          return "STORE-PUT-IF";
        else if constexpr (std::is_same_v<T, RemoteReconfig>)
          return "STORE-RECONFIG";
        else return "STORE-REPLY";
      },
      body_);
}

void register_store_wire() {
  static const StoreCodec codec;
  static const bool once = [] {
    net::codec::register_family(Family::Store, &codec);
    return true;
  }();
  (void)once;
}

// ---- RemoteServer ------------------------------------------------------------

RemoteServer::RemoteServer(StoreService& svc, net::TcpTransport::Options topt)
    : svc_(svc), transport_(topt) {
  register_store_wire();
}

RemoteServer::~RemoteServer() { stop(); }

Status RemoteServer::listen(std::uint16_t port) {
  if (!svc_.parallel()) {
    // The handler submits from the transport's loop thread; only the
    // Parallel engine's client API is thread-safe.
    return Status::InvalidArgument(
        "RemoteServer::listen requires EngineMode::Parallel");
  }
  return transport_.listen(
      port, [this](NodeId peer, net::MessagePtr msg) { on_message(peer, msg); });
}

void RemoteServer::reply(NodeId peer, OpId id, RemoteReply r) {
  transport_.deliver(0, peer, RemoteMessage::make(id, std::move(r)), 0);
}

void RemoteServer::on_message(NodeId peer, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const RemoteMessage*>(msg.get());
  if (m == nullptr) return;  // foreign family on a store port: ignore
  const OpId id = m->op();
  std::visit(
      overloaded{
          [&](const RemotePut& b) {
            if (b.key.empty()) {
              reply(peer, id,
                    reply_of_put(PutResult::failure(
                        Status::InvalidArgument("empty key"))));
              return;
            }
            svc_.put(b.key, b.value, [this, peer, id](const PutResult& pr) {
              reply(peer, id, reply_of_put(pr));
            });
          },
          [&](const RemoteGet& b) {
            if (b.key.empty()) {
              reply(peer, id,
                    reply_of_get(GetResult::failure(
                        Status::InvalidArgument("empty key"))));
              return;
            }
            svc_.get(
                b.key,
                [this, peer, id](const GetResult& gr) {
                  reply(peer, id, reply_of_get(gr));
                },
                b.mode);
          },
          [&](const RemotePutIf& b) {
            if (b.key.empty()) {
              reply(peer, id,
                    reply_of_put(PutResult::failure(
                        Status::InvalidArgument("empty key"))));
              return;
            }
            svc_.put_if(b.key, b.value, b.expected,
                        [this, peer, id](const PutResult& pr) {
                          reply(peer, id, reply_of_put(pr));
                        });
          },
          [&](const RemoteReply&) {
            // A reply sent *to* the server is a protocol violation; ignoring
            // it is safer than trusting a hostile peer with more state.
          },
          [&](const RemoteReconfig& b) {
            svc_.admin_reconfig(
                b.op, b.l2_indices, b.host, b.port,
                [this, peer, id](Status st, std::uint64_t epoch) {
                  RemoteReply r;
                  r.code = st.code();
                  r.message = std::string(st.message());
                  r.version_known = true;
                  r.tag = Tag{epoch, 0};
                  reply(peer, id, std::move(r));
                });
          },
      },
      m->body());
}

// ---- RemoteSession -----------------------------------------------------------

std::unique_ptr<RemoteSession> RemoteSession::open(
    const std::string& host, std::uint16_t port, Status* status,
    net::TcpTransport::Options topt) {
  register_store_wire();
  // No make_unique: the constructor is private.
  std::unique_ptr<RemoteSession> s(new RemoteSession(topt));
  RemoteSession* raw = s.get();
  s->transport_.set_disconnect_handler(
      [raw](NodeId) { raw->fail_all(Status::Unavailable("connection lost")); });
  const Status st = s->transport_.connect(
      host, port,
      [raw](NodeId peer, net::MessagePtr msg) { raw->on_message(peer, msg); },
      &s->server_);
  if (!st.ok()) {
    if (status != nullptr) *status = st;
    return nullptr;
  }
  if (status != nullptr) *status = Status::Ok();
  return s;
}

RemoteSession::~RemoteSession() { close(); }

void RemoteSession::close() {
  // Stop first: joins the progress threads, so no reply/timer/disconnect
  // callback can race the sweeps below.  Whatever is still pending after the
  // join lost its chance at a reply.
  transport_.stop();
  fail_all(Status::Unavailable("session closed"));
  // The stopped transport discarded its timers; run ours now, against the
  // closed session.
  std::unordered_map<std::uint64_t, std::function<void()>> orphans;
  {
    std::lock_guard<std::mutex> lk(mu_);
    orphans.swap(timers_);
  }
  for (auto& [id, fn] : orphans) fn();
}

bool RemoteSession::after(double delay_s, std::function<void()> fn) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_timer_++;
    timers_.emplace(id, std::move(fn));
  }
  const bool armed = transport_.after(delay_s, [this, id] {
    std::function<void()> due;
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = timers_.find(id);
      if (it == timers_.end()) return;
      due = std::move(it->second);
      timers_.erase(it);
    }
    due();
  });
  if (!armed) {
    std::lock_guard<std::mutex> lk(mu_);
    timers_.erase(id);
  }
  return armed;
}

void RemoteSession::fail_all(const Status& why) {
  std::vector<ReplyCallback> victims;
  {
    std::lock_guard<std::mutex> lk(mu_);
    disconnected_ = true;
    victims.reserve(pending_.size());
    for (auto& [id, cb] : pending_) victims.push_back(std::move(cb));
    pending_.clear();
  }
  for (auto& cb : victims) cb(why, RemoteReply{});
}

void RemoteSession::on_message(NodeId peer, const net::MessagePtr& msg) {
  (void)peer;
  const auto* m = dynamic_cast<const RemoteMessage*>(msg.get());
  if (m == nullptr) return;
  const auto* reply = std::get_if<RemoteReply>(&m->body());
  if (reply == nullptr) return;  // requests don't flow server -> client
  ReplyCallback cb;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = pending_.find(m->op());
    if (it == pending_.end()) return;  // deadline already gave up on this id
    cb = std::move(it->second);
    pending_.erase(it);
  }
  cb(Status::Ok(), *reply);  // unlocked: the callback may issue new calls
}

void RemoteSession::async_call(RemoteBody req, double deadline_s,
                               ReplyCallback cb) {
  LDS_REQUIRE(cb != nullptr, "RemoteSession::async_call: null callback");
  OpId id = 0;  // next_id_ starts at 1: 0 still means "disconnected"
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!disconnected_) id = next_id_++;
  }
  if (id == 0) {
    cb(Status::Unavailable("connection lost"), RemoteReply{});
    return;
  }
  auto msg = RemoteMessage::make(id, std::move(req));
  // A request that cannot fit one frame would be dropped by the transport
  // (and treated as hostile by the server); fail it as a caller error.
  const std::uint64_t frame = net::codec::encoded_size(*msg);
  if (frame > net::codec::kMaxFrameBytes) {
    cb(Status::InvalidArgument("request of " + std::to_string(frame) +
                               " bytes exceeds the frame limit of " +
                               std::to_string(net::codec::kMaxFrameBytes)),
       RemoteReply{});
    return;
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (disconnected_) {
      lk.unlock();  // never invoke a callback under mu_
      cb(Status::Unavailable("connection lost"), RemoteReply{});
      return;
    }
    pending_.emplace(id, std::move(cb));
  }
  if (deadline_s > 0) {
    // The expiry races the reply for the pending entry; the loser finds
    // the map empty and walks away.  A false return (session closing) is
    // fine: close()'s fail_all sweeps the entry instead.
    transport_.after(deadline_s, [this, id, deadline_s] {
      ReplyCallback late;
      {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = pending_.find(id);
        if (it == pending_.end()) return;  // reply won the race
        late = std::move(it->second);
        pending_.erase(it);
      }
      late(Status::DeadlineExceeded("deadline " + std::to_string(deadline_s) +
                                    "s expired"),
           RemoteReply{});
    });
  }
  // May block at the transport's backlog watermark; the deadline timer
  // above still fires on schedule while we wait.
  transport_.deliver(0, server_, std::move(msg), 0);
}

}  // namespace lds::store
