#include "store/remote.h"

#include <chrono>

#include "common/assert.h"

namespace lds::store {

namespace {

using net::codec::overloaded;

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

void register_store_wire() {
  static const net::codec::SchemaCodec<RemoteMessage> codec("store");
  static const bool once = [] {
    net::codec::register_family(net::codec::Family::Store, &codec);
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
