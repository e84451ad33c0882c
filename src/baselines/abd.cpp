#include "baselines/abd.h"

#include "common/assert.h"

namespace lds::baselines {

// ---- server ------------------------------------------------------------------

AbdServer::AbdServer(net::Network& net, std::shared_ptr<const AbdContext> ctx,
                     std::size_t index)
    : Node(net, ctx->server_ids.at(index), Role::ServerL1),
      ctx_(std::move(ctx)) {}

AbdServer::ObjectState& AbdServer::object(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    ObjectState st;
    st.tag = kTag0;
    st.value = ctx_->initial_value;
    stored_bytes_ += st.value.size();
    it = objects_.emplace(obj, std::move(st)).first;
  }
  return it->second;
}

Tag AbdServer::stored_tag(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? kTag0 : it->second.tag;
}

void AbdServer::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const AbdMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "AbdServer: non-ABD message");
  ObjectState& st = object(m->obj());

  if (const auto* q = std::get_if<AbdQuery>(&m->body())) {
    send(from, AbdMessage::make(
                   m->obj(), m->op(),
                   AbdQueryResp{st.tag, q->want_value ? st.value : Value{}}));
    return;
  }
  if (const auto* u = std::get_if<AbdUpdate>(&m->body())) {
    if (u->tag > st.tag) {
      stored_bytes_ -= st.value.size();
      st.tag = u->tag;
      st.value = u->value;
      stored_bytes_ += st.value.size();
    }
    send(from, AbdMessage::make(m->obj(), m->op(), AbdUpdateAck{u->tag}));
    return;
  }
  LDS_CHECK(false, "AbdServer: unexpected message type");
}

// ---- client ------------------------------------------------------------------

AbdClient::AbdClient(net::Network& net, std::shared_ptr<const AbdContext> ctx,
                     NodeId id, Role role, History* history)
    : Node(net, id, role), ctx_(std::move(ctx)), history_(history) {}

void AbdClient::broadcast(const AbdBody& body) {
  for (NodeId s : ctx_->server_ids) {
    send(s, AbdMessage::make(obj_, op_, body));
  }
}

void AbdClient::write(ObjectId obj, Value value, WriteCallback cb) {
  LDS_REQUIRE(!busy(), "AbdClient: one operation at a time");
  phase_ = Phase::Query;
  is_write_ = true;
  op_ = make_op_id(id(), ++seq_);
  obj_ = obj;
  value_ = std::move(value);
  wcb_ = std::move(cb);
  max_tag_ = kTag0;
  responders_.clear();
  if (history_ != nullptr) {
    history_index_ = history_->on_invoke(op_, OpKind::Write, obj_, id(),
                                         net_.sim().now());
  }
  broadcast(AbdQuery{/*want_value=*/false});
}

void AbdClient::read(ObjectId obj, ReadCallback cb) {
  LDS_REQUIRE(!busy(), "AbdClient: one operation at a time");
  phase_ = Phase::Query;
  is_write_ = false;
  op_ = make_op_id(id(), ++seq_);
  obj_ = obj;
  rcb_ = std::move(cb);
  max_tag_ = kTag0;
  max_value_ = ctx_->initial_value;
  responders_.clear();
  if (history_ != nullptr) {
    history_index_ =
        history_->on_invoke(op_, OpKind::Read, obj_, id(), net_.sim().now());
  }
  broadcast(AbdQuery{/*want_value=*/true});
}

void AbdClient::finish(Tag tag) {
  phase_ = Phase::Idle;
  if (is_write_) {
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), tag, value_);
    }
    if (wcb_) {
      auto cb = std::move(wcb_);
      wcb_ = nullptr;
      cb(tag);
    }
  } else {
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), tag, value_);
    }
    if (rcb_) {
      auto cb = std::move(rcb_);
      rcb_ = nullptr;
      cb(tag, value_);
    }
  }
}

void AbdClient::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const AbdMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "AbdClient: non-ABD message");
  if (m->op() != op_) return;
  const std::size_t quorum = ctx_->quorum();

  if (const auto* r = std::get_if<AbdQueryResp>(&m->body())) {
    if (phase_ != Phase::Query) return;
    if (!responders_.insert(from)) return;
    if (r->tag > max_tag_) {
      max_tag_ = r->tag;
      if (!is_write_) max_value_ = r->value;
    }
    if (responders_.size() < quorum) return;

    phase_ = Phase::Update;
    responders_.clear();
    if (is_write_) {
      update_tag_ = Tag{max_tag_.z + 1, id()};
      if (history_ != nullptr) {
        history_->set_payload(history_index_, update_tag_, value_);
      }
      broadcast(AbdUpdate{update_tag_, value_});
    } else {
      update_tag_ = max_tag_;
      value_ = max_value_;
      broadcast(AbdUpdate{update_tag_, value_});
    }
    return;
  }

  if (const auto* a = std::get_if<AbdUpdateAck>(&m->body())) {
    if (phase_ != Phase::Update || a->tag != update_tag_) return;
    if (!responders_.insert(from)) return;
    if (responders_.size() < quorum) return;
    finish(update_tag_);
    return;
  }
}

// ---- harness -----------------------------------------------------------------

namespace {
std::shared_ptr<AbdContext> make_abd_context(const AbdCluster::Options& opt) {
  LDS_REQUIRE(2 * opt.f < opt.n, "AbdCluster: need f < n/2");
  auto ctx = std::make_shared<AbdContext>();
  ctx->n = opt.n;
  ctx->f = opt.f;
  ctx->initial_value = opt.initial_value;
  return ctx;
}
}  // namespace

AbdCluster::AbdCluster(const Options& opt)
    : SingleLayerCluster(opt, make_abd_context(opt), opt.f) {}

}  // namespace lds::baselines
