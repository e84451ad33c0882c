#include "baselines/cas.h"

#include "codes/rs.h"
#include "common/assert.h"

namespace lds::baselines {

std::shared_ptr<CasContext> make_cas_context(std::size_t n, std::size_t k,
                                             Bytes initial_value) {
  LDS_REQUIRE(k >= 1 && k <= n, "CAS: need 1 <= k <= n");
  auto ctx = std::make_shared<CasContext>();
  ctx->n = n;
  ctx->k = k;
  ctx->initial_value = std::move(initial_value);
  ctx->code = std::make_shared<codes::StripedCode>(
      std::make_shared<codes::RsRegenerating>(n, k));
  return ctx;
}

// ---- server ---------------------------------------------------------------------

CasServer::CasServer(net::Network& net, std::shared_ptr<const CasContext> ctx,
                     std::size_t index)
    : Node(net, ctx->server_ids.at(index), Role::ServerL1),
      ctx_(std::move(ctx)),
      index_(index) {}

CasServer::ObjectState& CasServer::object(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    ObjectState st;
    st.elements.emplace(kTag0, ctx_->code->encode_element(
                                   ctx_->initial_value,
                                   static_cast<int>(index_)));
    st.finalized.insert(kTag0);
    st.initialized = true;
    it = objects_.emplace(obj, std::move(st)).first;
    stored_bytes_ += it->second.elements.at(kTag0).size();
  }
  return it->second;
}

std::size_t CasServer::versions(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? 0 : it->second.elements.size();
}

void CasServer::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const CasMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "CasServer: non-CAS message");
  ObjectState& st = object(m->obj());

  if (std::get_if<CasQuery>(&m->body()) != nullptr) {
    const Tag fin =
        st.finalized.empty() ? kTag0 : *st.finalized.rbegin();
    send(from, CasMessage::make(m->obj(), m->op(), CasQueryResp{fin}));
    return;
  }
  if (const auto* p = std::get_if<CasPreWrite>(&m->body())) {
    auto [it, inserted] = st.elements.emplace(p->tag, p->element);
    if (inserted) stored_bytes_ += p->element.size();
    send(from, CasMessage::make(m->obj(), m->op(), CasPreAck{p->tag}));
    return;
  }
  if (const auto* f = std::get_if<CasFinalize>(&m->body())) {
    st.finalized.insert(f->tag);
    CasFinAck ack;
    ack.tag = f->tag;
    if (f->want_element) {
      if (auto it = st.elements.find(f->tag); it != st.elements.end()) {
        ack.has_element = true;
        ack.element = it->second;
      }
    }
    send(from, CasMessage::make(m->obj(), m->op(), std::move(ack)));
    return;
  }
  LDS_CHECK(false, "CasServer: unexpected message type");
}

// ---- client ---------------------------------------------------------------------

CasClient::CasClient(net::Network& net, std::shared_ptr<const CasContext> ctx,
                     NodeId id, Role role, History* history)
    : Node(net, id, role), ctx_(std::move(ctx)), history_(history) {
  for (std::size_t i = 0; i < ctx_->server_ids.size(); ++i) {
    server_index_[ctx_->server_ids[i]] = static_cast<int>(i);
  }
}

void CasClient::broadcast(const CasBody& body) {
  for (NodeId s : ctx_->server_ids) {
    send(s, CasMessage::make(obj_, op_, body));
  }
}

void CasClient::write(ObjectId obj, Value value, WriteCallback cb) {
  LDS_REQUIRE(!busy(), "CasClient: one operation at a time");
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
  broadcast(CasQuery{});
}

void CasClient::read(ObjectId obj, ReadCallback cb) {
  LDS_REQUIRE(!busy(), "CasClient: one operation at a time");
  phase_ = Phase::Query;
  is_write_ = false;
  op_ = make_op_id(id(), ++seq_);
  obj_ = obj;
  rcb_ = std::move(cb);
  max_tag_ = kTag0;
  responders_.clear();
  read_elements_.clear();
  if (history_ != nullptr) {
    history_index_ =
        history_->on_invoke(op_, OpKind::Read, obj_, id(), net_.sim().now());
  }
  broadcast(CasQuery{});
}

void CasClient::enter_fin() {
  phase_ = Phase::Fin;
  responders_.clear();
  broadcast(CasFinalize{op_tag_, /*want_element=*/!is_write_});
}

void CasClient::finish() {
  phase_ = Phase::Idle;
  if (is_write_) {
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), op_tag_, value_);
    }
    if (wcb_) {
      auto cb = std::move(wcb_);
      wcb_ = nullptr;
      cb(op_tag_);
    }
  } else {
    auto decoded = ctx_->code->decode_value(read_elements_);
    LDS_CHECK(decoded.has_value(),
              "CasClient: quorum intersection must yield k elements");
    value_ = std::move(*decoded);
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), op_tag_, value_);
    }
    if (rcb_) {
      auto cb = std::move(rcb_);
      rcb_ = nullptr;
      cb(op_tag_, value_);
    }
  }
}

void CasClient::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const CasMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "CasClient: non-CAS message");
  if (m->op() != op_) return;
  const std::size_t quorum = ctx_->quorum();

  if (const auto* r = std::get_if<CasQueryResp>(&m->body())) {
    if (phase_ != Phase::Query) return;
    if (!responders_.insert(from)) return;
    if (r->fin_tag > max_tag_) max_tag_ = r->fin_tag;
    if (responders_.size() < quorum) return;

    if (is_write_) {
      // pre-write phase: ship each server its coded element.
      phase_ = Phase::Pre;
      op_tag_ = Tag{max_tag_.z + 1, id()};
      if (history_ != nullptr) {
        history_->set_payload(history_index_, op_tag_, value_);
      }
      responders_.clear();
      for (std::size_t i = 0; i < ctx_->server_ids.size(); ++i) {
        send(ctx_->server_ids[i],
             CasMessage::make(
                 obj_, op_,
                 CasPreWrite{op_tag_, ctx_->code->encode_element(
                                          value_, static_cast<int>(i))}));
      }
    } else {
      op_tag_ = max_tag_;
      enter_fin();
    }
    return;
  }

  if (const auto* a = std::get_if<CasPreAck>(&m->body())) {
    if (phase_ != Phase::Pre || a->tag != op_tag_) return;
    if (!responders_.insert(from)) return;
    if (responders_.size() < quorum) return;
    enter_fin();
    return;
  }

  if (const auto* f = std::get_if<CasFinAck>(&m->body())) {
    if (phase_ != Phase::Fin || f->tag != op_tag_) return;
    if (!responders_.insert(from)) return;
    if (!is_write_ && f->has_element) {
      read_elements_.emplace_back(server_index_.at(from), f->element);
    }
    if (responders_.size() < quorum) return;
    if (!is_write_ && read_elements_.size() < ctx_->k) {
      // Fewer than k elements among the first q responses (possible only
      // when responses raced ahead of the pre-write quorum); wait for more
      // servers - at least q hold the element, so k will arrive.
      return;
    }
    finish();
    return;
  }
}

// ---- harness --------------------------------------------------------------------

CasCluster::CasCluster(const Options& opt)
    : SingleLayerCluster(opt, make_cas_context(opt.n, opt.k, opt.initial_value),
                         (opt.n - opt.k) / 2) {}

}  // namespace lds::baselines
