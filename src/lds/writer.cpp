#include "lds/writer.h"

namespace lds::core {

Writer::Writer(net::Network& net, std::shared_ptr<const LdsContext> ctx,
               NodeId id, History* history)
    : Node(net, id, Role::Writer), ctx_(std::move(ctx)), history_(history) {}

void Writer::send_to_l1(const LdsBody& body) {
  const auto msg = LdsMessage::make(obj_, op_, body);
  for (NodeId s : ctx_->l1_ids) send(s, msg);
}

void Writer::write(ObjectId obj, Value value, Callback cb) {
  LDS_REQUIRE(!busy(), "Writer: client must be well-formed (one op at a time)");
  LDS_REQUIRE(!crashed(), "Writer: crashed client cannot invoke");
  phase_ = Phase::GetTag;
  op_ = make_op_id(id(), ++seq_);
  obj_ = obj;
  value_ = std::move(value);
  cb_ = std::move(cb);
  max_tag_ = kTag0;
  responders_.clear();
  if (history_ != nullptr) {
    history_index_ = history_->on_invoke(op_, OpKind::Write, obj_, id(),
                                         net_.sim().now());
  }
  send_to_l1(QueryTag{});
}

void Writer::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const LdsMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "Writer: non-LDS message");
  if (m->op() != op_) return;  // stale response from a previous operation
  const std::size_t quorum = ctx_->cfg.l1_quorum();  // f1 + k

  if (const auto* t = std::get_if<TagResp>(&m->body())) {
    // get-tag phase: await f1 + k responses, track the max tag.
    if (phase_ != Phase::GetTag) return;
    if (!responders_.insert(from)) return;
    if (t->tag > max_tag_) max_tag_ = t->tag;
    if (responders_.size() < quorum) return;

    // put-data phase: new tag tw = (t.z + 1, w).
    phase_ = Phase::PutData;
    write_tag_ = Tag{max_tag_.z + 1, id()};
    responders_.clear();
    if (history_ != nullptr) {
      history_->set_payload(history_index_, write_tag_, value_);
    }
    send_to_l1(PutData{write_tag_, value_});
    return;
  }

  if (const auto* a = std::get_if<WriteAck>(&m->body())) {
    if (phase_ != Phase::PutData || a->tag != write_tag_) return;
    if (!responders_.insert(from)) return;
    if (responders_.size() < quorum) return;

    // Terminate (Fig. 1 line 8).
    phase_ = Phase::Idle;
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), write_tag_,
                            value_);
    }
    if (cb_) {
      auto cb = std::move(cb_);
      cb_ = nullptr;
      cb(write_tag_);
    }
    return;
  }
}

}  // namespace lds::core
