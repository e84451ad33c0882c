#include "lds/reader.h"

namespace lds::core {

Reader::Reader(net::Network& net, std::shared_ptr<const LdsContext> ctx,
               NodeId id, History* history, ReadConsistency consistency)
    : Node(net, id, Role::Reader),
      ctx_(std::move(ctx)),
      history_(history),
      consistency_(consistency) {}

void Reader::finish() {
  phase_ = Phase::Idle;
  if (history_ != nullptr && !tag_only_) {
    history_->on_response(history_index_, net_.sim().now(), result_tag_,
                          result_value_);
  }
  if (cb_) {
    auto cb = std::move(cb_);
    cb_ = nullptr;
    cb(result_tag_, std::move(result_value_));
  }
}

void Reader::send_to_l1(const LdsBody& body) {
  const auto msg = LdsMessage::make(obj_, op_, body);
  for (NodeId s : ctx_->l1_ids) send(s, msg);
}

void Reader::read(ObjectId obj, Callback cb) {
  start(obj, std::move(cb), /*tag_only=*/false);
}

void Reader::read_tag(ObjectId obj, Callback cb) {
  start(obj, std::move(cb), /*tag_only=*/true);
}

void Reader::start(ObjectId obj, Callback cb, bool tag_only) {
  LDS_REQUIRE(!busy(), "Reader: client must be well-formed (one op at a time)");
  LDS_REQUIRE(!crashed(), "Reader: crashed client cannot invoke");
  phase_ = Phase::GetCommittedTag;
  tag_only_ = tag_only;
  op_ = make_op_id(id(), ++seq_);
  obj_ = obj;
  cb_ = std::move(cb);
  treq_ = kTag0;
  responders_.clear();
  have_value_ = false;
  best_value_tag_ = kTag0;
  best_value_ = Value();
  coded_.clear();
  // Tag-only rounds carry no value and are not history reads; the caller
  // (the client cache) records the operation it actually serves.
  if (history_ != nullptr && !tag_only_) {
    history_index_ =
        history_->on_invoke(op_, OpKind::Read, obj_, id(), net_.sim().now());
  }
  send_to_l1(QueryCommTag{});
}

void Reader::maybe_finish_get_data() {
  if (responders_.size() < ctx_->cfg.l1_quorum()) return;

  // Best decodable coded tag (>= k elements on a common tag).
  bool have_coded = false;
  Tag best_coded_tag;
  for (auto it = coded_.rbegin(); it != coded_.rend(); ++it) {
    if (it->second.size() >= ctx_->cfg.k()) {
      have_coded = true;
      best_coded_tag = it->first;
      break;
    }
  }
  if (!have_value_ && !have_coded) return;

  // Pick the candidate with the highest tag; prefer the directly-served
  // value on ties (no decode needed).
  if (have_coded && (!have_value_ || best_coded_tag > best_value_tag_)) {
    auto decoded = ctx_->code.decode_value(coded_[best_coded_tag]);
    if (!decoded) {
      // Malformed coded set (cannot happen with correct servers); fall back
      // to the value candidate if one exists, else keep waiting.
      if (!have_value_) return;
      result_tag_ = best_value_tag_;
      result_value_ = best_value_;
    } else {
      result_tag_ = best_coded_tag;
      result_value_ = std::move(*decoded);
    }
  } else {
    result_tag_ = best_value_tag_;
    result_value_ = best_value_;
  }

  if (consistency_ == ReadConsistency::Regular) {
    // Regular reads skip the put-tag phase (Section VI extension); still
    // drop any Gamma registrations so servers stop serving this operation.
    send_to_l1(UnregisterReader{});
    finish();
    return;
  }

  // put-tag phase: write back the tag (not the value - that is what keeps
  // the read cost low), ensuring f1 + k servers commit at least tr.
  phase_ = Phase::PutTag;
  responders_.clear();
  send_to_l1(PutTag{result_tag_});
}

void Reader::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const LdsMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "Reader: non-LDS message");
  if (m->op() != op_) return;  // stale response from a previous operation
  const std::size_t quorum = ctx_->cfg.l1_quorum();

  if (const auto* t = std::get_if<CommTagResp>(&m->body())) {
    if (phase_ != Phase::GetCommittedTag) return;
    if (!responders_.insert(from).second) return;
    if (t->tag > treq_) treq_ = t->tag;
    if (responders_.size() < quorum) return;
    if (tag_only_) {
      // Validation round complete: treq is a committed-tag floor over a
      // full quorum.  Skip get-data and put-tag entirely.
      result_tag_ = treq_;
      result_value_ = Value();
      finish();
      return;
    }
    phase_ = Phase::GetData;
    responders_.clear();
    send_to_l1(QueryData{treq_});
    return;
  }

  if (phase_ == Phase::GetData) {
    if (const auto* v = std::get_if<DataRespValue>(&m->body())) {
      responders_.insert(from);
      if (v->tag >= treq_ && (!have_value_ || v->tag > best_value_tag_)) {
        have_value_ = true;
        best_value_tag_ = v->tag;
        best_value_ = v->value;
      }
      maybe_finish_get_data();
      return;
    }
    if (const auto* c = std::get_if<DataRespCoded>(&m->body())) {
      responders_.insert(from);
      if (c->tag >= treq_) {
        coded_[c->tag].emplace_back(c->code_index, c->element);
      }
      maybe_finish_get_data();
      return;
    }
    if (std::get_if<DataRespNack>(&m->body()) != nullptr) {
      responders_.insert(from);
      maybe_finish_get_data();
      return;
    }
    return;
  }

  if (std::get_if<PutTagAck>(&m->body()) != nullptr) {
    if (phase_ != Phase::PutTag) return;
    if (!responders_.insert(from).second) return;
    if (responders_.size() < quorum) return;
    finish();
    return;
  }
}

}  // namespace lds::core
