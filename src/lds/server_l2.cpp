#include "lds/server_l2.h"

#include <algorithm>

namespace lds::core {

ServerL2::ServerL2(net::Network& net, std::shared_ptr<const LdsContext> ctx,
                   std::size_t index,
                   std::unique_ptr<storage::Backend> backend)
    : Node(net, ctx->l2_ids.at(index), Role::ServerL2),
      ctx_(std::move(ctx)),
      index_(index),
      backend_(std::move(backend)) {
  if (backend_ == nullptr) return;
  // Adopt everything the backend recovered from checkpoint + WAL.
  for (const auto& [obj, entry] : backend_->recovered()) {
    ObjectState st;
    st.tag = entry.tag;
    st.element = entry.element;
    stored_bytes_ += st.element.size();
    if (ctx_->meter) ctx_->meter->add_l2(st.element.size());
    objects_.emplace(obj, std::move(st));
  }
  // Checkpoints snapshot the live map, not the log being truncated.
  backend_->set_snapshot_source([this](const storage::Backend::SnapshotSink&
                                           sink) {
    for (const auto& [obj, st] : objects_) sink(obj, st.tag, st.element);
  });
}

ServerL2::~ServerL2() {
  // Keep the storage gauge consistent when a server object is torn down
  // (e.g. replaced after a crash).
  if (ctx_->meter) ctx_->meter->sub_l2(stored_bytes_);
  // GroupCommit/Never: flush the unsynced tail on clean teardown so a
  // graceful shutdown loses nothing (failure here just means the next
  // recovery replays less; nothing to report on a destructor path).
  if (backend_ != nullptr) backend_->sync();
}

ServerL2::ObjectState& ServerL2::object(ObjectId obj) {
  return const_cast<ObjectState&>(
      static_cast<const ServerL2*>(this)->object(obj));
}

const ServerL2::ObjectState& ServerL2::object(ObjectId obj) const {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    ObjectState st;
    st.tag = kTag0;
    st.element = ctx_->initial_element(code_index());
    stored_bytes_ += st.element.size();
    if (ctx_->meter) ctx_->meter->add_l2(st.element.size());
    it = objects_.emplace(obj, std::move(st)).first;
  }
  return it->second;
}

bool ServerL2::store(ObjectId obj, Tag tag, Value element) {
  // Persist-before-apply: if the disk refuses, neither RAM nor the acker
  // sees the element — the server simply behaves like one that never
  // received the message, which the f2 fault budget already covers.
  if (backend_ != nullptr && !backend_->put(obj, tag, element).ok()) {
    return false;
  }
  ObjectState& st = object(obj);
  const std::uint64_t old_size = st.element.size();
  st.tag = tag;
  st.element = std::move(element);
  stored_bytes_ += st.element.size();
  stored_bytes_ -= old_size;
  if (ctx_->meter) {
    ctx_->meter->add_l2(st.element.size());
    ctx_->meter->sub_l2(old_size);
  }
  // Checkpoint only now: the snapshot lists objects_, and the segment it
  // truncates holds this element's record.
  return backend_ == nullptr || backend_->checkpoint_if_due().ok();
}

void ServerL2::recovery_store(ObjectId obj, Tag tag, Value element) {
  store(obj, tag, std::move(element));
}

std::vector<ObjectId> ServerL2::stored_objects() const {
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [obj, st] : objects_) out.push_back(obj);
  return out;
}

void ServerL2::broadcast_durable_ack(ObjectId obj, Tag tag) {
  // Post-repair liveness (durable mode): deferred writer/reader acks at L1
  // wait for an l2_quorum of AckCodeElems, and messages to a server that
  // was down are gone.  The repaired server announces its newest durable
  // tag to all of L1; write_to_l2_complete treats it as the missing ack and
  // the durable watermark advances past every stuck older tag.
  if (tag == kTag0) return;
  const auto msg = LdsMessage::make(obj, kNoOp, AckCodeElem{tag});
  for (NodeId l1 : ctx_->l1_ids) send(l1, msg);
}

void ServerL2::forget_object(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) return;
  stored_bytes_ -= it->second.element.size();
  if (ctx_->meter) ctx_->meter->sub_l2(it->second.element.size());
  objects_.erase(it);
  // Tombstone so recovery does not resurrect the forgotten state.  A
  // poisoned backend cannot persist it; the wipe in replace_l2 covers that.
  if (backend_ != nullptr) backend_->forget(obj);
  // Re-materializing via object() would resurrect (t0, c0); a repaired
  // server instead fills the slot through repair_object().  Until then the
  // server answers helper queries from the (t0, c0) default, which is the
  // best a fresh replacement could legitimately claim.
}

Tag ServerL2::stored_tag(ObjectId obj) const { return object(obj).tag; }

const Bytes& ServerL2::stored_element(ObjectId obj) const {
  return object(obj).element.bytes();
}

// ---- repair extension ---------------------------------------------------------

void ServerL2::repair_object(ObjectId obj, RepairCallback done,
                             int max_rounds) {
  LDS_REQUIRE(!crashed(), "ServerL2::repair_object on crashed server");
  LDS_REQUIRE(!repairs_.contains(obj),
              "ServerL2::repair_object: repair already in progress");
  Repair rep;
  rep.done = std::move(done);
  rep.rounds_left = max_rounds;
  repairs_.emplace(obj, std::move(rep));
  start_repair_round(obj);
}

void ServerL2::start_repair_round(ObjectId obj) {
  Repair& rep = repairs_.at(obj);
  if (rep.rounds_left == 0) {
    auto done = std::move(rep.done);
    repairs_.erase(obj);
    if (done) done(std::nullopt);
    return;
  }
  --rep.rounds_left;
  rep.helpers.clear();
  const OpId op = make_op_id(id(), ++repair_seq_);
  repair_ops_[op] = obj;
  const auto msg = LdsMessage::make(obj, op, QueryCodeElem{code_index()});
  for (std::size_t i = 0; i < ctx_->l2_ids.size(); ++i) {
    if (i != index_) send(ctx_->l2_ids[i], msg);
  }
}

void ServerL2::finish_repair_round(ObjectId obj, OpId op) {
  Repair& rep = repairs_.at(obj);
  repair_ops_.erase(op);

  auto regen = ctx_->regenerate(code_index(), rep.helpers);
  if (!regen) {
    // No d-sized common-tag subset: a write-to-L2 was in flight.  Retry.
    start_repair_round(obj);
    return;
  }
  const Tag tag = regen->first;
  // Keep whichever of (repaired, locally stored) is newer - a concurrent
  // write-to-L2 may have landed during the repair round.  In durable mode
  // the repaired element is re-persisted by store(), and the server
  // announces its newest durable tag so acks lost to the pre-repair
  // downtime cannot stall deferred durable acks at L1 (liveness).
  if (tag > object(obj).tag) store(obj, tag, std::move(regen->second));
  if (ctx_->durable_acks) broadcast_durable_ack(obj, object(obj).tag);
  auto done = std::move(rep.done);
  repairs_.erase(obj);
  if (done) done(tag);
}

// ---- message handling ----------------------------------------------------------

void ServerL2::on_message(NodeId from, const net::MessagePtr& msg) {
  // Heartbeats from the repair manager: reply and return (not part of the
  // Fig. 3 protocol; kept outside the LDS message variant on purpose).
  if (const auto* ping = dynamic_cast<const HeartbeatPing*>(msg.get())) {
    send(from, std::make_shared<HeartbeatPong>(ping->seq()));
    return;
  }
  const auto* m = dynamic_cast<const LdsMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "ServerL2: non-LDS message");
  const ObjectId obj = m->obj();
  const OpId op = m->op();

  if (const auto* w = std::get_if<WriteCodeElem>(&m->body())) {
    // write-to-L2-resp (Fig. 3 line 3): replace iff the incoming tag is
    // strictly newer; ACK in all cases — except when durability was
    // requested and the disk refused, in which case staying silent makes
    // this an ordinary omission failure within the f2 budget.
    if (w->tag > object(obj).tag && !store(obj, w->tag, w->element)) return;
    send(from, LdsMessage::make(obj, op, AckCodeElem{w->tag}));
    return;
  }

  if (const auto* q = std::get_if<QueryCodeElem>(&m->body())) {
    // regenerate-from-L2-resp (Fig. 3 line 7): helper data for coordinate
    // `target_index`, computed from the locally stored element alone.  The
    // same action serves both L1 regenerations and L2 peer repairs.
    const ObjectState& st = object(obj);
    Value h = ctx_->code.helper_data(code_index(), st.element,
                                     q->target_index);
    send(from, LdsMessage::make(obj, op, SendHelperElem{st.tag, std::move(h)}));
    return;
  }

  if (const auto* h = std::get_if<SendHelperElem>(&m->body())) {
    // Helper response for one of this server's own repair rounds.
    auto oit = repair_ops_.find(op);
    if (oit == repair_ops_.end()) return;  // stale round
    const ObjectId robj = oit->second;
    auto rit = repairs_.find(robj);
    if (rit == repairs_.end()) return;
    int l2_index = -1;
    for (std::size_t i = 0; i < ctx_->l2_ids.size(); ++i) {
      if (ctx_->l2_ids[i] == from) {
        l2_index = static_cast<int>(i);
        break;
      }
    }
    LDS_CHECK(l2_index >= 0, "ServerL2 repair: helper not an L2 peer");
    Repair& rep = rit->second;
    rep.helpers.push_back(TaggedHelper{
        h->tag, {static_cast<int>(ctx_->cfg.n1) + l2_index, h->helper}});
    // Wait for f2 + d - 1 of the n2 - 1 peers (the replacement itself may
    // be the f2-th failure, so only f2 - 1 peers can still be down).
    if (rep.helpers.size() == ctx_->regen_wait() - 1) {
      finish_repair_round(robj, op);
    }
    return;
  }

  LDS_CHECK(false, "ServerL2: unexpected message type");
}

}  // namespace lds::core
