#include "lds/server_l1.h"

#include <algorithm>

namespace lds::core {

bool BroadcastDedup::consume(std::uint64_t id) {
  Origin& o = origins_[static_cast<std::uint32_t>(id >> 32)];
  const auto seq = static_cast<std::uint32_t>(id);
  if (seq < o.floor) return false;
  if (seq == o.floor) {
    // Raise the floor past every out-of-order seq it now reaches.
    ++o.floor;
    auto it = o.above.begin();
    for (; it != o.above.end() && *it == o.floor; ++it) ++o.floor;
    window_ -= static_cast<std::size_t>(it - o.above.begin());
    o.above.erase(o.above.begin(), it);
    return true;
  }
  const auto it = std::lower_bound(o.above.begin(), o.above.end(), seq);
  if (it != o.above.end() && *it == seq) return false;
  o.above.insert(it, seq);
  ++window_;
  return true;
}

ServerL1::ServerL1(net::Network& net, std::shared_ptr<const LdsContext> ctx,
                   std::size_t index)
    : Node(net, ctx->l1_ids.at(index), Role::ServerL1),
      ctx_(std::move(ctx)),
      index_(index) {}

ServerL1::ObjectState& ServerL1::object(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    it = objects_.emplace(obj, ObjectState{}).first;
    it->second.tags.emplace_back(kTag0, true);
  }
  return it->second;
}

void ServerL1::recover_committed(ObjectId obj, Tag t) {
  LDS_REQUIRE(!objects_.contains(obj),
              "recover_committed: object already has traffic");
  ObjectState& st = object(obj);
  if (t > kTag0) st.tags.emplace_back(t, true);
  st.tc = t;
  st.durable_tag = t;
}

// ---- the tag table -----------------------------------------------------------

ServerL1::TagRecord* ServerL1::find(ObjectState& st, Tag t) {
  const auto it =
      std::partition_point(st.tags.begin(), st.tags.end(),
                           [&](const TagRecord& r) { return r.tag < t; });
  return it != st.tags.end() && it->tag == t ? &*it : nullptr;
}

ServerL1::TagRecord& ServerL1::record(ObjectState& st, Tag t) {
  if (TagRecord* r = find(st, t)) return *r;
  const auto it =
      std::partition_point(st.tags.begin(), st.tags.end(),
                           [&](const TagRecord& r) { return r.tag < t; });
  return *st.tags.emplace(it, t);
}

void ServerL1::retire(ObjectState& st) {
  // Every record below tc holds bot (values enter L only above tc and
  // garbage_collect blanks each one tc passes), so erasing frees no value.
  const bool durable = ctx_->durable_acks;
  auto end = st.tags.begin();
  while (end != st.tags.end() && end->tag < st.tc) ++end;
  const auto kept = std::remove_if(
      st.tags.begin(), end, [&](const TagRecord& r) {
        if (durable && r.tag > st.durable_tag) return false;
        return !r.in_list || (r.op != kNoOp && r.acked);
      });
  st.tags.erase(kept, end);
}

// ---- durable-ack machinery --------------------------------------------------

void ServerL1::ack_writer(ObjectState& st, TagRecord& r, ObjectId obj,
                          OpId op, NodeId writer) {
  if (r.acked) return;
  r.acked = true;
  if (ctx_->durable_acks && st.durable_tag < r.tag) {
    st.deferred.emplace(r.tag, DeferredAck{writer, op, false});
    return;
  }
  send(writer, LdsMessage::make(obj, op, WriteAck{r.tag}));
}

void ServerL1::flush_deferred(ObjectState& st, ObjectId obj) {
  auto it = st.deferred.begin();
  while (it != st.deferred.end() && it->first <= st.durable_tag) {
    const DeferredAck& d = it->second;
    if (d.put_tag) {
      send(d.to, LdsMessage::make(obj, d.op, PutTagAck{}));
    } else {
      send(d.to, LdsMessage::make(obj, d.op, WriteAck{it->first}));
    }
    it = st.deferred.erase(it);
  }
}

// ---- introspection ----------------------------------------------------------

Tag ServerL1::committed_tag(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? kTag0 : it->second.tc;
}

std::vector<Tag> ServerL1::list_tags(ObjectId obj) const {
  auto it = objects_.find(obj);
  if (it == objects_.end()) return {kTag0};
  std::vector<Tag> out;
  for (const TagRecord& r : it->second.tags) {
    if (r.in_list) out.push_back(r.tag);
  }
  return out;
}

std::size_t ServerL1::tag_records(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? 1 : it->second.tags.size();
}

bool ServerL1::has_value(ObjectId obj, Tag t) const {
  auto it = objects_.find(obj);
  if (it == objects_.end()) return false;
  const auto& tags = it->second.tags;
  return std::any_of(tags.begin(), tags.end(), [&](const TagRecord& r) {
    return r.tag == t && r.value.has_value();
  });
}

std::size_t ServerL1::registered_readers(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? 0 : it->second.gamma.size();
}

// ---- list mutation with storage accounting ----------------------------------

void ServerL1::list_put(TagRecord& r, std::optional<Value> v) {
  const std::uint64_t new_bytes = v.has_value() ? v->size() : 0;
  if (r.in_list) {
    const std::uint64_t old_bytes = r.value.has_value() ? r.value->size() : 0;
    r.value = std::move(v);
    value_bytes_ += new_bytes;
    value_bytes_ -= old_bytes;
    if (ctx_->meter) {
      ctx_->meter->add_l1(new_bytes);
      ctx_->meter->sub_l1(old_bytes);
    }
    return;
  }
  r.in_list = true;
  r.value = std::move(v);
  value_bytes_ += new_bytes;
  if (ctx_->meter && new_bytes) ctx_->meter->add_l1(new_bytes);
}

void ServerL1::list_blank(TagRecord& r) {
  if (!r.value.has_value()) return;
  const std::uint64_t old_bytes = r.value->size();
  r.value.reset();
  value_bytes_ -= old_bytes;
  if (ctx_->meter) ctx_->meter->sub_l1(old_bytes);
}

// ---- dispatch ----------------------------------------------------------------

void ServerL1::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const LdsMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "ServerL1: non-LDS message");
  const ObjectId obj = m->obj();
  const OpId op = m->op();

  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, QueryTag>) {
          get_tag_resp(obj, op, from);
        } else if constexpr (std::is_same_v<T, PutData>) {
          put_data_resp(obj, op, from, body);
        } else if constexpr (std::is_same_v<T, CommitTag>) {
          // Broadcast primitive: consume each instance exactly once; relay
          // servers forward the message to all of L1 on first receipt,
          // before consuming.
          if (!seen_bcasts_.consume(body.bcast_id)) return;
          if (index_ < ctx_->relay_set_size()) {
            for (NodeId peer : ctx_->l1_ids) send(peer, msg);
          }
          broadcast_resp(obj, op, body);
        } else if constexpr (std::is_same_v<T, AckCodeElem>) {
          write_to_l2_complete(obj, body);
        } else if constexpr (std::is_same_v<T, QueryCommTag>) {
          get_committed_tag_resp(obj, op, from);
        } else if constexpr (std::is_same_v<T, QueryData>) {
          get_data_resp(obj, op, from, body);
        } else if constexpr (std::is_same_v<T, SendHelperElem>) {
          regenerate_complete(obj, op, body, from);
        } else if constexpr (std::is_same_v<T, PutTag>) {
          put_tag_resp(obj, op, from, body);
        } else if constexpr (std::is_same_v<T, UnregisterReader>) {
          ObjectState& st = object(obj);
          st.gamma.erase(std::remove_if(st.gamma.begin(), st.gamma.end(),
                                        [&](const GammaEntry& g) {
                                          return g.reader == from &&
                                                 g.op == op;
                                        }),
                         st.gamma.end());
        } else {
          LDS_CHECK(false, "ServerL1: unexpected message type");
        }
      },
      m->body());
}

// ---- Fig. 2 actions -----------------------------------------------------------

void ServerL1::get_tag_resp(ObjectId obj, OpId op, NodeId writer) {
  // Fig. 2 line 3: reply with max{t : (t, *) in L} (bot entries count -
  // they witness tags of garbage-collected or offloaded writes).  tc is in
  // L, so the scan stops at tc at the latest.
  ObjectState& st = object(obj);
  const auto it =
      std::find_if(st.tags.rbegin(), st.tags.rend(),
                   [](const TagRecord& r) { return r.in_list; });
  LDS_CHECK(it != st.tags.rend(), "ServerL1: empty list");
  send(writer, LdsMessage::make(obj, op, TagResp{it->tag}));
}

void ServerL1::put_data_resp(ObjectId obj, OpId op, NodeId writer,
                             const PutData& m) {
  ObjectState& st = object(obj);
  // Fig. 2 line 6: broadcast COMMIT-TAG before anything else.
  bcast_commit(obj, op, m.tag);
  TagRecord& r = record(st, m.tag);
  if (r.op == kNoOp) r.op = op;
  if (m.tag > st.tc) {
    list_put(r, m.value);
    // The ACK is deferred to broadcast-resp (>= f1+k COMMIT-TAGs).
    return;
  }
  // An older (possibly garbage-collected) tag.  Durable mode: the tag may
  // have committed via the valueless put-tag path (Fig. 2 lines 62-65),
  // which never offloads — and a deferred ack would then wait forever.
  // This server holds the value right here, so offload it (once) before
  // acking; ack_writer defers until it is durable.
  if (ctx_->durable_acks && st.durable_tag < m.tag && !r.offload_sent) {
    write_to_l2(obj, op, r, m.value);
  }
  ack_writer(st, r, obj, op, writer);
  retire(st);
}

void ServerL1::bcast_commit(ObjectId obj, OpId op, Tag tag) {
  const std::uint64_t bcast_id =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id())) << 32) |
      bcast_seq_++;
  const auto msg = LdsMessage::make(obj, op, CommitTag{tag, bcast_id});
  const std::size_t relays = ctx_->relay_set_size();
  for (std::size_t j = 0; j < relays; ++j) send(ctx_->l1_ids[j], msg);
}

void ServerL1::broadcast_resp(ObjectId obj, OpId op, const CommitTag& m) {
  ObjectState& st = object(obj);
  TagRecord* r = find(st, m.tag);
  if (r == nullptr) {
    if (m.tag < st.tc) return;  // retired or never in L (file comment)
    r = &record(st, m.tag);
  }
  // Fig. 2 line 13: requires the tag key in L *and* a quorum of COMMIT-TAGs.
  if (++r->commits < ctx_->cfg.l1_quorum() || !r->in_list) return;
  // "send ACK to writer w of tag tin": the writer id is the tag's w field.
  // Durable mode holds the ack until write-to-L2-complete for this tag.
  ack_writer(st, *r, obj, op, m.tag.w);
  if (m.tag > st.tc) commit_tag(st, obj, op, *r);
  retire(st);
}

void ServerL1::commit_tag(ObjectState& st, ObjectId obj, OpId op,
                          TagRecord& r) {
  // Fig. 2 lines 15-19 (also reached from put-tag-resp when the value is in
  // the list): update tc, serve registered readers, garbage-collect older
  // values, offload to L2.
  LDS_CHECK(r.in_list, "commit_tag: tag not in list");
  const Tag old_tc = st.tc;
  st.tc = r.tag;
  if (!r.value.has_value()) {
    // The value was already offloaded and garbage-collected by an earlier
    // commit path; nothing to serve or offload.
    garbage_collect(st, old_tc);
    return;
  }
  // Handle copy (refcount bump): the value outlives serving and any later
  // blanking of the entry.
  const Value value = *r.value;
  serve_registered(st, obj, r.tag, value);
  garbage_collect(st, old_tc);
  // Attribute the internal write-to-L2 to the originating write operation
  // (Section II-d: write cost includes internal write-to-L2 costs).
  write_to_l2(obj, r.op != kNoOp ? r.op : op, r, value);
}

void ServerL1::serve_registered(ObjectState& st, ObjectId obj, Tag t,
                                const Value& value) {
  auto it = st.gamma.begin();
  while (it != st.gamma.end()) {
    if (t >= it->treq) {
      send(it->reader,
           LdsMessage::make(obj, it->op, DataRespValue{t, value}));
      it = st.gamma.erase(it);
    } else {
      ++it;
    }
  }
}

void ServerL1::garbage_collect(ObjectState& st, Tag old_tc) {
  // Values enter the list only above tc, and the previous collection
  // blanked every value below old_tc, so only [old_tc, tc) can hold one.
  for (TagRecord& r : st.tags) {
    if (r.tag >= st.tc) break;
    if (r.tag >= old_tc) list_blank(r);
  }
}

void ServerL1::write_to_l2(ObjectId obj, OpId op, TagRecord& r,
                           const Value& value) {
  // Fig. 2 lines 20-23: encode with C2 and send each coordinate to its L2
  // server.  The element for L2 server i is coordinate n1 + i of C.
  r.offload_sent = true;
  const auto& elems = ctx_->c2_elements(obj, r.tag, value);
  for (std::size_t i = 0; i < ctx_->cfg.n2; ++i) {
    send(ctx_->l2_ids[i],
         LdsMessage::make(obj, op, WriteCodeElem{r.tag, elems[i]}));
  }
}

void ServerL1::write_to_l2_complete(ObjectId obj, const AckCodeElem& m) {
  // Fig. 2 lines 24-27: after n2 - f2 ACKs the offload is durable in L2;
  // garbage-collect the temporary copy.  Proxy-cache extension: keep the
  // value if it is still the committed (newest) one, so reads are served
  // from the edge without an L2 round trip.
  ObjectState& st = object(obj);
  const bool durable = ctx_->durable_acks;
  TagRecord* r = find(st, m.tag);
  if (r == nullptr) {
    // Retired or never in L (file comment).  In durable mode an ack above
    // the watermark still counts toward it, e.g. a repaired L2's
    // broadcast of its newest tag.
    if (m.tag < st.tc && (!durable || m.tag <= st.durable_tag)) return;
    r = &record(st, m.tag);
  }
  if (++r->l2_acks != ctx_->cfg.l2_quorum()) return;
  if (!(ctx_->cfg.proxy_cache && m.tag == st.tc)) list_blank(*r);
  if (durable && m.tag > st.durable_tag) {
    // The durability watermark is monotone: a quorum for tag t certifies
    // every tag <= t (L2 servers keep the newest tag), so all deferred
    // acks at or below t can go out, and the records they kept retire.
    st.durable_tag = m.tag;
    flush_deferred(st, obj);
    retire(st);
  }
}

void ServerL1::get_committed_tag_resp(ObjectId obj, OpId op, NodeId reader) {
  send(reader, LdsMessage::make(obj, op, CommTagResp{object(obj).tc}));
}

void ServerL1::get_data_resp(ObjectId obj, OpId op, NodeId reader,
                             const QueryData& m) {
  ObjectState& st = object(obj);
  // Fig. 2 lines 30-38.
  if (const TagRecord* r = find(st, m.treq); r && r->value.has_value()) {
    send(reader, LdsMessage::make(obj, op, DataRespValue{m.treq, *r->value}));
    return;
  }
  if (st.tc > m.treq) {
    if (const TagRecord* r = find(st, st.tc); r && r->value.has_value()) {
      send(reader, LdsMessage::make(obj, op, DataRespValue{st.tc, *r->value}));
      return;
    }
  }
  st.gamma.push_back(GammaEntry{reader, op, m.treq});
  regenerate_from_l2(st, obj, op, reader, m.treq);
}

void ServerL1::regenerate_from_l2(ObjectState& st, ObjectId obj, OpId op,
                                  NodeId reader, Tag treq) {
  LDS_CHECK(!st.regen.contains(op), "regenerate_from_l2: duplicate read op");
  Regen& rg = st.regen.emplace(op, Regen{reader, treq, {}}).first->second;
  rg.helpers.reserve(ctx_->regen_wait());
  const auto msg =
      LdsMessage::make(obj, op, QueryCodeElem{static_cast<int>(index_)});
  for (NodeId l2 : ctx_->l2_ids) send(l2, msg);
}

void ServerL1::regenerate_complete(ObjectId obj, OpId op,
                                   const SendHelperElem& m, NodeId from) {
  ObjectState& st = object(obj);
  auto it = st.regen.find(op);
  if (it == st.regen.end()) return;  // late helper after regeneration ended
  Regen& rg = it->second;
  // Map the sender to its L2 index (= code coordinate - n1).
  int l2_index = -1;
  for (std::size_t i = 0; i < ctx_->l2_ids.size(); ++i) {
    if (ctx_->l2_ids[i] == from) {
      l2_index = static_cast<int>(i);
      break;
    }
  }
  LDS_CHECK(l2_index >= 0, "regenerate_complete: helper not an L2 server");
  rg.helpers.push_back(TaggedHelper{
      m.tag, {static_cast<int>(ctx_->cfg.n1) + l2_index, m.helper}});
  if (rg.helpers.size() < ctx_->regen_wait()) return;

  // Fig. 2 lines 45-51: attempt to regenerate the highest tag with >= d
  // helper responses on a common tag; K[r] is cleared either way.
  const Regen done = std::move(rg);
  st.regen.erase(it);

  // Has this reader's registration survived (i.e. was it not already served
  // via a commit)?  If it was served, the server stays silent.
  const bool registered =
      std::any_of(st.gamma.begin(), st.gamma.end(), [&](const GammaEntry& g) {
        return g.reader == done.reader && g.op == op;
      });
  if (!registered) return;

  auto regen = ctx_->regenerate(static_cast<int>(index_), done.helpers);
  if (regen && regen->first >= done.treq) {
    send(done.reader,
         LdsMessage::make(obj, op,
                          DataRespCoded{regen->first, static_cast<int>(index_),
                                        std::move(regen->second)}));
  } else {
    send(done.reader, LdsMessage::make(obj, op, DataRespNack{}));
  }
  // Per the paper, the reader remains registered: a later commit may still
  // serve it with a (tag, value) pair.
}

void ServerL1::put_tag_resp(ObjectId obj, OpId op, NodeId reader,
                            const PutTag& m) {
  ObjectState& st = object(obj);
  // Fig. 2 line 53: unregister gamma' = (r, treq) for this read operation.
  st.gamma.erase(
      std::remove_if(st.gamma.begin(), st.gamma.end(),
                     [&](const GammaEntry& g) {
                       return g.reader == reader && g.op == op;
                     }),
      st.gamma.end());

  if (m.tag > st.tc) {
    if (TagRecord* r = find(st, m.tag); r && r->value.has_value()) {
      // The put-tag acts as a proxy for the commitCounter event of
      // broadcast-resp: commit, serve, garbage-collect and offload.
      commit_tag(st, obj, op, *r);
    } else {
      // Fig. 2 lines 62-65: first sighting of this tag; record it as
      // committed-but-valueless, serve whoever the best remaining value can
      // serve, then garbage-collect.
      const Tag old_tc = st.tc;
      st.tc = m.tag;
      list_put(record(st, m.tag), std::nullopt);
      // No value lies below old_tc (see garbage_collect).
      const TagRecord* best = nullptr;
      for (const TagRecord& rec : st.tags) {
        if (rec.tag >= st.tc) break;
        if (rec.tag >= old_tc && rec.value.has_value()) best = &rec;
      }
      if (best != nullptr) {
        // Handle copy: serving mutates gamma, not the table.
        const Value value = *best->value;
        serve_registered(st, obj, best->tag, value);
      }
      garbage_collect(st, old_tc);
    }
    retire(st);
  }
  // Durable mode: a read must not complete while the tag it exposes could
  // still vanish with a SIGKILL; hold the ack until the offload is durable
  // here.  (The valueless-commit case cannot stall: the writer put-datas
  // ALL of L1, and whichever server still holds the value offloads it from
  // the put-data-resp older-tag branch.)
  if (ctx_->durable_acks && st.durable_tag < m.tag) {
    st.deferred.emplace(m.tag, DeferredAck{reader, op, true});
    return;
  }
  send(reader, LdsMessage::make(obj, op, PutTagAck{}));
}

}  // namespace lds::core
