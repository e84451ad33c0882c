#include "lds/cluster.h"

#include <algorithm>
#include <map>
#include <utility>

#include "codes/factory.h"
#include "net/transport.h"
#include "storage/fsutil.h"
#include "storage/manifest.h"

namespace lds::core {

namespace {
std::unique_ptr<net::LatencyModel> make_latency(const LdsCluster::Options& o) {
  switch (o.latency) {
    case LdsCluster::LatencyKind::Fixed:
      return std::make_unique<net::FixedLatency>(o.tau1, o.tau0, o.tau2);
    case LdsCluster::LatencyKind::Uniform:
      return std::make_unique<net::UniformLatency>(o.tau1, o.tau0, o.tau2,
                                                   o.uniform_lo_frac);
    case LdsCluster::LatencyKind::Exponential:
      return std::make_unique<net::ExponentialLatency>(o.tau1, o.tau0,
                                                       o.tau2);
  }
  LDS_REQUIRE(false, "LdsCluster: unknown latency kind");
  return nullptr;
}
}  // namespace

LdsCluster::LdsCluster(Options opt)
    : Cluster(opt.engine, opt.lane, opt.seed, make_latency(opt)),
      opt_(std::move(opt)) {
  opt_.cfg.validate();
  LDS_REQUIRE(opt_.writers >= 1 && opt_.writers < 9999,
              "LdsCluster: writer count out of range");
  if (opt_.transport_factory) {
    net().set_transport(opt_.transport_factory(net()));
  }
  LDS_REQUIRE(opt_.remote_l1.empty() && opt_.remote_l2.empty()
                  ? true
                  : static_cast<bool>(opt_.transport_factory),
              "LdsCluster: remote placement requires a transport_factory");
  LDS_REQUIRE((opt_.remote_l1.empty() && opt_.remote_l2.empty()) ||
                  opt_.data_dir.empty(),
              "LdsCluster: remote placement is RAM-only (no data_dir)");
  for (const std::size_t j : opt_.remote_l1) {
    LDS_REQUIRE(j < opt_.cfg.n1, "LdsCluster: remote_l1 index out of range");
  }
  for (const std::size_t i : opt_.remote_l2) {
    LDS_REQUIRE(i < opt_.cfg.n2, "LdsCluster: remote_l2 index out of range");
  }

  ctx_ = LdsContext::make(opt_.cfg);
  ctx_->meter = &meter_;
  ctx_->encode_engine = &engine();
  for (std::size_t j = 0; j < opt_.cfg.n1; ++j) {
    ctx_->l1_ids.push_back(kL1IdBase + static_cast<NodeId>(j));
  }
  for (std::size_t i = 0; i < opt_.cfg.n2; ++i) {
    ctx_->l2_ids.push_back(kL2IdBase + static_cast<NodeId>(i));
  }

  const bool durable = !opt_.data_dir.empty();
  if (durable) {
    ctx_->durable_acks = true;
    // Fail fast on a data_dir written by a different deployment: recovered
    // coded elements are meaningless under another geometry or code, or
    // under another element layout (v2: plane-major StripedCode elements).
    storage::Manifest mf;
    mf.set("format", "lds-cluster-v2");
    mf.set("n1", static_cast<std::uint64_t>(opt_.cfg.n1));
    mf.set("f1", static_cast<std::uint64_t>(opt_.cfg.f1));
    mf.set("n2", static_cast<std::uint64_t>(opt_.cfg.n2));
    mf.set("f2", static_cast<std::uint64_t>(opt_.cfg.f2));
    mf.set("code", codes::backend_name(opt_.cfg.backend));
    auto st = mf.verify_or_write(opt_.data_dir);
    LDS_REQUIRE(st.ok(),
                ("LdsCluster: " + std::string(st.message())).c_str());
  }

  for (std::size_t j = 0; j < opt_.cfg.n1; ++j) {
    l1_.push_back(opt_.remote_l1.contains(j)
                      ? nullptr
                      : std::make_unique<ServerL1>(net(), ctx_, j));
  }
  for (std::size_t i = 0; i < opt_.cfg.n2; ++i) {
    l2_.push_back(opt_.remote_l2.contains(i)
                      ? nullptr
                      : std::make_unique<ServerL2>(
                            net(), ctx_, i,
                            durable ? open_l2_backend(i) : nullptr));
  }
  for (std::size_t w = 0; w < opt_.writers; ++w) {
    writers_.push_back(std::make_unique<Writer>(
        net(), ctx_, static_cast<NodeId>(1 + w), &history()));
  }
  for (std::size_t r = 0; r < opt_.readers; ++r) {
    readers_.push_back(std::make_unique<Reader>(
        net(), ctx_, kReaderIdBase + static_cast<NodeId>(r), &history(),
        opt_.read_consistency));
  }
  // Regular-consistency pool (Section VI extension): ids follow the atomic
  // readers' block so both pools stay within the reader id range.
  for (std::size_t r = 0; r < opt_.regular_readers; ++r) {
    regular_readers_.push_back(std::make_unique<Reader>(
        net(), ctx_,
        kReaderIdBase + static_cast<NodeId>(opt_.readers + r), &history(),
        ReadConsistency::Regular));
  }

  if (durable) recover_from_storage();
}

std::string LdsCluster::l2_dir(std::size_t i) const {
  return opt_.data_dir + "/l2-" + std::to_string(i);
}

std::unique_ptr<storage::Backend> LdsCluster::open_l2_backend(std::size_t i) {
  auto be = storage::DurableBackend::open(l2_dir(i), opt_.durability);
  LDS_REQUIRE(be.ok(), ("LdsCluster: open L2 backend " + l2_dir(i) + ": " +
                        be.status().message())
                           .c_str());
  return std::move(be).value();
}

void LdsCluster::recover_from_storage() {
  // Gather every surviving (tag, element) version per object across all L2
  // backends, keyed by tag descending, one element per code coordinate.
  // Versions (not just each server's newest holding) matter: at SIGKILL the
  // servers may hold several distinct in-flight tags, none with k live
  // copies, while the newest *durably acknowledged* tag — the one some
  // completed client operation may have observed — still has >= k copies
  // among the overwritten WAL records.
  struct Candidates {
    std::map<Tag, std::map<int, Value>> by_tag;  // tag -> coord -> element
  };
  std::map<ObjectId, Candidates> objects;
  for (std::size_t i = 0; i < l2_.size(); ++i) {
    const storage::Backend* be = l2_[i]->storage_backend();
    LDS_CHECK(be != nullptr, "recover_from_storage: RAM-only L2");
    const int coord = static_cast<int>(opt_.cfg.n1 + i);
    for (const auto& v : be->recovered_versions()) {
      if (v.tag == kTag0) continue;
      objects[v.obj].by_tag[v.tag].emplace(coord, v.element);
    }
  }

  std::uint32_t seq = 0;
  for (auto& [obj, cand] : objects) {
    // Newest tag restorable from >= k distinct coordinates wins.  This is
    // at least as new as any tag a pre-crash client operation completed on:
    // completion required an l2_quorum (= f2 + d >= k) of synced acks.
    Tag chosen = kTag0;
    Bytes value;
    for (auto it = cand.by_tag.rbegin(); it != cand.by_tag.rend(); ++it) {
      if (it->second.size() < opt_.cfg.k()) continue;
      std::vector<codes::IndexedBytes> elems;
      elems.reserve(it->second.size());
      for (auto& [coord, element] : it->second) {
        elems.emplace_back(coord, element);
      }
      auto decoded = ctx_->code.decode_value(elems);
      if (!decoded) continue;
      chosen = it->first;
      value = std::move(*decoded);
      break;
    }
    if (chosen == kTag0) continue;

    // Force the whole shard to exactly (chosen, value): re-encode and store
    // at every L2 server, downgrading divergent newer tags — those never
    // reached a quorum (else they would have been chosen), so no client saw
    // them, and a uniform back layer is what keeps post-restart
    // regeneration live with zero further writes.
    const auto& coded = ctx_->c2_elements(obj, chosen, value);
    for (std::size_t i = 0; i < l2_.size(); ++i) {
      if (l2_[i]->stored_tag(obj) != chosen) {
        l2_[i]->recovery_store(obj, chosen, coded[i]);
      }
    }
    for (auto& l1 : l1_) l1->recover_committed(obj, chosen);

    // The checkers must see the recovered state as a write that actually
    // happened (it did, in a previous incarnation): synthesize a completed
    // write at t=now carrying the recovered tag and value.  The op id keys
    // off the original writer id recorded in the tag, with a sequence block
    // (0xEC0000) no live client uses.
    const std::size_t idx =
        history().on_invoke(make_op_id(static_cast<NodeId>(chosen.w),
                                      0xEC0000u + seq),
                           OpKind::Write, obj, static_cast<NodeId>(chosen.w),
                           sim().now());
    history().on_response(idx, sim().now(), chosen, Value(std::move(value)));
    recovered_objects_.emplace_back(obj, chosen);
    ++seq;
  }
}

ServerL1& LdsCluster::l1(std::size_t j) {
  ServerL1* s = l1_.at(j).get();
  LDS_REQUIRE(s != nullptr, "LdsCluster::l1: server is placed remotely");
  return *s;
}

ServerL2& LdsCluster::l2(std::size_t i) {
  ServerL2* s = l2_.at(i).get();
  LDS_REQUIRE(s != nullptr, "LdsCluster::l2: server is placed remotely");
  return *s;
}

void LdsCluster::release_l1(std::size_t j) { l1_.at(j).reset(); }

void LdsCluster::release_l2(std::size_t i) { l2_.at(i).reset(); }

ServerL1& LdsCluster::adopt_l1(std::size_t j) {
  LDS_REQUIRE(l1_.at(j) == nullptr, "adopt_l1: server already local");
  l1_.at(j) = std::make_unique<ServerL1>(net(), ctx_, j);
  return *l1_.at(j);
}

ServerL2& LdsCluster::adopt_l2(std::size_t i) {
  LDS_REQUIRE(l2_.at(i) == nullptr, "adopt_l2: server already local");
  // RAM-only, like every remote-placement slot (construction enforces it):
  // the follow-up repair_object round regenerates state from quorum peers.
  l2_.at(i) = std::make_unique<ServerL2>(net(), ctx_, i, nullptr);
  return *l2_.at(i);
}

ServerL2& LdsCluster::replace_l2(std::size_t i) {
  // Id-reuse protocol: Network::attach asserts that an id is attached at
  // most once, so the crashed instance must detach (destruct) before the
  // replacement constructs under the same id.  Keeping the two steps inside
  // this helper is what makes the assert sound for every repair path.
  LDS_REQUIRE(l2_.at(i) != nullptr,
              "replace_l2: server is placed remotely (use adopt_l2)");
  l2_.at(i).reset();
  std::unique_ptr<storage::Backend> backend;
  if (!opt_.data_dir.empty()) {
    // A replacement models a NEW disk: wipe the old one (possibly poisoned
    // or stale) and start from an empty backend.  The subsequent
    // repair_object() round re-persists the regenerated element through the
    // ordinary store path, so durability survives reconfiguration churn.
    auto st = storage::wipe_dir(l2_dir(i));
    LDS_REQUIRE(st.ok(), ("replace_l2: wipe " + l2_dir(i) + ": " +
                          st.message())
                             .c_str());
    backend = open_l2_backend(i);
  }
  l2_.at(i) = std::make_unique<ServerL2>(net(), ctx_, i, std::move(backend));
  return *l2_.at(i);
}

void LdsCluster::write(std::size_t writer, ObjectId obj, Value value,
                       WriteCallback cb) {
  writers_.at(writer)->write(obj, std::move(value), std::move(cb));
}

void LdsCluster::read(std::size_t reader, ObjectId obj, ReadCallback cb) {
  readers_.at(reader)->read(obj, std::move(cb));
}

void LdsCluster::crash(std::size_t layer, std::size_t index) {
  LDS_REQUIRE(layer == kL1 || layer == kL2, "LdsCluster::crash: bad layer");
  layer == kL1 ? crash_l1(index) : crash_l2(index);
}

void LdsCluster::write_at(net::SimTime t, std::size_t writer_idx, ObjectId obj,
                          Value value, Writer::Callback cb) {
  Writer* w = writers_.at(writer_idx).get();
  sim().at(t, [w, obj, value = std::move(value), cb = std::move(cb)]() mutable {
    w->write(obj, std::move(value), std::move(cb));
  });
}

void LdsCluster::read_at(net::SimTime t, std::size_t reader_idx, ObjectId obj,
                         Reader::Callback cb) {
  Reader* r = readers_.at(reader_idx).get();
  sim().at(t, [r, obj, cb = std::move(cb)]() mutable {
    r->read(obj, std::move(cb));
  });
}

}  // namespace lds::core
