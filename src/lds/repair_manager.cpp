#include "lds/repair_manager.h"

namespace lds::core {

namespace {
// Node ids are per network, so every shard's manager can share one.
constexpr NodeId kManagerId = 40000;
constexpr double kBudgetRetry = 2.0;  // re-ask interval while the gate refuses
}  // namespace

RepairManager::RepairManager(net::Network& net,
                             std::shared_ptr<const LdsContext> ctx,
                             Options opt, ReplaceFn replace)
    : Node(net, kManagerId, Role::Other),
      ctx_(std::move(ctx)),
      opt_(opt),
      replace_(std::move(replace)) {
  LDS_REQUIRE(opt_.heartbeat_period > 0 && opt_.suspect_after > 0,
              "RepairManager: timings must be positive");
  LDS_REQUIRE(replace_ != nullptr, "RepairManager: null replace hook");
}

void RepairManager::start() {
  if (running_) return;
  running_ = true;
  const net::SimTime now = net_.sim().now();
  for (std::size_t i = 0; i < ctx_->l2_ids.size(); ++i) last_seen_[i] = now;
  tick();
}

void RepairManager::tick() {
  if (!running_ || crashed()) return;
  const net::SimTime now = net_.sim().now();

  // Suspect servers that have been silent too long.
  for (std::size_t i = 0; i < ctx_->l2_ids.size(); ++i) {
    if (suspected_.contains(i)) continue;
    if (now - last_seen_[i] > opt_.suspect_after) suspect(i);
  }

  // Ping everyone (crashed destinations silently drop).
  ++seq_;
  for (std::size_t i = 0; i < ctx_->l2_ids.size(); ++i) {
    if (suspected_.contains(i)) continue;
    send(ctx_->l2_ids[i], std::make_shared<HeartbeatPing>(seq_));
  }

  net_.sim().after(opt_.heartbeat_period, [this] { tick(); });
}

void RepairManager::suspect(std::size_t l2_index) {
  suspected_.insert(l2_index);
  suspected_size_.store(suspected_.size(), std::memory_order_release);
  begin_repair(l2_index);
}

void RepairManager::begin_repair(std::size_t l2_index) {
  // Deliberately no running_ check: a repair that was already promised
  // (the server is suspected and excluded from heartbeats) must finish even
  // across a stop()/start() cycle, or the server would stay suspected with
  // nobody left to rebuild it.
  if (crashed()) return;
  if (opt_.acquire_slot && !opt_.acquire_slot(l2_index)) {
    // Budget exhausted (or the gate vetoed this victim for now): the server
    // stays suspected — excluded from heartbeats — and we re-ask later.
    net_.sim().after(kBudgetRetry,
                     [this, l2_index] { begin_repair(l2_index); });
    return;
  }
  // Ask the environment for a fresh replacement process (exactly once),
  // then regenerate every tracked object on it, highest id first.
  replace_(l2_index);
  regenerate_objects(
      net_, ctx_->l2_ids[l2_index],
      std::vector<ObjectId>(objects_.rbegin(), objects_.rend()),
      [this, l2_index](RegenTally tally) {
        repairs_completed_ += tally.repaired;
        repairs_failed_ += tally.retried;
        // Replacement fully restored: resume heartbeat coverage.
        suspected_.erase(l2_index);
        suspected_size_.store(suspected_.size(), std::memory_order_release);
        last_seen_[l2_index] = net_.sim().now();
        if (opt_.release_slot) opt_.release_slot(l2_index);
        if (opt_.on_server_repaired) opt_.on_server_repaired(l2_index);
      });
}

void RepairManager::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* pong = dynamic_cast<const HeartbeatPong*>(msg.get());
  if (pong == nullptr) return;  // ignore anything else
  for (std::size_t i = 0; i < ctx_->l2_ids.size(); ++i) {
    if (ctx_->l2_ids[i] == from) {
      last_seen_[i] = net_.sim().now();
      return;
    }
  }
}

}  // namespace lds::core
