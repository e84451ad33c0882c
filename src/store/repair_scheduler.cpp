#include "store/repair_scheduler.h"

#include <algorithm>

#include "common/assert.h"

namespace lds::store {

void RepairScheduler::attach_shard(std::size_t shard,
                                   core::LdsCluster& cluster,
                                   std::function<bool(std::size_t)> may_replace,
                                   std::function<void(std::size_t)> on_replaced,
                                   std::function<void(std::size_t)> on_repaired,
                                   std::size_t lane) {
  LDS_REQUIRE(!managers_.contains(shard),
              "RepairScheduler: shard already attached");
  core::RepairManager::Options mopt;
  mopt.heartbeat_period = opt_.heartbeat_period;
  mopt.suspect_after = opt_.suspect_after;
  mopt.acquire_slot = [this, shard, lane,
                       may_replace = std::move(may_replace)](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_by_lane_[lane] >= opt_.max_concurrent) return false;
    if (may_replace && !may_replace(i)) return false;
    ++in_flight_by_lane_[lane];
    ++in_flight_total_;
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_total_);
    metrics_.counter("repairs_started", shard).inc();
    return true;
  };
  mopt.release_slot = [this, lane](std::size_t) {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_by_lane_[lane];
    --in_flight_total_;
  };
  mopt.on_server_repaired = [this, shard,
                             on_repaired =
                                 std::move(on_repaired)](std::size_t i) {
    metrics_.counter("repairs_completed", shard).inc();
    if (on_repaired) on_repaired(i);
  };
  auto manager = std::make_unique<core::RepairManager>(
      cluster.net(), cluster.ctx_ptr(), mopt,
      [&cluster, on_replaced = std::move(on_replaced)](std::size_t i) {
        cluster.replace_l2(i);
        if (on_replaced) on_replaced(i);
      });
  managers_.emplace(shard, std::move(manager));
}

void RepairScheduler::track_object(std::size_t shard, ObjectId obj) {
  managers_.at(shard)->track_object(obj);
}

void RepairScheduler::start() {
  for (auto& [shard, m] : managers_) {
    core::RepairManager* mgr = m.get();
    if (post_) {
      post_(shard, [mgr] { mgr->start(); });
    } else {
      mgr->start();
    }
  }
}

void RepairScheduler::stop() {
  for (auto& [shard, m] : managers_) {
    core::RepairManager* mgr = m.get();
    if (post_) {
      post_(shard, [mgr] { mgr->stop(); });
    } else {
      mgr->stop();
    }
  }
}

std::size_t RepairScheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_total_;
}

std::size_t RepairScheduler::peak_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_in_flight_;
}

std::size_t RepairScheduler::object_rounds_started() const {
  std::size_t n = 0;
  for (const auto& [shard, m] : managers_) n += m->repairs_started();
  return n;
}

std::size_t RepairScheduler::suspected() const {
  std::size_t n = 0;
  for (const auto& [shard, m] : managers_) n += m->suspected_count();
  return n;
}

}  // namespace lds::store
