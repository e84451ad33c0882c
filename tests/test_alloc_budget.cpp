// Heap allocations per store call on the in-process LDS data path.
//
// A replaced global operator new counts every allocation.  The deployment is
// the benchmark's coded_read shape on the deterministic engine: default
// geometry (n1 = 6, f1 = 1, n2 = 8, f2 = 2, PM-MBR), 4 shards, 16 KiB
// values, background repair off.  Every key is written and quiesced before
// counting, so each get regenerates its value from L2 (helper data at the
// L2s, repair at each L1, decode at the reader), and each put is counted
// until its offload to L2 has drained.  Under the SimEngine the message
// schedule is a pure function of the seed, so the counts repeat exactly and
// the budgets below are hard gates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "store/client.h"
#include "store/store_service.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lds::store {
namespace {

constexpr std::size_t kValueBytes = 16 * 1024;
constexpr std::size_t kKeys = 64;
// Budgets per call.  Before deliveries became typed simulator events and
// fan-outs and get-path payloads became shared, this path made 656
// allocations per get and 535 per put; with a hash set of quorum responders
// per client (one node per reply) it made 237 and 191, and with six per-tag
// trees per object on every L1 server, 222 and 181.  With one tag table per
// object it makes 222 and 145.
constexpr double kGetBudget = 250;
constexpr double kPutBudget = 165;

class AllocBudget : public ::testing::Test {
 protected:
  AllocBudget() : svc_(options()), client_(svc_) {
    Rng rng(42);
    for (std::size_t i = 0; i < kKeys; ++i) {
      keys_.push_back("key-" + std::to_string(i));
      values_.emplace_back(rng.bytes(kValueBytes));
    }
    // Prefill, then warm every lazily grown structure (map caches, encode
    // cache, simulator slots, per-object server state) with one more round
    // of each call.
    for (std::size_t i = 0; i < kKeys; ++i) put(i, i);
    for (std::size_t i = 0; i < kKeys; ++i) get(i);
    for (std::size_t i = 0; i < kKeys; ++i) put(i, kKeys - 1 - i);
  }

  static StoreOptions options() {
    StoreOptions opt;
    opt.shards = 4;
    opt.engine_mode = net::EngineMode::Deterministic;
    opt.enable_repair = false;
    return opt;
  }

  void put(std::size_t key, std::size_t value) {
    const auto r = client_.put_sync(keys_[key], values_[value]);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    svc_.quiesce();
  }

  void get(std::size_t key) {
    const auto r = client_.get_sync(keys_[key]);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    svc_.quiesce();
  }

  /// Mean allocations per call of `call` over every key.
  template <typename Call>
  double per_call(Call call) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kKeys; ++i) call(i);
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    return static_cast<double>(after - before) / kKeys;
  }

  StoreService svc_;
  Client client_;
  std::vector<std::string> keys_;
  std::vector<Value> values_;
};

TEST_F(AllocBudget, GetRegeneratingFromL2) {
  const double allocs = per_call([this](std::size_t i) { get(i); });
  std::printf("allocations per get: %.1f (budget %.0f)\n", allocs, kGetBudget);
  EXPECT_LE(allocs, kGetBudget);
}

TEST_F(AllocBudget, PutIncludingOffload) {
  const double allocs = per_call([this](std::size_t i) { put(i, i); });
  std::printf("allocations per put: %.1f (budget %.0f)\n", allocs, kPutBudget);
  EXPECT_LE(allocs, kPutBudget);
}

}  // namespace
}  // namespace lds::store
