// Multi-object storage profile (paper, Section V-A.1) on the production
// surface: N objects behind the sharded StoreService, driven through the
// unified store::Client (multi_put waves, multi_get verification), while the
// per-shard LDS storage meters show the Theta(N) permanent vs transient
// temporary split of Lemma V.5 / Fig. 6 at laptop scale.
//
//   build/examples/multi_object_store [--engine sim|parallel]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lds/analysis.h"
#include "store/client.h"

int main(int argc, char** argv) {
  using namespace lds;

  net::EngineMode engine = net::EngineMode::Deterministic;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      const auto m = net::parse_engine_mode(argv[++i]);
      if (!m) {
        std::fprintf(stderr, "unknown engine '%s'\n", argv[i]);
        return 2;
      }
      engine = *m;
    }
  }

  store::StoreOptions sopt;
  sopt.shards = 4;
  sopt.writers_per_shard = 4;
  sopt.readers_per_shard = 2;
  sopt.backend.n1 = 10;
  sopt.backend.f1 = 2;  // k = 6
  sopt.backend.n2 = 10;
  sopt.backend.f2 = 2;  // d = 6
  sopt.tau2 = 5.0;
  sopt.engine_mode = engine;
  sopt.seed = 7;
  store::StoreService service(sopt);
  store::Client client(service);
  Rng rng(7);

  const std::size_t kObjects = 40;
  const std::size_t value_size = 600;

  std::printf("multi-object store: N=%zu objects over %zu shards "
              "(n1=%zu k=%zu per shard), engine=%s\n\n",
              kObjects, sopt.shards, sopt.backend.n1,
              sopt.backend.n1 - 2 * sopt.backend.f1,
              net::engine_mode_name(engine));

  // Meters are lane-local state, so read each shard's on its own lane (a
  // plain cross-thread read would race the lane workers under --engine
  // parallel; in sim mode the posts run inline and this is exact).
  auto l1_l2_bytes = [&](std::uint64_t* l1, std::uint64_t* l2) {
    std::atomic<std::uint64_t> a1{0}, a2{0};
    std::atomic<std::size_t> pending{0};
    for (std::size_t s = 0; s < service.num_shards(); ++s) {
      if (auto* lds = service.shard_lds(s)) {
        pending.fetch_add(1, std::memory_order_acq_rel);
        service.engine().post(service.shard_lane(s), [&, lds] {
          a1.fetch_add(lds->meter().l1_bytes(), std::memory_order_acq_rel);
          a2.fetch_add(lds->meter().l2_bytes(), std::memory_order_acq_rel);
          pending.fetch_sub(1, std::memory_order_acq_rel);
        });
      }
    }
    service.engine().drain_until(
        [&] { return pending.load(std::memory_order_acquire) == 0; });
    *l1 = a1.load(std::memory_order_acquire);
    *l2 = a2.load(std::memory_order_acquire);
  };

  // Write waves: each wave multi_puts every object, then quiesces; the edge
  // (L1) holds only in-flight values, the back-end (L2) all N permanently.
  std::printf("%6s %16s %16s\n", "wave", "L1 bytes", "L2 bytes");
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<store::KeyValue> entries;
    for (std::size_t obj = 0; obj < kObjects; ++obj) {
      entries.push_back(
          {"obj-" + std::to_string(obj), rng.bytes(value_size)});
    }
    const auto results = client.multi_put_sync(std::move(entries));
    for (const auto& r : results) {
      if (!r.status.ok()) {
        std::printf("multi_put failed: %s\n", r.status.to_string().c_str());
        return 1;
      }
    }
    std::uint64_t l1 = 0, l2 = 0;
    l1_l2_bytes(&l1, &l2);
    std::printf("%6d %16llu %16llu\n", wave,
                static_cast<unsigned long long>(l1),
                static_cast<unsigned long long>(l2));
  }
  service.quiesce();

  // After quiescence the temporary layer drains (Lemma V.1); verify every
  // object is durable and versioned through one scatter-gather read.
  std::vector<std::string> keys;
  for (std::size_t obj = 0; obj < kObjects; ++obj) {
    keys.push_back("obj-" + std::to_string(obj));
  }
  const auto reads = client.multi_get_sync(keys);
  std::size_t durable = 0;
  for (const auto& r : reads) {
    if (r.status.ok() && r.value.size() == value_size && r.version.known()) {
      ++durable;
    }
  }

  std::uint64_t l1 = 0, l2 = 0;
  l1_l2_bytes(&l1, &l2);
  std::printf("\nafter settle:\n");
  std::printf("  L1 temporary bytes : %llu (drains to 0 - Lemma V.1)\n",
              static_cast<unsigned long long>(l1));
  std::printf("  L2 permanent bytes : %llu across %zu shards\n",
              static_cast<unsigned long long>(l2), service.num_shards());
  std::printf("  durable objects    : %zu / %zu\n", durable, kObjects);
  const std::size_t k = sopt.backend.n1 - 2 * sopt.backend.f1;
  const std::size_t d = sopt.backend.n2 - 2 * sopt.backend.f2;
  std::printf("  Lemma V.3 per-object permanent cost: %.3f x |v| "
              "(replication would cost %zu x |v|)\n",
              core::analysis::l2_storage_per_object(sopt.backend.n2, k, d),
              sopt.backend.n2);
  std::printf("  batches=%llu coalesced=%llu\n",
              static_cast<unsigned long long>(
                  service.metrics().counter_total("batches")),
              static_cast<unsigned long long>(
                  service.metrics().counter_total("puts_coalesced")));

  // Per-shard histories must be live and atomic (regular reads unused here).
  bool clean = durable == kObjects && l1 == 0;
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    const auto& h = service.shard_history(s);
    const auto verdict = h.check_atomicity(Bytes{});
    if (!h.all_complete() || !verdict.ok) {
      std::printf("shard %zu violation: %s\n", s, verdict.violation.c_str());
      clean = false;
    }
  }
  std::printf("atomicity check: %s\n", clean ? "OK" : "VIOLATION");
  return clean ? 0 : 1;
}
