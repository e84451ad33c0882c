// Internal async plumbing shared by StoreService and store::Client:
//
//   * run_op_sync — the one sync-wait cell behind every *_sync wrapper and
//     the remote client's callback API.  A deterministic engine spins its
//     lane-0 simulator (timers and callbacks fire as events); a Parallel
//     engine, or no engine at all (remote mode), blocks the calling thread
//     until another thread completes the op.  notify happens under the lock
//     so the waiter cannot destroy the cell while the signaling thread still
//     touches it.
//   * scatter_gather — the one gather behind every multi-key op.  Sub-ops
//     settle wherever they complete; the atomic counter makes the last
//     completion fire the callback exactly once.
//
// Not part of the public API; include from store/*.cpp only.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "net/engine.h"

namespace lds::store::detail {

template <typename R, typename Invoke>
R run_op_sync(net::Engine* engine, const char* what, Invoke&& invoke) {
  R out{};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  invoke([&](R r) {
    std::lock_guard<std::mutex> lk(mu);
    out = std::move(r);
    done = true;
    cv.notify_one();
  });
  if (engine != nullptr && engine->deterministic()) {
    net::Simulator& sim = engine->lane_sim(0);
    while (!done && sim.step()) {
    }
    LDS_REQUIRE(done, what);
  } else {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
  }
  return out;
}

template <typename ResultT, typename CallbackT>
struct Gather {
  Gather(std::size_t n, CallbackT c)
      : results(n), remaining(n), cb(std::move(c)) {}

  std::vector<ResultT> results;
  std::atomic<std::size_t> remaining;
  CallbackT cb;
};

/// Start `n` sub-ops through `submit(i, done_i)` and fire `cb` once with
/// their results in index order.  n == 0 fires `cb` at once: a gather that
/// never sees a completion would leave its caller hung.
template <typename ResultT, typename CallbackT, typename Submit>
void scatter_gather(std::size_t n, CallbackT cb, Submit&& submit) {
  if (n == 0) {
    cb(std::vector<ResultT>{});
    return;
  }
  auto g = std::make_shared<Gather<ResultT, CallbackT>>(n, std::move(cb));
  for (std::size_t i = 0; i < n; ++i) {
    submit(i, [g, i](const ResultT& r) {
      g->results[i] = r;
      if (g->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        g->cb(std::move(g->results));
      }
    });
  }
}

}  // namespace lds::store::detail
