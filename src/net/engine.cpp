#include "net/engine.h"

#include <chrono>

#include "common/assert.h"

namespace lds::net {

const char* engine_mode_name(EngineMode m) {
  switch (m) {
    case EngineMode::Deterministic: return "sim";
    case EngineMode::Parallel: return "parallel";
  }
  return "?";
}

std::optional<EngineMode> parse_engine_mode(std::string_view name) {
  if (name == "sim" || name == "deterministic") {
    return EngineMode::Deterministic;
  }
  if (name == "parallel") return EngineMode::Parallel;
  return std::nullopt;
}

namespace {
// Lane context of the calling thread (set only on ParallelEngine workers);
// lets post() run same-lane tasks inline and after_here() find its clock.
thread_local ParallelEngine* tls_engine = nullptr;
thread_local std::size_t tls_lane = 0;
}  // namespace

// ---- SimEngine --------------------------------------------------------------

SimEngine::SimEngine(std::uint64_t seed) : seed_(seed) {}

Simulator& SimEngine::lane_sim(std::size_t lane) {
  LDS_REQUIRE(lane == 0, "SimEngine: lane out of range");
  return sim_;
}

std::uint64_t SimEngine::lane_seed(std::size_t lane) const {
  LDS_REQUIRE(lane == 0, "SimEngine: lane out of range");
  return mix_seed(seed_, 0);
}

void SimEngine::post(std::size_t lane, Task fn) {
  LDS_REQUIRE(lane == 0, "SimEngine: lane out of range");
  fn();
}

void SimEngine::after_here(SimTime delay, Task fn) {
  sim_.after(delay, std::move(fn));
}

bool SimEngine::drain_until(const std::function<bool()>& settled) {
  while (!settled() && sim_.step()) {
  }
  return settled();
}

// ---- ParallelEngine ---------------------------------------------------------

ParallelEngine::ParallelEngine() : ParallelEngine(Options()) {}

ParallelEngine::ParallelEngine(Options opt) : opt_(opt) {
  if (opt_.lanes == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    opt_.lanes = hw == 0 ? 1 : hw;
  }
  LDS_REQUIRE(opt_.chunk_events >= 1, "ParallelEngine: chunk_events >= 1");
  LDS_REQUIRE(opt_.background_horizon > 0,
              "ParallelEngine: background_horizon > 0");
  for (std::size_t i = 0; i < opt_.lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

ParallelEngine::~ParallelEngine() { stop(); }

Simulator& ParallelEngine::lane_sim(std::size_t lane) {
  return lanes_.at(lane)->sim;
}

std::uint64_t ParallelEngine::lane_seed(std::size_t lane) const {
  LDS_REQUIRE(lane < lanes_.size(), "ParallelEngine: lane out of range");
  return mix_seed(opt_.seed, lane);
}

void ParallelEngine::post(std::size_t lane, Task fn) {
  if (tls_engine == this && tls_lane == lane) {
    fn();  // already on the target lane: no queue hop, no self-deadlock
    return;
  }
  Lane& ln = *lanes_.at(lane);
  posts_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(ln.mu);
    ln.inbox.push_back(std::move(fn));
  }
  ln.cv.notify_one();
}

std::optional<std::size_t> ParallelEngine::current_lane() const {
  if (tls_engine == this) return tls_lane;
  return std::nullopt;
}

void ParallelEngine::after_here(SimTime delay, Task fn) {
  LDS_REQUIRE(tls_engine == this,
              "ParallelEngine::after_here: not on a worker lane");
  lanes_[tls_lane]->sim.after(delay, std::move(fn));
}

void ParallelEngine::hold(std::size_t lane) {
  lanes_.at(lane)->hold.fetch_add(1, std::memory_order_acq_rel);
}

void ParallelEngine::release(std::size_t lane) {
  lanes_.at(lane)->hold.fetch_sub(1, std::memory_order_acq_rel);
}

void ParallelEngine::start() {
  if (started_) return;
  started_ = true;
  stop_.store(false);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

void ParallelEngine::stop() {
  if (!started_) return;
  stop_.store(true);
  for (auto& ln : lanes_) ln->cv.notify_all();
  for (auto& ln : lanes_) {
    if (ln->worker.joinable()) ln->worker.join();
  }
  started_ = false;
}

void ParallelEngine::worker_loop(std::size_t lane) {
  tls_engine = this;
  tls_lane = lane;
  Lane& ln = *lanes_[lane];
  std::vector<Task> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(ln.mu);
      while (ln.inbox.empty() && !stop_.load(std::memory_order_acquire) &&
             ln.sim.idle()) {
        ln.sim_idle.store(true, std::memory_order_release);
        ln.busy.store(false, std::memory_order_release);
        ln.cv.wait(lk);
      }
      if (stop_.load(std::memory_order_acquire) && ln.inbox.empty()) {
        ln.sim_idle.store(ln.sim.idle(), std::memory_order_release);
        ln.busy.store(false, std::memory_order_release);
        break;
      }
      ln.busy.store(true, std::memory_order_release);
      batch.swap(ln.inbox);
    }
    for (auto& fn : batch) fn();
    batch.clear();

    if (ln.hold.load(std::memory_order_acquire) > 0) {
      // Foreground work in flight: free-run a bounded quantum, then loop to
      // re-check the inbox (cross-lane posts, stop).
      ln.sim.run(opt_.chunk_events);
    } else if (!ln.sim.idle()) {
      // Background-only chains (heartbeat loops reschedule themselves
      // forever): advance a bounded virtual horizon, then pause, so repair
      // detection keeps progressing without virtual time galloping.
      ln.sim.run_until(ln.sim.now() + opt_.background_horizon);
      ln.events.store(ln.sim.events_executed(), std::memory_order_release);
      std::unique_lock<std::mutex> lk(ln.mu);
      if (ln.inbox.empty() && !stop_.load(std::memory_order_acquire) &&
          ln.hold.load(std::memory_order_acquire) <= 0) {
        ln.sim_idle.store(ln.sim.idle(), std::memory_order_release);
        ln.busy.store(false, std::memory_order_release);
        ln.cv.wait_for(lk, std::chrono::milliseconds(1));
      }
    }
    ln.events.store(ln.sim.events_executed(), std::memory_order_release);
  }
}

bool ParallelEngine::quiescent_pass() {
  for (auto& ln : lanes_) {
    std::lock_guard<std::mutex> lk(ln->mu);
    // sim_idle (not sim.idle()): the lane's Simulator may only be touched
    // by its worker; the worker publishes idleness at every busy=false
    // transition, and re-raises busy under mu before touching sim again.
    if (ln->busy.load(std::memory_order_acquire) || !ln->inbox.empty() ||
        !ln->sim_idle.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

bool ParallelEngine::quiescent_stable() {
  // A lane observed idle can be re-awakened by a cross-lane post from a lane
  // inspected later in the same pass; two passes around a stable post count
  // close that window (posts only originate from lane execution, and no lane
  // was executing during either pass).
  const std::uint64_t before = posts_.load(std::memory_order_acquire);
  if (!quiescent_pass()) return false;
  if (posts_.load(std::memory_order_acquire) != before) return false;
  return quiescent_pass();
}

void ParallelEngine::drain() {
  if (!started_) {
    // Single-threaded (construction phase or after stop()): run inboxes and
    // queues to empty inline, lane by lane, until globally stable.
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane& ln = *lanes_[i];
        std::vector<Task> batch;
        {
          std::lock_guard<std::mutex> lk(ln.mu);
          batch.swap(ln.inbox);
        }
        if (!batch.empty() || !ln.sim.idle()) progress = true;
        tls_engine = this;  // lane context for tasks that call after_here
        tls_lane = i;
        for (auto& fn : batch) fn();
        ln.sim.run();
        ln.events.store(ln.sim.events_executed(), std::memory_order_release);
        tls_engine = nullptr;
      }
    }
    return;
  }
  while (!quiescent_stable()) {
    for (auto& ln : lanes_) ln->cv.notify_one();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool ParallelEngine::drain_until(const std::function<bool()>& settled) {
  LDS_REQUIRE(started_, "ParallelEngine::drain_until: engine not started");
  // Safety valve mirroring StoreService::quiesce's event guard: a healthy
  // deployment settles in well under this much wall time.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!settled()) {
    if (quiescent_stable() && !settled()) return false;  // stalled
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

std::uint64_t ParallelEngine::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& ln : lanes_) {
    n += ln->events.load(std::memory_order_acquire);
  }
  return n;
}

}  // namespace lds::net
