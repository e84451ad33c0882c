#include "workload.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/rng.h"
#include "lds/cluster.h"

namespace perfbench {

using lds::Status;
using lds::store::GetResult;
using lds::store::PutResult;

const std::vector<WorkloadSpec>& workloads() {
  // One lane and one closed-loop client: exactly one call is in flight, so
  // the process CPU clock read at the call and in its callback measures that
  // call alone, whichever threads served it.  The shared VM the benchmark was
  // built on steals its vCPUs and wakes them late, so wall-clock figures of
  // the same code moved 20-60% from run to run; CPU time does not count
  // steal or time spent runnable but waiting.
  static const std::vector<WorkloadSpec> all = {
      // name, value size, keys, read fraction, durable, remote, lanes,
      // clients, warm-up calls
      {"coded_read", 16 * 1024, 512, 0.9, false, false, 1, 1, 64},
      {"small_remote", 256, 4096, 0.5, false, true, 1, 1, 1024},
  };
  return all;
}

const WorkloadSpec& durable_write_spec() {
  static const WorkloadSpec spec = {"durable_write", 1024, 1024, 0.1,
                                    true, false, 4, 16, 0};
  return spec;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  lds::Rng rng(lds::mix_seed(seed, 0x1e9));
  // Fixed key names on a ring the seed does not touch (store_options): every
  // seed sees the same placement of keys, so seeds vary the traffic, not
  // the shard balance.
  in.keys.reserve(spec.keys);
  for (std::size_t i = 0; i < spec.keys; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key-%06zu", i);
    in.keys.emplace_back(buf);
  }
  // ~2 MiB of distinct values (at least 64): enough that the durable
  // read-back would notice a wrong value, cheap to generate.
  const std::size_t pool =
      std::max<std::size_t>(64, (2u << 20) / spec.value_size);
  in.pool.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    in.pool.emplace_back(rng.bytes(spec.value_size));
  }
  const auto draw_value = [&] {
    return static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool) - 1));
  };
  in.prefill.reserve(spec.keys);
  for (std::size_t i = 0; i < spec.keys; ++i) in.prefill.push_back(draw_value());
  // Streams long enough never to wrap within a run (they cycle if they do).
  constexpr std::size_t kStreamOps = 1 << 18;
  in.streams.resize(spec.clients);
  for (auto& stream : in.streams) {
    stream.reserve(kStreamOps);
    for (std::size_t i = 0; i < kStreamOps; ++i) {
      Inputs::Op op;
      op.key = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(spec.keys) - 1));
      op.get = rng.bernoulli(spec.read_fraction);
      op.value = op.get ? 0 : draw_value();
      stream.push_back(op);
    }
  }
  return in;
}

// ---- windows -------------------------------------------------------------------

std::size_t Window::failed() const {
  return static_cast<std::size_t>(std::count_if(
      calls.begin(), calls.end(), [](const CallRecord& c) { return !c.ok; }));
}

double Window::ops_per_s() const {
  return elapsed_s > 0 ? static_cast<double>(calls.size()) / elapsed_s : 0;
}

std::vector<double> Window::latencies_ms(bool gets) const {
  std::vector<double> out;
  for (const auto& c : calls) {
    if (c.get == gets) out.push_back((c.end - c.start) * 1e3);
  }
  return out;
}

std::vector<double> Window::cpu_ms(bool gets) const {
  std::vector<double> out;
  for (const auto& c : calls) {
    if (c.get == gets) out.push_back(c.cpu * 1e3);
  }
  return out;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// ---- deployment ------------------------------------------------------------------

lds::store::StoreOptions store_options(const WorkloadSpec& spec,
                                       const std::string& data_dir) {
  // Default geometry, batching and seed.  The seed places the shards on the
  // hash ring, so the benchmark's --seed must not reach it: every run keeps
  // the same placement of keys on shards.  Background repair is off: its
  // heartbeat loops are the only work not caused by a call, and an idle lane
  // advances them at a wall-clock pace, so their share of each call's CPU
  // would follow the host's speed.  The runs inject no crashes, so repair
  // would never act.
  lds::store::StoreOptions opt;
  opt.shards = kShards;
  opt.engine_mode = lds::net::EngineMode::Parallel;
  opt.engine_threads = spec.lanes;
  opt.enable_repair = false;
  if (spec.durable) {
    opt.data_dir = data_dir;
    opt.durability.sync = lds::storage::SyncPolicy::Always;
    opt.durability.checkpoint_bytes = kCheckpointBytes;
  }
  return opt;
}

Deployment::Deployment(const WorkloadSpec& spec, const Inputs& in,
                       std::string data_dir)
    : spec_(spec), in_(in), opt_(store_options(spec, data_dir)) {
  chains_.resize(spec.clients);
  for (std::size_t i = 0; i < spec.clients; ++i) chains_[i].index = i;
}

Deployment::~Deployment() { shutdown(); }

void Deployment::shutdown() {
  client_.reset();
  if (svc_ != nullptr) svc_->stop_listening();
  svc_.reset();
}

Status Deployment::start() {
  svc_ = std::make_unique<lds::store::StoreService>(opt_);
  if (spec_.remote) {
    lds::store::StoreService::ListenOptions lo;
    lo.net_threads = 1;
    if (auto st = svc_->listen(0, lo); !st.ok()) return st;
    lds::store::Client::ConnectOptions copts;
    copts.connections = 1;
    Status st;
    client_ = lds::store::Client::connect("127.0.0.1", svc_->listen_port(),
                                          &st, copts);
    if (client_ == nullptr) return st;
  } else {
    client_ = std::make_unique<lds::store::Client>(*svc_);
  }
  for (std::size_t at = 0; at < in_.keys.size(); at += kPrefillChunk) {
    const std::size_t end = std::min(at + kPrefillChunk, in_.keys.size());
    std::vector<lds::store::KeyValue> entries;
    for (std::size_t k = at; k < end; ++k) {
      entries.push_back({in_.keys[k], in_.pool[in_.prefill[k]]});
    }
    const double t0 = now_s();
    const auto results = client_->multi_put_sync(std::move(entries));
    const double t1 = now_s();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const PutResult& r = results[i];
      if (!r.status.ok()) {
        return Status::Unavailable("prefill of key " + in_.keys[at + i] +
                                   " failed: " + r.status.to_string());
      }
      CallRecord rec;
      rec.start = t0;
      rec.end = t1;
      rec.key = static_cast<std::uint32_t>(at + i);
      rec.value = in_.prefill[at + i];
      rec.ok = true;
      rec.coalesced = r.coalesced;
      rec.tag = r.tag;
      prefill_.push_back(rec);
    }
  }
  svc_->quiesce();
  return Status::Ok();
}

Status Deployment::checkpoint_all(std::size_t* backends) {
  for (std::size_t s = 0; s < svc_->num_shards(); ++s) {
    lds::core::LdsCluster& c = *svc_->shard_lds(s);
    for (std::size_t i = 0; i < c.ctx().cfg.n2; ++i) {
      auto* be = c.l2(i).storage_backend();
      if (be == nullptr) continue;
      if (auto st = be->checkpoint_now(); !st.ok()) return st;
      ++*backends;
    }
  }
  return Status::Ok();
}

void Deployment::issue(Chain* c) {
  const auto& stream = in_.streams[c->index];
  const Inputs::Op op = stream[c->cursor++ % stream.size()];
  const std::string& key = in_.keys[op.key];
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  if (op.get) {
    client_->async_get(key, [this, c, start, cpu0, op](const GetResult& r) {
      CallRecord rec;
      rec.end = now_s();
      rec.cpu = process_cpu_s() - cpu0;
      rec.start = start;
      rec.key = op.key;
      rec.get = true;
      rec.ok = r.status.ok();
      rec.tag = r.tag;
      rec.got = r.value;
      complete(c, std::move(rec));
    });
  } else {
    client_->async_put(
        key, in_.pool[op.value],
        [this, c, start, cpu0, op](const PutResult& r) {
          CallRecord rec;
          rec.end = now_s();
          rec.cpu = process_cpu_s() - cpu0;
          rec.start = start;
          rec.key = op.key;
          rec.value = op.value;
          rec.ok = r.status.ok();
          rec.coalesced = r.coalesced;
          rec.tag = r.tag;
          complete(c, std::move(rec));
        });
  }
}

void Deployment::complete(Chain* c, CallRecord rec) {
  const double end = rec.end;
  c->calls.push_back(std::move(rec));
  if (end < deadline_.load(std::memory_order_acquire) &&
      c->calls.size() < max_ops_) {
    issue(c);
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (--active_ == 0) cv_.notify_all();
}

Window Deployment::run(double seconds, std::size_t max_ops_per_client) {
  for (auto& c : chains_) {
    c.calls.clear();
    c.calls.reserve(1 << 15);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    active_ = chains_.size();
  }
  Window w;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  max_ops_ = max_ops_per_client;
  deadline_.store(t0 + seconds, std::memory_order_release);
  for (auto& c : chains_) issue(&c);
  {
    // The driving thread only waits.
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return active_ == 0; });
  }
  w.cpu_s = process_cpu_s() - cpu0;
  double last = t0;
  for (auto& c : chains_) {
    for (const auto& rec : c.calls) last = std::max(last, rec.end);
    w.calls.insert(w.calls.end(), c.calls.begin(), c.calls.end());
    c.calls.clear();
  }
  w.elapsed_s = last - t0;
  history_calls_.insert(history_calls_.end(), w.calls.begin(), w.calls.end());
  svc_->quiesce();
  return w;
}

lds::core::History Deployment::client_history() const {
  lds::core::History h;
  std::uint32_t seq = 0;
  const auto add = [&](const CallRecord& c, lds::NodeId who) {
    if (!c.ok || c.coalesced) return;
    const auto kind = c.get ? lds::core::OpKind::Read : lds::core::OpKind::Write;
    const std::size_t idx = h.on_invoke(lds::make_op_id(who, ++seq), kind,
                                        c.key, who, c.start);
    h.on_response(idx, c.end, c.tag, c.get ? c.got : in_.pool[c.value]);
  };
  for (const auto& c : prefill_) add(c, 1);
  for (const auto& c : history_calls_) add(c, 2);
  return h;
}

std::vector<Deployment::Acked> Deployment::last_acked() const {
  std::vector<Acked> last(in_.keys.size());
  const auto fold = [&](const CallRecord& c) {
    if (c.get || !c.ok || c.coalesced) return;
    if (last[c.key].tag < c.tag) last[c.key] = Acked{c.tag, c.value};
  };
  for (const auto& c : prefill_) fold(c);
  for (const auto& c : history_calls_) fold(c);
  return last;
}

}  // namespace perfbench
