// lds_perfbench — one benchmark for the LDS store, end to end and per layer.
//
//   lds_perfbench --workload coded_read --seed 7 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics (untraced); --trace 1 runs the
// same workload once more with spans around every client call and a
// delivery observer on every shard, plus a short durable storage probe,
// and reports the per-layer metrics.  Every run gates its own output
// outside the timed window: both linearizability checkers over every shard
// history and over the client-observed history, and the measured
// communication and storage costs against the paper's formulas
// (lds/analysis.h).  The storage probe is gated the same way and must also
// read back every key's last acknowledged value after a reopen of its
// data_dir.  The last stdout line is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// A detailed record (host fingerprint, config, phases, gates) is written to
// --out-dir.  perfbench/run.py builds this binary and is the entry point.
#include <sched.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gf/gf256.h"
#include "harness/stress.h"
#include "lds/analysis.h"
#include "lds/cluster.h"
#include "micro.h"
#include "report.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lds::store::StoreService;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/results";
  std::string source_id = "unknown";
  std::string git_sha = "none";
  bool tiny = false;      ///< self-test scale: few keys, one setup
  bool selftest = false;  ///< run the benchmark's own self-test
};

/// What one run produced.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  MetricSet metrics;
  JsonObject details;
  std::vector<std::string> violations;

  void fail(const std::string& why) {
    correct = false;
    violations.push_back(why);
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
};

// ---- host fingerprint ---------------------------------------------------------

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0x858458f6: return "ramfs";
    case 0xef53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683e: return "btrfs";
    case 0x794c7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2fc12fc1: return "zfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

JsonObject fingerprint(const Args& a) {
  utsname u{};
  uname(&u);
  return JsonObject()
      .str("cpu_model", cpu_model())
      .num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("gf_isa", lds::gf::isa_name(lds::gf::active_isa()))
      .str("kernel", u.release)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("git_sha", a.git_sha)
      .str("source_id", a.source_id)
      .str("data_fs", fs_type(a.work_dir));
}

/// Keeps every thread of the process on one CPU at a time, and moves them
/// all to the next allowed CPU every kPeriodS.
///
/// On one CPU the client, transport and lane threads hand each call to one
/// another without cross-CPU wake-ups, whose cost depends on whether the
/// other vCPUs are idle: unpinned, small_remote's CPU per call moved 15-20%
/// with the load of the CPUs it did not use.  Rotating averages over the
/// CPUs: on a shared VM each vCPU's speed depends on what the host runs on
/// its sibling hyperthread, and one vCPU stayed at roughly 0.6x speed for a
/// whole 20 s window while others did not.
class CpuRotator {
 public:
  static constexpr double kPeriodS = 0.1;

  CpuRotator() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
    if (cpus_.empty()) return;
    move_all(cpus_.back());  // before any other thread exists
    if (cpus_.size() > 1) worker_ = std::thread([this] { loop(); });
  }
  ~CpuRotator() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (std::size_t i = 0;; ++i) {
      if (cv_.wait_for(lk, std::chrono::duration<double>(kPeriodS),
                       [this] { return stop_; })) {
        return;
      }
      move_all(cpus_[i % cpus_.size()]);
    }
  }
  static void move_all(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    std::error_code ec;
    for (fs::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec)) {
      const pid_t tid = std::atoi(it->path().filename().c_str());
      if (tid > 0) sched_setaffinity(tid, sizeof(one), &one);
    }
  }

  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mu_
  std::thread worker_;
};

// ---- correctness gates -------------------------------------------------------

/// Both linearizability checkers over one history.
bool verify_history(const lds::core::History& h, const std::string& who,
                    Outcome* out) {
  bool ok = true;
  if (!h.all_complete()) {
    out->fail(who + ": " + std::to_string(h.incomplete()) +
              " operations never completed");
    ok = false;
  }
  if (const auto r = h.check_atomicity(lds::Bytes{}); !r.ok) {
    out->fail(who + ": atomicity violation: " + r.violation);
    ok = false;
  }
  if (const auto r = lds::harness::verify_read_freshness(h); !r.ok) {
    out->fail(who + ": freshness violation: " + r.violation);
    ok = false;
  }
  return ok;
}

void verify_all_histories(Deployment& dep, Outcome* out) {
  StoreService& svc = dep.service();
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    verify_history(svc.shard_history(s), "shard " + std::to_string(s), out);
  }
  verify_history(dep.client_history(), "client-observed history", out);
}

/// The paper's costs for the default geometry (lds/analysis.h), each plus
/// the striping header and padding of the value size: coded bytes scale by
/// framed/|v|, uncoded value bytes do not.
struct CostTargets {
  double frame = 1;  ///< framed value bytes / value bytes
  double write = 0;
  double read_regen = 0;  ///< every L1 server regenerates
  double read_max = 0;    ///< the paper's delta > 0 bound
  double storage = 0;
};

CostTargets cost_targets(const lds::core::LdsConfig& cfg,
                         const lds::codes::StripedCode& code,
                         std::size_t value_size) {
  namespace an = lds::core::analysis;
  const std::size_t n1 = cfg.n1, n2 = cfg.n2, k = cfg.k(), d = cfg.d();
  CostTargets t;
  t.frame = static_cast<double>(code.element_size(value_size)) /
            (an::mbr_alpha_frac(k, d) * static_cast<double>(value_size));
  const double uncoded = static_cast<double>(n1);
  t.write = uncoded + (an::write_cost(n1, n2, k, d) - uncoded) * t.frame;
  t.read_regen = an::read_cost(n1, n2, k, d, false) * t.frame;
  t.read_max = t.read_regen + (an::read_cost(n1, n2, k, d, true) -
                               an::read_cost(n1, n2, k, d, false));
  t.storage = an::l2_storage_per_object(n2, k, d) * t.frame;
  return t;
}

struct MeasuredCosts {
  double read = 0, write = 0, storage = 0;
  std::size_t reads = 0, writes = 0, regen_reads = 0, cheap_writes = 0;
};

/// Per-operation data bytes from each shard's CostTracker over every op of
/// its history, normalized by the value size; L2 bytes held over live value
/// bytes.  Any operation outside its target fails the run.
MeasuredCosts check_costs(const WorkloadSpec& spec, StoreService& svc,
                          Outcome* out) {
  const auto& ctx = svc.shard_lds(0)->ctx();
  const CostTargets t = cost_targets(ctx.cfg, ctx.code, spec.value_size);
  const auto vs = static_cast<double>(spec.value_size);
  constexpr double kTol = 1e-3;
  MeasuredCosts m;
  double read_sum = 0, write_sum = 0, l2_bytes = 0;
  std::size_t bad_reads = 0, bad_writes = 0;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    lds::core::LdsCluster& c = *svc.shard_lds(s);
    for (const auto& op : c.history().ops()) {
      if (!op.complete) continue;
      const double cost =
          static_cast<double>(c.net().costs().by_op(op.id).data_bytes) / vs;
      if (op.kind == lds::core::OpKind::Write) {
        ++m.writes;
        write_sum += cost;
        // The paper's write cost is a worst case: an L1 server whose
        // offload a newer commit superseded ships fewer elements.
        if (cost > t.write * (1 + kTol)) ++bad_writes;
        if (cost < t.write * (1 - kTol)) ++m.cheap_writes;
      } else {
        ++m.reads;
        read_sum += cost;
        if (std::abs(cost - t.read_regen) <= kTol * t.read_regen) {
          ++m.regen_reads;
        } else if (cost > t.read_max * (1 + kTol)) {
          ++bad_reads;
        }
      }
    }
    l2_bytes += static_cast<double>(c.meter().l2_bytes());
  }
  m.read = m.reads > 0 ? read_sum / static_cast<double>(m.reads) : 0;
  m.write = m.writes > 0 ? write_sum / static_cast<double>(m.writes) : 0;
  m.storage = l2_bytes / (vs * static_cast<double>(spec.keys));
  if (bad_writes > 0) {
    out->fail(std::to_string(bad_writes) + " writes exceeded write cost " +
              json_num(t.write));
  }
  if (std::abs(m.write - t.write) > 0.01 * t.write) {
    out->fail("mean write cost " + json_num(m.write) + " left " +
              json_num(t.write));
  }
  if (bad_reads > 0) {
    out->fail(std::to_string(bad_reads) + " reads exceeded read cost " +
              json_num(t.read_max));
  }
  if (m.reads == 0 || m.writes == 0) out->fail("no reads or writes to cost");
  if (std::abs(m.storage - t.storage) > kTol * t.storage) {
    out->fail("storage cost " + json_num(m.storage) + " left " +
              json_num(t.storage));
  }
  out->details.obj(
      "costs",
      JsonObject()
          .num("frame_ratio", t.frame)
          .num("write_target", t.write)
          .num("read_regen_target", t.read_regen)
          .num("read_max_target", t.read_max)
          .num("storage_target", t.storage)
          .num("write_ops", static_cast<double>(m.writes))
          .num("cheaper_write_ops", static_cast<double>(m.cheap_writes))
          .num("read_ops", static_cast<double>(m.reads))
          .num("regen_read_ops", static_cast<double>(m.regen_reads)));
  return m;
}

/// Reopen a durable store on `data_dir` and read every key back; returns
/// how many keys did not return their last acknowledged value, and the
/// reopen (recovery) time in `*reopen_s`.
std::size_t read_back(const WorkloadSpec& spec, const Inputs& in,
                      const std::string& data_dir,
                      const std::vector<Deployment::Acked>& last,
                      double* reopen_s) {
  const double t0 = now_s();
  StoreService svc(store_options(spec, data_dir));
  *reopen_s = now_s() - t0;
  lds::store::Client client(svc);
  std::size_t mismatched = 0;
  for (std::size_t at = 0; at < in.keys.size(); at += kPrefillChunk) {
    const std::size_t end = std::min(at + kPrefillChunk, in.keys.size());
    std::vector<std::string> keys(in.keys.begin() + at, in.keys.begin() + end);
    const auto got = client.multi_get_sync(std::move(keys));
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!got[i].status.ok() ||
          !(got[i].value == in.pool[last[at + i].value])) {
        ++mismatched;
      }
    }
  }
  svc.quiesce();
  return mismatched;
}

// ---- set-up -------------------------------------------------------------------

/// A workload's inputs and live deployment (the deployment references the
/// inputs, so they live side by side and die deployment-first).
struct Bench {
  WorkloadSpec spec;
  Args args;
  std::string data_dir;  ///< durable specs only
  Inputs in;
  std::unique_ptr<Deployment> dep;
  std::vector<double> setup_s;       ///< process CPU seconds per set-up
  std::vector<double> setup_wall_s;  ///< the same set-ups on the wall clock

  /// Set up from scratch (inputs, service, prefill), replacing any previous
  /// deployment, and time it.  False when a prefill failed.
  bool setup(Outcome* out) {
    dep.reset();
    std::error_code ec;
    if (spec.durable) fs::remove_all(data_dir, ec);
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    in = make_inputs(spec, args.seed);
    dep = std::make_unique<Deployment>(spec, in, data_dir);
    if (const auto st = dep->start(); !st.ok()) {
      out->fail("set-up failed: " + st.to_string());
      return false;
    }
    setup_s.push_back(process_cpu_s() - cpu0);
    setup_wall_s.push_back(now_s() - t0);
    return true;
  }
};

/// Counters read on quiescent lanes before and after a window.
struct LayerCounters {
  double events = 0, msgs = 0;
  double client_l1_bytes = 0, l1_l2_bytes = 0, l1_l1_msgs = 0;
  double batches = 0, coalesced = 0, rejected = 0;
  double appends = 0, syncs = 0, wal_bytes = 0, rotations = 0;

  static LayerCounters read(StoreService& svc) {
    LayerCounters c;
    c.events = static_cast<double>(svc.engine().events_executed());
    for (std::size_t s = 0; s < svc.num_shards(); ++s) {
      lds::core::LdsCluster& cl = *svc.shard_lds(s);
      const auto& costs = cl.net().costs();
      using LC = lds::net::LinkClass;
      c.msgs += static_cast<double>(cl.net().messages_sent());
      c.client_l1_bytes +=
          static_cast<double>(costs.by_link(LC::ClientL1).data_bytes);
      c.l1_l2_bytes += static_cast<double>(costs.by_link(LC::L1L2).data_bytes);
      c.l1_l1_msgs += static_cast<double>(costs.by_link(LC::L1L1).messages);
      for (std::size_t i = 0; i < cl.ctx().cfg.n2; ++i) {
        const auto* be = cl.l2(i).storage_backend();
        if (be == nullptr) continue;
        const auto& ws = be->wal_stats();
        c.appends += static_cast<double>(ws.appends);
        c.syncs += static_cast<double>(ws.syncs);
        c.wal_bytes += static_cast<double>(ws.appended_bytes);
        c.rotations += static_cast<double>(ws.rotations);
      }
    }
    const auto& m = svc.metrics();
    c.batches = static_cast<double>(m.counter_total("batches"));
    c.coalesced = static_cast<double>(m.counter_total("puts_coalesced"));
    c.rejected = static_cast<double>(m.counter_total("puts_rejected"));
    return c;
  }

  static constexpr double LayerCounters::*kFields[] = {
      &LayerCounters::events,      &LayerCounters::msgs,
      &LayerCounters::client_l1_bytes, &LayerCounters::l1_l2_bytes,
      &LayerCounters::l1_l1_msgs,  &LayerCounters::batches,
      &LayerCounters::coalesced,   &LayerCounters::rejected,
      &LayerCounters::appends,     &LayerCounters::syncs,
      &LayerCounters::wal_bytes,   &LayerCounters::rotations};
  LayerCounters& operator+=(const LayerCounters& o) {
    for (const auto f : kFields) this->*f += o.*f;
    return *this;
  }
  LayerCounters operator-(const LayerCounters& o) const {
    LayerCounters r = *this;
    for (const auto f : kFields) r.*f -= o.*f;
    return r;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void count_calls(const Window& w, Outcome* out) {
  out->attempted += w.calls.size();
  out->failed += w.failed();
}

/// Gates every run applies after its last window: both checkers over every
/// history, and the measured costs against the paper's.
MeasuredCosts final_gates(Bench& b, Outcome* out) {
  verify_all_histories(*b.dep, out);
  return check_costs(b.spec, b.dep->service(), out);
}

struct DurableReport {
  double recovery_s = 0;
  double crash_lost_keys = 0;
  double checkpoint_ms = 0;  ///< mean clean-close checkpoint of one L2
};

/// The storage probe's read-back, after its last window.  The on-disk state
/// as of the last acknowledgement is copied first (sync=always: exactly what
/// a crash would leave).  Then the store closes cleanly (a checkpoint of
/// every L2) and reopens: every key must return its last acknowledged value.
/// The crash copy is read back too; the keys it loses are reported as
/// storage.lost_acked_keys, not gated.
DurableReport durable_read_back(Bench& b, Outcome* out) {
  DurableReport durable;
  const auto last = b.dep->last_acked();
  const std::string crash_dir = b.data_dir + "-crash";
  std::error_code ec;
  fs::copy(b.data_dir, crash_dir, fs::copy_options::recursive, ec);
  const bool copied = !ec;
  if (!copied) out->fail("cannot copy the data_dir: " + ec.message());
  const double t0 = now_s();
  std::size_t backends = 0;
  if (const auto st = b.dep->checkpoint_all(&backends); !st.ok()) {
    out->fail("clean close failed: " + st.to_string());
  }
  durable.checkpoint_ms =
      ratio((now_s() - t0) * 1e3, static_cast<double>(backends));
  b.dep->shutdown();
  const std::size_t lost =
      read_back(b.spec, b.in, b.data_dir, last, &durable.recovery_s);
  if (lost > 0) {
    out->fail("durable read-back: " + std::to_string(lost) +
              " keys did not return their last acknowledged value");
  }
  JsonObject report;
  report.num("keys", static_cast<double>(b.in.keys.size()))
      .num("mismatched_after_clean_close", static_cast<double>(lost))
      .num("reopen_s", durable.recovery_s);
  if (copied) {
    double crash_reopen_s = 0;
    durable.crash_lost_keys = static_cast<double>(
        read_back(b.spec, b.in, crash_dir, last, &crash_reopen_s));
    report.num("lost_after_crash_image", durable.crash_lost_keys)
        .num("crash_reopen_s", crash_reopen_s);
  }
  fs::remove_all(crash_dir, ec);
  out->details.obj("durable_read_back", report);
  return durable;
}

// ---- the two run kinds --------------------------------------------------------

/// Where a run's record and CSVs go: <out-dir>/<workload>-s<seed>-t<trace>,
/// with -tiny for self-test scale so those never replace a real run's.
std::string result_stem(const Args& a, const std::string& workload) {
  return a.out_dir + "/" + workload + "-s" + std::to_string(a.seed) + "-t" +
         std::to_string(a.trace) + (a.tiny ? "-tiny" : "");
}

/// The traced windows' client spans, one CSV row per call.
void write_spans_csv(const std::string& path,
                     const std::vector<CallRecord>& calls) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "start_s,end_s,kind,key,ok\n");
  for (const auto& c : calls) {
    std::fprintf(f, "%.9f,%.9f,%s,%u,%d\n", c.start, c.end,
                 c.get ? "get" : "put", c.key, c.ok ? 1 : 0);
  }
  std::fclose(f);
}

/// Warm-up before anything is measured.  It is a fixed number of calls, not
/// a fixed time, so the memory it leaves (peak_rss_mb is read after it) does
/// not depend on how fast the host ran; the time limit only guards a stalled
/// store.
Window warm_up(Bench& b) {
  const std::size_t calls =
      b.args.tiny ? std::min<std::size_t>(b.spec.warmup_calls, 16)
                  : b.spec.warmup_calls;
  return b.dep->run(30, std::max<std::size_t>(1, calls / b.spec.clients));
}

Outcome run_untraced(Bench& b) {
  Outcome out;
  if (!b.setup(&out)) return out;
  count_calls(warm_up(b), &out);
  // Before the window: the window's own growth is the per-operation History
  // the store keeps, which scales with the call count rather than footprint.
  const double rss_mb = peak_rss_mb();
  const Window w = b.dep->run(b.args.seconds);
  count_calls(w, &out);

  const MeasuredCosts costs = final_gates(b, &out);
  // Set-up is timed nine times and reported as the median; the extra
  // set-ups run after the measurement so their leftovers (allocator arenas)
  // cannot touch the window or its memory figure.  A coded_read set-up is
  // about 0.2 s, short enough to sit in one vCPU speed state, so it takes
  // several for a steady median.
  for (int i = 0; i < (b.args.tiny ? 0 : 8) && out.correct; ++i) {
    b.setup(&out);
  }

  const auto get_cpu = w.cpu_ms(true);
  const auto put_cpu = w.cpu_ms(false);
  const auto gets = w.latencies_ms(true);
  const auto puts = w.latencies_ms(false);
  // Means, not medians: a call runs at the speed of the vCPU it landed on,
  // so the per-call times mix a fast and a slow mode whose shares drift;
  // the mean moves smoothly with the share, the median jumps between modes
  // (over six 20 s runs per workload, quartile spreads of 0.03-0.08 for the
  // means against 0.07-0.13 for the medians).
  MetricSet& m = out.metrics;
  m.set("get_cpu_ms", mean(get_cpu), "ms");
  m.set("put_cpu_ms", mean(put_cpu), "ms");
  m.set("cpu_ms_per_op",
        ratio(w.cpu_s * 1e3, static_cast<double>(w.calls.size())), "ms");
  m.set("setup_s", median(b.setup_s), "s");
  m.set("peak_rss_mb", rss_mb, "MiB");
  m.set("read_cost", costs.read, "B/B");
  m.set("write_cost", costs.write, "B/B");
  m.set("storage_cost", costs.storage, "B/B");

  JsonObject setups;
  for (std::size_t i = 0; i < b.setup_s.size(); ++i) {
    setups.raw(std::to_string(i), "[" + json_num(b.setup_s[i]) + "," +
                                      json_num(b.setup_wall_s[i]) + "]");
  }
  JsonObject deciles;
  for (int q = 1; q < 10; ++q) {
    deciles.raw("p" + std::to_string(q * 10),
                "[" + json_num(quantile(get_cpu, q / 10.0)) + "," +
                    json_num(quantile(put_cpu, q / 10.0)) + "," +
                    json_num(quantile(gets, q / 10.0)) + "," +
                    json_num(quantile(puts, q / 10.0)) + "]");
  }
  out.details.obj(
      "window",
      JsonObject()
          .num("seconds", w.elapsed_s)
          .num("cpu_s", w.cpu_s)
          .num("calls", static_cast<double>(w.calls.size()))
          .num("gets", static_cast<double>(gets.size()))
          .num("puts", static_cast<double>(puts.size()))
          .num("wall_ops_per_s", w.ops_per_s())
          .num("wall_get_p50_ms", quantile(gets, 0.5))
          .num("wall_get_p99_ms", quantile(gets, 0.99))
          .num("wall_put_p50_ms", quantile(puts, 0.5))
          .num("wall_put_p99_ms", quantile(puts, 0.99))
          .num("get_cpu_p50_ms", quantile(get_cpu, 0.5))
          .num("get_cpu_p99_ms", quantile(get_cpu, 0.99))
          .num("put_cpu_p50_ms", quantile(put_cpu, 0.5))
          .num("put_cpu_p99_ms", quantile(put_cpu, 0.99))
          .num("failed_op_ratio",
               ratio(static_cast<double>(w.failed()),
                     static_cast<double>(w.calls.size())))
          .obj("deciles_get_put_cpu_then_wall_ms", deciles)
          .obj("setup_cpu_wall_s", setups));
  return out;
}

/// The storage layer measured in place: the durable_write deployment
/// (sync=always on the work directory's disk, 64 KiB checkpoints, 1 KiB
/// values, 90% puts) driven for a short window inside every traced run,
/// gated like a workload of its own.  It is the only source of the storage
/// metrics.  durable_write is not an end-to-end workload: the shared disk's
/// fdatasync latency swings 2-3x for minutes at a time, so its 10-run
/// spreads exceeded every bound (perfbench/README.md).
struct StorageReport {
  LayerCounters delta;
  double puts = 0, seconds = 0, ops_per_s = 0, put_p50_ms = 0;
  double append_us = 0;  ///< one Wal::append of the probe's element
  DurableReport durable;
};

constexpr double kStorageProbeS = 5;

StorageReport storage_probe(const Args& a, Outcome* out) {
  StorageReport r;
  Outcome probe;
  Bench p;
  p.spec = durable_write_spec();
  if (a.tiny) p.spec.keys = std::min<std::size_t>(p.spec.keys, 64);
  p.args = a;
  p.data_dir = a.work_dir + "/storage-probe-s" + std::to_string(a.seed) +
               "-p" + std::to_string(getpid());
  if (p.setup(&probe)) {
    StoreService& svc = p.dep->service();
    const LayerCounters c0 = LayerCounters::read(svc);
    const Window w = p.dep->run(a.tiny ? 0.3 : kStorageProbeS);
    count_calls(w, &probe);
    r.delta = LayerCounters::read(svc) - c0;
    const auto puts = w.latencies_ms(false);
    r.puts = static_cast<double>(puts.size());
    r.seconds = w.elapsed_s;
    r.ops_per_s = w.ops_per_s();
    r.put_p50_ms = quantile(puts, 0.5);
    r.append_us = time_wal_append(
        p.data_dir + "-wal",
        svc.shard_lds(0)->ctx().code.element_size(p.spec.value_size));
    if (r.append_us < 0) probe.fail("WAL append probe failed");
    final_gates(p, &probe);
    r.durable = durable_read_back(p, &probe);
  }
  p.dep.reset();
  std::error_code ec;
  fs::remove_all(p.data_dir, ec);
  out->attempted += probe.attempted;
  out->failed += probe.failed;
  for (const auto& v : probe.violations) {
    out->correct = false;
    out->violations.push_back("storage probe: " + v);
  }
  probe.details.num("seconds", r.seconds)
      .num("value_size", static_cast<double>(p.spec.value_size))
      .num("keys", static_cast<double>(p.spec.keys))
      .num("read_fraction", p.spec.read_fraction)
      .num("checkpoint_bytes", static_cast<double>(kCheckpointBytes));
  out->details.obj("storage_probe", probe.details);
  return r;
}

Outcome run_traced(Bench& b) {
  Outcome out;
  if (!b.setup(&out)) return out;
  StoreService& svc = b.dep->service();
  count_calls(warm_up(b), &out);

  // Untraced and traced windows alternate, so a drift of the shared host's
  // speed biases neither side of trace.overhead_ratio.  In traced windows
  // the client spans are the calls' own stamps and the observers stamp
  // every protocol delivery.
  DeliveryTracer tracer(svc);
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    svc.shard_lds(s)->meter().reset_peaks();
  }
  LayerCounters delta;  // summed over the traced windows
  std::vector<CallRecord> calls;
  double traced_s = 0, traced_cpu_s = 0, plain_cpu_s = 0, plain_calls = 0;
  for (int i = 0; i < 4; ++i) {
    const bool traced = i % 2 == 1;
    const LayerCounters before = LayerCounters::read(svc);
    if (traced) tracer.attach();
    const Window w = b.dep->run(b.args.seconds / 4);
    if (traced) tracer.detach();
    count_calls(w, &out);
    if (traced) {
      delta += LayerCounters::read(svc) - before;
      calls.insert(calls.end(), w.calls.begin(), w.calls.end());
      traced_s += w.elapsed_s;
      traced_cpu_s += w.cpu_s;
    } else {
      plain_calls += static_cast<double>(w.calls.size());
      plain_cpu_s += w.cpu_s;
    }
  }
  const PhaseSummary ph = tracer.summarize();
  double l1_peak = 0;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    l1_peak += static_cast<double>(svc.shard_lds(s)->meter().l1_peak_bytes());
  }
  if (ph.non_monotone > 0) {
    out.fail(std::to_string(ph.non_monotone) +
             " traced operations have non-monotone phase stamps");
  }
  if (ph.gets + ph.puts == 0) out.fail("the traced windows traced nothing");

  // The floor of one call: a get of a never-written key completes NotFound
  // before any protocol work.
  std::vector<double> floor_ms;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "absent-" + std::to_string(i);
    const double t0 = now_s();
    const auto r = b.dep->client().get_sync(key);
    floor_ms.push_back((now_s() - t0) * 1e3);
    if (r.status().code() != lds::StatusCode::kNotFound) {
      out.fail("rpc floor probe did not return NotFound");
      break;
    }
  }
  const double rpc_floor_ms = median(floor_ms);

  // Direct layer timings with the workload's inputs.
  const auto& ctx = svc.shard_lds(0)->ctx();
  const std::size_t element = ctx.code.element_size(b.spec.value_size);
  const CodesTiming codes = time_codes(ctx.code, b.in.pool[0], ctx.cfg.n1);
  if (!codes.roundtrip_ok) out.fail("codes round trip failed");
  const GfTiming gf = time_gf(element);
  const CodecTiming codec = time_codec(b.in.pool[0]);
  if (!codec.roundtrip_ok) out.fail("codec round trip failed");

  const MeasuredCosts costs = final_gates(b, &out);
  const StorageReport st = storage_probe(b.args, &out);

  std::vector<double> gets, puts;
  for (const auto& c : calls) {
    (c.get ? gets : puts).push_back((c.end - c.start) * 1e3);
  }
  const double ops = static_cast<double>(calls.size());
  const double nputs = static_cast<double>(puts.size());
  const double ngets = static_cast<double>(gets.size());
  const double regen_ratio =
      ratio(static_cast<double>(ph.regen_gets), static_cast<double>(ph.gets));
  const double codes_get_ms =
      (ph.helpers_per_get * codes.helper_data_us +
       ph.coded_per_get * codes.repair_element_us +
       regen_ratio * codes.decode_value_us) /
      1e3;
  const double codes_put_ms = codes.encode_us / 1e3;

  // Share of the probe's lanes' wall time spent in WAL appends (each one an
  // fdatasync) and checkpoints.
  const double storage_lane_share =
      ratio(st.delta.appends * st.append_us / 1e6 +
                st.delta.rotations * st.durable.checkpoint_ms / 1e3,
            static_cast<double>(durable_write_spec().lanes) * st.seconds);

  MetricSet& m = out.metrics;
  m.set("store.get_self_ms", mean(gets) - ph.get_protocol_ms, "ms");
  m.set("store.put_self_ms", mean(puts) - ph.put_protocol_ms, "ms");
  m.set("store.batches_per_put", ratio(delta.batches, nputs), "count");
  m.set("store.coalesced_put_ratio", ratio(delta.coalesced, nputs), "ratio");
  m.set("store.rejected_puts", delta.rejected, "count");
  m.set("net.events_per_op", ratio(delta.events, ops), "count");
  m.set("net.msgs_per_op", ratio(delta.msgs, ops), "count");
  m.set("net.rpc_floor_ms", rpc_floor_ms, "ms");
  m.set("net.frame_encode_us", codec.encode_us, "us");
  m.set("net.frame_decode_us", codec.decode_us, "us");
  m.set("lds.get.query_tag_ms", ph.get_query_tag_ms, "ms");
  m.set("lds.get.get_data_ms", ph.get_data_ms, "ms");
  m.set("lds.get.put_tag_ms", ph.get_put_tag_ms, "ms");
  m.set("lds.put.get_tag_ms", ph.put_get_tag_ms, "ms");
  m.set("lds.put.put_data_ms", ph.put_data_ms, "ms");
  m.set("lds.put.offload_ms", ph.put_offload_ms, "ms");
  m.set("lds.regen_get_ratio", regen_ratio, "ratio");
  m.set("lds.client_l1_bytes_per_op", ratio(delta.client_l1_bytes, ops), "B");
  m.set("lds.l1_l2_bytes_per_op", ratio(delta.l1_l2_bytes, ops), "B");
  m.set("lds.l1_l1_msgs_per_op", ratio(delta.l1_l1_msgs, ops), "count");
  m.set("lds.l1_peak_storage",
        l1_peak / static_cast<double>(b.spec.value_size), "values");
  m.set("codes.encode_us", codes.encode_us, "us");
  m.set("codes.helper_data_us", codes.helper_data_us, "us");
  m.set("codes.repair_element_us", codes.repair_element_us, "us");
  m.set("codes.decode_value_us", codes.decode_value_us, "us");
  m.set("codes.get_ms", codes_get_ms, "ms");
  m.set("codes.put_ms", codes_put_ms, "ms");
  m.set("gf.axpy_gbps", gf.axpy_gbps, "GB/s");
  m.set("gf.dot_gbps", gf.dot_gbps, "GB/s");
  m.set("storage.durable_ops_per_s", st.ops_per_s, "1/s");
  m.set("storage.durable_put_p50_ms", st.put_p50_ms, "ms");
  m.set("storage.appends_per_put", ratio(st.delta.appends, st.puts), "count");
  m.set("storage.fdatasyncs_per_put", ratio(st.delta.syncs, st.puts),
        "count");
  m.set("storage.wal_bytes_per_put", ratio(st.delta.wal_bytes, st.puts), "B");
  m.set("storage.append_sync_us", st.append_us, "us");
  m.set("storage.checkpoints_per_put", ratio(st.delta.rotations, st.puts),
        "count");
  m.set("storage.checkpoint_ms", st.durable.checkpoint_ms, "ms");
  m.set("storage.lane_share", storage_lane_share, "ratio");
  m.set("storage.recovery_s", st.durable.recovery_s, "s");
  m.set("storage.lost_acked_keys", st.durable.crash_lost_keys, "count");
  const double cpu_ms_per_op = ratio(traced_cpu_s * 1e3, ops);
  m.set("trace.overhead_ratio",
        ratio(ratio(plain_cpu_s * 1e3, plain_calls), cpu_ms_per_op), "ratio");

  // Does the layer this workload was chosen for dominate?  Each share sums
  // only time measured as that layer's, so whatever is not attributed
  // (queueing, the benchmark's own callbacks, kernel time) counts against
  // the prediction.  coded_read's lanes are CPU-bound: the codes calls'
  // share of the process CPU per op.  small_remote: the share of the client
  // span taken by the net round-trip floor plus the LDS rounds, less the
  // codes calls inside them.  (The storage probe's lanes block in
  // fdatasync: storage.lane_share.)
  const double codes_ms_per_op =
      ratio(ngets * codes_get_ms + static_cast<double>(ph.puts) * codes_put_ms,
            ops);
  double share = 0;
  std::string predicted;
  if (b.spec.remote) {
    predicted =
        "net and lds per-op overhead (rpc floor + LDS rounds - codes, share "
        "of the client span)";
    const double get_ms =
        std::max(0.0, rpc_floor_ms + ph.get_protocol_ms - codes_get_ms);
    const double put_ms =
        std::max(0.0, rpc_floor_ms + ph.put_protocol_ms - codes_put_ms);
    share = ratio(ngets * get_ms + nputs * put_ms,
                  ngets * mean(gets) + nputs * mean(puts));
  } else {
    predicted = "codes on gets (codes share of process CPU)";
    share = ratio(codes_ms_per_op, cpu_ms_per_op);
  }
  m.set("dominance.predicted_share", share, "ratio");
  m.set("dominance.holds", share > 0.5 ? 1 : 0, "count");

  const std::string stem = result_stem(b.args, b.spec.name);
  tracer.write_csv(stem + "-deliveries.csv", 100000);
  write_spans_csv(stem + "-spans.csv", calls);
  out.details.obj(
      "trace",
      JsonObject()
          .str("predicted_dominant_layer", predicted)
          .num("predicted_share", share)
          .boolean("prediction_holds", share > 0.5)
          .num("traced_gets", static_cast<double>(ph.gets))
          .num("traced_puts", static_cast<double>(ph.puts))
          .num("lds_deliveries_per_op",
               ratio(static_cast<double>(tracer.deliveries()), ops))
          .str("deliveries_csv", stem + "-deliveries.csv")
          .str("spans_csv", stem + "-spans.csv")
          .num("client_get_ms", mean(gets))
          .num("client_put_ms", mean(puts))
          .num("protocol_get_ms", ph.get_protocol_ms)
          .num("protocol_put_ms", ph.put_protocol_ms)
          .num("helpers_per_get", ph.helpers_per_get)
          .num("coded_per_get", ph.coded_per_get)
          .num("untraced_cpu_ms_per_op", ratio(plain_cpu_s * 1e3, plain_calls))
          .num("traced_ops_per_s", ratio(ops, traced_s))
          .num("cpu_ms_per_op", cpu_ms_per_op)
          .num("codes_ms_per_op", codes_ms_per_op)
          .boolean("storage_dominates_durable_lanes",
                   storage_lane_share > 0.5)
          .num("read_cost", costs.read)
          .num("write_cost", costs.write)
          .num("storage_cost", costs.storage));
  return out;
}

// ---- self-test -----------------------------------------------------------------

/// The gate must reject a corrupted history: replay a real shard history and
/// append a read that returns the initial value after the newest completed
/// write of its object.
bool selftest_gate(const Args& a) {
  Bench b;
  b.spec = *find_workload("coded_read");
  b.spec.keys = 16;
  b.args = a;
  b.args.tiny = true;
  Outcome out;
  if (!b.setup(&out)) return false;
  b.dep->run(0.3);
  const lds::core::History& real = b.dep->service().shard_history(0);
  Outcome clean;
  if (!verify_history(real, "selftest clean history", &clean)) return false;

  lds::core::History bad;
  const lds::core::OpRecord* newest = nullptr;
  for (const auto& op : real.ops()) {
    const std::size_t idx =
        bad.on_invoke(op.id, op.kind, op.obj, op.client, op.invoked);
    if (op.complete) bad.on_response(idx, op.responded, op.tag, op.value);
    if (op.complete && op.kind == lds::core::OpKind::Write &&
        (newest == nullptr || newest->tag < op.tag)) {
      newest = &op;
    }
  }
  if (newest == nullptr) return false;
  const std::size_t idx =
      bad.on_invoke(lds::make_op_id(lds::core::kReaderIdBase + 99, 1),
                    lds::core::OpKind::Read, newest->obj,
                    lds::core::kReaderIdBase + 99, newest->responded + 1);
  bad.on_response(idx, newest->responded + 2, lds::kTag0, lds::Value{});
  Outcome rejected;
  const bool caught = !verify_history(bad, "selftest corrupted history",
                                      &rejected);
  std::fprintf(stderr, "selftest: corrupted history %s (%zu findings)\n",
               caught ? "rejected" : "ACCEPTED", rejected.violations.size());
  return caught && rejected.violations.size() == 2;
}

/// The phase spans of traced gets must be monotone, and there must be some.
bool selftest_phases(const Args& a) {
  Bench b;
  b.spec = *find_workload("coded_read");
  b.spec.keys = 16;
  b.args = a;
  b.args.tiny = true;
  Outcome out;
  if (!b.setup(&out)) return false;
  DeliveryTracer tracer(b.dep->service());
  tracer.attach();
  b.dep->run(0.3);
  tracer.detach();
  const PhaseSummary ph = tracer.summarize();
  std::fprintf(stderr, "selftest: %zu traced gets, %zu non-monotone\n",
               ph.gets, ph.non_monotone);
  return ph.gets > 0 && ph.non_monotone == 0 && ph.get_query_tag_ms > 0 &&
         ph.get_data_ms > 0 && ph.get_put_tag_ms > 0;
}

// ---- command line --------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: lds_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir D] [--out-dir D] [--source-id X] "
               "[--git-sha X] [--tiny]\n"
               "       lds_perfbench --selftest [--work-dir D]\n"
               "workloads:");
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() -> const char* {
      ++i;
      return v;
    };
    if (arg == "--tiny") {
      a->tiny = true;
    } else if (arg == "--selftest") {
      a->selftest = true;
    } else if (v == nullptr) {
      return false;
    } else if (arg == "--workload") {
      a->workload = take();
    } else if (arg == "--seed") {
      a->seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(take(), nullptr);
    } else if (arg == "--trace") {
      a->trace = std::atoi(take());
    } else if (arg == "--work-dir") {
      a->work_dir = take();
    } else if (arg == "--out-dir") {
      a->out_dir = take();
    } else if (arg == "--source-id") {
      a->source_id = take();
    } else if (arg == "--git-sha") {
      a->git_sha = take();
    } else {
      return false;
    }
  }
  return a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, &a)) return usage();
  if (std::getenv("LDS_GF_ISA") != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to run with LDS_GF_ISA set; "
                         "results must use the ISA the host selects\n");
    return 2;
  }
  const CpuRotator rotator;
  std::error_code ec;
  fs::create_directories(a.work_dir, ec);
  fs::create_directories(a.out_dir, ec);

  if (a.selftest) {
    const bool gate = selftest_gate(a);
    const bool phases = selftest_phases(a);
    std::printf("selftest gate=%s phases=%s\n", gate ? "ok" : "FAIL",
                phases ? "ok" : "FAIL");
    return gate && phases ? 0 : 1;
  }

  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr) return usage();
  // The traced run's storage probe needs a disk-backed data_dir.
  const std::string data_fs = fs_type(a.work_dir);
  if (a.trace == 1 && (data_fs == "tmpfs" || data_fs == "ramfs")) {
    std::fprintf(stderr, "perfbench: the storage probe's data_dir must be "
                         "disk-backed; %s is on %s, where fdatasync is free\n",
                 a.work_dir.c_str(), data_fs.c_str());
    return 2;
  }

  Bench b;
  b.spec = *spec;
  if (a.tiny) b.spec.keys = std::min<std::size_t>(b.spec.keys, 64);
  b.args = a;
  Outcome out = a.trace == 1 ? run_traced(b) : run_untraced(b);
  b.dep.reset();
  if (out.failed > 0) {
    out.fail(std::to_string(out.failed) + " of " +
             std::to_string(out.attempted) + " operations failed");
  }

  JsonObject violations;
  for (std::size_t i = 0; i < out.violations.size(); ++i) {
    violations.str(std::to_string(i), out.violations[i]);
  }
  JsonObject record;
  record.str("workload", spec->name)
      .num("seed", static_cast<double>(a.seed))
      .num("seconds", a.seconds)
      .num("trace", a.trace)
      .boolean("tiny", a.tiny)
      .obj("fingerprint", fingerprint(a))
      .obj("config",
           JsonObject()
               .num("value_size", static_cast<double>(b.spec.value_size))
               .num("keys", static_cast<double>(b.spec.keys))
               .num("read_fraction", b.spec.read_fraction)
               .boolean("remote", b.spec.remote)
               .num("shards", static_cast<double>(kShards))
               .num("lanes", static_cast<double>(b.spec.lanes))
               .num("clients", static_cast<double>(b.spec.clients))
               .num("warmup_calls", static_cast<double>(b.spec.warmup_calls)))
      .boolean("correct", out.correct)
      .num("attempted", static_cast<double>(out.attempted))
      .num("failed", static_cast<double>(out.failed))
      .obj("metrics", out.metrics.json())
      .obj("details", out.details)
      .obj("violations", violations);
  if (std::FILE* f =
          std::fopen((result_stem(a, spec->name) + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", record.dump().c_str());
    std::fclose(f);
  }

  if (!out.correct) {
    std::fprintf(stderr, "perfbench: run rejected (%zu violations)\n",
                 out.violations.size());
    return 1;
  }
  const std::string result =
      JsonObject()
          .boolean("correct", true)
          .num("attempted", static_cast<double>(out.attempted))
          .num("failed", static_cast<double>(out.failed))
          .obj("metrics", out.metrics.json())
          .dump();
  std::printf("%s\n", result.c_str());
  return 0;
}
