// Workloads, their deployments, and the closed-loop client.
//
// Every workload drives the store through the public store::Client API: the
// default LDS shard geometry (n1=6, f1=1, n2=8, f2=2, PM-MBR) on 4 shards of
// a Parallel-engine StoreService, uniform keys that are all prefilled before
// timing, and a closed loop with zero think time — the client issues its
// next operation from the previous operation's completion callback, so no
// generator thread exists.  Each call is timed on the process CPU clock as
// well as the wall clock (see perfbench/README.md for why the reported
// figures are CPU time).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lds/history.h"
#include "report.h"
#include "store/client.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::size_t value_size = 0;
  std::size_t keys = 0;
  double read_fraction = 0;
  /// data_dir on disk with sync=always (and a small checkpoint threshold).
  bool durable = false;
  /// Served on 127.0.0.1 and driven by a remote client over one
  /// connection; otherwise an in-process client.
  bool remote = false;
  std::size_t lanes = 1;
  std::size_t clients = 1;  ///< closed-loop client chains
  /// Calls before anything is measured (a fixed amount of work, not time).
  std::size_t warmup_calls = 0;
};

/// The benchmark's workloads (BENCHMARK.json names them).
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);
/// The durable deployment the traced run's storage probe drives.  It is not
/// a workload of its own: see perfbench/README.md.
const WorkloadSpec& durable_write_spec();

inline constexpr std::size_t kShards = 4;
/// Prefill chunk: well below the 1024-in-flight per-shard admission limit
/// even when every key of the chunk hashes to one shard.
inline constexpr std::size_t kPrefillChunk = 256;
/// L2 WAL checkpoint threshold of the durable deployment: small enough that
/// every WAL checkpoints several times in the storage probe's window.
inline constexpr std::uint64_t kCheckpointBytes = 64 * 1024;

/// Everything random, generated from the seed before any clock starts: key
/// names, a pool of values, each key's prefill value and one operation
/// stream per client.
struct Inputs {
  struct Op {
    std::uint32_t key = 0;
    std::uint32_t value = 0;  ///< pool index (puts)
    bool get = false;
  };
  std::vector<std::string> keys;
  std::vector<lds::Value> pool;
  std::vector<std::uint32_t> prefill;  ///< pool index per key
  std::vector<std::vector<Op>> streams;
};
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// One completed client call, stamped at the call and in its callback.
struct CallRecord {
  double start = 0, end = 0;  ///< wall clock
  /// Process CPU seconds from the call to its callback.  With one call in
  /// flight and no background work, that is this call's own cost, summed
  /// over every thread that served it.
  double cpu = 0;
  std::uint32_t key = 0;
  std::uint32_t value = 0;  ///< pool index (puts)
  bool get = false;
  bool ok = false;
  bool coalesced = false;
  lds::Tag tag;
  lds::Value got;  ///< a get's returned value
};

/// The calls of one closed-loop window.
struct Window {
  std::vector<CallRecord> calls;
  double elapsed_s = 0;  ///< first call to last callback
  double cpu_s = 0;      ///< process CPU over the window

  std::size_t failed() const;
  double ops_per_s() const;
  /// Per-call wall latency (call to callback) of the gets or the puts.
  std::vector<double> latencies_ms(bool gets) const;
  /// Per-call process CPU time of the gets or the puts.
  std::vector<double> cpu_ms(bool gets) const;
};

class Deployment {
 public:
  /// `data_dir` is used by a durable spec only (created fresh).
  Deployment(const WorkloadSpec& spec, const Inputs& in, std::string data_dir);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Build the service (listen + connect when remote) and prefill every key
  /// in admission-safe chunks, then quiesce.
  lds::Status start();

  /// Run the closed loop for `seconds`, or until every client has completed
  /// `max_ops_per_client` calls, continuing each client's stream where the
  /// previous window stopped, then quiesce: between windows every lane is
  /// idle.
  Window run(double seconds, std::size_t max_ops_per_client =
                                 std::numeric_limits<std::size_t>::max());

  /// Durable clean close: checkpoint every L2 backend (quiescent lanes),
  /// counting them in `*backends`.
  lds::Status checkpoint_all(std::size_t* backends);

  lds::store::StoreService& service() { return *svc_; }
  lds::store::Client& client() { return *client_; }

  /// Everything the client observed, prefill included, as one history
  /// (wall-clock invocation/response times) for the linearizability
  /// checkers.  Coalesced puts are left out, as the shard histories do.
  lds::core::History client_history() const;

  /// Each key's last acknowledged put: the highest committed tag and its
  /// pool index.
  struct Acked {
    lds::Tag tag = lds::kTag0;
    std::uint32_t value = 0;
  };
  std::vector<Acked> last_acked() const;

  /// Release the client and the service (durable: files stay on disk).
  void shutdown();

 private:
  struct Chain {
    std::size_t index = 0;
    std::size_t cursor = 0;
    std::vector<CallRecord> calls;
  };
  void issue(Chain* c);
  void complete(Chain* c, CallRecord rec);

  const WorkloadSpec& spec_;
  const Inputs& in_;
  lds::store::StoreOptions opt_;
  std::unique_ptr<lds::store::StoreService> svc_;
  std::unique_ptr<lds::store::Client> client_;
  std::vector<CallRecord> prefill_;
  std::vector<CallRecord> history_calls_;  ///< every finished window's calls
  std::vector<Chain> chains_;
  std::atomic<double> deadline_{0};
  std::size_t max_ops_ = 0;  ///< per client, this window
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t active_ = 0;  ///< guarded by mu_
};

/// Store options of a workload (shared by the deployment and the durable
/// reopen, which must match it).
lds::store::StoreOptions store_options(const WorkloadSpec& spec,
                                       const std::string& data_dir);

/// Process CPU seconds (all threads; steal time is not counted).
double process_cpu_s();
/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb();

}  // namespace perfbench
