#include "harness/kill9.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/process.h"
#include "storage/fsutil.h"

namespace lds::harness {

namespace {

/// Per-op wall-clock deadline.  Generous: a synced put under load takes
/// milliseconds, so hitting this means the server is gone (or wedged, which
/// the merged-history verdict will surface as missing completions).
constexpr double kOpDeadline = 10.0;

pid_t spawn_server(const Kill9Options& opt, const std::string& port_file,
                   std::uint64_t seed) {
  return spawn({
      opt.server_bin,
      "--port", "0",
      "--port-file", port_file,
      "--data-dir", opt.data_dir,
      "--sync", storage::sync_policy_name(opt.sync),
      "--shards", std::to_string(opt.shards),
      "--seed", std::to_string(seed),
  });
}

}  // namespace

Kill9Report run_kill9(const Kill9Options& opt) {
  Kill9Report rep;
  auto fail = [&rep](std::string why) {
    rep.violation = std::move(why);
    return rep;
  };
  if (opt.server_bin.empty() || opt.data_dir.empty()) {
    return fail("kill9: --server-bin and --data-dir are required");
  }
  if (opt.threads == 0 || opt.keys == 0 || opt.ops_per_round == 0) {
    return fail("kill9: threads, keys and ops-per-round must be positive");
  }
  if (!opt.keep_data) {
    if (auto st = storage::wipe_dir(opt.data_dir); !st.ok()) {
      return fail("kill9: wipe " + opt.data_dir + ": " + st.message());
    }
  }

  Recorder rec(&rep, opt.keys, opt.value_size, opt.read_fraction,
               kOpDeadline);
  const std::string port_file = opt.data_dir + "/PORT";

  for (std::size_t round = 0; round <= opt.kills; ++round) {
    const bool kill_round = round < opt.kills;
    std::remove(port_file.c_str());  // never connect to a dead incarnation
    const pid_t pid = spawn_server(opt, port_file, opt.seed);
    if (pid < 0) return fail("kill9: fork failed");
    ++rep.incarnations;
    int status = 0;
    const auto port = wait_for_port(port_file, pid, 30.0, &status);
    if (!port) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return fail("kill9: incarnation " + std::to_string(round) +
                  " never published a port (exited or hung)");
    }
    Status open_st;
    auto client = store::Client::connect("127.0.0.1", *port, &open_st);
    if (client == nullptr) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return fail("kill9: connect: " + open_st.to_string());
    }

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> tickets{0};
    std::vector<std::thread> workers;
    workers.reserve(opt.threads);
    for (std::size_t t = 0; t < opt.threads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(mix_seed(opt.seed, round * opt.threads + t + 1));
        while (!stop.load(std::memory_order_acquire) &&
               tickets.fetch_add(1, std::memory_order_acq_rel) <
                   opt.ops_per_round &&
               rec.step(*client, static_cast<std::uint32_t>(t), rng)) {
        }
      });
    }

    if (kill_round) {
      // SIGKILL mid-churn: wait for half the quota, then no mercy.
      const auto kt0 = Clock::now();
      while (tickets.load(std::memory_order_acquire) < opt.ops_per_round / 2 &&
             seconds_since(kt0) < 120.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      ::kill(pid, SIGKILL);
      ++rep.kills;
      ::waitpid(pid, &status, 0);
      stop.store(true, std::memory_order_release);
      for (auto& w : workers) w.join();
    } else {
      // Final incarnation: drain the full quota, then terminate gracefully.
      // The daemon quiesces and runs the SERVER-side verifiers over its
      // histories (which begin with the recovery sweep's synthetic writes);
      // its exit code is the second half of the verdict.
      for (auto& w : workers) w.join();
      ::kill(pid, SIGTERM);
      ::waitpid(pid, &status, 0);
      rep.server_verified = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!rep.server_verified) {
        rep.violation = "kill9: final incarnation exit status " +
                        std::to_string(status) +
                        " (server-side verification failed)";
      }
    }
    client.reset();
    if (opt.verbose) {
      std::fprintf(stderr,
                   "kill9: round %zu done (%s), %zu ops ticketed\n", round,
                   kill_round ? "SIGKILL" : "SIGTERM",
                   tickets.load(std::memory_order_acquire));
    }
  }

  rec.verdict();
  return rep;
}

std::string format_kill9_report(const Kill9Options& opt,
                                const Kill9Report& rep) {
  std::ostringstream os;
  os << "kill9: " << rep.incarnations << " incarnations, " << rep.kills
     << " SIGKILLs, data_dir=" << opt.data_dir << " sync="
     << storage::sync_policy_name(opt.sync) << "\n"
     << "kill9: writes " << rep.writes_completed << " completed, "
     << rep.writes_unknown << " unknown (" << rep.writes_bound
     << " bound by reads), " << rep.writes_coalesced << " coalesced; reads "
     << rep.reads_completed << " completed, " << rep.reads_failed
     << " failed\n"
     << "kill9: atomicity " << (rep.atomicity_ok ? "OK" : "VIOLATION")
     << ", freshness " << (rep.freshness_ok ? "OK" : "VIOLATION")
     << ", server self-check "
     << (rep.server_verified ? "OK" : "FAILED") << "\n";
  if (!rep.violation.empty()) os << "kill9: " << rep.violation << "\n";
  os << (rep.ok() ? "kill9: PASS" : "kill9: FAIL") << "\n";
  return os.str();
}

}  // namespace lds::harness
