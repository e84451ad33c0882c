#include "harness/kill9.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/stress.h"
#include "lds/history.h"
#include "storage/fsutil.h"
#include "store/remote.h"

namespace lds::harness {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-op wall-clock deadline.  Generous: a synced put under load takes
/// milliseconds, so hitting this means the server is gone (or wedged, which
/// the merged-history verdict will surface as missing completions).
constexpr double kOpDeadline = 10.0;

/// Shared recording state.  Ops are recorded AFTER they return, under one
/// mutex, with the invocation/response times captured around the blocking
/// call — History's checkers only consume the recorded timestamps, so
/// post-hoc recording preserves the real-time precedence relation exactly.
struct Recorder {
  std::mutex mu;
  core::History h;
  /// Unknown-outcome writes awaiting a tag: value bytes -> history index.
  std::map<Bytes, std::size_t> pending;
  Kill9Report* rep;

  void read_done(OpId op, ObjectId obj, NodeId client, double t_inv,
                 double t_rsp, Tag tag, Value value) {
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t idx =
        h.on_invoke(op, core::OpKind::Read, obj, client, t_inv);
    h.on_response(idx, t_rsp, tag, std::move(value));
    ++rep->reads_completed;
  }
  void write_done(OpId op, ObjectId obj, NodeId client, double t_inv,
                  double t_rsp, Tag tag, Value value) {
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t idx =
        h.on_invoke(op, core::OpKind::Write, obj, client, t_inv);
    h.on_response(idx, t_rsp, tag, std::move(value));
    ++rep->writes_completed;
  }
  void write_unknown(OpId op, ObjectId obj, NodeId client, double t_inv,
                     Value value) {
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t idx =
        h.on_invoke(op, core::OpKind::Write, obj, client, t_inv);
    pending.emplace(value.bytes(), idx);
    ++rep->writes_unknown;
  }

  /// Bind unknown-outcome writes to the tag the server actually assigned:
  /// if any completed read returned an unknown write's (unique) value, that
  /// value IS durable under the read's tag — record it as the write's
  /// payload so P3 accounts for it.  Unmatched writes stay unbound; their
  /// values were never observed, so they constrain nothing.
  void reconcile() {
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t n = h.ops().size();
    for (std::size_t i = 0; i < n; ++i) {
      const core::OpRecord& op = h.ops()[i];
      if (op.kind != core::OpKind::Read || !op.complete) continue;
      auto it = pending.find(op.value.bytes());
      if (it == pending.end()) continue;
      h.set_payload(it->second, op.tag, op.value);
      ++rep->writes_bound;
      pending.erase(it);
    }
  }
};

/// One client value, unique across the whole run: thread and sequence are
/// tattooed into the first 8 bytes (the reconciliation key is the full byte
/// string, so uniqueness makes value -> write injective).
Value make_value(std::uint32_t thread, std::uint32_t seq, std::size_t size,
                 Rng& rng) {
  Bytes b = rng.bytes(size < 8 ? 8 : size);
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<std::uint8_t>(thread >> (8 * i));
    b[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return Value(std::move(b));
}

pid_t spawn_server(const Kill9Options& opt, const std::string& port_file,
                   std::uint64_t seed) {
  std::vector<std::string> args = {
      opt.server_bin,
      "--port", "0",
      "--port-file", port_file,
      "--data-dir", opt.data_dir,
      "--sync", storage::sync_policy_name(opt.sync),
      "--shards", std::to_string(opt.shards),
      "--seed", std::to_string(seed),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // Flush before fork: the child's freopen would otherwise re-emit any
  // buffered parent output into the shared stdout pipe.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, -1)
  // Child: quiet stdout so round banners do not interleave with the
  // harness's own output; stderr stays (verification failures must show).
  std::freopen("/dev/null", "w", stdout);
  ::execv(argv[0], argv.data());
  std::fprintf(stderr, "kill9: execv %s: %s\n", argv[0], std::strerror(errno));
  ::_exit(127);
}

/// Poll for the (atomically published) port file; nullopt if the child
/// exits or the timeout lapses first.  `status` receives the child's wait
/// status when it exited.
std::optional<std::uint16_t> wait_for_port(const std::string& port_file,
                                           pid_t pid, double timeout_s,
                                           int* status) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_s) {
    if (::waitpid(pid, status, WNOHANG) == pid) return std::nullopt;
    Bytes b;
    if (storage::read_file_bytes(port_file, &b).ok() && !b.empty()) {
      const unsigned long p =
          std::strtoul(reinterpret_cast<const char*>(b.data()), nullptr, 10);
      if (p > 0 && p <= 65535) return static_cast<std::uint16_t>(p);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return std::nullopt;
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

  Recorder rec;
  rec.rep = &rep;
  const auto t0 = Clock::now();
  const std::string port_file = opt.data_dir + "/PORT";
  std::atomic<std::uint32_t> seq{0};  // value/op sequence, unique run-wide

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
    auto session = store::RemoteSession::open("127.0.0.1", *port, &open_st);
    if (session == nullptr) {
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
        const NodeId client = static_cast<NodeId>(100 + t);
        while (!stop.load(std::memory_order_acquire)) {
          if (tickets.fetch_add(1, std::memory_order_acq_rel) >=
              opt.ops_per_round) {
            break;
          }
          const auto key_idx = static_cast<ObjectId>(
              rng.uniform_int(0, static_cast<std::int64_t>(opt.keys) - 1));
          const std::string key = "key-" + std::to_string(key_idx);
          const std::uint32_t s = seq.fetch_add(1, std::memory_order_acq_rel);
          const OpId op = make_op_id(client, s);
          if (rng.bernoulli(opt.read_fraction)) {
            const double t_inv = seconds_since(t0);
            store::GetResult r =
                session->get(key, store::ReadMode::Atomic, kOpDeadline);
            const double t_rsp = seconds_since(t0);
            if (r.status.ok()) {
              rec.read_done(op, key_idx, client, t_inv, t_rsp, r.tag,
                            std::move(r.value));
            } else if (r.status.code() == StatusCode::kNotFound) {
              // Key never interned: the register still holds (t0, v0).  A
              // completed read of the initial value — and a real freshness
              // constraint, should a completed write exist for the key.
              rec.read_done(op, key_idx, client, t_inv, t_rsp, kTag0,
                            Value());
            } else {
              std::lock_guard<std::mutex> lk(rec.mu);
              ++rep.reads_failed;
            }
          } else {
            Value v = make_value(static_cast<std::uint32_t>(t), s,
                                 opt.value_size, rng);
            const double t_inv = seconds_since(t0);
            store::PutResult r = session->put(key, v, kOpDeadline);
            const double t_rsp = seconds_since(t0);
            if (r.status.ok() && r.coalesced) {
              // Absorbed by a newer same-key put: durable, but linearized
              // immediately before the survivor and never readable.  Not a
              // history op (its version is the survivor's).
              std::lock_guard<std::mutex> lk(rec.mu);
              ++rep.writes_coalesced;
            } else if (r.status.ok()) {
              rec.write_done(op, key_idx, client, t_inv, t_rsp, r.tag,
                             std::move(v));
            } else if (r.status.code() == StatusCode::kAdmissionReject ||
                       r.status.code() == StatusCode::kInvalidArgument) {
              // Rejected before reaching a writer: definitely not applied.
            } else {
              // The connection died with the reply in flight — the server
              // may have committed it.  Incomplete op; reconcile() binds
              // the tag if any read ever observes the value.
              rec.write_unknown(op, key_idx, client, t_inv, std::move(v));
            }
          }
          if (!session->connected()) break;
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
    session.reset();
    if (opt.verbose) {
      std::fprintf(stderr,
                   "kill9: round %zu done (%s), %zu ops ticketed\n", round,
                   kill_round ? "SIGKILL" : "SIGTERM",
                   tickets.load(std::memory_order_acquire));
    }
  }

  rec.reconcile();
  const auto a = rec.h.check_atomicity(Bytes{});
  rep.atomicity_ok = a.ok;
  const auto f = verify_read_freshness(rec.h);
  rep.freshness_ok = f.ok;
  if (!a.ok) {
    rep.violation = "atomicity: " + a.violation;
  } else if (!f.ok) {
    rep.violation = "freshness: " + f.violation;
  }
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
