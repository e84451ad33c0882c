#include "harness/reconfig.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/stress.h"
#include "lds/history.h"
#include "member/controller.h"
#include "member/view.h"
#include "storage/fsutil.h"
#include "store/remote.h"

namespace lds::harness {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-op wall-clock deadline.  Must comfortably cover a view change's
/// quiesce window (dispatch pauses for drain + activation, a few seconds
/// worst-case) — an op invoked just before the pause completes after resume.
constexpr double kOpDeadline = 10.0;

/// Moves block through propose + quiesce + activate + state-sync.
constexpr double kMoveDeadline = 60.0;

/// Shared recording state, identical in structure to the kill9 harness:
/// ops are recorded AFTER they return, under one mutex, with the real
/// invocation/response times — post-hoc recording preserves the real-time
/// precedence relation the checkers consume.
struct Recorder {
  std::mutex mu;
  core::History h;
  /// Unknown-outcome writes awaiting a tag: value bytes -> history index.
  std::map<Bytes, std::size_t> pending;
  ReconfigReport* rep;

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

  /// Bind unknown-outcome writes observed by completed reads (see kill9.h
  /// for the full rationale; values are unique so value -> write is
  /// injective).
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

Value make_value(std::uint32_t thread, std::uint32_t seq, std::size_t size,
                 Rng& rng) {
  Bytes b = rng.bytes(size < 8 ? 8 : size);
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<std::uint8_t>(thread >> (8 * i));
    b[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return Value(std::move(b));
}

pid_t spawn(const std::vector<std::string>& args) {
  std::vector<std::string> copy = args;
  std::vector<char*> argv;
  argv.reserve(copy.size() + 1);
  for (auto& a : copy) argv.push_back(a.data());
  argv.push_back(nullptr);
  // Flush before fork: the child's freopen would otherwise re-emit any
  // buffered parent output into the shared stdout pipe.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, -1)
  // Child: quiet stdout; stderr stays (verification failures must show).
  std::freopen("/dev/null", "w", stdout);
  ::execv(argv[0], argv.data());
  std::fprintf(stderr, "reconfig: execv %s: %s\n", argv[0],
               std::strerror(errno));
  ::_exit(127);
}

/// Poll for an (atomically published) port file; nullopt if the child exits
/// or the timeout lapses first.
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

struct Child {
  pid_t pid = -1;
  std::uint16_t member_port = 0;
};

/// Spawn one member peer and wait for its member port.
std::optional<Child> spawn_peer(const ReconfigOptions& opt,
                                std::uint16_t head_mport,
                                const std::string& node_ids,
                                const std::string& port_file,
                                std::uint64_t seed, std::string* err) {
  std::remove(port_file.c_str());
  const pid_t pid = spawn({
      opt.server_bin,
      "--join", "127.0.0.1:" + std::to_string(head_mport),
      "--node-ids", node_ids,
      "--member-port", "0",
      "--member-port-file", port_file,
      "--seed", std::to_string(seed),
  });
  if (pid < 0) {
    *err = "reconfig: fork (peer) failed";
    return std::nullopt;
  }
  int status = 0;
  const auto port = wait_for_port(port_file, pid, 30.0, &status);
  if (!port) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    *err = "reconfig: peer claiming " + node_ids +
           " never published a member port";
    return std::nullopt;
  }
  return Child{pid, *port};
}

/// Poll the controller until the head's epoch reaches `want` (joins and
/// rejoins are applied asynchronously by the coordinator worker).
bool wait_epoch(member::Controller& ctl, std::uint64_t want, double timeout_s,
                std::uint64_t* out) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_s) {
    const auto e = ctl.epoch(5.0);
    if (e.ok()) {
      *out = e.value();
      if (e.value() >= want) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

}  // namespace

ReconfigReport run_reconfig(const ReconfigOptions& opt) {
  ReconfigReport rep;
  auto fail = [&rep](std::string why) {
    rep.violation = std::move(why);
    return rep;
  };
  if (opt.server_bin.empty() || opt.work_dir.empty()) {
    return fail("reconfig: --server-bin and --work-dir are required");
  }
  if (opt.threads == 0 || opt.keys == 0 || opt.ops_per_round == 0) {
    return fail("reconfig: threads, keys and ops-per-round must be positive");
  }
  if (auto st = storage::wipe_dir(opt.work_dir); !st.ok()) {
    return fail("reconfig: wipe " + opt.work_dir + ": " + st.message());
  }
  const std::string view_dir = opt.work_dir + "/view";

  // ---- spawn the head (store + coordinator) --------------------------------
  const std::string head_port_file = opt.work_dir + "/head-port";
  const std::string head_mport_file = opt.work_dir + "/head-mport";
  const pid_t head = spawn({
      opt.server_bin,
      "--port", "0",
      "--port-file", head_port_file,
      "--shards", "1",
      "--member-port", "0",
      "--member-port-file", head_mport_file,
      "--member-dir", view_dir,
      "--seed", std::to_string(opt.seed),
  });
  if (head < 0) return fail("reconfig: fork (head) failed");
  auto reap_head = [&](int sig) {
    int status = 0;
    ::kill(head, sig);
    ::waitpid(head, &status, 0);
    return status;
  };
  int status = 0;
  const auto head_port = wait_for_port(head_port_file, head, 30.0, &status);
  const auto head_mport =
      head_port ? wait_for_port(head_mport_file, head, 30.0, &status)
                : std::nullopt;
  if (!head_port || !head_mport) {
    reap_head(SIGKILL);
    return fail("reconfig: head never published its ports");
  }

  // ---- join two peers: L2 #6,#7 -> peer1 and #4,#5 -> peer2 ----------------
  // Default geometry n2=8, f2=2: each peer holds at most f2 L2 servers, so
  // one dead peer never exceeds the protocol's fault budget.
  std::string err;
  auto peer1 = spawn_peer(opt, *head_mport, "30006,30007",
                          opt.work_dir + "/p1-mport", opt.seed + 101, &err);
  if (!peer1) {
    reap_head(SIGKILL);
    return fail(std::move(err));
  }
  ++rep.peers_started;
  auto peer2 = spawn_peer(opt, *head_mport, "30004,30005",
                          opt.work_dir + "/p2-mport", opt.seed + 102, &err);
  if (!peer2) {
    ::kill(peer1->pid, SIGKILL);
    ::waitpid(peer1->pid, &status, 0);
    reap_head(SIGKILL);
    return fail(std::move(err));
  }
  ++rep.peers_started;

  auto cleanup_all = [&](std::string why) {
    ::kill(peer1->pid, SIGKILL);
    ::kill(peer2->pid, SIGKILL);
    ::waitpid(peer1->pid, &status, 0);
    ::waitpid(peer2->pid, &status, 0);
    reap_head(SIGKILL);
    return fail(std::move(why));
  };

  Status open_st;
  auto session = store::RemoteSession::open("127.0.0.1", *head_port, &open_st);
  auto ctl_session =
      session ? store::RemoteSession::open("127.0.0.1", *head_port, &open_st)
              : nullptr;
  if (ctl_session == nullptr) {
    return cleanup_all("reconfig: connect: " + open_st.to_string());
  }
  member::Controller ctl(*ctl_session);

  // Bootstrap = epoch 1; each join activates one more.
  if (!wait_epoch(ctl, 3, 30.0, &rep.final_epoch)) {
    return cleanup_all("reconfig: joins never activated (epoch " +
                       std::to_string(rep.final_epoch) + " < 3)");
  }

  // ---- concurrent client workload ------------------------------------------
  Recorder rec;
  rec.rep = &rep;
  const auto t0 = Clock::now();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops_done{0};
  std::atomic<std::uint32_t> seq{0};
  std::vector<std::thread> workers;
  workers.reserve(opt.threads);
  for (std::size_t t = 0; t < opt.threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(mix_seed(opt.seed, t + 1));
      const NodeId client = static_cast<NodeId>(100 + t);
      while (!stop.load(std::memory_order_acquire)) {
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
            rec.read_done(op, key_idx, client, t_inv, t_rsp, kTag0, Value());
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
            std::lock_guard<std::mutex> lk(rec.mu);
            ++rep.writes_coalesced;
          } else if (r.status.ok()) {
            rec.write_done(op, key_idx, client, t_inv, t_rsp, r.tag,
                           std::move(v));
          } else if (r.status.code() == StatusCode::kAdmissionReject ||
                     r.status.code() == StatusCode::kInvalidArgument) {
            // Rejected before reaching a writer: definitely not applied.
          } else {
            rec.write_unknown(op, key_idx, client, t_inv, std::move(v));
          }
        }
        ops_done.fetch_add(1, std::memory_order_acq_rel);
        if (!session->connected()) break;
      }
    });
  }
  auto stop_workers = [&] {
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    workers.clear();
  };
  /// Let at least `n` more client ops finish under the current view.
  auto pace = [&](std::size_t n) {
    const std::uint64_t want = ops_done.load(std::memory_order_acquire) + n;
    const auto p0 = Clock::now();
    while (ops_done.load(std::memory_order_acquire) < want &&
           seconds_since(p0) < 60.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };

  // ---- churn: bounce L2 #3 between the head and peer1 ----------------------
  pace(opt.ops_per_round);
  for (std::size_t m = 0; m < opt.moves; ++m) {
    const bool out = m % 2 == 0;
    const auto r = out ? ctl.move_l2({3}, "127.0.0.1", peer1->member_port,
                                     kMoveDeadline)
                       : ctl.move_l2_home({3}, kMoveDeadline);
    if (!r.ok()) {
      stop_workers();
      return cleanup_all("reconfig: move " + std::to_string(m) + " (" +
                         (out ? "out" : "home") +
                         "): " + r.status().to_string());
    }
    rep.final_epoch = r.value();
    ++rep.moves_applied;
    if (opt.verbose) {
      std::fprintf(stderr, "reconfig: move %zu (%s) -> epoch %llu\n", m,
                   out ? "head->peer1" : "peer1->head",
                   static_cast<unsigned long long>(r.value()));
    }
    pace(opt.ops_per_round);
  }

  // ---- SIGKILL mid-reconfig ------------------------------------------------
  if (opt.kill_mid_move) {
    const std::uint64_t before = rep.final_epoch;
    std::mutex mmu;
    std::condition_variable mcv;
    bool mdone = false;
    // Pull L2 #5 home; peer2 (its current host) dies while the change is in
    // flight.  The coordinator's ack waits are bounded, so the move still
    // activates — a dead peer only costs timeouts, never liveness.
    ctl.async_move_l2({5}, "", 0,
                      [&](Status, std::uint64_t) {
                        std::lock_guard<std::mutex> lk(mmu);
                        mdone = true;
                        mcv.notify_one();
                      },
                      kMoveDeadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ::kill(peer2->pid, SIGKILL);
    ::waitpid(peer2->pid, &status, 0);
    ++rep.kills;
    {
      std::unique_lock<std::mutex> lk(mmu);
      if (!mcv.wait_for(lk, std::chrono::seconds(90),
                        [&] { return mdone; })) {
        stop_workers();
        ::kill(peer1->pid, SIGKILL);
        ::waitpid(peer1->pid, &status, 0);
        reap_head(SIGKILL);
        return fail("reconfig: move never completed after SIGKILL");
      }
    }
    pace(opt.ops_per_round / 2);
    // Restart peer2 on the same claims: it re-joins under a fresh epoch and
    // is re-synced from scratch (a rejoined process always starts empty).
    peer2 = spawn_peer(opt, *head_mport, "30004,30005",
                       opt.work_dir + "/p2-mport", opt.seed + 103, &err);
    if (!peer2) {
      stop_workers();
      ::kill(peer1->pid, SIGKILL);
      ::waitpid(peer1->pid, &status, 0);
      reap_head(SIGKILL);
      return fail(std::move(err));
    }
    ++rep.peers_started;
    if (!wait_epoch(ctl, before + 2, 60.0, &rep.final_epoch)) {
      stop_workers();
      return cleanup_all("reconfig: peer2 rejoin never activated (epoch " +
                         std::to_string(rep.final_epoch) + ")");
    }
    if (opt.verbose) {
      std::fprintf(stderr, "reconfig: SIGKILL + rejoin -> epoch %llu\n",
                   static_cast<unsigned long long>(rep.final_epoch));
    }
    pace(opt.ops_per_round);
  }

  // ---- shutdown + verdict --------------------------------------------------
  stop_workers();
  session.reset();
  ctl_session.reset();

  rep.peers_clean = true;
  for (const auto* p : {&*peer1, &*peer2}) {
    ::kill(p->pid, SIGTERM);
    ::waitpid(p->pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      rep.peers_clean = false;
    }
  }
  status = reap_head(SIGTERM);
  rep.server_verified = WIFEXITED(status) && WEXITSTATUS(status) == 0;

  // The acceptance bit for durability: the final epoch's view must be
  // recoverable from the head's member dir.
  if (auto loaded = member::View::load(view_dir);
      loaded.ok() && loaded.value().has_value()) {
    rep.persisted_epoch = loaded.value()->epoch;
    rep.view_recovered = rep.persisted_epoch >= rep.final_epoch;
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
  } else if (!rep.server_verified) {
    rep.violation = "reconfig: head exit status " + std::to_string(status) +
                    " (server-side verification failed)";
  } else if (!rep.peers_clean) {
    rep.violation = "reconfig: a peer did not exit cleanly on SIGTERM";
  } else if (!rep.view_recovered) {
    rep.violation = "reconfig: persisted epoch " +
                    std::to_string(rep.persisted_epoch) +
                    " behind final epoch " + std::to_string(rep.final_epoch);
  }
  return rep;
}

std::string format_reconfig_report(const ReconfigOptions& opt,
                                   const ReconfigReport& rep) {
  std::ostringstream os;
  os << "reconfig: " << rep.peers_started << " peers started, "
     << rep.moves_applied << " moves applied, " << rep.kills
     << " SIGKILLs, final epoch " << rep.final_epoch << " (persisted "
     << rep.persisted_epoch << "), work_dir=" << opt.work_dir << "\n"
     << "reconfig: writes " << rep.writes_completed << " completed, "
     << rep.writes_unknown << " unknown (" << rep.writes_bound
     << " bound by reads), " << rep.writes_coalesced << " coalesced; reads "
     << rep.reads_completed << " completed, " << rep.reads_failed
     << " failed\n"
     << "reconfig: atomicity " << (rep.atomicity_ok ? "OK" : "VIOLATION")
     << ", freshness " << (rep.freshness_ok ? "OK" : "VIOLATION")
     << ", head self-check " << (rep.server_verified ? "OK" : "FAILED")
     << ", peers " << (rep.peers_clean ? "OK" : "FAILED") << ", view "
     << (rep.view_recovered ? "RECOVERED" : "LOST") << "\n";
  if (!rep.violation.empty()) os << "reconfig: " << rep.violation << "\n";
  os << (rep.ok() ? "reconfig: PASS" : "reconfig: FAIL") << "\n";
  return os.str();
}

}  // namespace lds::harness
