#include "harness/process.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "harness/stress.h"
#include "storage/fsutil.h"

namespace lds::harness {

namespace {

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

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
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
  // Child: quiet stdout so its banners do not interleave with the harness's
  // own output.
  std::freopen("/dev/null", "w", stdout);
  ::execv(argv[0], argv.data());
  std::fprintf(stderr, "spawn: execv %s: %s\n", argv[0], std::strerror(errno));
  ::_exit(127);
}

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

Recorder::Recorder(ClientReport* rep, std::size_t keys, std::size_t value_size,
                   double read_fraction, double op_deadline)
    : rep_(rep),
      keys_(keys),
      value_size_(value_size),
      read_fraction_(read_fraction),
      op_deadline_(op_deadline) {}

void Recorder::record(OpId op, core::OpKind kind, ObjectId obj, NodeId client,
                      double t_inv, double t_rsp, Tag tag, Value value) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t idx = h_.on_invoke(op, kind, obj, client, t_inv);
  h_.on_response(idx, t_rsp, tag, std::move(value));
  ++(kind == core::OpKind::Read ? rep_->reads_completed
                                : rep_->writes_completed);
}

void Recorder::write_unknown(OpId op, ObjectId obj, NodeId client,
                             double t_inv, Value value) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t idx =
      h_.on_invoke(op, core::OpKind::Write, obj, client, t_inv);
  pending_.emplace(value.bytes(), idx);
  ++rep_->writes_unknown;
}

bool Recorder::step(store::Client& client, std::uint32_t thread, Rng& rng) {
  const auto key_idx = static_cast<ObjectId>(
      rng.uniform_int(0, static_cast<std::int64_t>(keys_) - 1));
  const std::string key = "key-" + std::to_string(key_idx);
  const std::uint32_t s = seq_.fetch_add(1, std::memory_order_acq_rel);
  const NodeId who = static_cast<NodeId>(100 + thread);
  const OpId op = make_op_id(who, s);
  store::OpOptions opts;
  opts.deadline = op_deadline_;
  if (rng.bernoulli(read_fraction_)) {
    const double t_inv = seconds_since(t0_);
    store::GetResult r;
    client.get(key, [&r](const store::GetResult& g) { r = g; }, opts);
    const double t_rsp = seconds_since(t0_);
    if (r.status.ok()) {
      record(op, core::OpKind::Read, key_idx, who, t_inv, t_rsp, r.tag,
             std::move(r.value));
    } else if (r.status.code() == StatusCode::kNotFound) {
      // Key never interned: the register still holds (t0, v0).  A completed
      // read of the initial value — and a real freshness constraint, should
      // a completed write exist for the key.
      record(op, core::OpKind::Read, key_idx, who, t_inv, t_rsp, kTag0,
             Value());
    } else {
      std::lock_guard<std::mutex> lk(mu_);
      ++rep_->reads_failed;
    }
    return !r.status.is(StatusCode::kUnavailable);
  }
  Value v = make_value(thread, s, value_size_, rng);
  const double t_inv = seconds_since(t0_);
  store::PutResult r;
  client.put(key, v, [&r](const store::PutResult& p) { r = p; }, opts);
  const double t_rsp = seconds_since(t0_);
  if (r.status.ok() && r.coalesced) {
    // Absorbed by a newer same-key put: durable, but linearized immediately
    // before the survivor and never readable.  Not a history op (its
    // version is the survivor's).
    std::lock_guard<std::mutex> lk(mu_);
    ++rep_->writes_coalesced;
  } else if (r.status.ok()) {
    record(op, core::OpKind::Write, key_idx, who, t_inv, t_rsp, r.tag,
           std::move(v));
  } else if (r.status.code() == StatusCode::kAdmissionReject ||
             r.status.code() == StatusCode::kInvalidArgument) {
    // Rejected before reaching a writer: definitely not applied.
  } else {
    // The connection died with the reply in flight — the server may have
    // committed it.  Incomplete op; verdict() binds the tag if any read
    // ever observes the value.
    write_unknown(op, key_idx, who, t_inv, std::move(v));
  }
  return !r.status.is(StatusCode::kUnavailable);
}

bool Recorder::verdict() {
  std::lock_guard<std::mutex> lk(mu_);
  // Reconcile: if a completed read returned an unknown write's (unique)
  // value, that value IS durable under the read's tag — record it as the
  // write's payload so P3 accounts for it.  Unmatched writes stay unbound;
  // their values were never observed, so they constrain nothing.
  for (const core::OpRecord& op : h_.ops()) {
    if (op.kind != core::OpKind::Read || !op.complete) continue;
    const auto it = pending_.find(op.value.bytes());
    if (it == pending_.end()) continue;
    h_.set_payload(it->second, op.tag, op.value);
    ++rep_->writes_bound;
    pending_.erase(it);
  }
  const auto a = h_.check_atomicity(Bytes{});
  rep_->atomicity_ok = a.ok;
  const auto f = verify_read_freshness(h_);
  rep_->freshness_ok = f.ok;
  if (!a.ok) {
    rep_->violation = "atomicity: " + a.violation;
  } else if (!f.ok) {
    rep_->violation = "freshness: " + f.violation;
  }
  return a.ok && f.ok;
}

}  // namespace lds::harness
