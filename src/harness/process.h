// Shared pieces of the multi-process harnesses (kill9.h, reconfig.h): child
// process control, and the client side — store::Client workers whose every
// observed operation lands in one merged History that the two checkers then
// judge.
//
// Ops are recorded AFTER they return, under one mutex, with the invocation/
// response times captured around the call — History's checkers only consume
// the recorded timestamps, so post-hoc recording preserves the real-time
// precedence relation exactly.
//
// Writes the server may or may not have applied (the connection died with
// the reply in flight) are recorded as INCOMPLETE ops.  Every written value
// is unique (thread, seq tattooed into the bytes), so the verdict's
// reconciliation pass can bind each such write to the tag the server
// actually gave it iff some completed read returned its value — exactly the
// History::set_payload contract ("a read may legitimately return the value
// of a write that never completed").
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lds/history.h"
#include "store/client.h"

namespace lds::harness {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Fork + exec `args` (args[0] is the binary) with stdout quieted; stderr
/// stays, since verification failures must show.  -1 when fork fails.
pid_t spawn(const std::vector<std::string>& args);

/// Poll for an (atomically published) port file; nullopt if the child exits
/// or the timeout lapses first.  `status` receives the child's wait status
/// when it exited.
std::optional<std::uint16_t> wait_for_port(const std::string& port_file,
                                           pid_t pid, double timeout_s,
                                           int* status);

/// What a harness's client workers observed, and the checkers' verdict on
/// it.  Kill9Report and ReconfigReport extend it.
struct ClientReport {
  std::size_t writes_completed = 0;
  std::size_t writes_unknown = 0;  ///< connection died with reply in flight
  std::size_t writes_bound = 0;    ///< unknowns bound to a tag by a read
  std::size_t writes_coalesced = 0;
  std::size_t reads_completed = 0;
  std::size_t reads_failed = 0;
  bool atomicity_ok = false;
  bool freshness_ok = false;
  std::string violation;  ///< first checker violation or setup error
};

/// The merged client history of one harness run.
class Recorder {
 public:
  /// Workers pick keys from `keys` names, read with probability
  /// `read_fraction`, write `value_size`-byte values, and give every op
  /// `op_deadline` wall-clock seconds.
  Recorder(ClientReport* rep, std::size_t keys, std::size_t value_size,
           double read_fraction, double op_deadline);

  /// One worker op through `client`, recorded by its outcome.  False when
  /// the op found the server unreachable (Unavailable): the worker stops.
  bool step(store::Client& client, std::uint32_t thread, Rng& rng);

  /// Bind unknown writes to the tags reads observed, then run
  /// History::check_atomicity and verify_read_freshness.  Sets the report's
  /// verdict (violation on failure); true when both pass.
  bool verdict();

 private:
  void record(OpId op, core::OpKind kind, ObjectId obj, NodeId client,
              double t_inv, double t_rsp, Tag tag, Value value);
  void write_unknown(OpId op, ObjectId obj, NodeId client, double t_inv,
                     Value value);

  ClientReport* rep_;
  const std::size_t keys_;
  const std::size_t value_size_;
  const double read_fraction_;
  const double op_deadline_;
  const Clock::time_point t0_ = Clock::now();
  std::atomic<std::uint32_t> seq_{0};  ///< value/op sequence, unique run-wide
  std::mutex mu_;
  core::History h_;
  /// Unknown-outcome writes awaiting a tag: value bytes -> history index.
  std::map<Bytes, std::size_t> pending_;
};

}  // namespace lds::harness
