// member::Coordinator — the head process's view-change driver.
//
// One worker thread serializes every membership operation (a join request, a
// controller-driven move, a ViewFetch catch-up); the fabric's control frames
// feed it.  Each change runs the same protocol:
//
//   build next view (epoch + 1)
//     -> propose locally + ViewPropose to every member process
//     -> collect ViewAcks (bounded wait; dead peers simply time out)
//     -> quiesce: pause client dispatch, drain dispatched ops, drain the
//        fabric's send backlogs (all old-epoch traffic is on the wire)
//     -> activate locally (runs the host's placement-surgery hook) and
//        ViewActivate every peer, collecting activation acks — the
//        load-bearing liveness step: when dispatch resumes, every LIVE
//        process is at the new epoch, so post-resume quorums only lose the
//        <= f2 servers of genuinely dead processes
//     -> resume dispatch
//     -> state-sync: SyncL2 to processes that gained an L2 (they repair via
//        the cross-process replace_l2 flow and answer SyncDone), and the
//        host's repair hook for L2s that came home.  Both run the one L2
//        recovery loop (core::regenerate_objects), which re-runs an object
//        whose repair rounds all raced writes until it converges, and
//        keeps running after the wait gives up (Timeouts::sync_s).  No
//        repair scheduler runs under a fabric: a server whose loop cannot
//        finish (its process died) stays partly empty until a later move
//        or re-join syncs it again — the protocol tolerates f2 of those.
//
// The epoch-tagged envelope fencing (fabric.h) guarantees no server ever
// processes a frame from a configuration other than its own.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "member/fabric.h"

namespace lds::member {

class Coordinator {
 public:
  /// Seams into the hosting StoreService (all may be empty for tests).
  struct Hooks {
    std::function<void()> pause;          ///< stop dispatching client ops
    std::function<bool(double)> drain;    ///< wait dispatched ops complete
    std::function<void()> resume;
    /// Objects currently interned on the fabric-backed shard.
    std::function<std::vector<ObjectId>()> objects;
    /// Regenerate L2 `index` (just adopted home) from its peers; `done`
    /// fires with (repaired, missed) object counts.
    std::function<void(std::size_t,
                       std::function<void(std::uint32_t, std::uint32_t)>)>
        repair_local;
  };

  struct Timeouts {
    double propose_ack_s = 2.0;
    double drain_s = 2.0;
    double quiesce_s = 1.0;
    double activate_ack_s = 2.0;
    double sync_s = 30.0;
  };

  using MoveCallback = std::function<void(Status, std::uint64_t epoch)>;

  /// Installs itself as `fabric`'s control handler.  The fabric must outlive
  /// the coordinator, and Fabric::stop() must run BEFORE the coordinator is
  /// destroyed (a progress thread may hold a copy of the handler mid-call).
  Coordinator(Fabric& fabric, Hooks hooks)
      : Coordinator(fabric, std::move(hooks), Timeouts{}) {}
  Coordinator(Fabric& fabric, Hooks hooks, Timeouts timeouts);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Queue a move of L2 servers `indices` to the member process at
  /// host:port (must already be joined; matched by endpoint) or back to the
  /// head process when `host` is empty.  `done(status, epoch)` fires on the
  /// worker thread after state-sync finished (or was given up on).
  void move_l2(std::vector<std::uint32_t> indices, std::string host,
               std::uint16_t port, MoveCallback done);

  std::uint64_t epoch() const { return fabric_.epoch(); }
  /// Epochs this coordinator activated (for status output).
  std::uint64_t changes_applied() const;

  void stop();

 private:
  struct Op {
    enum class Kind { Join, Move, Fetch } kind = Kind::Fetch;
    // Join
    NodeId conn = kNoNode;
    std::uint16_t listen_port = 0;
    std::vector<NodeId> claims;
    // Move
    std::vector<std::uint32_t> indices;
    std::string host;
    std::uint16_t port = 0;
    MoveCallback done;
  };

  void on_control(NodeId conn, ProcessId from, const MemberBody& body);
  void worker();
  void run_join(Op op);
  void run_move(Op op);
  void run_fetch(Op op);
  /// The shared change protocol; `next` must be geometry-compatible with
  /// the active view and carry epoch active+1.  Returns the set of member
  /// processes that acked activation (definitely at the new epoch).
  Status apply_change(View next);
  /// State-sync one L2 index to its (new) owner.  Local owners repair via
  /// hooks_.repair_local; remote owners get SyncL2 and we await SyncDone.
  void sync_l2(const View& v, std::uint32_t index);
  void begin_ack_wait(std::uint64_t epoch);
  /// Wait until every process in `procs` responded (ack or nack) or the
  /// timeout expired; returns the processes that POSITIVELY acked.
  std::set<ProcessId> wait_acks(std::uint64_t epoch,
                                const std::set<ProcessId>& procs,
                                double timeout_s);
  std::optional<SyncDone> wait_sync_done(std::uint64_t epoch,
                                         std::uint32_t index,
                                         double timeout_s);
  ProcessId process_for_endpoint(const View& v, const std::string& host,
                                 std::uint16_t port) const;

  Fabric& fabric_;
  Hooks hooks_;
  Timeouts to_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Op> queue_;
  bool stopping_ = false;
  std::uint64_t changes_ = 0;

  // Ack collection (progress threads write, worker waits).
  std::mutex ack_mu_;
  std::condition_variable ack_cv_;
  std::uint64_t ack_epoch_ = 0;
  std::set<ProcessId> acked_, nacked_;
  std::vector<SyncDone> sync_done_;

  std::thread worker_;
};

}  // namespace lds::member
