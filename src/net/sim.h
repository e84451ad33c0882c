// Discrete-event simulator.
//
// The paper's model of computation is an asynchronous message-passing system
// with reliable point-to-point channels (Section II-a).  A discrete-event
// simulation realizes that model exactly: every message delivery and every
// timer is an event; an execution is the sequence of events ordered by
// (time, insertion order), which makes runs deterministic for a fixed seed.
// Asynchrony is modelled by randomized per-message latencies (see latency.h);
// an adversary is approximated by exploring many seeds.
//
// Events come in two kinds that share one (time, insertion order) sequence:
// closures (timers, posted tasks) and typed message deliveries.  A delivery
// is a record (network, from, to, message) rather than a closure, so sending
// a message allocates no function object.  The heap orders small trivially
// copyable entries; the records themselves sit in reusable slots.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace lds::net {

class Network;
class Payload;
using MessagePtr = std::shared_ptr<const Payload>;

/// Simulated time.  Unit-free; the latency models define the scale (we use
/// "1.0 == tau1" in most benches).
using SimTime = double;

class Simulator {
 public:
  using Fn = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now).
  void at(SimTime t, Fn fn);

  /// Schedule `fn` to run `delay` time units from now.
  void after(SimTime delay, Fn fn) { at(now_ + delay, std::move(fn)); }

  /// Schedule the delivery of `msg` from `from` to `to` on `net`, `delay`
  /// time units from now.  At its turn the event runs `net`'s delivery
  /// (drop if the destination is gone or crashed, observer, on_message).
  void deliver_after(SimTime delay, Network* net, NodeId from, NodeId to,
                     MessagePtr msg);

  bool idle() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Run the next event; returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `max_events` have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Run events with time <= t_end (or until drained); advances now() to
  /// t_end if the queue drains earlier.  Returns events executed.
  std::size_t run_until(SimTime t_end);

  std::uint64_t events_executed() const { return executed_; }

 private:
  /// One queued event: its order key and the slot of its record.
  struct Entry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
    bool delivery;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;  // FIFO among same-time events
    }
  };
  struct Delivery {
    Network* net = nullptr;
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    MessagePtr msg;
  };
  /// Records of queued events, in slots reused once their event has run.
  template <typename T>
  struct Slots {
    std::vector<T> items;
    std::vector<std::uint32_t> free;

    std::uint32_t put(T item) {
      if (free.empty()) {
        items.push_back(std::move(item));
        return static_cast<std::uint32_t>(items.size() - 1);
      }
      const std::uint32_t slot = free.back();
      free.pop_back();
      items[slot] = std::move(item);
      return slot;
    }
    T take(std::uint32_t slot) {
      T item = std::move(items[slot]);
      free.push_back(slot);
      return item;
    }
  };

  void push(SimTime t, std::uint32_t slot, bool delivery);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // a binary heap under Later
  Slots<Fn> closures_;
  Slots<Delivery> deliveries_;
};

}  // namespace lds::net
