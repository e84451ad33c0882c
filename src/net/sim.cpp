#include "net/sim.h"

#include <algorithm>
#include <utility>

#include "net/network.h"

namespace lds::net {

void Simulator::push(SimTime t, std::uint32_t slot, bool delivery) {
  heap_.push_back(Entry{t, next_seq_++, slot, delivery});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::at(SimTime t, Fn fn) {
  LDS_REQUIRE(t >= now_, "Simulator::at: cannot schedule in the past");
  LDS_REQUIRE(fn != nullptr, "Simulator::at: null event");
  push(t, closures_.put(std::move(fn)), /*delivery=*/false);
}

void Simulator::deliver_after(SimTime delay, Network* net, NodeId from,
                              NodeId to, MessagePtr msg) {
  const SimTime t = now_ + delay;
  LDS_REQUIRE(t >= now_, "Simulator::deliver_after: delivery in the past");
  LDS_REQUIRE(net != nullptr && msg != nullptr,
              "Simulator::deliver_after: null network or message");
  push(t, deliveries_.put(Delivery{net, from, to, std::move(msg)}),
       /*delivery=*/true);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry ev = heap_.back();
  heap_.pop_back();
  now_ = ev.t;
  // The record leaves its slot before it runs: the event may schedule
  // others, which can reuse the slot or grow the slot vector.
  if (ev.delivery) {
    const Delivery d = deliveries_.take(ev.slot);
    d.net->deliver_now(d.from, d.to, d.msg);
  } else {
    const Fn fn = closures_.take(ev.slot);
    fn();
  }
  ++executed_;
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime t_end) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().t <= t_end) {
    step();
    ++n;
  }
  if (now_ < t_end) now_ = t_end;
  return n;
}

}  // namespace lds::net
