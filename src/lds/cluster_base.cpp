#include "lds/cluster_base.h"

#include "common/assert.h"

namespace lds::core {

Cluster::Cluster(net::Engine* engine, std::size_t lane, std::uint64_t seed,
                 std::unique_ptr<net::LatencyModel> latency)
    : engine_(engine) {
  if (engine_ == nullptr) {
    owned_engine_ = std::make_unique<net::SimEngine>(seed);
    engine_ = owned_engine_.get();
    lane = 0;
  }
  sim_ = &engine_->lane_sim(lane);
  net_ = std::make_unique<net::Network>(*engine_, lane, std::move(latency),
                                        seed);
}

Cluster::~Cluster() = default;

Tag Cluster::write_sync(std::size_t writer, ObjectId obj, Value value) {
  std::optional<Tag> tag;
  write(writer, obj, std::move(value), [&](Tag t) { tag = t; });
  while (!tag && sim_->step()) {
  }
  LDS_REQUIRE(tag.has_value(), "write_sync: simulation drained first");
  return *tag;
}

std::pair<Tag, Value> Cluster::read_sync(std::size_t reader, ObjectId obj) {
  std::optional<std::pair<Tag, Value>> out;
  read(reader, obj, [&](Tag t, Value v) { out.emplace(t, std::move(v)); });
  while (!out && sim_->step()) {
  }
  LDS_REQUIRE(out.has_value(), "read_sync: simulation drained first");
  return std::move(*out);
}

FailureBudget::FailureBudget(std::vector<FaultLayer> layers)
    : layers_(std::move(layers)),
      counts_(std::make_unique<std::atomic<std::size_t>[]>(layers_.size())) {
  LDS_REQUIRE(layers_.size() == 1 || layers_.size() == 2,
              "FailureBudget: one or two fault layers");
  for (const FaultLayer& l : layers_) {
    LDS_REQUIRE(l.f < l.n, "FailureBudget: need f < n");
    down_.emplace_back(l.n, false);
  }
}

std::optional<FailureBudget::Victim> FailureBudget::pick(Rng& rng) {
  if (layers_.empty()) return std::nullopt;
  const std::size_t last = layers_.size() - 1;
  const bool room_last = has_room(last);
  const bool room_first = last == 1 && has_room(0);
  if (!room_first && !room_last) return std::nullopt;
  const std::size_t layer =
      room_last && (!room_first || rng.bernoulli(0.5)) ? last : 0;
  std::vector<std::size_t> healthy;
  for (std::size_t i = 0; i < down_[layer].size(); ++i) {
    if (!down_[layer][i]) healthy.push_back(i);
  }
  const std::size_t index = healthy[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(healthy.size()) - 1))];
  mark_down(layer, index);
  return Victim{layer, index};
}

void FailureBudget::mark_down(std::size_t layer, std::size_t index) {
  LDS_REQUIRE(!down_.at(layer).at(index), "FailureBudget: already down");
  down_[layer][index] = true;
  counts_[layer].fetch_add(1, std::memory_order_acq_rel);
}

void FailureBudget::mark_up(std::size_t layer, std::size_t index) {
  if (!down_.at(layer).at(index)) return;
  down_[layer][index] = false;
  counts_[layer].fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace lds::core
