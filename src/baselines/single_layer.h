// SingleLayerCluster: what the ABD and CAS baselines share on top of
// core::Cluster — one fault layer of n servers (ids 20000+i) and pools of
// writer (ids 1+w) and reader (ids 10000+r) clients, all built on the base's
// network.  The protocol supplies the context, server and client types.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "lds/cluster_base.h"

namespace lds::baselines {

template <typename Context, typename Server, typename Client>
class SingleLayerCluster : public core::Cluster {
 public:
  void write(std::size_t writer, ObjectId obj, Value value,
             WriteCallback cb = {}) override {
    writers_.at(writer)->write(obj, std::move(value), std::move(cb));
  }
  void read(std::size_t reader, ObjectId obj, ReadCallback cb = {}) override {
    readers_.at(reader)->read(obj, std::move(cb));
  }
  std::vector<core::FaultLayer> fault_layers() const override {
    return {{servers_.size(), f_}};
  }
  /// One fault layer (0): the servers.
  void crash(std::size_t layer, std::size_t index) override {
    LDS_REQUIRE(layer == 0, "SingleLayerCluster::crash: one fault layer");
    crash_server(index);
  }

  const Context& ctx() const { return *ctx_; }
  Client& writer(std::size_t i) { return *writers_.at(i); }
  Client& reader(std::size_t i) { return *readers_.at(i); }
  Server& server(std::size_t i) { return *servers_.at(i); }
  void crash_server(std::size_t i) { servers_.at(i)->crash(); }

  std::uint64_t storage_bytes() const {
    std::uint64_t total = 0;
    for (const auto& s : servers_) total += s->stored_bytes();
    return total;
  }

 protected:
  /// `opt` supplies engine/lane/seed/tau1/exponential_latency and the pool
  /// sizes; `ctx` the protocol state (its server ids are filled in here);
  /// `f` the crash budget.
  template <typename Options>
  SingleLayerCluster(const Options& opt, std::shared_ptr<Context> ctx,
                     std::size_t f)
      : Cluster(opt.engine, opt.lane, opt.seed,
                latency(opt.tau1, opt.exponential_latency)),
        ctx_(std::move(ctx)),
        f_(f) {
    for (std::size_t i = 0; i < ctx_->n; ++i) {
      ctx_->server_ids.push_back(20000 + static_cast<NodeId>(i));
    }
    for (std::size_t i = 0; i < ctx_->n; ++i) {
      servers_.push_back(std::make_unique<Server>(net(), ctx_, i));
    }
    for (std::size_t w = 0; w < opt.writers; ++w) {
      writers_.push_back(std::make_unique<Client>(
          net(), ctx_, static_cast<NodeId>(1 + w), Role::Writer, &history()));
    }
    for (std::size_t r = 0; r < opt.readers; ++r) {
      readers_.push_back(std::make_unique<Client>(
          net(), ctx_, 10000 + static_cast<NodeId>(r), Role::Reader,
          &history()));
    }
  }

 private:
  /// One delay class for every link: exactly `tau`, or exponential with
  /// mean `tau`.
  static std::unique_ptr<net::LatencyModel> latency(double tau, bool exp) {
    if (exp) return std::make_unique<net::ExponentialLatency>(tau, tau, tau);
    return std::make_unique<net::FixedLatency>(tau, tau, tau);
  }

  std::shared_ptr<Context> ctx_;
  std::size_t f_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> writers_;
  std::vector<std::unique_ptr<Client>> readers_;
};

}  // namespace lds::baselines
