// Consistent-hash shard routing for the multi-object store.
//
// Keys are hashed onto a 64-bit ring; each live shard owns `vnodes` points
// on the ring, and a key belongs to the shard of the first point at or after
// its hash (wrapping).  Virtual nodes smooth the load split, and ring
// membership changes (add_shard / remove_shard) move only the key ranges
// adjacent to the affected points — about 1/S of the space — instead of
// rehashing everything, which is the property a rebalancing store needs.
// moved_fraction() computes that displacement *exactly* by sweeping the
// merged ring, so tests and capacity planning don't rely on sampling.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace lds::store {

class ShardRouter {
 public:
  struct Options {
    /// Ring points per shard.  More vnodes = smoother split, bigger ring.
    std::size_t vnodes = 64;
    /// Seed for the ring-point hashes (shared by replicas of a deployment;
    /// two routers agree on routing iff seeds and membership agree).
    std::uint64_t seed = 0x1d5a2d1f00c0ffeeull;
  };

  explicit ShardRouter(std::size_t num_shards)
      : ShardRouter(num_shards, Options{}) {}
  ShardRouter(std::size_t num_shards, Options opt);

  /// Shard owning `key`.  Requires at least one live shard.
  std::size_t shard_of(std::string_view key) const {
    return shard_of_hash(hash_key(key));
  }
  std::size_t shard_of_hash(std::uint64_t h) const;

  /// FNV-1a 64-bit over the key bytes.
  static std::uint64_t hash_key(std::string_view key);

  /// Add a new shard to the ring; returns its id (ids are dense and stable:
  /// a removed shard's id is never reused).
  std::size_t add_shard();
  /// Take a shard out of the ring; its key ranges fall to the successors.
  void remove_shard(std::size_t shard);
  bool is_live(std::size_t shard) const;

  std::size_t num_live() const { return live_count_; }

  /// Map shard ids onto execution-engine lanes (see net/engine.h): shard s
  /// runs on lane s % num_lanes, so shards spread evenly and a
  /// Deterministic deployment (1 lane) puts everything on lane 0.  The
  /// mapping is fixed at assignment; re-assigning with a different lane
  /// count is allowed only while no engine is running on the old mapping.
  void assign_lanes(std::size_t num_lanes);
  std::size_t num_lanes() const { return num_lanes_; }
  std::size_t lane_of(std::size_t shard) const;

  /// Exact fraction of the 2^64 hash space whose owning shard differs
  /// between two rings (rebalance displacement).  Rings should share vnode
  /// and seed options for the number to be meaningful.
  static double moved_fraction(const ShardRouter& a, const ShardRouter& b);

  /// Exact fraction of the hash space each shard id owns (by ring measure);
  /// removed shards own 0.
  std::vector<double> ownership() const;

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t shard;
  };

  void rebuild();

  Options opt_;
  std::vector<bool> live_;
  std::size_t live_count_ = 0;
  std::size_t num_lanes_ = 1;
  std::vector<Point> ring_;  // sorted by hash
};

}  // namespace lds::store
