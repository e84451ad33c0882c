// Client-side read cache: key -> (Version, zero-copy Value) with LRU
// eviction and an optional per-entry TTL.
//
// The cache itself is a passive map; the consistency story lives in
// store::Client.  A cached entry is served only after a TAG-ONLY VALIDATION
// ROUND (ReadMode::TagOnly — the LDS get-committed-tag quorum phase without
// the data phase) confirms the entry's Version is still the committed tag,
// so hits stay linearizable while moving zero value bytes.  With ttl > 0
// the client may additionally serve an entry with NO round at all until
// `fresh_until` — an opt-in, bounded-staleness mode (reads can lag
// concurrent writes by up to ttl engine-seconds; default off).
//
// Values are ref-counted (common/slice.h): caching one is a handle copy,
// never a payload copy.
//
// Thread-safe: the remote client validates/fills from transport callback
// threads while the owner issues new ops.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/slice.h"
#include "common/types.h"

namespace lds::store {

struct CacheOptions {
  bool enabled = false;      ///< master switch; default-off keeps PR 9 paths
  std::size_t capacity = 4096;  ///< max entries before LRU eviction
  /// Entry freshness window in seconds (engine clock for local clients,
  /// wall clock for remote ones).  0 = every hit pays a validation round.
  double ttl = 0.0;
};

class ReadCache {
 public:
  explicit ReadCache(CacheOptions opt) : opt_(opt) {}

  struct Entry {
    Version version;
    Value value;
    double fresh_until = 0.0;  ///< ttl deadline; meaningful only when ttl > 0
  };

  /// Copy of the entry (handles, not payload) or nullopt; touches LRU.
  std::optional<Entry> lookup(const std::string& key);

  /// Insert or refresh.  A stale racer never downgrades a newer cached
  /// version (versions are totally ordered).
  void update(const std::string& key, Version version, Value value,
              double now);

  /// A validation round confirmed `version` is still committed: restamp the
  /// freshness window without touching the value.
  void revalidate(const std::string& key, Version version, double now);

  /// Drop the entry; returns whether one existed (for metrics).
  bool invalidate(const std::string& key);

  std::size_t size() const;
  const CacheOptions& options() const { return opt_; }

 private:
  struct Node {
    std::string key;
    Entry entry;
  };
  using List = std::list<Node>;

  mutable std::mutex mu_;
  CacheOptions opt_;
  List lru_;  ///< front = most recently used
  std::unordered_map<std::string, List::iterator> index_;
};

}  // namespace lds::store
