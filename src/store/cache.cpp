#include "store/cache.h"

namespace lds::store {

std::optional<ReadCache::Entry> ReadCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to MRU
  return it->second->entry;
}

void ReadCache::update(const std::string& key, Version version, Value value,
                       double now) {
  const double fresh_until = opt_.ttl > 0.0 ? now + opt_.ttl : 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = it->second->entry;
    if (version < e.version) return;  // a newer fill already landed
    e.version = version;
    e.value = std::move(value);
    e.fresh_until = fresh_until;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Node{key, Entry{version, std::move(value), fresh_until}});
  index_.emplace(key, lru_.begin());
  if (index_.size() > opt_.capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void ReadCache::revalidate(const std::string& key, Version version,
                           double now) {
  if (opt_.ttl <= 0.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->entry.version != version) return;
  it->second->entry.fresh_until = now + opt_.ttl;
}

bool ReadCache::invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.erase(it->second);
  index_.erase(it);
  return true;
}

std::size_t ReadCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

}  // namespace lds::store
