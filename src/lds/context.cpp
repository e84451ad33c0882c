#include "lds/context.h"

namespace lds::core {

namespace {
/// Moves each encoded element into its own shared buffer.
std::vector<Value> share(std::vector<Bytes> elements) {
  return std::vector<Value>(std::make_move_iterator(elements.begin()),
                            std::make_move_iterator(elements.end()));
}
}  // namespace

const Value& LdsContext::initial_element(int code_index) const {
  if (initial_elements_.empty()) {
    initial_elements_ =
        share(code.encode_value(cfg.initial_value, encode_engine));
  }
  return initial_elements_.at(static_cast<std::size_t>(code_index));
}

const std::vector<Value>& LdsContext::encoded_elements(
    ObjectId obj, Tag t, const Bytes& value) const {
  const CacheKey key{obj, t};
  auto it = encode_cache_.find(key);
  if (it != encode_cache_.end()) return it->second;
  if (encode_cache_.size() > 256) encode_cache_.clear();  // bound memory
  return encode_cache_
      .emplace(key, share(code.encode_value(value, encode_engine)))
      .first->second;
}

}  // namespace lds::core
