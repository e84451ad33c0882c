#include "lds/context.h"

#include "common/assert.h"

namespace lds::core {

namespace {
/// Moves each encoded element into its own shared buffer.
std::vector<Value> share(std::vector<Bytes> elements) {
  return std::vector<Value>(std::make_move_iterator(elements.begin()),
                            std::make_move_iterator(elements.end()));
}
}  // namespace

const Value& LdsContext::initial_element(int code_index) const {
  LDS_REQUIRE(code_index >= static_cast<int>(cfg.n1),
              "LdsContext::initial_element: not a C2 coordinate");
  if (initial_elements_.empty()) {
    initial_elements_ =
        share(code.encode_from(cfg.initial_value, cfg.n1, encode_engine));
  }
  return initial_elements_.at(static_cast<std::size_t>(code_index) - cfg.n1);
}

const std::vector<Value>& LdsContext::c2_elements(ObjectId obj, Tag t,
                                                  const Bytes& value) const {
  const CacheKey key{obj, t};
  auto it = encode_cache_.find(key);
  if (it != encode_cache_.end()) return it->second;
  if (encode_cache_.size() > 256) encode_cache_.clear();  // bound memory
  return encode_cache_
      .emplace(key, share(code.encode_from(value, cfg.n1, encode_engine)))
      .first->second;
}

std::optional<std::pair<Tag, Bytes>> LdsContext::regenerate(
    int target, const std::vector<TaggedHelper>& helpers) const {
  std::vector<codes::IndexedBytes> group;
  group.reserve(helpers.size());
  std::optional<Tag> tried;  // every tag >= *tried has been tried
  for (;;) {
    std::optional<Tag> tag;  // the newest tag not yet tried
    for (const TaggedHelper& h : helpers) {
      if ((!tried || h.tag < *tried) && (!tag || h.tag > *tag)) tag = h.tag;
    }
    if (!tag) return std::nullopt;
    tried = tag;
    group.clear();
    for (const TaggedHelper& h : helpers) {
      if (h.tag == *tag) group.push_back(h.helper);
    }
    if (group.size() < code.d()) continue;
    if (auto element = code.repair_element(target, group)) {
      return std::pair<Tag, Bytes>(*tag, std::move(*element));
    }
  }
}

}  // namespace lds::core
