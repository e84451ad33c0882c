// Shared immutable wiring of one LDS deployment: configuration, the striped
// regenerating code, and the node-id layout of both layers.
//
// Code-coordinate convention (paper, Section II-c): the code C has
// n = n1 + n2 coordinates; coordinate j in [0, n1) belongs to L1 server j
// (C1 = those rows), coordinate n1 + i belongs to L2 server i (C2).
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "codes/striped.h"
#include "common/slice.h"
#include "common/types.h"
#include "lds/config.h"
#include "lds/history.h"
#include "lds/storage_meter.h"

namespace lds::net {
class Engine;
}

namespace lds::core {

/// One helper response toward a regeneration: the responder's tag and its
/// (code coordinate, helper data), the data shared with the message.
struct TaggedHelper {
  Tag tag;
  codes::IndexedBytes helper;
};

struct LdsContext {
  LdsConfig cfg;
  codes::StripedCode code;
  std::vector<NodeId> l1_ids;  ///< index j -> node id of L1 server j
  std::vector<NodeId> l2_ids;  ///< index i -> node id of L2 server i

  /// Optional instrumentation (may be null).
  StorageMeter* meter = nullptr;

  /// Optional engine for fanning large encodes out across lanes (may be
  /// null = serial).  Set by LdsCluster from its own engine; harmless under
  /// SimEngine (single lane => the striped code stays serial).
  net::Engine* encode_engine = nullptr;

  /// Durable-acknowledgement mode, set by LdsCluster when a data_dir is
  /// configured.  L1 servers then defer writer ACKs and put-tag ACKs until
  /// the tag's offload reached an l2_quorum of (durable) AckCodeElems, so
  /// a client-visible completion certifies the data survives SIGKILL.
  /// False (the default) keeps the paper's ack timing bit-for-bit.
  bool durable_acks = false;

  LdsContext(LdsConfig c, codes::StripedCode striped)
      : cfg(std::move(c)), code(std::move(striped)) {
    cfg.validate();
  }

  /// Convenience factory: build the backend from cfg.backend.
  static std::shared_ptr<LdsContext> make(LdsConfig cfg) {
    auto code =
        codes::make_backend(cfg.backend, cfg.n(), cfg.k(), cfg.d());
    return std::make_shared<LdsContext>(std::move(cfg), std::move(code));
  }

  /// The fixed relay set S_{f1+1} of the broadcast primitive: the first
  /// f1 + 1 servers of L1 (any fixed set works; see [17]).
  std::size_t relay_set_size() const { return cfg.f1 + 1; }

  /// Number of helper responses an L1 server waits for before attempting
  /// regeneration: n2 - f2 = f2 + d (Fig. 2 line 45).
  std::size_t regen_wait() const { return cfg.l2_quorum(); }

  /// Coded element of the initial value v0 at one C2 coordinate n1 + i
  /// (memoized: every L2 server shares the same encoding of v0).
  const Value& initial_element(int code_index) const;

  /// The n2 C2 elements of `value` under (obj, t), memoized: element i is
  /// coordinate n1 + i, the one L2 server i stores.  Only C2 is encoded:
  /// write-to-L2 (Fig. 2 lines 20-23) sends each L2 server its own
  /// coordinate, and nothing reads C1's.  Encoding is a pure function of
  /// the value, and tags are unique per write, so every L1 server
  /// offloading the same committed write computes identical elements; the
  /// cache removes the redundant O(n1) re-encodings from simulation
  /// wall-clock time without changing any accounted cost.  Each element is
  /// a shared handle, so the offload messages and the L2 state that take it
  /// copy no bytes.
  const std::vector<Value>& c2_elements(ObjectId obj, Tag t,
                                        const Bytes& value) const;

  /// Regenerate coordinate `target` from `helpers`: the newest tag on which
  /// at least d helpers agree and whose helpers repair (Fig. 2 lines 45-51;
  /// the L2 repair extension applies the same rule), as (tag, element).
  /// Within a tag the helpers keep their arrival order.  Nullopt when no
  /// tag qualifies.
  std::optional<std::pair<Tag, Bytes>> regenerate(
      int target, const std::vector<TaggedHelper>& helpers) const;

 private:
  struct CacheKey {
    ObjectId obj;
    Tag tag;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return TagHash()(k.tag) ^ (static_cast<std::size_t>(k.obj) * 0x9e3779b9u);
    }
  };
  mutable std::vector<Value> initial_elements_;  // lazily filled, size n2
  mutable std::unordered_map<CacheKey, std::vector<Value>, CacheKeyHash>
      encode_cache_;
};

}  // namespace lds::core
