// Erasure-code and regenerating-code interfaces.
//
// The unit of work is one *stripe*: a block of file_size() = B symbols,
// encoded into n coded elements of alpha symbols each.  Decoding succeeds
// from any k distinct elements.  Regenerating codes additionally support
// repair of element `f` from beta-symbol helper data computed by any d
// surviving elements.
//
// Two properties required by the LDS algorithm (paper, Section II-c) are part
// of this contract and are unit-tested for every implementation:
//
//  1. helper_data() depends only on the helper's own element and the *index*
//     of the element being repaired - not on the identity of the other d-1
//     helpers (an L1 server asks all of L2 for help and uses whichever d
//     responses arrive first).
//  2. Repair is *exact*: the repaired element equals what encode() produces
//     for that index.
//
// Selection rule.  decode() and repair() accept any list of entries and use
// a well-defined subset of it: walking the list in order, an entry is
// usable when its index is in [0, n), is not yet used, and (for repair) is
// not target_index; decode takes the first k usable entries and repair the
// first d.  StripedCode applies the same rule per value, where an entry must
// also have the common length: that of the first in-range (non-target)
// entry holding a whole, non-zero number of stripes.  Every implementation
// is a fixed linear map of the entries it uses, so the result depends on
// the chosen index *set*, not on the order of the list.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/types.h"

namespace lds::codes {

/// (element index, element payload) pair used by decode() and repair().
/// The payload is a shared handle, so callers holding received elements or
/// helper data pass those buffers without copying them; Bytes convert in.
using IndexedBytes = std::pair<int, Value>;

class ErasureCode {
 public:
  virtual ~ErasureCode() = default;

  virtual std::size_t n() const = 0;
  virtual std::size_t k() const = 0;
  /// Symbols stored per element per stripe.
  virtual std::size_t alpha() const = 0;
  /// Stripe size B in symbols.
  virtual std::size_t file_size() const = 0;

  /// Encode one stripe (exactly file_size() symbols) into all n elements.
  virtual std::vector<Bytes> encode(std::span<const std::uint8_t> stripe)
      const = 0;

  /// Encode only element `index` of one stripe.
  virtual Bytes encode_one(std::span<const std::uint8_t> stripe,
                           int index) const;

  /// Decode one stripe from at least k elements with distinct indices.
  /// Returns nullopt if fewer than k distinct valid elements are given.
  virtual std::optional<Bytes> decode(
      std::span<const IndexedBytes> elements) const = 0;
};

class RegeneratingCode : public ErasureCode {
 public:
  /// Number of helpers contacted for repair.
  virtual std::size_t d() const = 0;
  /// Symbols sent by each helper per stripe.
  virtual std::size_t beta() const = 0;

  /// Helper data computed by element `helper_index` (whose stored payload for
  /// this stripe is `helper_element`, alpha symbols) toward the repair of
  /// element `target_index`.  Returns beta() symbols.
  virtual Bytes helper_data(int helper_index,
                            std::span<const std::uint8_t> helper_element,
                            int target_index) const = 0;

  /// Repair element `target_index` from exactly d() helper responses with
  /// distinct helper indices (none equal to target_index).  Returns nullopt
  /// on malformed input (wrong count, duplicate indices).
  virtual std::optional<Bytes> repair(
      int target_index, std::span<const IndexedBytes> helpers) const = 0;
};

inline Bytes ErasureCode::encode_one(std::span<const std::uint8_t> stripe,
                                     int index) const {
  auto all = encode(stripe);
  return std::move(all.at(static_cast<std::size_t>(index)));
}

}  // namespace lds::codes
