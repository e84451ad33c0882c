// Striping codec: lifts a per-stripe (B-symbol) code to arbitrary byte values.
//
// The paper treats the object value v as a single file of B symbols; real
// values are arbitrary byte strings, so we prepend an 8-byte little-endian
// length header, zero-pad to a multiple of B, and run the code independently
// on each of the m = framed-size / B stripes.  All sizes are therefore
// value-size * alpha/B (elements) and value-size * beta/B (helper data) up to
// padding, matching the normalized cost accounting of Section II-d.
//
// Plane-major layout.  Every byte string here is a stack of m-byte *planes*:
// plane t holds symbol t of every stripe, contiguously.  The framed value is
// B planes (stripe s is the bytes at s, m + s, 2m + s, ...), a coded element
// is alpha planes and helper data is beta planes.  So symbol t of stripe s of
// an element is byte t * m + s, and the planar path below never gathers or
// scatters.
//
// Two ways to run each operation, byte-identical.  Each wrapped code is a
// fixed linear map per stripe, and so is each of its operations once the
// participating indices are fixed: encode (B -> n*alpha symbols), decode
// from a set of k elements (k*alpha -> B), helper data from element h toward
// target f (alpha -> beta) and repair of f from a set of d helpers
// (d*beta -> alpha).  The planar path probes such a map once from the
// wrapped code with basis stripes, self-checks it on a dense stripe (a
// mismatch is an LDS_CHECK failure, never a silent switch of path), caches
// it, and applies it to whole planes: output plane r = sum_c map[r][c] *
// input plane c, as long gf::mul_into / gf::axpy sweeps (the
// runtime-dispatched SIMD kernels) over cache-sized stripe chunks.  The
// stripewise path runs the wrapped code once per stripe instead.
//
// Which path runs depends only on the map's shape (rows x cols) and the
// call's stripe count m.  The planar path needs two things: a small map
// (at most 64 Ki coefficients - past that one dense sweep costs more per
// stripe than the wrapped codes' structured arithmetic, e.g. PM-MBR decode
// at k = d >= 32) and a probe (cols + 2 wrapped calls) no dearer than the
// call itself done stripe by stripe (m wrapped calls).  So the default
// geometry (k = d = 4) runs every operation planar on values of 18 stripes
// or more, while the paper's large regimes (k = d = 0.8 n) always decode
// and encode stripe by stripe from n = 40 on.  Maps are cached per
// operation and sorted index set (see the selection rule in
// erasure_code.h), in a cache bounded by bytes that every copy of a
// StripedCode shares and that is safe to use from several threads.
//
// Large encodes additionally fan out across the lanes of a net::Engine
// (encode_value(value, engine)): stripe chunks go into a shared claim
// counter, every other lane is posted a helper task, and the calling lane
// helps until all chunks are done.  Helpers never block, so the fan-out
// cannot deadlock even when every lane encodes concurrently.  The output is
// byte-identical on every path - planar or stripewise, scalar or SIMD,
// serial or lane-parallel, Sim or Parallel engine - because both paths
// compute the same exact GF map and chunk boundaries only partition it.
#pragma once

#include <memory>

#include "codes/erasure_code.h"

namespace lds::net {
class Engine;
}

namespace lds::codes {

class MapCache;

class StripedCode {
 public:
  /// Requires a non-null code with n() <= 255.
  explicit StripedCode(std::shared_ptr<const RegeneratingCode> code);

  const RegeneratingCode& code() const { return *code_; }

  std::size_t n() const { return code_->n(); }
  std::size_t k() const { return code_->k(); }
  std::size_t d() const { return code_->d(); }

  /// Number of stripes used for a value of `value_size` bytes.
  std::size_t stripes(std::size_t value_size) const;
  /// Bytes stored per element for a value of `value_size` bytes.
  std::size_t element_size(std::size_t value_size) const;
  /// Bytes of helper data per helper for a value of `value_size` bytes.
  std::size_t helper_size(std::size_t value_size) const;

  /// Encode a full value into all n elements.
  std::vector<Bytes> encode_value(const Bytes& value) const;

  /// Encode a full value, fanning stripe chunks out across `engine`'s lanes
  /// when the value is large enough to pay for the hop (null engine or a
  /// single-lane engine = the serial path).  Byte-identical to every other
  /// path; deterministic engines see no scheduled events (the fan-out is
  /// pure compute, invisible to virtual time).
  std::vector<Bytes> encode_value(const Bytes& value,
                                  net::Engine* engine) const;

  /// Elements [first, n) of encode_value(value, engine), byte for byte,
  /// without computing elements [0, first): an LDS offload needs only C2's
  /// coordinates.  Requires first < n().
  std::vector<Bytes> encode_from(const Bytes& value, std::size_t first,
                                 net::Engine* engine = nullptr) const;

  /// Reference encode: the stripewise path whatever the geometry.  Kept
  /// callable for the equivalence tests and as the baseline leg of
  /// bench_codes_micro; encode_value must match it byte for byte.
  std::vector<Bytes> encode_value_stripewise(const Bytes& value) const;

  /// Encode only element `index`.
  Bytes encode_element(const Bytes& value, int index) const;

  /// Decode the original value from the first k usable elements (the
  /// selection rule of erasure_code.h); nullopt when fewer than k qualify.
  std::optional<Bytes> decode_value(
      std::span<const IndexedBytes> elements) const;

  /// Helper data for repairing `target_index`, computed from one element.
  Bytes helper_data(int helper_index, const Bytes& element,
                    int target_index) const;

  /// Repair element `target_index` from the first d usable helper payloads
  /// (the selection rule of erasure_code.h); nullopt when fewer than d
  /// qualify.
  std::optional<Bytes> repair_element(
      int target_index, std::span<const IndexedBytes> helpers) const;

 private:
  Bytes frame(const Bytes& value) const;  // header + pad to stripe multiple

  std::vector<Bytes> encode_framed(const Bytes& framed, net::Engine* engine,
                                   bool planar, std::size_t first) const;

  std::shared_ptr<const RegeneratingCode> code_;
  /// Probed maps, shared by every copy of this StripedCode (striped.cpp).
  std::shared_ptr<MapCache> maps_;
};

}  // namespace lds::codes
