#include "codes/striped.h"

#include <algorithm>
#include <atomic>
#include <bitset>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/assert.h"
#include "gf/gf256.h"
#include "net/engine.h"

namespace lds::codes {

namespace {
constexpr std::size_t kHeader = 8;

// Each apply() chunk covers about kChunkInputBytes of input planes, so the
// input slices stay cache resident while every output row sweeps them.
constexpr std::size_t kChunkInputBytes = 16 * 1024;
// Chunks are whole multiples of this many stripes, so only a plane's last
// chunk leaves a tail for the SIMD kernels.
constexpr std::size_t kChunkAlign = 64;
// Smaller chunks for the lane fan-out so even the threshold-sized encode
// splits into enough pieces to occupy several lanes.
constexpr std::size_t kLaneChunkInputBytes = 8 * 1024;
// Below this framed size the fan-out hop costs more than the arithmetic.
constexpr std::size_t kMinLaneInputBytes = 48 * 1024;
// Largest planar map, in coefficients.  Past it one dense sweep costs more
// per stripe than the wrapped codes' own arithmetic: PM-MBR decode maps hold
// 34 Ki coefficients at k = d = 16 (planar ~5x faster than stripewise) and
// 528 Ki at k = d = 32 (planar no faster).
constexpr std::size_t kMaxMapCoeffs = 64 * 1024;
// Bound on the bytes one map cache holds, counting kMapEntryBytes of
// bookkeeping per map; a cache that would pass it is cleared.  The default
// geometry's whole working set (~900 maps of at most 160 coefficients) is
// about 0.2 MiB.
constexpr std::size_t kMaxCachedMapBytes = 4 * 1024 * 1024;
constexpr std::size_t kMapEntryBytes = 64;

// First byte of a map's cache key: which operation it belongs to.
constexpr char kEncodeKey = 'E';
constexpr char kDecodeKey = 'D';
constexpr char kRepairKey = 'R';
constexpr char kHelperKey = 'H';

// Plane lists are accessors, not pointer vectors: `planes(p)` returns the
// start of plane p, so a call that hits the map cache allocates nothing but
// its output.  A stripe function is one operation on one stripe through the
// wrapped code (its input symbols in, its output symbols out), passed as a
// plain callable and run only on a map-cache miss or on the stripewise path.

/// Whether an operation whose per-stripe map is rows x cols runs planar on
/// a call of m stripes: the map is small and its probe (cols + 2 wrapped
/// calls) costs no more than the call done stripe by stripe (m calls).
bool planar_pays(std::size_t rows, std::size_t cols, std::size_t m) {
  return rows * cols <= kMaxMapCoeffs && cols + 2 <= m;
}

std::uint64_t read_len(const Bytes& framed) {
  std::uint64_t len = 0;
  for (std::size_t i = 0; i < kHeader; ++i) {
    len |= static_cast<std::uint64_t>(framed[i]) << (8 * i);
  }
  return len;
}

std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

/// Consecutive m-byte planes starting at `base`.
template <typename Byte>
auto planes(Byte* base, std::size_t m) {
  return [base, m](std::size_t p) { return base + p * m; };
}

/// out(r) = sum_c coeff[r * cols + c] * in(c) for r < rows, over stripes
/// [s0, s1) of every plane, in chunks of whole kChunkAlign stripes.  Pure
/// compute; safe to run on disjoint stripe ranges of the same planes
/// concurrently.
template <typename In, typename Out>
void apply(const std::uint8_t* coeff, std::size_t rows, std::size_t cols,
           const In& in, const Out& out, std::size_t s0, std::size_t s1) {
  if (s1 <= s0) return;
  const std::size_t cap = std::max(kChunkAlign, kChunkInputBytes / cols);
  const std::size_t pieces = (s1 - s0 + cap - 1) / cap;
  const std::size_t chunk =
      round_up((s1 - s0 + pieces - 1) / pieces, kChunkAlign);
  for (std::size_t c0 = s0; c0 < s1; c0 += chunk) {
    const std::size_t len = std::min(chunk, s1 - c0);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint8_t* row = coeff + r * cols;
      const std::span<std::uint8_t> dst(out(r) + c0, len);
      // The first nonzero term is a mul_into, so dst needs no zero fill.
      bool first = true;
      for (std::size_t c = 0; c < cols; ++c) {
        if (row[c] == 0) continue;
        const std::span<const std::uint8_t> src(in(c) + c0, len);
        if (first) {
          gf::mul_into(dst, row[c], src);
        } else {
          gf::axpy(dst, row[c], src);
        }
        first = false;
      }
      if (first) std::memset(dst.data(), 0, len);
    }
  }
}

/// The out x in coefficient matrix of a per-stripe map, read off its action
/// on the basis stripes, then checked on the zero stripe and a dense one.
/// Every wrapped code is linear, so a mismatch means a broken code.
template <typename StripeFn>
Bytes probe(std::size_t in, std::size_t out, const StripeFn& stripe_fn) {
  Bytes x(in, 0);
  const auto run = [&] {
    Bytes y = stripe_fn(x);
    LDS_CHECK(y.size() == out, "StripedCode: probed stripe size");
    return y;
  };
  const Bytes zero = run();
  LDS_CHECK(std::all_of(zero.begin(), zero.end(),
                        [](std::uint8_t v) { return v == 0; }),
            "StripedCode: wrapped code maps zero to nonzero");

  Bytes coeff(out * in);
  for (std::size_t c = 0; c < in; ++c) {
    x[c] = 1;
    const Bytes y = run();
    x[c] = 0;
    for (std::size_t r = 0; r < out; ++r) coeff[r * in + c] = y[r];
  }

  for (std::size_t c = 0; c < in; ++c) {
    x[c] = static_cast<std::uint8_t>((c * 37 + 11) & 0xff);
    if (x[c] == 0) x[c] = 1;
  }
  const Bytes y = run();
  for (std::size_t r = 0; r < out; ++r) {
    LDS_CHECK(gf::dot({coeff.data() + r * in, in}, x) == y[r],
              "StripedCode: wrapped code is not a fixed linear map");
  }
  return coeff;
}

/// The stripewise path: stripes [s0, s1) one at a time, each gathered from
/// the `cols` input planes, run through the wrapped code and scattered into
/// the `rows` output planes.  Safe to run on disjoint stripe ranges
/// concurrently.
template <typename StripeFn, typename In, typename Out>
void stripewise(const StripeFn& stripe_fn, std::size_t rows, std::size_t cols,
                const In& in, const Out& out, std::size_t s0, std::size_t s1) {
  Bytes x(cols);
  for (std::size_t s = s0; s < s1; ++s) {
    for (std::size_t c = 0; c < cols; ++c) x[c] = in(c)[s];
    const Bytes y = stripe_fn(x);
    LDS_CHECK(y.size() == rows, "StripedCode: stripe output size");
    for (std::size_t r = 0; r < rows; ++r) out(r)[s] = y[r];
  }
}

/// Encode as a per-stripe function: B symbols in, the alpha symbols of
/// elements [first, n) out, element by element.
auto encode_fn(const RegeneratingCode& code, std::size_t first) {
  return [&code, first](std::span<const std::uint8_t> stripe) {
    const auto elems = code.encode(stripe);
    LDS_CHECK(elems.size() == code.n(), "StripedCode: encode element count");
    Bytes y;
    y.reserve((code.n() - first) * code.alpha());
    for (std::size_t i = first; i < elems.size(); ++i) {
      LDS_CHECK(elems[i].size() == code.alpha(),
                "StripedCode: element stripe size");
      y.insert(y.end(), elems[i].begin(), elems[i].end());
    }
    return y;
  };
}

/// Runs `range` over stripes [0, m) in chunks of `chunk` stripes, spread
/// over `engine`'s lanes.  Work-helping: chunks sit behind an atomic claim
/// counter; helper tasks posted to the other lanes and the calling thread
/// all pull from it until it runs dry.  Helpers never wait on anything, so
/// two lanes fanning out concurrently (each with helpers queued on the
/// other) cannot deadlock; the caller blocks only on in-flight chunks.
void fan_out(net::Engine& engine, std::size_t m, std::size_t chunk,
             const std::function<void(std::size_t, std::size_t)>& range) {
  const std::size_t total = (m + chunk - 1) / chunk;
  struct Job {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto job = std::make_shared<Job>();
  // A helper that claims no chunk touches only `job`, which it co-owns, so
  // it may still be returning after the caller has moved on.
  auto run_chunks = [job, &range, m, chunk, total] {
    for (;;) {
      const std::size_t c = job->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= total) break;
      const std::size_t s0 = c * chunk;
      range(s0, std::min(m, s0 + chunk));
      if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        std::lock_guard<std::mutex> lk(job->mu);
        job->cv.notify_all();
      }
    }
  };

  const auto self = engine.current_lane();
  std::size_t posted = 0;
  for (std::size_t lane = 0; lane < engine.lanes() && posted + 1 < total;
       ++lane) {
    if (self && *self == lane) continue;  // this thread helps directly below
    engine.post(lane, run_chunks);
    ++posted;
  }

  run_chunks();
  std::unique_lock<std::mutex> lk(job->mu);
  job->cv.wait(lk, [&] {
    return job->done.load(std::memory_order_acquire) == total;
  });
}

/// The selection rule of erasure_code.h: the first `want` entries whose
/// index is in [0, n), differs from `skip` and is not yet chosen, and whose
/// payload has the common length - that of the first such entry holding a
/// whole, non-zero number of `unit`-symbol stripes.  Sorted by index; empty
/// when fewer than `want` qualify.
std::vector<const IndexedBytes*> select(std::span<const IndexedBytes> entries,
                                        std::size_t n, std::size_t want,
                                        std::size_t unit, int skip) {
  std::vector<const IndexedBytes*> chosen;
  chosen.reserve(want);
  std::bitset<256> seen;
  std::size_t len = 0;
  for (const auto& e : entries) {
    const int i = e.first;
    if (i < 0 || static_cast<std::size_t>(i) >= n || i == skip) continue;
    const std::size_t size = e.second.size();
    if (len == 0 && size != 0 && size % unit == 0) len = size;
    if (len == 0 || size != len || seen.test(static_cast<std::size_t>(i))) {
      continue;
    }
    seen.set(static_cast<std::size_t>(i));
    chosen.push_back(&e);
    if (chosen.size() == want) break;
  }
  if (chosen.size() < want) return {};
  std::sort(chosen.begin(), chosen.end(),
            [](const IndexedBytes* a, const IndexedBytes* b) {
              return a->first < b->first;
            });
  return chosen;
}

/// Cache key of a keyed map: operation, target and the sorted index set, one
/// byte each (n <= 255).
std::string map_key(char op, int target,
                    const std::vector<const IndexedBytes*>& chosen) {
  std::string key{op, static_cast<char>(target)};
  for (const IndexedBytes* e : chosen) key += static_cast<char>(e->first);
  return key;
}

/// One stripe's worth of the chosen entries: entry p gets symbols
/// [p * unit, (p + 1) * unit) of `x`, in chosen (sorted) order.
std::vector<IndexedBytes> stripe_entries(
    const std::vector<const IndexedBytes*>& chosen,
    std::span<const std::uint8_t> x, std::size_t unit) {
  std::vector<IndexedBytes> out;
  out.reserve(chosen.size());
  for (std::size_t p = 0; p < chosen.size(); ++p) {
    const auto from = x.begin() + static_cast<long>(p * unit);
    out.emplace_back(chosen[p]->first,
                     Bytes(from, from + static_cast<long>(unit)));
  }
  return out;
}

/// Input planes of the chosen entries, `per` planes of m bytes each: plane
/// p * per + t is plane t of entry p.
auto entry_planes(const std::vector<const IndexedBytes*>& chosen,
                  std::size_t per, std::size_t m) {
  return [&chosen, per, m](std::size_t c) {
    return chosen[c / per]->second.data() + (c % per) * m;
  };
}

/// Output planes of a list of elements: plane i * alpha + t is plane t of
/// element i.
auto element_planes(std::vector<Bytes>& elems, std::size_t alpha,
                    std::size_t m) {
  return [&elems, alpha, m](std::size_t r) {
    return elems[r / alpha].data() + (r % alpha) * m;
  };
}
}  // namespace

/// The probed maps of one code, keyed by operation and sorted index set.
class MapCache {
 public:
  /// The map for `key`: cached, or probed now from `stripe_fn` (one stripe
  /// of `in` symbols -> `out` symbols).  Probes run outside the lock; two
  /// threads missing the same key both probe and keep the first result.
  template <typename StripeFn>
  std::shared_ptr<const Bytes> get(const std::string& key, std::size_t in,
                                   std::size_t out, const StripeFn& stripe_fn) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (auto it = maps_.find(key); it != maps_.end()) return it->second;
    }
    auto map = std::make_shared<const Bytes>(probe(in, out, stripe_fn));
    const std::size_t cost = map->size() + key.size() + kMapEntryBytes;
    std::lock_guard<std::mutex> lk(mu_);
    if (auto it = maps_.find(key); it != maps_.end()) return it->second;
    if (bytes_ + cost > kMaxCachedMapBytes) {
      maps_.clear();
      bytes_ = 0;
    }
    maps_.emplace(key, map);
    bytes_ += cost;
    return map;
  }

  /// The `rows` out planes = the operation `stripe_fn` over stripes [0, m)
  /// of the `cols` in planes: through the map for `key` when planar_pays,
  /// else stripewise.
  template <typename StripeFn, typename In, typename Out>
  void run(const std::string& key, std::size_t rows, std::size_t cols,
           std::size_t m, const In& in, const Out& out,
           const StripeFn& stripe_fn) {
    if (planar_pays(rows, cols, m)) {
      apply(get(key, cols, rows, stripe_fn)->data(), rows, cols, in, out, 0,
            m);
    } else {
      stripewise(stripe_fn, rows, cols, in, out, 0, m);
    }
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Bytes>> maps_;
  std::size_t bytes_ = 0;  // sum of the cached maps' costs
};

StripedCode::StripedCode(std::shared_ptr<const RegeneratingCode> code)
    : code_(std::move(code)), maps_(std::make_shared<MapCache>()) {
  LDS_REQUIRE(code_ != nullptr, "StripedCode: null code");
  LDS_REQUIRE(code_->n() <= 255, "StripedCode: need n <= 255");
}

Bytes StripedCode::frame(const Bytes& value) const {
  Bytes framed(stripes(value.size()) * code_->file_size(), 0);
  const std::uint64_t len = value.size();
  for (std::size_t i = 0; i < kHeader; ++i) {
    framed[i] = static_cast<std::uint8_t>((len >> (8 * i)) & 0xff);
  }
  if (!value.empty()) {
    std::memcpy(framed.data() + kHeader, value.data(), value.size());
  }
  return framed;
}

std::size_t StripedCode::stripes(std::size_t value_size) const {
  const std::size_t b = code_->file_size();
  return (value_size + kHeader + b - 1) / b;
}

std::size_t StripedCode::element_size(std::size_t value_size) const {
  return stripes(value_size) * code_->alpha();
}

std::size_t StripedCode::helper_size(std::size_t value_size) const {
  return stripes(value_size) * code_->beta();
}

std::vector<Bytes> StripedCode::encode_value(const Bytes& value) const {
  return encode_value(value, nullptr);
}

std::vector<Bytes> StripedCode::encode_value(const Bytes& value,
                                             net::Engine* engine) const {
  return encode_from(value, 0, engine);
}

std::vector<Bytes> StripedCode::encode_from(const Bytes& value,
                                            std::size_t first,
                                            net::Engine* engine) const {
  LDS_REQUIRE(first < n(), "StripedCode::encode_from: first out of range");
  const Bytes framed = frame(value);
  const std::size_t b = code_->file_size();
  return encode_framed(framed, engine,
                       planar_pays(n() * code_->alpha(), b, framed.size() / b),
                       first);
}

std::vector<Bytes> StripedCode::encode_value_stripewise(
    const Bytes& value) const {
  return encode_framed(frame(value), nullptr, /*planar=*/false, 0);
}

std::vector<Bytes> StripedCode::encode_framed(const Bytes& framed,
                                              net::Engine* engine, bool planar,
                                              std::size_t first) const {
  const std::size_t b = code_->file_size();
  const std::size_t a = code_->alpha();
  const std::size_t m = framed.size() / b;
  const std::size_t rows = (n() - first) * a;
  std::vector<Bytes> out;
  out.reserve(n() - first);
  for (std::size_t i = first; i < n(); ++i) out.emplace_back(m * a);
  const auto in = planes(framed.data(), m);
  const auto outp = element_planes(out, a, m);
  const auto fn = encode_fn(*code_, first);
  // Planar: elements [first, n) are the tail rows of the whole encode map,
  // which encode_value and encode_element share.
  const auto map = planar ? maps_->get(std::string{kEncodeKey}, b, n() * a,
                                       encode_fn(*code_, 0))
                          : nullptr;
  const std::uint8_t* tail = map ? map->data() + first * a * b : nullptr;
  const auto range = [&](std::size_t s0, std::size_t s1) {
    if (map) {
      apply(tail, rows, b, in, outp, s0, s1);
    } else {
      stripewise(fn, rows, b, in, outp, s0, s1);
    }
  };
  if (engine != nullptr && engine->lanes() > 1 &&
      framed.size() >= kMinLaneInputBytes) {
    fan_out(*engine, m,
            std::max(kChunkAlign,
                     kLaneChunkInputBytes / b / kChunkAlign * kChunkAlign),
            range);
  } else {
    range(0, m);
  }
  return out;
}

Bytes StripedCode::encode_element(const Bytes& value, int index) const {
  LDS_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < n(),
              "StripedCode::encode_element: index out of range");
  const std::size_t b = code_->file_size();
  const std::size_t a = code_->alpha();
  const Bytes framed = frame(value);
  const std::size_t m = framed.size() / b;
  Bytes out(m * a);
  const auto in = planes(framed.data(), m);
  const auto outp = planes(out.data(), m);
  if (planar_pays(n() * a, b, m)) {
    // The element's alpha rows of the encode map.
    const auto map =
        maps_->get(std::string{kEncodeKey}, b, n() * a, encode_fn(*code_, 0));
    apply(map->data() + static_cast<std::size_t>(index) * a * b, a, b, in,
          outp, 0, m);
  } else {
    stripewise(
        [&](std::span<const std::uint8_t> stripe) {
          return code_->encode_one(stripe, index);
        },
        a, b, in, outp, 0, m);
  }
  return out;
}

std::optional<Bytes> StripedCode::decode_value(
    std::span<const IndexedBytes> elements) const {
  const std::size_t a = code_->alpha();
  const std::size_t b = code_->file_size();
  const std::size_t k = code_->k();
  const auto chosen = select(elements, n(), k, a, /*skip=*/-1);
  if (chosen.empty()) return std::nullopt;
  const std::size_t m = chosen.front()->second.size() / a;

  Bytes framed(m * b);
  maps_->run(map_key(kDecodeKey, 0, chosen), b, k * a, m,
             entry_planes(chosen, a, m), planes(framed.data(), m),
             [&](std::span<const std::uint8_t> x) {
               auto stripe = code_->decode(stripe_entries(chosen, x, a));
               LDS_CHECK(stripe.has_value(),
                         "StripedCode: decode of k elements");
               return std::move(*stripe);
             });

  if (framed.size() < kHeader) return std::nullopt;
  const std::uint64_t len = read_len(framed);
  if (len > framed.size() - kHeader) return std::nullopt;
  framed.erase(framed.begin(), framed.begin() + kHeader);
  framed.resize(len);
  return framed;
}

Bytes StripedCode::helper_data(int helper_index, const Bytes& element,
                               int target_index) const {
  const std::size_t a = code_->alpha();
  const std::size_t be = code_->beta();
  LDS_REQUIRE(helper_index >= 0 && static_cast<std::size_t>(helper_index) < n(),
              "StripedCode::helper_data: helper index out of range");
  LDS_REQUIRE(target_index >= 0 && static_cast<std::size_t>(target_index) < n(),
              "StripedCode::helper_data: target index out of range");
  LDS_REQUIRE(!element.empty() && element.size() % a == 0,
              "StripedCode::helper_data: bad element length");
  const std::size_t m = element.size() / a;

  const std::string key{kHelperKey, static_cast<char>(helper_index),
                        static_cast<char>(target_index)};
  Bytes out(m * be);
  maps_->run(key, be, a, m, planes(element.data(), m), planes(out.data(), m),
             [&](std::span<const std::uint8_t> x) {
               return code_->helper_data(helper_index, x, target_index);
             });
  return out;
}

std::optional<Bytes> StripedCode::repair_element(
    int target_index, std::span<const IndexedBytes> helpers) const {
  LDS_REQUIRE(target_index >= 0 && static_cast<std::size_t>(target_index) < n(),
              "StripedCode::repair_element: target index out of range");
  const std::size_t a = code_->alpha();
  const std::size_t be = code_->beta();
  const std::size_t d = code_->d();
  const auto chosen = select(helpers, n(), d, be, target_index);
  if (chosen.empty()) return std::nullopt;
  const std::size_t m = chosen.front()->second.size() / be;

  Bytes out(m * a);
  maps_->run(map_key(kRepairKey, target_index, chosen), a, d * be, m,
             entry_planes(chosen, be, m), planes(out.data(), m),
             [&](std::span<const std::uint8_t> x) {
               auto elem =
                   code_->repair(target_index, stripe_entries(chosen, x, be));
               LDS_CHECK(elem.has_value(),
                         "StripedCode: repair from d helpers");
               return std::move(*elem);
             });
  return out;
}

}  // namespace lds::codes
