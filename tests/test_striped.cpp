// Striping codec: arbitrary byte values through per-stripe codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <thread>

#include "codes/factory.h"
#include "codes/pm_mbr.h"
#include "codes/pm_msr.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "net/engine.h"

namespace lds::codes {
namespace {

StripedCode mbr(std::size_t n, std::size_t k, std::size_t d) {
  return StripedCode(std::make_shared<PmMbrCode>(n, k, d));
}

class StripedSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StripedSizeTest, EncodeDecodeRoundTrip) {
  const std::size_t value_size = GetParam();
  StripedCode code = mbr(7, 3, 4);
  Rng rng(value_size + 1);
  const Bytes value = rng.bytes(value_size);
  const auto elems = code.encode_value(value);
  ASSERT_EQ(elems.size(), 7u);

  std::vector<IndexedBytes> input{{1, elems[1]}, {3, elems[3]}, {6, elems[6]}};
  auto decoded = code.decode_value(input);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StripedSizeTest,
                         ::testing::Values(0, 1, 7, 8, 9, 100, 1024, 4096));

TEST(Striped, EncodeElementMatchesEncodeValue) {
  StripedCode code = mbr(6, 2, 4);
  Rng rng(5);
  const Bytes value = rng.bytes(333);
  const auto elems = code.encode_value(value);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(code.encode_element(value, i),
              elems[static_cast<std::size_t>(i)]);
  }
}

TEST(Striped, RepairedElementDecodesWithOthers) {
  StripedCode code = mbr(7, 3, 4);
  Rng rng(6);
  const Bytes value = rng.bytes(500);
  const auto elems = code.encode_value(value);

  // Repair element 2 from helpers {3,4,5,6}.
  std::vector<IndexedBytes> helpers;
  for (int h = 3; h <= 6; ++h) {
    helpers.emplace_back(
        h, code.helper_data(h, elems[static_cast<std::size_t>(h)], 2));
  }
  auto repaired = code.repair_element(2, helpers);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, elems[2]);

  std::vector<IndexedBytes> input{{0, elems[0]}, {2, *repaired},
                                  {5, elems[5]}};
  auto decoded = code.decode_value(input);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

TEST(Striped, SizeAccountors) {
  StripedCode code = mbr(7, 3, 4);  // B = 9 symbols, alpha = 4, beta = 1
  const std::size_t value_size = 100;  // + 8B header = 108 -> 12 stripes
  EXPECT_EQ(code.stripes(value_size), 12u);
  EXPECT_EQ(code.element_size(value_size), 12u * 4u);
  EXPECT_EQ(code.helper_size(value_size), 12u);

  Rng rng(7);
  const Bytes value = rng.bytes(value_size);
  const auto elems = code.encode_value(value);
  EXPECT_EQ(elems[0].size(), code.element_size(value_size));
  EXPECT_EQ(code.helper_data(1, elems[1], 0).size(),
            code.helper_size(value_size));
}

TEST(Striped, DecodeRejectsShortInput) {
  StripedCode code = mbr(6, 3, 4);
  Rng rng(8);
  const Bytes value = rng.bytes(64);
  const auto elems = code.encode_value(value);
  std::vector<IndexedBytes> input{{0, elems[0]}, {1, elems[1]}};
  EXPECT_FALSE(code.decode_value(input).has_value());
  EXPECT_FALSE(code.decode_value({}).has_value());
}

TEST(Striped, FactoryKinds) {
  for (auto kind : {BackendKind::PmMbr, BackendKind::Rs,
                    BackendKind::Replication}) {
    StripedCode code = make_backend(kind, 8, 3, 4);
    Rng rng(static_cast<std::uint64_t>(kind) + 10);
    const Bytes value = rng.bytes(97);
    const auto elems = code.encode_value(value);
    ASSERT_EQ(elems.size(), 8u) << backend_name(kind);
    std::vector<IndexedBytes> input;
    for (std::size_t i = 0; i < code.k(); ++i) {
      input.emplace_back(static_cast<int>(i + 2), elems[i + 2]);
    }
    auto decoded = code.decode_value(input);
    ASSERT_TRUE(decoded.has_value()) << backend_name(kind);
    EXPECT_EQ(*decoded, value) << backend_name(kind);
  }
}

TEST(Striped, ReplicationElementIsValueSized) {
  StripedCode code = make_backend(BackendKind::Replication, 5, 1, 1);
  Rng rng(11);
  const Bytes value = rng.bytes(64);
  // Replication stores the (framed) value at every node: 64 + 8 header.
  EXPECT_EQ(code.element_size(value.size()), 72u);
}

// ---- encode path equivalence ------------------------------------------------
//
// encode_value has four ways to produce the same bytes: the reference
// stripe-by-stripe loop, the planar SIMD path, the planar path on the scalar
// kernels, and the lane-parallel fan-out.  All must be byte-identical, in
// the plane-major layout.

TEST(StripedPaths, PlanarMatchesStripewiseAllBackends) {
  std::vector<std::pair<std::string, StripedCode>> codes;
  for (auto kind : {BackendKind::PmMbr, BackendKind::Rs,
                    BackendKind::Replication}) {
    codes.emplace_back(backend_name(kind), make_backend(kind, 8, 3, 5));
  }
  codes.emplace_back("pm_msr",
                     StripedCode(std::make_shared<PmMsrCode>(8, 3)));
  Rng rng(21);
  for (auto& [name, code] : codes) {
    for (const std::size_t size : {0u, 1u, 9u, 333u, 4096u, 70000u}) {
      const Bytes value = rng.bytes(size);
      EXPECT_EQ(code.encode_value(value), code.encode_value_stripewise(value))
          << name << " size=" << size;
    }
  }
}

TEST(StripedPaths, ScalarAndSimdKernelsProduceIdenticalElements) {
  StripedCode code = mbr(7, 3, 4);
  Rng rng(23);
  const Bytes value = rng.bytes(100000);
  const gf::Isa best = gf::active_isa();
  ASSERT_TRUE(gf::select_isa(gf::Isa::Scalar));
  const auto scalar_elems = code.encode_value(value);
  ASSERT_TRUE(gf::select_isa(best));
  const auto simd_elems = code.encode_value(value);
  EXPECT_EQ(scalar_elems, simd_elems);
  EXPECT_EQ(simd_elems, code.encode_value_stripewise(value));
}

TEST(StripedPaths, EngineOverloadSerialFallbacks) {
  StripedCode code = mbr(7, 3, 4);
  Rng rng(29);
  const Bytes small = rng.bytes(500);       // under the fan-out threshold
  const Bytes large = rng.bytes(200000);    // over it
  const auto small_ref = code.encode_value(small);
  const auto large_ref = code.encode_value(large);
  // Null engine and single-lane (Sim) engine both take the serial path.
  EXPECT_EQ(code.encode_value(small, nullptr), small_ref);
  EXPECT_EQ(code.encode_value(large, nullptr), large_ref);
  net::SimEngine sim(42);
  EXPECT_EQ(code.encode_value(large, &sim), large_ref);
}

TEST(StripedPaths, LaneParallelMatchesSerial) {
  StripedCode code = mbr(7, 3, 4);
  Rng rng(31);
  const Bytes value = rng.bytes(300000);
  const auto ref = code.encode_value_stripewise(value);

  net::ParallelEngine::Options opt;
  opt.lanes = 4;
  net::ParallelEngine engine(opt);
  engine.start();
  // From an external (non-lane) thread.
  EXPECT_EQ(code.encode_value(value, &engine), ref);
  // From inside a lane (the production call site: an L1 server offloading).
  std::promise<std::vector<Bytes>> done;
  engine.post(0, [&] { done.set_value(code.encode_value(value, &engine)); });
  EXPECT_EQ(done.get_future().get(), ref);
  engine.stop();
}

TEST(StripedPaths, ConcurrentLaneEncodesDoNotDeadlock) {
  // Two lanes encoding at once each post helpers at the other; the
  // work-helping claim loop must let both finish.
  StripedCode code = mbr(7, 3, 4);
  Rng rng(37);
  const Bytes v1 = rng.bytes(250000);
  const Bytes v2 = rng.bytes(250000);
  const auto ref1 = code.encode_value(v1);
  const auto ref2 = code.encode_value(v2);

  net::ParallelEngine::Options opt;
  opt.lanes = 2;
  net::ParallelEngine engine(opt);
  engine.start();
  std::promise<std::vector<Bytes>> p1, p2;
  engine.post(0, [&] { p1.set_value(code.encode_value(v1, &engine)); });
  engine.post(1, [&] { p2.set_value(code.encode_value(v2, &engine)); });
  EXPECT_EQ(p1.get_future().get(), ref1);
  EXPECT_EQ(p2.get_future().get(), ref2);
  engine.stop();
}

// ---- decode, repair and helper data against a per-stripe reference ---------
//
// The reference runs the wrapped RegeneratingCode one stripe at a time on the
// plane-major layout (symbol t of stripe s at byte t * m + s).  It applies
// only the common-length part of the selection rule itself and leaves the
// rest - index range, duplicates, the repair target - to the wrapped code, so
// StripedCode's selection, index sorting and probed maps are all checked.

/// The common length of the selection rule: that of the first entry with an
/// index in [0, n) other than `skip` and a whole, non-zero number of
/// `unit`-symbol stripes; 0 when there is none.
std::size_t common_length(const std::vector<IndexedBytes>& entries,
                          std::size_t n, std::size_t unit, int skip) {
  for (const auto& [i, payload] : entries) {
    if (i < 0 || static_cast<std::size_t>(i) >= n || i == skip) continue;
    if (!payload.empty() && payload.size() % unit == 0) return payload.size();
  }
  return 0;
}

/// Stripe s of every entry of length `len` (m-byte planes), in list order.
std::vector<IndexedBytes> stripe_s(const std::vector<IndexedBytes>& entries,
                                   std::size_t len, std::size_t m,
                                   std::size_t s) {
  std::vector<IndexedBytes> out;
  for (const auto& [i, payload] : entries) {
    if (payload.size() != len) continue;
    Bytes symbols(len / m);
    for (std::size_t t = 0; t < symbols.size(); ++t) {
      symbols[t] = payload[t * m + s];
    }
    out.emplace_back(i, std::move(symbols));
  }
  return out;
}

std::optional<Bytes> ref_decode(const StripedCode& sc,
                                const std::vector<IndexedBytes>& entries) {
  const RegeneratingCode& code = sc.code();
  const std::size_t b = code.file_size();
  const std::size_t len = common_length(entries, code.n(), code.alpha(), -1);
  if (len == 0) return std::nullopt;
  const std::size_t m = len / code.alpha();
  Bytes framed(m * b);
  for (std::size_t s = 0; s < m; ++s) {
    const auto stripe = code.decode(stripe_s(entries, len, m, s));
    if (!stripe) return std::nullopt;
    for (std::size_t j = 0; j < b; ++j) framed[j * m + s] = (*stripe)[j];
  }
  if (framed.size() < 8) return std::nullopt;
  std::uint64_t size = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    size |= static_cast<std::uint64_t>(framed[i]) << (8 * i);
  }
  if (size > framed.size() - 8) return std::nullopt;
  const auto begin = framed.begin() + 8;
  return Bytes(begin, begin + static_cast<long>(size));
}

std::optional<Bytes> ref_repair(const StripedCode& sc, int target,
                                const std::vector<IndexedBytes>& entries) {
  const RegeneratingCode& code = sc.code();
  const std::size_t a = code.alpha();
  const std::size_t len =
      common_length(entries, code.n(), code.beta(), target);
  if (len == 0) return std::nullopt;
  const std::size_t m = len / code.beta();
  Bytes out(m * a);
  for (std::size_t s = 0; s < m; ++s) {
    const auto elem = code.repair(target, stripe_s(entries, len, m, s));
    if (!elem) return std::nullopt;
    for (std::size_t t = 0; t < a; ++t) out[t * m + s] = (*elem)[t];
  }
  return out;
}

Bytes ref_helper(const StripedCode& sc, int helper, const Bytes& element,
                 int target) {
  const RegeneratingCode& code = sc.code();
  const std::size_t be = code.beta();
  const std::size_t m = element.size() / code.alpha();
  Bytes out(m * be);
  Bytes symbols(code.alpha());
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t t = 0; t < symbols.size(); ++t) {
      symbols[t] = element[t * m + s];
    }
    const Bytes h = code.helper_data(helper, symbols, target);
    for (std::size_t u = 0; u < be; ++u) out[u * m + s] = h[u];
  }
  return out;
}

StripedCode code_named(const std::string& name) {
  if (name == "pm_msr") return StripedCode(std::make_shared<PmMsrCode>(8, 3));
  for (auto kind : {BackendKind::PmMbr, BackendKind::Rs,
                    BackendKind::Replication}) {
    if (name == backend_name(kind)) return make_backend(kind, 8, 3, 5);
  }
  ADD_FAILURE() << "unknown code " << name;
  return make_backend(BackendKind::PmMbr, 8, 3, 5);
}

/// Randomizes every stripe from 8 on: a non-codeword element whose decode
/// still carries the value's length header (framed bytes 0..7 sit in
/// stripes 0..7 of the first plane).
void scramble(Bytes& element, std::size_t m, Rng& rng) {
  for (std::size_t t = 0; t < element.size() / std::max<std::size_t>(m, 1);
       ++t) {
    for (std::size_t s = 8; s < m; ++s) {
      element[t * m + s] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
}

/// Adds the entries the selection rule must skip - a second entry under a
/// used index (carrying `extra`, or a copy of the first payload when
/// `codewords` must be kept consistent), indices -1 and n, an empty payload
/// - and shuffles, then puts a payload one byte too long anywhere after the
/// first in-range entry (so the common length stays that of the usable
/// entries).
void add_noise_and_shuffle(std::vector<IndexedBytes>& entries, Bytes extra,
                           bool codewords, int n, Rng& rng) {
  const auto pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(entries.size()) - 1));
  const int used = entries[pick].first;
  Bytes too_long = extra;
  too_long.push_back(0x42);
  entries.emplace_back(used, codewords ? entries[pick].second : Value(extra));
  entries.emplace_back(-1, extra);
  entries.emplace_back(n, extra);
  entries.emplace_back(used, Bytes{});
  std::shuffle(entries.begin(), entries.end(), rng.engine());
  const auto first = std::find_if(
      entries.begin(), entries.end(), [n](const IndexedBytes& e) {
        return e.first >= 0 && e.first < n && !e.second.empty();
      });
  const auto after = static_cast<std::size_t>(first - entries.begin()) + 1;
  const auto at = rng.uniform_int(static_cast<std::int64_t>(after),
                                  static_cast<std::int64_t>(entries.size()));
  entries.insert(entries.begin() + at, {used, std::move(too_long)});
}

class PlanarVsStripewise
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(PlanarVsStripewise, DecodeRepairAndHelperMatchPerStripeReference) {
  const auto& [name, size] = GetParam();
  const StripedCode code = code_named(name);
  // PM-MSR's decode is linear but order dependent off the codewords, so it
  // is checked on codewords only; the others also take arbitrary payloads.
  const bool codewords = name == "pm_msr";
  const int n = static_cast<int>(code.n());
  const std::size_t be = code.code().beta();
  const std::size_t m = code.stripes(size);
  Rng rng(size * 31 + name.size());
  const Bytes value = rng.bytes(size);
  const auto elems = code.encode_value(value);
  const gf::Isa best = gf::active_isa();

  int decoded = 0;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng.engine());
    const auto element = [&](int i) {
      Bytes e = elems[static_cast<std::size_t>(i)];
      if (!codewords) scramble(e, m, rng);
      return e;
    };

    std::vector<IndexedBytes> dec;
    for (std::size_t p = 0; p <= code.k(); ++p) {
      dec.emplace_back(order[p], element(order[p]));
    }
    add_noise_and_shuffle(dec, element(order[0]), codewords, n, rng);

    const int target = order.back();
    std::vector<IndexedBytes> rep;
    for (std::size_t p = 0; p <= code.d(); ++p) {
      const int h = order[p];
      rep.emplace_back(h, codewords ? code.helper_data(
                                          h, elems[static_cast<std::size_t>(h)],
                                          target)
                                    : rng.bytes(m * be));
    }
    rep.emplace_back(target, rng.bytes(m * be));  // the target itself
    add_noise_and_shuffle(rep, rng.bytes(m * be), codewords, n, rng);

    const int helper = order[1];
    const Bytes helper_elem = element(helper);

    const auto want_dec = ref_decode(code, dec);
    const auto want_rep = ref_repair(code, target, rep);
    const Bytes want_help = ref_helper(code, helper, helper_elem, target);
    if (codewords) {
      EXPECT_EQ(want_dec, value);
      EXPECT_EQ(want_rep, elems[static_cast<std::size_t>(target)]);
    }
    ASSERT_TRUE(want_rep.has_value());
    decoded += want_dec.has_value() ? 1 : 0;

    for (const gf::Isa isa : {gf::Isa::Scalar, best}) {
      ASSERT_TRUE(gf::select_isa(isa));
      EXPECT_EQ(code.decode_value(dec), want_dec)
          << name << " size=" << size << " isa=" << gf::isa_name(isa);
      EXPECT_EQ(code.repair_element(target, rep), want_rep)
          << name << " size=" << size << " isa=" << gf::isa_name(isa);
      EXPECT_EQ(code.helper_data(helper, helper_elem, target), want_help)
          << name << " size=" << size << " isa=" << gf::isa_name(isa);
    }
    ASSERT_TRUE(gf::select_isa(best));
  }
  EXPECT_GT(decoded, 0) << "every decode case was rejected";
}

TEST_P(PlanarVsStripewise, EncodeFromIsTheEncodeTail) {
  // The LDS offload encodes only C2, the last coordinates: the tail of the
  // full encode byte for byte, on whichever path the size selects.
  const auto& [name, size] = GetParam();
  const StripedCode code = code_named(name);
  const Bytes value = Rng(size + 3).bytes(size);
  const auto elems = code.encode_value(value);
  for (const std::size_t first : {std::size_t{1}, code.n() / 2, code.n() - 1}) {
    const std::vector<Bytes> tail(elems.begin() + static_cast<long>(first),
                                  elems.end());
    EXPECT_EQ(code.encode_from(value, first), tail)
        << name << " size=" << size << " first=" << first;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodesAndSizes, PlanarVsStripewise,
    ::testing::Combine(::testing::Values("pm-mbr", "rs", "replication",
                                         "pm_msr"),
                       ::testing::Values(0, 1, 9, 256, 333, 16384, 70000)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The paper's large regimes (k = d = 0.8 n) cross the planar/stripewise
// rule inside one geometry: at n = 20 every map is planar, at n = 40 repair
// and helper data are planar while decode and encode (maps of 528 Ki and
// 660 Ki coefficients) run stripe by stripe, and at n = 100 (the benches'
// 40000-byte values, 13 stripes) everything runs stripe by stripe.
TEST(StripedPaths, LargeGeometriesMatchPerStripeReference) {
  using Case = std::pair<std::size_t, std::size_t>;  // n, value size
  for (const auto& [n, size] : {Case{20, 36000}, Case{40, 27000},
                                Case{100, 40000}}) {
    const std::size_t k = n * 8 / 10;
    const StripedCode code = make_backend(BackendKind::PmMbr, n, k, k);
    Rng rng(n);
    const Bytes value = rng.bytes(size);
    const auto elems = code.encode_value(value);
    EXPECT_EQ(elems, code.encode_value_stripewise(value)) << "n=" << n;
    EXPECT_EQ(code.encode_element(value, 3), elems[3]) << "n=" << n;
    EXPECT_EQ(code.encode_from(value, n / 2),
              std::vector<Bytes>(elems.begin() + static_cast<long>(n / 2),
                                 elems.end()))
        << "n=" << n;

    std::vector<IndexedBytes> coded;
    for (std::size_t i = n - k; i < n; ++i) {
      coded.emplace_back(static_cast<int>(i), elems[i]);
    }
    std::shuffle(coded.begin(), coded.end(), rng.engine());
    EXPECT_EQ(code.decode_value(coded), value) << "n=" << n;
    EXPECT_EQ(code.decode_value(coded), ref_decode(code, coded)) << "n=" << n;

    const int target = 0;
    std::vector<IndexedBytes> helpers;
    for (std::size_t h = 1; h <= k; ++h) {
      helpers.emplace_back(static_cast<int>(h),
                           code.helper_data(static_cast<int>(h), elems[h],
                                            target));
      EXPECT_EQ(helpers.back().second,
                ref_helper(code, static_cast<int>(h), elems[h], target))
          << "n=" << n << " helper=" << h;
    }
    EXPECT_EQ(code.repair_element(target, helpers), elems[0]) << "n=" << n;
    EXPECT_EQ(code.repair_element(target, helpers),
              ref_repair(code, target, helpers))
        << "n=" << n;
  }
}

TEST(StripedPaths, ManyIndexSetsOfLargeMapsDecodeExactly) {
  // Each decode map here is 136 x 256 coefficients (34 KiB) and each
  // index set gets its own, so 160 sets drive the shared cache past its
  // byte bound: it is cleared and re-probed mid-run, and every decode must
  // still be exact.
  const std::size_t n = 20, k = 16;
  const StripedCode code = make_backend(BackendKind::PmMbr, n, k, k);
  Rng rng(43);
  const Bytes value = rng.bytes(36000);
  const auto elems = code.encode_value(value);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int set = 0; set < 160; ++set) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    std::vector<IndexedBytes> coded;
    for (std::size_t p = 0; p < k; ++p) {
      coded.emplace_back(order[p], elems[static_cast<std::size_t>(order[p])]);
    }
    ASSERT_EQ(code.decode_value(coded), value) << "set " << set;
  }
}

TEST(StripedPaths, TwoCopiesDecodeAndRepairConcurrently) {
  // Copies share one map cache and one wrapped code; two threads probing
  // and reading the maps (5000-byte value: planar) or running the wrapped
  // code's shared inverse cache (40-byte value: 4 stripes, stripewise) at
  // once must each get exact results.
  const StripedCode original = mbr(8, 3, 5);
  const StripedCode copy = original;
  for (const std::size_t size : {5000, 40}) {
    Rng rng(41 + size);
    const Bytes value = rng.bytes(size);
    const auto elems = original.encode_value(value);

    std::atomic<int> wrong{0};
    const auto worker = [&](const StripedCode& code, std::uint64_t seed) {
      Rng r(seed);
      std::vector<int> order(8);
      std::iota(order.begin(), order.end(), 0);
      for (int iter = 0; iter < 300; ++iter) {
        std::shuffle(order.begin(), order.end(), r.engine());
        std::vector<IndexedBytes> coded;
        for (std::size_t p = 0; p < code.k(); ++p) {
          coded.emplace_back(order[p],
                             elems[static_cast<std::size_t>(order[p])]);
        }
        if (code.decode_value(coded) != value) ++wrong;

        const int target = order[0];
        std::vector<IndexedBytes> helpers;
        for (std::size_t p = 1; p <= code.d(); ++p) {
          const int h = order[p];
          helpers.emplace_back(
              h, code.helper_data(h, elems[static_cast<std::size_t>(h)],
                                  target));
        }
        if (code.repair_element(target, helpers) !=
            elems[static_cast<std::size_t>(target)]) {
          ++wrong;
        }
      }
    };
    std::thread t1(worker, std::cref(original), 1);
    std::thread t2(worker, std::cref(copy), 2);
    t1.join();
    t2.join();
    EXPECT_EQ(wrong.load(), 0) << "size=" << size;
  }
}

}  // namespace
}  // namespace lds::codes
