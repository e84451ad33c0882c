#include "gf/gf256.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace lds::gf {

namespace detail {

Tables::Tables() {
  // Generator 2 (the element "x") is primitive for the polynomial
  // x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
  constexpr unsigned kPoly = 0x11D;
  unsigned x = 1;
  for (int i = 0; i < kGroupOrder; ++i) {
    exp[i] = static_cast<Elem>(x);
    log[x] = static_cast<std::uint16_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPoly;
  }
  for (int i = kGroupOrder; i < 512; ++i) exp[i] = exp[i - kGroupOrder];
  log[0] = 0;  // sentinel, never read on the hot path (guarded by a==0)

  // Split-nibble product tables (see gf256.h).  mul() via log/exp is safe
  // here: exp/log are fully built above.
  for (int a = 0; a < 256; ++a) {
    for (int v = 0; v < 16; ++v) {
      const auto ae = static_cast<Elem>(a);
      nib[a][v] = [&] {
        if (a == 0 || v == 0) return Elem{0};
        return exp[log[ae] + log[v]];
      }();
      const int vh = v << 4;
      nib[a][16 + v] = (a == 0 || vh == 0)
                           ? Elem{0}
                           : exp[log[ae] + log[static_cast<Elem>(vh)]];
    }
  }

  // GF2P8AFFINEQB bit matrices (see gf256.h).  Column c is a * 2^c, and the
  // generator 2 has log 1, so a * 2^c = exp[log a + c].
  for (int a = 0; a < 256; ++a) {
    std::uint64_t m = 0;
    for (int c = 0; c < 8; ++c) {
      const unsigned col = a == 0 ? 0 : exp[log[a] + c];
      for (int r = 0; r < 8; ++r) {
        if ((col >> r) & 1) m |= std::uint64_t{1} << (8 * (7 - r) + c);
      }
    }
    affine[a] = m;
  }
}

const Tables& tables() {
  static const Tables t;
  return t;
}

// ---- scalar kernels (portable 4-bit split-table fallback) -------------------

namespace {

void axpy_scalar(Elem* y, Elem a, const Elem* x, std::size_t len) {
  const Elem* t = tables().nib[a];
  for (std::size_t i = 0; i < len; ++i) {
    y[i] ^= static_cast<Elem>(t[x[i] & 0x0f] ^ t[16 + (x[i] >> 4)]);
  }
}

void mul_into_scalar(Elem* z, Elem a, const Elem* x, std::size_t len) {
  const Elem* t = tables().nib[a];
  for (std::size_t i = 0; i < len; ++i) {
    z[i] = static_cast<Elem>(t[x[i] & 0x0f] ^ t[16 + (x[i] >> 4)]);
  }
}

Elem dot_scalar(const Elem* a, const Elem* b, std::size_t len) {
  const auto& t = tables();
  Elem acc = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (a[i] != 0 && b[i] != 0) acc ^= t.exp[t.log[a[i]] + t.log[b[i]]];
  }
  return acc;
}

constexpr Kernels kScalarKernels{Isa::Scalar, axpy_scalar, mul_into_scalar,
                                 dot_scalar};

}  // namespace

const Kernels* scalar_kernels() { return &kScalarKernels; }

// ---- dispatch ---------------------------------------------------------------

namespace {

const Kernels* kernels_for(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return scalar_kernels();
    case Isa::Ssse3: return ssse3_kernels();
    case Isa::Avx2: return avx2_kernels();
    case Isa::Neon: return neon_kernels();
    case Isa::Gfni: return gfni_kernels();
  }
  return nullptr;
}

const Kernels* best_kernels() {
  for (Isa isa : {Isa::Gfni, Isa::Avx2, Isa::Neon, Isa::Ssse3}) {
    if (const Kernels* k = kernels_for(isa)) return k;
  }
  return scalar_kernels();
}

std::atomic<const Kernels*> g_kernels{nullptr};
std::once_flag g_kernels_once;

void init_kernels() {
  const Kernels* chosen = best_kernels();
  if (const char* env = std::getenv("LDS_GF_ISA")) {
    if (const auto isa = parse_isa(env)) {
      if (const Kernels* k = kernels_for(*isa)) {
        chosen = k;
      } else {
        std::fprintf(stderr,
                     "lds: LDS_GF_ISA=%s not supported on this CPU; "
                     "using %s\n",
                     env, isa_name(chosen->isa));
      }
    } else {
      std::fprintf(stderr,
                   "lds: LDS_GF_ISA=%s not recognised "
                   "(scalar|ssse3|avx2|neon|gfni); using %s\n",
                   env, isa_name(chosen->isa));
    }
  }
  g_kernels.store(chosen, std::memory_order_release);
}

}  // namespace

const Kernels& active_kernels() {
  const Kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    std::call_once(g_kernels_once, init_kernels);
    k = g_kernels.load(std::memory_order_acquire);
  }
  return *k;
}

}  // namespace detail

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Ssse3: return "ssse3";
    case Isa::Avx2: return "avx2";
    case Isa::Neon: return "neon";
    case Isa::Gfni: return "gfni";
  }
  return "?";
}

std::optional<Isa> parse_isa(std::string_view name) {
  if (name == "scalar") return Isa::Scalar;
  if (name == "ssse3") return Isa::Ssse3;
  if (name == "avx2") return Isa::Avx2;
  if (name == "neon") return Isa::Neon;
  if (name == "gfni") return Isa::Gfni;
  return std::nullopt;
}

Isa active_isa() { return detail::active_kernels().isa; }

std::vector<Isa> supported_isas() {
  std::vector<Isa> out{Isa::Scalar};
  for (Isa isa : {Isa::Ssse3, Isa::Avx2, Isa::Neon, Isa::Gfni}) {
    if (detail::kernels_for(isa) != nullptr) out.push_back(isa);
  }
  return out;
}

bool select_isa(Isa isa) {
  detail::active_kernels();  // ensure the env/default selection ran first
  const detail::Kernels* k = detail::kernels_for(isa);
  if (k == nullptr) return false;
  detail::g_kernels.store(k, std::memory_order_release);
  return true;
}

Elem pow(Elem a, std::uint64_t e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::tables();
  // Reduce the exponent mod the group order FIRST: log[a] * e wraps u64 for
  // e >= 2^56 and would silently return a wrong element.
  const std::uint64_t er = e % static_cast<std::uint64_t>(kGroupOrder);
  const std::uint64_t le = (static_cast<std::uint64_t>(t.log[a]) * er) %
                           static_cast<std::uint64_t>(kGroupOrder);
  return t.exp[le];
}

void axpy(std::span<Elem> y, Elem a, std::span<const Elem> x) {
  LDS_REQUIRE(y.size() == x.size(), "gf256::axpy: size mismatch");
  if (a == 0 || y.empty()) return;
  detail::active_kernels().axpy(y.data(), a, x.data(), y.size());
}

void mul_into(std::span<Elem> z, Elem a, std::span<const Elem> x) {
  LDS_REQUIRE(z.size() == x.size(), "gf256::mul_into: size mismatch");
  if (z.empty()) return;
  if (a == 0) {
    std::memset(z.data(), 0, z.size());
    return;
  }
  if (a == 1) {
    if (z.data() != x.data()) std::memcpy(z.data(), x.data(), z.size());
    return;
  }
  detail::active_kernels().mul_into(z.data(), a, x.data(), z.size());
}

Elem dot(std::span<const Elem> a, std::span<const Elem> b) {
  LDS_REQUIRE(a.size() == b.size(), "gf256::dot: size mismatch");
  if (a.empty()) return 0;
  return detail::active_kernels().dot(a.data(), b.data(), a.size());
}

void scale(std::span<Elem> x, Elem a) {
  if (a == 1 || x.empty()) return;
  if (a == 0) {
    std::memset(x.data(), 0, x.size());
    return;
  }
  detail::active_kernels().mul_into(x.data(), a, x.data(), x.size());
}

Elem generator() { return 2; }

}  // namespace lds::gf
