// Arithmetic in GF(2^8), the symbol field of every code in this library.
//
// The paper assumes symbols are drawn from a finite field F_q (Section II-c).
// We fix q = 256 so that one symbol is one byte: values, coded elements and
// helper data are then plain byte strings, and field-size constraints
// (distinct evaluation points for the Vandermonde encoding matrices) allow
// systems with up to n1 + n2 = 255 servers, comfortably covering the paper's
// largest configuration (n1 = n2 = 100, Fig. 6).
//
// Scalar arithmetic uses the classic log/antilog tables over the AES
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), built once at static
// initialisation.
//
// The vector kernels (axpy / mul_into / dot / scale) are the hot path of
// encode, decode and repair.  They are runtime-dispatched over ISA-specific
// implementations of two techniques.  Most use the split-nibble
// shuffle-table multiply (ISA-L / "Screaming Fast Galois Field Arithmetic",
// Plank et al.):
//
//   product = T_lo[x & 0xF] ^ T_hi[x >> 4]
//
// where T_lo/T_hi are 16-entry tables of a*v and a*(v<<4).  With PSHUFB
// (SSSE3), VPSHUFB (AVX2) or TBL (NEON) this multiplies 16/32 bytes per
// instruction; the portable fallback walks the same 32-byte table one byte
// at a time (branch-free, ~2-3x the old log/exp loop).  On x86 CPUs with
// GFNI and AVX-512BW, the gfni kernels instead multiply 64 bytes per
// GF2P8AFFINEQB by the 8x8 bit matrix of x -> a*x, and end each call with
// one masked 64-byte step instead of a scalar tail; their dot is SSSE3's.
// The best ISA is selected once at startup via CPUID/HWCAP (gfni, then
// avx2, neon, ssse3, scalar) and can be overridden with
// LDS_GF_ISA=scalar|ssse3|avx2|neon|gfni (or per-process via select_isa,
// used by the equivalence tests).  Every path returns bit-identical results:
// GF multiplication is exact, and the nibble tables and bit matrices are
// built from the same exp/log tables, so dispatch NEVER changes any byte of
// any encode, decode or repair output.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/assert.h"

namespace lds::gf {

using Elem = std::uint8_t;

/// Order of the multiplicative group.
inline constexpr int kGroupOrder = 255;

/// Instruction sets a kernel build may target.  Scalar is always available;
/// the rest require both compiler support (per-function target attributes)
/// and runtime CPU support.  Gfni needs GFNI and AVX-512BW.
enum class Isa : std::uint8_t {
  Scalar = 0,
  Ssse3 = 1,
  Avx2 = 2,
  Neon = 3,
  Gfni = 4
};

const char* isa_name(Isa isa);
std::optional<Isa> parse_isa(std::string_view name);

/// The ISA the dispatched kernels currently run on.  First use selects the
/// best supported ISA, unless the LDS_GF_ISA environment variable names a
/// supported override.
Isa active_isa();

/// All ISAs usable on this machine (always contains Isa::Scalar).
std::vector<Isa> supported_isas();

/// Re-point the dispatched kernels at `isa`.  Returns false (and changes
/// nothing) when the ISA is not supported here.  Intended for startup
/// configuration and for the SIMD-vs-scalar equivalence tests; swapping
/// while other threads run kernels is safe (atomic pointer) but the switch
/// point is then unspecified.
bool select_isa(Isa isa);

namespace detail {
struct Tables {
  Elem exp[512];   // exp[i] = g^i, doubled so exp[log a + log b] needs no mod
  std::uint16_t log[256];  // log[0] unused sentinel
  // Split-nibble product tables: nib[a][v] = a * v and nib[a][16 + v] =
  // a * (v << 4) for v in [0, 16).  One 32-byte row per multiplier is
  // exactly the pair of shuffle tables the SIMD kernels need, and the
  // scalar fallback walks the same row (8 KiB total, L1-resident).
  alignas(16) Elem nib[256][32];
  // GF2P8AFFINEQB matrices: output bit r of a * x is the parity of
  // x & (byte 7 - r of affine[a]), whose bit c is bit r of a * 2^c
  // (2 KiB total, read by the gfni kernels).
  std::uint64_t affine[256];
  Tables();
};
const Tables& tables();

/// Raw kernel table one ISA implementation provides.  Pointers operate on
/// `len` bytes; callers guarantee a != 0 (and a != 1 where it matters).
struct Kernels {
  Isa isa;
  void (*axpy)(Elem* y, Elem a, const Elem* x, std::size_t len);
  void (*mul_into)(Elem* z, Elem a, const Elem* x, std::size_t len);
  Elem (*dot)(const Elem* a, const Elem* b, std::size_t len);
};

const Kernels* scalar_kernels();
const Kernels* ssse3_kernels();  // null when unsupported (compile or CPU)
const Kernels* avx2_kernels();   // null when unsupported
const Kernels* neon_kernels();   // null when unsupported
const Kernels* gfni_kernels();   // null when unsupported
const Kernels& active_kernels();
}  // namespace detail

inline Elem add(Elem a, Elem b) { return a ^ b; }
inline Elem sub(Elem a, Elem b) { return a ^ b; }

inline Elem mul(Elem a, Elem b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = detail::tables();
  return t.exp[t.log[a] + t.log[b]];
}

inline Elem inv(Elem a) {
  LDS_REQUIRE(a != 0, "gf256: inverse of zero");
  const auto& t = detail::tables();
  return t.exp[kGroupOrder - t.log[a]];
}

inline Elem div(Elem a, Elem b) {
  LDS_REQUIRE(b != 0, "gf256: division by zero");
  if (a == 0) return 0;
  const auto& t = detail::tables();
  return t.exp[t.log[a] + kGroupOrder - t.log[b]];
}

/// a^e with e >= 0 (e is reduced mod 255 for a != 0).
Elem pow(Elem a, std::uint64_t e);

/// y[i] += a * x[i].  The workhorse of matrix multiply and code kernels.
void axpy(std::span<Elem> y, Elem a, std::span<const Elem> x);

/// z[i] = a * x[i] (overwrite, no accumulate).  `z` may be exactly `x`
/// (in-place) but must not partially overlap it.
void mul_into(std::span<Elem> z, Elem a, std::span<const Elem> x);

/// Inner product sum_i a[i] * b[i].
Elem dot(std::span<const Elem> a, std::span<const Elem> b);

/// x[i] *= a.
void scale(std::span<Elem> x, Elem a);

/// The generator element used by the tables (2 for polynomial 0x11D).
Elem generator();

}  // namespace lds::gf
