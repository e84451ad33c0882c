// x86 GF(2^8) vector kernels: split-nibble shuffle-table multiply and GFNI
// affine multiply.
//
// Per-function target attributes let one translation unit carry the SSSE3
// (PSHUFB, 16 B/step), AVX2 (VPSHUFB, 64 B/step, 2x unrolled) and GFNI
// (VGF2P8AFFINEQB on AVX-512, 128 B/step, 2x unrolled) kernels without
// raising the global -m flags, so the binary still runs on machines without
// the extensions; detail::active_kernels() picks at runtime via CPUID
// (__builtin_cpu_supports).
//
// The SSSE3 and AVX2 kernels compute exactly  T_lo[x & 0xF] ^ T_hi[x >> 4]
// from the same precomputed detail::Tables::nib rows the scalar fallback
// uses.  AVX2 finishes its 32-byte steps with one 16-byte step on 128-bit
// registers, so a call shorter than 32 bytes does not run all scalar, and
// both leave only a tail shorter than 16 bytes to the scalar loop.  The GFNI
// kernels multiply by detail::Tables::affine[a], the bit matrix of the same
// product, and finish with one masked 64-byte step that loads and stores
// only the bytes left.
#include "gf/gf256.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace lds::gf::detail {

namespace {

inline void axpy_tail(Elem* y, const Elem* t, const Elem* x, std::size_t i,
                      std::size_t len) {
  for (; i < len; ++i) {
    y[i] ^= static_cast<Elem>(t[x[i] & 0x0f] ^ t[16 + (x[i] >> 4)]);
  }
}

inline void mul_tail(Elem* z, const Elem* t, const Elem* x, std::size_t i,
                     std::size_t len) {
  for (; i < len; ++i) {
    z[i] = static_cast<Elem>(t[x[i] & 0x0f] ^ t[16 + (x[i] >> 4)]);
  }
}

// ---- SSSE3 ------------------------------------------------------------------

__attribute__((target("ssse3"))) inline __m128i
mul16(__m128i v, __m128i lo, __m128i hi, __m128i mask) {
  const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
  const __m128i h =
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask));
  return _mm_xor_si128(l, h);
}

__attribute__((target("ssse3"))) void axpy_ssse3(Elem* y, Elem a,
                                                 const Elem* x,
                                                 std::size_t len) {
  const Elem* t = tables().nib[a];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i p = mul16(v, lo, hi, mask);
    __m128i* yp = reinterpret_cast<__m128i*>(y + i);
    _mm_storeu_si128(yp, _mm_xor_si128(_mm_loadu_si128(yp), p));
  }
  axpy_tail(y, t, x, i, len);
}

__attribute__((target("ssse3"))) void mul_into_ssse3(Elem* z, Elem a,
                                                     const Elem* x,
                                                     std::size_t len) {
  const Elem* t = tables().nib[a];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(z + i),
                     mul16(v, lo, hi, mask));
  }
  mul_tail(z, t, x, i, len);
}

__attribute__((target("ssse3"))) Elem dot_ssse3(const Elem* a, const Elem* b,
                                                std::size_t len) {
  // Unlike axpy/mul_into there is no single multiplier, so shuffle tables do
  // not apply; multiply 16 byte-pairs at once with the bitsliced schoolbook
  // instead (accumulate b·x^j for each set bit j of a, reducing by the field
  // polynomial), and XOR-fold the lanes at the end.
  const auto& t = tables();
  Elem acc = 0;
  std::size_t i = 0;
  if (len >= 16) {
    const __m128i one = _mm_set1_epi8(1);
    const __m128i top = _mm_set1_epi8(static_cast<char>(0x80));
    const __m128i poly = _mm_set1_epi8(0x1D);  // 0x11D mod x^8
    const __m128i low7 = _mm_set1_epi8(0x7f);
    __m128i vacc = _mm_setzero_si128();
    for (; i + 16 <= len; i += 16) {
      __m128i pa = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      __m128i pb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
      __m128i prod = _mm_setzero_si128();
      for (int bit = 0; bit < 8; ++bit) {
        const __m128i sel = _mm_cmpeq_epi8(_mm_and_si128(pa, one), one);
        prod = _mm_xor_si128(prod, _mm_and_si128(sel, pb));
        const __m128i carry = _mm_cmpeq_epi8(_mm_and_si128(pb, top), top);
        pb = _mm_add_epi8(pb, pb);  // per-byte shift left by 1
        pb = _mm_xor_si128(pb, _mm_and_si128(carry, poly));
        pa = _mm_and_si128(_mm_srli_epi64(pa, 1), low7);
      }
      vacc = _mm_xor_si128(vacc, prod);
    }
    alignas(16) Elem lanes[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vacc);
    for (Elem l : lanes) acc ^= l;
  }
  for (; i < len; ++i) {
    if (a[i] != 0 && b[i] != 0) acc ^= t.exp[t.log[a[i]] + t.log[b[i]]];
  }
  return acc;
}

// ---- AVX2 -------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
mul32(__m256i v, __m256i lo, __m256i hi, __m256i mask) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
  const __m256i h =
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
  return _mm256_xor_si256(l, h);
}

__attribute__((target("avx2"))) void axpy_avx2(Elem* y, Elem a, const Elem* x,
                                               std::size_t len) {
  const Elem* t = tables().nib[a];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  if (len >= 32) {
    // Widen the tables only when a 32-byte step runs: a shorter call stays
    // on 128-bit registers and costs what the SSSE3 kernel does.
    const __m256i lo32 = _mm256_broadcastsi128_si256(lo);
    const __m256i hi32 = _mm256_broadcastsi128_si256(hi);
    const __m256i mask32 = _mm256_set1_epi8(0x0f);
    for (; i + 64 <= len; i += 64) {
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 32));
      __m256i* y0 = reinterpret_cast<__m256i*>(y + i);
      __m256i* y1 = reinterpret_cast<__m256i*>(y + i + 32);
      _mm256_storeu_si256(y0, _mm256_xor_si256(_mm256_loadu_si256(y0),
                                               mul32(v0, lo32, hi32, mask32)));
      _mm256_storeu_si256(y1, _mm256_xor_si256(_mm256_loadu_si256(y1),
                                               mul32(v1, lo32, hi32, mask32)));
    }
    for (; i + 32 <= len; i += 32) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
      __m256i* yp = reinterpret_cast<__m256i*>(y + i);
      _mm256_storeu_si256(yp, _mm256_xor_si256(_mm256_loadu_si256(yp),
                                               mul32(v, lo32, hi32, mask32)));
    }
  }
  if (i + 16 <= len) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    __m128i* yp = reinterpret_cast<__m128i*>(y + i);
    _mm_storeu_si128(yp,
                     _mm_xor_si128(_mm_loadu_si128(yp), mul16(v, lo, hi, mask)));
    i += 16;
  }
  axpy_tail(y, t, x, i, len);
}

__attribute__((target("avx2"))) void mul_into_avx2(Elem* z, Elem a,
                                                   const Elem* x,
                                                   std::size_t len) {
  const Elem* t = tables().nib[a];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  if (len >= 32) {
    const __m256i lo32 = _mm256_broadcastsi128_si256(lo);
    const __m256i hi32 = _mm256_broadcastsi128_si256(hi);
    const __m256i mask32 = _mm256_set1_epi8(0x0f);
    for (; i + 32 <= len; i += 32) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(z + i),
                          mul32(v, lo32, hi32, mask32));
    }
  }
  if (i + 16 <= len) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(z + i),
                     mul16(v, lo, hi, mask));
    i += 16;
  }
  mul_tail(z, t, x, i, len);
}

Elem dot_avx2(const Elem* a, const Elem* b, std::size_t len) {
  return dot_ssse3(a, b, len);  // dot is not the striped hot path; reuse
}

// ---- GFNI (AVX-512) ---------------------------------------------------------

__attribute__((target("gfni,avx512f,avx512bw"))) inline __m512i
mul64(const Elem* x, __m512i m) {
  return _mm512_gf2p8affine_epi64_epi8(_mm512_loadu_si512(x), m, 0);
}

// The bytes [0, rem) of a 64-byte step, for 0 < rem < 64.  Masked-off bytes
// are neither loaded nor stored, so they cannot fault or change.
__attribute__((target("gfni,avx512f,avx512bw"))) inline __mmask64
tail_mask(std::size_t rem) {
  return _cvtu64_mask64((std::uint64_t{1} << rem) - 1);
}

__attribute__((target("gfni,avx512f,avx512bw"))) void axpy_gfni(
    Elem* y, Elem a, const Elem* x, std::size_t len) {
  const __m512i m =
      _mm512_set1_epi64(static_cast<long long>(tables().affine[a]));
  std::size_t i = 0;
  for (; i + 128 <= len; i += 128) {
    const __m512i p0 = mul64(x + i, m);
    const __m512i p1 = mul64(x + i + 64, m);
    _mm512_storeu_si512(y + i,
                        _mm512_xor_si512(_mm512_loadu_si512(y + i), p0));
    _mm512_storeu_si512(y + i + 64,
                        _mm512_xor_si512(_mm512_loadu_si512(y + i + 64), p1));
  }
  if (i + 64 <= len) {
    _mm512_storeu_si512(
        y + i, _mm512_xor_si512(_mm512_loadu_si512(y + i), mul64(x + i, m)));
    i += 64;
  }
  if (i < len) {
    const __mmask64 k = tail_mask(len - i);
    const __m512i p = _mm512_gf2p8affine_epi64_epi8(
        _mm512_maskz_loadu_epi8(k, x + i), m, 0);
    _mm512_mask_storeu_epi8(
        y + i, k, _mm512_xor_si512(_mm512_maskz_loadu_epi8(k, y + i), p));
  }
}

__attribute__((target("gfni,avx512f,avx512bw"))) void mul_into_gfni(
    Elem* z, Elem a, const Elem* x, std::size_t len) {
  const __m512i m =
      _mm512_set1_epi64(static_cast<long long>(tables().affine[a]));
  std::size_t i = 0;
  for (; i + 128 <= len; i += 128) {
    const __m512i p0 = mul64(x + i, m);
    const __m512i p1 = mul64(x + i + 64, m);
    _mm512_storeu_si512(z + i, p0);
    _mm512_storeu_si512(z + i + 64, p1);
  }
  if (i + 64 <= len) {
    _mm512_storeu_si512(z + i, mul64(x + i, m));
    i += 64;
  }
  if (i < len) {
    const __mmask64 k = tail_mask(len - i);
    _mm512_mask_storeu_epi8(z + i, k,
                            _mm512_gf2p8affine_epi64_epi8(
                                _mm512_maskz_loadu_epi8(k, x + i), m, 0));
  }
}

constexpr Kernels kSsse3Kernels{Isa::Ssse3, axpy_ssse3, mul_into_ssse3,
                                dot_ssse3};
constexpr Kernels kAvx2Kernels{Isa::Avx2, axpy_avx2, mul_into_avx2, dot_avx2};
// dot is off the planar path, so the gfni set keeps the SSSE3 kernel (every
// GFNI + AVX-512BW CPU has SSSE3).
constexpr Kernels kGfniKernels{Isa::Gfni, axpy_gfni, mul_into_gfni,
                               dot_ssse3};

}  // namespace

const Kernels* ssse3_kernels() {
  return __builtin_cpu_supports("ssse3") ? &kSsse3Kernels : nullptr;
}

const Kernels* avx2_kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
}

const Kernels* gfni_kernels() {
  return __builtin_cpu_supports("gfni") &&
                 __builtin_cpu_supports("avx512f") &&
                 __builtin_cpu_supports("avx512bw")
             ? &kGfniKernels
             : nullptr;
}

const Kernels* neon_kernels() { return nullptr; }

}  // namespace lds::gf::detail

#endif  // x86
