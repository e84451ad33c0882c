// AArch64 GF(2^8) vector kernels: split-nibble TBL multiply (16 B/step).
//
// NEON is architecturally baseline on AArch64, so no runtime probe is
// needed: the kernels are available whenever this TU compiles for arm64.
// On every other architecture this file provides the null stubs for the
// non-native kernel families (gf256_x86.cpp does the same for neon on x86),
// so detail::kernels_for() links everywhere.
#include "gf/gf256.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace lds::gf::detail {

namespace {

inline uint8x16_t mul16(uint8x16_t v, uint8x16_t lo, uint8x16_t hi) {
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  const uint8x16_t l = vqtbl1q_u8(lo, vandq_u8(v, mask));
  const uint8x16_t h = vqtbl1q_u8(hi, vshrq_n_u8(v, 4));
  return veorq_u8(l, h);
}

void axpy_neon(Elem* y, Elem a, const Elem* x, std::size_t len) {
  const Elem* t = tables().nib[a];
  const uint8x16_t lo = vld1q_u8(t);
  const uint8x16_t hi = vld1q_u8(t + 16);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const uint8x16_t p = mul16(vld1q_u8(x + i), lo, hi);
    vst1q_u8(y + i, veorq_u8(vld1q_u8(y + i), p));
  }
  for (; i < len; ++i) {
    y[i] ^= static_cast<Elem>(t[x[i] & 0x0f] ^ t[16 + (x[i] >> 4)]);
  }
}

void mul_into_neon(Elem* z, Elem a, const Elem* x, std::size_t len) {
  const Elem* t = tables().nib[a];
  const uint8x16_t lo = vld1q_u8(t);
  const uint8x16_t hi = vld1q_u8(t + 16);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    vst1q_u8(z + i, mul16(vld1q_u8(x + i), lo, hi));
  }
  for (; i < len; ++i) {
    z[i] = static_cast<Elem>(t[x[i] & 0x0f] ^ t[16 + (x[i] >> 4)]);
  }
}

Elem dot_neon(const Elem* a, const Elem* b, std::size_t len) {
  // Bitsliced schoolbook multiply, as in the x86 dot kernel.
  const auto& t = tables();
  Elem acc = 0;
  std::size_t i = 0;
  if (len >= 16) {
    const uint8x16_t poly = vdupq_n_u8(0x1D);
    uint8x16_t vacc = vdupq_n_u8(0);
    for (; i + 16 <= len; i += 16) {
      uint8x16_t pa = vld1q_u8(a + i);
      uint8x16_t pb = vld1q_u8(b + i);
      uint8x16_t prod = vdupq_n_u8(0);
      for (int bit = 0; bit < 8; ++bit) {
        const uint8x16_t sel = vtstq_u8(pa, vdupq_n_u8(1));
        prod = veorq_u8(prod, vandq_u8(sel, pb));
        const uint8x16_t carry = vtstq_u8(pb, vdupq_n_u8(0x80));
        pb = vshlq_n_u8(pb, 1);
        pb = veorq_u8(pb, vandq_u8(carry, poly));
        pa = vshrq_n_u8(pa, 1);
      }
      vacc = veorq_u8(vacc, prod);
    }
    Elem lanes[16];
    vst1q_u8(lanes, vacc);
    for (Elem l : lanes) acc ^= l;
  }
  for (; i < len; ++i) {
    if (a[i] != 0 && b[i] != 0) acc ^= t.exp[t.log[a[i]] + t.log[b[i]]];
  }
  return acc;
}

constexpr Kernels kNeonKernels{Isa::Neon, axpy_neon, mul_into_neon, dot_neon};

}  // namespace

const Kernels* neon_kernels() { return &kNeonKernels; }
const Kernels* ssse3_kernels() { return nullptr; }
const Kernels* avx2_kernels() { return nullptr; }
const Kernels* gfni_kernels() { return nullptr; }

}  // namespace lds::gf::detail

#elif !defined(__x86_64__) && !defined(__i386__)

namespace lds::gf::detail {
const Kernels* neon_kernels() { return nullptr; }
const Kernels* ssse3_kernels() { return nullptr; }
const Kernels* avx2_kernels() { return nullptr; }
const Kernels* gfni_kernels() { return nullptr; }
}  // namespace lds::gf::detail

#endif
