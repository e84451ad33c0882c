// GF(2^8) field axioms and kernel tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "gf/gf256.h"

namespace lds::gf {
namespace {

TEST(Gf256, AddIsXor) {
  EXPECT_EQ(add(0, 0), 0);
  EXPECT_EQ(add(0x55, 0xAA), 0xFF);
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(add(static_cast<Elem>(a), static_cast<Elem>(a)), 0)
        << "characteristic 2: a + a = 0";
  }
}

TEST(Gf256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(mul(static_cast<Elem>(a), 1), a);
    EXPECT_EQ(mul(1, static_cast<Elem>(a)), a);
    EXPECT_EQ(mul(static_cast<Elem>(a), 0), 0);
    EXPECT_EQ(mul(0, static_cast<Elem>(a)), 0);
  }
}

TEST(Gf256, MulCommutative) {
  for (int a = 0; a < 256; a += 3) {
    for (int b = 0; b < 256; b += 5) {
      EXPECT_EQ(mul(static_cast<Elem>(a), static_cast<Elem>(b)),
                mul(static_cast<Elem>(b), static_cast<Elem>(a)));
    }
  }
}

TEST(Gf256, MulAssociative) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const Elem a = static_cast<Elem>(rng.uniform_int(0, 255));
    const Elem b = static_cast<Elem>(rng.uniform_int(0, 255));
    const Elem c = static_cast<Elem>(rng.uniform_int(0, 255));
    EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
  }
}

TEST(Gf256, Distributive) {
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const Elem a = static_cast<Elem>(rng.uniform_int(0, 255));
    const Elem b = static_cast<Elem>(rng.uniform_int(0, 255));
    const Elem c = static_cast<Elem>(rng.uniform_int(0, 255));
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
  }
}

TEST(Gf256, InverseRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    const Elem e = static_cast<Elem>(a);
    EXPECT_EQ(mul(e, inv(e)), 1) << "a = " << a;
    EXPECT_EQ(inv(inv(e)), e);
  }
}

TEST(Gf256, DivisionDefinition) {
  for (int a = 0; a < 256; a += 7) {
    for (int b = 1; b < 256; b += 5) {
      const Elem q = div(static_cast<Elem>(a), static_cast<Elem>(b));
      EXPECT_EQ(mul(q, static_cast<Elem>(b)), a);
    }
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int a = 1; a < 256; a += 11) {
    Elem acc = 1;
    for (std::uint64_t e = 0; e < 300; ++e) {
      EXPECT_EQ(pow(static_cast<Elem>(a), e), acc)
          << "a=" << a << " e=" << e;
      acc = mul(acc, static_cast<Elem>(a));
    }
  }
}

TEST(Gf256, PowZeroBase) {
  EXPECT_EQ(pow(0, 0), 1);  // convention x^0 = 1
  EXPECT_EQ(pow(0, 5), 0);
}

TEST(Gf256, GeneratorHasFullOrder) {
  // g^i for i in [0, 255) must enumerate all 255 nonzero elements.
  std::vector<bool> seen(256, false);
  Elem x = 1;
  for (int i = 0; i < kGroupOrder; ++i) {
    EXPECT_FALSE(seen[x]) << "generator order < 255 at i=" << i;
    seen[x] = true;
    x = mul(x, generator());
  }
  EXPECT_EQ(x, 1) << "g^255 must wrap to 1";
}

TEST(Gf256, AxpyMatchesScalarLoop) {
  Rng rng(13);
  Bytes x = rng.bytes(257);
  Bytes y = rng.bytes(257);
  for (int a : {0, 1, 2, 97, 255}) {
    Bytes expect = y;
    for (std::size_t i = 0; i < x.size(); ++i) {
      expect[i] = add(expect[i], mul(static_cast<Elem>(a), x[i]));
    }
    Bytes got = y;
    axpy(got, static_cast<Elem>(a), x);
    EXPECT_EQ(got, expect) << "a = " << a;
  }
}

TEST(Gf256, DotMatchesScalarLoop) {
  Rng rng(17);
  const Bytes a = rng.bytes(100);
  const Bytes b = rng.bytes(100);
  Elem expect = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect = add(expect, mul(a[i], b[i]));
  }
  EXPECT_EQ(dot(a, b), expect);
}

TEST(Gf256, ScaleMatchesScalarLoop) {
  Rng rng(19);
  const Bytes x = rng.bytes(64);
  for (int a : {0, 1, 3, 128, 255}) {
    Bytes expect(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      expect[i] = mul(static_cast<Elem>(a), x[i]);
    }
    Bytes got = x;
    scale(got, static_cast<Elem>(a));
    EXPECT_EQ(got, expect) << "a = " << a;
  }
}

TEST(Gf256, PowHugeExponentMatchesSquareAndMultiply) {
  // Regression: pow computed log[a] * e in u64, which wraps for e >= 2^56
  // and silently returned a wrong element; the exponent must be reduced mod
  // the group order first.  Square-and-multiply never forms the product, so
  // it is immune and serves as the oracle.
  const auto slow_pow = [](Elem a, std::uint64_t e) {
    Elem result = 1;
    Elem base = a;
    while (e > 0) {
      if (e & 1) result = mul(result, base);
      base = mul(base, base);
      e >>= 1;
    }
    return result;
  };
  const std::uint64_t exps[] = {0,
                                1,
                                254,
                                255,
                                256,
                                (1ull << 56) - 1,
                                1ull << 56,
                                (1ull << 56) + 123,
                                UINT64_MAX - 1,
                                UINT64_MAX};
  for (int a = 0; a < 256; a += 17) {
    for (const std::uint64_t e : exps) {
      EXPECT_EQ(pow(static_cast<Elem>(a), e),
                slow_pow(static_cast<Elem>(a), e))
          << "a=" << a << " e=" << e;
    }
  }
}

TEST(Gf256, ParseIsaNames) {
  EXPECT_EQ(parse_isa("scalar"), Isa::Scalar);
  EXPECT_EQ(parse_isa("ssse3"), Isa::Ssse3);
  EXPECT_EQ(parse_isa("avx2"), Isa::Avx2);
  EXPECT_EQ(parse_isa("neon"), Isa::Neon);
  EXPECT_EQ(parse_isa("gfni"), Isa::Gfni);
  EXPECT_FALSE(parse_isa("avx512").has_value());
  EXPECT_FALSE(parse_isa("").has_value());
  for (const Isa isa : supported_isas()) {
    EXPECT_EQ(parse_isa(isa_name(isa)), isa);
  }
}

TEST(Gf256, SelectIsaRoundTrip) {
  const Isa before = active_isa();
  EXPECT_TRUE(select_isa(Isa::Scalar));
  EXPECT_EQ(active_isa(), Isa::Scalar);
  for (const Isa isa : supported_isas()) {
    EXPECT_TRUE(select_isa(isa));
    EXPECT_EQ(active_isa(), isa);
  }
  EXPECT_TRUE(select_isa(before));
}

// Every supported ISA path must be bit-identical to a plain mul/add loop for
// every coefficient and for lengths straddling each kernel's vector widths
// and unroll boundaries (the tails are where SIMD kernels go wrong).
class GfIsaEquivalence : public ::testing::Test {
 protected:
  void TearDown() override { select_isa(best_); }
  const Isa best_ = active_isa();
  const std::vector<std::size_t> lens_{0,   1,    2,    3,    15,  16,
                                       17,  31,   32,   33,   63,  64,
                                       65,  100,  127,  128,  129, 255,
                                       1640, 4095, 4096, 4097};
};

// Every kernel must write its window and nothing else: a masked store whose
// mask is one byte too long passes the exact-size checks below.  axpy,
// mul_into and scale run on a window of every length 0..192 at every offset
// 0..63 inside a poisoned buffer; the window must hold the scalar product
// and every byte around it must be unchanged.  x is an exact-size vector so
// a sanitizer build also sees any read past it.
TEST_F(GfIsaEquivalence, KernelsWriteOnlyTheirWindow) {
  constexpr std::size_t kMaxLen = 192;
  constexpr std::size_t kMaxOffset = 63;
  constexpr std::size_t kPad = 64;
  constexpr std::size_t kSame = std::string::npos;
  Rng rng(113);
  const Bytes poison = rng.bytes(kPad + kMaxOffset + kMaxLen + kPad);
  const Bytes source = rng.bytes(kMaxLen);
  // The first byte where `got` differs from `expect`, or kSame.
  const auto first_diff = [](const Bytes& got, const Bytes& expect) {
    const auto d = std::mismatch(got.begin(), got.end(), expect.begin());
    return d.first == got.end()
               ? kSame
               : static_cast<std::size_t>(d.first - got.begin());
  };
  for (const Isa isa : supported_isas()) {
    ASSERT_TRUE(select_isa(isa));
    for (const Elem a : {Elem{0x02}, Elem{0xCA}}) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
          const auto where = [&](const char* op) {
            return std::string(op) + " isa=" + isa_name(isa) +
                   " a=" + std::to_string(a) + " off=" + std::to_string(off) +
                   " len=" + std::to_string(len);
          };
          const std::size_t at = kPad + off;
          const Bytes x(source.begin(),
                        source.begin() + static_cast<std::ptrdiff_t>(len));
          Bytes axpy_expect = poison;
          Bytes mul_expect = poison;
          Bytes scale_expect = poison;
          for (std::size_t i = 0; i < len; ++i) {
            axpy_expect[at + i] = add(poison[at + i], mul(a, x[i]));
            mul_expect[at + i] = mul(a, x[i]);
            scale_expect[at + i] = mul(a, poison[at + i]);
          }
          Bytes got = poison;
          axpy(std::span(got).subspan(at, len), a, x);
          ASSERT_EQ(first_diff(got, axpy_expect), kSame) << where("axpy");
          got = poison;
          mul_into(std::span(got).subspan(at, len), a, x);
          ASSERT_EQ(first_diff(got, mul_expect), kSame) << where("mul_into");
          got = poison;
          scale(std::span(got).subspan(at, len), a);
          ASSERT_EQ(first_diff(got, scale_expect), kSame) << where("scale");
        }
      }
    }
  }
}

TEST_F(GfIsaEquivalence, AxpyAllCoefficientsAllIsas) {
  Rng rng(101);
  for (const std::size_t len : lens_) {
    const Bytes x = rng.bytes(len);
    const Bytes y = rng.bytes(len);
    for (int a = 0; a < 256; ++a) {
      Bytes expect = y;
      for (std::size_t i = 0; i < len; ++i) {
        expect[i] = add(expect[i], mul(static_cast<Elem>(a), x[i]));
      }
      for (const Isa isa : supported_isas()) {
        ASSERT_TRUE(select_isa(isa));
        Bytes got = y;
        axpy(got, static_cast<Elem>(a), x);
        ASSERT_EQ(got, expect) << "isa=" << isa_name(isa) << " a=" << a
                               << " len=" << len;
      }
    }
  }
}

TEST_F(GfIsaEquivalence, MulIntoAllCoefficientsAllIsas) {
  Rng rng(103);
  for (const std::size_t len : lens_) {
    const Bytes x = rng.bytes(len);
    for (int a = 0; a < 256; ++a) {
      Bytes expect(len);
      for (std::size_t i = 0; i < len; ++i) {
        expect[i] = mul(static_cast<Elem>(a), x[i]);
      }
      for (const Isa isa : supported_isas()) {
        ASSERT_TRUE(select_isa(isa));
        Bytes got(len, 0xAB);  // poison: mul_into must overwrite every byte
        mul_into(got, static_cast<Elem>(a), x);
        ASSERT_EQ(got, expect) << "isa=" << isa_name(isa) << " a=" << a
                               << " len=" << len;
        Bytes in_place = x;  // aliasing contract: z may be exactly x
        mul_into(in_place, static_cast<Elem>(a), in_place);
        ASSERT_EQ(in_place, expect)
            << "in-place, isa=" << isa_name(isa) << " a=" << a
            << " len=" << len;
      }
    }
  }
}

TEST_F(GfIsaEquivalence, ScaleAllCoefficientsAllIsas) {
  Rng rng(107);
  const Bytes x = rng.bytes(1023);
  for (int a = 0; a < 256; ++a) {
    Bytes expect(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      expect[i] = mul(static_cast<Elem>(a), x[i]);
    }
    for (const Isa isa : supported_isas()) {
      ASSERT_TRUE(select_isa(isa));
      Bytes got = x;
      scale(got, static_cast<Elem>(a));
      ASSERT_EQ(got, expect) << "isa=" << isa_name(isa) << " a=" << a;
    }
  }
}

TEST_F(GfIsaEquivalence, DotAllIsas) {
  Rng rng(109);
  for (const std::size_t len : lens_) {
    const Bytes a = rng.bytes(len);
    const Bytes b = rng.bytes(len);
    Elem expect = 0;
    for (std::size_t i = 0; i < len; ++i) {
      expect = add(expect, mul(a[i], b[i]));
    }
    for (const Isa isa : supported_isas()) {
      ASSERT_TRUE(select_isa(isa));
      ASSERT_EQ(dot(a, b), expect) << "isa=" << isa_name(isa)
                                   << " len=" << len;
    }
  }
}

TEST_F(GfIsaEquivalence, FullMultiplicationTableAllIsas) {
  // The 256 x 256 multiply table via 256-long mul_into rows: every (a, b)
  // product on every ISA must equal the log/exp scalar product.
  Bytes all(256);
  for (int b = 0; b < 256; ++b) all[static_cast<std::size_t>(b)] =
      static_cast<Elem>(b);
  for (const Isa isa : supported_isas()) {
    ASSERT_TRUE(select_isa(isa));
    for (int a = 0; a < 256; ++a) {
      Bytes row(256);
      mul_into(row, static_cast<Elem>(a), all);
      for (int b = 0; b < 256; ++b) {
        ASSERT_EQ(row[static_cast<std::size_t>(b)],
                  mul(static_cast<Elem>(a), static_cast<Elem>(b)))
            << "isa=" << isa_name(isa) << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Gf256Death, InverseOfZeroAborts) {
  EXPECT_DEATH(inv(0), "inverse of zero");
}

TEST(Gf256Death, DivisionByZeroAborts) {
  EXPECT_DEATH(div(3, 0), "division by zero");
}

}  // namespace
}  // namespace lds::gf
