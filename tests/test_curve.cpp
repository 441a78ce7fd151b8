// Group-law, subgroup, hash-to-curve and serialization tests for G1/G2.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "curve/hash_to_curve.hpp"

namespace bnr {
namespace {

template <class P>
void check_group_laws(const P& g, std::string_view seed) {
  Rng rng(seed);
  P a = g.mul(Fr::random(rng));
  P b = g.mul(Fr::random(rng));
  P c = g.mul(Fr::random(rng));
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + P::identity(), a);
  EXPECT_EQ(a - a, P::identity());
  EXPECT_EQ(a.dbl(), a + a);
  EXPECT_EQ(a.dbl() + a, a.mul(Fr::from_u64(3)));
}

TEST(G1, GroupLaws) { check_group_laws(G1::generator(), "g1-laws"); }
TEST(G2, GroupLaws) { check_group_laws(G2::generator(), "g2-laws"); }

TEST(G1, GeneratorOnCurve) {
  EXPECT_TRUE(G1Curve::generator_affine().on_curve());
}
TEST(G2, GeneratorOnCurve) {
  EXPECT_TRUE(G2Curve::generator_affine().on_curve());
}

TEST(G1, GeneratorHasOrderR) {
  EXPECT_TRUE(G1::generator().mul(FrTag::kModulus).is_identity());
  EXPECT_FALSE(G1::generator().mul(U256::from_u64(12345)).is_identity());
}

TEST(G2, GeneratorHasOrderR) {
  EXPECT_TRUE(G2::generator().mul(FrTag::kModulus).is_identity());
  EXPECT_TRUE(g2_in_subgroup(G2Curve::generator_affine()));
}

TEST(G1, ScalarDistributivity) {
  Rng rng("g1-scalar");
  G1 g = G1::generator();
  for (int i = 0; i < 5; ++i) {
    Fr a = Fr::random(rng), b = Fr::random(rng);
    EXPECT_EQ(g.mul(a) + g.mul(b), g.mul(a + b));
    EXPECT_EQ(g.mul(a).mul(b), g.mul(a * b));
  }
}

TEST(G2, ScalarDistributivity) {
  Rng rng("g2-scalar");
  G2 g = G2::generator();
  for (int i = 0; i < 3; ++i) {
    Fr a = Fr::random(rng), b = Fr::random(rng);
    EXPECT_EQ(g.mul(a) + g.mul(b), g.mul(a + b));
  }
}

TEST(G1, MulByZeroAndOne) {
  G1 g = G1::generator();
  EXPECT_TRUE(g.mul(Fr::zero()).is_identity());
  EXPECT_EQ(g.mul(Fr::one()), g);
  EXPECT_TRUE(G1::identity().mul(Fr::from_u64(7)).is_identity());
}

TEST(G1, AddOppositeIsIdentity) {
  G1 g = G1::generator();
  EXPECT_TRUE((g + (-g)).is_identity());
}

TEST(G1, MixedDoublingViaAdd) {
  // operator+ must detect the doubling case.
  G1 g = G1::generator();
  G1 sum = g + g;
  EXPECT_EQ(sum, g.dbl());
}

TEST(G1, HashToCurve) {
  Rng rng("g1-hash");
  for (int i = 0; i < 10; ++i) {
    Bytes msg = rng.bytes(1 + rng.uniform(64));
    G1Affine p = hash_to_g1("test-dst", msg);
    EXPECT_TRUE(p.on_curve());
    EXPECT_FALSE(p.infinity);
    // Determinism.
    EXPECT_EQ(hash_to_g1("test-dst", msg), p);
    // Domain separation.
    EXPECT_FALSE(hash_to_g1("other-dst", msg) == p);
  }
}

TEST(G2, HashToCurve) {
  Rng rng("g2-hash");
  for (int i = 0; i < 4; ++i) {
    Bytes msg = rng.bytes(16);
    G2Affine p = hash_to_g2("test-dst", msg);
    EXPECT_TRUE(p.on_curve());
    EXPECT_FALSE(p.infinity);
    EXPECT_TRUE(g2_in_subgroup(p));
    EXPECT_EQ(hash_to_g2("test-dst", msg), p);
  }
}

TEST(G1, HashVectorIsIndependent) {
  Bytes msg = to_bytes("hello");
  auto vec = hash_to_g1_vector("H", msg, 3);
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_FALSE(vec[0] == vec[1]);
  EXPECT_FALSE(vec[1] == vec[2]);
}

TEST(G1, SerializationRoundTrip) {
  Rng rng("g1-serde");
  for (int i = 0; i < 20; ++i) {
    G1Affine p = G1::generator().mul(Fr::random(rng)).to_affine();
    Bytes enc = g1_to_bytes(p);
    EXPECT_EQ(enc.size(), kG1CompressedSize);
    EXPECT_EQ(g1_from_bytes(enc), p);
  }
  // Identity.
  Bytes enc = g1_to_bytes(G1Affine::identity());
  EXPECT_TRUE(g1_from_bytes(enc).infinity);
}

TEST(G2, SerializationRoundTrip) {
  Rng rng("g2-serde");
  for (int i = 0; i < 6; ++i) {
    G2Affine p = G2::generator().mul(Fr::random(rng)).to_affine();
    Bytes enc = g2_to_bytes(p);
    EXPECT_EQ(enc.size(), kG2CompressedSize);
    EXPECT_EQ(g2_from_bytes(enc), p);
  }
  Bytes enc = g2_to_bytes(G2Affine::identity());
  EXPECT_TRUE(g2_from_bytes(enc).infinity);
}

TEST(G1, DeserializeRejectsGarbage) {
  Bytes bad(kG1CompressedSize, 0xff);
  EXPECT_THROW(g1_from_bytes(bad), std::invalid_argument);
  Bytes bad_tag = g1_to_bytes(G1Curve::generator_affine());
  bad_tag[0] = 9;
  EXPECT_THROW(g1_from_bytes(bad_tag), std::invalid_argument);
}

TEST(G1, FromXYRejectsOffCurve) {
  EXPECT_THROW(G1Affine::from_xy(Fp::from_u64(1), Fp::from_u64(1)),
               std::invalid_argument);
}

TEST(G2, ClearCofactorLandsInSubgroup) {
  // A twist point built directly from x (before cofactor clearing) is
  // generally NOT in the r-order subgroup; after clearing it must be.
  Rng rng("g2-cofactor");
  for (uint32_t ctr = 0; ctr < 100; ++ctr) {
    Bytes msg = rng.bytes(8);
    G2Affine p = hash_to_g2("cofactor-test", msg);
    EXPECT_TRUE(g2_in_subgroup(p));
    break;
  }
}

// The psi-based membership test agrees with the r * p reference on the
// identity, on G2 points, and on twist points outside G2 (points straight
// from an x coordinate, before cofactor clearing, are almost never in G2).
TEST(G2, PsiSubgroupTestMatchesReference) {
  EXPECT_TRUE(g2_in_subgroup_psi(G2Affine::identity()));
  Rng rng("g2-psi");
  for (int i = 0; i < 8; ++i) {
    G2Affine q = G2::generator().mul(Fr::random(rng)).to_affine();
    EXPECT_TRUE(g2_in_subgroup(q));
    EXPECT_TRUE(g2_in_subgroup_psi(q));
  }
  int outside = 0;
  for (uint64_t k = 1; k < 60; ++k) {
    Fp2 x{Fp::from_u64(k), Fp::from_u64(7)};
    auto y = (x.squared() * x + G2Curve::coeff_b()).sqrt();
    if (!y) continue;
    G2Affine p = G2Affine::from_xy(x, *y);
    EXPECT_EQ(g2_in_subgroup_psi(p), g2_in_subgroup(p)) << "x.c0 = " << k;
    outside += g2_in_subgroup(p) ? 0 : 1;
    // The cofactor-cleared point is in G2 under both tests.
    G2Affine cleared = g2_clear_cofactor(G2::from_affine(p)).to_affine();
    EXPECT_TRUE(g2_in_subgroup_psi(cleared)) << "x.c0 = " << k;
  }
  EXPECT_GT(outside, 10);
}

TEST(Msm, MatchesNaiveSum) {
  Rng rng("msm");
  std::vector<G1> points;
  std::vector<Fr> scalars;
  for (int i = 0; i < 5; ++i) {
    points.push_back(G1::generator().mul(Fr::random(rng)));
    scalars.push_back(Fr::random(rng));
  }
  G1 expect;
  for (int i = 0; i < 5; ++i) expect = expect + points[i].mul(scalars[i]);
  EXPECT_EQ(msm<G1>(points, scalars), expect);
}

}  // namespace
}  // namespace bnr
