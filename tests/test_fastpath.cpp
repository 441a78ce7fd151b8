// The high-throughput verification engine: prepared-pairing cross-checks
// against the affine reference path, sparse Fp12 multiplication, Pippenger
// MSM vs the naive loop, batch affine normalization, and the scheme-level
// cached/batch verifiers (including rejection of a forged batch member).
#include <gtest/gtest.h>

#include "baselines/boldyreva.hpp"
#include "common/rng.hpp"
#include "curve/hash_to_curve.hpp"
#include "pairing/pairing.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/ro_scheme.hpp"
#include "threshold/scheme_api.hpp"

namespace bnr {
namespace {

TEST(Prepared, MatchesReferencePairing) {
  Rng rng("prepared-vs-reference");
  for (int i = 0; i < 4; ++i) {
    G1Affine p = G1::generator().mul(Fr::random(rng)).to_affine();
    G2Affine q = G2::generator().mul(Fr::random(rng)).to_affine();
    GT reference{final_exponentiation(miller_loop(p, q))};
    EXPECT_EQ(pairing(p, G2Prepared(q)), reference);
    EXPECT_EQ(pairing(p, q), reference);  // pairing() routes through prepared
  }
}

TEST(Prepared, IdentityEdgeCases) {
  G2Prepared id;  // default = identity
  EXPECT_TRUE(id.infinity());
  EXPECT_TRUE(pairing(G1Curve::generator_affine(), id).is_identity());
  EXPECT_TRUE(
      pairing(G1Affine::identity(), G2Prepared(G2Curve::generator_affine()))
          .is_identity());
  EXPECT_TRUE(
      pairing(G1Curve::generator_affine(), G2Prepared(G2Affine::identity()))
          .is_identity());
}

TEST(Prepared, MultiPairingMatchesReference) {
  Rng rng("prepared-multi");
  std::vector<PairingTerm> terms;
  for (int i = 0; i < 4; ++i)
    terms.push_back({G1::generator().mul(Fr::random(rng)).to_affine(),
                     G2::generator().mul(Fr::random(rng)).to_affine()});
  EXPECT_EQ(multi_pairing(terms), multi_pairing_reference(terms));

  // And via explicitly cached G2Prepared objects.
  std::vector<G2Prepared> prepared;
  prepared.reserve(terms.size());
  std::vector<PreparedTerm> pts;
  for (const auto& t : terms) {
    prepared.emplace_back(t.q);
    pts.push_back({t.p, &prepared.back()});
  }
  EXPECT_EQ(multi_pairing(pts), multi_pairing_reference(terms));
}

TEST(Prepared, ProductCancellationStillDetected) {
  Rng rng("prepared-cancel");
  Fr a = Fr::random(rng);
  G1Affine p = G1::generator().mul(a).to_affine();
  G1Affine minus_p = (-G1::generator().mul(a)).to_affine();
  G2Prepared q(G2Curve::generator_affine());
  std::vector<PreparedTerm> terms = {{p, &q}, {minus_p, &q}};
  EXPECT_TRUE(pairing_product_is_one(terms));
  terms[1].p = G1::generator().mul(a + Fr::one()).to_affine();
  EXPECT_FALSE(pairing_product_is_one(terms));
}

TEST(Prepared, FinalExpChainMatchesLadderAndGeneric) {
  // The BN hard-part addition chain, the cyclotomic ladder, and the generic
  // square-and-multiply must all compute the same exact exponent.
  Rng rng("fexp-chain");
  for (int i = 0; i < 3; ++i) {
    Fp12 m = miller_loop(G1::generator().mul(Fr::random(rng)).to_affine(),
                         G2::generator().mul(Fr::random(rng)).to_affine());
    Fp12 generic = final_exponentiation_generic(m);
    EXPECT_EQ(final_exponentiation(m), generic);
    EXPECT_EQ(final_exponentiation_ladder(m), generic);
  }
}

TEST(Tower, MulBy034MatchesDense) {
  Rng rng("mul-by-034");
  for (int i = 0; i < 8; ++i) {
    Fp12 a{Fp6{Fp2::random(rng), Fp2::random(rng), Fp2::random(rng)},
           Fp6{Fp2::random(rng), Fp2::random(rng), Fp2::random(rng)}};
    Fp2 d0 = Fp2::random(rng), d3 = Fp2::random(rng), d4 = Fp2::random(rng);
    Fp12 sparse{Fp6{d0, Fp2::zero(), Fp2::zero()},
                Fp6{d3, d4, Fp2::zero()}};
    EXPECT_EQ(a.mul_by_034(d0, d3, d4), a * sparse);
  }
}

TEST(Msm, PippengerMatchesNaive) {
  Rng rng("pippenger");
  for (size_t n : {0u, 1u, 2u, 7u, 8u, 17u, 63u, 257u}) {
    std::vector<G1> points;
    std::vector<Fr> scalars;
    for (size_t i = 0; i < n; ++i) {
      points.push_back(G1::generator().mul(Fr::random(rng)));
      scalars.push_back(Fr::random(rng));
    }
    EXPECT_EQ(msm<G1>(points, scalars), msm_naive<G1>(points, scalars))
        << "n = " << n;
  }
}

TEST(Msm, HandlesEdgeScalarsAndG2) {
  Rng rng("pippenger-edge");
  std::vector<G2> points;
  std::vector<Fr> scalars;
  for (size_t i = 0; i < 17; ++i)
    points.push_back(G2::generator().mul(Fr::random(rng)));
  // Mix zeros, ones, small and 128-bit scalars.
  for (size_t i = 0; i < 17; ++i) {
    switch (i % 4) {
      case 0: scalars.push_back(Fr::zero()); break;
      case 1: scalars.push_back(Fr::one()); break;
      case 2: scalars.push_back(Fr::from_u64(i)); break;
      default:
        scalars.push_back(Fr::from_u256(
            U256{{rng.next_u64(), rng.next_u64(), 0, 0}}));
    }
  }
  EXPECT_EQ(msm<G2>(points, scalars), msm_naive<G2>(points, scalars));
  // All-zero scalars sum to the identity.
  std::vector<Fr> zeros(points.size(), Fr::zero());
  EXPECT_TRUE(msm<G2>(points, zeros).is_identity());
  EXPECT_THROW(msm<G2>(points, std::span<const Fr>(zeros.data(), 3)),
               std::invalid_argument);
}

TEST(Curve, BatchToAffineMatchesToAffine) {
  Rng rng("batch-affine");
  std::vector<G1> points;
  for (size_t i = 0; i < 9; ++i) {
    if (i % 3 == 1)
      points.push_back(G1::identity());
    else
      points.push_back(G1::generator().mul(Fr::random(rng)));
  }
  auto affine = G1::batch_to_affine(points);
  ASSERT_EQ(affine.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(affine[i], points[i].to_affine()) << "i = " << i;
  // All-identity input.
  std::vector<G1> ids(4);
  for (const auto& a : G1::batch_to_affine(ids)) EXPECT_TRUE(a.infinity);
}

// ---------------------------------------------------------------------------
// Scheme-level cached and batch verification.

struct RoFixture {
  threshold::SystemParams sp = threshold::SystemParams::derive("fastpath-ro");
  threshold::RoScheme scheme{sp};
  threshold::KeyMaterial km;

  RoFixture() {
    Rng rng("fastpath-ro-rng");
    km = scheme.dist_keygen(3, 1, rng);
  }

  threshold::Signature sign(const Bytes& msg) const {
    std::vector<threshold::PartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], msg));
    return scheme.combine_unchecked(km.t, parts);
  }
};

RoFixture& ro_fixture() {
  static RoFixture f;
  return f;
}

using threshold::SchemeId;

/// The batch fold over typed signatures, through the erased verifier's
/// batch_verify (the one RLC engine every scheme shares).
template <class Verifier, class Sigs>
bool erased_batch(SchemeId id, const Verifier& v,
                  std::span<const Bytes> msgs, const Sigs& sigs, Rng& rng) {
  using Sig = std::decay_t<decltype(*std::begin(sigs))>;
  auto erased = threshold::erase_verifier<Verifier, Sig>(id, v);
  std::vector<threshold::SigHandle> handles;
  for (const auto& s : sigs)
    handles.push_back(threshold::erase_signature(id, s));
  return erased->batch_verify(msgs, handles, rng);
}

TEST(CachedVerifier, MatchesUncachedVerify) {
  auto& f = ro_fixture();
  threshold::RoVerifier verifier(f.scheme, f.km.pk);
  Bytes msg = to_bytes("cached-verifier message");
  auto sig = f.sign(msg);
  EXPECT_TRUE(f.scheme.verify(f.km.pk, msg, sig));
  EXPECT_TRUE(verifier.verify(msg, sig));
  // A tampered signature must fail on both paths.
  threshold::Signature bad = sig;
  bad.z = (G1::from_affine(bad.z) + G1::generator()).to_affine();
  EXPECT_FALSE(f.scheme.verify(f.km.pk, msg, bad));
  EXPECT_FALSE(verifier.verify(msg, bad));
}

TEST(CachedVerifier, SharesGeneratorTablesAcrossKeys) {
  // An RO verifier holds only its key's two line tables: g^_z and g^_r are
  // the scheme's shared tables, so the per-key footprint is at most 55% of
  // the four-table verifier, and two keys' fold terms name the same
  // generator bases (what lets one flush fold merge them).
  auto& f = ro_fixture();
  threshold::PublicKey other{{f.km.pk.g[1], f.km.pk.g[0]}};
  threshold::RoVerifier a(f.scheme, f.km.pk), b(f.scheme, other);
  const size_t four_tables = sizeof(threshold::RoScheme) +
                             4 * G2Prepared(f.km.pk.g[0]).footprint_bytes();
  EXPECT_LE(double(a.cache_bytes()), 0.55 * double(four_tables));
  EXPECT_GE(double(a.cache_bytes()), 0.45 * double(four_tables));

  Bytes msg = to_bytes("shared generator tables");
  auto sig = f.sign(msg);
  std::vector<threshold::FoldTerm> ta, tb;
  ASSERT_TRUE(a.fold_terms(msg, sig, ta));
  ASSERT_TRUE(b.fold_terms(msg, sig, tb));
  ASSERT_EQ(ta.size(), 4u);
  ASSERT_EQ(tb.size(), 4u);
  EXPECT_EQ(ta[0].base, tb[0].base);  // g^_z
  EXPECT_EQ(ta[1].base, tb[1].base);  // g^_r
  EXPECT_NE(ta[2].base, tb[2].base);  // the keys' own tables

  // The shared tables live as long as any verifier holding them.
  std::unique_ptr<threshold::RoVerifier> orphan;
  {
    threshold::RoScheme scheme(f.sp);
    orphan = std::make_unique<threshold::RoVerifier>(scheme, f.km.pk);
  }
  EXPECT_TRUE(orphan->verify(msg, sig));
}

TEST(BatchVerify, AcceptsValidBatchRejectsForgery) {
  auto& f = ro_fixture();
  threshold::RoVerifier verifier(f.scheme, f.km.pk);
  Rng rng("batch-rlc");
  std::vector<Bytes> msgs;
  std::vector<threshold::Signature> sigs;
  for (int j = 0; j < 8; ++j) {
    msgs.push_back(to_bytes("batch message " + std::to_string(j)));
    sigs.push_back(f.sign(msgs.back()));
  }
  const auto kRo = SchemeId::kRo;
  EXPECT_TRUE(erased_batch(kRo, verifier, msgs, sigs, rng));
  // Empty batch is vacuously valid; mismatched spans throw.
  EXPECT_TRUE(erased_batch(kRo, verifier, {},
                           std::vector<threshold::Signature>{}, rng));
  EXPECT_THROW(erased_batch(
                   kRo, verifier, msgs,
                   std::span<const threshold::Signature>(sigs.data(), 3), rng),
               std::invalid_argument);
  // One forged member poisons the whole batch, wherever it sits.
  for (size_t forged : {size_t(0), sigs.size() - 1}) {
    auto tampered = sigs;
    tampered[forged].r =
        (G1::from_affine(tampered[forged].r) + G1::generator()).to_affine();
    EXPECT_FALSE(erased_batch(kRo, verifier, msgs, tampered, rng));
  }
  // A signature swapped onto the wrong message also fails.
  auto swapped = sigs;
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(erased_batch(kRo, verifier, msgs, swapped, rng));
}

TEST(BatchVerify, BoldyrevaBaseline) {
  threshold::SystemParams sp = threshold::SystemParams::derive("fastpath-bls");
  baselines::BoldyrevaBls bls(sp);
  Rng rng("fastpath-bls-rng");
  auto km = bls.dealer_keygen(3, 1, rng);
  baselines::BlsVerifier verifier(bls, km.pk);

  std::vector<Bytes> msgs;
  std::vector<G1Affine> sigs;
  for (int j = 0; j < 6; ++j) {
    msgs.push_back(to_bytes("bls batch " + std::to_string(j)));
    std::vector<baselines::BlsPartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(bls.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(bls.combine(km, msgs.back(), parts));
    EXPECT_TRUE(verifier.verify(msgs.back(), sigs.back()));
  }
  EXPECT_TRUE(erased_batch(SchemeId::kBls, verifier, msgs, sigs, rng));
  auto tampered = sigs;
  tampered[2] = (G1::from_affine(tampered[2]) + G1::generator()).to_affine();
  EXPECT_FALSE(erased_batch(SchemeId::kBls, verifier, msgs, tampered, rng));
}

TEST(BatchVerify, DlinVariant) {
  threshold::SystemParams sp = threshold::SystemParams::derive("fastpath-dlin");
  threshold::DlinScheme dlin(sp);
  Rng rng("fastpath-dlin-rng");
  auto km = dlin.dist_keygen(3, 1, rng);
  threshold::DlinVerifier verifier(dlin, km.pk);

  std::vector<Bytes> msgs;
  std::vector<threshold::DlinSignature> sigs;
  for (int j = 0; j < 4; ++j) {
    msgs.push_back(to_bytes("dlin batch " + std::to_string(j)));
    std::vector<threshold::DlinPartialSignature> parts;
    for (uint32_t i = 1; i <= km.n; ++i)
      parts.push_back(dlin.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(dlin.combine(km, msgs.back(), parts));
    EXPECT_TRUE(dlin.verify(km.pk, msgs.back(), sigs.back()));
    EXPECT_TRUE(verifier.verify(msgs.back(), sigs.back()));
  }
  EXPECT_TRUE(erased_batch(SchemeId::kDlin, verifier, msgs, sigs, rng));
  auto tampered = sigs;
  tampered[1].u = (G1::from_affine(tampered[1].u) + G1::generator()).to_affine();
  EXPECT_FALSE(erased_batch(SchemeId::kDlin, verifier, msgs, tampered, rng));
}

TEST(BatchVerify, AggregateScheme) {
  threshold::SystemParams sp = threshold::SystemParams::derive("fastpath-agg");
  threshold::AggregateScheme agg(sp);
  Rng rng("fastpath-agg-rng");
  auto km = agg.dist_keygen(3, 1, rng);
  threshold::AggVerifier verifier(agg, km.pk);
  EXPECT_TRUE(verifier.key_valid());

  std::vector<Bytes> msgs;
  std::vector<threshold::Signature> sigs;
  for (int j = 0; j < 4; ++j) {
    msgs.push_back(to_bytes("agg batch " + std::to_string(j)));
    std::vector<threshold::PartialSignature> parts;
    for (uint32_t i = 1; i <= km.n; ++i)
      parts.push_back(agg.share_sign(km.pk, km.shares[i - 1], msgs.back()));
    sigs.push_back(agg.combine(km, msgs.back(), parts));
    EXPECT_TRUE(agg.verify(km.pk, msgs.back(), sigs.back()));
    EXPECT_TRUE(verifier.verify(msgs.back(), sigs.back()));
  }
  EXPECT_TRUE(erased_batch(SchemeId::kAgg, verifier, msgs, sigs, rng));
  auto tampered = sigs;
  tampered[3].z = (G1::from_affine(tampered[3].z) + G1::generator()).to_affine();
  EXPECT_FALSE(erased_batch(SchemeId::kAgg, verifier, msgs, tampered, rng));
}

TEST(Combine, MsmCombineMatchesNaiveLagrangeSum) {
  // Acceptance: combine_unchecked (now MSM-based) must produce the exact
  // same signature the seed's per-share double-and-add loop produced.
  auto& f = ro_fixture();
  Bytes msg = to_bytes("combine determinism");
  std::vector<threshold::PartialSignature> parts;
  for (uint32_t i = 1; i <= f.km.t + 1; ++i)
    parts.push_back(f.scheme.share_sign(f.km.shares[i - 1], msg));
  auto sig = f.scheme.combine_unchecked(f.km.t, parts);

  std::vector<uint32_t> indices;
  for (const auto& p : parts) indices.push_back(p.index);
  auto lagrange = lagrange_at_zero(indices);
  G1 z, r;
  for (size_t i = 0; i < parts.size(); ++i) {
    z = z + G1::from_affine(parts[i].z).mul(lagrange[i]);
    r = r + G1::from_affine(parts[i].r).mul(lagrange[i]);
  }
  EXPECT_EQ(sig.z, z.to_affine());
  EXPECT_EQ(sig.r, r.to_affine());
  threshold::Signature naive{z.to_affine(), r.to_affine()};
  EXPECT_EQ(sig.serialize(), naive.serialize());
  EXPECT_TRUE(f.scheme.verify(f.km.pk, msg, sig));
}

}  // namespace
}  // namespace bnr
