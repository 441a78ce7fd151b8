// Parameterized cross-scheme sweeps: every scheme variant is exercised over
// a grid of (t, n) configurations, subset choices, and message shapes —
// property-style coverage that single-configuration tests miss. The second
// half is a randomized differential sweep (~200 seeded trials) cross-checking
// every cached/parallel fast path against its uncached/serial oracle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#include "baselines/boldyreva.hpp"
#include "common/rng.hpp"
#include "fixtures.hpp"
#include "service/parallel.hpp"
#include "service/thread_pool.hpp"
#include "stdmodel/std_scheme.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/rlc_fold.hpp"
#include "threshold/ro_scheme.hpp"
#include "threshold/scheme_api.hpp"

namespace bnr {
namespace {

using namespace bnr::threshold;

struct Tn {
  size_t t, n;
};

std::string tn_name(const ::testing::TestParamInfo<Tn>& info) {
  return "t" + std::to_string(info.param.t) + "n" +
         std::to_string(info.param.n);
}

const Tn kGrid[] = {{1, 3}, {1, 5}, {2, 5}, {3, 7}, {5, 11}};

// ---------------------------------------------------------------------------
// DLIN scheme sweep (the RO scheme has its own sweep in test_threshold.cpp).

struct DlinSweep : ::testing::TestWithParam<Tn> {
  SystemParams sp = SystemParams::derive("dlin-sweep");
  DlinScheme scheme{sp};
  Rng rng{"dlin-sweep-rng"};
};

TEST_P(DlinSweep, EndToEndAndDeterminism) {
  auto [t, n] = GetParam();
  auto km = scheme.dist_keygen(n, t, rng);
  Bytes m = to_bytes("dlin sweep message");
  std::vector<DlinPartialSignature> all;
  for (uint32_t i = 1; i <= n; ++i)
    all.push_back(scheme.share_sign(km.shares[i - 1], m));
  // First t+1 and last t+1 must combine to the SAME signature.
  std::vector<DlinPartialSignature> first(all.begin(), all.begin() + t + 1);
  std::vector<DlinPartialSignature> last(all.end() - (t + 1), all.end());
  auto s1 = scheme.combine(km, m, first);
  auto s2 = scheme.combine(km, m, last);
  EXPECT_TRUE(s1 == s2);
  EXPECT_TRUE(scheme.verify(km.pk, m, s1));
}

INSTANTIATE_TEST_SUITE_P(Grid, DlinSweep, ::testing::ValuesIn(kGrid),
                         tn_name);

// ---------------------------------------------------------------------------
// Aggregate scheme: bundle-size sweep.

struct AggSweep : ::testing::TestWithParam<size_t> {
  SystemParams sp = SystemParams::derive("agg-sweep");
  AggregateScheme scheme{sp};
  Rng rng{"agg-sweep-rng"};
};

TEST_P(AggSweep, BundleOfLKeysVerifies) {
  size_t l = GetParam();
  std::vector<AggKeyMaterial> kms;
  std::vector<AggStatement> sts;
  std::vector<Signature> sigs;
  for (size_t j = 0; j < l; ++j) {
    kms.push_back(scheme.dist_keygen(3, 1, rng));
    Bytes m = to_bytes("stmt " + std::to_string(j));
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= 2; ++i)
      parts.push_back(scheme.share_sign(kms[j].pk, kms[j].shares[i - 1], m));
    sts.push_back({kms[j].pk, m});
    sigs.push_back(scheme.combine(kms[j], m, parts));
  }
  auto bundle = scheme.aggregate(sts, sigs);
  ASSERT_TRUE(bundle.has_value());
  EXPECT_TRUE(scheme.aggregate_verify(sts, *bundle));
  EXPECT_EQ(bundle->serialize().size(), 2 * kG1CompressedSize);
  // Dropping any statement breaks verification.
  if (l > 1) {
    std::vector<AggStatement> dropped(sts.begin(), sts.end() - 1);
    EXPECT_FALSE(scheme.aggregate_verify(dropped, *bundle));
  }
}

INSTANTIATE_TEST_SUITE_P(BundleSizes, AggSweep,
                         ::testing::Values(1, 2, 3, 5));

// ---------------------------------------------------------------------------
// Message-shape sweep for the RO scheme: empty, binary, large messages.

struct MsgSweep : ::testing::TestWithParam<size_t> {
  SystemParams sp = SystemParams::derive("msg-sweep");
  RoScheme scheme{sp};
  Rng rng{"msg-sweep-rng"};
};

TEST_P(MsgSweep, ArbitraryMessageBytes) {
  size_t len = GetParam();
  static auto km = [&] { return scheme.dist_keygen(3, 1, rng); }();
  Bytes m = rng.bytes(len);
  std::vector<PartialSignature> parts;
  for (uint32_t i : {1u, 3u})
    parts.push_back(scheme.share_sign(km.shares[i - 1], m));
  Signature sig = scheme.combine(km, m, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
  // Flipping any single bit of the message invalidates the signature.
  if (len > 0) {
    Bytes flipped = m;
    flipped[len / 2] ^= 0x01;
    EXPECT_FALSE(scheme.verify(km.pk, flipped, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, MsgSweep,
                         ::testing::Values(0, 1, 32, 1024, 65536));

// ---------------------------------------------------------------------------
// Std-model scheme (t, n) sweep (smaller L for speed).

struct StdSweep : ::testing::TestWithParam<Tn> {
  stdmodel::StdParams params = stdmodel::StdParams::derive("std-sweep", 32);
  stdmodel::StdScheme scheme{params};
  Rng rng{"std-sweep-rng"};
};

TEST_P(StdSweep, EndToEnd) {
  auto [t, n] = GetParam();
  auto km = scheme.dist_keygen(n, t, rng);
  Bytes m = to_bytes("std sweep");
  std::vector<stdmodel::StdPartialSignature> parts;
  for (uint32_t i = 1; i <= t + 1; ++i)
    parts.push_back(scheme.share_sign(km.shares[i - 1], m, rng));
  auto sig = scheme.combine(km, m, parts, rng);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
}

INSTANTIATE_TEST_SUITE_P(Grid, StdSweep,
                         ::testing::Values(Tn{1, 3}, Tn{2, 5}, Tn{3, 7}),
                         tn_name);

// ---------------------------------------------------------------------------
// Randomized differential sweep: ~200 seeded trials cross-checking the
// cached/batched/parallel serving paths against the uncached scheme paths
// and the slow oracles (msm_naive, the affine-line reference Miller loop).
// The trial RNG is seeded fresh per run so the sweep explores new inputs on
// every CI execution; a failure logs the seed, and re-running with
// BNR_SWEEP_SEED=<seed> reproduces the exact trial sequence.

uint64_t sweep_seed() {
  static const uint64_t seed = [] {
    if (const char* env = std::getenv("BNR_SWEEP_SEED"))
      return uint64_t(std::strtoull(env, nullptr, 0));
    std::random_device rd;
    return uint64_t(rd()) << 32 ^ uint64_t(rd());
  }();
  return seed;
}

/// Per-suite trial RNG: derived from the run seed plus a domain so suites
/// stay independent; SCOPED_TRACE at each use site logs the reproduction
/// recipe on failure.
Rng trial_rng(std::string_view domain) {
  return Rng("diff-sweep/" + std::to_string(sweep_seed()))
      .fork(domain);
}

#define BNR_LOG_SEED() \
  SCOPED_TRACE("reproduce with BNR_SWEEP_SEED=" + std::to_string(sweep_seed()))

TEST(DifferentialSweepSeed, IsLoggedForReproduction) {
  printf("[ sweeps ] BNR_SWEEP_SEED=%llu\n",
         (unsigned long long)sweep_seed());
  ::testing::Test::RecordProperty("BNR_SWEEP_SEED",
                                  std::to_string(sweep_seed()));
}

struct RoDifferentialSweep : testfx::RoSchemeFixture {
  RoDifferentialSweep() : RoSchemeFixture("diff-sweep-ro") {}
  KeyMaterial km = keygen(3, 1);
};

TEST_F(RoDifferentialSweep, CachedVerifyAgreesWithSchemeVerify) {
  // 60 trials: random message shapes, random tamper modes. The cached
  // RoVerifier (prepared lines, the key-cache payload) must agree with the
  // uncached RoScheme::verify bit for bit on accept AND reject.
  BNR_LOG_SEED();
  Rng r = trial_rng("cached-verify");
  RoVerifier cached(scheme, km.pk);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    Bytes m = r.bytes(r.uniform(200));
    Signature s = sign(km, m);
    uint64_t mode = r.uniform(4);
    Bytes m2 = m;
    if (mode == 1) s.z = (G1::from_affine(s.z) + G1::generator()).to_affine();
    if (mode == 2) s.r = (G1::from_affine(s.r) + G1::generator()).to_affine();
    if (mode == 3) m2.push_back(0x5a);  // verify a different message
    bool uncached = scheme.verify(km.pk, m2, s);
    bool fast = cached.verify(m2, s);
    EXPECT_EQ(uncached, fast) << "mode " << mode;
    EXPECT_EQ(uncached, mode == 0);
  }
}

TEST_F(RoDifferentialSweep, BatchVerifyAgreesWithIndividualVerifies) {
  // 30 trials: random batch sizes and invalid subsets. The RLC fold must
  // accept exactly when every member verifies individually (false accepts
  // happen with probability ~N/2^128 — never in practice).
  BNR_LOG_SEED();
  Rng r = trial_rng("batch-verify");
  RoVerifier cached(scheme, km.pk);
  auto erased = erase_verifier<RoVerifier, Signature>(SchemeId::kRo, cached);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    size_t n = 1 + r.uniform(8);
    std::vector<Bytes> msgs;
    std::vector<Signature> sigs;
    bool all_valid = true;
    for (size_t j = 0; j < n; ++j) {
      auto [m, s] = make_signed(
          km, "bv " + std::to_string(trial) + "/" + std::to_string(j));
      if (r.uniform(4) == 0) {
        s = forge(s);
        all_valid = false;
      }
      msgs.push_back(std::move(m));
      sigs.push_back(s);
    }
    std::vector<SigHandle> handles;
    for (const auto& s : sigs)
      handles.push_back(erase_signature(SchemeId::kRo, s));
    EXPECT_EQ(erased->batch_verify(msgs, handles, r), all_valid);
    bool individually = true;
    for (size_t j = 0; j < n; ++j)
      individually = individually && cached.verify(msgs[j], sigs[j]);
    EXPECT_EQ(individually, all_valid);
  }
}

TEST_F(RoDifferentialSweep, CachedCombineAgreesWithStatelessCombine) {
  // 30 trials over a 5-player committee: random signer subsets, 0-2 random
  // tampered partials. The cached RoCombiner's Fiat-Shamir fold must select
  // the same subset and produce the same signature as the stateless
  // RoScheme::combine — or both must throw.
  BNR_LOG_SEED();
  Rng r = trial_rng("cached-combine");
  auto km5 = keygen(5, 2);
  RoCombiner combiner(scheme, km5);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    Bytes m = r.bytes(1 + r.uniform(64));
    // Random distinct signer subset of size 4 or 5.
    std::vector<uint32_t> signers = {1, 2, 3, 4, 5};
    for (size_t i = signers.size(); i > 1; --i)
      std::swap(signers[i - 1], signers[r.uniform(i)]);
    signers.resize(4 + r.uniform(2));
    auto parts = partials(km5, m, signers);
    size_t bad = r.uniform(3);
    for (size_t k = 0; k < bad && k < parts.size(); ++k) {
      size_t idx = r.uniform(parts.size());
      parts[idx] = tamper(parts[idx]);
    }
    size_t valid = 0;
    auto h = scheme.hash_message(m);
    for (const auto& p : parts)
      if (scheme.share_verify(km5.vks[p.index - 1], h, p)) ++valid;
    if (valid >= km5.t + 1) {
      Signature a = scheme.combine(km5, m, parts);
      Signature b = combiner.combine(m, parts);
      EXPECT_EQ(a, b);
      EXPECT_TRUE(scheme.verify(km5.pk, m, a));
    } else {
      EXPECT_THROW(scheme.combine(km5, m, parts), std::runtime_error);
      EXPECT_THROW(combiner.combine(m, parts), std::runtime_error);
    }
  }
}

struct DlinDifferentialSweep : testfx::DlinSchemeFixture {
  DlinDifferentialSweep() : DlinSchemeFixture("diff-sweep-dlin") {}
};

TEST_F(DlinDifferentialSweep, CachedVerifyAgreesWithSchemeVerify) {
  // 20 trials for the DLIN variant's cached verifier.
  BNR_LOG_SEED();
  Rng r = trial_rng("dlin-cached-verify");
  auto km = keygen(3, 1);
  DlinVerifier cached(scheme, km.pk);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    Bytes m = r.bytes(r.uniform(128));
    auto parts = partials(km, m, {1, 2});
    DlinSignature s = scheme.combine(km, m, parts);
    uint64_t mode = r.uniform(3);
    Bytes m2 = m;
    if (mode == 1) s.z = (G1::from_affine(s.z) + G1::generator()).to_affine();
    if (mode == 2) m2.push_back(0xa5);
    bool uncached = scheme.verify(km.pk, m2, s);
    EXPECT_EQ(uncached, cached.verify(m2, s)) << "mode " << mode;
    EXPECT_EQ(uncached, mode == 0);
  }
}

// ---------------------------------------------------------------------------
// The flush fold: one RlcFold over members of many keys and all four
// schemes, attributed by bisection, must give every member exactly the
// verdict of its own key's verify.

/// Two keys per scheme (RO, Agg, DLIN, BLS), each with erased handles for
/// kMsgs messages: valid signatures, the same with one component shifted by
/// the generator, and the same with an identity component.
struct FoldKey {
  SchemeId id{};
  std::shared_ptr<const PreparedVerifier> verifier;
  std::vector<SigHandle> valid, tampered, identity;
};

constexpr size_t kFoldMsgs = 3;

Bytes fold_msg(size_t i) { return to_bytes("fold sweep " + std::to_string(i)); }

G1Affine shifted(const G1Affine& p) {
  return (G1::from_affine(p) + G1::generator()).to_affine();
}

const std::vector<FoldKey>& fold_keys() {
  static const std::vector<FoldKey> keys = [] {
    SystemParams sp = SystemParams::derive("fold-sweep");
    Rng rng("fold-sweep-keys");
    RoScheme ro(sp);
    AggregateScheme agg(sp);
    DlinScheme dlin(sp);
    baselines::BoldyrevaBls bls(sp);
    std::vector<FoldKey> out;
    for (int copy = 0; copy < 2; ++copy) {
      auto rkm = ro.dist_keygen(3, 1, rng);
      FoldKey k{SchemeId::kRo,
                erase_verifier<RoVerifier, Signature>(SchemeId::kRo,
                                                      RoVerifier(ro, rkm.pk)),
                {}, {}, {}};
      for (size_t i = 0; i < kFoldMsgs; ++i) {
        std::vector<PartialSignature> parts;
        for (uint32_t j = 1; j <= 2; ++j)
          parts.push_back(ro.share_sign(rkm.shares[j - 1], fold_msg(i)));
        Signature sig = ro.combine_unchecked(1, parts);
        Signature bad = sig, id = sig;
        bad.r = shifted(bad.r);
        (i % 2 ? id.z : id.r) = G1Affine::identity();
        k.valid.push_back(erase_signature(SchemeId::kRo, sig));
        k.tampered.push_back(erase_signature(SchemeId::kRo, bad));
        k.identity.push_back(erase_signature(SchemeId::kRo, id));
      }
      out.push_back(std::move(k));
    }
    for (int copy = 0; copy < 2; ++copy) {
      auto akm = agg.dist_keygen(3, 1, rng);
      FoldKey k{SchemeId::kAgg,
                erase_verifier<AggVerifier, Signature>(
                    SchemeId::kAgg, AggVerifier(agg, akm.pk)),
                {}, {}, {}};
      for (size_t i = 0; i < kFoldMsgs; ++i) {
        std::vector<PartialSignature> parts;
        for (uint32_t j = 1; j <= 2; ++j)
          parts.push_back(
              agg.share_sign(akm.pk, akm.shares[j - 1], fold_msg(i)));
        Signature sig = ro.combine_unchecked(1, parts);
        Signature bad = sig, id = sig;
        bad.z = shifted(bad.z);
        (i % 2 ? id.r : id.z) = G1Affine::identity();
        k.valid.push_back(erase_signature(SchemeId::kAgg, sig));
        k.tampered.push_back(erase_signature(SchemeId::kAgg, bad));
        k.identity.push_back(erase_signature(SchemeId::kAgg, id));
      }
      out.push_back(std::move(k));
    }
    for (int copy = 0; copy < 2; ++copy) {
      auto dkm = dlin.dist_keygen(3, 1, rng);
      FoldKey k{SchemeId::kDlin,
                erase_verifier<DlinVerifier, DlinSignature>(
                    SchemeId::kDlin, DlinVerifier(dlin, dkm.pk)),
                {}, {}, {}};
      for (size_t i = 0; i < kFoldMsgs; ++i) {
        std::vector<DlinPartialSignature> parts;
        for (uint32_t j = 1; j <= 2; ++j)
          parts.push_back(dlin.share_sign(dkm.shares[j - 1], fold_msg(i)));
        DlinSignature sig = dlin.combine(dkm, fold_msg(i), parts);
        DlinSignature bad = sig, id = sig;
        bad.u = shifted(bad.u);  // breaks only the second equation
        id.z = G1Affine::identity();
        k.valid.push_back(erase_signature(SchemeId::kDlin, sig));
        k.tampered.push_back(erase_signature(SchemeId::kDlin, bad));
        k.identity.push_back(erase_signature(SchemeId::kDlin, id));
      }
      out.push_back(std::move(k));
    }
    for (int copy = 0; copy < 2; ++copy) {
      auto bkm = bls.dealer_keygen(3, 1, rng);
      FoldKey k{SchemeId::kBls,
                erase_verifier<baselines::BlsVerifier, G1Affine>(
                    SchemeId::kBls, baselines::BlsVerifier(bls, bkm.pk)),
                {}, {}, {}};
      for (size_t i = 0; i < kFoldMsgs; ++i) {
        std::vector<baselines::BlsPartialSignature> parts;
        for (uint32_t j = 1; j <= 2; ++j)
          parts.push_back(bls.share_sign(bkm.shares[j - 1], fold_msg(i)));
        G1Affine sig = bls.combine(bkm, fold_msg(i), parts);
        k.valid.push_back(erase_signature(SchemeId::kBls, sig));
        k.tampered.push_back(erase_signature(SchemeId::kBls, shifted(sig)));
        k.identity.push_back(
            erase_signature(SchemeId::kBls, G1Affine::identity()));
      }
      out.push_back(std::move(k));
    }
    return out;
  }();
  return keys;
}

struct FoldMember {
  const PreparedVerifier* verifier;
  Bytes msg;
  SigHandle sig;
};

/// A member of kind 0 is valid; kinds 1-6 are invalid in distinct ways.
FoldMember fold_member(size_t key, size_t msg, uint64_t kind) {
  const auto& keys = fold_keys();
  const FoldKey& k = keys[key];
  FoldMember m{k.verifier.get(), fold_msg(msg), k.valid[msg]};
  switch (kind) {
    case 1:  // a valid signature presented with another message
      m.msg = fold_msg((msg + 1) % kFoldMsgs);
      break;
    case 2:
      m.sig = k.tampered[msg];
      break;
    case 3:  // valid under the other key of the same scheme
      m.sig = keys[key ^ 1].valid[msg];
      break;
    case 4:
      m.sig = k.identity[msg];
      break;
    case 5:  // a handle of another scheme
      m.sig = keys[(key + 2) % keys.size()].valid[msg];
      break;
    case 6:
      m.sig = SigHandle{k.id, nullptr};
      break;
  }
  return m;
}

/// Folds `members` and checks every verdict against the member's own
/// verify, and the cost of bisection: exact verifies run only at the leaves
/// of nodes of 2 or 3 members that hold an invalid one, so at most 3 per
/// invalid member folded.
void check_fold(const std::vector<FoldMember>& members, Rng& rng) {
  RlcFold fold;
  std::vector<size_t> folded;
  for (size_t j = 0; j < members.size(); ++j)
    if (fold.add([&](std::vector<FoldTerm>& out) {
          return members[j].verifier->fold_terms(members[j].msg,
                                                 members[j].sig, out);
        }))
      folded.push_back(j);
  fold.seal(rng);
  size_t exact_calls = 0;
  bool failed = false;
  auto verdicts = fold.verdicts(
      [&](size_t i) {
        ++exact_calls;
        const FoldMember& m = members[folded[i]];
        return m.verifier->verify(m.msg, m.sig);
      },
      &failed);
  std::vector<bool> got(members.size(), false);
  for (size_t i = 0; i < folded.size(); ++i) got[folded[i]] = verdicts[i];
  size_t bad_folded = 0;
  for (size_t j = 0, i = 0; j < members.size(); ++j) {
    const bool expected =
        members[j].verifier->verify(members[j].msg, members[j].sig);
    EXPECT_EQ(got[j], expected) << "member " << j;
    if (i < folded.size() && folded[i] == j) {
      bad_folded += !expected;
      ++i;
    }
  }
  EXPECT_EQ(failed, bad_folded > 0);
  EXPECT_LE(exact_calls, 3 * bad_folded);
}

TEST(FoldSweep, FlushFoldAgreesWithEveryMembersVerify) {
  // 16 mixed flushes of 1-64 members over 8 keys of 4 schemes: valid
  // signatures, swapped messages, tampered components, other tenants'
  // signatures, identity components, wrong-scheme and null handles, at
  // invalid rates from none to all.
  BNR_LOG_SEED();
  Rng r = trial_rng("flush-fold");
  const size_t nkeys = fold_keys().size();
  for (int trial = 0; trial < 16; ++trial) {
    SCOPED_TRACE(trial);
    const uint64_t bad_per_64 =
        std::array<uint64_t, 4>{0, 2, 16, 64}[trial % 4];
    std::vector<FoldMember> members;
    size_t n = 1 + r.uniform(64);
    for (size_t j = 0; j < n; ++j) {
      uint64_t kind = r.uniform(64) < bad_per_64 ? 1 + r.uniform(6) : 0;
      members.push_back(
          fold_member(r.uniform(nkeys), r.uniform(kFoldMsgs), kind));
    }
    check_fold(members, r);
  }
}

TEST(FoldSweep, BisectionPatterns) {
  // Flushes of 64 over every key, with the invalid members placed where
  // bisection has the least and the most to do.
  BNR_LOG_SEED();
  Rng r = trial_rng("bisection");
  const size_t nkeys = fold_keys().size();
  const std::vector<std::vector<size_t>> patterns = {
      {}, {0}, {63}, {31, 32}, {}};
  for (size_t p = 0; p < patterns.size(); ++p) {
    SCOPED_TRACE(p);
    const bool all_bad = p + 1 == patterns.size();
    std::vector<FoldMember> members;
    for (size_t j = 0; j < 64; ++j) {
      bool bad = all_bad || std::find(patterns[p].begin(), patterns[p].end(),
                                      j) != patterns[p].end();
      members.push_back(fold_member(j % nkeys, r.uniform(kFoldMsgs),
                                    bad ? 1 + r.uniform(4) : 0));
    }
    check_fold(members, r);
  }
}

TEST(ParallelDifferentialSweep, MsmAgreesWithNaiveOracle) {
  // 40 trials: random sizes straddling the Pippenger and parallel-fallback
  // thresholds, scalar mixes with zeros and small values. msm, msm_parallel,
  // and the msm_naive oracle must agree exactly.
  BNR_LOG_SEED();
  Rng r = trial_rng("msm");
  service::ThreadPool pool(4);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    size_t n = 1 + r.uniform(160);
    std::vector<G1> points;
    std::vector<Fr> scalars;
    for (size_t i = 0; i < n; ++i) {
      points.push_back(G1::generator().mul(Fr::random(r)));
      uint64_t kind = r.uniform(8);
      if (kind == 0)
        scalars.push_back(Fr::zero());
      else if (kind == 1)
        scalars.push_back(Fr::from_u64(r.uniform(1000)));
      else
        scalars.push_back(Fr::random(r));
    }
    G1 oracle = msm_naive<G1>(points, scalars);
    EXPECT_EQ(msm<G1>(points, scalars), oracle);
    EXPECT_EQ(service::msm_parallel<G1>(pool, points, scalars), oracle);
  }
}

TEST(ParallelDifferentialSweep, MultiPairingAgreesWithAffineOracle) {
  // 20 trials: random term counts; the prepared shared-squaring loop and the
  // pool-parallel chunked loop must match the affine-line reference Miller
  // loop (multi_pairing_reference), including cancelling products.
  BNR_LOG_SEED();
  Rng r = trial_rng("multi-pairing");
  service::ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    size_t n = 1 + r.uniform(6);
    bool cancelling = r.uniform(2) == 0;
    std::vector<PairingTerm> plain;
    if (cancelling) {
      // Pairs e(aP, Q) e(-aP, Q): the product is exactly 1.
      for (size_t i = 0; i < n; ++i) {
        Fr a = Fr::random(r);
        G2Affine q = G2::generator().mul(Fr::random(r)).to_affine();
        plain.push_back({G1::generator().mul(a).to_affine(), q});
        plain.push_back({(-G1::generator().mul(a)).to_affine(), q});
      }
    } else {
      for (size_t i = 0; i < n; ++i)
        plain.push_back({G1::generator().mul(Fr::random(r)).to_affine(),
                         G2::generator().mul(Fr::random(r)).to_affine()});
    }
    std::vector<G2Prepared> prepared;
    prepared.reserve(plain.size());
    std::vector<PreparedTerm> terms;
    for (const auto& t : plain) {
      prepared.emplace_back(t.q);
      terms.push_back({t.p, &prepared.back()});
    }
    GT oracle = multi_pairing_reference(plain);
    EXPECT_EQ(multi_pairing(terms), oracle);
    EXPECT_EQ(service::multi_pairing_parallel(pool, terms), oracle);
    EXPECT_EQ(oracle.is_identity(), cancelling);
  }
}

}  // namespace
}  // namespace bnr
