#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "curve/g2.hpp"

namespace sb {

using bnr::Rng;
using bnr::threshold::PartialSignature;
using bnr::threshold::PublicKey;

Rng seeded_rng(uint64_t seed, const std::string& purpose) {
  return Rng("servicebench/" + std::to_string(seed) + "/" + purpose);
}

namespace {

/// `k` distinct player indices from 1..n in random order.
std::vector<uint32_t> pick_players(Rng& rng, size_t n, size_t k) {
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 1u);
  for (size_t i = 0; i < k; ++i)
    std::swap(all[i], all[i + rng.uniform(n - i)]);
  all.resize(k);
  return all;
}

}  // namespace

KeyMaterial make_committee(const RoScheme& scheme, uint64_t seed,
                           const std::string& purpose, size_t n, size_t t) {
  Rng rng = seeded_rng(seed, "dkg/" + purpose);
  return scheme.dist_keygen(n, t, rng);
}

VerifyInputs make_verify_inputs(const RoScheme& scheme, uint64_t seed) {
  using S = VerifyShape;
  VerifyInputs in;
  for (size_t k = 0; k < S::kTenants; ++k) {
    in.tenants.push_back(make_committee(scheme, seed, "tenant/" + std::to_string(k),
                                        S::kN, S::kT));
    in.keys.push_back("tenant-" + std::to_string(k));
    Rng rng = seeded_rng(seed, "pool/" + std::to_string(k));
    std::vector<Bytes> msgs, sigs;
    for (size_t j = 0; j < S::kSigsPerTenant; ++j) {
      Bytes msg = rng.bytes(32);
      std::vector<PartialSignature> parts;
      for (uint32_t i : pick_players(rng, S::kN, S::kT + 1))
        parts.push_back(scheme.share_sign(in.tenants[k].shares[i - 1], msg));
      sigs.push_back(scheme.combine_unchecked(S::kT, parts).serialize());
      msgs.push_back(std::move(msg));
    }
    in.msgs.push_back(std::move(msgs));
    in.sigs.push_back(std::move(sigs));
  }

  // Zipf(1.0) popularity over a seeded ranking of the tenants.
  Rng rng = seeded_rng(seed, "stream");
  std::vector<uint32_t> rank = pick_players(rng, S::kTenants, S::kTenants);
  std::vector<double> cdf;
  double total = 0;
  for (size_t r = 1; r <= S::kTenants; ++r) {
    total += 1.0 / std::pow(double(r), S::kZipfS);
    cdf.push_back(total);
  }
  for (size_t b = 0; b < S::kStreamBlocks; ++b) {
    size_t forged = rng.uniform(S::kForgeryEvery);
    for (size_t j = 0; j < S::kForgeryEvery; ++j) {
      double u = double(rng.next_u64() >> 11) * 0x1p-53 * total;
      size_t r = size_t(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      VerifyItem it;
      it.tenant = rank[std::min(r, S::kTenants - 1)] - 1;
      it.sig = uint32_t(rng.uniform(S::kSigsPerTenant));
      it.msg = it.sig;
      if (j == forged) {
        // A valid signature presented with another message of its tenant.
        it.msg = uint32_t((it.sig + 1 + rng.uniform(S::kSigsPerTenant - 1)) %
                          S::kSigsPerTenant);
        it.expect = false;
      }
      in.stream.push_back(it);
    }
  }
  return in;
}

CombineRound make_combine_round(uint64_t seed, uint64_t index) {
  using S = CombineShape;
  Rng rng = seeded_rng(seed, "round/" + std::to_string(index));
  CombineRound r;
  r.index = index;
  r.msg = rng.bytes(32);
  bool cheater = index % S::kCheaterEvery == S::kCheaterEvery - 1;
  r.signers = pick_players(rng, S::kN, S::kT + (cheater ? 2 : 1));
  if (cheater) r.corrupt_pos = int(rng.uniform(S::kT + 1));
  return r;
}

std::vector<Bytes> sign_round(const RoScheme& scheme, const KeyMaterial& km,
                              const CombineRound& round) {
  std::vector<Bytes> out;
  out.reserve(round.signers.size());
  for (size_t p = 0; p < round.signers.size(); ++p) {
    PartialSignature ps =
        scheme.share_sign(km.shares[round.signers[p] - 1], round.msg);
    if (int(p) == round.corrupt_pos)
      ps.z = (bnr::G1::from_affine(ps.z) + bnr::G1::generator()).to_affine();
    out.push_back(ps.serialize());
  }
  return out;
}

OnboardOp make_onboard_op(uint64_t seed, uint64_t index) {
  using S = OnboardShape;
  OnboardOp op;
  op.index = index;
  if (index % S::kRound == S::kRound - 1) {
    op.hostile = (index / S::kRound) % 2 == 0 ? Hostile::kOutsideSubgroup
                                               : Hostile::kIdentity;
    return op;
  }
  Rng rng = seeded_rng(seed, "onboard/" + std::to_string(index));
  op.msg = rng.bytes(32);
  op.signers = pick_players(rng, S::kN, S::kT + 1);
  op.revisit = rng.next_u64();
  return op;
}

Bytes hostile_public_key(const RoScheme& scheme, Hostile kind) {
  PublicKey pk;
  pk.g = {scheme.params().g_z, scheme.params().g_r};
  if (kind == Hostile::kIdentity) {
    pk.g[0] = bnr::G2Affine::identity();
    return pk.serialize();
  }
  // A point of the twist curve E'(Fp2) found by trying x values from a fixed
  // label: g2_deserialize checks only the curve equation, so the first x it
  // accepts gives a point that, with overwhelming probability, lies outside
  // the r-order subgroup (the caller confirms it with g2_in_subgroup).
  Rng rng("servicebench/hostile-g2");
  for (;;) {
    bnr::ByteWriter w;
    w.u8(2);
    w.raw(bnr::Fp::random(rng).to_bytes_be());
    w.raw(bnr::Fp::random(rng).to_bytes_be());
    try {
      pk.g[1] = bnr::g2_from_bytes(w.bytes());
      return pk.serialize();
    } catch (const std::invalid_argument&) {
      // x not on the curve: try the next one.
    }
  }
}

}  // namespace sb
