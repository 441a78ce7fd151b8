#include "oracles.hpp"

#include <algorithm>
#include <numeric>

#include "curve/g2.hpp"
#include "sss/shamir.hpp"

namespace sb {

using bnr::threshold::PartialSignature;
using bnr::threshold::PublicKey;
using bnr::threshold::Signature;

std::string check_expected_verdict(const RoScheme& scheme,
                                   const VerifyInputs& in,
                                   const VerifyItem& item) {
  bool ok = scheme.verify(in.tenants[item.tenant].pk,
                          in.msgs[item.tenant][item.msg],
                          Signature::deserialize(in.sigs[item.tenant][item.sig]));
  if (ok != item.expect)
    return "uncached verify says " + std::string(ok ? "valid" : "invalid") +
           " for tenant " + std::to_string(item.tenant) + " msg " +
           std::to_string(item.msg) + " sig " + std::to_string(item.sig);
  return {};
}

std::string check_verdict(const VerifyItem& item, bool got) {
  if (got != item.expect)
    return "daemon answered " + std::string(got ? "valid" : "invalid") +
           " for tenant " + std::to_string(item.tenant) + " msg " +
           std::to_string(item.msg) + " sig " + std::to_string(item.sig);
  return {};
}

bnr::threshold::KeyShare interpolated_key(const KeyMaterial& km,
                                         std::span<const uint32_t> players) {
  auto lambda = bnr::lagrange_at_zero(players);
  std::array<bnr::Fr, 2> a{}, b{};
  for (size_t j = 0; j < players.size(); ++j) {
    const auto& sh = km.shares[players[j] - 1];
    for (size_t k = 0; k < 2; ++k) {
      a[k] = a[k] + lambda[j] * sh.a.reveal()[k];
      b[k] = b[k] + lambda[j] * sh.b.reveal()[k];
    }
  }
  bnr::threshold::KeyShare key;
  key.a = bnr::Secret<std::array<bnr::Fr, 2>>(a);
  key.b = bnr::Secret<std::array<bnr::Fr, 2>>(b);
  return key;
}

std::string check_combine(const RoScheme& scheme, const KeyMaterial& km,
                          const CombineRound& round,
                          const bnr::rpc::CombineResult& got) {
  std::string where = "round " + std::to_string(round.index) + ": ";
  Signature sig;
  try {
    sig = Signature::deserialize(got.sig);
  } catch (const std::exception& e) {
    return where + "combined signature does not parse: " + e.what();
  }
  if (!scheme.verify(km.pk, round.msg, sig))
    return where + "combined signature fails the uncached verify";

  // The signature under the key interpolated from t+1 players' shares: RO
  // signatures are unique per key and message, so any honest set gives the
  // same signature. The set is one of two disjoint ones, whichever differs
  // from the players who signed this round.
  std::vector<uint32_t> set(km.t + 1);
  std::iota(set.begin(), set.end(), 1u);
  std::vector<uint32_t> signed_by(round.signers.begin(),
                                  round.signers.begin() + long(km.t + 1));
  std::sort(signed_by.begin(), signed_by.end());
  if (signed_by == set)
    std::iota(set.begin(), set.end(), uint32_t(km.n - km.t));
  PartialSignature ref = scheme.share_sign(interpolated_key(km, set), round.msg);
  if (!(ref.z == sig.z && ref.r == sig.r))
    return where + "combined signature differs from the in-process interpolation";

  std::vector<uint32_t> want;
  if (round.corrupt_pos >= 0)
    want.push_back(round.signers[size_t(round.corrupt_pos)]);
  if (got.cheaters != want)
    return where + "reported " + std::to_string(got.cheaters.size()) +
           " cheater(s), expected " + std::to_string(want.size()) +
           (want.empty() ? "" : " (player " + std::to_string(want[0]) + ")");
  return {};
}

std::string check_onboard_signature(const RoScheme& scheme,
                                    const KeyMaterial& km,
                                    const OnboardOp& op, const Bytes& sig) {
  try {
    if (scheme.verify(km.pk, op.msg, Signature::deserialize(sig))) return {};
  } catch (const std::exception&) {
  }
  return "op " + std::to_string(op.index) +
         ": combined signature does not verify under the DKG public key";
}

std::string check_hostile_key(const Bytes& pk_bytes) {
  PublicKey pk = PublicKey::deserialize(pk_bytes);
  for (const auto& g : pk.g)
    if (g.infinity || !bnr::g2_in_subgroup(g)) return {};
  return "hostile key has both components in the r-order subgroup";
}

std::string check_hostile_refused(bool refused) {
  if (!refused) return "daemon accepted a hostile public key";
  return {};
}

}  // namespace sb
