#include "baselines/boldyreva.hpp"

#include <stdexcept>

#include "pairing/pairing.hpp"

namespace bnr::baselines {

BlsKeyMaterial BoldyrevaBls::dealer_keygen(size_t n, size_t t,
                                           Rng& rng) const {
  BlsKeyMaterial km;
  km.n = n;
  km.t = t;
  Fr x = Fr::random(rng);
  auto shares = shamir_share(rng, x, t, n);
  km.pk.pk = G2::generator().mul(x).to_affine();
  for (const auto& s : shares) {
    km.shares.push_back({s.index, s.value});
    km.vks.push_back(G2::generator().mul(s.value.reveal()).to_affine());
  }
  return km;
}

BlsKeyMaterial BoldyrevaBls::dist_keygen(
    size_t n, size_t t, Rng& rng,
    const std::map<uint32_t, dkg::Behavior>& behaviors,
    SyncNetwork* net) const {
  dkg::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.m = 1;
  cfg.rows = {dkg::VssRow{{{0, G2Curve::generator_affine()}}}};
  auto res = dkg::run_dkg(cfg, rng, behaviors, net);

  BlsKeyMaterial km;
  km.n = n;
  km.t = t;
  uint32_t honest = 1;
  while (behaviors.contains(honest)) ++honest;
  const auto& view = res.outputs[honest - 1];
  km.pk.pk = view.public_key[0];
  for (uint32_t i = 1; i <= n; ++i) {
    km.shares.push_back({i, Secret<Fr>(res.outputs[i - 1].secret_share.reveal()[0])});
    km.vks.push_back(view.verification_keys[i - 1][0]);
  }
  return km;
}

G1Affine BoldyrevaBls::hash_message(std::span<const uint8_t> msg) const {
  return hash_to_g1(params_.hash_dst("bls-H"), msg);
}

BlsPartialSignature BoldyrevaBls::share_sign(
    const BlsKeyShare& share, std::span<const uint8_t> msg) const {
  return {share.index,
          G1::from_affine(hash_message(msg)).mul(share.x.reveal()).to_affine()};
}

bool BoldyrevaBls::share_verify(const G2Affine& vk,
                                std::span<const uint8_t> msg,
                                const BlsPartialSignature& psig) const {
  // e(sigma_i, g2) == e(H, vk_i)  <=>  e(sigma_i, g2) e(H^{-1}, vk_i) == 1.
  return share_verify(vk, -hash_message(msg), psig);
}

bool BoldyrevaBls::share_verify(const G2Affine& vk, const G1Affine& neg_h,
                                const BlsPartialSignature& psig) const {
  std::array<PairingTerm, 2> terms = {
      PairingTerm{psig.sigma, G2Curve::generator_affine()},
      PairingTerm{neg_h, vk},
  };
  return pairing_product_is_one(terms);
}

G1Affine BoldyrevaBls::combine(const BlsKeyMaterial& km,
                               std::span<const uint8_t> msg,
                               std::span<const BlsPartialSignature> parts) const {
  G1Affine neg_h = -hash_message(msg);  // hashed ONCE, not per partial
  std::vector<BlsPartialSignature> valid;
  for (const auto& p : parts) {
    if (p.index < 1 || p.index > km.n) continue;
    if (share_verify(km.vks[p.index - 1], neg_h, p)) valid.push_back(p);
    if (valid.size() == km.t + 1) break;
  }
  return combine_unchecked(km.t, valid);
}

G1Affine BoldyrevaBls::combine_unchecked(
    size_t t, std::span<const BlsPartialSignature> parts) const {
  if (parts.size() < t + 1)
    throw std::runtime_error("bls combine: fewer than t+1 valid shares");
  std::span<const BlsPartialSignature> valid = parts.first(t + 1);
  std::vector<uint32_t> indices;
  for (const auto& p : valid) indices.push_back(p.index);
  auto lagrange = lagrange_at_zero(indices);
  std::vector<G1> sigmas;
  for (const auto& p : valid) sigmas.push_back(G1::from_affine(p.sigma));
  return msm<G1>(sigmas, lagrange).to_affine();
}

bool BoldyrevaBls::verify(const BlsPublicKey& pk,
                          std::span<const uint8_t> msg,
                          const G1Affine& sig) const {
  G1Affine neg_h = -hash_message(msg);
  std::array<PairingTerm, 2> terms = {
      PairingTerm{sig, G2Curve::generator_affine()},
      PairingTerm{neg_h, pk.pk},
  };
  return pairing_product_is_one(terms);
}

// ---------------------------------------------------------------------------
// Cached verification

BlsVerifier::BlsVerifier(const BoldyrevaBls& scheme, const BlsPublicKey& pk)
    : scheme_(scheme), gen_(scheme.generators()), pk_(pk.pk) {}

bool BlsVerifier::verify(std::span<const uint8_t> msg,
                         const G1Affine& sig) const {
  std::vector<threshold::FoldTerm> terms;
  return fold_terms(msg, sig, terms) && threshold::terms_hold(terms);
}

bool BlsVerifier::fold_terms(std::span<const uint8_t> msg, const G1Affine& sig,
                             std::vector<threshold::FoldTerm>& out) const {
  out.push_back({sig, &(*gen_)[0]});
  out.push_back({-scheme_.hash_message(msg), &pk_});
  return true;
}

}  // namespace bnr::baselines
