#include "threshold/aggregate_scheme.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "pairing/pairing.hpp"

namespace bnr::threshold {

Bytes AggPublicKey::serialize() const {
  ByteWriter w;
  for (const auto& gk : g) g2_serialize(gk, w);
  g1_serialize(big_z, w);
  g1_serialize(big_r, w);
  return w.take();
}

AggPublicKey AggPublicKey::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  AggPublicKey pk;
  for (auto& gk : pk.g) gk = g2_deserialize(rd);
  pk.big_z = g1_deserialize(rd);
  pk.big_r = g1_deserialize(rd);
  expect_done(rd, "AggPublicKey");
  return pk;
}

Bytes AggregateSignature::serialize() const {
  ByteWriter w;
  g1_serialize(z, w);
  g1_serialize(r, w);
  return w.take();
}

dkg::Config AggregateScheme::dkg_config(size_t n, size_t t) const {
  RoScheme base(params_);
  dkg::Config cfg = base.dkg_config(n, t);
  const G1Affine g = params_.g1_g, h = params_.g1_h;
  const G2Affine gz = params_.g_z, gr = params_.g_r;
  // Extra round-1 broadcast: (Z_i0, R_i0) = (g^{-a_i10} h^{-a_i20},
  // g^{-b_i10} h^{-b_i20}) — constants layout is [A1, B1, A2, B2].
  cfg.extra_provider = [g, h](std::span<const Fr> constants) {
    ByteWriter w;
    G1 z = G1::from_affine(g).mul(-constants[0]) +
           G1::from_affine(h).mul(-constants[2]);
    G1 r = G1::from_affine(g).mul(-constants[1]) +
           G1::from_affine(h).mul(-constants[3]);
    g1_serialize(z.to_affine(), w);
    g1_serialize(r.to_affine(), w);
    return w.take();
  };
  cfg.extra_validator = [g, h, gz, gr](std::span<const G2Affine> row0,
                                       const Bytes& extra) {
    try {
      ByteReader rd(extra);
      G1Affine z = g1_deserialize(rd);
      G1Affine r = g1_deserialize(rd);
      if (!rd.empty()) return false;
      // e(Z_i0, g^_z) e(R_i0, g^_r) e(g, W^_{i10}) e(h, W^_{i20}) == 1.
      std::array<PairingTerm, 4> terms = {
          PairingTerm{z, gz},
          PairingTerm{r, gr},
          PairingTerm{g, row0[0]},
          PairingTerm{h, row0[1]},
      };
      return pairing_product_is_one(terms);
    } catch (const std::exception&) {
      return false;
    }
  };
  return cfg;
}

AggKeyMaterial AggregateScheme::dist_keygen(
    size_t n, size_t t, Rng& rng,
    const std::map<uint32_t, dkg::Behavior>& behaviors,
    SyncNetwork* net) const {
  dkg::Config cfg = dkg_config(n, t);
  SyncNetwork local_net(n);
  SyncNetwork& use_net = net ? *net : local_net;

  std::vector<dkg::Player> players;
  players.reserve(n);
  for (uint32_t i = 1; i <= n; ++i) {
    dkg::Behavior b;
    if (auto it = behaviors.find(i); it != behaviors.end()) b = it->second;
    players.emplace_back(cfg, i, rng.fork("agg-player" + std::to_string(i)),
                         b);
  }
  uint32_t round1 = use_net.current_round();
  auto transcript = dkg::run_dkg(cfg, use_net, players);

  AggKeyMaterial km;
  km.n = n;
  km.t = t;
  km.transcript = transcript;
  uint32_t honest = 1;
  while (behaviors.contains(honest)) ++honest;
  km.qualified = transcript.outputs[honest - 1].qualified;
  const auto& view = transcript.outputs[honest - 1];
  km.pk.g = {view.public_key[0], view.public_key[1]};

  // Z = prod_{i in Q} Z_i0, R likewise, read from the round-1 broadcasts.
  G1 big_z, big_r;
  for (const auto& env : use_net.broadcasts(round1)) {
    if (env.to.has_value()) continue;
    bool in_q = false;
    for (uint32_t q : km.qualified) in_q = in_q || q == env.from;
    if (!in_q) continue;
    auto b = dkg::Round1Broadcast::deserialize(env.payload);
    ByteReader rd(b.extra);
    big_z = big_z + G1::from_affine(g1_deserialize(rd));
    big_r = big_r + G1::from_affine(g1_deserialize(rd));
  }
  km.pk.big_z = big_z.to_affine();
  km.pk.big_r = big_r.to_affine();

  km.vks.resize(n);
  km.shares.resize(n);
  for (uint32_t i = 1; i <= n; ++i) {
    km.vks[i - 1].v = {view.verification_keys[i - 1][0],
                       view.verification_keys[i - 1][1]};
    km.shares[i - 1] =
        RoScheme::to_key_share(i, transcript.outputs[i - 1].secret_share.reveal());
  }
  return km;
}

bool AggregateScheme::key_sanity_check(const AggPublicKey& pk) const {
  std::array<PairingTerm, 4> terms = {
      PairingTerm{pk.big_z, params_.g_z},
      PairingTerm{pk.big_r, params_.g_r},
      PairingTerm{params_.g1_g, pk.g[0]},
      PairingTerm{params_.g1_h, pk.g[1]},
  };
  return pairing_product_is_one(terms);
}

std::array<G1Affine, 2> AggregateScheme::hash_message(
    const AggPublicKey& pk, std::span<const uint8_t> msg) const {
  Bytes bound = pk.serialize();
  append(bound, msg);
  auto vec = hash_to_g1_vector(params_.hash_dst("Hagg"), bound, 2);
  return {vec[0], vec[1]};
}

PartialSignature AggregateScheme::share_sign(
    const AggPublicKey& pk, const KeyShare& share,
    std::span<const uint8_t> msg) const {
  auto h = hash_message(pk, msg);
  G1 h1 = G1::from_affine(h[0]), h2 = G1::from_affine(h[1]);
  PartialSignature out;
  out.index = share.index;
  const auto& a = share.a.reveal();
  const auto& b = share.b.reveal();
  out.z = (h1.mul(-a[0]) + h2.mul(-a[1])).to_affine();
  out.r = (h1.mul(-b[0]) + h2.mul(-b[1])).to_affine();
  return out;
}

bool AggregateScheme::share_verify(const AggPublicKey& pk,
                                   const VerificationKey& vk,
                                   std::span<const uint8_t> msg,
                                   const PartialSignature& sig) const {
  return share_verify(vk, hash_message(pk, msg), sig);
}

bool AggregateScheme::share_verify(const VerificationKey& vk,
                                   const std::array<G1Affine, 2>& h,
                                   const PartialSignature& sig) const {
  std::array<PairingTerm, 4> terms = {
      PairingTerm{sig.z, params_.g_z},
      PairingTerm{sig.r, params_.g_r},
      PairingTerm{h[0], vk.v[0]},
      PairingTerm{h[1], vk.v[1]},
  };
  return pairing_product_is_one(terms);
}

Signature AggregateScheme::combine(
    const AggKeyMaterial& km, std::span<const uint8_t> msg,
    std::span<const PartialSignature> parts) const {
  // Same Share-Verify equation as the main scheme (only the hash binds the
  // key), so the batched RLC selection is shared with RoScheme::combine.
  auto h = hash_message(km.pk, msg);  // hashed ONCE, not per partial
  Rng rng = transcript_rng(params_.hash_dst("agg-combine-rlc"), msg, parts);
  auto valid = select_valid_partials(*generators(), km.vks, km.n, km.t, h,
                                     parts, rng);
  RoScheme base(params_);
  return base.combine_unchecked(km.t, valid);
}

bool AggregateScheme::verify(const AggPublicKey& pk,
                             std::span<const uint8_t> msg,
                             const Signature& sig) const {
  auto h = hash_message(pk, msg);
  std::array<PairingTerm, 4> terms = {
      PairingTerm{sig.z, params_.g_z},
      PairingTerm{sig.r, params_.g_r},
      PairingTerm{h[0], pk.g[0]},
      PairingTerm{h[1], pk.g[1]},
  };
  return pairing_product_is_one(terms);
}

std::optional<AggregateSignature> AggregateScheme::aggregate(
    std::span<const AggStatement> statements,
    std::span<const Signature> signatures) const {
  if (statements.size() != signatures.size() || statements.empty())
    return std::nullopt;
  G1 z, r;
  for (size_t j = 0; j < statements.size(); ++j) {
    if (!verify(statements[j].pk, statements[j].message, signatures[j]))
      return std::nullopt;
    z = z + G1::from_affine(signatures[j].z);
    r = r + G1::from_affine(signatures[j].r);
  }
  return AggregateSignature{z.to_affine(), r.to_affine()};
}

bool AggregateScheme::aggregate_verify(
    std::span<const AggStatement> statements,
    const AggregateSignature& sig) const {
  if (statements.empty()) return false;
  std::vector<PairingTerm> terms;
  terms.reserve(2 + 2 * statements.size());
  terms.push_back({sig.z, params_.g_z});
  terms.push_back({sig.r, params_.g_r});
  for (const auto& st : statements) {
    if (!key_sanity_check(st.pk)) return false;
    auto h = hash_message(st.pk, st.message);
    terms.push_back({h[0], st.pk.g[0]});
    terms.push_back({h[1], st.pk.g[1]});
  }
  return pairing_product_is_one(terms);
}

// ---------------------------------------------------------------------------
// Cached verification

AggVerifier::AggVerifier(const AggregateScheme& scheme, const AggPublicKey& pk)
    : scheme_(scheme),
      pk_(pk),
      key_valid_(scheme.key_sanity_check(pk)),
      gen_(scheme.generators()),
      key_{G2Prepared(pk.g[0]), G2Prepared(pk.g[1])} {}

bool AggVerifier::verify(std::span<const uint8_t> msg,
                         const Signature& sig) const {
  std::vector<FoldTerm> terms;
  return fold_terms(msg, sig, terms) && terms_hold(terms);
}

bool AggVerifier::fold_terms(std::span<const uint8_t> msg,
                             const Signature& sig,
                             std::vector<FoldTerm>& out) const {
  if (!key_valid_) return false;
  auto h = scheme_.hash_message(pk_, msg);
  out.push_back({sig.z, &(*gen_)[0]});
  out.push_back({sig.r, &(*gen_)[1]});
  out.push_back({h[0], &key_[0]});
  out.push_back({h[1], &key_[1]});
  return true;
}

}  // namespace bnr::threshold
