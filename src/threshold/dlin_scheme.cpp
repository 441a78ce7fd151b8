#include "threshold/dlin_scheme.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "common/sha256.hpp"
#include "pairing/pairing.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr::threshold {

namespace {
// m-vector layout: [a1,b1,c1, a2,b2,c2, a3,b3,c3].
constexpr size_t idx_a(size_t k) { return 3 * k; }
constexpr size_t idx_b(size_t k) { return 3 * k + 1; }
constexpr size_t idx_c(size_t k) { return 3 * k + 2; }

}  // namespace

Bytes DlinPublicKey::serialize() const {
  ByteWriter w;
  for (const auto& p : g) g2_serialize(p, w);
  for (const auto& p : h) g2_serialize(p, w);
  return w.take();
}

DlinPublicKey DlinPublicKey::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  DlinPublicKey pk;
  for (auto& p : pk.g) p = g2_deserialize(rd);
  for (auto& p : pk.h) p = g2_deserialize(rd);
  expect_done(rd, "DlinPublicKey");
  return pk;
}

Bytes DlinKeyShare::serialize() const {
  ByteWriter w;
  w.u32(index);
  const auto& av = a.reveal();
  const auto& bv = b.reveal();
  const auto& cv = c.reveal();
  for (size_t k = 0; k < 3; ++k) {
    w.raw(av[k].to_bytes_be());
    w.raw(bv[k].to_bytes_be());
    w.raw(cv[k].to_bytes_be());
  }
  return w.take();
}

Bytes DlinVerificationKey::serialize() const {
  ByteWriter w;
  for (const auto& p : u) g2_serialize(p, w);
  for (const auto& p : z) g2_serialize(p, w);
  return w.take();
}

DlinVerificationKey DlinVerificationKey::deserialize(
    std::span<const uint8_t> data) {
  ByteReader rd(data);
  DlinVerificationKey vk;
  for (auto& p : vk.u) p = g2_deserialize(rd);
  for (auto& p : vk.z) p = g2_deserialize(rd);
  expect_done(rd, "DlinVerificationKey");
  return vk;
}

Bytes DlinPartialSignature::serialize() const {
  ByteWriter w;
  w.u32(index);
  g1_serialize(z, w);
  g1_serialize(r, w);
  g1_serialize(u, w);
  return w.take();
}

DlinPartialSignature DlinPartialSignature::deserialize(
    std::span<const uint8_t> data) {
  ByteReader rd(data);
  DlinPartialSignature p;
  p.index = rd.u32();
  p.z = g1_deserialize(rd);
  p.r = g1_deserialize(rd);
  p.u = g1_deserialize(rd);
  expect_done(rd, "DlinPartialSignature");
  return p;
}

Bytes DlinSignature::serialize() const {
  ByteWriter w;
  g1_serialize(z, w);
  g1_serialize(r, w);
  g1_serialize(u, w);
  return w.take();
}

DlinSignature DlinSignature::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  DlinSignature s;
  s.z = g1_deserialize(rd);
  s.r = g1_deserialize(rd);
  s.u = g1_deserialize(rd);
  expect_done(rd, "DlinSignature");
  return s;
}

dkg::Config DlinScheme::dkg_config(size_t n, size_t t) const {
  dkg::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.m = 9;
  // Rows 0..2: V^_{k,l} = g^_z^{a_k} g^_r^{b_k};
  // rows 3..5: W^_{k,l} = h^_z^{a_k} h^_u^{c_k}.
  for (size_t k = 0; k < 3; ++k)
    cfg.rows.push_back(
        dkg::VssRow{{{idx_a(k), params_.g_z}, {idx_b(k), params_.g_r}}});
  for (size_t k = 0; k < 3; ++k)
    cfg.rows.push_back(
        dkg::VssRow{{{idx_a(k), params_.h_z}, {idx_c(k), params_.h_u}}});
  return cfg;
}

DlinKeyMaterial DlinScheme::dist_keygen(
    size_t n, size_t t, Rng& rng,
    const std::map<uint32_t, dkg::Behavior>& behaviors,
    SyncNetwork* net) const {
  dkg::Config cfg = dkg_config(n, t);
  DlinKeyMaterial km;
  km.n = n;
  km.t = t;
  km.transcript = dkg::run_dkg(cfg, rng, behaviors, net);
  km.qualified = km.transcript.qualified;

  uint32_t honest = 1;
  while (behaviors.contains(honest)) ++honest;
  const auto& view = km.transcript.outputs[honest - 1];
  for (size_t k = 0; k < 3; ++k) {
    km.pk.g[k] = view.public_key[k];
    km.pk.h[k] = view.public_key[3 + k];
  }
  km.vks.resize(n);
  km.shares.resize(n);
  for (uint32_t i = 1; i <= n; ++i) {
    for (size_t k = 0; k < 3; ++k) {
      km.vks[i - 1].u[k] = view.verification_keys[i - 1][k];
      km.vks[i - 1].z[k] = view.verification_keys[i - 1][3 + k];
    }
    const auto& sv = km.transcript.outputs[i - 1].secret_share.reveal();
    km.shares[i - 1].index = i;
    auto& sa = km.shares[i - 1].a.reveal_mut();
    auto& sb = km.shares[i - 1].b.reveal_mut();
    auto& sc = km.shares[i - 1].c.reveal_mut();
    for (size_t k = 0; k < 3; ++k) {
      sa[k] = sv[idx_a(k)];
      sb[k] = sv[idx_b(k)];
      sc[k] = sv[idx_c(k)];
    }
  }
  return km;
}

std::array<G1Affine, 3> DlinScheme::hash_message(
    std::span<const uint8_t> msg) const {
  auto vec = hash_to_g1_vector(params_.hash_dst("H3"), msg, 3);
  return {vec[0], vec[1], vec[2]};
}

DlinPartialSignature DlinScheme::share_sign(
    const DlinKeyShare& share, std::span<const uint8_t> msg) const {
  auto h = hash_message(msg);
  G1 z, r, u;
  const auto& sa = share.a.reveal();
  const auto& sb = share.b.reveal();
  const auto& sc = share.c.reveal();
  for (size_t k = 0; k < 3; ++k) {
    G1 hk = G1::from_affine(h[k]);
    z = z + hk.mul(-sa[k]);
    r = r + hk.mul(-sb[k]);
    u = u + hk.mul(-sc[k]);
  }
  return {share.index, z.to_affine(), r.to_affine(), u.to_affine()};
}

bool DlinScheme::share_verify(const DlinVerificationKey& vk,
                              std::span<const uint8_t> msg,
                              const DlinPartialSignature& sig) const {
  return share_verify(vk, hash_message(msg), sig);
}

bool DlinScheme::share_verify(const DlinVerificationKey& vk,
                              const std::array<G1Affine, 3>& h,
                              const DlinPartialSignature& sig) const {
  std::vector<PairingTerm> eq1 = {{sig.z, params_.g_z}, {sig.r, params_.g_r}};
  std::vector<PairingTerm> eq2 = {{sig.z, params_.h_z}, {sig.u, params_.h_u}};
  for (size_t k = 0; k < 3; ++k) {
    eq1.push_back({h[k], vk.u[k]});
    eq2.push_back({h[k], vk.z[k]});
  }
  return pairing_product_is_one(eq1) && pairing_product_is_one(eq2);
}

namespace {

/// Both DLIN equations over prepared key lines `a` (equation 0) and `b`
/// (equation 1): e(z, g^_z) e(r, g^_r) prod_k e(H_k, a_k) == 1 and
/// e(z, h^_z) e(u, h^_u) prod_k e(H_k, b_k) == 1.
void dlin_terms(const DlinScheme::Generators& gen, const G1Affine& z,
                const G1Affine& r, const G1Affine& u,
                const std::array<G1Affine, 3>& h,
                const std::array<G2Prepared, 3>& a,
                const std::array<G2Prepared, 3>& b,
                std::vector<FoldTerm>& out) {
  out.push_back({z, &gen[0], 0});
  out.push_back({r, &gen[1], 0});
  out.push_back({z, &gen[2], 1});
  out.push_back({u, &gen[3], 1});
  for (size_t k = 0; k < 3; ++k) {
    out.push_back({h[k], &a[k], 0});
    out.push_back({h[k], &b[k], 1});
  }
}

DlinSignature dlin_interpolate(std::span<const DlinPartialSignature> valid) {
  std::vector<uint32_t> indices;
  for (const auto& p : valid) indices.push_back(p.index);
  auto lagrange = lagrange_at_zero(indices);
  std::vector<G1> zs, rs, us;
  for (const auto& p : valid) {
    zs.push_back(G1::from_affine(p.z));
    rs.push_back(G1::from_affine(p.r));
    us.push_back(G1::from_affine(p.u));
  }
  return {msm<G1>(zs, lagrange).to_affine(), msm<G1>(rs, lagrange).to_affine(),
          msm<G1>(us, lagrange).to_affine()};
}

}  // namespace

DlinSignature DlinScheme::combine(
    const DlinKeyMaterial& km, std::span<const uint8_t> msg,
    std::span<const DlinPartialSignature> parts) const {
  auto h = hash_message(msg);  // hashed ONCE, not per partial signature
  Rng rng = transcript_rng(params_.hash_dst("dlin-combine-rlc"), msg, parts);
  const auto gen = generators();
  auto head_holds = [&](std::span<const DlinPartialSignature> head) {
    std::vector<DlinShareVerifier> checkers;
    checkers.reserve(head.size());  // the fold points into their tables
    RlcFold fold;
    for (const auto& p : head)
      fold.add([&](std::vector<FoldTerm>& out) {
        checkers.emplace_back(*gen, km.vks[p.index - 1]);
        checkers.back().fold_terms(h, p, out);
        return true;
      });
    fold.seal(rng);
    return fold.holds(0, fold.size());
  };
  return dlin_interpolate(select_shares(
      parts, km.n, km.t, head_holds,
      [&](const DlinPartialSignature& p) {
        return share_verify(km.vks[p.index - 1], h, p);
      },
      nullptr));
}

bool DlinScheme::verify(const DlinPublicKey& pk, std::span<const uint8_t> msg,
                        const DlinSignature& sig) const {
  auto h = hash_message(msg);
  std::vector<PairingTerm> eq1 = {{sig.z, params_.g_z}, {sig.r, params_.g_r}};
  std::vector<PairingTerm> eq2 = {{sig.z, params_.h_z}, {sig.u, params_.h_u}};
  for (size_t k = 0; k < 3; ++k) {
    eq1.push_back({h[k], pk.g[k]});
    eq2.push_back({h[k], pk.h[k]});
  }
  return pairing_product_is_one(eq1) && pairing_product_is_one(eq2);
}

// ---------------------------------------------------------------------------
// Cached verification

DlinVerifier::DlinVerifier(const DlinScheme& scheme, const DlinPublicKey& pk)
    : scheme_(scheme),
      gen_(scheme.generators()),
      g_{G2Prepared(pk.g[0]), G2Prepared(pk.g[1]), G2Prepared(pk.g[2])},
      h_{G2Prepared(pk.h[0]), G2Prepared(pk.h[1]), G2Prepared(pk.h[2])} {}

bool DlinVerifier::verify(std::span<const uint8_t> msg,
                          const DlinSignature& sig) const {
  std::vector<FoldTerm> terms;
  return fold_terms(msg, sig, terms) && terms_hold(terms);
}

bool DlinVerifier::fold_terms(std::span<const uint8_t> msg,
                              const DlinSignature& sig,
                              std::vector<FoldTerm>& out) const {
  dlin_terms(*gen_, sig.z, sig.r, sig.u, scheme_.hash_message(msg), g_, h_,
             out);
  return true;
}

// ---------------------------------------------------------------------------
// Cached share verification / batched Combine

DlinShareVerifier::DlinShareVerifier(const DlinScheme::Generators& gen,
                                     const DlinVerificationKey& vk)
    : gen_(&gen),
      u_{G2Prepared(vk.u[0]), G2Prepared(vk.u[1]), G2Prepared(vk.u[2])},
      z_{G2Prepared(vk.z[0]), G2Prepared(vk.z[1]), G2Prepared(vk.z[2])} {}

bool DlinShareVerifier::verify(const std::array<G1Affine, 3>& h,
                               const DlinPartialSignature& sig) const {
  std::vector<FoldTerm> terms;
  fold_terms(h, sig, terms);
  return terms_hold(terms);
}

DlinCombiner::DlinCombiner(const DlinScheme& scheme,
                           const DlinKeyMaterial& km)
    : scheme_(scheme), n_(km.n), t_(km.t), gen_(scheme.generators()) {
  players_.reserve(km.n);
  for (size_t i = 0; i < km.n; ++i) players_.emplace_back(*gen_, km.vks[i]);
}

void DlinShareVerifier::fold_terms(const std::array<G1Affine, 3>& h,
                                   const DlinPartialSignature& sig,
                                   std::vector<FoldTerm>& out) const {
  dlin_terms(*gen_, sig.z, sig.r, sig.u, h, u_, z_, out);
}

bool DlinCombiner::share_verify(const std::array<G1Affine, 3>& h,
                                const DlinPartialSignature& sig) const {
  if (sig.index < 1 || sig.index > n_)
    throw std::invalid_argument("DlinCombiner: partial index out of range");
  return players_[sig.index - 1].verify(h, sig);
}

bool DlinCombiner::batch_share_verify(
    const std::array<G1Affine, 3>& h,
    std::span<const DlinPartialSignature> parts, Rng& rng) const {
  for (const auto& p : parts)
    if (p.index < 1 || p.index > n_)
      throw std::invalid_argument("DlinCombiner: partial index out of range");
  RlcFold fold;
  for (const auto& p : parts)
    fold.add([&](std::vector<FoldTerm>& out) {
      players_[p.index - 1].fold_terms(h, p, out);
      return true;
    });
  fold.seal(rng);
  return fold.holds(0, fold.size());
}

DlinSignature DlinCombiner::combine(std::span<const uint8_t> msg,
                                    std::span<const DlinPartialSignature> parts,
                                    Rng& rng,
                                    std::vector<uint32_t>* cheaters) const {
  auto h = scheme_.hash_message(msg);
  return dlin_interpolate(select_shares(
      parts, n_, t_,
      [&](std::span<const DlinPartialSignature> head) {
        return batch_share_verify(h, head, rng);
      },
      [&](const DlinPartialSignature& p) {
        return players_[p.index - 1].verify(h, p);
      },
      cheaters));
}

DlinSignature DlinCombiner::combine(std::span<const uint8_t> msg,
                                    std::span<const DlinPartialSignature> parts,
                                    std::vector<uint32_t>* cheaters) const {
  Rng rng = transcript_rng(scheme_.params().hash_dst("dlin-combine-rlc"),
                                msg, parts);
  return combine(msg, parts, rng, cheaters);
}

}  // namespace bnr::threshold
