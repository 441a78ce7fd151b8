// Appendix F: the DLIN-based variant of the threshold scheme. Works even in
// pairing configurations with efficiently computable isomorphisms between
// the source groups (where SXDH fails): signatures are triples
// (z, r, u) in G^3 and verification checks two pairing-product equations
// against the doubled public key {g^_k, h^_k}.
#pragma once

#include <array>
#include <map>

#include "common/secret.hpp"
#include "dkg/pedersen_dkg.hpp"
#include "pairing/pairing.hpp"
#include "threshold/params.hpp"
#include "threshold/rlc_fold.hpp"

namespace bnr::threshold {

struct DlinPublicKey {
  std::array<G2Affine, 3> g;  // g^_k = g^_z^{a_k} g^_r^{b_k}
  std::array<G2Affine, 3> h;  // h^_k = h^_z^{a_k} h^_u^{c_k}

  Bytes serialize() const;
  static DlinPublicKey deserialize(std::span<const uint8_t> data);
};

struct DlinKeyShare {
  uint32_t index = 0;
  Secret<std::array<Fr, 3>> a, b, c;

  Bytes serialize() const;
};

struct DlinVerificationKey {
  std::array<G2Affine, 3> u;  // U^_{k,i} = g^_z^{A_k(i)} g^_r^{B_k(i)}
  std::array<G2Affine, 3> z;  // Z^_{k,i} = h^_z^{A_k(i)} h^_u^{C_k(i)}

  Bytes serialize() const;
  static DlinVerificationKey deserialize(std::span<const uint8_t> data);
};

struct DlinPartialSignature {
  uint32_t index = 0;
  G1Affine z, r, u;

  Bytes serialize() const;
  static DlinPartialSignature deserialize(std::span<const uint8_t> data);
};

struct DlinSignature {
  G1Affine z, r, u;

  Bytes serialize() const;
  static DlinSignature deserialize(std::span<const uint8_t> data);
  bool operator==(const DlinSignature& o) const {
    return z == o.z && r == o.r && u == o.u;
  }
};

struct DlinKeyMaterial {
  size_t n = 0, t = 0;
  DlinPublicKey pk;
  std::vector<DlinKeyShare> shares;
  std::vector<DlinVerificationKey> vks;
  std::vector<uint32_t> qualified;
  dkg::RunResult transcript;
};

class DlinScheme {
 public:
  explicit DlinScheme(SystemParams params) : params_(std::move(params)) {}

  const SystemParams& params() const { return params_; }

  /// Prepared (g^_z, g^_r, h^_z, h^_u), shared by every verifier and
  /// combiner made from this scheme object or its copies.
  using Generators = PreparedGenerators<4>::Tables;
  std::shared_ptr<const Generators> generators() const {
    return generators_.get();
  }

  /// m = 9 secrets (a_k, b_k, c_k)_{k=1..3}; 6 commitment rows (V^ and W^).
  dkg::Config dkg_config(size_t n, size_t t) const;

  DlinKeyMaterial dist_keygen(
      size_t n, size_t t, Rng& rng,
      const std::map<uint32_t, dkg::Behavior>& behaviors = {},
      SyncNetwork* net = nullptr) const;

  std::array<G1Affine, 3> hash_message(std::span<const uint8_t> msg) const;

  DlinPartialSignature share_sign(const DlinKeyShare& share,
                                  std::span<const uint8_t> msg) const;
  bool share_verify(const DlinVerificationKey& vk,
                    std::span<const uint8_t> msg,
                    const DlinPartialSignature& sig) const;
  /// Hash-hoisted variant (Combine hashes once for all partial signatures).
  bool share_verify(const DlinVerificationKey& vk,
                    const std::array<G1Affine, 3>& h,
                    const DlinPartialSignature& sig) const;

  /// Combines t+1 valid partial signatures. Both Share-Verify equations of
  /// all t+1 candidates are batch-checked with ONE RLC pairing-product fold
  /// (Fiat-Shamir coefficients); per-partial verification runs only when the
  /// fold fails, to identify cheaters. Sequential-path semantics: the first
  /// t+1 valid partials in input order are combined.
  DlinSignature combine(const DlinKeyMaterial& km,
                        std::span<const uint8_t> msg,
                        std::span<const DlinPartialSignature> parts) const;

  bool verify(const DlinPublicKey& pk, std::span<const uint8_t> msg,
              const DlinSignature& sig) const;

 private:
  SystemParams params_;
  PreparedGenerators<4> generators_{
      {params_.g_z, params_.g_r, params_.h_z, params_.h_u}};
};

/// Cached verifier for the DLIN variant: prepares the six key elements once
/// (g^_z, g^_r, h^_z, h^_u come from the scheme's shared tables). Its fold
/// terms describe BOTH verification equations, so a fold draws independent
/// 128-bit RLC coefficients per (signature, equation) pair.
class DlinVerifier {
 public:
  DlinVerifier(const DlinScheme& scheme, const DlinPublicKey& pk);

  bool verify(std::span<const uint8_t> msg, const DlinSignature& sig) const;
  /// Equation 0: e(z, g^_z) e(r, g^_r) prod_k e(H_k, g^_k) == 1;
  /// equation 1: e(z, h^_z) e(u, h^_u) prod_k e(H_k, h^_k) == 1.
  bool fold_terms(std::span<const uint8_t> msg, const DlinSignature& sig,
                  std::vector<FoldTerm>& out) const;

  /// Resident per-key footprint (object + the six key line tables; shared
  /// generator tables excluded) for the KeyCacheManager byte budget.
  size_t cache_bytes() const {
    size_t b = sizeof(*this);
    for (size_t k = 0; k < 3; ++k) b += g_[k].line_bytes() + h_[k].line_bytes();
    return b;
  }

 private:
  DlinScheme scheme_;
  std::shared_ptr<const DlinScheme::Generators> gen_;  // g^_z g^_r h^_z h^_u
  std::array<G2Prepared, 3> g_, h_;
};

/// Per-player cached share verifier for the DLIN variant: prepared lines of
/// the six per-player key elements (U^_{k,i}, Z^_{k,i}); the four
/// generators are the scheme's shared tables (non-owning; the DlinCombiner
/// keeps them alive).
class DlinShareVerifier {
 public:
  DlinShareVerifier(const DlinScheme::Generators& gen,
                    const DlinVerificationKey& vk);

  bool verify(const std::array<G1Affine, 3>& h,
              const DlinPartialSignature& sig) const;

  /// Both Share-Verify equations as fold equations 0 and 1 (see RlcFold).
  void fold_terms(const std::array<G1Affine, 3>& h,
                  const DlinPartialSignature& sig,
                  std::vector<FoldTerm>& out) const;

  /// Heap bytes of the player's six key-element line tables.
  size_t line_bytes() const {
    size_t b = 0;
    for (size_t k = 0; k < 3; ++k) b += u_[k].line_bytes() + z_[k].line_bytes();
    return b;
  }

 private:
  const DlinScheme::Generators* gen_;  // g^_z, g^_r, h^_z, h^_u
  std::array<G2Prepared, 3> u_, z_;
};

/// Serving-side Combine engine for a DLIN committee. Folds BOTH Share-Verify
/// equations of all t+1 candidates into one product of 4 + 6(t+1) pairings
/// (independent RLC coefficient sets per equation), instead of t+1 pairs of
/// 8-pairing products. Falls back to cached per-partial verification to
/// identify cheaters only when the fold fails.
class DlinCombiner {
 public:
  DlinCombiner(const DlinScheme& scheme, const DlinKeyMaterial& km);

  DlinCombiner(const DlinCombiner&) = delete;
  DlinCombiner& operator=(const DlinCombiner&) = delete;

  size_t n() const { return n_; }
  size_t t() const { return t_; }

  bool share_verify(const std::array<G1Affine, 3>& h,
                    const DlinPartialSignature& sig) const;
  bool batch_share_verify(const std::array<G1Affine, 3>& h,
                          std::span<const DlinPartialSignature> parts,
                          Rng& rng) const;

  DlinSignature combine(std::span<const uint8_t> msg,
                        std::span<const DlinPartialSignature> parts, Rng& rng,
                        std::vector<uint32_t>* cheaters = nullptr) const;
  /// Fiat-Shamir variant (deterministic; matches DlinScheme::combine).
  DlinSignature combine(std::span<const uint8_t> msg,
                        std::span<const DlinPartialSignature> parts,
                        std::vector<uint32_t>* cheaters = nullptr) const;

  /// Resident footprint (every player's six cached key-element lines; the
  /// shared generator tables are paid once per scheme) for the
  /// KeyCacheManager byte budget.
  size_t cache_bytes() const {
    size_t b = sizeof(*this) + players_.capacity() * sizeof(DlinShareVerifier);
    for (const auto& p : players_) b += p.line_bytes();
    return b;
  }

 private:
  DlinScheme scheme_;
  size_t n_ = 0, t_ = 0;
  std::shared_ptr<const DlinScheme::Generators> gen_;  // shared
  std::vector<DlinShareVerifier> players_;
};

}  // namespace bnr::threshold
