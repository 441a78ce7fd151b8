// The paper's main construction (§3): a fully distributed, non-interactive,
// robust, adaptively secure (t, n)-threshold signature in the random-oracle
// model, with O(1)-size key shares and 2-group-element signatures.
//
//   Dist-Keygen   Pedersen DKG over pairs {(A_k(i), B_k(i))}_{k=1,2}
//   Share-Sign    z_i = prod_k H_k^{-A_k(i)}, r_i = prod_k H_k^{-B_k(i)}
//   Share-Verify  e(z_i,g^_z) e(r_i,g^_r) prod_k e(H_k, V^_{k,i}) == 1
//   Combine       Lagrange interpolation in the exponent
//   Verify        e(z,g^_z) e(r,g^_r) e(H_1,g^_1) e(H_2,g^_2) == 1
#pragma once

#include <array>
#include <functional>
#include <map>

#include "common/rng.hpp"
#include "common/secret.hpp"
#include "common/sha256.hpp"
#include "dkg/pedersen_dkg.hpp"
#include "dkg/proactive.hpp"
#include "pairing/pairing.hpp"
#include "threshold/params.hpp"
#include "threshold/rlc_fold.hpp"

namespace bnr::threshold {

struct PublicKey {
  std::array<G2Affine, 2> g;  // (g^_1, g^_2)

  Bytes serialize() const;
  static PublicKey deserialize(std::span<const uint8_t> data);
  bool operator==(const PublicKey& o) const { return g == o.g; }
};

struct KeyShare {
  uint32_t index = 0;
  Secret<std::array<Fr, 2>> a;  // A_1(i), A_2(i)
  Secret<std::array<Fr, 2>> b;  // B_1(i), B_2(i)

  Bytes serialize() const;  // O(1): 4 scalars, regardless of n
  static KeyShare deserialize(std::span<const uint8_t> data);
};

struct VerificationKey {
  std::array<G2Affine, 2> v;  // (V^_{1,i}, V^_{2,i})

  Bytes serialize() const;
  static VerificationKey deserialize(std::span<const uint8_t> data);
};

struct PartialSignature {
  uint32_t index = 0;
  G1Affine z, r;

  Bytes serialize() const;
  static PartialSignature deserialize(std::span<const uint8_t> data);
};

struct Signature {
  G1Affine z, r;

  Bytes serialize() const;
  static Signature deserialize(std::span<const uint8_t> data);
  bool operator==(const Signature& o) const { return z == o.z && r == o.r; }
};

/// Everything Dist-Keygen produces. The per-player shares live together here
/// because the whole n-server system is simulated in-process; a real
/// deployment would hand each KeyShare to its server only.
struct KeyMaterial {
  size_t n = 0, t = 0;
  PublicKey pk;
  std::vector<KeyShare> shares;          // index i-1 -> player i
  std::vector<VerificationKey> vks;
  std::vector<uint32_t> qualified;
  dkg::RunResult transcript;
};

class RoScheme {
 public:
  explicit RoScheme(SystemParams params) : params_(std::move(params)) {}

  const SystemParams& params() const { return params_; }

  /// Prepared (g^_z, g^_r), shared by every verifier and combiner made from
  /// this scheme object or its copies.
  using Generators = PreparedGenerators<2>::Tables;
  std::shared_ptr<const Generators> generators() const {
    return generators_.get();
  }

  /// The DKG instantiation: m = 4 secrets (A1,B1,A2,B2), one commitment row
  /// per k with generators (g^_z, g^_r).
  dkg::Config dkg_config(size_t n, size_t t) const;

  /// Runs Dist-Keygen over a simulated network (§3.1 step 1-4).
  KeyMaterial dist_keygen(size_t n, size_t t, Rng& rng,
                          const std::map<uint32_t, dkg::Behavior>& behaviors = {},
                          SyncNetwork* net = nullptr) const;

  /// H(M) = (H_1, H_2) in G^2.
  std::array<G1Affine, 2> hash_message(std::span<const uint8_t> msg) const;

  PartialSignature share_sign(const KeyShare& share,
                              std::span<const uint8_t> msg) const;
  bool share_verify(const VerificationKey& vk, std::span<const uint8_t> msg,
                    const PartialSignature& sig) const;
  /// Hash-hoisted variant: callers checking many partial signatures of the
  /// same message (Combine) hash once and reuse `h`.
  bool share_verify(const VerificationKey& vk,
                    const std::array<G1Affine, 2>& h,
                    const PartialSignature& sig) const;

  /// Combines t+1 valid partial signatures. All candidate partials are
  /// batch-verified with ONE RLC pairing-product fold (coefficients derived
  /// Fiat-Shamir style from the transcript); only when the fold fails does it
  /// fall back to per-partial Share-Verify to identify cheaters and skip them
  /// (robustness). Throws std::runtime_error if fewer than t+1 valid shares
  /// remain. Semantically identical to the sequential path: the first t+1
  /// valid partials in input order are combined.
  Signature combine(const KeyMaterial& km, std::span<const uint8_t> msg,
                    std::span<const PartialSignature> parts) const;

  /// Combine without per-share verification (for benchmarking the happy
  /// path separately from robustness).
  Signature combine_unchecked(size_t t, std::span<const PartialSignature> parts) const;

  bool verify(const PublicKey& pk, std::span<const uint8_t> msg,
              const Signature& sig) const;

  /// Proactive refresh (§3.3): new shares/VKs, same public key.
  void refresh(KeyMaterial& km, Rng& rng,
               const std::map<uint32_t, dkg::Behavior>& behaviors = {},
               SyncNetwork* net = nullptr) const;

  /// Share recovery (§3.3 / Herzberg et al.): rebuilds player `lost`'s share.
  KeyShare recover(const KeyMaterial& km, Rng& rng, uint32_t lost,
                   std::span<const uint32_t> helpers) const;

  // Conversions between DKG vectors ([A1,B1,A2,B2]) and scheme types.
  static KeyShare to_key_share(uint32_t index, std::span<const Fr> m_vector);
  static std::vector<Fr> to_m_vector(const KeyShare& share);

 private:
  SystemParams params_;
  PreparedGenerators<2> generators_{{params_.g_z, params_.g_r}};
};

/// Cached verifier for one public key: the prepared Miller-loop lines of
/// the key (g^_1, g^_2) plus the scheme's shared (g^_z, g^_r) tables, so
/// each Verify pays only line evaluations plus the final exponentiation.
/// This is the hot-path object a serving deployment keeps per tenant key.
class RoVerifier {
 public:
  RoVerifier(const RoScheme& scheme, const PublicKey& pk);

  bool verify(std::span<const uint8_t> msg, const Signature& sig) const;

  /// The verification equation as one fold equation (see RlcFold):
  ///   e(z, g^_z) e(r, g^_r) e(H_1, g^_1) e(H_2, g^_2) == 1.
  bool fold_terms(std::span<const uint8_t> msg, const Signature& sig,
                  std::vector<FoldTerm>& out) const;

  /// Resident footprint (object + the key's two line tables; the shared
  /// generator tables are paid once per scheme): what one tenant key costs
  /// inside a KeyCacheManager byte budget.
  size_t cache_bytes() const {
    return sizeof(*this) + key_[0].line_bytes() + key_[1].line_bytes();
  }

 private:
  RoScheme scheme_;
  std::shared_ptr<const RoScheme::Generators> gen_;  // g^_z, g^_r (shared)
  std::array<G2Prepared, 2> key_;                     // g^_1, g^_2
};

/// Per-player cached share verifier: the prepared Miller-loop lines of one
/// player's verification key (V^_{1,i}, V^_{2,i}). The g^_z/g^_r lines are
/// identical for every player, so they are the scheme's shared tables
/// (non-owning; the enclosing RoCombiner keeps them alive).
class RoShareVerifier {
 public:
  RoShareVerifier(const RoScheme::Generators& gen, const VerificationKey& vk);

  /// Share-Verify with every G2 input prepared: only line evaluations plus
  /// the final exponentiation remain.
  bool verify(const std::array<G1Affine, 2>& h,
              const PartialSignature& sig) const;

  /// The Share-Verify equation as one fold equation (see RlcFold).
  void fold_terms(const std::array<G1Affine, 2>& h,
                  const PartialSignature& sig,
                  std::vector<FoldTerm>& out) const;

  /// Heap bytes of the player's two VK line tables.
  size_t line_bytes() const {
    return vk_[0].line_bytes() + vk_[1].line_bytes();
  }

 private:
  const RoScheme::Generators* gen_;  // g^_z, g^_r
  std::array<G2Prepared, 2> vk_;
};

/// Serving-side Combine engine for one committee: caches the prepared lines
/// of EVERY player's verification key (g^_z, g^_r come from the scheme's
/// shared tables), and checks all t+1
/// candidate partials with ONE RLC pairing-product fold
///   e(sum e_i z_i, g^_z) e(sum e_i r_i, g^_r)
///     prod_i [ e(e_i H_1, V^_{1,i}) e(e_i H_2, V^_{2,i}) ] == 1
/// — 2 + 2(t+1) pairings sharing one squaring chain and one final
/// exponentiation, instead of t+1 independent 4-pairing products. Falls back
/// to cached per-partial verification only when the fold fails, to identify
/// cheaters.
class RoCombiner {
 public:
  RoCombiner(const RoScheme& scheme, const KeyMaterial& km);

  RoCombiner(const RoCombiner&) = delete;
  RoCombiner& operator=(const RoCombiner&) = delete;

  size_t n() const { return n_; }
  size_t t() const { return t_; }
  const RoScheme& scheme() const { return scheme_; }

  /// Cached per-partial Share-Verify (the fallback / cheater-identification
  /// path). `sig.index` must be in [1, n].
  bool share_verify(const std::array<G1Affine, 2>& h,
                    const PartialSignature& sig) const;

  /// One RLC fold over `parts` (all indices must be in [1, n]). A batch
  /// containing an invalid partial passes with probability <= ~N/2^128.
  bool batch_share_verify(const std::array<G1Affine, 2>& h,
                          std::span<const PartialSignature> parts,
                          Rng& rng) const;

  /// The folded pairing product, exposed so the service layer can evaluate
  /// it across a thread pool: valid (up to RLC soundness) iff
  /// prod_j e(points[j], *preps[j]) == 1.
  struct Fold {
    std::vector<G1Affine> points;
    std::vector<const G2Prepared*> preps;
  };
  Fold build_fold(const std::array<G1Affine, 2>& h,
                  std::span<const PartialSignature> parts, Rng& rng) const;

  /// Batched Combine: verifies the first t+1 candidates with one fold; on
  /// failure re-checks partials individually (exactly the sequential
  /// semantics), appending the indices of bad partials inspected along the
  /// way to `cheaters` when given. Throws if fewer than t+1 valid.
  Signature combine(std::span<const uint8_t> msg,
                    std::span<const PartialSignature> parts, Rng& rng,
                    std::vector<uint32_t>* cheaters = nullptr) const;

  /// Core of combine() with the fold check pluggable: `evaluate(fold)`
  /// decides the batched product, letting the service layer substitute
  /// pool-parallel evaluation without duplicating the selection/fallback
  /// flow.
  Signature combine_with(std::span<const uint8_t> msg,
                         std::span<const PartialSignature> parts, Rng& rng,
                         const std::function<bool(const Fold&)>& evaluate,
                         std::vector<uint32_t>* cheaters = nullptr) const;

  /// Same, with Fiat-Shamir RLC coefficients derived from the transcript
  /// (deterministic; matches RoScheme::combine).
  Signature combine(std::span<const uint8_t> msg,
                    std::span<const PartialSignature> parts,
                    std::vector<uint32_t>* cheaters = nullptr) const;

  /// Resident footprint (object + every player's cached VK lines; the
  /// shared generator tables are paid once per scheme): what one committee
  /// costs in a KeyCacheManager budget.
  size_t cache_bytes() const {
    size_t b = sizeof(*this) + players_.capacity() * sizeof(RoShareVerifier);
    for (const auto& p : players_) b += p.line_bytes();
    return b;
  }

 private:
  RoScheme scheme_;
  size_t n_ = 0, t_ = 0;
  std::shared_ptr<const RoScheme::Generators> gen_;  // g^_z, g^_r (shared)
  std::vector<RoShareVerifier> players_;  // index i-1 -> player i
};

/// Stateless batched partial-signature selection, shared by
/// RoScheme::combine and AggregateScheme::combine (their Share-Verify
/// equations are identical in shape; only the message hash differs).
/// Candidates with out-of-range indices are dropped; the first t+1 candidates
/// are checked with one RLC fold (coefficients from `rng`), and only on fold
/// failure does it fall back to the sequential per-partial scan over ALL
/// candidates, appending the indices of bad partials inspected before the
/// threshold was reached to `cheaters`. Each candidate's VK lines are
/// prepared when first needed; `gen` is the scheme's shared (g^_z, g^_r).
/// Returns the first t+1 valid partials in input order; throws
/// std::runtime_error if fewer remain.
std::vector<PartialSignature> select_valid_partials(
    const RoScheme::Generators& gen, std::span<const VerificationKey> vks,
    size_t n, size_t t, const std::array<G1Affine, 2>& h,
    std::span<const PartialSignature> parts, Rng& rng,
    std::vector<uint32_t>* cheaters = nullptr);

/// Deterministic RLC coin derivation for combine paths without a caller
/// RNG: seed = SHA-256(domain || msg || serialized partials). Sound in the
/// ROM — the coefficients depend on every bit of the batch being checked,
/// so a cheater cannot craft partials whose fold cancels without predicting
/// the oracle (standard Fiat-Shamir argument). Shared by the Ro, Aggregate,
/// and DLIN combine paths; `Part` only needs serialize().
template <class Part>
Rng transcript_rng(std::string_view domain, std::span<const uint8_t> msg,
                   std::span<const Part> parts) {
  Sha256 hs;
  hs.update(domain);
  hs.update(msg);
  for (const auto& p : parts) hs.update(p.serialize());
  return Rng(hs.finalize());
}

}  // namespace bnr::threshold
