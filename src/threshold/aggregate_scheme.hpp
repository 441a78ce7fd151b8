// Appendix G: the aggregation-enabled extension of the main scheme.
//
// Each public key carries a built-in validity proof (Z, R) — a one-time
// LHSPS on the fixed vector (g, h) under the key's own commitment — produced
// distributively during Dist-Keygen (each player broadcasts (Z_i0, R_i0),
// publicly checked by a pairing equation; cheaters are disqualified).
// Signatures of distinct (key, message) pairs multiply into one 2-element
// aggregate; Aggregate-Verify additionally runs the per-key sanity check.
// Messages are hashed as H(PK || M) to bind signatures to their keys.
#pragma once

#include <map>

#include "dkg/pedersen_dkg.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr::threshold {

struct AggPublicKey {
  std::array<G2Affine, 2> g;  // (g^_1, g^_2)
  G1Affine big_z, big_r;      // LHSPS on (g, h): the key-validity proof

  Bytes serialize() const;
  static AggPublicKey deserialize(std::span<const uint8_t> data);
  bool operator==(const AggPublicKey& o) const {
    return g == o.g && big_z == o.big_z && big_r == o.big_r;
  }
};

struct AggKeyMaterial {
  size_t n = 0, t = 0;
  AggPublicKey pk;
  std::vector<KeyShare> shares;
  std::vector<VerificationKey> vks;
  std::vector<uint32_t> qualified;
  dkg::RunResult transcript;
};

struct AggregateSignature {
  G1Affine z, r;

  Bytes serialize() const;
};

/// One (public key, message) statement inside an aggregate.
struct AggStatement {
  AggPublicKey pk;
  Bytes message;
};

class AggregateScheme {
 public:
  explicit AggregateScheme(SystemParams params) : params_(std::move(params)) {}

  const SystemParams& params() const { return params_; }

  /// Prepared (g^_z, g^_r), shared by every verifier made from this scheme
  /// object or its copies.
  std::shared_ptr<const RoScheme::Generators> generators() const {
    return generators_.get();
  }

  dkg::Config dkg_config(size_t n, size_t t) const;

  AggKeyMaterial dist_keygen(
      size_t n, size_t t, Rng& rng,
      const std::map<uint32_t, dkg::Behavior>& behaviors = {},
      SyncNetwork* net = nullptr) const;

  /// The sanity check run on every key inside Aggregate-Verify:
  /// e(Z, g^_z) e(R, g^_r) e(g, g^_1) e(h, g^_2) == 1.
  bool key_sanity_check(const AggPublicKey& pk) const;

  /// H(PK || M).
  std::array<G1Affine, 2> hash_message(const AggPublicKey& pk,
                                       std::span<const uint8_t> msg) const;

  PartialSignature share_sign(const AggPublicKey& pk, const KeyShare& share,
                              std::span<const uint8_t> msg) const;
  bool share_verify(const AggPublicKey& pk, const VerificationKey& vk,
                    std::span<const uint8_t> msg,
                    const PartialSignature& sig) const;
  /// Hash-hoisted variant (Combine hashes H(PK || M) once for all partials).
  bool share_verify(const VerificationKey& vk,
                    const std::array<G1Affine, 2>& h,
                    const PartialSignature& sig) const;
  Signature combine(const AggKeyMaterial& km, std::span<const uint8_t> msg,
                    std::span<const PartialSignature> parts) const;
  bool verify(const AggPublicKey& pk, std::span<const uint8_t> msg,
              const Signature& sig) const;

  /// Componentwise product of individually valid signatures; returns nullopt
  /// if any input fails Verify (as the paper's Aggregate specifies).
  std::optional<AggregateSignature> aggregate(
      std::span<const AggStatement> statements,
      std::span<const Signature> signatures) const;

  bool aggregate_verify(std::span<const AggStatement> statements,
                        const AggregateSignature& sig) const;

 private:
  SystemParams params_;
  PreparedGenerators<2> generators_{{params_.g_z, params_.g_r}};
};

/// Cached verifier for one aggregation-enabled key: prepares the key's two
/// G2 inputs once (g^_z, g^_r come from the scheme's shared tables) AND runs
/// the key-validity sanity check (itself a product of four pairings) a
/// single time at construction instead of per verify.
class AggVerifier {
 public:
  AggVerifier(const AggregateScheme& scheme, const AggPublicKey& pk);

  /// Result of the one-time key sanity check; verify() fails fast when the
  /// key itself is invalid.
  bool key_valid() const { return key_valid_; }

  bool verify(std::span<const uint8_t> msg, const Signature& sig) const;
  /// The RO-shaped equation over H(PK || M) as one fold equation; false
  /// (nothing appended) when the key failed its sanity check.
  bool fold_terms(std::span<const uint8_t> msg, const Signature& sig,
                  std::vector<FoldTerm>& out) const;

  /// Resident per-key footprint (shared generator tables excluded) for the
  /// KeyCacheManager byte budget.
  size_t cache_bytes() const {
    return sizeof(*this) + key_[0].line_bytes() + key_[1].line_bytes();
  }

 private:
  AggregateScheme scheme_;
  AggPublicKey pk_;
  bool key_valid_ = false;
  std::shared_ptr<const RoScheme::Generators> gen_;  // g^_z, g^_r (shared)
  std::array<G2Prepared, 2> key_;                     // g^_1, g^_2
};

}  // namespace bnr::threshold
