// Common public parameters for the threshold schemes (§3.1): asymmetric
// bilinear groups with generators g^_z, g^_r in G^ derived from a random
// oracle — no party knows log_{g^z}(g^r) and no setup round is needed —
// plus the message hash H : {0,1}* -> G x G.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <string>

#include "curve/hash_to_curve.hpp"
#include "pairing/pairing.hpp"

namespace bnr::threshold {

struct SystemParams {
  std::string label;  // domain separation for all oracles
  G2Affine g_z, g_r;
  // DLIN variant (App. F) additionally uses (h^_z, h^_u).
  G2Affine h_z, h_u;
  // App. G aggregation uses two extra G1 generators (g, h).
  G1Affine g1_g, g1_h;

  /// Derives all generators from hash oracles keyed by `label`.
  static SystemParams derive(std::string_view label);

  std::string hash_dst(std::string_view role) const {
    return label + "/" + std::string(role);
  }
};

/// Draws a uniform nonzero 128-bit scalar: the batch-verification RLC
/// coefficient size. Folding N signatures with such coefficients lets an
/// invalid batch pass with probability at most ~N/2^128, while keeping the
/// MSM windows half as deep as full-width scalars would.
Fr random_rlc_coefficient(Rng& rng);

/// Miller-loop line tables of N fixed G2 system generators (g^_z, g^_r, ...),
/// prepared once on first use and shared by every copy of the scheme object
/// holding this, and by every verifier and combiner that scheme makes. The
/// tables are handed out by shared_ptr, so a cached verifier keeps them alive
/// however long it outlives its scheme. Thread-safe.
template <size_t N>
class PreparedGenerators {
 public:
  using Tables = std::array<G2Prepared, N>;

  explicit PreparedGenerators(const std::array<G2Affine, N>& points)
      : state_(std::make_shared<State>(points)) {}

  std::shared_ptr<const Tables> get() const {
    std::call_once(state_->once, [this] {
      auto tables = std::make_shared<Tables>();
      for (size_t i = 0; i < N; ++i)
        (*tables)[i] = G2Prepared(state_->points[i]);
      state_->tables = std::move(tables);
    });
    return state_->tables;
  }

 private:
  struct State {
    explicit State(const std::array<G2Affine, N>& p) : points(p) {}
    std::array<G2Affine, N> points;
    std::once_flag once;
    std::shared_ptr<const Tables> tables;
  };
  std::shared_ptr<State> state_;
};

}  // namespace bnr::threshold
