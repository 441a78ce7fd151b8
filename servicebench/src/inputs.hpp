// Seeded inputs of the three workloads. Every key, message, signature,
// forgery, corrupted partial and hostile key comes from here; the same seed
// gives the same inputs. The hostile keys alone do not depend on the seed:
// they are refused-by-design inputs that today's daemon accepts every time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "threshold/ro_scheme.hpp"

namespace sb {

using bnr::Bytes;
using bnr::threshold::KeyMaterial;
using bnr::threshold::RoScheme;

/// Rng for one named purpose of one seed.
bnr::Rng seeded_rng(uint64_t seed, const std::string& purpose);

// --- verify-stream ----------------------------------------------------------

struct VerifyShape {
  static constexpr size_t kTenants = 16;
  static constexpr size_t kN = 3, kT = 1;          // each tenant's committee
  static constexpr size_t kSigsPerTenant = 8;      // pre-signed pool
  static constexpr size_t kForgeryEvery = 500;     // one forgery per block
  static constexpr size_t kStreamBlocks = 8;       // stream = 8 blocks, cycled
  static constexpr double kZipfS = 1.0;
};

/// One VERIFY request: tenant `tenant` asked about message `msg` with the
/// signature on message `sig`; a forgery when the two differ.
struct VerifyItem {
  uint32_t tenant = 0, msg = 0, sig = 0;
  bool expect = true;
};

struct VerifyInputs {
  std::vector<KeyMaterial> tenants;
  std::vector<std::string> keys;               // tenant key-ids
  std::vector<std::vector<Bytes>> msgs, sigs;  // [tenant][j], sigs[k][j] signs msgs[k][j]
  std::vector<VerifyItem> stream;
};

VerifyInputs make_verify_inputs(const RoScheme& scheme, uint64_t seed);

// --- sign-combine -------------------------------------------------------------

struct CombineShape {
  static constexpr size_t kN = 16, kT = 7;
  static constexpr size_t kCheaterEvery = 8;  // round % 8 == 7 carries a cheater
};

/// One signing round: the players who sign (t+1, or t+2 in a cheater round)
/// and, in a cheater round, the position of the corrupted partial among the
/// first t+1 (so the combiner's fold must fail and attribute it).
struct CombineRound {
  uint64_t index = 0;
  Bytes msg;
  std::vector<uint32_t> signers;
  int corrupt_pos = -1;
};

CombineRound make_combine_round(uint64_t seed, uint64_t index);
KeyMaterial make_committee(const RoScheme& scheme, uint64_t seed,
                           const std::string& purpose, size_t n, size_t t);

/// The round's serialized partials, the corrupted one included.
std::vector<Bytes> sign_round(const RoScheme& scheme, const KeyMaterial& km,
                              const CombineRound& round);

// --- committee-onboard --------------------------------------------------------

struct OnboardShape {
  static constexpr size_t kN = 8, kT = 3;
  static constexpr size_t kRound = 10;  // op % 10 == 9 is a hostile registration
};

enum class Hostile { kNone, kOutsideSubgroup, kIdentity };

struct OnboardOp {
  uint64_t index = 0;
  Hostile hostile = Hostile::kNone;
  Bytes msg;
  std::vector<uint32_t> signers;  // t+1 of the fresh committee
  uint64_t revisit = 0;           // earlier op whose committee is re-verified
};

OnboardOp make_onboard_op(uint64_t seed, uint64_t index);

/// A serialized RO public key with one component outside the r-order
/// subgroup of G2 (kOutsideSubgroup) or equal to the identity (kIdentity).
/// Built from a fixed label, so the same bytes on every seed.
Bytes hostile_public_key(const RoScheme& scheme, Hostile kind);

}  // namespace sb
