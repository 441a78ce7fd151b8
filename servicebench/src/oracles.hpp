// Correctness oracles: every answer the daemon gives is checked against a
// computation made apart from the serving path. Each check returns an empty
// string when the answer is right and the reason when it is wrong; the
// self-test feeds each one deliberately wrong answers.
//
// The oracles use only the uncached scheme functions: RoScheme::verify
// prepares its pairings from scratch and shares nothing with the daemon's
// prepared verifiers, folds or caches, and RoScheme::combine_unchecked
// interpolates partials in-process.
#pragma once

#include <string>
#include <vector>

#include "inputs.hpp"
#include "rpc/wire.hpp"

namespace sb {

/// verify-stream: the expected verdict of an item, recomputed with the
/// uncached verify (fixes the verdict when the inputs are built).
std::string check_expected_verdict(const RoScheme& scheme,
                                   const VerifyInputs& in,
                                   const VerifyItem& item);

/// verify-stream: the daemon's verdict against the expected one.
std::string check_verdict(const VerifyItem& item, bool got);

/// The key share at 0 interpolated from the shares of `players` (t+1 of
/// them): signing with it gives the committee's unique signature.
bnr::threshold::KeyShare interpolated_key(const KeyMaterial& km,
                                          std::span<const uint32_t> players);

/// sign-combine: the daemon's combined signature must pass the uncached
/// verify, equal the signature made in-process with the key interpolated
/// from a set of t+1 players other than the round's signers, and the
/// reported cheaters must be exactly the corrupted partial's player.
std::string check_combine(const RoScheme& scheme, const KeyMaterial& km,
                          const CombineRound& round,
                          const bnr::rpc::CombineResult& got);

/// committee-onboard: the signature the daemon combined for a fresh
/// committee must verify under the DKG's public key.
std::string check_onboard_signature(const RoScheme& scheme,
                                    const KeyMaterial& km,
                                    const OnboardOp& op, const Bytes& sig);

/// committee-onboard: a hostile key must really be hostile before it is
/// sent (one component outside the r-order subgroup, or the identity).
std::string check_hostile_key(const Bytes& pk_bytes);

/// committee-onboard: the daemon must refuse a hostile registration.
std::string check_hostile_refused(bool refused);

}  // namespace sb
