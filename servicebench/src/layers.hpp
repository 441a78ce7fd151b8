// Per-layer measurements of the traced run: in-process replays of the
// daemon-side crypto of an operation, step by step through the public layer
// functions and in the order the daemon runs them, each step a span named
// after the layer whose work it is; and timings of each layer's public
// functions on the workload's inputs.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "threshold/scheme_api.hpp"

namespace sb {

/// A public key's four prepared G2 inputs (g^_z, g^_r, g^_1, g^_2): the
/// cached state of a prepared verifier, built once per tenant.
struct PreparedKey {
  explicit PreparedKey(const RoScheme& scheme,
                       const bnr::threshold::PublicKey& pk);
  std::array<bnr::G2Prepared, 4> prep;
};

/// VERIFY of a fold of signatures: parse, hash, the fold's four MSMs with
/// 128-bit coefficients, the prepared four-term multi-pairing. Returns the
/// fold's verdict.
bool replay_verify(SpanRecorder& rec, int64_t parent, const RoScheme& scheme,
                   const bnr::threshold::Scheme& plugin, const PreparedKey& key,
                   std::span<const Bytes> msgs, std::span<const Bytes> sigs);

/// COMBINE: parse the partials, hash, build the RLC fold over the first
/// t+1, the prepared multi-pairing across `pool` (as the daemon's combine
/// service evaluates it), per-partial fallback when the fold fails,
/// interpolation. Returns the serialized signature.
Bytes replay_combine(SpanRecorder& rec, int64_t parent, const RoScheme& scheme,
                     const bnr::threshold::Scheme& plugin,
                     const bnr::threshold::RoCombiner& combiner,
                     bnr::service::ThreadPool& pool,
                     std::span<const uint8_t> msg, std::span<const Bytes> parts);

/// REGISTER plus the first VERIFY and COMBINE misses: canonical public key,
/// verifier and combiner preparation.
void replay_prepare(SpanRecorder& rec, int64_t parent,
                    const bnr::threshold::Scheme& plugin,
                    const KeyMaterial& km);

bnr::threshold::Committee committee_of(const KeyMaterial& km);

/// The field, curve, pairing and threshold timings (see the README's
/// layer table), on the workload's committee and mean fold size.
void add_layer_timings(RunResult& r, const RoScheme& scheme,
                       const bnr::threshold::Scheme& plugin,
                       const KeyMaterial& km, double fold_size);

}  // namespace sb
