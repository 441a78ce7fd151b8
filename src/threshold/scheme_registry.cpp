// The four built-in scheme plugins behind the type-erased serving surface.
// Each plugin is a thin adapter from the concrete scheme types (which keep
// their full typed APIs) to the `Scheme` contract: serde at the boundary,
// prepared verifier/combiner construction, and deterministic sample
// material for the generic conformance suite. Adding a scheme means writing
// one more block like these (~100 lines) and registering its factory —
// nothing in the cache/service/wire layers changes.
#include "threshold/scheme_registry.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "baselines/boldyreva.hpp"
#include "common/serde.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr::threshold {

std::string_view scheme_id_name(SchemeId id) {
  switch (id) {
    case SchemeId::kRo: return "ro";
    case SchemeId::kDlin: return "dlin";
    case SchemeId::kAgg: return "agg";
    case SchemeId::kBls: return "bls";
  }
  return "unknown";
}

namespace {

template <class T>
const T& unerase(const std::shared_ptr<const void>& obj) {
  return *static_cast<const T*>(obj.get());
}

/// Tag-checked downcast for handles crossing the PUBLIC serialize_* surface:
/// a wrong-scheme or null handle throws instead of being reinterpreted (the
/// "rejected, never type-confused" guarantee; verify paths return false, the
/// serialize paths have no false to return).
template <class T, class Handle>
const T& unerase_checked(SchemeId want, const Handle& h, const char* what) {
  if (h.scheme != want || !h.obj)
    throw std::invalid_argument(std::string(what) +
                                ": wrong-scheme or null handle");
  return *static_cast<const T*>(h.obj.get());
}

/// Converts erased partial handles back to the scheme's native type,
/// dropping wrong-scheme handles (they cannot carry a valid partial; the
/// combiner's t+1 threshold then decides whether enough remain).
template <class Part>
std::vector<Part> unerase_partials(SchemeId id,
                                   std::span<const PartialHandle> parts) {
  std::vector<Part> typed;
  typed.reserve(parts.size());
  for (const auto& p : parts)
    if (p.scheme == id && p.obj) typed.push_back(unerase<Part>(p.obj));
  return typed;
}

/// The one validation point for G2 key material crossing the plugin boundary:
/// every public and verification key a plugin parses passes through here.
/// g2_deserialize checks only the curve equation and decodes tag 0 to the
/// identity, so without this a REGISTER could install a key component of
/// small order, or the identity, for which the RLC batch-soundness argument
/// (random coefficients over a prime-order group) no longer holds. The check
/// stays out of g2_deserialize on purpose: DKG decodes every player's G2
/// commitment broadcast and would pay a multiplication by r for each one.
void require_key_points(std::span<const G2Affine> points, const char* what) {
  for (const G2Affine& p : points) {
    if (p.infinity)
      throw std::invalid_argument(std::string(what) +
                                  ": identity key component");
    if (!g2_in_subgroup_psi(p))
      throw std::invalid_argument(std::string(what) +
                                  ": key component outside the G2 subgroup");
  }
}

PublicKey ro_public_key(std::span<const uint8_t> data) {
  PublicKey pk = PublicKey::deserialize(data);
  require_key_points(pk.g, "PublicKey");
  return pk;
}

VerificationKey ro_verification_key(std::span<const uint8_t> data) {
  VerificationKey vk = VerificationKey::deserialize(data);
  require_key_points(vk.v, "VerificationKey");
  return vk;
}

void check_committee_shape(const Committee& c) {
  if (c.n == 0 || c.t >= c.n)
    throw std::runtime_error("committee: threshold t must be < n");
  if (c.vks.size() != c.n)
    throw std::runtime_error("committee: vk count != n");
}

// ---------------------------------------------------------------------------
// RO (§3 main construction)

class RoPreparedCombiner final : public PreparedCombiner {
 public:
  explicit RoPreparedCombiner(std::shared_ptr<const RoCombiner> c)
      : c_(std::move(c)) {}

  SchemeId scheme() const override { return SchemeId::kRo; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng& rng,
                const FoldEvaluator& evaluate,
                std::vector<uint32_t>* cheaters) const override {
    auto typed = unerase_partials<PartialSignature>(SchemeId::kRo, parts);
    Signature sig =
        evaluate ? c_->combine_with(
                       msg, typed, rng,
                       [&](const RoCombiner::Fold& f) {
                         return evaluate(f.points, f.preps);
                       },
                       cheaters)
                 : c_->combine(msg, typed, rng, cheaters);
    return sig.serialize();
  }

  size_t cache_bytes() const override {
    return sizeof(*this) + c_->cache_bytes();
  }

 private:
  std::shared_ptr<const RoCombiner> c_;
};

class RoPlugin final : public Scheme {
 public:
  explicit RoPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kRo; }
  std::string_view name() const override { return "ro"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    return ro_public_key(pk).serialize();
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    return erase_signature(SchemeId::kRo, Signature::deserialize(data));
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    return unerase_checked<Signature>(SchemeId::kRo, sig, "ro signature")
        .serialize();
  }
  PartialHandle parse_partial(std::span<const uint8_t> data) const override {
    return erase_partial(SchemeId::kRo, PartialSignature::deserialize(data));
  }
  Bytes serialize_partial(const PartialHandle& part) const override {
    return unerase_checked<PartialSignature>(SchemeId::kRo, part, "ro partial")
        .serialize();
  }

  std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const override {
    return std::make_unique<TypedPreparedVerifier<RoVerifier, Signature>>(
        SchemeId::kRo, RoVerifier(scheme_, ro_public_key(pk_bytes)));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    check_committee_shape(c);
    auto km = std::make_shared<KeyMaterial>();
    km->n = c.n;
    km->t = c.t;
    km->pk = ro_public_key(c.pk);
    km->vks.reserve(c.vks.size());
    for (const auto& vk : c.vks) km->vks.push_back(ro_verification_key(vk));
    return std::make_unique<RoPreparedCombiner>(
        std::make_shared<const RoCombiner>(scheme_, *km));
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    KeyMaterial km = scheme_.dist_keygen(n, t, rng);
    SchemeSample s;
    s.committee.pk = km.pk.serialize();
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) s.committee.vks.push_back(vk.serialize());
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.shares[i - 1], msg));
      s.partials.push_back(parts.back().serialize());
    }
    s.sig = scheme_.combine_unchecked(t, parts).serialize();
    return s;
  }

 private:
  RoScheme scheme_;
};

// ---------------------------------------------------------------------------
// DLIN (App. F)

class DlinPreparedCombiner final : public PreparedCombiner {
 public:
  explicit DlinPreparedCombiner(std::shared_ptr<const DlinCombiner> c)
      : c_(std::move(c)) {}

  SchemeId scheme() const override { return SchemeId::kDlin; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng& rng,
                const FoldEvaluator&,  // no parallel fold hook on DlinCombiner
                std::vector<uint32_t>* cheaters) const override {
    auto typed = unerase_partials<DlinPartialSignature>(SchemeId::kDlin, parts);
    return c_->combine(msg, typed, rng, cheaters).serialize();
  }

  size_t cache_bytes() const override {
    return sizeof(*this) + c_->cache_bytes();
  }

 private:
  std::shared_ptr<const DlinCombiner> c_;
};

DlinPublicKey dlin_public_key(std::span<const uint8_t> data) {
  DlinPublicKey pk = DlinPublicKey::deserialize(data);
  require_key_points(pk.g, "DlinPublicKey");
  require_key_points(pk.h, "DlinPublicKey");
  return pk;
}

DlinVerificationKey dlin_verification_key(std::span<const uint8_t> data) {
  DlinVerificationKey vk = DlinVerificationKey::deserialize(data);
  require_key_points(vk.u, "DlinVerificationKey");
  require_key_points(vk.z, "DlinVerificationKey");
  return vk;
}

class DlinPlugin final : public Scheme {
 public:
  explicit DlinPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kDlin; }
  std::string_view name() const override { return "dlin"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    return dlin_public_key(pk).serialize();
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    return erase_signature(SchemeId::kDlin, DlinSignature::deserialize(data));
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    return unerase_checked<DlinSignature>(SchemeId::kDlin, sig,
                                          "dlin signature")
        .serialize();
  }
  PartialHandle parse_partial(std::span<const uint8_t> data) const override {
    return erase_partial(SchemeId::kDlin,
                         DlinPartialSignature::deserialize(data));
  }
  Bytes serialize_partial(const PartialHandle& part) const override {
    return unerase_checked<DlinPartialSignature>(SchemeId::kDlin, part,
                                                 "dlin partial")
        .serialize();
  }

  std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const override {
    return std::make_unique<
        TypedPreparedVerifier<DlinVerifier, DlinSignature>>(
        SchemeId::kDlin,
        DlinVerifier(scheme_, dlin_public_key(pk_bytes)));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    check_committee_shape(c);
    DlinKeyMaterial km;
    km.n = c.n;
    km.t = c.t;
    km.pk = dlin_public_key(c.pk);
    km.vks.reserve(c.vks.size());
    for (const auto& vk : c.vks) km.vks.push_back(dlin_verification_key(vk));
    return std::make_unique<DlinPreparedCombiner>(
        std::make_shared<const DlinCombiner>(scheme_, km));
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    DlinKeyMaterial km = scheme_.dist_keygen(n, t, rng);
    SchemeSample s;
    s.committee.pk = km.pk.serialize();
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) s.committee.vks.push_back(vk.serialize());
    std::vector<DlinPartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.shares[i - 1], msg));
      s.partials.push_back(parts.back().serialize());
    }
    s.sig = scheme_.combine(km, msg, parts).serialize();
    return s;
  }

 private:
  DlinScheme scheme_;
};

// ---------------------------------------------------------------------------
// Aggregation-enabled extension (App. G). Share-Verify matches the main
// scheme's equation (only the hash binds the key), so the combiner reuses
// the shared select_valid_partials fold; there is no per-committee prepared
// state beyond the parsed material itself.

class AggPreparedCombiner final : public PreparedCombiner {
 public:
  AggPreparedCombiner(const AggregateScheme& scheme, AggPublicKey pk,
                      std::vector<VerificationKey> vks, size_t n, size_t t)
      : scheme_(scheme), pk_(std::move(pk)), vks_(std::move(vks)),
        n_(n), t_(t) {}

  SchemeId scheme() const override { return SchemeId::kAgg; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng& rng,
                const FoldEvaluator&,  // stateless path: serial fold only
                std::vector<uint32_t>* cheaters) const override {
    auto typed = unerase_partials<PartialSignature>(SchemeId::kAgg, parts);
    auto h = scheme_.hash_message(pk_, msg);  // H(PK || M), hashed once
    auto valid = select_valid_partials(scheme_.params(), vks_, n_, t_, h,
                                       typed, rng, cheaters);
    return RoScheme(scheme_.params()).combine_unchecked(t_, valid).serialize();
  }

  size_t cache_bytes() const override {
    return sizeof(*this) + vks_.capacity() * sizeof(VerificationKey);
  }

 private:
  AggregateScheme scheme_;
  AggPublicKey pk_;
  std::vector<VerificationKey> vks_;
  size_t n_, t_;
};

/// The G1 components need no subgroup check: BN254's G1 has cofactor 1.
AggPublicKey agg_public_key(std::span<const uint8_t> data) {
  AggPublicKey pk = AggPublicKey::deserialize(data);
  require_key_points(pk.g, "AggPublicKey");
  return pk;
}

class AggPlugin final : public Scheme {
 public:
  explicit AggPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kAgg; }
  std::string_view name() const override { return "agg"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    return agg_public_key(pk).serialize();
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    return erase_signature(SchemeId::kAgg, Signature::deserialize(data));
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    return unerase_checked<Signature>(SchemeId::kAgg, sig, "agg signature")
        .serialize();
  }
  PartialHandle parse_partial(std::span<const uint8_t> data) const override {
    return erase_partial(SchemeId::kAgg, PartialSignature::deserialize(data));
  }
  Bytes serialize_partial(const PartialHandle& part) const override {
    return unerase_checked<PartialSignature>(SchemeId::kAgg, part,
                                             "agg partial")
        .serialize();
  }

  std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const override {
    // AggVerifier runs the key-validity sanity check once at construction;
    // an invalid key caches a verifier that fails fast.
    return std::make_unique<TypedPreparedVerifier<AggVerifier, Signature>>(
        SchemeId::kAgg,
        AggVerifier(scheme_, agg_public_key(pk_bytes)));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    check_committee_shape(c);
    std::vector<VerificationKey> vks;
    vks.reserve(c.vks.size());
    for (const auto& vk : c.vks) vks.push_back(ro_verification_key(vk));
    return std::make_unique<AggPreparedCombiner>(
        scheme_, agg_public_key(c.pk), std::move(vks), c.n, c.t);
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    AggKeyMaterial km = scheme_.dist_keygen(n, t, rng);
    SchemeSample s;
    s.committee.pk = km.pk.serialize();
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) s.committee.vks.push_back(vk.serialize());
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.pk, km.shares[i - 1], msg));
      s.partials.push_back(parts.back().serialize());
    }
    s.sig = scheme_.combine(km, msg, parts).serialize();
    return s;
  }

 private:
  AggregateScheme scheme_;
};

// ---------------------------------------------------------------------------
// Boldyreva threshold BLS (the static-security baseline). The concrete
// types carry no serializers of their own, so the plugin defines the wire
// forms: pk / vk are compressed G2 points, a signature is a compressed G1
// point, a partial is u32 index + compressed G1.

using baselines::BlsKeyMaterial;
using baselines::BlsPartialSignature;
using baselines::BlsPublicKey;
using baselines::BlsVerifier;
using baselines::BoldyrevaBls;

BlsPartialSignature bls_partial_deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  BlsPartialSignature p;
  p.index = rd.u32();
  p.sigma = g1_deserialize(rd);
  expect_done(rd, "BlsPartialSignature");
  return p;
}

/// A BLS public or verification key: one compressed G2 point.
G2Affine bls_key(std::span<const uint8_t> data, const char* what) {
  ByteReader rd(data);
  G2Affine p = g2_deserialize(rd);
  expect_done(rd, what);
  require_key_points({&p, 1}, what);
  return p;
}

Bytes bls_partial_serialize(const BlsPartialSignature& p) {
  ByteWriter w;
  w.u32(p.index);
  g1_serialize(p.sigma, w);
  return w.take();
}

class BlsPreparedCombiner final : public PreparedCombiner {
 public:
  BlsPreparedCombiner(const BoldyrevaBls& scheme, BlsKeyMaterial km)
      : scheme_(scheme), km_(std::move(km)) {}

  SchemeId scheme() const override { return SchemeId::kBls; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng&,
                const FoldEvaluator&,  // baseline: per-partial scan, no fold
                std::vector<uint32_t>* cheaters) const override {
    auto typed = unerase_partials<BlsPartialSignature>(SchemeId::kBls, parts);
    // Classify once to attribute cheaters (BoldyrevaBls::combine skips bad
    // shares silently), then interpolate the classified subset directly —
    // combine_unchecked does not re-verify what this loop just checked.
    G1Affine neg_h = -scheme_.hash_message(msg);
    std::vector<BlsPartialSignature> valid;
    for (const auto& p : typed) {
      if (valid.size() == km_.t + 1) break;
      if (p.index < 1 || p.index > km_.n ||
          !scheme_.share_verify(km_.vks[p.index - 1], neg_h, p)) {
        if (cheaters) cheaters->push_back(p.index);
        continue;
      }
      valid.push_back(p);
    }
    G1Affine sig = scheme_.combine_unchecked(km_.t, valid);  // throws if < t+1
    ByteWriter w;
    g1_serialize(sig, w);
    return w.take();
  }

  size_t cache_bytes() const override {
    return sizeof(*this) + km_.vks.capacity() * sizeof(G2Affine) +
           km_.shares.capacity() * sizeof(baselines::BlsKeyShare);
  }

 private:
  BoldyrevaBls scheme_;
  BlsKeyMaterial km_;
};

class BlsPlugin final : public Scheme {
 public:
  explicit BlsPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kBls; }
  std::string_view name() const override { return "bls"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    return g2_to_bytes(bls_key(pk, "BlsPublicKey"));
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    ByteReader rd(data);
    G1Affine sig = g1_deserialize(rd);
    expect_done(rd, "BlsSignature");
    return erase_signature(SchemeId::kBls, sig);
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    ByteWriter w;
    g1_serialize(unerase_checked<G1Affine>(SchemeId::kBls, sig,
                                           "bls signature"),
                 w);
    return w.take();
  }
  PartialHandle parse_partial(std::span<const uint8_t> data) const override {
    return erase_partial(SchemeId::kBls, bls_partial_deserialize(data));
  }
  Bytes serialize_partial(const PartialHandle& part) const override {
    return bls_partial_serialize(unerase_checked<BlsPartialSignature>(
        SchemeId::kBls, part, "bls partial"));
  }

  std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const override {
    BlsPublicKey pk{bls_key(pk_bytes, "BlsPublicKey")};
    return std::make_unique<TypedPreparedVerifier<BlsVerifier, G1Affine>>(
        SchemeId::kBls, BlsVerifier(scheme_, pk));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    check_committee_shape(c);
    BlsKeyMaterial km;
    km.n = c.n;
    km.t = c.t;
    km.pk.pk = bls_key(c.pk, "BlsPublicKey");
    km.vks.reserve(c.vks.size());
    for (const auto& vk : c.vks)
      km.vks.push_back(bls_key(vk, "BlsVerificationKey"));
    return std::make_unique<BlsPreparedCombiner>(scheme_, std::move(km));
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    BlsKeyMaterial km = scheme_.dealer_keygen(n, t, rng);
    SchemeSample s;
    {
      ByteWriter w;
      g2_serialize(km.pk.pk, w);
      s.committee.pk = w.take();
    }
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) {
      ByteWriter w;
      g2_serialize(vk, w);
      s.committee.vks.push_back(w.take());
    }
    std::vector<BlsPartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.shares[i - 1], msg));
      s.partials.push_back(bls_partial_serialize(parts.back()));
    }
    ByteWriter w;
    g1_serialize(scheme_.combine(km, msg, parts), w);
    s.sig = w.take();
    return s;
  }

 private:
  BoldyrevaBls scheme_;
};

// ---------------------------------------------------------------------------
// Factory table

struct FactoryEntry {
  SchemeId id;
  SchemeRegistry::Factory make;
};

std::mutex& factories_mutex() {
  static std::mutex m;
  return m;
}

std::vector<FactoryEntry>& factories() {
  static std::vector<FactoryEntry> list = {
      {SchemeId::kRo,
       [](const SystemParams& p) { return std::make_unique<RoPlugin>(p); }},
      {SchemeId::kDlin,
       [](const SystemParams& p) { return std::make_unique<DlinPlugin>(p); }},
      {SchemeId::kAgg,
       [](const SystemParams& p) { return std::make_unique<AggPlugin>(p); }},
      {SchemeId::kBls,
       [](const SystemParams& p) { return std::make_unique<BlsPlugin>(p); }},
  };
  return list;
}

}  // namespace

std::shared_ptr<const PreparedCombiner> erase_combiner(
    std::shared_ptr<const RoCombiner> combiner) {
  return std::make_shared<const RoPreparedCombiner>(std::move(combiner));
}

std::shared_ptr<const PreparedCombiner> erase_combiner(
    std::shared_ptr<const DlinCombiner> combiner) {
  return std::make_shared<const DlinPreparedCombiner>(std::move(combiner));
}

SchemeRegistry::SchemeRegistry(const SystemParams& params) {
  std::lock_guard<std::mutex> l(factories_mutex());
  for (const auto& f : factories()) {
    owned_.push_back(f.make(params));
    if (owned_.back()->id() != f.id)
      throw std::logic_error("scheme factory id mismatch");
    view_.push_back(owned_.back().get());
  }
}

const Scheme* SchemeRegistry::find(SchemeId id) const {
  for (const Scheme* s : view_)
    if (s->id() == id) return s;
  return nullptr;
}

const Scheme* SchemeRegistry::find(std::string_view name) const {
  for (const Scheme* s : view_)
    if (s->name() == name) return s;
  return nullptr;
}

const Scheme& SchemeRegistry::at(SchemeId id) const {
  const Scheme* s = find(id);
  if (!s)
    throw std::out_of_range("unknown scheme id " +
                            std::to_string(unsigned(id)));
  return *s;
}

void SchemeRegistry::register_factory(SchemeId id, Factory factory) {
  std::lock_guard<std::mutex> l(factories_mutex());
  for (const auto& f : factories())
    if (f.id == id)
      throw std::invalid_argument("scheme id already registered: " +
                                  std::to_string(unsigned(id)));
  factories().push_back({id, std::move(factory)});
}

}  // namespace bnr::threshold
