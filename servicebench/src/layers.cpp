#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "curve/hash_to_curve.hpp"
#include "pairing/pairing.hpp"
#include "service/parallel.hpp"
#include "threshold/params.hpp"

namespace sb {

using bnr::Fp;
using bnr::Fp12;
using bnr::Fr;
using bnr::G1;
using bnr::G1Affine;
using bnr::G2;
using bnr::G2Affine;
using bnr::G2Prepared;
using bnr::PreparedTerm;
using bnr::Rng;
using bnr::threshold::PartialSignature;
using bnr::threshold::Signature;

namespace {

const G1Affine& typed_sig_z(const bnr::threshold::SigHandle& h) {
  return static_cast<const Signature*>(h.obj.get())->z;
}

}  // namespace

PreparedKey::PreparedKey(const RoScheme& scheme,
                         const bnr::threshold::PublicKey& pk)
    : prep{G2Prepared(scheme.params().g_z), G2Prepared(scheme.params().g_r),
           G2Prepared(pk.g[0]), G2Prepared(pk.g[1])} {}

// Mirrors RoVerifier::batch_verify (src/threshold/ro_scheme.cpp) step for
// step; only the hashing loop is split from the point conversions so that
// it can be timed as a span of its own.
bool replay_verify(SpanRecorder& rec, int64_t parent, const RoScheme& scheme,
                   const bnr::threshold::Scheme& plugin, const PreparedKey& key,
                   std::span<const Bytes> msgs, std::span<const Bytes> sigs) {
  Scoped root(rec, "threshold.batch_verify", parent);
  const size_t n = sigs.size();
  std::vector<Signature> parsed;
  parsed.reserve(n);
  {
    Scoped s(rec, "curve.parse_signature", root.id());
    for (const auto& b : sigs)
      parsed.push_back(*static_cast<const Signature*>(
          plugin.parse_signature(b).obj.get()));
  }
  std::vector<std::array<G1Affine, 2>> h;
  h.reserve(n);
  {
    Scoped s(rec, "curve.hash_message", root.id());
    for (const auto& m : msgs) h.push_back(scheme.hash_message(m));
  }
  Rng rng = Rng::from_entropy();
  std::vector<Fr> e(n);
  e[0] = Fr::one();
  for (size_t j = 1; j < n; ++j) e[j] = bnr::threshold::random_rlc_coefficient(rng);
  std::array<G1Affine, 4> folded;
  {
    Scoped s(rec, "curve.msm", root.id());
    std::array<std::vector<G1>, 4> pts;
    for (size_t j = 0; j < n; ++j) {
      pts[0].push_back(G1::from_affine(parsed[j].z));
      pts[1].push_back(G1::from_affine(parsed[j].r));
      pts[2].push_back(G1::from_affine(h[j][0]));
      pts[3].push_back(G1::from_affine(h[j][1]));
    }
    for (size_t k = 0; k < 4; ++k) folded[k] = bnr::msm<G1>(pts[k], e).to_affine();
  }
  Scoped s(rec, "pairing.multi_pairing", root.id());
  std::array<PreparedTerm, 4> terms;
  for (size_t k = 0; k < 4; ++k) terms[k] = {folded[k], &key.prep[k]};
  return bnr::pairing_product_is_one(terms);
}

Bytes replay_combine(SpanRecorder& rec, int64_t parent, const RoScheme& scheme,
                     const bnr::threshold::Scheme& plugin,
                     const bnr::threshold::RoCombiner& combiner,
                     bnr::service::ThreadPool& pool,
                     std::span<const uint8_t> msg, std::span<const Bytes> parts) {
  Scoped root(rec, "threshold.combine", parent);
  std::vector<PartialSignature> ps;
  {
    Scoped s(rec, "curve.parse_partial", root.id());
    for (const auto& b : parts)
      ps.push_back(*static_cast<const PartialSignature*>(
          plugin.parse_partial(b).obj.get()));
  }
  std::array<G1Affine, 2> h;
  {
    Scoped s(rec, "curve.hash_message", root.id());
    h = scheme.hash_message(msg);
  }
  const size_t need = combiner.t() + 1;
  std::span<const PartialSignature> first(ps.data(), std::min(need, ps.size()));
  Rng rng = Rng::from_entropy();
  bnr::threshold::RoCombiner::Fold fold;
  {
    Scoped s(rec, "curve.build_fold", root.id());
    fold = combiner.build_fold(h, first, rng);
  }
  bool ok;
  {
    Scoped s(rec, "pairing.multi_pairing", root.id());
    std::vector<PreparedTerm> terms;
    for (size_t j = 0; j < fold.points.size(); ++j)
      terms.push_back({fold.points[j], fold.preps[j]});
    ok = bnr::service::pairing_product_is_one_parallel(pool, terms);
  }
  std::vector<PartialSignature> valid(first.begin(), first.end());
  if (!ok) {
    Scoped s(rec, "pairing.share_verify", root.id());
    valid.clear();
    for (const auto& p : ps) {
      if (valid.size() == need) break;
      if (combiner.share_verify(h, p)) valid.push_back(p);
    }
  }
  Scoped s(rec, "curve.interpolate", root.id());
  if (valid.size() < need) return {};
  return scheme.combine_unchecked(combiner.t(), valid).serialize();
}

bnr::threshold::Committee committee_of(const KeyMaterial& km) {
  bnr::threshold::Committee c;
  c.pk = km.pk.serialize();
  c.n = uint32_t(km.n);
  c.t = uint32_t(km.t);
  for (const auto& vk : km.vks) c.vks.push_back(vk.serialize());
  return c;
}

void replay_prepare(SpanRecorder& rec, int64_t parent,
                    const bnr::threshold::Scheme& plugin,
                    const KeyMaterial& km) {
  auto c = committee_of(km);
  {
    Scoped s(rec, "threshold.canonical_public_key", parent);
    c.pk = plugin.canonical_public_key(c.pk);
  }
  {
    Scoped s(rec, "pairing.make_verifier", parent);
    plugin.make_verifier(c.pk);
  }
  Scoped s(rec, "pairing.make_combiner", parent);
  plugin.make_combiner(c);
}

// ---------------------------------------------------------------------------
// Layer timings.

namespace {

volatile uint64_t g_sink = 0;

/// Median seconds per call of `fn(reps)` which runs `reps` calls: batches
/// of `reps` calls, at least 5 batches and 40 ms in all.
double per_call(size_t reps, const std::function<void(size_t)>& fn) {
  fn(reps);  // warm-up
  std::vector<double> t;
  double total = 0;
  while (t.size() < 5 || (total < 0.04 && t.size() < 200)) {
    auto a = Clock::now();
    fn(reps);
    double s = seconds_between(a, Clock::now());
    t.push_back(s / double(reps));
    total += s;
  }
  return median(t);
}

}  // namespace

void add_layer_timings(RunResult& r, const RoScheme& scheme,
                       const bnr::threshold::Scheme& plugin,
                       const KeyMaterial& km, double fold_size) {
  Rng rng("servicebench/layers");

  // field
  Fp a = Fp::random(rng), b = Fp::random(rng);
  r.add("field.fp_mul_ns", 1e9 * per_call(20000, [&](size_t n) {
          for (size_t i = 0; i < n; ++i) a = a * b;
          g_sink = g_sink + a.is_zero();
        }), "ns");
  r.add("field.fp_sqr_ns", 1e9 * per_call(20000, [&](size_t n) {
          for (size_t i = 0; i < n; ++i) a = a.squared();
          g_sink = g_sink + a.is_zero();
        }), "ns");
  Fp sq = b.squared();
  r.add("field.fp_sqrt_us", 1e6 * per_call(50, [&](size_t n) {
          for (size_t i = 0; i < n; ++i) g_sink = g_sink + sq.sqrt().has_value();
        }), "us");
  Fp12 f = bnr::miller_loop(bnr::G1::generator().to_affine(),
                            G2::generator().to_affine());
  Fp12 f2 = f;
  r.add("field.fp12_mul_ns", 1e9 * per_call(2000, [&](size_t n) {
          for (size_t i = 0; i < n; ++i) f2 = f2 * f;
          g_sink = g_sink + f2.is_one();
        }), "ns");

  // curve
  std::vector<G1Affine> pts;
  std::vector<Bytes> pts_bytes;
  for (size_t i = 0; i < 64; ++i) {
    pts.push_back(G1::generator().mul(Fr::random(rng)).to_affine());
    pts_bytes.push_back(bnr::g1_to_bytes(pts.back()));
  }
  r.add("curve.g1_decompress_us", 1e6 * per_call(64, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + bnr::g1_from_bytes(pts_bytes[i % 64]).infinity;
        }), "us");
  const std::string dst = scheme.params().hash_dst("H1");
  Bytes msg = rng.bytes(32);
  r.add("curve.hash_to_g1_us", 1e6 * per_call(32, [&](size_t n) {
          for (size_t i = 0; i < n; ++i) {
            msg[0] = uint8_t(i);
            g_sink = g_sink + bnr::hash_to_g1(dst, msg).infinity;
          }
        }), "us");
  {
    std::vector<G1> jac;
    std::vector<Fr> e;
    for (const auto& p : pts) {
      jac.push_back(G1::from_affine(p));
      e.push_back(bnr::threshold::random_rlc_coefficient(rng));
    }
    r.add("curve.g1_msm_ns_per_point", 1e9 / 64 * per_call(4, [&](size_t n) {
            for (size_t i = 0; i < n; ++i)
              g_sink = g_sink + bnr::msm<G1>(jac, e).is_identity();
          }), "ns");
  }
  Fr k = Fr::random(rng);
  G1 p1 = G1::from_affine(pts[0]);
  r.add("curve.g1_mul_us", 1e6 * per_call(16, [&](size_t n) {
          for (size_t i = 0; i < n; ++i) g_sink = g_sink + p1.mul(k).is_identity();
        }), "us");
  G2 q2 = G2::generator().mul(Fr::random(rng));
  r.add("curve.g2_mul_us", 1e6 * per_call(8, [&](size_t n) {
          for (size_t i = 0; i < n; ++i) g_sink = g_sink + q2.mul(k).is_identity();
        }), "us");
  {
    // The DKG's commitment-evaluation shape: t+1 points, full scalars.
    std::vector<G2> g2s;
    std::vector<Fr> s;
    for (size_t i = 0; i <= km.t; ++i) {
      g2s.push_back(G2::generator().mul(Fr::random(rng)));
      s.push_back(Fr::random(rng));
    }
    r.add("curve.g2_msm_us", 1e6 * per_call(4, [&](size_t n) {
            for (size_t i = 0; i < n; ++i)
              g_sink = g_sink + bnr::msm<G2>(g2s, s).is_identity();
          }), "us");
  }

  // pairing
  G2Affine q = q2.to_affine();
  G2Prepared qp(q);
  r.add("pairing.miller_prepared_us", 1e6 * per_call(8, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + bnr::miller_loop(pts[i % 64], qp).is_one();
        }), "us");
  r.add("pairing.final_exp_us", 1e6 * per_call(4, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + bnr::final_exponentiation(f).is_one();
        }), "us");
  r.add("pairing.g2_prepare_us", 1e6 * per_call(8, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + G2Prepared(q).infinity();
        }), "us");

  // threshold, on the workload's committee
  auto verifier = plugin.make_verifier(km.pk.serialize());
  std::vector<Bytes> msgs, sigs;
  std::vector<bnr::threshold::SigHandle> handles;
  for (size_t j = 0; j < 64; ++j) {
    msgs.push_back(rng.bytes(32));
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(scheme.combine_unchecked(km.t, parts).serialize());
    handles.push_back(plugin.parse_signature(sigs.back()));
  }
  r.add("threshold.parse_signature_us", 1e6 * per_call(64, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink +
                     typed_sig_z(plugin.parse_signature(sigs[i % 64])).infinity;
        }), "us");
  auto batch_per_sig = [&](size_t m) {
    std::span<const Bytes> ms(msgs.data(), m);
    std::span<const bnr::threshold::SigHandle> hs(handles.data(), m);
    Rng brng("servicebench/batch");
    return 1e6 / double(m) * per_call(1, [&](size_t n) {
             for (size_t i = 0; i < n; ++i)
               g_sink = g_sink + verifier->batch_verify(ms, hs, brng);
           });
  };
  size_t fold = std::clamp<size_t>(size_t(std::lround(fold_size)), 1, 64);
  r.add("threshold.batch_verify_us_per_sig", batch_per_sig(fold), "us");
  r.add("threshold.batch_verify64_us_per_sig", batch_per_sig(64), "us");
  r.add("threshold.verify_us", 1e6 * per_call(4, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + verifier->verify(msgs[i % 64], handles[i % 64]);
        }), "us");
  r.add("threshold.share_sign_us", 1e6 * per_call(4, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + scheme.share_sign(km.shares[i % km.n], msgs[i % 64])
                                  .z.infinity;
        }), "us");
  auto committee = committee_of(km);
  auto combiner = plugin.make_combiner(committee);
  std::vector<bnr::threshold::PartialHandle> honest, cheating;
  for (uint32_t i = 1; i <= km.t + 1; ++i) {
    auto ps = scheme.share_sign(km.shares[i - 1], msgs[0]);
    honest.push_back(plugin.parse_partial(ps.serialize()));
    if (i == 1) ps.z = (G1::from_affine(ps.z) + G1::generator()).to_affine();
    cheating.push_back(plugin.parse_partial(ps.serialize()));
  }
  cheating.push_back(plugin.parse_partial(
      scheme.share_sign(km.shares[km.t + 1], msgs[0]).serialize()));
  Rng crng("servicebench/combine");
  r.add("threshold.combine_ms", 1e3 * per_call(1, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + combiner->combine(msgs[0], honest, crng, {}, nullptr).size();
        }), "ms");
  r.add("threshold.combine_cheater_ms", 1e3 * per_call(1, [&](size_t n) {
          for (size_t i = 0; i < n; ++i) {
            std::vector<uint32_t> cheaters;
            g_sink = g_sink +
                     combiner->combine(msgs[0], cheating, crng, {}, &cheaters).size();
          }
        }), "ms");
  Bytes pk = km.pk.serialize();
  r.add("threshold.canonical_pk_us", 1e6 * per_call(8, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + plugin.canonical_public_key(pk).size();
        }), "us");
  r.add("threshold.make_verifier_ms", 1e3 * per_call(1, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + plugin.make_verifier(pk)->cache_bytes();
        }), "ms");
  r.add("threshold.make_combiner_ms", 1e3 * per_call(1, [&](size_t n) {
          for (size_t i = 0; i < n; ++i)
            g_sink = g_sink + plugin.make_combiner(committee)->cache_bytes();
        }), "ms");
}

}  // namespace sb
