// E11 — the parallel verification service. Three ladders:
//
//   1. Combine with share verification at n=33, t=16: the per-partial
//      4-pairing path (one pairing product per partial, the pre-PR-2
//      default) vs the RLC batched fold (stateless, on-the-fly preparation)
//      vs the cached RoCombiner (per-player prepared keys) vs the combiner
//      fold evaluated across the thread pool.
//   2. The request-driven verification service: individual cached verifies
//      vs RLC-batched flushes through the async queue (driven through the
//      unified type-erased MultiTenantVerificationService with one tenant
//      key — the same serving core the daemon runs).
//   3. The flush fold across tenants, single-threaded: one RlcFold of 64
//      members drawn Zipf(1.0) over 16 RO keys against a fold of 64 under
//      one key. The keys share g^_z/g^_r, so the mixed fold pays 2 + 2K
//      Miller terms for K distinct keys; CI gates the same-run ratio.
//   4. The pool-parallel primitives (Pippenger windows, Miller-loop chunks)
//      against their serial counterparts.
//
// Emits BENCH_e11.json; bench/records/BENCH_e11.pr*.json tracks the
// trajectory, and CI guards the combine and batching speedups.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "service/key_cache.hpp"
#include "service/parallel.hpp"
#include "service/thread_pool.hpp"
#include "service/verification_service.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/rlc_fold.hpp"
#include "threshold/ro_scheme.hpp"

using namespace bnr;

namespace {
volatile bool sink = false;
}

int main() {
  bench::JsonWriter out("BENCH_e11.json");
  service::ThreadPool pool;
  printf("thread pool: %zu workers\n", pool.size());

  // ---- 1. Combine with share verification, n=33, t=16. ------------------
  bench::header("Combine with share verification (n=33, t=16)");
  threshold::SystemParams sp = threshold::SystemParams::derive("e11");
  threshold::RoScheme scheme(sp);
  Rng rng("e11-rng");
  printf("running Dist-Keygen n=33 t=16 (n must satisfy n >= 2t+1)...\n");
  auto km = scheme.dist_keygen(33, 16, rng);

  Bytes msg = to_bytes("e11 combine workload");
  std::vector<threshold::PartialSignature> parts;
  for (uint32_t i = 1; i <= km.t + 1; ++i)
    parts.push_back(scheme.share_sign(km.shares[i - 1], msg));

  // The pre-batching path: one 4-pairing product per partial signature.
  auto combine_per_partial = [&] {
    auto h = scheme.hash_message(msg);
    std::vector<threshold::PartialSignature> valid;
    for (const auto& p : parts) {
      if (scheme.share_verify(km.vks[p.index - 1], h, p)) valid.push_back(p);
      if (valid.size() == km.t + 1) break;
    }
    return scheme.combine_unchecked(km.t, valid);
  };

  threshold::RoCombiner combiner(scheme, km);
  Rng coins("e11-combine-coins");

  sink = combine_per_partial().z.infinity;  // warm-up (hash caches etc.)
  out.bench("combine/unchecked_lagrange_only",
            [&] { sink = scheme.combine_unchecked(km.t, parts).z.infinity; });

  double per_partial_ns = bench::ns_per_op(
      [&] { sink = combine_per_partial().z.infinity; }, 3, 400.0);
  out.record("combine/per_partial_4pairing", per_partial_ns);

  double stateless_ns = bench::ns_per_op(
      [&] { sink = scheme.combine(km, msg, parts).z.infinity; }, 3, 400.0);
  out.record("combine/batched_fold_stateless", stateless_ns);

  double cached_ns = bench::ns_per_op(
      [&] { sink = combiner.combine(msg, parts, coins).z.infinity; }, 3,
      400.0);
  out.record("combine/batched_cached", cached_ns);

  double parallel_ns = bench::ns_per_op(
      [&] {
        sink = service::combine_parallel(combiner, pool, msg, parts, coins)
                   .z.infinity;
      },
      3, 400.0);
  out.record("combine/batched_cached_parallel", parallel_ns);

  out.record("combine/speedup_cached_vs_per_partial",
             per_partial_ns / cached_ns);
  printf("\ncombine speedups over per-partial 4-pairing path: "
         "stateless %.2fx, cached %.2fx, cached+parallel %.2fx\n",
         per_partial_ns / stateless_ns, per_partial_ns / cached_ns,
         per_partial_ns / parallel_ns);

  // Cheater fallback: fold fails, sequential scan identifies the bad share.
  {
    auto bad = parts;
    bad[3].z = (G1::from_affine(bad[3].z) + G1::generator()).to_affine();
    std::vector<threshold::PartialSignature> extra = bad;
    extra.push_back(scheme.share_sign(km.shares[km.t + 1], msg));
    out.bench("combine/cheater_fallback_path", [&] {
      std::vector<uint32_t> cheaters;
      sink = combiner.combine(msg, extra, coins, &cheaters).z.infinity;
    }, 3, 400.0);
  }

  // ---- 2. The request-driven verification service. ----------------------
  bench::header("verification service throughput");
  auto vkm = scheme.dist_keygen(3, 1, rng);
  threshold::RoVerifier verifier(scheme, vkm.pk);
  constexpr size_t kReqs = 128;
  std::vector<Bytes> msgs;
  std::vector<threshold::Signature> sigs;
  for (size_t j = 0; j < kReqs; ++j) {
    msgs.push_back(to_bytes("e11 req " + std::to_string(j)));
    std::vector<threshold::PartialSignature> ps;
    for (uint32_t i = 1; i <= vkm.t + 1; ++i)
      ps.push_back(scheme.share_sign(vkm.shares[i - 1], msgs.back()));
    sigs.push_back(scheme.combine_unchecked(vkm.t, ps));
  }

  double individual_ns = bench::ns_per_op(
      [&] {
        bool ok = true;
        for (size_t j = 0; j < kReqs; ++j)
          ok = ok && verifier.verify(msgs[j], sigs[j]);
        sink = ok;
      },
      3, 500.0);
  out.record("service/individual_x128", individual_ns / kReqs);

  service::BatchPolicy policy{.max_batch = 32,
                              .max_delay = std::chrono::milliseconds(2)};
  service::KeyCacheManager<threshold::PreparedVerifier> vcache(
      service::KeyCachePolicy{.byte_budget = size_t(16) << 20, .shards = 1});
  service::MultiTenantVerificationService svc(
      vcache,
      [&](const std::string&) {
        return threshold::erase_verifier<threshold::RoVerifier,
                                         threshold::Signature>(
            threshold::SchemeId::kRo, threshold::RoVerifier(scheme, vkm.pk));
      },
      policy, pool);
  double service_ns = bench::ns_per_op(
      [&] {
        std::vector<std::future<bool>> futs;
        futs.reserve(kReqs);
        for (size_t j = 0; j < kReqs; ++j)
          futs.push_back(svc.submit(
              "tenant", msgs[j],
              threshold::erase_signature(threshold::SchemeId::kRo, sigs[j])));
        bool ok = true;
        for (auto& f : futs) ok = ok && f.get();
        sink = ok;
      },
      3, 500.0);
  out.record("service/batched_x128", service_ns / kReqs);
  out.record("service/batching_speedup", individual_ns / service_ns);
  auto st = svc.stats();
  printf("\nservice: %llu requests in %llu batches (%llu size / %llu "
         "deadline flushes), batching speedup %.2fx\n",
         (unsigned long long)st.submitted, (unsigned long long)st.batches,
         (unsigned long long)st.size_flushes,
         (unsigned long long)st.deadline_flushes,
         individual_ns / service_ns);

  // ---- 3. The flush fold across tenants (single-threaded). ---------------
  bench::header("flush fold: 64 members over 16 Zipf keys vs one key");
  {
    constexpr size_t kKeys = 16, kFold = 64;
    std::vector<threshold::KeyMaterial> kms;
    std::vector<std::shared_ptr<const threshold::PreparedVerifier>> keys;
    for (size_t k = 0; k < kKeys; ++k) {
      kms.push_back(scheme.dist_keygen(3, 1, rng));
      keys.push_back(
          threshold::erase_verifier<threshold::RoVerifier,
                                    threshold::Signature>(
              threshold::SchemeId::kRo,
              threshold::RoVerifier(scheme, kms.back().pk)));
    }
    struct Member {
      size_t key;
      Bytes msg;
      threshold::SigHandle sig;
    };
    auto member = [&](size_t key, size_t j) {
      Bytes m = to_bytes("e11 fold " + std::to_string(j));
      std::vector<threshold::PartialSignature> ps;
      for (uint32_t i = 1; i <= 2; ++i)
        ps.push_back(scheme.share_sign(kms[key].shares[i - 1], m));
      return Member{key, m,
                    threshold::erase_signature(
                        threshold::SchemeId::kRo,
                        scheme.combine_unchecked(1, ps))};
    };
    service::ZipfSampler zipf(kKeys, 1.0);
    Rng draw("e11-fold-zipf");
    std::vector<Member> mixed, single;
    std::vector<bool> seen(kKeys, false);
    for (size_t j = 0; j < kFold; ++j) {
      mixed.push_back(member(zipf.sample(draw), j));
      seen[mixed.back().key] = true;
      single.push_back(member(0, j));
    }
    Rng fold_coins("e11-fold-coins");
    auto run_fold = [&](const std::vector<Member>& members) {
      threshold::RlcFold fold;
      for (const auto& m : members)
        fold.add([&](std::vector<threshold::FoldTerm>& terms) {
          return keys[m.key]->fold_terms(m.msg, m.sig, terms);
        });
      fold.seal(fold_coins);
      sink = fold.holds(0, fold.size());
    };
    // Alternating runs after a warm-up, so host drift lands on both sides
    // alike.
    run_fold(mixed);
    run_fold(single);
    std::vector<double> mixed_ms, single_ms;
    for (int rep = 0; rep < 16; ++rep) {
      mixed_ms.push_back(bench::time_ms([&] { run_fold(mixed); }));
      single_ms.push_back(bench::time_ms([&] { run_fold(single); }));
    }
    auto median_ns = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2] * 1e6;
    };
    double mixed_ns = median_ns(mixed_ms);
    double single_ns = median_ns(single_ms);
    out.record("fold/mixed_16keys_x64", mixed_ns);
    out.record("fold/single_key_x64", single_ns);
    printf("\nmixed fold over %zu distinct keys costs %.2fx the single-key "
           "fold (%.0f vs %.0f us/sig)\n",
           size_t(std::count(seen.begin(), seen.end(), true)),
           mixed_ns / single_ns, mixed_ns / kFold / 1e3,
           single_ns / kFold / 1e3);
  }

  // ---- 4. Pool-parallel primitives vs serial. ----------------------------
  bench::header("parallel primitives");
  {
    Rng prng("e11-msm");
    constexpr size_t kN = 2048;
    std::vector<G1> points;
    std::vector<Fr> scalars;
    for (size_t i = 0; i < kN; ++i) {
      points.push_back(G1::generator().mul(Fr::random(prng)));
      scalars.push_back(Fr::random(prng));
    }
    out.bench("msm/serial_2048",
              [&] { sink = msm<G1>(points, scalars).is_identity(); }, 3,
              300.0);
    out.bench("msm/parallel_2048", [&] {
      sink = service::msm_parallel<G1>(pool, points, scalars).is_identity();
    }, 3, 300.0);

    std::vector<PairingTerm> plain;
    for (int i = 0; i < 16; ++i)
      plain.push_back({G1::generator().mul(Fr::random(prng)).to_affine(),
                       G2::generator().mul(Fr::random(prng)).to_affine()});
    std::vector<G2Prepared> prepared;
    prepared.reserve(plain.size());
    std::vector<PreparedTerm> terms;
    for (const auto& t : plain) {
      prepared.emplace_back(t.q);
      terms.push_back({t.p, &prepared.back()});
    }
    out.bench("multi_pairing/serial_16",
              [&] { sink = multi_pairing(terms).is_identity(); }, 3, 300.0);
    out.bench("multi_pairing/parallel_16", [&] {
      sink = service::multi_pairing_parallel(pool, terms).is_identity();
    }, 3, 300.0);
  }

  // ---- 5. DLIN combine, batched vs per-partial (n=8, t=3). ---------------
  bench::header("DLIN combine (n=8, t=3)");
  {
    threshold::DlinScheme dscheme(sp);
    auto dkm = dscheme.dist_keygen(8, 3, rng);
    Bytes dmsg = to_bytes("e11 dlin");
    std::vector<threshold::DlinPartialSignature> dparts;
    for (uint32_t i = 1; i <= dkm.t + 1; ++i)
      dparts.push_back(dscheme.share_sign(dkm.shares[i - 1], dmsg));
    auto dlin_per_partial = [&] {
      auto h = dscheme.hash_message(dmsg);
      bool ok = true;
      for (const auto& p : dparts)
        ok = ok && dscheme.share_verify(dkm.vks[p.index - 1], h, p);
      return ok;
    };
    double dlin_seq_ns =
        bench::ns_per_op([&] { sink = dlin_per_partial(); }, 3, 400.0);
    out.record("dlin_combine/per_partial_8pairing", dlin_seq_ns);
    threshold::DlinCombiner dcombiner(dscheme, dkm);
    double dlin_batch_ns = bench::ns_per_op(
        [&] { sink = dcombiner.combine(dmsg, dparts, coins).z.infinity; }, 3,
        400.0);
    out.record("dlin_combine/batched_cached", dlin_batch_ns);
    printf("\ndlin batched combine speedup: %.2fx\n",
           dlin_seq_ns / dlin_batch_ns);
  }

  out.flush();
  return 0;
}
