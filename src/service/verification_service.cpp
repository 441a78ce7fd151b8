#include "service/verification_service.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "rpc/fault_injector.hpp"
#include "service/parallel.hpp"

namespace bnr::service {

namespace {

using threshold::scheme_stats_slot;

}  // namespace

// ---------------------------------------------------------------------------
// MultiTenantVerificationService

MultiTenantVerificationService::MultiTenantVerificationService(
    KeyCacheManager<threshold::PreparedVerifier>& cache,
    VerifierProvider prepare, BatchPolicy policy, ThreadPool& pool,
    std::string_view rng_label)
    : cache_(cache),
      prepare_(std::move(prepare)),
      policy_(policy),
      pool_(pool),
      rng_(Rng::from_entropy().fork(rng_label)) {
  if (policy_.adaptive) {
    // The pool's busy -> idle edge is the adaptive flush trigger: set the
    // hint and poke the flusher. Runs on a worker under the pool's listener
    // lock — cheap and non-throwing, as the contract requires.
    idle_listener_token_ = pool_.add_idle_listener([this] {
      {
        std::lock_guard<std::mutex> l(m_);
        pool_idle_hint_ = true;
      }
      cv_.notify_one();
    });
    idle_listener_registered_ = true;
  }
  flusher_ = std::thread([this] { flusher_loop(); });
}

MultiTenantVerificationService::~MultiTenantVerificationService() {
  // Unregister FIRST: remove_idle_listener returning guarantees no listener
  // invocation is in flight, so nothing can touch this service's members
  // while (or after) they are torn down.
  if (idle_listener_registered_)
    pool_.remove_idle_listener(idle_listener_token_);
  {
    std::unique_lock<std::mutex> l(m_);
    stop_ = true;
  }
  cv_.notify_all();
  flusher_.join();
  std::unique_lock<std::mutex> l(m_);
  if (!pending_.empty()) dispatch_locked(l, /*deadline=*/false);
  drained_.wait(l, [&] { return in_flight_ == 0; });
}

ServiceStats& MultiTenantVerificationService::slice_locked(
    threshold::SchemeId id) {
  return by_scheme_[scheme_stats_slot(id)];
}

void MultiTenantVerificationService::submit(
    KeyId key, Bytes msg, threshold::SigHandle sig, Callback done,
    std::chrono::steady_clock::time_point deadline,
    std::shared_ptr<obs::RequestTrace> trace) {
  std::chrono::steady_clock::time_point submitted_at{};
  if (obs::enabled()) {
    submitted_at = std::chrono::steady_clock::now();
    if (trace) trace->stamp(obs::Stage::kQueued);
  }
  bool flush_now = false;
  {
    std::unique_lock<std::mutex> l(m_);
    if (pending_.empty()) oldest_ = std::chrono::steady_clock::now();
    ++total_.submitted;
    ++total_.in_progress;
    ServiceStats& slice = slice_locked(sig.scheme);
    ++slice.submitted;
    ++slice.in_progress;
    pending_.push_back({std::move(key), std::move(msg), std::move(sig),
                        std::move(done), deadline, submitted_at,
                        std::move(trace)});
    flush_now = pending_.size() >= policy_.max_batch;
    if (flush_now) {
      ++total_.size_flushes;
      dispatch_locked(l, /*deadline=*/false);
    } else if (policy_.adaptive && pool_.idle()) {
      // The pool has spare capacity RIGHT NOW: accumulating further buys no
      // amortization, only latency. (An idle() misread races a concurrent
      // submit at worst into one undersized batch.)
      ++total_.idle_flushes;
      dispatch_locked(l, /*deadline=*/false);
    }
  }
  cv_.notify_one();  // wake the flusher to re-arm its deadline
}

std::future<bool> MultiTenantVerificationService::submit(
    KeyId key, Bytes msg, threshold::SigHandle sig) {
  auto prom = std::make_shared<std::promise<bool>>();
  std::future<bool> fut = prom->get_future();
  submit(std::move(key), std::move(msg), std::move(sig),
         [prom](bool ok, std::exception_ptr err) {
           if (err)
             prom->set_exception(err);
           else
             prom->set_value(ok);
         });
  return fut;
}

void MultiTenantVerificationService::flush() {
  std::unique_lock<std::mutex> l(m_);
  if (!pending_.empty()) dispatch_locked(l, /*deadline=*/false);
}

void MultiTenantVerificationService::drain() {
  std::unique_lock<std::mutex> l(m_);
  if (!pending_.empty()) dispatch_locked(l, /*deadline=*/false);
  drained_.wait(l, [&] { return in_flight_ == 0; });
}

ServiceStats MultiTenantVerificationService::stats() const {
  std::lock_guard<std::mutex> l(m_);
  return total_;
}

ServiceStats MultiTenantVerificationService::stats(
    threshold::SchemeId id) const {
  std::lock_guard<std::mutex> l(m_);
  return by_scheme_[scheme_stats_slot(id)];
}

MultiTenantVerificationService::StatsBundle
MultiTenantVerificationService::stats_all() const {
  StatsBundle b;
  std::lock_guard<std::mutex> l(m_);
  b.total = total_;
  b.by_scheme = by_scheme_;
  return b;
}

obs::HistogramSnapshot MultiTenantVerificationService::latency(
    threshold::SchemeId id) const {
  return latency_[scheme_stats_slot(id)].snapshot();
}

obs::HistogramSnapshot MultiTenantVerificationService::latency() const {
  obs::HistogramSnapshot s;
  for (const auto& h : latency_) s.merge(h.snapshot());
  return s;
}

// Moves the pending batch out, splits it into one fold group per SchemeId
// (arrival order preserved within each group), and hands each group to the
// pool as its own fold task. Caller holds m_.
void MultiTenantVerificationService::dispatch_locked(
    std::unique_lock<std::mutex>&, bool deadline) {
  std::vector<Pending> batch;
  batch.swap(pending_);
  if (batch.empty()) return;
  if (deadline) ++total_.deadline_flushes;

  std::vector<Group> groups;
  for (auto& p : batch) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return g.scheme == p.sig.scheme;
    });
    if (it == groups.end()) it = groups.insert(it, Group{p.sig.scheme, {}});
    it->members.push_back(std::move(p));
  }

  for (auto& g : groups) {
    ++total_.batches;
    ++slice_locked(g.scheme).batches;
    if (obs::enabled())
      for (auto& p : g.members)
        if (p.trace) p.trace->stamp(obs::Stage::kFrozen);
    // The group is frozen; only NOW are its fold coefficients drawable.
    Rng group_rng = rng_.fork("batch");
    ++in_flight_;
    auto shared = std::make_shared<Group>(std::move(g));
    auto rng_shared = std::make_shared<Rng>(std::move(group_rng));
    pool_.submit([this, shared, rng_shared] {
      try {
        run_group(*shared, *rng_shared);
      } catch (...) {
        // A throwing verifier (or bad_alloc) must not escape the worker
        // (std::terminate) or strand the submitters: every callback not yet
        // invoked carries the exception instead. These completions are
        // neither verdicts nor sheds — they are counted as `errors` (stats
        // BEFORE callbacks, like every other outcome) so the accounting
        // identity keeps holding after a failure.
        std::exception_ptr err = std::current_exception();
        uint64_t errors = 0;
        for (auto& p : shared->members)
          if (p.done) ++errors;
        if (errors) {
          {
            std::lock_guard<std::mutex> l(m_);
            ServiceStats& slice = slice_locked(shared->scheme);
            total_.errors += errors;
            slice.errors += errors;
            total_.in_progress -= errors;
            slice.in_progress -= errors;
          }
          BNR_LOG(obs::LogLevel::kError, "service", "verify_group_error",
                  obs::kv("scheme", uint64_t(shared->scheme)) +
                      obs::kv("members", uint64_t(errors)));
        }
        for (auto& p : shared->members) {
          if (!p.done) continue;  // already answered before the throw
          p.done(false, err);
          p.done = nullptr;
        }
      }
      std::lock_guard<std::mutex> l(m_);
      if (--in_flight_ == 0) drained_.notify_all();
    });
  }
}

void MultiTenantVerificationService::run_group(Group& group, Rng& rng) {
  const threshold::SchemeId scheme = group.scheme;
  if (auto* f = rpc::FaultInjector::active()) f->on_task();
  // Deadline-aware shedding: members whose budget is already spent are
  // answered with DeadlineShed NOW, before this group pays for a prepare or
  // a pairing — under overload the batch that finally runs only carries
  // requests that can still make their deadline.
  {
    auto now = std::chrono::steady_clock::now();
    uint64_t sheds = 0;
    for (auto& p : group.members) {
      if (p.deadline > now) continue;
      p.done(false, std::make_exception_ptr(DeadlineShed()));
      p.done = nullptr;
      ++sheds;
    }
    if (sheds) {
      std::erase_if(group.members, [](const Pending& p) { return !p.done; });
      std::lock_guard<std::mutex> l(m_);
      ServiceStats& slice = slice_locked(scheme);
      total_.deadline_sheds += sheds;
      slice.deadline_sheds += sheds;
      total_.in_progress -= sheds;
      slice.in_progress -= sheds;
    }
    if (group.members.empty()) return;
  }
  auto& batch = group.members;
  if (obs::enabled())
    for (auto& p : batch)
      if (p.trace) p.trace->stamp(obs::Stage::kCryptoStart);
  // One pin per distinct key, held for the whole fold + bisection: the
  // cache may not evict a tenant's prepared state mid-batch. The provider
  // only runs on a miss, which is how the per-scheme cache hit/miss split is
  // observed without the cache knowing about schemes. A key whose provider
  // throws answers only its own members, with the error.
  struct KeyPin {
    KeyCacheManager<threshold::PreparedVerifier>::Pin pin;
    std::exception_ptr error;
  };
  std::unordered_map<KeyId, KeyPin> pins;
  uint64_t misses = 0;
  std::vector<KeyPin*> member_pin(batch.size());
  for (size_t j = 0; j < batch.size(); ++j) {
    auto [it, fresh] = pins.try_emplace(batch[j].key);
    member_pin[j] = &it->second;
    if (!fresh) continue;
    try {
      it->second.pin =
          cache_.get_or_prepare(it->first, [&](const KeyId& canonical) {
            ++misses;
            return prepare_(canonical);
          });
    } catch (...) {
      it->second.error = std::current_exception();
    }
  }
  // ONE fold over every member of every key. Members whose key failed to
  // prepare, or whose verifier refuses the handle (wrong scheme, null), are
  // decided before the fold and never enter it.
  threshold::RlcFold fold;
  std::vector<size_t> folded;  // fold member -> batch index
  std::vector<bool> results(batch.size(), false);
  uint64_t errors = 0;
  for (size_t j = 0; j < batch.size(); ++j) {
    const KeyPin& kp = *member_pin[j];
    if (kp.error) {
      ++errors;
      continue;
    }
    if (fold.add([&](std::vector<threshold::FoldTerm>& out) {
          return kp.pin->fold_terms(batch[j].msg, batch[j].sig, out);
        }))
      folded.push_back(j);
  }
  fold.seal(rng);
  bool fold_failed = false;
  std::vector<bool> verdicts = fold.verdicts(
      [&](size_t i) {
        const Pending& p = batch[folded[i]];
        return member_pin[folded[i]]->pin->verify(p.msg, p.sig);
      },
      &fold_failed);
  for (size_t i = 0; i < folded.size(); ++i) results[folded[i]] = verdicts[i];
  uint64_t accepted = 0;
  for (bool ok : results) accepted += ok;
  const uint64_t rejected = batch.size() - errors - accepted;
  {
    // Stats are committed BEFORE the promises resolve, so a caller that
    // observes a ready future also observes its batch in stats().
    std::lock_guard<std::mutex> l(m_);
    ServiceStats& slice = slice_locked(scheme);
    total_.cache_lookups += pins.size();
    slice.cache_lookups += pins.size();
    total_.cache_misses += misses;
    slice.cache_misses += misses;
    if (fold_failed) {
      ++total_.fallbacks;
      ++slice.fallbacks;
    }
    total_.accepted += accepted;
    total_.rejected += rejected;
    total_.errors += errors;
    slice.accepted += accepted;
    slice.rejected += rejected;
    slice.errors += errors;
    total_.in_progress -= batch.size();
    slice.in_progress -= batch.size();
  }
  if (errors)
    BNR_LOG(obs::LogLevel::kError, "service", "verify_key_error",
            obs::kv("scheme", uint64_t(scheme)) +
                obs::kv("members", errors));
  if (obs::enabled()) {
    // Latency records alongside the verdict commit (also before the
    // callbacks), so histogram totals and the accepted/rejected counters
    // can never disagree for an observer. Errors record no latency.
    auto now = std::chrono::steady_clock::now();
    obs::Histogram& hist = latency_[scheme_stats_slot(scheme)];
    for (size_t j = 0; j < batch.size(); ++j) {
      const Pending& p = batch[j];
      if (p.trace) p.trace->stamp(obs::Stage::kCryptoDone);
      if (!member_pin[j]->error &&
          p.submitted_at.time_since_epoch().count() != 0)
        hist.record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - p.submitted_at)
                .count()));
    }
  }
  for (size_t j = 0; j < batch.size(); ++j) {
    batch[j].done(results[j], member_pin[j]->error);
    batch[j].done = nullptr;
  }
}

void MultiTenantVerificationService::flusher_loop() {
  std::unique_lock<std::mutex> l(m_);
  for (;;) {
    if (stop_) return;
    if (pending_.empty()) {
      pool_idle_hint_ = false;  // only meaningful against a live batch
      cv_.wait(l, [&] { return stop_ || !pending_.empty(); });
      continue;
    }
    // Adaptive: a pool gone idle flushes the batch immediately; max_delay
    // below stays as the upper bound when the pool never drains.
    if (policy_.adaptive && pool_idle_hint_) {
      pool_idle_hint_ = false;
      ++total_.idle_flushes;
      dispatch_locked(l, /*deadline=*/false);
      continue;
    }
    auto deadline = oldest_ + policy_.max_delay;
    if (cv_.wait_until(l, deadline, [&] {
          return stop_ || pending_.empty() ||
                 (policy_.adaptive && pool_idle_hint_);
        }))
      continue;  // state changed under us; re-evaluate
    if (std::chrono::steady_clock::now() < oldest_ + policy_.max_delay)
      continue;  // the armed deadline belonged to an already-flushed batch
    dispatch_locked(l, /*deadline=*/true);
  }
}

// ---------------------------------------------------------------------------
// MultiTenantCombineService

MultiTenantCombineService::MultiTenantCombineService(
    KeyCacheManager<threshold::PreparedCombiner>& cache,
    CombinerProvider prepare, ThreadPool& pool, std::string_view rng_label)
    // Entropy-seeded master (label mixed in via fork): per-task RLC
    // coefficients must be unpredictable, or colluding signers could craft
    // invalid partials whose fold error terms cancel and slip past
    // batch share verification's cheater identification.
    : cache_(cache),
      prepare_(std::move(prepare)),
      pool_(pool),
      evaluator_(make_fold_evaluator(pool)),
      rng_(Rng::from_entropy().fork(rng_label)) {}

MultiTenantCombineService::~MultiTenantCombineService() {
  std::unique_lock<std::mutex> l(m_);
  drained_.wait(l, [&] { return in_flight_ == 0; });
}

MultiTenantCombineService::Stats& MultiTenantCombineService::slice_locked(
    threshold::SchemeId id) {
  return by_scheme_[scheme_stats_slot(id)];
}

void MultiTenantCombineService::submit(
    KeyId key, threshold::SchemeId scheme, Bytes msg,
    std::vector<threshold::PartialHandle> parts, Callback done,
    std::shared_ptr<obs::RequestTrace> trace) {
  std::chrono::steady_clock::time_point submitted_at{};
  if (obs::enabled()) {
    submitted_at = std::chrono::steady_clock::now();
    if (trace) trace->stamp(obs::Stage::kQueued);
  }
  Rng task_rng = [&] {
    std::lock_guard<std::mutex> l(m_);
    ++in_flight_;
    ++total_.submitted;
    ++slice_locked(scheme).submitted;
    return rng_.fork("combine");
  }();
  auto state = std::make_shared<std::tuple<KeyId, Bytes, Rng>>(
      std::move(key), std::move(msg), std::move(task_rng));
  auto parts_shared =
      std::make_shared<std::vector<threshold::PartialHandle>>(
          std::move(parts));
  auto done_shared = std::make_shared<Callback>(std::move(done));
  pool_.submit([this, scheme, state, parts_shared, done_shared, submitted_at,
                trace = std::move(trace)] {
    bool missed = false;
    CombineOutcome out;
    std::exception_ptr error;
    if (trace) trace->stamp(obs::Stage::kCryptoStart);
    try {
      // Pinned across the whole combine: the committee's prepared state
      // cannot be evicted mid-fold. Prepared from the alias-resolved
      // canonical key (see VerifierProvider).
      auto pin =
          cache_.get_or_prepare(std::get<0>(*state), [&](const KeyId& k) {
            missed = true;
            return prepare_(k);
          });
      out.sig = pin->combine(std::get<1>(*state), *parts_shared,
                             std::get<2>(*state), evaluator_, &out.cheaters);
    } catch (...) {
      error = std::current_exception();
    }
    {
      // Stats commit BEFORE the callback resolves (matching run_group): a
      // caller that observes a resolved combine also observes it in stats().
      std::lock_guard<std::mutex> l(m_);
      Stats& slice = slice_locked(scheme);
      ++total_.cache_lookups;
      ++slice.cache_lookups;
      if (missed) {
        ++total_.cache_misses;
        ++slice.cache_misses;
      }
      if (error) {
        ++total_.failed;
        ++slice.failed;
      }
    }
    if (obs::enabled()) {
      if (trace) trace->stamp(obs::Stage::kCryptoDone);
      if (submitted_at.time_since_epoch().count() != 0)
        latency_[scheme_stats_slot(scheme)].record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - submitted_at)
                .count()));
    }
    if (error)
      BNR_LOG(obs::LogLevel::kInfo, "service", "combine_failed",
              obs::kv("key", std::get<0>(*state)) +
                  obs::kv("scheme", uint64_t(scheme)));
    if (error)
      (*done_shared)(nullptr, error);
    else
      (*done_shared)(&out, nullptr);
    std::lock_guard<std::mutex> l(m_);
    if (--in_flight_ == 0) drained_.notify_all();
  });
}

std::future<Bytes> MultiTenantCombineService::submit(
    KeyId key, threshold::SchemeId scheme, Bytes msg,
    std::vector<threshold::PartialHandle> parts) {
  auto promise = std::make_shared<std::promise<Bytes>>();
  auto fut = promise->get_future();
  submit(std::move(key), scheme, std::move(msg), std::move(parts),
         [promise](CombineOutcome* out, std::exception_ptr err) {
           if (err)
             promise->set_exception(err);
           else
             promise->set_value(std::move(out->sig));
         });
  return fut;
}

MultiTenantCombineService::Stats MultiTenantCombineService::stats() const {
  std::lock_guard<std::mutex> l(m_);
  return total_;
}

MultiTenantCombineService::Stats MultiTenantCombineService::stats(
    threshold::SchemeId id) const {
  std::lock_guard<std::mutex> l(m_);
  return by_scheme_[scheme_stats_slot(id)];
}

obs::HistogramSnapshot MultiTenantCombineService::latency(
    threshold::SchemeId id) const {
  return latency_[scheme_stats_slot(id)].snapshot();
}

obs::HistogramSnapshot MultiTenantCombineService::latency() const {
  obs::HistogramSnapshot s;
  for (const auto& h : latency_) s.merge(h.snapshot());
  return s;
}

// ---------------------------------------------------------------------------
// Evaluators

threshold::FoldEvaluator make_fold_evaluator(ThreadPool& pool) {
  return [&pool](std::span<const G1Affine> points,
                 std::span<const G2Prepared* const> preps) {
    std::vector<PreparedTerm> terms;
    terms.reserve(points.size());
    for (size_t j = 0; j < points.size(); ++j)
      terms.push_back({points[j], preps[j]});
    return pairing_product_is_one_parallel(pool, terms);
  };
}

threshold::Signature combine_parallel(
    const threshold::RoCombiner& combiner, ThreadPool& pool,
    std::span<const uint8_t> msg,
    std::span<const threshold::PartialSignature> parts, Rng& rng,
    std::vector<uint32_t>* cheaters) {
  auto evaluate = make_fold_evaluator(pool);
  return combiner.combine_with(
      msg, parts, rng,
      [&](const threshold::RoCombiner::Fold& fold) {
        return evaluate(fold.points, fold.preps);
      },
      cheaters);
}

}  // namespace bnr::service
