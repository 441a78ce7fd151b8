#include "workloads.hpp"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <future>

#include "layers.hpp"
#include "oracles.hpp"

namespace sb {

using bnr::rpc::CombineResult;
using bnr::rpc::RpcClient;
using bnr::threshold::SchemeId;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Requests sent and not yet answered; the closed loop's window.
class Inflight {
 public:
  void add() {
    std::lock_guard<std::mutex> l(m_);
    ++n_;
  }
  void done() {
    std::lock_guard<std::mutex> l(m_);
    --n_;
    cv_.notify_all();
  }
  void wait_below(size_t w) {
    std::unique_lock<std::mutex> l(m_);
    cv_.wait(l, [&] { return n_ < w; });
  }
  void wait_zero() { wait_below(1); }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  size_t n_ = 0;
};

/// Calls `send(due)` at a fixed rate for `seconds`; returns how late (ms)
/// the generator ran behind its schedule at worst.
double paced(double rate, double seconds,
             const std::function<void(Clock::time_point)>& send) {
  auto t0 = Clock::now() + std::chrono::milliseconds(1);
  size_t n = size_t(seconds * rate);
  double max_lag = 0;
  for (size_t k = 0; k < n; ++k) {
    auto due = t0 + secs(double(k) / rate);
    std::this_thread::sleep_until(due);
    max_lag = std::max(max_lag, ms_between(due, Clock::now()));
    send(due);
  }
  return max_lag;
}

/// Runs `fn(i)` for i in [0, n) on every core (after the measurement).
void parallel(size_t n, const std::function<void(size_t)>& fn) {
  size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<size_t> next{0};
  std::vector<std::thread> ts;
  for (size_t t = 0; t < threads; ++t)
    ts.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  for (auto& t : ts) t.join();
}

/// Polls the futures the client returns for COMBINE and calls each one's
/// completion the moment it is ready (the client has no callback front for
/// COMBINE). One mostly idle thread.
class CombinePoller {
 public:
  using Done = std::function<void(const CombineResult*, Clock::time_point)>;

  CombinePoller() : th_([this] { loop(); }) {}
  ~CombinePoller() {
    {
      std::lock_guard<std::mutex> l(m_);
      stop_ = true;
    }
    th_.join();
  }
  CombinePoller(const CombinePoller&) = delete;
  CombinePoller& operator=(const CombinePoller&) = delete;

  void watch(std::future<CombineResult> f, Done done) {
    std::lock_guard<std::mutex> l(m_);
    incoming_.push_back({std::move(f), std::move(done)});
  }

 private:
  struct Item {
    std::future<CombineResult> f;
    Done done;
  };

  void loop() {
    std::vector<Item> mine;
    for (;;) {
      {
        std::lock_guard<std::mutex> l(m_);
        for (auto& it : incoming_) mine.push_back(std::move(it));
        incoming_.clear();
        if (stop_ && mine.empty()) return;
      }
      for (size_t i = 0; i < mine.size();) {
        if (mine[i].f.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        auto now = Clock::now();
        try {
          CombineResult res = mine[i].f.get();
          mine[i].done(&res, now);
        } catch (const std::exception&) {
          mine[i].done(nullptr, now);
        }
        mine.erase(mine.begin() + long(i));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::mutex m_;
  std::vector<Item> incoming_;
  bool stop_ = false;
  std::thread th_;  // last: started after the members it uses
};

SpanRecorder g_no_spans(false);
SpanRecorder& spans_or_off(SpanRecorder* s) { return s ? *s : g_no_spans; }

// ---------------------------------------------------------------------------
// verify-stream

class VerifyStream final : public Workload {
 public:
  static constexpr size_t kWindow = 1024;
  static constexpr size_t kBurst = 256;  // four of the daemon's max_batch
  static constexpr double kRate = 50;  // open-loop VERIFY/s

  using Workload::Workload;

  void setup() override {
    auto t0 = Clock::now();
    in_ = make_verify_inputs(scheme_, seed_);
    setup_dkg_s = seconds_between(t0, Clock::now());  // DKGs and pre-signing
    setup_dkgs = in_.tenants.size();
    start_daemon(size_t(64) << 20);
    std::vector<std::future<bool>> regs;
    for (size_t k = 0; k < in_.tenants.size(); ++k)
      regs.push_back(client_->register_ro_committee(in_.keys[k], in_.tenants[k]));
    for (auto& f : regs) f.get();
    // Warm-up: prepare every tenant's verifier.
    std::vector<std::future<bool>> warm;
    for (size_t k = 0; k < in_.tenants.size(); ++k)
      warm.push_back(client_->verify_bytes(in_.keys[k], in_.msgs[k][0], in_.sigs[k][0]));
    for (auto& f : warm)
      if (!f.get()) wrong("warm-up VERIFY rejected a valid signature");
  }

  void closed_loop(double seconds, SliceClock& slices,
                   SpanRecorder* spans) override {
    auto end = Clock::now() + secs(seconds);
    slices.start();
    while (Clock::now() < end) {
      // Refill the window a whole burst at a time, so requests reach the
      // daemon faster than its pool drains them and flushes fill up.
      inflight_.wait_below(kWindow - kBurst + 1);
      for (size_t i = 0; i < kBurst; ++i)
        send(Clock::now(), spans, [&slices](Clock::time_point) { slices.complete(); });
    }
    inflight_.wait_zero();
  }

  void open_loop(double seconds, LatencyPhase& out,
                 SpanRecorder* spans) override {
    out.max_lag_ms = paced(kRate, seconds, [&](Clock::time_point due) {
      send(due, spans, [&out, due](Clock::time_point end) {
        out.add(ms_between(due, end));
      });
    });
    inflight_.wait_zero();
  }

  uint64_t slice_ops() const override { return 500; }

  void check(RunResult& r) override {
    // Confirm every expected verdict the stream used with the uncached
    // verify; every daemon answer was already compared with it.
    std::vector<VerifyItem> distinct;
    for (const auto& it : in_.stream)
      if (std::none_of(distinct.begin(), distinct.end(), [&](const VerifyItem& d) {
            return d.tenant == it.tenant && d.msg == it.msg && d.sig == it.sig;
          }))
        distinct.push_back(it);
    std::vector<std::string> bad(distinct.size());
    parallel(distinct.size(), [&](size_t i) {
      bad[i] = check_expected_verdict(scheme_, in_, distinct[i]);
    });
    for (const auto& b : bad)
      if (!b.empty()) r.wrong(b);
    for (const auto& w : wrong_) r.wrong(w);
    if (answered_ + failed_ != attempted_) r.wrong("not every VERIFY was answered");
  }

  void sample(size_t n, SpanRecorder& ops, SpanRecorder& replay) override {
    // Each operation is replayed right after the daemon served it, so the
    // two timings see the host at the same speed.
    std::vector<std::unique_ptr<PreparedKey>> keys(in_.tenants.size());
    for (size_t i = 0; i < n; ++i) {
      const uint64_t request = pos_++;
      const VerifyItem it = in_.stream[request % in_.stream.size()];
      {
        Scoped op(ops, "op", -1, request);
        auto t0 = Clock::now();
        bool ok = client_->verify_bytes(in_.keys[it.tenant], in_.msgs[it.tenant][it.msg],
                                        in_.sigs[it.tenant][it.sig])
                      .get();
        ops.add("rpc.verify", t0, Clock::now(), op.id(), request);
        if (auto w = check_verdict(it, ok); !w.empty()) wrong(w);
      }
      auto& key = keys[it.tenant];
      if (!key) key = std::make_unique<PreparedKey>(scheme_, in_.tenants[it.tenant].pk);
      const Bytes& m = in_.msgs[it.tenant][it.msg];
      const Bytes& s = in_.sigs[it.tenant][it.sig];
      if (replay_verify(replay, -1, scheme_, *plugin_, *key, {&m, 1}, {&s, 1}) !=
          it.expect)
        wrong("in-process replay disagrees with the expected verdict");
    }
  }

  void probe() override {
    // COMBINE, which this workload does not use, on tenant 0's committee.
    const KeyMaterial& km = in_.tenants[0];
    bnr::Rng rng = seeded_rng(seed_, "probe");
    for (int i = 0; i < 8; ++i) {
      CombineRound rd;
      rd.msg = rng.bytes(32);
      for (uint32_t p = 1; p <= km.t + 1; ++p) rd.signers.push_back(p);
      auto res = client_->combine_bytes(in_.keys[0], rd.msg,
                                        sign_round(scheme_, km, rd)).get();
      if (auto w = check_combine(scheme_, km, rd, res); !w.empty()) wrong("probe: " + w);
    }
  }

  const KeyMaterial& committee() const override { return in_.tenants[0]; }

 private:
  void send(Clock::time_point start, SpanRecorder* spans,
            std::function<void(Clock::time_point)> after) {
    const uint64_t request = pos_++;
    const VerifyItem it = in_.stream[request % in_.stream.size()];
    ++attempted_;
    inflight_.add();
    client_->verify_async(
        in_.keys[it.tenant], in_.msgs[it.tenant][it.msg], in_.sigs[it.tenant][it.sig],
        [this, it, start, request, spans, after = std::move(after)](bool ok,
                                                                   std::exception_ptr err) {
          auto end = Clock::now();
          if (err) {
            ++failed_;
          } else {
            ++answered_;
            if (auto w = check_verdict(it, ok); !w.empty()) wrong(w);
          }
          if (spans) spans->add("rpc.verify", start, end, -1, request);
          after(end);
          inflight_.done();
        });
  }

  VerifyInputs in_;
  size_t pos_ = 0;
  std::atomic<uint64_t> answered_{0};
  Inflight inflight_;
};

// ---------------------------------------------------------------------------
// sign-combine

class SignCombine final : public Workload {
 public:
  static constexpr size_t kWindow = 4;
  static constexpr double kRate = 20;  // open-loop rounds/s
  static constexpr uint64_t kWarmRound = uint64_t(1) << 40;

  using Workload::Workload;

  void setup() override {
    auto t0 = Clock::now();
    km_ = make_committee(scheme_, seed_, "committee", CombineShape::kN,
                         CombineShape::kT);
    setup_dkg_s = seconds_between(t0, Clock::now());
    setup_dkgs = 1;
    start_daemon(size_t(64) << 20);
    client_->register_ro_committee("committee", km_).get();
    CombineRound warm = make_combine_round(seed_, kWarmRound);
    auto res = client_->combine_bytes("committee", warm.msg,
                                      sign_round(scheme_, km_, warm)).get();
    std::lock_guard<std::mutex> l(res_m_);
    results_.push_back({std::move(warm), std::move(res)});
  }

  void closed_loop(double seconds, SliceClock& slices,
                   SpanRecorder* spans) override {
    auto end = Clock::now() + secs(seconds);
    slices.start();
    while (Clock::now() < end) {
      inflight_.wait_below(kWindow);
      send(sign_next(spans), spans, [&slices](Clock::time_point) { slices.complete(); });
    }
    inflight_.wait_zero();
  }

  void open_loop(double seconds, LatencyPhase& out,
                 SpanRecorder* spans) override {
    // The players sign every round of the phase before it starts (on all
    // cores, untimed), so a round's latency is the COMBINE the daemon runs
    // and the generator only sends.
    std::vector<Signed> rounds(size_t(seconds * kRate));
    for (auto& r : rounds) r.rd = make_combine_round(seed_, round_++);
    parallel(rounds.size(), [&](size_t i) {
      rounds[i].parts = sign_round(scheme_, km_, rounds[i].rd);
    });
    size_t next = 0;
    out.max_lag_ms = paced(kRate, seconds, [&](Clock::time_point due) {
      send(std::move(rounds[next++]), spans, [&out, due](Clock::time_point end) {
        out.add(ms_between(due, end));
      });
    });
    inflight_.wait_zero();
  }

  uint64_t slice_ops() const override { return 25; }

  void check(RunResult& r) override {
    std::lock_guard<std::mutex> l(res_m_);
    std::vector<std::string> bad(results_.size());
    parallel(results_.size(), [&](size_t i) {
      bad[i] = check_combine(scheme_, km_, results_[i].first, results_[i].second);
    });
    for (const auto& b : bad)
      if (!b.empty()) r.wrong(b);
    for (const auto& w : wrong_) r.wrong(w);
  }

  void sample(size_t n, SpanRecorder& ops, SpanRecorder& replay) override {
    // Each round is replayed right after the daemon served it, so the two
    // timings see the host at the same speed.
    bnr::threshold::RoCombiner combiner(scheme_, km_);
    for (size_t i = 0; i < n; ++i) {
      CombineRound rd = make_combine_round(seed_, round_++);
      std::vector<Bytes> parts;
      CombineResult res;
      {
        Scoped op(ops, "op", -1, rd.index);
        {
          Scoped s(ops, "threshold.share_sign", op.id(), rd.index);
          parts = sign_round(scheme_, km_, rd);
        }
        auto t0 = Clock::now();
        res = client_->combine_bytes("committee", rd.msg, parts).get();
        ops.add("rpc.combine", t0, Clock::now(), op.id(), rd.index);
      }
      ++attempted_;
      Bytes sig = replay_combine(replay, -1, scheme_, *plugin_, combiner, daemon_->pool(),
                                 rd.msg, parts);
      if (sig != res.sig) wrong("in-process replay of COMBINE disagrees with the daemon");
      std::lock_guard<std::mutex> l(res_m_);
      results_.push_back({std::move(rd), std::move(res)});
    }
  }

  void probe() override {
    // VERIFY, which this workload does not use, on combined signatures.
    std::vector<std::pair<Bytes, Bytes>> probes;
    {
      std::lock_guard<std::mutex> l(res_m_);
      for (size_t i = 0; i < results_.size() && probes.size() < 32; ++i)
        probes.push_back({results_[i].first.msg, results_[i].second.sig});
    }
    for (auto& [msg, sig] : probes)
      if (!client_->verify_bytes("committee", msg, sig).get())
        wrong("probe: VERIFY rejected a combined signature");
  }

  const KeyMaterial& committee() const override { return km_; }

 private:
  /// A round and its partials, signed by the generating thread.
  struct Signed {
    CombineRound rd;
    std::vector<Bytes> parts;
  };

  Signed sign_next(SpanRecorder* spans) {
    Signed s;
    s.rd = make_combine_round(seed_, round_++);
    Scoped span(spans_or_off(spans), "threshold.share_sign", -1, s.rd.index);
    s.parts = sign_round(scheme_, km_, s.rd);
    return s;
  }

  void send(Signed s, SpanRecorder* spans,
            std::function<void(Clock::time_point)> after) {
    auto sent = Clock::now();
    ++attempted_;
    inflight_.add();
    auto fut = client_->combine_bytes("committee", s.rd.msg, std::move(s.parts));
    poller_.watch(std::move(fut), [this, rd = std::move(s.rd), sent, spans,
                                   after = std::move(after)](
                                      const CombineResult* res, Clock::time_point end) {
      if (!res) {
        ++failed_;
      } else {
        std::lock_guard<std::mutex> l(res_m_);
        results_.push_back({rd, *res});
      }
      if (spans) spans->add("rpc.combine", sent, end, -1, rd.index);
      after(end);
      inflight_.done();
    });
  }

  KeyMaterial km_;
  uint64_t round_ = 0;
  std::mutex res_m_;
  std::vector<std::pair<CombineRound, CombineResult>> results_;
  Inflight inflight_;
  CombinePoller poller_;  // last: joined before the members it calls into
};

// ---------------------------------------------------------------------------
// committee-onboard

class CommitteeOnboard final : public Workload {
 public:
  static constexpr size_t kCacheBytes = size_t(4) << 20;
  static constexpr uint64_t kWarmOp = uint64_t(1) << 40;

  using Workload::Workload;

  void setup() override {
    start_daemon(kCacheBytes);
    hostile_[0] = hostile_public_key(scheme_, Hostile::kOutsideSubgroup);
    hostile_[1] = hostile_public_key(scheme_, Hostile::kIdentity);
    auto t0 = Clock::now();
    run_op(kWarmOp, g_no_spans, nullptr);  // warm-up: one whole onboarding
    setup_dkg_s = seconds_between(t0, Clock::now());
    setup_dkgs = 1;
  }

  void closed_loop(double seconds, SliceClock& slices,
                   SpanRecorder* spans) override {
    auto end = Clock::now() + secs(seconds);
    slices.start();
    do {
      // Whole rounds only: nine committees and one hostile registration.
      uint64_t honest = 0;
      for (size_t j = 0; j < OnboardShape::kRound; ++j)
        honest += run_op(next_op_++, spans_or_off(spans), &lat_ms_) ? 1 : 0;
      slices.complete(honest);
    } while (Clock::now() < end);
  }

  bool has_open_loop() const override { return false; }
  void open_loop(double, LatencyPhase&, SpanRecorder*) override {}
  std::vector<double> closed_latencies_ms() const override { return lat_ms_; }
  uint64_t slice_ops() const override { return OnboardShape::kRound - 1; }

  void check(RunResult& r) override {
    std::vector<std::string> bad(done_.size());
    parallel(done_.size(), [&](size_t i) {
      bad[i] = check_onboard_signature(scheme_, done_[i].km, done_[i].op, done_[i].sig);
    });
    for (const auto& b : bad)
      if (!b.empty()) r.wrong(b);
    for (const auto& w : wrong_) r.wrong(w);
  }

  void sample(size_t n, SpanRecorder& ops, SpanRecorder& replay) override {
    // Whole rounds, so one operation in ten stays a hostile registration.
    // Each operation is replayed right after the daemon served it, so the
    // two timings see the host at the same speed.
    size_t before = done_.size();
    while (done_.size() < before + n || next_op_ % OnboardShape::kRound != 0) {
      size_t i = done_.size();
      run_op(next_op_++, ops, nullptr);
      if (i == done_.size()) continue;  // a hostile registration
      const Done& d = done_[i];
      replay_prepare(replay, -1, *plugin_, d.km);
      bnr::threshold::RoCombiner combiner(scheme_, d.km);
      OnboardOp op = d.op;
      CombineRound rd;
      rd.msg = op.msg;
      rd.signers = op.signers;
      std::vector<Bytes> parts = sign_round(scheme_, d.km, rd);
      if (replay_combine(replay, -1, scheme_, *plugin_, combiner, daemon_->pool(), op.msg, parts) != d.sig)
        wrong("in-process replay of COMBINE disagrees with the daemon");
      PreparedKey key(scheme_, d.km.pk);
      for (int v = 0; v < 2; ++v)
        if (!replay_verify(replay, -1, scheme_, *plugin_, key, {&d.op.msg, 1}, {&d.sig, 1}))
          wrong("in-process replay of VERIFY rejected a combined signature");
    }
  }

  void probe() override {}  // VERIFY and COMBINE both run in every operation

  const KeyMaterial& committee() const override { return done_.front().km; }

 private:
  struct Done {
    std::string key;
    OnboardOp op;
    KeyMaterial km;
    Bytes sig;
  };

  /// One operation; true when it onboarded a committee.
  bool run_op(uint64_t index, SpanRecorder& spans, std::vector<double>* lat) {
    OnboardOp op = make_onboard_op(seed_, index);
    bool measured = index != kWarmOp;
    if (measured) ++attempted_;
    if (op.hostile != Hostile::kNone) {
      const Bytes& pk = hostile_[op.hostile == Hostile::kIdentity ? 1 : 0];
      if (auto w = check_hostile_key(pk); !w.empty()) wrong(w);
      bool refused = false;
      try {
        client_->register_key("hostile-" + std::to_string(index), SchemeId::kRo, pk).get();
      } catch (const bnr::rpc::RpcError&) {
        refused = true;
      }
      // An accepted hostile key is the daemon's fault: a failed operation.
      if (!check_hostile_refused(refused).empty()) ++failed_;
      return false;
    }
    auto t0 = Clock::now();
    Scoped root(spans, "op", -1, index);
    try {
      Done d;
      d.key = "committee-" + std::to_string(index);
      d.op = op;
      {
        Scoped s(spans, "dkg.dist_keygen", root.id(), index);
        d.km = make_committee(scheme_, seed_, "onboard/" + std::to_string(index),
                              OnboardShape::kN, OnboardShape::kT);
      }
      auto call = [&](const char* name, auto&& fn) {
        auto a = Clock::now();
        auto v = fn();
        spans.add(name, a, Clock::now(), root.id(), index);
        return v;
      };
      call("rpc.register", [&] { return client_->register_ro_committee(d.key, d.km).get(); });
      std::vector<Bytes> parts;
      {
        Scoped s(spans, "threshold.share_sign", root.id(), index);
        CombineRound rd;
        rd.msg = op.msg;
        rd.signers = op.signers;
        parts = sign_round(scheme_, d.km, rd);
      }
      d.sig = call("rpc.combine", [&] {
                return client_->combine_bytes(d.key, op.msg, parts).get();
              }).sig;
      if (!call("rpc.verify", [&] { return client_->verify_bytes(d.key, op.msg, d.sig).get(); }))
        wrong("VERIFY rejected the combined signature of " + d.key);
      if (!done_.empty()) {
        const Done& old = done_[op.revisit % done_.size()];
        if (!call("rpc.verify", [&] {
              return client_->verify_bytes(old.key, old.op.msg, old.sig).get();
            }))
          wrong("VERIFY rejected the signature of earlier committee " + old.key);
      }
      done_.push_back(std::move(d));
    } catch (const std::exception&) {
      if (measured) ++failed_;
      return false;
    }
    if (lat && measured) lat->push_back(ms_between(t0, Clock::now()));
    return true;
  }

  std::array<Bytes, 2> hostile_;
  uint64_t next_op_ = 0;
  std::vector<Done> done_;
  std::vector<double> lat_ms_;
};

}  // namespace

// ---------------------------------------------------------------------------

Workload::Workload(uint64_t seed)
    : seed_(seed),
      scheme_(bnr::threshold::SystemParams::derive(kParamsLabel)),
      registry_(scheme_.params()),
      plugin_(registry_.find(SchemeId::kRo)) {}

void Workload::start_daemon(size_t cache_bytes) {
  daemon_ = std::make_unique<Daemon>(cache_bytes);
  bnr::rpc::ClientConfig cc;
  cc.retry.max_attempts = 1;  // a refused or lost request is a failure
  cc.drain_timeout = std::chrono::milliseconds(30000);
  client_ = std::make_unique<RpcClient>("127.0.0.1", daemon_->port(), cc);
}

void Workload::wrong(const std::string& what) {
  std::lock_guard<std::mutex> l(wrong_m_);
  if (wrong_.size() < 16) wrong_.push_back(what);
}

bool known_workload(const std::string& name) {
  return name == "verify-stream" || name == "sign-combine" ||
         name == "committee-onboard";
}

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "verify-stream") return std::make_unique<VerifyStream>(seed);
  if (name == "sign-combine") return std::make_unique<SignCombine>(seed);
  if (name == "committee-onboard") return std::make_unique<CommitteeOnboard>(seed);
  return nullptr;
}

}  // namespace sb
