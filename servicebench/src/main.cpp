// servicebench: the end-to-end benchmark of the threshold-signature
// service. Usage:
//
//   servicebench --workload <verify-stream|sign-combine|committee-onboard>
//                --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress and tables on stdout and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cstdio>
#include <map>
#include <stdexcept>

#include "layers.hpp"
#include "workloads.hpp"

namespace sb {
namespace {

/// A latency phase whose generator fell further behind its schedule than
/// this is reported as invalid, not scored.
constexpr double kMaxLagMs = 100;
/// Set-ups per untraced run (at least kSetups, and more while they have
/// taken under kSetupSeconds, so short set-ups get a steadier median);
/// setup_s is their median.
constexpr int kSetups = 5;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 4;

std::vector<SliceClock::Slice> steady_slices(std::vector<SliceClock::Slice> s) {
  // The first slice includes the window filling up; drop it when enough
  // slices remain.
  if (s.size() >= 8) s.erase(s.begin());
  return s;
}

struct Invalid : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void print_info(const char* what, const std::string& body) {
  printf("info %s %s\n", what, body.c_str());
}

RunResult run_untraced(const Options& o) {
  RunResult r;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  double setup_total = 0;
  while (setup_s.size() < size_t(kSetups) ||
         (setup_total < kSetupSeconds && setup_s.size() < size_t(kMaxSetups))) {
    w.reset();
    auto t0 = Clock::now();
    auto fresh = make_workload(o.workload, o.seed);
    fresh->setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_total += setup_s.back();
    w = std::move(fresh);
  }
  LatencyPhase lat;
  auto before = w->daemon().server().verify_stats();
  SliceClock slices(w->slice_ops());
  const bool open = w->has_open_loop();
  w->closed_loop(open ? o.seconds / 2 : o.seconds, slices, nullptr);
  auto after = w->daemon().server().verify_stats();
  Throughput tp = fast_half(steady_slices(slices.slices()));
  if (open) {
    w->open_loop(o.seconds / 2, lat, nullptr);
  } else {
    lat.ms = w->closed_latencies_ms();
  }
  if (lat.max_lag_ms > kMaxLagMs)
    throw Invalid("latency phase invalid: the generator ran " +
                  std::to_string(lat.max_lag_ms) + " ms behind its schedule");
  // Read before the checks, whose oracles run on threads of their own.
  const double rss_mb = rss_peak_mb();
  w->check(r);
  r.attempted = w->attempted();
  r.failed = w->failed();

  uint64_t folds = after.batches - before.batches;
  char buf[256];
  snprintf(buf, sizeof buf,
           "closed_ops=%llu slices=%zu latency_samples=%zu max_lag_ms=%.3f "
           "fold_size_mean=%.3f setups=%zu",
           (unsigned long long)slices.completed(), tp.slices, lat.ms.size(),
           lat.max_lag_ms,
           folds ? double(after.submitted - before.submitted) / double(folds)
                 : 0.0,
           setup_s.size());
  print_info(o.workload.c_str(), buf);
  // The tail is printed, not scored: on the reference host its run-to-run
  // spread exceeds any usable bound (see the README).
  snprintf(buf, sizeof buf, "p90_ms=%.4f p95_ms=%.4f p99_ms=%.4f",
           quantile(lat.ms, 0.90), quantile(lat.ms, 0.95), quantile(lat.ms, 0.99));
  print_info(o.workload.c_str(), buf);
  snprintf(buf, sizeof buf,
           "closed_loop_flushes size=%llu deadline=%llu idle=%llu",
           (unsigned long long)(after.size_flushes - before.size_flushes),
           (unsigned long long)(after.deadline_flushes - before.deadline_flushes),
           (unsigned long long)(after.idle_flushes - before.idle_flushes));
  print_info(o.workload.c_str(), buf);

  r.add("setup_s", median(setup_s), "s");
  r.add("ops_per_s", tp.ops_per_s, "1/s");
  r.add("p50_ms", median(lat.ms), "ms");
  r.add("cpu_ms_per_op", tp.cpu_ms_per_op, "ms");
  r.add("rss_peak_mb", rss_mb, "MB");
  return r;
}

// -- traced run ----------------------------------------------------------------

struct Counters {
  bnr::rpc::DaemonStats st;
  bnr::obs::MetricsSnapshot m;
};

Counters snap(Workload& w) {
  return {w.client().stats_sync(), w.client().metrics_sync(0)};
}

/// Histogram `name` (RO label when `ro`) accumulated between two snapshots.
bnr::obs::HistogramSnapshot delta(const Counters& a, const Counters& b,
                                  const char* name, bool ro) {
  const char* lbl = ro ? "scheme=\"ro\"" : "";
  bnr::obs::HistogramSnapshot d;
  const auto* hb = b.m.find_histogram(name, lbl);
  if (!hb) return d;
  d = hb->snap;
  const auto* ha = a.m.find_histogram(name, lbl);
  if (!ha || ha->snap.buckets.empty()) return d;
  d.count -= ha->snap.count;
  d.sum -= ha->snap.sum;
  for (size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] -= ha->snap.buckets[i];
  return d;
}

double p50_ms(const bnr::obs::HistogramSnapshot& h) {
  return double(h.percentile(0.5)) * 1e-6;
}

RunResult run_traced(const Options& o) {
  RunResult r;
  auto w = make_workload(o.workload, o.seed);
  w->setup();
  const bool open = w->has_open_loop();
  const double phase = o.seconds / (open ? 3 : 2);

  // Loaded phases: untraced then traced closed loop, traced open loop,
  // probes of the methods the workload does not use.
  Counters c0 = snap(*w);
  SliceClock plain(w->slice_ops()), traced(w->slice_ops());
  w->closed_loop(phase, plain, nullptr);
  SpanRecorder loaded(true);
  w->closed_loop(phase, traced, &loaded);
  LatencyPhase lat;
  if (open) w->open_loop(phase, lat, &loaded);
  uint64_t loop_ops = plain.completed() + traced.completed() + lat.ms.size();
  w->probe();
  Counters c1 = snap(*w);

  // PING round trips on a fixed 1 kHz schedule.
  std::vector<double> ping_us;
  {
    double lag = 0;
    auto t0 = Clock::now() + std::chrono::milliseconds(1);
    for (int k = 0; k < 200; ++k) {
      auto due = t0 + std::chrono::microseconds(1000 * k);
      std::this_thread::sleep_until(due);
      lag = std::max(lag, seconds_between(due, Clock::now()) * 1e3);
      auto sent = Clock::now();
      w->client().ping().get();
      ping_us.push_back(seconds_between(sent, Clock::now()) * 1e6);
    }
    lat.max_lag_ms = std::max(lat.max_lag_ms, lag);
  }
  // REGISTER round trips (a fresh tenant name for the workload's committee).
  std::vector<double> reg_ms;
  for (int k = 0; k < 16; ++k) {
    auto a = Clock::now();
    w->client().register_ro_committee("register-probe-" + std::to_string(k),
                                      w->committee()).get();
    reg_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
  }

  // Operations one at a time, and their daemon-side crypto replayed: 24,
  // or one round of onboardings (nine committees and a hostile key).
  size_t sample_n = o.workload == "committee-onboard" ? OnboardShape::kRound - 1 : 24;
  SpanRecorder ops(true), replay(true);
  Counters m0 = snap(*w);
  w->sample(sample_n, ops, replay);
  Counters m1 = snap(*w);

  w->check(r);
  r.attempted = w->attempted();
  r.failed = w->failed();

  // -- service and key_cache, over the loaded phases ------------------------
  double submitted = double(c1.st.verify_submitted - c0.st.verify_submitted);
  double folds = double(c1.st.verify_batches - c0.st.verify_batches);
  double fold_mean = folds > 0 ? submitted / folds : 0;
  r.add("service.fold_size_mean", fold_mean, "count");
  r.add("service.fallbacks_per_kop",
        submitted > 0 ? 1e3 * double(c1.st.verify_fallbacks - c0.st.verify_fallbacks) / submitted
                      : 0,
        "count");
  r.add("service.verify_latency_p50_ms",
        p50_ms(delta(c0, c1, "bnr_verify_latency_seconds", true)), "ms");
  r.add("service.combine_latency_p50_ms",
        p50_ms(delta(c0, c1, "bnr_combine_latency_seconds", true)), "ms");
  r.add("service.pool_wait_p50_ms",
        p50_ms(delta(c0, c1, "bnr_pool_task_wait_seconds", false)), "ms");
  r.add("service.pool_exec_p50_ms",
        p50_ms(delta(c0, c1, "bnr_pool_task_exec_seconds", false)), "ms");
  double hits = double(c1.st.cache_hits - c0.st.cache_hits);
  double misses = double(c1.st.cache_misses - c0.st.cache_misses);
  r.add("key_cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  r.add("key_cache.lookups", hits + misses, "count");
  r.add("key_cache.evictions", double(c1.st.cache_evictions - c0.st.cache_evictions),
        "count");
  r.add("key_cache.resident_mb", double(c1.st.cache_resident_bytes) / double(1 << 20),
        "MB");

  // -- rpc ---------------------------------------------------------------------
  const bool combine_op = o.workload == "sign-combine";
  std::string main_rpc = combine_op ? "rpc.combine" : "rpc.verify";
  auto svc_sample = delta(m0, m1, combine_op ? "bnr_combine_latency_seconds"
                                             : "bnr_verify_latency_seconds",
                          true);
  r.add("rpc.ping_rtt_us", median(ping_us), "us");
  r.add("rpc.frontend_ms", median(ops.durations(main_rpc)) * 1e3 - p50_ms(svc_sample), "ms");
  r.add("rpc.register_ms", median(reg_ms), "ms");

  // -- self time per operation, outside in ------------------------------------
  // rpc: client-observed call time minus the daemon's service time and
  // the front end's key canonicalization;
  // service: service time minus the replayed daemon-side crypto;
  // threshold/curve/pairing/dkg: span self times (client-side crypto of the
  // sampled operations plus the replay); unaccounted: the part of each
  // operation no layer span covers.
  std::map<std::string, double> self;
  for (const auto& lt : ops.self_by_layer()) self[lt.layer] += lt.self_s;
  for (const auto& lt : replay.self_by_layer()) self[lt.layer] += lt.self_s;
  double svc_s = 0;
  for (const char* h : {"bnr_verify_latency_seconds", "bnr_combine_latency_seconds"})
    svc_s += double(delta(m0, m1, h, true).sum) * 1e-9;
  // REGISTER's canonical_public_key runs in the front end, outside the
  // service's latency histograms.
  double canonical_s = 0;
  for (double d : replay.durations("threshold.canonical_public_key")) canonical_s += d;
  double crypto_s = replay.root_seconds() - canonical_s;
  double n = double(sample_n);
  double dkg_per_op = self["dkg"] / n * 1e3;
  std::vector<double> dkg_ms = ops.durations("dkg.dist_keygen");
  if (dkg_ms.empty()) {
    // No per-operation keygen: the setup's keygen amortized over the
    // operations of the run.
    dkg_per_op = w->setup_dkg_s * 1e3 / double(std::max<uint64_t>(1, loop_ops));
    dkg_ms.push_back(w->setup_dkg_s / double(std::max<size_t>(1, w->setup_dkgs)));
  }
  std::vector<std::pair<std::string, double>> table = {
      {"rpc", (self["rpc"] - svc_s - canonical_s) / n * 1e3},
      {"service", (svc_s - crypto_s) / n * 1e3},
      {"threshold", self["threshold"] / n * 1e3},
      {"curve", self["curve"] / n * 1e3},
      {"pairing", self["pairing"] / n * 1e3},
      {"dkg", dkg_per_op},
  };
  double op_ms = (self["op"] + self["rpc"] + self["threshold"] + self["dkg"]) / n * 1e3;
  printf("self time per operation, %s (%zu sampled operations, %.3f ms each):\n",
         o.workload.c_str(), sample_n, op_ms);
  for (auto& [layer, ms] : table) {
    printf("  %-10s %10.4f ms\n", layer.c_str(), ms);
    r.add(layer + ".self_ms_per_op", ms, "ms");
  }
  double unaccounted = self["op"] / n * 1e3;
  printf("  %-10s %10.4f ms\n", "unaccounted", unaccounted);
  r.add("trace.unaccounted_ms_per_op", unaccounted, "ms");

  r.add("dkg.dist_keygen_ms", median(dkg_ms) * 1e3, "ms");
  add_layer_timings(r, w->scheme(), w->plugin(), w->committee(), fold_mean);

  Throughput tp_plain = fast_half(steady_slices(plain.slices()));
  Throughput tp_traced = fast_half(steady_slices(traced.slices()));
  r.add("loadgen.max_lag_ms", lat.max_lag_ms, "ms");
  r.add("trace.overhead_pct",
        100.0 * (tp_plain.ops_per_s - tp_traced.ops_per_s) / tp_plain.ops_per_s, "%");
  if (lat.max_lag_ms > kMaxLagMs)
    throw Invalid("latency phase invalid: the generator ran " +
                  std::to_string(lat.max_lag_ms) + " ms behind its schedule");
  return r;
}

int usage() {
  fprintf(stderr,
          "usage: servicebench --workload <verify-stream|sign-combine|"
          "committee-onboard> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

RunResult run(const Options& o) {
  return o.trace ? run_traced(o) : run_untraced(o);
}

}  // namespace sb

int main(int argc, char** argv) {
  sb::Options o;
  o.seconds = 20;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else return sb::usage();
  }
  if (!sb::known_workload(o.workload) || !(o.seconds > 0)) return sb::usage();
  try {
    sb::print_result(sb::run(o));
  } catch (const sb::Invalid& e) {
    fprintf(stderr, "servicebench: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    fprintf(stderr, "servicebench: %s\n", e.what());
    return 1;
  }
  return 0;
}
